//! Truly local algorithms: the `O(f(Δ) + log* n)`-round building blocks
//! that the Brandt–Narayanan transformation consumes.
//!
//! # Primitives
//!
//! * [`run_linial`] — Linial-style color reduction to `O(Δ²)` colors in
//!   `log* n + O(1)` rounds (polynomial construction over `F_q`), also
//!   run on the explicit Definition 5 message engine
//!   ([`run_linial_messages`], identical colors and round counts),
//! * [`kw_reduce`] — Kuhn–Wattenhofer parallel halving to `Δ+1` colors in
//!   `O(Δ log Δ)` rounds,
//! * [`sweep_reduce`] — class-sweep reduction to a greedy coloring,
//! * [`three_color_rooted`] — Cole–Vishkin 3-coloring of rooted forests,
//! * [`mis_from_coloring`] — MIS via the color-class sweep,
//! * [`line_graph`] — explicit line graphs with the honest `2r + 1`
//!   simulation cost model.
//!
//! # Solvers (implementations of [`TrulyLocal`])
//!
//! * [`MisAlgo`], [`DeltaColoringAlgo`], [`DegColoringAlgo`],
//!   [`ListColoringAlgo`] — class `P1`: each is one stage chain (Linial,
//!   then KW halving or a class sweep, then the problem's decisions) plus
//!   one read-out that puts each node's decision on its half-edges;
//! * [`MatchingAlgo`], [`EdgeColoringAlgo`], [`PaletteEdgeColoringAlgo`],
//!   [`BMatchingAlgo`] — class `P2`: each is a `P1` chain run on the line
//!   graph (maximal matching is the MIS chain, both edge colorings the
//!   `(deg+1)`-coloring chain), its phases reported as `name(L)` at
//!   [`simulated_rounds`] cost, plus one read-out that labels each rank-2
//!   edge from its line node and each rank-1 half with the problem's `D`.
//!
//! Every colour-class sweep, the `b`-matching sweep included, is a rule on
//! one engine algorithm, so every reported round is a round that ran.
//!
//! Every engine algorithm here is one [`treelocal_sim::SyncAlgorithm`]
//! whose step reads its neighbours by port, so each runs unchanged on both
//! engines; its module tests run it under `run` and `run_messages` on
//! every labelled tree with up to 6 nodes plus a random corpus and compare
//! states and rounds.
//!
//! [`ChargedModel`] carries the literature complexity bounds (BBKO22b's
//! `O(log^12 Δ)` edge coloring etc.) used for round accounting in the
//! headline experiments; see [`ChargedModel`'s substitutions](ChargedModel#substitutions)
//! for the rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class_sweep;
mod cv;
mod edge_solvers;
mod line_graph;
mod linial;
mod list_sweep;
mod mis_phase;
mod node_solvers;
mod reduce;
mod traits;

pub use cv::{cv_reduce_rounds, is_proper_on_forest, three_color_rooted, CvOutcome};
pub use edge_solvers::{BMatchingAlgo, EdgeColoringAlgo, MatchingAlgo, PaletteEdgeColoringAlgo};
pub use line_graph::{line_graph, simulated_rounds, LineGraph};
pub use linial::{
    is_proper, linial_final_colors, linial_schedule, run_linial, run_linial_messages, ColorState,
    LinialOutcome, Stage,
};
pub use list_sweep::{list_sweep, ListSweepOutcome};
pub use mis_phase::{is_valid_mis_on, mis_from_coloring, MisDecision, MisOutcome};
pub use node_solvers::{DegColoringAlgo, DeltaColoringAlgo, ListColoringAlgo, MisAlgo};
pub use reduce::{kw_reduce, sweep_reduce, ReduceOutcome};
pub use traits::{ChargedModel, GlobalCtx, TrulyLocal};

/// Runs `algo` on `ctx` under both engines and asserts that the round
/// counts and every final state agree: the Definition 5 cross-check each
/// algorithm's tests run on [`treelocal_gen::cross_check_trees`].
#[cfg(test)]
fn assert_engines_agree<T, A>(ctx: &treelocal_sim::Ctx<'_, T>, algo: &A, max_rounds: u64)
where
    T: treelocal_graph::Topology + Sync,
    A: treelocal_sim::SyncAlgorithm<T> + Sync,
    A::State: PartialEq,
{
    let snapshot = treelocal_sim::run(ctx, algo, max_rounds);
    let messages = treelocal_sim::run_messages(ctx, algo, max_rounds);
    assert_eq!(snapshot.rounds, messages.rounds, "round counts diverge");
    assert!(snapshot.states().eq(messages.states()), "states diverge");
}

#[cfg(test)]
mod tests {
    use std::mem::size_of;

    /// The engine stores states as they are, one `Vec<S>` per run, so a
    /// widened field would silently grow the 10M-node columns: Linial's
    /// and Cole–Vishkin's colors are one word, a sweep state two.
    #[test]
    fn state_columns_keep_their_widths() {
        assert_eq!(size_of::<crate::ColorState>(), 8);
        assert_eq!(size_of::<crate::cv::CvState>(), 8);
        assert_eq!(size_of::<crate::class_sweep::SweepState>(), 16);
    }
}
