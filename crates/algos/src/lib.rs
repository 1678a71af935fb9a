//! Truly local algorithms: the `O(f(Δ) + log* n)`-round building blocks
//! that the Brandt–Narayanan transformation consumes.
//!
//! # Primitives
//!
//! * [`run_linial`] — Linial-style color reduction to `O(Δ²)` colors in
//!   `log* n + O(1)` rounds (polynomial construction over `F_q`), also
//!   available in explicit Definition 5 message-passing form
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
//! * [`MisAlgo`], [`DeltaColoringAlgo`], [`DegColoringAlgo`] — class `P1`,
//! * [`MatchingAlgo`], [`EdgeColoringAlgo`], [`PaletteEdgeColoringAlgo`] —
//!   class `P2` (via line graphs).
//!
//! [`ChargedModel`] carries the literature complexity bounds (BBKO22b's
//! `O(log^12 Δ)` edge coloring etc.) used for round accounting in the
//! headline experiments; see DESIGN.md §4 for the substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
#[cfg(feature = "parallel")]
pub use linial::{run_linial_messages_with_threads, run_linial_with_threads};
pub use list_sweep::{list_sweep, ListSweepOutcome};
#[cfg(feature = "parallel")]
pub use mis_phase::mis_from_coloring_with_threads;
pub use mis_phase::{is_valid_mis_on, mis_from_coloring, MisDecision, MisOutcome};
pub use node_solvers::{DegColoringAlgo, DeltaColoringAlgo, ListColoringAlgo, MisAlgo};
#[cfg(feature = "parallel")]
pub use reduce::kw_reduce_with_threads;
pub use reduce::{kw_reduce, sweep_reduce, ReduceOutcome};
pub use traits::{ChargedModel, GlobalCtx, TrulyLocal};
