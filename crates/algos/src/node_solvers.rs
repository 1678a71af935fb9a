//! Truly local algorithms for the `P1` (node-labeling) problems: MIS,
//! `(Δ+1)`-coloring, `(deg+1)`-coloring and `(deg+1)`-list coloring.
//!
//! Each solver is a stage chain plus the [`on_nodes`] read-out. A chain
//! runs on the simulator with honest round counts: Linial color
//! reduction, then Kuhn–Wattenhofer halving or a class sweep, then
//! problem-specific decisions. The `P2` solvers run the same chains on the
//! line graph. The declared `f` reflect the measured shapes: `Θ(Δ log Δ)`
//! for MIS and `(Δ+1)`-coloring (KW halving dominates), `Θ(Δ² log² Δ)` for
//! the sweeps over the Linial palette. The literature's sharper bounds
//! (`O(Δ)` \[BEK14\], `O(√Δ log Δ)` \[MT20\]) are available as
//! [`ChargedModel`](crate::ChargedModel)s for round accounting.

use crate::linial::run_linial;
use crate::list_sweep::list_sweep;
use crate::mis_phase::{mis_from_coloring, MisDecision, MisOutcome};
use crate::reduce::{kw_reduce, sweep_reduce, ReduceOutcome};
use crate::traits::{GlobalCtx, TrulyLocal};
use treelocal_graph::{HalfEdge, NodeId, OrInvariant, SemiGraph, Topology};
use treelocal_problems::{
    DegPlusOneColoring, DeltaPlusOneColoring, HalfEdgeLabeling, ListColoring, Mis, MisLabel,
};
use treelocal_sim::{Ctx, RoundReport};

/// What a solver returns: the labeling and its per-phase round report.
pub(crate) type Solved<L> = (HalfEdgeLabeling<L>, RoundReport);

/// Linial → KW halving: a `(Δ+1)`-coloring.
fn kw_chain<T: Topology + Sync>(ctx: &Ctx<'_, T>) -> (ReduceOutcome, RoundReport) {
    let lin = run_linial(ctx);
    let red = kw_reduce(ctx, &lin.colors, lin.final_bound);
    let mut report = RoundReport::new();
    report.push("linial", lin.rounds).push("kw-reduce", red.rounds);
    (red, report)
}

/// Linial → KW halving → MIS color-class sweep.
pub(crate) fn mis_chain<T: Topology + Sync>(ctx: &Ctx<'_, T>) -> (MisOutcome, RoundReport) {
    let (red, mut report) = kw_chain(ctx);
    let mis = mis_from_coloring(ctx, &red.colors, u64::from(red.final_colors));
    report.push("mis-sweep", mis.rounds);
    (mis, report)
}

/// Linial → greedy class sweep: a `(deg+1)`-coloring.
pub(crate) fn deg_chain<T: Topology + Sync>(ctx: &Ctx<'_, T>) -> (ReduceOutcome, RoundReport) {
    let lin = run_linial(ctx);
    let red = sweep_reduce(ctx, &lin.colors, lin.final_bound);
    let mut report = RoundReport::new();
    report.push("linial", lin.rounds).push("sweep-reduce", red.rounds);
    (red, report)
}

/// The node read-out: runs `chain` on `sub`, then spends one `labeling`
/// round giving every half-edge `h` of every participant `v` the label
/// `label(&outcome, v, h)`. An empty restriction runs nothing and reports
/// no round.
fn on_nodes<'g, O, L: Copy>(
    sub: &SemiGraph<'g>,
    gctx: &GlobalCtx,
    chain: impl FnOnce(&Ctx<'_, SemiGraph<'g>>) -> (O, RoundReport),
    label: impl Fn(&O, NodeId, HalfEdge) -> L,
) -> Solved<L> {
    let mut labeling = HalfEdgeLabeling::new(sub.parent().edge_count());
    if sub.nodes().is_empty() {
        return (labeling, RoundReport::new());
    }
    let (out, mut report) = chain(&Ctx::restricted(sub, gctx.n, gctx.id_space));
    report.push("labeling", 1);
    for &v in sub.nodes() {
        for h in sub.half_edges_of(v) {
            labeling.set_fresh(h, label(&out, v, h));
        }
    }
    (labeling, report)
}

/// MIS in `O(Δ log Δ + log* n)` measured rounds: Linial → KW halving to a
/// `(Δ+1)`-coloring → color-class sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct MisAlgo;

impl TrulyLocal<Mis> for MisAlgo {
    fn name(&self) -> &'static str {
        "mis/linial+kw+sweep"
    }

    fn f(&self, delta: f64) -> f64 {
        (delta + 1.0) * (delta + 4.0).log2()
    }

    fn solve(&self, sub: &SemiGraph<'_>, gctx: &GlobalCtx, _: &Mis) -> Solved<MisLabel> {
        on_nodes(sub, gctx, mis_chain, |mis, v, h| {
            match mis.decisions[v.index()].or_invariant("decision for every participant") {
                MisDecision::Member => MisLabel::M,
                MisDecision::NonMember { witness } if witness == h.edge => MisLabel::P,
                MisDecision::NonMember { witness } => {
                    debug_assert!(sub.parent().endpoints(witness).contains(&v), "witness at v");
                    MisLabel::O
                }
            }
        })
    }
}

/// `(Δ+1)`-coloring in `O(Δ log Δ + log* n)` measured rounds: Linial → KW
/// halving.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaColoringAlgo;

impl TrulyLocal<DeltaPlusOneColoring> for DeltaColoringAlgo {
    fn name(&self) -> &'static str {
        "delta+1/linial+kw"
    }

    fn f(&self, delta: f64) -> f64 {
        (delta + 1.0) * (delta + 4.0).log2()
    }

    fn solve(
        &self,
        sub: &SemiGraph<'_>,
        gctx: &GlobalCtx,
        problem: &DeltaPlusOneColoring,
    ) -> Solved<u32> {
        let (degree, delta) = (sub.underlying_max_degree(), problem.delta);
        assert!(degree <= delta, "sub-instance degree {degree} exceeds promised Δ = {delta}");
        on_nodes(sub, gctx, kw_chain, |red, v, _| {
            let c = red.colors[v.index()].or_invariant("color for every participant");
            debug_assert!(c as usize <= delta + 1);
            c
        })
    }
}

/// `(deg+1)`-coloring in `O(Δ² log² Δ + log* n)` measured rounds: Linial →
/// greedy class sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct DegColoringAlgo;

impl TrulyLocal<DegPlusOneColoring> for DegColoringAlgo {
    fn name(&self) -> &'static str {
        "deg+1/linial+sweep"
    }

    fn f(&self, delta: f64) -> f64 {
        ((delta + 2.0) * (delta + 4.0).log2()).powi(2)
    }

    fn solve(&self, sub: &SemiGraph<'_>, gctx: &GlobalCtx, _: &DegPlusOneColoring) -> Solved<u32> {
        on_nodes(sub, gctx, deg_chain, |red, v, _| {
            let c = red.colors[v.index()].or_invariant("color for every participant");
            // Greedy color ≤ communication degree + 1 ≤ half-degree + 1.
            debug_assert!(c as usize <= sub.half_degree(v) + 1);
            c
        })
    }
}

/// `(deg+1)`-list coloring in `O(Δ² log² Δ + log* n)` measured rounds:
/// Linial → list-aware class sweep. The executable stand-in for MT20's
/// `O(√Δ log Δ)` list coloring (available as a
/// [`ChargedModel`](crate::ChargedModel) for accounting).
#[derive(Clone, Copy, Debug, Default)]
pub struct ListColoringAlgo;

impl TrulyLocal<ListColoring> for ListColoringAlgo {
    fn name(&self) -> &'static str {
        "list-coloring/linial+list-sweep"
    }

    fn f(&self, delta: f64) -> f64 {
        ((delta + 2.0) * (delta + 4.0).log2()).powi(2)
    }

    fn solve(&self, sub: &SemiGraph<'_>, gctx: &GlobalCtx, problem: &ListColoring) -> Solved<u32> {
        let chain = |ctx: &Ctx<'_, SemiGraph<'_>>| {
            let lin = run_linial(ctx);
            let sweep = list_sweep(ctx, &lin.colors, lin.final_bound, |v| problem.list(v));
            let mut report = RoundReport::new();
            report.push("linial", lin.rounds).push("list-sweep", sweep.rounds);
            (sweep.colors, report)
        };
        on_nodes(sub, gctx, chain, |colors, v, _| {
            let c = colors[v.index()].or_invariant("color for every participant");
            debug_assert!(problem.allows(v, c));
            c
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_gen::{random_tree, relabel, IdStrategy};
    use treelocal_problems::verify_semigraph;

    #[test]
    fn mis_algo_solves_whole_trees() {
        for seed in 0..4 {
            let g = relabel(&random_tree(120, seed), IdStrategy::Permuted { seed });
            let s = SemiGraph::whole(&g);
            let (labeling, report) = MisAlgo.solve(&s, &GlobalCtx::of(&g), &Mis);
            verify_semigraph(&Mis, &s, &labeling).unwrap();
            assert!(report.total() > 0);
        }
    }

    #[test]
    fn mis_algo_solves_node_restrictions() {
        // Restrict to even-index nodes: rank-1 boundary edges appear.
        let g = random_tree(80, 11);
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() % 2 == 0);
        let (labeling, _) = MisAlgo.solve(&s, &GlobalCtx::of(&g), &Mis);
        verify_semigraph(&Mis, &s, &labeling).unwrap();
    }

    #[test]
    fn delta_coloring_solves_restrictions() {
        let g = random_tree(100, 5);
        let p = DeltaPlusOneColoring { delta: g.max_degree() };
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() % 3 != 0);
        let (labeling, _) = DeltaColoringAlgo.solve(&s, &GlobalCtx::of(&g), &p);
        verify_semigraph(&p, &s, &labeling).unwrap();
    }

    #[test]
    fn deg_coloring_solves_whole_and_restrictions() {
        let g = random_tree(90, 2);
        let s = SemiGraph::whole(&g);
        let (labeling, _) = DegColoringAlgo.solve(&s, &GlobalCtx::of(&g), &DegPlusOneColoring);
        verify_semigraph(&DegPlusOneColoring, &s, &labeling).unwrap();

        let r = SemiGraph::induced_by_nodes(&g, |v| v.index() < 45);
        let (labeling, _) = DegColoringAlgo.solve(&r, &GlobalCtx::of(&g), &DegPlusOneColoring);
        verify_semigraph(&DegPlusOneColoring, &r, &labeling).unwrap();
    }

    #[test]
    fn declared_f_is_monotone_nonzero() {
        for d in 1..100 {
            let x = d as f64;
            assert!(TrulyLocal::<Mis>::f(&MisAlgo, x) > 0.0);
            assert!(TrulyLocal::<Mis>::f(&MisAlgo, x + 1.0) >= TrulyLocal::<Mis>::f(&MisAlgo, x));
            assert!(
                TrulyLocal::<DegPlusOneColoring>::f(&DegColoringAlgo, x + 1.0)
                    >= TrulyLocal::<DegPlusOneColoring>::f(&DegColoringAlgo, x)
            );
        }
    }

    #[test]
    fn empty_restriction_is_trivial() {
        let g = random_tree(10, 1);
        let s = SemiGraph::induced_by_nodes(&g, |_| false);
        let (labeling, report) = MisAlgo.solve(&s, &GlobalCtx::of(&g), &Mis);
        assert_eq!(labeling.assigned_count(), 0);
        assert_eq!(report.total(), 0);
    }

    #[test]
    fn list_coloring_solves_whole_and_restrictions() {
        let g = random_tree(90, 6);
        // Offset lists exercising non-contiguous palettes.
        let lists: Vec<Vec<u32>> =
            g.node_ids().map(|v| (0..=(g.degree(v) as u32)).map(|i| 5 * i + 2).collect()).collect();
        let p = ListColoring::new(&g, lists).unwrap();
        let s = SemiGraph::whole(&g);
        let (labeling, _) = ListColoringAlgo.solve(&s, &GlobalCtx::of(&g), &p);
        verify_semigraph(&p, &s, &labeling).unwrap();

        // Node restriction: half-degrees equal full degrees for members.
        let r = SemiGraph::induced_by_nodes(&g, |v| v.index() % 2 == 0);
        let (labeling, _) = ListColoringAlgo.solve(&r, &GlobalCtx::of(&g), &p);
        verify_semigraph(&p, &r, &labeling).unwrap();
    }
}
