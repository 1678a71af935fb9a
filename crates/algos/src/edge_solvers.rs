//! Truly local algorithms for the `P2` (edge-labeling) problems: each is
//! a `P1` stage chain on the line graph `L` plus the [`on_edges`] read-out
//! (Section 5 of the paper relies on the same correspondences):
//!
//! * maximal matching = the MIS chain on `L`,
//! * `(edge-degree+1)`-edge coloring = the `(deg+1)`-coloring chain on `L`,
//! * `(2Δ−1)`-edge coloring = the same coloring read into a fixed palette,
//! * maximal `b`-matching = Linial on `L`, then a class sweep that admits
//!   an edge while both endpoints have capacity left.
//!
//! Every sweep runs on the engine ([`crate::class_sweep`]); [`on_line`]
//! charges each simulated round at the honest `2r + 1` exchange rate (see
//! [`crate::line_graph`]). The literature's sharper bounds (`O(Δ)` matching
//! \[PR01\], `O(log^12 Δ)` edge coloring \[BBKO22b\]) are available as
//! [`ChargedModel`](crate::ChargedModel)s.

use crate::class_sweep::{class_sweep, SweepRule};
use crate::line_graph::{line_graph, on_line, LineGraph};
use crate::linial::run_linial;
use crate::mis_phase::MisDecision;
use crate::node_solvers::{deg_chain, mis_chain, Solved};
use crate::traits::{GlobalCtx, TrulyLocal};
use treelocal_graph::{EdgeId, Graph, HalfEdge, NodeId, OrInvariant, SemiGraph, Side, Topology};
use treelocal_problems::{
    BMatchLabel, BMatching, EdgeColLabel, EdgeDegreeColoring, HalfEdgeLabeling, MatchLabel,
    MaximalMatching, PaletteEdgeColoring, PaletteLabel,
};
use treelocal_sim::{Ctx, RoundReport};

/// The edge read-out: runs `chain` on the line graph `l` of `sub` (nothing
/// when `l` is empty) and reports it [`on_line`], then spends one
/// `labeling` round. Each rank-2 edge `e` with line node `ln` gets
/// `rank2(&outcome, e, ln)` on its first and second half; the present half
/// of each rank-1 edge gets the problem's `d`.
fn on_edges<O, L: Copy>(
    sub: &SemiGraph<'_>,
    gctx: &GlobalCtx,
    l: &LineGraph,
    d: L,
    chain: impl FnOnce(&Ctx<'_, Graph>) -> (O, RoundReport),
    rank2: impl Fn(&O, EdgeId, usize) -> [L; 2],
) -> Solved<L> {
    let staged =
        (l.graph.node_count() > 0).then(|| chain(&Ctx::restricted(&l.graph, gctx.n, l.id_space)));
    let mut report = staged.as_ref().map_or_else(RoundReport::new, |(_, stages)| on_line(stages));
    report.push("labeling", 1);
    let mut labeling = HalfEdgeLabeling::new(sub.parent().edge_count());
    for &e in sub.edges() {
        if sub.rank(e) == 2 {
            let (out, _) = staged.as_ref().or_invariant("a rank-2 edge makes L non-empty");
            let ln = l.lnode_of[e.index()].or_invariant("rank-2 edge is a line node");
            let [first, second] = rank2(out, e, ln as usize);
            labeling.set_fresh(HalfEdge::new(e, Side::First), first);
            labeling.set_fresh(HalfEdge::new(e, Side::Second), second);
        } else {
            let side = if sub.half_present(e, Side::First) { Side::First } else { Side::Second };
            labeling.set_fresh(HalfEdge::new(e, side), d);
        }
    }
    (labeling, report)
}

/// The rank-2 labels of an edge set chosen by line node: a chosen edge is
/// `m` on both halves; an unchosen one is, per endpoint, `full` once that
/// endpoint has `b` chosen edges (a matching: `b = 1`) and `open` before.
fn capacity_labels<'a, L: Copy + 'a>(
    sub: &'a SemiGraph<'a>,
    l: &'a LineGraph,
    b: usize,
    [m, full, open]: [L; 3],
) -> impl Fn(&Vec<bool>, EdgeId, usize) -> [L; 2] + 'a {
    move |chosen, e, ln| {
        let load = |w| {
            let at_w = sub.underlying_neighbor_edges(w).iter();
            at_w.filter(|f| l.lnode_of[f.index()].is_some_and(|x| chosen[x as usize])).count()
        };
        if chosen[ln] {
            [m; 2]
        } else {
            sub.parent().endpoints(e).map(|w| if load(w) >= b { full } else { open })
        }
    }
}

/// Maximal matching in `O(Δ log Δ + log* n)` measured (simulated) rounds:
/// MIS on the line graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchingAlgo;

impl TrulyLocal<MaximalMatching> for MatchingAlgo {
    fn name(&self) -> &'static str {
        "matching/line-mis"
    }

    fn f(&self, delta: f64) -> f64 {
        // Line-graph degree is ≤ 2Δ - 2; the simulation doubles rounds.
        2.0 * (2.0 * delta + 1.0) * (2.0 * delta + 4.0).log2()
    }

    fn solve(
        &self,
        sub: &SemiGraph<'_>,
        gctx: &GlobalCtx,
        _problem: &MaximalMatching,
    ) -> Solved<MatchLabel> {
        let l = line_graph(sub);
        let chain = |ctx: &Ctx<'_, Graph>| {
            let (mis, stages) = mis_chain(ctx);
            (mis.decisions.iter().map(|d| *d == Some(MisDecision::Member)).collect(), stages)
        };
        let labels = capacity_labels(sub, &l, 1, [MatchLabel::M, MatchLabel::P, MatchLabel::O]);
        on_edges(sub, gctx, &l, MatchLabel::D, chain, labels)
    }
}

/// `(edge-degree+1)`-edge coloring in `O(Δ² log² Δ + log* n)` measured
/// (simulated) rounds: `(deg+1)`-coloring of the line graph by Linial +
/// class sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeColoringAlgo;

impl TrulyLocal<EdgeDegreeColoring> for EdgeColoringAlgo {
    fn name(&self) -> &'static str {
        "edge-degree+1/line-sweep"
    }

    fn f(&self, delta: f64) -> f64 {
        2.0 * ((2.0 * delta + 2.0) * (2.0 * delta + 4.0).log2()).powi(2)
    }

    fn solve(
        &self,
        sub: &SemiGraph<'_>,
        gctx: &GlobalCtx,
        _problem: &EdgeDegreeColoring,
    ) -> Solved<EdgeColLabel> {
        let l = line_graph(sub);
        on_edges(sub, gctx, &l, EdgeColLabel::D, deg_chain, |red, e, ln| {
            let b = red.colors[ln].or_invariant("line node colored");
            // Degree parts: the underlying degree of each endpoint (= the
            // count of its non-D labels in this instance).
            let [au, av] = sub.parent().endpoints(e).map(|w| sub.underlying_degree(w) as u32);
            debug_assert!(au + av > b, "greedy color within edge-degree+1");
            [EdgeColLabel::C(au, b), EdgeColLabel::C(av, b)]
        })
    }
}

/// Fixed-palette edge coloring (e.g. `(2Δ−1)`): the same line-graph sweep,
/// read into palette labels.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaletteEdgeColoringAlgo;

impl TrulyLocal<PaletteEdgeColoring> for PaletteEdgeColoringAlgo {
    fn name(&self) -> &'static str {
        "palette-edge/line-sweep"
    }

    fn f(&self, delta: f64) -> f64 {
        2.0 * ((2.0 * delta + 2.0) * (2.0 * delta + 4.0).log2()).powi(2)
    }

    fn solve(
        &self,
        sub: &SemiGraph<'_>,
        gctx: &GlobalCtx,
        problem: &PaletteEdgeColoring,
    ) -> Solved<PaletteLabel> {
        let l = line_graph(sub);
        on_edges(sub, gctx, &l, PaletteLabel::D, deg_chain, |red, _, ln| {
            let c = red.colors[ln].or_invariant("line node colored");
            let palette = problem.palette;
            assert!(c <= palette, "greedy color {c} exceeds palette {palette}: degree too high");
            [PaletteLabel::C(c); 2]
        })
    }
}

/// The sweep decision of a line node whose edge joins the `b`-matching.
const CHOSEN: u64 = 1;

/// Class `c` of a 0-based `m`-coloring of the line graph decides in round
/// `m - c`: its edge joins iff both endpoints have fewer than `b` chosen
/// decided neighbours through that endpoint. Same-class line nodes share
/// no endpoint, so the edges joining in one round never overfill a node.
struct BMatchSweep<'a> {
    colors: &'a [Option<u64>],
    m: u64,
    b: usize,
    g: &'a Graph,
    edge_of: &'a [EdgeId],
}

impl SweepRule for BMatchSweep<'_> {
    fn round(&self, v: NodeId) -> Option<u64> {
        let c = self.colors[v.index()].or_invariant("color for every line node");
        (c < self.m).then(|| self.m - c)
    }

    fn decide<T: Topology>(
        &self,
        topo: &T,
        v: NodeId,
        decided: impl ExactSizeIterator<Item = Option<u64>>,
    ) -> u64 {
        let [first, _] = self.g.endpoints(self.edge_of[v.index()]);
        let (mut chosen, mut at_first) = (0, 0);
        for (&w, d) in topo.neighbor_nodes(v).iter().zip(decided) {
            if d == Some(CHOSEN) {
                chosen += 1;
                at_first += usize::from(self.g.endpoints(self.edge_of[w.index()]).contains(&first));
            }
        }
        u64::from(at_first < self.b && chosen - at_first < self.b)
    }
}

/// Maximal `b`-matching in `O(Δ² log² Δ + log* n)` measured (simulated)
/// rounds: a class sweep over a Linial coloring of the line graph.
/// Capacities only shrink, so an edge left unchosen at its class round
/// has a saturated endpoint at termination — maximality.
#[derive(Clone, Copy, Debug, Default)]
pub struct BMatchingAlgo;

impl TrulyLocal<BMatching> for BMatchingAlgo {
    fn name(&self) -> &'static str {
        "b-matching/line-sweep"
    }

    fn f(&self, delta: f64) -> f64 {
        2.0 * ((2.0 * delta + 2.0) * (2.0 * delta + 4.0).log2()).powi(2)
    }

    fn solve(&self, sub: &SemiGraph<'_>, gctx: &GlobalCtx, p: &BMatching) -> Solved<BMatchLabel> {
        let l = line_graph(sub);
        let chain = |ctx: &Ctx<'_, Graph>| {
            let lin = run_linial(ctx);
            let (m, g) = (lin.final_bound, sub.parent());
            let rule = BMatchSweep { colors: &lin.colors, m, b: p.b, g, edge_of: &l.edge_of };
            let (chosen, rounds) = class_sweep(ctx, &rule, m + 2, |x| x == CHOSEN);
            let mut stages = RoundReport::new();
            stages.push("linial", lin.rounds).push("class-sweep", rounds);
            (chosen.iter().map(|c| *c == Some(true)).collect(), stages)
        };
        let labels =
            capacity_labels(sub, &l, p.b, [BMatchLabel::M, BMatchLabel::S, BMatchLabel::O]);
        on_edges(sub, gctx, &l, BMatchLabel::D, chain, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class_sweep::assert_sweep_engines_agree;
    use crate::line_graph::simulated_rounds;
    use treelocal_gen::{grid, random_arboricity_graph, random_tree, relabel, IdStrategy};
    use treelocal_problems::{classic, verify_semigraph};

    /// Runs `f` on the line graph `l` of `sub` with the `b`-matching rule
    /// over the Linial colouring `BMatchingAlgo` sweeps, and its bound `m`.
    fn with_rule<R>(
        sub: &SemiGraph<'_>,
        l: &LineGraph,
        b: usize,
        f: impl FnOnce(&Ctx<'_, Graph>, &BMatchSweep<'_>, u64) -> R,
    ) -> R {
        let ctx = Ctx::restricted(&l.graph, sub.parent().node_count(), l.id_space);
        let lin = run_linial(&ctx);
        let (m, g) = (lin.final_bound, sub.parent());
        f(&ctx, &BMatchSweep { colors: &lin.colors, m, b, g, edge_of: &l.edge_of }, m)
    }

    /// The central loop `BMatchingAlgo` ran before its sweep moved onto
    /// the engine: line nodes stably sorted by descending colour, each edge
    /// joining iff both endpoints are below `b`.
    fn b_matching_oracle(rule: &BMatchSweep<'_>) -> Vec<bool> {
        let mut chosen = vec![false; rule.edge_of.len()];
        let mut load = vec![0usize; rule.g.node_count()];
        let mut order: Vec<usize> = (0..rule.edge_of.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(rule.colors[i].unwrap()));
        for i in order {
            let [u, v] = rule.g.endpoints(rule.edge_of[i]);
            if load[u.index()] < rule.b && load[v.index()] < rule.b {
                chosen[i] = true;
                load[u.index()] += 1;
                load[v.index()] += 1;
            }
        }
        chosen
    }

    #[test]
    fn b_matching_sweep_engines_agree() {
        for g in treelocal_gen::cross_check_trees().filter(|g| g.edge_count() > 0) {
            let s = SemiGraph::whole(&g);
            let l = line_graph(&s);
            for b in 1..3 {
                with_rule(&s, &l, b, |ctx, rule, m| assert_sweep_engines_agree(ctx, rule, m + 2));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The engine sweep chooses exactly the old central loop's edges,
        /// and reports the rounds it ran, at most the `m` the loop charged.
        #[test]
        fn b_matching_sweep_chooses_the_oracle_set(
            n in 2usize..90,
            a in 1usize..3,
            b in 1usize..4,
            seed in 0u64..400,
            mask in proptest::prelude::any::<u64>(),
            by_nodes in proptest::prelude::any::<bool>(),
        ) {
            let g = random_arboricity_graph(n, a, seed);
            let keep = |i: usize| (mask >> (i % 64)) & 1 == 0;
            let s = if by_nodes {
                SemiGraph::induced_by_nodes(&g, |v| keep(v.index()))
            } else {
                SemiGraph::induced_by_edges(&g, |e| keep(e.index()))
            };
            let l = line_graph(&s);
            let (_, report) = BMatchingAlgo.solve(&s, &GlobalCtx::of(&g), &BMatching { b });
            with_rule(&s, &l, b, |ctx, rule, m| {
                let (chosen, rounds) = class_sweep(ctx, rule, m + 2, |x| x == CHOSEN);
                let chosen: Vec<bool> = chosen.into_iter().map(Option::unwrap).collect();
                assert_eq!(chosen, b_matching_oracle(rule));
                assert!(rounds <= m);
                assert_eq!(report.rounds_of("class-sweep(L)"), simulated_rounds(rounds));
            });
        }
    }

    #[test]
    fn matching_on_whole_trees() {
        for seed in 0..4 {
            let g = relabel(&random_tree(100, seed), IdStrategy::Permuted { seed });
            let s = SemiGraph::whole(&g);
            let (labeling, report) = MatchingAlgo.solve(&s, &GlobalCtx::of(&g), &MaximalMatching);
            verify_semigraph(&MaximalMatching, &s, &labeling).unwrap();
            let m = MaximalMatching.extract(&g, &labeling);
            assert!(classic::is_valid_maximal_matching(&g, &m), "seed {seed}");
            assert!(report.total() > 0);
        }
    }

    #[test]
    fn matching_on_edge_restrictions() {
        let g = random_tree(60, 8);
        // Keep a third of the edges: the induced semi-graph is all rank 2.
        let s = SemiGraph::induced_by_edges(&g, |e| e.index() % 3 == 0);
        let (labeling, _) = MatchingAlgo.solve(&s, &GlobalCtx::of(&g), &MaximalMatching);
        verify_semigraph(&MaximalMatching, &s, &labeling).unwrap();
    }

    #[test]
    fn matching_labels_rank1_edges_d() {
        let g = random_tree(40, 3);
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() % 2 == 0);
        let (labeling, _) = MatchingAlgo.solve(&s, &GlobalCtx::of(&g), &MaximalMatching);
        verify_semigraph(&MaximalMatching, &s, &labeling).unwrap();
        for &e in s.edges() {
            if s.rank(e) == 1 {
                let side = if s.half_present(e, Side::First) { Side::First } else { Side::Second };
                assert_eq!(labeling.get_at(e, side), Some(MatchLabel::D));
            }
        }
    }

    #[test]
    fn empty_sub_instance() {
        let g = random_tree(10, 1);
        let s = SemiGraph::induced_by_edges(&g, |_| false);
        let (labeling, report) = MatchingAlgo.solve(&s, &GlobalCtx::of(&g), &MaximalMatching);
        assert_eq!(labeling.assigned_count(), 0);
        // Only the fixed labeling round is charged.
        assert!(report.total() <= 1);
    }

    #[test]
    fn edge_coloring_on_trees_and_grids() {
        let t = random_tree(80, 1);
        let s = SemiGraph::whole(&t);
        let (labeling, _) = EdgeColoringAlgo.solve(&s, &GlobalCtx::of(&t), &EdgeDegreeColoring);
        verify_semigraph(&EdgeDegreeColoring, &s, &labeling).unwrap();
        let colors = EdgeDegreeColoring.extract(&t, &labeling);
        assert!(classic::is_valid_edge_degree_coloring(&t, &colors));

        let gr = grid(6, 6);
        let s = SemiGraph::whole(&gr);
        let (labeling, _) = EdgeColoringAlgo.solve(&s, &GlobalCtx::of(&gr), &EdgeDegreeColoring);
        verify_semigraph(&EdgeDegreeColoring, &s, &labeling).unwrap();
    }

    #[test]
    fn palette_coloring_respects_two_delta_minus_one() {
        let g = random_tree(70, 5);
        let p = PaletteEdgeColoring::two_delta_minus_one(g.max_degree());
        let s = SemiGraph::whole(&g);
        let (labeling, _) = PaletteEdgeColoringAlgo.solve(&s, &GlobalCtx::of(&g), &p);
        verify_semigraph(&p, &s, &labeling).unwrap();
    }

    #[test]
    fn b_matching_on_whole_graphs_and_restrictions() {
        for b in 1..4usize {
            let p = BMatching { b };
            let g = random_tree(90, b as u64);
            let s = SemiGraph::whole(&g);
            let (labeling, _) = BMatchingAlgo.solve(&s, &GlobalCtx::of(&g), &p);
            verify_semigraph(&p, &s, &labeling).unwrap();
            let chosen = p.extract(&g, &labeling);
            assert!(
                classic::is_valid_maximal_b_matching(&g, &chosen, u32::try_from(p.b).unwrap()),
                "b {b}"
            );

            let gr = grid(7, 7);
            let s = SemiGraph::whole(&gr);
            let (labeling, _) = BMatchingAlgo.solve(&s, &GlobalCtx::of(&gr), &p);
            verify_semigraph(&p, &s, &labeling).unwrap();
        }
    }

    #[test]
    fn b1_matching_matches_matching_semantics() {
        let g = random_tree(70, 9);
        let p = BMatching { b: 1 };
        let s = SemiGraph::whole(&g);
        let (labeling, _) = BMatchingAlgo.solve(&s, &GlobalCtx::of(&g), &p);
        let chosen = p.extract(&g, &labeling);
        assert!(classic::is_valid_maximal_matching(&g, &chosen));
    }
}
