//! Property tests for the truly local solvers on *restricted* semi-graph
//! instances — the exact setting in which the transformation invokes them
//! (Theorem 12 restricts by nodes; Theorem 15 restricts by edges).

use proptest::prelude::*;
use treelocal_algos::{
    BMatchingAlgo, DegColoringAlgo, DeltaColoringAlgo, EdgeColoringAlgo, GlobalCtx,
    ListColoringAlgo, MatchingAlgo, MisAlgo, PaletteEdgeColoringAlgo, TrulyLocal,
};
use treelocal_gen::{random_arboricity_graph, random_tree};
use treelocal_graph::{Graph, NodeId, SemiGraph, Side};
use treelocal_problems::{
    verify_semigraph, BMatching, DegPlusOneColoring, DeltaPlusOneColoring, EdgeDegreeColoring,
    ListColoring, MatchLabel, MaximalMatching, Mis, PaletteEdgeColoring, Problem,
};

/// Lists of `deg(v) + 1` colours per node, spaced `stride` apart from a
/// per-node offset, so neighbouring lists overlap only in part.
fn spaced_lists(g: &Graph, stride: u32) -> ListColoring {
    let list =
        |v: NodeId| (0..=g.degree(v) as u32).map(move |i| (v.index() % 5) as u32 + stride * i + 1);
    ListColoring::new(g, g.node_ids().map(|v| list(v).collect()).collect()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mis_on_random_node_restrictions(
        n in 2usize..120,
        seed in 0u64..400,
        mask in any::<u64>(),
    ) {
        let g = random_tree(n, seed);
        let in_set = |v: NodeId| (mask >> (v.index() % 64)) & 1 == 0;
        let s = SemiGraph::induced_by_nodes(&g, in_set);
        let (labeling, _) = MisAlgo.solve(&s, &GlobalCtx::of(&g), &Mis);
        prop_assert!(verify_semigraph(&Mis, &s, &labeling).is_ok());
    }

    #[test]
    fn coloring_on_random_node_restrictions(
        n in 2usize..120,
        seed in 0u64..400,
        mask in any::<u64>(),
    ) {
        let g = random_tree(n, seed);
        let in_set = |v: NodeId| (mask >> (v.index() % 64)) & 1 == 1;
        let s = SemiGraph::induced_by_nodes(&g, in_set);
        let (labeling, _) = DegColoringAlgo.solve(&s, &GlobalCtx::of(&g), &DegPlusOneColoring);
        prop_assert!(verify_semigraph(&DegPlusOneColoring, &s, &labeling).is_ok());
    }

    #[test]
    fn matching_on_random_edge_restrictions(
        n in 2usize..120,
        a in 1usize..3,
        seed in 0u64..400,
        mask in any::<u64>(),
    ) {
        let g = random_arboricity_graph(n, a, seed);
        let s = SemiGraph::induced_by_edges(&g, |e| (mask >> (e.index() % 64)) & 1 == 0);
        let (labeling, _) = MatchingAlgo.solve(&s, &GlobalCtx::of(&g), &MaximalMatching);
        prop_assert!(verify_semigraph(&MaximalMatching, &s, &labeling).is_ok());
    }

    #[test]
    fn edge_coloring_on_random_edge_restrictions(
        n in 2usize..100,
        seed in 0u64..400,
        mask in any::<u64>(),
    ) {
        let g = random_tree(n, seed);
        let s = SemiGraph::induced_by_edges(&g, |e| (mask >> (e.index() % 64)) & 1 == 1);
        let (labeling, _) = EdgeColoringAlgo.solve(&s, &GlobalCtx::of(&g), &EdgeDegreeColoring);
        prop_assert!(verify_semigraph(&EdgeDegreeColoring, &s, &labeling).is_ok());
    }

    #[test]
    fn b_matching_on_random_restrictions(
        n in 2usize..100,
        b in 1usize..4,
        seed in 0u64..400,
        mask in any::<u64>(),
    ) {
        let g = random_tree(n, seed);
        let p = BMatching { b };
        let s = SemiGraph::induced_by_edges(&g, |e| (mask >> (e.index() % 64)) & 1 == 0);
        let (labeling, _) = BMatchingAlgo.solve(&s, &GlobalCtx::of(&g), &p);
        prop_assert!(verify_semigraph(&p, &s, &labeling).is_ok());
    }

    #[test]
    fn delta_coloring_on_random_node_restrictions(
        n in 2usize..120,
        seed in 0u64..400,
        mask in any::<u64>(),
    ) {
        let g = random_tree(n, seed);
        let p = DeltaPlusOneColoring { delta: g.max_degree() };
        let s = SemiGraph::induced_by_nodes(&g, |v| (mask >> (v.index() % 64)) & 1 == 0);
        let (labeling, _) = DeltaColoringAlgo.solve(&s, &GlobalCtx::of(&g), &p);
        prop_assert!(verify_semigraph(&p, &s, &labeling).is_ok());
    }

    #[test]
    fn list_coloring_on_random_node_restrictions(
        n in 2usize..120,
        stride in 1u32..4,
        seed in 0u64..400,
        mask in any::<u64>(),
    ) {
        let g = random_tree(n, seed);
        let p = spaced_lists(&g, stride);
        let s = SemiGraph::induced_by_nodes(&g, |v| (mask >> (v.index() % 64)) & 1 == 1);
        let (labeling, _) = ListColoringAlgo.solve(&s, &GlobalCtx::of(&g), &p);
        prop_assert!(verify_semigraph(&p, &s, &labeling).is_ok());
    }

    #[test]
    fn palette_edge_coloring_on_random_edge_restrictions(
        n in 2usize..100,
        a in 1usize..3,
        seed in 0u64..400,
        mask in any::<u64>(),
    ) {
        let g = random_arboricity_graph(n, a, seed);
        let p = PaletteEdgeColoring::two_delta_minus_one(g.max_degree());
        let s = SemiGraph::induced_by_edges(&g, |e| (mask >> (e.index() % 64)) & 1 == 0);
        let (labeling, _) = PaletteEdgeColoringAlgo.solve(&s, &GlobalCtx::of(&g), &p);
        prop_assert!(verify_semigraph(&p, &s, &labeling).is_ok());
    }
}

/// Runs `algo` on `s` and checks what every solver's report and labeling
/// share: the phases are `stages` then one `labeling` round (nothing at all
/// for a node solver on an empty restriction), and every half-edge of `s`
/// is labeled.
fn assert_shape<P: Problem>(
    algo: &impl TrulyLocal<P>,
    problem: &P,
    s: &SemiGraph<'_>,
    stages: &[&str],
    node_solver: bool,
) {
    let g = s.parent();
    let (labeling, report) = algo.solve(s, &GlobalCtx::of(g), problem);
    let mut want = stages.to_vec();
    if node_solver && s.nodes().is_empty() {
        assert!(report.phases().is_empty(), "{}: {report}", algo.name());
    } else {
        want.push("labeling");
        let names: Vec<&str> = report.phases().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, want, "{}", algo.name());
        assert_eq!(report.rounds_of("labeling"), 1, "{}", algo.name());
    }
    assert_eq!(labeling.assigned_count(), s.half_edges().count(), "{}", algo.name());
    assert!(verify_semigraph(problem, s, &labeling).is_ok(), "{}", algo.name());
}

/// Every solver's phase names and order on an empty restriction, on a
/// node restriction with rank-1 edges, and on a whole tree. A node solver
/// on an empty restriction reports nothing; an edge solver always spends
/// its `labeling` round, and its line-graph stages appear only when the
/// restriction has a rank-2 edge.
#[test]
fn every_solver_reports_its_stage_chain() {
    let g = random_tree(60, 4);
    let empty = SemiGraph::induced_by_nodes(&g, |_| false);
    let partial = SemiGraph::induced_by_nodes(&g, |v| v.index() % 3 != 0);
    let whole = SemiGraph::whole(&g);
    assert!(partial.edges().iter().any(|&e| partial.rank(e) == 1));
    assert!(partial.edges().iter().any(|&e| partial.rank(e) == 2));
    // A restriction whose every edge has rank 1: an edge solver runs no
    // stage on its empty line graph but still labels each present half.
    let only_rank1 = SemiGraph::induced_by_nodes(&g, |v| v.index() == 0);
    assert!(!only_rank1.edges().is_empty());

    const MATCHING: &[&str] = &["linial(L)", "kw-reduce(L)", "mis-sweep(L)"];
    const EDGE_COL: &[&str] = &["linial(L)", "sweep-reduce(L)"];
    const B_MATCH: &[&str] = &["linial(L)", "class-sweep(L)"];
    let delta = DeltaPlusOneColoring { delta: g.max_degree() };
    let lists = spaced_lists(&g, 2);
    let palette = PaletteEdgeColoring::two_delta_minus_one(g.max_degree());
    for s in [&empty, &partial, &whole] {
        assert_shape(&MisAlgo, &Mis, s, &["linial", "kw-reduce", "mis-sweep"], true);
        assert_shape(&DeltaColoringAlgo, &delta, s, &["linial", "kw-reduce"], true);
        assert_shape(&DegColoringAlgo, &DegPlusOneColoring, s, &["linial", "sweep-reduce"], true);
        assert_shape(&ListColoringAlgo, &lists, s, &["linial", "list-sweep"], true);
    }
    for s in [&empty, &only_rank1, &partial, &whole] {
        let has_rank2 = s.edges().iter().any(|&e| s.rank(e) == 2);
        let on_l = |stages: &'static [&'static str]| if has_rank2 { stages } else { &[] };
        assert_shape(&MatchingAlgo, &MaximalMatching, s, on_l(MATCHING), false);
        assert_shape(&EdgeColoringAlgo, &EdgeDegreeColoring, s, on_l(EDGE_COL), false);
        assert_shape(&PaletteEdgeColoringAlgo, &palette, s, on_l(EDGE_COL), false);
        assert_shape(&BMatchingAlgo, &BMatching { b: 2 }, s, on_l(B_MATCH), false);
    }
    // The rank-1 halves carry `D`, also where no stage ran.
    for s in [&only_rank1, &partial] {
        let (labeling, _) = MatchingAlgo.solve(s, &GlobalCtx::of(&g), &MaximalMatching);
        for &e in s.edges().iter().filter(|&&e| s.rank(e) == 1) {
            let side = if s.half_present(e, Side::First) { Side::First } else { Side::Second };
            assert_eq!(labeling.get_at(e, side), Some(MatchLabel::D));
        }
    }
}
