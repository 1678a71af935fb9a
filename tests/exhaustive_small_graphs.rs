//! Theorem 15 on *every* labelled graph with 2 to 5 nodes: one graph per
//! edge mask over the node pairs, 2 + 8 + 64 + 1,024 = 1,098 graphs,
//! connected or not. Each graph's exact arboricity `a` comes from
//! Nash-Williams over its node subsets; the `(edge-degree+1)`-edge
//! colouring pipeline (`edge_coloring_bounded_arboricity`) and the
//! `ArbTransform` maximal matching then run at `a` and at `a + 1`, and the
//! engine-blind checker's rule table judges every solution, not the
//! pipeline's own `verify_graph`. An edgeless graph runs at 1 and 2, the
//! smallest bound the pipelines take.
//!
//! The release tier adds the 32,768 graphs with 6 nodes; it is
//! `#[ignore]`d in the debug run:
//!
//! ```text
//! cargo test -q --release --test exhaustive_small_graphs -- --ignored
//! ```

use treelocal::algos::MatchingAlgo;
use treelocal::check::{check_solution, EdgePalette, Rule, Solution};
use treelocal::core::{edge_coloring_bounded_arboricity, ArbTransform};
use treelocal::graph::Graph;
use treelocal::problems::MaximalMatching;

/// The graph on `n` nodes whose edges are the node pairs `(i, j)`, `i < j`
/// in lexicographic order, selected by the bits of `mask`.
fn graph_of_mask(n: usize, mask: u64) -> Graph {
    let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
    let edges: Vec<(usize, usize)> =
        pairs.enumerate().filter(|&(bit, _)| mask >> bit & 1 == 1).map(|(_, e)| e).collect();
    Graph::from_edges(n, &edges).unwrap()
}

/// The exact arboricity by Nash-Williams: the maximum over node subsets
/// `S` with `|S| ≥ 2` of `⌈|E(S)| / (|S| - 1)⌉`.
fn arboricity(g: &Graph) -> usize {
    let n = g.node_count();
    let ends: Vec<(usize, usize)> = g
        .edge_ids()
        .map(|e| {
            let [u, v] = g.endpoints(e);
            (u.index(), v.index())
        })
        .collect();
    (0..1usize << n)
        .filter(|s| s.count_ones() >= 2)
        .map(|s| {
            let inside = ends.iter().filter(|&&(u, v)| s >> u & 1 == 1 && s >> v & 1 == 1).count();
            inside.div_ceil(s.count_ones() as usize - 1)
        })
        .max()
        .unwrap_or(0)
}

/// Runs both pipelines on the graph of `mask` at its arboricity and one
/// above, judging every solution with the checker's rule table.
fn judge(n: usize, mask: u64) {
    let g = graph_of_mask(n, mask);
    let exact = arboricity(&g).max(1);
    for a in [exact, exact + 1] {
        let at = format!("n = {n}, edge mask {mask:#x}, a = {a}");
        let (out, colors) = edge_coloring_bounded_arboricity(&g, a);
        assert!(out.valid, "{at}: edge colouring invalid");
        let colors = Solution::EdgeColors(colors.iter().map(|&c| u64::from(c)).collect());
        let rule = Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne };
        if let Err(e) = check_solution(&g, &rule, &colors, None) {
            panic!("{at}: edge colouring rejected: {e}");
        }
        let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&g, a);
        assert!(out.valid, "{at}: matching invalid");
        let matching = Solution::EdgeSet(MaximalMatching.extract(&g, &out.labeling));
        if let Err(e) = check_solution(&g, &Rule::Matching { b: 1 }, &matching, None) {
            panic!("{at}: matching rejected: {e}");
        }
    }
}

/// Judges every graph on `n` nodes and returns how many there were.
fn judge_every_graph(n: usize) -> usize {
    let masks = 1u64 << (n * (n - 1) / 2);
    (0..masks).for_each(|mask| judge(n, mask));
    usize::try_from(masks).unwrap()
}

#[test]
fn arboricity_matches_known_graphs() {
    // Empty, a tree, a triangle, K4 (6 edges over 3 = 2) and K5 (10 over
    // 4, rounded up to 3).
    assert_eq!(arboricity(&graph_of_mask(4, 0)), 0);
    assert_eq!(arboricity(&graph_of_mask(4, 0b10_0101)), 1);
    assert_eq!(arboricity(&graph_of_mask(3, 0b111)), 2);
    assert_eq!(arboricity(&graph_of_mask(4, 0b11_1111)), 2);
    assert_eq!(arboricity(&graph_of_mask(5, (1 << 10) - 1)), 3);
}

#[test]
fn theorem15_on_every_graph_with_2_to_5_nodes() {
    let total: usize = (2..=5).map(judge_every_graph).sum();
    assert_eq!(total, 1_098);
}

#[test]
#[ignore = "release tier: 32,768 graphs, run with --release -- --ignored"]
fn theorem15_on_every_graph_with_6_nodes() {
    assert_eq!(judge_every_graph(6), 32_768);
}
