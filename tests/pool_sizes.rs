//! The four public tree pipelines give identical results at pool sizes 1
//! and 2: the same labelings, the same extracted outputs and the same
//! `executed` and `charged` round reports.
//!
//! The engine steps a round on the pool only when its awake list holds at
//! least `PAR_FRONTIER_MIN` (1,024) nodes, so the small trees of the other
//! suites never reach it. Both instances here have 3,000 nodes, and the
//! first frontiers of their engine stages are above that threshold, so
//! pooled rounds really run at pool size 2.

use treelocal::core::{
    coloring_on_tree, edge_coloring_on_tree, matching_on_tree, mis_on_tree, TransformOutcome,
};
use treelocal::gen::{caterpillar, random_tree, relabel, IdStrategy};
use treelocal::graph::Graph;
use treelocal::sim::par;

/// Runs `pipeline` on `g` at pool sizes 1 and 2 and asserts equal
/// labelings, reports and extracted outputs.
fn assert_pool_invariant<L, X>(
    name: &str,
    g: &Graph,
    pipeline: impl Fn(&Graph) -> (TransformOutcome<L>, X),
) where
    L: PartialEq,
    X: PartialEq,
{
    let at = |threads| {
        par::with_threads(threads, || {
            let (out, extracted) = pipeline(g);
            assert!(out.valid, "{name}: invalid at pool size {threads}");
            (out.labeling, out.executed, out.charged, extracted)
        })
    };
    let (one, two) = (at(1), at(2));
    assert_eq!(one.1, two.1, "{name}: executed rounds");
    assert_eq!(one.2, two.2, "{name}: charged rounds");
    assert!(one.0 == two.0, "{name}: labelings differ");
    assert!(one.3 == two.3, "{name}: extracted outputs differ");
}

fn instances() -> [(&'static str, Graph); 2] {
    [
        ("prufer-3000-sparse", relabel(&random_tree(3000, 5), IdStrategy::Sparse { seed: 5 })),
        ("caterpillar-3000", caterpillar(1000, 2)),
    ]
}

#[test]
fn node_pipelines_are_identical_at_pool_sizes_1_and_2() {
    for (name, g) in instances() {
        assert_eq!(g.node_count(), 3000);
        assert_pool_invariant(&format!("mis_on_tree on {name}"), &g, mis_on_tree);
        assert_pool_invariant(&format!("coloring_on_tree on {name}"), &g, coloring_on_tree);
    }
}

#[test]
fn edge_pipelines_are_identical_at_pool_sizes_1_and_2() {
    for (name, g) in instances() {
        assert_pool_invariant(&format!("matching_on_tree on {name}"), &g, matching_on_tree);
        assert_pool_invariant(
            &format!("edge_coloring_on_tree on {name}"),
            &g,
            edge_coloring_on_tree,
        );
    }
}
