//! Equivalence properties pinning the `GatherPlan` eccentricity cache
//! byte-identical to the uncached per-center BFS.
//!
//! The cache replaces one sparse BFS per gather center with one rerooting
//! pass per component, so every number it feeds into round accounting must
//! match the BFS **exactly**, for every node. These properties exercise
//! random Prüfer forests, caterpillars, stars and paths (with permuted
//! identifier assignments so "highest id" is not node order), semi-graph
//! restrictions, and cyclic topologies (the non-tree fallback path).

use proptest::prelude::*;
use treelocal_gen::{caterpillar, path, random_forest, relabel, star, IdStrategy};
use treelocal_graph::{Graph, SemiGraph, Topology};
use treelocal_sim::{gather_rounds_at, GatherPlan};

/// Asserts the full equivalence contract on one topology (the vendored
/// proptest's `prop_assert!` panics on failure, so this returns unit).
fn assert_gather_equivalence<T: Topology>(topo: &T) {
    // Per-center: the cached cost equals the direct BFS for every
    // participating node.
    let plan = GatherPlan::new(topo);
    for v in topo.nodes() {
        prop_assert_eq!(plan.rounds_at(v), gather_rounds_at(topo, v), "center {:?}", v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prufer_forests_cost_identically(
        n in 2usize..180,
        frac_pct in 0u32..101,
        seed in any::<u64>(),
    ) {
        let frac = f64::from(frac_pct) / 100.0;
        let g = relabel(&random_forest(n, frac, seed), IdStrategy::Permuted { seed });
        assert_gather_equivalence(&g);
    }

    #[test]
    fn caterpillars_cost_identically(
        spine in 1usize..40,
        legs in 0usize..6,
        seed in any::<u64>(),
    ) {
        let g = relabel(&caterpillar(spine, legs), IdStrategy::Permuted { seed });
        assert_gather_equivalence(&g);
    }

    #[test]
    fn stars_and_paths_cost_identically(n in 1usize..120, seed in any::<u64>()) {
        assert_gather_equivalence(&relabel(&star(n), IdStrategy::Permuted { seed }));
        assert_gather_equivalence(&relabel(&path(n), IdStrategy::Permuted { seed }));
    }

    #[test]
    fn semigraph_restrictions_cost_identically(
        n in 2usize..150,
        seed in any::<u64>(),
        modulus in 2usize..5,
    ) {
        // Restricting a forest by a node predicate yields semi-graph
        // components with rank-1 boundary edges — the exact shape of the
        // Theorem 12 residual layers.
        let g = relabel(&random_forest(n, 0.9, seed), IdStrategy::Permuted { seed });
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() % modulus != 0);
        assert_gather_equivalence(&s);
    }

    #[test]
    fn cyclic_topologies_fall_back_identically(n in 3usize..60, extra in 1usize..4) {
        // A cycle plus chords plus a pendant path: forces the per-node BFS
        // fallback (the rerooting DP only applies to tree components).
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        for e in 0..extra {
            let chord = (e, (e + n / 2) % n);
            if chord.0 != chord.1 {
                edges.push((chord.0.min(chord.1), chord.0.max(chord.1)));
            }
        }
        edges.push((n - 1, n)); // pendant node outside the cycle
        edges.sort_unstable();
        edges.dedup();
        if let Ok(g) = Graph::from_edges(n + 1, &edges) {
            assert_gather_equivalence(&g);
        }
    }
}
