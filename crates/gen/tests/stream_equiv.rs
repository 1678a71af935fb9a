//! Streaming-vs-materialized build equivalence: every generator's
//! `EdgeSource` must produce, slot for slot, the graph its materialized
//! edge list produces.
//!
//! The streaming construction refactor removed the `Vec<(usize, usize)>`
//! transient between generators and the CSR builder. Edge ids are assigned
//! in emission order and every downstream consumer pins byte-identical
//! outputs, so the refactor is only sound if streaming a source and
//! building from its materialized list are indistinguishable — same
//! endpoints per edge id, same CSR neighbor and edge slots, same local
//! ids, same degree profile. This suite pins exactly that, on the real
//! generator sources (streaming Prüfer decoder, coin-flip forests,
//! arithmetic shapes) and on sparse edge sets cut out of semi-graph
//! restrictions, plus the `TooLarge` guard firing through the streaming
//! path before any edge is pulled.

use proptest::prelude::*;
use treelocal_gen::{caterpillar, path, random_forest, random_tree, spider, star, PruferEdges};
use treelocal_graph::{
    widen_u32, EdgeSource, FnEdgeSource, Graph, GraphError, SemiGraph, SliceEdges,
};

/// Slot-for-slot equality of two graphs: identifiers, endpoints per edge
/// id, and the exact CSR slot order every engine iterates in.
fn assert_same(a: &Graph, b: &Graph) {
    assert_eq!(a.node_count(), b.node_count(), "node count");
    assert_eq!(a.edge_count(), b.edge_count(), "edge count");
    assert_eq!(a.id_space(), b.id_space(), "id space");
    assert_eq!(a.max_degree(), b.max_degree(), "max degree");
    assert_eq!(a.degree_sum(), b.degree_sum(), "degree sum");
    for e in a.edge_ids() {
        assert_eq!(a.endpoints(e), b.endpoints(e), "endpoints of {e:?}");
    }
    for v in a.node_ids() {
        assert_eq!(a.local_id(v), b.local_id(v), "local id of {v:?}");
        assert_eq!(a.neighbor_nodes(v), b.neighbor_nodes(v), "neighbor slots of {v:?}");
        assert_eq!(a.neighbor_edges(v), b.neighbor_edges(v), "edge slots of {v:?}");
    }
}

/// Rebuilds `g` the pre-refactor way — materialize the edge list, build
/// from the slice — and demands slot-for-slot equality with the streamed
/// original.
fn assert_stream_equals_materialized(g: &Graph) {
    let edges = g.edge_source().materialize();
    let m = Graph::from_edges(g.node_count(), &edges)
        .expect("materialized rebuild of a valid graph succeeds");
    assert_same(g, &m);
}

#[test]
fn structured_shapes_stream_equals_materialized() {
    for n in [1usize, 2, 3, 7, 64, 257] {
        assert_stream_equals_materialized(&path(n));
        assert_stream_equals_materialized(&star(n));
    }
    assert_stream_equals_materialized(&caterpillar(40, 3));
    assert_stream_equals_materialized(&spider(12, 9));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming Prüfer decoder against its own materialized stream:
    /// both builds see the decoder's emission order, so edge ids and CSR
    /// slots must coincide exactly.
    #[test]
    fn prufer_source_stream_equals_materialize(n in 2usize..400, seed in any::<u64>()) {
        let src = PruferEdges::uniform(n, seed);
        let streamed = Graph::from_edge_source(&src).expect("a decoded tree is a valid graph");
        let listed = Graph::from_edge_source(&SliceEdges::new(n, &src.materialize()))
            .expect("the same edges as a slice");
        assert_same(&streamed, &listed);
    }

    #[test]
    fn prufer_trees_stream_equals_materialized(n in 2usize..400, seed in any::<u64>()) {
        assert_stream_equals_materialized(&random_tree(n, seed));
    }

    /// Forests exercise the rewindable rng-filtering source: every
    /// replayed pass must flip the same coins.
    #[test]
    fn random_forests_stream_equals_materialized(
        n in 1usize..200,
        frac_pct in 0u32..101,
        seed in any::<u64>(),
    ) {
        assert_stream_equals_materialized(&random_forest(n, f64::from(frac_pct) / 100.0, seed));
    }

    /// Sparse edge sets: the full-rank edges of a node-induced semi-graph
    /// restriction, streamed arithmetically vs built from a list. Nodes
    /// outside the restriction keep empty slots in both builds.
    #[test]
    fn restriction_edge_sets_stream_equals_materialized(
        n in 2usize..120,
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let g = random_tree(n, seed);
        let s = SemiGraph::induced_by_nodes(&g, |v| (mask >> (v.index() % 64)) & 1 == 0);
        let kept: Vec<(usize, usize)> = g
            .edge_ids()
            .filter(|&e| s.contains_edge(e))
            .map(|e| {
                let [u, v] = g.endpoints(e);
                (u.index(), v.index())
            })
            .collect();
        let src = FnEdgeSource::new(g.node_count(), kept.len(), |emit| {
            for &(u, v) in &kept {
                emit(u, v);
            }
        });
        let streamed = Graph::from_edge_source(&src).expect("restricted edges stay valid");
        let listed = Graph::from_edges(g.node_count(), &kept).expect("same edges as a list");
        assert_same(&streamed, &listed);
    }
}

/// The `TooLarge` guard consumes only the counts: a source whose counts
/// overflow the u32 index space is rejected before a single edge is
/// pulled, which is what makes declaring absurd sizes safe.
#[test]
fn oversized_node_count_is_rejected_before_streaming() {
    let n = widen_u32(u32::MAX) + 1;
    let lying = FnEdgeSource::new(n, 0, |_emit| unreachable!("must not stream"));
    match Graph::from_edge_source(&lying) {
        Err(GraphError::TooLarge { nodes, edges }) => {
            assert_eq!(nodes, n);
            assert_eq!(edges, 0);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

#[test]
fn oversized_edge_count_is_rejected_before_streaming() {
    // 2m must fit in u32: one edge past the half-edge budget overflows.
    let m = widen_u32(u32::MAX / 2) + 1;
    let lying = FnEdgeSource::new(3, m, |_emit| unreachable!("must not stream"));
    match Graph::from_edge_source(&lying) {
        Err(GraphError::TooLarge { nodes, edges }) => {
            assert_eq!(nodes, 3);
            assert_eq!(edges, m);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

/// The largest size the guard admits: counts at the u32 boundary pass the
/// check (and the lying source is then caught by the typed edge-count
/// check, which proves streaming actually began).
#[test]
fn boundary_sized_counts_pass_the_guard_and_reach_streaming() {
    let n = widen_u32(u32::MAX);
    let lying = FnEdgeSource::new(n, 1, |_emit| {});
    assert_eq!(
        Graph::from_edge_source(&lying).unwrap_err(),
        GraphError::EdgeCountMismatch { declared: 1, emitted: 0 }
    );
}
