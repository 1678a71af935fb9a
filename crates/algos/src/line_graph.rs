//! Explicit line graphs for simulating edge-problem algorithms.
//!
//! Maximal matching is MIS on the line graph, and `(edge-degree+1)`-edge
//! coloring is `(deg+1)`-vertex coloring of the line graph. A LOCAL
//! algorithm on the line graph `L(S)` is simulated on `S` with constant
//! overhead: each edge's simulated state is maintained by both endpoints,
//! adjacent edges share an endpoint that relays for free, and keeping the
//! two copies consistent costs one real round per simulated round — so we
//! charge `2·r + 1` real rounds for `r` simulated rounds
//! ([`simulated_rounds`]).
//!
//! Line-graph identifiers are derived locally from the endpoint
//! identifiers via the pairing `min_id · id_space + max_id`, exactly as a
//! real simulation would.

use treelocal_graph::OrInvariant;
use treelocal_graph::{narrow_u32, widen_u32, EdgeId, FnEdgeSource, Graph, SemiGraph};
use treelocal_sim::RoundReport;

/// The line graph of a semi-graph's rank-2 edges, with index maps.
#[derive(Clone, Debug)]
pub struct LineGraph {
    /// The line graph itself: one node per rank-2 edge of the source.
    pub graph: Graph,
    /// Line-node index → source edge.
    pub edge_of: Vec<EdgeId>,
    /// Source edge index → line-node index (if the edge has rank 2).
    pub lnode_of: Vec<Option<u32>>,
    /// Identifier space of the line graph.
    pub id_space: u64,
}

/// Real rounds charged for `r` simulated line-graph rounds.
pub fn simulated_rounds(r: u64) -> u64 {
    if r == 0 {
        0
    } else {
        2 * r + 1
    }
}

/// A chain's stage report on-line: phase `name` becomes `name(L)`, and its
/// `r` rounds on `L` the [`simulated_rounds`]`(r)` real rounds that
/// simulate them.
pub(crate) fn on_line(stages: &RoundReport) -> RoundReport {
    let mut report = RoundReport::new();
    for p in stages.phases() {
        report.push(format!("{}(L)", p.name), simulated_rounds(p.rounds));
    }
    report
}

/// Builds the line graph over the rank-2 edges of `s`.
///
/// # Panics
///
/// Panics if the parent identifier space exceeds `2^31` (the pairing
/// function must fit in 64 bits).
pub fn line_graph(s: &SemiGraph<'_>) -> LineGraph {
    let parent = s.parent();
    let id_space = parent.id_space();
    assert!(id_space <= 1 << 31, "line-graph id pairing needs id_space <= 2^31, got {id_space}");
    let mut edge_of = Vec::new();
    let mut lnode_of = vec![None; parent.edge_count()];
    for &e in s.edges() {
        if s.rank(e) == 2 {
            lnode_of[e.index()] = Some(narrow_u32(edge_of.len()));
            edge_of.push(e);
        }
    }
    // Adjacent rank-2 edges share exactly one endpoint in a simple graph,
    // so enumerating per-node pairs yields each line edge once. Stream
    // those pairs straight into the builder — the line graph of a dense
    // neighborhood has Θ(Σ deg²) edges, and materializing them first was
    // the largest transient of this construction.
    let line_edges: usize = s
        .nodes()
        .iter()
        .map(|&v| s.underlying_neighbor_edges(v).len())
        .map(|d| d * d.saturating_sub(1) / 2)
        .sum();
    let src = FnEdgeSource::new(edge_of.len(), line_edges, |emit| {
        for &v in s.nodes() {
            let inc = s.underlying_neighbor_edges(v);
            for i in 0..inc.len() {
                for j in (i + 1)..inc.len() {
                    let a = lnode_of[inc[i].index()].or_invariant("rank-2 edge is a line node");
                    let c = lnode_of[inc[j].index()].or_invariant("rank-2 edge is a line node");
                    emit(widen_u32(a), widen_u32(c));
                }
            }
        }
    });
    let ids: Vec<u64> = edge_of
        .iter()
        .map(|&e| {
            let [u, v] = parent.endpoints(e);
            let (a, c) = {
                let iu = parent.local_id(u);
                let iv = parent.local_id(v);
                (iu.min(iv), iu.max(iv))
            };
            a * id_space + c
        })
        .collect();
    let graph = Graph::from_edge_source_with_ids(&src, ids)
        .or_invariant("line graph of a simple graph is simple");
    LineGraph { graph, edge_of, lnode_of, id_space: id_space * id_space }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::{NodeId, Topology};

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn line_graph_of_path_is_path() {
        let g = path(5);
        let s = SemiGraph::whole(&g);
        let l = line_graph(&s);
        assert_eq!(l.graph.node_count(), 4);
        assert_eq!(l.graph.edge_count(), 3);
        assert_eq!(l.graph.max_degree(), 2);
    }

    #[test]
    fn line_graph_of_star_is_clique() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let s = SemiGraph::whole(&g);
        let l = line_graph(&s);
        assert_eq!(l.graph.node_count(), 4);
        assert_eq!(l.graph.edge_count(), 6); // K4
    }

    #[test]
    fn rank1_edges_are_excluded() {
        let g = path(4);
        // Restrict to nodes {1, 2}: edge 1-2 has rank 2, edges 0-1 and 2-3
        // have rank 1.
        let s = SemiGraph::induced_by_nodes(&g, |v| (1..=2).contains(&v.index()));
        let l = line_graph(&s);
        assert_eq!(l.graph.node_count(), 1);
        assert_eq!(l.graph.edge_count(), 0);
        let e12 = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        assert_eq!(l.edge_of[0], e12);
        assert_eq!(l.lnode_of[e12.index()], Some(0));
    }

    #[test]
    fn line_ids_are_distinct_and_local() {
        let g = treelocal_gen::random_tree(50, 3);
        let s = SemiGraph::whole(&g);
        let l = line_graph(&s);
        let mut ids: Vec<u64> = l.graph.node_ids().map(|v| l.graph.local_id(v)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), l.graph.node_count());
        assert!(l.id_space >= l.graph.id_space());
    }

    #[test]
    fn adjacency_matches_shared_endpoints() {
        let g = treelocal_gen::random_tree(40, 9);
        let s = SemiGraph::whole(&g);
        let l = line_graph(&s);
        for v in l.graph.node_ids() {
            let e = l.edge_of[v.index()];
            for &w in l.graph.neighbor_nodes(v) {
                let f = l.edge_of[w.index()];
                let [a, b] = g.endpoints(e);
                let [c, d] = g.endpoints(f);
                assert!(a == c || a == d || b == c || b == d, "{e:?} vs {f:?}");
            }
            // Degree in L equals edge-degree in g.
            assert_eq!(Topology::degree(&l.graph, v), g.edge_degree(e));
        }
    }

    #[test]
    fn simulation_cost_model() {
        assert_eq!(simulated_rounds(0), 0);
        assert_eq!(simulated_rounds(1), 3);
        assert_eq!(simulated_rounds(10), 21);
    }
}
