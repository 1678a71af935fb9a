//! Semi-graphs: graphs whose edges may have 0, 1 or 2 endpoints.
//!
//! Definition 4 of the paper introduces semi-graphs to describe the residual
//! structures that appear when a problem instance is split into parts: an
//! edge of the original tree whose other endpoint lies outside the part at
//! hand becomes an edge of *rank 1* (one endpoint), and problems constrain
//! the labels of the *half-edges* that are present.
//!
//! A [`SemiGraph`] here is always a view into a parent [`Graph`]: it keeps
//! the parent's node and edge index spaces so that half-edge labelings
//! computed on different semi-graphs of the same parent can be merged
//! directly (this is exactly what Algorithms 2 and 4 of the paper do).

use crate::adjacency::Graph;
use crate::csr::{zip_neighbors, CsrEdges, CsrPairs, Neighbors};
use crate::ids::{EdgeId, HalfEdge, NodeId, Side};

/// A semi-graph view into a parent [`Graph`].
///
/// # Examples
///
/// ```
/// use treelocal_graph::{Graph, NodeId, SemiGraph};
///
/// // Path 0 - 1 - 2; restrict to the node set {1}.
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let s = SemiGraph::induced_by_nodes(&g, |v| v.index() == 1);
/// // Both edges are present (each has an endpoint in {1}) but have rank 1.
/// assert_eq!(s.edges().len(), 2);
/// assert!(s.edges().iter().all(|&e| s.rank(e) == 1));
/// assert_eq!(s.half_degree(NodeId::new(1)), 2);
/// assert_eq!(s.underlying_degree(NodeId::new(1)), 0);
/// ```
#[derive(Clone, Debug)]
pub struct SemiGraph<'g> {
    graph: &'g Graph,
    node_in: Vec<bool>,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    /// Which half-edges are present, per parent edge. A parent edge is
    /// contained iff at least one of its halves is present: both
    /// constructors build edges of rank 1 or 2 only.
    half: Vec<[bool; 2]>,
    /// Half-edge incidence (CSR): for each node, the contained edges whose
    /// half at this node is present, in ascending edge order.
    inc: CsrEdges,
    /// Rank-2 adjacency (CSR): the communication graph / underlying graph,
    /// the parent's adjacency with every slot of a rank < 2 edge dropped.
    adj2: CsrPairs,
    max_underlying_degree: usize,
}

impl<'g> SemiGraph<'g> {
    /// Views the entire graph as a semi-graph (every edge has rank 2).
    pub fn whole(graph: &'g Graph) -> Self {
        Self::induced_by_nodes(graph, |_| true)
    }

    /// The semi-graph induced by a node set `P` (used by Theorem 12).
    ///
    /// Per the paper's construction of `T_C`/`T_R`: the node set is `P`, the
    /// edge set is every parent edge with **at least one** endpoint in `P`,
    /// and a half-edge `(v, e)` is present iff `v ∈ P`. Edges with exactly
    /// one endpoint in `P` therefore have rank 1.
    pub fn induced_by_nodes<F: Fn(NodeId) -> bool>(graph: &'g Graph, in_set: F) -> Self {
        let n = graph.node_count();
        let node_in: Vec<bool> = (0..n).map(|i| in_set(NodeId::new(i))).collect();
        let half =
            graph.edge_ids().map(|e| graph.endpoints(e).map(|v| node_in[v.index()])).collect();
        Self::assemble(graph, node_in, half)
    }

    /// The semi-graph induced by an edge set `Q` (used by Theorem 15).
    ///
    /// Per the paper's `G[Q]`: the edge set is `Q`, the node set is the set
    /// of endpoints of edges in `Q`, and every half-edge of a contained edge
    /// is present (so all contained edges have rank 2).
    pub fn induced_by_edges<F: Fn(EdgeId) -> bool>(graph: &'g Graph, in_set: F) -> Self {
        let mut node_in = vec![false; graph.node_count()];
        let mut half = vec![[false, false]; graph.edge_count()];
        for e in graph.edge_ids() {
            if in_set(e) {
                half[e.index()] = [true, true];
                let [u, v] = graph.endpoints(e);
                node_in[u.index()] = true;
                node_in[v.index()] = true;
            }
        }
        Self::assemble(graph, node_in, half)
    }

    fn assemble(graph: &'g Graph, node_in: Vec<bool>, half: Vec<[bool; 2]>) -> Self {
        let n = graph.node_count();
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).filter(|v| node_in[v.index()]).collect();
        let edges: Vec<EdgeId> =
            graph.edge_ids().filter(|e| half[e.index()] != [false, false]).collect();
        // Incidences fed in ascending edge order; the stable counting fill
        // keeps each per-node list ascending.
        let inc = CsrEdges::from_incidences(
            n,
            edges.iter().flat_map(|&e| {
                let [u, v] = graph.endpoints(e);
                let [hu, hv] = half[e.index()];
                hu.then_some((u, e)).into_iter().chain(hv.then_some((v, e)))
            }),
        );
        let rank2 = edges.iter().filter(|&&e| half[e.index()] == [true, true]).count();
        let adj2 = graph.csr().filter(2 * rank2, |e| half[e.index()] == [true, true]);
        let max_underlying_degree = adj2.max_degree();
        SemiGraph { graph, node_in, nodes, edges, half, inc, adj2, max_underlying_degree }
    }

    /// The parent graph this semi-graph is a view of.
    #[inline]
    pub fn parent(&self) -> &'g Graph {
        self.graph
    }

    /// The contained nodes, in increasing index order.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The contained edges, in increasing index order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Whether node `v` belongs to the semi-graph.
    #[inline]
    pub fn contains_node(&self, v: NodeId) -> bool {
        self.node_in[v.index()]
    }

    /// Whether parent edge `e` belongs to the semi-graph.
    #[inline]
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.half[e.index()] != [false, false]
    }

    /// Whether the half-edge of `e` on `side` is present.
    #[inline]
    pub fn half_present(&self, e: EdgeId, side: Side) -> bool {
        self.half[e.index()][side.index()]
    }

    /// The rank of a contained edge: its number of present half-edges.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not contained in the semi-graph.
    #[inline]
    pub fn rank(&self, e: EdgeId) -> usize {
        assert!(self.contains_edge(e), "{e:?} not in semi-graph");
        let [a, b] = self.half[e.index()];
        usize::from(a) + usize::from(b)
    }

    /// The degree of `v` in the semi-graph sense: the number of half-edges
    /// incident on `v` (counts rank-1 and rank-2 edges alike).
    ///
    /// This is the `deg` used in node constraints `N^{deg(v)}` of the
    /// node-edge-checkability formalism.
    #[inline]
    pub fn half_degree(&self, v: NodeId) -> usize {
        self.inc.degree(v)
    }

    /// The contained edges with a present half-edge at `v`.
    #[inline]
    pub fn incident_edges(&self, v: NodeId) -> &[EdgeId] {
        self.inc.edges_of(v)
    }

    /// Iterates over the present half-edges at `v`.
    pub fn half_edges_of(&self, v: NodeId) -> impl Iterator<Item = HalfEdge> + '_ {
        let g = self.graph;
        self.inc.edges_of(v).iter().map(move |&e| HalfEdge::new(e, g.side_of(e, v)))
    }

    /// Iterates over every present half-edge of the semi-graph.
    pub fn half_edges(&self) -> impl Iterator<Item = HalfEdge> + '_ {
        self.edges.iter().flat_map(move |&e| {
            let [a, b] = self.half[e.index()];
            let first = a.then_some(HalfEdge::new(e, Side::First));
            let second = b.then_some(HalfEdge::new(e, Side::Second));
            first.into_iter().chain(second)
        })
    }

    /// The rank-2 neighbors of `v` (the adjacency of the *underlying graph*,
    /// over which LOCAL communication happens), sorted by node index.
    #[inline]
    pub fn underlying_neighbor_nodes(&self, v: NodeId) -> &[NodeId] {
        self.adj2.nodes_of(v)
    }

    /// The rank-2 edges connecting `v` to
    /// [`underlying_neighbor_nodes`](SemiGraph::underlying_neighbor_nodes),
    /// slot for slot.
    #[inline]
    pub fn underlying_neighbor_edges(&self, v: NodeId) -> &[EdgeId] {
        self.adj2.edges_of(v)
    }

    /// Iterates the rank-2 `(neighbor, connecting edge)` pairs of `v`.
    #[inline]
    pub fn underlying_neighbors(&self, v: NodeId) -> Neighbors<'_> {
        zip_neighbors(self.adj2.nodes_of(v), self.adj2.edges_of(v))
    }

    /// The degree of `v` in the underlying graph.
    #[inline]
    pub fn underlying_degree(&self, v: NodeId) -> usize {
        self.adj2.degree(v)
    }

    /// The maximum degree of the underlying graph (the `Δ` in the runtime
    /// `O(f(Δ) + log* n)` of a truly local algorithm run on this semi-graph).
    #[inline]
    pub fn underlying_max_degree(&self) -> usize {
        self.max_underlying_degree
    }

    /// Total number of present half-edges.
    pub fn half_edge_count(&self) -> usize {
        self.edges.iter().map(|&e| self.rank(e)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn whole_graph_is_rank2_everywhere() {
        let g = path(4);
        let s = SemiGraph::whole(&g);
        assert_eq!(s.nodes().len(), 4);
        assert_eq!(s.edges().len(), 3);
        for &e in s.edges() {
            assert_eq!(s.rank(e), 2);
        }
        assert_eq!(s.underlying_max_degree(), g.max_degree());
        assert_eq!(s.half_edge_count(), 2 * g.edge_count());
    }

    #[test]
    fn induced_by_nodes_keeps_boundary_edges_at_rank1() {
        // Path 0-1-2-3, keep {0, 1}.
        let g = path(4);
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() <= 1);
        assert_eq!(s.nodes().len(), 2);
        // Edges 0-1 (rank 2) and 1-2 (rank 1); edge 2-3 absent.
        assert_eq!(s.edges().len(), 2);
        let e01 = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        let e12 = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        let e23 = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        assert_eq!(s.rank(e01), 2);
        assert_eq!(s.rank(e12), 1);
        assert!(!s.contains_edge(e23));
        // Node 1 has two half-edges but underlying degree 1.
        assert_eq!(s.half_degree(NodeId::new(1)), 2);
        assert_eq!(s.underlying_degree(NodeId::new(1)), 1);
    }

    #[test]
    fn induced_by_edges_is_all_rank2() {
        let g = path(4);
        let e12 = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        let s = SemiGraph::induced_by_edges(&g, |e| e == e12);
        assert_eq!(s.nodes().len(), 2);
        assert!(s.contains_node(NodeId::new(1)));
        assert!(s.contains_node(NodeId::new(2)));
        assert_eq!(s.edges(), &[e12]);
        assert_eq!(s.rank(e12), 2);
        // Node 1's other parent edge is not part of the semi-graph.
        assert_eq!(s.half_degree(NodeId::new(1)), 1);
    }

    #[test]
    fn half_edges_of_matches_incident_edges() {
        let g = path(4);
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() % 2 == 0);
        for &v in s.nodes() {
            let hs: Vec<_> = s.half_edges_of(v).collect();
            assert_eq!(hs.len(), s.half_degree(v));
            for h in hs {
                assert_eq!(g.endpoint(h.edge, h.side), v);
                assert!(s.half_present(h.edge, h.side));
            }
        }
    }

    #[test]
    fn half_edges_enumeration_counts() {
        let g = path(5);
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() >= 2);
        assert_eq!(s.half_edges().count(), s.half_edge_count());
    }

    #[test]
    fn disjoint_node_parts_partition_half_edges() {
        // Key invariant used by Theorem 12: for a node partition (C, R), the
        // half-edges of T_C and T_R partition the half-edges of T.
        let g = path(7);
        let in_c = |v: NodeId| !v.index().is_multiple_of(3);
        let sc = SemiGraph::induced_by_nodes(&g, in_c);
        let sr = SemiGraph::induced_by_nodes(&g, |v| !in_c(v));
        let total = 2 * g.edge_count();
        assert_eq!(sc.half_edge_count() + sr.half_edge_count(), total);
    }

    #[test]
    fn empty_restriction() {
        let g = path(3);
        let s = SemiGraph::induced_by_nodes(&g, |_| false);
        assert!(s.nodes().is_empty());
        assert!(s.edges().is_empty());
        assert_eq!(s.underlying_max_degree(), 0);
    }
}
