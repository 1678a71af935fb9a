//! Simple undirected graphs with LOCAL-model identifiers.
//!
//! A [`Graph`] is an immutable simple undirected graph, built in one pass
//! over an [`EdgeSource`] by [`Graph::from_edge_source`] (an edge slice is
//! wrapped as a [`SliceEdges`] by [`Graph::from_edges`]). Every node
//! carries a *LOCAL identifier*: the globally unique value from
//! `{1, ..., n^c}` that the LOCAL model (Definition 5 of the paper) makes
//! visible to the node's algorithm. Node indices ([`NodeId`]) are a packed
//! `0..n` representation used for storage and are never exposed to
//! simulated algorithms.
//!
//! Adjacency is stored in flat CSR/struct-of-arrays form (see
//! [`crate::csr`]): one u32 offsets table over a flat neighbor array and a
//! flat edge array. Neighbor walks scan contiguous memory, degrees are
//! offset deltas, and instance size is capped by the u32 index space
//! (`n <= u32::MAX`, `2m <= u32::MAX`) — exceeding it is a typed
//! [`GraphError::TooLarge`], never a silent truncation.

use crate::csr::{check_index_space, zip_neighbors, CsrPairs, Neighbors};
use crate::ids::{widen_u64, EdgeId, NodeId, NodeRange, Side};
use crate::source::{EdgeSource, SliceEdges};
use crate::{stats, GraphError};

/// An immutable simple undirected graph.
///
/// # Examples
///
/// ```
/// use treelocal_graph::{Graph, NodeId};
///
/// // A path on three nodes: 0 - 1 - 2.
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert_eq!(g.max_degree(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    /// LOCAL identifier of each node.
    ids: LocalIds,
    /// Endpoints of each edge (`endpoints[e] = [u, v]` with `u != v`).
    endpoints: Vec<[NodeId; 2]>,
    /// CSR adjacency: per-node neighbor/edge slices in two flat arrays.
    adj: CsrPairs,
    max_degree: usize,
}

/// LOCAL identifier assignment of a graph.
///
/// The default `i + 1` assignment is pure arithmetic — storing it as an
/// explicit table would cost 8 bytes per node (800 MB at the 100M-node
/// tier) for values the index already determines.
#[derive(Clone, Debug)]
enum LocalIds {
    /// Node `i` carries identifier `i + 1`; only the count is stored.
    Sequential(usize),
    /// One explicit identifier per node (validated distinct and nonzero).
    Explicit(Vec<u64>),
}

impl LocalIds {
    fn len(&self) -> usize {
        match self {
            LocalIds::Sequential(n) => *n,
            LocalIds::Explicit(ids) => ids.len(),
        }
    }

    fn get(&self, i: usize) -> u64 {
        match self {
            LocalIds::Sequential(n) => {
                // Mirror the slice's bounds panic so out-of-range lookups
                // fail loudly in both representations.
                assert!(i < *n, "node index {i} out of range for {n} nodes");
                widen_u64(i) + 1
            }
            LocalIds::Explicit(ids) => ids[i],
        }
    }

    fn space(&self) -> u64 {
        match self {
            LocalIds::Sequential(0) => 1,
            LocalIds::Sequential(n) => widen_u64(*n) + 1,
            LocalIds::Explicit(ids) => ids.iter().copied().max().map_or(1, |m| m + 1),
        }
    }
}

impl Graph {
    /// Builds a graph from `(u, v)` index pairs: the slice is streamed as
    /// a [`SliceEdges`] source through [`from_edge_source`](Graph::from_edge_source).
    ///
    /// # Errors
    ///
    /// Same conditions as [`from_edge_source`](Graph::from_edge_source).
    ///
    /// # Examples
    ///
    /// ```
    /// use treelocal_graph::Graph;
    /// let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
    /// assert!(g.edge_between(treelocal_graph::NodeId::new(0), treelocal_graph::NodeId::new(1)).is_some());
    /// ```
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Graph, GraphError> {
        Graph::from_edge_source(&SliceEdges::new(n, edges))
    }

    /// Builds a graph by streaming an [`EdgeSource`] once — no edge list is
    /// ever materialized. The source's exact counts size the index-space
    /// check and the endpoint allocation up front; the stream is validated
    /// edge by edge as it arrives and the CSR adjacency is counting-sorted
    /// directly from the resulting compact records.
    ///
    /// Nodes receive the default sequential identifiers (`i + 1`), stored
    /// implicitly — no O(n) identifier table is allocated.
    ///
    /// # Errors
    ///
    /// * [`GraphError::TooLarge`] if the node or edge count exceeds the u32
    ///   index space; it fires before anything is allocated.
    /// * [`GraphError::NodeOutOfRange`] if an edge references a node index
    ///   `>= n`.
    /// * [`GraphError::SelfLoop`] or [`GraphError::ParallelEdge`] if the
    ///   edges do not form a simple graph.
    /// * [`GraphError::EdgeCountMismatch`] if the source violates its
    ///   contract by emitting a number of edges different from
    ///   [`EdgeSource::edge_count`].
    pub fn from_edge_source<S: EdgeSource + ?Sized>(source: &S) -> Result<Graph, GraphError> {
        check_index_space(source.node_count(), source.edge_count())?;
        Graph::build_streamed(source, LocalIds::Sequential(source.node_count()))
    }

    /// Like [`from_edge_source`](Graph::from_edge_source) with explicit
    /// LOCAL identifiers (one per node, all distinct and nonzero).
    ///
    /// # Errors
    ///
    /// Same conditions as [`from_edge_source`](Graph::from_edge_source),
    /// plus [`GraphError::IdCountMismatch`], [`GraphError::DuplicateId`] or
    /// [`GraphError::ZeroId`] if the identifiers are malformed.
    pub fn from_edge_source_with_ids<S: EdgeSource + ?Sized>(
        source: &S,
        ids: Vec<u64>,
    ) -> Result<Graph, GraphError> {
        let n = source.node_count();
        // Fail before any index is narrowed to u32 (and before the O(n)
        // identifier checks run).
        check_index_space(n, source.edge_count())?;
        if ids.len() != n {
            return Err(GraphError::IdCountMismatch { expected: n, got: ids.len() });
        }
        if ids.contains(&0) {
            return Err(GraphError::ZeroId);
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateId);
        }
        Graph::build_streamed(source, LocalIds::Explicit(ids))
    }

    /// The single streaming pass: validate and record compact endpoint
    /// records, then counting-sort the CSR adjacency from them. Callers
    /// have already run `check_index_space` and validated `ids`.
    fn build_streamed<S: EdgeSource + ?Sized>(
        source: &S,
        ids: LocalIds,
    ) -> Result<Graph, GraphError> {
        let n = source.node_count();
        let m = source.edge_count();
        let mut endpoints: Vec<[NodeId; 2]> = Vec::with_capacity(m);
        let mut surplus = 0usize;
        let mut bad: Option<GraphError> = None;
        source.stream(&mut |u, v| {
            if bad.is_some() {
                return;
            }
            // Never grow past the count `check_index_space` approved.
            if endpoints.len() == m {
                surplus += 1;
                return;
            }
            if u >= n || v >= n {
                bad = Some(GraphError::NodeOutOfRange { index: u.max(v), n });
                return;
            }
            if u == v {
                bad = Some(GraphError::SelfLoop { node: u });
                return;
            }
            endpoints.push([NodeId::new(u), NodeId::new(v)]);
        });
        if let Some(err) = bad {
            return Err(err);
        }
        let emitted = endpoints.len() + surplus;
        if emitted != m {
            return Err(GraphError::EdgeCountMismatch { declared: m, emitted });
        }
        let explicit_id_bytes = match &ids {
            LocalIds::Sequential(_) => 0,
            LocalIds::Explicit(_) => 8 * widen_u64(n),
        };
        // Everything the build allocates: the kept endpoint records and
        // identifier table, the CSR arrays, and the transient fill cursor.
        let footprint = 24 * widen_u64(m) + 8 * widen_u64(n) + 4 + explicit_id_bytes;
        stats::record_build(8 * widen_u64(m), footprint);
        let adj = CsrPairs::from_endpoints(n, &endpoints)?;
        let max_degree = adj.max_degree();
        Ok(Graph { ids, endpoints, adj, max_degree })
    }

    /// The CSR adjacency, for restrictions that filter it.
    #[inline]
    pub(crate) fn csr(&self) -> &CsrPairs {
        &self.adj
    }

    /// A rewindable [`EdgeSource`] view over this graph's endpoint records,
    /// in edge-id order — lets relabeling and restriction passes rebuild a
    /// graph without materializing a fresh edge list.
    pub fn edge_source(&self) -> GraphEdges<'_> {
        GraphEdges { graph: self }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// All node indices in increasing order (a counter over the packed
    /// `0..n` id space — nothing is stored).
    #[inline]
    pub fn node_ids(&self) -> NodeRange {
        NodeRange::upto(self.node_count())
    }

    /// Iterates over all edge indices.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId::new)
    }

    /// The two endpoints of `e`, in storage order (side 0, side 1).
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> [NodeId; 2] {
        self.endpoints[e.index()]
    }

    /// The endpoint of `e` on the given side.
    #[inline]
    pub fn endpoint(&self, e: EdgeId, side: Side) -> NodeId {
        self.endpoints[e.index()][side.index()]
    }

    /// The side of edge `e` at which node `v` sits.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn side_of(&self, e: EdgeId, v: NodeId) -> Side {
        let [a, b] = self.endpoints(e);
        if a == v {
            Side::First
        } else if b == v {
            Side::Second
        } else {
            // lint:allow(no-panic-in-lib): documented "# Panics" contract —
            // asking for the side of a non-endpoint is a caller bug with no
            // meaningful Side to return.
            panic!("{v:?} is not an endpoint of {e:?}")
        }
    }

    /// The endpoint of `e` other than `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let [a, b] = self.endpoints(e);
        if a == v {
            b
        } else if b == v {
            a
        } else {
            // lint:allow(no-panic-in-lib): documented "# Panics" contract —
            // asking for the other endpoint from a non-endpoint is a caller
            // bug with no meaningful NodeId to return.
            panic!("{v:?} is not an endpoint of {e:?}")
        }
    }

    /// The neighbors of `v`, sorted by node index — a contiguous slice of
    /// the flat CSR neighbor array. Use this (not [`neighbors`](Graph::neighbors))
    /// when the connecting edges are not needed: it touches half the bytes.
    #[inline]
    pub fn neighbor_nodes(&self, v: NodeId) -> &[NodeId] {
        self.adj.nodes_of(v)
    }

    /// The edges connecting `v` to [`neighbor_nodes`](Graph::neighbor_nodes),
    /// slot for slot (`neighbor_edges(v)[p]` joins `v` to
    /// `neighbor_nodes(v)[p]`).
    #[inline]
    pub fn neighbor_edges(&self, v: NodeId) -> &[EdgeId] {
        self.adj.edges_of(v)
    }

    /// Iterates `(neighbor, connecting edge)` pairs of `v` in neighbor
    /// order, pairing the two CSR slices.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        zip_neighbors(self.adj.nodes_of(v), self.adj.edges_of(v))
    }

    /// Degree of `v` — an O(1) offset delta in the CSR table.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj.degree(v)
    }

    /// Maximum degree Δ of the graph.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The *edge degree* of `e`: the number of edges adjacent to `e`
    /// (sharing an endpoint), i.e. `deg(u) + deg(v) - 2`.
    #[inline]
    pub fn edge_degree(&self, e: EdgeId) -> usize {
        let [u, v] = self.endpoints(e);
        self.degree(u) + self.degree(v) - 2
    }

    /// LOCAL identifier of node `v`.
    #[inline]
    pub fn local_id(&self, v: NodeId) -> u64 {
        self.ids.get(v.index())
    }

    /// An exclusive upper bound on the identifier space (`max id + 1`).
    ///
    /// The LOCAL model assumes identifiers come from `{1, ..., n^c}` for a
    /// known constant `c`; algorithms may use this bound as the initial color
    /// space for color-reduction schemes.
    pub fn id_space(&self) -> u64 {
        self.ids.space()
    }

    /// Looks up the edge connecting `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbor_nodes(a).binary_search(&b).ok().map(|i| self.neighbor_edges(a)[i])
    }

    /// Sum of all degrees (twice the edge count); useful for sanity checks.
    pub fn degree_sum(&self) -> usize {
        self.adj.slot_count()
    }
}

/// The [`EdgeSource`] view returned by [`Graph::edge_source`]: replays the
/// graph's endpoint records in edge-id order.
#[derive(Clone, Copy, Debug)]
pub struct GraphEdges<'g> {
    graph: &'g Graph,
}

impl EdgeSource for GraphEdges<'_> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    fn stream(&self, emit: &mut dyn FnMut(usize, usize)) {
        for &[u, v] in &self.graph.endpoints {
            emit(u.index(), v.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::widen_u32;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.id_space(), 1);
        assert_eq!(g.node_ids().count(), 0);
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 0);
        assert_eq!(g.local_id(NodeId::new(0)), 1);
    }

    #[test]
    fn path_adjacency() {
        let g = path(5);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(2)), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degree_sum(), 2 * g.edge_count());
        let nbrs: Vec<_> = g.neighbor_nodes(NodeId::new(2)).iter().map(|w| w.index()).collect();
        assert_eq!(nbrs, vec![1, 3]);
    }

    #[test]
    fn neighbor_slices_stay_aligned() {
        // Star with shuffled edge insertion: the neighbor slice is sorted
        // and the edge slice rides along slot for slot.
        let g = Graph::from_edges(5, &[(0, 3), (0, 1), (0, 4), (0, 2)]).unwrap();
        let c = NodeId::new(0);
        let nodes: Vec<usize> = g.neighbor_nodes(c).iter().map(|w| w.index()).collect();
        assert_eq!(nodes, vec![1, 2, 3, 4]);
        for (w, e) in g.neighbors(c) {
            assert_eq!(g.other_endpoint(e, c), w);
        }
        assert_eq!(g.neighbors(c).len(), g.degree(c));
        assert_eq!(g.neighbor_nodes(c).len(), g.neighbor_edges(c).len());
    }

    #[test]
    fn endpoints_and_sides() {
        let g = Graph::from_edges(3, &[(2, 0), (0, 1)]).unwrap();
        let e0 = EdgeId::new(0);
        assert_eq!(g.endpoints(e0), [NodeId::new(2), NodeId::new(0)]);
        assert_eq!(g.side_of(e0, NodeId::new(2)), Side::First);
        assert_eq!(g.side_of(e0, NodeId::new(0)), Side::Second);
        assert_eq!(g.other_endpoint(e0, NodeId::new(2)), NodeId::new(0));
        assert_eq!(g.endpoint(e0, Side::First), NodeId::new(2));
    }

    #[test]
    fn edge_degree_star() {
        // Star with center 0 and 4 leaves.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        for e in g.edge_ids() {
            assert_eq!(g.edge_degree(e), 3);
        }
    }

    #[test]
    fn rejects_self_loop() {
        assert!(matches!(Graph::from_edges(2, &[(1, 1)]), Err(GraphError::SelfLoop { node: 1 })));
    }

    #[test]
    fn rejects_parallel_edge() {
        let err = Graph::from_edges(2, &[(0, 1), (1, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::ParallelEdge { .. }));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { index: 5, n: 2 })
        ));
    }

    #[test]
    fn rejects_oversized_node_count() {
        // One past the u32 index space. The check fires before the O(n)
        // identifier table is allocated, so this is cheap to test.
        let n = widen_u32(u32::MAX) + 1;
        let err = Graph::from_edges(n, &[]).unwrap_err();
        assert!(matches!(err, GraphError::TooLarge { nodes, edges: 0 } if nodes == n));
        assert!(err.to_string().contains("u32 index space"));
        // At the boundary the count check passes (the identifier check
        // then rejects the empty table, proving we got past it).
        let boundary = SliceEdges::new(widen_u32(u32::MAX), &[]);
        assert!(matches!(
            Graph::from_edge_source_with_ids(&boundary, vec![]),
            Err(GraphError::IdCountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_ids() {
        let edge = SliceEdges::new(2, &[(0, 1)]);
        assert!(matches!(
            Graph::from_edge_source_with_ids(&edge, vec![7]),
            Err(GraphError::IdCountMismatch { .. })
        ));
        assert!(matches!(
            Graph::from_edge_source_with_ids(&edge, vec![7, 7]),
            Err(GraphError::DuplicateId)
        ));
        assert!(matches!(
            Graph::from_edge_source_with_ids(&edge, vec![0, 1]),
            Err(GraphError::ZeroId)
        ));
    }

    #[test]
    fn custom_ids_and_id_space() {
        let path = SliceEdges::new(3, &[(0, 1), (1, 2)]);
        let g = Graph::from_edge_source_with_ids(&path, vec![10, 4, 99]).unwrap();
        assert_eq!(g.local_id(NodeId::new(2)), 99);
        assert_eq!(g.id_space(), 100);
    }

    #[test]
    fn streamed_build_matches_materialized_build() {
        use crate::source::FnEdgeSource;
        let edges = [(0usize, 3usize), (0, 1), (2, 0), (0, 4)];
        let via_vec = Graph::from_edges(5, &edges).unwrap();
        let star = FnEdgeSource::new(5, 4, |emit| {
            for &(u, v) in &edges {
                emit(u, v);
            }
        });
        let via_stream = Graph::from_edge_source(&star).unwrap();
        for v in via_vec.node_ids() {
            assert_eq!(via_stream.neighbor_nodes(v), via_vec.neighbor_nodes(v));
            assert_eq!(via_stream.neighbor_edges(v), via_vec.neighbor_edges(v));
            assert_eq!(via_stream.local_id(v), via_vec.local_id(v));
        }
        for e in via_vec.edge_ids() {
            assert_eq!(via_stream.endpoints(e), via_vec.endpoints(e));
        }
        assert_eq!(via_stream.max_degree(), via_vec.max_degree());
        assert_eq!(via_stream.id_space(), via_vec.id_space());
    }

    #[test]
    fn edge_source_view_round_trips() {
        let g = Graph::from_edges(4, &[(2, 0), (0, 1), (3, 1)]).unwrap();
        let view = g.edge_source();
        assert_eq!(view.node_count(), 4);
        assert_eq!(view.edge_count(), 3);
        assert_eq!(view.materialize(), vec![(2, 0), (0, 1), (3, 1)]);
        let rebuilt = Graph::from_edge_source(&view).unwrap();
        for e in g.edge_ids() {
            assert_eq!(rebuilt.endpoints(e), g.endpoints(e));
        }
    }

    #[test]
    fn streamed_build_rejects_bad_edges() {
        use crate::source::FnEdgeSource;
        let oob = FnEdgeSource::new(2, 1, |emit| emit(0, 5));
        assert!(matches!(
            Graph::from_edge_source(&oob),
            Err(GraphError::NodeOutOfRange { index: 5, n: 2 })
        ));
        let loopy = FnEdgeSource::new(2, 1, |emit| emit(1, 1));
        assert!(matches!(Graph::from_edge_source(&loopy), Err(GraphError::SelfLoop { node: 1 })));
        let doubled = FnEdgeSource::new(2, 2, |emit| {
            emit(0, 1);
            emit(1, 0);
        });
        assert!(matches!(Graph::from_edge_source(&doubled), Err(GraphError::ParallelEdge { .. })));
    }

    #[test]
    fn streamed_build_rejects_oversized_counts_before_allocating() {
        use crate::source::FnEdgeSource;
        // A lying source with counts past the u32 index space: the typed
        // error fires from the counts alone, before stream() is called.
        let huge_n = widen_u32(u32::MAX) + 1;
        let src = FnEdgeSource::new(huge_n, 0, |_emit| unreachable!("must not stream"));
        let err = Graph::from_edge_source(&src).unwrap_err();
        assert!(matches!(err, GraphError::TooLarge { nodes, edges: 0 } if nodes == huge_n));
        let huge_m = widen_u32(u32::MAX / 2) + 1;
        let src = FnEdgeSource::new(4, huge_m, |_emit| unreachable!("must not stream"));
        let err = Graph::from_edge_source(&src).unwrap_err();
        assert!(matches!(err, GraphError::TooLarge { nodes: 4, edges } if edges == huge_m));
        assert!(err.to_string().contains("u32 index space"));
    }

    #[test]
    fn streamed_build_rejects_count_lies() {
        use crate::source::FnEdgeSource;
        // Claims two edges, emits one: a typed error rather than a
        // silently smaller graph.
        let under = FnEdgeSource::new(3, 2, |emit| emit(0, 1));
        assert_eq!(
            Graph::from_edge_source(&under).unwrap_err(),
            GraphError::EdgeCountMismatch { declared: 2, emitted: 1 }
        );
        // Claims one edge, emits three: recording stops at the declared
        // count and the surplus is still reported.
        let over = FnEdgeSource::new(3, 1, |emit| {
            emit(0, 1);
            emit(1, 2);
            emit(0, 2);
        });
        let err = Graph::from_edge_source_with_ids(&over, vec![7, 8, 9]).unwrap_err();
        assert_eq!(err, GraphError::EdgeCountMismatch { declared: 1, emitted: 3 });
        assert_eq!(err.to_string(), "edge source declared 1 edges but emitted 3");
    }

    #[test]
    fn edge_between_lookup() {
        let g = path(4);
        assert!(g.edge_between(NodeId::new(0), NodeId::new(1)).is_some());
        assert!(g.edge_between(NodeId::new(0), NodeId::new(2)).is_none());
        let e = g.edge_between(NodeId::new(2), NodeId::new(1)).unwrap();
        let mut ends = g.endpoints(e).map(|x| x.index());
        ends.sort_unstable();
        assert_eq!(ends, [1, 2]);
    }
}
