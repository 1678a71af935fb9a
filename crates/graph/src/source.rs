//! Streaming edge ingestion: build graphs without a materialized edge list.
//!
//! Every [`Graph`](crate::Graph) is built by one function,
//! [`Graph::from_edge_source`](crate::Graph::from_edge_source) (or its
//! explicit-identifier twin `from_edge_source_with_ids`), from an
//! [`EdgeSource`]: an edge stream plus exact counts. The build streams it
//! once, validating and recording compact u32 endpoint records as they
//! arrive, and derives everything else (degree counts, CSR fill) from
//! those records. Generators describe their edges arithmetically
//! ([`FnEdgeSource`]) or decode them on the fly (the streaming Prüfer
//! decoder in `treelocal-gen`); callers that hold an edge list wrap it in
//! a [`SliceEdges`]. Either way the build itself allocates, per edge, only
//! the 8-byte record the finished graph keeps.
//!
//! The counts are a *contract*, not a hint: [`node_count`] and
//! [`edge_count`] size the u32 index-space check (the typed
//! [`GraphError::TooLarge`](crate::GraphError::TooLarge) fires **before**
//! any allocation) and the exact allocation of the endpoint array. The
//! build records at most `edge_count` edges and returns the typed
//! [`GraphError::EdgeCountMismatch`](crate::GraphError::EdgeCountMismatch)
//! if [`stream`] emits more or fewer.
//!
//! [`node_count`]: EdgeSource::node_count
//! [`edge_count`]: EdgeSource::edge_count
//! [`stream`]: EdgeSource::stream

/// A rewindable stream of undirected edges with exact counts.
///
/// Implementors take `&self` in [`stream`](EdgeSource::stream), so a
/// caller may replay the stream any number of times; each replay must
/// emit the **same** edges in the **same** order (edge ids are assigned in
/// emission order, and every consumer of this crate pins byte-identical
/// outputs).
///
/// # Examples
///
/// ```
/// use treelocal_graph::{EdgeSource, FnEdgeSource, Graph};
///
/// // A path on n nodes, described arithmetically: no edge list exists.
/// let n = 5;
/// let path = FnEdgeSource::new(n, n - 1, move |emit| {
///     for i in 0..n - 1 {
///         emit(i, i + 1);
///     }
/// });
/// assert_eq!(path.edge_count(), 4);
/// let g = Graph::from_edge_source(&path).unwrap();
/// assert_eq!(g.edge_count(), 4);
/// assert_eq!(g.max_degree(), 2);
/// ```
pub trait EdgeSource {
    /// Number of nodes of the graph (`0..node_count` is the index space).
    fn node_count(&self) -> usize;

    /// Exact number of edges [`stream`](EdgeSource::stream) will emit.
    fn edge_count(&self) -> usize;

    /// Emits every edge, in a fixed order, as `(u, v)` index pairs.
    fn stream(&self, emit: &mut dyn FnMut(usize, usize));

    /// Materializes the stream into the classic edge list — the thin
    /// `Vec`-producing wrapper the equivalence tests pin streamed builds
    /// against. Costs the 16-bytes-per-edge transient the streaming path
    /// exists to avoid; use only where that is the point.
    fn materialize(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::with_capacity(self.edge_count());
        self.stream(&mut |u, v| edges.push((u, v)));
        edges
    }
}

impl<S: EdgeSource + ?Sized> EdgeSource for &S {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn stream(&self, emit: &mut dyn FnMut(usize, usize)) {
        (**self).stream(emit)
    }
}

/// An [`EdgeSource`] over an already-materialized edge slice.
///
/// The bridge for callers that genuinely hold an edge list (test fixtures,
/// [`Graph::from_edges`](crate::Graph::from_edges)): wrapping the slice
/// costs nothing, and the build walks it once.
#[derive(Clone, Copy, Debug)]
pub struct SliceEdges<'a> {
    n: usize,
    edges: &'a [(usize, usize)],
}

impl<'a> SliceEdges<'a> {
    /// Wraps an edge slice over `n` nodes.
    pub fn new(n: usize, edges: &'a [(usize, usize)]) -> Self {
        SliceEdges { n, edges }
    }
}

impl EdgeSource for SliceEdges<'_> {
    fn node_count(&self) -> usize {
        self.n
    }

    fn edge_count(&self) -> usize {
        self.edges.len()
    }

    fn stream(&self, emit: &mut dyn FnMut(usize, usize)) {
        for &(u, v) in self.edges {
            emit(u, v);
        }
    }
}

/// An [`EdgeSource`] described by a replayable closure — the workhorse of
/// the generator crate's structured shapes (paths, stars, caterpillars,
/// grids), whose edges are pure arithmetic over the node index.
///
/// The closure receives the `emit` sink and must produce exactly `edges`
/// edges, identically on every call.
#[derive(Clone, Copy, Debug)]
pub struct FnEdgeSource<F> {
    nodes: usize,
    edges: usize,
    f: F,
}

impl<F: Fn(&mut dyn FnMut(usize, usize))> FnEdgeSource<F> {
    /// Wraps `f` as a source of exactly `edges` edges over `nodes` nodes.
    pub fn new(nodes: usize, edges: usize, f: F) -> Self {
        FnEdgeSource { nodes, edges, f }
    }
}

impl<F: Fn(&mut dyn FnMut(usize, usize))> EdgeSource for FnEdgeSource<F> {
    fn node_count(&self) -> usize {
        self.nodes
    }

    fn edge_count(&self) -> usize {
        self.edges
    }

    fn stream(&self, emit: &mut dyn FnMut(usize, usize)) {
        (self.f)(emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_reports_counts_and_replays() {
        let edges = [(0usize, 1usize), (1, 2)];
        let s = SliceEdges::new(3, &edges);
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.materialize(), edges.to_vec());
        // Rewindable: a second pass sees the same stream.
        assert_eq!(s.materialize(), edges.to_vec());
    }

    #[test]
    fn fn_source_streams_its_closure() {
        let star = FnEdgeSource::new(4, 3, |emit| {
            for leaf in 1..4 {
                emit(0, leaf);
            }
        });
        assert_eq!(star.materialize(), vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn references_forward() {
        let edges = [(0usize, 1usize)];
        let s = SliceEdges::new(2, &edges);
        let r = &s;
        assert_eq!(r.node_count(), 2);
        assert_eq!(r.edge_count(), 1);
        assert_eq!(r.materialize(), vec![(0, 1)]);
    }
}
