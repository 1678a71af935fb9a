//! Flat compressed-sparse-row (CSR) adjacency storage.
//!
//! The engines walk node neighborhoods on every round; a per-node
//! `Vec<Vec<...>>` adjacency costs one heap allocation per node and a
//! pointer chase per visited list. The CSR layout here packs every
//! adjacency list into flat struct-of-arrays storage addressed by one
//! offsets table: `offsets[v]..offsets[v + 1]` is node `v`'s slice of the
//! `nodes` (neighbor index) and `edges` (connecting edge) arrays. Degrees
//! are offset deltas, neighbor-only scans touch half the bytes of the old
//! pair lists, and the whole structure is three allocations regardless of
//! `n`.
//!
//! Offsets are `u32`, which caps instances at `2m <= u32::MAX` half-edges
//! and `n <= u32::MAX` nodes — [`check_index_space`] turns an oversized
//! build into a typed [`GraphError::TooLarge`] instead of a silent
//! truncation.

use crate::ids::{narrow_u32, widen_u32, EdgeId, NodeId};
use crate::GraphError;

/// Maximum node count of the u32 index space.
pub(crate) const MAX_NODES: usize = widen_u32(u32::MAX);

/// Maximum edge count of the u32 index space: the CSR offsets address
/// half-edges, so `2m` must fit in `u32`.
pub(crate) const MAX_EDGES: usize = widen_u32(u32::MAX / 2);

/// Validates that an instance with `nodes` nodes and `edges` edges fits the
/// u32 index space ([`MAX_NODES`] / [`MAX_EDGES`]).
pub(crate) fn check_index_space(nodes: usize, edges: usize) -> Result<(), GraphError> {
    if nodes > MAX_NODES || edges > MAX_EDGES {
        return Err(GraphError::TooLarge { nodes, edges });
    }
    Ok(())
}

/// Iterator pairing a node's neighbor slice with its edge slice, yielding
/// `(neighbor, connecting edge)` like the old nested adjacency lists did.
pub type Neighbors<'a> = std::iter::Zip<
    std::iter::Copied<std::slice::Iter<'a, NodeId>>,
    std::iter::Copied<std::slice::Iter<'a, EdgeId>>,
>;

/// Zips parallel neighbor/edge slices into a [`Neighbors`] iterator.
#[inline]
pub(crate) fn zip_neighbors<'a>(nodes: &'a [NodeId], edges: &'a [EdgeId]) -> Neighbors<'a> {
    nodes.iter().copied().zip(edges.iter().copied())
}

/// CSR adjacency in struct-of-arrays form: one offsets table addressing a
/// flat neighbor array and a flat edge array.
#[derive(Clone, Debug, Default)]
pub(crate) struct CsrPairs {
    /// `offsets[v]..offsets[v + 1]` delimits node `v`'s slice; length
    /// `n + 1`, entries bounded by the total half-edge count.
    offsets: Vec<u32>,
    /// Neighbor node per adjacency slot.
    nodes: Vec<NodeId>,
    /// Connecting edge per adjacency slot (parallel to `nodes`).
    edges: Vec<EdgeId>,
}

impl CsrPairs {
    /// Builds the CSR **directly from the endpoint records** a streaming
    /// build keeps anyway: degree count + counting-sort fill into the
    /// final flat arrays, then a per-slice tandem sort through one reused
    /// degree-sized scratch buffer. No `(NodeId, EdgeId)` pair list is
    /// ever materialized — the only transient beyond the finished arrays
    /// is the `4n`-byte cursor table (and the `O(Δ)` scratch).
    ///
    /// Parallel edges are detected *after* the per-slice sort as adjacent
    /// duplicates in a neighbor slice, reporting the lexicographically
    /// first offending pair. Slot-for-slot equality with a naive
    /// push-and-sort nested adjacency is pinned by `csr_equiv` and the
    /// streaming equivalence suite.
    ///
    /// The caller must have validated the index space via
    /// [`check_index_space`]; `2m` half-edge slots are assumed to fit u32.
    pub(crate) fn from_endpoints(n: usize, endpoints: &[[NodeId; 2]]) -> Result<Self, GraphError> {
        let mut offsets = vec![0u32; n + 1];
        for &[u, v] in endpoints {
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let total = widen_u32(offsets[n]);
        let mut nodes: Vec<NodeId> = vec![NodeId::new(0); total];
        let mut edges: Vec<EdgeId> = vec![EdgeId::new(0); total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (i, &[u, v]) in endpoints.iter().enumerate() {
            let e = EdgeId::new(i);
            let cu = widen_u32(cursor[u.index()]);
            nodes[cu] = v;
            edges[cu] = e;
            cursor[u.index()] += 1;
            let cv = widen_u32(cursor[v.index()]);
            nodes[cv] = u;
            edges[cv] = e;
            cursor[v.index()] += 1;
        }
        drop(cursor);
        // Per-slice sort by neighbor index, carrying the edge slots along
        // through one reused scratch buffer (same comparator the pair-list
        // build used, so the slot order is identical).
        let mut scratch: Vec<(NodeId, EdgeId)> = Vec::new();
        for i in 0..n {
            let range = widen_u32(offsets[i])..widen_u32(offsets[i + 1]);
            if range.len() < 2 {
                continue;
            }
            scratch.clear();
            scratch.extend(zip_neighbors(&nodes[range.clone()], &edges[range.clone()]));
            scratch.sort_unstable_by_key(|&(w, _)| w);
            for (slot, &(w, e)) in range.clone().zip(scratch.iter()) {
                nodes[slot] = w;
                edges[slot] = e;
            }
            // A simple graph has unique neighbors; an adjacent duplicate in
            // the sorted slice is a parallel edge. Scanning nodes in
            // ascending index order finds the lexicographically smallest
            // canonical offending pair, as the old sorted-pair scan did.
            if let Some(w) = scratch.windows(2).find(|w| w[0].0 == w[1].0) {
                let (x, y) = (i, w[0].0.index());
                return Err(GraphError::ParallelEdge { u: x.min(y), v: x.max(y) });
            }
        }
        Ok(CsrPairs { offsets, nodes, edges })
    }

    /// The restriction of this adjacency to the slots whose edge satisfies
    /// `keep`, in the same order: every node's kept slice stays sorted by
    /// neighbor index, so no re-sort is needed. `slots` is the exact number
    /// of kept slots (it sizes the two flat arrays).
    pub(crate) fn filter(&self, slots: usize, keep: impl Fn(EdgeId) -> bool) -> Self {
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut nodes = Vec::with_capacity(slots);
        let mut edges = Vec::with_capacity(slots);
        offsets.push(0);
        for w in self.offsets.windows(2) {
            for slot in widen_u32(w[0])..widen_u32(w[1]) {
                if keep(self.edges[slot]) {
                    nodes.push(self.nodes[slot]);
                    edges.push(self.edges[slot]);
                }
            }
            offsets.push(narrow_u32(edges.len()));
        }
        CsrPairs { offsets, nodes, edges }
    }

    /// The adjacency slot range of node `v`.
    #[inline]
    fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        widen_u32(self.offsets[v.index()])..widen_u32(self.offsets[v.index() + 1])
    }

    /// Node `v`'s neighbors, sorted by node index.
    #[inline]
    pub(crate) fn nodes_of(&self, v: NodeId) -> &[NodeId] {
        &self.nodes[self.range(v)]
    }

    /// The edges connecting `v` to [`nodes_of`](CsrPairs::nodes_of), slot
    /// for slot.
    #[inline]
    pub(crate) fn edges_of(&self, v: NodeId) -> &[EdgeId] {
        &self.edges[self.range(v)]
    }

    /// Degree of `v` (an offset delta — O(1), no list access).
    #[inline]
    pub(crate) fn degree(&self, v: NodeId) -> usize {
        widen_u32(self.offsets[v.index() + 1] - self.offsets[v.index()])
    }

    /// The maximum degree over all nodes.
    pub(crate) fn max_degree(&self) -> usize {
        self.offsets.windows(2).map(|w| widen_u32(w[1] - w[0])).max().unwrap_or(0)
    }

    /// Total number of adjacency slots (the degree sum, `2m`).
    #[inline]
    pub(crate) fn slot_count(&self) -> usize {
        self.nodes.len()
    }
}

/// CSR incidence lists: one offsets table over a single flat item array.
/// Used for the semi-graph's per-node half-edge incidence.
#[derive(Clone, Debug, Default)]
pub(crate) struct CsrEdges {
    offsets: Vec<u32>,
    edges: Vec<EdgeId>,
}

impl CsrEdges {
    /// Builds the incidence CSR over `n` nodes by counting sort. Each
    /// node's slice keeps the iterator's relative order (the counting fill
    /// is stable), so feeding incidences in ascending edge order yields
    /// ascending per-node lists — the order the old nested build produced.
    pub(crate) fn from_incidences<I>(n: usize, inc_iter: I) -> Self
    where
        I: Iterator<Item = (NodeId, EdgeId)> + Clone,
    {
        let mut offsets = vec![0u32; n + 1];
        for (v, _) in inc_iter.clone() {
            offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let total = widen_u32(offsets[n]);
        let mut edges: Vec<EdgeId> = vec![EdgeId::new(0); total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for (v, e) in inc_iter {
            edges[widen_u32(cursor[v.index()])] = e;
            cursor[v.index()] += 1;
        }
        CsrEdges { offsets, edges }
    }

    /// The incident items of node `v`.
    #[inline]
    pub(crate) fn edges_of(&self, v: NodeId) -> &[EdgeId] {
        &self.edges[widen_u32(self.offsets[v.index()])..widen_u32(self.offsets[v.index() + 1])]
    }

    /// Number of incident items of `v`.
    #[inline]
    pub(crate) fn degree(&self, v: NodeId) -> usize {
        widen_u32(self.offsets[v.index() + 1] - self.offsets[v.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_space_boundaries() {
        // Exactly at the caps: fine.
        assert!(check_index_space(MAX_NODES, 0).is_ok());
        assert!(check_index_space(0, MAX_EDGES).is_ok());
        assert!(check_index_space(MAX_NODES, MAX_EDGES).is_ok());
        // One past either cap: typed error carrying both counts.
        assert!(matches!(
            check_index_space(MAX_NODES + 1, 7),
            Err(GraphError::TooLarge { nodes, edges }) if nodes == MAX_NODES + 1 && edges == 7
        ));
        assert!(matches!(
            check_index_space(3, MAX_EDGES + 1),
            Err(GraphError::TooLarge { nodes, edges }) if nodes == 3 && edges == MAX_EDGES + 1
        ));
        assert!(check_index_space(usize::MAX, usize::MAX).is_err());
    }

    #[test]
    fn edge_cap_is_half_edge_exact() {
        // 2 * MAX_EDGES = u32::MAX - 1 slots fits; one more edge would
        // push the offsets table past u32::MAX.
        assert_eq!(2 * MAX_EDGES, widen_u32(u32::MAX) - 1);
    }

    #[test]
    fn counting_sort_matches_push_and_sort() {
        // Path 0-1-2-3 with shuffled edge insertion (edge i is record i).
        let n = NodeId::new;
        let csr = CsrPairs::from_endpoints(4, &[[n(2), n(3)], [n(0), n(1)], [n(1), n(2)]]).unwrap();
        assert_eq!(csr.nodes_of(n(1)), &[n(0), n(2)]);
        assert_eq!(csr.edges_of(n(1)), &[EdgeId::new(1), EdgeId::new(2)]);
        assert_eq!(csr.degree(n(0)), 1);
        assert_eq!(csr.degree(n(2)), 2);
        assert_eq!(csr.max_degree(), 2);
        assert_eq!(csr.slot_count(), 6);
    }

    #[test]
    fn empty_and_isolated_nodes() {
        let csr = CsrPairs::from_endpoints(3, &[]).unwrap();
        for i in 0..3 {
            assert!(csr.nodes_of(NodeId::new(i)).is_empty());
            assert_eq!(csr.degree(NodeId::new(i)), 0);
        }
        assert_eq!(csr.max_degree(), 0);
        let zero = CsrPairs::from_endpoints(0, &[]).unwrap();
        assert_eq!(zero.max_degree(), 0);
        assert_eq!(zero.slot_count(), 0);
        assert_eq!(zero.filter(0, |_| true).slot_count(), 0);
    }

    #[test]
    fn filter_keeps_slot_order() {
        // Star centred at 0 with shuffled edge insertion; drop edge 1 (0-1).
        let n = NodeId::new;
        let star =
            CsrPairs::from_endpoints(5, &[[n(0), n(3)], [n(1), n(0)], [n(0), n(4)], [n(2), n(0)]])
                .unwrap();
        let kept = star.filter(6, |e| e != EdgeId::new(1));
        assert_eq!(kept.nodes_of(n(0)), &[n(2), n(3), n(4)]);
        assert_eq!(kept.edges_of(n(0)), &[EdgeId::new(3), EdgeId::new(0), EdgeId::new(2)]);
        assert_eq!(kept.degree(n(1)), 0);
        assert_eq!(kept.nodes_of(n(4)), &[n(0)]);
        assert_eq!(kept.max_degree(), 3);
        assert_eq!(kept.slot_count(), 6);
    }

    #[test]
    fn incidence_lists_keep_feed_order() {
        let incs = [
            (NodeId::new(1), EdgeId::new(0)),
            (NodeId::new(0), EdgeId::new(0)),
            (NodeId::new(1), EdgeId::new(2)),
            (NodeId::new(2), EdgeId::new(5)),
        ];
        let inc = CsrEdges::from_incidences(3, incs.iter().copied());
        assert_eq!(inc.edges_of(NodeId::new(1)), &[EdgeId::new(0), EdgeId::new(2)]);
        assert_eq!(inc.edges_of(NodeId::new(0)), &[EdgeId::new(0)]);
        assert_eq!(inc.degree(NodeId::new(2)), 1);
    }
}
