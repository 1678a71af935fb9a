//! Half-edge labelings: the output format of every algorithm in this
//! workspace.
//!
//! A solution to a node-edge-checkable problem (Definition 6) is a function
//! from half-edges to labels. [`HalfEdgeLabeling`] stores such a (possibly
//! partial) function indexed by the *parent graph's* edge space, so labels
//! produced on different semi-graph restrictions of the same instance can
//! be written into one shared structure — exactly how Algorithms 2 and 4
//! assemble their final outputs.

use treelocal_graph::{EdgeId, Graph, HalfEdge, NodeId, Side};

/// A partial assignment of labels to half-edges of a parent graph.
///
/// # Examples
///
/// ```
/// use treelocal_graph::{Graph, HalfEdge, EdgeId, Side};
/// use treelocal_problems::HalfEdgeLabeling;
///
/// let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
/// let mut l: HalfEdgeLabeling<u32> = HalfEdgeLabeling::new(g.edge_count());
/// let h = HalfEdge::new(EdgeId::new(0), Side::First);
/// assert_eq!(l.get(h), None);
/// l.set(h, 5);
/// assert_eq!(l.get(h), Some(5));
/// assert_eq!(l.assigned_count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HalfEdgeLabeling<L> {
    labels: Vec<[Option<L>; 2]>,
}

impl<L: Copy> HalfEdgeLabeling<L> {
    /// An empty labeling over a parent graph with `edge_count` edges.
    pub fn new(edge_count: usize) -> Self {
        HalfEdgeLabeling { labels: vec![[None, None]; edge_count] }
    }

    /// An empty labeling sized for graph `g`.
    pub fn for_graph(g: &Graph) -> Self {
        Self::new(g.edge_count())
    }

    /// The label of half-edge `h`, if assigned.
    #[inline]
    pub fn get(&self, h: HalfEdge) -> Option<L> {
        self.labels[h.edge.index()][h.side.index()]
    }

    /// The label of the half-edge of `e` on `side`.
    #[inline]
    pub fn get_at(&self, e: EdgeId, side: Side) -> Option<L> {
        self.labels[e.index()][side.index()]
    }

    /// Assigns (or overwrites) the label of `h`.
    #[inline]
    pub fn set(&mut self, h: HalfEdge, label: L) {
        self.labels[h.edge.index()][h.side.index()] = Some(label);
    }

    /// Assigns the label of `h`, panicking if it was already set — used by
    /// pipelines whose phases must label disjoint half-edge sets.
    ///
    /// # Panics
    ///
    /// Panics if `h` already carries a label.
    pub fn set_fresh(&mut self, h: HalfEdge, label: L) {
        let slot = &mut self.labels[h.edge.index()][h.side.index()];
        assert!(slot.is_none(), "half-edge {h:?} labeled twice");
        *slot = Some(label);
    }

    /// Removes the label of `h`, returning the previous value (used by
    /// backtracking searches).
    #[inline]
    pub fn unset(&mut self, h: HalfEdge) -> Option<L> {
        self.labels[h.edge.index()][h.side.index()].take()
    }

    /// Both labels of edge `e` (side 0, side 1).
    #[inline]
    pub fn edge_labels(&self, e: EdgeId) -> [Option<L>; 2] {
        self.labels[e.index()]
    }

    /// The assigned labels on half-edges incident to `v` in the parent
    /// graph, in neighbor order. Unassigned halves are skipped.
    pub fn labels_at_node(&self, g: &Graph, v: NodeId) -> Vec<L> {
        g.neighbor_edges(v).iter().filter_map(|&e| self.get_at(e, g.side_of(e, v))).collect()
    }

    /// Total number of assigned half-edges.
    pub fn assigned_count(&self) -> usize {
        self.labels.iter().map(|[a, b]| usize::from(a.is_some()) + usize::from(b.is_some())).sum()
    }

    /// Iterates over all assigned `(half-edge, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (HalfEdge, L)> + '_ {
        self.labels.iter().enumerate().flat_map(|(e, pair)| {
            (0..2).filter_map(move |s| {
                pair[s].map(|l| (HalfEdge::new(EdgeId::new(e), Side::from_index(s)), l))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn set_get_roundtrip() {
        let g = path(3);
        let mut l = HalfEdgeLabeling::for_graph(&g);
        let h = HalfEdge::new(EdgeId::new(1), Side::Second);
        l.set(h, 'x');
        assert_eq!(l.get(h), Some('x'));
        assert_eq!(l.get(h.opposite()), None);
        assert_eq!(l.assigned_count(), 1);
    }

    #[test]
    #[should_panic(expected = "labeled twice")]
    fn set_fresh_detects_double_label() {
        let g = path(2);
        let mut l = HalfEdgeLabeling::for_graph(&g);
        let h = HalfEdge::new(EdgeId::new(0), Side::First);
        l.set_fresh(h, 1u8);
        l.set_fresh(h, 2u8);
    }

    #[test]
    fn labels_at_node_collects_in_neighbor_order() {
        let g = path(3);
        let mut l = HalfEdgeLabeling::for_graph(&g);
        let v = NodeId::new(1);
        for &e in g.neighbor_edges(v) {
            l.set(HalfEdge::new(e, g.side_of(e, v)), e.index() as u32);
        }
        assert_eq!(l.labels_at_node(&g, v), vec![0, 1]);
        assert!(l.labels_at_node(&g, NodeId::new(0)).is_empty());
    }
}
