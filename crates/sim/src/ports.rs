//! What a step sees of the previous round: its neighbours' states, port by
//! port.
//!
//! A node's whole state is what it sends (LOCAL messages are unbounded),
//! so the engine stores states as plain `Copy` values in one node-major
//! `Vec<S>`: a read is a copy, a write an assignment. [`Ports`] reads
//! either the neighbours' own slots of that column (the snapshot engine)
//! or the node's inbox slots (the message engine).

use treelocal_graph::NodeId;

/// What a step sees of the previous round: one state per **port**. Port
/// `p` of node `v` is `ctx.topo.neighbor_nodes(v)[p]`, the same order as
/// `neighbor_edges(v)`. Reads copy by value.
///
/// No read names a node, so a step can only see its own neighbours: the
/// locality of Definition 5 holds by construction. The snapshot engine
/// reads each neighbour's slot in place; the message engine reads the
/// states delivered into the node's inbox. Both are this one type.
#[derive(Debug)]
pub struct Ports<'a, S> {
    rows: &'a [S],
    /// `Some(nodes)`: port `p` reads `rows[nodes[p]]` (the snapshot
    /// engine). `None`: port `p` reads `rows[p]` (an inbox).
    nodes: Option<&'a [NodeId]>,
}

impl<'a, S: Copy> Ports<'a, S> {
    /// The neighbours' own slots of `rows`, in port order.
    #[inline]
    pub(crate) fn neighbors(rows: &'a [S], nodes: &'a [NodeId]) -> Self {
        Ports { rows, nodes: Some(nodes) }
    }

    /// An inbox: one delivered state per port.
    #[inline]
    pub(crate) fn inbox(slots: &'a [S]) -> Self {
        Ports { rows: slots, nodes: None }
    }

    /// The number of ports: the node's degree.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.map_or(self.rows.len(), <[NodeId]>::len)
    }

    /// Whether the node has no neighbours.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The previous-round state of the neighbour at port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.len()`.
    #[inline]
    pub fn port(&self, p: usize) -> S {
        match self.nodes {
            Some(nodes) => self.rows[nodes[p].index()],
            None => {
                assert!(p < self.rows.len(), "port {p} of a node with {} ports", self.rows.len());
                self.rows[p]
            }
        }
    }

    /// Every port's state, in port order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = S> + '_ {
        (0..self.len()).map(|p| self.port(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_port_forms_read_rows_in_port_order() {
        let rows: Vec<u32> = (0..5).map(|row| 10 * row).collect();
        let nodes = [NodeId::new(4), NodeId::new(0), NodeId::new(2)];
        let by_node = Ports::neighbors(&rows, &nodes);
        assert_eq!(by_node.iter().collect::<Vec<_>>(), [40, 0, 20]);
        let by_slot = Ports::inbox(&rows[1..4]);
        assert_eq!((by_slot.len(), by_slot.port(2)), (3, 30));
        assert_eq!(by_slot.iter().collect::<Vec<_>>(), [10, 20, 30]);
        assert!(Ports::inbox(&rows[2..2]).is_empty());
    }

    #[test]
    #[should_panic(expected = "port 3 of a node with 3 ports")]
    fn an_inbox_port_past_the_degree_is_rejected() {
        let rows = [0u32; 5];
        let _ = Ports::inbox(&rows[1..4]).port(3);
    }
}
