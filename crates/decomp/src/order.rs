//! The total order on layers and nodes shared by both decompositions.
//!
//! Both Section 3 and Section 4 of the paper order nodes by (layer,
//! identifier): a node is *lower* than another if it was marked in an
//! earlier layer, with ties broken by identifier (higher identifier =
//! higher node). Edges then have a *lower endpoint* and a *higher
//! endpoint*.

use treelocal_graph::{EdgeId, Graph, NodeId};

/// A per-node layer assignment inducing the paper's total order.
#[derive(Clone, Debug)]
pub struct LayerOrder {
    /// Global layer rank per node (0-based; higher rank = marked later).
    pub layer_rank: Vec<u32>,
}

impl LayerOrder {
    /// Whether `u` is lower than `v` in the (layer, identifier) order.
    pub fn is_lower(&self, g: &Graph, u: NodeId, v: NodeId) -> bool {
        let (lu, lv) = (self.layer_rank[u.index()], self.layer_rank[v.index()]);
        if lu != lv {
            return lu < lv;
        }
        g.local_id(u) < g.local_id(v)
    }

    /// The lower endpoint of `e`.
    pub fn lower_endpoint(&self, g: &Graph, e: EdgeId) -> NodeId {
        let [u, v] = g.endpoints(e);
        if self.is_lower(g, u, v) {
            u
        } else {
            v
        }
    }

    /// The higher endpoint of `e`.
    pub fn higher_endpoint(&self, g: &Graph, e: EdgeId) -> NodeId {
        let [u, v] = g.endpoints(e);
        if self.is_lower(g, u, v) {
            v
        } else {
            u
        }
    }

    /// The layer rank of `v`.
    pub fn rank(&self, v: NodeId) -> u32 {
        self.layer_rank[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_total_and_consistent() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let order = LayerOrder { layer_rank: vec![0, 1, 1, 0] };
        // Node 0 (layer 0) lower than node 1 (layer 1).
        assert!(order.is_lower(&g, NodeId::new(0), NodeId::new(1)));
        // Same layer: id decides (ids are index + 1).
        assert!(order.is_lower(&g, NodeId::new(1), NodeId::new(2)));
        assert!(!order.is_lower(&g, NodeId::new(2), NodeId::new(1)));
        // Antisymmetry.
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    let (u, v) = (NodeId::new(u), NodeId::new(v));
                    assert_ne!(order.is_lower(&g, u, v), order.is_lower(&g, v, u));
                }
            }
        }
    }

    #[test]
    fn endpoints_follow_order() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let order = LayerOrder { layer_rank: vec![1, 0, 1] };
        let e01 = treelocal_graph::EdgeId::new(0);
        assert_eq!(order.lower_endpoint(&g, e01), NodeId::new(1));
        assert_eq!(order.higher_endpoint(&g, e01), NodeId::new(0));
    }
}
