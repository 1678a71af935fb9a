//! Breadth-first traversal: connected components and the sparse
//! single-source BFS every distance question goes through.
//!
//! All functions are generic over [`Topology`] so they apply equally to
//! whole graphs and to semi-graph restrictions (where "connected" means
//! connected in the underlying graph, as in the paper). The rerooting DP
//! in [`component_eccentricities`](crate::component_eccentricities) gives
//! every node of a component its eccentricity at once, reproducing
//! [`eccentricity_sparse`] per node.

use crate::ids::NodeId;
use crate::topology::Topology;
use std::collections::VecDeque;

/// The partition of a topology's nodes into connected components.
#[derive(Clone, Debug)]
pub struct Components {
    /// The members of each component, in increasing node order.
    members: Vec<Vec<NodeId>>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// The members of component `c`.
    pub fn members(&self, c: usize) -> &[NodeId] {
        &self.members[c]
    }

    /// Iterates over all components as member slices.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.members.iter().map(Vec::as_slice)
    }
}

/// Computes the connected components of a topology.
///
/// # Examples
///
/// ```
/// use treelocal_graph::{Graph, components, NodeId};
/// let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
/// let cc = components(&g);
/// assert_eq!(cc.count(), 2);
/// assert_eq!(cc.members(0), &[NodeId::new(0), NodeId::new(1)]);
/// assert_eq!(cc.members(1), &[NodeId::new(2), NodeId::new(3)]);
/// ```
pub fn components<T: Topology>(topo: &T) -> Components {
    let mut component_of = vec![usize::MAX; topo.index_space()];
    let mut members = Vec::new();
    let mut queue = VecDeque::new();
    for start in topo.nodes() {
        if component_of[start.index()] != usize::MAX {
            continue;
        }
        let c = members.len();
        let mut comp = vec![start];
        component_of[start.index()] = c;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &w in topo.neighbor_nodes(v) {
                if component_of[w.index()] == usize::MAX {
                    component_of[w.index()] = c;
                    comp.push(w);
                    queue.push_back(w);
                }
            }
        }
        comp.sort_unstable();
        members.push(comp);
    }
    Components { members }
}

/// The eccentricity of `v`, computed with memory proportional to `v`'s
/// component rather than the whole index space — use when processing many
/// small components of a large parent graph.
pub fn eccentricity_sparse<T: Topology>(topo: &T, v: NodeId) -> u32 {
    sparse_bfs_farthest(topo, v).1
}

/// Reusable scratch for [`sparse_bfs_farthest`]: an index-keyed distance
/// table (sentinel `u32::MAX` = unvisited) plus the BFS visit order, which
/// doubles as the queue (BFS never pops out of push order). After a call,
/// only the visited entries are reset, so the per-call cost stays
/// `O(component)` — the table itself is allocated once per thread and
/// grown to the largest index space seen.
#[derive(Default)]
struct SparseBfsScratch {
    dist: Vec<u32>,
    order: Vec<NodeId>,
}

thread_local! {
    /// Per-thread scratch: `gather_rounds_at`-style callers run this once
    /// per component, and the simulator's worker pool may run several
    /// gathers concurrently.
    static SPARSE_BFS: std::cell::RefCell<SparseBfsScratch> =
        std::cell::RefCell::new(SparseBfsScratch::default());
}

/// Sparse BFS from `v`: returns a farthest node in the component and its
/// distance.
///
/// The farthest-node tie-break is the **first node the BFS reaches at the
/// maximum distance**, where neighbors are visited in adjacency-list
/// order — deterministic, and identical to the previous hash-map-keyed
/// implementation (the map only ever gated visitation; the queue order
/// decided ties). The per-component eccentricity pass
/// ([`component_eccentricities`](crate::component_eccentricities))
/// reproduces the distance per node.
pub fn sparse_bfs_farthest<T: Topology>(topo: &T, v: NodeId) -> (NodeId, u32) {
    SPARSE_BFS.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        if scratch.dist.len() < topo.index_space() {
            scratch.dist.resize(topo.index_space(), u32::MAX);
        }
        // Recover from a previous call that unwound mid-BFS (a panicking
        // `neighbors` impl under `catch_unwind`, say): `order` records
        // exactly the `dist` entries that were written, so resetting here
        // — not only on the success path — keeps a dirty scratch from
        // silently corrupting the next traversal on this thread.
        for &u in &scratch.order {
            scratch.dist[u.index()] = u32::MAX;
        }
        scratch.order.clear();
        scratch.dist[v.index()] = 0;
        scratch.order.push(v);
        let mut far = (v, 0u32);
        let mut head = 0;
        while head < scratch.order.len() {
            let u = scratch.order[head];
            head += 1;
            let d = scratch.dist[u.index()];
            if d > far.1 {
                far = (u, d);
            }
            for &w in topo.neighbor_nodes(u) {
                if scratch.dist[w.index()] == u32::MAX {
                    scratch.dist[w.index()] = d + 1;
                    scratch.order.push(w);
                }
            }
        }
        for &u in &scratch.order {
            scratch.dist[u.index()] = u32::MAX;
        }
        scratch.order.clear();
        far
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Graph;
    use crate::semigraph::SemiGraph;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]).unwrap();
        let cc = components(&g);
        assert_eq!(cc.count(), 3); // {0,1,2}, {3}, {4,5}
        assert_eq!(cc.members(0), &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(cc.members(1), &[NodeId::new(3)]);
    }

    #[test]
    fn components_respect_semigraph_rank2_edges() {
        // Path 0-1-2: restricting to nodes {0, 2} leaves no rank-2 edges, so
        // the two nodes are separate components even though the parent path
        // connects them.
        let g = path(3);
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() != 1);
        let cc = components(&s);
        assert_eq!(cc.count(), 2);
        assert!(cc.iter().all(|members| !members.contains(&NodeId::new(1))));
    }

    #[test]
    fn sparse_farthest_tie_break_is_first_reached_in_bfs_order() {
        // Star: every leaf ties at distance 1. Adjacency lists are sorted
        // by neighbor index, so the BFS reaches the lowest-index leaf
        // first — insertion order of the edges must not matter.
        let g = Graph::from_edges(5, &[(0, 3), (0, 1), (0, 4), (0, 2)]).unwrap();
        assert_eq!(sparse_bfs_farthest(&g, NodeId::new(0)), (NodeId::new(1), 1));
        // Y-tree 2-1-0-3-4: from node 0, nodes 2 and 4 tie at distance 2;
        // BFS visits 1 before 3, so 2 wins.
        let y = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4)]).unwrap();
        assert_eq!(sparse_bfs_farthest(&y, NodeId::new(0)), (NodeId::new(2), 2));
    }

    #[test]
    fn sparse_scratch_recovers_after_a_mid_bfs_panic() {
        use crate::topology::{NodeIter, Topology};
        use crate::EdgeId;

        /// Delegates to a real path but panics when the BFS expands a
        /// chosen node, leaving the thread-local scratch dirty.
        struct PanicAt<'g>(&'g Graph, usize);
        impl Topology for PanicAt<'_> {
            fn graph(&self) -> &Graph {
                self.0
            }
            fn nodes(&self) -> NodeIter<'_> {
                Topology::nodes(self.0)
            }
            fn contains_node(&self, v: NodeId) -> bool {
                v.index() < self.0.node_count()
            }
            fn neighbor_nodes(&self, v: NodeId) -> &[NodeId] {
                assert!(v.index() != self.1, "mid-bfs panic for the scratch test");
                self.0.neighbor_nodes(v)
            }
            fn neighbor_edges(&self, v: NodeId) -> &[EdgeId] {
                self.0.neighbor_edges(v)
            }
            fn max_degree(&self) -> usize {
                self.0.max_degree()
            }
        }

        let g = path(20);
        let poisoned = std::panic::catch_unwind(|| {
            let _ = sparse_bfs_farthest(&PanicAt(&g, 5), NodeId::new(0));
        });
        assert!(poisoned.is_err(), "the instrumented topology must panic");
        // The very next call on this thread must see a clean scratch.
        assert_eq!(sparse_bfs_farthest(&g, NodeId::new(0)), (NodeId::new(19), 19));
        assert_eq!(eccentricity_sparse(&g, NodeId::new(10)), 10);
    }

    #[test]
    fn sparse_scratch_resets_between_calls_and_across_graphs() {
        // Repeated calls on the same thread must not see stale distances,
        // including when the index space shrinks and regrows.
        let big = path(50);
        let small = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        for _ in 0..3 {
            assert_eq!(sparse_bfs_farthest(&big, NodeId::new(0)), (NodeId::new(49), 49));
            assert_eq!(sparse_bfs_farthest(&small, NodeId::new(1)), (NodeId::new(0), 1));
            assert_eq!(sparse_bfs_farthest(&big, NodeId::new(25)), (NodeId::new(0), 25));
        }
    }

    #[test]
    fn bfs_distance_on_path() {
        let g = path(5);
        let ecc: Vec<u32> = g.node_ids().map(|v| eccentricity_sparse(&g, v)).collect();
        assert_eq!(ecc, vec![4, 3, 2, 3, 4]);
    }

    #[test]
    fn eccentricity_and_diameter_on_path() {
        let g = path(6);
        assert_eq!(eccentricity_sparse(&g, NodeId::new(0)), 5);
        assert_eq!(eccentricity_sparse(&g, NodeId::new(2)), 3);
        // Double sweep: the farthest node from anywhere is a diameter end.
        let (end, _) = sparse_bfs_farthest(&g, NodeId::new(3));
        assert_eq!(eccentricity_sparse(&g, end), 5);
    }

    #[test]
    fn diameter_on_star_is_two() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let (leaf, _) = sparse_bfs_farthest(&g, NodeId::new(0));
        assert_eq!(eccentricity_sparse(&g, leaf), 2);
    }

    #[test]
    fn farthest_from_endpoint() {
        let g = path(4);
        assert_eq!(sparse_bfs_farthest(&g, NodeId::new(0)), (NodeId::new(3), 3));
    }

    #[test]
    fn sparse_eccentricity_matches_dense() {
        // The per-component pass fills a dense index-space table; it must
        // agree with one sparse BFS per node.
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]).unwrap();
        let mut ecc = vec![crate::ECC_UNCOMPUTED; g.node_count()];
        for v in g.node_ids() {
            if ecc[v.index()] == crate::ECC_UNCOMPUTED {
                crate::component_eccentricities(&g, v, &mut ecc);
            }
            assert_eq!(ecc[v.index()], eccentricity_sparse(&g, v), "{v:?}");
        }
    }

    #[test]
    fn unreachable_nodes_have_no_distance() {
        // The BFS stays inside the source's component.
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]).unwrap();
        assert_eq!(sparse_bfs_farthest(&g, NodeId::new(0)), (NodeId::new(3), 3));
        assert_eq!(sparse_bfs_farthest(&g, NodeId::new(5)), (NodeId::new(4), 1));
        assert_eq!(sparse_bfs_farthest(&g, NodeId::new(7)), (NodeId::new(7), 0));
    }
}
