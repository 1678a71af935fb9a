//! All-node eccentricities in one linear pass per tree component.
//!
//! The "gather, solve centrally, redistribute" steps of Algorithms 2 and 4
//! are costed by the eccentricity of the gather center within its
//! component. Computing that with one BFS per queried center is
//! `O(component)` *per center*; on trees the classic downward/upward
//! rerooting DP produces the eccentricity of **every** node of a
//! component in `O(component)` total. [`component_eccentricities`] runs
//! that pass for one component (falling back to one
//! [`eccentricity_sparse`] per member on components with cycles, where the
//! tree DP does not apply). The one cache of its results is
//! `treelocal_sim::GatherPlan`, which fills a component on its first
//! query.
//!
//! # Determinism contract
//!
//! For every participating node `v`, the eccentricity equals
//! `eccentricity_sparse(topo, v)` **exactly**. The equivalence is pinned
//! per node by property tests (`crates/sim/tests/gather_equiv.rs`).

use crate::ids::NodeId;
use crate::topology::Topology;
use crate::traversal::eccentricity_sparse;
use std::cell::RefCell;

/// Sentinel marking a node whose eccentricity has not been computed (also
/// the required initial value of the `ecc` buffer handed to
/// [`component_eccentricities`]).
pub const ECC_UNCOMPUTED: u32 = u32::MAX;

/// Reusable per-thread scratch for the rerooting DP. All node-indexed
/// tables are epoch-stamped (`seen`), so nothing needs resetting between
/// components or after a mid-pass unwind: entries from a previous call are
/// simply never read.
#[derive(Default)]
struct EccScratch {
    /// BFS visit order of the current component.
    order: Vec<NodeId>,
    /// Epoch stamp per node index; `seen[i] == epoch` means the entry
    /// belongs to the current component.
    seen: Vec<u64>,
    epoch: u64,
    /// BFS parent within the component (self for the start node).
    parent: Vec<NodeId>,
    /// Height of the subtree below each node (edge count to the deepest
    /// descendant).
    down_h: Vec<u32>,
    /// Distance from each non-root node to the farthest node *outside* its
    /// subtree (via its parent).
    up_h: Vec<u32>,
    /// Transient per-node adjacency tables for the exclude-one-direction
    /// prefix/suffix maxima.
    entries: Vec<u32>,
    prefix: Vec<u32>,
    suffix: Vec<u32>,
}

thread_local! {
    static ECC_SCRATCH: RefCell<EccScratch> = RefCell::new(EccScratch::default());
}

/// Computes the eccentricity of every node of the component containing
/// `start`, writing into the index-keyed `ecc` buffer (entries of other
/// components are left untouched).
///
/// `ecc` entries of the component must hold [`ECC_UNCOMPUTED`] on entry,
/// and the buffer must span the topology's index space. Tree components
/// run the linear rerooting DP, others one [`eccentricity_sparse`] per
/// member; either way the written values equal `eccentricity_sparse` per
/// node.
///
/// # Panics
///
/// Panics if the buffer is shorter than the topology's index space.
pub fn component_eccentricities<T: Topology>(topo: &T, start: NodeId, ecc: &mut [u32]) {
    assert!(
        ecc.len() >= topo.index_space(),
        "the eccentricity buffer must span the topology's index space"
    );
    ECC_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let n = topo.index_space();
        if scratch.seen.len() < n {
            scratch.seen.resize(n, 0);
            scratch.parent.resize(n, NodeId::new(0));
            scratch.down_h.resize(n, 0);
            scratch.up_h.resize(n, 0);
        }
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        // Collect the component by BFS, recording parents and counting
        // half-edges to detect cycles (a tree on m nodes has 2(m-1)).
        scratch.order.clear();
        scratch.order.push(start);
        scratch.seen[start.index()] = epoch;
        scratch.parent[start.index()] = start;
        let mut half_edges = 0usize;
        let mut head = 0;
        while head < scratch.order.len() {
            let v = scratch.order[head];
            head += 1;
            for &w in topo.neighbor_nodes(v) {
                half_edges += 1;
                if scratch.seen[w.index()] != epoch {
                    scratch.seen[w.index()] = epoch;
                    scratch.parent[w.index()] = v;
                    scratch.order.push(w);
                }
            }
        }
        if half_edges != 2 * (scratch.order.len() - 1) {
            // Cycles: the height decomposition below needs unique paths,
            // so fall back to one sparse BFS per member.
            for &v in &scratch.order {
                ecc[v.index()] = eccentricity_sparse(topo, v);
            }
            return;
        }

        // Downward pass (children precede parents in reverse BFS order):
        // subtree height.
        for idx in (0..scratch.order.len()).rev() {
            let v = scratch.order[idx];
            let mut h = 0u32;
            for &c in topo.neighbor_nodes(v) {
                if scratch.parent[c.index()] == v && c != v && scratch.parent[v.index()] != c {
                    h = h.max(1 + scratch.down_h[c.index()]);
                }
            }
            scratch.down_h[v.index()] = h;
        }

        // Upward pass (parents precede children in BFS order): for each
        // child `c` of `p`, the farthest distance from `c` through `p` is
        // one step beyond the best direction out of `p` other than `c`
        // itself (or just the step to `p`). Prefix/suffix maxima over
        // `p`'s adjacency list give every child its exclude-one answer in
        // O(deg(p)) total.
        for idx in 0..scratch.order.len() {
            let p = scratch.order[idx];
            let nbrs = topo.neighbor_nodes(p);
            scratch.entries.clear();
            for &y in nbrs {
                scratch.entries.push(if idx != 0 && scratch.parent[p.index()] == y {
                    scratch.up_h[p.index()]
                } else {
                    1 + scratch.down_h[y.index()]
                });
            }
            let deg = scratch.entries.len();
            scratch.prefix.clear();
            scratch.suffix.clear();
            scratch.prefix.resize(deg + 1, 0);
            scratch.suffix.resize(deg + 1, 0);
            for i in 0..deg {
                scratch.prefix[i + 1] = scratch.prefix[i].max(scratch.entries[i]);
            }
            for i in (0..deg).rev() {
                scratch.suffix[i] = scratch.suffix[i + 1].max(scratch.entries[i]);
            }
            for (i, &y) in nbrs.iter().enumerate() {
                if idx != 0 && scratch.parent[p.index()] == y {
                    continue; // the edge toward p's own parent
                }
                // y is a child of p: combine all directions except y.
                scratch.up_h[y.index()] = 1 + scratch.prefix[i].max(scratch.suffix[i + 1]);
            }
        }

        // Combine per node: the farthest of its directions.
        for idx in 0..scratch.order.len() {
            let v = scratch.order[idx];
            let mut best = 0u32;
            for &y in topo.neighbor_nodes(v) {
                best = best.max(if idx != 0 && scratch.parent[v.index()] == y {
                    scratch.up_h[v.index()]
                } else {
                    1 + scratch.down_h[y.index()]
                });
            }
            ecc[v.index()] = best;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Graph;
    use crate::semigraph::SemiGraph;

    /// The pass run once per component, as a gather plan fills its cache.
    fn every_component<T: Topology>(topo: &T) -> Vec<u32> {
        let mut ecc = vec![ECC_UNCOMPUTED; topo.index_space()];
        for v in topo.nodes() {
            if ecc[v.index()] == ECC_UNCOMPUTED {
                component_eccentricities(topo, v, &mut ecc);
            }
        }
        ecc
    }

    fn assert_matches_sparse<T: Topology>(topo: &T) {
        let ecc = every_component(topo);
        for v in topo.nodes() {
            assert_eq!(ecc[v.index()], eccentricity_sparse(topo, v), "node {v:?}");
        }
    }

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn matches_sparse_on_structured_trees() {
        assert_matches_sparse(&path(1));
        assert_matches_sparse(&path(2));
        assert_matches_sparse(&path(17));
        // Star with shuffled edge insertion: ties at distance 1.
        let star = Graph::from_edges(6, &[(0, 4), (0, 2), (0, 5), (0, 1), (0, 3)]).unwrap();
        assert_matches_sparse(&star);
        // Y-tree with equal-depth branches: ties at depth 2.
        let y = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4)]).unwrap();
        assert_matches_sparse(&y);
        // Caterpillar-ish tree with many equal-height subtrees.
        let cat =
            Graph::from_edges(9, &[(0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7), (1, 8)])
                .unwrap();
        assert_matches_sparse(&cat);
    }

    #[test]
    fn matches_sparse_on_forests_and_isolated_nodes() {
        let g = Graph::from_edges(8, &[(0, 1), (1, 2), (4, 5), (5, 6), (5, 7)]).unwrap();
        assert_matches_sparse(&g);
        let ecc = every_component(&g);
        assert_eq!(ecc[3], 0);
        assert_eq!(ecc.iter().max(), Some(&2));
    }

    #[test]
    fn falls_back_to_bfs_on_cycles() {
        // A 5-cycle with a tail plus a separate tree component.
        let g =
            Graph::from_edges(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (6, 7), (7, 8)])
                .unwrap();
        assert_matches_sparse(&g);
        assert_eq!(every_component(&g)[5], 3);
    }

    #[test]
    fn respects_semigraph_restrictions() {
        // Restricting a path splits it into components with rank-1
        // boundary edges; eccentricities are within-component.
        let g = path(10);
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() != 4);
        assert_matches_sparse(&s);
        let ecc = every_component(&s);
        assert_eq!(ecc[0], 3);
        assert_eq!(ecc[9], 4);
        assert_eq!(ecc[4], ECC_UNCOMPUTED, "a non-participant is never written");
    }

    #[test]
    fn scratch_survives_interleaved_components_and_graphs() {
        let big = path(40);
        let small = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        for _ in 0..3 {
            assert_matches_sparse(&big);
            assert_matches_sparse(&small);
        }
    }

    #[test]
    fn component_pass_leaves_other_components_untouched() {
        let g = Graph::from_edges(5, &[(0, 1), (3, 4)]).unwrap();
        let mut ecc = vec![ECC_UNCOMPUTED; g.node_count()];
        component_eccentricities(&g, NodeId::new(0), &mut ecc);
        assert_eq!(&ecc[..2], &[1, 1]);
        assert_eq!(&ecc[2..], &[ECC_UNCOMPUTED; 3]);
    }
}
