//! Arboricity bounds and forest partitions.
//!
//! The arboricity `a(G)` is the minimum number of forests needed to cover
//! all edges (Nash-Williams). Theorem 15 of the paper takes an *upper bound*
//! `a` on the arboricity as input; this module provides the tooling to
//! obtain and check such bounds:
//!
//! * [`degeneracy`] computes the degeneracy `d` via min-degree peeling;
//!   `a(G) ≤ d ≤ 2·a(G) - 1` always holds.
//! * [`forest_partition`] constructively partitions the edges into at most
//!   `d` forests, witnessing `a(G) ≤ d`.

use crate::adjacency::Graph;
use crate::forest::is_forest;
use crate::ids::{EdgeId, NodeId};
use crate::invariant::OrInvariant;

/// Result of min-degree peeling: the degeneracy and the elimination order.
#[derive(Clone, Debug)]
pub struct Peeling {
    /// The degeneracy: the maximum, over the peeling, of the degree of the
    /// node removed (within the remaining graph).
    pub degeneracy: usize,
    /// Nodes in removal order.
    pub order: Vec<NodeId>,
}

/// Computes the degeneracy of `g` by repeatedly removing a minimum-degree
/// node (bucket queue, `O(n + m)`).
///
/// # Examples
///
/// ```
/// use treelocal_graph::{Graph, degeneracy};
/// // A tree has degeneracy 1.
/// let t = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]).unwrap();
/// assert_eq!(degeneracy(&t).degeneracy, 1);
/// // A 4-cycle has degeneracy 2.
/// let c = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(degeneracy(&c).degeneracy, 2);
/// ```
pub fn degeneracy(g: &Graph) -> Peeling {
    let n = g.node_count();
    let mut deg: Vec<usize> = (0..n).map(|i| g.degree(NodeId::new(i))).collect();
    let max_deg = g.max_degree();
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); max_deg + 1];
    for (i, &d) in deg.iter().enumerate() {
        buckets[d].push(NodeId::new(i));
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0;
    let mut cursor = 0usize;
    for _ in 0..n {
        // Find the lowest non-empty bucket whose top entry is still current.
        while cursor > 0 {
            cursor -= 1; // degrees can drop, so rewind one step each round
        }
        let v = loop {
            while cursor <= max_deg && buckets[cursor].is_empty() {
                cursor += 1;
            }
            let v = buckets[cursor].pop().or_invariant("non-empty bucket");
            if !removed[v.index()] && deg[v.index()] == cursor {
                break v;
            }
        };
        removed[v.index()] = true;
        degeneracy = degeneracy.max(deg[v.index()]);
        order.push(v);
        for &w in g.neighbor_nodes(v) {
            if !removed[w.index()] {
                deg[w.index()] -= 1;
                buckets[deg[w.index()]].push(w);
            }
        }
    }
    Peeling { degeneracy, order }
}

/// A partition of a graph's edges into forests, witnessing an arboricity
/// upper bound.
#[derive(Clone, Debug)]
pub struct ForestPartition {
    /// `forest_of[e]` is the forest index of edge `e`.
    pub forest_of: Vec<usize>,
    /// Number of forests used.
    pub count: usize,
}

impl ForestPartition {
    /// The edges of forest `i`.
    pub fn forest_edges(&self, i: usize) -> Vec<EdgeId> {
        self.forest_of
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f == i)
            .map(|(e, _)| EdgeId::new(e))
            .collect()
    }
}

/// Partitions the edges of `g` into at most `degeneracy(g)` forests.
///
/// Nodes are inserted in reverse peeling order; each inserted node assigns
/// its (at most `d`) edges toward already-inserted nodes to pairwise
/// distinct forests, so it is a leaf in every forest and acyclicity is
/// preserved.
pub fn forest_partition(g: &Graph) -> ForestPartition {
    let peel = degeneracy(g);
    let d = peel.degeneracy.max(1);
    let mut rank = vec![0usize; g.node_count()];
    for (i, &v) in peel.order.iter().enumerate() {
        rank[v.index()] = i;
    }
    let mut forest_of = vec![usize::MAX; g.edge_count()];
    // Process nodes in reverse peeling order; when processing v, edges to
    // nodes later in the peeling order (already inserted) get distinct
    // forest indices.
    for &v in peel.order.iter().rev() {
        let mut next = 0usize;
        for (w, e) in g.neighbors(v) {
            if rank[w.index()] > rank[v.index()] {
                forest_of[e.index()] = next;
                next += 1;
            }
        }
        debug_assert!(next <= d);
    }
    debug_assert!(forest_of.iter().all(|&f| f != usize::MAX || g.edge_count() == 0));
    ForestPartition { forest_of, count: d }
}

/// Checks that a claimed forest partition is valid: every edge is assigned
/// and every class induces a forest.
pub fn is_forest_partition(g: &Graph, p: &ForestPartition) -> bool {
    if p.forest_of.len() != g.edge_count() {
        return false;
    }
    if p.forest_of.iter().any(|&f| f >= p.count) {
        return false;
    }
    for i in 0..p.count {
        let edges: Vec<(usize, usize)> = p
            .forest_edges(i)
            .into_iter()
            .map(|e| {
                let [u, v] = g.endpoints(e);
                (u.index(), v.index())
            })
            .collect();
        let sub =
            Graph::from_edges(g.node_count(), &edges).or_invariant("subgraph of simple graph");
        if !is_forest(&sub) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_has_degeneracy_one_and_one_forest() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]).unwrap();
        let p = degeneracy(&g);
        assert_eq!(p.degeneracy, 1);
        let fp = forest_partition(&g);
        assert_eq!(fp.count, 1);
        assert!(is_forest_partition(&g, &fp));
    }

    #[test]
    fn complete_graph_k4() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let p = degeneracy(&g);
        assert_eq!(p.degeneracy, 3);
        // Arboricity of K4 is 2; the degeneracy bound is 3.
        let fp = forest_partition(&g);
        assert!(fp.count <= 3);
        assert!(is_forest_partition(&g, &fp));
    }

    #[test]
    fn cycle_degeneracy_two() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        assert_eq!(degeneracy(&g).degeneracy, 2);
        let fp = forest_partition(&g);
        assert!(is_forest_partition(&g, &fp));
        assert!(fp.count <= 2);
    }

    #[test]
    fn grid_has_small_degeneracy() {
        // 3x3 grid: degeneracy 2, arboricity 2.
        let mut edges = Vec::new();
        let id = |r: usize, c: usize| r * 3 + c;
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < 3 {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        let g = Graph::from_edges(9, &edges).unwrap();
        assert_eq!(degeneracy(&g).degeneracy, 2);
        let fp = forest_partition(&g);
        assert!(is_forest_partition(&g, &fp));
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(degeneracy(&g).degeneracy, 0);
        let g1 = Graph::from_edges(1, &[]).unwrap();
        assert_eq!(degeneracy(&g1).degeneracy, 0);
        let fp = forest_partition(&g1);
        assert!(is_forest_partition(&g1, &fp));
    }

    #[test]
    fn peeling_order_covers_all_nodes() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let p = degeneracy(&g);
        let mut order = p.order.iter().map(|v| v.index()).collect::<Vec<_>>();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
