//! Tree and forest predicates and rooting utilities.

use crate::adjacency::Graph;
use crate::ids::NodeId;
use crate::invariant::OrInvariant;
use crate::topology::Topology;
use crate::traversal::components;

/// Whether the graph is a forest (acyclic).
///
/// # Examples
///
/// ```
/// use treelocal_graph::{Graph, is_forest};
/// let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
/// assert!(is_forest(&g));
/// let c = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// assert!(!is_forest(&c));
/// ```
pub fn is_forest(g: &Graph) -> bool {
    let cc = components(g);
    // A graph is a forest iff |E| = |V| - #components.
    g.edge_count() + cc.count() == g.node_count()
}

/// Whether the graph is a tree (connected and acyclic).
pub fn is_tree(g: &Graph) -> bool {
    g.node_count() > 0 && g.edge_count() + 1 == g.node_count() && components(g).count() == 1
}

/// A rooted forest: parent pointers over some subset of nodes.
///
/// Produced by [`root_forest`] and consumed by the Cole–Vishkin 3-coloring
/// of rooted forests and by the star-forest machinery of Section 4.
#[derive(Clone, Debug)]
pub struct RootedForest {
    /// `parent[v]` is `Some(p)` if `v` has parent `p`; roots and absent
    /// nodes have `None`.
    parent: Vec<Option<NodeId>>,
    /// Whether `v` participates in the forest at all.
    member: Vec<bool>,
    roots: Vec<NodeId>,
}

impl RootedForest {
    /// Builds a rooted forest from explicit parent pointers.
    ///
    /// `member[v]` must be true for every node with a parent and for every
    /// root. No cycle checking is performed here.
    pub fn from_parents(parent: Vec<Option<NodeId>>, member: Vec<bool>) -> Self {
        assert_eq!(parent.len(), member.len());
        let roots = member
            .iter()
            .enumerate()
            .filter(|&(i, &m)| m && parent[i].is_none())
            .map(|(i, _)| NodeId::new(i))
            .collect();
        RootedForest { parent, member, roots }
    }

    /// The parent of `v`, if any.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Whether `v` is part of the forest.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.member[v.index()]
    }

    /// The roots of the forest.
    #[inline]
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The members of the forest.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.member.iter().enumerate().filter(|&(_, &m)| m).map(|(i, _)| NodeId::new(i))
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.member.iter().filter(|&&m| m).count()
    }

    /// Whether the forest has no members.
    pub fn is_empty(&self) -> bool {
        !self.member.iter().any(|&m| m)
    }

    /// The depth of `v` (distance to its root).
    pub fn depth(&self, v: NodeId) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            cur = p;
            d += 1;
        }
        d
    }
}

/// Roots every component of a forest-shaped topology at its
/// minimum-identifier node, producing parent pointers via BFS.
///
/// # Panics
///
/// Panics if the topology contains a cycle (detected as a non-tree BFS).
pub fn root_forest<T: Topology>(topo: &T) -> RootedForest {
    let n = topo.index_space();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut member = vec![false; n];
    let mut seen = vec![false; n];
    let cc = components(topo);
    for c in 0..cc.count() {
        let comp = cc.members(c);
        let root = *comp
            .iter()
            .min_by_key(|&&v| topo.local_id(v))
            .or_invariant("components are non-empty");
        let mut stack = vec![root];
        seen[root.index()] = true;
        member[root.index()] = true;
        let mut visited_edges = 0usize;
        while let Some(v) = stack.pop() {
            for &w in topo.neighbor_nodes(v) {
                if Some(w) == parent[v.index()] {
                    continue;
                }
                visited_edges += 1;
                assert!(!seen[w.index()], "topology contains a cycle; cannot root as forest");
                seen[w.index()] = true;
                member[w.index()] = true;
                parent[w.index()] = Some(v);
                stack.push(w);
            }
        }
        // Each tree component on m nodes has m - 1 edges, every one traversed
        // exactly once in the child direction.
        debug_assert_eq!(visited_edges, comp.len() - 1);
    }
    RootedForest::from_parents(parent, member)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semigraph::SemiGraph;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn path_is_tree_and_forest() {
        let g = path(5);
        assert!(is_tree(&g));
        assert!(is_forest(&g));
    }

    #[test]
    fn cycle_is_not_forest() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert!(!is_forest(&g));
        assert!(!is_tree(&g));
    }

    #[test]
    fn disconnected_forest_is_not_tree() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(is_forest(&g));
        assert!(!is_tree(&g));
    }

    #[test]
    fn empty_graph_is_forest_not_tree() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(is_forest(&g));
        assert!(!is_tree(&g));
    }

    #[test]
    fn rooting_a_path() {
        let g = path(4);
        let f = root_forest(&g);
        // Root is the minimum-id node, which is node 0 (ids are index + 1).
        assert_eq!(f.roots(), &[NodeId::new(0)]);
        assert_eq!(f.parent(NodeId::new(1)), Some(NodeId::new(0)));
        assert_eq!(f.parent(NodeId::new(3)), Some(NodeId::new(2)));
        assert_eq!(f.depth(NodeId::new(3)), 3);
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn rooting_respects_components() {
        let g = Graph::from_edges(5, &[(0, 1), (3, 4)]).unwrap();
        let f = root_forest(&g);
        assert_eq!(f.roots().len(), 3); // {0,1}, {2}, {3,4}
        assert!(f.contains(NodeId::new(2)));
        assert_eq!(f.parent(NodeId::new(2)), None);
    }

    #[test]
    fn rooting_semigraph_restriction() {
        // Restrict a path to even nodes: three singleton components.
        let g = path(5);
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() % 2 == 0);
        let f = root_forest(&s);
        assert_eq!(f.roots().len(), 3);
        assert!(!f.contains(NodeId::new(1)));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rooting_a_cycle_panics() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let _ = root_forest(&g);
    }
}
