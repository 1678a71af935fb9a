//! Honest round accounting for "gather, solve centrally, redistribute".
//!
//! Both Algorithm 2 and Algorithm 4 of the paper contain steps of the form
//! *"let the highest node in the connected component collect the entire
//! component, compute a solution, and inform all other nodes"*. In the
//! LOCAL model this costs `ecc` rounds to collect plus `ecc` rounds to
//! redistribute, where `ecc` is the eccentricity of the collector within
//! its component. This module computes that cost exactly.
//!
//! [`gather_rounds_at`] is the uncached single-query primitive (one sparse
//! BFS per call). Everything that reads many eccentricities of one
//! topology — Theorem 12's residual loop, the experiment suites, the
//! Lemma 11 diameter of the raked components — goes through a
//! [`GatherPlan`], the workspace's one eccentricity cache. It fills each
//! component with one linear pass (the rerooting DP of
//! [`treelocal_graph::component_eccentricities`]) the first time any of
//! its members is queried, after which every further query in that
//! component is O(1). The costs are **byte-identical** to the uncached
//! BFS per center — the DP pins the same farthest-node tie-break — which
//! the `gather_equiv` property suite and the golden round-count fixture
//! both enforce.

use std::cell::RefCell;
use treelocal_graph::{component_eccentricities, eccentricity_sparse, NodeId, Topology};

/// Rounds for one component gathered at `center`: `2 · ecc(center)`.
///
/// Uncached: one sparse BFS per call. Use a [`GatherPlan`] when costing
/// many centers over the same topology.
pub fn gather_rounds_at<T: Topology>(topo: &T, center: NodeId) -> u64 {
    2 * u64::from(eccentricity_sparse(topo, center))
}

/// A component-keyed eccentricity cache over one topology.
///
/// The first query touching a component computes the eccentricity of
/// **every** node of that component in one linear pass; later queries in
/// the same component are table lookups. Untouched components cost
/// nothing, so building a plan is free and a plan used for a single
/// center degenerates to (a constant factor of) the plain BFS.
///
/// # Determinism contract
///
/// For every node, the cached eccentricity (and farthest node) equals
/// what [`gather_rounds_at`]'s sparse BFS would report — tie-break
/// included — so swapping a plan into a costing loop never changes a
/// reported round count. Property tests
/// (`crates/sim/tests/gather_equiv.rs`) pin this per node; the bench
/// crate's golden fixture pins it end-to-end through the E-tables.
///
/// # Examples
///
/// ```
/// use treelocal_graph::{Graph, NodeId};
/// use treelocal_sim::{gather_rounds_at, GatherPlan};
/// let path = Graph::from_edges(5, &(0..4).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
/// let plan = GatherPlan::new(&path);
/// assert_eq!(plan.rounds_at(NodeId::new(0)), 8);
/// assert_eq!(plan.rounds_at(NodeId::new(2)), gather_rounds_at(&path, NodeId::new(2)));
/// ```
pub struct GatherPlan<'t, T: Topology> {
    topo: &'t T,
    /// Index-keyed cache; `ECC_UNCOMPUTED` marks untouched components.
    /// Interior mutability keeps the costing API `&self` like the free
    /// functions it replaces (plans are per-thread values, not shared).
    /// Both tables stay **empty** until the first query: "building a plan
    /// is free" is literal — a never-queried plan over a 100M-node index
    /// space allocates nothing.
    ecc: RefCell<Vec<u32>>,
    far: RefCell<Vec<NodeId>>,
}

impl<'t, T: Topology> GatherPlan<'t, T> {
    /// Creates an empty plan over `topo` (no eccentricities are computed —
    /// and no index-space tables are allocated — until a component is
    /// first queried).
    pub fn new(topo: &'t T) -> Self {
        GatherPlan { topo, ecc: RefCell::new(Vec::new()), far: RefCell::new(Vec::new()) }
    }

    /// The eccentricity of `v` within its component, filling the
    /// component's cache entries on first touch.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if `v` does not participate in the
    /// plan's topology; so do [`farthest`](GatherPlan::farthest) and
    /// [`rounds_at`](GatherPlan::rounds_at).
    pub fn eccentricity(&self, v: NodeId) -> u32 {
        assert!(self.topo.contains_node(v), "node {v:?} does not participate in the topology");
        let mut ecc = self.ecc.borrow_mut();
        if ecc.is_empty() {
            // First query: materialize the index-keyed tables. `far` gets
            // placeholder entries — `component_eccentricities` writes every
            // member's farthest node before `farthest` can read it.
            ecc.resize(self.topo.index_space(), treelocal_graph::ECC_UNCOMPUTED);
            self.far.borrow_mut().resize(self.topo.index_space(), NodeId::new(0));
        }
        if ecc[v.index()] == treelocal_graph::ECC_UNCOMPUTED {
            component_eccentricities(self.topo, v, &mut ecc, &mut self.far.borrow_mut());
        }
        ecc[v.index()]
    }

    /// The farthest node from `v` and its distance — identical to
    /// [`treelocal_graph::sparse_bfs_farthest`], tie-break included.
    pub fn farthest(&self, v: NodeId) -> (NodeId, u32) {
        let e = self.eccentricity(v);
        (self.far.borrow()[v.index()], e)
    }

    /// Rounds for one component gathered at `center`: `2 · ecc(center)`.
    pub fn rounds_at(&self, center: NodeId) -> u64 {
        2 * u64::from(self.eccentricity(center))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::{Graph, SemiGraph};

    #[test]
    fn gather_on_path_component() {
        let g = Graph::from_edges(5, &(0..4).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
        // Gathering at an endpoint costs 2*4, at the middle 2*2.
        assert_eq!(gather_rounds_at(&g, NodeId::new(0)), 8);
        assert_eq!(gather_rounds_at(&g, NodeId::new(2)), 4);
    }

    #[test]
    fn plan_matches_uncached_costs_per_center() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (5, 6)]).unwrap();
        let plan = GatherPlan::new(&g);
        for v in g.node_ids() {
            assert_eq!(plan.rounds_at(v), gather_rounds_at(&g, v), "{v:?}");
        }
    }

    #[test]
    fn plan_allocates_nothing_until_queried() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let plan = GatherPlan::new(&g);
        assert!(plan.ecc.borrow().is_empty(), "tables must stay empty before the first query");
        assert!(plan.far.borrow().is_empty());
        assert_eq!(plan.rounds_at(NodeId::new(0)), 2);
        assert_eq!(plan.ecc.borrow().len(), g.node_count());
    }

    #[test]
    fn plan_fills_components_lazily_and_consistently() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        let plan = GatherPlan::new(&g);
        // Query both endpoints of one component, then the other component.
        assert_eq!(plan.rounds_at(NodeId::new(0)), 4);
        assert_eq!(plan.rounds_at(NodeId::new(2)), 4);
        assert_eq!(plan.rounds_at(NodeId::new(1)), 2);
        assert_eq!(plan.rounds_at(NodeId::new(4)), 2);
        assert_eq!(plan.farthest(NodeId::new(3)), (NodeId::new(5), 2));
    }

    #[test]
    fn gather_on_semigraph_component_uses_rank2_distance() {
        // Path 0-1-2-3 restricted to {0,1}: component {0,1}, ecc 1.
        let g = Graph::from_edges(4, &(0..3).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() <= 1);
        assert_eq!(gather_rounds_at(&s, NodeId::new(0)), 2);
        let plan = GatherPlan::new(&s);
        assert_eq!(plan.rounds_at(NodeId::new(0)), 2);
    }

    #[test]
    #[should_panic(expected = "does not participate")]
    fn absent_node_panics() {
        // Node 3 lies outside the restriction: no pass ever writes its entry.
        let g = Graph::from_edges(4, &(0..3).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() < 2);
        let plan = GatherPlan::new(&s);
        assert_eq!(plan.eccentricity(NodeId::new(0)), 1);
        let _ = plan.eccentricity(NodeId::new(3));
    }
}
