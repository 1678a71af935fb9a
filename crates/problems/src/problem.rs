//! The node-edge-checkability formalism (Definition 6) as executable
//! predicates, plus validity checking of labelings on semi-graphs.
//!
//! A node-edge-checkable problem `Π = (Σ, N_Π, E_Π)` consists of a label set
//! `Σ`, per-degree collections `N^i_Π` of allowed node label multisets, and
//! per-rank collections `E^i_Π` (`i ∈ {0,1,2}`) of allowed edge label
//! multisets. Rather than materializing these (potentially infinite)
//! collections, a [`Problem`] implementation answers membership queries.
//!
//! The *list variants* `Π*` and `Π×` (Definitions 7 and 8) are represented
//! implicitly: a constraint `N^i_{Π,ψ}` is checked as `χ ∪ ψ ∈ N^{i+j}_Π`,
//! i.e. by carrying the already-fixed partial multiset `ψ` and testing the
//! *combined* configuration. The helpers [`node_list_ok`] and
//! [`edge_list_ok`] implement exactly this.
//!
//! [`verify_graph`] and [`verify_semigraph`] share one pass over the
//! instance they are given, with one reused label buffer. A whole graph is
//! walked as it is: verification makes no semi-graph copy of it and
//! allocates nothing per edge or node, only the payload of a violation.

use crate::labeling::HalfEdgeLabeling;
use std::fmt::Debug;
use std::hash::Hash;
use treelocal_graph::OrInvariant;
use treelocal_graph::{EdgeId, Graph, HalfEdge, NodeId, SemiGraph, Side};

/// A node-edge-checkable problem: membership predicates for the collections
/// `N^i_Π` and `E^i_Π` of Definition 6.
///
/// Implementations must be *order-insensitive*: the slices passed to
/// [`node_ok`](Problem::node_ok) and [`edge_ok`](Problem::edge_ok) represent
/// multisets and may arrive in any order.
pub trait Problem {
    /// The output label alphabet `Σ`.
    type Label: Copy + Eq + Ord + Hash + Debug;

    /// A short, stable problem name for reports.
    fn name(&self) -> &'static str;

    /// Whether `labels` (a multiset; `labels.len()` is the node's degree in
    /// the semi-graph sense) belongs to `N^{labels.len()}_Π`.
    fn node_ok(&self, labels: &[Self::Label]) -> bool;

    /// Whether `labels` (a multiset; `labels.len()` is the edge's rank)
    /// belongs to `E^{labels.len()}_Π`.
    ///
    /// Only ranks 0, 1 and 2 occur.
    fn edge_ok(&self, labels: &[Self::Label]) -> bool;

    /// Node constraint *with node identity* — problems whose constraints
    /// depend on per-node inputs (e.g. the color lists of list coloring,
    /// which Definition 5 models as extra inputs on nodes) override this;
    /// the default delegates to the identity-free [`node_ok`].
    ///
    /// [`node_ok`]: Problem::node_ok
    fn node_ok_at(&self, v: NodeId, labels: &[Self::Label]) -> bool {
        let _ = v;
        self.node_ok(labels)
    }
}

/// Membership in the node-list constraint `N^i_{Π,ψ}` (Definition 7): the
/// new labels `chi` extend the already-fixed multiset `psi` to a valid node
/// configuration.
pub fn node_list_ok<P: Problem>(p: &P, chi: &[P::Label], psi: &[P::Label]) -> bool {
    let mut all = Vec::with_capacity(chi.len() + psi.len());
    all.extend_from_slice(chi);
    all.extend_from_slice(psi);
    p.node_ok(&all)
}

/// Membership in the edge-list constraint `E^i_{Π,ψ}` (Definition 8).
pub fn edge_list_ok<P: Problem>(p: &P, chi: &[P::Label], psi: &[P::Label]) -> bool {
    let mut all = Vec::with_capacity(chi.len() + psi.len());
    all.extend_from_slice(chi);
    all.extend_from_slice(psi);
    p.edge_ok(&all)
}

/// Why a labeling fails to solve a problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation<L> {
    /// A half-edge of the instance carries no label.
    Missing {
        /// The unlabeled edge.
        edge: EdgeId,
    },
    /// A node's label multiset is not in `N^{deg}_Π`.
    NodeConstraint {
        /// The violating node.
        node: NodeId,
        /// Its label multiset.
        labels: Vec<L>,
    },
    /// An edge's label multiset is not in `E^{rank}_Π`.
    EdgeConstraint {
        /// The violating edge.
        edge: EdgeId,
        /// Its label multiset.
        labels: Vec<L>,
    },
}

/// Checks that `labeling` is a complete, valid solution of `p` on the
/// semi-graph `s` (Definition 6's validity).
///
/// # Errors
///
/// Returns the first [`Violation`] encountered: a missing label on any
/// present half-edge first, then the first failed edge, then the first
/// failed node, each in index order.
pub fn verify_semigraph<P: Problem>(
    p: &P,
    s: &SemiGraph<'_>,
    labeling: &HalfEdgeLabeling<P::Label>,
) -> Result<(), Violation<P::Label>> {
    walk(p, s, labeling)
}

/// Checks that `labeling` is a complete, valid solution of `p` on the whole
/// graph `g`. It walks `g` itself: no semi-graph copy of `g` is built.
///
/// # Errors
///
/// Same as [`verify_semigraph`] on `SemiGraph::whole(g)`.
pub fn verify_graph<P: Problem>(
    p: &P,
    g: &Graph,
    labeling: &HalfEdgeLabeling<P::Label>,
) -> Result<(), Violation<P::Label>> {
    walk(p, g, labeling)
}

/// The instance a verification pass walks: its edges with their present
/// halves, and its nodes with their half-edges. The impls are `#[inline]`
/// so that the pass, instantiated in the caller's crate, stays one plain
/// loop with no call per edge or node.
trait HalfEdges {
    /// The contained edges, in increasing index order.
    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_;
    /// Which halves of contained edge `e` are present, by [`Side`].
    fn present(&self, e: EdgeId) -> [bool; 2];
    /// The contained nodes, in increasing index order.
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_;
    /// The present half-edges at `v`, in any order.
    fn halves_at(&self, v: NodeId) -> impl Iterator<Item = HalfEdge> + '_;
}

impl HalfEdges for Graph {
    #[inline]
    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edge_ids()
    }

    #[inline]
    fn present(&self, _e: EdgeId) -> [bool; 2] {
        [true, true]
    }

    #[inline]
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
    }

    #[inline]
    fn halves_at(&self, v: NodeId) -> impl Iterator<Item = HalfEdge> + '_ {
        self.neighbor_edges(v).iter().map(move |&e| HalfEdge::new(e, self.side_of(e, v)))
    }
}

impl HalfEdges for SemiGraph<'_> {
    #[inline]
    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        SemiGraph::edges(self).iter().copied()
    }

    #[inline]
    fn present(&self, e: EdgeId) -> [bool; 2] {
        [self.half_present(e, Side::First), self.half_present(e, Side::Second)]
    }

    #[inline]
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        SemiGraph::nodes(self).iter().copied()
    }

    #[inline]
    fn halves_at(&self, v: NodeId) -> impl Iterator<Item = HalfEdge> + '_ {
        self.half_edges_of(v)
    }
}

/// The one verification pass behind [`verify_graph`] and
/// [`verify_semigraph`], with one label buffer reused for every edge and
/// node.
fn walk<P: Problem, H: HalfEdges>(
    p: &P,
    instance: &H,
    labeling: &HalfEdgeLabeling<P::Label>,
) -> Result<(), Violation<P::Label>> {
    let mut labels = Vec::new();
    // Completeness and edge constraints share one pass over the edges. A
    // missing label anywhere outranks a failed edge, so the first failed
    // edge waits for the end of the pass.
    let mut failed_edge = None;
    for e in instance.edges() {
        labels.clear();
        for (present, label) in instance.present(e).into_iter().zip(labeling.edge_labels(e)) {
            if present {
                labels.push(label.ok_or(Violation::Missing { edge: e })?);
            }
        }
        if failed_edge.is_none() && !p.edge_ok(&labels) {
            failed_edge = Some(Violation::EdgeConstraint { edge: e, labels: labels.clone() });
        }
    }
    if let Some(violation) = failed_edge {
        return Err(violation);
    }
    let label_of = |h: HalfEdge| labeling.get(h).or_invariant("checked complete");
    for v in instance.nodes() {
        labels.clear();
        labels.extend(instance.halves_at(v).map(label_of));
        if !p.node_ok_at(v, &labels) {
            // The check takes a multiset; the reported labels follow the
            // half-edges in ascending edge order, as a semi-graph lists them.
            let mut halves: Vec<HalfEdge> = instance.halves_at(v).collect();
            halves.sort_unstable();
            return Err(Violation::NodeConstraint {
                node: v,
                labels: halves.into_iter().map(label_of).collect(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy problem: every half-edge gets a bit; an edge is happy iff its
    /// halves differ; a node is happy with at most one incident 1-bit.
    struct Toy;
    impl Problem for Toy {
        type Label = u8;
        fn name(&self) -> &'static str {
            "toy"
        }
        fn node_ok(&self, labels: &[u8]) -> bool {
            labels.iter().filter(|&&b| b == 1).count() <= 1
        }
        fn edge_ok(&self, labels: &[u8]) -> bool {
            match labels.len() {
                0 | 1 => true,
                2 => labels[0] != labels[1],
                _ => false,
            }
        }
    }

    #[test]
    fn verify_detects_missing_then_violations() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let mut l = HalfEdgeLabeling::for_graph(&g);
        assert!(matches!(verify_graph(&Toy, &g, &l), Err(Violation::Missing { .. })));
        l.set(HalfEdge::new(EdgeId::new(0), Side::First), 1);
        l.set(HalfEdge::new(EdgeId::new(0), Side::Second), 1);
        assert!(matches!(verify_graph(&Toy, &g, &l), Err(Violation::EdgeConstraint { .. })));
        l.set(HalfEdge::new(EdgeId::new(0), Side::Second), 0);
        assert!(verify_graph(&Toy, &g, &l).is_ok());
    }

    #[test]
    fn verify_node_constraint() {
        // Star: center 0 with two leaves; force both center halves to 1.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let mut l = HalfEdgeLabeling::for_graph(&g);
        for e in g.edge_ids() {
            l.set(HalfEdge::new(e, g.side_of(e, NodeId::new(0))), 1);
            let other = g.other_endpoint(e, NodeId::new(0));
            l.set(HalfEdge::new(e, g.side_of(e, other)), 0);
        }
        let err = verify_graph(&Toy, &g, &l).unwrap_err();
        assert!(matches!(err, Violation::NodeConstraint { node, .. } if node == NodeId::new(0)));
    }

    #[test]
    fn verify_semigraph_only_checks_present_halves() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() == 1);
        let mut l = HalfEdgeLabeling::for_graph(&g);
        // Label only node 1's halves; rank-1 edges are fine for Toy.
        for h in s.half_edges() {
            l.set(h, 0);
        }
        assert!(verify_semigraph(&Toy, &s, &l).is_ok());
        // The full graph check still fails: leaves are unlabeled.
        assert!(verify_graph(&Toy, &g, &l).is_err());
    }

    #[test]
    fn list_membership_combines_partial() {
        // Node with psi = [1]: adding chi = [1] exceeds the 1-bit budget,
        // adding chi = [0] is fine.
        assert!(!node_list_ok(&Toy, &[1], &[1]));
        assert!(node_list_ok(&Toy, &[0], &[1]));
        assert!(edge_list_ok(&Toy, &[0], &[1]));
        assert!(!edge_list_ok(&Toy, &[1], &[1]));
    }
}
