//! Maximal `b`-matching: a maximal edge set in which every node has at
//! most `b` incident chosen edges.
//!
//! With `b = 1` this is exactly maximal matching; for general `b` it is a
//! further member of the paper's class `P2`, included here to demonstrate
//! that the Theorem 15 machinery is generic in the problem (the paper's
//! classes "contain more problems than those captured by the informal
//! outline").
//!
//! # Formalization
//!
//! `Σ = {M, S, O, D}` where, on a half-edge `(v, e)`:
//! * `M` — `e` is chosen,
//! * `S` — `e` is not chosen and `v` is *saturated* (has `b` chosen
//!   edges),
//! * `O` — `e` is not chosen and `v` makes no saturation claim,
//! * `D` — rank-1 marker.
//!
//! Node constraints: at most `b` labels are `M`, and if any label is `S`
//! then exactly `b` are `M` (saturation claims are truthful).
//!
//! Edge constraints: `E^0 = {∅}`, `E^1 = {{D}}`,
//! `E^2 = {{M,M}, {S,S}, {S,O}}` — an unchosen edge needs a saturated
//! endpoint (maximality), and `{O,O}` is forbidden.

use crate::labeling::HalfEdgeLabeling;
use crate::problem::Problem;
use crate::seq::EdgeSequential;
use treelocal_graph::{EdgeId, Graph, HalfEdge, NodeId, Side};

/// Labels of the `b`-matching formalization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BMatchLabel {
    /// This edge is chosen.
    M,
    /// This edge is not chosen; this endpoint is saturated.
    S,
    /// This edge is not chosen; no claim.
    O,
    /// Rank-1 marker.
    D,
}

/// The maximal `b`-matching problem.
///
/// # Examples
///
/// ```
/// use treelocal_problems::{BMatching, Problem, BMatchLabel::*};
/// let p = BMatching { b: 2 };
/// assert!(p.node_ok(&[M, M, S]));   // saturated with witness claims
/// assert!(p.node_ok(&[M, O]));      // under capacity
/// assert!(!p.node_ok(&[M, M, M]));  // over capacity
/// assert!(!p.node_ok(&[M, S]));     // S claim with only 1 chosen
/// assert!(p.edge_ok(&[M, M]));
/// assert!(p.edge_ok(&[S, O]));
/// assert!(!p.edge_ok(&[O, O]));     // not maximal
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BMatching {
    /// Per-node capacity (`b ≥ 1`).
    pub b: usize,
}

impl Problem for BMatching {
    type Label = BMatchLabel;

    fn name(&self) -> &'static str {
        "maximal-b-matching"
    }

    fn node_ok(&self, labels: &[BMatchLabel]) -> bool {
        use BMatchLabel::*;
        let m = labels.iter().filter(|&&l| l == M).count();
        if m > self.b {
            return false;
        }
        let has_s = labels.contains(&S);
        !has_s || m == self.b
    }

    fn edge_ok(&self, labels: &[BMatchLabel]) -> bool {
        use BMatchLabel::*;
        match labels {
            [] => true,
            [single] => *single == D,
            [a, b] => {
                let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
                matches!((lo, hi), (M, M) | (S, S) | (S, O))
            }
            _ => false,
        }
    }
}

fn chosen_count(g: &Graph, labeling: &HalfEdgeLabeling<BMatchLabel>, v: NodeId) -> usize {
    labeling.labels_at_node(g, v).into_iter().filter(|&l| l == BMatchLabel::M).count()
}

impl EdgeSequential for BMatching {
    /// The `P2` sequential process: choose the edge iff both endpoints are
    /// below capacity; otherwise mark saturated sides `S`, others `O`.
    fn decide_edge(
        &self,
        g: &Graph,
        labeling: &HalfEdgeLabeling<BMatchLabel>,
        e: EdgeId,
    ) -> Option<Vec<(HalfEdge, BMatchLabel)>> {
        use BMatchLabel::*;
        let [u, v] = g.endpoints(e);
        let cu = chosen_count(g, labeling, u);
        let cv = chosen_count(g, labeling, v);
        let (lu, lv) = if cu < self.b && cv < self.b {
            (M, M)
        } else {
            let lu = if cu >= self.b { S } else { O };
            let lv = if cv >= self.b { S } else { O };
            (lu, lv)
        };
        Some(vec![(HalfEdge::new(e, Side::First), lu), (HalfEdge::new(e, Side::Second), lv)])
    }
}

impl BMatching {
    /// Extracts the chosen edge set from a valid labeling.
    pub fn extract(&self, g: &Graph, labeling: &HalfEdgeLabeling<BMatchLabel>) -> Vec<bool> {
        g.edge_ids()
            .map(|e| labeling.edge_labels(e) == [Some(BMatchLabel::M), Some(BMatchLabel::M)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic;
    use crate::problem::verify_graph;
    use crate::seq::{edge_orders_for_tests, solve_edges_sequential};

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    fn star(n: usize) -> Graph {
        Graph::from_edges(n, &(1..n).map(|i| (0, i)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn sequential_solver_any_order_any_b() {
        for g in [path(10), star(8)] {
            for b in 1..4 {
                let p = BMatching { b };
                for order in edge_orders_for_tests(&g) {
                    let mut l = HalfEdgeLabeling::for_graph(&g);
                    solve_edges_sequential(&p, &g, &order, &mut l).unwrap();
                    verify_graph(&p, &g, &l).unwrap();
                    let chosen = p.extract(&g, &l);
                    let b32 = u32::try_from(b).unwrap();
                    assert!(classic::is_valid_maximal_b_matching(&g, &chosen, b32), "b {b}");
                }
            }
        }
    }

    #[test]
    fn b1_reduces_to_maximal_matching() {
        let g = path(9);
        let p = BMatching { b: 1 };
        let order: Vec<EdgeId> = g.edge_ids().collect();
        let mut l = HalfEdgeLabeling::for_graph(&g);
        solve_edges_sequential(&p, &g, &order, &mut l).unwrap();
        let chosen = p.extract(&g, &l);
        assert!(classic::is_valid_maximal_matching(&g, &chosen));
    }

    #[test]
    fn star_with_b2_chooses_two_edges() {
        let g = star(6);
        let p = BMatching { b: 2 };
        let order: Vec<EdgeId> = g.edge_ids().collect();
        let mut l = HalfEdgeLabeling::for_graph(&g);
        solve_edges_sequential(&p, &g, &order, &mut l).unwrap();
        verify_graph(&p, &g, &l).unwrap();
        let chosen = p.extract(&g, &l).iter().filter(|&&c| c).count();
        assert_eq!(chosen, 2); // the center saturates at 2
    }

    #[test]
    fn large_b_takes_everything() {
        let g = path(7);
        let p = BMatching { b: 2 };
        let order: Vec<EdgeId> = g.edge_ids().collect();
        let mut l = HalfEdgeLabeling::for_graph(&g);
        solve_edges_sequential(&p, &g, &order, &mut l).unwrap();
        // Path nodes have degree ≤ 2 ≤ b: every edge is chosen.
        assert!(p.extract(&g, &l).iter().all(|&c| c));
    }

    #[test]
    fn truthful_saturation_claims() {
        let p = BMatching { b: 2 };
        use BMatchLabel::*;
        assert!(!p.node_ok(&[S]));
        assert!(!p.node_ok(&[M, S, O]));
        assert!(p.node_ok(&[M, M, S, O, D]));
        assert!(p.node_ok(&[]));
        assert!(p.node_ok(&[D, D]));
    }
}
