//! Vertex coloring problems: `(deg+1)`-coloring and `(Δ+1)`-coloring.
//!
//! Both belong to the paper's class `P1` and are handled by Theorem 12.
//!
//! # Formalization
//!
//! `Σ = Z_{>0}` (colors). A node outputs the *same* color on every incident
//! half-edge; the node constraint enforces equality plus the palette bound
//! (`c ≤ deg+1` for the list-style problem, `c ≤ Δ+1` for the classic one),
//! and `E^2` enforces properness (`c_1 ≠ c_2`). `E^1` allows any single
//! color, `E^0 = {∅}`. A degree-0 node has no half-edges, hence no visible
//! color — consistent with both problems, where isolated nodes are
//! trivially colorable.

use crate::labeling::HalfEdgeLabeling;
use crate::problem::Problem;
use crate::seq::NodeSequential;
use treelocal_graph::{Graph, HalfEdge, NodeId};

/// A vertex color (positive).
pub type Color = u32;

/// The `(deg+1)`-coloring problem: every node `v` gets a color
/// `c(v) ≤ deg(v) + 1`, proper on edges.
///
/// # Examples
///
/// ```
/// use treelocal_problems::{DegPlusOneColoring, Problem};
/// let p = DegPlusOneColoring;
/// assert!(p.node_ok(&[2, 2]));      // degree 2, color 2 ≤ 3
/// assert!(!p.node_ok(&[4, 4]));     // color 4 > 3
/// assert!(!p.node_ok(&[1, 2]));     // inconsistent halves
/// assert!(p.edge_ok(&[1, 2]));
/// assert!(!p.edge_ok(&[2, 2]));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegPlusOneColoring;

/// The `(Δ+1)`-coloring problem for a known maximum degree `Δ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaPlusOneColoring {
    /// The global maximum degree `Δ` of the instance.
    pub delta: usize,
}

fn all_equal(labels: &[Color]) -> Option<Color> {
    let first = *labels.first()?;
    labels.iter().all(|&c| c == first).then_some(first)
}

impl Problem for DegPlusOneColoring {
    type Label = Color;

    fn name(&self) -> &'static str {
        "deg+1-coloring"
    }

    fn node_ok(&self, labels: &[Color]) -> bool {
        if labels.is_empty() {
            return true;
        }
        match all_equal(labels) {
            Some(c) => c >= 1 && (c as usize) <= labels.len() + 1,
            None => false,
        }
    }

    fn edge_ok(&self, labels: &[Color]) -> bool {
        match labels {
            [] => true,
            [c] => *c >= 1,
            [a, b] => *a >= 1 && *b >= 1 && a != b,
            _ => false,
        }
    }
}

impl Problem for DeltaPlusOneColoring {
    type Label = Color;

    fn name(&self) -> &'static str {
        "delta+1-coloring"
    }

    fn node_ok(&self, labels: &[Color]) -> bool {
        if labels.is_empty() {
            return true;
        }
        match all_equal(labels) {
            Some(c) => c >= 1 && (c as usize) <= self.delta + 1,
            None => false,
        }
    }

    fn edge_ok(&self, labels: &[Color]) -> bool {
        DegPlusOneColoring.edge_ok(labels)
    }
}

/// The smallest positive color missing from `used`: the greedy choice of
/// both vertex colorings and of Lemma 16's edge coloring.
pub(crate) fn smallest_free_color(used: impl IntoIterator<Item = Color>) -> Color {
    let mut used: Vec<Color> = used.into_iter().collect();
    used.sort_unstable();
    // A repeated value falls below `c` once `c` has passed it, and is skipped.
    let mut c: Color = 1;
    for u in used {
        if u == c {
            c += 1;
        } else if u > c {
            break;
        }
    }
    c
}

/// The smallest positive color not used on any neighbor's facing half-edge.
fn greedy_color(g: &Graph, labeling: &HalfEdgeLabeling<Color>, v: NodeId) -> Color {
    smallest_free_color(
        g.neighbors(v).filter_map(|(w, e)| labeling.get(HalfEdge::new(e, g.side_of(e, w)))),
    )
}

fn assign_all(g: &Graph, v: NodeId, c: Color) -> Vec<(HalfEdge, Color)> {
    g.neighbor_edges(v).iter().map(|&e| (HalfEdge::new(e, g.side_of(e, v)), c)).collect()
}

impl NodeSequential for DegPlusOneColoring {
    fn decide_node(
        &self,
        g: &Graph,
        labeling: &HalfEdgeLabeling<Color>,
        v: NodeId,
    ) -> Option<Vec<(HalfEdge, Color)>> {
        let c = greedy_color(g, labeling, v);
        // At most deg(v) distinct neighbor colors: c ≤ deg(v) + 1 always.
        debug_assert!((c as usize) <= g.degree(v) + 1);
        Some(assign_all(g, v, c))
    }
}

impl NodeSequential for DeltaPlusOneColoring {
    fn decide_node(
        &self,
        g: &Graph,
        labeling: &HalfEdgeLabeling<Color>,
        v: NodeId,
    ) -> Option<Vec<(HalfEdge, Color)>> {
        let c = greedy_color(g, labeling, v);
        if (c as usize) > self.delta + 1 {
            return None; // instance violated the promised Δ
        }
        Some(assign_all(g, v, c))
    }
}

/// Extracts the per-node colors from a labeling that is valid for either
/// coloring problem (isolated nodes get color 1).
pub fn extract_coloring(g: &Graph, labeling: &HalfEdgeLabeling<Color>) -> Vec<Color> {
    g.node_ids()
        .map(|v| {
            g.neighbor_edges(v)
                .first()
                .and_then(|&e| labeling.get(HalfEdge::new(e, g.side_of(e, v))))
                .unwrap_or(1)
        })
        .collect()
}

/// Encodes a classic proper coloring as a half-edge labeling.
///
/// # Panics
///
/// Panics if `colors.len() != g.node_count()`.
pub fn encode_coloring(g: &Graph, colors: &[Color]) -> HalfEdgeLabeling<Color> {
    assert_eq!(colors.len(), g.node_count());
    let mut l = HalfEdgeLabeling::for_graph(g);
    for v in g.node_ids() {
        for &e in g.neighbor_edges(v) {
            l.set(HalfEdge::new(e, g.side_of(e, v)), colors[v.index()]);
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::verify_graph;
    use crate::seq::{node_orders_for_tests, solve_nodes_sequential};

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn greedy_on_path_uses_at_most_three_colors() {
        let g = path(9);
        for order in node_orders_for_tests(&g) {
            let mut l = HalfEdgeLabeling::for_graph(&g);
            solve_nodes_sequential(&DegPlusOneColoring, &g, &order, &mut l).unwrap();
            verify_graph(&DegPlusOneColoring, &g, &l).unwrap();
            let colors = extract_coloring(&g, &l);
            assert!(colors.iter().all(|&c| c <= 3), "{colors:?}");
        }
    }

    #[test]
    fn delta_plus_one_on_star() {
        let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        let p = DeltaPlusOneColoring { delta: 5 };
        let mut l = HalfEdgeLabeling::for_graph(&g);
        let order: Vec<NodeId> = g.node_ids().collect();
        solve_nodes_sequential(&p, &g, &order, &mut l).unwrap();
        verify_graph(&p, &g, &l).unwrap();
        // Star is 2-colorable greedily in any order that starts anywhere.
        let colors = extract_coloring(&g, &l);
        assert!(colors.iter().all(|&c| c <= 2));
    }

    #[test]
    fn deg_plus_one_constraint_is_per_node() {
        // A leaf (degree 1) may only use colors 1 and 2.
        let p = DegPlusOneColoring;
        assert!(p.node_ok(&[2]));
        assert!(!p.node_ok(&[3]));
        // But a degree-3 node may use color 4.
        assert!(p.node_ok(&[4, 4, 4]));
    }

    #[test]
    fn encode_extract_roundtrip() {
        let g = path(5);
        let colors = vec![1, 2, 1, 2, 1];
        let l = encode_coloring(&g, &colors);
        verify_graph(&DegPlusOneColoring, &g, &l).unwrap();
        assert_eq!(extract_coloring(&g, &l), colors);
    }

    #[test]
    fn zero_color_is_rejected() {
        assert!(!DegPlusOneColoring.node_ok(&[0]));
        assert!(!DegPlusOneColoring.edge_ok(&[0, 1]));
    }

    #[test]
    fn delta_promise_violation_gets_stuck() {
        // Claim delta = 1 on a path of 3 (true delta 2): center node may
        // need color 3 > delta + 1 = 2 when both neighbors are colored
        // first with different colors... construct explicitly.
        let g = path(3);
        let p = DeltaPlusOneColoring { delta: 1 };
        let mut l = HalfEdgeLabeling::for_graph(&g);
        // Color the two endpoints 1 and 2 by hand.
        let v0 = NodeId::new(0);
        let v2 = NodeId::new(2);
        for (v, c) in [(v0, 1u32), (v2, 2u32)] {
            for &e in g.neighbor_edges(v) {
                l.set(HalfEdge::new(e, g.side_of(e, v)), c);
            }
        }
        assert!(p.decide_node(&g, &l, NodeId::new(1)).is_none());
    }
}
