//! Edge coloring problems — Section 5.1 of the paper, verbatim, plus the
//! `(2Δ−1)`-palette variant.
//!
//! # `(edge-degree+1)`-edge coloring (paper's formalization)
//!
//! `Σ = {(a, b) | a, b ∈ Z_{>0}} ∪ {D}`. On a half-edge `(v, e)`, a pair
//! `(a, b)` carries the *degree part* `a` (a claim `a ≤ deg(v)`) and the
//! *color part* `b` (the color of `e`).
//!
//! * `N^i`: the non-`D` labels `{(a_1,b_1), ..., (a_p,b_p)}` must satisfy
//!   `a_k ≤ p` for all `k` and pairwise distinct `b`s.
//! * `E^0 = {∅}`, `E^1 = {{D}}`,
//!   `E^2 = {{(a_1,b), (a_2,b)} | a_1 + a_2 ≥ b + 1}`.
//!
//! Properness is the distinctness of `b`s at each node; the palette bound
//! `b ≤ edge-degree(e) + 1` follows by combining `a_1 + a_2 ≥ b + 1` with
//! `a_i ≤ deg(v_i)`. Lemma 16 gives the per-edge sequential solver.
//!
//! # `(2Δ−1)`-edge coloring
//!
//! [`PaletteEdgeColoring`] fixes an explicit palette `{1, ..., palette}`;
//! with `palette = 2Δ − 1` it is the classic `(2Δ−1)`-edge coloring, which
//! the paper notes is "at most as hard as" `(edge-degree+1)`-edge coloring
//! (see [`edge_degree_to_palette`]).

use crate::coloring::smallest_free_color;
use crate::labeling::HalfEdgeLabeling;
use crate::problem::Problem;
use crate::seq::EdgeSequential;
use treelocal_graph::{EdgeId, Graph, HalfEdge, NodeId, Side};

/// Labels for `(edge-degree+1)`-edge coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeColLabel {
    /// `(a, b)`: degree part `a`, color part `b`.
    C(u32, u32),
    /// Rank-1 edge marker.
    D,
}

/// The `(edge-degree+1)`-edge coloring problem.
///
/// # Examples
///
/// ```
/// use treelocal_problems::{EdgeDegreeColoring, Problem, EdgeColLabel::*};
/// let p = EdgeDegreeColoring;
/// assert!(p.node_ok(&[C(2, 1), C(2, 2)]));      // distinct colors, a ≤ 2
/// assert!(!p.node_ok(&[C(2, 1), C(2, 1)]));     // repeated color
/// assert!(!p.node_ok(&[C(3, 1), C(2, 2)]));     // a = 3 > p = 2
/// assert!(p.edge_ok(&[C(1, 1), C(1, 1)]));      // 1 + 1 ≥ 1 + 1
/// assert!(!p.edge_ok(&[C(1, 2), C(1, 2)]));     // 1 + 1 < 2 + 1
/// assert!(!p.edge_ok(&[C(1, 1), C(2, 2)]));     // color parts differ
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeDegreeColoring;

impl Problem for EdgeDegreeColoring {
    type Label = EdgeColLabel;

    fn name(&self) -> &'static str {
        "edge-degree+1-coloring"
    }

    fn node_ok(&self, labels: &[EdgeColLabel]) -> bool {
        let pairs: Vec<(u32, u32)> = labels
            .iter()
            .filter_map(|l| match l {
                EdgeColLabel::C(a, b) => Some((*a, *b)),
                EdgeColLabel::D => None,
            })
            .collect();
        let p = pairs.len() as u32;
        if pairs.iter().any(|&(a, b)| a == 0 || b == 0 || a > p) {
            return false;
        }
        let mut colors: Vec<u32> = pairs.iter().map(|&(_, b)| b).collect();
        colors.sort_unstable();
        colors.windows(2).all(|w| w[0] != w[1])
    }

    fn edge_ok(&self, labels: &[EdgeColLabel]) -> bool {
        use EdgeColLabel::*;
        match labels {
            [] => true,
            [single] => *single == D,
            [C(a1, b1), C(a2, b2)] => b1 == b2 && a1 + a2 > *b1,
            [_, _] => false,
            _ => false,
        }
    }
}

fn color_parts(labels: &[EdgeColLabel]) -> Vec<u32> {
    labels
        .iter()
        .filter_map(|l| match l {
            EdgeColLabel::C(_, b) => Some(*b),
            EdgeColLabel::D => None,
        })
        .collect()
}

impl EdgeSequential for EdgeDegreeColoring {
    /// Lemma 16's labeling process for one rank-2 edge: choose the smallest
    /// color `c` unused at both endpoints and assign `(cnt+1, c)` on each
    /// side, where `cnt` is the number of non-`D` labels already present at
    /// that endpoint.
    fn decide_edge(
        &self,
        g: &Graph,
        labeling: &HalfEdgeLabeling<EdgeColLabel>,
        e: EdgeId,
    ) -> Option<Vec<(HalfEdge, EdgeColLabel)>> {
        let [u, v] = g.endpoints(e);
        let at_u = labeling.labels_at_node(g, u);
        let at_v = labeling.labels_at_node(g, v);
        let used_u = color_parts(&at_u);
        let used_v = color_parts(&at_v);
        // Lemma 16's greedy choice: the smallest color free at both ends.
        let c = smallest_free_color(used_u.iter().chain(&used_v).copied());
        let a_u = used_u.len() as u32 + 1;
        let a_v = used_v.len() as u32 + 1;
        assert!(a_u + a_v > c, "Lemma 16: a1 + a2 >= c + 1");
        Some(vec![
            (HalfEdge::new(e, Side::First), EdgeColLabel::C(a_u, c)),
            (HalfEdge::new(e, Side::Second), EdgeColLabel::C(a_v, c)),
        ])
    }
}

impl EdgeDegreeColoring {
    /// Extracts the classic edge coloring (the common color part of each
    /// edge's halves).
    ///
    /// # Panics
    ///
    /// Panics if some edge lacks a `C` label on its first half.
    pub fn extract(&self, g: &Graph, labeling: &HalfEdgeLabeling<EdgeColLabel>) -> Vec<u32> {
        g.edge_ids()
            .map(|e| match labeling.get_at(e, Side::First) {
                Some(EdgeColLabel::C(_, b)) => b,
                // lint:allow(no-panic-in-lib): documented "# Panics" contract
                // — extract is only meaningful on a complete C-labeled output.
                other => panic!("edge {e:?} has no color: {other:?}"),
            })
            .collect()
    }

    /// Encodes a classic proper edge coloring with
    /// `color(e) ≤ edge-degree(e) + 1` as a labeling, choosing
    /// `a_i = deg(v_i)` per Section 5.1.
    ///
    /// # Panics
    ///
    /// Panics if `colors.len() != g.edge_count()`.
    pub fn encode(&self, g: &Graph, colors: &[u32]) -> HalfEdgeLabeling<EdgeColLabel> {
        assert_eq!(colors.len(), g.edge_count());
        let mut l = HalfEdgeLabeling::for_graph(g);
        for e in g.edge_ids() {
            let [u, v] = g.endpoints(e);
            let b = colors[e.index()];
            l.set(HalfEdge::new(e, Side::First), EdgeColLabel::C(g.degree(u) as u32, b));
            l.set(HalfEdge::new(e, Side::Second), EdgeColLabel::C(g.degree(v) as u32, b));
        }
        l
    }
}

/// Labels for palette edge coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PaletteLabel {
    /// A color from the palette.
    C(u32),
    /// Rank-1 edge marker.
    D,
}

/// Proper edge coloring with a fixed palette `{1, ..., palette}`; with
/// `palette = 2Δ − 1` this is the classic `(2Δ−1)`-edge coloring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaletteEdgeColoring {
    /// Palette size.
    pub palette: u32,
}

impl PaletteEdgeColoring {
    /// The `(2Δ−1)`-edge coloring problem for maximum degree `delta`.
    pub fn two_delta_minus_one(delta: usize) -> Self {
        PaletteEdgeColoring { palette: (2 * delta).saturating_sub(1).max(1) as u32 }
    }
}

impl Problem for PaletteEdgeColoring {
    type Label = PaletteLabel;

    fn name(&self) -> &'static str {
        "palette-edge-coloring"
    }

    fn node_ok(&self, labels: &[PaletteLabel]) -> bool {
        let mut colors: Vec<u32> = labels
            .iter()
            .filter_map(|l| match l {
                PaletteLabel::C(c) => Some(*c),
                PaletteLabel::D => None,
            })
            .collect();
        if colors.iter().any(|&c| c == 0 || c > self.palette) {
            return false;
        }
        colors.sort_unstable();
        colors.windows(2).all(|w| w[0] != w[1])
    }

    fn edge_ok(&self, labels: &[PaletteLabel]) -> bool {
        use PaletteLabel::*;
        match labels {
            [] => true,
            [single] => *single == D,
            [C(a), C(b)] => a == b && *a >= 1 && *a <= self.palette,
            [_, _] => false,
            _ => false,
        }
    }
}

impl EdgeSequential for PaletteEdgeColoring {
    fn decide_edge(
        &self,
        g: &Graph,
        labeling: &HalfEdgeLabeling<PaletteLabel>,
        e: EdgeId,
    ) -> Option<Vec<(HalfEdge, PaletteLabel)>> {
        let [u, v] = g.endpoints(e);
        let palette_colors = |n: NodeId| {
            labeling.labels_at_node(g, n).into_iter().filter_map(|l| match l {
                PaletteLabel::C(c) => Some(c),
                PaletteLabel::D => None,
            })
        };
        let c = smallest_free_color(palette_colors(u).chain(palette_colors(v)));
        if c > self.palette {
            return None;
        }
        Some(vec![
            (HalfEdge::new(e, Side::First), PaletteLabel::C(c)),
            (HalfEdge::new(e, Side::Second), PaletteLabel::C(c)),
        ])
    }
}

/// Converts a valid `(edge-degree+1)` labeling into a palette labeling —
/// the paper's observation that `(2Δ−1)`-edge coloring is at most as hard,
/// since `edge-degree(e) + 1 ≤ 2Δ − 1` always.
pub fn edge_degree_to_palette(
    g: &Graph,
    labeling: &HalfEdgeLabeling<EdgeColLabel>,
) -> HalfEdgeLabeling<PaletteLabel> {
    let mut out = HalfEdgeLabeling::for_graph(g);
    for (h, l) in labeling.iter() {
        let new = match l {
            EdgeColLabel::C(_, b) => PaletteLabel::C(b),
            EdgeColLabel::D => PaletteLabel::D,
        };
        out.set(h, new);
    }
    out
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
    fn sequential_solver_any_order_is_valid() {
        for g in [path(9), star(6)] {
            for order in edge_orders_for_tests(&g) {
                let mut l = HalfEdgeLabeling::for_graph(&g);
                solve_edges_sequential(&EdgeDegreeColoring, &g, &order, &mut l).unwrap();
                verify_graph(&EdgeDegreeColoring, &g, &l).unwrap();
                let colors = EdgeDegreeColoring.extract(&g, &l);
                assert!(classic::is_valid_edge_degree_coloring(&g, &colors));
            }
        }
    }

    #[test]
    fn star_coloring_uses_palette_edge_degree_plus_one() {
        let g = star(7);
        let mut l = HalfEdgeLabeling::for_graph(&g);
        let order: Vec<EdgeId> = g.edge_ids().collect();
        solve_edges_sequential(&EdgeDegreeColoring, &g, &order, &mut l).unwrap();
        let colors = EdgeDegreeColoring.extract(&g, &l);
        // Star edges all share the center: colors are 1..=6, each within
        // edge-degree + 1 = 6.
        let mut sorted = colors.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn encode_extract_roundtrip() {
        let g = path(5);
        let colors = vec![1, 2, 1, 2];
        let l = EdgeDegreeColoring.encode(&g, &colors);
        verify_graph(&EdgeDegreeColoring, &g, &l).unwrap();
        assert_eq!(EdgeDegreeColoring.extract(&g, &l), colors);
    }

    #[test]
    fn conversion_to_palette_coloring() {
        let g = star(5);
        let mut l = HalfEdgeLabeling::for_graph(&g);
        let order: Vec<EdgeId> = g.edge_ids().collect();
        solve_edges_sequential(&EdgeDegreeColoring, &g, &order, &mut l).unwrap();
        let pal = edge_degree_to_palette(&g, &l);
        let p = PaletteEdgeColoring::two_delta_minus_one(g.max_degree());
        verify_graph(&p, &g, &pal).unwrap();
    }

    #[test]
    fn palette_solver_respects_palette() {
        let g = path(6);
        let p = PaletteEdgeColoring { palette: 3 };
        for order in edge_orders_for_tests(&g) {
            let mut l = HalfEdgeLabeling::for_graph(&g);
            solve_edges_sequential(&p, &g, &order, &mut l).unwrap();
            verify_graph(&p, &g, &l).unwrap();
        }
    }

    #[test]
    fn palette_too_small_gets_stuck() {
        let g = star(4);
        let p = PaletteEdgeColoring { palette: 2 };
        let order: Vec<EdgeId> = g.edge_ids().collect();
        let mut l = HalfEdgeLabeling::for_graph(&g);
        let r = solve_edges_sequential(&p, &g, &order, &mut l);
        assert!(r.is_err());
    }

    #[test]
    fn degree_part_bound_checked_at_node() {
        use EdgeColLabel::*;
        // Two labels: p = 2, so a ≤ 2.
        assert!(EdgeDegreeColoring.node_ok(&[C(1, 1), C(2, 2), D]));
        assert!(!EdgeDegreeColoring.node_ok(&[C(1, 1), C(3, 2), D]));
        assert!(EdgeDegreeColoring.node_ok(&[D, D]));
        assert!(EdgeDegreeColoring.node_ok(&[]));
    }

    #[test]
    fn zero_parts_rejected() {
        use EdgeColLabel::*;
        assert!(!EdgeDegreeColoring.node_ok(&[C(0, 1)]));
        assert!(!EdgeDegreeColoring.node_ok(&[C(1, 0)]));
    }
}
