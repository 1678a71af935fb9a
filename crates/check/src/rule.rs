//! The typed rule table — one legality judgment per problem family.
//!
//! Each [`Rule`] names a locally checkable problem; [`check_solution`]
//! validates a [`Solution`] against it on a concrete graph, returning the
//! first violation as a located [`CheckError`]. This table is the single
//! verifier the rest of the workspace delegates to: the classic `is_*`
//! helpers in `treelocal-problems` are thin wrappers over it.

use crate::error::CheckError;
use treelocal_graph::{widen_u64, EdgeId, Graph};

/// Palette constraint for node colorings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Palette {
    /// Any positive color.
    Any,
    /// Colors from `{1, ..., limit}`.
    AtMost(u64),
    /// Per-node limit `deg(v) + 1`.
    DegreePlusOne,
}

/// Palette constraint for edge colorings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgePalette {
    /// Any positive color.
    Any,
    /// Colors from `{1, ..., limit}`.
    AtMost(u64),
    /// Per-edge limit `edge-degree(e) + 1`.
    EdgeDegreePlusOne,
}

/// A locally checkable problem the checker knows how to judge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Proper node coloring under a palette constraint.
    Coloring {
        /// The palette constraint.
        palette: Palette,
    },
    /// Proper node coloring where each node's color must come from its
    /// list (the certificate's `lists` block).
    ListColoring,
    /// Maximal independent set.
    Mis,
    /// Maximal `b`-matching (`b = 1` is the classic maximal matching).
    Matching {
        /// Per-node saturation bound.
        b: u32,
    },
    /// Proper edge coloring under a palette constraint.
    EdgeColoring {
        /// The palette constraint.
        palette: EdgePalette,
    },
}

impl Rule {
    /// Short identifier used in diagnostics and the certificate format.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::Coloring { .. } => "coloring",
            Rule::ListColoring => "list-coloring",
            Rule::Mis => "mis",
            Rule::Matching { .. } => "matching",
            Rule::EdgeColoring { .. } => "edge-coloring",
        }
    }
}

/// A non-member's maximality witness in an MIS solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MisWitness {
    /// The node joined the independent set.
    Member,
    /// The node declined; `witness` leads to the member that blocked it.
    NonMember {
        /// Edge index of the blocking member neighbor.
        witness: usize,
    },
}

/// A per-node or per-edge output assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Solution {
    /// One color per node.
    NodeColors(Vec<u64>),
    /// Set membership per node.
    NodeSet(Vec<bool>),
    /// MIS decision per node, with maximality witnesses.
    MisWitnesses(Vec<MisWitness>),
    /// Chosen / unchosen per edge.
    EdgeSet(Vec<bool>),
    /// One color per edge.
    EdgeColors(Vec<u64>),
}

impl Solution {
    /// Short identifier used in diagnostics and the certificate format.
    pub fn kind(&self) -> &'static str {
        match self {
            Solution::NodeColors(_) => "node-colors",
            Solution::NodeSet(_) => "node-set",
            Solution::MisWitnesses(_) => "mis-witness",
            Solution::EdgeSet(_) => "edge-set",
            Solution::EdgeColors(_) => "edge-colors",
        }
    }
}

/// Judges `solution` against `rule` on `g`. `lists` is consulted only by
/// [`Rule::ListColoring`].
pub fn check_solution(
    g: &Graph,
    rule: &Rule,
    solution: &Solution,
    lists: Option<&[Vec<u64>]>,
) -> Result<(), CheckError> {
    match check_witness_kind(rule, solution)? {
        Claim::Coloring(colors, palette) => check_node_coloring(g, colors, palette),
        Claim::ListColoring(colors) => {
            let lists = lists.ok_or(CheckError::MissingLists)?;
            check_list_coloring(g, colors, lists)
        }
        Claim::MisSet(in_set) => {
            expect_node_count(g, in_set.len())?;
            independence(g, in_set)?;
            maximality(g, in_set)
        }
        Claim::MisWitnesses(witnesses) => check_mis_witnesses(g, witnesses),
        Claim::Matching(chosen, b) => check_b_matching(g, chosen, b),
        Claim::EdgeColoring(colors, palette) => check_edge_coloring(g, colors, palette),
    }
}

/// A solution paired with the rule it claims to witness.
pub(crate) enum Claim<'a> {
    Coloring(&'a [u64], Palette),
    ListColoring(&'a [u64]),
    MisSet(&'a [bool]),
    MisWitnesses(&'a [MisWitness]),
    Matching(&'a [bool], u32),
    EdgeColoring(&'a [u64], EdgePalette),
}

/// The one rule ↔ solution-kind pairing table. It needs no graph, so a
/// kind that cannot witness `rule` is refused before any count or value
/// is read.
pub(crate) fn check_witness_kind<'a>(
    rule: &Rule,
    solution: &'a Solution,
) -> Result<Claim<'a>, CheckError> {
    Ok(match (rule, solution) {
        (Rule::Coloring { palette }, Solution::NodeColors(c)) => Claim::Coloring(c, *palette),
        (Rule::ListColoring, Solution::NodeColors(c)) => Claim::ListColoring(c),
        (Rule::Mis, Solution::NodeSet(s)) => Claim::MisSet(s),
        (Rule::Mis, Solution::MisWitnesses(w)) => Claim::MisWitnesses(w),
        (Rule::Matching { b }, Solution::EdgeSet(s)) => Claim::Matching(s, *b),
        (Rule::EdgeColoring { palette }, Solution::EdgeColors(c)) => {
            Claim::EdgeColoring(c, *palette)
        }
        (rule, solution) => {
            return Err(CheckError::WitnessKind { rule: rule.id(), found: solution.kind() })
        }
    })
}

fn expect_node_count(g: &Graph, found: usize) -> Result<(), CheckError> {
    if found != g.node_count() {
        return Err(CheckError::WitnessCount { expected: g.node_count(), found });
    }
    Ok(())
}

fn expect_edge_count(g: &Graph, found: usize) -> Result<(), CheckError> {
    if found != g.edge_count() {
        return Err(CheckError::WitnessCount { expected: g.edge_count(), found });
    }
    Ok(())
}

/// No edge may connect two set members.
pub fn independence(g: &Graph, in_set: &[bool]) -> Result<(), CheckError> {
    expect_node_count(g, in_set.len())?;
    for e in g.edge_ids() {
        let [u, v] = g.endpoints(e);
        if in_set[u.index()] && in_set[v.index()] {
            return Err(CheckError::NotIndependent { edge: e.index() });
        }
    }
    Ok(())
}

fn maximality(g: &Graph, in_set: &[bool]) -> Result<(), CheckError> {
    for v in g.node_ids() {
        if !in_set[v.index()] && !g.neighbor_nodes(v).iter().any(|&w| in_set[w.index()]) {
            return Err(CheckError::NotMaximal { node: v.index() });
        }
    }
    Ok(())
}

fn check_mis_witnesses(g: &Graph, witnesses: &[MisWitness]) -> Result<(), CheckError> {
    expect_node_count(g, witnesses.len())?;
    let in_set: Vec<bool> = witnesses.iter().map(|w| matches!(w, MisWitness::Member)).collect();
    independence(g, &in_set)?;
    // Every non-member points at a member across an incident edge — which
    // is exactly maximality, witnessed in O(1) per node.
    for v in g.node_ids() {
        let MisWitness::NonMember { witness } = witnesses[v.index()] else {
            continue;
        };
        if witness >= g.edge_count() {
            return Err(CheckError::WitnessNotIncident { node: v.index(), edge: witness });
        }
        let e = EdgeId::new(witness);
        let [a, b] = g.endpoints(e);
        if a != v && b != v {
            return Err(CheckError::WitnessNotIncident { node: v.index(), edge: witness });
        }
        if !in_set[g.other_endpoint(e, v).index()] {
            return Err(CheckError::WitnessNotMember { node: v.index(), edge: witness });
        }
    }
    Ok(())
}

/// The `b`-matching judgment: no node saturated past `b`, and no edge
/// addable (both endpoints below `b`) left unchosen.
fn check_b_matching(g: &Graph, chosen: &[bool], b: u32) -> Result<(), CheckError> {
    expect_edge_count(g, chosen.len())?;
    let mut saturation = vec![0u64; g.node_count()];
    for e in g.edge_ids() {
        if chosen[e.index()] {
            let [u, v] = g.endpoints(e);
            saturation[u.index()] += 1;
            saturation[v.index()] += 1;
        }
    }
    let limit = u64::from(b);
    for v in g.node_ids() {
        if saturation[v.index()] > limit {
            return Err(CheckError::OverSaturated {
                node: v.index(),
                chosen: saturation[v.index()],
                limit,
            });
        }
    }
    for e in g.edge_ids() {
        if !chosen[e.index()] {
            let [u, v] = g.endpoints(e);
            if saturation[u.index()] < limit && saturation[v.index()] < limit {
                return Err(CheckError::MatchingNotMaximal { edge: e.index() });
            }
        }
    }
    Ok(())
}

/// Whether `chosen` is a valid (not necessarily maximal) `b`-matching.
pub fn matching_validity(g: &Graph, chosen: &[bool], b: u32) -> Result<(), CheckError> {
    expect_edge_count(g, chosen.len())?;
    let mut saturation = vec![0u64; g.node_count()];
    for e in g.edge_ids() {
        if chosen[e.index()] {
            let [u, v] = g.endpoints(e);
            saturation[u.index()] += 1;
            saturation[v.index()] += 1;
        }
    }
    let limit = u64::from(b);
    for v in g.node_ids() {
        if saturation[v.index()] > limit {
            return Err(CheckError::OverSaturated {
                node: v.index(),
                chosen: saturation[v.index()],
                limit,
            });
        }
    }
    Ok(())
}

fn properness(g: &Graph, colors: &[u64]) -> Result<(), CheckError> {
    for e in g.edge_ids() {
        let [u, v] = g.endpoints(e);
        if colors[u.index()] == colors[v.index()] {
            return Err(CheckError::ImproperColor { edge: e.index(), color: colors[u.index()] });
        }
    }
    Ok(())
}

fn check_node_coloring(g: &Graph, colors: &[u64], palette: Palette) -> Result<(), CheckError> {
    expect_node_count(g, colors.len())?;
    for v in g.node_ids() {
        if colors[v.index()] < 1 {
            return Err(CheckError::ColorZero { node: v.index() });
        }
    }
    properness(g, colors)?;
    for v in g.node_ids() {
        let limit = match palette {
            Palette::Any => continue,
            Palette::AtMost(limit) => limit,
            Palette::DegreePlusOne => widen_u64(g.degree(v)) + 1,
        };
        if colors[v.index()] > limit {
            return Err(CheckError::PaletteExceeded {
                node: v.index(),
                color: colors[v.index()],
                limit,
            });
        }
    }
    Ok(())
}

fn check_list_coloring(g: &Graph, colors: &[u64], lists: &[Vec<u64>]) -> Result<(), CheckError> {
    expect_node_count(g, colors.len())?;
    if lists.len() != g.node_count() {
        return Err(CheckError::ListCount { expected: g.node_count(), found: lists.len() });
    }
    for v in g.node_ids() {
        if !lists[v.index()].contains(&colors[v.index()]) {
            return Err(CheckError::ColorNotInList { node: v.index(), color: colors[v.index()] });
        }
    }
    properness(g, colors)
}

fn check_edge_coloring(g: &Graph, colors: &[u64], palette: EdgePalette) -> Result<(), CheckError> {
    expect_edge_count(g, colors.len())?;
    for e in g.edge_ids() {
        if colors[e.index()] < 1 {
            return Err(CheckError::EdgeColorZero { edge: e.index() });
        }
    }
    // Properness without a hash set: sort each node's incident colors and
    // scan for an adjacent duplicate.
    for v in g.node_ids() {
        let mut seen: Vec<u64> = g.neighbor_edges(v).iter().map(|&e| colors[e.index()]).collect();
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(CheckError::ImproperEdgeColor { node: v.index(), color: w[0] });
        }
    }
    for e in g.edge_ids() {
        let limit = match palette {
            EdgePalette::Any => continue,
            EdgePalette::AtMost(limit) => limit,
            EdgePalette::EdgeDegreePlusOne => widen_u64(g.edge_degree(e)) + 1,
        };
        if colors[e.index()] > limit {
            return Err(CheckError::EdgePaletteExceeded {
                edge: e.index(),
                color: colors[e.index()],
                limit,
            });
        }
    }
    Ok(())
}

/// Convenience: the nodes a witness vector marks as members.
pub fn members_of(witnesses: &[MisWitness]) -> Vec<bool> {
    witnesses.iter().map(|w| matches!(w, MisWitness::Member)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn mis_judgments() {
        let g = path(5);
        let ok = Solution::NodeSet(vec![true, false, true, false, true]);
        assert_eq!(check_solution(&g, &Rule::Mis, &ok, None), Ok(()));
        let dependent = Solution::NodeSet(vec![true, true, false, false, true]);
        assert_eq!(
            check_solution(&g, &Rule::Mis, &dependent, None),
            Err(CheckError::NotIndependent { edge: 0 })
        );
        let not_maximal = Solution::NodeSet(vec![true, false, false, false, true]);
        assert_eq!(
            check_solution(&g, &Rule::Mis, &not_maximal, None),
            Err(CheckError::NotMaximal { node: 2 })
        );
    }

    #[test]
    fn mis_witness_judgments() {
        let g = path(3);
        let ok = Solution::MisWitnesses(vec![
            MisWitness::Member,
            MisWitness::NonMember { witness: 0 },
            MisWitness::Member,
        ]);
        assert_eq!(check_solution(&g, &Rule::Mis, &ok, None), Ok(()));
        let not_incident = Solution::MisWitnesses(vec![
            MisWitness::Member,
            MisWitness::NonMember { witness: 9 },
            MisWitness::Member,
        ]);
        assert_eq!(
            check_solution(&g, &Rule::Mis, &not_incident, None),
            Err(CheckError::WitnessNotIncident { node: 1, edge: 9 })
        );
        let not_member = Solution::MisWitnesses(vec![
            MisWitness::NonMember { witness: 0 },
            MisWitness::NonMember { witness: 0 },
            MisWitness::Member,
        ]);
        assert_eq!(
            check_solution(&g, &Rule::Mis, &not_member, None),
            Err(CheckError::WitnessNotMember { node: 0, edge: 0 })
        );
    }

    #[test]
    fn matching_judgments() {
        let g = path(5);
        let rule = Rule::Matching { b: 1 };
        let ok = Solution::EdgeSet(vec![true, false, true, false]);
        assert_eq!(check_solution(&g, &rule, &ok, None), Ok(()));
        let shared = Solution::EdgeSet(vec![true, true, false, false]);
        assert_eq!(
            check_solution(&g, &rule, &shared, None),
            Err(CheckError::OverSaturated { node: 1, chosen: 2, limit: 1 })
        );
        let not_maximal = Solution::EdgeSet(vec![false, true, false, false]);
        assert_eq!(
            check_solution(&g, &rule, &not_maximal, None),
            Err(CheckError::MatchingNotMaximal { edge: 3 })
        );
        // b = 2 tolerates the shared node but re-judges maximality: edge 2
        // is addable because nodes 2 and 3 still have capacity.
        assert_eq!(
            check_solution(&g, &Rule::Matching { b: 2 }, &shared, None),
            Err(CheckError::MatchingNotMaximal { edge: 2 })
        );
        let b2_ok = Solution::EdgeSet(vec![true, true, true, true]);
        assert_eq!(check_solution(&g, &Rule::Matching { b: 2 }, &b2_ok, None), Ok(()));
    }

    #[test]
    fn coloring_judgments() {
        let g = path(4);
        let rule = Rule::Coloring { palette: Palette::DegreePlusOne };
        let ok = Solution::NodeColors(vec![1, 2, 1, 2]);
        assert_eq!(check_solution(&g, &rule, &ok, None), Ok(()));
        let improper = Solution::NodeColors(vec![1, 1, 2, 1]);
        assert_eq!(
            check_solution(&g, &rule, &improper, None),
            Err(CheckError::ImproperColor { edge: 0, color: 1 })
        );
        let leaf_over = Solution::NodeColors(vec![3, 2, 1, 2]);
        assert_eq!(
            check_solution(&g, &rule, &leaf_over, None),
            Err(CheckError::PaletteExceeded { node: 0, color: 3, limit: 2 })
        );
        let zero = Solution::NodeColors(vec![0, 2, 1, 2]);
        assert_eq!(check_solution(&g, &rule, &zero, None), Err(CheckError::ColorZero { node: 0 }));
        let fixed = Rule::Coloring { palette: Palette::AtMost(2) };
        assert_eq!(
            check_solution(&g, &fixed, &Solution::NodeColors(vec![1, 3, 1, 2]), None),
            Err(CheckError::PaletteExceeded { node: 1, color: 3, limit: 2 })
        );
    }

    #[test]
    fn list_coloring_judgments() {
        let g = path(3);
        let lists = vec![vec![1, 2], vec![2, 3], vec![1, 3]];
        let ok = Solution::NodeColors(vec![1, 2, 1]);
        assert_eq!(check_solution(&g, &Rule::ListColoring, &ok, Some(&lists)), Ok(()));
        let off_list = Solution::NodeColors(vec![1, 4, 1]);
        assert_eq!(
            check_solution(&g, &Rule::ListColoring, &off_list, Some(&lists)),
            Err(CheckError::ColorNotInList { node: 1, color: 4 })
        );
        assert_eq!(
            check_solution(&g, &Rule::ListColoring, &ok, None),
            Err(CheckError::MissingLists)
        );
    }

    #[test]
    fn edge_coloring_judgments() {
        let g = path(4);
        let rule = Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne };
        let ok = Solution::EdgeColors(vec![1, 2, 1]);
        assert_eq!(check_solution(&g, &rule, &ok, None), Ok(()));
        let improper = Solution::EdgeColors(vec![1, 1, 2]);
        assert_eq!(
            check_solution(&g, &rule, &improper, None),
            Err(CheckError::ImproperEdgeColor { node: 1, color: 1 })
        );
        let over = Solution::EdgeColors(vec![1, 2, 3]);
        assert_eq!(
            check_solution(&g, &rule, &over, None),
            Err(CheckError::EdgePaletteExceeded { edge: 2, color: 3, limit: 2 })
        );
    }

    #[test]
    fn kind_mismatches_are_rejected() {
        let g = path(3);
        let colors = Solution::NodeColors(vec![1, 2, 1]);
        assert_eq!(
            check_solution(&g, &Rule::Mis, &colors, None),
            Err(CheckError::WitnessKind { rule: "mis", found: "node-colors" })
        );
        assert_eq!(
            check_solution(&g, &Rule::Matching { b: 1 }, &colors, None),
            Err(CheckError::WitnessKind { rule: "matching", found: "node-colors" })
        );
    }

    #[test]
    fn witness_counts_are_checked_before_indexing() {
        let g = path(3);
        assert_eq!(
            check_solution(&g, &Rule::Mis, &Solution::NodeSet(vec![true]), None),
            Err(CheckError::WitnessCount { expected: 3, found: 1 })
        );
        assert_eq!(
            check_solution(
                &g,
                &Rule::Coloring { palette: Palette::Any },
                &Solution::NodeColors(vec![1, 2, 1, 2]),
                None
            ),
            Err(CheckError::WitnessCount { expected: 3, found: 4 })
        );
    }
}
