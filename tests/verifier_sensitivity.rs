//! Failure injection: the formalism verifiers must catch corrupted
//! solutions. For each problem we take a valid labeling produced by the
//! transformation and apply a mutation that breaks a constraint; the
//! verifier has to reject it (and the classic verifiers have to reject the
//! extracted solutions). On every tree with up to 6 nodes, every single
//! half-edge mutation gets the same `Result` from `verify_graph` and
//! `verify_semigraph` as from a three-pass reference verifier.

use treelocal::algos::{MatchingAlgo, MisAlgo};
use treelocal::core::{ArbTransform, TreeTransform};
use treelocal::gen::{labelled_trees, random_tree};
use treelocal::graph::{EdgeId, Graph, HalfEdge, SemiGraph, Side};
use treelocal::problems::{
    classic, solve_edges_sequential, solve_nodes_sequential, verify_graph, verify_semigraph,
    EdgeDegreeColoring, Enumerable, HalfEdgeLabeling, MatchLabel, MaximalMatching, Mis, MisLabel,
    Problem, Violation,
};

#[test]
fn mis_verifier_catches_double_members() {
    let tree = random_tree(120, 1);
    let out = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
    assert!(out.valid);
    // Force both endpoints of some edge to M: independence violated.
    let mut bad = out.labeling.clone();
    let e = EdgeId::new(0);
    // Corrupt *all* half-edges of both endpoints so node constraints still
    // hold and the violation is purely on the edge.
    let [u, v] = tree.endpoints(e);
    for w in [u, v] {
        for &f in tree.neighbor_edges(w) {
            bad.set(HalfEdge::new(f, tree.side_of(f, w)), MisLabel::M);
        }
    }
    let err = verify_graph(&Mis, &tree, &bad).unwrap_err();
    assert!(matches!(err, Violation::EdgeConstraint { .. } | Violation::NodeConstraint { .. }));
    let set = Mis.extract(&tree, &bad);
    assert!(!classic::is_valid_mis(&tree, &set));
}

#[test]
fn mis_verifier_catches_dangling_pointer() {
    let tree = random_tree(80, 2);
    let out = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
    // Find a non-member with a pointer and redirect it at a non-member
    // neighbor (if one exists) — the edge constraint {P, O}/{P, P} fails.
    let set = Mis.extract(&tree, &out.labeling);
    let mut bad = out.labeling.clone();
    let mut mutated = false;
    'outer: for v in tree.node_ids() {
        if set[v.index()] {
            continue;
        }
        for (w, e) in tree.neighbors(v) {
            if !set[w.index()] {
                bad.set(HalfEdge::new(e, tree.side_of(e, v)), MisLabel::P);
                mutated = true;
                break 'outer;
            }
        }
    }
    assert!(mutated, "random tree has adjacent non-members");
    assert!(verify_graph(&Mis, &tree, &bad).is_err());
}

#[test]
fn matching_verifier_catches_half_matched_edge() {
    let tree = random_tree(100, 3);
    let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&tree, 1);
    assert!(out.valid);
    // Flip one half of a matched edge to O: {M, O} is not in E^2.
    let matched = MaximalMatching.extract(&tree, &out.labeling);
    let e = (0..tree.edge_count())
        .map(EdgeId::new)
        .find(|e| matched[e.index()])
        .expect("some edge is matched");
    let mut bad = out.labeling.clone();
    bad.set(HalfEdge::new(e, Side::First), MatchLabel::O);
    let err = verify_graph(&MaximalMatching, &tree, &bad).unwrap_err();
    assert!(matches!(err, Violation::EdgeConstraint { .. } | Violation::NodeConstraint { .. }));
}

#[test]
fn matching_verifier_catches_unmatched_unmatched_edge() {
    let tree = random_tree(100, 4);
    let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&tree, 1);
    // Un-match a matched edge entirely (both halves O): its endpoints'
    // other labels may still claim P, and the edge itself becomes {O, O} —
    // either way verification must fail.
    let matched = MaximalMatching.extract(&tree, &out.labeling);
    let e = (0..tree.edge_count())
        .map(EdgeId::new)
        .find(|e| matched[e.index()])
        .expect("some edge is matched");
    let mut bad = out.labeling.clone();
    bad.set(HalfEdge::new(e, Side::First), MatchLabel::O);
    bad.set(HalfEdge::new(e, Side::Second), MatchLabel::O);
    assert!(verify_graph(&MaximalMatching, &tree, &bad).is_err());
}

#[test]
fn missing_label_is_reported_first() {
    let tree = random_tree(50, 5);
    let out = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
    let mut bad = out.labeling.clone();
    bad.unset(HalfEdge::new(EdgeId::new(0), Side::First));
    assert!(matches!(
        verify_graph(&Mis, &tree, &bad),
        Err(Violation::Missing { edge }) if edge == EdgeId::new(0)
    ));
}

/// The verifier as three passes over `SemiGraph::whole(g)`: completeness,
/// then edge constraints, then node constraints, each in index order.
fn verify_in_three_passes<P: Problem>(
    p: &P,
    s: &SemiGraph<'_>,
    labeling: &HalfEdgeLabeling<P::Label>,
) -> Result<(), Violation<P::Label>> {
    let sides = [Side::First, Side::Second];
    for &e in s.edges() {
        if sides.iter().any(|&h| s.half_present(e, h) && labeling.get_at(e, h).is_none()) {
            return Err(Violation::Missing { edge: e });
        }
    }
    for &e in s.edges() {
        let labels: Vec<P::Label> = sides
            .iter()
            .filter(|&&h| s.half_present(e, h))
            .map(|&h| labeling.get_at(e, h).unwrap())
            .collect();
        if !p.edge_ok(&labels) {
            return Err(Violation::EdgeConstraint { edge: e, labels });
        }
    }
    for &v in s.nodes() {
        let labels: Vec<P::Label> = s.half_edges_of(v).filter_map(|h| labeling.get(h)).collect();
        if !p.node_ok_at(v, &labels) {
            return Err(Violation::NodeConstraint { node: v, labels });
        }
    }
    Ok(())
}

/// Every labelled tree with 1 to 6 nodes, by Prüfer sequence.
fn trees_up_to_6() -> Vec<Graph> {
    let trees: Vec<Graph> = (1..=6).flat_map(labelled_trees).collect();
    assert_eq!(trees.len(), 1 + 1 + 3 + 16 + 125 + 1296);
    trees
}

/// Checks both verifiers against the reference on `valid` and on every
/// single half-edge mutation of it: the half unset, or set to each other
/// label of its universe. The mutations are also applied on top of a copy
/// with the last half unset, so a missing label meets every violation
/// that an earlier edge or a node can show. Adds the rejections to
/// `seen`, by kind: missing, edge, node.
fn assert_verifiers_agree<P: Enumerable>(
    p: &P,
    g: &Graph,
    valid: &HalfEdgeLabeling<P::Label>,
    seen: &mut [usize; 3],
) {
    let whole = SemiGraph::whole(g);
    let halves: Vec<HalfEdge> = whole.half_edges().collect();
    let mut judge = |labeling: &HalfEdgeLabeling<P::Label>| {
        let expected = verify_in_three_passes(p, &whole, labeling);
        assert_eq!(verify_graph(p, g, labeling), expected, "{}: verify_graph", p.name());
        assert_eq!(verify_semigraph(p, &whole, labeling), expected, "{}: semigraph", p.name());
        match expected {
            Ok(()) => {}
            Err(Violation::Missing { .. }) => seen[0] += 1,
            Err(Violation::EdgeConstraint { .. }) => seen[1] += 1,
            Err(Violation::NodeConstraint { .. }) => seen[2] += 1,
        }
    };
    let mut bases = vec![valid.clone()];
    if let Some(&last) = halves.last() {
        let mut base = valid.clone();
        base.unset(last);
        bases.push(base);
    }
    for base in &bases {
        judge(base);
        for &h in &halves {
            let mut mutated = base.clone();
            mutated.unset(h);
            judge(&mutated);
            for label in p.universe(g, h) {
                if Some(label) != base.get(h) {
                    mutated.set(h, label);
                    judge(&mutated);
                }
            }
        }
    }
}

#[test]
fn one_pass_verifiers_match_three_passes_on_every_mutation_up_to_6_nodes() {
    let mut seen = [[0usize; 3]; 3];
    for g in trees_up_to_6() {
        let nodes: Vec<_> = g.node_ids().collect();
        let edges: Vec<_> = g.edge_ids().collect();
        let mut labeling = HalfEdgeLabeling::for_graph(&g);
        solve_nodes_sequential(&Mis, &g, &nodes, &mut labeling).unwrap();
        assert_verifiers_agree(&Mis, &g, &labeling, &mut seen[0]);
        let mut labeling = HalfEdgeLabeling::for_graph(&g);
        solve_edges_sequential(&MaximalMatching, &g, &edges, &mut labeling).unwrap();
        assert_verifiers_agree(&MaximalMatching, &g, &labeling, &mut seen[1]);
        let mut labeling = HalfEdgeLabeling::for_graph(&g);
        solve_edges_sequential(&EdgeDegreeColoring, &g, &edges, &mut labeling).unwrap();
        assert_verifiers_agree(&EdgeDegreeColoring, &g, &labeling, &mut seen[2]);
    }
    // Every kind of violation comes up, so the comparison covers each
    // rejection path, not only acceptances. (A single mutation of an
    // edge colouring always breaks an edge first.)
    assert!((0..3).all(|kind| seen.iter().any(|problem| problem[kind] > 0)), "{seen:?}");
}
