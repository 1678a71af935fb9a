//! End-to-end Theorem 15 runs for the `P2` problems (maximal matching,
//! edge colorings) on trees and bounded-arboricity graphs.

use treelocal::algos::{EdgeColoringAlgo, MatchingAlgo, PaletteEdgeColoringAlgo};
use treelocal::core::{
    edge_coloring_bounded_arboricity, edge_coloring_on_tree, matching_on_tree, ArbTransform,
};
use treelocal::gen::{arboricity_suite, relabel, tree_suite, IdStrategy, KnownArboricity};
use treelocal::problems::{
    classic, edge_degree_to_palette, verify_graph, EdgeDegreeColoring, MaximalMatching,
    PaletteEdgeColoring,
};

#[test]
fn matching_across_tree_suite() {
    for (name, base) in tree_suite(170, 3) {
        let tree = relabel(&base, IdStrategy::Permuted { seed: 9 });
        let (out, matching) = matching_on_tree(&tree);
        assert!(out.valid, "{name}");
        assert!(classic::is_valid_maximal_matching(&tree, &matching), "{name}");
        // Charged report (PR01 model) exists and is internally consistent.
        let charged = out.charged.expect("charged model attached");
        assert!(charged.total() >= out.executed.rounds_of("decomposition(Alg3)"));
    }
}

#[test]
fn edge_coloring_across_tree_suite() {
    for (name, tree) in tree_suite(150, 8) {
        let (out, colors) = edge_coloring_on_tree(&tree);
        assert!(out.valid, "{name}");
        assert!(classic::is_valid_edge_degree_coloring(&tree, &colors), "{name}");
        // Theorem 3's palette claim: every color within edge-degree + 1,
        // hence within 2Δ - 1.
        let max_used = colors.iter().max().copied().unwrap_or(0);
        assert!((max_used as usize) < 2 * tree.max_degree(), "{name}");
    }
}

#[test]
fn matching_across_arboricity_suite() {
    for (name, g, KnownArboricity(a)) in arboricity_suite(196, 15) {
        let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&g, a);
        assert!(out.valid, "{name}");
        let m = MaximalMatching.extract(&g, &out.labeling);
        assert!(classic::is_valid_maximal_matching(&g, &m), "{name}");
        assert!(out.params.k >= 5 * a, "{name}");
    }
}

#[test]
fn edge_coloring_across_arboricity_suite() {
    for (name, g, KnownArboricity(a)) in arboricity_suite(144, 21) {
        let (out, colors) = edge_coloring_bounded_arboricity(&g, a);
        assert!(out.valid, "{name}");
        assert!(classic::is_valid_edge_degree_coloring(&g, &colors), "{name}");
        assert_eq!(out.params.rho, 2, "{name}");
    }
}

#[test]
fn palette_edge_coloring_via_transform() {
    let g = treelocal::gen::grid(13, 13);
    let p = PaletteEdgeColoring::two_delta_minus_one(g.max_degree());
    let out = ArbTransform::new(&p, &PaletteEdgeColoringAlgo).run(&g, 2);
    assert!(out.valid);
    verify_graph(&p, &g, &out.labeling).unwrap();
}

#[test]
fn edge_degree_solution_downgrades_to_palette() {
    // The paper: (2Δ-1)-edge coloring is at most as hard — the conversion
    // of a valid (edge-degree+1) solution must verify as a palette
    // solution.
    let tree = treelocal::gen::random_tree(200, 31);
    let (out, _) = edge_coloring_on_tree(&tree);
    assert!(out.valid);
    let pal = edge_degree_to_palette(&tree, &out.labeling);
    let p = PaletteEdgeColoring::two_delta_minus_one(tree.max_degree());
    verify_graph(&p, &tree, &pal).unwrap();
}

#[test]
fn rho_sweep_stays_valid() {
    let g = treelocal::gen::triangulated_grid(12, 12);
    let mut rounds = Vec::new();
    for rho in 1..=3u32 {
        let out =
            ArbTransform::new(&EdgeDegreeColoring, &EdgeColoringAlgo).with_rho(rho).run(&g, 3);
        assert!(out.valid, "rho {rho}");
        rounds.push((rho, out.total_rounds(), out.params.k));
    }
    // Larger rho => larger k (never smaller).
    assert!(rounds.windows(2).all(|w| w[1].2 >= w[0].2), "{rounds:?}");
}

#[test]
fn labeling_covers_every_half_edge() {
    let g = treelocal::gen::random_arboricity_graph(220, 3, 2);
    let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&g, 3);
    assert!(out.valid);
    assert_eq!(out.labeling.assigned_count(), 2 * g.edge_count());
}

#[test]
fn b_matching_transform_across_suites() {
    use treelocal::algos::BMatchingAlgo;
    use treelocal::problems::BMatching;
    for b in 1..4usize {
        let p = BMatching { b };
        for (name, tree) in tree_suite(130, b as u64 + 40) {
            let out = ArbTransform::new(&p, &BMatchingAlgo).run(&tree, 1);
            assert!(out.valid, "{name} b {b}");
            let chosen = p.extract(&tree, &out.labeling);
            assert!(
                classic::is_valid_maximal_b_matching(&tree, &chosen, u32::try_from(p.b).unwrap()),
                "{name} b {b}"
            );
        }
    }
    // Bounded arboricity too.
    let p = BMatching { b: 2 };
    for (name, g, KnownArboricity(a)) in arboricity_suite(121, 8) {
        let out = ArbTransform::new(&p, &BMatchingAlgo).run(&g, a);
        assert!(out.valid, "{name}");
        let chosen = p.extract(&g, &out.labeling);
        assert!(
            classic::is_valid_maximal_b_matching(&g, &chosen, u32::try_from(p.b).unwrap()),
            "{name}"
        );
    }
}
