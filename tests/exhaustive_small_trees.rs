//! Exhaustive verification on *every* labeled tree with up to 6 nodes
//! (enumerated by `labelled_trees`: all Prüfer sequences, via Cayley's
//! bijection). The four
//! public tree pipelines (Theorem 1's MIS and `(deg+1)`-colouring, Theorem
//! 3's maximal matching and `(edge-degree+1)`-edge colouring) must produce
//! solutions that both the `classic` validators and the engine-blind
//! checker's rule table accept on every single tree — no sampling, no
//! seeds. Between them the pipelines run all four colour-class sweep
//! rules. The MIS, `(deg+1)`-colouring and `(Δ+1)`-colouring pipelines
//! also run at every forced `k ∈ {2, 3, 4}`. Every pipeline restricts its tree to semi-graphs
//! (`T_C`, `T_R`, `G[E_2]`), so this suite also judges the semi-graph
//! adjacency on every small tree. Linial's rounds and the Linial →
//! Kuhn–Wattenhofer → class-sweep chain's total stay inside the checker's
//! round envelopes on every small tree.
//!
//! The release tier runs the four pipelines on all 16,807 + 262,144 trees
//! with `n ∈ {7, 8}`; it is `#[ignore]`d in the debug run:
//!
//! ```text
//! cargo test -q --release --test exhaustive_small_trees -- --ignored
//! ```

use treelocal::algos::{
    kw_reduce, mis_from_coloring, run_linial, DegColoringAlgo, DeltaColoringAlgo, MisAlgo,
};
use treelocal::check::{
    check_envelope, check_solution, EdgePalette, Envelope, Palette, Rule, Solution,
};
use treelocal::core::{
    coloring_on_tree, edge_coloring_on_tree, matching_on_tree, mis_on_tree, TreeTransform,
};
use treelocal::gen::{cross_check_trees, labelled_trees};
use treelocal::graph::{widen_u64, Graph};
use treelocal::problems::{
    classic, extract_coloring, DegPlusOneColoring, DeltaPlusOneColoring, Mis,
};
use treelocal::sim::Ctx;

/// Cayley's count of labeled trees on `2..=6` nodes: `n^(n-2)`.
const TREES_UP_TO_6: usize = 1 + 3 + 16 + 125 + 1296;

/// Runs `judge` on every labeled tree with 2 to 6 nodes.
fn for_every_tree_up_to_6(mut judge: impl FnMut(usize, &Graph)) {
    let mut total = 0usize;
    for n in 2..=6 {
        for tree in labelled_trees(n) {
            judge(n, &tree);
            total += 1;
        }
    }
    assert_eq!(total, TREES_UP_TO_6);
}

/// The checker's rule table accepts `solution` on `tree`.
fn assert_checked(tree: &Graph, rule: &Rule, solution: Solution, n: usize) {
    if let Err(e) = check_solution(tree, rule, &solution, None) {
        panic!("n = {n}: {} rejected: {e}", rule.id());
    }
}

fn widen(xs: &[u32]) -> Vec<u64> {
    xs.iter().map(|&x| u64::from(x)).collect()
}

#[test]
fn mis_transform_on_every_tree_up_to_6() {
    for_every_tree_up_to_6(|n, tree| {
        let (out, set) = mis_on_tree(tree);
        assert!(out.valid, "n = {n}");
        assert!(classic::is_valid_mis(tree, &set), "n = {n}");
        assert_checked(tree, &Rule::Mis, Solution::NodeSet(set), n);
    });
}

/// Theorem 12's MIS pipeline at every forced decomposition parameter `k`
/// in `{2, 3, 4}`: small `k` gives the deepest rake-and-compress layering,
/// so this drives the release Lemma 10 and Lemma 11 asserts over every
/// small tree at every such `k`.
#[test]
fn mis_transform_at_forced_k_on_every_tree_up_to_6() {
    for_every_tree_up_to_6(|n, tree| {
        for k in [2, 3, 4] {
            let out = TreeTransform::new(&Mis, &MisAlgo).with_k(k).run(tree);
            assert!(out.valid, "n = {n}, k = {k}");
            assert_eq!(out.params.k, k);
            assert_checked(
                tree,
                &Rule::Mis,
                Solution::NodeSet(Mis.extract(tree, &out.labeling)),
                n,
            );
        }
    });
}

#[test]
fn coloring_transform_on_every_tree_up_to_6() {
    for_every_tree_up_to_6(|n, tree| {
        let (out, colors) = coloring_on_tree(tree);
        assert!(out.valid, "n = {n}");
        assert!(classic::is_valid_deg_plus_one_coloring(tree, &colors), "n = {n}");
        let rule = Rule::Coloring { palette: Palette::DegreePlusOne };
        assert_checked(tree, &rule, Solution::NodeColors(widen(&colors)), n);
    });
}

/// Theorem 12's `(deg+1)`-colouring pipeline at every forced `k ∈ {2, 3, 4}`,
/// the deepest rake-and-compress layerings of every small tree.
#[test]
fn coloring_transform_at_forced_k_on_every_tree_up_to_6() {
    for_every_tree_up_to_6(|n, tree| {
        for k in [2, 3, 4] {
            let out = TreeTransform::new(&DegPlusOneColoring, &DegColoringAlgo).with_k(k).run(tree);
            assert!(out.valid, "n = {n}, k = {k}");
            assert_eq!(out.params.k, k);
            let colors = extract_coloring(tree, &out.labeling);
            let rule = Rule::Coloring { palette: Palette::DegreePlusOne };
            assert_checked(tree, &rule, Solution::NodeColors(widen(&colors)), n);
        }
    });
}

/// Theorem 12's `(Δ+1)`-colouring pipeline at every forced `k ∈ {2, 3, 4}`,
/// on every small tree and on the engine cross-check trees (paths, stars,
/// caterpillars and random trees up to 120 nodes under three id schemes).
#[test]
fn delta_coloring_transform_at_forced_k_on_every_tree_up_to_6_and_the_cross_check_trees() {
    let judge = |n: usize, tree: &Graph| {
        let delta = tree.max_degree();
        let p = DeltaPlusOneColoring { delta };
        for k in [2, 3, 4] {
            let out = TreeTransform::new(&p, &DeltaColoringAlgo).with_k(k).run(tree);
            assert!(out.valid, "n = {n}, k = {k}");
            assert_eq!(out.params.k, k);
            let colors = extract_coloring(tree, &out.labeling);
            let rule = Rule::Coloring { palette: Palette::AtMost(widen_u64(delta) + 1) };
            assert_checked(tree, &rule, Solution::NodeColors(widen(&colors)), n);
        }
    };
    for_every_tree_up_to_6(judge);
    for tree in cross_check_trees() {
        judge(tree.node_count(), &tree);
    }
}

/// `check_envelope` on every small-tree run: Linial's rounds stay inside
/// `Envelope::Linial`, and the Linial → Kuhn–Wattenhofer → class-sweep
/// chain's total inside `Envelope::MisPipeline`, each limit computed from
/// the tree's identifier space and maximum degree. `cross_check_trees()`
/// holds every labelled tree with at most 6 nodes, then the random ones.
#[test]
fn linial_and_the_mis_chain_stay_inside_their_envelopes_on_every_small_tree() {
    for tree in cross_check_trees() {
        let ctx = Ctx::of(&tree);
        let linial = run_linial(&ctx);
        let kw = kw_reduce(&ctx, &linial.colors, linial.final_bound);
        let mis = mis_from_coloring(&ctx, &kw.colors, u64::from(kw.final_colors));
        let (id_space, delta) = (tree.id_space(), tree.max_degree());
        let total = linial.rounds + kw.rounds + mis.rounds;
        for (envelope, rounds) in
            [(Envelope::Linial, linial.rounds), (Envelope::MisPipeline, total)]
        {
            if let Err(e) = check_envelope(envelope, id_space, delta, rounds) {
                panic!("{} on {tree:?}: {e}", envelope.id());
            }
        }
    }
}

#[test]
fn matching_transform_on_every_tree_up_to_6() {
    for_every_tree_up_to_6(|n, tree| {
        let (out, matching) = matching_on_tree(tree);
        assert!(out.valid, "n = {n}");
        assert!(classic::is_valid_maximal_matching(tree, &matching), "n = {n}");
        assert_checked(tree, &Rule::Matching { b: 1 }, Solution::EdgeSet(matching), n);
    });
}

#[test]
fn edge_coloring_transform_on_every_tree_up_to_6() {
    for_every_tree_up_to_6(|n, tree| {
        let (out, colors) = edge_coloring_on_tree(tree);
        assert!(out.valid, "n = {n}");
        assert!(classic::is_valid_edge_degree_coloring(tree, &colors), "n = {n}");
        let rule = Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne };
        assert_checked(tree, &rule, Solution::EdgeColors(widen(&colors)), n);
    });
}

/// The four public pipelines on every labelled tree with 7 or 8 nodes,
/// each solution judged by the checker's rule table. A failure names the
/// tree by its position `i` in `labelled_trees(n)`: its Prüfer sequence
/// is `i` in base `n`, least significant digit first.
#[test]
#[ignore = "release tier: 279,000 trees, run with --release -- --ignored"]
fn every_pipeline_on_every_tree_with_7_or_8_nodes() {
    let mut total = 0usize;
    for n in [7, 8] {
        for (i, tree) in labelled_trees(n).enumerate() {
            let tree = &tree;
            let judge = |rule: &Rule, valid: bool, solution: Solution| {
                assert!(valid, "n = {n}, tree {i}: {} pipeline invalid", rule.id());
                if let Err(e) = check_solution(tree, rule, &solution, None) {
                    panic!("n = {n}, tree {i}: {} rejected: {e}", rule.id());
                }
            };
            let (out, set) = mis_on_tree(tree);
            judge(&Rule::Mis, out.valid, Solution::NodeSet(set));
            let (out, colors) = coloring_on_tree(tree);
            let rule = Rule::Coloring { palette: Palette::DegreePlusOne };
            judge(&rule, out.valid, Solution::NodeColors(widen(&colors)));
            let (out, matching) = matching_on_tree(tree);
            judge(&Rule::Matching { b: 1 }, out.valid, Solution::EdgeSet(matching));
            let (out, colors) = edge_coloring_on_tree(tree);
            let rule = Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne };
            judge(&rule, out.valid, Solution::EdgeColors(widen(&colors)));
            total += 1;
        }
    }
    assert_eq!(total, 16_807 + 262_144);
}

#[test]
fn distinct_trees_are_enumerated() {
    // Sanity on the enumerator itself: 125 distinct trees at n = 5.
    let mut canon: Vec<Vec<(usize, usize)>> = Vec::new();
    for g in labelled_trees(5) {
        let mut es: Vec<(usize, usize)> = g
            .edge_ids()
            .map(|e| {
                let [u, v] = g.endpoints(e);
                (u.index().min(v.index()), u.index().max(v.index()))
            })
            .collect();
        es.sort_unstable();
        canon.push(es);
    }
    canon.sort();
    canon.dedup();
    assert_eq!(canon.len(), 125);
}
