//! Exhaustive verification on *every* labeled tree with up to 6 nodes
//! (enumerated via Cayley's bijection: all Prüfer sequences). The four
//! public tree pipelines (Theorem 1's MIS and `(deg+1)`-colouring, Theorem
//! 3's maximal matching and `(edge-degree+1)`-edge colouring) must produce
//! solutions that both the `classic` validators and the engine-blind
//! checker's rule table accept on every single tree — no sampling, no
//! seeds. Between them the pipelines run all four colour-class sweep
//! rules. The MIS pipeline also runs at every forced `k ∈ {2, 3, 4}`.

use treelocal::algos::MisAlgo;
use treelocal::check::{check_solution, EdgePalette, Palette, Rule, Solution};
use treelocal::core::{
    coloring_on_tree, edge_coloring_on_tree, matching_on_tree, mis_on_tree, TreeTransform,
};
use treelocal::gen::decode_prufer;
use treelocal::graph::Graph;
use treelocal::problems::{classic, Mis};

/// Cayley's count of labeled trees on `2..=6` nodes: `n^(n-2)`.
const TREES_UP_TO_6: usize = 1 + 3 + 16 + 125 + 1296;

fn all_trees(n: usize) -> Vec<Graph> {
    assert!(n >= 2);
    if n == 2 {
        return vec![Graph::from_edges(2, &[(0, 1)]).unwrap()];
    }
    let len = n - 2;
    let count = n.pow(len as u32);
    let mut out = Vec::with_capacity(count);
    for code in 0..count {
        let mut seq = Vec::with_capacity(len);
        let mut c = code;
        for _ in 0..len {
            seq.push(c % n);
            c /= n;
        }
        let edges = decode_prufer(n, &seq);
        out.push(Graph::from_edges(n, &edges).unwrap());
    }
    out
}

/// Runs `judge` on every labeled tree with 2 to 6 nodes.
fn for_every_tree_up_to_6(mut judge: impl FnMut(usize, &Graph)) {
    let mut total = 0usize;
    for n in 2..=6 {
        for tree in all_trees(n) {
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

#[test]
fn distinct_trees_are_enumerated() {
    // Sanity on the enumerator itself: 125 distinct trees at n = 5.
    let trees = all_trees(5);
    let mut canon: Vec<Vec<(usize, usize)>> = trees
        .iter()
        .map(|g| {
            let mut es: Vec<(usize, usize)> = g
                .edge_ids()
                .map(|e| {
                    let [u, v] = g.endpoints(e);
                    (u.index().min(v.index()), u.index().max(v.index()))
                })
                .collect();
            es.sort_unstable();
            es
        })
        .collect();
    canon.sort();
    canon.dedup();
    assert_eq!(canon.len(), 125);
}
