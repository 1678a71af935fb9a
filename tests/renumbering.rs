//! Renumbering property: the four public tree pipelines see LOCAL
//! identifiers and port order only (Definition 5), never node indices.
//!
//! Every tree of `cross_check_trees()` (every labelled tree with at most 6
//! nodes, then 60 random trees with sequential, permuted and sparse ids)
//! runs next to renumbered copies of itself: one in BFS order from each
//! root, and one under a seeded random permutation. A copy keeps every
//! node's LOCAL id, and is built through `Graph::from_edge_source_with_ids`
//! with its edges in the order of their new endpoints, so both its node
//! and its edge indices follow the new numbering. The builder sorts every
//! neighbour slice by the new indices, so the copy's port order is
//! re-sorted, not carried.
//!
//! With re-sorted ports the property pins today's behaviour:
//!
//! * `mis_on_tree` and `coloring_on_tree` report the same `executed` and
//!   `charged` rounds and give the same output, read through the map;
//! * `matching_on_tree` and `edge_coloring_on_tree` report the same
//!   rounds, but their outputs may differ. The tie-break is in their
//!   Theorem 15 pipeline (`ArbTransform::run`, phase 4): each star-forest
//!   group is solved sequentially after `edges.sort_unstable()`, which
//!   orders the group's edges by `EdgeId`, an index. That solve order
//!   decides which edge takes which free colour or matching slot, so a
//!   renumbered copy can end with a different valid solution in the same
//!   rounds. Keying that sort by the endpoints' LOCAL ids instead made
//!   both edge pipelines' outputs agree through the map on the random and
//!   middle-root BFS copies of every tree here (3,004 runs, of which 17
//!   differ with the index sort), so no other index tie-break shows on
//!   these copies.
//!
//! The carried-port half of the property (all four pipelines agree
//! outright) needs a copy that keeps each node's original port order,
//! which `Graph` cannot express while it sorts neighbour slices by index.
//!
//! The debug run sweeps every BFS root of every tree with at most 5
//! nodes, and roots each larger tree at node 0. The release tier sweeps
//! every root of every tree (`n = 6` and the random trees included):
//!
//! ```text
//! cargo test -q --release --test renumbering -- --ignored
//! ```

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use treelocal::core::{
    coloring_on_tree, edge_coloring_on_tree, matching_on_tree, mis_on_tree, TransformOutcome,
};
use treelocal::gen::cross_check_trees;
use treelocal::graph::{Graph, NodeId, SliceEdges};

/// The position of every node in the BFS order from `root`, neighbours
/// visited in port order: the renumbering that sends `v` to `perm[v]`.
fn bfs_order(tree: &Graph, root: usize) -> Vec<usize> {
    let mut order = vec![NodeId::new(root)];
    let mut seen = vec![false; tree.node_count()];
    seen[root] = true;
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &w in tree.neighbor_nodes(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                order.push(w);
            }
        }
    }
    let mut perm = vec![0; tree.node_count()];
    for (i, v) in order.iter().enumerate() {
        perm[v.index()] = i;
    }
    perm
}

/// A seeded random renumbering of `n` nodes.
fn random_order(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut SmallRng::seed_from_u64(seed));
    perm
}

/// `tree` with node `v` renumbered to `perm[v]` and every LOCAL id
/// carried over; edges are listed in order of their new endpoints.
fn renumbered(tree: &Graph, perm: &[usize]) -> Graph {
    let mut edges: Vec<(usize, usize)> = tree
        .edge_ids()
        .map(|e| {
            let [u, v] = tree.endpoints(e).map(|x| perm[x.index()]);
            (u.min(v), u.max(v))
        })
        .collect();
    edges.sort_unstable();
    let mut ids = vec![0; tree.node_count()];
    for v in tree.node_ids() {
        ids[perm[v.index()]] = tree.local_id(v);
    }
    Graph::from_edge_source_with_ids(&SliceEdges::new(tree.node_count(), &edges), ids)
        .expect("a renumbered tree is a valid graph")
}

/// The four pipelines' outcomes on one instance: the reports of all four,
/// and the node pipelines' extracted MIS and colouring.
struct Runs {
    reports: Vec<(&'static str, Report)>,
    mis: Vec<bool>,
    colors: Vec<u32>,
}

type Report = (treelocal::sim::RoundReport, Option<treelocal::sim::RoundReport>);

fn report<L>(out: &TransformOutcome<L>) -> Report {
    assert!(out.valid);
    (out.executed.clone(), out.charged.clone())
}

fn runs(g: &Graph) -> Runs {
    let (mis_out, mis) = mis_on_tree(g);
    let (col_out, colors) = coloring_on_tree(g);
    let reports = vec![
        ("mis_on_tree", report(&mis_out)),
        ("coloring_on_tree", report(&col_out)),
        ("matching_on_tree", report(&matching_on_tree(g).0)),
        ("edge_coloring_on_tree", report(&edge_coloring_on_tree(g).0)),
    ];
    Runs { reports, mis, colors }
}

/// Runs `tree` and its copy under `perm`, and compares them.
fn assert_invariant(tree: &Graph, original: &Runs, perm: &[usize], what: &str) {
    let copy = runs(&renumbered(tree, perm));
    for ((name, want), (_, got)) in original.reports.iter().zip(&copy.reports) {
        assert_eq!(want, got, "{name}: rounds differ on a copy ({what}) of {tree:?}");
    }
    for v in tree.node_ids() {
        let (i, j) = (v.index(), perm[v.index()]);
        assert_eq!(original.mis[i], copy.mis[j], "mis_on_tree differs at {v:?} ({what})");
        assert_eq!(
            original.colors[i], copy.colors[j],
            "coloring_on_tree differs at {v:?} ({what})"
        );
    }
}

/// Checks every tree of `cross_check_trees()` against its random copy and
/// its BFS copies from the roots `roots(n)` picks.
fn sweep(roots: impl Fn(usize) -> std::ops::Range<usize>) {
    for (seed, tree) in (0u64..).zip(cross_check_trees()) {
        let n = tree.node_count();
        let original = runs(&tree);
        assert_invariant(&tree, &original, &random_order(n, seed), "random");
        for root in roots(n) {
            assert_invariant(
                &tree,
                &original,
                &bfs_order(&tree, root),
                &format!("BFS from {root}"),
            );
        }
    }
}

#[test]
fn pipelines_are_invariant_under_renumbering() {
    sweep(|n| if n <= 5 { 0..n } else { 0..1 });
}

#[test]
#[ignore = "every BFS root of every tree: cargo test -q --release --test renumbering -- --ignored"]
fn pipelines_are_invariant_under_renumbering_from_every_root() {
    sweep(|n| 0..n);
}
