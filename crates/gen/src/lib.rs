//! Deterministic workload generators for the `treelocal` experiments.
//!
//! Everything is seeded and reproducible. Provided families:
//!
//! * [`random_tree`] — uniformly random labeled trees, decoded by the
//!   streaming [`PruferEdges`] source (no materialized edge list), and
//!   [`labelled_trees`] — every labelled tree on `n` nodes,
//! * [`balanced_regular_tree`] — the paper's lower-bound instances
//!   (footnote 11 variant that exists for every `n`),
//! * structured trees: [`path`], [`star`], [`caterpillar`], [`spider`],
//!   [`broom`], [`complete_binary_tree`],
//! * bounded-arboricity graphs: [`random_arboricity_graph`] (forest
//!   unions), [`grid`], [`triangulated_grid`], [`random_forest`],
//! * identifier strategies: [`IdStrategy`], [`assign_ids`], [`relabel`].
//!
//! # Examples
//!
//! ```
//! use treelocal_gen::{random_tree, relabel, IdStrategy};
//!
//! let t = random_tree(1000, 7);
//! let t = relabel(&t, IdStrategy::Permuted { seed: 7 });
//! assert!(treelocal_graph::is_tree(&t));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use treelocal_graph::OrInvariant;

mod arb;
mod ids;
mod prufer;
mod shapes;

pub use arb::{
    arboricity_suite, grid, random_arboricity_graph, random_forest, triangulated_grid,
    KnownArboricity,
};
pub use ids::{assign_ids, relabel, IdStrategy};
pub use prufer::{decode_prufer, labelled_trees, random_tree, PruferEdges};
pub use shapes::{
    balanced_regular_tree, balanced_regular_tree_of_depth, broom, caterpillar,
    complete_binary_tree, path, spider, star,
};

/// A named collection of tree workloads at size roughly `n`, spanning the
/// shapes the experiments sweep over.
pub fn tree_suite(n: usize, seed: u64) -> Vec<(String, treelocal_graph::Graph)> {
    let mut v = vec![
        ("random".to_string(), random_tree(n, seed)),
        ("path".to_string(), path(n)),
        ("balanced-d3".to_string(), balanced_regular_tree(3, n)),
        ("balanced-d8".to_string(), balanced_regular_tree(8, n)),
    ];
    let spine = (n / 4).max(1);
    v.push(("caterpillar".to_string(), caterpillar(spine, 3)));
    if n >= 9 {
        let legs = n.isqrt();
        v.push(("spider".to_string(), spider(legs, (n - 1) / legs.max(1))));
    }
    v
}

/// The trees every engine cross-check runs on: every labelled tree on 1
/// to 6 nodes (1,442 of them), then 60 random trees on 2 to 120 nodes
/// whose identifiers cycle through sequential, permuted and sparse, so the
/// minimum identifier sits anywhere relative to the index order.
pub fn cross_check_trees() -> impl Iterator<Item = treelocal_graph::Graph> {
    let random = (0..60u64).map(|seed| {
        let n = 2 + usize::try_from(seed * 7 % 119).or_invariant("a small tree size");
        let strategy = match seed % 3 {
            0 => IdStrategy::Sequential,
            1 => IdStrategy::Permuted { seed },
            _ => IdStrategy::Sparse { seed },
        };
        relabel(&random_tree(n, seed), strategy)
    });
    (1..=6).flat_map(labelled_trees).chain(random)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::is_tree;

    #[test]
    fn tree_suite_members_are_trees() {
        for (name, g) in tree_suite(64, 1) {
            assert!(is_tree(&g), "{name} is not a tree");
            assert!(g.node_count() >= 16, "{name} too small: {}", g.node_count());
        }
    }
}
