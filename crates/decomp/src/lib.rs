//! The paper's two graph decompositions with executable lemma checkers.
//!
//! * [`rake_compress`] — Algorithm 1 (the \[CHL+19\] rake-and-compress
//!   process) powering Theorem 12 on trees, with Lemma 9/10/11 checkers.
//! * [`arb_decompose`] — Algorithm 3 (the paper's new `(b, k)`
//!   decomposition) powering Theorem 15 on bounded-arboricity graphs,
//!   with Lemma 13/14 checkers, atypical-edge classification and the
//!   star-forest split ([`split_atypical`]).
//!
//! Every decomposition ships in two equivalent implementations: a fast
//! centralized one used by the transformation pipelines, and a distributed
//! one executed on the LOCAL simulator that certifies the round counts
//! (3 rounds per Algorithm 1 iteration, 2 per Algorithm 3 iteration). The
//! test suites assert the two produce identical layerings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arb_decomp;
mod forest_split;
mod order;
mod rake_compress;

pub use arb_decomp::{
    arb_decompose, arb_decompose_distributed, check_atypical_structure, check_lemma13,
    check_lemma14, lemma13_bound, max_atypical_to_higher, typical_max_degree, ArbDecomposition,
};
pub use forest_split::{
    check_split_covers_atypical, check_star_property, split_atypical, ForestSplit,
};
pub use order::LayerOrder;
pub use rake_compress::{
    check_lemma10, check_lemma11, check_lemma9, compress_edge_max_degree, lemma11_bound,
    lemma9_bound, rake_compress, rake_compress_distributed, raked_component_max_diameter, Mark,
    RakeCompress,
};

/// Runs `algo` on `ctx` under both engines and asserts that the round
/// counts and every final state agree: the Definition 5 cross-check each
/// algorithm's tests run on [`treelocal_gen::cross_check_trees`].
#[cfg(test)]
fn assert_engines_agree<T, A>(ctx: &treelocal_sim::Ctx<'_, T>, algo: &A, max_rounds: u64)
where
    T: treelocal_graph::Topology + Sync,
    A: treelocal_sim::SyncAlgorithm<T> + Sync,
    A::State: PartialEq,
{
    let snapshot = treelocal_sim::run(ctx, algo, max_rounds);
    let messages = treelocal_sim::run_messages(ctx, algo, max_rounds);
    assert_eq!(snapshot.rounds, messages.rounds, "round counts diverge");
    assert!(snapshot.states().eq(messages.states()), "states diverge");
}
