//! Baselines the transformation is compared against in the experiments.
//!
//! * [`direct_baseline`] — run the truly local algorithm on the whole
//!   instance: `O(f(Δ) + log* n)` rounds, which is poor when `Δ` is large
//!   (the exact situation the transformation fixes).
//! * [`gather_baseline_node`] / [`gather_baseline_edge`] — the trivial
//!   `O(diameter)` algorithm: gather everything at one node, solve
//!   centrally (with the sequential process), redistribute.
//! * Fixed-`k` pipelines (via
//!   [`TreeTransform::with_k`](crate::TreeTransform::with_k)) cover the
//!   classic decomposition-based baselines: `k = O(1)` reproduces the
//!   `O(log n)`-layer approach, while `k = g(n)` is the paper's optimal
//!   choice — experiment E10 sweeps `k` to show the optimum.

use crate::report::{TransformOutcome, TransformParams, TransformStats};
use treelocal_algos::{GlobalCtx, TrulyLocal};
use treelocal_graph::OrInvariant;
use treelocal_graph::{Graph, NodeId, SemiGraph};
use treelocal_problems::{
    solve_edges_sequential, solve_nodes_sequential, verify_graph, EdgeSequential, HalfEdgeLabeling,
    NodeSequential, Problem,
};
use treelocal_sim::{gather_rounds_at, RoundReport};

/// Runs the truly local algorithm directly on the whole instance.
pub fn direct_baseline<P: Problem, A: TrulyLocal<P>>(
    problem: &P,
    algo: &A,
    g: &Graph,
) -> TransformOutcome<P::Label> {
    let s = SemiGraph::whole(g);
    let gctx = GlobalCtx::of(g);
    let (labeling, rep) = algo.solve(&s, &gctx, problem);
    let mut executed = RoundReport::new();
    executed.absorb("A(direct)", &rep);
    let valid = verify_graph(problem, g, &labeling).is_ok();
    TransformOutcome {
        labeling,
        executed,
        charged: None,
        params: TransformParams {
            n: g.node_count(),
            g_value: g.max_degree() as f64,
            k: g.max_degree(),
            a: 1,
            rho: 1,
        },
        stats: TransformStats { sub_max_degree: g.max_degree(), ..TransformStats::default() },
        valid,
    }
}

/// The gather center used by the trivial baselines: the highest-identifier
/// node (any fixed local rule would do; the cost is its eccentricity).
fn gather_center(g: &Graph) -> NodeId {
    g.node_ids().max_by_key(|&v| g.local_id(v)).or_invariant("non-empty graph")
}

/// The trivial global-gather algorithm for `P1` problems: `2·ecc` rounds.
pub fn gather_baseline_node<P: Problem + NodeSequential>(
    problem: &P,
    g: &Graph,
) -> TransformOutcome<P::Label> {
    let center = gather_center(g);
    let rounds = gather_rounds_at(g, center);
    let mut labeling = HalfEdgeLabeling::for_graph(g);
    let order: Vec<NodeId> = g.node_ids().collect();
    solve_nodes_sequential(problem, g, &order, &mut labeling)
        .or_invariant("sequential process completes on valid instances");
    let valid = verify_graph(problem, g, &labeling).is_ok();
    TransformOutcome {
        labeling,
        executed: RoundReport::single("global-gather", rounds),
        charged: None,
        params: TransformParams { n: g.node_count(), g_value: 0.0, k: 0, a: 1, rho: 1 },
        stats: TransformStats { max_gather_rounds: rounds, ..TransformStats::default() },
        valid,
    }
}

/// The trivial global-gather algorithm for `P2` problems.
pub fn gather_baseline_edge<P: Problem + EdgeSequential>(
    problem: &P,
    g: &Graph,
) -> TransformOutcome<P::Label> {
    let center = gather_center(g);
    let rounds = gather_rounds_at(g, center);
    let mut labeling = HalfEdgeLabeling::for_graph(g);
    let order: Vec<_> = g.edge_ids().collect();
    solve_edges_sequential(problem, g, &order, &mut labeling)
        .or_invariant("sequential process completes on valid instances");
    let valid = verify_graph(problem, g, &labeling).is_ok();
    TransformOutcome {
        labeling,
        executed: RoundReport::single("global-gather", rounds),
        charged: None,
        params: TransformParams { n: g.node_count(), g_value: 0.0, k: 0, a: 1, rho: 1 },
        stats: TransformStats { max_gather_rounds: rounds, ..TransformStats::default() },
        valid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_algos::MisAlgo;
    use treelocal_gen::{path, random_tree, star};
    use treelocal_problems::{classic, MaximalMatching, Mis};

    #[test]
    fn direct_baseline_is_valid() {
        let g = random_tree(150, 1);
        let out = direct_baseline(&Mis, &MisAlgo, &g);
        assert!(out.valid);
        let set = Mis.extract(&g, &out.labeling);
        assert!(classic::is_valid_mis(&g, &set));
    }

    #[test]
    fn direct_baseline_rounds_grow_with_degree() {
        // The star has Δ = n - 1: the direct algorithm pays for it.
        let small_delta = direct_baseline(&Mis, &MisAlgo, &path(64)).total_rounds();
        let big_delta = direct_baseline(&Mis, &MisAlgo, &star(64)).total_rounds();
        assert!(big_delta > small_delta, "star {big_delta} should beat path {small_delta}");
    }

    #[test]
    fn gather_baselines_are_valid_but_slow() {
        let g = path(120);
        let node = gather_baseline_node(&Mis, &g);
        assert!(node.valid);
        // Gathering at an end of a long path costs ~2n rounds.
        assert!(node.total_rounds() >= 200);
        let edge = gather_baseline_edge(&MaximalMatching, &g);
        assert!(edge.valid);
        let m = MaximalMatching.extract(&g, &edge.labeling);
        assert!(classic::is_valid_maximal_matching(&g, &m));
    }
}
