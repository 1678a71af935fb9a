//! Theorem 15: the transformation on bounded-arboricity graphs
//! (Algorithm 4).
//!
//! Given a node-edge-checkable problem `Π ∈ P2` (it implements
//! [`EdgeSequential`], certifying that `Π*` is solvable on valid
//! instances) and a truly local algorithm `A` with complexity
//! `O(f(Δ) + log* n)`, the pipeline on a graph of arboricity ≤ `a` is:
//!
//! 1. compute `k = ⌊g(n)^ρ⌋` (clamped to `≥ 5a`) from `g^{f(g)} = n`;
//! 2. run Algorithm 3 (the `(b,k)`-decomposition, `b = 2a`) —
//!    `O(log_{k/a} n)` iterations by Lemma 13;
//! 3. split the atypical edges into `2a` rooted forests and 3-color each
//!    (Cole–Vishkin, `log* n + O(1)` rounds) yielding `6a` star-forest
//!    groups;
//! 4. run `A` on the semi-graph `G[E_2]` of typical edges, whose degree is
//!    ≤ `k` by Lemma 14 — `O(f(k) + log* n)` rounds;
//! 5. process the `6a` groups sequentially, solving the node-list variant
//!    `Π*` on each star by gathering it at its center (a constant number
//!    of rounds per group) with the `P2` per-edge sequential process.
//!
//! Total: `O(a + ρ·f(g(n)^ρ)/(ρ − log_{g(n)} a) + log* n)` rounds — the
//! Theorem 2 bound; with `a = 1, ρ = 1` on trees this is
//! `O(f(g(n)) + log* n)`, the dual of Theorem 12.

use crate::g_solver::solve_g;
use crate::report::{TransformOutcome, TransformParams, TransformStats};
use treelocal_algos::{ChargedModel, GlobalCtx, TrulyLocal};
use treelocal_decomp::{arb_decompose, split_atypical};
use treelocal_graph::Graph;
use treelocal_graph::OrInvariant;
use treelocal_problems::{solve_edges_sequential, verify_graph, EdgeSequential, Problem};
use treelocal_sim::{log_star_u64, RoundReport};

/// The Theorem 15 pipeline, configured with a problem and an inner
/// algorithm.
///
/// # Examples
///
/// ```
/// use treelocal_core::ArbTransform;
/// use treelocal_algos::MatchingAlgo;
/// use treelocal_gen::random_tree;
/// use treelocal_problems::MaximalMatching;
///
/// let tree = random_tree(400, 3);
/// let outcome = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&tree, 1);
/// assert!(outcome.valid);
/// ```
#[derive(Clone, Debug)]
pub struct ArbTransform<'p, P, A> {
    problem: &'p P,
    algo: &'p A,
    charged: Option<ChargedModel>,
    rho: u32,
    k_override: Option<usize>,
}

impl<'p, P, A> ArbTransform<'p, P, A>
where
    P: Problem + EdgeSequential,
    A: TrulyLocal<P>,
{
    /// Creates the pipeline for `problem` with inner algorithm `algo`
    /// (`ρ = 1`; see [`with_rho`](ArbTransform::with_rho)).
    pub fn new(problem: &'p P, algo: &'p A) -> Self {
        ArbTransform { problem, algo, charged: None, rho: 1, k_override: None }
    }

    /// Sets Theorem 15's `ρ` parameter (`k = g(n)^ρ`); the paper uses
    /// `ρ = 2` for the arboricity version of Theorem 3.
    pub fn with_rho(mut self, rho: u32) -> Self {
        assert!(rho >= 1);
        self.rho = rho;
        self
    }

    /// Attaches a literature complexity model (see
    /// [`TreeTransform::with_charged`](crate::TreeTransform::with_charged)).
    pub fn with_charged(mut self, model: ChargedModel) -> Self {
        self.charged = Some(model);
        self
    }

    /// Forces the decomposition parameter `k` (clamped to `≥ 5a` at run
    /// time).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k_override = Some(k);
        self
    }

    fn f_for_selection(&self, d: f64) -> f64 {
        match &self.charged {
            Some(m) => m.eval(d),
            None => self.algo.f(d),
        }
    }

    /// Runs the full pipeline on a graph of arboricity at most `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a < 1`.
    pub fn run(&self, g: &Graph, a: usize) -> TransformOutcome<P::Label> {
        assert!(a >= 1, "arboricity bound must be positive");
        let n = g.node_count();
        let gctx = GlobalCtx::of(g);
        let g_value = if n >= 4 { solve_g(n as f64, |d| self.f_for_selection(d)) } else { 2.0 };
        let k_raw =
            self.k_override.unwrap_or_else(|| g_value.powi(self.rho as i32).floor() as usize);
        let k = k_raw.max(5 * a).max(2);
        let mut executed = RoundReport::new();

        // Phase 1: Algorithm 3.
        let d = arb_decompose(g, a, k);
        executed.push("decomposition(Alg3)", d.rounds);

        // Phase 2: forest split + Cole–Vishkin 3-colorings (parallel).
        let split = split_atypical(g, &d);
        executed.push("forest-split(CV)", split.rounds);

        // Phase 3: A on G[E_2] (degree ≤ k by Lemma 14).
        let e2 = d.typical_semigraph(g);
        let sub_max_degree = e2.underlying_max_degree();
        assert!(sub_max_degree <= k, "Lemma 14");
        let (mut labeling, rep_a) = self.algo.solve(&e2, &gctx, self.problem);
        executed.absorb("A", &rep_a);

        // Phase 4: the 6a star-forest groups, sequentially. Every
        // component is a star (center = highest node), so each group costs
        // a constant number of rounds: gather (1) + compute + distribute
        // (1) + handoff (1).
        let mut star_rounds = 0u64;
        let mut nonempty_groups = 0usize;
        for (i, j) in split.groups() {
            let mut edges = split.group_edges(i, j);
            if edges.is_empty() {
                continue;
            }
            nonempty_groups += 1;
            star_rounds += 3;
            edges.sort_unstable();
            solve_edges_sequential(self.problem, g, &edges, &mut labeling)
                .or_invariant("P2 guarantees the node-list variant is solvable");
        }
        executed.push("star-groups(Alg4)", star_rounds);

        let valid = verify_graph(self.problem, g, &labeling).is_ok();
        let charged = self.charged.as_ref().map(|m| {
            let mut r = RoundReport::new();
            r.push("decomposition(Alg3)", d.rounds);
            r.push("forest-split(CV)", split.rounds);
            r.push("A(model f(Δ))", m.eval(sub_max_degree as f64).ceil() as u64);
            r.push("A(model log*)", u64::from(log_star_u64(gctx.id_space)));
            r.push("star-groups(Alg4)", star_rounds);
            r
        });
        TransformOutcome {
            labeling,
            executed,
            charged,
            params: TransformParams { n, g_value, k, a, rho: self.rho },
            stats: TransformStats {
                decomposition_iterations: d.iterations,
                sub_max_degree,
                residual_components: d.atypical_edges().len(),
                max_gather_rounds: 3,
                star_groups: nonempty_groups,
            },
            valid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_algos::{EdgeColoringAlgo, MatchingAlgo, PaletteEdgeColoringAlgo};
    use treelocal_gen::{
        grid, random_arboricity_graph, random_tree, relabel, triangulated_grid, IdStrategy,
    };
    use treelocal_problems::{classic, EdgeDegreeColoring, MaximalMatching, PaletteEdgeColoring};

    #[test]
    fn matching_transform_on_trees() {
        for seed in 0..6 {
            let tree = relabel(&random_tree(250, seed), IdStrategy::Permuted { seed });
            let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&tree, 1);
            assert!(out.valid, "seed {seed}");
            let m = MaximalMatching.extract(&tree, &out.labeling);
            assert!(classic::is_valid_maximal_matching(&tree, &m), "seed {seed}");
        }
    }

    #[test]
    fn matching_transform_on_arboricity_graphs() {
        for (g, a) in [
            (grid(14, 14), 2usize),
            (triangulated_grid(11, 11), 3),
            (random_arboricity_graph(200, 3, 5), 3),
        ] {
            let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&g, a);
            assert!(out.valid);
            let m = MaximalMatching.extract(&g, &out.labeling);
            assert!(classic::is_valid_maximal_matching(&g, &m));
        }
    }

    #[test]
    fn edge_coloring_transform_on_trees() {
        for seed in 0..5 {
            let tree = random_tree(220, seed + 50);
            let out = ArbTransform::new(&EdgeDegreeColoring, &EdgeColoringAlgo).run(&tree, 1);
            assert!(out.valid, "seed {seed}");
            let colors = EdgeDegreeColoring.extract(&tree, &out.labeling);
            assert!(classic::is_valid_edge_degree_coloring(&tree, &colors), "seed {seed}");
        }
    }

    #[test]
    fn edge_coloring_transform_on_planar_like_graphs() {
        let g = triangulated_grid(10, 10);
        let out = ArbTransform::new(&EdgeDegreeColoring, &EdgeColoringAlgo).with_rho(2).run(&g, 3);
        assert!(out.valid);
        let colors = EdgeDegreeColoring.extract(&g, &out.labeling);
        assert!(classic::is_valid_edge_degree_coloring(&g, &colors));
        assert_eq!(out.params.rho, 2);
    }

    #[test]
    fn palette_coloring_transform() {
        let g = grid(12, 12);
        let p = PaletteEdgeColoring::two_delta_minus_one(g.max_degree());
        let out = ArbTransform::new(&p, &PaletteEdgeColoringAlgo).run(&g, 2);
        assert!(out.valid);
    }

    #[test]
    fn k_respects_5a_floor() {
        let g = random_arboricity_graph(100, 4, 1);
        let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&g, 4);
        assert!(out.params.k >= 20);
        assert!(out.valid);
    }

    #[test]
    fn charged_model_for_theorem3() {
        let tree = random_tree(300, 8);
        let out = ArbTransform::new(&EdgeDegreeColoring, &EdgeColoringAlgo)
            .with_charged(ChargedModel::bbko22b_edge_coloring())
            .run(&tree, 1);
        assert!(out.valid);
        assert!(out.charged.is_some());
    }

    #[test]
    fn star_groups_bounded_by_6a() {
        let g = random_arboricity_graph(180, 2, 9);
        let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&g, 2);
        assert!(out.stats.star_groups <= 6 * 2);
        assert!(out.valid);
    }

    #[test]
    fn tiny_graphs() {
        for n in [2usize, 3, 5] {
            let tree = treelocal_gen::path(n);
            let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&tree, 1);
            assert!(out.valid, "n {n}");
        }
    }

    #[test]
    fn distributed_decomposition_certifies_rounds() {
        // The pipeline charges the centralized Algorithm 3; executing it on
        // the LOCAL simulator at the pipeline's (a, k) yields the same
        // decomposition in exactly the charged number of rounds.
        let g = random_arboricity_graph(150, 2, 8);
        let out = ArbTransform::new(&MaximalMatching, &MatchingAlgo).run(&g, 2);
        assert!(out.valid);
        let (a, k) = (out.params.a, out.params.k);
        let certified = treelocal_decomp::arb_decompose_distributed(&g, a, k);
        let central = arb_decompose(&g, a, k);
        assert_eq!(central.iteration_of, certified.iteration_of);
        assert_eq!(central.atypical, certified.atypical);
        assert_eq!(out.stats.decomposition_iterations, certified.iterations);
        assert_eq!(out.executed.rounds_of("decomposition(Alg3)"), certified.rounds);
    }
}
