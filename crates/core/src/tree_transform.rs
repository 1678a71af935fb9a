//! Theorem 12: the transformation on trees (Algorithm 2).
//!
//! Given a node-edge-checkable problem `Π ∈ P1` (it implements
//! [`NodeSequential`], certifying that `Π×` is solvable on valid
//! instances) and a truly local algorithm `A` with complexity
//! `O(f(Δ) + log* n)`, the pipeline is:
//!
//! 1. compute `k = ⌊g(n)⌋` from `g^{f(g)} = n`;
//! 2. run Algorithm 1 (rake-and-compress) with parameter `k` —
//!    `O(log_k n)` iterations;
//! 3. run `A` on the semi-graph `T_C` induced by the compressed nodes,
//!    whose underlying degree is ≤ `k` by Lemma 10 — `O(f(k) + log* n)`
//!    rounds;
//! 4. solve the edge-list variant `Π×` on each connected component of
//!    `T_R` by gathering it at its highest node (diameter ≤
//!    `4(log_k n + 1) + 2` by Lemma 11, asserted on every run) and
//!    completing the labeling with the `P1` sequential process.
//!
//! Total: `O(f(g(n)) + log* n)` rounds, the Theorem 1 bound.

use crate::g_solver::{k_for, solve_g};
use crate::report::{TransformOutcome, TransformParams, TransformStats};
use treelocal_algos::{ChargedModel, GlobalCtx, TrulyLocal};
use treelocal_decomp::{lemma11_bound, rake_compress, RakeCompress};
use treelocal_graph::OrInvariant;
use treelocal_graph::{components, Graph, NodeId};
use treelocal_problems::{solve_nodes_sequential, verify_graph, NodeSequential, Problem};
use treelocal_sim::{log_star_u64, GatherPlan, RoundReport};

/// The Theorem 12 pipeline, configured with a problem and an inner
/// algorithm.
///
/// # Examples
///
/// ```
/// use treelocal_core::TreeTransform;
/// use treelocal_algos::MisAlgo;
/// use treelocal_gen::random_tree;
/// use treelocal_problems::Mis;
///
/// let tree = random_tree(500, 7);
/// let outcome = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
/// assert!(outcome.valid);
/// ```
#[derive(Clone, Debug)]
pub struct TreeTransform<'p, P, A> {
    problem: &'p P,
    algo: &'p A,
    charged: Option<ChargedModel>,
    k_override: Option<usize>,
}

impl<'p, P, A> TreeTransform<'p, P, A>
where
    P: Problem + NodeSequential,
    A: TrulyLocal<P>,
{
    /// Creates the pipeline for `problem` with inner algorithm `algo`.
    pub fn new(problem: &'p P, algo: &'p A) -> Self {
        TreeTransform { problem, algo, charged: None, k_override: None }
    }

    /// Attaches a literature complexity model: `k` is then selected from
    /// the model's `f`, and the outcome carries a parallel round report in
    /// which the inner algorithm is charged `⌈f(Δ)⌉ + log*` rounds.
    pub fn with_charged(mut self, model: ChargedModel) -> Self {
        self.charged = Some(model);
        self
    }

    /// Forces the decomposition parameter `k` (used by the ablation
    /// experiments sweeping around `g(n)`).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k_override = Some(k.max(2));
        self
    }

    fn f_for_selection(&self, d: f64) -> f64 {
        match &self.charged {
            Some(m) => m.eval(d),
            None => self.algo.f(d),
        }
    }

    /// Runs the full pipeline on a tree.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not a tree (Algorithm 1's precondition).
    pub fn run(&self, tree: &Graph) -> TransformOutcome<P::Label> {
        let n = tree.node_count();
        let gctx = GlobalCtx::of(tree);
        let g_value = if n >= 4 { solve_g(n as f64, |d| self.f_for_selection(d)) } else { 2.0 };
        let k = self.k_override.unwrap_or_else(|| k_for(n, |d| self.f_for_selection(d)));
        let mut executed = RoundReport::new();

        // Phase 1: Algorithm 1.
        let rc: RakeCompress = rake_compress(tree, k);
        executed.push("rake-compress(Alg1)", rc.rounds);

        // Phase 2: A on T_C (underlying degree ≤ k by Lemma 10).
        let tc = rc.compressed_semigraph(tree);
        let tr = rc.raked_semigraph(tree);
        let sub_max_degree = tc.underlying_max_degree();
        assert!(sub_max_degree <= k, "Lemma 10");
        let (mut labeling, rep_a) = self.algo.solve(&tc, &gctx, self.problem);
        executed.absorb("A", &rep_a);

        // Phase 3: Π× on the components of T_R, each gathered at its
        // highest node and completed by the P1 sequential process. The
        // GatherPlan costs each component with one eccentricity pass
        // (byte-identical to the former BFS per center, pinned by the
        // gather_equiv suite and the golden round-count fixture).
        let order = rc.layer_order();
        let cc = components(&tr);
        let gather_plan = GatherPlan::new(&tr);
        let mut max_gather = 0u64;
        let mut max_diameter = 0u32;
        for c in 0..cc.count() {
            let mut members: Vec<NodeId> = cc.members(c).to_vec();
            members.sort_by(|&x, &y| {
                let kx = (order.rank(x), tree.local_id(x));
                let ky = (order.rank(y), tree.local_id(y));
                ky.cmp(&kx) // highest first
            });
            let center = members[0];
            max_gather = max_gather.max(gather_plan.rounds_at(center));
            // The center's query cached every member's eccentricity, and a
            // tree component's diameter is the largest of them.
            max_diameter =
                members.iter().map(|&v| gather_plan.eccentricity(v)).fold(max_diameter, u32::max);
            solve_nodes_sequential(self.problem, tree, &members, &mut labeling)
                .or_invariant("P1 guarantees the edge-list variant is solvable");
        }
        assert!(max_diameter <= lemma11_bound(n, k), "Lemma 11");
        executed.push("gather-residual(Alg2)", max_gather);

        let valid = verify_graph(self.problem, tree, &labeling).is_ok();
        let charged = self.charged.as_ref().map(|m| {
            let mut r = RoundReport::new();
            r.push("rake-compress(Alg1)", rc.rounds);
            r.push("A(model f(Δ))", m.eval(sub_max_degree as f64).ceil() as u64);
            r.push("A(model log*)", u64::from(log_star_u64(gctx.id_space)));
            r.push("gather-residual(Alg2)", max_gather);
            r
        });
        TransformOutcome {
            labeling,
            executed,
            charged,
            params: TransformParams { n, g_value, k, a: 1, rho: 1 },
            stats: TransformStats {
                decomposition_iterations: rc.iterations,
                sub_max_degree,
                residual_components: cc.count(),
                max_gather_rounds: max_gather,
                star_groups: 0,
            },
            valid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_algos::{DegColoringAlgo, DeltaColoringAlgo, MisAlgo};
    use treelocal_gen::{balanced_regular_tree, caterpillar, random_tree, relabel, IdStrategy};
    use treelocal_problems::{
        classic, extract_coloring, DegPlusOneColoring, DeltaPlusOneColoring, Mis,
    };

    #[test]
    fn mis_transform_on_random_trees() {
        for seed in 0..6 {
            let tree = relabel(&random_tree(300, seed), IdStrategy::Permuted { seed });
            let out = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
            assert!(out.valid, "seed {seed}");
            let set = Mis.extract(&tree, &out.labeling);
            assert!(classic::is_valid_mis(&tree, &set), "seed {seed}");
            assert!(out.stats.sub_max_degree <= out.params.k);
        }
    }

    #[test]
    fn mis_transform_on_structured_trees() {
        for tree in [
            balanced_regular_tree(3, 200),
            balanced_regular_tree(10, 200),
            caterpillar(40, 4),
            treelocal_gen::path(150),
            treelocal_gen::star(80),
            treelocal_gen::spider(8, 12),
        ] {
            let out = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
            assert!(out.valid);
            let set = Mis.extract(&tree, &out.labeling);
            assert!(classic::is_valid_mis(&tree, &set));
        }
    }

    #[test]
    fn deg_coloring_transform() {
        for seed in 0..4 {
            let tree = random_tree(250, seed + 100);
            let out = TreeTransform::new(&DegPlusOneColoring, &DegColoringAlgo).run(&tree);
            assert!(out.valid, "seed {seed}");
            let colors = extract_coloring(&tree, &out.labeling);
            assert!(classic::is_valid_deg_plus_one_coloring(&tree, &colors));
        }
    }

    #[test]
    fn delta_coloring_transform() {
        let tree = random_tree(220, 5);
        let p = DeltaPlusOneColoring { delta: tree.max_degree() };
        let out = TreeTransform::new(&p, &DeltaColoringAlgo).run(&tree);
        assert!(out.valid);
        let colors = extract_coloring(&tree, &out.labeling);
        assert!(classic::is_valid_palette_coloring(&tree, &colors, tree.max_degree() as u32 + 1));
    }

    #[test]
    fn k_override_still_valid() {
        let tree = random_tree(200, 9);
        for k in [2usize, 3, 8, 32] {
            let out = TreeTransform::new(&Mis, &MisAlgo).with_k(k).run(&tree);
            assert!(out.valid, "k {k}");
            assert_eq!(out.params.k, k);
        }
    }

    #[test]
    fn charged_model_report_present() {
        let tree = random_tree(400, 2);
        let out = TreeTransform::new(&Mis, &MisAlgo)
            .with_charged(ChargedModel::bek14_coloring())
            .run(&tree);
        assert!(out.valid);
        let charged = out.charged.expect("charged report");
        assert!(charged.total() > 0);
        // The model's f(Δ) phase is bounded by f(k) with k from the model.
        assert!(charged.rounds_of("A(model f(Δ))") <= out.params.k as u64 + 1);
    }

    #[test]
    fn tiny_trees() {
        for n in 1..6 {
            let tree = treelocal_gen::path(n);
            let out = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
            assert!(out.valid, "n {n}");
        }
    }

    #[test]
    fn distributed_decomposition_certifies_rounds() {
        // The pipeline charges the centralized Algorithm 1; executing it on
        // the LOCAL simulator at the pipeline's k yields the same layering
        // in exactly the charged number of rounds.
        let tree = random_tree(300, 21);
        let out = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
        assert!(out.valid);
        let k = out.params.k;
        let certified = treelocal_decomp::rake_compress_distributed(&tree, k);
        assert_eq!(rake_compress(&tree, k).iteration_of, certified.iteration_of);
        assert_eq!(out.stats.decomposition_iterations, certified.iterations);
        assert_eq!(out.executed.rounds_of("rake-compress(Alg1)"), certified.rounds);
    }
}
