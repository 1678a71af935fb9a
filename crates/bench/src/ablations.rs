//! Experiments E10–E12: ablations and substrate sanity.
//!
//! | id | claim |
//! |----|-------|
//! | E10 | §1.2: `k = g(n)` balances the decomposition and solve phases — a sweep over `k` shows the optimum near the paper's choice |
//! | E11 | Theorem 15's `ρ` trade-off (`ρ/(ρ − log_g a)`; paper uses ρ = 2 for Theorem 3's arboricity case) |
//! | E12 | Substrate: Linial-style coloring and Cole–Vishkin run in `log* n + O(1)` rounds |
//!
//! Sweep points are independent jobs on the [`Driver`]'s queue, aggregated
//! in job order.

use crate::driver::{collect_rows, Driver, JobOutput};
use crate::table::{fnum, Table};
use crate::ExperimentSize;
use treelocal_algos::{run_linial, three_color_rooted, EdgeColoringAlgo, MatchingAlgo, MisAlgo};
use treelocal_core::{ArbTransform, TreeTransform};
use treelocal_gen::{random_tree, relabel, triangulated_grid, IdStrategy};
use treelocal_graph::root_forest;
use treelocal_graph::OrInvariant;
use treelocal_problems::{EdgeDegreeColoring, MaximalMatching, Mis};
use treelocal_sim::{log_star_u64, Ctx};

/// E10: the k-sweep around `g(n)`.
pub fn e10(size: ExperimentSize, driver: &Driver) -> Table {
    let n = match size {
        ExperimentSize::Quick => 4_000,
        ExperimentSize::Full => 100_000,
    };
    let tree = random_tree(n, 17);
    let auto = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
    assert!(auto.valid);
    let mut t = Table::new(
        "E10",
        format!("k-sweep for MIS on a random tree (n = {n}); paper picks k = g(n)"),
        &["k", "decomp", "A", "gather", "total", "is-paper-k"],
    );
    let ks: [usize; 12] = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128];
    let results = driver.map(&ks, |&k| {
        let out = TreeTransform::new(&Mis, &MisAlgo).with_k(k).run(&tree);
        assert!(out.valid, "k {k}");
        let total = out.total_rounds();
        JobOutput::from_row(vec![
            k.to_string(),
            out.executed.rounds_of("rake-compress(Alg1)").to_string(),
            out.executed.rounds_with_prefix("A/").to_string(),
            out.executed.rounds_of("gather-residual(Alg2)").to_string(),
            total.to_string(),
            (k == auto.params.k).to_string(),
        ])
        .with_metric(total)
    });
    let mut best = (u64::MAX, 0usize);
    for (i, out) in results.iter().enumerate() {
        let total = out.metric.or_invariant("e10 jobs record their total rounds");
        if total < best.0 {
            best = (total, ks[i]);
        }
    }
    collect_rows(&mut t, results);
    t.note(format!(
        "paper's k = {} (g = {:.2}) gives {} rounds; sweep optimum {} rounds at k = {}",
        auto.params.k,
        auto.params.g_value,
        auto.total_rounds(),
        best.0,
        best.1
    ));
    t.note("decomposition cost falls with k while A's cost rises: the crossover is g(n)");
    t
}

/// E11: the ρ trade-off of Theorem 15.
pub fn e11(size: ExperimentSize, driver: &Driver) -> Table {
    let side = match size {
        ExperimentSize::Quick => 14usize,
        ExperimentSize::Full => 40,
    };
    let g = triangulated_grid(side, side);
    let a = 3usize;
    let mut t = Table::new(
        "E11",
        format!("rho-sweep on a triangulated grid ({side}x{side}, a = {a})"),
        &["rho", "problem", "k", "decomp", "A", "total", "valid"],
    );
    let rhos: [u32; 4] = [1, 2, 3, 4];
    let results = driver.map(&rhos, |&rho| {
        let m = ArbTransform::new(&MaximalMatching, &MatchingAlgo).with_rho(rho).run(&g, a);
        assert!(m.valid);
        let matching_row = vec![
            rho.to_string(),
            "matching".into(),
            m.params.k.to_string(),
            m.executed.rounds_of("decomposition(Alg3)").to_string(),
            m.executed.rounds_with_prefix("A/").to_string(),
            m.total_rounds().to_string(),
            m.valid.to_string(),
        ];
        let c = ArbTransform::new(&EdgeDegreeColoring, &EdgeColoringAlgo).with_rho(rho).run(&g, a);
        assert!(c.valid);
        let coloring_row = vec![
            rho.to_string(),
            "edge-col".into(),
            c.params.k.to_string(),
            c.executed.rounds_of("decomposition(Alg3)").to_string(),
            c.executed.rounds_with_prefix("A/").to_string(),
            c.total_rounds().to_string(),
            c.valid.to_string(),
        ];
        JobOutput::from_rows(vec![matching_row, coloring_row])
    });
    collect_rows(&mut t, results);
    t.note("at simulable n the k >= 5a floor dominates g^rho, so rho is invisible here; see the model rows of E11b");
    t
}

/// E11b: the analytic ρ trade-off of Theorem 15 at asymptotic sizes, where
/// the `ρ > log_g a` regime condition and the `ρ/(ρ − log_g a)` factor are
/// visible.
pub fn e11_model(_size: ExperimentSize) -> Table {
    use treelocal_core::{arb_bound_log2, solve_log2_g};
    let bbko = |x: f64| x.max(1e-12).powi(12);
    let l2n = 1e5f64;
    let a = 8.0f64;
    let mut t = Table::new(
        "E11b",
        format!("Theorem 15 rho trade-off (model, log2 n = {l2n:.0e}, a = {a})"),
        &["rho", "log_g(a)", "in-regime", "bound"],
    );
    let lg = solve_log2_g(l2n, bbko);
    for rho in 1..=4u32 {
        let log_g_a = a.log2() / lg;
        let ok = f64::from(rho) > log_g_a;
        let bound = if ok {
            crate::table::fnum(arb_bound_log2(l2n, a, f64::from(rho), bbko))
        } else {
            "out of regime".to_string()
        };
        t.row(vec![rho.to_string(), crate::table::fnum(log_g_a), ok.to_string(), bound]);
    }
    t.note("rho must exceed log_g(a) (the paper's a <= g^rho/5 regime); rho = 2 suffices for a <= g, which is why Theorem 3 uses it");
    t
}

/// E12: `log*`-round substrate primitives.
pub fn e12(size: ExperimentSize, driver: &Driver) -> Table {
    let ns: &[usize] = match size {
        ExperimentSize::Quick => &[1_000],
        ExperimentSize::Full => &[1_000, 10_000, 100_000, 1_000_000],
    };
    let mut t = Table::new(
        "E12",
        "substrate: Linial + Cole-Vishkin rounds vs log*(id space)",
        &["n", "ids", "log*", "linial-rounds", "linial-colors", "cv-rounds"],
    );
    let jobs: Vec<(usize, u8)> = ns.iter().flat_map(|&n| [(n, 0u8), (n, 1)]).collect();
    let results = driver.map(&jobs, |&(n, kind)| {
        let (label, strat) = match kind {
            0 => ("seq", IdStrategy::Sequential),
            _ => ("sparse", IdStrategy::Sparse { seed: 5 }),
        };
        let g = relabel(&random_tree(n, 3), strat);
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let forest = root_forest(&g);
        let cv = three_color_rooted(&ctx, &forest);
        JobOutput::from_row(vec![
            n.to_string(),
            label.to_string(),
            log_star_u64(ctx.id_space).to_string(),
            lin.rounds.to_string(),
            fnum(lin.final_bound as f64),
            cv.rounds.to_string(),
        ])
    });
    collect_rows(&mut t, results);
    t.note("both primitives track log* + O(1): doubling n barely moves the rounds");
    t
}

/// E14: the truly local premise itself — rounds of the inner algorithms as
/// a function of Δ at (nearly) fixed n, on balanced Δ-regular trees.
pub fn e14(size: ExperimentSize, driver: &Driver) -> Table {
    use treelocal_core::direct_baseline;
    use treelocal_gen::balanced_regular_tree;
    use treelocal_problems::{MaximalMatching, Mis};
    let n = match size {
        ExperimentSize::Quick => 2_000,
        ExperimentSize::Full => 20_000,
    };
    let mut t = Table::new(
        "E14",
        format!("truly local complexity: direct-A rounds vs Δ on balanced trees (n ≈ {n})"),
        &["delta", "mis-rounds", "mis/(ΔlogΔ)", "matching-rounds"],
    );
    let deltas: [usize; 8] = [3, 4, 6, 8, 12, 16, 24, 32];
    let results = driver.map(&deltas, |&delta| {
        let tree = balanced_regular_tree(delta, n);
        let mis = direct_baseline(&Mis, &MisAlgo, &tree);
        assert!(mis.valid);
        let mat = direct_baseline(&MaximalMatching, &MatchingAlgo, &tree);
        assert!(mat.valid);
        let d = delta as f64;
        JobOutput::from_row(vec![
            delta.to_string(),
            mis.total_rounds().to_string(),
            fnum(mis.total_rounds() as f64 / (d * (d + 2.0).log2())),
            mat.total_rounds().to_string(),
        ])
    });
    collect_rows(&mut t, results);
    t.note("the normalized MIS column stays bounded: the implemented inner algorithm really is f(Δ) = Θ(Δ log Δ)");
    t.note(
        "this Δ-dependence is exactly what the transformation trades against log_k n via k = g(n)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_tables_quick() {
        let driver = Driver::sequential();
        for table in [
            e10(ExperimentSize::Quick, &driver),
            e11(ExperimentSize::Quick, &driver),
            e12(ExperimentSize::Quick, &driver),
            e14(ExperimentSize::Quick, &driver),
        ] {
            assert!(!table.rows.is_empty(), "{}", table.id);
        }
    }

    #[test]
    fn e14_normalized_column_is_bounded() {
        let t = e14(ExperimentSize::Quick, &Driver::sequential());
        for row in &t.rows {
            let ratio: f64 = row[2].parse().unwrap();
            assert!(ratio > 0.1 && ratio < 40.0, "ratio {ratio} out of band");
        }
    }

    #[test]
    fn e10_paper_k_is_marked() {
        let t = e10(ExperimentSize::Quick, &Driver::sequential());
        let marked = t.rows.iter().filter(|r| r.last().map(String::as_str) == Some("true")).count();
        assert!(marked <= 1, "at most one row is the paper's k");
    }
}
