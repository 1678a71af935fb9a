//! Experiments E6–E9: the theorem-level round complexities, measured and
//! modeled.
//!
//! | id | claim |
//! |----|-------|
//! | E6 | Theorems 1/12: MIS and (deg+1)-coloring on trees in `O(f(g(n)) + log* n)`; with the implemented `f` the measured curve tracks `log n / log log n` |
//! | E7 | Section 5.2: maximal matching on trees in `O(log n / log log n)` via Theorem 15 |
//! | E8 | Theorem 3: (edge-degree+1)-edge coloring — executed pipeline + the `log^{12/13} n` model bound and its separation from the MIS/MM barrier |
//! | E9 | Theorem 3: `O(a + log^{12/13} n)` on bounded arboricity (planar included) |
//!
//! The measured experiments run as independent `(instance, pipeline,
//! seed)` jobs on the [`Driver`]'s queue, aggregated (rows and fit samples
//! alike) in job order, so tables are identical for every pool size. The
//! model tables (E8b) are arithmetic and stay sequential.

use crate::driver::{collect_rows, Driver, JobOutput};
use crate::table::{fnum, Table};
use crate::ExperimentSize;
use treelocal_algos::{DegColoringAlgo, MisAlgo};
use treelocal_core::{
    direct_baseline, edge_coloring_bounded_arboricity, edge_coloring_on_tree, fit_log_exponent,
    gather_baseline_node, matching_on_tree, mis_lower_bound_log2, mis_on_tree, tree_bound_log2,
    TreeTransform,
};
use treelocal_gen::{grid, random_arboricity_graph, random_tree, triangulated_grid};
use treelocal_graph::OrInvariant;
use treelocal_problems::{classic, DegPlusOneColoring, Mis};

fn n_sweep(size: ExperimentSize) -> Vec<usize> {
    match size {
        ExperimentSize::Quick => vec![1_000, 4_000],
        ExperimentSize::Full => vec![1_000, 4_000, 16_000, 64_000, 256_000],
    }
}

fn log_over_loglog(n: usize) -> f64 {
    let l = (n as f64).log2();
    l / l.log2()
}

/// E6: node problems on trees via Theorem 12.
pub fn e6(size: ExperimentSize, driver: &Driver) -> Table {
    let mut t = Table::new(
        "E6",
        "Theorem 12: MIS / (deg+1)-coloring on trees; rounds vs log n/log log n",
        &["shape", "n", "k", "mis-rounds", "mis/LL", "col-rounds", "direct", "gather"],
    );
    // Random trees plus the paper's lower-bound instances (balanced
    // regular trees, footnote 11).
    let jobs: Vec<(usize, u8)> =
        n_sweep(size).into_iter().flat_map(|n| [(n, 0u8), (n, 1)]).collect();
    let results = driver.map(&jobs, |&(n, kind)| {
        let (shape, tree) = match kind {
            0 => ("random", random_tree(n, 7)),
            _ => ("bal-d8", treelocal_gen::balanced_regular_tree(8, n)),
        };
        let mis = TreeTransform::new(&Mis, &MisAlgo).run(&tree);
        assert!(mis.valid);
        let col = TreeTransform::new(&DegPlusOneColoring, &DegColoringAlgo).run(&tree);
        assert!(col.valid);
        let direct = direct_baseline(&Mis, &MisAlgo, &tree);
        let gather = gather_baseline_node(&Mis, &tree);
        let ll = log_over_loglog(n);
        let mut out = JobOutput::from_row(vec![
            shape.to_string(),
            n.to_string(),
            mis.params.k.to_string(),
            mis.total_rounds().to_string(),
            fnum(mis.total_rounds() as f64 / ll),
            col.total_rounds().to_string(),
            direct.total_rounds().to_string(),
            gather.total_rounds().to_string(),
        ]);
        if shape == "random" {
            out = out.with_sample(((n as f64).log2(), mis.total_rounds() as f64));
        }
        out
    });
    let samples: Vec<(f64, f64)> =
        results.iter().flat_map(|out| out.samples.iter().copied()).collect();
    collect_rows(&mut t, results);
    if samples.len() >= 2 {
        let ratios: Vec<f64> = samples.iter().map(|&(l2n, r)| r / (l2n / l2n.log2())).collect();
        let (lo, hi) =
            ratios.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        let beta = fit_log_exponent(&samples);
        t.note(format!(
            "mis/LL ratio stays within [{lo:.2}, {hi:.2}] across a 256x size range — the \
             Θ(log n / log log n) shape (raw log-log slope {beta:.3}; the simulable range of \
             log n spans only ~1.5x, so the ratio, not the slope, is the meaningful fit)"
        ));
    }
    t.note("mis/LL = measured rounds / (log n / log log n)");
    t
}

/// E13: `(deg+1)`-list coloring on trees via Theorem 12 (the MT20-style
/// list problem the paper's footnote 9 points at).
pub fn e13(size: ExperimentSize, driver: &Driver) -> Table {
    use treelocal_algos::ListColoringAlgo;
    use treelocal_problems::ListColoring;
    let mut t = Table::new(
        "E13",
        "Theorem 12 on (deg+1)-list coloring (lists as node inputs)",
        &["n", "k", "rounds", "rounds/LL", "valid"],
    );
    let jobs = n_sweep(size);
    let results = driver.map(&jobs, |&n| {
        let tree = random_tree(n, 19);
        // Non-contiguous per-node lists with exactly deg+1 entries.
        let lists: Vec<Vec<u32>> = tree
            .node_ids()
            .map(|v| {
                let base = (v.index() as u32 % 7) + 1;
                (0..=(tree.degree(v) as u32)).map(|i| base + 3 * i).collect()
            })
            .collect();
        let p = ListColoring::new(&tree, lists).or_invariant("deg+1 lists fit the tree");
        let out = TreeTransform::new(&p, &ListColoringAlgo).run(&tree);
        assert!(out.valid);
        let ll = log_over_loglog(n);
        JobOutput::from_row(vec![
            n.to_string(),
            out.params.k.to_string(),
            out.total_rounds().to_string(),
            fnum(out.total_rounds() as f64 / ll),
            out.valid.to_string(),
        ])
    });
    collect_rows(&mut t, results);
    t.note("list constraints are per-node inputs; the transform machinery is unchanged (class P1)");
    t
}

/// E7: maximal matching on trees via Theorem 15.
pub fn e7(size: ExperimentSize, driver: &Driver) -> Table {
    let mut t = Table::new(
        "E7",
        "Section 5.2: maximal matching on trees, O(log n/log log n)",
        &["n", "k", "executed", "charged(PR01)", "charged/LL", "valid"],
    );
    let jobs = n_sweep(size);
    let results = driver.map(&jobs, |&n| {
        let tree = random_tree(n, 11);
        let (out, matching) = matching_on_tree(&tree);
        assert!(out.valid);
        assert!(classic::is_valid_maximal_matching(&tree, &matching));
        let charged = out.total_charged().unwrap_or(0);
        let ll = log_over_loglog(n);
        JobOutput::from_row(vec![
            n.to_string(),
            out.params.k.to_string(),
            out.total_rounds().to_string(),
            charged.to_string(),
            fnum(charged as f64 / ll),
            out.valid.to_string(),
        ])
        .with_sample(((n as f64).log2(), charged as f64))
    });
    let samples: Vec<(f64, f64)> =
        results.iter().flat_map(|out| out.samples.iter().copied()).collect();
    collect_rows(&mut t, results);
    if samples.len() >= 2 {
        let ratios: Vec<f64> = samples.iter().map(|&(l2n, r)| r / (l2n / l2n.log2())).collect();
        let (lo, hi) =
            ratios.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        t.note(format!(
            "charged/LL ratio stays within [{lo:.2}, {hi:.2}] — the O(log n / log log n) bound of Section 5.2"
        ));
    }
    t
}

/// E8a: the executed Theorem 3 pipeline at simulable sizes.
pub fn e8_executed(size: ExperimentSize, driver: &Driver) -> Table {
    let mut t = Table::new(
        "E8a",
        "Theorem 3 executed: (edge-degree+1)-edge coloring on trees",
        &["n", "k", "executed", "charged(BBKO)", "mis-rounds", "valid"],
    );
    let jobs = n_sweep(size);
    let results = driver.map(&jobs, |&n| {
        let tree = random_tree(n, 13);
        let (out, colors) = edge_coloring_on_tree(&tree);
        assert!(out.valid);
        assert!(classic::is_valid_edge_degree_coloring(&tree, &colors));
        let (mis, _) = mis_on_tree(&tree);
        JobOutput::from_row(vec![
            n.to_string(),
            out.params.k.to_string(),
            out.total_rounds().to_string(),
            out.total_charged().unwrap_or(0).to_string(),
            mis.total_rounds().to_string(),
            out.valid.to_string(),
        ])
    });
    collect_rows(&mut t, results);
    t.note("at simulable n the asymptotic separation is not yet visible (see E8b)");
    t
}

/// E8b: the analytic Theorem 3 bound at asymptotic sizes — the
/// `log^{12/13} n` shape and the separation crossover.
pub fn e8_model(_size: ExperimentSize) -> Table {
    let mut t = Table::new(
        "E8b",
        "Theorem 3 model: log^{12/13} n bound vs Omega(log n/log log n) barrier",
        &["log2(n)", "edge-col bound", "MIS barrier", "ratio", "winner"],
    );
    let bbko = |x: f64| x.max(1e-12).powi(12);
    let mut samples = Vec::new();
    for &l2n in &[1e6f64, 1e13, 1e20, 1e27, 1e34, 1e41, 1e48, 1e55] {
        let edge = tree_bound_log2(l2n, bbko);
        let barrier = mis_lower_bound_log2(l2n);
        samples.push((l2n, edge));
        t.row(vec![
            format!("{l2n:.0e}"),
            fnum(edge),
            fnum(barrier),
            fnum(edge / barrier),
            if edge < barrier { "edge-col".into() } else { "barrier".into() },
        ]);
    }
    let beta = fit_log_exponent(&samples[2..]);
    t.note(format!("fitted exponent {beta:.4} vs paper's 12/13 = {:.4}", 12.0 / 13.0));
    t.note("crossover: the transformed edge coloring dips below the MIS/MM barrier — the paper's separation");
    t
}

/// E9: Theorem 3 on bounded-arboricity graphs.
pub fn e9(size: ExperimentSize, driver: &Driver) -> Table {
    let mut t = Table::new(
        "E9",
        "Theorem 3 arboricity: O(a + log^{12/13} n) incl. planar-style graphs",
        &["workload", "n", "a", "k", "decomp", "split", "A", "stars", "total", "valid"],
    );
    let scale = match size {
        ExperimentSize::Quick => 1usize,
        ExperimentSize::Full => 3,
    };
    let side = 30 * scale;
    let n = 900 * scale * scale;
    let specs: [u8; 4] = [0, 1, 2, 3];
    let workloads: Vec<(String, treelocal_graph::Graph, usize)> =
        driver.map(&specs, |&kind| match kind {
            0 => (format!("grid/{side}x{side}"), grid(side, side), 2),
            1 => (format!("tri/{side}x{side}"), triangulated_grid(side, side), 3),
            2 => (format!("union2/{n}"), random_arboricity_graph(n, 2, 5), 2),
            _ => (format!("union4/{n}"), random_arboricity_graph(n, 4, 5), 4),
        });
    let results = driver.map(&workloads, |(name, g, a)| {
        let (out, colors) = edge_coloring_bounded_arboricity(g, *a);
        assert!(out.valid, "{name}");
        assert!(classic::is_valid_edge_degree_coloring(g, &colors), "{name}");
        JobOutput::from_row(vec![
            name.clone(),
            g.node_count().to_string(),
            a.to_string(),
            out.params.k.to_string(),
            out.executed.rounds_of("decomposition(Alg3)").to_string(),
            out.executed.rounds_of("forest-split(CV)").to_string(),
            out.executed.rounds_with_prefix("A/").to_string(),
            out.executed.rounds_of("star-groups(Alg4)").to_string(),
            out.total_rounds().to_string(),
            out.valid.to_string(),
        ])
    });
    collect_rows(&mut t, results);
    t.note("star-groups grows linearly with a (the O(a) term); the rest is n-driven");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_tables_quick() {
        let driver = Driver::sequential();
        for table in [
            e6(ExperimentSize::Quick, &driver),
            e7(ExperimentSize::Quick, &driver),
            e8_executed(ExperimentSize::Quick, &driver),
            e8_model(ExperimentSize::Quick),
            e9(ExperimentSize::Quick, &driver),
        ] {
            assert!(!table.rows.is_empty(), "{}", table.id);
        }
    }

    #[test]
    fn e8_model_shows_separation() {
        let t = e8_model(ExperimentSize::Quick);
        // At least one asymptotic row must have the edge coloring winning.
        assert!(t.rows.iter().any(|r| r.last().map(String::as_str) == Some("edge-col")));
        // ... and the small-n rows must not (the crossover exists).
        assert!(t.rows.iter().any(|r| r.last().map(String::as_str) == Some("barrier")));
    }
}
