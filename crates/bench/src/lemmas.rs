//! Experiments E1–E5: the decomposition lemmas, measured.
//!
//! | id | claim |
//! |----|-------|
//! | E1 | Lemma 9: Algorithm 1 marks all nodes within `⌈log_k n⌉ + 1` iterations |
//! | E2 | Lemma 10: compress-edge subgraph has max degree ≤ k |
//! | E3 | Lemma 11: raked components have diameter ≤ 4(log_k n + 1) + 2 |
//! | E4 | Lemma 13: Algorithm 3 marks all nodes within `⌈10·log_{k/a} n⌉ + 1` iterations |
//! | E5 | Lemma 14 + star property: typical degree ≤ k, ≤ 2a atypical per node, `F_{i,j}` are stars |
//!
//! Every experiment is a list of independent jobs on the [`Driver`] (a
//! workload paired with its parameter sweep point) whose [`JobOutput`]s are
//! aggregated in job order, so tables are identical for every pool size.
//! Workload *generation* runs on the pool too.

use crate::driver::{collect_rows, Driver, JobOutput};
use crate::table::{fnum, Table};
use crate::ExperimentSize;
use treelocal_decomp::{
    arb_decompose, check_star_property, compress_edge_max_degree, lemma11_bound, lemma13_bound,
    lemma9_bound, max_atypical_to_higher, rake_compress, raked_component_max_diameter,
    split_atypical, typical_max_degree,
};
use treelocal_gen::{
    balanced_regular_tree, grid, random_arboricity_graph, random_tree, triangulated_grid,
};
use treelocal_graph::Graph;

/// Tree workloads, generated on the pool (generation itself is a job).
fn tree_workloads(size: ExperimentSize, driver: &Driver) -> Vec<(String, Graph)> {
    let ns: &[usize] = match size {
        ExperimentSize::Quick => &[1_000],
        ExperimentSize::Full => &[1_000, 10_000, 100_000],
    };
    let specs: Vec<(usize, u8)> = ns.iter().flat_map(|&n| [(n, 0u8), (n, 1), (n, 2)]).collect();
    driver.map(&specs, |&(n, kind)| match kind {
        0 => (format!("random/{n}"), random_tree(n, 1)),
        1 => (format!("bal-d8/{n}"), balanced_regular_tree(8, n)),
        _ => (format!("path/{n}"), treelocal_gen::path(n)),
    })
}

/// The `(workload, k)` job grid shared by E1–E3.
fn k_sweep_jobs(workloads: &[(String, Graph)]) -> Vec<(usize, usize)> {
    (0..workloads.len()).flat_map(|w| [2usize, 4, 16].map(|k| (w, k))).collect()
}

/// E1: Lemma 9 iterations vs bound.
pub fn e1(size: ExperimentSize, driver: &Driver) -> Table {
    let mut t = Table::new(
        "E1",
        "Lemma 9: rake-and-compress iterations vs ceil(log_k n)+1",
        &["workload", "n", "k", "iterations", "bound", "holds"],
    );
    let workloads = tree_workloads(size, driver);
    let results = driver.map(&k_sweep_jobs(&workloads), |&(w, k)| {
        let (name, g) = &workloads[w];
        let rc = rake_compress(g, k);
        let bound = lemma9_bound(g.node_count(), k);
        let ok = u64::from(rc.iterations) <= bound;
        JobOutput::from_row(vec![
            name.clone(),
            g.node_count().to_string(),
            k.to_string(),
            rc.iterations.to_string(),
            bound.to_string(),
            ok.to_string(),
        ])
        .with_holds(ok)
    });
    let all = collect_rows(&mut t, results);
    t.note(format!("Lemma 9 holds on all instances: {all}"));
    t
}

/// E2: Lemma 10 degrees vs k.
pub fn e2(size: ExperimentSize, driver: &Driver) -> Table {
    let mut t = Table::new(
        "E2",
        "Lemma 10: max degree of compress-edge subgraph vs k",
        &["workload", "n", "k", "max-degree", "holds"],
    );
    let workloads = tree_workloads(size, driver);
    let results = driver.map(&k_sweep_jobs(&workloads), |&(w, k)| {
        let (name, g) = &workloads[w];
        let rc = rake_compress(g, k);
        let d = compress_edge_max_degree(g, &rc);
        let ok = d <= k;
        JobOutput::from_row(vec![
            name.clone(),
            g.node_count().to_string(),
            k.to_string(),
            d.to_string(),
            ok.to_string(),
        ])
        .with_holds(ok)
    });
    let all = collect_rows(&mut t, results);
    t.note(format!("Lemma 10 holds on all instances: {all}"));
    t
}

/// E3: Lemma 11 diameters vs bound.
pub fn e3(size: ExperimentSize, driver: &Driver) -> Table {
    let mut t = Table::new(
        "E3",
        "Lemma 11: raked-component diameter vs 4(log_k n + 1) + 2",
        &["workload", "n", "k", "max-diameter", "bound", "holds"],
    );
    let workloads = tree_workloads(size, driver);
    let results = driver.map(&k_sweep_jobs(&workloads), |&(w, k)| {
        let (name, g) = &workloads[w];
        let rc = rake_compress(g, k);
        let d = raked_component_max_diameter(g, &rc);
        let bound = lemma11_bound(g.node_count(), k);
        let ok = d <= bound;
        JobOutput::from_row(vec![
            name.clone(),
            g.node_count().to_string(),
            k.to_string(),
            d.to_string(),
            bound.to_string(),
            ok.to_string(),
        ])
        .with_holds(ok)
    });
    let all = collect_rows(&mut t, results);
    t.note(format!("Lemma 11 holds on all instances: {all}"));
    t
}

fn arb_workloads(size: ExperimentSize, driver: &Driver) -> Vec<(String, Graph, usize)> {
    let scale = match size {
        ExperimentSize::Quick => 1usize,
        ExperimentSize::Full => 4,
    };
    let side = 20 * scale;
    let n = 400 * scale * scale;
    let specs: [u8; 5] = [0, 1, 2, 3, 4];
    driver.map(&specs, |&kind| match kind {
        0 => (format!("tree/{n}"), random_tree(n, 2), 1),
        1 => (format!("grid/{}x{}", side, side), grid(side, side), 2),
        2 => (format!("tri/{}x{}", side, side), triangulated_grid(side, side), 3),
        3 => (format!("union2/{n}"), random_arboricity_graph(n, 2, 3), 2),
        _ => (format!("union4/{n}"), random_arboricity_graph(n, 4, 3), 4),
    })
}

/// E4: Lemma 13 iterations vs bound.
pub fn e4(size: ExperimentSize, driver: &Driver) -> Table {
    let mut t = Table::new(
        "E4",
        "Lemma 13: (b,k)-decomposition iterations vs ceil(10 log_{k/a} n)+1",
        &["workload", "n", "a", "k", "iterations", "bound", "holds"],
    );
    let workloads = arb_workloads(size, driver);
    let jobs: Vec<(usize, usize)> =
        (0..workloads.len()).flat_map(|w| [5usize, 8].map(|mult| (w, mult))).collect();
    let results = driver.map(&jobs, |&(w, mult)| {
        let (name, g, a) = &workloads[w];
        let k = mult * a;
        let d = arb_decompose(g, *a, k);
        let bound = lemma13_bound(g.node_count(), *a, k);
        let ok = u64::from(d.iterations) <= bound;
        JobOutput::from_row(vec![
            name.clone(),
            g.node_count().to_string(),
            a.to_string(),
            k.to_string(),
            d.iterations.to_string(),
            bound.to_string(),
            ok.to_string(),
        ])
        .with_holds(ok)
    });
    let all = collect_rows(&mut t, results);
    t.note(format!("Lemma 13 holds on all instances: {all}"));
    t
}

/// E5: Lemma 14 + atypical budget + star property.
pub fn e5(size: ExperimentSize, driver: &Driver) -> Table {
    let mut t = Table::new(
        "E5",
        "Lemma 14 & Section 4: typical degree <= k, atypical/node <= 2a, F_ij are stars",
        &["workload", "a", "k", "typ-deg", "atyp/node", "atyp-frac", "stars-ok"],
    );
    let workloads = arb_workloads(size, driver);
    let results = driver.map(&workloads, |(name, g, a)| {
        let k = 5 * a;
        let d = arb_decompose(g, *a, k);
        let typ = typical_max_degree(g, &d);
        let per_node = max_atypical_to_higher(g, &d);
        let split = split_atypical(g, &d);
        let stars = check_star_property(g, &d, &split);
        let frac = d.atypical_edges().len() as f64 / g.edge_count().max(1) as f64;
        let ok = typ <= k && per_node <= 2 * a && stars;
        JobOutput::from_row(vec![
            name.clone(),
            a.to_string(),
            k.to_string(),
            typ.to_string(),
            per_node.to_string(),
            fnum(frac),
            stars.to_string(),
        ])
        .with_holds(ok)
    });
    let all = collect_rows(&mut t, results);
    t.note(format!("all structural claims hold: {all}"));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma_tables_report_success() {
        let driver = Driver::sequential();
        for table in [
            e1(ExperimentSize::Quick, &driver),
            e2(ExperimentSize::Quick, &driver),
            e3(ExperimentSize::Quick, &driver),
            e4(ExperimentSize::Quick, &driver),
            e5(ExperimentSize::Quick, &driver),
        ] {
            assert!(!table.rows.is_empty());
            assert!(
                table.notes.iter().any(|n| n.contains("true")),
                "{}: {:?}",
                table.id,
                table.notes
            );
            // No row reports a violated bound.
            assert!(table.rows.iter().all(|r| r.last().map(String::as_str) != Some("false")));
        }
    }
}
