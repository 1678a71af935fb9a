//! The experiment harness regenerating every table/figure of the
//! reproduction (see the README's "Experiments and benchmarks" section).
//!
//! Run `cargo run --release -p treelocal-bench --bin experiments -- all`
//! to print every table, or pass experiment ids (`e1 e8 e10 ...`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
pub mod certs;
pub mod driver;
mod lemmas;
pub mod table;
mod theorems;

pub use certs::{cert_suite, emit_certs};
pub use driver::{Driver, JobOutput};
pub use table::Table;
pub use treelocal_sim::par::auto_threads;

/// How large the experiment workloads should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentSize {
    /// Small instances (well under a second; used by tests).
    Quick,
    /// The full sweeps behind the README's "Experiments and benchmarks"
    /// section (about 10 s on 2 pool workers and 15 s on one, on a 2-core
    /// host).
    Full,
}

/// All experiment ids, in presentation order.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec!["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14"]
}

/// Runs one experiment by id on a pool of [`auto_threads`] workers
/// (scope an explicit size with [`treelocal_sim::par::with_threads`]),
/// returning its table(s).
///
/// The experiment's workload suite is split into independent jobs executed
/// on pool workers and aggregated **by job index**, so the returned tables
/// are identical for every pool size.
///
/// # Panics
///
/// As [`run_experiment_with_driver`].
pub fn run_experiment(id: &str, size: ExperimentSize) -> Vec<Table> {
    run_experiment_with_driver(id, size, &Driver::with_threads(auto_threads()))
}

/// Runs one experiment by id on `driver`, returning its table(s).
///
/// The driver runs each suite's jobs on pool workers and aggregates the
/// results by job index, so the tables are identical for every pool size.
///
/// # Panics
///
/// Panics on an unknown id (callers validate against
/// [`all_experiment_ids`]), or if a pipeline produces an invalid solution —
/// an invariant violation, not a reportable outcome.
pub fn run_experiment_with_driver(id: &str, size: ExperimentSize, driver: &Driver) -> Vec<Table> {
    match id {
        "e1" => vec![lemmas::e1(size, driver)],
        "e2" => vec![lemmas::e2(size, driver)],
        "e3" => vec![lemmas::e3(size, driver)],
        "e4" => vec![lemmas::e4(size, driver)],
        "e5" => vec![lemmas::e5(size, driver)],
        "e6" => vec![theorems::e6(size, driver)],
        "e7" => vec![theorems::e7(size, driver)],
        "e8" => vec![theorems::e8_executed(size, driver), theorems::e8_model(size)],
        "e9" => vec![theorems::e9(size, driver)],
        "e10" => vec![ablations::e10(size, driver)],
        "e11" => vec![ablations::e11(size, driver), ablations::e11_model(size)],
        "e12" => vec![ablations::e12(size, driver)],
        "e13" => vec![theorems::e13(size, driver)],
        "e14" => vec![ablations::e14(size, driver)],
        // lint:allow(no-panic-in-lib): documented "# Panics" contract —
        // callers validate ids against all_experiment_ids first.
        other => panic!("unknown experiment id {other:?}; known: {:?}", all_experiment_ids()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_sim::par::with_threads;

    #[test]
    fn every_id_dispatches() {
        // Run the cheapest two to keep the unit test fast; the rest are
        // covered by their module tests.
        for id in ["e2", "e12"] {
            let tables = run_experiment(id, ExperimentSize::Quick);
            assert!(!tables.is_empty());
        }
        assert_eq!(all_experiment_ids().len(), 14);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiment("e99", ExperimentSize::Quick);
    }

    /// The sharding acceptance bar: pool sizes 1, 2 and the machine's auto
    /// size render cell-for-cell identical tables (there are no timing
    /// columns in experiment tables).
    #[test]
    fn sharded_tables_are_identical_across_pool_sizes() {
        for id in ["e2", "e7", "e12"] {
            let sequential = with_threads(1, || run_experiment(id, ExperimentSize::Quick));
            for threads in [2usize, auto_threads().max(4)] {
                let sharded = with_threads(threads, || run_experiment(id, ExperimentSize::Quick));
                assert_eq!(sequential, sharded, "{id} diverged at {threads} threads");
            }
        }
    }
}
