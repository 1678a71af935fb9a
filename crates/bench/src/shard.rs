//! Sharding of experiment suites across the vendored rayon pool.
//!
//! An experiment is a list of independent jobs — `(instance, pipeline,
//! seed)` tuples in spirit — whose results become table rows. [`shard_map`]
//! runs the jobs on `threads` pool workers and returns results **by job
//! index**, so a sharded table is cell-for-cell identical to a sequential
//! one for every pool size (pinned by the `sharded_tables_are_identical`
//! test in `lib.rs`).

/// Maps `f` over `jobs` on `threads` workers, results in job order.
///
/// This is the partition primitive the driver and every experiment suite
/// build on: each job index is claimed by exactly one worker, and results
/// are assembled **by job index**, so the output equals a sequential map
/// for every pool size (pinned by `tests/shard_props.rs`).
pub fn shard_map<J, R, F>(threads: usize, jobs: &[J], f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    treelocal_sim::par::par_map(jobs, threads, |_, j| f(j))
}
