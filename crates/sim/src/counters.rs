//! Process-wide execution counters for progress reporting.
//!
//! Long experiment runs (the `treelocal-bench` driver, the million-node
//! smoke tier) want to show *how much simulation work* has happened, not
//! just how many jobs finished. Every [`ExecCore`](crate::ExecCore) round
//! — in both the snapshot and the message engine — bumps two global
//! relaxed atomics:
//!
//! * **rounds executed** — one per communication round of any run,
//! * **node steps** — the number of frontier (non-halted) nodes that round
//!   visited, i.e. the actual unit of simulation work after frontier
//!   shrinking, and
//! * **send steps** — the number of frontier nodes whose outgoing messages
//!   the message engine ([`run_messages`](crate::run_messages)) materialized
//!   and routed. The snapshot engine has no send phase, so for it this
//!   counter stays flat; for the message engine every round does roughly
//!   *twice* the per-node work (send + receive), and a progress reporter
//!   that only saw receive steps would underestimate message-heavy jobs.
//!
//! The counters are monotone, cumulative over the whole process, and never
//! reset (concurrent runs interleave their increments); callers that want
//! a per-phase figure take a [`snapshot`] before and after and subtract.
//! One `fetch_add` per *round phase* (not per node) keeps the overhead
//! unmeasurable next to stepping even a single node, and makes every
//! counter independent of the pool size: a parallel send or receive phase
//! records exactly the same totals as a sequential one
//! (`crates/sim/tests/msg_counters.rs` pins this).

use std::sync::atomic::{AtomicU64, Ordering};

static ROUNDS: AtomicU64 = AtomicU64::new(0);
static NODE_STEPS: AtomicU64 = AtomicU64::new(0);
static SEND_STEPS: AtomicU64 = AtomicU64::new(0);

/// Records one executed round that stepped `frontier` nodes (called by
/// [`ExecCore::begin_round`](crate::ExecCore::begin_round)).
pub(crate) fn record_round(frontier: u64) {
    ROUNDS.fetch_add(1, Ordering::Relaxed);
    NODE_STEPS.fetch_add(frontier, Ordering::Relaxed);
}

/// Total communication rounds executed by this process so far, across all
/// runs and both engines.
pub fn rounds_executed() -> u64 {
    ROUNDS.load(Ordering::Relaxed)
}

/// Records one message-engine send phase that materialized and routed the
/// outgoing messages of `frontier` nodes (called once per round by
/// [`run_messages`](crate::run_messages)).
pub(crate) fn record_send_round(frontier: u64) {
    SEND_STEPS.fetch_add(frontier, Ordering::Relaxed);
}

/// Total frontier-node steps executed by this process so far (the sum of
/// frontier sizes over all executed rounds).
pub fn node_steps() -> u64 {
    NODE_STEPS.load(Ordering::Relaxed)
}

/// Total message-engine send-phase node steps executed by this process so
/// far (the sum of frontier sizes over all executed send phases; zero in a
/// process that only ran the snapshot engine).
pub fn send_steps() -> u64 {
    SEND_STEPS.load(Ordering::Relaxed)
}

/// All counters in one call: `(rounds_executed, node_steps, send_steps)`.
pub fn snapshot() -> (u64, u64, u64) {
    (rounds_executed(), node_steps(), send_steps())
}

/// Total endpoint bytes ingested by streamed graph builds — the
/// construction-side work counter, re-exported from
/// [`treelocal_graph::stats`] so drivers read every counter through one
/// module. Generation-heavy suites (big Prüfer sweeps) spend most of
/// their wall clock here, invisible to the round/step counters above.
pub fn bytes_ingested() -> u64 {
    treelocal_graph::stats::bytes_ingested()
}

/// Largest single-build allocation footprint (bytes) seen by streamed
/// graph builds, re-exported from [`treelocal_graph::stats`].
pub fn peak_build_bytes() -> u64 {
    treelocal_graph::stats::peak_build_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecCore, Verdict};
    use treelocal_graph::NodeId;

    #[test]
    fn counters_advance_with_rounds_and_frontier_sizes() {
        // Other tests in the same process advance the globals concurrently,
        // so assert on deltas being *at least* what this run contributes.
        let (r0, s0, _) = snapshot();
        let mut core: ExecCore<u32> = ExecCore::new(3);
        for i in 0..3 {
            core.seed(NodeId::new(i), Verdict::Active(0));
        }
        // Round 1 steps 3 nodes (node 0 halts), round 2 steps 2.
        core.begin_round(10);
        core.step_snapshot(|v, own, _| {
            if v.index() == 0 {
                Verdict::Halted(own)
            } else {
                Verdict::Active(own + 1)
            }
        });
        core.begin_round(10);
        core.step_snapshot(|_, own, _| Verdict::Halted(own));
        let (r1, s1, _) = snapshot();
        assert!(r1 >= r0 + 2, "rounds {r0} -> {r1}");
        assert!(s1 >= s0 + 5, "steps {s0} -> {s1}");
    }
}
