//! Process-wide execution counters of simulation work.
//!
//! The `perfbench` benchmark and the counter tests read *how much
//! simulation work* has happened, not just how many jobs finished. Every
//! engine run — [`run`](crate::run) and [`run_messages`](crate::run_messages)
//! alike — keeps its own totals and adds them to three global relaxed
//! atomics once, when the run finishes:
//!
//! * **rounds executed** — one per communication round of any run,
//! * **node steps** — the number of awake nodes each round stepped, i.e.
//!   the actual unit of simulation work: halted nodes and nodes asleep
//!   until a later wake round are not counted, and
//! * **send steps** — the number of states the message engine
//!   ([`run_messages`](crate::run_messages)) sent, one per sender: every
//!   participant once at seeding, then every node once per round it
//!   steps. A message run therefore records its participant count plus
//!   its node steps. The snapshot engine sends nothing, so for it this
//!   counter stays flat.
//!
//! The counters are monotone, cumulative over the whole process, and never
//! reset (concurrent runs interleave their additions); callers that want
//! a per-phase figure take a [`snapshot`] before and after and subtract.
//! A run's work shows up only once the run has finished, so a reading
//! taken in the middle of a run does not include that run: take the
//! deltas around whole runs. One `fetch_add` per counter *per run* keeps
//! the overhead unmeasurable, and makes every counter independent of the
//! pool size: a parallel run records exactly the same totals as a
//! sequential one (`crates/sim/tests/msg_counters.rs` pins this).

use std::sync::atomic::{AtomicU64, Ordering};

static ROUNDS: AtomicU64 = AtomicU64::new(0);
static NODE_STEPS: AtomicU64 = AtomicU64::new(0);
static SEND_STEPS: AtomicU64 = AtomicU64::new(0);

/// Adds one finished run's totals (called once per run, when the
/// execution core finishes).
pub(crate) fn record_run(rounds: u64, node_steps: u64, send_steps: u64) {
    ROUNDS.fetch_add(rounds, Ordering::Relaxed);
    NODE_STEPS.fetch_add(node_steps, Ordering::Relaxed);
    SEND_STEPS.fetch_add(send_steps, Ordering::Relaxed);
}

/// Total communication rounds executed by this process so far, across all
/// runs and both engines.
pub fn rounds_executed() -> u64 {
    ROUNDS.load(Ordering::Relaxed)
}

/// Total node steps executed by this process so far (the sum of awake
/// list sizes over all executed rounds; sleepers are not counted).
pub fn node_steps() -> u64 {
    NODE_STEPS.load(Ordering::Relaxed)
}

/// Total states sent by the message engine in this process so far (per
/// message run: its participants plus its node steps; zero in a process
/// that only ran the snapshot engine).
pub fn send_steps() -> u64 {
    SEND_STEPS.load(Ordering::Relaxed)
}

/// All counters in one call: `(rounds_executed, node_steps, send_steps)`.
pub fn snapshot() -> (u64, u64, u64) {
    (rounds_executed(), node_steps(), send_steps())
}

/// Total endpoint bytes ingested by streamed graph builds — the
/// construction-side work counter, re-exported from
/// [`treelocal_graph::stats`] so readers (`perfbench`, the tests) see
/// every counter through one module. Generation-heavy suites (big Prüfer
/// sweeps) spend most of their wall clock here, invisible to the
/// round/step counters above.
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
    use crate::{par, run, Ctx, Ports, SyncAlgorithm, Verdict};
    use treelocal_graph::{NodeId, Topology};

    /// Node 0 halts in round 1, every other node in round 2.
    struct TwoRounds;
    impl<T: Topology> SyncAlgorithm<T> for TwoRounds {
        type State = u32;
        fn init(&self, _ctx: &Ctx<T>, _v: NodeId) -> Verdict<u32> {
            Verdict::Active(0)
        }
        fn step(
            &self,
            _ctx: &Ctx<T>,
            v: NodeId,
            round: u64,
            own: u32,
            _prev: &Ports<'_, u32>,
        ) -> Verdict<u32> {
            if v.index() == 0 || round == 2 {
                Verdict::Halted(own)
            } else {
                Verdict::Active(own + 1)
            }
        }
    }

    #[test]
    fn counters_advance_with_rounds_and_frontier_sizes() {
        // Above the pool threshold, so two threads really split the rounds.
        let g = treelocal_gen::path(2048);
        let ctx = Ctx::of(&g);
        for threads in [1, 2] {
            // Other tests in the same process advance the globals
            // concurrently, so assert on deltas being *at least* what this
            // run contributes.
            let (r0, s0, _) = snapshot();
            // Round 1 steps 2048 nodes (node 0 halts), round 2 steps 2047.
            // A run's totals are added when it finishes.
            let out = par::with_threads(threads, || run(&ctx, &TwoRounds, 10));
            assert_eq!(out.rounds, 2);
            let (r1, s1, _) = snapshot();
            assert!(r1 >= r0 + 2, "{threads} threads: rounds {r0} -> {r1}");
            assert!(s1 >= s0 + 4095, "{threads} threads: steps {s0} -> {s1}");
        }
    }
}
