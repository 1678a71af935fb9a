//! Exact work-counter accounting for the message engine.
//!
//! The process-wide counters (`treelocal_sim::counters`) are what the
//! bench driver's progress/ETA lines report, so two properties are pinned
//! *exactly* here:
//!
//! * a message run records its send-phase work — one send step per
//!   frontier node per round, symmetric with the receive-side node steps —
//!   while the snapshot engine records none;
//! * every counter total is **pool-size-invariant**: phases count once per
//!   round, never per worker.
//!
//! The counters are global and monotone, so every test in this binary
//! serializes on one mutex; keep counter-oblivious tests out of this file.

use std::sync::Mutex;
use treelocal_gen::path;
use treelocal_graph::{NodeId, Topology};
use treelocal_sim::{
    counters, run, run_messages, Ctx, MessageAlgorithm, Snapshot, SyncAlgorithm, Verdict,
};

/// Serializes the tests in this binary so counter deltas are attributable.
/// `unwrap_or_else(into_inner)` keeps later tests meaningful if an earlier
/// one panics.
static LOCK: Mutex<()> = Mutex::new(());

/// Halts node `v` at round `local_id(v)`: on `path(n)` (ids `1..=n`) round
/// `r` steps exactly the `n - r + 1` nodes with id `>= r`, making every
/// counter total a closed-form number.
struct HaltAtId;

impl<T: Topology> MessageAlgorithm<T> for HaltAtId {
    type State = u64;
    type Msg = u64;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> u64 {
        ctx.topo.local_id(v)
    }

    fn send(&self, ctx: &Ctx<T>, v: NodeId, _round: u64, state: &u64) -> Vec<Option<u64>> {
        vec![Some(*state); ctx.topo.degree(v)]
    }

    fn receive(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        state: u64,
        inbox: &[Option<u64>],
    ) -> Verdict<u64> {
        let acc = inbox.iter().flatten().fold(state, |a, &m| a.wrapping_add(m));
        if round >= ctx.topo.local_id(v) {
            Verdict::Halted(acc)
        } else {
            Verdict::Active(acc)
        }
    }
}

struct HaltAtIdSnap;

impl<T: Topology> SyncAlgorithm<T> for HaltAtIdSnap {
    type State = u64;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
        Verdict::Active(ctx.topo.local_id(v))
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: u64,
        _prev: &Snapshot<'_, u64>,
    ) -> Verdict<u64> {
        if round >= ctx.topo.local_id(v) {
            Verdict::Halted(own)
        } else {
            Verdict::Active(own)
        }
    }
}

#[test]
fn message_run_counter_totals_are_exact() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = path(5);
    let ctx = Ctx::of(&g);
    let (r0, s0, m0) = counters::snapshot();
    let out = run_messages(&ctx, &HaltAtId, 10);
    let (r1, s1, m1) = counters::snapshot();
    assert_eq!(out.rounds, 5);
    // Frontier sizes 5, 4, 3, 2, 1: one round each, stepped once in the
    // send phase and once in the receive phase.
    assert_eq!(r1 - r0, 5, "rounds");
    assert_eq!(s1 - s0, 15, "receive-side node steps");
    assert_eq!(m1 - m0, 15, "send steps");
}

#[test]
fn snapshot_engine_records_no_send_steps() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = path(5);
    let ctx = Ctx::of(&g);
    let (r0, s0, m0) = counters::snapshot();
    let out = run(&ctx, &HaltAtIdSnap, 10);
    let (r1, s1, m1) = counters::snapshot();
    assert_eq!(out.rounds, 5);
    assert_eq!(r1 - r0, 5, "rounds");
    assert_eq!(s1 - s0, 15, "node steps");
    assert_eq!(m1 - m0, 0, "the snapshot engine has no send phase");
}

/// [`HaltAtId`] with bounded staggering (halt at round `id % 13 + 1`): the
/// frontier shrinks irregularly but the run stays short on large trees.
#[cfg(feature = "parallel")]
struct HaltStaggered;

#[cfg(feature = "parallel")]
impl<T: Topology> MessageAlgorithm<T> for HaltStaggered {
    type State = u64;
    type Msg = u64;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> u64 {
        ctx.topo.local_id(v)
    }

    fn send(&self, ctx: &Ctx<T>, v: NodeId, _round: u64, state: &u64) -> Vec<Option<u64>> {
        vec![Some(*state); ctx.topo.degree(v)]
    }

    fn receive(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        state: u64,
        inbox: &[Option<u64>],
    ) -> Verdict<u64> {
        let acc = inbox.iter().flatten().fold(state, |a, &m| a.wrapping_add(m));
        if round > ctx.topo.local_id(v) % 13 {
            Verdict::Halted(acc)
        } else {
            Verdict::Active(acc)
        }
    }
}

#[cfg(feature = "parallel")]
#[test]
fn counter_totals_are_pool_size_invariant() {
    use treelocal_gen::{caterpillar, random_tree, relabel, IdStrategy};
    use treelocal_sim::{par, run_messages_with_threads};
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for g in
        [relabel(&random_tree(2500, 23), IdStrategy::Permuted { seed: 23 }), caterpillar(1200, 1)]
    {
        let ctx = Ctx::of(&g);
        let mut per_pool = Vec::new();
        for threads in [1usize, 2, 4, par::auto_threads()] {
            let before = counters::snapshot();
            let out = run_messages_with_threads(&ctx, &HaltStaggered, 100, threads);
            let after = counters::snapshot();
            let delta = (
                after.0 - before.0,
                after.1 - before.1,
                after.2 - before.2,
                out.rounds,
                out.states().collect::<Vec<_>>(),
            );
            per_pool.push((threads, delta));
        }
        let (_, reference) = &per_pool[0];
        for (threads, delta) in &per_pool {
            assert_eq!(delta, reference, "counters diverge at pool size {threads}");
        }
        // Send and receive phases step the same frontiers.
        assert_eq!(reference.1, reference.2, "send steps must mirror node steps");
    }
}
