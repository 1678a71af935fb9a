//! Exact work-counter accounting for the message engine.
//!
//! The process-wide counters (`treelocal_sim::counters`) are what the
//! bench driver's progress/ETA lines report, so three properties are pinned
//! *exactly* here:
//!
//! * a message run records the states it sends — one per participant at
//!   seeding, then one per node step — while the snapshot engine records
//!   none;
//! * every counter total is **pool-size-invariant**: a run adds its
//!   totals once, when it finishes, never per worker;
//! * node steps count only awake nodes: a sleeper counts in the one round
//!   it steps, not in the rounds it waits.
//!
//! The counters are global and monotone, so every test in this binary
//! serializes on one mutex; keep counter-oblivious tests out of this file.

use std::sync::Mutex;
use treelocal_gen::{caterpillar, path, random_tree, relabel, IdStrategy};
use treelocal_graph::{widen_u64, NodeId, Topology};
use treelocal_sim::{counters, par, run, run_messages, Ctx, Ports, SyncAlgorithm, Verdict};

/// Serializes the tests in this binary so counter deltas are attributable.
/// `unwrap_or_else(into_inner)` keeps later tests meaningful if an earlier
/// one panics.
static LOCK: Mutex<()> = Mutex::new(());

/// Halts node `v` at round `local_id(v)`: on `path(n)` (ids `1..=n`) round
/// `r` steps exactly the `n - r + 1` nodes with id `>= r`, making every
/// counter total a closed-form number.
struct HaltAtId;

impl<T: Topology> SyncAlgorithm<T> for HaltAtId {
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
        prev: &Ports<'_, u64>,
    ) -> Verdict<u64> {
        let acc = prev.iter().fold(own, u64::wrapping_add);
        if round >= ctx.topo.local_id(v) {
            Verdict::Halted(acc)
        } else {
            Verdict::Active(acc)
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
    // Frontier sizes 5, 4, 3, 2, 1: one round each. Every node sends its
    // seeded row, then its new row after each round it steps.
    assert_eq!(r1 - r0, 5, "rounds");
    assert_eq!(s1 - s0, 15, "node steps");
    assert_eq!(m1 - m0, 5 + 15, "send steps");
}

#[test]
fn snapshot_engine_records_no_send_steps() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = path(5);
    let ctx = Ctx::of(&g);
    let (r0, s0, m0) = counters::snapshot();
    let out = run(&ctx, &HaltAtId, 10);
    let (r1, s1, m1) = counters::snapshot();
    assert_eq!(out.rounds, 5);
    assert_eq!(r1 - r0, 5, "rounds");
    assert_eq!(s1 - s0, 15, "node steps");
    assert_eq!(m1 - m0, 0, "the snapshot engine sends nothing");
}

/// [`HaltAtId`] with every node asleep until its halting round.
struct SleepUntilId;

impl<T: Topology> SyncAlgorithm<T> for SleepUntilId {
    type State = u64;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
        let id = ctx.topo.local_id(v);
        Verdict::SleepUntil(id, id)
    }

    fn step(
        &self,
        _ctx: &Ctx<T>,
        _v: NodeId,
        _round: u64,
        own: u64,
        _prev: &Ports<'_, u64>,
    ) -> Verdict<u64> {
        Verdict::Halted(own)
    }
}

#[test]
fn sleepers_count_only_the_round_they_step() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = path(5);
    let ctx = Ctx::of(&g);
    let (r0, s0, _) = counters::snapshot();
    let out = run(&ctx, &SleepUntilId, 10);
    let (r1, s1, m1) = counters::snapshot();
    // The same five rounds as the polling run above, one step each.
    assert_eq!(out.rounds, 5);
    assert_eq!(r1 - r0, 5, "rounds");
    assert_eq!(s1 - s0, 5, "node steps");
    // A sleeper sends its seeded row once, then nothing until it steps.
    run_messages(&ctx, &SleepUntilId, 10);
    let (r2, s2, m2) = counters::snapshot();
    assert_eq!((r2 - r1, s2 - s1, m2 - m1), (5, 5, 5 + 5), "message run");
}

/// [`HaltAtId`] with bounded staggering (halt at round `id % 13 + 1`): the
/// frontier shrinks irregularly but the run stays short on large trees.
struct HaltStaggered;

impl<T: Topology> SyncAlgorithm<T> for HaltStaggered {
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
        prev: &Ports<'_, u64>,
    ) -> Verdict<u64> {
        let acc = prev.iter().fold(own, u64::wrapping_add);
        if round > ctx.topo.local_id(v) % 13 {
            Verdict::Halted(acc)
        } else {
            Verdict::Active(acc)
        }
    }
}

#[test]
fn counter_totals_are_pool_size_invariant() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for g in
        [relabel(&random_tree(2500, 23), IdStrategy::Permuted { seed: 23 }), caterpillar(1200, 1)]
    {
        let ctx = Ctx::of(&g);
        let mut per_pool = Vec::new();
        for threads in [1usize, 2, 4, par::auto_threads()] {
            let before = counters::snapshot();
            let out = par::with_threads(threads, || run_messages(&ctx, &HaltStaggered, 100));
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
        // Every node sends at seeding and after each of its steps.
        assert_eq!(reference.2, widen_u64(g.node_count()) + reference.1, "send steps");
    }
}
