//! Invariants that must hold with debug assertions compiled **out**.
//!
//! These checks are hard `assert!`s or named invariants, never
//! `debug_assert!`s, and the tests below verify them without relying on
//! `cfg(debug_assertions)` in any way, so they pin the release behavior
//! too (CI additionally runs the sim tests under `--release`, the core's
//! double-seed unit tests among them).

use treelocal_graph::{NodeId, Topology};
use treelocal_sim::{par, run, Ctx, Ports, SyncAlgorithm, Verdict};

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// Every node is awake from the start, and every step asks to sleep.
struct SleepyStep;
impl<T: Topology> SyncAlgorithm<T> for SleepyStep {
    type State = u32;
    fn init(&self, _ctx: &Ctx<T>, _v: NodeId) -> Verdict<u32> {
        Verdict::Active(0)
    }
    fn step(
        &self,
        _ctx: &Ctx<T>,
        _v: NodeId,
        _round: u64,
        own: u32,
        _prev: &Ports<'_, u32>,
    ) -> Verdict<u32> {
        Verdict::SleepUntil(own, 5)
    }
}

/// Only seeding may put a node to sleep. A step that returned
/// `SleepUntil` would drop an awake node from every later round without
/// halting it, so the run fails a named invariant in every profile, on
/// the pool as well as inline.
#[test]
fn a_step_that_sleeps_fails_its_invariant_in_every_profile() {
    // Above the pool threshold, so two threads really split the round.
    let g = treelocal_gen::path(2048);
    let ctx = Ctx::of(&g);
    for threads in [1, 2] {
        let result = std::panic::catch_unwind(|| {
            par::with_threads(threads, || run(&ctx, &SleepyStep, 10).rounds)
        });
        let payload = result.expect_err("a sleeping step verdict must be rejected");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("(sleep-at-seed)"), "unexpected panic with {threads} threads: {msg}");
    }
}
