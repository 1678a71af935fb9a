//! Invariants that must hold with debug assertions compiled **out**.
//!
//! `ExecCore::seed` used to guard double-seeding with a `debug_assert!`
//! only: in release builds a re-seeded Active node was silently pushed
//! onto the frontier twice and stepped twice per round from then on. The
//! guard is now a hard `assert!`; this test verifies the rejection without
//! relying on `cfg(debug_assertions)` in any way, so it pins the release
//! behavior too (CI additionally runs the sim tests under `--release`).

use treelocal_graph::NodeId;
use treelocal_sim::{ExecCore, Verdict};

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

#[test]
fn double_seeding_is_rejected_in_every_profile() {
    let result = std::panic::catch_unwind(|| {
        let mut core: ExecCore<u32> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(1));
        // Pre-fix, in release builds, this second seed went through and
        // node 0 sat on the frontier twice.
        core.seed(NodeId::new(0), Verdict::Active(2));
        core.awake().len()
    });
    match result {
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            assert!(msg.contains("seeded twice"), "unexpected panic: {msg}");
        }
        Ok(frontier_len) => panic!(
            "double seed was accepted (frontier length {frontier_len}); \
             the node would be stepped twice per round"
        ),
    }
}

#[test]
fn reseeding_a_halted_node_is_rejected_in_every_profile() {
    let result = std::panic::catch_unwind(|| {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Halted(7));
        core.seed(NodeId::new(0), Verdict::Active(1));
    });
    let payload = result.expect_err("re-seeding a halted node must panic");
    assert!(panic_message(payload.as_ref()).contains("seeded twice"));
}

/// Only seeding may put a node to sleep. A step that returned
/// `SleepUntil` would drop an awake node from every later round without
/// halting it, so the run fails a named invariant in every profile.
#[test]
fn a_step_that_sleeps_fails_its_invariant_in_every_profile() {
    for threads in [1, 2] {
        let result = std::panic::catch_unwind(|| {
            let g = treelocal_gen::path(2048);
            let mut core: ExecCore<u32> = ExecCore::new(2048);
            for i in 0..2048 {
                core.seed(NodeId::new(i), Verdict::Active(0));
            }
            core.begin_round(10);
            core.step(threads, &g, |_, own, _| Verdict::SleepUntil(own, 5));
        });
        let payload = result.expect_err("a sleeping step verdict must be rejected");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("(sleep-at-seed)"), "unexpected panic with {threads} threads: {msg}");
    }
}
