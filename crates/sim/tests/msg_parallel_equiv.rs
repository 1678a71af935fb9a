//! Message-engine parallel-vs-sequential equivalence: the pool size must
//! change wall-clock, never results. For every pool size — 1
//! (forced sequential), 2, 4, and the machine's auto size — `run_messages`
//! must produce **byte-identical** outcomes: same final state of every
//! node and same round count. The trees are sized above the engine's
//! parallel threshold so the pool path genuinely executes, and the state
//! type folds every port order-sensitively, with some nodes halted at
//! seeding and some asleep, so any misrouted state, missed delivery or
//! torn-commit bug changes the answer.
//!
//! The cross-engine matrix case runs one flooding algorithm across every
//! engine × pool-size cell.

use treelocal_gen::{caterpillar, random_tree, relabel, IdStrategy};
use treelocal_graph::{Graph, NodeId, Topology};
use treelocal_sim::{par, run, run_messages, Ctx, Ports, RunOutcome, SyncAlgorithm, Verdict};

/// Accumulates an order-sensitive hash of the ports each round. One node
/// in eight halts at seeding and one in four sleeps until round 2, so
/// frozen states (a halted sender's, a sleeper's) sit on ports next to fresh
/// ones; the rest halt at staggered rounds driven by their identifier,
/// exercising the halted-recipient rule every round.
struct MsgHash;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct HashState {
    value: u64,
    acc: u64,
}

impl<T: Topology> SyncAlgorithm<T> for MsgHash {
    type State = HashState;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<HashState> {
        let id = ctx.topo.local_id(v);
        let state = HashState { value: id, acc: 0 };
        match id % 8 {
            0 => Verdict::Halted(state),
            1 | 5 => Verdict::SleepUntil(state, 2),
            _ => Verdict::Active(state),
        }
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: HashState,
        prev: &Ports<'_, HashState>,
    ) -> Verdict<HashState> {
        let mut acc = own.acc;
        for s in prev.iter() {
            acc = acc.wrapping_mul(0x100000001b3).wrapping_add(s.value ^ s.acc);
        }
        let value = own.value.wrapping_mul(6364136223846793005).wrapping_add(acc | 1);
        let next = HashState { value, acc };
        if round >= 3 + ctx.topo.local_id(v) % 7 {
            Verdict::Halted(next)
        } else {
            Verdict::Active(next)
        }
    }
}

fn assert_identical<S: Copy + PartialEq>(
    a: &RunOutcome<'_, Graph, S>,
    b: &RunOutcome<'_, Graph, S>,
    label: &str,
) {
    assert_eq!(a.rounds, b.rounds, "round counts diverge: {label}");
    assert!(a.states().eq(b.states()), "states diverge: {label}");
}

#[test]
fn every_pool_size_matches_the_sequential_message_run() {
    for seed in 0..6u64 {
        let n = 1500 + 500 * usize::try_from(seed).unwrap(); // above the parallel threshold
        let tree = relabel(&random_tree(n, seed), IdStrategy::Permuted { seed });
        let ctx = Ctx::of(&tree);
        let sequential = par::with_threads(1, || run_messages(&ctx, &MsgHash, 100));
        for threads in [2usize, 4, par::auto_threads()] {
            let parallel = par::with_threads(threads, || run_messages(&ctx, &MsgHash, 100));
            assert_identical(&sequential, &parallel, &format!("n {n}, {threads} threads"));
        }
        // `run_messages` (auto-sized pool) is the path callers take, and
        // the snapshot engine reads the same states in place.
        assert_identical(&sequential, &run_messages(&ctx, &MsgHash, 100), "auto pool");
        assert_identical(&sequential, &run(&ctx, &MsgHash, 100), "snapshot engine");
    }
}

#[test]
fn pool_size_does_not_leak_into_results_on_degenerate_shapes() {
    // A path (maximum diameter), a star (one hub touching every chunk
    // boundary) and a caterpillar (the experiments' staple shape).
    for (label, tree) in [
        ("path", treelocal_gen::path(2500)),
        ("star", treelocal_gen::star(2500)),
        ("caterpillar", caterpillar(1250, 1)),
    ] {
        let ctx = Ctx::of(&tree);
        let sequential = par::with_threads(1, || run_messages(&ctx, &MsgHash, 100));
        for threads in [2usize, 3, 8] {
            let parallel = par::with_threads(threads, || run_messages(&ctx, &MsgHash, 100));
            assert_identical(&sequential, &parallel, &format!("{label}, {threads} threads"));
        }
    }
}

/// Hop distance from the minimum-id node: a node halts the round after it
/// learns its distance, so halting staggers across the whole execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Dist(Option<u64>);

struct Flood;

impl<T: Topology> SyncAlgorithm<T> for Flood {
    type State = Dist;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<Dist> {
        let my = ctx.topo.local_id(v);
        let is_min = ctx.topo.nodes().all(|w| ctx.topo.local_id(w) >= my);
        Verdict::Active(Dist(if is_min { Some(0) } else { None }))
    }

    fn step(
        &self,
        _ctx: &Ctx<T>,
        _v: NodeId,
        _round: u64,
        own: Dist,
        prev: &Ports<'_, Dist>,
    ) -> Verdict<Dist> {
        if own.0.is_some() {
            return Verdict::Halted(own);
        }
        let best = prev.iter().filter_map(|d| d.0).min();
        Verdict::Active(Dist(best.map(|d| d + 1)))
    }
}

fn matrix_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("prufer", relabel(&random_tree(3000, 17), IdStrategy::Permuted { seed: 17 })),
        ("caterpillar", caterpillar(1200, 1)),
    ]
}

/// The full engine × pool-size matrix collapses to one equivalence class:
/// snapshot and message engines agree, and every pool size of either
/// engine agrees with the sequential reference.
#[test]
fn cross_engine_matrix_is_one_equivalence_class() {
    for (label, g) in matrix_graphs() {
        let ctx = Ctx::of(&g);
        let reference = run(&ctx, &Flood, 100_000);
        assert!(g.node_ids().all(|v| reference.state(v).0.is_some()));
        for threads in [1usize, 2, 4, par::auto_threads()] {
            let snap = par::with_threads(threads, || run(&ctx, &Flood, 100_000));
            let msgs = par::with_threads(threads, || run_messages(&ctx, &Flood, 100_000));
            assert_identical(&reference, &snap, &format!("{label}: snapshot @ {threads}"));
            assert_identical(&reference, &msgs, &format!("{label}: messages @ {threads}"));
        }
    }
}
