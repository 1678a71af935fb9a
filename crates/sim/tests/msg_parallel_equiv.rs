//! Message-engine parallel-vs-sequential equivalence: the `parallel`
//! feature must change wall-clock, never results. For every pool size — 1
//! (forced sequential), 2, 4, and the machine's auto size — `run_messages`
//! must produce **byte-identical** outcomes: same final state of every
//! node and same round count. The trees are sized above the engine's
//! parallel threshold so the pool path genuinely executes, and the state
//! type folds inbox slots order-sensitively (silent ports included) so any
//! double-stepping, misrouted bucket, or torn-commit bug changes the
//! answer.
//!
//! The cross-engine matrix case runs in **both** feature modes: the same
//! flooding task, written once as a snapshot state machine and once in
//! message-passing form, across every engine × pool-size cell.

use treelocal_gen::{caterpillar, random_tree, relabel, IdStrategy};
use treelocal_graph::{Graph, NodeId, Topology};
use treelocal_sim::{
    run, run_messages, Ctx, MessageAlgorithm, RunOutcome, Snapshot, StateCodec, SyncAlgorithm,
    Verdict,
};

/// Accumulates an order-sensitive hash of the inbox each round — `None`
/// slots (silent or halted neighbors) fold in as a distinct token, so the
/// exact placement of every message matters. Nodes halt at staggered
/// rounds driven by their identifier, exercising the halted-recipient
/// routing path on every round.
#[cfg(feature = "parallel")]
struct MsgHash;

#[cfg(feature = "parallel")]
#[derive(Clone, Debug, PartialEq, Eq)]
struct HashState {
    value: u64,
    acc: u64,
}

/// `[value, acc]` u64 lanes.
#[cfg(feature = "parallel")]
impl StateCodec for HashState {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 2;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = self.value;
        lanes64[1] = self.acc;
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        HashState { value: lanes64[0], acc: lanes64[1] }
    }
}

#[cfg(feature = "parallel")]
impl<T: Topology> MessageAlgorithm<T> for MsgHash {
    type State = HashState;
    type Msg = u64;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> HashState {
        HashState { value: ctx.topo.local_id(v), acc: 0 }
    }

    fn send(&self, ctx: &Ctx<T>, v: NodeId, _round: u64, state: &HashState) -> Vec<Option<u64>> {
        vec![Some(state.value ^ state.acc); ctx.topo.degree(v)]
    }

    fn receive(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        state: HashState,
        inbox: &[Option<u64>],
    ) -> Verdict<HashState> {
        let mut acc = state.acc;
        for m in inbox {
            acc = acc.wrapping_mul(0x100000001b3).wrapping_add(m.unwrap_or(0xDEAD_BEEF));
        }
        let value = state.value.wrapping_mul(6364136223846793005).wrapping_add(acc | 1);
        let next = HashState { value, acc };
        if round >= 3 + ctx.topo.local_id(v) % 7 {
            Verdict::Halted(next)
        } else {
            Verdict::Active(next)
        }
    }
}

fn assert_identical<S: StateCodec + PartialEq>(a: &RunOutcome<S>, b: &RunOutcome<S>, label: &str) {
    assert_eq!(a.rounds, b.rounds, "round counts diverge: {label}");
    assert!(a.states().eq(b.states()), "states diverge: {label}");
}

#[cfg(feature = "parallel")]
mod pool_sizes {
    use super::*;
    use treelocal_sim::{par, run_messages_with_threads};

    #[test]
    fn every_pool_size_matches_the_sequential_message_run() {
        for seed in 0..6u64 {
            let n = 1500 + 500 * usize::try_from(seed).unwrap(); // above the parallel threshold
            let tree = relabel(&random_tree(n, seed), IdStrategy::Permuted { seed });
            let ctx = Ctx::of(&tree);
            let sequential = run_messages_with_threads(&ctx, &MsgHash, 100, 1);
            for threads in [2usize, 4, par::auto_threads()] {
                let parallel = run_messages_with_threads(&ctx, &MsgHash, 100, threads);
                assert_identical(&sequential, &parallel, &format!("n {n}, {threads} threads"));
            }
            // `run_messages` (auto-sized pool) is the path callers take.
            assert_identical(&sequential, &run_messages(&ctx, &MsgHash, 100), "auto pool");
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
            let sequential = run_messages_with_threads(&ctx, &MsgHash, 100, 1);
            for threads in [2usize, 3, 8] {
                let parallel = run_messages_with_threads(&ctx, &MsgHash, 100, threads);
                assert_identical(&sequential, &parallel, &format!("{label}, {threads} threads"));
            }
        }
    }
}

/// Hop distance from the minimum-id node, written in both engine forms: a
/// node halts the round after it learns its distance, so halting staggers
/// across the whole execution and both forms agree by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Dist(Option<u64>);

/// `u64::MAX` stands for "no distance yet" (no real hop count gets near
/// it).
impl StateCodec for Dist {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 1;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = self.0.unwrap_or(u64::MAX);
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        Dist((lanes64[0] != u64::MAX).then_some(lanes64[0]))
    }
}

struct FloodState;

impl<T: Topology> SyncAlgorithm<T> for FloodState {
    type State = Dist;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<Dist> {
        let my = ctx.topo.local_id(v);
        let is_min = ctx.topo.nodes().all(|w| ctx.topo.local_id(w) >= my);
        Verdict::Active(Dist(if is_min { Some(0) } else { None }))
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        _round: u64,
        own: Dist,
        prev: &Snapshot<'_, Dist>,
    ) -> Verdict<Dist> {
        if own.0.is_some() {
            return Verdict::Halted(own);
        }
        let best = ctx.topo.neighbor_nodes(v).iter().filter_map(|&w| prev.get(w).0).min();
        Verdict::Active(Dist(best.map(|d| d + 1)))
    }
}

struct FloodMsg;

impl<T: Topology> MessageAlgorithm<T> for FloodMsg {
    type State = Dist;
    type Msg = u64;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Dist {
        let my = ctx.topo.local_id(v);
        let is_min = ctx.topo.nodes().all(|w| ctx.topo.local_id(w) >= my);
        Dist(if is_min { Some(0) } else { None })
    }

    fn send(&self, ctx: &Ctx<T>, v: NodeId, _round: u64, state: &Dist) -> Vec<Option<u64>> {
        vec![state.0; ctx.topo.degree(v)]
    }

    fn receive(
        &self,
        _ctx: &Ctx<T>,
        _v: NodeId,
        _round: u64,
        state: Dist,
        inbox: &[Option<u64>],
    ) -> Verdict<Dist> {
        if state.0.is_some() {
            return Verdict::Halted(state);
        }
        let best = inbox.iter().flatten().min().copied();
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
/// snapshot and message engines agree, and (with the `parallel` feature)
/// every pool size of either engine agrees with the sequential reference.
#[test]
fn cross_engine_matrix_is_one_equivalence_class() {
    for (label, g) in matrix_graphs() {
        let ctx = Ctx::of(&g);
        let reference = run(&ctx, &FloodState, 100_000);
        let via_msgs = run_messages(&ctx, &FloodMsg, 100_000);
        assert_identical(&reference, &via_msgs, &format!("{label}: snapshot vs messages"));
        assert!(g.node_ids().all(|v| reference.state(v).0.is_some()));
        #[cfg(feature = "parallel")]
        for threads in [1usize, 2, 4, treelocal_sim::par::auto_threads()] {
            let snap = treelocal_sim::run_with_threads(&ctx, &FloodState, 100_000, threads);
            let msgs = treelocal_sim::run_messages_with_threads(&ctx, &FloodMsg, 100_000, threads);
            assert_identical(&reference, &snap, &format!("{label}: snapshot @ {threads}"));
            assert_identical(&reference, &msgs, &format!("{label}: messages @ {threads}"));
        }
    }
}
