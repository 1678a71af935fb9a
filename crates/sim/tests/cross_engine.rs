//! Cross-engine equivalence: the same algorithm, written once as a
//! snapshot state machine and once in explicit message-passing form, must
//! produce identical outputs AND identical round counts on both engines.
//!
//! Since both engines now share one [`ExecCore`], this property pins the
//! equivalence of the two *adapters* (snapshot reads vs. routed messages)
//! on top of a single run loop. The workload is distance flooding from the
//! minimum-identifier node — halting is staggered across the whole
//! execution, so frontier bookkeeping is exercised on every round.

use treelocal_gen::{random_tree, relabel, IdStrategy};
use treelocal_graph::{NodeId, Topology};
use treelocal_sim::{
    run, run_messages, Ctx, MessageAlgorithm, Snapshot, StateCodec, SyncAlgorithm, Verdict,
};

/// Hop distance from the minimum-id node; a node halts the round after it
/// learns its distance (so the round count equals eccentricity + 1).
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

#[test]
fn engines_agree_on_fifty_plus_random_prufer_trees() {
    let mut checked = 0usize;
    for seed in 0..60u64 {
        // 2..=120 nodes, cycling through the identifier strategies so the
        // source node's position varies relative to index order.
        let n = 2 + (usize::try_from(seed).unwrap() * 7) % 119;
        let strategy = match seed % 3 {
            0 => IdStrategy::Sequential,
            1 => IdStrategy::Permuted { seed },
            _ => IdStrategy::Sparse { seed },
        };
        let g = relabel(&random_tree(n, seed), strategy);
        let ctx = Ctx::of(&g);
        let via_state = run(&ctx, &FloodState, 10_000);
        let via_msgs = run_messages(&ctx, &FloodMsg, 10_000);
        assert_eq!(
            via_state.rounds, via_msgs.rounds,
            "round counts diverge on seed {seed} (n = {n})"
        );
        for v in g.node_ids() {
            assert_eq!(
                via_state.state(v),
                via_msgs.state(v),
                "outputs diverge at {v:?} on seed {seed} (n = {n})"
            );
        }
        // Sanity: every node learned a finite distance.
        assert!(g.node_ids().all(|v| via_state.state(v).0.is_some()));
        checked += 1;
    }
    assert!(checked >= 50, "property must cover at least 50 trees (got {checked})");
}
