//! The literal Definition 5 engine: explicit per-round messages through
//! numbered ports.
//!
//! The main engine ([`run`](crate::run)) models a round as "read all
//! neighbor states", which is equivalent to message passing because LOCAL
//! messages have unbounded size. This module provides the message-passing
//! semantics verbatim — *send (potentially different) messages to
//! neighbors, receive theirs, compute* — so the equivalence is a tested
//! fact rather than an assumption: `tests` runs the same algorithm under
//! both engines and compares outputs and round counts.
//!
//! Ports are positions in a node's neighbor list; the engine precomputes
//! the reverse port map (one pass over the adjacency, binary-searching the
//! sorted neighbor slices — see [`Router::new`]) so routing is O(1) per
//! message. Messages addressed
//! to already-halted recipients are dropped at routing time: a halted
//! node's inbox is dead — never cleared, never read — so writing into it
//! would be pure waste (pinned by `halted_recipients_inboxes_are_never_touched`).
//!
//! With the `parallel` feature both phases of a round run on the vendored
//! rayon pool, **byte-identically** for every pool size:
//!
//! * the **send phase** steps frontier chunks on pool workers, each worker
//!   collecting one routed bucket per sender; the buckets are assembled by
//!   chunk index and merged sequentially in frontier order, so every inbox
//!   slot is filled by the same unique sender as in a sequential send (a
//!   slot is owned by one `(recipient, port)` pair, so the merge order is
//!   observable only through determinism bugs, which
//!   `tests/msg_parallel_equiv.rs` hunts);
//! * the **receive phase** rides [`ExecCore::step_owned_threads`]
//!   (frontier states decoded on pool workers, verdicts committed
//!   sequentially in frontier order), exactly mirroring the snapshot
//!   engine's threaded stepping path.

use crate::codec::{RunOutcome, StateCodec};
use crate::engine::{Ctx, ParSafe, Verdict};
use crate::ExecCore;
use std::fmt::Debug;
use treelocal_graph::{narrow_u32, widen_u32, widen_u64, NodeId, Topology};

/// A deterministic LOCAL algorithm in explicit message-passing form.
pub trait MessageAlgorithm<T: Topology> {
    /// Per-node private state (not visible to neighbors), stored in the
    /// core's lane columns.
    type State: StateCodec;
    /// The message alphabet.
    type Msg: Clone + Debug;

    /// State before any communication.
    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Self::State;

    /// Messages to send this round, one slot per port (position in the
    /// neighbor list); `None` sends nothing on that port.
    fn send(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        state: &Self::State,
    ) -> Vec<Option<Self::Msg>>;

    /// Consumes this round's inbox (aligned with ports: `inbox[p]` came
    /// from the neighbor at port `p`) and produces the next state or
    /// halts.
    fn receive(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        state: Self::State,
        inbox: &[Option<Self::Msg>],
    ) -> Verdict<Self::State>;
}

/// Flat routing tables and inboxes for one message run, in the same CSR
/// shape as the graph's adjacency — but **dense over the participants**,
/// not the index space.
///
/// A [`Remap`] ranks each participating node into `0..k` (`k` =
/// participant count); `offsets[rank(v)]..offsets[rank(v) + 1]` delimits
/// node `v`'s port range in both flat arrays: `slots` holds the inbox slot
/// per port and `back_port[offsets[rank(v)] + p]` is the port of the
/// neighbor behind `v`'s port `p` that leads back to `v`. Routing is pure
/// offset arithmetic over contiguous memory; sparse participant sets
/// (semi-graph restrictions inside a large parent index space) pay for
/// their own nodes only, never for the index space. Split from the run
/// loop so the halted-inbox invariant is unit-testable against the real
/// routing code.
struct Router<M> {
    remap: Remap,
    offsets: Vec<u32>,
    back_port: Vec<u32>,
    slots: Vec<Option<M>>,
}

/// Dense ranking of the participating node indices.
///
/// Topologies enumerate participants in ascending index order (CSR node
/// ranges and semi-graph restrictions both do), so when every index in
/// `0..index_space` participates the rank *is* the index and nothing is
/// stored; otherwise the sorted participant list ranks by binary search.
enum Remap {
    /// Participants are exactly `0..index_space`.
    Identity,
    /// Sorted participant indices; rank = position in this list.
    Dense(Vec<u32>),
}

impl Remap {
    #[inline]
    fn rank(&self, v: NodeId) -> usize {
        match self {
            Remap::Identity => v.index(),
            Remap::Dense(ids) => {
                ids.binary_search(&narrow_u32(v.index())).unwrap_or_else(|_| {
                    // lint:allow(no-panic-in-lib): routing to a node outside
                    // the participant set is an engine bug with no meaningful
                    // slot to return.
                    panic!("{v:?} is not a participant of this run")
                })
            }
        }
    }
}

impl<M> Router<M> {
    /// Builds every routing table in **one pass** over the adjacency.
    ///
    /// Each participant appends its rank, its prefix-sum offset and its
    /// back ports as it streams by; the reverse port of `v`'s port `p`
    /// towards `w` is found by binary search in `w`'s sorted neighbor
    /// slice, so the whole build is O(Σ deg · log Δ) with no edge-space or
    /// index-space transients. (The older two-pass edge-side build was
    /// itself a fix for a per-port `position()` scan that went ~Δ² on a
    /// star — still pinned by `high_degree_star_setup_is_linear`.)
    fn new<T: Topology>(topo: &T) -> Self {
        let mut participants: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        let mut back_port: Vec<u32> = Vec::new();
        for v in topo.nodes() {
            debug_assert!(
                participants.last().is_none_or(|&p| widen_u32(p) < v.index()),
                "topologies enumerate nodes in ascending index order"
            );
            participants.push(narrow_u32(v.index()));
            for &w in topo.neighbor_nodes(v) {
                // Checked in every profile: a neighbor that does not list us
                // back means the topology's adjacency is not symmetric, and
                // routing through it would deliver messages to arbitrary
                // ports.
                let q = topo.neighbor_nodes(w).binary_search(&v).unwrap_or_else(|_| {
                    // lint:allow(no-panic-in-lib): invariant check with no
                    // meaningful port to return.
                    panic!(
                        "no port of {w:?} leads back to {v:?} \
                         (adjacency must be symmetric: commit-order invariant of the router)"
                    )
                });
                back_port.push(narrow_u32(q));
            }
            offsets.push(narrow_u32(back_port.len()));
        }
        let remap = if participants.len() == topo.index_space() {
            // Distinct ascending indices below the index space filling it
            // completely are exactly 0..index_space: rank = index.
            Remap::Identity
        } else {
            Remap::Dense(participants)
        };
        let mut slots = Vec::new();
        slots.resize_with(back_port.len(), || None);
        Router { remap, offsets, back_port, slots }
    }

    /// The flat slot range of node `v`'s inbox (and of its back-port row).
    #[inline]
    fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        let r = self.remap.rank(v);
        widen_u32(self.offsets[r])..widen_u32(self.offsets[r + 1])
    }

    /// The flat slot index of node `v`'s port 0.
    #[inline]
    fn slot_base(&self, v: NodeId) -> usize {
        widen_u32(self.offsets[self.remap.rank(v)])
    }

    /// Clears the inboxes of this round's recipients. Only frontier nodes
    /// receive, so only their inboxes need clearing — a halted node's
    /// inbox is frozen at its halt-round contents.
    fn clear_frontier(&mut self, frontier: &[NodeId]) {
        for &v in frontier {
            let range = self.range(v);
            self.slots[range].iter_mut().for_each(|m| *m = None);
        }
    }

    /// Drains one bucket of routed messages into the flat inbox slots (the
    /// bucket keeps its capacity for reuse). Each slot is owned by one
    /// `(recipient, port)` pair with a unique sender, so delivery order
    /// across buckets cannot influence the final inbox contents; merging
    /// buckets in frontier order makes the write sequence byte-identical
    /// to a sequential send anyway.
    fn deliver(&mut self, bucket: &mut Vec<(usize, M)>) {
        for (slot, m) in bucket.drain(..) {
            self.slots[slot] = Some(m);
        }
    }

    /// The current inbox of node `v`.
    fn inbox(&self, v: NodeId) -> &[Option<M>] {
        &self.slots[self.range(v)]
    }
}

/// Collects node `v`'s outgoing messages for this round into `bucket` as
/// `(flat recipient slot, message)` pairs. Liveness and the sender's
/// decoded state come from `core`, so the halted-recipient rule below is
/// driven by the engine's own frontier bookkeeping.
///
/// Messages addressed to halted recipients are dropped here — their
/// inboxes are dead (never cleared, never read again), so routing into
/// them would be wasted writes that keep dead messages alive until the end
/// of the run.
fn outgoing_into<T: Topology, A: MessageAlgorithm<T>>(
    ctx: &Ctx<'_, T>,
    algo: &A,
    round: u64,
    v: NodeId,
    core: &ExecCore<A::State>,
    router: &Router<A::Msg>,
    bucket: &mut Vec<(usize, A::Msg)>,
) {
    let out = algo.send(ctx, v, round, &core.state(v));
    assert_eq!(out.len(), ctx.topo.degree(v), "one message slot per port");
    let back = &router.back_port[router.range(v)];
    let nbrs = ctx.topo.neighbor_nodes(v);
    for (p, msg) in out.into_iter().enumerate() {
        if let Some(m) = msg {
            let w = nbrs[p];
            if !core.is_active(w) {
                continue;
            }
            bucket.push((router.slot_base(w) + widen_u32(back[p]), m));
        }
    }
}

/// The send phase: every frontier node's messages are collected and
/// delivered. With `threads > 1` and a large frontier, collection runs on
/// pool workers (one bucket per sender, assembled by chunk) and delivery
/// merges the buckets sequentially in frontier order; otherwise the nodes
/// route inline through one reused scratch bucket — the same write
/// sequence either way.
fn send_phase<T, A>(
    ctx: &Ctx<'_, T>,
    algo: &A,
    round: u64,
    core: &ExecCore<A::State>,
    router: &mut Router<A::Msg>,
    threads: usize,
) where
    T: Topology + ParSafe,
    A: MessageAlgorithm<T> + ParSafe,
    A::State: ParSafe,
    A::Msg: ParSafe,
{
    #[cfg(feature = "parallel")]
    if threads > 1 && core.frontier().len() >= crate::par::PAR_FRONTIER_MIN {
        let mut buckets = {
            let shared: &Router<A::Msg> = router;
            crate::par::par_map(core.frontier(), threads, |_, &v| {
                let mut bucket = Vec::new();
                outgoing_into(ctx, algo, round, v, core, shared, &mut bucket);
                bucket
            })
        };
        for bucket in &mut buckets {
            router.deliver(bucket);
        }
        return;
    }
    #[cfg(not(feature = "parallel"))]
    let _ = threads;
    let mut scratch = Vec::new();
    for idx in 0..core.frontier().len() {
        let v = core.frontier()[idx];
        outgoing_into(ctx, algo, round, v, core, router, &mut scratch);
        router.deliver(&mut scratch);
    }
}

/// Shared run loop of [`run_messages`] and [`run_messages_with_threads`]
/// (`threads` is fixed to 1 in sequential builds).
fn run_messages_on_pool<T, A>(
    ctx: &Ctx<'_, T>,
    algo: &A,
    max_rounds: u64,
    threads: usize,
) -> RunOutcome<A::State>
where
    T: Topology + ParSafe,
    A: MessageAlgorithm<T> + ParSafe,
    A::State: ParSafe,
    A::Msg: ParSafe,
{
    let mut core = ExecCore::new(ctx.topo.index_space());
    for v in ctx.topo.nodes() {
        core.seed(v, Verdict::Active(algo.init(ctx, v)));
    }
    let mut router: Router<A::Msg> = Router::new(ctx.topo);
    while !core.is_done() {
        let round = core.begin_round(max_rounds);
        // Send-phase work is real simulation work (one `send` per frontier
        // node); account it so driver ETAs stay honest on message-heavy
        // suites. Counted per phase, never per worker, so totals are
        // pool-size-invariant.
        crate::counters::record_send_round(widen_u64(core.frontier().len()));
        router.clear_frontier(core.frontier());
        send_phase(ctx, algo, round, &core, &mut router, threads);
        let recv = |v: NodeId, state: A::State| algo.receive(ctx, v, round, state, router.inbox(v));
        #[cfg(feature = "parallel")]
        core.step_owned_threads(threads, recv);
        #[cfg(not(feature = "parallel"))]
        core.step_owned(recv);
    }
    core.finish()
}

/// Runs a message-passing algorithm until every node halts.
///
/// Built on the shared [`ExecCore`](crate::ExecCore): the send phase walks
/// the active frontier (terminated nodes are silent by construction, and
/// messages *to* terminated nodes are dropped unrouted), the receive phase
/// consumes decoded frontier states by value, and round accounting is the
/// core's — identical to the snapshot engine's, which is what the
/// cross-engine equivalence tests assert.
///
/// With the `parallel` feature, large frontiers run both phases on the
/// vendored rayon pool ([`crate::par::auto_threads`] sizes it; the
/// `TREELOCAL_THREADS` environment variable overrides). Outcomes, round
/// counts and work counters are byte-identical to a sequential run —
/// pinned by `tests/msg_parallel_equiv.rs` and `tests/msg_counters.rs`.
///
/// # Panics
///
/// Panics if the algorithm exceeds `max_rounds` or sends a malformed
/// message vector (wrong port count).
pub fn run_messages<T, A>(ctx: &Ctx<'_, T>, algo: &A, max_rounds: u64) -> RunOutcome<A::State>
where
    T: Topology + ParSafe,
    A: MessageAlgorithm<T> + ParSafe,
    A::State: ParSafe,
    A::Msg: ParSafe,
{
    #[cfg(feature = "parallel")]
    {
        run_messages_with_threads(ctx, algo, max_rounds, crate::par::auto_threads())
    }
    #[cfg(not(feature = "parallel"))]
    {
        run_messages_on_pool(ctx, algo, max_rounds, 1)
    }
}

/// [`run_messages`] with an explicit pool size (1 forces sequential
/// execution).
///
/// Exists so tests and harnesses can compare pool sizes; every size
/// produces the same [`RunOutcome`].
///
/// # Panics
///
/// As [`run_messages`].
#[cfg(feature = "parallel")]
pub fn run_messages_with_threads<T, A>(
    ctx: &Ctx<'_, T>,
    algo: &A,
    max_rounds: u64,
    threads: usize,
) -> RunOutcome<A::State>
where
    T: Topology + ParSafe,
    A: MessageAlgorithm<T> + ParSafe,
    A::State: ParSafe,
    A::Msg: ParSafe,
{
    run_messages_on_pool(ctx, algo, max_rounds, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, SyncAlgorithm};
    use crate::Snapshot;
    use treelocal_graph::{Graph, OrInvariant};

    /// Reference task: every node computes the maximum identifier within
    /// distance R, implemented under BOTH engines.
    const R: u64 = 4;

    struct MaxIdMsg;

    impl<T: Topology> MessageAlgorithm<T> for MaxIdMsg {
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
            _ctx: &Ctx<T>,
            _v: NodeId,
            round: u64,
            state: u64,
            inbox: &[Option<u64>],
        ) -> Verdict<u64> {
            let best = inbox.iter().flatten().copied().fold(state, u64::max);
            if round == R {
                Verdict::Halted(best)
            } else {
                Verdict::Active(best)
            }
        }
    }

    struct MaxIdState;

    impl<T: Topology> SyncAlgorithm<T> for MaxIdState {
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
            prev: &Snapshot<'_, u64>,
        ) -> Verdict<u64> {
            let best = ctx.topo.neighbor_nodes(v).iter().map(|&w| prev.get(w)).fold(own, u64::max);
            if round == R {
                Verdict::Halted(best)
            } else {
                Verdict::Active(best)
            }
        }
    }

    #[test]
    fn engines_agree_on_outputs_and_rounds() {
        for seed in 0..5 {
            let g = treelocal_gen::relabel(
                &treelocal_gen::random_tree(80, seed),
                treelocal_gen::IdStrategy::Permuted { seed },
            );
            let ctx = Ctx::of(&g);
            let via_msgs = run_messages(&ctx, &MaxIdMsg, 100);
            let via_state = run(&ctx, &MaxIdState, 100);
            assert_eq!(via_msgs.rounds, via_state.rounds);
            for v in g.node_ids() {
                assert_eq!(via_msgs.state(v), via_state.state(v), "{v:?}");
            }
        }
    }

    #[test]
    fn silent_ports_deliver_nothing() {
        /// Nodes send only on port 0 in round 1, then halt with the count
        /// of received messages.
        struct Selective;
        impl<T: Topology> MessageAlgorithm<T> for Selective {
            type State = u32;
            type Msg = ();
            fn init(&self, _: &Ctx<T>, _: NodeId) -> u32 {
                0
            }
            fn send(&self, ctx: &Ctx<T>, v: NodeId, _: u64, _: &u32) -> Vec<Option<()>> {
                let mut out = vec![None; ctx.topo.degree(v)];
                if let Some(slot) = out.first_mut() {
                    *slot = Some(());
                }
                out
            }
            fn receive(
                &self,
                _: &Ctx<T>,
                _: NodeId,
                _: u64,
                _: u32,
                inbox: &[Option<()>],
            ) -> Verdict<u32> {
                Verdict::Halted(narrow_u32(inbox.iter().flatten().count()))
            }
        }
        // Path 0-1-2: port 0 is the lowest-index neighbor.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        let out = run_messages(&ctx, &Selective, 10);
        // Node 0's port 0 -> 1; node 1's port 0 -> 0; node 2's port 0 -> 1.
        // So node 0 receives 1 message (from 1), node 1 receives 2 (from 0
        // and 2), node 2 receives 0.
        assert_eq!(out.state(NodeId::new(0)), 1);
        assert_eq!(out.state(NodeId::new(1)), 2);
        assert_eq!(out.state(NodeId::new(2)), 0);
    }

    #[test]
    fn back_ports_match_the_position_scan() {
        // The binary-search construction must agree with the definition
        // (the port of w that leads back to v) on every shape, including
        // semi-graph restrictions.
        for seed in 0..6u64 {
            let g = treelocal_gen::random_tree(
                60 + 10 * usize::try_from(seed).or_invariant("small seed"),
                seed,
            );
            let s = treelocal_graph::SemiGraph::induced_by_nodes(&g, |v| v.index() % 4 != 1);
            check_back_ports(&g);
            check_back_ports(&s);
        }
        check_back_ports(&treelocal_gen::star(50));
    }

    fn check_back_ports<T: Topology>(topo: &T) {
        let router: Router<()> = Router::new(topo);
        for v in topo.nodes() {
            let back = &router.back_port[router.range(v)];
            for (p, &w) in topo.neighbor_nodes(v).iter().enumerate() {
                let expect = topo
                    .neighbor_nodes(w)
                    .iter()
                    .position(|&x| x == v)
                    .expect("adjacency is symmetric");
                assert_eq!(widen_u32(back[p]), expect, "{v:?} port {p}");
            }
        }
    }

    #[test]
    fn router_tables_are_dense_over_participants() {
        // A sparse restriction inside a large parent index space must pay
        // for its own nodes only: offsets are participant-sized (not
        // index-space-sized) and ranks are dense.
        let g = treelocal_gen::random_tree(200, 4);
        let s = treelocal_graph::SemiGraph::induced_by_nodes(&g, |v| v.index() % 5 == 0);
        let k = s.nodes().len();
        assert!(k < s.index_space(), "restriction must be sparse for this test");
        let router: Router<u8> = Router::new(&s);
        assert_eq!(router.offsets.len(), k + 1);
        assert!(matches!(router.remap, Remap::Dense(ref ids) if ids.len() == k));
        for (rank, &v) in s.nodes().iter().enumerate() {
            assert_eq!(router.remap.rank(v), rank);
        }
        // The full graph fills its index space: no participant list at all.
        let router: Router<u8> = Router::new(&g);
        assert!(matches!(router.remap, Remap::Identity));
        assert_eq!(router.offsets.len(), g.node_count() + 1);
    }

    #[test]
    // Wall-clock budget check on an asymptotic regression: the one test
    // that legitimately reads Instant outside bench.
    #[allow(clippy::disallowed_methods)]
    fn high_degree_star_setup_is_linear() {
        // Regression for the quadratic back-port construction: the old
        // per-port `position()` scan did ~Δ²/2 ≈ 5·10⁹ comparisons on this
        // star before round 1 (minutes in a debug build). The O(m) build
        // plus one engine round completes far inside a generous budget.
        struct OneRound;
        impl<T: Topology> MessageAlgorithm<T> for OneRound {
            type State = u64;
            type Msg = u64;
            fn init(&self, ctx: &Ctx<T>, v: NodeId) -> u64 {
                ctx.topo.local_id(v)
            }
            fn send(&self, ctx: &Ctx<T>, v: NodeId, _: u64, state: &u64) -> Vec<Option<u64>> {
                vec![Some(*state); ctx.topo.degree(v)]
            }
            fn receive(
                &self,
                _: &Ctx<T>,
                _: NodeId,
                _: u64,
                state: u64,
                inbox: &[Option<u64>],
            ) -> Verdict<u64> {
                Verdict::Halted(inbox.iter().flatten().copied().fold(state, u64::max))
            }
        }
        let g = treelocal_gen::star(100_000);
        let ctx = Ctx::of(&g);
        let started = std::time::Instant::now();
        let out = run_messages(&ctx, &OneRound, 10);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "run_messages setup must be O(m), took {:?}",
            started.elapsed()
        );
        assert_eq!(out.rounds, 1);
        // The center heard every leaf, so it holds the maximum id.
        assert_eq!(out.state(NodeId::new(0)), 100_000);
    }

    #[test]
    fn halted_recipients_inboxes_are_never_touched() {
        // Drives the real routing code (`Router` + `outgoing_into`) over
        // several rounds with node 0 halted in the core: its inbox must
        // keep its halt-round contents bit for bit, while active
        // recipients keep receiving.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        let mut core: crate::ExecCore<u64> = crate::ExecCore::new(3);
        core.seed(NodeId::new(0), Verdict::Halted(7));
        core.seed(NodeId::new(1), Verdict::Active(41));
        core.seed(NodeId::new(2), Verdict::Active(42));
        let mut router: Router<u64> = Router::new(&g);
        // Freeze node 0's inbox at its pretend halt-round contents.
        let range0 = router.range(NodeId::new(0));
        router.slots[range0.start] = Some(99);
        for round in 1..=3u64 {
            router.clear_frontier(core.frontier());
            let mut scratch = Vec::new();
            for idx in 0..core.frontier().len() {
                let v = core.frontier()[idx];
                // MaxIdMsg sends `Some(state)` on every port, so node 1
                // addresses node 0 each round; the message must be dropped.
                outgoing_into(&ctx, &MaxIdMsg, round, v, &core, &router, &mut scratch);
                for (slot, _) in &scratch {
                    assert!(!range0.contains(slot), "round {round}: routed into a halted inbox");
                }
                router.deliver(&mut scratch);
            }
            assert_eq!(
                router.inbox(NodeId::new(0)),
                &[Some(99)],
                "round {round}: halted inbox mutated"
            );
            // Active recipients still got this round's messages.
            assert_eq!(router.inbox(NodeId::new(2)), &[Some(41)]);
            assert_eq!(router.inbox(NodeId::new(1)), &[None, Some(42)]);
        }
    }

    #[test]
    fn works_on_semigraph_restrictions() {
        let g = treelocal_gen::random_tree(40, 3);
        let s = treelocal_graph::SemiGraph::induced_by_nodes(&g, |v| v.index() % 3 != 0);
        let ctx = Ctx::restricted(&s, g.node_count(), g.id_space());
        let out = run_messages(&ctx, &MaxIdMsg, 100);
        assert_eq!(out.rounds, R);
        for &v in s.nodes() {
            assert!(out.try_state(v).is_some());
        }
    }

    /// A topology whose adjacency is deliberately one-sided: node 0 lists
    /// node 1 as a neighbor, node 1 lists nobody. Exercises the router's
    /// symmetry invariant, which holds in *every* build profile (this
    /// suite also runs under `--release` in CI).
    struct Asymmetric {
        g: Graph,
        nodes: Vec<NodeId>,
        empty_nodes: Vec<NodeId>,
        empty_edges: Vec<treelocal_graph::EdgeId>,
    }

    impl Topology for Asymmetric {
        fn graph(&self) -> &Graph {
            &self.g
        }

        fn nodes(&self) -> treelocal_graph::NodeIter<'_> {
            treelocal_graph::NodeIter::Slice(self.nodes.iter().copied())
        }

        fn contains_node(&self, v: NodeId) -> bool {
            self.nodes.contains(&v)
        }

        fn neighbor_nodes(&self, v: NodeId) -> &[NodeId] {
            if v.index() == 0 {
                self.g.neighbor_nodes(v)
            } else {
                &self.empty_nodes
            }
        }

        fn neighbor_edges(&self, v: NodeId) -> &[treelocal_graph::EdgeId] {
            if v.index() == 0 {
                self.g.neighbor_edges(v)
            } else {
                &self.empty_edges
            }
        }

        fn max_degree(&self) -> usize {
            1
        }
    }

    #[test]
    #[should_panic(expected = "adjacency must be symmetric")]
    fn asymmetric_adjacency_is_rejected_in_every_profile() {
        let g = Graph::from_edges(2, &[(0, 1)]).or_invariant("valid two-node path");
        let topo = Asymmetric {
            g,
            nodes: vec![NodeId::new(0), NodeId::new(1)],
            empty_nodes: Vec::new(),
            empty_edges: Vec::new(),
        };
        let _ = Router::<u8>::new(&topo);
    }
}
