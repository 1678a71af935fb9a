//! The execution core shared by the snapshot engine ([`crate::run`]) and
//! the message engine ([`crate::run_messages`]).
//!
//! [`ExecCore`] owns one run loop for both engines:
//!
//! * a node is **live** until it halts, and a live node is either awake or
//!   asleep. The **awake list** holds the nodes a round steps, in
//!   deterministic order, so a round only visits and only rewrites the
//!   states of nodes that act in it. A node seeded
//!   [`Verdict::SleepUntil`] sleeps in a per-round bucket until its wake
//!   round and then joins the awake list, so a node that only waits costs
//!   nothing per round;
//! * states are plain `Copy` values in one node-major `Vec<S>`; a read is
//!   a copy and a write an assignment, and the states of halted and
//!   sleeping nodes are **frozen in place**: neighbours still read them,
//!   and they are never rewritten while the node does not step;
//! * a step reads its neighbours only through [`Ports`], in port order.
//!   Without an inbox the ports read the neighbours' slots of the previous
//!   round in place; once the message engine has routed the core, they
//!   read the states delivered into the node's inbox (see
//!   [`crate::run_messages`]);
//! * a round has one path, [`ExecCore::step`]: the awake list is mapped
//!   through [`crate::par::par_map_into`] (inline below the pool
//!   threshold) into one verdict buffer reused across rounds, so every
//!   awake node reads the previous round's states; then the round commits
//!   **in awake order**, preserving the synchronous-round semantics of
//!   Definition 5 and making inline and pooled rounds produce
//!   byte-identical states. No run allocates a second state column.
//!
//! A node joins a run, stays live for some rounds and halts once, and the
//! core records exactly that in one **lifecycle column** of 4 bytes per
//! slot: not seeded, running (awake or asleep), or the round the node
//! halted in (round 0 = at seeding). "Not seeded" is zero, so a new
//! column is zeroed memory that a restricted run touches only where it
//! seeds. The column answers the duplicate-seed guard, the message
//! engine's running filter and the transcript's halt rounds, and it ends
//! with the run: a [`RunOutcome`] asks the run's topology, whose nodes
//! are exactly the seeded ones. The core also keeps the run's totals: the
//! live count (awake plus asleep) of every round and the node steps.
//! [`ExecCore::finish`] is the run's one observation point: it adds the
//! totals to [`crate::counters`] and moves the column and the live counts
//! into an armed transcript recorder (see [`crate::transcript`]).
//! Sleepers are counted, never listed: no round passes over them.

use crate::engine::Verdict;
use crate::msg_engine::Router;
use crate::ports::Ports;
use std::collections::BTreeMap;
use treelocal_graph::{widen_u64, NodeId, OrInvariant, Topology};

/// The lifecycle entry of a slot no node was seeded into.
const UNSEEDED: u32 = 0;
/// The lifecycle entry of a seeded node that has not halted. Every other
/// nonzero entry is one past the node's halt round.
pub(crate) const RUNNING: u32 = u32::MAX;

/// The participants of a finished run's lifecycle column `life`, each
/// with its halt round, in node order.
pub(crate) fn halt_rounds(life: &[u32]) -> impl Iterator<Item = (NodeId, u32)> + '_ {
    let entries = life.iter().enumerate().filter(|&(_, &entry)| entry != UNSEEDED);
    entries.map(|(i, &entry)| (NodeId::new(i), entry - 1))
}

/// Double-buffered executor for synchronous LOCAL rounds.
///
/// The lifecycle is: [`ExecCore::new`] → one [`ExecCore::seed`] per
/// participating node → repeat { [`ExecCore::begin_round`] +
/// [`ExecCore::step`] } until [`ExecCore::is_done`] → [`ExecCore::finish`].
#[derive(Debug)]
pub(crate) struct ExecCore<S> {
    /// One state per slot. During a step these are the *previous* round's
    /// states.
    states: Vec<S>,
    /// This round's verdicts as `(state, halts)`, one per awake node in
    /// awake order; emptied by each commit and reused across rounds.
    verdicts: Vec<(S, bool)>,
    /// The lifecycle column: per slot [`UNSEEDED`], [`RUNNING`] or one
    /// past the node's halt round.
    life: Vec<u32>,
    /// The nodes the current round steps: the awake survivors of earlier
    /// rounds in their order, then the nodes woken this round in seeding
    /// order.
    awake: Vec<NodeId>,
    /// Sleeping nodes by wake round, each bucket in seeding order.
    asleep: BTreeMap<u64, Vec<NodeId>>,
    /// How many nodes sleep, over all buckets.
    sleeping: usize,
    /// The live count of round `r` at `r - 1`; its length is the number of
    /// rounds executed so far.
    live: Vec<u64>,
    /// Awake nodes stepped so far, summed over the rounds.
    node_steps: u64,
    /// The message engine's inboxes, once [`ExecCore::route_messages`]
    /// has run; steps then read their ports from here.
    inbox: Option<Router<S>>,
}

/// Names the invariant that only seeding puts a node to sleep.
const SLEEP_AT_SEED: &str = "a node sleeps only from seeding, never from a step (sleep-at-seed)";

/// A step's verdict as `(state, halts)`. Checked in every profile: a step
/// that returned [`Verdict::SleepUntil`] would drop an awake node from
/// every later round without halting it.
fn stepped<S>(verdict: Verdict<S>) -> (S, bool) {
    match verdict {
        Verdict::Active(s) => Some((s, false)),
        Verdict::Halted(s) => Some((s, true)),
        Verdict::SleepUntil(..) => None,
    }
    .or_invariant(SLEEP_AT_SEED)
}

impl<S: Copy + Default> ExecCore<S> {
    /// An empty core over `index_space` state slots.
    pub(crate) fn new(index_space: usize) -> Self {
        ExecCore {
            states: vec![S::default(); index_space],
            verdicts: Vec::new(),
            life: vec![UNSEEDED; index_space],
            awake: Vec::new(),
            asleep: BTreeMap::new(),
            sleeping: 0,
            live: Vec::new(),
            node_steps: 0,
            inbox: None,
        }
    }

    /// Registers node `v` with its round-0 verdict. A node seeded
    /// [`Verdict::Halted`] contributes its state but never steps; a node
    /// seeded [`Verdict::SleepUntil`] first steps in its wake round.
    ///
    /// # Panics
    ///
    /// Panics if `v` was already seeded, or if its wake round is not a
    /// round still to come. Both are hard invariants, not `debug_assert`s:
    /// a re-seeded live node would be stepped twice per round, and a
    /// sleeper whose wake round has passed would never wake, corrupting
    /// release-build executions silently.
    pub(crate) fn seed(&mut self, v: NodeId, verdict: Verdict<S>) {
        assert!(self.life[v.index()] == UNSEEDED, "node {v:?} seeded twice");
        let (state, wake) = match verdict {
            Verdict::Halted(s) => {
                self.states[v.index()] = s;
                self.life[v.index()] = 1;
                return;
            }
            Verdict::Active(s) => (s, None),
            Verdict::SleepUntil(s, round) => (s, Some(round)),
        };
        self.states[v.index()] = state;
        self.life[v.index()] = RUNNING;
        match wake {
            None => self.awake.push(v),
            Some(round) => {
                assert!(
                    round > self.rounds(),
                    "node {v:?} sleeps until round {round}, which is not a round to come \
                     (wake-round invariant)"
                );
                self.asleep.entry(round).or_default().push(v);
                self.sleeping += 1;
            }
        }
    }

    /// Switches the core to explicit messages once every node is seeded:
    /// builds the inboxes of `topo` and delivers every participant's
    /// seeded state, halted and sleeping nodes' included, to its running
    /// neighbours. From here on every step reads its inbox.
    pub(crate) fn route_messages<T: Topology>(&mut self, topo: &T) {
        let mut router = Router::new(topo);
        router.deliver(topo, topo.nodes(), &self.states, &self.life);
        self.inbox = Some(router);
    }

    /// `true` once every node has halted: none is awake and none sleeps.
    pub(crate) fn is_done(&self) -> bool {
        self.awake.is_empty() && self.asleep.is_empty()
    }

    /// Rounds executed so far.
    pub(crate) fn rounds(&self) -> u64 {
        widen_u64(self.live.len())
    }

    /// Starts a communication round, returning its 1-based number. The
    /// sleepers whose wake round this is join the end of the awake list.
    /// A round in which no node is awake still counts.
    ///
    /// # Panics
    ///
    /// Panics when the round budget is exhausted — a deterministic LOCAL
    /// algorithm exceeding a generous budget is a bug, not a runtime
    /// condition. Sleepers count: a wake round beyond the budget trips it.
    pub(crate) fn begin_round(&mut self, max_rounds: u64) -> u64 {
        assert!(
            self.rounds() < max_rounds,
            "algorithm did not halt within {max_rounds} rounds (still {} active)",
            self.awake.len() + self.sleeping
        );
        let round = self.rounds() + 1;
        if let Some(woken) = self.asleep.remove(&round) {
            self.sleeping -= woken.len();
            self.awake.extend(woken);
        }
        self.live.push(widen_u64(self.awake.len() + self.sleeping));
        self.node_steps += widen_u64(self.awake.len());
        round
    }

    /// Executes one round on `topo`: every awake node gets a copy of its
    /// state and its [`Ports`] and returns its verdict.
    ///
    /// The awake list is mapped through [`crate::par::par_map_into`] at
    /// `threads` (at 1 below the pool threshold) into the core's reused
    /// verdict buffer; the verdicts then commit **sequentially in awake
    /// order**. All reads happen before any state is rewritten, and the
    /// same bytes land in the same write order for every pool size.
    pub(crate) fn step<T, F>(&mut self, threads: usize, topo: &T, step: F)
    where
        T: Topology + Sync,
        F: Fn(NodeId, S, &Ports<'_, S>) -> Verdict<S> + Sync,
        S: Send + Sync,
    {
        let threads = if self.awake.len() >= crate::par::PAR_FRONTIER_MIN { threads } else { 1 };
        let (states, inbox) = (&self.states, self.inbox.as_ref());
        crate::par::par_map_into(&self.awake, threads, &mut self.verdicts, |_, &v| {
            let ports = match inbox {
                None => Ports::neighbors(states, topo.neighbor_nodes(v)),
                Some(router) => router.ports(v),
            };
            stepped(step(v, states[v.index()], &ports))
        });
        self.commit_in_awake_order(topo);
    }

    /// Commits the round: writes each awake node's buffered verdict into
    /// the state and lifecycle columns in awake order, drops the newly
    /// halted nodes from the awake list (order preserved) and, when the
    /// core routes messages, first delivers the new states of every node
    /// that stepped.
    fn commit_in_awake_order<T: Topology>(&mut self, topo: &T) {
        // Checked in every profile: a mismatched batch would silently pair
        // verdicts with the wrong nodes, breaking byte-identical parallel
        // equivalence in exactly the builds that run large instances.
        assert_eq!(
            self.verdicts.len(),
            self.awake.len(),
            "one verdict per awake node, in awake order (commit-order invariant)"
        );
        let halted = u32::try_from(self.rounds() + 1)
            .ok()
            .filter(|&entry| entry != RUNNING)
            .or_invariant("a halt round fits the lifecycle column (lifecycle-range invariant)");
        // A message run keeps its newly halted nodes on the list until
        // they have delivered their last state.
        let routed = self.inbox.is_some();
        let (states, life) = (&mut self.states, &mut self.life);
        let mut verdicts = self.verdicts.drain(..);
        self.awake.retain(|&v| {
            let (s, halts) = verdicts.next().or_invariant("one verdict per awake node");
            states[v.index()] = s;
            if halts {
                life[v.index()] = halted;
            }
            !halts || routed
        });
        if let Some(router) = &mut self.inbox {
            router.deliver(topo, self.awake.iter().copied(), &self.states, &self.life);
            let life = &self.life;
            self.awake.retain(|v| life[v.index()] == RUNNING);
        }
    }

    /// Consumes the core into the run's outcome on `topo`, the topology it
    /// was seeded from, which answers the outcome's participation.
    ///
    /// This is the run's one observation point: it adds the run's rounds,
    /// node steps and send steps to [`crate::counters`], and moves the
    /// lifecycle column and the live counts into an armed transcript
    /// recorder (or drops them).
    ///
    /// # Panics
    ///
    /// Panics if called while nodes are still awake or asleep.
    pub(crate) fn finish<T: Topology>(self, topo: &T) -> RunOutcome<'_, T, S> {
        assert!(self.is_done(), "finish() before quiescence");
        let rounds = self.rounds();
        // A message run sends every participant's seeded state, then the
        // new state of every node step.
        let sends = match self.inbox {
            Some(_) => widen_u64(topo.nodes().len()) + self.node_steps,
            None => 0,
        };
        crate::counters::record_run(rounds, self.node_steps, sends);
        crate::transcript::record_segment(self.live, self.life);
        RunOutcome { topo, states: self.states, rounds }
    }
}

/// The result of running an algorithm to quiescence on a topology: final
/// states stay in their one column (no per-node boxing on the way out:
/// the 10M-node smoke tier's peak RSS depends on it), and participation
/// is the topology's, since a run seeds exactly its topology's nodes.
#[derive(Debug)]
pub struct RunOutcome<'t, T, S> {
    topo: &'t T,
    states: Vec<S>,
    /// Number of communication rounds executed (the maximum halting round
    /// over all nodes).
    pub rounds: u64,
}

impl<T: Topology, S: Copy> RunOutcome<'_, T, S> {
    /// The final state of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` did not participate.
    pub fn state(&self, v: NodeId) -> S {
        self.try_state(v).or_invariant("node participated in the run")
    }

    /// The final state of `v`, or `None` for non-participants.
    pub fn try_state(&self, v: NodeId) -> Option<S> {
        self.topo.contains_node(v).then(|| self.states[v.index()])
    }

    /// Every slot's final state in index order (`None` for
    /// non-participants).
    pub fn states(&self) -> impl ExactSizeIterator<Item = Option<S>> + '_ {
        (0..self.states.len()).map(|i| self.try_state(NodeId::new(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_gen::path;
    use treelocal_graph::{narrow_u32, SemiGraph};

    impl<S: Copy + Default> ExecCore<S> {
        /// The current state of node `v`.
        fn state(&self, v: NodeId) -> S {
            assert!(self.life[v.index()] != UNSEEDED, "node {v:?} participates in the execution");
            self.states[v.index()]
        }

        /// Whether `v` is still running (awake or asleep) in O(1).
        fn is_active(&self, v: NodeId) -> bool {
            self.life[v.index()] == RUNNING
        }

        /// The awake list: after [`ExecCore::begin_round`], the nodes this
        /// round steps, in deterministic order. Sleepers are not on it.
        fn awake(&self) -> &[NodeId] {
            &self.awake
        }
    }

    /// A newtype state: every lifecycle behaviour below runs over it and
    /// over a primitive `u32`, so a user-defined state is pinned the same
    /// way.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Word(u32);

    /// The states the lifecycle behaviours run over.
    trait TestState: Copy + Default + PartialEq + std::fmt::Debug + Send + Sync {
        fn of(x: u32) -> Self;
        fn get(self) -> u32;
    }

    impl TestState for u32 {
        fn of(x: u32) -> Self {
            x
        }
        fn get(self) -> u32 {
            self
        }
    }

    impl TestState for Word {
        fn of(x: u32) -> Self {
            Word(x)
        }
        fn get(self) -> u32 {
            self.0
        }
    }

    fn seeded_halted_nodes_stay_off_the_awake_list<S: TestState>() {
        let mut core: ExecCore<S> = ExecCore::new(3);
        core.seed(NodeId::new(0), Verdict::Halted(S::of(7)));
        core.seed(NodeId::new(1), Verdict::Active(S::of(1)));
        core.seed(NodeId::new(2), Verdict::Active(S::of(2)));
        assert_eq!(core.awake(), &[NodeId::new(1), NodeId::new(2)]);
        assert!(!core.is_done());
        assert_eq!(core.state(NodeId::new(0)), S::of(7));
        assert!(!core.is_active(NodeId::new(0)));
        assert!(core.is_active(NodeId::new(1)));
    }

    #[test]
    fn seeded_halted_nodes_never_enter_the_frontier() {
        seeded_halted_nodes_stay_off_the_awake_list::<u32>();
    }

    #[test]
    fn soa_seeded_halted_nodes_never_enter_the_frontier() {
        seeded_halted_nodes_stay_off_the_awake_list::<Word>();
    }

    #[test]
    fn is_active_tracks_frontier_membership_exactly() {
        let mut core: ExecCore<u32> = ExecCore::new(4);
        let g = path(4);
        for i in 0..3 {
            core.seed(NodeId::new(i), Verdict::Active(narrow_u32(i)));
        }
        // Slot 3 was never seeded: not active.
        assert!(!core.is_active(NodeId::new(3)));
        core.begin_round(10);
        core.step(
            1,
            &g,
            |v, own, _| {
                if v.index() == 1 {
                    Verdict::Halted(own)
                } else {
                    Verdict::Active(own)
                }
            },
        );
        for i in 0..4 {
            let v = NodeId::new(i);
            assert_eq!(core.is_active(v), core.awake().contains(&v), "slot {i}");
        }
    }

    fn frontier_shrinks_in_order_and_halted_states_freeze<S: TestState>() {
        // Slot 4 lies outside the restriction: never seeded, never read.
        let g = path(5);
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() < 4);
        let mut core: ExecCore<S> = ExecCore::new(5);
        for i in 0..4 {
            core.seed(NodeId::new(i), Verdict::Active(S::of(narrow_u32(i))));
        }
        // Round 1: odd nodes halt, doubling their state.
        core.begin_round(10);
        core.step(1, &s, |v, own, _| {
            if v.index() % 2 == 1 {
                Verdict::Halted(S::of(own.get() * 2))
            } else {
                Verdict::Active(S::of(own.get() + 1))
            }
        });
        assert_eq!(core.awake(), &[NodeId::new(0), NodeId::new(2)]);
        assert_eq!(core.state(NodeId::new(1)), S::of(2));
        assert_eq!(core.state(NodeId::new(3)), S::of(6));
        // Round 2: survivors read halted node 1's frozen state on port 0
        // and halt.
        core.begin_round(10);
        core.step(1, &s, |_, own, ports| Verdict::Halted(S::of(own.get() + ports.port(0).get())));
        assert!(core.is_done());
        let out = core.finish(&s);
        assert_eq!(out.rounds, 2);
        assert_eq!(out.state(NodeId::new(0)), S::of(3));
        assert_eq!(out.state(NodeId::new(2)), S::of(5));
        let expected = [Some(3), Some(2), Some(5), Some(6), None].map(|x| x.map(S::of));
        assert_eq!(out.states().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn frontier_shrinks_in_order_and_halted_states_stay_readable() {
        frontier_shrinks_in_order_and_halted_states_freeze::<u32>();
    }

    #[test]
    fn soa_frontier_shrinks_in_order_and_halted_lanes_stay_frozen() {
        frontier_shrinks_in_order_and_halted_states_freeze::<Word>();
    }

    fn snapshot_reads_previous_round_states<S: TestState>() {
        // Nodes 0 and 1 both read each other's state in the same round;
        // both must see the *previous* value even though one row is
        // committed before the other.
        let mut core: ExecCore<S> = ExecCore::new(2);
        let g = path(2);
        core.seed(NodeId::new(0), Verdict::Active(S::of(10)));
        core.seed(NodeId::new(1), Verdict::Active(S::of(20)));
        core.begin_round(10);
        core.step(1, &g, |_, _, ports| Verdict::Halted(ports.port(0)));
        let out = core.finish(&g);
        assert_eq!(out.state(NodeId::new(0)), S::of(20));
        assert_eq!(out.state(NodeId::new(1)), S::of(10));
    }

    #[test]
    fn snapshot_reads_previous_round_states_mid_round() {
        snapshot_reads_previous_round_states::<u32>();
    }

    #[test]
    fn soa_snapshot_reads_previous_round_lanes_mid_round() {
        snapshot_reads_previous_round_states::<Word>();
    }

    fn steps_consume_their_own_state_by_value<S: TestState>() {
        let mut core: ExecCore<S> = ExecCore::new(3);
        let g = path(3);
        for i in 0..3 {
            core.seed(NodeId::new(i), Verdict::Active(S::of(narrow_u32(i) + 1)));
        }
        core.begin_round(10);
        core.step(1, &g, |_, own, _| Verdict::Halted(S::of(own.get() * 10)));
        let out = core.finish(&g);
        assert_eq!(out.rounds, 1);
        for i in 0..3 {
            assert_eq!(out.state(NodeId::new(i)), S::of((narrow_u32(i) + 1) * 10));
        }
    }

    #[test]
    fn owned_stepping_consumes_states() {
        steps_consume_their_own_state_by_value::<u32>();
    }

    #[test]
    fn soa_owned_stepping_consumes_decoded_states() {
        steps_consume_their_own_state_by_value::<Word>();
    }

    /// Seeds node 0 with `first`, then again with `second`.
    fn reseed<S: TestState>(first: Verdict<S>, second: Verdict<S>) {
        let mut core: ExecCore<S> = ExecCore::new(2);
        core.seed(NodeId::new(0), first);
        core.seed(NodeId::new(0), second);
    }

    // A plain `assert!`, not `debug_assert!`: with debug assertions
    // compiled out (release builds), a re-seeded Active node used to be
    // pushed onto the frontier twice and stepped twice per round. CI runs
    // these three under `--release` too.
    #[test]
    #[should_panic(expected = "seeded twice")]
    fn double_seeding_an_active_node_is_rejected() {
        reseed::<u32>(Verdict::Active(1), Verdict::Active(2));
    }

    #[test]
    #[should_panic(expected = "seeded twice")]
    fn double_seeding_a_halted_node_is_rejected() {
        reseed::<u32>(Verdict::Halted(1), Verdict::Active(2));
    }

    #[test]
    #[should_panic(expected = "seeded twice")]
    fn soa_double_seeding_is_rejected() {
        reseed::<Word>(Verdict::Active(Word(1)), Verdict::Halted(Word(2)));
    }

    fn exceed_a_one_round_budget<S: TestState>() {
        let mut core: ExecCore<S> = ExecCore::new(1);
        let g = path(1);
        core.seed(NodeId::new(0), Verdict::Active(S::of(0)));
        core.begin_round(1);
        core.step(1, &g, |_, own, _| Verdict::Active(S::of(own.get() + 1)));
        core.begin_round(1);
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn round_budget_is_enforced() {
        exceed_a_one_round_budget::<u32>();
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn soa_round_budget_is_enforced() {
        exceed_a_one_round_budget::<Word>();
    }

    fn halting_at_seeding_runs_zero_rounds<S: TestState>() {
        let mut core: ExecCore<S> = ExecCore::new(1);
        let g = path(1);
        core.seed(NodeId::new(0), Verdict::Halted(S::of(5)));
        assert!(core.is_done());
        let out = core.finish(&g);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.state(NodeId::new(0)), S::of(5));
    }

    #[test]
    fn zero_round_execution() {
        halting_at_seeding_runs_zero_rounds::<u32>();
    }

    #[test]
    fn soa_zero_round_execution() {
        halting_at_seeding_runs_zero_rounds::<Word>();
    }

    #[test]
    fn a_sleeper_is_stepped_only_from_its_wake_round() {
        let mut core: ExecCore<u32> = ExecCore::new(3);
        let g = path(3);
        core.seed(NodeId::new(0), Verdict::Active(0));
        core.seed(NodeId::new(1), Verdict::SleepUntil(10, 3));
        core.seed(NodeId::new(2), Verdict::SleepUntil(20, 2));
        assert_eq!(core.awake(), &[NodeId::new(0)]);
        let mut stepped_by_round = Vec::new();
        while !core.is_done() {
            let round = core.begin_round(10);
            stepped_by_round.push(core.awake().to_vec());
            core.step(1, &g, |v, own, _| {
                if round == 4 {
                    Verdict::Halted(own)
                } else {
                    assert!(v.index() == 0 || round >= [0, 3, 2][v.index()], "{v:?} in {round}");
                    Verdict::Active(own + 1)
                }
            });
        }
        let (n0, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        // Woken nodes join the end of the awake list, in seeding order.
        assert_eq!(stepped_by_round, [vec![n0], vec![n0, n2], vec![n0, n2, n1], vec![n0, n2, n1]]);
        let out = core.finish(&g);
        assert_eq!(out.rounds, 4);
        assert_eq!(out.states().collect::<Vec<_>>(), [Some(3), Some(11), Some(22)]);
    }

    #[test]
    fn awake_neighbours_read_a_sleepers_seeded_lanes() {
        let mut core: ExecCore<u32> = ExecCore::new(2);
        let g = path(2);
        core.seed(NodeId::new(0), Verdict::Active(1));
        core.seed(NodeId::new(1), Verdict::SleepUntil(40, 2));
        assert!(core.is_active(NodeId::new(1)), "a sleeper is still running");
        core.begin_round(10);
        core.step(1, &g, |_, own, ports| Verdict::Halted(own + ports.port(0)));
        assert_eq!(core.state(NodeId::new(0)), 41);
        core.begin_round(10);
        core.step(1, &g, |_, own, _| Verdict::Halted(own + 1));
        let out = core.finish(&g);
        assert_eq!(out.state(NodeId::new(1)), 41);
    }

    #[test]
    fn a_round_with_only_sleepers_still_counts() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        let g = path(1);
        core.seed(NodeId::new(0), Verdict::SleepUntil(5, 3));
        for round in 1..=2 {
            assert!(!core.is_done(), "only a sleeper remains before round {round}");
            assert_eq!(core.begin_round(10), round);
            assert!(core.awake().is_empty());
            core.step(1, &g, |v, _, _| unreachable!("{v:?} stepped while asleep"));
            assert_eq!(core.rounds(), round);
        }
        assert!(!core.is_done());
        assert_eq!(core.begin_round(10), 3);
        core.step(1, &g, |_, own, _| Verdict::Halted(own * 2));
        assert!(core.is_done());
        let out = core.finish(&g);
        assert_eq!(out.rounds, 3);
        assert_eq!(out.state(NodeId::new(0)), 10);
    }

    #[test]
    #[should_panic(expected = "did not halt within 3 rounds (still 1 active)")]
    fn a_wake_round_beyond_the_budget_trips_it() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        let g = path(1);
        core.seed(NodeId::new(0), Verdict::SleepUntil(0, 5));
        while !core.is_done() {
            core.begin_round(3);
            core.step(1, &g, |_, own, _| Verdict::Halted(own));
        }
    }

    #[test]
    #[should_panic(expected = "wake-round invariant")]
    fn a_sleeper_must_wake_in_a_round_to_come() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::SleepUntil(0, 0));
    }

    #[test]
    #[should_panic(expected = "sleep-at-seed")]
    fn a_step_cannot_put_a_node_to_sleep() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        let g = path(1);
        core.seed(NodeId::new(0), Verdict::Active(0));
        core.begin_round(10);
        core.step(1, &g, |_, own, _| Verdict::SleepUntil(own, 5));
    }

    /// The commit-order invariant holds in *every* build profile: this
    /// suite also runs under `--release` in CI, where a `debug_assert`
    /// would compile away.
    #[test]
    #[should_panic(expected = "commit-order invariant")]
    fn short_verdict_batches_are_rejected_in_every_profile() {
        let mut core: ExecCore<u32> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(1));
        core.seed(NodeId::new(1), Verdict::Active(2));
        core.verdicts.push((9, false));
        core.commit_in_awake_order(&path(2));
    }

    #[test]
    #[should_panic(expected = "commit-order invariant")]
    fn oversized_verdict_batches_are_rejected_in_every_profile() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Active(1));
        core.verdicts.extend([(9, false), (8, false)]);
        core.commit_in_awake_order(&path(2));
    }
}
