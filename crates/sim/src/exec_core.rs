//! The execution core shared by the snapshot engine ([`crate::run`]) and
//! the message-passing engine ([`crate::run_messages`]).
//!
//! [`ExecCore`] owns one run loop for both engines:
//!
//! * it tracks the **active frontier** — the (deterministically ordered)
//!   list of nodes that have not halted — so a round only visits and only
//!   rewrites the lanes of live nodes;
//! * states live in node-major u32/u64 lane columns ([`StateCodec`]);
//!   reads decode a fresh value, writes encode in place, and halted lanes
//!   are **frozen in place** — never rewritten after the halting round;
//! * double buffering happens through a scratch set of columns: all
//!   frontier nodes read the previous round's lanes, then the round
//!   commits atomically **in frontier order**, preserving the
//!   synchronous-round semantics of Definition 5 and making sequential
//!   and parallel rounds produce byte-identical columns.
//!
//! The core cannot clone a state — it only encodes and decodes lanes.

use crate::codec::{RunOutcome, Snapshot, SoaColumns, StateCodec};
use crate::engine::Verdict;
#[cfg(feature = "parallel")]
use treelocal_graph::OrInvariant;
use treelocal_graph::{widen_u64, NodeId};

/// Double-buffered frontier executor for synchronous LOCAL rounds.
///
/// The lifecycle is: [`ExecCore::new`] → one [`ExecCore::seed`] per
/// participating node → repeat { [`ExecCore::begin_round`] +
/// [`ExecCore::step_snapshot`] or [`ExecCore::step_owned`] } until
/// [`ExecCore::is_done`] → [`ExecCore::finish`].
#[derive(Debug)]
pub struct ExecCore<S: StateCodec> {
    /// Current lane columns. During a step these hold the *previous*
    /// round's states.
    main: SoaColumns<S>,
    /// Verdict scratch columns, written for frontier rows only.
    scratch: SoaColumns<S>,
    /// Whether the scratch row of a frontier node carries a halting
    /// verdict this round.
    scratch_halted: Vec<bool>,
    /// `seeded[i]` iff slot `i` participates.
    seeded: Vec<bool>,
    /// `active[i]` iff slot `i` holds a frontier node.
    active: Vec<bool>,
    /// Nodes still running, in seeding order.
    frontier: Vec<NodeId>,
    /// Communication rounds executed so far.
    rounds: u64,
}

impl<S: StateCodec> ExecCore<S> {
    /// An empty core over `index_space` state slots.
    pub fn new(index_space: usize) -> Self {
        crate::transcript::segment_start();
        ExecCore {
            main: SoaColumns::new(index_space),
            scratch: SoaColumns::new(index_space),
            scratch_halted: vec![false; index_space],
            seeded: vec![false; index_space],
            active: vec![false; index_space],
            frontier: Vec::new(),
            rounds: 0,
        }
    }

    /// Registers node `v` with its round-0 verdict. A node seeded
    /// [`Verdict::Halted`] contributes its lanes but never enters the
    /// frontier.
    ///
    /// # Panics
    ///
    /// Panics if `v` was already seeded. This is a hard invariant, not a
    /// `debug_assert`: a re-seeded Active node would sit on the frontier
    /// twice and be stepped twice per round, corrupting release-build
    /// executions silently.
    pub fn seed(&mut self, v: NodeId, verdict: Verdict<S>) {
        assert!(!self.seeded[v.index()], "node {v:?} seeded twice");
        self.seeded[v.index()] = true;
        match verdict {
            Verdict::Active(s) => {
                self.main.write(v, &s);
                self.active[v.index()] = true;
                self.frontier.push(v);
            }
            Verdict::Halted(s) => {
                self.main.write(v, &s);
                crate::transcript::record_halt(v, 0);
            }
        }
    }

    /// `true` once every node has halted.
    pub fn is_done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// The nodes that will execute the next round, in deterministic order.
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// Whether `v` is still running — frontier membership in O(1).
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active[v.index()]
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The current state of node `v`, decoded from its lanes.
    ///
    /// # Panics
    ///
    /// Panics if `v` was never seeded.
    pub fn state(&self, v: NodeId) -> S {
        assert!(self.seeded[v.index()], "node {v:?} participates in the execution");
        self.main.read(v)
    }

    /// Starts a communication round, returning its 1-based number.
    ///
    /// # Panics
    ///
    /// Panics when the round budget is exhausted — a deterministic LOCAL
    /// algorithm exceeding a generous budget is a bug, not a runtime
    /// condition.
    pub fn begin_round(&mut self, max_rounds: u64) -> u64 {
        assert!(
            self.rounds < max_rounds,
            "algorithm did not halt within {max_rounds} rounds (still {} active)",
            self.frontier.len()
        );
        crate::counters::record_round(widen_u64(self.frontier.len()));
        crate::transcript::record_round(&self.frontier);
        self.rounds += 1;
        self.rounds
    }

    /// Executes one round in snapshot style: every frontier node observes
    /// the previous round's columns and returns its verdict. Verdicts are
    /// encoded into the scratch columns, then committed to the main
    /// columns in frontier order — all reads happen before any main row is
    /// rewritten.
    pub fn step_snapshot<F>(&mut self, mut step: F)
    where
        F: FnMut(NodeId, S, &Snapshot<'_, S>) -> Verdict<S>,
    {
        let snap = Snapshot::over(&self.main, &self.seeded);
        for idx in 0..self.frontier.len() {
            let v = self.frontier[idx];
            let own = self.main.read(v);
            match step(v, own, &snap) {
                Verdict::Active(s) => {
                    self.scratch.write(v, &s);
                    self.scratch_halted[v.index()] = false;
                }
                Verdict::Halted(s) => {
                    self.scratch.write(v, &s);
                    self.scratch_halted[v.index()] = true;
                }
            }
        }
        self.commit();
    }

    /// Executes one round in snapshot style on `threads` pool workers.
    ///
    /// Frontier chunks step concurrently against the shared previous-round
    /// columns; verdicts are collected positionally and encoded into the
    /// main columns **sequentially in frontier order** — the same bytes in
    /// the same write order as [`ExecCore::step_snapshot`]'s
    /// scratch-then-copy commit, for every pool size. Small frontiers (and
    /// `threads <= 1`) take the sequential path unchanged.
    #[cfg(feature = "parallel")]
    pub fn step_snapshot_threads<F>(&mut self, threads: usize, step: F)
    where
        F: Fn(NodeId, S, &Snapshot<'_, S>) -> Verdict<S> + Sync,
        S: Send,
    {
        if threads <= 1 || self.frontier.len() < crate::par::PAR_FRONTIER_MIN {
            self.step_snapshot(step);
            return;
        }
        let verdicts = {
            let snap = Snapshot::over(&self.main, &self.seeded);
            crate::par::par_map(&self.frontier, threads, |_, &v| step(v, snap.get(v), &snap))
        };
        self.commit_in_frontier_order(verdicts);
    }

    /// Executes one round in owned style (the message engine's receive
    /// phase): every frontier node consumes its decoded state and returns
    /// its verdict. An owned step reads no neighbor lanes, so verdicts
    /// commit directly to the main columns as the frontier is walked —
    /// byte-identical to a scratch commit, one copy cheaper.
    pub fn step_owned<F>(&mut self, mut step: F)
    where
        F: FnMut(NodeId, S) -> Verdict<S>,
    {
        let main = &mut self.main;
        let active = &mut self.active;
        let rounds = self.rounds;
        self.frontier.retain(|&v| match step(v, main.read(v)) {
            Verdict::Active(s) => {
                main.write(v, &s);
                true
            }
            Verdict::Halted(s) => {
                main.write(v, &s);
                active[v.index()] = false;
                crate::transcript::record_halt(v, rounds);
                false
            }
        });
    }

    /// Executes one round in owned style on `threads` pool workers:
    /// frontier states are decoded on the workers (an owned step reads no
    /// neighbor lanes), verdicts commit sequentially in frontier order.
    #[cfg(feature = "parallel")]
    pub fn step_owned_threads<F>(&mut self, threads: usize, step: F)
    where
        F: Fn(NodeId, S) -> Verdict<S> + Sync,
        S: Send,
    {
        if threads <= 1 || self.frontier.len() < crate::par::PAR_FRONTIER_MIN {
            self.step_owned(step);
            return;
        }
        let main = &self.main;
        let verdicts = crate::par::par_map(&self.frontier, threads, |_, &v| step(v, main.read(v)));
        self.commit_in_frontier_order(verdicts);
    }

    /// Commits a round whose verdicts were collected positionally (one per
    /// frontier node, in frontier order). Identical retain semantics to
    /// [`ExecCore::commit`].
    #[cfg(feature = "parallel")]
    fn commit_in_frontier_order(&mut self, verdicts: Vec<Verdict<S>>) {
        // Checked in every profile: a mismatched batch would silently pair
        // verdicts with the wrong nodes, breaking byte-identical parallel
        // equivalence in exactly the builds that run large instances.
        assert_eq!(
            verdicts.len(),
            self.frontier.len(),
            "one verdict per frontier node, in frontier order (commit-order invariant)"
        );
        let main = &mut self.main;
        let active = &mut self.active;
        let rounds = self.rounds;
        let mut verdicts = verdicts.into_iter();
        self.frontier.retain(|&v| {
            match verdicts.next().or_invariant("one verdict per frontier node") {
                Verdict::Active(s) => {
                    main.write(v, &s);
                    true
                }
                Verdict::Halted(s) => {
                    main.write(v, &s);
                    active[v.index()] = false;
                    crate::transcript::record_halt(v, rounds);
                    false
                }
            }
        });
    }

    /// Commits the round: copies every frontier node's scratch row into
    /// the main columns (in frontier order) and drops newly halted nodes
    /// from the frontier (order preserved).
    fn commit(&mut self) {
        let main = &mut self.main;
        let scratch = &self.scratch;
        let scratch_halted = &self.scratch_halted;
        let active = &mut self.active;
        let rounds = self.rounds;
        self.frontier.retain(|&v| {
            main.copy_row_from(scratch, v);
            if scratch_halted[v.index()] {
                active[v.index()] = false;
                crate::transcript::record_halt(v, rounds);
                false
            } else {
                true
            }
        });
    }

    /// Consumes the core into the run's outcome. The scratch columns are
    /// dropped here, so a finished run holds exactly one set of lanes —
    /// the peak-RSS half of the engine-scale story.
    ///
    /// # Panics
    ///
    /// Panics if called while nodes are still active.
    pub fn finish(self) -> RunOutcome<S> {
        assert!(self.frontier.is_empty(), "finish() before quiescence");
        RunOutcome { columns: self.main, seeded: self.seeded, rounds: self.rounds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::narrow_u32;

    #[test]
    fn seeded_halted_nodes_never_enter_the_frontier() {
        let mut core: ExecCore<u32> = ExecCore::new(3);
        core.seed(NodeId::new(0), Verdict::Halted(7));
        core.seed(NodeId::new(1), Verdict::Active(1));
        core.seed(NodeId::new(2), Verdict::Active(2));
        assert_eq!(core.frontier(), &[NodeId::new(1), NodeId::new(2)]);
        assert!(!core.is_done());
        assert_eq!(core.state(NodeId::new(0)), 7);
        assert!(!core.is_active(NodeId::new(0)));
        assert!(core.is_active(NodeId::new(1)));
    }

    #[test]
    fn is_active_tracks_frontier_membership_exactly() {
        let mut core: ExecCore<u32> = ExecCore::new(4);
        for i in 0..3 {
            core.seed(NodeId::new(i), Verdict::Active(narrow_u32(i)));
        }
        // Slot 3 was never seeded: not active.
        assert!(!core.is_active(NodeId::new(3)));
        core.begin_round(10);
        core.step_snapshot(|v, own, _| {
            if v.index() == 1 {
                Verdict::Halted(own)
            } else {
                Verdict::Active(own)
            }
        });
        for i in 0..4 {
            let v = NodeId::new(i);
            assert_eq!(core.is_active(v), core.frontier().contains(&v), "slot {i}");
        }
    }

    #[test]
    fn frontier_shrinks_in_order_and_halted_states_stay_readable() {
        let mut core: ExecCore<u32> = ExecCore::new(5);
        for i in 0..4 {
            core.seed(NodeId::new(i), Verdict::Active(narrow_u32(i)));
        }
        // Round 1: odd nodes halt, doubling their state.
        core.begin_round(10);
        core.step_snapshot(|v, own, _| {
            if v.index() % 2 == 1 {
                Verdict::Halted(own * 2)
            } else {
                Verdict::Active(own + 1)
            }
        });
        assert_eq!(core.frontier(), &[NodeId::new(0), NodeId::new(2)]);
        assert_eq!(core.state(NodeId::new(1)), 2);
        assert_eq!(core.state(NodeId::new(3)), 6);
        // Round 2: survivors read a halted neighbor's frozen lanes via the
        // snapshot and halt.
        core.begin_round(10);
        core.step_snapshot(|_, own, snap| Verdict::Halted(own + snap.get(NodeId::new(1))));
        assert!(core.is_done());
        let out = core.finish();
        assert_eq!(out.rounds, 2);
        assert_eq!(out.state(NodeId::new(0)), 3);
        assert_eq!(out.state(NodeId::new(2)), 5);
        // Slot 4 never participated.
        assert_eq!(out.states().collect::<Vec<_>>(), [Some(3), Some(2), Some(5), Some(6), None]);
    }

    #[test]
    fn snapshot_reads_previous_round_states_mid_round() {
        // Nodes 0 and 1 both read each other's state in the same round;
        // both must see the *previous* value even though one row is
        // committed before the other.
        let mut core: ExecCore<u32> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(10));
        core.seed(NodeId::new(1), Verdict::Active(20));
        core.begin_round(10);
        core.step_snapshot(|v, _, snap| Verdict::Halted(snap.get(NodeId::new(1 - v.index()))));
        let out = core.finish();
        assert_eq!(out.state(NodeId::new(0)), 20);
        assert_eq!(out.state(NodeId::new(1)), 10);
    }

    #[test]
    #[should_panic(expected = "seeded twice")]
    fn double_seeding_an_active_node_is_rejected() {
        // A plain `assert!`, not `debug_assert!`: with debug assertions
        // compiled out (release builds), a re-seeded Active node used to be
        // pushed onto the frontier twice and stepped twice per round. The
        // `release_invariants` integration test exercises this exact path
        // under `--release`.
        let mut core: ExecCore<u32> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(1));
        core.seed(NodeId::new(0), Verdict::Active(2));
    }

    #[test]
    #[should_panic(expected = "seeded twice")]
    fn double_seeding_a_halted_node_is_rejected() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Halted(1));
        core.seed(NodeId::new(0), Verdict::Active(2));
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn round_budget_is_enforced() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Active(0));
        core.begin_round(1);
        core.step_snapshot(|_, own, _| Verdict::Active(own + 1));
        core.begin_round(1);
    }

    #[test]
    fn zero_round_execution() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Halted(5));
        assert!(core.is_done());
        let out = core.finish();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.state(NodeId::new(0)), 5);
    }

    /// The commit-order invariant holds in *every* build profile: this
    /// suite also runs under `--release` in CI, where a `debug_assert`
    /// would compile away.
    #[cfg(feature = "parallel")]
    #[test]
    #[should_panic(expected = "commit-order invariant")]
    fn short_verdict_batches_are_rejected_in_every_profile() {
        let mut core: ExecCore<u32> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(1));
        core.seed(NodeId::new(1), Verdict::Active(2));
        core.commit_in_frontier_order(vec![Verdict::Active(9)]);
    }

    #[cfg(feature = "parallel")]
    #[test]
    #[should_panic(expected = "commit-order invariant")]
    fn oversized_verdict_batches_are_rejected_in_every_profile() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Active(1));
        core.commit_in_frontier_order(vec![Verdict::Active(9), Verdict::Active(8)]);
    }

    /// A one-u32-lane newtype state: the tests below pin the same
    /// lifecycle through a user-defined codec rather than a primitive one.
    #[derive(Debug, PartialEq)]
    struct Lane(u32);

    impl StateCodec for Lane {
        const U32_LANES: usize = 1;
        const U64_LANES: usize = 0;
        fn encode(&self, lanes32: &mut [u32], _lanes64: &mut [u64]) {
            lanes32[0] = self.0;
        }
        fn decode(lanes32: &[u32], _lanes64: &[u64]) -> Self {
            Lane(lanes32[0])
        }
    }

    #[test]
    fn soa_seeded_halted_nodes_never_enter_the_frontier() {
        let mut core: ExecCore<Lane> = ExecCore::new(3);
        core.seed(NodeId::new(0), Verdict::Halted(Lane(7)));
        core.seed(NodeId::new(1), Verdict::Active(Lane(1)));
        core.seed(NodeId::new(2), Verdict::Active(Lane(2)));
        assert_eq!(core.frontier(), &[NodeId::new(1), NodeId::new(2)]);
        assert!(!core.is_done());
        assert_eq!(core.state(NodeId::new(0)), Lane(7));
        assert!(!core.is_active(NodeId::new(0)));
        assert!(core.is_active(NodeId::new(1)));
    }

    #[test]
    fn soa_frontier_shrinks_in_order_and_halted_lanes_stay_frozen() {
        let mut core: ExecCore<Lane> = ExecCore::new(4);
        for i in 0..4 {
            core.seed(NodeId::new(i), Verdict::Active(Lane(narrow_u32(i))));
        }
        core.begin_round(10);
        core.step_snapshot(|v, own, _| {
            if v.index() % 2 == 1 {
                Verdict::Halted(Lane(own.0 * 2))
            } else {
                Verdict::Active(Lane(own.0 + 1))
            }
        });
        assert_eq!(core.frontier(), &[NodeId::new(0), NodeId::new(2)]);
        assert_eq!(core.state(NodeId::new(1)), Lane(2));
        assert_eq!(core.state(NodeId::new(3)), Lane(6));
        // Survivors read a halted neighbor's frozen lanes via the snapshot.
        core.begin_round(10);
        core.step_snapshot(|_, own, snap| {
            Verdict::Halted(Lane(own.0 + snap.get(NodeId::new(1)).0))
        });
        assert!(core.is_done());
        let out = core.finish();
        assert_eq!(out.rounds, 2);
        assert_eq!(out.state(NodeId::new(0)), Lane(3));
        assert_eq!(out.state(NodeId::new(2)), Lane(5));
        assert_eq!(out.try_state(NodeId::new(3)), Some(Lane(6)));
    }

    #[test]
    fn soa_snapshot_reads_previous_round_lanes_mid_round() {
        let mut core: ExecCore<Lane> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(Lane(10)));
        core.seed(NodeId::new(1), Verdict::Active(Lane(20)));
        core.begin_round(10);
        core.step_snapshot(|v, _, snap| Verdict::Halted(snap.get(NodeId::new(1 - v.index()))));
        let out = core.finish();
        assert_eq!(out.state(NodeId::new(0)), Lane(20));
        assert_eq!(out.state(NodeId::new(1)), Lane(10));
    }

    #[test]
    fn soa_owned_stepping_consumes_decoded_states() {
        let mut core: ExecCore<Lane> = ExecCore::new(3);
        for i in 0..3 {
            core.seed(NodeId::new(i), Verdict::Active(Lane(narrow_u32(i) + 1)));
        }
        core.begin_round(10);
        core.step_owned(|_, own| Verdict::Halted(Lane(own.0 * 10)));
        let out = core.finish();
        assert_eq!(out.rounds, 1);
        for i in 0..3 {
            assert_eq!(out.state(NodeId::new(i)), Lane((narrow_u32(i) + 1) * 10));
        }
    }

    #[test]
    #[should_panic(expected = "seeded twice")]
    fn soa_double_seeding_is_rejected() {
        let mut core: ExecCore<Lane> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(Lane(1)));
        core.seed(NodeId::new(0), Verdict::Halted(Lane(2)));
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn soa_round_budget_is_enforced() {
        let mut core: ExecCore<Lane> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Active(Lane(0)));
        core.begin_round(1);
        core.step_snapshot(|_, own, _| Verdict::Active(Lane(own.0 + 1)));
        core.begin_round(1);
    }

    #[test]
    fn soa_zero_round_execution() {
        let mut core: ExecCore<Lane> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Halted(Lane(5)));
        assert!(core.is_done());
        let out = core.finish();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.state(NodeId::new(0)), Lane(5));
    }
}
