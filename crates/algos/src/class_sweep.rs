//! The colour-class sweep: the one engine algorithm behind every "colour
//! classes as a schedule" step.
//!
//! Given a proper colouring, the classes act as a schedule, one class per
//! round, highest class first. A node waits until its round, then decides
//! once from the neighbours that have already decided, and halts. Same-class
//! nodes are never adjacent, so the nodes deciding in one round never read
//! each other. [`sweep_reduce`](crate::sweep_reduce), every
//! [`kw_reduce`](crate::kw_reduce) phase,
//! [`mis_from_coloring`](crate::mis_from_coloring) and
//! [`list_sweep`](crate::list_sweep) are [`SweepRule`]s on this algorithm:
//! a rule says *when* a node decides and *what*.
//!
//! Waiting nodes stay on the frontier every round, so the transcript's
//! per-round frontier commitment sees them, and a node halts in exactly the
//! round its rule names.

use treelocal_graph::{NodeId, OrInvariant, Topology};
use treelocal_sim::{run, Ctx, Snapshot, StateCodec, SyncAlgorithm, Verdict};

/// What one class sweep computes. Decisions are `u64` words; each rule's
/// caller maps them to its outcome type.
pub(crate) trait SweepRule {
    /// The round in which `v` decides. Round 0 means `v` decides at
    /// seeding, before any communication.
    fn round(&self, v: NodeId) -> u64;

    /// `v`'s decision. `decided(w)` is neighbour `w`'s decision when `w`
    /// decided in an earlier round, and `None` while `w` still waits.
    fn decide<T: Topology>(
        &self,
        topo: &T,
        v: NodeId,
        decided: impl Fn(NodeId) -> Option<u64>,
    ) -> u64;
}

/// One node's sweep state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SweepState {
    /// Decides in this round, which is at least 1.
    Waiting { round: u64 },
    /// Decided on this value.
    Decided(u64),
}

/// `[round, value]` u64 lanes. A waiting node has its (non-zero) round and
/// value 0; a decided node has round 0. Equal states have equal lanes.
impl StateCodec for SweepState {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 2;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        let (round, value) = match *self {
            SweepState::Waiting { round } => (round, 0),
            SweepState::Decided(value) => (0, value),
        };
        lanes64[0] = round;
        lanes64[1] = value;
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        match lanes64[0] {
            0 => SweepState::Decided(lanes64[1]),
            round => SweepState::Waiting { round },
        }
    }
}

impl SweepState {
    fn decision(self) -> Option<u64> {
        match self {
            SweepState::Waiting { .. } => None,
            SweepState::Decided(value) => Some(value),
        }
    }
}

struct ClassSweep<'r, R>(&'r R);

impl<T: Topology, R: SweepRule> SyncAlgorithm<T> for ClassSweep<'_, R> {
    type State = SweepState;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<SweepState> {
        match self.0.round(v) {
            0 => Verdict::Halted(SweepState::Decided(self.0.decide(ctx.topo, v, |_| None))),
            round => Verdict::Active(SweepState::Waiting { round }),
        }
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: SweepState,
        prev: &Snapshot<'_, SweepState>,
    ) -> Verdict<SweepState> {
        let SweepState::Waiting { round: mine } = own else {
            unreachable!("decided nodes have halted")
        };
        if round < mine {
            return Verdict::Active(own);
        }
        debug_assert_eq!(round, mine);
        Verdict::Halted(SweepState::Decided(self.0.decide(ctx.topo, v, |w| prev.get(w).decision())))
    }
}

/// Runs `rule` until every node has decided, within `max_rounds` rounds.
/// Returns each slot's decision mapped through `output` (`None` for
/// non-participants) and the rounds executed.
pub(crate) fn class_sweep<T, R, D>(
    ctx: &Ctx<'_, T>,
    rule: &R,
    max_rounds: u64,
    output: impl Fn(u64) -> D,
) -> (Vec<Option<D>>, u64)
where
    T: Topology + Sync,
    R: SweepRule + Sync,
{
    let out = run(ctx, &ClassSweep(rule), max_rounds);
    let decisions = out
        .states()
        .map(|s| s.map(|st| output(st.decision().or_invariant("the sweep drains every node"))))
        .collect();
    (decisions, out.rounds)
}

/// The smallest value missing from `used` (which it sorts in place).
pub(crate) fn smallest_free(used: &mut [u64]) -> u64 {
    used.sort_unstable();
    let mut free = 0u64;
    for &u in used.iter() {
        if u == free {
            free += 1;
        } else if u > free {
            break;
        }
    }
    free
}

/// `state` encoded into its lanes and decoded back: the codec law each
/// rule's tests check on the states that rule produces.
#[cfg(test)]
pub(crate) fn through_lanes(state: SweepState) -> SweepState {
    let mut lanes64 = [0u64; SweepState::U64_LANES];
    state.encode(&mut [], &mut lanes64);
    SweepState::decode(&[], &lanes64)
}

/// The state `rule` seeds `v` with on `topo`, as the engine's `init` makes it.
#[cfg(test)]
pub(crate) fn seeded<T: Topology, R: SweepRule>(topo: &T, rule: &R, v: NodeId) -> SweepState {
    match ClassSweep(rule).init(&Ctx::of(topo), v) {
        Verdict::Active(s) | Verdict::Halted(s) => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        /// The codec law for sweep states: every waiting round (≥ 1) and
        /// every decided value over the full lane range.
        #[test]
        fn sweep_state_round_trips_through_its_lanes(
            decided in proptest::prelude::any::<bool>(),
            x in proptest::prelude::any::<u64>(),
        ) {
            let s = if decided {
                SweepState::Decided(x)
            } else {
                SweepState::Waiting { round: x.max(1) }
            };
            let mut lanes64 = [0u64; SweepState::U64_LANES];
            s.encode(&mut [], &mut lanes64);
            proptest::prop_assert_eq!(SweepState::decode(&[], &lanes64), s);
        }
    }
}
