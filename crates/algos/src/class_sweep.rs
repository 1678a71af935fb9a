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
//! A waiting node is seeded asleep until its round
//! ([`Verdict::SleepUntil`]), so the engine steps it exactly once, in that
//! round, and it halts there. A sleeper is still running, so the
//! transcript's per-round commitment counts it live every round it waits,
//! without listing it.
//! A rule sees the decided neighbours in port order, the order of
//! `neighbor_nodes(v)` and `neighbor_edges(v)`.

use treelocal_graph::{widen_u64, NodeId, OrInvariant, Topology};
use treelocal_sim::{run, Ctx, Ports, SyncAlgorithm, Verdict};

/// What one class sweep computes. Decisions are `u64` words; each rule's
/// caller maps them to its outcome type.
pub(crate) trait SweepRule {
    /// The round in which `v` decides, or `None` when `v`'s colour lies
    /// outside the rule's schedule. Round 0 means `v` decides at seeding,
    /// before any communication.
    fn round(&self, v: NodeId) -> Option<u64>;

    /// `v`'s decision. `decided` yields one entry per port: the
    /// neighbour's decision when it decided in an earlier round, and
    /// `None` while it still waits.
    fn decide<T: Topology>(
        &self,
        topo: &T,
        v: NodeId,
        decided: impl ExactSizeIterator<Item = Option<u64>>,
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

/// The state of a slot no node has written: decided on 0.
impl Default for SweepState {
    fn default() -> Self {
        SweepState::Decided(0)
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

/// Names the invariant that every node's round is on its rule's schedule
/// and within the sweep's round budget.
const WAKE_ROUND_IN_BUDGET: &str =
    "every sweep round is on the rule's schedule and within the round budget (wake-round bound)";

struct ClassSweep<'r, R> {
    rule: &'r R,
    max_rounds: u64,
}

impl<T: Topology, R: SweepRule> SyncAlgorithm<T> for ClassSweep<'_, R> {
    type State = SweepState;

    /// Checked in every profile: an out-of-range colour must not become a
    /// wake round past the budget, or one near `u64::MAX` by wrapping.
    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<SweepState> {
        let round =
            self.rule.round(v).filter(|&r| r <= self.max_rounds).or_invariant(WAKE_ROUND_IN_BUDGET);
        match round {
            0 => {
                let none = std::iter::repeat_n(None, ctx.topo.degree(v));
                Verdict::Halted(SweepState::Decided(self.rule.decide(ctx.topo, v, none)))
            }
            round => Verdict::SleepUntil(SweepState::Waiting { round }, round),
        }
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: SweepState,
        prev: &Ports<'_, SweepState>,
    ) -> Verdict<SweepState> {
        let SweepState::Waiting { round: mine } = own else {
            unreachable!("decided nodes have halted")
        };
        assert_eq!(round, mine, "a sleeper is stepped only in its wake round");
        let decided = prev.iter().map(SweepState::decision);
        Verdict::Halted(SweepState::Decided(self.rule.decide(ctx.topo, v, decided)))
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
    let out = run(ctx, &ClassSweep { rule, max_rounds }, max_rounds);
    let decisions = out
        .states()
        .map(|s| s.map(|st| output(st.decision().or_invariant("the sweep drains every node"))))
        .collect();
    (decisions, out.rounds)
}

/// The smallest value missing from `used`, which holds at most `bound`
/// values (a node's degree, when `used` is what its decided neighbours
/// took).
///
/// The answer is then at most `bound`, so a bitset over `0..=bound`
/// settles it with no sort and no allocation: one stack word below 64,
/// a reused thread-local buffer above.
pub(crate) fn smallest_free(bound: usize, used: impl IntoIterator<Item = u64>) -> u64 {
    if bound < 64 {
        let mut taken = 0u64;
        for u in used.into_iter().filter(|&u| u < 64) {
            taken |= 1 << u;
        }
        return u64::from(taken.trailing_ones());
    }
    TAKEN_WORDS.with(|cell| {
        let words = &mut *cell.borrow_mut();
        words.clear();
        words.resize(bound / 64 + 1, 0);
        for u in used {
            if let Some(i) = usize::try_from(u).ok().filter(|&i| i <= bound) {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        let (w, word) = words
            .iter()
            .enumerate()
            .find(|(_, &word)| word != u64::MAX)
            .or_invariant("at most `bound` values leave a gap in 0..=bound");
        widen_u64(w * 64) + u64::from(word.trailing_ones())
    })
}

thread_local! {
    /// The bitset [`smallest_free`] uses for 64 or more values. Cleared on
    /// entry, so reuse across nodes and rounds cannot leak state.
    static TAKEN_WORDS: std::cell::RefCell<Vec<u64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// [`crate::assert_engines_agree`] for the sweep of `rule`.
#[cfg(test)]
pub(crate) fn assert_sweep_engines_agree<T, R>(ctx: &Ctx<'_, T>, rule: &R, max_rounds: u64)
where
    T: Topology + Sync,
    R: SweepRule + Sync,
{
    crate::assert_engines_agree(ctx, &ClassSweep { rule, max_rounds }, max_rounds);
}

/// The state `rule` seeds `v` with on `topo`, as the engine's `init` makes
/// it under an unbounded round budget.
#[cfg(test)]
pub(crate) fn seeded<T: Topology, R: SweepRule>(topo: &T, rule: &R, v: NodeId) -> SweepState {
    let sweep = ClassSweep { rule, max_rounds: u64::MAX };
    match sweep.init(&Ctx::of(topo), v) {
        Verdict::Active(s) | Verdict::Halted(s) | Verdict::SleepUntil(s, _) => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::Graph;

    /// Runs `sweep` and asserts it fails the wake-round bound.
    fn assert_fails_wake_round_bound(label: &str, sweep: impl FnOnce()) {
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(sweep)).expect_err(label);
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic payload>");
        assert!(msg.contains("(wake-round bound)"), "{label}: unexpected panic: {msg}");
    }

    /// Out-of-range colours fail the wake-round bound in every profile:
    /// `m - c` and `m - c + 1` would otherwise wrap to a round near
    /// `u64::MAX`, or land on round 0 or on a round the schedule lacks.
    #[test]
    fn out_of_range_colours_fail_the_wake_round_bound() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let ctx = Ctx::of(&g);
        let m = 3;
        assert_fails_wake_round_bound("sweep_reduce, c = m", || {
            crate::sweep_reduce(&ctx, &[Some(0), Some(m)], m);
        });
        assert_fails_wake_round_bound("sweep_reduce, c > m", || {
            crate::sweep_reduce(&ctx, &[Some(m + 5), Some(0)], m);
        });
        assert_fails_wake_round_bound("mis, c = 0", || {
            crate::mis_from_coloring(&ctx, &[Some(0), Some(1)], m);
        });
        assert_fails_wake_round_bound("mis, c > m", || {
            crate::mis_from_coloring(&ctx, &[Some(1), Some(4)], m);
        });
        assert_fails_wake_round_bound("list_sweep, c = m", || {
            crate::list_sweep(&ctx, &[Some(m), Some(0)], m, |_| &[1, 2]);
        });
    }

    /// The smallest value missing from `used`, by sorting it.
    fn smallest_free_by_sorting(mut used: Vec<u64>) -> u64 {
        used.sort_unstable();
        let mut free = 0u64;
        for u in used {
            if u == free {
                free += 1;
            } else if u > free {
                break;
            }
        }
        free
    }

    proptest::proptest! {
        /// The bitset answer equals the sorted one on multisets of up to 100
        /// values below 201. A dense multiset holds every value below `len`
        /// but the one at `gap`, so answers of 64 and more, which take the
        /// reused buffer, come up as often as small ones.
        #[test]
        fn smallest_free_matches_a_sort(
            len in 0usize..101,
            gap in 0usize..101,
            dense in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut x = seed;
            let mut next_below_201 = || {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) % 201
            };
            let used: Vec<u64> = (0..len)
                .map(|i| if dense && i != gap { i as u64 } else { next_below_201() })
                .collect();
            proptest::prop_assert_eq!(
                smallest_free(len, used.iter().copied()),
                smallest_free_by_sorting(used.clone()),
                "{:?}",
                used
            );
        }
    }
}
