//! Optional run transcripts for certificate emission.
//!
//! When armed (per thread, via [`begin`]), the execution cores record a
//! **transcript**: which nodes halted in which round, and one chained
//! commitment hash per round. A certificate built from the transcript can
//! be re-checked by the engine-blind `treelocal-check` crate, which
//! re-derives the commitment chain from the halt rounds alone — the
//! checker carries its own independent implementation of the hash, so
//! the two sides genuinely cross-validate.
//!
//! Round `r`'s commitment (1-based within its segment) folds, into the
//! chain so far, the round number `r`, the engine's **live count** at
//! round `r` (awake plus asleep nodes), how many nodes halted in round
//! `r`, and those nodes in ascending index. Each node is folded once, in
//! the round it halts, so a segment costs O(participants + rounds) to
//! commit, and no pass touches a sleeper. The live count comes from the
//! engine's own bookkeeping, while the checker derives it from the halt
//! records (the participants with halt round `>= r`); a halt record that
//! moves a node in or out of the running set changes one or the other.
//!
//! Recording costs one thread-local lookup per run when off. Every
//! engine run keeps its lifecycle column (per node slot: not seeded, or
//! one past the node's halt round) and its live count per round whether
//! or not anyone records, and the finished run moves both into an armed
//! recorder as they are. Nothing is recorded per node during the run,
//! and the halts are read off the column only in [`take`]. The recorder
//! is a thread-local — sound because a core is built, seeded, committed
//! and finished on the calling thread even in parallel builds (only step
//! closures go to the pool), which is the same property the engines'
//! determinism story rests on.
//!
//! Each engine run uses exactly one execution core, so a multi-run
//! pipeline (Linial → KW phases → sweep) records one transcript
//! **segment** per engine run, with the commitment chain threading across
//! segments.
//! Zero-round segments (a run whose every node halts at seeding) are
//! dropped when their run finishes: they contribute no rounds and no
//! commitments, so a pipeline's transcript does not depend on whether a
//! stage with nothing to do entered the engine.

use crate::exec_core::halt_rounds;
use std::cell::RefCell;
use treelocal_graph::{widen_u32, widen_u64, NodeId, OrInvariant};

/// FNV-1a 64-bit offset basis — the start of every commitment chain.
pub const COMMITMENT_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const COMMITMENT_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POWERS[k]` is [`COMMITMENT_PRIME`] to the `k`-th power, wrapping.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(COMMITMENT_PRIME);
        k += 1;
    }
    powers
};

/// Folds one `u64` into an FNV-1a 64-bit hash, little-endian byte order.
///
/// A zero byte only multiplies the hash by the prime, so the zero high
/// bytes of a small word (a node index, a count) fold as one
/// multiplication by a power of the prime: the same value in half the
/// dependent steps for a node index below 2^24.
pub fn commitment_fold(mut h: u64, x: u64) -> u64 {
    let zeros = widen_u32(x.leading_zeros() / 8);
    for &byte in &x.to_le_bytes()[..8 - zeros] {
        h = (h ^ u64::from(byte)).wrapping_mul(COMMITMENT_PRIME);
    }
    h.wrapping_mul(PRIME_POWERS[zeros])
}

/// One engine run's worth of transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranscriptSegment {
    /// `(node, halt_round)` pairs, ascending by node index. Round `0`
    /// means the node was seeded halted and never ran.
    pub halts: Vec<(NodeId, u64)>,
    /// Communication rounds this segment executed.
    pub rounds: u64,
    /// One chained commitment per round, in round order.
    pub commitments: Vec<u64>,
}

/// Everything recorded between [`begin`] and [`take`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript {
    /// One segment per engine run, in execution order (zero-round
    /// segments dropped).
    pub segments: Vec<TranscriptSegment>,
}

impl Transcript {
    /// Total communication rounds across all segments.
    pub fn total_rounds(&self) -> u64 {
        self.segments.iter().map(|s| s.rounds).sum()
    }
}

/// A finished run's lifecycle column and live counts, not yet committed.
struct RawSegment {
    /// The run's lifecycle column, read through [`halt_rounds`].
    life: Vec<u32>,
    /// The live count of round `r` at `r - 1`.
    live: Vec<u64>,
}

thread_local! {
    /// The calling thread's finished segments, in execution order, while
    /// its recorder is armed.
    static RECORDER: RefCell<Option<Vec<RawSegment>>> = const { RefCell::new(None) };
}

/// Arms transcript recording on the calling thread. Any previously armed
/// recording on this thread is discarded.
pub fn begin() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Vec::new()));
}

/// Disarms recording on the calling thread and returns the transcript
/// (empty if [`begin`] was never called). The halts and the commitment
/// chain are built here, segment by segment in execution order.
pub fn take() -> Transcript {
    let Some(recorded) = RECORDER.with(|r| r.borrow_mut().take()) else {
        return Transcript::default();
    };
    let mut chain = COMMITMENT_OFFSET;
    let mut by_round = Vec::new();
    let segments = recorded.into_iter().map(|s| commit_segment(&mut chain, &s, &mut by_round));
    Transcript { segments: segments.collect() }
}

/// Builds the segment of `seg`, extending `chain` by one commitment per
/// round: a counting pass over the lifecycle column sizes the rounds'
/// buckets, a placing pass lists the halts and fills the buckets (both in
/// node order), then every round folds its number, its live count, its
/// bucket's size and the bucket.
fn commit_segment(
    chain: &mut u64,
    seg: &RawSegment,
    by_round: &mut Vec<NodeId>,
) -> TranscriptSegment {
    let rounds = seg.live.len();
    // `start[r]..start[r + 1]` will be round `r`'s bucket.
    let mut start = vec![0usize; rounds + 2];
    for (_, r) in halt_rounds(&seg.life) {
        start[halt_slot(r, rounds) + 1] += 1;
    }
    for r in 1..start.len() {
        start[r] += start[r - 1];
    }
    let mut halts = Vec::with_capacity(start[rounds + 1]);
    by_round.clear();
    by_round.resize(start[rounds + 1], NodeId::new(0));
    let mut next = start.clone();
    for (v, r) in halt_rounds(&seg.life) {
        halts.push((v, u64::from(r)));
        let at = &mut next[halt_slot(r, rounds)];
        by_round[*at] = v;
        *at += 1;
    }
    let commitments = (1..=rounds)
        .map(|r| {
            let halted = &by_round[start[r]..start[r + 1]];
            let mut h = commitment_fold(*chain, widen_u64(r));
            h = commitment_fold(h, seg.live[r - 1]);
            h = commitment_fold(h, widen_u64(halted.len()));
            for v in halted {
                h = commitment_fold(h, widen_u64(v.index()));
            }
            *chain = h;
            h
        })
        .collect();
    TranscriptSegment { halts, rounds: widen_u64(rounds), commitments }
}

/// A recorded halt round as a bucket index.
///
/// # Panics
///
/// Panics if the round lies past the segment's last round: a core halts a
/// node only in a round it executed, so that is a recording bug.
fn halt_slot(round: u32, rounds: usize) -> usize {
    Some(widen_u32(round))
        .filter(|&r| r <= rounds)
        .or_invariant("a node halts in a round its segment ran (halt-round invariant)")
}

/// Hands a finished run to the calling thread's recorder, if it is
/// armed, as the next segment: `live` holds the live count of every round
/// and `life` the run's lifecycle column, every seeded node halted. A run
/// that executed no round is dropped (see the module docs).
pub(crate) fn record_segment(live: Vec<u64>, life: Vec<u32>) {
    if live.is_empty() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(segments) = r.borrow_mut().as_mut() {
            segments.push(RawSegment { life, live });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, Ctx, SyncAlgorithm, Verdict};
    use crate::{par, run_messages, Ports, RunOutcome};
    use treelocal_graph::{Graph, SemiGraph, Topology};

    /// Halts node `v` after `v + 1` rounds.
    struct Countdown;
    impl<T: Topology> SyncAlgorithm<T> for Countdown {
        type State = u64;
        fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
            Verdict::Active(widen_u64(v.index()) + 1)
        }
        fn step(
            &self,
            _ctx: &Ctx<T>,
            _v: NodeId,
            round: u64,
            own: u64,
            _prev: &Ports<'_, u64>,
        ) -> Verdict<u64> {
            if round >= own {
                Verdict::Halted(own)
            } else {
                Verdict::Active(own)
            }
        }
    }

    /// The live count of every round of `seg`, derived from its halts:
    /// the participants whose halt round is at least the round.
    fn derived_live(seg: &TranscriptSegment) -> Vec<u64> {
        (1..=seg.rounds)
            .map(|r| widen_u64(seg.halts.iter().filter(|&&(_, hr)| hr >= r).count()))
            .collect()
    }

    /// The commitment chain of `t`, re-derived from its halts alone with
    /// the spec's fold: round, live count, halted count, halted nodes.
    fn derived_chain(t: &Transcript) -> Vec<Vec<u64>> {
        let mut chain = COMMITMENT_OFFSET;
        t.segments
            .iter()
            .map(|seg| {
                let live = derived_live(seg);
                (1..=seg.rounds)
                    .map(|r| {
                        let halted: Vec<NodeId> =
                            seg.halts.iter().filter(|&&(_, hr)| hr == r).map(|&(v, _)| v).collect();
                        let mut h = commitment_fold(chain, r);
                        h = commitment_fold(h, live[usize::try_from(r - 1).unwrap()]);
                        h = commitment_fold(h, widen_u64(halted.len()));
                        for v in &halted {
                            h = commitment_fold(h, widen_u64(v.index()));
                        }
                        chain = h;
                        h
                    })
                    .collect()
            })
            .collect()
    }

    /// The engine's live counts the armed recorder holds, per segment.
    fn recorded_live_counts() -> Vec<Vec<u64>> {
        RECORDER
            .with(|r| {
                let rec = r.borrow();
                rec.as_ref().map(|segments| segments.iter().map(|s| s.live.clone()).collect())
            })
            .unwrap_or_default()
    }

    #[test]
    fn the_fold_equals_byte_at_a_time_fnv1a() {
        for bits in 0..64 {
            for x in [0, 1u64 << bits, (1u64 << bits) - 1, u64::MAX >> bits, 0xa5 << (bits / 8 * 8)]
            {
                let h = COMMITMENT_OFFSET.rotate_left(bits);
                let reference = x
                    .to_le_bytes()
                    .iter()
                    .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(COMMITMENT_PRIME));
                assert_eq!(commitment_fold(h, x), reference, "x = {x:#x}");
            }
        }
    }

    #[test]
    fn untracked_runs_record_nothing() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        run(&ctx, &Countdown, 10);
        assert_eq!(take(), Transcript::default());
    }

    #[test]
    fn tracked_run_records_halts_and_one_commitment_per_round() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        begin();
        let out = run(&ctx, &Countdown, 10);
        let t = take();
        assert_eq!(out.rounds, 3);
        assert_eq!(t.segments.len(), 1);
        let seg = &t.segments[0];
        assert_eq!(seg.rounds, 3);
        assert_eq!(seg.commitments.len(), 3);
        assert_eq!(seg.halts, vec![(NodeId::new(0), 1), (NodeId::new(1), 2), (NodeId::new(2), 3)]);
        assert_eq!(t.total_rounds(), 3);
    }

    #[test]
    fn commitments_match_an_independent_derivation() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        begin();
        run(&ctx, &Countdown, 10);
        run(&ctx, &Countdown, 10);
        let t = take();
        let recorded: Vec<Vec<u64>> = t.segments.iter().map(|s| s.commitments.clone()).collect();
        assert_eq!(recorded, derived_chain(&t));
    }

    /// [`Countdown`] with every node asleep until its halting round.
    struct SleepyCountdown;
    impl<T: Topology> SyncAlgorithm<T> for SleepyCountdown {
        type State = u64;
        fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
            let round = widen_u64(v.index()) + 1;
            Verdict::SleepUntil(round, round)
        }
        fn step(
            &self,
            _ctx: &Ctx<T>,
            _v: NodeId,
            round: u64,
            own: u64,
            _prev: &Ports<'_, u64>,
        ) -> Verdict<u64> {
            assert_eq!(round, own, "stepped only in its wake round");
            Verdict::Halted(own)
        }
    }

    #[test]
    fn sleepers_stay_on_the_committed_frontier() {
        // A sleeper is still running: every round commits the same live
        // count whether its nodes poll or sleep until they halt.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let ctx = Ctx::of(&g);
        begin();
        let polled = run(&ctx, &Countdown, 10);
        let polled_t = take();
        begin();
        let slept = run(&ctx, &SleepyCountdown, 10);
        let slept_t = take();
        assert_eq!(polled.rounds, slept.rounds);
        assert!(polled.states().eq(slept.states()));
        assert_eq!(polled_t, slept_t);
    }

    /// Node `v` is seeded halted when `v % 3 == 0`; sleeps until round
    /// `v / 3 + 2` and halts there when `v % 3 == 1`; and is awake from
    /// the start and halts in round `v / 3 + 1` when `v % 3 == 2`.
    struct Mixed;
    impl<T: Topology> SyncAlgorithm<T> for Mixed {
        type State = u64;
        fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
            let third = widen_u64(v.index() / 3);
            match v.index() % 3 {
                0 => Verdict::Halted(0),
                1 => Verdict::SleepUntil(third + 2, third + 2),
                _ => Verdict::Active(third + 1),
            }
        }
        fn step(
            &self,
            _ctx: &Ctx<T>,
            _v: NodeId,
            round: u64,
            own: u64,
            _prev: &Ports<'_, u64>,
        ) -> Verdict<u64> {
            if round >= own {
                Verdict::Halted(own)
            } else {
                Verdict::Active(own)
            }
        }
    }

    #[test]
    fn the_engine_live_count_equals_the_count_derived_from_the_halts() {
        let n = 10;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let ctx = Ctx::of(&g);
        begin();
        let out = run(&ctx, &Mixed, 10);
        let live = recorded_live_counts();
        let t = take();
        // Sleepers wake and halt in rounds 2..=4 and awake nodes halt in
        // 1..=3: a sleeper outlives every awake node, and seeded halts
        // never run.
        assert_eq!(out.rounds, 4);
        let seg = &t.segments[0];
        assert_eq!(seg.halts.len(), n);
        assert!(seg.halts.iter().all(|&(v, r)| (v.index() % 3 == 0) == (r == 0)));
        assert_eq!(live, vec![vec![6, 5, 3, 1]]);
        assert_eq!(live, vec![derived_live(seg)]);
        assert_eq!(vec![seg.commitments.clone()], derived_chain(&t));
    }

    /// The length of [`Descending`]'s path.
    const N: usize = 5;
    /// On a path of [`N`] nodes, node `v` halts in round `N - 1 - v`: the
    /// last node at seeding, the first one last.
    struct Descending;
    impl<T: Topology> SyncAlgorithm<T> for Descending {
        type State = u64;
        fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
            let round = widen_u64(N - 1 - v.index());
            if round == 0 {
                Verdict::Halted(round)
            } else {
                Verdict::Active(round)
            }
        }
        fn step(
            &self,
            _ctx: &Ctx<T>,
            _v: NodeId,
            round: u64,
            own: u64,
            _prev: &Ports<'_, u64>,
        ) -> Verdict<u64> {
            if round >= own {
                Verdict::Halted(own)
            } else {
                Verdict::Active(own)
            }
        }
    }

    #[test]
    fn halts_are_ordered_by_node_whatever_order_they_were_recorded_in() {
        let edges: Vec<(usize, usize)> = (1..N).map(|i| (i - 1, i)).collect();
        let g = Graph::from_edges(N, &edges).unwrap();
        begin();
        let out = run(&Ctx::of(&g), &Descending, 10);
        let t = take();
        assert_eq!(out.rounds, 4);
        let expected: Vec<(NodeId, u64)> =
            (0..N).map(|v| (NodeId::new(v), widen_u64(N - 1 - v))).collect();
        assert_eq!(t.segments[0].halts, expected);
    }

    #[test]
    fn consecutive_runs_become_segments_and_zero_round_runs_are_dropped() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let ctx = Ctx::of(&g);
        begin();
        run(&ctx, &Countdown, 10);
        // A run where everything halts at seeding contributes no segment.
        struct Instant;
        impl<T: Topology> SyncAlgorithm<T> for Instant {
            type State = u64;
            fn init(&self, _ctx: &Ctx<T>, _v: NodeId) -> Verdict<u64> {
                Verdict::Halted(0)
            }
            fn step(
                &self,
                _ctx: &Ctx<T>,
                _v: NodeId,
                _round: u64,
                _own: u64,
                _prev: &Ports<'_, u64>,
            ) -> Verdict<u64> {
                Verdict::Halted(0)
            }
        }
        run(&ctx, &Instant, 10);
        run(&ctx, &Countdown, 10);
        let t = take();
        assert_eq!(t.segments.len(), 2);
        // The chain threads across segments: re-running the same algorithm
        // yields the same halts but distinct commitments.
        assert_eq!(t.segments[0].halts, t.segments[1].halts);
        assert_eq!(t.segments[0].rounds, t.segments[1].rounds);
        assert_ne!(t.segments[0].commitments, t.segments[1].commitments);
    }

    /// By node index mod 4: halted at seeding, asleep until round 3 and
    /// halting there, or awake and halting in round 2 or 3.
    struct Staggered;
    impl<T: Topology> SyncAlgorithm<T> for Staggered {
        type State = u64;
        fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
            match widen_u64(v.index() % 4) {
                0 => Verdict::Halted(0),
                1 => Verdict::SleepUntil(3, 3),
                r => Verdict::Active(r),
            }
        }
        fn step(
            &self,
            _ctx: &Ctx<T>,
            _v: NodeId,
            round: u64,
            own: u64,
            _prev: &Ports<'_, u64>,
        ) -> Verdict<u64> {
            if round >= own {
                Verdict::Halted(own)
            } else {
                Verdict::Active(own)
            }
        }
    }

    /// Checks that `out` answers participation exactly as `topo` does, and
    /// that reading a non-participant's state panics.
    fn assert_participation<T: Topology>(topo: &T, out: &RunOutcome<'_, T, u64>, label: &str) {
        assert_eq!(out.states().len(), topo.index_space(), "{label}");
        for (i, state) in out.states().enumerate() {
            assert_eq!(state.is_none(), !topo.contains_node(NodeId::new(i)), "{label}: slot {i}");
        }
        let outsider = (0..topo.index_space()).map(NodeId::new).find(|&v| !topo.contains_node(v));
        let outsider = outsider.expect("the restriction leaves a node out");
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| out.state(outsider)));
        let payload = read.expect_err("a non-participant's state must panic");
        let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("node participated in the run"), "{label}: {msg}");
    }

    /// Runs [`Staggered`] in `ctx` on one engine at one pool size, and
    /// returns the outcome with the run's transcript.
    fn staggered_run<'t, T: Topology + Sync>(
        ctx: &Ctx<'t, T>,
        messages: bool,
        threads: usize,
    ) -> (RunOutcome<'t, T, u64>, Transcript) {
        par::with_threads(threads, || {
            begin();
            let out =
                if messages { run_messages(ctx, &Staggered, 10) } else { run(ctx, &Staggered, 10) };
            (out, take())
        })
    }

    #[test]
    fn participation_belongs_to_the_topology() {
        // Above the pool threshold, so two threads really split the rounds.
        let g = treelocal_gen::random_tree(4000, 7);
        let gapped = SemiGraph::induced_by_nodes(&g, |v| v.index() % 3 != 0);
        let empty = SemiGraph::induced_by_nodes(&g, |_| false);
        for threads in [1, 2] {
            for messages in [false, true] {
                let label = format!("{threads} threads, messages {messages}");
                let ctx = Ctx::restricted(&gapped, g.node_count(), g.id_space());
                let (out, t) = staggered_run(&ctx, messages, threads);
                assert_eq!(out.rounds, 3, "{label}");
                assert_participation(&gapped, &out, &label);
                // The transcript lists exactly the participants, in node
                // order, each with its halt round.
                assert_eq!(t.segments.len(), 1, "{label}");
                let halts = &t.segments[0].halts;
                assert!(
                    halts.iter().map(|&(v, _)| v).eq(gapped.nodes().iter().copied()),
                    "{label}"
                );
                assert!(halts.iter().all(|&(v, r)| r == [0, 3, 2, 3][v.index() % 4]), "{label}");
                let recorded: Vec<Vec<u64>> =
                    t.segments.iter().map(|s| s.commitments.clone()).collect();
                assert_eq!(recorded, derived_chain(&t), "{label}");

                let ctx = Ctx::restricted(&empty, g.node_count(), g.id_space());
                let (out, t) = staggered_run(&ctx, messages, threads);
                assert_eq!(out.rounds, 0, "{label}");
                assert_participation(&empty, &out, &label);
                assert_eq!(t, Transcript::default(), "{label}: a zero-round run records nothing");
            }
        }
    }
}
