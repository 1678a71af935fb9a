//! Optional run transcripts for certificate emission.
//!
//! When armed (per thread, via [`begin`]), the execution cores record a
//! **transcript**: which nodes halted in which round, and a chained
//! commitment hash over every round's frontier in commit order. A
//! certificate built from the transcript can be re-checked by the
//! engine-blind `treelocal-check` crate, which re-derives the commitment
//! chain from the halt rounds alone — the checker carries its own
//! independent implementation of the hash, so the two sides genuinely
//! cross-validate.
//!
//! Recording is zero-cost when off: every hook starts with one relaxed
//! load of a process-wide armed counter and returns immediately while it
//! is zero. When armed, state lives in a thread-local — sound because
//! `begin_round`, `seed`, and every commit path run on the calling
//! thread even in parallel builds (only step closures go to the pool),
//! which is the same property the engines' determinism story rests on.
//!
//! Each engine run constructs exactly one [`ExecCore`](crate::ExecCore),
//! so a multi-run pipeline
//! (Linial → KW phases → sweep) records one transcript **segment** per
//! engine run, with the commitment chain threading across segments.
//! Zero-round segments (a run whose every node halts at seeding) are
//! dropped when the transcript is taken: they contribute no rounds and
//! no commitments, so a pipeline's transcript does not depend on whether
//! a stage with nothing to do entered the engine.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use treelocal_graph::{widen_u64, NodeId};

/// FNV-1a 64-bit offset basis — the start of every commitment chain.
pub const COMMITMENT_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const COMMITMENT_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a 64-bit hash, little-endian byte order.
pub fn commitment_fold(mut h: u64, x: u64) -> u64 {
    for shift in 0..8u32 {
        let byte = (x >> (8 * shift)) & 0xff;
        h = (h ^ byte).wrapping_mul(COMMITMENT_PRIME);
    }
    h
}

/// One engine run's worth of transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranscriptSegment {
    /// `(node, halt_round)` pairs, ascending by node index. Round `0`
    /// means the node was seeded halted and never entered the frontier.
    pub halts: Vec<(NodeId, u64)>,
    /// Communication rounds this segment executed.
    pub rounds: u64,
    /// One chained frontier commitment per round, in round order.
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

#[derive(Default)]
struct RawSegment {
    /// `(node, halt_round)` in halt order.
    halts: Vec<(NodeId, u64)>,
    commitments: Vec<u64>,
}

struct Recorder {
    segments: Vec<RawSegment>,
    chain: u64,
}

/// Number of threads with an armed recorder — the hooks' fast-path gate.
static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arms transcript recording on the calling thread. Any previously armed
/// recording on this thread is discarded.
pub fn begin() {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        if slot.is_none() {
            ARMED.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some(Recorder { segments: Vec::new(), chain: COMMITMENT_OFFSET });
    });
}

/// Disarms recording on the calling thread and returns the transcript
/// (empty if [`begin`] was never called).
pub fn take() -> Transcript {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        match slot.take() {
            Some(rec) => {
                ARMED.fetch_sub(1, Ordering::Relaxed);
                Transcript {
                    segments: rec
                        .segments
                        .into_iter()
                        .filter(|s| !s.commitments.is_empty())
                        .map(|s| TranscriptSegment {
                            rounds: widen_u64(s.commitments.len()),
                            halts: by_node(s.halts),
                            commitments: s.commitments,
                        })
                        .collect(),
                }
            }
            None => Transcript::default(),
        }
    })
}

/// Orders one segment's halt records by node in one linear pass over
/// the halts and the nodes up to the largest halted one, reusing the
/// record buffer.
///
/// # Panics
///
/// Panics if a node halted twice in the segment: a core halts each node
/// at most once, so a repeat is a recording bug, not a transcript.
fn by_node(mut halts: Vec<(NodeId, u64)>) -> Vec<(NodeId, u64)> {
    let nodes = halts.iter().map(|(v, _)| v.index() + 1).max().unwrap_or(0);
    let mut round_of: Vec<Option<u64>> = vec![None; nodes];
    for &(v, round) in &halts {
        let slot = &mut round_of[v.index()];
        assert!(slot.is_none(), "node {v:?} halted twice in one segment (one-halt invariant)");
        *slot = Some(round);
    }
    halts.clear();
    halts.extend(round_of.into_iter().enumerate().filter_map(|(i, r)| Some((NodeId::new(i), r?))));
    halts
}

fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// A new engine run (one per core construction) starts a fresh segment.
/// Returns whether the run is recorded.
pub(crate) fn segment_start() -> bool {
    let mut recording = false;
    with_recorder(|rec| {
        rec.segments.push(RawSegment::default());
        recording = true;
    });
    recording
}

/// Records that `v` halted after `round` rounds (0 = halted at seeding).
pub(crate) fn record_halt(v: NodeId, round: u64) {
    with_recorder(|rec| {
        if let Some(seg) = rec.segments.last_mut() {
            seg.halts.push((v, round));
        }
    });
}

/// Extends the commitment chain with this round's frontier, in commit
/// order, and records the resulting per-round commitment.
pub(crate) fn record_round(frontier: &[NodeId]) {
    with_recorder(|rec| {
        if let Some(seg) = rec.segments.last_mut() {
            let round = widen_u64(seg.commitments.len()) + 1;
            let mut h = commitment_fold(rec.chain, round);
            h = commitment_fold(h, widen_u64(frontier.len()));
            for v in frontier {
                h = commitment_fold(h, widen_u64(v.index()));
            }
            rec.chain = h;
            seg.commitments.push(h);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, Ctx, SyncAlgorithm, Verdict};
    use crate::Ports;
    use treelocal_graph::{Graph, Topology};

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
        let t = take();
        // Frontier at round r = nodes with halt round >= r, commit order.
        let mut chain = COMMITMENT_OFFSET;
        for (r, &c) in t.segments[0].commitments.iter().enumerate() {
            let round = widen_u64(r) + 1;
            let frontier: Vec<NodeId> = t.segments[0]
                .halts
                .iter()
                .filter(|&&(_, hr)| hr >= round)
                .map(|&(v, _)| v)
                .collect();
            let mut h = commitment_fold(chain, round);
            h = commitment_fold(h, widen_u64(frontier.len()));
            for v in &frontier {
                h = commitment_fold(h, widen_u64(v.index()));
            }
            assert_eq!(c, h, "round {round}");
            chain = h;
        }
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
        // A sleeper is still running: every round commits the same
        // frontier whether its nodes poll or sleep until they halt.
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

    #[test]
    fn halts_are_ordered_by_node_whatever_order_they_were_recorded_in() {
        let halts = vec![(NodeId::new(3), 2), (NodeId::new(0), 0), (NodeId::new(1), 1)];
        assert_eq!(
            by_node(halts),
            vec![(NodeId::new(0), 0), (NodeId::new(1), 1), (NodeId::new(3), 2)]
        );
        assert_eq!(by_node(Vec::new()), Vec::new());
    }

    #[test]
    #[should_panic(expected = "one-halt invariant")]
    fn a_node_halting_twice_in_one_segment_is_a_recording_bug() {
        by_node(vec![(NodeId::new(1), 1), (NodeId::new(1), 2)]);
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
}
