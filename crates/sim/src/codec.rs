//! Flat struct-of-arrays state storage behind a fixed-width codec.
//!
//! A [`StateCodec`] describes how one node's state packs into a fixed
//! number of `u32` and `u64` **lanes**; [`SoaColumns`] stores all nodes'
//! lanes in two flat node-major vectors (`lanes32[v * U32_LANES
//! ..][..U32_LANES]` is node `v`'s u32 row) — the state half of the
//! engine-scale layout whose adjacency half is the u32 CSR of
//! `treelocal-graph`. The layout:
//!
//! * keeps a round's reads and writes on contiguous, prefetch-friendly
//!   columns instead of per-node heap slots,
//! * freezes halted and sleeping lanes **in place** — a node's lanes are
//!   simply never rewritten while it does not step, and
//! * encodes a round's verdicts into the one set of columns in awake
//!   order, so parallel outcomes stay byte-identical for every pool size
//!   (see [`ExecCore`](crate::ExecCore)).
//!
//! Decoding constructs a fresh state value, so the engine cannot clone a
//! state: it only encodes and decodes lanes.

use std::fmt::Debug;
use std::marker::PhantomData;
use treelocal_graph::{NodeId, OrInvariant};

/// Fixed-width lane encoding of a per-node algorithm state.
///
/// `encode` must write every lane it owns and `decode(encode(s)) == s`
/// must hold for every reachable state — each implementation pins this
/// with a round-trip property test next to it. Lane counts are
/// compile-time constants so column offsets are pure index arithmetic.
pub trait StateCodec: Sized + Debug {
    /// Number of `u32` lanes one state occupies.
    const U32_LANES: usize;
    /// Number of `u64` lanes one state occupies.
    const U64_LANES: usize;

    /// Packs `self` into its lane rows. Both slices have exactly
    /// [`U32_LANES`](StateCodec::U32_LANES) /
    /// [`U64_LANES`](StateCodec::U64_LANES) entries.
    fn encode(&self, lanes32: &mut [u32], lanes64: &mut [u64]);

    /// Reconstructs a state from its lane rows (the inverse of
    /// [`encode`](StateCodec::encode)).
    fn decode(lanes32: &[u32], lanes64: &[u64]) -> Self;
}

/// A bare `u32` is one u32 lane.
impl StateCodec for u32 {
    const U32_LANES: usize = 1;
    const U64_LANES: usize = 0;

    fn encode(&self, lanes32: &mut [u32], _lanes64: &mut [u64]) {
        lanes32[0] = *self;
    }

    fn decode(lanes32: &[u32], _lanes64: &[u64]) -> Self {
        lanes32[0]
    }
}

/// A bare `u64` is one u64 lane.
impl StateCodec for u64 {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 1;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = *self;
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        lanes64[0]
    }
}

/// Node-major flat lane storage: every node's lanes live at a fixed row in
/// two flat vectors.
#[derive(Debug)]
pub(crate) struct SoaColumns<S: StateCodec> {
    lanes32: Vec<u32>,
    lanes64: Vec<u64>,
    _codec: PhantomData<fn() -> S>,
}

impl<S: StateCodec> SoaColumns<S> {
    /// Zero-initialized columns over `slots` node rows.
    pub(crate) fn new(slots: usize) -> Self {
        SoaColumns {
            lanes32: vec![0u32; slots * S::U32_LANES],
            lanes64: vec![0u64; slots * S::U64_LANES],
            _codec: PhantomData,
        }
    }

    #[inline]
    fn row32(v: NodeId) -> std::ops::Range<usize> {
        let base = v.index() * S::U32_LANES;
        base..base + S::U32_LANES
    }

    #[inline]
    fn row64(v: NodeId) -> std::ops::Range<usize> {
        let base = v.index() * S::U64_LANES;
        base..base + S::U64_LANES
    }

    /// Encodes `s` into node `v`'s lane rows.
    #[inline]
    pub(crate) fn write(&mut self, v: NodeId, s: &S) {
        s.encode(&mut self.lanes32[Self::row32(v)], &mut self.lanes64[Self::row64(v)]);
    }

    /// Decodes node `v`'s lane rows into a fresh state value.
    #[inline]
    pub(crate) fn read(&self, v: NodeId) -> S {
        S::decode(&self.lanes32[Self::row32(v)], &self.lanes64[Self::row64(v)])
    }
}

/// Read-only view of the previous round's states. Reads **decode by
/// value**: neighbors get a fresh state constructed from the lanes, not a
/// borrow into the buffer.
#[derive(Debug)]
pub struct Snapshot<'a, S: StateCodec> {
    columns: &'a SoaColumns<S>,
    seeded: &'a [bool],
}

impl<S: StateCodec> Snapshot<'_, S> {
    pub(crate) fn over<'a>(columns: &'a SoaColumns<S>, seeded: &'a [bool]) -> Snapshot<'a, S> {
        Snapshot { columns, seeded }
    }

    /// The previous-round state of node `v`, decoded from its lanes.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not participate in the execution. Algorithms only
    /// read states of their topology neighbors, which always participate.
    pub fn get(&self, v: NodeId) -> S {
        assert!(self.seeded[v.index()], "neighbor {v:?} participates in the execution");
        self.columns.read(v)
    }
}

/// The result of running an algorithm to quiescence: final states stay in
/// their flat columns (no per-node boxing on the way out — the 10M-node
/// smoke tier's peak RSS depends on it) and decode on access.
#[derive(Debug)]
pub struct RunOutcome<S: StateCodec> {
    pub(crate) columns: SoaColumns<S>,
    pub(crate) seeded: Vec<bool>,
    /// Number of communication rounds executed (the maximum halting round
    /// over all nodes).
    pub rounds: u64,
}

impl<S: StateCodec> RunOutcome<S> {
    /// The final state of node `v`, decoded from its lanes.
    ///
    /// # Panics
    ///
    /// Panics if `v` did not participate.
    pub fn state(&self, v: NodeId) -> S {
        self.try_state(v).or_invariant("node participated in the run")
    }

    /// The final state of `v`, or `None` for non-participants.
    pub fn try_state(&self, v: NodeId) -> Option<S> {
        self.seeded[v.index()].then(|| self.columns.read(v))
    }

    /// Every slot's final state in index order (`None` for
    /// non-participants), decoded one at a time.
    pub fn states(&self) -> impl ExactSizeIterator<Item = Option<S>> + '_ {
        (0..self.seeded.len()).map(|i| self.try_state(NodeId::new(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Mixed {
        small: u32,
        flag: bool,
        big: u64,
        wide: u64,
    }

    impl StateCodec for Mixed {
        const U32_LANES: usize = 2;
        const U64_LANES: usize = 2;

        fn encode(&self, lanes32: &mut [u32], lanes64: &mut [u64]) {
            lanes32[0] = self.small;
            lanes32[1] = u32::from(self.flag);
            lanes64[0] = self.big;
            lanes64[1] = self.wide;
        }

        fn decode(lanes32: &[u32], lanes64: &[u64]) -> Self {
            Mixed { small: lanes32[0], flag: lanes32[1] != 0, big: lanes64[0], wide: lanes64[1] }
        }
    }

    #[test]
    fn columns_round_trip_rows_independently() {
        let mut cols: SoaColumns<Mixed> = SoaColumns::new(4);
        let a = Mixed { small: 7, flag: true, big: u64::MAX, wide: 1 };
        let b = Mixed { small: u32::MAX, flag: false, big: 0, wide: 42 };
        cols.write(NodeId::new(1), &a);
        cols.write(NodeId::new(3), &b);
        assert_eq!(cols.read(NodeId::new(1)), a);
        assert_eq!(cols.read(NodeId::new(3)), b);
        // Untouched rows decode the zero state, not a neighbor's lanes.
        assert_eq!(cols.read(NodeId::new(2)), Mixed { small: 0, flag: false, big: 0, wide: 0 });
    }

    #[test]
    fn zero_lane_axes_are_fine() {
        #[derive(Debug, PartialEq)]
        struct OnlyWide(u64);
        impl StateCodec for OnlyWide {
            const U32_LANES: usize = 0;
            const U64_LANES: usize = 1;
            fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
                lanes64[0] = self.0;
            }
            fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
                OnlyWide(lanes64[0])
            }
        }
        let mut cols: SoaColumns<OnlyWide> = SoaColumns::new(2);
        cols.write(NodeId::new(1), &OnlyWide(9));
        assert_eq!(cols.read(NodeId::new(1)), OnlyWide(9));
        let seeded = vec![false, true];
        let snap = Snapshot::over(&cols, &seeded);
        assert_eq!(snap.get(NodeId::new(1)), OnlyWide(9));
    }

    #[test]
    #[should_panic(expected = "participates in the execution")]
    fn snapshot_get_rejects_non_participants() {
        let cols: SoaColumns<Mixed> = SoaColumns::new(1);
        let seeded = vec![false];
        let snap = Snapshot::over(&cols, &seeded);
        let _ = snap.get(NodeId::new(0));
    }
}
