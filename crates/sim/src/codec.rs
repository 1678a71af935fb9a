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

/// Node-major flat lane storage: every row's lanes live at a fixed offset
/// in two flat vectors. A row is a node's state in the engine's columns,
/// and one `(recipient, port)` slot in the message engine's inbox.
#[derive(Debug)]
pub(crate) struct SoaColumns<S: StateCodec> {
    lanes32: Vec<u32>,
    lanes64: Vec<u64>,
    _codec: PhantomData<fn() -> S>,
}

impl<S: StateCodec> SoaColumns<S> {
    /// Zero-initialized columns over `rows` rows.
    pub(crate) fn new(rows: usize) -> Self {
        SoaColumns {
            lanes32: vec![0u32; rows * S::U32_LANES],
            lanes64: vec![0u64; rows * S::U64_LANES],
            _codec: PhantomData,
        }
    }

    #[inline]
    fn row32(row: usize) -> std::ops::Range<usize> {
        row * S::U32_LANES..(row + 1) * S::U32_LANES
    }

    #[inline]
    fn row64(row: usize) -> std::ops::Range<usize> {
        row * S::U64_LANES..(row + 1) * S::U64_LANES
    }

    /// Encodes `s` into row `row`.
    #[inline]
    pub(crate) fn write(&mut self, row: usize, s: &S) {
        s.encode(&mut self.lanes32[Self::row32(row)], &mut self.lanes64[Self::row64(row)]);
    }

    /// Decodes row `row` into a fresh state value.
    #[inline]
    pub(crate) fn read(&self, row: usize) -> S {
        S::decode(&self.lanes32[Self::row32(row)], &self.lanes64[Self::row64(row)])
    }

    /// Copies row `from` of `src` into row `to`, lane for lane, without
    /// decoding: the message engine's delivery of a state as a message.
    #[inline]
    pub(crate) fn copy_row(&mut self, to: usize, src: &SoaColumns<S>, from: usize) {
        self.lanes32[Self::row32(to)].copy_from_slice(&src.lanes32[Self::row32(from)]);
        self.lanes64[Self::row64(to)].copy_from_slice(&src.lanes64[Self::row64(from)]);
    }
}

/// What a step sees of the previous round: one state per **port**. Port
/// `p` of node `v` is `ctx.topo.neighbor_nodes(v)[p]`, the same order as
/// `neighbor_edges(v)`. Reads decode by value.
///
/// No read names a node, so a step can only see its own neighbours: the
/// locality of Definition 5 holds by construction. The snapshot engine
/// reads each neighbour's row in place; the message engine reads the rows
/// delivered into the node's inbox. Both are this one type.
#[derive(Debug)]
pub struct Ports<'a, S: StateCodec> {
    columns: &'a SoaColumns<S>,
    rows: PortRows<'a>,
}

/// Which rows of the columns a node's ports read.
#[derive(Debug)]
enum PortRows<'a> {
    /// Port `p` reads the row of neighbour `p` (the snapshot engine).
    Neighbors(&'a [NodeId]),
    /// Port `p` reads inbox slot `start + p` (the message engine).
    Inbox(std::ops::Range<usize>),
}

impl<'a, S: StateCodec> Ports<'a, S> {
    /// The neighbours' own rows of `columns`, in port order.
    #[inline]
    pub(crate) fn neighbors(columns: &'a SoaColumns<S>, nodes: &'a [NodeId]) -> Self {
        Ports { columns, rows: PortRows::Neighbors(nodes) }
    }

    /// The inbox slots `slots` of `columns`, one per port.
    #[inline]
    pub(crate) fn inbox(columns: &'a SoaColumns<S>, slots: std::ops::Range<usize>) -> Self {
        Ports { columns, rows: PortRows::Inbox(slots) }
    }

    /// The number of ports: the node's degree.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.rows {
            PortRows::Neighbors(nodes) => nodes.len(),
            PortRows::Inbox(slots) => slots.len(),
        }
    }

    /// Whether the node has no neighbours.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The previous-round state of the neighbour at port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.len()`.
    #[inline]
    pub fn port(&self, p: usize) -> S {
        let row = match &self.rows {
            PortRows::Neighbors(nodes) => nodes[p].index(),
            PortRows::Inbox(slots) => {
                assert!(p < slots.len(), "port {p} of a node with {} ports", slots.len());
                slots.start + p
            }
        };
        self.columns.read(row)
    }

    /// Every port's state, in port order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = S> + '_ {
        (0..self.len()).map(|p| self.port(p))
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
        self.seeded[v.index()].then(|| self.columns.read(v.index()))
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
        cols.write(1, &a);
        cols.write(3, &b);
        assert_eq!(cols.read(1), a);
        assert_eq!(cols.read(3), b);
        // Untouched rows decode the zero state, not a neighbor's lanes.
        assert_eq!(cols.read(2), Mixed { small: 0, flag: false, big: 0, wide: 0 });
        // A copied row carries every lane of both axes.
        let mut inbox: SoaColumns<Mixed> = SoaColumns::new(2);
        inbox.copy_row(0, &cols, 3);
        assert_eq!(inbox.read(0), b);
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
        cols.write(1, &OnlyWide(9));
        assert_eq!(cols.read(1), OnlyWide(9));
        let nodes = [NodeId::new(1)];
        assert_eq!(Ports::neighbors(&cols, &nodes).port(0), OnlyWide(9));
    }

    #[test]
    fn both_port_forms_read_rows_in_port_order() {
        let mut cols: SoaColumns<u32> = SoaColumns::new(5);
        for row in 0..5 {
            cols.write(row, &(10 * u32::try_from(row).unwrap()));
        }
        let nodes = [NodeId::new(4), NodeId::new(0), NodeId::new(2)];
        let by_node = Ports::neighbors(&cols, &nodes);
        assert_eq!(by_node.iter().collect::<Vec<_>>(), [40, 0, 20]);
        let by_slot = Ports::inbox(&cols, 1..4);
        assert_eq!((by_slot.len(), by_slot.port(2)), (3, 30));
        assert_eq!(by_slot.iter().collect::<Vec<_>>(), [10, 20, 30]);
        assert!(Ports::inbox(&cols, 2..2).is_empty());
    }

    #[test]
    #[should_panic(expected = "port 3 of a node with 3 ports")]
    fn an_inbox_port_past_the_degree_is_rejected() {
        let cols: SoaColumns<u32> = SoaColumns::new(5);
        let _ = Ports::inbox(&cols, 1..4).port(3);
    }
}
