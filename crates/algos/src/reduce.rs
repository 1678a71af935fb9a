//! Color-count reduction from a proper `m`-coloring.
//!
//! Two classic schemes, both driven by the deterministic "color classes as
//! a schedule" idea:
//!
//! * [`sweep_reduce`] — process color classes one per round, highest
//!   first; each node re-picks the smallest color unused in its
//!   neighborhood. `m` rounds; lands at a `(deg+1)`-coloring.
//! * [`kw_reduce`] — Kuhn–Wattenhofer parallel halving: split the `m`
//!   colors into groups of `2(Δ+1)`, reduce every group to `Δ+1` colors in
//!   parallel (`Δ+1` rounds), halving the color count per phase; lands at
//!   a `(Δ+1)`-coloring in `O(Δ · log(m / Δ))` rounds total.

use treelocal_graph::OrInvariant;
use treelocal_graph::{NodeId, Topology};
use treelocal_sim::{run, Ctx, Snapshot, StateCodec, SyncAlgorithm, Verdict};

/// Outcome of a reduction phase: per-node colors (1-based) plus the rounds
/// used.
#[derive(Clone, Debug)]
pub struct ReduceOutcome {
    /// Final colors, `1 ..= final_colors`.
    pub colors: Vec<Option<u32>>,
    /// Number of colors of the final palette.
    pub final_colors: u32,
    /// Rounds executed.
    pub rounds: u64,
}

// ---------------------------------------------------------------------
// Sweep reduction
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct SweepState {
    /// Current (possibly original) color, 0-based internally.
    color: u64,
    /// The round at which this node re-picks (derived from its original
    /// class).
    my_round: u64,
}

/// `[color, my_round]` u64 lanes.
impl StateCodec for SweepState {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 2;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = self.color;
        lanes64[1] = self.my_round;
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        SweepState { color: lanes64[0], my_round: lanes64[1] }
    }
}

struct SweepAlgo<'c> {
    initial: &'c [Option<u64>],
    m: u64,
}

impl<T: Topology> SyncAlgorithm<T> for SweepAlgo<'_> {
    type State = SweepState;

    fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<SweepState> {
        let c = self.initial[v.index()].or_invariant("initial color for every participant");
        debug_assert!(c < self.m);
        // Highest class first: class c re-picks in round m - c.
        Verdict::Active(SweepState { color: self.m + c, my_round: self.m - c })
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: SweepState,
        prev: &Snapshot<'_, SweepState>,
    ) -> Verdict<SweepState> {
        if round < own.my_round {
            return Verdict::Active(own);
        }
        debug_assert_eq!(round, own.my_round);
        // Pick the smallest color (0-based, below m) unused by neighbors'
        // current colors. Unprocessed neighbors hold colors ≥ m (shifted),
        // so they never block small colors.
        let mut used: Vec<u64> = ctx
            .topo
            .neighbor_nodes(v)
            .iter()
            .map(|&w| prev.get(w).color)
            .filter(|&c| c < self.m)
            .collect();
        used.sort_unstable();
        used.dedup();
        let mut c = 0u64;
        for u in used {
            if u == c {
                c += 1;
            } else if u > c {
                break;
            }
        }
        Verdict::Halted(SweepState { color: c, my_round: own.my_round })
    }
}

/// Sweep reduction: from a proper 0-based `m`-coloring to a proper
/// greedy coloring where every node's color is at most its degree
/// (0-based), i.e. a `(deg+1)`-coloring 1-based. Takes at most `m` rounds.
///
/// The input coloring is shifted by `m` internally so that "not yet
/// processed" is distinguishable; the shift is invisible to callers.
pub fn sweep_reduce<T: Topology + Sync>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
) -> ReduceOutcome {
    assert!(m >= 1);
    let algo = SweepAlgo { initial, m };
    let out = run(ctx, &algo, m + 2);
    let colors: Vec<Option<u64>> = out.states().map(|s| s.map(|st| st.color)).collect();
    let max_used = colors.iter().flatten().copied().max().unwrap_or(0);
    ReduceOutcome {
        colors: colors
            .iter()
            .map(|c| c.map(|x| u32::try_from(x + 1).or_invariant("small color")))
            .collect(),
        final_colors: (max_used + 1) as u32,
        rounds: out.rounds,
    }
}

// ---------------------------------------------------------------------
// Kuhn–Wattenhofer halving
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct KwState {
    /// Current color, 0-based, always `< m_current` of the ongoing phase
    /// interpretation.
    color: u64,
}

/// One u64 lane: the color, [`FINAL_TAG`] bit included.
impl StateCodec for KwState {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 1;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = self.color;
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        KwState { color: lanes64[0] }
    }
}

/// One KW phase: colors `< m` become colors `< ceil(m / (2(Δ+1))) · (Δ+1)`.
struct KwPhase<'c> {
    initial: &'c [Option<u64>],
    m: u64,
    /// Slots per group: Δ+1.
    slots: u64,
}

impl<T: Topology> SyncAlgorithm<T> for KwPhase<'_> {
    type State = KwState;

    fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<KwState> {
        let c = self.initial[v.index()].or_invariant("initial color");
        debug_assert!(c < self.m);
        let rel = c % (2 * self.slots);
        if rel < self.slots {
            // Already within the kept slot range: final immediately (tagged
            // so moving neighbors recognize it as a settled slot).
            let group = c / (2 * self.slots);
            Verdict::Halted(KwState { color: FINAL_TAG | (group * self.slots + rel) })
        } else {
            Verdict::Active(KwState { color: c })
        }
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: KwState,
        prev: &Snapshot<'_, KwState>,
    ) -> Verdict<KwState> {
        let group_size = 2 * self.slots;
        let rel = own.color % group_size;
        let group = own.color / group_size;
        debug_assert!(rel >= self.slots, "active nodes still need to move");
        // Relative colors are processed highest-first: rel = 2s-1 moves in
        // round 1, rel = s moves in round s.
        let my_round = group_size - rel;
        if round < my_round {
            return Verdict::Active(own);
        }
        debug_assert_eq!(round, my_round);
        // Forbidden slots: same-group neighbors already settled in the
        // compact namespace (recognizable by FINAL_TAG; waiting neighbors
        // still carry untagged original-namespace colors and block
        // nothing).
        let used_slots: Vec<u64> = ctx
            .topo
            .neighbor_nodes(v)
            .iter()
            .map(|&w| prev.get(w).color)
            .filter(|&c| c & FINAL_TAG != 0)
            .map(|c| c & !FINAL_TAG)
            .filter(|&c| c / self.slots == group)
            .map(|c| c % self.slots)
            .collect();
        let mut slot = 0u64;
        let mut sorted = used_slots;
        sorted.sort_unstable();
        sorted.dedup();
        for s in sorted {
            if s == slot {
                slot += 1;
            } else if s > slot {
                break;
            }
        }
        debug_assert!(slot < self.slots, "at most Δ same-group neighbors");
        Verdict::Halted(KwState { color: FINAL_TAG | (group * self.slots + slot) })
    }
}

/// High-bit tag distinguishing finalized compact-namespace colors from
/// waiting original-namespace colors during a KW phase.
const FINAL_TAG: u64 = 1 << 62;

/// Kuhn–Wattenhofer reduction from a proper 0-based `m`-coloring to a
/// proper `(Δ+1)`-coloring (Δ from the context), in `O(Δ · log(m / Δ))`
/// rounds.
pub fn kw_reduce<T: Topology + Sync>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
) -> ReduceOutcome {
    let slots = ctx.max_degree as u64 + 1;
    let mut colors: Vec<Option<u64>> = initial.to_vec();
    let mut m_cur = m.max(1);
    let mut rounds = 0u64;
    while m_cur > slots {
        let phase = KwPhase { initial: &colors, m: m_cur, slots };
        let out = run(ctx, &phase, 2 * slots + 2);
        rounds += out.rounds;
        let groups = m_cur.div_ceil(2 * slots);
        m_cur = groups * slots;
        colors = out.states().map(|s| s.map(|st| st.color & !FINAL_TAG)).collect();
        // Tag is stripped; ensure the invariant holds.
        debug_assert!(colors.iter().flatten().all(|&c| c < m_cur));
    }
    let max_used = colors.iter().flatten().copied().max().unwrap_or(0);
    ReduceOutcome {
        colors: colors
            .iter()
            .map(|c| c.map(|x| u32::try_from(x + 1).or_invariant("small color")))
            .collect(),
        final_colors: (max_used + 1) as u32,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::{is_proper, run_linial};
    use treelocal_graph::Graph;

    fn check_proper_u32(g: &Graph, colors: &[Option<u32>]) -> bool {
        let as64: Vec<Option<u64>> = colors.iter().map(|c| c.map(u64::from)).collect();
        is_proper(g, &as64)
    }

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn sweep_reaches_deg_plus_one() {
        let g = path(40);
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let out = sweep_reduce(&ctx, &lin.colors, lin.final_bound);
        assert!(check_proper_u32(&g, &out.colors));
        for v in g.node_ids() {
            let c = out.colors[v.index()].unwrap();
            assert!(c as usize <= g.degree(v) + 1, "node {v}: color {c}");
        }
        assert!(out.rounds <= lin.final_bound);
    }

    #[test]
    fn kw_reaches_delta_plus_one() {
        for g in [
            path(60),
            Graph::from_edges(10, &(1..10).map(|i| (0, i)).collect::<Vec<_>>()).unwrap(),
            treelocal_gen::random_tree(200, 3),
        ] {
            let ctx = Ctx::of(&g);
            let lin = run_linial(&ctx);
            let out = kw_reduce(&ctx, &lin.colors, lin.final_bound);
            assert!(check_proper_u32(&g, &out.colors), "improper");
            assert!(
                out.final_colors as usize <= g.max_degree() + 1,
                "{} colors > Δ+1 = {}",
                out.final_colors,
                g.max_degree() + 1
            );
        }
    }

    #[test]
    fn kw_round_count_is_delta_log_like() {
        let g = treelocal_gen::random_tree(500, 1);
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let out = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        let delta = g.max_degree() as u64;
        let phases = (lin.final_bound as f64 / (delta + 1) as f64).log2().ceil() as u64 + 1;
        assert!(out.rounds <= (delta + 1) * phases + phases, "rounds {} exceed bound", out.rounds);
    }

    #[test]
    fn reductions_on_trivial_inputs() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let ctx = Ctx::of(&g);
        let initial = vec![Some(0u64)];
        let s = sweep_reduce(&ctx, &initial, 1);
        assert_eq!(s.colors[0], Some(1));
        let k = kw_reduce(&ctx, &initial, 1);
        assert_eq!(k.colors[0], Some(1));
        assert_eq!(k.rounds, 0);
    }

    proptest::proptest! {
        /// The codec law for sweep states over the full lane range.
        #[test]
        fn sweep_state_round_trips_through_its_lanes(
            color in proptest::prelude::any::<u64>(),
            my_round in proptest::prelude::any::<u64>(),
        ) {
            let s = SweepState { color, my_round };
            let mut lanes64 = [0u64; SweepState::U64_LANES];
            s.encode(&mut [], &mut lanes64);
            proptest::prop_assert_eq!(SweepState::decode(&[], &lanes64), s);
        }

        /// The codec law for KW states, tagged colors included.
        #[test]
        fn kw_state_round_trips_through_its_lanes(color in proptest::prelude::any::<u64>()) {
            let s = KwState { color };
            let mut lanes64 = [0u64; KwState::U64_LANES];
            s.encode(&mut [], &mut lanes64);
            proptest::prop_assert_eq!(KwState::decode(&[], &lanes64), s);
        }
    }

    #[test]
    fn sweep_respects_already_small_colorings() {
        // A proper 2-coloring of a path stays within 2 colors after sweep.
        let g = path(10);
        let ctx = Ctx::of(&g);
        let initial: Vec<Option<u64>> = (0..10).map(|i| Some((i % 2) as u64)).collect();
        let out = sweep_reduce(&ctx, &initial, 2);
        assert!(check_proper_u32(&g, &out.colors));
        assert!(out.final_colors <= 2);
    }
}
