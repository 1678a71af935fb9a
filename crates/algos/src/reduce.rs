//! Color-count reduction from a proper `m`-coloring.
//!
//! Two classic schemes, both rules on the shared colour-class sweep
//! ([`crate::class_sweep`]):
//!
//! * [`sweep_reduce`] — process color classes one per round, highest
//!   first; each node re-picks the smallest color unused in its
//!   neighborhood. `m` rounds; lands at a `(deg+1)`-coloring.
//! * [`kw_reduce`] — Kuhn–Wattenhofer parallel halving: split the `m`
//!   colors into groups of `2(Δ+1)`, reduce every group to `Δ+1` colors in
//!   parallel (`Δ+1` rounds), halving the color count per phase; lands at
//!   a `(Δ+1)`-coloring in `O(Δ · log(m / Δ))` rounds total.

use crate::class_sweep::{class_sweep, smallest_free, SweepRule};
use treelocal_graph::OrInvariant;
use treelocal_graph::{NodeId, Topology};
use treelocal_sim::Ctx;

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

impl ReduceOutcome {
    /// Shifts 0-based colors to the 1-based outcome palette.
    fn from_zero_based(colors: &[Option<u64>], rounds: u64) -> Self {
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
}

/// Class `c` of a 0-based `m`-coloring re-picks in round `m - c` the
/// smallest color its decided neighbors left free.
struct SweepReduce<'c> {
    initial: &'c [Option<u64>],
    m: u64,
}

impl SweepRule for SweepReduce<'_> {
    fn round(&self, v: NodeId) -> Option<u64> {
        let c = self.initial[v.index()].or_invariant("initial color for every participant");
        (c < self.m).then(|| self.m - c)
    }

    fn decide<T: Topology>(
        &self,
        _topo: &T,
        _v: NodeId,
        decided: impl ExactSizeIterator<Item = Option<u64>>,
    ) -> u64 {
        smallest_free(decided.len(), decided.flatten())
    }
}

/// Sweep reduction: from a proper 0-based `m`-coloring to a proper
/// greedy coloring where every node's color is at most its degree
/// (0-based), i.e. a `(deg+1)`-coloring 1-based. Takes at most `m` rounds.
pub fn sweep_reduce<T: Topology + Sync>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
) -> ReduceOutcome {
    assert!(m >= 1);
    let (colors, rounds) = class_sweep(ctx, &SweepReduce { initial, m }, m + 2, |c| c);
    ReduceOutcome::from_zero_based(&colors, rounds)
}

/// One Kuhn–Wattenhofer phase: colors `< m` become colors
/// `< ceil(m / (2(Δ+1))) · (Δ+1)`. Each group of `2(Δ+1)` colors keeps its
/// lower `Δ+1` relative colors as slots, settled at seeding; the upper
/// half moves highest-first (relative color `2s-1` in round 1, `s` in
/// round `s`) into the smallest slot its settled same-group neighbors
/// left free.
struct KwPhase<'c> {
    initial: &'c [Option<u64>],
    /// Slots per group: Δ+1.
    slots: u64,
}

impl KwPhase<'_> {
    /// `v`'s group and its color relative to the group.
    fn group_rel(&self, v: NodeId) -> (u64, u64) {
        let c = self.initial[v.index()].or_invariant("initial color");
        (c / (2 * self.slots), c % (2 * self.slots))
    }
}

impl SweepRule for KwPhase<'_> {
    fn round(&self, v: NodeId) -> Option<u64> {
        let (_, rel) = self.group_rel(v);
        Some(if rel < self.slots { 0 } else { 2 * self.slots - rel })
    }

    fn decide<T: Topology>(
        &self,
        _topo: &T,
        v: NodeId,
        decided: impl ExactSizeIterator<Item = Option<u64>>,
    ) -> u64 {
        let (group, rel) = self.group_rel(v);
        if rel < self.slots {
            return group * self.slots + rel;
        }
        let slot = smallest_free(
            decided.len(),
            decided.flatten().filter(|&c| c / self.slots == group).map(|c| c % self.slots),
        );
        debug_assert!(slot < self.slots, "at most Δ same-group neighbors");
        group * self.slots + slot
    }
}

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
        debug_assert!(colors.iter().flatten().all(|&c| c < m_cur));
        let phase = KwPhase { initial: &colors, slots };
        let (next, phase_rounds) = class_sweep(ctx, &phase, 2 * slots + 2, |c| c);
        colors = next;
        rounds += phase_rounds;
        m_cur = m_cur.div_ceil(2 * slots) * slots;
    }
    debug_assert!(colors.iter().flatten().all(|&c| c < m_cur));
    ReduceOutcome::from_zero_based(&colors, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class_sweep::{assert_sweep_engines_agree, seeded, SweepState};
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
    fn both_rules_agree_across_engines() {
        for g in treelocal_gen::cross_check_trees() {
            let ctx = Ctx::of(&g);
            let lin = run_linial(&ctx);
            let m = lin.final_bound;
            assert_sweep_engines_agree(&ctx, &SweepReduce { initial: &lin.colors, m }, m + 2);
            let slots = ctx.max_degree as u64 + 1;
            assert_sweep_engines_agree(
                &ctx,
                &KwPhase { initial: &lin.colors, slots },
                2 * slots + 2,
            );
        }
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
    fn reductions_on_a_star_with_100_leaves() {
        // The centre decides from 100 neighbours, past one bitset word.
        let g = Graph::from_edges(101, &(1..101).map(|i| (0, i)).collect::<Vec<_>>()).unwrap();
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let sweep = sweep_reduce(&ctx, &lin.colors, lin.final_bound);
        assert!(check_proper_u32(&g, &sweep.colors), "sweep: improper");
        for v in g.node_ids() {
            let c = sweep.colors[v.index()].unwrap();
            assert!(c as usize <= g.degree(v) + 1, "sweep: node {v} has color {c}");
        }
        let kw = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        assert!(check_proper_u32(&g, &kw.colors), "kw: improper");
        assert!(kw.final_colors <= 101, "kw: {} colors > Δ+1 = 101", kw.final_colors);
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
        /// The states `sweep_reduce` seeds: every class waits for a
        /// round ≥ 1.
        #[test]
        fn sweep_state_round_trips_through_its_lanes(
            color in proptest::prelude::any::<u64>(),
            m in 1u64..u64::MAX,
        ) {
            let g = Graph::from_edges(1, &[]).unwrap();
            let initial = [Some(color % m)];
            let seed = seeded(&g, &SweepReduce { initial: &initial, m }, NodeId::new(0));
            proptest::prop_assert!(matches!(seed, SweepState::Waiting { round } if round >= 1));
        }

        /// The states a KW phase seeds: a kept color is decided at seeding
        /// on its slot of its group, a moving color waits for a round ≥ 1.
        #[test]
        fn kw_state_round_trips_through_its_lanes(
            color in proptest::prelude::any::<u64>(),
            slots in 1u64..1 << 32,
        ) {
            let g = Graph::from_edges(1, &[]).unwrap();
            let initial = [Some(color)];
            let seed = seeded(&g, &KwPhase { initial: &initial, slots }, NodeId::new(0));
            let kept = color % (2 * slots) < slots;
            if kept {
                let slot = color / (2 * slots) * slots + color % (2 * slots);
                proptest::prop_assert_eq!(seed, SweepState::Decided(slot));
            } else {
                proptest::prop_assert!(matches!(seed, SweepState::Waiting { round } if round >= 1));
            }
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
