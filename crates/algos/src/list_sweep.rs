//! The list-coloring class sweep, a rule on the shared colour-class sweep
//! ([`crate::class_sweep`]): from a proper `m`-coloring, process color
//! classes one per round; each node picks the first color of its input
//! list not already chosen by a neighbor. Because every list has at least
//! `deg(v) + 1` entries, a free list color always exists.

use crate::class_sweep::{class_sweep, SweepRule};
use treelocal_graph::OrInvariant;
use treelocal_graph::{NodeId, Topology};
use treelocal_problems::Color;
use treelocal_sim::Ctx;

/// Class `c` of a 0-based `m`-coloring picks in round `m - c`; `list`
/// gives each node's input list.
struct ListSweep<'c, L> {
    initial: &'c [Option<u64>],
    m: u64,
    list: L,
}

impl<'l, L: Fn(NodeId) -> &'l [Color]> SweepRule for ListSweep<'_, L> {
    fn round(&self, v: NodeId) -> Option<u64> {
        let c = self.initial[v.index()].or_invariant("initial color for every participant");
        (c < self.m).then(|| self.m - c)
    }

    fn decide<T: Topology>(
        &self,
        _topo: &T,
        v: NodeId,
        decided: impl ExactSizeIterator<Item = Option<u64>>,
    ) -> u64 {
        USED.with(|cell| {
            let used = &mut *cell.borrow_mut();
            used.clear();
            used.extend(decided.flatten());
            used.sort_unstable();
            let c = (self.list)(v)
                .iter()
                .copied()
                .find(|&c| used.binary_search(&u64::from(c)).is_err())
                .or_invariant("lists have deg+1 entries: a free color exists");
            u64::from(c)
        })
    }
}

thread_local! {
    /// The colors [`ListSweep::decide`]'s decided neighbours took, sorted.
    /// Cleared on entry, so reuse across nodes and rounds cannot leak
    /// state, and a decision allocates nothing once the buffer has grown
    /// to the largest degree seen.
    static USED: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Outcome of the list sweep.
#[derive(Clone, Debug)]
pub struct ListSweepOutcome {
    /// Chosen list color per node.
    pub colors: Vec<Option<Color>>,
    /// Rounds executed (at most `m`).
    pub rounds: u64,
}

/// Runs the list sweep from a proper 0-based `m`-coloring; `list(v)` is
/// node `v`'s list, for `v` in the parent node space.
pub fn list_sweep<'l, T: Topology + Sync>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
    list: impl Fn(NodeId) -> &'l [Color] + Sync,
) -> ListSweepOutcome {
    let rule = ListSweep { initial, m: m.max(1), list };
    let (colors, rounds) = class_sweep(ctx, &rule, m + 2, |c| {
        Color::try_from(c).or_invariant("decisions are list colors")
    });
    ListSweepOutcome { colors, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class_sweep::{assert_sweep_engines_agree, seeded, SweepState};
    use crate::linial::run_linial;
    use treelocal_gen::random_tree;
    use treelocal_graph::Graph;

    fn lists_for(g: &Graph, offset: u32) -> Vec<Vec<Color>> {
        g.node_ids()
            .map(|v| (0..=(g.degree(v) as Color)).map(|i| offset + 3 * i + 1).collect())
            .collect()
    }

    #[test]
    fn the_list_rule_agrees_across_engines() {
        for g in treelocal_gen::cross_check_trees() {
            let ctx = Ctx::of(&g);
            let lin = run_linial(&ctx);
            let (m, lists) = (lin.final_bound, lists_for(&g, 0));
            let rule =
                ListSweep { initial: &lin.colors, m, list: |v: NodeId| &lists[v.index()][..] };
            assert_sweep_engines_agree(&ctx, &rule, m + 2);
        }
    }

    #[test]
    fn list_sweep_is_proper_and_on_list() {
        for seed in 0..4 {
            let g = random_tree(120, seed);
            let lists = lists_for(&g, seed as u32);
            let ctx = Ctx::of(&g);
            let lin = run_linial(&ctx);
            let out = list_sweep(&ctx, &lin.colors, lin.final_bound, |v| &lists[v.index()][..]);
            for v in g.node_ids() {
                let c = out.colors[v.index()].unwrap();
                assert!(lists[v.index()].contains(&c));
                for &w in g.neighbor_nodes(v) {
                    assert_ne!(out.colors[w.index()].unwrap(), c);
                }
            }
            assert!(out.rounds <= lin.final_bound);
        }
    }

    proptest::proptest! {
        /// The states the list sweep seeds: every class waits for a
        /// round ≥ 1.
        #[test]
        fn ls_state_round_trips_through_its_lanes(
            color in proptest::prelude::any::<u32>(),
            initial in proptest::prelude::any::<u64>(),
            m in 1u64..u64::MAX,
        ) {
            let g = Graph::from_edges(1, &[]).unwrap();
            let initial = [Some(initial % m)];
            let list = [color];
            let rule = ListSweep { initial: &initial, m, list: |_| &list[..] };
            let seed = seeded(&g, &rule, NodeId::new(0));
            proptest::prop_assert!(matches!(seed, SweepState::Waiting { round } if round >= 1));
        }
    }
}
