//! The list-coloring class sweep: from a proper `m`-coloring, process
//! color classes one per round; each node picks the first color of its
//! input list not already chosen by a neighbor. Because every list has at
//! least `deg(v) + 1` entries, a free list color always exists.

use treelocal_graph::OrInvariant;
use treelocal_graph::{NodeId, Topology};
use treelocal_problems::Color;
use treelocal_sim::{run, Ctx, ParSafe, Snapshot, StateCodec, SyncAlgorithm, Verdict};

#[derive(Clone, Debug, PartialEq, Eq)]
enum LsState {
    Waiting { my_round: u64 },
    Chosen(Color),
}

/// `[chosen flag, color]` u32 lanes plus a `my_round` u64 lane. Each
/// variant zeroes the other variant's lane, so equal states have equal
/// lane bytes.
impl StateCodec for LsState {
    const U32_LANES: usize = 2;
    const U64_LANES: usize = 1;

    fn encode(&self, lanes32: &mut [u32], lanes64: &mut [u64]) {
        match *self {
            LsState::Waiting { my_round } => {
                lanes32[0] = 0;
                lanes32[1] = 0;
                lanes64[0] = my_round;
            }
            LsState::Chosen(c) => {
                lanes32[0] = 1;
                lanes32[1] = c;
                lanes64[0] = 0;
            }
        }
    }

    fn decode(lanes32: &[u32], lanes64: &[u64]) -> Self {
        if lanes32[0] == 0 {
            LsState::Waiting { my_round: lanes64[0] }
        } else {
            LsState::Chosen(lanes32[1])
        }
    }
}

struct ListSweep<'c> {
    initial: &'c [Option<u64>],
    m: u64,
    lists: &'c [Vec<Color>],
}

impl<T: Topology> SyncAlgorithm<T> for ListSweep<'_> {
    type State = LsState;

    fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<LsState> {
        let c = self.initial[v.index()].or_invariant("initial color for every participant");
        debug_assert!(c < self.m);
        Verdict::Active(LsState::Waiting { my_round: self.m - c })
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: LsState,
        prev: &Snapshot<'_, LsState>,
    ) -> Verdict<LsState> {
        let LsState::Waiting { my_round } = own else { unreachable!("chosen nodes have halted") };
        if round < my_round {
            return Verdict::Active(own);
        }
        let mut used: Vec<Color> = ctx
            .topo
            .neighbor_nodes(v)
            .iter()
            .filter_map(|&w| match prev.get(w) {
                LsState::Chosen(c) => Some(c),
                LsState::Waiting { .. } => None,
            })
            .collect();
        used.sort_unstable();
        let c = self.lists[v.index()]
            .iter()
            .copied()
            .find(|c| used.binary_search(c).is_err())
            .or_invariant("lists have deg+1 entries: a free color exists");
        Verdict::Halted(LsState::Chosen(c))
    }
}

/// Outcome of the list sweep.
#[derive(Clone, Debug)]
pub struct ListSweepOutcome {
    /// Chosen list color per node.
    pub colors: Vec<Option<Color>>,
    /// Rounds executed (at most `m`).
    pub rounds: u64,
}

/// Runs the list sweep from a proper 0-based `m`-coloring; `lists` is
/// indexed by the parent node space.
pub fn list_sweep<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
    lists: &[Vec<Color>],
) -> ListSweepOutcome {
    let algo = ListSweep { initial, m: m.max(1), lists };
    let out = run(ctx, &algo, m + 2);
    ListSweepOutcome {
        colors: out
            .states()
            .map(|s| {
                s.map(|st| match st {
                    LsState::Chosen(c) => c,
                    LsState::Waiting { .. } => unreachable!("run drains all nodes"),
                })
            })
            .collect(),
        rounds: out.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::run_linial;
    use treelocal_gen::random_tree;
    use treelocal_graph::Graph;

    fn lists_for(g: &Graph, offset: u32) -> Vec<Vec<Color>> {
        g.node_ids()
            .map(|v| (0..=(g.degree(v) as Color)).map(|i| offset + 3 * i + 1).collect())
            .collect()
    }

    #[test]
    fn list_sweep_is_proper_and_on_list() {
        for seed in 0..4 {
            let g = random_tree(120, seed);
            let lists = lists_for(&g, seed as u32);
            let ctx = Ctx::of(&g);
            let lin = run_linial(&ctx);
            let out = list_sweep(&ctx, &lin.colors, lin.final_bound, &lists);
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
        /// The codec law for list-sweep states, both variants, full lanes.
        #[test]
        fn ls_state_round_trips_through_its_lanes(
            chosen in proptest::prelude::any::<bool>(),
            color in proptest::prelude::any::<u32>(),
            my_round in proptest::prelude::any::<u64>(),
        ) {
            let s = if chosen { LsState::Chosen(color) } else { LsState::Waiting { my_round } };
            let mut lanes32 = [0u32; LsState::U32_LANES];
            let mut lanes64 = [0u64; LsState::U64_LANES];
            s.encode(&mut lanes32, &mut lanes64);
            proptest::prop_assert_eq!(LsState::decode(&lanes32, &lanes64), s);
        }
    }
}
