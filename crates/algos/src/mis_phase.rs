//! MIS from a proper coloring via the color-class sweep.
//!
//! Given a proper `m`-coloring, process classes one per round (highest
//! first); a node joins the independent set iff none of its neighbors has
//! joined yet. Same-class nodes are never adjacent, so simultaneous joins
//! are safe. A node that declines records the edge to the member that
//! blocked it — the maximality witness used for the `P` pointer label.

use treelocal_graph::OrInvariant;
use treelocal_graph::{narrow_u32, widen_u32, EdgeId, NodeId, Topology};
use treelocal_sim::{run, Ctx, ParSafe, Snapshot, StateCodec, SyncAlgorithm, Verdict};

#[cfg(feature = "parallel")]
use treelocal_sim::run_with_threads;

/// Per-node MIS decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MisDecision {
    /// Joined the independent set.
    Member,
    /// Declined; the edge leads to the member that blocked the node.
    NonMember {
        /// Edge to a member neighbor (the maximality witness).
        witness: EdgeId,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum SweepState {
    Waiting { my_round: u64 },
    Decided(MisDecision),
}

/// Lane tags for [`SweepState`]'s codec (lane 0 of the u32 row).
const TAG_WAITING: u32 = 0;
const TAG_MEMBER: u32 = 1;
const TAG_NON_MEMBER: u32 = 2;

/// `[tag, witness]` u32 lanes plus a `my_round` u64 lane. The witness lane
/// is only meaningful under [`TAG_NON_MEMBER`], `my_round` only under
/// [`TAG_WAITING`]; both encode as zero otherwise so equal states have
/// equal lane bytes.
impl StateCodec for SweepState {
    const U32_LANES: usize = 2;
    const U64_LANES: usize = 1;

    fn encode(&self, lanes32: &mut [u32], lanes64: &mut [u64]) {
        match self {
            SweepState::Waiting { my_round } => {
                lanes32[0] = TAG_WAITING;
                lanes32[1] = 0;
                lanes64[0] = *my_round;
            }
            SweepState::Decided(MisDecision::Member) => {
                lanes32[0] = TAG_MEMBER;
                lanes32[1] = 0;
                lanes64[0] = 0;
            }
            SweepState::Decided(MisDecision::NonMember { witness }) => {
                lanes32[0] = TAG_NON_MEMBER;
                lanes32[1] = narrow_u32(witness.index());
                lanes64[0] = 0;
            }
        }
    }

    fn decode(lanes32: &[u32], lanes64: &[u64]) -> Self {
        match lanes32[0] {
            TAG_WAITING => SweepState::Waiting { my_round: lanes64[0] },
            TAG_MEMBER => SweepState::Decided(MisDecision::Member),
            _ => SweepState::Decided(MisDecision::NonMember {
                witness: EdgeId::new(widen_u32(lanes32[1])),
            }),
        }
    }
}

struct MisSweep<'c> {
    colors: &'c [Option<u32>],
    m: u64,
}

impl<T: Topology> SyncAlgorithm<T> for MisSweep<'_> {
    type State = SweepState;

    fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<SweepState> {
        let c = u64::from(self.colors[v.index()].or_invariant("color for every participant"));
        debug_assert!((1..=self.m).contains(&c), "colors are 1-based and ≤ m");
        // Highest class first: class c decides in round m - c + 1.
        Verdict::Active(SweepState::Waiting { my_round: self.m - c + 1 })
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: SweepState,
        prev: &Snapshot<'_, SweepState>,
    ) -> Verdict<SweepState> {
        let SweepState::Waiting { my_round } = own else {
            unreachable!("decided nodes have halted")
        };
        if round < my_round {
            return Verdict::Active(own);
        }
        debug_assert_eq!(round, my_round);
        let blocker = ctx
            .topo
            .neighbors(v)
            .find(|&(w, _)| matches!(prev.get(w), SweepState::Decided(MisDecision::Member)));
        let decision = match blocker {
            Some((_, e)) => MisDecision::NonMember { witness: e },
            None => MisDecision::Member,
        };
        Verdict::Halted(SweepState::Decided(decision))
    }
}

/// Result of the MIS sweep.
#[derive(Clone, Debug)]
pub struct MisOutcome {
    /// Per-node decision (parent index space).
    pub decisions: Vec<Option<MisDecision>>,
    /// Rounds executed.
    pub rounds: u64,
}

/// Runs the class sweep from a proper 1-based `m`-coloring.
pub fn mis_from_coloring<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    colors: &[Option<u32>],
    m: u64,
) -> MisOutcome {
    mis_inner(ctx, colors, m, None)
}

/// [`mis_from_coloring`] on a fixed worker-pool size — the sweep stage of
/// the certificate pool-size matrix.
#[cfg(feature = "parallel")]
pub fn mis_from_coloring_with_threads<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    colors: &[Option<u32>],
    m: u64,
    threads: usize,
) -> MisOutcome {
    mis_inner(ctx, colors, m, Some(threads))
}

fn mis_inner<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    colors: &[Option<u32>],
    m: u64,
    threads: Option<usize>,
) -> MisOutcome {
    let algo = MisSweep { colors, m };
    #[cfg(feature = "parallel")]
    let out = match threads {
        Some(t) => run_with_threads(ctx, &algo, m + 2, t),
        None => run(ctx, &algo, m + 2),
    };
    #[cfg(not(feature = "parallel"))]
    let out = {
        let _ = threads;
        run(ctx, &algo, m + 2)
    };
    MisOutcome {
        decisions: out
            .states()
            .map(|s| {
                s.map(|st| match st {
                    SweepState::Decided(d) => d,
                    SweepState::Waiting { .. } => unreachable!("run drains all nodes"),
                })
            })
            .collect(),
        rounds: out.rounds,
    }
}

/// Checks that the decisions form an MIS of the topology (test helper).
pub fn is_valid_mis_on<T: Topology>(topo: &T, decisions: &[Option<MisDecision>]) -> bool {
    topo.nodes().all(|v| match decisions[v.index()] {
        Some(MisDecision::Member) => topo
            .neighbor_nodes(v)
            .iter()
            .all(|&w| !matches!(decisions[w.index()], Some(MisDecision::Member))),
        Some(MisDecision::NonMember { witness }) => {
            let other = topo.graph().other_endpoint(witness, v);
            matches!(decisions[other.index()], Some(MisDecision::Member))
        }
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::run_linial;
    use crate::reduce::kw_reduce;
    use treelocal_gen::random_tree;
    use treelocal_graph::Graph;

    fn full_pipeline(g: &Graph) -> (MisOutcome, u64) {
        let ctx = Ctx::of(g);
        let lin = run_linial(&ctx);
        let red = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        let mis = mis_from_coloring(&ctx, &red.colors, u64::from(red.final_colors));
        let total = lin.rounds + red.rounds + mis.rounds;
        (mis, total)
    }

    #[test]
    fn mis_on_random_trees() {
        for seed in 0..5 {
            let g = random_tree(150, seed);
            let (mis, _) = full_pipeline(&g);
            assert!(is_valid_mis_on(&g, &mis.decisions), "seed {seed}");
        }
    }

    #[test]
    fn mis_on_star_and_path() {
        let star = Graph::from_edges(8, &(1..8).map(|i| (0, i)).collect::<Vec<_>>()).unwrap();
        let (mis, _) = full_pipeline(&star);
        assert!(is_valid_mis_on(&star, &mis.decisions));

        let path = Graph::from_edges(30, &(0..29).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
        let (mis, _) = full_pipeline(&path);
        assert!(is_valid_mis_on(&path, &mis.decisions));
    }

    #[test]
    fn sweep_rounds_bounded_by_colors() {
        let g = random_tree(300, 7);
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let red = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        let mis = mis_from_coloring(&ctx, &red.colors, u64::from(red.final_colors));
        assert!(mis.rounds <= u64::from(red.final_colors) + 1);
        assert!(is_valid_mis_on(&g, &mis.decisions));
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn sweep_pool_sizes_match_the_sequential_run() {
        use treelocal_sim::par;
        let g = random_tree(3000, 11);
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let red = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        let m = u64::from(red.final_colors);
        let algo = MisSweep { colors: &red.colors, m };
        let reference = run_with_threads(&ctx, &algo, m + 2, 1);
        for threads in [2usize, 4, par::auto_threads()] {
            let pooled = run_with_threads(&ctx, &algo, m + 2, threads);
            assert_eq!(reference.rounds, pooled.rounds, "{threads} threads: rounds diverge");
            assert!(
                reference.states().eq(pooled.states()),
                "{threads} threads: sweep states diverge"
            );
        }
    }

    proptest::proptest! {
        /// The codec law for sweep states, across every tag and the full
        /// lane value ranges.
        #[test]
        fn sweep_state_round_trips_through_its_lanes(
            tag in 0u32..3,
            witness in proptest::prelude::any::<u32>(),
            my_round in proptest::prelude::any::<u64>(),
        ) {
            let s = match tag {
                TAG_WAITING => SweepState::Waiting { my_round },
                TAG_MEMBER => SweepState::Decided(MisDecision::Member),
                _ => SweepState::Decided(MisDecision::NonMember {
                    witness: EdgeId::new(widen_u32(witness)),
                }),
            };
            let mut lanes32 = [0u32; SweepState::U32_LANES];
            let mut lanes64 = [0u64; SweepState::U64_LANES];
            s.encode(&mut lanes32, &mut lanes64);
            proptest::prop_assert_eq!(SweepState::decode(&lanes32, &lanes64), s);
        }
    }

    #[test]
    fn isolated_nodes_join() {
        let g = Graph::from_edges(3, &[]).unwrap();
        let (mis, _) = full_pipeline(&g);
        for v in g.node_ids() {
            assert_eq!(mis.decisions[v.index()], Some(MisDecision::Member));
        }
    }
}
