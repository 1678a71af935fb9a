//! MIS from a proper coloring, as a rule on the shared colour-class sweep
//! ([`crate::class_sweep`]).
//!
//! Given a proper `m`-coloring, process classes one per round (highest
//! first); a node joins the independent set iff none of its neighbors has
//! joined yet. Same-class nodes are never adjacent, so simultaneous joins
//! are safe. A node that declines records the edge to the member that
//! blocked it — the maximality witness used for the `P` pointer label.

use crate::class_sweep::{class_sweep, SweepRule};
use treelocal_graph::OrInvariant;
use treelocal_graph::{widen_u64, EdgeId, NodeId, Topology};
use treelocal_sim::Ctx;

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

/// The sweep decision of a member. A non-member decides on its witness's
/// edge index, which stays below `u32::MAX`.
const MEMBER: u64 = u64::MAX;

/// Class `c` of a 1-based `m`-coloring decides in round `m - c + 1`: it
/// joins unless a neighbor already has, and otherwise names the edge of
/// its first member port as its witness.
struct MisSweep<'c> {
    colors: &'c [Option<u32>],
    m: u64,
}

impl SweepRule for MisSweep<'_> {
    fn round(&self, v: NodeId) -> Option<u64> {
        let c = u64::from(self.colors[v.index()].or_invariant("color for every participant"));
        (1..=self.m).contains(&c).then(|| self.m - c + 1)
    }

    fn decide<T: Topology>(
        &self,
        topo: &T,
        v: NodeId,
        decided: impl ExactSizeIterator<Item = Option<u64>>,
    ) -> u64 {
        topo.neighbor_edges(v)
            .iter()
            .zip(decided)
            .find(|&(_, d)| d == Some(MEMBER))
            .map_or(MEMBER, |(e, _)| widen_u64(e.index()))
    }
}

/// Maps a sweep decision back to its [`MisDecision`].
fn mis_decision(x: u64) -> MisDecision {
    if x == MEMBER {
        MisDecision::Member
    } else {
        MisDecision::NonMember {
            witness: EdgeId::new(usize::try_from(x).or_invariant("edge index")),
        }
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
pub fn mis_from_coloring<T: Topology + Sync>(
    ctx: &Ctx<'_, T>,
    colors: &[Option<u32>],
    m: u64,
) -> MisOutcome {
    let (decisions, rounds) = class_sweep(ctx, &MisSweep { colors, m }, m + 2, mis_decision);
    MisOutcome { decisions, rounds }
}

/// Checks that the decisions form an MIS of the topology (test helper).
/// A witness edge that does not exist or does not touch its node makes
/// the decisions invalid.
pub fn is_valid_mis_on<T: Topology>(topo: &T, decisions: &[Option<MisDecision>]) -> bool {
    let g = topo.graph();
    topo.nodes().all(|v| match decisions[v.index()] {
        Some(MisDecision::Member) => topo
            .neighbor_nodes(v)
            .iter()
            .all(|&w| !matches!(decisions[w.index()], Some(MisDecision::Member))),
        Some(MisDecision::NonMember { witness }) if witness.index() < g.edge_count() => {
            match g.endpoints(witness) {
                [a, other] | [other, a] if a == v => {
                    matches!(decisions[other.index()], Some(MisDecision::Member))
                }
                _ => false,
            }
        }
        Some(MisDecision::NonMember { .. }) | None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class_sweep::{assert_sweep_engines_agree, seeded, SweepState};
    use crate::linial::run_linial;
    use crate::reduce::kw_reduce;
    use treelocal_gen::random_tree;
    use treelocal_graph::{widen_u32, Graph};

    fn full_pipeline(g: &Graph) -> (MisOutcome, u64) {
        let ctx = Ctx::of(g);
        let lin = run_linial(&ctx);
        let red = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        let mis = mis_from_coloring(&ctx, &red.colors, u64::from(red.final_colors));
        let total = lin.rounds + red.rounds + mis.rounds;
        (mis, total)
    }

    #[test]
    fn the_mis_rule_agrees_across_engines() {
        for g in treelocal_gen::cross_check_trees() {
            let ctx = Ctx::of(&g);
            let lin = run_linial(&ctx);
            let red = kw_reduce(&ctx, &lin.colors, lin.final_bound);
            let m = u64::from(red.final_colors);
            assert_sweep_engines_agree(&ctx, &MisSweep { colors: &red.colors, m }, m + 2);
        }
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

    #[test]
    fn sweep_pool_sizes_match_the_sequential_run() {
        use treelocal_sim::par;
        let g = random_tree(3000, 11);
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let red = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        let m = u64::from(red.final_colors);
        let reference = par::with_threads(1, || mis_from_coloring(&ctx, &red.colors, m));
        for threads in [2usize, 4, par::auto_threads()] {
            let pooled = par::with_threads(threads, || mis_from_coloring(&ctx, &red.colors, m));
            assert_eq!(reference.rounds, pooled.rounds, "{threads} threads: rounds diverge");
            assert_eq!(
                reference.decisions, pooled.decisions,
                "{threads} threads: decisions diverge"
            );
        }
    }

    proptest::proptest! {
        /// The states the MIS sweep produces: a seeded class waits for a
        /// round ≥ 1, and both decisions (the member sentinel and any
        /// witness edge) read back from their word as the same
        /// [`MisDecision`].
        #[test]
        fn sweep_state_round_trips_through_its_lanes(
            member in proptest::prelude::any::<bool>(),
            witness in 0..u32::MAX,
            c in 1u32..u32::MAX,
        ) {
            let g = Graph::from_edges(1, &[]).unwrap();
            let colors = [Some(c)];
            let m = u64::from(u32::MAX);
            let seed = seeded(&g, &MisSweep { colors: &colors, m }, NodeId::new(0));
            proptest::prop_assert!(matches!(seed, SweepState::Waiting { round } if round >= 1));
            let decision = if member {
                MisDecision::Member
            } else {
                MisDecision::NonMember { witness: EdgeId::new(widen_u32(witness)) }
            };
            let word = match decision {
                MisDecision::Member => MEMBER,
                MisDecision::NonMember { witness } => widen_u64(witness.index()),
            };
            proptest::prop_assert_eq!(mis_decision(word), decision);
        }
    }

    #[test]
    fn a_witness_edge_away_from_its_node_is_invalid() {
        // Path 0 - 1 - 2 - 3 with members 0 and 3. Node 2's honest witness
        // is edge 2 = {2, 3}; edge 0 = {0, 1} leads to a member too, but
        // does not touch node 2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let non_member = |e| Some(MisDecision::NonMember { witness: EdgeId::new(e) });
        let member = Some(MisDecision::Member);
        let mut decisions = vec![member, non_member(0), non_member(2), member];
        assert!(is_valid_mis_on(&g, &decisions), "the honest decisions are valid");
        decisions[2] = non_member(0);
        assert!(!is_valid_mis_on(&g, &decisions));
    }

    #[test]
    fn a_witness_edge_out_of_range_is_invalid() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let decisions =
            [Some(MisDecision::Member), Some(MisDecision::NonMember { witness: EdgeId::new(7) })];
        assert!(!is_valid_mis_on(&g, &decisions));
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
