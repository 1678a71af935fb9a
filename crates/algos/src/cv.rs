//! Cole–Vishkin 3-coloring of rooted forests in `log* n + O(1)` rounds
//! \[GPS87\].
//!
//! Given parent pointers, each round replaces a node's color `c` by
//! `2·i + bit_i(c)` where `i` is the lowest bit position on which `c`
//! differs from the parent's color — properness along parent edges is
//! preserved while the bit-length drops logarithmically, reaching colors
//! `< 6` after `log*`-many rounds. A shift-down round makes every node's
//! children monochromatic, after which colors 5, 4, 3 are eliminated one
//! round each, landing at a proper 3-coloring.
//!
//! Used by the Theorem 15 pipeline to split the atypical-edge forests
//! `F_i` into the star forests `F_{i,j}` (Section 4 of the paper).

use treelocal_graph::OrInvariant;
use treelocal_graph::{narrow_u32, widen_u32, NodeId, RootedForest, Topology};
use treelocal_sim::{run, Ctx, Ports, SyncAlgorithm, Verdict};

/// Outcome of the forest 3-coloring.
#[derive(Clone, Debug)]
pub struct CvOutcome {
    /// Final color per node: 0, 1 or 2.
    pub colors: Vec<Option<u8>>,
    /// Rounds executed.
    pub rounds: u64,
}

/// The color: an identifier before the first reduction round, so it
/// needs the full width.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CvState {
    color: u64,
}

struct CvAlgo {
    /// Each node's parent port, [`NO_PARENT`] at a root, indexed by node.
    parent_ports: Vec<u32>,
    /// Rounds of bit reduction before the constant-color cleanup.
    reduce_rounds: u64,
}

/// The parent port of a root (no node has that many ports).
const NO_PARENT: u32 = u32::MAX;

impl CvAlgo {
    /// Each node of `forest` finds its parent's port once, by binary
    /// search in its own sorted neighbour slice of `topo`.
    fn new<T: Topology>(topo: &T, forest: &RootedForest, reduce_rounds: u64) -> Self {
        let mut parent_ports = vec![NO_PARENT; topo.index_space()];
        for v in topo.nodes() {
            debug_assert!(forest.contains(v));
            if let Some(p) = forest.parent(v) {
                let port = topo.neighbor_nodes(v).binary_search(&p);
                parent_ports[v.index()] =
                    narrow_u32(port.or_invariant("the parent is a neighbour"));
            }
        }
        CvAlgo { parent_ports, reduce_rounds }
    }
}

/// The synthetic parent color used by roots: differs from the own color at
/// bit 0.
fn root_parent_color(own: u64) -> u64 {
    own ^ 1
}

fn cv_step_color(own: u64, parent: u64) -> u64 {
    debug_assert_ne!(own, parent, "proper along parent edges");
    let diff = own ^ parent;
    let i = diff.trailing_zeros() as u64;
    2 * i + ((own >> i) & 1)
}

/// Number of bit-reduction rounds needed from `id_space` until all colors
/// are `< 6` (deterministic, computed identically by every node).
pub fn cv_reduce_rounds(id_space: u64) -> u64 {
    let mut bound = id_space.max(2);
    let mut rounds = 0u64;
    while bound > 6 {
        // New colors are < 2 * bits(bound).
        let bits = 64 - (bound - 1).leading_zeros() as u64;
        bound = 2 * bits;
        rounds += 1;
        debug_assert!(rounds < 64);
    }
    rounds
}

impl<T: Topology> SyncAlgorithm<T> for CvAlgo {
    type State = CvState;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<CvState> {
        Verdict::Active(CvState { color: ctx.topo.local_id(v) })
    }

    fn step(
        &self,
        _ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: CvState,
        prev: &Ports<'_, CvState>,
    ) -> Verdict<CvState> {
        let parent = Some(self.parent_ports[v.index()]).filter(|&p| p != NO_PARENT).map(widen_u32);
        if round <= self.reduce_rounds {
            // Bit-reduction rounds.
            let parent_color = match parent {
                Some(p) => prev.port(p).color,
                None => root_parent_color(own.color),
            };
            let c = cv_step_color(own.color, parent_color);
            return Verdict::Active(CvState { color: c });
        }
        // Cleanup: three iterations of (shift-down, remove one color). The
        // shift-down makes every node's children monochromatic, so when a
        // color class is removed each member sees at most two forbidden
        // colors (parent + common child color) and finds a free color in
        // {0, 1, 2}. A plain class-by-class sweep without the interleaved
        // shift-downs would be incorrect: removing one class breaks the
        // monochromatic-children invariant for the next.
        let cleanup = round - self.reduce_rounds - 1; // 0-based cleanup index
        let iteration = cleanup / 2;
        let is_shift = cleanup.is_multiple_of(2);
        let state = if is_shift {
            // Shift-down: adopt the parent's (pre-shift) color; roots pick
            // the smallest color in {0,1,2} different from their own.
            let c = match parent {
                Some(p) => prev.port(p).color,
                None => (0..3).find(|&c| c != own.color).or_invariant("three candidates"),
            };
            CvState { color: c }
        } else {
            let target = 5 - iteration;
            if own.color == target {
                // Forbidden: parent's current color and the children's
                // common current color (children are monochromatic after
                // shift-down, so the first child port speaks for all).
                let parent_color = parent.map(|p| prev.port(p).color);
                let child_color =
                    (0..prev.len()).find(|&q| Some(q) != parent).map(|q| prev.port(q).color);
                let c = (0..3u64)
                    .find(|&c| parent_color != Some(c) && child_color != Some(c))
                    .or_invariant("a free color exists");
                CvState { color: c }
            } else {
                own
            }
        };
        if !is_shift && iteration == 2 {
            Verdict::Halted(state)
        } else {
            Verdict::Active(state)
        }
    }
}

/// 3-colors a rooted forest whose parent edges are part of `ctx.topo`'s
/// adjacency. Every member of the forest must be a participant of the
/// topology and vice versa.
pub fn three_color_rooted<T: Topology + Sync>(
    ctx: &Ctx<'_, T>,
    forest: &RootedForest,
) -> CvOutcome {
    let reduce_rounds = cv_reduce_rounds(ctx.id_space);
    let algo = CvAlgo::new(ctx.topo, forest, reduce_rounds);
    let out = run(ctx, &algo, reduce_rounds + 8);
    CvOutcome {
        colors: out
            .states()
            .map(|s| {
                s.map(|st| {
                    debug_assert!(st.color < 3);
                    st.color as u8
                })
            })
            .collect(),
        rounds: out.rounds,
    }
}

/// Checks properness along parent edges (test helper).
pub fn is_proper_on_forest(forest: &RootedForest, colors: &[Option<u8>]) -> bool {
    forest.members().all(|v| match forest.parent(v) {
        Some(p) => colors[v.index()] != colors[p.index()],
        None => colors[v.index()].is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_gen::{random_tree, relabel, IdStrategy};
    use treelocal_graph::{root_forest, Graph};
    use treelocal_sim::log_star_u64;

    fn check(g: &Graph) {
        let forest = root_forest(g);
        let ctx = Ctx::of(g);
        let out = three_color_rooted(&ctx, &forest);
        assert!(is_proper_on_forest(&forest, &out.colors), "improper");
        for v in g.node_ids() {
            assert!(out.colors[v.index()].unwrap() < 3);
        }
    }

    #[test]
    fn engines_agree_on_the_cross_check_trees() {
        for g in treelocal_gen::cross_check_trees() {
            let forest = root_forest(&g);
            let ctx = Ctx::of(&g);
            let reduce_rounds = cv_reduce_rounds(ctx.id_space);
            let algo = CvAlgo::new(&g, &forest, reduce_rounds);
            crate::assert_engines_agree(&ctx, &algo, reduce_rounds + 8);
        }
    }

    #[test]
    fn three_colors_paths_and_trees() {
        check(&Graph::from_edges(2, &[(0, 1)]).unwrap());
        check(&Graph::from_edges(20, &(0..19).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap());
        for seed in 0..5 {
            check(&random_tree(100, seed));
        }
    }

    #[test]
    fn works_with_adversarial_ids() {
        for strat in [
            IdStrategy::Alternating,
            IdStrategy::Sparse { seed: 1 },
            IdStrategy::Permuted { seed: 2 },
        ] {
            let g = relabel(&random_tree(64, 9), strat);
            check(&g);
        }
    }

    #[test]
    fn round_count_is_log_star_like() {
        let g = random_tree(1000, 4);
        let forest = root_forest(&g);
        let ctx = Ctx::of(&g);
        let out = three_color_rooted(&ctx, &forest);
        // reduce rounds + shift-down + 3 cleanup rounds; generous bound in
        // terms of log*.
        let bound = u64::from(log_star_u64(ctx.id_space)) * 3 + 10;
        assert!(out.rounds <= bound, "rounds {} > {bound}", out.rounds);
    }

    #[test]
    fn forest_of_components() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        check(&g);
    }

    #[test]
    fn cv_step_preserves_parent_properness() {
        // Exhaustive check on small color pairs.
        for own in 0..64u64 {
            for parent in 0..64u64 {
                if own == parent {
                    continue;
                }
                let c_own = cv_step_color(own, parent);
                // The parent itself steps with ITS parent; properness is
                // guaranteed against any parent's next color computed from a
                // pair differing from (own, parent) at the chosen bit.
                // Spot-check the classical invariant: if both map to the
                // same new color, their chosen bit positions and bit values
                // agree, contradicting the difference at that position.
                for grandparent in 0..16u64 {
                    if grandparent == parent {
                        continue;
                    }
                    let c_parent = cv_step_color(parent, grandparent);
                    if c_own == c_parent {
                        let i = c_own / 2;
                        let b = c_own % 2;
                        assert_eq!((own >> i) & 1, b);
                        assert_eq!((parent >> i) & 1, b);
                        // own and parent differ at bit i by construction.
                        let diff = own ^ parent;
                        assert_ne!(diff.trailing_zeros() as u64, i);
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_round_counts() {
        assert_eq!(cv_reduce_rounds(6), 0);
        assert!(cv_reduce_rounds(1 << 20) <= 4);
        assert!(cv_reduce_rounds(u64::MAX) <= 6);
        assert!(cv_reduce_rounds(u64::MAX) >= cv_reduce_rounds(1 << 20));
    }
}
