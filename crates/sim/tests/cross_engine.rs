//! Cross-engine equivalence: one algorithm, run by the snapshot engine and
//! by the message engine, must produce identical outputs AND identical
//! round counts.
//!
//! Both engines share one execution core, so this
//! property pins the equivalence of the two ways a step's ports are filled
//! (neighbour states read in place vs. states delivered into an inbox) on top
//! of a single run loop. The workload is distance flooding from the
//! minimum-identifier node — halting is staggered across the whole
//! execution, so frontier bookkeeping is exercised on every round. Every
//! production algorithm has the same cross-check next to its own code.

use treelocal_gen::cross_check_trees;
use treelocal_graph::{NodeId, Topology};
use treelocal_sim::{run, run_messages, Ctx, Ports, SyncAlgorithm, Verdict};

/// Hop distance from the minimum-id node; a node halts the round after it
/// learns its distance (so the round count equals eccentricity + 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Dist(Option<u64>);

struct Flood;

impl<T: Topology> SyncAlgorithm<T> for Flood {
    type State = Dist;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<Dist> {
        let my = ctx.topo.local_id(v);
        let is_min = ctx.topo.nodes().all(|w| ctx.topo.local_id(w) >= my);
        Verdict::Active(Dist(if is_min { Some(0) } else { None }))
    }

    fn step(
        &self,
        _ctx: &Ctx<T>,
        _v: NodeId,
        _round: u64,
        own: Dist,
        prev: &Ports<'_, Dist>,
    ) -> Verdict<Dist> {
        if own.0.is_some() {
            return Verdict::Halted(own);
        }
        let best = prev.iter().filter_map(|d| d.0).min();
        Verdict::Active(Dist(best.map(|d| d + 1)))
    }
}

#[test]
fn engines_agree_on_fifty_plus_random_prufer_trees() {
    let mut checked = 0usize;
    for (i, g) in cross_check_trees().enumerate() {
        let ctx = Ctx::of(&g);
        let via_state = run(&ctx, &Flood, 10_000);
        let via_msgs = run_messages(&ctx, &Flood, 10_000);
        let n = g.node_count();
        assert_eq!(via_state.rounds, via_msgs.rounds, "round counts diverge on tree {i} (n = {n})");
        assert!(via_state.states().eq(via_msgs.states()), "outputs diverge on tree {i} (n = {n})");
        // Sanity: every node learned a finite distance.
        assert!(g.node_ids().all(|v| via_state.state(v).0.is_some()));
        checked += 1;
    }
    assert!(checked >= 1_442 + 50, "property must cover every small tree and 50 random ones");
}
