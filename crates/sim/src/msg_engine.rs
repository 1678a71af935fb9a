//! The literal Definition 5 engine: explicit per-round messages through
//! numbered ports.
//!
//! The snapshot engine ([`run`](crate::run)) lets a step read its
//! neighbours' previous-round states in place. That is message passing
//! because LOCAL messages have unbounded size: a node may as well send its
//! whole state. This module sends it: [`run_messages`] runs **any**
//! [`SyncAlgorithm`] with every state delivered as a message, so the
//! equivalence is a tested fact, not an assumption. Every production
//! algorithm is cross-checked under both engines next to its own code.
//!
//! A message is the state. The inbox holds one state per `(recipient,
//! port)` slot, and [`Router`], keyed by node index like every other
//! engine table, routes a sender's port `p` to the slot of the neighbour
//! behind it in O(1):
//!
//! * at seeding, every participant delivers its seeded state, halted
//!   nodes and sleepers included;
//! * after each commit, every node that stepped delivers its new state;
//! * a state goes only to recipients still running: a halted node never
//!   reads its inbox again, so writing into it would be pure waste
//!   (pinned by `halted_recipients_inboxes_are_never_touched`);
//! * slots are never cleared, so a sleeper's or a halted node's port keeps
//!   showing its frozen state, exactly as its own slot stays frozen in
//!   place for the snapshot engine.
//!
//! The receive phase is the execution core's one round path, the
//! snapshot engine's own, with each node's [`Ports`] reading its inbox
//! slots. It runs on the pool; delivery copies states sequentially in
//! awake order, so outcomes are byte-identical for every pool size.

use crate::engine::{drain, seeded_core, Ctx, SyncAlgorithm};
use crate::exec_core::RUNNING;
use crate::{Ports, RunOutcome};
use treelocal_graph::{narrow_u32, widen_u32, NodeId, Topology};

/// Flat routing tables and inboxes for one message run, in the same CSR
/// shape as the graph's adjacency and keyed by node index like every other
/// engine table.
///
/// `offsets[v]..offsets[v + 1]` delimits node `v`'s port range in both
/// flat arrays (`offsets` spans the index space plus one; a
/// non-participant's range is empty): `slots` holds the inbox state per port
/// and `back_port[offsets[v] + p]` is the port of the neighbor behind
/// `v`'s port `p` that leads back to `v`. Routing is pure offset
/// arithmetic over contiguous memory.
#[derive(Debug)]
pub(crate) struct Router<S> {
    offsets: Vec<u32>,
    back_port: Vec<u32>,
    slots: Vec<S>,
}

impl<S: Copy + Default> Router<S> {
    /// Builds every routing table in **one pass** over the adjacency.
    ///
    /// Each participant appends its prefix-sum offset and its back ports
    /// as it streams by; the reverse port of `v`'s port `p` towards `w` is
    /// found by binary search in `w`'s sorted neighbor slice, so the whole
    /// build is O(index space + Σ deg · log Δ) with no edge-space
    /// transients (pinned by `high_degree_star_setup_is_linear`).
    pub(crate) fn new<T: Topology>(topo: &T) -> Self {
        let mut offsets: Vec<u32> = vec![0];
        let mut back_port: Vec<u32> = Vec::new();
        for v in topo.nodes() {
            // Checked in every profile: out of order, `resize` cuts ranges.
            assert!(
                offsets.len() <= v.index() + 1,
                "topologies enumerate nodes in ascending index order"
            );
            // Every skipped index below `v` is a non-participant: empty range.
            offsets.resize(v.index() + 1, narrow_u32(back_port.len()));
            for &w in topo.neighbor_nodes(v) {
                // Checked in every profile: a neighbor that does not list us
                // back means the topology's adjacency is not symmetric, and
                // routing through it would deliver messages to arbitrary
                // ports.
                let q = topo.neighbor_nodes(w).binary_search(&v).unwrap_or_else(|_| {
                    // lint:allow(no-panic-in-lib): invariant check with no
                    // meaningful port to return.
                    panic!(
                        "no port of {w:?} leads back to {v:?} \
                         (adjacency must be symmetric: commit-order invariant of the router)"
                    )
                });
                back_port.push(narrow_u32(q));
            }
            offsets.push(narrow_u32(back_port.len()));
        }
        offsets.resize(topo.index_space() + 1, narrow_u32(back_port.len()));
        let slots = vec![S::default(); back_port.len()];
        Router { offsets, back_port, slots }
    }

    /// The flat slot range of node `v`'s inbox (and of its back-port row).
    #[inline]
    fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        widen_u32(self.offsets[v.index()])..widen_u32(self.offsets[v.index() + 1])
    }

    /// Node `v`'s inbox, one delivered state per port.
    pub(crate) fn ports(&self, v: NodeId) -> Ports<'_, S> {
        Ports::inbox(&self.slots[self.range(v)])
    }

    /// Delivers the states of `senders` in `states` to every neighbour still
    /// [`RUNNING`] in the lifecycle column `life`, each into the slot of the
    /// port that leads back to its sender. Each slot belongs to one
    /// `(recipient, port)` pair with a unique sender, so the result does
    /// not depend on the sender order.
    pub(crate) fn deliver<T: Topology>(
        &mut self,
        topo: &T,
        senders: impl Iterator<Item = NodeId>,
        states: &[S],
        life: &[u32],
    ) {
        for u in senders {
            let out = self.range(u);
            for (p, &w) in topo.neighbor_nodes(u).iter().enumerate() {
                if life[w.index()] == RUNNING {
                    let slot = self.range(w).start + widen_u32(self.back_port[out.start + p]);
                    self.slots[slot] = states[u.index()];
                }
            }
        }
    }
}

/// Runs `algo` with explicit messages until every node halts: the same
/// seeding, rounds and commits as [`run`](crate::run), with every state a
/// step reads delivered to it as a message through its ports. Outcomes
/// and round counts equal [`run`](crate::run)'s for every algorithm — the
/// cross-checks next to each production algorithm pin this.
///
/// The receive phase runs on the vendored rayon pool, sized by
/// [`crate::par::auto_threads`] (scope an explicit size with
/// [`crate::par::with_threads`]). Outcomes, round counts and work counters
/// are byte-identical for every pool size — pinned by
/// `tests/msg_parallel_equiv.rs` and `tests/msg_counters.rs`.
///
/// # Panics
///
/// Panics if the algorithm exceeds `max_rounds`, or if the topology's
/// adjacency is not symmetric.
pub fn run_messages<'t, T, A>(
    ctx: &Ctx<'t, T>,
    algo: &A,
    max_rounds: u64,
) -> RunOutcome<'t, T, A::State>
where
    T: Topology + Sync,
    A: SyncAlgorithm<T> + Sync,
{
    let mut core = seeded_core(ctx, algo);
    core.route_messages(ctx.topo);
    drain(ctx, algo, max_rounds, core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, Verdict};
    use treelocal_graph::{Graph, OrInvariant};

    /// Every node computes the maximum identifier within distance `R`.
    const R: u64 = 4;

    struct MaxId;

    impl<T: Topology> SyncAlgorithm<T> for MaxId {
        type State = u64;

        fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
            Verdict::Active(ctx.topo.local_id(v))
        }

        fn step(
            &self,
            _ctx: &Ctx<T>,
            _v: NodeId,
            round: u64,
            own: u64,
            prev: &Ports<'_, u64>,
        ) -> Verdict<u64> {
            let best = prev.iter().fold(own, u64::max);
            if round == R {
                Verdict::Halted(best)
            } else {
                Verdict::Active(best)
            }
        }
    }

    #[test]
    fn engines_agree_on_outputs_and_rounds() {
        for seed in 0..5 {
            let g = treelocal_gen::relabel(
                &treelocal_gen::random_tree(80, seed),
                treelocal_gen::IdStrategy::Permuted { seed },
            );
            let ctx = Ctx::of(&g);
            let via_msgs = run_messages(&ctx, &MaxId, 100);
            let via_state = run(&ctx, &MaxId, 100);
            assert_eq!(via_msgs.rounds, via_state.rounds);
            assert!(via_msgs.states().eq(via_state.states()));
        }
    }

    #[test]
    fn back_ports_match_the_position_scan() {
        // The binary-search construction must agree with the definition
        // (the port of w that leads back to v) on every shape, including
        // semi-graph restrictions.
        for seed in 0..6u64 {
            let g = treelocal_gen::random_tree(
                60 + 10 * usize::try_from(seed).or_invariant("small seed"),
                seed,
            );
            let s = treelocal_graph::SemiGraph::induced_by_nodes(&g, |v| v.index() % 4 != 1);
            check_back_ports(&g);
            check_back_ports(&s);
        }
        check_back_ports(&treelocal_gen::star(50));
    }

    fn check_back_ports<T: Topology>(topo: &T) {
        let router: Router<u32> = Router::new(topo);
        for v in topo.nodes() {
            let back = &router.back_port[router.range(v)];
            for (p, &w) in topo.neighbor_nodes(v).iter().enumerate() {
                let expect = topo
                    .neighbor_nodes(w)
                    .iter()
                    .position(|&x| x == v)
                    .expect("adjacency is symmetric");
                assert_eq!(widen_u32(back[p]), expect, "{v:?} port {p}");
            }
        }
    }

    #[test]
    fn router_tables_are_keyed_by_node_index() {
        // A sparse restriction: offsets span the whole index space, every
        // non-participant's range is empty, and the participants' ranges
        // tile `back_port` in node order.
        let g = treelocal_gen::random_tree(200, 4);
        let s = treelocal_graph::SemiGraph::induced_by_nodes(&g, |v| v.index() % 5 == 0);
        assert!(s.nodes().len() < s.index_space(), "restriction must be sparse for this test");
        let router: Router<u32> = Router::new(&s);
        assert_eq!(router.offsets.len(), s.index_space() + 1);
        let mut end = 0;
        for v in g.node_ids() {
            let range = router.range(v);
            if s.contains_node(v) {
                assert_eq!(range.start, end, "{v:?} starts where the previous range ended");
                assert_eq!(range.len(), s.degree(v), "{v:?} has one slot per port");
                end = range.end;
            } else {
                assert!(range.is_empty(), "non-participant {v:?} owns slots {range:?}");
            }
        }
        assert_eq!(end, router.back_port.len(), "the ranges cover every back port");
    }

    #[test]
    // Wall-clock budget check on an asymptotic regression: the one test
    // that legitimately reads Instant outside bench.
    #[allow(clippy::disallowed_methods)]
    fn high_degree_star_setup_is_linear() {
        // Regression for the quadratic back-port construction: the old
        // per-port `position()` scan did ~Δ²/2 ≈ 5·10⁹ comparisons on this
        // star before round 1 (minutes in a debug build). The O(m) build
        // plus the engine's rounds complete far inside a generous budget.
        let g = treelocal_gen::star(100_000);
        let ctx = Ctx::of(&g);
        let started = std::time::Instant::now();
        let out = run_messages(&ctx, &MaxId, 10);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "run_messages setup must be O(m), took {:?}",
            started.elapsed()
        );
        assert_eq!(out.rounds, R);
        // Every node is within two hops of the centre, which heard every
        // leaf, so every node holds the maximum id.
        assert!(out.states().all(|s| s == Some(100_000)));
    }

    #[test]
    fn halted_recipients_inboxes_are_never_touched() {
        // Drives the real delivery code over several rounds on the path
        // 0 - 1 - 2 with node 0 halted: its inbox keeps its frozen
        // contents bit for bit, while running recipients keep receiving.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        // Node 0 halted at seeding (entry 1); nodes 1 and 2 run.
        let life = [1, RUNNING, RUNNING];
        let mut rows = [7u64, 0, 0];
        let mut router: Router<u64> = Router::new(&g);
        let (n0, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let frozen = router.range(n0).start;
        router.slots[frozen] = 99;
        // Seeding: every participant sends, node 0 included.
        router.deliver(&g, g.node_ids(), &rows, &life);
        for round in 1..=3u64 {
            rows[1] = 40 + round;
            rows[2] = 50 + round;
            router.deliver(&g, [n1, n2].into_iter(), &rows, &life);
            let inbox = |v| router.ports(v).iter().collect::<Vec<u64>>();
            assert_eq!(inbox(n0), [99], "round {round}: halted inbox mutated");
            assert_eq!(inbox(n1), [7, 50 + round], "round {round}");
            assert_eq!(inbox(n2), [40 + round], "round {round}");
        }
    }

    #[test]
    fn works_on_semigraph_restrictions() {
        let g = treelocal_gen::random_tree(40, 3);
        let s = treelocal_graph::SemiGraph::induced_by_nodes(&g, |v| v.index() % 3 != 0);
        let ctx = Ctx::restricted(&s, g.node_count(), g.id_space());
        let out = run_messages(&ctx, &MaxId, 100);
        assert_eq!(out.rounds, R);
        assert!(out.states().eq(run(&ctx, &MaxId, 100).states()));
        for &v in s.nodes() {
            assert!(out.try_state(v).is_some());
        }
    }

    /// A topology whose adjacency is deliberately one-sided: node 0 lists
    /// node 1 as a neighbor, node 1 lists nobody. Exercises the router's
    /// symmetry invariant, which holds in *every* build profile (this
    /// suite also runs under `--release` in CI).
    struct Asymmetric {
        g: Graph,
        nodes: Vec<NodeId>,
        empty_nodes: Vec<NodeId>,
        empty_edges: Vec<treelocal_graph::EdgeId>,
    }

    impl Topology for Asymmetric {
        fn graph(&self) -> &Graph {
            &self.g
        }

        fn nodes(&self) -> treelocal_graph::NodeIter<'_> {
            treelocal_graph::NodeIter::Slice(self.nodes.iter().copied())
        }

        fn contains_node(&self, v: NodeId) -> bool {
            self.nodes.contains(&v)
        }

        fn neighbor_nodes(&self, v: NodeId) -> &[NodeId] {
            if v.index() == 0 {
                self.g.neighbor_nodes(v)
            } else {
                &self.empty_nodes
            }
        }

        fn neighbor_edges(&self, v: NodeId) -> &[treelocal_graph::EdgeId] {
            if v.index() == 0 {
                self.g.neighbor_edges(v)
            } else {
                &self.empty_edges
            }
        }

        fn max_degree(&self) -> usize {
            1
        }
    }

    #[test]
    #[should_panic(expected = "adjacency must be symmetric")]
    fn asymmetric_adjacency_is_rejected_in_every_profile() {
        let g = Graph::from_edges(2, &[(0, 1)]).or_invariant("valid two-node path");
        let topo = Asymmetric {
            g,
            nodes: vec![NodeId::new(0), NodeId::new(1)],
            empty_nodes: Vec::new(),
            empty_edges: Vec::new(),
        };
        let _ = Router::<u32>::new(&topo);
    }
}
