//! The synchronous execution engine.
//!
//! Definition 5 of the paper: in each round every node sends messages of
//! arbitrary size to its neighbors, receives theirs, and computes. Because
//! message size is unbounded, exchanging full local state is equivalent to
//! arbitrary messaging; the engine therefore models a round as "every node
//! reads the previous-round state of each neighbor, port by port, and
//! computes a new state". Round counts are exactly those of a real
//! deployment of the same algorithm, and [`run_messages`](crate::run_messages)
//! runs the same algorithm with the states sent as messages.

use crate::{exec_core::ExecCore, Ports, RunOutcome};
use treelocal_graph::{NodeId, Topology};

/// Everything a node is allowed to know globally (Definition 5): the number
/// of nodes `n`, the identifier space, and the maximum degree.
#[derive(Clone, Debug)]
pub struct Ctx<'t, T> {
    /// The communication topology the algorithm runs on.
    pub topo: &'t T,
    /// The number of nodes of the *original* instance (nodes of a restricted
    /// semi-graph still know the global `n`).
    pub n: usize,
    /// Exclusive upper bound on LOCAL identifiers (the `n^c` of the model).
    pub id_space: u64,
    /// The maximum degree the algorithm may assume (`Δ` of the instance the
    /// algorithm is invoked on).
    pub max_degree: usize,
}

impl<'t, T: Topology> Ctx<'t, T> {
    /// A context with parameters taken directly from the topology.
    pub fn of(topo: &'t T) -> Self {
        Ctx {
            topo,
            n: topo.nodes().len(),
            id_space: topo.graph().id_space(),
            max_degree: topo.max_degree(),
        }
    }

    /// A context for running on a restriction of an instance with `n_global`
    /// nodes and the given identifier space.
    pub fn restricted(topo: &'t T, n_global: usize, id_space: u64) -> Self {
        Ctx { topo, n: n_global, id_space, max_degree: topo.max_degree() }
    }
}

/// A node's decision: keep running, fix the output and stop, or (at
/// seeding only) sleep until a known round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict<S> {
    /// Continue with the given state: the node steps in the next round.
    Active(S),
    /// Terminate with the given (final) state. The state stays visible to
    /// neighbors for the remainder of the execution.
    Halted(S),
    /// Sleep with the given state until the given round, which is the
    /// node's first step. A sleeping node is not stepped, its state stays
    /// visible to neighbors, and it still counts as running. Only a seed
    /// verdict ([`SyncAlgorithm::init`]) may sleep; a step that returns
    /// it fails the run's sleep-at-seed invariant in every profile.
    SleepUntil(S, u64),
}

/// A deterministic synchronous LOCAL algorithm as a per-node state machine.
///
/// `init` is evaluated before any communication (round 0); each `step`
/// consumes exactly one communication round, in which the node observes the
/// previous-round states of its topology neighbors through [`Ports`]: port
/// `p` is `ctx.topo.neighbor_nodes(v)[p]`. No read names a node, so a step
/// cannot see past its neighbours. States are plain `Copy` values in one
/// column, so `own` arrives **by value** and port reads copy by value too.
pub trait SyncAlgorithm<T: Topology> {
    /// Per-node state; its full content is what neighbors can read, and
    /// what the message engine sends (LOCAL messages are unbounded). Its
    /// `Default` fills the slots no node has written yet, and pooled
    /// rounds share the state column across workers.
    type State: Copy + Default + Send + Sync;

    /// The state of `v` before any communication happened.
    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<Self::State>;

    /// One synchronous round at node `v`.
    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: Self::State,
        prev: &Ports<'_, Self::State>,
    ) -> Verdict<Self::State>;
}

/// Runs `algo` on `ctx.topo` until every node halts.
///
/// Built on the execution core both engines share: each round steps only
/// the awake nodes, halted and sleeping states are frozen in place, and
/// commit happens after every awake node has read the previous round —
/// exactly the synchronous semantics of Definition 5. A node seeded
/// [`Verdict::SleepUntil`] is first stepped in its wake round.
///
/// Large frontiers are stepped on the vendored rayon pool, sized by
/// [`crate::par::auto_threads`] (scope an explicit size with
/// [`crate::par::with_threads`]; the `TREELOCAL_THREADS` environment
/// variable sets the default, clamped to the machine). Outcomes and round
/// counts are byte-identical for every pool size — pinned by
/// `tests/parallel_equiv.rs`.
///
/// # Panics
///
/// Panics if the algorithm has not fully halted after `max_rounds` rounds —
/// a deterministic LOCAL algorithm that exceeds a generous round budget is a
/// bug, not a runtime condition.
pub fn run<'t, T, A>(ctx: &Ctx<'t, T>, algo: &A, max_rounds: u64) -> RunOutcome<'t, T, A::State>
where
    T: Topology + Sync,
    A: SyncAlgorithm<T> + Sync,
{
    drain(ctx, algo, max_rounds, seeded_core(ctx, algo))
}

/// A core with every node of `ctx.topo` seeded by `algo.init`.
pub(crate) fn seeded_core<T, A>(ctx: &Ctx<'_, T>, algo: &A) -> ExecCore<A::State>
where
    T: Topology,
    A: SyncAlgorithm<T>,
{
    let mut core = ExecCore::new(ctx.topo.index_space());
    for v in ctx.topo.nodes() {
        core.seed(v, algo.init(ctx, v));
    }
    core
}

/// Steps `core` round by round until every node has halted: the one run
/// loop of both engines.
pub(crate) fn drain<'t, T, A>(
    ctx: &Ctx<'t, T>,
    algo: &A,
    max_rounds: u64,
    mut core: ExecCore<A::State>,
) -> RunOutcome<'t, T, A::State>
where
    T: Topology + Sync,
    A: SyncAlgorithm<T> + Sync,
{
    let threads = crate::par::auto_threads();
    while !core.is_done() {
        let round = core.begin_round(max_rounds);
        core.step(threads, ctx.topo, |v, own, ports| algo.step(ctx, v, round, own, ports));
    }
    core.finish(ctx.topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::{widen_u64, Graph};

    /// Every node computes its eccentricity-capped hop distance from the
    /// minimum-id node by flooding.
    struct Flood;

    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Dist(Option<u64>);

    impl<T: Topology> SyncAlgorithm<T> for Flood {
        type State = Dist;

        fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<Dist> {
            let my = ctx.topo.local_id(v);
            let is_min = ctx.topo.nodes().all(|w| ctx.topo.local_id(w) >= my);
            // Knowing the global minimum id is NOT something a LOCAL node can
            // do; this test algorithm only uses it because ids are index+1
            // here, making node 0 the source. Fine for engine testing.
            if is_min {
                Verdict::Active(Dist(Some(0)))
            } else {
                Verdict::Active(Dist(None))
            }
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
            match best {
                Some(d) => Verdict::Active(Dist(Some(d + 1))),
                None => Verdict::Active(Dist(None)),
            }
        }
    }

    #[test]
    fn flood_on_path_counts_rounds() {
        let g = Graph::from_edges(5, &(0..4).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
        let ctx = Ctx::of(&g);
        let out = run(&ctx, &Flood, 100);
        for i in 0..5 {
            assert_eq!(out.state(NodeId::new(i)).0, Some(widen_u64(i)));
        }
        // The farthest node learns its distance in round 4 and halts in
        // round 5.
        assert_eq!(out.rounds, 5);
    }

    #[test]
    fn zero_round_algorithm() {
        struct Instant;
        impl<T: Topology> SyncAlgorithm<T> for Instant {
            type State = u64;
            fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
                Verdict::Halted(ctx.topo.local_id(v))
            }
            fn step(
                &self,
                _: &Ctx<T>,
                _: NodeId,
                _: u64,
                s: u64,
                _: &Ports<'_, u64>,
            ) -> Verdict<u64> {
                Verdict::Halted(s)
            }
        }
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        let out = run(&ctx, &Instant, 10);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.state(NodeId::new(2)), 3);
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn runaway_algorithm_is_detected() {
        struct Forever;
        impl<T: Topology> SyncAlgorithm<T> for Forever {
            type State = u32;
            fn init(&self, _: &Ctx<T>, _: NodeId) -> Verdict<u32> {
                Verdict::Active(0)
            }
            fn step(
                &self,
                _: &Ctx<T>,
                _: NodeId,
                _: u64,
                s: u32,
                _: &Ports<'_, u32>,
            ) -> Verdict<u32> {
                Verdict::Active(s)
            }
        }
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let ctx = Ctx::of(&g);
        let _ = run(&ctx, &Forever, 5);
    }

    #[test]
    fn empty_topology_runs_zero_rounds() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let ctx = Ctx::of(&g);
        let out = run(&ctx, &Flood, 10);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.states().len(), 0);
    }
}
