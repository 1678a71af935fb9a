//! Parallel-vs-sequential equivalence: the pool size changes wall-clock,
//! never results. For every pool size — 1 (forced sequential), 2, 4, and the machine's auto size — the
//! snapshot engine must produce **byte-identical** outcomes: same final
//! state of every node and same round count. The trees are sized above the
//! engine's parallel threshold so the pool path genuinely executes, and
//! the state type folds neighbor values order-sensitively so any
//! double-stepping, reordering, or torn-commit bug changes the answer.

use treelocal_graph::{Graph, NodeId, Topology};
use treelocal_sim::{par, run, Ctx, Ports, RunOutcome, SyncAlgorithm, Verdict};

/// Accumulates an order-sensitive hash of neighbor states each round;
/// nodes halt at staggered rounds driven by their identifier, so the
/// frontier shrinks irregularly (the hard case for frontier bookkeeping).
struct StaggeredHash;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct HashState {
    value: u64,
    acc: u64,
}

impl<T: Topology> SyncAlgorithm<T> for StaggeredHash {
    type State = HashState;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<HashState> {
        Verdict::Active(HashState { value: ctx.topo.local_id(v), acc: 0 })
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: HashState,
        prev: &Ports<'_, HashState>,
    ) -> Verdict<HashState> {
        let next = hash_neighbors(own, prev);
        if round >= 3 + ctx.topo.local_id(v) % 7 {
            Verdict::Halted(next)
        } else {
            Verdict::Active(next)
        }
    }
}

/// Folds the neighbors' previous-round states into `own`, in port order.
fn hash_neighbors(own: HashState, prev: &Ports<'_, HashState>) -> HashState {
    let mut acc = own.acc;
    for s in prev.iter() {
        acc = acc.wrapping_mul(0x100000001b3).wrapping_add(s.value ^ s.acc);
    }
    let value = own.value.wrapping_mul(6364136223846793005).wrapping_add(acc | 1);
    HashState { value, acc }
}

/// [`StaggeredHash`] with three in four nodes seeded asleep until round 1,
/// 2 or 3: awake nodes fold their sleeping neighbors' frozen states, woken
/// nodes join the awake list mid-run, and from round 3 every live node is
/// awake, so the pooled path runs on a list assembled from wake buckets.
struct StaggeredSleep;

impl<T: Topology> SyncAlgorithm<T> for StaggeredSleep {
    type State = HashState;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<HashState> {
        let id = ctx.topo.local_id(v);
        let state = HashState { value: id, acc: 0 };
        if id.is_multiple_of(4) {
            Verdict::Active(state)
        } else {
            Verdict::SleepUntil(state, 1 + id % 3)
        }
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: HashState,
        prev: &Ports<'_, HashState>,
    ) -> Verdict<HashState> {
        let next = hash_neighbors(own, prev);
        if round >= 4 + ctx.topo.local_id(v) % 5 {
            Verdict::Halted(next)
        } else {
            Verdict::Active(next)
        }
    }
}

fn assert_identical(
    a: &RunOutcome<'_, Graph, HashState>,
    b: &RunOutcome<'_, Graph, HashState>,
    label: &str,
) {
    assert_eq!(a.rounds, b.rounds, "round counts diverge: {label}");
    assert!(a.states().eq(b.states()), "states diverge: {label}");
}

#[test]
fn every_pool_size_matches_the_sequential_run() {
    for seed in 0..6u64 {
        let n = 1500 + 500 * usize::try_from(seed).unwrap(); // above the parallel threshold
        let tree = treelocal_gen::relabel(
            &treelocal_gen::random_tree(n, seed),
            treelocal_gen::IdStrategy::Permuted { seed },
        );
        let ctx = Ctx::of(&tree);
        let sequential = par::with_threads(1, || run(&ctx, &StaggeredHash, 100));
        for threads in [2usize, 4, par::auto_threads()] {
            let parallel = par::with_threads(threads, || run(&ctx, &StaggeredHash, 100));
            assert_identical(&sequential, &parallel, &format!("n {n}, {threads} threads"));
        }
        // `run` (auto-sized pool) is the path every pipeline takes.
        assert_identical(&sequential, &run(&ctx, &StaggeredHash, 100), "auto pool");
    }
}

#[test]
fn pool_size_does_not_leak_into_results_on_paths_and_stars() {
    // Degenerate shapes: a path (diameter n) and a star (one hub touching
    // every chunk boundary).
    for (label, tree) in [("path", treelocal_gen::path(2500)), ("star", treelocal_gen::star(2500))]
    {
        let ctx = Ctx::of(&tree);
        let sequential = par::with_threads(1, || run(&ctx, &StaggeredHash, 100));
        for threads in [2usize, 3, 8] {
            let parallel = par::with_threads(threads, || run(&ctx, &StaggeredHash, 100));
            assert_identical(&sequential, &parallel, &format!("{label}, {threads} threads"));
        }
    }
}

#[test]
fn sleeper_seeding_runs_match_the_sequential_run() {
    for seed in 0..3u64 {
        let n = 1500 + 1000 * usize::try_from(seed).unwrap(); // every node awake in round 3
        let tree = treelocal_gen::relabel(
            &treelocal_gen::random_tree(n, seed),
            treelocal_gen::IdStrategy::Permuted { seed },
        );
        let ctx = Ctx::of(&tree);
        let sequential = par::with_threads(1, || run(&ctx, &StaggeredSleep, 100));
        assert_eq!(sequential.rounds, 8);
        for threads in [2usize, 4] {
            let parallel = par::with_threads(threads, || run(&ctx, &StaggeredSleep, 100));
            assert_identical(&sequential, &parallel, &format!("n {n}, {threads} threads"));
        }
    }
}
