//! Parallel-vs-sequential equivalence: the whole point of the `parallel`
//! feature is that it changes wall-clock, never results. For every pool
//! size — 1 (forced sequential), 2, 4, and the machine's auto size — the
//! snapshot engine must produce **byte-identical** outcomes: same final
//! state of every node and same round count. The trees are sized above the
//! engine's parallel threshold so the pool path genuinely executes, and
//! the state type folds neighbor values order-sensitively so any
//! double-stepping, reordering, or torn-commit bug changes the answer.

#![cfg(feature = "parallel")]

use treelocal_graph::{NodeId, Topology};
use treelocal_sim::{
    par, run, run_with_threads, Ctx, RunOutcome, Snapshot, StateCodec, SyncAlgorithm, Verdict,
};

/// Accumulates an order-sensitive hash of neighbor states each round;
/// nodes halt at staggered rounds driven by their identifier, so the
/// frontier shrinks irregularly (the hard case for frontier bookkeeping).
struct StaggeredHash;

#[derive(Clone, Debug, PartialEq, Eq)]
struct HashState {
    value: u64,
    acc: u64,
}

/// `[value, acc]` u64 lanes.
impl StateCodec for HashState {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 2;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = self.value;
        lanes64[1] = self.acc;
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        HashState { value: lanes64[0], acc: lanes64[1] }
    }
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
        prev: &Snapshot<'_, HashState>,
    ) -> Verdict<HashState> {
        let mut acc = own.acc;
        for &w in ctx.topo.neighbor_nodes(v) {
            let s = prev.get(w);
            acc = acc.wrapping_mul(0x100000001b3).wrapping_add(s.value ^ s.acc);
        }
        let value = own.value.wrapping_mul(6364136223846793005).wrapping_add(acc | 1);
        let next = HashState { value, acc };
        if round >= 3 + ctx.topo.local_id(v) % 7 {
            Verdict::Halted(next)
        } else {
            Verdict::Active(next)
        }
    }
}

fn assert_identical(a: &RunOutcome<HashState>, b: &RunOutcome<HashState>, label: &str) {
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
        let sequential = run_with_threads(&ctx, &StaggeredHash, 100, 1);
        for threads in [2usize, 4, par::auto_threads()] {
            let parallel = run_with_threads(&ctx, &StaggeredHash, 100, threads);
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
        let sequential = run_with_threads(&ctx, &StaggeredHash, 100, 1);
        for threads in [2usize, 3, 8] {
            let parallel = run_with_threads(&ctx, &StaggeredHash, 100, threads);
            assert_identical(&sequential, &parallel, &format!("{label}, {threads} threads"));
        }
    }
}
