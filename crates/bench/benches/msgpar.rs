//! Criterion smoke for the Definition 5 message engine: the same Linial
//! color reduction driven through the snapshot engine (`run`) and through
//! the literal message-passing engine (`run_messages`), on the workload
//! shapes the experiments use.
//!
//! On large frontiers both phases of a message round run on the pool (send
//! buckets merged in frontier order, receive via the shared pooled
//! stepping path); `TREELOCAL_THREADS=1` times the inline engine. Outcomes
//! are byte-identical either way, which the bench asserts before timing.
//! `BENCH_msgpar.json` records a pinned run of both modes; see its note
//! for host caveats.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelocal_algos::{run_linial, run_linial_messages};
use treelocal_gen::{caterpillar, random_tree};
use treelocal_sim::Ctx;

fn bench_linial_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("msg_engine");
    for (label, g) in
        [("prufer_100k", random_tree(100_000, 11)), ("caterpillar_100k", caterpillar(50_000, 1))]
    {
        let ctx = Ctx::of(&g);
        // Engine parity is a precondition of timing them against each
        // other; `crates/sim/tests/msg_parallel_equiv.rs` pins it per pool
        // size, this assert keeps the bench itself honest.
        let snap = run_linial(&ctx);
        let msgs = run_linial_messages(&ctx);
        assert_eq!(snap.colors, msgs.colors, "engines must agree before timing");
        assert_eq!(snap.rounds, msgs.rounds);
        group.bench_with_input(BenchmarkId::new("snapshot_linial", label), &ctx, |b, ctx| {
            b.iter(|| run_linial(ctx))
        });
        group.bench_with_input(BenchmarkId::new("messages_linial", label), &ctx, |b, ctx| {
            b.iter(|| run_linial_messages(ctx))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_linial_engines);
criterion_main!(benches);
