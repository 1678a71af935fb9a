//! One-hundred-million-node smoke tier (ROADMAP "Larger instances", 100M
//! half): the scale the streaming construction refactor opens.
//!
//! At `n = 10^8` the old build path was the wall: a materialized
//! `Vec<(usize, usize)>` edge list alone is ~1.6 GB of pure transient, and
//! the generator's own scratch rode on top. The streaming `EdgeSource`
//! path holds only the 8-byte endpoint records the finished graph keeps
//! anyway, the CSR fill is counting-sort into exactly-sized arrays, and
//! sequential LOCAL identifiers are arithmetic (no 800 MB id table), so a
//! caterpillar of one hundred million nodes now builds and Linial-colors
//! on one core inside a single-digit-GB budget — the CI job pins that
//! budget with `/usr/bin/time -v`.
//!
//! One instance, one algorithm: the Θ(n)-diameter caterpillar (the
//! instance where any non-local strategy pays ~50M rounds) colored by
//! Linial on the engine's flat lane columns. The heavier Theorem 12
//! pipeline stays at the 10M tier — this tier exists to pin construction memory and the
//! log* shape at the next decade of scale, not to re-run every suite.
//!
//! Release-only, `#[ignore]`d, and non-blocking in CI:
//!
//! ```sh
//! cargo test --release -p treelocal-sim --test smoke_100m -- --ignored
//! ```

use treelocal_algos::{is_proper, run_linial};
use treelocal_gen::caterpillar;
use treelocal_sim::{log_star_u64, Ctx};

const N: usize = 100_000_000;

/// The release-only guard: in a debug build this workload is a day of
/// wall clock, so the tier reports itself skipped instead of hanging a
/// developer who ran `cargo test -- --ignored` without `--release`.
fn skip_in_debug() -> bool {
    if cfg!(debug_assertions) {
        eprintln!("smoke_100m: skipped — build with --release (debug would take many hours)");
        return true;
    }
    false
}

/// Same two-phase peak-RSS instrumentation as the 10M tier (see
/// `large_smoke.rs`): the kernel high-water mark is reset between the
/// generation and engine phases so each logged reading covers one phase
/// alone, and the CI job greps both lines.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn report_peak(name: &str, mode: &str, phase: &str) {
    if let Some(kb) = peak_rss_kb() {
        eprintln!("{name}: linial {mode} {phase}-phase peak RSS {kb} kB");
    }
}

#[test]
#[ignore = "hundred-million-node release-only smoke: cargo test --release -p treelocal-sim --test smoke_100m -- --ignored"]
fn linial_on_a_hundred_million_node_caterpillar_stays_log_star() {
    if skip_in_debug() {
        return;
    }
    let name = "caterpillar/100M";
    reset_peak_rss();
    let tree = caterpillar(N / 4, 3);
    report_peak(name, "soa", "generation");
    assert_eq!(tree.node_count(), N, "{name}");

    let ctx = Ctx::of(&tree);
    reset_peak_rss();
    let lin = run_linial(&ctx);
    report_peak(name, "soa", "engine");

    assert!(is_proper(&tree, &lin.colors), "{name}: Linial output must be proper");
    let ls = log_star_u64(ctx.id_space);
    assert!(
        lin.rounds <= u64::from(ls) + 2,
        "{name}: {} Linial rounds exceeds log*({}) + 2 = {}",
        lin.rounds,
        ctx.id_space,
        ls + 2
    );
    assert!(lin.rounds >= 1, "{name}: a hundred million nodes cannot color in zero rounds");
}
