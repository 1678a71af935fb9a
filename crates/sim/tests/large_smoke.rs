//! Ten-million-node smoke tier (ROADMAP "Larger instances").
//!
//! The paper's `O(log n / log log n)`-type claims only become visible at
//! scale: the exhaustive and property suites cap at a few hundred nodes,
//! where constants dominate every asymptotic shape. These tests run the
//! substrate (Linial) and a full Theorem 12 pipeline (MIS via
//! rake-and-compress + truly local solve + gather) on **10,000,000-node**
//! Prüfer and caterpillar trees — the scale the CSR/SoA layout exists
//! for: adjacency is three flat arrays (~120 MB at this size) instead of
//! ten million heap-allocated pair vectors, and per-node wall clock stays
//! at the level the old tier paid at one tenth the size. Round counts are
//! asserted against the paper's bounds with the measured-envelope
//! constants of experiment E6
//! (mis/LL stays within [9.3, 10.4] at simulable sizes; the assertions
//! allow ~2x headroom, which is still far below the Ω(diameter) cost any
//! non-local strategy pays on the caterpillar).
//!
//! They are `#[ignore]`d — a debug build would take hours, and frontier
//! stepping on one core takes minutes even in release — and run as a
//! separate non-blocking CI job:
//!
//! ```sh
//! cargo test --release -p treelocal-sim --test large_smoke -- --ignored
//! ```

use treelocal_algos::{is_proper, run_linial};
use treelocal_core::mis_on_tree;
use treelocal_gen::{caterpillar, random_tree};
use treelocal_graph::{Graph, NodeId};
use treelocal_problems::classic;
use treelocal_sim::{gather_rounds_at, highest_id_center, log_star_u64, Ctx, GatherPlan};

const N: usize = 10_000_000;

/// The release-only guard: in a debug build these workloads are hours of
/// wall clock, so the tier reports itself skipped instead of hanging a
/// developer who ran `cargo test -- --ignored` without `--release`.
fn skip_in_debug() -> bool {
    if cfg!(debug_assertions) {
        eprintln!("large_smoke: skipped — build with --release (debug would take hours)");
        return true;
    }
    false
}

/// The two ten-million-node instances of this tier: a uniformly random Prüfer
/// tree (the experiments' bread-and-butter workload) and a caterpillar
/// whose ~250k-node spine gives it a Θ(n) diameter — the instance where a
/// gather-style baseline degenerates and locality has to do the work.
/// Returned as thunks so callers can run each build inside its own
/// measured window (see [`reset_peak_rss`]).
type TreeThunk = fn() -> Graph;

fn ten_million_node_trees() -> Vec<(&'static str, TreeThunk)> {
    vec![
        ("prufer/10M", (|| random_tree(N, 23)) as TreeThunk),
        ("caterpillar/10M", || caterpillar(N / 4, 3)),
    ]
}

/// `log n / log log n` at `n` (base 2), the Theorem 12 yardstick.
fn log_over_loglog(n: usize) -> f64 {
    let l = (n as f64).log2();
    l / l.log2()
}

/// Peak-RSS instrumentation for the construction and engine phases
/// (Linux best-effort, silent no-op elsewhere).
/// `reset_peak_rss` clears the kernel's high-water mark between phases so
/// each [`peak_rss_kb`] reading covers one phase alone:
///
/// * **generation phase** — reset before the generator thunk runs, read
///   after the [`Graph`] exists. This pins the construction transient the
///   streaming `EdgeSource` build is supposed to have killed (the
///   materialized edge list alone was ~480 MB at this size, ~1 GB peak
///   with the generator's own scratch).
/// * **engine phase** — reset after `Ctx`/engine setup, read after the
///   run: the flat lane columns of the one state store.
///
/// The CI smoke job runs the Linial test in its own process and greps
/// both phase lines.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn report_peak(name: &str, phase: &str) {
    if let Some(kb) = peak_rss_kb() {
        eprintln!("{name}: linial {phase}-phase peak RSS {kb} kB");
    }
}

#[test]
#[ignore = "ten-million-node release-only smoke: cargo test --release -p treelocal-sim --test large_smoke -- --ignored"]
fn linial_on_ten_million_node_trees_stays_log_star() {
    if skip_in_debug() {
        return;
    }
    for (name, build) in ten_million_node_trees() {
        reset_peak_rss();
        let tree = build();
        report_peak(name, "generation");
        assert_eq!(tree.node_count(), N, "{name}");
        let ctx = Ctx::of(&tree);
        reset_peak_rss();
        let lin = run_linial(&ctx);
        report_peak(name, "engine");
        assert!(is_proper(&tree, &lin.colors), "{name}: Linial output must be proper");
        let ls = log_star_u64(ctx.id_space);
        // Lin92: log* + O(1) stages, each one round. The schedule has
        // never exceeded log* itself on any instance; allow +2 slack so
        // the tier pins the shape, not one build's constant.
        assert!(
            lin.rounds <= u64::from(ls) + 2,
            "{name}: {} Linial rounds exceeds log*({}) + 2 = {}",
            lin.rounds,
            ctx.id_space,
            ls + 2
        );
        assert!(lin.rounds >= 1, "{name}: ten million nodes cannot color in zero rounds");
    }
}

#[test]
#[ignore = "ten-million-node release-only smoke: cargo test --release -p treelocal-sim --test large_smoke -- --ignored"]
fn theorem12_mis_on_ten_million_node_trees_stays_sublogarithmic() {
    if skip_in_debug() {
        return;
    }
    let ll = log_over_loglog(N); // ~5.12 at n = 1e7
    for (name, build) in ten_million_node_trees() {
        let tree = build();
        let (out, set) = mis_on_tree(&tree);
        assert!(out.valid, "{name}: pipeline self-check failed");
        assert!(classic::is_valid_mis(&tree, &set), "{name}: output is not a valid MIS");
        let ratio = out.total_rounds() as f64 / ll;
        // E6 measures mis/LL in [9.3, 10.4] for n up to 256k; 2x headroom
        // keeps the assertion meaningful (log2 n ~ 23 here, so a merely
        // O(log n) pipeline would push the ratio past 4.5x the envelope,
        // and the caterpillar's diameter is ~2,500,000 rounds away).
        assert!(
            ratio <= 21.0,
            "{name}: {} rounds is {ratio:.2}x (log n / log log n) — Theorem 12's \
             O(log n / log log n) shape is broken",
            out.total_rounds()
        );
        assert!(
            out.total_rounds() < u64::from(N.ilog2()) * 4,
            "{name}: rounds should stay well below 4 log2 n",
        );
    }
}

/// Gather-heavy scenario: one `GatherPlan` costs **every** node of a
/// ten-million-node deep caterpillar as a gather center — an all-centers
/// eccentricity pass over a Θ(n)-diameter tree, the workload where the
/// pre-cache loop (one BFS per center, `O(n)` each) would be `O(n²)` and
/// out of reach. A deterministic sample of centers is spot-checked
/// against the direct sparse BFS, pinning the cached totals to the
/// uncached answers at a scale the property suite cannot visit.
#[test]
#[ignore = "ten-million-node release-only smoke: cargo test --release -p treelocal-sim --test large_smoke -- --ignored"]
fn gather_plan_all_centers_on_ten_million_node_caterpillar_matches_direct_bfs() {
    if skip_in_debug() {
        return;
    }
    // Deep caterpillar: a 5M-node spine each carrying one leg, so the
    // diameter (and hence every gather cost) is Θ(n).
    let tree = caterpillar(N / 2, 1);
    assert_eq!(tree.node_count(), N);
    let spine = N / 2;

    // The cached all-centers pass: every node costed as a gather center.
    let plan = GatherPlan::new(&tree);
    let mut worst = 0u64;
    let mut total = 0u64;
    for v in tree.node_ids() {
        let r = plan.rounds_at(v);
        worst = worst.max(r);
        total += r;
    }
    // Structure checks: the worst center is a leg of a spine endpoint,
    // whose eccentricity is the diameter (spine - 1 spine hops plus one
    // leg hop at each end), and no center beats half the diameter.
    let diameter = u64::try_from(spine - 1 + 2).unwrap();
    assert_eq!(worst, 2 * diameter, "worst gather center cost is off");
    assert!(total >= u64::try_from(N).unwrap() * diameter, "totals below the diameter floor");

    // Spot-check a deterministic sample of centers (endpoints, middle,
    // legs, and an even sweep) against the uncached BFS.
    let mut sample: Vec<usize> = vec![0, 1, spine / 2, spine - 1, spine, N - 1];
    sample.extend((0..32).map(|i| (i * 31_415) % N));
    for idx in sample {
        let v = NodeId::new(idx);
        assert_eq!(
            plan.rounds_at(v),
            gather_rounds_at(&tree, v),
            "cached cost diverges from direct BFS at center {idx}"
        );
    }

    // The aggregate entry points agree with the plan on the single
    // component under the paper's highest-id center rule.
    let members: Vec<NodeId> = tree.node_ids().collect();
    let mut pick = highest_id_center(&tree);
    let center = pick(&members);
    assert_eq!(plan.parallel_rounds(vec![members], pick), plan.rounds_at(center));
}
