//! Golden round-count regression: every quick-profile E-table (E1–E14) is
//! pinned cell-for-cell against a committed fixture.
//!
//! Every number in these tables (iterations, diameters, round counts,
//! ratios) is deterministic — generators are seeded, pipelines are
//! sequentialized by job index — so any gather/eccentricity change that
//! drifts a reported value fails this test loudly instead of silently
//! rewriting the tables. The fixture was generated from the pre-cache
//! per-center-BFS implementation; the `GatherPlan` eccentricity cache must
//! reproduce it byte-for-byte.
//!
//! To regenerate after an *intentional* round-accounting change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p treelocal-bench --test golden_rounds
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use treelocal_bench::{all_experiment_ids, run_experiment, ExperimentSize};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_rounds.txt")
}

fn rendered_quick_tables() -> String {
    let mut out = String::new();
    // Every quick table: the lemma tables (E1–E5), the theorem tables
    // (E6–E8) and the tables that run the inner solvers directly
    // (E9–E14).
    for id in all_experiment_ids() {
        for table in run_experiment(id, ExperimentSize::Quick) {
            let _ = writeln!(out, "{}", table.render());
        }
    }
    out
}

#[test]
fn quick_profile_round_counts_match_committed_fixture() {
    let rendered = rendered_quick_tables();
    let path = fixture_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("golden_rounds: regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             GOLDEN_REGEN=1 cargo test -p treelocal-bench --test golden_rounds",
            path.display()
        )
    });
    if rendered != expected {
        // Diff the first mismatching line so the failure names the drifted
        // cell instead of dumping two multi-kilobyte blobs.
        for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "round-count drift at fixture line {}: a gather/eccentricity change altered \
                 a reported number; if intentional, regenerate with GOLDEN_REGEN=1",
                i + 1
            );
        }
        panic!(
            "rendered tables differ in length from the fixture ({} vs {} lines); \
             if intentional, regenerate with GOLDEN_REGEN=1",
            rendered.lines().count(),
            expected.lines().count()
        );
    }
}
