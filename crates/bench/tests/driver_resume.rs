//! Crash-resume equivalence for the experiment driver — the acceptance bar
//! of the queue-based driver:
//!
//! * a journaled run renders byte-identical tables to a journal-less run;
//! * a run interrupted at an arbitrary job (simulated by truncating the
//!   journal to a record prefix: 0%, 50%, all-but-one) and resumed with
//!   `--resume` renders byte-identical tables to the uninterrupted run,
//!   for pool sizes 1 and auto;
//! * completed jobs are **not** re-executed on resume (counter check);
//! * a journal with a torn trailing line (crash mid-write) is detected,
//!   the torn line discarded, and resume proceeds from the last complete
//!   record;
//! * mid-file corruption, workload-size mismatches and pathologically
//!   nested lines are rejected.

use std::path::{Path, PathBuf};
use treelocal_bench::{
    auto_threads, run_experiment_with_driver, Driver, DriverConfig, ExperimentSize,
};

/// A fast-but-representative slice of the suite: a lemma run (bound
/// checks), a theorem run (f64 fit samples in the notes), and a substrate
/// run.
const IDS: [&str; 3] = ["e2", "e7", "e12"];
const SIZE: ExperimentSize = ExperimentSize::Quick;

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("treelocal-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn driver_with(journal: Option<&Path>, resume: bool, threads: usize) -> Driver {
    Driver::new(DriverConfig {
        threads,
        journal: journal.map(Path::to_path_buf),
        resume,
        progress: false,
        size: SIZE,
    })
    .unwrap()
}

/// Renders every table of the reference id set through `driver`.
fn render_all(driver: &Driver) -> String {
    IDS.iter()
        .flat_map(|id| run_experiment_with_driver(id, SIZE, driver))
        .map(|t| t.render())
        .collect()
}

/// Keeps the meta line plus the first `keep` records of `src` in `dst` —
/// the on-disk state of a run that crashed after `keep` completed jobs.
fn truncate_to_records(src: &Path, dst: &Path, keep: usize) {
    let text = std::fs::read_to_string(src).unwrap();
    let prefix: Vec<&str> = text.lines().take(1 + keep).collect();
    std::fs::write(dst, prefix.join("\n") + "\n").unwrap();
}

/// Pool sizes the resume requirement names: 1 and auto (deduplicated
/// when auto is 1).
fn pool_sizes() -> Vec<usize> {
    let auto = auto_threads();
    if auto == 1 {
        vec![1]
    } else {
        vec![1, auto]
    }
}

#[test]
fn journaled_run_matches_journal_less_run() {
    let baseline = render_all(&Driver::sequential());
    let path = tmp_path("plain-vs-journal.jsonl");
    let driver = driver_with(Some(&path), false, 1);
    assert_eq!(render_all(&driver), baseline, "journaling must not change a single byte");
    let records = std::fs::read_to_string(&path).unwrap().lines().count() - 1;
    assert_eq!(records, driver.jobs_executed(), "one journal record per executed job");
    std::fs::remove_file(&path).unwrap();
}

/// The resume requirement: interrupt at an arbitrary job, resume, and
/// the aggregate tables are byte-identical — for pool sizes 1 and auto —
/// with completed jobs not re-executed.
#[test]
fn resume_from_any_prefix_is_byte_identical() {
    let baseline = render_all(&Driver::sequential());
    for threads in pool_sizes() {
        let full = tmp_path(&format!("full-{threads}.jsonl"));
        let driver = driver_with(Some(&full), false, threads);
        assert_eq!(render_all(&driver), baseline, "uninterrupted run at {threads} threads");
        let total = driver.jobs_executed();
        assert!(total > 4, "the id set must exercise a real queue, got {total} jobs");
        // Crash points: nothing done, half done, all but one done.
        for keep in [0, total / 2, total - 1] {
            let cut = tmp_path(&format!("cut-{threads}-{keep}.jsonl"));
            truncate_to_records(&full, &cut, keep);
            let resumed = driver_with(Some(&cut), true, threads);
            assert_eq!(resumed.jobs_resumed(), keep, "journal prefix loads {keep} records");
            assert_eq!(
                render_all(&resumed),
                baseline,
                "resume after {keep}/{total} jobs at {threads} threads"
            );
            assert_eq!(
                resumed.jobs_executed(),
                total - keep,
                "completed jobs must not re-execute ({keep}/{total} at {threads} threads)"
            );
            std::fs::remove_file(&cut).unwrap();
        }
        std::fs::remove_file(&full).unwrap();
    }
}

#[test]
fn torn_trailing_line_is_discarded_and_resume_proceeds() {
    let baseline = render_all(&Driver::sequential());
    let full = tmp_path("torn-full.jsonl");
    let driver = driver_with(Some(&full), false, 1);
    render_all(&driver);
    let total = driver.jobs_executed();

    // Crash mid-write of the final record: keep 2 records, then append the
    // first half of the next line without its newline.
    let text = std::fs::read_to_string(&full).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let torn = tmp_path("torn.jsonl");
    let mut content = lines[..3].join("\n") + "\n";
    content.push_str(&lines[3][..lines[3].len() / 2]);
    std::fs::write(&torn, &content).unwrap();

    let resumed = driver_with(Some(&torn), true, 1);
    assert_eq!(resumed.jobs_resumed(), 2, "only complete records are loaded");
    assert_eq!(render_all(&resumed), baseline, "resume after a torn write");
    assert_eq!(resumed.jobs_executed(), total - 2, "the torn job re-executes, the rest resume");
    std::fs::remove_file(&torn).unwrap();
    std::fs::remove_file(&full).unwrap();
}

#[test]
fn mid_journal_corruption_is_rejected() {
    let full = tmp_path("corrupt-full.jsonl");
    render_all(&driver_with(Some(&full), false, 1));
    let text = std::fs::read_to_string(&full).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Garbage *between* complete records has no mid-write excuse.
    let mut patched: Vec<&str> = lines.clone();
    patched.insert(2, "{not json at all");
    let corrupt = tmp_path("corrupt.jsonl");
    std::fs::write(&corrupt, patched.join("\n") + "\n").unwrap();
    let err = Driver::new(DriverConfig {
        threads: 1,
        journal: Some(corrupt.clone()),
        resume: true,
        progress: false,
        size: SIZE,
    })
    .unwrap_err();
    assert!(err.contains("corrupt at line 3"), "{err}");
    std::fs::remove_file(&corrupt).unwrap();
    std::fs::remove_file(&full).unwrap();
}

#[test]
fn workload_size_mismatch_is_rejected() {
    let path = tmp_path("size-mismatch.jsonl");
    render_all(&driver_with(Some(&path), false, 1));
    let err = Driver::new(DriverConfig {
        threads: 1,
        journal: Some(path.clone()),
        resume: true,
        progress: false,
        size: ExperimentSize::Full,
    })
    .unwrap_err();
    assert!(err.contains("mix instance sizes"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn deeply_nested_meta_line_is_rejected_not_a_crash() {
    // A corrupt journal whose meta line opens 100,000 arrays must come back
    // as an error (the CLI exits 2), not overflow the parser's stack. A
    // line follows it, so the meta line cannot pass for a torn tail.
    let path = tmp_path("deep-meta.jsonl");
    std::fs::write(&path, "[".repeat(100_000) + "\n{}\n").unwrap();
    let err = Driver::new(DriverConfig {
        threads: 1,
        journal: Some(path.clone()),
        resume: true,
        progress: false,
        size: SIZE,
    })
    .unwrap_err();
    assert!(err.contains("nesting too deep"), "{err}");
    std::fs::remove_file(&path).unwrap();
}
