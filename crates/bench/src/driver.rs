//! The queue-based experiment driver: persistent job queues with
//! checkpointing, crash-resume and progress reporting.
//!
//! An experiment run is a job queue — `(instance, pipeline, seed)` entries
//! in spirit — whose per-job results become table rows. [`Driver::run_jobs`]
//! executes one named queue:
//!
//! 1. jobs whose results are already in the checkpoint journal (see
//!    [`crate::journal`]) are **skipped** and their recorded [`JobOutput`]
//!    reused;
//! 2. the remaining jobs are pulled by worker threads from the vendored
//!    pool (via [`treelocal_sim::par::par_map`], which returns results by
//!    job index; one worker runs them inline);
//! 3. each completed job is appended to the journal (one flushed line) and
//!    reported on stderr: jobs done / total, simulator rounds and
//!    node-steps consumed (from [`treelocal_sim::counters`]; message-engine
//!    send-steps too whenever the run did any), elapsed time and an ETA;
//! 4. results are returned **by job index**, so a resumed run aggregates
//!    into byte-identical tables — journal-loaded and freshly computed
//!    results are indistinguishable (jobs are deterministic, and
//!    [`JobOutput`] round-trips exactly).
//!
//! A driver without a journal (the default; [`Driver::with_threads`]) has
//! zero overhead over the plain sharded map, which keeps the existing
//! one-shot behavior and tables unchanged.

use crate::journal::{CompletedMap, Journal};
use crate::ExperimentSize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use treelocal_graph::OrInvariant;
use treelocal_sim::par::par_map;

/// The serializable result of one experiment job: everything a suite needs
/// to rebuild its table rows and notes without re-executing the job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutput {
    /// The table rows this job contributes, in order.
    pub rows: Vec<Vec<String>>,
    /// Whether every bound/structural check of the job held (`true` when
    /// the job checks nothing).
    pub holds: bool,
    /// `(x, y)` samples contributed to the table's fit notes.
    pub samples: Vec<(f64, f64)>,
    /// An optional scalar metric (e.g. total rounds) for note aggregation.
    pub metric: Option<u64>,
}

impl Default for JobOutput {
    fn default() -> Self {
        JobOutput { rows: Vec::new(), holds: true, samples: Vec::new(), metric: None }
    }
}

impl JobOutput {
    /// A result contributing a single row.
    pub fn from_row(row: Vec<String>) -> Self {
        JobOutput { rows: vec![row], ..JobOutput::default() }
    }

    /// A result contributing several rows.
    pub fn from_rows(rows: Vec<Vec<String>>) -> Self {
        JobOutput { rows, ..JobOutput::default() }
    }

    /// Sets the bound-check flag.
    #[must_use]
    pub fn with_holds(mut self, ok: bool) -> Self {
        self.holds = ok;
        self
    }

    /// Appends a fit sample.
    #[must_use]
    pub fn with_sample(mut self, sample: (f64, f64)) -> Self {
        self.samples.push(sample);
        self
    }

    /// Sets the scalar metric.
    #[must_use]
    pub fn with_metric(mut self, metric: u64) -> Self {
        self.metric = Some(metric);
        self
    }
}

/// Appends every job's rows to `table` in job order, returning the
/// conjunction of the per-job bound checks (`true` when no job checks
/// anything) — the shared aggregation step of every measured suite.
pub fn collect_rows(table: &mut crate::Table, results: Vec<JobOutput>) -> bool {
    let mut all = true;
    for out in results {
        all &= out.holds;
        for row in out.rows {
            table.row(row);
        }
    }
    all
}

/// Configuration for [`Driver::new`].
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Pool workers pulling from the queue (1 = sequential; see
    /// [`crate::auto_threads`]).
    pub threads: usize,
    /// Checkpoint journal path; `None` disables checkpointing entirely.
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of starting it fresh.
    /// Requires `journal`.
    pub resume: bool,
    /// Emit per-job progress lines to stderr.
    pub progress: bool,
    /// Workload size the journal is validated against (a `--quick` journal
    /// must not seed a Full run).
    pub size: ExperimentSize,
}

impl DriverConfig {
    /// A journal-less, progress-less configuration — the plain sharded map.
    pub fn ephemeral(threads: usize, size: ExperimentSize) -> Self {
        DriverConfig { threads, journal: None, resume: false, progress: false, size }
    }
}

#[derive(Debug)]
struct JournalState {
    journal: Journal,
    completed: CompletedMap,
}

/// The experiment driver. See the [module docs](self) for the execution
/// model.
#[derive(Debug)]
pub struct Driver {
    threads: usize,
    state: Option<Mutex<JournalState>>,
    progress: bool,
    /// Jobs actually executed (not journal-skipped) over the driver's life.
    executed: AtomicUsize,
}

impl Driver {
    /// A sequential driver without checkpointing (used by tests).
    pub fn sequential() -> Driver {
        Driver::with_threads(1)
    }

    /// A driver with an explicit pool size and no checkpointing — exactly
    /// the pre-driver sharded behavior.
    pub fn with_threads(threads: usize) -> Driver {
        Driver { threads, state: None, progress: false, executed: AtomicUsize::new(0) }
    }

    /// Builds a driver from `config`, creating or resuming the journal.
    ///
    /// # Errors
    ///
    /// Fails when the journal cannot be created, is corrupt beyond a torn
    /// trailing line, was recorded at a different [`ExperimentSize`], or
    /// when `resume` is set without a journal path.
    pub fn new(config: DriverConfig) -> Result<Driver, String> {
        let state = match (&config.journal, config.resume) {
            (None, true) => return Err("--resume needs --journal PATH".to_string()),
            (None, false) => None,
            (Some(path), false) => {
                let journal = Journal::create(path, config.size)?;
                Some(Mutex::new(JournalState { journal, completed: CompletedMap::new() }))
            }
            (Some(path), true) => {
                let (journal, completed) = Journal::resume(path, config.size)?;
                Some(Mutex::new(JournalState { journal, completed }))
            }
        };
        Ok(Driver {
            threads: config.threads,
            state,
            progress: config.progress,
            executed: AtomicUsize::new(0),
        })
    }

    /// The pool size jobs are sharded over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many jobs this driver actually executed (journal-skipped jobs
    /// are not counted) — the resume tests pin no-re-execution with this.
    pub fn jobs_executed(&self) -> usize {
        self.executed.load(Ordering::Relaxed)
    }

    /// Number of results already present in the resumed journal.
    pub fn jobs_resumed(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.lock().or_invariant("journal lock").completed.len())
    }

    /// Runs the named job queue, returning one [`JobOutput`] per job **in
    /// job order**. Journal-completed jobs are skipped; fresh completions
    /// are checkpointed and reported.
    ///
    /// # Panics
    ///
    /// Panics if a job panics (the pool re-raises the payload) or if the
    /// journal becomes unwritable mid-run — losing checkpoints silently
    /// would defeat the journal's purpose.
    pub fn run_jobs<J, F>(&self, run: &str, jobs: &[J], f: F) -> Vec<JobOutput>
    where
        J: Sync,
        F: Fn(&J) -> JobOutput + Sync,
    {
        let total = jobs.len();
        let mut results: Vec<Option<JobOutput>> = vec![None; total];
        let mut pending: Vec<usize> = Vec::new();
        if let Some(state) = &self.state {
            let st = state.lock().or_invariant("journal lock");
            for (i, slot) in results.iter_mut().enumerate() {
                match st.completed.get(&(run.to_string(), i)) {
                    Some(out) => *slot = Some(out.clone()),
                    None => pending.push(i),
                }
            }
        } else {
            pending.extend(0..total);
        }
        let skipped = total - pending.len();
        if self.progress && skipped > 0 {
            eprintln!("[{run}] resumed {skipped}/{total} jobs from the journal");
        }
        let started = Instant::now();
        let counters0 = treelocal_sim::counters::snapshot();
        let ingested0 = treelocal_sim::counters::bytes_ingested();
        let done = AtomicUsize::new(0);
        let fresh = par_map(&pending, self.threads, |_, &i| {
            let out = f(&jobs[i]);
            self.checkpoint(run, i, &out);
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            self.report(run, skipped + finished, total, finished, started, counters0, ingested0);
            out
        });
        self.executed.fetch_add(fresh.len(), Ordering::Relaxed);
        for (i, out) in pending.into_iter().zip(fresh) {
            results[i] = Some(out);
        }
        results.into_iter().map(|o| o.or_invariant("every job completed or resumed")).collect()
    }

    /// Maps `f` over auxiliary jobs (e.g. workload generation) on the pool
    /// **without** checkpointing: regenerating them on resume is cheap and
    /// deterministic, and their results (graphs) do not belong in a JSONL
    /// journal.
    pub fn map<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        par_map(jobs, self.threads, |_, j| f(j))
    }

    fn checkpoint(&self, run: &str, job: usize, out: &JobOutput) {
        if let Some(state) = &self.state {
            let mut st = state.lock().or_invariant("journal lock");
            st.journal.append(run, job, out).or_invariant("checkpoint journal write");
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        run: &str,
        done: usize,
        total: usize,
        fresh_done: usize,
        started: Instant,
        counters0: (u64, u64, u64),
        ingested0: u64,
    ) {
        if !self.progress {
            return;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let (rounds, steps, sends) = treelocal_sim::counters::snapshot();
        let ingested = treelocal_sim::counters::bytes_ingested();
        eprintln!(
            "{}",
            progress_line(
                run,
                done,
                total,
                fresh_done,
                elapsed,
                rounds.saturating_sub(counters0.0),
                steps.saturating_sub(counters0.1),
                sends.saturating_sub(counters0.2),
                ingested.saturating_sub(ingested0),
            )
        );
    }
}

/// Formats one stderr progress line. Pure, so the edge cases are pinned by
/// unit tests: the very first job (nothing fresh done yet), a zero-elapsed
/// clock, and a resumed run whose jobs were all replayed from the journal
/// must all render without an ETA rather than showing `NaN`/`inf` seconds
/// or panicking on division by zero.
#[allow(clippy::too_many_arguments)]
fn progress_line(
    run: &str,
    done: usize,
    total: usize,
    fresh_done: usize,
    elapsed: f64,
    rounds: u64,
    steps: u64,
    sends: u64,
    ingested: u64,
) -> String {
    // A monotonic clock cannot hand back a non-finite or negative reading,
    // but the line must stay printable even if the caller's arithmetic ever
    // does: clamp instead of formatting garbage.
    let elapsed = if elapsed.is_finite() { elapsed.max(0.0) } else { 0.0 };
    let eta = if done < total && fresh_done > 0 {
        let remaining = total.saturating_sub(done) as f64 * elapsed / fresh_done as f64;
        if remaining.is_finite() {
            format!(", ~{remaining:.1}s left")
        } else {
            String::new()
        }
    } else {
        // First job, or a resume that replayed every job from the journal:
        // no fresh timing signal exists, so print no estimate at all.
        String::new()
    };
    // Send-phase steps are message-engine work the receive counter does
    // not see; report them whenever the run did any, so progress on
    // message-heavy suites reflects the full simulation effort.
    let send_part = match sends {
        0 => String::new(),
        d => format!(", +{d} send-steps"),
    };
    // Construction work (streamed endpoint bytes) is invisible to the
    // round/step counters; generation-heavy suites would otherwise show a
    // silent stall while graphs build. Reported only when a job actually
    // built something, like send-steps.
    let ingest_part = match ingested {
        0 => String::new(),
        b => format!(", +{:.1} MB ingested", b as f64 / 1e6),
    };
    format!(
        "[{run}] {done}/{total} jobs | +{rounds} rounds, +{steps} node-steps{send_part}\
         {ingest_part} | {elapsed:.1}s elapsed{eta}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("treelocal-driver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn square_jobs(driver: &Driver, jobs: &[u64]) -> Vec<JobOutput> {
        driver.run_jobs("squares", jobs, |&x| {
            JobOutput::from_row(vec![x.to_string(), (x * x).to_string()]).with_metric(x * x)
        })
    }

    #[test]
    fn journal_less_driver_is_a_plain_map() {
        let jobs: Vec<u64> = (0..10).collect();
        let driver = Driver::with_threads(1);
        let out = square_jobs(&driver, &jobs);
        assert_eq!(out.len(), 10);
        assert_eq!(out[3].rows, vec![vec!["3".to_string(), "9".to_string()]]);
        assert_eq!(driver.jobs_executed(), 10);
        assert_eq!(driver.jobs_resumed(), 0);
    }

    #[test]
    fn resume_skips_completed_jobs_and_reproduces_results() {
        let path = tmp_path("resume-skip.jsonl");
        let jobs: Vec<u64> = (0..8).collect();
        let size = ExperimentSize::Quick;
        let full = {
            let driver = Driver::new(DriverConfig {
                journal: Some(path.clone()),
                ..DriverConfig::ephemeral(1, size)
            })
            .unwrap();
            square_jobs(&driver, &jobs)
        };
        // Resume with the complete journal: nothing re-executes.
        let driver = Driver::new(DriverConfig {
            journal: Some(path.clone()),
            resume: true,
            ..DriverConfig::ephemeral(1, size)
        })
        .unwrap();
        let resumed = square_jobs(&driver, &jobs);
        assert_eq!(resumed, full);
        assert_eq!(driver.jobs_executed(), 0);
        assert_eq!(driver.jobs_resumed(), 8);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fresh_journal_truncates_a_previous_one() {
        let path = tmp_path("fresh-truncates.jsonl");
        let jobs: Vec<u64> = (0..4).collect();
        let size = ExperimentSize::Quick;
        for _ in 0..2 {
            let driver = Driver::new(DriverConfig {
                journal: Some(path.clone()),
                ..DriverConfig::ephemeral(1, size)
            })
            .unwrap();
            square_jobs(&driver, &jobs);
            assert_eq!(driver.jobs_executed(), 4, "a fresh journal never skips");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_without_journal_is_rejected() {
        let err = Driver::new(DriverConfig {
            resume: true,
            ..DriverConfig::ephemeral(1, ExperimentSize::Quick)
        })
        .unwrap_err();
        assert!(err.contains("--journal"), "{err}");
    }

    #[test]
    fn distinct_runs_do_not_share_checkpoints() {
        let path = tmp_path("distinct-runs.jsonl");
        let jobs: Vec<u64> = (0..3).collect();
        let size = ExperimentSize::Quick;
        {
            let driver = Driver::new(DriverConfig {
                journal: Some(path.clone()),
                ..DriverConfig::ephemeral(1, size)
            })
            .unwrap();
            driver.run_jobs("alpha", &jobs, |&x| JobOutput::from_row(vec![x.to_string()]));
        }
        let driver = Driver::new(DriverConfig {
            journal: Some(path.clone()),
            resume: true,
            ..DriverConfig::ephemeral(1, size)
        })
        .unwrap();
        // Same indices, different run name: all three must execute.
        driver.run_jobs("beta", &jobs, |&x| JobOutput::from_row(vec![x.to_string()]));
        assert_eq!(driver.jobs_executed(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn progress_line_first_job_has_no_eta() {
        // Nothing fresh has finished yet: estimating from zero completed
        // jobs would divide by zero.
        let line = progress_line("demo", 0, 8, 0, 0.0, 0, 0, 0, 0);
        assert_eq!(line, "[demo] 0/8 jobs | +0 rounds, +0 node-steps | 0.0s elapsed");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }

    #[test]
    fn progress_line_zero_elapsed_renders_a_zero_eta() {
        // One job done in (rounded) zero seconds: the estimate is a finite
        // zero, not NaN.
        let line = progress_line("demo", 1, 8, 1, 0.0, 3, 40, 0, 0);
        assert_eq!(line, "[demo] 1/8 jobs | +3 rounds, +40 node-steps | 0.0s elapsed, ~0.0s left");
    }

    #[test]
    fn progress_line_resumed_all_done_has_no_eta() {
        // A resume that replayed every job from the journal reports the
        // final count with no fresh completions and no estimate.
        let line = progress_line("demo", 8, 8, 0, 0.2, 0, 0, 0, 0);
        assert_eq!(line, "[demo] 8/8 jobs | +0 rounds, +0 node-steps | 0.2s elapsed");
    }

    #[test]
    fn progress_line_resumed_tail_estimates_from_fresh_jobs_only() {
        // 6 of 8 replayed, 1 fresh job took 2s: the 1 remaining job is
        // estimated from the fresh rate (2s), not the replayed total.
        let line = progress_line("demo", 7, 8, 1, 2.0, 5, 100, 0, 0);
        assert!(line.ends_with("~2.0s left"), "{line}");
    }

    #[test]
    fn progress_line_clamps_non_finite_and_negative_clocks() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0] {
            let line = progress_line("demo", 1, 2, 1, bad, 0, 0, 0, 0);
            assert!(line.contains("0.0s elapsed"), "{line}");
            assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        }
    }

    #[test]
    fn progress_line_send_steps_appear_only_when_nonzero() {
        let with = progress_line("demo", 1, 2, 1, 1.0, 2, 30, 7, 0);
        assert!(with.contains("+7 send-steps"), "{with}");
        let without = progress_line("demo", 1, 2, 1, 1.0, 2, 30, 0, 0);
        assert!(!without.contains("send-steps"), "{without}");
    }

    #[test]
    fn progress_line_ingested_bytes_appear_only_when_nonzero() {
        // 2_500_000 endpoint bytes streamed during this run's builds.
        let with = progress_line("demo", 1, 2, 1, 1.0, 2, 30, 0, 2_500_000);
        assert_eq!(
            with,
            "[demo] 1/2 jobs | +2 rounds, +30 node-steps, +2.5 MB ingested | \
             1.0s elapsed, ~1.0s left"
        );
        let without = progress_line("demo", 1, 2, 1, 1.0, 2, 30, 0, 0);
        assert!(!without.contains("ingested"), "{without}");
        // Both extras compose in a fixed order: sends before ingest.
        let both = progress_line("demo", 1, 2, 1, 1.0, 2, 30, 7, 8_000);
        assert!(both.contains("+7 send-steps, +0.0 MB ingested"), "{both}");
    }
}
