//! The experiment driver: a job queue on the vendored pool.
//!
//! An experiment run is a list of independent jobs — `(instance, pipeline,
//! seed)` entries in spirit — whose per-job results become table rows.
//! [`Driver::map`] pulls the jobs on pool workers (via
//! [`treelocal_sim::par::par_map`]; one worker runs them inline) and
//! returns the results **by job index**, so the aggregated tables are
//! identical for every pool size.

use treelocal_sim::par::par_map;

/// The result of one experiment job: everything a suite needs to build its
/// table rows and notes.
#[derive(Debug)]
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

/// The experiment driver. See the [module docs](self) for the execution
/// model.
#[derive(Debug)]
pub struct Driver {
    threads: usize,
}

impl Driver {
    /// A sequential driver (used by tests).
    pub fn sequential() -> Driver {
        Driver::with_threads(1)
    }

    /// A driver sharding jobs over `threads` pool workers (1 = sequential;
    /// see [`crate::auto_threads`]).
    pub fn with_threads(threads: usize) -> Driver {
        Driver { threads }
    }

    /// Maps `f` over `jobs` on the pool, returning the results **in job
    /// order**.
    ///
    /// # Panics
    ///
    /// Panics if a job panics (the pool re-raises the payload).
    pub fn map<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        par_map(jobs, self.threads, |_, j| f(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_job_order() {
        let jobs: Vec<u64> = (0..10).collect();
        for threads in [1, 2] {
            let out = Driver::with_threads(threads).map(&jobs, |&x| {
                JobOutput::from_row(vec![x.to_string(), (x * x).to_string()]).with_metric(x * x)
            });
            assert_eq!(out.len(), 10);
            for (x, job) in jobs.iter().zip(&out) {
                assert_eq!(job.rows, vec![vec![x.to_string(), (x * x).to_string()]]);
                assert_eq!(job.metric, Some(x * x));
            }
        }
    }
}
