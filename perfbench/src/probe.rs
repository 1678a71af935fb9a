//! Process probes read from outside the library crates: wall clock, CPU
//! time, peak RSS and the simulator's process-wide work counters.

use std::sync::OnceLock;
use std::time::Instant;

use treelocal_sim::counters;

/// Linux `USER_HZ`: the unit of the CPU times in `/proc/self/stat`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Seconds since the first probe of the process (the trace's time base).
pub fn wall_seconds() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// User + system CPU seconds this process has used so far, every thread
/// included (exited pool workers too). 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; the fields after its closing
    // parenthesis start at field 3 (`state`), so utime (14) and stime (15)
    // are the 12th and 13th of them.
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or("", |(_, rest)| rest).split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / CLOCK_TICKS_PER_S
}

/// Resets the kernel's resident-set high-water mark to the current RSS
/// (the `/proc/self/clear_refs` technique of the library's smoke tier).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM`, the resident-set high-water mark, in MiB (0 where `/proc` is
/// unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    kb as f64 / 1024.0
}

/// One reading of every probe; spans store one at each end.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// [`wall_seconds`].
    pub wall_s: f64,
    /// [`cpu_seconds`].
    pub cpu_s: f64,
    /// Engine rounds executed so far (`counters::rounds_executed`).
    pub rounds: u64,
    /// Frontier node-steps so far (`counters::node_steps`).
    pub node_steps: u64,
    /// Message-engine send steps so far (`counters::send_steps`).
    pub send_steps: u64,
    /// Endpoint bytes ingested by streamed graph builds so far.
    pub bytes_ingested: u64,
}

impl Probe {
    /// Reads every probe now.
    pub fn now() -> Probe {
        let (rounds, node_steps, send_steps) = counters::snapshot();
        Probe {
            wall_s: wall_seconds(),
            cpu_s: cpu_seconds(),
            rounds,
            node_steps,
            send_steps,
            bytes_ingested: counters::bytes_ingested(),
        }
    }
}

/// The median of `values` (mean of the middle pair for even counts; NaN
/// when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `values` (NaN when empty).
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        assert!(x != 1);
        assert!(cpu_seconds() > before);
    }
}
