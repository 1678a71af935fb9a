//! Deterministic parallel mapping on the vendored rayon pool.
//!
//! The LOCAL model is the textbook parallel abstraction: within a round,
//! every frontier node reads only the *previous* round's state buffer, so
//! stepping is embarrassingly parallel. What must **not** vary with the
//! thread count is the result — [`par_map`] therefore separates *where*
//! work executes from *how* results are ordered:
//!
//! * the input slice is cut into contiguous chunks; workers claim chunk
//!   indices from a shared atomic counter (self-scheduling, so a slow
//!   chunk never stalls the others);
//! * each worker computes its chunk's results locally and sends them back
//!   tagged with the chunk index;
//! * the caller's result vector is assembled **by chunk index**, making
//!   the output identical to a sequential `map` for every pool size.
//!
//! This module only exists with the `parallel` feature; the engine commits
//! verdicts in frontier order afterwards, which is what keeps parallel and
//! sequential runs byte-identical (pinned by `tests/parallel_equiv.rs`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Chunks claimed per worker on average; >1 gives dynamic load balancing
/// without shrinking chunks so far that claiming dominates.
const CHUNKS_PER_WORKER: usize = 4;

/// Below this frontier size a round phase is cheaper than the scoped
/// fork/join, so the engines run it inline. The choice cannot affect
/// results, only speed — both [`crate::ExecCore`] stepping variants and the
/// message engine's send phase share this one threshold.
pub(crate) const PAR_FRONTIER_MIN: usize = 1024;

thread_local! {
    /// Set while this thread is a [`par_map`] worker. Work launched from
    /// inside a worker (an experiment job calling [`crate::run`], say)
    /// must not fan out again: the vendored pool spawns real OS threads,
    /// so nested auto-sized parallelism would run `W × W` threads. The
    /// outer layer already owns the machine's parallelism.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the current thread as a pool worker for its lifetime.
struct WorkerGuard {
    prev: bool,
}

impl WorkerGuard {
    fn enter() -> WorkerGuard {
        WorkerGuard { prev: IN_POOL_WORKER.with(|c| c.replace(true)) }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL_WORKER.with(|c| c.set(prev));
    }
}

/// The pool size used when callers do not force one: **1 inside a pool
/// worker** (nested work must not oversubscribe — see `IN_POOL_WORKER`),
/// else the `TREELOCAL_THREADS` environment variable (0 or unset = auto),
/// else the rayon default (`RAYON_NUM_THREADS`, else available
/// parallelism).
///
/// The environment probe is computed once per process — like real rayon's
/// global pool size — both so the environment is stable configuration and
/// because the probe can touch the filesystem (cgroup quotas), which is
/// too slow for the per-`run` call sites.
pub fn auto_threads() -> usize {
    if IN_POOL_WORKER.with(std::cell::Cell::get) {
        return 1;
    }
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| {
        match std::env::var("TREELOCAL_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n > 0 => n,
            _ => rayon::current_num_threads(),
        }
    })
}

/// Maps `f` over `items` with `threads` workers, returning results in item
/// order. `f` receives `(index, &item)`. The output is identical for every
/// `threads` value, including 1 (which runs inline with zero overhead).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(n);
    let chunk_len = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let n_chunks = n.div_ceil(chunk_len);
    drive_chunks(n_chunks, workers, n, |c| {
        let lo = c * chunk_len;
        let hi = (lo + chunk_len).min(n);
        items[lo..hi].iter().enumerate().map(|(j, t)| f(lo + j, t)).collect()
    })
}

/// The chunk-claiming driver behind [`par_map`]: `workers` pool workers
/// claim chunk indices `0..n_chunks` from a shared atomic counter
/// (self-scheduling, so a slow chunk never stalls the others), compute
/// each through `compute`, and send results back tagged with the chunk
/// index. The caller's vector is assembled **by chunk
/// index** — identical to a sequential map for every pool size.
///
/// Panics inside `compute` are caught so the original payload (an
/// algorithm's assertion message, say) reaches the caller instead of std's
/// opaque "a scoped thread panicked"; once any chunk panicked the map's
/// fate is sealed, remaining chunks are skipped, and the lowest-index
/// panic re-raises deterministically (skipped chunks always have higher
/// indices than the first panicked chunk, because the claim counter is
/// monotone).
fn drive_chunks<R, F>(n_chunks: usize, workers: usize, capacity: usize, compute: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> Vec<R> + Sync,
{
    type Computed<R> = Result<Vec<R>, Box<dyn std::any::Any + Send>>;
    let next_chunk = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, Computed<R>)>();
    rayon::scope(|s| {
        for _ in 0..workers.min(n_chunks) {
            let tx = tx.clone();
            let next_chunk = &next_chunk;
            let poisoned = &poisoned;
            let compute = &compute;
            s.spawn(move |_| {
                let _in_worker = WorkerGuard::enter();
                loop {
                    let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks || poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    let out: Computed<R> =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compute(c)));
                    if out.is_err() {
                        poisoned.store(true, Ordering::Relaxed);
                    }
                    let failed = out.is_err();
                    if tx.send((c, out)).is_err() || failed {
                        break;
                    }
                }
            });
        }
    });
    drop(tx);
    let mut by_chunk: Vec<Option<Computed<R>>> = (0..n_chunks).map(|_| None).collect();
    for (c, out) in rx {
        by_chunk[c] = Some(out);
    }
    let mut result = Vec::with_capacity(capacity);
    for slot in by_chunk {
        match slot {
            // Only possible after poisoning: a skipped chunk, whose index
            // is above the panicked chunk's — the `Err` arm re-raises
            // before assembly would miss anything.
            None => continue,
            Some(Ok(out)) => result.extend(out),
            Some(Err(payload)) => std::panic::resume_unwind(payload),
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::widen_u64;

    #[test]
    fn matches_sequential_map_for_every_pool_size() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> =
            items.iter().enumerate().map(|(i, x)| x * 3 + widen_u64(i)).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = par_map(&items, threads, |i, x| x * 3 + widen_u64(i));
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, x| *x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |i, x| (i, *x)), vec![(0, 7)]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u8, 2, 3];
        assert_eq!(par_map(&items, 16, |_, x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn indices_are_the_item_positions() {
        let items: Vec<usize> = (0..257).rev().collect();
        let got = par_map(&items, 4, |i, _| i);
        assert_eq!(got, (0..257).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "intentional")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map(&items, 2, |_, x| {
            assert!(*x < 50, "intentional");
            *x
        });
    }

    #[test]
    fn nested_work_inside_a_worker_does_not_fan_out() {
        // An experiment job calling `run` from a shard worker must see an
        // auto pool of 1 — the outer layer owns the parallelism.
        let items: Vec<u32> = (0..64).collect();
        let sizes = par_map(&items, 4, |_, _| auto_threads());
        assert!(sizes.iter().all(|&n| n == 1), "nested auto size must be 1, got {sizes:?}");
        // ... and the flag is scoped to worker threads, not leaked.
        let inline = par_map(&items[..1], 4, |_, _| auto_threads());
        assert_eq!(inline[0], auto_threads());
    }
}
