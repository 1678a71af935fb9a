//! Deterministic parallel mapping on the vendored rayon pool, and the
//! runtime pool size every engine run reads.
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
//! The engine commits verdicts in awake order afterwards, which is what
//! keeps pooled and inline runs byte-identical (pinned by
//! `tests/parallel_equiv.rs`). The pool size is a runtime value:
//! [`auto_threads`] reads it, and [`with_threads`] overrides it for the
//! duration of a closure.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Chunks claimed per worker on average; >1 gives dynamic load balancing
/// without shrinking chunks so far that claiming dominates.
const CHUNKS_PER_WORKER: usize = 4;

/// Below this many awake nodes (sleepers do not count) a round is cheaper
/// than the scoped fork/join, so it maps at pool size 1, which runs
/// inline. The choice cannot affect results, only speed; `ExecCore::step`
/// is the one place that makes it.
pub(crate) const PAR_FRONTIER_MIN: usize = 1024;

thread_local! {
    /// The pool size forced on this thread by [`with_threads`] (0 = no
    /// override). Every [`par_map`] worker runs under `with_threads(1)`:
    /// work launched from inside a worker (an experiment job calling
    /// [`crate::run`], say) must not fan out again, because the vendored
    /// pool spawns real OS threads and nested auto-sized parallelism would
    /// run `W × W` of them. The outer layer already owns the parallelism.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Restores the previous override when dropped, including during unwind.
struct OverrideGuard {
    prev: usize,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        OVERRIDE.with(|c| c.set(prev));
    }
}

/// Runs `f` with [`auto_threads`] returning `threads` on the calling
/// thread (0 is treated as 1). The previous value is restored when `f`
/// returns or unwinds, so overrides nest. Outcomes never depend on the
/// pool size; this only chooses how much of the machine a run uses.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _restore = OverrideGuard { prev: OVERRIDE.with(|c| c.replace(threads.max(1))) };
    f()
}

/// The pool size an engine run uses: the innermost [`with_threads`]
/// override if one is set (always 1 inside a [`par_map`] worker), else the
/// `TREELOCAL_THREADS` environment variable (0 or unset = auto), else the
/// rayon default (`RAYON_NUM_THREADS`, else available parallelism).
///
/// The environment probe is computed once per process — like real rayon's
/// global pool size — both so the environment is stable configuration and
/// because the probe can touch the filesystem (cgroup quotas), which is
/// too slow for the per-`run` call sites.
pub fn auto_threads() -> usize {
    let forced = OVERRIDE.with(Cell::get);
    if forced > 0 {
        return forced;
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
    let mut out = Vec::new();
    par_map_into(items, threads, &mut out, f);
    out
}

/// [`par_map`] into a caller-owned vector: `out` is cleared first and then
/// holds the results in item order, so a caller mapping every round reuses
/// one allocation.
pub fn par_map_into<T, R, F>(items: &[T], threads: usize, out: &mut Vec<R>, f: F)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    out.clear();
    let n = items.len();
    if threads <= 1 || n <= 1 {
        out.extend(items.iter().enumerate().map(|(i, t)| f(i, t)));
        return;
    }
    out.reserve(n);
    let workers = threads.min(n);
    let chunk_len = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let n_chunks = n.div_ceil(chunk_len);
    drive_chunks(n_chunks, workers, out, |c| {
        let lo = c * chunk_len;
        let hi = (lo + chunk_len).min(n);
        items[lo..hi].iter().enumerate().map(|(j, t)| f(lo + j, t)).collect()
    });
}

/// The chunk-claiming driver behind [`par_map_into`]: `workers` pool
/// workers claim chunk indices `0..n_chunks` from a shared atomic counter
/// (self-scheduling, so a slow chunk never stalls the others), compute
/// each through `compute`, and send results back tagged with the chunk
/// index. `out` is filled **by chunk index** — identical to a sequential
/// map for every pool size.
///
/// Panics inside `compute` are caught so the original payload (an
/// algorithm's assertion message, say) reaches the caller instead of std's
/// opaque "a scoped thread panicked"; once any chunk panicked the map's
/// fate is sealed, remaining chunks are skipped, and the lowest-index
/// panic re-raises deterministically (skipped chunks always have higher
/// indices than the first panicked chunk, because the claim counter is
/// monotone).
fn drive_chunks<R, F>(n_chunks: usize, workers: usize, out: &mut Vec<R>, compute: F)
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
                with_threads(1, || loop {
                    let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks || poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    let computed: Computed<R> =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compute(c)));
                    if computed.is_err() {
                        poisoned.store(true, Ordering::Relaxed);
                    }
                    let failed = computed.is_err();
                    if tx.send((c, computed)).is_err() || failed {
                        break;
                    }
                })
            });
        }
    });
    drop(tx);
    let mut by_chunk: Vec<Option<Computed<R>>> = (0..n_chunks).map(|_| None).collect();
    for (c, computed) in rx {
        by_chunk[c] = Some(computed);
    }
    for slot in by_chunk {
        match slot {
            // Only possible after poisoning: a skipped chunk, whose index
            // is above the panicked chunk's — the `Err` arm re-raises
            // before assembly would miss anything.
            None => continue,
            Some(Ok(chunk)) => out.extend(chunk),
            Some(Err(payload)) => std::panic::resume_unwind(payload),
        }
    }
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
    fn map_into_clears_and_reuses_the_callers_vector() {
        let items: Vec<u64> = (0..1000).collect();
        let mut out = vec![u64::MAX; 5];
        for threads in [1usize, 2, 3] {
            par_map_into(&items, threads, &mut out, |i, x| x + widen_u64(i));
            assert_eq!(out, par_map(&items, 1, |i, x| x + widen_u64(i)), "threads = {threads}");
        }
        let capacity = out.capacity();
        par_map_into(&items[..10], 2, &mut out, |_, x| *x);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(out.capacity(), capacity, "a shorter map keeps the allocation");
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
        // An outer override does not reach the workers either.
        let sizes = with_threads(8, || par_map(&items, 4, |_, _| auto_threads()));
        assert!(sizes.iter().all(|&n| n == 1), "nested auto size must be 1, got {sizes:?}");
    }

    #[test]
    fn with_threads_is_visible_inside_and_restored_after() {
        let outside = auto_threads();
        assert_eq!(with_threads(3, auto_threads), 3);
        assert_eq!(with_threads(0, auto_threads), 1, "0 means a pool of one");
        // Overrides nest; each level restores the one it replaced.
        with_threads(5, || {
            assert_eq!(with_threads(2, auto_threads), 2);
            assert_eq!(auto_threads(), 5);
        });
        assert_eq!(auto_threads(), outside);
    }

    #[test]
    fn with_threads_is_restored_after_a_panic_unwinds() {
        let outside = auto_threads();
        let caught = std::panic::catch_unwind(|| {
            with_threads(7, || {
                assert_eq!(auto_threads(), 7);
                panic!("intentional");
            })
        });
        assert!(caught.is_err());
        assert_eq!(auto_threads(), outside);
    }
}
