//! Property tests for `treelocal_sim::par::par_map`, the partition
//! primitive under the experiment driver's queue: sharding any job list over any pool
//! size is a partition — every job index is executed exactly once — and
//! aggregation (results by job index) is pool-size-invariant.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use treelocal_sim::par::par_map;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharding_any_job_list_is_a_partition(
        len in 0usize..300,
        threads in 1usize..17,
        seed in any::<u64>(),
    ) {
        let jobs: Vec<(usize, u64)> =
            (0..len).map(|i| (i, seed.wrapping_mul(i as u64 + 1))).collect();
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let results = par_map(&jobs, threads, |_, &(i, x)| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            (i, x.rotate_left(7) ^ 0xA5A5)
        });
        // Every job index was executed exactly once...
        for (i, h) in hits.iter().enumerate() {
            let count = h.load(Ordering::Relaxed);
            prop_assert_eq!(count, 1, "job {} executed {} times at {} threads", i, count, threads);
        }
        // ...and results come back in job order with the right payloads.
        prop_assert_eq!(results.len(), len);
        for (i, &(ri, rx)) in results.iter().enumerate() {
            prop_assert_eq!(ri, i);
            prop_assert_eq!(rx, jobs[i].1.rotate_left(7) ^ 0xA5A5);
        }
    }

    #[test]
    fn aggregation_is_pool_size_invariant(len in 0usize..200, seed in any::<u64>()) {
        let jobs: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        let expected = par_map(&jobs, 1, |_, &x| x.wrapping_mul(x).to_string());
        for threads in [2usize, 3, 5, 8, 16, 64] {
            let got = par_map(&jobs, threads, |_, &x| x.wrapping_mul(x).to_string());
            prop_assert_eq!(&got, &expected, "diverged at {} threads", threads);
        }
    }
}
