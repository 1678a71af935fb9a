//! Construction-path observability counters.
//!
//! Generation-heavy suites spend most of their wall clock *building*
//! graphs, not stepping them, and the round/step counters are blind to
//! that phase. Every streamed build (see [`crate::source`]) records here:
//!
//! - [`bytes_ingested`] accumulates the compact endpoint bytes ingested
//!   from edge streams (8 bytes per edge — the u32 record pair the graph
//!   keeps), a monotone measure of generation work done.
//! - [`peak_build_bytes`] tracks the largest single-build allocation
//!   footprint seen (endpoint records + CSR arrays + transient fill
//!   cursor + any explicit identifier table), the build-side analogue of
//!   the engine's peak-RSS readings.
//!
//! Counters are process-wide relaxed atomics, same discipline as
//! `treelocal-sim`'s step counters: cheap enough to leave on. `perfbench`
//! and the tests read deltas around a run.

use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_INGESTED: AtomicU64 = AtomicU64::new(0);
static PEAK_BUILD_BYTES: AtomicU64 = AtomicU64::new(0);

/// Records one streamed build: `ingested` endpoint bytes consumed and the
/// build's total allocation `footprint` in bytes.
pub(crate) fn record_build(ingested: u64, footprint: u64) {
    BYTES_INGESTED.fetch_add(ingested, Ordering::Relaxed);
    PEAK_BUILD_BYTES.fetch_max(footprint, Ordering::Relaxed);
}

/// Total endpoint bytes ingested from edge streams since process start,
/// at 8 bytes per edge.
pub fn bytes_ingested() -> u64 {
    BYTES_INGESTED.load(Ordering::Relaxed)
}

/// Largest single-build allocation footprint (bytes) seen since process
/// start.
pub fn peak_build_bytes() -> u64 {
    PEAK_BUILD_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn builds_feed_the_counters() {
        // Counters are process-wide, so assert on deltas and monotonicity
        // rather than absolute values (other tests build graphs too).
        let before = bytes_ingested();
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.edge_count(), 3);
        let delta = bytes_ingested() - before;
        assert!(delta >= 8 * 3, "3 streamed edges must ingest at least 24 bytes, saw {delta}");
        // 3 edges, 4 nodes, sequential ids: 24m + 8n + 4 bytes.
        assert!(peak_build_bytes() >= 24 * 3 + 8 * 4 + 4);
    }
}
