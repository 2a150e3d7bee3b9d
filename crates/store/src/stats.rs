//! Process-global store-path instrumentation.
//!
//! The store crate sits below the runtime (no dependency on the metrics
//! registry), so — like `sqlkit`'s plan cache — it accumulates its own
//! cumulative counters here, and the runtime mirrors them into its
//! registry with `raise_to`/`set` whenever the registry is *read*
//! (`Runtime::refreshed_metrics`: a `/metrics` scrape, a CLI snapshot),
//! not when a request happens to run. Everything is a monotone counter
//! or a level gauge, so a mirror taken at any moment, by any reader, is
//! exact and never double-counts.
//!
//! What is measured:
//!
//! * **WAL latency** — `append` (media write), `sync` (fsync), and
//!   `commit` (append + fsync of the commit record) each feed a fixed
//!   cumulative-bucket histogram in microseconds.
//! * **Checkpoint progress** — an `active` gauge (a checkpoint is
//!   running right now), the completed-checkpoint count, the last base
//!   snapshot's byte size, and checkpoint latency.

use osql_chk::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Cumulative histogram bucket bounds, in microseconds. Operations
/// beyond the last bound are counted in no bucket, only in the total.
pub const STORE_US_BOUNDS: [u64; 10] =
    [50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000];

/// One latency instrument: count, total, and cumulative bucket counts.
#[derive(Debug, Default)]
pub struct LatencyCell {
    count: AtomicU64,
    total_us: AtomicU64,
    buckets: [AtomicU64; STORE_US_BOUNDS.len()],
}

/// A plain-value copy of a [`LatencyCell`], safe to mirror or render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Operations recorded.
    pub count: u64,
    /// Total microseconds across all operations.
    pub total_us: u64,
    /// `(upper_bound_us, cumulative_count)` pairs; operations beyond the
    /// last bound appear only in `count`.
    pub buckets: Vec<(u64, u64)>,
}

impl LatencyCell {
    /// Record one operation that took `us` microseconds.
    pub fn record_us(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        for (i, bound) in STORE_US_BOUNDS.iter().enumerate() {
            if us <= *bound {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Operations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total microseconds recorded so far.
    pub fn total_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed)
    }

    /// Copy the current values out.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
            buckets: STORE_US_BOUNDS
                .iter()
                .zip(&self.buckets)
                .map(|(bound, cell)| (*bound, cell.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

/// The process-wide store instrumentation (see module docs).
#[derive(Debug, Default)]
pub struct StoreStats {
    /// WAL media-write latency.
    pub wal_append: LatencyCell,
    /// WAL fsync latency.
    pub wal_sync: LatencyCell,
    /// WAL commit latency (the transaction's one append + fsync).
    pub wal_commit: LatencyCell,
    /// Checkpoint latency, end to end.
    pub checkpoint: LatencyCell,
    checkpoints_active: AtomicU64,
    checkpoint_last_bytes: AtomicU64,
}

impl StoreStats {
    /// Mark a checkpoint as started (raises the `active` gauge).
    pub fn checkpoint_begin(&self) {
        self.checkpoints_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark a checkpoint as finished: lowers the gauge, records its
    /// latency, and remembers the new base snapshot's size.
    pub fn checkpoint_end(&self, us: u64, base_bytes: u64) {
        self.checkpoints_active.fetch_sub(1, Ordering::Relaxed);
        self.checkpoint.record_us(us);
        self.checkpoint_last_bytes.store(base_bytes, Ordering::Relaxed);
    }

    /// Checkpoints running right now (progress gauge).
    pub fn checkpoints_active(&self) -> u64 {
        self.checkpoints_active.load(Ordering::Relaxed)
    }

    /// Byte size of the most recently written base snapshot.
    pub fn checkpoint_last_bytes(&self) -> u64 {
        self.checkpoint_last_bytes.load(Ordering::Relaxed)
    }
}

/// The shared [`StoreStats`] every store in the process reports into.
pub fn store_stats() -> &'static StoreStats {
    static GLOBAL: OnceLock<StoreStats> = OnceLock::new();
    GLOBAL.get_or_init(StoreStats::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_cell_accumulates_cumulative_buckets() {
        let cell = LatencyCell::default();
        cell.record_us(80); // ≤ 100 and everything above
        cell.record_us(600); // ≤ 1_000 and above
        cell.record_us(999_999); // beyond the last bound: count only
        let snap = cell.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.total_us, 80 + 600 + 999_999);
        let at = |bound: u64| snap.buckets.iter().find(|(b, _)| *b == bound).unwrap().1;
        assert_eq!(at(50), 0);
        assert_eq!(at(100), 1);
        assert_eq!(at(500), 1);
        assert_eq!(at(1_000), 2);
        assert_eq!(at(250_000), 2);
    }

    #[test]
    fn checkpoint_gauge_rises_and_falls() {
        let stats = StoreStats::default();
        stats.checkpoint_begin();
        assert_eq!(stats.checkpoints_active(), 1);
        stats.checkpoint_end(1_500, 4096);
        assert_eq!(stats.checkpoints_active(), 0);
        assert_eq!(stats.checkpoint_last_bytes(), 4096);
        assert_eq!(stats.checkpoint.count(), 1);
    }
}
