//! Shared replication state: the bridge between a follower's apply loop
//! and whatever serves reads off the replica (the HTTP layer, the CLI,
//! metrics).
//!
//! [`ReplState`] is deliberately small and chk-shimmed: the apply loop
//! publishes per-database applied/target sequences after every poll —
//! the applied one being the follower's *synced* watermark, never a
//! commit its log could still lose — the serving side reads them to
//! answer bounded-staleness requests, and a shutdown flag lets the loop
//! stop *between* transactions — the loop checks it at round boundaries,
//! and the store's per-transaction commit records make mid-transaction
//! interruption impossible to observe anyway (the model suite pins all
//! three properties under the deterministic scheduler).

use crate::follow::ApplyReport;
use osql_chk::atomic::{AtomicBool, AtomicU64, Ordering};
use osql_chk::Mutex;
use std::collections::HashMap;

/// Replication status of one database, as last reported by its apply
/// loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbReplStatus {
    /// Last shipped commit applied and synced locally (monotonic).
    pub applied_seq: u64,
    /// The manifest's advertised last commit at the last poll.
    pub target_seq: u64,
    /// Total transactions applied since this process started.
    pub txns_applied: u64,
    /// Total segment files fetched since this process started.
    pub segments_fetched: u64,
    /// Total poll rounds completed (including no-op rounds).
    pub polls: u64,
    /// The last poll error, if the most recent round failed.
    pub last_error: Option<String>,
}

impl DbReplStatus {
    /// Replication lag in commits (target minus applied; 0 when caught
    /// up or when the local store ran ahead of the manifest).
    pub fn lag(&self) -> u64 {
        self.target_seq.saturating_sub(self.applied_seq)
    }
}

/// Process-wide replication state shared by the apply loop and the
/// serving side.
#[derive(Debug, Default)]
pub struct ReplState {
    dbs: Mutex<HashMap<String, DbReplStatus>>,
    stale_rejections: AtomicU64,
    retry_hint_secs: AtomicU64,
    shutdown: AtomicBool,
}

impl ReplState {
    /// Fresh state; `retry_hint_secs` seeds the `Retry-After` hint
    /// handed to clients whose bounded-staleness floor is not yet met.
    pub fn new(retry_hint_secs: u64) -> Self {
        let state = ReplState::default();
        state.retry_hint_secs.store(retry_hint_secs, Ordering::Relaxed);
        state
    }

    /// Record the outcome of one successful poll round for `db`.
    pub fn note_poll(&self, db: &str, report: &ApplyReport) {
        let mut dbs = self.dbs.lock();
        let status = dbs.entry(db.to_owned()).or_default();
        // applied_seq is monotonic even if reports arrive confused
        status.applied_seq = status.applied_seq.max(report.applied_seq);
        status.target_seq = status.target_seq.max(report.target_seq);
        status.txns_applied += report.applied_txns;
        status.segments_fetched += report.segments_read;
        status.polls += 1;
        status.last_error = None;
    }

    /// Record a failed poll round for `db` (applied/target keep their
    /// last known values).
    pub fn note_error(&self, db: &str, error: &str) {
        let mut dbs = self.dbs.lock();
        let status = dbs.entry(db.to_owned()).or_default();
        status.polls += 1;
        status.last_error = Some(error.to_owned());
    }

    /// The applied sequence for `db`; `None` when no apply loop has
    /// reported it yet (serving must then treat every floor as unmet).
    pub fn applied_seq(&self, db: &str) -> Option<u64> {
        self.dbs.lock().get(db).map(|s| s.applied_seq)
    }

    /// Full status for `db`.
    pub fn status(&self, db: &str) -> Option<DbReplStatus> {
        self.dbs.lock().get(db).cloned()
    }

    /// Every tracked database, sorted by name (for /healthz and CLI).
    pub fn snapshot(&self) -> Vec<(String, DbReplStatus)> {
        let dbs = self.dbs.lock();
        let mut out: Vec<_> = dbs.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Worst lag across all tracked databases.
    pub fn max_lag(&self) -> u64 {
        self.dbs.lock().values().map(DbReplStatus::lag).max().unwrap_or(0)
    }

    /// Count one read rejected for an unmet bounded-staleness floor.
    pub fn record_stale_rejection(&self) {
        self.stale_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Total reads rejected for unmet staleness floors.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejections.load(Ordering::Relaxed)
    }

    /// The `Retry-After` hint (seconds) for stale rejections.
    pub fn retry_hint_secs(&self) -> u64 {
        self.retry_hint_secs.load(Ordering::Relaxed)
    }

    /// Ask the apply loop to stop at the next round boundary.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Has shutdown been requested? The apply loop checks this between
    /// rounds; it never interrupts a transaction mid-apply.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(applied: u64, target: u64, txns: u64) -> ApplyReport {
        ApplyReport {
            target_seq: target,
            applied_seq: applied,
            applied_txns: txns,
            stmts_applied: txns,
            segments_read: 1,
            finding: None,
        }
    }

    #[test]
    fn polls_accumulate_and_lag_is_target_minus_applied() {
        let state = ReplState::new(2);
        assert_eq!(state.applied_seq("db"), None);
        state.note_poll("db", &report(3, 5, 3));
        state.note_poll("db", &report(5, 5, 2));
        let status = state.status("db").unwrap();
        assert_eq!(status.applied_seq, 5);
        assert_eq!(status.txns_applied, 5);
        assert_eq!(status.polls, 2);
        assert_eq!(status.lag(), 0);
        state.note_poll("other", &report(1, 9, 1));
        assert_eq!(state.max_lag(), 8);
        assert_eq!(state.snapshot().len(), 2);
        assert_eq!(state.retry_hint_secs(), 2);
    }

    #[test]
    fn errors_keep_the_last_known_position() {
        let state = ReplState::new(1);
        state.note_poll("db", &report(4, 4, 4));
        state.note_error("db", "segment vanished");
        let status = state.status("db").unwrap();
        assert_eq!(status.applied_seq, 4, "position survives a failed round");
        assert_eq!(status.last_error.as_deref(), Some("segment vanished"));
        assert_eq!(status.polls, 2);
        // a later good round clears the error
        state.note_poll("db", &report(5, 5, 1));
        assert_eq!(state.status("db").unwrap().last_error, None);
    }

    #[test]
    fn applied_seq_never_regresses() {
        let state = ReplState::new(1);
        state.note_poll("db", &report(7, 7, 7));
        state.note_poll("db", &report(3, 3, 0));
        assert_eq!(state.applied_seq("db"), Some(7));
    }

    #[test]
    fn shutdown_and_stale_counters() {
        let state = ReplState::new(1);
        assert!(!state.shutdown_requested());
        state.request_shutdown();
        assert!(state.shutdown_requested());
        state.record_stale_rejection();
        state.record_stale_rejection();
        assert_eq!(state.stale_rejections(), 2);
    }
}
