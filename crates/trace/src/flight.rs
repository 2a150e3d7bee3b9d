//! The flight recorder: a bounded ring of *completed request records*
//! for post-hoc incident analysis — the one place a served request is
//! kept.
//!
//! It answers "what happened to request `7f3a…-0042`" — including
//! requests that never reached the pipeline (shed, quota-rejected,
//! coalesced onto another flight). Every request produces one
//! [`RequestRecord`] carrying its ID, database, question hash, stage
//! timings, outcome, queue wait, and cache/coalesce flags.
//!
//! Two policies keep it cheap enough for the serve path:
//!
//! - **Bounded retention.** Records land in one drop-oldest ring of
//!   `capacity` records behind one lock, so the recorder keeps exactly
//!   the last `capacity` records and memory is capped. The ring only
//!   ever evicts *completed* records: a writer registered via
//!   [`FlightRecorder::begin`] cannot have its in-flight registration
//!   displaced, and its [`FlightRecorder::finish`] always lands (the
//!   model suite in `tests/model.rs` explores this).
//! - **Tail-sampling.** The full span tree and EXPLAIN text are retained
//!   only for *interesting* requests — slow (over the configured latency
//!   or rows-scanned threshold) or non-`Ok` outcomes. Everything else
//!   keeps the compact record and drops the heavy payloads. The decision
//!   is made exactly once, under the ring lock, from the record's own
//!   totals — never from racy global state.
//!
//! Slow records are additionally appended to an optional JSONL sink
//! (the slow-query log); sink errors are swallowed — observability never
//! fails a request.

use crate::json::ObjectWriter;
use crate::model::QueryTrace;
use osql_chk::atomic::{AtomicU64, Ordering};
use osql_chk::Mutex;
use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a over a byte string; the workspace's standard cheap hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Is `s` acceptable as an externally supplied trace ID? (1–64 chars of
/// `[A-Za-z0-9._-]` — enough for UUIDs, ULIDs, and our own format, while
/// keeping IDs safe to echo into headers, JSON, and log lines.)
pub fn valid_trace_id(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Generates request IDs in the deterministic format
/// `{seed:08x}-{counter:08x}`: a fixed-width seed tag (stable for one
/// generator) plus a monotonically increasing counter, so IDs sort in
/// admission order and tests can predict them exactly.
#[derive(Debug)]
pub struct RequestIdGen {
    seed: u64,
    counter: AtomicU64,
}

impl RequestIdGen {
    /// A generator whose IDs carry `seed`'s low 32 bits as their prefix.
    pub fn new(seed: u64) -> Self {
        RequestIdGen { seed: seed & 0xffff_ffff, counter: AtomicU64::new(0) }
    }

    /// The next ID: `{seed:08x}-{counter:08x}`.
    pub fn next(&self) -> String {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{:08x}", self.seed, n & 0xffff_ffff)
    }
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Answered (from the pipeline or the result cache).
    Ok,
    /// Failed with an error (unknown db, load failure, worker lost).
    Error,
    /// Load-shed: the admission controller refused it (queue full).
    Shed,
    /// Rejected by the per-key quota.
    Quota,
    /// Canceled by shutdown before an answer arrived.
    Canceled,
    /// Rejected on a follower whose applied sequence had not yet
    /// reached the request's bounded-staleness floor.
    Stale,
}

impl RequestOutcome {
    /// Stable lower-case label for JSON and log lines.
    pub fn label(self) -> &'static str {
        match self {
            RequestOutcome::Ok => "ok",
            RequestOutcome::Error => "error",
            RequestOutcome::Shed => "shed",
            RequestOutcome::Quota => "quota",
            RequestOutcome::Canceled => "canceled",
            RequestOutcome::Stale => "stale",
        }
    }
}

/// One completed request, as the flight recorder retains it.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// The request's trace ID (generated or client-supplied).
    pub id: String,
    /// Target database.
    pub db_id: String,
    /// FNV-1a hash of the normalized question — enough to correlate
    /// repeats without retaining user text for every request.
    pub question_hash: u64,
    /// How the request ended.
    pub outcome: RequestOutcome,
    /// Error message for non-`Ok` outcomes.
    pub error: Option<String>,
    /// Milliseconds spent waiting in the runtime queue.
    pub queue_wait_ms: f64,
    /// End-to-end milliseconds (queue wait + serve).
    pub total_ms: f64,
    /// Per-stage pipeline milliseconds, in pipeline order.
    pub stage_ms: Vec<(&'static str, f64)>,
    /// Rows scanned by the SQL executor while serving this request.
    pub rows_scanned: u64,
    /// Whether the result cache answered without a pipeline run.
    pub from_cache: bool,
    /// When this request coalesced onto another in-flight request, the
    /// *leader's* trace ID (the one whose record has the real timings).
    pub coalesced_into: Option<String>,
    /// Set by the recorder: did this record cross a slow threshold?
    pub slow: bool,
    /// Set by the recorder: global completion sequence number.
    pub seq: u64,
    /// Tail-sampled span tree — retained only for slow/error records.
    pub trace: Option<Arc<QueryTrace>>,
    /// Tail-sampled `EXPLAIN` (estimated vs actual rows per operator) —
    /// captured only for slow records.
    pub explain: Option<String>,
}

impl RequestRecord {
    /// A fresh `Ok` record with zeroed timings; callers fill what they
    /// measured before handing it to [`FlightRecorder::finish`].
    pub fn new(id: impl Into<String>, db_id: impl Into<String>) -> Self {
        RequestRecord {
            id: id.into(),
            db_id: db_id.into(),
            question_hash: 0,
            outcome: RequestOutcome::Ok,
            error: None,
            queue_wait_ms: 0.0,
            total_ms: 0.0,
            stage_ms: Vec::new(),
            rows_scanned: 0,
            from_cache: false,
            coalesced_into: None,
            slow: false,
            seq: 0,
            trace: None,
            explain: None,
        }
    }

    /// One JSON object describing this record (no trailing newline).
    /// Used by the `/debug` endpoints, the CLI, and the slow-log sink.
    pub fn to_json(&self, include_payloads: bool) -> String {
        let mut obj = ObjectWriter::new();
        obj.str_field("id", &self.id)
            .str_field("db_id", &self.db_id)
            .str_field("question_hash", &format!("{:016x}", self.question_hash))
            .str_field("outcome", self.outcome.label());
        if let Some(err) = &self.error {
            obj.str_field("error", err);
        }
        let mut stages = ObjectWriter::new();
        for (stage, ms) in &self.stage_ms {
            stages.f64_field(stage, *ms);
        }
        obj.f64_field("queue_wait_ms", self.queue_wait_ms)
            .f64_field("total_ms", self.total_ms)
            .raw_field("stage_ms", &stages.finish())
            .u64_field("rows_scanned", self.rows_scanned)
            .bool_field("from_cache", self.from_cache);
        if let Some(leader) = &self.coalesced_into {
            obj.str_field("coalesced_into", leader);
        }
        obj.bool_field("slow", self.slow).u64_field("seq", self.seq);
        if include_payloads {
            if let Some(trace) = &self.trace {
                obj.str_field("trace", &trace.render_tree());
            }
            if let Some(explain) = &self.explain {
                obj.str_field("explain", explain);
            }
        } else {
            obj.bool_field("sampled", self.trace.is_some() || self.explain.is_some());
        }
        obj.finish()
    }
}

/// Flight-recorder sizing and slow-query thresholds.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Records retained. `0` disables the recorder entirely (every call
    /// becomes a no-op).
    pub capacity: usize,
    /// A request at or over this many end-to-end milliseconds is *slow*:
    /// its span tree and EXPLAIN are retained and it enters the slow log.
    pub slow_ms: f64,
    /// A request scanning at least this many rows is slow regardless of
    /// latency.
    pub slow_rows: u64,
    /// Append slow records as JSON lines to this file (best-effort).
    pub slow_log_path: Option<std::path::PathBuf>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 512,
            slow_ms: 250.0,
            slow_rows: 100_000,
            slow_log_path: None,
        }
    }
}

#[derive(Debug, Default)]
struct Ring {
    /// IDs registered via `begin` whose `finish` has not arrived yet.
    inflight: Vec<String>,
    /// Completed records, oldest first.
    records: VecDeque<RequestRecord>,
}

/// The bounded ring of completed request records. See the module docs
/// for the retention and tail-sampling policies.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    config: FlightConfig,
    seq: AtomicU64,
    finished: AtomicU64,
    dropped: AtomicU64,
    slow_total: AtomicU64,
    last_slow: Mutex<Option<Instant>>,
    sink: Option<Mutex<std::fs::File>>,
}

impl FlightRecorder {
    /// Build a recorder; `config.capacity == 0` yields a disabled
    /// recorder whose every operation is a cheap no-op.
    pub fn new(config: FlightConfig) -> Self {
        let sink = if config.capacity == 0 {
            None
        } else {
            config.slow_log_path.as_ref().and_then(|p| {
                std::fs::OpenOptions::new().create(true).append(true).open(p).ok().map(Mutex::new)
            })
        };
        FlightRecorder {
            ring: Mutex::new(Ring::default()),
            config,
            seq: AtomicU64::new(0),
            finished: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slow_total: AtomicU64::new(0),
            last_slow: Mutex::new(None),
            sink,
        }
    }

    /// Whether the recorder retains anything at all.
    pub fn enabled(&self) -> bool {
        self.config.capacity > 0
    }

    /// Register `id` as in flight. Until the matching [`Self::finish`] (or
    /// [`Self::abandon`]) the registration is pinned: ring eviction only
    /// ever displaces completed records, so a registered writer's record
    /// cannot be lost to a wraparound that happens while it runs.
    pub fn begin(&self, id: &str) {
        if !self.enabled() {
            return;
        }
        self.ring.lock().inflight.push(id.to_owned());
    }

    /// Drop an in-flight registration without recording anything (the
    /// request never actually started — e.g. its submit failed).
    pub fn abandon(&self, id: &str) {
        let mut ring = self.ring.lock();
        if let Some(pos) = ring.inflight.iter().position(|x| x == id) {
            ring.inflight.swap_remove(pos);
        }
    }

    /// Complete a request: stamp the record, make the tail-sampling
    /// decision, insert into the ring (evicting the oldest completed
    /// record when the ring is full), and append to the slow log when
    /// it crossed a threshold. Pairs with [`Self::begin`]; also accepts
    /// records that were never registered (one-shot [`Self::record`]).
    pub fn finish(&self, mut rec: RequestRecord) {
        if !self.enabled() {
            return;
        }
        rec.slow = rec.total_ms >= self.config.slow_ms || rec.rows_scanned >= self.config.slow_rows;
        let slow = rec.slow;
        let interesting = rec.slow || rec.outcome != RequestOutcome::Ok;
        let sink_line = {
            let mut ring = self.ring.lock();
            // Stamped under the ring lock so ring order always agrees with
            // the sequence — drop-oldest can then never evict a record
            // that completed *after* the one it keeps.
            rec.seq = self.seq.fetch_add(1, Ordering::Relaxed);
            if let Some(pos) = ring.inflight.iter().position(|x| x == &rec.id) {
                ring.inflight.swap_remove(pos);
            }
            // The tail-sampling decision happens here, once, under the
            // ring lock, from this record's own totals: no later reader
            // can observe a half-sampled record, and concurrent finishes
            // cannot influence each other's decision.
            if !interesting {
                rec.trace = None;
                rec.explain = None;
            }
            if ring.records.len() >= self.config.capacity {
                ring.records.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            // The slow-log line is rendered before the record moves into
            // the ring; the common fast path never clones the record.
            let line = (slow && self.sink.is_some()).then(|| rec.to_json(true));
            ring.records.push_back(rec);
            line
        };
        self.finished.fetch_add(1, Ordering::Relaxed);
        if slow {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            // chk:allow(wall-clock): operational freshness marker for healthz, never rendered into logical output
            *self.last_slow.lock() = Some(Instant::now());
            if let (Some(sink), Some(line)) = (&self.sink, sink_line) {
                let mut file = sink.lock();
                let _ = writeln!(file, "{line}");
            }
        }
    }

    /// One-shot `begin` + `finish` for requests that never ran (shed,
    /// quota-rejected, coalesced waiters).
    pub fn record(&self, rec: RequestRecord) {
        self.finish(rec);
    }

    /// Convert every still-registered in-flight ID into a `Canceled`
    /// record (runtime shutdown: queued jobs were dropped unanswered).
    /// Returns how many registrations were swept.
    pub fn cancel_inflight(&self) -> usize {
        let ids = std::mem::take(&mut self.ring.lock().inflight);
        let swept = ids.len();
        for id in ids {
            let mut rec = RequestRecord::new(id, "");
            rec.outcome = RequestOutcome::Canceled;
            rec.error = Some("canceled by shutdown".to_owned());
            self.finish(rec);
        }
        swept
    }

    /// The record for `id`, newest match first.
    pub fn lookup(&self, id: &str) -> Option<RequestRecord> {
        self.ring.lock().records.iter().rev().find(|r| r.id == id).cloned()
    }

    /// Up to `n` most recent records, newest first.
    pub fn recent(&self, n: usize) -> Vec<RequestRecord> {
        self.matching(n, |_| true)
    }

    /// Up to `n` most recent *slow* records, newest first.
    pub fn slow(&self, n: usize) -> Vec<RequestRecord> {
        self.matching(n, |r| r.slow)
    }

    /// Up to `n` most recent records matching `pred`, newest first —
    /// post-hoc queries like "every shed request for db X".
    pub fn matching(&self, n: usize, pred: impl Fn(&RequestRecord) -> bool) -> Vec<RequestRecord> {
        self.ring.lock().records.iter().rev().filter(|r| pred(r)).take(n).cloned().collect()
    }

    /// Records currently retained.
    pub fn depth(&self) -> usize {
        self.ring.lock().records.len()
    }

    /// Maximum retained records.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// IDs registered via [`Self::begin`] that have not finished.
    pub fn inflight_len(&self) -> usize {
        self.ring.lock().inflight.len()
    }

    /// Records ever completed.
    pub fn finished(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Completed records evicted by the drop-oldest policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records that crossed a slow threshold, ever.
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// Seconds since the most recent slow record, `None` before the
    /// first one. Load balancers read this from `/healthz`.
    pub fn last_slow_age_secs(&self) -> Option<u64> {
        let last = *self.last_slow.lock();
        // chk:allow(wall-clock): operational freshness probe for healthz, never rendered into logical output
        last.map(|t| t.elapsed().as_secs())
    }

    /// The active slow thresholds `(slow_ms, slow_rows)`.
    pub fn thresholds(&self) -> (f64, u64) {
        (self.config.slow_ms, self.config.slow_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Trace;

    fn trace() -> Arc<QueryTrace> {
        let mut t = Trace::new();
        let s = t.start("q");
        t.end(s);
        Arc::new(t.finish())
    }

    fn rec(id: &str, total_ms: f64) -> RequestRecord {
        let mut r = RequestRecord::new(id, "db");
        r.total_ms = total_ms;
        r.trace = Some(trace());
        r.explain = Some("plan".to_owned());
        r
    }

    fn config(capacity: usize) -> FlightConfig {
        FlightConfig { capacity, slow_ms: 100.0, slow_rows: 1000, slow_log_path: None }
    }

    #[test]
    fn id_gen_is_deterministic_and_valid() {
        let gen = RequestIdGen::new(0xABCD);
        assert_eq!(gen.next(), "0000abcd-00000000");
        assert_eq!(gen.next(), "0000abcd-00000001");
        assert!(valid_trace_id(&gen.next()));
        assert!(valid_trace_id("client-supplied.ID_01"));
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id("has space"));
        assert!(!valid_trace_id(&"x".repeat(65)));
    }

    #[test]
    fn tail_sampling_keeps_payloads_only_for_interesting_records() {
        let fr = FlightRecorder::new(config(16));
        fr.finish(rec("fast", 1.0));
        fr.finish(rec("slow", 500.0));
        let mut err = rec("err", 1.0);
        err.outcome = RequestOutcome::Error;
        err.error = Some("boom".to_owned());
        fr.finish(err);

        let fast = fr.lookup("fast").unwrap();
        assert!(!fast.slow && fast.trace.is_none() && fast.explain.is_none());
        let slow = fr.lookup("slow").unwrap();
        assert!(slow.slow && slow.trace.is_some() && slow.explain.is_some());
        let err = fr.lookup("err").unwrap();
        assert!(!err.slow && err.trace.is_some(), "errors keep their span tree");
        assert_eq!(fr.slow_total(), 1);
        assert_eq!(fr.slow(10).len(), 1);
        assert!(fr.last_slow_age_secs().is_some());
    }

    #[test]
    fn rows_scanned_threshold_also_marks_slow() {
        let fr = FlightRecorder::new(config(16));
        let mut r = rec("scan", 1.0);
        r.rows_scanned = 5000;
        fr.finish(r);
        assert!(fr.lookup("scan").unwrap().slow);
    }

    #[test]
    fn ring_drops_oldest_and_counts_it() {
        let fr = FlightRecorder::new(config(2));
        for i in 0..5 {
            fr.finish(rec(&format!("r{i}"), 1.0));
        }
        assert_eq!(fr.depth(), 2);
        assert_eq!(fr.dropped(), 3);
        assert!(fr.lookup("r0").is_none());
        assert!(fr.lookup("r4").is_some());
        let recent = fr.recent(10);
        assert_eq!(recent.len(), 2);
        assert!(recent[0].seq > recent[1].seq, "newest first");
    }

    #[test]
    fn the_ring_keeps_the_last_capacity_records_whatever_their_ids() {
        let fr = FlightRecorder::new(FlightConfig { capacity: 512, ..FlightConfig::default() });
        // 65 IDs whose hashes share one residue mod 8: retention follows
        // completion order alone, never where an ID happens to hash
        let colliding: Vec<String> = (0..)
            .map(|i| format!("r{i}"))
            .filter(|id| fnv1a(id.as_bytes()).is_multiple_of(8))
            .take(65)
            .collect();
        for id in &colliding {
            fr.finish(rec(id, 1.0));
        }
        assert_eq!((fr.depth(), fr.dropped()), (65, 0));
        assert!(colliding.iter().all(|id| fr.lookup(id).is_some()));
        for i in 65..513 {
            fr.finish(rec(&format!("fill{i}"), 1.0));
        }
        assert_eq!((fr.depth(), fr.dropped()), (512, 1));
        assert!(fr.lookup(&colliding[0]).is_none(), "the lowest seq is the one dropped");
        let seqs: Vec<u64> = fr.recent(513).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..513).rev().collect::<Vec<u64>>());
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let fr = FlightRecorder::new(config(0));
        assert!(!fr.enabled());
        fr.begin("x");
        fr.finish(rec("x", 500.0));
        assert_eq!(fr.depth(), 0);
        assert_eq!(fr.capacity(), 0);
        assert!(fr.lookup("x").is_none());
        assert_eq!(fr.slow_total(), 0);
    }

    #[test]
    fn begin_and_abandon_track_inflight() {
        let fr = FlightRecorder::new(config(8));
        fr.begin("a");
        fr.begin("b");
        assert_eq!(fr.inflight_len(), 2);
        fr.abandon("a");
        assert_eq!(fr.inflight_len(), 1);
        fr.finish(rec("b", 1.0));
        assert_eq!(fr.inflight_len(), 0);
        assert!(fr.lookup("b").is_some());
    }

    #[test]
    fn matching_filters_by_predicate() {
        let fr = FlightRecorder::new(config(16));
        let mut shed = rec("s1", 0.0);
        shed.outcome = RequestOutcome::Shed;
        fr.record(shed);
        fr.finish(rec("ok1", 1.0));
        let sheds = fr.matching(10, |r| r.outcome == RequestOutcome::Shed);
        assert_eq!(sheds.len(), 1);
        assert_eq!(sheds[0].id, "s1");
    }

    #[test]
    fn slow_log_sink_appends_jsonl() {
        let dir = std::env::temp_dir().join(format!("osql-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        let _ = std::fs::remove_file(&path);
        let fr = FlightRecorder::new(FlightConfig {
            slow_log_path: Some(path.clone()),
            ..config(16)
        });
        fr.finish(rec("fast", 1.0));
        fr.finish(rec("slow", 500.0));
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 1, "only slow records are logged");
        assert!(lines[0].contains("\"id\":\"slow\""));
        assert!(lines[0].contains("\"explain\":\"plan\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_json_escapes_and_carries_fields() {
        let mut r = RequestRecord::new("id-1", "db\"x");
        r.stage_ms = vec![("extraction", 1.5)];
        r.coalesced_into = Some("leader-1".to_owned());
        let json = r.to_json(false);
        assert!(json.contains("\"db_id\":\"db\\\"x\""));
        assert!(json.contains("\"db\\\"x\",\"question_hash\":\"0000000000000000\""));
        assert!(json.contains("\"stage_ms\":{\"extraction\":1.50}"));
        assert!(json.contains("\"coalesced_into\":\"leader-1\""));
        assert!(json.contains("\"sampled\":false"));
        // every field must be comma-separated and every value quoted or
        // numeric — a crude structural check that catches bare tokens
        for window in json.as_bytes().windows(2) {
            assert!(
                !(window[0] == b'"' && window[1] == b'"'),
                "adjacent quotes (missing comma) in {json}"
            );
        }
    }
}
