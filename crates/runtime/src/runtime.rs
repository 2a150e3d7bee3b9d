//! The serving runtime: a worker pool draining a bounded request queue
//! into pipeline runs, fronted by the two-level cache and instrumented
//! through the metrics registry.
//!
//! A result-cache hit never reaches the pool: `submit` / `try_submit`
//! probe the cache on the calling thread and hand back a [`Ticket`] that
//! is already answered — no queue slot, no worker, no wake-up. A miss is
//! queued, and the worker looks again on dequeue, so a duplicate queued
//! behind its twin still hits.
//!
//! Worker count is a pure throughput knob: requests don't interact (the
//! pipeline is deterministic per question and the caches only memoise),
//! so the answer to every request — and any EX score computed over the
//! answers — is identical at 1 worker and at 8.

use crate::cache::{
    config_fingerprint, normalize_question, AssetCache, AssetMiss, ResultCache, ResultKey,
};
use crate::metrics::{MetricsRegistry, FRACTION_BOUNDS};
use crate::queue::{BoundedQueue, PushError};
use crate::window::{LogicalClock, SloConfig, SloReport, WindowedMetrics};
use opensearch_sql::{EvalReport, Module, PipelineRun};
use osql_trace::flight::{fnv1a, FlightConfig, FlightRecorder, RequestIdGen, RequestOutcome, RequestRecord};
use osql_trace::{active, QueryTrace, TraceCollector};
use osql_chk::atomic::{AtomicBool, AtomicU64, Ordering};
use osql_chk::{oneshot, Mutex};
use std::sync::Arc;
use std::time::Instant;

/// Round a fractional retry hint in seconds up to whole seconds, clamped
/// to `[1, cap]`. **The** shared rounding for every `Retry-After` the
/// stack emits — admission control ([`QueueStats::estimated_drain_secs`])
/// and the server's quota rejections both route through it, so the two
/// paths can never drift apart in how they round.
pub fn retry_after_secs(estimate_secs: f64, cap: u64) -> u64 {
    let cap = cap.max(1);
    if !estimate_secs.is_finite() {
        return cap;
    }
    (estimate_secs.ceil() as u64).clamp(1, cap)
}

/// One query for the runtime to serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Target database id.
    pub db_id: String,
    /// Natural-language question.
    pub question: String,
    /// External knowledge / evidence string (may be empty).
    pub evidence: String,
    /// Request trace ID. Empty ⇒ the runtime assigns one at submit; set
    /// it (via [`QueryRequest::with_trace_id`]) to propagate an ID the
    /// caller already handed out, e.g. from an `X-Osql-Trace-Id` header.
    pub trace_id: String,
    /// The database's applied position at admission (see
    /// [`ResultKey::seq`]); 0 on a primary or a static world.
    pub seq: u64,
}

impl QueryRequest {
    /// Build a request (the runtime will assign its trace ID).
    pub fn new(
        db_id: impl Into<String>,
        question: impl Into<String>,
        evidence: impl Into<String>,
    ) -> Self {
        QueryRequest {
            db_id: db_id.into(),
            question: question.into(),
            evidence: evidence.into(),
            trace_id: String::new(),
            seq: 0,
        }
    }

    /// Carry a caller-chosen trace ID through the queue and pipeline.
    pub fn with_trace_id(mut self, trace_id: impl Into<String>) -> Self {
        self.trace_id = trace_id.into();
        self
    }

    /// Answer on data at least as new as applied position `seq`, cached
    /// under that position.
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }
}

/// A served answer.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The pipeline run that answered the question (possibly replayed
    /// from the result cache).
    pub run: Arc<PipelineRun>,
    /// Whether the result cache answered without running the pipeline.
    pub from_cache: bool,
    /// Wall-clock milliseconds the request sat in the queue: 0 for a
    /// result-cache hit answered on the submitting thread, which never
    /// queued.
    pub queue_wait_ms: f64,
    /// The trace ID this request ran under — the key into
    /// [`Runtime::flight`] and `/debug/trace/<id>`.
    pub trace_id: String,
}

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The benchmark has no database with this id.
    UnknownDb(String),
    /// The database's store file exists but failed to load (disk I/O
    /// error or corruption) — deliberately distinct from [`Self::UnknownDb`]
    /// so storage trouble is never mistaken for a bad request.
    DbLoadFailed {
        /// Database id whose store failed to load.
        db_id: String,
        /// The loader's error.
        reason: String,
    },
    /// The reply channel died before an answer arrived. The reason says
    /// whether that was an orderly shutdown (retryable elsewhere — a
    /// server maps it to 503) or a lost worker (a bug — 500); conflating
    /// the two would let panics masquerade as clean drains.
    Canceled {
        /// What killed the reply channel.
        reason: CancelReason,
    },
}

/// Why a pending request's reply channel died (see
/// [`ServeError::Canceled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The runtime was shut down before (or while) the request ran.
    Shutdown,
    /// The reply sender vanished while the runtime was still accepting
    /// work — a worker panicked mid-job or the job was dropped without a
    /// reply. This is a defect, not an operational state.
    WorkerLost,
}

impl ServeError {
    /// Shorthand for an orderly-shutdown cancellation.
    pub fn canceled_by_shutdown() -> Self {
        ServeError::Canceled { reason: CancelReason::Shutdown }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownDb(id) => write!(f, "unknown database: {id}"),
            ServeError::DbLoadFailed { db_id, reason } => {
                write!(f, "database {db_id} failed to load: {reason}")
            }
            ServeError::Canceled { reason: CancelReason::Shutdown } => {
                f.write_str("request canceled by shutdown")
            }
            ServeError::Canceled { reason: CancelReason::WorkerLost } => {
                f.write_str("request lost: reply channel died without a shutdown")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity (only from `try_submit`).
    QueueFull,
    /// The runtime is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("request queue full"),
            SubmitError::ShuttingDown => f.write_str("runtime shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A pending answer; redeem with [`Ticket::wait`].
pub struct Ticket(Reply);

enum Reply {
    /// A result-cache hit, answered on the submitting thread.
    Ready(QueryResponse),
    /// Queued: a worker replies through the channel.
    Queued {
        rx: oneshot::Receiver<Result<QueryResponse, ServeError>>,
        queue: Arc<BoundedQueue<Job>>,
    },
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    fn queued(
        rx: oneshot::Receiver<Result<QueryResponse, ServeError>>,
        queue: Arc<BoundedQueue<Job>>,
    ) -> Ticket {
        Ticket(Reply::Queued { rx, queue })
    }

    /// Block until the answer arrives; a result-cache hit's ticket is
    /// answered already.
    ///
    /// A dead reply channel is reported as [`ServeError::Canceled`] with
    /// a reason: [`CancelReason::Shutdown`] when the runtime's queue has
    /// been closed (orderly drain), [`CancelReason::WorkerLost`] when it
    /// hasn't — the sender can only have vanished to a worker panic.
    pub fn wait(self) -> Result<QueryResponse, ServeError> {
        let (rx, queue) = match self.0 {
            Reply::Ready(resp) => return Ok(resp),
            Reply::Queued { rx, queue } => (rx, queue),
        };
        rx.recv().unwrap_or_else(|_| {
            let reason = if queue.is_closed() {
                CancelReason::Shutdown
            } else {
                CancelReason::WorkerLost
            };
            Err(ServeError::Canceled { reason })
        })
    }
}

/// Test-support hooks for the model-checking suite; compiled only under
/// `--cfg osql_model` and used by `tests/model.rs`.
#[cfg(osql_model)]
#[doc(hidden)]
pub mod model_support {
    use super::*;

    /// A [`Ticket`] wired to a fresh empty queue, with its reply sender
    /// and a closure that closes the queue — the three handles the
    /// cancellation-race model test needs.
    #[allow(clippy::type_complexity)]
    pub fn detached_ticket() -> (
        oneshot::Sender<Result<QueryResponse, ServeError>>,
        Ticket,
        impl Fn() + Send + Sync + 'static,
    ) {
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(1));
        let (tx, rx) = oneshot::channel();
        let ticket = Ticket::queued(rx, queue.clone());
        (tx, ticket, move || queue.close())
    }

    /// A runtime's request path without its pool or pipelines: `try_submit`
    /// is the runtime's own (the cache probe on the calling thread, then
    /// the queue), and [`Front::serve`] drains the queue as a worker does —
    /// the second-chance lookup, then `answer` for a miss, cached under the
    /// key the submitter probed.
    pub struct Front(Arc<Shared>);

    impl Front {
        /// Queue and result cache of the given capacities; flight recorder
        /// off (fewer locks for the explorer to interleave).
        pub fn new(queue_capacity: usize, result_cache_capacity: usize) -> Front {
            let config = RuntimeConfig {
                queue_capacity,
                result_cache_capacity,
                flight: FlightConfig { capacity: 0, ..FlightConfig::default() },
                ..RuntimeConfig::default()
            };
            Front(Arc::new(Shared::new(&config, 0, 0)))
        }

        /// The key `try_submit` probes for this question.
        pub fn key(&self, db_id: &str, question: &str) -> ResultKey {
            ResultKey::new(db_id, question, "", self.0.fingerprint)
        }

        /// The result cache.
        pub fn results(&self) -> &ResultCache {
            &self.0.results
        }

        /// The registry requests are counted in.
        pub fn metrics(&self) -> &MetricsRegistry {
            &self.0.metrics
        }

        /// [`Runtime::try_submit`].
        pub fn try_submit(&self, req: QueryRequest) -> Result<Ticket, SubmitError> {
            self.0.admit(req, BoundedQueue::try_push)
        }

        /// A worker loop until [`Front::close`].
        pub fn serve(&self, answer: impl Fn(&QueryRequest) -> Arc<PipelineRun>) {
            while let Some(job) = self.0.queue.pop() {
                if let Some(Miss { job, queue_wait_ms }) = self.0.dequeued(job) {
                    let run = answer(&job.req);
                    self.0.results.insert(job.key, run.clone());
                    let trace_id = job.req.trace_id;
                    job.reply.send(Ok(QueryResponse { run, from_cache: false, queue_wait_ms, trace_id }));
                }
            }
        }

        /// Close the queue.
        pub fn close(&self) {
            self.0.queue.close();
        }
    }

    /// A run that answers `question` with no SQL.
    pub fn canned_run(db_id: &str, question: &str) -> Arc<PipelineRun> {
        Arc::new(empty_run(db_id, question))
    }
}

/// Runtime sizing knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads draining the queue (at least 1).
    pub workers: usize,
    /// Bounded queue capacity; full ⇒ `submit` blocks, `try_submit`
    /// returns [`SubmitError::QueueFull`].
    pub queue_capacity: usize,
    /// LRU result-cache capacity.
    pub result_cache_capacity: usize,
    /// How many finished query traces the runtime retains (drop-oldest).
    pub trace_capacity: usize,
    /// Flight-recorder sizing and slow-query thresholds (capacity 0
    /// disables the recorder).
    pub flight: FlightConfig,
    /// Milliseconds per logical tick for the background ticker thread;
    /// `0` spawns no ticker — tests advance [`Runtime::clock`] manually
    /// for deterministic windows.
    pub tick_interval_ms: u64,
    /// Service-level objectives evaluated over the windowed stream; the
    /// longer of its two windows is also the window ring's width.
    pub slo: SloConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            queue_capacity: 64,
            result_cache_capacity: 256,
            trace_capacity: 64,
            flight: FlightConfig::default(),
            tick_interval_ms: 1000,
            slo: SloConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// A config with the given worker count and the default queue/cache
    /// sizes.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig { workers, ..Self::default() }
    }
}

struct Job {
    req: QueryRequest,
    /// The result-cache key the submitter probed, reused by the worker.
    key: ResultKey,
    enqueued: Instant,
    reply: oneshot::Sender<Result<QueryResponse, ServeError>>,
}

/// A dequeued request the result cache could not answer.
struct Miss {
    job: Job,
    queue_wait_ms: f64,
}

/// What the submitting threads and the workers share: the queue, the
/// result cache, and the instruments every request writes.
struct Shared {
    queue: Arc<BoundedQueue<Job>>,
    results: Arc<ResultCache>,
    metrics: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
    windowed: Arc<WindowedMetrics>,
    ids: RequestIdGen,
    fingerprint: u64,
}

impl Shared {
    fn new(config: &RuntimeConfig, id_seed: u64, fingerprint: u64) -> Shared {
        let clock = Arc::new(LogicalClock::new());
        Shared {
            queue: Arc::new(BoundedQueue::new(config.queue_capacity)),
            results: Arc::new(ResultCache::new(config.result_cache_capacity)),
            metrics: Arc::new(MetricsRegistry::new()),
            flight: Arc::new(FlightRecorder::new(config.flight.clone())),
            windowed: Arc::new(WindowedMetrics::new(clock, config.slo.clone())),
            ids: RequestIdGen::new(id_seed),
            fingerprint,
        }
    }

    /// Answer `req` from the result cache on this thread, or hand it to
    /// `push` for a worker. A closed queue refuses everything, hits
    /// included, so shutdown reads the same whatever the cache holds.
    fn admit(
        &self,
        mut req: QueryRequest,
        push: impl FnOnce(&BoundedQueue<Job>, Job) -> Result<(), PushError<Job>>,
    ) -> Result<Ticket, SubmitError> {
        if self.queue.is_closed() {
            return Err(SubmitError::ShuttingDown);
        }
        if req.trace_id.is_empty() {
            req.trace_id = self.ids.next();
        }
        let key = ResultKey {
            seq: req.seq,
            ..ResultKey::new(&req.db_id, &req.question, &req.evidence, self.fingerprint)
        };
        if let Some(run) = self.results.get(&key) {
            return Ok(Ticket(Reply::Ready(self.served_hit(req, run, 0.0))));
        }
        self.flight.begin(&req.trace_id);
        let (tx, rx) = oneshot::channel();
        match push(&self.queue, Job { req, key, enqueued: Instant::now(), reply: tx }) {
            Ok(()) => Ok(Ticket::queued(rx, self.queue.clone())),
            Err(refused) => {
                let full = matches!(refused, PushError::Full(_));
                self.flight.abandon(&refused.into_inner().req.trace_id);
                if full {
                    self.metrics.counter("queue_shed_total").inc();
                    Err(SubmitError::QueueFull)
                } else {
                    Err(SubmitError::ShuttingDown)
                }
            }
        }
    }

    /// Count, record and answer one result-cache hit. The one place a hit
    /// is served from: the submitting thread before the queue
    /// (`queue_wait_ms` 0), or a worker on dequeue.
    fn served_hit(&self, req: QueryRequest, run: Arc<PipelineRun>, queue_wait_ms: f64) -> QueryResponse {
        self.metrics.counter("requests_total").inc();
        self.metrics.latency("queue_wait_ms").record(queue_wait_ms);
        self.metrics.counter("result_cache_hits").inc();
        let mut record = RequestRecord::new(&req.trace_id, &req.db_id);
        record.question_hash = fnv1a(normalize_question(&req.question).as_bytes());
        record.queue_wait_ms = queue_wait_ms;
        record.from_cache = true;
        record.total_ms = queue_wait_ms;
        self.flight.finish(record);
        self.windowed.observe(0.0, true, true);
        QueryResponse { run, from_cache: true, queue_wait_ms, trace_id: req.trace_id }
    }

    /// A worker's first step with a dequeued job: the result cache's
    /// second chance (a duplicate queued behind its twin finds the twin's
    /// run), served through [`Shared::served_hit`]; otherwise the miss is
    /// counted and handed back.
    fn dequeued(&self, job: Job) -> Option<Miss> {
        let queue_wait_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        match self.results.get(&job.key) {
            Some(run) => {
                let resp = self.served_hit(job.req, run, queue_wait_ms);
                job.reply.send(Ok(resp));
                None
            }
            None => {
                self.metrics.counter("requests_total").inc();
                self.metrics.latency("queue_wait_ms").record(queue_wait_ms);
                self.metrics.counter("result_cache_misses").inc();
                Some(Miss { job, queue_wait_ms })
            }
        }
    }
}

/// A point-in-time view of the request queue for admission control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Requests waiting right now.
    pub depth: usize,
    /// Maximum queued requests.
    pub capacity: usize,
    /// Requests ever dequeued by workers (cumulative).
    pub drained_total: u64,
    /// Recent drain rate in requests/second, from a sliding window of
    /// drain-counter samples (lifetime average until the window has two
    /// samples far enough apart). 0.0 before anything has drained.
    pub drain_rate_per_sec: f64,
}

impl QueueStats {
    /// Seconds until the current backlog drains at the recent rate —
    /// the honest basis for a `Retry-After` header. Conservative
    /// fallbacks: 1s when the queue is empty-ish or the rate is unknown,
    /// capped at 60s so a stalled drain never advertises an hour.
    pub fn estimated_drain_secs(&self) -> u64 {
        if self.depth == 0 {
            return 1;
        }
        if self.drain_rate_per_sec <= f64::EPSILON {
            return 60;
        }
        retry_after_secs(self.depth as f64 / self.drain_rate_per_sec, 60)
    }
}

/// Sliding-window sampler over the queue's cumulative drain counter.
/// Sampled on read (every `queue_stats` call appends a point), so idle
/// periods cost nothing; the window keeps ~10s of history.
struct DrainWindow {
    samples: Mutex<std::collections::VecDeque<(Instant, u64)>>,
    started: Instant,
}

const DRAIN_WINDOW: std::time::Duration = std::time::Duration::from_secs(10);

impl DrainWindow {
    fn new() -> Self {
        DrainWindow {
            samples: Mutex::new(std::collections::VecDeque::new()),
            started: Instant::now(),
        }
    }

    /// Record `(now, drained_total)` and return the recent rate.
    fn observe(&self, now: Instant, drained_total: u64) -> f64 {
        let mut samples = self.samples.lock();
        while let Some(&(t, _)) = samples.front() {
            if now.duration_since(t) > DRAIN_WINDOW && samples.len() > 1 {
                samples.pop_front();
            } else {
                break;
            }
        }
        samples.push_back((now, drained_total));
        let (oldest_t, oldest_n) = *samples.front().expect("just pushed");
        let dt = now.duration_since(oldest_t).as_secs_f64();
        if dt >= 0.05 {
            (drained_total.saturating_sub(oldest_n)) as f64 / dt
        } else {
            // window too narrow to differentiate: lifetime average
            let uptime = now.duration_since(self.started).as_secs_f64().max(1e-9);
            drained_total as f64 / uptime
        }
    }
}

/// One-process-wide sequence of runtime instances: seeds each runtime's
/// [`RequestIdGen`] so two runtimes in one test process never mint the
/// same IDs, while staying fully deterministic run-to-run.
static RUNTIME_SEQ: AtomicU64 = AtomicU64::new(0);

/// The concurrent query-serving runtime.
pub struct Runtime {
    shared: Arc<Shared>,
    assets: Arc<AssetCache>,
    traces: Arc<TraceCollector>,
    workers: Vec<std::thread::JoinHandle<()>>,
    ticker: Option<std::thread::JoinHandle<()>>,
    ticker_stop: Arc<AtomicBool>,
    drain: DrainWindow,
}

impl Runtime {
    /// Start the worker pool over an asset cache.
    pub fn start(assets: Arc<AssetCache>, config: RuntimeConfig) -> Runtime {
        let shared = Arc::new(Shared::new(
            &config,
            RUNTIME_SEQ.fetch_add(1, Ordering::Relaxed),
            config_fingerprint(assets.config()),
        ));
        let traces = Arc::new(TraceCollector::new(config.trace_capacity));
        let worker_count = config.workers.max(1);
        let mut workers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let shared = shared.clone();
            let assets = assets.clone();
            let traces = traces.clone();
            workers.push(std::thread::spawn(move || worker_loop(&shared, &assets, &traces)));
        }
        let ticker_stop = Arc::new(AtomicBool::new(false));
        let ticker = (config.tick_interval_ms > 0).then(|| {
            let clock = shared.windowed.clock().clone();
            let stop = ticker_stop.clone();
            let interval = std::time::Duration::from_millis(config.tick_interval_ms);
            std::thread::Builder::new()
                .name("osql-tick".into())
                .spawn(move || {
                    // sleep in short slices so shutdown never waits a
                    // whole tick interval for the ticker to notice
                    let slice = std::time::Duration::from_millis(25).min(interval);
                    let mut slept = std::time::Duration::ZERO;
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(slice);
                        slept += slice;
                        if slept >= interval {
                            slept = std::time::Duration::ZERO;
                            clock.advance();
                        }
                    }
                })
                .expect("spawn ticker thread")
        });
        Runtime { shared, assets, traces, workers, ticker, ticker_stop, drain: DrainWindow::new() }
    }

    /// Mint the next request ID without submitting anything — the server
    /// uses this so shed/quota-rejected requests still get an ID to
    /// return (and to record) even though they never enter the queue.
    pub fn next_trace_id(&self) -> String {
        self.shared.ids.next()
    }

    /// Submit a request, blocking while the queue is full (backpressure).
    /// A result-cache hit is answered on this thread and never waits for
    /// a queue slot.
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, SubmitError> {
        self.shared.admit(req, BoundedQueue::push)
    }

    /// Submit without blocking; [`SubmitError::QueueFull`] when at
    /// capacity. Every refusal for fullness is counted in the
    /// `queue_shed_total` metric, so the exposition and any admission
    /// controller report the same shed count. A result-cache hit is
    /// answered on this thread, so a full queue never sheds one.
    pub fn try_submit(&self, req: QueryRequest) -> Result<Ticket, SubmitError> {
        self.shared.admit(req, BoundedQueue::try_push)
    }

    /// Serve a whole batch: submit everything (with backpressure) and
    /// collect the answers in request order.
    pub fn run_batch(&self, requests: Vec<QueryRequest>) -> Vec<Result<QueryResponse, ServeError>> {
        let tickets: Vec<Result<Ticket, SubmitError>> =
            requests.into_iter().map(|r| self.submit(r)).collect();
        tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => ticket.wait(),
                Err(_) => Err(ServeError::canceled_by_shutdown()),
            })
            .collect()
    }

    /// The metrics registry the workers record into — the handle for
    /// *recording* (the server takes it per request). Series mirrored from
    /// other layers are as fresh as the last [`Runtime::refreshed_metrics`].
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The registry with its mirrors brought up to date — the handle for
    /// *reading*: `/metrics`, the CLI snapshots and anything else that
    /// renders or inspects a mirrored series goes through here, so what a
    /// reader sees never depends on whether a worker ran a cold pipeline
    /// lately (a follower applying WAL in the background runs none).
    /// Cumulative sources shared across workers mirror with `raise_to`,
    /// current levels with `set`: asset builds, the demand-paging catalog
    /// (paged mode), the process-global store latency cells as cumulative
    /// `store_op_*{op}` counters, result-cache evictions, and the
    /// process-wide sqlkit plan-cache counters (whose execution counters
    /// also count the statements the beam runs without the cache).
    pub fn refreshed_metrics(&self) -> &MetricsRegistry {
        let metrics = &*self.shared.metrics;
        metrics.counter("asset_builds_total").raise_to(self.assets.misses());
        if let Some(cat) = self.assets.catalog() {
            metrics.counter("db_load_total").raise_to(cat.loads());
            metrics.counter("db_evict_total").raise_to(cat.evictions());
            metrics.counter("store_bytes_resident").set(cat.resident_bytes());
        }
        let stats = osql_store::store_stats();
        for (op, cell) in [
            ("wal_append", &stats.wal_append),
            ("wal_sync", &stats.wal_sync),
            ("wal_commit", &stats.wal_commit),
            ("checkpoint", &stats.checkpoint),
        ] {
            if cell.count() == 0 {
                continue; // keep read-only snapshots free of zero series
            }
            let snap = cell.snapshot();
            metrics.counter_with("store_op_total", &[("op", op)]).raise_to(snap.count);
            metrics.counter_with("store_op_us_total", &[("op", op)]).raise_to(snap.total_us);
            for (bound, count) in &snap.buckets {
                metrics
                    .counter_with("store_op_us_bucket", &[("le", &bound.to_string()), ("op", op)])
                    .raise_to(*count);
            }
        }
        metrics.counter("store_checkpoints_active").set(stats.checkpoints_active());
        metrics.counter("store_checkpoint_last_bytes").set(stats.checkpoint_last_bytes());
        metrics.counter("result_cache_evictions_total").raise_to(self.shared.results.evictions());
        let plans = sqlkit::plan_cache().stats();
        metrics.counter("plan_cache_hits").raise_to(plans.hits);
        metrics.counter("plan_cache_misses").raise_to(plans.misses);
        metrics.counter("plan_prepare_us").raise_to(plans.prepare_us);
        metrics.counter("plan_execute_us").raise_to(plans.execute_us);
        metrics.counter("plan_ix_scan_total").raise_to(plans.ix_scans);
        metrics.counter("plan_fallback_scan_total").raise_to(plans.fallback_scans);
        metrics.counter("plan_rows_scanned_total").raise_to(plans.rows_scanned);
        metrics
    }

    /// The ring of recently finished query traces.
    pub fn traces(&self) -> &Arc<TraceCollector> {
        &self.traces
    }

    /// The flight recorder of completed request records.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.shared.flight
    }

    /// The windowed instruments (and their SLO evaluator).
    pub fn windowed(&self) -> &Arc<WindowedMetrics> {
        &self.shared.windowed
    }

    /// The logical clock windowed metrics are sliced by. Advance it
    /// manually in tests (`tick_interval_ms: 0`) for deterministic
    /// windows.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        self.shared.windowed.clock()
    }

    /// Evaluate the configured SLOs at the current tick.
    pub fn slo_report(&self) -> SloReport {
        self.shared.windowed.slo_report()
    }

    /// The level-1 (per-database asset) cache.
    pub fn assets(&self) -> &Arc<AssetCache> {
        &self.assets
    }

    /// The level-2 (LRU result) cache.
    pub fn results(&self) -> &Arc<ResultCache> {
        &self.shared.results
    }

    /// The configuration fingerprint results are cached under.
    pub fn fingerprint(&self) -> u64 {
        self.shared.fingerprint
    }

    /// Requests currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// A cheap point-in-time queue snapshot: depth, capacity, and the
    /// recent drain rate (requests/second over a sliding window sampled
    /// on each call). The depth is also mirrored into the `queue_depth`
    /// gauge, so the Prometheus exposition and an admission controller's
    /// `Retry-After` math read the same numbers.
    pub fn queue_stats(&self) -> QueueStats {
        let queue = &self.shared.queue;
        let depth = queue.len();
        let drained_total = queue.popped_total();
        let drain_rate_per_sec = self.drain.observe(Instant::now(), drained_total);
        self.shared.metrics.counter("queue_depth").set(depth as u64);
        QueueStats {
            depth,
            capacity: queue.capacity(),
            drained_total,
            drain_rate_per_sec,
        }
    }

    /// Stop accepting work, drain the queue, and join the workers. Safe
    /// to call more than once; `Drop` calls it too.
    pub fn shutdown(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.ticker_stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        // queued jobs that were dropped unanswered become Canceled records
        self.shared.flight.cancel_inflight();
    }

    /// Evaluate examples by routing every question through this runtime's
    /// queue and workers, scoring with the same scorer as the sequential
    /// [`opensearch_sql::evaluate`]. `submitters` caller-side threads feed
    /// the queue. Non-ledger report fields match the sequential path
    /// exactly, at any worker count.
    pub fn evaluate(&self, examples: &[datagen::Example], submitters: usize) -> EvalReport {
        let benchmark = self
            .assets
            .benchmark()
            .expect(
                "evaluate needs the resident benchmark; a paged runtime is scored by passing \
                 the benchmark to opensearch_sql::evaluate_with directly",
            )
            .clone();
        opensearch_sql::evaluate_with(self, &benchmark, examples, submitters)
    }
}

impl opensearch_sql::Answerer for Runtime {
    fn answer(&self, db_id: &str, question: &str, evidence: &str) -> PipelineRun {
        match self.submit(QueryRequest::new(db_id, question, evidence)).map(Ticket::wait) {
            Ok(Ok(resp)) => resp.run.as_ref().clone(),
            // unknown db / shutdown: an empty run, which scores as wrong
            // (the sequential scorer skips unknown dbs before answering,
            // so this arm is unreachable from `Runtime::evaluate`)
            _ => empty_run(db_id, question),
        }
    }
}

/// A run that answers `question` with no SQL.
fn empty_run(db_id: &str, question: &str) -> PipelineRun {
    PipelineRun {
        question: question.to_owned(),
        db_id: db_id.to_owned(),
        sql_g: String::new(),
        sql_r: String::new(),
        final_sql: String::new(),
        candidates: Vec::new(),
        winner: 0,
        vote_margin: 1.0,
        first_attempts_shared: 0,
        ledger: Default::default(),
        trace: Arc::new(QueryTrace::empty()),
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Stage modules paired with their metric/flight-record labels.
static STAGES: [(Module, &str); 4] = [
    (Module::Extraction, "extraction"),
    (Module::Generation, "generation"),
    (Module::Refinement, "refinement"),
    (Module::Alignments, "alignments"),
];

/// Rows the SQL executor scanned while serving this trace: the sum over
/// the volatile `exec` events sqlkit emits (one per executed statement —
/// a candidate handed another's result executed nothing and adds nothing).
fn rows_scanned_in(trace: &QueryTrace) -> u64 {
    trace
        .events_named("exec")
        .flat_map(|e| e.timings.iter())
        .filter(|(name, _)| *name == "rows_scanned")
        .map(|(_, v)| v.max(0.0) as u64)
        .sum()
}

/// LLM-call modules whose ledger time is the *simulated* model latency
/// (`resp.latency_ms`, a pure function of token counts) — never the wall
/// clock. These are the only deterministic time charges in the ledger;
/// the stage totals (Extraction, Refinement, …) are wall-clock and vary
/// run to run.
static MODELLED_MODULES: [Module; 4] =
    [Module::EntityColumn, Module::SelectAlign, Module::Generation, Module::Correction];

/// The pipeline's modelled (deterministic) cost in milliseconds: the sum
/// of the ledger's LLM-call charges, each of which is the simulated
/// model latency derived from token counts. This — not the wall clock,
/// and not the wall-clock stage totals — feeds the windowed instruments
/// and the SLO evaluator, so their renderings are byte-identical across
/// runs and worker counts.
fn modelled_ms(run: &PipelineRun) -> f64 {
    MODELLED_MODULES.iter().map(|module| run.ledger.get(*module).time_ms).sum()
}

/// Cumulative store-path microseconds (WAL appends/syncs/commits plus
/// checkpoints) across the process. Workers take a before/after delta of
/// this around each pipeline run to surface per-request store time;
/// under concurrent writers the delta can absorb a neighbour's I/O, so
/// it is exact when serving serially and an upper bound otherwise.
fn store_us_total() -> u64 {
    let stats = osql_store::store_stats();
    stats.wal_append.total_us()
        + stats.wal_sync.total_us()
        + stats.wal_commit.total_us()
        + stats.checkpoint.total_us()
}

fn worker_loop(shared: &Shared, assets: &AssetCache, traces: &TraceCollector) {
    let (metrics, flight, windowed) = (&*shared.metrics, &*shared.flight, &*shared.windowed);
    while let Some(job) = shared.queue.pop() {
        let Some(Miss { job: Job { req, key, reply, .. }, queue_wait_ms }) = shared.dequeued(job)
        else {
            continue;
        };
        let trace_id = req.trace_id.clone();
        let mut record = RequestRecord::new(&trace_id, &req.db_id);
        record.question_hash = fnv1a(normalize_question(&req.question).as_bytes());
        record.queue_wait_ms = queue_wait_ms;
        // The worker owns this request's trace: installed before asset
        // lookup so the queue-wait event (volatile: it depends on load,
        // not on the query), any demand-paging events (`db_load`,
        // `db_evict`, `wal_replay` — also volatile), and every pipeline
        // span land in one trace, popped and attached to the run after.
        // The trace ID deliberately never becomes a span label — logical
        // traces stay byte-identical across runs; the flight record is
        // the ID ⇒ trace link.
        active::push();
        active::event_volatile("queue_wait", &[], &[("ms", queue_wait_ms)]);
        let store_us_before = store_us_total();
        let pipeline = match assets.pipeline_at(&req.db_id, req.seq) {
            Ok(p) => p,
            Err(miss) => {
                let _ = active::pop();
                let err = match miss {
                    AssetMiss::UnknownDb => {
                        metrics.counter("unknown_db").inc();
                        ServeError::UnknownDb(req.db_id)
                    }
                    AssetMiss::LoadFailed(reason) => {
                        // storage trouble, not a bad request: its own
                        // counter so corruption never hides in unknown_db
                        metrics.counter("db_load_errors_total").inc();
                        ServeError::DbLoadFailed { db_id: req.db_id, reason }
                    }
                };
                record.outcome = RequestOutcome::Error;
                record.error = Some(err.to_string());
                record.total_ms = queue_wait_ms;
                flight.finish(record);
                windowed.observe(0.0, false, false);
                reply.send(Err(err));
                continue;
            }
        };
        let started = Instant::now();
        let mut run = pipeline.answer(&req.db_id, &req.question, &req.evidence);
        let trace = Arc::new(active::pop().unwrap_or_else(QueryTrace::empty));
        run.trace = trace.clone();
        let run = Arc::new(run);
        traces.publish(trace.clone());
        let pipeline_ms = started.elapsed().as_secs_f64() * 1e3;
        metrics.latency("pipeline_ms").record(pipeline_ms);
        for (module, stage) in &STAGES {
            let cost = run.ledger.get(*module);
            if cost.calls > 0 {
                metrics.latency_with("stage_latency_ms", &[("stage", stage)]).record(cost.time_ms);
                record.stage_ms.push((*stage, cost.time_ms));
            }
        }
        if run.candidates.len() > 1 {
            metrics.histogram("vote_margin", &FRACTION_BOUNDS).record(run.vote_margin);
        }
        // how much of the beam's first-attempt work (one attempt per
        // candidate) was done once and shared: shared / total is the
        // duplicate share of the beam
        metrics.counter("refine_first_attempts_total").add(run.candidates.len() as u64);
        metrics.counter("refine_first_attempts_shared_total").add(run.first_attempts_shared as u64);
        record_analysis_metrics(metrics, &run);
        shared.results.insert(key, run.clone());
        // Flight record + slow-query capture. The tail-sampling decision
        // itself belongs to the recorder; the worker attaches the heavy
        // payloads (span tree, EXPLAIN) whenever the record *could* be
        // sampled, and the recorder strips them for fast, healthy runs.
        record.total_ms = queue_wait_ms + pipeline_ms;
        record.rows_scanned = rows_scanned_in(&trace);
        let store_us = store_us_total().saturating_sub(store_us_before);
        if store_us > 0 {
            record.stage_ms.push(("store", store_us as f64 / 1e3));
        }
        let (slow_ms, slow_rows) = flight.thresholds();
        if flight.enabled()
            && (record.total_ms >= slow_ms || record.rows_scanned >= slow_rows)
        {
            record.trace = Some(trace);
            if let Some(db) = pipeline.preprocessed().db(&run.db_id) {
                record.explain = Some(
                    sqlkit::explain(&db.database, &run.final_sql)
                        .unwrap_or_else(|e| format!("explain failed: {e}")),
                );
            }
            metrics.counter("slow_queries_total").inc();
        }
        flight.finish(record);
        windowed.observe(modelled_ms(&run), true, false);
        reply.send(Ok(QueryResponse { run, from_cache: false, queue_wait_ms, trace_id }));
    }
}

/// Analyzer activity for one run: the findings on the chosen SQL, as the
/// gate that executed it filed them — one `analyze_diags_total{code="E…"}`
/// series per diagnostic code. An empty beam answers the empty statement,
/// which no gate saw and which does not parse (`E0001`).
fn record_analysis_metrics(metrics: &MetricsRegistry, run: &PipelineRun) {
    let count = |code: &str| metrics.counter_with("analyze_diags_total", &[("code", code)]).inc();
    match run.candidates.get(run.winner) {
        Some(winner) => winner.diag_codes.iter().for_each(|code| count(code)),
        None => count("E0001"),
    }
}

/// Cheap helper: track throughput over a batch.
#[derive(Debug)]
pub struct Throughput {
    started: Instant,
    served: AtomicU64,
}

impl Throughput {
    /// Start the clock.
    pub fn start() -> Self {
        Throughput { started: Instant::now(), served: AtomicU64::new(0) }
    }

    /// Count one served request.
    pub fn served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// (requests, elapsed seconds, requests/second).
    pub fn snapshot(&self) -> (u64, f64, f64) {
        let n = self.served.load(Ordering::Relaxed);
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        (n, secs, n as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Profile};
    use llmsim::{proto, ChatRequest, ChatResponse, LanguageModel, ModelProfile, Oracle, SimLlm};
    use opensearch_sql::PipelineConfig;
    use osql_chk::Condvar;

    /// Wraps a model behind a gate: while closed, `complete` blocks.
    /// Lets a test park every worker deterministically.
    struct GateLlm {
        inner: Arc<dyn LanguageModel>,
        open: Mutex<bool>,
        cv: Condvar,
        /// Calls that found the gate closed, ever.
        parked: AtomicU64,
    }

    impl GateLlm {
        fn new(inner: Arc<dyn LanguageModel>) -> Self {
            GateLlm { inner, open: Mutex::new(true), cv: Condvar::new(), parked: AtomicU64::new(0) }
        }

        fn set_open(&self, open: bool) {
            *self.open.lock() = open;
            self.cv.notify_all();
        }

        /// Spin until `n` calls have found the gate closed.
        fn await_parked(&self, n: u64) {
            while self.parked.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
        }
    }

    impl LanguageModel for GateLlm {
        fn complete(&self, req: &ChatRequest) -> ChatResponse {
            let mut open = self.open.lock();
            if !*open {
                self.parked.fetch_add(1, Ordering::SeqCst);
            }
            while !*open {
                open = self.cv.wait(open);
            }
            drop(open);
            self.inner.complete(req)
        }

        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    /// A world whose model sits behind a gate, open while the few-shot
    /// library is built (that calls the model).
    fn gated_world() -> (Arc<datagen::Benchmark>, Arc<GateLlm>, Arc<AssetCache>) {
        let bench = Arc::new(generate(&Profile::tiny()));
        let inner = Arc::new(SimLlm::new(Arc::new(Oracle::new(bench.clone())), ModelProfile::gpt_4o(), 5));
        let gate = Arc::new(GateLlm::new(inner));
        let assets = Arc::new(AssetCache::new(bench.clone(), gate.clone(), PipelineConfig::fast()));
        (bench, gate, assets)
    }

    fn world() -> (Arc<datagen::Benchmark>, Arc<AssetCache>) {
        let bench = Arc::new(generate(&Profile::tiny()));
        let llm = Arc::new(SimLlm::new(
            Arc::new(Oracle::new(bench.clone())),
            ModelProfile::gpt_4o(),
            5,
        ));
        let assets = Arc::new(AssetCache::new(bench.clone(), llm, PipelineConfig::fast()));
        (bench, assets)
    }

    #[test]
    fn serves_requests_and_records_metrics() {
        let (bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(2));
        let ex = &bench.dev[0];
        let before = sqlkit::plan_cache().stats();
        let resp = rt
            .submit(QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
            .unwrap()
            .wait()
            .unwrap();
        assert!(!resp.from_cache);
        assert!(resp.run.final_sql.to_uppercase().starts_with("SELECT"));
        assert_eq!(rt.metrics().counter("requests_total").get(), 1);
        assert_eq!(rt.metrics().counter("result_cache_misses").get(), 1);
        let snapshot = rt.refreshed_metrics().render_prometheus();
        assert!(snapshot.contains("pipeline_ms"), "{snapshot}");
        // The plan-cache mirror is brought up to date on every read. The
        // source counters are process-global (shared with parallel tests),
        // so assert presence rather than exact values.
        for name in [
            "plan_cache_hits",
            "plan_cache_misses",
            "plan_prepare_us",
            "plan_execute_us",
            "plan_ix_scan_total",
            "plan_fallback_scan_total",
            "plan_rows_scanned_total",
        ] {
            assert!(snapshot.contains(name), "missing {name}:\n{snapshot}");
        }
        // The beam runs its statements without the cache, and they are
        // counted where a plan runs: the execution mirrors move (the
        // counters only grow, so a parallel test cannot hide a still one).
        let counter = |name| rt.metrics().counter(name).get();
        assert!(counter("plan_rows_scanned_total") > before.rows_scanned, "{snapshot}");
        assert!(
            counter("plan_ix_scan_total") + counter("plan_fallback_scan_total")
                > before.ix_scans + before.fallback_scans,
            "{snapshot}"
        );
        // … and the request's flight record sums the beam's `exec` events
        let record = rt.flight().lookup(&resp.trace_id).expect("the request's flight record");
        assert!(record.rows_scanned > 0, "{record:?}");
    }

    /// A follower applying WAL in the background serves no cold request,
    /// so nothing a worker does may be what brings the mirrors up to date.
    #[test]
    fn mirrors_refresh_on_read_without_a_request() {
        let (_bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(1));
        let path = std::env::temp_dir().join(format!("osql-mirror-{}.store", std::process::id()));
        let mut store = osql_store::Store::create(&path, sqlkit::Database::new("scratch"), Vec::new()).unwrap();
        store.execute("CREATE TABLE t (a INTEGER)").unwrap();
        store.commit().unwrap();
        let commits = rt.refreshed_metrics().counter_with("store_op_total", &[("op", "wal_commit")]);
        assert!(commits.get() >= 1, "a read after a commit sees it, with no request served");
        assert!(rt.refreshed_metrics().render_prometheus().contains("store_op_total{op=\"wal_commit\"}"));
        assert_eq!(rt.metrics().counter("requests_total").get(), 0);
        drop(store);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(osql_store::wal_path(&path));
    }

    #[test]
    fn result_cache_serves_repeats_identically() {
        let (bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(2));
        let ex = &bench.dev[0];
        let req = QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence);
        let cold = rt.submit(req.clone()).unwrap().wait().unwrap();
        let warm = rt.submit(req).unwrap().wait().unwrap();
        assert!(!cold.from_cache);
        assert!(warm.from_cache);
        assert_eq!(cold.run.final_sql, warm.run.final_sql);
        assert!(Arc::ptr_eq(&cold.run, &warm.run), "cached run is shared, not recomputed");
        assert_eq!(rt.metrics().counter("result_cache_hits").get(), 1);
        // whitespace/case variants of the question hit the same entry
        let variant =
            QueryRequest::new(&ex.db_id, format!("  {}  ", ex.question.to_uppercase()), &ex.evidence);
        assert!(rt.submit(variant).unwrap().wait().unwrap().from_cache);
    }

    #[test]
    fn unknown_db_is_a_typed_error() {
        let (_bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(1));
        let err = rt.submit(QueryRequest::new("ghost", "q", "")).unwrap().wait().unwrap_err();
        assert_eq!(err, ServeError::UnknownDb("ghost".into()));
        assert_eq!(rt.metrics().counter("unknown_db").get(), 1);
    }

    #[test]
    fn batch_preserves_request_order() {
        let (bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(4));
        let reqs: Vec<QueryRequest> = bench
            .dev
            .iter()
            .take(6)
            .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
            .collect();
        let out = rt.run_batch(reqs);
        assert_eq!(out.len(), 6);
        for (ex, resp) in bench.dev.iter().take(6).zip(&out) {
            let resp = resp.as_ref().unwrap();
            assert_eq!(resp.run.question, ex.question, "answers line up with requests");
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let (bench, assets) = world();
        let mut rt = Runtime::start(assets, RuntimeConfig::with_workers(1));
        rt.shutdown();
        let ex = &bench.dev[0];
        let err = rt.submit(QueryRequest::new(&ex.db_id, &ex.question, "")).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        let err = rt.try_submit(QueryRequest::new(&ex.db_id, &ex.question, "")).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }

    #[test]
    fn queue_full_is_shed_and_counted() {
        let (bench, gate, assets) = gated_world();
        gate.set_open(false);
        let rt = Runtime::start(
            assets,
            RuntimeConfig { workers: 1, queue_capacity: 1, ..RuntimeConfig::default() },
        );
        let ex = &bench.dev[0];
        let req = QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence);
        // park the only worker on the gate ...
        let in_flight = rt.submit(req.clone()).unwrap();
        while rt.queued() > 0 {
            std::thread::yield_now();
        }
        // ... fill the queue (use a distinct question so nothing coalesces
        // in the result cache), then overflow it
        let ex2 = &bench.dev[1];
        let queued = rt.submit(QueryRequest::new(&ex2.db_id, &ex2.question, &ex2.evidence)).unwrap();
        assert_eq!(rt.try_submit(req.clone()).unwrap_err(), SubmitError::QueueFull);
        assert_eq!(rt.metrics().counter("queue_shed_total").get(), 1);
        let stats = rt.queue_stats();
        assert_eq!((stats.depth, stats.capacity), (1, 1));
        assert_eq!(rt.metrics().counter("queue_depth").get(), 1, "gauge mirrors depth");
        assert!(stats.estimated_drain_secs() >= 1);
        gate.set_open(true);
        in_flight.wait().unwrap();
        queued.wait().unwrap();
        let stats = rt.queue_stats();
        assert!(stats.drained_total >= 2, "{stats:?}");
        assert_eq!(stats.depth, 0);
    }

    /// A hit is answered on the submitting thread: with every worker
    /// parked and the queue full, a cached question is still served —
    /// neither shed by `try_submit` nor blocked in `submit` — and after
    /// shutdown it is refused like any other request.
    #[test]
    fn cached_answers_skip_a_full_queue() {
        let (bench, gate, assets) = gated_world();
        let mut rt = Runtime::start(
            assets,
            RuntimeConfig { workers: 1, queue_capacity: 1, ..RuntimeConfig::default() },
        );
        let req = |ex: &datagen::Example| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence);
        let cached = req(&bench.dev[0]);
        let cold = rt.submit(cached.clone()).unwrap().wait().unwrap();
        gate.set_open(false);
        let parked = rt.submit(req(&bench.dev[1])).unwrap();
        gate.await_parked(1);
        let queued = rt.submit(req(&bench.dev[2])).unwrap();
        assert_eq!(rt.try_submit(req(&bench.dev[3])).unwrap_err(), SubmitError::QueueFull);

        for ticket in [rt.try_submit(cached.clone()), rt.submit(cached.clone())] {
            let warm = ticket.expect("a hit needs no queue slot").wait().unwrap();
            assert!(warm.from_cache);
            assert_eq!(warm.queue_wait_ms, 0.0, "it never queued");
            assert!(Arc::ptr_eq(&cold.run, &warm.run));
        }
        assert_eq!(rt.metrics().counter("queue_shed_total").get(), 1, "only the cold one shed");
        assert_eq!(rt.metrics().counter("result_cache_hits").get(), 2);
        assert_eq!(rt.queued(), 1);

        gate.set_open(true);
        parked.wait().unwrap();
        queued.wait().unwrap();
        rt.shutdown();
        assert_eq!(rt.try_submit(cached.clone()).unwrap_err(), SubmitError::ShuttingDown);
        assert_eq!(rt.submit(cached).unwrap_err(), SubmitError::ShuttingDown);
        assert_eq!(rt.metrics().counter("result_cache_hits").get(), 2);
    }

    /// Two lookups a cold request (submitting thread, then worker) still
    /// count each request once: as a hit or as a miss.
    #[test]
    fn cache_counters_add_up_to_requests() {
        let (bench, assets) = world();
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(1));
        let req = |ex: &datagen::Example| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence);
        rt.submit(req(&bench.dev[0])).unwrap().wait().unwrap();
        // warm, cold, a duplicate behind its cold twin (a hit on the
        // submitting thread if the one worker finished the twin first, on
        // the worker otherwise), unknown db
        let batch = vec![
            req(&bench.dev[0]),
            req(&bench.dev[1]),
            req(&bench.dev[1]),
            QueryRequest::new("ghost", "q", ""),
        ];
        let out = rt.run_batch(batch);
        assert!(out[0].as_ref().unwrap().from_cache);
        assert!(!out[1].as_ref().unwrap().from_cache);
        assert!(out[2].as_ref().unwrap().from_cache);
        assert_eq!(out[3].as_ref().unwrap_err(), &ServeError::UnknownDb("ghost".into()));
        let count = |name| rt.metrics().counter(name).get();
        assert_eq!(count("requests_total"), 5);
        assert_eq!((count("result_cache_hits"), count("result_cache_misses")), (2, 3));
        assert_eq!(rt.metrics().latency("queue_wait_ms").count(), 5, "one wait per request");
    }

    /// An answer is keyed by the seq it was admitted at. A run parked at
    /// *p* on database A while A moves to *p* + 1 is cached under *p* and
    /// never served at *p* + 1, where a fresh pipeline answers; database
    /// B's run, in flight across A's move, is cached and then hit.
    #[test]
    fn answers_are_cached_under_the_seq_they_were_admitted_at() {
        let (bench, gate, assets) = gated_world();
        let rt = Runtime::start(assets.clone(), RuntimeConfig::with_workers(3));
        let a = &bench.dev[0];
        let b = bench.dev.iter().find(|ex| ex.db_id != a.db_id).expect("two databases");
        let at = |ex: &datagen::Example, seq| {
            QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence).with_seq(seq)
        };
        let p = 5;
        gate.set_open(false);
        let on_a = rt.submit(at(a, p)).unwrap();
        gate.await_parked(1); // holds A's pipeline built at p
        let on_b = rt.submit(at(b, 0)).unwrap();
        gate.await_parked(2);
        let builds = assets.misses();
        let fresh = rt.submit(at(a, p + 1)).unwrap();
        gate.await_parked(3);
        let rebuilt = assets.misses() - builds;
        gate.set_open(true); // before any assert: a failure must not strand the workers
        assert_eq!(rebuilt, 1, "a request at p + 1 rebuilds A's pipeline");
        let (on_a, on_b, fresh) = (on_a.wait().unwrap(), on_b.wait().unwrap(), fresh.wait().unwrap());
        assert!(!on_a.from_cache && !on_b.from_cache && !fresh.from_cache);
        assert!(!Arc::ptr_eq(&on_a.run, &fresh.run));

        let ask = |req| rt.submit(req).unwrap().wait().unwrap();
        for (req, cold) in [(at(a, p), &on_a), (at(a, p + 1), &fresh), (at(b, 0), &on_b)] {
            let warm = ask(req);
            assert!(warm.from_cache && Arc::ptr_eq(&warm.run, &cold.run), "{}", cold.trace_id);
        }
        assert_eq!(assets.misses(), builds + 1);
    }

    #[test]
    fn cancel_reason_distinguishes_shutdown_from_worker_loss() {
        // Construct the two reply-channel deaths directly: the sender
        // drops while the queue is open (worker panic ⇒ WorkerLost) vs
        // after close (orderly drain ⇒ Shutdown).
        let queue: Arc<BoundedQueue<Job>> = Arc::new(BoundedQueue::new(1));
        let (tx, rx) = oneshot::channel();
        drop(tx);
        let t = Ticket::queued(rx, queue.clone());
        assert_eq!(
            t.wait().unwrap_err(),
            ServeError::Canceled { reason: CancelReason::WorkerLost }
        );
        let (tx, rx) = oneshot::channel();
        drop(tx);
        queue.close();
        let t = Ticket::queued(rx, queue);
        assert_eq!(
            t.wait().unwrap_err(),
            ServeError::Canceled { reason: CancelReason::Shutdown }
        );
        assert_eq!(ServeError::canceled_by_shutdown().to_string(), "request canceled by shutdown");
    }

    #[test]
    fn drain_rate_estimates_from_window() {
        let w = DrainWindow::new();
        let t0 = Instant::now();
        let _ = w.observe(t0, 0);
        let rate = w.observe(t0 + std::time::Duration::from_secs(2), 20);
        assert!((rate - 10.0).abs() < 1.0, "≈10/s, got {rate}");
        let stats = QueueStats {
            depth: 30,
            capacity: 64,
            drained_total: 20,
            drain_rate_per_sec: 10.0,
        };
        assert_eq!(stats.estimated_drain_secs(), 3);
        let stalled = QueueStats { drain_rate_per_sec: 0.0, ..stats };
        assert_eq!(stalled.estimated_drain_secs(), 60, "stalled drain caps the hint");
        let idle = QueueStats { depth: 0, ..stats };
        assert_eq!(idle.estimated_drain_secs(), 1);
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        let (bench, _) = world();
        let reqs: Vec<QueryRequest> = bench
            .dev
            .iter()
            .take(8)
            .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
            .collect();
        let mut baseline: Option<Vec<String>> = None;
        for workers in [1usize, 4] {
            let (_, assets) = world();
            let rt = Runtime::start(assets, RuntimeConfig::with_workers(workers));
            let answers: Vec<String> = rt
                .run_batch(reqs.clone())
                .into_iter()
                .map(|r| r.unwrap().run.final_sql.clone())
                .collect();
            match &baseline {
                None => baseline = Some(answers),
                Some(b) => assert_eq!(b, &answers, "{workers} workers changed answers"),
            }
        }
    }

    /// Answers every generation request with `texts` instead of the
    /// model's own.
    struct Generates {
        model: SimLlm,
        texts: Vec<String>,
    }

    impl LanguageModel for Generates {
        fn complete(&self, req: &ChatRequest) -> ChatResponse {
            let mut resp = self.model.complete(req);
            let task = format!("{} {}", proto::TASK_PREFIX, proto::TASK_GENERATION);
            if req.prompt.lines().next() == Some(task.as_str()) {
                resp.texts = self.texts.clone();
            }
            resp
        }

        fn name(&self) -> &str {
            self.model.name()
        }
    }

    /// Serve the tiny world's dev questions through a model whose beams are
    /// `texts`; returns the analyzer counters, per code, and what analysing
    /// every served answer again finds.
    fn diag_counts_serving(texts: &[&str]) -> [std::collections::BTreeMap<String, u64>; 2] {
        let bench = Arc::new(generate(&Profile::tiny()));
        let model = SimLlm::new(Arc::new(Oracle::new(bench.clone())), ModelProfile::gpt_4o(), 5);
        let texts = texts.iter().map(|t| format!("{}{t}", proto::SQL_PREFIX)).collect();
        let llm = Arc::new(Generates { model, texts });
        let assets = Arc::new(AssetCache::new(bench.clone(), llm, PipelineConfig::fast()));
        let rt = Runtime::start(assets, RuntimeConfig::with_workers(1));
        let mut found = std::collections::BTreeMap::<String, u64>::new();
        for ex in bench.dev.iter().take(6) {
            let resp = rt.submit(QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence));
            let run = resp.unwrap().wait().unwrap().run;
            let schema = &bench.db(&ex.db_id).unwrap().database.schema;
            for d in sqlkit::analyze_sql(schema, &run.final_sql).diagnostics {
                *found.entry(d.code).or_default() += 1;
            }
        }
        let series = rt.metrics().counter_series("analyze_diags_total");
        let counted = series.into_iter().map(|(code, c)| (code[0].1.clone(), c.get())).collect();
        [counted, found]
    }

    /// The analyzer counters read the winner's gate, and count what
    /// analysing each served answer again finds.
    #[test]
    fn analyzer_counters_are_the_served_answers_findings() {
        let unused_tables = "SELECT 1 FROM (SELECT 1) AS a, (SELECT 2) AS b";
        let [counted, found] = diag_counts_serving(&[unused_tables]);
        assert_eq!(found, [("W0303".to_owned(), 12)].into());
        assert_eq!(counted, found);
    }

    /// An empty beam answers the empty statement, counted as the parse
    /// error analysing it finds.
    #[test]
    fn an_empty_beam_counts_its_empty_answer() {
        let [counted, found] = diag_counts_serving(&[]);
        assert_eq!(found, [("E0001".to_owned(), 6)].into());
        assert_eq!(counted, found);
    }
}
