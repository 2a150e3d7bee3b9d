//! The sharded HTTP server over an [`osql_runtime::Runtime`].
//!
//! N acceptor shards block on `accept` against one shared listener
//! (`try_clone` per shard); each accepted connection gets its own handler
//! thread running a keep-alive request loop, so slow clients occupy a
//! connection thread, never an acceptor. Handler threads submit into the
//! runtime's bounded queue with `try_submit` — a full queue sheds the
//! request as a 429 whose `Retry-After` comes from the queue's measured
//! drain rate, so backpressure is advertised honestly instead of by
//! stalling the socket.
//!
//! Graceful shutdown flips the stop flag, wakes every acceptor with a
//! loopback self-connect, then waits for in-flight connections to drain
//! (bounded by the read timeout: an idle keep-alive connection notices
//! the flag at its next timeout tick and closes).

use crate::coalesce::{Coalescer, Joined, Rendered};
use crate::http::{self, HttpError, Limits, Request};
use crate::json::{self, ObjectWriter};
use crate::quota::{Admit, QuotaConfig, QuotaRegistry};
use osql_repl::ReplState;
use osql_runtime::metrics::write_sample;
use osql_runtime::{
    normalize_question, retry_after_secs, CancelReason, QueryRequest, ResultKey, Runtime,
    ServeError, SubmitError,
};
use osql_trace::{RequestOutcome, RequestRecord};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use osql_chk::atomic::{AtomicBool, Ordering};
use osql_chk::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Acceptor shard threads sharing the listener.
    pub shards: usize,
    /// HTTP parser caps.
    pub limits: Limits,
    /// Socket read timeout; also bounds how long an idle keep-alive
    /// connection can delay shutdown.
    pub read_timeout: Duration,
    /// Per-API-key token-bucket quota (`None` disables quotas).
    pub quota: Option<QuotaConfig>,
    /// Follower serving mode: the replication state the local apply loop
    /// publishes into. When set, `POST /v1/query` honours the
    /// `X-Osql-Min-Seq` bounded-staleness header (503 + `Retry-After`
    /// when the replica has not yet applied the requested floor),
    /// successful answers carry `X-Osql-Applied-Seq`, and `/healthz` and
    /// `/metrics` expose per-database replication lag. `None` serves as
    /// a primary, which trivially satisfies any staleness floor.
    pub repl: Option<Arc<ReplState>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 2,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            quota: None,
            repl: None,
        }
    }
}

/// Counts live connection-handler threads so shutdown can drain them.
#[derive(Default)]
struct ConnTracker {
    live: Mutex<usize>,
    idle: Condvar,
}

impl ConnTracker {
    fn begin(&self) {
        *self.live.lock() += 1;
    }

    fn end(&self) {
        let mut live = self.live.lock();
        *live -= 1;
        if *live == 0 {
            self.idle.notify_all();
        }
    }

    fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut live = self.live.lock();
        while *live > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            live = self.idle.wait_timeout(live, left).0;
        }
        true
    }
}

/// Shared state every shard and connection thread sees.
struct Shared {
    rt: Arc<Runtime>,
    coalescer: Arc<Coalescer>,
    quota: Option<QuotaRegistry>,
    config: ServerConfig,
    stop: AtomicBool,
    conns: ConnTracker,
}

/// A running server; dropping it without [`Server::shutdown`] leaves the
/// shards serving until process exit.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    shards: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving `rt`.
    pub fn start(rt: Arc<Runtime>, addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            rt,
            coalescer: Arc::new(Coalescer::new()),
            quota: config.quota.map(QuotaRegistry::new),
            config,
            stop: AtomicBool::new(false),
            conns: ConnTracker::default(),
        });
        let mut shards = Vec::new();
        for shard in 0..shared.config.shards.max(1) {
            let listener = listener.try_clone()?;
            let shared = shared.clone();
            shards.push(
                std::thread::Builder::new()
                    .name(format!("osql-http-{shard}"))
                    .spawn(move || accept_loop(listener, shared))
                    .expect("spawn acceptor shard"),
            );
        }
        Ok(Server { addr, shared, shards })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the acceptors, and drain in-flight
    /// connections. Returns whether the drain completed before its
    /// deadline (read timeout + 1s grace).
    pub fn shutdown(self) -> bool {
        self.shared.stop.store(true, Ordering::SeqCst);
        for _ in 0..self.shards.len() {
            // unblock one accept() per shard; errors only mean the shard
            // already noticed the flag
            let _ = TcpStream::connect(self.addr);
        }
        for shard in self.shards {
            let _ = shard.join();
        }
        let grace = self.shared.config.read_timeout + Duration::from_secs(1);
        self.shared.conns.wait_idle(grace)
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return; // wake-up connection (or a straggler): refuse
                }
                shared.conns.begin();
                let conn_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("osql-http-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared.conns.end();
                    });
                if spawned.is_err() {
                    shared.conns.end();
                }
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // transient accept error (e.g. EMFILE): keep accepting
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request(&mut reader, &shared.config.limits) {
            Ok(None) => return,
            Err(HttpError::Io(_)) => return, // timeout or reset: close silently
            Err(err) => {
                // parse error: answer once, then close — the byte stream
                // is unsynchronized so the connection cannot be reused
                let body = json::error_body(&match &err {
                    HttpError::BadRequest(msg) => msg.clone(),
                    HttpError::HeadersTooLarge => "headers too large".to_owned(),
                    HttpError::BodyTooLarge => "body too large".to_owned(),
                    HttpError::Io(_) => unreachable!("handled above"),
                });
                let _ = http::write_response(
                    &mut writer,
                    err.status(),
                    "application/json",
                    &[],
                    body.as_bytes(),
                    false,
                );
                return;
            }
            Ok(Some(req)) => {
                shared
                    .rt
                    .metrics()
                    .counter_with("http_requests_total", &[("method", method_label(&req.method))])
                    .inc();
                let keep_alive = req.keep_alive && !shared.stop.load(Ordering::SeqCst);
                let out = route(shared, &req);
                shared
                    .rt
                    .metrics()
                    .counter_with(
                        "http_responses_total",
                        &[("status", &out.rendered.status.to_string())],
                    )
                    .inc();
                let mut extra = out.extra_headers;
                if let Some(secs) = out.rendered.retry_after_secs {
                    extra.push(("retry-after".to_owned(), secs.to_string()));
                }
                if http::write_response(
                    &mut writer,
                    out.rendered.status,
                    out.content_type,
                    &extra,
                    &out.rendered.body,
                    keep_alive,
                )
                .is_err()
                    || !keep_alive
                {
                    return;
                }
            }
        }
    }
}

/// The `method` label of `http_requests_total`. The parser accepts any
/// all-uppercase token as a method and the counter is bumped before
/// routing, so the token itself must never become a label value: each
/// distinct one would be a permanent series a remote caller can mint.
fn method_label(method: &str) -> &str {
    match method {
        "GET" | "POST" | "PUT" | "DELETE" | "HEAD" | "OPTIONS" | "PATCH" => method,
        _ => "OTHER",
    }
}

/// A routed response: shared rendered payload plus per-connection extras.
struct Routed {
    rendered: Arc<Rendered>,
    content_type: &'static str,
    extra_headers: Vec<(String, String)>,
}

impl Routed {
    fn json(status: u16, body: String) -> Routed {
        Routed {
            rendered: Arc::new(Rendered {
                status,
                body: Arc::new(body.into_bytes()),
                retry_after_secs: None,
                trace_id: None,
            }),
            content_type: "application/json",
            extra_headers: Vec::new(),
        }
    }

    fn error(status: u16, message: &str) -> Routed {
        Routed::json(status, json::error_body(message))
    }
}

fn route(shared: &Shared, req: &Request) -> Routed {
    match (req.method.as_str(), req.path()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => {
            let mut text = shared.rt.refreshed_metrics().render_prometheus();
            text.push_str(&shared.rt.windowed().render_prometheus());
            if let Some(state) = &shared.config.repl {
                repl_exposition(&mut text, state);
            }
            Routed {
                rendered: Arc::new(Rendered {
                    status: 200,
                    body: Arc::new(text.into_bytes()),
                    retry_after_secs: None,
                    trace_id: None,
                }),
                content_type: "text/plain; version=0.0.4",
                extra_headers: Vec::new(),
            }
        }
        ("GET", "/v1/catalog") => catalog(shared),
        ("POST", "/v1/query") => query(shared, req),
        ("GET", "/debug/requests") => debug_records(shared, req, false),
        ("GET", "/debug/slow") => debug_records(shared, req, true),
        ("GET", "/debug/slo") => Routed::json(200, shared.rt.slo_report().to_json()),
        ("GET", path) if path.starts_with("/debug/trace/") => {
            debug_trace(shared, &path["/debug/trace/".len()..])
        }
        ("GET", "/v1/query") | ("POST", "/metrics" | "/healthz" | "/v1/catalog") => {
            Routed::error(405, "method not allowed")
        }
        _ => Routed::error(404, "no such endpoint"),
    }
}

fn healthz(shared: &Shared) -> Routed {
    let stats = shared.rt.queue_stats();
    let flight = shared.rt.flight();
    let mut obj = ObjectWriter::new();
    obj.str_field("status", "ok")
        .u64_field("queue_depth", stats.depth as u64)
        .u64_field("queue_capacity", stats.capacity as u64)
        .u64_field("inflight_coalesced_keys", shared.coalescer.inflight_len() as u64)
        .u64_field("flight_recorder_depth", flight.depth() as u64)
        .u64_field("flight_recorder_capacity", flight.capacity() as u64)
        .u64_field("flight_inflight", flight.inflight_len() as u64)
        .opt_u64_field("last_slow_age_secs", flight.last_slow_age_secs());
    match &shared.config.repl {
        Some(state) => {
            obj.str_field("role", "follower")
                .u64_field("repl_max_lag", state.max_lag())
                .u64_field("repl_stale_rejections", state.stale_rejections());
            let dbs = state.snapshot().into_iter().map(|(db, status)| {
                let mut entry = ObjectWriter::new();
                entry
                    .str_field("db_id", &db)
                    .u64_field("applied_seq", status.applied_seq)
                    .u64_field("target_seq", status.target_seq)
                    .u64_field("lag", status.lag())
                    .u64_field("polls", status.polls);
                match &status.last_error {
                    Some(err) => entry.str_field("last_error", err),
                    None => entry.raw_field("last_error", "null"),
                };
                entry.finish()
            });
            let dbs = json::array(dbs);
            obj.raw_field("replication", &dbs);
        }
        None => {
            obj.str_field("role", "primary");
        }
    }
    Routed::json(200, obj.finish())
}

/// `/debug/requests` and `/debug/slow`: recent flight records, newest
/// first, without tail-sampled payloads (`?n=` caps the count).
fn debug_records(shared: &Shared, req: &Request, slow_only: bool) -> Routed {
    let n = req.query_param("n").and_then(|v| v.parse().ok()).unwrap_or(32usize);
    let flight = shared.rt.flight();
    let records = if slow_only { flight.slow(n) } else { flight.recent(n) };
    let mut obj = ObjectWriter::new();
    obj.u64_field("count", records.len() as u64).raw_field(
        if slow_only { "slow" } else { "requests" },
        &json::array(records.iter().map(|r| r.to_json(false))),
    );
    Routed::json(200, obj.finish())
}

/// `/debug/trace/<id>`: one flight record by trace ID, payloads included
/// (rendered span tree and `EXPLAIN` when tail sampling retained them).
fn debug_trace(shared: &Shared, id: &str) -> Routed {
    if !osql_trace::valid_trace_id(id) {
        return Routed::error(400, "invalid trace id");
    }
    match shared.rt.flight().lookup(id) {
        Some(rec) => Routed::json(200, rec.to_json(true)),
        None => Routed::error(404, "no such trace id (evicted or never recorded)"),
    }
}

/// Prometheus-style exposition of the follower's replication state,
/// appended to the runtime registry's `/metrics` output: per-database
/// applied/target sequences and lag plus the fetch/apply/rejection
/// totals, so a dashboard sees staleness the same way admission does.
fn repl_exposition(out: &mut String, state: &ReplState) {
    for (db, status) in state.snapshot() {
        for (name, value) in [
            ("repl_applied_seq", status.applied_seq),
            ("repl_target_seq", status.target_seq),
            ("repl_lag", status.lag()),
            ("repl_polls_total", status.polls),
            ("repl_segments_fetched_total", status.segments_fetched),
            ("repl_txns_applied_total", status.txns_applied),
        ] {
            write_sample(out, name, &[("db", &db)], value);
        }
    }
    write_sample(out, "repl_stale_rejections_total", &[], state.stale_rejections());
}

fn catalog(shared: &Shared) -> Routed {
    let assets = shared.rt.assets();
    let mut obj = ObjectWriter::new();
    match assets.catalog() {
        Some(cat) => {
            obj.str_field("mode", "paged")
                .opt_u64_field("budget_bytes", Some(cat.budget()).filter(|b| *b != u64::MAX))
                .u64_field("resident_bytes", cat.resident_bytes());
            let entries = json::array(cat.resident().iter().map(|(id, bytes)| {
                let mut entry = ObjectWriter::new();
                entry.str_field("db_id", id).u64_field("bytes", *bytes);
                entry.finish()
            }));
            obj.raw_field("resident", &entries);
            match cat.available() {
                Ok(ids) => {
                    obj.raw_field("on_disk", &json::string_array(&ids));
                }
                Err(e) => {
                    obj.str_field("scan_error", &e.to_string());
                }
            }
            obj.u64_field("loads", cat.loads()).u64_field("evictions", cat.evictions());
        }
        None => {
            obj.str_field("mode", "eager").u64_field("resident_dbs", assets.len() as u64);
        }
    }
    Routed::json(200, obj.finish())
}

fn shed_response(shared: &Shared, group: usize, trace_id: &str) -> Rendered {
    let retry = shared.rt.queue_stats().estimated_drain_secs();
    let mut obj = ObjectWriter::new();
    obj.str_field("error", "queue full")
        .str_field("trace_id", trace_id)
        .u64_field("retry_after_secs", retry)
        .u64_field("coalesced_group", group as u64);
    Rendered {
        status: 429,
        body: Arc::new(obj.finish().into_bytes()),
        retry_after_secs: Some(retry),
        trace_id: Some(trace_id.to_owned()),
    }
}

/// A one-shot flight record for a request the runtime never served
/// (quota rejection, shed, coalesced waiter).
fn flight_note(
    trace_id: &str,
    db_id: &str,
    question: &str,
    outcome: RequestOutcome,
    error: Option<String>,
) -> RequestRecord {
    let mut rec = RequestRecord::new(trace_id, db_id);
    rec.question_hash = osql_trace::flight::fnv1a(normalize_question(question).as_bytes());
    rec.outcome = outcome;
    rec.error = error;
    rec
}

fn query(shared: &Shared, req: &Request) -> Routed {
    // Accept a caller-supplied trace ID or mint one; either way the ID is
    // fixed before admission so rejected requests are traceable too.
    let trace_id = match req.header("x-osql-trace-id") {
        Some(id) if osql_trace::valid_trace_id(id) => id.to_owned(),
        Some(_) => {
            return Routed::error(
                400,
                "invalid X-Osql-Trace-Id (1-64 chars from [A-Za-z0-9._-])",
            )
        }
        None => shared.rt.next_trace_id(),
    };
    let id_header = vec![("x-osql-trace-id".to_owned(), trace_id.clone())];

    let fields = match json::parse_string_object(&req.body) {
        Ok(fields) => fields,
        Err(msg) => return Routed::error(400, &msg),
    };
    let Some(db_id) = json::field(&fields, "db_id") else {
        return Routed::error(400, "missing field \"db_id\"");
    };
    let Some(question) = json::field(&fields, "question") else {
        return Routed::error(400, "missing field \"question\"");
    };
    let evidence = json::field(&fields, "evidence").unwrap_or("");

    // Bounded-staleness floor: the caller's minimum acceptable applied
    // sequence. Parsed before admission so a malformed header is a 400
    // even on a primary (where any floor is trivially met).
    let min_seq = match req.header("x-osql-min-seq") {
        Some(v) => match v.trim().parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                return Routed::error(
                    400,
                    "invalid X-Osql-Min-Seq (expected a decimal commit sequence)",
                )
            }
        },
        None => None,
    };

    if let Some(quota) = &shared.quota {
        let api_key = req.header("x-api-key").unwrap_or("anonymous");
        if let Admit::Rejected { retry_after_secs } = quota.admit(api_key) {
            shared.rt.metrics().counter("quota_rejections_total").inc();
            shared.rt.flight().record(flight_note(
                &trace_id,
                db_id,
                question,
                RequestOutcome::Quota,
                Some("quota exceeded".to_owned()),
            ));
            let mut obj = ObjectWriter::new();
            obj.str_field("error", "quota exceeded")
                .str_field("trace_id", &trace_id)
                .u64_field("retry_after_secs", retry_after_secs);
            return Routed {
                rendered: Arc::new(Rendered {
                    status: 429,
                    body: Arc::new(obj.finish().into_bytes()),
                    retry_after_secs: Some(retry_after_secs),
                    trace_id: Some(trace_id),
                }),
                content_type: "application/json",
                extra_headers: id_header,
            };
        }
    }

    // Follower mode: resolve the replica's applied position once, before
    // the coalescer. It is the data version the answer is keyed by — in
    // the coalescer, the result cache and the asset cache alike — so an
    // admitted read never shares an answer computed on data older than
    // the position it was admitted at.
    let applied_seq = shared.config.repl.as_ref().and_then(|s| s.applied_seq(db_id));
    let mut extra_headers = id_header;
    if let Some(applied) = applied_seq {
        extra_headers.push(("x-osql-applied-seq".to_owned(), applied.to_string()));
    }
    if let (Some(state), Some(min)) = (&shared.config.repl, min_seq) {
        // no apply loop has reported this database yet: every floor is
        // unmet (applied position unknown, assume 0)
        let applied = applied_seq.unwrap_or(0);
        if applied < min {
            state.record_stale_rejection();
            shared.rt.flight().record(flight_note(
                &trace_id,
                db_id,
                question,
                RequestOutcome::Stale,
                Some(format!("applied_seq {applied} below requested floor {min}")),
            ));
            let retry = retry_after_secs(state.retry_hint_secs() as f64, 60);
            let mut obj = ObjectWriter::new();
            obj.str_field("error", "replica not caught up")
                .str_field("trace_id", &trace_id)
                .u64_field("applied_seq", applied)
                .u64_field("min_seq", min)
                .u64_field("retry_after_secs", retry);
            return Routed {
                rendered: Arc::new(Rendered {
                    status: 503,
                    body: Arc::new(obj.finish().into_bytes()),
                    retry_after_secs: Some(retry),
                    trace_id: Some(trace_id),
                }),
                content_type: "application/json",
                extra_headers,
            };
        }
    }

    let seq = applied_seq.unwrap_or(0);
    let key =
        ResultKey { seq, ..ResultKey::new(db_id, question, evidence, shared.rt.fingerprint()) };
    let rendered = match shared.coalescer.join(key) {
        Joined::Waiter(waiter) => {
            shared.rt.metrics().counter("coalesced_requests_total").inc();
            let rendered = waiter.wait();
            // the waiter's own record points at the flight it rode on —
            // `/debug/trace/<leader>` has the real timings
            let mut rec = flight_note(
                &trace_id,
                db_id,
                question,
                if rendered.status == 200 { RequestOutcome::Ok } else { RequestOutcome::Error },
                (rendered.status != 200)
                    .then(|| format!("coalesced leader answered {}", rendered.status)),
            );
            rec.coalesced_into = rendered.trace_id.clone();
            shared.rt.flight().record(rec);
            rendered
        }
        Joined::Leader(token) => {
            let started = Instant::now();
            let request = QueryRequest::new(db_id, question, evidence)
                .with_trace_id(trace_id.clone())
                .with_seq(seq);
            match shared.rt.try_submit(request) {
                Err(SubmitError::QueueFull) => {
                    shared.rt.flight().record(flight_note(
                        &trace_id,
                        db_id,
                        question,
                        RequestOutcome::Shed,
                        Some("queue full".to_owned()),
                    ));
                    token.complete(|group| shed_response(shared, group, &trace_id))
                }
                Err(SubmitError::ShuttingDown) => {
                    shared.rt.flight().record(flight_note(
                        &trace_id,
                        db_id,
                        question,
                        RequestOutcome::Canceled,
                        Some("server is shutting down".to_owned()),
                    ));
                    token.complete(|_| Rendered {
                        status: 503,
                        body: Arc::new(json::error_body("server is shutting down").into_bytes()),
                        retry_after_secs: None,
                        trace_id: Some(trace_id.clone()),
                    })
                }
                Ok(ticket) => {
                    let outcome = ticket.wait();
                    let total_ms = started.elapsed().as_secs_f64() * 1e3;
                    token.complete(|group| match outcome {
                        Ok(resp) => {
                            let mut obj = ObjectWriter::new();
                            obj.str_field("db_id", db_id)
                                .str_field("question", question)
                                .str_field("sql", &resp.run.final_sql)
                                .str_field("trace_id", &resp.trace_id)
                                .bool_field("from_cache", resp.from_cache)
                                .u64_field("coalesced_group", group as u64)
                                .f64_field("queue_wait_ms", resp.queue_wait_ms)
                                .f64_field("total_ms", total_ms);
                            Rendered {
                                status: 200,
                                body: Arc::new(obj.finish().into_bytes()),
                                retry_after_secs: None,
                                trace_id: Some(resp.trace_id),
                            }
                        }
                        Err(err) => {
                            let (status, message) = match &err {
                                ServeError::UnknownDb(id) => {
                                    (404, format!("unknown database {id}"))
                                }
                                ServeError::DbLoadFailed { db_id, reason } => {
                                    (503, format!("database {db_id} failed to load: {reason}"))
                                }
                                ServeError::Canceled { reason: CancelReason::Shutdown } => {
                                    (503, "server is shutting down".to_owned())
                                }
                                ServeError::Canceled { reason: CancelReason::WorkerLost } => {
                                    (500, "worker lost while serving request".to_owned())
                                }
                            };
                            Rendered {
                                status,
                                body: Arc::new(json::error_body(&message).into_bytes()),
                                retry_after_secs: None,
                                trace_id: Some(trace_id.clone()),
                            }
                        }
                    })
                }
            }
        }
    };
    Routed { rendered, content_type: "application/json", extra_headers }
}
