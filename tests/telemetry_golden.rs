//! The frozen telemetry oracle: every byte the metrics registry, the
//! windowed/SLO block, the flight recorder and the server's JSON
//! endpoints wrote on commit 84ce847 — the last one with
//! three bucket maths, four Prometheus writers and three JSON escapers —
//! recorded under `tests/golden/telemetry/` and replayed here. The one
//! telemetry core that replaced them must reproduce all of it exactly.
//!
//! Every JSON line is also parsed with `serde_json`, so a golden can
//! never bless malformed output.

mod recording;

use osql_runtime::metrics::FRACTION_BOUNDS;
use osql_runtime::{LogicalClock, MetricsRegistry, SloConfig, WindowedMetrics};
use osql_trace::{QueryTrace, RequestOutcome, RequestRecord, Trace};
use std::sync::Arc;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/telemetry").join(name)
}

fn assert_json_lines(name: &str, text: &str) {
    for line in text.lines() {
        if let Err(e) = serde_json::from_str::<serde_json::Value>(line) {
            panic!("{name}: not JSON ({e}): {line}");
        }
    }
}

/// Compare `(file, bytes)` pairs against the recorded files.
fn check(goldens: &[(&str, String)]) {
    for (name, actual) in goldens {
        if name.ends_with(".jsonl") {
            assert_json_lines(name, actual);
        }
        let recorded = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("tests/golden/telemetry/{name}: {e}"));
        assert_eq!(&recorded, actual, "{name} differs from the bytes recorded on 84ce847");
    }
}

const HOSTILE: &str = "say \"hi\"\\ back/\n\r\t\u{1}\u{1f}\u{7f} é 咖啡 \u{1F600}";

// ---- (a) the registry ----------------------------------------------------

fn registry_goldens() -> Vec<(&'static str, String)> {
    let reg = MetricsRegistry::new();
    reg.counter("requests_total").add(7);
    reg.counter("untouched_total");
    reg.counter("queue_depth").set(3);
    reg.counter("plan_cache_hits").raise_to(41);
    reg.counter_with("http_requests_total", &[("method", "POST")]).inc();
    reg.counter_with("http_requests_total", &[("method", "GET")]).add(3);
    reg.counter_with("multi", &[("b", "2"), ("a", "1")]).add(2);
    reg.counter_with("multi", &[("a", "1"), ("b", "2")]).inc();
    reg.counter_with("hostile_total", &[("path", "C:\\dir\\\"quoted\" é 咖啡 \u{1F600}")]).inc();
    reg.counter_with("store_op_us_bucket", &[("le", "250"), ("op", "wal_commit")]).raise_to(9);

    let extraction = reg.latency_with("stage_latency_ms", &[("stage", "extraction")]);
    for v in [0.4, 1.0, 1.0001, 3.3, 42.0, 480.0, 9999.9995, 20000.0] {
        extraction.record(v);
    }
    let refinement = reg.latency_with("stage_latency_ms", &[("stage", "refinement")]);
    refinement.record(30.0);
    refinement.record(40.0);
    // sub-milli-unit rounding and the clamp at zero
    let wait = reg.latency("queue_wait_ms");
    for v in [0.0015, 0.0004, -1.0, 0.0] {
        wait.record(v);
    }
    // every observation in the overflow bucket: unbounded quantiles
    let saturated = reg.histogram("saturated_ms", &[1.0]);
    for _ in 0..10 {
        saturated.record(99.0);
    }
    let margin = reg.histogram("vote_margin", &FRACTION_BOUNDS);
    for v in [0.15, 0.6, 1.0] {
        margin.record(v);
    }
    reg.histogram("empty_hist", &[0.5, 2.5]);
    reg.histogram_with("hostile_hist", &[("k", "a\"b\\c")], &[1.0, 2.0]).record(1.5);

    vec![("registry.prom.txt", reg.render_prometheus())]
}

#[test]
fn registry_renderings_match_the_recorded_bytes() {
    check(&registry_goldens());
    assert_eq!(MetricsRegistry::new().render_prometheus(), "");
}

// ---- (b) the window ring and the SLO views ---------------------------------

fn window_goldens() -> Vec<(&'static str, String)> {
    let slo = SloConfig {
        availability_target: 0.9,
        latency_target_ms: 100.0,
        latency_fraction: 0.5,
        short_window: 2,
        long_window: 4,
        alert_burn_rate: 2.0,
    };
    let clock = Arc::new(LogicalClock::new());
    let w = WindowedMetrics::new(clock.clone(), slo);
    let mut prom = String::new();
    let mut slo_json = String::new();
    let mut snapshot = |w: &WindowedMetrics| {
        prom.push_str(&format!("== tick {} ==\n", w.clock().now()));
        prom.push_str(&w.render_prometheus());
        slo_json.push_str(&w.slo_report().to_json());
        slo_json.push('\n');
    };
    let advance_to = |tick: u64| {
        while clock.now() < tick {
            clock.advance();
        }
    };

    snapshot(&w); // nothing observed yet
    w.observe(5.0, true, false);
    w.observe(700.0, false, false);
    w.observe(0.0, true, true);
    snapshot(&w);
    advance_to(1);
    w.observe(42.0, true, false);
    w.observe(20_000.0, true, false); // overflow bucket: p99 is unbounded
    snapshot(&w);
    advance_to(3); // tick 2 stays empty
    w.observe(250.0, false, false);
    snapshot(&w);
    advance_to(4); // maps onto tick 0's slot, which must be reset
    w.observe(1.0, true, true);
    snapshot(&w);
    advance_to(5);
    w.observe(99.9995, true, false);
    w.observe(100.0, true, false);
    w.observe(100.0001, false, false);
    advance_to(6);
    // a writer that read the clock at tick 1 and lost the race: tick 5
    // owns that slot now, so the sample is dropped, not misfiled
    w.observe_at(1, 9_999.0, false, true);
    // a late write to a tick whose slot nobody claimed since is kept in
    // the ring but lies outside every window ending at 6
    w.observe_at(2, 7.0, false, false);
    snapshot(&w);
    advance_to(11); // the whole ring is stale
    snapshot(&w);
    w.observe(3.0, false, false);
    snapshot(&w);

    vec![("window.prom.txt", prom), ("window.slo.jsonl", slo_json)]
}

#[test]
fn window_and_slo_views_match_the_recorded_bytes() {
    check(&window_goldens());
}

// ---- (c) flight records --------------------------------------------------------

/// Two spans with hostile names, labels and timings, an event in each
/// view, and two records dropped at capacity — built through the `Trace`
/// API, with the clock readings given.
fn hostile_trace() -> QueryTrace {
    let mut t = Trace::with_capacity(4);
    let root = t.start_at("pipe\"line\"\n", 0);
    t.label(root, "db", HOSTILE);
    t.label(root, "k\"ey", "");
    for (key, ms) in [
        ("ms", 1.25),
        ("tiny", 1e-7),
        ("huge", 1.5e15),
        ("neg_zero", -0.0),
        ("nan", f64::NAN),
        ("inf", f64::INFINITY),
    ] {
        t.timing(root, key, ms);
    }
    let stage = t.start_at("stage:extraction", 1_000);
    t.event_timed("retrieve", &[("hits", &3)], &[("ms", 0.1 + 0.2)]);
    t.end_at(stage, 1_501_000);
    t.end_at(root, 2_500_000);
    t.event_volatile("queue\\wait", &[("why", &HOSTILE)], &[]);
    t.event("over capacity", &[]);
    t.event("over capacity", &[]);
    let t = t.finish();
    assert_eq!(t.dropped, 2);
    t
}

fn flight_goldens() -> Vec<(&'static str, String)> {
    let mut hostile = RequestRecord::new(HOSTILE, format!("db {HOSTILE}"));
    hostile.question_hash = 0xDEAD_BEEF;
    hostile.outcome = RequestOutcome::Error;
    hostile.error = Some(format!("boom: {HOSTILE}"));
    hostile.queue_wait_ms = f64::NAN;
    hostile.total_ms = f64::INFINITY;
    hostile.stage_ms =
        vec![("extraction", 1.5), ("refinement", 0.004), ("store", 0.005), ("alignments", f64::NAN)];
    hostile.rows_scanned = u64::MAX;
    hostile.from_cache = true;
    hostile.coalesced_into = Some(format!("leader {HOSTILE}"));
    hostile.slow = true;
    hostile.seq = 42;
    hostile.trace = Some(Arc::new(hostile_trace()));
    hostile.explain = Some(format!("SCAN t\n  est=1 act=2 \"{HOSTILE}\""));

    let mut plain = RequestRecord::new("0000abcd-00000001", "healthcare");
    plain.queue_wait_ms = 0.125;
    plain.total_ms = 12.345;

    let mut explained = RequestRecord::new("only-explain", "healthcare");
    explained.outcome = RequestOutcome::Shed;
    explained.explain = Some("plan".to_owned());

    let mut records = String::new();
    for rec in [&hostile, &plain, &explained] {
        for payloads in [true, false] {
            records.push_str(&rec.to_json(payloads));
            records.push('\n');
        }
    }
    vec![("flight.jsonl", records)]
}

#[test]
fn flight_records_match_the_recorded_bytes() {
    check(&flight_goldens());
}

// ---- (d) a live server ---------------------------------------------------------

mod live {
    use llmsim::{ModelProfile, Oracle, SimLlm};
    use opensearch_sql::PipelineConfig;
    use osql_repl::{ApplyReport, ReplState};
    use osql_runtime::{open_paged_catalog, AssetCache, Runtime, RuntimeConfig};
    use osql_server::{Server, ServerConfig};
    use osql_trace::FlightConfig;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Arc;

    /// One request on a fresh connection: `(status, body)`.
    fn http(addr: SocketAddr, method: &str, path: &str, trace_id: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
        let mut msg = format!("{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n");
        if !trace_id.is_empty() {
            msg.push_str(&format!("x-osql-trace-id: {trace_id}\r\n"));
        }
        if !body.is_empty() {
            msg.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        msg.push_str("\r\n");
        msg.push_str(body);
        stream.write_all(msg.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        let status: u16 = line.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status");
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().expect("content-length");
                }
            }
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    /// Numbers that legitimately differ run to run (wall-clock timings,
    /// work meters, file sizes): the value after each of these keys is
    /// replaced by `0`, outside string literals only. Everything else is
    /// compared byte for byte.
    const VOLATILE: [&str; 10] = [
        "queue_wait_ms",
        "total_ms",
        "extraction",
        "generation",
        "refinement",
        "alignments",
        "store",
        "rows_scanned",
        "bytes",
        "resident_bytes",
    ];

    pub fn mask(json: &str) -> String {
        let mut out = String::with_capacity(json.len());
        let mut chars = json.chars().peekable();
        while let Some(c) = chars.next() {
            out.push(c);
            if c != '"' {
                continue;
            }
            // copy one string literal
            let mut literal = String::new();
            while let Some(c) = chars.next() {
                out.push(c);
                match c {
                    '\\' => {
                        if let Some(esc) = chars.next() {
                            out.push(esc);
                        }
                    }
                    '"' => break,
                    c => literal.push(c),
                }
            }
            if chars.peek() == Some(&':') && VOLATILE.contains(&literal.as_str()) {
                out.push(chars.next().expect("peeked"));
                let mut masked = false;
                while chars.peek().is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(*c)) {
                    chars.next();
                    masked = true;
                }
                if masked {
                    out.push('0');
                }
            }
        }
        out
    }

    fn query_body(db_id: &str, question: &str, evidence: &str) -> String {
        let mut obj = osql_server::json::ObjectWriter::new();
        obj.str_field("db_id", db_id).str_field("question", question).str_field("evidence", evidence);
        obj.finish()
    }

    /// The `/metrics` lines whose values a sequential script determines:
    /// request/response/cache counters, the beam's first-attempt counters,
    /// the windowed block, the SLO gauges and the replication series.
    fn deterministic_metrics(text: &str) -> String {
        const NAMES: [&str; 10] = [
            "requests_total",
            "refine_first_attempts_",
            "result_cache_hits",
            "result_cache_misses",
            "unknown_db",
            "http_requests_total",
            "http_responses_total",
            "osql_window_",
            "osql_slo_",
            "repl_",
        ];
        let mut out = String::new();
        for line in text.lines() {
            let series = line.strip_prefix("# TYPE ").unwrap_or(line);
            let name_end = series.find(['{', ' ']).unwrap_or(series.len());
            let name = &series[..name_end];
            if NAMES.iter().any(|n| if n.ends_with('_') { name.starts_with(n) } else { name == *n }) {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    fn runtime_config() -> RuntimeConfig {
        RuntimeConfig {
            workers: 1,
            tick_interval_ms: 0,
            // nothing is ever slow: tail sampling must not depend on the host
            flight: FlightConfig { slow_ms: 1e12, slow_rows: u64::MAX, ..FlightConfig::default() },
            ..RuntimeConfig::default()
        }
    }

    pub fn goldens() -> Vec<(&'static str, String)> {
        let bench = Arc::new(datagen::generate(&datagen::Profile::tiny()));
        let llm = || {
            Arc::new(SimLlm::new(Arc::new(Oracle::new(bench.clone())), ModelProfile::gpt_4o(), 0x5EED))
        };
        let mut json = String::new();
        let mut metrics = String::new();
        let mut push = |tag: &str, (status, body): (u16, String)| {
            json.push_str(&format!("{{\"golden\":\"{tag}\",\"status\":{status}}}\n"));
            json.push_str(&mask(&body));
            json.push('\n');
        };

        // an eager primary
        let assets = Arc::new(AssetCache::new(bench.clone(), llm(), PipelineConfig::fast()));
        let rt = Arc::new(Runtime::start(assets, runtime_config()));
        let server = Server::start(rt.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let ex = &bench.dev[0];
        let body = query_body(&ex.db_id, &ex.question, &ex.evidence);
        push("healthz idle", http(addr, "GET", "/healthz", "", ""));
        push("query cold", http(addr, "POST", "/v1/query", "golden-1", &body));
        push("query warm", http(addr, "POST", "/v1/query", "golden-2", &body));
        push("query unknown db", http(addr, "POST", "/v1/query", "golden-3", &query_body("gh\"ost", "q", "")));
        push("400 not an object", http(addr, "POST", "/v1/query", "", "[1,2]"));
        push("400 hostile key", http(addr, "POST", "/v1/query", "", "{\"a\\\"b\\n\\u0001\":1}"));
        push("400 missing field", http(addr, "POST", "/v1/query", "", "{}"));
        push("400 bad trace id", http(addr, "POST", "/v1/query", "no spaces!", &body));
        push("404", http(addr, "GET", "/nope", "", ""));
        push("405", http(addr, "GET", "/v1/query", "", ""));
        rt.clock().advance();
        push("debug requests", http(addr, "GET", "/debug/requests", "", ""));
        push("debug requests n=1", http(addr, "GET", "/debug/requests?n=1", "", ""));
        push("debug slow", http(addr, "GET", "/debug/slow", "", ""));
        push("debug trace", http(addr, "GET", "/debug/trace/golden-3", "", ""));
        push("debug trace 404", http(addr, "GET", "/debug/trace/never-seen", "", ""));
        push("debug slo", http(addr, "GET", "/debug/slo", "", ""));
        push("catalog eager", http(addr, "GET", "/v1/catalog", "", ""));
        push("healthz primary", http(addr, "GET", "/healthz", "", ""));
        metrics.push_str("== eager primary ==\n");
        metrics.push_str(&deterministic_metrics(&http(addr, "GET", "/metrics", "", "").1));
        assert!(server.shutdown());
        drop(rt);

        // a paged follower
        let dir = std::env::temp_dir().join(format!("osql-telemetry-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        datagen::export_store(&bench, &dir).unwrap();
        let catalog = Arc::new(open_paged_catalog(&dir, u64::MAX, &bench.name).unwrap());
        let assets = Arc::new(AssetCache::paged(catalog, llm(), PipelineConfig::fast(), &bench.train));
        let rt = Arc::new(Runtime::start(assets, runtime_config()));
        let state = Arc::new(ReplState::new(2));
        let report = |applied: u64, target: u64| ApplyReport {
            target_seq: target,
            applied_seq: applied,
            applied_txns: applied,
            stmts_applied: applied,
            segments_read: 1,
            finding: None,
        };
        state.note_poll("db_b", &report(3, 9));
        state.note_poll("db_a", &report(5, 5));
        state.note_poll("db_a", &report(7, 7));
        state.note_error("db_b", &format!("segment vanished: {}", super::HOSTILE));
        let config = ServerConfig { repl: Some(state), ..ServerConfig::default() };
        let server = Server::start(rt.clone(), "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();
        push("catalog paged cold", http(addr, "GET", "/v1/catalog", "", ""));
        push("query paged", http(addr, "POST", "/v1/query", "golden-4", &body));
        push("catalog paged", http(addr, "GET", "/v1/catalog", "", ""));
        push("healthz follower", http(addr, "GET", "/healthz", "", ""));
        metrics.push_str("== paged follower ==\n");
        metrics.push_str(&deterministic_metrics(&http(addr, "GET", "/metrics", "", "").1));
        assert!(server.shutdown());
        drop(rt);
        let _ = std::fs::remove_dir_all(&dir);

        vec![("server.jsonl", json), ("server.metrics.txt", metrics)]
    }

    #[test]
    fn mask_touches_only_volatile_numbers() {
        let masked = mask(r#"{"id":"total_ms\":9","total_ms":12.50,"stage_ms":{"store":0.01},"seq":7,"bytes":null}"#);
        assert_eq!(
            masked,
            r#"{"id":"total_ms\":9","total_ms":0,"stage_ms":{"store":0},"seq":7,"bytes":null}"#
        );
    }
}

#[test]
fn live_server_bodies_match_the_recorded_bytes() {
    check(&live::goldens());
}

/// Records every golden from whatever telemetry code is checked out, under
/// `target/golden/telemetry/`. It was run once, on 84ce847, before the
/// consolidation touched any writer. Promoting today's recording blesses
/// the current writers as their own oracle, which is only right after a
/// deliberate, reviewed format change.
#[test]
#[ignore = "records target/golden/telemetry/"]
fn record_goldens() {
    let mut all = registry_goldens();
    all.extend(window_goldens());
    all.extend(flight_goldens());
    all.extend(live::goldens());
    for (name, bytes) in all {
        if name.ends_with(".jsonl") {
            assert_json_lines(name, &bytes);
        }
        recording::write(&format!("telemetry/{name}"), &bytes);
    }
}
