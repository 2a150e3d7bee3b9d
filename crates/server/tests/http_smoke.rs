//! HTTP conformance smoke tests over loopback: every route answers,
//! malformed and oversized input gets a clean 4xx without killing the
//! accept loop, keep-alive connections are reused, quotas produce 429s,
//! and graceful shutdown drains.

mod common;

use common::{one_shot, query_body, tiny_world, Conn};
use osql_server::{QuotaConfig, Server, ServerConfig};
use std::time::Duration;

fn server_config() -> ServerConfig {
    ServerConfig { read_timeout: Duration::from_secs(2), ..ServerConfig::default() }
}

#[test]
fn endpoints_answer_over_loopback() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let server = Server::start(rt.clone(), "127.0.0.1:0", server_config()).unwrap();
    let addr = server.local_addr();

    let health = one_shot(addr, "GET", "/healthz", &[], "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    assert!(health.body.contains("queue_capacity"), "{}", health.body);
    assert!(health.body.contains("flight_recorder_depth"), "{}", health.body);
    assert!(health.body.contains("flight_recorder_capacity"), "{}", health.body);
    // no slow query yet: the age field is present but null
    assert!(health.body.contains("\"last_slow_age_secs\":null"), "{}", health.body);

    let ex = &bench.dev[0];
    let answer =
        one_shot(addr, "POST", "/v1/query", &[], &query_body(&ex.db_id, &ex.question, &ex.evidence));
    assert_eq!(answer.status, 200, "{}", answer.body);
    assert!(answer.body.contains("\"sql\":\"SELECT"), "{}", answer.body);
    assert!(answer.body.contains("\"from_cache\":false"), "{}", answer.body);
    assert!(answer.body.contains("\"coalesced_group\":1"), "{}", answer.body);

    let metrics = one_shot(addr, "GET", "/metrics", &[], "");
    assert_eq!(metrics.status, 200);
    assert!(metrics.header("content-type").unwrap().starts_with("text/plain"));
    assert!(metrics.body.contains("requests_total 1"), "{}", metrics.body);
    assert!(metrics.body.contains("http_requests_total"), "{}", metrics.body);
    // the windowed/SLO exposition rides along after the registry render
    assert!(metrics.body.contains("osql_window_requests_total"), "{}", metrics.body);
    assert!(metrics.body.contains("osql_slo_burn_rate"), "{}", metrics.body);

    let catalog = one_shot(addr, "GET", "/v1/catalog", &[], "");
    assert_eq!(catalog.status, 200);
    assert!(catalog.body.contains("\"mode\":\"eager\""), "{}", catalog.body);

    assert_eq!(one_shot(addr, "GET", "/nope", &[], "").status, 404);
    assert_eq!(one_shot(addr, "GET", "/v1/query", &[], "").status, 405);
    assert_eq!(one_shot(addr, "POST", "/metrics", &[], "").status, 405);

    let unknown = one_shot(addr, "POST", "/v1/query", &[], &query_body("ghost", "q", ""));
    assert_eq!(unknown.status, 404);
    assert!(unknown.body.contains("unknown database"), "{}", unknown.body);

    assert!(server.shutdown());
}

#[test]
fn malformed_and_oversized_input_is_rejected_without_killing_the_server() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let config = ServerConfig {
        limits: osql_server::Limits { max_header_bytes: 512, max_body_bytes: 256 },
        ..server_config()
    };
    let server = Server::start(rt, "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // malformed request line
    let mut conn = Conn::open(addr);
    conn.send_raw(b"this is not http\r\n\r\n");
    let resp = conn.read_response();
    assert_eq!(resp.status, 400);
    assert_eq!(resp.header("connection"), Some("close"));

    // bad JSON body is a 400, not a connection killer
    let bad = one_shot(addr, "POST", "/v1/query", &[], "{\"db_id\":42}");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("must be a string"), "{}", bad.body);
    let missing = one_shot(addr, "POST", "/v1/query", &[], "{}");
    assert_eq!(missing.status, 400);
    assert!(missing.body.contains("db_id"), "{}", missing.body);

    // oversized headers
    let mut conn = Conn::open(addr);
    let huge = format!("GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(2048));
    conn.send_raw(huge.as_bytes());
    assert_eq!(conn.read_response().status, 431);

    // declared body beyond the limit
    let mut conn = Conn::open(addr);
    conn.send_raw(b"POST /v1/query HTTP/1.1\r\ncontent-length: 99999\r\n\r\n");
    assert_eq!(conn.read_response().status, 413);

    // after all that abuse the accept loop still serves
    assert_eq!(one_shot(addr, "GET", "/healthz", &[], "").status, 200);
    assert!(server.shutdown());
}

#[test]
fn keep_alive_connections_are_reused() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let server = Server::start(rt.clone(), "127.0.0.1:0", server_config()).unwrap();
    let ex = &bench.dev[0];

    let mut conn = Conn::open(server.local_addr());
    let body = query_body(&ex.db_id, &ex.question, &ex.evidence);
    let first = conn.request("POST", "/v1/query", &[], &body);
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    assert!(first.body.contains("\"from_cache\":false"), "{}", first.body);

    // same socket, second request: served from the result cache
    let second = conn.request("POST", "/v1/query", &[], &body);
    assert_eq!(second.status, 200);
    assert!(second.body.contains("\"from_cache\":true"), "{}", second.body);

    let health = conn.request("GET", "/healthz", &[], "");
    assert_eq!(health.status, 200);

    // the runtime saw one connection's worth of requests, one pipeline run
    assert_eq!(rt.metrics().counter("requests_total").get(), 2);
    assert_eq!(rt.metrics().counter("result_cache_misses").get(), 1);
    assert!(server.shutdown());
}

#[test]
fn trace_ids_round_trip_and_debug_endpoints_answer() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let server = Server::start(rt.clone(), "127.0.0.1:0", server_config()).unwrap();
    let addr = server.local_addr();
    let ex = &bench.dev[0];
    let body = query_body(&ex.db_id, &ex.question, &ex.evidence);

    // a caller-supplied trace ID comes back in the body and the header
    let tagged =
        one_shot(addr, "POST", "/v1/query", &[("x-osql-trace-id", "smoke.trace-1")], &body);
    assert_eq!(tagged.status, 200, "{}", tagged.body);
    assert!(tagged.body.contains("\"trace_id\":\"smoke.trace-1\""), "{}", tagged.body);
    assert_eq!(tagged.header("x-osql-trace-id"), Some("smoke.trace-1"));

    // without the header, the server mints one and still echoes it
    let ex2 = &bench.dev[1.min(bench.dev.len() - 1)];
    let minted =
        one_shot(addr, "POST", "/v1/query", &[], &query_body(&ex2.db_id, &ex2.question, "x"));
    assert_eq!(minted.status, 200, "{}", minted.body);
    let minted_id = minted.header("x-osql-trace-id").expect("minted id header").to_owned();
    assert!(minted.body.contains(&format!("\"trace_id\":\"{minted_id}\"")), "{}", minted.body);

    // a malformed ID is rejected before any work happens
    let bad = one_shot(addr, "POST", "/v1/query", &[("x-osql-trace-id", "no spaces!")], &body);
    assert_eq!(bad.status, 400, "{}", bad.body);

    // /debug/trace/<id>: the supplied ID resolves to its flight record
    let rec = one_shot(addr, "GET", "/debug/trace/smoke.trace-1", &[], "");
    assert_eq!(rec.status, 200, "{}", rec.body);
    assert!(rec.body.contains("\"id\":\"smoke.trace-1\""), "{}", rec.body);
    assert!(rec.body.contains("\"outcome\":\"ok\""), "{}", rec.body);
    assert_eq!(one_shot(addr, "GET", "/debug/trace/never-seen", &[], "").status, 404);
    assert_eq!(one_shot(addr, "GET", "/debug/trace/bad%20id", &[], "").status, 400);

    // /debug/requests lists both finished requests, newest first
    let recent = one_shot(addr, "GET", "/debug/requests", &[], "");
    assert_eq!(recent.status, 200, "{}", recent.body);
    assert!(recent.body.contains("smoke.trace-1"), "{}", recent.body);
    assert!(recent.body.contains(&minted_id), "{}", recent.body);
    let capped = one_shot(addr, "GET", "/debug/requests?n=1", &[], "");
    assert!(capped.body.contains("\"count\":1"), "{}", capped.body);

    // /debug/slow and /debug/slo answer (nothing slow in this run)
    let slow = one_shot(addr, "GET", "/debug/slow", &[], "");
    assert_eq!(slow.status, 200, "{}", slow.body);
    assert!(slow.body.contains("\"slow\":["), "{}", slow.body);
    let slo = one_shot(addr, "GET", "/debug/slo", &[], "");
    assert_eq!(slo.status, 200, "{}", slo.body);
    assert!(slo.body.contains("availability"), "{}", slo.body);
    assert!(slo.body.contains("burn_rate"), "{}", slo.body);

    assert!(server.shutdown());
}

/// A repeated question is answered from the result cache on the
/// connection thread, before the queue: its flight record says so, with
/// no queue wait at all.
#[test]
fn a_cached_answer_never_queues() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let server = Server::start(rt.clone(), "127.0.0.1:0", server_config()).unwrap();
    let addr = server.local_addr();
    let ex = &bench.dev[0];
    let body = query_body(&ex.db_id, &ex.question, &ex.evidence);
    for id in ["smoke.cold", "smoke.warm"] {
        let resp = one_shot(addr, "POST", "/v1/query", &[("x-osql-trace-id", id)], &body);
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let newest = one_shot(addr, "GET", "/debug/requests?n=1", &[], "");
    assert_eq!(newest.status, 200, "{}", newest.body);
    for field in ["\"id\":\"smoke.warm\"", "\"from_cache\":true", "\"queue_wait_ms\":0.00,"] {
        assert!(newest.body.contains(field), "{field} missing: {}", newest.body);
    }
    let warm = rt.flight().lookup("smoke.warm").expect("recorded");
    assert!(warm.from_cache);
    assert_eq!(warm.queue_wait_ms, 0.0, "never queued");
    assert!(rt.flight().lookup("smoke.cold").is_some_and(|cold| !cold.from_cache));
    assert!(server.shutdown());
}

/// The parser accepts any all-uppercase token as a method and the request
/// counter is bumped before routing: the token must not become a label,
/// or every distinct one is a permanent series a remote caller minted.
#[test]
fn bogus_methods_cannot_mint_metric_series() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 1);
    let server = Server::start(rt.clone(), "127.0.0.1:0", server_config()).unwrap();
    let mut conn = Conn::open(server.local_addr());
    for i in 0..500u32 {
        let method: String =
            (0..4).map(|d| char::from(b'A' + ((i / 26u32.pow(d)) % 26) as u8)).collect();
        let path = if i % 2 == 0 { "/healthz" } else { "/v1/query" };
        let resp = conn.request(&method, path, &[], "");
        assert_eq!(resp.status, 404, "{method} {path}: {}", resp.body);
    }
    assert_eq!(conn.request("POST", "/healthz", &[], "").status, 405);
    let series = rt.metrics().counter_series("http_requests_total");
    assert!(series.len() <= 8, "{} method series", series.len());
    assert_eq!(rt.metrics().counter_with("http_requests_total", &[("method", "OTHER")]).get(), 500);
    assert!(server.shutdown());
}

/// Pin the shared `Retry-After` rounding: admission-control sheds
/// (`QueueStats::estimated_drain_secs`) and quota rejections
/// (`QuotaRegistry::admit`) both route through
/// `osql_runtime::retry_after_secs`, so its edge cases are the contract
/// for every 429 the server emits.
#[test]
fn retry_after_rounding_is_shared_and_pinned() {
    use osql_runtime::retry_after_secs;
    assert_eq!(retry_after_secs(0.5, 3600), 1, "sub-second estimates round up");
    assert_eq!(retry_after_secs(0.0, 60), 1, "zero still advises a pause");
    assert_eq!(retry_after_secs(2.0, 3600), 2);
    assert_eq!(retry_after_secs(2.0001, 3600), 3, "ceil, never floor");
    assert_eq!(retry_after_secs(9999.0, 60), 60, "capped");
    assert_eq!(retry_after_secs(f64::NAN, 60), 60, "non-finite estimates hit the cap");
    assert_eq!(retry_after_secs(f64::INFINITY, 60), 60);
    assert_eq!(retry_after_secs(5.0, 0), 1, "a zero cap still answers at least 1s");
}

#[test]
fn per_key_quotas_shed_with_retry_after() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let config = ServerConfig {
        quota: Some(QuotaConfig { capacity: 2.0, refill_per_sec: 0.5, max_keys: 16 }),
        ..server_config()
    };
    let server = Server::start(rt.clone(), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let ex = &bench.dev[0];
    let body = query_body(&ex.db_id, &ex.question, &ex.evidence);

    let key = [("x-api-key", "tenant-a")];
    assert_eq!(one_shot(addr, "POST", "/v1/query", &key, &body).status, 200);
    assert_eq!(one_shot(addr, "POST", "/v1/query", &key, &body).status, 200);
    let shed = one_shot(addr, "POST", "/v1/query", &key, &body);
    assert_eq!(shed.status, 429);
    assert!(shed.body.contains("quota exceeded"), "{}", shed.body);
    let retry: u64 = shed.header("retry-after").expect("retry-after").parse().unwrap();
    assert!(retry >= 1, "retry-after {retry}");

    // a different key has its own bucket
    let other = [("x-api-key", "tenant-b")];
    assert_eq!(one_shot(addr, "POST", "/v1/query", &other, &body).status, 200);
    assert_eq!(rt.metrics().counter("quota_rejections_total").get(), 1);
    assert!(server.shutdown());
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let server = Server::start(rt, "127.0.0.1:0", server_config()).unwrap();
    let addr = server.local_addr();
    assert_eq!(one_shot(addr, "GET", "/healthz", &[], "").status, 200);
    assert!(server.shutdown(), "drain should complete");

    // the listener is gone: connects fail or are immediately closed
    match std::net::TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = [0u8; 1];
            use std::io::Read as _;
            // a refused/reset/empty read all mean nobody is serving
            assert!(matches!((&stream).read(&mut buf), Ok(0) | Err(_)));
        }
    }
}
