//! Follower serving mode over loopback: bounded-staleness admission via
//! `X-Osql-Min-Seq`, the `X-Osql-Applied-Seq` response header, and the
//! replication fields `/healthz` and `/metrics` grow when the server is
//! a replica. The apply loop itself is exercised in `osql-repl`; here a
//! test stands in for it by publishing into the shared [`ReplState`].

mod common;

use common::{one_shot, query_body, tiny_world};
use osql_repl::{ApplyReport, ReplState};
use osql_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn follower_config(state: Arc<ReplState>) -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_secs(2),
        repl: Some(state),
        ..ServerConfig::default()
    }
}

fn report(applied: u64, target: u64) -> ApplyReport {
    ApplyReport {
        target_seq: target,
        applied_seq: applied,
        applied_txns: applied,
        stmts_applied: applied,
        segments_read: 1,
        finding: None,
    }
}

#[test]
fn bounded_staleness_floor_gates_admission() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let state = Arc::new(ReplState::new(2));
    let server = Server::start(rt, "127.0.0.1:0", follower_config(state.clone())).unwrap();
    let addr = server.local_addr();
    let ex = &bench.dev[0];
    let body = query_body(&ex.db_id, &ex.question, &ex.evidence);

    // no apply loop has reported this database: every floor is unmet
    let early = one_shot(addr, "POST", "/v1/query", &[("x-osql-min-seq", "1")], &body);
    assert_eq!(early.status, 503, "{}", early.body);
    assert!(early.body.contains("replica not caught up"), "{}", early.body);
    assert!(early.body.contains("\"applied_seq\":0"), "{}", early.body);
    assert_eq!(early.header("retry-after"), Some("2"), "hint flows into Retry-After");

    state.note_poll(&ex.db_id, &report(5, 7));

    // floor at or below the applied position: served, and the response
    // advertises the position the admission decision was made against
    let met = one_shot(addr, "POST", "/v1/query", &[("x-osql-min-seq", "5")], &body);
    assert_eq!(met.status, 200, "{}", met.body);
    assert_eq!(met.header("x-osql-applied-seq"), Some("5"));
    assert!(met.body.contains("\"sql\":\"SELECT"), "{}", met.body);

    // no floor at all: always served on a replica too
    let unbounded = one_shot(addr, "POST", "/v1/query", &[], &body);
    assert_eq!(unbounded.status, 200, "{}", unbounded.body);
    assert_eq!(unbounded.header("x-osql-applied-seq"), Some("5"));

    // floor above the applied position: honest 503, not stale data
    let ahead = one_shot(addr, "POST", "/v1/query", &[("x-osql-min-seq", "6")], &body);
    assert_eq!(ahead.status, 503, "{}", ahead.body);
    assert!(ahead.body.contains("\"applied_seq\":5"), "{}", ahead.body);
    assert!(ahead.body.contains("\"min_seq\":6"), "{}", ahead.body);
    assert!(ahead.body.contains("\"retry_after_secs\":2"), "{}", ahead.body);

    // malformed floor is a client error, not a guess
    let bad = one_shot(addr, "POST", "/v1/query", &[("x-osql-min-seq", "soon")], &body);
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("X-Osql-Min-Seq"), "{}", bad.body);

    assert_eq!(state.stale_rejections(), 2);
    assert!(server.shutdown());
}

/// A read admitted at a newer applied position never joins a leader
/// admitted at an older one: the position is part of the coalescer key,
/// so the second read runs on its own and answers under its own trace.
#[test]
fn a_read_at_a_newer_position_never_joins_an_older_leader() {
    let bench = tiny_world();
    let (gate, rt) = common::gated_runtime(&bench, 2, 8, 16);
    let state = Arc::new(ReplState::new(1));
    let ex = &bench.dev[0];
    state.note_poll(&ex.db_id, &report(5, 5));
    let server = Server::start(rt.clone(), "127.0.0.1:0", follower_config(state.clone())).unwrap();
    let addr = server.local_addr();
    let body = query_body(&ex.db_id, &ex.question, &ex.evidence);
    let ask = |min_seq: &'static str, trace_id: &'static str| {
        let body = body.clone();
        std::thread::spawn(move || {
            one_shot(
                addr,
                "POST",
                "/v1/query",
                &[("x-osql-min-seq", min_seq), ("x-osql-trace-id", trace_id)],
                &body,
            )
        })
    };
    let count = |name: &str| rt.metrics().counter(name).get();

    gate.set_open(false);
    let leader = ask("5", "leader-at-5");
    while count("requests_total") < 1 {
        std::thread::yield_now();
    }
    state.note_poll(&ex.db_id, &report(6, 6));
    let reader = ask("6", "reader-at-6");
    // admitted: running beside the leader, or parked behind it
    while count("requests_total") < 2 && count("coalesced_requests_total") < 1 {
        std::thread::yield_now();
    }
    gate.set_open(true);
    let (leader, reader) = (leader.join().unwrap(), reader.join().unwrap());

    assert_eq!(leader.status, 200, "{}", leader.body);
    assert_eq!(leader.header("x-osql-applied-seq"), Some("5"));
    assert!(leader.body.contains("\"trace_id\":\"leader-at-5\""), "{}", leader.body);
    assert_eq!(reader.status, 200, "{}", reader.body);
    assert_eq!(reader.header("x-osql-applied-seq"), Some("6"));
    assert!(reader.body.contains("\"trace_id\":\"reader-at-6\""), "{}", reader.body);
    assert!(reader.body.contains("\"coalesced_group\":1"), "{}", reader.body);
    assert_eq!(count("coalesced_requests_total"), 0);
    assert!(server.shutdown());
}

#[test]
fn healthz_and_metrics_expose_replication_state() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let state = Arc::new(ReplState::new(1));
    state.note_poll("db_a", &report(3, 9));
    let server = Server::start(rt, "127.0.0.1:0", follower_config(state.clone())).unwrap();
    let addr = server.local_addr();

    let health = one_shot(addr, "GET", "/healthz", &[], "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"role\":\"follower\""), "{}", health.body);
    assert!(health.body.contains("\"repl_max_lag\":6"), "{}", health.body);
    assert!(health.body.contains("\"db_id\":\"db_a\""), "{}", health.body);
    assert!(health.body.contains("\"applied_seq\":3"), "{}", health.body);
    assert!(health.body.contains("\"target_seq\":9"), "{}", health.body);
    assert!(health.body.contains("\"lag\":6"), "{}", health.body);
    assert!(health.body.contains("\"last_error\":null"), "{}", health.body);

    state.note_error("db_a", "segment vanished");
    let degraded = one_shot(addr, "GET", "/healthz", &[], "");
    assert!(degraded.body.contains("\"last_error\":\"segment vanished\""), "{}", degraded.body);

    let metrics = one_shot(addr, "GET", "/metrics", &[], "");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("repl_applied_seq{db=\"db_a\"} 3"), "{}", metrics.body);
    assert!(metrics.body.contains("repl_target_seq{db=\"db_a\"} 9"), "{}", metrics.body);
    assert!(metrics.body.contains("repl_lag{db=\"db_a\"} 6"), "{}", metrics.body);
    assert!(metrics.body.contains("repl_stale_rejections_total 0"), "{}", metrics.body);

    // a follower directory may be named anything: the label is escaped,
    // every sample stays on one line, and "everything before the last
    // space is the series" keeps holding for readers
    state.note_poll("we\"ird\\db\nx y", &report(1, 2));
    let metrics = one_shot(addr, "GET", "/metrics", &[], "");
    let hostile: Vec<&str> = metrics.body.lines().filter(|l| l.contains("ird")).collect();
    assert_eq!(hostile.len(), 6, "six per-db series: {}", metrics.body);
    assert_eq!(hostile[0], "repl_applied_seq{db=\"we\\\"ird\\\\db\\nx y\"} 1");
    for line in hostile {
        let (series, value) = line.rsplit_once(' ').unwrap();
        assert!(series.ends_with("{db=\"we\\\"ird\\\\db\\nx y\"}"), "{line}");
        assert!(value.parse::<u64>().is_ok(), "{line}");
    }

    assert!(server.shutdown());
}

#[test]
fn stale_rejections_are_observable_end_to_end() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let state = Arc::new(ReplState::new(1));
    let server = Server::start(rt, "127.0.0.1:0", follower_config(state)).unwrap();
    let addr = server.local_addr();
    let ex = &bench.dev[0];
    let body = query_body(&ex.db_id, &ex.question, &ex.evidence);

    let stale = one_shot(
        addr,
        "POST",
        "/v1/query",
        &[("x-osql-min-seq", "4"), ("x-osql-trace-id", "stale-probe-1")],
        &body,
    );
    assert_eq!(stale.status, 503, "{}", stale.body);

    // the rejection left a flight record under the caller's trace ID ...
    let trace = one_shot(addr, "GET", "/debug/trace/stale-probe-1", &[], "");
    assert_eq!(trace.status, 200, "{}", trace.body);
    assert!(trace.body.contains("\"outcome\":\"stale\""), "{}", trace.body);
    assert!(trace.body.contains("below requested floor 4"), "{}", trace.body);

    // ... and the stale-rejection counter moved
    let metrics = one_shot(addr, "GET", "/metrics", &[], "");
    assert!(metrics.body.contains("repl_stale_rejections_total 1"), "{}", metrics.body);

    assert!(server.shutdown());
}

#[test]
fn a_primary_ignores_the_floor_and_reports_its_role() {
    let bench = tiny_world();
    let rt = common::plain_runtime(&bench, 2);
    let server = Server::start(
        rt,
        "127.0.0.1:0",
        ServerConfig { read_timeout: Duration::from_secs(2), ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    let ex = &bench.dev[0];

    // a primary is the head of the stream: any floor is trivially met
    let answer = one_shot(
        addr,
        "POST",
        "/v1/query",
        &[("x-osql-min-seq", "999")],
        &query_body(&ex.db_id, &ex.question, &ex.evidence),
    );
    assert_eq!(answer.status, 200, "{}", answer.body);
    assert_eq!(answer.header("x-osql-applied-seq"), None);

    let health = one_shot(addr, "GET", "/healthz", &[], "");
    assert!(health.body.contains("\"role\":\"primary\""), "{}", health.body);

    assert!(server.shutdown());
}
