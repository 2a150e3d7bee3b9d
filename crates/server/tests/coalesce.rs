//! In-flight coalescing and admission-control behaviour, made
//! deterministic by parking the pipeline on a gated LLM: concurrent
//! identical requests collapse onto exactly one pipeline execution and
//! receive byte-identical responses; a saturated queue sheds with a
//! drain-rate-derived `Retry-After` while the server keeps serving.

mod common;

use common::{gated_runtime, one_shot, query_body, tiny_world, Conn};
use osql_server::{Server, ServerConfig};
use osql_trace::RequestOutcome;
use std::time::{Duration, Instant};

fn server_config() -> ServerConfig {
    ServerConfig { read_timeout: Duration::from_secs(10), ..ServerConfig::default() }
}

fn wait_for(deadline_secs: u64, mut ok: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    while Instant::now() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn concurrent_identical_requests_run_one_pipeline_and_share_bytes() {
    const CLIENTS: usize = 6;
    let bench = tiny_world();
    // result-cache capacity 1: a second in-flight query can evict the
    // leader's entry before waiters are answered — waiters must not care
    let (gate, rt) = gated_runtime(&bench, 2, 16, 1);
    gate.set_open(false);
    let server = Server::start(rt.clone(), "127.0.0.1:0", server_config()).unwrap();
    let addr = server.local_addr();
    let ex = &bench.dev[0];
    let other = &bench.dev[1];
    let body = query_body(&ex.db_id, &ex.question, &ex.evidence);

    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr);
                conn.request("POST", "/v1/query", &[("connection", "close")], &body)
            })
        })
        .collect();

    // wait until the leader's job reached a worker and the other N-1
    // clients joined its flight
    assert!(
        wait_for(30, || {
            rt.metrics().counter("coalesced_requests_total").get() == (CLIENTS as u64) - 1
                && rt.metrics().counter("requests_total").get() == 1
        }),
        "coalesced {} of {}, requests {}",
        rt.metrics().counter("coalesced_requests_total").get(),
        CLIENTS - 1,
        rt.metrics().counter("requests_total").get()
    );

    // a distinct query churns the capacity-1 result cache while the
    // group is still parked
    let churn = {
        let body = query_body(&other.db_id, &other.question, &other.evidence);
        std::thread::spawn(move || one_shot(addr, "POST", "/v1/query", &[], &body))
    };
    std::thread::sleep(Duration::from_millis(20));

    gate.set_open(true);
    let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert_eq!(churn.join().unwrap().status, 200);

    let first = &responses[0];
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains(&format!("\"coalesced_group\":{CLIENTS}")), "{}", first.body);
    for resp in &responses {
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, first.body, "coalesced responses must be byte-identical");
    }

    // exactly two pipeline executions total: the group's and the churn's
    assert_eq!(rt.metrics().counter("requests_total").get(), 2);
    assert_eq!(rt.metrics().counter("result_cache_misses").get(), 2);
    assert_eq!(rt.metrics().counter("coalesced_requests_total").get(), (CLIENTS as u64) - 1);

    // every waiter's flight record names the flight it rode on
    let coalesced = rt.flight().matching(CLIENTS, |r| r.coalesced_into.is_some());
    assert_eq!(coalesced.len(), CLIENTS - 1, "one record per coalesced waiter");
    let leader = coalesced[0].coalesced_into.clone().unwrap();
    assert!(coalesced.iter().all(|r| r.coalesced_into.as_deref() == Some(leader.as_str())));
    assert!(rt.flight().lookup(&leader).is_some(), "the leader's own record is kept");

    assert!(server.shutdown());
}

#[test]
fn late_arrival_after_completion_hits_the_result_cache() {
    let bench = tiny_world();
    let (gate, rt) = gated_runtime(&bench, 1, 8, 64);
    let server = Server::start(rt.clone(), "127.0.0.1:0", server_config()).unwrap();
    let addr = server.local_addr();
    let ex = &bench.dev[0];
    let body = query_body(&ex.db_id, &ex.question, &ex.evidence);
    gate.set_open(true);

    let first = one_shot(addr, "POST", "/v1/query", &[], &body);
    assert!(first.body.contains("\"from_cache\":false"), "{}", first.body);
    let second = one_shot(addr, "POST", "/v1/query", &[], &body);
    assert!(second.body.contains("\"from_cache\":true"), "{}", second.body);
    assert!(second.body.contains("\"coalesced_group\":1"), "{}", second.body);
    assert_eq!(rt.metrics().counter("coalesced_requests_total").get(), 0);
    assert!(server.shutdown());
}

#[test]
fn saturated_queue_sheds_with_retry_after_and_server_survives() {
    let bench = tiny_world();
    // one worker, queue of one: the gated first request parks the
    // worker, the second fills the queue, the third must shed
    let (gate, rt) = gated_runtime(&bench, 1, 1, 64);
    gate.set_open(false);
    let server = Server::start(rt.clone(), "127.0.0.1:0", server_config()).unwrap();
    let addr = server.local_addr();
    let q = |i: usize| query_body(&bench.dev[i].db_id, &bench.dev[i].question, "");

    // park the worker on job 0 first, then fill the queue with job 1 —
    // submitting both at once could shed job 1 before the worker pops
    let mut inflight = Vec::new();
    let body0 = q(0);
    inflight.push(std::thread::spawn(move || one_shot(addr, "POST", "/v1/query", &[], &body0)));
    assert!(wait_for(30, || rt.metrics().counter("requests_total").get() == 1));
    let body1 = q(1);
    inflight.push(std::thread::spawn(move || one_shot(addr, "POST", "/v1/query", &[], &body1)));
    assert!(wait_for(30, || rt.queued() == 1));

    let shed = one_shot(addr, "POST", "/v1/query", &[], &q(2));
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(shed.body.contains("queue full"), "{}", shed.body);
    let retry: u64 = shed.header("retry-after").expect("retry-after header").parse().unwrap();
    assert!((1..=60).contains(&retry), "retry-after {retry}");
    assert_eq!(rt.metrics().counter("queue_shed_total").get(), 1);

    // shedding didn't hurt the healthy paths
    assert_eq!(one_shot(addr, "GET", "/healthz", &[], "").status, 200);

    gate.set_open(true);
    for handle in inflight {
        assert_eq!(handle.join().unwrap().status, 200);
    }
    // the shed decision left a flight record behind
    let shed = rt.flight().matching(8, |r| r.outcome == RequestOutcome::Shed);
    assert_eq!(shed.len(), 1, "one record per shed request");
    assert!(server.shutdown());
}
