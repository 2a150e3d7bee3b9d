//! Closed-loop load over keep-alive connections: each client sends its
//! next request only after the previous reply is complete, so a slower
//! server receives less load. Replies are kept and checked after the
//! clock stops, so checking never competes with the server for a core.

use crate::http::{Client, Reply};
use crate::procstat;
use crate::rounds::Tally;
use crate::world::AnswerKey;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Target database.
    pub db_id: String,
    /// Question text.
    pub question: String,
    /// Evidence text.
    pub evidence: String,
    /// `POST /v1/query` wire bytes, built once.
    pub bytes: Vec<u8>,
    /// The `from_cache` its reply must carry, when the schedule fixes it.
    pub expect_cached: Option<bool>,
}

impl Request {
    /// Build the request (and its wire bytes) for one question.
    pub fn new(
        db_id: &str,
        question: &str,
        evidence: &str,
        expect_cached: Option<bool>,
    ) -> Request {
        let body = crate::http::query_body(db_id, question, evidence);
        Request {
            db_id: db_id.to_owned(),
            question: question.to_owned(),
            evidence: evidence.to_owned(),
            bytes: crate::http::request_bytes("POST", "/v1/query", &body),
            expect_cached,
        }
    }
}

/// What one round of load produced, before checking.
pub struct RoundRaw {
    /// `(index into the round's requests, round-trip ms, reply)`.
    pub replies: Vec<(usize, f64, std::io::Result<Reply>)>,
    /// Wall seconds from the start barrier to the last reply.
    pub secs: f64,
    /// Context switches of the client threads during the round.
    pub client_ctx_switches: u64,
}

/// Drive `requests` through `clients` (one thread each), closed loop. The
/// clients pull from one shared cursor, as callers sharing a work list do.
pub fn drive(clients: &mut [Client], requests: &[&Request]) -> RoundRaw {
    let cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(clients.len() + 1);
    let mut replies = Vec::with_capacity(requests.len());
    let mut client_ctx_switches = 0;
    let mut secs = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (cursor, barrier) = (&cursor, &barrier);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    barrier.wait();
                    let ctx_before = procstat::thread_ctx_switches().unwrap_or(0);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        let sent = Instant::now();
                        let reply = client.send(&req.bytes);
                        mine.push((i, sent.elapsed().as_secs_f64() * 1e3, reply));
                    }
                    let ctx = procstat::thread_ctx_switches().unwrap_or(0) - ctx_before;
                    (mine, ctx)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        for handle in handles {
            let (mine, ctx) = handle.join().expect("load-generator client panicked");
            replies.extend(mine);
            client_ctx_switches += ctx;
        }
        secs = started.elapsed().as_secs_f64();
    });
    RoundRaw {
        replies,
        secs,
        client_ctx_switches,
    }
}

/// What the replies of a round say, once checked.
#[derive(Debug, Default)]
pub struct Checked {
    /// Round trip of every attempted request, ms, in schedule order.
    pub latencies_ms: Vec<f64>,
    /// Server-reported queue wait of every good reply, ms.
    pub queue_wait_ms: Vec<f64>,
}

/// Check every reply of a round into `tally`: status 200, `sql`
/// byte-identical to the answer key, and `from_cache` as the schedule
/// expects — or as `cached` says, for the set-up pass that fills the cache
/// the schedule then hits.
pub fn check(
    raw: RoundRaw,
    requests: &[&Request],
    key: &AnswerKey,
    cached: Option<bool>,
    tally: &mut Tally,
) -> Checked {
    let mut out = Checked {
        latencies_ms: vec![0.0; requests.len()],
        queue_wait_ms: Vec::new(),
    };
    for (i, ms, reply) in raw.replies {
        let req = requests[i];
        tally.attempt(1);
        out.latencies_ms[i] = ms;
        let what = || format!("{} / {:?}", req.db_id, req.question);
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                tally.fail(format!("{}: i/o error: {e}", what()));
                continue;
            }
        };
        if reply.status != 200 {
            tally.fail(format!(
                "{}: status {} body {}",
                what(),
                reply.status,
                reply.body
            ));
            continue;
        }
        let Some(body) = crate::http::members(&reply.body) else {
            tally.fail(format!("{}: reply is not JSON: {}", what(), reply.body));
            continue;
        };
        let member = |key: &str| body.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let Some(expected) = key.lookup(&req.db_id, &req.question, &req.evidence) else {
            tally.fail(format!("{}: request is not in the answer key", what()));
            continue;
        };
        // a string without escapes is its own text between the quotes
        let sql = member("sql").and_then(|v| match v.strip_prefix('"')?.strip_suffix('"')? {
            plain if !plain.contains('\\') => Some(plain.to_owned()),
            _ => serde_json::from_str::<String>(v).ok(),
        });
        if sql.as_deref() != Some(expected.sql.as_str()) {
            tally.fail(format!(
                "{}: served {sql:?}, expected {:?}",
                what(),
                expected.sql
            ));
            continue;
        }
        let from_cache = member("from_cache") == Some("true");
        if cached
            .or(req.expect_cached)
            .is_some_and(|want| want != from_cache)
        {
            tally.fail(format!("{}: from_cache is {from_cache}", what()));
            continue;
        }
        if let Some(wait) = member("queue_wait_ms").and_then(|v| v.parse().ok()) {
            out.queue_wait_ms.push(wait);
        }
    }
    out
}
