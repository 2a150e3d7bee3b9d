//! Model-checked concurrency invariants for the serving layer's shared
//! structures: request coalescing and per-key quotas. Only built under
//! `--cfg osql_model`:
//!
//! ```sh
//! RUSTFLAGS="--cfg osql_model" CARGO_TARGET_DIR=target/model \
//!     cargo test -p osql-server --test model
//! ```
#![cfg(osql_model)]

use osql_chk::model::{self, Config, Outcome};
use osql_chk::thread;
use osql_repl::{ApplyReport, ReplState};
use osql_runtime::ResultKey;
use osql_server::{Admit, Coalescer, Joined, QuotaConfig, QuotaRegistry, Rendered};
use std::sync::Arc;
use std::time::Instant;

fn cfg() -> Config {
    Config { preemption_bound: 2, max_schedules: 50_000, ..Config::default() }
}

fn assert_pass(invariant: &str, outcome: Outcome) {
    match outcome {
        Outcome::Pass(report) => {
            // visible under `cargo test -- --nocapture`; the numbers feed
            // EXPERIMENTS.md
            eprintln!("{invariant}: {} schedule(s) explored", report.schedules);
        }
        Outcome::Fail { message, schedule, schedules } => {
            panic!("{invariant}: model check failed after {schedules} schedule(s): {message}\nschedule: {schedule}")
        }
    }
}

fn key(tag: &str) -> ResultKey {
    ResultKey::new("db", tag, "", 7)
}

fn rendered(status: u16, body: &str) -> Rendered {
    Rendered { status, body: Arc::new(body.as_bytes().to_vec()), retry_after_secs: None, trace_id: None }
}

/// Two concurrent joins on one key: no double execution. Whoever becomes
/// a waiter shares the leader's exact bytes; nobody hangs; the flight is
/// always unregistered afterwards.
#[test]
fn coalesce_no_double_execution_and_no_hang() {
    assert_pass("coalesce_no_double_execution_and_no_hang", model::explore(cfg(), || {
        let co = Arc::new(Coalescer::new());
        let worker = {
            let co = co.clone();
            thread::spawn(move || match co.join(key("q")) {
                Joined::Leader(t) => (true, t.complete(|_| rendered(200, "worker"))),
                Joined::Waiter(w) => (false, w.wait()),
            })
        };
        let mine = match co.join(key("q")) {
            Joined::Leader(t) => (true, t.complete(|_| rendered(200, "main"))),
            Joined::Waiter(w) => (false, w.wait()),
        };
        let theirs = worker.join().unwrap();
        // a waiter always carries some leader's bytes, never a third value
        for (is_leader, r) in [&mine, &theirs] {
            assert_eq!(r.status, 200);
            let body = std::str::from_utf8(&r.body).unwrap();
            assert!(body == "worker" || body == "main", "foreign bytes: {body}");
            if !is_leader {
                // exactly-once: the waiter's bytes are the other side's render
                let other = if std::ptr::eq(r as *const _, &mine.1 as *const _) {
                    "main"
                } else {
                    "worker"
                };
                let _ = other; // each render is attributable; both checked above
            }
        }
        // coalesced waiters share the leader's Arc, not a copy
        if !mine.0 && theirs.0 {
            assert!(Arc::ptr_eq(&mine.1.body, &theirs.1.body), "waiter must share bytes");
        }
        if mine.0 && !theirs.0 {
            assert!(Arc::ptr_eq(&mine.1.body, &theirs.1.body), "waiter must share bytes");
        }
        assert_eq!(co.inflight_len(), 0, "flight must always be unregistered");
    }));
}

/// The leader-unwind drop guard: a leader that dies without completing
/// publishes a 500 to every registered waiter — deterministic pin of the
/// unwind path.
#[test]
fn coalesce_leader_unwind_publishes_500_to_waiters() {
    assert_pass("coalesce_leader_unwind_publishes_500_to_waiters", model::explore(cfg(), || {
        let co = Arc::new(Coalescer::new());
        let leader = match co.join(key("q")) {
            Joined::Leader(t) => t,
            Joined::Waiter(_) => unreachable!("first join leads"),
        };
        let waiter = match co.join(key("q")) {
            Joined::Waiter(w) => w,
            Joined::Leader(_) => unreachable!("second join must coalesce"),
        };
        let observer = thread::spawn(move || waiter.wait());
        drop(leader); // simulated unwind: leader dies before completing
        let r = observer.join().unwrap();
        assert_eq!(r.status, 500, "unwound leader must fail its waiters");
        assert!(
            std::str::from_utf8(&r.body).unwrap().contains("request leader failed"),
            "drop-guard body"
        );
        assert_eq!(co.inflight_len(), 0);
    }));
}

/// Concurrent leader-unwind orderings: the waiter may register before or
/// after the leader unwinds; it must terminate either way — with the
/// guard's 500, or by leading a fresh flight itself.
#[test]
fn coalesce_unwind_race_never_strands_a_late_arrival() {
    assert_pass("coalesce_unwind_race_never_strands_a_late_arrival", model::explore(cfg(), || {
        let co = Arc::new(Coalescer::new());
        let leader = match co.join(key("q")) {
            Joined::Leader(t) => t,
            Joined::Waiter(_) => unreachable!(),
        };
        let late = {
            let co = co.clone();
            thread::spawn(move || match co.join(key("q")) {
                Joined::Waiter(w) => w.wait(),
                Joined::Leader(t) => t.complete(|_| rendered(200, "fresh")),
            })
        };
        drop(leader);
        let r = late.join().unwrap();
        match r.status {
            500 => assert!(std::str::from_utf8(&r.body).unwrap().contains("request leader failed")),
            200 => assert_eq!(std::str::from_utf8(&r.body).unwrap(), "fresh"),
            other => panic!("unexpected status {other}"),
        }
        assert_eq!(co.inflight_len(), 0);
    }));
}

/// After a flight completes, the key starts a *fresh* flight: a new join
/// must lead (no stale slot served), under every interleaving of the
/// completing leader and the new arrival.
#[test]
fn coalesce_completed_flight_never_serves_stale_results() {
    assert_pass("coalesce_completed_flight_never_serves_stale_results", model::explore(cfg(), || {
        let co = Arc::new(Coalescer::new());
        let leader = match co.join(key("q")) {
            Joined::Leader(t) => t,
            Joined::Waiter(_) => unreachable!(),
        };
        let second = {
            let co = co.clone();
            thread::spawn(move || match co.join(key("q")) {
                Joined::Leader(t) => t.complete(|_| rendered(201, "second")).status,
                Joined::Waiter(w) => w.wait().status,
            })
        };
        let first = leader.complete(|_| rendered(200, "first"));
        assert_eq!(first.status, 200);
        // the racer either coalesced onto flight one (200) or led flight
        // two (201); both terminate, nothing else is possible
        let got = second.join().unwrap();
        assert!(got == 200 || got == 201, "unexpected status {got}");
        assert_eq!(co.inflight_len(), 0);
    }));
}

/// Two readers each resolve the applied position and join the coalescer
/// under a key carrying it, as the server does, while the apply loop
/// moves the position from 5 to 6. A waiter only ever receives bytes
/// from a leader that read the same position it did.
#[test]
fn coalesce_never_joins_across_applied_positions() {
    // chk:allow(raw-sync): tallies outcomes across explored schedules, outside any one execution
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    // readers at two positions, and a join, must both be reachable
    static ACROSS: AtomicU64 = AtomicU64::new(0);
    static JOINED: AtomicU64 = AtomicU64::new(0);
    let at = |applied| ApplyReport {
        target_seq: applied,
        applied_seq: applied,
        applied_txns: 1,
        stmts_applied: 1,
        segments_read: 1,
        finding: None,
    };
    assert_pass("coalesce_never_joins_across_applied_positions", model::explore(cfg(), || {
        let state = Arc::new(ReplState::new(1));
        state.note_poll("db", &at(5));
        let co = Arc::new(Coalescer::new());
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (state, co) = (state.clone(), co.clone());
                thread::spawn(move || {
                    let seq = state.applied_seq("db").unwrap_or(0);
                    let body = seq.to_string();
                    match co.join(ResultKey { seq, ..key("q") }) {
                        Joined::Leader(t) => (seq, false, t.complete(|_| rendered(200, &body))),
                        Joined::Waiter(w) => (seq, true, w.wait()),
                    }
                })
            })
            .collect();
        state.note_poll("db", &at(6));
        let got: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        for (seq, _, r) in &got {
            let body = std::str::from_utf8(&r.body).unwrap();
            assert_eq!(body, seq.to_string(), "a reader at {seq} got a leader's bytes from {body}");
        }
        assert_eq!(co.inflight_len(), 0);
        if got[0].0 != got[1].0 {
            ACROSS.fetch_add(1, Relaxed);
        }
        if got.iter().any(|(_, waited, _)| *waited) {
            JOINED.fetch_add(1, Relaxed);
        }
    }));
    assert!(ACROSS.load(Relaxed) > 0, "the apply never landed between the two reads");
    assert!(JOINED.load(Relaxed) > 0, "the readers never coalesced");
}

/// Token-bucket quota under concurrent admits: with exactly one token
/// and no refill, exactly one of two racing requests is granted.
#[test]
fn quota_grants_exactly_one_token_under_races() {
    assert_pass("quota_grants_exactly_one_token_under_races", model::explore(cfg(), || {
        let reg = Arc::new(QuotaRegistry::new(QuotaConfig {
            capacity: 1.0,
            refill_per_sec: 0.0,
            max_keys: 4,
        }));
        let now = Instant::now();
        let racer = {
            let reg = reg.clone();
            thread::spawn(move || reg.admit_at("k", now))
        };
        let mine = reg.admit_at("k", now);
        let theirs = racer.join().unwrap();
        let granted = [mine, theirs].iter().filter(|a| matches!(a, Admit::Granted)).count();
        assert_eq!(granted, 1, "one token, one grant: {mine:?} vs {theirs:?}");
        assert_eq!(reg.tracked_keys(), 1);
    }));
}
