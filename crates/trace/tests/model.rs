//! Model-checked concurrency invariants for the flight recorder. Only
//! built under `--cfg osql_model`:
//!
//! ```sh
//! RUSTFLAGS="--cfg osql_model" CARGO_TARGET_DIR=target/model \
//!     cargo test -p osql-trace --test model
//! ```
#![cfg(osql_model)]

use osql_chk::model::{self, Config, Outcome};
use osql_chk::thread;
use osql_trace::{FlightConfig, FlightRecorder, RequestOutcome, RequestRecord};
use std::sync::Arc;

fn cfg() -> Config {
    Config { preemption_bound: 2, max_schedules: 50_000, ..Config::default() }
}

fn assert_pass(invariant: &str, outcome: Outcome) {
    match outcome {
        Outcome::Pass(report) => {
            eprintln!("{invariant}: {} schedule(s) explored", report.schedules);
        }
        Outcome::Fail { message, schedule, schedules } => {
            panic!("{invariant}: model check failed after {schedules} schedule(s): {message}\nschedule: {schedule}")
        }
    }
}

fn recorder(capacity: usize) -> Arc<FlightRecorder> {
    Arc::new(FlightRecorder::new(FlightConfig {
        capacity,
        slow_ms: 100.0,
        slow_rows: 1_000,
        slow_log_path: None,
    }))
}

fn rec(id: &str, total_ms: f64) -> RequestRecord {
    let mut r = RequestRecord::new(id, "db");
    r.total_ms = total_ms;
    r
}

/// The ring never loses an in-flight writer's record: two writers that
/// `begin` and `finish` concurrently (capacity 2) are both
/// retrievable afterwards under every interleaving — eviction only ever
/// displaces completed records, and a finish racing another finish still
/// lands.
#[test]
fn flight_finish_never_loses_an_inflight_writers_record() {
    assert_pass("flight_finish_never_loses_an_inflight_writers_record", model::explore(cfg(), || {
        let fr = recorder(2);
        let other = {
            let fr = fr.clone();
            thread::spawn(move || {
                fr.begin("a");
                fr.finish(rec("a", 1.0));
            })
        };
        fr.begin("b");
        fr.finish(rec("b", 1.0));
        other.join().unwrap();
        assert!(fr.lookup("a").is_some(), "writer a's record was lost");
        assert!(fr.lookup("b").is_some(), "writer b's record was lost");
        assert_eq!(fr.inflight_len(), 0, "every registration must be consumed");
        assert_eq!(fr.finished(), 2);
        assert_eq!(fr.dropped(), 0, "capacity 2 fits both records");
    }));
}

/// The tail-sampling decision is race-free: a slow and a fast record
/// finishing concurrently each get exactly their own decision — the slow
/// record keeps its payloads, the fast one is stripped, and the slow
/// counter ends at exactly 1 under every interleaving.
#[test]
fn flight_tail_sampling_decision_is_race_free() {
    assert_pass("flight_tail_sampling_decision_is_race_free", model::explore(cfg(), || {
        let fr = recorder(8);
        let slow_writer = {
            let fr = fr.clone();
            thread::spawn(move || {
                let mut r = rec("slow", 500.0);
                r.trace = Some(Arc::new(osql_trace::QueryTrace::empty()));
                r.explain = Some("plan".to_owned());
                fr.finish(r);
            })
        };
        let mut fast = rec("fast", 1.0);
        fast.trace = Some(Arc::new(osql_trace::QueryTrace::empty()));
        fast.explain = Some("plan".to_owned());
        fr.finish(fast);
        slow_writer.join().unwrap();

        let slow = fr.lookup("slow").expect("slow record present");
        assert!(slow.slow && slow.trace.is_some() && slow.explain.is_some());
        let fast = fr.lookup("fast").expect("fast record present");
        assert!(!fast.slow && fast.trace.is_none() && fast.explain.is_none());
        assert_eq!(fr.slow_total(), 1, "exactly one slow record, every schedule");
    }));
}

/// Eviction under concurrent finishes is exact: with a ring of
/// capacity 1 and two racing finishes, exactly one record survives,
/// exactly one eviction is counted, and the survivor is the one with the
/// larger completion sequence number (drop-oldest, never drop-newest).
#[test]
fn flight_concurrent_eviction_keeps_the_newer_record() {
    assert_pass("flight_concurrent_eviction_keeps_the_newer_record", model::explore(cfg(), || {
        let fr = recorder(1);
        let other = {
            let fr = fr.clone();
            thread::spawn(move || fr.finish(rec("a", 1.0)))
        };
        fr.finish(rec("b", 1.0));
        other.join().unwrap();
        assert_eq!(fr.depth(), 1);
        assert_eq!(fr.dropped(), 1);
        let survivor = fr.recent(1).pop().expect("one survivor");
        assert_eq!(survivor.seq, 1, "the later finish must survive drop-oldest");
    }));
}

/// An error outcome finishing concurrently with an `Ok` one: sampling
/// retains the error's span tree (errors are always interesting) while
/// the `Ok` record is stripped, and both are queryable by predicate.
#[test]
fn flight_error_records_survive_sampling_under_races() {
    assert_pass("flight_error_records_survive_sampling_under_races", model::explore(cfg(), || {
        let fr = recorder(8);
        let errw = {
            let fr = fr.clone();
            thread::spawn(move || {
                let mut r = rec("err", 1.0);
                r.outcome = RequestOutcome::Error;
                r.error = Some("boom".to_owned());
                r.trace = Some(Arc::new(osql_trace::QueryTrace::empty()));
                fr.finish(r);
            })
        };
        let mut ok = rec("ok", 1.0);
        ok.trace = Some(Arc::new(osql_trace::QueryTrace::empty()));
        fr.finish(ok);
        errw.join().unwrap();
        let err = fr.lookup("err").unwrap();
        assert!(err.trace.is_some(), "error records keep their span tree");
        let ok = fr.lookup("ok").unwrap();
        assert!(ok.trace.is_none());
        assert_eq!(fr.matching(8, |r| r.outcome == RequestOutcome::Error).len(), 1);
    }));
}
