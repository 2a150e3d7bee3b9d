//! Model-checked concurrency invariants for the runtime's hot structures.
//! Only built under `--cfg osql_model`:
//!
//! ```sh
//! RUSTFLAGS="--cfg osql_model" CARGO_TARGET_DIR=target/model \
//!     cargo test -p osql-runtime --test model
//! ```
#![cfg(osql_model)]

use osql_chk::model::{self, Config, Outcome};
use osql_chk::thread;
use osql_runtime::runtime::model_support::{canned_run, detached_ticket, Front};
use osql_runtime::{
    BoundedQueue, CancelReason, LogicalClock, LruCache, PushError, QueryRequest, ServeError,
    SloConfig, WindowedMetrics,
};
use std::sync::Arc;

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

/// `Ticket::wait` cancellation race: the reply sender dies (worker
/// panic) while a shutdown may or may not be racing in. The waiter must
/// never hang, and must always see exactly one `Canceled` reason.
#[test]
fn ticket_cancel_race_never_hangs_and_reason_is_exclusive() {
    assert_pass("ticket_cancel_race_never_hangs_and_reason_is_exclusive", model::explore(cfg(), || {
        let (tx, ticket, close) = detached_ticket();
        let worker = thread::spawn(move || drop(tx)); // worker dies replying nothing
        let shutdown = thread::spawn(move || close()); // shutdown racing in
        let err = ticket.wait().expect_err("no reply was ever sent");
        match err {
            ServeError::Canceled { reason } => {
                assert!(
                    matches!(reason, CancelReason::Shutdown | CancelReason::WorkerLost),
                    "unexpected reason: {reason:?}"
                );
            }
            other => panic!("expected Canceled, got {other:?}"),
        }
        worker.join().unwrap();
        shutdown.join().unwrap();
    }));
}

/// Directed variants: with no shutdown in flight the reason must be
/// `WorkerLost`; after a completed close it must be `Shutdown`.
#[test]
fn ticket_cancel_reason_matches_queue_state() {
    assert_pass("ticket_cancel_reason_matches_queue_state", model::explore(cfg(), || {
        let (tx, ticket, _close) = detached_ticket();
        let worker = thread::spawn(move || drop(tx));
        let err = ticket.wait().unwrap_err();
        assert_eq!(err, ServeError::Canceled { reason: CancelReason::WorkerLost });
        worker.join().unwrap();
    }));
    assert_pass("ticket_cancel_reason_matches_queue_state", model::explore(cfg(), || {
        let (tx, ticket, close) = detached_ticket();
        close();
        let worker = thread::spawn(move || drop(tx));
        let err = ticket.wait().unwrap_err();
        assert_eq!(err, ServeError::Canceled { reason: CancelReason::Shutdown });
        worker.join().unwrap();
    }));
}

/// A delivered answer always wins over a concurrent shutdown: once the
/// worker sends, `wait` returns it even if close lands first.
#[test]
fn ticket_delivery_survives_concurrent_shutdown() {
    assert_pass("ticket_delivery_survives_concurrent_shutdown", model::explore(cfg(), || {
        let (tx, ticket, close) = detached_ticket();
        let worker = thread::spawn(move || {
            tx.send(Err(ServeError::UnknownDb("sentinel".into())));
        });
        let shutdown = thread::spawn(move || close());
        let got = ticket.wait().unwrap_err();
        assert_eq!(got, ServeError::UnknownDb("sentinel".into()), "sent reply must never be replaced by a cancel");
        worker.join().unwrap();
        shutdown.join().unwrap();
    }));
}

/// A hit served on the submitting thread races a worker whose insert
/// evicts that very entry (result cache of capacity 1). Whichever wins,
/// the caller gets a complete answer to its own question — the cached run
/// itself, or a queued miss the worker answers — never a hang and never a
/// missing reply; and each request is counted once, as a hit or a miss.
#[test]
fn caller_thread_hit_racing_an_evicting_insert_is_always_answered() {
    // chk:allow(raw-sync): tallies outcomes across explored schedules, outside any one execution
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    // both outcomes must be reachable, or the race was never explored
    static OUTCOMES: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];
    assert_pass("caller_thread_hit_racing_an_evicting_insert_is_always_answered", model::explore(cfg(), || {
        let front = Arc::new(Front::new(2, 1));
        let cached = canned_run("db", "a");
        front.results().insert(front.key("db", "a"), cached.clone());
        let evicting = front.try_submit(QueryRequest::new("db", "b", "")).unwrap();
        let worker = {
            let front = front.clone();
            thread::spawn(move || front.serve(|req| canned_run(&req.db_id, &req.question)))
        };
        let resp = front.try_submit(QueryRequest::new("db", "a", "")).unwrap().wait().unwrap();
        assert_eq!(resp.run.question, "a");
        if resp.from_cache {
            assert!(Arc::ptr_eq(&resp.run, &cached), "a hit is the cached run itself");
        }
        let b = evicting.wait().unwrap();
        assert!(!b.from_cache && b.run.question == "b");
        front.close();
        worker.join().unwrap();
        let counters = front.metrics();
        let (hits, misses) = (counters.counter("result_cache_hits").get(), counters.counter("result_cache_misses").get());
        assert_eq!((hits + misses, counters.counter("requests_total").get()), (2, 2));
        assert_eq!(hits, u64::from(resp.from_cache));
        OUTCOMES[usize::from(resp.from_cache)].fetch_add(1, Relaxed);
    }));
    let [missed, hit] = &OUTCOMES;
    assert!(missed.load(Relaxed) > 0, "the eviction never won");
    assert!(hit.load(Relaxed) > 0, "the hit never won");
}

/// No lost wakeup: a consumer blocked on an empty queue is always woken
/// by a push — every interleaving of pop-then-push completes.
#[test]
fn queue_blocked_pop_always_woken_by_push() {
    assert_pass("queue_blocked_pop_always_woken_by_push", model::explore(cfg(), || {
        let q = Arc::new(BoundedQueue::new(1));
        let producer = {
            let q = q.clone();
            thread::spawn(move || q.push(7u32).unwrap())
        };
        assert_eq!(q.pop(), Some(7));
        producer.join().unwrap();
    }));
}

/// No lost wakeup on the producer side either: a producer blocked on a
/// full queue is always woken by a pop.
#[test]
fn queue_blocked_push_always_woken_by_pop() {
    assert_pass("queue_blocked_push_always_woken_by_pop", model::explore(cfg(), || {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1u32).unwrap();
        let producer = {
            let q = q.clone();
            thread::spawn(move || q.push(2u32).unwrap())
        };
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        producer.join().unwrap();
    }));
}

/// Close always wakes a blocked consumer, which then observes `None` —
/// the queue-side half of the runtime's clean-shutdown contract.
#[test]
fn queue_close_wakes_blocked_consumer() {
    assert_pass("queue_close_wakes_blocked_consumer", model::explore(cfg(), || {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let consumer = {
            let q = q.clone();
            thread::spawn(move || q.pop())
        };
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.push(9), Err(PushError::Closed(9)));
    }));
}

/// Exactly-once delivery: with concurrent producers, every item comes
/// out exactly once and the counters agree.
#[test]
fn queue_delivers_exactly_once_under_races() {
    assert_pass("queue_delivers_exactly_once_under_races", model::explore(cfg(), || {
        let q = Arc::new(BoundedQueue::new(4));
        let producers: Vec<_> = (0..2u32)
            .map(|p| {
                let q = q.clone();
                thread::spawn(move || q.push(p).unwrap())
            })
            .collect();
        let mut got = vec![q.pop().unwrap(), q.pop().unwrap()];
        got.sort_unstable();
        assert_eq!(got, [0, 1], "both items, each exactly once");
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!((q.pushed_total(), q.popped_total()), (2, 2));
    }));
}

/// LRU under racing inserts: capacity is never exceeded and the
/// insert/eviction accounting always balances.
#[test]
fn lru_capacity_holds_under_racing_inserts() {
    assert_pass("lru_capacity_holds_under_racing_inserts", model::explore(cfg(), || {
        let cache: Arc<LruCache<u32, u32>> = Arc::new(LruCache::new(1));
        let other = {
            let cache = cache.clone();
            thread::spawn(move || cache.insert(2, 20))
        };
        cache.insert(1, 10);
        other.join().unwrap();
        assert!(cache.len() <= 1, "capacity bound violated");
        // exactly one of the two distinct keys was evicted
        assert_eq!(cache.evictions(), 1);
        let survivors =
            [cache.get(&1).is_some(), cache.get(&2).is_some()].iter().filter(|&&x| x).count();
        assert_eq!(survivors, 1, "exactly one entry survives");
    }));
}

/// A just-inserted entry refreshed by `get` is the most recently used:
/// after the race settles, inserting a third key evicts the stale one,
/// never the one just touched.
#[test]
fn lru_get_refreshes_recency_under_races() {
    assert_pass("lru_get_refreshes_recency_under_races", model::explore(cfg(), || {
        let cache: Arc<LruCache<u32, u32>> = Arc::new(LruCache::new(2));
        cache.insert(1, 10);
        let racer = {
            let cache = cache.clone();
            thread::spawn(move || cache.insert(2, 20))
        };
        racer.join().unwrap();
        // both resident (capacity 2); touch key 1, then force an eviction
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30);
        assert_eq!(cache.get(&1), Some(10), "just-touched entry must survive");
        assert!(cache.get(&2).is_none(), "stale entry is the victim");
    }));
}

/// The window ring: two observers racing a clock that advances three
/// ticks over a 2-slot ring. An observer reads the tick, then takes the
/// ring's lock — the clock (and the other observer) can move in between.
/// Every observation is either counted under the tick it read or gone
/// because a later tick claimed that slot (before it: dropped; after it:
/// evicted) — never filed under another tick, never counted twice.
#[test]
fn window_ring_never_misfiles_an_observation() {
    assert_pass("window_ring_never_misfiles_an_observation", model::explore(cfg(), || {
        let clock = Arc::new(LogicalClock::new());
        let slo = SloConfig { short_window: 1, long_window: 2, ..SloConfig::default() };
        let w = Arc::new(WindowedMetrics::new(clock.clone(), slo));
        let observers: Vec<_> = (0..2)
            .map(|i| {
                let w = w.clone();
                thread::spawn(move || {
                    let tick = w.clock().now();
                    w.observe_at(tick, 1.0, i == 0, i == 1);
                    tick
                })
            })
            .collect();
        let ticker = thread::spawn(move || {
            for _ in 0..3 {
                clock.advance();
            }
        });
        let ticks: Vec<u64> = observers.into_iter().map(|o| o.join().unwrap()).collect();
        ticker.join().unwrap();
        for &t in &ticks {
            let same_tick = ticks.iter().filter(|&&x| x == t).count() as u64;
            let slot_reclaimed = ticks.iter().any(|&x| x > t && x % 2 == t % 2);
            let at_t = w.view(t, 1);
            assert_eq!(at_t.requests(), if slot_reclaimed { 0 } else { same_tick }, "ticks {ticks:?}");
            assert!(at_t.errors <= 1 && at_t.cache_hits <= 1, "ticks {ticks:?}");
        }
        let full = w.view(w.clock().now(), 2);
        assert!(full.requests() <= 2 && full.errors <= 1 && full.cache_hits <= 1, "{full:?}");
    }));
}
