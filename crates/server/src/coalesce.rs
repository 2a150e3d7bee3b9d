//! In-flight request coalescing (single-flight).
//!
//! Concurrent identical requests — same [`ResultKey`], i.e. same
//! database, normalized question + evidence, pipeline-config
//! fingerprint and applied seq — collapse onto one pipeline execution.
//! The first arrival becomes the *leader* and runs the request; later
//! arrivals become *waiters* parked on the leader's slot. When the leader
//! finishes it renders the response **once** (the render closure sees the
//! final group size) and every member receives the same `Arc` of bytes —
//! responses are byte-identical by construction, and waiters never
//! re-read the result cache, so a leader whose entry is evicted
//! mid-flight cannot strand them.
//!
//! The leader unregisters the key *before* publishing, so a request
//! arriving after completion starts a fresh flight (and typically hits
//! the runtime's result cache). A leader that unwinds without completing
//! publishes a 500 through its drop guard — waiters are never left
//! parked forever.

use osql_runtime::ResultKey;
use std::collections::HashMap;
use osql_chk::atomic::{AtomicUsize, Ordering};
use osql_chk::{Condvar, Mutex};
use std::sync::Arc;

/// One response, rendered once and shared by every coalesced member.
#[derive(Debug)]
pub struct Rendered {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON).
    pub body: Arc<Vec<u8>>,
    /// `Retry-After` seconds to advertise (shed responses only).
    pub retry_after_secs: Option<u64>,
    /// The trace ID of the request that produced these bytes (query
    /// responses only). Coalesced waiters read the *leader's* ID from
    /// here and record it as the flight their request rode on.
    pub trace_id: Option<String>,
}

struct Slot {
    result: Mutex<Option<Arc<Rendered>>>,
    ready: Condvar,
    members: AtomicUsize,
}

impl Slot {
    fn publish(&self, rendered: Arc<Rendered>) {
        *self.result.lock() = Some(rendered);
        self.ready.notify_all();
    }
}

/// A waiter's handle onto an in-flight request.
pub struct WaiterHandle {
    slot: Arc<Slot>,
}

impl WaiterHandle {
    /// Block until the leader publishes, then share its response.
    pub fn wait(self) -> Arc<Rendered> {
        let mut guard = self.slot.result.lock();
        loop {
            if let Some(rendered) = guard.as_ref() {
                return rendered.clone();
            }
            guard = self.slot.ready.wait(guard);
        }
    }
}

/// The leader's obligation to publish exactly one response.
pub struct LeaderToken {
    key: ResultKey,
    slot: Arc<Slot>,
    coalescer: Arc<Coalescer>,
    completed: bool,
}

impl LeaderToken {
    /// Render the response once (the closure receives the final group
    /// size, leader included) and publish it to every member.
    pub fn complete(mut self, render: impl FnOnce(usize) -> Rendered) -> Arc<Rendered> {
        // unregister first: arrivals from here on start a fresh flight
        // and the group size below is final
        self.coalescer.unregister(&self.key);
        let group = self.slot.members.load(Ordering::Acquire);
        let rendered = Arc::new(render(group));
        self.slot.publish(rendered.clone());
        self.completed = true;
        rendered
    }
}

impl Drop for LeaderToken {
    fn drop(&mut self) {
        if !self.completed {
            // leader unwound (panic between join and complete): release
            // the key and fail the waiters rather than stranding them
            self.coalescer.unregister(&self.key);
            self.slot.publish(Arc::new(Rendered {
                status: 500,
                body: Arc::new(crate::json::error_body("request leader failed").into_bytes()),
                retry_after_secs: None,
            trace_id: None,
            }));
        }
    }
}

/// Outcome of joining a flight.
pub enum Joined {
    /// First arrival: run the request and [`LeaderToken::complete`] it.
    Leader(LeaderToken),
    /// Duplicate of an in-flight request: wait for the leader's bytes.
    Waiter(WaiterHandle),
}

/// Registry of in-flight request keys.
#[derive(Default)]
pub struct Coalescer {
    inflight: Mutex<HashMap<ResultKey, Arc<Slot>>>,
}

impl Coalescer {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Join the flight for `key`, becoming leader or waiter.
    pub fn join(self: &Arc<Self>, key: ResultKey) -> Joined {
        let mut inflight = self.inflight.lock();
        if let Some(slot) = inflight.get(&key) {
            slot.members.fetch_add(1, Ordering::AcqRel);
            return Joined::Waiter(WaiterHandle { slot: slot.clone() });
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
            members: AtomicUsize::new(1),
        });
        inflight.insert(key.clone(), slot.clone());
        Joined::Leader(LeaderToken { key, slot, coalescer: self.clone(), completed: false })
    }

    /// In-flight key count (observability only).
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().len()
    }

    fn unregister(&self, key: &ResultKey) {
        self.inflight.lock().remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn key(tag: &str) -> ResultKey {
        ResultKey::new("db", tag, "", 7)
    }

    #[test]
    fn duplicates_share_the_leaders_bytes() {
        let c = Arc::new(Coalescer::new());
        let Joined::Leader(token) = c.join(key("q")) else { panic!("expected leader") };
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let Joined::Waiter(w) = c.join(key("q")) else { panic!("expected waiter") };
                w
            })
            .collect();
        let published = token.complete(|group| {
            let mut obj = crate::json::ObjectWriter::new();
            obj.u64_field("group", group as u64);
            Rendered {
                status: 200,
                body: Arc::new(obj.finish().into_bytes()),
                retry_after_secs: None,
                trace_id: None,
            }
        });
        assert_eq!(&**published.body, b"{\"group\":4}");
        for w in waiters {
            let got = w.wait();
            assert!(Arc::ptr_eq(&got.body, &published.body));
        }
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let c = Arc::new(Coalescer::new());
        let Joined::Leader(a) = c.join(key("a")) else { panic!() };
        let Joined::Leader(b) = c.join(key("b")) else { panic!() };
        assert_eq!(c.inflight_len(), 2);
        a.complete(|_| Rendered { status: 200, body: Arc::new(vec![]), retry_after_secs: None, trace_id: None });
        b.complete(|_| Rendered { status: 200, body: Arc::new(vec![]), retry_after_secs: None, trace_id: None });
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn late_arrival_becomes_a_new_leader() {
        let c = Arc::new(Coalescer::new());
        let Joined::Leader(first) = c.join(key("q")) else { panic!() };
        first.complete(|_| Rendered { status: 200, body: Arc::new(vec![]), retry_after_secs: None, trace_id: None });
        assert!(matches!(c.join(key("q")), Joined::Leader(_)));
    }

    #[test]
    fn leader_unwind_fails_waiters_instead_of_stranding_them() {
        let c = Arc::new(Coalescer::new());
        let Joined::Leader(token) = c.join(key("q")) else { panic!() };
        let Joined::Waiter(w) = c.join(key("q")) else { panic!() };
        let waiter = thread::spawn(move || w.wait());
        drop(token); // leader dies without completing
        let got = waiter.join().unwrap();
        assert_eq!(got.status, 500);
        assert_eq!(c.inflight_len(), 0);
        assert!(matches!(c.join(key("q")), Joined::Leader(_)));
    }

    #[test]
    fn concurrent_joins_produce_exactly_one_leader() {
        let c = Arc::new(Coalescer::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || match c.join(key("q")) {
                    Joined::Leader(t) => {
                        t.complete(|g| Rendered {
                            status: 200,
                            body: Arc::new(format!("g={g}").into_bytes()),
                            retry_after_secs: None,
            trace_id: None,
                        });
                        true
                    }
                    Joined::Waiter(w) => {
                        w.wait();
                        false
                    }
                })
            })
            .collect();
        let leaders =
            handles.into_iter().map(|h| h.join().unwrap()).filter(|&led| led).count();
        // every thread finished; at least one led, and flights never nest
        assert!(leaders >= 1);
        assert_eq!(c.inflight_len(), 0);
    }
}
