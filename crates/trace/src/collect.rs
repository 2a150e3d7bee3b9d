//! A bounded, drop-oldest ring buffer of finished traces.
//!
//! Recording never touches the collector — traces are built lock-free on
//! their owning thread and published here *once*, at query completion.
//! The buffer is bounded so a long-running server holds the most recent
//! N traces and nothing more; when full, the oldest trace is dropped
//! (never the publisher blocked) and [`TraceCollector::dropped`] counts
//! it. That is the whole backpressure policy: observability may lose
//! history, the serve path never waits on it.

use crate::model::QueryTrace;
use std::collections::VecDeque;
use osql_chk::atomic::{AtomicU64, Ordering};
use osql_chk::Mutex;
use std::sync::Arc;

/// The bounded trace ring.
#[derive(Debug)]
pub struct TraceCollector {
    ring: Mutex<VecDeque<Arc<QueryTrace>>>,
    capacity: usize,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl TraceCollector {
    /// A collector retaining at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceCollector {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Publish a finished trace, evicting the oldest when full.
    pub fn publish(&self, trace: Arc<QueryTrace>) {
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<QueryTrace>> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum retained traces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Traces ever published.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Traces evicted by the drop-oldest policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Trace;

    fn trace(tag: &str) -> Arc<QueryTrace> {
        let mut t = Trace::new();
        let s = t.start("q");
        t.label(s, "tag", tag);
        t.end(s);
        Arc::new(t.finish())
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let c = TraceCollector::new(2);
        c.publish(trace("a"));
        c.publish(trace("b"));
        c.publish(trace("c"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.published(), 3);
        assert_eq!(c.dropped(), 1);
        let tags: Vec<String> = c
            .recent()
            .iter()
            .map(|t| t.spans[0].label("tag").unwrap().to_owned())
            .collect();
        assert_eq!(tags, ["b", "c"], "oldest evicted first");
    }

    #[test]
    fn concurrent_publishers_lose_nothing_below_capacity() {
        let c = Arc::new(TraceCollector::new(256));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..32 {
                        c.publish(trace(&i.to_string()));
                    }
                });
            }
        });
        assert_eq!(c.len(), 128);
        assert_eq!(c.published(), 128);
        assert_eq!(c.dropped(), 0);
    }
}
