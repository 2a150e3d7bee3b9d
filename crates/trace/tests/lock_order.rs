//! Lock-order analysis over the trace collector: concurrent publishers
//! and readers, then assert the always-on analyzer saw an acyclic
//! acquisition graph.
#![cfg(all(debug_assertions, not(osql_model)))]

use osql_trace::{Trace, TraceCollector};
use std::sync::Arc;

#[test]
fn trace_collector_admits_a_global_lock_order() {
    let c = Arc::new(TraceCollector::new(16));
    std::thread::scope(|s| {
        for _ in 0..3 {
            let c = c.clone();
            s.spawn(move || {
                for _ in 0..8 {
                    let mut t = Trace::new();
                    let span = t.start("q");
                    t.end(span);
                    c.publish(Arc::new(t.finish()));
                    let _ = c.recent();
                    let _ = c.len();
                }
            });
        }
    });
    assert_eq!(c.published(), 24);
    assert_eq!(osql_chk::lockorder::cycles_detected(), 0, "lock-order cycle in trace collector");
}
