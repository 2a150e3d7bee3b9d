//! Lock-order analysis over the flight recorder: concurrent finishers
//! and readers, then assert the always-on analyzer saw an acyclic
//! acquisition graph.
#![cfg(all(debug_assertions, not(osql_model)))]

use osql_trace::{FlightConfig, FlightRecorder, RequestRecord};
use std::sync::Arc;

#[test]
fn flight_recorder_admits_a_global_lock_order() {
    let fr = Arc::new(FlightRecorder::new(FlightConfig { capacity: 16, ..FlightConfig::default() }));
    std::thread::scope(|s| {
        for t in 0..3 {
            let fr = fr.clone();
            s.spawn(move || {
                for i in 0..8 {
                    let id = format!("t{t}-{i}");
                    fr.finish(RequestRecord::new(&id, "db"));
                    let _ = fr.matching(4, |r| r.db_id == "db");
                    let _ = fr.lookup(&id);
                    let _ = fr.depth();
                }
            });
        }
    });
    assert_eq!(fr.finished(), 24);
    assert_eq!(osql_chk::lockorder::cycles_detected(), 0, "lock-order cycle in flight recorder");
}
