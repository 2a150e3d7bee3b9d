//! Harness-side spans for the layer pass.
//!
//! The program under test is not instrumented by this benchmark: a span is
//! opened here, in the harness, around each call into a layer's public
//! function. Spans stay in memory until the pass ends and are then written
//! as JSON lines. The pass is single-threaded, so spans on the stack nest
//! and a span's children never overlap; self time is duration minus the
//! children's durations.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Request the span belongs to (`None` for stand-alone probes).
    pub request: Option<u32>,
    /// `layer.operation`, e.g. `core.extraction`.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: Option<u32>,
}

/// In-memory span recorder. `Sync` because the timing language model that
/// records `llmsim.complete` spans must be, although the layer pass only
/// ever calls it from one thread.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    id: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span recorder lock poisoned by a panicking probe")
    }

    /// Tag spans opened from now on with a request id (or none).
    pub fn set_request(&self, request: Option<u32>) {
        self.lock().request = request;
    }

    /// Open a span under whichever span is currently open.
    pub fn enter(&self, name: &str) -> Guard<'_> {
        let mut inner = self.lock();
        let id = inner.spans.len() as u32;
        let span = Span {
            id,
            parent: inner.stack.last().copied(),
            request: inner.request,
            name: name.to_owned(),
            start_ns: 0,
            end_ns: 0,
        };
        inner.spans.push(span);
        inner.stack.push(id);
        // read the clock last so recorder bookkeeping stays outside the span
        inner.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Guard { recorder: self, id }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name);
        f()
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

impl Guard<'_> {
    /// Close the span under another name, for calls whose kind is only
    /// known once they return (an asset lookup that turned into a build).
    pub fn finish_as(self, name: &str) {
        if let Ok(mut inner) = self.recorder.inner.lock() {
            inner.spans[self.id as usize].name = name.to_owned();
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.recorder.epoch.elapsed().as_nanos() as u64;
        // a poisoned lock means a probe panicked; the run is failing anyway
        if let Ok(mut inner) = self.recorder.inner.lock() {
            inner.spans[self.id as usize].end_ns = end;
            if let Some(pos) = inner.stack.iter().rposition(|open| *open == self.id) {
                inner.stack.truncate(pos);
            }
        }
    }
}

/// Per-span self time: duration minus the durations of direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Totals for all spans sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
    /// Each span's duration, nanoseconds, in recording order.
    pub durations_ns: Vec<u64>,
}

impl NameTotals {
    /// Mean duration in microseconds (0 when nothing was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Median duration in microseconds.
    pub fn median_us(&self) -> f64 {
        let us: Vec<f64> = self
            .durations_ns
            .iter()
            .map(|ns| *ns as f64 / 1e3)
            .collect();
        crate::stats::median(&us)
    }
}

/// Group spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(span.name.clone()).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
        t.durations_ns.push(span.duration_ns());
    }
    out
}

/// Render spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        out.push_str(&serde_json::to_string(span).expect("a span always serialises"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: Some(1),
            name: name.into(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, None, "request", 0, 1000),
            span(1, Some(0), "core.answer", 100, 900),
            span(2, Some(1), "core.extraction", 100, 300),
            span(3, Some(2), "llmsim.complete", 150, 250),
            span(4, Some(1), "core.generation", 300, 600),
            span(5, Some(0), "server.render", 900, 950),
        ];
        assert_eq!(self_times_ns(&spans), vec![150, 300, 100, 100, 300, 50]);
        // self times partition the root exactly
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 1000);
        let by = totals_by_name(&spans);
        assert_eq!(by["core.answer"].total_ns, 800);
        assert_eq!(by["core.answer"].self_ns, 300);
        assert_eq!(by["llmsim.complete"].count, 1);
    }

    #[test]
    fn recorder_nests_by_stack_and_tags_requests() {
        let rec = Recorder::default();
        rec.set_request(Some(7));
        {
            let _root = rec.enter("request");
            rec.time("a", || rec.time("b", || ()));
            rec.time("c", || ());
        }
        rec.set_request(None);
        rec.enter("lookup").finish_as("probe");
        let spans = rec.spans();
        let shape: Vec<(&str, Option<u32>, Option<u32>)> = spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent, s.request))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("request", None, Some(7)),
                ("a", Some(0), Some(7)),
                ("b", Some(1), Some(7)),
                ("c", Some(0), Some(7)),
                ("probe", None, None),
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        // children lie inside their parents
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let spans = vec![
            span(0, None, "request", 5, 10),
            span(1, Some(0), "x.y", 6, 9),
        ];
        let text = to_jsonl(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("x.y"));
        assert_eq!(v.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("end_ns").unwrap().as_f64(), Some(9.0));
        let root: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(root.get("parent"), Some(&serde_json::Value::Null));
    }
}
