//! Exporters over a finished [`QueryTrace`]: an indented text tree with
//! timings and a timestamp-free *logical* rendering (what the determinism
//! gate compares).

use crate::model::{Event, QueryTrace, Span, SpanId};
use std::fmt::Write as _;

impl QueryTrace {
    /// Render the span tree with durations, labels, and events — the
    /// human-facing view behind `cli trace`.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_spans(&mut out, None, 0, true);
        if self.dropped > 0 {
            let _ = writeln!(out, "({} record(s) dropped at capacity)", self.dropped);
        }
        out
    }

    /// Render only the deterministic structure: span nesting, names,
    /// labels, non-volatile events — no ids, timestamps, durations, or
    /// volatile records. Two runs of the same query must render byte-
    /// identically here; the CI trace-determinism gate pins exactly that.
    pub fn render_logical(&self) -> String {
        let mut out = String::new();
        self.render_spans(&mut out, None, 0, false);
        out
    }

    fn render_spans(&self, out: &mut String, parent: Option<SpanId>, depth: usize, timed: bool) {
        // Interleave child spans and direct events in logical order.
        enum Rec<'a> {
            Span(Span<'a>),
            Event(Event<'a>),
        }
        let mut records: Vec<(u64, Rec)> = self
            .spans()
            .filter(|s| s.parent == parent)
            .map(|s| (s.seq, Rec::Span(s)))
            .collect();
        records.extend(
            self.events().filter(|e| e.span == parent).map(|e| (e.seq, Rec::Event(e))),
        );
        records.sort_by_key(|(seq, _)| *seq);
        for (_, rec) in records {
            match rec {
                Rec::Span(span) => {
                    let indent = "  ".repeat(depth);
                    let _ = write!(out, "{indent}{}", span.name);
                    render_labels(out, span.labels());
                    if timed {
                        let _ = write!(out, " · {:.2}ms", span.duration_ms());
                        for (k, v) in span.timings() {
                            let _ = write!(out, " {k}={v:.2}");
                        }
                    }
                    out.push('\n');
                    self.render_spans(out, Some(span.id), depth + 1, timed);
                }
                Rec::Event(event) => {
                    if timed || !event.volatile {
                        render_event(out, &event, depth, timed);
                    }
                }
            }
        }
    }
}

fn render_event(out: &mut String, event: &Event, depth: usize, timed: bool) {
    let indent = "  ".repeat(depth + 1);
    let _ = write!(out, "{indent}· {}", event.name);
    render_labels(out, event.labels());
    if timed {
        for (k, v) in event.timings() {
            let _ = write!(out, " {k}={v:.2}");
        }
    }
    out.push('\n');
}

fn render_labels<'a>(out: &mut String, labels: impl Iterator<Item = (&'static str, &'a str)>) {
    let mut any = false;
    for (k, v) in labels {
        out.push_str(if any { " " } else { " [" });
        let _ = write!(out, "{k}={v}");
        any = true;
    }
    if any {
        out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Trace;

    fn sample() -> QueryTrace {
        let mut t = Trace::new();
        let root = t.start("pipeline");
        t.label(root, "db", "hospital \"A\"");
        let stage = t.start("stage:extraction");
        t.event_timed("retrieve", &[("hits", &3)], &[("ms", 1.25)]);
        t.end(stage);
        t.event_volatile("plan", &[("outcome", &"hit")], &[]);
        t.end(root);
        t.finish()
    }

    #[test]
    fn tree_shows_structure_and_timings() {
        let q = sample();
        let tree = q.render_tree();
        assert!(tree.contains("pipeline [db=hospital \"A\"]"), "{tree}");
        assert!(tree.contains("  stage:extraction"), "{tree}");
        assert!(tree.contains("· retrieve [hits=3] ms=1.25"), "{tree}");
        assert!(tree.contains("· plan [outcome=hit]"), "volatile shown in full view: {tree}");
        assert!(tree.contains("ms"), "{tree}");
    }

    #[test]
    fn logical_view_drops_time_and_volatile() {
        let q = sample();
        let logical = q.render_logical();
        assert!(logical.contains("retrieve [hits=3]"), "{logical}");
        assert!(!logical.contains("ms="), "{logical}");
        assert!(!logical.contains("plan"), "volatile excluded: {logical}");
        assert!(!logical.contains("·  "), "{logical}");
    }
}
