//! Exporters over a finished [`QueryTrace`]: an indented text tree with
//! timings, a timestamp-free *logical* rendering (what the determinism
//! gate compares), and a JSONL dump (one object per span/event).

use crate::json::ObjectWriter;
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
            Span(&'a Span),
            Event(&'a Event),
        }
        let mut records: Vec<(u64, Rec)> = self
            .spans
            .iter()
            .filter(|s| s.parent == parent)
            .map(|s| (s.seq, Rec::Span(s)))
            .collect();
        records.extend(
            self.events.iter().filter(|e| e.span == parent).map(|e| (e.seq, Rec::Event(e))),
        );
        records.sort_by_key(|(seq, _)| *seq);
        for (_, rec) in records {
            match rec {
                Rec::Span(span) => {
                    let indent = "  ".repeat(depth);
                    let _ = write!(out, "{indent}{}", span.name);
                    render_labels(out, &span.labels);
                    if timed {
                        let _ = write!(out, " · {:.2}ms", span.duration_ms());
                        for (k, v) in &span.timings {
                            let _ = write!(out, " {k}={v:.2}");
                        }
                    }
                    out.push('\n');
                    self.render_spans(out, Some(span.id), depth + 1, timed);
                }
                Rec::Event(event) => {
                    if timed || !event.volatile {
                        render_event(out, event, depth, timed);
                    }
                }
            }
        }
    }

    /// Serialize to JSON Lines: every span then every event, one object
    /// per line, in logical order; keys are stable and sorted by kind.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let mut obj = ObjectWriter::new();
            obj.str_field("kind", "span")
                .u64_field("id", span.id as u64)
                .opt_u64_field("parent", span.parent.map(|p| p as u64))
                .str_field("name", span.name)
                .u64_field("seq", span.seq)
                .u64_field("end_seq", span.end_seq)
                .u64_field("start_ns", span.start_ns)
                .u64_field("end_ns", span.end_ns);
            labels_and_timings(&mut obj, &span.labels, &span.timings);
            out.push_str(&obj.finish());
            out.push('\n');
        }
        for event in &self.events {
            let mut obj = ObjectWriter::new();
            obj.str_field("kind", "event")
                .opt_u64_field("span", event.span.map(|s| s as u64))
                .str_field("name", event.name)
                .u64_field("seq", event.seq)
                .u64_field("at_ns", event.at_ns)
                .bool_field("volatile", event.volatile);
            labels_and_timings(&mut obj, &event.labels, &event.timings);
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }
}

fn labels_and_timings(
    obj: &mut ObjectWriter,
    labels: &[(&'static str, String)],
    timings: &[(&'static str, f64)],
) {
    if !labels.is_empty() {
        let mut inner = ObjectWriter::new();
        for (k, v) in labels {
            inner.str_field(k, v);
        }
        obj.raw_field("labels", &inner.finish());
    }
    if !timings.is_empty() {
        let mut inner = ObjectWriter::new();
        for (k, v) in timings {
            inner.f64_field_with(k, *v, None);
        }
        obj.raw_field("timings", &inner.finish());
    }
}

fn render_event(out: &mut String, event: &Event, depth: usize, timed: bool) {
    let indent = "  ".repeat(depth + 1);
    let _ = write!(out, "{indent}· {}", event.name);
    render_labels(out, &event.labels);
    if timed {
        for (k, v) in &event.timings {
            let _ = write!(out, " {k}={v:.2}");
        }
    }
    out.push('\n');
}

fn render_labels(out: &mut String, labels: &[(&'static str, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push_str(" [");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{k}={v}");
    }
    out.push(']');
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
        t.event_timed("retrieve", &[("hits", "3")], &[("ms", 1.25)]);
        t.end(stage);
        t.event_volatile("plan", &[("outcome", "hit")], &[]);
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

    #[test]
    fn jsonl_is_line_per_record_and_escaped() {
        let q = sample();
        let jsonl = q.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), q.spans.len() + q.events.len());
        assert!(lines[0].contains("\"kind\":\"span\""), "{}", lines[0]);
        assert!(lines[0].contains("\\\"A\\\""), "escaped quote: {}", lines[0]);
        assert!(jsonl.contains("\"volatile\":true"), "{jsonl}");
        assert!(jsonl.contains("\"timings\":{\"ms\":1.25}"), "{jsonl}");
        // every line is minimally well-formed
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
