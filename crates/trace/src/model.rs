//! The span/event model and the per-query trace builder.
//!
//! A [`Trace`] is built single-threaded (one per query, or one per
//! refinement worker) so recording is plain `Vec` pushes — no locks, no
//! atomics. Parallel sub-traces are merged back with [`Trace::absorb`],
//! which renumbers logical sequence numbers in absorption order, so the
//! finished [`QueryTrace`] is byte-identical whether the work ran on one
//! thread or eight.
//!
//! Every record carries two kinds of position:
//!
//! - a **logical sequence number** (`seq`), assigned deterministically —
//!   tests and the CI determinism gate pin structure against these;
//! - a **monotonic timestamp** (`*_ns`, nanoseconds from the trace
//!   anchor) — profiling reads these, assertions never do.
//!
//! Labels follow the same split: `labels` hold deterministic facts
//! (stage names, candidate indices, row counts, error kinds) and
//! `timings` hold measured milliseconds. [`QueryTrace::render_logical`]
//! includes only the former; events recorded through the `_volatile`
//! entry points (e.g. plan-cache hit/miss, which depends on process-global
//! warmup) are excluded from the logical view entirely.

use std::time::Instant;

/// Index of a span within its trace. The sentinel [`NO_SPAN`] is returned
/// when no trace is active; every operation on it is a no-op.
pub type SpanId = usize;

/// Sentinel span id returned by recording calls when tracing is inactive.
pub const NO_SPAN: SpanId = usize::MAX;

/// Soft cap on records (spans + events) per trace; recording beyond it
/// drops the record and bumps [`QueryTrace::dropped`]. Keeps a runaway
/// loop from turning the tracer into a memory leak.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// A timed, labeled region of work with a parent.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id (its index in [`QueryTrace::spans`]).
    pub id: SpanId,
    /// Enclosing span, `None` for roots.
    pub parent: Option<SpanId>,
    /// Span name, e.g. `stage:refinement` or `candidate`. Static so the
    /// recording hot path never allocates for it.
    pub name: &'static str,
    /// Logical sequence number at start (1-based, deterministic).
    pub seq: u64,
    /// Logical sequence number at end (0 while open).
    pub end_seq: u64,
    /// Monotonic start, nanoseconds from the trace anchor.
    pub start_ns: u64,
    /// Monotonic end, nanoseconds from the trace anchor (0 while open).
    pub end_ns: u64,
    /// Deterministic facts about the span (static keys, owned values).
    pub labels: Vec<(&'static str, String)>,
    /// Measured milliseconds; excluded from the logical view.
    pub timings: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall-clock duration in milliseconds (0 while open).
    pub fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }
}

/// A point-in-time record attached to the span that was open when it
/// fired (or to the trace root when none was).
#[derive(Debug, Clone)]
pub struct Event {
    /// Enclosing span, `None` when fired outside any span.
    pub span: Option<SpanId>,
    /// Event name, e.g. `vote` or `plan`. Static so the recording hot
    /// path never allocates for it.
    pub name: &'static str,
    /// Logical sequence number (deterministic).
    pub seq: u64,
    /// Monotonic timestamp, nanoseconds from the trace anchor.
    pub at_ns: u64,
    /// Deterministic facts about the event (static keys, owned values).
    pub labels: Vec<(&'static str, String)>,
    /// Measured values (milliseconds unless the key says otherwise);
    /// excluded from the logical view.
    pub timings: Vec<(&'static str, f64)>,
    /// Volatile events depend on process-global state (cache warmth,
    /// queue timing) and are excluded from the logical view.
    pub volatile: bool,
}

impl Event {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }

    /// The value of a timing, if present.
    pub fn timing(&self, key: &str) -> Option<f64> {
        self.timings.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// Compact event record used while the trace is under construction:
/// labels and timings live in shared arenas so the recording hot path
/// never allocates a heap block per event (interleaving tiny live blocks
/// among the query engine's result allocations measurably fragments the
/// heap — see the `engine_trace` bench group). [`Trace::finish`]
/// materialises these into public [`Event`]s off the hot path.
#[derive(Debug)]
struct EventRec {
    span: Option<SpanId>,
    name: &'static str,
    seq: u64,
    at_ns: u64,
    labels: (u32, u32),
    timings: (u32, u32),
    volatile: bool,
}

/// A per-query trace under construction. Single-owner: recording is plain
/// vector pushes with no synchronisation.
#[derive(Debug)]
pub struct Trace {
    anchor: Instant,
    seq: u64,
    spans: Vec<Span>,
    events: Vec<EventRec>,
    label_arena: Vec<(&'static str, String)>,
    timing_arena: Vec<(&'static str, f64)>,
    stack: Vec<SpanId>,
    dropped: u64,
    capacity: usize,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// A fresh trace anchored at "now", with the default record cap.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A fresh trace with an explicit record cap.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            // chk:allow(wall-clock): capture-time epoch for span offsets, not logical trace time
            anchor: Instant::now(),
            seq: 0,
            spans: Vec::new(),
            events: Vec::new(),
            label_arena: Vec::new(),
            timing_arena: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
            capacity: capacity.max(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    fn at_capacity(&mut self) -> bool {
        if self.spans.len() + self.events.len() >= self.capacity {
            self.dropped += 1;
            true
        } else {
            false
        }
    }

    /// Open a span under the currently open span (or as a root).
    pub fn start(&mut self, name: &'static str) -> SpanId {
        if self.at_capacity() {
            return NO_SPAN;
        }
        self.seq += 1;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            seq: self.seq,
            end_seq: 0,
            start_ns: self.now_ns(),
            end_ns: 0,
            labels: Vec::new(),
            timings: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    /// Close a span (and, defensively, anything still open inside it).
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN || id >= self.spans.len() {
            return;
        }
        let Some(pos) = self.stack.iter().rposition(|s| *s == id) else {
            return; // already closed
        };
        let now = self.now_ns();
        // close the span and any children left open inside it
        for open in self.stack.drain(pos..).rev().collect::<Vec<_>>() {
            self.seq += 1;
            let span = &mut self.spans[open];
            span.end_seq = self.seq;
            span.end_ns = now;
        }
    }

    /// Attach a deterministic label to a span.
    pub fn label(&mut self, id: SpanId, key: &'static str, value: &str) {
        if let Some(span) = self.spans.get_mut(id) {
            span.labels.push((key, value.to_owned()));
        }
    }

    /// Attach a measured timing (milliseconds) to a span.
    pub fn timing(&mut self, id: SpanId, key: &'static str, ms: f64) {
        if let Some(span) = self.spans.get_mut(id) {
            span.timings.push((key, ms));
        }
    }

    /// Record an event under the currently open span.
    pub fn event(&mut self, name: &'static str, labels: &[(&'static str, &str)]) {
        self.push_event(name, labels, &[], false);
    }

    /// Record an event carrying measured timings.
    pub fn event_timed(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        timings: &[(&'static str, f64)],
    ) {
        self.push_event(name, labels, timings, false);
    }

    /// Record a volatile event: kept in the trace and its exports, but
    /// excluded from [`QueryTrace::render_logical`] because its presence
    /// or labels depend on process-global state (cache warmth, queues).
    pub fn event_volatile(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        timings: &[(&'static str, f64)],
    ) {
        self.push_event(name, labels, timings, true);
    }

    fn push_event(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        timings: &[(&'static str, f64)],
        volatile: bool,
    ) {
        self.record_event(
            name,
            labels.iter().map(|(k, v)| (*k, (*v).to_owned())),
            timings.iter().copied(),
            volatile,
        );
    }

    /// The one place an event enters the trace: under the currently open
    /// span, at the next sequence number, now.
    fn record_event(
        &mut self,
        name: &'static str,
        labels: impl Iterator<Item = (&'static str, String)>,
        timings: impl Iterator<Item = (&'static str, f64)>,
        volatile: bool,
    ) {
        if self.at_capacity() {
            return;
        }
        self.seq += 1;
        let l0 = self.label_arena.len() as u32;
        self.label_arena.extend(labels);
        let t0 = self.timing_arena.len() as u32;
        self.timing_arena.extend(timings);
        self.events.push(EventRec {
            span: self.stack.last().copied(),
            name,
            seq: self.seq,
            at_ns: self.now_ns(),
            labels: (l0, self.label_arena.len() as u32),
            timings: (t0, self.timing_arena.len() as u32),
            volatile,
        });
    }

    /// Re-record the events of a finished trace under the currently open
    /// span, as if they fired now (fresh sequence numbers and timestamps;
    /// spans of `src` are not replayed — it is meant for the span-less
    /// record of one shared unit of work).
    ///
    /// `measured` replays every event as recorded. Otherwise only what
    /// the logical view shows is replayed: volatile events are left out
    /// and every timing reads zero — how a consumer of shared work
    /// records the work it did not do, so the logical trace cannot tell
    /// who computed and who reused.
    pub fn replay(&mut self, src: &QueryTrace, measured: bool) {
        debug_assert!(src.spans.is_empty(), "replay re-records events only");
        for event in src.events.iter().filter(|e| measured || !e.volatile) {
            self.record_event(
                event.name,
                event.labels.iter().cloned(),
                event.timings.iter().map(|(k, v)| (*k, if measured { *v } else { 0.0 })),
                event.volatile,
            );
        }
    }

    /// Merge a finished sub-trace under the currently open span.
    ///
    /// Logical sequence numbers are renumbered to continue this trace's
    /// counter, span ids are re-based, and timestamps are re-anchored.
    /// Absorbing children in a fixed order (candidate index order) makes
    /// the merged trace independent of how many threads produced them.
    pub fn absorb(&mut self, child: QueryTrace) {
        let parent = self.stack.last().copied();
        let base_id = self.spans.len();
        let base_seq = self.seq;
        // Re-anchor: nanoseconds between the two anchors (0 if the child
        // was somehow created first — monotonic clamping, never a panic).
        let offset_ns =
            child.anchor.saturating_duration_since(self.anchor).as_nanos() as u64;
        let mut max_seq = 0u64;
        for mut span in child.spans {
            max_seq = max_seq.max(span.seq).max(span.end_seq);
            span.id += base_id;
            span.parent = match span.parent {
                Some(p) => Some(p + base_id),
                None => parent,
            };
            span.seq += base_seq;
            if span.end_seq > 0 {
                span.end_seq += base_seq;
            }
            span.start_ns += offset_ns;
            if span.end_ns > 0 {
                span.end_ns += offset_ns;
            }
            self.spans.push(span);
        }
        for event in child.events {
            max_seq = max_seq.max(event.seq);
            let l0 = self.label_arena.len() as u32;
            self.label_arena.extend(event.labels);
            let t0 = self.timing_arena.len() as u32;
            self.timing_arena.extend_from_slice(&event.timings);
            self.events.push(EventRec {
                span: match event.span {
                    Some(s) => Some(s + base_id),
                    None => parent,
                },
                name: event.name,
                seq: event.seq + base_seq,
                at_ns: event.at_ns + offset_ns,
                labels: (l0, self.label_arena.len() as u32),
                timings: (t0, self.timing_arena.len() as u32),
                volatile: event.volatile,
            });
        }
        self.seq = base_seq + max_seq;
        self.dropped += child.dropped;
    }

    /// Close anything still open and freeze the trace, materialising the
    /// arena-backed event records into self-contained [`Event`]s.
    pub fn finish(mut self) -> QueryTrace {
        while let Some(&top) = self.stack.last() {
            self.end(top);
        }
        let events = self
            .events
            .into_iter()
            .map(|rec| Event {
                span: rec.span,
                name: rec.name,
                seq: rec.seq,
                at_ns: rec.at_ns,
                labels: self.label_arena[rec.labels.0 as usize..rec.labels.1 as usize].to_vec(),
                timings: self.timing_arena[rec.timings.0 as usize..rec.timings.1 as usize]
                    .to_vec(),
                volatile: rec.volatile,
            })
            .collect();
        QueryTrace { spans: self.spans, events, dropped: self.dropped, anchor: self.anchor }
    }
}

/// A finished, immutable per-query trace.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// All spans, in creation (logical) order.
    pub spans: Vec<Span>,
    /// All events, in creation (logical) order.
    pub events: Vec<Event>,
    /// Records dropped because the trace hit its capacity.
    pub dropped: u64,
    pub(crate) anchor: Instant,
}

impl Default for QueryTrace {
    fn default() -> Self {
        Self::empty()
    }
}

impl QueryTrace {
    /// A trace with no records (the disabled-tracing placeholder).
    pub fn empty() -> Self {
        // chk:allow(wall-clock): placeholder anchor for the disabled-tracing sentinel
        QueryTrace { spans: Vec::new(), events: Vec::new(), dropped: 0, anchor: Instant::now() }
    }

    /// Whether the trace holds no spans and no events.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    /// Root spans (no parent), in logical order.
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Child spans of `id`, in logical order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// All spans with this name, in logical order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// First span with this name.
    pub fn span_named(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All events with this name, in logical order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Events attached to a span (not its descendants), in logical order.
    pub fn events_in(&self, id: SpanId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.span == Some(id))
    }

    /// Whether `descendant` sits under `ancestor` in the span tree.
    pub fn is_descendant(&self, descendant: SpanId, ancestor: SpanId) -> bool {
        let mut cursor = self.spans.get(descendant).and_then(|s| s.parent);
        while let Some(p) = cursor {
            if p == ancestor {
                return true;
            }
            cursor = self.spans.get(p).and_then(|s| s.parent);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_number_logically() {
        let mut t = Trace::new();
        let a = t.start("outer");
        t.label(a, "k", "v");
        let b = t.start("inner");
        t.event("tick", &[("n", "1")]);
        t.end(b);
        t.end(a);
        let q = t.finish();
        assert_eq!(q.spans.len(), 2);
        assert_eq!(q.events.len(), 1);
        let outer = q.span_named("outer").unwrap();
        let inner = q.span_named("inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.seq, 1);
        assert_eq!(inner.seq, 2);
        assert_eq!(q.events[0].seq, 3);
        assert_eq!(inner.end_seq, 4);
        assert_eq!(outer.end_seq, 5);
        assert_eq!(q.events[0].span, Some(inner.id));
        assert!(q.is_descendant(inner.id, outer.id));
        assert!(!q.is_descendant(outer.id, inner.id));
        assert_eq!(outer.label("k"), Some("v"));
    }

    #[test]
    fn end_closes_dangling_children() {
        let mut t = Trace::new();
        let a = t.start("a");
        let _b = t.start("b"); // never explicitly ended
        t.end(a);
        let q = t.finish();
        assert!(q.spans.iter().all(|s| s.end_seq > 0), "{q:?}");
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut t = Trace::new();
        t.start("open");
        let q = t.finish();
        assert!(q.spans[0].end_seq > 0);
        assert!(q.spans[0].end_ns >= q.spans[0].start_ns);
    }

    #[test]
    fn absorb_renumbers_deterministically() {
        // Build two children on "other threads" (order of construction
        // does not matter, only absorption order does).
        let build_child = |tag: &str| {
            let mut c = Trace::new();
            let s = c.start("candidate");
            c.label(s, "idx", tag);
            c.event("execute", &[("rows", "3")]);
            c.end(s);
            c.finish()
        };
        let c1 = build_child("1");
        let c0 = build_child("0");
        let mut parent = Trace::new();
        let refinement = parent.start("refinement");
        parent.absorb(c0);
        parent.absorb(c1);
        parent.end(refinement);
        let q = parent.finish();
        let idxs: Vec<&str> =
            q.spans_named("candidate").map(|s| s.label("idx").unwrap()).collect();
        assert_eq!(idxs, ["0", "1"], "absorption order wins");
        // contiguous, strictly increasing sequence numbers
        let mut seqs: Vec<u64> = q
            .spans
            .iter()
            .flat_map(|s| [s.seq, s.end_seq])
            .chain(q.events.iter().map(|e| e.seq))
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>(), "{seqs:?}");
        // children re-parented under the refinement span
        for c in q.spans_named("candidate") {
            assert_eq!(c.parent, Some(refinement));
        }
    }

    #[test]
    fn replay_re_records_events_under_the_open_span() {
        let mut work = Trace::new();
        work.event_timed("align_hop", &[("hop", "agent")], &[("ms", 0.4)]);
        work.event_volatile("exec", &[], &[("rows_scanned", 12.0)]);
        let work = work.finish();

        let mut t = Trace::new();
        let did = t.start("candidate");
        t.replay(&work, true);
        t.end(did);
        let reused = t.start("candidate");
        t.replay(&work, false);
        t.end(reused);
        let q = t.finish();

        let of = |span| q.events_in(span).collect::<Vec<_>>();
        assert_eq!(of(did).len(), 2, "measured replay keeps volatile events");
        assert_eq!(of(did)[0].timing("ms"), Some(0.4));
        assert!(of(did)[1].volatile);
        assert_eq!(of(reused).len(), 1, "logical replay drops volatile events");
        assert_eq!(of(reused)[0].label("hop"), Some("agent"));
        assert_eq!(of(reused)[0].timing("ms"), Some(0.0), "and zeroes timings");
        // sequence numbers stay contiguous: nothing was copied, everything re-recorded
        let mut seqs: Vec<u64> = q
            .spans
            .iter()
            .flat_map(|s| [s.seq, s.end_seq])
            .chain(q.events.iter().map(|e| e.seq))
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_drops_and_counts() {
        let mut t = Trace::with_capacity(3);
        let a = t.start("a");
        t.event("e1", &[]);
        t.event("e2", &[]);
        t.event("e3", &[]); // over capacity
        t.end(a);
        let q = t.finish();
        assert_eq!(q.spans.len() + q.events.len(), 3);
        assert_eq!(q.dropped, 1);
    }

    #[test]
    fn volatile_events_are_marked() {
        let mut t = Trace::new();
        t.event_volatile("plan", &[("outcome", "hit")], &[("ms", 0.1)]);
        let q = t.finish();
        assert!(q.events[0].volatile);
        assert_eq!(q.events[0].timing("ms"), Some(0.1));
    }
}
