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
//! Labels follow the same split: labels hold deterministic facts (stage
//! names, candidate indices, row counts, error kinds) and timings hold
//! measured milliseconds. [`QueryTrace::render_logical`] includes only
//! the former; events recorded through the `_volatile` entry points
//! (e.g. plan-cache hit/miss, which depends on process-global warmup) are
//! excluded from the logical view entirely.
//!
//! Recording copies nothing twice. A label's value is written once, by
//! its `Display`, into the trace's one text arena; a record holds its
//! attributes as a chain through one attribute arena, each label a byte
//! range of the text. Work recorded once and re-recorded for every
//! consumer ([`Trace::capture_start`], [`Trace::replay`]) re-records
//! records that point at the same chain, and [`Trace::finish`] moves the
//! arenas into the [`QueryTrace`].

use osql_chk::atomic::{AtomicU64, Ordering};
use std::fmt::{self, Display, Write as _};
use std::ops::Deref;
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

/// A label value, in event-recording position: any `Display`, written
/// straight into the trace's text arena.
pub type Label<'a> = (&'static str, &'a dyn Display);

/// End of an attribute chain.
const NIL: u32 = u32::MAX;

/// What one attribute holds.
#[derive(Debug, Clone, Copy)]
enum Value {
    /// A label: its bytes in the text arena.
    Text(u32, u32),
    /// A measured number (milliseconds unless the key says otherwise).
    Number(f64),
}

/// One attribute of a record, linked to the record's next one.
#[derive(Debug, Clone, Copy)]
struct Attr {
    key: &'static str,
    value: Value,
    next: u32,
}

/// A record's attributes: the ends of its chain in the attribute arena.
#[derive(Debug, Clone, Copy)]
struct Chain {
    first: u32,
    last: u32,
}

impl Chain {
    const EMPTY: Chain = Chain { first: NIL, last: NIL };

    fn rebased(self, base: u32) -> Chain {
        let shift = |i: u32| if i == NIL { NIL } else { i + base };
        Chain { first: shift(self.first), last: shift(self.last) }
    }
}

/// Where every record's attributes live: label text, written once, and
/// the attribute chains that point into it.
#[derive(Debug, Clone, Default)]
struct Arena {
    text: String,
    attrs: Vec<Attr>,
}

impl Arena {
    fn push(&mut self, chain: &mut Chain, key: &'static str, value: Value) {
        let at = self.attrs.len() as u32;
        self.attrs.push(Attr { key, value, next: NIL });
        match chain.last {
            NIL => chain.first = at,
            last => self.attrs[last as usize].next = at,
        }
        chain.last = at;
    }

    fn push_label(&mut self, chain: &mut Chain, key: &'static str, value: &dyn Display) {
        let start = self.text.len() as u32;
        let _ = write!(self.text, "{value}");
        self.push(chain, key, Value::Text(start, self.text.len() as u32));
    }

    fn attrs(&self, chain: Chain) -> impl Iterator<Item = &Attr> + '_ {
        std::iter::successors(self.attrs.get(chain.first as usize), |a| {
            self.attrs.get(a.next as usize)
        })
    }

    fn labels(&self, chain: Chain) -> impl Iterator<Item = (&'static str, &str)> + '_ {
        self.attrs(chain).filter_map(|a| match a.value {
            Value::Text(start, end) => Some((a.key, &self.text[start as usize..end as usize])),
            Value::Number(_) => None,
        })
    }

    fn numbers(&self, chain: Chain) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.attrs(chain).filter_map(|a| match a.value {
            Value::Number(v) => Some((a.key, v)),
            Value::Text(..) => None,
        })
    }

    /// Append `other`, returning the base its attribute indices moved by.
    fn append(&mut self, other: Arena) -> u32 {
        let (text_base, base) = (self.text.len() as u32, self.attrs.len() as u32);
        self.text.push_str(&other.text);
        self.attrs.extend(other.attrs.into_iter().map(|a| Attr {
            key: a.key,
            value: match a.value {
                Value::Text(start, end) => Value::Text(start + text_base, end + text_base),
                number => number,
            },
            next: if a.next == NIL { NIL } else { a.next + base },
        }));
        base
    }
}

/// A timed, labeled region of work with a parent, as stored. Read it
/// through a [`Span`], which adds its labels and timings.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// This span's id (its index in the trace's spans).
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
    attrs: Chain,
}

impl SpanRecord {
    /// Wall-clock duration in milliseconds (0 while open).
    pub fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A point-in-time record attached to the span that was open when it
/// fired (or to the trace root when none was), as stored. Read it through
/// an [`Event`], which adds its labels and timings.
#[derive(Debug, Clone, Copy)]
pub struct EventRecord {
    /// Enclosing span, `None` when fired outside any span.
    pub span: Option<SpanId>,
    /// Event name, e.g. `vote` or `plan`. Static so the recording hot
    /// path never allocates for it.
    pub name: &'static str,
    /// Logical sequence number (deterministic).
    pub seq: u64,
    /// Monotonic timestamp, nanoseconds from the trace anchor.
    pub at_ns: u64,
    /// Volatile events depend on process-global state (cache warmth,
    /// queue timing) and are excluded from the logical view.
    pub volatile: bool,
    attrs: Chain,
    /// A replay of work this record did not measure: its timings read 0.
    unmeasured: bool,
}

/// A span of a [`QueryTrace`]: the record's fields, and its labels and
/// timings.
#[derive(Clone, Copy)]
pub struct Span<'a> {
    rec: &'a SpanRecord,
    arena: &'a Arena,
}

impl Deref for Span<'_> {
    type Target = SpanRecord;

    fn deref(&self) -> &SpanRecord {
        self.rec
    }
}

impl<'a> Span<'a> {
    /// Deterministic facts about the span, in recording order.
    pub fn labels(&self) -> impl Iterator<Item = (&'static str, &'a str)> + 'a {
        self.arena.labels(self.rec.attrs)
    }

    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&'a str> {
        self.labels().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Measured milliseconds, in recording order; excluded from the
    /// logical view.
    pub fn timings(&self) -> impl Iterator<Item = (&'static str, f64)> + 'a {
        self.arena.numbers(self.rec.attrs)
    }
}

impl fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span")
            .field("record", self.rec)
            .field("labels", &self.labels().collect::<Vec<_>>())
            .field("timings", &self.timings().collect::<Vec<_>>())
            .finish()
    }
}

/// An event of a [`QueryTrace`]: the record's fields, and its labels and
/// timings.
#[derive(Clone, Copy)]
pub struct Event<'a> {
    rec: &'a EventRecord,
    arena: &'a Arena,
}

impl Deref for Event<'_> {
    type Target = EventRecord;

    fn deref(&self) -> &EventRecord {
        self.rec
    }
}

impl<'a> Event<'a> {
    /// Deterministic facts about the event, in recording order.
    pub fn labels(&self) -> impl Iterator<Item = (&'static str, &'a str)> + 'a {
        self.arena.labels(self.rec.attrs)
    }

    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&'a str> {
        self.labels().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Measured values (milliseconds unless the key says otherwise), in
    /// recording order; excluded from the logical view.
    pub fn timings(&self) -> impl Iterator<Item = (&'static str, f64)> + 'a {
        let unmeasured = self.rec.unmeasured;
        self.arena.numbers(self.rec.attrs).map(move |(k, v)| (k, if unmeasured { 0.0 } else { v }))
    }

    /// The value of a timing, if present.
    pub fn timing(&self, key: &str) -> Option<f64> {
        self.timings().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

impl fmt::Debug for Event<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Event")
            .field("record", self.rec)
            .field("labels", &self.labels().collect::<Vec<_>>())
            .field("timings", &self.timings().collect::<Vec<_>>())
            .finish()
    }
}

/// Events recorded once while a capture was open ([`Trace::capture_start`]),
/// kept out of the trace until [`Trace::replay`] re-records them. Valid on
/// the trace that captured them only; an empty capture replays nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Captured {
    /// The capturing trace's identity (0: none).
    trace: u64,
    start: u32,
    end: u32,
}

/// Identity of each trace, so a capture is never replayed onto another.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// A per-query trace under construction. Single-owner: recording is plain
/// vector pushes with no synchronisation.
#[derive(Debug)]
pub struct Trace {
    id: u64,
    anchor: Instant,
    seq: u64,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    arena: Arena,
    /// Events recorded while a capture is open, out of the trace; a
    /// replay re-records them by reference.
    detached: Vec<EventRecord>,
    capturing: bool,
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
            id: NEXT_TRACE.fetch_add(1, Ordering::Relaxed),
            // chk:allow(wall-clock): capture-time epoch for span offsets, not logical trace time
            anchor: Instant::now(),
            seq: 0,
            spans: Vec::new(),
            events: Vec::new(),
            arena: Arena::default(),
            detached: Vec::new(),
            capturing: false,
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
        let now = self.now_ns();
        self.start_at(name, now)
    }

    /// [`Trace::start`] at an explicit clock reading, in nanoseconds from
    /// the trace anchor.
    pub fn start_at(&mut self, name: &'static str, at_ns: u64) -> SpanId {
        debug_assert!(!self.capturing, "a capture records events only");
        if self.at_capacity() {
            return NO_SPAN;
        }
        self.seq += 1;
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            id,
            parent: self.stack.last().copied(),
            name,
            seq: self.seq,
            end_seq: 0,
            start_ns: at_ns,
            end_ns: 0,
            attrs: Chain::EMPTY,
        });
        self.stack.push(id);
        id
    }

    /// Close a span (and, defensively, anything still open inside it).
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.end_at(id, now);
    }

    /// [`Trace::end`] at an explicit clock reading, in nanoseconds from
    /// the trace anchor.
    pub fn end_at(&mut self, id: SpanId, at_ns: u64) {
        let Some(pos) = self.stack.iter().rposition(|s| *s == id) else {
            return; // never opened here, or already closed
        };
        // close the span and any children left open inside it, innermost
        // first
        while self.stack.len() > pos {
            let open = self.stack.pop().expect("the stack is longer than pos");
            self.seq += 1;
            let span = &mut self.spans[open];
            span.end_seq = self.seq;
            span.end_ns = at_ns;
        }
    }

    /// Attach a deterministic label to a span; `value` is written once,
    /// straight into the trace's text.
    pub fn label(&mut self, id: SpanId, key: &'static str, value: impl Display) {
        if let Some(span) = self.spans.get_mut(id) {
            self.arena.push_label(&mut span.attrs, key, &value);
        }
    }

    /// Attach a measured timing (milliseconds) to a span.
    pub fn timing(&mut self, id: SpanId, key: &'static str, ms: f64) {
        if let Some(span) = self.spans.get_mut(id) {
            self.arena.push(&mut span.attrs, key, Value::Number(ms));
        }
    }

    /// Record an event under the currently open span.
    pub fn event(&mut self, name: &'static str, labels: &[Label]) {
        self.push_event(name, labels, &[], false);
    }

    /// Record an event carrying measured timings.
    pub fn event_timed(
        &mut self,
        name: &'static str,
        labels: &[Label],
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
        labels: &[Label],
        timings: &[(&'static str, f64)],
    ) {
        self.push_event(name, labels, timings, true);
    }

    fn push_event(
        &mut self,
        name: &'static str,
        labels: &[Label],
        timings: &[(&'static str, f64)],
        volatile: bool,
    ) {
        if !self.capturing && self.at_capacity() {
            return;
        }
        let mut attrs = Chain::EMPTY;
        for (key, value) in labels {
            self.arena.push_label(&mut attrs, key, *value);
        }
        for (key, ms) in timings {
            self.arena.push(&mut attrs, key, Value::Number(*ms));
        }
        let at_ns = self.now_ns();
        self.push_record(EventRecord {
            span: None,
            name,
            seq: 0,
            at_ns,
            volatile,
            attrs,
            unmeasured: false,
        });
    }

    /// The one place an event enters the trace: under the currently open
    /// span at the next sequence number — or, while a capture is open,
    /// among the detached records, out of the trace. The caller has
    /// checked the capacity.
    fn push_record(&mut self, mut rec: EventRecord) {
        if self.capturing {
            self.detached.push(rec);
            return;
        }
        self.seq += 1;
        rec.span = self.stack.last().copied();
        rec.seq = self.seq;
        self.events.push(rec);
    }

    /// Open a capture: until [`Trace::capture_end`], events are recorded
    /// once, out of the trace, for [`Trace::replay`] to re-record for
    /// every consumer of the work. Captures do not nest, and a capture
    /// records no spans. Returns where the capture starts.
    pub fn capture_start(&mut self) -> u32 {
        debug_assert!(!self.capturing, "captures do not nest");
        self.capturing = true;
        self.detached.len() as u32
    }

    /// Close the capture opened at `start`: the events recorded since.
    pub fn capture_end(&mut self, start: u32) -> Captured {
        self.capturing = false;
        Captured { trace: self.id, start, end: self.detached.len() as u32 }
    }

    /// Re-record captured events under the currently open span, as if they
    /// fired now (fresh sequence numbers and timestamps), pointing at the
    /// labels and timings the capture wrote: a replay copies no text.
    ///
    /// `measured` replays every event as recorded. Otherwise only what
    /// the logical view shows is replayed: volatile events are left out
    /// and every timing reads zero — how a consumer of shared work
    /// records the work it did not do, so the logical trace cannot tell
    /// who computed and who reused.
    pub fn replay(&mut self, captured: &Captured, measured: bool) {
        if captured.trace != self.id {
            return;
        }
        for i in captured.start..captured.end {
            let rec = self.detached[i as usize];
            if rec.volatile && !measured {
                continue;
            }
            if !self.capturing && self.at_capacity() {
                continue;
            }
            let at_ns = self.now_ns();
            self.push_record(EventRecord { at_ns, unmeasured: rec.unmeasured || !measured, ..rec });
        }
    }

    /// Merge a finished sub-trace under the currently open span.
    ///
    /// Logical sequence numbers are renumbered to continue this trace's
    /// counter, span ids are re-based, timestamps are re-anchored, and
    /// the child's arenas are appended with every index moved by their
    /// offset. Absorbing children in a fixed order (candidate index
    /// order) makes the merged trace independent of how many threads
    /// produced them.
    pub fn absorb(&mut self, child: QueryTrace) {
        let parent = self.stack.last().copied();
        let base_id = self.spans.len();
        let base_seq = self.seq;
        // Re-anchor: nanoseconds between the two anchors (0 if the child
        // was somehow created first — monotonic clamping, never a panic).
        let offset_ns =
            child.anchor.saturating_duration_since(self.anchor).as_nanos() as u64;
        let base_attr = self.arena.append(child.arena);
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
            span.attrs = span.attrs.rebased(base_attr);
            self.spans.push(span);
        }
        for mut event in child.events {
            max_seq = max_seq.max(event.seq);
            event.span = match event.span {
                Some(s) => Some(s + base_id),
                None => parent,
            };
            event.seq += base_seq;
            event.at_ns += offset_ns;
            event.attrs = event.attrs.rebased(base_attr);
            self.events.push(event);
        }
        self.seq = base_seq + max_seq;
        self.dropped += child.dropped;
    }

    /// Close anything still open and freeze the trace. The records and
    /// arenas move into the [`QueryTrace`]; nothing is copied.
    pub fn finish(mut self) -> QueryTrace {
        if let Some(&root) = self.stack.first() {
            self.end(root);
        }
        QueryTrace {
            spans: self.spans,
            events: self.events,
            arena: self.arena,
            dropped: self.dropped,
            anchor: self.anchor,
        }
    }
}

/// A finished, immutable per-query trace.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    arena: Arena,
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
        QueryTrace {
            spans: Vec::new(),
            events: Vec::new(),
            arena: Arena::default(),
            dropped: 0,
            // chk:allow(wall-clock): placeholder anchor for the disabled-tracing sentinel
            anchor: Instant::now(),
        }
    }

    /// Whether the trace holds no spans and no events.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    /// All spans, in creation (logical) order.
    pub fn spans(&self) -> impl ExactSizeIterator<Item = Span<'_>> + '_ {
        self.spans.iter().map(|rec| Span { rec, arena: &self.arena })
    }

    /// All events, in creation (logical) order.
    pub fn events(&self) -> impl ExactSizeIterator<Item = Event<'_>> + '_ {
        self.events.iter().map(|rec| Event { rec, arena: &self.arena })
    }

    /// The span with this id.
    pub fn span(&self, id: SpanId) -> Option<Span<'_>> {
        self.spans.get(id).map(|rec| Span { rec, arena: &self.arena })
    }

    /// Root spans (no parent), in logical order.
    pub fn roots(&self) -> impl Iterator<Item = Span<'_>> {
        self.spans().filter(|s| s.parent.is_none())
    }

    /// Child spans of `id`, in logical order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = Span<'_>> {
        self.spans().filter(move |s| s.parent == Some(id))
    }

    /// All spans with this name, in logical order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = Span<'a>> {
        self.spans().filter(move |s| s.name == name)
    }

    /// First span with this name.
    pub fn span_named(&self, name: &str) -> Option<Span<'_>> {
        self.spans().find(|s| s.name == name)
    }

    /// All events with this name, in logical order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = Event<'a>> {
        self.events().filter(move |e| e.name == name)
    }

    /// Events attached to a span (not its descendants), in logical order.
    pub fn events_in(&self, id: SpanId) -> impl Iterator<Item = Event<'_>> {
        self.events().filter(move |e| e.span == Some(id))
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

    fn events(q: &QueryTrace) -> Vec<Event<'_>> {
        q.events().collect()
    }

    /// Every `seq` and `end_seq` of the trace, sorted.
    fn seqs(q: &QueryTrace) -> Vec<u64> {
        let mut seqs: Vec<u64> = q
            .spans()
            .flat_map(|s| [s.seq, s.end_seq])
            .chain(q.events().map(|e| e.seq))
            .collect();
        seqs.sort_unstable();
        seqs
    }

    #[test]
    fn spans_nest_and_number_logically() {
        let mut t = Trace::new();
        let a = t.start("outer");
        t.label(a, "k", "v");
        let b = t.start("inner");
        t.event("tick", &[("n", &1)]);
        t.end(b);
        t.label(a, "n", 7);
        t.end(a);
        let q = t.finish();
        assert_eq!(q.spans().len(), 2);
        assert_eq!(q.events().len(), 1);
        let outer = q.span_named("outer").unwrap();
        let inner = q.span_named("inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.seq, 1);
        assert_eq!(inner.seq, 2);
        assert_eq!(events(&q)[0].seq, 3);
        assert_eq!(inner.end_seq, 4);
        assert_eq!(outer.end_seq, 5);
        assert_eq!(events(&q)[0].span, Some(inner.id));
        assert_eq!(events(&q)[0].label("n"), Some("1"));
        assert!(q.is_descendant(inner.id, outer.id));
        assert!(!q.is_descendant(outer.id, inner.id));
        // labels added around a child's records stay the span's, in order
        assert_eq!(outer.labels().collect::<Vec<_>>(), [("k", "v"), ("n", "7")]);
    }

    #[test]
    fn end_closes_dangling_children() {
        let mut t = Trace::new();
        let a = t.start("a");
        let _b = t.start("b"); // never explicitly ended
        t.end(a);
        let q = t.finish();
        assert!(q.spans().all(|s| s.end_seq > 0), "{q:?}");
        // innermost first
        assert_eq!(q.span(1).unwrap().end_seq, 3);
        assert_eq!(q.span(0).unwrap().end_seq, 4);
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut t = Trace::new();
        t.start("open");
        let q = t.finish();
        let span = q.span(0).unwrap();
        assert!(span.end_seq > 0);
        assert!(span.end_ns >= span.start_ns);
    }

    #[test]
    fn explicit_clock_readings_set_durations() {
        let mut t = Trace::new();
        let a = t.start_at("a", 1_000);
        t.end_at(a, 2_501_000);
        let q = t.finish();
        assert_eq!(q.span(a).unwrap().duration_ms(), 2.5);
    }

    #[test]
    fn absorb_renumbers_deterministically() {
        // Build two children on "other threads" (order of construction
        // does not matter, only absorption order does).
        let build_child = |tag: &str| {
            let mut c = Trace::new();
            let s = c.start("candidate");
            c.label(s, "idx", tag);
            c.event("execute", &[("rows", &3)]);
            c.end(s);
            c.finish()
        };
        let c1 = build_child("1");
        let c0 = build_child("0");
        let mut parent = Trace::new();
        let refinement = parent.start("refinement");
        parent.label(refinement, "before", "x");
        parent.absorb(c0);
        parent.absorb(c1);
        parent.end(refinement);
        let q = parent.finish();
        let idxs: Vec<&str> =
            q.spans_named("candidate").map(|s| s.label("idx").unwrap()).collect();
        assert_eq!(idxs, ["0", "1"], "absorption order wins");
        assert_eq!(q.span(refinement).unwrap().label("before"), Some("x"));
        assert!(q.events_named("execute").all(|e| e.label("rows") == Some("3")));
        // contiguous, strictly increasing sequence numbers
        let seqs = seqs(&q);
        assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>(), "{seqs:?}");
        // children re-parented under the refinement span
        for c in q.spans_named("candidate") {
            assert_eq!(c.parent, Some(refinement));
        }
    }

    #[test]
    fn replay_re_records_captured_events_under_the_open_span() {
        let mut t = Trace::new();
        let start = t.capture_start();
        t.event_timed("align_hop", &[("hop", &"agent")], &[("ms", 0.4)]);
        t.event_volatile("exec", &[], &[("rows_scanned", 12.0)]);
        let work = t.capture_end(start);
        assert_eq!(t.seq, 0, "a capture takes no sequence numbers");

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
        assert_eq!(q.arena.text, "agent", "both replays point at the one label");
        let seqs = seqs(&q);
        assert_eq!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn a_capture_replays_on_its_own_trace_only() {
        let mut a = Trace::new();
        let start = a.capture_start();
        a.event("e", &[]);
        let work = a.capture_end(start);
        let mut b = Trace::new();
        b.replay(&work, true);
        b.replay(&Captured::default(), true);
        assert!(b.finish().is_empty());
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
        assert_eq!(q.spans().len() + q.events().len(), 3);
        assert_eq!(q.dropped, 1);
    }

    #[test]
    fn volatile_events_are_marked() {
        let mut t = Trace::new();
        t.event_volatile("plan", &[("outcome", &"hit")], &[("ms", 0.1)]);
        let q = t.finish();
        assert!(events(&q)[0].volatile);
        assert_eq!(events(&q)[0].timing("ms"), Some(0.1));
    }
}
