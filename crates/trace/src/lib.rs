//! # osql-trace — structured per-query tracing for OpenSearch-SQL
//!
//! A zero-dependency tracing and profiling substrate shared by every
//! layer of the workspace: `sqlkit` (plan-cache and execution events),
//! `opensearch-sql` (stage spans, per-candidate refinement spans,
//! alignment/correction/vote events), and `osql-runtime` (queue-wait
//! events, the flight recorder).
//!
//! Design points:
//!
//! - **Per-thread, lock-free recording.** A [`Trace`] is owned by one
//!   thread and recorded with plain vector pushes. Lower layers reach it
//!   through the thread-local [`active`] stack, so no signature in the
//!   hot path grows a tracer argument, and every instrumentation point
//!   costs one thread-local read when tracing is off.
//! - **No copies.** A label value is written once, by its `Display`, into
//!   the trace's one text arena; shared work is captured once and
//!   replayed by reference; finishing a trace moves its arenas.
//! - **Deterministic structure.** Every span and event carries a logical
//!   sequence number next to its monotonic timestamp. One thread records
//!   one query, so the *logical* trace (structure, names, deterministic
//!   labels — [`QueryTrace::render_logical`]) is identical run-to-run and
//!   at any worker count; timestamps ride along for profiling but never
//!   participate in comparisons.
//! - **Bounded retention.** A served request is kept once, as a
//!   [`RequestRecord`] in the [`FlightRecorder`]'s drop-oldest ring; its
//!   span tree rides along only when the request was slow or failed.
//!   The serve path never blocks on observability.
//! - **Exporters.** A timed text tree ([`QueryTrace::render_tree`]) and
//!   the logical view ([`QueryTrace::render_logical`]).
//! - **The JSON writer.** [`json`] is the one JSON string escaper and
//!   object/array writer of the workspace; the flight records here and
//!   every crate above build their JSON with it.
//!
//! ```
//! use osql_trace::active;
//!
//! active::push();
//! let stage = active::start("stage:extraction");
//! active::event("retrieve", &[("hits", &3)]);
//! active::end(stage);
//! let trace = active::pop().unwrap();
//! assert_eq!(trace.span_named("stage:extraction").unwrap().seq, 1);
//! println!("{}", trace.render_tree());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod active;
pub mod export;
pub mod flight;
pub mod json;
pub mod model;

pub use flight::{
    valid_trace_id, FlightConfig, FlightRecorder, RequestIdGen, RequestOutcome, RequestRecord,
};
pub use model::{
    Captured, Event, EventRecord, Label, QueryTrace, Span, SpanId, SpanRecord, Trace,
    DEFAULT_CAPACITY, NO_SPAN,
};
