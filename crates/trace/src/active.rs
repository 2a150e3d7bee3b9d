//! The thread-local active trace: how instrumentation points in lower
//! layers (sqlkit's plan cache) contribute to the query trace without
//! threading a handle through every signature.
//!
//! Each thread holds a *stack* of traces. The outermost owner of a query
//! ([`push`]) gets everything recorded on this thread until it [`pop`]s;
//! a nested owner pushes its own trace, records into it and pops it, to
//! hand it back for the parent to [`absorb`]. One shared piece of work
//! (refinement's align or gate) is recorded once by [`capture`], out of
//! the active trace, and [`replay`]ed for every candidate that uses it.
//!
//! Every free function here is a no-op when the stack is empty — one
//! thread-local read and a branch — which is what keeps always-on
//! instrumentation in the execution hot path effectively free when
//! nothing is tracing (measured by the `engine_trace` bench group).

use crate::model::{Captured, Label, QueryTrace, SpanId, Trace, NO_SPAN};
use std::cell::RefCell;
use std::fmt::Display;

thread_local! {
    static STACK: RefCell<Vec<Trace>> = const { RefCell::new(Vec::new()) };
}

fn with_top<R>(f: impl FnOnce(&mut Trace) -> R) -> Option<R> {
    STACK.with(|stack| stack.borrow_mut().last_mut().map(f))
}

/// Install a fresh trace on this thread; it receives every record until
/// the matching [`pop`].
pub fn push() {
    STACK.with(|stack| stack.borrow_mut().push(Trace::new()));
}

/// [`push`] with an explicit record cap: recording beyond `capacity`
/// drops records (bumping [`QueryTrace::dropped`]) instead of growing.
pub fn push_with_capacity(capacity: usize) {
    STACK.with(|stack| stack.borrow_mut().push(Trace::with_capacity(capacity)));
}

/// Finish and remove this thread's innermost trace.
pub fn pop() -> Option<QueryTrace> {
    STACK.with(|stack| stack.borrow_mut().pop()).map(Trace::finish)
}

/// Install a trace only if none is active. Returns whether this caller
/// became the owner (and must therefore [`pop`] later).
pub fn ensure() -> bool {
    let owner = STACK.with(|stack| stack.borrow().is_empty());
    if owner {
        push();
    }
    owner
}

/// Whether any trace is active on this thread.
pub fn is_active() -> bool {
    STACK.with(|stack| !stack.borrow().is_empty())
}

/// Open a span on the active trace ([`NO_SPAN`] when inactive).
pub fn start(name: &'static str) -> SpanId {
    with_top(|t| t.start(name)).unwrap_or(NO_SPAN)
}

/// Close a span opened by [`start`].
pub fn end(id: SpanId) {
    with_top(|t| t.end(id));
}

/// Attach a deterministic label to a span; `value` is written straight
/// into the trace's text.
pub fn label(id: SpanId, key: &'static str, value: impl Display) {
    with_top(|t| t.label(id, key, value));
}

/// Attach a measured timing (milliseconds) to a span.
pub fn timing(id: SpanId, key: &'static str, ms: f64) {
    with_top(|t| t.timing(id, key, ms));
}

/// Record an event on the active trace.
pub fn event(name: &'static str, labels: &[Label]) {
    with_top(|t| t.event(name, labels));
}

/// Record an event carrying measured timings.
pub fn event_timed(
    name: &'static str,
    labels: &[Label],
    timings: &[(&'static str, f64)],
) {
    with_top(|t| t.event_timed(name, labels, timings));
}

/// Record a volatile event (see [`Trace::event_volatile`]).
pub fn event_volatile(
    name: &'static str,
    labels: &[Label],
    timings: &[(&'static str, f64)],
) {
    with_top(|t| t.event_volatile(name, labels, timings));
}

/// Merge a finished sub-trace under the active trace's open span.
pub fn absorb(child: QueryTrace) {
    with_top(|t| t.absorb(child));
}

/// Run `work`, recording its events once, out of the active trace, for
/// [`replay`] to re-record (see [`Trace::capture_start`]). Captures nothing
/// when no trace is active.
pub fn capture<T>(work: impl FnOnce() -> T) -> (T, Captured) {
    let start = with_top(|t| t.capture_start());
    let out = work();
    let captured = start.and_then(|start| with_top(|t| t.capture_end(start)));
    (out, captured.unwrap_or_default())
}

/// Re-record captured events on the active trace, as measured or
/// logical-only with zero timings (see [`Trace::replay`]).
pub fn replay(captured: &Captured, measured: bool) {
    with_top(|t| t.replay(captured, measured));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_calls_are_noops() {
        assert!(!is_active());
        assert_eq!(start("ghost"), NO_SPAN);
        end(NO_SPAN);
        event("ghost", &[]);
        assert!(pop().is_none());
    }

    #[test]
    fn push_records_until_pop() {
        push();
        assert!(is_active());
        let s = start("work");
        event("step", &[("k", &"v")]);
        end(s);
        let q = pop().unwrap();
        assert!(!is_active());
        assert_eq!(q.spans().len(), 1);
        assert_eq!(q.events().len(), 1);
    }

    #[test]
    fn nested_traces_are_independent() {
        push();
        let outer = start("outer");
        push(); // nested owner
        let inner = start("inner");
        end(inner);
        let child = pop().unwrap();
        assert_eq!(child.spans().len(), 1);
        absorb(child);
        end(outer);
        let q = pop().unwrap();
        assert_eq!(q.spans().len(), 2);
        let inner = q.span_named("inner").unwrap();
        let outer = q.span_named("outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn ensure_reports_ownership() {
        assert!(ensure(), "first ensure owns");
        assert!(!ensure(), "second ensure does not");
        assert!(pop().is_some());
        assert!(!is_active());
    }

    #[test]
    fn threads_do_not_share_traces() {
        push();
        let handle = std::thread::spawn(|| {
            assert!(!is_active(), "fresh thread has no trace");
            push();
            start("other-thread");
            pop().unwrap().spans().len()
        });
        assert_eq!(handle.join().unwrap(), 1);
        event("main-thread", &[]);
        let q = pop().unwrap();
        assert_eq!(q.events().len(), 1);
        assert_eq!(q.spans().len(), 0);
    }

    #[test]
    fn captured_work_replays_onto_the_active_trace() {
        let ((), idle) = capture(|| event("ghost", &[]));
        push();
        replay(&idle, true);
        let s = start("candidate");
        let (n, work) = capture(|| {
            event("step", &[("n", &2)]);
            2
        });
        assert_eq!(n, 2);
        replay(&work, true);
        replay(&work, false);
        end(s);
        let q = pop().unwrap();
        let steps: Vec<_> = q.events_named("step").collect();
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|e| e.span == Some(s) && e.label("n") == Some("2")));
        assert_eq!(q.events().len(), 2, "the idle capture recorded nothing");
    }
}
