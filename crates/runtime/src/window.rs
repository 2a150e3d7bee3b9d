//! Sliding-window telemetry over **logical ticks**: one ring, two views.
//!
//! Cumulative counters answer "how many since boot"; operations needs
//! "how many in the last minute" and "was the p99 over target in the
//! last hour". A runtime keeps **one ring** of per-tick slots — a slot is
//! that tick's error and cache-hit counts plus a latency
//! [`HistogramSnapshot`] — indexed by a logical tick: an integer advanced
//! by the runtime's ticker thread in production and *manually* in tests.
//! Recording a request is one lock acquisition and one slot claim. What
//! is read back is a [`WindowView`], the merge of the slots in the
//! `width` ticks ending at `now`, and both reports are views: the
//! **windowed exposition** (`osql_window_*`) over the ring's full width,
//! the **SLO report** over [`SloConfig::short_window`] and
//! [`SloConfig::long_window`] (the ring is as wide as the longer one).
//! A rendering is a pure function of `(recorded values, tick)`, so it is
//! byte-identical across runs and worker counts.
//!
//! **No wall clock in this file** — `workspace-lint` enforces it (the
//! `wall-clock` policy covers this path). Time only enters as the tick
//! argument; callers who want real time advance the clock themselves.
//! Aggregations are order-insensitive (integer bucket counts and
//! milli-unit sums, see [`crate::metrics`]), which is what makes the
//! determinism guarantee hold under concurrency.
//!
//! The SLO evaluator implements the standard multi-window burn-rate
//! model: for an objective with error budget `1 - target`, the burn
//! rate over a window is `bad_fraction / (1 - target)` — burn 1.0 spends
//! the budget exactly at the sustainable rate, burn ≫ 1 pages. An
//! objective *breaches* when both its short and long windows burn above
//! the alert threshold, so one spike (short only) or a long-faded
//! incident (long only) does not page.

use crate::metrics::{
    write_histogram, write_sample, write_type, HistogramSnapshot, PromF64, LATENCY_BOUNDS_MS,
};
use osql_chk::atomic::{AtomicU64, Ordering};
use osql_chk::Mutex;
use osql_trace::json::ObjectWriter;
use std::sync::Arc;

/// The logical clock windowed instruments are sliced by: a plain atomic
/// tick counter. Production advances it from a ticker thread at a fixed
/// interval; tests advance it manually for exact, deterministic windows.
#[derive(Debug, Default)]
pub struct LogicalClock(AtomicU64);

impl LogicalClock {
    /// A clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Advance by one tick; returns the new tick.
    pub fn advance(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Tag of a slot no tick has claimed yet.
const VACANT: u64 = u64::MAX;

/// What the ring holds for a run of consecutive ticks, merged (a slot
/// holds this for one tick). Every request records a latency, so the
/// histogram's count *is* the request count.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowView {
    /// Error outcomes.
    pub errors: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Modelled pipeline latency per request, in milliseconds.
    pub latency: HistogramSnapshot,
}

impl WindowView {
    fn empty() -> Self {
        WindowView { errors: 0, cache_hits: 0, latency: HistogramSnapshot::new(&LATENCY_BOUNDS_MS) }
    }

    /// Requests observed.
    pub fn requests(&self) -> u64 {
        self.latency.count()
    }
}

/// One ring slot: the tick it belongs to and what was observed in it.
#[derive(Debug, Clone)]
struct Slot {
    tick: u64,
    seen: WindowView,
}

/// The ring: `slots[tick % len]`, each tagged with the tick it currently
/// holds and lazily reset when a newer tick claims it.
#[derive(Debug)]
struct Ring {
    slots: Vec<Slot>,
}

impl Ring {
    fn new(width: usize) -> Self {
        Ring { slots: vec![Slot { tick: VACANT, seen: WindowView::empty() }; width.max(1)] }
    }

    /// The slot for `tick`, reset first if it still holds an older tick.
    /// `None` when the slot already belongs to a newer tick: the writer
    /// raced far behind the clock and the window has moved past its
    /// sample, which is dropped rather than filed under the wrong tick.
    fn claim(&mut self, tick: u64) -> Option<&mut WindowView> {
        let idx = (tick % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.tick != tick {
            if slot.tick != VACANT && slot.tick > tick {
                return None;
            }
            slot.tick = tick;
            slot.seen.errors = 0;
            slot.seen.cache_hits = 0;
            slot.seen.latency.clear();
        }
        Some(&mut slot.seen)
    }

    /// Merge the slots of the `width` ticks ending at `now` (inclusive).
    fn view(&self, now: u64, width: u64) -> WindowView {
        let width = width.clamp(1, self.slots.len() as u64);
        let oldest = now.saturating_sub(width - 1);
        let mut view = WindowView::empty();
        for slot in &self.slots {
            if slot.tick != VACANT && slot.tick >= oldest && slot.tick <= now {
                view.errors += slot.seen.errors;
                view.cache_hits += slot.seen.cache_hits;
                view.latency.merge(&slot.seen.latency);
            }
        }
        view
    }
}

/// Service-level objectives for the serve path: an availability target
/// and a latency target, each evaluated over a short and a long window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Fraction of requests that must not fail (e.g. `0.999`).
    pub availability_target: f64,
    /// Latency bound in milliseconds for the latency objective.
    pub latency_target_ms: f64,
    /// Fraction of requests that must finish under
    /// [`Self::latency_target_ms`] (e.g. `0.99`).
    pub latency_fraction: f64,
    /// Short (fast-burn) window in ticks.
    pub short_window: u64,
    /// Long (slow-burn) window in ticks; also the ring retention.
    pub long_window: u64,
    /// Burn rate above which a window is considered burning (both
    /// windows burning ⇒ breach).
    pub alert_burn_rate: f64,
}

impl SloConfig {
    /// Ticks the ring must retain to evaluate both windows: the longer.
    fn retention(&self) -> u64 {
        self.long_window.max(self.short_window).max(1)
    }
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            availability_target: 0.999,
            latency_target_ms: 500.0,
            latency_fraction: 0.99,
            short_window: 12,
            long_window: 144,
            alert_burn_rate: 2.0,
        }
    }
}

/// One objective's evaluation over a single window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloWindow {
    /// Requests observed in the window.
    pub requests: u64,
    /// The objective's bad-event fraction in the window (errors/requests
    /// or over-target/requests); 0 when the window is empty.
    pub bad_fraction: f64,
    /// `bad_fraction / (1 - target)`; burn 1.0 spends the error budget
    /// exactly at the sustainable rate.
    pub burn_rate: f64,
}

/// The SLO evaluator's full output, rendered into `/debug/slo`, the
/// serve REPL's `\slo`, and the Prometheus exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The evaluated configuration.
    pub config: SloConfig,
    /// The tick the report was evaluated at.
    pub tick: u64,
    /// Availability objective, short window.
    pub availability_short: SloWindow,
    /// Availability objective, long window.
    pub availability_long: SloWindow,
    /// Latency objective, short window.
    pub latency_short: SloWindow,
    /// Latency objective, long window.
    pub latency_long: SloWindow,
    /// Availability breach: both windows burn above the alert rate.
    pub availability_breach: bool,
    /// Latency breach: both windows burn above the alert rate.
    pub latency_breach: bool,
}

impl SloReport {
    /// Render as a JSON object (for `/debug/slo`).
    pub fn to_json(&self) -> String {
        let window = |w: &SloWindow| {
            let mut obj = ObjectWriter::new();
            obj.u64_field("requests", w.requests)
                .f64_field_with("bad_fraction", w.bad_fraction, 6)
                .f64_field_with("burn_rate", w.burn_rate, 4);
            obj.finish()
        };
        let objective = |short: &SloWindow, long: &SloWindow, breach: bool| {
            let mut obj = ObjectWriter::new();
            obj.raw_field("short", &window(short))
                .raw_field("long", &window(long))
                .bool_field("breach", breach);
            obj.finish()
        };
        let mut obj = ObjectWriter::new();
        obj.u64_field("tick", self.tick)
            .f64_field_with("availability_target", self.config.availability_target, 4)
            .f64_field_with("latency_target_ms", self.config.latency_target_ms, 1)
            .f64_field_with("latency_fraction", self.config.latency_fraction, 4)
            .u64_field("short_window_ticks", self.config.short_window)
            .u64_field("long_window_ticks", self.config.long_window)
            .f64_field_with("alert_burn_rate", self.config.alert_burn_rate, 2)
            .raw_field(
                "availability",
                &objective(&self.availability_short, &self.availability_long, self.availability_breach),
            )
            .raw_field(
                "latency",
                &objective(&self.latency_short, &self.latency_long, self.latency_breach),
            );
        obj.finish()
    }

    /// Render as Prometheus gauge lines.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        write_type(&mut out, "osql_slo_burn_rate", "gauge");
        for (objective, window, w) in [
            ("availability", "short", &self.availability_short),
            ("availability", "long", &self.availability_long),
            ("latency", "short", &self.latency_short),
            ("latency", "long", &self.latency_long),
        ] {
            let labels = [("objective", objective), ("window", window)];
            write_sample(&mut out, "osql_slo_burn_rate", &labels, PromF64(w.burn_rate, Some(4)));
        }
        write_type(&mut out, "osql_slo_breach", "gauge");
        for (objective, breach) in
            [("availability", self.availability_breach), ("latency", self.latency_breach)]
        {
            write_sample(&mut out, "osql_slo_breach", &[("objective", objective)], u8::from(breach));
        }
        out
    }
}

/// The windowed telemetry one runtime owns: the ring, the clock it is
/// sliced by, and the SLO configuration its width comes from. Series
/// names are fixed (`osql_window_*`, `osql_slo_*`) so renderings are
/// byte-comparable.
#[derive(Debug)]
pub struct WindowedMetrics {
    clock: Arc<LogicalClock>,
    slo: SloConfig,
    ring: Mutex<Ring>,
}

impl WindowedMetrics {
    /// A ring over `clock`, as wide as the longer SLO window.
    pub fn new(clock: Arc<LogicalClock>, slo: SloConfig) -> Self {
        let ring = Mutex::new(Ring::new(slo.retention() as usize));
        WindowedMetrics { clock, slo, ring }
    }

    /// The clock the ring is sliced by.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    /// Record one completed request at the current tick. `latency_ms`
    /// must be deterministic (modelled cost, not wall clock) for the
    /// byte-identical rendering guarantee; `ok` is false for errors.
    pub fn observe(&self, latency_ms: f64, ok: bool, from_cache: bool) {
        self.observe_at(self.clock.now(), latency_ms, ok, from_cache);
    }

    /// [`Self::observe`] at a tick read earlier: one lock acquisition; a
    /// tick the ring has already moved past is dropped.
    pub fn observe_at(&self, tick: u64, latency_ms: f64, ok: bool, from_cache: bool) {
        let mut ring = self.ring.lock();
        if let Some(seen) = ring.claim(tick) {
            seen.errors += u64::from(!ok);
            seen.cache_hits += u64::from(from_cache);
            seen.latency.record(latency_ms);
        }
    }

    /// What was observed in the `width` (clamped to the ring) ticks up to `now`.
    pub fn view(&self, now: u64, width: u64) -> WindowView {
        self.ring.lock().view(now, width)
    }

    /// Evaluate both SLO objectives over both windows at the current tick.
    pub fn slo_report(&self) -> SloReport {
        let now = self.clock.now();
        let eval = |width: u64| {
            let view = self.view(now, width);
            let requests = view.requests();
            let fraction =
                |bad: u64| if requests == 0 { 0.0 } else { bad as f64 / requests as f64 };
            let avail_bad = fraction(view.errors);
            let lat_bad = fraction(requests - view.latency.under(self.slo.latency_target_ms));
            // each objective's budget is its tolerated bad fraction
            let avail_budget = (1.0 - self.slo.availability_target).max(1e-9);
            let lat_budget = (1.0 - self.slo.latency_fraction).max(1e-9);
            (
                SloWindow { requests, bad_fraction: avail_bad, burn_rate: avail_bad / avail_budget },
                SloWindow { requests, bad_fraction: lat_bad, burn_rate: lat_bad / lat_budget },
            )
        };
        let (avail_s, lat_s) = eval(self.slo.short_window);
        let (avail_l, lat_l) = eval(self.slo.long_window);
        let alert = self.slo.alert_burn_rate;
        SloReport {
            config: self.slo.clone(),
            tick: now,
            availability_breach: avail_s.burn_rate >= alert && avail_l.burn_rate >= alert,
            latency_breach: lat_s.burn_rate >= alert && lat_l.burn_rate >= alert,
            availability_short: avail_s,
            availability_long: avail_l,
            latency_short: lat_s,
            latency_long: lat_l,
        }
    }

    /// Render the full-width view (and the SLO report) as Prometheus text
    /// at the current tick; deterministic given the recorded stream.
    pub fn render_prometheus(&self) -> String {
        let now = self.clock.now();
        let width = self.slo.retention();
        let view = self.view(now, width);
        let window = width.to_string();
        let labels = [("window", window.as_str())];
        let ticks = width.min(now + 1) as f64;
        let mut out = String::new();
        write_type(&mut out, "osql_window_requests_total", "gauge");
        for (name, rate_name, total) in [
            ("osql_window_requests_total", "osql_window_requests_total_rate", view.requests()),
            ("osql_window_errors_total", "osql_window_errors_total_rate", view.errors),
            ("osql_window_cache_hits_total", "osql_window_cache_hits_total_rate", view.cache_hits),
        ] {
            write_sample(&mut out, name, &labels, total);
            write_sample(&mut out, rate_name, &labels, PromF64(total as f64 / ticks, Some(4)));
        }
        write_type(&mut out, "osql_window_latency_ms", "histogram");
        write_histogram(&mut out, "osql_window_latency_ms", &labels, &view.latency, Some(3));
        write_type(&mut out, "osql_window_latency_ms_quantile", "gauge");
        for (q, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            write_sample(
                &mut out,
                "osql_window_latency_ms_quantile",
                &[labels[0], ("quantile", tag)],
                PromF64(view.latency.quantile(q), Some(3)),
            );
        }
        out.push_str(&self.slo_report().render_prometheus());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(short_window: u64, long_window: u64) -> (Arc<LogicalClock>, WindowedMetrics) {
        let clock = Arc::new(LogicalClock::new());
        let slo = SloConfig {
            availability_target: 0.9,
            latency_target_ms: 100.0,
            latency_fraction: 0.5,
            short_window,
            long_window,
            alert_burn_rate: 2.0,
        };
        (clock.clone(), WindowedMetrics::new(clock, slo))
    }

    #[test]
    fn clock_advances() {
        let c = LogicalClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(), 1);
        assert_eq!(c.now(), 1);
    }

    #[test]
    fn ring_slides() {
        let (_, w) = ring(1, 3);
        for _ in 0..5 {
            w.observe_at(0, 1.0, false, true);
        }
        w.observe_at(1, 1.0, true, false);
        w.observe_at(2, 1.0, true, false);
        assert_eq!(w.view(2, 3).requests(), 7);
        assert_eq!((w.view(2, 3).errors, w.view(2, 3).cache_hits), (5, 5));
        // tick 3 evicts tick 0's slot from the 3-wide window
        w.observe_at(3, 2000.0, true, false);
        assert_eq!(w.view(3, 3).requests(), 3);
        assert_eq!(w.view(3, 3).errors, 0);
        assert_eq!(w.view(3, 1).requests(), 1);
        assert_eq!(w.view(3, 99).requests(), 3, "width is clamped to the ring");
        assert_eq!(w.view(3, 1).latency.quantile(0.5), 2500.0);
    }

    #[test]
    fn stale_slot_is_reset_on_reuse() {
        let (_, w) = ring(1, 2);
        for _ in 0..10 {
            w.observe_at(0, 1.0, false, true);
        }
        // tick 2 maps onto tick 0's slot and must not inherit its counts
        w.observe_at(2, 1.0, true, false);
        let view = w.view(2, 2);
        assert_eq!((view.requests(), view.errors, view.cache_hits), (1, 0, 0));
        // a write for an evicted tick is dropped, not misfiled
        w.observe_at(0, 1.0, false, true);
        assert_eq!(w.view(2, 2), view);
    }

    #[test]
    fn slo_burn_rates_and_breach() {
        let (clock, w) = ring(2, 4);
        // 4 requests at tick 0: 2 errors (bad 0.5, budget 0.1 ⇒ burn 5),
        // all slow (bad 1.0, budget 0.5 ⇒ burn 2)
        for i in 0..4 {
            w.observe(500.0, i >= 2, false);
        }
        let r = w.slo_report();
        assert!((r.availability_short.burn_rate - 5.0).abs() < 1e-6);
        assert!(r.availability_breach);
        assert!((r.latency_short.burn_rate - 2.0).abs() < 1e-6);
        assert!(r.latency_breach);
        let json = r.to_json();
        assert!(json.contains("\"availability\""));
        assert!(json.contains("\"burn_rate\":5.0000"));
        // empty windows burn nothing
        for _ in 0..10 {
            clock.advance();
        }
        let r2 = w.slo_report();
        assert_eq!(r2.availability_short.burn_rate, 0.0);
        assert!(!r2.availability_breach);
    }

    #[test]
    fn windowed_render_is_deterministic_across_recording_order() {
        let render = |values: &[(u64, f64, bool, bool)]| {
            let clock = Arc::new(LogicalClock::new());
            let slo = SloConfig { short_window: 2, long_window: 8, ..SloConfig::default() };
            let w = WindowedMetrics::new(clock.clone(), slo);
            for &(tick, ms, ok, cache) in values {
                while clock.now() < tick {
                    clock.advance();
                }
                w.observe(ms, ok, cache);
            }
            while clock.now() < 3 {
                clock.advance();
            }
            w.render_prometheus()
        };
        let a = render(&[(0, 5.0, true, false), (0, 700.0, false, true), (1, 42.0, true, false)]);
        let b = render(&[(0, 700.0, false, true), (0, 5.0, true, false), (1, 42.0, true, false)]);
        assert_eq!(a, b, "recording order within a tick must not change the rendering");
        assert!(a.contains("osql_window_requests_total{window=\"8\"} 3"));
        assert!(a.contains("osql_slo_burn_rate"));
    }
}
