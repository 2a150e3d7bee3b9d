//! A small metrics registry: named atomic counters and fixed-bucket
//! histograms — optionally **labeled** (`name{key="value"}` series, one
//! instrument per distinct label set) — read through one
//! Prometheus-style text exposition.
//!
//! The shape is **instruments → snapshot → one writer**. Instruments are
//! lock-free on the hot path (one atomic add per counter increment, three
//! per histogram observation); the registry takes a lock only to create
//! or look up instruments by name + labels, so hot paths should hold the
//! returned `Arc`. Every reading of a histogram goes through the
//! plain-data [`HistogramSnapshot`], which owns the bucket math once (a
//! slot of the [`crate::window`] ring *is* one), and every Prometheus
//! line of the workspace — this registry, the windowed block, the SLO
//! gauges, the server's replication series — is written by
//! [`write_type`], [`write_sample`] and [`write_histogram`], so label
//! escaping, the `_bucket`/`_sum`/`_count` triplet and `+Inf` exist once.

use std::collections::BTreeMap;
use std::fmt::{self, Display, Write as _};
use osql_chk::atomic::{AtomicU64, Ordering};
use osql_chk::Mutex;
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the counter to `v` if it is currently lower; used to mirror
    /// an external monotonic counter (e.g. the sqlkit plan-cache stats)
    /// into the registry without double counting.
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Set the counter to an absolute value; for gauge-like mirrors of an
    /// externally tracked level (e.g. resident store bytes), which can go
    /// down as well as up.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket bounds in milliseconds.
pub const LATENCY_BOUNDS_MS: [f64; 12] =
    [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 10_000.0];

/// Bucket bounds for fractional metrics such as vote margins.
pub const FRACTION_BOUNDS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// Index of the bucket `value` lands in: the first bound at or above it,
/// else the overflow bucket (`bounds.len()`).
fn bucket_of(bounds: &[f64], value: f64) -> usize {
    bounds.iter().position(|b| value <= *b).unwrap_or(bounds.len())
}

/// `value` in integer milli-units (× 1000, rounded, clamped at zero), so
/// sums are exact and order-insensitive. Precision below 0.001 of
/// whatever the value's unit is rounds away.
fn to_milli(value: f64) -> u64 {
    (value.max(0.0) * 1000.0).round() as u64
}

/// A plain-data histogram over fixed upper-bound buckets (plus an
/// overflow bucket): what an atomic [`Histogram`] snapshots to and what a
/// window slot holds per tick. **The** bucket math of the workspace —
/// quantile walk, cumulative fold, compliance count, merge.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending.
    bounds: Arc<[f64]>,
    /// Non-cumulative count per bound, overflow bucket last.
    buckets: Vec<u64>,
    count: u64,
    sum_milli: u64,
}

impl HistogramSnapshot {
    /// An empty histogram over the given strictly ascending upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        HistogramSnapshot {
            bounds: bounds.into(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum_milli: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: f64) {
        self.buckets[bucket_of(&self.bounds, value)] += 1;
        self.count += 1;
        self.sum_milli += to_milli(value);
    }

    /// Add every observation of `other` (same bounds) to this histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        debug_assert_eq!(self.bounds, other.bounds, "merging histograms over different bounds");
        for (acc, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc += n;
        }
        self.count += other.count;
        self.sum_milli += other.sum_milli;
    }

    /// Forget every observation, keeping the bounds (and the allocation).
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum_milli = 0;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (in the value's own unit, quantised to 0.001).
    pub fn sum(&self) -> f64 {
        self.sum_milli as f64 / 1000.0
    }

    /// Upper bound of the bucket containing the q-quantile (q in 0..=1);
    /// 0 when empty. When the quantile falls in the overflow bucket the
    /// answer is **`f64::INFINITY`** — a saturated histogram reports an
    /// unbounded quantile rather than masquerading as the last finite
    /// bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        self.cumulative().find(|(_, seen)| *seen >= rank).map_or(f64::INFINITY, |(bound, _)| bound)
    }

    /// `(upper bound, cumulative count)` per bucket, the overflow bucket
    /// (`f64::INFINITY`) last — the Prometheus shape.
    pub fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let bounds = self.bounds.iter().copied().chain([f64::INFINITY]);
        bounds.zip(&self.buckets).scan(0u64, |seen, (bound, n)| {
            *seen += n;
            Some((bound, *seen))
        })
    }

    /// Observations at or under `bound`, matched to the nearest
    /// configured bucket bound at or above it (latency-SLO compliance).
    pub fn under(&self, bound: f64) -> u64 {
        self.buckets.iter().take(bucket_of(&self.bounds, bound) + 1).sum()
    }
}

/// A concurrently recordable histogram: the atomic form of a
/// [`HistogramSnapshot`]. Values are arbitrary `f64`s — latencies in
/// milliseconds for most instruments, vote fractions for `vote_margin`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Arc<[f64]>,
    /// One count per bound, plus the overflow bucket at the end.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_milli: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        let HistogramSnapshot { bounds, buckets, .. } = HistogramSnapshot::new(bounds);
        Histogram {
            bounds,
            buckets: buckets.into_iter().map(AtomicU64::new).collect(),
            count: AtomicU64::new(0),
            sum_milli: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, value: f64) {
        self.buckets[bucket_of(&self.bounds, value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_milli.fetch_add(to_milli(value), Ordering::Relaxed);
    }

    /// Copy the current values out; quantiles and the exposition are
    /// read off the copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum_milli: self.sum_milli.load(Ordering::Relaxed),
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values (see [`HistogramSnapshot::sum`]).
    pub fn sum(&self) -> f64 {
        self.sum_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }

}

// ---- the Prometheus text writer ------------------------------------------

/// A float as the exposition spells it: `decimals` places (or the
/// shortest round-trip form with `None`), and `+Inf` for the overflow
/// bound or an unbounded quantile.
#[derive(Debug, Clone, Copy)]
pub struct PromF64(pub f64, pub Option<usize>);

impl Display for PromF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PromF64(v, _) if v == f64::INFINITY => f.write_str("+Inf"),
            PromF64(v, Some(decimals)) => write!(f, "{v:.decimals$}"),
            PromF64(v, None) => write!(f, "{v}"),
        }
    }
}

/// Append `name + suffix{k="v",…}` (or just the name for no labels), with
/// an `le` label after the caller's when `le` is given. Label values are
/// escaped per the text format: `\`, `"` and newline.
fn push_series(out: &mut String, name: &str, suffix: &str, labels: &[(&str, &str)], le: Option<f64>) {
    out.push_str(name);
    out.push_str(suffix);
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some(bound) = le {
        let comma = if labels.is_empty() { "" } else { "," };
        let _ = write!(out, "{comma}le=\"{}\"", PromF64(bound, None));
    }
    out.push('}');
}

/// Write a `# TYPE name kind` comment line.
pub fn write_type(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Write one `name{labels} value` sample line — **the** sample writer.
pub fn write_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: impl Display) {
    push_series(out, name, "", labels, None);
    let _ = writeln!(out, " {value}");
}

/// Write one histogram series as the standard triplet: a cumulative
/// `_bucket` line per bound (`+Inf` last), `_sum` (spelled with
/// `sum_decimals`, see [`PromF64`]) and `_count`.
pub fn write_histogram(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    snapshot: &HistogramSnapshot,
    sum_decimals: Option<usize>,
) {
    for (bound, seen) in snapshot.cumulative() {
        push_series(out, name, "_bucket", labels, Some(bound));
        let _ = writeln!(out, " {seen}");
    }
    push_series(out, name, "_sum", labels, None);
    let _ = writeln!(out, " {}", PromF64(snapshot.sum(), sum_decimals));
    push_series(out, name, "_count", labels, None);
    let _ = writeln!(out, " {}", snapshot.count());
}

/// A label set, normalised (sorted by key) so `[("a","1"),("b","2")]` and
/// `[("b","2"),("a","1")]` resolve to the same series.
type Labels = Vec<(String, String)>;

fn normalize(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels =
        labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect();
    out.sort();
    out
}

fn borrowed(labels: &Labels) -> Vec<(&str, &str)> {
    labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect()
}

/// Named instruments, created on first use and shared by reference.
/// Instruments are keyed by `(name, labels)`: the unlabeled API is the
/// labeled one with an empty label set.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<(String, Labels), Arc<Counter>>>,
    histograms: Mutex<BTreeMap<(String, Labels), Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the unlabeled counter with this name.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get or create the counter series `name{labels}`. Label order does
    /// not matter; `(name, sorted labels)` identifies the series.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut map = self.counters.lock();
        map.entry((name.to_owned(), normalize(labels))).or_default().clone()
    }

    /// Get or create the unlabeled histogram with this name. The bounds
    /// apply only on creation; later calls with the same name reuse the
    /// existing instrument.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, &[], bounds)
    }

    /// Get or create the histogram series `name{labels}`.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        map.entry((name.to_owned(), normalize(labels)))
            .or_insert_with(|| Arc::new(Histogram::new(bounds)))
            .clone()
    }

    /// Get or create an unlabeled latency histogram with the default ms
    /// buckets.
    pub fn latency(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, &LATENCY_BOUNDS_MS)
    }

    /// Get or create a labeled latency histogram with the default ms
    /// buckets.
    pub fn latency_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram_with(name, labels, &LATENCY_BOUNDS_MS)
    }

    /// Every counter series registered under `name`, as
    /// `(labels, instrument)` pairs in label order.
    pub fn counter_series(&self, name: &str) -> Vec<(Labels, Arc<Counter>)> {
        let map = self.counters.lock();
        map.iter()
            .filter(|((n, _), _)| n == name)
            .map(|((_, labels), c)| (labels.clone(), c.clone()))
            .collect()
    }

    /// Render a Prometheus-style text exposition: one `# TYPE` comment per
    /// metric name, then one sample per counter series and one
    /// [`write_histogram`] triplet per histogram series.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.lock();
        let mut last_name = None::<&str>;
        for ((name, labels), c) in counters.iter() {
            if last_name != Some(name.as_str()) {
                write_type(&mut out, name, "counter");
                last_name = Some(name.as_str());
            }
            write_sample(&mut out, name, &borrowed(labels), c.get());
        }
        drop(counters);
        let histograms = self.histograms.lock();
        let mut last_name = None::<&str>;
        for ((name, labels), h) in histograms.iter() {
            if last_name != Some(name.as_str()) {
                write_type(&mut out, name, "histogram");
                last_name = Some(name.as_str());
            }
            write_histogram(&mut out, name, &borrowed(labels), &h.snapshot(), None);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = MetricsRegistry::new();
        reg.counter("hits").inc();
        reg.counter("hits").add(4);
        assert_eq!(reg.counter("hits").get(), 5);
        assert_eq!(reg.counter("other").get(), 0);
    }

    #[test]
    fn raise_to_is_monotonic() {
        let c = Counter::default();
        c.raise_to(7);
        assert_eq!(c.get(), 7);
        c.raise_to(3);
        assert_eq!(c.get(), 7, "never goes backwards");
        c.raise_to(12);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 0.9, 5.0, 50.0, 500.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 556.4).abs() < 0.01, "{}", h.sum());
        // two in le1, one each in le10/le100/overflow
        assert_eq!(h.snapshot().quantile(0.2), 1.0);
        assert_eq!(h.snapshot().quantile(0.5), 10.0);
        assert_eq!(h.snapshot().quantile(0.8), 100.0);
    }

    #[test]
    fn overflow_quantile_is_explicitly_infinite() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 0.9, 5.0, 50.0, 500.0] {
            h.record(v);
        }
        // the p100 falls in the overflow bucket: +Inf, not the last bound
        assert!(h.snapshot().quantile(1.0).is_infinite());
        // a fully saturated histogram cannot report a finite p95
        let sat = Histogram::new(&[1.0]);
        for _ in 0..10 {
            sat.record(99.0);
        }
        assert!(sat.snapshot().quantile(0.5).is_infinite());
        assert!(sat.snapshot().quantile(0.95).is_infinite());
    }

    #[test]
    fn snapshot_owns_the_bucket_math() {
        let mut h = HistogramSnapshot::new(&[10.0, 100.0, 1000.0]);
        for v in [1.0, 5.0, 50.0, 500.0] {
            h.record(v);
        }
        assert_eq!(h.under(100.0), 3);
        assert_eq!(h.under(99.0), 3, "matched to the next bound up");
        assert_eq!(h.under(5000.0), 4, "past the last bound: everything");
        let cum: Vec<_> = h.cumulative().collect();
        assert_eq!(cum, vec![(10.0, 2), (100.0, 3), (1000.0, 4), (f64::INFINITY, 4)]);
        // merge adds observation for observation; clear keeps the bounds
        let mut other = HistogramSnapshot::new(&[10.0, 100.0, 1000.0]);
        other.record(2000.0);
        other.merge(&h);
        assert_eq!(other.count(), 5);
        assert_eq!(other.quantile(1.0), f64::INFINITY);
        other.clear();
        assert_eq!(other, HistogramSnapshot::new(&[10.0, 100.0, 1000.0]));
        // the atomic instrument snapshots to the same thing
        let atomic = Histogram::new(&[10.0, 100.0, 1000.0]);
        for v in [1.0, 5.0, 50.0, 500.0] {
            atomic.record(v);
        }
        assert_eq!(atomic.snapshot(), h);
    }

    #[test]
    fn sum_is_kept_in_milli_units_of_the_value() {
        // doc/code agreement: the accumulator is value × 1000, rounded —
        // milli-units of whatever unit the value is in (ms → µs ticks).
        let h = Histogram::new(&[1.0]);
        h.record(1.5);
        assert_eq!(h.sum(), 1.5);
        h.record(0.0015); // 1.5 milli-units → rounds to 2
        assert_eq!(h.sum(), 1.502);
        h.record(0.0001); // 0.1 milli-units → rounds away entirely
        assert_eq!(h.sum(), 1.502);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new(&FRACTION_BOUNDS);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.snapshot().quantile(0.5), 0.0);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = reg.latency("lat");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                let reg = reg.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.record(3.0);
                        reg.counter("n").inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.sum(), 12_000.0);
        assert_eq!(reg.counter("n").get(), 4000);
    }

    #[test]
    fn render_lists_everything_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b_counter").add(2);
        reg.counter("a_counter").inc();
        reg.latency("wait").record(3.0);
        let text = reg.render_prometheus();
        let a = text.find("a_counter").unwrap();
        let b = text.find("b_counter").unwrap();
        assert!(a < b, "sorted by name: {text}");
        assert!(text.contains("wait_count 1"), "{text}");
        assert!(text.contains("wait_bucket{le=\"5\"} 1"), "{text}");
        assert!(text.contains("wait_bucket{le=\"2\"} 0"), "{text}");
        assert_eq!(MetricsRegistry::new().render_prometheus(), "");
    }

    #[test]
    fn labeled_series_are_distinct_and_order_insensitive() {
        let reg = MetricsRegistry::new();
        reg.counter_with("stage_total", &[("stage", "extraction")]).inc();
        reg.counter_with("stage_total", &[("stage", "refinement")]).add(2);
        // label order must not mint a new series
        reg.counter_with("multi", &[("a", "1"), ("b", "2")]).inc();
        reg.counter_with("multi", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.counter_with("stage_total", &[("stage", "extraction")]).get(), 1);
        assert_eq!(reg.counter_with("stage_total", &[("stage", "refinement")]).get(), 2);
        assert_eq!(reg.counter_with("multi", &[("a", "1"), ("b", "2")]).get(), 2);
        // the unlabeled series with the same name is yet another series
        assert_eq!(reg.counter("stage_total").get(), 0);
        let text = reg.render_prometheus();
        assert!(text.contains("stage_total{stage=\"extraction\"} 1"), "{text}");
        assert!(text.contains("stage_total{stage=\"refinement\"} 2"), "{text}");
        let series = reg.counter_series("stage_total");
        assert_eq!(series.len(), 3, "unlabeled + two labeled");
    }

    #[test]
    fn labeled_histograms_record_independently() {
        let reg = MetricsRegistry::new();
        reg.latency_with("stage_latency_ms", &[("stage", "extraction")]).record(3.0);
        reg.latency_with("stage_latency_ms", &[("stage", "refinement")]).record(30.0);
        reg.latency_with("stage_latency_ms", &[("stage", "refinement")]).record(40.0);
        let refinement = reg.latency_with("stage_latency_ms", &[("stage", "refinement")]);
        assert_eq!(refinement.count(), 2);
        assert_eq!(refinement.sum(), 70.0);
        let text = reg.render_prometheus();
        assert_eq!(text.matches("stage_latency_ms_count{").count(), 2, "two series: {text}");
        assert!(text.contains("stage_latency_ms_count{stage=\"extraction\"} 1"), "{text}");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.counter_with("requests_total", &[("code", "ok")]).add(3);
        reg.counter("plain").inc();
        let h = reg.histogram_with("lat_ms", &[("stage", "vote")], &[1.0, 10.0]);
        h.record(0.5);
        h.record(5.0);
        h.record(50.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("requests_total{code=\"ok\"} 3"), "{text}");
        assert!(text.contains("plain 1"), "{text}");
        assert!(text.contains("# TYPE lat_ms histogram"), "{text}");
        assert!(text.contains("lat_ms_bucket{stage=\"vote\",le=\"1\"} 1"), "{text}");
        assert!(text.contains("lat_ms_bucket{stage=\"vote\",le=\"10\"} 2"), "cumulative: {text}");
        assert!(text.contains("lat_ms_bucket{stage=\"vote\",le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_ms_sum{stage=\"vote\"} 55.5"), "{text}");
        assert!(text.contains("lat_ms_count{stage=\"vote\"} 3"), "{text}");
        // one TYPE line per name, not per series
        assert_eq!(text.matches("# TYPE requests_total").count(), 1);
        // label values are escaped — newline included, or one hostile
        // value would split a sample across two lines
        let esc = MetricsRegistry::new();
        esc.counter_with("c", &[("k", "a\"b")]).inc();
        esc.counter_with("c", &[("k", "x\ny\\")]).add(2);
        let text = esc.render_prometheus();
        assert!(text.contains("c{k=\"a\\\"b\"} 1"), "{text}");
        assert!(text.contains("c{k=\"x\\ny\\\\\"} 2"), "{text}");
        assert_eq!(text.lines().count(), 3, "a TYPE line and one line per series: {text}");
    }
}
