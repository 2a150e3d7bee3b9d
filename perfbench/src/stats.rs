//! Order statistics for latency samples and for round-to-round summaries.
//!
//! Two rules from the metrics guide are encoded here so every caller gets
//! them for free: a tail is reported at the highest percentile that still
//! has at least ten samples beyond it (with the sample count stated), and
//! a value read once per round is reported with the quartile spread over
//! rounds printed next to it. [`quiet`] is the estimate the timing metrics
//! are built from (see `rounds`).

/// Sort a sample ascending (latencies are never NaN; a NaN would be a bug
/// in the harness, so it panics rather than being silently ordered).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("sample contains NaN"));
    values
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending sample; 0.0
/// for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // the epsilon keeps an inexact product such as 99.9 × 10000 ÷ 100 from
    // being rounded up to the next rank
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile (`p` in 0..=100) of an ascending sample with linear
/// interpolation between ranks, so that it moves smoothly as the sample
/// grows; 0.0 for an empty one.
pub fn interpolated(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let at = last as f64 * p / 100.0;
    let below = at.floor() as usize;
    let above = (below + 1).min(last);
    sorted[below] + (sorted[above] - sorted[below]) * (at - below as f64)
}

/// Which percentile of its repeats [`quiet`] reads.
pub const QUIET_PERCENTILE: f64 = 10.0;

/// The quiet reading of one piece of work timed once per round: the 10th
/// percentile of its times. On a shared host a neighbour only ever makes
/// work slower, for seconds at a time, so the fast end of the repeats is
/// what the program costs and the rest is what the host added. A fixed
/// percentile rather than the minimum, so that the reading does not keep
/// falling as a faster program fits more rounds into the same run.
pub fn quiet(times: &[f64]) -> f64 {
    interpolated(&sorted(times.to_vec()), QUIET_PERCENTILE)
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even); 0.0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method) so the
/// spread printed here is the number the benchmark's driver will compute.
/// Fewer than two values have no spread: all three are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median (0.0 when the median
/// is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// A tail latency with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (50, 90, 99 or 99.9).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest of p50/p90/p99/p99.9 that leaves at least ten samples
/// beyond it. With fewer than 20 samples even the median does not qualify;
/// the median is reported anyway and the sample count says why not more.
pub fn highest_supported_tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    // per-mille integers: `n × (1 − 0.9)` in floating point is 9.999… at n = 100
    let supported = [(99.9, 999), (99.0, 990), (90.0, 900), (50.0, 500)]
        .into_iter()
        .find(|(_, per_mille)| n * (1000 - per_mille) >= 10 * 1000)
        .map_or(50.0, |(p, _)| p);
    Tail {
        percentile: supported,
        value: percentile(sorted, supported),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quiet_reads_the_fast_end_and_ignores_slow_repeats() {
        let s: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(interpolated(&s, 10.0), 1.0);
        assert_eq!(interpolated(&s, 25.0), 2.5);
        assert_eq!(interpolated(&s, 100.0), 10.0);
        assert_eq!(interpolated(&[], 10.0), 0.0);
        assert_eq!(interpolated(&[7.0], 10.0), 7.0);
        // eight repeats: three tenths of the fastest, seven of the next
        let repeats = [4.0, 90.0, 5.0, 6.0, 4.5, 70.0, 5.5, 6.5];
        assert!((quiet(&repeats) - 4.35).abs() < 1e-12);
        // however slow the slow half gets, the reading stays
        let worse = [4.0, 900.0, 5.0, 60.0, 4.5, 700.0, 55.0, 65.0];
        assert_eq!(quiet(&worse), quiet(&repeats));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_slow_round() {
        let rounds = [100.0, 101.0, 99.0, 100.5, 40.0];
        assert_eq!(median(&rounds), 100.0);
        assert!(spread(&rounds) > 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |len: usize| highest_supported_tail(&vec![1.0; len]);
        assert_eq!(n(10_000).percentile, 99.9);
        assert_eq!(n(9_999).percentile, 99.0);
        assert_eq!(n(1_000).percentile, 99.0);
        assert_eq!(n(999).percentile, 90.0);
        assert_eq!(n(100).percentile, 90.0);
        assert_eq!(n(99).percentile, 50.0);
        assert_eq!(n(20).percentile, 50.0);
        let tiny = n(5);
        assert_eq!((tiny.percentile, tiny.samples), (50.0, 5));
    }
}
