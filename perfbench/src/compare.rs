//! `benchmark compare a.json b.json`: one verdict per workload ×
//! end-to-end metric, by the rule the metrics guide gives — a change is
//! judged against the bound the benchmark fixed, and where the spread
//! between a side's own samples is wider than that bound the cell is
//! *unresolved*, not *unchanged*, unless every sample of one side beats
//! every sample of the other.

use crate::report::{Measured, Results};
use crate::spec::{self, Better, Workload};

/// What a cell says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the baseline by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The samples spread wider than the bound; nothing can be said.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against baseline `a` for one metric.
pub fn judge(a: &Measured, b: &Measured, better: Better, bound: f64) -> Verdict {
    // signed so that positive means `b` is worse
    let worse_by = |base: f64, new: f64| match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    let change = if a.value == 0.0 {
        0.0
    } else {
        worse_by(a.value, b.value) / a.value.abs()
    };
    let samples = |m: &Measured| {
        if m.samples.is_empty() {
            vec![m.value]
        } else {
            m.samples.clone()
        }
    };
    if a.spread().max(b.spread()) > bound {
        let (sa, sb) = (samples(a), samples(b));
        let all_pairs =
            |pred: fn(f64) -> bool| sa.iter().all(|x| sb.iter().all(|y| pred(worse_by(*x, *y))));
        return if all_pairs(|d| d < 0.0) {
            Verdict::Improved
        } else if all_pairs(|d| d > 0.0) && change > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// The verdict.
    pub verdict: Verdict,
    /// The printed row.
    pub line: String,
}

/// Compare every workload × end-to-end metric present in both files.
pub fn compare(a: &Results, b: &Results) -> Vec<Cell> {
    let mut cells = Vec::new();
    for workload in Workload::ALL {
        let (Some(ra), Some(rb)) = (a.run(workload), b.run(workload)) else {
            continue;
        };
        for e in spec::END_TO_END {
            let name = e.metric.name;
            let (Some(ma), Some(mb)) = (ra.end_to_end.get(name), rb.end_to_end.get(name)) else {
                continue;
            };
            let verdict = judge(ma, mb, e.metric.better, e.bound);
            let side = |m: &Measured| {
                let (q1, q3) = m.quartiles();
                format!("{:.4} [{:.4} .. {:.4}]", m.value, q1, q3)
            };
            let line = format!(
                "{:<17} {:<15} {:>34} -> {:<34} {:<5} bound {:.2}  {}",
                workload.name(),
                name,
                side(ma),
                side(mb),
                e.metric.unit,
                e.bound,
                verdict.as_str()
            );
            cells.push(Cell {
                workload: workload.name(),
                metric: name,
                verdict,
                line,
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(samples: &[f64]) -> Measured {
        Measured::over_rounds(samples.to_vec(), "ms")
    }

    #[test]
    fn tight_samples_are_judged_against_the_bound() {
        let base = m(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        assert_eq!(
            judge(
                &base,
                &m(&[103.0, 104.0, 102.0, 103.0, 103.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(
                &base,
                &m(&[120.0, 121.0, 119.0, 120.0, 120.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                &base,
                &m(&[80.0, 81.0, 79.0, 80.0, 80.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Improved
        );
        // for a higher-is-better metric the same numbers read the other way
        assert_eq!(
            judge(
                &base,
                &m(&[120.0, 121.0, 119.0, 120.0, 120.5]),
                Better::Higher,
                0.10
            ),
            Verdict::Improved
        );
        assert_eq!(
            judge(
                &base,
                &m(&[80.0, 81.0, 79.0, 80.0, 80.5]),
                Better::Higher,
                0.10
            ),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_samples_are_unresolved_unless_one_side_wins_every_pair() {
        let noisy = m(&[100.0, 140.0, 80.0, 120.0, 95.0]);
        assert!(noisy.spread() > 0.10);
        assert_eq!(
            judge(
                &noisy,
                &m(&[101.0, 139.0, 82.0, 118.0, 96.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &noisy,
                &m(&[50.0, 60.0, 70.0, 55.0, 65.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Improved
        );
        assert_eq!(
            judge(
                &noisy,
                &m(&[200.0, 260.0, 170.0, 255.0, 165.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Regressed
        );
    }

    #[test]
    fn single_readings_compare_by_value() {
        let a = Measured::single(200.0, "MiB");
        assert_eq!(
            judge(&a, &Measured::single(205.0, "MiB"), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&a, &Measured::single(230.0, "MiB"), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(judge(&a, &a, Better::Lower, 0.10), Verdict::Unchanged);
    }
}
