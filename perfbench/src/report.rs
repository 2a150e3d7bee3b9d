//! What a run reports, and the three shapes it is written in: the
//! `workload metric value unit` lines for people, the one-line JSON object
//! the benchmark driver reads, and `results.json` for `compare`.
//!
//! All JSON goes through `serde_json` and is parsed back before it is
//! written, so a malformed artifact fails the run instead of shipping.

use crate::spec::{self, Workload};
use crate::stats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// One metric's value with the samples behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    /// The reported value: the median of `samples`, unless it was built
    /// with [`Measured::beside`].
    pub value: f64,
    /// Unit, as in `spec`.
    pub unit: String,
    /// Per-round (or per-repetition) values; empty for one-shot readings.
    pub samples: Vec<f64>,
}

impl Measured {
    /// A one-shot reading.
    pub fn single(value: f64, unit: &str) -> Measured {
        Measured {
            value,
            unit: unit.to_owned(),
            samples: Vec::new(),
        }
    }

    /// The median over rounds of a per-round statistic.
    pub fn over_rounds(samples: Vec<f64>, unit: &str) -> Measured {
        Measured {
            value: stats::median(&samples),
            unit: unit.to_owned(),
            samples,
        }
    }

    /// A value estimated some other way than as the median of per-round
    /// readings (`rounds::RoundLog` does, for the timing metrics), with
    /// those readings kept beside it: they show how the run's rounds
    /// spread, and `compare` falls back on them when that is wide.
    pub fn beside(value: f64, samples: Vec<f64>, unit: &str) -> Measured {
        Measured {
            value,
            unit: unit.to_owned(),
            samples,
        }
    }

    /// First and third quartile of the samples (the value itself when
    /// there are fewer than two).
    pub fn quartiles(&self) -> (f64, f64) {
        if self.samples.len() < 2 {
            (self.value, self.value)
        } else {
            let (q1, _, q3) = stats::quartiles(&self.samples);
            (q1, q3)
        }
    }

    /// Quartile distance as a share of the value.
    pub fn spread(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        if self.value == 0.0 {
            0.0
        } else {
            (q3 - q1) / self.value.abs()
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this was a `--smoke` run.
    pub smoke: bool,
    /// Every output checked was right.
    pub correct: bool,
    /// Operations attempted across warm-up and measured rounds.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Measured rounds.
    pub rounds: u64,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, Measured>,
    /// Per-layer metrics by name; empty unless the run was traced.
    pub per_layer: BTreeMap<String, Measured>,
    /// Free-text notes printed with the metrics (tail percentile and
    /// sample count, round count).
    pub notes: Vec<String>,
}

impl RunReport {
    /// `workload metric value unit` lines, end-to-end first, each with the
    /// round-to-round quartile spread where there is one.
    pub fn metric_lines(&self) -> Vec<String> {
        let line = |name: &str, m: &Measured| {
            let spread = if m.samples.len() >= 2 {
                let median = stats::median(&m.samples);
                let beside = if median == m.value {
                    String::new()
                } else {
                    format!("wall-clock median {median:.6}, ")
                };
                format!(
                    "  ({beside}spread {:.3} over {} samples)",
                    m.spread(),
                    m.samples.len()
                )
            } else {
                String::new()
            };
            format!(
                "{} {} {} {}{}",
                self.workload, name, m.value, m.unit, spread
            )
        };
        let mut out = Vec::new();
        for e in spec::END_TO_END {
            if let Some(m) = self.end_to_end.get(e.metric.name) {
                out.push(line(e.metric.name, m));
            }
        }
        for l in spec::PER_LAYER {
            if let Some(m) = self.per_layer.get(l.name) {
                out.push(line(l.name, m));
            }
        }
        for note in &self.notes {
            out.push(format!("{} note: {note}", self.workload));
        }
        out
    }

    /// The single-line object the benchmark driver reads last on stdout:
    /// end-to-end metrics for an untraced run, per-layer for a traced one.
    pub fn driver_line(&self, traced: bool) -> Result<String, String> {
        let chosen = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<(String, serde_json::Value)> = chosen
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    serde_json::json!({ "value": m.value, "unit": m.unit.as_str() }),
                )
            })
            .collect();
        let object = serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics)
        });
        round_trip(&object)
    }
}

/// Serialise compactly and parse back, so what is written is known to be
/// JSON and to carry finite numbers (a NaN serialises as `null` and fails
/// the comparison).
fn round_trip<T: Serialize>(value: &T) -> Result<String, String> {
    let text = serde_json::to_string(value).map_err(|e| e.to_string())?;
    let back: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("emitted malformed JSON: {e}"))?;
    let original = serde_json::to_value(value).map_err(|e| e.to_string())?;
    if back != original {
        return Err("emitted JSON does not parse back to the same value".to_owned());
    }
    Ok(text)
}

/// Where and on what the numbers were measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// `rustc -V`.
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Environment {
    /// Probe the current host.
    pub fn probe() -> Environment {
        let unknown = || "unknown".to_owned();
        Environment {
            git_sha: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_owned()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        }
    }
}

/// A whole suite run: `results.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    /// Host and toolchain.
    pub env: Environment,
    /// One report per workload, in `Workload::ALL` order.
    pub runs: Vec<RunReport>,
}

impl Results {
    /// The report for one workload.
    pub fn run(&self, workload: Workload) -> Option<&RunReport> {
        self.runs.iter().find(|r| r.workload == workload.name())
    }

    /// Write as pretty JSON after a parse-back check.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        round_trip(self)?;
        let pretty = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, pretty + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Read a `results.json`.
    pub fn read(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// `BENCHMARK.json`, rendered from `spec` (`benchmark manifest` prints it).
pub fn manifest_json() -> Result<String, String> {
    use serde_json::{json, Value};
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| json!({ "name": w.name(), "why": w.why() }))
        .collect();
    let end_to_end: Vec<Value> = spec::END_TO_END
        .iter()
        .map(|e| {
            json!({
                "name": e.metric.name,
                "unit": e.metric.unit,
                "better": e.metric.better.as_str(),
                "bound": e.bound
            })
        })
        .collect();
    let per_layer: Vec<Value> = spec::PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str() }))
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
        "run",
    ];
    let manifest = json!({
        "command": command,
        "paths": ["perfbench"],
        "run_seconds": spec::RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer
    });
    round_trip(&manifest)?;
    serde_json::to_string_pretty(&manifest)
        .map(|s| s + "\n")
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert(
            "throughput_rps".to_owned(),
            Measured::over_rounds(vec![310.5, 300.25, 320.125], "1/s"),
        );
        end_to_end.insert("setup_s".to_owned(), Measured::single(2.0625, "s"));
        let mut per_layer = BTreeMap::new();
        per_layer.insert("core.answer_ms".to_owned(), Measured::single(4.5, "ms"));
        RunReport {
            workload: "cold_full".to_owned(),
            seed: 7,
            seconds: 10.0,
            smoke: false,
            correct: true,
            attempted: 1200,
            failed: 0,
            errors: vec!["a \"quoted\"\nerror".to_owned()],
            rounds: 3,
            end_to_end,
            per_layer,
            notes: vec!["p99 of 1200 samples".to_owned()],
        }
    }

    #[test]
    fn results_round_trip_through_json() {
        let results = Results {
            env: Environment {
                git_sha: "abc".into(),
                nproc: 2,
                kernel: "6.1".into(),
                rustc: "rustc 1.80".into(),
            },
            runs: vec![sample_report()],
        };
        let text = serde_json::to_string_pretty(&results).unwrap();
        let back: Results = serde_json::from_str(&text).unwrap();
        assert_eq!(back, results);
        assert_eq!(back.run(Workload::ColdFull).unwrap().seed, 7);
        assert!(back.run(Workload::WarmHits).is_none());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let report = sample_report();
        let untraced: serde_json::Value =
            serde_json::from_str(&report.driver_line(false).unwrap()).unwrap();
        let serde_json::Value::Object(fields) = &untraced else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let rps = untraced
            .get("metrics")
            .unwrap()
            .get("throughput_rps")
            .unwrap();
        assert_eq!(rps.get("value").unwrap().as_f64(), Some(310.5));
        assert_eq!(rps.get("unit").unwrap().as_str(), Some("1/s"));
        assert!(untraced
            .get("metrics")
            .unwrap()
            .get("core.answer_ms")
            .is_none());
        let traced: serde_json::Value =
            serde_json::from_str(&report.driver_line(true).unwrap()).unwrap();
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("core.answer_ms")
            .is_some());
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("throughput_rps")
            .is_none());
        assert!(!report.driver_line(false).unwrap().contains('\n'));
    }

    #[test]
    fn a_nan_metric_is_refused_not_written() {
        let mut report = sample_report();
        report
            .end_to_end
            .insert("latency_p50_ms".into(), Measured::single(f64::NAN, "ms"));
        assert!(report.driver_line(false).is_err());
    }

    #[test]
    fn measured_reports_median_and_quartiles() {
        let m = Measured::over_rounds(vec![1.0, 2.0, 3.0, 4.0, 100.0], "ms");
        assert_eq!(m.value, 3.0);
        assert_eq!(m.quartiles(), (1.5, 52.0));
        assert_eq!(Measured::single(5.0, "ms").quartiles(), (5.0, 5.0));
        assert_eq!(Measured::single(5.0, "ms").spread(), 0.0);
    }

    #[test]
    fn metric_lines_name_workload_metric_value_unit() {
        let lines = sample_report().metric_lines();
        assert!(
            lines[0].starts_with("cold_full throughput_rps 310.5 1/s"),
            "{}",
            lines[0]
        );
        assert!(lines
            .iter()
            .any(|l| l.starts_with("cold_full core.answer_ms 4.5 ms")));
        assert!(lines.last().unwrap().contains("p99 of 1200 samples"));
    }

    #[test]
    fn manifest_is_valid_and_within_limits() {
        let text = manifest_json().unwrap();
        assert!(text.len() < 64 * 1024);
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let serde_json::Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
