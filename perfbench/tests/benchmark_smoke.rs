//! `--smoke`: the whole harness on the tiny world — every workload, one
//! short round, the layer pass, and every correctness check — in seconds.

use osql_perfbench::report::Results;
use osql_perfbench::spec::{self, Workload};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Run the binary with its outputs under a directory private to one test,
/// so tests running side by side do not share report files.
fn benchmark(test: &str, args: &[&str]) -> (Output, PathBuf) {
    let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("spawn benchmark");
    (out, target.join("benchmark"))
}

fn last_line(out: &Output) -> serde_json::Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("benchmark printed nothing");
    serde_json::from_str(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

fn metric_names(line: &serde_json::Value) -> Vec<String> {
    match line.get("metrics") {
        Some(serde_json::Value::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

#[test]
fn smoke_suite_runs_every_workload_with_every_check_on() {
    let started = std::time::Instant::now();
    let (out, dir) = benchmark("suite", &["run", "--smoke", "--seed", "5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "suite failed: {stderr}");
    assert!(
        started.elapsed().as_secs() < 15,
        "smoke took {:?}",
        started.elapsed()
    );

    let results = Results::read(&dir.join("results.json")).expect("results.json parses");
    assert_eq!(results.runs.len(), Workload::ALL.len());
    assert!(results.env.nproc >= 1 && !results.env.rustc.is_empty());
    let value = |w: Workload, name: &str| {
        let run = results.run(w).unwrap();
        run.per_layer
            .get(name)
            .or_else(|| run.end_to_end.get(name))
            .unwrap()
            .value
    };
    for workload in Workload::ALL {
        let run = results.run(workload).expect("one report per workload");
        assert!(
            run.correct && run.failed == 0 && run.attempted > 0,
            "{:?}",
            run.errors
        );
        for e in spec::END_TO_END {
            let m = &run.end_to_end[e.metric.name];
            assert!(
                m.value > 0.0,
                "{} {} must never be 0",
                run.workload,
                e.metric.name
            );
            assert_eq!(m.unit, e.metric.unit);
        }
        // one command prints every named metric for every workload
        for l in spec::PER_LAYER {
            assert_eq!(
                run.per_layer[l.name].unit, l.unit,
                "{} {}",
                run.workload, l.name
            );
        }
        assert_eq!(value(workload, "server.shed_requests"), 0.0);
        assert_eq!(value(workload, "loadgen.failed_share"), 0.0);
        assert!(dir
            .join(format!("{}.spans.jsonl", workload.name()))
            .is_file());
    }

    // each workload exercises the mechanism it is named for and bypasses the others
    assert_eq!(
        value(Workload::ColdFull, "runtime.result_cache_hit_share"),
        0.0
    );
    assert!(value(Workload::WarmHits, "runtime.result_cache_hit_share") >= 0.999);
    assert_eq!(value(Workload::ColdFull, "runtime.asset_builds"), 0.0);
    assert_eq!(value(Workload::WarmHits, "runtime.asset_builds"), 0.0);
    // the tiny world has two databases and a budget for one
    assert!(value(Workload::PagedMix, "runtime.asset_builds") > 2.0);
    assert!(value(Workload::PagedMix, "runtime.db_evictions") > 0.0);
    assert!(value(Workload::ColdFull, "core.answer_ms") > 0.0);
    assert_eq!(value(Workload::WarmHits, "core.answer_ms"), 0.0);
    assert!(value(Workload::WarmHits, "runtime.submit_hit_us") > 0.0);
    assert!(value(Workload::ColdFull, "core.unattributed_share") < 0.10);
    assert!(value(Workload::IngestReplicate, "repl.apply_us_per_txn") > 0.0);
    assert!(value(Workload::IngestReplicate, "sqlkit.dml_us") > 0.0);
    assert_eq!(value(Workload::IngestReplicate, "ex_pct"), 100.0);
    assert_eq!(
        value(Workload::ColdFull, "ex_pct"),
        value(Workload::PagedMix, "ex_pct"),
        "eager and paged serving answer the same questions identically"
    );
}

#[test]
fn a_flipped_expected_sql_fails_the_run() {
    // cold_full serves every distinct question, so it must meet the flipped one
    let (out, _) = benchmark(
        "flipped",
        &[
            "run",
            "--workload",
            "cold_full",
            "--smoke",
            "--flip-expected",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "a failed check must exit 1");
    let line = last_line(&out);
    assert_eq!(line.get("correct"), Some(&serde_json::Value::Bool(false)));
    assert!(line.get("failed").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("FAILED CHECK") && stderr.contains("-- flipped"),
        "{stderr}"
    );
}

#[test]
fn the_last_line_carries_exactly_the_metrics_benchmark_json_names() {
    let manifest: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .unwrap(),
    )
    .unwrap();
    let named = |key: &str| -> Vec<String> {
        let Some(serde_json::Value::Array(items)) = manifest.get(key) else {
            panic!("{key}")
        };
        let mut names: Vec<String> = items
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        names.sort();
        names
    };
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (out, _) = benchmark(
            "driver",
            &[
                "run",
                "--workload",
                "ingest_replicate",
                "--smoke",
                "--seed",
                "9",
                "--seconds",
                "1",
                "--trace",
                trace,
            ],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = last_line(&out);
        let serde_json::Value::Object(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let mut got = metric_names(&line);
        got.sort();
        assert_eq!(got, named(key), "--trace {trace}");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["frobnicate"],
        &[],
    ] {
        let (out, _) = benchmark("args", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
