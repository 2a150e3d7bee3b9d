//! `benchmark` — command line of the repo's benchmark.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark compare <a.json> <b.json>
//! benchmark selfcheck [--seed N] [--seconds S] [--smoke]
//! benchmark manifest
//! ```
//!
//! `run --workload W` measures one workload in this process and ends its
//! standard output with the one-line JSON object the benchmark driver
//! reads. `run` without `--workload` is the whole suite: one child process
//! per workload (so set-up time, peak memory and the process-wide plan
//! cache are per workload), every metric printed, `results.json` written.

use osql_perfbench::compare::{self, Verdict};
use osql_perfbench::report::{Environment, Results, RunReport};
use osql_perfbench::spec::{self, Workload};
use osql_perfbench::world::{output_dir, AnswerKey, Scale, World};
use osql_perfbench::RunOptions;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
                     \x20      benchmark compare <a.json> <b.json>\n\
                     \x20      benchmark selfcheck [--seed N] [--seconds S] [--smoke]\n\
                     \x20      benchmark manifest";

/// Parsed `run` / `selfcheck` flags.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    flip_expected: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        flip_expected: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                flags.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                flags.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                flags.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(flags.seconds > 0.0 && flags.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                flags.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => flags.smoke = true,
            // self-test for the checks themselves: the run must then fail
            "--flip-expected" => flags.flip_expected = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(flags)
}

fn report_path(workload: Workload) -> PathBuf {
    output_dir().join(format!("{}.report.json", workload.name()))
}

/// Measure one workload here; the last stdout line is the driver's object.
fn run_one(flags: &Flags, workload: Workload) -> Result<bool, String> {
    let opts = RunOptions {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace.unwrap_or(false),
        scale: if flags.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        },
        flip_expected: flags.flip_expected,
    };
    let report = osql_perfbench::run(&opts)?;
    for line in report.metric_lines() {
        println!("{line}");
    }
    for error in &report.errors {
        eprintln!("{} FAILED CHECK: {error}", report.workload);
    }
    // for the suite parent; parsed back before it is trusted
    let path = report_path(workload);
    let text = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    serde_json::from_str::<RunReport>(&text)
        .map_err(|e| format!("report does not parse back: {e}"))?;
    std::fs::create_dir_all(output_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report.driver_line(opts.trace)?);
    Ok(report.correct)
}

/// Run every workload, each in a child process, and gather the reports.
fn run_suite(flags: &Flags, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", workload.name()])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .args([
                "--trace",
                if flags.trace.unwrap_or(true) {
                    "1"
                } else {
                    "0"
                },
            ]);
        if flags.smoke {
            cmd.arg("--smoke");
        }
        if flags.flip_expected {
            cmd.arg("--flip-expected");
        }
        let _ = std::fs::remove_file(report_path(workload));
        // `status` waits for the child, so none outlives the suite
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        match std::fs::read_to_string(report_path(workload)) {
            Ok(text) => {
                let report: RunReport = serde_json::from_str(&text)
                    .map_err(|e| format!("{} report: {e}", workload.name()))?;
                all_correct &= report.correct && status.success();
                runs.push(report);
            }
            Err(_) => {
                eprintln!("{} produced no report ({status})", workload.name());
                all_correct = false;
            }
        }
    }
    let results = Results {
        env: Environment::probe(),
        runs,
    };
    results.write(out)?;
    eprintln!("wrote {}", out.display());
    Ok(all_correct)
}

fn print_comparison(a: &Results, b: &Results) -> Vec<compare::Cell> {
    let cells = compare::compare(a, b);
    for cell in &cells {
        println!("{}", cell.line);
    }
    cells
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => {
            let flags = parse_flags(rest)?;
            match flags.workload {
                Some(workload) => run_one(&flags, workload),
                None => run_suite(&flags, &output_dir().join("results.json")),
            }
        }
        "compare" => {
            let [a, b] = rest else {
                return Err(USAGE.to_owned());
            };
            let (a, b) = (Results::read(Path::new(a))?, Results::read(Path::new(b))?);
            println!(
                "baseline {} ({})  vs  {} ({})",
                a.env.git_sha, a.env.rustc, b.env.git_sha, b.env.rustc
            );
            let cells = print_comparison(&a, &b);
            Ok(cells.iter().all(|c| c.verdict != Verdict::Regressed))
        }
        "selfcheck" => {
            // the same code measured twice must agree with itself
            let mut flags = parse_flags(rest)?;
            flags.trace = Some(false);
            let (first, second) = (
                output_dir().join("selfcheck-1.json"),
                output_dir().join("selfcheck-2.json"),
            );
            let ok = run_suite(&flags, &first)? & run_suite(&flags, &second)?;
            let cells = print_comparison(&Results::read(&first)?, &Results::read(&second)?);
            let disagreeing: Vec<&compare::Cell> = cells
                .iter()
                .filter(|c| c.verdict != Verdict::Unchanged)
                .collect();
            for cell in &disagreeing {
                eprintln!(
                    "selfcheck: {} {} is {}",
                    cell.workload,
                    cell.metric,
                    cell.verdict.as_str()
                );
            }
            Ok(ok && disagreeing.is_empty())
        }
        // the child half of `AnswerKey::from_child`
        "answer-key" => {
            let [out_flag, out, smoke @ ..] = rest else {
                return Err(USAGE.to_owned());
            };
            if out_flag != "--out" {
                return Err(USAGE.to_owned());
            }
            let scale = if smoke.iter().any(|a| a == "--smoke") {
                Scale::Smoke
            } else {
                Scale::Full
            };
            let world = World::generate(scale);
            AnswerKey::compute(&world, 2).write(Path::new(out))?;
            Ok(true)
        }
        "manifest" => {
            print!("{}", osql_perfbench::report::manifest_json()?);
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a correctness check or comparison failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
