//! `opensearch-sql` — the pipeline as a command-line tool.
//!
//! ```sh
//! # interactive REPL (default)
//! cargo run --release -p osql-cli -- --profile tiny
//! # serve the whole dev split through the worker-pool runtime
//! cargo run --release -p osql-cli -- batch --profile tiny --workers 4
//! # line-oriented serving: db_id|question[|evidence] per line
//! cargo run --release -p osql-cli -- serve --workers 2
//! # the HTTP API, which is also how a live process is inspected
//! cargo run --release -p osql-cli -- serve --http 127.0.0.1:8080
//! ```
//!
//! The REPL answers one question at a time in-process; `batch` and
//! `serve` route requests through `osql-runtime`'s bounded queue, worker
//! pool, and two-level cache, and end by printing the metrics registry's
//! Prometheus exposition. A live process is read over HTTP only:
//! `/metrics`, `/debug/{requests,slow,slo,trace/<id>}` and `/v1/catalog`
//! (see `osql-server`). `lint` analyzes one SQL string against a world
//! database and prints the static analyzer's caret-annotated findings;
//! `explain` renders the physical plan the cost-based planner chose for
//! one statement, with estimated vs actual per-operator row counts.
//!
//! An unknown mode, an unknown flag, or a missing or unparsable value
//! prints the usage text to stderr and exits 2.

mod repl;
mod repl_cmd;
mod serve;
mod store_cmd;

use repl::{Repl, ReplOutcome};
use serve::ServeOptions;
use std::io::{BufRead, Write};
use std::path::PathBuf;

const USAGE: &str = "usage: opensearch-sql [batch|serve] [--profile tiny|mini|bird|spider] \
                     [--scale f] [--workers n] [--queue n] [--limit n] [--rounds n]\n\
       opensearch-sql serve --store <dir> [--budget bytes] # demand-page databases off disk\n\
       opensearch-sql serve --http <addr> [--shards n]     # HTTP/1.1 API (POST /v1/query, GET /metrics /debug/*)\n\
       opensearch-sql serve [--slow-ms f] [--slow-log p]   # slow requests also append JSONL to p\n\
       opensearch-sql lint <db_id> <sql> [--profile ...]   # static-analyze one SQL string\n\
       opensearch-sql explain <db_id> <sql> [--profile ...] # render the physical query plan\n\
       opensearch-sql pack <out_dir> [--profile ...]       # export every database as a .store file\n\
       opensearch-sql catalog <dir>                        # list a directory of .store files\n\
       opensearch-sql fsck <file.store>                    # audit a store + WAL; non-zero on corruption\n\
       opensearch-sql repl ship <store_dir> <ship_root>    # publish committed WAL suffixes as segments\n\
       opensearch-sql repl follow <ship_root> <store_dir>  # catch follower stores up to the shipped stream\n\
       opensearch-sql repl promote <store_dir>             # make follower stores writable primaries\n\
       opensearch-sql serve --http <addr> --store <dir> --follow <ship_root> [--poll-ms n]\n\
                                                           # serve as a read-only follower with bounded-staleness reads";

/// The modes a first word names. A command line that starts with a flag,
/// or is empty, runs the interactive REPL.
const MODES: [&str; 8] = ["batch", "serve", "lint", "explain", "pack", "catalog", "fsck", "repl"];

/// A parsed command line: the mode (`"interactive"` for the REPL,
/// `"help"` for `--help`), the options, and the positional arguments.
type Parsed = (&'static str, ServeOptions, Vec<String>);

/// Parse the arguments after the program name. An unknown mode, an
/// unknown flag, or a missing or unparsable flag value is an error.
fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let (mode, rest) = match args.first() {
        Some(word) if !word.starts_with('-') => {
            let mode = MODES.iter().find(|m| *m == word);
            (*mode.ok_or_else(|| format!("unknown mode: {word}"))?, &args[1..])
        }
        _ => ("interactive", args),
    };
    let mut opts = ServeOptions::default();
    let mut positionals = Vec::new();
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let flag = arg.as_str();
        match flag {
            "--help" | "-h" => return Ok(("help", opts, positionals)),
            "--profile" => opts.profile = value(flag, rest.next())?,
            "--scale" => opts.scale = value(flag, rest.next())?,
            "--workers" => opts.workers = value(flag, rest.next())?,
            "--queue" => opts.queue = value(flag, rest.next())?,
            "--limit" => opts.limit = value(flag, rest.next())?,
            "--rounds" => opts.rounds = value(flag, rest.next())?,
            "--store" => opts.store = Some(value(flag, rest.next())?),
            "--budget" => opts.budget = value(flag, rest.next())?,
            "--http" => opts.http = Some(value(flag, rest.next())?),
            "--shards" => opts.shards = value(flag, rest.next())?,
            "--slow-ms" => opts.slow_ms = value(flag, rest.next())?,
            "--slow-log" => opts.slow_log = Some(value(flag, rest.next())?),
            "--follow" => opts.follow = Some(value(flag, rest.next())?),
            "--poll-ms" => opts.poll_ms = value(flag, rest.next())?,
            _ if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            _ => positionals.push(arg.clone()),
        }
    }
    Ok((mode, opts, positionals))
}

/// The value that follows `flag`, parsed.
fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

/// Print `error` and the usage text to stderr, then exit 2.
fn usage_exit(error: &str) -> ! {
    eprintln!("{error}\n{USAGE}");
    std::process::exit(2)
}

/// Print a finished offline command's report and exit 1 if it failed;
/// print its error and exit 1 if it could not run.
fn finish(outcome: Result<(String, bool), String>) -> ! {
    match outcome {
        Ok((report, failed)) => {
            print!("{report}");
            std::process::exit(i32::from(failed))
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1)
        }
    }
}

/// Print `prompt`, read one stdin line, and hand it to `handle` until EOF
/// or until `handle` returns false.
fn prompt_loop(prompt: &str, mut handle: impl FnMut(&str) -> bool) {
    let stdin = std::io::stdin();
    loop {
        print!("{prompt}");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if !matches!(stdin.lock().read_line(&mut line), Ok(n) if n > 0) || !handle(&line) {
            break;
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, opts, positionals) = parse_args(&args).unwrap_or_else(|e| usage_exit(&e));
    let path = |i: usize| positionals.get(i).map(PathBuf::from);
    let building = || eprintln!("building {} world (scale {}) ...", opts.profile, opts.scale);

    match mode {
        "help" => println!("{USAGE}"),
        "pack" => {
            let out_dir = path(0).unwrap_or_else(|| usage_exit("pack needs <out_dir>"));
            building();
            finish(store_cmd::run_pack(&opts, &out_dir).map(|report| (report, false)))
        }
        "catalog" => {
            let dir = path(0).unwrap_or_else(|| usage_exit("catalog needs <dir>"));
            finish(store_cmd::run_catalog(&dir).map(|listing| (listing, false)))
        }
        "fsck" => {
            let file = path(0).unwrap_or_else(|| usage_exit("fsck needs <file.store>"));
            finish(Ok(store_cmd::run_fsck(&file)))
        }
        "repl" => finish(match (positionals.first().map(String::as_str), path(1), path(2)) {
            (Some("ship"), Some(stores), Some(ship_root)) => {
                repl_cmd::run_ship(&stores, &ship_root).map(|out| (out, false))
            }
            (Some("follow"), Some(ship_root), Some(stores)) => {
                repl_cmd::run_follow(&ship_root, &stores)
            }
            (Some("promote"), Some(stores), None) => {
                repl_cmd::run_promote(&stores).map(|out| (out, false))
            }
            _ => usage_exit("repl needs ship|follow|promote and its directories"),
        }),
        "lint" | "explain" => {
            let sql = positionals.get(1..).unwrap_or_default().join(" ");
            if sql.is_empty() {
                usage_exit(&format!("{mode} needs <db_id> <sql>"));
            }
            let run = if mode == "lint" { serve::lint_sql } else { serve::explain_sql };
            let (report, failed) = run(&opts, &positionals[0], &sql);
            finish(Ok((format!("{report}\n"), failed)))
        }
        "batch" => {
            eprintln!(
                "building {} world (scale {}), serving dev split over {} worker(s) ...",
                opts.profile, opts.scale, opts.workers
            );
            print!("{}", serve::run_batch(&opts));
        }
        "serve" if opts.http.is_some() => {
            building();
            print!("{}", serve::run_http_serve(&opts, &mut std::io::stdin().lock()));
        }
        "serve" => {
            building();
            let (benchmark, rt) = serve::start_runtime(&opts);
            println!(
                "serving {} database(s) over {} worker(s); db_id|question[|evidence] per line",
                benchmark.dbs.len(),
                opts.workers
            );
            prompt_loop("osql-serve> ", |line| match serve::handle_serve_line(&rt, line) {
                Some(out) if out.is_empty() => true,
                Some(out) => {
                    println!("{out}");
                    true
                }
                None => false,
            });
            print!("{}", rt.refreshed_metrics().render_prometheus());
        }
        _ => {
            building();
            let mut repl = Repl::build(&opts.profile, opts.scale);
            println!("{}", repl.banner());
            prompt_loop("osql> ", |line| match repl.handle(line.trim()) {
                ReplOutcome::Quit => false,
                ReplOutcome::Text(out) => {
                    println!("{out}");
                    true
                }
                ReplOutcome::Empty => true,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Parsed, String> {
        parse_args(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn modes_flags_and_positionals_parse() {
        let (mode, opts, positionals) =
            parse("serve --workers 2 --slow-ms 0 --store dir --http 127.0.0.1:0").unwrap();
        assert_eq!(mode, "serve");
        assert_eq!((opts.workers, opts.slow_ms), (2, 0.0));
        assert_eq!((opts.store.as_deref(), opts.http.as_deref()), (Some("dir"), Some("127.0.0.1:0")));
        assert!(positionals.is_empty());
        let (mode, opts, positionals) = parse("lint healthcare SELECT 1 --profile mini").unwrap();
        assert_eq!((mode, opts.profile.as_str()), ("lint", "mini"));
        assert_eq!(positionals, ["healthcare", "SELECT", "1"]);
        assert_eq!(parse("--profile tiny").unwrap().0, "interactive");
        assert_eq!(parse("").unwrap().0, "interactive");
        assert_eq!(parse("batch --help").unwrap().0, "help");
    }

    #[test]
    fn an_unknown_mode_is_rejected() {
        assert_eq!(parse("bogus").unwrap_err(), "unknown mode: bogus");
    }

    #[test]
    fn a_removed_mode_is_rejected() {
        for mode in ["trace", "profile", "flight", "slow"] {
            assert_eq!(parse(&format!("{mode} healthcare q")).unwrap_err(), format!("unknown mode: {mode}"));
        }
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        assert_eq!(parse("batch --json").unwrap_err(), "unknown flag: --json");
        assert_eq!(parse("--verbose").unwrap_err(), "unknown flag: --verbose");
    }

    #[test]
    fn a_missing_or_unparsable_value_is_rejected() {
        assert_eq!(parse("serve --workers abc").unwrap_err(), "--workers: cannot parse \"abc\"");
        assert_eq!(parse("batch --scale").unwrap_err(), "--scale needs a value");
        assert!(parse("serve --slow-ms fast").is_err());
    }
}
