//! `opensearch-sql` — the pipeline as a command-line tool.
//!
//! ```sh
//! # interactive REPL (default)
//! cargo run --release -p osql-cli -- --profile tiny
//! # serve the whole dev split through the worker-pool runtime
//! cargo run --release -p osql-cli -- batch --profile tiny --workers 4
//! # line-oriented serving: db_id|question[|evidence] per line
//! cargo run --release -p osql-cli -- serve --workers 2
//! ```
//!
//! The REPL answers one question at a time in-process; `batch` and
//! `serve` route requests through `osql-runtime`'s bounded queue, worker
//! pool, and two-level cache, and report a metrics snapshot. `lint`
//! analyzes one SQL string against a world database and prints the
//! static analyzer's caret-annotated findings; `explain` renders the
//! physical plan the cost-based planner chose for one statement, with
//! estimated vs actual per-operator row counts.

mod repl;
mod repl_cmd;
mod serve;
mod store_cmd;

use repl::{Repl, ReplOutcome};
use serve::ServeOptions;
use std::io::{BufRead, Write};

const USAGE: &str = "usage: opensearch-sql [batch|serve|profile] [--profile tiny|mini|bird|spider] \
                     [--scale f] [--workers n] [--queue n] [--limit n] [--rounds n]\n\
       opensearch-sql serve --store <dir> [--budget bytes] # demand-page databases off disk\n\
       opensearch-sql serve --http <addr> [--shards n]     # HTTP/1.1 API (POST /v1/query, GET /metrics)\n\
       opensearch-sql lint <db_id> <sql> [--profile ...]   # static-analyze one SQL string\n\
       opensearch-sql explain <db_id> <sql> [--profile ...] # render the physical query plan\n\
       opensearch-sql trace <db_id> <question> [--json]    # serve one question, dump its trace\n\
       opensearch-sql profile [--limit n] [--rounds n]     # per-stage latency table over a batch\n\
       opensearch-sql flight [--limit n] [--slow-ms f]     # serve a batch, dump the flight recorder\n\
       opensearch-sql slow [--limit n] [--slow-ms f]       # slow-query log with retained EXPLAINs\n\
       opensearch-sql serve [--slow-ms f] [--slow-log p]   # slow requests also append JSONL to p\n\
       opensearch-sql pack <out_dir> [--profile ...]       # export every database as a .store file\n\
       opensearch-sql catalog <dir>                        # list a directory of .store files\n\
       opensearch-sql fsck <file.store>                    # audit a store + WAL; non-zero on corruption\n\
       opensearch-sql repl ship <store_dir> <ship_root>    # publish committed WAL suffixes as segments\n\
       opensearch-sql repl follow <ship_root> <store_dir>  # catch follower stores up to the shipped stream\n\
       opensearch-sql repl promote <store_dir>             # make follower stores writable primaries\n\
       opensearch-sql serve --http <addr> --store <dir> --follow <ship_root> [--poll-ms n]\n\
                                                           # serve as a read-only follower with bounded-staleness reads";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = match args.get(1).map(String::as_str) {
        Some("batch") => "batch",
        Some("serve") => "serve",
        Some("lint") => "lint",
        Some("explain") => "explain",
        Some("trace") => "trace",
        Some("profile") => "profile",
        Some("flight") => "flight",
        Some("slow") => "slow",
        Some("pack") => "pack",
        Some("catalog") => "catalog",
        Some("fsck") => "fsck",
        Some("repl") => "repl-cmd",
        _ => "repl",
    };
    let mut opts = ServeOptions::default();
    let mut positionals: Vec<String> = Vec::new();
    let mut i = if mode == "repl" { 1 } else { 2 };
    while i < args.len() {
        let value = args.get(i + 1);
        match args[i].as_str() {
            "--profile" => {
                if let Some(v) = value {
                    opts.profile = v.clone();
                }
                i += 1;
            }
            "--scale" => {
                if let Some(v) = value.and_then(|s| s.parse().ok()) {
                    opts.scale = v;
                }
                i += 1;
            }
            "--workers" => {
                if let Some(v) = value.and_then(|s| s.parse().ok()) {
                    opts.workers = v;
                }
                i += 1;
            }
            "--queue" => {
                if let Some(v) = value.and_then(|s| s.parse().ok()) {
                    opts.queue = v;
                }
                i += 1;
            }
            "--limit" => {
                if let Some(v) = value.and_then(|s| s.parse().ok()) {
                    opts.limit = v;
                }
                i += 1;
            }
            "--rounds" => {
                if let Some(v) = value.and_then(|s| s.parse().ok()) {
                    opts.rounds = v;
                }
                i += 1;
            }
            "--json" => {
                opts.json = true;
            }
            "--store" => {
                if let Some(v) = value {
                    opts.store = Some(v.clone());
                }
                i += 1;
            }
            "--budget" => {
                if let Some(v) = value.and_then(|s| s.parse().ok()) {
                    opts.budget = v;
                }
                i += 1;
            }
            "--http" => {
                if let Some(v) = value {
                    opts.http = Some(v.clone());
                }
                i += 1;
            }
            "--shards" => {
                if let Some(v) = value.and_then(|s| s.parse().ok()) {
                    opts.shards = v;
                }
                i += 1;
            }
            "--slow-ms" => {
                if let Some(v) = value.and_then(|s| s.parse().ok()) {
                    opts.slow_ms = v;
                }
                i += 1;
            }
            "--slow-log" => {
                opts.slow_log = value.cloned();
                i += 1;
            }
            "--follow" => {
                if let Some(v) = value {
                    opts.follow = Some(v.clone());
                }
                i += 1;
            }
            "--poll-ms" => {
                if let Some(v) = value.and_then(|s| s.parse().ok()) {
                    opts.poll_ms = v;
                }
                i += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ => {
                if !args[i].starts_with("--") {
                    positionals.push(args[i].clone());
                }
            }
        }
        i += 1;
    }

    match mode {
        "pack" => {
            let Some(out_dir) = positionals.first() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            eprintln!("building {} world (scale {}) ...", opts.profile, opts.scale);
            match store_cmd::run_pack(&opts, std::path::Path::new(out_dir)) {
                Ok(report) => print!("{report}"),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        "catalog" => {
            let Some(dir) = positionals.first() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            match store_cmd::run_catalog(std::path::Path::new(dir)) {
                Ok(listing) => print!("{listing}"),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        "fsck" => {
            let Some(file) = positionals.first() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            let (report, dirty) = store_cmd::run_fsck(std::path::Path::new(file));
            print!("{report}");
            std::process::exit(i32::from(dirty));
        }
        "repl-cmd" => {
            let path = |i: usize| positionals.get(i).map(std::path::PathBuf::from);
            let outcome = match (positionals.first().map(String::as_str), path(1), path(2)) {
                (Some("ship"), Some(stores), Some(ship_root)) => {
                    repl_cmd::run_ship(&stores, &ship_root).map(|out| (out, false))
                }
                (Some("follow"), Some(ship_root), Some(stores)) => {
                    repl_cmd::run_follow(&ship_root, &stores)
                }
                (Some("promote"), Some(stores), None) => {
                    repl_cmd::run_promote(&stores).map(|out| (out, false))
                }
                _ => {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            };
            match outcome {
                Ok((report, failed)) => {
                    print!("{report}");
                    std::process::exit(i32::from(failed));
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        "lint" => {
            let Some((db_id, sql_parts)) = positionals.split_first() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            let sql = sql_parts.join(" ");
            if sql.is_empty() {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            let (report, failed) = serve::lint_sql(&opts, db_id, &sql);
            println!("{report}");
            std::process::exit(i32::from(failed));
        }
        "explain" => {
            let Some((db_id, sql_parts)) = positionals.split_first() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            let sql = sql_parts.join(" ");
            if sql.is_empty() {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            let (report, failed) = serve::explain_sql(&opts, db_id, &sql);
            println!("{report}");
            std::process::exit(i32::from(failed));
        }
        "trace" => {
            let Some((db_id, question_parts)) = positionals.split_first() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            let question = question_parts.join(" ");
            if question.is_empty() {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            eprintln!("building {} world (scale {}) ...", opts.profile, opts.scale);
            println!("{}", serve::run_trace(&opts, db_id, &question));
        }
        "profile" => {
            eprintln!(
                "building {} world (scale {}), profiling over {} worker(s) ...",
                opts.profile, opts.scale, opts.workers
            );
            print!("{}", serve::run_profile(&opts));
        }
        "flight" | "slow" => {
            eprintln!(
                "building {} world (scale {}), serving dev split over {} worker(s) ...",
                opts.profile, opts.scale, opts.workers
            );
            print!("{}", serve::run_flight(&opts, mode == "slow"));
        }
        "batch" => {
            eprintln!(
                "building {} world (scale {}), serving dev split over {} worker(s) ...",
                opts.profile, opts.scale, opts.workers
            );
            print!("{}", serve::run_batch(&opts));
        }
        "serve" if opts.http.is_some() => {
            eprintln!("building {} world (scale {}) ...", opts.profile, opts.scale);
            let stdin = std::io::stdin();
            let mut input = stdin.lock();
            print!("{}", serve::run_http_serve(&opts, &mut input));
        }
        "serve" => {
            eprintln!("building {} world (scale {}) ...", opts.profile, opts.scale);
            let (benchmark, rt) = serve::start_runtime(&opts);
            println!(
                "serving {} database(s) over {} worker(s); db_id|question[|evidence] per line",
                benchmark.dbs.len(),
                opts.workers
            );
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            loop {
                print!("osql-serve> ");
                let _ = stdout.flush();
                let mut line = String::new();
                match stdin.lock().read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                match serve::handle_serve_line(&benchmark, &rt, &line) {
                    Some(out) if out.is_empty() => {}
                    Some(out) => println!("{out}"),
                    None => break,
                }
            }
            print!("{}", rt.refreshed_metrics().render());
        }
        _ => {
            eprintln!("building {} world (scale {}) ...", opts.profile, opts.scale);
            let mut repl = Repl::build(&opts.profile, opts.scale);
            println!("{}", repl.banner());
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            loop {
                print!("osql> ");
                let _ = stdout.flush();
                let mut line = String::new();
                match stdin.lock().read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                match repl.handle(line.trim()) {
                    ReplOutcome::Quit => break,
                    ReplOutcome::Text(out) => println!("{out}"),
                    ReplOutcome::Empty => {}
                }
            }
        }
    }
}
