//! Runtime-backed CLI modes: `batch` (serve a whole dev split through the
//! worker pool and report throughput + metrics), `serve` (answer
//! piped/typed requests until EOF) and `serve --http` (the HTTP API, also
//! the one surface a live process is inspected through), plus the
//! offline `lint` and `explain`. Logic lives here, separated from `main`,
//! so it is unit-testable without a terminal.

use datagen::Profile;
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::PipelineConfig;
use osql_runtime::{AssetCache, QueryRequest, Runtime, RuntimeConfig, ServeError, Throughput};
use osql_trace::FlightConfig;
use std::fmt::Write as _;
use std::sync::Arc;

/// Options shared by the runtime-backed modes.
#[derive(Debug)]
pub struct ServeOptions {
    /// World profile name (tiny/mini/bird/spider).
    pub profile: String,
    /// World scale factor.
    pub scale: f64,
    /// Worker threads.
    pub workers: usize,
    /// Request-queue capacity.
    pub queue: usize,
    /// Max dev questions in batch mode (0 = all).
    pub limit: usize,
    /// How many times to serve the batch (> 1 exercises the result
    /// cache).
    pub rounds: usize,
    /// Serve database contents out of this directory of `.store` files
    /// (demand-paged) instead of holding the whole benchmark resident.
    pub store: Option<String>,
    /// Resident-byte budget for the store catalog (0 = unlimited).
    pub budget: u64,
    /// Serve HTTP on this address instead of line-oriented stdin
    /// (`serve --http 127.0.0.1:8080`).
    pub http: Option<String>,
    /// Acceptor shard threads for the HTTP server.
    pub shards: usize,
    /// Slow-query threshold in milliseconds for the flight recorder. A
    /// slow request keeps its span tree and `EXPLAIN` for
    /// `/debug/trace/<id>`; 0 keeps them for every request.
    pub slow_ms: f64,
    /// Append every slow request as one JSON object per line to this
    /// file (`--slow-log <path>`); `None` keeps the slow log in-memory
    /// only.
    pub slow_log: Option<String>,
    /// Serve as a read-only follower: tail this shipping root
    /// (`<root>/<db_id>/` per database), applying shipped segments into
    /// the `--store` directory in the background and honouring
    /// `X-Osql-Min-Seq` bounded-staleness reads. Requires `--store`.
    pub follow: Option<String>,
    /// Follower poll interval in milliseconds.
    pub poll_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            profile: "tiny".to_owned(),
            scale: 1.0,
            workers: 4,
            queue: 64,
            limit: 0,
            rounds: 1,
            store: None,
            budget: 0,
            http: None,
            shards: 2,
            slow_ms: 250.0,
            slow_log: None,
            follow: None,
            poll_ms: 200,
        }
    }
}

pub(crate) fn profile_for(name: &str, scale: f64) -> Profile {
    match name {
        "bird" => Profile::bird().scaled(scale),
        "spider" => Profile::spider().scaled(scale),
        "mini" => Profile::bird_mini_dev().scaled(scale),
        _ => Profile::tiny(),
    }
}

/// Generate the world `opts` names and run `f` on database `db_id`;
/// an unknown id fails with the list of known ones.
fn on_world_db(
    opts: &ServeOptions,
    db_id: &str,
    f: impl FnOnce(&datagen::BuiltDb) -> (String, bool),
) -> (String, bool) {
    let benchmark = datagen::generate(&profile_for(&opts.profile, opts.scale));
    match benchmark.dbs.iter().find(|d| d.id == db_id) {
        Some(db) => f(db),
        None => {
            let known: Vec<&str> = benchmark.dbs.iter().map(|d| d.id.as_str()).collect();
            (format!("unknown database: {db_id} (available: {})", known.join(", ")), true)
        }
    }
}

/// Lint one SQL string against a world database: run the static analyzer
/// and render its findings with rustc-style caret frames. Returns the
/// report and whether any error-severity finding (a parse error is one)
/// was found.
pub fn lint_sql(opts: &ServeOptions, db_id: &str, sql: &str) -> (String, bool) {
    on_world_db(opts, db_id, |db| {
        let analysis = sqlkit::analyze_sql(&db.database.schema, sql);
        let out = if analysis.diagnostics.is_empty() {
            format!("{sql}\n  clean: no findings")
        } else {
            analysis.rendered(sql)
        };
        (out, analysis.has_errors())
    })
}

/// Explain one SQL string against a world database: render the physical
/// plan the planner chose (operators, chosen indexes, estimated rows),
/// executing the statement once so actual per-operator row counts appear
/// alongside the estimates. Returns the report and whether it failed.
pub fn explain_sql(opts: &ServeOptions, db_id: &str, sql: &str) -> (String, bool) {
    on_world_db(opts, db_id, |db| match sqlkit::explain(&db.database, sql) {
        Ok(report) => (report.trim_end().to_owned(), false),
        Err(e) => (format!("error: {e}"), true),
    })
}

/// Build the world and start a runtime over it.
///
/// With `opts.store` set, database contents are demand-paged out of that
/// directory of `.store` files under `opts.budget` resident bytes; the
/// benchmark is still generated for its question splits and the oracle,
/// but the served data comes off disk.
pub fn start_runtime(opts: &ServeOptions) -> (Arc<datagen::Benchmark>, Runtime) {
    let benchmark = Arc::new(datagen::generate(&profile_for(&opts.profile, opts.scale)));
    let llm = Arc::new(SimLlm::new(
        Arc::new(Oracle::new(benchmark.clone())),
        ModelProfile::gpt_4o(),
        0x11EA,
    ));
    let assets = match &opts.store {
        Some(dir) => {
            let budget = if opts.budget == 0 { u64::MAX } else { opts.budget };
            let catalog = osql_runtime::open_paged_catalog(
                std::path::Path::new(dir),
                budget,
                &benchmark.name,
            )
            .unwrap_or_else(|e| {
                eprintln!("cannot open store catalog {dir}: {e}");
                std::process::exit(2);
            });
            Arc::new(AssetCache::paged(
                Arc::new(catalog),
                llm,
                PipelineConfig::fast(),
                &benchmark.train,
            ))
        }
        None => Arc::new(AssetCache::new(benchmark.clone(), llm, PipelineConfig::fast())),
    };
    let config = RuntimeConfig {
        workers: opts.workers,
        queue_capacity: opts.queue,
        result_cache_capacity: 1024,
        flight: FlightConfig {
            slow_ms: opts.slow_ms,
            slow_log_path: opts.slow_log.clone().map(std::path::PathBuf::from),
            ..FlightConfig::default()
        },
        ..RuntimeConfig::default()
    };
    (benchmark, Runtime::start(assets, config))
}

/// Start the HTTP serving layer over a runtime built from `opts` and
/// block until `input` reaches EOF (Ctrl-D interactively), then drain.
/// Returns the final metrics snapshot.
///
/// With `opts.follow` set, a background apply loop tails the shipping
/// root (one `<db_id>/` subdirectory per database), applies shipped
/// segments into the `--store` directory, and publishes positions into
/// the [`osql_repl::ReplState`] the server's bounded-staleness admission
/// reads. A read admitted under a new position is keyed by it, so it
/// never shares an answer or a pipeline built on older data.
pub fn run_http_serve(opts: &ServeOptions, input: &mut dyn std::io::BufRead) -> String {
    if opts.follow.is_some() && opts.store.is_none() {
        return "--follow requires --store (the directory the follower applies into)\n".into();
    }
    if let (Some(root), Some(store)) = (&opts.follow, &opts.store) {
        // catch up before the runtime opens the catalog so freshly
        // bootstrapped stores are already listed
        let state = osql_repl::ReplState::new(1);
        if let Err(e) = crate::repl_cmd::follow_round(
            std::path::Path::new(root),
            std::path::Path::new(store),
            &state,
        ) {
            return format!("cannot follow {root}: {e}\n");
        }
    }
    let (benchmark, rt) = start_runtime(opts);
    let rt = Arc::new(rt);
    let mut config = osql_server::ServerConfig {
        shards: opts.shards.max(1),
        ..osql_server::ServerConfig::default()
    };
    let mut follower: Option<(Arc<osql_repl::ReplState>, std::thread::JoinHandle<()>)> = None;
    if let Some(root) = &opts.follow {
        let state = Arc::new(osql_repl::ReplState::new(
            (opts.poll_ms.max(1)).div_ceil(1000).max(1),
        ));
        config.repl = Some(state.clone());
        let handle = spawn_follower(
            root.into(),
            opts.store.as_deref().unwrap_or_default().into(),
            state.clone(),
            std::time::Duration::from_millis(opts.poll_ms.max(1)),
        );
        follower = Some((state, handle));
    }
    let addr = opts.http.as_deref().unwrap_or("127.0.0.1:0");
    let server = match osql_server::Server::start(rt.clone(), addr, config) {
        Ok(s) => s,
        Err(e) => return format!("cannot bind {addr}: {e}\n"),
    };
    eprintln!(
        "serving {} database(s) on http://{} ({} shard(s), {} worker(s){}); \
         POST /v1/query, GET /metrics /healthz /v1/catalog; Ctrl-D to stop",
        benchmark.dbs.len(),
        server.local_addr(),
        opts.shards.max(1),
        opts.workers,
        if opts.follow.is_some() { ", read-only follower" } else { "" }
    );
    // block until EOF, then drain connections before reporting
    let mut sink = String::new();
    while matches!(input.read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
    if let Some((state, handle)) = follower {
        state.request_shutdown();
        let _ = handle.join();
    }
    let drained = server.shutdown();
    let mut out = rt.refreshed_metrics().render_prometheus();
    if !drained {
        out.push_str("warning: connections still open at drain deadline\n");
    }
    out
}

/// The follower's background apply loop: a [`crate::repl_cmd::follow_round`]
/// every `poll` until `state` asks for shutdown.
fn spawn_follower(
    ship_root: std::path::PathBuf,
    store_dir: std::path::PathBuf,
    state: Arc<osql_repl::ReplState>,
    poll: std::time::Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("osql-repl-follow".into())
        .spawn(move || {
            while !state.shutdown_requested() {
                if let Err(e) = crate::repl_cmd::follow_round(&ship_root, &store_dir, &state) {
                    eprintln!("follower round failed: {e}");
                }
                std::thread::sleep(poll);
            }
        })
        .expect("spawn follower loop")
}

/// Run batch mode and render its report.
pub fn run_batch(opts: &ServeOptions) -> String {
    let (benchmark, rt) = start_runtime(opts);
    let limit = if opts.limit == 0 { benchmark.dev.len() } else { opts.limit };
    let requests: Vec<QueryRequest> = benchmark
        .dev
        .iter()
        .take(limit)
        .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
        .collect();

    let clock = Throughput::start();
    let mut errors = 0usize;
    let mut cache_served = 0usize;
    for _ in 0..opts.rounds.max(1) {
        for outcome in rt.run_batch(requests.clone()) {
            clock.served();
            match outcome {
                Ok(resp) if resp.from_cache => cache_served += 1,
                Ok(_) => {}
                Err(_) => errors += 1,
            }
        }
    }
    let (served, secs, rps) = clock.snapshot();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "batch: {} request(s) over {} worker(s) in {:.2}s — {:.1} q/s",
        served, opts.workers, secs, rps
    );
    let _ = writeln!(
        out,
        "cache: {} result hit(s), {} miss(es); {} of {} served from cache; \
         {} database(s) preprocessed lazily",
        rt.metrics().counter("result_cache_hits").get(),
        rt.metrics().counter("result_cache_misses").get(),
        cache_served,
        served,
        rt.assets().len(),
    );
    if errors > 0 {
        let _ = writeln!(out, "errors: {errors}");
    }
    out.push_str(&rt.refreshed_metrics().render_prometheus());
    out
}

/// Handle one `serve`-mode input line: a `db_id|question[|evidence]`
/// request, answered with its SQL. Returns `None` on `\quit` / `\q`.
/// A live process is inspected over HTTP (`serve --http`), not here.
pub fn handle_serve_line(rt: &Runtime, line: &str) -> Option<String> {
    let line = line.trim();
    if line.is_empty() {
        return Some(String::new());
    }
    if matches!(line, "\\quit" | "\\q") {
        return None;
    }
    let mut parts = line.splitn(3, '|');
    let (db_id, question) = match (parts.next(), parts.next()) {
        (Some(db), Some(q)) if !q.trim().is_empty() => (db.trim(), q.trim()),
        _ => return Some("usage: db_id|question[|evidence]  (\\quit to stop)".into()),
    };
    let evidence = parts.next().unwrap_or("").trim();
    let ticket = match rt.submit(QueryRequest::new(db_id, question, evidence)) {
        Ok(t) => t,
        Err(e) => return Some(format!("error: {e}")),
    };
    Some(match ticket.wait() {
        Ok(resp) => {
            let marker = if resp.from_cache { " [cached]" } else { "" };
            format!("SQL: {}{marker}", resp.run.final_sql)
        }
        Err(ServeError::UnknownDb(id)) => format!("error: unknown database {id}"),
        Err(e) => format!("error: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ServeOptions {
        ServeOptions { limit: 4, workers: 2, ..ServeOptions::default() }
    }

    #[test]
    fn batch_mode_reports_throughput_and_metrics() {
        let report = run_batch(&opts());
        assert!(report.contains("4 request(s)"), "{report}");
        assert!(report.contains("q/s"), "{report}");
        assert!(report.contains("requests_total 4"), "{report}");
        assert!(report.contains("queue_wait_ms"), "{report}");
    }

    #[test]
    fn repeated_rounds_hit_the_result_cache() {
        let report = run_batch(&ServeOptions { rounds: 3, ..opts() });
        assert!(report.contains("12 request(s)"), "{report}");
        assert!(report.contains("8 of 12 served from cache"), "{report}");
    }

    #[test]
    fn serve_lines_answer_and_report() {
        let (benchmark, rt) = start_runtime(&opts());
        let ex = &benchmark.dev[0];
        let line = format!("{}|{}|{}", ex.db_id, ex.question, ex.evidence);
        let out = handle_serve_line(&rt, &line).unwrap();
        assert!(out.starts_with("SQL: SELECT"), "{out}");
        let again = handle_serve_line(&rt, &line).unwrap();
        assert!(again.contains("[cached]"), "{again}");
        assert!(handle_serve_line(&rt, "ghost|q").unwrap().contains("unknown"));
        assert!(handle_serve_line(&rt, "garbage").unwrap().contains("usage"));
        // a backslash word other than \quit is not a request: it gets
        // the usage line and reaches no worker
        let requests = rt.metrics().counter("requests_total").get();
        assert!(handle_serve_line(&rt, "\\metrics").unwrap().starts_with("usage"));
        assert_eq!(rt.metrics().counter("requests_total").get(), requests);
        assert!(handle_serve_line(&rt, "\\quit").is_none());
        assert!(handle_serve_line(&rt, "\\q").is_none());
    }

    #[test]
    fn explain_renders_a_plan_with_actuals() {
        let opts = opts();
        let benchmark = datagen::generate(&profile_for(&opts.profile, opts.scale));
        let db = &benchmark.dbs[0];
        let table = &db.database.schema.tables[0];
        let pk = table.columns.iter().find(|c| c.primary_key).expect("themes declare PKs");
        let sql = format!("SELECT * FROM {} WHERE {} = 1", table.name, pk.name);
        let (out, failed) = explain_sql(&opts, &db.id, &sql);
        assert!(!failed, "{out}");
        assert!(out.contains("IxScan"), "{out}");
        assert!(out.contains("actual="), "{out}");
        let (out, failed) = explain_sql(&opts, "ghost", "SELECT 1");
        assert!(failed && out.starts_with("unknown database: ghost"), "{out}");
    }

    /// `lint` fails exactly on error-severity findings — a parse error is
    /// one — and passes clean SQL and warnings-only SQL.
    #[test]
    fn lint_fails_on_errors_and_parse_errors_only() {
        let opts = opts();
        let benchmark = datagen::generate(&profile_for(&opts.profile, opts.scale));
        for ex in &benchmark.dev {
            let (report, failed) = lint_sql(&opts, &ex.db_id, &ex.gold_sql);
            assert!(!failed && report.ends_with("clean: no findings"), "{report}");
        }
        let db = &benchmark.dbs[0];
        let (first, second) = (&db.database.schema.tables[0], &db.database.schema.tables[1]);
        let col = &first.columns[0].name;
        let lint = |sql: &str| lint_sql(&opts, &db.id, sql);

        let (report, failed) = lint(&format!("SELECT {col}zz FROM {}", first.name));
        assert!(failed && report.starts_with("error[E0102]"), "{report}");
        // parse errors, the second on a multi-byte character, the third in the lexer
        let (report, failed) = lint("SELECT FROM WHERE");
        assert!(failed && report.starts_with("error[E0001]"), "{report}");
        let (report, failed) = lint(&format!("SELECT {col} FROM {} ORDER BY 9\u{e9}", first.name));
        assert!(failed && report.starts_with("error[E0001]") && report.ends_with('^'), "{report}");
        let (report, failed) = lint("SELECT 1 \u{2019}");
        assert!(failed && report.contains("unexpected character '\u{2019}'"), "{report}");
        // an unused join is worth a warning, not a failure
        let (report, failed) =
            lint(&format!("SELECT T1.{col} FROM {} AS T1, {} AS T2", first.name, second.name));
        assert!(!failed && report.starts_with("warning[W0303]"), "{report}");
        assert!(lint_sql(&opts, "ghost", "SELECT 1").1, "unknown database");
    }

    #[test]
    fn http_serve_binds_drains_and_reports() {
        let http_opts =
            ServeOptions { http: Some("127.0.0.1:0".to_owned()), shards: 2, ..opts() };
        // EOF immediately: the server starts, drains cleanly, and the
        // final metrics snapshot comes back
        let mut input = std::io::Cursor::new(Vec::<u8>::new());
        let report = run_http_serve(&http_opts, &mut input);
        // no traffic flowed: the snapshot holds the mirrors every read
        // refreshes and not one request-path series
        assert!(report.contains("asset_builds_total 0"), "{report}");
        assert!(!report.contains("requests_total"), "{report}");
        assert!(!report.contains("warning"), "{report}");
    }

    /// A follower must not answer from the result cache with a run
    /// computed on data its apply loop has since advanced past.
    #[test]
    fn follower_apply_drops_cached_answers_of_the_advanced_db() {
        let root = std::env::temp_dir().join(format!("osql-serve-follow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (primary, ship, replica) = (root.join("primary"), root.join("ship"), root.join("replica"));
        crate::store_cmd::run_pack(&opts(), &primary).unwrap();
        crate::repl_cmd::run_ship(&primary, &ship).unwrap();
        crate::repl_cmd::run_follow(&ship, &replica).unwrap();
        let store_opts =
            ServeOptions { store: Some(replica.to_string_lossy().into_owned()), ..opts() };
        let (benchmark, rt) = start_runtime(&store_opts);
        let rt = Arc::new(rt);
        let ex = &benchmark.dev[0];
        let state = Arc::new(osql_repl::ReplState::new(1));
        let ask = || {
            let seq = state.applied_seq(&ex.db_id).unwrap_or(0);
            rt.submit(QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence).with_seq(seq))
                .unwrap()
                .wait()
                .unwrap()
                .from_cache
        };
        assert!(!ask());
        assert!(ask(), "repeats are cached");

        let (mut store, _) =
            osql_store::Store::open(&primary.join(format!("{}.store", ex.db_id))).unwrap();
        store.execute("CREATE TABLE follow_probe (id INTEGER PRIMARY KEY)").unwrap();
        store.execute("INSERT INTO follow_probe VALUES (1)").unwrap();
        let seq = store.commit().unwrap();
        drop(store);
        crate::repl_cmd::run_ship(&primary, &ship).unwrap();
        let follower = spawn_follower(
            ship.clone(),
            replica.clone(),
            state.clone(),
            std::time::Duration::from_millis(5),
        );
        while state.applied_seq(&ex.db_id) != Some(seq) {
            std::thread::yield_now();
        }
        state.request_shutdown();
        follower.join().unwrap();
        assert!(!ask(), "the applied database's answer was recomputed, not served stale");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn store_backed_serving_answers_and_reports_catalog() {
        let dir = std::env::temp_dir().join(format!("osql-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let world = datagen::generate(&profile_for("tiny", 1.0));
        datagen::export_store(&world, &dir).unwrap();
        let store_opts = ServeOptions {
            store: Some(dir.to_string_lossy().into_owned()),
            ..opts()
        };
        let (benchmark, rt) = start_runtime(&store_opts);
        let ex = &benchmark.dev[0];
        let line = format!("{}|{}|{}", ex.db_id, ex.question, ex.evidence);
        let out = handle_serve_line(&rt, &line).unwrap();
        assert!(out.starts_with("SQL: SELECT"), "{out}");
        // the catalog's resident set, budget and load count are read over
        // HTTP (`/v1/catalog`), pinned by tests/telemetry_golden.rs's
        // "catalog paged" bytes; here the registry mirrors them
        let snapshot = rt.refreshed_metrics().render_prometheus();
        assert!(snapshot.contains("db_load_total 1"), "{snapshot}");
        assert!(snapshot.contains("store_bytes_resident"), "{snapshot}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
