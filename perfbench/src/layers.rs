//! The layer pass of the HTTP workloads (`--trace 1`).
//!
//! It runs after the measured rounds, so end-to-end numbers are taken with
//! no tracing. A sample of the workload's own requests (the start of a round) is first sent
//! to the server one at a time (round trips), then replayed in this thread
//! through each layer's public functions in the order the server calls
//! them, with a harness-side span around every call:
//!
//! ```text
//! request
//! ├─ server.http_parse      http::read_request
//! ├─ server.json_parse      json::parse_string_object
//! ├─ runtime.result_key     ResultKey::new
//! ├─ server.coalesce        Coalescer::join … LeaderToken::complete
//! ├─ runtime.submit_hit     Runtime::submit().wait()      (reply was cached)
//! │  — or —
//! ├─ runtime.asset_hit | runtime.asset_build   AssetCache::pipeline
//! ├─ core.answer            the pipeline, recomposed
//! │  ├─ core.extraction     run_extraction      └ llmsim.complete …
//! │  ├─ core.generation     run_generation      └ llmsim.complete
//! │  ├─ core.refine         refine_candidate ×n └ llmsim.complete …
//! │  └─ core.vote           vote
//! └─ server.render          ObjectWriter + http::write_response
//! ```
//!
//! Whether a request replays as a hit or as a pipeline run follows the
//! `from_cache` its round trip reported, so each workload's pass shows the
//! layers that workload exercises and leaves the others at zero. What the
//! replay cannot see from outside — the socket, thread hand-offs, the
//! queue, metrics and the flight recorder — is the gap between the two,
//! reported as `bench.unattributed_share`.

use crate::http::Client;
use crate::loadgen::{self, Request};
use crate::report::Measured;
use crate::rounds::{self, Tally};
use crate::serving::{build_assets, Packed, Plan, Served};
use crate::spans::{self, Recorder, Span};
use crate::spec::Workload;
use crate::world::{output_dir, pipeline_config, AnswerKey, World};
use llmsim::{ChatRequest, ChatResponse, LanguageModel};
use opensearch_sql::extraction::run_extraction;
use opensearch_sql::generation::run_generation;
use opensearch_sql::refinement::{refine_candidate, vote};
use opensearch_sql::{
    CostLedger, FewshotLibrary, Module, Pipeline, PipelineConfig, Preprocessed, ValueIndex,
};
use osql_runtime::{AssetCache, QueryRequest, ResultKey};
use osql_server::http as server_http;
use osql_server::json::{self as server_json, ObjectWriter};
use osql_server::{Coalescer, Joined, Rendered};
use osql_trace::active;
use std::collections::{BTreeMap, HashSet};
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

/// What the pass produced.
pub struct Pass {
    /// Per-layer metrics measured by the pass.
    pub metrics: BTreeMap<String, Measured>,
    /// Every span, for `<workload>.spans.jsonl`.
    pub spans: Vec<Span>,
}

/// Write spans next to `results.json`.
pub fn write_spans(workload: Workload, spans: &[Span]) -> Result<(), String> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.spans.jsonl", workload.name()));
    std::fs::write(&path, spans::to_jsonl(spans)).map_err(|e| format!("{}: {e}", path.display()))
}

/// A language model that records a span around every call it forwards.
struct TimingLlm {
    inner: Arc<dyn LanguageModel>,
    rec: Arc<Recorder>,
}

impl LanguageModel for TimingLlm {
    fn complete(&self, req: &ChatRequest) -> ChatResponse {
        self.rec
            .time("llmsim.complete", || self.inner.complete(req))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What one recomposed pipeline run produced.
struct Recomposed {
    final_sql: String,
    ledger: CostLedger,
    candidates: usize,
    correction_rounds: usize,
    analyze_skips: usize,
    entities: Vec<String>,
    statements: Vec<String>,
}

/// `Pipeline::answer`, recomposed from its public stages with a span around
/// each. It mirrors the original step for step (private ledger and
/// sub-trace per candidate, merged in candidate order), so its `final_sql`
/// must equal the answer key's.
fn recomposed_answer(
    rec: &Recorder,
    pre: &Preprocessed,
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    req: &Request,
) -> Recomposed {
    let _answer = rec.enter("core.answer");
    let (db_id, question, evidence) = (
        req.db_id.as_str(),
        req.question.as_str(),
        req.evidence.as_str(),
    );
    // the server's worker owns a trace while the pipeline runs; so does this
    active::push();
    let mut ledger = CostLedger::new();
    let extraction = rec.time("core.extraction", || {
        run_extraction(pre, llm, config, db_id, question, evidence, &mut ledger)
    });
    let generation = rec.time("core.generation", || {
        run_generation(
            pre,
            llm,
            config,
            db_id,
            question,
            evidence,
            &extraction,
            &mut ledger,
        )
    });
    let refined_at = Instant::now();
    let mut candidates = Vec::with_capacity(generation.candidates.len());
    for (i, raw_sql) in generation.candidates.iter().enumerate() {
        let mut local = CostLedger::new();
        active::push();
        let candidate = rec.time("core.refine", || {
            refine_candidate(
                pre,
                llm,
                config,
                db_id,
                question,
                evidence,
                &extraction,
                raw_sql,
                generation.raw_texts.get(i).map(String::as_str),
                i,
                &mut local,
            )
        });
        if let Some(sub) = active::pop() {
            active::absorb(sub);
        }
        ledger.merge(&local);
        candidates.push(candidate);
    }
    let winner = if config.self_consistency && candidates.len() > 1 {
        rec.time("core.vote", || vote(&candidates, &mut ledger))
    } else {
        0
    };
    ledger.charge(
        Module::Refinement,
        refined_at.elapsed().as_secs_f64() * 1e3,
        0,
    );
    let _ = active::pop();
    let mut statements: Vec<String> = generation.candidates.clone();
    statements.extend(candidates.iter().map(|c| c.sql.clone()));
    Recomposed {
        final_sql: candidates
            .get(winner)
            .map(|c| c.sql.clone())
            .unwrap_or_default(),
        ledger,
        candidates: candidates.len(),
        correction_rounds: candidates.iter().map(|c| c.correction_rounds).sum(),
        analyze_skips: candidates.iter().map(|c| c.analyze_skips).sum(),
        entities: extraction.entities,
        statements,
    }
}

/// The ledger's LLM-call modules: their time is the model's modelled
/// latency, a pure function of token counts (the paper's Table 6).
const LLM_MODULES: [Module; 4] = [
    Module::EntityColumn,
    Module::SelectAlign,
    Module::Generation,
    Module::Correction,
];

fn sample_len(plan: &Plan, smoke: bool) -> usize {
    if smoke {
        return plan.round_ops.min(24);
    }
    match plan.workload {
        Workload::WarmHits => 1500,
        // one visit to every database
        Workload::PagedMix => plan.round_ops / 2,
        _ => 120,
    }
}

/// What the pass runs on.
pub struct PassInput<'a> {
    /// The workload's plan.
    pub plan: &'a Plan,
    /// Its world.
    pub world: &'a World,
    /// Its packed stores, when it pages.
    pub packed: Option<&'a Packed>,
    /// Its live server, as the measured rounds left it.
    pub served: &'a Served,
    /// Its schedule (a round is the schedule from its start).
    pub schedule: &'a [Request],
    /// The answer key.
    pub key: &'a AnswerKey,
    /// Smoke-sized samples.
    pub smoke: bool,
}

/// Run the pass for one HTTP workload.
pub fn serving_pass(input: &PassInput<'_>, tally: &mut Tally) -> Result<Pass, String> {
    let PassInput {
        plan,
        world,
        packed,
        served,
        schedule,
        key,
        smoke,
    } = *input;
    let started = Instant::now();
    let rec = Arc::new(Recorder::default());
    let config = pipeline_config();
    let llm = TimingLlm {
        inner: world.llm.clone(),
        rec: rec.clone(),
    };
    // the start of a round, which is what the server would see next
    let sample: Vec<&Request> = schedule
        .iter()
        .cycle()
        .take(sample_len(plan, smoke))
        .collect();
    let n = sample.len();

    // Round trips, one at a time, against the workload's server — a fresh
    // one when the workload starts every round cold.
    let fresh = if plan.paged {
        let assets = build_assets(plan, world, packed).map_err(|e| e.to_string())?;
        Some(Served::start(Arc::new(assets), plan.result_cache).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let target = fresh.as_ref().unwrap_or(served);
    let mut client = [Client::open(target.addr()).map_err(|e| format!("connect: {e}"))?];
    let raw = loadgen::drive(&mut client, &sample);
    let mut cached = vec![false; n];
    let mut round_trip_ms = vec![0.0; n];
    for (i, ms, reply) in &raw.replies {
        round_trip_ms[*i] = *ms;
        cached[*i] = reply
            .as_ref()
            .is_ok_and(|r| r.body.contains("\"from_cache\":true"));
    }
    loadgen::check(raw, &sample, key, None, tally);
    for _ in 0..if smoke { 20 } else { 300 } {
        let reply = rec.time("server.healthz_rtt", || client[0].get("/healthz"));
        if !reply.is_ok_and(|r| r.status == 200) {
            tally.fail("GET /healthz did not answer 200".to_owned());
        }
    }

    // The replay. Misses need assets: the server's own when they are
    // resident for good, a second paged cache walking the same evictions
    // otherwise.
    let replay_assets: Arc<AssetCache> = if plan.paged {
        Arc::new(build_assets(plan, world, packed).map_err(|e| e.to_string())?)
    } else {
        served.rt.assets().clone()
    };
    let coalescer = Arc::new(Coalescer::new());
    let fingerprint = target.rt.fingerprint();
    let limits = server_http::Limits::default();
    let mut answered: Vec<Recomposed> = Vec::new();
    let mut answered_db: Vec<&str> = Vec::new();
    for (i, req) in sample.iter().enumerate() {
        rec.set_request(Some(i as u32));
        let _root = rec.enter("request");
        let parsed = rec
            .time("server.http_parse", || {
                server_http::read_request(&mut BufReader::new(req.bytes.as_slice()), &limits)
            })
            .map_err(|e| format!("the server's parser rejects a benchmark request: {e:?}"))?
            .ok_or("the server's parser read no request")?;
        let fields = rec
            .time("server.json_parse", || {
                server_json::parse_string_object(&parsed.body)
            })
            .map_err(|e| format!("the server's JSON reader rejects a benchmark body: {e}"))?;
        let field = |name| server_json::field(&fields, name).unwrap_or("");
        let (db_id, question, evidence) = (field("db_id"), field("question"), field("evidence"));
        let result_key = rec.time("runtime.result_key", || {
            ResultKey::new(db_id, question, evidence, fingerprint)
        });
        let Joined::Leader(token) = rec.time("server.coalesce", || coalescer.join(result_key))
        else {
            return Err("a sequential replay found a request already in flight".to_owned());
        };
        tally.attempt(1);
        let sql = if cached[i] {
            let served_again = rec.time("runtime.submit_hit", || {
                target
                    .rt
                    .submit(QueryRequest::new(db_id, question, evidence))
                    .map(|t| t.wait())
            });
            match served_again {
                Ok(Ok(resp)) if resp.from_cache => resp.run.final_sql.clone(),
                other => {
                    tally.fail(format!(
                        "{question:?}: expected a cache hit in process, got {other:?}"
                    ));
                    String::new()
                }
            }
        } else {
            let builds_before = replay_assets.misses();
            let lookup = rec.enter("runtime.asset_hit");
            let pipeline = replay_assets.pipeline(db_id);
            if replay_assets.misses() > builds_before {
                lookup.finish_as("runtime.asset_build");
            } else {
                drop(lookup);
            }
            let pipeline: Arc<Pipeline> =
                pipeline.map_err(|miss| format!("assets for {db_id}: {miss:?}"))?;
            let run = recomposed_answer(&rec, pipeline.preprocessed(), &llm, &config, req);
            let sql = run.final_sql.clone();
            answered.push(run);
            answered_db.push(req.db_id.as_str());
            sql
        };
        if key
            .lookup(db_id, question, evidence)
            .map(|e| e.sql.as_str())
            != Some(sql.as_str())
        {
            tally.fail(format!(
                "{question:?}: the replay answered {sql:?}, not the answer key's SQL"
            ));
        }
        let body = rec.time("server.render", || {
            let mut obj = ObjectWriter::new();
            obj.str_field("db_id", db_id)
                .str_field("question", question)
                .str_field("sql", &sql)
                .str_field("trace_id", "replay")
                .bool_field("from_cache", cached[i])
                .u64_field("coalesced_group", 1)
                .f64_field("queue_wait_ms", 0.0)
                .f64_field("total_ms", round_trip_ms[i]);
            let body = obj.finish().into_bytes();
            let mut wire = Vec::with_capacity(body.len() + 160);
            let headers = [("x-osql-trace-id".to_owned(), "replay".to_owned())];
            server_http::write_response(&mut wire, 200, "application/json", &headers, &body, true)
                .expect("writing to a Vec cannot fail");
            body
        });
        rec.time("server.coalesce", || {
            token.complete(|_| Rendered {
                status: 200,
                body: Arc::new(body),
                retry_after_secs: None,
                trace_id: None,
            })
        });
    }
    rec.set_request(None);
    drop(client);

    // Stand-alone probes of single functions, on the inputs the replay saw.
    let mut failed_stmt_share = 0.0;
    if !answered.is_empty() {
        failed_stmt_share = probe_sqlkit(&rec, world, &answered, &answered_db, smoke, tally);
        probe_retrieval_and_assets(
            &rec,
            world,
            &replay_assets,
            &answered,
            &answered_db,
            plan.paged,
        )?;
    }
    let file_bytes_per_row = match packed {
        Some(packed) => probe_store_reads(&rec, world, packed)?,
        None => 0.0,
    };
    if let Some(fresh) = fresh {
        fresh.stop()?;
    }

    let all = rec.spans();
    let mut metrics = span_metrics(&all, &answered, &round_trip_ms);
    for (name, value) in [
        ("sqlkit.failed_stmt_share", failed_stmt_share),
        ("store.file_bytes_per_row", file_bytes_per_row),
    ] {
        metrics.insert(
            name.to_owned(),
            Measured::single(value, rounds::unit_of(name)),
        );
    }
    metrics.insert(
        "bench.layer_pass_s".to_owned(),
        Measured::single(started.elapsed().as_secs_f64(), "s"),
    );
    Ok(Pass {
        metrics,
        spans: all,
    })
}

/// Time sqlkit's entry points over the candidate statements the replay
/// produced (raw and refined, de-duplicated per database). Returns the
/// share of them that do not parse or do not execute.
fn probe_sqlkit(
    rec: &Recorder,
    world: &World,
    answered: &[Recomposed],
    answered_db: &[&str],
    smoke: bool,
    tally: &mut Tally,
) -> f64 {
    let cap = if smoke { 60 } else { 400 };
    let mut seen = HashSet::new();
    let mut statements: Vec<(&str, &str)> = Vec::new();
    'outer: for (run, db_id) in answered.iter().zip(answered_db) {
        for sql in &run.statements {
            if seen.insert((*db_id, sql.as_str())) {
                statements.push((db_id, sql));
                if statements.len() == cap {
                    break 'outer;
                }
            }
        }
    }
    let (total, mut broken) = (statements.len(), 0usize);
    for (db_id, sql) in statements {
        let Some(built) = world.bench.db(db_id) else {
            continue;
        };
        let db = &built.database;
        tally.attempt(1);
        let parsed = rec.time("sqlkit.parse", || sqlkit::parse_select(sql));
        rec.time("sqlkit.analyze", || sqlkit::analyze_sql(&db.schema, sql));
        let Ok(stmt) = parsed else {
            // the model writes broken SQL on purpose; refusing it is correct
            broken += 1;
            continue;
        };
        let Ok(prepared) = rec.time("sqlkit.prepare", || sqlkit::prepare(db, sql)) else {
            broken += 1;
            continue;
        };
        // first touch fills the process-wide cache, the second is the hit
        let _ = sqlkit::plan_cache().prepared(db, sql);
        let _ = rec.time("sqlkit.plan_hit", || sqlkit::plan_cache().prepared(db, sql));
        let planned = rec.time("sqlkit.execute", || prepared.execute(db));
        let raw = rec.time("sqlkit.execute_raw", || sqlkit::execute_select(db, &stmt));
        match (&planned, &raw) {
            (Ok(a), Ok(b)) if a.rows != b.rows => {
                tally.fail(format!("{sql}: planned and raw execution disagree"));
            }
            (Err(_), _) | (_, Err(_)) => broken += 1,
            _ => {}
        }
    }
    rounds::share(broken as f64, total as f64)
}

/// Time the vector side (embedding, value retrieval, index build) and the
/// asset cache's first and second touch.
fn probe_retrieval_and_assets(
    rec: &Recorder,
    world: &World,
    assets: &AssetCache,
    answered: &[Recomposed],
    answered_db: &[&str],
    paged: bool,
) -> Result<(), String> {
    let config = pipeline_config();
    let embedder = vecstore::Embedder::new();
    for (run, db_id) in answered.iter().zip(answered_db).take(60) {
        let pipeline = assets
            .pipeline(db_id)
            .map_err(|m| format!("assets for {db_id}: {m:?}"))?;
        let Some(db_assets) = pipeline.preprocessed().assets(db_id) else {
            continue;
        };
        for entity in &run.entities {
            rec.time("vecstore.embed", || embedder.embed(entity));
            rec.time("vecstore.value_retrieve", || {
                db_assets.values.retrieve(
                    entity,
                    config.retrieval_top_k,
                    config.retrieval_threshold,
                )
            });
        }
    }
    let dbs: Vec<&datagen::BuiltDb> = world.bench.dbs.iter().take(3).collect();
    for db in &dbs {
        rec.time("vecstore.index_build", || ValueIndex::build(db));
    }
    let (fewshot, tokens) = rec.time("core.fewshot_build", || {
        FewshotLibrary::build(world.llm.as_ref(), &world.bench.train)
    });
    let fewshot = Arc::new(fewshot);
    for db in &dbs {
        rec.time("core.preprocess_db", || {
            Preprocessed::for_db(world.bench.clone(), &db.id, fewshot.clone(), tokens)
        });
    }
    if !paged {
        // a paged replay has already recorded real builds and hits
        let pre = Preprocessed {
            benchmark: world.bench.clone(),
            db_assets: Default::default(),
            fewshot,
            build_tokens: tokens,
        };
        let cold = AssetCache::warmed_by(&pre, world.llm.clone(), config);
        for db in &dbs {
            let _ = rec.time("runtime.asset_build", || cold.pipeline(&db.id));
            let _ = rec.time("runtime.asset_hit", || cold.pipeline(&db.id));
        }
    }
    Ok(())
}

/// Time loading a packed store and a resident catalog lookup. Returns
/// packed bytes per stored row.
fn probe_store_reads(rec: &Recorder, world: &World, packed: &Packed) -> Result<f64, String> {
    let (mut file_bytes, mut rows) = (0u64, 0usize);
    let catalog = osql_runtime::open_paged_catalog(&packed.dir, u64::MAX, &world.bench.name)
        .map_err(|e| format!("open catalog: {e}"))?;
    for db in &world.bench.dbs {
        let path = catalog.store_path(&db.id);
        let imported = rec
            .time("store.cold_load", || datagen::import_store(&path))
            .map_err(|e| format!("import {}: {e}", path.display()))?;
        file_bytes += imported.file_bytes;
        rows += imported.db.database.total_rows();
        catalog
            .get(&db.id)
            .map_err(|e| format!("catalog load {}: {e}", db.id))?;
        for _ in 0..20 {
            rec.time("store.catalog_hit", || catalog.get(&db.id))
                .map_err(|e| format!("catalog hit {}: {e}", db.id))?;
        }
    }
    Ok(rounds::share(file_bytes as f64, rows as f64))
}

/// Turn spans and ledgers into the per-layer metrics.
fn span_metrics(
    all: &[Span],
    answered: &[Recomposed],
    round_trip_ms: &[f64],
) -> BTreeMap<String, Measured> {
    let by = spans::totals_by_name(all);
    let of = |name: &str| by.get(name).cloned().unwrap_or_default();
    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(
            name.to_owned(),
            Measured::single(value, rounds::unit_of(name)),
        );
    };
    let requests = of("request").count.max(1) as f64;
    for (metric, span) in [
        ("server.healthz_rtt_us", "server.healthz_rtt"),
        ("server.http_parse_us", "server.http_parse"),
        ("server.json_parse_us", "server.json_parse"),
        ("server.render_us", "server.render"),
        ("runtime.result_key_us", "runtime.result_key"),
        ("runtime.submit_hit_us", "runtime.submit_hit"),
        ("runtime.asset_hit_us", "runtime.asset_hit"),
        ("vecstore.embed_us", "vecstore.embed"),
        ("vecstore.value_retrieve_us", "vecstore.value_retrieve"),
        ("sqlkit.parse_us", "sqlkit.parse"),
        ("sqlkit.analyze_us", "sqlkit.analyze"),
        ("sqlkit.prepare_us", "sqlkit.prepare"),
        ("sqlkit.plan_hit_us", "sqlkit.plan_hit"),
        ("sqlkit.execute_us", "sqlkit.execute"),
        ("sqlkit.execute_raw_us", "sqlkit.execute_raw"),
        ("store.catalog_hit_us", "store.catalog_hit"),
    ] {
        put(metric, of(span).median_us());
    }
    for (metric, span) in [
        ("runtime.asset_build_ms", "runtime.asset_build"),
        ("vecstore.index_build_ms", "vecstore.index_build"),
        ("core.preprocess_db_ms", "core.preprocess_db"),
        ("core.fewshot_build_ms", "core.fewshot_build"),
        ("store.cold_load_ms", "store.cold_load"),
    ] {
        put(metric, of(span).median_us() / 1e3);
    }
    // join and complete are two spans of one request
    put(
        "server.coalesce_us",
        of("server.coalesce").total_ns as f64 / 1e3 / requests,
    );

    let answer = of("core.answer");
    let questions = answer.count as f64;
    let per_q_ms = |span: &str| rounds::share(of(span).total_ns as f64 / 1e6, questions);
    put("core.answer_ms", per_q_ms("core.answer"));
    put("core.extraction_ms", per_q_ms("core.extraction"));
    put("core.generation_ms", per_q_ms("core.generation"));
    put("core.refinement_ms", per_q_ms("core.refine"));
    put("core.vote_ms", per_q_ms("core.vote"));
    put(
        "core.unattributed_share",
        rounds::share(answer.self_ns as f64, answer.total_ns as f64),
    );
    let llm = of("llmsim.complete");
    put("llmsim.complete_us", llm.mean_us());
    put(
        "llmsim.calls_per_q",
        rounds::share(llm.count as f64, questions),
    );
    put(
        "llmsim.share_of_answer",
        rounds::share(llm.total_ns as f64, answer.total_ns as f64),
    );
    let per_q = |total: f64| rounds::share(total, questions);
    put(
        "core.candidates_per_q",
        per_q(answered.iter().map(|r| r.candidates as f64).sum()),
    );
    put(
        "core.correction_rounds_per_q",
        per_q(answered.iter().map(|r| r.correction_rounds as f64).sum()),
    );
    put(
        "core.analyze_skips_per_q",
        per_q(answered.iter().map(|r| r.analyze_skips as f64).sum()),
    );
    let ledger_sum = |f: fn(opensearch_sql::ModuleCost) -> f64| -> f64 {
        answered
            .iter()
            .flat_map(|r| LLM_MODULES.iter().map(|m| f(r.ledger.get(*m))))
            .sum()
    };
    put(
        "core.llm_tokens_per_q",
        per_q(ledger_sum(|c| c.tokens as f64)),
    );
    put(
        "core.modelled_llm_ms_per_q",
        per_q(ledger_sum(|c| c.time_ms)),
    );

    // layer self time under the request roots, against the same requests'
    // round trips over the socket
    let selfs = spans::self_times_ns(all);
    let attributed_ns: u64 = all
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.request.is_some() && s.name != "request")
        .map(|(_, self_ns)| *self_ns)
        .sum();
    let round_trips_ns: f64 = round_trip_ms.iter().sum::<f64>() * 1e6;
    put(
        "bench.unattributed_share",
        1.0 - rounds::share(attributed_ns as f64, round_trips_ns),
    );
    out
}
