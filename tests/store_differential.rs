//! Differential suite for demand-paged serving: a runtime paging its
//! databases out of `osql-store` files must be an invisible
//! implementation detail. At any eviction budget — everything resident,
//! half, or room for a single database — every served answer, every
//! logical trace (volatile events excluded), and every EX/R-VES number
//! must match the eager in-memory runtime exactly.

use datagen::{generate, Benchmark, Example, Profile};
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::{evaluate_with, EvalReport, PipelineConfig};
use osql_runtime::{open_paged_catalog, AssetCache, QueryRequest, Runtime, RuntimeConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osql-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Fixture {
    benchmark: Arc<Benchmark>,
    llm: Arc<SimLlm>,
    dir: PathBuf,
    store_sizes: Vec<u64>,
}

fn fixture(tag: &str) -> Fixture {
    let mut profile = Profile::tiny();
    profile.train = 40;
    profile.dev = 24;
    profile.n_databases = 4;
    profile.n_domains = 4;
    let benchmark = Arc::new(generate(&profile));
    let llm = Arc::new(SimLlm::new(
        Arc::new(Oracle::new(benchmark.clone())),
        ModelProfile::gpt_4o(),
        0x57E0,
    ));
    let dir = tmpdir(tag);
    let paths = datagen::export_store(&benchmark, &dir).unwrap();
    let store_sizes =
        paths.iter().map(|p| std::fs::metadata(p).unwrap().len()).collect();
    Fixture { benchmark, llm, dir, store_sizes }
}

impl Fixture {
    fn eager_runtime(&self) -> Runtime {
        let assets = Arc::new(AssetCache::new(
            self.benchmark.clone(),
            self.llm.clone(),
            PipelineConfig::fast(),
        ));
        Runtime::start(assets, RuntimeConfig::with_workers(2))
    }

    fn paged_runtime(&self, budget: u64) -> Runtime {
        let catalog =
            Arc::new(open_paged_catalog(&self.dir, budget, &self.benchmark.name).unwrap());
        let assets = Arc::new(AssetCache::paged(
            catalog,
            self.llm.clone(),
            PipelineConfig::fast(),
            &self.benchmark.train,
        ));
        Runtime::start(assets, RuntimeConfig::with_workers(2))
    }

    /// Budgets the acceptance criteria name: everything resident, half,
    /// and just enough for the single largest database.
    fn budgets(&self) -> [(u64, &'static str); 3] {
        let total: u64 = self.store_sizes.iter().sum();
        let single = *self.store_sizes.iter().max().unwrap();
        [(total, "100%"), ((total / 2).max(single), "50%"), (single, "min-single-db")]
    }

    fn requests(&self) -> Vec<QueryRequest> {
        self.benchmark
            .dev
            .iter()
            .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
            .collect()
    }
}

fn assert_reports_equal(a: &EvalReport, b: &EvalReport, context: &str) {
    assert_eq!(a.n, b.n, "n differs: {context}");
    assert_eq!(a.ex_g, b.ex_g, "ex_g differs: {context}");
    assert_eq!(a.ex_r, b.ex_r, "ex_r differs: {context}");
    assert_eq!(a.ex, b.ex, "ex differs: {context}");
    assert_eq!(a.r_ves, b.r_ves, "r_ves differs: {context}");
    assert_eq!(a.by_difficulty, b.by_difficulty, "by_difficulty differs: {context}");
}

#[test]
fn paged_serving_is_byte_identical_to_in_memory_at_any_budget() {
    let f = fixture("serve");
    let requests = f.requests();
    let eager = f.eager_runtime();
    let baseline: Vec<(String, usize, String, String)> = eager
        .run_batch(requests.clone())
        .into_iter()
        .map(|r| {
            let run = r.expect("eager runtime must serve").run;
            (
                run.final_sql.clone(),
                run.winner,
                run.sql_g.clone(),
                run.trace.render_logical(),
            )
        })
        .collect();

    for (budget, label) in f.budgets() {
        let rt = f.paged_runtime(budget);
        let served = rt.run_batch(requests.clone());
        assert_eq!(served.len(), baseline.len());
        for (i, (outcome, want)) in served.into_iter().zip(&baseline).enumerate() {
            let run = outcome
                .unwrap_or_else(|e| panic!("budget {label}: request {i} failed: {e}"))
                .run;
            assert_eq!(run.final_sql, want.0, "budget {label}: final_sql differs at {i}");
            assert_eq!(run.winner, want.1, "budget {label}: winner differs at {i}");
            assert_eq!(run.sql_g, want.2, "budget {label}: sql_g differs at {i}");
            assert_eq!(
                run.trace.render_logical(),
                want.3,
                "budget {label}: logical trace differs at {i}"
            );
        }
        let cat = rt.assets().catalog().unwrap();
        assert!(
            cat.resident_bytes() <= budget,
            "budget {label}: {} resident bytes exceed the {budget} budget",
            cat.resident_bytes()
        );
    }
    std::fs::remove_dir_all(&f.dir).unwrap();
}

#[test]
fn paged_eval_scores_match_in_memory_at_any_budget() {
    let f = fixture("eval");
    let dev: Vec<Example> = f.benchmark.dev.clone();
    let eager = f.eager_runtime();
    let want = evaluate_with(&eager, &f.benchmark, &dev, 2);
    for (budget, label) in f.budgets() {
        let rt = f.paged_runtime(budget);
        let got = evaluate_with(&rt, &f.benchmark, &dev, 2);
        assert_reports_equal(&want, &got, &format!("budget {label}"));
    }
    std::fs::remove_dir_all(&f.dir).unwrap();
}

#[test]
fn under_budget_catalog_still_serves_every_question_and_evicts() {
    let f = fixture("tight");
    let total: u64 = f.store_sizes.iter().sum();
    let single = *f.store_sizes.iter().max().unwrap();
    assert!(single < total, "fixture needs more than one database");
    let rt = f.paged_runtime(single);
    let mut traced_builds = 0;
    for outcome in rt.run_batch(f.requests()) {
        let resp = outcome.expect("a one-db budget must still serve every question");
        assert!(resp.run.final_sql.to_uppercase().starts_with("SELECT"));
        // the request that paid for a rebuild says so in its own trace
        for ev in resp.run.trace.events_named("asset_build") {
            assert!(ev.volatile, "rebuilds depend on cache state, not on the query");
            assert_eq!(ev.label("db"), Some(resp.run.db_id.as_str()));
            assert!(ev.timing("us").is_some());
            traced_builds += 1;
        }
    }
    let cat = rt.assets().catalog().unwrap();
    assert!(cat.evictions() > 0, "thrashing across dbs under a one-db budget must evict");
    assert!(cat.resident_bytes() <= single);
    let builds = rt.assets().misses();
    assert!(builds > f.benchmark.dbs.len() as u64, "every page-in rebuilds the assets");
    assert_eq!(traced_builds, builds, "one asset_build event per rebuild");
    let metrics = rt.refreshed_metrics();
    assert_eq!(metrics.counter("asset_builds_total").get(), builds);
    assert_eq!(
        metrics.counter("db_load_total").get(),
        cat.loads(),
        "metrics mirror tracks the catalog"
    );
    assert!(metrics.counter("db_evict_total").get() > 0);
    std::fs::remove_dir_all(&f.dir).unwrap();
}
