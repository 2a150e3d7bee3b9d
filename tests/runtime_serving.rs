//! Determinism under concurrency: the `osql-runtime` worker pool must be
//! an invisible implementation detail. Whatever the worker count, queue
//! pressure, or cache state, the answers — and therefore every EX/R-VES
//! number — must match the sequential pipeline bit for bit.

use datagen::{generate, Profile};
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::{evaluate, EvalReport, Pipeline, PipelineConfig, Preprocessed};
use osql_runtime::{AssetCache, QueryRequest, Runtime, RuntimeConfig};
use std::sync::Arc;

struct Fixture {
    benchmark: Arc<datagen::Benchmark>,
    pre: Arc<Preprocessed>,
    llm: Arc<SimLlm>,
}

fn fixture(seed: u64) -> Fixture {
    let mut profile = Profile::tiny();
    profile.train = 50;
    profile.dev = 30;
    profile.n_databases = 3;
    profile.n_domains = 3;
    let benchmark = Arc::new(generate(&profile));
    let oracle = Arc::new(Oracle::new(benchmark.clone()));
    let llm = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), seed));
    let pre = Arc::new(Preprocessed::run(benchmark.clone(), llm.as_ref()));
    Fixture { benchmark, pre, llm }
}

impl Fixture {
    fn pipeline(&self) -> Pipeline {
        Pipeline::new(self.pre.clone(), self.llm.clone(), PipelineConfig::fast())
    }

    fn runtime(&self, workers: usize) -> Runtime {
        let assets = Arc::new(AssetCache::warmed_by(
            &self.pre,
            self.llm.clone(),
            PipelineConfig::fast(),
        ));
        Runtime::start(
            assets,
            RuntimeConfig { workers, queue_capacity: 8, result_cache_capacity: 128, ..RuntimeConfig::default() },
        )
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
fn evaluate_is_invariant_to_scoring_thread_count() {
    let f = fixture(31);
    let dev = f.benchmark.dev.clone();
    let one = evaluate(&f.pipeline(), &dev, 1);
    let eight = evaluate(&f.pipeline(), &dev, 8);
    assert_reports_equal(&one, &eight, "threads=1 vs threads=8");
}

#[test]
fn runtime_ex_matches_sequential_at_any_worker_count() {
    let f = fixture(32);
    let dev = f.benchmark.dev.clone();
    let sequential = evaluate(&f.pipeline(), &dev, 2);
    for workers in [1usize, 2, 4, 8] {
        let rt = f.runtime(workers);
        let served = rt.evaluate(&dev, 2);
        assert_reports_equal(&sequential, &served, &format!("{workers} worker(s)"));
    }
}

#[test]
fn result_cache_serves_the_same_sql_as_the_cold_run() {
    let f = fixture(33);
    let rt = f.runtime(4);
    let requests: Vec<QueryRequest> = f
        .benchmark
        .dev
        .iter()
        .take(10)
        .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
        .collect();

    let cold: Vec<String> = rt
        .run_batch(requests.clone())
        .into_iter()
        .map(|r| r.expect("cold batch must serve").run.final_sql.clone())
        .collect();
    let warm: Vec<(String, bool)> = rt
        .run_batch(requests)
        .into_iter()
        .map(|r| {
            let resp = r.expect("warm batch must serve");
            (resp.run.final_sql.clone(), resp.from_cache)
        })
        .collect();

    for (i, ((cold_sql, (warm_sql, from_cache)), ex)) in
        cold.iter().zip(&warm).zip(f.benchmark.dev.iter()).enumerate()
    {
        assert!(from_cache, "request {i} ({:?}) missed the warm cache", ex.question);
        assert_eq!(cold_sql, warm_sql, "request {i} ({:?}) changed under caching", ex.question);
    }
    assert_eq!(rt.metrics().counter("result_cache_hits").get(), 10);
}
