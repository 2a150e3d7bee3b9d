//! Worker scaling against a latency-bound model: one batch of dev
//! questions through the `osql-runtime` worker pool at 1/2/4/8 workers,
//! cold result cache per iteration. (CPU-bound serving throughput and the
//! warm-cache path are `perfbench` workloads.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::Profile;
use llmsim::{ChatRequest, ChatResponse, LanguageModel, ModelProfile};
use opensearch_sql::PipelineConfig;
use osql_bench::World;
use osql_runtime::{AssetCache, QueryRequest, Runtime, RuntimeConfig};
use std::sync::Arc;

/// Realizes a fraction of the model's *modelled* latency as real sleep,
/// emulating a latency-bound chat endpoint. LLM serving throughput comes
/// from overlapping those waits, so this is where worker scaling shows —
/// including on single-core machines, where the CPU-bound benches can't
/// spread out.
struct LatencyBound {
    inner: Arc<dyn LanguageModel>,
    divisor: f64,
}

impl LanguageModel for LatencyBound {
    fn complete(&self, req: &ChatRequest) -> ChatResponse {
        let resp = self.inner.complete(req);
        std::thread::sleep(std::time::Duration::from_secs_f64(
            resp.latency_ms / self.divisor / 1e3,
        ));
        resp
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

fn batch(world: &World, n: usize) -> Vec<QueryRequest> {
    world
        .benchmark
        .dev
        .iter()
        .cycle()
        .take(n)
        .map(|ex| QueryRequest::new(&ex.db_id, &ex.question, &ex.evidence))
        .collect()
}

fn bench_latency_bound(c: &mut Criterion) {
    let world = World::build(&Profile::tiny());
    let requests = batch(&world, 12);
    let config = PipelineConfig::fast();

    let mut group = c.benchmark_group("serving_latency_bound");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let llm = Arc::new(LatencyBound {
            inner: world.model(ModelProfile::gpt_4o()),
            divisor: 400.0, // ~600ms of modelled latency → ~1.5ms real wait
        });
        let assets = Arc::new(AssetCache::warmed_by(&world.preprocessed, llm, config.clone()));
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let rt = Runtime::start(
                        assets.clone(),
                        RuntimeConfig { workers, queue_capacity: 16, result_cache_capacity: 64, ..RuntimeConfig::default() },
                    );
                    std::hint::black_box(rt.run_batch(requests.clone()));
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_latency_bound);
criterion_main!(benches);
