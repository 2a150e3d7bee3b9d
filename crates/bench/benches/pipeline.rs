//! End-to-end pipeline benchmarks: one question through the full
//! OpenSearch-SQL pipeline, the alignment passes in isolation, and the
//! self-consistency vote.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::Profile;
use llmsim::ModelProfile;
use opensearch_sql::refinement::{execute, vote, RefinedCandidate};
use opensearch_sql::retrieval::ValueIndex;
use opensearch_sql::{align_candidate, CostLedger, PipelineConfig};
use osql_bench::World;
use std::sync::Arc;

fn bench_pipeline(c: &mut Criterion) {
    let world = World::build(&Profile::tiny());
    let ex = world.benchmark.dev[0].clone();

    let mut group = c.benchmark_group("pipeline_answer");
    group.sample_size(20);
    for (name, config) in [
        ("n1_no_vote", PipelineConfig::full().without_self_consistency()),
        ("n21_full", PipelineConfig::full()),
    ] {
        let pipeline = world.pipeline(config, ModelProfile::gpt_4o());
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(pipeline.answer(&ex.db_id, &ex.question, &ex.evidence))
            })
        });
    }
    group.finish();
}

/// Sequential vs parallel candidate refinement. The parallel path must
/// produce byte-identical runs (asserted by pipeline unit tests); this
/// group measures what the thread pool actually buys on a full beam.
fn bench_refine_threads(c: &mut Criterion) {
    let world = World::build(&Profile::tiny());
    let ex = world.benchmark.dev[0].clone();
    let mut group = c.benchmark_group("pipeline_refine");
    group.sample_size(20);
    for (name, threads) in [("seq_1", 1usize), ("par_4", 4)] {
        let pipeline = world
            .pipeline(PipelineConfig::full().with_refine_threads(threads), ModelProfile::gpt_4o());
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(pipeline.answer(&ex.db_id, &ex.question, &ex.evidence)))
        });
    }
    group.finish();
}

fn bench_alignment(c: &mut Criterion) {
    let world = World::build(&Profile::tiny());
    let db = &world.benchmark.dbs[0];
    let values = ValueIndex::build(db);
    let table = &db.tables[0].name;
    let col = &db.tables[0].cols[1].name;
    let sql = format!(
        "SELECT {c} FROM {t} WHERE {c} = 'nonexistent value' ORDER BY MAX({c}) DESC",
        t = table,
        c = col
    );
    c.bench_function("alignment_pass", |b| {
        b.iter(|| {
            let mut ledger = CostLedger::new();
            std::hint::black_box(align_candidate(
                &sql,
                &db.database.schema,
                &values,
                Some(1),
                &mut ledger,
            ))
        })
    });
}

fn bench_vote(c: &mut Criterion) {
    let world = World::build(&Profile::tiny());
    let db = &world.benchmark.dbs[0];
    let ex = world
        .benchmark
        .dev
        .iter()
        .find(|e| e.db_id == db.id)
        .expect("dev example on first db");
    // 21 candidates with mixed answers
    let candidates: Vec<RefinedCandidate> = (0..21)
        .map(|i| {
            let sql = if i % 3 == 0 {
                format!("{} LIMIT 1", ex.gold_sql)
            } else {
                ex.gold_sql.clone()
            };
            let (result, cost, ms) = execute(&db.database, &sql);
            RefinedCandidate {
                raw_sql: sql.clone(),
                sql,
                result: result.map(Arc::new),
                exec_cost: cost,
                exec_ms: ms,
                correction_rounds: 0,
                analyze_skips: 0,
            }
        })
        .collect();
    c.bench_function("vote_21_candidates", |b| {
        b.iter(|| {
            let mut ledger = CostLedger::new();
            std::hint::black_box(vote(&candidates, &mut ledger))
        })
    });
}

criterion_group!(benches, bench_pipeline, bench_refine_threads, bench_alignment, bench_vote);
criterion_main!(benches);
