//! Retrieval microbenchmarks: HNSW vs exact flat search, at the sizes the
//! server actually builds — one database's value corpus (~500 strings,
//! rebuilt on every page-in) and the few-shot library (1,500 masked
//! questions) — plus a size sweep that locates where HNSW overtakes flat.
//! The §4.6 claim (HNSW takes retrieval off the critical path) is
//! re-measured in EXPERIMENTS.md from these numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{build::build_db, domain::themes, generate, Profile, RowScale};
use vecstore::{mask_question, Embedder, FlatIndex, Hnsw, VectorIndex};

/// The first `n` indexed (textual) stored values of BIRD-scale databases.
fn value_corpus(n: usize) -> Vec<String> {
    let theme_lib = themes();
    let mut values = Vec::new();
    for i in 0.. {
        let theme = &theme_lib[i % theme_lib.len()];
        let db = build_db(theme, &format!("db{i}"), "bench", RowScale::bird(), 0.55, i as u64);
        for t in &db.tables {
            for c in t.cols.iter().filter(|c| c.kind.is_textual()) {
                values.extend(db.stored_values(&t.name, &c.name));
            }
        }
        if values.len() >= n {
            break;
        }
    }
    values.truncate(n);
    values
}

/// What `FewshotLibrary::build` indexes: the masked train questions.
fn masked_questions() -> Vec<String> {
    generate(&Profile::bird_mini_dev()).train.iter().map(|ex| mask_question(&ex.question)).collect()
}

fn embed_all(texts: &[String]) -> Vec<Vec<f32>> {
    let embedder = Embedder::new();
    texts.iter().map(|t| embedder.embed(t)).collect()
}

fn build<I: VectorIndex>(mut index: I, embedded: &[Vec<f32>]) -> I {
    for e in embedded {
        index.add(e.clone());
    }
    index
}

fn bench_pair(c: &mut Criterion, corpus: &str, embedded: &[Vec<f32>], queries: &[Vec<f32>]) {
    let n = embedded.len();
    let mut group = c.benchmark_group(format!("{corpus}_build"));
    group.bench_function(BenchmarkId::new("flat", n), |b| {
        b.iter(|| build(FlatIndex::new(), embedded).len())
    });
    group.bench_function(BenchmarkId::new("hnsw", n), |b| {
        b.iter(|| build(Hnsw::default(), embedded).len())
    });
    group.finish();

    let (flat, hnsw) = (build(FlatIndex::new(), embedded), build(Hnsw::default(), embedded));
    let mut group = c.benchmark_group(format!("{corpus}_search"));
    group.bench_with_input(BenchmarkId::new("flat", n), queries, |b, qs| {
        b.iter(|| qs.iter().map(|q| flat.search(q, 5).len()).sum::<usize>())
    });
    group.bench_with_input(BenchmarkId::new("hnsw", n), queries, |b, qs| {
        b.iter(|| qs.iter().map(|q| hnsw.search(q, 5).len()).sum::<usize>())
    });
    group.finish();
}

/// Five queries per measured iteration, as value retrieval issues for a
/// question with a few entity mentions.
fn bench_retrieval(c: &mut Criterion) {
    let value_queries =
        embed_all(&["Oslo", "John Smith", "tier two", "approved", "silver"].map(String::from));
    let question_queries = embed_all(
        &[
            "How many patients from Oslo were admitted after 1990?",
            "List the names of players taller than 180",
            "What is the average salary per department?",
            "Which school has the highest enrollment in 2015?",
            "For each city, count the approved loans",
        ]
        .map(mask_question),
    );
    // one database's value corpus, then the size sweep for the crossover
    let values = embed_all(&value_corpus(8_000));
    for n in [500, 125, 250, 1_000, 2_000, 4_000, 8_000] {
        bench_pair(c, "values", &values[..n], &value_queries);
    }
    bench_pair(c, "masked_questions", &embed_all(&masked_questions()), &question_queries);
}

fn bench_embedder(c: &mut Criterion) {
    let embedder = Embedder::new();
    c.bench_function("embed_question", |b| {
        b.iter(|| embedder.embed("How many patients from Oslo were admitted after 1990?"))
    });
    c.bench_function("embed_value", |b| b.iter(|| embedder.embed("John Smith")));
}

criterion_group!(benches, bench_retrieval, bench_embedder);
criterion_main!(benches);
