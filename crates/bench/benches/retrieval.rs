//! Retrieval microbenchmarks: exact flat search vs HNSW vs the postings
//! retrieval is served from (`vecstore::ServingIndex`), on the two kinds
//! of corpus the server builds — a database's value corpus (~500 strings
//! of ~13 non-zeros, rebuilt on every page-in) and the few-shot library
//! (1,500 masked questions of ~63) — each swept over sizes. The §4.6
//! claim (HNSW takes retrieval off the critical path) is re-measured in
//! EXPERIMENTS.md from these numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{build::build_db, domain::themes, generate, Profile, RowScale};
use vecstore::{mask_question, Embedder, FlatIndex, Hnsw, Neighbor, ServingIndex, VectorIndex};

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

fn added<I: VectorIndex>(mut index: I, embedded: &[Vec<f32>]) -> I {
    for e in embedded {
        index.add(e.clone());
    }
    index
}

/// One index kind: how it is built over a corpus and how it is searched.
struct Arm<I> {
    name: &'static str,
    build: fn(&[Vec<f32>]) -> I,
    search: fn(&I, &[f32], usize) -> Vec<Neighbor>,
}

impl<I> Arm<I> {
    fn searches(&self, index: &I, queries: &[Vec<f32>]) -> usize {
        queries.iter().map(|q| (self.search)(index, q, 5).len()).sum()
    }
}

/// One index on one corpus: build, five searches, and a page-in — build
/// plus fifteen searches, what a `paged_mix` visit pays before the
/// database is evicted again.
fn bench_arm<I>(c: &mut Criterion, corpus: &str, arm: &Arm<I>, embedded: &[Vec<f32>], queries: &[Vec<f32>]) {
    let id = || BenchmarkId::new(arm.name, embedded.len());
    let mut group = c.benchmark_group(format!("{corpus}_build"));
    group.bench_function(id(), |b| b.iter(|| (arm.build)(embedded)));
    group.finish();

    let built = (arm.build)(embedded);
    let mut group = c.benchmark_group(format!("{corpus}_search"));
    group.bench_with_input(id(), queries, |b, qs| b.iter(|| arm.searches(&built, qs)));
    group.finish();

    let mut group = c.benchmark_group(format!("{corpus}_page_in"));
    group.bench_with_input(id(), queries, |b, qs| {
        b.iter(|| {
            let index = (arm.build)(embedded);
            (0..3).map(|_| arm.searches(&index, qs)).sum::<usize>()
        })
    });
    group.finish();
}

/// One corpus, three indexes: the exact scan, the graph, and the postings
/// retrieval is served from.
fn bench_corpus(c: &mut Criterion, corpus: &str, embedded: &[Vec<f32>], queries: &[Vec<f32>]) {
    let flat = Arm { name: "flat", build: |e| added(FlatIndex::new(), e), search: FlatIndex::search };
    let hnsw = Arm { name: "hnsw", build: |e| added(Hnsw::default(), e), search: Hnsw::search };
    let postings = Arm {
        name: "postings",
        build: |e| ServingIndex::build(e.iter().cloned()),
        search: ServingIndex::search,
    };
    let (n, nnz) = (embedded.len(), (postings.build)(embedded).nnz());
    println!("{corpus}/{n}: {n} vectors, {nnz} stored non-zeros ({:.1} a vector)", nnz as f64 / n as f64);
    bench_arm(c, corpus, &flat, embedded, queries);
    bench_arm(c, corpus, &hnsw, embedded, queries);
    bench_arm(c, corpus, &postings, embedded, queries);
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
    // one database's value corpus first, then size sweeps: sparse
    // vectors, then dense ones
    let values = embed_all(&value_corpus(8_000));
    for n in [500, 125, 250, 1_000, 2_000, 4_000, 8_000] {
        bench_corpus(c, "values", &values[..n], &value_queries);
    }
    let questions = embed_all(&masked_questions());
    for n in [250, 500, 1_000, questions.len()] {
        bench_corpus(c, "masked_questions", &questions[..n], &question_queries);
    }
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
