//! Integration across the substrates: benchmark generation × SQL engine ×
//! retrieval × simulated model, independent of the pipeline.

use datagen::{generate, Profile};
use llmsim::{proto, ChatRequest, LanguageModel, ModelProfile, Oracle, SimLlm};
use opensearch_sql::ValueIndex;
use std::sync::Arc;

fn benchmark() -> Arc<datagen::Benchmark> {
    let mut profile = Profile::tiny();
    profile.train = 50;
    profile.dev = 30;
    profile.n_databases = 4;
    profile.n_domains = 4;
    Arc::new(generate(&profile))
}

#[test]
fn every_gold_sql_round_trips_through_the_engine() {
    let b = benchmark();
    for ex in b.train.iter().chain(&b.dev) {
        let db = b.db(&ex.db_id).unwrap();
        let ast = sqlkit::parse_select(&ex.gold_sql)
            .unwrap_or_else(|e| panic!("gold does not parse: {e}: {}", ex.gold_sql));
        assert_eq!(
            sqlkit::parse_select(&sqlkit::print_select(&ast)).unwrap(),
            ast,
            "gold round-trips"
        );
        let rs = db.database.query(&ex.gold_sql).unwrap();
        assert!(!rs.is_effectively_empty(), "gold answers are non-empty: {}", ex.gold_sql);
    }
}

#[test]
fn value_index_covers_every_gold_text_filter() {
    let b = benchmark();
    for db in &b.dbs {
        let index = ValueIndex::build(db);
        for ex in b.dev.iter().filter(|e| e.db_id == db.id) {
            for f in &ex.spec.filters {
                if let sqlkit::Value::Text(stored) = &f.value {
                    if f.year_of_date {
                        continue;
                    }
                    let meta = db.col_meta(&f.table, &f.column).unwrap();
                    if meta.kind.is_textual() {
                        assert!(
                            index.contains(&f.table, &f.column, stored),
                            "index must hold {}.{} = {stored:?}",
                            f.table,
                            f.column
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn retrieval_finds_stored_forms_from_question_wording() {
    let b = benchmark();
    let mut total = 0;
    let mut found = 0;
    for db in &b.dbs {
        let index = ValueIndex::build(db);
        for ex in b.dev.iter().filter(|e| e.db_id == db.id) {
            for f in &ex.spec.filters {
                let sqlkit::Value::Text(stored) = &f.value else { continue };
                if f.year_of_date || !f.display_mismatch() {
                    continue;
                }
                total += 1;
                let hits = index.retrieve(&f.display, 5, 0.4);
                if hits.iter().any(|h| h.stored == *stored) {
                    found += 1;
                }
            }
        }
    }
    if total > 0 {
        let recall = found as f64 / total as f64;
        assert!(recall >= 0.9, "display→stored recall {recall:.2} ({found}/{total})");
    }
}

/// Recall of the HNSW graph on a corpus at the scale where a graph could
/// earn its place in serving again (every corpus is served from exact
/// postings today): a hashed-embedding value corpus of 8,000 strings
/// (~103 k stored non-zeros; the corpus of `benches/retrieval.rs`), at
/// the pipeline's own two settings. What is
/// counted is what a caller loses: hits of the exact top-k that clear the
/// threshold and that the graph's top-k has no equal of (compared by score,
/// so a tie resolved differently is not a miss). Measured figures are in
/// EXPERIMENTS.md §4.6; the floors sit a few points under them.
#[test]
fn graph_recall_on_a_value_corpus_above_the_serving_threshold() {
    use datagen::{build::build_db, domain::themes, RowScale};
    use vecstore::{Embedder, FlatIndex, Hnsw, HnswConfig, VectorIndex};

    let theme_lib = themes();
    let mut values: Vec<String> = Vec::new();
    for i in 0.. {
        let theme = &theme_lib[i % theme_lib.len()];
        let db = build_db(theme, &format!("db{i}"), "bench", RowScale::bird(), 0.55, i as u64);
        for t in &db.tables {
            for c in t.cols.iter().filter(|c| c.kind.is_textual()) {
                values.extend(db.stored_values(&t.name, &c.name));
            }
        }
        if values.len() >= 8_000 {
            break;
        }
    }
    values.truncate(8_000);

    let embedder = Embedder::new();
    let mut graph = Hnsw::new(HnswConfig { seed: 0x71ED, ..HnswConfig::default() });
    let mut exact = FlatIndex::new();
    for v in &values {
        graph.add(embedder.embed(v));
        exact.add(embedder.embed(v));
    }
    // mentions as extraction and correction produce them: a stored form,
    // its re-cased and re-spaced wording, and its first word
    let mut queries: Vec<String> = Vec::new();
    for v in values.iter().step_by(16) {
        queries.push(v.clone());
        queries.push(v.to_lowercase().replace('_', " "));
        queries.extend(v.split_whitespace().next().map(str::to_owned));
    }
    for (k, threshold, floor) in [(5, 0.65f32, 0.93), (3, 0.4, 0.93)] {
        let (mut wanted, mut missed) = (0usize, 0usize);
        for q in &queries {
            let q = embedder.embed(q);
            let mut got: Vec<u32> = graph.search(&q, k).iter().map(|n| n.score.to_bits()).collect();
            for hit in exact.search(&q, k).iter().filter(|n| n.score >= threshold) {
                wanted += 1;
                match got.iter().position(|bits| *bits == hit.score.to_bits()) {
                    Some(at) => drop(got.swap_remove(at)),
                    None => missed += 1,
                }
            }
        }
        let recall = 1.0 - missed as f64 / wanted as f64;
        println!("graph recall at ({k}, {threshold}): {recall:.4} ({missed} of {wanted} above-threshold hits missed)");
        assert!(wanted > 2_000, "the probe must ask for real work, got {wanted} hits");
        assert!(recall >= floor, "graph recall at ({k}, {threshold}) fell to {recall:.4}, floor {floor}");
    }
}

#[test]
fn oracle_resolves_every_benchmark_question() {
    let b = benchmark();
    let oracle = Oracle::new(b.clone());
    for ex in b.train.iter().chain(&b.dev) {
        let entry = oracle.lookup(&ex.question).expect("every question registered");
        assert!(b.db(&entry.db_id).is_some());
    }
}

#[test]
fn simulated_model_protocol_is_self_consistent() {
    let b = benchmark();
    let oracle = Arc::new(Oracle::new(b.clone()));
    let llm = SimLlm::new(oracle, ModelProfile::gpt_4o(), 31);
    let ex = &b.dev[0];
    let db = b.db(&ex.db_id).unwrap();

    // a fully-specified generation prompt must round-trip through the
    // protocol parser the simulator itself uses
    let prompt = format!(
        "{} {}\n{} {}\n{}\n{}\n{}\n/* Answer the following: {} */\n",
        proto::TASK_PREFIX,
        proto::TASK_GENERATION,
        proto::DB_PREFIX,
        ex.db_id,
        proto::SCHEMA_HEADER,
        db.database.schema.describe(None),
        proto::FORMAT_STRUCTURED_COT,
        ex.question,
    );
    assert_eq!(proto::parse_task(&prompt), proto::TASK_GENERATION);
    assert_eq!(proto::parse_db(&prompt), Some(ex.db_id.as_str()));
    assert_eq!(proto::parse_question(&prompt), Some(ex.question.as_str()));
    assert_eq!(
        proto::parse_schema_columns(&prompt).len(),
        db.database.schema.column_count()
    );

    let resp = llm.complete(&ChatRequest { prompt, temperature: 0.0, n: 2, seed_tag: 0 });
    for text in &resp.texts {
        let sql = proto::parse_sql_from_response(text).expect("structured responses carry #SQL");
        assert!(sqlkit::parse_select(sql).is_ok() || sql.contains("FORM"), "{sql}");
        assert!(text.contains("#reason:"), "structured CoT fields present");
        assert!(text.contains("#SQL-like:"));
    }
}

#[test]
fn mqs_masking_clusters_parallel_questions() {
    use vecstore::{mask_question, Embedder};
    let b = benchmark();
    let e = Embedder::new();
    // questions sharing a spec shape should be closer under MQs than
    // unrelated ones, measured on real benchmark questions
    let counts: Vec<&datagen::Example> = b
        .train
        .iter()
        .filter(|x| x.question.starts_with("How many"))
        .take(2)
        .collect();
    let other: Vec<&datagen::Example> = b
        .train
        .iter()
        .filter(|x| x.question.starts_with("What is") || x.question.starts_with("For each"))
        .take(1)
        .collect();
    if counts.len() == 2 && other.len() == 1 {
        let emb = |q: &str| e.embed(&mask_question(q));
        let same = Embedder::cosine(&emb(&counts[0].question), &emb(&counts[1].question));
        let diff = Embedder::cosine(&emb(&counts[0].question), &emb(&other[0].question));
        assert!(
            same > diff,
            "same-shape questions ({same:.2}) should beat different-shape ({diff:.2})"
        );
    }
}

#[test]
fn benchmarks_scale_with_profile() {
    let small = generate(&Profile::tiny());
    let mut bigger_profile = Profile::tiny();
    bigger_profile.train = 80;
    bigger_profile.dev = 30;
    let bigger = generate(&bigger_profile);
    assert!(bigger.train.len() > small.train.len());
    assert_eq!(bigger.dev.len(), 30);
}
