//! Engine golden: the legacy FROM/WHERE interpreter's answers, frozen
//! before it was deleted, replayed against the one executor that is left.
//!
//! `tests/golden/engine_corpus.tsv` was recorded on commit c133160 (see
//! `tests/golden/mod.rs` for the format). It holds every train and dev
//! gold statement of `Profile::tiny()`, the sampled specs the differential
//! suites draw, and every candidate statement — broken ones included —
//! that the pipeline executes for the tiny dev questions. For each, every
//! entry point of `sqlkit` must still return the rows, labels or error
//! text the legacy interpreter returned, and statements that already ran
//! on the pipelined executor must still be charged the same
//! `rows_scanned` (the vote's tie-break reads it).
//!
//! The second test is an oracle that needs no second engine: the same
//! database with every index dropped can only produce `FullScan` / `Hash`
//! plans, and must answer every corpus statement exactly as the indexed
//! database's `IxScan` / `IxJoin` plans do.

mod golden;
mod recording;

use golden::{fnv_outcome, split, tiny_key, Corpus, Entry, Worlds};
use opensearch_sql::{Pipeline, PipelineConfig, Preprocessed};
use sqlkit::{parse_select, PlanCache};
use std::collections::HashSet;
use std::sync::Arc;

#[test]
fn every_entry_point_matches_the_recorded_legacy_execution() {
    let corpus = Corpus::load();
    let worlds = Worlds::build();
    let cache = PlanCache::new(4096);
    assert!(corpus.entries.len() >= 400, "corpus shrank: {}", corpus.entries.len());
    for e in &corpus.entries {
        let db = worlds.db(&e.db_key);
        let stmt = parse_select(&e.sql);
        // raw: parse + bind + lower + run, uncached
        let raw = stmt.clone().and_then(|s| sqlkit::execute_select_with_stats(db, &s));
        let (raw, raw_cost) = split(raw);
        corpus.assert_matches(&e.db_key, &e.sql, &raw, raw_cost);
        // prepared, outside any cache
        let (prepared, prepared_cost) =
            split(sqlkit::prepare(db, &e.sql).and_then(|p| p.execute_with_stats(db)));
        corpus.assert_matches(&e.db_key, &e.sql, &prepared, prepared_cost);
        // the plan cache, cold and then warm
        for _ in 0..2 {
            let (cached, cached_cost) = split(cache.execute(db, &e.sql));
            corpus.assert_matches(&e.db_key, &e.sql, &cached, cached_cost);
        }
    }
}

#[test]
fn dropping_every_index_changes_no_answer() {
    let corpus = Corpus::load();
    let worlds = Worlds::build();
    let mut bare: std::collections::HashMap<&str, sqlkit::Database> = Default::default();
    let (mut compared, mut index_driven) = (0usize, 0usize);
    for e in &corpus.entries {
        let db = worlds.db(&e.db_key);
        let bare_db = bare.entry(e.db_key.as_str()).or_insert_with(|| {
            // schema and rows through `create_table`, which declares no
            // index (a CREATE TABLE statement would index every key)
            let mut copy = sqlkit::Database::new(db.schema.name.clone());
            for table in &db.schema.tables {
                copy.create_table(table.clone()).expect("a fresh name");
                let rows = db.rows(&table.name).expect("a schema table").to_vec();
                copy.insert_rows(&table.name, rows).expect("rows fit their table");
            }
            for fk in &db.schema.foreign_keys {
                copy.add_foreign_key(fk.clone());
            }
            assert!(copy.index_defs().is_empty());
            copy
        });
        let indexed = PlanCache::new(1);
        let with = indexed.execute(db, &e.sql).map(|(rs, _)| rs);
        let without = sqlkit::prepare(bare_db, &e.sql).and_then(|p| p.execute(bare_db));
        assert_eq!(
            fnv_outcome(&with),
            fnv_outcome(&without),
            "{}: indexes changed the answer for {}",
            e.db_key,
            e.sql
        );
        compared += 1;
        index_driven += usize::from(indexed.stats().ix_scans > 0);
    }
    assert!(compared >= 400, "corpus covered: {compared}");
    assert!(
        index_driven * 20 >= compared,
        "the oracle compares nothing unless indexes drive plans: {index_driven} of {compared}"
    );
}

/// Every statement the pipeline executes for the tiny dev (and test)
/// questions: the correction loop is deterministic per (candidate,
/// round), so sweeping the round limit surfaces each intermediate
/// statement as some run's final one. Four
/// model profiles and alignments on/off widen the set of broken
/// statements.
fn candidate_statements(worlds: &Worlds) -> Vec<(String, String)> {
    let bench = worlds.bench.clone();
    let mut out = Vec::new();
    for profile in [
        llmsim::ModelProfile::gpt_4o(),
        llmsim::ModelProfile::gpt_4(),
        llmsim::ModelProfile::gpt_4o_mini(),
        llmsim::ModelProfile::gpt_4o_finetuned(),
    ] {
        let oracle = Arc::new(llmsim::Oracle::new(bench.clone()));
        let llm = Arc::new(llmsim::SimLlm::new(oracle, profile, 5));
        let pre = Arc::new(Preprocessed::run(bench.clone(), llm.as_ref()));
        let max_rounds = PipelineConfig::full().max_correction_rounds;
        let mut configs = Vec::new();
        for rounds in 0..=max_rounds {
            let mut c = PipelineConfig::full();
            c.max_correction_rounds = rounds;
            configs.push(c.clone().without_alignments());
            configs.push(c);
        }
        for config in configs {
            let pipeline = Pipeline::new(pre.clone(), llm.clone(), config);
            for ex in bench.dev.iter().chain(&bench.test) {
                let run = pipeline.answer(&ex.db_id, &ex.question, &ex.evidence);
                let key = tiny_key(&ex.db_id);
                for sql in [&run.sql_g, &run.sql_r, &run.final_sql] {
                    out.push((key.clone(), sql.clone()));
                }
                for c in &run.candidates {
                    out.push((key.clone(), c.raw_sql.clone()));
                    out.push((key.clone(), c.sql.clone()));
                }
            }
        }
    }
    out
}

/// Records the corpus from whatever executor is checked out, to
/// `target/golden/engine_corpus.tsv`. It was
/// run once, on c133160, where `execute_select` was the legacy
/// interpreter and `rows_scanned` was kept only for statements whose
/// `Prepared::is_planned()` (gone since) said they ran pipelined.
/// Promoting today's recording blesses the current executor as its own
/// oracle, which is only right after a deliberate, reviewed semantic change.
#[test]
#[ignore = "records target/golden/engine_corpus.tsv"]
fn record_corpus() {
    let worlds = Worlds::build();
    let mut statements = worlds.gold_statements();
    statements.extend(worlds.sampled_statements());
    statements.extend(candidate_statements(&worlds));
    let cache = PlanCache::new(8192);
    let mut seen = HashSet::new();
    let mut lines = vec![
        "# engine golden corpus: legacy-interpreter outcomes, recorded on c133160".to_owned(),
        "# db key <TAB> fnv(sql) <TAB> fnv(outcome) <TAB> pipelined rows_scanned | - <TAB> sql"
            .to_owned(),
    ];
    for (db_key, sql) in statements {
        // statements that do not parse never reach an executor
        let Ok(stmt) = parse_select(&sql) else { continue };
        if !seen.insert((db_key.clone(), golden::fnv_sql(&sql))) {
            continue;
        }
        let db = worlds.db(&db_key);
        let outcome = sqlkit::execute_select(db, &stmt);
        let rows_scanned = cache.execute(db, &sql).ok().map(|(_, stats)| stats.rows_scanned);
        let entry = Entry { db_key, sql, outcome: fnv_outcome(&outcome), rows_scanned };
        lines.push(entry.line());
    }
    recording::write("engine_corpus.tsv", &(lines.join("\n") + "\n"));
    eprintln!("recorded {} statements", lines.len() - 2);
}
