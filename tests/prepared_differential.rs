//! Tests for the prepared-execution fast path.
//!
//! The contract of `prepare` is *zero observable difference*: for every
//! statement the corpus can produce, the bound, constant-folded plan must
//! return the rows and error text the unbound legacy interpreter returned
//! — frozen in `tests/golden/engine_corpus.tsv` when that interpreter was
//! deleted (see `tests/engine_golden.rs`) — and raw execution, which now
//! binds and lowers on every call, must agree with a held `Prepared` on
//! the execution statistics too (rows_scanned feeds the vote tie-break
//! and R-VES, so a drifting counter would silently change answers).
//! Likewise, refining candidates on N threads must leave every
//! deterministic report field of a pipeline run unchanged.

mod golden;

use golden::{Corpus, Worlds};
use opensearch_sql::{Pipeline, PipelineConfig, Preprocessed};
use sqlkit::{execute_select_with_stats, parse_select};
use std::sync::Arc;

/// Execute every statement raw (parse, then bind + lower + run per call)
/// and prepared once and run twice, asserting all three agree with each
/// other, stats included, and with the recorded legacy execution.
fn assert_raw_matches_prepared(worlds: &Worlds, statements: &[(String, String)]) {
    let corpus = Corpus::load();
    for (db_key, sql) in statements {
        let db = worlds.db(db_key);
        let raw = parse_select(sql).and_then(|stmt| execute_select_with_stats(db, &stmt));
        let prepared = sqlkit::prepare(db, sql);
        for _ in 0..2 {
            let again = prepared.clone().and_then(|plan| plan.execute_with_stats(db));
            assert_eq!(raw, again, "{db_key}: raw and prepared execution differ for {sql}");
        }
        let (outcome, cost) = golden::split(raw);
        corpus.assert_matches(db_key, sql, &outcome, cost);
    }
}

/// Every gold SQL in the generated corpus (train and dev, every database)
/// runs identically raw and prepared.
#[test]
fn corpus_gold_sql_matches_raw_execution() {
    let worlds = Worlds::build();
    let statements = worlds.gold_statements();
    assert!(statements.len() >= 50, "corpus covered: {}", statements.len());
    assert_raw_matches_prepared(&worlds, &statements);
}

/// Broader SQL surface: sampled query specs across themes and every
/// difficulty tier, same differential.
#[test]
fn sampled_specs_match_raw_execution() {
    let worlds = Worlds::build();
    let statements = worlds.sampled_statements();
    assert!(statements.len() >= 80, "specs sampled: {}", statements.len());
    assert_raw_matches_prepared(&worlds, &statements);
}

/// A pipeline refining on one thread and one refining on several must
/// produce identical runs, field for field, over the whole dev split.
/// (Wall-clock ledger timings are the only nondeterministic fields and are
/// excluded.)
#[test]
fn pipeline_runs_identical_across_refine_threads() {
    let bench = Arc::new(datagen::generate(&datagen::Profile::tiny()));
    let oracle = Arc::new(llmsim::Oracle::new(bench.clone()));
    let llm = Arc::new(llmsim::SimLlm::new(oracle, llmsim::ModelProfile::gpt_4o(), 5));
    let pre = Arc::new(Preprocessed::run(bench.clone(), llm.as_ref()));
    let seq = Pipeline::new(pre.clone(), llm.clone(), PipelineConfig::fast());
    let par = Pipeline::new(pre, llm, PipelineConfig::fast().with_refine_threads(3));
    for ex in &bench.dev {
        let a = seq.answer(&ex.db_id, &ex.question, &ex.evidence);
        let b = par.answer(&ex.db_id, &ex.question, &ex.evidence);
        assert_eq!(a.sql_g, b.sql_g, "{}", ex.question);
        assert_eq!(a.sql_r, b.sql_r, "{}", ex.question);
        assert_eq!(a.final_sql, b.final_sql, "{}", ex.question);
        assert_eq!(a.winner, b.winner, "{}", ex.question);
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(ca.raw_sql, cb.raw_sql);
            assert_eq!(ca.sql, cb.sql);
            assert_eq!(ca.exec_cost, cb.exec_cost);
            assert_eq!(ca.correction_rounds, cb.correction_rounds);
            match (&ca.result, &cb.result) {
                (Ok(ra), Ok(rb)) => assert_eq!(ra, rb, "{}", ex.question),
                (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
                _ => panic!("result class differs for {}", ex.question),
            }
        }
        for m in opensearch_sql::Module::all() {
            assert_eq!(a.ledger.get(m).tokens, b.ledger.get(m).tokens, "{m:?} tokens");
            assert_eq!(a.ledger.get(m).calls, b.ledger.get(m).calls, "{m:?} calls");
        }
    }
}
