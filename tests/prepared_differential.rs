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

mod golden;

use golden::{Corpus, Worlds};
use sqlkit::{execute_select_with_stats, parse_select};

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
