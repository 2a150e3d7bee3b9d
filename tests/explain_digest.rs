//! EXPLAIN digest: what `sqlkit::explain` prints for every statement of
//! the engine corpus (`tests/golden/engine_corpus.tsv`) and for every
//! train and dev gold statement of `bird_mini_dev`, hashed into one
//! number recorded on 5665179.
//!
//! `explain` renders each top-level core's plan with its estimates and
//! the actuals the run recorded — rows out of every operator, index seeks
//! — and ends with the statement's row count and `rows_scanned`. The
//! differential suites pin rows and `rows_scanned`; this digest is the
//! one gate that reads the per-operator counters (`OpStats`), so a change
//! to how tuples move through the pipelined executor that counts one
//! operator differently fails here.

mod golden;

use datagen::{generate, Profile};
use golden::{Corpus, Worlds};

/// FNV-1a over every `(db key, SQL, explain output or error text)`, each
/// field closed by a unit separator, in corpus order then gold order.
const EXPLAIN_DIGEST: u64 = 0x27d4_b16b_d37d_9933;

fn fnv(mut h: u64, field: &[u8]) -> u64 {
    for &b in field.iter().chain(&[0x1f]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn line(h: u64, db: &sqlkit::Database, key: &str, sql: &str) -> u64 {
    let explained = match sqlkit::explain(db, sql) {
        Ok(text) => text,
        Err(e) => format!("error: {e}"),
    };
    [key, sql, &explained]
        .iter()
        .fold(h, |h, field| fnv(h, field.as_bytes()))
}

#[test]
fn explain_output_is_frozen() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let corpus = Corpus::load();
    let worlds = Worlds::build();
    for e in &corpus.entries {
        h = line(h, worlds.db(&e.db_key), &e.db_key, &e.sql);
    }
    let bench = generate(&Profile::bird_mini_dev());
    let mut gold = 0;
    for ex in bench.train.iter().chain(&bench.dev) {
        let db = &bench
            .db(&ex.db_id)
            .expect("gold names a generated database")
            .database;
        h = line(h, db, &ex.db_id, &ex.gold_sql);
        gold += 1;
    }
    assert_eq!(
        (corpus.entries.len(), gold),
        (439, 2000),
        "the digest covers a different corpus"
    );
    assert_eq!(
        h, EXPLAIN_DIGEST,
        "explain digest {h:#018x}, recorded {EXPLAIN_DIGEST:#018x}"
    );
}
