//! Planner suite: what the plan cache serves must not depend on how the
//! plan was obtained or where the database lives.
//!
//! Until the legacy FROM/WHERE interpreter was deleted this file compared
//! it, statement by statement, with the cost-based plans the plan cache
//! runs. That oracle is now frozen in `tests/golden/engine_corpus.tsv`
//! (recorded on the last commit that had the interpreter; see
//! `tests/engine_golden.rs`), and the first two tests replay their share
//! of it through `PlanCache::execute`: byte-identical rows or error text,
//! and an unchanged `rows_scanned` for every statement that was already
//! pipelined. The suite also pins that demand-paged serving with
//! persisted index sections is indistinguishable from in-memory serving,
//! and that changing a database's index set invalidates its cached plans.

mod golden;

use golden::{Corpus, Worlds};
use sqlkit::{plan_fingerprint, PlanCache};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osql-planner-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run every statement through one plan cache, cold then warm, against
/// the recorded legacy execution. Returns how many ran an index-driven
/// operator.
fn assert_planned_matches_legacy(worlds: &Worlds, statements: &[(String, String)]) -> usize {
    let corpus = Corpus::load();
    let cache = PlanCache::new(512);
    let mut index_driven = 0;
    for (db_key, sql) in statements {
        let db = worlds.db(db_key);
        let before = cache.stats().ix_scans;
        for _ in 0..2 {
            let (outcome, cost) = golden::split(cache.execute(db, sql));
            corpus.assert_matches(db_key, sql, &outcome, cost);
        }
        index_driven += usize::from(cache.stats().ix_scans > before);
    }
    index_driven
}

/// Every gold SQL in the generated corpus (train and dev, every database,
/// default indexes declared) returns through the plan cache what the
/// legacy interpreter returned — and a healthy share of the corpus
/// actually runs on an index.
#[test]
fn corpus_gold_sql_matches_legacy_execution() {
    let worlds = Worlds::build();
    let statements = worlds.gold_statements();
    let index_driven = assert_planned_matches_legacy(&worlds, &statements);
    assert!(statements.len() >= 50, "corpus covered: {}", statements.len());
    assert!(
        index_driven * 10 >= statements.len(),
        "planner engagement collapsed: {index_driven} of {} statements used an index",
        statements.len()
    );
}

/// Broader SQL surface: sampled query specs across themes and every
/// difficulty tier, same replay.
#[test]
fn sampled_specs_match_legacy_execution() {
    let worlds = Worlds::build();
    let statements = worlds.sampled_statements();
    assert!(statements.len() >= 80, "specs sampled: {}", statements.len());
    assert_planned_matches_legacy(&worlds, &statements);
}

/// A database round-tripped through a store file (index sections
/// included) must answer every gold statement byte-identically to the
/// in-memory original, and with the same planning fingerprint.
#[test]
fn paged_databases_with_indexes_serve_identical_rows() {
    let bench = datagen::generate(&datagen::Profile::tiny());
    let dir = tmpdir("paged");
    let mem_cache = PlanCache::new(512);
    let paged_cache = PlanCache::new(512);
    for db in &bench.dbs {
        let path = dir.join(format!("{}.store", db.id));
        osql_store::write_database(&path, &db.database, &[], 0).unwrap();
        let loaded = osql_store::read_database(&path).unwrap().database;
        assert_eq!(
            plan_fingerprint(&loaded),
            plan_fingerprint(&db.database),
            "{}: index declarations must survive the store round trip",
            db.id
        );
        for ex in bench.train.iter().chain(bench.dev.iter()).filter(|e| e.db_id == db.id) {
            let mem = mem_cache.execute(&db.database, &ex.gold_sql);
            let paged = paged_cache.execute(&loaded, &ex.gold_sql);
            match (mem, paged) {
                (Ok((rs_mem, _)), Ok((rs_paged, _))) => {
                    assert_eq!(rs_mem, rs_paged, "rows differ for {}", ex.gold_sql)
                }
                (Err(e_mem), Err(e_paged)) => {
                    assert_eq!(e_mem.to_string(), e_paged.to_string())
                }
                (mem, paged) => panic!(
                    "outcome class differs for {}: mem={mem:?} paged={paged:?}",
                    ex.gold_sql
                ),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Creating an index changes the database's planning fingerprint, so the
/// plan cache re-prepares instead of serving a stale plan — and the
/// re-prepared statement starts using the new index.
#[test]
fn index_set_changes_invalidate_cached_plans() {
    let mut db = sqlkit::Database::new("inval");
    let mut script =
        String::from("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, label TEXT);\n");
    for i in 0..300 {
        script.push_str(&format!("INSERT INTO t VALUES ({i}, {}, 'x{i}');\n", i % 30));
    }
    db.execute_script(&script).unwrap();

    let cache = PlanCache::new(64);
    let sql = "SELECT label FROM t WHERE grp = 7 ORDER BY id";
    let before = cache.prepared(&db, sql).unwrap();
    let (rows_before, _) = cache.execute(&db, sql).unwrap();

    db.create_index("t", "grp").unwrap();
    let after = cache.prepared(&db, sql).unwrap();
    assert!(
        !Arc::ptr_eq(&before, &after),
        "cached plan survived an index-set change"
    );
    assert_ne!(before.fingerprint(), after.fingerprint());

    let ix_before = cache.stats().ix_scans;
    let (rows_after, _) = cache.execute(&db, sql).unwrap();
    assert_eq!(rows_before, rows_after, "index must not change results");
    assert!(
        cache.stats().ix_scans > ix_before,
        "re-prepared plan should drive the new index"
    );
}
