//! Index-section durability properties:
//!
//! - a clean store round-trips declared indexes (built entries and
//!   declaration-only "unusable" markers alike), preserving the
//!   planning fingerprint;
//! - corrupting any page of an index section is localised: fsck names
//!   the damaged section, the load still succeeds, the damaged index
//!   is dropped (never served), and query results stay correct;
//! - WAL replay and checkpoints keep persisted indexes exact as rows
//!   are appended, rewritten in an indexed column, and deleted by key.

use osql_store::{fsck_file, read_database, write_database, PAGE_SIZE, Store};
use sqlkit::value::Value;
use sqlkit::{plan_fingerprint, ColumnIndex, Database, IndexDef};
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osql-ixsec-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn indexed_db() -> Database {
    let mut db = Database::new("ledger");
    let mut script = String::from(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, name TEXT, balance REAL);\n",
    );
    for i in 0..120 {
        script.push_str(&format!("INSERT INTO acct VALUES ({i}, 'holder{i}', {i}.25);\n"));
    }
    db.execute_script(&script).unwrap();
    db.ensure_default_indexes();
    db
}

#[test]
fn clean_round_trip_preserves_indexes_and_fingerprint() {
    let dir = tmpdir("clean");
    let path = dir.join("ledger.store");
    let db = indexed_db();
    write_database(&path, &db, &[], 0).unwrap();
    let loaded = read_database(&path).unwrap();
    assert!(loaded.database.has_index("acct", "id"));
    assert_eq!(
        plan_fingerprint(&loaded.database),
        plan_fingerprint(&db),
        "index declarations must survive a store round trip"
    );
    let ix = loaded.database.index("acct", "id").expect("index resident after load");
    assert_eq!(ix.table_rows(), 120);
    assert_eq!(ix.rids_eq(&Value::Int(57)), vec![57]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unusable_index_round_trips_as_declaration_only() {
    let dir = tmpdir("unusable");
    let path = dir.join("ledger.store");
    let mut db = indexed_db();
    db.install_unusable_index(IndexDef { table: "acct".into(), column: "name".into() })
        .unwrap();
    write_database(&path, &db, &[], 0).unwrap();
    let loaded = read_database(&path).unwrap();
    assert!(loaded.database.has_index("acct", "name"), "declaration survives");
    assert!(
        loaded.database.index("acct", "name").is_none(),
        "unusable marker survives: lookups must keep falling back to scans"
    );
    assert_eq!(plan_fingerprint(&loaded.database), plan_fingerprint(&db));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn index_page_corruption_is_localised_and_never_serves_wrong_rows() {
    let dir = tmpdir("corrupt");
    let path = dir.join("ledger.store");
    let db = indexed_db();
    write_database(&path, &db, &[], 0).unwrap();
    let expected = db.query("SELECT name FROM acct WHERE id = 57").unwrap().rows;

    let clean = fs::read(&path).unwrap();
    let pages = clean.len() / PAGE_SIZE;
    let mut index_pages = 0;
    for p in 0..pages {
        let mut bad = clean.clone();
        bad[p * PAGE_SIZE + 20] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        let report = fsck_file(&path).unwrap();
        assert!(!report.is_clean(), "fsck missed corruption in page {p}");
        let names_index = report.findings.iter().any(|f| f.contains("acct.id"));
        match read_database(&path) {
            Ok(loaded) => {
                // only derived (index) data may be damaged on a successful load
                assert!(
                    names_index,
                    "page {p}: load succeeded but fsck blamed {:?}",
                    report.findings
                );
                index_pages += 1;
                assert!(
                    !loaded.database.has_index("acct", "id"),
                    "page {p}: damaged index must be dropped, not served"
                );
                let got = loaded.database.query("SELECT name FROM acct WHERE id = 57").unwrap();
                assert_eq!(got.rows, expected, "page {p}: results drifted after fallback");
            }
            Err(_) => {
                assert!(
                    !names_index,
                    "page {p}: index-only corruption must not fail the whole load"
                );
            }
        }
    }
    assert!(index_pages >= 1, "the store should hold at least one index page");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_replay_and_checkpoint_keep_indexes_exact() {
    let dir = tmpdir("replay");
    let path = dir.join("ledger.store");
    write_database(&path, &indexed_db(), &[], 0).unwrap();

    // append through the WAL, then reopen so recovery replays the log
    let (mut store, _) = Store::open(&path).unwrap();
    store.execute("INSERT INTO acct VALUES (500, 'replayed', 1.5)").unwrap();
    store.commit().unwrap();
    drop(store);
    let (mut store, report) = Store::open(&path).unwrap();
    assert_eq!(report.replay.committed, 1);
    let ix = store.database().index("acct", "id").expect("index survives replay");
    assert_eq!(ix.table_rows(), 121, "replayed insert must be reflected in the index");
    assert_eq!(ix.rids_eq(&Value::Int(500)), vec![120]);

    // a checkpoint rewrites the base file, index sections included
    store.checkpoint().unwrap();
    drop(store);
    let loaded = read_database(&path).unwrap();
    let ix = loaded.database.index("acct", "id").expect("index resident after checkpoint");
    assert_eq!(ix.table_rows(), 121);
    assert_eq!(ix.rids_eq(&Value::Int(500)), vec![120]);
    fs::remove_dir_all(&dir).unwrap();
}

/// Every declared index of `db` holds exactly the entries a rebuild over
/// its rows would.
fn assert_indexes_exact(db: &Database, context: &str) {
    for def in db.index_defs() {
        let col = db.schema.table(&def.table).unwrap().column_index(&def.column).unwrap();
        let rebuilt = ColumnIndex::build(db.rows(&def.table).unwrap(), col).unwrap();
        let live = db.index(&def.table, &def.column).expect("index usable");
        assert_eq!(live.entries(), rebuilt.entries(), "{context}: {}.{}", def.table, def.column);
        assert_eq!(live.table_rows(), rebuilt.table_rows(), "{context}");
    }
}

#[test]
fn wal_replay_of_update_and_delete_is_exact() {
    let dir = tmpdir("replay-dml");
    let path = dir.join("ledger.store");
    let mut db = indexed_db();
    db.create_index("acct", "name").unwrap();
    write_database(&path, &db, &[], 0).unwrap();

    let (mut store, _) = Store::open(&path).unwrap();
    assert!(store.database().index("acct", "name").is_some(), "resident before the writes");
    for sql in [
        "UPDATE acct SET name = 'renamed' WHERE id = 8",
        "UPDATE acct SET id = id + 1000, balance = balance * 2 WHERE id BETWEEN 10 AND 12",
        "INSERT INTO acct VALUES (500, 'appended', 1.5)",
        "DELETE FROM acct WHERE id = 9",
        "UPDATE acct SET balance = (SELECT MAX(balance) FROM acct) WHERE name = 'renamed'",
        "DELETE FROM acct WHERE id IN (1011, 500) OR name = 'holder100'",
    ] {
        store.execute(sql).unwrap();
        assert_indexes_exact(store.database(), sql);
    }
    // fails on the second row it visits: neither applied nor logged
    assert!(store.execute("UPDATE acct SET name = 'x' WHERE id = 0 OR ghost = 1").is_err());
    store.commit().unwrap();
    let primary = store.database().dump_script();
    let seq = store.commit_seq();
    drop(store);

    let (mut store, report) = Store::open(&path).unwrap();
    assert_eq!(report.replay.committed, 1);
    assert_eq!(report.replay.stmts_applied, 6);
    assert_eq!(store.commit_seq(), seq);
    assert_eq!(store.database().dump_script(), primary, "replay rebuilds the primary's bytes");
    assert_indexes_exact(store.database(), "after replay");
    let ix = store.database().index("acct", "id").unwrap();
    assert_eq!(ix.table_rows(), 117);
    assert!(ix.rids_eq(&Value::Int(9)).is_empty() && ix.rids_eq(&Value::Int(10)).is_empty());
    assert_eq!(ix.rids_eq(&Value::Int(1010)).len(), 1);

    store.checkpoint().unwrap();
    drop(store);
    let loaded = read_database(&path).unwrap();
    assert_eq!(loaded.database.dump_script(), primary);
    assert_indexes_exact(&loaded.database, "after checkpoint");
    fs::remove_dir_all(&dir).unwrap();
}
