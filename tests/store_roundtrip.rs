//! Durable-store round trip over every generated database: dumping a
//! database to SQL and re-executing it, then packing it into an
//! `osql-store` page file and importing it back, must preserve the
//! schema, every row, the generation metadata, and — the part the
//! pipeline actually scores — the result set of every gold SQL.

use datagen::{export_store, generate, import_store, Profile};
use osql_repl::{ship_wal, MemShipDir, ShipMedia};
use osql_store::{wal_path, Store};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osql-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn world() -> datagen::Benchmark {
    let mut profile = Profile::tiny();
    profile.train = 30;
    profile.dev = 25;
    profile.n_databases = 4;
    profile.n_domains = 4;
    generate(&profile)
}

#[test]
fn every_database_round_trips_through_script_and_store() {
    let bench = world();
    let dir = tmpdir("script-store");
    let paths = export_store(&bench, &dir).unwrap();
    assert_eq!(paths.len(), bench.dbs.len());

    for (db, path) in bench.dbs.iter().zip(&paths) {
        // dump → fresh execute: the SQL round trip
        let script = db.database.dump_script();
        let mut fresh = sqlkit::Database::new(&db.id);
        fresh.execute_script(&script).unwrap_or_else(|e| {
            panic!("{}: dumped script must re-execute: {e}", db.id);
        });
        // SQL cannot carry column descriptions, so the script leg checks
        // the structural schema; the store leg below checks it all.
        let structure = |schema: &sqlkit::schema::DbSchema| {
            schema
                .tables
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        t.columns
                            .iter()
                            .map(|c| (c.name.clone(), c.ty, c.primary_key))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            structure(&fresh.schema),
            structure(&db.database.schema),
            "{}: script schema drift",
            db.id
        );
        assert_eq!(
            fresh.schema.foreign_keys,
            db.database.schema.foreign_keys,
            "{}: script FK drift",
            db.id
        );
        assert_eq!(
            fresh.total_rows(),
            db.database.total_rows(),
            "{}: script row-count drift",
            db.id
        );

        // export → import: the binary round trip
        let imported = import_store(path).unwrap();
        let (back, bytes) = (imported.db, imported.file_bytes);
        assert!(bytes > 0);
        assert_eq!(back.database.schema, db.database.schema, "{}: store schema drift", db.id);
        for table in &db.database.schema.tables.clone() {
            assert_eq!(
                back.database.rows(&table.name).unwrap(),
                db.database.rows(&table.name).unwrap(),
                "{}.{}: store rows drift",
                db.id,
                table.name
            );
            assert_eq!(
                fresh.rows(&table.name).unwrap(),
                db.database.rows(&table.name).unwrap(),
                "{}.{}: script rows drift",
                db.id,
                table.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gold_sql_result_sets_survive_both_round_trips() {
    let bench = world();
    let dir = tmpdir("gold");
    let paths = export_store(&bench, &dir).unwrap();

    let mut checked = 0usize;
    for (db, path) in bench.dbs.iter().zip(&paths) {
        let script = db.database.dump_script();
        let mut fresh = sqlkit::Database::new(&db.id);
        fresh.execute_script(&script).unwrap();
        let back = import_store(path).unwrap().db;

        for ex in bench.train.iter().chain(&bench.dev).chain(&bench.test) {
            if ex.db_id != db.id {
                continue;
            }
            let want = db.database.query(&ex.gold_sql).unwrap();
            let via_script = fresh.query(&ex.gold_sql).unwrap();
            let via_store = back.database.query(&ex.gold_sql).unwrap();
            assert_eq!(want.rows, via_script.rows, "{}: {}", db.id, ex.gold_sql);
            assert_eq!(want.rows, via_store.rows, "{}: {}", db.id, ex.gold_sql);
            assert!(!want.rows.is_empty(), "gold SQL is non-empty by construction");
            checked += 1;
        }
    }
    assert!(checked > 20, "only {checked} gold queries checked — fixture too small");
    std::fs::remove_dir_all(&dir).unwrap();
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// Every checksummed format the system writes — store files, a WAL, a
/// shipped segment and its manifest — is byte-for-byte what the bitwise
/// CRC-32 loop produced on 035e019, before the table kernel replaced it
/// (FNV-1a digests of every byte, recorded there).
#[test]
fn every_checksummed_format_keeps_its_recorded_bytes() {
    let dir = tmpdir("frozen-bytes");

    let paths = export_store(&generate(&Profile::tiny()), &dir.join("export")).unwrap();
    let stores: Vec<(String, u64)> = paths
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, fnv1a(&std::fs::read(p).unwrap()))
        })
        .collect();
    let want: Vec<(String, u64)> = [
        ("healthcare.store", 0x019A_35F1_C909_849B),
        ("education.store", 0xC210_B920_F41C_D0A9),
    ]
    .iter()
    .map(|&(name, digest)| (name.to_owned(), digest))
    .collect();
    assert_eq!(stores, want, "export_store of Profile::tiny()");

    let mut db = sqlkit::Database::new("ledger");
    db.execute_script(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, name TEXT, balance REAL);\
         INSERT INTO acct VALUES (1, 'ann', 10.0), (2, 'bob', 5.5);",
    )
    .unwrap();
    let base = dir.join("ledger.store");
    let mut store = Store::create(&base, db, vec![]).unwrap();
    let script: &[&[&str]] = &[
        &["INSERT INTO acct VALUES (3, 'cal', 0.25)", "INSERT INTO acct VALUES (4, 'dee', NULL)"],
        &["UPDATE acct SET balance = balance * 2 WHERE id <= 2"],
        &["DELETE FROM acct WHERE id = 3", "INSERT INTO acct VALUES (5, 'émile', -1.5)"],
        &["UPDATE acct SET name = 'bo''b' WHERE id = 2", "DELETE FROM acct WHERE balance IS NULL"],
    ];
    for txn in script {
        for sql in *txn {
            store.execute(sql).unwrap();
        }
        store.commit().unwrap();
    }
    drop(store);
    let wal = std::fs::read(wal_path(&base)).unwrap();
    assert_eq!(fnv1a(&wal), 0xB0CE_32EC_55D7_2254, "WAL of the fixed script");

    let ship = MemShipDir::new();
    let report = ship_wal(&ship, &wal, 0).unwrap();
    assert_eq!(report.shipped_txns, script.len() as u64);
    let segment = ship.read_segment(report.segment.as_deref().unwrap()).unwrap();
    let manifest = ship.read_manifest().unwrap().unwrap();
    assert_eq!(fnv1a(&segment), 0x608A_3FE2_DCCE_ABED, "shipped segment");
    assert_eq!(fnv1a(&manifest), 0xACB8_3064_F203_CC38, "MANIFEST");
    std::fs::remove_dir_all(&dir).unwrap();
}
