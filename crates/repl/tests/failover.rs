//! The replication failover matrix: ship → apply → promote under fault
//! injection at every byte offset.
//!
//! Two properties hold at every fault point:
//!
//! - **No committed-and-shipped transaction is lost.** Whatever tears —
//!   segment tails, manifest bytes, the follower's own WAL mid-apply,
//!   the promotion checkpoint window — once the fault clears, the
//!   follower converges to exactly the shipped prefix, and a promoted
//!   follower serves every acknowledged-shipped transaction with rows
//!   identical to the primary-only run.
//! - **No unshipped suffix is ever invented.** A transaction the
//!   manifest never advertised — committed on the primary but not
//!   shipped, or sitting in an orphan segment from a crashed publish —
//!   never appears on a follower, torn bytes never decode into
//!   plausible transactions, and the follower's state is always exactly
//!   some commit-boundary prefix, never half a transaction.

use osql_repl::{
    seed_if_missing, ship_store, Follower, MemShipDir, ReplError, ShipMedia,
};
use osql_store::fault::{FaultFile, FaultPlan};
use osql_store::{write_database, Store};
use sqlkit::value::Row;
use sqlkit::Database;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osql-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_db() -> Database {
    let mut db = Database::new("ledger");
    db.execute_script(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, name TEXT, balance REAL);\
         INSERT INTO acct VALUES (1, 'seed', 100.0);",
    )
    .unwrap();
    db
}

/// Deterministic statements for transaction `i` (1-based commit seq).
fn txn_stmts(i: u64) -> Vec<String> {
    let mut stmts =
        vec![format!("INSERT INTO acct VALUES ({}, 'tx{i}', {i}.5)", 100 + i * 10)];
    if i % 3 == 1 {
        stmts.push(format!("UPDATE acct SET balance = {i} WHERE id = 1"));
    }
    if i.is_multiple_of(4) {
        stmts.push(format!("DELETE FROM acct WHERE id = {}", 100 + (i - 1) * 10));
    }
    stmts
}

fn rows_of(db: &Database) -> Vec<Row> {
    db.rows("acct").unwrap().to_vec()
}

/// The reference: rows after each commit boundary, computed by a pure
/// in-memory replay. `states[k]` is the state with commits `1..=k`
/// applied — the only states any replica is ever allowed to expose.
fn reference_states(n: u64) -> Vec<Vec<Row>> {
    let mut db = base_db();
    let mut states = vec![rows_of(&db)];
    for i in 1..=n {
        for stmt in txn_stmts(i) {
            db.execute_script(&stmt).unwrap();
        }
        states.push(rows_of(&db));
    }
    states
}

/// Run the primary at `path`, committing txns `1..=n` and shipping after
/// every `ship_every`-th commit. Returns the primary store.
fn run_primary(path: &Path, media: &impl ShipMedia, n: u64, ship_every: u64) -> Store {
    let store = Store::create(path, base_db(), vec![]).unwrap();
    let mut store = store;
    for i in 1..=n {
        for stmt in txn_stmts(i) {
            store.execute(&stmt).unwrap();
        }
        assert_eq!(store.commit().unwrap(), i);
        if i % ship_every == 0 {
            ship_store(path, media).unwrap();
        }
    }
    store
}

#[test]
fn promoted_follower_matches_the_primary_only_run_exactly() {
    let dir = tmpdir("promote");
    let media = MemShipDir::new();
    let n = 9;
    let primary = run_primary(&dir.join("primary.store"), &media, n, 2);
    ship_store(primary.path(), &media).unwrap(); // flush the odd tail txn
    let states = reference_states(n);
    assert_eq!(rows_of(primary.database()), states[n as usize]);

    let fpath = dir.join("follower.store");
    assert!(seed_if_missing(&fpath, &media).unwrap());
    let (mut f, _) = Follower::open(&fpath).unwrap();
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, n);
    assert!(report.segments_read >= 4, "shipping every 2 commits yields many segments");

    let (mut promoted, pr) = f.promote().unwrap();
    assert_eq!(pr.promoted_at_seq, n);
    assert_eq!(
        rows_of(promoted.database()),
        rows_of(primary.database()),
        "promoted follower serves every acknowledged-shipped txn byte-identically"
    );
    // the promoted store is a real primary: writes continue the sequence
    promoted.execute("INSERT INTO acct VALUES (999, 'after', 1.0)").unwrap();
    assert_eq!(promoted.commit().unwrap(), n + 1);
    drop(promoted);
    let (reopened, report) = Store::open(&fpath).unwrap();
    assert_eq!(report.replay.committed, 1, "only the post-promotion txn replays");
    assert_eq!(reopened.commit_seq(), n + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn follower_of_an_indexed_primary_applies_updates_and_deletes_exactly() {
    let dir = tmpdir("indexed-dml");
    let media = MemShipDir::new();
    let path = dir.join("primary.store");
    let mut db = base_db();
    db.create_index("acct", "id").unwrap();
    db.create_index("acct", "name").unwrap();
    let mut primary = Store::create(&path, db, vec![]).unwrap();
    for i in 1..=8u64 {
        let id = 100 + i * 10;
        primary.execute(&format!("INSERT INTO acct VALUES ({id}, 'tx{i}', {i}.5)")).unwrap();
        // rewrite both indexed columns, read the pre-statement state, delete by key
        primary.execute(&format!("UPDATE acct SET name = 'moved{i}' WHERE id = {id}")).unwrap();
        if i % 2 == 0 {
            primary.execute(&format!("UPDATE acct SET id = id + 1 WHERE id = {}", id - 10)).unwrap();
            primary
                .execute("UPDATE acct SET balance = (SELECT MAX(balance) FROM acct) WHERE id = 1")
                .unwrap();
        }
        if i % 3 == 0 {
            primary.execute(&format!("DELETE FROM acct WHERE id = {}", id - 19)).unwrap();
        }
        // fails after its first row: not applied, not logged, not shipped
        assert!(primary.execute("DELETE FROM acct WHERE id = 1 OR ghost = 1").is_err());
        assert_eq!(primary.commit().unwrap(), i);
        if i % 3 == 0 {
            ship_store(&path, &media).unwrap();
        }
    }
    ship_store(&path, &media).unwrap();

    let fpath = dir.join("follower.store");
    assert!(seed_if_missing(&fpath, &media).unwrap());
    let (mut f, _) = Follower::open(&fpath).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, 8);
    let (promoted, _) = f.promote().unwrap();
    assert_eq!(promoted.database().dump_script(), primary.database().dump_script());
    // the follower's indexes — carried by the seed, kept through every
    // apply — answer as the primary's and as a scan does
    let mut scanned = promoted.database().clone();
    for def in scanned.index_defs().to_vec() {
        scanned.install_unusable_index(def).unwrap();
    }
    for sql in [
        "SELECT * FROM acct WHERE id = 131",
        "SELECT * FROM acct WHERE id = 141",
        "SELECT * FROM acct WHERE name = 'moved5'",
        "SELECT id FROM acct WHERE id BETWEEN 100 AND 200",
        "SELECT id FROM acct WHERE name > 'moved3'",
    ] {
        let want = scanned.query(sql).unwrap().rows;
        assert_eq!(promoted.database().query(sql).unwrap().rows, want, "{sql}");
        assert_eq!(primary.database().query(sql).unwrap().rows, want, "{sql}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unshipped_primary_suffix_never_appears_on_a_follower() {
    let dir = tmpdir("suffix");
    let media = MemShipDir::new();
    let n = 8;
    let shipped = 5;
    // ship after every commit up to `shipped`, then commit 3 more
    // without shipping — those are committed but never acknowledged
    let path = dir.join("primary.store");
    let mut primary = run_primary(&path, &media, shipped, 1);
    for i in shipped + 1..=n {
        for stmt in txn_stmts(i) {
            primary.execute(&stmt).unwrap();
        }
        primary.commit().unwrap();
    }
    let states = reference_states(n);

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, shipped, "only the shipped prefix applies");
    assert_eq!(rows_of(f.store().database()), states[shipped as usize]);

    let (mut promoted, pr) = f.promote().unwrap();
    assert_eq!(pr.promoted_at_seq, shipped);
    assert_eq!(rows_of(promoted.database()), states[shipped as usize]);
    // the promoted primary's next commit takes seq 6 — its own history,
    // not the dead primary's unshipped txn 6
    promoted.execute("INSERT INTO acct VALUES (999, 'fork', 0.0)").unwrap();
    assert_eq!(promoted.commit().unwrap(), shipped + 1);
    assert_ne!(rows_of(promoted.database()), states[shipped as usize + 1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_advertised_segment_is_refused_at_every_cut() {
    let dir = tmpdir("torn-seg");
    let media = MemShipDir::new();
    let n = 3;
    run_primary(&dir.join("primary.store"), &media, n, n); // one segment
    let name = osql_repl::segment_name(1);
    let intact = media.read_segment(&name).unwrap();

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    let mut fault_points = 0u64;
    for cut in 0..intact.len() {
        media.publish_segment(&name, &intact[..cut]).unwrap();
        let err = f.poll(&media).unwrap_err();
        assert!(
            matches!(err, ReplError::Corrupt(_)),
            "cut at {cut}: a mangled advertised segment must be refused, got {err}"
        );
        assert_eq!(f.applied_seq(), 0, "cut at {cut}: nothing may apply from it");
        fault_points += 1;
    }
    // single-byte corruption at every offset is refused the same way
    for off in 0..intact.len() {
        let mut sick = intact.clone();
        sick[off] ^= 0xFF;
        media.publish_segment(&name, &sick).unwrap();
        let err = f.poll(&media).unwrap_err();
        assert!(matches!(err, ReplError::Corrupt(_)), "corrupt byte {off}: {err}");
        assert_eq!(f.applied_seq(), 0);
        fault_points += 1;
    }
    eprintln!("segment fault points exercised: {fault_points}");
    // the fault clears (re-ship heals the directory): follower converges
    media.publish_segment(&name, &intact).unwrap();
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, n);
    assert_eq!(rows_of(f.store().database()), reference_states(n)[n as usize]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_manifest_is_refused_at_every_byte() {
    let dir = tmpdir("bad-manifest");
    let media = MemShipDir::new();
    let n = 2;
    run_primary(&dir.join("primary.store"), &media, n, 1);
    let intact = media.read_manifest().unwrap().unwrap();

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    for off in 0..intact.len() {
        assert!(media.corrupt_manifest(off, 0xA5));
        let err = f.poll(&media).unwrap_err();
        assert!(matches!(err, ReplError::Corrupt(_)), "byte {off}: {err}");
        assert_eq!(f.applied_seq(), 0, "byte {off}: a bad advertisement applies nothing");
        assert!(media.corrupt_manifest(off, 0xA5), "undo the flip");
    }
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, n);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_advertising_a_missing_segment_is_refused() {
    let dir = tmpdir("missing-seg");
    let media = MemShipDir::new();
    let n = 4;
    run_primary(&dir.join("primary.store"), &media, n, 2); // two segments
    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    // the *first* needed segment vanishes: nothing can apply
    let first = osql_repl::segment_name(1);
    let bytes = media.read_segment(&first).unwrap();
    media.remove_segment(&first);
    let err = f.poll(&media).unwrap_err();
    assert!(matches!(err, ReplError::Corrupt(_)), "{err}");
    assert_eq!(f.applied_seq(), 0);
    // it returns: the follower catches up across both segments
    media.publish_segment(&first, &bytes).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, n);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash the follower's own WAL at every byte offset mid-apply: the
/// reopened replica must hold exactly some commit-boundary prefix
/// (never a torn transaction), and the next poll must converge to the
/// shipped target.
#[test]
fn follower_crash_mid_apply_at_every_byte_preserves_txn_atomicity() {
    let dir = tmpdir("crash-apply");
    let media = MemShipDir::new();
    let n = 6;
    run_primary(&dir.join("primary.store"), &media, n, 3);
    let states = reference_states(n);

    // materialize the follower base file once from the bootstrap blob
    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();

    // one clean full apply over fault-free media to get the WAL image
    let (mut f, _) = Follower::open_with(&fpath, FaultFile::new()).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, n);
    let full = f.into_store().into_media();
    let total = full.raw_len() as u64;
    assert!(total > 64, "apply WAL must exceed the 64-fault-point floor");

    let mut fault_points = 0u64;
    for cut in 0..=total {
        let mut crashed = full.clone();
        crashed.set_plan(FaultPlan { torn_tail: Some(cut), ..FaultPlan::default() });
        crashed.crash();
        let (mut f, report) =
            Follower::open_with(&fpath, crashed).expect("follower recovery must succeed");
        let k = f.applied_seq();
        assert!(k <= n, "cut at {cut}");
        assert_eq!(
            rows_of(f.store().database()),
            states[k as usize],
            "cut at {cut}: recovered state must sit exactly on commit boundary {k} \
             (replay committed {}, finding {:?})",
            report.replay.committed,
            report.replay.finding,
        );
        // resume: the next poll re-fetches and converges, re-applying
        // nothing at or below k
        let report = f.poll(&media).unwrap();
        assert_eq!(report.applied_seq, n, "cut at {cut}");
        assert_eq!(report.applied_txns, n - k, "cut at {cut}: only the missing suffix applies");
        assert_eq!(rows_of(f.store().database()), states[n as usize], "cut at {cut}");
        fault_points += 1;
    }
    eprintln!("mid-apply crash fault points exercised: {fault_points}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash between promotion's base publish and its WAL reset: the next
/// open must skip the already-folded commits (never double-apply), and
/// the follower's WAL cut at any byte changes nothing — the published
/// base owns the full applied prefix.
#[test]
fn crash_mid_promote_window_never_double_applies_at_any_cut() {
    let dir = tmpdir("crash-promote");
    let media = MemShipDir::new();
    let n = 5;
    run_primary(&dir.join("primary.store"), &media, n, 1);
    let states = reference_states(n);

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open_with(&fpath, FaultFile::new()).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, n);
    // first half of promote's checkpoint: publish the folded base,
    // crash before the WAL reset
    let store = f.into_store();
    write_database(&fpath, store.database(), store.blobs(), store.commit_seq()).unwrap();
    let media_after = store.into_media();

    let total = media_after.raw_len() as u64;
    for cut in 0..=total {
        let mut crashed = media_after.clone();
        crashed.set_plan(FaultPlan { torn_tail: Some(cut), ..FaultPlan::default() });
        crashed.crash();
        let (f, report) = Follower::open_with(&fpath, crashed).unwrap();
        assert_eq!(report.replay.committed, 0, "cut at {cut}: base owns everything");
        assert_eq!(rows_of(f.store().database()), states[n as usize], "cut at {cut}");
        assert_eq!(f.applied_seq(), n, "cut at {cut}: sequence continues from the base");
        // finishing the promotion still works
        let (mut promoted, pr) = f.promote().unwrap();
        assert_eq!(pr.promoted_at_seq, n);
        promoted.execute("INSERT INTO acct VALUES (999, 'after', 1.0)").unwrap();
        assert_eq!(promoted.commit().unwrap(), n + 1, "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An orphan segment from a crashed publish (never advertised by the
/// manifest) is invisible: the follower applies only up to the
/// manifest, and a re-ship that overwrites the orphan heals everything.
#[test]
fn orphan_segment_from_a_crashed_publish_is_invisible_until_advertised() {
    let dir = tmpdir("orphan");
    let media = MemShipDir::new();
    let n = 2;
    let path = dir.join("primary.store");
    let mut primary = run_primary(&path, &media, n, 1);
    // commit txn 3 and simulate the shipper crashing between segment
    // publish and manifest publish: publish the segment bytes only
    for stmt in txn_stmts(3) {
        primary.execute(&stmt).unwrap();
    }
    primary.commit().unwrap();
    let orphan = osql_repl::encode_segment(&[osql_store::ScannedTxn {
        seq: 3,
        stmts: txn_stmts(3),
    }]);
    media.publish_segment(&osql_repl::segment_name(3), &orphan).unwrap();

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, 2, "the unadvertised orphan must not apply");
    assert_eq!(rows_of(f.store().database()), reference_states(3)[2]);
    // the shipper retries: manifest now advertises txn 3
    ship_store(&path, &media).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, 3);
    assert_eq!(rows_of(f.store().database()), reference_states(3)[3]);
    std::fs::remove_dir_all(&dir).unwrap();
}
