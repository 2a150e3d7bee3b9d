//! Crash-recovery property: cutting or corrupting the WAL at *any*
//! byte offset and reopening yields exactly the state of the last
//! fully committed transaction.
//!
//! The matrix drives [`FaultFile`] across every byte offset of a
//! scripted workload twice — once as a torn-write truncation, once as
//! a single-byte corruption — which is far past the 64-fault-point
//! floor the acceptance criteria require.

use osql_store::fault::{FaultFile, FaultPlan};
use osql_store::{wal_path, write_database, Store};
use sqlkit::value::Row;
use sqlkit::Database;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osql-recovery-{tag}-{}", std::process::id()));
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

fn rows_of(db: &Database) -> Vec<Row> {
    db.rows("acct").unwrap().to_vec()
}

/// Run the scripted workload over a FaultFile WAL, returning the final
/// media plus `(end_offset, expected_rows)` snapshots: snapshot `i`
/// applies whenever the log survives to at least `end_offset` bytes.
fn scripted_workload(path: &std::path::Path) -> (FaultFile, Vec<(u64, Vec<Row>)>) {
    write_database(path, &base_db(), &[], 0).unwrap();
    let (mut store, _) = Store::open_with(path, FaultFile::new()).unwrap();
    // baseline: whatever survives, the base file's state is the floor
    let mut snapshots = vec![(0u64, rows_of(store.database()))];
    for txn in 0..12u32 {
        let stmts = 1 + (txn % 3);
        for s in 0..stmts {
            let id = 10 + txn * 10 + s;
            store
                .execute(&format!("INSERT INTO acct VALUES ({id}, 'tx{txn}', {s}.5)"))
                .unwrap();
        }
        if txn % 4 == 1 {
            store.execute(&format!("UPDATE acct SET balance = {txn} WHERE id = 1")).unwrap();
        }
        if txn == 7 {
            store.execute("DELETE FROM acct WHERE id = 10").unwrap();
        }
        store.commit().unwrap();
        // snapshot at the commit boundary: a trailing fsync marker is
        // ignorable tail, not part of the committed prefix
        snapshots.push((store.wal_end(), rows_of(store.database())));
        if txn % 5 == 0 {
            store.fsync_mark().unwrap();
        }
    }
    (store.into_media(), snapshots)
}

fn expected_at(snapshots: &[(u64, Vec<Row>)], survived: u64) -> &Vec<Row> {
    &snapshots
        .iter()
        .rev()
        .find(|(end, _)| *end <= survived)
        .expect("baseline snapshot always applies")
        .1
}

#[test]
fn truncation_at_every_byte_offset_recovers_committed_prefix() {
    let dir = tmpdir("truncate");
    let path = dir.join("ledger.store");
    let (media, snapshots) = scripted_workload(&path);
    let total = media.raw_len() as u64;
    assert!(total > 64, "workload WAL must exceed the 64-fault-point floor");
    let mut fault_points = 0u64;
    for cut in 0..=total {
        let mut crashed = media.clone();
        crashed.set_plan(FaultPlan { torn_tail: Some(cut), ..FaultPlan::default() });
        crashed.crash();
        let (store, report) =
            Store::open_with(&path, crashed).expect("recovery must always succeed");
        let expect = expected_at(&snapshots, cut);
        assert_eq!(
            &rows_of(store.database()),
            expect,
            "cut at byte {cut}: state is not the committed prefix \
             (replay committed {}, finding {:?})",
            report.replay.committed,
            report.replay.finding,
        );
        fault_points += 1;
    }
    eprintln!("truncation fault points exercised: {fault_points}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corruption_at_every_byte_offset_recovers_committed_prefix() {
    let dir = tmpdir("corrupt");
    let path = dir.join("ledger.store");
    let (media, snapshots) = scripted_workload(&path);
    let total = media.raw_len() as u64;
    let mut fault_points = 0u64;
    for off in 0..total {
        let mut sick = media.clone();
        sick.set_plan(FaultPlan { corrupt_at: Some((off, 0xFF)), ..FaultPlan::default() });
        let (store, _) = Store::open_with(&path, sick).expect("recovery must always succeed");
        // replay stops inside the record containing the corrupt byte,
        // so exactly the commits that ended before it are applied
        let expect = expected_at(&snapshots, off);
        assert_eq!(
            &rows_of(store.database()),
            expect,
            "corruption at byte {off}: state is not the committed prefix"
        );
        fault_points += 1;
    }
    eprintln!("corruption fault points exercised: {fault_points}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_store_accepts_new_commits_without_resurrecting_the_tail() {
    let dir = tmpdir("resume");
    let path = dir.join("ledger.store");
    let (media, snapshots) = scripted_workload(&path);
    let total = media.raw_len() as u64;
    // sample several cut points: after recovery, new commits must build
    // on the committed prefix and never bring the lost tail back
    for cut in [total / 7, total / 3, total / 2, total - 3] {
        let mut crashed = media.clone();
        crashed.set_plan(FaultPlan { torn_tail: Some(cut), ..FaultPlan::default() });
        crashed.crash();
        let (mut store, _) = Store::open_with(&path, crashed).unwrap();
        let mut expect = expected_at(&snapshots, cut).clone();
        store.execute("INSERT INTO acct VALUES (999, 'post-crash', 1.0)").unwrap();
        store.commit().unwrap();
        expect.push(vec![
            sqlkit::Value::Int(999),
            sqlkit::Value::text("post-crash"),
            sqlkit::Value::Real(1.0),
        ]);
        let survivor = store.into_media();
        let (reopened, _) = Store::open_with(&path, survivor).unwrap();
        assert_eq!(rows_of(reopened.database()), expect, "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The batched run a follower writes per shipped segment: commit records
/// appended with [`Store::commit_deferred`] and no sync yet. A crash
/// there can keep any prefix of the unsynced bytes (the page cache wrote
/// some back) — for every such prefix the reopened store sits exactly on
/// a commit boundary at or past the synced watermark, vouches only for
/// what it has since made durable, and takes the next sequence number.
#[test]
fn unsynced_run_cut_at_every_byte_recovers_a_commit_boundary() {
    let dir = tmpdir("unsynced-run");
    let path = dir.join("ledger.store");
    write_database(&path, &base_db(), &[], 0).unwrap();
    let (mut store, _) = Store::open_with(&path, FaultFile::new()).unwrap();
    let mut snapshots = vec![(0u64, rows_of(store.database()))];
    let mut txn = |store: &mut Store<FaultFile>, i: u32, synced: bool| {
        store.execute(&format!("INSERT INTO acct VALUES ({}, 'tx{i}', {i}.5)", 10 + i)).unwrap();
        if i.is_multiple_of(2) {
            store.execute(&format!("UPDATE acct SET balance = {i} WHERE id = 1")).unwrap();
        }
        let seq = if synced { store.commit() } else { store.commit_deferred() };
        assert_eq!(seq.unwrap(), u64::from(i));
        snapshots.push((store.wal_end(), rows_of(store.database())));
    };
    for i in 1..=2 {
        txn(&mut store, i, true);
    }
    let syncs = store.media_mut().syncs();
    for i in 3..=6 {
        txn(&mut store, i, false);
    }
    assert_eq!(store.media_mut().syncs(), syncs, "a run appends, it does not sync");
    assert_eq!((store.commit_seq(), store.synced_seq()), (6, 2));
    let media = store.into_media();
    let durable = media.durable_len() as u64;
    assert_eq!(durable, snapshots[2].0, "the watermark is the last per-commit sync");

    let unsynced = media.raw_len() as u64 - durable;
    for keep in 0..=unsynced {
        let mut crashed = media.clone();
        crashed.set_plan(FaultPlan { keep_unsynced: Some(keep), ..FaultPlan::default() });
        crashed.crash();
        let (mut store, _) = Store::open_with(&path, crashed).expect("recovery must succeed");
        let k = store.commit_seq();
        assert!((2..=6).contains(&k), "keep {keep}: recovered at {k}, synced watermark was 2");
        assert_eq!(
            &rows_of(store.database()),
            expected_at(&snapshots, durable + keep),
            "keep {keep}: state is not the commit boundary the surviving bytes end on"
        );
        assert_eq!(store.synced_seq(), k, "keep {keep}");
        store.execute("INSERT INTO acct VALUES (999, 'post-crash', 1.0)").unwrap();
        assert_eq!(store.commit().unwrap(), k + 1, "keep {keep}");
    }
    eprintln!("unsynced-run fault points exercised: {}", unsynced + 1);

    // a killed process (no machine crash) leaves the whole run in the
    // page cache: open replays it, and syncs it before vouching for it
    let (mut store, _) = Store::open_with(&path, media).unwrap();
    assert_eq!((store.commit_seq(), store.synced_seq()), (6, 6));
    assert_eq!(store.media_mut().durable_len(), store.media_mut().raw_len());
    // the sync that ends a run is one sync, however long the run
    let syncs = store.media_mut().syncs();
    for i in 7..=9 {
        store.execute(&format!("INSERT INTO acct VALUES ({}, 'tx{i}', 0.5)", 10 + i)).unwrap();
        store.commit_deferred().unwrap();
    }
    assert_eq!(store.sync_commits().unwrap(), 9);
    assert_eq!(store.media_mut().syncs(), syncs + 1);
    assert_eq!((store.commit_seq(), store.synced_seq()), (9, 9));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoint crash window: `checkpoint()` publishes the folded base
/// (atomic rename) and only then truncates the WAL. Crash between the
/// two and the full log sits next to a base that already contains its
/// effects — recovery must skip those commits, not replay them twice
/// (the workload's primary-key INSERTs would otherwise conflict and
/// make the store unopenable). The WAL is additionally cut at every
/// byte offset: whatever survives of it, the recovered state is the
/// checkpointed state.
#[test]
fn checkpoint_crash_window_never_double_replays_at_any_cut() {
    let dir = tmpdir("ckpt-window");
    let path = dir.join("ledger.store");
    let (media, snapshots) = scripted_workload(&path);
    // simulate the first half of a checkpoint: fold the final state
    // into the base file, recording the last commit seq; the WAL is
    // left exactly as the workload wrote it (reset never ran)
    let (store, _) = Store::open_with(&path, media.clone()).unwrap();
    let final_rows = snapshots.last().unwrap().1.clone();
    assert_eq!(rows_of(store.database()), final_rows);
    write_database(&path, store.database(), &[], store.commit_seq()).unwrap();
    drop(store);

    let total = media.raw_len() as u64;
    let mut fault_points = 0u64;
    for cut in 0..=total {
        let mut crashed = media.clone();
        crashed.set_plan(FaultPlan { torn_tail: Some(cut), ..FaultPlan::default() });
        crashed.crash();
        let (store, report) =
            Store::open_with(&path, crashed).expect("recovery must always succeed");
        assert_eq!(
            rows_of(store.database()),
            final_rows,
            "cut at byte {cut}: base already folded everything in, yet replay \
             applied {} commits (skipped {})",
            report.replay.committed,
            report.replay.commits_skipped,
        );
        assert_eq!(report.replay.committed, 0, "cut at byte {cut}");
        fault_points += 1;
    }
    eprintln!("checkpoint-crash fault points exercised: {fault_points}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn real_file_wal_recovers_after_on_disk_damage() {
    let dir = tmpdir("fsmedia");
    let path = dir.join("ledger.store");
    let mut store = Store::create(&path, base_db(), vec![]).unwrap();
    store.execute("INSERT INTO acct VALUES (2, 'two', 2.0)").unwrap();
    store.commit().unwrap();
    let committed = rows_of(store.database());
    store.execute("INSERT INTO acct VALUES (3, 'three', 3.0)").unwrap();
    store.commit().unwrap();
    drop(store);
    // damage the second transaction's bytes on disk
    let wal = wal_path(&path);
    let mut bytes = std::fs::read(&wal).unwrap();
    let n = bytes.len();
    bytes[n - 20] ^= 0xFF;
    std::fs::write(&wal, &bytes).unwrap();
    let (store, report) = Store::open(&path).unwrap();
    assert_eq!(report.replay.committed, 1);
    assert!(report.replay.finding.is_some());
    assert_eq!(rows_of(store.database()), committed);
    // the damaged tail was truncated off the real file too
    drop(store);
    let after = std::fs::read(&wal).unwrap();
    assert!(after.len() < n);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn short_reads_surface_as_truncation_not_garbage() {
    let dir = tmpdir("short");
    let path = dir.join("ledger.store");
    let (media, snapshots) = scripted_workload(&path);
    let total = media.raw_len() as u64;
    for cap in [9, total / 2, total - 1] {
        let mut sick = media.clone();
        sick.set_plan(FaultPlan { short_read: Some(cap), ..FaultPlan::default() });
        let (store, _) = Store::open_with(&path, sick).unwrap();
        assert_eq!(&rows_of(store.database()), expected_at(&snapshots, cap));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
