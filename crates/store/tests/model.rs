//! Model-checked concurrency invariants for the storage layer: the
//! demand-paged catalog's eviction protocol and WAL commit sequencing
//! under concurrent committers. Only built under `--cfg osql_model`:
//!
//! ```sh
//! RUSTFLAGS="--cfg osql_model" CARGO_TARGET_DIR=target/model \
//!     cargo test -p osql-store --test model
//! ```
#![cfg(osql_model)]

use osql_chk::model::{self, Config, Outcome};
use osql_chk::thread;
use osql_store::{audit, Catalog, Wal, WalMedia};
use std::path::Path;
use std::sync::Arc;

fn cfg() -> Config {
    Config { preemption_bound: 2, max_schedules: 50_000, ..Config::default() }
}

fn assert_pass(invariant: &str, outcome: Outcome) {
    match outcome {
        Outcome::Pass(report) => {
            // visible under `cargo test -- --nocapture`; the numbers feed
            // EXPERIMENTS.md
            eprintln!("{invariant}: {} schedule(s) explored", report.schedules);
        }
        Outcome::Fail { message, schedule, schedules } => {
            panic!("{invariant}: model check failed after {schedules} schedule(s): {message}\nschedule: {schedule}")
        }
    }
}

/// Fault-free in-memory WAL media; the model schedules around the chk
/// mutex guarding the `Wal`, not around I/O.
#[derive(Default)]
struct MemWal {
    buf: Vec<u8>,
}

impl WalMedia for MemWal {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn len(&mut self) -> std::io::Result<u64> {
        Ok(self.buf.len() as u64)
    }
    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        Ok(self.buf.clone())
    }
    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.buf.truncate(len as usize);
        Ok(())
    }
}

/// Commit sequence numbers stay gap-free under concurrent committers:
/// two threads each append + commit through one `chk::Mutex<Wal<_>>`;
/// the sequences handed out are exactly {1, 2} and the durable log
/// audits to two intact commits with no tail garbage.
#[test]
fn wal_commit_seqs_gap_free_under_concurrent_committers() {
    assert_pass("wal_commit_seqs_gap_free_under_concurrent_committers", model::explore(cfg(), || {
        let wal = Arc::new(osql_chk::Mutex::new(Wal::create(MemWal::default()).unwrap()));
        let other = {
            let wal = wal.clone();
            thread::spawn(move || {
                let mut w = wal.lock();
                w.append_stmt("INSERT INTO t VALUES (2)");
                w.commit().unwrap()
            })
        };
        let mine = {
            let mut w = wal.lock();
            w.append_stmt("INSERT INTO t VALUES (1)");
            w.commit().unwrap()
        };
        let theirs = other.join().unwrap();
        let mut seqs = [mine, theirs];
        seqs.sort_unstable();
        assert_eq!(seqs, [1, 2], "gap-free and duplicate-free");

        let mut w = wal.lock();
        assert_eq!(w.seq(), 2);
        let end = w.end();
        let buf = w.media_mut().read_all().unwrap();
        let report = audit(&buf);
        assert_eq!(report.commits, 2, "both commits durable");
        assert_eq!(report.finding, None, "no torn records");
        assert_eq!(report.tail_bytes, 0, "no uncommitted tail");
        assert_eq!(report.committed_offset, end);
    }));
}

/// The batched run keeps both properties: one thread commits a run of
/// two deferred commits with a trailing sync (a follower applying a
/// segment), releasing the lock between them, while another commits the
/// ordinary way. Sequences stay gap-free whichever way they interleave,
/// the synced watermark never passes the sequence, and a per-commit
/// sync covers whatever part of the run sits before it in the log.
#[test]
fn wal_deferred_run_and_commit_share_one_sequence_and_one_watermark() {
    assert_pass("wal_deferred_run_and_commit_share_one_sequence_and_one_watermark", model::explore(cfg(), || {
        let wal = Arc::new(osql_chk::Mutex::new(Wal::create(MemWal::default()).unwrap()));
        let other = {
            let wal = wal.clone();
            thread::spawn(move || {
                let mut w = wal.lock();
                w.append_stmt("INSERT INTO t VALUES (3)");
                let seq = w.commit().unwrap();
                assert_eq!(w.synced_seq(), seq, "a commit's sync covers the run before it");
                seq
            })
        };
        let mut mine = Vec::new();
        for i in 1..=2 {
            let mut w = wal.lock();
            w.append_stmt(&format!("INSERT INTO t VALUES ({i})"));
            mine.push(w.commit_deferred().unwrap());
            assert!(w.synced_seq() < w.seq(), "a deferred commit is not yet synced");
        }
        {
            let mut w = wal.lock();
            assert_eq!(w.sync_run().unwrap(), w.seq(), "the run's sync covers every commit so far");
        }
        let theirs = other.join().unwrap();
        let mut seqs = [mine[0], mine[1], theirs];
        seqs.sort_unstable();
        assert_eq!(seqs, [1, 2, 3], "gap-free and duplicate-free");

        let mut w = wal.lock();
        assert!(w.synced_seq() <= w.seq());
        let buf = w.media_mut().read_all().unwrap();
        let report = audit(&buf);
        assert_eq!((report.commits, report.last_commit_seq), (3, 3));
        assert_eq!((report.finding, report.tail_bytes), (None, 0));
    }));
}

/// The catalog's "never evict the entry just loaded" rule under racing
/// loaders: two threads each demand-page a database whose size alone
/// busts the budget. Both gets must succeed, exactly one victim is
/// evicted, and the accounting stays exact.
#[test]
fn catalog_never_evicts_the_entry_just_loaded() {
    let dir = std::env::temp_dir().join(format!("osql-chk-catalog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir = Arc::new(dir);
    assert_pass("catalog_never_evicts_the_entry_just_loaded", model::explore(cfg(), {
        let dir = dir.clone();
        move || {
            // budget 100, each db is 60 bytes: the second load must evict
            // the first — and only the first, never itself.
            let cat = Arc::new(
                Catalog::open(&dir, 100, |path: &Path| {
                    let id = path.file_stem().unwrap().to_string_lossy().into_owned();
                    Ok((id, 60))
                })
                .unwrap(),
            );
            let other = {
                let cat = cat.clone();
                thread::spawn(move || cat.get("b").unwrap())
            };
            let mine = cat.get("a").unwrap();
            let theirs = other.join().unwrap();
            assert_eq!((mine.as_str(), theirs.as_str()), ("a", "b"), "both loads served");
            assert_eq!(cat.loads(), 2);
            assert_eq!(cat.evictions(), 1, "exactly one victim");
            let resident = cat.resident();
            assert_eq!(resident.len(), 1, "budget honoured after the race");
            assert_eq!(cat.resident_bytes(), 60);
            // the survivor is whichever loaded last — never evicted by
            // its own insertion
            assert!(cat.is_resident(&resident[0].0));
        }
    }));
    let _ = std::fs::remove_dir_all(&*dir);
}

/// A resident entry is retained across a racing re-get: when the budget
/// fits both, concurrent gets never evict anything.
#[test]
fn catalog_retains_entries_that_fit_the_budget() {
    let dir = std::env::temp_dir().join(format!("osql-chk-catalog2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir = Arc::new(dir);
    assert_pass("catalog_retains_entries_that_fit_the_budget", model::explore(cfg(), {
        let dir = dir.clone();
        move || {
            let cat = Arc::new(
                Catalog::open(&dir, 200, |path: &Path| {
                    let id = path.file_stem().unwrap().to_string_lossy().into_owned();
                    Ok((id, 60))
                })
                .unwrap(),
            );
            let other = {
                let cat = cat.clone();
                thread::spawn(move || cat.get("b").unwrap())
            };
            let mine = cat.get("a").unwrap();
            other.join().unwrap();
            assert_eq!(mine.as_str(), "a");
            assert_eq!(cat.evictions(), 0, "both fit: nothing evicted");
            assert!(cat.is_resident("a") && cat.is_resident("b"));
            assert_eq!(cat.resident_bytes(), 120);
        }
    }));
    let _ = std::fs::remove_dir_all(&*dir);
}

/// Double-load race: both threads demand the *same* id concurrently.
/// The second loader must adopt the first's entry (single resident copy)
/// and the catalog must never double-count its bytes.
#[test]
fn catalog_concurrent_same_id_loads_converge() {
    let dir = std::env::temp_dir().join(format!("osql-chk-catalog3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dir = Arc::new(dir);
    assert_pass("catalog_concurrent_same_id_loads_converge", model::explore(cfg(), {
        let dir = dir.clone();
        move || {
            let cat = Arc::new(
                Catalog::open(&dir, 1000, |path: &Path| {
                    let id = path.file_stem().unwrap().to_string_lossy().into_owned();
                    Ok((id, 60))
                })
                .unwrap(),
            );
            let other = {
                let cat = cat.clone();
                thread::spawn(move || cat.get("a").unwrap())
            };
            let mine = cat.get("a").unwrap();
            let theirs = other.join().unwrap();
            assert_eq!(mine.as_str(), "a");
            assert!(Arc::ptr_eq(&mine, &theirs) || cat.loads() == 2, "either shared or re-loaded, never torn");
            assert!(cat.is_resident("a"));
            assert_eq!(cat.resident().len(), 1, "one resident copy");
            assert_eq!(cat.evictions(), 0);
        }
    }));
    let _ = std::fs::remove_dir_all(&*dir);
}
