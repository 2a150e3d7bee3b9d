//! The durable store: a base file snapshot plus a write-ahead log.
//!
//! `Store` owns an in-memory [`Database`] whose durable form is the
//! pair `(base file, WAL)`. Mutating statements go through
//! [`Store::execute`], which applies them in memory and buffers them for
//! the log; [`Store::commit`] writes the open transaction to the log in
//! one append and makes it durable
//! ([`Store::commit_deferred`] … [`Store::sync_commits`] does the same
//! for a run of transactions with one sync, for a follower);
//! [`Store::checkpoint`] folds the log into a fresh base snapshot and
//! truncates it. Reopening replays committed transactions on top of the
//! base file, so a crash at any point recovers exactly the last
//! committed state.

use crate::file::{read_database, write_database, LoadedStore};
use crate::wal::{FsMedia, ReplayReport, Wal, WalMedia};
use crate::StoreError;
use sqlkit::Database;
use std::path::{Path, PathBuf};

/// What [`Store::open`] found and did.
#[derive(Debug, Clone)]
pub struct OpenReport {
    /// Replay outcome over the WAL.
    pub replay: ReplayReport,
    /// Size of the base file in bytes.
    pub base_bytes: u64,
}

/// A database with durable storage underneath it.
#[derive(Debug)]
pub struct Store<M: WalMedia = FsMedia> {
    path: PathBuf,
    db: Database,
    blobs: Vec<(String, Vec<u8>)>,
    wal: Wal<M>,
}

/// The WAL path conventionally paired with a base store file.
pub fn wal_path(base: &Path) -> PathBuf {
    let mut os = base.as_os_str().to_owned();
    os.push(".wal");
    PathBuf::from(os)
}

impl Store<FsMedia> {
    /// Create a store at `path` from an existing database (plus named
    /// blobs), writing the base snapshot and an empty WAL. Any sidecar
    /// WAL left behind by an earlier store at the same path is
    /// truncated without being replayed — the fresh base owns all
    /// state, and a stale log's statements need not even parse against
    /// the new schema.
    pub fn create(
        path: &Path,
        db: Database,
        blobs: Vec<(String, Vec<u8>)>,
    ) -> Result<Self, StoreError> {
        write_database(path, &db, &blobs, 0)?;
        let media = FsMedia::open(&wal_path(path))?;
        let wal = Wal::create(media)?;
        Ok(Store { path: path.to_owned(), db, blobs, wal })
    }

    /// Open a store: read the base file, replay the WAL's committed
    /// transactions, and truncate any uncommitted tail.
    pub fn open(path: &Path) -> Result<(Self, OpenReport), StoreError> {
        let media = FsMedia::open(&wal_path(path))?;
        Store::open_with(path, media)
    }
}

impl<M: WalMedia> Store<M> {
    /// Open a store over explicit WAL media (fault-injection tests pass
    /// a [`FaultFile`] here).
    pub fn open_with(path: &Path, media: M) -> Result<(Self, OpenReport), StoreError> {
        let loaded: LoadedStore = read_database(path)?;
        let LoadedStore { mut database, blobs, file_bytes, base_seq } = loaded;
        let (wal, replay) = Wal::open(media, &mut database, base_seq)?;
        let report = OpenReport { replay, base_bytes: file_bytes };
        Ok((Store { path: path.to_owned(), db: database, blobs, wal }, report))
    }

    /// The live database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Named blobs stored alongside the database.
    pub fn blobs(&self) -> &[(String, Vec<u8>)] {
        &self.blobs
    }

    /// Base file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Execute a mutating script: applied in memory immediately and
    /// buffered as one statement record of the open transaction. The
    /// record reaches the WAL with the transaction's commit record, and
    /// is durable once [`Store::commit`] returns.
    ///
    /// Atomicity is per statement, not per script. A statement that fails
    /// changes nothing in memory and the script is not logged, so after a
    /// failed single-statement `sql` the live database still equals what a
    /// reopen (or a follower) would rebuild. A multi-statement script that
    /// fails midway keeps its earlier statements in memory, unlogged: pass
    /// one statement per call when a failure must leave no trace.
    pub fn execute(&mut self, sql: &str) -> Result<(), StoreError> {
        // validate against the live database first so the log only ever
        // holds statements that executed successfully
        self.db
            .execute_script(sql)
            .map_err(|e| StoreError::corrupt(format!("execute: {e}")))?;
        self.wal.append_stmt(sql);
        Ok(())
    }

    /// Commit the open transaction (durable after this returns).
    pub fn commit(&mut self) -> Result<u64, StoreError> {
        Ok(self.wal.commit()?)
    }

    /// Close the open transaction *without* making it durable, and
    /// return its sequence number: one of a run of commits that the
    /// next [`Store::sync_commits`] (or [`Store::commit`]) makes durable
    /// together with a single sync. Only for a writer whose transactions
    /// are already durable elsewhere — a follower re-applying a shipped
    /// segment; a primary acknowledging writes calls [`Store::commit`].
    pub fn commit_deferred(&mut self) -> Result<u64, StoreError> {
        Ok(self.wal.commit_deferred()?)
    }

    /// End a run of deferred commits with its one sync; returns the
    /// sequence number now durable. After an error the live database
    /// may be ahead of what a reopen rebuilds: reopen the store.
    pub fn sync_commits(&mut self) -> Result<u64, StoreError> {
        Ok(self.wal.sync_run()?)
    }

    /// Write an fsync-point marker into the log.
    pub fn fsync_mark(&mut self) -> Result<(), StoreError> {
        Ok(self.wal.fsync_mark()?)
    }

    /// Statements executed since the last commit.
    pub fn pending_stmts(&self) -> u64 {
        self.wal.pending_stmts()
    }

    /// Sequence number of the last commit the live database reflects.
    pub fn commit_seq(&self) -> u64 {
        self.wal.seq()
    }

    /// Sequence number of the last commit known durable: equal to
    /// [`Store::commit_seq`] except inside a run of deferred commits.
    pub fn synced_seq(&self) -> u64 {
        self.wal.synced_seq()
    }

    /// Current WAL end offset in bytes.
    pub fn wal_end(&self) -> u64 {
        self.wal.end()
    }

    /// Checkpoint: commit any open transaction, write the current state
    /// as a fresh base snapshot, and truncate the log. Returns the new
    /// base file size.
    ///
    /// The snapshot records the current commit sequence as its
    /// `base_seq`, so a crash after the base file is published (the
    /// atomic rename inside [`write_database`]) but before the log is
    /// truncated is harmless: the next open skips every WAL commit the
    /// base already folded in instead of replaying it twice.
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        let stats = crate::stats::store_stats();
        stats.checkpoint_begin();
        let started = std::time::Instant::now();
        let result = (|| {
            if self.wal.pending_stmts() > 0 {
                self.wal.commit()?;
            }
            let bytes = write_database(&self.path, &self.db, &self.blobs, self.wal.seq())?;
            self.wal.reset()?;
            Ok(bytes)
        })();
        let us = started.elapsed().as_micros() as u64;
        stats.checkpoint_end(us, *result.as_ref().unwrap_or(&0));
        result
    }
}

impl<M: WalMedia> Store<M> {
    /// The WAL media itself — fault-injection tests crash it and hand
    /// the survivor back to [`Store::open_with`].
    pub fn media_mut(&mut self) -> &mut M {
        self.wal.media_mut()
    }

    /// Consume the store, returning the WAL media (what "the disk"
    /// holds after the process dies).
    pub fn into_media(self) -> M {
        self.wal.into_media()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("osql-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed_db() -> Database {
        let mut db = Database::new("ledger");
        db.execute_script(
            "CREATE TABLE acct (id INTEGER PRIMARY KEY, name TEXT, balance REAL);\
             INSERT INTO acct VALUES (1, 'ann', 10.0), (2, 'bob', 5.5);",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_open_commit_reopen() {
        let dir = tmpdir("lifecycle");
        let path = dir.join("ledger.store");
        let store = Store::create(&path, seed_db(), vec![]).unwrap();
        drop(store);

        let (mut store, report) = Store::open(&path).unwrap();
        assert_eq!(report.replay.committed, 0);
        store.execute("INSERT INTO acct VALUES (3, 'cal', 0.0)").unwrap();
        store.execute("UPDATE acct SET balance = 11.0 WHERE id = 1").unwrap();
        store.commit().unwrap();
        drop(store);

        let (store, report) = Store::open(&path).unwrap();
        assert_eq!(report.replay.committed, 1);
        assert_eq!(report.replay.stmts_applied, 2);
        assert_eq!(store.database().rows("acct").unwrap().len(), 3);
        let rs = store.database().query("SELECT balance FROM acct WHERE id = 1").unwrap();
        assert_eq!(rs.rows[0][0], sqlkit::Value::Real(11.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_reopen() {
        let dir = tmpdir("checkpoint");
        let path = dir.join("ledger.store");
        let mut store = Store::create(&path, seed_db(), vec![]).unwrap();
        store.execute("INSERT INTO acct VALUES (3, 'cal', 1.0)").unwrap();
        store.commit().unwrap();
        store.execute("DELETE FROM acct WHERE id = 2").unwrap();
        // checkpoint commits the open txn, snapshots, truncates the log
        store.checkpoint().unwrap();
        assert_eq!(store.wal_end(), crate::wal::WAL_HEADER);
        drop(store);

        let (store, report) = Store::open(&path).unwrap();
        assert_eq!(report.replay.committed, 0, "log was folded into the base file");
        assert_eq!(store.database().rows("acct").unwrap().len(), 2);
        assert!(store
            .database()
            .query("SELECT * FROM acct WHERE id = 2")
            .unwrap()
            .rows
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_checkpoint_base_publish_and_wal_reset_is_harmless() {
        let dir = tmpdir("ckpt-crash");
        let path = dir.join("ledger.store");
        let mut store = Store::create(&path, seed_db(), vec![]).unwrap();
        store.execute("INSERT INTO acct VALUES (3, 'cal', 1.0)").unwrap();
        store.commit().unwrap();
        store.execute("UPDATE acct SET balance = 99.0 WHERE id = 1").unwrap();
        store.commit().unwrap();
        let expected = store.database().rows("acct").unwrap().to_vec();
        let seq = store.commit_seq();
        // simulate checkpoint() crashing after the base rename but
        // before wal.reset(): publish the folded base, keep the old WAL
        write_database(&path, store.database(), store.blobs(), seq).unwrap();
        drop(store);

        let (store, report) = Store::open(&path).unwrap();
        assert_eq!(
            report.replay.committed, 0,
            "commits the base folded in must not replay (the INSERT would \
             hit a primary-key conflict and the UPDATE would double-apply)"
        );
        assert_eq!(report.replay.commits_skipped, 2);
        assert_eq!(store.database().rows("acct").unwrap(), expected.as_slice());
        assert_eq!(store.commit_seq(), seq, "sequence continues from the base");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_over_a_stale_wal_truncates_it_without_replay() {
        let dir = tmpdir("stale-wal");
        let path = dir.join("ledger.store");
        // an earlier store at the same path left a committed WAL behind
        let mut old = Store::create(&path, seed_db(), vec![]).unwrap();
        old.execute("INSERT INTO acct VALUES (3, 'cal', 1.0)").unwrap();
        old.commit().unwrap();
        drop(old);
        // recreate with a different schema: the stale log's statements
        // don't even apply to it, and must never be replayed
        let mut other = Database::new("ledger");
        other.execute_script("CREATE TABLE book (id INTEGER PRIMARY KEY, title TEXT)").unwrap();
        let store = Store::create(&path, other, vec![]).unwrap();
        assert_eq!(store.wal_end(), crate::wal::WAL_HEADER);
        drop(store);
        let (store, report) = Store::open(&path).unwrap();
        assert_eq!(report.replay.committed, 0);
        assert!(store.database().rows("book").unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_statement_never_reaches_the_log() {
        let dir = tmpdir("invalid");
        let path = dir.join("ledger.store");
        let mut store = Store::create(&path, seed_db(), vec![]).unwrap();
        let end_before = store.wal_end();
        assert!(store.execute("INSERT INTO ghost VALUES (1)").is_err());
        assert_eq!(store.pending_stmts(), 0, "failed statement must not be buffered");
        store.commit().unwrap();
        assert_eq!(store.wal_end() - end_before, 17, "the log holds its commit record alone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_statement_leaves_memory_equal_to_a_reopen() {
        let dir = tmpdir("failed-stmt");
        let path = dir.join("ledger.store");
        let mut db = seed_db();
        db.create_index("acct", "name").unwrap();
        let mut store = Store::create(&path, db, vec![]).unwrap();
        store.execute("INSERT INTO acct VALUES (3, 'cal', 1.0)").unwrap();
        store.commit().unwrap();
        assert!(store.database().index("acct", "name").is_some());
        // both short-circuit on row 1 and fail on row 2
        for sql in [
            "UPDATE acct SET name = 'x', balance = 0.0 WHERE id = 1 OR ghost = 1",
            "DELETE FROM acct WHERE id = 1 OR ghost = 1",
        ] {
            let end_before = store.wal_end();
            assert!(store.execute(sql).is_err(), "{sql}");
            assert_eq!(store.pending_stmts(), 0, "{sql}: failed statement must not be buffered");
            assert_eq!(store.wal_end(), end_before, "failed statement must not be logged");
            let (reopened, _) = Store::open(&path).unwrap();
            assert_eq!(
                store.database().dump_script(),
                reopened.database().dump_script(),
                "{sql}: the primary's memory holds a change no reopen will ever see"
            );
            let by_name = "SELECT id FROM acct WHERE name = 'ann'";
            assert_eq!(
                store.database().query(by_name).unwrap().rows,
                reopened.database().query(by_name).unwrap().rows,
                "{sql}: a resident index serves a row the statement rewrote"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blobs_survive_create_and_checkpoint() {
        let dir = tmpdir("blobs");
        let path = dir.join("ledger.store");
        let blobs = vec![("meta".to_owned(), vec![9u8; 100])];
        let mut store = Store::create(&path, seed_db(), blobs.clone()).unwrap();
        store.execute("INSERT INTO acct VALUES (3, 'cal', 1.0)").unwrap();
        store.checkpoint().unwrap();
        drop(store);
        let (store, _) = Store::open(&path).unwrap();
        assert_eq!(store.blobs(), blobs.as_slice());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
