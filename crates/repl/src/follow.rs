//! Follower side: tail the shipping directory, replay shipped commits
//! onto a local store, and — when asked — promote that store to a
//! writable primary.
//!
//! The follower owns an ordinary [`Store`]: every shipped transaction is
//! re-executed statement by statement and committed through the
//! follower's *own* WAL. Because the store hands out sequence numbers
//! one at a time, the follower reproduces exactly the primary's commit
//! sequence.
//!
//! Its durability point is the shipped segment, not the transaction.
//! Everything past the follower's watermark is already durable on the
//! primary and re-fetchable from the shipping directory, so a segment's
//! transactions are committed as one run ([`Store::commit_deferred`])
//! with a single trailing sync ([`Store::sync_commits`]) where the
//! segment — or the manifest's `last_commit_seq` inside it — ends.
//! `applied_seq` is the store's *synced* sequence: it moves only at
//! those syncs, so what is reported, published to
//! [`ReplState`](crate::ReplState) and served in `X-Osql-Applied-Seq`
//! is never an unsynced prefix. A crash inside a segment recovers
//! through the store's ordinary open path: the CRC-framed committed
//! prefix of the run that reached the disk is kept (always a commit
//! boundary), the tail is truncated, the next poll re-fetches the rest.
//!
//! A failure *inside* a segment (a statement, an append, the sync)
//! leaves the live database ahead of anything a reopen would rebuild, so
//! from then on [`Follower::poll`] and [`Follower::promote`] refuse with
//! [`ReplError::NeedsReopen`]: polling on would re-execute statements
//! over memory that already ran them. Reopening is the only way back.
//! The CLI's `follow_round` is immune only because it opens a fresh
//! follower every round; anything that keeps a `Follower` across rounds
//! (the benchmark does) relies on the refusal.
//!
//! Two hard rules keep replicas honest:
//!
//! - the follower never applies a transaction the manifest does not
//!   advertise (a longer segment is a publish in progress, not data);
//! - the follower refuses out-of-order sequences outright — a hole is a
//!   [`ReplError::Gap`], a contradiction is [`ReplError::Diverged`],
//!   and neither is ever papered over by partial application.

use crate::media::ShipMedia;
use crate::ship::{read_manifest, BASE_NAME};
use crate::ReplError;
use osql_store::wal::{FsMedia, WalMedia};
use osql_store::{crc32, OpenReport, Store};
use std::path::Path;

/// What one [`Follower::poll`] round did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// The manifest's advertised last commit sequence (0 when no
    /// manifest was published yet).
    pub target_seq: u64,
    /// The follower's applied sequence after this round.
    pub applied_seq: u64,
    /// Transactions applied this round.
    pub applied_txns: u64,
    /// Statements executed inside those transactions.
    pub stmts_applied: u64,
    /// Segment files fetched this round.
    pub segments_read: u64,
    /// A non-fatal oddity worth surfacing (e.g. the local store is ahead
    /// of the manifest).
    pub finding: Option<String>,
}

/// What [`Follower::promote`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionReport {
    /// The applied sequence the store was promoted at: every commit up
    /// to and including this one is folded into the new base snapshot.
    pub promoted_at_seq: u64,
    /// Size of the freshly written base file in bytes.
    pub base_bytes: u64,
}

/// A read-only replica applying shipped transactions onto its own store.
#[derive(Debug)]
pub struct Follower<M: WalMedia = FsMedia> {
    store: Store<M>,
    /// Set before a segment's first statement runs, cleared by the
    /// segment's sync: still set on entry means a round died in between.
    in_doubt: bool,
}

/// Seed a missing follower store from the shipping directory's bootstrap
/// base snapshot (temp-file + rename, so a crash mid-seed leaves no
/// half-written store). Returns `true` when a seed happened, `false`
/// when the store already existed.
pub fn seed_if_missing(store_path: &Path, media: &impl ShipMedia) -> Result<bool, ReplError> {
    if store_path.exists() {
        return Ok(false);
    }
    let Some(base) = media.read_blob(BASE_NAME)? else {
        return Err(ReplError::Corrupt(format!(
            "shipping directory has no {BASE_NAME} snapshot to seed from"
        )));
    };
    if let Some(parent) = store_path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = store_path.with_extension("seed-tmp");
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&base)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, store_path)?;
    Ok(true)
}

impl Follower<FsMedia> {
    /// Open a follower over the store at `path` (seed it first with
    /// [`seed_if_missing`] when bootstrapping a brand-new replica).
    pub fn open(path: &Path) -> Result<(Self, OpenReport), ReplError> {
        let (store, report) = Store::open(path)?;
        Ok((Follower { store, in_doubt: false }, report))
    }
}

impl<M: WalMedia> Follower<M> {
    /// Open a follower over explicit WAL media (fault-injection tests
    /// pass a [`osql_store::FaultFile`] here).
    pub fn open_with(path: &Path, media: M) -> Result<(Self, OpenReport), ReplError> {
        let (store, report) = Store::open_with(path, media)?;
        Ok((Follower { store, in_doubt: false }, report))
    }

    /// The follower's applied sequence: the last shipped commit durably
    /// replayed onto the local store — the store's synced watermark,
    /// which moves once per applied segment. Monotonic.
    pub fn applied_seq(&self) -> u64 {
        self.store.synced_seq()
    }

    /// The underlying read-only store (serving reads, inspecting rows).
    /// After a round failed with the follower left in doubt, its live
    /// database may be ahead of `applied_seq`.
    pub fn store(&self) -> &Store<M> {
        &self.store
    }

    /// Refuse to go on over memory a failed round left ahead of the log.
    fn usable(&self) -> Result<(), ReplError> {
        if self.in_doubt {
            return Err(ReplError::NeedsReopen { applied_seq: self.applied_seq() });
        }
        Ok(())
    }

    /// Consume the follower, returning the store without promoting it
    /// (fault-injection tests crash its WAL media and reopen).
    pub fn into_store(self) -> Store<M> {
        self.store
    }

    /// One apply round: read the manifest, fetch advertised segments
    /// past `applied_seq`, and replay their transactions in sequence
    /// order, one sync per segment. Stops cleanly at the manifest's
    /// `last_commit_seq`. An error before a segment's first statement
    /// leaves the follower as it was; an error after it leaves the
    /// follower refusing further rounds (see the module docs).
    pub fn poll(&mut self, media: &impl ShipMedia) -> Result<ApplyReport, ReplError> {
        self.usable()?;
        let mut report =
            ApplyReport { applied_seq: self.applied_seq(), ..ApplyReport::default() };
        let Some(manifest) = read_manifest(media)? else {
            return Ok(report);
        };
        report.target_seq = manifest.last_commit_seq;
        if self.applied_seq() > manifest.last_commit_seq {
            report.finding = Some(format!(
                "local store at seq {} is ahead of the manifest's {}",
                self.applied_seq(),
                manifest.last_commit_seq
            ));
            return Ok(report);
        }
        for meta in &manifest.segments {
            if self.applied_seq() >= manifest.last_commit_seq {
                break;
            }
            let need = self.applied_seq() + 1;
            if meta.end_seq < need {
                continue; // fully applied already
            }
            if meta.start_seq > need {
                return Err(ReplError::Gap { have: need - 1, need });
            }
            let name = crate::segment_name(meta.start_seq);
            let bytes = media.read_segment(&name).map_err(|e| {
                if e.kind() == std::io::ErrorKind::NotFound {
                    ReplError::Corrupt(format!("manifest advertises {name} but it is absent"))
                } else {
                    ReplError::Io(e)
                }
            })?;
            report.segments_read += 1;
            // an advertised segment must match its manifest entry exactly;
            // a mismatch is damage, and damaged bytes are never replayed
            if bytes.len() as u64 != meta.bytes || crc32(&bytes) != meta.crc {
                return Err(ReplError::Corrupt(format!(
                    "{name} does not match its manifest entry \
                     ({} bytes vs {} advertised)",
                    bytes.len(),
                    meta.bytes
                )));
            }
            let scan = crate::decode_segment(&bytes)?;
            if let Some(finding) = scan.finding {
                return Err(ReplError::Corrupt(format!("{name}: {finding}")));
            }
            for txn in &scan.txns {
                // `commit_seq` counts the run so far, `applied_seq` only
                // what is synced
                let have = self.store.commit_seq();
                if txn.seq <= have {
                    continue; // overlap with what we already hold
                }
                if txn.seq > manifest.last_commit_seq {
                    break; // never run ahead of the advertisement
                }
                if txn.seq != have + 1 {
                    return Err(ReplError::Gap { have, need: have + 1 });
                }
                // from the first statement to the segment's sync the live
                // database runs ahead of the synced log, and every early
                // return in between leaves the flag up
                self.in_doubt = true;
                for stmt in &txn.stmts {
                    self.store.execute(stmt)?;
                }
                let committed = self.store.commit_deferred()?;
                if committed != txn.seq {
                    return Err(ReplError::Diverged(format!(
                        "shipped txn {} landed as local commit {committed}",
                        txn.seq
                    )));
                }
                report.applied_txns += 1;
                report.stmts_applied += txn.stmts.len() as u64;
            }
            // the segment's one durability point; only now does
            // `applied_seq` move
            self.store.sync_commits()?;
            self.in_doubt = false;
        }
        report.applied_seq = self.applied_seq();
        if report.applied_seq < report.target_seq {
            return Err(ReplError::Gap {
                have: report.applied_seq,
                need: report.applied_seq + 1,
            });
        }
        Ok(report)
    }

    /// Promote this follower to a writable primary: checkpoint the
    /// applied prefix into a fresh base snapshot (which truncates the
    /// local WAL at exactly the applied prefix) and hand the store back
    /// ready for writes. Refuses if a partial transaction is pending —
    /// promotion must never commit half of a shipped transaction.
    pub fn promote(mut self) -> Result<(Store<M>, PromotionReport), ReplError> {
        self.usable()?;
        if self.store.pending_stmts() > 0 {
            return Err(ReplError::Diverged(
                "partial transaction pending; reopen the store before promoting".to_owned(),
            ));
        }
        let promoted_at_seq = self.applied_seq();
        let base_bytes = self.store.checkpoint()?;
        Ok((self.store, PromotionReport { promoted_at_seq, base_bytes }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MemShipDir;
    use crate::ship::ship_store;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osql-repl-follow-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn primary(path: &Path) -> Store {
        let mut db = sqlkit::Database::new("db");
        db.execute_script("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").unwrap();
        Store::create(path, db, vec![]).unwrap()
    }

    #[test]
    fn seed_poll_apply_promote_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut p = primary(&dir.join("primary.store"));
        p.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        p.commit().unwrap();
        p.execute("INSERT INTO t VALUES (2, 'b')").unwrap();
        p.execute("UPDATE t SET v = 'a2' WHERE id = 1").unwrap();
        p.commit().unwrap();

        let media = MemShipDir::new();
        ship_store(p.path(), &media).unwrap();

        let fpath = dir.join("follower.store");
        assert!(seed_if_missing(&fpath, &media).unwrap());
        assert!(!seed_if_missing(&fpath, &media).unwrap(), "second seed is a no-op");
        let (mut f, _) = Follower::open(&fpath).unwrap();
        assert_eq!(f.applied_seq(), 0);
        let report = f.poll(&media).unwrap();
        assert_eq!(report.target_seq, 2);
        assert_eq!(report.applied_seq, 2);
        assert_eq!(report.applied_txns, 2);
        assert_eq!(report.stmts_applied, 3);
        assert_eq!(
            f.store().database().rows("t").unwrap(),
            p.database().rows("t").unwrap(),
            "replica rows match the primary"
        );

        // idle poll: nothing to do, no segment fetches for applied data
        let report = f.poll(&media).unwrap();
        assert_eq!(report.applied_txns, 0);

        let (mut promoted, pr) = f.promote().unwrap();
        assert_eq!(pr.promoted_at_seq, 2);
        promoted.execute("INSERT INTO t VALUES (3, 'c')").unwrap();
        assert_eq!(promoted.commit().unwrap(), 3, "sequence continues after promotion");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follower_never_applies_past_the_manifest() {
        let dir = tmpdir("bounded");
        let mut p = primary(&dir.join("primary.store"));
        p.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        p.commit().unwrap();
        let media = MemShipDir::new();
        ship_store(p.path(), &media).unwrap();
        // overwrite the shipped segment with a longer one (publish in
        // progress: commit 2 exists in the segment, not in the manifest)
        let longer = crate::encode_segment(&[
            osql_store::ScannedTxn { seq: 1, stmts: vec!["INSERT INTO t VALUES (1, 'a')"], records: None },
            osql_store::ScannedTxn { seq: 2, stmts: vec!["INSERT INTO t VALUES (2, 'b')"], records: None },
        ]);
        media.publish_segment(&crate::segment_name(1), &longer).unwrap();

        let fpath = dir.join("follower.store");
        seed_if_missing(&fpath, &media).unwrap();
        let (mut f, _) = Follower::open(&fpath).unwrap();
        // the segment no longer matches its manifest entry → refused
        let err = f.poll(&media).unwrap_err();
        assert!(matches!(err, ReplError::Corrupt(_)), "{err}");
        assert_eq!(f.applied_seq(), 0, "nothing applied from a mismatched segment");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_advertised_segment_is_reported_not_skipped() {
        let dir = tmpdir("missing-seg");
        let mut p = primary(&dir.join("primary.store"));
        p.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        p.commit().unwrap();
        let media = MemShipDir::new();
        ship_store(p.path(), &media).unwrap();
        media.remove_segment(&crate::segment_name(1));

        let fpath = dir.join("follower.store");
        seed_if_missing(&fpath, &media).unwrap();
        let (mut f, _) = Follower::open(&fpath).unwrap();
        let err = f.poll(&media).unwrap_err();
        assert!(matches!(err, ReplError::Corrupt(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promotion_refuses_a_pending_partial_transaction() {
        let dir = tmpdir("promote-pending");
        let mut p = primary(&dir.join("follower.store"));
        p.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        p.commit().unwrap();
        drop(p);
        let (mut f, _) = Follower::open(&dir.join("follower.store")).unwrap();
        // simulate an apply loop that died mid-transaction
        f.store.execute("INSERT INTO t VALUES (2, 'b')").unwrap();
        let err = f.promote().unwrap_err();
        assert!(matches!(err, ReplError::Diverged(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
