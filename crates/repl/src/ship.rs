//! Primary side: publish committed WAL transactions into a shipping
//! directory.
//!
//! One round of [`ship_wal`] is idempotent and crash-safe:
//!
//! 1. read + verify the current [`Manifest`] (absent ⇒ nothing shipped
//!    yet, the bootstrap base covers everything up to `base_seq`);
//! 2. structurally scan the primary's WAL for committed transactions
//!    *past* the shipped watermark — statements are never re-executed on
//!    the primary, and their records are copied into the segment as they
//!    lie in the log, fsync marks left out;
//! 3. publish them as one segment named by their first sequence, then
//!    publish the manifest advertising the new `last_commit_seq`.
//!
//! Because the segment goes out before the manifest that advertises it,
//! a crash between the two leaves an orphan segment the next round
//! simply overwrites (same watermark ⇒ same start sequence ⇒ same
//! name, atomically replaced). The manifest therefore never advertises
//! a transaction whose bytes are not already durable in the directory —
//! the "no unshipped suffix is ever invented" half of the failover
//! guarantee.
//!
//! If the primary checkpointed commits it never shipped, the log no
//! longer holds the follower's next sequence; that is a hard
//! [`ReplError::Gap`], not something to paper over — the operator
//! re-seeds the shipping directory from a fresh base snapshot.

use crate::media::ShipMedia;
use crate::{Manifest, ReplError, SegmentMeta};
use osql_store::wal::{WAL_HEADER, WAL_MAGIC};
use osql_store::{crc32, read_toc, scan_records, wal_path};
use std::path::Path;

/// Name of the bootstrap base snapshot blob in a shipping directory: a
/// byte-for-byte copy of the primary's base file, published once before
/// the first manifest so a brand-new follower can seed its local store
/// from the directory alone.
pub const BASE_NAME: &str = "BASE";

/// What one shipping round did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Transactions published this round.
    pub shipped_txns: u64,
    /// Statements inside those transactions.
    pub shipped_stmts: u64,
    /// Segment file published this round (`None` when already current).
    pub segment: Option<String>,
    /// The manifest's advertised last commit sequence after this round.
    pub last_commit_seq: u64,
    /// Whether this round published the bootstrap base snapshot.
    pub published_base: bool,
}

/// Read and verify the shipping directory's manifest (`Ok(None)` when
/// nothing was ever published).
pub fn read_manifest(media: &impl ShipMedia) -> Result<Option<Manifest>, ReplError> {
    match media.read_manifest()? {
        Some(bytes) => Ok(Some(Manifest::decode(&bytes)?)),
        None => Ok(None),
    }
}

/// Ship every committed WAL transaction past the current watermark.
///
/// `wal_buf` is the raw sidecar WAL (header included; empty when the
/// file does not exist) and `base_seq` is the primary's base snapshot
/// sequence — the watermark used when no manifest exists yet, because
/// the bootstrap base already covers everything up to it.
pub fn ship_wal(
    media: &impl ShipMedia,
    wal_buf: &[u8],
    base_seq: u64,
) -> Result<ShipReport, ReplError> {
    ship_log(media, read_manifest(media)?, wal_buf, base_seq)
}

/// [`ship_wal`] against the manifest `manifest`, already read.
fn ship_log(
    media: &impl ShipMedia,
    manifest: Option<Manifest>,
    wal_buf: &[u8],
    base_seq: u64,
) -> Result<ShipReport, ReplError> {
    let shipped = manifest.as_ref().map_or(base_seq, |m| m.last_commit_seq);
    if shipped < base_seq {
        // the primary checkpointed commits that were never published;
        // the log cannot produce them any more
        return Err(ReplError::Gap { have: shipped, need: shipped + 1 });
    }

    let mut report =
        ShipReport { last_commit_seq: shipped, ..ShipReport::default() };
    let fresh = if wal_buf.is_empty() {
        Vec::new()
    } else {
        if wal_buf.len() < WAL_HEADER as usize || wal_buf[..WAL_HEADER as usize] != WAL_MAGIC {
            return Err(ReplError::Corrupt("primary WAL has a bad header".to_owned()));
        }
        let mut txns = scan_records(wal_buf, WAL_HEADER as usize).txns;
        txns.retain(|t| t.seq > shipped);
        txns
    };
    let Some(first) = fresh.first() else {
        if manifest.is_none() {
            // first ship of an idle store: publish a manifest that
            // advertises the base watermark, so followers learn their
            // target position and later rounds stop re-publishing BASE
            let initial = Manifest { last_commit_seq: shipped, ..Manifest::default() };
            media.publish_manifest(&initial.encode())?;
        }
        return Ok(report);
    };
    if first.seq != shipped + 1 {
        // the log starts past the watermark (e.g. a checkpoint raced
        // this round between reading the TOC and reading the WAL)
        return Err(ReplError::Gap { have: shipped, need: shipped + 1 });
    }

    let name = crate::segment_name(first.seq);
    let bytes = crate::segment_from_log(wal_buf, &fresh);
    let meta = SegmentMeta {
        start_seq: first.seq,
        end_seq: fresh.last().expect("non-empty").seq,
        bytes: bytes.len() as u64,
        crc: crc32(&bytes),
    };
    // segment first, manifest second: the advertisement must never
    // precede the bytes it advertises
    media.publish_segment(&name, &bytes)?;
    let mut next = manifest.unwrap_or_default();
    next.segments.retain(|s| s.start_seq != meta.start_seq);
    next.segments.push(meta);
    next.segments.sort_by_key(|s| s.start_seq);
    next.last_commit_seq = meta.end_seq;
    media.publish_manifest(&next.encode())?;

    report.shipped_txns = fresh.len() as u64;
    report.shipped_stmts = fresh.iter().map(|t| t.stmts.len() as u64).sum();
    report.segment = Some(name);
    report.last_commit_seq = meta.end_seq;
    Ok(report)
}

/// Ship from a store on disk: publish the bootstrap base snapshot on the
/// first round (no manifest yet), then ship the sidecar WAL.
pub fn ship_store(store_path: &Path, media: &impl ShipMedia) -> Result<ShipReport, ReplError> {
    let toc = read_toc(store_path)?;
    let manifest = read_manifest(media)?;
    let published_base = manifest.is_none();
    if published_base {
        let base = std::fs::read(store_path)?;
        media.publish_blob(BASE_NAME, &base)?;
    }
    let wal_buf = match std::fs::read(wal_path(store_path)) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut report = ship_log(media, manifest, &wal_buf, toc.base_seq)?;
    report.published_base = published_base;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MemShipDir;
    use osql_store::wal::{encode_record, REC_COMMIT, REC_FSYNC, REC_STMT};

    /// Build a WAL image: header plus committed txns `(seq, stmts)`.
    fn wal_image(txns: &[(u64, &[&str])]) -> Vec<u8> {
        let mut buf = WAL_MAGIC.to_vec();
        for (seq, stmts) in txns {
            for stmt in *stmts {
                buf.extend_from_slice(&encode_record(REC_STMT, stmt.as_bytes()));
            }
            buf.extend_from_slice(&encode_record(REC_COMMIT, &seq.to_le_bytes()));
        }
        buf
    }

    #[test]
    fn first_ship_publishes_segment_and_manifest() {
        let media = MemShipDir::new();
        let wal = wal_image(&[(1, &["A"]), (2, &["B", "C"])]);
        let report = ship_wal(&media, &wal, 0).unwrap();
        assert_eq!(report.shipped_txns, 2);
        assert_eq!(report.shipped_stmts, 3);
        assert_eq!(report.last_commit_seq, 2);
        assert_eq!(report.segment.as_deref(), Some(crate::segment_name(1).as_str()));

        let m = read_manifest(&media).unwrap().unwrap();
        assert_eq!(m.last_commit_seq, 2);
        assert_eq!(m.segments.len(), 1);
        let seg = media.read_segment(&crate::segment_name(1)).unwrap();
        assert_eq!(seg.len() as u64, m.segments[0].bytes);
        assert_eq!(crc32(&seg), m.segments[0].crc);
        let scan = crate::decode_segment(&seg).unwrap();
        assert_eq!(scan.txns.len(), 2);
        assert_eq!(scan.txns[1].stmts, ["B", "C"]);
    }

    #[test]
    fn reship_is_incremental_and_idempotent() {
        let media = MemShipDir::new();
        let wal1 = wal_image(&[(1, &["A"])]);
        ship_wal(&media, &wal1, 0).unwrap();

        // nothing new: no segment published
        let report = ship_wal(&media, &wal1, 0).unwrap();
        assert_eq!(report.shipped_txns, 0);
        assert_eq!(report.segment, None);
        assert_eq!(report.last_commit_seq, 1);

        // two more commits land: one new segment holding exactly them
        let wal2 = wal_image(&[(1, &["A"]), (2, &["B"]), (3, &["C"])]);
        let report = ship_wal(&media, &wal2, 0).unwrap();
        assert_eq!(report.shipped_txns, 2);
        assert_eq!(report.segment.as_deref(), Some(crate::segment_name(2).as_str()));
        let m = read_manifest(&media).unwrap().unwrap();
        assert_eq!(m.last_commit_seq, 3);
        assert_eq!(m.segments.len(), 2);
        assert_eq!(m.segments[0].start_seq, 1);
        assert_eq!(m.segments[1].start_seq, 2);
        assert_eq!(m.segments[1].end_seq, 3);
    }

    #[test]
    fn crash_between_segment_and_manifest_heals_on_reship() {
        let media = MemShipDir::new();
        ship_wal(&media, &wal_image(&[(1, &["A"])]), 0).unwrap();
        // simulate the crashed half-round: segment 2 published, manifest not
        let orphan = crate::encode_segment(&[osql_store::ScannedTxn {
            seq: 2,
            stmts: vec!["B"],
            records: None,
        }]);
        media.publish_segment(&crate::segment_name(2), &orphan).unwrap();
        // manifest still advertises 1 — the orphan is invisible
        assert_eq!(read_manifest(&media).unwrap().unwrap().last_commit_seq, 1);
        // next round overwrites the orphan and advertises it
        let wal = wal_image(&[(1, &["A"]), (2, &["B"]), (3, &["C"])]);
        let report = ship_wal(&media, &wal, 0).unwrap();
        assert_eq!(report.shipped_txns, 2);
        let m = read_manifest(&media).unwrap().unwrap();
        assert_eq!(m.last_commit_seq, 3);
        assert_eq!(m.segments.len(), 2);
        let seg = media.read_segment(&crate::segment_name(2)).unwrap();
        assert_eq!(crate::decode_segment(&seg).unwrap().txns.len(), 2, "orphan replaced");
    }

    #[test]
    fn checkpoint_outrunning_shipping_is_a_gap() {
        let media = MemShipDir::new();
        ship_wal(&media, &wal_image(&[(1, &["A"])]), 0).unwrap();
        // primary checkpointed through seq 5 and truncated its log:
        // commits 2..=5 are gone without ever being shipped
        let err = ship_wal(&media, &wal_image(&[(6, &["F"])]), 5).unwrap_err();
        assert!(matches!(err, ReplError::Gap { have: 1, need: 2 }), "{err}");
        // same story when the truncated log is empty
        let err = ship_wal(&media, &[], 5).unwrap_err();
        assert!(matches!(err, ReplError::Gap { have: 1, need: 2 }), "{err}");
    }

    #[test]
    fn torn_wal_tail_ships_only_the_committed_prefix() {
        let media = MemShipDir::new();
        let full = wal_image(&[(1, &["A"]), (2, &["B"])]);
        // cut mid-way through txn 2's commit record
        let torn = &full[..full.len() - 3];
        let report = ship_wal(&media, torn, 0).unwrap();
        assert_eq!(report.shipped_txns, 1);
        assert_eq!(report.last_commit_seq, 1);
        // uncommitted statements (no commit record at all) also never ship
        let mut open_txn = wal_image(&[(1, &["A"])]);
        open_txn.extend_from_slice(&encode_record(REC_STMT, b"UNCOMMITTED"));
        let report = ship_wal(&media, &open_txn, 0).unwrap();
        assert_eq!(report.shipped_txns, 0, "already current, open txn invisible");
    }

    #[test]
    fn fsync_marks_are_transparent() {
        let media = MemShipDir::new();
        let mut buf = WAL_MAGIC.to_vec();
        buf.extend_from_slice(&encode_record(REC_STMT, b"A"));
        buf.extend_from_slice(&encode_record(REC_FSYNC, &0u64.to_le_bytes()));
        buf.extend_from_slice(&encode_record(REC_COMMIT, &1u64.to_le_bytes()));
        let report = ship_wal(&media, &buf, 0).unwrap();
        assert_eq!(report.shipped_txns, 1);
        assert_eq!(report.shipped_stmts, 1);
    }

    #[test]
    fn ship_store_publishes_base_once_then_increments() {
        let dir = std::env::temp_dir().join(format!("osql-repl-ship-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.store");
        let mut db = sqlkit::Database::new("db");
        db.execute_script("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").unwrap();
        let mut store = osql_store::Store::create(&path, db, vec![]).unwrap();
        store.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
        store.commit().unwrap();

        let media = MemShipDir::new();
        let report = ship_store(&path, &media).unwrap();
        assert!(report.published_base);
        assert_eq!(report.shipped_txns, 1);
        assert_eq!(report.last_commit_seq, 1);
        let base = media.read_blob(BASE_NAME).unwrap().unwrap();
        assert!(!base.is_empty());

        store.execute("INSERT INTO t VALUES (2, 'b')").unwrap();
        store.commit().unwrap();
        let report = ship_store(&path, &media).unwrap();
        assert!(!report.published_base, "base is published exactly once");
        assert_eq!(report.shipped_txns, 1);
        assert_eq!(report.last_commit_seq, 2);
        // the base blob is the pre-commit snapshot; it did not move
        assert_eq!(media.read_blob(BASE_NAME).unwrap().unwrap(), base);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
