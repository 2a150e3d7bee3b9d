//! Write-ahead log: statement-level records, commit markers, fsync
//! points, and replay-based crash recovery.
//!
//! The log is an 8-byte header (`OSQLWAL1`) followed by records:
//!
//! ```text
//! [kind u8][len u32 LE][payload len bytes][crc32 u32 LE]
//! ```
//!
//! where the CRC covers kind, length, and payload. Record kinds are
//! `Stmt` (a SQL statement to re-execute), `Commit` (transaction
//! boundary carrying a sequence number), and `FsyncMark` (a durability
//! point noted by the writer). The writer buffers an open transaction's
//! statement records in memory and appends them together with its
//! commit record, so a transaction reaches the log in one write; a torn
//! write leaves statements without a commit, which replay discards.
//! Replay buffers statements and applies
//! them only when their `Commit` arrives, stopping at the first
//! truncated or corrupt record — so recovery yields exactly the state
//! of the last fully committed transaction, no matter where the log was
//! cut. That holds whether each commit record was synced on its own
//! ([`Wal::commit`], what a primary does) or a run of them shares one
//! trailing sync ([`Wal::commit_deferred`] … [`Wal::sync_run`], what a
//! follower does per shipped segment): an unsynced run can lose any
//! suffix in a crash, and every cut of it replays to a commit boundary.
//! Commits whose sequence number the base snapshot already records
//! (its TOC `base_seq`) are skipped, so a crash between a checkpoint's
//! base publish and its WAL truncation never double-applies them. On
//! open the uncommitted tail is truncated away so a later commit can
//! never resurrect orphaned statements.

use crate::codec::crc32;
use crate::StoreError;
use sqlkit::Database;
use std::io::{Read, Seek, SeekFrom, Write};

/// WAL file magic.
pub const WAL_MAGIC: [u8; 8] = *b"OSQLWAL1";
/// Length of the WAL header in bytes.
pub const WAL_HEADER: u64 = 8;

/// Record kind: one SQL statement of an open transaction.
pub const REC_STMT: u8 = 1;
/// Record kind: transaction commit (payload = sequence number).
pub const REC_COMMIT: u8 = 2;
/// Record kind: fsync-point marker (payload = sequence number).
pub const REC_FSYNC: u8 = 3;

/// The byte sink/source a WAL is stored on. Production uses
/// [`FsMedia`]; tests use [`crate::FaultFile`] to inject torn writes,
/// lost tails, corruption, and short reads.
pub trait WalMedia {
    /// Append bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Make previously appended bytes durable.
    fn sync(&mut self) -> std::io::Result<()>;
    /// Current length in bytes.
    fn len(&mut self) -> std::io::Result<u64>;
    /// True when the log holds no bytes.
    fn is_empty(&mut self) -> std::io::Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Read the whole log.
    fn read_all(&mut self) -> std::io::Result<Vec<u8>>;
    /// Truncate the log to `len` bytes.
    fn truncate(&mut self, len: u64) -> std::io::Result<()>;
}

/// A WAL stored on a real file.
#[derive(Debug)]
pub struct FsMedia {
    file: std::fs::File,
}

impl FsMedia {
    /// Open (or create) the WAL file at `path`, in append mode: every
    /// write lands at the current end of the file, wherever a read left
    /// the cursor and whatever a truncate made the end.
    pub fn open(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().read(true).append(true).create(true).open(path)?;
        Ok(FsMedia { file })
    }
}

impl WalMedia for FsMedia {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    fn len(&mut self) -> std::io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()
    }
}

/// Encode one WAL record (used by the writer and by tests that build
/// logs byte-by-byte).
pub fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(9 + payload.len());
    encode_into(&mut rec, kind, payload);
    rec
}

/// Append one framed record to `out`: the log's one framing site.
fn encode_into(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// One decoded record and the offset just past it.
enum Parsed<'a> {
    Stmt(&'a [u8]),
    Commit(u64),
    Fsync,
}

/// Try to parse the record at `pos`. Returns `Ok(None)` on a clean end
/// of log, `Err` on truncation/corruption (the finding message).
fn parse_record(buf: &[u8], pos: usize) -> Result<Option<(Parsed<'_>, usize)>, String> {
    if pos == buf.len() {
        return Ok(None);
    }
    if buf.len() - pos < 5 {
        return Err(format!("truncated record header at offset {pos}"));
    }
    let kind = buf[pos];
    let len = u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
    let body_end = pos + 5 + len;
    if body_end + 4 > buf.len() {
        return Err(format!("truncated record body at offset {pos}"));
    }
    let expect = u32::from_le_bytes(buf[body_end..body_end + 4].try_into().expect("4 bytes"));
    if crc32(&buf[pos..body_end]) != expect {
        return Err(format!("checksum mismatch in record at offset {pos}"));
    }
    let payload = &buf[pos + 5..body_end];
    let parsed = match kind {
        REC_STMT => Parsed::Stmt(payload),
        REC_COMMIT | REC_FSYNC => {
            if payload.len() != 8 {
                return Err(format!("marker record at offset {pos} has bad payload length"));
            }
            let seq = u64::from_le_bytes(payload.try_into().expect("8 bytes"));
            if kind == REC_COMMIT {
                Parsed::Commit(seq)
            } else {
                Parsed::Fsync
            }
        }
        k => return Err(format!("unknown record kind {k} at offset {pos}")),
    };
    Ok(Some((parsed, body_end + 4)))
}

/// What replay recovered from a log.
#[derive(Debug, Default, Clone)]
pub struct ReplayReport {
    /// Fully committed transactions applied.
    pub committed: u64,
    /// Committed transactions skipped because the base snapshot already
    /// folded them in (their seq was at or below the base's `base_seq`).
    pub commits_skipped: u64,
    /// Sequence number of the first skipped commit (0 when none were
    /// skipped) — with [`ReplayReport::last_skipped_seq`], the exact
    /// range a checkpoint's base publish already folded in, so operators
    /// comparing primary and follower positions see which transactions
    /// replay refused to double-apply.
    pub first_skipped_seq: u64,
    /// Sequence number of the last skipped commit (0 when none).
    pub last_skipped_seq: u64,
    /// Statements re-executed (across all committed transactions).
    pub stmts_applied: u64,
    /// Sequence number of the last commit record seen, applied or
    /// skipped (0 when none).
    pub last_commit_seq: u64,
    /// Offset just past the last committed record — the durable prefix.
    pub committed_offset: u64,
    /// Bytes past the committed prefix that were ignored (uncommitted
    /// tail, truncation damage, or corruption).
    pub tail_bytes: u64,
    /// Why scanning stopped early, when it did.
    pub finding: Option<String>,
}

/// Structural audit of a log (no statements are executed).
#[derive(Debug, Default, Clone)]
pub struct WalAudit {
    /// Valid records scanned (all kinds).
    pub records: u64,
    /// Commit records among them.
    pub commits: u64,
    /// Fsync markers among them.
    pub fsync_marks: u64,
    /// Sequence number of the last commit record scanned (0 when the
    /// log holds no commits) — together with the base file's `base_seq`,
    /// the store's durable position.
    pub last_commit_seq: u64,
    /// Offset just past the last commit record.
    pub committed_offset: u64,
    /// Bytes past the committed prefix.
    pub tail_bytes: u64,
    /// Corruption/truncation finding, if scanning stopped early.
    pub finding: Option<String>,
}

fn header_ok(buf: &[u8]) -> Result<(), String> {
    if buf.len() < WAL_HEADER as usize {
        return Err(format!("log is {} bytes, shorter than the header", buf.len()));
    }
    if buf[..8] != WAL_MAGIC {
        return Err("bad WAL magic".to_owned());
    }
    Ok(())
}

/// Replay a log's committed transactions into `db`.
///
/// Statements are buffered per transaction and applied only when the
/// transaction's commit record is reached intact; scanning stops at the
/// first truncated or corrupt record. An empty or header-less log
/// replays to zero commits rather than erroring — that is what a crash
/// before the first sync looks like.
///
/// `base_seq` is the last commit already folded into the base snapshot
/// being replayed onto (the TOC's `base_seq`; 0 for a fresh export).
/// Commits at or below it are skipped, not re-applied: a crash between
/// a checkpoint's base publish and its WAL truncation leaves the full
/// log next to a base that already contains the folded state, and
/// re-executing those transactions would duplicate rows or abort on
/// primary-key conflicts.
pub fn replay_into(
    db: &mut Database,
    buf: &[u8],
    base_seq: u64,
) -> Result<ReplayReport, StoreError> {
    let mut report = ReplayReport::default();
    if buf.is_empty() {
        return Ok(report);
    }
    if let Err(msg) = header_ok(buf) {
        report.finding = Some(msg);
        report.tail_bytes = buf.len() as u64;
        return Ok(report);
    }
    report.committed_offset = WAL_HEADER;
    let mut pos = WAL_HEADER as usize;
    let mut pending: Vec<&[u8]> = Vec::new();
    loop {
        match parse_record(buf, pos) {
            Ok(None) => break,
            Ok(Some((rec, next))) => {
                match rec {
                    Parsed::Stmt(sql) => pending.push(sql),
                    Parsed::Commit(seq) => {
                        if seq <= base_seq {
                            // the base snapshot already holds this
                            // transaction's effects — drop it unapplied
                            pending.clear();
                            report.commits_skipped += 1;
                            if report.first_skipped_seq == 0 {
                                report.first_skipped_seq = seq;
                            }
                            report.last_skipped_seq = seq;
                        } else {
                            for sql in pending.drain(..) {
                                let text = std::str::from_utf8(sql).map_err(|_| {
                                    StoreError::corrupt("non-UTF-8 statement in committed record")
                                })?;
                                db.execute_script(text).map_err(|e| {
                                    StoreError::corrupt(format!("replay statement failed: {e}"))
                                })?;
                                report.stmts_applied += 1;
                            }
                            report.committed += 1;
                        }
                        report.last_commit_seq = seq;
                        report.committed_offset = next as u64;
                    }
                    Parsed::Fsync => {}
                }
                pos = next;
            }
            Err(msg) => {
                report.finding = Some(msg);
                break;
            }
        }
    }
    report.tail_bytes = buf.len() as u64 - report.committed_offset;
    Ok(report)
}

/// One committed transaction recovered by a structural scan: its commit
/// sequence number and the statements it carried, in log order, borrowed
/// from the scanned bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedTxn<'a> {
    /// The transaction's commit sequence number.
    pub seq: u64,
    /// The SQL statements committed, in append order.
    pub stmts: Vec<&'a str>,
    /// Where its statement records and commit record lie in the scanned
    /// bytes, when nothing else lies among them: `None` when an fsync mark
    /// does (a log whose writer appended a statement at a time), or for a
    /// transaction that was not scanned.
    pub records: Option<std::ops::Range<usize>>,
}

/// What [`scan_records`] recovered from a record region.
#[derive(Debug, Default, Clone)]
pub struct TxnScan<'a> {
    /// Fully committed transactions, in log order.
    pub txns: Vec<ScannedTxn<'a>>,
    /// Offset just past the last intact commit record — the prefix that
    /// is safe to ship or apply.
    pub committed_offset: u64,
    /// Bytes past the committed prefix (uncommitted tail or damage).
    pub tail_bytes: u64,
    /// Why scanning stopped early, when it did (torn or corrupt record,
    /// non-UTF-8 statement).
    pub finding: Option<String>,
}

/// Structurally scan the record region of a WAL-framed byte stream
/// (bytes from `start` onward use the shared
/// `[kind][len][payload][crc32]` framing) into committed transactions,
/// without executing anything. Statements are borrowed from `buf`, and
/// each transaction says where its records lie, so a shipper can copy
/// them instead of encoding them again.
///
/// This is the replication shipper's and follower's view of a log: only
/// statements covered by an intact commit record are returned, scanning
/// stops at the first torn or corrupt record, and trailing statements
/// without a commit are reported as tail bytes — so a torn segment tail
/// can never invent a transaction the writer did not finish.
pub fn scan_records(buf: &[u8], start: usize) -> TxnScan<'_> {
    let mut scan = TxnScan { committed_offset: start.min(buf.len()) as u64, ..TxnScan::default() };
    let mut pos = start;
    let mut pending: Vec<&str> = Vec::new();
    // where the open transaction's first record starts, and whether an
    // fsync mark has come after it
    let mut first: Option<usize> = None;
    let mut marked = false;
    loop {
        match parse_record(buf, pos) {
            Ok(None) => break,
            Ok(Some((rec, next))) => {
                match rec {
                    Parsed::Stmt(sql) => match std::str::from_utf8(sql) {
                        Ok(text) => {
                            pending.push(text);
                            first.get_or_insert(pos);
                        }
                        Err(_) => {
                            scan.finding =
                                Some(format!("non-UTF-8 statement at offset {pos}"));
                            break;
                        }
                    },
                    Parsed::Commit(seq) => {
                        let from = first.take().unwrap_or(pos);
                        let records = (!std::mem::take(&mut marked)).then_some(from..next);
                        scan.txns.push(ScannedTxn { seq, stmts: std::mem::take(&mut pending), records });
                        scan.committed_offset = next as u64;
                    }
                    Parsed::Fsync => marked |= first.is_some(),
                }
                pos = next;
            }
            Err(msg) => {
                scan.finding = Some(msg);
                break;
            }
        }
    }
    scan.tail_bytes = (buf.len() as u64).saturating_sub(scan.committed_offset);
    scan
}

/// Structurally audit a log without executing anything (fsck's view).
pub fn audit(buf: &[u8]) -> WalAudit {
    let mut audit = WalAudit::default();
    if buf.is_empty() {
        return audit;
    }
    if let Err(msg) = header_ok(buf) {
        audit.finding = Some(msg);
        audit.tail_bytes = buf.len() as u64;
        return audit;
    }
    audit.committed_offset = WAL_HEADER;
    let mut pos = WAL_HEADER as usize;
    loop {
        match parse_record(buf, pos) {
            Ok(None) => break,
            Ok(Some((rec, next))) => {
                audit.records += 1;
                match rec {
                    Parsed::Commit(seq) => {
                        audit.commits += 1;
                        audit.last_commit_seq = seq;
                        audit.committed_offset = next as u64;
                    }
                    Parsed::Fsync => audit.fsync_marks += 1,
                    Parsed::Stmt(_) => {}
                }
                pos = next;
            }
            Err(msg) => {
                audit.finding = Some(msg);
                break;
            }
        }
    }
    audit.tail_bytes = buf.len() as u64 - audit.committed_offset;
    audit
}

/// Run `op`, feeding its latency into `cell` whether it succeeds or not
/// (a failed fsync is exactly the latency outlier worth seeing).
fn timed<T>(
    cell: &crate::stats::LatencyCell,
    op: impl FnOnce() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let started = std::time::Instant::now();
    let result = op();
    cell.record_us(started.elapsed().as_micros() as u64);
    result
}

/// Make `media` an empty log: nothing but the durable header.
fn write_header(media: &mut impl WalMedia) -> std::io::Result<()> {
    media.truncate(0)?;
    media.append(&WAL_MAGIC)?;
    media.sync()
}

/// An open write-ahead log positioned for appends.
#[derive(Debug)]
pub struct Wal<M: WalMedia> {
    media: M,
    end: u64,
    seq: u64,
    synced_seq: u64,
    pending_stmts: u64,
    /// The open transaction's statement records, framed as they will
    /// sit in the log; they reach the media with its commit record.
    txn: Vec<u8>,
}

impl<M: WalMedia> Wal<M> {
    /// Open the log over `media`, replaying committed transactions into
    /// `db` and truncating any uncommitted/corrupt tail so the durable
    /// log holds exactly the committed prefix. `base_seq` is the last
    /// commit the base snapshot already folded in ([`replay_into`]
    /// skips commits at or below it).
    pub fn open(
        mut media: M,
        db: &mut Database,
        base_seq: u64,
    ) -> Result<(Self, ReplayReport), StoreError> {
        let buf = media.read_all()?;
        let report = replay_into(db, &buf, base_seq)?;
        if report.committed_offset < WAL_HEADER {
            // no usable header: start the log fresh
            write_header(&mut media)?;
        } else {
            if report.committed_offset < buf.len() as u64 {
                media.truncate(report.committed_offset)?;
            }
            if report.committed_offset > WAL_HEADER {
                // a writer that died inside an unsynced run leaves commit
                // records only the page cache holds; they were just
                // replayed, so make them durable before `synced_seq`
                // says they are
                media.sync()?;
            }
        }
        let end = report.committed_offset.max(WAL_HEADER);
        // new commits must continue past both the log's and the base's
        // sequence numbers, whichever is further along
        let seq = report.last_commit_seq.max(base_seq);
        let wal = Wal { media, end, seq, synced_seq: seq, pending_stmts: 0, txn: Vec::new() };
        Ok((wal, report))
    }

    /// Start a fresh, empty log over `media`, discarding whatever bytes
    /// it held. Used by `Store::create`: a brand-new base file owns all
    /// state, so a stale WAL left at the same path by some earlier store
    /// must be truncated, never replayed.
    pub fn create(mut media: M) -> std::io::Result<Self> {
        write_header(&mut media)?;
        Ok(Wal { media, end: WAL_HEADER, seq: 0, synced_seq: 0, pending_stmts: 0, txn: Vec::new() })
    }

    /// Append `rec`, not yet durable. On failure the media is rolled
    /// back to the pre-append end (best effort), so a retry never
    /// leaves a partially written record behind and `end()` keeps
    /// matching the media length.
    fn append_record(&mut self, rec: &[u8]) -> std::io::Result<()> {
        let stats = crate::stats::store_stats();
        if let Err(e) = timed(&stats.wal_append, || self.media.append(rec)) {
            let _ = self.media.truncate(self.end);
            return Err(e);
        }
        self.end += rec.len() as u64;
        Ok(())
    }

    /// The log's one durability point: sync every record appended so
    /// far and raise the synced watermark to the last commit among
    /// them. [`Wal::commit`] reaches it after one commit record,
    /// [`Wal::sync_run`] after a run of them.
    fn sync_appended(&mut self) -> std::io::Result<()> {
        timed(&crate::stats::store_stats().wal_sync, || self.media.sync())?;
        self.synced_seq = self.seq;
        Ok(())
    }

    /// Take back (best effort) the records appended at `start` whose
    /// sync failed, so a retry never leaves a duplicate behind.
    fn take_back(&mut self, start: u64) {
        let _ = self.media.truncate(start);
        self.end = start;
    }

    /// Add one statement record to the open transaction. It is buffered,
    /// not written: it reaches the log with the transaction's commit
    /// record, in the one append of [`Wal::commit_deferred`] or
    /// [`Wal::commit`], so this never touches the media and cannot fail.
    pub fn append_stmt(&mut self, sql: &str) {
        encode_into(&mut self.txn, REC_STMT, sql.as_bytes());
        self.pending_stmts += 1;
    }

    /// Append the buffered statements and a commit record for the next
    /// sequence number in one write, and advance the sequence. The
    /// statements stay buffered: on failure the transaction is still
    /// open as it was, and the caller that succeeded clears it.
    fn append_txn(&mut self) -> std::io::Result<u64> {
        let seq = self.seq + 1;
        let stmts = self.txn.len();
        encode_into(&mut self.txn, REC_COMMIT, &seq.to_le_bytes());
        let txn = std::mem::take(&mut self.txn);
        let appended = self.append_record(&txn);
        self.txn = txn;
        self.txn.truncate(stmts);
        appended?;
        self.seq = seq;
        Ok(seq)
    }

    /// The transaction is in the log: nothing is left open.
    fn close_txn(&mut self) {
        self.txn.clear();
        self.pending_stmts = 0;
    }

    /// Close the open transaction: its buffered statements and a commit
    /// record reach the log in one append that is *not yet durable*, and
    /// the call returns the sequence number the record carries. A run of
    /// these shares the one sync of the [`Wal::sync_run`] (or
    /// [`Wal::commit`]) that ends it; until then [`Wal::synced_seq`]
    /// stays behind [`Wal::seq`], and a crash may lose any suffix of
    /// the run — never the inside of a transaction, because replay
    /// stops at the last intact commit record.
    ///
    /// For a writer whose transactions are durable somewhere else (a
    /// follower re-applying a shipped segment). A failed append leaves
    /// the log and the sequence as they were, and the transaction open
    /// with its statements still buffered.
    pub fn commit_deferred(&mut self) -> std::io::Result<u64> {
        let seq = self.append_txn()?;
        self.close_txn();
        Ok(seq)
    }

    /// End a run of deferred commits: one sync makes every record
    /// appended so far durable. Returns the synced watermark. After a
    /// failure nothing the run appended may be relied on (a failed
    /// fsync can drop the pages it was asked to write); reopen the log
    /// to find the prefix that survived.
    pub fn sync_run(&mut self) -> std::io::Result<u64> {
        self.sync_appended()?;
        Ok(self.synced_seq)
    }

    /// Commit the open transaction: write the commit record, fsync, and
    /// return the new commit sequence number — the run of one. The
    /// in-memory sequence advances only when both the append and the
    /// sync succeed, so a failed commit can be retried without skipping
    /// a sequence number or leaving a second commit record behind.
    pub fn commit(&mut self) -> std::io::Result<u64> {
        let started = std::time::Instant::now();
        let (start, seq) = (self.end, self.seq);
        self.append_txn()?;
        if let Err(e) = self.sync_appended() {
            // the run of one is taken back whole: its records and its
            // sequence number; the transaction is still open, buffered
            self.take_back(start);
            self.seq = seq;
            return Err(e);
        }
        self.close_txn();
        crate::stats::store_stats().wal_commit.record_us(started.elapsed().as_micros() as u64);
        Ok(self.seq)
    }

    /// Write an fsync-point marker and sync. An open transaction's
    /// statements stay buffered; the mark goes in before them.
    pub fn fsync_mark(&mut self) -> std::io::Result<()> {
        let start = self.end;
        let rec = encode_record(REC_FSYNC, &self.seq.to_le_bytes());
        self.append_record(&rec)?;
        self.sync_appended().inspect_err(|_| self.take_back(start))
    }

    /// Statements of the open transaction, buffered since the last
    /// commit.
    pub fn pending_stmts(&self) -> u64 {
        self.pending_stmts
    }

    /// Sequence number of the last commit record appended (what the
    /// in-memory database reflects).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Sequence number of the last commit known durable: equal to
    /// [`Wal::seq`] except inside a run of deferred commits.
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// Current end offset of the log on its media: the open
    /// transaction's buffered statements are not counted until its
    /// commit writes them.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Mutable access to the underlying media (fault-injection tests).
    pub fn media_mut(&mut self) -> &mut M {
        &mut self.media
    }

    /// Consume the log, returning its media.
    pub fn into_media(self) -> M {
        self.media
    }

    /// Reset the log to an empty (header-only) state — used after a
    /// checkpoint has folded the log into the base file.
    pub fn reset(&mut self) -> std::io::Result<()> {
        write_header(&mut self.media)?;
        self.end = WAL_HEADER;
        self.synced_seq = self.seq;
        self.close_txn();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory media for unit tests (fault-free), counting the
    /// appends and syncs it is asked for.
    #[derive(Debug, Default, Clone)]
    pub struct MemMedia {
        pub buf: Vec<u8>,
        appends: u64,
        syncs: u64,
    }

    impl WalMedia for MemMedia {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.appends += 1;
            self.buf.extend_from_slice(bytes);
            Ok(())
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.syncs += 1;
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

    fn base_db() -> Database {
        let mut db = Database::new("w");
        db.execute_script("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").unwrap();
        db
    }

    #[test]
    fn commit_then_replay_restores_rows() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        wal.append_stmt("INSERT INTO t VALUES (1, 'a')");
        wal.append_stmt("INSERT INTO t VALUES (2, 'b')");
        assert_eq!(wal.pending_stmts(), 2);
        assert_eq!(wal.commit().unwrap(), 1);
        let media = wal.media.clone();

        let mut fresh = base_db();
        let (_, report) = Wal::open(media, &mut fresh, 0).unwrap();
        assert_eq!(report.committed, 1);
        assert_eq!(report.stmts_applied, 2);
        assert_eq!(report.tail_bytes, 0);
        assert_eq!(fresh.rows("t").unwrap().len(), 2);
    }

    /// The parser bounds how deep a statement's tree goes, not how many
    /// operators it holds: statements with many operators side by side
    /// replay.
    #[test]
    fn replay_applies_statements_with_many_operators_side_by_side() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        for i in 1..=50 {
            wal.append_stmt(&format!("INSERT INTO t VALUES ({i}, 'v{i}')"));
        }
        // 40 `=` and 39 `OR`
        let ors = (1..=40).map(|i| format!("id = {i}")).collect::<Vec<_>>().join(" OR ");
        wal.append_stmt(&format!("DELETE FROM t WHERE {ors}"));
        // 50 arms of two `=` and an `AND` each
        let arms = (1..=50)
            .map(|i| format!("WHEN id = {i} AND v = 'v{i}' THEN 'w{i}'"))
            .collect::<Vec<_>>()
            .join(" ");
        wal.append_stmt(&format!("UPDATE t SET v = CASE {arms} END"));
        wal.commit().unwrap();

        let mut fresh = base_db();
        let (_, report) = Wal::open(wal.media.clone(), &mut fresh, 0).unwrap();
        assert_eq!(report.stmts_applied, 52);
        let renamed = fresh.query("SELECT COUNT(*), MIN(id) FROM t WHERE v LIKE 'w%'").unwrap();
        assert_eq!(renamed.rows[0], vec![sqlkit::Value::Int(10), sqlkit::Value::Int(41)]);
    }

    #[test]
    fn uncommitted_tail_is_dropped_and_truncated() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        wal.append_stmt("INSERT INTO t VALUES (1, 'a')");
        wal.commit().unwrap();
        // a commit whose write tore after its statement: the statement
        // is on the media, its commit record is not
        let orphan = encode_record(REC_STMT, b"INSERT INTO t VALUES (2, 'orphan')");
        wal.media.append(&orphan).unwrap();
        let media = wal.media.clone();
        let mut fresh = base_db();
        let (wal2, report) = Wal::open(media, &mut fresh, 0).unwrap();
        assert_eq!(report.committed, 1);
        assert!(report.tail_bytes > 0, "orphan statement was in the tail");
        assert_eq!(fresh.rows("t").unwrap().len(), 1);
        // the tail was physically removed: a later commit cannot resurrect it
        let mut wal2 = wal2;
        wal2.commit().unwrap();
        let mut again = base_db();
        let (_, r2) = Wal::open(wal2.media.clone(), &mut again, 0).unwrap();
        assert_eq!(r2.committed, 2);
        assert_eq!(again.rows("t").unwrap().len(), 1, "orphan must not reappear");
    }

    #[test]
    fn fsync_marks_are_scanned_but_do_not_commit() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        wal.fsync_mark().unwrap();
        wal.append_stmt("INSERT INTO t VALUES (1, 'a')");
        wal.commit().unwrap();
        wal.fsync_mark().unwrap();
        let a = audit(&wal.media.buf);
        assert_eq!(a.commits, 1);
        assert_eq!(a.fsync_marks, 2);
        assert!(a.finding.is_none());
        // trailing fsync mark is an ignorable tail for replay purposes
        let mut fresh = base_db();
        let (_, report) = Wal::open(wal.media.clone(), &mut fresh, 0).unwrap();
        assert_eq!(report.committed, 1);
        assert_eq!(fresh.rows("t").unwrap().len(), 1);
    }

    #[test]
    fn corrupt_record_stops_replay_at_committed_prefix() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        wal.append_stmt("INSERT INTO t VALUES (1, 'a')");
        wal.commit().unwrap();
        let good_end = wal.end() as usize;
        wal.append_stmt("INSERT INTO t VALUES (2, 'b')");
        wal.commit().unwrap();
        let mut media = wal.media.clone();
        media.buf[good_end + 2] ^= 0xFF; // corrupt txn 2's statement record
        let mut fresh = base_db();
        let (_, report) = Wal::open(media, &mut fresh, 0).unwrap();
        assert_eq!(report.committed, 1, "second txn must not apply");
        assert!(report.finding.is_some());
        assert_eq!(fresh.rows("t").unwrap().len(), 1);
    }

    #[test]
    fn reset_empties_the_log() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        wal.append_stmt("INSERT INTO t VALUES (1, 'a')");
        wal.commit().unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.end(), WAL_HEADER);
        let mut fresh = base_db();
        let (_, report) = Wal::open(wal.media.clone(), &mut fresh, 0).unwrap();
        assert_eq!(report.committed, 0);
        assert_eq!(fresh.rows("t").unwrap().len(), 0);
    }

    /// Media whose next append or sync fails once, then heals.
    #[derive(Debug, Default, Clone)]
    struct FlakyMedia {
        inner: MemMedia,
        fail_append: bool,
        fail_sync: bool,
    }

    impl WalMedia for FlakyMedia {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            if self.fail_append {
                self.fail_append = false;
                return Err(std::io::Error::other("injected append failure"));
            }
            self.inner.append(bytes)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            if self.fail_sync {
                self.fail_sync = false;
                return Err(std::io::Error::other("injected sync failure"));
            }
            self.inner.sync()
        }
        fn len(&mut self) -> std::io::Result<u64> {
            self.inner.len()
        }
        fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
            self.inner.read_all()
        }
        fn truncate(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.truncate(len)
        }
    }

    #[test]
    fn replay_skips_commits_the_base_already_folded_in() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        wal.append_stmt("INSERT INTO t VALUES (1, 'a')");
        wal.commit().unwrap(); // seq 1
        wal.append_stmt("INSERT INTO t VALUES (2, 'b')");
        wal.commit().unwrap(); // seq 2
        // base snapshot folded in seq 1: replay must apply only seq 2
        let mut fresh = base_db();
        fresh.execute_script("INSERT INTO t VALUES (1, 'a')").unwrap();
        let (wal2, report) = Wal::open(wal.media.clone(), &mut fresh, 1).unwrap();
        assert_eq!(report.committed, 1);
        assert_eq!(report.commits_skipped, 1);
        assert_eq!(report.stmts_applied, 1);
        assert_eq!(report.last_commit_seq, 2);
        assert_eq!(fresh.rows("t").unwrap().len(), 2);
        assert_eq!(wal2.seq(), 2, "new commits continue past the log's seq");
        // base folded in everything: nothing applies, seq continues from base
        let mut full = base_db();
        let (wal3, report) = Wal::open(wal.media.clone(), &mut full, 2).unwrap();
        assert_eq!((report.committed, report.commits_skipped), (0, 2));
        assert_eq!(full.rows("t").unwrap().len(), 0);
        assert_eq!(wal3.seq(), 2);
    }

    #[test]
    fn create_discards_stale_bytes_without_replaying() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        // forge a committed statement that no longer applies
        let stmt = encode_record(REC_STMT, b"INSERT INTO nonexistent_table VALUES (1)");
        wal.media.append(&stmt).unwrap();
        wal.media.append(&encode_record(REC_COMMIT, &1u64.to_le_bytes())).unwrap();
        let stale = wal.into_media();
        let fresh = Wal::create(stale).unwrap();
        assert_eq!(fresh.end(), WAL_HEADER);
        assert_eq!(fresh.seq(), 0);
        let mut clean = base_db();
        let (_, report) = Wal::open(fresh.into_media(), &mut clean, 0).unwrap();
        assert_eq!(report.committed, 0, "stale log must be gone, not replayed");
    }

    #[test]
    fn failed_commit_does_not_advance_seq_and_retries_cleanly() {
        let mut db = base_db();
        let media = FlakyMedia::default();
        let (mut wal, _) = Wal::open(media, &mut db, 0).unwrap();
        wal.append_stmt("INSERT INTO t VALUES (1, 'a')");
        wal.media_mut().fail_append = true;
        assert!(wal.commit().is_err());
        assert_eq!(wal.seq(), 0, "failed append must not consume a sequence number");
        wal.media_mut().fail_sync = true;
        assert!(wal.commit().is_err());
        assert_eq!(wal.seq(), 0, "failed sync must not consume a sequence number");
        // the retry lands seq 1; replay sees exactly one committed txn
        assert_eq!(wal.commit().unwrap(), 1);
        let mut fresh = base_db();
        let (_, report) = Wal::open(wal.media.inner.clone(), &mut fresh, 0).unwrap();
        assert_eq!(report.committed, 1);
        assert_eq!(report.last_commit_seq, 1);
        assert_eq!(fresh.rows("t").unwrap().len(), 1);
    }

    #[test]
    fn a_deferred_run_writes_the_bytes_per_commit_syncs_would() {
        let mut db = base_db();
        let (mut each, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        let (mut run, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        for i in 1..=3u64 {
            let sql = format!("INSERT INTO t VALUES ({i}, 'x')");
            each.append_stmt(&sql);
            assert_eq!(each.commit().unwrap(), i);
            assert_eq!(each.synced_seq(), i, "a commit is the run of one");
            run.append_stmt(&sql);
            assert_eq!(run.commit_deferred().unwrap(), i);
            assert_eq!((run.seq(), run.synced_seq(), run.pending_stmts()), (i, 0, 0));
        }
        assert_eq!(run.sync_run().unwrap(), 3);
        assert_eq!(run.synced_seq(), 3);
        assert_eq!(run.media.buf, each.media.buf, "the log does not record how it was synced");
    }

    #[test]
    fn a_transaction_is_one_append() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        let counts = |wal: &mut Wal<MemMedia>| {
            let m = wal.media_mut();
            let counts = (m.appends, m.syncs);
            (m.appends, m.syncs) = (0, 0);
            counts
        };
        counts(&mut wal);
        // statements alone write nothing
        for i in 1..=5 {
            wal.append_stmt(&format!("INSERT INTO t VALUES ({i}, 'x')"));
        }
        assert_eq!((counts(&mut wal), wal.end()), ((0, 0), WAL_HEADER));
        // N statements and their commit: one append, one sync
        assert_eq!(wal.commit().unwrap(), 1);
        assert_eq!(counts(&mut wal), (1, 1));
        // k deferred commits and the sync that ends the run: k appends, one sync
        for i in 6..=8 {
            wal.append_stmt(&format!("INSERT INTO t VALUES ({i}, 'x')"));
            wal.append_stmt(&format!("UPDATE t SET v = 'y' WHERE id = {i}"));
            wal.commit_deferred().unwrap();
        }
        assert_eq!(wal.sync_run().unwrap(), 4);
        assert_eq!(counts(&mut wal), (3, 1));
        let mut fresh = base_db();
        let (_, report) = Wal::open(wal.media.clone(), &mut fresh, 0).unwrap();
        assert_eq!((report.committed, report.stmts_applied, report.tail_bytes), (4, 11, 0));
    }

    #[test]
    fn failed_syncs_around_a_deferred_run_never_raise_the_watermark() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(FlakyMedia::default(), &mut db, 0).unwrap();
        for i in 1..=2 {
            wal.append_stmt(&format!("INSERT INTO t VALUES ({i}, 'x')"));
            wal.commit_deferred().unwrap();
        }
        wal.media_mut().fail_sync = true;
        assert!(wal.sync_run().is_err());
        assert_eq!((wal.seq(), wal.synced_seq()), (2, 0), "the run is still only appended");
        // a commit that ends the run and fails takes back itself alone
        wal.append_stmt("INSERT INTO t VALUES (3, 'x')");
        let end = wal.end();
        wal.media_mut().fail_sync = true;
        assert!(wal.commit().is_err());
        assert_eq!((wal.seq(), wal.synced_seq(), wal.pending_stmts()), (2, 0, 1));
        assert_eq!(wal.end(), end, "its commit record is gone, the run's records are not");
        // and its retry is the sync the whole run was waiting for
        assert_eq!(wal.commit().unwrap(), 3);
        assert_eq!(wal.synced_seq(), 3);
        let mut fresh = base_db();
        let (reopened, report) = Wal::open(wal.media.inner.clone(), &mut fresh, 0).unwrap();
        assert_eq!((report.committed, report.last_commit_seq), (3, 3));
        assert_eq!(reopened.synced_seq(), 3, "what open replays it has made durable");
    }

    #[test]
    fn replay_reports_the_skipped_seq_range() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        for i in 1..=4 {
            wal.append_stmt(&format!("INSERT INTO t VALUES ({i}, 'x')"));
            wal.commit().unwrap();
        }
        // base folded in seqs 1..=3: the report pins the exact range
        let mut fresh = base_db();
        fresh.execute_script(
            "INSERT INTO t VALUES (1, 'x'); INSERT INTO t VALUES (2, 'x');\
             INSERT INTO t VALUES (3, 'x')",
        )
        .unwrap();
        let report = replay_into(&mut fresh, &wal.media.buf, 3).unwrap();
        assert_eq!(report.commits_skipped, 3);
        assert_eq!(report.first_skipped_seq, 1);
        assert_eq!(report.last_skipped_seq, 3);
        assert_eq!(report.committed, 1);
        // nothing skipped: range stays (0, 0)
        let mut none = base_db();
        let report = replay_into(&mut none, &wal.media.buf, 0).unwrap();
        assert_eq!(report.commits_skipped, 0);
        assert_eq!((report.first_skipped_seq, report.last_skipped_seq), (0, 0));
    }

    #[test]
    fn scan_records_recovers_txns_and_never_invents_a_tail() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        wal.append_stmt("INSERT INTO t VALUES (1, 'a')");
        wal.append_stmt("INSERT INTO t VALUES (2, 'b')");
        wal.commit().unwrap();
        wal.fsync_mark().unwrap();
        wal.append_stmt("INSERT INTO t VALUES (3, 'c')");
        wal.commit().unwrap();
        // a torn commit write: the statement reached the media, its
        // commit record did not
        wal.media.append(&encode_record(REC_STMT, b"INSERT INTO t VALUES (4, 'orphan')")).unwrap();
        let scan = scan_records(&wal.media.buf, WAL_HEADER as usize);
        assert_eq!(scan.txns.len(), 2);
        assert_eq!(scan.txns[0].seq, 1);
        assert_eq!(scan.txns[0].stmts.len(), 2);
        assert_eq!(scan.txns[1].seq, 2);
        assert_eq!(scan.txns[1].stmts, ["INSERT INTO t VALUES (3, 'c')"]);
        // each transaction's records lie together, the fsync mark between
        // them outside both
        let records: Vec<_> = scan.txns.iter().map(|t| t.records.clone().unwrap()).collect();
        assert_eq!(records[0].start, WAL_HEADER as usize);
        let mark = encode_record(REC_FSYNC, &1u64.to_le_bytes());
        assert_eq!(records[1].start, records[0].end + mark.len());
        let txn = |stmts: &[&str], seq: u64| {
            let mut out: Vec<u8> = stmts.iter().flat_map(|s| encode_record(REC_STMT, s.as_bytes())).collect();
            out.extend(encode_record(REC_COMMIT, &seq.to_le_bytes()));
            out
        };
        assert_eq!(wal.media.buf[records[1].clone()], txn(&["INSERT INTO t VALUES (3, 'c')"], 2));
        // a mark among a transaction's records (a log written a statement
        // at a time) leaves it without a range
        let mut interleaved = WAL_MAGIC.to_vec();
        interleaved.extend(encode_record(REC_STMT, b"A"));
        interleaved.extend(&mark);
        interleaved.extend(txn(&["B"], 1));
        let split = scan_records(&interleaved, WAL_HEADER as usize);
        assert_eq!((split.txns[0].stmts.as_slice(), split.txns[0].records.clone()), (&["A", "B"][..], None));
        assert!(scan.tail_bytes > 0, "orphan statement is tail, not a transaction");
        assert!(scan.finding.is_none(), "clean tail is not a finding");
        // truncate mid-record at every byte: committed prefix only shrinks
        // at record boundaries, and no scan ever yields a phantom txn
        let full = wal.media.buf.clone();
        for cut in WAL_HEADER as usize..full.len() {
            let scan = scan_records(&full[..cut], WAL_HEADER as usize);
            assert!(scan.txns.len() <= 2);
            for (i, txn) in scan.txns.iter().enumerate() {
                assert_eq!(txn.seq, (i + 1) as u64, "cut at {cut} invented a seq");
            }
        }
    }

    #[test]
    fn audit_flags_corruption_with_offset() {
        let mut db = base_db();
        let (mut wal, _) = Wal::open(MemMedia::default(), &mut db, 0).unwrap();
        wal.append_stmt("INSERT INTO t VALUES (1, 'a')");
        wal.commit().unwrap();
        let mut buf = wal.media.buf.clone();
        buf[WAL_HEADER as usize] = 99; // unknown record kind
        let a = audit(&buf);
        assert_eq!(a.commits, 0);
        assert!(a.finding.unwrap().contains("offset 8"));
    }

    #[test]
    fn fs_media_appends_at_the_end_after_reads_and_truncates() {
        let path = std::env::temp_dir().join(format!("osql-wal-append-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut media = FsMedia::open(&path).unwrap();
        media.append(b"abcdef").unwrap();
        // a read leaves the cursor somewhere; a truncate moves the end
        assert_eq!(media.read_all().unwrap(), b"abcdef");
        media.append(b"gh").unwrap();
        media.truncate(3).unwrap();
        media.append(b"XY").unwrap();
        assert_eq!(media.len().unwrap(), 5);
        assert_eq!(media.read_all().unwrap(), b"abcXY");
        // a second handle on an existing log keeps appending
        drop(media);
        let mut media = FsMedia::open(&path).unwrap();
        media.append(b"Z").unwrap();
        assert_eq!(media.read_all().unwrap(), b"abcXYZ");
        std::fs::remove_file(&path).unwrap();
    }
}
