//! Segment files: the unit of WAL shipping.
//!
//! A segment is an 8-byte magic (`OSQLSEG1`) followed by WAL-framed
//! records — the same `[kind][len][payload][crc32]` framing the store's
//! log uses, holding each shipped transaction's statement records and
//! its commit record. Segments are named by the first commit sequence
//! they carry (`seg-<start_seq as 016x>.seg`), so a directory listing
//! sorts into stream order lexicographically.
//!
//! The shipper builds a segment from the primary's log by copying each
//! transaction's records as they lie there ([`segment_from_log`]); the
//! bytes are those [`encode_segment`] writes for the same transactions,
//! fsync marks left out.
//!
//! Decoding reuses [`osql_store::scan_records`]: only statements covered
//! by an intact commit record come back, and scanning stops at the first
//! torn or corrupt record — a segment whose tail was cut mid-write
//! yields exactly its intact transaction prefix and can never invent a
//! transaction the shipper did not finish publishing.

use crate::ReplError;
use osql_store::wal::{encode_record, REC_COMMIT, REC_STMT};
use osql_store::{scan_records, ScannedTxn, TxnScan};

/// Segment file magic.
pub const SEG_MAGIC: [u8; 8] = *b"OSQLSEG1";
/// Length of the segment header in bytes.
pub const SEG_HEADER: usize = 8;
/// Segment file extension (with the dot).
pub const SEG_EXT: &str = ".seg";

/// The canonical file name for a segment starting at `start_seq`.
pub fn segment_name(start_seq: u64) -> String {
    format!("seg-{start_seq:016x}{SEG_EXT}")
}

/// Parse a segment file name back into its start sequence (`None` for
/// anything that is not a canonical segment name).
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(SEG_EXT)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Encode transactions as one segment: magic, then per transaction its
/// statement records followed by its commit record.
pub fn encode_segment(txns: &[ScannedTxn]) -> Vec<u8> {
    let mut out = SEG_MAGIC.to_vec();
    for txn in txns {
        encode_txn(&mut out, txn);
    }
    out
}

fn encode_txn(out: &mut Vec<u8>, txn: &ScannedTxn) {
    for stmt in &txn.stmts {
        out.extend_from_slice(&encode_record(REC_STMT, stmt.as_bytes()));
    }
    out.extend_from_slice(&encode_record(REC_COMMIT, &txn.seq.to_le_bytes()));
}

/// The segment [`encode_segment`] writes for `txns`, which a scan of `log`
/// found: each transaction's statement and commit records are copied from
/// where they lie in `log` ([`ScannedTxn::records`]), and only one whose
/// records an fsync mark splits is encoded again.
pub fn segment_from_log(log: &[u8], txns: &[ScannedTxn]) -> Vec<u8> {
    let copied: usize = txns.iter().filter_map(|t| t.records.as_ref()).map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(SEG_HEADER + copied);
    out.extend_from_slice(&SEG_MAGIC);
    for txn in txns {
        match &txn.records {
            Some(records) => out.extend_from_slice(&log[records.clone()]),
            None => encode_txn(&mut out, txn),
        }
    }
    out
}

/// Decode a segment into its intact committed transactions. A missing or
/// mangled magic is an error (the file is not a segment at all); damage
/// *past* the magic comes back as a [`TxnScan::finding`] with the intact
/// prefix, because a torn tail is a normal mid-publish observation the
/// follower retries, not a reason to refuse the transactions before it.
pub fn decode_segment(buf: &[u8]) -> Result<TxnScan<'_>, ReplError> {
    if buf.len() < SEG_HEADER {
        return Err(ReplError::Corrupt(format!(
            "segment is {} bytes, shorter than its header",
            buf.len()
        )));
    }
    if buf[..SEG_HEADER] != SEG_MAGIC {
        return Err(ReplError::Corrupt("bad segment magic".to_owned()));
    }
    Ok(scan_records(buf, SEG_HEADER))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn<'a>(seq: u64, stmts: &[&'a str]) -> ScannedTxn<'a> {
        ScannedTxn { seq, stmts: stmts.to_vec(), records: None }
    }

    /// What a scan says of each transaction but where it lay.
    fn contents<'a>(txns: &[ScannedTxn<'a>]) -> Vec<(u64, Vec<&'a str>)> {
        txns.iter().map(|t| (t.seq, t.stmts.clone())).collect()
    }

    #[test]
    fn names_round_trip_and_sort_in_stream_order() {
        for seq in [0u64, 1, 255, 4096, u64::MAX] {
            assert_eq!(parse_segment_name(&segment_name(seq)), Some(seq));
        }
        let mut names: Vec<String> = [300u64, 2, 100].iter().map(|s| segment_name(*s)).collect();
        names.sort();
        let seqs: Vec<u64> = names.iter().map(|n| parse_segment_name(n).unwrap()).collect();
        assert_eq!(seqs, vec![2, 100, 300]);
        assert_eq!(parse_segment_name("seg-zz.seg"), None);
        assert_eq!(parse_segment_name("seg-0000000000000001.tmp"), None);
        assert_eq!(parse_segment_name("MANIFEST"), None);
    }

    #[test]
    fn encode_decode_round_trips() {
        let txns = vec![
            txn(4, &["INSERT INTO t VALUES (1)", "UPDATE t SET v = 2"]),
            txn(5, &[]),
            txn(6, &["DELETE FROM t"]),
        ];
        let buf = encode_segment(&txns);
        let scan = decode_segment(&buf).unwrap();
        assert_eq!(contents(&scan.txns), contents(&txns));
        assert!(scan.finding.is_none());
        assert_eq!(scan.tail_bytes, 0);
    }

    #[test]
    fn torn_tail_yields_the_intact_prefix_only() {
        let txns = vec![txn(1, &["INSERT INTO t VALUES (1)"]), txn(2, &["DELETE FROM t"])];
        let full = encode_segment(&txns);
        for cut in SEG_HEADER..full.len() {
            let scan = decode_segment(&full[..cut]).unwrap();
            assert!(scan.txns.len() <= 2, "cut at {cut}");
            assert_eq!(
                contents(&scan.txns),
                contents(&txns[..scan.txns.len()]),
                "cut at {cut} must only shorten, never alter"
            );
            if cut < full.len() {
                assert!(scan.txns.len() < 2, "cut inside txn 2 cannot yield txn 2");
            }
        }
    }

    /// A log image: the WAL header, then each entry's records — a
    /// transaction `(seq, stmts)`, or an fsync mark (`seq` 0, no
    /// statements) — and, for `split`, a mark among the statements of the
    /// transaction of that sequence.
    fn log(entries: &[(u64, &[&str])], split: Option<u64>) -> Vec<u8> {
        use osql_store::wal::{REC_FSYNC, WAL_MAGIC};
        let mark = encode_record(REC_FSYNC, &7u64.to_le_bytes());
        let mut out = WAL_MAGIC.to_vec();
        for &(seq, stmts) in entries {
            if seq == 0 {
                out.extend(&mark);
                continue;
            }
            for (i, stmt) in stmts.iter().enumerate() {
                if i == 1 && split == Some(seq) {
                    out.extend(&mark);
                }
                out.extend(encode_record(REC_STMT, stmt.as_bytes()));
            }
            out.extend(encode_record(REC_COMMIT, &seq.to_le_bytes()));
        }
        out
    }

    #[test]
    fn a_segment_copied_from_the_log_equals_the_encoded_one() {
        use osql_store::wal::WAL_HEADER;
        let txns: [(u64, &[&str]); 7] = [
            (0, &[]),
            (1, &["INSERT INTO t VALUES (1, 'it''s')", "UPDATE t SET v = 'é' WHERE id = 1"]),
            (2, &[]),
            (0, &[]),
            (0, &[]),
            (3, &["DELETE FROM t WHERE id = 1", "INSERT INTO t VALUES (2, 'b')", "SELECT 1"]),
            (4, &["INSERT INTO t VALUES (3, 'c')"]),
        ];
        let with_marks = log(&txns, None);
        let without: Vec<_> = txns.iter().copied().filter(|t| t.0 != 0).collect();
        for (buf, split) in [
            (log(&without, None), None),
            (with_marks.clone(), None),
            (log(&txns, Some(3)), Some(3)),
        ] {
            let scan = scan_records(&buf, WAL_HEADER as usize);
            assert_eq!(scan.txns.len(), 4);
            for txn in &scan.txns {
                assert_eq!(txn.records.is_none(), Some(txn.seq) == split, "txn {}", txn.seq);
            }
            let copied = segment_from_log(&buf, &scan.txns);
            assert_eq!(copied, encode_segment(&scan.txns), "split {split:?}");
            // and from any shipped suffix of the log
            assert_eq!(segment_from_log(&buf, &scan.txns[2..]), encode_segment(&scan.txns[2..]));
        }
        // the marks are all that the log holds beyond the segment's records
        let plain = segment_from_log(&with_marks, &scan_records(&with_marks, WAL_HEADER as usize).txns);
        assert_eq!(plain[SEG_HEADER..], log(&without, None)[WAL_HEADER as usize..]);
    }

    #[test]
    fn bad_magic_is_an_error_not_a_finding() {
        assert!(matches!(decode_segment(b"OSQL"), Err(ReplError::Corrupt(_))));
        let mut buf = encode_segment(&[txn(1, &["X"])]);
        buf[0] ^= 0xFF;
        assert!(matches!(decode_segment(&buf), Err(ReplError::Corrupt(_))));
    }
}
