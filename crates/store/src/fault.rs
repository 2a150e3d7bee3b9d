//! Fault-injection media for crash-recovery testing.
//!
//! [`FaultFile`] is an in-memory [`WalMedia`] that models the failure
//! modes a real disk exposes: unsynced bytes lost on crash (all of them,
//! or all but a prefix the page cache happened to write back), torn writes
//! that persist only a prefix of the last append, corrupted bytes, and
//! short reads. The recovery test matrix drives it across every byte
//! offset of a scripted workload to prove the committed-prefix
//! invariant.

use crate::wal::WalMedia;

/// Which faults a [`FaultFile`] injects.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// On [`FaultFile::crash`], keep this many of the bytes appended
    /// since the last sync (all of them if fewer) instead of dropping
    /// them — the page cache wrote back a prefix of an unsynced run
    /// before the machine died. `None` drops every unsynced byte.
    pub keep_unsynced: Option<u64>,
    /// On [`FaultFile::crash`], keep at most this many bytes even if
    /// more were synced — a torn write / partial fsync at an arbitrary
    /// byte boundary.
    pub torn_tail: Option<u64>,
    /// XOR this mask into the byte at this offset on every read — a
    /// latent corruption (bit rot, misdirected write).
    pub corrupt_at: Option<(u64, u8)>,
    /// Reads return at most this many bytes — a short read.
    pub short_read: Option<u64>,
}

/// In-memory WAL media with injectable faults and explicit crash
/// semantics: bytes appended but not yet synced are lost on
/// [`FaultFile::crash`] (or, with [`FaultPlan::keep_unsynced`], all but
/// a prefix of them), exactly like a page cache.
#[derive(Debug, Default, Clone)]
pub struct FaultFile {
    data: Vec<u8>,
    durable: usize,
    plan: FaultPlan,
    syncs: u64,
}

impl FaultFile {
    /// An empty fault-free file.
    pub fn new() -> Self {
        FaultFile::default()
    }

    /// Replace the fault plan.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// Simulate a crash: unsynced bytes vanish (past the prefix the
    /// plan keeps, if any), then the torn-tail cap (if any) is applied.
    pub fn crash(&mut self) {
        let kept = self.plan.keep_unsynced.unwrap_or(0) as usize;
        self.data.truncate(self.durable.saturating_add(kept));
        if let Some(cap) = self.plan.torn_tail {
            self.data.truncate(cap as usize);
        }
        self.durable = self.data.len();
    }

    /// Bytes currently held (before read-side faults).
    pub fn raw_len(&self) -> usize {
        self.data.len()
    }

    /// Bytes guaranteed durable (synced).
    pub fn durable_len(&self) -> usize {
        self.durable
    }

    /// Number of syncs observed.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl WalMedia for FaultFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.data.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.durable = self.data.len();
        self.syncs += 1;
        Ok(())
    }

    fn len(&mut self) -> std::io::Result<u64> {
        Ok(self.read_all()?.len() as u64)
    }

    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        let mut out = self.data.clone();
        if let Some(cap) = self.plan.short_read {
            out.truncate(cap as usize);
        }
        if let Some((off, mask)) = self.plan.corrupt_at {
            if let Some(b) = out.get_mut(off as usize) {
                *b ^= mask;
            }
        }
        Ok(out)
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.data.truncate(len as usize);
        self.durable = self.durable.min(self.data.len());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_drops_unsynced_bytes() {
        let mut f = FaultFile::new();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" volatile").unwrap();
        f.crash();
        assert_eq!(f.read_all().unwrap(), b"durable");
        assert_eq!(f.syncs(), 1);
    }

    #[test]
    fn crash_can_keep_a_prefix_of_the_unsynced_bytes() {
        let mut f = FaultFile::new();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" volatile").unwrap();
        f.set_plan(FaultPlan { keep_unsynced: Some(4), ..FaultPlan::default() });
        f.crash();
        assert_eq!(f.read_all().unwrap(), b"durable vol");
        assert_eq!(f.durable_len(), 11, "what survives a crash is on the disk");
        // asking for more than was appended keeps what there is
        f.append(b"!").unwrap();
        f.set_plan(FaultPlan { keep_unsynced: Some(99), ..FaultPlan::default() });
        f.crash();
        assert_eq!(f.read_all().unwrap(), b"durable vol!");
    }

    #[test]
    fn torn_tail_caps_even_synced_bytes() {
        let mut f = FaultFile::new();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        f.set_plan(FaultPlan { torn_tail: Some(4), ..FaultPlan::default() });
        f.crash();
        assert_eq!(f.read_all().unwrap(), b"0123");
    }

    #[test]
    fn corruption_and_short_reads_apply_on_read() {
        let mut f = FaultFile::new();
        f.append(b"abcdef").unwrap();
        f.sync().unwrap();
        f.set_plan(FaultPlan {
            corrupt_at: Some((1, 0x01)),
            short_read: Some(3),
            ..FaultPlan::default()
        });
        // short read first, then corruption inside the visible prefix
        assert_eq!(f.read_all().unwrap(), b"ac\x63");
        assert_eq!(f.len().unwrap(), 3);
        // underlying bytes untouched
        assert_eq!(f.raw_len(), 6);
    }
}
