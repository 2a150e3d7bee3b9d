//! # osql-repl — WAL-shipping replication for `osql-store`
//!
//! The store's WAL is already a self-delimiting, CRC-framed,
//! sequence-numbered record stream with replay-from-`base_seq`; this
//! crate ships it. Three roles, zero external dependencies:
//!
//! - **Primary / shipper** ([`ship`]): [`ship_wal`](ship::ship_wal)
//!   scans the primary's WAL for committed transactions past the last
//!   shipped sequence and publishes them as framed log [`segment`]s
//!   into a shipping directory, then atomically advances a small CRC'd
//!   [`manifest`] advertising `last_commit_seq`. The manifest is
//!   written *after* its segment, so it never advertises bytes that are
//!   not durable in the directory.
//! - **Follower** ([`follow`]): [`Follower`](follow::Follower) tails
//!   the manifest, fetches segments, and applies each shipped
//!   transaction onto its own store (statements re-executed, then
//!   committed through the follower's own WAL, one sync per segment),
//!   so the follower's `applied_seq` — its synced watermark — advances
//!   monotonically one segment at a time and a crash mid-apply recovers
//!   by the store's ordinary truncate-uncommitted-tail path.
//!   [`promote`](follow::Follower::promote) checkpoints the applied
//!   prefix into the base file and hands back a writable
//!   [`Store`](osql_store::Store).
//! - **Serving state** ([`state`]): [`ReplState`](state::ReplState) is
//!   the chk-shimmed bridge between the apply loop and the HTTP layer —
//!   per-database applied/target sequences for bounded-staleness reads,
//!   segment-fetch counters, and a shutdown flag the apply loop checks
//!   *between* transactions so shutdown can never tear a commit.
//!
//! Shipping media is abstracted ([`media::ShipMedia`]) so production
//! uses a real directory ([`media::FsShipDir`]) while the concurrency
//! model suite drives shipper and follower through an in-memory
//! directory ([`media::MemShipDir`]) under the deterministic scheduler.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod follow;
pub mod manifest;
pub mod media;
pub mod segment;
pub mod ship;
pub mod state;

pub use follow::{seed_if_missing, ApplyReport, Follower, PromotionReport};
pub use manifest::{Manifest, SegmentMeta, MANIFEST_NAME};
pub use media::{FsShipDir, MemShipDir, ShipMedia};
pub use segment::{decode_segment, encode_segment, parse_segment_name, segment_from_log, segment_name};
pub use ship::{read_manifest, ship_store, ship_wal, ShipReport, BASE_NAME};
pub use state::{DbReplStatus, ReplState};

use osql_store::StoreError;

/// Any failure in the replication layer.
#[derive(Debug)]
pub enum ReplError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Bytes in the shipping directory are not a valid manifest or
    /// segment (bad magic, checksum mismatch, truncation).
    Corrupt(String),
    /// The stream has a hole: the next sequence a role needs is no
    /// longer available (e.g. the primary checkpointed commits it never
    /// shipped, or a manifest advertises a segment range with a gap).
    Gap {
        /// Last sequence the consumer holds.
        have: u64,
        /// First sequence it needs and cannot get.
        need: u64,
    },
    /// The follower's local state contradicts the shipped stream —
    /// applying would fork history, so the apply loop refuses.
    Diverged(String),
    /// An earlier apply round failed inside a segment, so the follower's
    /// live database may be ahead of its log; it refuses to apply or
    /// promote until the store is reopened (which rebuilds it from the
    /// log's committed prefix).
    NeedsReopen {
        /// The synced watermark the follower still vouches for.
        applied_seq: u64,
    },
    /// The storage layer failed underneath replication.
    Store(StoreError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "io: {e}"),
            ReplError::Corrupt(msg) => write!(f, "corrupt replication stream: {msg}"),
            ReplError::Gap { have, need } => write!(
                f,
                "replication gap: have seq {have}, need seq {need} (no longer shippable)"
            ),
            ReplError::Diverged(msg) => write!(f, "follower diverged: {msg}"),
            ReplError::NeedsReopen { applied_seq } => write!(
                f,
                "an earlier apply round failed mid-segment; reopen the follower \
                 (durable through seq {applied_seq})"
            ),
            ReplError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Io(e) => Some(e),
            ReplError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> Self {
        ReplError::Io(e)
    }
}

impl From<StoreError> for ReplError {
    fn from(e: StoreError) -> Self {
        ReplError::Store(e)
    }
}
