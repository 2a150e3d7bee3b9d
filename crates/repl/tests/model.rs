//! Model-checked concurrency invariants for the replication layer: the
//! shipper/follower tail-vs-apply race and shutdown during apply. Only
//! built under `--cfg osql_model`:
//!
//! ```sh
//! RUSTFLAGS="--cfg osql_model" CARGO_TARGET_DIR=target/model \
//!     cargo test -p osql-repl --test model
//! ```
//!
//! The follower's statement execution is sequential by construction (one
//! thread owns the store), so the racy surface is exactly what these
//! models drive: the shipping directory (segment published before
//! manifest), the local WAL's commit sequencing, and the shared
//! [`ReplState`] the serving side reads. The apply loop here is the
//! same protocol as `Follower::poll` — manifest first, advertised
//! segments only, strict next-sequence, a segment committed as one run
//! with one trailing sync, only the synced watermark published — applied
//! onto a bare `Wal<MemWal>` instead of a full store so each schedule
//! stays cheap.
#![cfg(osql_model)]

use osql_chk::atomic::{AtomicU64, Ordering};
use osql_chk::model::{self, Config, Outcome};
use osql_chk::thread;
use osql_repl::{read_manifest, ship_wal, MemShipDir, ReplState, ShipMedia};
use osql_store::wal::{encode_record, Wal, WalMedia, REC_COMMIT, REC_STMT, WAL_MAGIC};
use osql_store::audit;
use std::sync::Arc;

fn cfg() -> Config {
    Config { preemption_bound: 2, max_schedules: 50_000, ..Config::default() }
}

fn assert_pass(invariant: &str, outcome: Outcome) {
    match outcome {
        Outcome::Pass(report) => {
            eprintln!("{invariant}: {} schedule(s) explored", report.schedules);
        }
        Outcome::Fail { message, schedule, schedules } => {
            panic!("{invariant}: model check failed after {schedules} schedule(s): {message}\nschedule: {schedule}")
        }
    }
}

/// Fault-free in-memory WAL media for the follower's local log. With a
/// `durable` cell it tells other threads, after each sync, the last
/// commit that sync covered — what a crash right now would keep.
#[derive(Default)]
struct MemWal {
    buf: Vec<u8>,
    durable: Option<Arc<AtomicU64>>,
}

impl WalMedia for MemWal {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&mut self) -> std::io::Result<()> {
        if let Some(durable) = &self.durable {
            durable.store(audit(&self.buf).last_commit_seq, Ordering::SeqCst);
        }
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

/// A primary WAL image holding committed txns `1..=n`, one statement
/// each.
fn wal_image(n: u64) -> Vec<u8> {
    let mut buf = WAL_MAGIC.to_vec();
    for seq in 1..=n {
        buf.extend_from_slice(&encode_record(REC_STMT, format!("S{seq}").as_bytes()));
        buf.extend_from_slice(&encode_record(REC_COMMIT, &seq.to_le_bytes()));
    }
    buf
}

/// One follower poll round — the same protocol as `Follower::poll`
/// (manifest first, advertised segments only, strict next-sequence,
/// never past the manifest, one sync per segment, the synced watermark
/// reported), applying onto a local `Wal`. Checks the shutdown flag
/// between transactions, never inside one, and syncs what the segment
/// has committed so far before reporting it.
fn poll_once(media: &impl ShipMedia, wal: &mut Wal<MemWal>, state: &ReplState) {
    let manifest = match read_manifest(media) {
        Ok(Some(m)) => m,
        Ok(None) => return,
        Err(e) => panic!("manifest must always verify in a fault-free run: {e}"),
    };
    let mut report = osql_repl::ApplyReport {
        target_seq: manifest.last_commit_seq,
        ..osql_repl::ApplyReport::default()
    };
    for meta in &manifest.segments {
        if meta.end_seq <= wal.seq() {
            continue;
        }
        // published-before-advertised: an advertised segment must exist
        let bytes = media
            .read_segment(&osql_repl::segment_name(meta.start_seq))
            .expect("manifest advertised a segment that is absent");
        let scan = osql_repl::decode_segment(&bytes).unwrap();
        assert!(scan.finding.is_none(), "advertised bytes are never torn");
        for txn in &scan.txns {
            if state.shutdown_requested() {
                // stop at a transaction boundary only
                report.applied_seq = wal.sync_run().unwrap();
                state.note_poll("db", &report);
                return;
            }
            if txn.seq <= wal.seq() {
                continue;
            }
            if txn.seq > manifest.last_commit_seq {
                break;
            }
            assert_eq!(txn.seq, wal.seq() + 1, "strict next-sequence, no holes");
            for stmt in &txn.stmts {
                wal.append_stmt(stmt);
            }
            let committed = wal.commit_deferred().unwrap();
            assert_eq!(committed, txn.seq, "local commit reproduces the shipped seq");
            report.applied_txns += 1;
        }
        wal.sync_run().unwrap();
    }
    report.applied_seq = wal.synced_seq();
    state.note_poll("db", &report);
}

/// Tail-vs-apply race: a shipper publishing two rounds of segments races
/// a follower polling three times. At every interleaving the follower
/// holds exactly a prefix of the shipped stream — a manifest is never
/// observed without its segment, sequences never skip or repeat, and the
/// final poll (after the shipper finished) converges to the full stream
/// with a gap-free local log.
#[test]
fn tail_vs_apply_race_applies_exactly_a_prefix() {
    assert_pass(
        "tail_vs_apply_race_applies_exactly_a_prefix",
        model::explore(cfg(), || {
            let media = MemShipDir::new();
            let state = Arc::new(ReplState::new(1));
            let shipper = {
                let media = media.clone();
                thread::spawn(move || {
                    ship_wal(&media, &wal_image(1), 0).unwrap();
                    ship_wal(&media, &wal_image(3), 0).unwrap();
                })
            };
            let mut wal = Wal::create(MemWal::default()).unwrap();
            poll_once(&media, &mut wal, &state);
            let mid = wal.seq();
            assert!(mid <= 3, "never past what was shipped");
            shipper.join().unwrap();
            poll_once(&media, &mut wal, &state);
            assert_eq!(wal.seq(), 3, "converged to the full shipped stream");
            assert_eq!(state.applied_seq("db"), Some(3));
            assert_eq!(state.max_lag(), 0);
            let buf = wal.media_mut().read_all().unwrap();
            let a = audit(&buf);
            assert_eq!(a.commits, 3, "every shipped txn committed locally");
            assert_eq!(a.last_commit_seq, 3);
            assert_eq!(a.finding, None, "no torn records in the local log");
            assert_eq!(a.tail_bytes, 0, "no uncommitted tail");
        }),
    );
}

/// Shutdown during apply never tears a commit: a shutdown request races
/// a follower applying three shipped transactions. Wherever the flag
/// lands, the local log always ends exactly at a transaction boundary —
/// zero uncommitted tail bytes, a gap-free prefix, and the shared state
/// agrees with the log.
#[test]
fn shutdown_during_apply_never_tears_a_commit() {
    assert_pass(
        "shutdown_during_apply_never_tears_a_commit",
        model::explore(cfg(), || {
            let media = MemShipDir::new();
            ship_wal(&media, &wal_image(3), 0).unwrap();
            let state = Arc::new(ReplState::new(1));
            let stopper = {
                let state = state.clone();
                thread::spawn(move || state.request_shutdown())
            };
            let mut wal = Wal::create(MemWal::default()).unwrap();
            poll_once(&media, &mut wal, &state);
            stopper.join().unwrap();
            let applied = wal.seq();
            assert!(applied <= 3);
            let buf = wal.media_mut().read_all().unwrap();
            let a = audit(&buf);
            assert_eq!(a.commits, applied, "log holds exactly the applied prefix");
            assert_eq!(a.tail_bytes, 0, "shutdown never leaves half a transaction");
            assert_eq!(a.finding, None);
            assert_eq!(
                state.applied_seq("db"),
                Some(applied),
                "serving state agrees with the local log"
            );
        }),
    );
}

/// The serving side's reads of `ReplState` are monotonic under a racing
/// apply loop: two reads in order never observe the applied sequence
/// going backwards, and a bounded-staleness admission decision made on
/// the first read stays valid at the second.
#[test]
fn applied_seq_reads_are_monotonic_under_racing_polls() {
    assert_pass(
        "applied_seq_reads_are_monotonic_under_racing_polls",
        model::explore(cfg(), || {
            let state = Arc::new(ReplState::new(1));
            state.note_poll(
                "db",
                &osql_repl::ApplyReport {
                    target_seq: 1,
                    applied_seq: 1,
                    applied_txns: 1,
                    ..osql_repl::ApplyReport::default()
                },
            );
            let applier = {
                let state = state.clone();
                thread::spawn(move || {
                    for seq in 2..=3u64 {
                        state.note_poll(
                            "db",
                            &osql_repl::ApplyReport {
                                target_seq: 3,
                                applied_seq: seq,
                                applied_txns: 1,
                                ..osql_repl::ApplyReport::default()
                            },
                        );
                    }
                })
            };
            let first = state.applied_seq("db").unwrap();
            let second = state.applied_seq("db").unwrap();
            assert!(second >= first, "applied_seq regressed between reads");
            assert!((1..=3).contains(&first));
            applier.join().unwrap();
            assert_eq!(state.applied_seq("db"), Some(3));
            assert_eq!(state.status("db").unwrap().txns_applied, 3);
        }),
    );
}

/// The serving side never sees a watermark the follower has not synced:
/// a reader races an apply loop working through two shipped segments,
/// and asks it to shut down between its reads so the loop may stop — and
/// report — in the middle of a segment's run. Whatever `applied_seq` the
/// reader observes, the follower's log had already been synced through
/// that commit (the media's `durable` cell is written by the sync itself
/// and read *after* the watermark), so a crash at that instant could not
/// take back anything a client was told.
#[test]
fn readers_never_observe_a_watermark_above_the_last_sync() {
    assert_pass(
        "readers_never_observe_a_watermark_above_the_last_sync",
        model::explore(cfg(), || {
            let media = MemShipDir::new();
            ship_wal(&media, &wal_image(2), 0).unwrap();
            ship_wal(&media, &wal_image(4), 0).unwrap();
            let state = Arc::new(ReplState::new(1));
            let durable = Arc::new(AtomicU64::new(0));
            let reader = {
                let (state, durable) = (state.clone(), durable.clone());
                thread::spawn(move || {
                    let mut last = 0;
                    for round in 0..2 {
                        let seen = state.applied_seq("db").unwrap_or(0);
                        let synced = durable.load(Ordering::SeqCst);
                        assert!(seen <= synced, "served watermark {seen}, log synced to {synced}");
                        assert!(seen >= last, "watermark regressed");
                        last = seen;
                        if round == 0 {
                            state.request_shutdown();
                        }
                    }
                })
            };
            let log = MemWal { buf: Vec::new(), durable: Some(durable.clone()) };
            let mut wal = Wal::create(log).unwrap();
            poll_once(&media, &mut wal, &state);
            reader.join().unwrap();
            let applied = state.applied_seq("db").unwrap();
            assert_eq!(applied, wal.synced_seq(), "the report is the synced watermark");
            assert_eq!(applied, durable.load(Ordering::SeqCst));
            assert!(applied <= 4);
            // with the stop gone, the next round finishes the stream
            let state = ReplState::new(1);
            poll_once(&media, &mut wal, &state);
            assert_eq!(state.applied_seq("db"), Some(4));
            assert_eq!(durable.load(Ordering::SeqCst), 4);
        }),
    );
}
