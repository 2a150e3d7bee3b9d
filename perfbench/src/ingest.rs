//! The write-path workload: `ingest_replicate`.
//!
//! One writer thread drives `osql_store::Store` on the real filesystem
//! with transactions of `STMTS_PER_TXN` statements, ships the WAL to a
//! directory and has a follower apply it every `SHIP_EVERY` commits, then
//! checkpoints. Many statements per commit, because the host's fsync is not
//! the program's: on the shared VM this was sized on it drifts between 0.3
//! and 0.7 ms over an hour, and slows further the longer a run keeps
//! syncing. With one statement per commit it is nine tenths of every
//! number, with eight still half, and the DML, index and WAL-encoding work
//! this workload exists to watch is lost in it; with 32 it is a tenth.
//! Every round starts from a fresh primary and replica, so rounds are
//! comparable; after each round the replica must dump byte-identically to
//! the primary and a reopened primary must land on the same commit.

use crate::procstat;
use crate::report::{Measured, RunReport};
use crate::rounds::{self, RoundLog, Tally};
use crate::spans::{self, Recorder};
use crate::spec::Workload;
use crate::stats;
use crate::world::{Scale, WorkDir, World};
use crate::RunOptions;
use osql_repl::{seed_if_missing, ship_store, Follower, FsShipDir};
use osql_store::{store_stats, Store};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Commits between one ship + apply and the next.
const SHIP_EVERY: usize = 30;

/// Statements in one transaction.
pub const STMTS_PER_TXN: usize = 32;

const EVENTS_DDL: &str =
    "CREATE TABLE bench_events (id INTEGER PRIMARY KEY, kind TEXT, amount REAL, note TEXT)";

/// The seeded statement mix: 70% INSERT, 20% UPDATE by key, 10% DELETE by
/// key, cut into transactions of `STMTS_PER_TXN`. Keys are tracked so that
/// every UPDATE and DELETE names a live row and no operation fails.
pub fn transactions(seed: u64, n: usize) -> Vec<Vec<String>> {
    let statements = statements(seed, n * STMTS_PER_TXN);
    statements
        .chunks(STMTS_PER_TXN)
        .map(<[String]>::to_vec)
        .collect()
}

fn statements(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 1u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if live.is_empty() || roll < 0.7 {
            let id = next_id;
            next_id += 1;
            live.push(id);
            out.push(format!(
                "INSERT INTO bench_events VALUES ({id}, 'kind{}', {:.2}, 'note {id}')",
                rng.gen_range(0..8),
                rng.gen_range(0.0..1000.0)
            ));
        } else if roll < 0.9 {
            let id = live[rng.gen_range(0..live.len())];
            out.push(format!(
                "UPDATE bench_events SET amount = {:.2}, note = 'edit {}' WHERE id = {id}",
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0..1000)
            ));
        } else {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            out.push(format!("DELETE FROM bench_events WHERE id = {id}"));
        }
    }
    out
}

/// The packed database a round's primary starts from.
struct Seeded {
    world: World,
    db_id: String,
    packed: PathBuf,
}

fn seed_database(opts: &RunOptions, dir: &Path) -> Result<Seeded, String> {
    let world = World::generate(opts.scale);
    let db = &world.bench.dbs[(opts.seed % world.bench.dbs.len() as u64) as usize];
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let packed = dir.join(format!("{}.store", db.id));
    datagen::export_db_store(db, &packed).map_err(|e| format!("pack {}: {e}", db.id))?;
    Ok(Seeded {
        db_id: db.id.clone(),
        world,
        packed,
    })
}

/// A fresh primary, shipping directory and caught-up follower.
struct Pair {
    primary_path: PathBuf,
    store: Store,
    media: FsShipDir,
    ship_dir: PathBuf,
    follower: Follower,
}

fn fresh_pair(seeded: &Seeded, dir: &Path) -> Result<Pair, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("ingest set-up: {what}: {e}");
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| err("mkdir", &e))?;
    let loaded = osql_store::read_database(&seeded.packed).map_err(|e| err("read packed", &e))?;
    let primary_path = dir.join("primary.store");
    let mut store = Store::create(&primary_path, loaded.database, loaded.blobs)
        .map_err(|e| err("create primary", &e))?;
    store
        .execute(EVENTS_DDL)
        .map_err(|e| err("create bench_events", &e))?;
    // fold the DDL into the base, so the replica is seeded with the table
    store.checkpoint().map_err(|e| err("checkpoint", &e))?;
    let ship_dir = dir.join("ship");
    let media = FsShipDir::open(&ship_dir).map_err(|e| err("ship dir", &e))?;
    ship_store(&primary_path, &media).map_err(|e| err("first ship", &e))?;
    let replica_path = dir.join("replica.store");
    seed_if_missing(&replica_path, &media).map_err(|e| err("seed replica", &e))?;
    let (mut follower, _) = Follower::open(&replica_path).map_err(|e| err("open follower", &e))?;
    follower.poll(&media).map_err(|e| err("first poll", &e))?;
    Ok(Pair {
        primary_path,
        store,
        media,
        ship_dir,
        follower,
    })
}

/// What one round did besides its latencies.
struct RoundFacts {
    secs: f64,
    /// execute + commit per transaction.
    latencies_ms: Vec<f64>,
    /// Every ship + apply, then the checkpoint: the rest of the round.
    serial_ms: Vec<f64>,
    /// `Store::commit` alone.
    commit_us: Vec<f64>,
    max_lag: u64,
    wal_bytes: u64,
    ship_bytes: u64,
    base_bytes: u64,
    rows: usize,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Ship the WAL and let the follower catch up; returns the follower's lag
/// in transactions at the moment it woke.
fn ship_and_apply(pair: &mut Pair, rec: Option<&Recorder>) -> Result<u64, String> {
    let span = rec.map(|r| r.enter("repl.ship"));
    let shipped =
        ship_store(&pair.primary_path, &pair.media).map_err(|e| format!("ship_store: {e}"))?;
    drop(span);
    let lag = shipped
        .last_commit_seq
        .saturating_sub(pair.follower.applied_seq());
    let span = rec.map(|r| r.enter("repl.apply"));
    let report = pair
        .follower
        .poll(&pair.media)
        .map_err(|e| format!("Follower::poll: {e}"))?;
    drop(span);
    if report.applied_seq != report.target_seq {
        return Err(format!(
            "follower at {} of {}",
            report.applied_seq, report.target_seq
        ));
    }
    Ok(lag)
}

/// Run one round of `txns`; with a recorder, every layer call gets a span.
fn round(
    pair: &mut Pair,
    txns: &[Vec<String>],
    rec: Option<&Recorder>,
    tally: &mut Tally,
) -> Result<RoundFacts, String> {
    let mut latencies_ms = Vec::with_capacity(txns.len());
    let mut commit_us = Vec::with_capacity(txns.len());
    let mut serial_ms = Vec::new();
    let mut max_lag = 0;
    let ship_bytes_before = dir_bytes(&pair.ship_dir);
    let wal_before = pair.store.wal_end();
    let started = Instant::now();
    for (i, txn) in txns.iter().enumerate() {
        if let Some(r) = rec {
            r.set_request(Some(i as u32));
        }
        let root = rec.map(|r| r.enter("txn"));
        let sent = Instant::now();
        let mut executed = Ok(());
        for sql in txn {
            let span = rec.map(|r| r.enter("store.execute"));
            executed = executed.and_then(|()| pair.store.execute(sql));
            drop(span);
        }
        let span = rec.map(|r| r.enter("store.commit"));
        let commit_at = Instant::now();
        let committed = executed.and_then(|()| pair.store.commit());
        commit_us.push(commit_at.elapsed().as_secs_f64() * 1e6);
        drop(span);
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        drop(root);
        tally.attempt(1);
        if let Err(e) = committed {
            tally.fail(format!("transaction {i}: {e}"));
        }
        if (i + 1) % SHIP_EVERY == 0 || i + 1 == txns.len() {
            if let Some(r) = rec {
                r.set_request(None);
            }
            let shipping = Instant::now();
            max_lag = max_lag.max(ship_and_apply(pair, rec)?);
            serial_ms.push(shipping.elapsed().as_secs_f64() * 1e3);
        }
    }
    let wal_bytes = pair.store.wal_end() - wal_before;
    let ship_bytes = dir_bytes(&pair.ship_dir) - ship_bytes_before;
    let seq = pair.store.commit_seq();
    if let Some(r) = rec {
        // traced: time recovery of the round's whole WAL before it is folded
        let (reopened, _) = r
            .time("store.reopen", || Store::open(&pair.primary_path))
            .map_err(|e| format!("Store::open: {e}"))?;
        if reopened.commit_seq() != seq {
            tally.fail(format!(
                "WAL replay reopened at commit {}, primary was at {seq}",
                reopened.commit_seq()
            ));
        }
        pair.store = reopened;
    }
    let span = rec.map(|r| r.enter("store.checkpoint"));
    let checkpointing = Instant::now();
    let base_bytes = pair
        .store
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    drop(span);
    serial_ms.push(checkpointing.elapsed().as_secs_f64() * 1e3);
    let secs = started.elapsed().as_secs_f64();

    // correctness, after the clock: replica ≡ primary, and recovery of the
    // primary reproduces its commit sequence
    if pair.follower.store().database().dump_script() != pair.store.database().dump_script() {
        tally.fail("replica dump differs from primary dump".to_owned());
    }
    if pair.follower.applied_seq() != seq {
        tally.fail(format!(
            "replica applied {} of {seq} commits",
            pair.follower.applied_seq()
        ));
    }
    match Store::open(&pair.primary_path) {
        Ok((reopened, _)) if reopened.commit_seq() == seq => {}
        Ok((reopened, _)) => tally.fail(format!(
            "reopened primary is at commit {}, was {seq}",
            reopened.commit_seq()
        )),
        Err(e) => tally.fail(format!("primary does not reopen: {e}")),
    }
    Ok(RoundFacts {
        secs,
        latencies_ms,
        serial_ms,
        commit_us,
        max_lag,
        wal_bytes,
        ship_bytes,
        base_bytes,
        rows: pair.store.database().total_rows(),
    })
}

/// Share of the seeded database's gold queries, plus probes of the event
/// table, whose rows on the replica equal the primary's — the read side of
/// replication. 100 unless replication lost or invented data.
fn replica_agreement_pct(seeded: &Seeded, pair: &Pair) -> f64 {
    let mut probes: Vec<String> = seeded
        .world
        .bench
        .dev
        .iter()
        .filter(|ex| ex.db_id == seeded.db_id)
        .map(|ex| ex.gold_sql.clone())
        .collect();
    probes.push("SELECT COUNT(*), SUM(amount) FROM bench_events".to_owned());
    probes.push("SELECT kind, COUNT(*) FROM bench_events GROUP BY kind ORDER BY kind".to_owned());
    let (primary, replica) = (pair.store.database(), pair.follower.store().database());
    let agree = probes
        .iter()
        .filter(|sql| match (primary.query(sql), replica.query(sql)) {
            (Ok(a), Ok(b)) => a.rows == b.rows,
            _ => false,
        })
        .count();
    100.0 * agree as f64 / probes.len() as f64
}

/// Run the workload end to end.
pub fn run(opts: &RunOptions) -> Result<RunReport, String> {
    let smoke = opts.scale == Scale::Smoke;
    let round_txns = if smoke { 60 } else { 120 };
    let setup_reps = if smoke { 1 } else { 3 };
    let work = WorkDir::create(Workload::IngestReplicate.name()).map_err(|e| e.to_string())?;

    let mut setup_secs = Vec::new();
    let mut ready = None;
    for rep in 0..setup_reps {
        drop(ready.take());
        let started = Instant::now();
        let seeded = seed_database(opts, &work.path().join(format!("packed-{rep}")))?;
        let pair = fresh_pair(&seeded, &work.path().join("round"))?;
        setup_secs.push(started.elapsed().as_secs_f64());
        ready = Some((seeded, pair));
    }
    let (seeded, mut pair) = ready.expect("at least one set-up");
    let txns = transactions(opts.seed, round_txns);

    let mut tally = Tally::default();
    let mut log = RoundLog::new(1, 1);
    let mut agreement = Vec::new();
    let mut warm_up = true;
    loop {
        let cpu_before = procstat::cpu_ms().unwrap_or(0.0);
        let ctx_before = procstat::thread_ctx_switches().unwrap_or(0);
        let stats_before = (
            store_stats().wal_append.snapshot(),
            store_stats().wal_sync.snapshot(),
        );
        let txns = if warm_up {
            &txns[..rounds::warm_up_len(txns.len())]
        } else {
            &txns[..]
        };
        let facts = round(&mut pair, txns, None, &mut tally)?;
        if !warm_up {
            log.push_round(&facts.latencies_ms, &facts.serial_ms, facts.secs);
            log.cpu_ms += procstat::cpu_ms().unwrap_or(0.0) - cpu_before;
            log.ctx_switches += procstat::thread_ctx_switches().unwrap_or(0) - ctx_before;
            let n = facts.latencies_ms.len() as f64;
            let (append, sync) = (
                store_stats().wal_append.snapshot(),
                store_stats().wal_sync.snapshot(),
            );
            let mean_us = |before: &osql_store::LatencySnapshot,
                           after: &osql_store::LatencySnapshot| {
                rounds::share(
                    (after.total_us - before.total_us) as f64,
                    (after.count - before.count) as f64,
                )
            };
            log.count("store.wal_append_us", mean_us(&stats_before.0, &append));
            log.count("store.wal_sync_us", mean_us(&stats_before.1, &sync));
            log.count("store.wal_bytes_per_txn", facts.wal_bytes as f64 / n);
            log.count(
                "store.file_bytes_per_row",
                facts.base_bytes as f64 / facts.rows.max(1) as f64,
            );
            log.count("repl.ship_bytes_per_txn", facts.ship_bytes as f64 / n);
            log.count("repl.max_lag_txns", facts.max_lag as f64);
            let commits = stats::sorted(facts.commit_us);
            log.count("store.commit_us_p50", stats::percentile(&commits, 50.0));
            log.count("store.commit_us_p99", stats::percentile(&commits, 99.0));
            agreement.push(replica_agreement_pct(&seeded, &pair));
        }
        warm_up = false;
        if log.rounds() > 0 && log.done(opts.seconds, smoke) {
            break;
        }
        pair = fresh_pair(&seeded, &work.path().join("round"))?;
    }

    let mut per_layer = BTreeMap::new();
    let mut notes = Vec::new();
    if opts.trace {
        let started = Instant::now();
        pair = fresh_pair(&seeded, &work.path().join("round"))?;
        let rec = Recorder::default();
        round(&mut pair, &txns, Some(&rec), &mut tally)?;
        // sqlkit alone: the same statements against a copy with no WAL under it
        let mut scratch = osql_store::read_database(&seeded.packed)
            .map_err(|e| format!("read packed: {e}"))?
            .database;
        scratch
            .execute_script(EVENTS_DDL)
            .map_err(|e| format!("bench_events: {e}"))?;
        for sql in txns.iter().flatten() {
            if let Err(e) = rec.time("sqlkit.dml", || scratch.execute_script(sql)) {
                tally.fail(format!("sqlkit alone rejects {sql}: {e}"));
            }
        }
        let all = rec.spans();
        let by = spans::totals_by_name(&all);
        let mut put = |name: &str, value: f64| {
            per_layer.insert(
                name.to_owned(),
                Measured::single(value, rounds::unit_of(name)),
            );
        };
        let of = |name: &str| by.get(name).cloned().unwrap_or_default();
        put("store.execute_us", of("store.execute").median_us());
        put("sqlkit.dml_us", of("sqlkit.dml").median_us());
        put("store.reopen_ms", of("store.reopen").mean_us() / 1e3);
        put(
            "store.checkpoint_ms",
            of("store.checkpoint").mean_us() / 1e3,
        );
        put("repl.ship_ms_per_batch", of("repl.ship").mean_us() / 1e3);
        put(
            "repl.apply_us_per_txn",
            of("repl.apply").total_ns as f64 / 1e3 / txns.len() as f64,
        );
        // what the spans under each transaction leave unexplained
        let (txn, children) = (
            of("txn"),
            of("store.execute").total_ns + of("store.commit").total_ns,
        );
        put(
            "bench.unattributed_share",
            1.0 - rounds::share(children as f64, txn.total_ns as f64),
        );
        put("bench.answer_key_s", 0.0);
        put("bench.layer_pass_s", started.elapsed().as_secs_f64());
        log.per_layer(&tally, &mut per_layer, &mut notes);
        rounds::fill_unexercised(&mut per_layer);
        crate::layers::write_spans(Workload::IngestReplicate, &all)?;
    }

    let mut end_to_end = log.end_to_end();
    end_to_end.insert(
        "ex_pct".to_owned(),
        Measured::single(stats::median(&agreement), "%"),
    );
    end_to_end.insert("setup_s".to_owned(), Measured::over_rounds(setup_secs, "s"));
    notes.push(format!(
        "{} measured rounds of {round_txns} transactions of {STMTS_PER_TXN} statements on database {}",
        log.rounds(),
        seeded.db_id
    ));
    Ok(RunReport {
        workload: Workload::IngestReplicate.name().to_owned(),
        seed: opts.seed,
        seconds: opts.seconds,
        smoke,
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        rounds: log.rounds() as u64,
        end_to_end,
        per_layer,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_mix_is_seeded_and_never_names_a_dead_row() {
        assert_eq!(
            transactions(7, 10),
            transactions(7, 10),
            "same seed, same transactions"
        );
        assert_ne!(
            transactions(7, 10),
            transactions(8, 10),
            "another seed, other transactions"
        );
        assert!(transactions(7, 10)
            .iter()
            .all(|txn| txn.len() == STMTS_PER_TXN));
        let a = statements(7, 500);
        let mut db = sqlkit::Database::new("t");
        db.execute_script(EVENTS_DDL).unwrap();
        let mut live = 0i64;
        for sql in &a {
            let before = db.rows("bench_events").unwrap().len() as i64;
            db.execute_script(sql).unwrap();
            let after = db.rows("bench_events").unwrap().len() as i64;
            match sql.split(' ').next().unwrap() {
                "INSERT" => assert_eq!(after, before + 1),
                "DELETE" => assert_eq!(after, before - 1, "{sql} must remove a live row"),
                _ => assert_eq!(after, before),
            }
            live = after;
        }
        assert!(live > 0);
        let inserts = a.iter().filter(|s| s.starts_with("INSERT")).count();
        assert!(
            (300..400).contains(&inserts),
            "about 70% inserts, got {inserts}"
        );
    }
}
