//! The replication failover matrix: ship → apply → promote under fault
//! injection at every byte offset.
//!
//! Two properties hold at every fault point:
//!
//! - **No committed-and-shipped transaction is lost.** Whatever tears —
//!   segment tails, manifest bytes, the follower's own WAL mid-apply,
//!   the promotion checkpoint window — once the fault clears, the
//!   follower converges to exactly the shipped prefix, and a promoted
//!   follower serves every acknowledged-shipped transaction with rows
//!   identical to the primary-only run.
//! - **No unshipped suffix is ever invented.** A transaction the
//!   manifest never advertised — committed on the primary but not
//!   shipped, or sitting in an orphan segment from a crashed publish —
//!   never appears on a follower, torn bytes never decode into
//!   plausible transactions, and the follower's state is always exactly
//!   some commit-boundary prefix, never half a transaction.

use osql_repl::{
    read_manifest, seed_if_missing, ship_store, Follower, Manifest, MemShipDir, ReplError,
    ShipMedia,
};
use osql_store::fault::{FaultFile, FaultPlan};
use osql_store::{write_database, Store, WalMedia};
use sqlkit::value::Row;
use sqlkit::Database;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osql-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_db() -> Database {
    let mut db = Database::new("ledger");
    db.execute_script(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, name TEXT, balance REAL);\
         INSERT INTO acct VALUES (1, 'seed', 100.0);",
    )
    .unwrap();
    db
}

/// Deterministic statements for transaction `i` (1-based commit seq).
fn txn_stmts(i: u64) -> Vec<String> {
    let mut stmts =
        vec![format!("INSERT INTO acct VALUES ({}, 'tx{i}', {i}.5)", 100 + i * 10)];
    if i % 3 == 1 {
        stmts.push(format!("UPDATE acct SET balance = {i} WHERE id = 1"));
    }
    if i.is_multiple_of(4) {
        stmts.push(format!("DELETE FROM acct WHERE id = {}", 100 + (i - 1) * 10));
    }
    stmts
}

fn rows_of(db: &Database) -> Vec<Row> {
    db.rows("acct").unwrap().to_vec()
}

/// The reference: rows after each commit boundary, computed by a pure
/// in-memory replay. `states[k]` is the state with commits `1..=k`
/// applied — the only states any replica is ever allowed to expose.
fn reference_states(n: u64) -> Vec<Vec<Row>> {
    let mut db = base_db();
    let mut states = vec![rows_of(&db)];
    for i in 1..=n {
        for stmt in txn_stmts(i) {
            db.execute_script(&stmt).unwrap();
        }
        states.push(rows_of(&db));
    }
    states
}

/// Run the primary at `path`, committing txns `1..=n` and shipping after
/// every `ship_every`-th commit. Returns the primary store.
fn run_primary(path: &Path, media: &impl ShipMedia, n: u64, ship_every: u64) -> Store {
    let store = Store::create(path, base_db(), vec![]).unwrap();
    let mut store = store;
    for i in 1..=n {
        for stmt in txn_stmts(i) {
            store.execute(&stmt).unwrap();
        }
        assert_eq!(store.commit().unwrap(), i);
        if i % ship_every == 0 {
            ship_store(path, media).unwrap();
        }
    }
    store
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Append,
    Sync,
}

/// What a test keeps after handing a [`Wired`] log to a follower: a
/// trip-wire that fails one chosen append or sync once, and a count of
/// the syncs that went through.
#[derive(Debug, Default)]
struct Wire {
    trip: Cell<Option<(Op, u64)>>,
    syncs: Cell<u64>,
}

impl Wire {
    /// Fail the `nth` (0-based, counted from now) `op`, once.
    fn arm(&self, op: Op, nth: u64) {
        self.trip.set(Some((op, nth)));
    }

    fn trips(&self, op: Op) -> std::io::Result<()> {
        match self.trip.get() {
            Some((armed, 0)) if armed == op => {
                self.trip.set(None);
                Err(std::io::Error::other(format!("injected {op:?} failure")))
            }
            Some((armed, n)) if armed == op => {
                self.trip.set(Some((armed, n - 1)));
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// A [`FaultFile`] behind a [`Wire`].
#[derive(Debug, Default, Clone)]
struct Wired {
    inner: FaultFile,
    wire: Rc<Wire>,
}

impl WalMedia for Wired {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.wire.trips(Op::Append)?;
        self.inner.append(bytes)
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.wire.trips(Op::Sync)?;
        self.wire.syncs.set(self.wire.syncs.get() + 1);
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

/// A follower over a fresh wired log, and the wire.
fn wired_follower(fpath: &Path) -> (Follower<Wired>, Rc<Wire>) {
    let media = Wired::default();
    let wire = media.wire.clone();
    (Follower::open_with(fpath, media).unwrap().0, wire)
}

#[test]
fn promoted_follower_matches_the_primary_only_run_exactly() {
    let dir = tmpdir("promote");
    let media = MemShipDir::new();
    let n = 9;
    let primary = run_primary(&dir.join("primary.store"), &media, n, 2);
    ship_store(primary.path(), &media).unwrap(); // flush the odd tail txn
    let states = reference_states(n);
    assert_eq!(rows_of(primary.database()), states[n as usize]);

    let fpath = dir.join("follower.store");
    assert!(seed_if_missing(&fpath, &media).unwrap());
    let (mut f, _) = Follower::open(&fpath).unwrap();
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, n);
    assert!(report.segments_read >= 4, "shipping every 2 commits yields many segments");

    let (mut promoted, pr) = f.promote().unwrap();
    assert_eq!(pr.promoted_at_seq, n);
    assert_eq!(
        rows_of(promoted.database()),
        rows_of(primary.database()),
        "promoted follower serves every acknowledged-shipped txn byte-identically"
    );
    // the promoted store is a real primary: writes continue the sequence
    promoted.execute("INSERT INTO acct VALUES (999, 'after', 1.0)").unwrap();
    assert_eq!(promoted.commit().unwrap(), n + 1);
    drop(promoted);
    let (reopened, report) = Store::open(&fpath).unwrap();
    assert_eq!(report.replay.committed, 1, "only the post-promotion txn replays");
    assert_eq!(reopened.commit_seq(), n + 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn follower_of_an_indexed_primary_applies_updates_and_deletes_exactly() {
    let dir = tmpdir("indexed-dml");
    let media = MemShipDir::new();
    let path = dir.join("primary.store");
    let mut db = base_db();
    db.create_index("acct", "id").unwrap();
    db.create_index("acct", "name").unwrap();
    let mut primary = Store::create(&path, db, vec![]).unwrap();
    for i in 1..=8u64 {
        let id = 100 + i * 10;
        primary.execute(&format!("INSERT INTO acct VALUES ({id}, 'tx{i}', {i}.5)")).unwrap();
        // rewrite both indexed columns, read the pre-statement state, delete by key
        primary.execute(&format!("UPDATE acct SET name = 'moved{i}' WHERE id = {id}")).unwrap();
        if i % 2 == 0 {
            primary.execute(&format!("UPDATE acct SET id = id + 1 WHERE id = {}", id - 10)).unwrap();
            primary
                .execute("UPDATE acct SET balance = (SELECT MAX(balance) FROM acct) WHERE id = 1")
                .unwrap();
        }
        if i % 3 == 0 {
            primary.execute(&format!("DELETE FROM acct WHERE id = {}", id - 19)).unwrap();
        }
        // fails after its first row: not applied, not logged, not shipped
        assert!(primary.execute("DELETE FROM acct WHERE id = 1 OR ghost = 1").is_err());
        assert_eq!(primary.commit().unwrap(), i);
        if i % 3 == 0 {
            ship_store(&path, &media).unwrap();
        }
    }
    ship_store(&path, &media).unwrap();

    let fpath = dir.join("follower.store");
    assert!(seed_if_missing(&fpath, &media).unwrap());
    let (mut f, _) = Follower::open(&fpath).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, 8);
    let (promoted, _) = f.promote().unwrap();
    assert_eq!(promoted.database().dump_script(), primary.database().dump_script());
    // the follower's indexes — carried by the seed, kept through every
    // apply — answer as the primary's and as a scan does
    let mut scanned = promoted.database().clone();
    for def in scanned.index_defs().to_vec() {
        scanned.install_unusable_index(def).unwrap();
    }
    for sql in [
        "SELECT * FROM acct WHERE id = 131",
        "SELECT * FROM acct WHERE id = 141",
        "SELECT * FROM acct WHERE name = 'moved5'",
        "SELECT id FROM acct WHERE id BETWEEN 100 AND 200",
        "SELECT id FROM acct WHERE name > 'moved3'",
    ] {
        let want = scanned.query(sql).unwrap().rows;
        assert_eq!(promoted.database().query(sql).unwrap().rows, want, "{sql}");
        assert_eq!(primary.database().query(sql).unwrap().rows, want, "{sql}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unshipped_primary_suffix_never_appears_on_a_follower() {
    let dir = tmpdir("suffix");
    let media = MemShipDir::new();
    let n = 8;
    let shipped = 5;
    // ship after every commit up to `shipped`, then commit 3 more
    // without shipping — those are committed but never acknowledged
    let path = dir.join("primary.store");
    let mut primary = run_primary(&path, &media, shipped, 1);
    for i in shipped + 1..=n {
        for stmt in txn_stmts(i) {
            primary.execute(&stmt).unwrap();
        }
        primary.commit().unwrap();
    }
    let states = reference_states(n);

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, shipped, "only the shipped prefix applies");
    assert_eq!(rows_of(f.store().database()), states[shipped as usize]);

    let (mut promoted, pr) = f.promote().unwrap();
    assert_eq!(pr.promoted_at_seq, shipped);
    assert_eq!(rows_of(promoted.database()), states[shipped as usize]);
    // the promoted primary's next commit takes seq 6 — its own history,
    // not the dead primary's unshipped txn 6
    promoted.execute("INSERT INTO acct VALUES (999, 'fork', 0.0)").unwrap();
    assert_eq!(promoted.commit().unwrap(), shipped + 1);
    assert_ne!(rows_of(promoted.database()), states[shipped as usize + 1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_advertised_segment_is_refused_at_every_cut() {
    let dir = tmpdir("torn-seg");
    let media = MemShipDir::new();
    let n = 3;
    run_primary(&dir.join("primary.store"), &media, n, n); // one segment
    let name = osql_repl::segment_name(1);
    let intact = media.read_segment(&name).unwrap();

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    let mut fault_points = 0u64;
    for cut in 0..intact.len() {
        media.publish_segment(&name, &intact[..cut]).unwrap();
        let err = f.poll(&media).unwrap_err();
        assert!(
            matches!(err, ReplError::Corrupt(_)),
            "cut at {cut}: a mangled advertised segment must be refused, got {err}"
        );
        assert_eq!(f.applied_seq(), 0, "cut at {cut}: nothing may apply from it");
        fault_points += 1;
    }
    // single-byte corruption at every offset is refused the same way
    for off in 0..intact.len() {
        let mut sick = intact.clone();
        sick[off] ^= 0xFF;
        media.publish_segment(&name, &sick).unwrap();
        let err = f.poll(&media).unwrap_err();
        assert!(matches!(err, ReplError::Corrupt(_)), "corrupt byte {off}: {err}");
        assert_eq!(f.applied_seq(), 0);
        fault_points += 1;
    }
    eprintln!("segment fault points exercised: {fault_points}");
    // the fault clears (re-ship heals the directory): follower converges
    media.publish_segment(&name, &intact).unwrap();
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, n);
    assert_eq!(rows_of(f.store().database()), reference_states(n)[n as usize]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_manifest_is_refused_at_every_byte() {
    let dir = tmpdir("bad-manifest");
    let media = MemShipDir::new();
    let n = 2;
    run_primary(&dir.join("primary.store"), &media, n, 1);
    let intact = media.read_manifest().unwrap().unwrap();

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    for off in 0..intact.len() {
        assert!(media.corrupt_manifest(off, 0xA5));
        let err = f.poll(&media).unwrap_err();
        assert!(matches!(err, ReplError::Corrupt(_)), "byte {off}: {err}");
        assert_eq!(f.applied_seq(), 0, "byte {off}: a bad advertisement applies nothing");
        assert!(media.corrupt_manifest(off, 0xA5), "undo the flip");
    }
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, n);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_advertising_a_missing_segment_is_refused() {
    let dir = tmpdir("missing-seg");
    let media = MemShipDir::new();
    let n = 4;
    run_primary(&dir.join("primary.store"), &media, n, 2); // two segments
    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    // the *first* needed segment vanishes: nothing can apply
    let first = osql_repl::segment_name(1);
    let bytes = media.read_segment(&first).unwrap();
    media.remove_segment(&first);
    let err = f.poll(&media).unwrap_err();
    assert!(matches!(err, ReplError::Corrupt(_)), "{err}");
    assert_eq!(f.applied_seq(), 0);
    // it returns: the follower catches up across both segments
    media.publish_segment(&first, &bytes).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, n);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash the follower's own WAL at every byte offset mid-apply: the
/// reopened replica must hold exactly some commit-boundary prefix
/// (never a torn transaction), and the next poll must converge to the
/// shipped target.
#[test]
fn follower_crash_mid_apply_at_every_byte_preserves_txn_atomicity() {
    let dir = tmpdir("crash-apply");
    let media = MemShipDir::new();
    let n = 6;
    run_primary(&dir.join("primary.store"), &media, n, 3);
    let states = reference_states(n);

    // materialize the follower base file once from the bootstrap blob
    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();

    // one clean full apply over fault-free media to get the WAL image
    let (mut f, _) = Follower::open_with(&fpath, FaultFile::new()).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, n);
    let full = f.into_store().into_media();
    let total = full.raw_len() as u64;
    assert!(total > 64, "apply WAL must exceed the 64-fault-point floor");

    let mut fault_points = 0u64;
    for cut in 0..=total {
        let mut crashed = full.clone();
        crashed.set_plan(FaultPlan { torn_tail: Some(cut), ..FaultPlan::default() });
        crashed.crash();
        let (mut f, report) =
            Follower::open_with(&fpath, crashed).expect("follower recovery must succeed");
        let k = f.applied_seq();
        assert!(k <= n, "cut at {cut}");
        assert_eq!(
            rows_of(f.store().database()),
            states[k as usize],
            "cut at {cut}: recovered state must sit exactly on commit boundary {k} \
             (replay committed {}, finding {:?})",
            report.replay.committed,
            report.replay.finding,
        );
        // resume: the next poll re-fetches and converges, re-applying
        // nothing at or below k
        let report = f.poll(&media).unwrap();
        assert_eq!(report.applied_seq, n, "cut at {cut}");
        assert_eq!(report.applied_txns, n - k, "cut at {cut}: only the missing suffix applies");
        assert_eq!(rows_of(f.store().database()), states[n as usize], "cut at {cut}");
        fault_points += 1;
    }
    eprintln!("mid-apply crash fault points exercised: {fault_points}");

    // The window batching opens: the crash lands *inside* a segment's
    // run, its trailing sync never reached, and the page cache has
    // written back some prefix of the run's bytes — every prefix, here.
    // What was synced before (the earlier segments) must survive, the
    // replica must sit on a commit boundary, and its watermark must be
    // exactly what it holds.
    let mut fault_points = 0u64;
    for seg in 0..2u64 {
        let (mut f, wire) = wired_follower(&fpath);
        wire.arm(Op::Sync, seg);
        let err = f.poll(&media).unwrap_err();
        assert!(matches!(err, ReplError::Store(_)), "segment {seg}: {err}");
        assert_eq!(f.applied_seq(), 3 * seg, "segment {seg}: an unsynced run is not applied");
        let mid_run = f.into_store().into_media().inner;
        let synced = mid_run.durable_len() as u64;
        let unsynced = mid_run.raw_len() as u64 - synced;
        assert!(unsynced > 0, "segment {seg}: its run was appended");
        for keep in 0..=unsynced {
            let mut crashed = mid_run.clone();
            crashed.set_plan(FaultPlan { keep_unsynced: Some(keep), ..FaultPlan::default() });
            crashed.crash();
            let (mut f, _) =
                Follower::open_with(&fpath, crashed).expect("follower recovery must succeed");
            let k = f.applied_seq();
            assert!(
                (3 * seg..=3 * seg + 3).contains(&k),
                "segment {seg}, {keep} unsynced bytes kept: recovered at {k}"
            );
            assert_eq!(k == 3 * seg + 3, keep == unsynced, "segment {seg}, keep {keep}");
            assert_eq!(
                rows_of(f.store().database()),
                states[k as usize],
                "segment {seg}, keep {keep}: recovered state must sit exactly on commit \
                 boundary {k}"
            );
            let report = f.poll(&media).unwrap();
            assert_eq!(report.applied_seq, n, "segment {seg}, keep {keep}");
            assert_eq!(report.applied_txns, n - k, "segment {seg}, keep {keep}");
            assert_eq!(rows_of(f.store().database()), states[n as usize]);
            fault_points += 1;
        }
    }
    eprintln!("mid-segment crash fault points exercised: {fault_points}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A follower whose apply round failed is ahead of its own log in
/// memory: it must refuse to poll on or to promote, and a reopen (which
/// rebuilds memory from the log) must converge. Every append (one per
/// transaction) and every sync (one per segment) of a six-segment apply
/// is failed once in turn. The statements are the ones a blind retry
/// corrupts: a relative UPDATE and an INSERT into a table without a key.
#[test]
fn a_follower_reused_after_a_failed_round_refuses_until_reopened() {
    let dir = tmpdir("reuse-after-failure");
    let media = MemShipDir::new();
    let path = dir.join("primary.store");
    let mut db = Database::new("ledger");
    db.execute_script("CREATE TABLE t (id INTEGER, v INTEGER); INSERT INTO t VALUES (0, 0);")
        .unwrap();
    let mut primary = Store::create(&path, db, vec![]).unwrap();
    let n = 12;
    for i in 1..=n {
        primary.execute("UPDATE t SET v = v + 1").unwrap();
        primary.execute(&format!("INSERT INTO t VALUES ({i}, 0)")).unwrap();
        assert_eq!(primary.commit().unwrap(), i);
        if i % 2 == 0 {
            ship_store(&path, &media).unwrap();
        }
    }
    let want = primary.database().dump_script();
    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();

    let mut fault_points = 0u64;
    for op in [Op::Append, Op::Sync] {
        for nth in 0.. {
            let (mut f, wire) = wired_follower(&fpath);
            wire.arm(op, nth);
            let Err(err) = f.poll(&media) else {
                break; // the apply has no `nth` such operation
            };
            assert!(matches!(err, ReplError::Store(_)), "{op:?} {nth}: {err}");
            let watermark = f.applied_seq();
            assert_eq!(watermark % 2, 0, "{op:?} {nth}: watermark {watermark} is mid-segment");
            // the fault has cleared, and the follower still refuses
            for _ in 0..2 {
                let err = f.poll(&media).unwrap_err();
                assert!(
                    matches!(err, ReplError::NeedsReopen { applied_seq } if applied_seq == watermark),
                    "{op:?} {nth}: a reused follower must refuse, got {err}"
                );
            }
            let err = f.promote().unwrap_err();
            assert!(matches!(err, ReplError::NeedsReopen { .. }), "{op:?} {nth}: {err}");

            // the same failure again, then the reopen the refusal asks for
            let (mut f, wire) = wired_follower(&fpath);
            wire.arm(op, nth);
            f.poll(&media).unwrap_err();
            let survivor = f.into_store().into_media().inner;
            let (mut f, _) = Follower::open_with(&fpath, survivor).unwrap();
            assert!(f.applied_seq() >= watermark, "{op:?} {nth}: reopen lost a synced segment");
            assert_eq!(f.poll(&media).unwrap().applied_seq, n, "{op:?} {nth}");
            assert_eq!(f.store().database().dump_script(), want, "{op:?} {nth}");
            let (promoted, _) = f.promote().unwrap();
            let (reopened, _) = Store::open_with(&fpath, promoted.into_media()).unwrap();
            assert_eq!(reopened.database().dump_script(), want, "{op:?} {nth}: log diverged");
            // promote folded the log into the shared base file: re-seed
            std::fs::remove_file(&fpath).unwrap();
            seed_if_missing(&fpath, &media).unwrap();
            fault_points += 1;
        }
    }
    assert!(fault_points >= 12 + 2, "every append and sync of the apply: {fault_points}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The follower's durability point is the segment: one sync per applied
/// segment however many transactions it carries, one at the manifest's
/// cut when that falls inside a segment — and a primary still pays one
/// per commit.
#[test]
fn a_poll_syncs_once_per_segment_and_a_primary_once_per_commit() {
    let dir = tmpdir("sync-count");
    let media = MemShipDir::new();
    let n = 6;
    run_primary(&dir.join("primary.store"), &media, n, 3); // two segments of three
    let full = read_manifest(&media).unwrap().unwrap();
    assert_eq!(full.segments.len(), 2);
    let advertise = |last_commit_seq: u64, segments: usize| {
        let m = Manifest { last_commit_seq, segments: full.segments[..segments].to_vec() };
        media.publish_manifest(&m.encode()).unwrap();
    };
    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();

    // s segments: s syncs
    let (mut f, wire) = wired_follower(&fpath);
    let opened = wire.syncs.get();
    let report = f.poll(&media).unwrap();
    assert_eq!((report.applied_txns, report.segments_read), (6, 2));
    assert_eq!(wire.syncs.get() - opened, 2);
    assert_eq!(f.poll(&media).unwrap().applied_txns, 0);
    assert_eq!(wire.syncs.get() - opened, 2, "an idle poll syncs nothing");

    // a manifest that stops inside the first segment: one sync, at the cut
    let (mut f, wire) = wired_follower(&fpath);
    let opened = wire.syncs.get();
    advertise(2, 1);
    let report = f.poll(&media).unwrap();
    assert_eq!((report.applied_seq, report.applied_txns), (2, 2));
    assert_eq!(wire.syncs.get() - opened, 1);
    // the rest of that segment (k = 1), then the whole next one (k = 3)
    advertise(3, 1);
    assert_eq!(f.poll(&media).unwrap().applied_txns, 1);
    assert_eq!(wire.syncs.get() - opened, 2);
    advertise(6, 2);
    let report = f.poll(&media).unwrap();
    assert_eq!((report.applied_seq, report.applied_txns), (6, 3));
    assert_eq!(wire.syncs.get() - opened, 3);
    let log = f.into_store().into_media().inner;
    assert_eq!(log.syncs(), wire.syncs.get(), "the wire counts what the FaultFile saw");
    assert_eq!(log.durable_len(), log.raw_len());

    // the run of one is the old contract: k commits, k syncs
    let (mut primary, _) = Store::open_with(&fpath, FaultFile::new()).unwrap();
    let opened = primary.media_mut().syncs();
    for i in 1..=n {
        for stmt in txn_stmts(i) {
            primary.execute(&stmt).unwrap();
        }
        assert_eq!(primary.commit().unwrap(), i);
        assert_eq!(primary.media_mut().syncs() - opened, i);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash between promotion's base publish and its WAL reset: the next
/// open must skip the already-folded commits (never double-apply), and
/// the follower's WAL cut at any byte changes nothing — the published
/// base owns the full applied prefix.
#[test]
fn crash_mid_promote_window_never_double_applies_at_any_cut() {
    let dir = tmpdir("crash-promote");
    let media = MemShipDir::new();
    let n = 5;
    run_primary(&dir.join("primary.store"), &media, n, 1);
    let states = reference_states(n);

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open_with(&fpath, FaultFile::new()).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, n);
    // first half of promote's checkpoint: publish the folded base,
    // crash before the WAL reset
    let store = f.into_store();
    write_database(&fpath, store.database(), store.blobs(), store.commit_seq()).unwrap();
    let media_after = store.into_media();

    let total = media_after.raw_len() as u64;
    for cut in 0..=total {
        let mut crashed = media_after.clone();
        crashed.set_plan(FaultPlan { torn_tail: Some(cut), ..FaultPlan::default() });
        crashed.crash();
        let (f, report) = Follower::open_with(&fpath, crashed).unwrap();
        assert_eq!(report.replay.committed, 0, "cut at {cut}: base owns everything");
        assert_eq!(rows_of(f.store().database()), states[n as usize], "cut at {cut}");
        assert_eq!(f.applied_seq(), n, "cut at {cut}: sequence continues from the base");
        // finishing the promotion still works
        let (mut promoted, pr) = f.promote().unwrap();
        assert_eq!(pr.promoted_at_seq, n);
        promoted.execute("INSERT INTO acct VALUES (999, 'after', 1.0)").unwrap();
        assert_eq!(promoted.commit().unwrap(), n + 1, "cut at {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An orphan segment from a crashed publish (never advertised by the
/// manifest) is invisible: the follower applies only up to the
/// manifest, and a re-ship that overwrites the orphan heals everything.
#[test]
fn orphan_segment_from_a_crashed_publish_is_invisible_until_advertised() {
    let dir = tmpdir("orphan");
    let media = MemShipDir::new();
    let n = 2;
    let path = dir.join("primary.store");
    let mut primary = run_primary(&path, &media, n, 1);
    // commit txn 3 and simulate the shipper crashing between segment
    // publish and manifest publish: publish the segment bytes only
    for stmt in txn_stmts(3) {
        primary.execute(&stmt).unwrap();
    }
    primary.commit().unwrap();
    let stmts = txn_stmts(3);
    let orphan = osql_repl::encode_segment(&[osql_store::ScannedTxn {
        seq: 3,
        stmts: stmts.iter().map(String::as_str).collect(),
        records: None,
    }]);
    media.publish_segment(&osql_repl::segment_name(3), &orphan).unwrap();

    let fpath = dir.join("follower.store");
    seed_if_missing(&fpath, &media).unwrap();
    let (mut f, _) = Follower::open(&fpath).unwrap();
    let report = f.poll(&media).unwrap();
    assert_eq!(report.applied_seq, 2, "the unadvertised orphan must not apply");
    assert_eq!(rows_of(f.store().database()), reference_states(3)[2]);
    // the shipper retries: manifest now advertises txn 3
    ship_store(&path, &media).unwrap();
    assert_eq!(f.poll(&media).unwrap().applied_seq, 3);
    assert_eq!(rows_of(f.store().database()), reference_states(3)[3]);
    std::fs::remove_dir_all(&dir).unwrap();
}
