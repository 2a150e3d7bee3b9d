//! Write-path gate: a keyed statement finds its row through the key index
//! a CREATE TABLE statement declares, and no statement costs that index.
//!
//! A seeded mix of 120 transactions of 32 statements (70 % INSERT, 20 %
//! UPDATE by key, 10 % DELETE by key) runs through `osql_store::Store` on
//! a temporary directory, on a table made by `CREATE TABLE … INTEGER
//! PRIMARY KEY`, shipped to a follower every 30 commits. It checks:
//!
//! - after every statement, the key index is resident (a lookup builds
//!   nothing, so it allocates nothing) and equals a rebuild over the rows:
//!   entries, distinct and table_rows;
//! - every keyed UPDATE and DELETE on a table of three rows or more (below
//!   that the cost model prefers a scan) plans an `IxScan`. Its row search is
//!   the one-table core `FROM events WHERE id = k`, lowered by the planner
//!   a SELECT uses (`db::tests::dml_row_search_is_planned` pins that), so
//!   the gate explains that core against the database the statement runs
//!   on;
//! - a reopened primary (WAL replay) and the follower (`ship_store` /
//!   `Follower::poll`) dump byte-identically to the primary, and their key
//!   indexes equal a rebuild too.

use osql_repl::{seed_if_missing, ship_store, Follower, FsShipDir};
use osql_store::Store;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlkit::{ColumnIndex, Database};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

const TXNS: usize = 120;
const STMTS_PER_TXN: usize = 32;
const SHIP_EVERY: usize = 30;
const DDL: &str = "CREATE TABLE events (id INTEGER PRIMARY KEY, kind TEXT, amount REAL, note TEXT)";

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the count is a thread-local `Cell`
// whose update allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down has no counter left
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osql-dml-upkeep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One statement of the mix, and the key it names when it is an UPDATE or
/// a DELETE. Keys are tracked, so every keyed statement names a live row.
fn statements(seed: u64) -> Vec<(String, Option<u64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 1u64;
    (0..TXNS * STMTS_PER_TXN)
        .map(|_| {
            let roll: f64 = rng.gen_range(0.0..1.0);
            if live.is_empty() || roll < 0.7 {
                let id = next_id;
                next_id += 1;
                live.push(id);
                let (kind, amount) = (rng.gen_range(0..8), rng.gen_range(0.0..1000.0));
                (format!("INSERT INTO events VALUES ({id}, 'kind{kind}', {amount:.2}, 'note {id}')"), None)
            } else if roll < 0.9 {
                let id = live[rng.gen_range(0..live.len())];
                let (amount, edit) = (rng.gen_range(0.0..1000.0), rng.gen_range(0..1000));
                (format!("UPDATE events SET amount = {amount:.2}, note = 'edit {edit}' WHERE id = {id}"), Some(id))
            } else {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                (format!("DELETE FROM events WHERE id = {id}"), Some(id))
            }
        })
        .collect()
}

/// The key index of `db` equals a build over its rows.
fn assert_key_index_exact(db: &Database, after: &str) {
    let ix = db
        .index("events", "id")
        .unwrap_or_else(|| panic!("no key index after {after}"));
    let rebuilt = ColumnIndex::build(db.rows("events").unwrap(), 0).expect("no NaN key");
    assert_eq!(ix.entries(), rebuilt.entries(), "entries after {after}");
    assert_eq!(ix.distinct(), rebuilt.distinct(), "distinct after {after}");
    assert_eq!(
        ix.table_rows(),
        rebuilt.table_rows(),
        "table_rows after {after}"
    );
}

#[test]
fn keyed_dml_keeps_the_key_index_exact_on_primary_replay_and_follower() {
    let dir = tmpdir("mix");
    let primary_path = dir.join("primary.store");
    let mut store = Store::create(&primary_path, Database::new("ingest"), Vec::new()).unwrap();
    store.execute(DDL).unwrap();
    // fold the DDL into the base, so the replica is seeded with the table
    store.checkpoint().unwrap();
    assert!(
        store.database().has_index("events", "id"),
        "CREATE TABLE indexes its key"
    );
    let media = FsShipDir::open(&dir.join("ship")).unwrap();
    ship_store(&primary_path, &media).unwrap();
    let replica_path = dir.join("replica.store");
    seed_if_missing(&replica_path, &media).unwrap();
    let (mut follower, _) = Follower::open(&replica_path).unwrap();
    follower.poll(&media).unwrap();

    let mix = statements(0x1D5E);
    let (mut keyed, mut deletes) = (0, 0);
    for (txn, statements) in mix.chunks(STMTS_PER_TXN).enumerate() {
        for (sql, key) in statements {
            // below three rows the cost model prefers a scan (log2 n + 1 ≥ n)
            let big_enough = store.database().rows("events").unwrap().len() >= 3;
            if let Some(id) = key.filter(|_| big_enough) {
                let core = format!("SELECT * FROM events WHERE id = {id}");
                let plan = sqlkit::explain(store.database(), &core).unwrap();
                assert!(
                    plan.contains(&format!("IxScan events (id = {id})")),
                    "{sql} plans\n{plan}"
                );
                keyed += 1;
                deletes += usize::from(sql.starts_with("DELETE"));
            }
            store.execute(sql).unwrap();
            let db = store.database();
            let before = ALLOCATIONS.with(Cell::get);
            let ix = db.index("events", "id");
            assert_eq!(
                ALLOCATIONS.with(Cell::get) - before,
                0,
                "the key index was rebuilt after {sql}"
            );
            drop(ix);
            assert_key_index_exact(db, sql);
        }
        store.commit().unwrap();
        if (txn + 1) % SHIP_EVERY == 0 {
            ship_store(&primary_path, &media).unwrap();
            let report = follower.poll(&media).unwrap();
            assert_eq!(report.applied_seq, report.target_seq);
        }
    }
    assert!(
        keyed > 1_000 && deletes > 300,
        "the mix is keyed: {keyed} keyed, {deletes} deletes"
    );

    let dump = store.database().dump_script();
    let (reopened, _) = Store::open(&primary_path).unwrap();
    assert_eq!(reopened.commit_seq(), store.commit_seq());
    assert!(
        reopened.database().dump_script() == dump,
        "WAL replay differs from the primary"
    );
    assert_key_index_exact(reopened.database(), "WAL replay");
    assert_eq!(follower.applied_seq(), store.commit_seq());
    assert!(
        follower.store().database().dump_script() == dump,
        "the follower differs from the primary"
    );
    assert_key_index_exact(follower.store().database(), "the follower's apply");
    drop((store, reopened, follower));
    std::fs::remove_dir_all(&dir).unwrap();
}
