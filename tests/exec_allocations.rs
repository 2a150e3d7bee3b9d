//! Allocation census of the SQL engine on the gold admission path and on
//! the write path.
//!
//! A counting global allocator, counted per thread, attributes every heap
//! allocation to the phase that made it: parsing a gold statement, binding
//! and lowering it (`prepare_stmt`), and running it (`execute_with_stats`).
//! Beside them it counts the front end: what the refinement beam does to a
//! distinct text once it has parsed it, which is to bind a copy, keep the
//! analysis (`sqlkit::bind`) and lower the bound statement on a plan-cache
//! miss (`Bound::lower`). Over the 2,000 train + dev gold statements of
//! `bird_mini_dev` the test prints the mean a statement per phase and per
//! statement shape, the statements that allocate most to run, and what
//! `datagen::generate` allocates in total, then gates the means of the run
//! phase and of the front end.
//!
//! The write census counts what one INSERT, UPDATE by key and DELETE by key
//! costs from text to applied row through `Database::execute_script` — the
//! call a primary's `Store::execute`, a follower's apply and WAL replay make
//! per statement — on a 1,000-row keyed table, split into parsing and
//! applying, and gates each kind's mean.
//!
//! Run it with `cargo test -q --test exec_allocations -- --nocapture` to
//! see the tables.

use datagen::{generate, Profile};
use sqlkit::ast::{SelectCore, SelectItem, SelectStmt};
use sqlkit::Expr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

/// Mean allocations a gold statement may make to run. On 5665179, whose
/// executor cloned every tuple it passed on, this census read 615.
const RUN_BUDGET: f64 = 120.0;

/// Mean allocations the front end may make of a gold statement it has
/// parsed: bind a copy with its analysis, then lower it. On 3b37f3b, which
/// analysed the statement with a walk of its own, copied it and bound and
/// lowered the copy, this path read 31.9 + 19.6 + 54.9 = 106.4 (release
/// build, 5 passes over the 2,000 statements); binding alone was 27.3 of
/// the 54.9. One walk that binds and files the findings, with no vectors
/// collected per call, no outer layouts copied for a sub-select and no
/// GROUP BY rebuilt for alias substitution, reads 73.5 (of which the copy
/// is still 19.6).
const FRONT_BUDGET: f64 = 80.0;

/// Mean allocations one write statement may make from text to applied
/// row, by kind. On 0867837, whose tokens owned their text and whose
/// UPDATE/DELETE cloned the statement and built the table's layout twice,
/// this census read 18, 58 and 47.
const WRITE_BUDGETS: [(&str, f64); 3] = [("INSERT", 10.0), ("UPDATE by key", 35.0), ("DELETE by key", 28.0)];

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

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

/// Allocations this thread makes while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The census's statement shapes, in the order a statement is assigned
/// to the first that fits.
const SHAPES: [&str; 5] = ["GROUP BY", "aggregate", "ORDER BY", "joins", "single table"];

fn has_aggregate(core: &SelectCore) -> bool {
    let mut found = false;
    for item in &core.items {
        if let SelectItem::Expr { expr, .. } = item {
            expr.walk(&mut |node| {
                if let Expr::Function { name, args, .. } = node {
                    found |= sqlkit::functions::is_aggregate_name(name, args.len());
                }
            });
        }
    }
    found
}

fn shape(stmt: &SelectStmt) -> usize {
    let core = &stmt.core;
    if !core.group_by.is_empty() {
        0
    } else if has_aggregate(core) {
        1
    } else if !stmt.order_by.is_empty() {
        2
    } else if core.from.as_ref().is_some_and(|f| !f.joins.is_empty()) {
        3
    } else {
        4
    }
}

#[derive(Default, Clone, Copy)]
struct Tally {
    statements: u64,
    parse: u64,
    prepare: u64,
    run: u64,
    front: u64,
}

impl Tally {
    fn add(&mut self, parse: u64, prepare: u64, run: u64, front: u64) {
        self.statements += 1;
        self.parse += parse;
        self.prepare += prepare;
        self.run += run;
        self.front += front;
    }

    fn mean(&self, total: u64) -> f64 {
        total as f64 / self.statements.max(1) as f64
    }

    fn row(&self, name: &str) -> String {
        format!(
            "{name:<14} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            self.statements,
            self.mean(self.parse),
            self.mean(self.prepare),
            self.mean(self.run),
            self.mean(self.front)
        )
    }
}

#[test]
fn gold_statements_allocate_within_the_run_budget() {
    let profile = Profile::bird_mini_dev();
    let (generate_allocations, bench) = counted(|| generate(&profile));
    let mut all = Tally::default();
    let mut shapes = [Tally::default(); SHAPES.len()];
    let mut heaviest: Vec<(u64, String)> = Vec::new();
    for ex in bench.train.iter().chain(&bench.dev) {
        let db = &bench
            .db(&ex.db_id)
            .expect("gold names a generated database")
            .database;
        let (parse, stmt) = counted(|| sqlkit::parse_select(&ex.gold_sql));
        let stmt = stmt.expect("gold SQL parses");
        let kind = shape(&stmt);
        let (front, lowered) = counted(|| {
            let (bound, analysis) = sqlkit::bind(&db.schema, &stmt);
            assert!(analysis.is_clean(), "gold SQL analyses clean: {}", ex.gold_sql);
            bound.lower(db)
        });
        drop(lowered);
        let (prepare, prepared) = counted(|| sqlkit::prepare_stmt(db, stmt));
        let (run, result) = counted(|| prepared.execute_with_stats(db));
        assert!(result.is_ok(), "gold SQL runs: {}", ex.gold_sql);
        drop(result);
        all.add(parse, prepare, run, front);
        shapes[kind].add(parse, prepare, run, front);
        heaviest.push((run, ex.gold_sql.clone()));
    }
    heaviest.sort_by_key(|h| std::cmp::Reverse(h.0));
    println!("allocations a gold statement, bird_mini_dev train + dev");
    println!(
        "{:<14} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "shape", "stmts", "parse", "prepare", "run", "front"
    );
    for (name, tally) in SHAPES.iter().zip(&shapes) {
        println!("{}", tally.row(name));
    }
    println!("{}", all.row("all"));
    println!("datagen::generate(bird_mini_dev): {generate_allocations} allocations");
    println!("most allocations to run:");
    for (n, sql) in heaviest.iter().take(8) {
        println!("{n:>8}  {sql}");
    }
    assert_eq!(
        all.statements, 2000,
        "the census covers every train and dev gold statement"
    );
    let run = all.mean(all.run);
    assert!(
        run <= RUN_BUDGET,
        "a gold statement allocates {run:.1} times to run, budget {RUN_BUDGET}"
    );
    let front = all.mean(all.front);
    assert!(
        front <= FRONT_BUDGET,
        "the front end allocates {front:.1} times a parsed gold statement, budget {FRONT_BUDGET}"
    );
}

/// The write workload's table, seeded with `rows` rows.
fn keyed_table(rows: u64) -> sqlkit::Database {
    let mut db = sqlkit::Database::new("writes");
    let mut script =
        "CREATE TABLE bench_events (id INTEGER PRIMARY KEY, kind TEXT, amount REAL, note TEXT);".to_owned();
    for id in 1..=rows {
        let _ = write!(script, "INSERT INTO bench_events VALUES ({id}, 'kind{}', {}.25, 'note {id}');", id % 8, id % 997);
    }
    db.execute_script(&script).expect("the seed script runs");
    db
}

#[test]
fn write_statements_allocate_within_their_budgets() {
    const ROWS: u64 = 1000;
    const EACH: u64 = 200;
    let mut db = keyed_table(ROWS);
    // the key index is built on first use; the census counts the steady state
    db.execute_script("UPDATE bench_events SET amount = 0.5 WHERE id = 1").unwrap();
    assert!(db.index("bench_events", "id").is_some(), "the key is indexed");
    let mut kinds = [Tally::default(); WRITE_BUDGETS.len()];
    for i in 0..EACH {
        let texts = [
            format!("INSERT INTO bench_events VALUES ({}, 'kind{}', {}.75, 'note {i}')", ROWS + 1 + i, i % 8, i),
            format!("UPDATE bench_events SET amount = {}.50, note = 'edit {i}' WHERE id = {}", i % 991, 1 + i * 7 % ROWS),
            format!("DELETE FROM bench_events WHERE id = {}", 2 + i * 3),
        ];
        for (kind, sql) in texts.iter().enumerate() {
            let (parse, stmts) = counted(|| sqlkit::parse_script(sql));
            drop(stmts.expect("a write statement parses"));
            let (total, applied) = counted(|| db.execute_script(sql));
            applied.unwrap_or_else(|e| panic!("{sql}: {e}"));
            kinds[kind].add(parse, 0, total - parse, 0);
        }
    }
    assert_eq!(
        db.rows("bench_events").unwrap().len() as u64,
        ROWS,
        "every INSERT added a row and every DELETE removed one"
    );
    println!("allocations a write statement through Database::execute_script, {ROWS}-row keyed table");
    println!("{:<14} {:>6} {:>9} {:>9} {:>9}", "kind", "stmts", "parse", "apply", "total");
    for ((name, _), tally) in WRITE_BUDGETS.iter().zip(&kinds) {
        let (parse, apply) = (tally.mean(tally.parse), tally.mean(tally.run));
        println!("{name:<14} {:>6} {parse:>9.1} {apply:>9.1} {:>9.1}", tally.statements, parse + apply);
    }
    for ((name, budget), tally) in WRITE_BUDGETS.iter().zip(&kinds) {
        let total = tally.mean(tally.parse + tally.run);
        assert!(total <= *budget, "{name} allocates {total:.1} times from text to row, budget {budget}");
    }
}
