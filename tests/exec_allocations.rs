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
//! The answer census counts what `Pipeline::answer` allocates for each of
//! the first 100 dev questions of `bird_mini_dev` (`PipelineConfig::full()`,
//! gpt-4o at the benchmark's model seed, after one warm pass), under a
//! trace the census pushes and pops the way the runtime's worker does. It
//! splits the count three ways: inside the model's `complete` (through a
//! counting [`LanguageModel`] wrapper), inside `active::pop`, and the rest
//! of the pipeline's own work, and gates the pipeline's own mean and the
//! pop's. Beside it, the front end's census of binds that file findings:
//! every distinct candidate text of those answers that parses and binds
//! with at least one diagnostic, bound again on its own.
//!
//! Run it with `cargo test -q --test exec_allocations -- --nocapture` to
//! see the tables.

use datagen::{generate, Profile};
use llmsim::{ChatRequest, ChatResponse, LanguageModel, ModelProfile, Oracle, SimLlm};
use opensearch_sql::{Pipeline, PipelineConfig, Preprocessed};
use osql_trace::active;
use std::collections::HashSet;
use std::sync::Arc;
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
    /// What this thread allocated inside [`CountedModel::complete`].
    static IN_MODEL: Cell<u64> = const { Cell::new(0) };
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

/// The model, with what its calls allocate set aside in [`IN_MODEL`].
struct CountedModel(SimLlm);

impl LanguageModel for CountedModel {
    fn complete(&self, req: &ChatRequest) -> ChatResponse {
        let (n, resp) = counted(|| self.0.complete(req));
        IN_MODEL.with(|m| m.set(m.get() + n));
        resp
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The parent's readings of the answer census (1863387, release build):
/// allocations an answer inside the model, inside `active::pop`, and the
/// rest of the pipeline; and a bind that files findings. There, every
/// label value was an owned `String`, each shared unit of refinement was
/// recorded into a nested trace of its own and copied again into every
/// candidate that reused it, `pop` copied every event's labels once more,
/// and the did-you-mean distance collected a `Vec` per row.
const PARENT_MODEL: f64 = 3298.1;
const PARENT_POP: f64 = 441.8;
const PARENT_REST: f64 = 2649.2;
const PARENT_FINDINGS_BIND: f64 = 408.8;

/// Mean allocations the pipeline's own work (all but the model's) may
/// make an answer: 1,450.4 when labels were written once into one text
/// arena, shared work replayed by reference, `pop` moved the arenas and
/// the did-you-mean distance ran on the stack, plus 5 %.
const OWN_BUDGET: f64 = 1523.0;
/// Mean allocations `active::pop` may make an answer: it moves the trace.
const POP_BUDGET: f64 = 10.0;
/// Mean allocations a bind that files findings may make: 80.0, plus 5 %.
const FINDINGS_BIND_BUDGET: f64 = 84.0;

#[test]
fn a_cold_answer_allocates_within_its_budget() {
    const QUESTIONS: usize = 100;
    let bench = Arc::new(generate(&Profile::bird_mini_dev()));
    let oracle = Arc::new(Oracle::new(bench.clone()));
    let llm = CountedModel(SimLlm::new(oracle, ModelProfile::gpt_4o(), 0xCAFE));
    let pre = Arc::new(Preprocessed::run(bench.clone(), &llm));
    let pipeline = Pipeline::new(pre.clone(), Arc::new(llm), PipelineConfig::full());
    let questions = &bench.dev[..QUESTIONS];
    let answer = |ex: &datagen::Example| {
        active::push();
        let (all, run) = counted(|| pipeline.answer(&ex.db_id, &ex.question, &ex.evidence));
        let (pop, trace) = counted(active::pop);
        assert!(trace.is_some_and(|t| !t.is_empty()), "the pushed trace holds the answer");
        (all, pop, run)
    };
    // the warm pass: each question's misreading is drawn on first ask
    for ex in questions {
        answer(ex);
    }
    IN_MODEL.with(|m| m.set(0));
    let (mut all, mut pop) = (0u64, 0u64);
    let mut texts: Vec<(String, String)> = Vec::new();
    let mut seen = HashSet::new();
    for ex in questions {
        let (n, p, run) = answer(ex);
        all += n;
        pop += p;
        for c in &run.candidates {
            for sql in [&c.raw_sql, &c.sql] {
                if seen.insert((ex.db_id.clone(), sql.clone())) {
                    texts.push((ex.db_id.clone(), sql.clone()));
                }
            }
        }
    }
    let model = IN_MODEL.with(Cell::get);
    let per = |n: u64| n as f64 / QUESTIONS as f64;
    let (model, pop, rest) = (per(model), per(pop), per(all - model));
    let own = pop + rest;

    let mut binds = Tally::default();
    for (db_id, sql) in &texts {
        let Ok(stmt) = sqlkit::parse_select(sql) else { continue };
        let schema = &pre.db(db_id).expect("a known database").database.schema;
        let (n, (_, analysis)) = counted(|| sqlkit::bind(schema, &stmt));
        if !analysis.diagnostics.is_empty() {
            binds.add(0, 0, 0, n);
        }
    }
    let findings_bind = binds.mean(binds.front);

    println!("allocations an answer, {QUESTIONS} bird_mini_dev dev questions (parent 1863387 in brackets)");
    println!("  inside the model        {model:>8.1}  ({PARENT_MODEL:.1})");
    println!("  inside active::pop      {pop:>8.1}  ({PARENT_POP:.1})");
    println!("  rest of the pipeline    {rest:>8.1}  ({PARENT_REST:.1})");
    println!("  pipeline's own          {own:>8.1}  ({:.1})", PARENT_POP + PARENT_REST);
    println!(
        "allocations a front-end bind that files findings ({} distinct candidate texts): {findings_bind:.1}  ({PARENT_FINDINGS_BIND:.1})",
        binds.statements
    );
    assert!(binds.statements > 0, "the answers' candidates include texts with findings");
    assert!(own <= OWN_BUDGET, "the pipeline allocates {own:.1} times an answer, budget {OWN_BUDGET}");
    assert!(pop <= POP_BUDGET, "active::pop allocates {pop:.1} times an answer, budget {POP_BUDGET}");
    assert!(
        findings_bind <= FINDINGS_BIND_BUDGET,
        "a bind with findings allocates {findings_bind:.1} times, budget {FINDINGS_BIND_BUDGET}"
    );
}

/// A captured unit of work is replayed by reference: the only allocations
/// a thousand replays make are the trace's record vector doubling.
#[test]
fn a_replay_copies_nothing() {
    const REPLAYS: u32 = 1000;
    active::push();
    let ((), work) = active::capture(|| {
        active::event_timed("align_hop", &[("hop", &"agent"), ("changed", &true)], &[("ms", 0.5)]);
        active::event_volatile("exec", &[], &[("execute_ms", 0.1), ("rows_scanned", 7.0)]);
    });
    let span = active::start("candidate");
    let (allocations, ()) = counted(|| {
        for i in 0..REPLAYS {
            active::replay(&work, i % 2 == 0);
        }
    });
    active::end(span);
    let trace = active::pop().expect("the test pushed a trace");
    assert_eq!(trace.events_named("align_hop").count(), REPLAYS as usize);
    assert!(trace.events_named("align_hop").all(|e| e.label("hop") == Some("agent")));
    let doublings = u64::from((REPLAYS * 2).ilog2() + 1);
    assert!(
        allocations <= doublings,
        "{REPLAYS} replays allocated {allocations} times; the record vector doubles at most {doublings} times"
    );
}
