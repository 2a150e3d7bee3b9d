//! SQL engine microbenchmarks: scans, hash joins, grouped aggregation —
//! the substrate every pipeline stage executes against. What a
//! `BENCHMARK.json` layer metric already measures (parse, prepare,
//! plan-cache hit, analysis, store load and commit) is `perfbench`'s, not
//! a group here.
//!
//! `sqlkit` has one executor, so the groups differ only in what each call
//! pays *before* it: `engine_exec/*` and `selective/raw` bind and lower on
//! every call, the rest run a cached plan.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::{build::build_db, domain::themes, RowScale};
use sqlkit::parse_select;

fn db() -> datagen::BuiltDb {
    build_db(&themes()[0], "bench", "healthcare", RowScale::bird(), 0.55, 42)
}

const CASES: [(&str, &str); 5] = [
    ("scan_filter", "SELECT Name FROM Patient WHERE Age > 40"),
    (
        "hash_join",
        "SELECT T1.Name, T2.IGA FROM Patient AS T1 \
         INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID",
    ),
    (
        "three_way_join_agg",
        "SELECT COUNT(DISTINCT T1.PatientID) FROM Patient AS T1 \
         INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
         INNER JOIN Treatment AS T3 ON T1.PatientID = T3.PatientID \
         WHERE T2.IGA > 100 AND T3.Cost > 50",
    ),
    (
        "group_order_limit",
        "SELECT City, COUNT(*) AS n FROM Patient GROUP BY City \
         ORDER BY n DESC LIMIT 3",
    ),
    ("subquery", "SELECT Name FROM Patient WHERE Age = (SELECT MAX(Age) FROM Patient)"),
];

/// A pre-parsed statement through `query_stmt`: bind + lower + run per call.
fn bench_exec(c: &mut Criterion) {
    let built = db();
    let cases = CASES;
    let mut group = c.benchmark_group("engine_exec");
    for (name, sql) in cases {
        let stmt = parse_select(sql).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(built.database.query_stmt(&stmt).unwrap()))
        });
    }
    group.finish();
}

/// A plan-dominated query shape. The refine → execute → correct loop, the
/// vote tie-break, and eval's gold executions all repeat the same
/// statement, so on selective queries the parse + bind cost matters as
/// much as execution: `raw` is the engine's `query(sql)` path — parse +
/// bind + lower + run on every call — and `warm` serves the plan from a
/// [`sqlkit::PlanCache`] so each call is pure execution.
fn bench_plan(c: &mut Criterion) {
    let complex = "SELECT COUNT(DISTINCT T1.PatientID) FROM Patient AS T1 \
                   INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
                   WHERE T2.IGA > 80 AND T2.IGA < 500 AND \
                   STRFTIME('%Y', T1.`First Date`) >= '1990' \
                   ORDER BY T1.Age DESC LIMIT 5";
    let small = build_db(&themes()[0], "bench_small", "healthcare", RowScale::tiny(), 0.55, 42);
    let mut group = c.benchmark_group("engine_plan");
    group.sample_size(500);
    group.bench_function("selective/raw", |b| {
        b.iter(|| std::hint::black_box(small.database.query(complex).unwrap()))
    });
    let cache = sqlkit::PlanCache::new(64);
    group.bench_function("selective/warm", |b| {
        b.iter(|| std::hint::black_box(cache.execute(&small.database, complex).unwrap()))
    });
    group.finish();
}

/// Cost-based planner payoffs: selective statements served by the
/// pipelined executor over secondary indexes, measured on a warm plan
/// cache so the numbers isolate execution. `point_lookup` is an IxScan
/// on the Patient PK, `ix_join` an IxScan driving an IxJoin probe into
/// Laboratory's FK index, and `full_scan_fallback` a shape with no
/// usable index (the planner must not make unindexed scans slower).
/// Compare `ix_join` against `engine_exec/hash_join`, the same join with
/// no sarg to seed it (4.07 µs against 111 µs when the planner landed).
fn bench_planner(c: &mut Criterion) {
    let built = db();
    let planner_cases = [
        ("point_lookup", "SELECT Name FROM Patient WHERE PatientID = 42"),
        (
            "ix_join",
            "SELECT T1.Name, T2.IGA FROM Patient AS T1 \
             INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
             WHERE T1.PatientID = 42",
        ),
        ("full_scan_fallback", "SELECT Name FROM Patient WHERE Age > 40"),
    ];
    let mut group = c.benchmark_group("engine_planner");
    group.sample_size(200);
    for (name, sql) in planner_cases {
        let cache = sqlkit::PlanCache::new(64);
        cache.execute(&built.database, sql).unwrap();
        if name != "full_scan_fallback" {
            assert!(cache.stats().ix_scans >= 1, "{name} must run on indexes");
        }
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(cache.execute(&built.database, sql).unwrap()))
        });
    }
    group.finish();
}

/// Instrumentation overhead on the hottest path: warm plan-cache
/// execution with no active trace (`off/*` — the engine's volatile
/// events short-circuit on one thread-local read) versus with a trace
/// recording every execute (`on/*`). The acceptance bar is < 5%
/// overhead on `off` vs `on` for the warm prepared path
/// (`examples/trace_overhead.rs` interleaves the two and takes medians).
fn bench_trace(c: &mut Criterion) {
    let built = db();
    let mut group = c.benchmark_group("engine_trace");
    group.sample_size(2000);
    for (name, sql) in [CASES[0], CASES[1]] {
        let cache = sqlkit::PlanCache::new(64);
        cache.execute(&built.database, sql).unwrap();
        group.bench_function(format!("off/{name}"), |b| {
            b.iter(|| std::hint::black_box(cache.execute(&built.database, sql).unwrap()))
        });
        osql_trace::active::push();
        let mut calls: u32 = 0;
        group.bench_function(format!("on/{name}"), |b| {
            b.iter(|| {
                // Bound trace growth: rotate to a fresh trace every 4096
                // recorded executes (a trace-stack pop + push, ~two TLS ops).
                calls += 1;
                if calls.is_multiple_of(4096) {
                    let _ = osql_trace::active::pop();
                    osql_trace::active::push();
                }
                std::hint::black_box(cache.execute(&built.database, sql).unwrap())
            })
        });
        let _ = osql_trace::active::pop();
    }
    group.finish();
}

/// Bringing one bird-scale database into memory by replaying its SQL dump —
/// the in-memory alternative to the page-file load `perfbench` measures as
/// `store.cold_load_ms`.
fn bench_store(c: &mut Criterion) {
    let script = db().database.dump_script();
    let mut group = c.benchmark_group("engine_store");
    group.sample_size(60);
    group.bench_function("script_replay", |b| {
        b.iter(|| {
            let mut fresh = sqlkit::Database::new("bench");
            fresh.execute_script(&script).unwrap();
            std::hint::black_box(fresh.total_rows())
        })
    });
    group.finish();
}

/// One DML statement against a table of `n` rows, with and without a
/// declared index on the key, so that what a statement costs as the table
/// grows is visible as a slope: `insert` appends (and maintains the
/// resident index), `update_by_key` and `delete_by_key` find one row by
/// `id = k` (`delete_by_key` re-inserts it to hold the size; a DELETE keeps
/// the table's resident indexes exact), `update_unkeyed` rewrites the ~1 %
/// of rows with `grp = g`. Statements are parsed ahead of the loop; an
/// UPDATE or DELETE takes its statement, so each iteration hands it a
/// clone, as a script's own statement would be.
fn bench_dml(c: &mut Criterion) {
    use sqlkit::{parse_statement, Database, Stmt, Value};
    const RING: usize = 256;
    let mut group = c.benchmark_group("engine_dml");
    for n in [1_000i64, 10_000] {
        for indexed in [false, true] {
            let table = || {
                let mut db = Database::new("dml");
                db.execute_script(
                    "CREATE TABLE ev (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER, note TEXT)",
                )
                .unwrap();
                for i in 0..n {
                    let row = vec![Value::Int(i), Value::Int(i % 100), Value::Int(0), Value::text("n")];
                    db.insert_row("ev", row).unwrap();
                }
                if indexed {
                    db.ensure_default_indexes();
                    assert!(db.index("ev", "id").is_some());
                }
                db
            };
            let ring = |sql: &dyn Fn(i64) -> String| -> Vec<Stmt> {
                (0..RING as i64).map(|i| parse_statement(&sql(i * n / RING as i64)).unwrap()).collect()
            };
            let tag = format!("{n}/{}", if indexed { "indexed" } else { "unindexed" });

            let mut db = table();
            let trim = parse_statement(&format!("DELETE FROM ev WHERE id >= {n}")).unwrap();
            let mut i = 0i64;
            group.bench_function(format!("dml/insert/{tag}"), |b| {
                b.iter(|| {
                    i += 1;
                    if i % 1024 == 0 {
                        let Stmt::Delete(d) = &trim else { unreachable!() };
                        db.execute_delete(d.clone()).unwrap();
                    }
                    let row = vec![Value::Int(n + i), Value::Int(i % 100), Value::Int(0), Value::text("n")];
                    db.insert_row("ev", row).unwrap()
                })
            });

            let mut db = table();
            let stmts = ring(&|k| format!("UPDATE ev SET v = v + 1 WHERE id = {k}"));
            let mut i = 0usize;
            group.bench_function(format!("dml/update_by_key/{tag}"), |b| {
                b.iter(|| {
                    i += 1;
                    let Stmt::Update(u) = &stmts[i % RING] else { unreachable!() };
                    std::hint::black_box(db.execute_update(u.clone()).unwrap())
                })
            });

            let mut db = table();
            let stmts = ring(&|k| format!("DELETE FROM ev WHERE id = {k}"));
            let mut i = 0usize;
            group.bench_function(format!("dml/delete_by_key/{tag}"), |b| {
                b.iter(|| {
                    i += 1;
                    let k = (i % RING) as i64 * n / RING as i64;
                    let Stmt::Delete(d) = &stmts[i % RING] else { unreachable!() };
                    let removed = db.execute_delete(d.clone()).unwrap();
                    let row = vec![Value::Int(k), Value::Int(k % 100), Value::Int(0), Value::text("n")];
                    db.insert_row("ev", row).unwrap();
                    std::hint::black_box(removed)
                })
            });

            let mut db = table();
            let stmts = ring(&|k| format!("UPDATE ev SET v = v + 1 WHERE grp = {}", k % 100));
            let mut i = 0usize;
            group.bench_function(format!("dml/update_unkeyed/{tag}"), |b| {
                b.iter(|| {
                    i += 1;
                    let Stmt::Update(u) = &stmts[i % RING] else { unreachable!() };
                    std::hint::black_box(db.execute_update(u.clone()).unwrap())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exec,
    bench_plan,
    bench_planner,
    bench_trace,
    bench_store,
    bench_dml
);
criterion_main!(benches);
