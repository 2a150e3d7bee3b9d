//! SQL engine microbenchmarks: parsing, scans, hash joins, grouped
//! aggregation — the substrate every pipeline stage executes against.
//!
//! `sqlkit` has one executor, so the groups differ only in what each call
//! pays *before* it: `engine_exec/*` and `raw/*` bind and lower on every
//! call, `cold/*` also parses, `warm/*` runs a cached plan.

use criterion::{criterion_group, criterion_main, Criterion};
use datagen::{build::build_db, domain::themes, RowScale};
use sqlkit::parse_select;

fn db() -> datagen::BuiltDb {
    build_db(&themes()[0], "bench", "healthcare", RowScale::bird(), 0.55, 42)
}

fn bench_parse(c: &mut Criterion) {
    let sql = "SELECT COUNT(DISTINCT T1.PatientID) FROM Patient AS T1 \
               INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
               WHERE T2.IGA > 80 AND T2.IGA < 500 AND \
               STRFTIME('%Y', T1.`First Date`) >= '1990' \
               ORDER BY T1.Age DESC LIMIT 5";
    c.bench_function("parse_select", |b| {
        b.iter(|| std::hint::black_box(parse_select(sql).unwrap()))
    });
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

/// Prepared-vs-raw execution: `raw` is the engine's `query(sql)` path —
/// parse + bind + lower + run on every call, nothing cached; `cold` is the
/// same work spelled `prepare` + `execute`; and `warm` serves the plan
/// from a [`PlanCache`] so each call is pure execution.
fn bench_prepared(c: &mut Criterion) {
    let built = db();
    let mut group = c.benchmark_group("engine_prepared");
    group.sample_size(100);
    for (name, sql) in CASES {
        group.bench_function(format!("raw/{name}"), |b| {
            b.iter(|| std::hint::black_box(built.database.query(sql).unwrap()))
        });
        group.bench_function(format!("cold/{name}"), |b| {
            b.iter(|| {
                let plan = sqlkit::prepare(&built.database, sql).unwrap();
                std::hint::black_box(plan.execute(&built.database).unwrap())
            })
        });
        let cache = sqlkit::PlanCache::new(64);
        group.bench_function(format!("warm/{name}"), |b| {
            b.iter(|| std::hint::black_box(cache.execute(&built.database, sql).unwrap()))
        });
    }
    group.finish();

    // Plan-acquisition cost in isolation, and a plan-dominated query shape.
    // The refine → execute → correct loop, the vote tie-break, and eval's
    // gold executions all repeat the same statement, so on selective
    // queries the parse + bind cost matters as much as execution.
    let complex = "SELECT COUNT(DISTINCT T1.PatientID) FROM Patient AS T1 \
                   INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
                   WHERE T2.IGA > 80 AND T2.IGA < 500 AND \
                   STRFTIME('%Y', T1.`First Date`) >= '1990' \
                   ORDER BY T1.Age DESC LIMIT 5";
    let small = build_db(&themes()[0], "bench_small", "healthcare", RowScale::tiny(), 0.55, 42);
    let mut group = c.benchmark_group("engine_plan");
    group.sample_size(500);
    group.bench_function("prepare", |b| {
        b.iter(|| std::hint::black_box(sqlkit::prepare(&built.database, complex).unwrap()))
    });
    let cache = sqlkit::PlanCache::new(64);
    cache.execute(&built.database, complex).unwrap();
    group.bench_function("cache_hit", |b| {
        b.iter(|| std::hint::black_box(cache.prepared(&built.database, complex).unwrap()))
    });
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
/// `derived.ix_join_speedup` in BENCH_engine.json compares `ix_join`
/// against `engine_exec/hash_join`, the same join with no sarg to seed it.
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

/// Static analysis cost: what refinement pays per distinct statement on
/// top of executing it. `clean/*` analyzes the executable benchmark
/// statements and `parse_only` isolates the parse share of `analyze_sql`.
fn bench_analyze(c: &mut Criterion) {
    let built = db();
    let mut group = c.benchmark_group("engine_analyze");
    for (name, sql) in CASES {
        group.bench_function(format!("clean/{name}"), |b| {
            b.iter(|| std::hint::black_box(sqlkit::analyze_sql(&built.database.schema, sql)))
        });
    }
    group.bench_function("parse_only", |b| {
        b.iter(|| std::hint::black_box(parse_select(CASES[2].1).unwrap()))
    });
    group.finish();
}

/// Instrumentation overhead on the hottest path: warm plan-cache
/// execution with no active trace (`off/*` — the engine's volatile
/// events short-circuit on one thread-local read) versus with a trace
/// recording every execute (`on/*`). The acceptance bar is < 5%
/// overhead on `off` vs `on` for the warm prepared path; results are
/// recorded in BENCH_engine.json.
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

/// Durable-store paths: loading a database cold off its page file
/// (`cold_load`), re-serving it from a warm demand-paged catalog
/// (`warm_catalog_hit` — an `Arc` clone behind a mutex), and the
/// in-memory alternative of replaying the SQL dump (`script_replay`),
/// plus one write transaction over in-memory media (`wal/commit` — a keyed
/// UPDATE executed against the live database, its statement record, and a
/// commit record per iteration). Until UPDATE stopped copying the database
/// per statement, that copy was most of this number (106 µs, against
/// ~3 µs of log work); the statement's own cost is `engine_dml/*` below.
fn bench_store(c: &mut Criterion) {
    let built = db();
    let dir = std::env::temp_dir().join(format!("osql-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.store");
    datagen::export_db_store(&built, &path).unwrap();
    let script = built.database.dump_script();

    let mut group = c.benchmark_group("engine_store");
    group.sample_size(60);
    group.bench_function("cold_load", |b| {
        b.iter(|| std::hint::black_box(datagen::import_store(&path).unwrap()))
    });
    group.bench_function("script_replay", |b| {
        b.iter(|| {
            let mut fresh = sqlkit::Database::new("bench");
            fresh.execute_script(&script).unwrap();
            std::hint::black_box(fresh.total_rows())
        })
    });
    let catalog = datagen::open_store_catalog(&dir, u64::MAX, "bench-world").unwrap();
    catalog.get("bench").unwrap();
    group.bench_function("warm_catalog_hit", |b| {
        b.iter(|| std::hint::black_box(catalog.get("bench").unwrap()))
    });

    // In-memory media (FaultFile with no plan), so the number is parse +
    // execute + encode + append, not this machine's disk. The log is
    // reset every 4096 transactions to bound buffer growth.
    let wal_base = dir.join("wal.store");
    osql_store::write_database(&wal_base, &built.database, &[], 0).unwrap();
    let (mut store, _) =
        osql_store::Store::open_with(&wal_base, osql_store::FaultFile::new()).unwrap();
    let mut txn: u64 = 0;
    group.bench_function("wal/commit", |b| {
        b.iter(|| {
            txn += 1;
            if txn.is_multiple_of(4096) {
                store.checkpoint().unwrap();
            }
            store
                .execute(&format!("UPDATE Patient SET Age = {} WHERE PatientID = 1", txn % 90))
                .unwrap();
            std::hint::black_box(store.commit().unwrap())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One DML statement against a table of `n` rows, with and without a
/// declared index on the key, so that what a statement costs as the table
/// grows is visible as a slope: `insert` appends (and maintains the
/// resident index), `update_by_key` and `delete_by_key` find one row by
/// `id = k` (`delete_by_key` re-inserts it to hold the size, and a DELETE
/// drops the table's indexes, so its indexed form pays a rebuild),
/// `update_unkeyed` rewrites the ~1 % of rows with `grp = g`. Statements
/// are parsed ahead of the loop.
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
                        db.execute_delete(d).unwrap();
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
                    std::hint::black_box(db.execute_update(u).unwrap())
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
                    let removed = db.execute_delete(d).unwrap();
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
                    std::hint::black_box(db.execute_update(u).unwrap())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_exec,
    bench_prepared,
    bench_planner,
    bench_analyze,
    bench_trace,
    bench_store,
    bench_dml
);
criterion_main!(benches);
