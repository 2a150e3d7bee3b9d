//! Property-based tests on the SQL substrate: printer/parser round-trips,
//! executor invariants, and SQLite-semantics conformance, driven by the
//! benchmark generator's own query specs (which exercise exactly the SQL
//! surface the pipeline produces).

use datagen::generator::{sample_spec, Witnesses};
use datagen::{build::build_db, domain::themes, Difficulty, RowScale};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlkit::{parse_select, print_select, Value};

fn built_db(theme_idx: usize, seed: u64) -> datagen::BuiltDb {
    let lib = themes();
    build_db(
        &lib[theme_idx % lib.len()],
        "prop",
        "prop",
        RowScale::tiny(),
        0.5,
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every spec the generator can produce renders to SQL that parses,
    /// round-trips through the printer, and executes.
    #[test]
    fn spec_sql_roundtrips_and_executes(theme in 0usize..24, seed in 0u64..500) {
        let db = built_db(theme, seed / 7 + 1);
        let mut witnesses = Witnesses::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for difficulty in Difficulty::all() {
            if let Some((_, sql)) = sample_spec(&db, &mut witnesses, difficulty, &mut rng) {
                let ast = parse_select(&sql).expect("generated SQL parses");
                prop_assert_eq!(&print_select(&ast), &sql, "printer is a fixpoint");
                let reparsed = parse_select(&print_select(&ast)).unwrap();
                prop_assert_eq!(&reparsed, &ast);
                db.database.query(&sql).expect("generated SQL executes");
            }
        }
    }

    /// LIMIT k never yields more than k rows; DISTINCT never yields
    /// duplicate rows (under the scorer's normalisation).
    #[test]
    fn limit_and_distinct_invariants(theme in 0usize..24, seed in 0u64..300, k in 1i64..6) {
        let db = built_db(theme, seed / 5 + 2);
        let table = &db.tables[0].name;
        let col = &db.tables[0].cols[1].name;
        let limited = db
            .database
            .query(&format!("SELECT {} FROM {} LIMIT {}", sqlkit::printer::ident(col), table, k))
            .unwrap();
        prop_assert!(limited.rows.len() <= k as usize);

        let distinct = db
            .database
            .query(&format!("SELECT DISTINCT {} FROM {}", sqlkit::printer::ident(col), table))
            .unwrap();
        let mut keys: Vec<_> = distinct
            .rows
            .iter()
            .map(|r| r[0].normalized())
            .collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), n, "DISTINCT must deduplicate");
    }

    /// `WHERE c = v` never returns a row whose `c` differs from `v`, and
    /// the partition `= v` / `!= v` / `IS NULL` covers the whole table.
    #[test]
    fn where_soundness_and_partition(theme in 0usize..24, seed in 0u64..300) {
        let db = built_db(theme, seed / 3 + 3);
        // pick a textual column with values
        let mut target = None;
        'outer: for t in &db.tables {
            for c in &t.cols {
                if c.kind.is_textual() {
                    if let Some(v) = db.stored_values(&t.name, &c.name).first() {
                        target = Some((t.name.clone(), c.name.clone(), v.clone()));
                        break 'outer;
                    }
                }
            }
        }
        let Some((t, c, v)) = target else { return Ok(()) };
        let ident = sqlkit::printer::ident(&c);
        let lit = v.replace('\'', "''");
        let eq = db
            .database
            .query(&format!("SELECT {ident} FROM {t} WHERE {ident} = '{lit}'"))
            .unwrap();
        for row in &eq.rows {
            prop_assert_eq!(&row[0], &Value::Text(v.clone()));
        }
        let ne = db
            .database
            .query(&format!("SELECT COUNT(*) FROM {t} WHERE {ident} != '{lit}'"))
            .unwrap();
        let nul = db
            .database
            .query(&format!("SELECT COUNT(*) FROM {t} WHERE {ident} IS NULL"))
            .unwrap();
        let total = db.database.rows(&t).unwrap().len() as i64;
        let parts = eq.rows.len() as i64
            + ne.rows[0][0].as_i64().unwrap()
            + nul.rows[0][0].as_i64().unwrap();
        prop_assert_eq!(parts, total, "three-valued partition must cover the table");
    }

    /// UNION ALL counts add; UNION is the deduplication of UNION ALL;
    /// INTERSECT + EXCEPT partition the distinct left side.
    #[test]
    fn set_operation_algebra(theme in 0usize..24, seed in 0u64..200) {
        let db = built_db(theme, seed + 4);
        let t = &db.tables[0].name;
        let c = sqlkit::printer::ident(&db.tables[0].cols[1].name);
        let n = db.database.rows(t).unwrap().len();

        let all = db
            .database
            .query(&format!("SELECT {c} FROM {t} UNION ALL SELECT {c} FROM {t}"))
            .unwrap();
        prop_assert_eq!(all.rows.len(), n * 2);

        let union = db
            .database
            .query(&format!("SELECT {c} FROM {t} UNION SELECT {c} FROM {t}"))
            .unwrap();
        let distinct = db.database.query(&format!("SELECT DISTINCT {c} FROM {t}")).unwrap();
        prop_assert!(union.same_answer(&distinct));

        let inter = db
            .database
            .query(&format!("SELECT {c} FROM {t} INTERSECT SELECT {c} FROM {t}"))
            .unwrap();
        let except = db
            .database
            .query(&format!("SELECT {c} FROM {t} EXCEPT SELECT {c} FROM {t}"))
            .unwrap();
        prop_assert_eq!(inter.rows.len() + except.rows.len(), distinct.rows.len());
        prop_assert!(except.rows.is_empty());
    }

    /// COUNT(*) equals table cardinality; SUM/AVG relate as expected; the
    /// ranked query (ORDER BY DESC LIMIT 1) returns the MAX.
    #[test]
    fn aggregate_consistency(theme in 0usize..24, seed in 0u64..200) {
        let db = built_db(theme, seed + 5);
        // find a numeric column
        let mut target = None;
        'outer: for t in &db.tables {
            for c in &t.cols {
                if c.kind.is_numeric() {
                    target = Some((t.name.clone(), c.name.clone()));
                    break 'outer;
                }
            }
        }
        let Some((t, c)) = target else { return Ok(()) };
        let ci = sqlkit::printer::ident(&c);
        let n = db.database.rows(&t).unwrap().len() as i64;
        let count = db.database.query(&format!("SELECT COUNT(*) FROM {t}")).unwrap();
        prop_assert_eq!(count.rows[0][0].as_i64(), Some(n));

        let stats = db
            .database
            .query(&format!("SELECT SUM({ci}), AVG({ci}), COUNT({ci}) FROM {t}"))
            .unwrap();
        let (sum, avg, cnt) = (
            stats.rows[0][0].as_f64().unwrap_or(0.0),
            stats.rows[0][1].as_f64().unwrap_or(0.0),
            stats.rows[0][2].as_f64().unwrap(),
        );
        if cnt > 0.0 {
            prop_assert!((sum / cnt - avg).abs() < 1e-6, "AVG = SUM / COUNT");
        }

        let max = db.database.query(&format!("SELECT MAX({ci}) FROM {t}")).unwrap();
        let top = db
            .database
            .query(&format!(
                "SELECT {ci} FROM {t} WHERE {ci} IS NOT NULL ORDER BY {ci} DESC LIMIT 1"
            ))
            .unwrap();
        if !top.rows.is_empty() {
            prop_assert!(max.same_answer(&top), "ranked top-1 equals MAX");
        }
    }

    /// Result-set equivalence (the EX predicate) is insensitive to row
    /// order and to Int/Real representation of integral numbers.
    #[test]
    fn ex_equivalence_is_representation_insensitive(xs in prop::collection::vec(-50i64..50, 1..12)) {
        use sqlkit::ResultSet;
        let a = ResultSet {
            columns: vec!["v".into()],
            rows: xs.iter().map(|x| vec![Value::Int(*x)]).collect(),
        };
        let mut reversed: Vec<_> = xs.iter().rev().map(|x| vec![Value::Real(*x as f64)]).collect();
        let b = ResultSet { columns: vec!["w".into()], rows: std::mem::take(&mut reversed) };
        prop_assert!(a.same_answer(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Alignment is idempotent and is the identity on gold SQL:
    /// `align(align(x)) == align(x)` and `align(gold) == gold`.
    #[test]
    fn alignment_is_idempotent(theme in 0usize..37, seed in 0u64..200) {
        use opensearch_sql::{align_candidate, CostLedger, ValueIndex};
        let db = built_db(theme, seed + 9);
        let values = ValueIndex::build(&db);
        let mut witnesses = Witnesses::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for difficulty in Difficulty::all() {
            if let Some((_, gold)) = sample_spec(&db, &mut witnesses, difficulty, &mut rng) {
                let schema = &db.database.schema;
                // the aligned text, or the input when no aligner fired
                let align = |sql: &str| {
                    let stmt = sqlkit::parse_select(sql).expect("generated SQL parses");
                    let unresolved = sqlkit::analyze(schema, &stmt).unresolved;
                    let mut ledger = CostLedger::new();
                    align_candidate(&stmt, &unresolved, schema, &values, None, &mut ledger)
                };
                let once = align(&gold);
                prop_assert!(once.is_none(), "gold must be a fixpoint: {:?}", once);
                // idempotence on a perturbed input
                let perturbed = gold.to_lowercase().replacen("select", "SELECT", 1);
                let a = align(&perturbed).unwrap_or(perturbed);
                let b = align(&a).unwrap_or_else(|| a.clone());
                prop_assert_eq!(&a, &b, "align must be idempotent");
            }
        }
    }

    /// UPDATE then reverse-UPDATE restores the table; DELETE of `WHERE p`
    /// plus the retained rows partition the original.
    #[test]
    fn write_paths_are_consistent(theme in 0usize..37, seed in 0u64..200, delta in 1i64..50) {
        let db = built_db(theme, seed + 13);
        // pick a numeric column
        let mut target = None;
        'outer: for t in &db.tables {
            for c in &t.cols {
                if matches!(c.kind, datagen::ColKind::Count | datagen::ColKind::Age) {
                    target = Some((t.name.clone(), c.name.clone()));
                    break 'outer;
                }
            }
        }
        let Some((t, c)) = target else { return Ok(()) };
        let ci = sqlkit::printer::ident(&c);
        let mut mutable = db.database.clone();
        let before = mutable.query(&format!("SELECT {ci} FROM {t}")).unwrap();

        mutable
            .execute_script(&format!("UPDATE {t} SET {ci} = {ci} + {delta}"))
            .unwrap();
        let bumped = mutable.query(&format!("SELECT {ci} FROM {t}")).unwrap();
        prop_assert!(!bumped.same_answer(&before) || before.rows.is_empty());

        mutable
            .execute_script(&format!("UPDATE {t} SET {ci} = {ci} - {delta}"))
            .unwrap();
        let restored = mutable.query(&format!("SELECT {ci} FROM {t}")).unwrap();
        prop_assert!(restored.same_answer(&before), "update must invert");

        // DELETE partition: |WHERE p| + |remaining| == |original|
        let n = mutable.rows(&t).unwrap().len();
        let threshold = delta * 2;
        let matching = mutable
            .query(&format!("SELECT COUNT(*) FROM {t} WHERE {ci} > {threshold}"))
            .unwrap()
            .rows[0][0]
            .as_i64()
            .unwrap() as usize;
        mutable
            .execute_script(&format!("DELETE FROM {t} WHERE {ci} > {threshold}"))
            .unwrap();
        prop_assert_eq!(mutable.rows(&t).unwrap().len(), n - matching);
    }

    /// SQL-Like lowering always produces executable SQL whose answer
    /// matches the spec's gold answer when the spec has no grouping quirks.
    #[test]
    fn sql_like_lowering_matches_gold(theme in 0usize..37, seed in 0u64..150) {
        let db = built_db(theme, seed + 17);
        let mut witnesses = Witnesses::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for difficulty in Difficulty::all() {
            if let Some((spec, gold_sql)) = sample_spec(&db, &mut witnesses, difficulty, &mut rng) {
                // DISTINCT is outside SQL-Like's vocabulary, and a joined
                // table no column references is unrecoverable from the
                // logic alone (COUNT(*) row multiplication) — both are
                // inherent losses of the intermediate language; skip them
                if spec.distinct {
                    continue;
                }
                let used = spec.columns_used();
                let all_tables_referenced = spec
                    .tables
                    .iter()
                    .all(|t| used.iter().any(|(ut, _)| ut.eq_ignore_ascii_case(t)));
                if !all_tables_referenced {
                    continue;
                }
                let line = llmsim::render_sql_like(&spec);
                let Ok(sql) = opensearch_sql::recover_sql(&line, &db.database.schema) else {
                    continue;
                };
                let recovered = db.database.query(&sql).unwrap();
                let gold = db.database.query(&gold_sql).unwrap();
                prop_assert!(
                    recovered.same_answer(&gold),
                    "SQL-Like must preserve the answer:\n  like: {line}\n  sql: {sql}"
                );
            }
        }
    }
}

// ---------------- additional SQLite-conformance spot checks ----------------

#[test]
fn null_ordering_and_left_join_where_interaction() {
    let mut db = sqlkit::Database::new("conf");
    db.execute_script(
        "CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER);
         CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER, w TEXT);
         INSERT INTO a VALUES (1, 10), (2, NULL), (3, 30);
         INSERT INTO b VALUES (1, 1, 'x');",
    )
    .unwrap();
    // NULLs sort first ascending, last descending
    let asc = db.query("SELECT v FROM a ORDER BY v").unwrap();
    assert!(asc.rows[0][0].is_null());
    let desc = db.query("SELECT v FROM a ORDER BY v DESC").unwrap();
    assert!(desc.rows[2][0].is_null());
    // WHERE on the right side of a LEFT JOIN eliminates the padded rows
    let padded = db
        .query("SELECT a.id FROM a LEFT JOIN b ON b.aid = a.id")
        .unwrap();
    assert_eq!(padded.rows.len(), 3);
    let filtered = db
        .query("SELECT a.id FROM a LEFT JOIN b ON b.aid = a.id WHERE b.w = 'x'")
        .unwrap();
    assert_eq!(filtered.rows.len(), 1);
}

#[test]
fn like_escapes_and_unicode() {
    let mut db = sqlkit::Database::new("conf");
    db.execute_script(
        "CREATE TABLE t (s TEXT);
         INSERT INTO t VALUES ('100%'), ('100x'), ('héllo'), ('it''s');",
    )
    .unwrap();
    // % is a wildcard, so '100%' matches both 100% and 100x
    let any = db.query("SELECT COUNT(*) FROM t WHERE s LIKE '100%'").unwrap();
    assert_eq!(any.rows[0][0], Value::Int(2));
    // unicode text survives storage, comparison and quoting
    let uni = db.query("SELECT COUNT(*) FROM t WHERE s = 'héllo'").unwrap();
    assert_eq!(uni.rows[0][0], Value::Int(1));
    let quoted = db.query("SELECT COUNT(*) FROM t WHERE s = 'it''s'").unwrap();
    assert_eq!(quoted.rows[0][0], Value::Int(1));
}

#[test]
fn strftime_group_by_month_histogram() {
    let mut db = sqlkit::Database::new("conf");
    db.execute_script(
        "CREATE TABLE e (d TEXT);
         INSERT INTO e VALUES ('2020-01-05'), ('2020-01-20'), ('2020-02-01'), ('2021-01-01');",
    )
    .unwrap();
    let rs = db
        .query(
            "SELECT STRFTIME('%Y-%m', d) AS ym, COUNT(*) FROM e GROUP BY ym ORDER BY ym",
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::text("2020-01"), Value::Int(2)],
            vec![Value::text("2020-02"), Value::Int(1)],
            vec![Value::text("2021-01"), Value::Int(1)],
        ]
    );
}

#[test]
fn deeply_nested_case_and_cast() {
    let mut db = sqlkit::Database::new("conf");
    db.execute_script("CREATE TABLE t (x TEXT); INSERT INTO t VALUES ('12'), ('abc'), (NULL);")
        .unwrap();
    let rs = db
        .query(
            "SELECT CASE WHEN x IS NULL THEN 'none' \
                    WHEN CAST(x AS INTEGER) > 10 THEN 'big' \
                    ELSE CASE WHEN LENGTH(x) = 3 THEN 'word' ELSE 'other' END END \
             FROM t ORDER BY x",
        )
        .unwrap();
    // NULL sorts first, then '12', then 'abc'
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::text("none")],
            vec![Value::text("big")],
            vec![Value::text("word")],
        ]
    );
}

#[test]
fn division_and_modulo_edge_cases() {
    let db = sqlkit::Database::new("conf");
    let rs = db
        .query("SELECT 7 / 0, 7 % 0, 7.0 / 0, -7 / 2, 7 / -2")
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(rs.rows[0][0].is_null(), "int division by zero is NULL");
    assert!(rs.rows[0][1].is_null(), "modulo by zero is NULL");
    assert!(rs.rows[0][2].is_null(), "real division by zero is NULL");
    assert_eq!(rs.rows[0][3], Value::Int(-3), "truncating division");
    assert_eq!(rs.rows[0][4], Value::Int(-3));
}

#[test]
fn in_subquery_three_valued_logic() {
    let mut db = sqlkit::Database::new("conf");
    db.execute_script(
        "CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1), (NULL), (3);",
    )
    .unwrap();
    // 2 NOT IN (1, NULL, 3) is NULL (not true), so no row qualifies
    let rs = db
        .query("SELECT COUNT(*) FROM t WHERE 2 NOT IN (SELECT x FROM t)")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(0));
    // 1 IN (...) is plainly true
    let rs = db
        .query("SELECT COUNT(*) FROM t WHERE 1 IN (SELECT x FROM t)")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(3));
}

/// No operator or function panics on an edge value: every binary operator,
/// both unary operators and each one- or two-argument call of every known
/// function name, over integer, float and text edges, answers a row or a
/// typed `SqlError`. A panic would unwind the serving worker, and it is the
/// one outcome correction cannot read as feedback.
#[test]
fn no_operator_panics_on_edge_values() {
    const EDGES: &[&str] = &[
        "NULL",
        "0",
        "1",
        "-1",
        "(-9223372036854775807 - 1)",
        "9223372036854775807",
        "9007199254740991",
        "9007199254740993",
        "-9007199254740991",
        "-9007199254740993",
        "-0.0",
        "5.5",
        "1e308",
        "'12abc'",
        "' 12'",
        "'é'",
    ];
    const BINARY: &[&str] =
        &["+", "-", "*", "/", "%", "||", "=", "!=", "<", "<=", ">", ">=", "AND", "OR"];
    let mut exprs = Vec::new();
    for a in EDGES {
        exprs.push(format!("-{a}"));
        exprs.push(format!("NOT {a}"));
        for name in sqlkit::functions::KNOWN_FUNCTIONS {
            exprs.push(format!("{name}({a})"));
            for b in EDGES {
                exprs.push(format!("{name}({a}, {b})"));
            }
        }
        for op in BINARY {
            for b in EDGES {
                exprs.push(format!("{a} {op} {b}"));
            }
        }
    }
    let panicked = std::thread::spawn(move || {
        let db = sqlkit::Database::new("edges");
        let mut panicked = Vec::new();
        for expr in &exprs {
            let sql = format!("SELECT {expr}");
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.query(&sql)));
            if run.is_err() {
                panicked.push(sql);
            }
        }
        panicked
    })
    .join()
    .expect("the edge-value thread itself completes");
    assert!(panicked.is_empty(), "{} statements panicked: {panicked:#?}", panicked.len());
}
