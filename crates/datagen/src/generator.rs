//! Sampling query specs against a built database.
//!
//! The sampler guarantees every generated example is *answerable*: filter
//! literals come from a **witness row** of the fully-joined table chain, so
//! the gold SQL provably returns a non-empty result, and every gold SQL is
//! executed once before being admitted to the benchmark. Each chain's join
//! is probed once per database and kept as the primary keys of its rows
//! ([`Witnesses`]); a witness reads its values from the base tables.

use crate::build::{BuiltDb, TableMeta};
use crate::spec::{
    AggFunc, CmpOp, Difficulty, FilterSpec, OrderSpec, QuerySpec, SelectSpec,
};
use crate::values::ColKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use sqlkit::{print_select, Value};
use std::collections::HashMap;

/// The most tables a spec joins: `sample_chain` never asks for more.
const MAX_CHAIN: usize = 3;

/// One row of a chain's join: the primary key of each chain table's row,
/// in chain order (unused slots are 0).
type JoinKeys = [u32; MAX_CHAIN];

/// The witness joins of **one** database: for every table chain sampled
/// so far, the primary keys of its FK join's rows in the order the engine
/// returned them, or `None` when the probe failed.
///
/// A join row is fully identified by its tables' primary keys, so the memo
/// holds ≤ 3 integers per row, not the row's values. Build one per
/// database: chains are keyed by table names alone, and databases built
/// from different themes may share an id.
#[derive(Debug, Default)]
pub struct Witnesses {
    chains: HashMap<Vec<String>, Option<Vec<JoinKeys>>>,
}

impl Witnesses {
    /// An empty memo.
    pub fn new() -> Self {
        Witnesses::default()
    }
}

/// Sample one answerable spec of the requested difficulty with its gold
/// SQL, or `None` when the draw led to an unanswerable query (callers
/// retry). `witnesses` must belong to `db`.
pub fn sample_spec(
    db: &BuiltDb,
    witnesses: &mut Witnesses,
    difficulty: Difficulty,
    rng: &mut StdRng,
) -> Option<(QuerySpec, String)> {
    let tables = sample_chain(db, difficulty, rng)?;
    let witness = sample_witness(db, witnesses, &tables, rng)?;

    let mut spec = QuerySpec {
        tables,
        select: Vec::new(),
        filters: Vec::new(),
        group_by: None,
        order: None,
        limit: None,
        distinct: false,
        difficulty,
    };

    sample_filters(db, &mut spec, &witness, difficulty, rng);
    sample_shape(db, &mut spec, difficulty, rng)?;

    // admit only executable, non-empty gold SQL
    let sql = print_select(&spec.to_sql(&db.database.schema));
    match db.database.query(&sql) {
        Ok(rs) if !rs.is_effectively_empty() => Some((spec, sql)),
        _ => None,
    }
}

/// A witness row: `(table, column) → value` over the joined chain.
type Witness = Vec<((String, String), Value)>;

fn witness_get<'a>(w: &'a Witness, table: &str, column: &str) -> Option<&'a Value> {
    w.iter()
        .find(|((t, c), _)| t.eq_ignore_ascii_case(table) && c.eq_ignore_ascii_case(column))
        .map(|(_, v)| v)
}

fn sample_chain(db: &BuiltDb, difficulty: Difficulty, rng: &mut StdRng) -> Option<Vec<String>> {
    let want = match difficulty {
        Difficulty::Simple => 1,
        Difficulty::Moderate => {
            if rng.gen_bool(0.75) {
                2
            } else {
                1
            }
        }
        Difficulty::Challenging => {
            if rng.gen_bool(0.5) {
                MAX_CHAIN
            } else {
                2
            }
        }
    };
    let start = db.tables.choose(rng)?.name.clone();
    let mut chain = vec![start];
    while chain.len() < want {
        let adjacent: Vec<String> = db
            .database
            .schema
            .foreign_keys
            .iter()
            .filter_map(|fk| {
                let in_t = chain.iter().any(|c| c.eq_ignore_ascii_case(&fk.table));
                let in_r = chain.iter().any(|c| c.eq_ignore_ascii_case(&fk.ref_table));
                match (in_t, in_r) {
                    (true, false) => Some(fk.ref_table.clone()),
                    (false, true) => Some(fk.table.clone()),
                    _ => None,
                }
            })
            .collect();
        match adjacent.choose(rng) {
            Some(next) => chain.push(next.clone()),
            None => break,
        }
    }
    Some(chain)
}

/// The position of a table's primary-key column.
fn pk_index(meta: &TableMeta) -> Option<usize> {
    meta.cols.iter().position(|c| c.kind == ColKind::Id)
}

/// Every row of the chain's FK join, as primary keys.
fn probe_join_keys(db: &BuiltDb, tables: &[String]) -> Option<Vec<JoinKeys>> {
    let select = tables
        .iter()
        .map(|t| {
            let meta = db.table_meta(t)?;
            let pk = &meta.cols[pk_index(meta)?].name;
            Some(SelectSpec::Column { table: t.clone(), column: pk.clone() })
        })
        .collect::<Option<Vec<_>>>()?;
    let probe = QuerySpec {
        tables: tables.to_vec(),
        select,
        filters: Vec::new(),
        group_by: None,
        order: None,
        limit: None,
        distinct: false,
        difficulty: Difficulty::Simple,
    };
    let sql = print_select(&probe.to_sql(&db.database.schema));
    let rs = db.database.query(&sql).ok()?;
    Some(
        rs.rows
            .iter()
            .map(|row| {
                let mut keys = [0; MAX_CHAIN];
                for (slot, v) in keys.iter_mut().zip(row) {
                    let Value::Int(pk) = *v else {
                        panic!("a primary key read back as {v:?}");
                    };
                    *slot = u32::try_from(pk).expect("a primary key is a row position");
                }
                keys
            })
            .collect(),
    )
}

fn sample_witness(
    db: &BuiltDb,
    witnesses: &mut Witnesses,
    tables: &[String],
    rng: &mut StdRng,
) -> Option<Witness> {
    let joined = witnesses
        .chains
        .entry(tables.to_vec())
        .or_insert_with(|| probe_join_keys(db, tables))
        .as_deref()?;
    // one uniform draw over the join's rows, in the order the engine returned them
    let keys = joined.choose(rng)?;
    let mut witness = Witness::new();
    for (t, &pk) in tables.iter().zip(keys) {
        let meta = db.table_meta(t)?;
        let pk_col = pk_index(meta)?;
        let row = db
            .database
            .rows(t)
            .ok()
            .and_then(|rows| rows.get((pk as usize).checked_sub(1)?))
            .filter(|row| row[pk_col] == Value::Int(i64::from(pk)))
            .expect("build_db gives the row at position i the primary key i + 1");
        witness.extend(
            meta.cols.iter().zip(row).map(|(c, v)| ((t.clone(), c.name.clone()), v.clone())),
        );
    }
    Some(witness)
}

fn filter_candidates(db: &BuiltDb, tables: &[String]) -> Vec<(String, String, ColKind)> {
    tables
        .iter()
        .flat_map(|t| {
            db.table_meta(t)
                .map(|m| {
                    m.cols
                        .iter()
                        .filter(|c| {
                            (c.kind.filterable_eq() || c.kind.filterable_range())
                                && c.kind != ColKind::Flag
                        })
                        .map(|c| (t.clone(), c.name.clone(), c.kind))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default()
        })
        .collect()
}

fn sample_filters(
    db: &BuiltDb,
    spec: &mut QuerySpec,
    witness: &Witness,
    difficulty: Difficulty,
    rng: &mut StdRng,
) {
    let n = match difficulty {
        Difficulty::Simple => 1,
        Difficulty::Moderate => rng.gen_range(1..=2),
        Difficulty::Challenging => rng.gen_range(2..=3),
    };
    let mut candidates = filter_candidates(db, &spec.tables);
    candidates.shuffle(rng);
    for (table, column, kind) in candidates.into_iter().take(n) {
        let Some(value) = witness_get(witness, &table, &column).cloned() else {
            continue;
        };
        if value.is_null() {
            continue;
        }
        let filter = match kind {
            ColKind::Date => sample_date_filter(table, column, &value, rng),
            k if k.filterable_range() => {
                sample_range_filter(table, column, k, &value, difficulty, rng)
            }
            _ => sample_eq_filter(db, &table, &column, &value),
        };
        if let Some(mut f) = filter {
            // BIRD's external knowledge is incomplete: a dirty value is
            // only documented ~60% of the time; the rest must be found by
            // the pipeline's value retrieval
            if f.display_mismatch() && !f.year_of_date && f.abstract_phrase.is_none() {
                f.has_evidence = rng.gen_bool(0.85);
            }
            spec.filters.push(f);
        }
    }
}

fn sample_eq_filter(db: &BuiltDb, table: &str, column: &str, value: &Value) -> Option<FilterSpec> {
    let display = match value {
        Value::Text(stored) => db
            .display_form(table, column, stored)
            .map(str::to_owned)
            .unwrap_or_else(|| stored.clone()),
        other => other.to_string(),
    };
    Some(FilterSpec {
        table: table.to_owned(),
        column: column.to_owned(),
        op: CmpOp::Eq,
        value: value.clone(),
        value2: None,
        display,
        year_of_date: false,
        abstract_phrase: None,
        has_evidence: true,
    })
}

fn sample_range_filter(
    table: String,
    column: String,
    kind: ColKind,
    value: &Value,
    difficulty: Difficulty,
    rng: &mut StdRng,
) -> Option<FilterSpec> {
    let v = value.as_f64()?;
    let delta = match kind {
        ColKind::Money => (v.abs() * 0.2).max(10.0),
        ColKind::Measure => (v.abs() * 0.15).max(5.0),
        ColKind::Count => 10.0,
        ColKind::Age => 4.0,
        ColKind::Year => 3.0,
        _ => 1.0,
    };
    let is_int = matches!(value, Value::Int(_));
    let mk = |x: f64| -> Value {
        if is_int {
            Value::Int(x.round() as i64)
        } else {
            Value::Real((x * 100.0).round() / 100.0)
        }
    };
    let op = *[CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le, CmpOp::Between]
        .choose(rng)
        .unwrap();
    let (lit, lit2) = match op {
        CmpOp::Gt => (mk(v - delta), None),
        CmpOp::Ge => (mk(v - delta * 0.5), None),
        CmpOp::Lt => (mk(v + delta), None),
        CmpOp::Le => (mk(v + delta * 0.5), None),
        CmpOp::Between => (mk(v - delta), Some(mk(v + delta))),
        _ => unreachable!(),
    };
    let display = lit.to_string();
    // challenging/moderate filters sometimes use abstract wording that only
    // the evidence string resolves (the BIRD external-knowledge pattern)
    let abstract_p = match difficulty {
        Difficulty::Challenging => 0.35,
        Difficulty::Moderate => 0.2,
        Difficulty::Simple => 0.05,
    };
    let abstract_phrase = if rng.gen_bool(abstract_p) {
        let col = column.to_lowercase();
        Some(match op {
            CmpOp::Gt | CmpOp::Ge => format!("the {col} is considered high"),
            CmpOp::Lt | CmpOp::Le => format!("the {col} is considered low"),
            _ => format!("the {col} is in the normal range"),
        })
    } else {
        None
    };
    Some(FilterSpec {
        table,
        column,
        op,
        value: lit,
        value2: lit2,
        display,
        year_of_date: false,
        abstract_phrase,
        has_evidence: true,
    })
}

fn sample_date_filter(
    table: String,
    column: String,
    value: &Value,
    rng: &mut StdRng,
) -> Option<FilterSpec> {
    let text = value.as_text()?;
    let year = text.get(0..4)?.to_owned();
    if rng.gen_bool(0.6) {
        let op = *[CmpOp::Ge, CmpOp::Le, CmpOp::Eq].choose(rng).unwrap();
        Some(FilterSpec {
            table,
            column,
            op,
            value: Value::Text(year.clone()),
            value2: None,
            display: year,
            year_of_date: true,
            abstract_phrase: None,
            has_evidence: true,
        })
    } else {
        let op = *[CmpOp::Ge, CmpOp::Le].choose(rng).unwrap();
        Some(FilterSpec {
            table,
            column,
            op,
            value: Value::Text(text.clone()),
            value2: None,
            display: text,
            year_of_date: false,
            abstract_phrase: None,
            has_evidence: true,
        })
    }
}

/// Decide the projection / grouping / ranking shape.
fn sample_shape(
    db: &BuiltDb,
    spec: &mut QuerySpec,
    difficulty: Difficulty,
    rng: &mut StdRng,
) -> Option<()> {
    let base = spec.tables[0].clone();
    let base_meta = db.table_meta(&base)?;
    let pk = base_meta.cols.iter().find(|c| c.kind == ColKind::Id)?.name.clone();

    let plain_cols: Vec<String> = base_meta
        .cols
        .iter()
        .filter(|c| !matches!(c.kind, ColKind::Id | ColKind::Fk))
        .map(|c| c.name.clone())
        .collect();
    let numeric_cols: Vec<(String, String)> = spec
        .tables
        .iter()
        .flat_map(|t| {
            db.table_meta(t)
                .map(|m| {
                    m.cols
                        .iter()
                        .filter(|c| c.kind.is_numeric())
                        .map(|c| (t.clone(), c.name.clone()))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default()
        })
        .collect();
    let text_cols: Vec<(String, String)> = spec
        .tables
        .iter()
        .flat_map(|t| {
            db.table_meta(t)
                .map(|m| {
                    m.cols
                        .iter()
                        .filter(|c| c.kind.filterable_eq() && c.kind != ColKind::Flag)
                        .map(|c| (t.clone(), c.name.clone()))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default()
        })
        .collect();

    let shape = match difficulty {
        Difficulty::Simple => {
            if rng.gen_bool(0.35) {
                Shape::Count
            } else {
                Shape::Columns
            }
        }
        Difficulty::Moderate => match rng.gen_range(0..10) {
            0..=2 => Shape::Count,
            3 => Shape::CountDistinct,
            4..=6 if !numeric_cols.is_empty() => Shape::Agg,
            _ => Shape::Columns,
        },
        Difficulty::Challenging => match rng.gen_range(0..10) {
            0..=2 if !text_cols.is_empty() => Shape::Grouped,
            3..=5 if !numeric_cols.is_empty() => Shape::Ranked,
            6..=7 if !numeric_cols.is_empty() => Shape::Agg,
            8 => Shape::CountDistinct,
            _ => Shape::Columns,
        },
    };

    match shape {
        Shape::Count => {
            spec.select =
                vec![SelectSpec::Agg { func: AggFunc::Count, table: base, column: None }];
        }
        Shape::CountDistinct => {
            spec.select = vec![SelectSpec::Agg {
                func: AggFunc::CountDistinct,
                table: base,
                column: Some(pk),
            }];
        }
        Shape::Agg => {
            let (t, c) = numeric_cols.choose(rng)?.clone();
            let func = *[AggFunc::Avg, AggFunc::Sum, AggFunc::Min, AggFunc::Max]
                .choose(rng)
                .unwrap();
            spec.select = vec![SelectSpec::Agg { func, table: t, column: Some(c) }];
        }
        Shape::Columns => {
            let mut cols = plain_cols.clone();
            cols.shuffle(rng);
            let take = rng.gen_range(1..=2);
            spec.select = cols
                .into_iter()
                .take(take.max(1))
                .map(|c| SelectSpec::Column { table: base.clone(), column: c })
                .collect();
            if spec.select.is_empty() {
                spec.select = vec![SelectSpec::Column { table: base, column: pk }];
            } else if rng.gen_bool(0.25) {
                spec.distinct = true;
            }
        }
        Shape::Grouped => {
            let (gt, gc) = text_cols.choose(rng)?.clone();
            let agg = if rng.gen_bool(0.6) || numeric_cols.is_empty() {
                SelectSpec::Agg { func: AggFunc::Count, table: gt.clone(), column: None }
            } else {
                let (t, c) = numeric_cols.choose(rng)?.clone();
                SelectSpec::Agg { func: AggFunc::Avg, table: t, column: Some(c) }
            };
            spec.select =
                vec![SelectSpec::Column { table: gt.clone(), column: gc.clone() }, agg];
            spec.group_by = Some((gt.clone(), gc));
            if rng.gen_bool(0.5) {
                spec.order = Some(OrderSpec {
                    table: gt,
                    column: pk,
                    agg: Some(AggFunc::Count),
                    desc: true,
                });
                spec.limit = Some(1);
            }
        }
        Shape::Ranked => {
            let (ot, oc) = numeric_cols.choose(rng)?.clone();
            let sel_col = plain_cols.choose(rng).cloned().unwrap_or(pk);
            spec.select = vec![SelectSpec::Column { table: base, column: sel_col }];
            spec.order = Some(OrderSpec {
                table: ot,
                column: oc,
                agg: None,
                desc: rng.gen_bool(0.7),
            });
            spec.limit = Some(if rng.gen_bool(0.8) { 1 } else { rng.gen_range(2..=5) });
        }
    }
    Some(())
}

enum Shape {
    Count,
    CountDistinct,
    Agg,
    Columns,
    Grouped,
    Ranked,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_db, RowScale};
    use crate::domain::themes;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn db() -> BuiltDb {
        build_db(&themes()[0], "h", "healthcare", RowScale::tiny(), 0.6, 5)
    }

    #[test]
    fn sampled_specs_execute_nonempty() {
        let b = db();
        let mut witnesses = Witnesses::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut produced = 0;
        for d in Difficulty::all() {
            for _ in 0..30 {
                if let Some((spec, sql)) = sample_spec(&b, &mut witnesses, d, &mut rng) {
                    produced += 1;
                    assert_eq!(sql, print_select(&spec.to_sql(&b.database.schema)));
                    let rs = b.database.query(&sql).unwrap();
                    assert!(!rs.is_effectively_empty(), "{sql}");
                    assert_eq!(spec.difficulty, d);
                }
            }
        }
        assert!(produced > 40, "sampler too lossy: {produced}/90");
    }

    #[test]
    fn difficulty_scales_structure() {
        let b = db();
        let mut witnesses = Witnesses::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut simple_tables = 0usize;
        let mut challenging_tables = 0usize;
        let mut n_simple = 0usize;
        let mut n_chal = 0usize;
        for _ in 0..40 {
            if let Some((s, _)) = sample_spec(&b, &mut witnesses, Difficulty::Simple, &mut rng) {
                simple_tables += s.tables.len();
                n_simple += 1;
            }
            if let Some((s, _)) = sample_spec(&b, &mut witnesses, Difficulty::Challenging, &mut rng)
            {
                challenging_tables += s.tables.len();
                n_chal += 1;
            }
        }
        let avg_s = simple_tables as f64 / n_simple as f64;
        let avg_c = challenging_tables as f64 / n_chal as f64;
        assert!(avg_c > avg_s, "challenging ({avg_c}) should join more than simple ({avg_s})");
        assert!((avg_s - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn witness_guarantees_filters_match() {
        let b = db();
        let mut witnesses = Witnesses::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            if let Some((spec, _)) = sample_spec(&b, &mut witnesses, Difficulty::Moderate, &mut rng)
            {
                // drop projections, count matching rows — must be >= 1
                let mut probe = spec.clone();
                probe.select = vec![SelectSpec::Agg {
                    func: AggFunc::Count,
                    table: probe.tables[0].clone(),
                    column: None,
                }];
                probe.group_by = None;
                probe.order = None;
                probe.limit = None;
                let sql = print_select(&probe.to_sql(&b.database.schema));
                let rs = b.database.query(&sql).unwrap();
                assert!(matches!(rs.rows[0][0], Value::Int(n) if n >= 1), "{sql}");
            }
        }
    }

    #[test]
    fn deterministic_sampling() {
        let b = db();
        let draw = || {
            let mut witnesses = Witnesses::new();
            sample_spec(&b, &mut witnesses, Difficulty::Moderate, &mut StdRng::seed_from_u64(11))
        };
        let a = draw();
        let c = draw();
        assert_eq!(a, c);
    }

    #[test]
    fn a_warm_memo_draws_what_a_cold_one_does() {
        let b = db();
        let mut warm = Witnesses::new();
        let mut asked: HashSet<Vec<String>> = HashSet::new();
        let mut draws = 0;
        for seed in 0..40 {
            for d in Difficulty::all() {
                let mut cold = Witnesses::new();
                let from_cold = sample_spec(&b, &mut cold, d, &mut StdRng::seed_from_u64(seed));
                let from_warm = sample_spec(&b, &mut warm, d, &mut StdRng::seed_from_u64(seed));
                assert_eq!(from_warm, from_cold, "seed {seed}, {d:?}");
                assert_eq!(cold.chains.len(), 1, "one draw probes one chain");
                asked.insert(sample_chain(&b, d, &mut StdRng::seed_from_u64(seed)).unwrap());
                draws += 1;
            }
        }
        assert_eq!(warm.chains.len(), asked.len(), "one entry per distinct chain asked for");
        assert!(warm.chains.len() < draws, "{} chains over {draws} draws", warm.chains.len());
    }
}
