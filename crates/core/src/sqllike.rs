//! SQL-Like: the paper's intermediate language (§3.5).
//!
//! SQL-Like is "a type of SQL that ignores specific syntactical elements
//! (such as JOINs and the formatting of functions)": the model states the
//! query *logic* — what to show, which conditions, grouping, ranking —
//! with table-qualified columns, and the concrete SQL is derived by
//! inferring the join path over the schema's foreign-key graph.
//!
//! ```text
//! Show COUNT(Patient.PatientID) WHERE Laboratory.IGA > 80 AND
//!     Laboratory.IGA < 500 ORDER BY Patient.Age DESC LIMIT 1
//! ```
//!
//! Besides documenting the CoT, this module gives the pipeline a *repair
//! path*: when a candidate's final `#SQL:` line is malformed but its
//! `#SQL-like:` line parses, the concrete SQL is reconstructed from the
//! logic — fixing syntax-class hallucinations without an LLM round trip.

use sqlkit::ast::{
    BinOp, Expr, FromClause, Join, JoinKind, OrderItem, SelectCore, SelectItem, SelectStmt,
    TableRef,
};
use sqlkit::{parse_select, DbSchema, SqlError, SqlResult};

/// A parsed SQL-Like statement: query logic without join plumbing.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlLike {
    /// Projected expressions (table-qualified).
    pub select: Vec<Expr>,
    /// Conjunctive WHERE condition, if any.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT.
    pub limit: Option<u64>,
}

/// Parse a SQL-Like line (`Show ... [WHERE ...] [GROUP BY ...]
/// [ORDER BY ...] [LIMIT n]`).
///
/// The trick: SQL-Like *is* SQL minus the FROM clause, so after swapping
/// the leading `Show` for `SELECT`, the existing SQL parser does all the
/// expression work.
pub fn parse_sql_like(text: &str) -> SqlResult<SqlLike> {
    let trimmed = text.trim();
    let rest = trimmed
        .strip_prefix("Show ")
        .or_else(|| trimmed.strip_prefix("show "))
        .or_else(|| trimmed.strip_prefix("SHOW "))
        .ok_or_else(|| SqlError::Syntax { pos: 0, msg: "SQL-Like must start with Show".into() })?;
    let stmt = parse_select(&format!("SELECT {rest}"))?;
    if stmt.core.from.is_some() {
        return Err(SqlError::Syntax {
            pos: 0,
            msg: "SQL-Like must not contain a FROM clause".into(),
        });
    }
    let select = stmt
        .core
        .items
        .into_iter()
        .map(|item| match item {
            SelectItem::Expr { expr, .. } => Ok(expr),
            _ => Err(SqlError::Syntax { pos: 0, msg: "SQL-Like cannot project *".into() }),
        })
        .collect::<SqlResult<Vec<Expr>>>()?;
    let limit = match stmt.limit {
        Some(Expr::Literal(sqlkit::Value::Int(n))) if n >= 0 => Some(n as u64),
        Some(_) => {
            return Err(SqlError::Syntax { pos: 0, msg: "SQL-Like LIMIT must be a number".into() })
        }
        None => None,
    };
    Ok(SqlLike {
        select,
        where_clause: stmt.core.where_clause,
        group_by: stmt.core.group_by,
        order_by: stmt.order_by,
        limit,
    })
}

/// Every schema table referenced by qualified columns in the statement.
fn referenced_tables(like: &SqlLike, schema: &DbSchema) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut visit = |e: &Expr| {
        e.walk(&mut |node| {
            if let Expr::Column { table: Some(t), .. } = node {
                if let Some(info) = schema.table(t) {
                    if !out.iter().any(|x| x.eq_ignore_ascii_case(&info.name)) {
                        out.push(info.name.clone());
                    }
                }
            }
        });
    };
    for e in &like.select {
        visit(e);
    }
    if let Some(w) = &like.where_clause {
        visit(w);
    }
    for g in &like.group_by {
        visit(g);
    }
    for o in &like.order_by {
        visit(&o.expr);
    }
    out
}

/// Lower SQL-Like to concrete SQL: infer the join path connecting every
/// referenced table through the schema's FK graph and assemble the full
/// statement (columns stay table-qualified, so no aliases are needed).
pub fn to_sql(like: &SqlLike, schema: &DbSchema) -> SqlResult<SelectStmt> {
    let tables = referenced_tables(like, schema);
    if tables.is_empty() {
        return Err(SqlError::Other(
            "SQL-Like references no known table-qualified columns".into(),
        ));
    }

    // connect tables[1..] to the growing join set through FK paths
    let mut joined: Vec<String> = vec![tables[0].clone()];
    let mut joins: Vec<Join> = Vec::new();
    for t in &tables[1..] {
        if joined.iter().any(|j| j.eq_ignore_ascii_case(t)) {
            continue;
        }
        // shortest path from any already-joined table
        let path = joined
            .iter()
            .filter_map(|from| schema.join_path(from, t))
            .min_by_key(|p| p.len())
            .ok_or_else(|| {
                SqlError::Other(format!("no FK path connects {t} to the query's tables"))
            })?;
        for fk in path {
            // each edge introduces at most one new table
            let (new_table, on) = if joined.iter().any(|j| j.eq_ignore_ascii_case(&fk.table)) {
                (fk.ref_table.clone(), fk_condition(&fk))
            } else {
                (fk.table.clone(), fk_condition(&fk))
            };
            if !joined.iter().any(|j| j.eq_ignore_ascii_case(&new_table)) {
                joins.push(Join {
                    kind: JoinKind::Inner,
                    table: TableRef::Named { name: new_table.clone(), alias: None, span: sqlkit::Span::default() },
                    on: Some(on),
                });
                joined.push(new_table);
            }
        }
    }

    let from = FromClause {
        base: TableRef::Named { name: joined[0].clone(), alias: None, span: sqlkit::Span::default() },
        joins,
    };
    Ok(SelectStmt {
        core: SelectCore {
            distinct: false,
            items: like
                .select
                .iter()
                .map(|e| SelectItem::Expr { expr: e.clone(), alias: None })
                .collect(),
            from: Some(from),
            where_clause: like.where_clause.clone(),
            group_by: like.group_by.clone(),
            having: None,
        },
        compounds: Vec::new(),
        order_by: like.order_by.clone(),
        limit: like.limit.map(|n| Expr::lit(n as i64)),
        offset: None,
    })
}

fn fk_condition(fk: &sqlkit::ForeignKey) -> Expr {
    Expr::binary(
        Expr::qcol(fk.table.clone(), fk.column.clone()),
        BinOp::Eq,
        Expr::qcol(fk.ref_table.clone(), fk.ref_column.clone()),
    )
}

/// One-shot recovery: parse a SQL-Like line and lower it to SQL text.
pub fn recover_sql(sql_like_line: &str, schema: &DbSchema) -> SqlResult<String> {
    let like = parse_sql_like(sql_like_line)?;
    let stmt = to_sql(&like, schema)?;
    Ok(sqlkit::print_select(&stmt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{build::build_db, domain::themes, RowScale};

    fn db() -> datagen::BuiltDb {
        build_db(&themes()[0], "h", "healthcare", RowScale::tiny(), 0.0, 3)
    }

    #[test]
    fn parses_the_paper_listing_5_shape() {
        let like = parse_sql_like(
            "Show COUNT(DISTINCT Patient.PatientID) WHERE Laboratory.IGA > 80 AND \
             Laboratory.IGA < 500",
        )
        .unwrap();
        assert_eq!(like.select.len(), 1);
        assert!(like.where_clause.is_some());
        assert!(like.limit.is_none());
    }

    #[test]
    fn lowers_with_inferred_join() {
        let b = db();
        let sql = recover_sql(
            "Show COUNT(DISTINCT Patient.PatientID) WHERE Laboratory.IGA > 80",
            &b.database.schema,
        )
        .unwrap();
        assert!(
            sql.contains("INNER JOIN Laboratory ON Laboratory.PatientID = Patient.PatientID"),
            "{sql}"
        );
        b.database.query(&sql).unwrap();
    }

    #[test]
    fn lowers_three_table_chain() {
        let b = db();
        let sql = recover_sql(
            "Show Patient.Name WHERE Laboratory.IGA > 10 AND Treatment.Cost > 1",
            &b.database.schema,
        )
        .unwrap();
        assert!(sql.contains("INNER JOIN Laboratory"), "{sql}");
        assert!(sql.contains("INNER JOIN Treatment"), "{sql}");
        b.database.query(&sql).unwrap();
    }

    #[test]
    fn keeps_group_order_limit() {
        let b = db();
        let sql = recover_sql(
            "Show Patient.City, COUNT(*) GROUP BY Patient.City ORDER BY COUNT(*) DESC LIMIT 1",
            &b.database.schema,
        )
        .unwrap();
        assert!(sql.contains("GROUP BY Patient.City"), "{sql}");
        assert!(sql.ends_with("LIMIT 1"), "{sql}");
        let rs = b.database.query(&sql).unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn single_table_needs_no_join() {
        let b = db();
        let sql = recover_sql("Show Patient.Name WHERE Patient.Age > 30", &b.database.schema)
            .unwrap();
        assert!(!sql.contains("JOIN"), "{sql}");
        b.database.query(&sql).unwrap();
    }

    #[test]
    fn rejects_malformed_input() {
        let b = db();
        assert!(parse_sql_like("SELECT x FROM t").is_err(), "must start with Show");
        assert!(parse_sql_like("Show ???").is_err());
        assert!(
            recover_sql("Show unqualified_column", &b.database.schema).is_err(),
            "no known table"
        );
        // disconnected tables (no FK path) fail loudly
        let mut schema = b.database.schema.clone();
        schema.foreign_keys.clear();
        assert!(recover_sql(
            "Show Patient.Name WHERE Laboratory.IGA > 1",
            &schema
        )
        .is_err());
    }

    #[test]
    fn sim_rendered_sql_like_round_trips() {
        // the simulated model's SQL-Like lines must be recoverable
        let b = db();
        let mut witnesses = datagen::generator::Witnesses::new();
        let mut rng = rand::SeedableRng::seed_from_u64(5);
        let mut checked = 0;
        for difficulty in datagen::Difficulty::all() {
            for _ in 0..10 {
                let Some((spec, _)) =
                    datagen::generator::sample_spec(&b, &mut witnesses, difficulty, &mut rng)
                else {
                    continue;
                };
                if spec.select.iter().any(|s| {
                    matches!(s, datagen::SelectSpec::Agg { column: None, .. })
                }) && spec.group_by.is_some()
                {
                    // COUNT(*) + GROUP BY renders fine; nothing to skip
                }
                let line = llmsim::render_sql_like(&spec);
                let recovered = recover_sql(&line, &b.database.schema);
                if let Ok(sql) = recovered {
                    b.database
                        .query(&sql)
                        .unwrap_or_else(|e| panic!("recovered SQL broken: {e}: {sql}"));
                    checked += 1;
                }
            }
        }
        assert!(checked >= 20, "recovered {checked} SQL-Like lines");
    }
}
