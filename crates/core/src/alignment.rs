//! Consistency alignment (paper §3.1, §3.5): repair a candidate SQL by
//! re-aligning it with the agent's *inputs* — the schema, the stored
//! values, and the expected SELECT style.
//!
//! Three aligners mirror Listing 6:
//!
//! - **Agent Alignment** — columns that do not exist are mapped onto the
//!   closest real column; WHERE literals that do not match any stored value
//!   of their column are replaced by the closest stored value, or
//!   re-qualified onto the same-named column that actually holds the value;
//! - **Function Alignment** — aggregates misplaced in `ORDER BY` of an
//!   ungrouped query are unwrapped;
//! - **Style Alignment** — `col = (SELECT MAX(col) ...)` subqueries are
//!   rewritten into the dataset's `ORDER BY col DESC LIMIT 1` style, and
//!   SELECT items beyond the expected count (from Info Alignment) are
//!   trimmed.

use crate::cost::{CostLedger, Module};
use crate::retrieval::{is_alignable_literal, ValueIndex};
use sqlkit::ast::{BinOp, Expr, OrderItem, SelectItem, SelectStmt, TableRef};
use sqlkit::{print_select, DbSchema, UnresolvedColumn, Value};
use std::time::Instant;

/// Run all aligners over a parsed candidate, whose analysis against
/// `schema` left `unresolved`. Returns the aligned SQL, or `None` when no
/// aligner fired and the candidate's own text stands. (Unparseable SQL
/// never gets here: Correction owns syntax errors.)
pub fn align_candidate(
    stmt: &SelectStmt,
    unresolved: &[UnresolvedColumn],
    schema: &DbSchema,
    values: &ValueIndex,
    expected_select: Option<usize>,
    ledger: &mut CostLedger,
) -> Option<String> {
    let stage_start = Instant::now();
    let mut stmt = stmt.clone();
    let mut changed = false;
    let flag = |b: bool| if b { "true" } else { "false" };

    let t0 = Instant::now();
    let hop = agent_align(&mut stmt, unresolved, schema, values);
    let agent_ms = t0.elapsed().as_secs_f64() * 1e3;
    ledger.charge(Module::AgentAlign, agent_ms, 0);
    osql_trace::active::event_timed(
        "align_hop",
        &[("hop", "agent"), ("changed", flag(hop))],
        &[("ms", agent_ms)],
    );
    changed |= hop;

    let t0 = Instant::now();
    let hop = function_align(&mut stmt);
    let function_ms = t0.elapsed().as_secs_f64() * 1e3;
    ledger.charge(Module::FunctionAlign, function_ms, 0);
    osql_trace::active::event_timed(
        "align_hop",
        &[("hop", "function"), ("changed", flag(hop))],
        &[("ms", function_ms)],
    );
    changed |= hop;

    let t0 = Instant::now();
    let hop = style_align(&mut stmt) | trim_select(&mut stmt, expected_select);
    let style_ms = t0.elapsed().as_secs_f64() * 1e3;
    ledger.charge(Module::StyleAlign, style_ms, 0);
    osql_trace::active::event_timed(
        "align_hop",
        &[("hop", "style"), ("changed", flag(hop))],
        &[("ms", style_ms)],
    );
    changed |= hop;

    ledger.charge(Module::Alignments, stage_start.elapsed().as_secs_f64() * 1e3, 0);
    changed.then(|| print_select(&stmt))
}

/// `binding → table name` pairs of the statement's top-level FROM clause.
fn alias_map(stmt: &SelectStmt) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if let Some(from) = &stmt.core.from {
        let mut push = |r: &TableRef| {
            if let TableRef::Named { name, alias, .. } = r {
                out.push((alias.clone().unwrap_or_else(|| name.clone()), name.clone()));
            }
        };
        push(&from.base);
        for j in &from.joins {
            push(&j.table);
        }
    }
    out
}

fn table_of<'a>(aliases: &'a [(String, String)], qualifier: &str) -> Option<&'a str> {
    aliases
        .iter()
        .find(|(b, _)| b.eq_ignore_ascii_case(qualifier))
        .map(|(_, t)| t.as_str())
}

// ---------------- Agent Alignment ----------------

fn agent_align(
    stmt: &mut SelectStmt,
    unresolved: &[UnresolvedColumn],
    schema: &DbSchema,
    values: &ValueIndex,
) -> bool {
    let aliases = alias_map(stmt);
    let mut changed = false;

    // 1. repair hallucinated column names. The analyzer's resolution pass
    //    is the evidence source: each `UnresolvedColumn` carries ranked
    //    repair candidates computed under the executor's own scope rules
    //    (so subquery scopes are honoured). The local distance scan stays
    //    as a fallback for references the analyzer has no candidate for.
    let analyzer_fix = |table: &Option<String>, column: &str| -> Option<String> {
        unresolved
            .iter()
            .find(|u| {
                u.column.eq_ignore_ascii_case(column)
                    && match (&u.table, table) {
                        (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                        (None, None) => true,
                        _ => false,
                    }
            })
            .and_then(|u| u.suggestions.first())
            .map(|(_, c)| c.clone())
    };
    stmt.walk_exprs_mut(&mut |e| {
        if let Expr::Column { table, column, .. } = e {
            let target_tables: Vec<&str> = match table.as_deref() {
                Some(q) => table_of(&aliases, q).into_iter().collect(),
                None => aliases.iter().map(|(_, t)| t.as_str()).collect(),
            };
            if target_tables.is_empty() {
                return;
            }
            let exists = target_tables
                .iter()
                .any(|t| schema.table(t).map(|ti| ti.column(column).is_some()).unwrap_or(false));
            if exists {
                return;
            }
            if let Some(fixed) = analyzer_fix(table, column) {
                *column = fixed;
                changed = true;
                return;
            }
            // closest real column across the candidate tables
            let mut best: Option<(usize, String)> = None;
            for t in &target_tables {
                if let Some(ti) = schema.table(t) {
                    for c in &ti.columns {
                        let d = name_distance(column, &c.name);
                        if d <= 2 && best.as_ref().map(|(bd, _)| d < *bd).unwrap_or(true) {
                            best = Some((d, c.name.clone()));
                        }
                    }
                }
            }
            if let Some((_, fixed)) = best {
                *column = fixed;
                changed = true;
            }
        }
    });

    // 2. repair WHERE literals that do not exist in their column, or
    //    re-qualify onto the same-named column that holds the value
    let aliases2 = aliases.clone();
    stmt.walk_exprs_mut(&mut |e| {
        let Expr::Binary { left, op, right } = e else { return };
        if !matches!(op, BinOp::Eq | BinOp::Ne) {
            return;
        }
        let (col_expr, lit_expr) = match (left.as_mut(), right.as_mut()) {
            (Expr::Column { .. }, Expr::Literal(_)) => (left.as_mut(), right.as_mut()),
            (Expr::Literal(_), Expr::Column { .. }) => (right.as_mut(), left.as_mut()),
            _ => return,
        };
        let (Expr::Column { table, column, .. }, Expr::Literal(lit)) = (col_expr, lit_expr) else {
            return;
        };
        if !is_alignable_literal(lit) {
            return;
        }
        let Value::Text(text) = lit.clone() else { return };
        let owner = match table.as_deref() {
            Some(q) => table_of(&aliases2, q).map(str::to_owned),
            None => aliases2
                .iter()
                .find(|(_, t)| {
                    schema.table(t).map(|ti| ti.column(column).is_some()).unwrap_or(false)
                })
                .map(|(_, t)| t.clone()),
        };
        let Some(owner) = owner else { return };
        if values.contains(&owner, column, &text) {
            return;
        }
        // (a) exact (normalised) stored value within this column
        if let Some(fixed) = values.exact_in_column(&owner, column, &text) {
            *lit = Value::Text(fixed);
            changed = true;
            return;
        }
        // (b) the exact value lives in a same-named column of another
        //     joined table → re-qualify (the wrong-table hallucination)
        for (binding, t) in &aliases2 {
            if t.eq_ignore_ascii_case(&owner) {
                continue;
            }
            let same_col = schema
                .table(t)
                .map(|ti| ti.column(column).is_some())
                .unwrap_or(false);
            if same_col && values.contains(t, column, &text) {
                *table = Some(binding.clone());
                changed = true;
                return;
            }
        }
        // (c) fuzzy repair within this column
        if let Some(fixed) = values.best_in_column(&owner, column, &text, 0.55) {
            *lit = Value::Text(fixed);
            changed = true;
        }
    });

    changed
}

/// Case/space-insensitive edit distance between column names, with free
/// separator stripping so `First_Date ~ First Date` is distance 0.
fn name_distance(a: &str, b: &str) -> usize {
    let norm = |s: &str| -> Vec<char> {
        s.chars()
            .filter(|c| c.is_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect()
    };
    levenshtein(&norm(a), &norm(b))
}

fn levenshtein(a: &[char], b: &[char]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

// ---------------- Function Alignment ----------------

fn function_align(stmt: &mut SelectStmt) -> bool {
    let mut changed = false;
    if stmt.core.group_by.is_empty() {
        for item in &mut stmt.order_by {
            if let Expr::Function { name, args, .. } = &item.expr {
                let aggregate = matches!(
                    name.as_str(),
                    "min" | "max" | "avg" | "sum" | "count" | "total"
                );
                if aggregate && args.len() == 1 && !matches!(args[0], Expr::Wildcard) {
                    item.expr = args[0].clone();
                    changed = true;
                }
            }
        }
    }
    changed
}

// ---------------- Style Alignment ----------------

fn style_align(stmt: &mut SelectStmt) -> bool {
    // only rewrite when the outer statement is not already ranked
    if !stmt.order_by.is_empty() || stmt.limit.is_some() {
        return false;
    }
    let Some(where_clause) = stmt.core.where_clause.take() else {
        return false;
    };
    let mut conjuncts = Vec::new();
    collect_conjuncts(where_clause, &mut conjuncts);

    let mut rewrite: Option<(Expr, bool)> = None;
    let mut kept = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        if rewrite.is_none() {
            if let Some((col, desc)) = match_extremum_subquery(&c) {
                rewrite = Some((col, desc));
                continue;
            }
        }
        kept.push(c);
    }
    stmt.core.where_clause = rebuild_conjunction(kept);
    match rewrite {
        Some((col, desc)) => {
            stmt.order_by.push(OrderItem { expr: col, desc });
            stmt.limit = Some(Expr::lit(1i64));
            true
        }
        None => false,
    }
}

fn collect_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary { left, op: BinOp::And, right } => {
            collect_conjuncts(*left, out);
            collect_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

fn rebuild_conjunction(mut parts: Vec<Expr>) -> Option<Expr> {
    let mut acc = parts.drain(..).reduce(|a, b| Expr::binary(a, BinOp::And, b));
    acc.take()
}

/// Match `col = (SELECT MAX|MIN(col') ...)` where the column names agree;
/// returns the column and whether the extremum was MAX (→ DESC).
fn match_extremum_subquery(e: &Expr) -> Option<(Expr, bool)> {
    let Expr::Binary { left, op: BinOp::Eq, right } = e else {
        return None;
    };
    let (col, sub) = match (left.as_ref(), right.as_ref()) {
        (Expr::Column { .. }, Expr::Subquery(q)) => (left.as_ref(), q),
        (Expr::Subquery(q), Expr::Column { .. }) => (right.as_ref(), q),
        _ => return None,
    };
    let Expr::Column { column, .. } = col else {
        return None;
    };
    if sub.core.items.len() != 1 || !sub.order_by.is_empty() {
        return None;
    }
    let SelectItem::Expr { expr: Expr::Function { name, args, .. }, .. } = &sub.core.items[0]
    else {
        return None;
    };
    let desc = match name.as_str() {
        "max" => true,
        "min" => false,
        _ => return None,
    };
    let [Expr::Column { column: inner, .. }] = args.as_slice() else {
        return None;
    };
    if !inner.eq_ignore_ascii_case(column) {
        return None;
    }
    Some((col.clone(), desc))
}

/// Trim SELECT items beyond the count expected by Info Alignment.
fn trim_select(stmt: &mut SelectStmt, expected: Option<usize>) -> bool {
    let Some(n) = expected else {
        return false;
    };
    if n >= 1 && stmt.core.items.len() > n {
        stmt.core.items.truncate(n);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{build::build_db, domain::themes, RowScale};

    struct Fx {
        db: datagen::BuiltDb,
        values: ValueIndex,
    }

    impl Fx {
        fn new() -> Self {
            let db = build_db(&themes()[0], "h", "healthcare", RowScale::tiny(), 0.7, 33);
            let values = ValueIndex::build(&db);
            Fx { db, values }
        }

        /// Align `sql` the way the beam does: parse, analyse, align.
        fn align_with(
            &self,
            sql: &str,
            expected_select: Option<usize>,
            ledger: &mut CostLedger,
        ) -> Option<String> {
            let schema = &self.db.database.schema;
            let stmt = sqlkit::parse_select(sql).unwrap();
            let unresolved = sqlkit::analyze(schema, &stmt).unresolved;
            align_candidate(&stmt, &unresolved, schema, &self.values, expected_select, ledger)
        }

        fn align(&self, sql: &str) -> Option<String> {
            self.align_with(sql, None, &mut CostLedger::new())
        }
    }

    #[test]
    fn repairs_mangled_column_names() {
        let fx = Fx::new();
        let a = fx.align("SELECT First_Date FROM Patient").expect("changed");
        assert!(a.contains("`First Date`"), "{a}");
        // result actually executes now
        fx.db.database.query(&a).unwrap();
    }

    #[test]
    fn repairs_wrong_value_case() {
        let fx = Fx::new();
        // find a stored city value, lowercase it in the SQL
        let stored = fx.values.values_of("Patient", "City")[0].to_owned();
        let wrong = stored.to_lowercase();
        if wrong == stored {
            return; // quirk made it lowercase already
        }
        let sql = format!("SELECT Name FROM Patient WHERE City = '{wrong}'");
        let a = fx.align(&sql).expect("changed");
        assert!(a.contains(&format!("'{stored}'")), "{a}");
    }

    #[test]
    fn requalifies_same_name_column() {
        let fx = Fx::new();
        // Laboratory.Status and Treatment.Status are same-named; take a
        // value stored only in Treatment and qualify it with Laboratory
        let lab: Vec<String> =
            fx.values.values_of("Laboratory", "Status").iter().map(|s| s.to_string()).collect();
        let treat = fx.values.values_of("Treatment", "Status");
        // the value must not be repairable *within* Laboratory.Status either:
        // agent alignment prefers an in-column normalised/prefix match over
        // re-qualification, so a case- or prefix-variant would be rewritten
        // in place rather than moved to T3
        let norm = |s: &str| -> String {
            s.chars().filter(|c| c.is_alphanumeric()).map(|c| c.to_ascii_lowercase()).collect()
        };
        let only_treat = treat.iter().find(|v| {
            let vn = norm(v);
            !lab.iter().any(|l| {
                let ln = norm(l);
                ln == vn
                    || (ln.len() >= 3
                        && vn.len() >= 3
                        && (ln.starts_with(&vn) || vn.starts_with(&ln)))
            })
        });
        let Some(v) = only_treat else { return };
        let sql = format!(
            "SELECT T1.Name FROM Patient AS T1 INNER JOIN Laboratory AS T2 ON T1.PatientID = T2.PatientID \
             INNER JOIN Treatment AS T3 ON T1.PatientID = T3.PatientID WHERE T2.Status = '{v}'"
        );
        let a = fx.align(&sql).expect("changed");
        assert!(a.contains(&format!("T3.Status = '{v}'")), "{a}");
    }

    #[test]
    fn function_alignment_unwraps_order_by_aggregate() {
        let fx = Fx::new();
        let a = fx.align("SELECT Name FROM Patient ORDER BY MAX(Age) DESC LIMIT 1");
        let a = a.expect("changed");
        assert!(a.contains("ORDER BY Age DESC"), "{a}");
        // grouped queries keep their aggregate order keys
        let b = fx.align(
            "SELECT City, COUNT(*) FROM Patient GROUP BY City ORDER BY COUNT(PatientID) DESC",
        );
        assert_eq!(b, None);
    }

    #[test]
    fn style_alignment_rewrites_extremum_subquery() {
        let fx = Fx::new();
        let a = fx
            .align("SELECT Name FROM Patient WHERE Age = (SELECT MAX(Age) FROM Patient)")
            .expect("changed");
        assert!(a.contains("ORDER BY Age DESC LIMIT 1"), "{a}");
        assert!(!a.contains("MAX"), "{a}");
        // other WHERE conjuncts survive
        let b = fx.align(
            "SELECT Name FROM Patient WHERE City = 'X' AND Age = (SELECT MIN(Age) FROM Patient)",
        );
        let b = b.expect("changed");
        assert!(b.contains("WHERE"), "{b}");
        assert!(b.contains("ORDER BY Age LIMIT 1"), "{b}");
    }

    #[test]
    fn trims_extra_select_items() {
        let fx = Fx::new();
        let mut ledger = CostLedger::new();
        let a = fx.align_with("SELECT Name, PatientID FROM Patient", Some(1), &mut ledger);
        assert_eq!(a.as_deref(), Some("SELECT Name FROM Patient"));
        assert!(ledger.get(Module::StyleAlign).calls > 0);
    }

    #[test]
    fn clean_sql_untouched() {
        let fx = Fx::new();
        assert_eq!(fx.align("SELECT Name FROM Patient WHERE Age > 30"), None);
    }

    #[test]
    fn name_distance_ignores_separators() {
        assert_eq!(name_distance("First_Date", "First Date"), 0);
        assert_eq!(name_distance("PatientIDs", "PatientID"), 1);
        assert_eq!(name_distance("completely", "different"), 8);
    }
}
