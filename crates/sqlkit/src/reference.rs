//! A deliberately naive second implementation of SELECT, UPDATE and
//! DELETE — test code only.
//!
//! An interpreter shrunk to the simplest thing that can be right: owned
//! rows, nested loops only, the whole WHERE evaluated per joined tuple, no
//! plan, no binding pass, no memoisation. Names resolve per row through
//! `scope::lookup` over a stack of `(layout, row)` environments — the
//! design production binds away before it plans. It has its own
//! expression evaluator, its own tail (projection, grouping, aggregates,
//! DISTINCT, ORDER BY, compound, LIMIT) and runs its own sub-selects, and
//! it imports nothing from the executor, the binder or the planner. What
//! it shares with production is per-value semantics: the scope rules,
//! `Value`'s comparisons, and the scalar and operator kernels of
//! `functions`.
//!
//! The one thing it copies from production is the join-key comparison: an
//! ON that is one equality between a column of the tables to its left and
//! a column of the table it joins matches on the normalised form the hash
//! join keys on (`1 = 1.0`, NULL matches nothing), whatever the join kind.
//!
//! UPDATE and DELETE ([`execute_update`], [`execute_delete`]) are the
//! statements' first implementation: copy the whole database so
//! expressions read the pre-statement state, walk every row of the target
//! table, evaluate the WHERE and the SET expressions by name, write as you
//! go. It is slow, and a statement that fails midway leaves its earlier
//! rows rewritten — which is why it is the oracle and not the engine.

use crate::ast::*;
use crate::db::{apply_affinity, Database};
use crate::error::{SqlError, SqlResult};
use crate::functions::{
    apply_binary, apply_unary, call_scalar, cast_value, is_aggregate_name, like_match,
};
use crate::schema::TableInfo;
use crate::scope::{self, ColBinding};
use crate::value::{NormValue, ResultSet, Row, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Execute `stmt` exactly as written.
pub(crate) fn execute(db: &Database, stmt: &SelectStmt) -> SqlResult<ResultSet> {
    Eval::new(db).select(stmt)
}

/// One execution: the database, and the rows of the statements a
/// sub-select is nested in, innermost last.
struct Eval<'a> {
    db: &'a Database,
    outer: Vec<(Vec<ColBinding>, Row)>,
    /// SELECT nesting: 1 at top level, +1 per sub-select.
    depth: usize,
}

/// A projection list expanded against its layout: `(expression, label)`.
type Items<'e> = [(Cow<'e, Expr>, String)];

/// An ORDER BY term of a single-core statement.
enum Key<'e> {
    /// The n-th output column (a position, or an output label).
    Output(usize),
    /// An expression over the row (or the group).
    Expr(&'e Expr),
}

fn has_aggregate(e: &Expr) -> bool {
    e.any(&mut |n| matches!(n, Expr::Function { name, args, .. } if is_aggregate_name(name, args.len())))
}

/// Keep the first row of each set of equal ones, with its ORDER BY values.
fn distinct_rows(rows: Vec<Row>, keys: Vec<Vec<Value>>) -> (Vec<Row>, Vec<Vec<Value>>) {
    let mut seen = HashSet::new();
    rows.into_iter().zip(keys).filter(|(r, _)| seen.insert(normalized(r))).unzip()
}

fn normalized(row: &[Value]) -> Vec<NormValue> {
    row.iter().map(Value::normalized).collect()
}

impl<'a> Eval<'a> {
    fn new(db: &'a Database) -> Self {
        Eval { db, outer: Vec::new(), depth: 1 }
    }

    /// A SELECT met inside another: a sub-select or a FROM-subquery.
    fn nested(&mut self, stmt: &SelectStmt) -> SqlResult<ResultSet> {
        self.depth += 1;
        if self.depth > 16 {
            return Err(SqlError::Other("subquery nesting too deep".into()));
        }
        let rs = self.select(stmt);
        self.depth -= 1;
        rs
    }

    /// A sub-select of an expression, run with the row it is evaluated on
    /// as its innermost enclosing environment.
    fn subquery(&mut self, stmt: &SelectStmt, layout: &[ColBinding], row: &[Value]) -> SqlResult<ResultSet> {
        self.outer.push((layout.to_vec(), row.to_vec()));
        let rs = self.nested(stmt);
        self.outer.pop();
        rs
    }

    fn select(&mut self, stmt: &SelectStmt) -> SqlResult<ResultSet> {
        // the rows, with the values each ORDER BY term sorts it by
        let (columns, rows, keys) = if stmt.compounds.is_empty() {
            let (rs, keys) = self.core(&stmt.core, &stmt.order_by)?;
            (rs.columns, rs.rows, keys)
        } else {
            let (mut rs, _) = self.core(&stmt.core, &[])?;
            for (op, arm) in &stmt.compounds {
                let (next, _) = self.core(arm, &[])?;
                if next.columns.len() != rs.columns.len() {
                    return Err(SqlError::Other(
                        "SELECTs to the left and right of a set operator do not have the same number of result columns".into(),
                    ));
                }
                rs = compound(rs, next, *op);
            }
            // a compound's ORDER BY names output columns only
            let at = stmt
                .order_by
                .iter()
                .map(|o| match &o.expr {
                    Expr::Literal(Value::Int(k)) if *k >= 1 && (*k as usize) <= rs.columns.len() => {
                        Ok(*k as usize - 1)
                    }
                    Expr::Column { table: None, column, .. } => rs
                        .columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(column))
                        .ok_or_else(|| SqlError::NoSuchColumn(column.clone())),
                    _ => Err(SqlError::Other(
                        "ORDER BY term of a compound SELECT must be a column label or position".into(),
                    )),
                })
                .collect::<SqlResult<Vec<usize>>>()?;
            let keys = rs.rows.iter().map(|r| at.iter().map(|&i| r[i].clone()).collect()).collect();
            (rs.columns, rs.rows, keys)
        };
        let mut sorted: Vec<(Row, Vec<Value>)> = rows.into_iter().zip(keys).collect();
        sorted.sort_by(|(_, a), (_, b)| {
            let terms = a.iter().zip(b).zip(&stmt.order_by);
            let mut ord = terms.map(|((x, y), o)| if o.desc { y.sql_cmp(x) } else { x.sql_cmp(y) });
            ord.find(|o| o.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut rs = ResultSet { columns, rows: sorted.into_iter().map(|(r, _)| r).collect() };
        let mut count = |e: &Option<Expr>| -> SqlResult<Option<i64>> {
            let Some(e) = e else { return Ok(None) };
            let v = self.expr(e, &[], &[])?;
            v.as_i64().map(Some).ok_or_else(|| SqlError::Type("LIMIT/OFFSET must be an integer".into()))
        };
        if let Some(offset) = count(&stmt.offset)? {
            rs.rows.drain(..(offset.max(0) as usize).min(rs.rows.len()));
        }
        if let Some(limit) = count(&stmt.limit)? {
            if limit >= 0 {
                rs.rows.truncate(limit as usize);
            }
        }
        Ok(rs)
    }

    /// One core: FROM, WHERE, then the projection tail. Returns the rows
    /// and, per row, the values of the ORDER BY terms.
    fn core(&mut self, core: &SelectCore, order_by: &[OrderItem]) -> SqlResult<(ResultSet, Vec<Vec<Value>>)> {
        let (layout, mut rows) = match &core.from {
            Some(from) => self.joined(from)?,
            None => (Vec::new(), vec![Vec::new()]),
        };
        if let Some(w) = &core.where_clause {
            if has_aggregate(w) {
                return Err(SqlError::MisusedAggregate("aggregate in WHERE clause".into()));
            }
            let mut kept = Vec::new();
            for row in rows {
                if self.expr(w, &layout, &row)?.truthiness() == Some(true) {
                    kept.push(row);
                }
            }
            rows = kept;
        }
        let items = scope::expand_items(&core.items, &layout)?;
        let labels: Vec<String> = items.iter().map(|(_, l)| l.clone()).collect();
        let keys: Vec<Key> = order_by
            .iter()
            .map(|o| match &o.expr {
                Expr::Literal(Value::Int(k)) if *k >= 1 && (*k as usize) <= labels.len() => {
                    Key::Output(*k as usize - 1)
                }
                Expr::Column { table: None, column, .. } => {
                    match labels.iter().position(|l| l.eq_ignore_ascii_case(column)) {
                        Some(i) => Key::Output(i),
                        None => Key::Expr(&o.expr),
                    }
                }
                e => Key::Expr(e),
            })
            .collect();
        let grouped = !core.group_by.is_empty()
            || core.having.is_some()
            || items.iter().any(|(e, _)| has_aggregate(e))
            || keys.iter().any(|k| matches!(k, Key::Expr(e) if has_aggregate(e)));
        let (out, key_rows) = if grouped {
            self.grouped(core, &layout, rows, &items, &keys)?
        } else {
            let (mut out, mut key_rows) = (Vec::new(), Vec::new());
            for row in &rows {
                let projected =
                    items.iter().map(|(e, _)| self.expr(e, &layout, row)).collect::<SqlResult<Row>>()?;
                let k = keys
                    .iter()
                    .map(|k| match k {
                        Key::Output(i) => Ok(projected[*i].clone()),
                        Key::Expr(e) => self.expr(e, &layout, row),
                    })
                    .collect::<SqlResult<Vec<Value>>>()?;
                out.push(projected);
                key_rows.push(k);
            }
            (out, key_rows)
        };
        let (out, key_rows) = if core.distinct { distinct_rows(out, key_rows) } else { (out, key_rows) };
        Ok((ResultSet { columns: labels, rows: out }, key_rows))
    }

    /// The grouped tail: GROUP BY and HAVING read projection aliases, every
    /// group yields one row (one group, possibly empty, without GROUP BY).
    fn grouped(
        &mut self,
        core: &SelectCore,
        layout: &[ColBinding],
        rows: Vec<Row>,
        items: &Items,
        keys: &[Key],
    ) -> SqlResult<(Vec<Row>, Vec<Vec<Value>>)> {
        let group_by: Vec<Expr> = core.group_by.iter().map(|g| aliases(g, items)).collect();
        let having = core.having.as_ref().map(|h| aliases(h, items));
        let groups: Vec<Vec<Row>> = if group_by.is_empty() {
            vec![rows]
        } else {
            let mut order: Vec<Vec<NormValue>> = Vec::new();
            let mut groups: HashMap<Vec<NormValue>, Vec<Row>> = HashMap::new();
            for row in rows {
                let mut key = Vec::new();
                for g in &group_by {
                    if has_aggregate(g) {
                        return Err(SqlError::MisusedAggregate("aggregate in GROUP BY".into()));
                    }
                    key.push(self.expr(g, layout, &row)?.normalized());
                }
                if !groups.contains_key(&key) {
                    order.push(key.clone());
                }
                groups.entry(key).or_default().push(row);
            }
            order.into_iter().map(|k| groups.remove(&k).unwrap()).collect()
        };
        let (mut out, mut key_rows) = (Vec::new(), Vec::new());
        for group in &groups {
            if let Some(h) = &having {
                if self.in_group(h, layout, group)?.truthiness() != Some(true) {
                    continue;
                }
            }
            let projected =
                items.iter().map(|(e, _)| self.in_group(e, layout, group)).collect::<SqlResult<Row>>()?;
            let k = keys
                .iter()
                .map(|k| match k {
                    Key::Output(i) => Ok(projected[*i].clone()),
                    Key::Expr(e) => self.in_group(e, layout, group),
                })
                .collect::<SqlResult<Vec<Value>>>()?;
            out.push(projected);
            key_rows.push(k);
        }
        Ok((out, key_rows))
    }

    fn joined(&mut self, from: &FromClause) -> SqlResult<(Vec<ColBinding>, Vec<Row>)> {
        let (mut layout, mut rows) = self.table(&from.base)?;
        for join in &from.joins {
            let (right_layout, right_rows) = self.table(&join.table)?;
            let left_width = layout.len();
            layout.extend(right_layout);
            let keys = join.on.as_ref().and_then(|on| join_keys(on, &layout, left_width));
            let mut joined = Vec::new();
            for l in &rows {
                let mut matched = false;
                for r in &right_rows {
                    let tuple: Row = l.iter().chain(r).cloned().collect();
                    let keep = match (keys, &join.on) {
                        (Some((a, b)), _) => {
                            !tuple[a].is_null() && tuple[a].normalized() == tuple[b].normalized()
                        }
                        (None, Some(on)) => self.expr(on, &layout, &tuple)?.truthiness() == Some(true),
                        (None, None) => true,
                    };
                    if keep {
                        matched = true;
                        joined.push(tuple);
                    }
                }
                if !matched && join.kind == JoinKind::Left {
                    let pad = std::iter::repeat_n(Value::Null, layout.len() - left_width);
                    joined.push(l.iter().cloned().chain(pad).collect());
                }
            }
            rows = joined;
        }
        Ok((layout, rows))
    }

    fn table(&mut self, tref: &TableRef) -> SqlResult<(Vec<ColBinding>, Vec<Row>)> {
        let mut layout = Vec::new();
        match tref {
            TableRef::Named { name, alias, .. } => {
                let info = scope::push_table(&mut layout, &self.db.schema, name, alias.as_deref())
                    .ok_or_else(|| SqlError::NoSuchTable(name.clone()))?;
                Ok((layout, self.db.rows(&info.name)?.to_vec()))
            }
            TableRef::Subquery { query, alias } => {
                let rs = self.nested(query)?;
                scope::push_labels(&mut layout, alias, rs.columns);
                Ok((layout, rs.rows))
            }
        }
    }

    /// Evaluate `e` on `row`, laid out as `layout`.
    fn expr(&mut self, e: &Expr, layout: &[ColBinding], row: &[Value]) -> SqlResult<Value> {
        let mut eval = |e: &Expr| self.expr(e, layout, row);
        Ok(match e {
            Expr::Literal(v) => v.clone(),
            Expr::Column { table, column, .. } => {
                let outer = self.outer.iter().rev().map(|(l, _)| l.as_slice());
                match scope::lookup(std::iter::once(layout).chain(outer), table.as_deref(), column) {
                    Ok((0, slot)) => row[slot].clone(),
                    Ok((up, slot)) => self.outer[self.outer.len() - up].1[slot].clone(),
                    Err(miss) => return Err(miss.error(table.as_deref(), column)),
                }
            }
            Expr::Unary { op, expr } => apply_unary(*op, &eval(expr)?)?,
            Expr::Binary { left, op: BinOp::And, right } => match eval(left)?.truthiness() {
                Some(false) => Value::Int(0),
                l => match (l, eval(right)?.truthiness()) {
                    (_, Some(false)) => Value::Int(0),
                    (Some(true), Some(true)) => Value::Int(1),
                    _ => Value::Null,
                },
            },
            Expr::Binary { left, op: BinOp::Or, right } => match eval(left)?.truthiness() {
                Some(true) => Value::Int(1),
                l => match (l, eval(right)?.truthiness()) {
                    (_, Some(true)) => Value::Int(1),
                    (Some(false), Some(false)) => Value::Int(0),
                    _ => Value::Null,
                },
            },
            Expr::Binary { left, op, right } => {
                let l = eval(left)?;
                apply_binary(*op, &l, &eval(right)?)?
            }
            Expr::Like { expr, pattern, negated } => {
                let (v, p) = (eval(expr)?, eval(pattern)?);
                match (v.as_text(), p.as_text()) {
                    (Some(text), Some(pattern)) => Value::Int((like_match(&pattern, &text) != *negated) as i64),
                    _ => Value::Null,
                }
            }
            Expr::Between { expr, low, high, negated } => {
                let (v, lo, hi) = (eval(expr)?, eval(low)?, eval(high)?);
                if v.is_null() || lo.is_null() || hi.is_null() {
                    Value::Null
                } else {
                    let inside = v.sql_cmp(&lo).is_ge() && v.sql_cmp(&hi).is_le();
                    Value::Int((inside != *negated) as i64)
                }
            }
            Expr::InList { expr, list, negated } => {
                let v = eval(expr)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(&eval(item)?) {
                        Some(true) => return Ok(Value::Int(!*negated as i64)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null { Value::Null } else { Value::Int(*negated as i64) }
            }
            Expr::InSubquery { expr, query, negated } => {
                let v = eval(expr)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let rs = self.subquery(query, layout, row)?;
                if rs.columns.len() != 1 {
                    return Err(SqlError::SubqueryShape("IN subquery must return a single column".into()));
                }
                let hits: Vec<Option<bool>> = rs.rows.iter().map(|r| v.sql_eq(&r[0])).collect();
                if hits.contains(&Some(true)) {
                    Value::Int(!*negated as i64)
                } else if hits.contains(&None) {
                    Value::Null
                } else {
                    Value::Int(*negated as i64)
                }
            }
            Expr::IsNull { expr, negated } => Value::Int((eval(expr)?.is_null() != *negated) as i64),
            Expr::Case { operand, branches, else_expr } => {
                let operand = operand.as_ref().map(|o| eval(o)).transpose()?;
                for (when, then) in branches {
                    let cond = eval(when)?;
                    let hit = match &operand {
                        Some(v) => v.sql_eq(&cond) == Some(true),
                        None => cond.truthiness() == Some(true),
                    };
                    if hit {
                        return eval(then);
                    }
                }
                match else_expr {
                    Some(e) => eval(e)?,
                    None => Value::Null,
                }
            }
            Expr::Function { name, args, .. } => {
                if is_aggregate_name(name, args.len()) {
                    return Err(SqlError::MisusedAggregate(format!(
                        "aggregate {name}() used outside of an aggregate context"
                    )));
                }
                let args = args.iter().map(eval).collect::<SqlResult<Vec<Value>>>()?;
                call_scalar(name, &args)?
            }
            Expr::Wildcard => return Err(SqlError::Syntax { pos: 0, msg: "misplaced *".into() }),
            Expr::Cast { expr, ty } => cast_value(&eval(expr)?, *ty),
            Expr::Subquery(query) => {
                let rs = self.subquery(query, layout, row)?;
                if rs.columns.len() != 1 {
                    return Err(SqlError::SubqueryShape("scalar subquery must return a single column".into()));
                }
                rs.rows.first().map(|r| r[0].clone()).unwrap_or(Value::Null)
            }
            Expr::Exists { query, negated } => {
                let rs = self.subquery(query, layout, row)?;
                Value::Int((rs.rows.is_empty() == *negated) as i64)
            }
            Expr::BoundColumn { .. } | Expr::OuterColumn { .. } | Expr::Unresolved(_) => {
                return Err(SqlError::Other("the reference runs unbound statements only".into()))
            }
        })
    }

    /// Evaluate `e` over a group: aggregate calls over its rows, anything
    /// else around them as over rows, and the rest on the group's first
    /// row (NULL for an empty group).
    fn in_group(&mut self, e: &Expr, layout: &[ColBinding], group: &[Row]) -> SqlResult<Value> {
        let mut eval = |e: &Expr| self.in_group(e, layout, group);
        Ok(match e {
            Expr::Function { name, args, distinct, .. } if is_aggregate_name(name, args.len()) => {
                return self.aggregate(name, args, *distinct, layout, group)
            }
            Expr::Binary { left, op, right } => {
                let l = eval(left)?;
                apply_binary(*op, &l, &eval(right)?)?
            }
            Expr::Unary { op, expr } => apply_unary(*op, &eval(expr)?)?,
            Expr::Case { operand, branches, else_expr } => {
                let operand = operand.as_ref().map(|o| eval(o)).transpose()?;
                for (when, then) in branches {
                    let cond = eval(when)?;
                    let hit = match &operand {
                        Some(v) => v.sql_eq(&cond) == Some(true),
                        None => cond.truthiness() == Some(true),
                    };
                    if hit {
                        return eval(then);
                    }
                }
                match else_expr {
                    Some(e) => eval(e)?,
                    None => Value::Null,
                }
            }
            Expr::Function { name, args, .. } => {
                let args = args.iter().map(eval).collect::<SqlResult<Vec<Value>>>()?;
                call_scalar(name, &args)?
            }
            Expr::Cast { expr, ty } => cast_value(&eval(expr)?, *ty),
            Expr::IsNull { expr, negated } => Value::Int((eval(expr)?.is_null() != *negated) as i64),
            other => match group.first() {
                Some(row) => self.expr(other, layout, row)?,
                None => Value::Null,
            },
        })
    }

    fn aggregate(
        &mut self,
        name: &str,
        args: &[Expr],
        distinct: bool,
        layout: &[ColBinding],
        group: &[Row],
    ) -> SqlResult<Value> {
        if name == "count" && matches!(args.first(), None | Some(Expr::Wildcard)) {
            return Ok(Value::Int(group.len() as i64));
        }
        let arg = args.first().ok_or_else(|| SqlError::BadFunction(format!("{name}() needs an argument")))?;
        if has_aggregate(arg) {
            return Err(SqlError::MisusedAggregate(format!("nested aggregate in {name}()")));
        }
        let mut values = Vec::new();
        for row in group {
            let v = self.expr(arg, layout, row)?;
            if !v.is_null() {
                values.push(v);
            }
        }
        if distinct {
            let mut seen = HashSet::new();
            values.retain(|v| seen.insert(v.normalized()));
        }
        let reals = || values.iter().filter_map(Value::as_f64_lossy);
        Ok(match name {
            "count" => Value::Int(values.len() as i64),
            "sum" | "total" | "avg" if values.is_empty() => {
                if name == "total" { Value::Real(0.0) } else { Value::Null }
            }
            "sum" if values.iter().all(|v| matches!(v, Value::Int(_))) => {
                let mut sum = 0i64;
                for v in &values {
                    sum = sum
                        .checked_add(v.as_i64().unwrap())
                        .ok_or_else(|| SqlError::Other("integer overflow in SUM".into()))?;
                }
                Value::Int(sum)
            }
            "sum" | "total" => Value::Real(reals().sum()),
            "avg" => Value::Real(reals().sum::<f64>() / values.len() as f64),
            "min" | "max" => {
                let want = if name == "min" { std::cmp::Ordering::Less } else { std::cmp::Ordering::Greater };
                let mut best: Option<Value> = None;
                for v in values {
                    if best.as_ref().is_none_or(|b| v.sql_cmp(b) == want) {
                        best = Some(v);
                    }
                }
                best.unwrap_or(Value::Null)
            }
            "group_concat" if values.is_empty() => Value::Null,
            "group_concat" => {
                // the separator is evaluated with no row and no tables
                let sep = match args.get(1) {
                    Some(e) => Eval::new(&Database::new("const")).expr(e, &[], &[])?.as_text(),
                    None => None,
                };
                let parts: Vec<String> = values.iter().map(Value::to_string).collect();
                Value::text(parts.join(&sep.unwrap_or_else(|| ",".into())))
            }
            other => return Err(SqlError::BadFunction(format!("unknown aggregate {other}"))),
        })
    }
}

/// The slots of an ON that is one equality between a column left of
/// `left_width` and a column right of it, in either order.
fn join_keys(on: &Expr, layout: &[ColBinding], left_width: usize) -> Option<(usize, usize)> {
    let Expr::Binary { left, op: BinOp::Eq, right } = on else { return None };
    let slot = |e: &Expr| match e {
        Expr::Column { table, column, .. } => scope::lookup([layout], table.as_deref(), column).ok(),
        _ => None,
    };
    let (Some((0, a)), Some((0, b))) = (slot(left), slot(right)) else { return None };
    match (a < left_width, b < left_width) {
        (true, false) => Some((a, b)),
        (false, true) => Some((b, a)),
        _ => None,
    }
}

/// Replace each unqualified column named like a projection label by the
/// labelled expression, unless that is the column itself: GROUP BY and
/// HAVING may read an output alias.
fn aliases(e: &Expr, items: &Items) -> Expr {
    let mut out = e.clone();
    out.walk_mut(&mut |node| {
        let Expr::Column { table: None, column, .. } = &*node else { return };
        let hit = items.iter().find(|(expr, label)| label.eq_ignore_ascii_case(column) && **expr != *node);
        if let Some((expr, _)) = hit {
            *node = expr.clone().into_owned();
        }
    });
    out
}

fn compound(left: ResultSet, right: ResultSet, op: CompoundOp) -> ResultSet {
    let ResultSet { columns, rows } = left;
    let rows = match op {
        CompoundOp::UnionAll => rows.into_iter().chain(right.rows).collect(),
        CompoundOp::Union => {
            let mut seen = HashSet::new();
            rows.into_iter().chain(right.rows).filter(|r| seen.insert(normalized(r))).collect()
        }
        CompoundOp::Intersect | CompoundOp::Except => {
            let right: HashSet<Vec<NormValue>> = right.rows.iter().map(|r| normalized(r)).collect();
            let mut seen = HashSet::new();
            rows.into_iter()
                .filter(|r| {
                    let key = normalized(r);
                    right.contains(&key) == (op == CompoundOp::Intersect) && seen.insert(key)
                })
                .collect()
        }
    };
    ResultSet { columns, rows }
}

// ---------------- UPDATE / DELETE, as they were ----------------

/// Evaluate an expression against a single table row: the layout is the
/// table's own columns, subqueries are allowed.
fn eval_in_row(db: &Database, table: &TableInfo, row: &[Value], e: &Expr) -> SqlResult<Value> {
    let mut layout = Vec::new();
    scope::push_table(&mut layout, &db.schema, &table.name, None);
    Eval::new(db).expr(e, &layout, row)
}

/// Execute one UPDATE, returning the number of rows changed.
pub(crate) fn execute_update(db: &mut Database, u: &UpdateStmt) -> SqlResult<usize> {
    let info = db
        .schema
        .table(&u.table)
        .ok_or_else(|| SqlError::NoSuchTable(u.table.clone()))?
        .clone();
    // resolve assignment targets up front
    let targets: Vec<(usize, &Expr, TypeName)> = u
        .assignments
        .iter()
        .map(|(c, e)| {
            info.column_index(c)
                .map(|i| (i, e, info.columns[i].ty))
                .ok_or_else(|| SqlError::NoSuchColumn(format!("{}.{}", info.name, c)))
        })
        .collect::<SqlResult<_>>()?;
    let snapshot = db.clone(); // expression context (reads see pre-update state)
    let rows = db.rows_mut(&info.name);
    let mut changed = 0usize;
    for row in rows.iter_mut() {
        let hit = match &u.where_clause {
            Some(w) => eval_in_row(&snapshot, &info, row, w)?.truthiness() == Some(true),
            None => true,
        };
        if !hit {
            continue;
        }
        let new_vals: Vec<Value> = targets
            .iter()
            .map(|(_, e, _)| eval_in_row(&snapshot, &info, row, e))
            .collect::<SqlResult<_>>()?;
        for ((idx, _, ty), v) in targets.iter().zip(new_vals) {
            row[*idx] = apply_affinity(v, *ty);
        }
        changed += 1;
    }
    if changed > 0 {
        db.drop_resident_indexes(&info.name);
    }
    Ok(changed)
}

/// Execute one DELETE, returning the number of rows removed.
pub(crate) fn execute_delete(db: &mut Database, d: &DeleteStmt) -> SqlResult<usize> {
    let info = db
        .schema
        .table(&d.table)
        .ok_or_else(|| SqlError::NoSuchTable(d.table.clone()))?
        .clone();
    let snapshot = db.clone();
    let rows = db.rows_mut(&info.name);
    let before = rows.len();
    let mut err = None;
    rows.retain(|row| {
        if err.is_some() {
            return true;
        }
        match &d.where_clause {
            Some(w) => match eval_in_row(&snapshot, &info, row, w) {
                Ok(v) => v.truthiness() != Some(true),
                Err(e) => {
                    err = Some(e);
                    true
                }
            },
            None => false,
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    let removed = before - rows.len();
    if removed > 0 {
        db.drop_resident_indexes(&info.name);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::PlanCache;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Production — raw, prepared, and through a plan cache (cold, then
    /// warm) — against the reference: same labels and rows, or the same
    /// error text.
    fn check(db: &Database, sql: &str) {
        let stmt = parse_select(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let want = outcome(execute(db, &stmt));
        let cache = PlanCache::new(4);
        let got = [
            ("raw", crate::execute_select(db, &stmt)),
            ("prepared", crate::prepare(db, sql).and_then(|p| p.execute(db))),
            ("cache cold", cache.execute(db, sql).map(|(rs, _)| rs)),
            ("cache warm", cache.execute(db, sql).map(|(rs, _)| rs)),
        ];
        for (path, got) in got {
            assert_eq!(outcome(got), want, "{path} execution of {sql}");
        }
    }

    /// Labels and rows, or the error text — as text, so that a NaN in a
    /// result equals itself.
    fn outcome(r: SqlResult<ResultSet>) -> Result<String, String> {
        r.map(|rs| format!("{rs:?}")).map_err(|e| e.to_string())
    }

    /// Three small tables with NULLs, duplicate keys, `1` vs `1.0` keys,
    /// and indexes on most of the join and filter columns.
    fn fixture() -> Database {
        let mut db = Database::new("ref");
        db.execute_script(
            "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER, s TEXT);
             CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, y REAL, s TEXT);
             CREATE TABLE c (k INTEGER, z INTEGER);
             INSERT INTO a VALUES (1, 10, 'p'), (2, 20, 'q'), (3, NULL, 'p'), (4, 20, NULL);
             INSERT INTO b VALUES (1, 1, 1.0, 'p'), (2, 1, 2.5, 'q'), (3, 2, NULL, 'p'),
                                  (4, NULL, 4.0, 'r'), (5, 9, 1.0, NULL);
             INSERT INTO c VALUES (1, 100), (1, 101), (2, 200), (NULL, 300);",
        )
        .unwrap();
        for (t, col) in [("a", "id"), ("a", "x"), ("b", "a_id"), ("b", "y"), ("c", "k")] {
            db.create_index(t, col).unwrap();
        }
        db
    }

    #[test]
    fn shapes_the_corpus_never_produces() {
        let db = fixture();
        for sql in [
            // no FROM
            "SELECT 1, 'x'",
            "SELECT 1 WHERE 1 = 0",
            "SELECT 1 WHERE NULL",
            // compounds, with ORDER BY / LIMIT over the combined result
            "SELECT id FROM a UNION SELECT a_id FROM b ORDER BY 1 DESC LIMIT 3",
            "SELECT s FROM a UNION ALL SELECT s FROM b ORDER BY s LIMIT 4 OFFSET 1",
            "SELECT id FROM a WHERE id > 1 INTERSECT SELECT a_id FROM b",
            "SELECT id FROM a EXCEPT SELECT a_id FROM b WHERE a_id = 1 ORDER BY id",
            "SELECT id, s FROM a UNION SELECT id FROM b",
            "SELECT id FROM a UNION SELECT id FROM b ORDER BY nope",
            "SELECT id FROM a WHERE id = 2 UNION SELECT id FROM a WHERE id IN (1, 2) ORDER BY 1",
            // FROM-subqueries: base, joined, nested, compound, grouped
            "SELECT q.n FROM (SELECT COUNT(*) AS n FROM b) AS q",
            "SELECT a.id, q.m FROM a JOIN (SELECT a_id, MAX(y) AS m FROM b GROUP BY a_id) AS q \
             ON q.a_id = a.id ORDER BY a.id",
            "SELECT * FROM (SELECT id FROM (SELECT id, x FROM a WHERE x = 20) AS i) AS o",
            "SELECT q.id FROM (SELECT id FROM a UNION SELECT id FROM b) AS q WHERE q.id > 3",
            "SELECT q.s, q.n FROM (SELECT s, COUNT(*) AS n FROM a GROUP BY s) AS q WHERE q.n > 1",
            "SELECT a.id FROM a, (SELECT 1 AS one) AS q WHERE a.id = q.one",
            // cross / comma / ON-less joins
            "SELECT a.id, c.z FROM a CROSS JOIN c WHERE a.id = c.k",
            "SELECT a.id, c.z FROM a, c WHERE a.id = 1",
            "SELECT COUNT(*) FROM a JOIN c",
            "SELECT a.id, c.z FROM a LEFT JOIN c WHERE c.k = 2",
            // LEFT joins, and sargs on the right of one
            "SELECT a.id, b.id FROM a LEFT JOIN b ON b.a_id = a.id ORDER BY a.id, b.id",
            "SELECT a.id, b.id FROM a LEFT JOIN b ON b.a_id = a.id WHERE b.id IS NULL",
            "SELECT a.id, b.y FROM a LEFT JOIN b ON b.a_id = a.id WHERE b.y = 1.0",
            "SELECT a.id, b.y FROM a LEFT JOIN b ON b.a_id = a.id WHERE b.y > 2 AND a.x = 10",
            "SELECT a.id, c.z FROM a LEFT JOIN c ON c.k = a.id LEFT JOIN b ON b.id = c.z",
            // non-equi and compound ON predicates
            "SELECT a.id, b.id FROM a JOIN b ON a.id < b.id WHERE b.y IS NOT NULL",
            "SELECT a.id, b.id FROM a JOIN b ON a.id = b.a_id AND b.y > 1",
            "SELECT a.id, b.id FROM a LEFT JOIN b ON a.id = b.a_id AND b.y > 1 ORDER BY 1, 2",
            "SELECT a.id, b.id FROM a LEFT JOIN b ON a.id + 0 = b.a_id",
            "SELECT a.id, b.id FROM a JOIN b ON a.s = b.s OR a.x IS NULL",
            "SELECT a.id, c.z FROM a CROSS JOIN c ON a.id = c.k",
            "SELECT a.id, b.id, c.z FROM a JOIN b ON a.id <= b.a_id JOIN c ON c.k = b.a_id \
             WHERE a.x = 10",
            // 1 = 1.0 join keys
            "SELECT b.id, c.z FROM b JOIN c ON b.y = c.k",
            // sub-selects: IN / EXISTS / scalar, correlated and not
            "SELECT id FROM a WHERE id IN (SELECT a_id FROM b)",
            "SELECT id FROM a WHERE id NOT IN (SELECT a_id FROM b)",
            "SELECT id FROM a WHERE id NOT IN (SELECT a_id FROM b WHERE a_id IS NOT NULL)",
            "SELECT id FROM a WHERE x IN (SELECT z / 10 FROM c WHERE c.k = a.id)",
            "SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.a_id = a.id AND b.y > 2)",
            "SELECT id FROM a WHERE NOT EXISTS (SELECT 1 FROM c WHERE c.k = a.id)",
            "SELECT id FROM a WHERE EXISTS (SELECT 1 FROM c WHERE k = 7)",
            "SELECT id, (SELECT COUNT(*) FROM b WHERE b.a_id = a.id) FROM a",
            "SELECT id FROM a WHERE x = (SELECT MAX(x) FROM a)",
            "SELECT id FROM a WHERE x > (SELECT MIN(z) FROM c WHERE c.k = a.id) / 10",
            "SELECT id FROM a WHERE id IN (SELECT a_id FROM b WHERE y IN (SELECT k FROM c))",
            "SELECT id FROM a WHERE id IN (SELECT id, x FROM a)",
            "SELECT a.id FROM a JOIN b ON b.a_id = a.id AND EXISTS (SELECT 1 FROM c WHERE c.k = b.id)",
            "SELECT s, COUNT(*) FROM a GROUP BY s HAVING COUNT(*) >= (SELECT COUNT(*) FROM c) - 2",
            "SELECT id FROM a ORDER BY (SELECT COUNT(*) FROM b WHERE b.a_id = a.id) DESC, id",
            // two different sub-selects in the same position of two cores: the
            // sub-select caches key on node addresses, so a projection list
            // that is copied and freed per call hands one's entry to the other
            "SELECT (SELECT MAX(id) FROM a) FROM a UNION ALL SELECT (SELECT MIN(id) FROM b) FROM a",
            "SELECT id FROM a WHERE id IN (SELECT (SELECT MAX(id) FROM a) FROM a) \
             OR id IN (SELECT (SELECT MIN(k) FROM c) FROM b)",
            "SELECT (SELECT MAX(y) FROM b WHERE b.a_id = a.id) FROM a UNION ALL \
             SELECT (SELECT MIN(z) FROM c WHERE c.k = a.id) FROM a",
        ] {
            check(&db, sql);
        }
    }

    /// Where the pipelined executor's tuples borrow from: no row at all (a
    /// core without FROM), the static NULL of a LEFT JOIN pad, a
    /// FROM-subquery's result, the tuple a correlated sub-select copies,
    /// a segment boundary; and the tail keying DISTINCT, GROUP BY and the
    /// compounds on borrowed values of every storage class.
    #[test]
    fn borrowed_tuples_match_the_reference() {
        let db = fixture();
        for sql in [
            // zero-width tuples
            "SELECT 1 WHERE 0",
            "SELECT COUNT(*)",
            "SELECT COUNT(*) WHERE 0",
            "SELECT COUNT(*), SUM(1), MIN('x') WHERE 1",
            "SELECT 1, 'x' WHERE 1 = 1 ORDER BY 1",
            // a LEFT JOIN pad read by a residual and by a GROUP BY key, for
            // each join operator (index, hash, nested loop)
            "SELECT a.id FROM a LEFT JOIN b ON b.a_id = a.id WHERE b.s IS NULL",
            "SELECT a.id FROM a LEFT JOIN c ON c.k = a.id WHERE c.z IS NULL AND a.id > 1",
            "SELECT a.id, b.id FROM a LEFT JOIN b ON b.a_id = a.id AND b.y > 1 WHERE b.y IS NULL",
            "SELECT b.s, COUNT(*), COUNT(b.id) FROM a LEFT JOIN b ON b.a_id = a.id GROUP BY b.s",
            "SELECT c.z, COUNT(*) FROM a LEFT JOIN c ON c.k = a.id GROUP BY c.z ORDER BY 2, 1",
            "SELECT b.y, MAX(a.id) FROM a LEFT JOIN b ON a.id < b.a_id GROUP BY b.y",
            // a FROM-subquery stage joined to a table, on either side
            "SELECT a.id, q.n FROM (SELECT a_id, COUNT(*) AS n FROM b GROUP BY a_id) AS q \
             JOIN a ON a.id = q.a_id",
            "SELECT a.s, q.m FROM a LEFT JOIN (SELECT a_id, MAX(y) AS m FROM b GROUP BY a_id) AS q \
             ON q.a_id = a.id WHERE q.m IS NULL OR q.m > 1",
            "SELECT q.s, COUNT(*) FROM (SELECT s FROM b) AS q JOIN c ON c.k = 1 GROUP BY q.s",
            // correlated sub-selects in a residual and in the projection
            "SELECT id FROM a WHERE x > (SELECT COUNT(*) FROM b WHERE b.a_id = a.id)",
            "SELECT a.id, (SELECT MAX(y) FROM b WHERE b.a_id = a.id) FROM a JOIN c ON c.k = a.id",
            "SELECT a.id, c.z FROM a JOIN c ON c.k = a.id \
             WHERE EXISTS (SELECT 1 FROM b WHERE b.a_id = c.k AND b.id > a.id)",
            "SELECT s, (SELECT COUNT(*) FROM b WHERE b.s = a.s) FROM a GROUP BY s",
            // a nested ON that can fail ends a segment
            "SELECT a.id, b.id, c.z FROM a JOIN b ON a.id < b.id JOIN c ON c.k = a.id",
            "SELECT a.id, b.id FROM a JOIN b ON a.id <= b.a_id + \
             (SELECT COUNT(*) FROM c WHERE c.k = b.id) ORDER BY 1, 2",
            "SELECT a.id, b.id FROM a LEFT JOIN b ON a.id < b.id AND nosuchfn(b.id) = 1",
            "SELECT a.id, b.id FROM a LEFT JOIN b ON a.id > b.a_id JOIN c ON c.k = b.a_id",
            // DISTINCT and GROUP BY over TEXT, INTEGER and REAL; 1 = 1.0
            "SELECT DISTINCT s FROM b",
            "SELECT DISTINCT y FROM b",
            "SELECT DISTINCT a_id, s FROM b ORDER BY 1",
            "SELECT DISTINCT CASE WHEN id % 2 = 0 THEN 1 ELSE 1.0 END FROM b",
            "SELECT CASE WHEN id % 2 = 0 THEN 1 ELSE 1.0 END AS k, COUNT(*) FROM b GROUP BY k",
            "SELECT y, COUNT(*), SUM(id), AVG(id) FROM b GROUP BY y",
            "SELECT s, y, COUNT(*) FROM b GROUP BY s, y ORDER BY 3 DESC, 1",
            "SELECT s, MIN(y), MAX(y), AVG(y), TOTAL(y), SUM(y), GROUP_CONCAT(id, '|') FROM b \
             GROUP BY s",
            "SELECT COUNT(DISTINCT y), SUM(DISTINCT a_id), COUNT(DISTINCT s), MIN(s), MAX(s) \
             FROM b",
            "SELECT k, COUNT(DISTINCT z) FROM c GROUP BY k HAVING COUNT(*) > 1",
            // aggregates over mixed storage classes, overflow, signed zero
            "SELECT SUM(v), TOTAL(v), MIN(v), MAX(v) FROM (SELECT 2 AS v UNION ALL SELECT 1.5 \
             UNION ALL SELECT 'x' UNION ALL SELECT NULL) AS q",
            "SELECT SUM(v) FROM (SELECT 9223372036854775807 AS v UNION ALL SELECT 1) AS q",
            "SELECT SUM(v) FROM (SELECT 9223372036854775807 AS v UNION ALL SELECT 1 \
             UNION ALL SELECT 0.5) AS q",
            "SELECT SUM(v), AVG(v), TOTAL(v) FROM (SELECT -0.0 AS v UNION ALL SELECT -0.0) AS q",
            // compounds deduplicate on normalised values
            "SELECT 1 UNION SELECT 1.0",
            "SELECT 1.0 UNION SELECT 1 UNION SELECT 'x' UNION SELECT NULL UNION SELECT NULL",
            "SELECT y FROM b INTERSECT SELECT k FROM c",
            "SELECT y FROM b EXCEPT SELECT k FROM c",
            "SELECT s, y FROM b UNION SELECT s, id FROM b ORDER BY 1, 2",
        ] {
            check(&db, sql);
        }
    }

    #[test]
    fn errors_keep_their_text_and_their_precedence() {
        let db = fixture();
        for sql in [
            // unknown tables, at every FROM position
            "SELECT * FROM ghost",
            "SELECT * FROM a JOIN ghost ON ghost.id = a.id",
            "SELECT * FROM ghost JOIN a ON ghost.id = a.id",
            "SELECT * FROM a, ghost, phantom",
            "SELECT * FROM (SELECT * FROM ghost) AS q",
            "SELECT * FROM a WHERE id IN (SELECT id FROM ghost)",
            "SELECT * FROM a WHERE 1 = 0 AND id IN (SELECT id FROM ghost)",
            "SELECT id FROM a UNION SELECT id FROM ghost",
            "SELECT ghost.* FROM a",
            "SELECT *",
            // unknown columns, at every clause position
            "SELECT nope FROM a",
            "SELECT a.nope FROM a",
            "SELECT id FROM a WHERE nope = 1",
            "SELECT id FROM a WHERE id = 1 AND nope = 1",
            "SELECT id FROM a WHERE id = 99 AND nope = 1",
            "SELECT id FROM a WHERE nope = 1 AND id = 99",
            "SELECT id FROM a WHERE id = 1 OR nope = 1",
            "SELECT id FROM a WHERE x IS NULL AND nope = 1",
            "SELECT id FROM a JOIN b ON b.nope = a.id",
            "SELECT id FROM a JOIN b ON b.a_id = a.nope WHERE a.id = 1",
            "SELECT a.id FROM a JOIN b ON a.id = 1 OR b.nope = 2 WHERE ghost = 1",
            "SELECT a.id FROM a JOIN b ON a.id < b.id JOIN c ON c.nope = 1 OR a.id = 1",
            "SELECT a.id FROM a LEFT JOIN b ON b.a_id = a.id AND b.nope = 1",
            "SELECT s FROM a GROUP BY nope",
            "SELECT s FROM a GROUP BY s HAVING nope > 1",
            "SELECT id FROM a ORDER BY nope",
            "SELECT id FROM a LIMIT nope",
            "SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.nope = a.id)",
            "SELECT q.nope FROM (SELECT id FROM a) AS q",
            "SELECT id FROM (SELECT nope FROM a) AS q",
            // an earlier failure wins over a later one
            "SELECT nope FROM a JOIN ghost ON 1",
            "SELECT a.id FROM a JOIN b ON b.nope = a.id JOIN ghost ON 1",
            "SELECT a.id FROM a JOIN b ON b.a_id = a.id JOIN ghost ON b.nope = 1",
            "SELECT a.id FROM a JOIN (SELECT nope FROM b) AS q ON 1 JOIN ghost ON 1",
            "SELECT id FROM a WHERE nope = 1 AND COUNT(*) > 1",
            "SELECT nope FROM a WHERE COUNT(*) > 1",
            "SELECT nope FROM a WHERE id = 1 AND other = 2",
            "SELECT a.id FROM a JOIN b ON a.id < b.nope WHERE COUNT(*) > 0",
            // an empty side never evaluates ON
            "SELECT a.id FROM a JOIN (SELECT id FROM b WHERE id > 99) AS q ON q.nope = 1",
            // ambiguity, aggregates, shapes
            "SELECT id FROM a, b",
            "SELECT a.id FROM a JOIN b ON id = a_id",
            "SELECT id FROM a WHERE SUM(x) > 1",
            "SELECT 1 WHERE COUNT(*) > 0",
            "SELECT SUM(COUNT(x)) FROM a",
            "SELECT id FROM a WHERE x = (SELECT id, x FROM a)",
            "SELECT nosuchfn(id) FROM a",
            "SELECT id FROM a WHERE nosuchfn(id) = 1 AND x = 10",
        ] {
            check(&db, sql);
        }
    }

    #[test]
    fn unusable_indexes_degrade_in_place() {
        // a plan prepared while the index was healthy, run after a NaN made
        // it unbuildable under an unchanged fingerprint
        let mut db = fixture();
        let queries = [
            "SELECT id FROM b WHERE y = 1.0",
            "SELECT id FROM b WHERE y > 1.5 AND s = 'q'",
            "SELECT a.id, b.id FROM a JOIN b ON b.y = a.id WHERE a.id = 1",
            "SELECT a.id, b.id FROM a LEFT JOIN b ON b.y = a.id WHERE a.id IN (1, 4)",
        ];
        let cache = PlanCache::new(8);
        for sql in queries {
            cache.execute(&db, sql).unwrap();
        }
        let healthy = cache.stats().ix_scans;
        assert!(healthy >= queries.len() as u64, "the plans should be index-driven: {healthy}");
        // the dialect has no NaN literal or expression: plant one directly
        db.insert_row("b", vec![Value::Int(7), Value::Int(1), Value::Real(f64::NAN), Value::Null])
            .unwrap();
        assert!(db.index("b", "y").is_none(), "a NaN must make the index unbuildable");
        for sql in queries {
            let hits = cache.stats().hits;
            let stale = cache.execute(&db, sql).map(|(rs, _)| rs);
            assert_eq!(cache.stats().hits, hits + 1, "{sql}: the stale plan must be the one that ran");
            assert_eq!(outcome(stale), outcome(execute(&db, &parse_select(sql).unwrap())), "{sql}");
            check(&db, sql);
        }
        // an index section the store dropped as damaged on load
        let mut db = fixture();
        db.install_unusable_index(crate::index::IndexDef { table: "c".into(), column: "z".into() })
            .unwrap();
        db.install_unusable_index(crate::index::IndexDef { table: "b".into(), column: "a_id".into() })
            .unwrap();
        for sql in [
            "SELECT k FROM c WHERE z = 200",
            "SELECT a.id, b.id FROM a JOIN b ON b.a_id = a.id WHERE a.id = 1",
        ] {
            check(&db, sql);
        }
    }

    /// The planner's contract (DESIGN.md § Physical planning & pipelined
    /// execution): a WHERE's conjuncts have no evaluation order, in SQLite
    /// neither, so with every conjunct resolved a pushed-down sarg may
    /// empty the stream before a conjunct that would have failed sees a
    /// row. Pinned where this reference, which evaluates every conjunct,
    /// fails instead. An unresolved column always fails: it turns pushdown
    /// off.
    #[test]
    fn pushdown_can_hide_an_error_in_another_conjunct() {
        let db = fixture();
        let sql = "SELECT id FROM a WHERE x IN (SELECT z FROM ghost) AND id = 99";
        let reference = execute(&db, &parse_select(sql).unwrap());
        assert_eq!(reference.unwrap_err().to_string(), "no such table: ghost");
        assert!(db.query(sql).unwrap().rows.is_empty());
        check(&db, "SELECT id FROM a WHERE x IN (SELECT z FROM ghost) AND id = 1");
        check(&db, "SELECT id FROM a WHERE x IN (SELECT z FROM ghost) AND id = 99 AND nope = 1");
    }

    // ---------------- random statements over random tables ----------------

    struct Gen {
        rng: StdRng,
        /// How many of `t0, t1, t2` the core being generated joins.
        joined: usize,
    }

    impl Gen {
        fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options.choose(&mut self.rng).expect("non-empty options")
        }

        fn chance(&mut self, percent: u32) -> bool {
            self.rng.gen_range(0..100) < percent
        }

        fn value(&mut self) -> String {
            match self.rng.gen_range(0..10) {
                0 => "NULL".to_owned(),
                1 => format!("{}.0", self.rng.gen_range(0..3)),
                2 => format!("'{}'", self.pick(&["p", "q", "1"])),
                _ => self.rng.gen_range(0..3).to_string(),
            }
        }

        /// Three tables of up to six rows over a domain small enough that
        /// joins match, with NULLs; each column is indexed half the time.
        fn database(&mut self) -> Database {
            let mut db = Database::new("rand");
            db.execute_script(
                "CREATE TABLE t0 (a INTEGER, b INTEGER, c TEXT);
                 CREATE TABLE t1 (a INTEGER, d REAL, e TEXT);
                 CREATE TABLE t2 (f INTEGER, g INTEGER);",
            )
            .unwrap();
            for (table, width) in [("t0", 3), ("t1", 3), ("t2", 2)] {
                for _ in 0..self.rng.gen_range(0..9) {
                    let row: Vec<String> = (0..width).map(|_| self.value()).collect();
                    db.execute_script(&format!("INSERT INTO {table} VALUES ({})", row.join(", ")))
                        .unwrap();
                }
            }
            for (t, c) in [("t0", "a"), ("t0", "b"), ("t1", "a"), ("t1", "d"), ("t2", "f"), ("t2", "g")] {
                if self.chance(50) {
                    db.create_index(t, c).unwrap();
                }
            }
            db
        }

        /// A column reference. At the top level it usually resolves
        /// against `t0 [t1 [t2]]` and sometimes names nothing, or two
        /// things. Inside a sub-select over `table` it always resolves: to
        /// the table's own columns or, correlated, to `t0` outside.
        fn column(&mut self, sub: Option<&str>) -> &'static str {
            match sub {
                Some("t0") => self.pick(&["t0.a", "t0.b", "t0.c"]),
                Some("t1") => self.pick(&["t1.a", "t1.d", "t1.e", "t1.a", "t0.a", "t0.b"]),
                Some(_) => self.pick(&["t2.f", "t2.g", "t2.f", "t0.a", "t0.b"]),
                None if self.chance(3) => self.pick(&["nope", "t0.nope", "t9.a", "a", "t2.f", "d"]),
                None => {
                    let pool: &[&str] = &[
                        "t0.a", "t0.b", "t0.c", "b", "c", "t0.a", "t1.a", "t1.d", "d", "e", "t2.f", "f", "g",
                    ];
                    self.pick(&pool[..[6, 10, 13][self.joined - 1]])
                }
            }
        }

        fn predicate(&mut self, depth: u32, sub: Option<&str>) -> String {
            let col = self.column(sub);
            match self.rng.gen_range(0..14) {
                0 => format!("{col} IS NULL"),
                1 => format!("{col} IS NOT NULL"),
                2 => format!("{col} BETWEEN {} AND {}", self.value(), self.value()),
                3 => format!("{col} IN ({}, {})", self.value(), self.value()),
                4 => format!("{col} {} {}", self.pick(&["<", "<=", ">", ">="]), self.value()),
                5 => format!("{} = {col}", self.value()),
                6 => format!("{col} = {}", self.column(sub)),
                7 if depth > 0 => format!(
                    "({} OR {})",
                    self.predicate(depth - 1, sub),
                    self.predicate(depth - 1, sub)
                ),
                8 if depth > 0 => format!("NOT ({})", self.predicate(depth - 1, sub)),
                9 if depth > 0 => format!("{col} IN ({})", self.subselect(depth - 1)),
                10 if depth > 0 => {
                    format!("{}EXISTS ({})", self.pick(&["", "NOT "]), self.subselect(depth - 1))
                }
                11 if depth > 0 => format!("{col} >= ({})", self.subselect(depth - 1)),
                12 if sub.is_none() && self.chance(10) => "COUNT(*) > 0".to_owned(),
                _ => format!("{col} = {}", self.value()),
            }
        }

        fn conjunction(&mut self, depth: u32, sub: Option<&str>) -> String {
            let n = [1, 1, 1, 2, 2, 3][self.rng.gen_range(0..6)];
            (0..n).map(|_| self.predicate(depth, sub)).collect::<Vec<_>>().join(" AND ")
        }

        /// A one-column sub-select that cannot fail, correlated with `t0`
        /// of the enclosing statement about a third of the time. (One that
        /// can fail next to a sargable conjunct falls under the planner's
        /// contract — see `pushdown_can_hide_an_error_in_another_conjunct`.)
        fn subselect(&mut self, depth: u32) -> String {
            let table = self.pick(&["t0", "t1", "t2"]);
            let col = match table {
                "t0" => self.pick(&["t0.a", "t0.b"]),
                "t1" => self.pick(&["t1.a", "t1.d"]),
                _ => self.pick(&["t2.f", "t2.g"]),
            };
            let col = if self.chance(25) { format!("MAX({col})") } else { col.to_owned() };
            let mut sql = format!("SELECT {col} FROM {table}");
            if self.chance(70) {
                sql.push_str(&format!(" WHERE {}", self.conjunction(depth, Some(table))));
            }
            sql
        }

        fn from(&mut self, depth: u32) -> String {
            let mut sql = match self.rng.gen_range(0..25) {
                0..=2 if depth > 0 => format!(
                    "(SELECT a, b, c FROM t0 WHERE {}) AS t0",
                    self.predicate(depth - 1, Some("t0"))
                ),
                3 => "ghost AS t0".to_owned(),
                _ => "t0".to_owned(),
            };
            self.joined = self.rng.gen_range(1..4);
            for t in &["t1", "t2"][..self.joined - 1] {
                let key = if *t == "t1" { "t1.a" } else { "t2.f" };
                let table = match self.rng.gen_range(0..25) {
                    0..=2 if depth > 0 => format!("(SELECT * FROM {t}) AS {t}"),
                    3 => format!("ghost AS {t}"),
                    _ => (*t).to_owned(),
                };
                sql.push_str(&match self.rng.gen_range(0..9) {
                    0 => format!(", {table}"),
                    1 => format!(" CROSS JOIN {table}"),
                    2 => format!(" JOIN {table} ON {}", self.predicate(depth, None)),
                    3 => format!(" LEFT JOIN {table} ON {}", self.conjunction(depth, None)),
                    4 => format!(" LEFT JOIN {table} ON {key} = t0.a"),
                    5 => format!(" JOIN {table} ON {key} = t0.b AND {}", self.predicate(0, None)),
                    _ => format!(" JOIN {table} ON t0.a = {key}"),
                });
            }
            sql
        }

        fn core(&mut self, depth: u32, width: Option<usize>) -> String {
            let grouped = width.is_none() && self.chance(20);
            let items = match width {
                Some(n) if self.chance(10) => {
                    (0..n).map(|_| format!("({})", self.subselect(0))).collect::<Vec<_>>().join(", ")
                }
                Some(n) => (0..n).map(|_| self.column(None)).collect::<Vec<_>>().join(", "),
                None if grouped => format!("{}, COUNT(*) AS n", self.column(None)),
                None if depth > 0 && self.chance(10) => {
                    format!("t0.a, ({}), ({})", self.subselect(0), self.subselect(0))
                }
                None => self
                    .pick(&["*", "t0.*", "t0.a, c", "COUNT(*), MAX(t0.b)", "t0.b, t0.a", "*", "nope", "t1.*"])
                    .to_owned(),
            };
            let distinct = if self.chance(10) { "DISTINCT " } else { "" };
            let mut sql = format!("SELECT {distinct}{items}");
            // without a FROM there is no `t0` for a sub-select to correlate with
            let depth = if self.chance(95) {
                sql.push_str(&format!(" FROM {}", self.from(depth)));
                depth
            } else {
                self.joined = 1;
                0
            };
            if self.chance(75) {
                sql.push_str(&format!(" WHERE {}", self.conjunction(depth, None)));
            }
            if grouped {
                sql.push_str(&format!(" GROUP BY {}", self.pick(&["1", "t0.a", "c", "1", "nope"])));
                if self.chance(40) {
                    sql.push_str(" HAVING n > 1");
                }
            }
            sql
        }

        fn statement(&mut self) -> String {
            let compound = self.chance(20);
            let mut sql = self.core(2, compound.then_some(2));
            if compound {
                let op = self.pick(&["UNION", "UNION ALL", "INTERSECT", "EXCEPT"]);
                let width = if self.chance(8) { 1 } else { 2 };
                sql = format!("{sql} {op} {}", self.core(1, Some(width)));
            }
            if self.chance(50) {
                let term = if compound {
                    self.pick(&["1", "2 DESC", "1, 2", "nope"])
                } else {
                    self.pick(&["1", "t0.a DESC", "c", "t0.b, t0.a", "1 DESC", "nope", "2"])
                };
                sql.push_str(&format!(" ORDER BY {term}"));
            }
            if self.chance(30) {
                sql.push_str(&format!(" LIMIT {}", self.rng.gen_range(0..5)));
                if self.chance(30) {
                    sql.push_str(" OFFSET 1");
                }
            }
            sql
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn random_statements_match_the_reference(seed in 0u64..u64::MAX) {
            let mut gen = Gen { rng: StdRng::seed_from_u64(seed), joined: 1 };
            let mut db = gen.database();
            let statements: Vec<String> = (0..12).map(|_| gen.statement()).collect();
            let cache = PlanCache::new(16);
            for sql in &statements {
                check(&db, sql);
                let _ = cache.execute(&db, sql);
            }
            // every index turns unusable under an unchanged fingerprint: the
            // cached plans must degrade in place
            for def in db.index_defs().to_vec() {
                db.install_unusable_index(def).unwrap();
            }
            let hits = cache.stats().hits;
            for sql in &statements {
                let stale = cache.execute(&db, sql).map(|(rs, _)| rs);
                let want = execute(&db, &parse_select(sql).unwrap());
                prop_assert_eq!(outcome(stale), outcome(want), "stale plan of {}", sql);
            }
            prop_assert_eq!(cache.stats().hits, hits + 12);
        }
    }
}

/// UPDATE and DELETE — planned, atomic, index-preserving — against the
/// snapshot-and-scan statements they replaced.
#[cfg(test)]
mod dml_tests {
    use super::*;
    use crate::index::ColumnIndex;
    use crate::parser::parse_statement;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Every table's rows, as text so that a NaN equals itself.
    fn contents(db: &Database) -> String {
        db.schema.tables.iter().map(|t| format!("{}: {:?}\n", t.name, db.rows(&t.name))).collect()
    }

    /// Run one statement through production or through the oracle (which
    /// differs for UPDATE and DELETE only).
    fn run(db: &mut Database, oracle: bool, sql: &str) -> Result<usize, String> {
        match (parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}")), oracle) {
            (Stmt::Update(u), false) => db.execute_update(u),
            (Stmt::Update(u), true) => execute_update(db, &u),
            (Stmt::Delete(d), false) => db.execute_delete(d),
            (Stmt::Delete(d), true) => execute_delete(db, &d),
            _ => db.execute_script(sql).map(|()| 0),
        }
        .map_err(|e| e.to_string())
    }

    /// Apply `sql` to `db` and to `oracle` (equal on entry, equal on exit).
    /// Accepted by the oracle: same count, same rows in the same order.
    /// Rejected: same error text, and `db` exactly as it was — the oracle
    /// may have rewritten rows before failing, so it restarts from `db`.
    /// Either way every declared index of `db`, resident or not, is the
    /// index a rebuild would produce.
    fn step(db: &mut Database, oracle: &mut Database, sql: &str) {
        let before = contents(db);
        let want = run(oracle, true, sql);
        let got = run(db, false, sql);
        assert_eq!(got, want, "{sql}\non\n{before}");
        if want.is_ok() {
            assert_eq!(contents(db), contents(oracle), "{sql}\non\n{before}");
        } else {
            assert_eq!(contents(db), before, "a failed statement changed something: {sql}");
            *oracle = db.clone();
        }
        for def in db.index_defs() {
            let col = db.schema.table(&def.table).unwrap().column_index(&def.column).unwrap();
            let rebuilt = ColumnIndex::build(db.rows(&def.table).unwrap(), col);
            assert_eq!(
                format!("{:?}", db.index(&def.table, &def.column).as_deref()),
                format!("{:?}", rebuilt.as_ref()),
                "index {}.{} after {sql}\non\n{before}",
                def.table,
                def.column
            );
        }
    }

    fn check_all(db: &mut Database, statements: &[&str]) {
        let mut oracle = db.clone();
        for sql in statements {
            step(db, &mut oracle, sql);
        }
    }

    /// `p` with an index on `id` and a *resident* index on `name`.
    fn people() -> Database {
        let mut db = Database::new("dml");
        db.execute_script(
            "CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT, age INTEGER);
             CREATE TABLE q (pid INTEGER, score REAL);
             INSERT INTO p VALUES (1, 'a', 30), (2, 'b', 41), (3, 'c', NULL);
             INSERT INTO q VALUES (1, 1.5), (1, 2.5), (3, NULL);",
        )
        .unwrap();
        db.create_index("p", "id").unwrap();
        db.create_index("p", "name").unwrap();
        assert!(db.index("p", "name").is_some());
        db
    }

    #[test]
    fn hand_written_shapes_match_the_oracle() {
        check_all(
            &mut people(),
            &[
                "UPDATE p SET age = age + 1 WHERE id = 2",
                "UPDATE p SET age = 1 + age, name = name || '!' WHERE age > 30 AND name <> 'zz'",
                "UPDATE p SET name = 'x' WHERE id IN (1, 3)",
                "UPDATE p SET name = 'y' WHERE id BETWEEN 2 AND 9 AND age IS NULL",
                "UPDATE p SET age = '55' WHERE id = 1.0",
                "UPDATE p SET age = (SELECT MAX(age) FROM p)",
                "UPDATE p SET age = (SELECT COUNT(*) FROM q WHERE q.pid = p.id)",
                "UPDATE p SET id = id + 10 WHERE id IN (SELECT pid FROM q)",
                "UPDATE p SET id = id - 10 WHERE EXISTS (SELECT 1 FROM q WHERE q.pid = p.id - 10)",
                "UPDATE p SET age = age, age = 7 WHERE name LIKE 'x%' OR id = 2",
                "UPDATE p SET age = NULL WHERE 0",
                "INSERT INTO p VALUES (4, 'd', 4), (5, NULL, NULL)",
                "DELETE FROM p WHERE id = 4",
                "DELETE FROM p WHERE age IS NULL AND name IS NULL",
                "DELETE FROM q WHERE score > (SELECT MIN(score) FROM q)",
                "DELETE FROM p WHERE id NOT IN (SELECT pid FROM q WHERE pid IS NOT NULL)",
                "DELETE FROM q",
                "DELETE FROM q WHERE pid = 1",
                // faults, at each position
                "UPDATE ghost SET x = 1",
                "UPDATE p SET ghost = 1",
                "UPDATE p SET ghost = 1, age = nope WHERE nope = 1",
                "UPDATE p SET age = nope",
                "UPDATE p SET age = nope WHERE id = 99",
                "UPDATE p SET age = nosuchfn(age) WHERE id = 1",
                "UPDATE p SET age = MAX(age)",
                "UPDATE p SET age = (SELECT id, age FROM p)",
                "UPDATE p SET age = (SELECT x FROM ghost) WHERE id = 1",
                "UPDATE p SET age = 1 WHERE nope = 1",
                "UPDATE p SET age = 1 WHERE id = 1 AND nope = 1",
                "UPDATE p SET age = 1 WHERE id = 99 AND nope = 1",
                "UPDATE p SET age = 1 WHERE nope = 1 AND id = 99",
                "UPDATE p SET age = 1 WHERE id = 1 OR nope = 1",
                "UPDATE p SET age = 1 WHERE p.id = 1 AND q.pid = 1",
                "UPDATE p SET age = 1 WHERE COUNT(*) > 0",
                "UPDATE p SET age = 1 WHERE id = 99 AND COUNT(*) > 0",
                "UPDATE p SET age = 1 WHERE id IN (SELECT pid FROM ghost)",
                "DELETE FROM ghost",
                "DELETE FROM p WHERE nope = 1",
                "DELETE FROM p WHERE id = 1 OR nope = 1",
                "DELETE FROM p WHERE id = 99 AND nope = 1",
                "DELETE FROM p WHERE SUM(age) > 1",
                "DELETE FROM p WHERE age = (SELECT id, age FROM p)",
                "DELETE FROM p WHERE EXISTS (SELECT 1 FROM q WHERE q.nope = p.id)",
                // an empty table reaches no expression at all
                "DELETE FROM p",
                "UPDATE p SET age = nope WHERE nope = 1 AND COUNT(*) > 0",
                "DELETE FROM p WHERE nosuchfn(id)",
            ],
        );
    }

    /// The two places where the statements deliberately answer differently
    /// from the oracle, pinned so that moving either is a decision.
    #[test]
    fn divergences_from_the_oracle_are_the_documented_ones() {
        let run_both = |sql: &str| {
            let (mut db, mut oracle) = (people(), people());
            (run(&mut db, false, sql), run(&mut oracle, true, sql), contents(&db) == contents(&people()))
        };
        // the planner's contract, that conjuncts have no evaluation order
        // (see `pushdown_can_hide_an_error_in_another_conjunct`): a pushed
        // sarg empties the stream before a fully resolved conjunct that
        // would have failed sees a row
        let (got, want, untouched) =
            run_both("DELETE FROM p WHERE age IN (SELECT x FROM ghost) AND id = 99");
        assert_eq!(want.unwrap_err(), "no such table: ghost");
        assert_eq!((got, untouched), (Ok(0), true));
        // find → evaluate: the whole search runs before the first SET
        // expression, so of two faults the WHERE's is the one reported
        let (got, want, untouched) =
            run_both("UPDATE p SET age = nope WHERE id = 1 OR ghost = 1");
        assert_eq!(want.unwrap_err(), "no such column: nope");
        assert_eq!((got, untouched), (Err("no such column: ghost".to_owned()), true));
    }

    // ---------------- random statements over hostile tables ----------------

    struct Gen {
        rng: StdRng,
    }

    /// Integer-, real- and text-affinity columns plus `x`, which has none
    /// and so keeps `1`, `1.0` and `'1'` apart.
    const T_COLS: &[&str] = &["id", "v", "r", "s", "x"];
    const O_COLS: &[&str] = &["k", "w"];

    impl Gen {
        fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options.choose(&mut self.rng).expect("non-empty options")
        }

        fn chance(&mut self, percent: u32) -> bool {
            self.rng.gen_range(0..100) < percent
        }

        /// A stored value: NULL, NaN, the i64 edges, `1` / `1.0` / `'1'`,
        /// empty and case-mangled text.
        fn stored(&mut self) -> Value {
            match self.rng.gen_range(0..16) {
                0 | 1 => Value::Null,
                2 => Value::Real(1.0),
                3 => Value::Real(2.5),
                4 => Value::text("1"),
                5 => Value::text(""),
                6 => Value::text(self.pick(&["Ab", "aB", "ab"])),
                7 => Value::Int(if self.chance(50) { i64::MAX } else { i64::MIN }),
                8 if self.chance(25) => Value::Real(f64::NAN),
                _ => Value::Int(self.rng.gen_range(0..4)),
            }
        }

        fn literal(&mut self) -> String {
            match self.rng.gen_range(0..14) {
                0 => "NULL".to_owned(),
                1 => "1.0".to_owned(),
                2 => "2.5".to_owned(),
                3 => "'1'".to_owned(),
                4 => "''".to_owned(),
                5 => format!("'{}'", self.pick(&["Ab", "aB", "ab"])),
                6 => self.pick(&["9223372036854775807", "-9223372036854775807", "-1"]).to_owned(),
                _ => self.rng.gen_range(0..4).to_string(),
            }
        }

        /// `t` and `o`, up to eight rows each; every column declared as an
        /// index half the time, and half of those built right away.
        fn database(&mut self) -> Database {
            let mut db = Database::new("hostile");
            db.execute_script(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, r REAL, s TEXT, x BLOB);
                 CREATE TABLE o (k INTEGER, w BLOB);",
            )
            .unwrap();
            for (table, cols) in [("t", T_COLS), ("o", O_COLS)] {
                for rid in 0..self.rng.gen_range(0..9) {
                    let mut row: Vec<Value> = cols.iter().map(|_| self.stored()).collect();
                    if self.chance(80) {
                        row[0] = Value::Int(rid);
                    }
                    db.insert_row(table, row).unwrap();
                }
                for c in cols {
                    if self.chance(50) {
                        db.create_index(table, c).unwrap();
                        if self.chance(50) {
                            db.index(table, c);
                        }
                    }
                }
            }
            db
        }

        fn cols(table: &str) -> &'static [&'static str] {
            if table == "t" { T_COLS } else { O_COLS }
        }

        /// A column of `table`, qualified half the time. In a sub-select
        /// over the *other* table it may instead be a qualified — hence
        /// correlated — column of the statement's `target`.
        fn column(&mut self, table: &str, target: Option<&str>) -> String {
            let (table, qualify) = match target {
                Some(outer) if outer != table && self.chance(30) => (outer, true),
                _ => (table, self.chance(50)),
            };
            let col = self.pick(Self::cols(table));
            if qualify { format!("{table}.{col}") } else { col.to_owned() }
        }

        /// A one-column sub-select that cannot fail: over the target
        /// itself (self-referencing) or the other table (possibly
        /// correlated with the target's row).
        fn subselect(&mut self, target: &str, depth: u32) -> String {
            let table = self.pick(&["t", "o"]);
            let col = self.pick(Self::cols(table));
            let item = match self.rng.gen_range(0..4) {
                0 => format!("MAX({col})"),
                1 => format!("COUNT({col})"),
                _ => col.to_owned(),
            };
            let mut sql = format!("SELECT {item} FROM {table}");
            if self.chance(60) {
                sql.push_str(&format!(" WHERE {}", self.predicate(table, Some(target), depth)));
            }
            sql
        }

        fn predicate(&mut self, table: &str, target: Option<&str>, depth: u32) -> String {
            let col = self.column(table, target);
            // sub-selects see the statement's target as their outer row
            let outer = target.unwrap_or(table);
            match self.rng.gen_range(0..16) {
                0 => format!("{col} IS NULL"),
                1 => format!("{col} IS NOT NULL"),
                2 => format!("{col} BETWEEN {} AND {}", self.literal(), self.literal()),
                3 => format!("{col} IN ({}, {})", self.literal(), self.literal()),
                4 => format!("{col} {} {}", self.pick(&["<", "<=", ">", ">=", "<>"]), self.literal()),
                5 => format!("{} = {col}", self.literal()),
                6 => format!("{col} = {}", self.column(table, target)),
                7 => format!("{col} LIKE '{}'", self.pick(&["a%", "%b", "_", "1%", ""])),
                8 if depth > 0 => format!(
                    "({} OR {})",
                    self.predicate(table, target, depth - 1),
                    self.predicate(table, target, depth - 1)
                ),
                9 if depth > 0 => format!("NOT ({})", self.predicate(table, target, depth - 1)),
                10 if depth > 0 => {
                    format!("{col} {}IN ({})", self.pick(&["", "NOT "]), self.subselect(outer, depth - 1))
                }
                11 if depth > 0 => {
                    format!("{}EXISTS ({})", self.pick(&["", "NOT "]), self.subselect(outer, depth - 1))
                }
                12 if depth > 0 => format!("{col} >= ({})", self.subselect(outer, depth - 1)),
                _ => format!("{col} = {}", self.literal()),
            }
        }

        fn conjunction(&mut self, table: &str) -> String {
            let n = [1, 1, 1, 2, 2, 3][self.rng.gen_range(0..6)];
            (0..n).map(|_| self.predicate(table, None, 2)).collect::<Vec<_>>().join(" AND ")
        }

        fn set_expr(&mut self, table: &str) -> String {
            let col = self.column(table, None);
            match self.rng.gen_range(0..9) {
                0 => format!("{col} + 1"),
                1 => col,
                2 => format!("{col} || 'x'"),
                3 => format!("CASE WHEN {col} IS NULL THEN 0 ELSE {col} END"),
                4 => format!("(SELECT MAX({}) FROM {table})", self.pick(Self::cols(table))),
                5 | 6 => format!("({})", self.subselect(table, 1)),
                _ => self.literal(),
            }
        }

        /// One statement with at most one fault in it. (Two faults in one
        /// statement, or a sub-select that fails beside a sargable
        /// conjunct, are `divergences_from_the_oracle_are_the_documented_ones`.)
        fn statement(&mut self) -> String {
            let table = self.pick(&["t", "t", "t", "o"]);
            let fault = if self.chance(15) { self.rng.gen_range(1..9) } else { 0 };
            let target = if fault == 1 { "ghost" } else { table };
            let mut where_clause = match fault {
                2 => Some(format!("{} AND nope = 1", self.conjunction(table))),
                3 => Some(format!("nope.id = 1 OR {}", self.conjunction(table))),
                4 => Some(format!("{} AND COUNT(*) > 0", self.conjunction(table))),
                5 => Some("v IN (SELECT k FROM ghost)".to_owned()),
                _ if self.chance(85) => Some(self.conjunction(table)),
                _ => None,
            };
            match self.rng.gen_range(0..10) {
                0 | 1 => {
                    let row: Vec<String> = Self::cols(table).iter().map(|_| self.literal()).collect();
                    format!("INSERT INTO {target} VALUES ({})", row.join(", "))
                }
                2 | 3 => {
                    let w = where_clause.take().map(|w| format!(" WHERE {w}")).unwrap_or_default();
                    format!("DELETE FROM {target}{w}")
                }
                _ => {
                    let mut sets: Vec<String> = (0..self.rng.gen_range(1..3))
                        .map(|_| format!("{} = {}", self.pick(Self::cols(table)), self.set_expr(table)))
                        .collect();
                    // a SET fault beside a WHERE that cannot fail
                    match fault {
                        6 => sets.push("nope = 1".to_owned()),
                        7 => sets.push(format!("{} = nope + 1", self.pick(Self::cols(table)))),
                        8 => sets.push(format!(
                            "{} = {}",
                            self.pick(Self::cols(table)),
                            self.pick(&["nosuchfn(1)", "MAX(id)", "(SELECT 1, 2)", "(SELECT k FROM ghost)"])
                        )),
                        _ => {}
                    }
                    let w = where_clause.take().map(|w| format!(" WHERE {w}")).unwrap_or_default();
                    format!("UPDATE {target} SET {}{w}", sets.join(", "))
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn random_dml_matches_the_oracle(seed in 0u64..u64::MAX) {
            let mut gen = Gen { rng: StdRng::seed_from_u64(seed) };
            let mut db = gen.database();
            let mut oracle = db.clone();
            for _ in 0..12 {
                let sql = gen.statement();
                step(&mut db, &mut oracle, &sql);
            }
        }
    }
}
