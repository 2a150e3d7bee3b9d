//! Expression evaluation and the shared tail of every SELECT: projection,
//! grouping, aggregation, DISTINCT, ORDER BY, LIMIT, and compound
//! combination.
//!
//! FROM and WHERE are not here. Every SELECT core — top level or
//! sub-select — lowers to a [`PhysicalPlan`] and streams through
//! `crate::pipelined`; [`exec_select_inner`] hands the surviving tuples to
//! [`project_filtered`]. Every operator charges a row-visit counter that
//! the Refinement stage's vote rule uses as a deterministic
//! execution-cost proxy.
//!
//! The executor never sees a name. Everything it evaluates went through
//! the binding pass (`crate::prepare`): a column is a slot of the row or of
//! an enclosing row, or an [`Expr::Unresolved`] that raises its error. The
//! only names left are ORDER BY terms that name an output label, which the
//! tail reads as positions.

use crate::ast::*;
use crate::db::Database;
use crate::error::{SqlError, SqlResult};
use crate::functions::{
    apply_binary, apply_unary, call_scalar, cast_value, is_aggregate_name, like_match, scalar,
};
use crate::pipelined::Tuples;
use crate::plan::PhysicalPlan;
use crate::scope::{self, ColBinding};
use crate::value::{NormKey, ResultSet, Row, Value};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of row visits across scans and join outputs; a deterministic
    /// proxy for execution cost.
    pub rows_scanned: u64,
}

/// A tuple the evaluator reads slots of: a stored row, or the pipelined
/// executor's tuple of references into stored rows.
pub(crate) trait Tuple {
    /// The value in slot `index`, if the tuple is that wide.
    fn slot(&self, index: usize) -> Option<&Value>;
    /// An owned copy, for a correlated sub-select's environment.
    fn to_row(&self) -> Row;
}

impl Tuple for [Value] {
    fn slot(&self, index: usize) -> Option<&Value> {
        self.get(index)
    }

    fn to_row(&self) -> Row {
        self.to_vec()
    }
}

impl Tuple for [&Value] {
    fn slot(&self, index: usize) -> Option<&Value> {
        self.get(index).copied()
    }

    fn to_row(&self) -> Row {
        self.iter().map(|v| (*v).clone()).collect()
    }
}

/// The tuple of an expression evaluated with no row.
const NO_ROW: &[Value] = &[];

/// Execute a SELECT statement.
pub fn execute_select(db: &Database, stmt: &SelectStmt) -> SqlResult<ResultSet> {
    execute_select_with_stats(db, stmt).map(|(rs, _)| rs)
}

/// Execute a SELECT statement, also reporting execution statistics: bind,
/// lower and run, with nothing cached (see [`crate::prepare::PlanCache`]).
pub fn execute_select_with_stats(
    db: &Database,
    stmt: &SelectStmt,
) -> SqlResult<(ResultSet, ExecStats)> {
    let prepared = crate::prepare::prepare_stmt(db, stmt.clone());
    let (result, stats, _) = prepared.run(db, prepared.fingerprint());
    result.map(|rs| (rs, stats))
}

/// Evaluate an expression with no row and no tables: an INSERT's values,
/// `group_concat`'s separator, and the binder's constant folding. The
/// expression is bound in that empty scope first, so a column in it
/// raises `no such column` and a sub-select over a table `no such table`.
pub fn eval_const(e: &Expr) -> SqlResult<Value> {
    if let Expr::Literal(v) = e {
        return Ok(v.clone());
    }
    static NO_TABLES: OnceLock<Database> = OnceLock::new();
    let db = NO_TABLES.get_or_init(|| Database::new("const"));
    let mut e = e.clone();
    crate::prepare::bind_const(&db.schema, &mut e);
    eval_expr(&mut Ctx::new(db), &e, NO_ROW)
}

pub(crate) struct Ctx<'a> {
    pub(crate) db: &'a Database,
    pub(crate) rows_scanned: u64,
    /// Operators that went through a secondary index at least once.
    pub(crate) ix_ops: u64,
    /// SELECT nesting: 1 in a top-level statement (or a DML expression),
    /// +1 per sub-select.
    pub(crate) depth: usize,
    /// Memoised subquery results, keyed by AST node address. Only
    /// *uncorrelated* subqueries are cached: a nested SELECT that never
    /// reads the outer row evaluates to the same result every time, so
    /// evaluating it once per statement is a pure optimisation. Correlated
    /// subqueries set [`Ctx::used_outer`] and bypass the cache. Results
    /// are shared by `Arc` so a hit costs one refcount bump instead of a
    /// whole-`ResultSet` clone per outer row.
    subquery_cache: HashMap<usize, Arc<ResultSet>>,
    /// Plans of the sub-select cores this execution met, lowered on first
    /// use and keyed by node address like `subquery_cache`. Both need
    /// expressions evaluated in place — a freed copy's address can come
    /// back as a different node. A plan's own copies (residual steps, ON,
    /// FROM-subqueries) live here as long as the entries pointing at them.
    plans: HashMap<usize, Rc<PhysicalPlan>>,
    /// Enclosing rows for correlated subqueries, innermost last: the row
    /// each sub-select is evaluated on, pushed at its eval site.
    outer: Vec<Row>,
    /// Set when the current (sub)query resolved a column through an outer
    /// environment — i.e. it is correlated and must not be memoised.
    pub(crate) used_outer: bool,
    /// EXPLAIN: the rendered plan of each top-level core, with actuals.
    pub(crate) explain: Option<String>,
}

impl<'a> Ctx<'a> {
    /// A fresh evaluation context for one bound statement.
    pub(crate) fn new(db: &'a Database) -> Self {
        Ctx {
            db,
            rows_scanned: 0,
            ix_ops: 0,
            depth: 1,
            subquery_cache: HashMap::new(),
            plans: HashMap::new(),
            outer: Vec::new(),
            used_outer: false,
            explain: None,
        }
    }
}

const MAX_SUBQUERY_DEPTH: usize = 16;

/// Execute a nested SELECT, memoising it when it turns out not to read
/// any enclosing row.
pub(crate) fn exec_select(ctx: &mut Ctx<'_>, stmt: &SelectStmt) -> SqlResult<Arc<ResultSet>> {
    let key = stmt as *const SelectStmt as usize;
    // only uncorrelated executions ever get inserted, so a hit is safe
    if let Some(cached) = ctx.subquery_cache.get(&key) {
        return Ok(Arc::clone(cached));
    }
    ctx.depth += 1;
    if ctx.depth > MAX_SUBQUERY_DEPTH {
        return Err(SqlError::Other("subquery nesting too deep".into()));
    }
    let outer_used_before = ctx.used_outer;
    ctx.used_outer = false;
    let result = exec_select_inner(ctx, stmt, None).map(Arc::new);
    let correlated = ctx.used_outer;
    ctx.used_outer = outer_used_before || correlated;
    ctx.depth -= 1;
    if let (false, Ok(rs)) = (correlated, &result) {
        ctx.subquery_cache.insert(key, Arc::clone(rs));
    }
    result
}

/// Run a statement's cores and combine them. `held` carries one plan per
/// core, in statement order, when the caller lowered them ahead of time
/// (a [`crate::prepare::Prepared`] statement); sub-selects arrive without
/// and lower on first use.
pub(crate) fn exec_select_inner(
    ctx: &mut Ctx,
    stmt: &SelectStmt,
    held: Option<&[PhysicalPlan]>,
) -> SqlResult<ResultSet> {
    let held = |i: usize| held.map(|plans| &plans[i]);
    if stmt.compounds.is_empty() {
        let (mut rs, mut keys) = run_core(ctx, &stmt.core, &stmt.order_by, held(0))?;
        if !stmt.order_by.is_empty() {
            sort_with_keys(&mut rs.rows, &mut keys, &stmt.order_by);
        }
        apply_limit(ctx, &mut rs, stmt)?;
        return Ok(rs);
    }
    // Compound select: evaluate each core fully, then combine.
    let (mut rs, _) = run_core(ctx, &stmt.core, &[], held(0))?;
    for (i, (op, core)) in stmt.compounds.iter().enumerate() {
        let (next, _) = run_core(ctx, core, &[], held(i + 1))?;
        if next.columns.len() != rs.columns.len() {
            return Err(SqlError::Other(
                "SELECTs to the left and right of a set operator do not have the same number of result columns".into(),
            ));
        }
        rs = combine(rs, next, *op);
    }
    order_compound(&mut rs, &stmt.order_by)?;
    apply_limit(ctx, &mut rs, stmt)?;
    Ok(rs)
}

/// ORDER BY of a compound select: terms name output columns only.
pub(crate) fn order_compound(rs: &mut ResultSet, order_by: &[OrderItem]) -> SqlResult<()> {
    let indices: Vec<(usize, bool)> = order_by
        .iter()
        .map(|o| output_order_index(&rs.columns, &o.expr).map(|i| (i, o.desc)))
        .collect::<SqlResult<_>>()?;
    if !indices.is_empty() {
        rs.rows.sort_by(|a, b| {
            for (i, desc) in &indices {
                let ord = a[*i].sql_cmp(&b[*i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    Ok(())
}

/// Resolve an ORDER BY term against output columns (for compound selects):
/// positional `ORDER BY 1` or a name matching an output label.
fn output_order_index(columns: &[String], e: &Expr) -> SqlResult<usize> {
    match e {
        Expr::Literal(Value::Int(k)) if *k >= 1 && (*k as usize) <= columns.len() => {
            Ok(*k as usize - 1)
        }
        Expr::Column { table: None, column, .. } => columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(column))
            .ok_or_else(|| SqlError::NoSuchColumn(column.clone())),
        _ => Err(SqlError::Other(
            "ORDER BY term of a compound SELECT must be a column label or position".into(),
        )),
    }
}

pub(crate) fn combine(left: ResultSet, right: ResultSet, op: CompoundOp) -> ResultSet {
    let ResultSet { columns, rows: mut left_rows } = left;
    match op {
        CompoundOp::UnionAll => left_rows.extend(right.rows),
        CompoundOp::Union => {
            left_rows.extend(right.rows);
            let mut seen = HashSet::with_capacity(left_rows.len());
            let keep: Vec<bool> = left_rows.iter().map(|r| seen.insert(NormKey(r))).collect();
            retain_marked(&mut left_rows, &keep);
        }
        // INTERSECT keeps the distinct left rows found on the right,
        // EXCEPT the distinct left rows not found there
        CompoundOp::Intersect | CompoundOp::Except => {
            let rset: HashSet<NormKey<'_, Value>> = right.rows.iter().map(|r| NormKey(r)).collect();
            let mut seen = HashSet::new();
            let keep: Vec<bool> = left_rows
                .iter()
                .map(|r| {
                    rset.contains(&NormKey(r)) == (op == CompoundOp::Intersect)
                        && seen.insert(NormKey(r))
                })
                .collect();
            retain_marked(&mut left_rows, &keep);
        }
    }
    ResultSet { columns, rows: left_rows }
}

/// Keep the items whose mark is set, in order.
fn retain_marked<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut keep = keep.iter();
    items.retain(|_| keep.next() == Some(&true));
}

pub(crate) fn apply_limit(ctx: &mut Ctx, rs: &mut ResultSet, stmt: &SelectStmt) -> SqlResult<()> {
    let eval_n = |ctx: &mut Ctx, e: &Expr| -> SqlResult<i64> {
        let v = eval_expr(ctx, e, NO_ROW)?;
        v.as_i64().ok_or_else(|| SqlError::Type("LIMIT/OFFSET must be an integer".into()))
    };
    let offset = match &stmt.offset {
        Some(e) => eval_n(ctx, e)?.max(0) as usize,
        None => 0,
    };
    if offset > 0 {
        rs.rows.drain(..offset.min(rs.rows.len()));
    }
    if let Some(e) = &stmt.limit {
        let n = eval_n(ctx, e)?;
        if n >= 0 {
            rs.rows.truncate(n as usize);
        }
    }
    Ok(())
}

// ---------------- core projection ----------------

/// Execute one SELECT core: FROM and WHERE stream through the core's
/// physical plan, the surviving tuples go through [`project_filtered`].
/// Returns the projected result plus the ORDER BY key values (evaluated
/// against the same row/group context).
fn run_core(
    ctx: &mut Ctx,
    core: &SelectCore,
    order_by: &[OrderItem],
    held: Option<&PhysicalPlan>,
) -> SqlResult<(ResultSet, Vec<Vec<Value>>)> {
    let lowered;
    let plan = match held {
        Some(plan) => plan,
        None => {
            // sub-selects take the naive plan (see `crate::plan`)
            let db = ctx.db;
            let entry = ctx.plans.entry(core as *const SelectCore as usize);
            lowered = Rc::clone(entry.or_insert_with(|| Rc::new(crate::plan::lower(db, core, false))));
            &lowered
        }
    };
    // a FROM-subquery stage's result, held here for the tuples to borrow
    let held: Vec<OnceCell<Arc<ResultSet>>> = plan.stages.iter().map(|_| OnceCell::new()).collect();
    let tuples = crate::pipelined::run(ctx, plan, &held)?;
    project_filtered(ctx, core, &plan.layout, &tuples, order_by)
}

/// The tail of a core, from projection-item expansion onward: everything
/// after FROM + WHERE have produced the filtered tuples. It reads them
/// where they lie and copies a value only into an output row or a sort key.
fn project_filtered(
    ctx: &mut Ctx,
    core: &SelectCore,
    layout: &[ColBinding],
    tuples: &Tuples<'_>,
    order_by: &[OrderItem],
) -> SqlResult<(ResultSet, Vec<Vec<Value>>)> {
    // expand projection items
    let mut items = scope::expand_items(&core.items, layout)?;

    // ORDER BY rewriting: alias / position references become item exprs
    let order_exprs: Vec<OrderTarget<'_>> = order_by
        .iter()
        .map(|o| resolve_order_target(&o.expr, &items))
        .collect();

    let needs_group = !core.group_by.is_empty()
        || core.having.is_some()
        || items.iter().any(|(e, _)| contains_aggregate(e))
        || order_exprs.iter().any(|t| match t {
            OrderTarget::Expr(e) => contains_aggregate(e),
            OrderTarget::Output(_) => false,
        });

    let (mut out_rows, mut key_rows) = if needs_group {
        project_grouped(ctx, core, tuples, &items, &order_exprs)?
    } else {
        let mut out_rows = Vec::with_capacity(tuples.len());
        let mut key_rows = Vec::with_capacity(tuples.len());
        for row in tuples.iter() {
            let mut projected = Vec::with_capacity(items.len());
            for (e, _) in &items {
                projected.push(eval_expr(ctx, e, row)?);
            }
            let keys = eval_order_keys(ctx, &order_exprs, row, &projected)?;
            out_rows.push(projected);
            key_rows.push(keys);
        }
        (out_rows, key_rows)
    };

    if core.distinct {
        let mut seen = HashSet::with_capacity(out_rows.len());
        let keep: Vec<bool> = out_rows.iter().map(|r| seen.insert(NormKey(r))).collect();
        retain_marked(&mut out_rows, &keep);
        retain_marked(&mut key_rows, &keep);
    }

    let labels = items.iter_mut().map(|(_, l)| std::mem::take(l)).collect();
    Ok((ResultSet { columns: labels, rows: out_rows }, key_rows))
}

enum OrderTarget<'a> {
    /// Evaluate this expression in the row/group context.
    Expr(&'a Expr),
    /// Use the n-th projected output value.
    Output(usize),
}

fn resolve_order_target<'a>(e: &'a Expr, items: &[(Cow<'_, Expr>, String)]) -> OrderTarget<'a> {
    match e {
        Expr::Literal(Value::Int(k)) if *k >= 1 && (*k as usize) <= items.len() => {
            OrderTarget::Output(*k as usize - 1)
        }
        Expr::Column { table: None, column, .. } => {
            if let Some(idx) = items.iter().position(|(_, l)| l.eq_ignore_ascii_case(column)) {
                // Alias reference: point at the projected value so that
                // aggregate aliases work too.
                OrderTarget::Output(idx)
            } else {
                OrderTarget::Expr(e)
            }
        }
        _ => OrderTarget::Expr(e),
    }
}

fn eval_order_keys<T: Tuple + ?Sized>(
    ctx: &mut Ctx,
    targets: &[OrderTarget<'_>],
    row: &T,
    projected: &[Value],
) -> SqlResult<Vec<Value>> {
    targets
        .iter()
        .map(|t| match t {
            OrderTarget::Output(i) => Ok(projected[*i].clone()),
            OrderTarget::Expr(e) => eval_expr(ctx, e, row),
        })
        .collect()
}

pub(crate) fn sort_with_keys(rows: &mut Vec<Row>, keys: &mut Vec<Vec<Value>>, order_by: &[OrderItem]) {
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    idx.sort_by(|&a, &b| {
        for (k, o) in order_by.iter().enumerate() {
            let ord = keys[a][k].sql_cmp(&keys[b][k]);
            let ord = if o.desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    let mut new_rows = Vec::with_capacity(rows.len());
    let mut new_keys = Vec::with_capacity(keys.len());
    for i in idx {
        new_rows.push(std::mem::take(&mut rows[i]));
        new_keys.push(std::mem::take(&mut keys[i]));
    }
    *rows = new_rows;
    *keys = new_keys;
}

// ---------------- grouping ----------------

/// Grouping and aggregation. GROUP BY and HAVING arrive with projection
/// aliases already substituted by the binding pass.
fn project_grouped(
    ctx: &mut Ctx,
    core: &SelectCore,
    tuples: &Tuples<'_>,
    items: &[(Cow<'_, Expr>, String)],
    order_exprs: &[OrderTarget<'_>],
) -> SqlResult<(Vec<Row>, Vec<Vec<Value>>)> {
    let (group_by, having) = (&core.group_by, &core.having);

    // Partition the tuples into groups, laid out group after group in one
    // list: `bounds[g]..bounds[g + 1]` are group g's tuples, in emission
    // order, and groups come in the order their first tuple arrived.
    let mut grouped: Vec<&[&Value]> = tuples.iter().collect();
    let mut bounds = vec![0, grouped.len()];
    if !group_by.is_empty() {
        // every key first (so errors surface in tuple order), borrowed
        // where it is a stored value or a literal
        let mut keys: Vec<Cow<'_, Value>> = Vec::with_capacity(grouped.len() * group_by.len());
        for row in &grouped {
            for g in group_by.iter() {
                if contains_aggregate(g) {
                    return Err(SqlError::MisusedAggregate("aggregate in GROUP BY".into()));
                }
                keys.push(operand(ctx, g, *row)?);
            }
        }
        let mut ids: HashMap<NormKey<'_, Cow<'_, Value>>, usize> = HashMap::new();
        let group_of: Vec<usize> = keys
            .chunks_exact(group_by.len())
            .map(|key| {
                let next = ids.len();
                *ids.entry(NormKey(key)).or_insert(next)
            })
            .collect();
        // a counting sort by group, stable within each group
        bounds = vec![0; ids.len() + 1];
        for &g in &group_of {
            bounds[g + 1] += 1;
        }
        for g in 0..ids.len() {
            bounds[g + 1] += bounds[g];
        }
        let mut fill = bounds.clone();
        let mut sorted = grouped.clone();
        for (&tuple, &g) in grouped.iter().zip(&group_of) {
            sorted[fill[g]] = tuple;
            fill[g] += 1;
        }
        grouped = sorted;
    }

    let groups = bounds.len() - 1;
    let mut out_rows = Vec::with_capacity(groups);
    let mut key_rows = Vec::with_capacity(groups);
    for g in 0..groups {
        let group = &grouped[bounds[g]..bounds[g + 1]];
        // With GROUP BY, empty groups never exist; without it, a single
        // (possibly empty) group still yields one output row, as SQLite does
        // for plain aggregates over an empty table.
        if group.is_empty() && !group_by.is_empty() {
            continue;
        }
        if let Some(h) = &having {
            if eval_agg_expr(ctx, h, group)?.truthiness() != Some(true) {
                continue;
            }
        }
        let mut projected = Vec::with_capacity(items.len());
        for (e, _) in items {
            projected.push(eval_agg_expr(ctx, e, group)?);
        }
        let keys = order_exprs
            .iter()
            .map(|t| match t {
                OrderTarget::Output(i) => Ok(projected[*i].clone()),
                OrderTarget::Expr(e) => eval_agg_expr(ctx, e, group),
            })
            .collect::<SqlResult<Vec<Value>>>()?;
        out_rows.push(projected);
        key_rows.push(keys);
    }
    Ok((out_rows, key_rows))
}

/// Does the expression contain an aggregate call (not descending into
/// subqueries, which have their own aggregation scope)?
pub(crate) fn contains_aggregate(e: &Expr) -> bool {
    e.any(&mut |node| {
        matches!(node, Expr::Function { name, args, .. } if is_aggregate_name(name, args.len()))
    })
}

/// Evaluate an expression in aggregate context: aggregate calls compute
/// over the group, everything else is taken from the group's first row.
fn eval_agg_expr(ctx: &mut Ctx, e: &Expr, group: &[&[&Value]]) -> SqlResult<Value> {
    match e {
        Expr::Function { name, args, distinct, .. }
            if is_aggregate_name(name, args.len()) =>
        {
            eval_aggregate(ctx, name, args, *distinct, group)
        }
        Expr::Binary { left, op, right } => {
            // Short-circuit logic is not needed for correctness here;
            // evaluate both sides in aggregate context.
            let l = eval_agg_expr(ctx, left, group)?;
            let r = eval_agg_expr(ctx, right, group)?;
            apply_binary(*op, &l, &r)
        }
        Expr::Unary { op, expr } => {
            let v = eval_agg_expr(ctx, expr, group)?;
            apply_unary(*op, &v)
        }
        Expr::Case { operand, branches, else_expr } => {
            let op_val = match operand {
                Some(o) => Some(eval_agg_expr(ctx, o, group)?),
                None => None,
            };
            for (w, t) in branches {
                let cond = eval_agg_expr(ctx, w, group)?;
                let hit = match &op_val {
                    Some(v) => v.sql_eq(&cond) == Some(true),
                    None => cond.truthiness() == Some(true),
                };
                if hit {
                    return eval_agg_expr(ctx, t, group);
                }
            }
            match else_expr {
                Some(e) => eval_agg_expr(ctx, e, group),
                None => Ok(Value::Null),
            }
        }
        Expr::Function { name, args, .. } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_agg_expr(ctx, a, group))
                .collect::<SqlResult<_>>()?;
            call_scalar(name, &vals)
        }
        Expr::Cast { expr, ty } => {
            let v = eval_agg_expr(ctx, expr, group)?;
            Ok(cast_value(&v, *ty))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_agg_expr(ctx, expr, group)?;
            Ok(Value::Int((v.is_null() != *negated) as i64))
        }
        // everything else: evaluate against the first row of the group
        other => match group.first() {
            Some(row) => eval_expr(ctx, other, *row),
            None => Ok(Value::Null),
        },
    }
}

fn eval_aggregate(
    ctx: &mut Ctx,
    name: &str,
    args: &[Expr],
    distinct: bool,
    group: &[&[&Value]],
) -> SqlResult<Value> {
    // COUNT(*)
    if name == "count" && (args.is_empty() || matches!(args.first(), Some(Expr::Wildcard))) {
        return Ok(Value::Int(group.len() as i64));
    }
    let arg = args
        .first()
        .ok_or_else(|| SqlError::BadFunction(format!("{name}() needs an argument")))?;
    if contains_aggregate(arg) {
        return Err(SqlError::MisusedAggregate(format!("nested aggregate in {name}()")));
    }
    // the group's non-NULL values, borrowed where they are stored
    let mut values: Vec<Cow<'_, Value>> = Vec::with_capacity(group.len());
    for row in group {
        let v = operand(ctx, arg, *row)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen = HashSet::with_capacity(values.len());
        let keep: Vec<bool> = values.iter().map(|v| seen.insert(v.normalized_ref())).collect();
        retain_marked(&mut values, &keep);
    }
    match name {
        "count" => Ok(Value::Int(values.len() as i64)),
        "sum" | "total" => {
            if values.is_empty() {
                return Ok(if name == "total" { Value::Real(0.0) } else { Value::Null });
            }
            let all_int = values.iter().all(|v| matches!(**v, Value::Int(_)));
            if all_int && name == "sum" {
                let mut acc: i64 = 0;
                for v in &values {
                    if let Value::Int(i) = **v {
                        acc = acc
                            .checked_add(i)
                            .ok_or_else(|| SqlError::Other("integer overflow in SUM".into()))?;
                    }
                }
                Ok(Value::Int(acc))
            } else {
                Ok(Value::Real(values.iter().filter_map(|v| v.as_f64_lossy()).sum()))
            }
        }
        "avg" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let sum: f64 = values.iter().filter_map(|v| v.as_f64_lossy()).sum();
            Ok(Value::Real(sum / values.len() as f64))
        }
        "min" | "max" => {
            let want = if name == "min" { Ordering::Less } else { Ordering::Greater };
            let mut best: Option<&Value> = None;
            for v in &values {
                if best.is_none_or(|b| v.sql_cmp(b) == want) {
                    best = Some(v);
                }
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        "group_concat" => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let sep = match args.get(1) {
                Some(e) => eval_const(e)?.as_text().unwrap_or_else(|| ",".into()),
                None => ",".into(),
            };
            Ok(Value::text(
                values.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(&sep),
            ))
        }
        other => Err(SqlError::BadFunction(format!("unknown aggregate {other}"))),
    }
}

// ---------------- expression evaluation ----------------

/// Evaluate a bound expression on `row`, the tuple its core's plan lays
/// out (empty where there is none: LIMIT, OFFSET, constants).
pub(crate) fn eval_expr<T: Tuple + ?Sized>(ctx: &mut Ctx, e: &Expr, row: &T) -> SqlResult<Value> {
    match e {
        Expr::Literal(_) | Expr::BoundColumn { .. } => operand(ctx, e, row).map(Cow::into_owned),
        Expr::Column { .. } => Err(SqlError::Other("unbound column reference".into())),
        Expr::Unresolved(error) => Err(error.clone()),
        Expr::OuterColumn { up, index } => {
            // the binder only emits these where the runtime environment
            // chain matches the static one, so the guards are defensive
            let level = ctx
                .outer
                .len()
                .checked_sub(up + 1)
                .and_then(|i| ctx.outer.get(i))
                .ok_or_else(|| {
                    SqlError::Other("bound outer column outside its prepared environment".into())
                })?;
            let v = level.get(*index).cloned().ok_or_else(|| {
                SqlError::Other("bound outer column outside its prepared layout".into())
            })?;
            ctx.used_outer = true;
            Ok(v)
        }
        Expr::Unary { op, expr } => {
            let v = operand(ctx, expr, row)?;
            apply_unary(*op, &v)
        }
        Expr::Binary { left, op, right } => {
            // short-circuit AND/OR per three-valued logic
            match op {
                BinOp::And => {
                    let l = operand(ctx, left, row)?.truthiness();
                    if l == Some(false) {
                        return Ok(Value::Int(0));
                    }
                    let r = operand(ctx, right, row)?.truthiness();
                    return Ok(match (l, r) {
                        (_, Some(false)) => Value::Int(0),
                        (Some(true), Some(true)) => Value::Int(1),
                        _ => Value::Null,
                    });
                }
                BinOp::Or => {
                    let l = operand(ctx, left, row)?.truthiness();
                    if l == Some(true) {
                        return Ok(Value::Int(1));
                    }
                    let r = operand(ctx, right, row)?.truthiness();
                    return Ok(match (l, r) {
                        (_, Some(true)) => Value::Int(1),
                        (Some(false), Some(false)) => Value::Int(0),
                        _ => Value::Null,
                    });
                }
                _ => {}
            }
            let l = operand(ctx, left, row)?;
            let r = operand(ctx, right, row)?;
            apply_binary(*op, &l, &r)
        }
        Expr::Like { expr, pattern, negated } => {
            let v = operand(ctx, expr, row)?;
            let p = operand(ctx, pattern, row)?;
            match (v.as_str(), p.as_str()) {
                (Some(text), Some(pat)) => {
                    let hit = like_match(&pat, &text);
                    Ok(Value::Int((hit != *negated) as i64))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::Between { expr, low, high, negated } => {
            let v = operand(ctx, expr, row)?;
            let lo = operand(ctx, low, row)?;
            let hi = operand(ctx, high, row)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let inside = v.sql_cmp(&lo) != Ordering::Less && v.sql_cmp(&hi) != Ordering::Greater;
            Ok(Value::Int((inside != *negated) as i64))
        }
        Expr::InList { expr, list, negated } => {
            let v = operand(ctx, expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = operand(ctx, item, row)?;
                match v.sql_eq(&iv) {
                    Some(true) => return Ok(Value::Int((!*negated) as i64)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Int(*negated as i64))
            }
        }
        Expr::InSubquery { expr, query, negated } => {
            let v = operand(ctx, expr, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let rs = exec_subquery(ctx, query, row)?;
            if rs.columns.len() != 1 {
                return Err(SqlError::SubqueryShape(
                    "IN subquery must return a single column".into(),
                ));
            }
            let mut saw_null = false;
            for r in &rs.rows {
                match v.sql_eq(&r[0]) {
                    Some(true) => return Ok(Value::Int((!*negated) as i64)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Int(*negated as i64))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = operand(ctx, expr, row)?;
            Ok(Value::Int((v.is_null() != *negated) as i64))
        }
        Expr::Case { operand: subject, branches, else_expr } => {
            let subject = match subject {
                Some(o) => Some(operand(ctx, o, row)?),
                None => None,
            };
            for (w, t) in branches {
                let cond = operand(ctx, w, row)?;
                let hit = match &subject {
                    Some(v) => v.sql_eq(&cond) == Some(true),
                    None => cond.truthiness() == Some(true),
                };
                if hit {
                    return eval_expr(ctx, t, row);
                }
            }
            match else_expr {
                Some(e) => eval_expr(ctx, e, row),
                None => Ok(Value::Null),
            }
        }
        Expr::Function { name, args, .. } => {
            if is_aggregate_name(name, args.len()) {
                return Err(SqlError::MisusedAggregate(format!(
                    "aggregate {name}() used outside of an aggregate context"
                )));
            }
            // up to four arguments on the stack, borrowed where they can be
            const INLINE: usize = 4;
            if args.len() <= INLINE {
                let mut vals: [Cow<'_, Value>; INLINE] =
                    [const { Cow::Borrowed(&Value::Null) }; INLINE];
                for (slot, a) in vals.iter_mut().zip(args) {
                    *slot = operand(ctx, a, row)?;
                }
                return scalar(name, &vals[..args.len()]);
            }
            let vals = args.iter().map(|a| operand(ctx, a, row)).collect::<SqlResult<Vec<_>>>()?;
            scalar(name, &vals)
        }
        Expr::Wildcard => Err(SqlError::Syntax { pos: 0, msg: "misplaced *".into() }),
        Expr::Cast { expr, ty } => {
            let v = operand(ctx, expr, row)?;
            Ok(cast_value(&v, *ty))
        }
        Expr::Subquery(q) => {
            let rs = exec_subquery(ctx, q, row)?;
            if rs.columns.len() != 1 {
                return Err(SqlError::SubqueryShape(
                    "scalar subquery must return a single column".into(),
                ));
            }
            Ok(rs.rows.first().map(|r| r[0].clone()).unwrap_or(Value::Null))
        }
        Expr::Exists { query, negated } => {
            let rs = exec_subquery(ctx, query, row)?;
            Ok(Value::Int((rs.rows.is_empty() == *negated) as i64))
        }
    }
}

/// Evaluate an operand: a literal or a slot of `row` is read where it
/// lies, anything else is computed through [`eval_expr`].
pub(crate) fn operand<'r, T: Tuple + ?Sized>(
    ctx: &mut Ctx,
    e: &'r Expr,
    row: &'r T,
) -> SqlResult<Cow<'r, Value>> {
    match e {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        Expr::BoundColumn { index } => row
            .slot(*index)
            .map(Cow::Borrowed)
            .ok_or_else(|| SqlError::Other("bound column outside its prepared layout".into())),
        _ => eval_expr(ctx, e, row).map(Cow::Owned),
    }
}

/// Execute a nested SELECT with the current row pushed as an enclosing
/// environment, enabling correlated references. A sub-select that already
/// ran and read no enclosing row answers from the cache without a copy
/// of the row.
pub(crate) fn exec_subquery<T: Tuple + ?Sized>(
    ctx: &mut Ctx<'_>,
    query: &SelectStmt,
    row: &T,
) -> SqlResult<Arc<ResultSet>> {
    if let Some(cached) = ctx.subquery_cache.get(&(query as *const SelectStmt as usize)) {
        return Ok(Arc::clone(cached));
    }
    ctx.outer.push(row.to_row());
    let result = exec_select(ctx, query);
    ctx.outer.pop();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;

    fn clinic() -> Database {
        let mut db = Database::new("clinic");
        db.execute_script(
            "CREATE TABLE Patient (ID INTEGER PRIMARY KEY, Name TEXT, `First Date` TEXT, City TEXT);\
             CREATE TABLE Laboratory (LabID INTEGER PRIMARY KEY, ID INTEGER, IGA REAL, \
               FOREIGN KEY (ID) REFERENCES Patient (ID));\
             INSERT INTO Patient VALUES \
               (1, 'Ann', '1991-04-02', 'Oslo'), (2, 'Bob', '1988-01-20', 'Oslo'),\
               (3, 'Cal', '1995-09-13', 'Berne'), (4, 'Dee', '2001-02-05', NULL);\
             INSERT INTO Laboratory VALUES \
               (10, 1, 120.0), (11, 1, 300.0), (12, 2, 90.0), (13, 3, 700.0), (14, 4, NULL);",
        )
        .unwrap();
        db
    }

    fn q(db: &Database, sql: &str) -> ResultSet {
        db.query(sql).unwrap_or_else(|e| panic!("query {sql:?} failed: {e}"))
    }

    /// What is evaluated with no row keeps its outcome: an INSERT's values
    /// (`eval_const`: no columns, no tables) and LIMIT / OFFSET (no columns,
    /// the statement's tables).
    #[test]
    fn row_free_expressions_keep_their_outcomes() {
        let insert = |value: &str| {
            let mut db = Database::new("consts");
            db.execute_script("CREATE TABLE t (x INTEGER)").unwrap();
            db.execute_script(&format!("INSERT INTO t VALUES ({value})"))
                .map(|()| db.rows("t").unwrap()[0][0].clone())
                .map_err(|e| e.to_string())
        };
        for (value, want) in [
            ("(SELECT y FROM (SELECT 5 AS y) AS s)", Ok(Value::Int(5))),
            ("1 + 2 * 3", Ok(Value::Int(7))),
            ("zz", Err("no such column: zz")),
            ("t.zz", Err("no such column: t.zz")),
            ("(SELECT x FROM t)", Err("no such table: t")),
            ("(SELECT y FROM (SELECT 5 AS y) AS s WHERE zz = 1)", Err("no such column: zz")),
        ] {
            assert_eq!(insert(value), want.map_err(str::to_owned), "{value}");
        }
        let db = clinic();
        for (tail, want) in [
            ("LIMIT 2 - 1", Ok(1)),
            ("LIMIT (SELECT COUNT(*) FROM Laboratory) - 3", Ok(2)),
            ("LIMIT 2 OFFSET (SELECT MAX(ID) FROM Patient) - 3", Ok(2)),
            ("LIMIT -1 OFFSET 3", Ok(1)),
            ("LIMIT 'x'", Err("type error: LIMIT/OFFSET must be an integer")),
            ("LIMIT 1.5", Err("type error: LIMIT/OFFSET must be an integer")),
            ("LIMIT 1 OFFSET 'x'", Err("type error: LIMIT/OFFSET must be an integer")),
            ("LIMIT zz", Err("no such column: zz")),
            ("LIMIT Patient.ID", Err("no such column: Patient.ID")),
        ] {
            let got = db.query(&format!("SELECT ID FROM Patient {tail}"));
            assert_eq!(got.map(|rs| rs.rows.len()).map_err(|e| e.to_string()), want.map_err(str::to_owned), "{tail}");
        }
    }

    #[test]
    fn simple_scan_filter() {
        let db = clinic();
        let rs = q(&db, "SELECT Name FROM Patient WHERE City = 'Oslo'");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.columns, vec!["Name"]);
    }

    #[test]
    fn paper_example_executes() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT COUNT(DISTINCT T1.ID) FROM Patient AS T1 INNER JOIN Laboratory AS T2 \
             ON T1.ID = T2.ID WHERE T2.IGA > 80 AND T2.IGA < 500 AND \
             strftime('%Y', T1.`First Date`) >= '1990'",
        );
        // Ann (120, 300) qualifies after 1990; Bob is 1988; Cal IGA 700; Dee NULL.
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn group_by_having_order() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT City, COUNT(*) AS n FROM Patient WHERE City IS NOT NULL \
             GROUP BY City HAVING COUNT(*) >= 1 ORDER BY n DESC, City ASC",
        );
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::text("Oslo"), Value::Int(2)],
                vec![Value::text("Berne"), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn aggregate_over_empty_table_yields_one_row() {
        let mut db = Database::new("x");
        db.execute_script("CREATE TABLE t (a INTEGER)").unwrap();
        let rs = q(&db, "SELECT COUNT(*), SUM(a), AVG(a), MIN(a) FROM t");
        assert_eq!(
            rs.rows,
            vec![vec![Value::Int(0), Value::Null, Value::Null, Value::Null]]
        );
        // but GROUP BY over empty input yields zero rows
        let rs = q(&db, "SELECT a, COUNT(*) FROM t GROUP BY a");
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn left_join_pads_nulls() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT P.Name, L.IGA FROM Patient AS P LEFT JOIN Laboratory AS L \
             ON P.ID = L.ID AND L.IGA > 600",
        );
        // non-equi extra condition forces nested loop; Cal matches 700
        assert_eq!(rs.rows.len(), 4);
        let cal: Vec<_> = rs.rows.iter().filter(|r| r[0] == Value::text("Cal")).collect();
        assert_eq!(cal[0][1], Value::Real(700.0));
        let ann: Vec<_> = rs.rows.iter().filter(|r| r[0] == Value::text("Ann")).collect();
        assert!(ann[0][1].is_null());
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let db = clinic();
        let hash = q(&db, "SELECT P.Name, L.IGA FROM Patient P INNER JOIN Laboratory L ON P.ID = L.ID");
        let nested = q(
            &db,
            "SELECT P.Name, L.IGA FROM Patient P INNER JOIN Laboratory L ON P.ID + 0 = L.ID",
        );
        assert!(hash.same_answer(&nested));
        assert_eq!(hash.rows.len(), 5);
    }

    #[test]
    fn order_by_alias_position_and_expr() {
        let db = clinic();
        let by_alias = q(&db, "SELECT Name AS n FROM Patient ORDER BY n DESC");
        let by_pos = q(&db, "SELECT Name FROM Patient ORDER BY 1 DESC");
        let by_expr = q(&db, "SELECT Name FROM Patient ORDER BY Name DESC");
        assert_eq!(by_alias.rows, by_pos.rows);
        assert_eq!(by_pos.rows, by_expr.rows);
        assert_eq!(by_expr.rows[0][0], Value::text("Dee"));
    }

    #[test]
    fn limit_offset() {
        let db = clinic();
        let rs = q(&db, "SELECT ID FROM Patient ORDER BY ID LIMIT 2 OFFSET 1");
        assert_eq!(rs.rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
        let rs2 = q(&db, "SELECT ID FROM Patient ORDER BY ID LIMIT 1, 2");
        assert_eq!(rs.rows, rs2.rows);
    }

    #[test]
    fn distinct_dedupes() {
        let db = clinic();
        let rs = q(&db, "SELECT DISTINCT City FROM Patient WHERE City IS NOT NULL");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn scalar_and_in_subqueries() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT Name FROM Patient WHERE ID = (SELECT ID FROM Laboratory ORDER BY IGA DESC LIMIT 1)",
        );
        assert_eq!(rs.rows, vec![vec![Value::text("Cal")]]);
        let rs = q(
            &db,
            "SELECT Name FROM Patient WHERE ID IN (SELECT ID FROM Laboratory WHERE IGA > 100) ORDER BY Name",
        );
        assert_eq!(rs.rows, vec![vec![Value::text("Ann")], vec![Value::text("Cal")]]);
    }

    #[test]
    fn from_subquery() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT s.c FROM (SELECT City, COUNT(*) AS c FROM Patient GROUP BY City) AS s \
             WHERE s.City = 'Oslo'",
        );
        assert_eq!(rs.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn compound_union() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT City FROM Patient WHERE ID = 1 UNION SELECT City FROM Patient WHERE ID = 2",
        );
        assert_eq!(rs.rows.len(), 1); // both Oslo, deduped
        let rs = q(
            &db,
            "SELECT City FROM Patient WHERE ID = 1 UNION ALL SELECT City FROM Patient WHERE ID = 2 ORDER BY City",
        );
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn intersect_except() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT ID FROM Patient INTERSECT SELECT ID FROM Laboratory WHERE IGA > 100",
        );
        assert_eq!(rs.rows.len(), 2);
        let rs = q(
            &db,
            "SELECT ID FROM Patient EXCEPT SELECT ID FROM Laboratory WHERE IGA > 100 ORDER BY 1",
        );
        assert_eq!(rs.rows, vec![vec![Value::Int(2)], vec![Value::Int(4)]]);
    }

    #[test]
    fn error_surfaces() {
        let db = clinic();
        assert!(matches!(
            db.query("SELECT x FROM Patient"),
            Err(SqlError::NoSuchColumn(c)) if c == "x"
        ));
        assert!(matches!(
            db.query("SELECT * FROM Ghost"),
            Err(SqlError::NoSuchTable(_))
        ));
        assert!(matches!(
            db.query("SELECT ID FROM Patient P, Laboratory L"),
            Err(SqlError::AmbiguousColumn(_))
        ));
        assert!(matches!(
            db.query("SELECT Name FROM Patient WHERE COUNT(*) > 1"),
            Err(SqlError::MisusedAggregate(_))
        ));
        assert!(matches!(
            db.query("SELECT SUM(COUNT(ID)) FROM Patient"),
            Err(SqlError::MisusedAggregate(_))
        ));
    }

    #[test]
    fn like_and_between() {
        let db = clinic();
        let rs = q(&db, "SELECT Name FROM Patient WHERE Name LIKE 'a%'");
        assert_eq!(rs.rows, vec![vec![Value::text("Ann")]]);
        let rs = q(&db, "SELECT Name FROM Patient WHERE ID BETWEEN 2 AND 3 ORDER BY ID");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn three_valued_logic() {
        let db = clinic();
        // City NULL rows drop out of both branches
        let yes = q(&db, "SELECT COUNT(*) FROM Patient WHERE City = 'Oslo'");
        let no = q(&db, "SELECT COUNT(*) FROM Patient WHERE NOT (City = 'Oslo')");
        assert_eq!(yes.rows[0][0], Value::Int(2));
        assert_eq!(no.rows[0][0], Value::Int(1));
        // IN with NULL in list
        let rs = q(&db, "SELECT COUNT(*) FROM Patient WHERE City IN ('Oslo', NULL)");
        assert_eq!(rs.rows[0][0], Value::Int(2));
    }

    #[test]
    fn arithmetic_semantics() {
        let db = clinic();
        let rs = q(&db, "SELECT 7 / 2, 7.0 / 2, 7 % 3, 1 / 0, 'a' || 'b', -ID FROM Patient LIMIT 1");
        assert_eq!(
            rs.rows[0],
            vec![
                Value::Int(3),
                Value::Real(3.5),
                Value::Int(1),
                Value::Null,
                Value::text("ab"),
                Value::Int(-1)
            ]
        );
    }

    #[test]
    fn aggregates_full_set() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT COUNT(IGA), SUM(IGA), AVG(IGA), MIN(IGA), MAX(IGA), TOTAL(IGA), \
             COUNT(DISTINCT ID), GROUP_CONCAT(ID) FROM Laboratory",
        );
        let r = &rs.rows[0];
        assert_eq!(r[0], Value::Int(4));
        assert_eq!(r[1], Value::Real(1210.0));
        assert_eq!(r[2], Value::Real(302.5));
        assert_eq!(r[3], Value::Real(90.0));
        assert_eq!(r[4], Value::Real(700.0));
        assert_eq!(r[5], Value::Real(1210.0));
        assert_eq!(r[6], Value::Int(4));
        assert_eq!(r[7], Value::text("1,1,2,3,4"));
    }

    #[test]
    fn exec_stats_count_rows() {
        let db = clinic();
        let (_, stats) = execute_select_with_stats(
            &db,
            &crate::parser::parse_select("SELECT * FROM Patient").unwrap(),
        )
        .unwrap();
        assert!(stats.rows_scanned >= 4);
    }

    #[test]
    fn case_expression() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT Name, CASE WHEN ID <= 2 THEN 'early' ELSE 'late' END FROM Patient ORDER BY ID",
        );
        assert_eq!(rs.rows[0][1], Value::text("early"));
        assert_eq!(rs.rows[3][1], Value::text("late"));
        let rs = q(&db, "SELECT CASE City WHEN 'Oslo' THEN 1 ELSE 0 END FROM Patient ORDER BY ID");
        assert_eq!(rs.rows[0][0], Value::Int(1));
        assert_eq!(rs.rows[2][0], Value::Int(0));
    }

    #[test]
    fn wildcard_expansion() {
        let db = clinic();
        let rs = q(&db, "SELECT * FROM Patient");
        assert_eq!(rs.columns, vec!["ID", "Name", "First Date", "City"]);
        let rs = q(&db, "SELECT L.* FROM Patient P INNER JOIN Laboratory L ON P.ID = L.ID");
        assert_eq!(rs.columns, vec!["LabID", "ID", "IGA"]);
    }

    #[test]
    fn exists_uncorrelated() {
        let db = clinic();
        let rs = q(&db, "SELECT 1 WHERE EXISTS (SELECT 1 FROM Patient)");
        assert_eq!(rs.rows.len(), 1);
        let rs = q(&db, "SELECT 1 WHERE NOT EXISTS (SELECT 1 FROM Patient WHERE ID > 99)");
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn correlated_exists() {
        let db = clinic();
        // patients with at least one lab record above their own age * 10
        let rs = q(
            &db,
            "SELECT Name FROM Patient WHERE EXISTS              (SELECT 1 FROM Laboratory WHERE Laboratory.ID = Patient.ID AND IGA > 100)              ORDER BY Name",
        );
        assert_eq!(rs.rows, vec![vec![Value::text("Ann")], vec![Value::text("Cal")]]);
    }

    #[test]
    fn correlated_scalar_subquery() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT Name, (SELECT COUNT(*) FROM Laboratory WHERE Laboratory.ID = Patient.ID)              FROM Patient ORDER BY ID",
        );
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::text("Ann"), Value::Int(2)],
                vec![Value::text("Bob"), Value::Int(1)],
                vec![Value::text("Cal"), Value::Int(1)],
                vec![Value::text("Dee"), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn correlated_results_are_not_cached_across_rows() {
        let db = clinic();
        // the per-row subquery must vary with the outer row, while the
        // uncorrelated one is constant (and memoised)
        let rs = q(
            &db,
            "SELECT (SELECT MAX(IGA) FROM Laboratory WHERE Laboratory.ID = Patient.ID),                     (SELECT COUNT(*) FROM Laboratory)              FROM Patient ORDER BY ID",
        );
        let per_row: Vec<&Value> = rs.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(per_row[0], &Value::Real(300.0));
        assert_eq!(per_row[1], &Value::Real(90.0));
        assert!(rs.rows.iter().all(|r| r[1] == Value::Int(5)));
    }

    #[test]
    fn correlated_in_subquery() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT Name FROM Patient WHERE Patient.ID IN \
             (SELECT ID FROM Laboratory WHERE Laboratory.IGA > Patient.ID * 50)",
        );
        // Ann(1): IGA 120,300 > 50; Bob(2): 90 < 100; Cal(3): 700 > 150; Dee(4): NULL
        assert_eq!(rs.rows, vec![vec![Value::text("Ann")], vec![Value::text("Cal")]]);
    }

    #[test]
    fn order_by_aggregate_alias() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT ID, COUNT(*) AS n FROM Laboratory GROUP BY ID ORDER BY COUNT(*) DESC, ID LIMIT 1",
        );
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Int(2)]]);
    }

    #[test]
    fn group_by_expression() {
        let db = clinic();
        let rs = q(
            &db,
            "SELECT strftime('%Y', `First Date`) AS y, COUNT(*) FROM Patient GROUP BY y ORDER BY y",
        );
        assert_eq!(rs.rows.len(), 4);
        assert_eq!(rs.rows[0][0], Value::text("1988"));
    }
}
