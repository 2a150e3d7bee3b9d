//! Physical planning: lowering a SELECT core into the [`PhysicalPlan`]
//! that the pipelined executor (`crate::pipelined`) runs. [`lower`] is
//! total — every core that parses has a plan, and there is no other way
//! to execute FROM and WHERE.
//!
//! The lowering walks the FROM chain left to right, turning each table
//! reference into a [`Stage`]. What the plan may then do to it depends on
//! what could be observed:
//!
//! * An **optimised** plan extracts the sargable conjuncts of the WHERE
//!   clause (`col = lit`, `col < lit`, `BETWEEN`, `IN (lits)`, `IS NULL`),
//!   pushes each down to the stage that owns the column, and picks access
//!   paths (`FullScan` vs `IxScan`) and join operators (`Hash` vs
//!   `IxJoin`) by comparing cost estimates from table row counts and
//!   secondary-index selectivity ([`crate::index::ColumnIndex`]).
//! * A **naive** plan scans every table, joins by hash on a clean
//!   two-column equality and by nested loop on anything else, and keeps
//!   every WHERE conjunct, in order, in the residual chain. It evaluates
//!   exactly what the statement says, in the order it says it, so it
//!   raises the errors — and charges the `rows_scanned` — of a textbook
//!   interpreter.
//!
//! Lowering reads no names: the binder (`crate::prepare`) has turned every
//! column into a slot. A join is an equi join when its ON is one equality
//! between a slot left of the stage (`< col_offset`) and a slot of the
//! stage itself, in either order; its keys are those slots.
//!
//! A core gets the naive plan whenever pushdown could hide an error or was
//! never measured: any WHERE conjunct with a column the binder could not
//! resolve (filtering rows out first would suppress its `no such column`),
//! a FROM-subquery or a join predicate that is not a two-column equality
//! (both can fail per tuple), and every core lowered with `pushdown` off
//! — compound arms and sub-selects. Optimised plans keep one divergence
//! from that interpreter, by contract: a pushed-down sarg drops rows at
//! scan time, so a *different*, fully resolved conjunct that would raise
//! a runtime error on such a row never sees it. SQLite promises no order
//! of evaluation among a WHERE's conjuncts either.
//!
//! Errors a core raises before its first tuple — an unknown table, an
//! aggregate in WHERE — are part of the plan ([`PhysicalPlan::fail`]) and
//! surface from execution at the point an interpreter would have hit them.

use crate::ast::{BinOp, Expr, JoinKind, SelectCore, SelectStmt, TableRef};
use crate::db::Database;
use crate::error::{SqlError, SqlResult};
use crate::exec::contains_aggregate;
use crate::index::ColumnIndex;
use crate::schema::TableInfo;
use crate::scope::{self, ColBinding};
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt::Write as _;

// ---------------- sargable predicates ----------------

/// The operator of a sargable predicate.
#[derive(Debug, Clone)]
pub(crate) enum SargOp {
    /// `col = key` (key non-NULL, non-NaN).
    Eq(Value),
    /// `col <op> key` for `<`, `<=`, `>`, `>=`.
    Cmp {
        /// One of [`BinOp::Lt`], [`BinOp::Le`], [`BinOp::Gt`], [`BinOp::Ge`],
        /// already normalised so the column is on the left.
        op: BinOp,
        /// The literal bound.
        key: Value,
    },
    /// `col BETWEEN lo AND hi` (non-negated).
    Between(Value, Value),
    /// `col IN (k1, k2, ...)` (non-negated, all keys non-NULL literals).
    InList(Vec<Value>),
    /// `col IS [NOT] NULL` — filter-only, never drives an index scan.
    IsNull {
        /// IS NOT NULL when true.
        negated: bool,
    },
}

/// A sargable predicate pushed down to one stage.
#[derive(Debug, Clone)]
pub(crate) struct Sarg {
    /// Column offset local to the owning stage's table.
    pub(crate) col: usize,
    /// Column name (for index lookup and EXPLAIN).
    pub(crate) column: String,
    /// The predicate itself.
    pub(crate) op: SargOp,
}

impl Sarg {
    /// Does `v` satisfy the predicate? Exactly equivalent to
    /// `truthiness() == Some(true)` on the original conjunct (NULL and
    /// "false" both filter the row out).
    pub(crate) fn matches(&self, v: &Value) -> bool {
        match &self.op {
            SargOp::Eq(k) => v.sql_eq(k) == Some(true),
            SargOp::Cmp { op, key } => {
                if v.is_null() {
                    return false;
                }
                let ord = v.sql_cmp(key);
                match op {
                    BinOp::Lt => ord == Ordering::Less,
                    BinOp::Le => ord != Ordering::Greater,
                    BinOp::Gt => ord == Ordering::Greater,
                    BinOp::Ge => ord != Ordering::Less,
                    _ => false,
                }
            }
            SargOp::Between(lo, hi) => {
                !v.is_null()
                    && v.sql_cmp(lo) != Ordering::Less
                    && v.sql_cmp(hi) != Ordering::Greater
            }
            SargOp::InList(keys) => keys.iter().any(|k| v.sql_eq(k) == Some(true)),
            SargOp::IsNull { negated } => v.is_null() != *negated,
        }
    }

    /// Can this predicate drive an index scan (as opposed to only
    /// filtering)?
    pub(crate) fn indexable(&self) -> bool {
        !matches!(self.op, SargOp::IsNull { .. })
    }

    /// Matching row ids from an index, ascending — `None` for predicates
    /// that cannot use an index.
    pub(crate) fn lookup(&self, ix: &ColumnIndex) -> Option<Vec<u32>> {
        match &self.op {
            SargOp::Eq(k) => Some(ix.rids_eq(k)),
            SargOp::Cmp { op, key } => Some(match op {
                BinOp::Lt => ix.rids_range(None, Some((key, false))),
                BinOp::Le => ix.rids_range(None, Some((key, true))),
                BinOp::Gt => ix.rids_range(Some((key, false)), None),
                BinOp::Ge => ix.rids_range(Some((key, true)), None),
                _ => return None,
            }),
            SargOp::Between(lo, hi) => Some(ix.rids_range(Some((lo, true)), Some((hi, true)))),
            SargOp::InList(keys) => Some(ix.rids_in(keys)),
            SargOp::IsNull { .. } => None,
        }
    }

    /// Estimated fraction of table rows the predicate keeps.
    pub(crate) fn selectivity(&self, ix: Option<&ColumnIndex>) -> f64 {
        let per_class = |ix: Option<&ColumnIndex>| {
            ix.map(|i| 1.0 / i.distinct().max(1) as f64).unwrap_or(0.1)
        };
        match &self.op {
            SargOp::Eq(_) => per_class(ix),
            SargOp::Cmp { .. } => 1.0 / 3.0,
            SargOp::Between(..) => 0.25,
            SargOp::InList(keys) => (keys.len() as f64 * per_class(ix)).min(1.0),
            SargOp::IsNull { negated } => {
                if *negated {
                    0.9
                } else {
                    0.1
                }
            }
        }
    }

    /// Human-readable form for EXPLAIN output.
    pub(crate) fn describe(&self) -> String {
        match &self.op {
            SargOp::Eq(k) => format!("{} = {}", self.column, fmt_key(k)),
            SargOp::Cmp { op, key } => {
                let sym = match op {
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    _ => "?",
                };
                format!("{} {} {}", self.column, sym, fmt_key(key))
            }
            SargOp::Between(lo, hi) => {
                format!("{} BETWEEN {} AND {}", self.column, fmt_key(lo), fmt_key(hi))
            }
            SargOp::InList(keys) => format!("{} IN ({} keys)", self.column, keys.len()),
            SargOp::IsNull { negated } => {
                format!("{} IS {}NULL", self.column, if *negated { "NOT " } else { "" })
            }
        }
    }
}

fn fmt_key(v: &Value) -> String {
    match v {
        Value::Text(t) => format!("'{t}'"),
        other => other.to_string(),
    }
}

// ---------------- plan structure ----------------

/// How a stage's rows are read.
#[derive(Debug, Clone)]
pub(crate) enum Access {
    /// Read every row of the table.
    FullScan,
    /// Read only the rows matching a sarg through the column's index.
    IxScan(Sarg),
    /// Execute a FROM-subquery (memoised when uncorrelated) and read its
    /// result.
    Subquery(Box<SelectStmt>),
}

/// How a stage joins into the tuples accumulated so far.
#[derive(Debug, Clone)]
pub(crate) enum JoinOp {
    /// Build a hash table over the stage's (filtered) rows, probe per
    /// accumulated tuple.
    Hash {
        /// Key offset in the accumulated tuple (global layout index).
        left_key: usize,
        /// Key offset local to this stage's table.
        right_key: usize,
    },
    /// Probe this stage's secondary index once per accumulated tuple.
    IxJoin {
        /// Key offset in the accumulated tuple (global layout index).
        left_key: usize,
        /// Key offset local to this stage's table.
        right_key: usize,
        /// Indexed column name.
        column: String,
    },
    /// Nested loop: pair every accumulated tuple with every row of the
    /// stage and keep the pairs `on` accepts — all of them for CROSS JOIN,
    /// a comma join, or a JOIN without ON.
    Nested {
        /// The ON predicate, evaluated on the combined tuple.
        on: Option<Expr>,
    },
}

/// One FROM-chain stage of a physical plan.
#[derive(Debug, Clone)]
pub(crate) struct Stage {
    /// Canonical schema table name (the alias, for a FROM-subquery).
    pub(crate) table: String,
    /// Binding name (alias or table name) in the layout.
    pub(crate) binding: String,
    /// Offset of this stage's first column in the global layout.
    pub(crate) col_offset: usize,
    /// Number of columns this stage contributes.
    pub(crate) width: usize,
    /// Access path for the stage's rows.
    pub(crate) access: Access,
    /// Join operator (`None` for the base stage).
    pub(crate) join: Option<JoinOp>,
    /// Join kind (`Inner` for the base stage).
    pub(crate) kind: JoinKind,
    /// Pushed sargs applied as filters (not consumed by the access path).
    pub(crate) filters: Vec<Sarg>,
    /// Estimated rows produced by access + filters.
    pub(crate) est_rows: f64,
    /// Estimated accumulated tuples after joining this stage.
    pub(crate) est_tuples: f64,
}

impl Stage {
    /// A stage reading `table`, not yet joined or filtered; `est_rows`
    /// holds its row count until the cost pass scales it.
    fn new(table: String, binding: String, col_offset: usize, width: usize, access: Access, est_rows: f64) -> Stage {
        Stage {
            table,
            binding,
            col_offset,
            width,
            access,
            join: None,
            kind: JoinKind::Inner,
            filters: Vec::new(),
            est_rows,
            est_tuples: 0.0,
        }
    }

    /// Can running this stage fail on some tuple? Such a stage must see
    /// every tuple an interpreter would have shown it, so its plan is
    /// naive and the executor finishes the stage before starting the next.
    pub(crate) fn can_fail(&self) -> bool {
        matches!(self.access, Access::Subquery(_))
            || matches!(self.join, Some(JoinOp::Nested { on: Some(_) }))
    }
}

/// One step of the ordered residual predicate chain, evaluated per
/// output tuple with three-valued-logic AND semantics.
#[derive(Debug, Clone)]
pub(crate) enum ResidualStep {
    /// An arbitrary conjunct evaluated through `exec::eval_expr`.
    Pred(Expr),
    /// A whole-conjunct `IN (SELECT ...)` or `[NOT] EXISTS (SELECT ...)`
    /// the executor can turn into a semi-join when the subquery turns
    /// out to be uncorrelated.
    Semi(Expr),
}

/// The executable physical plan of one SELECT core.
#[derive(Debug, Clone)]
pub(crate) struct PhysicalPlan {
    /// FROM-chain stages, in join order (none for a core without FROM,
    /// which emits one empty tuple).
    pub(crate) stages: Vec<Stage>,
    /// Ordered residual WHERE conjuncts.
    pub(crate) residual: Vec<ResidualStep>,
    /// The joined row layout.
    pub(crate) layout: Vec<ColBinding>,
    /// Estimated tuples reaching the residual filter.
    pub(crate) est_out: f64,
    /// The error this core raises once the stages above have been built —
    /// an unknown table in FROM (the stages stop short of it) or an
    /// aggregate in WHERE — instead of producing tuples.
    pub(crate) fail: Option<SqlError>,
}

/// Per-operator execution counters kept by the pipelined executor; one
/// entry per stage plus one for the residual filter.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpStats {
    /// Rows/tuples the operator actually produced.
    pub(crate) actual_rows: u64,
    /// Index probes performed (IxScan / IxJoin only).
    pub(crate) seeks: u64,
}

impl PhysicalPlan {
    /// Render the plan as an indented operator pipeline — one line per
    /// stage, then the residual filter — with the planner's estimates and
    /// the `ops` counters of an execution side by side.
    pub(crate) fn render(&self, ops: &[OpStats]) -> String {
        let mut lines: Vec<(String, f64)> = self
            .stages
            .iter()
            .map(|st| (st.describe(self), if st.join.is_some() { st.est_tuples } else { st.est_rows }))
            .collect();
        let n_semi = self.residual.iter().filter(|s| matches!(s, ResidualStep::Semi(_))).count();
        let residual = if self.residual.is_empty() {
            "Residual (none)".to_owned()
        } else if n_semi > 0 {
            format!("Residual ({} conjuncts, {} semi-join)", self.residual.len(), n_semi)
        } else {
            format!("Residual ({} conjuncts)", self.residual.len())
        };
        lines.push((residual, self.est_out));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "physical plan: {} stage(s), {} residual conjunct(s)",
            self.stages.len(),
            self.residual.len()
        );
        for (i, ((label, est), op)) in lines.iter().zip(ops).enumerate() {
            let _ = write!(out, "{:indent$}-> {label}", "", indent = 2 + 2 * i);
            let _ = write!(out, "  [est≈{:.0}, actual={}", est.round(), op.actual_rows);
            if op.seeks > 0 {
                let _ = write!(out, ", seeks={}", op.seeks);
            }
            let _ = writeln!(out, "]");
        }
        out
    }
}

impl Stage {
    fn describe(&self, plan: &PhysicalPlan) -> String {
        let name = if self.binding.eq_ignore_ascii_case(&self.table) {
            self.table.clone()
        } else {
            format!("{} AS {}", self.table, self.binding)
        };
        let access = match &self.access {
            Access::FullScan => format!("Scan {name}"),
            Access::IxScan(s) => format!("IxScan {name} ({})", s.describe()),
            Access::Subquery(_) => format!("Subquery {name}"),
        };
        let filters = if self.filters.is_empty() {
            String::new()
        } else {
            format!(
                " | filter: {}",
                self.filters.iter().map(Sarg::describe).collect::<Vec<_>>().join(", ")
            )
        };
        let left = |k: usize| {
            plan.layout
                .get(k)
                .map(|b| format!("{}.{}", b.binding, b.column))
                .unwrap_or_else(|| format!("#{k}"))
        };
        let kind = match self.kind {
            JoinKind::Left => "Left",
            _ => "",
        };
        match &self.join {
            None => format!("{access}{filters}"),
            Some(JoinOp::Hash { left_key, right_key }) => {
                let rcol = &plan.layout[self.col_offset + right_key].column;
                format!(
                    "{kind}HashJoin {name} ON {}.{rcol} = {} (build: {access}{filters})",
                    self.binding,
                    left(*left_key)
                )
            }
            Some(JoinOp::IxJoin { left_key, column, .. }) => format!(
                "{kind}IxJoin {name} ON {}.{column} = {} (ix {}.{column}){filters}",
                self.binding,
                left(*left_key),
                self.table
            ),
            Some(JoinOp::Nested { on: None }) => {
                format!("{kind}CrossJoin {name} ({access}{filters})")
            }
            Some(JoinOp::Nested { on: Some(on) }) => {
                let mut on = on.clone();
                on.walk_mut(&mut |e| {
                    if let Expr::BoundColumn { index } = *e {
                        let slot = &plan.layout[index];
                        *e = Expr::qcol(&*slot.binding, &*slot.column);
                    }
                });
                format!("{kind}NestedLoop {name} ON {} ({access})", crate::printer::print_expr(&on))
            }
        }
    }
}

// ---------------- lowering ----------------

/// Flatten a left-associative AND chain into ordered conjuncts.
fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary { left, op: BinOp::And, right } = e {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e);
    }
}

/// A non-NULL, non-NaN literal key usable as a sarg bound.
fn sarg_key(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) if !v.is_null() && !matches!(v, Value::Real(r) if r.is_nan()) => Some(v),
        _ => None,
    }
}

/// A bound column slot (the binder resolves every local column of a
/// prepared statement into one of these).
fn bound_col(e: &Expr) -> Option<usize> {
    match e {
        Expr::BoundColumn { index } => Some(*index),
        _ => None,
    }
}

fn mirror_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Try to extract a sargable predicate from one conjunct. Returns the
/// global layout column index and the operation.
fn extract_sarg(e: &Expr) -> Option<(usize, SargOp)> {
    match e {
        Expr::Binary { left, op, right }
            if matches!(op, BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) =>
        {
            let (col, key, op) = match (bound_col(left), sarg_key(right)) {
                (Some(col), Some(key)) => (col, key, *op),
                _ => (bound_col(right)?, sarg_key(left)?, mirror_cmp(*op)),
            };
            let sop = if op == BinOp::Eq {
                SargOp::Eq(key.clone())
            } else {
                SargOp::Cmp { op, key: key.clone() }
            };
            Some((col, sop))
        }
        Expr::Between { expr, low, high, negated: false } => {
            let col = bound_col(expr)?;
            let (lo, hi) = (sarg_key(low)?, sarg_key(high)?);
            Some((col, SargOp::Between(lo.clone(), hi.clone())))
        }
        Expr::InList { expr, list, negated: false } => {
            let col = bound_col(expr)?;
            let keys: Option<Vec<Value>> =
                list.iter().map(|i| sarg_key(i).cloned()).collect();
            Some((col, SargOp::InList(keys?)))
        }
        Expr::IsNull { expr, negated } => {
            let col = bound_col(expr)?;
            Some((col, SargOp::IsNull { negated: *negated }))
        }
        _ => None,
    }
}

/// Does the conjunct hold a column the binder could not resolve? Its
/// error is raised when evaluated — which pushdown could suppress by
/// filtering every row out first.
fn has_unresolved(e: &Expr) -> bool {
    e.any(&mut |n| matches!(n, Expr::Unresolved(_)))
}

/// The keys of an ON that is one equality between a slot left of
/// `col_offset` and a slot of the stage starting there: (left slot,
/// offset in the stage).
fn equi_keys(on: &Expr, col_offset: usize) -> Option<(usize, usize)> {
    let Expr::Binary { left, op: BinOp::Eq, right } = on else { return None };
    let (a, b) = (bound_col(left)?, bound_col(right)?);
    match (a < col_offset, b < col_offset) {
        (true, false) => Some((a, b - col_offset)),
        (false, true) => Some((b, a - col_offset)),
        _ => None,
    }
}

/// Append the stage reading `tref` and its columns to the plan. Returns
/// the error an interpreter would raise on reaching this table reference
/// — for a FROM-subquery, after pushing the stage that raises it.
fn push_stage(db: &Database, tref: &TableRef, plan: &mut PhysicalPlan) -> SqlResult<()> {
    let col_offset = plan.layout.len();
    // `est_rows` holds the row count until the cost pass below scales it
    let (table, binding, access, est_rows) = match tref {
        TableRef::Named { name, alias, .. } => {
            let info = scope::push_table(&mut plan.layout, &db.schema, name, alias.as_deref())
                .ok_or_else(|| SqlError::NoSuchTable(name.clone()))?;
            let binding = alias.clone().unwrap_or_else(|| info.name.clone());
            let n = db.rows(&info.name)?.len();
            (info.name.clone(), binding, Access::FullScan, n as f64)
        }
        TableRef::Subquery { query, alias } => {
            // The labels of the first core, as its projection will expand.
            // When they cannot be known the subquery cannot run either, and
            // opening its stage raises that error.
            let inner = lower(db, &query.core, false);
            let items = scope::expand_items(&query.core.items, &inner.layout);
            if let (None, Ok(items)) = (&inner.fail, items) {
                let labels = items.into_iter().map(|(_, label)| label);
                scope::push_labels(&mut plan.layout, alias, labels);
            }
            (alias.clone(), alias.clone(), Access::Subquery(query.clone()), 0.0)
        }
    };
    let width = plan.layout.len() - col_offset;
    plan.stages.push(Stage::new(table, binding, col_offset, width, access, est_rows));
    if width == 0 && matches!(tref, TableRef::Subquery { .. }) {
        return Err(SqlError::Other("FROM subquery has no columns".into()));
    }
    Ok(())
}

/// Lower one SELECT core (bound or raw) into its [`PhysicalPlan`].
/// `pushdown` allows the optimised plan when the core qualifies for one.
pub(crate) fn lower(db: &Database, core: &SelectCore, pushdown: bool) -> PhysicalPlan {
    lower_core(db, core, pushdown, true)
}

/// Lower the row search of an UPDATE or DELETE — `FROM table WHERE
/// where_clause`, bound against `layout`, the table's slots the binder
/// built ([`crate::prepare::bind_dml`]) — into the plan
/// `pipelined::base_rids` runs. It is the plan `lower` gives that one-table
/// core with pushdown on, except that DML has no aggregate context to
/// misuse at plan time: an aggregate in its WHERE fails on the first row
/// that reaches it, so such a WHERE takes the naive plan instead of
/// [`PhysicalPlan::fail`].
pub(crate) fn lower_dml(
    db: &Database,
    table: &TableInfo,
    layout: Vec<ColBinding>,
    where_clause: Option<&Expr>,
) -> PhysicalPlan {
    let est_rows = db.rows(&table.name).map_or(0, <[_]>::len) as f64;
    let width = layout.len();
    let base = Stage::new(table.name.clone(), table.name.clone(), 0, width, Access::FullScan, est_rows);
    let plan = PhysicalPlan { stages: vec![base], residual: Vec::new(), layout, est_out: 1.0, fail: None };
    lower_where(db, plan, where_clause, false, false)
}

fn lower_core(db: &Database, core: &SelectCore, pushdown: bool, select: bool) -> PhysicalPlan {
    let mut plan = PhysicalPlan {
        stages: Vec::new(),
        residual: Vec::new(),
        layout: Vec::new(),
        est_out: 1.0,
        fail: None,
    };

    // ---- stage skeletons + joined layout ----
    if let Some(from) = &core.from {
        let joins = from.joins.iter().map(|j| (&j.table, Some(j)));
        for (tref, join) in std::iter::once((&from.base, None)).chain(joins) {
            if let Err(e) = push_stage(db, tref, &mut plan) {
                // nothing right of this table reference is ever reached
                plan.fail = Some(e);
                return plan;
            }
            let (Some(join), Some(stage)) = (join, plan.stages.last_mut()) else { continue };
            stage.kind = join.kind;
            // every equi join starts as a Hash op; the cost model below
            // may upgrade it to IxJoin
            let keys = join.on.as_ref().map(|on| (on, equi_keys(on, stage.col_offset)));
            stage.join = Some(match keys {
                Some((_, Some((left_key, right_key)))) => JoinOp::Hash { left_key, right_key },
                Some((on, None)) => JoinOp::Nested { on: Some(on.clone()) },
                None => JoinOp::Nested { on: None },
            });
        }
    }
    let naive = !pushdown || plan.stages.iter().any(Stage::can_fail);
    lower_where(db, plan, core.where_clause.as_ref(), naive, select)
}

/// Finish a plan whose stages are laid out: classify the WHERE conjuncts
/// into pushed sargs and the residual chain (all residual when `naive`),
/// then choose access paths and join operators by cost.
fn lower_where(
    db: &Database,
    mut plan: PhysicalPlan,
    where_clause: Option<&Expr>,
    mut naive: bool,
    select: bool,
) -> PhysicalPlan {
    // ---- WHERE classification ----
    if let Some(w) = where_clause {
        let aggregate = contains_aggregate(w);
        if aggregate && select {
            plan.fail = Some(SqlError::MisusedAggregate("aggregate in WHERE clause".into()));
            return plan;
        }
        let mut conjuncts = Vec::new();
        flatten_and(w, &mut conjuncts);
        naive |= aggregate || conjuncts.iter().any(|c| has_unresolved(c));
        for c in conjuncts {
            if let (false, Some((global_col, op))) = (naive, extract_sarg(c)) {
                let owner = plan
                    .stages
                    .iter_mut()
                    .find(|s| global_col >= s.col_offset && global_col < s.col_offset + s.width);
                // A sarg on the right side of a LEFT JOIN cannot be
                // pushed below the join: it would turn filtered rows
                // into NULL pads instead of dropping the tuple.
                if let Some(stage) = owner.filter(|s| s.kind != JoinKind::Left || s.join.is_none()) {
                    let col = global_col - stage.col_offset;
                    let column = plan.layout[global_col].column.clone();
                    stage.filters.push(Sarg { col, column, op });
                    continue;
                }
            }
            plan.residual.push(match c {
                Expr::InSubquery { .. } | Expr::Exists { .. } => ResidualStep::Semi(c.clone()),
                other => ResidualStep::Pred(other.clone()),
            });
        }
    }

    // ---- cost-based access + join operator choice ----
    let mut est_tuples = 1.0_f64;
    for stage in &mut plan.stages {
        let nf = stage.est_rows;
        let log_n = (nf.max(2.0)).log2();

        // selectivity of every pushed sarg combined, and the best
        // index-driving candidate
        let mut sel_all = 1.0_f64;
        let mut best: Option<(usize, f64)> = None; // (sarg idx, est rows out)
        for (i, s) in stage.filters.iter().enumerate() {
            let ix = if s.indexable() { db.index(&stage.table, &s.column) } else { None };
            let sel = s.selectivity(ix.as_deref());
            sel_all *= sel;
            if ix.is_some() {
                let est = nf * sel;
                if best.map(|(_, b)| est < b).unwrap_or(true) {
                    best = Some((i, est));
                }
            }
        }
        stage.est_rows = (nf * sel_all).max(0.0);
        // access path: index the best sarg when cheaper than a full scan
        let ix_access = best.filter(|(_, est)| log_n + est < nf);

        let left_outer = stage.kind == JoinKind::Left;
        match &mut stage.join {
            None => est_tuples = stage.est_rows,
            Some(JoinOp::Nested { .. }) => {
                est_tuples *= stage.est_rows.max(if left_outer { 1.0 } else { 0.0 });
            }
            Some(JoinOp::Hash { left_key, right_key }) | Some(JoinOp::IxJoin { left_key, right_key, .. }) => {
                let column = plan.layout[stage.col_offset + *right_key].column.clone();
                let right_ix = if naive { None } else { db.index(&stage.table, &column) };
                let fanout = right_ix
                    .as_deref()
                    .map(|ix| ix.len() as f64 / ix.distinct().max(1) as f64)
                    .unwrap_or(1.0);
                let inner = est_tuples * fanout * sel_all;
                let est_out = if left_outer { inner.max(est_tuples) } else { inner };
                let hash_access_cost = ix_access.map(|(_, est)| log_n + est).unwrap_or(nf);
                let hash_cost = hash_access_cost + stage.est_rows + est_tuples + est_out;
                let ix_cost = est_tuples * (log_n + fanout) + est_out;
                est_tuples = est_out;
                if right_ix.is_some() && ix_cost < hash_cost {
                    // the index probe IS the access path; remaining sargs
                    // filter candidates per probe
                    let (left_key, right_key) = (*left_key, *right_key);
                    stage.join = Some(JoinOp::IxJoin { left_key, right_key, column });
                    stage.est_tuples = est_tuples;
                    continue;
                }
            }
        }
        if let Some((i, _)) = ix_access {
            stage.access = Access::IxScan(stage.filters.remove(i));
        }
        stage.est_tuples = est_tuples;
    }
    plan.est_out = est_tuples;
    plan
}

// ---------------- EXPLAIN ----------------

/// Render the physical plan of every core of `sql` against `db`,
/// executing the statement once so estimated and actual per-operator row
/// counts appear side by side.
pub fn explain(db: &Database, sql: &str) -> SqlResult<String> {
    let prepared = crate::prepare::prepare(db, sql)?;
    let mut ctx = crate::exec::Ctx::new(db);
    ctx.explain = Some(String::new());
    let rs = crate::exec::exec_select_inner(&mut ctx, prepared.statement(), Some(prepared.plans()))?;
    let mut out = ctx.explain.take().unwrap_or_default();
    let _ = writeln!(out, "returned {} row(s), rows_scanned={}", rs.rows.len(), ctx.rows_scanned);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn sample_db() -> Database {
        let mut db = Database::new("shop");
        db.execute_script(
            "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, age INTEGER);
             CREATE TABLE orders (id INTEGER PRIMARY KEY, user_id INTEGER, amount REAL,
                 FOREIGN KEY (user_id) REFERENCES users(id));",
        )
        .unwrap();
        let mut script = String::new();
        for i in 0..200 {
            script.push_str(&format!(
                "INSERT INTO users VALUES ({i}, 'user{i}', {});\n",
                20 + i % 50
            ));
        }
        for i in 0..600 {
            script.push_str(&format!(
                "INSERT INTO orders VALUES ({i}, {}, {}.5);\n",
                i % 200,
                i * 3
            ));
        }
        db.execute_script(&script).unwrap();
        db
    }

    fn lower_sql(db: &Database, sql: &str) -> PhysicalPlan {
        crate::prepare::prepare(db, sql).unwrap().plans()[0].clone()
    }

    #[test]
    fn selective_eq_uses_index_scan() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        let plan = lower_sql(&db, "SELECT name FROM users WHERE id = 7");
        assert!(
            matches!(plan.stages[0].access, Access::IxScan(_)),
            "expected IxScan, got {:?}",
            plan.stages[0].describe(&plan)
        );
    }

    #[test]
    fn unindexed_column_falls_back_to_scan() {
        let db = sample_db();
        // no explicit indexes: every access is a full scan
        let plan = lower_sql(&db, "SELECT name FROM users WHERE age = 30");
        assert!(matches!(plan.stages[0].access, Access::FullScan));
    }

    #[test]
    fn selective_join_uses_index_join() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        let plan = lower_sql(
            &db,
            "SELECT o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE u.id = 3",
        );
        assert!(
            matches!(plan.stages[1].join, Some(JoinOp::IxJoin { .. })),
            "expected IxJoin, got {:?}",
            plan.stages[1].describe(&plan)
        );
    }

    #[test]
    fn unselective_join_stays_hash() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        // no filter: probing the index per tuple costs more than one
        // hash build over the right side
        let plan = lower_sql(
            &db,
            "SELECT o.amount FROM users u JOIN orders o ON u.id = o.user_id",
        );
        assert!(
            matches!(plan.stages[1].join, Some(JoinOp::Hash { .. })),
            "expected HashJoin, got {:?}",
            plan.stages[1].describe(&plan)
        );
    }

    /// A join key is looked up like any other name, over the whole join
    /// prefix: an unqualified name of both sides is ambiguous whether or
    /// not the ON is a bare equality, as the analyzer says.
    #[test]
    fn join_keys_resolve_by_the_scope_rule() {
        let mut db = Database::new("keys");
        db.execute_script(
            "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER);
             CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER);
             INSERT INTO a VALUES (1, 10), (2, 20);
             INSERT INTO b VALUES (1, 1), (2, 1), (3, 2);",
        )
        .unwrap();
        for sql in [
            "SELECT COUNT(*) FROM a JOIN b ON id = a_id",
            "SELECT COUNT(*) FROM a JOIN b ON id = a_id AND 1 = 1",
        ] {
            let message = "ambiguous column name: id";
            assert_eq!(db.query(sql).map_err(|e| e.to_string()), Err(message.to_owned()), "{sql}");
            let analysis = crate::analyze_sql(&db.schema, sql);
            assert!(
                analysis.diagnostics.iter().any(|d| d.code == "E0103" && d.message == message),
                "{sql}: {:?}",
                analysis.diagnostics
            );
        }
        for sql in [
            "SELECT COUNT(*) FROM a JOIN b ON a.id = b.a_id",
            "SELECT COUNT(*) FROM a JOIN b ON b.a_id = a.id",
        ] {
            let plan = lower_sql(&db, sql);
            assert!(
                matches!(plan.stages[1].join, Some(JoinOp::Hash { left_key: 0, right_key: 1 })),
                "{sql}: {}",
                plan.stages[1].describe(&plan)
            );
            assert_eq!(db.query(sql).unwrap().rows, vec![vec![Value::Int(3)]], "{sql}");
        }
    }

    #[test]
    fn optimised_plans_match_the_reference() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        let queries = [
            "SELECT name FROM users WHERE id = 7",
            "SELECT name, age FROM users WHERE age > 60 ORDER BY name LIMIT 5",
            "SELECT u.name, o.amount FROM users u JOIN orders o ON u.id = o.user_id \
             WHERE u.id = 3 ORDER BY o.amount",
            "SELECT u.name, o.amount FROM users u LEFT JOIN orders o ON u.id = o.user_id \
             WHERE u.age = 21 ORDER BY u.name, o.amount",
            "SELECT COUNT(*), AVG(o.amount) FROM users u JOIN orders o ON u.id = o.user_id \
             WHERE u.age BETWEEN 30 AND 40",
            "SELECT name FROM users WHERE id IN (1, 3, 5) ORDER BY name",
            "SELECT name FROM users u WHERE EXISTS \
             (SELECT 1 FROM orders o WHERE o.user_id = u.id AND o.amount > 1700.0) ORDER BY name",
            "SELECT name FROM users WHERE id IN (SELECT user_id FROM orders WHERE amount < 10.0)",
        ];
        for sql in queries {
            let stmt = parse_select(sql).unwrap();
            let reference = crate::reference::execute(&db, &stmt).unwrap();
            let rs = crate::exec::execute_select(&db, &stmt).unwrap();
            assert_eq!(rs.columns, reference.columns, "{sql}");
            assert_eq!(rs.rows, reference.rows, "{sql}");
        }
    }

    #[test]
    fn fingerprint_tracks_index_set() {
        let mut db = sample_db();
        let before = crate::prepare::plan_fingerprint(&db);
        db.create_index("orders", "user_id").unwrap();
        let after = crate::prepare::plan_fingerprint(&db);
        assert_ne!(before, after, "creating an index must invalidate cached plans");
    }

    #[test]
    fn explain_renders_operators_and_actuals() {
        let mut db = sample_db();
        db.ensure_default_indexes();
        let out = explain(
            &db,
            "SELECT o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE u.id = 3",
        )
        .unwrap();
        assert!(out.contains("IxScan"), "missing IxScan in:\n{out}");
        assert!(out.contains("IxJoin"), "missing IxJoin in:\n{out}");
        assert!(out.contains("actual="), "missing actuals in:\n{out}");
        assert!(out.contains("returned 3 row(s)"), "missing row count in:\n{out}");
    }

    #[test]
    fn explain_renders_every_core_and_never_a_fallback() {
        let db = sample_db();
        let out = explain(&db, "SELECT 1 UNION SELECT id FROM users WHERE id < 2").unwrap();
        assert_eq!(out.matches("physical plan:").count(), 2, "got:\n{out}");
        assert!(out.contains("returned 2 row(s)"), "got:\n{out}");
        let out = explain(
            &db,
            "SELECT s.n FROM (SELECT COUNT(*) AS n FROM orders) AS s JOIN users u ON u.id < s.n",
        )
        .unwrap();
        assert!(out.contains("Subquery s"), "got:\n{out}");
        assert!(out.contains("NestedLoop users AS u ON"), "got:\n{out}");
        assert!(!out.contains("legacy"), "got:\n{out}");
    }
}
