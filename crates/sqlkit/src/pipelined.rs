//! The pipelined executor — the only way `sqlkit` runs FROM and WHERE.
//! It streams tuples depth-first through a [`PhysicalPlan`]'s stages
//! instead of materialising every intermediate join result.
//!
//! One reusable tuple buffer flows through the stage chain: the base
//! stage pushes references to a row's values, each join stage appends
//! references to its matches (or to a static NULL, the pad of an
//! unmatched LEFT JOIN) and recurses, and the residual filter at the end
//! decides whether the finished tuple joins the output. Truncating the
//! buffer on the way back up keeps the pipeline free of allocations per
//! tuple, and no value is copied at all.
//!
//! The borrowing contract: a tuple is a slice of `&Value` into the rows
//! its stages read — a table's stored rows, the result of a FROM-subquery
//! (held by the caller, one cell per stage, for as long as the core
//! runs) or the static NULL. Finished tuples go end to end into one
//! arena of references, [`Tuples`], which the caller's tail (projection,
//! grouping, aggregates, DISTINCT, ORDER BY keys) reads where it lies
//! and drops with the core; the tail copies a value only into an output
//! row or a sort key. A correlated sub-select evaluated on a tuple gets
//! an owned copy of it as its enclosing row.
//!
//! Emission order is fixed by the statement, not by the plan: base rows
//! are visited in rid order, hash matches in build (= rid) order, index
//! equality runs are rid-ascending by construction, and a nested loop
//! walks the stage's rows in rid order per tuple. An `IxScan` whose index
//! turns out unusable degrades in place to a scan filtered by its sarg,
//! an `IxJoin` to a hash join on the same keys — same tuples, same order.
//!
//! Stages that can fail per tuple ([`Stage::can_fail`]) end a *segment*:
//! the tuples of the pipeline so far are collected before the next stage
//! is opened, so ON errors, subquery errors, a later unknown table and
//! WHERE errors surface in the order the FROM clause lists them. Plans
//! without such stages are one segment and never materialise.
//!
//! Residual conjuncts follow the AND protocol of `exec::eval_expr`
//! exactly: a `false` stops evaluation and drops the tuple, a NULL marks
//! the tuple dropped but keeps evaluating later conjuncts (so their
//! runtime errors still surface), and whole-conjunct `IN (SELECT ...)` /
//! `EXISTS` steps upgrade to cached semi-joins once a first probe proves
//! the subquery uncorrelated.

use crate::ast::{Expr, JoinKind, SelectStmt};
use crate::db::Database;
use crate::error::{SqlError, SqlResult};
use crate::exec::{self, Ctx, Tuple};
use crate::index::ColumnIndex;
use crate::plan::{Access, JoinOp, OpStats, PhysicalPlan, ResidualStep, Sarg, Stage};
use crate::value::{NormRef, NormValue, ResultSet, Row, Value};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The value every slot of a LEFT JOIN's NULL pad points at.
static NULL: Value = Value::Null;

/// End of a hash bucket's rid chain.
const NO_RID: u32 = u32::MAX;

/// Tuples of one width, end to end in one buffer of references: tuple `i`
/// is `vals[i * width..][..width]`. The count carries the zero-width
/// tuples of a core without FROM.
pub(crate) struct Tuples<'t> {
    width: usize,
    vals: Vec<&'t Value>,
    count: usize,
}

impl<'t> Tuples<'t> {
    fn new(width: usize) -> Self {
        Tuples { width, vals: Vec::new(), count: 0 }
    }

    fn push(&mut self, tuple: &[&'t Value]) {
        debug_assert_eq!(tuple.len(), self.width);
        self.vals.extend_from_slice(tuple);
        self.count += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// The tuples in emission order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[&'t Value]> + '_ {
        (0..self.count).map(|i| &self.vals[i * self.width..][..self.width])
    }
}

/// Runtime form of one stage: its rows plus the access / join machinery
/// resolved against the live database.
struct StageRt<'t> {
    rows: &'t [Row],
    /// The sarg of an `IxScan` whose index was unusable, now a filter.
    degraded: Option<&'t Sarg>,
    op: OpRt<'t>,
}

enum OpRt<'t> {
    /// Base stage: iterate all rows or an index-provided rid list.
    Scan { rids: Option<Vec<u32>> },
    /// Equi join: a hash table over the stage's filtered rows. A key maps
    /// to the first and last rid of its bucket, and `next[rid]` links a
    /// bucket's rids in rid order.
    Hash { left_key: usize, buckets: HashMap<NormRef<'t>, (u32, u32)>, next: Vec<u32> },
    /// Equi join probing the column's secondary index per tuple.
    Ix { left_key: usize, right_key: usize, ix: Arc<ColumnIndex> },
    /// Nested loop over a pre-filtered rid list.
    Nested { rids: Vec<u32>, on: Option<&'t Expr> },
}

/// Lazily-classified state of one `Semi` residual step.
enum SemiState {
    /// No probe has run yet.
    Unknown,
    /// The subquery reads the outer row: evaluate per tuple through
    /// `exec::eval_expr`.
    Correlated,
    /// Uncorrelated `IN (SELECT ...)`: one materialised result, probed
    /// via normalised hash set when every value hashes consistently
    /// with `sql_eq`, else by linear scan.
    In { set: Option<HashSet<NormValue>>, rows: Arc<ResultSet>, has_null: bool },
    /// Uncorrelated `EXISTS`: the subquery's non-emptiness.
    Exists { non_empty: bool },
}

/// Can `v` be probed through a `NormValue` hash set without diverging
/// from `sql_eq`? Large integers collapse through `f64` in `sql_eq` but
/// not in `normalized()`, and NaN compares equal to every numeric, so
/// both force a linear scan.
fn hash_safe(v: &Value) -> bool {
    match v {
        Value::Null | Value::Text(_) => true,
        Value::Int(i) => i.checked_abs().map(|a| a < 9_000_000_000_000_000).unwrap_or(false),
        Value::Real(r) => !r.is_nan(),
    }
}

/// Mutable execution state threaded through the recursive drive,
/// separate from the immutable stage data so the borrows never fight.
struct MutState {
    /// One counter pair per stage, then one for the residual filter.
    ops: Vec<OpStats>,
    semi: Vec<SemiState>,
}

/// Run FROM + WHERE of the core `plan` was lowered from, returning the
/// surviving tuples in emission order for the shared tail. The tuples
/// borrow their values from the database's rows, from the results of the
/// plan's FROM-subqueries — `held` has one cell per stage, where the run
/// keeps the result of a subquery stage — and from a static NULL for a
/// LEFT JOIN's pad; so they live as long as the three.
pub(crate) fn run<'a: 't, 't>(
    ctx: &mut Ctx<'a>,
    plan: &'t PhysicalPlan,
    held: &'t [OnceCell<Arc<ResultSet>>],
) -> SqlResult<Tuples<'t>> {
    let db: &'t Database = ctx.db;
    let mut stages: Vec<StageRt<'t>> = Vec::with_capacity(plan.stages.len());
    let mut mu = MutState {
        ops: vec![OpStats::default(); plan.stages.len() + 1],
        semi: plan.residual.iter().map(|_| SemiState::Unknown).collect(),
    };
    // a core without FROM filters and projects one empty tuple
    let mut input = Tuples::new(0);
    input.push(&[]);
    let mut start = 0;
    for (k, st) in plan.stages.iter().enumerate() {
        stages.push(open(ctx, db, st, &held[k], &mut mu.ops[k])?);
        if st.can_fail() {
            let seg = Segment::new(ctx, &mut mu, plan, &stages, k + 1, false);
            input = seg.drive(start, &input)?;
            start = k + 1;
        }
    }
    if let Some(e) = &plan.fail {
        return Err(e.clone());
    }
    let seg = Segment::new(ctx, &mut mu, plan, &stages, stages.len(), true);
    let out = seg.drive(start, &input)?;
    if let (1, Some(text)) = (ctx.depth, &mut ctx.explain) {
        text.push_str(&plan.render(&mu.ops));
    }
    Ok(out)
}

/// Run the plan of an UPDATE's or DELETE's row search (`plan::lower_dml`:
/// one named table, no joins) and return the rids of the rows that
/// survive, ascending. The same access path, sarg filters and residual
/// chain as [`run`], applied to the stored rows where they lie — no tuple
/// is built and no row is copied.
pub(crate) fn base_rids(ctx: &mut Ctx<'_>, plan: &PhysicalPlan) -> SqlResult<Vec<u32>> {
    if let Some(e) = &plan.fail {
        return Err(e.clone());
    }
    let [st] = plan.stages.as_slice() else {
        unreachable!("a DML target is exactly one table");
    };
    let db = ctx.db;
    let result = OnceCell::new();
    let mut mu = MutState {
        ops: vec![OpStats::default(); 2],
        semi: plan.residual.iter().map(|_| SemiState::Unknown).collect(),
    };
    let rt = open(ctx, db, st, &result, &mut mu.ops[0])?;
    let OpRt::Scan { rids: access } = &rt.op else {
        unreachable!("a base stage opens as a scan");
    };
    let mut kept = Vec::new();
    let mut visit = |rid: u32| -> SqlResult<()> {
        let row = &rt.rows[rid as usize];
        if passes(st, rt.degraded, row) && survives(ctx, plan, &mut mu, row.as_slice())? {
            kept.push(rid);
        }
        Ok(())
    };
    match access {
        Some(rids) => rids.iter().copied().try_for_each(&mut visit)?,
        None => (0..rt.rows.len() as u32).try_for_each(&mut visit)?,
    }
    Ok(kept)
}

fn passes(st: &Stage, degraded: Option<&Sarg>, row: &Row) -> bool {
    degraded.into_iter().chain(&st.filters).all(|f| f.matches(&row[f.col]))
}

/// Resolve one stage against live data: read (or compute) its rows, look
/// up its index, build its hash table.
fn open<'t>(
    ctx: &mut Ctx<'_>,
    db: &'t Database,
    st: &'t Stage,
    result: &'t OnceCell<Arc<ResultSet>>,
    op: &mut OpStats,
) -> SqlResult<StageRt<'t>> {
    let mut degraded = None;
    let mut access_rids: Option<Vec<u32>> = None;
    let rows: &[Row] = match &st.access {
        Access::FullScan => db.rows(&st.table)?,
        Access::IxScan(sarg) => {
            match db.index(&st.table, &sarg.column).and_then(|ix| sarg.lookup(&ix)) {
                Some(rids) => {
                    op.seeks += 1;
                    ctx.ix_ops += 1;
                    access_rids = Some(rids);
                }
                None => degraded = Some(sarg),
            }
            db.rows(&st.table)?
        }
        Access::Subquery(query) => {
            let rs = exec::exec_select(ctx, query)?;
            &result.get_or_init(|| rs).rows
        }
    };
    // Cost accounting: an access charges the rows it reads — the whole
    // table for a scan, the rid list for an index lookup, nothing for a
    // subquery result (its own execution already paid). IxJoin stages
    // charge per probe instead.
    let read = match (&st.access, &access_rids) {
        (Access::Subquery(_), _) => 0,
        (_, Some(rids)) => rids.len(),
        (_, None) => rows.len(),
    } as u64;
    // the candidate rids that pass the stage's filters, in rid order
    let for_each_kept = |f: &mut dyn FnMut(u32)| {
        let mut visit = |rid: u32| {
            if passes(st, degraded, &rows[rid as usize]) {
                f(rid);
            }
        };
        match &access_rids {
            Some(rids) => rids.iter().copied().for_each(&mut visit),
            None => (0..rows.len() as u32).for_each(&mut visit),
        }
    };
    let ix_join = match &st.join {
        Some(JoinOp::IxJoin { column, .. }) => db.index(&st.table, column),
        _ => None,
    };
    let op = match (&st.join, ix_join) {
        (None, _) => {
            ctx.rows_scanned += read;
            OpRt::Scan { rids: access_rids }
        }
        (Some(JoinOp::IxJoin { left_key, right_key, .. }), Some(ix)) => {
            OpRt::Ix { left_key: *left_key, right_key: *right_key, ix }
        }
        // a hash join — or, on the same keys, an IxJoin whose index is unusable
        (Some(JoinOp::Hash { left_key, right_key }), _)
        | (Some(JoinOp::IxJoin { left_key, right_key, .. }), None) => {
            ctx.rows_scanned += read;
            let mut buckets: HashMap<NormRef<'_>, (u32, u32)> = HashMap::new();
            let mut next = vec![NO_RID; rows.len()];
            for_each_kept(&mut |rid| {
                let key = &rows[rid as usize][*right_key];
                if !key.is_null() {
                    let ends = buckets.entry(key.normalized_ref()).or_insert((rid, rid));
                    if ends.1 != rid {
                        next[ends.1 as usize] = rid;
                        ends.1 = rid;
                    }
                }
            });
            OpRt::Hash { left_key: *left_key, buckets, next }
        }
        (Some(JoinOp::Nested { on }), _) => {
            ctx.rows_scanned += read;
            let mut rids = Vec::new();
            for_each_kept(&mut |rid| rids.push(rid));
            OpRt::Nested { rids, on: on.as_ref() }
        }
    };
    Ok(StageRt { rows, degraded, op })
}

/// A run of stages driven as one pipeline. The tuple under construction
/// is a buffer of references: a stage appends a row's slots (or the pad's)
/// and cuts them off again on the way back up, so moving a tuple through
/// the pipeline copies pointers, never values.
struct Segment<'s, 'c, 't> {
    ctx: &'s mut Ctx<'c>,
    mu: &'s mut MutState,
    plan: &'t PhysicalPlan,
    stages: &'s [StageRt<'t>],
    /// One past the last stage of the segment.
    end: usize,
    /// The plan's final segment: finished tuples face the residual chain.
    /// Tuples of an earlier segment are collected as they are.
    last: bool,
    out: Tuples<'t>,
}

impl<'s, 'c, 't> Segment<'s, 'c, 't> {
    fn new(
        ctx: &'s mut Ctx<'c>,
        mu: &'s mut MutState,
        plan: &'t PhysicalPlan,
        stages: &'s [StageRt<'t>],
        end: usize,
        last: bool,
    ) -> Self {
        let width = plan.stages[..end].last().map_or(0, |st| st.col_offset + st.width);
        Segment { ctx, mu, plan, stages, end, last, out: Tuples::new(width) }
    }

    /// Push every tuple of `input` through stages `start..end` and return
    /// what comes out the far side.
    fn drive(mut self, start: usize, input: &Tuples<'t>) -> SqlResult<Tuples<'t>> {
        let mut buf: Vec<&'t Value> = Vec::with_capacity(self.out.width);
        for tuple in input.iter() {
            buf.clear();
            buf.extend_from_slice(tuple);
            self.step(start, &mut buf)?;
        }
        Ok(self.out)
    }

    /// Count the tuple in `buf` as an output of stage `k`, run it through
    /// the rest of the segment, and cut the buffer back to stage `k`'s
    /// input.
    fn descend(&mut self, k: usize, buf: &mut Vec<&'t Value>) -> SqlResult<()> {
        self.mu.ops[k].actual_rows += 1;
        let r = self.step(k + 1, buf);
        buf.truncate(self.plan.stages[k].col_offset);
        r
    }

    fn emit(&mut self, k: usize, buf: &mut Vec<&'t Value>, row: &'t Row) -> SqlResult<()> {
        buf.extend(row);
        self.descend(k, buf)
    }

    /// The NULL pad of a LEFT JOIN tuple that matched nothing.
    fn pad(&mut self, k: usize, buf: &mut Vec<&'t Value>) -> SqlResult<()> {
        let st = &self.plan.stages[k];
        if st.kind != JoinKind::Left {
            return Ok(());
        }
        buf.extend(std::iter::repeat_n(&NULL, st.width));
        self.descend(k, buf)
    }

    fn step(&mut self, k: usize, buf: &mut Vec<&'t Value>) -> SqlResult<()> {
        if k == self.end {
            if !self.last || survives(self.ctx, self.plan, self.mu, buf.as_slice())? {
                self.out.push(buf);
            }
            return Ok(());
        }
        let (plan, stages) = (self.plan, self.stages);
        let (st, rt) = (&plan.stages[k], &stages[k]);
        match &rt.op {
            OpRt::Scan { rids: Some(rids) } => {
                for &rid in rids {
                    let row = &rt.rows[rid as usize];
                    if passes(st, rt.degraded, row) {
                        self.emit(k, buf, row)?;
                    }
                }
            }
            OpRt::Scan { rids: None } => {
                for row in rt.rows {
                    if passes(st, rt.degraded, row) {
                        self.emit(k, buf, row)?;
                    }
                }
            }
            OpRt::Hash { left_key, buckets, next } => {
                self.ctx.rows_scanned += 1;
                let probe = buf[*left_key];
                let bucket =
                    if probe.is_null() { None } else { buckets.get(&probe.normalized_ref()) };
                match bucket {
                    Some(&(first, _)) => {
                        let mut rid = first;
                        while rid != NO_RID {
                            self.ctx.rows_scanned += 1;
                            self.emit(k, buf, &rt.rows[rid as usize])?;
                            rid = next[rid as usize];
                        }
                    }
                    None => self.pad(k, buf)?,
                }
            }
            OpRt::Ix { left_key, right_key, ix } => {
                self.ctx.rows_scanned += 1;
                if self.mu.ops[k].seeks == 0 {
                    self.ctx.ix_ops += 1;
                }
                self.mu.ops[k].seeks += 1;
                let probe = buf[*left_key];
                let run = ix.eq_run(probe);
                self.ctx.rows_scanned += run.len() as u64;
                let mut matched = false;
                for (v, rid) in run {
                    // the hash join keys on the *normalised* value, which is
                    // finer than the index's sql_cmp equality runs (huge
                    // integers collapse through f64 in sql_cmp only) —
                    // filter candidates down to exact hash-join semantics
                    if v.normalized_ref() != probe.normalized_ref() {
                        continue;
                    }
                    let row = &rt.rows[*rid as usize];
                    debug_assert_eq!(v, &row[*right_key]);
                    if !passes(st, None, row) {
                        continue;
                    }
                    self.ctx.rows_scanned += 1;
                    matched = true;
                    self.emit(k, buf, row)?;
                }
                if !matched {
                    self.pad(k, buf)?;
                }
            }
            OpRt::Nested { rids, on } => {
                let mut matched = false;
                for &rid in rids {
                    self.ctx.rows_scanned += 1;
                    buf.extend(&rt.rows[rid as usize]);
                    // ON sees the tuple so far and nothing right of it
                    let keep = match on {
                        Some(on) => exec::eval_expr(self.ctx, on, buf.as_slice())?
                            .truthiness()
                            == Some(true),
                        None => true,
                    };
                    if keep {
                        matched = true;
                        self.descend(k, buf)?;
                    } else {
                        buf.truncate(st.col_offset);
                    }
                }
                if !matched {
                    self.pad(k, buf)?;
                }
            }
        }
        Ok(())
    }
}

/// Run the residual chain on a finished tuple. Implements the AND
/// protocol of `exec::eval_expr`: `false` stops and drops, NULL marks
/// the tuple dropped but keeps evaluating (error fidelity), anything else
/// continues.
fn survives<T: Tuple + ?Sized>(
    ctx: &mut Ctx<'_>,
    plan: &PhysicalPlan,
    mu: &mut MutState,
    tuple: &T,
) -> SqlResult<bool> {
    ctx.rows_scanned += 1;
    let mut dropped = false;
    let mut semi_idx = 0;
    for stepdef in &plan.residual {
        let v = match stepdef {
            ResidualStep::Pred(e) => exec::eval_expr(ctx, e, tuple)?,
            ResidualStep::Semi(e) => {
                let i = semi_idx;
                semi_idx += 1;
                eval_semi(ctx, &mut mu.semi[i], e, tuple)?
            }
        };
        match v.truthiness() {
            Some(true) => {}
            Some(false) => return Ok(false),
            None => dropped = true,
        }
    }
    if !dropped {
        let residual_op = mu.ops.len() - 1;
        mu.ops[residual_op].actual_rows += 1;
    }
    Ok(!dropped)
}

/// Evaluate a `Semi` residual step, classifying the subquery as
/// correlated or not on its first executed probe and caching the
/// uncorrelated result thereafter.
fn eval_semi<T: Tuple + ?Sized>(
    ctx: &mut Ctx<'_>,
    state: &mut SemiState,
    conjunct: &Expr,
    tuple: &T,
) -> SqlResult<Value> {
    if matches!(state, SemiState::Correlated) {
        return exec::eval_expr(ctx, conjunct, tuple);
    }
    match conjunct {
        Expr::InSubquery { expr, query, negated } => {
            let v = exec::operand(ctx, expr, tuple)?;
            if v.is_null() {
                // eval_expr skips the subquery entirely on a NULL operand,
                // so the state stays unclassified
                return Ok(Value::Null);
            }
            if matches!(state, SemiState::Unknown) {
                let (rs, correlated) = probe(ctx, query, tuple)?;
                if rs.columns.len() != 1 {
                    return Err(SqlError::SubqueryShape(
                        "IN subquery must return a single column".into(),
                    ));
                }
                if correlated {
                    *state = SemiState::Correlated;
                    // this probe's result set is already in hand —
                    // evaluate it directly, exactly as eval_expr would
                    return Ok(in_scan(&v, &rs.rows, *negated));
                }
                let mut has_null = false;
                let mut safe = true;
                for r in &rs.rows {
                    let item = &r[0];
                    if item.is_null() {
                        has_null = true;
                    }
                    if !hash_safe(item) {
                        safe = false;
                    }
                }
                let set = safe.then(|| {
                    rs.rows
                        .iter()
                        .filter(|r| !r[0].is_null())
                        .map(|r| r[0].normalized())
                        .collect::<HashSet<NormValue>>()
                });
                *state = SemiState::In { set, rows: rs, has_null };
            }
            let SemiState::In { set, rows, has_null } = &*state else {
                unreachable!("IN semi state settled above");
            };
            match set {
                Some(set) if hash_safe(&v) => {
                    if set.contains(&v.normalized()) {
                        Ok(Value::Int(i64::from(!*negated)))
                    } else if *has_null {
                        Ok(Value::Null)
                    } else {
                        Ok(Value::Int(i64::from(*negated)))
                    }
                }
                _ => Ok(in_scan(&v, &rows.rows, *negated)),
            }
        }
        Expr::Exists { query, negated } => {
            if matches!(state, SemiState::Unknown) {
                let (rs, correlated) = probe(ctx, query, tuple)?;
                if correlated {
                    *state = SemiState::Correlated;
                    return Ok(Value::Int(i64::from(rs.rows.is_empty() == *negated)));
                }
                *state = SemiState::Exists { non_empty: !rs.rows.is_empty() };
            }
            let SemiState::Exists { non_empty } = &*state else {
                unreachable!("EXISTS semi state settled above");
            };
            Ok(Value::Int(i64::from(*non_empty != *negated)))
        }
        // lowering only builds Semi steps from the two shapes above
        other => exec::eval_expr(ctx, other, tuple),
    }
}

/// Execute a semi-join's subquery against `tuple` and report whether it
/// read the outer row.
fn probe<T: Tuple + ?Sized>(
    ctx: &mut Ctx<'_>,
    query: &SelectStmt,
    tuple: &T,
) -> SqlResult<(Arc<ResultSet>, bool)> {
    let saved = ctx.used_outer;
    ctx.used_outer = false;
    let rs = exec::exec_subquery(ctx, query, tuple)?;
    let correlated = ctx.used_outer;
    ctx.used_outer = saved || correlated;
    Ok((rs, correlated))
}

/// `exec::eval_expr`'s linear IN probe: first `sql_eq` hit wins,
/// NULL comparisons remembered for the three-valued miss.
fn in_scan(v: &Value, rows: &[Row], negated: bool) -> Value {
    let mut saw_null = false;
    for r in rows {
        match v.sql_eq(&r[0]) {
            Some(true) => return Value::Int(i64::from(!negated)),
            Some(false) => {}
            None => saw_null = true,
        }
    }
    if saw_null {
        Value::Null
    } else {
        Value::Int(i64::from(negated))
    }
}
