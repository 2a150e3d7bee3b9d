//! The pipelined executor — the only way `sqlkit` runs FROM and WHERE.
//! It streams tuples depth-first through a [`PhysicalPlan`]'s stages
//! instead of materialising every intermediate join result.
//!
//! One reusable tuple buffer flows through the stage chain: the base
//! stage pushes a row's values, each join stage appends its matches (or
//! a NULL pad for an unmatched LEFT JOIN) and recurses, and the residual
//! filter at the end decides whether the finished tuple is cloned into
//! the output. Truncating the buffer on the way back up makes the whole
//! pipeline allocation-free per tuple except for the rows that actually
//! survive.
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
use crate::exec::{self, Ctx};
use crate::index::ColumnIndex;
use crate::plan::{Access, JoinOp, OpStats, PhysicalPlan, ResidualStep, Sarg, Stage};
use crate::value::{NormRef, NormValue, ResultSet, Row, Value};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Runtime form of one stage: its rows plus the access / join machinery
/// resolved against the live database.
struct StageRt<'d> {
    rows: &'d [Row],
    /// The sarg of an `IxScan` whose index was unusable, now a filter.
    degraded: Option<&'d Sarg>,
    op: OpRt<'d>,
}

enum OpRt<'d> {
    /// Base stage: iterate all rows or an index-provided rid list.
    Scan { rids: Option<Vec<u32>> },
    /// Equi join: hash table over the stage's filtered rows.
    Hash { left_key: usize, map: HashMap<NormRef<'d>, Vec<u32>> },
    /// Equi join probing the column's secondary index per tuple.
    Ix { left_key: usize, right_key: usize, ix: Arc<ColumnIndex> },
    /// Nested loop over a pre-filtered rid list.
    Nested { rids: Vec<u32>, on: Option<&'d Expr> },
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
    out: Vec<Row>,
}

/// Run FROM + WHERE of the core `plan` was lowered from, returning the
/// surviving tuples in emission order for the shared tail.
pub(crate) fn run(ctx: &mut Ctx<'_>, plan: &PhysicalPlan) -> SqlResult<Vec<Row>> {
    let db = ctx.db;
    let results: Vec<OnceCell<Arc<ResultSet>>> =
        plan.stages.iter().map(|_| OnceCell::new()).collect();
    let mut stages: Vec<StageRt<'_>> = Vec::with_capacity(plan.stages.len());
    let mut mu = MutState {
        ops: vec![OpStats::default(); plan.stages.len() + 1],
        semi: plan.residual.iter().map(|_| SemiState::Unknown).collect(),
        out: Vec::new(),
    };
    // a core without FROM filters and projects one empty tuple
    let mut input: Vec<Row> = vec![Vec::new()];
    let mut start = 0;
    for (k, st) in plan.stages.iter().enumerate() {
        stages.push(open(ctx, db, st, &results[k], &mut mu.ops[k])?);
        if st.can_fail() {
            let mut seg = Segment { ctx, mu: &mut mu, plan, stages: &stages, end: k + 1, last: false };
            input = seg.drive(start, &input)?;
            start = k + 1;
        }
    }
    if let Some(e) = &plan.fail {
        return Err(e.clone());
    }
    let mut seg = Segment { ctx, mu: &mut mu, plan, stages: &stages, end: stages.len(), last: true };
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
        out: Vec::new(),
    };
    let rt = open(ctx, db, st, &result, &mut mu.ops[0])?;
    let OpRt::Scan { rids: access } = &rt.op else {
        unreachable!("a base stage opens as a scan");
    };
    let mut kept = Vec::new();
    let mut visit = |rid: u32| -> SqlResult<()> {
        let row = &rt.rows[rid as usize];
        if passes(st, rt.degraded, row) && survives(ctx, plan, &mut mu, row)? {
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
fn open<'d>(
    ctx: &mut Ctx<'_>,
    db: &'d Database,
    st: &'d Stage,
    result: &'d OnceCell<Arc<ResultSet>>,
    op: &mut OpStats,
) -> SqlResult<StageRt<'d>> {
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
            let mut map: HashMap<NormRef<'_>, Vec<u32>> = HashMap::new();
            for_each_kept(&mut |rid| {
                let key = &rows[rid as usize][*right_key];
                if !key.is_null() {
                    map.entry(key.normalized_ref()).or_default().push(rid);
                }
            });
            OpRt::Hash { left_key: *left_key, map }
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

/// A run of stages driven as one pipeline.
struct Segment<'s, 'c, 'd> {
    ctx: &'s mut Ctx<'c>,
    mu: &'s mut MutState,
    plan: &'s PhysicalPlan,
    stages: &'s [StageRt<'d>],
    /// One past the last stage of the segment.
    end: usize,
    /// The plan's final segment: finished tuples face the residual chain.
    /// Tuples of an earlier segment are collected as they are.
    last: bool,
}

impl Segment<'_, '_, '_> {
    /// Push every tuple of `input` through stages `start..end` and return
    /// what comes out the far side.
    fn drive(&mut self, start: usize, input: &[Row]) -> SqlResult<Vec<Row>> {
        let mut buf: Vec<Value> = Vec::with_capacity(self.plan.layout.len());
        for tuple in input {
            buf.clear();
            buf.extend(tuple.iter().cloned());
            self.step(start, &mut buf)?;
        }
        Ok(std::mem::take(&mut self.mu.out))
    }

    /// Count the tuple in `buf` as an output of stage `k`, run it through
    /// the rest of the segment, and cut the buffer back to stage `k`'s
    /// input.
    fn descend(&mut self, k: usize, buf: &mut Vec<Value>) -> SqlResult<()> {
        self.mu.ops[k].actual_rows += 1;
        let r = self.step(k + 1, buf);
        buf.truncate(self.plan.stages[k].col_offset);
        r
    }

    fn emit(&mut self, k: usize, buf: &mut Vec<Value>, row: &Row) -> SqlResult<()> {
        buf.extend(row.iter().cloned());
        self.descend(k, buf)
    }

    /// The NULL pad of a LEFT JOIN tuple that matched nothing.
    fn pad(&mut self, k: usize, buf: &mut Vec<Value>) -> SqlResult<()> {
        let st = &self.plan.stages[k];
        if st.kind != JoinKind::Left {
            return Ok(());
        }
        buf.extend(std::iter::repeat_n(Value::Null, st.width));
        self.descend(k, buf)
    }

    fn step(&mut self, k: usize, buf: &mut Vec<Value>) -> SqlResult<()> {
        if k == self.end {
            if self.last {
                return finish(self.ctx, self.plan, self.mu, buf);
            }
            self.mu.out.push(buf.clone());
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
            OpRt::Hash { left_key, map } => {
                self.ctx.rows_scanned += 1;
                // clone the probe key out of the tuple buffer: the buffer is
                // extended/truncated while candidate rows stream through, so
                // the map lookup cannot keep a borrow into it
                let probe = buf[*left_key].clone();
                let matches = if probe.is_null() { None } else { map.get(&probe.normalized_ref()) };
                match matches {
                    Some(rids) if !rids.is_empty() => {
                        for &rid in rids {
                            self.ctx.rows_scanned += 1;
                            self.emit(k, buf, &rt.rows[rid as usize])?;
                        }
                    }
                    _ => self.pad(k, buf)?,
                }
            }
            OpRt::Ix { left_key, right_key, ix } => {
                self.ctx.rows_scanned += 1;
                if self.mu.ops[k].seeks == 0 {
                    self.ctx.ix_ops += 1;
                }
                self.mu.ops[k].seeks += 1;
                let probe = buf[*left_key].clone();
                let run = ix.eq_run(&probe);
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
                    buf.extend(rt.rows[rid as usize].iter().cloned());
                    // ON sees the tuple so far and nothing right of it
                    let keep = match on {
                        Some(on) => exec::eval_expr(self.ctx, on, buf)?
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

/// Keep a finished tuple if it survives the residual chain.
fn finish(
    ctx: &mut Ctx<'_>,
    plan: &PhysicalPlan,
    mu: &mut MutState,
    buf: &[Value],
) -> SqlResult<()> {
    if survives(ctx, plan, mu, buf)? {
        mu.out.push(buf.to_vec());
    }
    Ok(())
}

/// Run the residual chain on a finished tuple. Implements the AND
/// protocol of `exec::eval_expr`: `false` stops and drops, NULL marks
/// the tuple dropped but keeps evaluating (error fidelity), anything else
/// continues.
fn survives(
    ctx: &mut Ctx<'_>,
    plan: &PhysicalPlan,
    mu: &mut MutState,
    buf: &[Value],
) -> SqlResult<bool> {
    ctx.rows_scanned += 1;
    let mut dropped = false;
    let mut semi_idx = 0;
    for stepdef in &plan.residual {
        let v = match stepdef {
            ResidualStep::Pred(e) => exec::eval_expr(ctx, e, buf)?,
            ResidualStep::Semi(e) => {
                let i = semi_idx;
                semi_idx += 1;
                eval_semi(ctx, &mut mu.semi[i], e, buf)?
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
fn eval_semi(
    ctx: &mut Ctx<'_>,
    state: &mut SemiState,
    conjunct: &Expr,
    tuple: &[Value],
) -> SqlResult<Value> {
    if matches!(state, SemiState::Correlated) {
        return exec::eval_expr(ctx, conjunct, tuple);
    }
    match conjunct {
        Expr::InSubquery { expr, query, negated } => {
            let v = exec::eval_expr(ctx, expr, tuple)?;
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
fn probe(ctx: &mut Ctx<'_>, query: &SelectStmt, tuple: &[Value]) -> SqlResult<(Arc<ResultSet>, bool)> {
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
