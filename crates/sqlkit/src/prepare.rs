//! Prepared statements: parse once, bind column references to row-layout
//! slots, fold constant subtrees, lower every core to a physical plan, and
//! cache the result.
//!
//! [`prepare`] moves all name resolution and planning out of the per-row
//! path, so a statement run once pays for them once and a cached one not
//! again ([`PlanCache`]). The executor never sees a name: the binding pass
//! resolves every column reference it can reach, and one it cannot
//! resolve becomes an [`Expr::Unresolved`] that raises the lookup's error
//! when — and only if — execution reaches it, at the point a by-name
//! interpreter would have raised it.
//!
//! What the binder does per SELECT core:
//!
//! 1. resolves the FROM layout (recursing into FROM subqueries) and binds
//!    each JOIN ON against the join prefix it is evaluated on,
//! 2. freezes output labels (`AS` aliases are materialised, `*` and
//!    `alias.*` are pre-expanded),
//! 3. performs the GROUP BY / HAVING projection-alias substitution,
//! 4. rewrites every column into [`Expr::BoundColumn`] (local slot),
//!    [`Expr::OuterColumn`] (correlated environment slot) or
//!    [`Expr::Unresolved`],
//! 5. folds literal-only subtrees through [`eval_const`].
//!
//! An aggregate's trailing arguments (`group_concat`'s separator) bind in
//! the empty scope [`eval_const`] evaluates them in. A core whose FROM
//! names an unknown table is left as written: execution fails opening
//! that table, before any of the core's expressions run. ORDER BY terms
//! that name a position or an output label stay as written too — they are
//! output references, not names.

use crate::ast::*;
use crate::db::{with_lowercase, Database};
use crate::error::{SqlError, SqlResult};
use crate::exec::{self, eval_const, ExecStats};
use crate::functions::is_aggregate_name;
use crate::parser::parse_select;
use crate::plan::PhysicalPlan;
use crate::schema::{DbSchema, TableInfo};
use crate::scope::{self, ColBinding};
use crate::value::{ResultSet, Value};
use std::collections::HashMap;
use osql_chk::atomic::{AtomicU64, Ordering};
use osql_chk::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ---------------- schema fingerprint ----------------

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A stable fingerprint of a database schema: table and column names and
/// declared types. A [`Prepared`] statement embeds slot indices resolved
/// against a specific schema, so executing it is only valid against a
/// database with the same fingerprint.
pub fn schema_fingerprint(schema: &DbSchema) -> u64 {
    let mut h = fnv1a(FNV_BASIS, schema.name.as_bytes());
    for t in &schema.tables {
        h = fnv1a(h, &[0xff]);
        h = fnv1a(h, t.name.as_bytes());
        for c in &t.columns {
            h = fnv1a(h, &[0xfe]);
            h = fnv1a(h, c.name.as_bytes());
            h = fnv1a(h, c.ty.as_sql().as_bytes());
        }
    }
    h
}

/// The planning fingerprint: the schema fingerprint extended with the
/// declared secondary-index set. A [`Prepared`] statement embeds a
/// *physical* plan whose access paths assume specific indexes exist, so
/// creating or dropping an index must invalidate cached plans even
/// though the logical schema is unchanged.
pub fn plan_fingerprint(db: &Database) -> u64 {
    let mut h = schema_fingerprint(&db.schema);
    for def in db.index_defs() {
        h = fnv1a(h, &[0xfd]);
        h = with_lowercase(&def.table, |t| fnv1a(h, t.as_bytes()));
        h = with_lowercase(&def.column, |c| fnv1a(h, c.as_bytes()));
    }
    h
}

// ---------------- prepared statements ----------------

/// A SELECT statement that went through the binding pass, carrying the
/// physical plan of each of its cores (one, plus one per compound arm).
#[derive(Debug, Clone)]
pub struct Prepared {
    stmt: SelectStmt,
    fingerprint: u64,
    plans: Vec<PhysicalPlan>,
}

impl Prepared {
    /// The bound statement (for inspection and testing).
    pub fn statement(&self) -> &SelectStmt {
        &self.stmt
    }

    /// Fingerprint of the schema + index set this plan was prepared
    /// against (see [`plan_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The plans of the statement's cores, in statement order.
    pub(crate) fn plans(&self) -> &[PhysicalPlan] {
        &self.plans
    }

    /// Execute against `db`, which must have the schema the plan was
    /// prepared against.
    pub fn execute(&self, db: &Database) -> SqlResult<ResultSet> {
        self.execute_with_stats(db).map(|(rs, _)| rs)
    }

    /// Execute against `db`, also reporting execution statistics.
    pub fn execute_with_stats(&self, db: &Database) -> SqlResult<(ResultSet, ExecStats)> {
        let (result, stats, _) = self.run(db, plan_fingerprint(db));
        result.map(|rs| (rs, stats))
    }

    /// Run the held plans against `db`, whose [`plan_fingerprint`] the
    /// caller computed. The statistics and the number of index-driven
    /// operators that ran are reported even when execution fails.
    pub(crate) fn run(&self, db: &Database, fingerprint: u64) -> (SqlResult<ResultSet>, ExecStats, u64) {
        let mut ctx = exec::Ctx::new(db);
        let result = if fingerprint == self.fingerprint {
            exec::exec_select_inner(&mut ctx, &self.stmt, Some(&self.plans))
        } else {
            Err(SqlError::Other("prepared statement executed against a different schema".into()))
        };
        (result, ExecStats { rows_scanned: ctx.rows_scanned }, ctx.ix_ops)
    }
}

/// Parse and bind a SELECT statement against `db`'s schema.
pub fn prepare(db: &Database, sql: &str) -> SqlResult<Prepared> {
    let stmt = parse_select(sql)?;
    Ok(prepare_stmt(db, stmt))
}

/// Bind an already-parsed SELECT statement against `db`'s schema, then
/// lower each core to its physical plan. Only a single-core statement is
/// allowed predicate pushdown and index operators; compound arms, like
/// sub-selects, take the naive plan.
pub fn prepare_stmt(db: &Database, mut stmt: SelectStmt) -> Prepared {
    let binder = Binder { schema: &db.schema };
    binder.bind_statement(&mut stmt, &[]);
    let pushdown = stmt.compounds.is_empty();
    let plans = std::iter::once(&stmt.core)
        .chain(stmt.compounds.iter().map(|(_, core)| core))
        .map(|core| crate::plan::lower(db, core, pushdown))
        .collect();
    Prepared { stmt, fingerprint: plan_fingerprint(db), plans }
}

/// Bind the expressions of an UPDATE or DELETE over `table` — its WHERE
/// and its SET expressions — the way [`prepare_stmt`] binds a SELECT's
/// WHERE over `FROM table`: against the table's own columns, with no
/// enclosing environment. Returns that layout, which the row search is
/// lowered against ([`crate::plan::lower_dml`]).
pub(crate) fn bind_dml<'e>(
    db: &Database,
    table: &TableInfo,
    exprs: impl IntoIterator<Item = &'e mut Expr>,
) -> Vec<ColBinding> {
    let binder = Binder { schema: &db.schema };
    let mut layout = Vec::new();
    scope::push_table(&mut layout, &db.schema, &table.name, None);
    let env = Env { layout: &layout, chain: &[] };
    for e in exprs {
        binder.bind_and_fold(e, &env);
    }
    layout
}

/// Bind an expression evaluated with no row: in the empty scope, its
/// sub-selects against `schema`.
pub(crate) fn bind_const(schema: &DbSchema, e: &mut Expr) {
    Binder { schema }.bind_expr(e, &Env { layout: &[], chain: &[] });
}

// ---------------- the binding pass ----------------

/// Replace unqualified column references that match a projection alias with
/// the aliased expression (GROUP BY / HAVING alias support).
pub(crate) fn substitute_aliases(e: &Expr, items: &[(Expr, String)]) -> Expr {
    let mut out = e.clone();
    out.walk_mut(&mut |node| {
        let Expr::Column { table: None, column, .. } = &*node else { return };
        let aliased = items.iter().find(|(expr, label)| label.eq_ignore_ascii_case(column) && *expr != *node);
        if let Some((expr, _)) = aliased {
            *node = expr.clone();
        }
    });
    out
}

/// Fold a fully-constant expression into a literal. Failures are left
/// unfolded so the runtime raises the identical error at the same point.
fn try_fold(e: &mut Expr) {
    if matches!(e, Expr::Literal(_)) {
        return;
    }
    if let Ok(v) = eval_const(e) {
        *e = Expr::Literal(v);
    }
}

/// The fold step of binding a composite: constant when every child is
/// (`flags`), else each constant child folds.
fn fold_constant_kids<'k>(kids: impl IntoIterator<Item = &'k mut Expr>, flags: &[bool]) -> bool {
    if flags.iter().all(|f| *f) {
        return true;
    }
    for (k, &is_const) in kids.into_iter().zip(flags) {
        if is_const {
            try_fold(k);
        }
    }
    false
}

struct Env<'a> {
    layout: &'a [ColBinding],
    chain: &'a [Vec<ColBinding>],
}

struct CoreInfo {
    layout: Option<Vec<ColBinding>>,
    labels: Option<Vec<String>>,
}

struct Binder<'a> {
    schema: &'a DbSchema,
}

impl Binder<'_> {
    /// Bind a statement whose enclosing (correlated) environments have the
    /// layouts in `chain`, innermost last. Returns the statement's output
    /// labels when they are statically known.
    fn bind_statement(&self, stmt: &mut SelectStmt, chain: &[Vec<ColBinding>]) -> Option<Vec<String>> {
        let compound = !stmt.compounds.is_empty();
        let first = self.bind_core(&mut stmt.core, chain);
        for (_, core) in &mut stmt.compounds {
            self.bind_core(core, chain);
        }
        if !compound {
            // Single-core ORDER BY terms evaluate against the core's own
            // layout; compound ORDER BY is resolved purely against output
            // columns and must stay raw.
            if let Some(layout) = &first.layout {
                let env = Env { layout, chain };
                let labels = first.labels.as_deref().unwrap_or_default();
                for item in &mut stmt.order_by {
                    self.bind_order_expr(&mut item.expr, labels, &env);
                }
            }
        }
        // LIMIT/OFFSET evaluate with an empty local layout; correlated
        // references still see the ambient chain.
        let empty: Vec<ColBinding> = Vec::new();
        let env = Env { layout: &empty, chain };
        if let Some(l) = &mut stmt.limit {
            self.bind_and_fold(l, &env);
        }
        if let Some(o) = &mut stmt.offset {
            self.bind_and_fold(o, &env);
        }
        first.labels
    }

    fn bind_core(&self, core: &mut SelectCore, chain: &[Vec<ColBinding>]) -> CoreInfo {
        let layout = match &mut core.from {
            Some(from) => self.layout_of_from(from, chain),
            None => Some(Vec::new()),
        };
        let Some(layout) = layout else {
            // Some FROM reference is unresolvable: execution fails while
            // opening the stages, before any of this core's expressions
            // run, so leave them raw.
            return CoreInfo { layout: None, labels: None };
        };
        // The raw (expr, label) pairs exactly as the tail expands them:
        // wildcards become one qualified reference per layout slot, and
        // default labels are frozen before binding mutates the expressions
        // they would be printed from. When the expansion fails, so does
        // every execution, right after WHERE: what else binds never runs.
        let snapshot = scope::expand_items(&core.items, &layout).map(|items| {
            items.into_iter().map(|(e, label)| (e.into_owned(), label)).collect::<Vec<_>>()
        });
        let labels = snapshot.ok().map(|snapshot| {
            // GROUP BY / HAVING read projection aliases: substitute them
            // once, here, before binding
            core.group_by = core.group_by.iter().map(|g| substitute_aliases(g, &snapshot)).collect();
            core.having = core.having.as_ref().map(|h| substitute_aliases(h, &snapshot));
            let labels = snapshot.iter().map(|(_, l)| l.clone()).collect();
            core.items = snapshot
                .into_iter()
                .map(|(expr, label)| SelectItem::Expr { expr, alias: Some(label) })
                .collect();
            labels
        });
        let env = Env { layout: &layout, chain };
        let items = core.items.iter_mut().filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        });
        for e in core.where_clause.iter_mut().chain(items).chain(&mut core.group_by).chain(&mut core.having) {
            self.bind_and_fold(e, &env);
        }
        CoreInfo { layout: Some(layout), labels }
    }

    /// Resolve the FROM clause's combined layout, binding FROM subqueries
    /// (which inherit the ambient chain unchanged) and each ON predicate
    /// against the join prefix it is evaluated on: every table up to and
    /// including the one it joins. An unknown prefix already failed before
    /// the ON could run, so that ON stays as written.
    fn layout_of_from(&self, from: &mut FromClause, chain: &[Vec<ColBinding>]) -> Option<Vec<ColBinding>> {
        let mut layout = Vec::new();
        let mut known = self.push_table(&mut from.base, chain, &mut layout);
        for join in &mut from.joins {
            known &= self.push_table(&mut join.table, chain, &mut layout);
            if let (true, Some(on)) = (known, &mut join.on) {
                self.bind_and_fold(on, &Env { layout: &layout, chain });
            }
        }
        known.then_some(layout)
    }

    /// Append the slots of one FROM table reference, binding a
    /// FROM-subquery on the way; false when its layout is unknowable.
    fn push_table(
        &self,
        tref: &mut TableRef,
        chain: &[Vec<ColBinding>],
        layout: &mut Vec<ColBinding>,
    ) -> bool {
        match tref {
            TableRef::Named { name, alias, .. } => {
                scope::push_table(layout, self.schema, name, alias.as_deref()).is_some()
            }
            TableRef::Subquery { query, alias } => match self.bind_statement(query, chain) {
                Some(labels) => {
                    scope::push_labels(layout, alias, labels);
                    true
                }
                None => false,
            },
        }
    }

    /// ORDER BY terms the executor resolves as positions or output-label
    /// references must stay raw; everything else binds but never folds at
    /// the top (a folded integer literal would be re-read as a position).
    fn bind_order_expr(&self, e: &mut Expr, labels: &[String], env: &Env) {
        match e {
            Expr::Literal(Value::Int(k)) if *k >= 1 && (*k as usize) <= labels.len() => {}
            Expr::Column { table: None, column, .. }
                if labels.iter().any(|l| l.eq_ignore_ascii_case(column)) => {}
            _ => {
                self.bind_expr(e, env);
            }
        }
    }

    /// Bind a sub-select met inside an expression: the enclosing core's
    /// layout becomes its innermost outer environment.
    fn bind_nested(&self, query: &mut SelectStmt, env: &Env) {
        let mut chain = env.chain.to_vec();
        chain.push(env.layout.to_vec());
        self.bind_statement(query, &chain);
    }

    fn bind_and_fold(&self, e: &mut Expr, env: &Env) {
        if self.bind_expr(e, env) {
            try_fold(e);
        }
    }

    /// Bind children; when every child is constant the composite itself is
    /// constant (returned to the caller unfolded so folding happens at the
    /// topmost constant boundary), otherwise fold each constant child. A
    /// node of fixed arity keeps its children on the stack.
    fn bind_composite<const N: usize>(&self, mut kids: [&mut Expr; N], env: &Env) -> bool {
        let flags = kids.each_mut().map(|k| self.bind_expr(k, env));
        fold_constant_kids(kids, &flags)
    }

    /// [`Binder::bind_composite`] for a node with any number of children.
    fn bind_variadic(&self, mut kids: Vec<&mut Expr>, env: &Env) -> bool {
        let flags: Vec<bool> = kids.iter_mut().map(|k| self.bind_expr(k, env)).collect();
        fold_constant_kids(kids, &flags)
    }

    /// Bind an expression in place, returning whether the whole subtree is
    /// constant (no columns, wildcards, subqueries, or aggregates).
    fn bind_expr(&self, e: &mut Expr, env: &Env) -> bool {
        match e {
            Expr::Literal(_) => true,
            Expr::Column { table, column, .. } => {
                let outer = env.chain.iter().rev().map(Vec::as_slice);
                let layouts = std::iter::once(env.layout).chain(outer);
                *e = match scope::lookup(layouts, table.as_deref(), column) {
                    Ok((0, index)) => Expr::BoundColumn { index },
                    Ok((up, index)) => Expr::OuterColumn { up: up - 1, index },
                    Err(miss) => Expr::Unresolved(miss.error(table.as_deref(), column)),
                };
                false
            }
            Expr::BoundColumn { .. }
            | Expr::OuterColumn { .. }
            | Expr::Unresolved(_)
            | Expr::Wildcard => false,
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                self.bind_composite([expr.as_mut()], env)
            }
            Expr::Binary { left, right, .. } => self.bind_composite([left.as_mut(), right.as_mut()], env),
            Expr::Like { expr, pattern, .. } => self.bind_composite([expr.as_mut(), pattern.as_mut()], env),
            Expr::Between { expr, low, high, .. } => {
                self.bind_composite([expr.as_mut(), low.as_mut(), high.as_mut()], env)
            }
            Expr::InList { expr, list, .. } => {
                let mut kids: Vec<&mut Expr> = vec![expr.as_mut()];
                kids.extend(list.iter_mut());
                self.bind_variadic(kids, env)
            }
            Expr::Case { operand, branches, else_expr } => {
                let mut kids: Vec<&mut Expr> = Vec::new();
                if let Some(op) = operand {
                    kids.push(op.as_mut());
                }
                for (w, t) in branches {
                    kids.push(w);
                    kids.push(t);
                }
                if let Some(el) = else_expr {
                    kids.push(el.as_mut());
                }
                self.bind_variadic(kids, env)
            }
            Expr::Function { name, args, .. } if is_aggregate_name(name, args.len()) => {
                // The first argument evaluates per row in the group;
                // trailing arguments (group_concat's separator) evaluate
                // through eval_const, with no row and no tables.
                let empty = Env { layout: &[], chain: &[] };
                for (i, a) in args.iter_mut().enumerate() {
                    self.bind_and_fold(a, if i == 0 { env } else { &empty });
                }
                false
            }
            Expr::Function { args, .. } => {
                self.bind_variadic(args.iter_mut().collect(), env)
            }
            Expr::InSubquery { expr, query, .. } => {
                if self.bind_expr(expr, env) {
                    try_fold(expr);
                }
                self.bind_nested(query, env);
                false
            }
            Expr::Subquery(query) | Expr::Exists { query, .. } => {
                self.bind_nested(query, env);
                false
            }
        }
    }
}

// ---------------- plan cache ----------------

/// Counters exported by a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to parse + bind (including parse failures).
    pub misses: u64,
    /// Cumulative time spent parsing + binding, in microseconds.
    pub prepare_us: u64,
    /// Cumulative time spent executing prepared plans, in microseconds.
    pub execute_us: u64,
    /// Index-driven operators (IxScan or IxJoin) that ran, summed over
    /// executions, failed ones included.
    pub ix_scans: u64,
    /// Executions, failed ones included, in which no index-driven
    /// operator ran: every access was a scan, every join a hash or a
    /// nested loop.
    pub fallback_scans: u64,
    /// Cumulative `rows_scanned` across plan-cache executions.
    pub rows_scanned: u64,
}

struct Entry {
    fingerprint: u64,
    sql: String,
    tick: u64,
    plan: Arc<Prepared>,
}

struct CacheInner {
    /// Buckets keyed by `fnv(fingerprint, sql)`; collisions chain within
    /// the bucket so lookups never allocate a composite key string.
    map: HashMap<u64, Vec<Entry>>,
    len: usize,
    tick: u64,
}

impl CacheInner {
    /// Advance the clock; if `(fingerprint, sql)` is cached, mark it used
    /// now and return its plan.
    fn touch(&mut self, key: u64, fingerprint: u64, sql: &str) -> Option<Arc<Prepared>> {
        self.tick += 1;
        let tick = self.tick;
        let bucket = self.map.get_mut(&key)?;
        let entry = bucket.iter_mut().find(|e| e.fingerprint == fingerprint && e.sql == sql)?;
        entry.tick = tick;
        Some(Arc::clone(&entry.plan))
    }
}

/// An LRU cache of [`Prepared`] plans keyed by (plan fingerprint, SQL),
/// shared across threads. A hit skips parsing and binding; a miss binds
/// the caller's parsed statement ([`PlanCache::execute_with`]) or parses
/// `sql`. Hits are rare in serving: refinement runs each distinct text of
/// a question once and the vote runs nothing, so only a text repeated
/// across questions hits (0.16 % of lookups on `cold_full`). Eval's
/// repeated gold-SQL executions are what the cache is for.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    prepare_us: AtomicU64,
    execute_us: AtomicU64,
    ix_scans: AtomicU64,
    fallback_scans: AtomicU64,
    rows_scanned: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner { map: HashMap::new(), len: 0, tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            prepare_us: AtomicU64::new(0),
            execute_us: AtomicU64::new(0),
            ix_scans: AtomicU64::new(0),
            fallback_scans: AtomicU64::new(0),
            rows_scanned: AtomicU64::new(0),
        }
    }

    fn key(fingerprint: u64, sql: &str) -> u64 {
        fnv1a(fnv1a(FNV_BASIS, &fingerprint.to_le_bytes()), sql.as_bytes())
    }

    /// Fetch (or parse + bind and insert) the plan for `sql` against `db`.
    /// Parse errors are returned without being cached and count as misses.
    pub fn prepared(&self, db: &Database, sql: &str) -> SqlResult<Arc<Prepared>> {
        let fingerprint = plan_fingerprint(db);
        let (plan, hit, prepare_us) = self.lookup(db, fingerprint, sql, || parse_select(sql));
        // volatile: hit/miss depends on process-wide cache warmth, not on
        // the query being traced
        if osql_trace::active::is_active() {
            if hit {
                osql_trace::active::event_volatile("plan", &[("outcome", "hit")], &[]);
            } else {
                osql_trace::active::event_volatile(
                    "plan",
                    &[("outcome", "miss")],
                    &[("prepare_ms", prepare_us as f64 / 1e3)],
                );
            }
        }
        plan
    }

    /// The one cache lookup, with no trace event: returns the plan (or
    /// error), whether it was a hit, and the prepare cost in µs on a miss,
    /// where `parse` supplies `sql`'s statement. `fingerprint` is `db`'s
    /// [`plan_fingerprint`].
    fn lookup(
        &self,
        db: &Database,
        fingerprint: u64,
        sql: &str,
        parse: impl FnOnce() -> SqlResult<SelectStmt>,
    ) -> (SqlResult<Arc<Prepared>>, bool, u64) {
        let key = Self::key(fingerprint, sql);
        let cached = self.inner.lock().touch(key, fingerprint, sql);
        if let Some(plan) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Ok(plan), true, 0);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let prepared = parse().map(|stmt| prepare_stmt(db, stmt));
        let prepare_us = t0.elapsed().as_micros() as u64;
        self.prepare_us.fetch_add(prepare_us, Ordering::Relaxed);
        let plan = match prepared {
            Ok(p) => Arc::new(p),
            Err(e) => return (Err(e), false, prepare_us),
        };
        let mut inner = self.inner.lock();
        // Another thread may have raced us to the same statement; reuse
        // its entry instead of growing the cache.
        if let Some(raced) = inner.touch(key, fingerprint, sql) {
            return (Ok(raced), false, prepare_us);
        }
        let tick = inner.tick;
        while inner.len >= self.capacity {
            evict_oldest(&mut inner);
        }
        inner
            .map
            .entry(key)
            .or_default()
            .push(Entry { fingerprint, sql: sql.to_owned(), tick, plan: Arc::clone(&plan) });
        inner.len += 1;
        (Ok(plan), false, prepare_us)
    }

    /// Prepare (through the cache) and execute in one call, timing the
    /// execute phase separately from the prepare phase.
    pub fn execute(&self, db: &Database, sql: &str) -> SqlResult<(ResultSet, ExecStats)> {
        self.execute_with(db, sql, || parse_select(sql))
    }

    /// [`PlanCache::execute`], where a miss takes `sql`'s statement from
    /// `parse`: a caller that already holds it parsed hands in a copy
    /// instead of having `sql` parsed again.
    pub fn execute_with(
        &self,
        db: &Database,
        sql: &str,
        parse: impl FnOnce() -> SqlResult<SelectStmt>,
    ) -> SqlResult<(ResultSet, ExecStats)> {
        let fingerprint = plan_fingerprint(db);
        let (plan, hit, prepare_us) = self.lookup(db, fingerprint, sql, parse);
        let plan = plan?;
        let t0 = Instant::now();
        let (result, stats, ix_ops) = plan.run(db, fingerprint);
        if ix_ops > 0 {
            self.ix_scans.fetch_add(ix_ops, Ordering::Relaxed);
        } else {
            self.fallback_scans.fetch_add(1, Ordering::Relaxed);
        }
        let result = result.map(|rs| {
            self.rows_scanned.fetch_add(stats.rows_scanned, Ordering::Relaxed);
            (rs, stats)
        });
        let execute_us = t0.elapsed().as_micros() as u64;
        self.execute_us.fetch_add(execute_us, Ordering::Relaxed);
        // is_active guard so the untraced hot path skips event recording
        // entirely (one thread-local read). The traced warm path stays
        // allocation-minimal: one event, empty labels (a plan-cache hit is
        // the implicit default — only a miss gets a label), and
        // rows_scanned carried as a numeric timing instead of a formatted
        // string. Measured by the `engine_trace` bench group.
        if osql_trace::active::is_active() {
            if let Ok((_, stats)) = &result {
                let execute = ("execute_ms", execute_us as f64 / 1e3);
                let rows = ("rows_scanned", stats.rows_scanned as f64);
                if hit {
                    osql_trace::active::event_volatile("exec", &[], &[execute, rows]);
                } else {
                    let prepare = ("prepare_ms", prepare_us as f64 / 1e3);
                    let miss = [("plan", "miss")];
                    osql_trace::active::event_volatile("exec", &miss, &[execute, prepare, rows]);
                }
            }
        }
        result
    }

    /// Snapshot of the cache's cumulative counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            prepare_us: self.prepare_us.load(Ordering::Relaxed),
            execute_us: self.execute_us.load(Ordering::Relaxed),
            ix_scans: self.ix_scans.load(Ordering::Relaxed),
            fallback_scans: self.fallback_scans.load(Ordering::Relaxed),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.len = 0;
    }
}

fn evict_oldest(inner: &mut CacheInner) {
    // ticks are unique, so the minimum names exactly one entry
    let victim = inner.map.iter().flat_map(|(key, b)| b.iter().map(move |e| (e.tick, *key))).min();
    if let Some((tick, key)) = victim {
        if let Some(bucket) = inner.map.get_mut(&key) {
            bucket.retain(|e| e.tick != tick);
            inner.len -= 1;
            if bucket.is_empty() {
                inner.map.remove(&key);
            }
        }
    }
}

/// The process-wide plan cache used by the pipeline's execution helpers.
pub fn plan_cache() -> &'static PlanCache {
    static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
    GLOBAL.get_or_init(|| PlanCache::new(512))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_select_with_stats;
    use crate::parser::parse_select;

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

    /// The unbound reference and prepared execution must agree on results
    /// and errors; raw and prepared execution also on the rows_scanned
    /// cost proxy.
    fn assert_identical(db: &Database, sql: &str) {
        let stmt = parse_select(sql);
        let raw = stmt.clone().and_then(|stmt| execute_select_with_stats(db, &stmt));
        let prepared = prepare(db, sql).and_then(|p| p.execute_with_stats(db));
        assert_eq!(raw, prepared, "raw and prepared differ for {sql:?}");
        let reference = stmt.and_then(|stmt| crate::reference::execute(db, &stmt));
        match (reference, prepared) {
            (Ok(rs_r), Ok((rs_p, _))) => {
                assert_eq!(rs_r, rs_p, "result mismatch for {sql:?}");
            }
            (Err(er), Err(ep)) => {
                assert_eq!(er.to_string(), ep.to_string(), "error mismatch for {sql:?}");
            }
            (r, p) => panic!("outcome mismatch for {sql:?}: reference={r:?} prepared={p:?}"),
        }
    }

    #[test]
    fn prepared_matches_raw_on_core_queries() {
        let db = clinic();
        for sql in [
            "SELECT Name FROM Patient WHERE City = 'Oslo'",
            "SELECT * FROM Patient ORDER BY ID",
            "SELECT P.* FROM Patient AS P WHERE P.ID > 1",
            "SELECT T1.Name, T2.IGA FROM Patient AS T1 INNER JOIN Laboratory AS T2 \
             ON T1.ID = T2.ID WHERE T2.IGA > 100 ORDER BY T2.IGA DESC",
            "SELECT City, COUNT(*) AS n FROM Patient GROUP BY City HAVING n > 1",
            "SELECT City AS c FROM Patient GROUP BY c ORDER BY 1",
            "SELECT Name FROM Patient WHERE ID IN (SELECT ID FROM Laboratory WHERE IGA > 100)",
            "SELECT Name FROM Patient AS P WHERE EXISTS \
             (SELECT 1 FROM Laboratory AS L WHERE L.ID = P.ID AND L.IGA > 500)",
            "SELECT Name, (SELECT MAX(IGA) FROM Laboratory WHERE Laboratory.ID = Patient.ID) \
             FROM Patient",
            "SELECT s.Name FROM (SELECT Name, City FROM Patient WHERE City IS NOT NULL) AS s \
             WHERE s.City = 'Oslo'",
            "SELECT Name FROM Patient WHERE Name LIKE 'A%'",
            "SELECT City FROM Patient UNION SELECT Name FROM Patient ORDER BY 1 LIMIT 3",
            "SELECT DISTINCT City FROM Patient ORDER BY City LIMIT 2 OFFSET 1",
            "SELECT Name, CASE WHEN ID < 3 THEN 'lo' ELSE 'hi' END FROM Patient",
            "SELECT group_concat(Name, '; ') FROM Patient WHERE City = 'Oslo'",
            "SELECT `First Date` FROM Patient WHERE ID = 2",
            "SELECT COUNT(*) FROM Patient WHERE 1 + 1 = 2",
            "SELECT AVG(IGA) FROM Laboratory WHERE ID IN (1, 2, 3)",
        ] {
            assert_identical(&db, sql);
        }
    }

    #[test]
    fn prepared_matches_raw_on_errors() {
        let db = clinic();
        for sql in [
            "SELECT Nope FROM Patient",
            "SELECT ID FROM Ghost",
            "SELECT ID FROM Patient AS a, Patient AS b WHERE ID = 1",
            "SELECT * FROM Patient WHERE SUM(ID) > 1",
        ] {
            assert_identical(&db, sql);
        }
    }

    #[test]
    fn alias_shadowing_in_group_by_matches_raw() {
        // `ghost` is both a projection alias and a real column chain:
        // the substitution pass must behave exactly like the runtime one.
        let mut db = Database::new("shadow");
        db.execute_script(
            "CREATE TABLE t (ghost INTEGER, v INTEGER);\
             INSERT INTO t VALUES (1, 10), (1, 20), (2, 30);",
        )
        .unwrap();
        for sql in [
            "SELECT ghost AS a, SUM(v) FROM t GROUP BY a",
            "SELECT ghost AS a, 1 AS ghost, SUM(v) FROM t GROUP BY a",
            "SELECT ghost AS ghost, SUM(v) FROM t GROUP BY ghost",
        ] {
            assert_identical(&db, sql);
        }
    }

    #[test]
    fn binding_resolves_columns_to_slots() {
        let db = clinic();
        let p = prepare(&db, "SELECT Name FROM Patient WHERE City = 'Oslo'").unwrap();
        let core = &p.statement().core;
        let SelectItem::Expr { expr, .. } = &core.items[0] else { panic!() };
        assert_eq!(*expr, Expr::BoundColumn { index: 1 });
        let Some(Expr::Binary { left, .. }) = &core.where_clause else { panic!() };
        assert_eq!(**left, Expr::BoundColumn { index: 3 });
    }

    #[test]
    fn correlated_references_bind_to_outer_slots() {
        let db = clinic();
        let p = prepare(
            &db,
            "SELECT Name FROM Patient WHERE EXISTS \
             (SELECT 1 FROM Laboratory WHERE Laboratory.ID = Patient.ID)",
        )
        .unwrap();
        let Some(Expr::Exists { query, .. }) = &p.statement().core.where_clause else {
            panic!()
        };
        let Some(Expr::Binary { left, right, .. }) = &query.core.where_clause else { panic!() };
        assert_eq!(**left, Expr::BoundColumn { index: 1 });
        assert_eq!(**right, Expr::OuterColumn { up: 0, index: 0 });
    }

    #[test]
    fn constant_subtrees_fold_to_literals() {
        let db = clinic();
        let p = prepare(&db, "SELECT 1 + 2 * 3 AS x, ID + (4 - 1) FROM Patient").unwrap();
        let core = &p.statement().core;
        let SelectItem::Expr { expr, alias } = &core.items[0] else { panic!() };
        assert_eq!(*expr, Expr::lit(7i64));
        assert_eq!(alias.as_deref(), Some("x"));
        let SelectItem::Expr { expr, alias } = &core.items[1] else { panic!() };
        let Expr::Binary { right, .. } = expr else { panic!() };
        assert_eq!(**right, Expr::lit(3i64));
        // the default label was frozen from the raw expression, not the
        // folded one
        let label = alias.as_deref().unwrap();
        assert!(label.contains("4") && label.contains("1"), "got {label:?}");
    }

    #[test]
    fn order_by_position_and_alias_stay_raw() {
        let db = clinic();
        let p = prepare(&db, "SELECT Name AS n, ID FROM Patient ORDER BY 2, n").unwrap();
        let stmt = p.statement();
        assert_eq!(stmt.order_by[0].expr, Expr::lit(2i64));
        assert_eq!(stmt.order_by[1].expr, Expr::col("n"));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let db = clinic();
        let p = prepare(&db, "SELECT Name FROM Patient").unwrap();
        let other = Database::new("other");
        let err = p.execute(&other).unwrap_err();
        assert!(err.to_string().contains("different schema"), "got {err}");
    }

    #[test]
    fn fingerprint_tracks_schema_shape() {
        let db = clinic();
        let fp = schema_fingerprint(&db.schema);
        assert_eq!(fp, schema_fingerprint(&db.schema));
        let mut other = Database::new("clinic");
        other
            .execute_script("CREATE TABLE Patient (ID INTEGER PRIMARY KEY, Name TEXT);")
            .unwrap();
        assert_ne!(fp, schema_fingerprint(&other.schema));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let db = clinic();
        let cache = PlanCache::new(8);
        let sql = "SELECT COUNT(*) FROM Patient";
        let (rs1, _) = cache.execute(&db, sql).unwrap();
        let (rs2, _) = cache.execute(&db, sql).unwrap();
        assert_eq!(rs1, rs2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(cache.len(), 1);
        // parse failures count as misses and are not cached
        assert!(cache.execute(&db, "SELEC nope").is_err());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_executions_are_counted_by_the_operators_that_ran() {
        let mut db = clinic();
        db.ensure_default_indexes();
        let cache = PlanCache::new(8);
        // fails in the projection, after a full scan
        assert!(cache.execute(&db, "SELECT Nope FROM Patient WHERE City = 'Oslo'").is_err());
        assert_eq!((cache.stats().ix_scans, cache.stats().fallback_scans), (0, 1));
        // fails in the projection, after an index scan
        assert!(cache.execute(&db, "SELECT Nope FROM Patient WHERE ID = 2").is_err());
        assert_eq!((cache.stats().ix_scans, cache.stats().fallback_scans), (1, 1));
        // fails before any operator opens
        assert!(cache.execute(&db, "SELECT 1 FROM Ghost").is_err());
        assert_eq!((cache.stats().ix_scans, cache.stats().fallback_scans), (1, 2));
        cache.execute(&db, "SELECT Name FROM Patient WHERE ID = 2").unwrap();
        assert_eq!((cache.stats().ix_scans, cache.stats().fallback_scans), (2, 2));
        // only successful executions report a cost
        assert_eq!(cache.stats().rows_scanned, 2);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let db = clinic();
        let cache = PlanCache::new(2);
        cache.execute(&db, "SELECT 1").unwrap();
        cache.execute(&db, "SELECT 2").unwrap();
        cache.execute(&db, "SELECT 1").unwrap(); // refresh 1
        cache.execute(&db, "SELECT 3").unwrap(); // evicts 2
        assert_eq!(cache.len(), 2);
        cache.execute(&db, "SELECT 1").unwrap();
        let before = cache.stats().misses;
        cache.execute(&db, "SELECT 2").unwrap(); // was evicted → miss
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn cache_distinguishes_databases_with_same_sql() {
        let a = clinic();
        let mut b = Database::new("shadow");
        b.execute_script("CREATE TABLE Patient (ID INTEGER); INSERT INTO Patient VALUES (9);")
            .unwrap();
        let cache = PlanCache::new(8);
        let (rs_a, _) = cache.execute(&a, "SELECT COUNT(*) FROM Patient").unwrap();
        let (rs_b, _) = cache.execute(&b, "SELECT COUNT(*) FROM Patient").unwrap();
        assert_eq!(rs_a.rows[0][0], Value::Int(4));
        assert_eq!(rs_b.rows[0][0], Value::Int(1));
        assert_eq!(cache.stats().misses, 2);
    }
}
