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
//! The binding pass is also the analyzer: at the lookups it makes and the
//! nodes it visits it files the findings of [`crate::analyze`] — each
//! node's before it binds or folds the node — and keeps which FROM tables
//! were read. [`crate::bind`] keeps them; [`prepare_stmt`], DML and
//! constants run the same walk and drop them, and filing nothing
//! allocates nothing. What the binder does per SELECT core, in the order
//! the findings are filed:
//!
//! 1. resolves the FROM layout (recursing into FROM subqueries; an unknown
//!    table adds no slot and poisons the names it could have held) and
//!    binds each JOIN ON against the join prefix it is evaluated on,
//! 2. binds WHERE,
//! 3. expands the projection as execution does (`*` and `alias.*` are
//!    pre-expanded, `AS` aliases and default labels materialised) and
//!    performs the GROUP BY / HAVING projection-alias substitution,
//! 4. binds GROUP BY, HAVING and the items, then checks GROUP BY coverage
//!    on the items as written, and binds ORDER BY.
//!
//! Binding rewrites every column into [`Expr::BoundColumn`] (local slot),
//! [`Expr::OuterColumn`] (correlated environment slot) or
//! [`Expr::Unresolved`], and folds literal-only subtrees through
//! [`eval_const`].
//!
//! An aggregate's trailing arguments (`group_concat`'s separator) bind in
//! the empty scope [`eval_const`] evaluates them in. A core whose FROM
//! names an unknown table binds too, to file its findings: execution fails
//! opening that table, before any of the core's expressions run. ORDER BY
//! terms that name a position or an output label stay as written — they
//! are output references, not names.
//!
//! A statement bound already is lowered and run without the cache
//! ([`Bound::execute`]): the refinement beam's gate runs what its front
//! end bound once for the text's analysis. A plan-cache miss parses,
//! binds and lowers the text ([`prepare`]).

use crate::analyze::{column_suggestions, Findings};
use crate::ast::*;
use crate::db::{with_lowercase, Database};
use crate::diag::Span;
use crate::error::{SqlError, SqlResult};
use crate::exec::{self, eval_const, ExecStats};
use crate::functions::is_aggregate_name;
use crate::parser::parse_select;
use crate::plan::PhysicalPlan;
use crate::schema::{DbSchema, TableInfo};
use crate::scope::{self, ColBinding, Miss};
use crate::value::{ResultSet, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
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
/// lower each core to its physical plan ([`Bound::lower`]).
pub fn prepare_stmt(db: &Database, stmt: SelectStmt) -> Prepared {
    bind_select(&db.schema, stmt).0.lower(db)
}

/// A SELECT statement the binding pass went through ([`crate::bind`]):
/// every name it could resolve is a slot, ready to be lowered.
#[derive(Debug)]
pub struct Bound {
    stmt: SelectStmt,
}

impl Bound {
    /// Lower each core to its physical plan against `db`, whose schema the
    /// statement was bound against. Only a single-core statement is
    /// allowed predicate pushdown and index operators; compound arms, like
    /// sub-selects, take the naive plan.
    pub fn lower(self, db: &Database) -> Prepared {
        let stmt = self.stmt;
        let pushdown = stmt.compounds.is_empty();
        let plans = std::iter::once(&stmt.core)
            .chain(stmt.compounds.iter().map(|(_, core)| core))
            .map(|core| crate::plan::lower(db, core, pushdown))
            .collect();
        Prepared { stmt, fingerprint: plan_fingerprint(db), plans }
    }

    /// Lower against `db` and run the plan once, with no plan cache in
    /// between: no key, no lookup, no lock. The run is counted with the
    /// process-wide [`plan_cache`]'s executions, so the execution fields of
    /// its [`PlanCacheStats`] cover every statement run either way, and it
    /// records the same volatile `exec` event a cached run does, with the
    /// lowering as its `prepare_ms`.
    pub fn execute(self, db: &Database) -> SqlResult<(ResultSet, ExecStats)> {
        let t0 = Instant::now();
        let plan = self.lower(db);
        let prepare_us = t0.elapsed().as_micros() as u64;
        plan_cache().runs.run(&plan, db, plan.fingerprint, Some(prepare_us))
    }
}

/// Bind a parsed SELECT statement against `schema`, filing what the
/// analyzer reports about it on the way.
pub(crate) fn bind_select(schema: &DbSchema, mut stmt: SelectStmt) -> (Bound, Findings) {
    let mut binder = Binder::new(schema);
    binder.bind_statement(&mut stmt, None);
    (Bound { stmt }, binder.findings)
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
    let mut binder = Binder::new(&db.schema);
    let mut layout = Vec::new();
    scope::push_table(&mut layout, &db.schema, &table.name, None);
    let env = Env { layout: &layout, ..Env::ROWLESS };
    for e in exprs {
        binder.bind_and_fold(e, &env);
    }
    layout
}

/// Bind an expression evaluated with no row: in the empty scope, its
/// sub-selects against `schema`.
pub(crate) fn bind_const(schema: &DbSchema, e: &mut Expr) {
    Binder::new(schema).bind_expr(e, &Env::ROWLESS);
}

// ---------------- the binding pass ----------------

/// Replace, in place, the unqualified column references of `e` that name a
/// projection alias with the aliased expression (GROUP BY / HAVING alias
/// support).
fn substitute_aliases(e: &mut Expr, items: &[(Cow<'_, Expr>, String)]) {
    e.walk_mut(&mut |node| {
        let Expr::Column { table: None, column, .. } = &*node else { return };
        let aliased = items
            .iter()
            .find(|(expr, label)| label.eq_ignore_ascii_case(column) && **expr != *node);
        if let Some((expr, _)) = aliased {
            *node = expr.as_ref().clone();
        }
    });
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

/// The children of a node of any arity — a function call, an `IN` list
/// or a CASE — in evaluation order.
fn variadic_kids(e: &mut Expr) -> impl Iterator<Item = &mut Expr> {
    let (head, list, pairs, tail): (Option<&mut Expr>, &mut [Expr], &mut [(Expr, Expr)], _) = match e {
        Expr::InList { expr, list, .. } => (Some(expr.as_mut()), list, Default::default(), None),
        Expr::Case { operand, branches, else_expr } => {
            (operand.as_deref_mut(), Default::default(), branches, else_expr.as_deref_mut())
        }
        Expr::Function { args, .. } => (None, args, Default::default(), None),
        _ => (None, Default::default(), Default::default(), None),
    };
    head.into_iter()
        .chain(list)
        .chain(pairs.iter_mut().flat_map(|(when, then)| [when, then]))
        .chain(tail)
}

/// One scope of the chain a name is looked up in: a core's layout (or the
/// empty one of a LIMIT, an aggregate's trailing arguments or a
/// constant), its FROM tables, and the scope enclosing it.
#[derive(Clone, Copy)]
struct Env<'e> {
    layout: &'e [ColBinding],
    /// This scope's FROM tables: a range of [`Binder::tables`].
    tables: (usize, usize),
    outer: Option<&'e Env<'e>>,
    /// The aggregate call whose arguments are being bound, for `E0202`.
    agg: Option<&'e str>,
}

impl Env<'static> {
    /// A scope with no row, no table and nothing around it.
    const ROWLESS: Env<'static> = Env { layout: &[], tables: (0, 0), outer: None, agg: None };
}

impl<'e> Env<'e> {
    /// This scope, then each enclosing one.
    fn chain(&self) -> impl Iterator<Item = &Env<'e>> {
        std::iter::successors(Some(self), |env| env.outer)
    }

    fn tables(&self) -> Range<usize> {
        self.tables.0..self.tables.1
    }
}

/// One FROM table reference of a scope being bound.
struct FromTable<'s> {
    /// The name it is addressed by, kept only when no slot carries it (an
    /// unknown table, a FROM-subquery of no known labels).
    name: Option<String>,
    /// The schema table behind it (None for FROM-subqueries).
    info: Option<&'s TableInfo>,
    /// Its slots in the scope's layout.
    slots: Range<usize>,
    span: Span,
    /// False when the table failed to resolve: it could hold any column,
    /// so it poisons references instead of cascading.
    known: bool,
    used: bool,
}

impl FromTable<'_> {
    fn name<'a>(&'a self, layout: &'a [ColBinding]) -> &'a str {
        self.name.as_deref().unwrap_or_else(|| &layout[self.slots.start].binding)
    }
}

struct Binder<'s> {
    schema: &'s DbSchema,
    /// The FROM tables of every scope being bound, outermost first.
    tables: Vec<FromTable<'s>>,
    findings: Findings,
}

impl<'s> Binder<'s> {
    fn new(schema: &'s DbSchema) -> Self {
        Binder { schema, tables: Vec::new(), findings: Findings::default() }
    }

    /// Bind a statement inside the scope `outer` (None at the top).
    /// Returns the output labels of its first core when they are
    /// statically known.
    fn bind_statement(&mut self, stmt: &mut SelectStmt, outer: Option<&Env>) -> Option<Vec<String>> {
        // Single-core ORDER BY terms evaluate against the core's own
        // layout; compound ORDER BY names output columns and stays raw.
        let simple = stmt.compounds.is_empty();
        let order_by: &mut [OrderItem] = if simple { &mut stmt.order_by } else { &mut [] };
        let labels = self.bind_core(&mut stmt.core, order_by, outer);
        if !simple {
            let width = labels.as_ref().map(Vec::len);
            for (_, core) in &mut stmt.compounds {
                let arm = self.bind_core(core, &mut [], outer);
                if let (Some(first), Some(arm)) = (width, arm.map(|l| l.len())) {
                    self.findings.arm_width(first, arm);
                }
            }
            self.findings.compound_order(&stmt.order_by, labels.as_deref());
        }
        // LIMIT/OFFSET evaluate with an empty local layout; correlated
        // references still see the enclosing scopes.
        let at = self.tables.len();
        let env = Env { tables: (at, at), outer, ..Env::ROWLESS };
        for e in stmt.limit.iter_mut().chain(&mut stmt.offset) {
            self.findings.limit(e);
            self.bind_and_fold(e, &env);
        }
        labels
    }

    /// Bind one SELECT core, and `order_by` against it, in the order the
    /// analyzer reports: FROM and each ON, WHERE, the projection's
    /// expansion, GROUP BY, HAVING, the items, GROUP BY coverage, ORDER BY.
    /// A core behind an unknown FROM table binds too, to file its findings:
    /// execution fails opening that table, before any of its expressions
    /// run.
    fn bind_core(
        &mut self,
        core: &mut SelectCore,
        order_by: &mut [OrderItem],
        outer: Option<&Env>,
    ) -> Option<Vec<String>> {
        let start = self.tables.len();
        let mut layout = Vec::new();
        if let Some(from) = &mut core.from {
            self.push_from(&mut from.base, outer, &mut layout);
            // each ON is evaluated on the join prefix: every table up to
            // and including the one it joins
            for join in &mut from.joins {
                self.push_from(&mut join.table, outer, &mut layout);
                if let Some(on) = &mut join.on {
                    self.findings.aggregate_in(on, "E0208", "aggregate in JOIN ON clause", None);
                    let env = Env { layout: &layout, tables: (start, self.tables.len()), outer, agg: None };
                    self.bind_and_fold(on, &env);
                }
            }
        }
        let env = Env { layout: &layout, tables: (start, self.tables.len()), outer, agg: None };
        if let Some(w) = &mut core.where_clause {
            let help = Some("filter on aggregates with HAVING instead");
            self.findings.aggregate_in(w, "E0201", "aggregate in WHERE clause", help);
            self.bind_and_fold(w, &env);
        }
        // GROUP BY and HAVING read projection aliases, and coverage
        // compares the items as written with the substituted GROUP BY;
        // then the items are replaced by their expansion, labels frozen
        // before binding mutates the expressions they are printed from.
        let (items, expanded, width_known) = self.expand(&core.items, &layout, env.tables());
        for g in core.group_by.iter_mut().chain(&mut core.having) {
            substitute_aliases(g, &items);
        }
        let mut coverage = Findings::default();
        if !core.group_by.is_empty() {
            for item in &core.items {
                if let SelectItem::Expr { expr, .. } = item {
                    coverage.group_coverage(expr, &core.group_by);
                }
            }
        }
        let labels = width_known.then(|| items.iter().map(|(_, l)| l.clone()).collect::<Vec<_>>());
        if expanded {
            core.items = items
                .into_iter()
                .map(|(expr, label)| SelectItem::Expr { expr: expr.into_owned(), alias: Some(label) })
                .collect();
        }
        for g in &mut core.group_by {
            self.findings.aggregate_in(g, "E0208", "aggregate in GROUP BY", None);
            self.bind_and_fold(g, &env);
        }
        if let Some(h) = &mut core.having {
            self.bind_and_fold(h, &env);
        }
        for item in &mut core.items {
            if let SelectItem::Expr { expr, .. } = item {
                self.bind_and_fold(expr, &env);
            }
        }
        self.findings.diagnostics.append(&mut coverage.diagnostics);
        let order_labels = labels.as_deref().unwrap_or_default();
        for o in order_by {
            if let Expr::Literal(Value::Int(k)) = o.expr {
                self.findings.order_position(k, labels.as_deref());
            }
            self.bind_order_expr(&mut o.expr, order_labels, &env);
        }
        for t in self.tables.drain(start..) {
            if t.known && !t.used {
                self.findings.unused.push((t.name(&layout).to_owned(), t.span));
            }
        }
        labels
    }

    /// Append the slots of one FROM table reference to `layout`, and the
    /// reference to the scope's tables: a schema table's columns (`E0101`
    /// when there is no such table, which adds no slot), or the labels of
    /// a FROM-subquery bound on the way. A FROM-subquery sees only the
    /// enclosing scopes, never its sibling tables.
    fn push_from(&mut self, tref: &mut TableRef, outer: Option<&Env>, layout: &mut Vec<ColBinding>) {
        let start = layout.len();
        let (name, info, span, known) = match tref {
            TableRef::Named { name, alias, span } => {
                let info = scope::push_table(layout, self.schema, name, alias.as_deref());
                if info.is_none() {
                    self.findings.unknown_table(self.schema, name, *span);
                }
                (alias.as_ref().unwrap_or(name), info, *span, info.is_some())
            }
            TableRef::Subquery { query, alias } => {
                let labels = self.bind_statement(query, outer).unwrap_or_default();
                scope::push_labels(layout, alias, labels);
                (&*alias, None, Span::empty(), true)
            }
        };
        let slots = start..layout.len();
        let name = slots.is_empty().then(|| name.clone());
        // poisoned tables never lint as unused
        self.tables.push(FromTable { name, info, slots, span, known, used: !known });
    }

    /// Expand the projection as execution does. `*` and `t.*` mark the
    /// tables they read used; one that reads no table files the executor's
    /// error (`E0209`, `E0101`). Returns the `(expression, label)` pairs —
    /// of every item when the whole list expands, else of the items that
    /// do — whether the whole list expanded, and whether the width is
    /// known: no wildcard failed or read a table of unknowable width.
    fn expand<'c>(
        &mut self,
        items: &'c [SelectItem],
        layout: &[ColBinding],
        tables: Range<usize>,
    ) -> (Vec<(Cow<'c, Expr>, String)>, bool, bool) {
        let whole = scope::expand_items(items, layout);
        let mut width_known = true;
        let mut partial = Vec::new();
        for item in items {
            let mut read = false;
            if !matches!(item, SelectItem::Expr { .. }) {
                for t in &mut self.tables[tables.clone()] {
                    let reads = match item {
                        SelectItem::TableWildcard(name) => t.name(layout).eq_ignore_ascii_case(name),
                        _ => true,
                    };
                    if reads {
                        (read, t.used) = (true, true);
                        width_known &= t.known;
                    }
                }
            }
            if whole.is_err() {
                match scope::expand_items(std::slice::from_ref(item), layout) {
                    Ok(expanded) => partial.extend(expanded),
                    Err(e) if !read => {
                        self.findings.expansion(e);
                        width_known = false;
                    }
                    Err(_) => {}
                }
            }
        }
        match whole {
            Ok(items) => (items, true, width_known),
            Err(_) => (partial, false, width_known),
        }
    }

    /// ORDER BY terms the executor resolves as positions or output-label
    /// references must stay raw; everything else binds but never folds at
    /// the top (a folded integer literal would be re-read as a position).
    fn bind_order_expr(&mut self, e: &mut Expr, labels: &[String], env: &Env) {
        match e {
            Expr::Literal(Value::Int(k)) if *k >= 1 && (*k as usize) <= labels.len() => {}
            Expr::Column { table: None, column, .. }
                if labels.iter().any(|l| l.eq_ignore_ascii_case(column)) => {}
            _ => {
                self.bind_expr(e, env);
            }
        }
    }

    fn bind_and_fold(&mut self, e: &mut Expr, env: &Env) {
        if self.bind_expr(e, env) {
            try_fold(e);
        }
    }

    /// Bind children; when every child is constant the composite itself is
    /// constant (returned to the caller unfolded so folding happens at the
    /// topmost constant boundary), otherwise fold each constant child. A
    /// node of fixed arity keeps its children on the stack.
    fn bind_composite<const N: usize>(&mut self, mut kids: [&mut Expr; N], env: &Env) -> bool {
        let constant = kids.each_mut().map(|k| self.bind_expr(k, env));
        if constant.iter().all(|c| *c) {
            return true;
        }
        for (k, _) in kids.into_iter().zip(constant).filter(|(_, c)| *c) {
            try_fold(k);
        }
        false
    }

    /// [`Binder::bind_composite`] for a node with any number of children
    /// ([`variadic_kids`]), in place: the constant children before the
    /// first variable one fold once it is met, those after it as they bind.
    fn bind_variadic(&mut self, e: &mut Expr, env: &Env) -> bool {
        let mut first_variable = None;
        for (i, kid) in variadic_kids(e).enumerate() {
            match (self.bind_expr(kid, env), first_variable) {
                (false, None) => first_variable = Some(i),
                (true, Some(_)) => try_fold(kid),
                _ => {}
            }
        }
        let Some(n) = first_variable else { return true };
        variadic_kids(e).take(n).for_each(try_fold);
        false
    }

    /// Bind an expression in place, returning whether the whole subtree is
    /// constant (no columns, wildcards, subqueries, or aggregates). Each
    /// node's findings are filed before its children bind.
    fn bind_expr(&mut self, e: &mut Expr, env: &Env) -> bool {
        match e {
            Expr::Literal(_) => true,
            Expr::Column { table, column, span } => {
                let found = scope::lookup(env.chain().map(|s| s.layout), table.as_deref(), column);
                match found {
                    Ok((up, slot)) => {
                        let scope = env.chain().nth(up).expect("lookup answers a scope of the chain");
                        if let Some(t) = self.owner(scope, slot) {
                            self.tables[t].used = true;
                        }
                    }
                    Err(miss) => self.unresolved(env, miss, table.as_deref(), column, *span),
                }
                *e = match found {
                    Ok((0, index)) => Expr::BoundColumn { index },
                    Ok((up, index)) => Expr::OuterColumn { up: up - 1, index },
                    Err(miss) => Expr::Unresolved(miss.error(table.as_deref(), column)),
                };
                false
            }
            Expr::BoundColumn { .. } | Expr::OuterColumn { .. } | Expr::Unresolved(_) => false,
            Expr::Wildcard => {
                // `COUNT(*)` counts rows of the whole join, so every table
                // of the scope is in use
                for t in &mut self.tables[env.tables()] {
                    t.used = true;
                }
                false
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                self.bind_composite([expr.as_mut()], env)
            }
            Expr::Binary { left, op, right } => {
                if op.is_comparison() {
                    self.check_comparison(left, right, env);
                }
                self.bind_composite([left.as_mut(), right.as_mut()], env)
            }
            Expr::Like { expr, pattern, .. } => self.bind_composite([expr.as_mut(), pattern.as_mut()], env),
            Expr::Between { expr, low, high, .. } => {
                self.bind_composite([expr.as_mut(), low.as_mut(), high.as_mut()], env)
            }
            Expr::Function { name, args, span, .. } if is_aggregate_name(name, args.len()) => {
                self.findings.aggregate_call(name, args, *span, env.agg);
                // The first argument evaluates per row in the group;
                // trailing arguments (group_concat's separator) evaluate
                // through eval_const, with no row and no tables.
                let first = Env { agg: Some(name.as_str()), ..*env };
                let trailing = Env { agg: Some(name.as_str()), ..Env::ROWLESS };
                for (i, a) in args.iter_mut().enumerate() {
                    self.bind_and_fold(a, if i == 0 { &first } else { &trailing });
                }
                false
            }
            Expr::Function { name, args, span, .. } => {
                self.findings.scalar_call(name, args.len(), *span);
                self.bind_variadic(e, env)
            }
            Expr::InList { .. } | Expr::Case { .. } => self.bind_variadic(e, env),
            Expr::InSubquery { expr, query, .. } => {
                if self.bind_expr(expr, env) {
                    try_fold(expr);
                }
                self.bind_statement(query, Some(env));
                false
            }
            Expr::Subquery(query) | Expr::Exists { query, .. } => {
                self.bind_statement(query, Some(env));
                false
            }
        }
    }

    /// The index in [`Binder::tables`] of the table of `scope` that holds
    /// `slot` of its layout.
    fn owner(&self, scope: &Env, slot: usize) -> Option<usize> {
        scope.tables().find(|&t| self.tables[t].slots.contains(&slot))
    }

    /// File a reference that resolves nowhere (`E0102`, `E0103`), unless
    /// an unknown table could have held it.
    fn unresolved(&mut self, env: &Env, miss: Miss, table: Option<&str>, column: &str, span: Span) {
        // Unsure which table was meant, count every visible one used: an
        // E01xx finding must not cascade into W0303 noise.
        for scope in env.chain() {
            for t in &mut self.tables[scope.tables()] {
                t.used = true;
            }
        }
        if env.chain().any(|scope| self.poisons(scope, table, column)) {
            return;
        }
        let suggestions = match miss {
            // the innermost scope is the one that found it ambiguous
            Miss::Ambiguous => self.tables[env.tables()]
                .iter()
                .filter(|t| env.layout[t.slots.clone()].iter().any(|s| s.column.eq_ignore_ascii_case(column)))
                .map(|t| (Some(t.name(env.layout).to_owned()), column.to_owned()))
                .collect(),
            Miss::Missing => column_suggestions(env.chain().map(|s| s.layout), table, column),
        };
        self.findings.unresolved_column(self.schema, miss, table, column, span, suggestions);
    }

    /// Could an unknown table of `scope` have held `table.column`?
    fn poisons(&self, scope: &Env, table: Option<&str>, column: &str) -> bool {
        let mut unknown = self.tables[scope.tables()].iter().filter(|t| !t.known);
        match table {
            Some(t) => unknown.any(|b| b.name(scope.layout).eq_ignore_ascii_case(t)),
            None => {
                unknown.next().is_some()
                    && !scope.layout.iter().any(|s| s.column.eq_ignore_ascii_case(column))
            }
        }
    }

    /// `E0203`: a column of a schema table compared with a literal of the
    /// opposite storage class. Read before the comparison binds.
    fn check_comparison(&mut self, left: &Expr, right: &Expr, env: &Env) {
        for (a, b) in [(left, right), (right, left)] {
            let (Expr::Column { table, column, span }, Expr::Literal(v)) = (a, b) else { continue };
            let layouts = env.chain().map(|s| s.layout);
            let Ok((up, slot)) = scope::lookup(layouts, table.as_deref(), column) else { continue };
            let scope = env.chain().nth(up).expect("lookup answers a scope of the chain");
            let owner = self.owner(scope, slot).and_then(|t| self.tables[t].info);
            let Some(col) = owner.and_then(|info| info.column(column)) else { continue };
            if !v.is_null() && self.findings.comparison(col.ty, *span, v) {
                return; // one finding per comparison
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
    /// Lookups that had to prepare a plan (including parse failures).
    pub misses: u64,
    /// Cumulative time spent preparing plans on misses (parsing, binding
    /// and lowering a text), in microseconds.
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
    /// Cumulative `rows_scanned` across successful executions.
    pub rows_scanned: u64,
}

/// What running plans costs, counted where a plan runs: the cache's own
/// executions, and for the process-wide cache also every bound statement
/// run without it ([`Bound::execute`]).
#[derive(Default)]
struct Runs {
    execute_us: AtomicU64,
    ix_scans: AtomicU64,
    fallback_scans: AtomicU64,
    rows_scanned: AtomicU64,
}

impl Runs {
    /// Run `plan` against `db`, whose [`plan_fingerprint`] is
    /// `fingerprint`, count the run and record its volatile `exec` event.
    /// `prepare_us` is what preparing the plan for this run took, `None`
    /// when it came from the cache.
    fn run(
        &self,
        plan: &Prepared,
        db: &Database,
        fingerprint: u64,
        prepare_us: Option<u64>,
    ) -> SqlResult<(ResultSet, ExecStats)> {
        let t0 = Instant::now();
        let (result, stats, ix_ops) = plan.run(db, fingerprint);
        if ix_ops > 0 {
            self.ix_scans.fetch_add(ix_ops, Ordering::Relaxed);
        } else {
            self.fallback_scans.fetch_add(1, Ordering::Relaxed);
        }
        // only a successful execution reports a cost, as the vote charges
        // a failed one none
        let rows_scanned = if result.is_ok() { stats.rows_scanned } else { 0 };
        self.rows_scanned.fetch_add(rows_scanned, Ordering::Relaxed);
        let execute_us = t0.elapsed().as_micros() as u64;
        self.execute_us.fetch_add(execute_us, Ordering::Relaxed);
        // is_active guard so the untraced hot path skips event recording
        // entirely (one thread-local read). The traced path stays
        // allocation-minimal: one event per execution, failed ones
        // included, with no labels and rows_scanned carried as a numeric
        // timing instead of a formatted string. Measured by the
        // `engine_trace` bench group.
        if osql_trace::active::is_active() {
            let execute = ("execute_ms", execute_us as f64 / 1e3);
            let rows = ("rows_scanned", rows_scanned as f64);
            match prepare_us {
                None => osql_trace::active::event_volatile("exec", &[], &[execute, rows]),
                Some(us) => {
                    let prepare = ("prepare_ms", us as f64 / 1e3);
                    osql_trace::active::event_volatile("exec", &[], &[execute, prepare, rows]);
                }
            }
        }
        result.map(|rs| (rs, stats))
    }
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
/// shared across threads. A hit skips parsing, binding and lowering; a
/// miss parses, binds and lowers `sql`. The refinement beam's gate does
/// not use it: a beam runs each distinct text once, so only a text
/// repeated across questions could hit, and the gate runs the statement
/// its front end bound instead ([`Bound::execute`]). Eval's repeated
/// gold-SQL executions are what the cache is for.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    prepare_us: AtomicU64,
    runs: Runs,
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
            runs: Runs::default(),
        }
    }

    fn key(fingerprint: u64, sql: &str) -> u64 {
        fnv1a(fnv1a(FNV_BASIS, &fingerprint.to_le_bytes()), sql.as_bytes())
    }

    /// Fetch (or parse + bind and insert) the plan for `sql` against `db`.
    /// Parse errors are returned without being cached and count as misses.
    pub fn prepared(&self, db: &Database, sql: &str) -> SqlResult<Arc<Prepared>> {
        let (plan, hit, prepare_us) = self.lookup(db, plan_fingerprint(db), sql);
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
    /// error), whether it was a hit, and the prepare cost in µs on a miss.
    /// `fingerprint` is `db`'s [`plan_fingerprint`].
    fn lookup(&self, db: &Database, fingerprint: u64, sql: &str) -> (SqlResult<Arc<Prepared>>, bool, u64) {
        let key = Self::key(fingerprint, sql);
        let cached = self.inner.lock().touch(key, fingerprint, sql);
        if let Some(plan) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Ok(plan), true, 0);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let prepared = prepare(db, sql);
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
        let fingerprint = plan_fingerprint(db);
        let (plan, hit, prepare_us) = self.lookup(db, fingerprint, sql);
        self.runs.run(&*plan?, db, fingerprint, (!hit).then_some(prepare_us))
    }

    /// Snapshot of the cache's cumulative counters.
    pub fn stats(&self) -> PlanCacheStats {
        let runs = &self.runs;
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            prepare_us: self.prepare_us.load(Ordering::Relaxed),
            execute_us: runs.execute_us.load(Ordering::Relaxed),
            ix_scans: runs.ix_scans.load(Ordering::Relaxed),
            fallback_scans: runs.fallback_scans.load(Ordering::Relaxed),
            rows_scanned: runs.rows_scanned.load(Ordering::Relaxed),
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
