//! Schema-aware semantic analysis of SELECT statements.
//!
//! [`analyze`] runs three passes over a parsed statement and returns an
//! [`Analysis`]:
//!
//! 1. **Name resolution** over the FROM layout, asking `crate::scope` —
//!    the module the binder and the executor ask: `E0101` unknown table,
//!    `E0102` unknown column, `E0103` ambiguous column (each worded as the
//!    executor words its error), with did-you-mean help drawn from the
//!    schema. Every failed resolution is also surfaced as a machine-readable
//!    [`UnresolvedColumn`] so callers (the alignment agents) can remap
//!    columns without re-walking the AST.
//! 2. **Type/shape checks** (`E02xx`): aggregate misuse, incompatible
//!    comparison operands, ORDER BY ordinals, set-operator arity, unknown
//!    functions and arities.
//! 3. **Lints** (`W03xx`): star in a scalar subquery, always-false literal
//!    predicate, unused FROM table.
//!
//! The analyzer *diagnoses*; it never predicts what execution will do. An
//! error-severity finding can be data-dependent (a bad column in a per-row
//! predicate over an empty table never raises), so whether a statement
//! fails, and with which [`crate::error::SqlError`], is decided by running
//! it.

use crate::ast::{
    BinOp, Expr, OrderItem, SelectCore, SelectItem, SelectStmt, TableRef, TypeName,
};
use crate::diag::{Diagnostic, Severity, Span};
use crate::error::SqlError;
use crate::exec::{contains_aggregate, eval_const, substitute_aliases};
use crate::functions::{is_aggregate_name, scalar_arity, KNOWN_FUNCTIONS};
use crate::printer::print_expr;
use crate::schema::{DbSchema, TableInfo};
use crate::scope::{self, ColBinding, Miss};
use crate::value::Value;
use std::ops::Range;

// ---------------- public API ----------------

/// The result of analyzing one statement against a schema.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Everything the analyzer found, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Machine-readable resolution failures, for column remapping.
    pub unresolved: Vec<UnresolvedColumn>,
}

impl Analysis {
    /// Does the analysis contain any error-severity diagnostic?
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Is the statement fully clean (no errors, no warnings)?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render every diagnostic against the analyzed SQL.
    pub fn rendered(&self, sql: &str) -> String {
        crate::diag::render_all(&self.diagnostics, sql)
    }

    /// The analysis of a text that did not parse: one `E0001` pointing at
    /// the offending character.
    pub fn parse_error(sql: &str, e: &SqlError) -> Analysis {
        let span = match e {
            // through the end of the character at `pos`, which may be
            // multi-byte (`max`: one past the end of an empty statement)
            SqlError::Syntax { pos, .. } => {
                Span::new(*pos, sql.ceil_char_boundary(*pos + 1).max(1))
            }
            _ => Span::empty(),
        };
        Analysis {
            diagnostics: vec![Diagnostic::error("E0001", span, e.to_string())],
            unresolved: Vec::new(),
        }
    }
}

/// One column reference the resolver could not bind, with repair candidates.
#[derive(Debug, Clone, PartialEq)]
pub struct UnresolvedColumn {
    /// Qualifier as written (`T1` in `T1.Nam`), if any.
    pub table: Option<String>,
    /// Column name as written.
    pub column: String,
    /// Where the reference appears in the source.
    pub span: Span,
    /// Ranked repair candidates as `(binding, column)` pairs that *do*
    /// resolve in the statement's scope, best first.
    pub suggestions: Vec<(Option<String>, String)>,
}

/// Analyze a parsed statement.
pub fn analyze(schema: &DbSchema, stmt: &SelectStmt) -> Analysis {
    let mut ck = Checker { schema, diags: Vec::new(), unresolved: Vec::new(), unused: Vec::new() };
    let mut chain: Vec<Scope> = Vec::new();
    ck.check_stmt(stmt, &mut chain);
    let mut diagnostics = ck.diags;
    lint_star_in_scalar_subquery(stmt, &mut diagnostics);
    lint_always_false_predicate(stmt, &mut diagnostics);
    lint_unused_from_table(&ck.unused, &mut diagnostics);
    Analysis { diagnostics, unresolved: ck.unresolved }
}

/// Parse and analyze a SQL string. A parse failure becomes
/// [`Analysis::parse_error`].
pub fn analyze_sql(schema: &DbSchema, sql: &str) -> Analysis {
    match crate::parser::parse_select(sql) {
        Ok(stmt) => analyze(schema, &stmt),
        Err(e) => Analysis::parse_error(sql, &e),
    }
}

// ---------------- scopes ----------------

/// One core's FROM as the checker sees it: the layout every reader
/// resolves against, and what the diagnostics need per table reference.
#[derive(Default)]
struct Scope<'a> {
    layout: Vec<ColBinding>,
    tables: Vec<FromTable<'a>>,
}

struct FromTable<'a> {
    /// The name it is addressed by (alias, or the table name).
    name: String,
    /// The schema table behind it (None for FROM-subqueries).
    info: Option<&'a TableInfo>,
    /// Its slots in the layout.
    slots: Range<usize>,
    span: Span,
    /// False when the table failed to resolve: it could hold any column,
    /// so it poisons references instead of cascading.
    known: bool,
    used: bool,
}

impl Scope<'_> {
    /// The index of the table `slot` belongs to.
    fn owner(&self, slot: usize) -> Option<usize> {
        self.tables.iter().position(|t| t.slots.contains(&slot))
    }

    /// Could an unknown table of this scope have held `table.column`?
    fn poisons(&self, table: Option<&str>, column: &str) -> bool {
        match table {
            Some(t) => self.tables.iter().any(|b| !b.known && b.name.eq_ignore_ascii_case(t)),
            None => {
                self.tables.iter().any(|b| !b.known)
                    && !self.layout.iter().any(|s| s.column.eq_ignore_ascii_case(column))
            }
        }
    }
}

/// The layouts of `chain`, innermost first, as `scope::lookup` reads them.
fn layouts<'c>(chain: &'c [Scope]) -> impl Iterator<Item = &'c [ColBinding]> {
    chain.iter().rev().map(|s| s.layout.as_slice())
}

/// Case-insensitive Levenshtein distance, for did-you-mean ranking.
fn name_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(|c| c.to_lowercase()).collect();
    let b: Vec<char> = b.chars().flat_map(|c| c.to_lowercase()).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// `name` rendered for help text.
fn tick(name: &str) -> String {
    format!("`{name}`")
}

// ---------------- diagnostics pass ----------------

struct Checker<'a> {
    schema: &'a DbSchema,
    diags: Vec<Diagnostic>,
    unresolved: Vec<UnresolvedColumn>,
    unused: Vec<(String, Span)>,
}

impl<'a> Checker<'a> {
    /// Check one statement; returns the output labels of the first core
    /// when statically known (None if a wildcard over an unknown table
    /// makes the width unknowable).
    fn check_stmt(&mut self, stmt: &SelectStmt, chain: &mut Vec<Scope<'a>>) -> Option<Vec<String>> {
        let simple = stmt.compounds.is_empty();
        let order: &[OrderItem] = if simple { &stmt.order_by } else { &[] };
        let labels = self.check_core(&stmt.core, chain, order);
        if !simple {
            let w1 = labels.as_ref().map(Vec::len);
            for (_, core) in &stmt.compounds {
                let li = self.check_core(core, chain, &[]);
                if let (Some(a), Some(b)) = (w1, li.as_ref().map(Vec::len)) {
                    if a != b {
                        self.diags.push(Diagnostic::error(
                            "E0206",
                            Span::empty(),
                            format!("set-operator arms select {a} vs {b} columns"),
                        ));
                    }
                }
            }
            self.check_compound_order(&stmt.order_by, labels.as_deref());
        }
        for e in stmt.limit.iter().chain(stmt.offset.iter()) {
            self.check_limit_expr(e, chain);
        }
        labels
    }

    fn check_compound_order(&mut self, order_by: &[OrderItem], labels: Option<&[String]>) {
        for o in order_by {
            match &o.expr {
                Expr::Literal(Value::Int(k)) => {
                    if let Some(labels) = labels {
                        if *k < 1 || *k as usize > labels.len() {
                            self.diags.push(Diagnostic::error(
                                "E0205",
                                Span::empty(),
                                format!(
                                    "ORDER BY position {k} is out of range (1..={})",
                                    labels.len()
                                ),
                            ));
                        }
                    }
                }
                Expr::Column { table: None, column, span } => {
                    if let Some(labels) = labels {
                        if !labels.iter().any(|l| l.eq_ignore_ascii_case(column)) {
                            self.diags.push(
                                Diagnostic::error(
                                    "E0102",
                                    *span,
                                    format!("no such column: {column}"),
                                )
                                .with_help(
                                    "a compound ORDER BY term must name an output label of \
                                     the first SELECT",
                                ),
                            );
                        }
                    }
                }
                other => {
                    let span = expr_span(other);
                    self.diags.push(Diagnostic::error(
                        "E0205",
                        span,
                        "ORDER BY term of a compound SELECT must be a column label or position",
                    ));
                }
            }
        }
    }

    fn check_limit_expr(&mut self, e: &Expr, chain: &mut Vec<Scope<'a>>) {
        if contains_aggregate(e) {
            let span = first_aggregate_span(e);
            self.diags.push(Diagnostic::error(
                "E0208",
                span,
                "aggregate used in LIMIT/OFFSET, outside of an aggregate context",
            ));
        }
        if let Expr::Literal(v) = e {
            if v.as_i64().is_none() {
                self.diags.push(Diagnostic::error(
                    "E0210",
                    Span::empty(),
                    "LIMIT/OFFSET must be an integer",
                ));
            }
        }
        // LIMIT evaluates against an empty layout: only enclosing rows.
        chain.push(Scope::default());
        self.check_expr(e, chain, None);
        chain.pop();
    }
}

/// Span of the first aggregate call inside `e`, for pointing diagnostics.
fn first_aggregate_span(e: &Expr) -> Span {
    let mut span = Span::empty();
    e.walk(&mut |node| {
        if span.is_empty() {
            if let Expr::Function { name, args, span: s, .. } = node {
                if is_aggregate_name(name, args.len()) {
                    span = *s;
                }
            }
        }
    });
    span
}

/// Best-effort source span of an expression (its first spanned node).
fn expr_span(e: &Expr) -> Span {
    let mut span = Span::empty();
    e.walk(&mut |node| {
        if span.is_empty() {
            match node {
                Expr::Column { span: s, .. } | Expr::Function { span: s, .. } => span = *s,
                _ => {}
            }
        }
    });
    span
}

impl<'a> Checker<'a> {
    /// Check one SELECT core with its own scope pushed onto `chain`.
    /// Returns the core's output labels when statically known.
    fn check_core(
        &mut self,
        core: &SelectCore,
        chain: &mut Vec<Scope<'a>>,
        order_by: &[OrderItem],
    ) -> Option<Vec<String>> {
        chain.push(Scope::default());
        if let Some(from) = &core.from {
            let refs = std::iter::once(&from.base).chain(from.joins.iter().map(|j| &j.table));
            for (i, tref) in refs.enumerate() {
                self.push_from(tref, chain);
                // the ON predicate sees the partial layout built so far,
                // exactly as the executor evaluates it
                if i > 0 {
                    if let Some(on) = &from.joins[i - 1].on {
                        if contains_aggregate(on) {
                            self.diags.push(Diagnostic::error(
                                "E0208",
                                first_aggregate_span(on),
                                "aggregate in JOIN ON clause",
                            ));
                        }
                        self.check_expr(on, chain, None);
                    }
                }
            }
        }

        if let Some(w) = &core.where_clause {
            if contains_aggregate(w) {
                self.diags.push(
                    Diagnostic::error(
                        "E0201",
                        first_aggregate_span(w),
                        "aggregate in WHERE clause",
                    )
                    .with_help("filter on aggregates with HAVING instead"),
                );
            }
            self.check_expr(w, chain, None);
        }

        // Expand the projection for labels and the alias map.
        let scope = chain.last_mut().expect("scope pushed above");
        let (items, labels) = self.expand_for_check(core, scope);

        // GROUP BY / HAVING with projection aliases substituted, as the
        // executor evaluates them.
        let group_by: Vec<Expr> =
            core.group_by.iter().map(|g| substitute_aliases(g, &items)).collect();
        for g in &group_by {
            if contains_aggregate(g) {
                self.diags.push(Diagnostic::error(
                    "E0208",
                    first_aggregate_span(g),
                    "aggregate in GROUP BY",
                ));
            }
            self.check_expr(g, chain, None);
        }
        if let Some(h) = &core.having {
            let h = substitute_aliases(h, &items);
            self.check_expr(&h, chain, None);
        }

        for item in &core.items {
            if let SelectItem::Expr { expr, .. } = item {
                self.check_expr(expr, chain, None);
            }
        }
        if !group_by.is_empty() {
            for item in &core.items {
                if let SelectItem::Expr { expr, .. } = item {
                    self.check_group_coverage(expr, &group_by);
                }
            }
        }

        // ORDER BY of a simple statement: positions, aliases, then plain
        // row/group expressions.
        for o in order_by {
            match &o.expr {
                Expr::Literal(Value::Int(k)) => {
                    if let Some(labels) = &labels {
                        if *k < 1 || *k as usize > labels.len() {
                            self.diags.push(Diagnostic::error(
                                "E0205",
                                Span::empty(),
                                format!(
                                    "ORDER BY position {k} is out of range (1..={})",
                                    labels.len()
                                ),
                            ));
                        }
                    }
                }
                Expr::Column { table: None, column, .. }
                    if labels
                        .as_ref()
                        .is_some_and(|ls| ls.iter().any(|l| l.eq_ignore_ascii_case(column))) =>
                {
                    // alias reference to a projected value
                }
                other => self.check_expr(other, chain, None),
            }
        }

        let scope = chain.pop().expect("scope pushed above");
        for t in scope.tables {
            if t.known && !t.used {
                self.unused.push((t.name, t.span));
            }
        }
        labels
    }

    /// Append one FROM table reference to the innermost scope, diagnosing
    /// an unknown table (`E0101`) with did-you-mean help.
    fn push_from(&mut self, tref: &TableRef, chain: &mut Vec<Scope<'a>>) {
        // A FROM-subquery sees only the *enclosing* rows, never its sibling
        // tables, so the scope in progress is set aside while it is checked.
        let mut scope = chain.pop().expect("scope pushed in check_core");
        let start = scope.layout.len();
        let (name, info, span, known) = match tref {
            TableRef::Named { name, alias, span } => {
                match scope::push_table(&mut scope.layout, self.schema, name, alias.as_deref()) {
                    Some((info, binding)) => (binding, Some(info), *span, true),
                    None => {
                        self.unknown_table(name, *span);
                        (alias.clone().unwrap_or_else(|| name.clone()), None, *span, false)
                    }
                }
            }
            TableRef::Subquery { query, alias } => {
                let labels = self.check_stmt(query, chain).unwrap_or_default();
                scope::push_labels(&mut scope.layout, alias, labels);
                (alias.clone(), None, Span::empty(), true)
            }
        };
        let slots = start..scope.layout.len();
        // poisoned tables never lint as unused
        scope.tables.push(FromTable { name, info, slots, span, known, used: !known });
        chain.push(scope);
    }

    fn unknown_table(&mut self, name: &str, span: Span) {
        let mut d = Diagnostic::error("E0101", span, format!("no such table: {name}"));
        let mut cands: Vec<&str> = self.schema.tables.iter().map(|t| t.name.as_str()).collect();
        cands.sort_by_key(|t| name_distance(t, name));
        if let Some(best) = cands.first() {
            if name_distance(best, name) <= 3 {
                d = d.with_help(format!("did you mean {}?", tick(best)));
            }
        }
        self.diags.push(d);
    }

    /// Expand the projection as the executor does, for labels and the
    /// alias map. `*` and `t.*` use the tables they read; one that reads
    /// no table is diagnosed with the executor's error (`E0209`, `E0101`),
    /// and one over a table of unknowable width leaves the labels unknown.
    fn expand_for_check(
        &mut self,
        core: &SelectCore,
        scope: &mut Scope,
    ) -> (Vec<(Expr, String)>, Option<Vec<String>>) {
        let mut items: Vec<(Expr, String)> = Vec::new();
        let mut width_known = true;
        for item in &core.items {
            let reads = |t: &FromTable| match item {
                SelectItem::Wildcard => true,
                SelectItem::TableWildcard(name) => t.name.eq_ignore_ascii_case(name),
                SelectItem::Expr { .. } => false,
            };
            let mut read = false;
            for t in scope.tables.iter_mut().filter(|t| reads(t)) {
                (read, t.used) = (true, true);
                width_known &= t.known;
            }
            match scope::expand_items(std::slice::from_ref(item), &scope.layout) {
                Ok(expanded) => {
                    items.extend(expanded.into_iter().map(|(e, l)| (e.into_owned(), l)))
                }
                Err(e) if !read => {
                    let code = match e {
                        SqlError::NoSuchTable(_) => "E0101",
                        _ => "E0209",
                    };
                    self.diags.push(Diagnostic::error(code, Span::empty(), e.to_string()));
                    width_known = false;
                }
                Err(_) => {}
            }
        }
        let labels = width_known.then(|| items.iter().map(|(_, l)| l.clone()).collect());
        (items, labels)
    }
}

impl<'a> Checker<'a> {
    /// Recursive expression check. `in_agg` carries the name of the
    /// enclosing aggregate call, for nested-aggregate diagnostics.
    fn check_expr(&mut self, e: &Expr, chain: &mut Vec<Scope<'a>>, in_agg: Option<&str>) {
        match e {
            Expr::Column { table, column, span } => {
                self.resolve_use(chain, table.as_deref(), column, *span);
            }
            Expr::Function { name, args, span, .. } => {
                if is_aggregate_name(name, args.len()) {
                    if let Some(outer) = in_agg {
                        self.diags.push(
                            Diagnostic::error(
                                "E0202",
                                *span,
                                format!("nested aggregate in {outer}()"),
                            )
                            .with_help("aggregate calls cannot contain other aggregates"),
                        );
                    }
                    let counts_rows = name == "count"
                        && (args.is_empty() || matches!(args.first(), Some(Expr::Wildcard)));
                    if args.is_empty() && !counts_rows {
                        self.diags.push(Diagnostic::error(
                            "E0207",
                            *span,
                            format!("{name}() needs an argument"),
                        ));
                    }
                    for a in args {
                        self.check_expr(a, chain, Some(name));
                    }
                } else {
                    match scalar_arity(name) {
                        None => {
                            let mut d = Diagnostic::error(
                                "E0207",
                                *span,
                                format!("no such function: {name}"),
                            );
                            let mut cands: Vec<&str> = KNOWN_FUNCTIONS.to_vec();
                            cands.sort_by_key(|c| name_distance(c, name));
                            if let Some(best) = cands.first() {
                                if name_distance(best, name) <= 2 {
                                    d = d.with_help(format!("did you mean {}?", tick(best)));
                                }
                            }
                            self.diags.push(d);
                        }
                        Some((lo, hi)) => {
                            if args.len() < lo || args.len() > hi {
                                // every bounded arity is one count or two adjacent ones
                                let want = if lo == hi {
                                    lo.to_string()
                                } else {
                                    format!("{lo} or {hi}")
                                };
                                self.diags.push(Diagnostic::error(
                                    "E0207",
                                    *span,
                                    format!(
                                        "{name}() expects {want} argument(s), got {}",
                                        args.len()
                                    ),
                                ));
                            }
                        }
                    }
                    for a in args {
                        self.check_expr(a, chain, in_agg);
                    }
                }
            }
            Expr::Binary { left, op, right } => {
                if op.is_comparison() {
                    self.check_comparison(left, right, chain);
                }
                self.check_expr(left, chain, in_agg);
                self.check_expr(right, chain, in_agg);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                self.check_expr(expr, chain, in_agg);
            }
            Expr::Like { expr, pattern, .. } => {
                self.check_expr(expr, chain, in_agg);
                self.check_expr(pattern, chain, in_agg);
            }
            Expr::Between { expr, low, high, .. } => {
                self.check_expr(expr, chain, in_agg);
                self.check_expr(low, chain, in_agg);
                self.check_expr(high, chain, in_agg);
            }
            Expr::InList { expr, list, .. } => {
                self.check_expr(expr, chain, in_agg);
                for item in list {
                    self.check_expr(item, chain, in_agg);
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    self.check_expr(o, chain, in_agg);
                }
                for (w, t) in branches {
                    self.check_expr(w, chain, in_agg);
                    self.check_expr(t, chain, in_agg);
                }
                if let Some(el) = else_expr {
                    self.check_expr(el, chain, in_agg);
                }
            }
            Expr::Subquery(q) => {
                self.check_stmt(q, chain);
            }
            Expr::InSubquery { expr, query, .. } => {
                self.check_expr(expr, chain, in_agg);
                self.check_stmt(query, chain);
            }
            Expr::Exists { query, .. } => {
                self.check_stmt(query, chain);
            }
            Expr::Wildcard => {
                // `COUNT(*)` counts rows of the whole join, so every
                // table in the current scope is in use.
                for t in chain.last_mut().into_iter().flat_map(|s| &mut s.tables) {
                    t.used = true;
                }
            }
            Expr::Literal(_) | Expr::BoundColumn { .. } | Expr::OuterColumn { .. } => {}
        }
    }

    /// Resolve one column reference as the executor does. A miss is
    /// diagnosed unless an unknown table could have held the column.
    fn resolve_use(&mut self, chain: &mut [Scope], table: Option<&str>, column: &str, span: Span) {
        let miss = match scope::lookup(layouts(chain), table, column) {
            Ok((up, slot)) => {
                let scope = &mut chain[chain.len() - 1 - up];
                if let Some(t) = scope.owner(slot) {
                    scope.tables[t].used = true;
                }
                return;
            }
            Err(miss) => miss,
        };
        // A failed resolution leaves us unsure which table was meant, so
        // conservatively mark every visible table used — an E01xx finding
        // must not cascade into W0303 noise.
        for t in chain.iter_mut().flat_map(|s| &mut s.tables) {
            t.used = true;
        }
        if chain.iter().any(|s| s.poisons(table, column)) {
            return;
        }
        let message = miss.error(table, column).to_string();
        let (diagnostic, suggestions) = match miss {
            Miss::Ambiguous => {
                let scope = chain.last().expect("ambiguity implies a scope");
                let holds = |t: &&FromTable| {
                    let slots = &scope.layout[t.slots.clone()];
                    slots.iter().any(|s| s.column.eq_ignore_ascii_case(column))
                };
                let suggestions: Vec<(Option<String>, String)> = scope
                    .tables
                    .iter()
                    .filter(holds)
                    .map(|t| (Some(t.name.clone()), column.to_owned()))
                    .collect();
                let help = suggestions
                    .iter()
                    .map(|(t, c)| tick(&format!("{}.{c}", t.as_deref().unwrap_or(""))))
                    .collect::<Vec<_>>()
                    .join(" or ");
                let d = Diagnostic::error("E0103", span, message)
                    .with_help(format!("qualify it: {help}"));
                (d, suggestions)
            }
            Miss::Missing => {
                let suggestions = self.column_suggestions(chain, table, column);
                let mut d = Diagnostic::error("E0102", span, message);
                if let Some((t, c)) = suggestions.first() {
                    let full = match t {
                        Some(t) => format!("{t}.{c}"),
                        None => c.clone(),
                    };
                    d = d.with_help(format!("did you mean {}?", tick(&full)));
                } else if let Some(owner) = self.schema_owner_of(column) {
                    d = d.with_help(format!(
                        "column {} exists in table {}, which is not in FROM",
                        tick(column),
                        tick(&owner)
                    ));
                }
                (d, suggestions)
            }
        };
        self.diags.push(diagnostic);
        self.unresolved.push(UnresolvedColumn {
            table: table.map(str::to_owned),
            column: column.to_owned(),
            span,
            suggestions,
        });
    }

    /// Ranked repair candidates for a failed resolution: exact-name columns
    /// under other qualifiers first, then fuzzy matches within scope.
    fn column_suggestions(
        &self,
        chain: &[Scope],
        table: Option<&str>,
        column: &str,
    ) -> Vec<(Option<String>, String)> {
        let mut scored: Vec<(usize, Option<String>, String)> = Vec::new();
        for scope in chain.iter().rev() {
            for slot in &scope.layout {
                let d = name_distance(&slot.column, column);
                if d > 2 {
                    continue;
                }
                // prefer same-qualifier fixes when one was written
                let qualifier_penalty = match table {
                    Some(t) if slot.binding.eq_ignore_ascii_case(t) => 0,
                    Some(_) => 1,
                    None => 0,
                };
                let repair = Some(slot.binding.clone());
                scored.push((d * 2 + qualifier_penalty, repair, slot.column.clone()));
            }
            if !scored.is_empty() {
                break; // innermost scope with candidates wins
            }
        }
        scored.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        scored.truncate(3);
        scored.into_iter().map(|(_, t, c)| (t, c)).collect()
    }

    /// Schema-wide owner of an exactly-named column outside the FROM scope.
    fn schema_owner_of(&self, column: &str) -> Option<String> {
        self.schema
            .tables
            .iter()
            .find(|t| t.columns.iter().any(|c| c.name.eq_ignore_ascii_case(column)))
            .map(|t| t.name.clone())
    }

    /// `E0203`: a typed column compared against a literal of the opposite
    /// storage class never matches under SQLite's strict dynamic typing.
    fn check_comparison(&mut self, left: &Expr, right: &Expr, chain: &[Scope]) {
        let col = |e: &Expr| -> Option<(TypeName, Span)> {
            let Expr::Column { table, column, span } = e else { return None };
            let (up, slot) = scope::lookup(layouts(chain), table.as_deref(), column).ok()?;
            let scope = &chain[chain.len() - 1 - up];
            let owner = &scope.tables[scope.owner(slot)?];
            owner.info?.column(column).map(|c| (c.ty, *span))
        };
        fn lit(e: &Expr) -> Option<&Value> {
            match e {
                Expr::Literal(v) if !v.is_null() => Some(v),
                _ => None,
            }
        }
        let pairs = [(left, right), (right, left)];
        for (a, b) in pairs {
            let (Some((ty, span)), Some(v)) = (col(a), lit(b)) else { continue };
            let mismatch = match ty {
                TypeName::Integer | TypeName::Real => matches!(v, Value::Text(_)),
                TypeName::Text => matches!(v, Value::Int(_) | Value::Real(_)),
                TypeName::Blob => false,
            };
            if mismatch {
                let (have, want) = match ty {
                    TypeName::Text => ("a numeric literal", "quoting the value"),
                    _ => ("a text literal", "removing the quotes"),
                };
                self.diags.push(
                    Diagnostic::error(
                        "E0203",
                        span,
                        format!(
                            "column of {} affinity compared with {have}; the comparison \
                             never matches",
                            ty.as_sql()
                        ),
                    )
                    .with_help(format!("try {want}")),
                );
                return; // one finding per comparison
            }
        }
    }

    /// `E0204`: in a grouped query, a bare column in the projection that is
    /// neither grouped on nor inside an aggregate reads an arbitrary row.
    fn check_group_coverage(&mut self, e: &Expr, group_by: &[Expr]) {
        // Spans compare equal, so `==` here is structural modulo location.
        if group_by.contains(e) {
            return;
        }
        match e {
            Expr::Function { name, args, .. } if is_aggregate_name(name, args.len()) => {}
            Expr::Column { table, column, span } => {
                let covered = group_by.iter().any(|g| match g {
                    Expr::Column { table: gt, column: gc, .. } => {
                        gc.eq_ignore_ascii_case(column)
                            && match (table, gt) {
                                (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                                _ => true, // same column name, qualifier elided
                            }
                    }
                    _ => false,
                });
                if !covered {
                    self.diags.push(
                        Diagnostic::error(
                            "E0204",
                            *span,
                            format!("column {} is not in GROUP BY", tick(column)),
                        )
                        .with_help(
                            "SQLite picks an arbitrary row; group on it or wrap it in an \
                             aggregate",
                        ),
                    );
                }
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                self.check_group_coverage(expr, group_by);
            }
            Expr::Binary { left, right, .. } => {
                self.check_group_coverage(left, group_by);
                self.check_group_coverage(right, group_by);
            }
            Expr::Like { expr, pattern, .. } => {
                self.check_group_coverage(expr, group_by);
                self.check_group_coverage(pattern, group_by);
            }
            Expr::Between { expr, low, high, .. } => {
                self.check_group_coverage(expr, group_by);
                self.check_group_coverage(low, group_by);
                self.check_group_coverage(high, group_by);
            }
            Expr::InList { expr, list, .. } => {
                self.check_group_coverage(expr, group_by);
                for item in list {
                    self.check_group_coverage(item, group_by);
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    self.check_group_coverage(o, group_by);
                }
                for (w, t) in branches {
                    self.check_group_coverage(w, group_by);
                    self.check_group_coverage(t, group_by);
                }
                if let Some(el) = else_expr {
                    self.check_group_coverage(el, group_by);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    self.check_group_coverage(a, group_by);
                }
            }
            _ => {}
        }
    }
}

// ---------------- lint rules ----------------

/// Visit every [`SelectCore`] reachable from `stmt`: the root core, all
/// compound arms, and the cores of every subquery (in FROM clauses and in
/// expressions), recursively.
fn for_each_core(stmt: &SelectStmt, f: &mut dyn FnMut(&SelectCore)) {
    fn visit_core(core: &SelectCore, f: &mut dyn FnMut(&SelectCore)) {
        f(core);
        if let Some(from) = &core.from {
            visit_tref(&from.base, f);
            for j in &from.joins {
                visit_tref(&j.table, f);
                if let Some(on) = &j.on {
                    visit_expr(on, f);
                }
            }
        }
        for item in &core.items {
            if let SelectItem::Expr { expr, .. } = item {
                visit_expr(expr, f);
            }
        }
        if let Some(w) = &core.where_clause {
            visit_expr(w, f);
        }
        for g in &core.group_by {
            visit_expr(g, f);
        }
        if let Some(h) = &core.having {
            visit_expr(h, f);
        }
    }
    fn visit_tref(t: &TableRef, f: &mut dyn FnMut(&SelectCore)) {
        if let TableRef::Subquery { query, .. } = t {
            for_each_core(query, f);
        }
    }
    fn visit_expr(e: &Expr, f: &mut dyn FnMut(&SelectCore)) {
        e.walk(&mut |x| match x {
            Expr::Subquery(q) | Expr::InSubquery { query: q, .. } | Expr::Exists { query: q, .. } => {
                for_each_core(q, f)
            }
            _ => {}
        });
    }
    visit_core(&stmt.core, f);
    for (_, core) in &stmt.compounds {
        visit_core(core, f);
    }
    for o in &stmt.order_by {
        visit_expr(&o.expr, f);
    }
    if let Some(l) = &stmt.limit {
        visit_expr(l, f);
    }
    if let Some(o) = &stmt.offset {
        visit_expr(o, f);
    }
}

/// Visit every expression in the statement, descending into subqueries.
fn for_each_expr_deep(stmt: &SelectStmt, f: &mut dyn FnMut(&Expr)) {
    for_each_core(stmt, &mut |core| {
        let mut go = |e: &Expr| e.walk(f);
        for item in &core.items {
            if let SelectItem::Expr { expr, .. } = item {
                go(expr);
            }
        }
        if let Some(w) = &core.where_clause {
            go(w);
        }
        for g in &core.group_by {
            go(g);
        }
        if let Some(h) = &core.having {
            go(h);
        }
        if let Some(from) = &core.from {
            for j in &from.joins {
                if let Some(on) = &j.on {
                    go(on);
                }
            }
        }
    });
}

/// Split an expression into its top-level AND conjuncts.
fn and_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary { left, op: BinOp::And, right } = e {
        and_conjuncts(left, out);
        and_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// `W0301`: `SELECT *` inside a scalar or `IN` subquery. The executor
/// requires such subqueries to yield exactly one column, so a star
/// projection only works by accident of the schema.
fn lint_star_in_scalar_subquery(stmt: &SelectStmt, out: &mut Vec<Diagnostic>) {
    for_each_expr_deep(stmt, &mut |e| {
        let q = match e {
            Expr::Subquery(q) | Expr::InSubquery { query: q, .. } => q,
            _ => return,
        };
        let starred = q.core.items.iter().any(|i| {
            matches!(i, SelectItem::Wildcard | SelectItem::TableWildcard(_))
        });
        if starred {
            out.push(Diagnostic::warning(
                "W0301",
                Span::empty(),
                "SELECT * inside a scalar/IN subquery; it must return exactly one column",
            ).with_help("project the one column the outer query compares against"));
        }
    });
}

/// `W0302`: a WHERE/HAVING/ON conjunct built only from literals that
/// constant-folds to false — the predicate can never match, which in a
/// generated candidate usually means a mistranscribed filter value.
fn lint_always_false_predicate(stmt: &SelectStmt, out: &mut Vec<Diagnostic>) {
    let mut check_pred = |pred: &Expr, what: &str| {
        let mut conjuncts = Vec::new();
        and_conjuncts(pred, &mut conjuncts);
        for c in conjuncts {
            if !is_const_foldable(c) {
                continue;
            }
            if let Ok(v) = eval_const(c) {
                if v.truthiness() == Some(false) {
                    out.push(Diagnostic::warning(
                        "W0302",
                        Span::empty(),
                        format!(
                            "{what} conjunct `{}` is always false; the {what} never matches",
                            print_expr(c)
                        ),
                    ).with_help("a literal-only predicate that folds to false usually means a wrong constant"));
                }
            }
        }
    };
    for_each_core(stmt, &mut |core| {
        if let Some(w) = &core.where_clause {
            check_pred(w, "WHERE");
        }
        if let Some(h) = &core.having {
            check_pred(h, "HAVING");
        }
        if let Some(from) = &core.from {
            for j in &from.joins {
                if let Some(on) = &j.on {
                    check_pred(on, "ON");
                }
            }
        }
    });
}

/// Is this expression a pure literal computation — no columns, bindings,
/// subqueries, or aggregates — so that [`eval_const`] decides it?
fn is_const_foldable(e: &Expr) -> bool {
    !e.any(&mut |x| {
        matches!(
            x,
            Expr::Column { .. }
                | Expr::BoundColumn { .. }
                | Expr::OuterColumn { .. }
                | Expr::Wildcard
                | Expr::Subquery(_)
                | Expr::InSubquery { .. }
                | Expr::Exists { .. }
        ) || matches!(x, Expr::Function { name, args, .. } if is_aggregate_name(name, args.len()))
    })
}

/// `W0303`: a FROM table none of whose columns are referenced anywhere —
/// usually a leftover join that only multiplies rows. `unused` is what the
/// name-resolution pass found: FROM tables never referenced by any
/// expression, `*`, or qualifier.
fn lint_unused_from_table(unused: &[(String, Span)], out: &mut Vec<Diagnostic>) {
    for (name, span) in unused {
        out.push(
            Diagnostic::warning(
                "W0303",
                *span,
                format!("table {} appears in FROM but none of its columns are used", tick(name)),
            )
            .with_help("drop the table from FROM, or reference one of its columns"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;

    fn db() -> Database {
        let mut db = Database::new("clinic");
        db.execute_script(
            "CREATE TABLE Patient (id INTEGER PRIMARY KEY, Name TEXT, age INTEGER);
             CREATE TABLE Visit (id INTEGER PRIMARY KEY, patient_id INTEGER, score REAL,
                                 FOREIGN KEY (patient_id) REFERENCES Patient(id));
             INSERT INTO Patient VALUES (1, 'ann', 34), (2, 'bob', 41);
             INSERT INTO Visit VALUES (10, 1, 7.5), (11, 2, 9.0);",
        )
        .unwrap();
        db
    }

    fn codes(a: &Analysis) -> Vec<&str> {
        a.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_query_has_no_findings() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT Name, age FROM Patient WHERE age > 40");
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(a.is_clean());
    }

    #[test]
    fn unknown_table_is_e0101_with_suggestion() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Pateint");
        assert_eq!(codes(&a), ["E0101"]);
        let d = &a.diagnostics[0];
        assert_eq!(d.message, "no such table: Pateint");
        assert!(d.help.as_deref().unwrap_or("").contains("`Patient`"), "{:?}", d.help);
    }

    #[test]
    fn unknown_table_poisons_dependent_column_refs() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT Ghost.x, y FROM Ghost");
        // one E0101; no cascading E0102 for Ghost.x or the unqualified y
        assert_eq!(codes(&a), ["E0101"]);
        // nor a W0303 for a table the poisoned y may have meant
        let b = analyze_sql(&db.schema, "SELECT y FROM Patient, Visit, Ghost");
        assert_eq!(codes(&b), ["E0101"]);
    }

    #[test]
    fn unknown_column_is_e0102_with_suggestion_and_unresolved_record() {
        let db = db();
        let sql = "SELECT Nam FROM Patient";
        let a = analyze_sql(&db.schema, sql);
        assert_eq!(codes(&a), ["E0102"]);
        assert_eq!(a.diagnostics[0].message, "no such column: Nam");
        assert!(a.diagnostics[0].help.as_deref().unwrap().contains("Name"));
        assert_eq!(a.unresolved.len(), 1);
        assert_eq!(a.unresolved[0].column, "Nam");
        assert_eq!(a.unresolved[0].suggestions[0].1, "Name");
        // the span points at the identifier in the source
        let sp = a.unresolved[0].span;
        assert_eq!(&sql[sp.start..sp.end], "Nam");
    }

    #[test]
    fn qualified_unknown_column_names_the_qualifier() {
        let db = db();
        let sql = "SELECT T1.Nam FROM Patient AS T1";
        let a = analyze_sql(&db.schema, sql);
        assert_eq!(codes(&a), ["E0102"]);
        assert_eq!(a.diagnostics[0].message, "no such column: T1.Nam");
    }

    #[test]
    fn ambiguous_column_is_e0103() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient, Visit");
        assert_eq!(codes(&a), ["E0103"]);
    }

    /// Two output labels of one FROM-subquery are two slots: an unqualified
    /// reference to them is ambiguous, as execution says; a qualified one
    /// reads the first.
    #[test]
    fn duplicate_subquery_labels_are_ambiguous_as_execution_says() {
        let db = db();
        let sql = "SELECT x FROM (SELECT id AS x, age AS x FROM Patient) AS s WHERE x > 0";
        let a = analyze_sql(&db.schema, sql);
        assert_eq!(codes(&a), ["E0103", "E0103"], "{:?}", a.diagnostics);
        assert_eq!(a.diagnostics[0].message, db.query(sql).unwrap_err().to_string());
        assert_eq!(a.diagnostics[0].help.as_deref(), Some("qualify it: `s.x`"));
        let qualified =
            "SELECT s.x FROM (SELECT id AS x, age AS x FROM Patient) AS s WHERE s.x > 0";
        assert!(analyze_sql(&db.schema, qualified).is_clean());
        assert!(db.query(qualified).is_ok());
    }

    #[test]
    fn column_owned_by_out_of_scope_table_gets_ownership_help() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT score FROM Patient");
        assert_eq!(codes(&a), ["E0102"]);
        assert!(a.diagnostics[0].help.as_deref().unwrap().contains("Visit"), "{:?}", a.diagnostics[0].help);
    }

    #[test]
    fn aggregate_in_where_is_e0201() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient WHERE COUNT(*) > 1");
        assert!(codes(&a).contains(&"E0201"), "{:?}", codes(&a));
    }

    #[test]
    fn nested_aggregate_is_e0202() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT SUM(COUNT(id)) FROM Patient");
        assert!(codes(&a).contains(&"E0202"), "{:?}", codes(&a));
    }

    #[test]
    fn text_literal_against_numeric_column_is_e0203() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient WHERE age = '41'");
        assert_eq!(codes(&a), ["E0203"]);
        assert!(a.diagnostics[0].help.as_deref().unwrap().contains("removing the quotes"));
        let b = analyze_sql(&db.schema, "SELECT id FROM Patient WHERE Name = 7");
        assert_eq!(codes(&b), ["E0203"]);
    }

    #[test]
    fn bare_column_outside_group_by_is_e0204_though_it_executes() {
        let db = db();
        let sql = "SELECT Name, COUNT(*) FROM Patient GROUP BY age";
        let a = analyze_sql(&db.schema, sql);
        assert!(codes(&a).contains(&"E0204"), "{:?}", codes(&a));
        assert!(db.query(sql).is_ok());
    }

    #[test]
    fn order_by_ordinal_out_of_range_is_e0205() {
        let db = db();
        // simple select: the executor sorts by a constant, no error
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient ORDER BY 3");
        assert!(codes(&a).contains(&"E0205"), "{:?}", codes(&a));
        // compound select: the executor rejects it
        let sql = "SELECT id FROM Patient UNION SELECT id FROM Visit ORDER BY 3";
        let b = analyze_sql(&db.schema, sql);
        assert!(codes(&b).contains(&"E0205"), "{:?}", codes(&b));
    }

    #[test]
    fn set_op_arity_mismatch_is_e0206() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id, age FROM Patient UNION SELECT id FROM Visit");
        assert!(codes(&a).contains(&"E0206"), "{:?}", codes(&a));
    }

    #[test]
    fn unknown_function_is_e0207_with_suggestion() {
        let db = db();
        // diagnosed wherever it appears, FROM or no FROM
        for sql in ["SELECT lenght(Name) FROM Patient", "SELECT lenght('abc')"] {
            let a = analyze_sql(&db.schema, sql);
            assert_eq!(codes(&a), ["E0207"], "{sql}");
            assert!(a.diagnostics[0].help.as_deref().unwrap().contains("`length`"), "{sql}");
        }
    }

    #[test]
    fn wrong_arity_is_e0207_worded_as_the_engine_words_it() {
        let db = db();
        for (sql, message) in [
            ("SELECT round(age, 1, 2) FROM Patient", "round() expects 1 or 2 argument(s), got 3"),
            ("SELECT substr(Name) FROM Patient", "substr() expects 2 or 3 argument(s), got 1"),
            ("SELECT abs(age, 1) FROM Patient", "abs() expects 1 argument(s), got 2"),
            ("SELECT replace(Name, 'a') FROM Patient", "replace() expects 3 argument(s), got 2"),
        ] {
            let a = analyze_sql(&db.schema, sql);
            assert_eq!(codes(&a), ["E0207"], "{sql}");
            assert_eq!(a.diagnostics[0].message, message);
            // the engine's own arity error carries the same sentence
            assert_eq!(db.query(sql).unwrap_err(), SqlError::BadFunction(message.into()));
        }
    }

    #[test]
    fn non_integer_limit_is_e0210() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient LIMIT 2.5");
        assert_eq!(codes(&a), ["E0210"]);
        // a numeric text literal coerces fine
        let b = analyze_sql(&db.schema, "SELECT id FROM Patient LIMIT '1'");
        assert!(b.is_clean(), "{:?}", b.diagnostics);
        assert!(db.query("SELECT id FROM Patient LIMIT '1'").is_ok());
    }

    #[test]
    fn parse_error_is_e0001_with_the_parser_message() {
        let db = db();
        let sql = "SELECT FROM WHERE";
        let a = analyze_sql(&db.schema, sql);
        assert_eq!(codes(&a), ["E0001"]);
        assert_eq!(a.diagnostics[0].message, db.query(sql).unwrap_err().to_string());
    }

    #[test]
    fn gold_shaped_statements_analyze_clean() {
        let db = db();
        for sql in [
            "SELECT Name FROM Patient WHERE age BETWEEN 30 AND 50",
            "SELECT COUNT(DISTINCT patient_id) FROM Visit",
            "SELECT T1.Name FROM Patient AS T1 INNER JOIN Visit AS T2 ON T1.id = T2.patient_id WHERE T2.score > 8.0",
            "SELECT age, COUNT(*) FROM Patient GROUP BY age",
            "SELECT Name FROM Patient WHERE strftime('%Y', Name) = '2020'",
        ] {
            let a = analyze_sql(&db.schema, sql);
            assert!(a.is_clean(), "{sql}: {:?}", a.diagnostics);
            assert!(db.query(sql).is_ok(), "{sql}");
        }
    }

    #[test]
    fn lint_star_in_scalar_subquery_fires() {
        let db = db();
        let a = analyze_sql(
            &db.schema,
            "SELECT Name FROM Patient WHERE id IN (SELECT * FROM Visit)",
        );
        assert!(codes(&a).contains(&"W0301"), "{:?}", codes(&a));
    }

    #[test]
    fn lint_always_false_predicate_fires_on_literal_conjunct() {
        let db = db();
        let a = analyze_sql(&db.schema, "SELECT id FROM Patient WHERE 1 = 2 AND age > 0");
        assert!(codes(&a).contains(&"W0302"), "{:?}", codes(&a));
        // data-dependent conjuncts never fire
        let b = analyze_sql(&db.schema, "SELECT id FROM Patient WHERE age = 0");
        assert!(!codes(&b).contains(&"W0302"));
    }

    #[test]
    fn lint_unused_from_table_fires_and_respects_usage() {
        let db = db();
        let a = analyze_sql(
            &db.schema,
            "SELECT T1.Name FROM Patient AS T1 JOIN Visit AS T2 ON T1.id = T1.age",
        );
        assert!(codes(&a).contains(&"W0303"), "{:?}", codes(&a));
        // referencing the join in ON marks it used
        let b = analyze_sql(
            &db.schema,
            "SELECT T1.Name FROM Patient AS T1 JOIN Visit AS T2 ON T1.id = T2.patient_id",
        );
        assert!(!codes(&b).contains(&"W0303"), "{:?}", codes(&b));
        // COUNT(*) counts every table as used
        let c = analyze_sql(&db.schema, "SELECT COUNT(*) FROM Visit");
        assert!(!codes(&c).contains(&"W0303"), "{:?}", codes(&c));
        // `T.*` reads every table addressed as T, as execution expands it
        let d = analyze_sql(&db.schema, "SELECT T.* FROM Patient AS T, Visit AS T");
        assert!(d.is_clean(), "{:?}", codes(&d));
    }

    #[test]
    fn lints_come_after_the_checks_in_code_order() {
        let db = db();
        let a = analyze_sql(
            &db.schema,
            "SELECT T1.Nam FROM Patient AS T1 JOIN Visit AS T2 ON 1 = 2 \
             WHERE T1.id IN (SELECT * FROM Visit)",
        );
        assert_eq!(codes(&a), ["E0102", "W0301", "W0302"]);
        let b = analyze_sql(
            &db.schema,
            "SELECT T1.Name FROM Patient AS T1 JOIN Visit AS T2 ON 1 = 2 \
             WHERE T1.id IN (SELECT * FROM Visit)",
        );
        assert_eq!(codes(&b), ["W0301", "W0302", "W0303"]);
    }

    #[test]
    fn rendered_diagnostics_point_at_source() {
        let db = db();
        let sql = "SELECT Nam FROM Patient";
        let a = analyze_sql(&db.schema, sql);
        let r = a.rendered(sql);
        assert!(r.contains("error[E0102]"), "{r}");
        assert!(r.contains("^^^"), "{r}");
    }

    /// A syntax error landing on a multi-byte character: the `E0001` span
    /// covers the whole character and the caret frame renders.
    #[test]
    fn syntax_error_on_a_multibyte_char_renders() {
        let db = db();
        for (sql, frame) in [
            ("é", "  | é\n  | ^"),
            (
                "SELECT Name FROM Patient ORDER BY 9é",
                "  | SELECT Name FROM Patient ORDER BY 9é\n  |                                    ^",
            ),
            (
                "SELECT Name FROM Patient WHERE age > 1 é",
                "  | SELECT Name FROM Patient WHERE age > 1 é\n  |                                        ^",
            ),
        ] {
            let a = analyze_sql(&db.schema, sql);
            assert_eq!(codes(&a), ["E0001"], "{sql}");
            let sp = a.diagnostics[0].span;
            assert_eq!(&sql[sp.start..sp.end], "é", "{sql}");
            let r = a.rendered(sql);
            assert!(r.ends_with(frame), "{sql}:\n{r}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Statement fragments, and letters of two, three and four bytes:
        /// those lex as identifiers, so they are what a syntax error's span
        /// can land on. (Non-ASCII punctuation never gets that far — it is
        /// a `Lex` error with no span; `token`'s own property covers it.)
        const PIECES: &[&str] = &[
            "SELECT ", "Name", "Nam", " FROM ", "Patient", "Visit", " WHERE ", "age", " > ", "1",
            " ORDER BY ", " LIMIT ", "9", "(", ")", ",", "*", "'", "\"", "`", "[", "]", "\n", " ",
            "é", "ß", "\u{5d0}", "\u{4e2d}", "\u{1d49c}",
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            /// Whatever the text, analysing and rendering it returns.
            #[test]
            fn analyze_and_render_never_panic(
                picks in prop::collection::vec(0usize..PIECES.len(), 0..12),
            ) {
                let db = db();
                let sql: String = picks.iter().map(|&k| PIECES[k]).collect();
                let a = analyze_sql(&db.schema, &sql);
                let r = a.rendered(&sql);
                prop_assert_eq!(r.is_empty(), a.is_clean(), "{:?}", sql);
            }
        }
    }
}
