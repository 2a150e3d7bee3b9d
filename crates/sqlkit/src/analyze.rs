//! Schema-aware semantic analysis of SELECT statements.
//!
//! The analyzer is the binder: [`bind`] binds a copy of a parsed statement
//! ([`crate::prepare`]), and the binder files what it finds at the lookups
//! it makes and the nodes it visits anyway, each node's findings before it
//! binds or folds the node. This module says what a finding is and how it
//! is worded ([`Findings`]); an [`Analysis`] holds, in discovery order:
//!
//! 1. **Name resolution** over the FROM layout, asked of `crate::scope` —
//!    the module the executor's plans are laid out by: `E0101` unknown
//!    table, `E0102` unknown column, `E0103` ambiguous column (each worded
//!    as the executor words its error), with did-you-mean help drawn from
//!    the schema. Every failed resolution is also surfaced as a
//!    machine-readable [`UnresolvedColumn`] so callers (the alignment
//!    agents) can remap columns without re-walking the AST.
//! 2. **Type/shape checks** (`E02xx`): aggregate misuse, incompatible
//!    comparison operands, ORDER BY ordinals, set-operator arity, unknown
//!    functions and arities.
//! 3. **Lints** (`W03xx`), after the binder's findings: star in a scalar
//!    subquery and an always-false literal predicate, read off the
//!    statement as written, then unused FROM tables, from the binder's
//!    used-table bookkeeping.
//!
//! Per core the binder reports FROM and each ON, WHERE, the projection's
//! expansion, GROUP BY, HAVING, the items, GROUP BY coverage and ORDER BY;
//! then a compound statement's arms, their widths and its ORDER BY; then
//! LIMIT and OFFSET.
//!
//! The analyzer *diagnoses*; it never predicts what execution will do. An
//! error-severity finding can be data-dependent (a bad column in a per-row
//! predicate over an empty table never raises), so whether a statement
//! fails, and with which [`crate::error::SqlError`], is decided by running
//! it.

use crate::ast::{BinOp, Expr, OrderItem, SelectCore, SelectItem, SelectStmt, TableRef, TypeName};
use crate::diag::{Diagnostic, Severity, Span};
use crate::error::SqlError;
use crate::exec::{contains_aggregate, eval_const};
use crate::functions::{is_aggregate_name, scalar_arity, KNOWN_FUNCTIONS};
use crate::prepare::{bind_select, Bound};
use crate::printer::print_expr;
use crate::schema::DbSchema;
use crate::scope::{ColBinding, Miss};
use crate::value::Value;

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

/// Bind a copy of a parsed statement against `schema`: the bound
/// statement, ready to be lowered ([`Bound::lower`]), and its analysis.
pub fn bind(schema: &DbSchema, stmt: &SelectStmt) -> (Bound, Analysis) {
    let (bound, findings) = bind_select(schema, stmt.clone());
    let Findings { mut diagnostics, unresolved, unused } = findings;
    lint_star_in_scalar_subquery(stmt, &mut diagnostics);
    lint_always_false_predicate(stmt, &mut diagnostics);
    lint_unused_from_table(&unused, &mut diagnostics);
    (bound, Analysis { diagnostics, unresolved })
}

/// Analyze a parsed statement: [`bind`] it and keep the analysis.
pub fn analyze(schema: &DbSchema, stmt: &SelectStmt) -> Analysis {
    bind(schema, stmt).1
}

/// Parse and analyze a SQL string. A parse failure becomes
/// [`Analysis::parse_error`].
pub fn analyze_sql(schema: &DbSchema, sql: &str) -> Analysis {
    match crate::parser::parse_select(sql) {
        Ok(stmt) => analyze(schema, &stmt),
        Err(e) => Analysis::parse_error(sql, &e),
    }
}

// ---------------- findings ----------------

/// What binding one statement found, in discovery order: the `E01xx` and
/// `E02xx` diagnostics, the columns it could not resolve, and the FROM
/// tables nothing read (`W0303`'s input). Filing nothing allocates nothing.
#[derive(Default)]
pub(crate) struct Findings {
    pub(crate) diagnostics: Vec<Diagnostic>,
    pub(crate) unresolved: Vec<UnresolvedColumn>,
    pub(crate) unused: Vec<(String, Span)>,
}

impl Findings {
    fn error(&mut self, code: &str, span: Span, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic::error(code, span, message));
    }

    /// `E0101`: `name` names no table of `schema`.
    pub(crate) fn unknown_table(&mut self, schema: &DbSchema, name: &str, span: Span) {
        let mut d = Diagnostic::error("E0101", span, format!("no such table: {name}"));
        let tables = schema.tables.iter().map(|t| t.name.as_str());
        if let Some(best) = closest(tables, name, 3) {
            d = d.with_help(format!("did you mean {}?", tick(best)));
        }
        self.diagnostics.push(d);
    }

    /// `code` at the first aggregate call of `e`, if it holds one.
    pub(crate) fn aggregate_in(&mut self, e: &Expr, code: &str, message: &str, help: Option<&str>) {
        if contains_aggregate(e) {
            let d = Diagnostic::error(code, first_aggregate_span(e), message);
            self.diagnostics.push(match help {
                Some(help) => d.with_help(help),
                None => d,
            });
        }
    }

    /// `E0202`, `E0207`: an aggregate call inside the arguments of the
    /// aggregate `in_agg`, or one with no argument.
    pub(crate) fn aggregate_call(&mut self, name: &str, args: &[Expr], span: Span, in_agg: Option<&str>) {
        if let Some(outer) = in_agg {
            self.diagnostics.push(
                Diagnostic::error("E0202", span, format!("nested aggregate in {outer}()"))
                    .with_help("aggregate calls cannot contain other aggregates"),
            );
        }
        let counts_rows = name == "count" && matches!(args.first(), None | Some(Expr::Wildcard));
        if args.is_empty() && !counts_rows {
            self.error("E0207", span, format!("{name}() needs an argument"));
        }
    }

    /// `E0207`: no such scalar function, or not with `argc` arguments.
    pub(crate) fn scalar_call(&mut self, name: &str, argc: usize, span: Span) {
        match scalar_arity(name) {
            None => {
                let mut d = Diagnostic::error("E0207", span, format!("no such function: {name}"));
                if let Some(best) = closest(KNOWN_FUNCTIONS.iter().copied(), name, 2) {
                    d = d.with_help(format!("did you mean {}?", tick(best)));
                }
                self.diagnostics.push(d);
            }
            Some((lo, hi)) if argc < lo || argc > hi => {
                // every bounded arity is one count or two adjacent ones
                let want = if lo == hi { lo.to_string() } else { format!("{lo} or {hi}") };
                self.error("E0207", span, format!("{name}() expects {want} argument(s), got {argc}"));
            }
            Some(_) => {}
        }
    }

    /// `E0203`: a column of `ty` affinity compared with the literal `v`,
    /// which under SQLite's strict dynamic typing never matches. Returns
    /// whether it filed.
    pub(crate) fn comparison(&mut self, ty: TypeName, span: Span, v: &Value) -> bool {
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
            let message = format!(
                "column of {} affinity compared with {have}; the comparison never matches",
                ty.as_sql()
            );
            self.diagnostics.push(Diagnostic::error("E0203", span, message).with_help(format!("try {want}")));
        }
        mismatch
    }

    /// `E0204`: in a grouped query, a bare column of the projection item
    /// `e` (as written) that is neither grouped on nor inside an aggregate
    /// reads an arbitrary row.
    pub(crate) fn group_coverage(&mut self, e: &Expr, group_by: &[Expr]) {
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
                    self.diagnostics.push(
                        Diagnostic::error("E0204", *span, format!("column {} is not in GROUP BY", tick(column)))
                            .with_help("SQLite picks an arbitrary row; group on it or wrap it in an aggregate"),
                    );
                }
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                self.group_coverage(expr, group_by);
            }
            Expr::Binary { left, right, .. } => {
                self.group_coverage(left, group_by);
                self.group_coverage(right, group_by);
            }
            Expr::Like { expr, pattern, .. } => {
                self.group_coverage(expr, group_by);
                self.group_coverage(pattern, group_by);
            }
            Expr::Between { expr, low, high, .. } => {
                for k in [expr, low, high] {
                    self.group_coverage(k, group_by);
                }
            }
            Expr::InList { expr, list, .. } => {
                self.group_coverage(expr, group_by);
                for item in list {
                    self.group_coverage(item, group_by);
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    self.group_coverage(o, group_by);
                }
                for (w, t) in branches {
                    self.group_coverage(w, group_by);
                    self.group_coverage(t, group_by);
                }
                if let Some(el) = else_expr {
                    self.group_coverage(el, group_by);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    self.group_coverage(a, group_by);
                }
            }
            _ => {}
        }
    }

    /// `E0205`: ORDER BY position `k` outside the output columns, when
    /// their number is known.
    pub(crate) fn order_position(&mut self, k: i64, labels: Option<&[String]>) {
        if let Some(labels) = labels {
            if k < 1 || k as usize > labels.len() {
                let message = format!("ORDER BY position {k} is out of range (1..={})", labels.len());
                self.error("E0205", Span::empty(), message);
            }
        }
    }

    /// `E0206`: a set-operator arm of another width than the first.
    pub(crate) fn arm_width(&mut self, first: usize, arm: usize) {
        if first != arm {
            self.error("E0206", Span::empty(), format!("set-operator arms select {first} vs {arm} columns"));
        }
    }

    /// The ORDER BY of a compound statement names output columns of the
    /// first core (`labels`, when known): a position (`E0205`) or a label
    /// (`E0102`), and nothing else (`E0205`).
    pub(crate) fn compound_order(&mut self, order_by: &[OrderItem], labels: Option<&[String]>) {
        for o in order_by {
            match &o.expr {
                Expr::Literal(Value::Int(k)) => self.order_position(*k, labels),
                Expr::Column { table: None, column, span } => {
                    if labels.is_some_and(|ls| !ls.iter().any(|l| l.eq_ignore_ascii_case(column))) {
                        self.diagnostics.push(
                            Diagnostic::error("E0102", *span, format!("no such column: {column}")).with_help(
                                "a compound ORDER BY term must name an output label of the first SELECT",
                            ),
                        );
                    }
                }
                other => self.error(
                    "E0205",
                    expr_span(other),
                    "ORDER BY term of a compound SELECT must be a column label or position",
                ),
            }
        }
    }

    /// `E0208`, `E0210`: LIMIT or OFFSET holding an aggregate, or a
    /// literal that is no integer.
    pub(crate) fn limit(&mut self, e: &Expr) {
        let message = "aggregate used in LIMIT/OFFSET, outside of an aggregate context";
        self.aggregate_in(e, "E0208", message, None);
        if let Expr::Literal(v) = e {
            if v.as_i64().is_none() {
                self.error("E0210", Span::empty(), "LIMIT/OFFSET must be an integer");
            }
        }
    }

    /// `E0101`, `E0209`: a wildcard that reads no table, with the
    /// executor's error `e`.
    pub(crate) fn expansion(&mut self, e: SqlError) {
        let code = match e {
            SqlError::NoSuchTable(_) => "E0101",
            _ => "E0209",
        };
        self.error(code, Span::empty(), e.to_string());
    }

    /// `E0102`, `E0103`: the reference `table.column` resolves nowhere, for
    /// the reason `miss`; `suggestions` are its repair candidates (the
    /// qualified names it is ambiguous between).
    pub(crate) fn unresolved_column(
        &mut self,
        schema: &DbSchema,
        miss: Miss,
        table: Option<&str>,
        column: &str,
        span: Span,
        suggestions: Vec<(Option<String>, String)>,
    ) {
        let message = miss.error(table, column).to_string();
        let diagnostic = match miss {
            Miss::Ambiguous => {
                let help = suggestions
                    .iter()
                    .map(|(t, c)| tick(&format!("{}.{c}", t.as_deref().unwrap_or(""))))
                    .collect::<Vec<_>>()
                    .join(" or ");
                Diagnostic::error("E0103", span, message).with_help(format!("qualify it: {help}"))
            }
            Miss::Missing => {
                let d = Diagnostic::error("E0102", span, message);
                let owner = || {
                    schema.tables.iter().find(|t| t.columns.iter().any(|c| c.name.eq_ignore_ascii_case(column)))
                };
                if let Some((t, c)) = suggestions.first() {
                    let full = match t {
                        Some(t) => format!("{t}.{c}"),
                        None => c.clone(),
                    };
                    d.with_help(format!("did you mean {}?", tick(&full)))
                } else if let Some(owner) = owner() {
                    d.with_help(format!(
                        "column {} exists in table {}, which is not in FROM",
                        tick(column),
                        tick(&owner.name)
                    ))
                } else {
                    d
                }
            }
        };
        self.diagnostics.push(diagnostic);
        self.unresolved.push(UnresolvedColumn {
            table: table.map(str::to_owned),
            column: column.to_owned(),
            span,
            suggestions,
        });
    }
}

/// Ranked repair candidates for a column that resolves nowhere in the
/// scopes whose layouts are `layouts`, innermost first: columns within
/// edit distance 2, the same qualifier preferred when one was written,
/// from the innermost scope that has any.
pub(crate) fn column_suggestions<'l>(
    layouts: impl Iterator<Item = &'l [ColBinding]>,
    table: Option<&str>,
    column: &str,
) -> Vec<(Option<String>, String)> {
    let mut scored: Vec<(usize, Option<String>, String)> = Vec::new();
    for layout in layouts {
        for slot in layout {
            let d = name_distance(&slot.column, column);
            if d > 2 {
                continue;
            }
            let qualifier_penalty = match table {
                Some(t) if !slot.binding.eq_ignore_ascii_case(t) => 1,
                _ => 0,
            };
            scored.push((d * 2 + qualifier_penalty, Some(slot.binding.clone()), slot.column.clone()));
        }
        if !scored.is_empty() {
            break; // innermost scope with candidates wins
        }
    }
    scored.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
    scored.truncate(3);
    scored.into_iter().map(|(_, t, c)| (t, c)).collect()
}

/// The first of `names` nearest to `name`, if within `max` edits.
fn closest<'n>(names: impl Iterator<Item = &'n str>, name: &str, max: usize) -> Option<&'n str> {
    let (best, d) = names.map(|n| (n, name_distance(n, name))).min_by_key(|(_, d)| *d)?;
    (d <= max).then_some(best)
}

/// Names shorter than this many bytes, when ASCII, are compared on the
/// stack by [`name_distance`].
const SHORT_NAME: usize = 64;

/// Case-insensitive Levenshtein distance, for did-you-mean ranking. An
/// ASCII `a` against a short ASCII `b` — every name a generated schema
/// has — runs on two rows on the stack; otherwise both are lowercased
/// char by char and the rows go on the heap.
fn name_distance(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() && b.len() < SHORT_NAME {
        let [mut prev, mut cur] = [[0; SHORT_NAME]; 2];
        edit_distance(
            a.bytes().map(|c| c.to_ascii_lowercase()),
            b.bytes().map(|c| c.to_ascii_lowercase()),
            &mut prev[..=b.len()],
            &mut cur[..=b.len()],
        )
    } else {
        let n = b.chars().flat_map(char::to_lowercase).count() + 1;
        edit_distance(
            a.chars().flat_map(char::to_lowercase),
            b.chars().flat_map(char::to_lowercase),
            &mut vec![0; n],
            &mut vec![0; n],
        )
    }
}

/// Levenshtein distance of two sequences over two caller-provided rows,
/// each one longer than `b`.
fn edit_distance<'r, T: PartialEq>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T> + Clone,
    mut prev: &'r mut [usize],
    mut cur: &'r mut [usize],
) -> usize {
    for (j, cell) in prev.iter_mut().enumerate() {
        *cell = j;
    }
    for (i, ca) in a.enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.clone().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[prev.len() - 1]
}

/// [`name_distance`] as it was first written — chars collected, a row
/// allocated per char — which the property test holds it to.
#[cfg(test)]
fn name_distance_reference(a: &str, b: &str) -> usize {
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

/// Visit the top-level AND conjuncts of an expression, left to right.
fn for_each_conjunct(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    if let Expr::Binary { left, op: BinOp::And, right } = e {
        for_each_conjunct(left, f);
        for_each_conjunct(right, f);
    } else {
        f(e);
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
        for_each_conjunct(pred, &mut |c| {
            if !is_const_foldable(c) {
                return;
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
        });
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

    /// An aggregate's trailing arguments — `group_concat`'s separator — are
    /// evaluated with no row, so a column there names nothing, as
    /// execution says.
    #[test]
    fn aggregate_separator_resolves_in_the_empty_scope() {
        let db = db();
        let sql = "SELECT group_concat(Name, id) FROM Patient";
        let a = analyze_sql(&db.schema, sql);
        assert_eq!(codes(&a), ["E0102"], "{:?}", a.diagnostics);
        assert_eq!(a.diagnostics[0].message, db.query(sql).unwrap_err().to_string());
        assert!(analyze_sql(&db.schema, "SELECT group_concat(Name, '; ') FROM Patient").is_clean());
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

        /// Letters of names: ASCII first, then four that lowercase to
        /// another char (`É`), to two (`İ`) or to themselves (`ß`, `é`).
        const NAME_CHARS: &[char] = &['a', 'b', 'c', 'A', 'B', 'C', '_', '0', 'É', 'İ', 'ß', 'é'];

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

            /// The stack path and the heap path measure what the first
            /// version measured: ASCII names of either case, short and
            /// past [`SHORT_NAME`], and names with letters that lowercase
            /// to one char, to two (`İ`) or to themselves (`ß`).
            #[test]
            fn name_distance_matches_the_reference(
                a in prop::collection::vec(0usize..NAME_CHARS.len(), 0..70),
                b in prop::collection::vec(0usize..NAME_CHARS.len(), 0..70),
                ascii in 0usize..3,
            ) {
                // two draws in three stay ASCII, and only the rest reach
                // the non-ASCII letters at the end of the alphabet
                let letters = if ascii > 0 { NAME_CHARS.len() - 4 } else { NAME_CHARS.len() };
                let name = |picks: &[usize]| -> String {
                    picks.iter().map(|&k| NAME_CHARS[k % letters]).collect()
                };
                let (a, b) = (name(&a), name(&b));
                prop_assert_eq!(name_distance(&a, &b), name_distance_reference(&a, &b));
            }
        }
    }
}
