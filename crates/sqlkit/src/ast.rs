//! Abstract syntax tree for the supported SQL dialect.
//!
//! The tree is deliberately mutation-friendly: OpenSearch-SQL's alignment
//! agents repair generated SQL *structurally* (re-casing stored values,
//! swapping misused aggregates, rewriting `MAX`-style subqueries into
//! `ORDER BY ... LIMIT 1`), so every node is a plain owned enum and the
//! [`SelectStmt::walk_exprs_mut`] family gives pre-order mutable traversal.

use crate::diag::Span;
use crate::error::SqlError;
use crate::value::Value;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // statements are parsed, not stored in bulk
pub enum Stmt {
    /// `SELECT ...`
    Select(SelectStmt),
    /// `CREATE TABLE ...`
    CreateTable(CreateTableStmt),
    /// `INSERT INTO ...`
    Insert(InsertStmt),
    /// `UPDATE ... SET ...`
    Update(UpdateStmt),
    /// `DELETE FROM ...`
    Delete(DeleteStmt),
}

/// A full select statement: one core, optional compounds, tail clauses.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// First SELECT core.
    pub core: SelectCore,
    /// `UNION`/`UNION ALL`/`INTERSECT`/`EXCEPT` continuations.
    pub compounds: Vec<(CompoundOp, SelectCore)>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` expression.
    pub limit: Option<Expr>,
    /// `OFFSET` expression.
    pub offset: Option<Expr>,
}

/// Set operators between select cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompoundOp {
    /// `UNION` (deduplicating).
    Union,
    /// `UNION ALL`.
    UnionAll,
    /// `INTERSECT`.
    Intersect,
    /// `EXCEPT`.
    Except,
}

/// The `SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...` core.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectCore {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM clause (None for `SELECT 1`).
    pub from: Option<FromClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    TableWildcard(String),
    /// Expression with optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias` if present.
        alias: Option<String>,
    },
}

/// FROM clause: a base table reference plus joins.
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    /// First table.
    pub base: TableRef,
    /// Subsequent joins, in syntactic order.
    pub joins: Vec<Join>,
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table with optional alias.
    Named {
        /// Table name as written.
        name: String,
        /// `AS alias` if present.
        alias: Option<String>,
        /// Source location of the table name (metadata; always `==`).
        span: Span,
    },
    /// A parenthesised subquery, with an alias or none.
    Subquery {
        /// The inner select.
        query: Box<SelectStmt>,
        /// `AS alias`, or empty when there is none: its columns are then
        /// read unqualified.
        alias: String,
    },
}

impl TableRef {
    /// The name this reference is addressed by in expressions.
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Named { name, alias, .. } => alias.as_deref().unwrap_or(name),
            TableRef::Subquery { alias, .. } => alias,
        }
    }
}

/// One JOIN step.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// INNER / LEFT / CROSS.
    pub kind: JoinKind,
    /// Joined table.
    pub table: TableRef,
    /// ON predicate (None for CROSS or comma joins).
    pub on: Option<Expr>,
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `INNER JOIN` (also plain `JOIN`).
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
    /// `CROSS JOIN` / comma.
    Cross,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort key.
    pub expr: Expr,
    /// Descending flag.
    pub desc: bool,
}

/// Declared column type names (SQLite type affinity buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    /// INTEGER affinity.
    Integer,
    /// REAL affinity.
    Real,
    /// TEXT affinity.
    Text,
    /// No affinity declared.
    Blob,
}

impl TypeName {
    /// Canonical SQL spelling.
    pub fn as_sql(&self) -> &'static str {
        match self {
            TypeName::Integer => "INTEGER",
            TypeName::Real => "REAL",
            TypeName::Text => "TEXT",
            TypeName::Blob => "BLOB",
        }
    }
}

/// Scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, optionally qualified.
    Column {
        /// Table or alias qualifier.
        table: Option<String>,
        /// Column name.
        column: String,
        /// Source location of the reference (metadata; always `==`).
        span: Span,
    },
    /// Unary operator.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operator.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `x [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// NOT flag.
        negated: bool,
    },
    /// `x [NOT] BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// NOT flag.
        negated: bool,
    },
    /// `x [NOT] IN (a, b, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// NOT flag.
        negated: bool,
    },
    /// `x [NOT] IN (SELECT ...)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery.
        query: Box<SelectStmt>,
        /// NOT flag.
        negated: bool,
    },
    /// `x IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// NOT flag (IS NOT NULL).
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        /// Optional operand form.
        operand: Option<Box<Expr>>,
        /// WHEN/THEN pairs.
        branches: Vec<(Expr, Expr)>,
        /// ELSE branch.
        else_expr: Option<Box<Expr>>,
    },
    /// Function call (scalar or aggregate); `COUNT(*)` is a call with
    /// [`Expr::Wildcard`] as its only argument.
    Function {
        /// Lower-cased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `DISTINCT` inside the call.
        distinct: bool,
        /// Source location of the function name (metadata; always `==`).
        span: Span,
    },
    /// `*` as a function argument (only valid inside COUNT).
    Wildcard,
    /// `CAST(expr AS type)`.
    Cast {
        /// Inner expression.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeName,
    },
    /// Scalar subquery.
    Subquery(Box<SelectStmt>),
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// The subquery.
        query: Box<SelectStmt>,
        /// NOT flag.
        negated: bool,
    },
    /// A column reference resolved at prepare time to a slot in the
    /// current row layout. Produced only by the binding pass in
    /// [`crate::prepare`], never by the parser.
    BoundColumn {
        /// Slot index in the row layout.
        index: usize,
    },
    /// A column reference resolved at prepare time into an enclosing
    /// (correlated) row environment. Produced only by the binding pass.
    OuterColumn {
        /// Distance outward from the innermost enclosing environment
        /// (0 = innermost).
        up: usize,
        /// Slot index in that environment's row layout.
        index: usize,
    },
    /// A column reference that resolves nowhere, carrying the error
    /// evaluating it raises (`no such column`, `ambiguous column name`).
    /// Produced only by the binding pass.
    Unresolved(SqlError),
}

impl Expr {
    /// Shorthand for an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column { table: None, column: name.into(), span: Span::empty() }
    }

    /// Shorthand for a qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column { table: Some(table.into()), column: name.into(), span: Span::empty() }
    }

    /// Shorthand for a non-DISTINCT function call with no source span.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Function { name: name.into(), args, distinct: false, span: Span::empty() }
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Build `left op right`.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// Pre-order mutable walk over this expression and every nested
    /// expression (does *not* descend into subqueries — callers that need
    /// that use [`SelectStmt::walk_exprs_mut`] which does).
    pub fn walk_mut(&mut self, f: &mut dyn FnMut(&mut Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.walk_mut(f)
            }
            Expr::Binary { left, right, .. } => {
                left.walk_mut(f);
                right.walk_mut(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk_mut(f);
                pattern.walk_mut(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk_mut(f);
                low.walk_mut(f);
                high.walk_mut(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk_mut(f);
                for e in list {
                    e.walk_mut(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk_mut(f),
            Expr::Case { operand, branches, else_expr } => {
                if let Some(op) = operand {
                    op.walk_mut(f);
                }
                for (w, t) in branches {
                    w.walk_mut(f);
                    t.walk_mut(f);
                }
                if let Some(e) = else_expr {
                    e.walk_mut(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk_mut(f);
                }
            }
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::BoundColumn { .. }
            | Expr::OuterColumn { .. }
            | Expr::Unresolved(_)
            | Expr::Wildcard
            | Expr::Subquery(_)
            | Expr::Exists { .. } => {}
        }
    }

    /// Immutable pre-order walk (no subquery descent).
    pub fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        // Safety-free trick: clone-free immutable walk mirrors walk_mut.
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
                expr.walk(f)
            }
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Case { operand, branches, else_expr } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::BoundColumn { .. }
            | Expr::OuterColumn { .. }
            | Expr::Unresolved(_)
            | Expr::Wildcard
            | Expr::Subquery(_)
            | Expr::Exists { .. } => {}
        }
    }

    /// Does any node in this expression (ignoring subqueries) satisfy `p`?
    pub fn any(&self, p: &mut dyn FnMut(&Expr) -> bool) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if !found && p(e) {
                found = true;
            }
        });
        found
    }

    /// Collect every column reference as `(qualifier, column)` pairs.
    pub fn columns(&self) -> Vec<(Option<String>, String)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column { table, column, .. } = e {
                out.push((table.clone(), column.clone()));
            }
        });
        out
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||`
    Concat,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Is this a comparison operator?
    pub fn is_comparison(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }
}

/// `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStmt {
    /// Table name.
    pub name: String,
    /// Column declarations.
    pub columns: Vec<ColumnDecl>,
    /// Table-level primary key column names.
    pub primary_key: Vec<String>,
    /// Table-level foreign keys.
    pub foreign_keys: Vec<ForeignKeyDecl>,
}

/// One declared column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDecl {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: TypeName,
    /// Column-level PRIMARY KEY.
    pub primary_key: bool,
}

/// A declared foreign key.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeignKeyDecl {
    /// Local column.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column.
    pub ref_column: String,
}

/// `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET column = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// WHERE predicate (None updates every row).
    pub where_clause: Option<Expr>,
}

/// `DELETE FROM` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// WHERE predicate (None deletes every row).
    pub where_clause: Option<Expr>,
}

/// `INSERT INTO` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Optional explicit column list.
    pub columns: Option<Vec<String>>,
    /// Literal row tuples.
    pub rows: Vec<Vec<Expr>>,
}

impl SelectStmt {
    /// A select statement with just one core and no tail clauses.
    pub fn simple(core: SelectCore) -> Self {
        SelectStmt { core, compounds: Vec::new(), order_by: Vec::new(), limit: None, offset: None }
    }

    /// Mutable walk over *every* expression in the statement, including
    /// those inside nested subqueries, in syntactic order.
    pub fn walk_exprs_mut(&mut self, f: &mut dyn FnMut(&mut Expr)) {
        fn walk_core(core: &mut SelectCore, f: &mut dyn FnMut(&mut Expr)) {
            for item in &mut core.items {
                if let SelectItem::Expr { expr, .. } = item {
                    walk_expr(expr, f);
                }
            }
            if let Some(from) = &mut core.from {
                walk_table_ref(&mut from.base, f);
                for j in &mut from.joins {
                    walk_table_ref(&mut j.table, f);
                    if let Some(on) = &mut j.on {
                        walk_expr(on, f);
                    }
                }
            }
            if let Some(w) = &mut core.where_clause {
                walk_expr(w, f);
            }
            for g in &mut core.group_by {
                walk_expr(g, f);
            }
            if let Some(h) = &mut core.having {
                walk_expr(h, f);
            }
        }
        fn walk_table_ref(t: &mut TableRef, f: &mut dyn FnMut(&mut Expr)) {
            if let TableRef::Subquery { query, .. } = t {
                query.walk_exprs_mut(f);
            }
        }
        fn walk_expr(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
            // descend into subqueries too
            e.walk_mut(&mut |node| match node {
                Expr::Subquery(q) => q.walk_exprs_mut(f),
                Expr::InSubquery { query, .. } => query.walk_exprs_mut(f),
                Expr::Exists { query, .. } => query.walk_exprs_mut(f),
                _ => {}
            });
            e.walk_mut(f);
        }
        walk_core(&mut self.core, f);
        for (_, c) in &mut self.compounds {
            walk_core(c, f);
        }
        for o in &mut self.order_by {
            walk_expr(&mut o.expr, f);
        }
        if let Some(l) = &mut self.limit {
            walk_expr(l, f);
        }
        if let Some(o) = &mut self.offset {
            walk_expr(o, f);
        }
    }

    /// Immutable walk over every expression in the statement, in exactly
    /// [`SelectStmt::walk_exprs_mut`]'s order: an expression's subqueries
    /// first, then the expression itself.
    pub fn walk_exprs(&self, f: &mut dyn FnMut(&Expr)) {
        fn walk_core(core: &SelectCore, f: &mut dyn FnMut(&Expr)) {
            for item in &core.items {
                if let SelectItem::Expr { expr, .. } = item {
                    walk_expr(expr, f);
                }
            }
            if let Some(from) = &core.from {
                walk_table_ref(&from.base, f);
                for j in &from.joins {
                    walk_table_ref(&j.table, f);
                    if let Some(on) = &j.on {
                        walk_expr(on, f);
                    }
                }
            }
            if let Some(w) = &core.where_clause {
                walk_expr(w, f);
            }
            for g in &core.group_by {
                walk_expr(g, f);
            }
            if let Some(h) = &core.having {
                walk_expr(h, f);
            }
        }
        fn walk_table_ref(t: &TableRef, f: &mut dyn FnMut(&Expr)) {
            if let TableRef::Subquery { query, .. } = t {
                query.walk_exprs(f);
            }
        }
        fn walk_expr(e: &Expr, f: &mut dyn FnMut(&Expr)) {
            e.walk(&mut |node| match node {
                Expr::Subquery(q) => q.walk_exprs(f),
                Expr::InSubquery { query, .. } => query.walk_exprs(f),
                Expr::Exists { query, .. } => query.walk_exprs(f),
                _ => {}
            });
            e.walk(f);
        }
        walk_core(&self.core, f);
        for (_, c) in &self.compounds {
            walk_core(c, f);
        }
        for o in &self.order_by {
            walk_expr(&o.expr, f);
        }
        if let Some(l) = &self.limit {
            walk_expr(l, f);
        }
        if let Some(o) = &self.offset {
            walk_expr(o, f);
        }
    }

    /// Every table name mentioned in FROM clauses (including subqueries).
    pub fn referenced_tables(&self) -> Vec<String> {
        fn from_core(core: &SelectCore, out: &mut Vec<String>) {
            if let Some(from) = &core.from {
                from_ref(&from.base, out);
                for j in &from.joins {
                    from_ref(&j.table, out);
                }
            }
        }
        fn from_ref(t: &TableRef, out: &mut Vec<String>) {
            match t {
                TableRef::Named { name, .. } => out.push(name.clone()),
                TableRef::Subquery { query, .. } => {
                    out.extend(query.referenced_tables());
                }
            }
        }
        let mut out = Vec::new();
        from_core(&self.core, &mut out);
        for (_, c) in &self.compounds {
            from_core(c, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_mut_rewrites_literals() {
        let mut e = Expr::binary(
            Expr::col("a"),
            BinOp::Eq,
            Expr::lit("john"),
        );
        e.walk_mut(&mut |node| {
            if let Expr::Literal(Value::Text(t)) = node {
                *t = t.to_uppercase();
            }
        });
        assert_eq!(
            e,
            Expr::binary(Expr::col("a"), BinOp::Eq, Expr::lit("JOHN"))
        );
    }

    #[test]
    fn columns_collects_qualified_names() {
        let e = Expr::binary(
            Expr::qcol("t", "x"),
            BinOp::And,
            Expr::IsNull { expr: Box::new(Expr::col("y")), negated: true },
        );
        assert_eq!(
            e.columns(),
            vec![(Some("t".into()), "x".into()), (None, "y".into())]
        );
    }

    #[test]
    fn binding_name_prefers_alias() {
        let t =
            TableRef::Named { name: "Patient".into(), alias: Some("T1".into()), span: Span::empty() };
        assert_eq!(t.binding_name(), "T1");
        let t = TableRef::Named { name: "Patient".into(), alias: None, span: Span::empty() };
        assert_eq!(t.binding_name(), "Patient");
    }

    #[test]
    fn statement_walk_reaches_subqueries() {
        let inner = SelectStmt::simple(SelectCore {
            items: vec![SelectItem::Expr { expr: Expr::lit(1i64), alias: None }],
            ..Default::default()
        });
        let mut stmt = SelectStmt::simple(SelectCore {
            items: vec![SelectItem::Expr {
                expr: Expr::Subquery(Box::new(inner)),
                alias: None,
            }],
            ..Default::default()
        });
        let mut literals = 0;
        stmt.walk_exprs_mut(&mut |e| {
            if matches!(e, Expr::Literal(_)) {
                literals += 1;
            }
        });
        assert_eq!(literals, 1);
    }

    #[test]
    fn both_statement_walks_visit_in_one_order() {
        let sql = "SELECT 'a', (SELECT MAX(x) FROM u WHERE u.k = 'b') FROM (SELECT 'c' AS y FROM v) AS s \
                   JOIN w ON w.k = 'd' AND EXISTS (SELECT 1 FROM u WHERE u.n = 'e') \
                   WHERE s.y IN (SELECT 'f' FROM v) AND 'g' < (SELECT 'h') GROUP BY 'i' HAVING COUNT(*) > 'j' \
                   UNION SELECT 'k' FROM t WHERE NOT EXISTS (SELECT 'l') ORDER BY 'm' LIMIT 2 OFFSET 3";
        let mut stmt = crate::parse_select(sql).expect("the statement parses");
        let mut seen = Vec::new();
        stmt.walk_exprs(&mut |e| seen.push(format!("{e:?}")));
        let mut seen_mut = Vec::new();
        stmt.walk_exprs_mut(&mut |e| seen_mut.push(format!("{e:?}")));
        assert_eq!(seen, seen_mut);
        let texts: String = seen
            .iter()
            .filter_map(|e| e.strip_prefix("Literal(Text(\"")?.chars().next())
            .collect();
        assert_eq!(texts, "abcedfhgijklm", "subqueries first, then the expression");
    }
}
