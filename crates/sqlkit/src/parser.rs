//! Recursive-descent SQL parser.
//!
//! Grammar coverage matches what BIRD/Spider gold SQL exercises: SELECT
//! cores with joins, subqueries (scalar / IN / EXISTS / FROM), compound
//! selects, CASE, CAST, BETWEEN, LIKE, aggregate calls with DISTINCT,
//! ORDER BY / LIMIT / OFFSET, plus CREATE TABLE and INSERT for loading.
//!
//! Statements descend by construct; an expression is one precedence-
//! climbing loop ([`Parser::climb`]) over the binding powers of [`Prec`].
//! The parser reads the tokens in place — they borrow the SQL text — and
//! copies a name or a literal once, into the tree.

use crate::ast::*;
use crate::diag::Span;
use crate::error::{SqlError, SqlResult};
use crate::token::{tokenize, Punct, Token, TokenKind};
use crate::value::Value;

/// How many levels deep one statement's tree may go. Every level of
/// nesting the parser descends into — a parenthesis, a sub-select, a CASE
/// or a function's arguments, a NOT, a sign — is one level, and a chain of
/// binary operators is as deep as its deepest operand plus one level per
/// operator it folds (a left-associative chain puts its first operand
/// under all of them). Every walk after the parser (analysis, binding,
/// planning, evaluation, printing, dropping) recurses as deep as the
/// deepest path. Siblings do not add up: forty conjuncts of a WHERE, forty
/// arms of a CASE or forty columns of a SELECT each sit one level below
/// their parent. Past the budget the statement is a syntax error.
///
/// Chosen from the deepest statements a 2 MiB thread running parse →
/// analyze → prepare → execute → print completes with the budget lifted:
/// an unoptimised build completed 78 nested parentheses, 54 sub-selects,
/// 70 `CASE`s and 612 `AND` terms, an optimised one 403, 261, 365 and
/// 2,836. The budget admits 61, 31, 30 and 62 of them — at most four
/// fifths of what the unoptimised build completes. No gold statement of
/// the generated benchmarks goes deeper than 6 levels, and no statement
/// of the engine corpus or of the benchmark's beams deeper than 9.
pub(crate) const DEPTH_BUDGET: usize = 64;

/// Parse a single statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> SqlResult<Stmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(&tokens);
    let stmt = p.statement()?;
    p.eat_punct(Punct::Semi);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a query, requiring it to be a SELECT.
pub fn parse_select(sql: &str) -> SqlResult<SelectStmt> {
    match parse_statement(sql)? {
        Stmt::Select(s) => Ok(s),
        _ => Err(SqlError::Syntax { pos: 0, msg: "expected a SELECT statement".into() }),
    }
}

/// Parse a script of `;`-separated statements.
pub fn parse_script(sql: &str) -> SqlResult<Vec<Stmt>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser::new(&tokens);
    let mut out = Vec::new();
    loop {
        while p.eat_punct(Punct::Semi) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

/// How tightly an operator binds, loosest first. `Not` is the level of a
/// prefix `NOT`, whose operand binds tighter than `AND`; the predicates
/// (`LIKE`, `BETWEEN`, `IN`, `IS`) bind as `=` does, comparisons tighter,
/// `||` tightest of the binary operators, and `Unary` — an operand under a
/// sign — tighter than all of them. Every binary operator is
/// left-associative: its right operand binds one level tighter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prec {
    Or,
    And,
    Not,
    Predicate,
    Comparison,
    Additive,
    Multiplicative,
    Concat,
    Unary,
}

impl Prec {
    /// The level a right operand of an operator at this level is parsed at.
    fn tighter(self) -> Prec {
        match self {
            Prec::Or => Prec::And,
            Prec::And => Prec::Not,
            Prec::Not | Prec::Predicate => Prec::Comparison,
            Prec::Comparison => Prec::Additive,
            Prec::Additive => Prec::Multiplicative,
            Prec::Multiplicative => Prec::Concat,
            Prec::Concat | Prec::Unary => Prec::Unary,
        }
    }
}

/// An infix operator: a binary operator, or a predicate whose right side
/// is not one expression.
#[derive(Debug, Clone, Copy)]
enum Infix {
    Binary(BinOp),
    Like,
    Between,
    In,
    Is,
}

/// The punctuation operators and their binding powers.
const PUNCT_OPS: [(Punct, BinOp, Prec); 12] = [
    (Punct::Eq, BinOp::Eq, Prec::Predicate),
    (Punct::Ne, BinOp::Ne, Prec::Predicate),
    (Punct::Lt, BinOp::Lt, Prec::Comparison),
    (Punct::Le, BinOp::Le, Prec::Comparison),
    (Punct::Gt, BinOp::Gt, Prec::Comparison),
    (Punct::Ge, BinOp::Ge, Prec::Comparison),
    (Punct::Plus, BinOp::Add, Prec::Additive),
    (Punct::Minus, BinOp::Sub, Prec::Additive),
    (Punct::Star, BinOp::Mul, Prec::Multiplicative),
    (Punct::Slash, BinOp::Div, Prec::Multiplicative),
    (Punct::Percent, BinOp::Mod, Prec::Multiplicative),
    (Punct::Concat, BinOp::Concat, Prec::Concat),
];

/// The keyword operators and their binding powers; `LIKE`, `BETWEEN` and
/// `IN` may follow a `NOT`.
const WORD_OPS: [(&str, Infix, Prec); 6] = [
    ("OR", Infix::Binary(BinOp::Or), Prec::Or),
    ("AND", Infix::Binary(BinOp::And), Prec::And),
    ("LIKE", Infix::Like, Prec::Predicate),
    ("BETWEEN", Infix::Between, Prec::Predicate),
    ("IN", Infix::In, Prec::Predicate),
    ("IS", Infix::Is, Prec::Predicate),
];

struct Parser<'t, 'a> {
    /// The statement's tokens, ending in `Eof`.
    tokens: &'t [Token<'a>],
    pos: usize,
    /// How many levels below the statement's root the construct being
    /// parsed sits.
    depth: usize,
    /// The deepest level the construct being parsed has reached since it
    /// began: a nested construct and each operand right of an operator
    /// start over at their own `depth` ([`Parser::mark`]).
    reached: usize,
}

impl<'t, 'a> Parser<'t, 'a> {
    fn new(tokens: &'t [Token<'a>]) -> Self {
        Parser { tokens, pos: 0, depth: 0, reached: 0 }
    }

    /// The tree reaches `depth` levels down: past [`DEPTH_BUDGET`] that is
    /// a syntax error.
    fn reach(&mut self, depth: usize) -> SqlResult<()> {
        if depth > DEPTH_BUDGET {
            return self.err(format!("statement nests deeper than {DEPTH_BUDGET} levels"));
        }
        self.reached = self.reached.max(depth);
        Ok(())
    }

    /// Parse one nested construct, a level below the current one.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> SqlResult<T>) -> SqlResult<T> {
        self.depth += 1;
        let mark = self.mark();
        let out = self.reach(self.depth).and_then(|()| parse(self));
        self.depth -= 1;
        self.reached = self.reached.max(mark);
        out
    }

    /// Start over at the current depth, for a nested construct or an
    /// operator's right operand; returns how deep the construct around it
    /// had reached — for an operand, the chain left of the operator, which
    /// [`Parser::fold`] takes. (A call before and one after the operand,
    /// not a wrapper around its parse, so the recursion gains no stack
    /// frame per operator.)
    fn mark(&mut self) -> usize {
        std::mem::replace(&mut self.reached, self.depth)
    }

    /// Fold one more operator into the chain being parsed: it now stands
    /// one level above the deeper of the chain left of it (`mark`) and the
    /// operands parsed since.
    fn fold(&mut self, mark: usize) -> SqlResult<()> {
        self.reach(self.reached.max(mark) + 1)
    }

    /// The current token. It borrows the token list, not the parser, so it
    /// stays readable past [`Parser::bump`].
    fn peek(&self) -> &'t TokenKind<'a> {
        &self.tokens[self.pos].kind
    }

    /// The token `ahead` places past the current one, if any.
    fn peek_ahead(&self, ahead: usize) -> Option<&'t TokenKind<'a>> {
        self.tokens.get(self.pos + ahead).map(|t| &t.kind)
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    /// Byte span from `start` to the end of the most recently consumed
    /// token, which must be an identifier (quoted identifiers include
    /// their delimiters; doubled escapes inside make the span run a few
    /// bytes short, which only shortens rendered carets).
    fn span_from(&self, start: usize) -> Span {
        let t = &self.tokens[self.pos.saturating_sub(1)];
        let len = match &t.kind {
            TokenKind::Ident(s, quoted) => s.len() + if *quoted { 2 } else { 0 },
            _ => 0,
        };
        Span::new(start, (t.pos + len).max(start))
    }

    /// Step past the current token (never past the trailing `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn err<T>(&self, msg: impl Into<String>) -> SqlResult<T> {
        Err(SqlError::Syntax { pos: self.peek_pos(), msg: msg.into() })
    }

    /// Is the current token the given (unquoted) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s, false) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw}"))
        }
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek(), TokenKind::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> SqlResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected {p:?}"))
        }
    }

    fn expect_eof(&self) -> SqlResult<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(SqlError::Syntax {
                pos: self.peek_pos(),
                msg: format!("unexpected trailing input: {:?}", self.peek()),
            })
        }
    }

    /// Any identifier (quoted or not); keywords are allowed as names when
    /// quoted.
    fn ident(&mut self) -> SqlResult<String> {
        match self.peek() {
            TokenKind::Ident(s, _) => {
                self.bump();
                Ok(s.to_string())
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn statement(&mut self) -> SqlResult<Stmt> {
        if self.at_kw("SELECT") {
            Ok(Stmt::Select(self.select_stmt()?))
        } else if self.at_kw("CREATE") {
            self.create_table()
        } else if self.at_kw("INSERT") {
            self.insert()
        } else if self.at_kw("UPDATE") {
            self.update()
        } else if self.at_kw("DELETE") {
            self.delete()
        } else {
            self.err("expected SELECT, CREATE, INSERT, UPDATE or DELETE")
        }
    }

    fn update(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.ident()?;
            self.expect_punct(Punct::Eq)?;
            assignments.push((column, self.expr()?));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Update(UpdateStmt { table, assignments, where_clause }))
    }

    fn delete(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Delete(DeleteStmt { table, where_clause }))
    }

    // ---------------- SELECT ----------------

    fn select_stmt(&mut self) -> SqlResult<SelectStmt> {
        self.nested(Self::select_body)
    }

    fn select_body(&mut self) -> SqlResult<SelectStmt> {
        let core = self.select_core()?;
        let mut compounds = Vec::new();
        loop {
            let op = if self.eat_kw("UNION") {
                if self.eat_kw("ALL") {
                    CompoundOp::UnionAll
                } else {
                    CompoundOp::Union
                }
            } else if self.eat_kw("INTERSECT") {
                CompoundOp::Intersect
            } else if self.eat_kw("EXCEPT") {
                CompoundOp::Except
            } else {
                break;
            };
            compounds.push((op, self.select_core()?));
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            let first = self.expr()?;
            if self.eat_kw("OFFSET") {
                limit = Some(first);
                offset = Some(self.expr()?);
            } else if self.eat_punct(Punct::Comma) {
                // LIMIT offset, count
                offset = Some(first);
                limit = Some(self.expr()?);
            } else {
                limit = Some(first);
            }
        }
        Ok(SelectStmt { core, compounds, order_by, limit, offset })
    }

    fn select_core(&mut self) -> SqlResult<SelectCore> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("FROM") { Some(self.from_clause()?) } else { None };
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        Ok(SelectCore { distinct, items, from, where_clause, group_by, having })
    }

    fn select_item(&mut self) -> SqlResult<SelectItem> {
        if self.eat_punct(Punct::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let TokenKind::Ident(name, _) = self.peek() {
            if matches!(self.peek_ahead(1), Some(TokenKind::Punct(Punct::Dot)))
                && matches!(self.peek_ahead(2), Some(TokenKind::Punct(Punct::Star)))
            {
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::TableWildcard(name.to_string()));
            }
        }
        let expr = self.expr()?;
        let alias = self.opt_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[AS] alias`, where a bare identifier is only an alias when it is
    /// not a clause keyword.
    fn opt_alias(&mut self) -> SqlResult<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        if let TokenKind::Ident(s, quoted) = self.peek() {
            if *quoted || !is_clause_keyword(s) {
                self.bump();
                return Ok(Some(s.to_string()));
            }
        }
        Ok(None)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_clause(&mut self) -> SqlResult<FromClause> {
        let base = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_punct(Punct::Comma) {
                joins.push(Join { kind: JoinKind::Cross, table: self.table_ref()?, on: None });
                continue;
            }
            let kind = if self.at_kw("JOIN") {
                self.bump();
                JoinKind::Inner
            } else if self.at_kw("INNER") {
                self.bump();
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.at_kw("LEFT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.at_kw("CROSS") {
                self.bump();
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else {
                break;
            };
            let table = self.table_ref()?;
            let on = if self.eat_kw("ON") { Some(self.expr()?) } else { None };
            joins.push(Join { kind, table, on });
        }
        Ok(FromClause { base, joins })
    }

    fn table_ref(&mut self) -> SqlResult<TableRef> {
        if self.eat_punct(Punct::LParen) {
            let query = self.select_stmt()?;
            self.expect_punct(Punct::RParen)?;
            // as SQLite, a sub-select may go without an alias (its columns
            // are then read unqualified), and a clause keyword is none
            let alias = self.opt_alias()?.unwrap_or_default();
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let start = self.peek_pos();
        let name = self.ident()?;
        let span = self.span_from(start);
        let alias = self.opt_alias()?;
        Ok(TableRef::Named { name, alias, span })
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> SqlResult<Expr> {
        self.nested(|p| p.climb(Prec::Or))
    }

    /// One expression whose operators bind at least as tightly as `min`:
    /// its prefixes and primary, then infix operators at `min` or tighter,
    /// each folding the chain left of it with a right operand that binds
    /// one level tighter. The loop reads what the descent it replaced (one
    /// function per level) read: once an operator is folded, only one that
    /// binds no tighter continues the chain — a tighter one would have gone
    /// into its right operand, and after a postfix predicate (`IS NULL`,
    /// `IN (…)`) or a prefix `NOT` the grammar does not take one — and the
    /// depth accounting is the same: a prefix nests its operand one level
    /// down, and an operator marks before its right operand and folds
    /// after it.
    fn climb(&mut self, min: Prec) -> SqlResult<Expr> {
        // the loosest operator folded so far bounds the next one
        let mut cap = Prec::Unary;
        let mut left = if min <= Prec::Not && self.at_kw("NOT") && !self.next_is_kw("EXISTS") {
            self.bump();
            let inner = self.nested(|p| p.climb(Prec::Not))?;
            cap = Prec::And;
            Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) }
        } else if self.eat_punct(Punct::Minus) {
            let inner = self.nested(|p| p.climb(Prec::Unary))?;
            Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) }
        } else if self.eat_punct(Punct::Plus) {
            self.nested(|p| p.climb(Prec::Unary))?
        } else {
            self.primary()?
        };
        while let Some((op, prec, negated)) = self.infix().filter(|&(_, prec, _)| min <= prec && prec <= cap) {
            cap = prec;
            // `NOT`, then the operator
            if negated {
                self.bump();
            }
            self.bump();
            // the operands right of the operator start over; the operator
            // folds over them
            let mark = self.mark();
            let operand = Prec::tighter(prec);
            left = match op {
                Infix::Binary(op) => Expr::binary(left, op, self.climb(operand)?),
                Infix::Like => {
                    let pattern = self.climb(operand)?;
                    Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated }
                }
                Infix::Between => {
                    let low = self.climb(operand)?;
                    self.expect_kw("AND")?;
                    // `high` is `low`'s sibling: it starts over too
                    let low_reached = self.mark();
                    let high = self.climb(operand)?;
                    self.reached = self.reached.max(low_reached);
                    Expr::Between { expr: Box::new(left), low: Box::new(low), high: Box::new(high), negated }
                }
                Infix::In => {
                    self.expect_punct(Punct::LParen)?;
                    if self.at_kw("SELECT") {
                        let q = self.select_stmt()?;
                        self.expect_punct(Punct::RParen)?;
                        Expr::InSubquery { expr: Box::new(left), query: Box::new(q), negated }
                    } else {
                        let mut list = Vec::new();
                        if !self.at_punct(Punct::RParen) {
                            loop {
                                list.push(self.expr()?);
                                if !self.eat_punct(Punct::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                        Expr::InList { expr: Box::new(left), list, negated }
                    }
                }
                Infix::Is => {
                    let negated = self.eat_kw("NOT");
                    self.expect_kw("NULL")?;
                    Expr::IsNull { expr: Box::new(left), negated }
                }
            };
            self.fold(mark)?;
        }
        Ok(left)
    }

    /// The infix operator at the current token, its binding power, and
    /// whether it is a `NOT LIKE` / `NOT BETWEEN` / `NOT IN` (the current
    /// token being that `NOT`).
    fn infix(&self) -> Option<(Infix, Prec, bool)> {
        let word = match self.peek() {
            TokenKind::Punct(p) => {
                let &(_, op, prec) = PUNCT_OPS.iter().find(|(q, ..)| q == p)?;
                return Some((Infix::Binary(op), prec, false));
            }
            TokenKind::Ident(word, false) => word,
            _ => return None,
        };
        let (word, negated) = match self.peek_ahead(1) {
            Some(TokenKind::Ident(next, false)) if word.eq_ignore_ascii_case("NOT") => (next, true),
            _ => (word, false),
        };
        let &(_, op, prec) = WORD_OPS.iter().find(|(kw, ..)| word.eq_ignore_ascii_case(kw))?;
        let negatable = matches!(op, Infix::Like | Infix::Between | Infix::In);
        (negatable || !negated).then_some((op, prec, negated))
    }

    fn next_is_kw(&self, kw: &str) -> bool {
        matches!(self.peek_ahead(1), Some(TokenKind::Ident(s, false)) if s.eq_ignore_ascii_case(kw))
    }

    fn primary(&mut self) -> SqlResult<Expr> {
        match self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(*v)))
            }
            TokenKind::Real(v) => {
                self.bump();
                Ok(Expr::Literal(Value::Real(*v)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Text(s.to_string())))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                if self.at_kw("SELECT") {
                    let q = self.select_stmt()?;
                    self.expect_punct(Punct::RParen)?;
                    Ok(Expr::Subquery(Box::new(q)))
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::RParen)?;
                    Ok(e)
                }
            }
            &TokenKind::Ident(ref name, quoted) => {
                if !quoted {
                    if name.eq_ignore_ascii_case("NULL") {
                        self.bump();
                        return Ok(Expr::Literal(Value::Null));
                    }
                    if name.eq_ignore_ascii_case("CASE") {
                        return self.nested(Self::case_expr);
                    }
                    if name.eq_ignore_ascii_case("CAST") {
                        return self.cast_expr();
                    }
                    if name.eq_ignore_ascii_case("EXISTS") || self.at_kw("NOT") {
                        let negated = self.eat_kw("NOT");
                        self.expect_kw("EXISTS")?;
                        self.expect_punct(Punct::LParen)?;
                        let q = self.select_stmt()?;
                        self.expect_punct(Punct::RParen)?;
                        return Ok(Expr::Exists { query: Box::new(q), negated });
                    }
                }
                if !quoted && is_clause_keyword(name) {
                    return self.err(format!("unexpected keyword {name}"));
                }
                let start = self.peek_pos();
                self.bump();
                // function call?
                if !quoted && self.at_punct(Punct::LParen) {
                    let span = Span::new(start, start + name.len());
                    return self.function_call(name, span);
                }
                // qualified column?
                if self.eat_punct(Punct::Dot) {
                    let column = self.ident()?;
                    let span = self.span_from(start);
                    return Ok(Expr::Column { table: Some(name.to_string()), column, span });
                }
                Ok(Expr::Column { table: None, column: name.to_string(), span: self.span_from(start) })
            }
            other => self.err(format!("unexpected token {other:?}")),
        }
    }

    fn function_call(&mut self, name: &str, span: Span) -> SqlResult<Expr> {
        self.expect_punct(Punct::LParen)?;
        let mut args = Vec::new();
        let mut distinct = false;
        if !self.at_punct(Punct::RParen) {
            if self.eat_punct(Punct::Star) {
                args.push(Expr::Wildcard);
            } else {
                distinct = self.eat_kw("DISTINCT");
                loop {
                    args.push(self.expr()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(Expr::Function { name: name.to_lowercase(), args, distinct, span })
    }

    fn case_expr(&mut self) -> SqlResult<Expr> {
        self.expect_kw("CASE")?;
        let operand = if self.at_kw("WHEN") { None } else { Some(Box::new(self.expr()?)) };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let w = self.expr()?;
            self.expect_kw("THEN")?;
            let t = self.expr()?;
            branches.push((w, t));
        }
        if branches.is_empty() {
            return self.err("CASE requires at least one WHEN branch");
        }
        let else_expr = if self.eat_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("END")?;
        Ok(Expr::Case { operand, branches, else_expr })
    }

    fn cast_expr(&mut self) -> SqlResult<Expr> {
        self.expect_kw("CAST")?;
        self.expect_punct(Punct::LParen)?;
        let inner = self.expr()?;
        self.expect_kw("AS")?;
        let ty = self.type_name()?;
        self.expect_punct(Punct::RParen)?;
        Ok(Expr::Cast { expr: Box::new(inner), ty })
    }

    fn type_name(&mut self) -> SqlResult<TypeName> {
        let name = self.ident()?.to_uppercase();
        // swallow optional (n) / (n, m)
        if self.eat_punct(Punct::LParen) {
            while !self.eat_punct(Punct::RParen) {
                self.bump();
                if self.at_eof() {
                    return self.err("unterminated type arguments");
                }
            }
        }
        Ok(affinity_of(&name))
    }

    // ---------------- DDL / DML ----------------

    fn create_table(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
        }
        let name = self.ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        let mut foreign_keys = Vec::new();
        loop {
            if self.at_kw("PRIMARY") {
                self.bump();
                self.expect_kw("KEY")?;
                self.expect_punct(Punct::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::RParen)?;
            } else if self.at_kw("FOREIGN") {
                self.bump();
                self.expect_kw("KEY")?;
                self.expect_punct(Punct::LParen)?;
                let column = self.ident()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_kw("REFERENCES")?;
                let ref_table = self.ident()?;
                self.expect_punct(Punct::LParen)?;
                let ref_column = self.ident()?;
                self.expect_punct(Punct::RParen)?;
                foreign_keys.push(ForeignKeyDecl { column, ref_table, ref_column });
            } else {
                let col_name = self.ident()?;
                let ty = if matches!(self.peek(), TokenKind::Ident(_, _))
                    && !self.at_kw("PRIMARY")
                {
                    self.type_name()?
                } else {
                    TypeName::Blob
                };
                let mut pk = false;
                // column constraints we accept: PRIMARY KEY, NOT NULL, UNIQUE
                loop {
                    if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        pk = true;
                    } else if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                    } else if self.eat_kw("UNIQUE") {
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDecl { name: col_name, ty, primary_key: pk });
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok(Stmt::CreateTable(CreateTableStmt { name, columns, primary_key, foreign_keys }))
    }

    fn insert(&mut self) -> SqlResult<Stmt> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_punct(Punct::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct(Punct::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
            rows.push(row);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(Stmt::Insert(InsertStmt { table, columns, rows }))
    }
}

/// SQLite type-affinity resolution from a declared type name.
pub fn affinity_of(decl: &str) -> TypeName {
    let d = decl.to_uppercase();
    if d.contains("INT") {
        TypeName::Integer
    } else if d.contains("CHAR") || d.contains("CLOB") || d.contains("TEXT") || d.contains("DATE") {
        TypeName::Text
    } else if d.contains("REAL") || d.contains("FLOA") || d.contains("DOUB") || d.contains("NUMERIC")
        || d.contains("DECIMAL")
    {
        TypeName::Real
    } else {
        TypeName::Blob
    }
}

/// Keywords that terminate an implicit alias position.
fn is_clause_keyword(s: &str) -> bool {
    const KW: &[&str] = &[
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "JOIN", "INNER", "LEFT",
        "RIGHT", "CROSS", "ON", "AND", "OR", "NOT", "AS", "UNION", "INTERSECT", "EXCEPT", "SELECT",
        "BY", "ASC", "DESC", "SET", "VALUES", "WHEN", "THEN", "ELSE", "END", "CASE", "IN", "IS",
        "LIKE", "BETWEEN", "EXISTS", "OUTER", "USING", "ALL", "DISTINCT",
    ];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // the running example from the paper's Listing 5
        let sql = "SELECT COUNT(DISTINCT T1.ID) FROM Patient AS T1 INNER JOIN Laboratory AS T2 \
                   ON T1.ID = T2.ID WHERE T2.IGA > 80 AND T2.IGA < 500 AND \
                   strftime('%Y', T1.`First Date`) >= '1990'";
        let stmt = parse_select(sql).unwrap();
        assert_eq!(stmt.core.items.len(), 1);
        let from = stmt.core.from.as_ref().unwrap();
        assert_eq!(from.joins.len(), 1);
        assert_eq!(from.joins[0].kind, JoinKind::Inner);
        assert!(stmt.core.where_clause.is_some());
    }

    #[test]
    fn parses_group_order_limit() {
        let s = parse_select(
            "SELECT city, COUNT(*) AS n FROM shops GROUP BY city HAVING COUNT(*) > 2 \
             ORDER BY n DESC, city LIMIT 5 OFFSET 2",
        )
        .unwrap();
        assert_eq!(s.core.group_by.len(), 1);
        assert!(s.core.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(Expr::lit(5i64)));
        assert_eq!(s.offset, Some(Expr::lit(2i64)));
    }

    #[test]
    fn limit_comma_form() {
        let s = parse_select("SELECT a FROM t LIMIT 2, 10").unwrap();
        assert_eq!(s.offset, Some(Expr::lit(2i64)));
        assert_eq!(s.limit, Some(Expr::lit(10i64)));
    }

    #[test]
    fn parses_subqueries() {
        let s = parse_select(
            "SELECT name FROM t WHERE score = (SELECT MAX(score) FROM t) AND id IN \
             (SELECT id FROM u WHERE ok = 1)",
        )
        .unwrap();
        let w = s.core.where_clause.unwrap();
        assert!(w.any(&mut |e| matches!(e, Expr::Subquery(_))));
        assert!(w.any(&mut |e| matches!(e, Expr::InSubquery { .. })));
    }

    #[test]
    fn parses_from_subquery() {
        let s = parse_select("SELECT x.n FROM (SELECT COUNT(*) AS n FROM t) AS x").unwrap();
        assert!(matches!(s.core.from.unwrap().base, TableRef::Subquery { .. }));
    }

    #[test]
    fn parses_case_cast_between_like() {
        let s = parse_select(
            "SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END, CAST(b AS INTEGER) \
             FROM t WHERE c BETWEEN 1 AND 5 AND d LIKE '%x%' AND e NOT LIKE 'y%'",
        )
        .unwrap();
        assert_eq!(s.core.items.len(), 2);
    }

    #[test]
    fn parses_compound_selects() {
        let s = parse_select("SELECT a FROM t UNION SELECT b FROM u UNION ALL SELECT c FROM v")
            .unwrap();
        assert_eq!(s.compounds.len(), 2);
        assert_eq!(s.compounds[0].0, CompoundOp::Union);
        assert_eq!(s.compounds[1].0, CompoundOp::UnionAll);
    }

    #[test]
    fn parses_exists() {
        let s = parse_select("SELECT 1 FROM t WHERE NOT EXISTS (SELECT 1 FROM u)").unwrap();
        assert!(s
            .core
            .where_clause
            .unwrap()
            .any(&mut |e| matches!(e, Expr::Exists { negated: true, .. })));
    }

    #[test]
    fn parses_is_not_null_and_not_in() {
        let s =
            parse_select("SELECT a FROM t WHERE a IS NOT NULL AND b NOT IN (1, 2)").unwrap();
        let w = s.core.where_clause.unwrap();
        assert!(w.any(&mut |e| matches!(e, Expr::IsNull { negated: true, .. })));
        assert!(w.any(&mut |e| matches!(e, Expr::InList { negated: true, .. })));
    }

    #[test]
    fn create_and_insert() {
        let stmts = parse_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL, \
             FOREIGN KEY (id) REFERENCES u (uid));\n\
             INSERT INTO t (id, name, score) VALUES (1, 'a', 2.5), (2, 'b', NULL);",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
        match &stmts[0] {
            Stmt::CreateTable(c) => {
                assert_eq!(c.columns.len(), 3);
                assert!(c.columns[0].primary_key);
                assert_eq!(c.foreign_keys.len(), 1);
            }
            _ => panic!("expected CREATE TABLE"),
        }
        match &stmts[1] {
            Stmt::Insert(i) => assert_eq!(i.rows.len(), 2),
            _ => panic!("expected INSERT"),
        }
    }

    #[test]
    fn precedence_and_or() {
        // a = 1 OR b = 2 AND c = 3  ==>  a=1 OR (b=2 AND c=3)
        let s = parse_select("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match s.core.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }))
            }
            other => panic!("bad tree: {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse_select("SELECT 1 + 2 * 3").unwrap();
        match &s.core.items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }))
            }
            other => panic!("bad tree: {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_select("SELECT FROM").is_err());
        assert!(parse_select("SELEC a FROM t").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t trailing garbage, here").is_err());
    }

    #[test]
    fn implicit_alias_not_keyword() {
        let s = parse_select("SELECT a b FROM t x WHERE x.a = 1").unwrap();
        match &s.core.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("b")),
            _ => panic!(),
        }
        match s.core.from.unwrap().base {
            TableRef::Named { alias, .. } => assert_eq!(alias.as_deref(), Some("x")),
            _ => panic!(),
        }
    }

    /// A statement of one shape, `k` levels deep.
    type Shape = fn(usize) -> String;

    /// The shapes that overflowed a 2 MiB worker before the budget:
    /// parentheses, sub-selects, `CASE`s and `AND` terms.
    const DEEP_SHAPES: [(&str, Shape); 4] = [
        ("parentheses", |k| {
            format!("SELECT id FROM t WHERE {}id = 1{}", "(".repeat(k), ")".repeat(k))
        }),
        ("sub-selects", |k| format!("SELECT {}1{}", "(SELECT ".repeat(k), ")".repeat(k))),
        ("CASEs", |k| {
            format!("SELECT {}1{} FROM t", "CASE WHEN id > 0 THEN ".repeat(k), " END".repeat(k))
        }),
        ("AND terms", |k| format!("SELECT id FROM t WHERE {}id > 0", "id > 0 AND ".repeat(k - 1))),
    ];

    /// At the budget, every walk of each deep shape — parse, analyze,
    /// prepare, execute, print — completes on a 2 MiB thread; one level
    /// more is a syntax error, which the analyzer files as E0001.
    #[test]
    fn depth_budget_bounds_every_walk_on_a_2_mib_thread() {
        for (shape, sql) in DEEP_SHAPES {
            let fits = (1..).take_while(|&k| parse_select(&sql(k)).is_ok()).last().unwrap_or(0);
            assert!(fits > DEPTH_BUDGET / 3, "{shape}: only {fits} levels fit");
            let over = sql(fits + 1);
            match parse_select(&over) {
                Err(SqlError::Syntax { msg, .. }) => assert!(msg.contains("deeper than"), "{msg}"),
                other => panic!("{shape} at {} levels: {other:?}", fits + 1),
            }
            let deepest = sql(fits);
            let walks = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
                let mut db = crate::db::Database::new("deep");
                let script = "CREATE TABLE t (id INTEGER PRIMARY KEY); INSERT INTO t VALUES (1);";
                db.execute_script(script).unwrap();
                let stmt = parse_select(&deepest).unwrap();
                crate::analyze::analyze(&db.schema, &stmt);
                let _ = crate::prepare::prepare(&db, &deepest).map(|p| p.execute(&db));
                crate::printer::print_select(&stmt);
                let analysis = crate::analyze::analyze_sql(&db.schema, &over);
                analysis.diagnostics.into_iter().map(|d| d.code).collect::<Vec<_>>()
            });
            assert_eq!(walks.unwrap().join().expect(shape), ["E0001"], "{shape}");
        }
    }

    /// The budget bounds the deepest path, not the operators a statement
    /// holds: siblings do not add up, statements of a script do not add
    /// up, and an operand sits under every operator its chain folds after
    /// it.
    #[test]
    fn depth_budget_counts_the_deepest_path() {
        fn joined(n: usize, sep: &str, item: impl Fn(usize) -> String) -> String {
            (0..n).map(item).collect::<Vec<_>>().join(sep)
        }
        let conjuncts =
            format!("SELECT id FROM t WHERE {}", joined(40, " AND ", |i| format!("id = {i}")));
        let arms = format!(
            "SELECT CASE {} END FROM t",
            joined(40, " ", |i| format!("WHEN id = '{i}' THEN {i}"))
        );
        let columns = format!("SELECT {} FROM t", joined(65, ", ", |_| "id + 1".into()));
        let assignments = format!("UPDATE t SET {}", joined(65, ", ", |_| "id = id + 1".into()));
        for sql in [&conjuncts, &arms, &columns, &assignments] {
            assert!(parse_statement(sql).is_ok(), "{sql}");
        }
        assert_eq!(parse_script(&[conjuncts.as_str(); 8].join(";")).map(|s| s.len()), Ok(8));
        // one chain of 65 terms folds 64 operators on one path
        assert!(parse_select(&format!("SELECT 1 WHERE {}", vec!["1"; 65].join(" AND "))).is_err());
        // an operand 41 levels high, under 1 + `ands` more levels
        let deep = format!("{}1 = 1{}", "(".repeat(40), ")".repeat(40));
        let under = |ands: usize| format!("SELECT 1 WHERE 1 AND {deep}{}", " AND 1".repeat(ands));
        assert!(parse_select(&under(20)).is_ok());
        assert!(parse_select(&under(21)).is_err());
    }

    #[test]
    fn count_star_and_distinct_arg() {
        let s = parse_select("SELECT COUNT(*), COUNT(DISTINCT a) FROM t").unwrap();
        match &s.core.items[0] {
            SelectItem::Expr { expr: Expr::Function { name, args, .. }, .. } => {
                assert_eq!(name, "count");
                assert_eq!(args[0], Expr::Wildcard);
            }
            _ => panic!(),
        }
        match &s.core.items[1] {
            SelectItem::Expr { expr: Expr::Function { distinct, .. }, .. } => assert!(distinct),
            _ => panic!(),
        }
    }

    /// A FROM sub-select needs no alias, and no clause keyword after it is
    /// taken for one. Followed by WHERE, GROUP BY, ORDER BY, JOIN, a comma,
    /// LIMIT or the end of the statement, each answers the rows of its
    /// aliased form, and the rows SQLite 3.51.2 answers (`sqlite3 -json`
    /// over the same script), written out here.
    #[test]
    fn a_from_sub_select_needs_no_alias() {
        use crate::value::Value::{Int, Text};
        let mut db = crate::db::Database::new("subselects");
        db.execute_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, grp INTEGER);
             INSERT INTO t VALUES (1, 'ann', 1), (2, 'bob', 1), (3, 'cal', 2);",
        )
        .unwrap();
        let text = |s: &str| Text(s.into());
        let cases: Vec<(&str, &str, Vec<Vec<Value>>)> = vec![
            (
                "SELECT x FROM (SELECT 1 AS x) WHERE x = 1",
                "SELECT x FROM (SELECT 1 AS x) AS s WHERE x = 1",
                vec![vec![Int(1)]],
            ),
            (
                "SELECT x FROM (SELECT id AS x, grp FROM t) WHERE x > 1",
                "SELECT x FROM (SELECT id AS x, grp FROM t) s WHERE x > 1",
                vec![vec![Int(2)], vec![Int(3)]],
            ),
            (
                "SELECT grp, COUNT(*) FROM (SELECT id, grp FROM t) GROUP BY grp",
                "SELECT grp, COUNT(*) FROM (SELECT id, grp FROM t) AS s GROUP BY grp",
                vec![vec![Int(1), Int(2)], vec![Int(2), Int(1)]],
            ),
            (
                "SELECT name FROM (SELECT name, id FROM t) ORDER BY id DESC",
                "SELECT name FROM (SELECT name, id FROM t) AS s ORDER BY id DESC",
                vec![vec![text("cal")], vec![text("bob")], vec![text("ann")]],
            ),
            (
                "SELECT n, t.name FROM (SELECT id AS k, name AS n FROM t WHERE id < 3) JOIN t ON t.id = k",
                "SELECT n, t.name FROM (SELECT id AS k, name AS n FROM t WHERE id < 3) AS s JOIN t ON t.id = k",
                vec![vec![text("ann"), text("ann")], vec![text("bob"), text("bob")]],
            ),
            (
                "SELECT n, t.grp FROM (SELECT name AS n FROM t WHERE id = 2), t WHERE t.id = 3",
                "SELECT n, t.grp FROM (SELECT name AS n FROM t WHERE id = 2) AS s, t WHERE t.id = 3",
                vec![vec![text("bob"), Int(2)]],
            ),
            (
                "SELECT id FROM (SELECT id FROM t) LIMIT 2",
                "SELECT id FROM (SELECT id FROM t) AS s LIMIT 2",
                vec![vec![Int(1)], vec![Int(2)]],
            ),
            (
                "SELECT COUNT(*) FROM (SELECT id FROM t WHERE grp = 1)",
                "SELECT COUNT(*) FROM (SELECT id FROM t WHERE grp = 1) AS s",
                vec![vec![Int(2)]],
            ),
        ];
        for (bare, aliased, sqlite) in cases {
            let rows = db.query(bare).unwrap_or_else(|e| panic!("{bare}: {e}")).rows;
            assert_eq!(rows, db.query(aliased).unwrap().rows, "{bare}");
            assert_eq!(rows, sqlite, "{bare}");
            // printed back, it is the statement it was
            let stmt = parse_select(bare).unwrap();
            assert_eq!(parse_select(&crate::printer::print_select(&stmt)).unwrap(), stmt, "{bare}");
        }
    }
}
