//! Scalar SQL functions with SQLite semantics.
//!
//! The set covers everything BIRD gold SQL leans on: string functions,
//! numeric functions, `strftime` over ISO-8601 text dates, `IIF`,
//! `COALESCE`, and multi-argument scalar `MIN`/`MAX` — and the per-value
//! kernels of the operators (unary, binary, CAST, LIKE) every evaluator
//! applies.

use crate::ast::{BinOp, TypeName, UnaryOp};
use crate::error::{SqlError, SqlResult};
use crate::value::Value;
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::fmt::Write as _;

/// Evaluate a scalar function over already-evaluated arguments.
pub fn call_scalar(name: &str, args: &[Value]) -> SqlResult<Value> {
    scalar(name, args)
}

/// [`call_scalar`] over arguments owned or borrowed.
pub(crate) fn scalar<V: Borrow<Value>>(name: &str, args: &[V]) -> SqlResult<Value> {
    let arg = |i: usize| args[i].borrow();
    match name {
        "abs" => {
            let [v] = one(name, args)?;
            Ok(match v {
                Value::Null => Value::Null,
                Value::Int(i) => match i.checked_abs() {
                    Some(a) => Value::Int(a),
                    None => return Err(SqlError::Other("integer overflow".into())),
                },
                other => match other.as_f64() {
                    Some(f) => Value::Real(f.abs()),
                    None => Value::Real(0.0),
                },
            })
        }
        "round" => {
            if args.is_empty() || args.len() > 2 {
                return Err(arity(name, "1 or 2", args.len()));
            }
            if arg(0).is_null() {
                return Ok(Value::Null);
            }
            let x = arg(0).as_f64_lossy().unwrap_or(0.0);
            let digits = args.get(1).and_then(|v| v.borrow().as_i64()).unwrap_or(0).clamp(-15, 15);
            let factor = 10f64.powi(digits as i32);
            Ok(Value::Real((x * factor).round() / factor))
        }
        "length" => {
            let [v] = one(name, args)?;
            Ok(match v {
                Value::Null => Value::Null,
                other => Value::Int(other.as_str().map_or(0, |s| s.chars().count()) as i64),
            })
        }
        // SQLite's built-ins fold ASCII letters only
        "upper" => map_text(name, args, str::to_ascii_uppercase),
        "lower" => map_text(name, args, str::to_ascii_lowercase),
        "trim" => map_text(name, args, |s| s.trim().to_owned()),
        "ltrim" => map_text(name, args, |s| s.trim_start().to_owned()),
        "rtrim" => map_text(name, args, |s| s.trim_end().to_owned()),
        "substr" | "substring" => substr(name, args),
        "instr" => {
            let [a, b] = two(name, args)?;
            match (a.as_str(), b.as_str()) {
                (Some(hay), Some(needle)) => {
                    let idx = hay.find(&*needle).map(|i| hay[..i].chars().count() as i64 + 1);
                    Ok(Value::Int(idx.unwrap_or(0)))
                }
                _ => Ok(Value::Null),
            }
        }
        "replace" => {
            if args.len() != 3 {
                return Err(arity(name, "3", args.len()));
            }
            match (arg(0).as_str(), arg(1).as_str(), arg(2).as_str()) {
                (Some(s), Some(from), Some(to)) if !from.is_empty() => {
                    Ok(Value::text(s.replace(&*from, &to)))
                }
                (Some(s), Some(_), Some(_)) => Ok(Value::text(s)),
                _ => Ok(Value::Null),
            }
        }
        "coalesce" => {
            for v in args {
                if !v.borrow().is_null() {
                    return Ok(v.borrow().clone());
                }
            }
            Ok(Value::Null)
        }
        "ifnull" => {
            let [a, b] = two(name, args)?;
            Ok(if a.is_null() { b.clone() } else { a.clone() })
        }
        "nullif" => {
            let [a, b] = two(name, args)?;
            match a.sql_eq(b) {
                Some(true) => Ok(Value::Null),
                _ => Ok(a.clone()),
            }
        }
        "iif" => {
            if args.len() != 3 {
                return Err(arity(name, "3", args.len()));
            }
            Ok(if arg(0).truthiness() == Some(true) { arg(1).clone() } else { arg(2).clone() })
        }
        // scalar (multi-argument) MIN/MAX; the aggregate forms are handled
        // by the executor before reaching here
        "min" | "max" => {
            if args.len() < 2 {
                return Err(SqlError::MisusedAggregate(format!(
                    "{name}() with one argument is an aggregate"
                )));
            }
            if args.iter().any(|v| v.borrow().is_null()) {
                return Ok(Value::Null);
            }
            let mut best = arg(0);
            for v in &args[1..] {
                let v = v.borrow();
                let take = if name == "min" {
                    v.sql_cmp(best) == Ordering::Less
                } else {
                    v.sql_cmp(best) == Ordering::Greater
                };
                if take {
                    best = v;
                }
            }
            Ok(best.clone())
        }
        "typeof" => {
            let [v] = one(name, args)?;
            Ok(Value::text(match v {
                Value::Null => "null",
                Value::Int(_) => "integer",
                Value::Real(_) => "real",
                Value::Text(_) => "text",
            }))
        }
        "strftime" => strftime(args),
        "date" => {
            let [v] = one(name, args)?;
            match v.as_str().and_then(|s| parse_date(&s)) {
                Some((y, m, d, ..)) => Ok(Value::text(format!("{y:04}-{m:02}-{d:02}"))),
                None => Ok(Value::Null),
            }
        }
        other => Err(SqlError::BadFunction(format!("no such function: {other}"))),
    }
}

/// Scalar functions the engine knows, as `(min_args, max_args)` — the
/// arities [`call_scalar`] accepts.
pub(crate) fn scalar_arity(name: &str) -> Option<(usize, usize)> {
    Some(match name {
        "abs" | "length" | "upper" | "lower" | "trim" | "ltrim" | "rtrim" | "typeof" | "date" => {
            (1, 1)
        }
        "round" => (1, 2),
        "substr" | "substring" => (2, 3),
        "instr" | "ifnull" | "nullif" | "strftime" => (2, 2),
        "replace" | "iif" => (3, 3),
        "coalesce" => (0, usize::MAX),
        "min" | "max" => (2, usize::MAX), // 0..=1 args routes to the aggregate
        _ => return None,
    })
}

/// Every function name the engine accepts, scalar and aggregate.
pub const KNOWN_FUNCTIONS: &[&str] = &[
    "abs", "avg", "coalesce", "count", "date", "group_concat", "ifnull", "iif", "instr", "length",
    "lower", "ltrim", "max", "min", "nullif", "replace", "round", "rtrim", "strftime", "substr",
    "substring", "sum", "total", "trim", "typeof", "upper",
];

/// Is this name an aggregate function (single-argument MIN/MAX included)?
pub fn is_aggregate_name(name: &str, arg_count: usize) -> bool {
    matches!(name, "count" | "sum" | "avg" | "total" | "group_concat")
        || (matches!(name, "min" | "max") && arg_count <= 1)
}

fn one<'a, V: Borrow<Value>>(name: &str, args: &'a [V]) -> SqlResult<[&'a Value; 1]> {
    match args {
        [a] => Ok([a.borrow()]),
        _ => Err(arity(name, "1", args.len())),
    }
}

fn two<'a, V: Borrow<Value>>(name: &str, args: &'a [V]) -> SqlResult<[&'a Value; 2]> {
    match args {
        [a, b] => Ok([a.borrow(), b.borrow()]),
        _ => Err(arity(name, "2", args.len())),
    }
}

fn arity(name: &str, want: &str, got: usize) -> SqlError {
    SqlError::BadFunction(format!("{name}() expects {want} argument(s), got {got}"))
}

fn map_text<V: Borrow<Value>>(
    name: &str,
    args: &[V],
    f: impl Fn(&str) -> String,
) -> SqlResult<Value> {
    let [v] = one(name, args)?;
    Ok(match v.as_str() {
        Some(s) => Value::text(f(&s)),
        None => Value::Null,
    })
}

/// SQLite's `substrFunc`, in characters: a NULL argument gives NULL, the
/// start and length are read as integers (a REAL truncated, TEXT by its
/// numeric prefix), start 0 uses up one unit of the length, a negative
/// start counts from the end (before the first character it shortens the
/// length), and a negative length takes the characters before the start.
fn substr<V: Borrow<Value>>(name: &str, args: &[V]) -> SqlResult<Value> {
    if args.len() < 2 || args.len() > 3 {
        return Err(arity(name, "2 or 3", args.len()));
    }
    let integer = |v: &V| match cast_value(v.borrow(), TypeName::Integer) {
        Value::Int(i) => Some(i),
        _ => None,
    };
    let length = match args.get(2) {
        Some(v) => match integer(v) {
            Some(l) => Some(l),
            None => return Ok(Value::Null),
        },
        None => None,
    };
    let (Some(s), Some(mut start)) = (args[0].borrow().as_str(), integer(&args[1])) else {
        return Ok(Value::Null);
    };
    let back = length.is_some_and(|l| l < 0);
    let mut len = length.map_or(i64::MAX, i64::saturating_abs);
    if start < 0 {
        start = start.saturating_add(s.chars().count() as i64);
        if start < 0 {
            len = (len + start).max(0);
            start = 0;
        }
    } else if start > 0 {
        start -= 1;
    } else if len > 0 {
        len -= 1;
    }
    if back {
        start -= len;
        if start < 0 {
            len += start;
            start = 0;
        }
    }
    let count = |n: i64| usize::try_from(n).unwrap_or(usize::MAX);
    Ok(Value::text(s.chars().skip(count(start)).take(count(len)).collect::<String>()))
}

/// Parse `YYYY-MM-DD[ HH:MM:SS]` text dates.
pub fn parse_date(s: &str) -> Option<(i32, u32, u32, u32, u32, u32)> {
    let s = s.trim();
    let (date_part, time_part) = match s.split_once(' ') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut it = date_part.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    let (mut hh, mut mm, mut ss) = (0u32, 0u32, 0u32);
    if let Some(t) = time_part {
        let mut parts = t.split(':');
        hh = parts.next()?.parse().ok()?;
        mm = parts.next().unwrap_or("0").parse().ok()?;
        ss = parts.next().unwrap_or("0").parse().ok()?;
    }
    Some((y, m, d, hh, mm, ss))
}

fn strftime<V: Borrow<Value>>(args: &[V]) -> SqlResult<Value> {
    let [fmt, date] = match args {
        [fmt, date] => [fmt.borrow(), date.borrow()],
        _ => return Err(arity("strftime", "2", args.len())),
    };
    let fmt = match fmt.as_str() {
        Some(f) => f,
        None => return Ok(Value::Null),
    };
    let date = match date.as_str().and_then(|s| parse_date(&s)) {
        Some(d) => d,
        None => return Ok(Value::Null),
    };
    let (y, m, d, hh, mm, ss) = date;
    let mut out = String::with_capacity(fmt.len());
    let mut chars = fmt.chars().peekable();
    // writing into a `String` cannot fail
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let _ = match chars.next() {
            Some('Y') => write!(out, "{y:04}"),
            Some('m') => write!(out, "{m:02}"),
            Some('d') => write!(out, "{d:02}"),
            Some('H') => write!(out, "{hh:02}"),
            Some('M') => write!(out, "{mm:02}"),
            Some('S') => write!(out, "{ss:02}"),
            Some('j') => write!(out, "{:03}", day_of_year(y, m, d)),
            Some('w') => write!(out, "{}", day_of_week(y, m, d)),
            Some('%') => write!(out, "%"),
            Some(other) => {
                return Err(SqlError::BadFunction(format!(
                    "strftime: unsupported directive %{other}"
                )))
            }
            None => return Err(SqlError::BadFunction("strftime: trailing %".into())),
        };
    }
    Ok(Value::text(out))
}

fn is_leap(y: i32) -> bool {
    (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
}

fn day_of_year(y: i32, m: u32, d: u32) -> u32 {
    const DAYS: [u32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    let mut total = d;
    for (month, days) in DAYS.iter().enumerate().take((m - 1) as usize) {
        total += days;
        if month == 1 && is_leap(y) {
            total += 1;
        }
    }
    total
}

/// Day of week, 0 = Sunday (Sakamoto's algorithm).
fn day_of_week(y: i32, m: u32, d: u32) -> u32 {
    const T: [i32; 12] = [0, 3, 2, 5, 0, 3, 5, 1, 4, 6, 2, 4];
    let y = if m < 3 { y - 1 } else { y };
    let w = (y + y / 4 - y / 100 + y / 400 + T[(m - 1) as usize] + d as i32) % 7;
    w.rem_euclid(7) as u32
}

// ---------------- operator kernels ----------------

pub(crate) fn apply_unary(op: UnaryOp, v: &Value) -> SqlResult<Value> {
    match op {
        UnaryOp::Neg => Ok(match v {
            Value::Null => Value::Null,
            Value::Int(i) => i.checked_neg().map_or(Value::Real(-(*i as f64)), Value::Int),
            other => match other.as_f64_lossy() {
                Some(f) => Value::Real(-f),
                None => Value::Null,
            },
        }),
        UnaryOp::Not => Ok(match v.truthiness() {
            None => Value::Null,
            Some(b) => Value::Int((!b) as i64),
        }),
    }
}

pub(crate) fn apply_binary(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    match op {
        BinOp::And => Ok(match (l.truthiness(), r.truthiness()) {
            (Some(false), _) | (_, Some(false)) => Value::Int(0),
            (Some(true), Some(true)) => Value::Int(1),
            _ => Value::Null,
        }),
        BinOp::Or => Ok(match (l.truthiness(), r.truthiness()) {
            (Some(true), _) | (_, Some(true)) => Value::Int(1),
            (Some(false), Some(false)) => Value::Int(0),
            _ => Value::Null,
        }),
        BinOp::Eq | BinOp::Ne => Ok(match l.sql_eq(r) {
            None => Value::Null,
            Some(eq) => Value::Int(((op == BinOp::Eq) == eq) as i64),
        }),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l.sql_cmp(r);
            let hit = match op {
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Int(hit as i64))
        }
        BinOp::Concat => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::text(format!("{l}{r}")))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let (l, r) = (arithmetic_operand(l), arithmetic_operand(r));
            let (l, r) = (l.as_ref(), r.as_ref());
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                let res = match op {
                    BinOp::Add => a.checked_add(*b),
                    BinOp::Sub => a.checked_sub(*b),
                    BinOp::Mul => a.checked_mul(*b),
                    _ => unreachable!(),
                };
                if let Some(v) = res {
                    return Ok(Value::Int(v));
                }
            }
            let (a, b) = (l.as_f64_lossy().unwrap_or(0.0), r.as_f64_lossy().unwrap_or(0.0));
            Ok(Value::Real(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                _ => unreachable!(),
            }))
        }
        BinOp::Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let (l, r) = (arithmetic_operand(l), arithmetic_operand(r));
            let (l, r) = (l.as_ref(), r.as_ref());
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                if *b == 0 {
                    return Ok(Value::Null);
                }
                // i64::MIN / -1 overflows, so SQLite answers it in REAL
                if let Some(q) = a.checked_div(*b) {
                    return Ok(Value::Int(q));
                }
            }
            let (a, b) = (l.as_f64_lossy().unwrap_or(0.0), r.as_f64_lossy().unwrap_or(0.0));
            Ok(if b == 0.0 { Value::Null } else { Value::Real(a / b) })
        }
        BinOp::Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let (l, r) = (arithmetic_operand(l), arithmetic_operand(r));
            let (l, r) = (l.as_ref(), r.as_ref());
            // SQLite takes a REAL operand's integer part (saturating) and
            // answers in REAL; `wrapping_rem` is 0 for i64::MIN % -1
            if matches!(l, Value::Real(_)) || matches!(r, Value::Real(_)) {
                let (a, b) = (l.as_f64_lossy().unwrap_or(0.0), r.as_f64_lossy().unwrap_or(0.0));
                let (a, b) = (a as i64, b as i64);
                return Ok(if b == 0 { Value::Null } else { Value::Real(a.wrapping_rem(b) as f64) });
            }
            match (l.as_i64(), r.as_i64()) {
                (Some(a), Some(b)) => {
                    Ok(if b == 0 { Value::Null } else { Value::Int(a.wrapping_rem(b)) })
                }
                _ => Ok(Value::Null),
            }
        }
    }
}

/// An operand of `+ - * / %`: a TEXT one is read as the number its
/// numeric prefix spells (`'12abc'` is INTEGER 12, `'1.5x'` REAL 1.5), as
/// SQLite reads it.
fn arithmetic_operand(v: &Value) -> Cow<'_, Value> {
    match v {
        Value::Text(t) => Cow::Owned(crate::value::text_as_number(t)),
        other => Cow::Borrowed(other),
    }
}

pub(crate) fn cast_value(v: &Value, ty: TypeName) -> Value {
    match ty {
        TypeName::Integer => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(*i),
            Value::Real(r) => Value::Int(*r as i64),
            Value::Text(t) => {
                Value::Int(crate::value::parse_numeric_prefix(t).unwrap_or(0.0) as i64)
            }
        },
        TypeName::Real => match v {
            Value::Null => Value::Null,
            other => Value::Real(other.as_f64_lossy().unwrap_or(0.0)),
        },
        TypeName::Text => match v {
            Value::Null => Value::Null,
            other => Value::text(other.to_string()),
        },
        TypeName::Blob => v.clone(),
    }
}

/// SQL LIKE with `%` and `_`, ASCII case-insensitive as SQLite defaults to.
///
/// Greedy two-pointer matcher: on a mismatch after a `%`, the pattern
/// rewinds to just past the most recent `%` and the text advances one
/// character. Each backtrack strictly advances the text restart point, so
/// the worst case is O(|pattern| × |text|) — unlike the naive recursive
/// formulation, which is exponential on patterns like `'a%a%a%…'`.
pub fn like_match(pattern: &str, text: &str) -> bool {
    // byte offsets of the next character of each side, and the
    // pattern/text resume points for the last `%` seen
    let at = |s: &str, i: usize| s[i..].chars().next();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<usize> = None;
    let mut star_ti = 0usize;
    while let Some(t) = at(text, ti) {
        match at(pattern, pi) {
            Some(p) if p == '_' || (p != '%' && p.eq_ignore_ascii_case(&t)) => {
                pi += p.len_utf8();
                ti += t.len_utf8();
            }
            Some('%') => {
                pi += 1;
                star = Some(pi);
                star_ti = ti;
            }
            _ => match star {
                Some(resume) => {
                    pi = resume;
                    star_ti += at(text, star_ti).map_or(1, char::len_utf8);
                    ti = star_ti;
                }
                None => return false,
            },
        }
    }
    pattern[pi..].bytes().all(|b| b == b'%')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: &[Value]) -> Value {
        call_scalar(name, args).unwrap()
    }

    /// Each expected value is what `sqlite3 -json` 3.51.2 answers.
    #[test]
    fn integer_edges_follow_sqlite() {
        let db = crate::Database::new("edges");
        let one = |sql: &str| db.query(sql).map(|rs| rs.rows[0][0].clone());
        let min = "(-9223372036854775807 - 1)";
        assert_eq!(one(&format!("SELECT {min} / -1")), Ok(Value::Real(9.223372036854776e18)));
        assert_eq!(one(&format!("SELECT {min} % -1")), Ok(Value::Int(0)));
        assert_eq!(one(&format!("SELECT -{min}")), Ok(Value::Real(9.223372036854776e18)));
        assert_eq!(
            one(&format!("SELECT ABS({min})")),
            Err(SqlError::Other("integer overflow".into()))
        );
        assert_eq!(one("SELECT 5.5 % 2"), Ok(Value::Real(1.0)));
        assert_eq!(one("SELECT 7 % 0.5"), Ok(Value::Null));
        // a TEXT operand of `%` is read by its numeric prefix
        assert_eq!(one("SELECT '5.5' % 2"), Ok(Value::Real(1.0)));
        assert_eq!(one("SELECT '12abc' % 5"), Ok(Value::Int(2)));
        assert_eq!(one("SELECT 'abc' % 5"), Ok(Value::Int(0)));
        assert_eq!(one("SELECT 7 % '2.5'"), Ok(Value::Real(1.0)));
        assert_eq!(one("SELECT '1e1' % 3"), Ok(Value::Real(1.0)));
        // and so is one of `+ - * /`
        assert_eq!(one("SELECT '12abc' + 1"), Ok(Value::Int(13)));
        assert_eq!(one("SELECT ' 12' + 1"), Ok(Value::Int(13)));
        assert_eq!(one("SELECT '1.5x' * 2"), Ok(Value::Real(3.0)));
        assert_eq!(one("SELECT '12' / 5"), Ok(Value::Int(2)));
        assert_eq!(one("SELECT 'abc' - 2"), Ok(Value::Int(-2)));
        // integers compare exactly, also past 2^53 where two share an f64
        assert_eq!(one("SELECT 9007199254740993 = 9007199254740992"), Ok(Value::Int(0)));
        assert_eq!(one("SELECT 9007199254740993 > 9007199254740992"), Ok(Value::Int(1)));
        assert_eq!(one("SELECT 9007199254740993 = 9007199254740992.0"), Ok(Value::Int(0)));
        assert_eq!(one("SELECT 9223372036854775807 > 9223372036854775806"), Ok(Value::Int(1)));
        // the literal 2^63 is REAL, and so, still, is its negation (SQLite:
        // INTEGER i64::MIN, and ABS of it `integer overflow`; ROADMAP "SQLite's
        // value rules at the edges")
        assert_eq!(one("SELECT 9223372036854775808"), Ok(Value::Real(9.223372036854776e18)));
        assert_eq!(one("SELECT -9223372036854775808"), Ok(Value::Real(-9.223372036854776e18)));
    }

    /// `SUBSTR`'s argument arithmetic and `UPPER` / `LOWER`'s ASCII-only
    /// folding; each expected value is what `sqlite3 -json` 3.51.2 answers.
    #[test]
    fn text_edges_follow_sqlite() {
        let db = crate::Database::new("edges");
        let one = |sql: &str| db.query(&format!("SELECT {sql}")).unwrap().rows[0][0].clone();
        for (sql, want) in [
            ("SUBSTR('abc',0,2)", Value::text("a")),
            ("SUBSTR('abc',2,-1)", Value::text("a")),
            ("SUBSTR('abc',-5,3)", Value::text("a")),
            ("SUBSTR('abc',3,-5)", Value::text("ab")),
            ("SUBSTR('abc',NULL)", Value::Null),
            ("SUBSTR('abc',2,NULL)", Value::Null),
            ("SUBSTR('abc',2.9)", Value::text("bc")),
            // these three agreed before the port
            ("SUBSTR('abc',0)", Value::text("abc")),
            ("SUBSTR('abc',-1)", Value::text("c")),
            ("SUBSTR('abcdef',-2,5)", Value::text("ef")),
            // the clamps at the ends of the integers
            ("SUBSTR('abc',-10,3)", Value::text("")),
            ("SUBSTR('abc',0,-5)", Value::text("")),
            ("SUBSTR('abc',5,-3)", Value::text("bc")),
            ("SUBSTR('abc',9223372036854775807)", Value::text("")),
            ("SUBSTR('abc',1,-9223372036854775807 - 1)", Value::text("")),
            ("SUBSTR('abc',2,1e30)", Value::text("bc")),
            ("SUBSTR('abc','2x')", Value::text("bc")),
            ("SUBSTR(12345,2,2)", Value::text("23")),
            ("SUBSTR('héllo',2,2)", Value::text("él")),
            ("UPPER('straße é')", Value::text("STRAßE é")),
            ("LOWER('ÉCOLE')", Value::text("École")),
        ] {
            assert_eq!(one(sql), want, "{sql}");
        }
    }

    #[test]
    fn string_functions() {
        assert_eq!(call("upper", &[Value::text("ab")]), Value::text("AB"));
        assert_eq!(call("length", &[Value::text("héllo")]), Value::Int(5));
        assert_eq!(call("substr", &[Value::text("hello"), Value::Int(2), Value::Int(3)]), Value::text("ell"));
        assert_eq!(call("substr", &[Value::text("hello"), Value::Int(-3)]), Value::text("llo"));
        assert_eq!(call("instr", &[Value::text("hello"), Value::text("ll")]), Value::Int(3));
        assert_eq!(call("instr", &[Value::text("hello"), Value::text("z")]), Value::Int(0));
        assert_eq!(
            call("replace", &[Value::text("a-b-c"), Value::text("-"), Value::text("+")]),
            Value::text("a+b+c")
        );
        assert_eq!(call("trim", &[Value::text("  x ")]), Value::text("x"));
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(call("abs", &[Value::Int(-3)]), Value::Int(3));
        assert_eq!(call("round", &[Value::Real(2.567), Value::Int(2)]), Value::Real(2.57));
        assert_eq!(call("round", &[Value::Real(2.5)]), Value::Real(3.0));
    }

    #[test]
    fn null_handling() {
        assert_eq!(call("upper", &[Value::Null]), Value::Null);
        assert_eq!(call("coalesce", &[Value::Null, Value::Int(2), Value::Int(3)]), Value::Int(2));
        assert_eq!(call("ifnull", &[Value::Null, Value::text("x")]), Value::text("x"));
        assert_eq!(call("nullif", &[Value::Int(1), Value::Int(1)]), Value::Null);
        assert_eq!(call("nullif", &[Value::Int(1), Value::Int(2)]), Value::Int(1));
    }

    #[test]
    fn iif_and_scalar_minmax() {
        assert_eq!(
            call("iif", &[Value::Int(1), Value::text("y"), Value::text("n")]),
            Value::text("y")
        );
        assert_eq!(call("min", &[Value::Int(3), Value::Int(1), Value::Int(2)]), Value::Int(1));
        assert_eq!(call("max", &[Value::Int(3), Value::Real(3.5)]), Value::Real(3.5));
        assert!(call_scalar("min", &[Value::Int(1)]).is_err());
    }

    #[test]
    fn strftime_formats() {
        let d = Value::text("1994-07-15 08:30:05");
        assert_eq!(call("strftime", &[Value::text("%Y"), d.clone()]), Value::text("1994"));
        assert_eq!(call("strftime", &[Value::text("%Y-%m"), d.clone()]), Value::text("1994-07"));
        assert_eq!(call("strftime", &[Value::text("%d %H:%M:%S"), d.clone()]), Value::text("15 08:30:05"));
        assert_eq!(call("strftime", &[Value::text("%j"), Value::text("2000-03-01")]), Value::text("061"));
        // 2024-01-01 was a Monday
        assert_eq!(call("strftime", &[Value::text("%w"), Value::text("2024-01-01")]), Value::text("1"));
        assert_eq!(call("strftime", &[Value::text("%Y"), Value::text("garbage")]), Value::Null);
    }

    #[test]
    fn date_truncates_time() {
        assert_eq!(call("date", &[Value::text("1994-07-15 08:30:05")]), Value::text("1994-07-15"));
    }

    #[test]
    fn unknown_function_errors() {
        assert!(matches!(call_scalar("frobnicate", &[]), Err(SqlError::BadFunction(_))));
    }

    /// The arity table is the engine's: over every listed name and 0..=4
    /// NULL arguments, `call_scalar` raises the analyzer's E0207 sentence
    /// exactly where the table puts the count out of range, and `no such
    /// function` exactly for names the list lacks. Aggregate calls —
    /// one-argument `min` / `max` included — never reach `call_scalar`.
    #[test]
    fn arity_table_matches_call_scalar() {
        let unlisted = ["lenght", "concat", "now", "sqrt", "frobnicate"];
        for name in KNOWN_FUNCTIONS.iter().chain(&unlisted) {
            let listed = KNOWN_FUNCTIONS.contains(name);
            for n in (0..=4).filter(|&n| !is_aggregate_name(name, n)) {
                let out = call_scalar(name, &vec![Value::Null; n]);
                let Some((lo, hi)) = scalar_arity(name) else {
                    assert!(!listed, "{name} is listed without an arity");
                    let want = format!("no such function: {name}");
                    assert_eq!(out, Err(SqlError::BadFunction(want)));
                    continue;
                };
                assert!(listed, "{name} has an arity but is not listed");
                if (lo..=hi).contains(&n) {
                    assert!(out.is_ok(), "{name} with {n} argument(s): {out:?}");
                } else {
                    let want = if lo == hi { lo.to_string() } else { format!("{lo} or {hi}") };
                    let sentence = format!("{name}() expects {want} argument(s), got {n}");
                    assert_eq!(out, Err(SqlError::BadFunction(sentence)));
                }
            }
        }
    }

    #[test]
    fn aggregate_name_detection() {
        assert!(is_aggregate_name("count", 1));
        assert!(is_aggregate_name("min", 1));
        assert!(!is_aggregate_name("min", 2));
        assert!(!is_aggregate_name("upper", 1));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("%ll%", "hello"));
        assert!(like_match("h_llo", "hello"));
        assert!(like_match("HELLO", "hello"));
        assert!(!like_match("h_llo", "heello"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
        assert!(like_match("%_llo", "hello"));
        assert!(like_match("a%b%c", "axxbyybzzc"));
        assert!(!like_match("a%b%c", "axxbyyb"));
    }

    /// The matcher `like_match` replaced, over collected characters: the
    /// oracle the walking matcher must agree with.
    fn like_match_chars(pattern: &str, text: &str) -> bool {
        let p: Vec<char> = pattern.chars().collect();
        let t: Vec<char> = text.chars().collect();
        let (mut pi, mut ti) = (0usize, 0usize);
        let mut star: Option<usize> = None;
        let mut star_ti = 0usize;
        while ti < t.len() {
            if pi < p.len()
                && (p[pi] == '_' || (p[pi] != '%' && p[pi].eq_ignore_ascii_case(&t[ti])))
            {
                pi += 1;
                ti += 1;
            } else if pi < p.len() && p[pi] == '%' {
                star = Some(pi + 1);
                star_ti = ti;
                pi += 1;
            } else if let Some(resume) = star {
                pi = resume;
                star_ti += 1;
                ti = star_ti;
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == '%' {
            pi += 1;
        }
        pi == p.len()
    }

    /// Patterns and texts over `%`, `_`, ASCII letters of both cases and
    /// characters of two, three and four UTF-8 bytes.
    const LIKE_ALPHABET: [char; 10] = ['%', '_', 'a', 'A', 'b', 'é', 'É', 'ß', '中', '🦀'];

    fn like_string(picks: &[u32]) -> String {
        picks.iter().map(|&i| LIKE_ALPHABET[i as usize % LIKE_ALPHABET.len()]).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4000))]

        #[test]
        fn like_match_agrees_with_the_collected_character_matcher(
            pattern in proptest::collection::vec(0u32..10, 0..9),
            text in proptest::collection::vec(0u32..10, 0..12),
        ) {
            let (pattern, text) = (like_string(&pattern), like_string(&text));
            // `%` and `_` in the text are ordinary characters
            let want = like_match_chars(&pattern, &text);
            assert_eq!(like_match(&pattern, &text), want, "{pattern:?} LIKE {text:?}");
            let text = text.replace('%', "a").replace('_', "é");
            let want = like_match_chars(&pattern, &text);
            assert_eq!(like_match(&pattern, &text), want, "{pattern:?} LIKE {text:?}");
        }
    }

    #[test]
    fn like_pathological_pattern_is_fast() {
        // 'a%a%a%…a' against 'aaaa…b' is exponential for a naive recursive
        // matcher; the two-pointer matcher finishes instantly.
        let pattern = "a%".repeat(30) + "a";
        let text = "a".repeat(120) + "b";
        let started = std::time::Instant::now();
        assert!(!like_match(&pattern, &text));
        assert!(like_match(&pattern, &"a".repeat(120)));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "pathological LIKE took {:?}",
            started.elapsed()
        );
    }
}
