//! Dynamically-typed SQL values with SQLite-flavoured semantics.
//!
//! SQLite orders values by *storage class* first (NULL < numbers < text),
//! compares integers and reals numerically, and coerces text to numbers in
//! arithmetic contexts. The BIRD evaluation compares result sets in Python,
//! where `1 == 1.0`; [`Value::normalized`] reproduces that equivalence for
//! grouping keys and execution-accuracy checks.

use serde::{Deserialize, Serialize};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single SQL value.
///
/// The derived `PartialEq` is *structural* (used for AST equality and
/// tests); SQL comparison semantics live in [`Value::sql_eq`] /
/// [`Value::sql_cmp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// Text value from anything string-like.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// True iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQLite three-valued logic truthiness: NULL stays unknown, numbers are
    /// true iff non-zero, text is coerced to a number first (non-numeric
    /// text is false).
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(*i != 0),
            Value::Real(r) => Some(*r != 0.0),
            Value::Text(t) => Some(parse_numeric_prefix(t).map(|n| n != 0.0).unwrap_or(false)),
        }
    }

    /// Numeric view used by arithmetic and numeric comparisons. Text is
    /// coerced through its numeric prefix as SQLite does; non-numeric text
    /// coerces to 0 only in arithmetic (`as_f64_lossy`), not here.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            Value::Text(t) => parse_numeric_prefix(t),
        }
    }

    /// Arithmetic coercion: like [`Value::as_f64`] but non-numeric text
    /// becomes `0.0`, matching SQLite's CAST-to-NUMERIC behaviour.
    pub fn as_f64_lossy(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Text(t) => Some(parse_numeric_prefix(t).unwrap_or(0.0)),
            other => other.as_f64(),
        }
    }

    /// Integer view when the value is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Real(r) if r.fract() == 0.0 && r.is_finite() => Some(*r as i64),
            Value::Text(t) => t.trim().parse::<i64>().ok(),
            _ => None,
        }
    }

    /// Text view (numbers rendered the way SQLite prints them).
    pub fn as_text(&self) -> Option<String> {
        self.as_str().map(Cow::into_owned)
    }

    /// Borrowed [`Value::as_text`]: text is read in place, only a number
    /// is rendered into a new string.
    pub(crate) fn as_str(&self) -> Option<Cow<'_, str>> {
        match self {
            Value::Null => None,
            Value::Text(t) => Some(Cow::Borrowed(t)),
            other => Some(Cow::Owned(other.to_string())),
        }
    }

    /// Storage-class rank used for cross-type ordering: NULL < numeric < text.
    fn class_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Real(_) => 1,
            Value::Text(_) => 2,
        }
    }

    /// Total ordering following SQLite collation rules: NULLs first, then
    /// numerics compared by their exact values, then text compared
    /// bytewise. Two INTEGERs compare as `i64`, and an INTEGER with a REAL
    /// as SQLite's `sqlite3IntFloatCompare` does, so integers past 2^53
    /// that share an `f64` stay apart. A `NaN` (which SQLite never
    /// stores) compares equal to every number.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.class_rank(), other.class_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Int(i), Value::Real(r)) => int_real_cmp(*i, *r),
            (Value::Real(r), Value::Int(i)) => int_real_cmp(*i, *r).reverse(),
            (Value::Real(x), Value::Real(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            _ => Ordering::Equal,
        }
    }

    /// SQL `=` comparison with three-valued logic: NULL = anything is NULL.
    /// Numbers compare numerically across Int/Real; numeric-looking text
    /// does **not** equal a number (storage classes differ), matching
    /// SQLite's comparison affinity for untyped expressions.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.sql_cmp(other) == Ordering::Equal)
    }

    /// A hashable, equality-normalised key for grouping, DISTINCT, and
    /// result-set comparison. Integral reals collapse to Int so that
    /// `1 == 1.0` as in BIRD's Python-based scorer.
    pub fn normalized(&self) -> NormValue {
        match self {
            Value::Null => NormValue::Null,
            Value::Int(i) => NormValue::Int(*i),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 9.0e15 {
                    NormValue::Int(*r as i64)
                } else {
                    NormValue::Real(r.to_bits())
                }
            }
            Value::Text(t) => NormValue::Text(t.clone()),
        }
    }

    /// Borrowed view of [`Value::normalized`]: same equality classes and
    /// hash, but text borrows instead of cloning. Join build/probe paths
    /// key their hash tables by this so no per-row `String` is allocated.
    pub(crate) fn normalized_ref(&self) -> NormRef<'_> {
        match self {
            Value::Null => NormRef::Null,
            Value::Int(i) => NormRef::Int(*i),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 9.0e15 {
                    NormRef::Int(*r as i64)
                } else {
                    NormRef::Real(r.to_bits())
                }
            }
            Value::Text(t) => NormRef::Text(t),
        }
    }
}

/// Borrowed counterpart of [`NormValue`] (see [`Value::normalized_ref`]).
/// Equality and hashing agree with `NormValue`'s: two values have equal
/// `NormRef`s iff they have equal `NormValue`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum NormRef<'a> {
    Null,
    Int(i64),
    Real(u64),
    Text(&'a str),
}

/// A row of values hashed and compared by their normal form, borrowed:
/// two keys are equal iff their rows of [`NormValue`]s are, so a
/// `HashSet<NormKey>` deduplicates or groups rows as one of
/// `Vec<NormValue>` does, without copying a value.
pub(crate) struct NormKey<'a, V>(pub(crate) &'a [V]);

impl<V: Borrow<Value>> Hash for NormKey<'_, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in self.0 {
            v.borrow().normalized_ref().hash(state);
        }
    }
}

impl<V: Borrow<Value>> PartialEq for NormKey<'_, V> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0)
                .all(|(a, b)| a.borrow().normalized_ref() == b.borrow().normalized_ref())
    }
}

impl<V: Borrow<Value>> Eq for NormKey<'_, V> {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.is_finite() && r.abs() < 1.0e15 {
                    write!(f, "{:.1}", r)
                } else {
                    write!(f, "{r}")
                }
            }
            Value::Text(t) => write!(f, "{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// Hashable normal form of a [`Value`]; see [`Value::normalized`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NormValue {
    /// NULL.
    Null,
    /// Integer (also holds integral reals).
    Int(i64),
    /// Non-integral real, stored as IEEE bits.
    Real(u64),
    /// Text.
    Text(String),
}

/// Parse the leading numeric prefix of a string as SQLite coercion does.
/// Returns `None` when the string has no numeric prefix at all.
pub(crate) fn parse_numeric_prefix(s: &str) -> Option<f64> {
    numeric_prefix(s)?.parse::<f64>().ok()
}

/// An INTEGER against a REAL, exactly: the REAL's integer part as an
/// `i64` decides, and only when it equals the INTEGER do the two compare
/// as `f64` (where the INTEGER is then exact), as SQLite's
/// `sqlite3IntFloatCompare` does without long doubles.
fn int_real_cmp(i: i64, r: f64) -> Ordering {
    if r.is_nan() {
        return Ordering::Equal;
    }
    // 2^63: every REAL from here up is above every INTEGER
    let bound = -(i64::MIN as f64);
    if r < -bound {
        return Ordering::Greater;
    }
    if r >= bound {
        return Ordering::Less;
    }
    i.cmp(&(r as i64)).then_with(|| (i as f64).partial_cmp(&r).unwrap_or(Ordering::Equal))
}

/// The number a TEXT operand of arithmetic stands for, as SQLite reads it:
/// its numeric prefix as an INTEGER when that is a whole number that fits,
/// as a REAL otherwise, and INTEGER 0 when there is no prefix.
pub(crate) fn text_as_number(s: &str) -> Value {
    match numeric_prefix(s) {
        None => Value::Int(0),
        Some(prefix) => match prefix.parse::<i64>() {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Real(prefix.parse::<f64>().unwrap_or(0.0)),
        },
    }
}

/// The leading numeric prefix of a string, sign and exponent included.
fn numeric_prefix(s: &str) -> Option<&str> {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0usize;
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while end < bytes.len() {
        let c = bytes[end] as char;
        match c {
            '+' | '-' if end == 0 || (seen_exp && matches!(bytes[end - 1] as char, 'e' | 'E')) => {}
            '0'..='9' => seen_digit = true,
            '.' if !seen_dot && !seen_exp => seen_dot = true,
            'e' | 'E' if seen_digit && !seen_exp => seen_exp = true,
            _ => break,
        }
        end += 1;
    }
    if !seen_digit {
        return None;
    }
    // Trim a trailing exponent marker without digits ("1e" -> "1").
    let mut slice = &t[..end];
    while slice.ends_with(['e', 'E', '+', '-']) {
        slice = &slice[..slice.len() - 1];
    }
    Some(slice)
}

/// A row of values.
pub type Row = Vec<Value>;

/// A fully materialised result set: column labels plus rows.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Output column labels, in SELECT order.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// True when the query returned no rows, or only NULLs (the paper's
    /// Refinement stage treats both as a `Result: None` signal).
    pub fn is_effectively_empty(&self) -> bool {
        self.rows.is_empty()
            || self
                .rows
                .iter()
                .all(|r| r.iter().all(Value::is_null))
    }

    /// Multiset of normalised rows, the comparison BIRD's scorer performs
    /// (order-insensitive, duplicate-sensitive via sorting).
    pub fn normalized_rows(&self) -> Vec<Vec<NormValue>> {
        let mut rows: Vec<Vec<NormValue>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::normalized).collect())
            .collect();
        rows.sort();
        rows
    }

    /// Execution-accuracy equivalence: identical multisets of rows.
    pub fn same_answer(&self, other: &ResultSet) -> bool {
        self.normalized_rows() == other.normalized_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_ranks_classes() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Int(5).sql_cmp(&Value::text("a")), Ordering::Less);
        assert_eq!(Value::Int(2).sql_cmp(&Value::Real(1.5)), Ordering::Greater);
        assert_eq!(Value::text("a").sql_cmp(&Value::text("b")), Ordering::Less);
    }

    /// Numbers compare by their exact values; each expectation is what
    /// `sqlite3` 3.51.2 answers for the same comparison.
    #[test]
    fn numbers_compare_exactly() {
        use Ordering::{Equal, Greater, Less};
        let (int, real) = (Value::Int, Value::Real);
        let two53 = 1i64 << 53;
        for (a, b, want) in [
            (int(two53 + 1), int(two53), Greater),
            (int(i64::MAX), int(i64::MAX - 1), Greater),
            (int(two53 + 1), real(two53 as f64), Greater),
            (int(two53 + 1), real((two53 + 2) as f64), Less),
            (int(i64::MAX), real(-(i64::MIN as f64)), Less),
            (int(i64::MIN), real(i64::MIN as f64), Equal),
            (int(i64::MAX), real(1e300), Less),
            (int(i64::MIN), real(-1e300), Greater),
            (int(3), real(3.5), Less),
            (int(-3), real(-3.5), Greater),
            (int(2), real(2.0), Equal),
            (int(0), real(-0.0), Equal),
        ] {
            assert_eq!(a.sql_cmp(&b), want, "{a:?} vs {b:?}");
            assert_eq!(b.sql_cmp(&a), want.reverse(), "{b:?} vs {a:?}");
        }
    }

    #[test]
    fn eq_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Real(1.0)), Some(true));
        assert_eq!(Value::text("1").sql_eq(&Value::Int(1)), Some(false));
        assert_eq!(Value::text("ab").sql_eq(&Value::text("ab")), Some(true));
    }

    #[test]
    fn numeric_prefix_parsing() {
        assert_eq!(parse_numeric_prefix("12abc"), Some(12.0));
        assert_eq!(parse_numeric_prefix("  -3.5x"), Some(-3.5));
        assert_eq!(parse_numeric_prefix("1e3"), Some(1000.0));
        assert_eq!(parse_numeric_prefix("1e"), Some(1.0));
        assert_eq!(parse_numeric_prefix("abc"), None);
        assert_eq!(parse_numeric_prefix(""), None);
        assert_eq!(text_as_number(" 12abc"), Value::Int(12));
        assert_eq!(text_as_number("5.5"), Value::Real(5.5));
        assert_eq!(text_as_number("1e1"), Value::Real(10.0));
        assert_eq!(text_as_number("abc"), Value::Int(0));
        assert_eq!(text_as_number("9223372036854775808"), Value::Real(9.223372036854776e18));
    }

    #[test]
    fn normalization_collapses_integral_reals() {
        assert_eq!(Value::Real(3.0).normalized(), Value::Int(3).normalized());
        assert_ne!(Value::Real(3.5).normalized(), Value::Int(3).normalized());
        assert_ne!(Value::text("3").normalized(), Value::Int(3).normalized());
    }

    #[test]
    fn result_set_equivalence_ignores_row_order() {
        let a = ResultSet {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        };
        let b = ResultSet {
            columns: vec!["y".into()],
            rows: vec![vec![Value::Real(2.0)], vec![Value::Int(1)]],
        };
        assert!(a.same_answer(&b));
        let c = ResultSet {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(1)]],
        };
        assert!(!a.same_answer(&c));
    }

    #[test]
    fn effectively_empty() {
        let e = ResultSet { columns: vec!["a".into()], rows: vec![] };
        assert!(e.is_effectively_empty());
        let n = ResultSet {
            columns: vec!["a".into()],
            rows: vec![vec![Value::Null]],
        };
        assert!(n.is_effectively_empty());
        let f = ResultSet {
            columns: vec!["a".into()],
            rows: vec![vec![Value::Int(0)]],
        };
        assert!(!f.is_effectively_empty());
    }

    #[test]
    fn truthiness_follows_sqlite() {
        assert_eq!(Value::Null.truthiness(), None);
        assert_eq!(Value::Int(0).truthiness(), Some(false));
        assert_eq!(Value::text("2x").truthiness(), Some(true));
        assert_eq!(Value::text("x").truthiness(), Some(false));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Real(2.0).to_string(), "2.0");
        assert_eq!(Value::Real(2.5).to_string(), "2.5");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
