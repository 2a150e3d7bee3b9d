//! Scope rules: how the names of a SELECT core become row slots.
//!
//! Every name question the engine asks is answered here, for each of its
//! readers, so they cannot disagree:
//!
//! - the binder (`prepare::Binder`) turns a slot into a `BoundColumn` /
//!   `OuterColumn`, and a failed lookup into an `Unresolved` carrying the
//!   [`SqlError`] it names, which the executor raises if it gets there —
//!   the executor itself reads slots and never asks. Being the analyzer,
//!   the binder also files a failed lookup as E0102 / E0103 with
//!   did-you-mean help;
//! - the planner (`plan`) lays out each core's stages by the same rules;
//! - the test-only reference interpreter (`reference`) asks per row, over
//!   a stack of `(layout, row)` environments.
//!
//! The rules are three jobs. A core's *layout* is one slot per column of
//! each FROM table reference, left to right: a schema table's columns
//! under its alias (or its name as the schema spells it), a FROM-subquery's
//! output labels under its alias ([`push_table`], [`push_labels`]). `*`
//! and `t.*` expand over that layout ([`expand_items`]). A column is looked
//! up innermost scope first, then in each enclosing row ([`lookup`]).

use crate::ast::{Expr, SelectItem};
use crate::error::{SqlError, SqlResult};
use crate::schema::{DbSchema, TableInfo};
use std::borrow::Cow;

/// One slot of a row layout.
#[derive(Debug, Clone)]
pub(crate) struct ColBinding {
    /// The name the slot's table reference is addressed by.
    pub(crate) binding: String,
    pub(crate) column: String,
}

impl ColBinding {
    pub(crate) fn new(binding: impl Into<String>, column: impl Into<String>) -> Self {
        ColBinding { binding: binding.into(), column: column.into() }
    }
}

/// Append the slots of the schema table `name`, read as `alias` (or as the
/// schema spells the name). Returns the table, or `None` (and appends
/// nothing) when the schema has no such table.
pub(crate) fn push_table<'s>(
    layout: &mut Vec<ColBinding>,
    schema: &'s DbSchema,
    name: &str,
    alias: Option<&str>,
) -> Option<&'s TableInfo> {
    let info = schema.table(name)?;
    let binding = alias.unwrap_or(&info.name);
    layout.extend(info.columns.iter().map(|c| ColBinding::new(binding, &*c.name)));
    Some(info)
}

/// Append the slots of a FROM-subquery read as `alias`: its output labels.
pub(crate) fn push_labels(
    layout: &mut Vec<ColBinding>,
    alias: &str,
    labels: impl IntoIterator<Item = String>,
) {
    layout.extend(labels.into_iter().map(|label| ColBinding::new(alias, label)));
}

/// Expand a core's projection list against `layout` into `(expression,
/// label)` pairs: `*` is every slot, `t.*` every slot of `t`, each as a
/// qualified reference labelled by its column. Written expressions are
/// borrowed, never cloned: the sub-select caches of `exec::Ctx` key on
/// node addresses, which must stay those of the statement for as long as
/// it executes.
pub(crate) fn expand_items<'a>(
    items: &'a [SelectItem],
    layout: &[ColBinding],
) -> SqlResult<Vec<(Cow<'a, Expr>, String)>> {
    let slot = |b: &ColBinding| {
        (Cow::Owned(Expr::qcol(b.binding.clone(), b.column.clone())), b.column.clone())
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::Wildcard => {
                if layout.is_empty() {
                    return Err(SqlError::Other("SELECT * with no FROM clause".into()));
                }
                out.extend(layout.iter().map(slot));
            }
            SelectItem::TableWildcard(t) => {
                let before = out.len();
                out.extend(layout.iter().filter(|b| b.binding.eq_ignore_ascii_case(t)).map(slot));
                if out.len() == before {
                    return Err(SqlError::NoSuchTable(t.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let label = alias.clone().unwrap_or_else(|| default_label(expr));
                out.push((Cow::Borrowed(expr), label));
            }
        }
    }
    Ok(out)
}

/// SQLite labels an un-aliased bare column by its column name, anything
/// else by its source text.
pub(crate) fn default_label(e: &Expr) -> String {
    match e {
        Expr::Column { column, .. } => column.clone(),
        other => crate::printer::print_expr(other),
    }
}

/// Why a column reference resolves nowhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Miss {
    /// No slot has the name.
    Missing,
    /// An unqualified name is the column of two or more slots.
    Ambiguous,
}

impl Miss {
    /// The error execution raises for the reference `table.column`.
    pub(crate) fn error(self, table: Option<&str>, column: &str) -> SqlError {
        match (self, table) {
            (Miss::Ambiguous, _) => SqlError::AmbiguousColumn(column.to_owned()),
            (Miss::Missing, Some(t)) => SqlError::NoSuchColumn(format!("{t}.{column}")),
            (Miss::Missing, None) => SqlError::NoSuchColumn(column.to_owned()),
        }
    }
}

/// Look `table.column` up in a chain of layouts, innermost first: the core's
/// own layout, then each enclosing row's. The first layout that resolves it
/// answers `(up, slot)` — slot `slot` of the layout `up` scopes out. A
/// qualified name resolves to the first slot of that table with the column;
/// an unqualified one to the only slot with it. When no layout resolves it,
/// the answer is why the innermost did not. Nothing is allocated.
pub(crate) fn lookup<'l>(
    layouts: impl IntoIterator<Item = &'l [ColBinding]>,
    table: Option<&str>,
    column: &str,
) -> Result<(usize, usize), Miss> {
    let mut innermost = None;
    for (up, layout) in layouts.into_iter().enumerate() {
        let mut hits = layout.iter().enumerate().filter(|(_, b)| {
            b.column.eq_ignore_ascii_case(column)
                && table.is_none_or(|t| b.binding.eq_ignore_ascii_case(t))
        });
        let miss = match (hits.next(), table) {
            (Some((slot, _)), Some(_)) => return Ok((up, slot)),
            (Some((slot, _)), None) if hits.next().is_none() => return Ok((up, slot)),
            (Some(_), None) => Miss::Ambiguous,
            (None, _) => Miss::Missing,
        };
        innermost.get_or_insert(miss);
    }
    Err(innermost.unwrap_or(Miss::Missing))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(slots: &[(&str, &str)]) -> Vec<ColBinding> {
        slots.iter().map(|(b, c)| ColBinding::new(*b, *c)).collect()
    }

    #[test]
    fn lookup_answers_slot_missing_or_ambiguous_innermost_first() {
        let inner = layout(&[("s", "x"), ("s", "x"), ("t", "y")]);
        let outer = layout(&[("o", "x"), ("o", "z")]);
        let chain = || [inner.as_slice(), outer.as_slice()];
        // a qualified duplicate takes its first slot; an unqualified one is
        // ambiguous here, and the enclosing row answers it
        assert_eq!(lookup(chain(), Some("S"), "X"), Ok((0, 0)));
        assert_eq!(lookup(chain(), None, "x"), Ok((1, 0)));
        assert_eq!(lookup([inner.as_slice()], None, "x"), Err(Miss::Ambiguous));
        assert_eq!(lookup(chain(), None, "y"), Ok((0, 2)));
        assert_eq!(lookup(chain(), None, "z"), Ok((1, 1)));
        // the innermost failure is the answer
        assert_eq!(lookup(chain(), None, "w"), Err(Miss::Missing));
        assert_eq!(lookup(chain(), Some("t"), "x"), Err(Miss::Missing));
        assert_eq!(lookup(std::iter::empty(), None, "x"), Err(Miss::Missing));
        assert_eq!(Miss::Missing.error(Some("t"), "x").to_string(), "no such column: t.x");
        assert_eq!(Miss::Ambiguous.error(None, "x").to_string(), "ambiguous column name: x");
    }
}
