//! Secondary indexes: persistent sorted-run column indexes backing the
//! physical planner's `IxScan` and `IxJoin` operators.
//!
//! An index is a flat `Vec<(Value, rid)>` sorted by `Value::sql_cmp` with
//! the row id as tie-break. Because `sql_cmp` equality classes are wider
//! than bit equality (`1 == 1.0`, and huge integers collapse through
//! `f64`), an *equality run* located by binary search is exactly the set
//! of rows the executor's `sql_eq` would accept — and because rid breaks
//! ties, every run is already in ascending row order, which is what lets
//! index lookups reproduce a full scan's emission order byte for byte.
//!
//! NULLs are skipped at build time (no comparison ever matches them) and
//! a column containing a `NaN` refuses to build at all: `sql_cmp` maps
//! `NaN` to `Equal` against every numeric, which is not a usable sort
//! order. An unusable index makes the executor degrade the operator in
//! place — an `IxScan` to a filtered scan, an `IxJoin` to a hash join on
//! the same keys — never serve wrong rows.

use crate::value::{Row, Value};
use std::cmp::Ordering;

/// Declaration of a single-column secondary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Table name (as declared in the schema).
    pub table: String,
    /// Indexed column name.
    pub column: String,
}

impl IndexDef {
    /// Case-insensitive identity comparison.
    pub fn matches(&self, table: &str, column: &str) -> bool {
        self.table.eq_ignore_ascii_case(table) && self.column.eq_ignore_ascii_case(column)
    }
}

/// A built sorted-run index over one column of one table.
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    /// `(value, rid)` sorted by `(sql_cmp, rid)`; NULLs excluded.
    entries: Vec<(Value, u32)>,
    /// Number of `sql_cmp` equality classes among the entries.
    distinct: usize,
    /// Row count of the indexed table at build time (including NULL rows).
    table_rows: usize,
}

/// Is the value a float NaN (the one value `sql_cmp` cannot order)?
fn is_nan(v: &Value) -> bool {
    matches!(v, Value::Real(r) if r.is_nan())
}

fn entry_cmp(a: &(Value, u32), b: &(Value, u32)) -> Ordering {
    a.0.sql_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl ColumnIndex {
    /// Build an index over column `col` of `rows`. Returns `None` when the
    /// column contains a NaN, which has no usable sort position.
    pub fn build(rows: &[Row], col: usize) -> Option<ColumnIndex> {
        let mut entries: Vec<(Value, u32)> = Vec::with_capacity(rows.len());
        for (rid, row) in rows.iter().enumerate() {
            let v = row.get(col)?;
            if v.is_null() {
                continue;
            }
            if is_nan(v) {
                return None;
            }
            entries.push((v.clone(), rid as u32));
        }
        entries.sort_by(entry_cmp);
        Some(ColumnIndex::from_sorted(entries, rows.len()))
    }

    /// Assemble an index from pre-sorted entries (the store's load path).
    /// Returns `None` when the entries are not actually sorted or contain
    /// NULL/NaN — a stale or damaged section must never serve lookups.
    pub fn from_entries(entries: Vec<(Value, u32)>, table_rows: usize) -> Option<ColumnIndex> {
        if entries.len() > table_rows {
            return None;
        }
        for pair in entries.windows(2) {
            if entry_cmp(&pair[0], &pair[1]) == Ordering::Greater {
                return None;
            }
        }
        if entries.iter().any(|(v, _)| v.is_null() || is_nan(v)) {
            return None;
        }
        Some(ColumnIndex::from_sorted(entries, table_rows))
    }

    fn from_sorted(entries: Vec<(Value, u32)>, table_rows: usize) -> ColumnIndex {
        let distinct = entries
            .windows(2)
            .filter(|p| p[0].0.sql_cmp(&p[1].0) != Ordering::Equal)
            .count()
            + usize::from(!entries.is_empty());
        ColumnIndex { entries, distinct, table_rows }
    }

    /// Number of (non-NULL) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of `sql_cmp` equality classes.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Row count of the indexed table at build time.
    pub fn table_rows(&self) -> usize {
        self.table_rows
    }

    /// The raw sorted entries (for persistence).
    pub fn entries(&self) -> &[(Value, u32)] {
        &self.entries
    }

    /// The `sql_cmp` equality run for `key`: exactly the entries whose
    /// value satisfies `value.sql_eq(key) == Some(true)`, in ascending rid
    /// order. NULL or NaN keys match nothing.
    pub fn eq_run(&self, key: &Value) -> &[(Value, u32)] {
        if key.is_null() || is_nan(key) {
            return &[];
        }
        let lo = self.entries.partition_point(|e| e.0.sql_cmp(key) == Ordering::Less);
        let hi = self.entries.partition_point(|e| e.0.sql_cmp(key) != Ordering::Greater);
        &self.entries[lo..hi.max(lo)]
    }

    /// Row ids matching `value = key`, ascending.
    pub fn rids_eq(&self, key: &Value) -> Vec<u32> {
        self.eq_run(key).iter().map(|e| e.1).collect()
    }

    /// Row ids inside an (optionally half-open) range, ascending. Bounds
    /// are `(key, inclusive)`; NULL or NaN bounds match nothing, exactly
    /// as the executor's comparison operators treat them.
    pub fn rids_range(
        &self,
        low: Option<(&Value, bool)>,
        high: Option<(&Value, bool)>,
    ) -> Vec<u32> {
        if let Some((v, _)) = low {
            if v.is_null() || is_nan(v) {
                return Vec::new();
            }
        }
        if let Some((v, _)) = high {
            if v.is_null() || is_nan(v) {
                return Vec::new();
            }
        }
        let lo = match low {
            None => 0,
            Some((key, inclusive)) => {
                if inclusive {
                    self.entries.partition_point(|e| e.0.sql_cmp(key) == Ordering::Less)
                } else {
                    self.entries.partition_point(|e| e.0.sql_cmp(key) != Ordering::Greater)
                }
            }
        };
        let hi = match high {
            None => self.entries.len(),
            Some((key, inclusive)) => {
                if inclusive {
                    self.entries.partition_point(|e| e.0.sql_cmp(key) != Ordering::Greater)
                } else {
                    self.entries.partition_point(|e| e.0.sql_cmp(key) == Ordering::Less)
                }
            }
        };
        if lo >= hi {
            return Vec::new();
        }
        let mut rids: Vec<u32> = self.entries[lo..hi].iter().map(|e| e.1).collect();
        rids.sort_unstable();
        rids
    }

    /// Row ids matching any key of an IN list, ascending and deduplicated.
    pub fn rids_in(&self, keys: &[Value]) -> Vec<u32> {
        let mut rids: Vec<u32> = Vec::new();
        for k in keys {
            rids.extend(self.eq_run(k).iter().map(|e| e.1));
        }
        rids.sort_unstable();
        rids.dedup();
        rids
    }

    /// Incremental maintenance: a row was appended with id `rid` (which
    /// must be >= every existing rid). Returns `false` when the new value
    /// is a NaN, i.e. the index just became unusable and must be dropped.
    pub fn insert_appended(&mut self, value: &Value, rid: u32) -> bool {
        self.table_rows = self.table_rows.max(rid as usize + 1);
        if value.is_null() {
            return true;
        }
        if is_nan(value) {
            return false;
        }
        // The new rid is the largest, so the insertion point is the end of
        // the value's equality run; distinct grows iff the run was empty,
        // i.e. the entry before that point is in another class.
        let pos = self.entries.partition_point(|e| e.0.sql_cmp(value) != Ordering::Greater);
        let new_class = pos == 0 || self.entries[pos - 1].0.sql_cmp(value) != Ordering::Equal;
        self.entries.insert(pos, (value.clone(), rid));
        if new_class {
            self.distinct += 1;
        }
        true
    }

    /// Incremental maintenance: the rows with ids `doomed` (ascending,
    /// distinct) were removed and every later row moved down to close the
    /// gaps. Each surviving rid drops by the number of doomed rids below
    /// it, a monotone map, so the runs stay sorted; an equality class is
    /// gone when no survivor stands next to its removed entries.
    pub(crate) fn remove_rows(&mut self, doomed: &[u32]) {
        let Some(&first) = doomed.first() else { return };
        self.table_rows -= doomed.len();
        let mut gone: Vec<u32> = Vec::with_capacity(doomed.len());
        for (pos, entry) in self.entries.iter_mut().enumerate() {
            if entry.1 < first {
                continue;
            }
            let below = doomed.partition_point(|&d| d < entry.1);
            if doomed.get(below) == Some(&entry.1) {
                gone.push(pos as u32);
            } else {
                entry.1 -= below as u32;
            }
        }
        let same =
            |a: usize, b: usize| self.entries[a].0.sql_cmp(&self.entries[b].0) == Ordering::Equal;
        // each maximal run of adjacent removed entries loses its classes,
        // less the first if a survivor on its left shares it and the last
        // if one on its right does
        let lost: usize = gone
            .chunk_by(|a, b| a + 1 == *b)
            .map(|run| {
                let (start, end) = (run[0] as usize, run[run.len() - 1] as usize + 1);
                let classes = 1 + (start + 1..end).filter(|&p| !same(p - 1, p)).count();
                let left = start > 0 && same(start - 1, start);
                let right = end < self.entries.len() && same(end - 1, end);
                classes
                    - if classes == 1 {
                        usize::from(left || right)
                    } else {
                        usize::from(left) + usize::from(right)
                    }
            })
            .sum();
        self.distinct -= lost;
        remove_sorted(&mut self.entries, &gone);
    }
}

/// Remove the elements at `positions` (ascending, distinct) from `v`,
/// keeping the rest in order; the elements before the first position do
/// not move. Each run of survivors moves down past the removed elements
/// gathered in front of it, in O(run) moves: by one rotation while they
/// are no more than the run, else by swapping the run into their front (the
/// removed elements' order does not matter), so a removal costs O(len)
/// however many positions it names.
pub(crate) fn remove_sorted<T>(v: &mut Vec<T>, positions: &[u32]) {
    let Some(&first) = positions.first() else { return };
    let mut write = first as usize;
    for (i, &p) in positions.iter().enumerate() {
        let end = positions.get(i + 1).map_or(v.len(), |&next| next as usize);
        // v[write..=p] holds the i + 1 removed so far, v[p + 1..end] the
        // survivors up to the next one
        let window = &mut v[write..end];
        if 2 * (i + 1) <= window.len() {
            window.rotate_left(i + 1);
        } else {
            let (removed, run) = window.split_at_mut(i + 1);
            removed[..run.len()].swap_with_slice(run);
        }
        write += end - p as usize - 1;
    }
    v.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rows(vals: &[Value]) -> Vec<Row> {
        vals.iter().map(|v| vec![v.clone()]).collect()
    }

    #[test]
    fn equality_run_matches_sql_eq_including_mixed_numerics() {
        let data = rows(&[
            Value::Int(3),
            Value::Real(1.0),
            Value::Int(1),
            Value::Null,
            Value::text("1"),
            Value::Int(2),
        ]);
        let ix = ColumnIndex::build(&data, 0).unwrap();
        assert_eq!(ix.len(), 5, "NULL skipped");
        // 1 and 1.0 share a run; text '1' does not (storage class differs)
        assert_eq!(ix.rids_eq(&Value::Int(1)), vec![1, 2]);
        assert_eq!(ix.rids_eq(&Value::text("1")), vec![4]);
        assert_eq!(ix.rids_eq(&Value::Int(9)), Vec::<u32>::new());
        assert_eq!(ix.rids_eq(&Value::Null), Vec::<u32>::new());
        assert_eq!(ix.distinct(), 4);
    }

    #[test]
    fn range_covers_text_tail_like_sql_cmp() {
        // sql_cmp ranks text above every numeric, so `x > 2` includes text
        let data = rows(&[Value::Int(1), Value::Int(5), Value::text("a"), Value::Int(2)]);
        let ix = ColumnIndex::build(&data, 0).unwrap();
        assert_eq!(ix.rids_range(Some((&Value::Int(2), false)), None), vec![1, 2]);
        assert_eq!(
            ix.rids_range(Some((&Value::Int(1), true)), Some((&Value::Int(2), true))),
            vec![0, 3]
        );
        assert_eq!(ix.rids_range(Some((&Value::Null, false)), None), Vec::<u32>::new());
    }

    #[test]
    fn in_list_dedups_and_sorts() {
        let data = rows(&[Value::Int(2), Value::Int(1), Value::Int(2)]);
        let ix = ColumnIndex::build(&data, 0).unwrap();
        assert_eq!(
            ix.rids_in(&[Value::Int(2), Value::Real(2.0), Value::Int(1)]),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn nan_poisons_build_and_maintenance() {
        let data = rows(&[Value::Int(1), Value::Real(f64::NAN)]);
        assert!(ColumnIndex::build(&data, 0).is_none());
        let mut ix = ColumnIndex::build(&rows(&[Value::Int(1)]), 0).unwrap();
        assert!(ix.insert_appended(&Value::Int(2), 1));
        assert!(!ix.insert_appended(&Value::Real(f64::NAN), 2));
    }

    #[test]
    fn append_maintains_sorted_runs() {
        let mut ix = ColumnIndex::build(&rows(&[Value::Int(2), Value::Int(1)]), 0).unwrap();
        assert!(ix.insert_appended(&Value::Real(1.0), 2));
        assert!(ix.insert_appended(&Value::Null, 3));
        assert_eq!(ix.rids_eq(&Value::Int(1)), vec![1, 2]);
        assert_eq!(ix.table_rows(), 4);
        let rebuilt = ColumnIndex::build(
            &rows(&[Value::Int(2), Value::Int(1), Value::Real(1.0), Value::Null]),
            0,
        )
        .unwrap();
        assert_eq!(rebuilt.entries(), ix.entries());
        assert_eq!(rebuilt.distinct(), ix.distinct());
    }

    #[test]
    fn from_entries_rejects_unsorted_or_null() {
        assert!(ColumnIndex::from_entries(
            vec![(Value::Int(2), 0), (Value::Int(1), 1)],
            2
        )
        .is_none());
        assert!(ColumnIndex::from_entries(vec![(Value::Null, 0)], 1).is_none());
        let ok = ColumnIndex::from_entries(vec![(Value::Int(1), 1), (Value::Int(2), 0)], 3);
        assert_eq!(ok.unwrap().distinct(), 2);
    }

    /// One of the values a random column draws: NULL, `1` and `1.0` (one
    /// class), text (including text `'1'`, its own class) and repeats.
    fn drawn(k: u32) -> Value {
        match k {
            0 => Value::Null,
            1 | 2 => Value::Int(1),
            3 => Value::Real(1.0),
            4 => Value::text("1"),
            5 => Value::text("b"),
            6 => Value::Real(-2.5),
            n => Value::Int(i64::from(n) % 4),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Removing any ascending rid set leaves the index a build over
        /// the surviving rows would produce: entries, distinct and
        /// table_rows. Each draw `k` is a row holding `drawn(k % 10)`; it
        /// dies when `k` is below the first draw, so a case removes none,
        /// a few, most or all of its rows at once.
        #[test]
        fn removal_equals_a_rebuild_of_the_survivors(
            draws in prop::collection::vec(0u32..40, 0..40)
        ) {
            let cut = draws.first().copied().unwrap_or(0);
            let row = |&k: &u32| vec![drawn(k % 10)];
            let data: Vec<Row> = draws.iter().map(row).collect();
            let survivors: Vec<Row> = draws.iter().filter(|&&k| k >= cut).map(row).collect();
            let doomed: Vec<u32> = (0..draws.len() as u32)
                .filter(|&rid| draws[rid as usize] < cut)
                .collect();
            let mut ix = ColumnIndex::build(&data, 0).unwrap();
            ix.remove_rows(&doomed);
            let rebuilt = ColumnIndex::build(&survivors, 0).unwrap();
            prop_assert_eq!(ix.entries(), rebuilt.entries());
            prop_assert_eq!(ix.distinct(), rebuilt.distinct());
            prop_assert_eq!(ix.table_rows(), rebuilt.table_rows());
        }
    }
}
