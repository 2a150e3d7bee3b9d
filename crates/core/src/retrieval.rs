//! Value and column retrieval over the preprocessed vector database.
//!
//! Preprocessing indexes **string-valued** cells only (paper §3.3, to save
//! index space) plus column descriptors. Retrieval is multi-path (§3.4):
//! embedding search with split retrieval for phrases, plus a normalised
//! scan path that catches abbreviation/coding quirks embeddings miss.

use sqlkit::Value;
use vecstore::{Embedder, Neighbor, ServingIndex};

/// One indexed stored value.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueHit {
    /// Table name (original casing).
    pub table: String,
    /// Column name (original casing).
    pub column: String,
    /// The stored text value.
    pub stored: String,
    /// Similarity score of the retrieval (1.0 for scan-path hits).
    pub score: f32,
}

/// The per-database value index.
pub struct ValueIndex {
    embedder: Embedder,
    index: ServingIndex,
    /// Entry `i` is vector `i` of `index`.
    entries: Vec<ValueEntry>,
    /// Entries are contiguous per column, in build order.
    columns: Vec<ColumnValues>,
}

struct ValueEntry {
    /// Index into `columns`.
    column: usize,
    stored: String,
    /// `normalize(stored)`, computed once.
    normalized: String,
}

struct ColumnValues {
    table: String,
    column: String,
    /// This column's slice of `entries`.
    entries: std::ops::Range<usize>,
}

impl ValueIndex {
    /// Index every distinct string value of every textual column.
    pub fn build(db: &datagen::BuiltDb) -> Self {
        let mut entries = Vec::new();
        let mut columns = Vec::new();
        for table in &db.tables {
            for col in &table.cols {
                if !col.kind.is_textual() {
                    continue;
                }
                let start = entries.len();
                for stored in db.stored_values(&table.name, &col.name) {
                    let normalized = normalize(&stored);
                    entries.push(ValueEntry { column: columns.len(), stored, normalized });
                }
                columns.push(ColumnValues {
                    table: table.name.clone(),
                    column: col.name.clone(),
                    entries: start..entries.len(),
                });
            }
        }
        let embedder = Embedder::new();
        let index = ServingIndex::build(entries.iter().map(|e| embedder.embed(&e.stored)));
        ValueIndex { embedder, index, entries, columns }
    }

    /// Number of indexed values.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The vector index over the stored values.
    pub fn index(&self) -> &ServingIndex {
        &self.index
    }

    /// One column's entry range (names compare ASCII-case-insensitively;
    /// empty for an unknown or non-textual column).
    fn column_range(&self, table: &str, column: &str) -> std::ops::Range<usize> {
        self.columns
            .iter()
            .find(|c| c.table.eq_ignore_ascii_case(table) && c.column.eq_ignore_ascii_case(column))
            .map_or(0..0, |c| c.entries.clone())
    }

    /// Multi-path retrieval for one entity mention: embedding search on
    /// the full phrase, split retrieval on its words, and a normalised
    /// scan. Results deduplicated, above-threshold, best first.
    pub fn retrieve(&self, entity: &str, top_k: usize, threshold: f32) -> Vec<ValueHit> {
        let mut hits: Vec<ValueHit> = Vec::new();
        let push = |idx: usize, score: f32, hits: &mut Vec<ValueHit>| {
            let entry = &self.entries[idx];
            let ColumnValues { table: t, column: c, .. } = &self.columns[entry.column];
            if !hits.iter().any(|h| h.table == *t && h.column == *c && h.stored == entry.stored) {
                hits.push(ValueHit {
                    table: t.clone(),
                    column: c.clone(),
                    stored: entry.stored.clone(),
                    score,
                });
            }
        };

        // embedding path: whole phrase, then split retrieval on words
        let mut queries: Vec<&str> = vec![entity];
        if entity.split_whitespace().count() > 1 {
            queries.extend(entity.split_whitespace());
        }
        for q in queries {
            for Neighbor { id, score } in self.index.search(&self.embedder.embed(q), top_k) {
                if score >= threshold {
                    push(id, score, &mut hits);
                }
            }
        }

        // scan path: normalised equality or prefix containment (catches
        // 'OSL' ~ 'Oslo', 'C_tier_two' ~ 'tier two')
        let qn = normalize(entity);
        if qn.len() >= 3 {
            for (idx, entry) in self.entries.iter().enumerate() {
                if normalized_match(&entry.normalized, &qn) {
                    push(idx, 1.0, &mut hits);
                }
            }
        }

        hits.sort_by(|a, b| {
            b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal)
        });
        hits.truncate(top_k.max(1) * 2);
        hits
    }

    /// All stored values of one column.
    pub fn values_of(&self, table: &str, column: &str) -> Vec<&str> {
        self.entries[self.column_range(table, column)].iter().map(|e| e.stored.as_str()).collect()
    }

    /// Does a column hold this exact value?
    pub fn contains(&self, table: &str, column: &str, value: &str) -> bool {
        self.entries[self.column_range(table, column)].iter().any(|e| e.stored == value)
    }

    /// Exact (normalised/prefix) stored-value match within one column.
    pub fn exact_in_column(&self, table: &str, column: &str, literal: &str) -> Option<String> {
        let values = &self.entries[self.column_range(table, column)];
        let ln = normalize(literal);
        let found = values.iter().find(|e| e.normalized == ln).or_else(|| {
            values.iter().find(|e| ln.len() >= 3 && normalized_match(&e.normalized, &ln))
        });
        found.map(|e| e.stored.clone())
    }

    /// Best stored value of a column for a wrong literal: exact normalised
    /// match first, then embedding similarity above `threshold`.
    pub fn best_in_column(
        &self,
        table: &str,
        column: &str,
        literal: &str,
        threshold: f32,
    ) -> Option<String> {
        if let Some(v) = self.exact_in_column(table, column, literal) {
            return Some(v);
        }
        let range = self.column_range(table, column);
        let scores = self.index.similarities(range.clone(), &self.embedder.embed(literal));
        let mut best: Option<(f32, usize)> = None;
        for (idx, s) in range.zip(scores) {
            if s >= threshold && best.map(|(bs, _)| s > bs).unwrap_or(true) {
                best = Some((s, idx));
            }
        }
        best.map(|(_, idx)| self.entries[idx].stored.clone())
    }

    /// Which `(table, column)` pairs hold this exact value (for
    /// requalification of same-name columns)?
    pub fn locate(&self, value: &str) -> Vec<(&str, &str)> {
        self.entries
            .iter()
            .filter(|e| e.stored == value)
            .map(|e| (self.columns[e.column].table.as_str(), self.columns[e.column].column.as_str()))
            .collect()
    }
}

/// The per-database column descriptor index (vector recall path of column
/// filtering).
pub struct ColumnIndex {
    embedder: Embedder,
    index: ServingIndex,
    entries: Vec<(String, String)>,
}

impl ColumnIndex {
    /// Index `table column description` descriptors.
    pub fn build(db: &datagen::BuiltDb) -> Self {
        let embedder = Embedder::new();
        let tables = &db.database.schema.tables;
        let columns = || tables.iter().flat_map(|t| t.columns.iter().map(move |c| (t, c)));
        let index = ServingIndex::build(columns().map(|(t, c)| {
            embedder.embed(&format!("{} {} {}", t.name, c.name, c.description))
        }));
        let entries = columns().map(|(t, c)| (t.name.clone(), c.name.clone())).collect();
        ColumnIndex { embedder, index, entries }
    }

    /// The vector index over the column descriptors.
    pub fn index(&self) -> &ServingIndex {
        &self.index
    }

    /// Columns similar to an entity phrase, above threshold.
    pub fn retrieve(&self, entity: &str, top_k: usize, threshold: f32) -> Vec<(String, String)> {
        self.index
            .search(&self.embedder.embed(entity), top_k)
            .into_iter()
            .filter(|n| n.score >= threshold)
            .map(|n| self.entries[n.id].clone())
            .collect()
    }
}

fn normalize(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Do a stored value and a query of at least three characters (both
/// normalised) match: equal, or one a prefix of the other with the stored
/// side at least three characters too? Never for an empty stored value.
fn normalized_match(stored: &str, query: &str) -> bool {
    stored == query
        || (stored.len() >= 3 && (query.starts_with(stored) || stored.starts_with(query)))
}

/// Is a literal a plausible value mention (worth indexing / aligning)?
pub fn is_alignable_literal(v: &Value) -> bool {
    match v {
        Value::Text(t) => !t.is_empty() && t.chars().any(|c| c.is_alphabetic()),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{build::build_db, domain::themes, RowScale};

    fn db() -> datagen::BuiltDb {
        build_db(&themes()[0], "h", "healthcare", RowScale::tiny(), 0.7, 21)
    }

    #[test]
    fn indexes_only_text_columns() {
        let b = db();
        let idx = ValueIndex::build(&b);
        assert!(!idx.is_empty());
        // a numeric column contributes nothing
        assert!(idx.values_of("Laboratory", "IGA").is_empty());
        assert!(!idx.values_of("Patient", "City").is_empty());
    }

    #[test]
    fn retrieves_quirked_values_from_display_form() {
        let b = db();
        let idx = ValueIndex::build(&b);
        // find a quirky column with a value whose display differs
        let mut checked = 0;
        for t in &b.tables {
            for c in &t.cols {
                if c.kind.is_textual() && c.quirk != datagen::Quirk::None {
                    for stored in b.stored_values(&t.name, &c.name).into_iter().take(3) {
                        let display = b.display_form(&t.name, &c.name, &stored).unwrap();
                        let hits = idx.retrieve(display, 5, 0.4);
                        assert!(
                            hits.iter().any(|h| h.stored == stored),
                            "display {display:?} should retrieve stored {stored:?}; got {hits:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "fixture must contain quirky columns");
    }

    #[test]
    fn best_in_column_repairs_case() {
        let b = db();
        let idx = ValueIndex::build(&b);
        let (t, c, stored) = {
            let mut found = None;
            'outer: for t in &b.tables {
                for c in &t.cols {
                    if c.kind.is_textual() && c.kind != datagen::ColKind::Date {
                        if let Some(v) = b.stored_values(&t.name, &c.name).first() {
                            found = Some((t.name.clone(), c.name.clone(), v.clone()));
                            break 'outer;
                        }
                    }
                }
            }
            found.unwrap()
        };
        let wrong = stored.to_lowercase();
        let fixed = idx.best_in_column(&t, &c, &wrong, 0.6);
        assert_eq!(fixed.as_deref(), Some(stored.as_str()));
    }

    #[test]
    fn locate_finds_owning_columns() {
        let b = db();
        let idx = ValueIndex::build(&b);
        let any = idx.values_of("Patient", "City");
        if let Some(v) = any.first() {
            let locs = idx.locate(v);
            assert!(locs.iter().any(|(t, c)| *t == "Patient" && *c == "City"));
        }
    }

    #[test]
    fn column_index_finds_named_column() {
        let b = db();
        let idx = ColumnIndex::build(&b);
        let hits = idx.retrieve("first date of the patient", 5, 0.2);
        assert!(
            hits.iter().any(|(t, c)| t == "Patient" && c == "First Date"),
            "got {hits:?}"
        );
    }

    #[test]
    fn alignable_literal_filter() {
        assert!(is_alignable_literal(&Value::text("Oslo")));
        assert!(!is_alignable_literal(&Value::text("1990")));
        assert!(!is_alignable_literal(&Value::Int(3)));
    }
}
