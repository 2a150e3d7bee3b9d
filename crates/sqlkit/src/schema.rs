//! Logical schema descriptions: tables, columns, foreign keys.
//!
//! Besides powering the executor's catalog, schemas know how to render
//! themselves as the *database prompt block* the pipeline feeds to the
//! language model, and expose the foreign-key graph the SQL-Like
//! translator uses to infer join paths.

use crate::ast::TypeName;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// A column description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnInfo {
    /// Column name (case preserved; lookups are case-insensitive).
    pub name: String,
    /// Type affinity.
    pub ty: TypeName,
    /// Natural-language description, shown in schema prompts.
    pub description: String,
    /// Part of the primary key?
    pub primary_key: bool,
}

impl ColumnInfo {
    /// A column with an empty description.
    pub fn new(name: impl Into<String>, ty: TypeName) -> Self {
        ColumnInfo { name: name.into(), ty, description: String::new(), primary_key: false }
    }
}

impl Serialize for TypeName {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.as_sql())
    }
}

impl<'de> Deserialize<'de> for TypeName {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = String::deserialize(d)?;
        Ok(crate::parser::affinity_of(&s))
    }
}

/// A foreign-key edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    /// Source table.
    pub table: String,
    /// Source column.
    pub column: String,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced column.
    pub ref_column: String,
}

/// A table description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableInfo {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnInfo>,
}

impl TableInfo {
    /// Find a column case-insensitively.
    pub fn column(&self, name: &str) -> Option<&ColumnInfo> {
        self.columns.iter().find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Index of a column, case-insensitively.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Primary-key column names.
    pub fn primary_key(&self) -> Vec<&str> {
        self.columns.iter().filter(|c| c.primary_key).map(|c| c.name.as_str()).collect()
    }
}

/// A whole-database schema.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbSchema {
    /// Database name.
    pub name: String,
    /// Tables in creation order.
    pub tables: Vec<TableInfo>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
}

impl DbSchema {
    /// New empty schema.
    pub fn new(name: impl Into<String>) -> Self {
        DbSchema { name: name.into(), ..Default::default() }
    }

    /// Find a table case-insensitively.
    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.tables.iter().find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Total number of columns across all tables.
    pub fn column_count(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// Render the schema prompt block used by the pipeline, in the
    /// compact `table(column type -- description, ...)` style. When
    /// `only` is given, restrict to those `(table, column)` pairs while
    /// keeping declaration order.
    pub fn describe(&self, only: Option<&SchemaSubset>) -> String {
        let mut out = String::with_capacity(self.column_count() * 24);
        for t in &self.tables {
            let cols: Vec<&ColumnInfo> = t
                .columns
                .iter()
                .filter(|c| only.map(|s| s.contains(&t.name, &c.name)).unwrap_or(true))
                .collect();
            if cols.is_empty() {
                continue;
            }
            out.push_str("# Table: ");
            out.push_str(&t.name);
            out.push('\n');
            for c in cols {
                out.push_str("#   ");
                out.push_str(&c.name);
                out.push(' ');
                out.push_str(c.ty.as_sql());
                if c.primary_key {
                    out.push_str(" [PK]");
                }
                if !c.description.is_empty() {
                    out.push_str(" -- ");
                    out.push_str(&c.description);
                }
                out.push('\n');
            }
        }
        for fk in &self.foreign_keys {
            let visible = only
                .map(|s| s.contains_table(&fk.table) && s.contains_table(&fk.ref_table))
                .unwrap_or(true);
            if visible {
                out.push_str(&format!(
                    "# FK: {}.{} -> {}.{}\n",
                    fk.table, fk.column, fk.ref_table, fk.ref_column
                ));
            }
        }
        out
    }

    /// Shortest join path (as FK edges) between two tables, BFS over the
    /// undirected FK graph. Returns `None` when disconnected.
    pub fn join_path(&self, from: &str, to: &str) -> Option<Vec<ForeignKey>> {
        if from.eq_ignore_ascii_case(to) {
            return Some(Vec::new());
        }
        let norm = |s: &str| s.to_lowercase();
        let mut adj: HashMap<String, Vec<&ForeignKey>> = HashMap::new();
        for fk in &self.foreign_keys {
            adj.entry(norm(&fk.table)).or_default().push(fk);
            adj.entry(norm(&fk.ref_table)).or_default().push(fk);
        }
        let mut prev: HashMap<String, (&ForeignKey, String)> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(norm(from));
        while let Some(cur) = queue.pop_front() {
            if cur == norm(to) {
                let mut path = Vec::new();
                let mut node = cur;
                while node != norm(from) {
                    let (fk, parent) = prev.get(&node).unwrap().clone();
                    path.push(fk.clone());
                    node = parent;
                }
                path.reverse();
                return Some(path);
            }
            for fk in adj.get(&cur).into_iter().flatten() {
                let next =
                    if norm(&fk.table) == cur { norm(&fk.ref_table) } else { norm(&fk.table) };
                if next != norm(from) && !prev.contains_key(&next) {
                    prev.insert(next.clone(), (fk, cur.clone()));
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

/// A selected subset of a schema: the output of column filtering.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemaSubset {
    /// Lower-cased `(table, column)` pairs.
    pairs: Vec<(String, String)>,
}

impl SchemaSubset {
    /// Empty subset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a pair (deduplicated, case-insensitive).
    pub fn insert(&mut self, table: &str, column: &str) {
        let key = (table.to_lowercase(), column.to_lowercase());
        if !self.pairs.contains(&key) {
            self.pairs.push(key);
        }
    }

    /// Membership test.
    pub fn contains(&self, table: &str, column: &str) -> bool {
        let key = (table.to_lowercase(), column.to_lowercase());
        self.pairs.contains(&key)
    }

    /// Does the subset include any column of this table?
    pub fn contains_table(&self, table: &str) -> bool {
        let t = table.to_lowercase();
        self.pairs.iter().any(|(pt, _)| *pt == t)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Is it empty?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate pairs (lower-cased).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(t, c)| (t.as_str(), c.as_str()))
    }

    /// Expand with every table's primary key and every column sharing a
    /// name with an already-selected column — the paper's Info Alignment
    /// schema expansion (§3.4).
    pub fn expand_for_alignment(&mut self, schema: &DbSchema) {
        // PKs of mentioned tables
        let tables: Vec<String> =
            self.pairs.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>();
        for t in tables {
            if let Some(info) = schema.table(&t) {
                let pk: Vec<String> =
                    info.primary_key().iter().map(|s| s.to_string()).collect();
                for col in pk {
                    self.insert(&info.name.clone(), &col);
                }
            }
        }
        // same-named columns, within the tables already selected (to
        // disambiguate same-name misselection without re-inflating the
        // schema back to full width)
        let names: Vec<String> = self.pairs.iter().map(|(_, c)| c.clone()).collect();
        for t in &schema.tables {
            if !self.contains_table(&t.name) {
                continue;
            }
            for c in &t.columns {
                if names.iter().any(|n| n.eq_ignore_ascii_case(&c.name)) {
                    self.insert(&t.name, &c.name);
                }
            }
        }
        // FK endpoints between mentioned tables, so joins stay expressible
        for fk in &schema.foreign_keys {
            if self.contains_table(&fk.table) && self.contains_table(&fk.ref_table) {
                self.insert(&fk.table, &fk.column);
                self.insert(&fk.ref_table, &fk.ref_column);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DbSchema {
        let mut s = DbSchema::new("clinic");
        s.tables.push(TableInfo {
            name: "Patient".into(),
            columns: vec![
                ColumnInfo { primary_key: true, ..ColumnInfo::new("ID", TypeName::Integer) },
                ColumnInfo::new("Name", TypeName::Text),
                ColumnInfo::new("First Date", TypeName::Text),
            ],
        });
        s.tables.push(TableInfo {
            name: "Laboratory".into(),
            columns: vec![
                ColumnInfo { primary_key: true, ..ColumnInfo::new("LabID", TypeName::Integer) },
                ColumnInfo::new("ID", TypeName::Integer),
                ColumnInfo::new("IGA", TypeName::Real),
            ],
        });
        s.tables.push(TableInfo {
            name: "Ward".into(),
            columns: vec![ColumnInfo::new("WID", TypeName::Integer)],
        });
        s.foreign_keys.push(ForeignKey {
            table: "Laboratory".into(),
            column: "ID".into(),
            ref_table: "Patient".into(),
            ref_column: "ID".into(),
        });
        s
    }

    #[test]
    fn lookups_are_case_insensitive() {
        let s = sample();
        assert!(s.table("patient").is_some());
        assert!(s.table("Patient").unwrap().column("name").is_some());
        assert_eq!(s.table("Patient").unwrap().column_index("first date"), Some(2));
    }

    #[test]
    fn describe_full_and_subset() {
        let s = sample();
        let full = s.describe(None);
        assert!(full.contains("# Table: Patient"));
        assert!(full.contains("IGA REAL"));
        assert!(full.contains("FK: Laboratory.ID -> Patient.ID"));

        let mut sub = SchemaSubset::new();
        sub.insert("Patient", "Name");
        let text = s.describe(Some(&sub));
        assert!(text.contains("Name"));
        assert!(!text.contains("IGA"));
    }

    #[test]
    fn join_path_via_fk() {
        let s = sample();
        let path = s.join_path("Patient", "Laboratory").unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].table, "Laboratory");
        assert!(s.join_path("Patient", "Ward").is_none());
        assert_eq!(s.join_path("Patient", "patient").unwrap().len(), 0);
    }

    #[test]
    fn subset_expansion_adds_pk_and_same_names() {
        let s = sample();
        let mut sub = SchemaSubset::new();
        sub.insert("Laboratory", "IGA");
        sub.insert("Patient", "Name");
        sub.expand_for_alignment(&s);
        // PKs of both tables appear
        assert!(sub.contains("Laboratory", "LabID"));
        assert!(sub.contains("Patient", "ID"));
        // same-named column ID in Laboratory appears because Patient.ID is a PK pull-in
        assert!(sub.contains("Laboratory", "ID"));
    }
}
