//! Materialising a [`Theme`] into a populated [`Database`] plus the
//! generation metadata (`kind`, `quirk`, display↔stored dictionaries) the
//! query sampler and the simulated LLM need.

use crate::domain::Theme;
use crate::values::{generate, ColKind, GenValue, Quirk};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlkit::schema::{ColumnInfo, ForeignKey, TableInfo};
use sqlkit::{Database, Value};
use std::collections::HashMap;

/// Generation metadata for one column.
#[derive(Debug, Clone)]
pub struct ColMeta {
    /// Column name.
    pub name: String,
    /// Semantic kind.
    pub kind: ColKind,
    /// Storage quirk (textual kinds only; `None` otherwise).
    pub quirk: Quirk,
    /// FK target table, if any.
    pub fk_to: Option<String>,
}

/// Generation metadata for one table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Plural noun for question rendering.
    pub noun: String,
    /// Column metadata, PK first.
    pub cols: Vec<ColMeta>,
}

/// A built database: engine-loadable data plus generation metadata.
#[derive(Debug, Clone)]
pub struct BuiltDb {
    /// Database id (unique within a benchmark).
    pub id: String,
    /// Domain name.
    pub domain: String,
    /// The populated database.
    pub database: Database,
    /// Table metadata in schema order.
    pub tables: Vec<TableMeta>,
    /// Relative comprehension complexity of this database's schema
    /// (BIRD-style complex schemas = 1.0; Spider-style simple schemas are
    /// lower). Consumed by the simulated model's misread rate.
    pub complexity: f64,
    /// `(table, column) → stored-text → display-text` for textual columns.
    display_of: HashMap<(String, String), HashMap<String, String>>,
}

/// Row-count scaling of built databases.
#[derive(Debug, Clone, Copy)]
pub struct RowScale {
    /// Rows in parent (FK-free) tables.
    pub base_rows: usize,
    /// Multiplier for child tables.
    pub child_factor: usize,
}

impl RowScale {
    /// BIRD-flavoured: larger tables.
    pub fn bird() -> Self {
        RowScale { base_rows: 60, child_factor: 4 }
    }

    /// Spider-flavoured: small tables.
    pub fn spider() -> Self {
        RowScale { base_rows: 25, child_factor: 3 }
    }

    /// Tiny scale for unit tests.
    pub fn tiny() -> Self {
        RowScale { base_rows: 10, child_factor: 2 }
    }
}

impl BuiltDb {
    /// Look up table metadata case-insensitively.
    pub fn table_meta(&self, name: &str) -> Option<&TableMeta> {
        self.tables.iter().find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// Column metadata.
    pub fn col_meta(&self, table: &str, column: &str) -> Option<&ColMeta> {
        self.table_meta(table)?.cols.iter().find(|c| c.name.eq_ignore_ascii_case(column))
    }

    /// The display form of a stored text value, when known.
    pub fn display_form(&self, table: &str, column: &str, stored: &str) -> Option<&str> {
        self.display_of
            .get(&(table.to_lowercase(), column.to_lowercase()))
            .and_then(|m| m.get(stored))
            .map(String::as_str)
    }

    /// The full display dictionary (store persistence needs it whole).
    pub(crate) fn display_map(&self) -> &HashMap<(String, String), HashMap<String, String>> {
        &self.display_of
    }

    /// Reassemble a `BuiltDb` from persisted parts (store import).
    pub(crate) fn from_parts(
        id: String,
        domain: String,
        database: Database,
        tables: Vec<TableMeta>,
        complexity: f64,
        display_of: HashMap<(String, String), HashMap<String, String>>,
    ) -> Self {
        BuiltDb { id, domain, database, tables, complexity, display_of }
    }

    /// All distinct stored text values of a column (for value indexing).
    pub fn stored_values(&self, table: &str, column: &str) -> Vec<String> {
        self.display_of
            .get(&(table.to_lowercase(), column.to_lowercase()))
            .map(|m| {
                let mut v: Vec<String> = m.keys().cloned().collect();
                v.sort();
                v
            })
            .unwrap_or_default()
    }
}

/// Build and populate a database from a theme.
///
/// `quirk_rate` is the probability that a textual column stores values in a
/// mangled form (BIRD-style dirty values); the remainder store display
/// forms verbatim.
pub fn build_db(
    theme: &Theme,
    db_id: &str,
    domain: &str,
    scale: RowScale,
    quirk_rate: f64,
    seed: u64,
) -> BuiltDb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut database = Database::new(db_id);
    let mut tables: Vec<TableMeta> = Vec::with_capacity(theme.tables.len());
    let mut display_of: HashMap<(String, String), HashMap<String, String>> = HashMap::new();
    let mut row_counts: HashMap<String, u32> = HashMap::new();

    for tmpl in &theme.tables {
        // decide quirks per column
        let cols: Vec<ColMeta> = tmpl
            .cols
            .iter()
            .map(|c| {
                let quirk = if c.kind.is_textual()
                    && c.kind != ColKind::Date
                    && rng.gen_bool(quirk_rate)
                {
                    match rng.gen_range(0..4) {
                        0 => Quirk::Upper,
                        1 => Quirk::Lower,
                        2 => Quirk::Abbrev,
                        _ => Quirk::Coded,
                    }
                } else {
                    Quirk::None
                };
                ColMeta {
                    name: c.name.to_owned(),
                    kind: c.kind,
                    quirk,
                    fk_to: c.fk_to.map(str::to_owned),
                }
            })
            .collect();

        // schema
        let info = TableInfo {
            name: tmpl.name.to_owned(),
            columns: cols
                .iter()
                .map(|c| ColumnInfo {
                    name: c.name.clone(),
                    ty: c.kind.type_name(),
                    description: describe_column(tmpl.noun, c),
                    primary_key: c.kind == ColKind::Id,
                })
                .collect(),
        };
        database.create_table(info).expect("theme tables are unique");
        for c in &cols {
            if let Some(target) = &c.fk_to {
                let ref_pk = tables
                    .iter()
                    .find(|t| t.name == *target)
                    .and_then(|t| t.cols.iter().find(|cc| cc.kind == ColKind::Id))
                    .map(|cc| cc.name.clone())
                    .expect("FK parents are built first");
                database.add_foreign_key(ForeignKey {
                    table: tmpl.name.to_owned(),
                    column: c.name.clone(),
                    ref_table: target.clone(),
                    ref_column: ref_pk,
                });
            }
        }

        // data
        let is_child = cols.iter().any(|c| c.kind == ColKind::Fk);
        let n_rows = if is_child {
            scale.base_rows * scale.child_factor + rng.gen_range(0..scale.base_rows)
        } else {
            scale.base_rows + rng.gen_range(0..scale.base_rows / 2 + 1)
        };
        for row_id in 1..=n_rows {
            let mut row: Vec<Value> = Vec::with_capacity(cols.len());
            for c in &cols {
                if c.kind == ColKind::Id {
                    row.push(Value::Int(row_id as i64));
                    continue;
                }
                let fk_range = c
                    .fk_to
                    .as_ref()
                    .and_then(|t| row_counts.get(t.as_str()).copied())
                    .unwrap_or(1);
                let v: GenValue = generate(c.kind, c.quirk, &mut rng, fk_range);
                if let Value::Text(stored) = &v.stored {
                    if c.kind.is_textual() {
                        display_of
                            .entry((tmpl.name.to_lowercase(), c.name.to_lowercase()))
                            .or_default()
                            .insert(stored.clone(), v.display.clone());
                    }
                }
                row.push(v.stored);
            }
            database.insert_row(tmpl.name, row).expect("generated rows match schema");
        }
        row_counts.insert(tmpl.name.to_owned(), n_rows as u32);
        tables.push(TableMeta {
            name: tmpl.name.to_owned(),
            noun: tmpl.noun.to_owned(),
            cols,
        });
    }

    // declare the default index set (PKs and FK endpoints) so point
    // lookups and equi-joins plan as index operators; store exports
    // persist the built runs as index sections
    database.ensure_default_indexes();

    BuiltDb {
        id: db_id.to_owned(),
        domain: domain.to_owned(),
        database,
        tables,
        display_of,
        complexity: 1.0,
    }
}

fn describe_column(noun: &str, c: &ColMeta) -> String {
    let pretty = c.name.to_lowercase();
    match c.kind {
        ColKind::Id => format!("unique id of the {}", singular(noun)),
        ColKind::Fk => format!("references {}", c.fk_to.as_deref().unwrap_or("?")),
        _ => format!("the {pretty} of the {}", singular(noun)),
    }
}

fn singular(noun: &str) -> &str {
    noun.strip_suffix('s').unwrap_or(noun)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::themes;

    fn sample() -> BuiltDb {
        let t = themes();
        build_db(&t[0], "healthcare_0", "healthcare", RowScale::tiny(), 0.8, 42)
    }

    #[test]
    fn builds_schema_and_rows() {
        let b = sample();
        assert_eq!(b.database.schema.tables.len(), 3);
        assert!(b.database.total_rows() > 20);
        assert!(!b.database.schema.foreign_keys.is_empty());
    }

    #[test]
    fn fk_integrity_holds() {
        let b = sample();
        for fk in &b.database.schema.foreign_keys.clone() {
            let rs = b
                .database
                .query(&format!(
                    "SELECT COUNT(*) FROM {} WHERE {} NOT IN (SELECT {} FROM {})",
                    fk.table, fk.column, fk.ref_column, fk.ref_table
                ))
                .unwrap();
            assert_eq!(rs.rows[0][0], Value::Int(0), "dangling FK {fk:?}");
        }
    }

    #[test]
    fn display_dictionary_maps_stored_values() {
        let b = sample();
        for table in &b.tables {
            for col in &table.cols {
                if col.kind.is_textual() && col.kind != ColKind::Date {
                    for stored in b.stored_values(&table.name, &col.name) {
                        let display = b.display_form(&table.name, &col.name, &stored).unwrap();
                        assert_eq!(col.quirk.apply(display), stored);
                    }
                }
            }
        }
    }

    #[test]
    fn quirk_rate_zero_keeps_values_clean() {
        let t = themes();
        let b = build_db(&t[1], "edu", "education", RowScale::tiny(), 0.0, 7);
        for table in &b.tables {
            for col in &table.cols {
                assert_eq!(col.quirk, Quirk::None);
            }
        }
    }

    #[test]
    fn deterministic_build() {
        let t = themes();
        let a = build_db(&t[2], "x", "hockey", RowScale::tiny(), 0.5, 99);
        let b = build_db(&t[2], "x", "hockey", RowScale::tiny(), 0.5, 99);
        assert_eq!(a.database.total_rows(), b.database.total_rows());
        let qa = a.database.query("SELECT * FROM Player ORDER BY PlayerID LIMIT 3").unwrap();
        let qb = b.database.query("SELECT * FROM Player ORDER BY PlayerID LIMIT 3").unwrap();
        assert_eq!(qa.rows, qb.rows);
    }

    /// The witness read in `generator` relies on this: row *i* of every
    /// table carries the primary key *i* + 1.
    #[test]
    fn every_row_sits_at_its_primary_key() {
        let dbs_only =
            crate::Profile { train: 0, dev: 0, test: 0, ..crate::Profile::bird_mini_dev() };
        let bench = crate::generate(&dbs_only);
        assert_eq!(bench.dbs.len(), 12);
        for b in &bench.dbs {
            for t in &b.tables {
                let pk = t.cols.iter().position(|c| c.kind == ColKind::Id).unwrap();
                let rows = b.database.rows(&t.name).unwrap();
                assert!(!rows.is_empty(), "{}.{} is empty", b.id, t.name);
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(row[pk], Value::Int(i as i64 + 1), "{}.{} row {i}", b.id, t.name);
                }
            }
        }
    }

    #[test]
    fn descriptions_are_present() {
        let b = sample();
        let schema_text = b.database.schema.describe(None);
        assert!(schema_text.contains("unique id of the patient"));
    }
}
