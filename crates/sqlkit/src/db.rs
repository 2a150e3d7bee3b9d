//! In-memory database: tables, rows, loading, and the public query entry
//! points.

use crate::ast::{DeleteStmt, Expr, Stmt, TypeName, UpdateStmt};
use crate::error::{SqlError, SqlResult};
use crate::exec::{eval_expr, execute_select, Ctx};
use crate::index::{remove_sorted, ColumnIndex, IndexDef};
use crate::parser::parse_script;
use crate::plan::PhysicalPlan;
use crate::schema::{ColumnInfo, DbSchema, ForeignKey, TableInfo};
use crate::value::{ResultSet, Row, Value};
use std::collections::HashMap;
use osql_chk::RwLock;
use std::sync::Arc;

/// Stored table data.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    /// Rows, each aligned with the table's schema columns.
    pub rows: Vec<Row>,
}

/// Built indexes keyed by lower-cased table, then lower-cased column;
/// `None` marks an index that refused to build.
type IndexCache = RwLock<HashMap<String, HashMap<String, Option<Arc<ColumnIndex>>>>>;

/// `f` applied to `name` lower-cased: on the stack when `name` is short
/// ASCII, through `to_lowercase` otherwise.
pub(crate) fn with_lowercase<R>(name: &str, f: impl FnOnce(&str) -> R) -> R {
    let mut buf = [0u8; 64];
    match buf.get_mut(..name.len()) {
        Some(lower) if name.is_ascii() => {
            lower.copy_from_slice(name.as_bytes());
            lower.make_ascii_lowercase();
            f(std::str::from_utf8(lower).expect("ASCII is UTF-8"))
        }
        _ => f(&name.to_lowercase()),
    }
}

/// An in-memory database: schema plus data.
#[derive(Default)]
pub struct Database {
    /// The logical schema.
    pub schema: DbSchema,
    /// Data per table, keyed by lower-cased name.
    data: HashMap<String, TableData>,
    /// Declared secondary indexes. Declarations are part of the planning
    /// fingerprint ([`crate::prepare::plan_fingerprint`]); built indexes
    /// live in [`Database::index_cache`] and are loaded or rebuilt on
    /// demand.
    indexes: Vec<IndexDef>,
    /// Built indexes keyed by lower-cased table and column. `None` marks
    /// an index that refused to build (NaN in the column) so lookups do
    /// not retry the build on every statement. The cache is kept exact by
    /// every mutation path: an INSERT maintains the table's resident
    /// entries incrementally; an UPDATE moves no rid, so it drops only the
    /// entries on the columns it assigned; a DELETE removes the doomed
    /// rids' entries from every resident index of the table and renumbers
    /// the rest down, and turns an unusable entry back into a bare
    /// declaration, since the NaN that made it so may be gone. A statement
    /// that fails touches nothing, because it changed nothing.
    index_cache: IndexCache,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database {
            schema: self.schema.clone(),
            data: self.data.clone(),
            indexes: self.indexes.clone(),
            index_cache: RwLock::new(
                self.index_cache.read().clone(),
            ),
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("schema", &self.schema)
            .field("data", &self.data)
            .field("indexes", &self.indexes)
            .finish_non_exhaustive()
    }
}

impl Database {
    /// Create an empty database with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            schema: DbSchema::new(name),
            data: HashMap::new(),
            indexes: Vec::new(),
            index_cache: RwLock::new(HashMap::new()),
        }
    }

    /// Declare a secondary index on `table.column`. Duplicate declarations
    /// are ignored; unknown tables or columns are rejected.
    pub fn create_index(&mut self, table: &str, column: &str) -> SqlResult<()> {
        let info = self
            .schema
            .table(table)
            .ok_or_else(|| SqlError::NoSuchTable(table.to_owned()))?;
        if info.column_index(column).is_none() {
            return Err(SqlError::NoSuchColumn(format!("{table}.{column}")));
        }
        let (table, column) = (info.name.clone(), column.to_owned());
        if !self.indexes.iter().any(|d| d.matches(&table, &column)) {
            self.indexes.push(IndexDef { table, column });
        }
        Ok(())
    }

    /// Declare the default index set: every primary-key column plus both
    /// endpoints of every foreign key — the columns that selective point
    /// lookups and equi-joins actually hit.
    pub fn ensure_default_indexes(&mut self) {
        let mut wanted: Vec<(String, String)> = Vec::new();
        for t in &self.schema.tables {
            for c in t.columns.iter().filter(|c| c.primary_key) {
                wanted.push((t.name.clone(), c.name.clone()));
            }
        }
        for fk in &self.schema.foreign_keys {
            wanted.push((fk.table.clone(), fk.column.clone()));
            wanted.push((fk.ref_table.clone(), fk.ref_column.clone()));
        }
        for (t, c) in wanted {
            let _ = self.create_index(&t, &c);
        }
    }

    /// The declared secondary indexes.
    pub fn index_defs(&self) -> &[IndexDef] {
        &self.indexes
    }

    /// Is there an index declared on `table.column`?
    pub fn has_index(&self, table: &str, column: &str) -> bool {
        self.indexes.iter().any(|d| d.matches(table, column))
    }

    /// The built index for `table.column`: `None` when no index is
    /// declared there, or when the column cannot be indexed (contains a
    /// NaN) — callers must fall back to scanning. Builds lazily and
    /// caches.
    pub fn index(&self, table: &str, column: &str) -> Option<Arc<ColumnIndex>> {
        let def = self.indexes.iter().find(|d| d.matches(table, column))?;
        let cached = with_lowercase(&def.table, |t| {
            with_lowercase(&def.column, |c| {
                self.index_cache.read().get(t).and_then(|columns| columns.get(c)).cloned()
            })
        });
        if let Some(cached) = cached {
            return cached;
        }
        let built = self
            .schema
            .table(&def.table)
            .and_then(|info| info.column_index(&def.column))
            .and_then(|col| {
                let rows = self.rows(&def.table).ok()?;
                ColumnIndex::build(rows, col)
            })
            .map(Arc::new);
        self.cache_index(&def.table, &def.column, built.clone());
        built
    }

    /// Install a pre-built index (the store's load path). The declaration
    /// is recorded and the built form becomes resident; an index that does
    /// not match the schema is rejected.
    pub fn install_index(&mut self, def: IndexDef, index: ColumnIndex) -> SqlResult<()> {
        self.create_index(&def.table, &def.column)?;
        self.cache_index(&def.table, &def.column, Some(Arc::new(index)));
        Ok(())
    }

    /// Record that `table.column` is declared but unusable (the store's
    /// load path for an index persisted as unbuildable).
    pub fn install_unusable_index(&mut self, def: IndexDef) -> SqlResult<()> {
        self.create_index(&def.table, &def.column)?;
        self.cache_index(&def.table, &def.column, None);
        Ok(())
    }

    fn cache_index(&self, table: &str, column: &str, built: Option<Arc<ColumnIndex>>) {
        let mut cache = self.index_cache.write();
        cache.entry(table.to_lowercase()).or_default().insert(column.to_lowercase(), built);
    }

    /// Drop resident indexes of `table`; they rebuild lazily on the next
    /// lookup (the test-only reference's DML, and tests comparing against
    /// a rebuild).
    #[cfg(test)]
    pub(crate) fn drop_resident_indexes(&mut self, table: &str) {
        self.index_cache.get_mut().remove(&table.to_lowercase());
    }

    /// Create a table programmatically. It declares no index: a primary
    /// key is indexed only by a CREATE TABLE statement
    /// ([`Database::execute_script`]) or by an explicit declaration.
    pub fn create_table(&mut self, info: TableInfo) -> SqlResult<()> {
        if self.schema.table(&info.name).is_some() {
            return Err(SqlError::Other(format!("table {} already exists", info.name)));
        }
        self.data.insert(info.name.to_lowercase(), TableData::default());
        self.schema.tables.push(info);
        Ok(())
    }

    /// Register a foreign key.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) {
        self.schema.foreign_keys.push(fk);
    }

    /// Append a row, applying column type affinity coercion.
    pub fn insert_row(&mut self, table: &str, row: Row) -> SqlResult<()> {
        let info = self
            .schema
            .table(table)
            .ok_or_else(|| SqlError::NoSuchTable(table.to_owned()))?;
        if row.len() != info.columns.len() {
            return Err(SqlError::Other(format!(
                "table {} has {} columns but {} values were supplied",
                info.name,
                info.columns.len(),
                row.len()
            )));
        }
        let coerced: Row = row
            .into_iter()
            .zip(&info.columns)
            .map(|(v, c)| apply_affinity(v, c.ty))
            .collect();
        with_lowercase(&info.name, |table_key| {
            let rows = &mut self
                .data
                .get_mut(table_key)
                .expect("data bucket exists for every schema table")
                .rows;
            let rid = rows.len() as u32;
            // keep the table's resident indexes exact, or mark the ones the
            // new value poisons (NaN) unusable
            if let Some(cache) = self.index_cache.get_mut().get_mut(table_key) {
                for (column, slot) in cache.iter_mut() {
                    // the key is the Unicode lower-casing, so match it that way
                    let col = info
                        .columns
                        .iter()
                        .position(|c| with_lowercase(&c.name, |k| k == column));
                    // known-unusable stays unusable until rebuilt
                    let (Some(ix), Some(col)) = (slot.as_mut(), col) else {
                        continue;
                    };
                    if !Arc::make_mut(ix).insert_appended(&coerced[col], rid) {
                        *slot = None;
                    }
                }
            }
            rows.push(coerced);
        });
        Ok(())
    }

    /// Bulk-append rows.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> SqlResult<()> {
        for r in rows {
            self.insert_row(table, r)?;
        }
        Ok(())
    }

    /// Rows of a table.
    pub fn rows(&self, table: &str) -> SqlResult<&[Row]> {
        with_lowercase(table, |key| self.data.get(key))
            .map(|t| t.rows.as_slice())
            .ok_or_else(|| SqlError::NoSuchTable(table.to_owned()))
    }

    /// The rows of a table, to rewrite in place (the test-only reference).
    #[cfg(test)]
    pub(crate) fn rows_mut(&mut self, table: &str) -> &mut Vec<Row> {
        &mut self.data.get_mut(&table.to_lowercase()).expect("a schema table").rows
    }

    /// Total row count across all tables.
    pub fn total_rows(&self) -> usize {
        self.data.values().map(|t| t.rows.len()).sum()
    }

    /// Run a SELECT and materialise the result.
    pub fn query(&self, sql: &str) -> SqlResult<ResultSet> {
        let prepared = crate::prepare::prepare_stmt(self, crate::parser::parse_select(sql)?);
        prepared.run(self, prepared.fingerprint()).0
    }

    /// Run a pre-parsed SELECT.
    pub fn query_stmt(&self, stmt: &crate::ast::SelectStmt) -> SqlResult<ResultSet> {
        execute_select(self, stmt)
    }

    /// Bind the expressions of an UPDATE or DELETE over `table` in place
    /// and lower its row search — `FROM table WHERE where_clause` — so that
    /// the planner picks the sargs and the declared index a SELECT would.
    fn dml_plan(
        &self,
        table: &TableInfo,
        where_clause: &mut Option<Expr>,
        set: &mut [(String, Expr)],
    ) -> PhysicalPlan {
        let exprs = where_clause.iter_mut().chain(set.iter_mut().map(|(_, e)| e));
        let layout = crate::prepare::bind_dml(self, table, exprs);
        crate::plan::lower_dml(self, table, layout, where_clause.as_ref())
    }

    /// Find → evaluate, the read-only half of an UPDATE or DELETE over
    /// `table`: the rids `where_clause` selects, ascending, and the value
    /// of every `set` expression on each of them, row-major. Everything
    /// is read from `&self`, which no part of the statement has touched
    /// yet — that is what makes expressions see the pre-statement state.
    fn dml_targets(
        &self,
        table: &TableInfo,
        where_clause: &mut Option<Expr>,
        set: &mut [(String, Expr)],
    ) -> SqlResult<(Vec<u32>, Vec<Value>)> {
        let plan = self.dml_plan(table, where_clause, set);
        // one context for the whole statement: its sub-select caches key
        // on the addresses of `plan`'s and `set`'s nodes, which outlive it
        let mut ctx = Ctx::new(self);
        let rids = crate::pipelined::base_rids(&mut ctx, &plan)?;
        let rows = self.rows(&table.name)?;
        let mut values = Vec::with_capacity(rids.len() * set.len());
        for &rid in &rids {
            for (_, e) in set.iter() {
                values.push(eval_expr(&mut ctx, e, rows[rid as usize].as_slice())?);
            }
        }
        Ok((rids, values))
    }

    /// Execute one UPDATE, returning the number of rows changed. Every
    /// expression reads the state before the statement, and a statement
    /// that fails changes nothing: rows are written only after the search
    /// and every SET expression have succeeded. The statement is bound in
    /// place, so it is taken, not borrowed.
    pub fn execute_update(&mut self, mut u: UpdateStmt) -> SqlResult<usize> {
        let info = self
            .schema
            .table(&u.table)
            .ok_or_else(|| SqlError::NoSuchTable(u.table.clone()))?;
        // resolve assignment targets up front
        let targets: Vec<(usize, TypeName)> = u
            .assignments
            .iter()
            .map(|(c, _)| {
                info.column_index(c)
                    .map(|i| (i, info.columns[i].ty))
                    .ok_or_else(|| SqlError::NoSuchColumn(format!("{}.{}", info.name, c)))
            })
            .collect::<SqlResult<_>>()?;
        let (rids, values) = self.dml_targets(info, &mut u.where_clause, &mut u.assignments)?;
        if rids.is_empty() {
            return Ok(0);
        }
        with_lowercase(&info.name, |table_key| {
            let rows = &mut self
                .data
                .get_mut(table_key)
                .expect("data bucket exists for every schema table")
                .rows;
            let mut values = values.into_iter();
            for &rid in &rids {
                for (&(col, ty), v) in targets.iter().zip(values.by_ref()) {
                    rows[rid as usize][col] = apply_affinity(v, ty);
                }
            }
            // no rid moved: only an index on an assigned column is stale
            if let Some(cache) = self.index_cache.get_mut().get_mut(table_key) {
                cache.retain(|c, _| {
                    !targets
                        .iter()
                        .any(|&(col, _)| with_lowercase(&info.columns[col].name, |k| k == c))
                });
            }
        });
        Ok(rids.len())
    }

    /// Execute one DELETE, returning the number of rows removed. A
    /// statement that fails removes nothing. Like an UPDATE, it is taken.
    pub fn execute_delete(&mut self, mut d: DeleteStmt) -> SqlResult<usize> {
        let info = self
            .schema
            .table(&d.table)
            .ok_or_else(|| SqlError::NoSuchTable(d.table.clone()))?;
        let (rids, _) = self.dml_targets(info, &mut d.where_clause, &mut [])?;
        if rids.is_empty() {
            return Ok(0);
        }
        with_lowercase(&info.name, |table_key| {
            let rows = &mut self
                .data
                .get_mut(table_key)
                .expect("data bucket exists for every schema table")
                .rows;
            // the survivors keep their order (`dump_script` order) and close
            // the gaps
            remove_sorted(rows, &rids);
            if let Some(cache) = self.index_cache.get_mut().get_mut(table_key) {
                cache.retain(|_, slot| match slot {
                    Some(ix) => {
                        Arc::make_mut(ix).remove_rows(&rids);
                        true
                    }
                    // the NaN that made it unusable may be gone: back to a
                    // declaration, rebuilt on the next lookup
                    None => false,
                });
            }
        });
        Ok(rids.len())
    }

    /// Serialise the whole database as a SQL script (CREATE TABLE + batch
    /// INSERTs) that [`Database::execute_script`] reloads into an
    /// identical database — the engine's persistence format.
    pub fn dump_script(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(4096);
        for table in &self.schema.tables {
            // CREATE TABLE
            let create = crate::ast::CreateTableStmt {
                name: table.name.clone(),
                columns: table
                    .columns
                    .iter()
                    .map(|c| crate::ast::ColumnDecl {
                        name: c.name.clone(),
                        ty: c.ty,
                        primary_key: c.primary_key,
                    })
                    .collect(),
                primary_key: Vec::new(),
                foreign_keys: self
                    .schema
                    .foreign_keys
                    .iter()
                    .filter(|fk| fk.table.eq_ignore_ascii_case(&table.name))
                    .map(|fk| crate::ast::ForeignKeyDecl {
                        column: fk.column.clone(),
                        ref_table: fk.ref_table.clone(),
                        ref_column: fk.ref_column.clone(),
                    })
                    .collect(),
            };
            let _ = writeln!(
                out,
                "{};",
                crate::printer::print_stmt(&Stmt::CreateTable(create))
            );
            // batched INSERTs (500 rows per statement keeps lines sane)
            let rows = self.rows(&table.name).expect("schema tables have data buckets");
            for chunk in rows.chunks(500) {
                if chunk.is_empty() {
                    continue;
                }
                let insert = crate::ast::InsertStmt {
                    table: table.name.clone(),
                    columns: None,
                    rows: chunk
                        .iter()
                        .map(|r| {
                            r.iter().map(|v| Expr::Literal(v.clone())).collect()
                        })
                        .collect(),
                };
                let _ = writeln!(
                    out,
                    "{};",
                    crate::printer::print_stmt(&Stmt::Insert(insert))
                );
            }
        }
        out
    }

    /// Execute a script of CREATE TABLE / INSERT statements (SELECTs in the
    /// script are executed and their results discarded). A CREATE TABLE
    /// declares an index on each PRIMARY KEY column, as SQLite's autoindex
    /// does.
    pub fn execute_script(&mut self, sql: &str) -> SqlResult<()> {
        for stmt in parse_script(sql)? {
            match stmt {
                Stmt::CreateTable(c) => {
                    let info = TableInfo {
                        name: c.name.clone(),
                        columns: c
                            .columns
                            .iter()
                            .map(|col| ColumnInfo {
                                name: col.name.clone(),
                                ty: col.ty,
                                description: String::new(),
                                primary_key: col.primary_key
                                    || c.primary_key
                                        .iter()
                                        .any(|p| p.eq_ignore_ascii_case(&col.name)),
                            })
                            .collect(),
                    };
                    // SQLite indexes every primary key (the rowid or an
                    // autoindex); `create_table` alone declares none
                    let keys: Vec<String> = info
                        .columns
                        .iter()
                        .filter(|col| col.primary_key)
                        .map(|col| col.name.clone())
                        .collect();
                    self.create_table(info)?;
                    for key in &keys {
                        self.create_index(&c.name, key)?;
                    }
                    for fk in c.foreign_keys {
                        self.add_foreign_key(ForeignKey {
                            table: c.name.clone(),
                            column: fk.column,
                            ref_table: fk.ref_table,
                            ref_column: fk.ref_column,
                        });
                    }
                }
                Stmt::Insert(ins) => {
                    let table = self
                        .schema
                        .tables
                        .iter()
                        .position(|t| t.name.eq_ignore_ascii_case(&ins.table))
                        .ok_or_else(|| SqlError::NoSuchTable(ins.table.clone()))?;
                    for row_exprs in ins.rows {
                        let info = &self.schema.tables[table];
                        let mut row = vec![Value::Null; info.columns.len()];
                        match &ins.columns {
                            Some(cols) => {
                                if cols.len() != row_exprs.len() {
                                    return Err(SqlError::Other(
                                        "INSERT value count differs from column list".into(),
                                    ));
                                }
                                for (name, expr) in cols.iter().zip(row_exprs) {
                                    let idx = info.column_index(name).ok_or_else(|| {
                                        SqlError::NoSuchColumn(format!("{}.{}", ins.table, name))
                                    })?;
                                    row[idx] = const_value(expr)?;
                                }
                            }
                            None => {
                                if row_exprs.len() != info.columns.len() {
                                    return Err(SqlError::Other(
                                        "INSERT value count differs from table arity".into(),
                                    ));
                                }
                                for (idx, expr) in row_exprs.into_iter().enumerate() {
                                    row[idx] = const_value(expr)?;
                                }
                            }
                        }
                        self.insert_row(&ins.table, row)?;
                    }
                }
                Stmt::Update(u) => {
                    self.execute_update(u)?;
                }
                Stmt::Delete(d) => {
                    self.execute_delete(d)?;
                }
                Stmt::Select(s) => {
                    execute_select(self, &s)?;
                }
            }
        }
        Ok(())
    }
}

/// The value of an INSERT's expression: a literal is moved out, anything
/// else evaluated with no row.
fn const_value(e: Expr) -> SqlResult<Value> {
    match e {
        Expr::Literal(v) => Ok(v),
        e => crate::exec::eval_const(&e),
    }
}

/// Apply SQLite column affinity on insert: INTEGER/REAL columns coerce
/// numeric-looking text, TEXT columns stringify numbers.
pub fn apply_affinity(v: Value, ty: TypeName) -> Value {
    match (ty, v) {
        (_, Value::Null) => Value::Null,
        (TypeName::Integer, Value::Real(r)) if r.fract() == 0.0 && r.is_finite() => {
            Value::Int(r as i64)
        }
        (TypeName::Integer, Value::Text(t)) => match t.trim().parse::<i64>() {
            Ok(i) => Value::Int(i),
            Err(_) => match t.trim().parse::<f64>() {
                Ok(f) => Value::Real(f),
                Err(_) => Value::Text(t),
            },
        },
        (TypeName::Real, Value::Int(i)) => Value::Real(i as f64),
        (TypeName::Real, Value::Text(t)) => match t.trim().parse::<f64>() {
            Ok(f) => Value::Real(f),
            Err(_) => Value::Text(t),
        },
        (TypeName::Text, Value::Int(i)) => Value::Text(i.to_string()),
        (TypeName::Text, Value::Real(r)) => Value::Text(Value::Real(r).to_string()),
        (_, v) => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new("test");
        db.execute_script(
            "CREATE TABLE person (id INTEGER PRIMARY KEY, name TEXT, age INTEGER);\
             INSERT INTO person VALUES (1, 'Ann', 30), (2, 'Bob', 41), (3, 'Cal', NULL);",
        )
        .unwrap();
        db
    }

    #[test]
    fn script_builds_schema_and_data() {
        let db = db();
        assert_eq!(db.schema.table("person").unwrap().columns.len(), 3);
        assert_eq!(db.rows("person").unwrap().len(), 3);
        assert_eq!(db.total_rows(), 3);
    }

    #[test]
    fn affinity_coercion() {
        assert_eq!(apply_affinity(Value::text("12"), TypeName::Integer), Value::Int(12));
        assert_eq!(apply_affinity(Value::text("1.5"), TypeName::Integer), Value::Real(1.5));
        assert_eq!(apply_affinity(Value::text("x"), TypeName::Integer), Value::text("x"));
        assert_eq!(apply_affinity(Value::Int(3), TypeName::Real), Value::Real(3.0));
        assert_eq!(apply_affinity(Value::Int(3), TypeName::Text), Value::text("3"));
        assert_eq!(apply_affinity(Value::Null, TypeName::Integer), Value::Null);
    }

    #[test]
    fn insert_arity_checked() {
        let mut db = db();
        assert!(db.insert_row("person", vec![Value::Int(9)]).is_err());
        assert!(db.insert_row("ghost", vec![]).is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let info = TableInfo { name: "PERSON".into(), columns: vec![] };
        assert!(db.create_table(info).is_err());
    }

    #[test]
    fn dump_script_round_trips() {
        let db = db();
        let script = db.dump_script();
        let mut reloaded = Database::new("copy");
        reloaded.execute_script(&script).unwrap();
        assert_eq!(reloaded.schema.tables.len(), db.schema.tables.len());
        assert_eq!(reloaded.total_rows(), db.total_rows());
        let a = db.query("SELECT * FROM person ORDER BY id").unwrap();
        let b = reloaded.query("SELECT * FROM person ORDER BY id").unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(reloaded.schema.foreign_keys, db.schema.foreign_keys);
    }

    #[test]
    fn update_changes_matching_rows() {
        let mut db = db();
        db.execute_script("UPDATE person SET age = age + 1 WHERE name = 'Ann'").unwrap();
        let rs = db.query("SELECT age FROM person WHERE name = 'Ann'").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(31)]]);
        // others untouched
        let rs = db.query("SELECT age FROM person WHERE name = 'Bob'").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(41)]]);
    }

    #[test]
    fn update_without_where_touches_everything() {
        let mut db = db();
        let stmt = crate::parser::parse_statement("UPDATE person SET age = 1").unwrap();
        let Stmt::Update(u) = stmt else { panic!() };
        let n = db.execute_update(u).unwrap();
        assert_eq!(n, 3);
        let rs = db.query("SELECT DISTINCT age FROM person").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn update_applies_column_affinity() {
        let mut db = db();
        db.execute_script("UPDATE person SET age = '55' WHERE id = 1").unwrap();
        let rs = db.query("SELECT age FROM person WHERE id = 1").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(55)]]);
    }

    #[test]
    fn update_with_subquery_reads_pre_update_state() {
        let mut db = db();
        // set everyone to the pre-update maximum age
        db.execute_script("UPDATE person SET age = (SELECT MAX(age) FROM person)").unwrap();
        let rs = db.query("SELECT DISTINCT age FROM person").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(41)]]);
    }

    #[test]
    fn delete_removes_matching_rows() {
        let mut db = db();
        let stmt = crate::parser::parse_statement("DELETE FROM person WHERE age IS NULL").unwrap();
        let Stmt::Delete(d) = stmt else { panic!() };
        assert_eq!(db.execute_delete(d).unwrap(), 1);
        assert_eq!(db.rows("person").unwrap().len(), 2);
        // delete everything
        db.execute_script("DELETE FROM person").unwrap();
        assert!(db.rows("person").unwrap().is_empty());
    }

    #[test]
    fn update_delete_error_surfaces() {
        let mut db = db();
        assert!(matches!(
            db.execute_script("UPDATE ghost SET x = 1"),
            Err(SqlError::NoSuchTable(_))
        ));
        assert!(matches!(
            db.execute_script("UPDATE person SET ghost = 1"),
            Err(SqlError::NoSuchColumn(_))
        ));
        assert!(matches!(
            db.execute_script("DELETE FROM person WHERE ghost = 1"),
            Err(SqlError::NoSuchColumn(_))
        ));
        // failed DELETE must not remove anything
        assert_eq!(db.rows("person").unwrap().len(), 3);
    }

    /// `person` with a declared index on `id` and resident ones on `name`
    /// and `age`.
    fn indexed_db() -> Database {
        let mut db = db();
        for col in ["id", "name", "age"] {
            db.create_index("person", col).unwrap();
        }
        assert!(db.index("person", "name").is_some() && db.index("person", "age").is_some());
        db
    }

    fn resident(db: &Database, column: &str) -> bool {
        db.index_cache.read().get("person").is_some_and(|columns| columns.contains_key(column))
    }

    /// The answers of `db` to point and range reads through its indexes
    /// equal those of a copy whose resident indexes were all dropped.
    fn assert_indexes_answer_like_scans(db: &Database) {
        assert_answers_like_scans(
            db,
            "person",
            &[
                "SELECT * FROM person WHERE name = 'Ann'",
                "SELECT * FROM person WHERE name = 'x'",
                "SELECT * FROM person WHERE name > 'B'",
                "SELECT * FROM person WHERE age = 41",
                "SELECT * FROM person WHERE age BETWEEN 30 AND 99",
                "SELECT * FROM person WHERE id IN (1, 3)",
            ],
        );
    }

    /// `db` answers each of `queries` as a copy does whose resident
    /// indexes of `table` were all dropped.
    fn assert_answers_like_scans(db: &Database, table: &str, queries: &[&str]) {
        let mut rebuilt = db.clone();
        rebuilt.drop_resident_indexes(table);
        for sql in queries {
            assert_eq!(db.query(sql).unwrap().rows, rebuilt.query(sql).unwrap().rows, "{sql}");
        }
    }

    #[test]
    fn failed_update_changes_nothing_and_keeps_indexes_exact() {
        let mut db = indexed_db();
        let before = db.dump_script();
        // OR short-circuits on row 1 and fails on row 2
        let err = db.execute_script("UPDATE person SET name = 'x' WHERE id = 1 OR ghost = 1");
        assert_eq!(err, Err(SqlError::NoSuchColumn("ghost".into())));
        assert_eq!(db.dump_script(), before, "a failed UPDATE must not rewrite any row");
        assert!(resident(&db, "name"), "nothing changed, so nothing is stale");
        assert_indexes_answer_like_scans(&db);
        // a SET expression that fails on a later row
        let err = db.execute_script(
            "UPDATE person SET age = (SELECT 1, 2 FROM person WHERE person.age IS NULL) + age",
        );
        assert!(matches!(err, Err(SqlError::SubqueryShape(_))), "{err:?}");
        assert_eq!(db.dump_script(), before);
        assert_indexes_answer_like_scans(&db);
    }

    #[test]
    fn failed_delete_removes_nothing() {
        let mut db = indexed_db();
        let before = db.dump_script();
        let err = db.execute_script("DELETE FROM person WHERE id = 1 OR ghost = 1");
        assert_eq!(err, Err(SqlError::NoSuchColumn("ghost".into())));
        assert_eq!(db.dump_script(), before, "a failed DELETE must not remove any row");
        assert!(resident(&db, "name") && resident(&db, "age"));
        assert_indexes_answer_like_scans(&db);
    }

    #[test]
    fn update_drops_only_the_indexes_it_assigned() {
        let mut db = indexed_db();
        db.execute_script("UPDATE person SET name = 'x' WHERE id = 2").unwrap();
        assert!(!resident(&db, "name"), "the assigned column's index is stale");
        assert!(resident(&db, "age"), "no rid moved: other indexes stay resident");
        assert_indexes_answer_like_scans(&db);
        // an UPDATE that matches nothing invalidates nothing
        assert!(db.index("person", "name").is_some());
        db.execute_script("UPDATE person SET name = 'y', age = 1 WHERE id = 99").unwrap();
        assert!(resident(&db, "name") && resident(&db, "age"));
        // mixed DML: inserts maintain, deletes renumber the table's indexes
        db.execute_script(
            "INSERT INTO person VALUES (4, 'Dee', 41);
             UPDATE person SET age = age + 1 WHERE name = 'Dee';
             INSERT INTO person VALUES (5, 'Eve', 42);",
        )
        .unwrap();
        assert!(resident(&db, "name") && !resident(&db, "age"));
        assert_indexes_answer_like_scans(&db);
        db.execute_script("DELETE FROM person WHERE id = 1").unwrap();
        assert!(resident(&db, "name") && resident(&db, "id"), "a DELETE keeps them resident");
        assert_indexes_answer_like_scans(&db);
    }

    #[test]
    fn deleting_the_only_nan_makes_the_index_buildable() {
        let mut db = indexed_db();
        let nan = vec![Value::Int(4), Value::text("Nan"), Value::Real(f64::NAN)];
        db.insert_row("person", nan).unwrap();
        assert!(db.index("person", "age").is_none(), "a NaN makes the column unbuildable");
        assert!(resident(&db, "age"), "the refusal is cached");
        db.execute_script("DELETE FROM person WHERE id = 4").unwrap();
        let rebuilt = ColumnIndex::build(db.rows("person").unwrap(), 2).expect("no NaN left");
        let ix = db.index("person", "age").expect("buildable again");
        assert_eq!(ix.entries(), rebuilt.entries());
        assert_eq!((ix.distinct(), ix.table_rows()), (rebuilt.distinct(), rebuilt.table_rows()));
    }

    /// The cache keys a non-ASCII column by its Unicode lower-casing, and
    /// the DML upkeep finds the column under that key: an INSERT extends
    /// the key's index and an UPDATE of the key drops it.
    #[test]
    fn dml_upkeep_finds_non_ascii_columns() {
        let mut db = Database::new("floors");
        db.execute_script(
            "CREATE TABLE Plan (\"Étage\" INTEGER PRIMARY KEY, nom TEXT);
             INSERT INTO Plan VALUES (1, 'rez'), (2, 'premier');",
        )
        .unwrap();
        let queries = [
            "SELECT * FROM Plan WHERE \"Étage\" = 3",
            "SELECT * FROM Plan WHERE \"Étage\" = 7",
            "SELECT * FROM Plan WHERE \"Étage\" > 1",
        ];
        assert!(db.index("Plan", "Étage").is_some(), "the key is indexed");
        db.execute_script("INSERT INTO Plan VALUES (3, 'deuxième')").unwrap();
        let ix = db.index("Plan", "Étage").expect("still resident");
        assert_eq!(ix.table_rows(), 3, "the INSERT reached the index");
        assert_answers_like_scans(&db, "Plan", &queries);
        db.execute_script("UPDATE Plan SET \"Étage\" = 7 WHERE nom = 'rez'").unwrap();
        assert_answers_like_scans(&db, "Plan", &queries);
    }

    /// UPDATE and DELETE find their rows through the planner: the search
    /// of a keyed statement is an index scan when the key has a declared
    /// index and a sarg-filtered scan when it has none.
    #[test]
    fn dml_row_search_is_planned() {
        let explain = |db: &Database, sql: &str| {
            let Stmt::Update(mut u) = crate::parser::parse_statement(sql).unwrap() else { panic!() };
            let info = db.schema.table(&u.table).unwrap();
            let plan = db.dml_plan(info, &mut u.where_clause, &mut u.assignments);
            plan.render(&[Default::default(); 2])
        };
        // built with `create_table`, so the key has no index until declared
        let mut db = Database::new("big");
        let column = |name: &str, primary_key| ColumnInfo {
            name: name.into(),
            ty: TypeName::Integer,
            description: String::new(),
            primary_key,
        };
        let columns = vec![column("id", true), column("age", false)];
        db.create_table(TableInfo { name: "person".into(), columns }).unwrap();
        for i in 0..100 {
            db.insert_row("person", vec![Value::Int(i), Value::Int(i % 7)]).unwrap();
        }
        let sql = "UPDATE person SET age = age + 1 WHERE id = 40 AND age + 0 > 1";
        let scan = explain(&db, sql);
        assert!(scan.contains("-> Scan person | filter: id = 40"), "got:\n{scan}");
        assert!(scan.contains("Residual (1 conjuncts)"), "got:\n{scan}");
        db.ensure_default_indexes();
        let ix = explain(&db, sql);
        assert!(ix.contains("-> IxScan person (id = 40)"), "got:\n{ix}");
        // a column the binder cannot resolve turns pushdown off, as in a SELECT
        let naive = explain(&db, "UPDATE person SET age = 1 WHERE id = 40 AND ghost = 1");
        assert!(naive.contains("-> Scan person  ["), "got:\n{naive}");
        assert!(naive.contains("Residual (2 conjuncts)"), "got:\n{naive}");
        assert_eq!(db.execute_script(sql), Ok(()));
        let rs = db.query("SELECT age FROM person WHERE id = 40").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(40 % 7 + 1)]]);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = db();
        db.execute_script("INSERT INTO person (id, name) VALUES (4, 'Dee')").unwrap();
        let rows = db.rows("person").unwrap();
        assert_eq!(rows[3], vec![Value::Int(4), Value::text("Dee"), Value::Null]);
    }
}
