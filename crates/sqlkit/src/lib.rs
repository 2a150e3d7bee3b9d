//! # sqlkit — an in-memory SQL engine with SQLite-flavoured semantics
//!
//! This crate is the database substrate of the OpenSearch-SQL
//! reproduction. It provides:
//!
//! - a tokenizer, recursive-descent [`parser`], and printable [`ast`] for a
//!   SQLite-style dialect covering what BIRD/Spider gold SQL exercises;
//! - an in-memory [`db::Database`] with typed tables and one executor:
//!   every SELECT core lowers to a physical [`plan`] (scans, index scans,
//!   hash / index / nested-loop joins, ordered residual predicates) that
//!   streams through a pipelined operator tree, then through the shared
//!   [`exec`] tail (grouping, aggregates, ORDER BY, LIMIT, set
//!   operations, subqueries);
//! - SQLite-faithful [`value`] semantics: dynamic typing, three-valued
//!   logic, NULL-first ordering, and the Python-style `1 == 1.0` result
//!   normalisation that BIRD's scorer applies;
//! - the error surface (`no such column`, ...) that the pipeline's
//!   Refinement stage dispatches its correction few-shots on.
//!
//! ```
//! use sqlkit::db::Database;
//!
//! let mut db = Database::new("demo");
//! db.execute_script(
//!     "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT);
//!      INSERT INTO t VALUES (1, 'a'), (2, 'b');",
//! ).unwrap();
//! let rs = db.query("SELECT COUNT(*) FROM t").unwrap();
//! assert_eq!(rs.rows[0][0], sqlkit::value::Value::Int(2));
//! ```

#![deny(missing_docs)]
#![deny(unreachable_pub)]
#![warn(unused_qualifications)]
#![warn(clippy::all)]

pub mod analyze;
pub mod ast;
pub mod db;
pub mod diag;
pub mod error;
pub mod exec;
pub mod functions;
pub mod index;
pub mod parser;
pub mod plan;
pub mod prepare;
pub mod printer;
pub mod schema;
pub mod token;
pub mod value;

mod pipelined;
mod scope;
#[cfg(test)]
mod reference;

pub use analyze::{analyze, analyze_sql, bind, Analysis, UnresolvedColumn};
pub use ast::{Expr, SelectStmt, Stmt};
pub use diag::{render_all, Diagnostic, Severity, Span};
pub use db::Database;
pub use error::{SqlError, SqlErrorKind, SqlResult};
pub use exec::{execute_select, execute_select_with_stats, ExecStats};
pub use index::{ColumnIndex, IndexDef};
pub use parser::{parse_script, parse_select, parse_statement};
pub use plan::explain;
pub use prepare::{
    plan_cache, plan_fingerprint, prepare, prepare_stmt, schema_fingerprint, Bound, PlanCache,
    PlanCacheStats, Prepared,
};
pub use printer::{print_expr, print_select, print_stmt};
pub use schema::{ColumnInfo, DbSchema, ForeignKey, SchemaSubset, TableInfo};
pub use value::{NormValue, ResultSet, Row, Value};
