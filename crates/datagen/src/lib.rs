//! # datagen — synthetic BIRD/Spider-style text-to-SQL benchmarks
//!
//! The data substrate of the OpenSearch-SQL reproduction. Each example is
//! generated from a structured [`spec::QuerySpec`]; the gold SQL and the
//! natural-language question are two renderings of the same spec, and the
//! simulated LLM later recovers (possibly corrupted copies of) specs from
//! questions — see `llmsim`.
//!
//! - [`domain`] — 24 hand-written domain themes, cycled into as many
//!   domain variants as a profile needs;
//! - [`build`] — schema + data materialisation with BIRD-style dirty-value
//!   quirks and display↔stored dictionaries;
//! - [`generator`] — witness-row spec sampling (every gold SQL is
//!   executable and non-empty by construction);
//! - [`nlq`] — question + evidence rendering;
//! - [`mod@bench`] — profiles ([`bench::Profile::bird`],
//!   [`bench::Profile::spider`], [`bench::Profile::bird_mini_dev`]) and
//!   split assembly.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bench;
pub mod build;
pub mod domain;
pub mod export;
pub mod generator;
pub mod nlq;
pub mod spec;
pub mod store;
pub mod values;

pub use bench::{generate, Benchmark, Example, Profile, Split};
pub use export::{split_to_json, write_benchmark, BirdRecord};
pub use store::{export_db_store, export_store, import_store, open_store_catalog, ImportedStore};
pub use build::{BuiltDb, ColMeta, RowScale, TableMeta};
pub use spec::{AggFunc, CmpOp, Difficulty, FilterSpec, OrderSpec, QuerySpec, SelectSpec};
pub use values::{ColKind, Quirk};
