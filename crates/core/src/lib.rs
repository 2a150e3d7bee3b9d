//! # opensearch-sql — Text-to-SQL with dynamic few-shot and consistency alignment
//!
//! A from-scratch Rust reproduction of **OpenSearch-SQL** (SIGMOD 2025):
//! a four-stage multi-agent Text-to-SQL pipeline —
//! **Preprocessing → Extraction → Generation → Refinement** — threaded
//! with a consistency-**Alignment** module, driven by self-taught
//! Query-CoT-SQL few-shots selected by masked-question similarity, a
//! SQL-Like intermediate representation inside a structured CoT, and a
//! self-consistency & vote rule over a beam of candidates (paper Eq. 3).
//!
//! The pipeline is generic over any [`llmsim::LanguageModel`]; this
//! workspace ships a deterministic simulated model. See the repository's
//! `examples/` for end-to-end usage:
//!
//! ```
//! use std::sync::Arc;
//! use opensearch_sql::{Pipeline, PipelineConfig, Preprocessed};
//! use llmsim::{ModelProfile, Oracle, SimLlm};
//!
//! let bench = Arc::new(datagen::generate(&datagen::Profile::tiny()));
//! let llm = Arc::new(SimLlm::new(
//!     Arc::new(Oracle::new(bench.clone())),
//!     ModelProfile::gpt_4o(),
//!     7,
//! ));
//! let pre = Arc::new(Preprocessed::run(bench.clone(), llm.as_ref()));
//! let pipeline = Pipeline::new(pre, llm, PipelineConfig::fast());
//!
//! let ex = &bench.dev[0];
//! let (run, result) = pipeline.query(&ex.db_id, &ex.question, &ex.evidence);
//! assert!(run.final_sql.to_uppercase().starts_with("SELECT"));
//! assert!(result.is_ok());
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod alignment;
pub mod config;
pub mod cost;
pub mod eval;
pub mod extraction;
pub mod fewshot;
pub mod generation;
pub mod pipeline;
pub mod preprocess;
pub mod refinement;
pub mod retrieval;
pub mod sqllike;

pub use alignment::align_candidate;
pub use config::{CotMode, FewshotMode, PipelineConfig};
pub use cost::{CostLedger, Module, ModuleCost};
pub use eval::{evaluate, evaluate_with, ves_reward, Answerer, EvalReport};
pub use extraction::ExtractionOutput;
pub use fewshot::FewshotLibrary;
pub use pipeline::{Pipeline, PipelineRun};
pub use preprocess::Preprocessed;
pub use refinement::{vote_margin, RefinedCandidate};
pub use retrieval::{ColumnIndex, ValueHit, ValueIndex};
pub use sqllike::{parse_sql_like, recover_sql, SqlLike};
