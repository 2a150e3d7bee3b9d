//! # llmsim — a deterministic simulated LLM for text-to-SQL pipelines
//!
//! Substitutes for GPT-4o / GPT-4o-mini / GPT-4 in the OpenSearch-SQL
//! reproduction. The pipeline talks to the [`chat::LanguageModel`] trait;
//! [`sim::SimLlm`] implements it as a *noisy oracle*: it recovers each
//! question's structured intent from the benchmark registry
//! ([`oracle::Oracle`]), measures the prompt's quality through the shared
//! [`proto`] markers, and injects hallucinations ([`corrupt`]) whose
//! probabilities are causally tied to what the prompt is missing.
//! Profiles ([`profile::ModelProfile`]) calibrate overall levels; all
//! module-ablation deltas emerge from which error classes each pipeline
//! module can repair.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chat;
pub mod corrupt;
pub mod oracle;
pub mod profile;
pub mod proto;
pub mod sim;

pub use chat::{count_tokens, ChatRequest, ChatResponse, LanguageModel};
pub use corrupt::{Candidate, PromptQuality, Suppression};
pub use oracle::{Oracle, OracleEntry};
pub use profile::{ErrorClass, ModelProfile};
pub use sim::{render_sql_like, SimLlm, Usage};
