//! Preprocessing (paper §3.3): NLQ-independent assets built once per
//! benchmark — per-database vector indexes over stored string values and
//! column descriptors, the database schema texts, and the self-taught
//! Query-CoT-SQL few-shot library.

use crate::fewshot::FewshotLibrary;
use crate::retrieval::{ColumnIndex, ValueIndex};
use datagen::Benchmark;
use llmsim::LanguageModel;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-database preprocessed assets.
pub struct DbAssets {
    /// Value vector index (string values only).
    pub values: ValueIndex,
    /// Column descriptor index.
    pub columns: ColumnIndex,
    /// The full schema text (`describe(None)`), which every extraction
    /// prompt carries.
    pub schema_text: String,
}

impl DbAssets {
    /// Index one database and describe its schema (the per-database half
    /// of preprocessing).
    pub fn build(db: &datagen::BuiltDb) -> Self {
        DbAssets {
            values: ValueIndex::build(db),
            columns: ColumnIndex::build(db),
            schema_text: db.database.schema.describe(None),
        }
    }
}

/// All preprocessed assets for a benchmark.
///
/// The few-shot library is behind an [`Arc`] so serving layers that
/// preprocess databases lazily (one [`Preprocessed`] per database via
/// [`Preprocessed::for_db`]) can share the one expensive self-taught
/// build across all of them.
pub struct Preprocessed {
    /// The benchmark (databases + splits).
    pub benchmark: Arc<Benchmark>,
    /// Per-database indexes, keyed by db id.
    pub db_assets: HashMap<String, DbAssets>,
    /// The self-taught few-shot library.
    pub fewshot: Arc<FewshotLibrary>,
    /// LLM tokens spent building the few-shot library.
    pub build_tokens: u64,
}

impl Preprocessed {
    /// Run preprocessing: index every database and self-teach the few-shot
    /// library over the train split.
    pub fn run(benchmark: Arc<Benchmark>, llm: &dyn LanguageModel) -> Self {
        let mut db_assets = HashMap::with_capacity(benchmark.dbs.len());
        for db in &benchmark.dbs {
            db_assets.insert(db.id.clone(), DbAssets::build(db));
        }
        let (fewshot, build_tokens) = FewshotLibrary::build(llm, &benchmark.train);
        Preprocessed { benchmark, db_assets, fewshot: Arc::new(fewshot), build_tokens }
    }

    /// Preprocess a *single* database, sharing an already-built few-shot
    /// library. Serving layers use this to build per-database assets on
    /// first demand instead of indexing the whole benchmark up front; the
    /// resulting assets are identical to the eager [`Preprocessed::run`]
    /// entry for that database. Returns `None` for unknown ids.
    pub fn for_db(
        benchmark: Arc<Benchmark>,
        db_id: &str,
        fewshot: Arc<FewshotLibrary>,
        build_tokens: u64,
    ) -> Option<Self> {
        let (id, assets) = {
            let db = benchmark.db(db_id)?;
            (db.id.clone(), DbAssets::build(db))
        };
        let mut db_assets = HashMap::with_capacity(1);
        db_assets.insert(id, assets);
        Some(Preprocessed { benchmark, db_assets, fewshot, build_tokens })
    }

    /// Assets of one database.
    pub fn assets(&self, db_id: &str) -> Option<&DbAssets> {
        self.db_assets.get(db_id)
    }

    /// The built database itself.
    pub fn db(&self, db_id: &str) -> Option<&datagen::BuiltDb> {
        self.benchmark.db(db_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Profile};
    use llmsim::{ModelProfile, Oracle, SimLlm};

    #[test]
    fn preprocessing_builds_all_assets() {
        let bench = Arc::new(generate(&Profile::tiny()));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        let llm = SimLlm::new(oracle, ModelProfile::gpt_4o(), 2);
        let pre = Preprocessed::run(bench.clone(), &llm);
        assert_eq!(pre.db_assets.len(), bench.dbs.len());
        assert_eq!(pre.fewshot.len(), bench.train.len());
        assert!(pre.build_tokens > 0);
        for db in &bench.dbs {
            let assets = pre.assets(&db.id).unwrap();
            assert!(!assets.values.is_empty());
        }
        assert!(pre.db(&bench.dbs[0].id).is_some());
        assert!(pre.assets("nope").is_none());
    }

    #[test]
    fn per_db_preprocessing_matches_eager() {
        let bench = Arc::new(generate(&Profile::tiny()));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        let llm = SimLlm::new(oracle, ModelProfile::gpt_4o(), 2);
        let eager = Preprocessed::run(bench.clone(), &llm);
        let db_id = bench.dbs[0].id.clone();
        let lazy = Preprocessed::for_db(
            bench.clone(),
            &db_id,
            eager.fewshot.clone(),
            eager.build_tokens,
        )
        .unwrap();
        assert_eq!(lazy.db_assets.len(), 1);
        let (a, b) = (eager.assets(&db_id).unwrap(), lazy.assets(&db_id).unwrap());
        assert_eq!(a.values.len(), b.values.len());
        assert!(lazy.assets(&bench.dbs[1].id).is_none(), "only the one db is indexed");
        assert!(Preprocessed::for_db(bench, "ghost", eager.fewshot.clone(), 0).is_none());
    }
}
