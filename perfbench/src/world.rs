//! The generated world every workload runs on, the answer key its served
//! SQL is checked against, and the scratch directory for on-disk state.

use datagen::{Benchmark, Example, Profile};
use llmsim::{LanguageModel, ModelProfile, Oracle, SimLlm};
use opensearch_sql::{Pipeline, PipelineConfig, Preprocessed};
use osql_runtime::ResultKey;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// How big a run is. `Full` is what `BENCHMARK.json` measures; `Smoke` is
/// the same code on the tiny world with one short round, for the test
/// suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `Profile::bird_mini_dev()`: 12 databases, 500 dev questions.
    Full,
    /// `Profile::tiny()`: 2 databases, 16 dev questions.
    Smoke,
}

/// The pipeline configuration under test: the paper's (21 candidates),
/// single-threaded refinement so the two server workers are the only
/// parallelism.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig::full().with_refine_threads(1)
}

/// The generation profile at a scale. Its own master seed is kept: twelve
/// databases are too small a sample of schemas to re-draw per run — with
/// `Profile.seed` taken from `--seed`, p50 of unchanged code moved ±15%
/// from seed to seed, more than any bound this benchmark could then hold.
/// `--seed` instead drives what is sampled *over* the world: the order
/// questions are asked in, the order databases are paged in, the transaction
/// mix and the database the write path runs on.
pub fn profile(scale: Scale) -> Profile {
    match scale {
        Scale::Full => Profile::bird_mini_dev(),
        Scale::Smoke => Profile::tiny(),
    }
}

/// The simulated model's seed. Fixed, like the world: the model's noise
/// decides which questions are answered right, so with it drawn per run
/// `ex_pct` of unchanged code read 62.5–71.9; fixed, `ex_pct` repeats
/// exactly and any change to it is a change in what the pipeline answers.
const MODEL_SEED: u64 = 0xCAFE;

/// A generated benchmark plus the simulated model that answers for it.
pub struct World {
    /// Databases and splits.
    pub bench: Arc<Benchmark>,
    /// The simulated model.
    pub llm: Arc<dyn LanguageModel>,
}

impl World {
    /// The dev questions, one per result-cache key: the server's result
    /// cache keys on the normalised question, so two dev examples that
    /// normalise alike are one request to it.
    pub fn distinct_dev(&self) -> Vec<&Example> {
        let mut seen = std::collections::HashSet::new();
        self.bench
            .dev
            .iter()
            .filter(|ex| seen.insert(ResultKey::new(&ex.db_id, &ex.question, &ex.evidence, 0)))
            .collect()
    }

    /// Generate the world.
    pub fn generate(scale: Scale) -> World {
        let bench = Arc::new(datagen::generate(&profile(scale)));
        let oracle = Arc::new(Oracle::new(bench.clone()));
        let llm = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), MODEL_SEED));
        World { bench, llm }
    }
}

/// One distinct request and what the server must answer for it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeyEntry {
    /// Target database.
    pub db_id: String,
    /// Question text.
    pub question: String,
    /// Evidence text.
    pub evidence: String,
    /// `final_sql` of a sequential `Pipeline::answer`.
    pub sql: String,
    /// Whether that SQL's rows equal the gold SQL's rows.
    pub ex_ok: bool,
}

/// Expected SQL for every distinct dev question, computed outside the
/// server by sequential `Pipeline::answer` over independently built eager
/// assets. A served `sql` must equal its entry byte for byte — the repo's
/// determinism contract, eager and paged.
///
/// A measuring run computes it in a child process ([`AnswerKey::from_child`]):
/// the key needs a second copy of every asset, and that copy must not count
/// towards the server's `peak_rss_mb`, warm its plan cache, or heat the CPU
/// right before set-up is timed. The key depends on the build and on
/// nothing a run is given, so it is kept beside the build's other outputs
/// and computed again only when the executable changes: the seconds it
/// takes go into measuring instead.
pub struct AnswerKey {
    /// Distinct dev questions in dev-split order.
    pub entries: Vec<KeyEntry>,
    /// Keyed the way the server's result cache is (normalised text), with
    /// fingerprint 0 standing in for "this run's configuration".
    by_request: HashMap<ResultKey, usize>,
    /// Seconds spent computing the key (reported, never part of `setup_s`).
    pub secs: f64,
}

impl AnswerKey {
    /// Compute the key on `threads` threads (answers do not depend on it).
    pub fn compute(world: &World, threads: usize) -> AnswerKey {
        let started = Instant::now();
        let pre = Arc::new(Preprocessed::run(world.bench.clone(), world.llm.as_ref()));
        let pipeline = Pipeline::new(pre, world.llm.clone(), pipeline_config());
        let distinct = world.distinct_dev();
        let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
        let mut entries: Vec<KeyEntry> = Vec::with_capacity(distinct.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = distinct
                .chunks(chunk)
                .map(|part| {
                    let (pipeline, bench) = (&pipeline, &world.bench);
                    scope.spawn(move || {
                        part.iter()
                            .map(|ex| key_entry(pipeline, bench, ex))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                entries.extend(handle.join().expect("answer-key thread panicked"));
            }
        });
        AnswerKey::index(entries, started.elapsed().as_secs_f64())
    }

    fn index(entries: Vec<KeyEntry>, secs: f64) -> AnswerKey {
        let by_request = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (ResultKey::new(&e.db_id, &e.question, &e.evidence, 0), i))
            .collect();
        AnswerKey {
            entries,
            by_request,
            secs,
        }
    }

    /// Write the key as JSON (the child's half of [`AnswerKey::from_child`]).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let file = KeyFile {
            built: String::new(),
            secs: self.secs,
            entries: self.entries.clone(),
        };
        let text = serde_json::to_string(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The key of this build at `scale`: read back from [`output_dir`] if
    /// this executable wrote it, otherwise computed in a child process
    /// (`benchmark answer-key …`, waited for before this returns) and kept.
    pub fn from_child(scale: Scale) -> Result<AnswerKey, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let built = std::fs::metadata(&exe)
            .and_then(|m| Ok((m.len(), m.modified()?)))
            .map(|(len, at)| format!("{len} bytes, modified {at:?}"))
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let dir = output_dir();
        let kept = dir.join(match scale {
            Scale::Full => "answer-key.json",
            Scale::Smoke => "answer-key-smoke.json",
        });
        let read = |path: &Path| -> Option<KeyFile> {
            serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
        };
        if let Some(file) = read(&kept).filter(|file| file.built == built) {
            return Ok(AnswerKey::index(file.entries, file.secs));
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let fresh = dir.join(format!("answer-key-{}.json", std::process::id()));
        let mut cmd = std::process::Command::new(exe);
        cmd.arg("answer-key").arg("--out").arg(&fresh);
        if scale == Scale::Smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("spawn answer-key: {e}"))?;
        if !status.success() {
            return Err(format!("answer-key child failed: {status}"));
        }
        let mut file = read(&fresh).ok_or("the answer-key child wrote no key")?;
        file.built = built;
        let text = serde_json::to_string(&file).map_err(|e| e.to_string())?;
        // written whole, then renamed over the old one
        std::fs::write(&fresh, text)
            .and_then(|()| std::fs::rename(&fresh, &kept))
            .map_err(|e| format!("{}: {e}", kept.display()))?;
        Ok(AnswerKey::index(file.entries, file.secs))
    }

    /// The entry for one request.
    pub fn lookup(&self, db_id: &str, question: &str, evidence: &str) -> Option<&KeyEntry> {
        self.by_request
            .get(&ResultKey::new(db_id, question, evidence, 0))
            .map(|i| &self.entries[*i])
    }

    /// Execution accuracy of the key against gold, in percent.
    pub fn ex_pct(&self) -> f64 {
        let ok = self.entries.iter().filter(|e| e.ex_ok).count();
        100.0 * ok as f64 / self.entries.len().max(1) as f64
    }

    /// Self-test hook: corrupt one expected SQL so a run must fail.
    pub fn flip_first(&mut self) {
        if let Some(first) = self.entries.first_mut() {
            first.sql.push_str(" -- flipped");
        }
    }
}

#[derive(Serialize, Deserialize)]
struct KeyFile {
    /// Size and modification time of the executable that computed it.
    built: String,
    secs: f64,
    entries: Vec<KeyEntry>,
}

fn key_entry(pipeline: &Pipeline, bench: &Benchmark, ex: &Example) -> KeyEntry {
    let run = pipeline.answer(&ex.db_id, &ex.question, &ex.evidence);
    let db = &bench
        .db(&ex.db_id)
        .expect("dev example names a generated database")
        .database;
    // `Database::query` bypasses the process-wide plan cache, so scoring
    // leaves the cache state the workloads see untouched
    let ex_ok = match (db.query(&ex.gold_sql), db.query(&run.final_sql)) {
        (Ok(gold), Ok(pred)) => pred.same_answer(&gold),
        _ => false,
    };
    KeyEntry {
        db_id: ex.db_id.clone(),
        question: ex.question.clone(),
        evidence: ex.evidence.clone(),
        sql: run.final_sql,
        ex_ok,
    }
}

/// Scratch directory for one run's on-disk state, removed on drop. It
/// lives under the build's target directory, so inside the checkout.
pub struct WorkDir {
    path: PathBuf,
}

/// Where results, spans and scratch state go: `$CARGO_TARGET_DIR/benchmark`
/// or `target/benchmark`.
pub fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

impl WorkDir {
    /// Create `<output_dir>/work-<pid>-<tag>` afresh.
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let path = output_dir().join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
