//! Benchmark assembly: profiles, examples, and splits.

use crate::build::{build_db, BuiltDb, RowScale};
use crate::domain::{domain_name, themes};
use crate::generator::{sample_spec, Witnesses};
use crate::nlq::render;
use crate::spec::{Difficulty, QuerySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One benchmark example.
#[derive(Debug, Clone)]
pub struct Example {
    /// Unique id within the benchmark.
    pub id: u32,
    /// Id of the database the example runs against.
    pub db_id: String,
    /// Natural-language question.
    pub question: String,
    /// BIRD-style evidence / external knowledge ("" when none).
    pub evidence: String,
    /// Gold SQL (guaranteed executable and non-empty).
    pub gold_sql: String,
    /// The underlying structured intent.
    pub spec: QuerySpec,
    /// Difficulty tier.
    pub difficulty: Difficulty,
}

/// Which split an example belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training set (few-shot library source).
    Train,
    /// Development set.
    Dev,
    /// Held-out test set.
    Test,
}

/// A generated benchmark: databases plus train/dev/test splits.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name ("bird", "spider", ...).
    pub name: String,
    /// Built databases.
    pub dbs: Vec<BuiltDb>,
    /// Training examples.
    pub train: Vec<Example>,
    /// Dev examples.
    pub dev: Vec<Example>,
    /// Test examples.
    pub test: Vec<Example>,
}

impl Benchmark {
    /// Look up a database by id.
    pub fn db(&self, id: &str) -> Option<&BuiltDb> {
        self.dbs.iter().find(|d| d.id == id)
    }

    /// Number of distinct domains.
    pub fn domain_count(&self) -> usize {
        let mut domains: Vec<&str> = self.dbs.iter().map(|d| d.domain.as_str()).collect();
        domains.sort();
        domains.dedup();
        domains.len()
    }

    /// All examples of a split.
    pub fn split(&self, split: Split) -> &[Example] {
        match split {
            Split::Train => &self.train,
            Split::Dev => &self.dev,
            Split::Test => &self.test,
        }
    }
}

/// Generation profile: sizes and style of a benchmark.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Benchmark name.
    pub name: String,
    /// Number of databases to build.
    pub n_databases: usize,
    /// Number of distinct domains (databases cycle through them).
    pub n_domains: usize,
    /// Split sizes.
    pub train: usize,
    /// Dev size.
    pub dev: usize,
    /// Test size.
    pub test: usize,
    /// Row scale for databases.
    pub scale: RowScale,
    /// Probability a text column stores mangled values.
    pub quirk_rate: f64,
    /// Probability mass of (simple, moderate, challenging).
    pub difficulty_mix: [f64; 3],
    /// Difficulty mix override for the test split (BIRD's holdout scores
    /// consistently higher than dev on the leaderboard).
    pub test_difficulty_mix: Option<[f64; 3]>,
    /// Master seed.
    pub seed: u64,
    /// Schema comprehension complexity passed to the simulated model
    /// (BIRD 1.0; Spider's simpler cross-domain schemas lower).
    pub complexity: f64,
}

impl Profile {
    /// BIRD-style profile (paper Table 1: 9428/1534/1789, 37 domains,
    /// 95 databases, complex schemas, dirty values).
    pub fn bird() -> Self {
        Profile {
            name: "bird".into(),
            n_databases: 95,
            n_domains: 37,
            train: 9428,
            dev: 1534,
            test: 1789,
            scale: RowScale::bird(),
            quirk_rate: 0.55,
            difficulty_mix: [0.40, 0.38, 0.22],
            test_difficulty_mix: Some([0.52, 0.34, 0.14]),
            seed: 0xB12D,
            complexity: 1.0,
        }
    }

    /// Spider-style profile (paper Table 1: 8659/1034/2147, 138 domains,
    /// 200 databases, cleaner values, simpler SQL).
    pub fn spider() -> Self {
        Profile {
            name: "spider".into(),
            n_databases: 200,
            n_domains: 138,
            train: 8659,
            dev: 1034,
            test: 2147,
            scale: RowScale::spider(),
            quirk_rate: 0.12,
            difficulty_mix: [0.55, 0.33, 0.12],
            test_difficulty_mix: None,
            seed: 0x59DE,
            complexity: 0.55,
        }
    }

    /// The BIRD **Mini-Dev** used for the paper's ablations: same style as
    /// BIRD, 500 dev questions, smaller everything else.
    pub fn bird_mini_dev() -> Self {
        Profile {
            name: "bird-mini-dev".into(),
            n_databases: 12,
            n_domains: 12,
            train: 1500,
            dev: 500,
            test: 0,
            scale: RowScale::bird(),
            quirk_rate: 0.55,
            difficulty_mix: [0.40, 0.38, 0.22],
            test_difficulty_mix: None,
            seed: 0xB12D,
            complexity: 1.0,
        }
    }

    /// A tiny profile for unit tests.
    pub fn tiny() -> Self {
        Profile {
            name: "tiny".into(),
            n_databases: 2,
            n_domains: 2,
            train: 40,
            dev: 16,
            test: 16,
            scale: RowScale::tiny(),
            quirk_rate: 0.5,
            difficulty_mix: [0.4, 0.4, 0.2],
            test_difficulty_mix: None,
            seed: 0x717,
            complexity: 1.0,
        }
    }

    /// Scale all split sizes by `f` (for quick experiment runs).
    pub fn scaled(mut self, f: f64) -> Self {
        self.train = ((self.train as f64) * f).round().max(1.0) as usize;
        self.dev = ((self.dev as f64) * f).round() as usize;
        self.test = ((self.test as f64) * f).round() as usize;
        self.n_databases = ((self.n_databases as f64) * f.sqrt()).round().max(2.0) as usize;
        self.n_domains = self.n_domains.min(self.n_databases);
        self
    }
}

/// Generate a full benchmark from a profile. Deterministic in the profile's
/// seed.
pub fn generate(profile: &Profile) -> Benchmark {
    let theme_lib = themes();
    let mut rng = StdRng::seed_from_u64(profile.seed);

    // databases: domain d uses theme d % themes, variant d / themes
    let mut dbs: Vec<BuiltDb> = Vec::with_capacity(profile.n_databases);
    for i in 0..profile.n_databases {
        let domain_idx = i % profile.n_domains.max(1);
        let theme = &theme_lib[domain_idx % theme_lib.len()];
        let variant = domain_idx / theme_lib.len();
        let domain = domain_name(theme, variant);
        let copy = i / profile.n_domains.max(1);
        let db_id =
            if copy == 0 { domain.clone() } else { format!("{domain}_{}", copy + 1) };
        let db_seed = rng.gen::<u64>();
        let mut db = build_db(theme, &db_id, &domain, profile.scale, profile.quirk_rate, db_seed);
        db.complexity = profile.complexity;
        dbs.push(db);
    }

    // each database's witness joins are probed once, across all splits
    let mut witnesses: Vec<Witnesses> = dbs.iter().map(|_| Witnesses::new()).collect();
    let mut next_id = 0u32;
    let mut make_split = |n: usize, mix: &[f64; 3], rng: &mut StdRng| -> Vec<Example> {
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0usize;
        while out.len() < n && attempts < n * 30 + 100 {
            attempts += 1;
            let i = rng.gen_range(0..dbs.len());
            let db = &dbs[i];
            let difficulty = pick_difficulty(mix, rng);
            let Some((spec, sql)) = sample_spec(db, &mut witnesses[i], difficulty, rng) else {
                continue;
            };
            let rendered = render(&spec, db);
            out.push(Example {
                id: next_id,
                db_id: db.id.clone(),
                question: rendered.question,
                evidence: rendered.evidence,
                gold_sql: sql,
                spec,
                difficulty,
            });
            next_id += 1;
        }
        out
    };

    let train = make_split(profile.train, &profile.difficulty_mix, &mut rng);
    let dev = make_split(profile.dev, &profile.difficulty_mix, &mut rng);
    let test_mix = profile.test_difficulty_mix.unwrap_or(profile.difficulty_mix);
    let test = make_split(profile.test, &test_mix, &mut rng);

    Benchmark { name: profile.name.clone(), dbs, train, dev, test }
}

fn pick_difficulty(mix: &[f64; 3], rng: &mut StdRng) -> Difficulty {
    let x: f64 = rng.gen();
    if x < mix[0] {
        Difficulty::Simple
    } else if x < mix[0] + mix[1] {
        Difficulty::Moderate
    } else {
        Difficulty::Challenging
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_benchmark_generates_fully() {
        let b = generate(&Profile::tiny());
        assert_eq!(b.dbs.len(), 2);
        assert_eq!(b.train.len(), 40);
        assert_eq!(b.dev.len(), 16);
        assert_eq!(b.test.len(), 16);
        assert_eq!(b.domain_count(), 2);
    }

    #[test]
    fn every_gold_sql_is_answerable() {
        let b = generate(&Profile::tiny());
        for ex in b.train.iter().chain(&b.dev).chain(&b.test) {
            let db = b.db(&ex.db_id).unwrap();
            let rs = db.database.query(&ex.gold_sql).unwrap();
            assert!(!rs.is_effectively_empty(), "{}", ex.gold_sql);
            assert!(ex.question.ends_with('?'));
        }
    }

    #[test]
    fn ids_are_unique_across_splits() {
        let b = generate(&Profile::tiny());
        let mut ids: Vec<u32> = b
            .train
            .iter()
            .chain(&b.dev)
            .chain(&b.test)
            .map(|e| e.id)
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&Profile::tiny());
        let b = generate(&Profile::tiny());
        assert_eq!(a.dev.len(), b.dev.len());
        for (x, y) in a.dev.iter().zip(&b.dev) {
            assert_eq!(x.question, y.question);
            assert_eq!(x.gold_sql, y.gold_sql);
        }
    }

    #[test]
    fn difficulty_mix_roughly_respected() {
        let mut p = Profile::tiny();
        p.train = 150;
        let b = generate(&p);
        let n_simple =
            b.train.iter().filter(|e| e.difficulty == Difficulty::Simple).count();
        let frac = n_simple as f64 / b.train.len() as f64;
        assert!((0.2..=0.6).contains(&frac), "simple fraction {frac}");
    }

    #[test]
    fn scaled_profile_shrinks() {
        let p = Profile::bird().scaled(0.01);
        assert!(p.train < 100);
        assert!(p.n_databases >= 2);
        assert!(p.n_domains <= p.n_databases);
    }

    #[test]
    fn some_examples_need_evidence() {
        let b = generate(&Profile::tiny());
        let with_evidence = b
            .train
            .iter()
            .chain(&b.dev)
            .filter(|e| !e.evidence.is_empty())
            .count();
        assert!(with_evidence > 0, "quirky profile must produce evidence examples");
    }
}
