//! Generation golden: one FNV-1a digest per profile over every example of
//! every split — id, database, question, evidence, gold SQL, the spec's
//! `Debug` form and the difficulty, in split order (train, dev, test).
//!
//! A change to how the generator draws, probes or renders that moves one
//! byte of one example, or consumes the seeded RNG one step differently,
//! changes a digest. The constants were recorded on ebc168b, before the
//! witness probe was memoised per (database, chain) and the admitted gold
//! SQL was returned with its spec instead of being printed twice.

use datagen::{generate, Benchmark, Profile, RowScale};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `Profile::tiny()`.
const GOLDEN_TINY: u64 = 0x18b0_4f98_e794_e24e;
/// `Profile::bird_mini_dev()`.
const GOLDEN_BIRD_MINI_DEV: u64 = 0x4855_41c3_e900_8f39;
/// `Profile::bird().scaled(0.1)`.
const GOLDEN_BIRD_SCALED: u64 = 0x7ebb_49d7_382f_cb7f;
/// `Profile::spider().scaled(0.1)`.
const GOLDEN_SPIDER_SCALED: u64 = 0x46ed_5911_8c61_dc47;
/// `Profile::bird_mini_dev()` with ten times the rows (`base_rows` 600).
const GOLDEN_BIRD_MINI_DEV_X10: u64 = 0x852a_aebe_8324_cef1;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Every field of every example, each followed by a unit separator so no
/// two field splits of the same bytes collide.
fn digest(b: &Benchmark) -> u64 {
    let mut h = FNV_OFFSET;
    for ex in b.train.iter().chain(&b.dev).chain(&b.test) {
        for field in [
            ex.id.to_string(),
            ex.db_id.clone(),
            ex.question.clone(),
            ex.evidence.clone(),
            ex.gold_sql.clone(),
            format!("{:?}", ex.spec),
            format!("{:?}", ex.difficulty),
        ] {
            h = fnv(h, field.as_bytes());
            h = fnv(h, &[0x1f]);
        }
    }
    h
}

fn check(name: &str, profile: &Profile, want: u64) {
    let got = digest(&generate(profile));
    assert_eq!(got, want, "{name}: generation digest {got:#018x}, recorded {want:#018x}");
}

#[test]
fn tiny_generation_is_frozen() {
    check("tiny", &Profile::tiny(), GOLDEN_TINY);
}

#[test]
fn bird_mini_dev_generation_is_frozen() {
    check("bird_mini_dev", &Profile::bird_mini_dev(), GOLDEN_BIRD_MINI_DEV);
}

#[test]
fn scaled_bird_generation_is_frozen() {
    check("bird x0.1", &Profile::bird().scaled(0.1), GOLDEN_BIRD_SCALED);
}

#[test]
fn scaled_spider_generation_is_frozen() {
    check("spider x0.1", &Profile::spider().scaled(0.1), GOLDEN_SPIDER_SCALED);
}

/// 4.3 s in the unoptimised test profile, so ci.sh runs it by name
/// (`--include-ignored`) rather than every `cargo test`.
#[test]
#[ignore = "slow unoptimised; ci.sh runs it with --include-ignored"]
fn ten_times_the_rows_generation_is_frozen() {
    let mut p = Profile::bird_mini_dev();
    p.scale = RowScale { base_rows: 600, ..RowScale::bird() };
    check("bird_mini_dev rows x10", &p, GOLDEN_BIRD_MINI_DEV_X10);
}
