//! Parse digest: `{:?}` of what `sqlkit::parse_script` returns — the
//! statements, or the error with its position and text — for every text of
//! a fixed corpus, hashed into one number.
//!
//! The corpus is the engine corpus (`tests/golden/engine_corpus.tsv`), the
//! 2,000 train and dev gold statements of `bird_mini_dev`, a seeded
//! INSERT / UPDATE-by-key / DELETE-by-key mix shaped like the write
//! workload's, every pair of binary operators over optionally negated or
//! signed operands, operator chains and prefix runs around the depth
//! budget, and a list of lexical edge cases (doubled quotes, brackets,
//! non-ASCII names, unterminated quotes and comments, odd numbers).
//!
//! `Debug` text is compared, not values: `Span`'s `PartialEq` is always
//! true, so comparing trees would hide a span that moved. Error texts that
//! print a token (`unexpected trailing input: Ident("y", false)`) pin the
//! token's `Debug` form too.

mod golden;

use datagen::{generate, Profile};
use golden::Corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over every text and its outcome, each closed by a unit
/// separator, section by section in the order [`sections`] lists them;
/// recorded on 0867837, whose parser descended one function per
/// precedence level over tokens that owned their text.
const PARSE_DIGEST: u64 = 0x27d2_8989_23bf_65c3;

fn fnv(mut h: u64, field: &[u8]) -> u64 {
    for &b in field.iter().chain(&[0x1f]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The parse of `sql`, as text: the statements' `Debug`, or the error's
/// `Debug` (its kind and position) and its message.
fn outcome(sql: &str) -> String {
    match sqlkit::parse_script(sql) {
        Ok(stmts) => format!("{stmts:?}"),
        Err(e) => format!("error {e:?}: {e}"),
    }
}

/// The write mix: 70% INSERT, 20% UPDATE by key, 10% DELETE by key on a
/// four-column keyed table, every UPDATE and DELETE naming a live key.
fn write_mix(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 1u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if live.is_empty() || roll < 0.7 {
            let id = next_id;
            next_id += 1;
            live.push(id);
            out.push(format!(
                "INSERT INTO bench_events VALUES ({id}, 'kind{}', {:.2}, 'note {id}')",
                rng.gen_range(0..8),
                rng.gen_range(0.0..1000.0)
            ));
        } else if roll < 0.9 {
            let id = live[rng.gen_range(0..live.len())];
            out.push(format!(
                "UPDATE bench_events SET amount = {:.2}, note = 'edit {}' WHERE id = {id}",
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0..1000)
            ));
        } else {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            out.push(format!("DELETE FROM bench_events WHERE id = {id}"));
        }
    }
    out
}

/// A statement of one shape, `k` levels deep.
type Shape = fn(usize) -> String;

/// The shapes the depth budget was sized on (the parser's own tests keep
/// the same four): parentheses, sub-selects, `CASE`s and `AND` terms.
const DEEP_SHAPES: [Shape; 4] = [
    |k| format!("SELECT id FROM t WHERE {}id = 1{}", "(".repeat(k), ")".repeat(k)),
    |k| format!("SELECT {}1{}", "(SELECT ".repeat(k), ")".repeat(k)),
    |k| format!("SELECT {}1{} FROM t", "CASE WHEN id > 0 THEN ".repeat(k), " END".repeat(k)),
    |k| format!("SELECT id FROM t WHERE {}id > 0", "id > 0 AND ".repeat(k - 1)),
];

/// Each deep shape at its last accepted depth and one past it.
fn deep_edges() -> Vec<String> {
    let mut out = Vec::new();
    for sql in DEEP_SHAPES {
        let fits = (1..).take_while(|&k| sqlkit::parse_select(&sql(k)).is_ok()).last().unwrap_or(0);
        assert!(fits > 10, "a deep shape fits only {fits} levels");
        out.push(sql(fits));
        out.push(sql(fits + 1));
    }
    out
}

/// A binary operator with the operand text that closes it.
const OPERATORS: [(&str, &str); 24] = [
    ("OR", ""),
    ("AND", ""),
    ("=", ""),
    ("==", ""),
    ("!=", ""),
    ("<>", ""),
    ("<", ""),
    ("<=", ""),
    (">", ""),
    (">=", ""),
    ("+", ""),
    ("-", ""),
    ("*", ""),
    ("/", ""),
    ("%", ""),
    ("||", ""),
    ("LIKE", ""),
    ("NOT LIKE", ""),
    ("IS", "NULL"),
    ("IS NOT", "NULL"),
    ("IN", "(1, x)"),
    ("NOT IN", "(SELECT 1)"),
    ("BETWEEN", "1 AND y"),
    ("NOT BETWEEN", "-1 AND y + 1"),
];

/// What may stand before an operand.
const PREFIXES: [&str; 5] = ["", "NOT ", "-", "+", "- -"];

/// `a op1 b op2 c` for every pair of operators and every prefix of each
/// operand: the precedence and associativity of every combination, and
/// the errors of the ones the grammar rejects (`a = NOT b`, `a IS -b`).
fn operator_pairs() -> Vec<String> {
    let operand = |prefix: &str, name: &str, op: (&str, &str)| match op.1 {
        "" => format!("{prefix}{name}"),
        closing => format!("{prefix}{name} {} {closing}", op.0),
    };
    let mut out = Vec::new();
    for op1 in OPERATORS {
        for op2 in OPERATORS {
            for (p1, p2, p3) in
                PREFIXES.iter().flat_map(|a| PREFIXES.iter().flat_map(move |b| PREFIXES.iter().map(move |c| (a, b, c))))
            {
                let text = match (op1.1, op2.1) {
                    ("", "") => format!("SELECT {p1}a {} {p2}b {} {p3}c", op1.0, op2.0),
                    ("", _) => format!("SELECT {p1}a {} {}", op1.0, operand(p2, "b", op2)),
                    (_, "") => format!("SELECT {} {} {p3}c", operand(p1, "a", op1), op2.0),
                    _ => format!("SELECT {} {} {}", operand(p1, "a", op1), op2.0, operand(p3, "c", op2)),
                };
                out.push(text);
            }
        }
    }
    out
}

/// Chains of one operator and runs of one prefix, on both sides of the
/// depth budget, with an operand that is itself deep at either end.
fn depth_runs() -> Vec<String> {
    let mut out = Vec::new();
    for k in 58..=68 {
        for (op, _) in OPERATORS.iter().filter(|(_, closing)| closing.is_empty()) {
            out.push(format!("SELECT {}", vec!["x"; k].join(&format!(" {op} "))));
        }
        out.push(format!("SELECT {}", vec!["x BETWEEN 1 AND 2"; k / 2].join(" AND ")));
        out.push(format!("SELECT {}", vec!["x IS NULL"; k / 2].join(" = ")));
        for prefix in ["-", "+", "NOT ", "- ", "(", "-("] {
            let closing = ")".repeat(prefix.matches('(').count() * k);
            out.push(format!("SELECT {}1{closing}", prefix.repeat(k)));
        }
        let deep = format!("{}1{}", "(".repeat(k / 2), ")".repeat(k / 2));
        for n in [k / 4, k / 2, k / 2 + 1] {
            out.push(format!("SELECT {deep}{}", " + 1".repeat(n)));
            out.push(format!("SELECT 1{} * {deep}", " * 1".repeat(n)));
            out.push(format!("SELECT x{} LIKE {deep}", " || 1".repeat(n)));
            out.push(format!("SELECT NOT {deep}{}", " OR 1".repeat(n)));
            out.push(format!("SELECT x BETWEEN {deep} AND 1{}", " - 1".repeat(n)));
        }
    }
    out
}

/// Lexical and grammatical edge cases.
const EDGES: &[&str] = &[
    "",
    ";",
    ";;; SELECT 1;; SELECT 2 ;",
    "SELECT 'it''s'",
    "SELECT '''' || '' || 'a''b''''c'",
    "INSERT INTO t VALUES ('x''y', 'plain', '')",
    "SELECT \"a\"\"b\" FROM \"t\"\"\" WHERE \"c\"\"\" = 1",
    "SELECT \"\" FROM t",
    "SELECT `a``b` FROM `t``` AS `x``y` WHERE `x``y`.`a``b` > 0",
    "SELECT T1.`First Date`, T1.\"Last Name\" FROM Patient AS T1",
    "SELECT [First Date], [a\"b] FROM [my table] AS [x] WHERE [x].[id] = 1",
    "SELECT [] FROM t",
    "SELECT héllo, ünïcödé FROM tàble WHERE ö = 'ä' AND \u{5d0}b = '\u{2603}'",
    "SELECT \"héllo wörld\", `日本語` FROM [表] AS 别名",
    "SELECT naïve FROM café WHERE naïve LIKE '%é%'",
    "SELECT \u{2018}a\u{2019} FROM t",
    "SELECT \u{201c}a\u{201d} FROM t",
    "SELECT a FROM t WHERE b = \u{2018}x\u{2019}",
    "SELECT a \u{2014} b FROM t",
    "SELECT 'abc",
    "SELECT 'it''s",
    "SELECT \"abc",
    "SELECT `abc",
    "SELECT [abc",
    "SELECT 1 /* open",
    "SELECT 1 /* closed */ + /**/ 2 /* x * / */",
    "SELECT 1 -- a comment to the end",
    "SELECT 1 -- first\n+ 2 -- second",
    "SELECT 99999999999999999999",
    "SELECT 9223372036854775807, 9223372036854775808, -9223372036854775808",
    "SELECT 1e5, 1E5, 1e+5, 1e-5, 2.5e3, 1.e2",
    "SELECT .5, 0.5, 5., .5e1",
    "SELECT 1e",
    "SELECT 1.2.3",
    "SELECT 1e5e5",
    "SELECT 0x10",
    "SELECT 1.5x FROM t",
    "SELECT a FROM t trailing garbage",
    "SELECT a b c FROM t",
    "SELECT a FROM t x y",
    "SELECT 1 2",
    "SELECT 1 'two'",
    "SELECT FROM",
    "SELEC a FROM t",
    "SELECT a FROM t WHERE",
    "SELECT (1",
    "SELECT 1)",
    "SELECT a FROM t WHERE a = NOT b",
    "SELECT a FROM t WHERE NOT NOT a = 1",
    "SELECT a FROM t WHERE a NOT b",
    "SELECT a FROM t WHERE a IS NOT 1",
    "SELECT a FROM t WHERE a BETWEEN 1",
    "SELECT a FROM t WHERE a IN ()",
    "SELECT a FROM t WHERE a IN (SELECT 1",
    "SELECT a FROM t WHERE NOT EXISTS (SELECT 1) AND EXISTS (SELECT 2)",
    "SELECT a FROM t WHERE a = EXISTS (SELECT 1)",
    "SELECT NOT EXISTS (SELECT 1) = 1",
    "SELECT CASE WHEN 1 THEN 2 END, CASE a WHEN 1 THEN 2 ELSE 3 END",
    "SELECT CASE END",
    "SELECT CAST(a AS VARCHAR(10)), CAST(b AS DECIMAL(10, 2)), CAST(c AS INTEGER)",
    "SELECT CAST(a AS INTEGER(",
    "SELECT COUNT(*), COUNT(DISTINCT a), max(b), Sum(c + 1), f()",
    "SELECT t.* , * FROM t",
    "SELECT \"t\".* FROM t",
    "SELECT a AS \"select\", b \"from\", c [where], d AS e FROM \"select\"",
    "SELECT select FROM t",
    "SELECT a FROM t LIMIT 2, 10",
    "SELECT a FROM t LIMIT 1 + 1 OFFSET -1",
    "SELECT a FROM t ORDER BY a DESC, b ASC, 1",
    "SELECT a FROM t UNION SELECT b FROM u INTERSECT SELECT c FROM v EXCEPT SELECT d FROM w UNION ALL SELECT e FROM x",
    "SELECT a FROM t INNER JOIN u ON t.a = u.a LEFT OUTER JOIN v ON 1 CROSS JOIN w, x JOIN y",
    "SELECT x.n FROM (SELECT COUNT(*) AS n FROM t) AS x",
    "SELECT x.n FROM (SELECT 1 AS n) x",
    "SELECT a FROM t WHERE a <> b AND c != d AND e == f AND g || h = 'i'",
    "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL UNIQUE, score REAL, raw, FOREIGN KEY (id) REFERENCES u (uid))",
    "CREATE TABLE IF NOT EXISTS \"my t\" (`a b` VARCHAR(20), [c] NUMERIC(10, 2), PRIMARY KEY (\"a b\", c))",
    "CREATE TABLE t (a INTEGER PRIMARY KEY",
    "INSERT INTO t (id, name) VALUES (1, 'a'), (2, NULL), (-3, 'c''d')",
    "INSERT INTO t VALUES (1, 2.5, 'x', NULL, -4, 1e3)",
    "INSERT INTO t VALUES",
    "UPDATE t SET a = a + 1, b = 'x''y' WHERE id = 3 AND c IS NOT NULL",
    "UPDATE t SET a = (SELECT MAX(a) FROM t)",
    "UPDATE t SET WHERE id = 1",
    "DELETE FROM t WHERE id IN (1, 2, 3) OR name LIKE 'a%'",
    "DELETE FROM t",
    "DELETE t WHERE id = 1",
    "DROP TABLE t",
    "SELECT 1; garbage",
    "SELECT $1",
    "SELECT a FROM t WHERE a = ?",
    "SELECT 1 ! 2",
    "SELECT 1 | 2",
    "SELECT a = = b",
    "SELECT - - - 1, + + 1, -+-1, - (1), -'x'",
];

/// The corpus, section by section: a name and its texts.
fn sections() -> Vec<(&'static str, Vec<String>)> {
    let corpus = Corpus::load().entries.into_iter().map(|e| e.sql).collect();
    let bench = generate(&Profile::bird_mini_dev());
    let gold = bench.train.iter().chain(&bench.dev).map(|ex| ex.gold_sql.clone()).collect();
    let mix = write_mix(1, 4 * 32 * 30);
    let mut scripts: Vec<String> =
        mix.chunks(32).take(16).map(|txn| txn.join(";\n")).collect();
    scripts.push(mix[..64].join("; "));
    vec![
        ("engine corpus", corpus),
        ("bird_mini_dev gold", gold),
        ("write mix", mix),
        ("write scripts", scripts),
        ("operator pairs", operator_pairs()),
        ("depth runs", depth_runs()),
        ("deep shapes", deep_edges()),
        ("edges", EDGES.iter().map(|s| s.to_string()).collect()),
    ]
}

#[test]
fn parse_digest_is_frozen() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut sizes = Vec::new();
    for (name, texts) in sections() {
        let mut section = 0xcbf2_9ce4_8422_2325;
        let mut errors = 0;
        for sql in &texts {
            let parsed = outcome(sql);
            errors += usize::from(parsed.starts_with("error "));
            for field in [sql.as_str(), &parsed] {
                h = fnv(h, field.as_bytes());
                section = fnv(section, field.as_bytes());
            }
        }
        println!("{name:<20} {:>6} texts {errors:>6} errors  {section:#018x}", texts.len());
        sizes.push(texts.len());
    }
    assert_eq!(
        sizes,
        [439, 2000, 3840, 17, 72000, 451, 8, EDGES.len()],
        "the digest covers a different corpus"
    );
    assert_eq!(h, PARSE_DIGEST, "parse digest {h:#018x}, recorded {PARSE_DIGEST:#018x}");
}
