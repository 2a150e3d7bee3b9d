//! The workspace lint gate: repo-wide source checks with no external
//! crates (xtask-style, driven by the root `tests/structure.rs` that
//! Tier-1's `cargo test` runs, and by the `workspace-lint` binary).
//!
//! Two kinds of check report through one [`Violation`]: three policies
//! over every line of every `.rs` file, and the structural [`RULES`].
//!
//! Policies:
//!
//! * **`raw-sync`** — the *checked crates* (those with model-checked
//!   invariant suites: runtime, server, store, trace, sqlkit, repl) must not
//!   use raw `std::sync` `Mutex`/`Condvar`/`RwLock`/`Atomic*` — they must
//!   go through the `osql_chk` shims, or the model checker cannot see the
//!   operations. (`Arc`, `mpsc`, `OnceLock`, `atomic::Ordering` etc.
//!   remain fine.)
//! * **`lock-unwrap`** — nowhere in the workspace may code hand-roll the
//!   poison decision: `.lock().unwrap()`, `.lock().expect(..)`,
//!   `.lock().unwrap_or_else(..)` (and the `read()`/`write()` RwLock
//!   forms) are banned outside the sanctioned helper
//!   (`osql_chk::lock_or_recover` / the chk shims, which bake the policy
//!   in). One policy, one place.
//! * **`wall-clock`** — inside `crates/trace/src/` and the
//!   windowed-metrics logical-tick path (`crates/runtime/src/window.rs`),
//!   `Instant::now` / `SystemTime::now` may only appear on lines carrying
//!   an explicit `chk:allow(wall-clock)` pragma. Logical traces and
//!   windowed renderings must be byte-identical across runs and thread
//!   counts; an unannotated wall-clock read in those paths is how that
//!   property historically rots.
//!
//! Any line can be exempted from a policy with a justified pragma, on the
//! same line or the line above:
//!
//! ```text
//! let t = Instant::now(); // chk:allow(wall-clock): volatile anchor, excluded from logical view
//! ```
//!
//! A pragma without a `:`-separated justification is itself a violation.
//!
//! Rules: each row of [`RULES`] keeps one structural fact of the design
//! (one executor, one refinement path per beam, one front end, one
//! checksum, one durability point, …) as a count of lines in the files its
//! globs select. A rule takes no pragma; a glob that selects no file is a
//! violation, so a rule cannot retire silently when its file is renamed.

use std::path::Path;

/// Crates whose source must use the chk shims instead of raw `std::sync`
/// primitives (the crates with model-checked invariant suites).
pub const CHECKED_CRATES: &[&str] = &["runtime", "server", "store", "trace", "sqlkit", "repl"];

/// One policy violation at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Policy name (`raw-sync`, `lock-unwrap`, `wall-clock`,
    /// `bad-pragma`).
    pub policy: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.policy, self.excerpt)
    }
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Does `hay` contain `needle` as a standalone token (not embedded in a
/// longer identifier or path segment like `chk::Mutex`)?
fn has_token(hay: &str, needle: &str) -> bool {
    find_bounded(hay, needle, (true, true), true)
}

/// Does `hay` hold `needle` as grep finds it: literally, except that a
/// `\b` at either end of the needle asks for a word boundary there
/// (`\bname\b` is `grep -w name`)?
pub fn has_needle(hay: &str, needle: &str) -> bool {
    let (start, rest) = match needle.strip_prefix(r"\b") {
        Some(rest) => (true, rest),
        None => (false, needle),
    };
    let (end, literal) = match rest.strip_suffix(r"\b") {
        Some(literal) => (true, literal),
        None => (false, rest),
    };
    find_bounded(hay, literal, (start, end), false)
}

/// Does `hay` contain `needle` with a word boundary (grep's `\b`) at each
/// end `bounds` asks for? With `paths`, a `::` before the needle joins it
/// to a longer path, as an identifier character would.
fn find_bounded(hay: &str, needle: &str, bounds: (bool, bool), paths: bool) -> bool {
    let (bytes, edge) = (hay.as_bytes(), needle.as_bytes());
    let Some((&first, &last)) = edge.first().zip(edge.last()) else { return false };
    let word_before = |at: usize| {
        at > 0
            && (is_ident_char(bytes[at - 1])
                || paths && at >= 2 && bytes[at - 1] == b':' && bytes[at - 2] == b':')
    };
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let after = at + needle.len();
        let word_after = after < bytes.len() && is_ident_char(bytes[after]);
        let start_ok = !bounds.0 || word_before(at) != is_ident_char(first);
        let end_ok = !bounds.1 || word_after != is_ident_char(last);
        if start_ok && end_ok {
            return true;
        }
        from = at + hay[at..].chars().next().map_or(1, char::len_utf8);
    }
    false
}

/// Strip a trailing `//` line comment (good enough for policy matching:
/// none of the banned patterns can legitimately appear before a `//`
/// inside a string on the same line in this codebase).
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Is line `i` (0-based) exempted from `policy` by a pragma on the same
/// line or the line above? Returns `Err` when a pragma exists but carries
/// no justification.
fn allowed(lines: &[&str], i: usize, policy: &str) -> Result<bool, ()> {
    let tag = format!("chk:allow({policy})");
    for candidate in [Some(lines[i]), i.checked_sub(1).and_then(|p| lines.get(p).copied())]
        .into_iter()
        .flatten()
    {
        if let Some(pos) = candidate.find(&tag) {
            let rest = candidate[pos + tag.len()..].trim_start();
            let justified = rest.starts_with(':') && rest.len() > 2;
            return if justified { Ok(true) } else { Err(()) };
        }
    }
    Ok(false)
}

const RAW_SYNC_TYPES: &[&str] = &["Mutex", "Condvar", "RwLock"];

fn line_uses_raw_sync(code: &str) -> bool {
    // fully qualified paths anywhere
    for ty in RAW_SYNC_TYPES {
        if code.contains(&format!("std::sync::{ty}")) {
            return true;
        }
    }
    if code.contains("std::sync::atomic::Atomic") {
        return true;
    }
    // grouped imports: `use std::sync::{Arc, Mutex}` / atomic variants
    if let Some(pos) = code.find("use std::sync::") {
        let rest = &code[pos..];
        for ty in RAW_SYNC_TYPES {
            if has_token(rest, ty) {
                return true;
            }
        }
        if rest.contains("atomic::Atomic") {
            return true;
        }
        // `use std::sync::atomic::{AtomicU64, Ordering}`
        if rest.contains("atomic::{") {
            let group = &rest[rest.find("atomic::{").unwrap()..];
            if group.contains("Atomic") {
                return true;
            }
        }
    }
    false
}

const LOCK_UNWRAP_FORMS: &[&str] = &[
    ".lock().unwrap()",
    ".lock().expect(",
    ".lock().unwrap_or_else(",
    ".read().unwrap()",
    ".read().expect(",
    ".read().unwrap_or_else(",
    ".write().unwrap()",
    ".write().expect(",
    ".write().unwrap_or_else(",
];

fn line_unwraps_lock(code: &str) -> bool {
    LOCK_UNWRAP_FORMS.iter().any(|form| code.contains(form))
}

fn line_reads_wall_clock(code: &str) -> bool {
    code.contains("Instant::now") || code.contains("SystemTime::now")
}

/// Which policies apply to a file at this workspace-relative path.
fn policies_for(rel_path: &str) -> (bool, bool, bool) {
    let in_chk = rel_path.starts_with("crates/chk/");
    let raw_sync = !in_chk
        && CHECKED_CRATES.iter().any(|c| rel_path.starts_with(&format!("crates/{c}/")));
    // chk is the sanctioned implementation layer for the poison policy
    let lock_unwrap = !in_chk;
    // logical-time code paths: the trace crate (logical traces must be
    // byte-identical across runs) and the windowed-metrics ring (windows
    // are sliced by logical ticks, never by the wall clock)
    let wall_clock = rel_path.starts_with("crates/trace/src/")
        || rel_path == "crates/runtime/src/window.rs";
    (raw_sync, lock_unwrap, wall_clock)
}

/// Lint one file's content against every applicable policy.
pub fn lint_file(rel_path: &str, content: &str) -> Vec<Violation> {
    let (raw_sync, lock_unwrap, wall_clock) = policies_for(rel_path);
    if !(raw_sync || lock_unwrap || wall_clock) {
        return Vec::new();
    }
    let lines: Vec<&str> = content.lines().collect();
    let mut out = Vec::new();
    let mut push = |policy: &'static str, i: usize, line: &str| {
        out.push(Violation {
            file: rel_path.to_string(),
            line: i + 1,
            policy,
            excerpt: line.trim().to_string(),
        });
    };
    for (i, line) in lines.iter().enumerate() {
        let code = code_part(line);
        if raw_sync && line_uses_raw_sync(code) {
            match allowed(&lines, i, "raw-sync") {
                Ok(true) => {}
                Ok(false) => push("raw-sync", i, line),
                Err(()) => push("bad-pragma", i, line),
            }
        }
        if lock_unwrap && line_unwraps_lock(code) {
            match allowed(&lines, i, "lock-unwrap") {
                Ok(true) => {}
                Ok(false) => push("lock-unwrap", i, line),
                Err(()) => push("bad-pragma", i, line),
            }
        }
        if wall_clock && line_reads_wall_clock(code) {
            // note: checked against the raw line, pragma included — the
            // pragma itself lives in the comment
            match allowed(&lines, i, "wall-clock") {
                Ok(true) => {}
                Ok(false) => push("wall-clock", i, line),
                Err(()) => push("bad-pragma", i, line),
            }
        }
    }
    out
}

// ---------------- structural rules ----------------

/// Which lines of a selected file a rule reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every line, comments and tests included.
    All,
    /// The file up to its first column-0 `#[cfg(test)]`, with comment
    /// lines (first non-blank characters `//`) dropped.
    NonTest,
}

/// What a rule counts in the lines it reads.
#[derive(Debug, Clone, Copy)]
pub enum Find {
    /// Lines holding any of these needles, read as grep reads them: literal
    /// text, with a `\b` at an end asking for a word boundary there.
    Needles(&'static [&'static str]),
    /// Lines the function accepts, where no literal states the check. The
    /// slice holds one line for each shape it catches; the rule's own test
    /// plants each of them.
    Line(fn(&str) -> bool, &'static [&'static str]),
    /// A file whose scoped text, as a whole, the function rejects (a scan
    /// of one function's body or signature). Counts as one site.
    File(fn(&str) -> bool),
}

/// How many sites a rule allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Want {
    /// None, in any selected file.
    Absent,
    /// Exactly this many, summed over the selected files.
    Sites(usize),
    /// Exactly `.1` in the file `.0`, and none in any other selected file.
    OnlyIn(&'static str, usize),
}

/// One structural guard: the files it reads, what it counts there, and
/// how many it allows.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Reported as the violation's policy.
    pub name: &'static str,
    /// Workspace-relative globs (`*` within a path segment, `**` across
    /// any number of them); a leading `!` excludes what it matches.
    pub paths: &'static [&'static str],
    /// Which lines of a selected file are read.
    pub scope: Scope,
    /// What is counted in them.
    pub find: Find,
    /// How many sites are allowed.
    pub want: Want,
    /// The design fact the rule keeps.
    pub why: &'static str,
    /// The commit that made the fact true and first checked it.
    pub proved: &'static str,
}

/// The file that holds [`RULES`]: it spells every needle, so no rule
/// reads it.
const TABLE_FILE: &str = "crates/chk/src/lint.rs";

/// Every structural rule. A rule's name says the fact; its `why` says
/// what coming back would mean.
pub const RULES: &[Rule] = &[
    // --- one executor, and DML without copies ---
    Rule {
        name: "one-executor",
        paths: &["crates/sqlkit/src/**"],
        scope: Scope::All,
        find: Find::Needles(&[
            "why_legacy",
            "PlannedPath",
            "build_from",
            "join_sources",
            "Rows::Borrowed",
        ]),
        want: Want::Absent,
        why: "the deleted FROM/WHERE interpreter and the per-statement switch to it stay gone",
        proved: "66a550c",
    },
    Rule {
        name: "dml-copies-no-database",
        paths: &["crates/sqlkit/src/db.rs"],
        scope: Scope::All,
        find: Find::Needles(&["self.clone()"]),
        want: Want::Absent,
        why: "UPDATE/DELETE take no snapshot of the database (the two per-statement clones)",
        proved: "84ce847",
    },
    Rule {
        name: "dml-matches-no-rows",
        paths: &["crates/sqlkit/src/**", "!crates/sqlkit/src/**/reference.rs"],
        scope: Scope::All,
        find: Find::Needles(&["eval_in_row"]),
        want: Want::Absent,
        why: "DML has no row matcher of its own; only the test-only reference keeps one",
        proved: "84ce847",
    },
    // --- one telemetry core ---
    Rule {
        name: "one-json-escaper",
        paths: &["crates/**"],
        scope: Scope::All,
        find: Find::Needles(&["u{:04x}"]),
        want: Want::OnlyIn("crates/trace/src/json.rs", 1),
        why: "one JSON string escaper, osql-trace's writer",
        proved: "b062ec0",
    },
    Rule {
        name: "one-histogram-writer",
        paths: &["crates/**/*.rs", "!crates/runtime/src/metrics.rs", "!crates/*/tests/**"],
        scope: Scope::All,
        find: Find::Needles(&["_bucket{", "\"_bucket\"", "+Inf"]),
        want: Want::Absent,
        why: "a histogram's `_bucket` lines and `+Inf` are written by the one Prometheus writer",
        proved: "b062ec0",
    },
    Rule {
        name: "deleted-telemetry",
        paths: &["crates/**"],
        scope: Scope::All,
        find: Find::Needles(&[
            r"\bWindowedCounter\b",
            r"\bWindowedHistogram\b",
            r"\bSloTracker\b",
            r"\bwindow_ticks\b",
            r"\bserve_load\b",
            r"\bTrafficProfile\b",
            r"\bTraceCollector\b",
            r"\btrace_capacity\b",
            r"\btrace_event\b",
            r"\bto_jsonl\b",
            r"\bshard_for\b",
            r"\bstore_us_total\b",
            r"\brepl_stale_reads_total\b",
        ]),
        want: Want::Absent,
        why: "one window ring, no second load harness, a request recorded once in one flight ring",
        proved: "b062ec0, 07a9f05",
    },
    // --- one expression parser ---
    Rule {
        name: "one-precedence-loop",
        paths: &["crates/sqlkit/src/parser.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&[
            "peek().clone()",
            r"fn or_expr\b",
            r"fn and_expr\b",
            r"fn multiplicative\b",
        ]),
        want: Want::Absent,
        why: "tokens are read in place; an expression is one binding-power loop, not a descent",
        proved: "f2760ba",
    },
    // --- one refinement path per beam ---
    Rule {
        name: "one-gate-execution",
        paths: &["crates/core/src/refinement.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["bound.execute(&self.db.database)"]),
        want: Want::Sites(1),
        why: "the beam's gate runs the front's bound statement at one site",
        proved: "0c0609d",
    },
    Rule {
        name: "one-alignment-call",
        paths: &["crates/core/src/refinement.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["align_candidate("]),
        want: Want::Sites(1),
        why: "alignment runs at one site, the miss path of the beam's one table",
        proved: "0c0609d",
    },
    Rule {
        name: "one-plan-cache-site",
        paths: &["crates/core/src/refinement.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["plan_cache()"]),
        want: Want::Sites(1),
        why: "the process-wide plan cache is named once, for gold runs and `Pipeline::query`",
        proved: "0c0609d",
    },
    Rule {
        name: "plan-cache-in-execute",
        paths: &["crates/core/src/refinement.rs"],
        scope: Scope::NonTest,
        find: Find::File(execute_skips_the_plan_cache),
        want: Want::Absent,
        why: "the plan cache's one refinement.rs site is inside `pub fn execute`",
        proved: "0c0609d",
    },
    Rule {
        name: "gate-runs-its-statement",
        paths: &[
            "crates/**/*.rs",
            "src/**/*.rs",
            "tests/**/*.rs",
            "examples/**/*.rs",
            "perfbench/**/*.rs",
        ],
        scope: Scope::All,
        find: Find::Needles(&[r"\bexecute_with\b"]),
        want: Want::Absent,
        why: "`PlanCache::execute_with` stays gone; the gate runs its bound statement itself",
        proved: "e2015a8",
    },
    // --- one front end per beam ---
    Rule {
        name: "one-parse-site",
        paths: &["crates/core/src/refinement.rs", "crates/core/src/alignment.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["parse_select("]),
        want: Want::Sites(1),
        why: "a beam text is parsed at one site, in `Beam::front`",
        proved: "e2015a8",
    },
    Rule {
        name: "one-bind-site",
        paths: &["crates/core/src/refinement.rs", "crates/core/src/alignment.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["sqlkit::bind("]),
        want: Want::Sites(1),
        why: "a beam text is bound at one site, in `Beam::front`",
        proved: "af4edcd",
    },
    Rule {
        name: "no-second-bind",
        paths: &["crates/core/src/refinement.rs", "crates/core/src/alignment.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["sqlkit::analyze("]),
        want: Want::Absent,
        why: "`sqlkit::analyze` would bind a beam text a second time",
        proved: "af4edcd",
    },
    Rule {
        name: "no-second-parse",
        paths: &["crates/core/src/refinement.rs", "crates/core/src/alignment.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["analyze_sql("]),
        want: Want::Absent,
        why: "`analyze_sql` would parse a beam text a second time",
        proved: "e2015a8",
    },
    Rule {
        name: "no-parse-probe",
        paths: &["crates/core/src/refinement.rs", "crates/core/src/alignment.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&[r"\bunparseable\b", r"\bparse_diagnostic\b"]),
        want: Want::Absent,
        why: "the per-text parse probe and alignment's own parse finding stay gone",
        proved: "e2015a8",
    },
    // --- one thread answers one question ---
    Rule {
        name: "no-question-fan-out",
        paths: &["crates/core/src/**", "!crates/core/src/**/eval.rs"],
        scope: Scope::All,
        find: Find::Needles(&["thread::scope", "in_slots"]),
        want: Want::Absent,
        why: "core spreads no question over threads; eval.rs spreads whole questions over scorers",
        proved: "7b6234c",
    },
    Rule {
        name: "no-refine-thread-knob",
        paths: &["crates/core/src/**", "!crates/core/src/config.rs"],
        scope: Scope::All,
        find: Find::Needles(&["refine_threads"]),
        want: Want::Absent,
        why: "no thread-count knob reaches the pipeline",
        proved: "7b6234c",
    },
    Rule {
        name: "one-refine-thread-builder",
        paths: &["crates/core/src/config.rs"],
        scope: Scope::All,
        find: Find::Line(names_refine_threads_outside_the_builder, &["    refine_threads: usize,"]),
        want: Want::Absent,
        why: "only the vestigial `with_refine_threads` builder the frozen harness calls is left",
        proved: "7b6234c",
    },
    Rule {
        name: "no-fallible-model",
        paths: &["crates/**"],
        scope: Scope::All,
        find: Find::Needles(&["ResilientLlm", "FlakyLlm", "FallibleLanguageModel"]),
        want: Want::Absent,
        why: "there is one, infallible way to call a model",
        proved: "7b6234c",
    },
    Rule {
        name: "one-hit-count",
        paths: &["crates/runtime/src/*.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["counter(\"result_cache_hits\")"]),
        want: Want::Sites(1),
        why: "a result-cache hit is counted in `served_hit`, whichever thread serves it",
        proved: "91a558c",
    },
    // --- the analyzer diagnoses, the executor decides ---
    Rule {
        name: "analyzer-predicts-nothing",
        paths: &["crates/**"],
        scope: Scope::All,
        find: Find::Needles(&[
            "certain_error",
            "certain_rejection",
            "Stop::Hazard",
            "without_analyze_gate",
            "pub analyze_gate",
            "LintRule",
        ]),
        want: Want::Absent,
        why: "no certainty replay, no predict-or-execute switch; lint rules are functions",
        proved: "b495514",
    },
    // --- one scope resolver, and the binder is the analyzer ---
    Rule {
        name: "one-column-resolver",
        paths: &["crates/sqlkit/src/**"],
        scope: Scope::All,
        find: Find::Needles(&[
            r"struct Binding\b",
            r"enum Res\b",
            r"fn resolve_in\b",
            r"fn static_resolve\b",
            "fn resolve(",
        ]),
        want: Want::Absent,
        why: "layouts, `*` and column lookups go through scope.rs alone",
        proved: "0639aa9",
    },
    Rule {
        name: "analyzer-walks-no-scopes",
        paths: &["crates/sqlkit/src/analyze.rs"],
        scope: Scope::NonTest,
        find: Find::Line(
            walks_scopes,
            &[
                "struct Checker;",
                "struct Scope {",
                "struct FromTable {",
                "let b = scope::resolve_column(&layout, name);",
                "push_table(t);",
                "push_labels(l);",
                "expand_items(i);",
                "lookup(n);",
                "substitute_aliases(e);",
            ],
        ),
        want: Want::Absent,
        why: "the binder files findings in its one walk; analyze.rs keeps no walk of scopes",
        proved: "af4edcd",
    },
    Rule {
        name: "one-arity-table",
        paths: &["crates/sqlkit/src/*.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&[r"fn scalar_arity\b"]),
        want: Want::OnlyIn("crates/sqlkit/src/functions.rs", 1),
        why: "one module, beside `call_scalar`, knows each function's arity",
        proved: "0639aa9",
    },
    Rule {
        name: "one-function-list",
        paths: &["crates/sqlkit/src/*.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&[r"const KNOWN_FUNCTIONS\b", r"static KNOWN_FUNCTIONS\b"]),
        want: Want::OnlyIn("crates/sqlkit/src/functions.rs", 1),
        why: "one module, beside `call_scalar`, knows which functions exist",
        proved: "0639aa9",
    },
    Rule {
        name: "runtime-analyzes-no-answer",
        paths: &["crates/runtime/src/*.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["analyze_sql("]),
        want: Want::Absent,
        why: "the runtime counts the beam gate's findings instead of analysing the answer again",
        proved: "0639aa9",
    },
    // --- the executor never sees a name ---
    Rule {
        name: "exec-looks-up-no-names",
        paths: &["crates/sqlkit/src/exec.rs"],
        scope: Scope::NonTest,
        find: Find::Line(resolves_names, RESOLVES_NAMES),
        want: Want::Absent,
        why: "the binder resolved every column: no lookup, unbound mode, alias copy or key by name",
        proved: "5665179",
    },
    Rule {
        name: "pipelined-looks-up-no-names",
        paths: &["crates/sqlkit/src/pipelined.rs"],
        scope: Scope::NonTest,
        find: Find::Line(resolves_names, RESOLVES_NAMES),
        want: Want::Absent,
        why: "the binder resolved every column: no lookup, unbound mode, alias copy or key by name",
        proved: "5665179",
    },
    Rule {
        name: "reference-shares-nothing",
        paths: &["crates/sqlkit/src/reference.rs"],
        scope: Scope::All,
        find: Find::Line(
            imports_the_engine,
            &[
                "use crate::exec;",
                "use crate::{ast::Expr, prepare};",
                "use crate::{plan::Plan};",
                "let p = crate::pipelined::run(x);",
            ],
        ),
        want: Want::Absent,
        why: "the test-only reference imports nothing of the executor, binder or planner it checks",
        proved: "5665179",
    },
    // --- the simulated model and the generator ---
    Rule {
        name: "one-misread-draw",
        paths: &["crates/llmsim/src/sim.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["semantic_misread("]),
        want: Want::Sites(1),
        why: "a question's misreading is drawn once, behind the per-question memo",
        proved: "3c1fbac",
    },
    Rule {
        name: "two-generator-queries",
        paths: &["crates/datagen/src/generator.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&[".query("]),
        want: Want::Sites(2),
        why: "the generator queries twice: the memoised join-key probe and the gold admission",
        proved: "327ffdc",
    },
    Rule {
        name: "core-picks-no-index",
        paths: &["crates/core/src/**"],
        scope: Scope::All,
        find: Find::Needles(&["Hnsw::new", "FlatIndex::new"]),
        want: Want::Absent,
        why: "core serves every corpus from vecstore's ServingIndex and constructs no other index",
        proved: "657367b",
    },
    // --- one checksum ---
    Rule {
        name: "one-crc-polynomial",
        paths: &["crates/**/*.rs"],
        scope: Scope::NonTest,
        find: Find::Line(
            spells_the_crc_polynomial,
            &["const P: u32 = 0xEDB8_8320;", "let p = 0X_edb88320;"],
        ),
        want: Want::OnlyIn("crates/store/src/codec.rs", 1),
        why: "every page, section, WAL record, segment and manifest is checked by one CRC kernel",
        proved: "ebc168b",
    },
    Rule {
        name: "one-crc-function",
        paths: &["crates/**/*.rs"],
        scope: Scope::NonTest,
        find: Find::Line(
            defines_a_crc32,
            &["pub fn crc32(bytes: &[u8]) -> u32 {", "fn CRC32_fast() {"],
        ),
        want: Want::OnlyIn("crates/store/src/codec.rs", 1),
        why: "no second checksum grows beside the table kernel",
        proved: "ebc168b",
    },
    // --- one durability point ---
    Rule {
        name: "follower-commits-per-segment",
        paths: &["crates/repl/src/follow.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&[".commit()"]),
        want: Want::Absent,
        why: "the apply loop closes transactions with `commit_deferred`, never one sync each",
        proved: "46d2cab",
    },
    Rule {
        name: "one-segment-sync",
        paths: &["crates/repl/src/follow.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&[".sync_commits()"]),
        want: Want::Sites(1),
        why: "a shipped segment ends with the one `sync_commits`",
        proved: "46d2cab",
    },
    Rule {
        name: "one-wal-sync",
        paths: &["crates/store/src/wal.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["self.media.sync()"]),
        want: Want::Sites(1),
        why: "the primary's commit and the follower's run reach the disk through one sync",
        proved: "46d2cab",
    },
    Rule {
        name: "one-wal-append",
        paths: &["crates/store/src/wal.rs"],
        scope: Scope::NonTest,
        find: Find::Needles(&["self.media.append("]),
        want: Want::Sites(1),
        why: "a transaction reaches the log in one write, through `append_record`",
        proved: "0867837",
    },
    // --- freshness from the key ---
    Rule {
        name: "freshness-from-the-key",
        paths: &["crates/runtime/src/**"],
        scope: Scope::All,
        find: Find::Needles(&["insert_since", "invalidate_where", "epoch", "fn invalidate"]),
        want: Want::Absent,
        why: "the data version is part of the cache key; no sweep, epoch or invalidation protocol",
        proved: "035e019",
    },
    Rule {
        name: "follow-round-takes-no-callback",
        paths: &["crates/cli/src/repl_cmd.rs"],
        scope: Scope::All,
        find: Find::File(follow_round_takes_a_callback),
        want: Want::Absent,
        why: "the follower's round returns what advanced; it calls back into nothing",
        proved: "035e019",
    },
];

/// What `exec-looks-up-no-names` and `pipelined-looks-up-no-names` catch.
const RESOLVES_NAMES: &[&str] = &[
    "let i = scope::lookup(&layout, name)?;",
    "let retired = substitute(expr);",
    "Ctx { bound: None }",
    "let keys = equi_join_indices(on);",
    "let ctx = Ctx::new(db, &outer);",
];

/// A name lookup, an unbound mode, alias-substituted copies, a join key
/// picked by name, or an execution context given more than the database.
fn resolves_names(line: &str) -> bool {
    ["scope::lookup(", "retired", "bound:", "equi_join_indices"].iter().any(|n| line.contains(n))
        || line.match_indices("Ctx::new(").any(|(at, open)| {
            let args = &line[at + open.len()..];
            args[..args.find(')').unwrap_or(args.len())].contains(',')
        })
}

/// `refine_threads` anywhere but on a `with_refine_threads` line.
fn names_refine_threads_outside_the_builder(line: &str) -> bool {
    line.contains("refine_threads") && !line.contains("with_refine_threads")
}

/// A scope-walking type or helper, or a call into scope.rs
/// (`scope::<ident>(`).
fn walks_scopes(line: &str) -> bool {
    const NEEDLES: &[&str] = &[
        r"\bChecker\b",
        r"struct Scope\b",
        r"struct FromTable\b",
        r"\bpush_table(",
        r"\bpush_labels(",
        r"\bexpand_items(",
        r"\blookup(",
        r"\bsubstitute_aliases(",
    ];
    NEEDLES.iter().any(|n| has_needle(line, n))
        || line.match_indices("scope::").any(|(at, prefix)| {
            let rest = &line[at + prefix.len()..];
            let ident = rest.bytes().take_while(|b| b.is_ascii_lowercase() || *b == b'_').count();
            ident > 0 && rest[ident..].starts_with('(')
        })
}

/// `use crate::` of the executor, binder or planner (alone, or named
/// before the first `}` of a group), or a `crate::<module>::` path to one.
fn imports_the_engine(line: &str) -> bool {
    const ENGINE: &[&str] = &["exec", "prepare", "plan", "pipelined"];
    let word = |hay: &str, m: &str| has_needle(hay, &format!(r"\b{m}\b"));
    ENGINE.iter().any(|m| line.contains(&format!("crate::{m}::")))
        || line.match_indices("use crate::").any(|(at, prefix)| {
            let rest = &line[at + prefix.len()..];
            match rest.strip_prefix('{') {
                Some(group) => {
                    let group = &group[..group.find('}').unwrap_or(group.len())];
                    ENGINE.iter().any(|m| word(group, m))
                }
                None => ENGINE.iter().any(|m| {
                    rest.starts_with(m)
                        && !rest[m.len()..].bytes().next().is_some_and(is_ident_char)
                }),
            }
        })
}

/// The CRC-32 polynomial `0xEDB88320`, in any case, with or without `_`
/// between its hex digit groups.
fn spells_the_crc_polynomial(line: &str) -> bool {
    let line = line.to_ascii_lowercase();
    ["0xedb88320", "0x_edb88320", "0xedb8_8320", "0x_edb8_8320"].iter().any(|p| line.contains(p))
}

/// `fn crc32`, in any case.
fn defines_a_crc32(line: &str) -> bool {
    line.to_ascii_lowercase().contains("fn crc32")
}

/// The lines of each range from a line `start` accepts to the next line
/// `end` accepts, both included (awk's `/start/,/end/`).
fn ranges(text: &str, start: impl Fn(&str) -> bool, end: impl Fn(&str) -> bool) -> Vec<&str> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in text.lines() {
        inside = inside || start(line);
        if inside {
            out.push(line);
            inside = !end(line);
        }
    }
    out
}

/// `pub fn execute`'s body (to the first column-0 `}`) does not run
/// `sqlkit::plan_cache().execute(`.
fn execute_skips_the_plan_cache(text: &str) -> bool {
    !ranges(text, |l| l.starts_with("pub fn execute("), |l| l.starts_with('}'))
        .iter()
        .any(|l| l.contains("sqlkit::plan_cache().execute("))
}

/// `pub fn follow_round`'s signature (to its line ending in `{`) takes an
/// `Fn`, `FnMut` or `FnOnce`.
fn follow_round_takes_a_callback(text: &str) -> bool {
    ranges(text, |l| l.contains("pub fn follow_round("), |l| l.ends_with('{'))
        .iter()
        .any(|l| ["Fn(", "FnMut(", "FnOnce("].iter().any(|f| l.contains(f)))
}

/// Does workspace-relative `path` match `glob` (`*` within one segment,
/// `**` across any number of segments, none included)?
fn glob_matches(glob: &str, path: &str) -> bool {
    fn segments(glob: &[&str], path: &[&str]) -> bool {
        match glob.split_first() {
            None => path.is_empty(),
            Some((&"**", rest)) => (0..=path.len()).any(|skip| segments(rest, &path[skip..])),
            Some((pat, rest)) => path
                .split_first()
                .is_some_and(|(seg, tail)| wildcard(pat, seg) && segments(rest, tail)),
        }
    }
    fn wildcard(pat: &str, seg: &str) -> bool {
        match pat.split_once('*') {
            None => pat == seg,
            Some((head, tail)) => {
                seg.starts_with(head)
                    && (head.len()..=seg.len())
                        .any(|at| seg.is_char_boundary(at) && wildcard(tail, &seg[at..]))
            }
        }
    }
    let glob: Vec<&str> = glob.split('/').collect();
    let path: Vec<&str> = path.split('/').collect();
    segments(&glob, &path)
}

fn rule_violation(rule: &Rule, file: &str, line: usize, excerpt: String) -> Violation {
    Violation { file: file.to_string(), line, policy: rule.name, excerpt }
}

impl Rule {
    /// The files of `tree` this rule reads, and a violation for each of its
    /// globs that matches no file of `tree`.
    pub fn select<'t>(&self, tree: &'t [String]) -> (Vec<&'t str>, Vec<Violation>) {
        let mut unmatched = Vec::new();
        for glob in self.paths {
            let pattern = glob.strip_prefix('!').unwrap_or(glob);
            if !tree.iter().any(|f| glob_matches(pattern, f)) {
                unmatched.push(rule_violation(self, glob, 0, "matches no file".into()));
            }
        }
        let matches = |f: &str, negated: bool| {
            self.paths.iter().any(|g| {
                g.starts_with('!') == negated && glob_matches(g.trim_start_matches('!'), f)
            })
        };
        let selected = tree
            .iter()
            .map(String::as_str)
            .filter(|f| *f != TABLE_FILE && matches(f, false) && !matches(f, true))
            .collect();
        (selected, unmatched)
    }

    /// This rule's violations over `files` (workspace-relative path and
    /// content), the files [`Rule::select`] chose.
    pub fn check(&self, files: &[(&str, &str)]) -> Vec<Violation> {
        // (file, 1-based line, text) of every site
        let mut sites: Vec<(&str, usize, &str)> = Vec::new();
        for &(path, content) in files {
            let lines = content.lines().enumerate().map(|(i, l)| (i + 1, l));
            let scoped: Vec<(usize, &str)> = match self.scope {
                Scope::All => lines.collect(),
                Scope::NonTest => lines
                    .take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
                    .filter(|(_, l)| !l.trim_start().starts_with("//"))
                    .collect(),
            };
            match self.find {
                Find::Needles(needles) => sites.extend(
                    scoped
                        .iter()
                        .filter(|(_, l)| needles.iter().any(|n| has_needle(l, n)))
                        .map(|&(i, l)| (path, i, l)),
                ),
                Find::Line(hit, _) => {
                    sites.extend(scoped.iter().filter(|(_, l)| hit(l)).map(|&(i, l)| (path, i, l)))
                }
                Find::File(rejects) => {
                    let text: Vec<&str> = scoped.iter().map(|&(_, l)| l).collect();
                    if rejects(&text.join("\n")) {
                        sites.push((path, 0, self.why));
                    }
                }
            }
        }
        let report = |sites: &[(&str, usize, &str)], want: usize| {
            let at: Vec<String> = sites.iter().map(|(f, i, _)| format!("{f}:{i}")).collect();
            format!("{} sites, want {want}: {}", sites.len(), at.join(", "))
        };
        match self.want {
            Want::Absent => sites
                .iter()
                .map(|&(f, i, l)| rule_violation(self, f, i, l.trim().to_string()))
                .collect(),
            Want::Sites(n) if sites.len() != n => {
                let file = sites.first().map_or(self.paths[0], |s| s.0);
                vec![rule_violation(self, file, 0, report(&sites, n))]
            }
            Want::Sites(_) => Vec::new(),
            Want::OnlyIn(home, n) => {
                let mut out: Vec<Violation> = sites
                    .iter()
                    .filter(|s| s.0 != home)
                    .map(|&(f, i, l)| {
                        rule_violation(self, f, i, format!("outside {home}: {}", l.trim()))
                    })
                    .collect();
                let at_home: Vec<_> = sites.iter().copied().filter(|s| s.0 == home).collect();
                if !files.iter().any(|f| f.0 == home) {
                    out.push(rule_violation(
                        self,
                        home,
                        0,
                        "is not among the selected files".into(),
                    ));
                } else if at_home.len() != n {
                    out.push(rule_violation(self, home, 0, report(&at_home, n)));
                }
                out
            }
        }
    }
}

/// Every file under the workspace's source directories (`crates`, `src`,
/// `tests`, `examples`, `benches`, and `perfbench`, which rules may read),
/// as sorted workspace-relative paths; `target/`, `stubs/` and `.git/` are
/// skipped.
pub fn workspace_tree(root: &Path) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                if !matches!(name.to_str(), Some("target" | "stubs" | ".git")) {
                    walk(root, &path, out);
                }
            } else if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    let mut out = Vec::new();
    for sub in ["crates", "src", "tests", "examples", "benches", "perfbench"] {
        walk(root, &root.join(sub), &mut out);
    }
    out.sort();
    out
}

/// Check `rules` over the workspace at `root`.
pub fn lint_rules(root: &Path, rules: &[Rule]) -> Vec<Violation> {
    let tree = workspace_tree(root);
    let mut out = Vec::new();
    for rule in rules {
        let (selected, unmatched) = rule.select(&tree);
        out.extend(unmatched);
        let contents: Vec<(&str, String)> = selected
            .iter()
            .map(|f| {
                (
                    *f,
                    String::from_utf8_lossy(&std::fs::read(root.join(f)).unwrap_or_default())
                        .into_owned(),
                )
            })
            .collect();
        let files: Vec<(&str, &str)> = contents.iter().map(|(f, c)| (*f, c.as_str())).collect();
        out.extend(rule.check(&files));
    }
    out
}

/// Lint the workspace: the three policies over every `.rs` file outside
/// `perfbench/`, then every rule of [`RULES`]. Returns `(files_checked,
/// violations)`, where `files_checked` counts the policies' files.
pub fn lint_workspace(root: &Path) -> (usize, Vec<Violation>) {
    let rust: Vec<String> = workspace_tree(root)
        .into_iter()
        .filter(|f| f.ends_with(".rs") && !f.starts_with("perfbench/"))
        .collect();
    let mut violations = Vec::new();
    for rel in &rust {
        let Ok(content) = std::fs::read_to_string(root.join(rel)) else { continue };
        violations.extend(lint_file(rel, &content));
    }
    violations.extend(lint_rules(root, RULES));
    (rust.len(), violations)
}
