#!/usr/bin/env bash
# The gate every change must pass: release build, fast engine gate, full
# test suite, bench compilation, warnings-as-errors lint, concurrency
# model checking, and the workspace source lint. Referenced from
# README.md ("Install & build").
#
# Flags:
#   --sanitize   additionally run the concurrency-sensitive test suites
#                under ThreadSanitizer (requires a nightly toolchain with
#                rust-src; skipped with a notice when unavailable).
set -euo pipefail
cd "$(dirname "$0")"

sanitize=0
for arg in "$@"; do
    case "$arg" in
        --sanitize) sanitize=1 ;;
        *) echo "ci: unknown flag $arg" >&2; exit 2 ;;
    esac
done

cargo build --release
cargo test -q -p sqlkit          # fast gate: the SQL substrate everything sits on, incl.
                                 # the naive in-crate reference (hand-written shapes +
                                 # proptest) the one executor and the planned
                                 # UPDATE/DELETE are checked against; the tokenizer
                                 # property (arbitrary text and every non-ASCII
                                 # punctuation mark a model emits lex in bounded time, on
                                 # a deadline thread so a hang is a failure) and the
                                 # analyze-and-render-never-panics property
cargo test -q --test engine_golden # corpus gate: every entry point still answers what the
                                 # deleted FROM/WHERE interpreter answered (rows, labels,
                                 # error text, pipelined rows_scanned), recorded on
                                 # c133160; and indexes on ≡ indexes dropped
cargo test -q --test parse_digest # corpus gate: `{:?}` of parse_script — trees with their
                                 # spans, or error position and text — for the engine
                                 # corpus, the 2,000 bird_mini_dev gold statements, a
                                 # seeded write mix, every pair of binary operators,
                                 # chains around the depth budget and lexical edge cases,
                                 # hashed to what 0867837's ten-function descent printed
cargo test -q --test explain_digest # corpus gate: EXPLAIN of the engine corpus and the
                                 # 2,000 bird_mini_dev gold statements — plan text,
                                 # estimates, per-operator actuals and seeks, rows_scanned
                                 # — hashes to what 5665179 printed
cargo test -q --test exec_allocations -- --nocapture # allocation gate: a gold statement
                                 # runs in at most 120 allocations on average (615 when
                                 # the executor cloned every tuple), per-thread counted;
                                 # prints the census by statement shape (ROADMAP "The
                                 # engine at BIRD's scale", the gold admission). And the
                                 # write census: an INSERT, an UPDATE by key and a DELETE
                                 # by key through Database::execute_script on a 1,000-row
                                 # keyed table make at most 10, 35 and 28 allocations from
                                 # text to applied row (18, 58 and 47 on 0867837, whose
                                 # tokens owned their text and whose DML cloned its
                                 # statement), printed split into parse and apply. And the
                                 # front end: binding a parsed gold statement's copy with
                                 # its analysis and lowering it make at most 80 on average
                                 # (106.4 on 3b37f3b, which analysed in a walk of its own)

# One executor, structurally: the names of the deleted interpreter and of
# the per-statement switch that chose it must not come back.
if grep -rnE 'why_legacy|PlannedPath|build_from|join_sources|Rows::Borrowed' crates/sqlkit/src; then
    echo "ci: a second execution path is back in crates/sqlkit/src" >&2
    exit 1
fi
# DML is find → evaluate → apply, structurally: UPDATE/DELETE take no copy
# of the database (`self.clone()` in db.rs was the two per-statement
# snapshots, and nothing else) and have no row matcher of their own
# (`eval_in_row` survives only in the test-only oracle, reference.rs, which
# the `cargo test -q -p sqlkit` gate above runs the differential proptest
# against).
if grep -n 'self\.clone()' crates/sqlkit/src/db.rs \
    || grep -rn 'eval_in_row' crates/sqlkit/src --exclude=reference.rs; then
    echo "ci: UPDATE/DELETE are copying the database or matching rows on their own again" >&2
    exit 1
fi
# One telemetry core, structurally: one JSON string escaper (osql-trace's
# writer — the `\u{:04x}` arm is what a full escaper cannot do without),
# one place that writes a histogram's `_bucket` lines and spells `+Inf`
# (the Prometheus writer in osql_runtime::metrics), one window ring (the
# per-instrument rings and their private width knob must not come back),
# and no second load harness beside perfbench/.
escapers="$(grep -rlF 'u{:04x}' crates)"
if [ "$escapers" != "crates/trace/src/json.rs" ]; then
    echo "ci: JSON string escaping outside crates/trace/src/json.rs:" $escapers >&2
    exit 1
fi
if grep -rnE '_bucket\{|"_bucket"|\+Inf' crates --include='*.rs' \
    | grep -v -e '^crates/runtime/src/metrics.rs:' -e '^crates/[a-z]*/tests/'; then
    echo "ci: Prometheus histogram lines are being written outside crates/runtime/src/metrics.rs" >&2
    exit 1
fi
if grep -rnwE 'WindowedCounter|WindowedHistogram|SloTracker|window_ticks|serve_load|TrafficProfile' crates; then
    echo "ci: a deleted telemetry type, knob or harness is back under crates/" >&2
    exit 1
fi
cargo test -q --test telemetry_golden # byte gate: registry, window/SLO, flight, trace and
                                 # server JSON renderings equal the files recorded on
                                 # 84ce847, before the four consolidations
# One refinement path, structurally: the beam is the unit, so alignment and
# the beam's execution each have exactly one call site outside tests in
# refinement.rs (the miss path of the beam's one table — `refine_candidate`
# is the beam of one through it, not a second loop), and one thread answers
# one question: no thread fan-out inside core (eval.rs spreads whole
# questions over scorer threads, which is the caller's parallelism, not the
# pipeline's), no thread-count knob beyond the one vestigial builder the
# frozen benchmark harness calls, and no second, fallible way to call a
# model. The gate runs the front's bound statement itself
# (`bound.execute(`, `sqlkit::Bound::execute`): no plan-cache key, lookup,
# lock or insert. The process-wide cache is named once outside tests, in
# `refinement::execute` (eval's gold runs and `Pipeline::query`), and
# `PlanCache::execute_with`, the gate's old way through it, is gone.
non_test_code() { # a source file up to its test module, comment lines dropped
    awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$1" | grep -v '^[[:space:]]*//'
}
need() { # a guard over these files fails, not passes, when one is gone
    for f in "$@"; do
        [ -f "$f" ] || { echo "ci: $f, which a guard reads, is missing" >&2; exit 1; }
    done
}
# One expression parser, structurally: tokens borrow the SQL and the parser
# reads them in place (no `peek().clone()`), and an expression is one
# precedence-climbing loop over a binding-power table, so the per-level
# descent (`or_expr` … `multiplicative`) must not come back beside it.
if non_test_code crates/sqlkit/src/parser.rs | grep -nE 'peek\(\)\.clone\(\)|fn (or_expr|and_expr|multiplicative)\b'; then
    echo "ci: crates/sqlkit/src/parser.rs clones tokens or descends one function per precedence level again" >&2
    exit 1
fi
need crates/core/src/refinement.rs crates/sqlkit/src/prepare.rs
refinement_code="$(non_test_code crates/core/src/refinement.rs)"
for call in 'bound.execute(&self.db.database)' 'align_candidate(' 'plan_cache()'; do
    sites="$(printf '%s\n' "$refinement_code" | grep -cF "$call" || true)"
    if [ "$sites" != 1 ]; then
        echo "ci: $call has $sites non-test call sites in crates/core/src/refinement.rs, want 1" >&2
        exit 1
    fi
done
if ! printf '%s\n' "$refinement_code" \
    | awk '/^pub fn execute\(/,/^}/' | grep -qF 'sqlkit::plan_cache().execute('; then
    echo "ci: the plan cache's one refinement.rs site is not in refinement::execute" >&2
    exit 1
fi
if grep -rnw 'execute_with' crates src tests examples perfbench --include='*.rs'; then
    echo "ci: PlanCache::execute_with is back; the gate runs its bound statement itself" >&2
    exit 1
fi
cargo test -q --test dml_index_upkeep # write-path gate: a seeded 120 x 32 INSERT/UPDATE/
                                 # DELETE mix through Store on a CREATE TABLE … INTEGER
                                 # PRIMARY KEY table: after every statement the key index
                                 # is resident and equals a rebuild, every keyed UPDATE /
                                 # DELETE plans an IxScan, and a reopen (WAL replay) and a
                                 # follower dump byte-identically to the primary
# One front end per beam, structurally: outside tests, refinement.rs and
# alignment.rs parse a text at one site and bind it at one site, both in
# the beam's entry (`Beam::front`; `sqlkit::bind` binds a copy and returns
# its analysis, a parse failure is the E0001 analysis through
# `Analysis::parse_error`), never through `sqlkit::analyze`, which would
# bind it a second time, or `analyze_sql`, which would parse it again.
# Alignment, the gate (which lowers and runs the entry's bound statement)
# and the correction prompt read that entry, so the per-text parse probe
# and alignment's own parse finding must not come back.
need crates/core/src/refinement.rs crates/core/src/alignment.rs
front_code="$(non_test_code crates/core/src/refinement.rs; non_test_code crates/core/src/alignment.rs)"
for want in 'parse_select(:1' 'sqlkit::bind(:1' 'sqlkit::analyze(:0' 'analyze_sql(:0'; do
    sites="$(printf '%s\n' "$front_code" | grep -cF "${want%:*}" || true)"
    if [ "$sites" != "${want##*:}" ]; then
        echo "ci: ${want%:*} has $sites non-test sites in crates/core/src/{refinement,alignment}.rs, want ${want##*:}" >&2
        exit 1
    fi
done
if printf '%s\n' "$front_code" | grep -nwE 'unparseable|parse_diagnostic'; then
    echo "ci: the beam's parse probe or alignment's parse finding is back" >&2
    exit 1
fi
if grep -rnE 'thread::scope|in_slots' crates/core/src --exclude=eval.rs \
    || grep -rn 'refine_threads' crates/core/src | grep -v '^crates/core/src/config.rs:.*with_refine_threads'; then
    echo "ci: crates/core/src is fanning a question out over threads again" >&2
    exit 1
fi
if grep -rnE 'ResilientLlm|FlakyLlm|FallibleLanguageModel' crates; then
    echo "ci: the unwired fallible-model stack is back under crates/" >&2
    exit 1
fi
# A result-cache hit is counted in one place, structurally: the submitting
# thread (before the queue) and a worker (a duplicate queued behind its
# twin) both serve a hit through `served_hit`, so the registry's
# `result_cache_hits` has exactly one non-test increment in the runtime.
sites=0
for f in crates/runtime/src/*.rs; do
    n="$(non_test_code "$f" | grep -cF 'counter("result_cache_hits")' || true)"
    sites=$((sites + n))
done
if [ "$sites" != 1 ]; then
    echo "ci: counter(\"result_cache_hits\") has $sites non-test sites under crates/runtime/src, want 1" >&2
    exit 1
fi
# The analyzer diagnoses, the executor decides, structurally: the analyzer
# holds no prediction of an execution error, refinement has no switch
# between predicting and executing, and the lint rules are functions, not a
# registry — the names of all three must not come back.
if grep -rnE 'certain_error|certain_rejection|Stop::Hazard|without_analyze_gate|pub analyze_gate|LintRule' crates; then
    echo "ci: the analyzer's certainty replay, its knob or the lint registry is back under crates/" >&2
    exit 1
fi
# One scope resolver, structurally: the binder and the executor's plans
# build layouts, expand `*` and look columns up through
# crates/sqlkit/src/scope.rs, so the analyzer's own bindings and resolver,
# the binder's static copy and the executor's private lookup must not come
# back; one module (functions.rs, beside `call_scalar`) knows which
# functions exist and their arities; and the runtime counts the analyzer's
# findings from the beam's gate instead of analysing the answer again.
if grep -rnE 'struct Binding\b|enum Res\b|fn resolve_in\b|fn static_resolve\b|fn resolve\(' crates/sqlkit/src; then
    echo "ci: a second column resolver is back in crates/sqlkit/src" >&2
    exit 1
fi
# The binder is the analyzer, structurally: the binder files the findings
# at the lookups and nodes of its one walk (prepare.rs), so outside tests
# analyze.rs keeps no walk of scopes of its own — no `Checker`, no
# `Scope`/`FromTable`, no call into scope.rs, no alias substitution.
need crates/sqlkit/src/analyze.rs
if non_test_code crates/sqlkit/src/analyze.rs \
    | grep -nE '\bChecker\b|struct (Scope|FromTable)\b|scope::[a-z_]+\(|\b(push_table|push_labels|expand_items|lookup|substitute_aliases)\('; then
    echo "ci: crates/sqlkit/src/analyze.rs walks the statement's scopes itself again" >&2
    exit 1
fi
for needle in 'fn scalar_arity\b' '(const|static) KNOWN_FUNCTIONS\b'; do
    sites="$(for f in crates/sqlkit/src/*.rs; do
        n="$(non_test_code "$f" | grep -cE "$needle" || true)"
        [ "$n" = 0 ] || echo "$f:$n"
    done)"
    if [ "$sites" != "crates/sqlkit/src/functions.rs:1" ]; then
        echo "ci: '$needle' must have one non-test site, in crates/sqlkit/src/functions.rs; found:" $sites >&2
        exit 1
    fi
done
for f in crates/runtime/src/*.rs; do
    if non_test_code "$f" | grep -nF 'analyze_sql('; then
        echo "ci: $f analyses an answer the beam's gate already analysed" >&2
        exit 1
    fi
done
# The executor never sees a name, and the reference shares nothing with it
# (the ROADMAP item of that title), structurally: the binder resolves every
# column to a slot or to an `Expr::Unresolved` that raises its error, so
# outside tests exec.rs and pipelined.rs look no name up, keep no unbound
# mode (`bound:`) or alias-substituted copies (`retired`), pick no join key
# by name (the planner reads slots), and an execution context takes the
# database alone. The test-only reference (reference.rs) resolves names per
# row with its own evaluator and imports nothing from the executor, the
# binder or the planner, so the differential gates compare two
# implementations.
for f in crates/sqlkit/src/exec.rs crates/sqlkit/src/pipelined.rs; do
    if non_test_code "$f" | grep -nE 'scope::lookup\(|retired|bound:|equi_join_indices|Ctx::new\([^)]*,'; then
        echo "ci: $f resolves names at run time again" >&2
        exit 1
    fi
done
if grep -nE 'use crate::(\{[^}]*\b)?(exec|prepare|plan|pipelined)\b|crate::(exec|prepare|plan|pipelined)::' \
    crates/sqlkit/src/reference.rs; then
    echo "ci: crates/sqlkit/src/reference.rs shares code with the engine it checks" >&2
    exit 1
fi
cargo test -q --test beam_differential # corpus gate: every field of every candidate, the
                                 # ledger's tokens and calls and the logical trace of 136
                                 # questions (tiny + a bird-mini-dev sample, 21 candidates)
                                 # equal what a48904b produced refining one candidate at a
                                 # time. One line (`tiny 6`) was
                                 # re-recorded when the certainty replay was deleted: one
                                 # unparseable correction is now handed to the executor
                                 # (same syntax error) instead of being skipped, so one
                                 # candidate's analyze_skips reads 0 for 1 and the logical
                                 # trace says `flagged` for `reject`; nothing else moved
# A question's misreading is drawn once, structurally: the simulated model
# has exactly one call site of the draw outside tests (behind the
# per-question memo for a registered question, direct for an ad hoc one), and
# what an instance keeps never shows in a completion — a long-lived `SimLlm`
# answers every request shape of every tiny dev question (and an ad hoc one),
# across seeds and profiles over one shared oracle, exactly as an instance
# built for that single call does: texts, token counts and latency bits.
sites="$(non_test_code crates/llmsim/src/sim.rs | grep -cF 'semantic_misread(' || true)"
if [ "$sites" != 1 ]; then
    echo "ci: semantic_misread( has $sites non-test call sites in crates/llmsim/src/sim.rs, want 1" >&2
    exit 1
fi
cargo test -q -p llmsim --test memo_equivalence
# A chain's witness join is probed once, structurally: the generator has
# exactly two non-test `.query(` sites, the join-key probe behind the
# per-database `Witnesses` memo and the gold admission, so a per-draw probe
# cannot come back and the admission check cannot be dropped. The memo is
# pinned by the frozen digest: every example of tiny, bird_mini_dev,
# bird ×0.1, spider ×0.1 and bird_mini_dev at ten times the rows hashes to
# what ebc168b generated, one probe per draw.
cargo test -q -p datagen
sites="$(non_test_code crates/datagen/src/generator.rs | grep -cF '.query(' || true)"
if [ "$sites" != 2 ]; then
    echo "ci: .query( has $sites non-test sites in crates/datagen/src/generator.rs, want 2" >&2
    exit 1
fi
cargo test -q --test datagen_golden -- --include-ignored
cargo test -q -p vecstore        # fast gate: the retrieval kernels, incl. the reference-
                                 # differential suite (sparse HNSW/flat ≡ the dense oracle;
                                 # the serving index ≡ flat below its threshold, ≡ the
                                 # same-seed graph ≡ the dense oracle from the crossing
                                 # insert on — ids and score bits)
# One index choice, structurally: which backend serves a corpus is decided
# in vecstore (serving.rs, one constant), so core constructs neither.
if grep -rnE 'Hnsw::new|FlatIndex::new' crates/core/src; then
    echo "ci: crates/core/src is choosing a vector-index backend itself again" >&2
    exit 1
fi
cargo test -q --test retrieval_golden # corpus gate: every retrieval result on the tiny
                                 # profile, hashed per section. columns.retrieve, the
                                 # per-column paths and fewshot.top_k still hash to what
                                 # the all-HNSW c6d94f0 returned; values.retrieve was
                                 # re-recorded when value corpora went to exact search,
                                 # every moved list shown equal to brute-force top-k by
                                 # the file's `census` (run by hand, --ignored)
cargo test -q -p opensearch-sql served_corpora_land # placement gate: every value and
                                 # column index of tiny and bird-mini-dev is an exact scan,
                                 # the 1,500-entry few-shot library the graph

# Store gate: the crash-recovery fault matrix (every-byte truncation +
# corruption of the WAL, ~3.3k injection points), then pack a benchmark
# through the CLI and fsck every produced page file — fsck must exit 0
# on clean stores and non-zero on a corrupted one.
cargo test -q -p osql-store
cargo test -q -p osql-store --test recovery
# One checksum, structurally: the CRC-32 polynomial and `fn crc32` each have
# exactly one non-test site under crates/, the table kernel in
# crates/store/src/codec.rs, so every page, section, WAL record, shipped
# segment and manifest is checked by one function and no second checksum
# grows in osql-repl. The kernel ≡ the bitwise loop it replaced (kept as the
# test-only reference) at every length 0..=72, every start offset 0..8 and
# 2,000 seeded slices, with the corpus digest recorded on 035e019; every
# checksummed format keeps the bytes it had there.
for needle in '0x_?EDB8_?8320' 'fn crc32'; do
    sites="$(find crates -name '*.rs' | sort | while read -r f; do
        n="$(non_test_code "$f" | grep -ciE "$needle" || true)"
        [ "$n" = 0 ] || echo "$f:$n"
    done)"
    if [ "$sites" != "crates/store/src/codec.rs:1" ]; then
        echo "ci: '$needle' must have one non-test site, in crates/store/src/codec.rs; found:" $sites >&2
        exit 1
    fi
done
cargo test -q -p osql-store --lib -- crc32_equals_the_bitwise_reference_at_every_length_and_offset \
    crc32_digest_over_the_corpus_is_frozen
cargo test -q --test store_roundtrip every_checksummed_format_keeps_its_recorded_bytes
store_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir"' EXIT
cargo run --release -q -p osql-cli -- pack "$store_dir" --profile tiny
for f in "$store_dir"/*.store; do
    cargo run --release -q -p osql-cli -- fsck "$f"
done
first_store="$(ls "$store_dir"/*.store | head -n1)"
printf 'X' | dd of="$first_store" bs=1 seek=100 count=1 conv=notrunc status=none
if cargo run --release -q -p osql-cli -- fsck "$first_store" >/dev/null 2>&1; then
    echo "ci: fsck failed to flag an injected corruption" >&2
    exit 1
fi
# The serve line loop through the real binary: one tiny-world request and
# \quit answer with SQL and end with the registry's Prometheus exposition;
# a removed mode exits 2 instead of falling into the interactive REPL.
serve_out="$(printf 'healthcare|How many patients are there?\n\\quit\n' \
    | timeout 120 cargo run --release -q -p osql-cli -- serve --workers 1 2>/dev/null)"
if ! grep -q 'SQL: SELECT' <<<"$serve_out" \
    || ! grep -qx '# TYPE requests_total counter' <<<"$serve_out" \
    || ! tail -n1 <<<"$serve_out" | grep -qE '^[a-z_]+(\{.*\})? [0-9]'; then
    echo "ci: serve did not answer and end with the exposition:" >&2
    printf '%s\n' "$serve_out" >&2
    exit 1
fi
status=0
timeout 60 cargo run --release -q -p osql-cli -- profile </dev/null >/dev/null 2>&1 || status=$?
if [ "$status" != 2 ]; then
    echo "ci: the removed 'profile' mode exited $status, want 2 (usage)" >&2
    exit 1
fi

# Server gate: the HTTP serving layer must build, pass its conformance
# smoke tests (malformed input, header/body limits, keep-alive, quota
# and queue-full 429 paths, graceful drain) and the coalescing
# determinism tests (one pipeline execution, byte-identical responses),
# and stay clippy-clean.
cargo build -p osql-server
cargo test -q -p osql-server --test http_smoke
cargo test -q -p osql-server --test coalesce
cargo clippy -p osql-server --all-targets -- -D warnings

# Replication gate: segment/manifest round-trips and the ship→apply→
# promote fault matrix (no committed-and-shipped txn lost, no unshipped
# suffix invented); follower admission (bounded-staleness floors, 503 +
# Retry-After, /healthz + /metrics exposition); the differential suite
# pinning follower responses byte-identical to the primary whenever the
# floor is met (repl_differential, in the workspace run below); and a CLI
# round-trip on a freshly packed world:
# ship → follow (exit 0, caught up) → promote → fsck-clean replicas.
cargo test -q -p osql-repl
cargo test -q -p osql-repl --test failover
# One durability point per shipped segment, structurally: the apply loop
# closes transactions with `commit_deferred` and ends a segment with the one
# `sync_commits` — no per-transaction `.commit()` in follow.rs outside its
# tests — and in the WAL the primary's commit and the follower's run reach
# the disk through one `self.media.sync()` site (`Wal::commit` is the run of
# one through it, not a second commit path). A transaction reaches the log
# in one write: one `self.media.append(` site (`append_record`, which the
# commit's buffered statements and commit record go through together), so a
# per-statement append cannot come back beside it.
if non_test_code crates/repl/src/follow.rs | grep -nF '.commit()'; then
    echo "ci: crates/repl/src/follow.rs syncs per transaction again" >&2
    exit 1
fi
for site in 'crates/repl/src/follow.rs .sync_commits()' \
    'crates/store/src/wal.rs self.media.sync()' 'crates/store/src/wal.rs self.media.append('; do
    sites="$(non_test_code "${site%% *}" | grep -cF "${site#* }" || true)"
    if [ "$sites" != 1 ]; then
        echo "ci: ${site#* } has $sites non-test call sites in ${site%% *}, want 1" >&2
        exit 1
    fi
done
cargo test -q -p osql-server --test follower
# Freshness comes from the key (ResultKey::seq, the asset entry's seq), not from an ordering protocol.
if grep -rnE 'insert_since|invalidate_where|epoch|fn invalidate' crates/runtime/src \
    || awk '/pub fn follow_round\(/,/\{$/' crates/cli/src/repl_cmd.rs | grep -nE 'Fn(Mut|Once)?\('; then
    echo "ci: the result cache's sweep/epoch or the follower's apply callback is back" >&2
    exit 1
fi
repl_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir" "$repl_dir"' EXIT
cargo run --release -q -p osql-cli -- pack "$repl_dir/primary" --profile tiny
cargo run --release -q -p osql-cli -- repl ship "$repl_dir/primary" "$repl_dir/ship"
cargo run --release -q -p osql-cli -- repl follow "$repl_dir/ship" "$repl_dir/replica"
cargo run --release -q -p osql-cli -- repl promote "$repl_dir/replica"
for f in "$repl_dir/replica"/*.store; do
    cargo run --release -q -p osql-cli -- fsck "$f"
done

# Concurrency gates (osql-chk). Three layers:
#   1. workspace-lint: no raw std::sync primitives in checked crates, no
#      lock().unwrap() outside the sanctioned helper, no wall-clock reads
#      in logical-trace code.
#   2. chk self-tests: the explorer finds its seeded bugs, the lock-order
#      analyzer flags cycles, the lint fires on fixtures.
#   3. model suites: every migrated structure's invariants explored
#      exhaustively under --cfg osql_model (separate target dir so the
#      model-world cfg does not thrash the main build cache).
cargo run --release -q -p osql-chk --bin workspace-lint
cargo test -q -p osql-chk
for crate in osql-chk osql-repl osql-runtime osql-server osql-store osql-trace sqlkit; do
    RUSTFLAGS="--cfg osql_model" CARGO_TARGET_DIR=target/model \
        cargo test -q -p "$crate" --test model
done

# Every suite of every crate plus the root integration tests. The root
# corpus gates run here and only here:
#   analyze_gold_clean    analyzer silent on all gold SQL
#   analyze_differential  the execution error of every broken-statement class, as
#                         literal text recorded on 657367b (where the analyzer's
#                         since-deleted replay predicted the same bytes); a stuck
#                         candidate's statement is executed once per distinct text
#   resolution_differential  analysis and execution of the corpus, every beam text
#                         and the analyzer's cases ≡ the digest recorded on
#                         a1271d1; their bound statements ≡ a second digest,
#                         re-recorded when the binder took JOIN ON, unresolvable
#                         names and separators, and again when it began binding
#                         cores behind an unknown FROM table (only such
#                         statements moved);
#                         every name error execution raises is an E0102 / E0103
#                         with the same sentence
#   trace_shape           trace-determinism gate: two identical runs render
#                         identical logical traces, timestamps and volatile
#                         events excluded; the windowed/SLO exposition stays
#                         byte-deterministic at any worker count
#   planner_differential  the plan cache returns what the engine golden recorded
#                         (corpus gold SQL, sampled specs), paged ≡ in-memory
#                         round trips, index-set invalidation
#   prepared_differential raw ≡ prepared (rows and ExecStats) ≡ the engine golden
#   beam_differential     (also by name above) shared first attempts ≡ the parent's
#                         candidate-by-candidate refinement, field for field (one
#                         line re-recorded on purpose; see the gate above)
#   repl_differential     follower responses byte-identical to the primary
#                         whenever the floor is met
cargo test -q --workspace
cargo bench --no-run -p osql-bench # benches must always compile

# The benchmark harness is a package outside the workspace that compiles
# against sqlkit::{prepare, execute_select, parse_select, analyze_sql,
# plan_cache, PlanCacheStats}, Prepared::execute, PlanCache::prepared,
# opensearch_sql::refinement::{refine_candidate, vote},
# RefinedCandidate::analyze_skips, PipelineConfig::with_refine_threads and
# osql_trace::active::absorb: an API break there must fail here, not in a
# benchmark run. (Its `benchmark_smoke` integration test drives the whole
# suite and is not gated: one of its `cold_full` checks is timing-dependent
# and fails 1–2 runs in 10 — ROADMAP "`[benchmark]` v2: the harness reads
# the system's own instruments".)
cargo metadata --locked --offline --format-version 1 \
    --manifest-path perfbench/Cargo.toml >/dev/null # its lock still describes the graph
cargo build --release --locked --manifest-path perfbench/Cargo.toml
cargo test -q --manifest-path perfbench/Cargo.toml --lib
cargo clippy -p osql-store --all-targets -- -D warnings
cargo clippy --workspace --all-targets -- -D warnings

# Optional ThreadSanitizer stage: the model checker explores schedules a
# real scheduler rarely produces, TSan validates the real std::sync path
# under genuine parallelism. Nightly-only (-Zbuild-std), so this stage is
# opt-in and degrades to a notice when the toolchain is not available.
if [ "$sanitize" -eq 1 ]; then
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if rustup run nightly rustc --version >/dev/null 2>&1 \
        && rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src (installed)'; then
        RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
            cargo +nightly test -Zbuild-std --target "$host" -q \
            -p osql-runtime -p osql-server -p osql-chk
        echo "ci: tsan ok"
    else
        echo "ci: --sanitize requested but nightly toolchain with rust-src is unavailable; skipping TSan stage" >&2
    fi
fi

echo "ci: ok"
