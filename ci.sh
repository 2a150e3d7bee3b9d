#!/usr/bin/env bash
# The gate every change must pass: release build, full test suite (each
# suite once), bench compilation, warnings-as-errors lint, concurrency
# model checking, and the CLI round-trips. Referenced from README.md
# ("Install & build"). The source policies and the structural rules
# (one executor, one refinement path per beam, one front end, one
# checksum, one durability point, ...) are osql_chk::lint, run by the
# root tests/structure.rs in `cargo test`, where each rule also proves
# that it fires.
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
# The allocation census prints its tables; the gates themselves run with
# every other test in the workspace run below.
cargo test -q --test exec_allocations -- --nocapture
# The generation digests, with bird_mini_dev at ten times the rows, which
# is ignored in an unoptimised `cargo test`.
cargo test -q --test datagen_golden -- --include-ignored

# Store gate: pack a benchmark through the CLI and fsck every produced
# page file — fsck must exit 0 on clean stores and non-zero on a corrupted
# one.
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

# Server gate: the HTTP serving layer must build and stay clippy-clean.
cargo build -p osql-server
cargo clippy -p osql-server --all-targets -- -D warnings

# Replication gate: a CLI round-trip on a freshly packed world:
# ship → follow (exit 0, caught up) → promote → fsck-clean replicas.
repl_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir" "$repl_dir"' EXIT
cargo run --release -q -p osql-cli -- pack "$repl_dir/primary" --profile tiny
cargo run --release -q -p osql-cli -- repl ship "$repl_dir/primary" "$repl_dir/ship"
cargo run --release -q -p osql-cli -- repl follow "$repl_dir/ship" "$repl_dir/replica"
cargo run --release -q -p osql-cli -- repl promote "$repl_dir/replica"
for f in "$repl_dir/replica"/*.store; do
    cargo run --release -q -p osql-cli -- fsck "$f"
done

# Concurrency gate (osql-chk): the model suites, every migrated
# structure's invariants explored exhaustively under --cfg osql_model
# (separate target dir so the model-world cfg does not thrash the main
# build cache). chk's self-tests run in the workspace run below.
for crate in osql-chk osql-repl osql-runtime osql-server osql-store osql-trace sqlkit; do
    RUSTFLAGS="--cfg osql_model" CARGO_TARGET_DIR=target/model \
        cargo test -q -p "$crate" --test model
done

# Every suite of every crate plus the root integration tests: the gates
# below run here, and in Tier-1's `cargo test -q` too, which tests every
# workspace member (`default-members`).
#   sqlkit                the SQL substrate everything sits on: the naive
#                         in-crate reference (hand-written shapes + proptest)
#                         the one executor and the planned UPDATE/DELETE are
#                         checked against; the tokenizer property (arbitrary
#                         text and every non-ASCII punctuation mark a model
#                         emits lex in bounded time, on a deadline thread so
#                         a hang is a failure); the analyze-and-render-never-
#                         panics property; SQLite's answers at the value edges
#   engine_golden         every entry point still answers what the deleted
#                         FROM/WHERE interpreter answered (rows, labels, error
#                         text, pipelined rows_scanned), recorded on c133160;
#                         and indexes on ≡ indexes dropped
#   parse_digest          `{:?}` of parse_script — trees with their spans, or
#                         error position and text — for the engine corpus, the
#                         2,000 bird_mini_dev gold statements, a seeded write
#                         mix, every pair of binary operators, chains around
#                         the depth budget and lexical edge cases, hashed to
#                         what 0867837's ten-function descent printed
#   explain_digest        EXPLAIN of the engine corpus and the 2,000
#                         bird_mini_dev gold statements — plan text, estimates,
#                         per-operator actuals and seeks, rows_scanned — hashes
#                         to what 5665179 printed
#   exec_allocations      (also above, printing its tables) a gold statement
#                         runs in at most 120 allocations on average (615 when
#                         the executor cloned every tuple); an INSERT, an
#                         UPDATE by key and a DELETE by key on a 1,000-row
#                         keyed table make at most 10, 35 and 28 (18, 58 and
#                         47 on 0867837); binding a gold statement's copy with
#                         its analysis and lowering it at most 80 (106.4 on
#                         3b37f3b), a bind that files findings at most 84
#                         (408.8 on 1863387); Pipeline::answer over 100
#                         bird_mini_dev dev questions at most 1,523 of its own
#                         an answer (3,091 on 1863387) and active::pop at most
#                         10 (441.8); a replay allocates nothing; and
#                         Preprocessed::for_db over the 12 bird_mini_dev
#                         databases at most 17,378 (22,824 on 309ebb8, which
#                         embedded every indexed text into a dense vector)
#   trace_digest          every span and event of the traces of 100
#                         bird_mini_dev answers (name, parent, seq, volatility,
#                         labels in order, timing keys) and their logical
#                         rendering hash to what 1863387 recorded
#   structure             the three source policies and every rule of
#                         osql_chk::lint::RULES hold on this tree; each rule
#                         fires on a violation planted into the real files it
#                         reads, and one whose glob selects no file fails
#   telemetry_golden      registry, window/SLO, flight and server JSON
#                         renderings equal the files recorded on 84ce847
#   dml_index_upkeep      a seeded 120 x 32 INSERT/UPDATE/DELETE mix through
#                         Store on a keyed table: after every statement the
#                         key index is resident and equals a rebuild, every
#                         keyed UPDATE / DELETE plans an IxScan, and a reopen
#                         (WAL replay) and a follower dump byte-identically
#   beam_differential     every field of every candidate, the ledger's tokens
#                         and calls and the logical trace of 136 questions
#                         equal what a48904b produced refining one candidate
#                         at a time (one line, `tiny 6`, re-recorded when the
#                         certainty replay was deleted; nothing else moved)
#   memo_equivalence      (llmsim) a long-lived SimLlm answers every request
#                         shape of every tiny dev question, across seeds and
#                         profiles over one shared oracle, exactly as an
#                         instance built for that single call does: texts,
#                         token counts and latency bits (rule
#                         `one-misread-draw`)
#   datagen, datagen_golden  the witness memo: every example of tiny,
#                         bird_mini_dev, bird ×0.1, spider ×0.1 and (above)
#                         bird_mini_dev at ten times the rows hashes to what
#                         ebc168b generated, one probe per draw (rule
#                         `two-generator-queries`)
#   vecstore              the retrieval kernels: sparse HNSW/flat ≡ the dense
#                         oracle; the serving postings ≡ the flat scan at
#                         every size and density, search and similarity — ids
#                         and score bits; the sparse embedder ≡ the frozen
#                         dense one, and postings built from its rows ≡ those
#                         built from the dense vectors
#   retrieval_golden      every retrieval result on the tiny profile, hashed
#                         per section, and bird_mini_dev's few-shot top-5;
#                         values.retrieve and the bird_mini_dev few-shot
#                         section were re-recorded when those corpora went to
#                         exact search, every moved list shown equal to the
#                         exact top-k by the file's `census` (--ignored)
#   osql-store            the crash-recovery fault matrix (every-byte
#                         truncation + corruption of the WAL, ~3.3k injection
#                         points); one checksum (rules `one-crc-polynomial`,
#                         `one-crc-function`): the table kernel ≡ the bitwise
#                         loop it replaced at every length 0..=72, every start
#                         offset 0..8 and 2,000 seeded slices, with the corpus
#                         digest recorded on 035e019; store_roundtrip: every
#                         checksummed format keeps the bytes it had there
#   osql-server           HTTP conformance (malformed input, header/body
#                         limits, keep-alive, quota and queue-full 429 paths,
#                         graceful drain), coalescing determinism (one
#                         pipeline execution, byte-identical responses),
#                         follower admission (bounded-staleness floors, 503 +
#                         Retry-After, /healthz + /metrics exposition)
#   osql-repl             segment/manifest round-trips and the ship→apply→
#                         promote fault matrix (no committed-and-shipped txn
#                         lost, no unshipped suffix invented)
#   osql-chk              the explorer finds its seeded bugs, the lock-order
#                         analyzer flags cycles, the lint fires on fixtures
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
