#!/usr/bin/env bash
# The gate every change must pass: release build, fast engine gate, full
# test suite, bench compilation, warnings-as-errors lint, concurrency
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
                                 # (106.4 on 3b37f3b, which analysed in a walk of its own),
                                 # and a bind that files findings at most 84 (408.8 on
                                 # 1863387, whose did-you-mean distance collected a Vec a
                                 # row). And the answer census: Pipeline::answer over 100
                                 # bird_mini_dev dev questions under a pushed trace makes at
                                 # most 1,523 allocations of its own an answer (3,091 on
                                 # 1863387) and active::pop at most 10 (441.8), printed
                                 # beside the model's 3,298; a replay allocates nothing
cargo test -q --test trace_digest # trace gate: every span and event of the traces of 100
                                 # bird_mini_dev answers (name, parent, seq, volatility,
                                 # labels in order, timing keys) and their logical
                                 # rendering hash to what 1863387 recorded, before labels
                                 # were written once into one text arena
cargo test -q --test structure   # structure gate: the three source policies and every
                                 # rule of osql_chk::lint::RULES hold on this tree; each
                                 # rule fires on a violation planted into the real files
                                 # it reads, and one whose glob selects no file fails
cargo test -q --test telemetry_golden # byte gate: registry, window/SLO, flight and
                                 # server JSON renderings equal the files recorded on
                                 # 84ce847, before the four consolidations
cargo test -q --test dml_index_upkeep # write-path gate: a seeded 120 x 32 INSERT/UPDATE/
                                 # DELETE mix through Store on a CREATE TABLE … INTEGER
                                 # PRIMARY KEY table: after every statement the key index
                                 # is resident and equals a rebuild, every keyed UPDATE /
                                 # DELETE plans an IxScan, and a reopen (WAL replay) and a
                                 # follower dump byte-identically to the primary
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
# A question's misreading is drawn once (rule `one-misread-draw`), and what
# an instance keeps never shows in a completion — a long-lived `SimLlm`
# answers every request shape of every tiny dev question (and an ad hoc one),
# across seeds and profiles over one shared oracle, exactly as an instance
# built for that single call does: texts, token counts and latency bits.
cargo test -q -p llmsim --test memo_equivalence
# A chain's witness join is probed once (rule `two-generator-queries`). The
# memo is pinned by the frozen digest: every example of tiny, bird_mini_dev,
# bird ×0.1, spider ×0.1 and bird_mini_dev at ten times the rows hashes to
# what ebc168b generated, one probe per draw.
cargo test -q -p datagen
cargo test -q --test datagen_golden -- --include-ignored
cargo test -q -p vecstore        # fast gate: the retrieval kernels, incl. the reference-
                                 # differential suite (sparse HNSW/flat ≡ the dense oracle;
                                 # the serving postings ≡ the flat scan at every size and
                                 # density, search and similarity — ids and score bits)
cargo test -q --test retrieval_golden # corpus gate: every retrieval result on the tiny
                                 # profile, hashed per section, and bird_mini_dev's
                                 # few-shot top-5. columns.retrieve, the per-column paths
                                 # and tiny's fewshot.top_k still hash to what the
                                 # all-HNSW c6d94f0 returned; values.retrieve and the
                                 # bird_mini_dev few-shot section were re-recorded when
                                 # those corpora went to exact search, every moved list
                                 # shown equal to the exact top-k by the file's `census`
                                 # (run by hand, --ignored)

# Store gate: the crash-recovery fault matrix (every-byte truncation +
# corruption of the WAL, ~3.3k injection points), then pack a benchmark
# through the CLI and fsck every produced page file — fsck must exit 0
# on clean stores and non-zero on a corrupted one.
cargo test -q -p osql-store
cargo test -q -p osql-store --test recovery
# One checksum (rules `one-crc-polynomial`, `one-crc-function`): the table
# kernel ≡ the bitwise loop it replaced (kept as the test-only reference) at
# every length 0..=72, every start offset 0..8 and 2,000 seeded slices, with
# the corpus digest recorded on 035e019; every checksummed format keeps the
# bytes it had there.
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
cargo test -q -p osql-server --test follower
repl_dir="$(mktemp -d)"
trap 'rm -rf "$store_dir" "$repl_dir"' EXIT
cargo run --release -q -p osql-cli -- pack "$repl_dir/primary" --profile tiny
cargo run --release -q -p osql-cli -- repl ship "$repl_dir/primary" "$repl_dir/ship"
cargo run --release -q -p osql-cli -- repl follow "$repl_dir/ship" "$repl_dir/replica"
cargo run --release -q -p osql-cli -- repl promote "$repl_dir/replica"
for f in "$repl_dir/replica"/*.store; do
    cargo run --release -q -p osql-cli -- fsck "$f"
done

# Concurrency gates (osql-chk). Two layers beside the source policies that
# tests/structure.rs runs:
#   1. chk self-tests: the explorer finds its seeded bugs, the lock-order
#      analyzer flags cycles, the lint fires on fixtures.
#   2. model suites: every migrated structure's invariants explored
#      exhaustively under --cfg osql_model (separate target dir so the
#      model-world cfg does not thrash the main build cache).
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
