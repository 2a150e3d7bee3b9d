//! Workspace-lint tests: fixtures that must trip each policy, pragma
//! escapes, false-positive guards, and the needle and glob semantics the
//! structural rules read with. The live run over the tree, and each rule's
//! planted violation, are the root `tests/structure.rs`.

use osql_chk::lint::{has_needle, lint_file, Find, Rule, Scope, Want};

fn policies(path: &str, src: &str) -> Vec<String> {
    lint_file(path, src).into_iter().map(|v| v.policy.to_string()).collect()
}

#[test]
fn raw_sync_banned_in_checked_crates() {
    let src = "use std::sync::Mutex;\n";
    assert_eq!(policies("crates/runtime/src/queue.rs", src), ["raw-sync"]);

    let grouped = "use std::sync::{Arc, Condvar, Mutex};\n";
    let v = lint_file("crates/server/src/quota.rs", grouped);
    assert_eq!(v.len(), 1, "grouped import of banned tokens must be flagged: {v:?}");

    let qualified = "fn f() { let m = std::sync::Mutex::new(0); }\n";
    assert_eq!(policies("crates/store/src/catalog.rs", qualified), ["raw-sync"]);

    let atomic = "use std::sync::atomic::AtomicU64;\n";
    assert_eq!(policies("crates/trace/src/collect.rs", atomic), ["raw-sync"]);
}

#[test]
fn raw_sync_allowed_where_not_checked() {
    let src = "use std::sync::Mutex;\n";
    assert!(lint_file("crates/core/src/eval.rs", src).is_empty(), "core is not a checked crate");
    assert!(lint_file("crates/chk/src/sync.rs", src).is_empty(), "chk implements the shims");
}

#[test]
fn raw_sync_ignores_arc_and_mpsc() {
    let src = "use std::sync::Arc;\nuse std::sync::mpsc;\nlet x: Arc<u8> = Arc::new(1);\n";
    assert!(lint_file("crates/runtime/src/queue.rs", src).is_empty());
}

#[test]
fn lock_unwrap_banned_everywhere_outside_chk() {
    for form in [
        "m.lock().unwrap()",
        "m.lock().expect(\"x\")",
        "m.lock().unwrap_or_else(|e| e.into_inner())",
        "l.read().unwrap()",
        "l.write().expect(\"y\")",
    ] {
        let src = format!("fn f() {{ let _ = {form}; }}\n");
        let v = lint_file("crates/core/src/eval.rs", &src);
        assert_eq!(v.len(), 1, "{form} must be flagged: {v:?}");
        assert_eq!(v[0].policy, "lock-unwrap");
    }
    let src = "fn f() { let _ = m.lock().unwrap(); }\n";
    assert!(lint_file("crates/chk/src/lib.rs", src).is_empty(), "chk hosts the policy impl");
}

#[test]
fn lock_unwrap_ignores_io_locks_and_reads() {
    // stdin.lock() takes no poison; file.read(&mut buf) is io::Read
    let src = "let h = std::io::stdin().lock();\nlet n = f.read(&mut buf).unwrap();\n";
    assert!(lint_file("crates/core/src/eval.rs", src).is_empty());
}

#[test]
fn wall_clock_requires_pragma_in_trace() {
    let bare = "fn f() { let t = Instant::now(); }\n";
    assert_eq!(policies("crates/trace/src/model.rs", bare), ["wall-clock"]);
    assert_eq!(
        policies("crates/runtime/src/window.rs", bare),
        ["wall-clock"],
        "windowed metrics are sliced by logical ticks, never the wall clock"
    );
    assert!(
        lint_file("crates/runtime/src/queue.rs", bare).is_empty(),
        "wall-clock policy covers only logical-time paths"
    );

    let annotated = "// chk:allow(wall-clock): span anchor, not logical time\n\
                     fn f() { let t = Instant::now(); }\n";
    assert!(lint_file("crates/trace/src/model.rs", annotated).is_empty());

    let same_line =
        "fn f() { let t = SystemTime::now(); } // chk:allow(wall-clock): export anchor\n";
    assert!(lint_file("crates/trace/src/model.rs", same_line).is_empty());
}

#[test]
fn pragma_without_reason_is_its_own_violation() {
    let src = "// chk:allow(wall-clock)\nfn f() { let t = Instant::now(); }\n";
    let v = lint_file("crates/trace/src/model.rs", src);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].policy, "bad-pragma");
}

#[test]
fn pragma_for_other_policy_does_not_escape() {
    let src = "// chk:allow(raw-sync): wrong policy\nfn f() { let t = Instant::now(); }\n";
    let v = lint_file("crates/trace/src/model.rs", src);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].policy, "wall-clock");
}

#[test]
fn comments_do_not_trip_policies() {
    let src = "// std::sync::Mutex is banned here; use chk::Mutex\n";
    assert!(lint_file("crates/runtime/src/queue.rs", src).is_empty());
}

#[test]
fn needles_read_as_grep_reads_them() {
    assert!(has_needle("let x = a.peek().clone();", "peek().clone()"));
    assert!(has_needle("PlanCache::run_with(db)", r"\brun_with\b"), "`::` is no word character");
    assert!(!has_needle("fn run_without()", r"\brun_with\b"));
    assert!(has_needle("pub fn or_expr(", r"fn or_expr\b"));
    assert!(!has_needle("fn or_exprs(", r"fn or_expr\b"));
    assert!(has_needle("xfn or_expr(", r"fn or_expr\b"), "no boundary asked before `fn`");
    assert!(has_needle("  lookup(name)", r"\blookup("));
    assert!(!has_needle("scope_lookup(name)", r"\blookup("));
    assert!(has_needle("é lookup(name) lookup(x)", r"\blookup("), "a later occurrence counts");
}

#[test]
fn rules_select_by_glob_and_exclusion() {
    let rule = Rule {
        name: "fixture",
        paths: &["crates/*/src/**/*.rs", "!crates/b/src/**"],
        scope: Scope::NonTest,
        find: Find::Needles(&["needle"]),
        want: Want::Sites(1),
        why: "fixture",
        proved: "-",
    };
    let tree: Vec<String> = [
        "crates/a/src/lib.rs",
        "crates/a/src/deep/mod.rs",
        "crates/a/src/notes.md",
        "crates/a/tests/t.rs",
        "crates/b/src/lib.rs",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (selected, unmatched) = rule.select(&tree);
    assert_eq!(selected, ["crates/a/src/lib.rs", "crates/a/src/deep/mod.rs"]);
    assert!(unmatched.is_empty());
    let (_, unmatched) = rule.select(&tree[..2]);
    assert_eq!(unmatched.len(), 1, "an exclusion that matches nothing is stale: {unmatched:?}");

    let site = "fn f() { needle(); }\n";
    let tests = "#[cfg(test)]\nmod tests { fn g() { needle(); } }\n";
    let comment = "// needle\n";
    assert!(rule.check(&[("crates/a/src/lib.rs", site)]).is_empty(), "one site, want 1");
    let hidden = format!("{comment}{tests}");
    let v = rule.check(&[("crates/a/src/lib.rs", &hidden)]);
    assert_eq!(v.len(), 1, "comments and tests are outside the non-test scope: {v:?}");
    let twice = format!("{site}{site}");
    assert_eq!(rule.check(&[("crates/a/src/lib.rs", &twice)]).len(), 1, "two sites, want 1");
}
