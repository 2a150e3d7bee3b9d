//! The workspace lint over this tree: the three source policies and every
//! structural rule of `osql_chk::lint::RULES` hold, each rule fires on a
//! violation planted into the real files it reads, and a rule whose glob
//! selects nothing fails instead of passing silently.

use osql_chk::lint::{lint_rules, lint_workspace, workspace_tree, Find, Rule, Scope, Want, RULES};
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn report(violations: &[osql_chk::lint::Violation]) -> String {
    violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
}

#[test]
fn the_tree_keeps_every_policy_and_rule() {
    let (files, violations) = lint_workspace(root());
    assert!(files > 30, "expected to scan the whole workspace, saw {files} files");
    assert!(violations.is_empty(), "workspace must be lint-clean:\n{}", report(&violations));
}

/// The lines that break a rule when written into a file it reads: each
/// needle (its `\b` markers dropped) or each line a function rule names.
fn offending_lines(rule: &Rule) -> Vec<String> {
    match rule.find {
        Find::Needles(needles) => needles
            .iter()
            .map(|n| n.trim_start_matches(r"\b").trim_end_matches(r"\b").to_string())
            .collect(),
        Find::Line(_, lines) => lines.iter().map(|l| l.to_string()).collect(),
        Find::File(_) => Vec::new(),
    }
}

/// The planted copies of `files` for a rule that reads whole functions:
/// its one required site moved out of its function, or a callback put
/// into the signature it keeps free of one.
fn moved_sites(rule: &Rule, files: &[(String, String)]) -> Vec<Vec<(String, String)>> {
    let (site, edit): (&str, fn(&str, &str) -> String) = match rule.name {
        "plan-cache-in-execute" => ("sqlkit::plan_cache().execute(", |content, site| {
            let body: Vec<&str> = content.lines().filter(|l| !l.contains(site)).collect();
            format!("fn elsewhere() {{ let _ = {site}db, sql); }}\n{}", body.join("\n"))
        }),
        "follow-round-takes-no-callback" => ("pub fn follow_round(", |content, site| {
            content.replacen(site, &format!("{site}\n    apply: impl FnMut(u64),"), 1)
        }),
        other => panic!("rule {other} reads whole functions, and nothing here plants its breach"),
    };
    let (path, content) = files
        .iter()
        .find(|(_, c)| c.contains(site))
        .unwrap_or_else(|| panic!("{}: no file holds {site}", rule.name));
    let planted = edit(content, site);
    assert_ne!(&planted, content, "{}: the plant changed nothing", rule.name);
    vec![files
        .iter()
        .map(|(p, c)| (p.clone(), if p == path { planted.clone() } else { c.clone() }))
        .collect()]
}

/// One planted copy of `files` per offending line of the rule: for an
/// absent rule, the line in the first file; for a counted one, one site
/// more; for a one-file rule, the line in another file and one site more
/// in its own.
fn plants(rule: &Rule, files: &[(String, String)]) -> Vec<Vec<(String, String)>> {
    if let Find::File(_) = rule.find {
        return moved_sites(rule, files);
    }
    // the line goes first in the file, which is inside every scope
    let plant_in = |target: &str, line: &str| -> Vec<(String, String)> {
        files
            .iter()
            .map(|(p, c)| (p.clone(), if p == target { format!("{line}\n{c}") } else { c.clone() }))
            .collect()
    };
    let mut out = Vec::new();
    for line in offending_lines(rule) {
        match rule.want {
            Want::Absent | Want::Sites(_) => out.push(plant_in(&files[0].0, &line)),
            Want::OnlyIn(home, _) => {
                let other = files.iter().find(|(p, _)| p != home).expect("a second selected file");
                out.push(plant_in(&other.0, &line));
                out.push(plant_in(home, &line));
            }
        }
    }
    out
}

#[test]
fn every_rule_fires_on_a_planted_violation() {
    let tree = workspace_tree(root());
    for rule in RULES {
        let (selected, unmatched) = rule.select(&tree);
        assert!(unmatched.is_empty(), "{}", report(&unmatched));
        let files: Vec<(String, String)> = selected
            .iter()
            .map(|f| (f.to_string(), std::fs::read_to_string(root().join(f)).unwrap()))
            .collect();
        let check = |files: &[(String, String)]| {
            let borrowed: Vec<(&str, &str)> =
                files.iter().map(|(p, c)| (p.as_str(), c.as_str())).collect();
            rule.check(&borrowed)
        };
        let clean = check(&files);
        assert!(clean.is_empty(), "{}", report(&clean));
        let planted = plants(rule, &files);
        assert!(!planted.is_empty(), "{}: nothing to plant", rule.name);
        for copy in planted {
            let fired = check(&copy);
            assert!(!fired.is_empty(), "{} did not fire on its planted violation", rule.name);
            assert!(fired.iter().all(|v| v.policy == rule.name));
        }
    }
}

#[test]
fn a_rule_whose_files_are_gone_fails() {
    let ghost = Rule {
        name: "ghost",
        paths: &["crates/no-such-crate/**"],
        scope: Scope::All,
        find: Find::Needles(&["anything"]),
        want: Want::Absent,
        why: "selects nothing",
        proved: "-",
    };
    let violations = lint_rules(root(), &[ghost]);
    assert_eq!(violations.len(), 1, "{}", report(&violations));
    assert_eq!((violations[0].policy, violations[0].file.as_str()), ("ghost", ghost.paths[0]));
    // every real rule fails, too, when the files it reads are renamed away
    for rule in RULES {
        let (selected, unmatched) = rule.select(&[]);
        assert!(selected.is_empty());
        assert_eq!(unmatched.len(), rule.paths.len(), "{}", rule.name);
    }
}
