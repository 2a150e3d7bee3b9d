//! Workspace lint gate. Run from anywhere inside the repo (or pass the
//! workspace root as the first argument); exits non-zero when any policy
//! or structural rule is violated. See `osql_chk::lint` for both; the
//! root `tests/structure.rs` runs the same check under `cargo test`.

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    if let Some(arg) = std::env::args().nth(1) {
        return PathBuf::from(arg);
    }
    // walk up from cwd to the first dir with a Cargo.toml declaring a
    // [workspace]
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn main() -> ExitCode {
    let root = workspace_root();
    let (files, violations) = osql_chk::lint::lint_workspace(&root);
    for v in &violations {
        eprintln!("{v}");
    }
    if violations.is_empty() {
        println!("workspace-lint: {files} files checked, 0 violations");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "workspace-lint: {files} files checked, {} violation(s). \
             For a policy, use the osql_chk shims / lock_or_recover, or add a \
             justified `chk:allow(<policy>): <reason>` pragma; a rule is named \
             by its row in osql_chk::lint::RULES.",
            violations.len()
        );
        ExitCode::FAILURE
    }
}
