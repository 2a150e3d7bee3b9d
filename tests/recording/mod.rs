//! Where a golden recorder writes: under `target/golden/`, never over the
//! oracle in `tests/golden/` — a recording becomes the oracle only by the
//! `cp` it prints, after the `diff` has been read.

use std::path::Path;

/// Write a recording of the oracle `tests/golden/<rel>` to
/// `target/golden/<rel>` and print the commands that compare and promote it.
pub fn write(rel: &str, contents: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let oracle = root.join("tests/golden").join(rel);
    let recorded = root.join("target/golden").join(rel);
    std::fs::create_dir_all(recorded.parent().expect("a file under target/golden"))
        .expect("create target/golden");
    std::fs::write(&recorded, contents).expect("write recording");
    eprintln!(
        "recorded {r}\n  diff {o} {r}\n  cp {r} {o}",
        r = recorded.display(),
        o = oracle.display()
    );
}
