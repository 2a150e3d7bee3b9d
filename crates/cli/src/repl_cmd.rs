//! Replication CLI modes: `repl ship` (publish every store's committed
//! WAL suffix into a shipping directory), `repl follow` (catch a
//! follower's stores up to the shipped stream, bootstrapping missing
//! ones from the published base), and `repl promote` (truncate each
//! follower store's log at its applied prefix and leave it a writable
//! primary). Logic lives here, separated from `main`, so it is
//! unit-testable without a terminal; the `serve --follow` background
//! loop reuses [`follow_round`].

use osql_repl::{seed_if_missing, ship_store, ApplyReport, Follower, FsShipDir, ReplError, ReplState};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Every `<db_id>.store` file in `dir`, sorted by database ID.
fn store_files(dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot scan {}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|e| e == "store") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                out.push((stem.to_owned(), path.clone()));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Every `<db_id>/` shipping subdirectory under `root`, sorted.
fn ship_dirs(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(root).map_err(|e| format!("cannot read {}: {e}", root.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot scan {}: {e}", root.display()))?.path();
        if path.is_dir() {
            if let Some(name) = path.file_name().and_then(|s| s.to_str()) {
                out.push((name.to_owned(), path.clone()));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `repl ship <store_dir> <ship_root>`: publish each store's committed
/// WAL suffix as a segment under `<ship_root>/<db_id>/`, advancing that
/// database's manifest. Idempotent: re-shipping an unchanged store
/// publishes nothing.
pub fn run_ship(store_dir: &Path, ship_root: &Path) -> Result<String, String> {
    let stores = store_files(store_dir)?;
    if stores.is_empty() {
        return Err(format!("no .store files in {}", store_dir.display()));
    }
    let mut out = String::new();
    for (db, path) in &stores {
        let media = FsShipDir::open(&ship_root.join(db))
            .map_err(|e| format!("{db}: cannot open shipping dir: {e}"))?;
        let report = ship_store(path, &media).map_err(|e| format!("{db}: ship failed: {e}"))?;
        let _ = write!(out, "{db}: at seq {}", report.last_commit_seq);
        if report.published_base {
            let _ = write!(out, ", base published");
        }
        match &report.segment {
            Some(name) => {
                let _ = writeln!(
                    out,
                    ", shipped {} txn(s) ({} stmt(s)) as {name}",
                    report.shipped_txns, report.shipped_stmts
                );
            }
            None => {
                let _ = writeln!(out, ", nothing new to ship");
            }
        }
    }
    let _ = writeln!(out, "shipped {} database(s) into {}", stores.len(), ship_root.display());
    Ok(out)
}

/// Per-database outcomes of one catch-up round.
pub type RoundOutcomes = Vec<(String, Result<ApplyReport, ReplError>)>;

/// One follower catch-up round over every database under `ship_root`:
/// seed missing stores from the published base, open each follower
/// store, and apply the shipped stream up to its manifest. Outcomes are
/// recorded into `state` (the serving side's staleness source) and
/// returned per database.
pub fn follow_round(
    ship_root: &Path,
    store_dir: &Path,
    state: &ReplState,
) -> Result<RoundOutcomes, String> {
    let dirs = ship_dirs(ship_root)?;
    std::fs::create_dir_all(store_dir)
        .map_err(|e| format!("cannot create {}: {e}", store_dir.display()))?;
    let mut out = Vec::new();
    for (db, dir) in dirs {
        let media = match FsShipDir::open(&dir) {
            Ok(m) => m,
            Err(e) => {
                state.note_error(&db, &e.to_string());
                out.push((db, Err(ReplError::Io(e))));
                continue;
            }
        };
        let store_path = store_dir.join(format!("{db}.store"));
        let outcome = seed_if_missing(&store_path, &media).and_then(|_| {
            let (mut follower, _) = Follower::open(&store_path)?;
            follower.poll(&media)
        });
        match &outcome {
            Ok(report) => state.note_poll(&db, report),
            Err(e) => state.note_error(&db, &e.to_string()),
        }
        out.push((db, outcome));
    }
    Ok(out)
}

/// `repl follow <ship_root> <store_dir>`: one catch-up round, rendered.
/// Returns the report and whether any database failed to apply.
pub fn run_follow(ship_root: &Path, store_dir: &Path) -> Result<(String, bool), String> {
    let state = ReplState::new(1);
    let rounds = follow_round(ship_root, store_dir, &state)?;
    if rounds.is_empty() {
        return Err(format!("no shipping subdirectories in {}", ship_root.display()));
    }
    let mut out = String::new();
    let mut failed = false;
    for (db, outcome) in &rounds {
        match outcome {
            Ok(report) => {
                let _ = write!(
                    out,
                    "{db}: applied {} txn(s) from {} segment(s), at seq {} of {}",
                    report.applied_txns,
                    report.segments_read,
                    report.applied_seq,
                    report.target_seq
                );
                match &report.finding {
                    Some(f) => {
                        let _ = writeln!(out, " — {f}");
                    }
                    None => out.push('\n'),
                }
            }
            Err(e) => {
                let _ = writeln!(out, "{db}: FAILED: {e}");
                failed = true;
            }
        }
    }
    let _ = writeln!(
        out,
        "followed {} database(s) into {} (max lag {})",
        rounds.len(),
        store_dir.display(),
        state.max_lag()
    );
    Ok((out, failed))
}

/// `repl promote <store_dir>`: promote every follower store — refuse on
/// a dirty log, checkpoint the applied prefix into the base, truncate
/// the WAL, and leave the store writable as a new primary.
pub fn run_promote(store_dir: &Path) -> Result<String, String> {
    let stores = store_files(store_dir)?;
    if stores.is_empty() {
        return Err(format!("no .store files in {}", store_dir.display()));
    }
    let mut out = String::new();
    for (db, path) in &stores {
        let (follower, _) =
            Follower::open(path).map_err(|e| format!("{db}: cannot open: {e}"))?;
        let (_store, report) =
            follower.promote().map_err(|e| format!("{db}: promote failed: {e}"))?;
        let _ = writeln!(
            out,
            "{db}: promoted at seq {} ({} base byte(s)); now writable",
            report.promoted_at_seq, report.base_bytes
        );
    }
    let _ = writeln!(out, "promoted {} database(s) in {}", stores.len(), store_dir.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeOptions;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osql-cli-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Pack a world, mutate one store, and ship → follow → promote the
    /// whole directory; the promoted replica must pass fsck clean and
    /// hold the primary's position.
    #[test]
    fn ship_follow_promote_round_trip() {
        let root = tmpdir("roundtrip");
        let primary = root.join("primary");
        let ship = root.join("ship");
        let replica = root.join("replica");
        crate::store_cmd::run_pack(&ServeOptions::default(), &primary).unwrap();

        // commit live transactions on one primary store so the WAL has
        // a suffix worth shipping
        let (db, path) = super::store_files(&primary).unwrap().remove(0);
        let mut store = osql_store::Store::open(&path).unwrap().0;
        store
            .execute("CREATE TABLE repl_probe (id INTEGER PRIMARY KEY, note TEXT)")
            .unwrap();
        store.execute("INSERT INTO repl_probe VALUES (1, 'shipped')").unwrap();
        let seq = store.commit().unwrap();
        drop(store);

        let shipped = run_ship(&primary, &ship).unwrap();
        assert!(shipped.contains(&format!("{db}: at seq {seq}")), "{shipped}");
        assert!(shipped.contains("base published"), "{shipped}");

        let (followed, failed) = run_follow(&ship, &replica).unwrap();
        assert!(!failed, "{followed}");
        assert!(followed.contains(&format!("at seq {seq} of {seq}")), "{followed}");
        assert!(followed.contains("(max lag 0)"), "{followed}");

        // idempotent: a second round applies nothing
        let (again, failed) = run_follow(&ship, &replica).unwrap();
        assert!(!failed, "{again}");
        assert!(again.contains("applied 0 txn(s)"), "{again}");

        let promoted = run_promote(&replica).unwrap();
        assert!(promoted.contains(&format!("{db}: promoted at seq {seq}")), "{promoted}");

        // the promoted store is clean, writable, and holds the shipped row
        let replica_store = replica.join(format!("{db}.store"));
        let (out, dirty) = crate::store_cmd::run_fsck(&replica_store);
        assert!(!dirty, "promoted store must fsck clean:\n{out}");
        let mut store = osql_store::Store::open(&replica_store).unwrap().0;
        let rows = store.database().rows("repl_probe").unwrap().to_vec();
        assert!(format!("{rows:?}").contains("shipped"), "{rows:?}");
        store.execute("INSERT INTO repl_probe VALUES (2, 'post-promote')").unwrap();
        assert_eq!(store.commit().unwrap(), seq + 1, "promoted primary continues the sequence");

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn follow_records_state_and_surfaces_errors() {
        let root = tmpdir("state");
        let primary = root.join("primary");
        let ship = root.join("ship");
        let replica = root.join("replica");
        crate::store_cmd::run_pack(&ServeOptions::default(), &primary).unwrap();
        run_ship(&primary, &ship).unwrap();

        let state = ReplState::new(1);
        let rounds = follow_round(&ship, &replica, &state).unwrap();
        assert!(!rounds.is_empty());
        for (db, outcome) in &rounds {
            let report = outcome.as_ref().unwrap();
            assert_eq!(state.applied_seq(db), Some(report.applied_seq));
            assert_eq!(state.status(db).unwrap().lag(), 0);
        }

        // a vanished manifest byte is an error round: the position
        // survives and the error is recorded, not applied through
        let (db, dir) = super::ship_dirs(&ship).unwrap().remove(0);
        let manifest = dir.join(osql_repl::MANIFEST_NAME);
        let mut bytes = std::fs::read(&manifest).unwrap();
        bytes[12] ^= 0xFF;
        std::fs::write(&manifest, &bytes).unwrap();
        let before = state.applied_seq(&db).unwrap();
        let rounds = follow_round(&ship, &replica, &state).unwrap();
        let (_, outcome) = rounds.iter().find(|(d, _)| *d == db).unwrap();
        assert!(outcome.is_err(), "corrupt manifest must fail the round");
        assert_eq!(state.applied_seq(&db), Some(before), "position survives");
        assert!(state.status(&db).unwrap().last_error.is_some());

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_directories_error_cleanly() {
        let missing = std::env::temp_dir().join("osql-cli-repl-definitely-missing");
        assert!(run_ship(&missing, &missing).is_err());
        assert!(run_follow(&missing, &missing).is_err());
        assert!(run_promote(&missing).is_err());
    }
}
