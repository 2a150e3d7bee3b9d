//! Durable store export/import for generated benchmarks.
//!
//! Where [`crate::export`] mirrors BIRD's human-readable layout (JSON
//! splits + SQL scripts), this module persists each database as an
//! `osql-store` page file: the `sqlkit` schema and rows go into typed
//! sections, and the generation metadata the pipeline needs beyond the
//! raw data — column kinds, quirks, nouns, the display↔stored
//! dictionaries — rides along as a named blob encoded with the store's
//! own checksummed binary codec. A directory of `<db_id>.store` files
//! is exactly what the runtime's `open_paged_catalog` demand-pages at
//! serve time.

use crate::bench::Benchmark;
use crate::build::{BuiltDb, ColMeta, TableMeta};
use crate::values::{ColKind, Quirk};
use osql_store::{CodecError, Dec, Enc, StoreError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Name of the blob section carrying datagen metadata.
pub const META_BLOB: &str = "datagen.meta";

// ---- ColKind / Quirk tags (two bytes: tag + payload) -------------------

fn kind_tag(kind: ColKind) -> (u8, u8) {
    match kind {
        ColKind::Id => (0, 0),
        ColKind::Fk => (1, 0),
        ColKind::PersonName => (2, 0),
        ColKind::City => (3, 0),
        ColKind::Country => (4, 0),
        ColKind::Category(n) => (5, n),
        ColKind::Status => (6, 0),
        ColKind::Date => (7, 0),
        ColKind::Year => (8, 0),
        ColKind::Money => (9, 0),
        ColKind::Measure => (10, 0),
        ColKind::Count => (11, 0),
        ColKind::Age => (12, 0),
        ColKind::Flag => (13, 0),
        ColKind::Label => (14, 0),
    }
}

fn tag_kind(tag: u8, payload: u8) -> Result<ColKind, CodecError> {
    Ok(match tag {
        0 => ColKind::Id,
        1 => ColKind::Fk,
        2 => ColKind::PersonName,
        3 => ColKind::City,
        4 => ColKind::Country,
        5 => ColKind::Category(payload),
        6 => ColKind::Status,
        7 => ColKind::Date,
        8 => ColKind::Year,
        9 => ColKind::Money,
        10 => ColKind::Measure,
        11 => ColKind::Count,
        12 => ColKind::Age,
        13 => ColKind::Flag,
        14 => ColKind::Label,
        t => return Err(CodecError(format!("unknown ColKind tag {t}"))),
    })
}

fn quirk_tag(q: Quirk) -> u8 {
    match q {
        Quirk::None => 0,
        Quirk::Upper => 1,
        Quirk::Lower => 2,
        Quirk::Abbrev => 3,
        Quirk::Coded => 4,
    }
}

fn tag_quirk(tag: u8) -> Result<Quirk, CodecError> {
    Ok(match tag {
        0 => Quirk::None,
        1 => Quirk::Upper,
        2 => Quirk::Lower,
        3 => Quirk::Abbrev,
        4 => Quirk::Coded,
        t => return Err(CodecError(format!("unknown Quirk tag {t}"))),
    })
}

// ---- metadata blob codec -----------------------------------------------

fn encode_meta(db: &BuiltDb) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_str(&db.domain);
    enc.put_f64(db.complexity);
    enc.put_u32(db.tables.len() as u32);
    for t in &db.tables {
        enc.put_str(&t.name);
        enc.put_str(&t.noun);
        enc.put_u32(t.cols.len() as u32);
        for c in &t.cols {
            enc.put_str(&c.name);
            let (tag, payload) = kind_tag(c.kind);
            enc.put_u8(tag);
            enc.put_u8(payload);
            enc.put_u8(quirk_tag(c.quirk));
            match &c.fk_to {
                Some(target) => {
                    enc.put_u8(1);
                    enc.put_str(target);
                }
                None => enc.put_u8(0),
            }
        }
    }
    // display dictionaries, sorted for a deterministic byte image
    let mut keys: Vec<&(String, String)> = db.display_map().keys().collect();
    keys.sort();
    enc.put_u32(keys.len() as u32);
    for key in keys {
        let map = &db.display_map()[key];
        enc.put_str(&key.0);
        enc.put_str(&key.1);
        let mut stored: Vec<&String> = map.keys().collect();
        stored.sort();
        enc.put_u32(stored.len() as u32);
        for s in stored {
            enc.put_str(s);
            enc.put_str(&map[s]);
        }
    }
    enc.into_bytes()
}

fn decode_meta(
    id: String,
    database: sqlkit::Database,
    bytes: &[u8],
) -> Result<BuiltDb, CodecError> {
    let mut dec = Dec::new(bytes);
    let domain = dec.get_str()?;
    let complexity = dec.get_f64()?;
    let n_tables = dec.get_u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables.min(4096));
    for _ in 0..n_tables {
        let name = dec.get_str()?;
        let noun = dec.get_str()?;
        let n_cols = dec.get_u32()? as usize;
        let mut cols = Vec::with_capacity(n_cols.min(4096));
        for _ in 0..n_cols {
            let cname = dec.get_str()?;
            let tag = dec.get_u8()?;
            let payload = dec.get_u8()?;
            let kind = tag_kind(tag, payload)?;
            let quirk = tag_quirk(dec.get_u8()?)?;
            let fk_to = if dec.get_u8()? != 0 { Some(dec.get_str()?) } else { None };
            cols.push(ColMeta { name: cname, kind, quirk, fk_to });
        }
        tables.push(TableMeta { name, noun, cols });
    }
    let n_dicts = dec.get_u32()? as usize;
    let mut display_of: HashMap<(String, String), HashMap<String, String>> =
        HashMap::with_capacity(n_dicts.min(4096));
    for _ in 0..n_dicts {
        let table = dec.get_str()?;
        let column = dec.get_str()?;
        let n = dec.get_u32()? as usize;
        let mut map = HashMap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let stored = dec.get_str()?;
            let display = dec.get_str()?;
            map.insert(stored, display);
        }
        display_of.insert((table, column), map);
    }
    if dec.remaining() != 0 {
        return Err(CodecError(format!("{} trailing bytes after metadata", dec.remaining())));
    }
    Ok(BuiltDb::from_parts(id, domain, database, tables, complexity, display_of))
}

// ---- export / import ---------------------------------------------------

/// Write one built database as a store file (schema + row sections plus
/// the metadata blob). Exports are fresh snapshots with no log history,
/// so the TOC's `base_seq` is 0. Returns the bytes written.
pub fn export_db_store(db: &BuiltDb, path: &Path) -> std::io::Result<u64> {
    osql_store::write_database(path, &db.database, &[(META_BLOB.to_owned(), encode_meta(db))], 0)
}

/// Write every database of a benchmark into `dir` as `<db_id>.store`
/// files. Returns the written paths in benchmark order.
pub fn export_store(bench: &Benchmark, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(bench.dbs.len());
    for db in &bench.dbs {
        let path = dir.join(format!("{}.{}", db.id, osql_store::STORE_EXT));
        export_db_store(db, &path)?;
        paths.push(path);
    }
    Ok(paths)
}

/// What [`import_store`] read back from disk.
#[derive(Debug)]
pub struct ImportedStore {
    /// The reconstructed database plus its generation metadata.
    pub db: BuiltDb,
    /// Store file size in bytes (the catalog's residency cost).
    pub file_bytes: u64,
    /// The base file's `base_seq`: the last WAL commit its snapshot
    /// folded in. Callers that replay a sidecar WAL on top must pass
    /// this to `osql_store::replay_into` so folded commits are skipped.
    pub base_seq: u64,
}

/// Read one store file back into a [`BuiltDb`], together with its byte
/// size and the base snapshot's WAL watermark.
pub fn import_store(path: &Path) -> Result<ImportedStore, StoreError> {
    let loaded = osql_store::read_database(path)?;
    let id = loaded.database.schema.name.clone();
    let meta = loaded
        .blobs
        .iter()
        .find(|(name, _)| name == META_BLOB)
        .map(|(_, bytes)| bytes.as_slice())
        .ok_or_else(|| StoreError::corrupt(format!("store has no {META_BLOB} blob")))?;
    let db = decode_meta(id, loaded.database, meta)?;
    Ok(ImportedStore { db, file_bytes: loaded.file_bytes, base_seq: loaded.base_seq })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{generate, Profile};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("osql-datagen-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn built_db_round_trips_through_store() {
        let bench = generate(&Profile::tiny());
        let dir = tmpdir("roundtrip");
        let paths = export_store(&bench, &dir).unwrap();
        assert_eq!(paths.len(), bench.dbs.len());
        for (db, path) in bench.dbs.iter().zip(&paths) {
            let imported = import_store(path).unwrap();
            let (back, bytes) = (imported.db, imported.file_bytes);
            assert!(bytes > 0);
            assert_eq!(imported.base_seq, 0, "fresh exports carry no WAL history");
            assert_eq!(back.id, db.id);
            assert_eq!(back.domain, db.domain);
            assert_eq!(back.complexity, db.complexity);
            assert_eq!(back.database.schema, db.database.schema);
            assert_eq!(back.database.total_rows(), db.database.total_rows());
            for t in &db.tables {
                assert_eq!(back.database.rows(&t.name).unwrap(), db.database.rows(&t.name).unwrap());
                let bt = back.table_meta(&t.name).unwrap();
                assert_eq!(bt.noun, t.noun);
                for c in &t.cols {
                    let bc = back.col_meta(&t.name, &c.name).unwrap();
                    assert_eq!((bc.kind, bc.quirk, &bc.fk_to), (c.kind, c.quirk, &c.fk_to));
                    // display dictionary intact
                    for stored in db.stored_values(&t.name, &c.name) {
                        assert_eq!(
                            back.display_form(&t.name, &c.name, &stored),
                            db.display_form(&t.name, &c.name, &stored)
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn import_rejects_store_without_metadata() {
        let bench = generate(&Profile::tiny());
        let dir = tmpdir("nometa");
        let path = dir.join("bare.store");
        osql_store::write_database(&path, &bench.dbs[0].database, &[], 0).unwrap();
        let err = import_store(&path).unwrap_err();
        assert!(err.to_string().contains(META_BLOB));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
