//! Single-file store format: a checksummed TOC page followed by section
//! pages holding the schema, one row section per table, and named blobs.
//!
//! Layout (all pages [`PAGE_SIZE`] bytes):
//!
//! ```text
//! page 0        TOC: magic, version, page size, db name, section list
//! page 1..N     DATA pages, sections stored as contiguous page ranges
//! ```
//!
//! Each section records its byte length, CRC-32 over the reassembled
//! bytes, and (for table sections) a row count, so corruption is caught
//! at two levels: per page and per section. Files are written via a
//! temp-file + rename so a crashed `write_database` never leaves a
//! half-written store visible under the final name.

use crate::codec::{self, crc32, Dec, Enc};
use crate::page::{
    pack_page, paginate, unpack_page, PAGE_DATA, PAGE_PAYLOAD, PAGE_SIZE, PAGE_TOC,
};
use crate::StoreError;
use sqlkit::{ColumnIndex, Database, IndexDef};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Store file magic ("OSQLSTO1").
pub const STORE_MAGIC: u64 = u64::from_le_bytes(*b"OSQLSTO1");
/// Store format version. Version 2 added `base_seq` to the TOC so
/// recovery can tell which WAL commits a checkpoint already folded in;
/// version 3 added secondary-index sections. Version-2 files (no index
/// sections) still load.
pub const STORE_VERSION: u32 = 3;

/// What a section holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// The database schema (always the first section).
    Schema,
    /// One table's rows; `name` is the table name.
    Table,
    /// An opaque named blob (e.g. datagen metadata).
    Blob,
    /// One secondary index's sorted entries; `name` is `table.column`.
    Index,
}

impl SectionKind {
    fn tag(self) -> u8 {
        match self {
            SectionKind::Schema => 1,
            SectionKind::Table => 2,
            SectionKind::Blob => 3,
            SectionKind::Index => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, StoreError> {
        match tag {
            1 => Ok(SectionKind::Schema),
            2 => Ok(SectionKind::Table),
            3 => Ok(SectionKind::Blob),
            4 => Ok(SectionKind::Index),
            t => Err(StoreError::corrupt(format!("unknown section kind {t}"))),
        }
    }
}

/// One TOC entry: a named section stored as a contiguous page range.
#[derive(Debug, Clone)]
pub struct Section {
    /// What the section holds.
    pub kind: SectionKind,
    /// Section name (table name, blob name, or `"schema"`).
    pub name: String,
    /// First page index of the section.
    pub first_page: u32,
    /// Number of pages the section spans.
    pub page_count: u32,
    /// Exact byte length of the section payload.
    pub byte_len: u64,
    /// CRC-32 over the reassembled section bytes.
    pub crc: u32,
    /// Row count for table sections (0 otherwise).
    pub row_count: u64,
}

/// Decoded TOC page.
#[derive(Debug, Clone)]
pub struct Toc {
    /// Database name recorded in the store.
    pub db_name: String,
    /// Sequence number of the last WAL commit folded into this base
    /// file (0 for a fresh export). WAL replay skips commits at or
    /// below it, so a crash between a checkpoint's base publish and its
    /// WAL truncation cannot double-apply transactions.
    pub base_seq: u64,
    /// Sections in file order (schema first, then tables, then blobs).
    pub sections: Vec<Section>,
}

fn encode_toc(toc: &Toc) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(STORE_MAGIC);
    enc.put_u32(STORE_VERSION);
    enc.put_u32(PAGE_SIZE as u32);
    enc.put_str(&toc.db_name);
    enc.put_u64(toc.base_seq);
    enc.put_u32(toc.sections.len() as u32);
    for s in &toc.sections {
        enc.put_u8(s.kind.tag());
        enc.put_str(&s.name);
        enc.put_u32(s.first_page);
        enc.put_u32(s.page_count);
        enc.put_u64(s.byte_len);
        enc.put_u32(s.crc);
        enc.put_u64(s.row_count);
    }
    enc.into_bytes()
}

fn decode_toc(payload: &[u8]) -> Result<Toc, StoreError> {
    let mut dec = Dec::new(payload);
    let magic = dec.get_u64()?;
    if magic != STORE_MAGIC {
        return Err(StoreError::corrupt("bad store magic in TOC"));
    }
    let version = dec.get_u32()?;
    if !(2..=STORE_VERSION).contains(&version) {
        return Err(StoreError::corrupt(format!("unsupported store version {version}")));
    }
    let page_size = dec.get_u32()?;
    if page_size as usize != PAGE_SIZE {
        return Err(StoreError::corrupt(format!("unsupported page size {page_size}")));
    }
    let db_name = dec.get_str()?;
    let base_seq = dec.get_u64()?;
    let n = dec.get_u32()? as usize;
    let mut sections = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        sections.push(Section {
            kind: SectionKind::from_tag(dec.get_u8()?)?,
            name: dec.get_str()?,
            first_page: dec.get_u32()?,
            page_count: dec.get_u32()?,
            byte_len: dec.get_u64()?,
            crc: dec.get_u32()?,
            row_count: dec.get_u64()?,
        });
    }
    if dec.remaining() != 0 {
        return Err(StoreError::corrupt("trailing bytes after TOC"));
    }
    Ok(Toc { db_name, base_seq, sections })
}

/// A database reloaded from a store file.
#[derive(Debug)]
pub struct LoadedStore {
    /// The reconstructed database.
    pub database: Database,
    /// Named blob sections, in file order.
    pub blobs: Vec<(String, Vec<u8>)>,
    /// Size of the store file in bytes (used for byte-accounted budgets).
    pub file_bytes: u64,
    /// Last WAL commit sequence folded into this base (TOC `base_seq`);
    /// replay must skip commits at or below it.
    pub base_seq: u64,
}

/// Write a database (plus optional named blobs) as a store file.
///
/// The file is assembled next to `path` under a `.tmp` name, fsynced,
/// and renamed into place, so readers never observe a partial store.
/// `base_seq` is the last WAL commit this snapshot folds in (0 for a
/// fresh export with no log history); it is recorded in the TOC so
/// replay can skip already-applied commits if the sidecar WAL survives
/// a crash that the snapshot's truncation should have removed.
/// Returns the number of bytes written.
pub fn write_database(
    path: &Path,
    db: &Database,
    blobs: &[(String, Vec<u8>)],
    base_seq: u64,
) -> std::io::Result<u64> {
    // assemble section payloads in file order
    let mut payloads: Vec<(SectionKind, String, Vec<u8>, u64)> = Vec::new();
    payloads.push((
        SectionKind::Schema,
        "schema".to_owned(),
        codec::encode_schema(&db.schema),
        0,
    ));
    for table in &db.schema.tables {
        let rows = db
            .rows(&table.name)
            .map_err(|e| std::io::Error::other(format!("dump {}: {e}", table.name)))?;
        payloads.push((
            SectionKind::Table,
            table.name.clone(),
            codec::encode_rows(rows, table.columns.len()),
            rows.len() as u64,
        ));
    }
    for def in db.index_defs() {
        let built = db.index(&def.table, &def.column);
        payloads.push((
            SectionKind::Index,
            format!("{}.{}", def.table, def.column),
            codec::encode_index(&def.table, &def.column, built.as_deref()),
            built.map(|ix| ix.len() as u64).unwrap_or(0),
        ));
    }
    for (name, bytes) in blobs {
        payloads.push((SectionKind::Blob, name.clone(), bytes.clone(), 0));
    }

    // paginate sections and build the TOC
    let assemble = |payloads: &[(SectionKind, String, Vec<u8>, u64)]| {
        let mut data_pages: Vec<Vec<u8>> = Vec::new();
        let mut sections = Vec::with_capacity(payloads.len());
        for (kind, name, bytes, row_count) in payloads {
            let pages = paginate(bytes);
            sections.push(Section {
                kind: *kind,
                name: name.clone(),
                first_page: 1 + data_pages.len() as u32,
                page_count: pages.len() as u32,
                byte_len: bytes.len() as u64,
                crc: crc32(bytes),
                row_count: *row_count,
            });
            data_pages.extend(pages);
        }
        let toc_bytes =
            encode_toc(&Toc { db_name: db.schema.name.clone(), base_seq, sections });
        (data_pages, toc_bytes)
    };
    let (mut data_pages, mut toc_bytes) = assemble(&payloads);
    if toc_bytes.len() > PAGE_PAYLOAD {
        // indexes are rebuildable from the table sections: drop them
        // before giving up on a TOC that cannot fit one page
        payloads.retain(|(kind, ..)| *kind != SectionKind::Index);
        (data_pages, toc_bytes) = assemble(&payloads);
    }
    if toc_bytes.len() > PAGE_PAYLOAD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("TOC overflows one page ({} bytes)", toc_bytes.len()),
        ));
    }

    // temp file + fsync + rename: all-or-nothing visibility
    let tmp = path.with_extension("store.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&pack_page(PAGE_TOC, &toc_bytes))?;
        for page in &data_pages {
            f.write_all(page)?;
        }
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // best-effort directory fsync so the rename itself is durable
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(((1 + data_pages.len()) * PAGE_SIZE) as u64)
}

fn section_bytes(file: &[u8], s: &Section) -> Result<Vec<u8>, StoreError> {
    let pages = file.len() / PAGE_SIZE;
    let end = s.first_page as usize + s.page_count as usize;
    if s.first_page == 0 || end > pages {
        return Err(StoreError::corrupt(format!(
            "section '{}' pages {}..{} out of range (file has {} pages)",
            s.name, s.first_page, end, pages
        )));
    }
    // the page range is inside the file, so this bounds the allocation
    // below by the file's size, whatever the TOC claims
    let capacity = u64::from(s.page_count) * PAGE_PAYLOAD as u64;
    if s.byte_len > capacity {
        return Err(StoreError::corrupt(format!(
            "section '{}' records {} bytes, its {} pages hold at most {capacity}",
            s.name, s.byte_len, s.page_count
        )));
    }
    let mut bytes = Vec::with_capacity(s.byte_len as usize);
    for idx in s.first_page as usize..end {
        let page = &file[idx * PAGE_SIZE..(idx + 1) * PAGE_SIZE];
        let (ty, payload) = unpack_page(page)
            .map_err(|e| StoreError::corrupt(format!("page {idx} ('{}'): {e}", s.name)))?;
        if ty != PAGE_DATA {
            return Err(StoreError::corrupt(format!(
                "page {idx} ('{}') has type {ty}, expected data",
                s.name
            )));
        }
        bytes.extend_from_slice(payload);
    }
    if (bytes.len() as u64) < s.byte_len {
        return Err(StoreError::corrupt(format!(
            "section '{}' holds {} bytes, TOC records {}",
            s.name,
            bytes.len(),
            s.byte_len
        )));
    }
    bytes.truncate(s.byte_len as usize);
    if crc32(&bytes) != s.crc {
        return Err(StoreError::corrupt(format!("section '{}' checksum mismatch", s.name)));
    }
    Ok(bytes)
}

fn load_toc(file: &[u8]) -> Result<Toc, StoreError> {
    if file.len() < PAGE_SIZE || !file.len().is_multiple_of(PAGE_SIZE) {
        return Err(StoreError::corrupt(format!(
            "file is {} bytes, not a positive multiple of {PAGE_SIZE}",
            file.len()
        )));
    }
    let (ty, payload) = unpack_page(&file[..PAGE_SIZE])
        .map_err(|e| StoreError::corrupt(format!("TOC page: {e}")))?;
    if ty != PAGE_TOC {
        return Err(StoreError::corrupt(format!("page 0 has type {ty}, expected TOC")));
    }
    decode_toc(payload)
}

/// Install one decoded index section into the reloaded database. Every
/// failure path — undecodable payload, unknown table, a row count that
/// does not match the reloaded table, entries that fail the sorted-run
/// validation — drops the index silently: the declaration disappears,
/// the planner falls back to scans, and results stay correct. A section
/// persisted as declaration-only (unbuildable column) reinstalls as
/// unusable so the planning fingerprint round-trips.
fn install_index_section(database: &mut Database, bytes: &[u8]) {
    let Ok(decoded) = codec::decode_index(bytes) else { return };
    let def = IndexDef { table: decoded.table, column: decoded.column };
    match decoded.built {
        None => {
            let _ = database.install_unusable_index(def);
        }
        Some((entries, table_rows)) => {
            let live_rows = match database.rows(&def.table) {
                Ok(rows) => rows.len(),
                Err(_) => return,
            };
            if table_rows != live_rows as u64 {
                return;
            }
            if let Some(index) = ColumnIndex::from_entries(entries, live_rows) {
                let _ = database.install_index(def, index);
            }
        }
    }
}

/// Read a store file back into a [`Database`] plus its blobs.
pub fn read_database(path: &Path) -> Result<LoadedStore, StoreError> {
    let file = fs::read(path)?;
    let toc = load_toc(&file)?;
    let mut database = Database::default();
    let mut blobs = Vec::new();
    let mut saw_schema = false;
    for s in &toc.sections {
        let bytes = match section_bytes(&file, s) {
            Ok(b) => b,
            // index sections are derived data: a damaged one is dropped
            // (lookups fall back to scans) instead of failing the load —
            // fsck still reports it. Everything else is authoritative.
            Err(_) if s.kind == SectionKind::Index => continue,
            Err(e) => return Err(e),
        };
        match s.kind {
            SectionKind::Schema => {
                if saw_schema {
                    return Err(StoreError::corrupt("duplicate schema section"));
                }
                saw_schema = true;
                let schema = codec::decode_schema(&bytes)?;
                let mut db = Database::new(schema.name.clone());
                for t in &schema.tables {
                    db.create_table(t.clone()).map_err(|e| {
                        StoreError::corrupt(format!("rebuild table {}: {e}", t.name))
                    })?;
                }
                for fk in schema.foreign_keys {
                    db.add_foreign_key(fk);
                }
                database = db;
            }
            SectionKind::Table => {
                if !saw_schema {
                    return Err(StoreError::corrupt("table section before schema"));
                }
                let arity = database
                    .schema
                    .table(&s.name)
                    .map(|t| t.columns.len())
                    .ok_or_else(|| {
                        StoreError::corrupt(format!("table section '{}' not in schema", s.name))
                    })?;
                let rows = codec::decode_rows(&bytes, arity)?;
                if rows.len() as u64 != s.row_count {
                    return Err(StoreError::corrupt(format!(
                        "table '{}' decoded {} rows, TOC records {}",
                        s.name,
                        rows.len(),
                        s.row_count
                    )));
                }
                database.insert_rows(&s.name, rows).map_err(|e| {
                    StoreError::corrupt(format!("reload rows into {}: {e}", s.name))
                })?;
            }
            SectionKind::Index => {
                if !saw_schema {
                    return Err(StoreError::corrupt("index section before schema"));
                }
                install_index_section(&mut database, &bytes);
            }
            SectionKind::Blob => blobs.push((s.name.clone(), bytes)),
        }
    }
    if !saw_schema {
        return Err(StoreError::corrupt("store has no schema section"));
    }
    if database.schema.name != toc.db_name {
        return Err(StoreError::corrupt(format!(
            "TOC db name '{}' does not match schema name '{}'",
            toc.db_name, database.schema.name
        )));
    }
    Ok(LoadedStore { database, blobs, file_bytes: file.len() as u64, base_seq: toc.base_seq })
}

/// Read only a store file's TOC page — the cheap way to learn a store's
/// identity and durable position (`base_seq`) without decoding any row
/// sections. Operators use this (via the `catalog`/`fsck` CLI modes) to
/// compare a primary's position against a follower's by hand.
pub fn read_toc(path: &Path) -> Result<Toc, StoreError> {
    use std::io::Read as _;
    let mut f = fs::File::open(path)?;
    let mut page = vec![0u8; PAGE_SIZE];
    f.read_exact(&mut page)
        .map_err(|_| StoreError::corrupt(format!("file shorter than one {PAGE_SIZE}-byte page")))?;
    let (ty, payload) =
        unpack_page(&page).map_err(|e| StoreError::corrupt(format!("TOC page: {e}")))?;
    if ty != PAGE_TOC {
        return Err(StoreError::corrupt(format!("page 0 has type {ty}, expected TOC")));
    }
    decode_toc(payload)
}

/// Full audit of a store file: every page and every section is checked,
/// and *all* findings are collected rather than stopping at the first.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Total pages in the file.
    pub pages: usize,
    /// Sections listed in the TOC.
    pub sections: usize,
    /// The TOC's `base_seq` — the last WAL commit folded into this base
    /// file — when the TOC decoded (`None` when it did not).
    pub base_seq: Option<u64>,
    /// Human-readable corruption findings (empty means clean).
    pub findings: Vec<String>,
}

impl FsckReport {
    /// True when no corruption was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Audit a store file, collecting every corrupted page/section finding.
pub fn fsck_file(path: &Path) -> Result<FsckReport, StoreError> {
    let file = fs::read(path)?;
    let mut report = FsckReport::default();
    if file.len() < PAGE_SIZE || !file.len().is_multiple_of(PAGE_SIZE) {
        report.findings.push(format!(
            "file is {} bytes, not a positive multiple of {PAGE_SIZE}",
            file.len()
        ));
        return Ok(report);
    }
    report.pages = file.len() / PAGE_SIZE;
    // pass 1: every page must verify on its own
    for idx in 0..report.pages {
        let page = &file[idx * PAGE_SIZE..(idx + 1) * PAGE_SIZE];
        if let Err(e) = unpack_page(page) {
            report.findings.push(format!("page {idx}: {e}"));
        }
    }
    // pass 2: TOC and section-level invariants
    let toc = match load_toc(&file) {
        Ok(toc) => toc,
        Err(e) => {
            let msg = format!("TOC: {e}");
            if !report.findings.iter().any(|f| f.starts_with("page 0")) {
                report.findings.push(msg);
            }
            return Ok(report);
        }
    };
    report.sections = toc.sections.len();
    report.base_seq = Some(toc.base_seq);
    for s in &toc.sections {
        if let Err(e) = section_bytes(&file, s) {
            report.findings.push(e.to_string());
        }
    }
    // pass 3: the reassembled database must decode
    if report.is_clean() {
        if let Err(e) = read_database(path) {
            report.findings.push(format!("decode: {e}"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `shop` through CREATE TABLE statements, which index both keys.
    fn ddl_db() -> Database {
        let mut db = Database::new("shop");
        db.execute_script(
            "CREATE TABLE item (id INTEGER PRIMARY KEY, label TEXT, price REAL);\
             CREATE TABLE sale (id INTEGER PRIMARY KEY, item_id INTEGER, qty INTEGER,\
               FOREIGN KEY (item_id) REFERENCES item(id));\
             INSERT INTO item VALUES (1, 'bolt', 0.25), (2, 'nut', NULL);\
             INSERT INTO sale VALUES (10, 1, 4), (11, 2, 1), (12, 1, 9);",
        )
        .unwrap();
        db
    }

    /// `shop`'s schema and rows through `create_table`, which declares no
    /// index: its file holds no index section, so every page is
    /// authoritative.
    fn sample_db() -> Database {
        let ddl = ddl_db();
        let mut db = Database::new("shop");
        for table in &ddl.schema.tables {
            db.create_table(table.clone()).unwrap();
            db.insert_rows(&table.name, ddl.rows(&table.name).unwrap().to_vec()).unwrap();
        }
        for fk in &ddl.schema.foreign_keys {
            db.add_foreign_key(fk.clone());
        }
        assert!(db.index_defs().is_empty());
        db
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("osql-store-file-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_round_trips_db_and_blobs() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("shop.store");
        let db = sample_db();
        let blobs = vec![("meta".to_owned(), vec![1u8, 2, 3, 255])];
        let bytes = write_database(&path, &db, &blobs, 7).unwrap();
        assert_eq!(bytes % PAGE_SIZE as u64, 0);
        let loaded = read_database(&path).unwrap();
        assert_eq!(loaded.base_seq, 7, "base_seq round-trips through the TOC");
        assert_eq!(loaded.database.schema, db.schema);
        assert_eq!(loaded.database.rows("item").unwrap(), db.rows("item").unwrap());
        assert_eq!(loaded.database.rows("sale").unwrap(), db.rows("sale").unwrap());
        assert_eq!(loaded.blobs, blobs);
        assert_eq!(loaded.file_bytes, bytes);
        // queries agree
        let q = "SELECT label FROM item ORDER BY id";
        assert_eq!(loaded.database.query(q).unwrap().rows, db.query(q).unwrap().rows);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("shop.store");
        write_database(&path, &sample_db(), &[], 0).unwrap();
        let clean = fs::read(&path).unwrap();
        // flip one byte in each page's payload area; read and fsck must flag it
        let pages = clean.len() / PAGE_SIZE;
        for p in 0..pages {
            let mut bad = clean.clone();
            bad[p * PAGE_SIZE + 20] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            assert!(read_database(&path).is_err(), "corrupt page {p} read back silently");
            let report = fsck_file(&path).unwrap();
            assert!(!report.is_clean(), "fsck missed corruption in page {p}");
            assert!(report.findings.iter().any(|f| f.contains(&format!("page {p}"))));
        }
        // truncation
        fs::write(&path, &clean[..clean.len() - 1]).unwrap();
        assert!(read_database(&path).is_err());
        assert!(!fsck_file(&path).unwrap().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Index sections are caches: a damaged one is a finding for fsck,
    /// and the read path drops that index and loads everything else.
    #[test]
    fn a_damaged_index_section_is_flagged_and_dropped() {
        let dir = tmpdir("ddl-index");
        let path = dir.join("shop.store");
        let db = ddl_db();
        write_database(&path, &db, &[], 0).unwrap();
        let clean = fs::read(&path).unwrap();
        assert!(fsck_file(&path).unwrap().is_clean());
        let indexes: Vec<Section> = read_toc(&path)
            .unwrap()
            .sections
            .into_iter()
            .filter(|s| s.kind == SectionKind::Index)
            .collect();
        let names: Vec<&str> = indexes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["item.id", "sale.id"], "CREATE TABLE indexed both keys");
        for section in &indexes {
            let page = section.first_page as usize;
            let mut bad = clean.clone();
            bad[page * PAGE_SIZE + 20] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            let report = fsck_file(&path).unwrap();
            assert!(
                report.findings.iter().any(|f| f.contains(&format!("page {page}"))),
                "{}: {:?}",
                section.name,
                report.findings
            );
            let loaded = read_database(&path).expect("a damaged index does not fail the load");
            let (table, column) = section.name.split_once('.').unwrap();
            assert!(!loaded.database.has_index(table, column), "{} is dropped", section.name);
            assert_eq!(loaded.database.index_defs().len(), 1, "the other index loads");
            for t in ["item", "sale"] {
                assert_eq!(loaded.database.rows(t).unwrap(), db.rows(t).unwrap());
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_reports_every_bad_page() {
        let dir = tmpdir("multi");
        let path = dir.join("shop.store");
        write_database(&path, &sample_db(), &[], 0).unwrap();
        let mut bad = fs::read(&path).unwrap();
        let pages = bad.len() / PAGE_SIZE;
        assert!(pages >= 3, "sample db should span several pages");
        for p in 0..pages {
            bad[p * PAGE_SIZE + 18] ^= 0x01;
        }
        fs::write(&path, &bad).unwrap();
        let report = fsck_file(&path).unwrap();
        // one finding per damaged page, not just the first
        let page_findings =
            report.findings.iter().filter(|f| f.starts_with("page ")).count();
        assert_eq!(page_findings, pages);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Write a store file from raw section payloads with the crate's own
    /// page packer and `crc32`, so every page and section checksum
    /// verifies; `edit` then rewrites the TOC before it is packed.
    fn craft_store(
        path: &Path,
        sections: &[(SectionKind, &str, Vec<u8>)],
        edit: impl FnOnce(&mut Toc),
    ) {
        let mut toc = Toc { db_name: "crafted".into(), base_seq: 0, sections: Vec::new() };
        let mut data_pages = Vec::new();
        for (kind, name, bytes) in sections {
            let pages = paginate(bytes);
            toc.sections.push(Section {
                kind: *kind,
                name: (*name).to_owned(),
                first_page: 1 + data_pages.len() as u32,
                page_count: pages.len() as u32,
                byte_len: bytes.len() as u64,
                crc: crc32(bytes),
                row_count: 0,
            });
            data_pages.extend(pages);
        }
        edit(&mut toc);
        let mut file = pack_page(PAGE_TOC, &encode_toc(&toc));
        data_pages.iter().for_each(|page| file.extend_from_slice(page));
        fs::write(path, file).unwrap();
    }

    #[test]
    fn section_length_beyond_its_pages_is_corrupt_not_an_allocation() {
        let dir = tmpdir("byte-len");
        let path = dir.join("crafted.store");
        let schema = codec::encode_schema(&sqlkit::schema::DbSchema::new("crafted"));
        let sections = [(SectionKind::Schema, "schema", schema)];
        for byte_len in [u64::MAX, 1 << 40, PAGE_PAYLOAD as u64 + 1] {
            craft_store(&path, &sections, |toc| toc.sections[0].byte_len = byte_len);
            assert!(
                matches!(read_database(&path), Err(StoreError::Corrupt(_))),
                "byte_len {byte_len}"
            );
            let report = fsck_file(&path).unwrap();
            let findings = report.findings;
            assert!(findings.iter().any(|f| f.contains("'schema'")), "{findings:?}");
        }
        craft_store(&path, &sections, |_| {});
        assert!(read_database(&path).is_ok(), "the uncrafted file loads");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_column_count_is_corrupt_not_an_allocation() {
        let dir = tmpdir("n-cols");
        let path = dir.join("crafted.store");
        // one table claiming u32::MAX columns, then nothing
        let mut enc = Enc::new();
        enc.put_str("crafted");
        enc.put_u32(1);
        enc.put_str("t");
        enc.put_u32(u32::MAX);
        craft_store(&path, &[(SectionKind::Schema, "schema", enc.into_bytes())], |_| {});
        assert!(matches!(read_database(&path), Err(StoreError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_file_audits_clean() {
        let dir = tmpdir("clean");
        let path = dir.join("shop.store");
        write_database(&path, &sample_db(), &[("b".into(), b"xyz".to_vec())], 0).unwrap();
        let report = fsck_file(&path).unwrap();
        assert!(report.is_clean(), "findings: {:?}", report.findings);
        assert_eq!(report.sections, 4); // schema + 2 tables + 1 blob
        fs::remove_dir_all(&dir).unwrap();
    }
}
