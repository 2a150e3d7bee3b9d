//! Where shipped bytes live: the shipping-directory abstraction.
//!
//! [`ShipMedia`] is the transport between a primary and its followers.
//! Production uses [`FsShipDir`] — a plain directory, so "replication"
//! works over anything that can present one (local disk, NFS, a synced
//! bucket). Tests use [`MemShipDir`], an in-memory directory behind a
//! chk-shimmed mutex, so the concurrency model suite can interleave a
//! shipper and a follower deterministically and the fault matrix can
//! corrupt published bytes without touching a filesystem.
//!
//! Both implementations give the same guarantee the protocol relies on:
//! publishing a name is all-or-nothing (temp-file + rename on disk, a
//! single map insert in memory) — a reader sees the old bytes or the
//! new bytes, never a prefix.

use osql_chk::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A shipping directory: named blobs with atomic publish.
pub trait ShipMedia {
    /// Read the manifest, `None` when nothing was ever published.
    fn read_manifest(&self) -> io::Result<Option<Vec<u8>>>;
    /// Atomically publish (create or replace) the manifest.
    fn publish_manifest(&self, bytes: &[u8]) -> io::Result<()>;
    /// Read one segment by name.
    fn read_segment(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Atomically publish (create or replace) one segment.
    fn publish_segment(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Segment names present, sorted (stream order for canonical names).
    fn segment_names(&self) -> io::Result<Vec<String>>;
    /// Read an auxiliary blob (e.g. the bootstrap base snapshot),
    /// `None` when absent.
    fn read_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>>;
    /// Atomically publish (create or replace) an auxiliary blob.
    fn publish_blob(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
}

/// A shipping directory on a real filesystem.
#[derive(Debug, Clone)]
pub struct FsShipDir {
    dir: PathBuf,
}

impl FsShipDir {
    /// Open (creating if needed) the shipping directory at `dir`.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(FsShipDir { dir: dir.to_owned() })
    }

    /// The directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write `bytes` under `name` via temp-file + fsync + rename, so a
    /// concurrent reader (or a crash) never observes a partial publish,
    /// then fsync the directory. A failure of that last sync is an
    /// error, not a warning: until it succeeds the rename may not
    /// survive a crash, and "segment before manifest" — on which a
    /// follower trusts that whatever is advertised can be fetched again
    /// — holds across a crash only if each publish is durable before
    /// the next starts. Publishing a name again is idempotent, so the
    /// shipper just retries the round.
    fn publish(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let tmp = self.dir.join(format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join(name))?;
        std::fs::File::open(&self.dir)?.sync_all()
    }
}

impl ShipMedia for FsShipDir {
    fn read_manifest(&self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.dir.join(crate::MANIFEST_NAME)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn publish_manifest(&self, bytes: &[u8]) -> io::Result<()> {
        self.publish(crate::MANIFEST_NAME, bytes)
    }

    fn read_segment(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.dir.join(name))
    }

    fn publish_segment(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.publish(name, bytes)
    }

    fn segment_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if crate::parse_segment_name(name).is_some() {
                names.push(name.to_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn read_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.dir.join(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn publish_blob(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.publish(name, bytes)
    }
}

/// An in-memory shipping directory (cheaply cloneable; clones share the
/// same contents). The model suite interleaves a shipper thread and a
/// follower thread over one of these; the fault matrix mutates published
/// bytes directly via [`MemShipDir::corrupt_segment`] and
/// [`MemShipDir::truncate_segment`].
#[derive(Debug, Clone, Default)]
pub struct MemShipDir {
    inner: Arc<Mutex<MemInner>>,
}

#[derive(Debug, Default)]
struct MemInner {
    manifest: Option<Vec<u8>>,
    /// Segments and auxiliary blobs share one namespace, exactly as they
    /// share one directory on disk; `segment_names` filters by name.
    files: HashMap<String, Vec<u8>>,
}

impl MemShipDir {
    /// An empty in-memory shipping directory.
    pub fn new() -> Self {
        MemShipDir::default()
    }

    /// Flip one byte of a published segment (fault injection).
    pub fn corrupt_segment(&self, name: &str, offset: usize, xor: u8) -> bool {
        let mut inner = self.inner.lock();
        match inner.files.get_mut(name) {
            Some(bytes) if offset < bytes.len() => {
                bytes[offset] ^= xor;
                true
            }
            _ => false,
        }
    }

    /// Cut a published segment to `len` bytes (torn-tail injection).
    pub fn truncate_segment(&self, name: &str, len: usize) -> bool {
        let mut inner = self.inner.lock();
        match inner.files.get_mut(name) {
            Some(bytes) if len <= bytes.len() => {
                bytes.truncate(len);
                true
            }
            _ => false,
        }
    }

    /// Flip one byte of the published manifest (fault injection).
    pub fn corrupt_manifest(&self, offset: usize, xor: u8) -> bool {
        let mut inner = self.inner.lock();
        match inner.manifest.as_mut() {
            Some(bytes) if offset < bytes.len() => {
                bytes[offset] ^= xor;
                true
            }
            _ => false,
        }
    }

    /// Remove a published segment (manifest/segment mismatch injection).
    pub fn remove_segment(&self, name: &str) -> bool {
        self.inner.lock().files.remove(name).is_some()
    }
}

impl ShipMedia for MemShipDir {
    fn read_manifest(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inner.lock().manifest.clone())
    }

    fn publish_manifest(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.lock().manifest = Some(bytes.to_vec());
        Ok(())
    }

    fn read_segment(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.lock().files.get(name).cloned().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no segment {name}"))
        })
    }

    fn publish_segment(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.lock().files.insert(name.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn segment_names(&self) -> io::Result<Vec<String>> {
        let inner = self.inner.lock();
        let mut names: Vec<String> = inner
            .files
            .keys()
            .filter(|n| crate::parse_segment_name(n).is_some())
            .cloned()
            .collect();
        names.sort();
        Ok(names)
    }

    fn read_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inner.lock().files.get(name).cloned())
    }

    fn publish_blob(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.lock().files.insert(name.to_owned(), bytes.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(media: &impl ShipMedia) {
        assert_eq!(media.read_manifest().unwrap(), None);
        media.publish_manifest(b"m1").unwrap();
        assert_eq!(media.read_manifest().unwrap(), Some(b"m1".to_vec()));
        media.publish_manifest(b"m2").unwrap();
        assert_eq!(media.read_manifest().unwrap(), Some(b"m2".to_vec()));
        let a = crate::segment_name(10);
        let b = crate::segment_name(2);
        media.publish_segment(&a, b"aaa").unwrap();
        media.publish_segment(&b, b"bb").unwrap();
        assert_eq!(media.read_segment(&a).unwrap(), b"aaa".to_vec());
        assert_eq!(media.segment_names().unwrap(), vec![b.clone(), a.clone()]);
        assert!(media.read_segment("seg-ghost.seg").is_err());
        assert_eq!(media.read_blob("BASE").unwrap(), None);
        media.publish_blob("BASE", b"snapshot").unwrap();
        assert_eq!(media.read_blob("BASE").unwrap(), Some(b"snapshot".to_vec()));
        // blobs never list as segments
        assert_eq!(media.segment_names().unwrap().len(), 2);
    }

    #[test]
    fn mem_dir_behaves() {
        exercise(&MemShipDir::new());
    }

    #[test]
    fn fs_dir_behaves_and_ignores_foreign_files() {
        let dir = std::env::temp_dir().join(format!("osql-repl-media-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let media = FsShipDir::open(&dir).unwrap();
        exercise(&media);
        // stray files (editor droppings, tmp files) never list as segments
        std::fs::write(dir.join("notes.txt"), b"x").unwrap();
        std::fs::write(dir.join("seg-0000000000000001.seg.tmp"), b"x").unwrap();
        assert_eq!(media.segment_names().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_fault_injection_hooks_work() {
        let media = MemShipDir::new();
        let name = crate::segment_name(1);
        media.publish_segment(&name, b"hello").unwrap();
        assert!(media.corrupt_segment(&name, 1, 0xFF));
        assert_ne!(media.read_segment(&name).unwrap(), b"hello".to_vec());
        assert!(media.truncate_segment(&name, 2));
        assert_eq!(media.read_segment(&name).unwrap().len(), 2);
        assert!(media.remove_segment(&name));
        assert!(!media.remove_segment(&name));
        assert!(!media.corrupt_manifest(0, 1), "no manifest yet");
        media.publish_manifest(b"m").unwrap();
        assert!(media.corrupt_manifest(0, 1));
    }
}
