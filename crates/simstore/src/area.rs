//! Storage areas: the per-context directories managed by the DV (§III-A).
//!
//! "We associate each simulation context with a storage area (i.e., a
//! file system directory). When a new re-simulation from a given context
//! is launched, DVLib intercepts the create calls from the simulator and
//! redirects them to the associated storage area."
//!
//! The area enforces bare-filename access (no path traversal — the DV
//! hands out filenames, not paths), publishes files atomically, and
//! answers the size queries the eviction machinery needs.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A bounded directory of output/restart step files.
#[derive(Clone, Debug)]
pub struct StorageArea {
    root: PathBuf,
    max_bytes: u64,
}

impl StorageArea {
    /// Opens (creating if needed) a storage area rooted at `root` with an
    /// advisory byte budget. The budget is enforced by the DV's cache
    /// manager, not by the filesystem layer.
    pub fn create(root: impl Into<PathBuf>, max_bytes: u64) -> io::Result<StorageArea> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(StorageArea { root, max_bytes })
    }

    /// The directory backing this area.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Advisory byte budget for this area.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Resolves a bare filename inside the area.
    ///
    /// # Errors
    /// Rejects names containing path separators or `..` — the DV never
    /// produces such names, so their appearance signals a protocol-level
    /// problem.
    pub fn path_for(&self, name: &str) -> io::Result<PathBuf> {
        if name.is_empty()
            || name.contains('/')
            || name.contains('\\')
            || name == "."
            || name == ".."
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid storage-area filename {name:?}"),
            ));
        }
        Ok(self.root.join(name))
    }

    /// Atomically publishes `bytes` as `name` (write temp + rename);
    /// returns the byte size. Every call writes through a temp file of
    /// its own (pid + process-wide counter), so overlapping producers of
    /// one step — a retry racing the attempt it replaced, in this
    /// process or another — cannot truncate or rename each other's; the
    /// last rename wins whole. The temp name matches no driver's
    /// `key_of` pattern, so a crash's litter is never primed as a step.
    pub fn publish(&self, name: &str, bytes: &[u8]) -> io::Result<u64> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.path_for(name)?;
        let tmp = path.with_extension(format!(
            "tmp-publish-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(bytes.len() as u64)
    }

    /// Reads a published file.
    pub fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path_for(name)?)
    }

    /// Does `name` exist in the area?
    pub fn exists(&self, name: &str) -> bool {
        self.path_for(name).map(|p| p.is_file()).unwrap_or(false)
    }

    /// Size in bytes of `name`, if it exists.
    pub fn size_of(&self, name: &str) -> Option<u64> {
        let path = self.path_for(name).ok()?;
        fs::metadata(path).ok().map(|m| m.len())
    }

    /// Deletes `name`; returns whether it existed.
    pub fn delete(&self, name: &str) -> io::Result<bool> {
        let path = self.path_for(name)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Total bytes of regular files in the area.
    pub fn used_bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_file() {
                total += meta.len();
            }
        }
        Ok(total)
    }

    /// Sorted list of file names in the area.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.metadata()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_area() -> StorageArea {
        let dir = std::env::temp_dir().join(format!(
            "simstore-area-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        StorageArea::create(dir, 1 << 20).unwrap()
    }

    #[test]
    fn publish_read_delete_cycle() {
        let area = temp_area();
        assert!(!area.exists("out-1.sdf"));
        let n = area.publish("out-1.sdf", b"hello").unwrap();
        assert_eq!(n, 5);
        assert!(area.exists("out-1.sdf"));
        assert_eq!(area.read("out-1.sdf").unwrap(), b"hello");
        assert_eq!(area.size_of("out-1.sdf"), Some(5));
        assert!(area.delete("out-1.sdf").unwrap());
        assert!(!area.delete("out-1.sdf").unwrap());
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn traversal_names_rejected() {
        let area = temp_area();
        for bad in ["../evil", "a/b", "", ".", "..", "x\\y"] {
            assert!(area.path_for(bad).is_err(), "accepted {bad:?}");
        }
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn accounting_and_listing() {
        let area = temp_area();
        area.publish("b.sdf", &[0u8; 100]).unwrap();
        area.publish("a.sdf", &[0u8; 50]).unwrap();
        assert_eq!(area.used_bytes().unwrap(), 150);
        assert_eq!(area.list().unwrap(), vec!["a.sdf", "b.sdf"]);
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn publish_overwrites_atomically() {
        let area = temp_area();
        area.publish("f", b"old").unwrap();
        area.publish("f", b"newer").unwrap();
        assert_eq!(area.read("f").unwrap(), b"newer");
        // No temp litter.
        assert_eq!(area.list().unwrap(), vec!["f"]);
        fs::remove_dir_all(area.root()).unwrap();
    }

    /// Two overlapping producers of one step (a retry racing the attempt
    /// it replaced) must never fail each other's publish or expose a
    /// torn file: with a shared temp name the loser's `rename` hit
    /// ENOENT and a reader could see the other writer's truncation.
    #[test]
    fn concurrent_publishers_of_one_name_never_fail_or_tear() {
        let area = temp_area();
        let payloads = [vec![0xAAu8; 4096], vec![0x55u8; 6000]];
        area.publish("step", &payloads[0]).unwrap();
        std::thread::scope(|scope| {
            for payload in &payloads {
                let (area, payloads) = (&area, &payloads);
                scope.spawn(move || {
                    for round in 0..500 {
                        area.publish("step", payload)
                            .unwrap_or_else(|e| panic!("publish {round} failed: {e}"));
                        let seen = area.read("step").unwrap();
                        assert!(
                            payloads.contains(&seen),
                            "round {round}: torn read of {} bytes",
                            seen.len()
                        );
                    }
                });
            }
        });
        assert_eq!(area.list().unwrap(), vec!["step"], "temp litter left behind");
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn create_is_idempotent() {
        let area = temp_area();
        let again = StorageArea::create(area.root(), 123).unwrap();
        assert_eq!(again.max_bytes(), 123);
        fs::remove_dir_all(area.root()).unwrap();
    }
}
