//! Per-session step reader: cached step files, read into one reused
//! buffer.
//!
//! [`StorageArea::read`] opens a step by name on every call: a path
//! allocation, a path walk, `openat`, `statx`, two `read`s and a
//! `close`. An analysis rereads the same resident steps, so a
//! [`StepReader`] keeps the open file of each step it reads again
//! (keyed by step key) and serves every later read with one `pread`
//! into a buffer it reuses — behind a proof of residency, nothing else;
//! without one, after one `fstat`. A steady-state cached read allocates
//! nothing.
//!
//! **Cache on the second read.** A step's first read goes by name and
//! only marks the key; its next read caches the file. A scan, which
//! never comes back, holds no files. Caching on the first read held
//! thousands of fds in a scanning process, most of them evicted steps:
//! each read of a new step added one, and the sweep below closes at
//! most one per read. Every open fd also slows each child the process
//! spawns (a daemon in the same process launches simulators). The marks
//! are bounded like the files: past the fd cap they are forgotten.
//!
//! **Reuse invariant.** A published step is never written in place:
//! [`StorageArea::publish`] writes a temp file, fsyncs it and renames it
//! over the name, and eviction unlinks it. A cached file is reused only
//! while it is provably still the step's, proven by the pin's residency
//! epoch where the session maps the table, by `fstat` elsewhere:
//!
//! * **Proven** ([`read_proven`](StepReader::read_proven)). The caller
//!   pinned the step through a shared residency table and passes the
//!   pin's *proof* (an opaque `u64`: which table, which epoch of the
//!   key). The owner of the table advances a key's epoch whenever a new
//!   production of it becomes resident, after its file was renamed into
//!   place. Every entry is tagged with the proof it was opened or last
//!   checked under, and an entry whose tag equals the read's proof is
//!   read with one `pread` and no `fstat`: the file opened after the
//!   epoch became visible is that production or a newer one. Any other
//!   proof falls back to the `fstat` check below and re-tags the entry.
//!   What changes for a file deleted behind the owner's back: a proven
//!   read serves it from its open inode until the owner retires the
//!   key (every byte it serves is still a verified production).
//! * **By `fstat`** ([`read`](StepReader::read), and a read without a
//!   proof). While a cached file's inode still has a link
//!   (`st_nlink > 0`) it is the file under that name. A re-publish
//!   (rename-over) or an eviction drops the old inode's link count to
//!   0; the reader then drops the entry and opens the name again —
//!   exactly the by-name semantics, including `NotFound` for a step
//!   that is gone.
//!
//! **fd budget.** The cached files of every reader in the process
//! together never exceed a quarter of the soft `RLIMIT_NOFILE`, read
//! once from `/proc/self/limits` and counted in one process-wide
//! atomic. A reader that finds the budget spent reads by name, without
//! caching.
//!
//! **Deleted inodes.** An entry whose step was evicted keeps its inode
//! (and its disk space) alive until the entry is closed. Each read
//! probes one other slot, round-robin, and closes it if its step is
//! gone: a tagged entry on a proven read is judged by the table (the
//! key's proof now equals the tag → keep, otherwise close, no stat),
//! any other entry by whether its file is unlinked. So a retired or
//! unlinked entry is closed within as many reads as the reader has
//! slots (its peak entry count). At most `entries × step size` bytes of
//! deleted steps are held at any time, and dropping the reader closes
//! everything.

use crate::area::StorageArea;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io;
use std::os::unix::fs::{FileExt, MetadataExt};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A process-wide cap on cached step files.
pub(crate) struct FdBudget {
    /// The cap; derived from the fd limit at first use.
    cap: OnceLock<usize>,
    /// Cached files held right now, across every reader.
    held: AtomicUsize,
}

/// The one budget every [`StorageArea::reader`] draws from.
static PROCESS_FDS: FdBudget = FdBudget {
    cap: OnceLock::new(),
    held: AtomicUsize::new(0),
};

impl FdBudget {
    #[cfg(test)]
    pub(crate) fn with_cap(cap: usize) -> FdBudget {
        FdBudget {
            cap: OnceLock::from(cap),
            held: AtomicUsize::new(0),
        }
    }

    /// A quarter of the soft fd limit; none where the limit is unknown.
    fn cap(&self) -> usize {
        *self.cap.get_or_init(|| {
            std::fs::read_to_string("/proc/self/limits")
                .ok()
                .and_then(|limits| soft_nofile(&limits))
                .map_or(0, |soft| soft / 4)
        })
    }

    /// Takes one file from the budget, if any is left.
    fn try_take(&self) -> bool {
        let cap = self.cap();
        // The count publishes no other data: the files themselves are
        // owned by the reader that took the slot.
        self.held
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok()
    }

    fn give_back(&self) {
        self.held.fetch_sub(1, Ordering::Relaxed);
    }

    /// Cached files held right now.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.held.load(Ordering::Relaxed)
    }
}

/// The soft "Max open files" limit from a `/proc/<pid>/limits` text.
fn soft_nofile(limits: &str) -> Option<usize> {
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line["Max open files".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// One cached step file; returns its budget slot when closed.
struct Cached {
    key: u64,
    /// The name it was opened under: a read by another name of the
    /// same key opens that name, as a by-name read would.
    name: Box<str>,
    file: File,
    /// Its length (a published file never changes).
    len: usize,
    /// The residency proof it was opened or last checked under.
    proof: Option<u64>,
    budget: &'static FdBudget,
}

impl Drop for Cached {
    fn drop(&mut self) {
        self.budget.give_back();
    }
}

/// Reads published steps of one [`StorageArea`], keeping their files
/// open between reads (see the [module docs](self) for the reuse
/// invariant, the fd budget and the deleted-inode bound). Created by
/// [`StorageArea::reader`]; one per session, not shared.
pub struct StepReader {
    area: StorageArea,
    budget: &'static FdBudget,
    /// Cached files at stable positions; `None` is a free slot.
    slots: Vec<Option<Cached>>,
    free: Vec<usize>,
    /// key → position in `slots`.
    index: HashMap<u64, usize>,
    /// Keys read once by name and not cached: their next read caches.
    seen: HashSet<u64>,
    /// Next slot the sweep probes.
    sweep: usize,
    /// The last read's bytes (and whatever capacity earlier reads grew).
    buf: Vec<u8>,
    /// `fstat` calls made: cached-file checks and sweep probes.
    fstats: u64,
}

/// The proof a pin of a key would carry now (`None`: not resident), as
/// the table a session pins against answers it.
pub type ProofOf<'a> = &'a dyn Fn(u64) -> Option<u64>;

impl StepReader {
    pub(crate) fn new(area: StorageArea) -> StepReader {
        StepReader::with_budget(area, &PROCESS_FDS)
    }

    pub(crate) fn with_budget(area: StorageArea, budget: &'static FdBudget) -> StepReader {
        StepReader {
            area,
            budget,
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            seen: HashSet::new(),
            sweep: 0,
            buf: Vec::new(),
            fstats: 0,
        }
    }

    /// Reads step `key`, published as `name`. The bytes are valid until
    /// the next read.
    ///
    /// # Errors
    /// What a by-name read of `name` would return: `NotFound` for a
    /// step that is not published, an invalid name, or an I/O error.
    pub fn read(&mut self, key: u64, name: &str) -> io::Result<&[u8]> {
        self.read_proven(key, name, None, &|_| None)
    }

    /// Reads step `key`, published as `name`, behind a pin of a shared
    /// residency table (see the [module docs](self), "Reuse
    /// invariant"): `proof` is the pin's proof (`None` for a pin taken
    /// some other way), `table` answers the proof a pin of any key would
    /// carry now, for the sweep. With no proof from either, this is
    /// [`read`](Self::read), under which a tagged entry the sweep meets
    /// has nothing to be judged by and is closed. The bytes are valid
    /// until the next read.
    ///
    /// # Errors
    /// As [`read`](Self::read).
    pub fn read_proven(
        &mut self,
        key: u64,
        name: &str,
        proof: Option<u64>,
        table: ProofOf<'_>,
    ) -> io::Result<&[u8]> {
        self.sweep_one(key, table);
        let mut cached = None;
        if let Some(&at) = self.index.get(&key) {
            cached = self.read_cached(at, name, proof);
            if cached.is_none() {
                self.close(at);
            }
        }
        let len = match cached {
            Some(len) => len,
            None => self.read_by_name(key, name, proof)?,
        };
        Ok(&self.buf[..len])
    }

    /// Cached files this reader holds.
    pub fn cached(&self) -> usize {
        self.index.len()
    }

    /// `fstat` calls this reader has made on cached files (the reuse
    /// check of an unproven read and the sweep's probe); a proven
    /// steady-state read makes none.
    pub fn fstats(&self) -> u64 {
        self.fstats
    }

    /// Reads the cached file at `at` into the buffer; `None` if it may
    /// no longer be used (another name, unlinked, or an I/O error). An
    /// entry tagged with `proof` is read as it is; any other is checked
    /// on disk first and tagged with `proof`.
    fn read_cached(&mut self, at: usize, name: &str, proof: Option<u64>) -> Option<usize> {
        let entry = self.slots[at]
            .as_mut()
            .expect("the index names only occupied slots");
        if &*entry.name != name {
            return None;
        }
        if proof.is_none() || entry.proof != proof {
            self.fstats += 1;
            let meta = entry.file.metadata().ok()?;
            if meta.nlink() == 0 {
                return None;
            }
            entry.len = usize::try_from(meta.len()).ok()?;
            entry.proof = proof;
        }
        fill(&entry.file, &mut self.buf, entry.len).ok()?;
        Some(entry.len)
    }

    /// A cold read: opens `name` and reads it. The file is cached if
    /// the key was read before and the budget allows, tagged with
    /// `proof`; a first read only marks the key, so a scan that never
    /// comes back caches nothing.
    fn read_by_name(&mut self, key: u64, name: &str, proof: Option<u64>) -> io::Result<usize> {
        let file = File::open(self.area.path_for(name)?)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "step larger than memory"))?;
        fill(&file, &mut self.buf, len)?;
        if !self.seen.remove(&key) {
            // Bounded like the files: past the cap, forget and start over.
            if self.seen.len() >= self.budget.cap() {
                self.seen.clear();
            }
            self.seen.insert(key);
        } else if self.budget.try_take() {
            let entry = Cached {
                key,
                name: name.into(),
                file,
                len,
                proof,
                budget: self.budget,
            };
            let at = match self.free.pop() {
                Some(at) => {
                    self.slots[at] = Some(entry);
                    at
                }
                None => {
                    self.slots.push(Some(entry));
                    self.slots.len() - 1
                }
            };
            self.index.insert(key, at);
        }
        Ok(len)
    }

    /// Probes the next slot round-robin and closes it if its step is
    /// gone (the slot being read is checked by the read itself): a
    /// tagged entry when the `table`'s proof of its key moved on, any
    /// other when its file was unlinked.
    fn sweep_one(&mut self, reading: u64, table: ProofOf<'_>) {
        if self.slots.is_empty() {
            return;
        }
        let at = self.sweep % self.slots.len();
        self.sweep = at + 1;
        let gone = match &self.slots[at] {
            Some(entry) if entry.key != reading => match entry.proof {
                Some(tag) => table(entry.key) != Some(tag),
                None => {
                    self.fstats += 1;
                    entry.file.metadata().map_or(true, |m| m.nlink() == 0)
                }
            },
            _ => false,
        };
        if gone {
            self.close(at);
        }
    }

    fn close(&mut self, at: usize) {
        if let Some(entry) = self.slots[at].take() {
            self.index.remove(&entry.key);
            self.free.push(at);
        }
    }
}

/// Reads `len` bytes from the start of `file` into `buf`, growing it
/// only when a step is larger than any before.
fn fill(file: &File, buf: &mut Vec<u8>, len: usize) -> io::Result<()> {
    if buf.len() < len {
        buf.resize(len, 0);
    }
    file.read_exact_at(&mut buf[..len], 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_area(tag: &str) -> StorageArea {
        let dir = std::env::temp_dir().join(format!(
            "simstore-reader-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        StorageArea::create(dir, 1 << 20).unwrap()
    }

    fn budget(cap: usize) -> &'static FdBudget {
        Box::leak(Box::new(FdBudget::with_cap(cap)))
    }

    /// Reads `key` twice, so that its file is cached.
    fn cache(reader: &mut StepReader, key: u64, name: &str) {
        let first = reader.read(key, name).unwrap().to_vec();
        assert_eq!(reader.read(key, name).unwrap(), first);
        assert!(reader.index.contains_key(&key), "step {key} not cached");
    }

    #[test]
    fn soft_limit_is_parsed_from_proc_limits() {
        let text = "Limit                     Soft Limit           Hard Limit           Units     \n\
                    Max processes             63704                63704                processes \n\
                    Max open files            20000                40000                files     \n";
        assert_eq!(soft_nofile(text), Some(20000));
        assert_eq!(soft_nofile("Max processes 5 5 processes"), None);
        // The process-wide cap is a quarter of this process's limit.
        let limits = fs::read_to_string("/proc/self/limits").unwrap();
        assert_eq!(PROCESS_FDS.cap(), soft_nofile(&limits).unwrap() / 4);
    }

    #[test]
    fn a_repeat_read_is_served_from_the_cached_file() {
        let area = temp_area("hit");
        area.publish("s1", b"first").unwrap();
        let mut reader = StepReader::with_budget(area.clone(), budget(8));
        assert_eq!(reader.read(1, "s1").unwrap(), b"first");
        assert_eq!(reader.cached(), 0, "a first read caches nothing");
        for _ in 0..3 {
            assert_eq!(reader.read(1, "s1").unwrap(), b"first");
            assert_eq!(reader.cached(), 1);
        }
        // Invalid names fail as a by-name read does.
        assert_eq!(
            reader.read(2, "../s1").unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn a_rename_over_is_read_as_the_new_bytes() {
        let area = temp_area("republish");
        area.publish("s1", b"version one").unwrap();
        let mut reader = StepReader::with_budget(area.clone(), budget(8));
        cache(&mut reader, 1, "s1");
        area.publish("s1", b"v2").unwrap();
        assert_eq!(reader.read(1, "s1").unwrap(), b"v2");
        cache(&mut reader, 1, "s1");
        area.publish("s1", b"version three, longer").unwrap();
        assert_eq!(reader.read(1, "s1").unwrap(), b"version three, longer");
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn an_unlinked_step_is_not_found_and_its_entry_is_gone() {
        let area = temp_area("unlink");
        area.publish("s1", b"doomed").unwrap();
        let b = budget(8);
        let mut reader = StepReader::with_budget(area.clone(), b);
        cache(&mut reader, 1, "s1");
        assert!(area.delete("s1").unwrap());
        let err = reader.read(1, "s1").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        assert_eq!(reader.cached(), 0);
        assert_eq!(b.held(), 0);
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn unlink_then_republish_is_read_as_the_new_bytes() {
        let area = temp_area("relink");
        area.publish("s1", b"before eviction").unwrap();
        let mut reader = StepReader::with_budget(area.clone(), budget(8));
        cache(&mut reader, 1, "s1");
        assert!(area.delete("s1").unwrap());
        area.publish("s1", b"re-simulated").unwrap();
        assert_eq!(reader.read(1, "s1").unwrap(), b"re-simulated");
        cache(&mut reader, 1, "s1");
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn another_name_of_a_cached_key_is_read_by_that_name() {
        let area = temp_area("alias");
        area.publish("out-07", b"padded").unwrap();
        let mut reader = StepReader::with_budget(area.clone(), budget(8));
        cache(&mut reader, 7, "out-07");
        let err = reader.read(7, "out-7").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(reader.read(7, "out-07").unwrap(), b"padded");
        fs::remove_dir_all(area.root()).unwrap();
    }

    /// A scan reads every step once: it caches no file, and what it
    /// remembers of the steps it read stays within the fd cap.
    #[test]
    fn a_scan_caches_nothing_and_remembers_a_bounded_set() {
        let area = temp_area("scan");
        for k in 0..20u64 {
            area.publish(&format!("s{k}"), &k.to_le_bytes()).unwrap();
        }
        let b = budget(4);
        let mut reader = StepReader::with_budget(area.clone(), b);
        for k in 0..20u64 {
            assert_eq!(reader.read(k, &format!("s{k}")).unwrap(), k.to_le_bytes());
            assert_eq!(b.held(), 0);
            assert!(
                reader.seen.len() <= 4,
                "{} keys remembered",
                reader.seen.len()
            );
        }
        // The latest step read is remembered: its next read caches.
        reader.read(19, "s19").unwrap();
        assert_eq!(reader.cached(), 1);
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn readers_never_exceed_the_budget_and_return_it_on_drop() {
        let area = temp_area("budget");
        for k in 0..20u64 {
            area.publish(&format!("s{k}"), &k.to_le_bytes()).unwrap();
        }
        let b = budget(5);
        let mut readers: Vec<StepReader> = (0..3)
            .map(|_| StepReader::with_budget(area.clone(), b))
            .collect();
        for round in 0..3 {
            for (i, reader) in readers.iter_mut().enumerate() {
                for k in 0..20u64 {
                    let k = (k + i as u64 * 7 + round) % 20;
                    // Twice, so the second read asks for a file. Past
                    // the budget it still succeeds, by name.
                    for _ in 0..2 {
                        assert_eq!(reader.read(k, &format!("s{k}")).unwrap(), k.to_le_bytes());
                        assert!(b.held() <= 5, "{} cached files", b.held());
                    }
                }
            }
        }
        assert_eq!(b.held(), 5);
        assert_eq!(readers.iter().map(StepReader::cached).sum::<usize>(), 5);
        drop(readers.pop());
        assert_eq!(
            b.held(),
            readers.iter().map(StepReader::cached).sum::<usize>()
        );
        readers.clear();
        assert_eq!(b.held(), 0);
        fs::remove_dir_all(area.root()).unwrap();
    }

    #[test]
    fn an_unlinked_entry_is_closed_within_one_pass_of_the_sweep() {
        let area = temp_area("sweep");
        const STEPS: u64 = 10;
        for k in 0..STEPS {
            area.publish(&format!("s{k}"), &[k as u8; 64]).unwrap();
        }
        let mut reader = StepReader::with_budget(area.clone(), budget(64));
        for k in 0..STEPS {
            cache(&mut reader, k, &format!("s{k}"));
        }
        // Evict every other step; only step 1 is read from here on.
        for k in (0..STEPS).step_by(2) {
            assert!(area.delete(&format!("s{k}")).unwrap());
        }
        let slots = reader.cached();
        for _ in 0..slots {
            reader.read(1, "s1").unwrap();
        }
        assert_eq!(
            reader.cached(),
            STEPS as usize / 2,
            "the sweep missed an unlinked entry"
        );
        assert!(reader.index.keys().all(|k| k % 2 == 1));
        fs::remove_dir_all(area.root()).unwrap();
    }

    /// A table of one epoch per key, as a session's pins would prove
    /// it: `None` is a key that is not resident.
    struct Table(std::cell::RefCell<HashMap<u64, u64>>);

    impl Table {
        fn new(keys: impl IntoIterator<Item = u64>) -> Table {
            Table(std::cell::RefCell::new(keys.into_iter().map(|k| (k, 1)).collect()))
        }
        fn proof(&self, key: u64) -> Option<u64> {
            self.0.borrow().get(&key).map(|epoch| key << 32 | epoch)
        }
        fn advance(&self, key: u64) {
            *self.0.borrow_mut().entry(key).or_insert(0) += 1;
        }
        fn retire(&self, key: u64) {
            self.0.borrow_mut().remove(&key);
        }
    }

    /// A proven read of `key` (panics on an error).
    fn proven(reader: &mut StepReader, table: &Table, key: u64, name: &str) -> Vec<u8> {
        reader
            .read_proven(key, name, table.proof(key), &|k| table.proof(k))
            .unwrap()
            .to_vec()
    }

    #[test]
    fn a_proven_read_makes_no_fstat() {
        let area = temp_area("proven");
        area.publish("s1", b"one").unwrap();
        area.publish("s2", b"two").unwrap();
        let table = Table::new([1, 2]);
        let mut reader = StepReader::with_budget(area.clone(), budget(8));
        for _ in 0..50 {
            assert_eq!(proven(&mut reader, &table, 1, "s1"), b"one");
            assert_eq!(proven(&mut reader, &table, 2, "s2"), b"two");
        }
        assert_eq!(reader.cached(), 2);
        assert_eq!(reader.fstats(), 0, "a proven read checked its file on disk");
        // Without a proof a cached read checks its file on disk, and
        // the sweep, with no table to judge it by, closes the other
        // (tagged) entry.
        reader.read(1, "s1").unwrap();
        assert_eq!(reader.fstats(), 1);
        assert_eq!(reader.cached(), 1);
        fs::remove_dir_all(area.root()).unwrap();
    }

    /// A key evicted and re-produced between two opens: its epoch moved,
    /// so the old file is never served.
    #[test]
    fn a_moved_epoch_is_never_served_from_the_old_file() {
        let area = temp_area("reproduced");
        area.publish("s1", b"before eviction").unwrap();
        let table = Table::new([1]);
        let mut reader = StepReader::with_budget(area.clone(), budget(8));
        for _ in 0..2 {
            assert_eq!(proven(&mut reader, &table, 1, "s1"), b"before eviction");
        }
        assert!(area.delete("s1").unwrap());
        area.publish("s1", b"re-simulated").unwrap();
        table.advance(1);
        assert_eq!(proven(&mut reader, &table, 1, "s1"), b"re-simulated");
        // Re-tagged: the new file is read proven from here on.
        let fstats = reader.fstats();
        assert_eq!(proven(&mut reader, &table, 1, "s1"), b"re-simulated");
        assert_eq!(reader.fstats(), fstats);
        assert_eq!(reader.cached(), 1);
        fs::remove_dir_all(area.root()).unwrap();
    }

    /// An overlapping production renames a new file over a resident
    /// step: the proven entry serves the old production until the
    /// epoch moves, then the new one.
    #[test]
    fn a_rename_over_is_read_once_its_epoch_moves() {
        let area = temp_area("overlap");
        area.publish("s1", b"first production").unwrap();
        let table = Table::new([1]);
        let mut reader = StepReader::with_budget(area.clone(), budget(8));
        for _ in 0..2 {
            proven(&mut reader, &table, 1, "s1");
        }
        area.publish("s1", b"second production").unwrap();
        assert_eq!(
            proven(&mut reader, &table, 1, "s1"),
            b"first production",
            "not admitted yet: the proof still holds for the open inode"
        );
        table.advance(1);
        assert_eq!(proven(&mut reader, &table, 1, "s1"), b"second production");
        fs::remove_dir_all(area.root()).unwrap();
    }

    /// The sweep judges tagged entries by the table: a retired key's
    /// entry is closed within one pass, with no stat, even though its
    /// file is still linked.
    #[test]
    fn the_sweep_closes_a_retired_entry_within_one_pass_without_a_stat() {
        let area = temp_area("retired");
        const STEPS: u64 = 10;
        for k in 0..STEPS {
            area.publish(&format!("s{k}"), &[k as u8; 64]).unwrap();
        }
        let table = Table::new(0..STEPS);
        let mut reader = StepReader::with_budget(area.clone(), budget(64));
        for k in 0..STEPS {
            for _ in 0..2 {
                proven(&mut reader, &table, k, &format!("s{k}"));
            }
        }
        assert_eq!(reader.cached(), STEPS as usize);
        for k in (0..STEPS).step_by(2) {
            table.retire(k);
        }
        let slots = reader.cached();
        for _ in 0..slots {
            proven(&mut reader, &table, 1, "s1");
        }
        assert_eq!(
            reader.cached(),
            STEPS as usize / 2,
            "the sweep missed a retired entry"
        );
        assert!(reader.index.keys().all(|k| k % 2 == 1));
        assert_eq!(reader.fstats(), 0);
        fs::remove_dir_all(area.root()).unwrap();
    }

    /// A publisher re-publishing one name in a loop against a cached
    /// reader: every read is one whole published version, never a
    /// short or torn buffer (extends
    /// `concurrent_publishers_of_one_name_never_fail_or_tear`).
    #[test]
    fn a_reader_racing_a_republishing_writer_never_sees_a_torn_step() {
        let area = temp_area("race");
        let payloads = [vec![0xAAu8; 4096], vec![0x55u8; 6000], vec![0x0Fu8; 100]];
        area.publish("step", &payloads[0]).unwrap();
        let mut reader = StepReader::with_budget(area.clone(), budget(4));
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 0..2000 {
                    area.publish("step", &payloads[round % payloads.len()])
                        .unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            let mut reads = 0u32;
            while !done.load(Ordering::SeqCst) || reads < 100 {
                let seen = reader.read(3, "step").unwrap();
                assert!(
                    payloads.iter().any(|p| p == seen),
                    "read {reads}: torn read of {} bytes",
                    seen.len()
                );
                reads += 1;
            }
        });
        assert_eq!(reader.read(3, "step").unwrap(), &payloads[1999 % 3][..]);
        assert_eq!(
            area.list().unwrap(),
            vec!["step"],
            "temp litter left behind"
        );
        fs::remove_dir_all(area.root()).unwrap();
    }
}
