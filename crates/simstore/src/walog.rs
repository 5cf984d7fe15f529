//! Write-ahead session/lease log: the durability substrate for DV
//! restart recovery.
//!
//! The DV's authority over a storage area — which sessions may still
//! hold pins — lives in daemon memory. This module makes that authority
//! *re-establishable*: the daemon appends a fixed-size checksummed
//! record for every recovery epoch, every analysis session's hello (a
//! [`WalRecord::Lease`]) and every departure ([`WalRecord::ClientGone`]),
//! and a restarted daemon replays the log to learn which sessions to
//! wait for under a fresh epoch. Pins themselves are not journaled: a
//! recovering member holds its resident steps until the leased sessions
//! re-assert what they held.
//!
//! Earlier builds also journaled every pin ([`WalRecord::PinAcquire`],
//! [`WalRecord::PinRelease`], [`WalRecord::TakeoverPin`]). Those
//! variants keep their tags and their fold, because a journal such a
//! build left behind must still decode: an unknown tag reads as a torn
//! tail, and everything after it would be truncated away.
//!
//! Design points:
//!
//! * **Fixed 40-byte records** ([`RECORD_LEN`]) with an FNV-1a 64
//!   checksum over the first 32 bytes ([`crate::checksum`]). A record
//!   either replays whole or not at all; there is no variable-length
//!   framing to resynchronize.
//! * **Torn tails are expected, not errors.** A crash mid-append leaves
//!   a partial or corrupt last record; [`replay_bytes`] recovers the
//!   longest valid prefix and [`WriteAheadLog::open`] truncates the
//!   file back to it. Anything lost past that point is reconciled by
//!   the client re-assertion protocol, never by guessing.
//! * **Appends are buffered.** [`WriteAheadLog::append`] only encodes
//!   into memory; [`flush`](WriteAheadLog::flush) writes and
//!   [`sync`](WriteAheadLog::sync) fsyncs, so the daemon batches
//!   durability off its hot path (records ride the `Effects` outbox
//!   and are flushed at the same drain points as access digests).
//! * **Replay is pure.** [`WalState`] folds records into leases (and an
//!   earlier build's pin counts) with no I/O, so the deterministic fault-injection harness
//!   journals into in-memory buffers and replays them under virtual
//!   time exactly as the daemon replays files.

use crate::checksum::fnv1a64;
use simkit::lockrank;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Encoded size of every WAL record.
pub const RECORD_LEN: usize = 40;

/// One durable control-plane fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A recovery epoch began (the first record of every compaction
    /// snapshot, so one per daemon start).
    Epoch {
        /// The new epoch (strictly increasing across restarts).
        epoch: u64,
    },
    /// `client` pinned `key` (one count). Written by earlier builds,
    /// and by [`WalState::snapshot`] for a state that folded such pins;
    /// the daemon journals no pin.
    PinAcquire {
        /// Pinning client.
        client: u64,
        /// Pinned key.
        key: u64,
        /// Epoch the pin was taken under.
        epoch: u64,
    },
    /// `client` released one pin count on `key`. Written only by
    /// earlier builds.
    PinRelease {
        /// Releasing client.
        client: u64,
        /// Released key.
        key: u64,
        /// Epoch the release happened under.
        epoch: u64,
    },
    /// `client` said hello: a session whose pins a recovery waits for
    /// until it re-asserts or its lease lapses. The daemon journals one
    /// per analysis session of a durable context, durable before the
    /// session's greeting goes out.
    Lease {
        /// Leased client.
        client: u64,
        /// Epoch the lease was granted under.
        epoch: u64,
    },
    /// `client` departed (hangup, lapsed recovery lease, or a prior
    /// identity retired by its reassert): its lease and any pins an
    /// earlier build journaled for it are void.
    ClientGone {
        /// Departed client.
        client: u64,
        /// Epoch of the departure.
        epoch: u64,
    },
    /// `client` pinned `key` (one count) on behalf of a *dead cluster
    /// member* — a takeover pin. Written only by earlier builds, which
    /// tagged takeover grants this way; it replays like
    /// [`PinAcquire`](WalRecord::PinAcquire), and compaction snapshots
    /// canonicalize it to one.
    TakeoverPin {
        /// Pinning client (at the taker).
        client: u64,
        /// Pinned foreign-interval key.
        key: u64,
        /// The *taker's* epoch the pin was taken under.
        epoch: u64,
    },
}

const TAG_EPOCH: u8 = 1;
const TAG_PIN_ACQUIRE: u8 = 2;
const TAG_PIN_RELEASE: u8 = 3;
const TAG_LEASE: u8 = 4;
const TAG_CLIENT_GONE: u8 = 5;
const TAG_TAKEOVER_PIN: u8 = 6;

impl WalRecord {
    fn parts(&self) -> (u8, u64, u64, u64) {
        match *self {
            WalRecord::Epoch { epoch } => (TAG_EPOCH, 0, 0, epoch),
            WalRecord::PinAcquire { client, key, epoch } => (TAG_PIN_ACQUIRE, client, key, epoch),
            WalRecord::PinRelease { client, key, epoch } => (TAG_PIN_RELEASE, client, key, epoch),
            WalRecord::Lease { client, epoch } => (TAG_LEASE, client, 0, epoch),
            WalRecord::ClientGone { client, epoch } => (TAG_CLIENT_GONE, client, 0, epoch),
            WalRecord::TakeoverPin { client, key, epoch } => (TAG_TAKEOVER_PIN, client, key, epoch),
        }
    }

    /// The record's epoch field.
    pub fn epoch(&self) -> u64 {
        self.parts().3
    }
}

/// Appends the canonical encoding of `r` to `out`.
pub fn encode_record(r: &WalRecord, out: &mut Vec<u8>) {
    let (tag, client, key, epoch) = r.parts();
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&[0u8; 7]);
    out.extend_from_slice(&client.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    let sum = fnv1a64(&out[start..start + 32]);
    out.extend_from_slice(&sum.to_le_bytes());
    debug_assert_eq!(out.len() - start, RECORD_LEN);
}

/// Decodes one record from a [`RECORD_LEN`]-byte buffer; `None` if the
/// checksum or tag is invalid (a torn or corrupt record).
pub fn decode_record(buf: &[u8]) -> Option<WalRecord> {
    if buf.len() < RECORD_LEN {
        return None;
    }
    let stored = u64::from_le_bytes(buf[32..40].try_into().unwrap());
    if fnv1a64(&buf[..32]) != stored {
        return None;
    }
    if buf[1..8].iter().any(|&b| b != 0) {
        return None;
    }
    let client = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let key = u64::from_le_bytes(buf[16..24].try_into().unwrap());
    let epoch = u64::from_le_bytes(buf[24..32].try_into().unwrap());
    Some(match buf[0] {
        TAG_EPOCH => WalRecord::Epoch { epoch },
        TAG_PIN_ACQUIRE => WalRecord::PinAcquire { client, key, epoch },
        TAG_PIN_RELEASE => WalRecord::PinRelease { client, key, epoch },
        TAG_LEASE => WalRecord::Lease { client, epoch },
        TAG_CLIENT_GONE => WalRecord::ClientGone { client, epoch },
        TAG_TAKEOVER_PIN => WalRecord::TakeoverPin { client, key, epoch },
        _ => return None,
    })
}

/// What [`replay_bytes`] found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Bytes of the longest valid record prefix.
    pub valid_bytes: u64,
    /// Records in that prefix.
    pub records: u64,
    /// Whether bytes past the prefix were discarded (torn tail).
    pub truncated: bool,
}

/// Decodes the longest valid record prefix of `bytes`. Replay stops at
/// the first record that is short, checksum-corrupt, or has an unknown
/// tag — everything before it is trusted, everything after discarded.
pub fn replay_bytes(bytes: &[u8]) -> (Vec<WalRecord>, ReplayReport) {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off + RECORD_LEN <= bytes.len() {
        let Some(r) = decode_record(&bytes[off..off + RECORD_LEN]) else {
            break;
        };
        records.push(r);
        off += RECORD_LEN;
    }
    let report = ReplayReport {
        valid_bytes: off as u64,
        records: records.len() as u64,
        truncated: off != bytes.len(),
    };
    (records, report)
}

/// Pure fold of a record stream into recoverable state: per-client pin
/// counts and live leases, plus the highest epoch seen.
#[derive(Clone, Debug, Default)]
pub struct WalState {
    /// Highest epoch recorded.
    pub epoch: u64,
    /// `(client, key)` → pin count. Releases saturate at zero (a
    /// release whose acquire fell past a torn tail must not underflow
    /// into resurrecting someone else's pin).
    pub pins: HashMap<(u64, u64), u32>,
    /// Clients holding leases (registered and not gone).
    pub leases: Vec<u64>,
}

impl WalState {
    /// Applies one record.
    pub fn apply(&mut self, r: &WalRecord) {
        self.epoch = self.epoch.max(r.epoch());
        match *r {
            WalRecord::Epoch { .. } => {}
            WalRecord::PinAcquire { client, key, .. }
            | WalRecord::TakeoverPin { client, key, .. } => {
                *self.pins.entry((client, key)).or_insert(0) += 1;
            }
            WalRecord::PinRelease { client, key, .. } => {
                if let Some(n) = self.pins.get_mut(&(client, key)) {
                    *n -= 1;
                    if *n == 0 {
                        self.pins.remove(&(client, key));
                    }
                }
            }
            WalRecord::Lease { client, .. } => {
                if !self.leases.contains(&client) {
                    self.leases.push(client);
                }
            }
            WalRecord::ClientGone { client, .. } => {
                self.pins.retain(|&(c, _), _| c != client);
                self.leases.retain(|&c| c != client);
            }
        }
    }

    /// Folds a whole record stream.
    pub fn replay(records: &[WalRecord]) -> WalState {
        let mut state = WalState::default();
        for r in records {
            state.apply(r);
        }
        state
    }

    /// Clients that still matter after replay: every lease holder plus
    /// every pin owner, deduplicated.
    pub fn live_clients(&self) -> Vec<u64> {
        let mut out = self.leases.clone();
        for &(c, _) in self.pins.keys() {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out.sort_unstable();
        out
    }

    /// The minimal record stream reproducing this state under `epoch`
    /// (the compaction snapshot): one epoch record, the leases, then
    /// the pins expanded to their counts.
    pub fn snapshot(&self, epoch: u64) -> Vec<WalRecord> {
        let mut out = vec![WalRecord::Epoch { epoch }];
        let mut leases = self.leases.clone();
        leases.sort_unstable();
        for client in leases {
            out.push(WalRecord::Lease { client, epoch });
        }
        let mut pins: Vec<(&(u64, u64), &u32)> = self.pins.iter().collect();
        pins.sort_unstable();
        for (&(client, key), &count) in pins {
            for _ in 0..count {
                out.push(WalRecord::PinAcquire { client, key, epoch });
            }
        }
        out
    }
}

/// Compact the log once it grows past this many bytes (checked at sync
/// points; the snapshot is bounded by live pins + leases, so a busy but
/// steady daemon's log stays small forever).
pub const COMPACT_THRESHOLD: u64 = 64 * 1024;

/// An append-only, torn-tail-tolerant record log backed by one file.
#[derive(Debug)]
pub struct WriteAheadLog {
    path: PathBuf,
    file: File,
    /// Encoded-but-unwritten records.
    pending: Vec<u8>,
    /// Bytes durably (well: written; see `dirty`) in the file.
    file_bytes: u64,
    /// Records appended over this log's lifetime (stat feed).
    appended: u64,
    /// Actual `fdatasync` calls over this log's lifetime (stat feed:
    /// `appended / syncs` is the group-fsync batching factor).
    syncs: u64,
    /// Written bytes not yet fsynced.
    dirty: bool,
}

impl WriteAheadLog {
    /// Opens (creating if missing) the log at `path`, replays its
    /// longest valid record prefix and truncates any torn tail away.
    /// Returns the log positioned for appends plus the replayed
    /// records and a report of what was found.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(WriteAheadLog, Vec<WalRecord>, ReplayReport)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, report) = replay_bytes(&bytes);
        if report.truncated {
            file.set_len(report.valid_bytes)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(report.valid_bytes))?;
        Ok((
            WriteAheadLog {
                path,
                file,
                pending: Vec::new(),
                file_bytes: report.valid_bytes,
                appended: 0,
                syncs: 0,
                dirty: false,
            },
            records,
            report,
        ))
    }

    /// Buffers one record (no syscalls).
    pub fn append(&mut self, r: &WalRecord) {
        encode_record(r, &mut self.pending);
        self.appended += 1;
    }

    /// Buffers every record in `records`.
    pub fn append_all(&mut self, records: &[WalRecord]) {
        for r in records {
            self.append(r);
        }
    }

    /// Writes buffered records to the file (no fsync); returns the
    /// bytes written.
    pub fn flush(&mut self) -> io::Result<usize> {
        lockrank::assert_blocking_ok("walog flush");
        if self.pending.is_empty() {
            return Ok(0);
        }
        self.file.write_all(&self.pending)?;
        let n = self.pending.len();
        self.file_bytes += n as u64;
        self.pending.clear();
        self.dirty = true;
        Ok(n)
    }

    /// Flushes and, if anything was written since the last sync,
    /// fsyncs — the batched durability point.
    pub fn sync(&mut self) -> io::Result<()> {
        lockrank::assert_blocking_ok("walog sync");
        self.flush()?;
        if self.dirty {
            self.file.sync_data()?;
            self.syncs += 1;
            self.dirty = false;
        }
        Ok(())
    }

    /// Atomically replaces the log's contents with `records` (write
    /// temp + fsync + rename), e.g. a [`WalState::snapshot`] at a
    /// checkpoint. Pending unflushed records are discarded — the
    /// snapshot is expected to already reflect them.
    pub fn compact(&mut self, records: &[WalRecord]) -> io::Result<()> {
        lockrank::assert_blocking_ok("walog compact");
        let tmp = self.path.with_extension("tmp-compact");
        let mut bytes = Vec::with_capacity(records.len() * RECORD_LEN);
        for r in records {
            encode_record(r, &mut bytes);
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.file_bytes = bytes.len() as u64;
        self.pending.clear();
        self.dirty = false;
        Ok(())
    }

    /// Bytes in the backing file (flushed; excludes pending).
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Records appended over this log's lifetime.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// `fdatasync` calls over this log's lifetime. With group fsync
    /// (the daemon's effect tier) this stays well below
    /// [`appended`](Self::appended) under load.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "simstore-walog-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Epoch { epoch: 3 },
            WalRecord::Lease { client: 7, epoch: 3 },
            WalRecord::PinAcquire { client: 7, key: 11, epoch: 3 },
            WalRecord::PinAcquire { client: 7, key: 11, epoch: 3 },
            WalRecord::PinAcquire { client: 9, key: 12, epoch: 3 },
            WalRecord::PinRelease { client: 7, key: 11, epoch: 3 },
            WalRecord::ClientGone { client: 9, epoch: 3 },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for r in sample_records() {
            let mut buf = Vec::new();
            encode_record(&r, &mut buf);
            assert_eq!(buf.len(), RECORD_LEN);
            assert_eq!(decode_record(&buf), Some(r));
        }
    }

    #[test]
    fn corrupt_records_rejected() {
        let mut buf = Vec::new();
        encode_record(&WalRecord::PinAcquire { client: 1, key: 2, epoch: 3 }, &mut buf);
        for i in 0..RECORD_LEN {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert_eq!(decode_record(&bad), None, "flip at byte {i} accepted");
        }
        assert_eq!(decode_record(&buf[..RECORD_LEN - 1]), None);
    }

    #[test]
    fn replay_folds_pins_and_leases() {
        let state = WalState::replay(&sample_records());
        assert_eq!(state.epoch, 3);
        assert_eq!(state.pins.get(&(7, 11)), Some(&1));
        assert_eq!(state.pins.get(&(9, 12)), None, "ClientGone voids pins");
        assert_eq!(state.leases, vec![7]);
        assert_eq!(state.live_clients(), vec![7]);
    }

    #[test]
    fn release_without_acquire_saturates() {
        let mut state = WalState::default();
        state.apply(&WalRecord::PinRelease { client: 1, key: 5, epoch: 1 });
        assert!(state.pins.is_empty());
        state.apply(&WalRecord::PinAcquire { client: 1, key: 5, epoch: 1 });
        assert_eq!(state.pins.get(&(1, 5)), Some(&1));
    }

    #[test]
    fn takeover_pin_replays_and_nets_like_acquire() {
        let r = WalRecord::TakeoverPin { client: 4, key: 9, epoch: 2 };
        let mut buf = Vec::new();
        encode_record(&r, &mut buf);
        assert_eq!(decode_record(&buf), Some(r));
        // Replay: a takeover pin is a pin.
        let state = WalState::replay(&[
            r,
            WalRecord::TakeoverPin { client: 4, key: 9, epoch: 2 },
            WalRecord::PinRelease { client: 4, key: 9, epoch: 2 },
        ]);
        assert_eq!(state.pins.get(&(4, 9)), Some(&1));
        // ClientGone voids takeover pins like native ones.
        let mut state = state;
        state.apply(&WalRecord::ClientGone { client: 4, epoch: 2 });
        assert!(state.pins.is_empty());
        // Compaction snapshots canonicalize to PinAcquire.
        let state = WalState::replay(&[
            WalRecord::TakeoverPin { client: 4, key: 9, epoch: 2 },
            WalRecord::PinRelease { client: 4, key: 9, epoch: 2 },
            WalRecord::TakeoverPin { client: 4, key: 10, epoch: 2 },
        ]);
        assert_eq!(
            state.snapshot(3),
            vec![
                WalRecord::Epoch { epoch: 3 },
                WalRecord::PinAcquire { client: 4, key: 10, epoch: 3 },
            ]
        );
    }

    #[test]
    fn open_append_reopen_replays() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let (mut log, records, report) = WriteAheadLog::open(&path).unwrap();
            assert!(records.is_empty() && !report.truncated);
            log.append_all(&sample_records());
            assert_eq!(log.appended(), 7);
            log.sync().unwrap();
        }
        let (log, records, report) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(records, sample_records());
        assert!(!report.truncated);
        assert_eq!(report.records, 7);
        assert_eq!(log.file_bytes(), 7 * RECORD_LEN as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let mut bytes = Vec::new();
        for r in sample_records() {
            encode_record(&r, &mut bytes);
        }
        bytes.extend_from_slice(&[0xAB; 17]); // torn partial record
        std::fs::write(&path, &bytes).unwrap();
        let (mut log, records, report) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(records, sample_records());
        assert!(report.truncated);
        assert_eq!(log.file_bytes(), 7 * RECORD_LEN as u64);
        // Appends after truncation land on the clean boundary.
        log.append(&WalRecord::Epoch { epoch: 4 });
        log.sync().unwrap();
        drop(log);
        let (_, records, report) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(records.len(), 8);
        assert!(!report.truncated);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_replaces_with_snapshot() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let (mut log, _, _) = WriteAheadLog::open(&path).unwrap();
        log.append_all(&sample_records());
        log.sync().unwrap();
        let state = WalState::replay(&sample_records());
        log.compact(&state.snapshot(4)).unwrap();
        assert_eq!(log.file_bytes(), 3 * RECORD_LEN as u64);
        drop(log);
        let (_, records, report) = WriteAheadLog::open(&path).unwrap();
        assert!(!report.truncated);
        let replayed = WalState::replay(&records);
        assert_eq!(replayed.epoch, 4);
        assert_eq!(replayed.pins.get(&(7, 11)), Some(&1));
        assert_eq!(replayed.leases, vec![7]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_expands_pin_counts() {
        let mut state = WalState::default();
        state.apply(&WalRecord::PinAcquire { client: 3, key: 8, epoch: 1 });
        state.apply(&WalRecord::PinAcquire { client: 3, key: 8, epoch: 1 });
        let snap = state.snapshot(2);
        let replayed = WalState::replay(&snap);
        assert_eq!(replayed.pins.get(&(3, 8)), Some(&2));
        assert_eq!(replayed.epoch, 2);
    }

    mod torn_tail_props {
        use super::super::*;
        use proptest::prelude::*;

        fn arb_record() -> impl Strategy<Value = WalRecord> {
            let client = 1u64..4;
            let key = 1u64..8;
            let epoch = 1u64..3;
            prop_oneof![
                (1u64..5).prop_map(|epoch| WalRecord::Epoch { epoch }),
                (client.clone(), key.clone(), epoch.clone())
                    .prop_map(|(client, key, epoch)| WalRecord::PinAcquire { client, key, epoch }),
                (client.clone(), key.clone(), epoch.clone())
                    .prop_map(|(client, key, epoch)| WalRecord::PinRelease { client, key, epoch }),
                (client.clone(), key, epoch.clone())
                    .prop_map(|(client, key, epoch)| WalRecord::TakeoverPin { client, key, epoch }),
                (client.clone(), epoch.clone())
                    .prop_map(|(client, epoch)| WalRecord::Lease { client, epoch }),
                (client, epoch)
                    .prop_map(|(client, epoch)| WalRecord::ClientGone { client, epoch }),
            ]
        }

        fn encode_all(records: &[WalRecord]) -> Vec<u8> {
            let mut bytes = Vec::with_capacity(records.len() * RECORD_LEN);
            for r in records {
                encode_record(r, &mut bytes);
            }
            bytes
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A log truncated at *any* byte boundary replays exactly
            /// the records whose encodings fit whole in the remaining
            /// prefix — no panic, no partial record, no invention.
            #[test]
            fn truncation_recovers_longest_valid_prefix(
                records in prop::collection::vec(arb_record(), 0..24),
                cut in any::<prop::sample::Index>(),
            ) {
                let bytes = encode_all(&records);
                let cut = cut.index(bytes.len() + 1);
                let (replayed, report) = replay_bytes(&bytes[..cut]);
                let whole = cut / RECORD_LEN;
                prop_assert_eq!(&replayed[..], &records[..whole]);
                prop_assert_eq!(report.valid_bytes, (whole * RECORD_LEN) as u64);
                prop_assert_eq!(report.truncated, cut % RECORD_LEN != 0);
            }

            /// Truncated replay never resurrects a released pin: the
            /// folded state is exactly the fold of the surviving record
            /// prefix, so a release inside the prefix always lands and
            /// pin counts never exceed the prefix's acquires.
            #[test]
            fn truncation_never_resurrects_released_pins(
                records in prop::collection::vec(arb_record(), 0..24),
                cut in any::<prop::sample::Index>(),
            ) {
                let bytes = encode_all(&records);
                let cut = cut.index(bytes.len() + 1);
                let (replayed, _) = replay_bytes(&bytes[..cut]);
                let state = WalState::replay(&replayed);
                let prefix = &records[..cut / RECORD_LEN];
                // Independent saturating fold over the prefix: every
                // release (of a held pin) and every ClientGone inside
                // the valid prefix must land in the recovered state —
                // truncation may forget pins, never un-release them.
                let mut expect: std::collections::HashMap<(u64, u64), u32> =
                    std::collections::HashMap::new();
                for r in prefix {
                    match *r {
                        WalRecord::PinAcquire { client, key, .. }
                        | WalRecord::TakeoverPin { client, key, .. } => {
                            *expect.entry((client, key)).or_insert(0) += 1;
                        }
                        WalRecord::PinRelease { client, key, .. } => {
                            if let Some(n) = expect.get_mut(&(client, key)) {
                                *n -= 1;
                                if *n == 0 {
                                    expect.remove(&(client, key));
                                }
                            }
                        }
                        WalRecord::ClientGone { client, .. } => {
                            expect.retain(|&(c, _), _| c != client);
                        }
                        _ => {}
                    }
                }
                prop_assert_eq!(&state.pins, &expect);
                for (&(client, key), &count) in &state.pins {
                    let acquires = prefix
                        .iter()
                        .filter(|r| {
                            matches!(
                                **r,
                                WalRecord::PinAcquire { client: c, key: k, .. }
                                | WalRecord::TakeoverPin { client: c, key: k, .. }
                                    if (c, k) == (client, key)
                            )
                        })
                        .count() as u32;
                    prop_assert!(
                        count <= acquires,
                        "pin ({client},{key})×{count} exceeds prefix acquires {acquires}"
                    );
                }
            }

            /// Arbitrary single-byte corruption anywhere in the log is
            /// contained: replay never panics and never accepts records
            /// past the corruption point.
            #[test]
            fn corruption_is_contained(
                records in prop::collection::vec(arb_record(), 1..16),
                pos in any::<prop::sample::Index>(),
                flip in 1u8..=255,
            ) {
                let mut bytes = encode_all(&records);
                let pos = pos.index(bytes.len());
                bytes[pos] ^= flip;
                let (replayed, report) = replay_bytes(&bytes);
                let hit = pos / RECORD_LEN;
                prop_assert!(replayed.len() <= hit);
                prop_assert_eq!(&replayed[..], &records[..replayed.len()]);
                prop_assert!(report.truncated);
            }
        }
    }
}
