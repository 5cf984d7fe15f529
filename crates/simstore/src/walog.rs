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
//! re-assert what they held. The journal is a lease table.
//!
//! Design points:
//!
//! * **Fixed 40-byte records** ([`RECORD_LEN`]) with an FNV-1a 64
//!   checksum over the first 32 bytes ([`crate::checksum`]). A record
//!   either replays whole or not at all; there is no variable-length
//!   framing to resynchronize.
//! * **A versioned file, with no extra record.** Every journal begins
//!   with the `Epoch` its compaction snapshot opens with, and that
//!   record carries [`JOURNAL_VERSION`] in its padding. Earlier builds
//!   wrote a zero there and journaled every pin besides; their pin
//!   records do not decode here. A file whose first record passes its
//!   checksum but is not a current `Epoch` is such an earlier journal:
//!   [`replay_bytes`] marks it [`earlier`](ReplayReport::earlier) and
//!   [`WriteAheadLog::open`] leaves it byte-identical. Its sessions
//!   cannot be read, so the daemon refuses to recover from it and,
//!   started without recovery, only picks an epoch above all of its.
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
//! * **Replay is pure.** [`WalState`] folds records into the epoch and
//!   the live leases with no I/O, so the deterministic fault-injection
//!   harness journals into in-memory buffers and replays them under
//!   virtual time exactly as the daemon replays files.

use crate::checksum::fnv1a64;
use simkit::lockrank;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Encoded size of every WAL record.
pub const RECORD_LEN: usize = 40;

/// The journal format this build writes: byte 1 of every `Epoch`
/// record, the first record of every journal. Earlier builds left it
/// zero.
pub const JOURNAL_VERSION: u8 = 2;

/// One durable control-plane fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A recovery epoch began (the first record of every compaction
    /// snapshot, so one per daemon start). It carries the journal's
    /// format version.
    Epoch {
        /// The new epoch (strictly increasing across restarts).
        epoch: u64,
    },
    /// Encode-only: exists solely for the benchmark probe that times
    /// appends and group fsyncs with a fixed-size record. The daemon
    /// journals no pin, and a journal holding this record replays only
    /// up to it (it has no decode arm, no fold and no snapshot row).
    PinAcquire {
        /// Pinning client.
        client: u64,
        /// Pinned key.
        key: u64,
        /// Epoch the pin was taken under.
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
    /// identity retired by its reassert): its lease is void.
    ClientGone {
        /// Departed client.
        client: u64,
        /// Epoch of the departure.
        epoch: u64,
    },
}

const TAG_EPOCH: u8 = 1;
const TAG_PIN_ACQUIRE: u8 = 2;
const TAG_LEASE: u8 = 4;
const TAG_CLIENT_GONE: u8 = 5;

impl WalRecord {
    fn parts(&self) -> (u8, u64, u64, u64) {
        match *self {
            WalRecord::Epoch { epoch } => (TAG_EPOCH, 0, 0, epoch),
            WalRecord::PinAcquire { client, key, epoch } => (TAG_PIN_ACQUIRE, client, key, epoch),
            WalRecord::Lease { client, epoch } => (TAG_LEASE, client, 0, epoch),
            WalRecord::ClientGone { client, epoch } => (TAG_CLIENT_GONE, client, 0, epoch),
        }
    }

    /// The record's epoch field.
    pub fn epoch(&self) -> u64 {
        self.parts().3
    }
}

/// Byte 1 of a record with `tag`: the format version on an `Epoch`,
/// padding on every other record.
fn version_byte(tag: u8) -> u8 {
    if tag == TAG_EPOCH {
        JOURNAL_VERSION
    } else {
        0
    }
}

/// Appends the canonical encoding of `r` to `out`.
pub fn encode_record(r: &WalRecord, out: &mut Vec<u8>) {
    let (tag, client, key, epoch) = r.parts();
    let start = out.len();
    out.extend_from_slice(&[tag, version_byte(tag), 0, 0, 0, 0, 0, 0]);
    out.extend_from_slice(&client.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    let sum = fnv1a64(&out[start..start + 32]);
    out.extend_from_slice(&sum.to_le_bytes());
    debug_assert_eq!(out.len() - start, RECORD_LEN);
}

/// Whether `buf`'s first [`RECORD_LEN`] bytes pass their checksum.
fn sum_ok(buf: &[u8]) -> bool {
    buf.len() >= RECORD_LEN
        && fnv1a64(&buf[..32]) == u64::from_le_bytes(buf[32..40].try_into().unwrap())
}

/// Decodes one record from a [`RECORD_LEN`]-byte buffer; `None` if the
/// checksum, the padding or the tag is invalid (a torn or corrupt
/// record, or one this build does not read).
pub fn decode_record(buf: &[u8]) -> Option<WalRecord> {
    if !sum_ok(buf) || buf[1] != version_byte(buf[0]) || buf[2..8].iter().any(|&b| b != 0) {
        return None;
    }
    let client = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let epoch = u64::from_le_bytes(buf[24..32].try_into().unwrap());
    Some(match buf[0] {
        TAG_EPOCH => WalRecord::Epoch { epoch },
        TAG_LEASE => WalRecord::Lease { client, epoch },
        TAG_CLIENT_GONE => WalRecord::ClientGone { client, epoch },
        _ => return None,
    })
}

/// What [`replay_bytes`] found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Bytes of the longest valid record prefix (the whole file for an
    /// [`earlier`](Self::earlier) journal, which is kept as it is).
    pub valid_bytes: u64,
    /// Records in that prefix.
    pub records: u64,
    /// Whether bytes past the prefix were discarded (torn tail).
    pub truncated: bool,
    /// The bytes are an earlier build's journal: the first record
    /// passes its checksum but is not a current-format `Epoch`.
    pub earlier: bool,
}

/// Decodes the longest valid record prefix of `bytes`. Replay stops at
/// the first record that is short, checksum-corrupt, or has a tag this
/// build does not read — everything before it is trusted, everything
/// after discarded.
///
/// An earlier build's journal is not decoded at all: it replays as one
/// `Epoch` carrying the highest epoch field among its checksum-valid
/// records (bytes 24..32 hold the epoch in every format), with
/// [`ReplayReport::earlier`] set and nothing discarded.
pub fn replay_bytes(bytes: &[u8]) -> (Vec<WalRecord>, ReplayReport) {
    if sum_ok(bytes) && !matches!(decode_record(bytes), Some(WalRecord::Epoch { .. })) {
        let epoch = bytes
            .chunks_exact(RECORD_LEN)
            .filter(|r| sum_ok(r))
            .map(|r| u64::from_le_bytes(r[24..32].try_into().unwrap()))
            .max()
            .unwrap_or(0);
        let report = ReplayReport {
            valid_bytes: bytes.len() as u64,
            records: 1,
            truncated: false,
            earlier: true,
        };
        return (vec![WalRecord::Epoch { epoch }], report);
    }
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
        earlier: false,
    };
    (records, report)
}

/// Pure fold of a record stream into recoverable state: the live
/// leases and the highest epoch seen.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalState {
    /// Highest epoch recorded.
    pub epoch: u64,
    /// Clients holding leases (said hello and not gone).
    pub leases: BTreeSet<u64>,
}

impl WalState {
    /// Applies one record.
    pub fn apply(&mut self, r: &WalRecord) {
        self.epoch = self.epoch.max(r.epoch());
        match *r {
            WalRecord::Lease { client, .. } => {
                self.leases.insert(client);
            }
            WalRecord::ClientGone { client, .. } => {
                self.leases.remove(&client);
            }
            WalRecord::Epoch { .. } | WalRecord::PinAcquire { .. } => {}
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

    /// The minimal record stream reproducing this state under `epoch`
    /// (the compaction snapshot): one epoch record, then the leases.
    pub fn snapshot(&self, epoch: u64) -> Vec<WalRecord> {
        std::iter::once(WalRecord::Epoch { epoch })
            .chain(self.leases.iter().map(|&client| WalRecord::Lease { client, epoch }))
            .collect()
    }
}

/// Compact the log once it grows past this many bytes (checked at sync
/// points; the snapshot is bounded by the live leases, so a busy but
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
    /// records and a report of what was found. An
    /// [`earlier`](ReplayReport::earlier) build's journal is left
    /// byte-identical.
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
            WalRecord::Lease { client: 9, epoch: 3 },
            WalRecord::ClientGone { client: 9, epoch: 3 },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(records.len() * RECORD_LEN);
        for r in records {
            encode_record(r, &mut bytes);
        }
        bytes
    }

    /// One record as builds before [`JOURNAL_VERSION`] encoded it: zero
    /// padding after the tag (1 epoch, 2 pin, 3 release, 4 lease,
    /// 5 departure, 6 takeover pin).
    fn earlier_record(tag: u8, client: u64, key: u64, epoch: u64, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[tag, 0, 0, 0, 0, 0, 0, 0]);
        for field in [client, key, epoch] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        let sum = fnv1a64(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn encode_decode_roundtrip() {
        for r in sample_records() {
            let mut buf = Vec::new();
            encode_record(&r, &mut buf);
            assert_eq!(buf.len(), RECORD_LEN);
            assert_eq!(decode_record(&buf), Some(r));
        }
        let mut buf = Vec::new();
        encode_record(&WalRecord::PinAcquire { client: 1, key: 2, epoch: 3 }, &mut buf);
        assert_eq!(buf.len(), RECORD_LEN);
        assert_eq!(decode_record(&buf), None, "a pin is encode-only");
    }

    #[test]
    fn corrupt_records_rejected() {
        let mut buf = Vec::new();
        encode_record(&WalRecord::Epoch { epoch: 3 }, &mut buf);
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
        assert_eq!(state.leases, BTreeSet::from([7]), "ClientGone voids the lease");
        // A pin folds to nothing, and in a file it is a tag this build
        // does not read: replay stops there.
        let pin = WalRecord::PinAcquire { client: 8, key: 1, epoch: 4 };
        let mut with_pin = sample_records();
        with_pin.insert(2, pin);
        let folded = WalState::replay(&with_pin);
        assert_eq!(folded.leases, BTreeSet::from([7]));
        let (replayed, report) = replay_bytes(&encode_all(&with_pin));
        assert_eq!(replayed, sample_records()[..2]);
        assert!(report.truncated && !report.earlier);
    }

    #[test]
    fn open_append_reopen_replays() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let (mut log, records, report) = WriteAheadLog::open(&path).unwrap();
            assert!(records.is_empty() && !report.truncated);
            log.append_all(&sample_records());
            assert_eq!(log.appended(), 4);
            log.sync().unwrap();
        }
        let (log, records, report) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(records, sample_records());
        assert!(!report.truncated);
        assert_eq!(report.records, 4);
        assert_eq!(log.file_bytes(), 4 * RECORD_LEN as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let mut bytes = encode_all(&sample_records());
        bytes.extend_from_slice(&[0xAB; 17]); // torn partial record
        std::fs::write(&path, &bytes).unwrap();
        let (mut log, records, report) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(records, sample_records());
        assert!(report.truncated);
        assert_eq!(log.file_bytes(), 4 * RECORD_LEN as u64);
        // Appends after truncation land on the clean boundary.
        log.append(&WalRecord::Lease { client: 10, epoch: 3 });
        log.sync().unwrap();
        drop(log);
        let (_, records, report) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(records.len(), 5);
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
        assert_eq!(log.file_bytes(), 2 * RECORD_LEN as u64);
        drop(log);
        let (_, records, report) = WriteAheadLog::open(&path).unwrap();
        assert!(!report.truncated);
        assert_eq!(
            records,
            vec![WalRecord::Epoch { epoch: 4 }, WalRecord::Lease { client: 7, epoch: 4 }]
        );
        let replayed = WalState::replay(&records);
        assert_eq!(replayed.epoch, 4);
        assert_eq!(replayed.leases, BTreeSet::from([7]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_earlier_journal_is_kept_whole_and_replays_as_its_highest_epoch() {
        let path = temp_path("earlier");
        let mut bytes = Vec::new();
        earlier_record(1, 0, 0, 2, &mut bytes);
        earlier_record(4, 7, 0, 2, &mut bytes);
        earlier_record(2, 7, 11, 5, &mut bytes);
        earlier_record(3, 7, 11, 4, &mut bytes);
        bytes.extend_from_slice(&[0xAB; 17]); // a torn tail stays too
        std::fs::write(&path, &bytes).unwrap();
        let (log, records, report) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(records, vec![WalRecord::Epoch { epoch: 5 }]);
        assert!(report.earlier && !report.truncated, "{report:?}");
        assert_eq!(log.file_bytes(), bytes.len() as u64);
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "never truncated");
        let _ = std::fs::remove_file(&path);
    }

    mod torn_tail_props {
        use super::super::*;
        use super::{earlier_record, encode_all, temp_path};
        use proptest::prelude::*;

        /// A current journal: an `Epoch` first, as every compaction
        /// snapshot begins, then anything this build reads.
        fn arb_journal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<WalRecord>> {
            let client = 1u64..4;
            let epoch = 1u64..3;
            let record = prop_oneof![
                (1u64..5).prop_map(|epoch| WalRecord::Epoch { epoch }),
                (client.clone(), epoch.clone())
                    .prop_map(|(client, epoch)| WalRecord::Lease { client, epoch }),
                (client, epoch)
                    .prop_map(|(client, epoch)| WalRecord::ClientGone { client, epoch }),
            ];
            (1u64..5, prop::collection::vec(record, len)).prop_map(|(epoch, rest)| {
                let mut records = vec![WalRecord::Epoch { epoch }];
                records.extend(rest);
                records
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A log truncated at *any* byte boundary replays exactly
            /// the records whose encodings fit whole in the remaining
            /// prefix — no panic, no partial record, no invention.
            #[test]
            fn truncation_recovers_longest_valid_prefix(
                records in arb_journal(0..24),
                cut in any::<prop::sample::Index>(),
            ) {
                let bytes = encode_all(&records);
                let cut = cut.index(bytes.len() + 1);
                let (replayed, report) = replay_bytes(&bytes[..cut]);
                let whole = cut / RECORD_LEN;
                prop_assert_eq!(&replayed[..], &records[..whole]);
                prop_assert_eq!(report.valid_bytes, (whole * RECORD_LEN) as u64);
                prop_assert_eq!(report.truncated, cut % RECORD_LEN != 0);
                prop_assert!(!report.earlier);
            }

            /// Arbitrary single-byte corruption anywhere in the log is
            /// contained: replay never panics and never accepts records
            /// past the corruption point.
            #[test]
            fn corruption_is_contained(
                records in arb_journal(0..15),
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// An earlier build's journal, cut or corrupted anywhere, is
            /// either kept byte-identical (its first record passes the
            /// checksum) and replays as the highest surviving epoch, or
            /// reads as empty because that first record is torn. A
            /// valid earlier first record is never truncated away.
            #[test]
            fn an_earlier_journal_is_kept_untouched_or_read_as_empty(
                rest in prop::collection::vec((2u8..7, 1u64..4, 1u64..9, 1u64..9), 0..12),
                first_epoch in 1u64..9,
                at in any::<prop::sample::Index>(),
                corrupt in any::<bool>(),
                flip in 1u8..=255,
            ) {
                let mut epochs = vec![first_epoch];
                let mut bytes = Vec::new();
                earlier_record(1, 0, 0, first_epoch, &mut bytes);
                for &(tag, client, key, epoch) in &rest {
                    earlier_record(tag, client, key, epoch, &mut bytes);
                    epochs.push(epoch);
                }
                let at = at.index(bytes.len());
                // Cut at `at`, or flip one byte there; either way the
                // record holding `at` no longer counts.
                let (kept, lost) = if corrupt {
                    bytes[at] ^= flip;
                    (epochs.len(), at / RECORD_LEN)
                } else {
                    bytes.truncate(at);
                    (at / RECORD_LEN, usize::MAX)
                };
                let path = temp_path("earlier-prop");
                std::fs::write(&path, &bytes).unwrap();
                let (log, records, report) = WriteAheadLog::open(&path).unwrap();
                drop(log);
                let after = std::fs::read(&path).unwrap();
                let _ = std::fs::remove_file(&path);
                if kept > 0 && lost != 0 {
                    let high = (0..kept).filter(|&i| i != lost).map(|i| epochs[i]).max();
                    prop_assert!(report.earlier, "{:?}", report);
                    prop_assert_eq!(&after, &bytes);
                    prop_assert_eq!(records, vec![WalRecord::Epoch { epoch: high.unwrap() }]);
                } else {
                    prop_assert!(!report.earlier && records.is_empty(), "{:?}", report);
                    prop_assert!(after.is_empty());
                }
            }
        }
    }
}
