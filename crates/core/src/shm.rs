//! The mapped hit path: a same-host session pins resident steps in
//! memory it shares with the daemon, and the socket carries only
//! misses, digest nudges and liveness checks.
//!
//! # What is shared
//!
//! A solo context, durable or not, lays its [`HitIndex`] over one
//! `memfd` ([`ContextTable`]): a header, then one word per key. At hello
//! on the local transport the daemon hands the session two descriptors
//! (`SCM_RIGHTS`, riding the `HelloOk` bytes — on a durable context
//! only once the session's lease is fsynced, see `member.rs`, "The
//! crash rule"):
//!
//! * the **context table**, sealed read-only — every session maps the
//!   same words the daemon's evictions write;
//! * a **session mapping** ([`SessionMap`] on the daemon's side,
//!   [`ClientMap`] on the session's): the session's [`SessionPins`]
//!   region (pin slots, hit counter, reference bits) and the SPSC access
//!   ring a mapped hit appends `(key, epoch)` to. Of the sessions, only
//!   this one writes it; the daemon writes its own header line and
//!   clears the reference bits an eviction consumes.
//!
//! Both sides close the descriptors once they have mapped them (the
//! daemon keeps the table's, to hand to the next session).
//!
//! # The context table
//!
//! | words | content |
//! |---|---|
//! | 0 | magic |
//! | 1 | clock base (the daemon's `CLOCK_MONOTONIC` origin) |
//! | 2 | closed: set by a daemon that shuts down, before it drops its sessions |
//! | 3–7 | reserved |
//! | 8… | one [`HitIndex`] word per key |
//!
//! A slot pin refuses against a closed table, so a session never takes
//! a proof from a daemon that has gone away in order: its open goes to
//! the socket and finds the daemon gone (a daemon killed outright is
//! found by the liveness poll, as before).
//!
//! # Residency proofs
//!
//! A slot pin returns a **proof**: the serial of the mapping it was
//! taken through (unique in the process) and the residency epoch of the
//! key's word. A session's step reader tags each file it opens behind
//! a pin with that proof and, while a later pin proves the same, reads
//! the file without checking it on disk (`simstore::StepReader`). The
//! serial makes a proof worthless against any other mapping: a
//! reconnect trusts no tag of the old one, even where a restarted
//! daemon's table counts epochs from the same start.
//!
//! # The session mapping
//!
//! Word offsets; the daemon's words and the client's sit on different
//! cache lines.
//!
//! | words | writer | content |
//! |---|---|---|
//! | 0–7 | daemon | magic, `parked`, ring tail, ring capacity |
//! | 8–15 | client | ring head, ring records dropped |
//! | 16… | client | [`SessionPins`] region |
//! | ring offset… | client | `capacity` records of (key, epoch) |
//!
//! A ring record's epoch is `CLOCK_MONOTONIC` minus the base the table
//! header publishes — the daemon's own clock origin, so replay compares
//! a mapped hit's ready point with the daemon's production stamps.
//!
//! # Nudges and parking
//!
//! The daemon moves a session's ring into its access log before it
//! handles each socket request of that session, and on the reactor
//! tick. A tick that finds the ring empty *parks* the session: it
//! publishes a fresh `parked` generation, re-checks the ring (the
//! client's head store and the daemon's `parked` store are each
//! followed by a SeqCst load of the other word, so one side sees the
//! other), and stops ticking for it. A client that appends and finds a
//! `parked` generation it has not nudged yet — or its ring past
//! [`DIGEST_HIGH_WATER`] — writes one small frame (an empty
//! `AccessDigest`), which is what wakes the daemon. An idle daemon
//! therefore still parks, and a busy session costs a frame per
//! high-water mark, not per hit.
//!
//! [`HitIndex`]: simcache::HitIndex

use crate::prefetch::{ACCESS_LOG_CAPACITY, DIGEST_HIGH_WATER};
use crate::sys::{self, Mapping};
use simcache::{hitindex, HitIndex, SessionPins, Words};
use std::io;
use std::os::unix::io::OwnedFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Table header words: magic, clock base, closed, then reserved. The
/// keys are the words after it.
const TABLE_HEADER: usize = 8;
const TABLE_MAGIC: u64 = u64::from_le_bytes(*b"SIMFStb1");
const T_MAGIC: usize = 0;
const T_CLOCK_BASE: usize = 1;
const T_CLOSED: usize = 2;

/// Serials of the mappings this process adopted (see "Residency
/// proofs").
static MAPPINGS: AtomicU64 = AtomicU64::new(0);

const SESSION_MAGIC: u64 = u64::from_le_bytes(*b"SIMFSss1");
// Daemon-written line.
const S_MAGIC: usize = 0;
const S_PARKED: usize = 1;
const S_TAIL: usize = 2;
const S_CAPACITY: usize = 3;
// Client-written line.
const S_HEAD: usize = 8;
const S_DROPPED: usize = 9;
/// The pin region starts on its own cache line.
const PINS_AT: usize = 16;

/// Records a session's ring holds: several drains' worth, so a client
/// that outruns the daemon between a nudge and its drain does not drop.
const RING_CAPACITY: usize = 4 * ACCESS_LOG_CAPACITY;

/// A busy mapped session polls its socket once per this many opens (or
/// [`POLL_EVERY`]), so a dead daemon surfaces within a bounded window
/// without a syscall per open.
const POLL_OPENS: u32 = 64;
/// ... or once per this long.
const POLL_EVERY: Duration = Duration::from_millis(20);
/// ... and at the first open after a pause this long, so a daemon that
/// died while the session paused is found before anything is served
/// from its table (one poll per pause: nothing, next to the pause).
const POLL_IDLE: Duration = Duration::from_millis(1);

impl Words for Mapping {
    fn words(&self) -> &[AtomicU64] {
        Mapping::words(self)
    }
}

/// A table's key words: its mapping past the header.
struct Keys(Arc<Mapping>);

impl Words for Keys {
    fn words(&self) -> &[AtomicU64] {
        &self.0.words()[TABLE_HEADER..]
    }
}

/// The daemon's side of one context's shared table.
pub(crate) struct ContextTable {
    map: Arc<Mapping>,
    /// Sealed read-only; every mapped session receives a duplicate.
    fd: OwnedFd,
}

impl ContextTable {
    /// Creates the table for keys `0..=max_key` over a fresh `memfd`,
    /// stamps the header, seals it read-only for everyone but this
    /// mapping, and lays the context's [`HitIndex`] over its words.
    pub(crate) fn create(max_key: u64, clock_base: u64) -> io::Result<(ContextTable, HitIndex)> {
        let words =
            (TABLE_HEADER + max_key as usize + 1).next_multiple_of(simcache::hitindex::PAGE_WORDS);
        let (map, fd) = Mapping::create(c"simfs-hit-table", words)?;
        let header = map.words();
        header[T_CLOCK_BASE].store(clock_base, Ordering::Relaxed);
        header[T_MAGIC].store(TABLE_MAGIC, Ordering::Release);
        sys::seal(&fd, true)?;
        let map = Arc::new(map);
        let index = HitIndex::over(Box::new(Keys(Arc::clone(&map))));
        Ok((ContextTable { map, fd }, index))
    }

    fn keys(&self) -> usize {
        self.map.words().len() - TABLE_HEADER
    }

    /// A duplicate of the descriptor a session maps the table from.
    pub(crate) fn fd(&self) -> io::Result<OwnedFd> {
        self.fd.try_clone()
    }

    /// Marks the table closed: from now on every slot pin against it
    /// refuses. A daemon that shuts down calls this before it drops its
    /// sessions.
    pub(crate) fn close(&self) {
        self.map.words()[T_CLOSED].store(1, Ordering::SeqCst);
    }
}

/// Session-mapping geometry: where the ring starts (on a cache line
/// after the pin region) and the words the mapping spans.
fn layout(keys: usize, capacity: usize) -> (usize, usize) {
    let ring = (PINS_AT + SessionPins::region_words(keys)).next_multiple_of(8);
    (ring, ring + 2 * capacity)
}

/// The daemon's side of one mapped session.
pub(crate) struct SessionMap {
    map: Arc<Mapping>,
    pins: Arc<SessionPins>,
    capacity: u64,
    ring: usize,
    /// The client's drop counter as of the last drain.
    dropped_seen: u64,
    /// The daemon stopped ticking for this session (see the module
    /// docs, "Nudges and parking").
    parked: bool,
    park_gen: u64,
}

impl SessionMap {
    /// Creates a session mapping against `table`, with an access ring
    /// when the context observes digests. Returns the descriptor to
    /// send (sealed against resizing; the client writes it).
    pub(crate) fn create(table: &ContextTable, ring: bool) -> io::Result<(SessionMap, OwnedFd)> {
        let keys = table.keys();
        let capacity = if ring { RING_CAPACITY } else { 0 };
        let (ring_at, words) = layout(keys, capacity);
        let (map, fd) = Mapping::create(c"simfs-session", words)?;
        sys::seal(&fd, false)?;
        let w = map.words();
        w[S_CAPACITY].store(capacity as u64, Ordering::Relaxed);
        w[S_MAGIC].store(SESSION_MAGIC, Ordering::Release);
        let map = Arc::new(map);
        let pins = SessionPins::over(Arc::clone(&map) as Arc<dyn Words>, PINS_AT, keys)
            .ok_or_else(|| io::Error::other("session mapping too small"))?;
        Ok((
            SessionMap {
                map,
                pins: Arc::new(pins),
                capacity: capacity as u64,
                ring: ring_at,
                dropped_seen: 0,
                parked: false,
                park_gen: 0,
            },
            fd,
        ))
    }

    /// The session's pin region, as the context's index attaches it.
    pub(crate) fn pins(&self) -> &Arc<SessionPins> {
        &self.pins
    }

    /// Does this session record accesses (a prefetching context)?
    pub(crate) fn has_ring(&self) -> bool {
        self.capacity > 0
    }

    fn pending(&self) -> u64 {
        let w = self.map.words();
        w[S_HEAD]
            .load(Ordering::SeqCst)
            .wrapping_sub(w[S_TAIL].load(Ordering::Relaxed))
    }

    /// Hands up to `room` ring records, oldest first, to `sink(key,
    /// epoch)` and frees their slots; returns how many. A head the
    /// client moved further than the ring holds is skipped to, unread.
    pub(crate) fn drain_ring(&mut self, room: usize, mut sink: impl FnMut(u64, u64)) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let w = self.map.words();
        let tail = w[S_TAIL].load(Ordering::Relaxed);
        let head = w[S_HEAD].load(Ordering::Acquire);
        let pending = head.wrapping_sub(tail);
        if pending > self.capacity {
            w[S_TAIL].store(head, Ordering::Release);
            return 0;
        }
        let n = pending.min(room as u64);
        for i in 0..n {
            let at = self.ring + 2 * ((tail.wrapping_add(i) % self.capacity) as usize);
            sink(
                w[at].load(Ordering::Relaxed),
                w[at + 1].load(Ordering::Relaxed),
            );
        }
        w[S_TAIL].store(tail.wrapping_add(n), Ordering::Release);
        n as usize
    }

    /// Records the client dropped on a full ring since the last call
    /// (the client writes the counter: at most one ring's worth counts).
    pub(crate) fn take_dropped(&mut self) -> u64 {
        let now = self.map.words()[S_DROPPED].load(Ordering::Relaxed);
        let before = std::mem::replace(&mut self.dropped_seen, now);
        now.saturating_sub(before).min(self.capacity)
    }

    /// Tries to park: `false` (and stays awake) when records arrived
    /// after the last drain.
    pub(crate) fn park(&mut self) -> bool {
        if self.capacity == 0 || self.pending() > 0 {
            return false;
        }
        self.park_gen += 1;
        let parked = &self.map.words()[S_PARKED];
        parked.store(self.park_gen, Ordering::SeqCst);
        if self.pending() > 0 {
            parked.store(0, Ordering::Relaxed);
            return false;
        }
        self.parked = true;
        true
    }

    /// A frame arrived: the daemon is looking at this session again.
    pub(crate) fn unpark(&mut self) {
        if std::mem::take(&mut self.parked) {
            self.map.words()[S_PARKED].store(0, Ordering::Relaxed);
        }
    }

    /// Is the daemon ticking for this session?
    pub(crate) fn awake(&self) -> bool {
        self.capacity > 0 && !self.parked
    }
}

/// The session's side: the context table (read-only) and its own
/// mapping, plus the client-local state of the poll and nudge rules.
pub(crate) struct ClientMap {
    table: Mapping,
    session: Arc<Mapping>,
    pins: SessionPins,
    /// This mapping's serial, the high half of every proof it gives.
    serial: u64,
    clock_base: u64,
    capacity: u64,
    ring: usize,
    opens_since_poll: u32,
    last_poll_ns: u64,
    last_open_ns: u64,
    nudged_park: u64,
    nudged_high: bool,
}

impl ClientMap {
    /// Maps the two descriptors a hello handed over — table, then
    /// session — and checks that they describe each other. `None` when
    /// anything is missing or inconsistent: the session then simply
    /// keeps to the socket. The descriptors are closed either way.
    pub(crate) fn adopt(fds: Vec<OwnedFd>) -> Option<ClientMap> {
        let [table, session] = <[OwnedFd; 2]>::try_from(fds).ok()?;
        let table = Mapping::map(&table, false).ok()?;
        let session = Arc::new(Mapping::map(&session, true).ok()?);
        let t = table.words();
        let s = session.words();
        let load = |w: &[AtomicU64], i: usize| w.get(i).map(|w| w.load(Ordering::Relaxed));
        if load(t, T_MAGIC)? != TABLE_MAGIC || load(s, S_MAGIC)? != SESSION_MAGIC {
            return None;
        }
        let keys = t.len().checked_sub(TABLE_HEADER)?;
        let capacity = load(s, S_CAPACITY)?;
        if capacity > s.len() as u64 {
            return None;
        }
        let (ring_at, words) = layout(keys, capacity as usize);
        if s.len() < words {
            return None;
        }
        let pins = SessionPins::over(Arc::clone(&session) as Arc<dyn Words>, PINS_AT, keys)?;
        let clock_base = load(t, T_CLOCK_BASE)?;
        Some(ClientMap {
            table,
            session,
            pins,
            serial: MAPPINGS.fetch_add(1, Ordering::Relaxed) + 1,
            clock_base,
            capacity,
            ring: ring_at,
            opens_since_poll: 0,
            last_poll_ns: sys::monotonic_ns(),
            last_open_ns: sys::monotonic_ns(),
            nudged_park: 0,
            nudged_high: false,
        })
    }

    /// Counts one open; `true` when the socket is due its liveness poll.
    pub(crate) fn poll_due(&mut self, now_ns: u64) -> bool {
        self.opens_since_poll += 1;
        let idle = now_ns.saturating_sub(self.last_open_ns) >= POLL_IDLE.as_nanos() as u64;
        self.last_open_ns = now_ns;
        let due = idle
            || self.opens_since_poll >= POLL_OPENS
            || now_ns.saturating_sub(self.last_poll_ns) >= POLL_EVERY.as_nanos() as u64;
        if due {
            self.opens_since_poll = 0;
            self.last_poll_ns = now_ns;
        }
        due
    }

    /// `now_ns` on the daemon's clock.
    pub(crate) fn epoch(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.clock_base)
    }

    /// The table's key words, unless the daemon closed it.
    fn keys(&self) -> Option<&[AtomicU64]> {
        let table = self.table.words();
        (table[T_CLOSED].load(Ordering::Acquire) == 0).then(|| &table[TABLE_HEADER..])
    }

    /// Pins `key` through a slot if the table is open and shows it
    /// resident, and returns the pin's proof (module docs, "Residency
    /// proofs").
    pub(crate) fn pin(&self, key: u64) -> Option<u64> {
        let epoch = self.pins.pin(self.keys()?, key)?;
        Some(self.proof(epoch))
    }

    /// The proof a pin of `key` would carry now; `None` when the key is
    /// not resident or the table is closed.
    pub(crate) fn proof_of(&self, key: u64) -> Option<u64> {
        hitindex::resident_epoch(self.keys()?, key).map(|epoch| self.proof(epoch))
    }

    fn proof(&self, epoch: u32) -> u64 {
        self.serial << 32 | u64::from(epoch)
    }

    /// Drops one slot pin of `key`; `false` if no slot holds it.
    pub(crate) fn unpin(&self, key: u64) -> bool {
        self.pins.unpin(key)
    }

    /// Appends a hit to the ring (drops it, counted, when the ring is
    /// full). Returns whether the session records at all.
    pub(crate) fn record(&mut self, key: u64, epoch: u64) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let w = self.session.words();
        let head = w[S_HEAD].load(Ordering::Relaxed);
        if head.wrapping_sub(w[S_TAIL].load(Ordering::Acquire)) >= self.capacity {
            let dropped = &w[S_DROPPED];
            dropped.store(
                dropped.load(Ordering::Relaxed).wrapping_add(1),
                Ordering::Relaxed,
            );
            return true;
        }
        let at = self.ring + 2 * ((head % self.capacity) as usize);
        w[at].store(key, Ordering::Relaxed);
        w[at + 1].store(epoch, Ordering::Relaxed);
        // SeqCst: the daemon's park reads the head after publishing
        // `parked`; `wants_nudge` reads `parked` after this store.
        w[S_HEAD].store(head.wrapping_add(1), Ordering::SeqCst);
        true
    }

    /// After recording: does the daemon need a frame to look at the
    /// ring — it parked since the last nudge, or the ring passed the
    /// high-water mark since the last one?
    pub(crate) fn wants_nudge(&mut self) -> bool {
        let w = self.session.words();
        let parked = w[S_PARKED].load(Ordering::SeqCst);
        let fill = w[S_HEAD]
            .load(Ordering::Relaxed)
            .wrapping_sub(w[S_TAIL].load(Ordering::Acquire));
        let high = fill >= DIGEST_HIGH_WATER as u64;
        let nudge = (high && !self.nudged_high) || (parked != 0 && parked != self.nudged_park);
        self.nudged_high = high;
        if parked != 0 {
            self.nudged_park = parked;
        }
        nudge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session mapped against `table`, its slots attached to `index`.
    fn mapped(table: &ContextTable, index: &HitIndex) -> ClientMap {
        let (session, fd) = SessionMap::create(table, false).unwrap();
        index.attach(Arc::clone(session.pins()));
        ClientMap::adopt(vec![table.fd().unwrap(), fd]).unwrap()
    }

    #[test]
    fn a_slot_pin_proves_its_mapping_and_epoch_and_a_closed_table_refuses() {
        let (table, index) = ContextTable::create(16, 0).unwrap();
        let (a, b) = (mapped(&table, &index), mapped(&table, &index));
        assert_eq!(a.pin(5), None, "not resident");
        index.publish(5);
        let proof = a.pin(5).unwrap();
        assert_eq!(a.proof_of(5), Some(proof));
        assert_eq!(a.proof_of(6), None);
        // The same word through another mapping proves something else.
        assert_ne!(b.pin(5), Some(proof));
        assert!(b.unpin(5));
        // An in-place refresh moves the proof under the held pin.
        index.refresh(5);
        let moved = a.pin(5).unwrap();
        assert_ne!(moved, proof);
        assert!(a.unpin(5) && a.unpin(5));
        // Shut down: no pin, nested or new, and no proof.
        index.publish(6);
        assert!(a.pin(6).is_some());
        table.close();
        assert_eq!(a.pin(5), None);
        assert_eq!(a.pin(6), None, "a held key refuses too");
        assert_eq!(a.proof_of(5), None);
        assert!(!a.unpin(5), "the refused pins took no slot");
    }
}
