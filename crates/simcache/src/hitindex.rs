//! [`HitIndex`]: the resident-key table every lock-free hit path pins
//! against.
//!
//! The Data Virtualizer's hot path — an acquire of an already
//! materialized output step — is a pure read of cache membership plus a
//! reference, yet a mutex-guarded [`CacheSim`] makes it pay the same
//! exclusive lock as a miss that mutates LRU state and launches a
//! re-simulation. The `HitIndex` is a replica of the cache's
//! *membership* that hit paths consult instead of taking the DV lock.
//!
//! # The table
//!
//! Keys are dense output-step indices, so the table is flat: one
//! `AtomicU64` word per key, laid over memory its owner provides
//! ([`Words`] — the heap in tests and harnesses, a shared mapping in
//! the daemon, which same-host sessions map read-only). A word holds
//!
//! * `RESIDENT` — the key is materialized;
//! * `RETIRING` — an eviction is deciding whether it may go;
//! * `HOT` — the CLOCK reference bit of the daemon-side pins;
//! * the **residency epoch** (bits 32–60): which production of the key
//!   is resident. [`publish`](HitIndex::publish) of a non-resident key
//!   and [`refresh`](HitIndex::refresh) of a resident one (its file
//!   replaced in place by an overlapping production) advance it,
//!   wrapping at 2^29; a retired word keeps its epoch bits, so a
//!   re-publish always moves them;
//! * the count of daemon-side pins (low 32 bits).
//!
//! # Two kinds of pin
//!
//! * **Daemon-side fast pin** ([`try_hit_pin`](HitIndex::try_hit_pin) /
//!   [`unpin`](HitIndex::unpin)): a CAS that bumps the word's count and
//!   sets `HOT`, refused while the word is retiring. The daemon serves
//!   every session it cannot hand a mapping to this way.
//! * **Session slot pin** ([`SessionPins::pin`]): a session that maps
//!   the table writes `(key, count)` into one of its *own* slots, then
//!   loads the key's word, and proceeds only if the word is resident and
//!   not retiring — otherwise it clears the slot and asks the daemon.
//!   It never writes the table: no client ever bumps a shared count, so
//!   a session killed at any instruction strands nothing, and dropping
//!   its slots ([`detach`](HitIndex::detach)) is its whole reclaim. A
//!   slot pin returns the epoch of the word it pinned against: while
//!   the epoch is unchanged, the file the session opened under that
//!   epoch (or later) is still the key's resident production.
//!
//! # Eviction
//!
//! The cache owner (holding its own lock) calls
//! [`try_retire`](HitIndex::try_retire) on each victim: a word with
//! daemon-side pins vetoes at once, a set `HOT` bit buys one second
//! chance. Otherwise the word is marked `RETIRING` (SeqCst), and the
//! slots of every attached session are scanned: a slot holding the key
//! vetoes (`Pinned`), a session reference bit buys the second chance
//! (`Hot`), and only a clean scan retires the word. The slot store and
//! the word load of a pinner, and the retiring mark and the slot scan of
//! the retirer, are each separated by a SeqCst fence — the classic
//! store-then-load handshake — so at least one side sees the other: the
//! retirer sees the slot, or the pinner sees `RETIRING` and falls back.
//! A pin is therefore eviction-visible before it is used. The scan
//! reads one cache line of slots per attached session; an idle
//! session's line stays in the retirer's cache, so the cost tracks the
//! sessions that actually pin.
//!
//! Membership writes ([`publish`](HitIndex::publish), `try_retire`,
//! [`withdraw`](HitIndex::withdraw)) are the cache owner's job and are
//! assumed to be serialized by the owner's own lock; the index adds
//! concurrent *pinners*, not a second writer. `refresh` and the end of
//! `try_retire` are read-modify-writes that keep every bit they do not
//! own, so an epoch advance is never lost, even to a racing retirement.
//!
//! [`CacheSim`]: crate::CacheSim

use simkit::lockrank;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Outcome of [`HitIndex::try_retire`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retire {
    /// The key was removed from the index; the caller may evict it.
    Retired,
    /// The key holds live pins; eviction must pick another victim.
    Pinned,
    /// The key's reference bit was set (a hit landed since the last
    /// eviction decision); the bit is now cleared and the key stays —
    /// treat it as freshly used.
    Hot,
    /// The key was not in the index (the caller never published it).
    Absent,
}

/// Memory a table or a session's pin region lives in: a slice of
/// atomic words that stays put for the owner's lifetime.
pub trait Words: Send + Sync {
    /// The words.
    fn words(&self) -> &[AtomicU64];
}

impl Words for Box<[AtomicU64]> {
    fn words(&self) -> &[AtomicU64] {
        self
    }
}

/// Words per 4 KiB page. Tables are sized in whole pages whatever backs
/// them, so a heap table holds exactly the keys a mapped one would.
pub const PAGE_WORDS: usize = 512;

const RESIDENT: u64 = 1 << 63;
const RETIRING: u64 = 1 << 62;
const HOT: u64 = 1 << 61;
const EPOCH_SHIFT: u32 = 32;
/// Residency epoch: bits 32–60, wrapping at 2^29.
const EPOCH: u64 = ((1 << 29) - 1) << EPOCH_SHIFT;
const COUNT: u64 = u32::MAX as u64;

/// `w`'s epoch bits advanced by one (wrapping within the field).
fn next_epoch(w: u64) -> u64 {
    (w & EPOCH).wrapping_add(1 << EPOCH_SHIFT) & EPOCH
}

fn epoch_of(w: u64) -> u32 {
    ((w & EPOCH) >> EPOCH_SHIFT) as u32
}

/// The residency epoch of `key` in `table` (a table's words, as
/// [`SessionPins::pin`] reads them), if the key is resident. Only a
/// relaxed load: a mapped session's view of the table is read-only.
pub fn resident_epoch(table: &[AtomicU64], key: u64) -> Option<u32> {
    let w = table.get(usize::try_from(key).ok()?)?.load(Ordering::Relaxed);
    (w & RESIDENT != 0).then(|| epoch_of(w))
}

fn heap_words(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// The attached sessions, and the hits of those already gone.
#[derive(Default)]
struct Sessions {
    live: Vec<Arc<SessionPins>>,
    departed_hits: u64,
}

/// The flat resident-key table plus the registry of sessions that pin
/// against it through their own slots.
pub struct HitIndex {
    mem: Box<dyn Words>,
    sessions: Mutex<Sessions>,
    /// Daemon-side pins served entirely through the table.
    fast_hits: AtomicU64,
    /// Daemon-side pins refused because an eviction of their own key
    /// was in progress (the word was retiring).
    race_fallbacks: AtomicU64,
}

impl HitIndex {
    /// A heap-backed table for keys `0..=max_key` (rounded up to whole
    /// pages, see [`PAGE_WORDS`]).
    pub fn new(max_key: usize) -> HitIndex {
        let words = (max_key + 1).next_multiple_of(PAGE_WORDS);
        HitIndex::over(Box::new(heap_words(words)))
    }

    /// A table laid over `mem`: word `k` is key `k`'s. The words must
    /// start zeroed (nothing resident).
    pub fn over(mem: Box<dyn Words>) -> HitIndex {
        HitIndex {
            mem,
            sessions: Mutex::new(Sessions::default()),
            fast_hits: AtomicU64::new(0),
            race_fallbacks: AtomicU64::new(0),
        }
    }

    /// The table's words, for a session pinning in-process
    /// ([`SessionPins::pin`]); a mapped session reads the same words
    /// through its own read-only mapping.
    pub fn words(&self) -> &[AtomicU64] {
        self.mem.words()
    }

    /// Keys the table covers (`0..keys()`); others are never indexed.
    pub fn keys(&self) -> usize {
        self.words().len()
    }

    fn word(&self, key: u64) -> Option<&AtomicU64> {
        self.words().get(usize::try_from(key).ok()?)
    }

    /// Registers `key` as resident (no pins, reference bit clear) under
    /// a new residency epoch. Idempotent: re-publishing a resident key
    /// resets nothing. A key outside the table is not indexed — its hits
    /// take the locked path.
    pub fn publish(&self, key: u64) {
        if let Some(word) = self.word(key) {
            // No pinner writes a non-resident word.
            let w = word.load(Ordering::Relaxed);
            if w & RESIDENT == 0 {
                word.store(RESIDENT | next_epoch(w), Ordering::Release);
            }
        }
    }

    /// Advances resident `key`'s epoch in place: its file was replaced
    /// (a rename-over by an overlapping production) while it stayed
    /// resident. Pins, `HOT` and `RETIRING` are kept; a key that is not
    /// resident is left alone (`false`).
    pub fn refresh(&self, key: u64) -> bool {
        self.word(key).is_some_and(|word| {
            word.fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (w & RESIDENT != 0).then(|| (w & !EPOCH) | next_epoch(w))
            })
            .is_ok()
        })
    }

    /// Is `key` resident right now? (Diagnostics and tests.)
    pub fn is_resident(&self, key: u64) -> bool {
        self.word(key)
            .is_some_and(|w| w.load(Ordering::Acquire) & RESIDENT != 0)
    }

    /// Serves a hit on the daemon's side: if `key` is resident and not
    /// retiring, counts a pin on its word, sets its reference bit and
    /// returns `true`. A refusal because an eviction of `key` itself is
    /// deciding counts a race fallback.
    pub fn try_hit_pin(&self, key: u64) -> bool {
        let Some(word) = self.word(key) else {
            return false;
        };
        let mut w = word.load(Ordering::Acquire);
        loop {
            if w & RESIDENT == 0 {
                return false;
            }
            if w & RETIRING != 0 {
                self.race_fallbacks.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            // A word is only marked retiring with no daemon-side pins,
            // and this CAS fails once it is: the pin is eviction-visible
            // before the caller replies to its client.
            match word.compare_exchange_weak(w, (w + 1) | HOT, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.fast_hits.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(now) => w = now,
            }
        }
    }

    /// Releases `n` daemon-side pins of `key`. The caller must hold them
    /// (pins block retirement, so the word is still resident).
    pub fn unpin(&self, key: u64, n: u32) {
        let Some(word) = self.word(key) else {
            debug_assert!(false, "unpin of unindexed key {key}");
            return;
        };
        let before = word.fetch_sub(u64::from(n), Ordering::AcqRel);
        debug_assert!(
            before & COUNT >= u64::from(n),
            "fast-pin underflow on key {key}"
        );
    }

    /// Is `key` pinned — on the daemon's side or in an attached
    /// session's slot? Possibly stale by the time it returns: use as an
    /// eviction pre-filter; [`try_retire`](Self::try_retire) is the
    /// authoritative gate.
    pub fn is_pinned(&self, key: u64) -> bool {
        self.word(key)
            .is_some_and(|w| w.load(Ordering::Acquire) & COUNT != 0)
            || {
                let _rank = lockrank::held(lockrank::PIN_SLOTS);
                let sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
                sessions.live.iter().any(|s| s.pinned(key))
            }
    }

    /// Attempts to retire `key` ahead of an eviction. See [`Retire`] and
    /// the module docs ("Eviction").
    pub fn try_retire(&self, key: u64) -> Retire {
        let Some(word) = self.word(key) else {
            return Retire::Absent;
        };
        let mut w = word.load(Ordering::Acquire);
        loop {
            if w & RESIDENT == 0 {
                return Retire::Absent;
            }
            if w & COUNT != 0 {
                return Retire::Pinned;
            }
            let (next, verdict) = if w & HOT != 0 {
                (w & !HOT, Some(Retire::Hot))
            } else {
                (w | RETIRING, None)
            };
            match word.compare_exchange(w, next, Ordering::SeqCst, Ordering::Acquire) {
                Ok(_) => match verdict {
                    Some(hot) => return hot,
                    None => break,
                },
                Err(now) => w = now,
            }
        }
        // The word is retiring: from here on no pinner proceeds, and a
        // slot stored before the mark is visible to the scan below.
        fence(Ordering::SeqCst);
        let verdict = {
            let _rank = lockrank::held(lockrank::PIN_SLOTS);
            let sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
            if sessions.live.iter().any(|s| s.pinned(key)) {
                Retire::Pinned
            } else if sessions
                .live
                .iter()
                .fold(false, |hot, s| s.take_ref(key) | hot)
            {
                Retire::Hot
            } else {
                Retire::Retired
            }
        };
        // Daemon-side pinners back off a retiring word; only a refresh
        // may still move its epoch, which both outcomes keep.
        if verdict == Retire::Retired {
            word.fetch_and(EPOCH, Ordering::Release);
        } else {
            word.fetch_and(!RETIRING, Ordering::Release);
        }
        verdict
    }

    /// Removes `key` unconditionally (teardown path): pins are *not*
    /// honoured. The owner must have quiesced hit-path traffic. The
    /// epoch bits stay, as on a retirement.
    pub fn withdraw(&self, key: u64) {
        if let Some(word) = self.word(key) {
            word.fetch_and(EPOCH, Ordering::Release);
        }
    }

    /// Registers a session's slots: from now on they veto evictions of
    /// the keys they hold.
    pub fn attach(&self, pins: Arc<SessionPins>) {
        let _rank = lockrank::held(lockrank::PIN_SLOTS);
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .live
            .push(pins);
    }

    /// Drops a session's slots (its hangup): whatever they held stops
    /// vetoing, and its hit count moves to the departed total. Other
    /// sessions' slots are untouched.
    pub fn detach(&self, pins: &Arc<SessionPins>) {
        let _rank = lockrank::held(lockrank::PIN_SLOTS);
        let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(at) = sessions.live.iter().position(|s| Arc::ptr_eq(s, pins)) {
            let gone = sessions.live.swap_remove(at);
            sessions.departed_hits = sessions.departed_hits.saturating_add(gone.hits());
        }
    }

    /// Daemon-side pins served entirely through the table.
    pub fn fast_hits(&self) -> u64 {
        self.fast_hits.load(Ordering::Relaxed)
    }

    /// Slot pins of every session, live and departed — hits the
    /// sessions served themselves.
    pub fn shared_hits(&self) -> u64 {
        let _rank = lockrank::held(lockrank::PIN_SLOTS);
        let sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        // Saturating: each count is written by a client.
        sessions
            .live
            .iter()
            .fold(sessions.departed_hits, |all, s| all.saturating_add(s.hits()))
    }

    /// Daemon-side pins refused because their key was retiring.
    pub fn race_fallbacks(&self) -> u64 {
        self.race_fallbacks.load(Ordering::Relaxed)
    }
}

/// Slot word: key in the high 48 bits, pin count in the low 16; zero is
/// an empty slot.
const SLOT_KEY_SHIFT: u32 = 16;
const SLOT_COUNT: u64 = (1 << SLOT_KEY_SHIFT) - 1;
/// Region offsets: the slots fill one cache line (what a retirer reads
/// per session), the hit counter sits on the next, the reference bits
/// start on the line after.
const HITS: usize = SessionPins::SLOTS;
const REFS: usize = 2 * SessionPins::SLOTS;

/// One session's pin region: its slots, its hit counter and its CLOCK
/// reference bits (one per key). The session is the only writer, apart
/// from a retirer clearing reference bits it consumed.
pub struct SessionPins {
    mem: Arc<dyn Words>,
    base: usize,
    keys: usize,
}

impl SessionPins {
    /// Pin slots per session: distinct keys one session may hold
    /// through its slots at once (more go through the daemon).
    pub const SLOTS: usize = 8;

    /// Words a region for a table of `keys` keys occupies.
    pub fn region_words(keys: usize) -> usize {
        REFS + keys.div_ceil(64)
    }

    /// A heap-backed region for a table of `keys` keys.
    pub fn heap(keys: usize) -> SessionPins {
        let mem: Arc<dyn Words> = Arc::new(heap_words(Self::region_words(keys)));
        SessionPins { mem, base: 0, keys }
    }

    /// The region at word `base` of `mem`, for a table of `keys` keys;
    /// `None` when it does not fit.
    pub fn over(mem: Arc<dyn Words>, base: usize, keys: usize) -> Option<SessionPins> {
        let end = base.checked_add(Self::region_words(keys))?;
        (end <= mem.words().len()).then_some(SessionPins { mem, base, keys })
    }

    fn region(&self) -> &[AtomicU64] {
        &self.mem.words()[self.base..self.base + Self::region_words(self.keys)]
    }

    /// Pins `key` through one of this session's slots against `table`
    /// (see the module docs, "Two kinds of pin") and returns the
    /// residency epoch of the word it pinned against. `None` means take
    /// the daemon's path: the key is not resident, is being retired,
    /// lies outside the table, or every slot is busy. Only relaxed loads
    /// touch `table` — a mapped session's view of it is read-only.
    pub fn pin(&self, table: &[AtomicU64], key: u64) -> Option<u32> {
        let index = usize::try_from(key).ok()?;
        let word = table.get(index).filter(|_| index < self.keys)?;
        let region = self.region();
        let slots = &region[..Self::SLOTS];
        let mut free = None;
        for slot in slots {
            let v = slot.load(Ordering::Relaxed);
            if v != 0 && v >> SLOT_KEY_SHIFT == key && v & SLOT_COUNT < SLOT_COUNT {
                // Already held: that pin keeps the key resident, so one
                // more count needs no check of the word — only its epoch,
                // which an in-place refresh may have moved.
                slot.store(v + 1, Ordering::Relaxed);
                self.count_hit(region, index);
                return Some(epoch_of(word.load(Ordering::Relaxed)));
            }
            if v == 0 && free.is_none() {
                free = Some(slot);
            }
        }
        let slot = free?;
        slot.store(key << SLOT_KEY_SHIFT | 1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let w = word.load(Ordering::Relaxed);
        if w & (RESIDENT | RETIRING) != RESIDENT {
            slot.store(0, Ordering::Release);
            return None;
        }
        self.count_hit(region, index);
        Some(epoch_of(w))
    }

    fn count_hit(&self, region: &[AtomicU64], key: usize) {
        let hits = &region[HITS];
        hits.store(
            hits.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
        let (refs, bit) = (&region[REFS + key / 64], 1u64 << (key % 64));
        if refs.load(Ordering::Relaxed) & bit == 0 {
            refs.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Drops one slot pin of `key`; `false` if no slot holds it.
    pub fn unpin(&self, key: u64) -> bool {
        for slot in &self.region()[..Self::SLOTS] {
            let v = slot.load(Ordering::Relaxed);
            if v != 0 && v >> SLOT_KEY_SHIFT == key {
                slot.store(
                    if v & SLOT_COUNT == 1 { 0 } else { v - 1 },
                    Ordering::Release,
                );
                return true;
            }
        }
        false
    }

    /// Does a slot hold `key`?
    pub fn pinned(&self, key: u64) -> bool {
        self.region()[..Self::SLOTS].iter().any(|slot| {
            let v = slot.load(Ordering::Relaxed);
            v != 0 && v >> SLOT_KEY_SHIFT == key
        })
    }

    /// Slot pins this session has taken.
    pub fn hits(&self) -> u64 {
        self.region()[HITS].load(Ordering::Relaxed)
    }

    /// Consumes `key`'s reference bit (a retirer's second chance).
    fn take_ref(&self, key: u64) -> bool {
        let Some(index) = usize::try_from(key).ok().filter(|&k| k < self.keys) else {
            return false;
        };
        let (refs, bit) = (&self.region()[REFS + index / 64], 1u64 << (index % 64));
        refs.load(Ordering::Relaxed) & bit != 0
            && refs.fetch_and(!bit, Ordering::Relaxed) & bit != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn publish_pin_retire_cycle() {
        let idx = HitIndex::new(8);
        assert!(!idx.try_hit_pin(7), "nothing published yet");
        idx.publish(7);
        assert!(idx.try_hit_pin(7));
        assert!(idx.is_pinned(7));
        assert_eq!(idx.try_retire(7), Retire::Pinned);
        idx.unpin(7, 1);
        // The hit set the reference bit: first retirement attempt gives
        // a second chance, the next one retires.
        assert_eq!(idx.try_retire(7), Retire::Hot);
        assert_eq!(idx.try_retire(7), Retire::Retired);
        assert_eq!(idx.try_retire(7), Retire::Absent);
        assert!(!idx.try_hit_pin(7));
        // Keys past the table are never indexed: their hits go locked.
        let beyond = idx.keys() as u64;
        idx.publish(beyond);
        assert!(!idx.try_hit_pin(beyond));
        assert_eq!(idx.try_retire(beyond), Retire::Absent);
    }

    #[test]
    fn nested_pins_block_retirement_until_all_released() {
        let idx = HitIndex::new(4);
        idx.publish(3);
        assert!(idx.try_hit_pin(3));
        assert!(idx.try_hit_pin(3));
        idx.unpin(3, 1);
        assert_eq!(idx.try_retire(3), Retire::Pinned);
        idx.unpin(3, 1);
        assert_eq!(idx.try_retire(3), Retire::Hot);
        assert_eq!(idx.try_retire(3), Retire::Retired);
    }

    #[test]
    fn retirement_race_is_counted_as_fallback() {
        let idx = HitIndex::new(4);
        idx.publish(1);
        idx.publish(2);
        assert_eq!(idx.try_retire(1), Retire::Retired);
        // A fallback is a pin that finds its own key retiring — not
        // observable single-threaded (the concurrent test below sees
        // them). The other half: misses on absent or retired keys with
        // no retirement in flight count nothing.
        let before = idx.race_fallbacks();
        assert!(!idx.try_hit_pin(99));
        assert!(!idx.try_hit_pin(1));
        assert_eq!(idx.race_fallbacks(), before);
    }

    #[test]
    fn slot_pins_veto_retirement_and_hangup_drops_only_that_sessions_slots() {
        let idx = HitIndex::new(8);
        let (a, b) = (
            Arc::new(SessionPins::heap(idx.keys())),
            Arc::new(SessionPins::heap(idx.keys())),
        );
        idx.attach(Arc::clone(&a));
        idx.attach(Arc::clone(&b));
        assert!(a.pin(idx.words(), 5).is_none(), "not resident yet");
        assert!(!a.pinned(5), "a refused pin leaves its slot empty");
        idx.publish(5);
        idx.publish(6);
        assert!(a.pin(idx.words(), 5).is_some());
        assert!(a.pin(idx.words(), 5).is_some(), "nested");
        assert!(b.pin(idx.words(), 6).is_some());
        assert!(idx.is_pinned(5) && idx.is_pinned(6));
        assert_eq!(idx.try_retire(5), Retire::Pinned);
        assert!(
            idx.is_resident(5),
            "a vetoed retirement leaves the key resident"
        );
        // Session A dies holding 5: its hangup is the whole reclaim, and
        // its reference bits leave with it.
        idx.detach(&a);
        assert!(!idx.is_pinned(5));
        assert_eq!(idx.try_retire(5), Retire::Retired);
        // B's pin survived A's reclaim.
        assert_eq!(idx.try_retire(6), Retire::Pinned);
        assert!(b.unpin(6));
        assert!(!b.unpin(6), "one slot pin, one release");
        // B's reference bit buys 6 one second chance, then it goes.
        assert_eq!(idx.try_retire(6), Retire::Hot);
        assert_eq!(idx.try_retire(6), Retire::Retired);
        assert!(b.pin(idx.words(), 6).is_none(), "retired");
        // Hits: A's two and B's one, whether A is live or departed.
        assert_eq!(idx.shared_hits(), 3);
        assert_eq!(idx.fast_hits(), 0);
    }

    #[test]
    fn full_slots_fall_back_and_foreign_keys_never_pin() {
        let idx = HitIndex::new(64);
        let pins = SessionPins::heap(idx.keys());
        for key in 1..=SessionPins::SLOTS as u64 + 1 {
            idx.publish(key);
        }
        for key in 1..=SessionPins::SLOTS as u64 {
            assert!(pins.pin(idx.words(), key).is_some());
        }
        assert!(
            pins.pin(idx.words(), SessionPins::SLOTS as u64 + 1).is_none(),
            "no free slot"
        );
        assert!(pins.pin(idx.words(), 1).is_some(), "a held key still nests");
        assert!(
            pins.pin(idx.words(), idx.keys() as u64).is_none(),
            "outside the table"
        );
        assert!(pins.pin(idx.words(), u64::MAX).is_none());
        // A region must fit the memory it is laid over.
        let mem: Arc<dyn Words> = Arc::new(heap_words(SessionPins::region_words(64)));
        assert!(SessionPins::over(Arc::clone(&mem), 0, 64).is_some());
        assert!(SessionPins::over(mem, 1, 64).is_none());
    }

    #[test]
    fn concurrent_pinners_and_retirer_never_strand_a_pin() {
        // Daemon-side pinners (word counts) and mapped-session pinners
        // (slot protocol) hammer a few keys while a retirer evicts and
        // revives them, and a refresher advances their epochs in place.
        // Properties:
        // * a key with a successful pin is never `Retired` while held —
        //   each key's retirement generation does not move across a
        //   hold, and the word stays resident;
        // * every pin lands on a resident word or falls back;
        // * no epoch advance is lost: each key's epoch is its publishes
        //   plus its refreshes;
        // * at the end every slot is empty and every word consistent.
        const KEYS: u64 = 3;
        const ROUNDS: u64 = 100_000;
        let idx = Arc::new(HitIndex::new(8));
        let generations: Arc<Vec<AtomicU64>> =
            Arc::new((0..=KEYS).map(|_| AtomicU64::new(0)).collect());
        for key in 1..=KEYS {
            idx.publish(key);
        }
        let stop = Arc::new(AtomicBool::new(false));
        // Every thread starts its loop together: spawned one by one, a
        // fast pinner could finish before the retirer begins.
        let start = Arc::new(std::sync::Barrier::new(6));
        let hold = |idx: &HitIndex, gens: &[AtomicU64], key: u64| {
            let gen = gens[key as usize].load(Ordering::SeqCst);
            assert!(idx.is_resident(key), "pinned key {key} is not resident");
            for _ in 0..8 {
                std::hint::spin_loop();
            }
            assert!(idx.is_resident(key), "pinned key {key} left residency");
            assert_eq!(
                gens[key as usize].load(Ordering::SeqCst),
                gen,
                "key {key} was retired while pinned"
            );
        };
        let mut pinners = Vec::new();
        let mut sessions = Vec::new();
        for t in 0..4u64 {
            let (idx, gens, start) =
                (Arc::clone(&idx), Arc::clone(&generations), Arc::clone(&start));
            let pins = Arc::new(SessionPins::heap(idx.keys()));
            if t % 2 == 1 {
                idx.attach(Arc::clone(&pins));
                sessions.push(Arc::clone(&pins));
            }
            pinners.push(std::thread::spawn(move || {
                start.wait();
                let (mut landed, mut fell_back) = (0u64, 0u64);
                for i in 0..ROUNDS {
                    let key = 1 + (i + t) % KEYS;
                    let pinned = if t % 2 == 1 {
                        pins.pin(idx.words(), key).is_some()
                    } else {
                        idx.try_hit_pin(key)
                    };
                    if !pinned {
                        fell_back += 1;
                        continue;
                    }
                    landed += 1;
                    hold(&idx, &gens, key);
                    if t % 2 == 1 {
                        assert!(pins.unpin(key));
                    } else {
                        idx.unpin(key, 1);
                    }
                }
                assert_eq!(landed + fell_back, ROUNDS);
                landed
            }));
        }
        let retirer = {
            let (idx, gens, stop, start) = (
                Arc::clone(&idx),
                Arc::clone(&generations),
                Arc::clone(&stop),
                Arc::clone(&start),
            );
            std::thread::spawn(move || {
                start.wait();
                let mut retired = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for key in 1..=KEYS {
                        if idx.try_retire(key) == Retire::Retired {
                            retired += 1;
                            gens[key as usize].fetch_add(1, Ordering::SeqCst);
                            idx.publish(key); // revive so pinners keep racing
                        }
                    }
                }
                retired
            })
        };
        let refresher = {
            let (idx, stop) = (Arc::clone(&idx), Arc::clone(&stop));
            std::thread::spawn(move || {
                start.wait();
                let mut refreshed = [0u64; KEYS as usize + 1];
                while !stop.load(Ordering::Relaxed) {
                    for key in 1..=KEYS {
                        if idx.refresh(key) {
                            refreshed[key as usize] += 1;
                        }
                    }
                }
                refreshed
            })
        };
        let landed: u64 = pinners.into_iter().map(|h| h.join().unwrap()).sum();
        stop.store(true, Ordering::Relaxed);
        let retired = retirer.join().unwrap();
        let refreshed = refresher.join().unwrap();
        assert!(
            landed > 0 && retired > 0,
            "no race: {landed} pins, {retired} retirements"
        );
        assert_eq!(idx.fast_hits() + idx.shared_hits(), landed);
        for pins in &sessions {
            for key in 0..=KEYS {
                assert!(!pins.pinned(key), "slot still holds {key}");
            }
        }
        for key in 1..=KEYS {
            assert!(!idx.is_pinned(key), "all pins must have been released");
            let w = idx.words()[key as usize].load(Ordering::SeqCst);
            assert_eq!(
                w & !(HOT | EPOCH),
                RESIDENT,
                "key {key}: word {w:#x} left inconsistent"
            );
            let publishes = 1 + generations[key as usize].load(Ordering::SeqCst);
            assert_eq!(
                u64::from(epoch_of(w)),
                (publishes + refreshed[key as usize]) % (1 << 29),
                "key {key}: an epoch advance was lost"
            );
        }
        assert!(refreshed.iter().sum::<u64>() > 0, "no refresh raced");
    }

    #[test]
    fn every_new_production_moves_the_epoch_and_retirement_keeps_it() {
        let idx = HitIndex::new(8);
        let pins = Arc::new(SessionPins::heap(idx.keys()));
        idx.attach(Arc::clone(&pins));
        let epoch = || resident_epoch(idx.words(), 3);
        assert_eq!(epoch(), None, "not resident");
        assert!(!idx.refresh(3), "a refresh needs a resident key");
        idx.publish(3);
        let first = epoch().unwrap();
        idx.publish(3);
        assert_eq!(epoch(), Some(first), "re-publishing a resident key moves nothing");
        // A slot pin proves the epoch it pinned against, nested or not.
        assert_eq!(pins.pin(idx.words(), 3), Some(first));
        // An in-place refresh moves it under a held pin, keeping the
        // daemon-side count and the pin's veto.
        assert!(idx.try_hit_pin(3));
        assert!(idx.refresh(3));
        let second = epoch().unwrap();
        assert_ne!(second, first);
        assert_eq!(pins.pin(idx.words(), 3), Some(second));
        assert!(pins.unpin(3) && pins.unpin(3));
        assert_eq!(idx.try_retire(3), Retire::Pinned);
        idx.unpin(3, 1);
        assert_eq!(idx.try_retire(3), Retire::Hot);
        assert_eq!(epoch(), Some(second), "a second chance keeps the epoch");
        assert_eq!(idx.try_retire(3), Retire::Hot, "the session's reference bit");
        assert_eq!(idx.try_retire(3), Retire::Retired);
        // Retired: no proof, but the bits stay so a re-publish moves on.
        assert_eq!(epoch(), None);
        assert_eq!(epoch_of(idx.words()[3].load(Ordering::Relaxed)), second);
        idx.publish(3);
        let third = epoch().unwrap();
        assert!(third != second && third != first);
        idx.withdraw(3);
        idx.publish(3);
        assert_ne!(epoch(), Some(third), "a withdrawal keeps the epoch too");
        // The field wraps at 2^29 instead of spilling into the flags.
        let top = EPOCH | RESIDENT;
        assert_eq!(next_epoch(top), 0);
        assert_eq!(resident_epoch(&[AtomicU64::new(top)], 0), Some((1 << 29) - 1));
    }
}
