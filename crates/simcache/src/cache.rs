//! [`CacheSim`]: the byte-budget storage-area manager.
//!
//! The Data Virtualizer associates each simulation context with a storage
//! area of bounded size (§III-A): files materialized by re-simulations
//! are inserted here, files opened by analyses are pinned via reference
//! counts, and when the budget is exceeded the replacement policy picks
//! victims among unpinned entries. If *everything* is pinned the area
//! temporarily overflows — the paper's semantics: referenced output steps
//! can never be dropped.

use crate::fasthash::{u64_map, U64Map};
use crate::hitindex::{HitIndex, Retire};
use crate::{PinFn, Policy};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

#[derive(Clone, Debug)]
struct EntryInfo {
    size: u64,
    pins: u32,
    /// Miss cost at insertion, kept so an eviction veto (fast pin /
    /// reference bit in the attached [`HitIndex`]) can re-enter the
    /// victim into the policy as freshly used.
    cost: u64,
}

/// Cumulative counters for a [`CacheSim`] lifetime.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that found the key resident.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted by policy decision.
    pub evictions: u64,
    /// Entries removed externally.
    pub removals: u64,
    /// Times the area exceeded its budget because every entry was pinned.
    pub overflows: u64,
}

impl CacheStats {
    /// Hit ratio over all accesses (0 when no accesses yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A storage area: policy + sizes + reference counts + byte budget.
pub struct CacheSim {
    policy: Box<dyn Policy + Send>,
    entries: U64Map<EntryInfo>,
    capacity: u64,
    used: u64,
    stats: CacheStats,
    /// Concurrent membership replica consulted by lock-free hit paths.
    /// When attached, inserts publish to it and evictions must win a
    /// [`HitIndex::try_retire`] against concurrent fast pins.
    index: Option<Arc<HitIndex>>,
}

impl CacheSim {
    /// Creates a storage area with the given policy and byte budget.
    pub fn new(policy: Box<dyn Policy + Send>, capacity_bytes: u64) -> Self {
        CacheSim {
            policy,
            entries: u64_map(),
            capacity: capacity_bytes,
            used: 0,
            stats: CacheStats::default(),
            index: None,
        }
    }

    /// Attaches a concurrent [`HitIndex`] replica: current and future
    /// residents are published to it, and evictions honour its fast
    /// pins and reference bits. The index's *writes* stay serialized by
    /// whatever lock guards this `CacheSim`; only readers are
    /// concurrent.
    pub fn attach_index(&mut self, index: Arc<HitIndex>) {
        for key in self.entries.keys() {
            index.publish(*key);
        }
        self.index = Some(index);
    }

    /// The policy's paper name (e.g. `"DCL"`).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Is `key` resident?
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Records an access; returns `true` on hit. On a miss the caller is
    /// expected to re-simulate and then [`insert`](Self::insert).
    pub fn access(&mut self, key: u64) -> bool {
        if self.entries.contains_key(&key) {
            self.policy.on_hit(key);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Non-mutating membership probe (no statistics, no policy update) —
    /// used by prefetch agents that must not distort the access stream.
    pub fn peek(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    fn evict_until_fits(&mut self) -> Vec<u64> {
        let mut evicted = Vec::new();
        // Bounds the second-chance loop below: every resident entry can
        // be vetoed at most once per cleared reference bit, so this cap
        // is only reached under sustained concurrent pinning — which is
        // exactly when tolerating overflow is the right call.
        let mut vetoes = 0usize;
        while self.used > self.capacity {
            let entries = &self.entries;
            let index = self.index.as_deref();
            let pinned = move |k: u64| {
                entries.get(&k).is_some_and(|e| e.pins > 0)
                    || index.is_some_and(|idx| idx.is_pinned(k))
            };
            match self.policy.evict(&pinned as PinFn<'_>) {
                Some(victim) => {
                    // The index is the authoritative gate against
                    // concurrent pins: a pinner either sees the word
                    // retiring or is seen by the retirement's slot
                    // scan, so a Retired verdict cannot race a pin.
                    let verdict = match &self.index {
                        Some(idx) => idx.try_retire(victim),
                        None => Retire::Absent,
                    };
                    match verdict {
                        Retire::Retired | Retire::Absent => {
                            let info = self
                                .entries
                                .remove(&victim)
                                .expect("policy evicted unknown key");
                            debug_assert_eq!(info.pins, 0, "policy evicted a pinned key");
                            self.used -= info.size;
                            self.stats.evictions += 1;
                            evicted.push(victim);
                        }
                        Retire::Pinned | Retire::Hot => {
                            // A concurrent fast hit pinned or touched
                            // the victim; had it gone through the lock
                            // it would have refreshed the entry — give
                            // it that refresh and pick another victim.
                            let cost = self
                                .entries
                                .get(&victim)
                                .map_or(0, |e| e.cost);
                            self.policy.on_insert(victim, cost);
                            vetoes += 1;
                            if vetoes > self.entries.len() * 2 + 8 {
                                self.stats.overflows += 1;
                                break;
                            }
                        }
                    }
                }
                None => {
                    // Everything resident is pinned: tolerate overflow.
                    self.stats.overflows += 1;
                    break;
                }
            }
        }
        evicted
    }

    /// Inserts a newly materialized entry, evicting as needed. Returns
    /// the keys that were evicted to make room.
    ///
    /// # Panics
    /// Panics if `key` is already resident (the DV never re-materializes
    /// a resident step).
    pub fn insert(&mut self, key: u64, size: u64, cost: u64) -> Vec<u64> {
        self.insert_pinned(key, size, cost, 0)
    }

    /// Like [`insert`](Self::insert), but the entry enters with `pins`
    /// references already held — used by the DV when clients are blocked
    /// waiting on the step, so the step cannot be chosen as its own
    /// eviction victim.
    pub fn insert_pinned(&mut self, key: u64, size: u64, cost: u64, pins: u32) -> Vec<u64> {
        assert!(
            !self.entries.contains_key(&key),
            "insert of resident key {key}"
        );
        self.entries.insert(key, EntryInfo { size, pins, cost });
        self.policy.on_insert(key, cost);
        self.used += size;
        self.stats.inserts += 1;
        if let Some(idx) = &self.index {
            idx.publish(key);
        }
        self.evict_until_fits()
    }

    /// Pins `key` (reference count +1). Returns `false` if absent.
    pub fn pin(&mut self, key: u64) -> bool {
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.pins += 1;
                true
            }
            None => false,
        }
    }

    /// Unpins `key` (reference count −1). Returns `false` if absent.
    ///
    /// # Panics
    /// Panics if the key's reference count is already zero.
    pub fn unpin(&mut self, key: u64) -> bool {
        match self.entries.get_mut(&key) {
            Some(e) => {
                assert!(e.pins > 0, "unpin of unpinned key {key}");
                e.pins -= 1;
                true
            }
            None => false,
        }
    }

    /// Current reference count of `key` (0 if absent).
    pub fn pin_count(&self, key: u64) -> u32 {
        self.entries.get(&key).map_or(0, |e| e.pins)
    }

    /// Removes `key` without an eviction decision (context teardown).
    /// With an attached index, the caller must have quiesced fast-path
    /// traffic first — a withdrawal does not honour fast pins.
    pub fn remove(&mut self, key: u64) -> bool {
        if let Some(idx) = &self.index {
            idx.withdraw(key);
        }
        match self.entries.remove(&key) {
            Some(info) => {
                self.used -= info.size;
                self.policy.on_remove(key);
                self.stats.removals += 1;
                true
            }
            None => false,
        }
    }

    /// Resident keys in unspecified order (diagnostics / teardown).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lru;

    fn lru_cache(capacity: u64) -> CacheSim {
        CacheSim::new(Box::new(Lru::new()), capacity)
    }

    #[test]
    fn insert_within_budget_evicts_nothing() {
        let mut c = lru_cache(300);
        assert!(c.insert(1, 100, 0).is_empty());
        assert!(c.insert(2, 100, 0).is_empty());
        assert_eq!(c.used_bytes(), 200);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overflow_evicts_lru() {
        let mut c = lru_cache(250);
        c.insert(1, 100, 0);
        c.insert(2, 100, 0);
        let evicted = c.insert(3, 100, 0);
        assert_eq!(evicted, vec![1]);
        assert_eq!(c.used_bytes(), 200);
        assert!(!c.contains(1));
    }

    #[test]
    fn access_updates_stats_and_recency() {
        let mut c = lru_cache(250);
        c.insert(1, 100, 0);
        c.insert(2, 100, 0);
        assert!(c.access(1));
        assert!(!c.access(99));
        let evicted = c.insert(3, 100, 0);
        assert_eq!(evicted, vec![2], "1 was refreshed by the hit");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn peek_does_not_touch_policy_or_stats() {
        let mut c = lru_cache(250);
        c.insert(1, 100, 0);
        c.insert(2, 100, 0);
        assert!(c.peek(1));
        let evicted = c.insert(3, 100, 0);
        assert_eq!(evicted, vec![1], "peek must not refresh recency");
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn pinned_entries_overflow_the_budget() {
        let mut c = lru_cache(150);
        c.insert(1, 100, 0);
        c.pin(1);
        let evicted = c.insert(2, 100, 0);
        assert!(evicted.is_empty() || !evicted.contains(&1));
        // 2 itself is unpinned; with capacity 150 and used 200, policy
        // evicts 2 (the only unpinned entry).
        assert!(c.contains(1));
        assert!(c.stats().overflows > 0 || c.used_bytes() <= 150);
    }

    #[test]
    fn everything_pinned_tolerates_overflow() {
        let mut c = lru_cache(150);
        c.insert(1, 100, 0);
        c.pin(1);
        c.insert(2, 100, 0);
        c.pin(2); // too late to stop 2's insert-eviction? no: insert already ran
        let evicted = c.insert(3, 100, 0);
        c.pin(3);
        // At least one eviction attempt happened; remaining pinned entries
        // stay.
        assert!(c.contains(1));
        let _ = evicted;
    }

    #[test]
    fn unpin_makes_evictable_again() {
        let mut c = lru_cache(100);
        c.insert(1, 100, 0);
        c.pin(1);
        c.insert(2, 100, 0); // overflow: 2 evicted (only unpinned)
        assert!(c.contains(1));
        c.unpin(1);
        c.insert(3, 100, 0);
        assert!(!c.contains(1), "after unpin, 1 is evictable");
        assert!(c.contains(3));
    }

    #[test]
    fn pin_refcounts_nest() {
        let mut c = lru_cache(100);
        c.insert(1, 50, 0);
        c.pin(1);
        c.pin(1);
        assert_eq!(c.pin_count(1), 2);
        c.unpin(1);
        assert_eq!(c.pin_count(1), 1);
        c.unpin(1);
        assert_eq!(c.pin_count(1), 0);
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned")]
    fn unpin_underflow_panics() {
        let mut c = lru_cache(100);
        c.insert(1, 50, 0);
        c.unpin(1);
    }

    #[test]
    fn remove_frees_bytes() {
        let mut c = lru_cache(300);
        c.insert(1, 100, 0);
        c.insert(2, 100, 0);
        assert!(c.remove(1));
        assert!(!c.remove(1));
        assert_eq!(c.used_bytes(), 100);
        assert_eq!(c.stats().removals, 1);
    }

    #[test]
    fn oversize_entry_is_inserted_then_evicted_next_round() {
        let mut c = lru_cache(100);
        let evicted = c.insert(1, 500, 0);
        // The entry does not fit at all: it evicts itself.
        assert_eq!(evicted, vec![1]);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn hit_ratio_math() {
        let mut c = lru_cache(300);
        c.insert(1, 100, 0);
        c.access(1);
        c.access(1);
        c.access(9);
        assert!((c.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
