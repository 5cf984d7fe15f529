//! # simcache — replacement policies for simulation-data caching
//!
//! SimFS keeps a bounded *storage area* of materialized output steps and
//! must decide which steps to drop when the area fills (§III-D of the
//! paper). Caching re-simulation data differs from CPU caching in two
//! ways the paper calls out:
//!
//! 1. **Non-uniform miss costs.** A missing output step `d_i` costs a
//!    re-simulation from its previous restart step, i.e. `i·Δd mod Δr`
//!    output steps of compute — entries near a restart boundary are cheap,
//!    entries far from one are expensive. The cost-aware policies
//!    ([`Bcl`], [`Dcl`], after Jeong & Dubois) exploit this.
//! 2. **Pinned entries.** Output steps currently opened by an analysis
//!    hold a reference count and must not be evicted; every policy here
//!    accepts a pin predicate and skips pinned entries.
//!
//! The policies are deliberately allocation-light: recency orders are
//! intrusive doubly-linked lists over a slab ([`order::KeyedList`]), all
//! operations O(1) except pinned-entry skipping.
//!
//! [`CacheSim`] is the byte-budget manager that the Data Virtualizer
//! drives: it owns entry sizes and reference counts, asks the policy for
//! victims until the budget fits, and reports evictions to the caller.
//!
//! ```
//! use simcache::{policy_by_name, CacheSim};
//!
//! let policy = policy_by_name("dcl", 4).unwrap();
//! let mut cache = CacheSim::new(policy, 4 * 100); // 4 entries of 100 B
//! for step in 0..4u64 {
//!     cache.insert(step, 100, /*miss cost*/ step % 2 + 1);
//! }
//! assert!(cache.access(2)); // hit
//! let evicted = cache.insert(9, 100, 2);
//! assert_eq!(evicted.len(), 1); // one step had to go
//! ```

pub mod arc;
pub mod fasthash;
pub mod cache;
pub mod costlru;
pub mod fifo;
pub mod hitindex;
pub mod lirs;
pub mod lru;
pub mod order;

pub use arc::Arc;
pub use cache::{CacheSim, CacheStats};
pub use costlru::{Bcl, Dcl};
pub use fifo::Fifo;
pub use hitindex::{HitIndex, Retire, SessionPins, Words};
pub use lirs::Lirs;
pub use fasthash::{u64_map, u64_set, U64Map, U64Set};
pub use lru::Lru;

/// Pin predicate: `true` means the key may not be evicted right now.
pub type PinFn<'a> = &'a dyn Fn(u64) -> bool;

/// A cache replacement policy over `u64` keys (output-step keys in SimFS).
///
/// The policy tracks *membership and order only*; sizes, reference counts
/// and byte budgets belong to [`CacheSim`]. All policies must uphold:
///
/// * [`evict`](Policy::evict) never returns a pinned key;
/// * [`evict`](Policy::evict) returns `None` only if every resident entry
///   is pinned (so the caller can always make progress otherwise);
/// * membership reported by [`contains`](Policy::contains) matches the
///   insert/evict/remove history exactly.
pub trait Policy {
    /// Static policy name as used in the paper's figures (e.g. `"LRU"`).
    fn name(&self) -> &'static str;

    /// Is `key` resident?
    fn contains(&self, key: u64) -> bool;

    /// Number of resident entries.
    fn len(&self) -> usize;

    /// True if no entries are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a hit on a resident `key`.
    ///
    /// # Panics
    /// May panic if `key` is not resident (programming error in the
    /// caller: hits are determined by `contains`).
    fn on_hit(&mut self, key: u64);

    /// Records the insertion of `key` with the given miss `cost`
    /// (distance in output steps from its previous restart step). The
    /// caller guarantees `key` is not resident.
    fn on_insert(&mut self, key: u64, cost: u64);

    /// Selects, removes, and returns a victim among non-pinned resident
    /// entries, or `None` if all entries are pinned.
    fn evict(&mut self, pinned: PinFn<'_>) -> Option<u64>;

    /// Removes `key` without classifying it as an eviction decision
    /// (external deletion, e.g. a context being dropped). No-op if absent.
    fn on_remove(&mut self, key: u64);
}

/// Instantiates a policy by its (case-insensitive) paper name.
///
/// `capacity_entries` parameterizes the policies that need a nominal size
/// (ARC's ghost lists, LIRS' HIR partition); the others ignore it.
pub fn policy_by_name(name: &str, capacity_entries: usize) -> Option<Box<dyn Policy + Send>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "lru" => Box::new(Lru::new()),
        "fifo" => Box::new(Fifo::new()),
        "arc" => Box::new(Arc::new(capacity_entries)),
        "lirs" => Box::new(Lirs::new(capacity_entries)),
        "bcl" => Box::new(Bcl::new()),
        "dcl" => Box::new(Dcl::new()),
        _ => return None,
    })
}

/// The policy names evaluated in Fig. 5 of the paper, in x-axis order.
pub const PAPER_POLICIES: [&str; 5] = ["ARC", "BCL", "DCL", "LIRS", "LRU"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_knows_all_paper_policies() {
        for name in PAPER_POLICIES {
            let p = policy_by_name(name, 16).unwrap();
            assert_eq!(p.name().to_ascii_lowercase(), name.to_ascii_lowercase());
        }
        assert!(policy_by_name("fifo", 16).is_some());
        assert!(policy_by_name("clock", 16).is_none());
    }
}
