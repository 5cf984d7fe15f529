//! Runtime lock-rank tracker for the daemon's documented lock hierarchy.
//!
//! The static half of this contract lives in `crates/core/LOCKS.md` (the
//! machine-readable registry) and is enforced syntactically by
//! `cargo run -p simlint`. This module is the dynamic half: a
//! `cfg(debug_assertions)`-gated thread-local stack of currently-held
//! ranks, asserted on every acquisition of a documented lock. Debug
//! builds (and therefore every tier-1 `cargo test` run) panic the moment
//! any thread acquires locks out of order or calls a blocking primitive
//! while holding a lock whose registry row forbids blocking — the same
//! ordering the lint checks on the source text, but across function and
//! crate boundaries the syntactic pass cannot see (e.g. cache eviction
//! inside the DV engine scanning the `HitIndex` session slots while the
//! caller holds the DV lock).
//!
//! In release builds every function here compiles to nothing: [`held`]
//! returns a zero-sized guard, [`assert_blocking_ok`] is empty, and
//! [`checks`] returns 0.
//!
//! # Rules
//!
//! * A lock may be acquired only while every rank already held by the
//!   current thread is **strictly greater** than the new lock's level.
//!   Equal levels are forbidden too — that is what outlaws taking the DV
//!   lock while it is held.
//! * While any held rank has `blocking: false`, calling a blocking
//!   primitive (file write/fsync, process spawn/kill, sleep, socket
//!   send) is a bug; such primitives call [`assert_blocking_ok`].
//!
//! The numeric levels and blocking flags are mirrored in
//! `crates/core/LOCKS.md`; simlint cross-checks that the constants below
//! and the registry agree, so neither can drift alone.

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

/// One row of the lock-rank registry: a documented lock (or family of
/// locks that are never nested with each other) and its acquisition
/// level. Higher levels are acquired first; see the module doc.
#[derive(Clone, Copy, Debug)]
pub struct Rank {
    /// Acquisition level. A new lock must be strictly below every held
    /// level.
    pub level: u16,
    /// Registry name, matching the `name` column in `LOCKS.md`.
    pub name: &'static str,
    /// Whether blocking operations are permitted while this lock is
    /// held. `false` means the Effects-outbox rule applies: collect
    /// under the lock, effect after release.
    pub blocking: bool,
}

/// Reaper park/wake signal (std mutex + condvar). Held across timed
/// condvar waits and while polling `supervision_due`/`has_leases`, so it
/// sits above everything and allows blocking.
pub const REAP_SIGNAL: Rank = Rank { level: 70, name: "reap-signal", blocking: true };
/// Shutdown quiesce signal (std mutex + condvar); held across the
/// idle-shard poll during drain.
pub const QUIESCE: Rank = Rank { level: 70, name: "quiesce", blocking: true };
/// Takeover interval-priming set. Deliberately held across the storage
/// rescan and the per-key DV-lock acquisitions while a takeover is
/// primed.
pub const TAKEOVER_PRIMED: Rank = Rank { level: 60, name: "takeover-primed", blocking: true };
/// Effect-pool per-shard queue mutex (tier 1c). A submitting reactor
/// shard parks on the queue condvar while the queue is full
/// (backpressure), so blocking is allowed while it is held; it is never
/// nested with any other documented lock.
pub const EFFECT_QUEUE: Rank = Rank { level: 50, name: "effect-queue", blocking: true };
/// A context's DV mutex (tier 2 in the server doc; the name predates
/// one DV per context). The hot lock: everything under it must be pure
/// state-machine work.
pub const DV_SHARD: Rank = Rank { level: 40, name: "dv-shard", blocking: false };
/// `HitIndex` session-slot registry mutex (tier 1). Taken by the
/// eviction slot scan under the DV lock, and briefly when a mapped
/// session attaches, detaches or has its hits counted.
pub const PIN_SLOTS: Rank = Rank { level: 30, name: "pin-slots", blocking: false };
/// Daemon WAL mutex (tier 1b). Its entire purpose is batched file I/O,
/// so blocking is allowed *under it* — but it is a leaf: no other
/// documented lock may be acquired while it is held.
pub const WAL: Rank = Rank { level: 20, name: "wal", blocking: true };
/// Launch ledger mutex (tier 4): bookkeeping only; launcher and socket
/// I/O happen strictly after release.
pub const LEDGER: Rank = Rank { level: 20, name: "ledger", blocking: false };
/// Client lease table mutex.
pub const LEASES: Rank = Rank { level: 20, name: "leases", blocking: false };
/// Reactor connection-registry shard mutex (tier 3 writer routing).
pub const REACTOR_REGISTRY: Rank = Rank { level: 15, name: "reactor-registry", blocking: false };
/// Reactor cross-thread inbox mutex.
pub const REACTOR_INBOX: Rank = Rank { level: 10, name: "reactor-inbox", blocking: false };

#[cfg(debug_assertions)]
static CHECKS: AtomicU64 = AtomicU64::new(0);

#[cfg(debug_assertions)]
mod imp {
    use super::{Rank, CHECKS};
    use std::cell::RefCell;
    use std::sync::atomic::Ordering;

    struct HeldEntry {
        id: u64,
        level: u16,
        name: &'static str,
        blocking: bool,
    }

    thread_local! {
        static STACK: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: RefCell<u64> = const { RefCell::new(0) };
        static NONBLOCKING_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    pub fn mark_thread_nonblocking() {
        NONBLOCKING_THREAD.with(|f| f.set(true));
    }

    pub fn thread_is_nonblocking() -> bool {
        NONBLOCKING_THREAD.with(|f| f.get())
    }

    /// Debug guard recording one held rank; removal is by unique id so
    /// guards may drop out of LIFO order (e.g. a rank guard outliving
    /// the mutex guard it brackets).
    pub struct Held {
        id: u64,
    }

    pub fn held(rank: Rank) -> Held {
        CHECKS.fetch_add(1, Ordering::Relaxed);
        let id = NEXT_ID.with(|n| {
            let mut n = n.borrow_mut();
            *n += 1;
            *n
        });
        // Check and push under separate borrows: a panic here unwinds
        // through the Drop impls of already-held guards, which need to
        // re-borrow the stack.
        let worst = STACK.with(|s| s.borrow().iter().map(|e| (e.level, e.name)).min());
        if let Some((level, name)) = worst {
            assert!(
                rank.level < level,
                "lock-rank violation: acquiring '{}' (level {}) while holding '{}' (level {}); \
                 see crates/core/LOCKS.md",
                rank.name,
                rank.level,
                name,
                level,
            );
        }
        STACK.with(|s| {
            s.borrow_mut().push(HeldEntry {
                id,
                level: rank.level,
                name: rank.name,
                blocking: rank.blocking,
            })
        });
        Held { id }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().position(|e| e.id == self.id) {
                    s.remove(pos);
                }
            });
        }
    }

    pub fn assert_blocking_ok(what: &str) {
        CHECKS.fetch_add(1, Ordering::Relaxed);
        if thread_is_nonblocking() {
            panic!(
                "blocking operation '{what}' on a non-blocking thread (a reactor shard); \
                 submit it through the effect tier — see crates/core/LOCKS.md",
            );
        }
        let offender = STACK.with(|s| {
            s.borrow().iter().find(|e| !e.blocking).map(|e| (e.name, e.level))
        });
        if let Some((name, level)) = offender {
            panic!(
                "blocking operation '{what}' while holding non-blocking lock '{name}' \
                 (level {level}); route the effect through the outbox — see crates/core/LOCKS.md",
            );
        }
    }

    pub fn assert_none_held_below(level: u16, what: &str) {
        CHECKS.fetch_add(1, Ordering::Relaxed);
        let offender = STACK.with(|s| {
            s.borrow().iter().find(|e| e.level < level).map(|e| (e.name, e.level))
        });
        if let Some((name, held_level)) = offender {
            panic!(
                "'{what}' entered while holding '{name}' (level {held_level} < {level}); \
                 this inverts the lock hierarchy — see crates/core/LOCKS.md",
            );
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::Rank;

    /// Zero-sized no-op guard (release builds).
    pub struct Held;

    #[inline(always)]
    pub fn held(_rank: Rank) -> Held {
        Held
    }

    #[inline(always)]
    pub fn mark_thread_nonblocking() {}

    #[inline(always)]
    pub fn thread_is_nonblocking() -> bool {
        false
    }

    #[inline(always)]
    pub fn assert_blocking_ok(_what: &str) {}

    #[inline(always)]
    pub fn assert_none_held_below(_level: u16, _what: &str) {}
}

pub use imp::Held;

/// Records `rank` as held by the current thread until the returned guard
/// drops, asserting it is strictly below every rank already held. Call
/// immediately before acquiring the corresponding lock so the rank
/// ordering is checked even if the lock call itself would deadlock.
/// No-op in release builds.
#[inline]
pub fn held(rank: Rank) -> Held {
    imp::held(rank)
}

/// Asserts no lock whose registry row forbids blocking is currently held
/// by this thread, and that the thread itself has not been marked
/// non-blocking via [`mark_thread_nonblocking`]. Blocking primitives on
/// daemon paths (WAL flush/sync, process launch, storage delete) call
/// this at entry. No-op in release builds.
#[inline]
pub fn assert_blocking_ok(what: &str) {
    imp::assert_blocking_ok(what);
}

/// Marks the current thread as forbidden from calling blocking
/// primitives at all, held locks or not. Reactor shard threads call this
/// when the effect-execution tier is active: with helpers available
/// there is no legitimate reason for a shard thread to touch disk or the
/// process table, so every [`assert_blocking_ok`] site becomes a
/// thread-wide tripwire rather than a lock-scoped one. Irreversible for
/// the thread's lifetime; no-op in release builds.
#[inline]
pub fn mark_thread_nonblocking() {
    imp::mark_thread_nonblocking();
}

/// Whether [`mark_thread_nonblocking`] was called on this thread.
/// Always `false` in release builds.
#[inline]
pub fn thread_is_nonblocking() -> bool {
    imp::thread_is_nonblocking()
}

/// Asserts the current thread holds no rank strictly below `level`.
/// Used at entry to subsystems that may legitimately run under a lock of
/// exactly `level` but must never be re-entered from deeper in the
/// hierarchy (e.g. the DV state machine under its DV lock). No-op in
/// release builds.
#[inline]
pub fn assert_none_held_below(level: u16, what: &str) {
    imp::assert_none_held_below(level, what);
}

/// Total rank checks performed process-wide (acquisitions plus blocking
/// assertions). Tests use this to prove the tracker was actually
/// exercised — a passing run with `checks() == 0` would prove nothing.
/// Always 0 in release builds.
pub fn checks() -> u64 {
    #[cfg(debug_assertions)]
    {
        CHECKS.load(Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    fn catches(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(f).is_err()
    }

    #[test]
    fn in_order_acquisition_is_clean() {
        let before = checks();
        let _a = held(TAKEOVER_PRIMED);
        let _b = held(DV_SHARD);
        let _c = held(LEDGER);
        assert!(checks() >= before + 3);
    }

    #[test]
    fn out_of_order_acquisition_panics() {
        assert!(catches(|| {
            let _a = held(DV_SHARD);
            let _b = held(TAKEOVER_PRIMED);
        }));
    }

    #[test]
    fn equal_rank_acquisition_panics() {
        // The DV lock taken while held is the canonical forbidden pattern.
        assert!(catches(|| {
            let _a = held(DV_SHARD);
            let _b = held(DV_SHARD);
        }));
    }

    #[test]
    fn blocking_under_shard_panics_but_under_wal_is_fine() {
        assert!(catches(|| {
            let _a = held(DV_SHARD);
            assert_blocking_ok("fsync");
        }));
        let _w = held(WAL);
        assert_blocking_ok("fsync");
    }

    #[test]
    fn out_of_lifo_release_is_supported() {
        let a = held(DV_SHARD);
        let b = held(LEDGER);
        drop(a);
        drop(b);
        // After both drop, the stack is empty again.
        let _fresh = held(REAP_SIGNAL);
    }

    #[test]
    fn nonblocking_thread_trips_blocking_assert_with_no_locks_held() {
        // Run in a scratch thread: the mark is irreversible and must not
        // leak into sibling tests on this thread.
        std::thread::spawn(|| {
            assert!(!thread_is_nonblocking());
            assert_blocking_ok("fsync");
            mark_thread_nonblocking();
            assert!(thread_is_nonblocking());
            assert!(catches(|| assert_blocking_ok("fsync")));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn none_held_below_guards_reentry() {
        let _a = held(DV_SHARD);
        assert_none_held_below(DV_SHARD.level, "handle_into");
        let l = held(LEDGER);
        assert!(catches(move || {
            let _l = l;
            assert_none_held_below(DV_SHARD.level, "handle_into");
        }));
    }
}
