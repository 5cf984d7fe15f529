//! The Data Virtualizer (§III): a deterministic, I/O-free state machine.
//!
//! All SimFS decisions — miss handling, launch/kill of re-simulations,
//! caching, reference counting, prefetching — are expressed as
//! `handle(now, event) -> actions`. Two front-ends drive it:
//!
//! * the virtual-time harness ([`crate::vharness`]) delivers events from
//!   a DES engine and interprets actions as scheduled productions
//!   (Figs. 16–19);
//! * the TCP daemon ([`crate::server`]) delivers events from sockets and
//!   interprets actions as process launches and file deletions (Fig. 4).
//!
//! The sequence of Fig. 4 maps onto this module as follows: an analysis
//! `open` becomes [`DvEvent::Acquire`] (1–2); a missing file produces a
//! [`DvAction::Launch`] (3); the simulator's `close` notifications come
//! back as [`DvEvent::FileProduced`] (4–5); waiting analyses get
//! [`DvAction::NotifyReady`] (6).
//!
//! # Production supervision: the retry/poison state machine
//!
//! A re-simulation can fail transiently (OOM, scheduler hiccup), fail
//! persistently (broken restart file), stall without exiting, or write
//! corrupt output. The DV supervises all four per *restart interval*
//! (the launch granularity), with knobs in
//! [`SupervisorCfg`](crate::model::SupervisorCfg):
//!
//! * **Retry with backoff.** A failed *demand* production — the launch
//!   reason is [`LaunchReason::Miss`], or a claimed key has live
//!   waiters — does not fail its waiters. The uncovered range is
//!   re-enqueued on the launch queue with a `not_before` deadline of
//!   capped exponential backoff plus deterministic jitter, and drains
//!   through the same `s_max` gate as any other launch once the
//!   deadline passes ([`tick`](DataVirtualizer::tick) or any queue
//!   drain). Speculative prefetch failures are never retried: the sim
//!   is dropped and counted, exactly like a §IV-C kill frees its slot.
//! * **Poison quarantine.** Each interval carries an attempt budget.
//!   Exhausting it quarantines the interval for a cooldown window:
//!   waiters get an immediate typed [`DvAction::NotifyFailed`] (code
//!   [`FailCode::Poisoned`], or the terminal cause), subsequent
//!   acquires short-circuit without launching, and queued launches
//!   into the interval are purged — a circuit breaker against retry
//!   storms. The quarantine expires by time, or instantly when a
//!   foreign production lands a key of the interval (overlapping
//!   prefetch blocks can cover a poisoned interval). Expiry resets the
//!   attempt budget. Cache *hits* inside a quarantined interval still
//!   serve — poison gates production, not residency.
//! * **Hang watchdog.** Every sim records `last_progress` (launch,
//!   `SimStarted`, each production). [`tick`](DataVirtualizer::tick)
//!   compares it against a deadline derived from the live
//!   `alpha_sim`/`tau_sim` estimates (scaled and clamped by the
//!   supervisor knobs) and emits [`DvAction::Kill`] plus an internal
//!   failure for stalled sims, so the retry machinery above takes
//!   over. [`next_due`](DataVirtualizer::next_due) tells a reactor
//!   front-end when the earliest backoff/watchdog/quarantine timer
//!   fires.
//! * **Interaction with pollution kills.** The §IV-C kill path and the
//!   queued-prefetch purge are unchanged: killed prefetches were never
//!   demand work, so they hit the "drop, never retry" branch. Retried
//!   launches re-enter the queue as `Miss` work and are therefore
//!   immune to the prefetch purge.

use crate::model::{ContextCfg, StepMath};
use crate::perfmodel::{Ema, IntervalTracker};
use crate::prefetch::{AccessRecord, Direction, PrefetchAgent, PrefetchInputs};
use simcache::{policy_by_name, u64_map, CacheSim, U64Map};
use simkit::lockrank;
use simkit::{Dur, SimTime};
use std::collections::VecDeque;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies an analysis client session.
pub type ClientId = u64;
/// Identifies a (re-)simulation.
pub type SimId = u64;

/// The hang window is never shorter than this many times the estimate
/// it scales, whatever `hang_ceiling` says.
const MIN_HANG_MULTIPLE: u64 = 2;

/// Why a simulation was launched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchReason {
    /// Serving a miss: a client is blocked on one of its keys.
    Miss,
    /// Speculative launch by a prefetch agent (§IV-B).
    Prefetch,
}

/// Machine-readable classification of a failed acquire, carried on
/// [`DvAction::NotifyFailed`] and over the wire on `Response::Failed`.
/// Stable: new causes must extend the enum, not repurpose a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailCode {
    /// A transient production failure; retrying may succeed (surfaced
    /// only when the supervisor cannot retry, e.g. a producer finished
    /// in violation of its range contract and re-launch is impossible).
    Retriable,
    /// The key's restart interval exhausted its attempt budget and is
    /// quarantined for the supervisor's cooldown window.
    Poisoned,
    /// The producer stalled and was killed by the hang watchdog; the
    /// interval poisoned on that terminal attempt.
    HangKilled,
    /// The producer's output failed the integrity gate; the interval
    /// poisoned on that terminal attempt.
    CorruptOutput,
    /// Anything else: invalid keys, misrouted cluster keys, protocol
    /// errors — the legacy free-text failures.
    Other,
}

impl FailCode {
    /// Stable wire value.
    pub const fn as_u8(self) -> u8 {
        match self {
            FailCode::Retriable => 1,
            FailCode::Poisoned => 2,
            FailCode::HangKilled => 3,
            FailCode::CorruptOutput => 4,
            FailCode::Other => 0,
        }
    }

    /// Decodes a wire value; unknown values degrade to
    /// [`FailCode::Other`] (a newer daemon must not crash an older
    /// client).
    pub const fn from_u8(b: u8) -> FailCode {
        match b {
            1 => FailCode::Retriable,
            2 => FailCode::Poisoned,
            3 => FailCode::HangKilled,
            4 => FailCode::CorruptOutput,
            _ => FailCode::Other,
        }
    }

    /// Short stable label (log/JSON friendly).
    pub const fn as_str(self) -> &'static str {
        match self {
            FailCode::Retriable => "retriable",
            FailCode::Poisoned => "poisoned",
            FailCode::HangKilled => "hang-killed",
            FailCode::CorruptOutput => "corrupt-output",
            FailCode::Other => "other",
        }
    }
}

/// Input events (all front-ends translate into these).
#[derive(Clone, Debug)]
pub enum DvEvent {
    /// A client requests an output step (open/`SIMFS_Acquire`).
    Acquire {
        /// Requesting client.
        client: ClientId,
        /// Output-step key.
        key: u64,
    },
    /// A client is done with a step (close/`SIMFS_Release`).
    Release {
        /// Releasing client.
        client: ClientId,
        /// Output-step key.
        key: u64,
    },
    /// A launched simulation got its resources and finished restart
    /// initialization (it will now produce steps).
    SimStarted {
        /// The simulation.
        sim: SimId,
    },
    /// A simulation published one output step (intercepted `close`).
    FileProduced {
        /// Producing simulation.
        sim: SimId,
        /// Produced key.
        key: u64,
        /// File size in bytes.
        size: u64,
    },
    /// A simulation completed its assigned range.
    SimFinished {
        /// The simulation.
        sim: SimId,
    },
    /// A simulation failed (crash, bad restart, scheduler error).
    SimFailed {
        /// The simulation.
        sim: SimId,
    },
    /// The front-end's integrity gate rejected a produced file (torn
    /// sdf, checksum mismatch): the bytes were already deleted; the DV
    /// kills the producer and treats the attempt as a failure. Routed
    /// by key, like the [`DvEvent::FileProduced`] it replaces.
    OutputCorrupt {
        /// Producing simulation.
        sim: SimId,
        /// The rejected key.
        key: u64,
    },
    /// A client disconnected: release its pins, kill its prefetches.
    ClientGone {
        /// The departed client.
        client: ClientId,
    },
}

/// Output actions for the driving front-end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DvAction {
    /// Unblock a client waiting on `key`.
    NotifyReady {
        /// Waiting client.
        client: ClientId,
        /// Ready key.
        key: u64,
    },
    /// Tell a client its request cannot be served.
    NotifyFailed {
        /// Waiting client.
        client: ClientId,
        /// Failed key.
        key: u64,
        /// Machine-readable classification (stable across releases).
        code: FailCode,
        /// Human-readable reason (surfaced in `SIMFS_Status`).
        reason: String,
    },
    /// Start a re-simulation producing `keys` at `level` parallelism.
    Launch {
        /// New simulation id.
        sim: SimId,
        /// Keys the simulation will produce, in order.
        keys: RangeInclusive<u64>,
        /// Parallelism level (driver maps to nodes).
        level: u32,
        /// Why it was launched.
        reason: LaunchReason,
    },
    /// Abort a running/queued simulation (prefetch no longer useful).
    Kill {
        /// Simulation to kill.
        sim: SimId,
    },
    /// Delete an evicted output step from the storage area.
    Evict {
        /// Evicted key.
        key: u64,
    },
}

/// The counter registry. One row per counter: its doc comment, who
/// counts it, and its name. Everything that used to be threaded by hand
/// comes from this table — the [`DvStats`] struct, [`DvStats::FIELDS`],
/// the `accumulate`/`delta` roll-ups, the `(name, value)` iterator the
/// JSON emitters walk, and the daemon's atomic mirror — so a counter
/// cannot be missing from any of them.
///
/// * `dv` rows are incremented under the DV lock, by the
///   [`DataVirtualizer`] state machine itself or by the member core
///   around it (recovery leases, takeover priming); a cluster's totals
///   are the sum over its members.
/// * `daemon` rows are incremented by the daemon around the state
///   machine. Each gets an `AtomicU64` of the same name in
///   `DaemonCounters`, whose `overlay` copies them into a snapshot.
/// * `external` rows are read at snapshot time from the structure that
///   already owns the count (the hit index, the write-ahead log); the
///   daemon's snapshot assigns them explicitly.
macro_rules! dv_stats {
    ($($(#[$doc:meta])* $kind:ident $name:ident,)*) => {
        /// Lifetime counters (Fig. 5 reports `simulated_steps` as bars
        /// and `restarts` as points). Generated from the `dv_stats!`
        /// table: adding a counter is one row there plus its increment
        /// site.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct DvStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl DvStats {
            /// Every counter's name, in table order.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($name)),*];

            /// Adds `other`'s counters into `self` (member/context
            /// roll-ups).
            pub fn accumulate(&mut self, other: &DvStats) {
                $(self.$name += other.$name;)*
            }

            /// The counters' growth since `before` (saturating, so a
            /// snapshot pair taken across a daemon restart reads zero
            /// instead of wrapping).
            pub fn delta(&self, before: &DvStats) -> DvStats {
                DvStats {
                    $($name: self.$name.saturating_sub(before.$name),)*
                }
            }

            /// `(name, value)` of every counter, in table order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::FIELDS.iter().copied().zip([$(self.$name),*])
            }

            /// A value per counter from its index in [`Self::FIELDS`].
            #[cfg(test)]
            fn from_fn(f: impl Fn(usize) -> u64) -> DvStats {
                let mut stats = DvStats::default();
                let fields = [$(&mut stats.$name),*];
                for (index, field) in fields.into_iter().enumerate() {
                    *field = f(index);
                }
                stats
            }
        }

        daemon_counters!([] $($kind $name,)*);
    };
}

/// Filters the `daemon` rows out of the counter table and generates
/// their atomic mirror.
macro_rules! daemon_counters {
    ([$($acc:ident)*] daemon $name:ident, $($rest:tt)*) => {
        daemon_counters!([$($acc)* $name] $($rest)*);
    };
    ([$($acc:ident)*] dv $name:ident, $($rest:tt)*) => {
        daemon_counters!([$($acc)*] $($rest)*);
    };
    ([$($acc:ident)*] external $name:ident, $($rest:tt)*) => {
        daemon_counters!([$($acc)*] $($rest)*);
    };
    ([$($name:ident)*]) => {
        /// The daemon-side half of [`DvStats`]: one relaxed atomic per
        /// `daemon` row of the counter table, bumped lock-free from
        /// reactor shards and effect helpers and copied into a
        /// snapshot by [`overlay`](Self::overlay).
        #[derive(Default)]
        pub(crate) struct DaemonCounters {
            $(pub(crate) $name: AtomicU64,)*
        }

        impl DaemonCounters {
            /// Writes every mirrored counter into `into` (the state
            /// machine never counts these rows, so this is an
            /// assignment, not a sum).
            pub(crate) fn overlay(&self, into: &mut DvStats) {
                $(into.$name = self.$name.load(Ordering::Relaxed);)*
            }

            /// Sets every mirrored counter from the like-named field.
            #[cfg(test)]
            fn store(&self, from: &DvStats) {
                $(self.$name.store(from.$name, Ordering::Relaxed);)*
            }
        }
    };
}

dv_stats! {
    /// Cache hits on acquire.
    dv hits,
    /// Cache misses on acquire.
    dv misses,
    /// Simulations launched (the paper's "restarts").
    dv restarts,
    /// Of which prefetch launches.
    dv prefetch_launches,
    /// Prefetch launches covering less than one whole restart interval:
    /// each pays a full restart latency for a fragment. Plans are
    /// restart-aligned, so these come only from cluster ownership cuts
    /// and timeline-end clamps.
    dv prefetch_partial_launches,
    /// Consumption-time (`tau_cli`) samples fed to the prefetch agents
    /// by digest replay.
    dv tau_cli_samples,
    /// Output steps scheduled for production across all launches.
    dv scheduled_steps,
    /// Output steps actually produced (`FileProduced` events).
    dv produced_steps,
    /// Cache evictions.
    dv evictions,
    /// Simulations killed (§IV-C).
    dv kills,
    /// Pollution resets of all prefetch agents (§IV-C).
    dv pollution_resets,
    /// Simulations that failed.
    dv failures,
    /// Hit acquires served on the daemon's lock-free fast path (never
    /// took a DV lock). Zero outside the daemon: the DV state machine
    /// itself only ever sees slow-path events.
    external acquired_fast,
    /// Of `acquired_fast`: hits a mapped same-host session served
    /// itself, pinning through its slots in the shared hit table with
    /// no frame exchanged (live and departed sessions).
    external shared_hits,
    /// Acquires that went through the DV lock (misses, hits in
    /// prefetching contexts, and fast-path fallbacks).
    daemon acquired_slow,
    /// Fast-path attempts that raced an eviction and fell back to the
    /// locked path (the epoch/generation check fired).
    external hit_fallbacks,
    /// Nanoseconds daemon threads spent *waiting* for the DV lock.
    daemon lock_wait_ns,
    /// Nanoseconds daemon threads spent *holding* the DV lock.
    daemon lock_hold_ns,
    /// Number of timed DV-lock acquisitions behind the two counters
    /// above.
    daemon lock_transitions,
    /// Transient accept-loop failures (EMFILE/ECONNABORTED) that were
    /// retried with backoff instead of killing the listener. Counted
    /// daemon-wide and mirrored into every context's snapshot.
    daemon accept_retries,
    /// Access records replayed into the prefetch agents out-of-band
    /// (digest drains). Each record is counted once, by the cluster
    /// member that owns its key.
    dv digest_replayed,
    /// Access records lost to digest-ring overflow before they reached
    /// the agents (the lossiness half of the observation contract;
    /// counted at the recording side and mirrored into snapshots).
    dv digest_dropped,
    /// Replayed accesses of keys a prefetch agent had planned that were
    /// materialized when observed — the numerator of the prefetch hit
    /// rate. Approximate by design: replay happens after the fact, so a
    /// pollution miss whose key was re-produced before the drain can
    /// sneak in.
    dv prefetch_hits,
    /// Write-ahead-log records appended (daemon-wide, mirrored into
    /// snapshots like `accept_retries`). Zero when durability is off.
    external wal_appends,
    /// Write-ahead-log records replayed at the last recovery startup.
    external wal_replayed,
    /// Pins re-established from the WAL after a restart
    /// ([`DataVirtualizer::restore_pin`]).
    dv pins_recovered,
    /// Recovered client leases that expired before the client
    /// re-asserted (their pins were released via `ClientGone`).
    dv leases_expired,
    /// Resident steps a recovery held from eviction until its last
    /// recovery lease settled (the member core's crash rule 2): while
    /// it holds them the storage area may overflow its budget.
    dv recovery_held_steps,
    /// Clients that reconnected after a dropped connection (hellos
    /// carrying a prior-epoch claim).
    daemon client_reconnects,
    /// Sessions (analyses and simulators) greeted over the daemon's
    /// abstract Unix socket instead of TCP — same-host peers
    /// ([`crate::net`]).
    daemon local_sessions,
    /// Takeover acquires accepted on behalf of a dead cluster member
    /// (degraded-mode serving; daemon-wide, mirrored into snapshots).
    daemon takeover_acquires,
    /// Foreign intervals whose residency was rebuilt from the storage
    /// area to serve takeover acquires.
    dv takeover_intervals_primed,
    /// Takeover pin counts drained by `HandBack` after the dead member
    /// restarted.
    daemon takeover_pins_handed_back,
    /// Demand launches re-enqueued with backoff after a production
    /// failure (the supervision tier's retries; never prefetches).
    dv sim_retries,
    /// Simulations killed by the hang watchdog (stalled past the
    /// alpha/tau-derived deadline). Disjoint from `kills`, which counts
    /// §IV-C prefetch kills.
    dv sims_hung_killed,
    /// Restart intervals quarantined after exhausting their attempt
    /// budget.
    dv intervals_poisoned,
    /// Produced files rejected (and deleted) by the integrity gate.
    dv corrupt_outputs,
    /// Blocking effect jobs reactor shard threads handed to the effect
    /// tier's helper pool instead of executing inline (daemon-side,
    /// mirrored into snapshots; zero in inline compatibility mode).
    daemon effects_offloaded,
    /// Submissions that found their per-shard effect queue full and
    /// parked until a helper freed space (backpressure events, not
    /// drops).
    daemon helper_queue_full,
    /// WAL `fdatasync` calls (group fsync folds many appends into one;
    /// compare against `wal_appends` for the batching factor).
    external wal_syncs,
    /// Helper-side nanoseconds executing job-control effect jobs
    /// (launch/kill commits).
    daemon effect_spawn_ns,
    /// Job-control effect jobs executed.
    daemon effect_spawn_ops,
    /// Helper-side nanoseconds executing WAL-only effect jobs (durable
    /// outboxes, fast-pin windows, departures).
    daemon effect_wal_ns,
    /// WAL-only effect jobs executed.
    daemon effect_wal_ops,
    /// Helper-side nanoseconds executing eviction effect jobs.
    daemon effect_evict_ns,
    /// Eviction effect jobs executed.
    daemon effect_evict_ops,
    /// Helper-side nanoseconds executing storage-read effect jobs
    /// (simulator output verification, Bitrep re-reads).
    daemon effect_read_ns,
    /// Storage-read effect jobs executed.
    daemon effect_read_ops,
}

struct ClientState {
    agent: PrefetchAgent,
    /// Pin counts per key held by this client.
    pins: U64Map<u32>,
    /// When the client's last *blocked* request became ready (stamped
    /// by the production that answered it): the start of its
    /// consumption phase. Replay takes it to start the `tau_cli` gap
    /// (§IV-A) after the blocked record — consumption time, not
    /// blocked-wait time.
    last_ready: Option<SimTime>,
    /// Epoch of the last digest record replayed for this client and
    /// whether it was a ready point: the digest-mode source of
    /// `tau_cli` samples (a gap is a consumption sample only when it
    /// starts at a ready point — gaps after blocked misses would
    /// otherwise fold the production wait into the estimate).
    last_digest_epoch: Option<(u64, bool)>,
    /// Set by a pollution reset: the client's next replayed digest
    /// window (usually) predates the reset, so it must not re-confirm
    /// the very trajectory the reset just discarded. Deliberately
    /// coarse: a client whose log happened to be empty at reset time
    /// loses one fully post-reset window too — record epochs are
    /// per-recorder clocks, so the reset boundary cannot be
    /// compared against them; the cost is one drain window of delayed
    /// re-confirmation, bounded and loss-shaped like the rest of the
    /// digest contract.
    discard_digest_window: bool,
}

struct SimState {
    keys: RangeInclusive<u64>,
    next_key: u64,
    reason: LaunchReason,
    /// Client whose access pattern caused this launch.
    client: Option<ClientId>,
    launched_at: SimTime,
    started: bool,
    production: IntervalTracker,
    /// Number of keys this sim is the pending producer of that have a
    /// non-empty waiter list. Maintained incrementally so the §IV-C
    /// kill check ("no one waits on anything this sim will produce")
    /// is O(1) instead of a sims×keys scan.
    waited_keys: u32,
    /// Last sign of life (launch, start, each production): the hang
    /// watchdog's progress marker.
    last_progress: SimTime,
}

struct QueuedLaunch {
    keys: RangeInclusive<u64>,
    level: u32,
    reason: LaunchReason,
    client: Option<ClientId>,
    /// Earliest time this entry may launch (retry backoff); `ZERO` for
    /// ordinary launches.
    not_before: SimTime,
}

/// Retry/quarantine bookkeeping of one restart interval (keyed by the
/// interval index). Cleared by a successful production in the interval
/// or by quarantine expiry — both reset the attempt budget.
struct RetryState {
    /// Failed demand attempts so far.
    attempts: u32,
    /// Classification of the most recent failure: colours the code the
    /// poison verdict surfaces.
    last_cause: FailCode,
    /// `Some(expiry)` once poisoned: acquires short-circuit and
    /// launches are refused until then.
    quarantined_until: Option<SimTime>,
}

/// The Data Virtualizer for one simulation context.
pub struct DataVirtualizer {
    cfg: ContextCfg,
    cache: CacheSim,
    clients: U64Map<ClientState>,
    sims: U64Map<SimState>,
    /// key -> simulation that will produce it.
    pending: U64Map<SimId>,
    /// key -> clients blocked on it.
    waiting: U64Map<Vec<ClientId>>,
    /// client -> its live prefetch simulations (the §IV-C kill-path
    /// index; avoids scanning every sim on direction changes).
    prefetches_by_client: U64Map<Vec<SimId>>,
    /// Launches deferred because `s_max` simulations are active (or,
    /// for retries, because their backoff deadline is in the future).
    launch_queue: VecDeque<QueuedLaunch>,
    /// interval index -> retry/quarantine state (the supervision tier).
    retry: U64Map<RetryState>,
    /// Reusable victim list for the kill path (no per-event allocs).
    kill_scratch: Vec<SimId>,
    next_sim: SimId,
    /// Distance between consecutive sim ids: 1 for a solo DV, the
    /// cluster size for a [`for_member`](Self::for_member) DV, so
    /// `(sim - 1) % stride` recovers the member that launched a sim and
    /// no two members ever collide on an id.
    sim_stride: SimId,
    alpha_sim: Ema,
    tau_sim: Ema,
    stats: DvStats,
}

impl DataVirtualizer {
    /// Creates a DV for the given context.
    ///
    /// # Panics
    /// Panics if the context names an unknown replacement policy.
    pub fn new(cfg: ContextCfg) -> DataVirtualizer {
        let capacity_entries = cfg.cache_capacity_steps().max(2) as usize;
        let policy = policy_by_name(&cfg.policy, capacity_entries)
            .unwrap_or_else(|| panic!("unknown replacement policy {:?}", cfg.policy));
        let cache = CacheSim::new(policy, cfg.cache_capacity);
        DataVirtualizer {
            alpha_sim: Ema::new(cfg.ema_alpha),
            tau_sim: Ema::new(cfg.ema_alpha),
            cfg,
            cache,
            clients: u64_map(),
            sims: u64_map(),
            pending: u64_map(),
            waiting: u64_map(),
            prefetches_by_client: u64_map(),
            launch_queue: VecDeque::new(),
            retry: u64_map(),
            kill_scratch: Vec::new(),
            next_sim: 1,
            sim_stride: 1,
            stats: DvStats::default(),
        }
    }

    /// Builder: allocate sim ids `first, first + stride, ...` instead
    /// of `1, 2, ...` — the id-space partitioning that lets a cluster
    /// recover a sim's launching member as `(sim - 1) % stride`.
    ///
    /// # Panics
    /// Panics if `first == 0` or `stride == 0` (sim id 0 is reserved;
    /// a zero stride would reuse ids).
    pub fn with_sim_ids(mut self, first: SimId, stride: SimId) -> DataVirtualizer {
        assert!(first > 0, "sim ids start at 1");
        assert!(stride > 0, "sim id stride must be positive");
        self.next_sim = first;
        self.sim_stride = stride;
        self
    }

    /// The DV of one cluster member: the member's `1/size` context
    /// slice ([`shard_cfg`]) with sim ids `index + 1` step `size`, so no
    /// two members collide on a sim id and the launching member of any
    /// id is `(sim - 1) % size`. [`ClusterMember::SOLO`] gives exactly
    /// [`new`](Self::new).
    ///
    /// # Panics
    /// Panics if the context names an unknown replacement policy or if
    /// `member.index >= member.size` (a hand-built `ClusterMember`
    /// literal can bypass [`ClusterMember::new`]'s check).
    pub fn for_member(cfg: ContextCfg, member: ClusterMember) -> DataVirtualizer {
        assert!(
            member.index < member.size,
            "cluster index {} out of range 0..{}",
            member.index,
            member.size
        );
        DataVirtualizer::new(shard_cfg(&cfg, member.size))
            .with_sim_ids(member.index as SimId + 1, member.size as SimId)
    }

    /// Attaches a concurrent [`simcache::HitIndex`] replica to the
    /// cache: residents are published to it and evictions honour its
    /// pins — the daemon's fast pins and mapped sessions' slots (the
    /// lock-free hit paths).
    pub fn attach_index(&mut self, index: std::sync::Arc<simcache::HitIndex>) {
        self.cache.attach_index(index);
    }

    /// Replays a drained access digest into the prefetch agents — the
    /// agents' only source of observation: `on_acquire` neither feeds
    /// them nor samples `tau_cli`. Records come from fast-path hits
    /// that never took a DV lock, from slow-path acquires, or forwarded
    /// from a clustered client's full pre-routing stream. Launch
    /// bookkeeping that does not depend on stream order — miss-coverage
    /// frontiers, pollution resets — stays on the acquire path.
    ///
    /// `owns_key` narrows *planning* and accounting to the keys this DV
    /// instance owns: every record updates agent pattern state (agents
    /// must see the full sequence to detect direction and cadence), but
    /// plan blocks are split at ownership boundaries and only owned
    /// runs launch, and each record is counted once cluster-wide (by
    /// its owner). Pass `|_| true` outside a cluster.
    ///
    /// `window_dropped` is the loss count of *this* window (from
    /// [`AccessLog::drain_into`](crate::prefetch::AccessLog::drain_into)):
    /// when records were lost, each client's first gap in the window
    /// spans the dropped stretch and is not sampled — one overflow must
    /// not feed a many-fold-inflated consumption sample into `tau_cli`
    /// (loss degrades, never corrupts).
    ///
    /// Invalid keys are skipped — `on_acquire` fails them before its
    /// agents ever see them, and replay mirrors that.
    ///
    /// Record epochs must be on the clock of the `now` this DV is
    /// driven with (the daemon's own records): after a record that
    /// blocked, the consumption gap starts at the waiter's ready stamp,
    /// where the client's consumption began. The daemon replays the
    /// digests a clustered DVLib forwards — stamped on the client's
    /// clock — without that step.
    pub fn ingest_digest(
        &mut self,
        now: SimTime,
        records: &[AccessRecord],
        window_dropped: u64,
        owns_key: &dyn Fn(u64) -> bool,
        actions: &mut Vec<DvAction>,
    ) {
        self.replay_digest(now, records, window_dropped, owns_key, true, actions);
    }

    /// [`ingest_digest`](Self::ingest_digest) for records stamped on a
    /// foreign clock — a clustered DVLib session's forwarded
    /// `AccessDigest`. Its epochs are never compared with this DV's
    /// ready stamps, so the gap after a blocked record is not sampled.
    pub(crate) fn ingest_forwarded_digest(
        &mut self,
        now: SimTime,
        records: &[AccessRecord],
        window_dropped: u64,
        owns_key: &dyn Fn(u64) -> bool,
        actions: &mut Vec<DvAction>,
    ) {
        self.replay_digest(now, records, window_dropped, owns_key, false, actions);
    }

    fn replay_digest(
        &mut self,
        now: SimTime,
        records: &[AccessRecord],
        window_dropped: u64,
        owns_key: &dyn Fn(u64) -> bool,
        same_clock: bool,
        actions: &mut Vec<DvAction>,
    ) {
        if !self.cfg.prefetch {
            return;
        }
        // Clients whose pre-reset window is being discarded *in this
        // drain* (a pollution reset must not be undone by replaying the
        // history that led to it), and clients already seen in this
        // window (their first gap after a loss is unsampleable).
        // Transitions touch a handful of clients, so linear scans beat
        // sets.
        let mut discarding: Vec<u64> = Vec::new();
        let mut seen: Vec<u64> = Vec::new();
        for r in records {
            if !self.cfg.steps.valid_key(r.key) {
                continue;
            }
            let inputs = self.prefetch_inputs();
            let owned = owns_key(r.key);
            let materialized = self.cache.peek(r.key);
            let state = self.client_mut(r.client);
            if state.discard_digest_window {
                state.discard_digest_window = false;
                discarding.push(r.client);
            }
            let suppressed = discarding.contains(&r.client);
            let first_of_window = if seen.contains(&r.client) {
                false
            } else {
                seen.push(r.client);
                true
            };
            // A gap is a consumption sample only when it starts at a
            // ready point and no records were lost inside it. The ready
            // point is the previous record itself when it was served at
            // once, else the waiter's ready stamp — taken here whenever
            // it is no later than this record, so a stale stamp never
            // starts a later gap. Suppressed records sample too: a
            // pollution reset discards the trajectory, not the client's
            // speed.
            let ready_stamp = if same_clock {
                state.last_ready.take_if(|t| t.as_nanos() <= r.epoch)
            } else {
                None
            };
            let gap_start = match state.last_digest_epoch.replace((r.epoch, r.ready)) {
                Some((prev, true)) => Some(prev),
                Some((prev, false)) => ready_stamp.map(SimTime::as_nanos).filter(|&t| t >= prev),
                None => None,
            };
            let gap = gap_start.map_or(0, |start| r.epoch.saturating_sub(start));
            let lossy_gap = window_dropped > 0 && first_of_window;
            let sampled = gap > 0 && !lossy_gap;
            if sampled {
                state.agent.observe_tau_cli(Dur::from_nanos(gap));
            }
            if suppressed {
                if owned {
                    self.stats.digest_replayed += 1;
                    self.stats.tau_cli_samples += sampled as u64;
                }
                continue;
            }
            let was_planned = state.agent.was_prefetched(r.key);
            let outcome = state.agent.on_access(r.key, &inputs);
            if owned {
                self.stats.digest_replayed += 1;
                self.stats.tau_cli_samples += sampled as u64;
                if was_planned && materialized {
                    self.stats.prefetch_hits += 1;
                }
            }
            self.apply_agent_outcome(r.client, outcome, owns_key, actions, now);
        }
    }

    /// Folds recorder-side digest losses into this DV's counters (the
    /// drains themselves happen in the daemon, outside the DV lock).
    pub fn note_digest_dropped(&mut self, n: u64) {
        self.stats.digest_dropped += n;
    }

    /// Pre-seeds the performance estimators (e.g. from the simulation
    /// context configuration) so prefetching works before the first
    /// observed restart.
    pub fn seed_estimates(&mut self, alpha: Dur, tau_sim: Dur) {
        self.alpha_sim = Ema::with_prior(self.cfg.ema_alpha, alpha);
        self.tau_sim = Ema::with_prior(self.cfg.ema_alpha, tau_sim);
    }

    /// The context configuration.
    pub fn cfg(&self) -> &ContextCfg {
        &self.cfg
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &DvStats {
        &self.stats
    }

    /// The counters, for the member core's rows (leases, priming).
    pub(crate) fn stats_mut(&mut self) -> &mut DvStats {
        &mut self.stats
    }

    /// Cache-level statistics.
    pub fn cache_stats(&self) -> &simcache::CacheStats {
        self.cache.stats()
    }

    /// Is `key` currently materialized?
    pub fn is_cached(&self, key: u64) -> bool {
        self.cache.peek(key)
    }

    /// Pin count of `key` in the cache.
    #[cfg(test)]
    pub(crate) fn pin_count(&self, key: u64) -> u32 {
        self.cache.pin_count(key)
    }

    /// Number of active (launched, unfinished) simulations.
    pub fn active_sims(&self) -> usize {
        self.sims.len()
    }

    /// Number of launches waiting for an `s_max` slot.
    pub fn queued_launches(&self) -> usize {
        self.launch_queue.len()
    }

    /// Number of keys with a registered pending producer (leak probe
    /// for the supervision tests).
    pub fn pending_keys(&self) -> usize {
        self.pending.len()
    }

    /// Number of keys with a non-empty waiter list (leak probe for the
    /// supervision tests).
    pub fn waiting_keys(&self) -> usize {
        self.waiting.len()
    }

    /// Number of intervals currently inside a quarantine window.
    pub fn quarantined_intervals(&self, now: SimTime) -> usize {
        self.retry
            .values()
            .filter(|r| r.quarantined_until.is_some_and(|u| now < u))
            .count()
    }

    /// Runs the supervision timers: kills sims stalled past their
    /// hang deadline (handing them to the retry machinery), expires
    /// quarantines, and drains launch-queue entries whose backoff
    /// deadline has passed. Front-ends call this from their periodic
    /// tick (the daemon's reaper, the harness's scheduled wake-ups);
    /// [`next_due`](Self::next_due) says when the next call matters.
    pub fn tick(&mut self, now: SimTime, actions: &mut Vec<DvAction>) {
        lockrank::assert_none_held_below(lockrank::DV.level, "DataVirtualizer::tick");
        let mut stalled = std::mem::take(&mut self.kill_scratch);
        stalled.clear();
        for (&sim, s) in self.sims.iter() {
            if now >= self.sim_deadline(s) {
                stalled.push(sim);
            }
        }
        for &sim in &stalled {
            self.stats.sims_hung_killed += 1;
            actions.push(DvAction::Kill { sim });
            self.fail_sim(sim, FailCode::HangKilled, now, actions);
        }
        stalled.clear();
        self.kill_scratch = stalled;
        // Expired quarantines reset their interval's budget even
        // without an acquire to observe it — prefetches into the
        // interval are gated on this map.
        self.retry
            .retain(|_, r| r.quarantined_until.is_none_or(|u| now < u));
        self.drain_launch_queue(actions, now);
    }

    /// Earliest supervision deadline (backoff expiry, hang deadline,
    /// quarantine expiry), if any: when the front-end should call
    /// [`tick`](Self::tick) again absent other events. A deadline that
    /// has already lapsed (time advanced between ticks) reports as due
    /// `now` — never `None`, which would let an event-less front-end
    /// park forever over ready work. Queue entries with no backoff
    /// stamp are excluded: they are slot-blocked, and the SimFinished
    /// that frees the slot drains them without a timer.
    pub fn next_due(&self, now: SimTime) -> Option<SimTime> {
        let mut due: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            let t = t.max(now);
            due = Some(due.map_or(t, |d| d.min(t)));
        };
        for q in &self.launch_queue {
            if q.not_before != SimTime::ZERO {
                consider(q.not_before);
            }
        }
        for s in self.sims.values() {
            consider(self.sim_deadline(s));
        }
        for r in self.retry.values() {
            if let Some(u) = r.quarantined_until {
                consider(u);
            }
        }
        due
    }

    /// The instant after which `s` counts as hung: last progress plus
    /// the relevant estimate (restart latency before the first sign of
    /// life, inter-production time after) scaled and clamped by the
    /// supervisor knobs — but never less than [`MIN_HANG_MULTIPLE`] times
    /// the estimate, so a ceiling below a slow simulator's own restart
    /// latency cannot kill every attempt before it starts.
    fn sim_deadline(&self, s: &SimState) -> SimTime {
        let sup = &self.cfg.supervisor;
        let est = if s.started {
            self.tau_sim.estimate_or(Dur::from_secs(1))
        } else {
            self.alpha_sim.estimate_or(Dur::from_secs(1))
        };
        let window = est
            .mul_f64(sup.hang_multiplier.max(1.0))
            .max(sup.hang_floor)
            .min(sup.hang_ceiling)
            .max(est.saturating_mul(MIN_HANG_MULTIPLE));
        s.last_progress.saturating_add(window)
    }

    /// Current restart-latency estimate.
    pub fn alpha_estimate(&self) -> Option<Dur> {
        self.alpha_sim.estimate()
    }

    /// Current inter-production estimate.
    pub fn tau_estimate(&self) -> Option<Dur> {
        self.tau_sim.estimate()
    }

    /// Estimated wait until `key` becomes available (the
    /// `SIMFS_Status` estimate of §III-C), `None` if nothing is
    /// producing it.
    pub fn estimate_wait(&self, key: u64) -> Option<Dur> {
        let sim_id = self.pending.get(&key)?;
        let sim = &self.sims[sim_id];
        let tau = self.tau_sim.estimate_or(Dur::from_secs(1));
        let remaining_steps = key.saturating_sub(sim.next_key) + 1;
        let production = tau.saturating_mul(remaining_steps);
        if sim.started {
            Some(production)
        } else {
            Some(self.alpha_sim.estimate_or(Dur::ZERO) + production)
        }
    }

    /// Registers an output step that already exists on disk (daemon
    /// startup over a populated storage area). Returns the keys evicted
    /// if the priming overflows the budget — the caller should delete
    /// those files.
    pub fn prime(&mut self, key: u64, size: u64) -> Vec<u64> {
        if !self.cfg.steps.valid_key(key) || self.cache.contains(key) {
            return Vec::new();
        }
        let cost = self.cfg.steps.miss_cost(key);
        self.cache.insert(key, size, cost)
    }

    /// Re-establishes one pin count recorded in the write-ahead log
    /// after a restart: pins `key` for `client` iff it is materialized
    /// (recovery re-primes the cache from the storage area first).
    /// Never launches — a pin on unmaterialized data cannot be proven
    /// still wanted; the client's re-assertion (or a fresh acquire)
    /// re-establishes intent. Returns whether the pin was restored and
    /// counts `pins_recovered` when it was.
    pub fn restore_pin(&mut self, client: ClientId, key: u64) -> bool {
        let restored = self.pin_resident(client, key);
        if restored {
            self.stats.pins_recovered += 1;
        }
        restored
    }

    /// Pins `key` for `client` iff it is materialized, with no event,
    /// no notification and no launch: the pin a recovered member
    /// restores from its journal, or re-grants at a reassert.
    pub(crate) fn pin_resident(&mut self, client: ClientId, key: u64) -> bool {
        if !self.cfg.steps.valid_key(key) || !self.cache.peek(key) {
            return false;
        }
        self.cache.pin(key);
        *self.client_mut(client).pins.entry(key).or_insert(0) += 1;
        true
    }

    /// Vetoes the eviction of every step materialized now until
    /// [`release_hold`](Self::release_hold) (a recovery's hold; steps
    /// produced meanwhile stay evictable). Returns the steps held.
    pub(crate) fn hold_resident(&mut self) -> usize {
        self.cache.hold_resident()
    }

    /// Lifts [`hold_resident`](Self::hold_resident)'s veto.
    pub(crate) fn release_hold(&mut self) {
        self.cache.release_hold();
    }

    /// Moves one pin count on `key` from `from` to `to` — the
    /// re-assertion transfer: a reconnecting client (new id `to`)
    /// claims a pin the WAL recovery restored under its prior id
    /// `from`. The cache pin count is untouched (the pin itself
    /// persists; only its owner changes). Returns whether `from`
    /// actually held a pin to transfer.
    pub fn transfer_pin(&mut self, from: ClientId, to: ClientId, key: u64) -> bool {
        let held = match self.clients.get_mut(&from) {
            Some(state) => match state.pins.get_mut(&key) {
                Some(n) if *n > 1 => {
                    *n -= 1;
                    true
                }
                Some(_) => {
                    state.pins.remove(&key);
                    true
                }
                None => false,
            },
            None => false,
        };
        if held {
            *self.client_mut(to).pins.entry(key).or_insert(0) += 1;
        }
        held
    }

    fn prefetch_inputs(&self) -> PrefetchInputs {
        PrefetchInputs {
            alpha: self.alpha_sim.estimate_or(Dur::ZERO),
            tau_sim: self.tau_sim.estimate_or(Dur::from_secs(1)),
            steps: self.cfg.steps,
            smax: self.cfg.smax,
            ramp: self.cfg.prefetch_ramp,
        }
    }

    fn client_mut(&mut self, id: ClientId) -> &mut ClientState {
        let ema = self.cfg.ema_alpha;
        self.clients.entry(id).or_insert_with(|| ClientState {
            agent: PrefetchAgent::new(ema),
            pins: u64_map(),
            last_ready: None,
            last_digest_epoch: None,
            discard_digest_window: false,
        })
    }

    /// Enqueues (or directly emits) a launch covering `keys`, skipping
    /// keys already cached or pending. Splits at covered keys so only
    /// genuinely missing spans are produced? No — re-simulations produce
    /// whole contiguous ranges (the simulator cannot skip timesteps), so
    /// the range is launched as soon as at least one key is uncovered.
    fn request_launch(
        &mut self,
        keys: RangeInclusive<u64>,
        level: u32,
        reason: LaunchReason,
        client: Option<ClientId>,
        actions: &mut Vec<DvAction>,
        now: SimTime,
    ) {
        let uncovered = (*keys.start()..=*keys.end())
            .any(|k| !self.cache.peek(k) && !self.pending.contains_key(&k));
        if !uncovered {
            return;
        }
        // Poison gate: speculative launches must not touch a
        // quarantined interval (a prefetch retrying a poisoned range
        // would be exactly the retry storm the quarantine breaks).
        // Demand launches cannot get here — `on_acquire`
        // short-circuits them first.
        if reason == LaunchReason::Prefetch
            && (*keys.start()..=*keys.end()).any(|k| self.quarantined(k, now))
        {
            return;
        }
        self.launch_queue.push_back(QueuedLaunch {
            keys,
            level,
            reason,
            client,
            not_before: SimTime::ZERO,
        });
        self.drain_launch_queue(actions, now);
    }

    /// Is `key`'s interval inside a live quarantine window?
    fn quarantined(&self, key: u64, now: SimTime) -> bool {
        self.retry
            .get(&self.cfg.steps.interval_of(key))
            .and_then(|r| r.quarantined_until)
            .is_some_and(|until| now < until)
    }

    /// Does a queued *demand* launch cover `key`? Miss entries are
    /// never purged (only prefetches are, on direction changes), so
    /// they count as coverage: a fresh miss on a key whose retry is
    /// parked in backoff must add a waiter, not a duplicate launch.
    fn queued_miss_covers(&self, key: u64) -> bool {
        self.launch_queue
            .iter()
            .any(|q| q.reason == LaunchReason::Miss && q.keys.contains(&key))
    }

    fn drain_launch_queue(&mut self, actions: &mut Vec<DvAction>, now: SimTime) {
        // Entries inspected and re-parked this pass (backoff deadline
        // still in the future): bounds the rotation.
        let mut parked = 0usize;
        while self.sims.len() < self.cfg.smax as usize && parked < self.launch_queue.len() {
            let Some(q) = self.launch_queue.pop_front() else {
                break;
            };
            if q.not_before > now {
                self.launch_queue.push_back(q);
                parked += 1;
                continue;
            }
            // Re-check coverage: productions may have landed meanwhile.
            let uncovered = (*q.keys.start()..=*q.keys.end())
                .any(|k| !self.cache.peek(k) && !self.pending.contains_key(&k));
            if !uncovered {
                continue;
            }
            let sim = self.next_sim;
            self.next_sim += self.sim_stride;
            // Claim the range as this sim's pending production (cached
            // keys included — the simulator re-produces its whole range
            // and refreshes their files). First producer wins;
            // overlapping ranges refresh files but only one sim is "the"
            // pending producer. Count claimed keys with live waiters for
            // the O(1) kill check.
            let mut waited_keys = 0u32;
            for k in *q.keys.start()..=*q.keys.end() {
                let std::collections::hash_map::Entry::Vacant(e) = self.pending.entry(k)
                else {
                    continue;
                };
                e.insert(sim);
                if self.waiting.get(&k).is_some_and(|w| !w.is_empty()) {
                    waited_keys += 1;
                }
            }
            let n_keys = q.keys.end() - q.keys.start() + 1;
            self.stats.restarts += 1;
            self.stats.scheduled_steps += n_keys;
            if q.reason == LaunchReason::Prefetch {
                self.stats.prefetch_launches += 1;
                if !covers_whole_interval(&self.cfg.steps, &q.keys) {
                    self.stats.prefetch_partial_launches += 1;
                }
                if let Some(c) = q.client {
                    self.prefetches_by_client.entry(c).or_default().push(sim);
                }
            }
            self.sims.insert(
                sim,
                SimState {
                    keys: q.keys.clone(),
                    next_key: *q.keys.start(),
                    reason: q.reason,
                    client: q.client,
                    launched_at: now,
                    started: false,
                    production: IntervalTracker::new(self.cfg.ema_alpha),
                    waited_keys,
                    last_progress: now,
                },
            );
            actions.push(DvAction::Launch {
                sim,
                keys: q.keys,
                level: q.level,
                reason: q.reason,
            });
        }
    }

    /// Registers `client` as blocked on `key`, keeping the per-sim
    /// waited-key counter in sync.
    fn add_waiter(&mut self, key: u64, client: ClientId) {
        let list = self.waiting.entry(key).or_default();
        let was_empty = list.is_empty();
        list.push(client);
        if was_empty {
            if let Some(&sim) = self.pending.get(&key) {
                if let Some(s) = self.sims.get_mut(&sim) {
                    s.waited_keys += 1;
                }
            }
        }
    }

    /// Removes and returns `key`'s waiter list, keeping the per-sim
    /// waited-key counter in sync. Call *before* removing the key's
    /// `pending` entry so the producing sim is still resolvable.
    fn take_waiters(&mut self, key: u64) -> Vec<ClientId> {
        let waiters = self.waiting.remove(&key).unwrap_or_default();
        if !waiters.is_empty() {
            if let Some(&sim) = self.pending.get(&key) {
                if let Some(s) = self.sims.get_mut(&sim) {
                    s.waited_keys = s.waited_keys.saturating_sub(1);
                }
            }
        }
        waiters
    }

    /// Kills the prefetch simulations launched for `client` that no one
    /// is waiting on (§IV-C: "a simulation can be killed only if there
    /// are no other analyses waiting for the files that are going to be
    /// produced by it"). The per-client index plus the per-sim
    /// waited-key counters make this O(victims), not O(sims × keys).
    ///
    /// Deliberate narrowing vs. a full range scan: `waited_keys` counts
    /// only keys this sim is *the* registered pending producer of. When
    /// production ranges overlap, a sim whose claim on a waited key
    /// lost to another producer is killable even though it would also
    /// have produced that key. The waiter stays safe — its registered
    /// producer cannot be killed, and its failure notifies the waiter —
    /// but the redundant overlap sim no longer doubles as a fallback.
    fn kill_client_prefetches(
        &mut self,
        client: ClientId,
        actions: &mut Vec<DvAction>,
        now: SimTime,
    ) {
        let mut victims = std::mem::take(&mut self.kill_scratch);
        victims.clear();
        if let Some(sims) = self.prefetches_by_client.get(&client) {
            for &sim in sims {
                if self.sims.get(&sim).is_some_and(|s| s.waited_keys == 0) {
                    victims.push(sim);
                }
            }
        }
        for &sim in &victims {
            self.remove_sim(sim);
            self.stats.kills += 1;
            actions.push(DvAction::Kill { sim });
        }
        victims.clear();
        self.kill_scratch = victims;
        // Drop queued prefetches for this client as well.
        self.launch_queue.retain(|q| {
            !(q.reason == LaunchReason::Prefetch && q.client == Some(client))
        });
        // The kills freed s_max slots: deferred launches (e.g. the miss
        // that accompanied this very direction change) must start now —
        // no SimFinished will ever arrive from the killed sims to drain
        // the queue otherwise.
        self.drain_launch_queue(actions, now);
    }

    /// A production attempt failed (crash, watchdog kill, corrupt
    /// output): the supervision tier decides between retry, drop, and
    /// poison. See the module doc's state machine.
    fn fail_sim(&mut self, sim: SimId, cause: FailCode, now: SimTime, actions: &mut Vec<DvAction>) {
        let Some(state) = self.sims.remove(&sim) else {
            return;
        };
        self.stats.failures += 1;
        self.unindex_prefetch(&state, sim);
        // Release the sim's pending claims; remember whether any
        // released key has live waiters (a prefetch someone caught up
        // with is demand work now).
        let mut waited = false;
        for k in *state.keys.start()..=*state.keys.end() {
            if self.pending.get(&k) == Some(&sim) {
                self.pending.remove(&k);
                if self.waiting.get(&k).is_some_and(|w| !w.is_empty()) {
                    waited = true;
                }
            }
        }
        let demand = state.reason == LaunchReason::Miss || waited;
        if !demand {
            // Speculative failure: drop. The slot it frees may unblock
            // queued work.
            self.drain_launch_queue(actions, now);
            return;
        }
        let interval = self.cfg.steps.interval_of(*state.keys.start());
        let sup = self.cfg.supervisor;
        let entry = self.retry.entry(interval).or_insert(RetryState {
            attempts: 0,
            last_cause: cause,
            quarantined_until: None,
        });
        entry.attempts += 1;
        entry.last_cause = cause;
        let attempts = entry.attempts;
        if attempts < sup.attempt_budget {
            // Retry: park the range on the queue behind a backoff
            // deadline. Waiters stay registered — the retried launch
            // re-claims their keys when it drains.
            self.stats.sim_retries += 1;
            let delay = backoff_delay(&sup, interval, attempts);
            self.launch_queue.push_back(QueuedLaunch {
                keys: state.keys.clone(),
                level: 0,
                reason: LaunchReason::Miss,
                client: state.client,
                not_before: now.saturating_add(delay),
            });
            self.drain_launch_queue(actions, now);
            return;
        }
        // Budget exhausted: poison the interval. Waiters on its keys
        // get a typed failure coloured by the terminal cause; the
        // quarantine short-circuits everything after them.
        entry.quarantined_until = Some(now.saturating_add(sup.quarantine));
        self.stats.intervals_poisoned += 1;
        let verdict = match cause {
            FailCode::HangKilled => FailCode::HangKilled,
            FailCode::CorruptOutput => FailCode::CorruptOutput,
            _ => FailCode::Poisoned,
        };
        let reason = format!(
            "interval {interval} poisoned: {} production attempts failed (last: {})",
            attempts,
            cause.as_str()
        );
        let keys = self.cfg.steps.interval_keys(interval);
        for k in *keys.start()..=*keys.end() {
            // A key another live sim still claims keeps its waiters —
            // that producer may yet deliver.
            if self.pending.contains_key(&k) {
                continue;
            }
            for c in self.take_waiters(k) {
                actions.push(DvAction::NotifyFailed {
                    client: c,
                    key: k,
                    code: verdict,
                    reason: reason.clone(),
                });
            }
        }
        // Purge parked retries of the poisoned interval (there can be
        // stale ones when overlapping ranges failed at different
        // times); prefetches into it are refused at request time.
        let steps = self.cfg.steps;
        self.launch_queue.retain(|q| {
            !(q.reason == LaunchReason::Miss && steps.interval_of(*q.keys.start()) == interval)
        });
        self.drain_launch_queue(actions, now);
    }

    /// Removes a sim: its `sims` entry, its pending productions (walking
    /// only its own key range — `pending` is the key→sim index) and its
    /// slot in the per-client prefetch index. Waiter notification is the
    /// caller's job.
    fn remove_sim(&mut self, sim: SimId) -> Option<SimState> {
        let state = self.sims.remove(&sim)?;
        for k in *state.keys.start()..=*state.keys.end() {
            if self.pending.get(&k) == Some(&sim) {
                self.pending.remove(&k);
            }
        }
        self.unindex_prefetch(&state, sim);
        Some(state)
    }

    /// Applies a prefetch plan coming out of an agent, restricted to
    /// the keys this DV owns: plan blocks are split at ownership
    /// boundaries (interval-granular, like all routing) and only the
    /// owned runs launch here — the other cluster members, replaying the
    /// same forwarded digest, launch theirs. Direction-change kills
    /// always apply: each member kills its own prefetch sims for the
    /// client.
    fn apply_agent_outcome(
        &mut self,
        client: ClientId,
        outcome: crate::prefetch::AgentOutcome,
        owns_key: &dyn Fn(u64) -> bool,
        actions: &mut Vec<DvAction>,
        now: SimTime,
    ) {
        if outcome.direction_changed {
            self.kill_client_prefetches(client, actions, now);
        }
        let Some(plan) = outcome.plan else { return };
        let level = plan.level.min(self.cfg.parallelism.max_level);
        for block in plan.blocks {
            for run in owned_runs(&self.cfg.steps, block, owns_key) {
                self.request_launch(
                    run,
                    level,
                    LaunchReason::Prefetch,
                    Some(client),
                    actions,
                    now,
                );
            }
        }
    }

    /// Handles one event; returns the actions the front-end must apply.
    ///
    /// Thin allocating wrapper over [`handle_into`](Self::handle_into) —
    /// hot front-ends (the daemon, the virtual harness, replay loops)
    /// should hold a scratch buffer and call `handle_into` to avoid one
    /// `Vec` allocation per event.
    pub fn handle(&mut self, now: SimTime, event: DvEvent) -> Vec<DvAction> {
        let mut actions = Vec::new();
        self.handle_into(now, event, &mut actions);
        actions
    }

    /// Handles one event, appending the actions the front-end must
    /// apply to `actions` (which is *not* cleared — callers owning the
    /// buffer clear it between transitions).
    pub fn handle_into(&mut self, now: SimTime, event: DvEvent, actions: &mut Vec<DvAction>) {
        // Legal with no locks held (harness use) or under exactly the
        // context's DV lock (daemon use) — never while an inner-tier
        // lock (WAL, ledger, pin-slots) is held, since eviction inside
        // this call re-enters the hit-index tier.
        lockrank::assert_none_held_below(lockrank::DV.level, "DataVirtualizer::handle_into");
        match event {
            DvEvent::Acquire { client, key } => {
                self.on_acquire(client, key, now, actions);
            }
            DvEvent::Release { client, key } => {
                let state = self.client_mut(client);
                match state.pins.get_mut(&key) {
                    Some(n) if *n > 1 => {
                        *n -= 1;
                        self.cache.unpin(key);
                    }
                    Some(_) => {
                        state.pins.remove(&key);
                        self.cache.unpin(key);
                    }
                    None => {
                        // Release of something never pinned: protocol
                        // misuse; tolerated (client may release after a
                        // failed acquire).
                    }
                }
            }
            DvEvent::SimStarted { sim } => {
                if let Some(s) = self.sims.get_mut(&sim) {
                    s.last_progress = now;
                    if !s.started {
                        s.started = true;
                        let latency = now.saturating_since(s.launched_at);
                        self.alpha_sim.observe(latency);
                    }
                }
            }
            DvEvent::FileProduced { sim, key, size } => {
                self.on_file_produced(sim, key, size, now, actions);
            }
            DvEvent::SimFinished { sim } => {
                // A finished sim has normally produced (and so cleared
                // the `pending` entry of) every key it claimed. One
                // that finishes in violation of that contract is a
                // failed production attempt: the supervisor retries it
                // (waiters stay parked) or poisons the interval.
                let violated = self.sims.get(&sim).is_some_and(|s| {
                    (*s.keys.start()..=*s.keys.end())
                        .any(|k| self.pending.get(&k) == Some(&sim))
                });
                if violated {
                    self.fail_sim(sim, FailCode::Retriable, now, actions);
                } else {
                    self.remove_sim(sim);
                    self.drain_launch_queue(actions, now);
                }
            }
            DvEvent::SimFailed { sim } => {
                self.fail_sim(sim, FailCode::Retriable, now, actions);
            }
            DvEvent::OutputCorrupt { sim, key } => {
                self.stats.corrupt_outputs += 1;
                // The producer may still be alive, writing more junk:
                // kill it, then let the supervisor decide retry/poison.
                // An unknown sim (already reaped or killed) has nothing
                // to supervise beyond the count — `key`'s claim, if
                // any, belongs to a sim this DV does know.
                if self.sims.contains_key(&sim) {
                    actions.push(DvAction::Kill { sim });
                    self.fail_sim(sim, FailCode::CorruptOutput, now, actions);
                } else {
                    let _ = key;
                }
            }
            DvEvent::ClientGone { client } => {
                if let Some(state) = self.clients.remove(&client) {
                    for (key, pins) in state.pins {
                        for _ in 0..pins {
                            self.cache.unpin(key);
                        }
                    }
                }
                // Strip the departed client from every waiter list,
                // releasing per-sim waited-key counts for lists that
                // empty out (no list in `waiting` is ever empty, so
                // emptying one is exactly one count to release).
                let DataVirtualizer {
                    waiting,
                    pending,
                    sims,
                    ..
                } = self;
                waiting.retain(|key, list| {
                    list.retain(|&c| c != client);
                    if !list.is_empty() {
                        return true;
                    }
                    if let Some(&sim) = pending.get(key) {
                        if let Some(s) = sims.get_mut(&sim) {
                            s.waited_keys = s.waited_keys.saturating_sub(1);
                        }
                    }
                    false
                });
                self.kill_client_prefetches(client, actions, now);
            }
        }
    }

    /// Drops `sim` from the per-client prefetch index (after its
    /// `SimState` was removed from `sims` by hand).
    fn unindex_prefetch(&mut self, state: &SimState, sim: SimId) {
        if state.reason != LaunchReason::Prefetch {
            return;
        }
        let Some(c) = state.client else { return };
        if let Some(list) = self.prefetches_by_client.get_mut(&c) {
            if let Some(pos) = list.iter().position(|&s| s == sim) {
                list.swap_remove(pos);
            }
            if list.is_empty() {
                self.prefetches_by_client.remove(&c);
            }
        }
    }

    fn on_acquire(
        &mut self,
        client: ClientId,
        key: u64,
        now: SimTime,
        actions: &mut Vec<DvAction>,
    ) {
        if !self.cfg.steps.valid_key(key) {
            actions.push(DvAction::NotifyFailed {
                client,
                key,
                code: FailCode::Other,
                reason: format!(
                    "key {key} outside the timeline 1..={}",
                    self.cfg.steps.n_outputs()
                ),
            });
            return;
        }

        // Acquires neither feed the agents nor sample tau_cli: the
        // recorded stream replays through `ingest_digest`, and a blocked
        // request's ready stamp waits for the replay to take it.
        if self.cache.access(key) {
            self.stats.hits += 1;
            self.cache.pin(key);
            *self.client_mut(client).pins.entry(key).or_insert(0) += 1;
            actions.push(DvAction::NotifyReady { client, key });
            return;
        }

        self.stats.misses += 1;

        // Poison quarantine: a miss inside a quarantined interval gets
        // an immediate typed failure — no waiter, no launch, no retry
        // storm. (Hits above still serve: poison gates production, not
        // residency.) An expired quarantine clears here, resetting the
        // interval's attempt budget.
        let interval = self.cfg.steps.interval_of(key);
        if let Some(r) = self.retry.get(&interval) {
            if let Some(until) = r.quarantined_until {
                if now < until {
                    let attempts = r.attempts;
                    let verdict = match r.last_cause {
                        FailCode::HangKilled => FailCode::HangKilled,
                        FailCode::CorruptOutput => FailCode::CorruptOutput,
                        _ => FailCode::Poisoned,
                    };
                    actions.push(DvAction::NotifyFailed {
                        client,
                        key,
                        code: verdict,
                        reason: format!(
                            "interval {interval} quarantined: {attempts} production \
                             attempts failed (last: {})",
                            r.last_cause.as_str()
                        ),
                    });
                    return;
                }
                self.retry.remove(&interval);
            }
        }

        // Pollution detection (§IV-C): a miss on a step this client's
        // own agent prefetched *and nobody is producing* means it was
        // produced and evicted before use — reset every agent. A
        // prefetched step still in production is not pollution, just an
        // analysis that caught up with the simulation.
        let polluted = !self.pending.contains_key(&key)
            && self
                .clients
                .get(&client)
                .is_some_and(|c| c.agent.was_prefetched(key));
        if polluted {
            self.stats.pollution_resets += 1;
            for c in self.clients.values_mut() {
                c.agent.reset();
                // The next replayed window predates this reset.
                c.discard_digest_window = true;
            }
        }

        self.add_waiter(key, client);

        // A queued Miss entry (an `s_max`-deferred launch or a parked
        // retry) counts as coverage: piggyback on it instead of
        // enqueueing a duplicate — and, for retries, instead of
        // bypassing the backoff.
        let covered = self.pending.contains_key(&key) || self.queued_miss_covers(key);
        if !covered {
            let range = self.cfg.steps.resim_range(key);
            let level = self
                .clients
                .get(&client)
                .map_or(0, |c| c.agent.level())
                .min(self.cfg.parallelism.max_level);
            // Inform the agent of the coverage this miss will create so
            // its trigger math sees the right frontier.
            if self.cfg.prefetch {
                let state = self.client_mut(client);
                if let Some(dir) = state.agent.direction() {
                    let frontier = match dir {
                        Direction::Forward => *range.end(),
                        Direction::Backward => *range.start(),
                    };
                    state.agent.note_planned(dir, frontier);
                } else {
                    state
                        .agent
                        .note_planned(Direction::Forward, *range.end());
                }
            }
            self.request_launch(range, level, LaunchReason::Miss, Some(client), actions, now);
        }
    }

    fn on_file_produced(
        &mut self,
        sim: SimId,
        key: u64,
        size: u64,
        now: SimTime,
        actions: &mut Vec<DvAction>,
    ) {
        self.stats.produced_steps += 1;
        if let Some(s) = self.sims.get_mut(&sim) {
            s.last_progress = now;
            if !s.started {
                // Front-ends that do not report SimStarted separately:
                // the first production marks the start.
                s.started = true;
                self.alpha_sim.observe(now.saturating_since(s.launched_at));
            }
            s.production.mark(now);
            if let Some(tau) = s.production.estimate() {
                self.tau_sim.observe(tau);
            }
            s.next_key = key + 1;
        }
        // A successful production clears its interval's retry record:
        // fresh attempt budget, and an active quarantine lifts early
        // when a foreign producer (an overlapping prefetch block)
        // covers the poisoned range after all.
        self.retry.remove(&self.cfg.steps.interval_of(key));
        // Take the waiters while `pending[key]` still names its producer
        // (the waited-key counters resolve through it), then clear the
        // pending entry.
        let waiters = self.take_waiters(key);
        if self.pending.get(&key) == Some(&sim) {
            self.pending.remove(&key);
        }

        if !self.cache.contains(key) {
            let cost = self.cfg.steps.miss_cost(key);
            let evicted = self
                .cache
                .insert_pinned(key, size, cost, waiters.len() as u32);
            for e in evicted {
                // The fresh step itself may be the victim when every
                // other resident step is pinned and nobody waits on it
                // (a speculative interval step under extreme pin
                // pressure): produced, written, immediately dropped.
                // With waiters it enters pinned and cannot be chosen.
                debug_assert!(e != key || waiters.is_empty());
                self.stats.evictions += 1;
                let dropped = self.take_waiters(e);
                debug_assert!(dropped.is_empty(), "evicted a waited-on step");
                actions.push(DvAction::Evict { key: e });
            }
        } else {
            // Refresh of an already-materialized step (overlapping
            // production): pin for the new waiters.
            for _ in &waiters {
                self.cache.pin(key);
            }
        }
        for c in &waiters {
            let state = self.client_mut(*c);
            *state.pins.entry(key).or_insert(0) += 1;
            state.last_ready = Some(now);
            actions.push(DvAction::NotifyReady { client: *c, key });
        }
    }
}

/// Backoff before retry attempt `attempt` (1-based) of `interval`:
/// `base · 2^(attempt-1)` capped, with deterministic ±25 % jitter from
/// an FNV-1a hash of `(interval, attempt)` — deterministic so virtual
/// replays are bit-reproducible, spread so a cluster-wide outage does
/// not re-launch every interval on the same tick.
fn backoff_delay(sup: &crate::model::SupervisorCfg, interval: u64, attempt: u32) -> Dur {
    let base = sup.backoff_base.as_nanos().max(1);
    let exp = base.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(32));
    let capped = exp.min(sup.backoff_cap.as_nanos().max(1));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in interval.to_le_bytes().into_iter().chain(attempt.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let span = capped / 4;
    let jitter = if span == 0 { 0 } else { h % (2 * span + 1) };
    Dur::from_nanos(capped - span + jitter)
}

/// Does `keys` contain every key of at least one restart interval (the
/// last interval clamped to the timeline)?
fn covers_whole_interval(steps: &StepMath, keys: &RangeInclusive<u64>) -> bool {
    let b = steps.outputs_per_interval();
    let first_whole = (*keys.start() - 1).div_ceil(b);
    first_whole < steps.n_intervals() && *steps.interval_keys(first_whole).end() <= *keys.end()
}

/// Splits `block` into its maximal sub-ranges of owned keys. Ownership
/// is interval-granular everywhere in SimFS (cluster members own whole
/// restart intervals, [`member_of_key`]), so the walk advances one
/// interval at a time and merges consecutive owned intervals back into
/// one run — under full ownership the block comes back whole, and a
/// launch can never claim a key its DV does not own.
fn owned_runs(
    steps: &StepMath,
    block: RangeInclusive<u64>,
    owns_key: &dyn Fn(u64) -> bool,
) -> Vec<RangeInclusive<u64>> {
    let (lo, hi) = (*block.start(), *block.end());
    let mut runs = Vec::new();
    let mut current: Option<(u64, u64)> = None;
    let last = steps.interval_of(hi);
    let mut j = steps.interval_of(lo);
    loop {
        let keys = steps.interval_keys(j);
        let start = lo.max(*keys.start());
        let end = hi.min(*keys.end());
        if start <= end {
            if owns_key(start) {
                current = match current {
                    Some((run_start, run_end)) if run_end + 1 == start => {
                        Some((run_start, end))
                    }
                    Some((run_start, run_end)) => {
                        runs.push(run_start..=run_end);
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            } else if let Some((run_start, run_end)) = current.take() {
                runs.push(run_start..=run_end);
            }
        }
        if j == last {
            break;
        }
        j += 1;
    }
    if let Some((run_start, run_end)) = current {
        runs.push(run_start..=run_end);
    }
    runs
}

/// The cluster member owning `key`'s restart interval in a
/// `size`-member cluster: interval `j` belongs to member `j % size`.
/// The one interval hash of SimFS — [`ClusterMember::owns_key`], the
/// members' ownership rule and DVLib's routing all call it.
///
/// The granularity is the *restart interval*, not the raw key: a
/// re-simulation always produces a contiguous interval
/// ([`StepMath::resim_range`]), so interval-granular routing keeps each
/// launch — its pending claims, its waiters, its productions — inside
/// one member. Raw `key % size` would scatter every launch across all
/// members. Invalid keys belong to member 0, which rejects them with
/// the usual timeline error.
pub(crate) fn member_of_key(steps: &StepMath, size: u32, key: u64) -> u32 {
    if !steps.valid_key(key) {
        return 0;
    }
    (steps.interval_of(key) % size.max(1) as u64) as u32
}

/// The per-member context slice: capacity is partitioned evenly and
/// `s_max` divided (floored at one running sim per member, so a cluster
/// larger than `s_max` runs more sims at once than `s_max` allows).
pub fn shard_cfg(cfg: &ContextCfg, n: u32) -> ContextCfg {
    let n = n.max(1);
    let mut cfg = cfg.clone();
    cfg.cache_capacity /= n as u64;
    cfg.smax = (cfg.smax / n).max(1);
    cfg
}

/// Position of one daemon in a multi-daemon cluster. Member `index` of
/// `size` owns the restart intervals with `interval % size == index`
/// ([`owns_key`](Self::owns_key)), runs one DV on the `1/size` context
/// slice of [`shard_cfg`] ([`DataVirtualizer::for_member`]), and
/// allocates sim ids from its own residue class of the cluster-wide
/// stride so every daemon recovers sim owners arithmetically with no
/// shared state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterMember {
    /// This daemon's index (`0..size`).
    pub index: u32,
    /// Total daemons in the cluster.
    pub size: u32,
}

impl ClusterMember {
    /// The unclustered singleton: member 0 of 1.
    pub const SOLO: ClusterMember = ClusterMember { index: 0, size: 1 };

    /// Member `index` of a `size`-daemon cluster.
    ///
    /// # Panics
    /// Panics unless `index < size` (which also forces `size >= 1`).
    pub fn new(index: u32, size: u32) -> ClusterMember {
        assert!(index < size, "cluster index {index} out of range 0..{size}");
        ClusterMember { index, size }
    }

    /// True for real clusters (`size > 1`).
    pub fn is_clustered(&self) -> bool {
        self.size > 1
    }

    /// Does this member own `key`'s restart interval? Invalid keys
    /// belong to member 0, which rejects them with the timeline error.
    pub fn owns_key(&self, steps: &StepMath, key: u64) -> bool {
        member_of_key(steps, self.size, key) == self.index
    }
}

impl Default for ClusterMember {
    fn default() -> ClusterMember {
        ClusterMember::SOLO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StepMath;

    fn cfg(cache_steps: u64) -> ContextCfg {
        // B = 4 outputs per restart interval, N = 40.
        let steps = StepMath::new(1, 4, 40);
        ContextCfg::new("test", steps, 100, cache_steps * 100)
            .with_policy("lru")
            .with_smax(4)
            .with_prefetch(false)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The counter table's generated pieces agree with each other over
    /// every field: a distinct value per counter survives the
    /// iterator, `accumulate`, `delta` and the daemon mirror.
    #[test]
    fn stats_registry_pieces_agree_over_all_fields() {
        let a = DvStats::from_fn(|i| i as u64 + 1);
        let b = DvStats::from_fn(|i| 1000 * (i as u64 + 1));
        let names: Vec<&str> = a.iter().map(|(name, _)| name).collect();
        assert_eq!(names, DvStats::FIELDS);
        let n = DvStats::FIELDS.len() as u64;
        let values = |s: &DvStats| s.iter().map(|(_, v)| v).collect::<Vec<u64>>();
        assert_eq!(values(&a), (1..=n).collect::<Vec<u64>>());

        let mut sum = a.clone();
        sum.accumulate(&b);
        assert_eq!(values(&sum), (1..=n).map(|v| 1001 * v).collect::<Vec<u64>>());
        assert_eq!(sum.delta(&b), a);
        assert_eq!(sum.delta(&a), b);
        assert_eq!(a.delta(&sum), DvStats::default(), "delta saturates at zero");

        // The mirror carries exactly the `daemon` rows: stored from
        // `b`, its overlay onto `a` rewrites those fields to `b`'s
        // values and leaves every other field alone.
        let mirror = DaemonCounters::default();
        mirror.store(&b);
        let mut snap = a.clone();
        mirror.overlay(&mut snap);
        for ((name, got), (kept, mirrored)) in snap.iter().zip(values(&a).into_iter().zip(values(&b))) {
            assert!(got == kept || got == mirrored, "{name}: {got}");
        }
        assert_eq!(snap.lock_wait_ns, b.lock_wait_ns, "daemon row is mirrored");
        assert_eq!(snap.effect_read_ops, b.effect_read_ops, "daemon row is mirrored");
        assert_eq!(snap.hits, a.hits, "dv row is not");
        assert_eq!(snap.wal_syncs, a.wal_syncs, "external row is not");
        let mirrored = snap.delta(&a).iter().filter(|(_, v)| *v > 0).count();
        assert_eq!(mirrored * 8, std::mem::size_of::<DaemonCounters>());
    }

    /// Drives production of everything a Launch action covers,
    /// immediately.
    fn produce_all(dv: &mut DataVirtualizer, actions: &[DvAction], now: SimTime) -> Vec<DvAction> {
        let mut out = Vec::new();
        for a in actions {
            if let DvAction::Launch { sim, keys, .. } = a {
                out.extend(dv.handle(now, DvEvent::SimStarted { sim: *sim }));
                for k in keys.clone() {
                    out.extend(dv.handle(
                        now,
                        DvEvent::FileProduced {
                            sim: *sim,
                            key: k,
                            size: 100,
                        },
                    ));
                }
                out.extend(dv.handle(now, DvEvent::SimFinished { sim: *sim }));
            }
        }
        out
    }

    #[test]
    fn miss_launches_enclosing_interval() {
        let mut dv = DataVirtualizer::new(cfg(100));
        let actions = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 6 });
        let launch = actions
            .iter()
            .find_map(|a| match a {
                DvAction::Launch { keys, reason, .. } => Some((keys.clone(), *reason)),
                _ => None,
            })
            .expect("miss must launch");
        assert_eq!(launch.0, 5..=8, "interval containing key 6");
        assert_eq!(launch.1, LaunchReason::Miss);
        assert_eq!(dv.stats().misses, 1);
    }

    #[test]
    fn production_notifies_waiter_and_hits_after() {
        let mut dv = DataVirtualizer::new(cfg(100));
        let a1 = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 6 });
        let notifications = produce_all(&mut dv, &a1, t(5));
        assert!(notifications
            .iter()
            .any(|a| matches!(a, DvAction::NotifyReady { client: 1, key: 6 })));
        // Release, then re-acquire: now a hit.
        dv.handle(t(6), DvEvent::Release { client: 1, key: 6 });
        let a2 = dv.handle(t(7), DvEvent::Acquire { client: 1, key: 6 });
        assert!(a2
            .iter()
            .any(|a| matches!(a, DvAction::NotifyReady { client: 1, key: 6 })));
        assert!(!a2.iter().any(|a| matches!(a, DvAction::Launch { .. })));
        assert_eq!(dv.stats().hits, 1);
    }

    #[test]
    fn duplicate_miss_does_not_double_launch() {
        let mut dv = DataVirtualizer::new(cfg(100));
        let a1 = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 6 });
        let a2 = dv.handle(t(1), DvEvent::Acquire { client: 2, key: 7 });
        let launches_1 = a1.iter().filter(|a| matches!(a, DvAction::Launch { .. })).count();
        let launches_2 = a2.iter().filter(|a| matches!(a, DvAction::Launch { .. })).count();
        assert_eq!(launches_1, 1);
        assert_eq!(launches_2, 0, "key 7 covered by the running sim");
        // Both clients notified when their keys arrive.
        let notifs = produce_all(&mut dv, &a1, t(2));
        assert!(notifs
            .iter()
            .any(|a| matches!(a, DvAction::NotifyReady { client: 1, key: 6 })));
        assert!(notifs
            .iter()
            .any(|a| matches!(a, DvAction::NotifyReady { client: 2, key: 7 })));
    }

    #[test]
    fn invalid_key_fails_immediately() {
        let mut dv = DataVirtualizer::new(cfg(100));
        let actions = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 0 });
        assert!(matches!(actions[0], DvAction::NotifyFailed { key: 0, .. }));
        let actions = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 41 });
        assert!(matches!(actions[0], DvAction::NotifyFailed { key: 41, .. }));
    }

    #[test]
    fn boundary_key_simulates_only_itself() {
        let mut dv = DataVirtualizer::new(cfg(100));
        let actions = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 8 });
        let keys = actions
            .iter()
            .find_map(|a| match a {
                DvAction::Launch { keys, .. } => Some(keys.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(keys, 8..=8, "restart dump only");
    }

    #[test]
    fn smax_defers_launches() {
        let mut dv = DataVirtualizer::new(cfg(100).with_smax(1));
        let a1 = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 2 });
        let a2 = dv.handle(t(1), DvEvent::Acquire { client: 2, key: 10 });
        assert_eq!(
            a1.iter().filter(|a| matches!(a, DvAction::Launch { .. })).count(),
            1
        );
        assert_eq!(
            a2.iter().filter(|a| matches!(a, DvAction::Launch { .. })).count(),
            0,
            "second launch deferred by smax=1"
        );
        assert_eq!(dv.queued_launches(), 1);
        // Finishing the first sim releases the slot.
        let notifs = produce_all(&mut dv, &a1, t(2));
        let launched_after: Vec<_> = notifs
            .iter()
            .filter(|a| matches!(a, DvAction::Launch { .. }))
            .collect();
        assert_eq!(launched_after.len(), 1, "queued launch drained");
    }

    #[test]
    fn pinned_steps_survive_cache_pressure() {
        // Cache of 4 steps; client holds a pin on key 2.
        let mut dv = DataVirtualizer::new(cfg(4));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 2 });
        produce_all(&mut dv, &a, t(1)); // produces 1..=4, pin on 2
        assert!(dv.is_cached(2));
        // Flood the cache with another interval.
        let b = dv.handle(t(2), DvEvent::Acquire { client: 2, key: 6 });
        produce_all(&mut dv, &b, t(3));
        assert!(dv.is_cached(2), "pinned key must not be evicted");
        // Unpin, flood again, now it can go.
        dv.handle(t(4), DvEvent::Release { client: 1, key: 2 });
        let c = dv.handle(t(5), DvEvent::Acquire { client: 2, key: 10 });
        produce_all(&mut dv, &c, t(6));
        assert!(!dv.is_cached(2), "unpinned key evictable under pressure");
    }

    #[test]
    fn eviction_actions_emitted() {
        let mut dv = DataVirtualizer::new(cfg(4));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 2 });
        produce_all(&mut dv, &a, t(1));
        dv.handle(t(2), DvEvent::Release { client: 1, key: 2 });
        let b = dv.handle(t(3), DvEvent::Acquire { client: 1, key: 6 });
        let notifs = produce_all(&mut dv, &b, t(4));
        assert!(
            notifs.iter().any(|a| matches!(a, DvAction::Evict { .. })),
            "cache of 4 flooded by 4 new steps must evict"
        );
        assert!(dv.stats().evictions > 0);
    }

    fn launched_sim(actions: &[DvAction]) -> SimId {
        actions
            .iter()
            .find_map(|x| match x {
                DvAction::Launch { sim, .. } => Some(*sim),
                _ => None,
            })
            .expect("expected a launch")
    }

    #[test]
    fn sim_failure_retries_instead_of_failing_waiters() {
        let mut dv = DataVirtualizer::new(cfg(100));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 6 });
        let sim = launched_sim(&a);
        let actions = dv.handle(t(1), DvEvent::SimFailed { sim });
        assert!(
            !actions
                .iter()
                .any(|x| matches!(x, DvAction::NotifyFailed { .. })),
            "attempt 1 must retry, not fail the waiter: {actions:?}"
        );
        assert_eq!(dv.stats().failures, 1);
        assert_eq!(dv.stats().sim_retries, 1);
        assert_eq!(dv.active_sims(), 0);
        assert_eq!(dv.queued_launches(), 1, "retry parked in backoff");

        // The backoff deadline is strictly future and bounded by
        // cap · 1.25; a tick before it must not launch.
        let due = dv.next_due(t(1)).expect("a parked retry has a deadline");
        assert!(due > t(1));
        let mut early = Vec::new();
        dv.tick(t(1), &mut early);
        assert!(!early.iter().any(|x| matches!(x, DvAction::Launch { .. })));

        // At the deadline the retry launches; production then serves
        // the original waiter — the failure was transparent.
        let mut retried = Vec::new();
        dv.tick(due, &mut retried);
        let sim2 = launched_sim(&retried);
        assert_ne!(sim2, sim);
        let notifs = produce_all(&mut dv, &retried, due);
        assert!(notifs
            .iter()
            .any(|x| matches!(x, DvAction::NotifyReady { client: 1, key: 6 })));
        assert_eq!(dv.pending_keys(), 0);
        assert_eq!(dv.waiting_keys(), 0);
        assert_eq!(dv.quarantined_intervals(due), 0);
    }

    #[test]
    fn budget_exhaustion_poisons_and_quarantine_expires() {
        let sup = crate::model::SupervisorCfg {
            attempt_budget: 2,
            backoff_base: Dur::from_nanos(1),
            backoff_cap: Dur::from_nanos(1),
            quarantine: Dur::from_secs(100),
            ..Default::default()
        };
        let mut dv = DataVirtualizer::new(cfg(100).with_supervisor(sup));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 6 });
        let sim = launched_sim(&a);
        dv.handle(t(1), DvEvent::SimFailed { sim });
        let mut retried = Vec::new();
        dv.tick(t(2), &mut retried);
        let sim2 = launched_sim(&retried);

        // Second failure exhausts the budget: typed poison verdict.
        let actions = dv.handle(t(3), DvEvent::SimFailed { sim: sim2 });
        let code = actions
            .iter()
            .find_map(|x| match x {
                DvAction::NotifyFailed { client: 1, key: 6, code, .. } => Some(*code),
                _ => None,
            })
            .expect("waiter must fail on exhaustion");
        assert_eq!(code, FailCode::Poisoned);
        assert_eq!(dv.stats().intervals_poisoned, 1);
        assert_eq!(dv.stats().sim_retries, 1);
        // Nothing leaked.
        assert_eq!(dv.active_sims(), 0);
        assert_eq!(dv.queued_launches(), 0);
        assert_eq!(dv.pending_keys(), 0);
        assert_eq!(dv.waiting_keys(), 0);
        assert_eq!(dv.quarantined_intervals(t(3)), 1);

        // Short-circuit inside the window: typed failure, no launch.
        let b = dv.handle(t(4), DvEvent::Acquire { client: 2, key: 7 });
        assert!(matches!(
            b[0],
            DvAction::NotifyFailed { client: 2, key: 7, code: FailCode::Poisoned, .. }
        ));
        assert!(!b.iter().any(|x| matches!(x, DvAction::Launch { .. })));
        assert_eq!(dv.waiting_keys(), 0, "short-circuit must not park a waiter");

        // After expiry the interval gets a fresh budget.
        let c = dv.handle(t(3 + 100), DvEvent::Acquire { client: 2, key: 7 });
        let sim3 = launched_sim(&c);
        let notifs = produce_all(&mut dv, &c, t(104));
        assert!(notifs
            .iter()
            .any(|x| matches!(x, DvAction::NotifyReady { client: 2, key: 7 })));
        let _ = sim3;
        assert_eq!(dv.quarantined_intervals(t(104)), 0);
    }

    #[test]
    fn hang_watchdog_kills_and_retries_stalled_sim() {
        let sup = crate::model::SupervisorCfg {
            hang_multiplier: 1.0,
            hang_floor: Dur::from_secs(5),
            hang_ceiling: Dur::from_secs(5),
            backoff_base: Dur::from_nanos(1),
            backoff_cap: Dur::from_nanos(1),
            ..Default::default()
        };
        let mut dv = DataVirtualizer::new(cfg(100).with_supervisor(sup));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 6 });
        let sim = launched_sim(&a);

        // Alive sims are left alone.
        let mut quiet = Vec::new();
        dv.tick(t(4), &mut quiet);
        assert!(quiet.is_empty(), "{quiet:?}");

        // Past the deadline: kill + retry, waiter still parked.
        let mut acted = Vec::new();
        dv.tick(t(100), &mut acted);
        assert!(acted.iter().any(|x| matches!(x, DvAction::Kill { sim: s } if *s == sim)));
        assert_eq!(dv.stats().sims_hung_killed, 1);
        assert_eq!(dv.stats().sim_retries, 1);
        assert!(!acted.iter().any(|x| matches!(x, DvAction::NotifyFailed { .. })));

        // The retry drains (backoff ~1ns) and production unwedges the
        // interval.
        let mut retried = Vec::new();
        dv.tick(t(101), &mut retried);
        let notifs = produce_all(&mut dv, &retried, t(102));
        assert!(notifs
            .iter()
            .any(|x| matches!(x, DvAction::NotifyReady { client: 1, key: 6 })));
        assert_eq!(dv.pending_keys(), 0);
        assert_eq!(dv.waiting_keys(), 0);
    }

    #[test]
    fn hang_window_outlasts_a_restart_latency_above_the_ceiling() {
        // A 900 s restart latency under the default 10 min ceiling: the
        // sim is still in its alpha phase at 601 s and must be left
        // alone; only past twice the estimate is it hung.
        let mut dv = DataVirtualizer::new(cfg(100));
        dv.seed_estimates(Dur::from_secs(900), Dur::from_secs(1));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 6 });
        let sim = launched_sim(&a);
        assert_eq!(dv.next_due(t(0)), Some(t(1800)));
        let mut quiet = Vec::new();
        dv.tick(t(601), &mut quiet);
        assert!(quiet.is_empty(), "killed a sim inside its restart latency: {quiet:?}");
        let mut acted = Vec::new();
        dv.tick(t(1800), &mut acted);
        assert!(acted.iter().any(|x| matches!(x, DvAction::Kill { sim: s } if *s == sim)));
    }

    #[test]
    fn corrupt_output_kills_producer_and_colours_the_poison() {
        let sup = crate::model::SupervisorCfg {
            attempt_budget: 1,
            ..Default::default()
        };
        let mut dv = DataVirtualizer::new(cfg(100).with_supervisor(sup));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 6 });
        let sim = launched_sim(&a);
        dv.handle(t(1), DvEvent::SimStarted { sim });
        let actions = dv.handle(t(2), DvEvent::OutputCorrupt { sim, key: 5 });
        assert!(actions.iter().any(|x| matches!(x, DvAction::Kill { sim: s } if *s == sim)));
        assert_eq!(dv.stats().corrupt_outputs, 1);
        // Budget of 1: the terminal cause colours the verdict.
        assert!(actions.iter().any(|x| matches!(
            x,
            DvAction::NotifyFailed { client: 1, key: 6, code: FailCode::CorruptOutput, .. }
        )));
        assert_eq!(dv.stats().intervals_poisoned, 1);
        // A second report for the dead sim only counts.
        let again = dv.handle(t(3), DvEvent::OutputCorrupt { sim, key: 6 });
        assert!(again.is_empty());
        assert_eq!(dv.stats().corrupt_outputs, 2);
    }

    #[test]
    fn failed_prefetch_is_dropped_not_retried() {
        // Digest-driven prefetch launch (as in the pollution tests),
        // then fail it with nobody waiting: the speculative attempt is
        // dropped — no retry entry, no queued launch, no poison.
        let mut dv = DataVirtualizer::new(cfg(100).with_prefetch(true));
        dv.seed_estimates(Dur::from_secs(4), Dur::from_secs(1));
        let records: Vec<_> = (1..=4).map(|k| digest_record(1, k, k)).collect();
        let mut actions = Vec::new();
        dv.ingest_digest(t(10), &records, 0, &|_| true, &mut actions);
        let sim = actions
            .iter()
            .find_map(|a| match a {
                DvAction::Launch { sim, reason: LaunchReason::Prefetch, .. } => Some(*sim),
                _ => None,
            })
            .expect("scan must plan a prefetch");
        let after = dv.handle(t(11), DvEvent::SimFailed { sim });
        assert!(!after.iter().any(|x| matches!(x, DvAction::NotifyFailed { .. })));
        assert_eq!(dv.stats().sim_retries, 0);
        assert_eq!(dv.stats().intervals_poisoned, 0);
        assert_eq!(dv.stats().failures, 1);
        assert_eq!(dv.quarantined_intervals(t(11)), 0);
    }

    #[test]
    fn duplicate_miss_piggybacks_on_parked_retry() {
        let mut dv = DataVirtualizer::new(cfg(100));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 6 });
        let sim = launched_sim(&a);
        dv.handle(t(1), DvEvent::SimFailed { sim });
        assert_eq!(dv.queued_launches(), 1);
        // A second client missing on the same interval while the retry
        // is parked must wait on it, not bypass the backoff.
        let b = dv.handle(t(1), DvEvent::Acquire { client: 2, key: 7 });
        assert!(!b.iter().any(|x| matches!(x, DvAction::Launch { .. })));
        assert_eq!(dv.queued_launches(), 1);
        let due = dv.next_due(t(1)).unwrap();
        let mut retried = Vec::new();
        dv.tick(due, &mut retried);
        let notifs = produce_all(&mut dv, &retried, due);
        assert!(notifs
            .iter()
            .any(|x| matches!(x, DvAction::NotifyReady { client: 1, key: 6 })));
        assert!(notifs
            .iter()
            .any(|x| matches!(x, DvAction::NotifyReady { client: 2, key: 7 })));
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let sup = crate::model::SupervisorCfg::default();
        let d1 = backoff_delay(&sup, 3, 1);
        assert_eq!(d1, backoff_delay(&sup, 3, 1), "deterministic");
        // Within ±25 % of the nominal value.
        let nominal = sup.backoff_base.as_nanos();
        assert!(d1.as_nanos() >= nominal - nominal / 4);
        assert!(d1.as_nanos() <= nominal + nominal / 4);
        // Monotone cap: huge attempt counts saturate at cap · 1.25.
        let dmax = backoff_delay(&sup, 3, 40);
        let cap = sup.backoff_cap.as_nanos();
        assert!(dmax.as_nanos() <= cap + cap / 4);
        assert!(dmax.as_nanos() >= cap - cap / 4);
        // Different intervals jitter differently (with these inputs).
        assert_ne!(backoff_delay(&sup, 1, 2), backoff_delay(&sup, 2, 2));
    }

    #[test]
    fn client_gone_releases_pins() {
        let mut dv = DataVirtualizer::new(cfg(4));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 2 });
        produce_all(&mut dv, &a, t(1));
        assert!(dv.is_cached(2));
        dv.handle(t(2), DvEvent::ClientGone { client: 1 });
        // Now floodable.
        let b = dv.handle(t(3), DvEvent::Acquire { client: 2, key: 6 });
        produce_all(&mut dv, &b, t(4));
        assert!(!dv.is_cached(2), "pins of departed client released");
    }

    #[test]
    fn alpha_estimate_updates_from_sim_start() {
        let mut dv = DataVirtualizer::new(cfg(100));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 2 });
        let sim = a
            .iter()
            .find_map(|x| match x {
                DvAction::Launch { sim, .. } => Some(*sim),
                _ => None,
            })
            .unwrap();
        dv.handle(t(13), DvEvent::SimStarted { sim });
        assert_eq!(dv.alpha_estimate(), Some(Dur::from_secs(13)));
    }

    #[test]
    fn estimate_wait_accounts_for_position() {
        let mut dv = DataVirtualizer::new(cfg(100));
        dv.seed_estimates(Dur::from_secs(10), Dur::from_secs(2));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 3 });
        let sim = a
            .iter()
            .find_map(|x| match x {
                DvAction::Launch { sim, .. } => Some(*sim),
                _ => None,
            })
            .unwrap();
        // Not started: alpha + 3 keys x tau (range 1..=4, key 3 is third).
        let est = dv.estimate_wait(3).unwrap();
        assert_eq!(est, Dur::from_secs(10 + 3 * 2));
        dv.handle(t(1), DvEvent::SimStarted { sim });
        dv.handle(
            t(3),
            DvEvent::FileProduced {
                sim,
                key: 1,
                size: 100,
            },
        );
        let est = dv.estimate_wait(3).unwrap();
        assert!(est <= Dur::from_secs(3 * 2), "started: no alpha, got {est}");
        assert!(dv.estimate_wait(30).is_none(), "nothing produces key 30");
    }

    #[test]
    fn release_of_unpinned_key_tolerated() {
        let mut dv = DataVirtualizer::new(cfg(4));
        let actions = dv.handle(t(0), DvEvent::Release { client: 9, key: 3 });
        assert!(actions.is_empty());
    }

    fn digest_record(client: u64, key: u64, epoch_s: u64) -> crate::prefetch::AccessRecord {
        crate::prefetch::AccessRecord {
            client,
            key,
            epoch: epoch_s * 1_000_000_000,
            ready: true,
        }
    }

    #[test]
    fn digest_replay_drives_prefetch_planning() {
        // Acquires do not feed the agents; the replayed records must
        // carry observation (tau_cli from epoch gaps, pattern
        // confirmation, plan triggers) on their own.
        let mut dv = DataVirtualizer::new(cfg(100).with_prefetch(true));
        dv.seed_estimates(Dur::from_secs(4), Dur::from_secs(1));

        // A miss launches coverage 1..=4 and informs the agent frontier,
        // but performs no observation.
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 2 });
        produce_all(&mut dv, &a, t(0));
        assert!(
            dv.clients[&1].agent.direction().is_none(),
            "acquires must not observe"
        );

        // Replaying a forward scan confirms the pattern and triggers a
        // prefetch plan beyond the miss coverage.
        let records: Vec<_> = (2..=4).map(|k| digest_record(1, k, k)).collect();
        let mut actions = Vec::new();
        dv.ingest_digest(t(10), &records, 0, &|_| true, &mut actions);
        let launch = actions
            .iter()
            .find_map(|a| match a {
                DvAction::Launch { keys, reason, .. } => Some((keys.clone(), *reason)),
                _ => None,
            })
            .expect("digest replay must plan a prefetch");
        assert_eq!(launch.1, LaunchReason::Prefetch);
        assert!(*launch.0.start() > 4, "plans beyond the miss coverage: {launch:?}");
        assert_eq!(dv.stats().digest_replayed, 3);
        assert_eq!(
            dv.clients[&1].agent.direction(),
            Some(crate::prefetch::Direction::Forward)
        );
        assert_eq!(
            dv.clients[&1].agent.tau_cli(),
            Some(Dur::from_secs(1)),
            "tau_cli sampled from epoch gaps"
        );
    }

    #[test]
    fn digest_replay_skips_invalid_keys_and_counts_prefetch_hits() {
        let mut dv = DataVirtualizer::new(cfg(100).with_prefetch(true));
        dv.seed_estimates(Dur::from_secs(4), Dur::from_secs(1));
        let mut actions = Vec::new();
        dv.ingest_digest(
            t(1),
            &[digest_record(1, 0, 1), digest_record(1, 9999, 2)],
            0,
            &|_| true,
            &mut actions,
        );
        assert!(actions.is_empty());
        assert_eq!(dv.stats().digest_replayed, 0, "invalid keys never replay");

        // Scan far enough that the agent plans ahead, produce the plan,
        // then replay accesses of the planned keys: prefetch hits.
        let records: Vec<_> = (1..=4).map(|k| digest_record(1, k, 2 + k)).collect();
        dv.ingest_digest(t(10), &records, 0, &|_| true, &mut actions);
        produce_all(&mut dv, &actions, t(11));
        let planned: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                DvAction::Launch { keys, reason: LaunchReason::Prefetch, .. } => {
                    Some(keys.clone())
                }
                _ => None,
            })
            .flatten()
            .collect();
        assert!(!planned.is_empty(), "scan must have planned prefetches");
        let before = dv.stats().prefetch_hits;
        let next_epoch = 20;
        let follow: Vec<_> = planned
            .iter()
            .take(2)
            .enumerate()
            .map(|(i, &k)| digest_record(1, k, next_epoch + i as u64))
            .collect();
        let mut more = Vec::new();
        dv.ingest_digest(t(30), &follow, 0, &|_| true, &mut more);
        assert!(
            dv.stats().prefetch_hits > before,
            "materialized planned keys count as prefetch hits"
        );
    }

    #[test]
    fn digest_replay_skips_tau_cli_gap_after_blocked_miss() {
        // A record that blocked on production carries its acquire-time
        // epoch, so the gap it opens is wait + consumption, not
        // consumption: replay must not sample it, or one slow restart
        // would inflate tau_cli by orders of magnitude.
        let mut dv = DataVirtualizer::new(cfg(100).with_prefetch(true));
        let mk = |key: u64, epoch_s: u64, ready: bool| crate::prefetch::AccessRecord {
            client: 1,
            key,
            epoch: epoch_s * 1_000_000_000,
            ready,
        };
        let mut actions = Vec::new();
        dv.ingest_digest(
            t(100),
            &[
                mk(1, 1, true),
                mk(2, 2, true),   // gap 1 s after a ready point: sampled
                mk(3, 3, false),  // blocked miss (gap 1 s still sampled: starts at 2's ready point)
                mk(4, 63, true),  // 60 s gap after the *blocked* record: skipped
                mk(5, 64, true),  // 1 s after a ready point: sampled
            ],
            0,
            &|_| true,
            &mut actions,
        );
        assert_eq!(
            dv.clients[&1].agent.tau_cli(),
            Some(Dur::from_secs(1)),
            "the production wait must not leak into tau_cli"
        );
    }

    #[test]
    fn lossy_window_skips_first_gap_per_client() {
        // The gap into a drop window spans every lost record: sampling
        // it would feed one many-fold-inflated consumption sample into
        // tau_cli. Later gaps inside the same window are contiguous and
        // sample normally.
        let mut dv = DataVirtualizer::new(cfg(100).with_prefetch(true));
        let mut actions = Vec::new();
        dv.ingest_digest(t(1), &[digest_record(1, 1, 1)], 0, &|_| true, &mut actions);
        // 500 records were dropped between the windows: the 2→502 gap
        // must not be sampled; the following 1 s gaps must.
        let lossy: Vec<_> = [(2u64, 502u64), (3, 503), (4, 504)]
            .iter()
            .map(|&(k, e)| digest_record(1, k, e))
            .collect();
        dv.ingest_digest(t(600), &lossy, 500, &|_| true, &mut actions);
        assert_eq!(
            dv.clients[&1].agent.tau_cli(),
            Some(Dur::from_secs(1)),
            "the drop-window gap must not inflate tau_cli"
        );
    }

    #[test]
    fn pollution_reset_discards_stale_digest_window() {
        // A pollution reset discards the trajectory; the next drained
        // window predates the reset and must not instantly re-confirm it.
        let mut dv = DataVirtualizer::new(cfg(4).with_prefetch(true));
        dv.seed_estimates(Dur::from_secs(4), Dur::from_secs(1));

        // Scan far enough that the agent plans ahead, produce the plan
        // into the tiny 4-step cache (evicting the early keys), then
        // miss on an evicted planned key: pollution.
        let records: Vec<_> = (1..=3).map(|k| digest_record(1, k, k)).collect();
        let mut actions = Vec::new();
        dv.ingest_digest(t(10), &records, 0, &|_| true, &mut actions);
        assert!(
            actions.iter().any(|a| matches!(
                a,
                DvAction::Launch { reason: LaunchReason::Prefetch, .. }
            )),
            "setup: the scan must plan a prefetch: {actions:?}"
        );
        produce_all(&mut dv, &actions.clone(), t(11));
        let planned_low = 4u64; // 4..=11 was planned; cache keeps only 4
        assert!(!dv.is_cached(planned_low), "setup: key 4 must be evicted");
        let a = dv.handle(t(20), DvEvent::Acquire { client: 1, key: planned_low });
        assert_eq!(dv.stats().pollution_resets, 1, "setup: miss on evicted planned key");
        produce_all(&mut dv, &a, t(21));

        // Replaying the stale pre-reset window must not re-confirm the
        // killed trajectory or plan anything.
        let stale: Vec<_> = (4..=7).map(|k| digest_record(1, k, 10 + k)).collect();
        let mut after = Vec::new();
        dv.ingest_digest(t(30), &stale, 0, &|_| true, &mut after);
        assert!(
            dv.clients[&1].agent.direction().is_none(),
            "stale window re-confirmed the reset trajectory"
        );
        assert!(
            !after.iter().any(|a| matches!(a, DvAction::Launch { .. })),
            "stale window must not plan: {after:?}"
        );

        // Fresh post-reset observation works normally again.
        let fresh: Vec<_> = (20..=22).map(|k| digest_record(1, k, 20 + k)).collect();
        let mut more = Vec::new();
        dv.ingest_digest(t(40), &fresh, 0, &|_| true, &mut more);
        assert_eq!(
            dv.clients[&1].agent.direction(),
            Some(crate::prefetch::Direction::Forward),
            "post-reset windows must observe normally"
        );
    }

    #[test]
    fn sharded_digest_launches_partition_by_ownership() {
        // Two cluster members fed one forwarded digest: each plans only
        // the intervals it owns.
        let steps = StepMath::new(1, 4, 40);
        let ctx = ContextCfg::new("digest-shard", steps, 100, 100 * 100)
            .with_policy("lru")
            .with_smax(8)
            .with_prefetch(true);
        let mut members: Vec<DataVirtualizer> = (0..2)
            .map(|k| {
                DataVirtualizer::for_member(ctx.clone(), ClusterMember::new(k, 2))
            })
            .collect();
        // Seed estimates via a real miss + production on each member
        // (key 2 lives in interval 0, key 6 in interval 1).
        for (dv, key) in members.iter_mut().zip([2u64, 6]) {
            let warm = dv.handle(t(0), DvEvent::Acquire { client: 1, key });
            for a in warm {
                if let DvAction::Launch { sim, keys, .. } = a {
                    dv.handle(t(1), DvEvent::SimStarted { sim });
                    for k in keys {
                        dv.handle(t(1), DvEvent::FileProduced { sim, key: k, size: 100 });
                    }
                    dv.handle(t(1), DvEvent::SimFinished { sim });
                }
            }
        }

        // Replay one long forward scan into both members.
        let records: Vec<_> = (1..=10).map(|k| digest_record(1, k, k)).collect();
        let mut actions = Vec::new();
        for (k, dv) in members.iter_mut().enumerate() {
            let member = ClusterMember::new(k as u32, 2);
            let mut launched = Vec::new();
            dv.ingest_digest(t(20), &records, 0, &|key| member.owns_key(&steps, key), &mut launched);
            actions.extend(launched.into_iter().map(|a| (k as u32, a)));
        }

        // Every prefetch launch must stay inside its member's
        // ownership, and no key may be claimed by two launches.
        let mut claimed = std::collections::HashSet::new();
        for (shard, a) in &actions {
            if let DvAction::Launch { keys, reason: LaunchReason::Prefetch, .. } = a {
                for k in keys.clone() {
                    assert_eq!(
                        member_of_key(&steps, 2, k),
                        *shard,
                        "launch {keys:?} crosses shard ownership"
                    );
                    assert!(claimed.insert(k), "key {k} claimed twice: {actions:?}");
                }
            }
        }
        assert!(!claimed.is_empty(), "scan must plan prefetches: {actions:?}");
    }

    #[test]
    fn nested_pins_require_matching_releases() {
        let mut dv = DataVirtualizer::new(cfg(4));
        let a = dv.handle(t(0), DvEvent::Acquire { client: 1, key: 2 });
        produce_all(&mut dv, &a, t(1));
        dv.handle(t(2), DvEvent::Release { client: 1, key: 2 });
        // Re-acquire twice (hits), pin count 2.
        dv.handle(t(3), DvEvent::Acquire { client: 1, key: 2 });
        dv.handle(t(4), DvEvent::Acquire { client: 1, key: 2 });
        dv.handle(t(5), DvEvent::Release { client: 1, key: 2 });
        // One pin remains: still not evictable.
        let b = dv.handle(t(6), DvEvent::Acquire { client: 2, key: 6 });
        produce_all(&mut dv, &b, t(7));
        assert!(dv.is_cached(2));
    }

    #[test]
    fn restore_pin_requires_materialized_key() {
        let mut dv = DataVirtualizer::new(cfg(4));
        // Nothing materialized yet: nothing to restore, never a launch.
        assert!(!dv.restore_pin(7, 2));
        assert_eq!(dv.stats().pins_recovered, 0);
        assert_eq!(dv.active_sims(), 0);
        // Invalid keys are refused like everywhere else.
        assert!(!dv.restore_pin(7, 9999));
        // Prime key 2 (recovery's storage rescan), then restore: the
        // pin must hold against eviction pressure exactly like a live
        // client's pin.
        assert!(dv.prime(2, 100).is_empty());
        assert!(dv.restore_pin(7, 2));
        assert_eq!(dv.stats().pins_recovered, 1);
        for key in [6u64, 10, 14, 18] {
            let a = dv.handle(t(1), DvEvent::Acquire { client: 1, key });
            produce_all(&mut dv, &a, t(2));
            dv.handle(t(3), DvEvent::Release { client: 1, key });
        }
        assert!(dv.is_cached(2), "recovered pin must veto eviction");
        // ClientGone (lease expiry) frees it normally.
        dv.handle(t(4), DvEvent::ClientGone { client: 7 });
        let b = dv.handle(t(5), DvEvent::Acquire { client: 1, key: 22 });
        produce_all(&mut dv, &b, t(6));
        assert!(!dv.is_cached(2), "expired lease pin must stop vetoing");
    }

    #[test]
    fn transfer_pin_moves_ownership() {
        let mut dv = DataVirtualizer::new(cfg(100));
        assert!(dv.prime(2, 100).is_empty());
        assert!(dv.restore_pin(7, 2));
        assert!(dv.restore_pin(7, 2), "counts restore per recorded acquire");
        // Claiming a pin the prior client never held fails.
        assert!(!dv.transfer_pin(7, 40, 3));
        assert!(!dv.transfer_pin(9, 40, 2));
        // One count moves per transfer.
        assert!(dv.transfer_pin(7, 40, 2));
        assert!(dv.transfer_pin(7, 40, 2));
        assert!(!dv.transfer_pin(7, 40, 2), "only two counts were held");
        // The new owner's releases balance the transferred counts; the
        // prior client's teardown no longer touches them.
        dv.handle(t(1), DvEvent::ClientGone { client: 7 });
        dv.handle(t(2), DvEvent::Release { client: 40, key: 2 });
        dv.handle(t(3), DvEvent::Release { client: 40, key: 2 });
        // All pins gone: key 2 is evictable under pressure.
        let mut dv2 = DataVirtualizer::new(cfg(4));
        assert!(dv2.prime(2, 100).is_empty());
        assert!(dv2.restore_pin(7, 2));
        assert!(dv2.transfer_pin(7, 40, 2));
        dv2.handle(t(1), DvEvent::Release { client: 40, key: 2 });
        for key in [6u64, 10, 14, 18] {
            let a = dv2.handle(t(2), DvEvent::Acquire { client: 1, key });
            produce_all(&mut dv2, &a, t(3));
            dv2.handle(t(4), DvEvent::Release { client: 1, key });
        }
        assert!(!dv2.is_cached(2), "released transferred pin must not veto eviction");
    }
}
