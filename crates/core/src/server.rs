//! The DV daemon: TCP front-end of the Data Virtualizer (Fig. 4).
//!
//! One daemon serves one or more *simulation contexts* (§II: "for a
//! given simulation, scientists identify multiple simulation contexts
//! that are made available to the analyses through SimFS"); clients
//! select a context by name in their hello handshake — the protocol
//! twin of the paper's `SIMFS_Init(sim_context, ...)` / environment
//! variable. Analysis clients connect through DVLib
//! ([`crate::client`]); re-simulations are spawned through a
//! [`JobLauncher`] and connect back as simulator clients to report
//! `SimStarted` / `FileProduced` / `SimFinished`.
//!
//! # Concurrency model and lock hierarchy
//!
//! The machine-readable form of this hierarchy — acquisition levels,
//! blocking rules, and the source patterns that mark each acquisition
//! site — lives in `crates/core/LOCKS.md`. That registry is enforced
//! two ways: statically by `cargo run -p simlint` (lock order and the
//! blocking denylist, on the source text) and dynamically by
//! [`simkit::lockrank`] (a debug-build thread-local held-rank stack
//! asserted on every annotated acquisition). The prose below explains
//! *why* the tiers exist; when in doubt about what is allowed where,
//! the registry wins.
//!
//! Above everything sits the **cluster tier**, which involves no locks
//! at all: a deployment may run K daemon *processes* per context
//! ([`ServerConfig::cluster`]), each owning the restart intervals with
//! `interval % K == index`, a `1/K` slice of the cache budget and
//! `s_max`, and its own residue class of the cluster-wide sim-id
//! stride. Daemons never talk to each other — DVLib's
//! [`crate::client::DvCluster`] hashes each key's interval to its
//! owning daemon and fans client teardown out to every member, so each
//! member runs exactly one [`DataVirtualizer::for_member`] fed its own
//! subsequence of the cluster's events; the cluster property test pins
//! that composition against hand-built member DVs. The interval split
//! across members is the only partitioning of a context: inside a
//! daemon, each context runs one DV. A member rejects acquires for
//! intervals it does not own rather than serving them under the wrong
//! budget.
//!
//! Within one daemon, connections are served by the sharded epoll
//! reactor ([`crate::reactor`]): min(cores, 8) event-loop threads, each
//! owning an epoll instance and a disjoint subset of connections.
//! Requests dispatch on the owning reactor thread; responses to *other*
//! clients route through the reactor's registry to their owning shard.
//! Daemon thread count is fixed (reactor shards + effect helpers +
//! accept + reaper) regardless of client count.
//!
//! Alongside the reactor runs the **effect-execution tier**
//! ([`crate::effectpool`]): one helper thread per reactor shard, each
//! draining that shard's bounded queue. Reactor shard threads are
//! *non-blocking by contract* — they register with
//! [`simkit::lockrank::mark_thread_nonblocking`] and every blocking
//! effect site asserts it is not on one. A transition still collects
//! its `Effects` under the DV lock, but `commit` routes any outbox
//! that needs blocking work — sim launch/kill, WAL append + fsync,
//! eviction deletes, storage reads — through `offload`, the one door
//! into the tier; pure socket-frame outboxes (the hit hot path) are
//! flushed in place because frame sends are wait-free into
//! per-connection buffers. Helpers drain a queue in FIFO order and in
//! batches, which both preserves the sim wire-event order a simulator
//! connection produced (`FileProduced` before `SimFinished`) and opens
//! the WAL **group-fsync** window: one `fsync` covers every record
//! in the batch ([`DvStats::wal_syncs`] vs [`DvStats::wal_appends`] is
//! the evidence). A full queue parks the *submitting* shard thread on
//! the queue condvar — backpressure, counted in
//! [`DvStats::helper_queue_full`], bounds memory instead of dropping
//! effects. Helper and reaper threads may block and never submit: their
//! commits run in place (`commit_inline`).
//!
//! **Simulator lifecycle: one writer.** A re-simulation's `SimStarted`
//! / `FileProduced` / `SimFinished` / `SimFailed` events reach the DV
//! from exactly one source. Once a simulator has said `Hello`, that
//! source is its session — protocol frames, plus `SimFailed` if the
//! connection drops before `SimFinished` — and every one of them rides
//! the session's single FIFO effect queue, so none can overtake
//! another. The launcher's exit report (the reaper thread's
//! `reap_exits`, its only caller) becomes a DV event only for a job
//! that exited without ever connecting (bad restart file, scheduler
//! rejection); for a connected job it merely retires the ledger entry,
//! so a process exit can never race the sim's own still-queued
//! `FileProduced` frames. The remaining `SimFailed` sources name sims
//! that cannot have a session: a `launch()` that returned an error,
//! and the DV's own supervision verdicts (hang watchdog, corrupt
//! output), which are internal to the state machine.
//!
//! Beneath the reactor, each context's control plane is layered so that
//! the §IV hot path — an acquire of an already-virtualized step — gets
//! cheaper as it gets more common. From least to most exclusive:
//!
//! 1. **Shared hit table (no DV lock, often no daemon).** Every context
//!    keeps a [`simcache::HitIndex`]: a flat table of one atomic word
//!    per key — resident, retiring, a CLOCK reference bit and a count of
//!    daemon-side pins. For a solo context, durable or not, the table
//!    lives in a `memfd` (`crate::shm`), and a same-host session
//!    receives it sealed read-only at hello, with a session mapping of
//!    its own: it pins a resident key by writing its own slot and
//!    checking the word, releases by clearing the slot, and exchanges
//!    no frame for either. Every other session — TCP, a clustered
//!    context, a takeover key — gets the daemon-side fast pin against
//!    the same words: a CAS on the count, then the reply straight into
//!    the connection's buffer, no DV lock. Eviction
//!    (under the DV lock) must win `try_retire`: it marks the
//!    word retiring and scans the slots of the context's mapped
//!    sessions (the `pin-slots` registry, the one lock of the layer);
//!    a pinner that sees the mark — or whose slot the scan sees —
//!    falls back to the slow path. Each connection tracks its
//!    daemon-side fast pins locally (reactor-thread-owned state) and
//!    drains them on disconnect; a mapped session's hangup detaches its
//!    slots, which is the whole of its reclaim. Mapped hits are counted
//!    by the session and folded into `hits`, `acquired_fast` and
//!    `shared_hits` at snapshot time.
//!
//! 1a. **Access digest (no locks on record, the DV lock on drain).**
//!    Prefetching contexts need their agents to observe the *full*
//!    access stream — which hits serving through layer 1 (and, under
//!    clustering, requests routed to other daemons) would otherwise
//!    bypass. Observation is therefore decoupled from acquisition:
//!    each connection appends `(client, key, epoch)` records to a
//!    bounded lossy [`crate::prefetch::AccessLog`] owned by its reactor
//!    thread (a plain array write — overflow drops the oldest record
//!    and counts it), and the log drains into the agents under the DV
//!    lock later: piggybacked on the connection's next slow-path
//!    transition (which takes locks anyway), on a periodic reactor tick
//!    when the stream is pure hits, or when a clustered client's
//!    forwarded `AccessDigest` frame arrives. A mapped session records
//!    its hits itself, into an SPSC ring in its mapping stamped on this
//!    daemon's clock; the daemon moves the ring into the connection's
//!    log before it handles each socket request of that session and on
//!    the tick, so ring records and socket-recorded misses keep their
//!    order. A tick that finds the ring empty parks the session, and the
//!    client writes one empty `AccessDigest` when it finds it parked or
//!    its ring past [`DIGEST_HIGH_WATER`] — so an idle daemon still
//!    sleeps. A cluster member's agents replay the whole forwarded
//!    stream while planning only the intervals the member owns, so the
//!    members' prefetch launches compose without overlap. The digest
//!    tier takes no lock of its own and is the reason prefetching
//!    contexts keep layer 1.
//! 1b. **Durability tier (WAL; durable deployments only).** A context
//!    started with [`DurabilityCfg::wal`] keeps one append-only
//!    [`simstore::walog::WriteAheadLog`] in its storage area, guarded
//!    by its own mutex *below* the DV lock in the order (DV → WAL,
//!    never WAL → DV; the WAL lock is never held across
//!    socket or launcher I/O either). The journal records sessions,
//!    not pins: every analysis session's hello writes one `Lease`, and
//!    its departure one `ClientGone`. No pin — a slot pin, a fast pin,
//!    a miss's `Ready`, a takeover grant — and no release writes
//!    anything. The records ride `Effects::wal_records` and are
//!    appended + fsynced in `commit` *before* the transition's frames
//!    are sent (write-ahead ordering, preserved batch-wide by the
//!    effect tier: one group fsync covers every record of a helper
//!    batch before any of the batch's frames go out), so a session
//!    whose greeting arrived is always in the log. The log compacts to
//!    a [`simstore::walog::WalState`] snapshot at sync points once it
//!    passes [`simstore::walog::COMPACT_THRESHOLD`]. Contexts without
//!    durability skip this tier entirely.
//!
//!    The crash protocol is the member core's (`member.rs`, the code
//!    the virtual fault harness drives too), kept beside the DV under
//!    the DV lock. At start-up the WAL replays under a fresh epoch and,
//!    with `recover`, every session whose lease is live is *leased* for
//!    `lease_timeout` (rule 1). A journal written by an earlier build
//!    (its first record predates [`simstore::walog::JOURNAL_VERSION`])
//!    names pins, not sessions: `recover` refuses it with
//!    [`EarlierJournal`] and leaves it as it is, and a start without
//!    `recover` takes an epoch above all of its and rewrites it. While
//!    any lease is out, no step resident at the recovery is evicted —
//!    the storage area overflows instead, for at most `lease_timeout`
//!    (rule 2). A reassert under a live lease pins each claimed key
//!    that is still resident for the new session (rule 3), so every
//!    pin the session held comes back with no re-acquire and no gap in
//!    which it could have been evicted. The lease ends in a
//!    `ClientGone` through the core's one departure path: after a
//!    timely reassert, at a late one (every key `gone`), or at the
//!    deadline itself; the last to end lifts the hold. The reaper's one deadline source is the core's
//!    `next_due` — the DV's supervision deadlines and the leases'.
//! 2. **The DV lock.** Each context's [`DataVirtualizer`] — its cache
//!    directory, waiter/launch/prefetch state and the request
//!    bookkeeping its notifications resolve through — sits behind one
//!    `Mutex<DvCore>`. Every transition that layer 1 does not absorb
//!    takes it once, and nothing takes it while holding it. Lock
//!    wait/hold times are counted per context and surfaced through
//!    [`DvStats`].
//! 3. **Writer routing.** Responses route through the reactor registry
//!    (sharded map + per-shard inboxes), never under a DV lock.
//!    Responses to the dispatching connection itself bypass the
//!    registry into the connection's own output buffer.
//! 4. **Launch ledger.** Because launches/kills happen outside the DV
//!    locks, a prefetch kill could race a not-yet-effected launch of
//!    the same sim. A small per-context ledger serializes *only*
//!    job-control bookkeeping (launch intents are registered under the
//!    DV lock; the ledger lock itself is never held across launcher
//!    I/O) and cancels launches whose kill won the race. Lock order is
//!    strictly DV → ledger.
//!
//! The transition discipline extends the split-lock design one step:
//! **collect under lock, effect after release — and blocking effects
//! off the reactor thread entirely.** A transition locks the DV, runs
//! [`DataVirtualizer::handle_into`] into a reusable scratch
//! buffer, resolves actions into an `Effects` value and unlocks;
//! response encoding and socket writes happen outside the DV lock on
//! the reactor thread, while job spawning, file deletion and WAL fsyncs
//! are submitted to the effect tier. All responses of one transition
//! for one destination coalesce into a single [`wire::FrameBatch`]
//! write. Deferred eviction deletes re-check the cache under the DV
//! lock, on the helper thread, so an overlapping
//! re-production cannot lose its file to a stale eviction.
//!
//! Three observable consequences of the lock-minimized design:
//! responses to *different* requests of one client may interleave
//! differently than under a coarse lock — including a `Status` reply
//! overtaking a pooled slow-path `Ready` still queued in the effect
//! tier (per-request semantics are unchanged — DVLib treats `Queued`
//! as informational); replacement-policy recency for fast-path hits is
//! approximate — a fast hit sets a CLOCK-style reference bit instead
//! of reordering the policy's lists, so a hot key survives an eviction
//! decision rather than never being considered; and on a durable
//! context every greeting waits for its lease's group fsync in the
//! effect tier, so a hello costs one fsync while the session's pins
//! and releases cost none.
//!
//! This remains the classic coordination-daemon shape — the data path
//! (bulk file I/O) never goes through the daemon, only control messages
//! do, exactly as the paper separates control (TCP) from data (parallel
//! file system).

use crate::driver::SimDriver;
use crate::dv::{
    ClientId, DaemonCounters, DataVirtualizer, DvAction, DvEvent, DvStats, FailCode, SimId,
};
use crate::effectpool::EffectPool;
use crate::member::{self, MemberCore};
use crate::model::{ContextCfg, StepMath};
use crate::net::{self, Listener, Transport};
use crate::prefetch::{AccessLog, AccessRecord, ACCESS_LOG_CAPACITY, DIGEST_HIGH_WATER};
use crate::reactor::{ConnCtx, Reactor};
use crate::route::{ownership_error, AcquireMode};
use crate::shm::{ContextTable, SessionMap};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLIN};
use crate::wire::{self, ClientKind, FrameBatch, Request, Response};
use parking_lot::Mutex;
use simbatch::{JobId, JobLauncher, SpawnSpec};
use simcache::{u64_map, HitIndex, U64Map};
use simkit::lockrank;
use simkit::{Dur, SimTime};
use simstore::walog::{self, WalRecord, WalState, WriteAheadLog};
use simstore::StorageArea;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::ops::RangeInclusive;
use std::os::unix::io::OwnedFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::dv::ClusterMember;

/// Environment variables passed to launched simulator jobs.
pub mod env_keys {
    /// Daemon address (`host:port`).
    pub const DV_ADDR: &str = "SIMFS_DV_ADDR";
    /// DV-assigned simulation id.
    pub const SIM_ID: &str = "SIMFS_SIM_ID";
    /// Context name.
    pub const CONTEXT: &str = "SIMFS_CONTEXT";
    /// Storage-area directory the simulator writes into.
    pub const DATA_DIR: &str = "SIMFS_DATA_DIR";
}

/// Crash-safety configuration of one context (tier 1b of the lock
/// hierarchy). Off by default: the WAL costs an fsync per analysis
/// session's hello and departure (no pin or release writes a record),
/// which non-durable deployments (benchmarks, ephemeral experiments)
/// should not pay.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityCfg {
    /// Keep a write-ahead session/lease log in the storage area.
    pub wal: bool,
    /// On startup, replay the WAL and lease the previous instance's
    /// live sessions under a new recovery epoch (the `--recover` flag):
    /// the steps resident at the restart are held until those sessions
    /// reconnect and re-assert their pins, or until `lease_timeout`
    /// expires their leases.
    pub recover: bool,
    /// How long a recovery lease waits for its client's re-assertion
    /// before a synthetic `ClientGone` ends it — the backstop that
    /// keeps a crash from holding residency forever.
    pub lease_timeout: Duration,
}

impl Default for DurabilityCfg {
    fn default() -> DurabilityCfg {
        DurabilityCfg {
            wal: false,
            recover: false,
            lease_timeout: Duration::from_secs(30),
        }
    }
}

impl DurabilityCfg {
    /// WAL on, recovery as given, default lease timeout.
    pub fn durable(recover: bool) -> DurabilityCfg {
        DurabilityCfg {
            wal: true,
            recover,
            ..DurabilityCfg::default()
        }
    }
}

/// Typed start-up error: the payload of an
/// [`io::ErrorKind::InvalidData`] error returned by [`DvServer::start`]
/// when a context asked to `recover` finds a journal written by an
/// earlier build, whose sessions this build cannot read. The file is
/// left byte-identical; started without `recover`, the daemon takes an
/// epoch above all of the file's and rewrites it in the current format.
/// Recover it from the error via [`EarlierJournal::from_io`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EarlierJournal {
    /// The refused journal.
    pub path: PathBuf,
}

impl EarlierJournal {
    /// Downcasts an [`io::Error`] to the typed refusal, if that is
    /// what it carries.
    pub fn from_io(err: &io::Error) -> Option<&EarlierJournal> {
        err.get_ref().and_then(|inner| inner.downcast_ref::<EarlierJournal>())
    }

    fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, self)
    }
}

impl fmt::Display for EarlierJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: journal written by an earlier build, whose sessions cannot be recovered; \
             start without --recover to begin a new journal above its epochs",
            self.path.display()
        )
    }
}

impl std::error::Error for EarlierJournal {}

/// Daemon configuration for one simulation context.
pub struct ServerConfig {
    /// The context (cadences, cache, policy, `s_max`, prefetching).
    pub ctx: ContextCfg,
    /// Simulator driver (naming, job creation, checksums).
    pub driver: Arc<dyn SimDriver>,
    /// Storage area backing the context.
    pub storage: StorageArea,
    /// Job launcher for re-simulations.
    pub launcher: Arc<dyn JobLauncher>,
    /// Recorded checksums of the initial simulation (`SIMFS_Bitrep`
    /// reference data): key → checksum.
    pub checksums: HashMap<u64, u64>,
    /// Must be `0` or `1`: a context runs one DV. Kept for source
    /// compatibility with configurations written when a context could
    /// be split into several; [`DvServer::start_multi`] refuses larger
    /// values with [`io::ErrorKind::InvalidInput`]. Split a context
    /// across daemons with [`cluster`](Self::cluster) instead.
    pub dv_shards: u32,
    /// This daemon's position in a multi-daemon cluster
    /// ([`ClusterMember::SOLO`] for standalone deployments). Member `k`
    /// of `K` owns the restart intervals with `interval % K == k`,
    /// takes the `1/K` slice of the cache budget and `s_max`
    /// ([`DataVirtualizer::for_member`]), and strides its sim-id space
    /// over the whole cluster. `index >= size` is refused at start-up
    /// with [`io::ErrorKind::InvalidInput`].
    /// Acquires for intervals owned by another member are rejected
    /// (`Failed`) — DVLib's [`crate::client::DvCluster`] routes them to
    /// the right daemon in the first place.
    pub cluster: ClusterMember,
    /// Crash safety: write-ahead session/lease logging and restart
    /// recovery. [`DurabilityCfg::default`] turns both off.
    pub durability: DurabilityCfg,
}

/// Per-shard effect queue capacity: a submitting shard thread parks
/// once its queue holds this many unexecuted effects (backpressure —
/// effects are never dropped). `effectpool.queue_full` reads 0 on every
/// `simfs_bench` workload at this value.
const EFFECT_QUEUE_CAP: usize = 256;

/// The state guarded by the DV lock: the context's member core (its
/// state machine plus recovery leases and takeover priming), the
/// request bookkeeping its notifications resolve through, and the
/// reusable action scratch buffer.
struct DvCore {
    member: MemberCore,
    /// (client, key) → request ids awaiting Ready/Failed.
    pending: HashMap<(ClientId, u64), Vec<u64>>,
    /// Scratch for [`DataVirtualizer::handle_into`]; reused across
    /// transitions so the hot path allocates nothing.
    actions: Vec<DvAction>,
}

/// How far a collected launch has got.
#[derive(Clone, Copy, PartialEq)]
enum JobStage {
    /// `Launch` action collected (registered under the DV lock), not
    /// yet picked up by an effector thread.
    Pending,
    /// Inside a `launcher.launch()` call (the ledger lock is dropped
    /// for the I/O; this stage covers the gap).
    Launching,
    /// Handed to the launcher; its exit has not been reported yet.
    Launched,
}

/// One job between "launch collected" and "exit reaped".
struct LedgerJob {
    stage: JobStage,
    /// Killed before its launch was effected: the effector drops (or
    /// takes straight back down) the launch instead of recording it.
    cancelled: bool,
    /// The simulator said `Hello`: its session is the only source of
    /// its lifecycle events from here on, and the launcher's exit
    /// report only retires this entry.
    connected: bool,
}

/// Job-control ledger: serializes launch/kill bookkeeping (only that),
/// cancels launches whose kill won the race to the launcher, and keeps
/// every job in flight for the reaper until the launcher has reported
/// its exit (or `kill` reaped it) — a protocol `SimFinished` does not
/// retire the entry, the child's exit does.
#[derive(Default)]
struct LaunchLedger {
    jobs: U64Map<LedgerJob>,
}

/// Everything a DV transition wants done once the DV lock is
/// released. Owned by each connection/reaper context and reused, so a
/// transition allocates nothing in steady state.
#[derive(Default)]
struct Effects {
    /// Responses to send, in emission order.
    outbox: Vec<(ClientId, Response)>,
    /// Sims to launch.
    launches: Vec<(SimId, RangeInclusive<u64>, u32)>,
    /// Sims to kill.
    kills: Vec<SimId>,
    /// Output steps to delete from the storage area.
    evicts: Vec<u64>,
    /// A sim finished or failed in this transition: shutdown's quiesce
    /// wait and the reaper's supervision timer must re-check.
    sims_retired: bool,
    /// Reusable per-destination write batches.
    batches: Vec<(ClientId, FrameBatch)>,
    /// Durable contexts only: WAL records this transition must append
    /// (sessions' leases, departures) — appended and fsynced by the
    /// effect tier's group-fsync pass before any frame is sent.
    wal_records: Vec<WalRecord>,
    /// Descriptors that ride the first frame batch to a client: a
    /// mapped session's table and session mapping, with its greeting.
    fds: Option<(ClientId, Vec<OwnedFd>)>,
}

impl Effects {
    fn has_job_control(&self) -> bool {
        !self.launches.is_empty() || !self.kills.is_empty()
    }
}

/// The write-ahead log plus its in-memory mirror (the state a replay
/// of the file would produce), guarded by one mutex per context. The
/// mirror is what compaction snapshots — no re-reading the file.
struct DaemonWal {
    log: WriteAheadLog,
    state: WalState,
}

impl DaemonWal {
    /// Drains `records` into the mirror and the file's buffer (no
    /// syscalls).
    fn append_all(&mut self, records: &mut Vec<WalRecord>) {
        for r in records.drain(..) {
            self.state.apply(&r);
            self.log.append(&r);
        }
    }

    /// Batched durability point: fsync what is buffered, then compact
    /// once the file outgrows the threshold (the snapshot is bounded by
    /// the live leases, so a steady daemon's log stays small).
    fn sync_and_compact(&mut self, epoch: u64) {
        let _ = self.log.sync();
        if self.log.file_bytes() > walog::COMPACT_THRESHOLD {
            let snap = self.state.snapshot(epoch);
            let _ = self.log.compact(&snap);
        }
    }
}

/// Per-connection analysis-session state, owned by the connection's
/// reactor thread (single-threaded access — no locks):
struct ConnLocal {
    /// key → pins this connection took on the fast path and has not
    /// released. Drained via index atomics on release/disconnect; the
    /// DV's per-client pin bookkeeping never sees them.
    fast_pins: U64Map<u32>,
    /// Reusable encode buffer for fast-path replies written straight
    /// into the connection's output.
    scratch: FrameBatch,
    /// This connection's slice of the access-stream digest (prefetching
    /// contexts only): every acquire — fast or slow — is recorded here
    /// and replayed into the agents when the log drains.
    log: AccessLog,
    /// Reused drain buffer (records move here before replay so the log
    /// can keep filling while the DV lock is held).
    drain_scratch: Vec<AccessRecord>,
    /// Record the local request stream into `log`. Off for clustered
    /// DVLib sessions: they see only the keys routed here, so they
    /// forward their full pre-routing stream as `AccessDigest` frames
    /// instead — recording both would feed every access twice.
    observe_local: bool,
    /// A same-host session of a solo context: its shared mapping — pin
    /// slots the context's index scans, and the access ring its hits
    /// append to (layers 1 and 1a).
    mapped: Option<SessionMap>,
}

impl ConnLocal {
    fn new() -> ConnLocal {
        ConnLocal {
            fast_pins: u64_map(),
            scratch: FrameBatch::new(),
            log: AccessLog::new(ACCESS_LOG_CAPACITY),
            drain_scratch: Vec::new(),
            observe_local: true,
            mapped: None,
        }
    }
}

/// Latency class of one effect job, decided from its dominant blocking
/// operation (a commit carrying both a launch and evictions counts as
/// `Spawn` — job control is the costliest and rarest class).
#[derive(Clone, Copy)]
enum EffectClass {
    Spawn,
    Wal,
    Evict,
    Read,
}

/// One unit of blocking work submitted by a reactor shard to the effect
/// tier. Jobs carry their daemon and context so one pool serves every
/// context; per-shard queue FIFO plus static queue→helper assignment
/// preserve the submission order of any single connection.
struct EffectJob {
    inner: Arc<Inner>,
    ctx: Arc<CtxRuntime>,
    work: EffectWork,
}

enum EffectWork {
    /// A collected `Effects` value whose execution needs blocking
    /// operations (WAL fsync, launcher, eviction deletes).
    Commit { fx: Box<Effects> },
    /// A simulator protocol event: output verification (storage read)
    /// plus the resulting transition and commit run on the helper.
    SimEvent { sim: SimId, event: SimWireEvent },
    /// A `Bitrep` re-read: storage read + checksum compare, reply sent
    /// from the helper through the reactor registry.
    BitrepRead {
        client: ClientId,
        req_id: u64,
        key: u64,
    },
}

/// Simulator wire events in submittable form (the request decoded on
/// the shard thread, verification deferred to the helper).
enum SimWireEvent {
    Started,
    Produced { key: u64, size: u64 },
    Finished,
    /// Connection lost before `SimFinished` (from `on_close`).
    Failed,
}

/// Per-context runtime: the DV state machine behind its lock, plus its
/// effectors.
struct CtxRuntime {
    name: String,
    /// Back-reference to this runtime's own `Arc` (set at construction
    /// via `Arc::new_cyclic`), so methods running on shard threads can
    /// package `self` into an [`EffectJob`] without threading the `Arc`
    /// through every call site.
    weak_self: Weak<CtxRuntime>,
    /// The DV lock (layer 2).
    dv: Mutex<DvCore>,
    /// Position in the daemon cluster; `SOLO` outside clusters.
    cluster: ClusterMember,
    /// The context's step math (for cluster-ownership checks).
    steps: StepMath,
    /// The lock-free hit layer (every context — prefetching ones
    /// observe through the digest instead of the acquire path).
    fast: Arc<HitIndex>,
    /// The shared memory `fast` lives in, for solo contexts (`None`:
    /// heap, and every session pins through the daemon).
    table: Option<ContextTable>,
    /// The context runs prefetch agents, fed by digest drains:
    /// connections record their access streams and the daemon replays
    /// them under the DV lock (layer 1a of the hierarchy).
    digest: bool,
    /// Every daemon-counted [`DvStats`] row (lock timing, effect tier,
    /// recovery, takeover, accept retries), overlaid into snapshots.
    counters: DaemonCounters,
    reactor: Arc<Reactor>,
    ledger: Mutex<LaunchLedger>,
    driver: Arc<dyn SimDriver>,
    storage: StorageArea,
    launcher: Arc<dyn JobLauncher>,
    checksums: HashMap<u64, u64>,
    /// Tier 1b: the write-ahead session/lease log (`None` for
    /// non-durable contexts). Lock order:
    /// DV lock → WAL lock; never held across I/O other than
    /// the log's own writes.
    wal: Option<Mutex<DaemonWal>>,
    /// This instance's recovery epoch (the member core's, copied for
    /// lock-free reads): strictly above every epoch in the replayed
    /// WAL, `0` without durability. Carried in `HelloOk` so clients can
    /// tell a restarted daemon from a dropped connection.
    epoch: u64,
    /// WAL records replayed at startup (stat; fixed after start).
    wal_replayed: u64,
}

struct Inner {
    contexts: HashMap<String, Arc<CtxRuntime>>,
    /// `CLOCK_MONOTONIC` at start-up: the origin of [`Inner::now`],
    /// published in every context table so a mapped session stamps its
    /// hits on the same clock.
    clock_base: u64,
    addr: SocketAddr,
    /// The abstract Unix name bound beside `addr`, if any
    /// ([`crate::net`]).
    local_name: Option<String>,
    next_client: AtomicU64,
    /// Set by [`DvServer::shutdown`]: the accept loop exits, and the
    /// reaper stops between passes and before each context's
    /// supervision step.
    shutdown: AtomicBool,
    reactor: Arc<Reactor>,
    /// Signalled at shutdown; registered in the accept loop's epoll
    /// alongside the listener.
    accept_wake: EventFd,
    /// Wakes the reaper when jobs enter flight (and at shutdown); the
    /// guarded bool is the shutdown request.
    reap_signal: (StdMutex<bool>, Condvar),
    /// Notified whenever sims complete or die, so shutdown's quiesce
    /// wait is event-driven instead of a sleep poll.
    quiesce: (StdMutex<()>, Condvar),
    /// Back-reference to this daemon's own `Arc`, so a shard thread
    /// can hand the daemon to the [`EffectJob`] it submits.
    weak_self: Weak<Inner>,
    /// The effect-execution tier: one bounded queue and one helper per
    /// reactor shard.
    pool: EffectPool<EffectJob>,
}

impl Inner {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(crate::sys::monotonic_ns().saturating_sub(self.clock_base))
    }

    /// Routes a hello's context name; an empty name with exactly one
    /// context falls through to it (single-context deployments keep the
    /// pre-multi-context ergonomics).
    fn route(&self, name: &str) -> Option<&Arc<CtxRuntime>> {
        if let Some(ctx) = self.contexts.get(name) {
            return Some(ctx);
        }
        if name.is_empty() && self.contexts.len() == 1 {
            return self.contexts.values().next();
        }
        None
    }

    fn notify_reaper(&self) {
        let _rank = lockrank::held(lockrank::REAP_SIGNAL);
        let _guard = self.reap_signal.0.lock().unwrap();
        self.reap_signal.1.notify_all();
    }

    fn notify_quiesce(&self) {
        let _rank = lockrank::held(lockrank::QUIESCE);
        let _guard = self.quiesce.0.lock().unwrap();
        self.quiesce.1.notify_all();
    }
}

impl CtxRuntime {
    /// Resolves the actions of one DV transition into `fx` (called with
    /// the DV lock held; does no I/O).
    fn collect(&self, core: &mut DvCore, fx: &mut Effects) {
        fx.wal_records.append(&mut core.member.records);
        let launches_before = fx.launches.len();
        for action in core.actions.drain(..) {
            match action {
                DvAction::NotifyReady { client, key } => {
                    if let Some(reqs) = core.pending.remove(&(client, key)) {
                        for req_id in reqs {
                            fx.outbox.push((client, Response::Ready { req_id, key }));
                        }
                    }
                }
                DvAction::NotifyFailed {
                    client,
                    key,
                    code,
                    reason,
                } => {
                    if let Some(reqs) = core.pending.remove(&(client, key)) {
                        for req_id in reqs {
                            fx.outbox.push((
                                client,
                                Response::Failed {
                                    req_id,
                                    key,
                                    code,
                                    reason: reason.clone(),
                                },
                            ));
                        }
                    }
                }
                DvAction::Launch {
                    sim, keys, level, ..
                } => fx.launches.push((sim, keys, level)),
                DvAction::Kill { sim } => fx.kills.push(sim),
                DvAction::Evict { key } => fx.evicts.push(key),
            }
        }
        if fx.launches.len() > launches_before {
            // Register in-flight launches while the DV lock is still
            // held: any kill of these sims is collected strictly later,
            // so it will find them in the ledger and never mistake a
            // live launch for a completed sim. Launch events are rare
            // (one per re-simulation), so the extra lock is off the hit
            // path. Lock order: DV → ledger, always.
            let _rank = lockrank::held(lockrank::LEDGER);
            let mut ledger = self.ledger.lock();
            for (sim, _, _) in &fx.launches[launches_before..] {
                ledger.jobs.insert(
                    *sim,
                    LedgerJob {
                        stage: JobStage::Pending,
                        cancelled: false,
                        connected: false,
                    },
                );
            }
        }
    }

    /// Locks the DV with wait/hold accounting, runs `work` on its core,
    /// collects the resulting effects, and runs `post` (e.g. the Queued
    /// check, which needs the post-collect pending state) still under
    /// the same lock. The single home of the lock-timing discipline —
    /// every locked transition goes through here.
    fn with_dv(
        &self,
        fx: &mut Effects,
        work: impl FnOnce(&mut DvCore),
        post: impl FnOnce(&mut DvCore, &mut Effects),
    ) {
        let t0 = Instant::now();
        let rank = lockrank::held(lockrank::DV);
        let mut core = self.dv.lock();
        let t1 = Instant::now();
        work(&mut core);
        self.collect(&mut core, fx);
        post(&mut core, fx);
        let t2 = Instant::now();
        drop(core);
        drop(rank);
        let counters = &self.counters;
        counters
            .lock_wait_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        counters
            .lock_hold_ns
            .fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
        counters.lock_transitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies one event to the DV and collects its effects.
    fn transition(&self, inner: &Inner, event: DvEvent, fx: &mut Effects) {
        let now = inner.now();
        self.with_dv(
            fx,
            |core| {
                let DvCore { member, actions, .. } = core;
                member.dv.handle_into(now, event, actions);
            },
            |_, _| {},
        );
    }

    /// Encodes and delivers the outbox: one [`FrameBatch`] (one write)
    /// per destination client. Departed clients are dropped silently,
    /// matching the old behavior.
    fn flush_outbox(&self, fx: &mut Effects) {
        if fx.outbox.is_empty() {
            return;
        }
        // Group per destination, preserving per-client emission order.
        // Transitions touch a handful of clients, so linear scan beats
        // a map. Batch entries (and their buffers) are retained across
        // flushes — `used` counts the live prefix; entries past it are
        // cleared spares from earlier flushes with stale client ids.
        let mut used = 0;
        for (client, resp) in fx.outbox.drain(..) {
            match fx.batches[..used].iter_mut().find(|(c, _)| *c == client) {
                Some((_, batch)) => batch.push_response(&resp),
                None => {
                    if let Some((c, batch)) = fx.batches.get_mut(used) {
                        *c = client;
                        batch.push_response(&resp);
                    } else {
                        let mut batch = FrameBatch::new();
                        batch.push_response(&resp);
                        fx.batches.push((client, batch));
                    }
                    used += 1;
                }
            }
        }
        for (client, batch) in &mut fx.batches[..used] {
            match fx.fds.take_if(|(c, _)| c == client) {
                Some((_, fds)) => self.reactor.send_with_fds(*client, batch.as_bytes(), fds),
                // Borrowed send: a response to the dispatching
                // connection itself is staged with no allocation; only
                // cross-connection traffic is copied into an inbox.
                None => self.reactor.send_bytes(*client, batch.as_bytes()),
            };
            batch.clear();
        }
    }

    /// Applies job-control effects. Returns sims whose launch failed
    /// (fed back as `SimFailed`). The ledger lock is held only for set
    /// bookkeeping — never across launcher I/O — because `collect`
    /// takes it while holding the DV lock; holding it through a
    /// slow job submission would convoy every transition on the
    /// context.
    fn apply_job_control(&self, inner: &Inner, fx: &mut Effects, failed: &mut Vec<SimId>) {
        if !fx.has_job_control() {
            return;
        }
        let mut to_kill: Vec<SimId> = Vec::new();
        let mut to_launch: Vec<(SimId, RangeInclusive<u64>, u32)> = Vec::new();
        {
            let _rank = lockrank::held(lockrank::LEDGER);
            let mut ledger = self.ledger.lock();
            for sim in fx.kills.drain(..) {
                match ledger.jobs.get_mut(&sim) {
                    Some(job) if job.stage == JobStage::Launched => {
                        ledger.jobs.remove(&sim);
                        to_kill.push(sim);
                    }
                    // Kill won the race against a launch another thread
                    // has collected but not yet effected: cancel it.
                    Some(job) => job.cancelled = true,
                    // Already exited and reaped: nothing to kill and
                    // nothing to remember.
                    None => {}
                }
            }
            for (sim, keys, level) in fx.launches.drain(..) {
                let cancelled = ledger.jobs.get_mut(&sim).is_none_or(|job| {
                    job.stage = JobStage::Launching;
                    job.cancelled
                });
                if cancelled {
                    ledger.jobs.remove(&sim);
                } else {
                    to_launch.push((sim, keys, level));
                }
            }
        }
        for sim in to_kill {
            lockrank::assert_blocking_ok("launcher-kill");
            let _ = self.launcher.kill(JobId(sim));
        }
        let launched_any = !to_launch.is_empty();
        for (sim, keys, level) in to_launch {
            lockrank::assert_blocking_ok("launcher-launch");
            let spec = self
                .driver
                .make_job(*keys.start(), *keys.end(), level)
                .env(env_keys::DV_ADDR, inner.addr.to_string())
                .env(env_keys::SIM_ID, sim.to_string())
                .env(env_keys::CONTEXT, &self.name)
                .env(
                    env_keys::DATA_DIR,
                    self.storage.root().to_string_lossy().to_string(),
                );
            let launched = self.launcher.launch(JobId(sim), &spec).is_ok();
            let kill_now = {
                let _rank = lockrank::held(lockrank::LEDGER);
                let mut ledger = self.ledger.lock();
                let cancelled = ledger.jobs.get(&sim).is_some_and(|job| job.cancelled);
                if !launched || cancelled {
                    ledger.jobs.remove(&sim);
                } else if let Some(job) = ledger.jobs.get_mut(&sim) {
                    // (No entry: an in-process job ran to its exit and
                    // was reaped while `launch()` was still returning.)
                    job.stage = JobStage::Launched;
                }
                if !launched {
                    failed.push(sim);
                }
                // A kill landed while the launcher ran: take the job
                // straight back down.
                launched && cancelled
            };
            if kill_now {
                let _ = self.launcher.kill(JobId(sim));
            }
        }
        if launched_any {
            // Jobs are now in flight: the reaper must start polling for
            // orphaned exits.
            inner.notify_reaper();
        }
    }

    /// Effects everything a transition collected. On a reactor shard
    /// thread, an outbox that needs blocking work (WAL fsync, job
    /// control, eviction deletes) goes to the effect tier — the shard
    /// thread never waits on disk or the launcher — while a pure
    /// response outbox (hit-path `Failed`s, `Queued`, status) flushes in
    /// place: socket staging is non-blocking. Helper and reaper threads
    /// may block and must not submit (a helper parked on its own full
    /// queue would never drain it), so their commits run in place.
    fn commit(&self, inner: &Inner, fx: &mut Effects) {
        if crate::reactor::current_shard().is_none() {
            self.commit_inline(inner, fx);
        } else if self.commit_needs_helper(fx) {
            let fx = Box::new(std::mem::take(fx));
            self.offload(inner, EffectWork::Commit { fx });
        } else {
            self.flush_outbox(fx);
        }
    }

    /// The one door into the effect tier: on a reactor shard thread
    /// `work` is queued FIFO behind everything that shard submitted
    /// before it; on any other thread (which may block) it runs in
    /// place.
    fn offload(&self, inner: &Inner, work: EffectWork) {
        let (Some(daemon), Some(ctx)) = (inner.weak_self.upgrade(), self.weak_self.upgrade())
        else {
            return;
        };
        let job = EffectJob {
            inner: daemon,
            ctx,
            work,
        };
        match crate::reactor::current_shard() {
            Some(shard) => {
                self.counters.effects_offloaded.fetch_add(1, Ordering::Relaxed);
                if inner.pool.submit(shard, job) {
                    self.counters.helper_queue_full.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => execute_effect_batch(vec![job]),
        }
    }

    /// Does executing `fx` involve a blocking operation (and so belong
    /// on a helper thread)? Job control means launcher I/O, evicts mean
    /// storage deletes, and journal records (a durable context's leases
    /// and departures) mean a WAL append + fsync.
    fn commit_needs_helper(&self, fx: &Effects) -> bool {
        fx.has_job_control() || !fx.evicts.is_empty() || !fx.wal_records.is_empty()
    }

    /// The commit loop itself: socket writes, job control, evictions.
    /// Launch failures feed back as `SimFailed` events until
    /// quiescence. Never holds the DV lock while doing I/O; runs on
    /// blocking-permitted threads only. Records the batch executor
    /// already group-fsynced are gone from `fx.wal_records`, so its
    /// WAL pass finds nothing to do.
    fn commit_inline(&self, inner: &Inner, fx: &mut Effects) {
        let mut failed: Vec<SimId> = Vec::new();
        let mut sims_retired = false;
        loop {
            sims_retired |= !fx.kills.is_empty() || std::mem::take(&mut fx.sims_retired);
            self.wal_log_records(fx);
            self.flush_outbox(fx);
            self.apply_job_control(inner, fx, &mut failed);
            if !fx.evicts.is_empty() {
                // The evictions were decided under the DV lock we have
                // since released: an overlapping production may have
                // re-materialized a key meanwhile. Re-check under the
                // lock, once for the whole batch, so we do not delete
                // files the cache now believes in. The residual
                // write-then-delete window is inherent: simulators
                // publish files before their FileProduced message
                // reaches the DV.
                {
                    let _rank = lockrank::held(lockrank::DV);
                    let core = self.dv.lock();
                    fx.evicts.retain(|&key| !core.member.dv.is_cached(key));
                }
                for key in fx.evicts.drain(..) {
                    lockrank::assert_blocking_ok("evict-delete");
                    let name = self.driver.filename_of(key);
                    let _ = self.storage.delete(&name);
                }
            }
            if failed.is_empty() {
                break;
            }
            for sim in failed.drain(..) {
                fx.sims_retired = true;
                self.transition(inner, DvEvent::SimFailed { sim }, fx);
            }
        }
        if sims_retired {
            // Sims finished, failed or were killed: a quiesce waiter
            // (shutdown) may now observe an idle context.
            inner.notify_quiesce();
            // A failure may have scheduled supervision work (a
            // backed-off retry, a quarantine expiry) with no job left
            // in flight to keep the reaper polling: wake it so it
            // re-arms its timer against the new earliest deadline.
            inner.notify_reaper();
        }
    }

    /// Earliest supervision deadline of this context (parked retry
    /// launches, hang-watchdog deadlines, quarantine expiries, recovery
    /// lease deadlines); `None` when nothing is scheduled.
    fn supervision_due(&self, now: SimTime) -> Option<SimTime> {
        let _rank = lockrank::held(lockrank::DV);
        self.dv.lock().member.next_due(now)
    }

    /// One supervision pass: fire the member's timers and commit the
    /// effects (lapsed recovery leases' departures, hang kills, retry
    /// launches, typed failure notifications, quarantine expiries).
    fn supervise(&self, inner: &Inner, fx: &mut Effects) {
        let now = inner.now();
        self.with_dv(
            fx,
            |core| {
                let DvCore { member, actions, .. } = core;
                member.tick(now, actions);
            },
            |_, _| {},
        );
        self.commit(inner, fx);
    }

    /// Write-ahead ordering (tier 1b): append and fsync the records a
    /// transition collected (leases, departures) *before*
    /// [`flush_outbox`](Self::flush_outbox) puts its frames on the
    /// wire, so a greeting the client saw always has its lease in the
    /// log. No-op without durability.
    fn wal_log_records(&self, fx: &mut Effects) {
        let Some(wal) = &self.wal else {
            fx.wal_records.clear();
            return;
        };
        if fx.wal_records.is_empty() {
            return;
        }
        let _rank = lockrank::held(lockrank::WAL);
        let mut w = wal.lock();
        w.append_all(&mut fx.wal_records);
        w.sync_and_compact(self.epoch);
    }

    /// Counts one executed effect job and its helper-side latency
    /// under its class.
    fn record_effect(&self, class: EffectClass, elapsed: Duration) {
        let c = &self.counters;
        let (ns, ops) = match class {
            EffectClass::Spawn => (&c.effect_spawn_ns, &c.effect_spawn_ops),
            EffectClass::Wal => (&c.effect_wal_ns, &c.effect_wal_ops),
            EffectClass::Evict => (&c.effect_evict_ns, &c.effect_evict_ops),
            EffectClass::Read => (&c.effect_read_ns, &c.effect_read_ops),
        };
        ns.fetch_add(elapsed.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Merged statistics snapshot: the DV's counters, the daemon-side
    /// counters, and the counts other structures own. Also returns the
    /// active-sim count observed under the same lock acquisition, so a
    /// Status reply is self-consistent.
    fn stats_snapshot_with_active(&self) -> (DvStats, u64) {
        let (mut total, active) = {
            let _rank = lockrank::held(lockrank::DV);
            let core = self.dv.lock();
            (core.member.dv.stats().clone(), core.member.dv.active_sims() as u64)
        };
        self.counters.overlay(&mut total);
        let shared_hits = self.fast.shared_hits();
        let fast_hits = self.fast.fast_hits().saturating_add(shared_hits);
        total.hits = total.hits.saturating_add(fast_hits);
        total.acquired_fast = fast_hits;
        total.shared_hits = shared_hits;
        total.hit_fallbacks = self.fast.race_fallbacks();
        if let Some(wal) = &self.wal {
            let _rank = lockrank::held(lockrank::WAL);
            let w = wal.lock();
            total.wal_appends = w.log.appended();
            total.wal_syncs = w.log.syncs();
        }
        total.wal_replayed = self.wal_replayed;
        (total, active)
    }

    fn stats_snapshot(&self) -> DvStats {
        self.stats_snapshot_with_active().0
    }

    /// Processes one analysis request; `false` ends the session.
    fn handle_analysis_request(
        &self,
        inner: &Inner,
        client: ClientId,
        req: Request,
        local: &mut ConnLocal,
        cx: &mut ConnCtx<'_>,
        fx: &mut Effects,
    ) -> bool {
        match req {
            Request::Acquire { req_id, keys } => {
                self.serve_acquire(inner, client, req_id, &keys, AcquireMode::Native, local, cx, fx);
                true
            }
            Request::Release { key } => {
                if self.release_key(inner, client, key, local, fx) {
                    self.commit(inner, fx);
                }
                true
            }
            // A reconnected session re-claiming its prior identity's
            // pins: one DV-lock hold runs the member core's reassert;
            // the prior identity's departure rides the commit's WAL
            // pass, fsynced before the `Reasserted` frame is sent.
            Request::Reassert {
                req_id,
                prior_client,
                prior_epoch,
                keys,
            } => {
                let now = inner.now();
                let mut answer = member::Reasserted::default();
                self.with_dv(
                    fx,
                    |core| {
                        let DvCore { member, actions, .. } = core;
                        answer =
                            member.reassert(now, client, prior_client, prior_epoch, &keys, actions);
                    },
                    |_, _| {},
                );
                let (restored, gone) = (answer.restored, answer.gone);
                let epoch = self.epoch;
                fx.outbox.push((client, Response::Reasserted { req_id, epoch, restored, gone }));
                self.commit(inner, fx);
                true
            }
            Request::Bitrep { req_id, key } => {
                // Pure storage I/O: never touches a DV lock. The read
                // runs on a helper and the reply routes back through
                // the reactor registry; the shard thread moves straight
                // to its next frame.
                self.offload(
                    inner,
                    EffectWork::BitrepRead {
                        client,
                        req_id,
                        key,
                    },
                );
                true
            }
            Request::Status { req_id } => {
                let (stats, active) = self.stats_snapshot_with_active();
                let resp = Response::StatusInfo {
                    req_id,
                    hits: stats.hits,
                    misses: stats.misses,
                    restarts: stats.restarts,
                    produced_steps: stats.produced_steps,
                    active_sims: active,
                };
                fx.outbox.push((client, resp));
                self.flush_outbox(fx);
                true
            }
            Request::AccessDigest { dropped, records } => {
                // A clustered DVLib session forwarding its full
                // pre-routing access stream (fire-and-forget, one frame
                // per coalesced write). Fold it into the connection log
                // — the ring bounds memory, so a hostile burst degrades
                // to drops, never growth — and drain now: the frame is
                // batched, so the lock cost is amortized. Contexts
                // without agents ignore digests.
                if self.digest {
                    local.log.note_dropped(dropped);
                    for (key, epoch, ready) in records {
                        local.log.push(AccessRecord {
                            client,
                            key,
                            epoch,
                            ready,
                        });
                    }
                    self.drain_digest(inner, local, fx);
                    self.commit(inner, fx);
                }
                true
            }
            Request::TakeoverAcquire {
                req_id,
                dead_member,
                origin_epoch,
                keys,
            } => {
                let mode = AcquireMode::Takeover {
                    dead_member,
                    origin_epoch,
                };
                if let Some(reason) = self.takeover_claim_error(dead_member, origin_epoch) {
                    for key in keys {
                        fx.outbox.push((
                            client,
                            Response::Failed {
                                req_id,
                                key,
                                code: FailCode::Other,
                                reason: reason.clone(),
                            },
                        ));
                    }
                    self.flush_outbox(fx);
                } else {
                    self.counters.takeover_acquires.fetch_add(1, Ordering::Relaxed);
                    self.serve_acquire(inner, client, req_id, &keys, mode, local, cx, fx);
                }
                true
            }
            // Drains this session's takeover pins for a restarted
            // member: one release per listed key occurrence, like
            // native releases. The client re-acquires at the
            // restarted home member *before* sending this, so the
            // residency veto never lapses across the hand-back;
            // releases of keys the session does not hold are DV no-ops.
            Request::HandBack { req_id, keys, .. } => {
                let released = keys.len() as u64;
                for key in keys {
                    self.release_key(inner, client, key, local, fx);
                }
                self.counters
                    .takeover_pins_handed_back
                    .fetch_add(released, Ordering::Relaxed);
                fx.outbox.push((client, Response::HandedBack { req_id, released }));
                self.commit(inner, fx);
                true
            }
            Request::Bye => false,
            _ => {
                fx.outbox.push((
                    client,
                    Response::Error {
                        message: "unexpected analysis request".to_string(),
                    },
                ));
                self.flush_outbox(fx);
                false
            }
        }
    }

    /// Validates the request-level claim of a takeover acquire: this
    /// daemon must be clustered, the "dead" index must exist, and it
    /// must not be this (evidently live) member.
    fn takeover_claim_error(&self, dead_member: u32, origin_epoch: u64) -> Option<String> {
        if !self.cluster.is_clustered() {
            Some("takeover acquire on an unclustered daemon".to_string())
        } else if dead_member >= self.cluster.size {
            Some(format!(
                "takeover of member {dead_member} (takeover epoch {origin_epoch}): \
                 cluster has {} members",
                self.cluster.size
            ))
        } else if dead_member == self.cluster.index {
            Some(format!(
                "takeover of member {dead_member} (takeover epoch {origin_epoch}): \
                 that member is this daemon, and it is alive"
            ))
        } else {
            None
        }
    }

    /// Serves one acquire request, native or takeover, key by key:
    /// ownership rule → lock-free fast pin → DV transition →
    /// `Queued`. A takeover acquire names keys of a *dead* member's
    /// intervals, asserted down by the client and routed here by the
    /// successor rule: first touch of a foreign interval rebuilds its
    /// residency from the shared storage area (the recovery rescan,
    /// scoped to one interval), and from there its keys serve exactly
    /// like native ones — re-simulation under *this* member's budget.
    /// Takeover keys skip digest observation: this member's prefetch
    /// agents must not learn trajectories it will hand back.
    #[allow(clippy::too_many_arguments)]
    fn serve_acquire(
        &self,
        inner: &Inner,
        client: ClientId,
        req_id: u64,
        keys: &[u64],
        mode: AcquireMode,
        local: &mut ConnLocal,
        cx: &mut ConnCtx<'_>,
        fx: &mut Effects,
    ) {
        let takeover = matches!(mode, AcquireMode::Takeover { .. });
        let mut slow_keys = 0u64;
        // Observation is a record, not a lock acquisition: in
        // prefetching contexts every locally observed key — fast or
        // slow — lands in the connection's digest log, stamped with one
        // epoch per request (a multi-key acquire is one consumption
        // point).
        let digest_on = self.digest && local.observe_local && !takeover;
        let epoch = if digest_on { inner.now().as_nanos() } else { 0 };
        for &key in keys {
            // Layer 0 (clusters only): the ownership rule.
            let refused = if self.cluster.is_clustered() {
                ownership_error(&self.steps, self.cluster, key, mode)
            } else {
                None
            };
            if let Some(reason) = refused {
                fx.outbox.push((
                    client,
                    Response::Failed {
                        req_id,
                        key,
                        code: FailCode::Other,
                        reason,
                    },
                ));
                continue;
            }
            if takeover && self.steps.valid_key(key) {
                self.prime_takeover_interval(self.steps.interval_of(key), fx);
            }
            // Layer 1: the lock-free hit path. A resident key is pinned
            // through the concurrent index (the pin is eviction-visible
            // before we reply) and answered straight into this
            // connection's output buffer — no DV lock, no routing
            // table.
            if self.fast.try_hit_pin(key) {
                *local.fast_pins.entry(key).or_insert(0) += 1;
                if digest_on {
                    // Served instantly: the epoch is a true ready point.
                    local.log.push(AccessRecord {
                        client,
                        key,
                        epoch,
                        ready: true,
                    });
                }
                local.scratch.push_response(&Response::Ready { req_id, key });
                continue;
            }
            // Layer 2: the locked path, one DV lock per key.
            slow_keys += 1;
            let now = inner.now();
            let mut resolved = true;
            self.with_dv(
                fx,
                |core| {
                    // Register interest before handling so a concurrent
                    // production cannot race past the notification.
                    core.pending.entry((client, key)).or_default().push(req_id);
                    let DvCore { member, actions, .. } = core;
                    member.dv.handle_into(now, DvEvent::Acquire { client, key }, actions);
                },
                |core, fx| {
                    // Still pending after collect? Tell the client it
                    // is queued, with the wait estimate (§III-C).
                    if core.pending.contains_key(&(client, key)) {
                        resolved = false;
                        let est = core
                            .member
                            .dv
                            .estimate_wait(key)
                            .map_or(0, |d| d.as_nanos() / 1_000_000);
                        fx.outbox.push((
                            client,
                            Response::Queued {
                                req_id,
                                key,
                                est_wait_ms: est,
                            },
                        ));
                    }
                },
            );
            if digest_on {
                // A key that stayed pending blocks the client until
                // production: its acquire-time epoch is not a ready
                // point, so replay must not sample the following gap as
                // consumption time.
                local.log.push(AccessRecord {
                    client,
                    key,
                    epoch,
                    ready: resolved,
                });
            }
        }
        if !local.scratch.is_empty() {
            cx.write(local.scratch.as_bytes());
            local.scratch.clear();
        }
        if slow_keys > 0 {
            self.counters
                .acquired_slow
                .fetch_add(slow_keys, Ordering::Relaxed);
            // Piggyback the digest drain on a request that took the DV
            // lock anyway; pure-hit streams drain from the reactor
            // tick instead.
            self.drain_digest(inner, local, fx);
        } else if digest_on && local.log.len() >= DIGEST_HIGH_WATER {
            // Adaptive drain: a saturated pure-hit stream can overflow
            // the ring between 20 ms ticks; once it passes the
            // high-water mark, pay the DV lock now instead of
            // dropping the oldest records.
            self.drain_digest(inner, local, fx);
        }
        // A pure-hit request collected nothing (its replies went out
        // through `local.scratch`); anything else — transitions,
        // rejections, prefetch launches an adaptive drain planned,
        // evictions a takeover priming decided — is effected here.
        if slow_keys > 0 || !fx.outbox.is_empty() || fx.has_job_control() || !fx.evicts.is_empty()
        {
            self.commit(inner, fx);
        }
    }

    /// Releases one pin of `key` held by this session: fast pins go
    /// back with index atomics alone, pins taken through the DV (miss
    /// productions, reassert restorations) release through the DV lock.
    /// Returns whether a transition was collected (the caller commits).
    fn release_key(
        &self,
        inner: &Inner,
        client: ClientId,
        key: u64,
        local: &mut ConnLocal,
        fx: &mut Effects,
    ) -> bool {
        if let Some(n) = local.fast_pins.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                local.fast_pins.remove(&key);
            }
            self.fast.unpin(key, 1);
            return false;
        }
        self.transition(inner, DvEvent::Release { client, key }, fx);
        true
    }

    /// First takeover touch of a foreign interval: rebuilds its
    /// residency from the shared storage area
    /// ([`MemberCore::prime_interval`]). The listing runs outside the
    /// DV lock (two racing first touches both list; the second priming
    /// is a no-op); evictions join [`Effects::evicts`].
    fn prime_takeover_interval(&self, interval: u64, fx: &mut Effects) {
        {
            let _rank = lockrank::held(lockrank::DV);
            if self.dv.lock().member.is_primed(interval) {
                return;
            }
        }
        let keys = self.steps.interval_keys(interval);
        let listed: Vec<(u64, u64)> = self
            .storage
            .list()
            .unwrap_or_default()
            .iter()
            .filter_map(|file| {
                let key = self.driver.key_of(file).filter(|key| keys.contains(key))?;
                Some((key, self.storage.size_of(file).unwrap_or(0)))
            })
            .collect();
        let _rank = lockrank::held(lockrank::DV);
        let mut core = self.dv.lock();
        fx.evicts.extend(core.member.prime_interval(interval, listed));
    }

    /// Drains the connection's access log into the prefetch agents
    /// (layer 1a) under the DV lock. The agents observe every record;
    /// a cluster member plans and counts only the intervals it owns, so
    /// the members' prefetch launches compose without overlap.
    fn drain_digest(&self, inner: &Inner, local: &mut ConnLocal, fx: &mut Effects) {
        if !self.digest || local.log.is_empty() {
            return;
        }
        local.drain_scratch.clear();
        let dropped = local.log.drain_into(&mut local.drain_scratch);
        let records = &local.drain_scratch;
        // Local records carry this daemon's clock; a clustered session's
        // forwarded records carry its client's.
        let same_clock = local.observe_local;
        let now = inner.now();
        let cluster = self.cluster;
        let steps = self.steps;
        self.with_dv(
            fx,
            |core| {
                let owns = |key: u64| cluster.owns_key(&steps, key);
                let DvCore { member, actions, .. } = core;
                let dv = &mut member.dv;
                if dropped > 0 {
                    dv.note_digest_dropped(dropped);
                }
                if same_clock {
                    dv.ingest_digest(now, records, dropped, &owns, actions);
                } else {
                    dv.ingest_forwarded_digest(now, records, dropped, &owns, actions);
                }
            },
            |_, _| {},
        );
    }

    /// Greets analysis session `client`. Its lease is journaled by the
    /// member core (crash rule 1, tier 1b; nothing without a WAL), and
    /// the commit sends the greeting — after the lease's fsync on a
    /// durable context. A same-host session of a context with a shared
    /// table is mapped too (layer 1): a fresh session mapping whose pin
    /// slots are attached to the index *before* the client can pin, its
    /// two descriptors riding the greeting. Every other session (TCP, a
    /// clustered context, or any failure on the way) pins through the
    /// daemon.
    fn greet(
        &self,
        inner: &Inner,
        cx: &mut ConnCtx<'_>,
        client: ClientId,
        fx: &mut Effects,
    ) -> Option<SessionMap> {
        let mapped = self.map_session(cx);
        self.with_dv(fx, |core| core.member.lease(client), |_, _| {});
        fx.outbox.push((
            client,
            Response::HelloOk {
                client_id: client,
                epoch: self.epoch,
            },
        ));
        let session = mapped.map(|(session, fds)| {
            fx.fds = Some((client, fds));
            session
        });
        self.commit(inner, fx);
        session
    }

    /// A fresh session mapping with its slots attached, and the two
    /// descriptors its greeting carries (table, session); `None` off
    /// the local transport, without a shared table, or on failure.
    fn map_session(&self, cx: &ConnCtx<'_>) -> Option<(SessionMap, Vec<OwnedFd>)> {
        if cx.transport() != Transport::Local {
            return None;
        }
        let table = self.table.as_ref()?;
        let table_fd = table.fd().ok()?;
        let (session, fd) = SessionMap::create(table, self.digest).ok()?;
        self.fast.attach(Arc::clone(session.pins()));
        Some((session, vec![table_fd, fd]))
    }

    /// Moves a mapped session's ring into its access log (layer 1a),
    /// oldest first, replaying a full log into the agents between
    /// chunks so nothing is lost to the log's bound. Returns the
    /// records moved.
    fn absorb_ring(
        &self,
        inner: &Inner,
        client: ClientId,
        local: &mut ConnLocal,
        fx: &mut Effects,
    ) -> usize {
        if !local.mapped.as_ref().is_some_and(SessionMap::has_ring) {
            return 0;
        }
        let mut moved = 0;
        loop {
            let ConnLocal {
                mapped: Some(mapped),
                log,
                ..
            } = local
            else {
                return moved;
            };
            log.note_dropped(mapped.take_dropped());
            let room = ACCESS_LOG_CAPACITY - log.len();
            let n = mapped.drain_ring(room, |key, epoch| {
                log.push(AccessRecord {
                    client,
                    key,
                    epoch,
                    ready: true,
                })
            });
            moved += n;
            if n < room {
                return moved;
            }
            self.drain_digest(inner, local, fx);
            self.commit(inner, fx);
        }
    }

    /// Tears down an analysis session: drops the routing entry, returns
    /// the connection's fast pins and drops its mapped slots, clears
    /// its pending request bookkeeping, releases the
    /// client's DV-side pins via `ClientGone`.
    fn analysis_disconnect(
        &self,
        inner: &Inner,
        client: ClientId,
        local: &mut ConnLocal,
        fx: &mut Effects,
    ) {
        self.reactor.unregister(client);
        for (key, pins) in local.fast_pins.drain() {
            self.fast.unpin(key, pins);
        }
        // A mapped session's reclaim is this: its slots stop vetoing.
        // Nothing it pinned was counted anywhere else.
        if let Some(mapped) = local.mapped.take() {
            self.fast.detach(mapped.pins());
        }
        // Durable departure: one ClientGone voids the session's lease.
        // The record rides the commit's WAL pass.
        let now = inner.now();
        self.with_dv(
            fx,
            |core| {
                core.pending.retain(|(c, _), _| *c != client);
                let DvCore { member, actions, .. } = core;
                member.depart(now, client, actions);
            },
            |_, _| {},
        );
        self.commit(inner, fx);
    }

    /// Computes a `Bitrep` reply: read the materialized file, checksum
    /// it, compare against the recorded reference. Blocking (storage
    /// read) — runs on a helper.
    fn bitrep_response(&self, req_id: u64, key: u64) -> Response {
        lockrank::assert_blocking_ok("bitrep-read");
        let name = self.driver.filename_of(key);
        let result = self.storage.read(&name).ok().map(|bytes| {
            let sum = self.driver.checksum(&bytes);
            match self.checksums.get(&key) {
                Some(recorded) => (sum == *recorded, true),
                None => (false, false),
            }
        });
        match result {
            Some((matches, known)) => Response::BitrepResult {
                req_id,
                key,
                matches,
                known,
            },
            None => Response::Failed {
                req_id,
                key,
                code: FailCode::Other,
                reason: "file not materialized; acquire it first".to_string(),
            },
        }
    }

    /// Output-integrity gate: a file a simulator claims to have
    /// produced must exist, structurally verify as SDF when it carries
    /// the SDF magic, and match the recorded `SIMFS_Bitrep` checksum
    /// when one exists for the key. Returns why the file is
    /// unacceptable, or `Ok` to admit it to residency.
    fn verify_produced(&self, key: u64) -> Result<(), String> {
        lockrank::assert_blocking_ok("verify-read");
        let name = self.driver.filename_of(key);
        let bytes = self
            .storage
            .read(&name)
            .map_err(|e| format!("claimed output {name} unreadable: {e}"))?;
        if simstore::sdf::looks_like_sdf(&bytes) {
            simstore::sdf::verify(&bytes)
                .map_err(|e| format!("produced {name} fails SDF verification: {e}"))?;
        }
        if let Some(&recorded) = self.checksums.get(&key) {
            let produced = self.driver.checksum(&bytes);
            if produced != recorded {
                return Err(format!(
                    "produced {name} checksum {produced:#018x} differs from \
                     recorded {recorded:#018x}"
                ));
            }
        }
        Ok(())
    }

    /// Processes one simulator request; `false` ends the session. The
    /// event goes to this shard's effect queue — output verification (a
    /// storage read), the transition and the commit all run on a
    /// helper, and per-shard queue FIFO keeps the sim's events in wire
    /// order (`FileProduced` before `SimFinished`).
    fn handle_simulator_request(
        &self,
        inner: &Inner,
        sim: SimId,
        req: Request,
        finished: &mut bool,
    ) -> bool {
        let event = match req {
            Request::SimStarted => SimWireEvent::Started,
            Request::FileProduced { key, size } => SimWireEvent::Produced { key, size },
            Request::SimFinished => {
                *finished = true;
                SimWireEvent::Finished
            }
            _ => return false, // Bye or protocol error: drop the session
        };
        self.offload(inner, EffectWork::SimEvent { sim, event });
        !*finished
    }

    /// Verifies (where the event claims output), transitions and
    /// commits one simulator event (on a helper thread).
    fn apply_sim_event(&self, inner: &Inner, sim: SimId, event: SimWireEvent) {
        let mut fx = Effects::default();
        let event = match event {
            SimWireEvent::Started => DvEvent::SimStarted { sim },
            SimWireEvent::Produced { key, size } => match self.verify_produced(key) {
                Ok(()) => DvEvent::FileProduced { sim, key, size },
                Err(_why) => {
                    // Never let a bad file reach residency: delete it so
                    // a retry re-produces from scratch, then hand the DV
                    // the corruption (kills the producer, colours the
                    // interval's retry state).
                    let _ = self.storage.delete(&self.driver.filename_of(key));
                    DvEvent::OutputCorrupt { sim, key }
                }
            },
            SimWireEvent::Finished => {
                fx.sims_retired = true;
                DvEvent::SimFinished { sim }
            }
            SimWireEvent::Failed => {
                fx.sims_retired = true;
                DvEvent::SimFailed { sim }
            }
        };
        self.transition(inner, event, &mut fx);
        self.commit(inner, &mut fx);
    }

    /// A simulator said `Hello`: from here on its session is the only
    /// writer of its lifecycle events (module doc, "one writer"), and
    /// the reaper ignores its exit status.
    fn simulator_connected(&self, sim: SimId) {
        let _rank = lockrank::held(lockrank::LEDGER);
        if let Some(job) = self.ledger.lock().jobs.get_mut(&sim) {
            job.connected = true;
        }
    }

    /// Tears down a simulator session; a connection dying before
    /// `SimFinished` means the re-simulation failed. The failure event
    /// rides the same per-shard effect queue as the session's protocol
    /// events, so it cannot overtake a still-queued `FileProduced`.
    fn simulator_disconnect(&self, inner: &Inner, sim: SimId, finished: bool) {
        if !finished {
            self.offload(inner, EffectWork::SimEvent { sim, event: SimWireEvent::Failed });
        }
    }

    /// Drains the launcher's exited jobs (reaper thread only). Every
    /// exit retires its ledger entry; it becomes a DV event only for a
    /// job that never connected — a connected sim's session has
    /// reported (or will report, from its effect queue) everything the
    /// DV needs, and an exit applied here could overtake it. Launchers
    /// report each exit exactly once, so an orphan's result must be
    /// applied, not dropped: a discarded exit would hang its waiters
    /// forever.
    fn reap_exits(&self, inner: &Inner, fx: &mut Effects) {
        for (job, success) in self.launcher.reap() {
            let orphan = {
                let _rank = lockrank::held(lockrank::LEDGER);
                self.ledger.lock().jobs.remove(&job.0)
            }
            .is_some_and(|entry| !entry.connected);
            if !orphan {
                continue;
            }
            let event = if success {
                DvEvent::SimFinished { sim: job.0 }
            } else {
                DvEvent::SimFailed { sim: job.0 }
            };
            fx.sims_retired = true;
            self.transition(inner, event, fx);
            self.commit(inner, fx);
        }
    }
}

/// Executes one drained batch of effect jobs on a helper thread
/// (blocking-permitted). Two phases:
///
/// 1. **Group fsync.** Every WAL record the batch's `Commit` jobs carry
///    — sessions' leases and departures — is appended first, then each
///    dirty context syncs *once*. Write-ahead ordering holds batch-wide:
///    no frame of any job goes on the wire before every record of the
///    batch is durable.
/// 2. **Execution in submission order.** Each job then runs
///    (`commit_inline`, `apply_sim_event`, `bitrep_response`); phase 1
///    left a commit no record to append. Per-class
///    latency lands in the owning context's `DaemonCounters`
///    (`record_effect`).
///
/// Helpers themselves call `commit` recursively (a launch failure
/// feeding back as `SimFailed`, a sim event's transition): those nested
/// commits run in place — `current_shard()` is `None` here — so a
/// helper never submits to the pool and backpressure cannot deadlock.
fn execute_effect_batch(mut jobs: Vec<EffectJob>) {
    let mut dirty: Vec<Arc<CtxRuntime>> = Vec::new();
    for EffectJob { ctx, work, .. } in &mut jobs {
        if let (EffectWork::Commit { fx }, Some(wal)) = (work, &ctx.wal) {
            if !fx.wal_records.is_empty() {
                let _rank = lockrank::held(lockrank::WAL);
                wal.lock().append_all(&mut fx.wal_records);
                if !dirty.iter().any(|c| Arc::ptr_eq(c, ctx)) {
                    dirty.push(Arc::clone(ctx));
                }
            }
        }
    }
    for ctx in &dirty {
        if let Some(wal) = &ctx.wal {
            let _rank = lockrank::held(lockrank::WAL);
            wal.lock().sync_and_compact(ctx.epoch);
        }
    }
    for EffectJob { inner, ctx, work } in jobs {
        let t0 = Instant::now();
        let class = match work {
            EffectWork::Commit { mut fx } => {
                let class = if fx.has_job_control() {
                    EffectClass::Spawn
                } else if !fx.evicts.is_empty() {
                    EffectClass::Evict
                } else {
                    EffectClass::Wal
                };
                ctx.commit_inline(&inner, &mut fx);
                class
            }
            EffectWork::SimEvent { sim, event } => {
                ctx.apply_sim_event(&inner, sim, event);
                EffectClass::Read
            }
            EffectWork::BitrepRead {
                client,
                req_id,
                key,
            } => {
                let mut fx = Effects::default();
                fx.outbox.push((client, ctx.bitrep_response(req_id, key)));
                ctx.flush_outbox(&mut fx);
                EffectClass::Read
            }
        };
        ctx.record_effect(class, t0.elapsed());
    }
}

/// A running DV daemon; dropping it (or calling
/// [`shutdown`](DvServer::shutdown)) stops it.
pub struct DvServer {
    inner: Arc<Inner>,
    /// `dv-accept` and `dv-reaper`, joined by the first shutdown.
    threads: StdMutex<Vec<JoinHandle<()>>>,
}

impl DvServer {
    /// Binds and starts a single-context daemon. Pre-existing files in
    /// the storage area (the initial simulation's output) are primed
    /// into the cache.
    pub fn start(config: ServerConfig, bind: &str) -> io::Result<DvServer> {
        Self::start_multi(vec![config], bind)
    }

    /// Binds and starts a daemon serving several simulation contexts
    /// (§II) on one address; clients route by context name at hello
    /// time. Thread topology is fixed: `min(cores, 8)` reactor shards
    /// and one effect helper per shard.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`], before anything is bound or
    /// started, for a context with `dv_shards > 1` or a cluster index
    /// outside `0..size`; otherwise the bind and start-up I/O errors.
    ///
    /// # Panics
    /// Panics on duplicate context names — a configuration error.
    pub fn start_multi(configs: Vec<ServerConfig>, bind: &str) -> io::Result<DvServer> {
        for config in &configs {
            let name = &config.ctx.name;
            let cluster = config.cluster;
            if config.dv_shards > 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "context {name:?}: ServerConfig::dv_shards = {} (only 0 or 1: a \
                         context runs one DV; split it across daemons with \
                         ServerConfig::cluster)",
                        config.dv_shards
                    ),
                ));
            }
            if cluster.index >= cluster.size {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "context {name:?}: ServerConfig::cluster index {} out of range 0..{}",
                        cluster.index, cluster.size
                    ),
                ));
            }
        }
        let listener = Listener::bind(bind)?;
        let addr = listener.local_addr()?;

        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let reactor = Reactor::start(cores)?;
        let accept_wake = EventFd::new()?;
        let clock_base = crate::sys::monotonic_ns();

        let mut contexts = HashMap::new();
        let mut prime_work: Vec<(Arc<CtxRuntime>, Vec<u64>)> = Vec::new();
        let mut next_client_floor = 1u64;
        for config in configs {
            let name = config.ctx.name.clone();
            let cluster = config.cluster;
            // The lock-free hit layer serves every context. Prefetching
            // contexts decouple observation from acquisition: fast hits
            // are *recorded* into the per-connection digest and replayed
            // into the agents out-of-band instead of taking a DV lock.
            // A solo context, durable or not, lays the layer over shared
            // memory that same-host sessions map (layer 1); a clustered
            // one routes, so its table stays on the heap and every pin
            // goes through here.
            let max_key = config.ctx.steps.n_outputs();
            let (table, fast) = match (!cluster.is_clustered())
                .then(|| ContextTable::create(max_key, clock_base))
                .and_then(Result::ok)
            {
                Some((table, index)) => (Some(table), index),
                None => (None, HitIndex::new(max_key as usize)),
            };
            let fast = Arc::new(fast);
            let digest = config.ctx.prefetch;
            let mut dv = DataVirtualizer::for_member(config.ctx.clone(), cluster);
            dv.attach_index(Arc::clone(&fast));

            // Tier 1b: open the WAL (one per cluster member, named so
            // priming's `key_of` never mistakes it for an output step).
            let durability = config.durability;
            let wal_path = config.storage.root().join(format!("dv-member-{}.wal", cluster.index));
            let opened = durability.wal.then(|| WriteAheadLog::open(&wal_path)).transpose()?;
            if durability.recover && opened.as_ref().is_some_and(|(_, _, report)| report.earlier) {
                return Err(EarlierJournal { path: wal_path }.into_io());
            }
            // Recovery: everything already on disk is cached state —
            // on a shared storage area a cluster member primes only the
            // intervals it owns (the rest are another daemon's to budget
            // or evict) — then the journal replays under a fresh epoch
            // and, with `recover`, the previous instance's live sessions
            // are leased and its resident steps held for their return.
            let storage = &config.storage;
            let driver = &config.driver;
            let files = storage.list()?;
            let resident = files.iter().filter_map(|file| {
                let key = driver.key_of(file)?;
                Some((key, move || storage.size_of(file).unwrap_or(0)))
            });
            let (member, recovered) = MemberCore::recover(
                cluster,
                dv,
                resident,
                opened.as_ref().map(|(_, journal, _)| journal.as_slice()),
                durability.recover,
                SimTime::from_nanos(crate::sys::monotonic_ns().saturating_sub(clock_base)),
                Dur::from_nanos(durability.lease_timeout.as_nanos() as u64),
            );
            let epoch = member.epoch();
            // Client ids must never collide with a recovered instance's
            // (their leases live on under the old ids until re-asserted
            // or expired).
            next_client_floor = next_client_floor.max(recovered.client_floor);
            let wal_replayed = opened.as_ref().map_or(0, |(_, _, report)| report.records);
            let wal = match (opened, recovered.state) {
                (Some((mut log, _, _)), Some(state)) => {
                    // Checkpoint: the log now holds exactly the
                    // recovered state under the new epoch.
                    log.compact(&state.snapshot(epoch))?;
                    Some(Mutex::new(DaemonWal { log, state }))
                }
                _ => None,
            };
            let runtime = Arc::new_cyclic(|weak_self| CtxRuntime {
                name: name.clone(),
                weak_self: weak_self.clone(),
                dv: Mutex::new(DvCore {
                    member,
                    pending: HashMap::new(),
                    actions: Vec::new(),
                }),
                cluster,
                steps: config.ctx.steps,
                fast,
                table,
                digest,
                counters: DaemonCounters::default(),
                reactor: Arc::clone(&reactor),
                ledger: Mutex::new(LaunchLedger::default()),
                driver: config.driver,
                storage: config.storage,
                launcher: config.launcher,
                checksums: config.checksums,
                wal,
                epoch,
                wal_replayed,
            });
            prime_work.push((Arc::clone(&runtime), recovered.evicted));
            let previous = contexts.insert(name.clone(), runtime);
            assert!(previous.is_none(), "duplicate context name {name:?}");
        }

        // The effect tier: one bounded queue per reactor shard, each
        // drained by its own helper thread, so per-queue FIFO is an
        // execution order. Jobs carry the daemon they belong to; the
        // pool itself holds no reference to it.
        let pool = EffectPool::start(
            reactor.shard_count(),
            reactor.shard_count(),
            EFFECT_QUEUE_CAP,
            Arc::new(execute_effect_batch),
        )?;
        let inner = Arc::new_cyclic(|weak_self| Inner {
            contexts,
            clock_base,
            addr,
            local_name: listener.local_name().map(str::to_string),
            next_client: AtomicU64::new(next_client_floor),
            shutdown: AtomicBool::new(false),
            reactor,
            accept_wake,
            reap_signal: (StdMutex::new(false), Condvar::new()),
            quiesce: (StdMutex::new(()), Condvar::new()),
            weak_self: weak_self.clone(),
            pool,
        });

        // Delete whatever the priming evicted (storage shrunk between
        // runs).
        for (runtime, evicted) in prime_work {
            for key in evicted {
                let name = runtime.driver.filename_of(key);
                let _ = runtime.storage.delete(&name);
            }
        }

        let accept = Self::spawn_accept_loop(&inner, listener)?;

        // Reaper: a launched job can die before it ever connects (bad
        // restart file, scheduler rejection). While jobs are in flight,
        // poll every launcher and translate orphaned exits into
        // SimFailed/SimFinished so waiting analyses get an answer
        // instead of a hang; while nothing runs, park on the condvar —
        // an idle daemon makes zero syscalls.
        let reap_inner = Arc::clone(&inner);
        let reaper = std::thread::Builder::new()
            .name("dv-reaper".into())
            .spawn(move || run_reaper(&reap_inner))?;
        Ok(DvServer {
            inner,
            threads: StdMutex::new(vec![accept, reaper]),
        })
    }

    fn spawn_accept_loop(inner: &Arc<Inner>, listener: Listener) -> io::Result<JoinHandle<()>> {
        // Event-driven accept: one epoll over the listening sockets
        // (token = the listener's accept source) and the shutdown
        // eventfd, so shutdown unblocks instantly.
        const SHUTDOWN_TOKEN: u64 = u64::MAX;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        for (source, fd) in listener.fds().enumerate() {
            epoll.add(fd, EPOLLIN, source as u64)?;
        }
        epoll.add(inner.accept_wake.fd(), EPOLLIN, SHUTDOWN_TOKEN)?;
        let inner = Arc::clone(inner);
        std::thread::Builder::new().name("dv-accept".into()).spawn(move || {
            // Transient-error backoff: under fd exhaustion (EMFILE) the
            // level-triggered epoll re-reports the un-accepted
            // connection on every wait, so a fixed short sleep spins
            // the loop at 100 Hz for as long as the condition lasts.
            // Double the sleep per consecutive failure (bounded), reset
            // on the first successful accept. One ladder for all the
            // listening sockets: fds are a process-wide resource.
            const BACKOFF_MIN: Duration = Duration::from_millis(10);
            const BACKOFF_MAX: Duration = Duration::from_secs(1);
            let mut backoff = BACKOFF_MIN;
            // Accepts from listening socket `source` until it would
            // block; `false` after a transient failure (slept off
            // already): back to the epoll wait.
            let mut drain = |source: usize| -> bool {
                loop {
                    match listener.accept(source) {
                        Ok(stream) => {
                            backoff = BACKOFF_MIN;
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            inner.reactor.submit(
                                stream,
                                Box::new(EpollConn {
                                    inner: Arc::clone(&inner),
                                    state: ConnState::Handshake,
                                }),
                            );
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            backoff = BACKOFF_MIN;
                            return true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            // Transient (EMFILE/ECONNABORTED): never
                            // exit — the listeners die with this
                            // thread. Back off and re-enter the epoll
                            // wait; shutdown still interrupts via the
                            // eventfd after at most one backoff window.
                            // Daemon-wide, so every context's
                            // snapshot carries it.
                            for ctx in inner.contexts.values() {
                                ctx.counters.accept_retries.fetch_add(1, Ordering::Relaxed);
                            }
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(BACKOFF_MAX);
                            return false;
                        }
                    }
                }
            };
            let mut events = [EpollEvent::default(); 4];
            loop {
                let ready = epoll.wait(&mut events, -1).unwrap_or(0);
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                for ev in &events[..ready] {
                    let source = ev.data;
                    if source != SHUTDOWN_TOKEN && !drain(source as usize) {
                        break;
                    }
                }
            }
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The abstract Unix name same-host sessions reach this daemon
    /// under (without its leading NUL); `None` for a TCP-only daemon —
    /// bound to a non-loopback address, or its name was taken
    /// ([`crate::net`], "The rendezvous rule").
    pub fn local_name(&self) -> Option<&str> {
        self.inner.local_name.as_deref()
    }

    /// Statistics snapshot of the only context (single-context
    /// deployments): the DV's counters merged with the fast-path
    /// counters.
    ///
    /// # Panics
    /// Panics if the daemon serves more than one context — use
    /// [`context_stats`](Self::context_stats) then.
    pub fn stats(&self) -> DvStats {
        assert_eq!(
            self.inner.contexts.len(),
            1,
            "multi-context daemon: use context_stats(name)"
        );
        let runtime = self.inner.contexts.values().next().expect("one context");
        runtime.stats_snapshot()
    }

    /// Statistics snapshot of a named context.
    pub fn context_stats(&self, name: &str) -> Option<DvStats> {
        self.inner.contexts.get(name).map(|rt| rt.stats_snapshot())
    }

    /// Observability probe: is `key` currently fast-pinned in
    /// `context`'s lock-free hit index? `None` when the context is
    /// unknown. Used by the disconnect leak tests — a pin that
    /// survives its owning connection would veto eviction forever.
    pub fn fast_pinned(&self, context: &str, key: u64) -> Option<bool> {
        let runtime = self.inner.contexts.get(context)?;
        Some(runtime.fast.is_pinned(key))
    }

    /// The names of the contexts served.
    pub fn context_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.contexts.keys().cloned().collect();
        names.sort();
        names
    }

    /// Stops the daemon: waits (bounded) for in-flight re-simulations,
    /// stops accepting, drains the effect tier, and joins the accept
    /// loop and the reaper — once this returns, the daemon launches
    /// nothing more. Idempotent: `Drop` calls it again, and a later call
    /// returns at once.
    pub fn shutdown(&self) {
        let threads = std::mem::take(&mut *self.threads.lock().unwrap_or_else(|e| e.into_inner()));
        if threads.is_empty() {
            return;
        }
        // Quiesce before stopping the machinery: in-flight
        // re-simulations keep producing files until they report
        // SimFinished, and the reaper (which must keep running here —
        // it is how a *crashed* sim's exit reaches the DV) drains
        // orphans. A bounded wait lets callers tear down the storage
        // area without racing live writers. The wait is event-driven:
        // `commit` notifies the quiesce condvar as sims retire (the
        // short timeout only backstops a wakeup lost to the unguarded
        // DV-state read).
        let deadline = Instant::now() + Duration::from_secs(5);
        let (qlock, qcv) = &self.inner.quiesce;
        for ctx in self.inner.contexts.values() {
            let _rank = lockrank::held(lockrank::QUIESCE);
            let mut guard = qlock.lock().unwrap();
            loop {
                let idle = {
                    let _dv_rank = lockrank::held(lockrank::DV);
                    let core = ctx.dv.lock();
                    core.member.dv.active_sims() == 0 && core.member.dv.queued_launches() == 0
                };
                if idle {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let wait = (deadline - now).min(Duration::from_millis(100));
                guard = qcv.wait_timeout(guard, wait).unwrap().0;
            }
        }
        // Close every shared table before the sessions go: a mapped
        // session must not take a slot pin (and with it a proof of its
        // cached file) from a daemon that is gone.
        for ctx in self.inner.contexts.values() {
            if let Some(table) = &ctx.table {
                table.close();
            }
        }
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.accept_wake.signal();
        self.inner.reactor.shutdown();
        // Drain the effect tier: queued effects (WAL appends, pending
        // replies, evictions) execute before the helpers join — the
        // tier never drops work it accepted.
        self.inner.pool.shutdown();
        // Release the reaper from its idle park.
        {
            let _rank = lockrank::held(lockrank::REAP_SIGNAL);
            let mut stop = self.inner.reap_signal.0.lock().unwrap();
            *stop = true;
        }
        self.inner.reap_signal.1.notify_all();
        // A reaper in mid-pass finishes the step it is in — and takes no
        // supervision step after it (`run_reaper`) — before this returns.
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for DvServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_reaper(inner: &Arc<Inner>) {
    let mut fx = Effects::default();
    loop {
        // Park until jobs are in flight (or shutdown). Zero wakeups,
        // zero syscalls while the daemon is idle — except while
        // supervision work is scheduled (a backed-off retry, a hang
        // deadline, a quarantine expiry, a recovery lease awaiting
        // re-assertion), when the park becomes a timed wait until the
        // earliest deadline. Transitions that create supervision work
        // notify the condvar, so a long wait re-arms against any newly
        // earlier deadline.
        {
            let _rank = lockrank::held(lockrank::REAP_SIGNAL);
            let mut stop = inner.reap_signal.0.lock().unwrap();
            loop {
                if *stop {
                    return;
                }
                let busy = inner.contexts.values().any(|rt| {
                    let _ledger_rank = lockrank::held(lockrank::LEDGER);
                    !rt.ledger.lock().jobs.is_empty()
                });
                if busy {
                    break;
                }
                let now = inner.now();
                if let Some(due) = inner
                    .contexts
                    .values()
                    .filter_map(|rt| rt.supervision_due(now))
                    .min()
                {
                    let wait = Duration::from_nanos(due.saturating_since(now).as_nanos())
                        .max(Duration::from_millis(1));
                    let (guard, _) = inner.reap_signal.1.wait_timeout(stop, wait).unwrap();
                    stop = guard;
                    if *stop {
                        return;
                    }
                    break;
                }
                stop = inner.reap_signal.1.wait(stop).unwrap();
            }
        }
        // Poll pass: translate orphaned exits into DV events and run
        // the supervision tick (lapsed recovery leases, hang watchdog,
        // due retries, quarantine sweeps). A shutdown that lands
        // mid-pass ends it before the next step that could launch a
        // simulation.
        for runtime in inner.contexts.values() {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            runtime.reap_exits(inner, &mut fx);
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            runtime.supervise(inner, &mut fx);
        }
        // Re-poll cadence while jobs run; shutdown interrupts the wait.
        {
            let _rank = lockrank::held(lockrank::REAP_SIGNAL);
            let stop = inner.reap_signal.0.lock().unwrap();
            if *stop {
                return;
            }
            let _ = inner
                .reap_signal
                .1
                .wait_timeout(stop, Duration::from_millis(50))
                .unwrap();
        }
    }
}

/// Per-connection state machine of the reactor front-end. The handshake
/// frame routes the connection to a context and a role; afterwards each
/// frame is dispatched through the shared request handlers.
struct EpollConn {
    inner: Arc<Inner>,
    state: ConnState,
}

// Every connection's state lives in its boxed handler, and the large
// variant is the common one (analysis sessions): boxing it again would
// only add a pointer chase to the hit path.
#[allow(clippy::large_enum_variant)]
enum ConnState {
    /// Awaiting the Hello frame.
    Handshake,
    Analysis {
        runtime: Arc<CtxRuntime>,
        client: ClientId,
        local: ConnLocal,
        fx: Effects,
    },
    Simulator {
        runtime: Arc<CtxRuntime>,
        sim: SimId,
        finished: bool,
    },
    /// Torn down; any further frame closes the connection.
    Done,
}

/// Encodes one response as a complete wire frame for a direct
/// connection write (handshake replies that precede registration).
fn direct_frame(cx: &mut ConnCtx<'_>, resp: &Response) {
    let mut batch = FrameBatch::new();
    batch.push_response(resp);
    cx.write(batch.as_bytes());
}

impl crate::reactor::Handler for EpollConn {
    fn on_frame(&mut self, frame: &[u8], cx: &mut ConnCtx<'_>) -> bool {
        match &mut self.state {
            ConnState::Handshake => {
                let Ok(req) = Request::decode(frame) else {
                    return false;
                };
                let Request::Hello {
                    kind,
                    context,
                    membership,
                    epoch: prior_epoch,
                } = req
                else {
                    direct_frame(
                        cx,
                        &Response::Error {
                            message: "expected Hello".to_string(),
                        },
                    );
                    return false;
                };
                let Some(runtime) = self.inner.route(&context).cloned() else {
                    direct_frame(cx, &unknown_context_error(&self.inner, &context));
                    return false;
                };
                // Membership handshake: a client whose member map or
                // step math disagrees with this daemon would misroute
                // every interval — reject it here, descriptively,
                // instead of failing key-by-key later (or worse,
                // silently accepting a stream hashed with different
                // cadences). `None` (solo tools, simulators) skips the
                // check: they route nothing.
                if let Some(m) = membership {
                    let want_hash = runtime.steps.config_hash();
                    if m.index != runtime.cluster.index
                        || m.size != runtime.cluster.size
                        || m.steps_hash != want_hash
                    {
                        direct_frame(
                            cx,
                            &Response::Error {
                                message: format!(
                                    "cluster membership mismatch: client expects member \
                                     {} of {} with steps hash {:#018x}, daemon is member \
                                     {} of {} with steps hash {:#018x}",
                                    m.index,
                                    m.size,
                                    m.steps_hash,
                                    runtime.cluster.index,
                                    runtime.cluster.size,
                                    want_hash
                                ),
                            },
                        );
                        return false;
                    }
                }
                if cx.transport() == Transport::Local {
                    runtime.counters.local_sessions.fetch_add(1, Ordering::Relaxed);
                }
                match kind {
                    ClientKind::Analysis => {
                        // A hello carrying a prior-epoch claim is a
                        // reconnecting session (it will follow up with
                        // a Reassert).
                        if prior_epoch.is_some() {
                            runtime
                                .counters
                                .client_reconnects
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        let client = self.inner.next_client.fetch_add(1, Ordering::SeqCst);
                        // Route first, then greet: a notification can
                        // only exist after a request, which can only
                        // follow the HelloOk.
                        cx.register(client);
                        let mut local = ConnLocal::new();
                        let mut fx = Effects::default();
                        local.mapped = runtime.greet(&self.inner, cx, client, &mut fx);
                        // Clustered sessions see only the keys routed
                        // here; their full stream arrives as forwarded
                        // AccessDigest frames instead of local records.
                        local.observe_local = membership.is_none_or(|m| m.size <= 1);
                        self.state = ConnState::Analysis {
                            runtime,
                            client,
                            local,
                            fx,
                        };
                    }
                    ClientKind::Simulator { sim_id } => {
                        // Simulators receive no post-handshake traffic;
                        // they are not registered for routing.
                        direct_frame(
                            cx,
                            &Response::HelloOk {
                                client_id: sim_id,
                                epoch: runtime.epoch,
                            },
                        );
                        runtime.simulator_connected(sim_id);
                        self.state = ConnState::Simulator {
                            runtime,
                            sim: sim_id,
                            finished: false,
                        };
                    }
                }
                true
            }
            ConnState::Analysis {
                runtime,
                client,
                local,
                fx,
            } => {
                let Ok(req) = Request::decode(frame) else {
                    return false;
                };
                // Layer 1a: the session's shared-memory hits come
                // first, so ring records and the accesses this request
                // records stay in order.
                if let Some(mapped) = &mut local.mapped {
                    mapped.unpark();
                }
                runtime.absorb_ring(&self.inner, *client, local, fx);
                runtime.handle_analysis_request(&self.inner, *client, req, local, cx, fx)
            }
            ConnState::Simulator {
                runtime,
                sim,
                finished,
            } => {
                let Ok(req) = Request::decode(frame) else {
                    return false;
                };
                runtime.handle_simulator_request(&self.inner, *sim, req, finished)
            }
            ConnState::Done => false,
        }
    }

    fn wants_tick(&self) -> bool {
        // A prefetching context's pure-hit connection never takes a DV
        // lock, so its recorded accesses would otherwise sit in the log
        // forever: ask the reactor for ticks while records wait — and,
        // for a mapped session, until a tick finds its ring empty.
        match &self.state {
            ConnState::Analysis { runtime, local, .. } => {
                runtime.digest
                    && (!local.log.is_empty() || local.mapped.as_ref().is_some_and(SessionMap::awake))
            }
            _ => false,
        }
    }

    fn on_tick(&mut self, _cx: &mut ConnCtx<'_>) {
        if let ConnState::Analysis {
            runtime,
            client,
            local,
            fx,
        } = &mut self.state
        {
            let absorbed = runtime.absorb_ring(&self.inner, *client, local, fx);
            if runtime.digest && !local.log.is_empty() {
                runtime.drain_digest(&self.inner, local, fx);
                runtime.commit(&self.inner, fx);
            }
            if absorbed == 0 {
                if let Some(mapped) = &mut local.mapped {
                    mapped.park();
                }
            }
        }
    }

    fn on_close(&mut self) {
        match std::mem::replace(&mut self.state, ConnState::Done) {
            ConnState::Handshake | ConnState::Done => {}
            ConnState::Analysis {
                runtime,
                client,
                mut local,
                mut fx,
            } => runtime.analysis_disconnect(&self.inner, client, &mut local, &mut fx),
            ConnState::Simulator {
                runtime,
                sim,
                finished,
            } => runtime.simulator_disconnect(&self.inner, sim, finished),
        }
    }
}

fn unknown_context_error(inner: &Inner, context: &str) -> Response {
    Response::Error {
        message: format!("unknown simulation context {:?} (available: {:?})", context, {
            let mut names: Vec<&String> = inner.contexts.keys().collect();
            names.sort();
            names
        }),
    }
}

/// Deterministic fault injection for [`ThreadSimLauncher`]: exercises
/// the daemon's supervision tier (retry, integrity gate) end to end in
/// tests and `bench_daemon --sim-faults`. Both knobs are once-only: a
/// retried production succeeds, so faults are transient by
/// construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimFaultSpec {
    /// The first this-many sims to launch each crash once (disconnect
    /// after `SimStarted`, producing nothing). Retries are fresh sim
    /// ids, so they run clean once the quota is spent; a quota at or
    /// above `attempt_budget` therefore drives an interval to poison.
    pub crash_quota: u64,
    /// When non-zero, each key divisible by this is first published as
    /// a truncated SDF container (magic but no valid body), tripping
    /// the daemon's output-integrity gate.
    pub corrupt_every: u64,
    /// Synchronous latency of each `launch()` call itself (the cost a
    /// real scheduler submission or `fork` would charge the calling
    /// thread). The head-of-line regression test uses it to show a slow
    /// launch stalling only its effect helper, never its reactor shard.
    pub launch_delay: std::time::Duration,
}

/// One launched sim thread: its kill flag, and the handle whose result
/// is the job's success (it reached the daemon and ran to the end).
struct SimThread {
    killed: Arc<AtomicBool>,
    handle: JoinHandle<bool>,
}

/// In-process simulator launcher: "launches" jobs as threads that
/// connect back to the daemon like a real simulator process would. Used
/// by tests and the virtual examples; production deployments use
/// [`simbatch::ProcessLauncher`] with the `simfs-simd` binary.
pub struct ThreadSimLauncher {
    /// Generates the bytes of output step `key`.
    make_bytes: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync>,
    /// Maps a key to its published filename (must agree with the
    /// context's driver).
    name_of: Arc<dyn Fn(u64) -> String + Send + Sync>,
    /// Wall-clock production delay per step (simulates `tau_sim`).
    step_delay: std::time::Duration,
    /// Restart latency before the first step (simulates `alpha_sim`).
    restart_delay: std::time::Duration,
    /// Unreaped sim threads. Entries leave through `kill` or `reap`,
    /// like [`simbatch::ProcessLauncher`]'s children.
    running: Mutex<HashMap<JobId, SimThread>>,
    faults: SimFaultSpec,
    /// Sim ids that already crashed (each id fails at most once).
    crashed_sims: Arc<Mutex<HashSet<u64>>>,
    /// Keys already published corrupt (each key corrupts at most once).
    corrupted_keys: Arc<Mutex<HashSet<u64>>>,
}

impl ThreadSimLauncher {
    /// A launcher producing steps via `make_bytes` with the given
    /// latencies, publishing them under `name_of(key)`.
    pub fn new(
        make_bytes: impl Fn(u64) -> Vec<u8> + Send + Sync + 'static,
        name_of: impl Fn(u64) -> String + Send + Sync + 'static,
        restart_delay: std::time::Duration,
        step_delay: std::time::Duration,
    ) -> ThreadSimLauncher {
        ThreadSimLauncher {
            make_bytes: Arc::new(make_bytes),
            name_of: Arc::new(name_of),
            step_delay,
            restart_delay,
            running: Mutex::new(HashMap::new()),
            faults: SimFaultSpec::default(),
            crashed_sims: Arc::new(Mutex::new(HashSet::new())),
            corrupted_keys: Arc::new(Mutex::new(HashSet::new())),
        }
    }

    /// Builder: inject deterministic transient faults.
    pub fn with_faults(mut self, faults: SimFaultSpec) -> Self {
        self.faults = faults;
        self
    }

    fn parse_arg(spec: &SpawnSpec, flag: &str) -> Option<u64> {
        let pos = spec.args.iter().position(|a| a == flag)?;
        spec.args.get(pos + 1)?.parse().ok()
    }

    fn env_of<'a>(spec: &'a SpawnSpec, key: &str) -> Option<&'a str> {
        spec.env
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl JobLauncher for ThreadSimLauncher {
    fn launch(&self, job: JobId, spec: &SpawnSpec) -> io::Result<simbatch::JobHandle> {
        if !self.faults.launch_delay.is_zero() {
            // Charge the submission cost to the calling thread, like a
            // real scheduler hand-off would.
            std::thread::sleep(self.faults.launch_delay);
        }
        let start = Self::parse_arg(spec, "--start-key")
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "missing --start-key"))?;
        let stop = Self::parse_arg(spec, "--stop-key")
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "missing --stop-key"))?;
        let addr = Self::env_of(spec, env_keys::DV_ADDR)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "missing DV addr"))?
            .to_string();
        let sim_id: u64 = Self::env_of(spec, env_keys::SIM_ID)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "missing sim id"))?;
        let context = Self::env_of(spec, env_keys::CONTEXT).unwrap_or("").to_string();
        let data_dir = Self::env_of(spec, env_keys::DATA_DIR)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "missing data dir"))?
            .to_string();

        let killed = Arc::new(AtomicBool::new(false));
        let kill_requested = Arc::clone(&killed);
        let make_bytes = Arc::clone(&self.make_bytes);
        let name_of = Arc::clone(&self.name_of);
        let (restart_delay, step_delay) = (self.restart_delay, self.step_delay);
        let faults = self.faults;
        let crash_this_sim = faults.crash_quota != 0 && {
            let mut crashed = self.crashed_sims.lock();
            (crashed.len() as u64) < faults.crash_quota && crashed.insert(sim_id)
        };
        let corrupted_keys = Arc::clone(&self.corrupted_keys);

        let handle = std::thread::spawn(move || {
            let run = || -> io::Result<()> {
                let (mut stream, _) = net::dial_any(&addr)?;
                wire::write_frame(
                    &mut stream,
                    &Request::Hello {
                        kind: ClientKind::Simulator { sim_id },
                        context,
                        membership: None,
                        epoch: None,
                    }
                    .encode(),
                )?;
                let _ = wire::read_frame(&mut stream)?; // HelloOk
                std::thread::sleep(restart_delay);
                wire::write_frame(&mut stream, &Request::SimStarted.encode())?;
                if crash_this_sim {
                    // Injected transient crash: disconnect without
                    // SimFinished, producing nothing. The daemon maps
                    // the hangup to SimFailed and the supervision tier
                    // retries with a fresh sim.
                    return Ok(());
                }
                let area = StorageArea::create(&data_dir, u64::MAX)?;
                for key in start..=stop {
                    if kill_requested.load(Ordering::SeqCst) {
                        // Killed: vanish without SimFinished; the server
                        // treats the drop as SimFailed — unless the DV
                        // already removed the sim (the normal kill path).
                        return Ok(());
                    }
                    std::thread::sleep(step_delay);
                    let corrupt = faults.corrupt_every != 0
                        && key % faults.corrupt_every == 0
                        && corrupted_keys.lock().insert(key);
                    let bytes = if corrupt {
                        // SDF magic with a truncated body: fails the
                        // daemon's structural verification.
                        b"SDF1".to_vec()
                    } else {
                        make_bytes(key)
                    };
                    let size = area.publish(&name_of(key), &bytes)?;
                    wire::write_frame(&mut stream, &Request::FileProduced { key, size }.encode())?;
                }
                wire::write_frame(&mut stream, &Request::SimFinished.encode())?;
                Ok(())
            };
            run().is_ok()
        });
        self.running.lock().insert(job, SimThread { killed, handle });
        Ok(simbatch::JobHandle { job, pid: 0 })
    }

    fn kill(&self, job: JobId) -> io::Result<()> {
        if let Some(sim) = self.running.lock().remove(&job) {
            sim.killed.store(true, Ordering::SeqCst);
        }
        Ok(())
    }

    fn reap(&self) -> Vec<(JobId, bool)> {
        let mut running = self.running.lock();
        let done: Vec<JobId> = running
            .iter()
            .filter(|(_, sim)| sim.handle.is_finished())
            .map(|(job, _)| *job)
            .collect();
        done.into_iter()
            .map(|job| {
                let sim = running.remove(&job).expect("collected under this lock");
                // A sim thread that panicked counts as a failed job.
                (job, sim.handle.join().unwrap_or(false))
            })
            .collect()
    }
}
