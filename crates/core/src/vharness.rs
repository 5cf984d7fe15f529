//! Virtual-time experiment harness: the shipping DV protocol driven by
//! `simkit`'s engine.
//!
//! One virtual world runs every experiment: a K-member DV cluster — one
//! member core per member (the daemon's crash protocol around its
//! [`DataVirtualizer`], `member.rs`) over one shared virtual storage
//! set, each journaling sessions to an in-memory WAL — serving
//! one closed-loop analysis. The analysis issues (possibly strided)
//! accesses with think time `tau_cli`; a miss blocks it until a
//! re-simulation produces the step. Launch actions become scheduled
//! production streams — queueing delay plus restart latency
//! `alpha_sim`, then one `FileProduced` every `tau_sim` — and kill
//! actions cancel them. A [`simbatch::Cluster`] tracks node usage for
//! the figure annotations.
//!
//! The DVs run the mode the daemon ships. Their prefetch agents learn
//! the access stream only from digests: each access a member serves
//! the analysis is recorded into an [`AccessLog`] and drained into
//! [`DataVirtualizer::ingest_digest`] right after the acquire that
//! recorded it — the daemon's drain piggybacked on a request that took
//! the DV lock. The harness plays the daemon reaper's role too,
//! scheduling a wake-up at each member's next supervision deadline, so
//! backoff retries, watchdog kills, lease and quarantine expiries all
//! happen at exact virtual times.
//!
//! [`VirtualExperiment`] reproduces the timing experiments (Figs.
//! 16–19): a single member, no faults, each step released before the
//! next acquire. [`FaultedClusterExperiment`] opens the whole rig: K
//! members, a pinned working set, and a [`FaultPlan`] — crash member k
//! at virtual time t, restart it with or without `--recover`, drop the
//! analysis connection, delay a member (a partition is `DelayMember`
//! over a subset). Everything is deterministic given the experiment
//! seed, so every crash/recovery interleaving is replayable
//! bit-for-bit and can be asserted equivalent to a faultless run.
//!
//! Besides whole-member faults, the plan can script *production*
//! faults against the DV's supervision tier: [`Fault::FailSim`]
//! crashes sim attempts (transient or persistent), [`Fault::HangSim`]
//! wedges a started sim so only the hang watchdog can reclaim it, and
//! [`Fault::CorruptOutput`] feeds the integrity gate a bad step.
//!
//! Every member journals what a durable daemon does: one `Lease` per
//! hello and one `ClientGone` per departure, and no pin or release —
//! so a crash plan exercises the member core's crash rule
//! (`member.rs`) on exactly the records the daemon writes.
//! [`Fault::Flood`] adds the cache pressure a second session would, and
//! [`FaultReport::held_evictions`] records every step evicted while the
//! analysis still held it.
//!
//! A clustered member records the accesses routed to it; the digests a
//! clustered DVLib session forwards to every member are not modelled.

use crate::dv::{
    shard_cfg, ClusterMember, DataVirtualizer, DvAction, DvEvent, DvStats, FailCode, SimId,
};
use crate::member::MemberCore;
use crate::model::ContextCfg;
use crate::prefetch::{AccessLog, AccessRecord};
use crate::route::{ownership_error, AcquireMode, ClusterRoute, Release, Route};
use simbatch::{Cluster, JobId, QueueModel};
use simkit::{Dur, Engine, SeedSeq, SimRng, SimTime};
use simstore::walog::WalRecord;
use std::collections::{HashMap, VecDeque};

/// One virtual-time experiment configuration.
#[derive(Clone)]
pub struct VirtualExperiment {
    /// Context (cadences, cache, policy, `s_max`, prefetch flag).
    pub cfg: ContextCfg,
    /// True restart latency of the simulator (excluding queueing).
    pub alpha_sim: Dur,
    /// True inter-production time of the simulator.
    pub tau_sim: Dur,
    /// Additional job queueing delay distribution.
    pub queue: QueueModel,
    /// Nodes per re-simulation (cluster accounting, figure annotations).
    pub nodes_per_sim: u32,
    /// Experiment seed.
    pub seed: u64,
}

/// Result of one analysis run.
#[derive(Clone, Debug)]
pub struct AnalysisResult {
    /// Wall-clock (virtual) time from first access to last consumption.
    pub completion: Dur,
    /// DV statistics at the end of the run.
    pub stats: DvStats,
    /// Peak concurrent node usage.
    pub peak_nodes: u32,
    /// Peak concurrent re-simulations.
    pub peak_sims: u32,
}

const ANALYSIS_CLIENT: u64 = 1;

#[derive(Clone, Copy)]
struct ExpParams {
    alpha_sim: Dur,
    tau_sim: Dur,
    tau_cli: Dur,
    queue: QueueModel,
    nodes_per_sim: u32,
    output_bytes: u64,
}

impl VirtualExperiment {
    /// Runs a single analysis over `accesses` with think time `tau_cli`;
    /// returns completion time and statistics.
    ///
    /// # Panics
    /// Panics if the run deadlocks (an access never gets served) — that
    /// would be a DV logic bug, not an experiment outcome.
    pub fn run_analysis(&self, accesses: &[u64], tau_cli: Dur) -> AnalysisResult {
        let world = FaultedClusterExperiment {
            cfg: self.cfg.clone(),
            members: 1,
            alpha_sim: self.alpha_sim,
            tau_sim: self.tau_sim,
            queue: self.queue,
            // Nothing crashes, so no recovery lease is ever granted.
            lease_timeout: Dur::ZERO,
            pin_window: 0,
            failover: false,
            seed: self.seed,
        };
        let (report, peaks) =
            world.run_counting_nodes(accesses, tau_cli, &FaultPlan::default(), self.nodes_per_sim);
        AnalysisResult {
            completion: report.completion,
            stats: report.stats,
            peak_nodes: peaks.nodes,
            peak_sims: peaks.sims,
        }
    }

    /// `T_single`: the time a single simulation serving all `m` accesses
    /// would take — `alpha_sim + m·tau_sim` (§VI). The in-situ bound the
    /// figures compare against.
    pub fn t_single(&self, m: u64) -> Dur {
        self.alpha_sim + self.queue.mean() + self.tau_sim.saturating_mul(m)
    }

    /// `T_lower`: restart latency plus serving all `m` steps with
    /// `s_max` simulations in parallel (§VI).
    pub fn t_lower(&self, m: u64) -> Dur {
        self.alpha_sim + self.queue.mean() + self.tau_sim.saturating_mul(m).div_u64(self.cfg.smax as u64)
    }

    /// Approximate prefetching warm-up time `T_pre ≈ 2·alpha + n·tau_sim`
    /// (§IV-C1a) where `n` is one restart interval.
    pub fn t_pre(&self) -> Dur {
        let alpha = self.alpha_sim + self.queue.mean();
        let b = self.cfg.steps.outputs_per_interval();
        alpha.saturating_mul(2) + self.tau_sim.saturating_mul(b)
    }
}

// ---------------------------------------------------------------------------
// The virtual DV cluster and its scripted faults
//
// Failover state — down set, takeover epoch, parked pins — and every
// routing decision made from it belong to `ClusterRoute`, the same
// sans-IO core `DvCluster` drives; this harness only supplies virtual
// time, the member DVs and the crash schedule. Every takeover acquire
// and re-home passes the members' shared `ownership_error` rule under
// the tag the route produced, and a rejection fails the run.
// ---------------------------------------------------------------------------

/// One scripted fault, fired at an exact virtual time.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    /// kill -9 member `member` at `at`: its in-memory DV state (pins,
    /// waiters, running sims) vanishes; its WAL journal and the steps
    /// already materialized in the shared storage survive.
    CrashMember {
        /// Member index.
        member: usize,
        /// Virtual time of the crash.
        at: Dur,
    },
    /// Restart a crashed member at `at`. It re-primes owned resident
    /// steps; with `recover` it also replays its WAL journal, grants
    /// each prior session a recovery lease and holds the resident steps
    /// until the leases settle. Without, it comes back empty-handed
    /// (pins must be re-acquired).
    RestartMember {
        /// Member index.
        member: usize,
        /// Virtual time of the restart.
        at: Dur,
        /// Replay the WAL journal (the `--recover` flag).
        recover: bool,
    },
    /// Drop the analysis connection to a *live* member at `at`: the
    /// daemon maps the hangup to `ClientGone` (pins released); the
    /// client re-handshakes on next use and, seeing the same epoch,
    /// knows its pins are gone.
    DropConnection {
        /// Member index.
        member: usize,
        /// Virtual time of the drop.
        at: Dur,
    },
    /// Member unreachable during `[from, from + lasting)`: requests to
    /// it stall client-side and notifications defer until it heals;
    /// the connection itself survives (contrast [`Fault::DropConnection`]).
    /// A network partition is this fault over a member subset.
    DelayMember {
        /// Member index.
        member: usize,
        /// Virtual time the delay starts.
        from: Dur,
        /// How long the member stays unreachable.
        lasting: Dur,
    },
    /// From `at` on, sim attempts at `member` crash right after being
    /// scheduled (`SimFailed` before producing anything). Transient
    /// crashes exactly one attempt — the supervised backoff retry then
    /// succeeds; persistent crashes every attempt, marching the
    /// interval through its budget into poison quarantine.
    FailSim {
        /// Member index.
        member: usize,
        /// Virtual time the fault arms.
        at: Dur,
        /// Crash every attempt (vs exactly one).
        persistent: bool,
    },
    /// The next sim started at `member` after `at` hangs: it reports
    /// `SimStarted` and then never produces. Only the member's hang
    /// watchdog ([`DataVirtualizer::tick`]) can reclaim its slot and
    /// its waiters.
    HangSim {
        /// Member index.
        member: usize,
        /// Virtual time the fault arms.
        at: Dur,
    },
    /// The next step produced at `member` after `at` is corrupt: the
    /// integrity gate rejects it (`OutputCorrupt`) before residency,
    /// the producing sim is killed, and the retry machinery takes
    /// over.
    CorruptOutput {
        /// Member index.
        member: usize,
        /// Virtual time the fault arms.
        at: Dur,
    },
    /// Another session acquires `keys` steps from `first` on at live
    /// member `member` at `at` and releases each the moment it is
    /// granted: re-simulations whose productions press on the cache
    /// while the analysis may be away. Its hello is not modelled, so it
    /// journals no lease.
    Flood {
        /// Member index.
        member: usize,
        /// Virtual time of the acquire.
        at: Dur,
        /// First key.
        first: u64,
        /// Keys acquired.
        keys: u64,
    },
}

/// A deterministic fault schedule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The faults, fired in virtual-time order regardless of order here.
    pub faults: Vec<Fault>,
}

/// Outcome of one faulted cluster run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultReport {
    /// Keys served (ready), in service order. Retried accesses appear
    /// once — service, not attempts.
    pub served: Vec<u64>,
    /// Keys that failed (out-of-timeline, poisoned, ...), in failure
    /// order.
    pub failed: Vec<u64>,
    /// Machine-readable failure codes, aligned with `failed`.
    pub failed_codes: Vec<FailCode>,
    /// Virtual time from first access to last consumption.
    pub completion: Dur,
    /// Client re-handshakes across all members.
    pub reconnects: u64,
    /// Pins restored to the reconnecting client via re-assertion.
    pub pins_reasserted: u64,
    /// WAL records replayed across all member recoveries.
    pub wal_replayed: u64,
    /// Recovery leases that expired before their client re-asserted.
    pub leases_expired: u64,
    /// Keys acquired through tagged takeover requests at a taker —
    /// re-homed crash-time pins plus accesses rerouted while the home
    /// member was down.
    pub takeovers: u64,
    /// Foreign intervals a taker primed from the shared storage.
    pub takeover_intervals_primed: u64,
    /// Takeover pins drained back to their restored home member.
    pub pins_handed_back: u64,
    /// Final takeover epoch (bumped once per down-detection and once
    /// per revival — a full crash/hand-back cycle adds two).
    pub takeover_epoch: u64,
    /// Per-member WAL journals at the end of the run, for invariant
    /// assertions (exactly-once `ClientGone`, no leaked lease).
    pub journals: Vec<Vec<WalRecord>>,
    /// Supervision and production counters summed over the members
    /// still alive at the end of the run (a crashed member's counters
    /// die with it, exactly as in the real daemon).
    pub stats: DvStats,
    /// Supervision state left behind once every event has drained:
    /// running sims + queued launches + pending-production claims +
    /// un-notified waiters, summed over live members. Any non-zero
    /// value is a leak — faults must never strand an `s_max` slot, a
    /// claim, or a waiter.
    pub residue: u64,
    /// Virtual instants at which a member evicted a step the analysis
    /// still counted as held there. Outside a restart without recovery
    /// or after a lapsed lease, each one is a lost pin.
    pub held_evictions: Vec<Dur>,
}

/// A K-member virtual cluster with scripted faults: the DES analogue
/// of the real 3-daemon crash tests, minus wall-clock flakiness.
#[derive(Clone)]
pub struct FaultedClusterExperiment {
    /// Context (cadences, cache, policy, `s_max`). The cache budget is
    /// split across members exactly as the real cluster splits it.
    pub cfg: ContextCfg,
    /// Cluster size K (member k owns intervals with `i % K == k`).
    pub members: u32,
    /// True restart latency of the simulator.
    pub alpha_sim: Dur,
    /// True inter-production time of the simulator.
    pub tau_sim: Dur,
    /// Additional job queueing delay distribution.
    pub queue: QueueModel,
    /// How long a recovered pin waits for its client to re-assert.
    pub lease_timeout: Dur,
    /// The analysis' pinned working set: how many consumed steps stay
    /// pinned before the oldest is released. 0 releases each step just
    /// before the next acquire; a window > 1 is what makes crash-time
    /// pins worth re-asserting after recovery.
    pub pin_window: usize,
    /// Interval failover (mirrors `DvCluster::set_failover`): when a
    /// member is crashed (not merely delayed), its intervals are served
    /// by the successor-rule taker until the member restarts, at which
    /// point the parked pins are handed back. Without it, a crashed
    /// member's keys wait for its restart.
    pub failover: bool,
    /// Experiment seed.
    pub seed: u64,
}

/// How long the virtual client waits between retries against an
/// unreachable member (its reconnect backoff, virtualized).
const VRETRY: Dur = Dur::from_millis(100);

struct VMember {
    /// The member core the daemon runs — its DV, recovery epoch,
    /// recovery leases and primed takeover intervals. `None` while
    /// crashed.
    core: Option<MemberCore>,
    /// Durable session journal — the in-memory stand-in for the real
    /// daemon's WAL file. Survives crashes.
    journal: Vec<WalRecord>,
    /// Restart generation: stale scheduled events (sims launched by a
    /// previous incarnation) check this and die.
    incarnation: u64,
    /// The analysis' current session client id on this member.
    client: u64,
    /// The epoch the session handshook under (differs from `epoch`
    /// after a restart — the reconnect-time re-assertion signal).
    connected_epoch: u64,
    /// key → pin count the session holds on this member (client view).
    held: HashMap<u64, u32>,
    /// The session must re-handshake before the next request.
    needs_reconnect: bool,
    /// Unreachable until this time ([`Fault::DelayMember`]).
    delayed_until: SimTime,
    /// Armed [`Fault::FailSim`] crashes left (`u64::MAX` = persistent).
    fail_next: u64,
    /// Armed [`Fault::HangSim`] hangs left.
    hang_next: u64,
    /// Armed [`Fault::CorruptOutput`] corruptions left.
    corrupt_next: u64,
    /// Earliest supervision wake-up already scheduled (dedups the
    /// reaper-analogue events; `None` = nothing armed).
    tick_at: Option<SimTime>,
}

struct VSim {
    keys_end: u64,
    next_key: u64,
    killed: bool,
}

/// The figure annotations a run leaves besides its [`FaultReport`].
struct Peaks {
    /// Peak concurrent node usage.
    nodes: u32,
    /// Peak concurrent re-simulations, summed over the members.
    sims: u32,
}

struct FaultWorld {
    members: Vec<VMember>,
    /// Member-of-key map (interval % K) plus all failover state.
    route: ClusterRoute,
    /// The shared storage area: key → size of every materialized step.
    /// Survives member crashes; evictions delete from it.
    storage: HashMap<u64, u64>,
    /// Running sims keyed by (member, incarnation, sim id).
    sims: HashMap<(usize, u64, SimId), VSim>,
    /// Node accounting of the running sims (cluster-unique sim ids are
    /// the job ids).
    nodes: Cluster,
    peak_sims: u32,
    /// The access log, drained right after every record.
    log: AccessLog,
    /// Drain scratch.
    digest: Vec<AccessRecord>,
    rng: SimRng,
    exp: ExpParams,
    cfg: ContextCfg,
    cluster_size: u32,
    lease_timeout: Dur,
    accesses: Vec<u64>,
    cursor: usize,
    /// `(member, client, key)` the analysis is blocked on.
    waiting_for: Option<(usize, u64, u64)>,
    /// Consumed keys still pinned, oldest first.
    release_queue: VecDeque<u64>,
    pin_window: usize,
    done_at: Option<SimTime>,
    next_client: u64,
    served: Vec<u64>,
    failed: Vec<u64>,
    failed_codes: Vec<FailCode>,
    reconnects: u64,
    pins_reasserted: u64,
    wal_replayed: u64,
    /// Counters of crashed incarnations (their cores died with them).
    retired: DvStats,
    takeovers: u64,
    pins_handed_back: u64,
    /// Client ids of [`Fault::Flood`] sessions.
    floods: Vec<u64>,
    held_evictions: Vec<Dur>,
}

impl FaultedClusterExperiment {
    /// Runs a single analysis over `accesses` with think time `tau_cli`
    /// while `plan`'s faults fire at their scheduled virtual times.
    ///
    /// # Panics
    /// Panics if the run deadlocks — e.g. a member is crashed and never
    /// restarted while un-served accesses still route to it. That is a
    /// plan bug (or a DV recovery bug), not an experiment outcome.
    pub fn run(&self, accesses: &[u64], tau_cli: Dur, plan: &FaultPlan) -> FaultReport {
        self.run_counting_nodes(accesses, tau_cli, plan, 1).0
    }

    /// [`run`](Self::run), each re-simulation occupying `nodes_per_sim`
    /// nodes of a cluster sized for every member's `s_max` slice.
    fn run_counting_nodes(
        &self,
        accesses: &[u64],
        tau_cli: Dur,
        plan: &FaultPlan,
        nodes_per_sim: u32,
    ) -> (FaultReport, Peaks) {
        assert!(!accesses.is_empty(), "empty analysis");
        let k = self.members.max(1);
        let members = (0..k)
            .map(|_| VMember {
                core: None,
                journal: Vec::new(),
                incarnation: 0,
                client: ANALYSIS_CLIENT,
                connected_epoch: 0,
                held: HashMap::new(),
                needs_reconnect: false,
                delayed_until: SimTime::ZERO,
                fail_next: 0,
                hang_next: 0,
                corrupt_next: 0,
                tick_at: None,
            })
            .collect();
        let mut route = ClusterRoute::new(self.cfg.steps, k);
        route.set_failover(self.failover);
        let member_smax = shard_cfg(&self.cfg, k).smax;
        let mut world = FaultWorld {
            members,
            route,
            storage: HashMap::new(),
            sims: HashMap::new(),
            nodes: Cluster::new(nodes_per_sim * member_smax * k),
            peak_sims: 0,
            log: AccessLog::new(1),
            digest: Vec::new(),
            rng: SeedSeq::new(self.seed).rng(0),
            exp: ExpParams {
                alpha_sim: self.alpha_sim,
                tau_sim: self.tau_sim,
                tau_cli,
                queue: self.queue,
                nodes_per_sim,
                output_bytes: self.cfg.output_bytes,
            },
            cfg: self.cfg.clone(),
            cluster_size: k,
            lease_timeout: self.lease_timeout,
            accesses: accesses.to_vec(),
            cursor: 0,
            waiting_for: None,
            release_queue: VecDeque::new(),
            pin_window: self.pin_window,
            done_at: None,
            next_client: ANALYSIS_CLIENT + 1,
            served: Vec::new(),
            failed: Vec::new(),
            failed_codes: Vec::new(),
            reconnects: 0,
            pins_reasserted: 0,
            wal_replayed: 0,
            retired: DvStats::default(),
            takeovers: 0,
            pins_handed_back: 0,
            floods: Vec::new(),
            held_evictions: Vec::new(),
        };
        // Every member boots as a fresh durable daemon: an empty
        // journal, nothing resident; then the analysis says hello.
        for m in 0..k as usize {
            world.members[m].connected_epoch = boot_member(&mut world, m, false, SimTime::ZERO);
            hello(&mut world, m, ANALYSIS_CLIENT);
        }

        let mut engine: Engine<FaultWorld> = Engine::new();
        for &fault in &plan.faults {
            match fault {
                Fault::CrashMember { member, at } => {
                    engine.schedule_at(SimTime::ZERO + at, move |en, w: &mut FaultWorld| {
                        crash_member(en, w, member)
                    });
                }
                Fault::RestartMember { member, at, recover } => {
                    engine.schedule_at(SimTime::ZERO + at, move |en, w: &mut FaultWorld| {
                        restart_member(en, w, member, recover)
                    });
                }
                Fault::DropConnection { member, at } => {
                    engine.schedule_at(SimTime::ZERO + at, move |en, w: &mut FaultWorld| {
                        drop_connection(en, w, member)
                    });
                }
                Fault::DelayMember { member, from, lasting } => {
                    engine.schedule_at(SimTime::ZERO + from, move |en, w: &mut FaultWorld| {
                        w.members[member].delayed_until = en.now() + lasting;
                    });
                }
                Fault::FailSim { member, at, persistent } => {
                    engine.schedule_at(SimTime::ZERO + at, move |_en, w: &mut FaultWorld| {
                        let m = &mut w.members[member];
                        m.fail_next = if persistent {
                            u64::MAX
                        } else {
                            m.fail_next.saturating_add(1)
                        };
                    });
                }
                Fault::HangSim { member, at } => {
                    engine.schedule_at(SimTime::ZERO + at, move |_en, w: &mut FaultWorld| {
                        w.members[member].hang_next += 1;
                    });
                }
                Fault::CorruptOutput { member, at } => {
                    engine.schedule_at(SimTime::ZERO + at, move |_en, w: &mut FaultWorld| {
                        w.members[member].corrupt_next += 1;
                    });
                }
                Fault::Flood {
                    member,
                    at,
                    first,
                    keys,
                } => {
                    engine.schedule_at(SimTime::ZERO + at, move |en, w: &mut FaultWorld| {
                        flood(en, w, member, first..first + keys)
                    });
                }
            }
        }
        engine.schedule_at(SimTime::ZERO, |en, w: &mut FaultWorld| issue_next(en, w));
        engine.run(&mut world);

        let done_at = world.done_at.unwrap_or_else(|| {
            panic!(
                "faulted analysis deadlocked at access {}/{} (waiting {:?}, failed {:?})",
                world.cursor,
                world.accesses.len(),
                world.waiting_for,
                world.failed
            )
        });
        let mut stats = DvStats::default();
        let mut residue = 0u64;
        for m in &world.members {
            if let Some(core) = &m.core {
                let dv = &core.dv;
                stats.accumulate(dv.stats());
                residue += (dv.active_sims()
                    + dv.queued_launches()
                    + dv.pending_keys()
                    + dv.waiting_keys()) as u64;
            }
        }
        let mut lifetime = world.retired.clone();
        lifetime.accumulate(&stats);
        let peaks = Peaks {
            nodes: world.nodes.peak_used(),
            sims: world.peak_sims,
        };
        let report = FaultReport {
            served: world.served,
            failed: world.failed,
            failed_codes: world.failed_codes,
            completion: done_at.saturating_since(SimTime::ZERO),
            reconnects: world.reconnects,
            pins_reasserted: world.pins_reasserted,
            wal_replayed: world.wal_replayed,
            leases_expired: lifetime.leases_expired,
            takeovers: world.takeovers,
            takeover_intervals_primed: lifetime.takeover_intervals_primed,
            pins_handed_back: world.pins_handed_back,
            takeover_epoch: world.route.epoch(),
            journals: world.members.iter().map(|m| m.journal.clone()).collect(),
            stats,
            residue,
            held_evictions: world.held_evictions,
        };
        (report, peaks)
    }
}

/// Can the analysis reach member `m` right now?
fn reachable(w: &FaultWorld, m: usize, now: SimTime) -> bool {
    w.members[m].core.is_some() && now >= w.members[m].delayed_until
}

/// Session `client` says hello to live member `m`: its lease is
/// journaled (crash rule 1).
fn hello(w: &mut FaultWorld, m: usize, client: u64) {
    let member = &mut w.members[m];
    let core = member.core.as_mut().expect("greeting member has a core");
    core.lease(client);
    member.journal.append(&mut core.records);
}

/// [`Fault::Flood`]: a fresh remote session acquires `keys` at live
/// member `m`; each grant is released at once ([`flood_ready`]).
fn flood(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize, keys: std::ops::Range<u64>) {
    if w.members[m].core.is_none() {
        return;
    }
    let client = w.next_client;
    w.next_client += 1;
    w.floods.push(client);
    for key in keys {
        let actions = dv_of(w, m).handle(en.now(), DvEvent::Acquire { client, key });
        apply_member_actions(en, w, m, actions);
    }
}

/// A flood session was granted `key`: it releases at once.
fn flood_ready(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize, client: u64, key: u64) {
    let actions = dv_of(w, m).handle(en.now(), DvEvent::Release { client, key });
    apply_member_actions(en, w, m, actions);
}

/// kill -9: in-memory state gone, journal and storage intact. The
/// un-replied request of a blocked analysis dies with the daemon — the
/// client re-issues it after the member returns.
fn crash_member(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize) {
    let member = &mut w.members[m];
    // Its leases and whatever it had primed as a taker die with it.
    if let Some(core) = member.core.take() {
        w.retired.accumulate(core.dv.stats());
    }
    member.incarnation += 1;
    member.needs_reconnect = true;
    member.tick_at = None;
    let nodes = &mut w.nodes;
    w.sims.retain(|&(owner, _, sim), _| {
        if owner == m {
            nodes.cancel(JobId(sim));
        }
        owner != m
    });
    if let Some((wm, _, _)) = w.waiting_for {
        if wm == m {
            w.waiting_for = None;
            w.cursor -= 1; // re-issue the in-flight access
            en.schedule_in(VRETRY, issue_next);
        }
    }
}

/// Restart after a crash: the member core re-primes owned resident
/// steps from the shared storage, then (with `recover`) replays the
/// journal — grants recovery leases and holds the resident steps —
/// and the journal is compacted to the recovered state. A lease
/// deadline arms the member's next tick.
fn restart_member(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize, recover: bool) {
    assert!(w.members[m].core.is_none(), "restarting a live member");
    boot_member(w, m, recover, en.now());
    schedule_member_tick(en, w, m);
}

/// Starts member `m`'s core at `now` over the shared storage and its
/// journal, exactly as the daemon starts a durable member; returns the
/// new epoch.
fn boot_member(w: &mut FaultWorld, m: usize, recover: bool, now: SimTime) -> u64 {
    let me = ClusterMember::new(m as u32, w.cluster_size);
    let mut dv = DataVirtualizer::for_member(w.cfg.clone(), me);
    dv.seed_estimates(w.exp.alpha_sim + w.exp.queue.mean(), w.exp.tau_sim);
    let mut resident: Vec<(u64, u64)> = w.storage.iter().map(|(&k, &s)| (k, s)).collect();
    resident.sort_unstable();
    let member = &mut w.members[m];
    w.wal_replayed += member.journal.len() as u64;
    let (core, recovered) = MemberCore::recover(
        me,
        dv,
        resident.into_iter().map(|(key, size)| (key, move || size)),
        Some(&member.journal),
        recover,
        now,
        w.lease_timeout,
    );
    for key in recovered.evicted {
        w.storage.remove(&key);
    }
    let epoch = core.epoch();
    member.journal = recovered.state.expect("virtual members journal").snapshot(epoch);
    member.tick_at = None;
    member.core = Some(core);
    epoch
}

/// TCP reset on a live member: the daemon sees the hangup and releases
/// the session's pins; the client re-handshakes on next use.
fn drop_connection(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize) {
    let member = &mut w.members[m];
    let Some(core) = member.core.as_mut() else {
        return; // already crashed: nothing to drop
    };
    let mut actions = Vec::new();
    core.depart(en.now(), member.client, &mut actions);
    member.needs_reconnect = true;
    apply_member_actions(en, w, m, actions);
    if let Some((wm, _, _)) = w.waiting_for {
        if wm == m {
            // The blocked request died with the connection.
            w.waiting_for = None;
            w.cursor -= 1;
            en.schedule_in(VRETRY, issue_next);
        }
    }
}

/// Re-handshake with member `m` if the previous connection died, and
/// re-assert every held pin through the member core: a restarted
/// member re-pins each key still resident under a live lease, a
/// same-epoch one (the hangup already released everything) returns it
/// all as gone.
fn ensure_session(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize) {
    if !w.members[m].needs_reconnect {
        return;
    }
    w.reconnects += 1;
    let new_client = w.next_client;
    w.next_client += 1;
    let member = &mut w.members[m];
    let mut held: Vec<(u64, u32)> = member.held.drain().collect();
    held.sort_unstable();
    let keys: Vec<u64> = held
        .into_iter()
        .flat_map(|(key, count)| std::iter::repeat_n(key, count as usize))
        .collect();
    hello(w, m, new_client);
    let member = &mut w.members[m];
    let core = member.core.as_mut().expect("reachable member has a core");
    let mut actions = Vec::new();
    let answer = core.reassert(
        en.now(),
        new_client,
        member.client,
        member.connected_epoch,
        &keys,
        &mut actions,
    );
    member.client = new_client;
    member.connected_epoch = core.epoch();
    member.needs_reconnect = false;
    w.pins_reasserted += answer.restored.len() as u64;
    for key in answer.restored {
        *member.held.entry(key).or_insert(0) += 1;
    }
    apply_member_actions(en, w, m, actions);
}

/// Releases the previously consumed key, then issues the next access —
/// retrying (in virtual time) while the owning member is unreachable.
fn issue_next(en: &mut Engine<FaultWorld>, w: &mut FaultWorld) {
    while w.release_queue.len() > w.pin_window {
        let prev = w.release_queue.pop_front().expect("len checked");
        // A pin parked on a taker releases there, not at its home; one
        // whose home is down died with it.
        let (m, live) = match w.route.release_target(prev) {
            Release::Send(m) => (m, true),
            Release::Forget(m) => (m, false),
        };
        let pinned = match w.members[m].held.get_mut(&prev) {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    w.members[m].held.remove(&prev);
                }
                true
            }
            None => false,
        };
        // A release only reaches a live, connected member; otherwise
        // the pin is (or will be) dropped by ClientGone/recovery.
        if live && pinned && !w.members[m].needs_reconnect && reachable(w, m, en.now()) {
            release_at(en, w, m, prev);
        }
    }
    if w.cursor >= w.accesses.len() {
        w.done_at = Some(en.now());
        return;
    }
    if w.route.failover() {
        revive_members(en, w);
    }
    let key = w.accesses[w.cursor];
    // An unreachable target — a delayed member, or a crashed one
    // without failover — is retried; so is a key nobody may serve.
    let Some((m, mode)) =
        live_route(en, w, w.route.home(key)).filter(|&(m, _)| reachable(w, m, en.now()))
    else {
        en.schedule_in(VRETRY, issue_next);
        return;
    };
    ensure_session(en, w, m);
    w.cursor += 1;
    let client = w.members[m].client;
    let outcome = acquire_at(en, w, m, key, mode);
    // A served native access is observed, as the daemon records it.
    if let (Ok(ready), AcquireMode::Native) = (outcome, mode) {
        observe(en, w, m, client, key, ready);
    }
    match outcome {
        Err(code) => {
            w.failed.push(key);
            w.failed_codes.push(code);
            en.schedule_in(Dur::ZERO, issue_next);
        }
        Ok(true) => grant(en, w, m, key),
        Ok(false) => w.waiting_for = Some((m, client, key)),
    }
}

/// Member `m` served `client`'s acquire of `key` — at once when
/// `ready`: record it and drain the log into the member's agents right
/// away, as the daemon drains on a request that took the DV lock.
fn observe(
    en: &mut Engine<FaultWorld>,
    w: &mut FaultWorld,
    m: usize,
    client: u64,
    key: u64,
    ready: bool,
) {
    let now = en.now();
    let core = w.members[m].core.as_mut().expect("serving member has a core");
    w.log.push(AccessRecord {
        client,
        key,
        epoch: now.as_nanos(),
        ready,
    });
    w.digest.clear();
    let dropped = w.log.drain_into(&mut w.digest);
    let (me, steps) = (ClusterMember::new(m as u32, w.cluster_size), w.cfg.steps);
    let mut actions = Vec::new();
    core.dv
        .ingest_digest(now, &w.digest, dropped, &|k| me.owns_key(&steps, k), &mut actions);
    apply_member_actions(en, w, m, actions);
}

/// Where an acquire of a key homed on `home` goes, as the route says —
/// a failover client that finds the member there crashed (not merely
/// delayed: a delayed member keeps its connection) declares it down
/// and follows the route again. `None` when nothing may serve the key.
fn live_route(
    en: &mut Engine<FaultWorld>,
    w: &mut FaultWorld,
    home: usize,
) -> Option<(usize, AcquireMode)> {
    loop {
        match w.route.route_home(home) {
            Route::Member { member, .. }
                if w.route.failover() && w.members[member].core.is_none() =>
            {
                fail_member(en, w, member)
            }
            Route::Member { member, mode } => return Some((member, mode)),
            Route::Down(_) => return None,
        }
    }
}

/// One synchronous acquire of `key` at member `t` under `mode`, after
/// the ownership rule the daemon applies — a rejected tag fails the run.
/// A takeover first primes the key's interval from the shared storage.
/// Applies the DV's actions; `Ok(true)` when the key was granted on
/// the spot, `Ok(false)` when it waits on production.
fn acquire_at(
    en: &mut Engine<FaultWorld>,
    w: &mut FaultWorld,
    t: usize,
    key: u64,
    mode: AcquireMode,
) -> Result<bool, FailCode> {
    let me = ClusterMember::new(t as u32, w.cluster_size);
    if let Some(reason) = ownership_error(&w.cfg.steps, me, key, mode) {
        panic!("member {t} refused key {key} under {mode:?}: {reason}");
    }
    if matches!(mode, AcquireMode::Takeover { .. }) {
        w.takeovers += 1;
        if w.cfg.steps.valid_key(key) {
            takeover_prime(w, t, w.cfg.steps.interval_of(key));
        }
    }
    let client = w.members[t].client;
    let actions = dv_of(w, t).handle(en.now(), DvEvent::Acquire { client, key });
    let mut ready = false;
    let mut failed: Option<FailCode> = None;
    for a in &actions {
        match a {
            DvAction::NotifyReady { client: c, key: k } if *c == client && *k == key => {
                ready = true
            }
            DvAction::NotifyFailed { key: k, code, .. } if *k == key => failed = Some(*code),
            _ => {}
        }
    }
    apply_member_actions(en, w, t, actions);
    failed.map_or(Ok(ready), Err)
}

/// The analysis' access was granted: pin, consume, move on.
fn grant(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize, key: u64) {
    pinned(w, m, key);
    w.served.push(key);
    w.release_queue.push_back(key);
    en.schedule_in(w.exp.tau_cli, issue_next);
}

/// Member `t` granted the session one pin on `key`: track it (no
/// journal record) and tell the route.
fn pinned(w: &mut FaultWorld, t: usize, key: u64) {
    *w.members[t].held.entry(key).or_insert(0) += 1;
    w.route.granted(key, t);
}

/// Declares crashed member `m` down and re-homes the pins the session
/// held there along the route's batches, as `DvCluster` does at
/// down-detection: one acquire per held pin. A pin whose key cannot be
/// granted synchronously from its new member's primed cache is dropped
/// — the real client blocks on a re-simulation there; the virtual
/// analysis must not — and so is one nobody may serve.
fn fail_member(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize) {
    for (home, keys) in w.route.mark_down(m, w.members[m].held.drain()) {
        for key in keys {
            let Some((t, mode)) = live_route(en, w, home) else {
                continue;
            };
            ensure_session(en, w, t);
            if acquire_at(en, w, t, key, mode) == Ok(true) {
                pinned(w, t, key);
            }
        }
    }
}

/// Primes a foreign `interval` on taker `t` from the shared storage —
/// the member core's per-interval rescan on the first tagged takeover
/// acquire, idempotent until the taker crashes.
fn takeover_prime(w: &mut FaultWorld, t: usize, interval: u64) {
    let mut listed: Vec<(u64, u64)> = w.storage.iter().map(|(&k, &s)| (k, s)).collect();
    listed.sort_unstable();
    let core = w.members[t].core.as_mut().expect("taker is alive");
    for key in core.prime_interval(interval, listed) {
        w.storage.remove(&key);
    }
}

/// Member `m`'s DV; the member must be alive.
fn dv_of(w: &mut FaultWorld, m: usize) -> &mut DataVirtualizer {
    &mut w.members[m].core.as_mut().expect("live member has a core").dv
}

/// Probes down members for revival (the virtual `try_revive`): a
/// restarted member is re-adopted under a bumped takeover epoch and the
/// pins parked on takers for its intervals are handed back —
/// re-acquired at the restored home member FIRST, then released at the
/// taker, so the residency veto never lapses. A key the home member
/// cannot grant synchronously (not yet re-primed), or whose taker is
/// unreachable, stays parked on its taker.
fn revive_members(en: &mut Engine<FaultWorld>, w: &mut FaultWorld) {
    for m in 0..w.members.len() {
        if !w.route.is_down(m) || !reachable(w, m, en.now()) {
            continue;
        }
        let plan = w.route.revive(m);
        ensure_session(en, w, m);
        for (taker, pins) in plan {
            for (key, count) in pins {
                hand_back(en, w, m, taker, key, count);
            }
        }
    }
}

/// Hands `count` pins on `key` back from `taker` to revived home `m`.
fn hand_back(
    en: &mut Engine<FaultWorld>,
    w: &mut FaultWorld,
    m: usize,
    taker: usize,
    key: u64,
    count: u32,
) {
    for _ in 0..count {
        if acquire_at(en, w, m, key, AcquireMode::Native) != Ok(true) {
            return;
        }
        pinned(w, m, key);
    }
    if !reachable(w, taker, en.now()) {
        return;
    }
    let held = w.members[taker].held.remove(&key).unwrap_or(0);
    if held > count {
        w.members[taker].held.insert(key, held - count);
    }
    for _ in 0..count {
        release_at(en, w, taker, key);
        w.pins_handed_back += 1;
    }
    w.route.handed_back(key, taker);
}

/// Releases one session pin on `key` at reachable member `m` (no
/// journal record).
fn release_at(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize, key: u64) {
    let client = w.members[m].client;
    let actions = dv_of(w, m).handle(en.now(), DvEvent::Release { client, key });
    apply_member_actions(en, w, m, actions);
}

/// Applies member `m`'s DV actions to the virtual world, after the
/// journal records its core queued (the daemon's write-ahead order).
fn apply_member_actions(
    en: &mut Engine<FaultWorld>,
    w: &mut FaultWorld,
    m: usize,
    actions: Vec<DvAction>,
) {
    let member = &mut w.members[m];
    if let Some(core) = member.core.as_mut() {
        member.journal.append(&mut core.records);
    }
    for action in actions {
        match action {
            DvAction::NotifyReady { client, key } if w.floods.contains(&client) => {
                flood_ready(en, w, m, client, key);
            }
            DvAction::NotifyReady { client, key } => {
                deliver_ready(en, w, m, client, key);
            }
            DvAction::NotifyFailed { client, key, code, .. } => {
                if w.waiting_for == Some((m, client, key)) {
                    w.waiting_for = None;
                    w.failed.push(key);
                    w.failed_codes.push(code);
                    en.schedule_in(Dur::ZERO, issue_next);
                }
            }
            DvAction::Launch { sim, keys, .. } => {
                let inc = w.members[m].incarnation;
                w.sims.insert(
                    (m, inc, sim),
                    VSim {
                        keys_end: *keys.end(),
                        next_key: *keys.start(),
                        killed: false,
                    },
                );
                let running = w.members.iter().filter_map(|v| v.core.as_ref());
                let running: usize = running.map(|c| c.dv.active_sims()).sum();
                w.peak_sims = w.peak_sims.max(running as u32);
                let started = w.nodes.submit(JobId(sim), w.exp.nodes_per_sim);
                debug_assert!(!started.is_empty(), "the node cluster never queues");
                let delay = w.exp.queue.sample(&mut w.rng) + w.exp.alpha_sim;
                en.schedule_in(delay, move |en, w: &mut FaultWorld| {
                    vsim_started(en, w, m, inc, sim)
                });
            }
            DvAction::Kill { sim } => {
                let inc = w.members[m].incarnation;
                if let Some(s) = w.sims.get_mut(&(m, inc, sim)) {
                    s.killed = true;
                }
                w.nodes.cancel(JobId(sim));
            }
            DvAction::Evict { key } => {
                w.storage.remove(&key);
                if w.members[m].held.contains_key(&key) {
                    w.held_evictions
                        .push(en.now().saturating_since(SimTime::ZERO));
                }
            }
        }
    }
    // Any of the above may have armed a backoff retry, a hang
    // deadline, or a quarantine: play the daemon reaper and make sure
    // a wake-up is scheduled at the earliest one.
    schedule_member_tick(en, w, m);
}

/// Arms member `m`'s supervision wake-up at its DV's next deadline —
/// the DES analogue of the daemon's reaper thread. A deadline that is
/// already due reports as `now`; that only happens for slot-blocked
/// queue entries, which drain event-driven when `SimFinished` frees a
/// slot, so only strictly-future deadlines need a timer (scheduling at
/// `now` would spin the engine without advancing virtual time).
fn schedule_member_tick(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize) {
    let now = en.now();
    let Some(core) = w.members[m].core.as_ref() else {
        return;
    };
    let Some(due) = core.next_due(now) else {
        return;
    };
    if due <= now || w.members[m].tick_at.is_some_and(|t| t <= due) {
        return;
    }
    w.members[m].tick_at = Some(due);
    let inc = w.members[m].incarnation;
    en.schedule_at(due, move |en, w: &mut FaultWorld| member_tick(en, w, m, inc));
}

/// One supervision wake-up: run the member core's timers (lapsed
/// recovery leases, watchdog kills, quarantine expiry, backoff
/// drains), apply what falls out, re-arm.
fn member_tick(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize, inc: u64) {
    if w.members[m].incarnation != inc {
        return; // armed by a previous incarnation
    }
    w.members[m].tick_at = None;
    let Some(core) = w.members[m].core.as_mut() else {
        return;
    };
    let mut actions = Vec::new();
    core.tick(en.now(), &mut actions);
    apply_member_actions(en, w, m, actions);
}

/// Delivers a `NotifyReady` to the blocked analysis — deferred while
/// the member is delayed (the notification cannot cross a partition).
fn deliver_ready(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize, client: u64, key: u64) {
    if w.waiting_for != Some((m, client, key)) {
        return; // stale notify (pre-crash waiter or prefetch)
    }
    let now = en.now();
    if now < w.members[m].delayed_until {
        let wait = w.members[m].delayed_until.saturating_since(now);
        en.schedule_in(wait, move |en, w: &mut FaultWorld| {
            deliver_ready(en, w, m, client, key)
        });
        return;
    }
    w.waiting_for = None;
    grant(en, w, m, key);
}

/// The sim's production stream ends: its nodes go back to the cluster.
fn retire_sim(w: &mut FaultWorld, m: usize, inc: u64, sim: SimId) {
    w.sims.remove(&(m, inc, sim));
    w.nodes.cancel(JobId(sim));
}

fn vsim_started(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize, inc: u64, sim: SimId) {
    if w.members[m].incarnation != inc || w.sims.get(&(m, inc, sim)).is_none_or(|s| s.killed) {
        return;
    }
    if w.members[m].fail_next > 0 {
        // Armed FailSim: the attempt dies before a sign of life (OOM,
        // scheduler kill). The supervisor decides retry vs poison.
        w.members[m].fail_next -= 1;
        retire_sim(w, m, inc, sim);
        let actions = dv_of(w, m).handle(en.now(), DvEvent::SimFailed { sim });
        apply_member_actions(en, w, m, actions);
        return;
    }
    let actions = dv_of(w, m).handle(en.now(), DvEvent::SimStarted { sim });
    apply_member_actions(en, w, m, actions);
    if w.members[m].hang_next > 0 {
        // Armed HangSim: one sign of life, then silence — no produce
        // is ever scheduled, so only the watchdog can reclaim it.
        w.members[m].hang_next -= 1;
        return;
    }
    en.schedule_in(w.exp.tau_sim, move |en, w: &mut FaultWorld| {
        vsim_produce(en, w, m, inc, sim)
    });
}

fn vsim_produce(en: &mut Engine<FaultWorld>, w: &mut FaultWorld, m: usize, inc: u64, sim: SimId) {
    if w.members[m].incarnation != inc {
        return; // the member crashed out from under this sim
    }
    let Some(s) = w.sims.get_mut(&(m, inc, sim)) else {
        return;
    };
    if s.killed {
        w.sims.remove(&(m, inc, sim));
        return;
    }
    let key = s.next_key;
    if w.members[m].corrupt_next > 0 {
        // Armed CorruptOutput: the step never reaches the shared
        // storage — the integrity gate rejects it before residency,
        // and the DV kills the producer and hands it to the retry
        // machinery.
        w.members[m].corrupt_next -= 1;
        retire_sim(w, m, inc, sim);
        let actions = dv_of(w, m).handle(en.now(), DvEvent::OutputCorrupt { sim, key });
        apply_member_actions(en, w, m, actions);
        return;
    }
    s.next_key += 1;
    let finished = s.next_key > s.keys_end;
    let size = w.exp.output_bytes;
    w.storage.insert(key, size);
    let actions = dv_of(w, m).handle(en.now(), DvEvent::FileProduced { sim, key, size });
    apply_member_actions(en, w, m, actions);
    if finished {
        retire_sim(w, m, inc, sim);
        if w.members[m].incarnation == inc {
            let actions = dv_of(w, m).handle(en.now(), DvEvent::SimFinished { sim });
            apply_member_actions(en, w, m, actions);
        }
    } else {
        en.schedule_in(w.exp.tau_sim, move |en, w: &mut FaultWorld| {
            vsim_produce(en, w, m, inc, sim)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{StepMath, SupervisorCfg};
    use simstore::walog::WalState;

    /// Fig. 7/8-style micro configuration: Δr = 4 outputs per interval,
    /// alpha = 2 s, tau_sim = 1 s, tau_cli = 0.5 s.
    fn experiment(prefetch: bool, smax: u32) -> VirtualExperiment {
        let steps = StepMath::new(1, 4, 10_000);
        let cfg = ContextCfg::new("v", steps, 1, 1_000_000)
            .with_policy("lru")
            .with_smax(smax)
            .with_prefetch(prefetch);
        VirtualExperiment {
            cfg,
            alpha_sim: Dur::from_secs(2),
            tau_sim: Dur::from_secs(1),
            queue: QueueModel::None,
            nodes_per_sim: 4,
            seed: 7,
        }
    }

    #[test]
    fn cold_forward_scan_without_prefetch_pays_every_restart() {
        let exp = experiment(false, 8);
        let accesses: Vec<u64> = (1..=24).collect();
        let res = exp.run_analysis(&accesses, Dur::from_millis(500));
        // 6 intervals, each paying alpha (2 s) + 4·tau (4 s) ≈ 36 s
        // minimum; consumption overlaps production so the total is at
        // least alpha per interval plus all production time.
        assert_eq!(res.stats.restarts, 6);
        assert!(res.completion >= Dur::from_secs(6 * 2 + 24));
        assert_eq!(res.stats.produced_steps, 24);
    }

    #[test]
    fn prefetch_hides_restart_latency_on_forward_scan() {
        let no_pf = experiment(false, 8);
        let pf = experiment(true, 8);
        let accesses: Vec<u64> = (1..=96).collect();
        let slow = no_pf.run_analysis(&accesses, Dur::from_millis(500));
        let fast = pf.run_analysis(&accesses, Dur::from_millis(500));
        assert!(
            fast.completion < slow.completion,
            "prefetch {} !< no-prefetch {}",
            fast.completion,
            slow.completion
        );
        assert!(fast.stats.prefetch_launches > 0);
    }

    #[test]
    fn smax_bounds_concurrent_sims() {
        for smax in [1, 2, 4] {
            let exp = experiment(true, smax);
            let accesses: Vec<u64> = (1..=64).collect();
            let res = exp.run_analysis(&accesses, Dur::from_millis(250));
            assert!(
                res.peak_sims <= smax,
                "smax={smax} but peak={}",
                res.peak_sims
            );
            assert!(res.peak_nodes <= smax * 4);
        }
    }

    #[test]
    fn higher_smax_speeds_up_fast_analysis() {
        // Analysis 4x faster than the simulation: parallel prefetching
        // should shorten completion (the Fig. 16 effect).
        let accesses: Vec<u64> = (1..=96).collect();
        let t1 = experiment(true, 1)
            .run_analysis(&accesses, Dur::from_millis(250))
            .completion;
        let t4 = experiment(true, 4)
            .run_analysis(&accesses, Dur::from_millis(250))
            .completion;
        assert!(t4 < t1, "smax=4 ({t4}) should beat smax=1 ({t1})");
    }

    #[test]
    fn backward_scan_completes_and_benefits_from_cache() {
        let exp = experiment(true, 4);
        let accesses: Vec<u64> = (1..=48).rev().collect();
        let res = exp.run_analysis(&accesses, Dur::from_millis(500));
        // Each interval simulated at most a few times (first touch
        // materializes the rest for backward hits).
        assert!(res.stats.hits > 0, "backward hits within intervals");
        assert!(res.stats.produced_steps >= 48, "all steps materialized");
    }

    #[test]
    fn warm_cache_run_is_instant() {
        let exp = experiment(false, 8);
        // Run everything once... then a second run in the same world is
        // not supported; instead check a repeated-access trace.
        let accesses: Vec<u64> = (1..=8).chain(1..=8).collect();
        let res = exp.run_analysis(&accesses, Dur::from_millis(100));
        assert_eq!(res.stats.restarts, 2, "second pass fully cached");
    }

    #[test]
    fn out_of_timeline_accesses_are_skipped_not_deadlocked() {
        let exp = experiment(false, 8);
        let res = exp.run_analysis(&[1, 999_999_999, 2], Dur::from_millis(100));
        assert_eq!(res.stats.produced_steps, 4, "one interval");
    }

    #[test]
    fn prefetching_scan_observes_every_access_through_the_digest() {
        // The agents learn the stream only from drained digests, as in
        // the daemon: every served access replays once, and the
        // consumption gaps feed tau_cli.
        let exp = experiment(true, 4);
        let accesses: Vec<u64> = (1..=48).collect();
        let res = exp.run_analysis(&accesses, Dur::from_millis(300));
        assert_eq!(res.stats.digest_replayed, accesses.len() as u64);
        assert_eq!(res.stats.digest_dropped, 0);
        assert!(res.stats.tau_cli_samples > 0, "{:?}", res.stats);
        assert!(res.stats.prefetch_launches > 0, "{:?}", res.stats);
    }

    #[test]
    fn deterministic_given_seed() {
        let exp = experiment(true, 4);
        let accesses: Vec<u64> = (1..=48).collect();
        let a = exp.run_analysis(&accesses, Dur::from_millis(300));
        let b = exp.run_analysis(&accesses, Dur::from_millis(300));
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.stats.produced_steps, b.stats.produced_steps);
    }

    #[test]
    fn queueing_delay_slows_completion() {
        let mut exp = experiment(false, 8);
        let accesses: Vec<u64> = (1..=24).collect();
        let fast = exp.run_analysis(&accesses, Dur::from_millis(500)).completion;
        exp.queue = QueueModel::Constant(Dur::from_secs(30));
        let slow = exp.run_analysis(&accesses, Dur::from_millis(500)).completion;
        assert!(slow > fast + Dur::from_secs(30));
    }

    #[test]
    fn direction_change_kills_prefetched_sims() {
        // §IV-C: "SimFS tries to kill simulations prefetched by analyses
        // that ... changed analysis direction." A long restart latency
        // keeps the speculative simulations in flight (still in their
        // alpha phase) when the analysis abruptly jumps to a backward
        // scan elsewhere on the timeline — those sims serve nobody and
        // must be killed.
        let steps = StepMath::new(1, 4, 10_000);
        let cfg = ContextCfg::new("kill", steps, 1, 1_000_000)
            .with_policy("lru")
            .with_smax(4)
            .with_prefetch(true);
        let exp = VirtualExperiment {
            cfg,
            alpha_sim: Dur::from_secs(30),
            tau_sim: Dur::from_secs(1),
            queue: QueueModel::None,
            nodes_per_sim: 4,
            seed: 7,
        };
        let mut accesses: Vec<u64> = (1..=20).collect();
        accesses.extend((500..=530).rev());
        let res = exp.run_analysis(&accesses, Dur::from_millis(250));
        assert!(
            res.stats.kills > 0,
            "direction change must kill outstanding prefetches: {:?}",
            res.stats
        );
        // The run still completes every access.
        assert!(res.stats.hits + res.stats.misses >= accesses.len() as u64);
    }

    #[test]
    fn pollution_reset_fires_under_tiny_cache() {
        // §IV-C: a prefetched step evicted before its access is a cache
        // pollution signal. Cache of 8 steps with aggressive prefetching
        // over a long scan forces produced-then-evicted steps.
        let steps = StepMath::new(1, 4, 10_000);
        let cfg = ContextCfg::new("pollute", steps, 1, 8)
            .with_policy("lru")
            .with_smax(8)
            .with_prefetch(true);
        let exp = VirtualExperiment {
            cfg,
            alpha_sim: Dur::from_secs(8),
            tau_sim: Dur::from_millis(100),
            queue: QueueModel::None,
            nodes_per_sim: 1,
            seed: 11,
        };
        // Slow analysis: prefetched steps sit in the tiny cache and get
        // evicted by later productions before they are consumed.
        let accesses: Vec<u64> = (1..=120).collect();
        let res = exp.run_analysis(&accesses, Dur::from_secs(2));
        assert!(
            res.stats.pollution_resets > 0,
            "tiny cache + eager prefetch must trigger pollution resets: {:?}",
            res.stats
        );
        // Liveness: despite the churn, every step was served.
        assert_eq!(res.stats.hits + res.stats.misses, 120);
    }

    #[test]
    fn strided_analysis_is_detected_and_served() {
        // k = 3 strided forward scan: the agent must confirm the stride
        // and prefetching must still help.
        let exp = experiment(true, 4);
        let accesses: Vec<u64> = (1..=40).map(|i| i * 3).collect();
        let res = exp.run_analysis(&accesses, Dur::from_millis(250));
        assert!(res.stats.prefetch_launches > 0, "{:?}", res.stats);
        let no_pf = experiment(false, 4);
        let base = no_pf.run_analysis(&accesses, Dur::from_millis(250));
        assert!(
            res.completion <= base.completion,
            "strided prefetch should not slow things down: {} vs {}",
            res.completion,
            base.completion
        );
    }

    #[test]
    fn analytic_bounds_bracket_the_run() {
        let exp = experiment(true, 8);
        let m = 96u64;
        let accesses: Vec<u64> = (1..=m).collect();
        let res = exp.run_analysis(&accesses, Dur::from_millis(250));
        let t_lower = exp.t_lower(m);
        assert!(
            res.completion >= t_lower,
            "ran faster than the parallel lower bound: {} < {}",
            res.completion,
            t_lower
        );
    }

    // -- scripted fault injection ---------------------------------------

    /// Three-member cluster, Δr = 4: member k owns intervals ≡ k mod 3
    /// (keys 1-4 → member 0, 5-8 → member 1, 17-20 → member 1, ...).
    fn faulted() -> FaultedClusterExperiment {
        let steps = StepMath::new(1, 4, 10_000);
        let cfg = ContextCfg::new("vf", steps, 1, 1_000_000)
            .with_policy("lru")
            .with_smax(4)
            .with_prefetch(false);
        FaultedClusterExperiment {
            cfg,
            members: 3,
            alpha_sim: Dur::from_secs(2),
            tau_sim: Dur::from_secs(1),
            queue: QueueModel::None,
            lease_timeout: Dur::from_secs(60),
            pin_window: 4,
            failover: false,
            seed: 7,
        }
    }

    const TAU_CLI: Dur = Dur::from_millis(500);

    #[test]
    fn faultless_cluster_serves_in_order() {
        let exp = faulted();
        let accesses: Vec<u64> = (1..=24).collect();
        let rep = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        assert_eq!(rep.served, accesses);
        assert!(rep.failed.is_empty());
        assert_eq!(rep.reconnects, 0);
        assert_eq!(rep.leases_expired, 0);
    }

    #[test]
    fn kill9_then_recover_matches_faultless_run() {
        // The analysis consumes interval 1 (keys 5-8, all member 1,
        // all pinned: window 4), then blocks on 17 (member 1 again).
        // Member 1 dies mid-wait, restarts with recovery: the session's
        // lease holds interval 1 resident, the client reconnects and
        // re-asserts the 4 pins, and the run ends exactly where the
        // faultless run does.
        let exp = faulted();
        let accesses = [5, 6, 7, 8, 17];
        let clean = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        let plan = FaultPlan {
            faults: vec![
                Fault::CrashMember { member: 1, at: Dur::from_millis(7_200) },
                Fault::RestartMember { member: 1, at: Dur::from_secs(9), recover: true },
            ],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, clean.served, "recovery changed the answer");
        assert!(rep.failed.is_empty());
        assert_eq!(rep.reconnects, 1);
        assert_eq!(rep.stats.recovery_held_steps, 4, "interval 1 held for the reassert");
        assert!(rep.held_evictions.is_empty(), "{:?}", rep.held_evictions);
        assert_eq!(rep.pins_reasserted, 4, "client re-claimed every pin");
        assert!(rep.wal_replayed > 0);
        assert_eq!(rep.leases_expired, 0, "re-assertion beat the lease");
        assert!(rep.completion > clean.completion, "the crash was not free");
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let exp = faulted();
        let accesses: Vec<u64> = (1..=32).collect();
        let plan = FaultPlan {
            faults: vec![
                Fault::CrashMember { member: 1, at: Dur::from_millis(5_300) },
                Fault::RestartMember { member: 1, at: Dur::from_secs(8), recover: true },
                Fault::DropConnection { member: 0, at: Dur::from_millis(11_700) },
            ],
        };
        let a = exp.run(&accesses, TAU_CLI, &plan);
        let b = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(a, b, "same seed + same plan must replay bit-for-bit");
    }

    #[test]
    fn restart_without_recover_forgets_pins_but_still_serves() {
        let exp = faulted();
        let accesses = [5, 6, 7, 8, 17];
        let clean = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        let plan = FaultPlan {
            faults: vec![
                Fault::CrashMember { member: 1, at: Dur::from_millis(7_200) },
                Fault::RestartMember { member: 1, at: Dur::from_secs(9), recover: false },
            ],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, clean.served);
        assert!(rep.failed.is_empty());
        assert_eq!(rep.reconnects, 1);
        assert_eq!(rep.pins_reasserted, 0, "nothing restored, nothing to claim");
    }

    #[test]
    fn dropped_connection_reconnects_in_the_same_epoch() {
        let exp = faulted();
        let accesses: Vec<u64> = (1..=24).collect();
        let clean = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        let plan = FaultPlan {
            faults: vec![Fault::DropConnection { member: 0, at: Dur::from_millis(5_700) }],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, clean.served);
        assert!(rep.failed.is_empty());
        assert_eq!(rep.reconnects, 1);
        // Same instance, same epoch: nothing was recovered or leased.
        assert_eq!(rep.pins_reasserted, 0);
        assert_eq!(rep.leases_expired, 0);
    }

    #[test]
    fn delayed_member_stalls_the_run_but_answers_do_not_change() {
        let exp = faulted();
        let accesses = [5u64, 6, 7, 8];
        let clean = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        let plan = FaultPlan {
            faults: vec![Fault::DelayMember {
                member: 1,
                from: Dur::from_secs(2),
                lasting: Dur::from_secs(30),
            }],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, clean.served);
        assert!(rep.failed.is_empty());
        assert_eq!(rep.reconnects, 0, "a delay is not a disconnect");
        assert!(
            rep.completion >= clean.completion + Dur::from_secs(25),
            "a 30 s partition must show up in completion: {} vs {}",
            rep.completion,
            clean.completion
        );
    }

    #[test]
    fn unclaimed_recovery_lease_expires_and_frees_the_pins() {
        // The analysis pins interval 1 (member 1), then spends the rest
        // of the run on members 0 and 2. Member 1 crashes and recovers,
        // but its client never comes back: the recovery lease must
        // expire and the hold it kept must lift — without disturbing
        // the analysis.
        let mut exp = faulted();
        exp.lease_timeout = Dur::from_secs(5);
        let mut accesses = vec![5u64, 6, 7, 8];
        accesses.extend((1..=24).filter(|k| StepMath::new(1, 4, 10_000).interval_of(*k) % 3 != 1));
        let clean = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        let plan = FaultPlan {
            faults: vec![
                Fault::CrashMember { member: 1, at: Dur::from_millis(7_200) },
                Fault::RestartMember { member: 1, at: Dur::from_secs(8), recover: true },
            ],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, clean.served);
        assert!(rep.failed.is_empty());
        assert_eq!(rep.reconnects, 0, "the client never returned to member 1");
        assert_eq!(rep.stats.recovery_held_steps, 4, "interval 1 held for the lease");
        assert_eq!(rep.pins_reasserted, 0);
        assert_eq!(rep.leases_expired, 1, "the unclaimed lease must expire");
        assert!(
            WalState::replay(&rep.journals[1]).leases.is_empty(),
            "the lapsed lease is journaled gone: {:?}",
            rep.journals[1]
        );
    }

    // -- interval failover ----------------------------------------------

    #[test]
    fn failover_serves_dead_members_intervals_then_hands_back() {
        // The scripted twin of the real-process kill-9 failover test:
        // the analysis pins interval 1 (member 1), blocks on 17, and
        // member 1 dies mid-wait. With failover on, member 2 takes the
        // intervals over (re-homed window pins + the blocked access),
        // the run never waits for the restart, and once member 1 is
        // back the parked pins are handed home again.
        let mut exp = faulted();
        exp.failover = true;
        let accesses = [5u64, 6, 7, 8, 17, 18, 1, 2];
        let clean = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        let plan = FaultPlan {
            faults: vec![
                Fault::CrashMember { member: 1, at: Dur::from_millis(7_200) },
                Fault::RestartMember { member: 1, at: Dur::from_secs(9), recover: true },
            ],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, clean.served, "degraded mode changed the answer");
        assert!(rep.failed.is_empty());
        // Four re-homed window pins plus the rerouted access.
        assert!(rep.takeovers >= 5, "takeovers: {}", rep.takeovers);
        assert!(rep.takeover_intervals_primed >= 1);
        assert!(
            rep.journals
                .iter()
                .flatten()
                .all(|r| matches!(r, WalRecord::Epoch { .. } | WalRecord::Lease { .. } | WalRecord::ClientGone { .. })),
            "no pin is journaled: {:?}",
            rep.journals
        );
        assert!(rep.pins_handed_back > 0, "hand-back must run: {rep:?}");
        // One down-detection plus one revival.
        assert_eq!(rep.takeover_epoch, 2);
        let again = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep, again, "failover plans must replay bit-for-bit");
    }

    #[test]
    fn failover_completes_with_no_restart_at_all() {
        // Without failover this plan deadlocks (member 1 never comes
        // back); with it, the run degrades and still answers.
        let mut exp = faulted();
        exp.failover = true;
        let accesses = [5u64, 6, 7, 8, 17];
        let clean = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        let plan = FaultPlan {
            faults: vec![Fault::CrashMember { member: 1, at: Dur::from_millis(7_200) }],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, clean.served);
        assert!(rep.failed.is_empty());
        assert!(rep.takeovers >= 5);
        assert_eq!(rep.pins_handed_back, 0, "nobody came back to hand back to");
        assert_eq!(rep.takeover_epoch, 1);
    }

    #[test]
    fn taker_death_chains_to_the_next_successor() {
        // Member 1 dies, member 2 takes over, then member 2 dies too:
        // the successor rule walks past both and member 0 ends up
        // serving everything.
        let mut exp = faulted();
        exp.failover = true;
        let accesses = [5u64, 6, 7, 8, 9, 17];
        let plan = FaultPlan {
            faults: vec![
                Fault::CrashMember { member: 1, at: Dur::from_millis(7_200) },
                Fault::CrashMember { member: 2, at: Dur::from_secs(11) },
            ],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, accesses.to_vec());
        assert!(rep.failed.is_empty());
        // Member 2 took five keys over (four re-homed pins and 17);
        // member 0 re-took the four chained pins.
        assert!(rep.takeovers >= 9, "takeovers: {}", rep.takeovers);
        assert!(
            rep.stats.takeover_intervals_primed >= 2,
            "the second taker serves both dead members' intervals: {:?}",
            rep.stats
        );
        assert_eq!(rep.takeover_epoch, 2, "two down-detections, no revival");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// A recovery lease that expires while the dead member's keys
        /// are parked on a taker must run `ClientGone` exactly once:
        /// no double release, no leaked veto.
        #[test]
        fn lease_expiry_on_taker_held_keys_runs_client_gone_exactly_once(
            restart_ms in 11_000u64..13_000,
            lease_s in 1u64..5,
        ) {
            let mut exp = faulted();
            exp.failover = true;
            exp.lease_timeout = Dur::from_secs(lease_s);
            // The analysis finishes degraded (all of member 1's keys on
            // the taker) before member 1 restarts, so the recovery lease
            // is never claimed.
            let accesses = [5u64, 6, 7, 8, 17];
            let plan = FaultPlan {
                faults: vec![
                    Fault::CrashMember { member: 1, at: Dur::from_millis(7_200) },
                    Fault::RestartMember {
                        member: 1,
                        at: Dur::from_millis(restart_ms),
                        recover: true,
                    },
                ],
            };
            let rep = exp.run(&accesses, TAU_CLI, &plan);
            proptest::prop_assert!(rep.failed.is_empty());
            proptest::prop_assert_eq!(rep.pins_handed_back, 0);
            proptest::prop_assert!(
                rep.takeovers >= 5,
                "the taker still parks the dead member's pins"
            );
            proptest::prop_assert_eq!(rep.leases_expired, 1);
            proptest::prop_assert_eq!(
                rep.journals[1]
                    .iter()
                    .filter(|r| matches!(r, WalRecord::ClientGone { .. }))
                    .count(),
                1,
                "ClientGone must run exactly once"
            );
            proptest::prop_assert!(
                WalState::replay(&rep.journals[1]).leases.is_empty(),
                "no lease may outlive its expiry"
            );
        }
    }

    // -- the crash rule ---------------------------------------------------

    /// A solo member over a 6-step cache, with a slow analysis (see
    /// `SLOW_CLI`).
    fn solo_mapped() -> FaultedClusterExperiment {
        let steps = StepMath::new(1, 4, 10_000);
        let cfg = ContextCfg::new("vm", steps, 1, 6)
            .with_policy("lru")
            .with_smax(4)
            .with_prefetch(false);
        FaultedClusterExperiment {
            cfg,
            members: 1,
            alpha_sim: Dur::from_secs(2),
            tau_sim: Dur::from_secs(1),
            queue: QueueModel::None,
            lease_timeout: Dur::from_secs(60),
            pin_window: 4,
            failover: false,
            seed: 7,
        }
    }

    /// Think time long enough that interval 0 is resident by the
    /// second access: key 1 misses (granted at 3 s) and 2, 3, 4 are
    /// hits (8, 13, 18 s). Key 9 then misses at 23 s.
    const SLOW_CLI: Dur = Dur::from_secs(5);

    /// Member 0 dies at 24 s while the analysis waits on 9 holding
    /// 1-4 (none journaled), restarts at 25 s, and a
    /// remote session floods it with four cold intervals at 26 s while
    /// the analysis is cut off until 35 s.
    fn crash_under_flood(recover: bool) -> FaultPlan {
        FaultPlan {
            faults: vec![
                Fault::CrashMember {
                    member: 0,
                    at: Dur::from_secs(24),
                },
                Fault::RestartMember {
                    member: 0,
                    at: Dur::from_secs(25),
                    recover,
                },
                Fault::DelayMember {
                    member: 0,
                    from: Dur::from_secs(25),
                    lasting: Dur::from_secs(10),
                },
                Fault::Flood {
                    member: 0,
                    at: Dur::from_secs(26),
                    first: 13,
                    keys: 16,
                },
            ],
        }
    }

    #[test]
    fn sessions_journal_a_lease_per_hello_a_client_gone_per_departure_and_no_pin() {
        // Solo: two misses (1, 9) and three hits, all held and released.
        let rep = solo_mapped().run(&[1, 2, 3, 4, 9], SLOW_CLI, &FaultPlan::default());
        assert_eq!(rep.served, vec![1, 2, 3, 4, 9]);
        let lease = |client, epoch| WalRecord::Lease { client, epoch };
        let boot = WalRecord::Epoch { epoch: 1 };
        assert_eq!(rep.journals[0], vec![boot, lease(ANALYSIS_CLIENT, 1)]);
        // K = 3: misses and hits on every member, and one departure —
        // member 0 drops the connection — followed by a second hello.
        let exp = faulted();
        let accesses: Vec<u64> = (1..=24).chain(1..=12).collect();
        let plan = FaultPlan {
            faults: vec![Fault::DropConnection {
                member: 0,
                at: Dur::from_millis(5_700),
            }],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, accesses);
        assert_eq!(rep.reconnects, 1);
        assert!(rep.stats.hits >= 12 && rep.stats.misses > 0, "{:?}", rep.stats);
        assert_eq!(
            rep.journals[0],
            vec![
                boot,
                lease(ANALYSIS_CLIENT, 1),
                WalRecord::ClientGone {
                    client: ANALYSIS_CLIENT,
                    epoch: 1
                },
                lease(ANALYSIS_CLIENT + 1, 1),
            ]
        );
        for m in [1, 2] {
            assert_eq!(rep.journals[m], vec![boot, lease(ANALYSIS_CLIENT, 1)], "member {m}");
        }
    }

    #[test]
    fn recovery_holds_slot_pinned_keys_through_a_flood_until_the_reassert() {
        let exp = solo_mapped();
        let accesses = [1, 2, 3, 4, 9];
        let rep = exp.run(&accesses, SLOW_CLI, &crash_under_flood(true));
        assert_eq!(rep.served, accesses.to_vec());
        assert!(rep.failed.is_empty());
        assert!(
            rep.held_evictions.is_empty(),
            "held keys evicted at {:?}",
            rep.held_evictions
        );
        assert_eq!(rep.pins_reasserted, 4, "the held pins came back resident");
        assert_eq!(rep.leases_expired, 0);
        assert_eq!(rep.stats.recovery_held_steps, 4);
        assert!(
            rep.stats.produced_steps >= 16,
            "the flood ran: {:?}",
            rep.stats
        );
        assert_eq!(rep.residue, 0);
        let again = exp.run(&accesses, SLOW_CLI, &crash_under_flood(true));
        assert_eq!(rep, again, "replays bit-for-bit");
    }

    #[test]
    fn without_recovery_the_same_flood_evicts_held_keys() {
        let rep = solo_mapped().run(&[1, 2, 3, 4, 9], SLOW_CLI, &crash_under_flood(false));
        assert_eq!(rep.served, vec![1, 2, 3, 4, 9]);
        assert!(
            !rep.held_evictions.is_empty(),
            "nothing held the flood back"
        );
        assert_eq!(rep.pins_reasserted, 0);
    }

    #[test]
    fn the_hold_lifts_when_an_unclaimed_lease_lapses() {
        let mut exp = solo_mapped();
        exp.lease_timeout = Dur::from_secs(3);
        let rep = exp.run(&[1, 2, 3, 4, 9], SLOW_CLI, &crash_under_flood(true));
        assert_eq!(rep.served, vec![1, 2, 3, 4, 9]);
        assert_eq!(rep.leases_expired, 1);
        let lapse = Dur::from_secs(25 + 3);
        assert!(
            !rep.held_evictions.is_empty(),
            "the lapsed hold let the flood in"
        );
        assert!(
            rep.held_evictions.iter().all(|&at| at >= lapse),
            "a held key went before the lease lapsed: {:?}",
            rep.held_evictions
        );
        assert_eq!(
            rep.pins_reasserted, 0,
            "the late reassert finds every key gone"
        );
    }

    /// A single-member cluster with a supervision profile scaled to
    /// the virtual timescale: fast backoff and a 2 s quarantine (so
    /// its expiry is observable inside one run), a 5 s hang floor.
    fn supervised() -> FaultedClusterExperiment {
        let steps = StepMath::new(1, 4, 10_000);
        let supervisor = SupervisorCfg {
            backoff_base: Dur::from_millis(100),
            backoff_cap: Dur::from_secs(1),
            quarantine: Dur::from_secs(2),
            hang_floor: Dur::from_secs(5),
            ..SupervisorCfg::default()
        };
        let cfg = ContextCfg::new("vp", steps, 1, 1_000_000)
            .with_policy("lru")
            .with_smax(4)
            .with_prefetch(false)
            .with_supervisor(supervisor);
        FaultedClusterExperiment {
            cfg,
            members: 1,
            alpha_sim: Dur::from_secs(2),
            tau_sim: Dur::from_secs(1),
            queue: QueueModel::None,
            lease_timeout: Dur::from_secs(60),
            pin_window: 4,
            failover: false,
            seed: 7,
        }
    }

    #[test]
    fn transient_sim_failure_retries_transparently() {
        let exp = supervised();
        let accesses: Vec<u64> = (1..=12).collect();
        let clean = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        assert_eq!(clean.stats.sim_retries, 0);
        assert_eq!(clean.stats.failures, 0);
        let plan = FaultPlan {
            faults: vec![Fault::FailSim { member: 0, at: Dur::ZERO, persistent: false }],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        // Same final ready set as the faultless run: the retry is
        // invisible to the analysis except for the time it cost.
        assert_eq!(rep.served, clean.served);
        assert!(rep.failed.is_empty());
        assert_eq!(rep.stats.sim_retries, 1);
        assert_eq!(rep.stats.failures, 1);
        assert_eq!(rep.stats.intervals_poisoned, 0);
        assert_eq!(rep.residue, 0);
        assert!(rep.completion > clean.completion);
    }

    #[test]
    fn persistent_failure_poisons_within_budget() {
        let exp = supervised();
        let accesses: Vec<u64> = vec![1, 2, 3];
        let plan = FaultPlan {
            faults: vec![Fault::FailSim { member: 0, at: Dur::ZERO, persistent: true }],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert!(rep.served.is_empty());
        // The first waiter rides the full attempt ladder; the interval
        // then short-circuits the rest from quarantine, all typed.
        assert_eq!(rep.failed, vec![1, 2, 3]);
        assert_eq!(rep.failed_codes, vec![FailCode::Poisoned; 3]);
        assert_eq!(rep.stats.failures, 3, "exactly the attempt budget");
        assert_eq!(rep.stats.sim_retries, 2);
        assert_eq!(rep.stats.intervals_poisoned, 1);
        assert_eq!(rep.residue, 0, "no leaked slot, claim, or waiter");
    }

    #[test]
    fn hung_sim_is_killed_by_watchdog_and_retried() {
        let exp = supervised();
        let accesses: Vec<u64> = (1..=8).collect();
        let clean = exp.run(&accesses, TAU_CLI, &FaultPlan::default());
        let plan = FaultPlan {
            faults: vec![Fault::HangSim { member: 0, at: Dur::ZERO }],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.served, clean.served);
        assert!(rep.failed.is_empty());
        assert_eq!(rep.stats.sims_hung_killed, 1);
        assert_eq!(rep.stats.sim_retries, 1);
        assert_eq!(rep.stats.intervals_poisoned, 0);
        assert_eq!(rep.residue, 0);
        // The interval sat wedged until the hang deadline (8× the 1 s
        // tau estimate) lapsed and the watchdog stepped in.
        assert!(rep.completion >= clean.completion + Dur::from_secs(5));
    }

    #[test]
    fn corrupt_output_poisons_then_heals_after_quarantine() {
        let exp = supervised();
        // Three armed corruptions exhaust interval 1's budget through
        // the integrity gate; serving key 6 (interval 2) then burns
        // enough virtual time for the 2 s quarantine to lapse, so the
        // re-access of key 2 relaunches cleanly.
        let accesses: Vec<u64> = vec![2, 6, 2];
        let plan = FaultPlan {
            faults: vec![
                Fault::CorruptOutput { member: 0, at: Dur::ZERO },
                Fault::CorruptOutput { member: 0, at: Dur::ZERO },
                Fault::CorruptOutput { member: 0, at: Dur::ZERO },
            ],
        };
        let rep = exp.run(&accesses, TAU_CLI, &plan);
        assert_eq!(rep.failed, vec![2]);
        assert_eq!(rep.failed_codes, vec![FailCode::CorruptOutput]);
        assert_eq!(rep.served, vec![6, 2]);
        assert_eq!(rep.stats.corrupt_outputs, 3);
        assert_eq!(rep.stats.failures, 3);
        assert_eq!(rep.stats.sim_retries, 2);
        assert_eq!(rep.stats.intervals_poisoned, 1);
        assert_eq!(rep.residue, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Under any scripted mix of production faults, every acquire
        /// resolves — Ready or a typed Failed (`run` panics on
        /// deadlock, so completing at all is the liveness half) — and
        /// the supervision tier leaks nothing: no `s_max` slot, no
        /// pending-production claim, no waiter.
        #[test]
        fn production_faults_never_leak_slots_claims_or_waiters(
            faults in proptest::collection::vec(
                (0u8..3, 0u64..15_000, proptest::arbitrary::any::<bool>()),
                0..4,
            ),
        ) {
            let exp = supervised();
            let accesses: Vec<u64> = (1..=12).collect();
            let plan = FaultPlan {
                faults: faults
                    .into_iter()
                    .map(|(kind, at_ms, persistent)| {
                        let at = Dur::from_millis(at_ms);
                        match kind {
                            0 => Fault::FailSim { member: 0, at, persistent },
                            1 => Fault::HangSim { member: 0, at },
                            _ => Fault::CorruptOutput { member: 0, at },
                        }
                    })
                    .collect(),
            };
            let rep = exp.run(&accesses, TAU_CLI, &plan);
            proptest::prop_assert_eq!(rep.residue, 0);
            proptest::prop_assert_eq!(rep.served.len() + rep.failed.len(), accesses.len());
            proptest::prop_assert_eq!(rep.failed.len(), rep.failed_codes.len());
        }
    }
}

