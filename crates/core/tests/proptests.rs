//! Property tests for the Data Virtualizer and the model math.

use proptest::prelude::*;
use simfs_core::dv::{
    shard_cfg, ClusterMember, DataVirtualizer, DvAction, DvEvent, LaunchReason,
};
use simfs_core::model::{ContextCfg, StepMath};
use simfs_core::prefetch::{AccessLog, AccessRecord};
use simfs_core::replay::replay;
use simkit::{Dur, SimTime};
use std::collections::{HashMap, HashSet};
use std::ops::RangeInclusive;

/// Event generator over a small key/client/sim space so streams hit
/// every DV code path (hits, misses, productions for both live and
/// stale sims, failures, departures).
fn arb_event() -> impl Strategy<Value = DvEvent> {
    prop_oneof![
        4 => (1u64..6, 1u64..30).prop_map(|(client, key)| DvEvent::Acquire { client, key }),
        3 => (1u64..6, 1u64..30).prop_map(|(client, key)| DvEvent::Release { client, key }),
        1 => (1u64..10).prop_map(|sim| DvEvent::SimStarted { sim }),
        3 => (1u64..10, 1u64..30, 1u64..500).prop_map(|(sim, key, size)| {
            DvEvent::FileProduced { sim, key, size }
        }),
        1 => (1u64..10).prop_map(|sim| DvEvent::SimFinished { sim }),
        1 => (1u64..10).prop_map(|sim| DvEvent::SimFailed { sim }),
        1 => (1u64..6).prop_map(|client| DvEvent::ClientGone { client }),
    ]
}

/// Runs every launch in `pending` to synchronous completion (FIFO, so
/// launch order is the comparison order), recording `(range, reason)`
/// per launch — including launches that only drain out of the `s_max`
/// queue when an earlier sim finishes.
fn settle(
    dv: &mut DataVirtualizer,
    mut pending: Vec<DvAction>,
    now: SimTime,
    launches: &mut Vec<(RangeInclusive<u64>, LaunchReason)>,
) {
    let mut i = 0;
    while i < pending.len() {
        let action = pending[i].clone();
        i += 1;
        if let DvAction::Launch {
            sim, keys, reason, ..
        } = action
        {
            launches.push((keys.clone(), reason));
            pending.extend(dv.handle(now, DvEvent::SimStarted { sim }));
            for k in keys {
                pending.extend(dv.handle(
                    now,
                    DvEvent::FileProduced { sim, key: k, size: 10 },
                ));
            }
            pending.extend(dv.handle(now, DvEvent::SimFinished { sim }));
        }
    }
}

/// Records `client`'s acquire of `key` at `now` the way a daemon
/// connection does and drains the log into the agents right away — the
/// piggybacked drain of a request that took the DV lock. `acts` holds
/// exactly the acquire's actions: a served access is recorded (a ready
/// point when it was answered at once), a failed one is not, and the
/// agents' actions are appended. Cluster members drain with their
/// `owns_key`, a solo DV with `|_| true`. Every test that drives a
/// prefetching DV through `handle` acquires goes through here: the DV
/// does not observe acquires itself.
fn observe_acquire(
    dv: &mut DataVirtualizer,
    log: &mut AccessLog,
    now: SimTime,
    (client, key): (u64, u64),
    owns_key: &dyn Fn(u64) -> bool,
    acts: &mut Vec<DvAction>,
) {
    let mine = |c: &u64, k: &u64| (*c, *k) == (client, key);
    let failed =
        |a: &DvAction| matches!(a, DvAction::NotifyFailed { client: c, key: k, .. } if mine(c, k));
    let ready =
        |a: &DvAction| matches!(a, DvAction::NotifyReady { client: c, key: k } if mine(c, k));
    if acts.iter().any(failed) {
        return;
    }
    log.push(AccessRecord {
        client,
        key,
        epoch: now.as_nanos(),
        ready: acts.iter().any(ready),
    });
    let mut records = Vec::new();
    let dropped = log.drain_into(&mut records);
    dv.ingest_digest(now, &records, dropped, owns_key, acts);
}

/// [`observe_acquire`] for a solo DV: the acquire and its observation.
fn acquire(
    dv: &mut DataVirtualizer,
    log: &mut AccessLog,
    now: SimTime,
    client: u64,
    key: u64,
) -> Vec<DvAction> {
    let mut acts = dv.handle(now, DvEvent::Acquire { client, key });
    observe_acquire(dv, log, now, (client, key), &|_| true, &mut acts);
    acts
}

/// A scan driven the daemon's way: hits bypass the DV entirely (the
/// lock-free fast path) and only leave a record; misses go through
/// `on_acquire`; records drain into `ingest_digest` every `drain_every`
/// accesses and after every miss — the piggyback + tick schedule.
fn run_digest_scan(
    cfg: &ContextCfg,
    keys: &[u64],
    log_capacity: usize,
    drain_every: usize,
) -> (DataVirtualizer, Vec<(RangeInclusive<u64>, LaunchReason)>) {
    let mut dv = DataVirtualizer::new(cfg.clone());
    let mut log = AccessLog::new(log_capacity);
    let mut scratch = Vec::new();
    let mut launches = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        let now = SimTime::from_secs(1 + i as u64);
        let missed = !dv.is_cached(key);
        if missed {
            let acts = dv.handle(now, DvEvent::Acquire { client: 1, key });
            settle(&mut dv, acts, now, &mut launches);
        }
        // Productions in this harness complete at the same SimTime as
        // the acquire, so every record's epoch is a true ready point.
        log.push(AccessRecord {
            client: 1,
            key,
            epoch: now.as_nanos(),
            ready: true,
        });
        if missed || (i + 1) % drain_every == 0 || i + 1 == keys.len() {
            scratch.clear();
            let dropped = log.drain_into(&mut scratch);
            dv.note_digest_dropped(dropped);
            let mut acts = Vec::new();
            dv.ingest_digest(now, &scratch, dropped, &|_| true, &mut acts);
            settle(&mut dv, acts, now, &mut launches);
        }
    }
    (dv, launches)
}

/// Restart latency and per-step production time of the paced
/// simulators in [`PacedScan`].
const PACED_ALPHA: Dur = Dur::from_millis(20);
const PACED_TAU: Dur = Dur::from_millis(5);

/// A simulator in flight: it reports `SimStarted` [`PACED_ALPHA`] after
/// launch, then produces its keys in order, one every [`PACED_TAU`],
/// and finishes with its last one.
struct PacedSim {
    sim: u64,
    started: bool,
    next: u64,
    last: u64,
    at: SimTime,
}

/// A closed-loop analysis against paced simulators, on one virtual
/// clock, driven the daemon's way: the client acquires a key — a
/// resident one is a lock-free hit that only leaves a record, a missing
/// one goes through `on_acquire` and is recorded as a ready point only
/// when it resolved at once — waits for its `FileProduced` when it
/// missed, consumes it for `tau_cli`, then acquires the next. The
/// access log drains into `ingest_digest` after every event.
struct PacedScan {
    dv: DataVirtualizer,
    sims: Vec<PacedSim>,
    launches: Vec<(RangeInclusive<u64>, LaunchReason)>,
    log: AccessLog,
    /// Accesses that waited for production.
    blocked: usize,
    /// Accesses answered (at once or after the wait).
    served: usize,
    /// Consumption gaps the trace holds: from one access becoming ready
    /// to the next acquire, when that is later.
    gaps: u64,
}

impl PacedScan {
    fn run(cfg: &ContextCfg, keys: &[u64], tau_cli: Dur) -> PacedScan {
        let mut scan = PacedScan {
            dv: DataVirtualizer::new(cfg.clone()),
            sims: Vec::new(),
            launches: Vec::new(),
            log: AccessLog::new(keys.len() + 1),
            blocked: 0,
            served: 0,
            gaps: 0,
        };
        let mut now = SimTime::ZERO;
        let mut ready_at: Option<SimTime> = None;
        for &key in keys {
            // Everything due by the acquire happens before it.
            while scan.sims.iter().any(|s| s.at <= now) {
                scan.step();
            }
            scan.gaps += u64::from(ready_at.is_some_and(|r| now > r));
            let resolved = scan.dv.is_cached(key) || {
                let acts = scan.dv.handle(now, DvEvent::Acquire { client: 1, key });
                let resolved = readies(&acts, key);
                scan.apply(now, acts);
                resolved
            };
            scan.log.push(AccessRecord {
                client: 1,
                key,
                epoch: now.as_nanos(),
                ready: resolved,
            });
            scan.apply(now, Vec::new());
            if !resolved {
                scan.blocked += 1;
                now = loop {
                    let (at, acts) = scan.step();
                    if readies(&acts, key) {
                        break at;
                    }
                };
            }
            scan.served += 1;
            ready_at = Some(now);
            now += tau_cli;
        }
        scan
    }

    /// Delivers the earliest simulator event; returns its time and the
    /// DV's actions.
    fn step(&mut self) -> (SimTime, Vec<DvAction>) {
        let i = (0..self.sims.len())
            .min_by_key(|&i| (self.sims[i].at, self.sims[i].sim))
            .expect("the client waits on a key nothing produces");
        let s = &mut self.sims[i];
        let (sim, at) = (s.sim, s.at);
        s.at += PACED_TAU;
        let mut acts = Vec::new();
        if !s.started {
            s.started = true;
            acts.extend(self.dv.handle(at, DvEvent::SimStarted { sim }));
        } else {
            let key = s.next;
            s.next += 1;
            acts.extend(
                self.dv
                    .handle(at, DvEvent::FileProduced { sim, key, size: 10 }),
            );
            if key == s.last {
                self.sims.swap_remove(i);
                acts.extend(self.dv.handle(at, DvEvent::SimFinished { sim }));
            }
        }
        self.apply(at, acts.clone());
        (at, acts)
    }

    /// Drains the access log into the agents first, then starts
    /// launched simulators and drops killed ones.
    fn apply(&mut self, now: SimTime, mut acts: Vec<DvAction>) {
        if !self.log.is_empty() {
            let mut records = Vec::new();
            let dropped = self.log.drain_into(&mut records);
            self.dv
                .ingest_digest(now, &records, dropped, &|_| true, &mut acts);
        }
        for action in acts {
            match action {
                DvAction::Launch {
                    sim, keys, reason, ..
                } => {
                    self.launches.push((keys.clone(), reason));
                    self.sims.push(PacedSim {
                        sim,
                        started: false,
                        next: *keys.start(),
                        last: *keys.end(),
                        at: now + PACED_ALPHA,
                    });
                }
                DvAction::Kill { sim } => self.sims.retain(|s| s.sim != sim),
                _ => {}
            }
        }
    }
}

/// Did `acts` answer client 1's request for `key`?
fn readies(acts: &[DvAction], key: u64) -> bool {
    acts.iter()
        .any(|a| matches!(a, DvAction::NotifyReady { client: 1, key: k } if *k == key))
}

fn scan_cfg(n_outputs: u64, smax: u32) -> ContextCfg {
    let steps = StepMath::new(1, 4, n_outputs);
    // Cache big enough that the scan never evicts: pollution resets off
    // the table, so the comparison isolates the observation plumbing.
    ContextCfg::new("digest-eq", steps, 10, n_outputs * 100)
        .with_policy("lru")
        .with_smax(smax)
        .with_prefetch(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The digest contract's lossless limit: a strided scan served
    /// through the lock-free fast path, its log drained after every
    /// access, shows the agents every access (none dropped) and every
    /// consumption gap (each record is a ready point one second after
    /// the last), serves every key, and launches only inside the
    /// timeline.
    #[test]
    fn lossless_digest_scan_observes_every_access(
        n_intervals in 4u64..16,
        stride in 1u64..3,
        backward in any::<bool>(),
        smax in 1u32..5,
    ) {
        let n = n_intervals * 4;
        let cfg = scan_cfg(n, smax);
        let mut keys: Vec<u64> = (1..=n).step_by(stride as usize).collect();
        if backward {
            keys.reverse();
        }

        // Capacity covers the whole scan and a drain follows every
        // access.
        let (dv, launches) = run_digest_scan(&cfg, &keys, keys.len() + 1, 1);

        let stats = dv.stats();
        prop_assert_eq!(stats.digest_dropped, 0);
        prop_assert_eq!(stats.digest_replayed, keys.len() as u64);
        // Record i sits at 1 + i seconds: every gap after the first
        // record is one positive, loss-free gap from a ready point.
        prop_assert_eq!(stats.tau_cli_samples, keys.len() as u64 - 1);
        for &key in &keys {
            prop_assert!(dv.is_cached(key), "scan left key {} unserved", key);
        }
        for (range, _) in &launches {
            prop_assert!(*range.start() >= 1 && *range.end() <= n,
                "launch {:?} outside the timeline", range);
        }
        prop_assert_eq!(dv.active_sims(), 0);
        prop_assert_eq!(dv.queued_launches(), 0);
    }

    /// An analysis that outruns its paced simulators and so blocks from
    /// its first access: a blocked record is no ready point, and the
    /// consumption gap after it starts at the waiter's ready stamp. The
    /// agents then sample exactly the consumption gaps the trace holds
    /// — none lost to a blocked record, none inflated by a production
    /// wait — observe every access, and prefetch; every key is served
    /// and every launch stays inside the timeline.
    #[test]
    fn blocking_stream_digest_samples_every_consumption_gap(
        n_intervals in 4u64..12,
        stride in 1u64..3,
        backward in any::<bool>(),
        smax in 1u32..5,
        tau_cli_ms in 1u64..5,
    ) {
        let n = n_intervals * 4;
        let cfg = scan_cfg(n, smax);
        let mut keys: Vec<u64> = (1..=n).step_by(stride as usize).collect();
        if backward {
            keys.reverse();
        }
        let tau_cli = Dur::from_millis(tau_cli_ms);

        let scan = PacedScan::run(&cfg, &keys, tau_cli);

        prop_assert!(scan.blocked > 0);
        prop_assert!(
            scan.launches.iter().any(|(_, r)| *r == LaunchReason::Prefetch),
            "setup: the agent must prefetch: {:?}", scan.launches
        );
        let stats = scan.dv.stats();
        prop_assert!(scan.gaps > 0);
        prop_assert_eq!(stats.tau_cli_samples, scan.gaps);
        prop_assert_eq!(stats.digest_replayed, keys.len() as u64);
        prop_assert_eq!(scan.served, keys.len());
        for (range, _) in &scan.launches {
            prop_assert!(*range.start() >= 1 && *range.end() <= n,
                "launch {:?} outside the timeline", range);
        }
    }

    /// The digest contract's lossy half: a tiny ring with sparse drains
    /// loses records (counted), which may delay or skip prefetch
    /// triggers and even fake a stride jump at a drop boundary — but it
    /// can only *degrade* the agents, never corrupt the DV: every miss
    /// still resolves, launches stay inside the timeline and inside
    /// `s_max`, the system quiesces, and the surviving (contiguous,
    /// order-preserved) suffix of the stream still re-confirms the
    /// trajectory.
    #[test]
    fn digest_overflow_degrades_but_never_corrupts(
        n_intervals in 6u64..16,
        // B = 4 scans drain at every interval-opening miss, i.e. after
        // at most 4 records: capacities below that guarantee overflow.
        log_capacity in 2usize..4,
        drain_every in 4usize..12,
        smax in 1u32..5,
    ) {
        let n = n_intervals * 4;
        let cfg = scan_cfg(n, smax);
        let keys: Vec<u64> = (1..=n).collect();
        let (dv, launches) = run_digest_scan(&cfg, &keys, log_capacity, drain_every);

        let stats = dv.stats();
        prop_assert!(stats.digest_dropped > 0, "parameters must force drops");
        prop_assert_eq!(
            stats.digest_replayed + stats.digest_dropped,
            keys.len() as u64,
            "every record is replayed or counted dropped"
        );
        for (range, _) in &launches {
            prop_assert!(*range.start() >= 1 && *range.end() <= n,
                "launch {range:?} outside the timeline");
        }
        // Degradation bound: with loss, the planner can only see fewer
        // triggers than full observation, never invent extra coverage.
        prop_assert!(stats.scheduled_steps <= 2 * n,
            "lossy observation over-planned: {} steps for a {}-step scan",
            stats.scheduled_steps, n);
        // The scan itself always completes: every key materialized.
        for key in 1..=n {
            prop_assert!(dv.is_cached(key), "scan left key {key} unproduced");
        }
        prop_assert_eq!(dv.active_sims(), 0);
        prop_assert_eq!(dv.queued_launches(), 0);
    }

    /// R(d_i) and the resim range satisfy the §II-A contract for every
    /// cadence.
    #[test]
    fn step_math_contract(
        dd in 1u64..20,
        intervals in 1u64..20,
        n_intervals in 1u64..50,
        key_sel in any::<prop::sample::Index>(),
    ) {
        let dr = dd * intervals;
        let steps = StepMath::new(dd, dr, dr * n_intervals);
        let n = steps.n_outputs();
        prop_assume!(n >= 1);
        let key = 1 + key_sel.index(n as usize) as u64;

        // Restart mapping bounds.
        let r = steps.restart_before(key);
        prop_assert!(r * dr <= key * dd);
        prop_assert!((r + 1) * dr > key * dd || (key * dd).is_multiple_of(dr));

        // The resim range contains the key and stays in the timeline.
        let range = steps.resim_range(key);
        prop_assert!(range.contains(&key));
        prop_assert!(*range.start() >= 1 && *range.end() <= n);

        // Cost is the distance from the previous restart boundary.
        let cost = steps.miss_cost(key);
        prop_assert!(cost < steps.outputs_per_interval());
        prop_assert_eq!(cost == 0, key.is_multiple_of(steps.outputs_per_interval()));
    }

    /// Replay invariants: every miss restarts at most one simulation,
    /// simulated steps bound the misses, hits+misses = valid accesses.
    #[test]
    fn replay_accounting(
        accesses in prop::collection::vec(0u64..200, 1..400),
        cache_steps in 2u64..100,
        policy in prop::sample::select(vec!["lru", "arc", "lirs", "bcl", "dcl"]),
    ) {
        let steps = StepMath::new(1, 8, 160); // N = 160, B = 8
        let ctx = ContextCfg::new("prop", steps, 10, cache_steps * 10)
            .with_policy(policy);
        let valid = accesses.iter().filter(|&&k| (1..=160).contains(&k)).count() as u64;
        let stats = replay(&ctx, accesses.iter().copied());
        prop_assert_eq!(stats.hits + stats.misses, valid);
        prop_assert_eq!(stats.restarts, stats.misses);
        prop_assert!(stats.simulated_steps >= stats.misses);
        prop_assert!(stats.simulated_steps <= stats.misses * 8);
    }

    /// The DV never evicts a pinned step, never double-launches a key,
    /// and keeps `active_sims <= s_max` under arbitrary acquire/release
    /// interleavings with immediate production. Actions are executed
    /// depth-first in emission order — exactly how the daemon applies
    /// them — so the on-disk mirror tracks eviction/re-production
    /// churn faithfully.
    #[test]
    fn dv_invariants_under_random_workloads(
        ops in prop::collection::vec((0u64..50, any::<bool>()), 1..150),
        smax in 1u32..5,
        cache_steps in 2u64..20,
    ) {
        struct Mirror {
            pinned: HashMap<u64, u64>,
            on_disk: HashSet<u64>,
            ready_for_client: HashSet<u64>,
            smax: u32,
        }

        /// Applies one action (and everything it triggers) in order.
        fn exec(
            dv: &mut DataVirtualizer,
            m: &mut Mirror,
            now: SimTime,
            action: DvAction,
        ) -> Result<(), proptest::test_runner::TestCaseError> {
            match action {
                DvAction::Launch { sim, keys, .. } => {
                    prop_assert!(dv.active_sims() <= m.smax as usize);
                    for a in dv.handle(now, DvEvent::SimStarted { sim }) {
                        exec(dv, m, now, a)?;
                    }
                    for k in keys.clone() {
                        m.on_disk.insert(k);
                        for a in dv.handle(now, DvEvent::FileProduced { sim, key: k, size: 10 }) {
                            exec(dv, m, now, a)?;
                        }
                    }
                    for a in dv.handle(now, DvEvent::SimFinished { sim }) {
                        exec(dv, m, now, a)?;
                    }
                }
                DvAction::Evict { key } => {
                    prop_assert_eq!(
                        m.pinned.get(&key).copied().unwrap_or(0),
                        0,
                        "evicted a pinned step"
                    );
                    m.on_disk.remove(&key);
                }
                DvAction::NotifyReady { key, .. } => {
                    prop_assert!(m.on_disk.contains(&key), "ready for a missing step");
                    m.ready_for_client.insert(key);
                }
                DvAction::NotifyFailed { .. } | DvAction::Kill { .. } => {}
            }
            Ok(())
        }

        let steps = StepMath::new(1, 4, 40);
        let ctx = ContextCfg::new("prop", steps, 10, cache_steps * 10)
            .with_policy("lru")
            .with_smax(smax)
            .with_prefetch(true);
        let mut dv = DataVirtualizer::new(ctx);
        let mut log = AccessLog::new(1);
        let mut m = Mirror {
            pinned: HashMap::new(),
            on_disk: HashSet::new(),
            ready_for_client: HashSet::new(),
            smax,
        };
        let mut now_ns = 0u64;

        for (key_raw, do_release) in ops {
            now_ns += 1;
            let now = SimTime::from_nanos(now_ns);
            let key = 1 + key_raw % 40;
            if do_release {
                if m.pinned.get(&key).copied().unwrap_or(0) > 0 {
                    *m.pinned.get_mut(&key).unwrap() -= 1;
                    for a in dv.handle(now, DvEvent::Release { client: 1, key }) {
                        exec(&mut dv, &mut m, now, a)?;
                    }
                }
            } else {
                m.ready_for_client.remove(&key);
                for a in acquire(&mut dv, &mut log, now, 1, key) {
                    exec(&mut dv, &mut m, now, a)?;
                }
                // The acquire must have resolved (synchronous production)
                // and the step must still be on disk: it is pinned now.
                prop_assert!(
                    m.ready_for_client.contains(&key),
                    "acquire of {} never became ready",
                    key
                );
                prop_assert!(m.on_disk.contains(&key), "ready step {} missing", key);
                *m.pinned.entry(key).or_insert(0) += 1;
            }
        }
    }

    /// Liveness at scale: a long random acquire/release session always
    /// terminates with zero queued launches once all sims finish.
    #[test]
    fn dv_drains_launch_queue(keys in prop::collection::vec(1u64..100, 1..100)) {
        let steps = StepMath::new(1, 10, 100);
        let ctx = ContextCfg::new("drain", steps, 1, 1000)
            .with_smax(1)
            .with_prefetch(true);
        let mut dv = DataVirtualizer::new(ctx);
        let mut log = AccessLog::new(1);
        let mut t = 0u64;
        let mut worklist: Vec<DvAction> = Vec::new();
        for key in keys {
            t += 1;
            worklist.extend(acquire(&mut dv, &mut log, SimTime::from_nanos(t), 1, key));
            // Run every launch to completion before the next access.
            while let Some(action) = worklist.pop() {
                if let DvAction::Launch { sim, keys, .. } = action {
                    for k in keys {
                        worklist.extend(dv.handle(
                            SimTime::from_nanos(t),
                            DvEvent::FileProduced { sim, key: k, size: 1 },
                        ));
                    }
                    worklist.extend(dv.handle(SimTime::from_nanos(t), DvEvent::SimFinished { sim }));
                }
            }
            t += 1;
            dv.handle(SimTime::from_nanos(t), DvEvent::Release { client: 1, key });
        }
        prop_assert_eq!(dv.active_sims(), 0);
        prop_assert_eq!(dv.queued_launches(), 0);
    }

    /// The scratch-buffer API is observationally identical to the
    /// allocating one: `handle_into` with one reused buffer produces
    /// exactly the action sequences `handle` does, event for event, over
    /// arbitrary streams (including nonsense events for unknown
    /// sims/clients).
    #[test]
    fn handle_into_matches_handle(
        events in prop::collection::vec(arb_event(), 1..200),
        cache_steps in 2u64..20,
        smax in 1u32..5,
        prefetch in any::<bool>(),
    ) {
        let steps = StepMath::new(1, 4, 40);
        let mk = || {
            DataVirtualizer::new(
                ContextCfg::new("equiv", steps, 10, cache_steps * 10)
                    .with_policy("lru")
                    .with_smax(smax)
                    .with_prefetch(prefetch),
            )
        };
        let (mut alloc_dv, mut alloc_log) = (mk(), AccessLog::new(1));
        let (mut scratch_dv, mut scratch_log) = (mk(), AccessLog::new(1));
        let mut scratch = Vec::new();
        for (i, event) in events.into_iter().enumerate() {
            let now = SimTime::from_nanos(1 + i as u64);
            let acquired = match event {
                DvEvent::Acquire { client, key } => Some((client, key)),
                _ => None,
            };
            let mut fresh = alloc_dv.handle(now, event.clone());
            scratch.clear();
            scratch_dv.handle_into(now, event, &mut scratch);
            if let Some(access) = acquired {
                let solo = &|_| true;
                observe_acquire(&mut alloc_dv, &mut alloc_log, now, access, solo, &mut fresh);
                observe_acquire(&mut scratch_dv, &mut scratch_log, now, access, solo, &mut scratch);
            }
            prop_assert_eq!(&fresh, &scratch);
        }
        prop_assert_eq!(alloc_dv.stats().hits, scratch_dv.stats().hits);
        prop_assert_eq!(alloc_dv.stats().misses, scratch_dv.stats().misses);
        prop_assert_eq!(alloc_dv.stats().restarts, scratch_dv.stats().restarts);
        prop_assert_eq!(alloc_dv.stats().kills, scratch_dv.stats().kills);
        prop_assert_eq!(alloc_dv.stats().evictions, scratch_dv.stats().evictions);
        prop_assert_eq!(alloc_dv.active_sims(), scratch_dv.active_sims());
        prop_assert_eq!(alloc_dv.queued_launches(), scratch_dv.queued_launches());
    }

    /// The multi-daemon contract: a 3-daemon cluster — each member one
    /// [`DataVirtualizer::for_member`] receiving only the events DVLib's
    /// interval hash routes to it, with `ClientGone` fanned out to every
    /// member — behaves exactly like three hand-built DVs, member `k`
    /// given the `1/K` context slice and sim ids `k + 1` step `K`, fed
    /// the same per-member subsequences. This pins the daemon-level
    /// composition (per-member budget and `s_max` slice, cluster-wide
    /// sim-id striding, teardown fan-out order). The routing rule is
    /// pinned independently: `owns_key` must agree with `interval % K`
    /// (invalid keys to member 0), every launch of member `k` must carry
    /// a sim id in `k`'s residue class, and every miss launch must stay
    /// inside intervals member `k` owns. Each member observes the
    /// acquires routed to it through its own digest.
    #[test]
    fn cluster_members_compose_to_per_member_slices(
        events in prop::collection::vec(arb_event(), 1..200),
        cache_steps in 2u64..20,
        smax in 1u32..8,
        prefetch in any::<bool>(),
    ) {
        const K: u32 = 3;
        let steps = StepMath::new(1, 4, 40);
        let cfg = ContextCfg::new("clustereq", steps, 10, cache_steps * 10)
            .with_policy("lru")
            .with_smax(smax)
            .with_prefetch(prefetch);
        let per_member = shard_cfg(&cfg, K);
        let mut reference: Vec<DataVirtualizer> = (0..K)
            .map(|k| DataVirtualizer::new(per_member.clone()).with_sim_ids(k as u64 + 1, K as u64))
            .collect();
        let mut members: Vec<DataVirtualizer> = (0..K)
            .map(|k| DataVirtualizer::for_member(cfg.clone(), ClusterMember::new(k, K)))
            .collect();
        let mut member_logs: Vec<AccessLog> = (0..K).map(|_| AccessLog::new(1)).collect();
        let mut reference_logs: Vec<AccessLog> = (0..K).map(|_| AccessLog::new(1)).collect();
        // DVLib's routing tier: keys go to the member owning their
        // restart interval, sim lifecycle events to the member whose
        // id residue launched the sim, teardown to every member.
        let owner_of_key = |key: u64| {
            let owners: Vec<u32> =
                (0..K).filter(|&k| ClusterMember::new(k, K).owns_key(&steps, key)).collect();
            assert_eq!(owners.len(), 1, "key {key} must have exactly one owner: {owners:?}");
            owners[0]
        };
        // The rule `owns_key` must implement, written out on its own.
        let interval_owner = |key: u64| {
            if steps.valid_key(key) {
                (steps.interval_of(key) % K as u64) as u32
            } else {
                0
            }
        };
        let owner_of_sim = |sim: u64| (sim.wrapping_sub(1) % K as u64) as u32;

        for (i, event) in events.into_iter().enumerate() {
            let now = SimTime::from_nanos(1 + i as u64);
            let owner = match &event {
                DvEvent::Acquire { key, .. }
                | DvEvent::Release { key, .. }
                | DvEvent::FileProduced { key, .. }
                | DvEvent::OutputCorrupt { key, .. } => {
                    prop_assert_eq!(owner_of_key(*key), interval_owner(*key));
                    Some(owner_of_key(*key))
                }
                DvEvent::SimStarted { sim }
                | DvEvent::SimFinished { sim }
                | DvEvent::SimFailed { sim } => Some(owner_of_sim(*sim)),
                DvEvent::ClientGone { .. } => None,
            };
            let acquired = match event {
                DvEvent::Acquire { client, key } => Some((client, key)),
                _ => None,
            };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for k in 0..K as usize {
                if owner.is_none_or(|o| o as usize == k) {
                    let from = got.len();
                    let (mut g, mut w) = (Vec::new(), Vec::new());
                    members[k].handle_into(now, event.clone(), &mut g);
                    reference[k].handle_into(now, event.clone(), &mut w);
                    if let Some(access) = acquired {
                        // Each member drains its own log, planning only
                        // the intervals it owns.
                        let me = ClusterMember::new(k as u32, K);
                        let owns = |key: u64| me.owns_key(&steps, key);
                        let (dv, log) = (&mut members[k], &mut member_logs[k]);
                        observe_acquire(dv, log, now, access, &owns, &mut g);
                        let (dv, log) = (&mut reference[k], &mut reference_logs[k]);
                        observe_acquire(dv, log, now, access, &owns, &mut w);
                    }
                    got.extend(g);
                    want.extend(w);
                    for action in &got[from..] {
                        if let DvAction::Launch { sim, keys, reason, .. } = action {
                            prop_assert_eq!(owner_of_sim(*sim) as usize, k);
                            if *reason == LaunchReason::Miss {
                                for key in keys.clone() {
                                    prop_assert_eq!(interval_owner(key) as usize, k);
                                }
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(&got, &want);
        }

        let mut want = simfs_core::dv::DvStats::default();
        for dv in &reference {
            want.accumulate(dv.stats());
        }
        let mut got = simfs_core::dv::DvStats::default();
        for member in &members {
            got.accumulate(member.stats());
        }
        prop_assert_eq!(got.hits, want.hits);
        prop_assert_eq!(got.misses, want.misses);
        prop_assert_eq!(got.restarts, want.restarts);
        prop_assert_eq!(got.evictions, want.evictions);
        prop_assert_eq!(got.kills, want.kills);
        prop_assert_eq!(got.produced_steps, want.produced_steps);
        let got_active: usize = members.iter().map(DataVirtualizer::active_sims).sum();
        let want_active: usize = reference.iter().map(DataVirtualizer::active_sims).sum();
        prop_assert_eq!(got_active, want_active);
    }
}
