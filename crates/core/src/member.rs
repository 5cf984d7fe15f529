//! The member core: one DV member's crash protocol — recovery,
//! re-assertion, recovery-lease expiry, departure and takeover priming
//! — as a sans-IO state machine around its [`DataVirtualizer`]. The
//! daemon (`server.rs`) runs it under its DV lock on the monotonic
//! clock, the virtual fault harness ([`crate::vharness`]) on virtual
//! time; neither re-implements a rule.
//!
//! Events and `now` go in; DV actions (into the caller's buffer),
//! journal records ([`MemberCore::records`], which the caller appends
//! to its WAL) and the next instant a [`tick`](MemberCore::tick) has
//! work ([`next_due`](MemberCore::next_due)) come out. A recovery
//! lease deadline is one more supervision deadline.
//!
//! # The crash rule
//!
//! No pin is ever journaled: a mapped session's slot pin reaches no
//! member code at all, and a pin the daemon grants — a fast-path hit, a
//! miss's `Ready`, a takeover grant — writes no record either. The
//! journal holds sessions instead, and three rules keep every pin of a
//! session that finished its hello alive across a crash, provided its
//! client reasserts within the lease timeout:
//!
//! 1. **Lease at hello.** Every session of a durable member journals
//!    one [`WalRecord::Lease`] ([`MemberCore::lease`]), durable before
//!    its greeting goes out — one record per session, none per pin. A
//!    recovering member leases every client whose lease record is live,
//!    pins or none ([`WalState::leases`]). A journal written by an
//!    earlier build names pins, not sessions; the daemon refuses to
//!    recover from it.
//! 2. **Recovery holds evictions until its leases settle.** While any
//!    recovery lease is outstanding, no step that was resident at the
//!    recovery is evicted ([`DataVirtualizer::hold_resident`]); the
//!    storage area overflows its budget instead, for at most the lease
//!    timeout. The departure that ends the last lease — a reassert, a
//!    late reassert or the deadline — lifts the hold.
//! 3. **Reassert restores any key still resident.** Under a live lease
//!    each claimed key that is still resident is pinned for the new
//!    session and answered `restored`, not `gone`: the pin comes back
//!    with no re-acquire and, by rule 2, no gap in which it could have
//!    been evicted.

use crate::dv::{ClientId, ClusterMember, DataVirtualizer, DvAction, DvEvent};
use simkit::{Dur, SimTime};
use simstore::walog::{WalRecord, WalState};
use std::collections::{BTreeMap, HashSet};

/// One member's DV plus the crash-protocol state around it.
pub(crate) struct MemberCore {
    /// The member's state machine.
    pub(crate) dv: DataVirtualizer,
    /// Strictly above every epoch in the replayed journal; `0` for a
    /// member without one.
    epoch: u64,
    /// The member keeps a journal (no records are queued without one).
    durable: bool,
    /// Recovery leases: prior-instance client → the instant its claim
    /// on the held steps lapses unless re-asserted. Ordered, so
    /// simultaneous expiries depart in client order.
    leases: BTreeMap<ClientId, SimTime>,
    /// Foreign intervals primed to serve takeover acquires.
    primed: HashSet<u64>,
    /// Journal records queued by the transitions so far, oldest first;
    /// the caller drains them after each call.
    pub(crate) records: Vec<WalRecord>,
}

/// What [`MemberCore::recover`] hands back besides the core.
pub(crate) struct Recovered {
    /// Keys priming evicted over the budget (the caller deletes them).
    pub(crate) evicted: Vec<u64>,
    /// The recovered journal state under the new epoch, whose
    /// [`snapshot`](WalState::snapshot) replaces the journal; `None`
    /// without a journal.
    pub(crate) state: Option<WalState>,
    /// One past the highest leased client id (`0` if none): new
    /// sessions must not take a leased identity.
    pub(crate) client_floor: u64,
}

/// A reassert's answer, key by key.
#[derive(Default)]
pub(crate) struct Reasserted {
    /// Keys pinned for the new session (one entry per count).
    pub(crate) restored: Vec<u64>,
    /// Keys the client must re-acquire, with the reason.
    pub(crate) gone: Vec<(u64, String)>,
}

impl MemberCore {
    /// Starts member `me` over `dv` (built by the caller, any hit index
    /// attached), priming the owned `resident` steps in the order given
    /// (a size is read only for an owned key). With a `journal` the
    /// epoch is one above the replayed one, recovery or not, so a
    /// cross-epoch reassert is never mistaken for a same-instance
    /// reconnect; with `recover` every client the journal leaves live
    /// is leased until `now + lease_timeout` (rule 1), and while any
    /// lease is out the resident steps are held from eviction (rule 2).
    pub(crate) fn recover<S: FnOnce() -> u64>(
        me: ClusterMember,
        mut dv: DataVirtualizer,
        resident: impl IntoIterator<Item = (u64, S)>,
        journal: Option<&[WalRecord]>,
        recover: bool,
        now: SimTime,
        lease_timeout: Dur,
    ) -> (MemberCore, Recovered) {
        let steps = dv.cfg().steps;
        let mut evicted = Vec::new();
        for (key, size) in resident {
            if me.owns_key(&steps, key) {
                evicted.extend(dv.prime(key, size()));
            }
        }
        let mut core = MemberCore {
            dv,
            epoch: 0,
            durable: journal.is_some(),
            leases: BTreeMap::new(),
            primed: HashSet::new(),
            records: Vec::new(),
        };
        let mut client_floor = 0;
        let state = journal.map(|records| {
            let replayed = WalState::replay(records);
            core.epoch = replayed.epoch + 1;
            let mut state = WalState {
                epoch: core.epoch,
                ..WalState::default()
            };
            if recover {
                let deadline = now.saturating_add(lease_timeout);
                core.leases = replayed.leases.iter().map(|&client| (client, deadline)).collect();
                client_floor = replayed.leases.last().map_or(0, |client| client + 1);
                state.leases = replayed.leases;
                if !core.leases.is_empty() {
                    // Rule 2.
                    let held = core.dv.hold_resident() as u64;
                    core.dv.stats_mut().recovery_held_steps += held;
                }
            }
            state
        });
        (core, Recovered { evicted, state, client_floor })
    }

    /// This instance's recovery epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    fn journal(&mut self, record: WalRecord) {
        if self.durable {
            self.records.push(record);
        }
    }

    /// Session `client` said hello: its pins will never be journaled,
    /// so its lease is (rule 1). The caller makes the record durable
    /// before the session's greeting goes out.
    pub(crate) fn lease(&mut self, client: ClientId) {
        let epoch = self.epoch;
        self.journal(WalRecord::Lease { client, epoch });
    }

    /// Session `client` re-claims the pins its prior identity held
    /// (`keys`, one entry per count). **Same epoch**: the hangup
    /// already released everything — all `gone`, nothing runs. **Lease
    /// lapsed (at this very instant counts) or unknown**: all `gone`; a
    /// lapsed, unticked lease expires here. **Lease live**: each key
    /// still resident is pinned for `client` (rule 3; `restored`), the
    /// rest are `gone`, and the prior identity departs — its
    /// `ClientGone` is the only record the reassert journals. A lease
    /// is claimed at most once.
    pub(crate) fn reassert(
        &mut self,
        now: SimTime,
        client: ClientId,
        prior_client: ClientId,
        prior_epoch: u64,
        keys: &[u64],
        actions: &mut Vec<DvAction>,
    ) -> Reasserted {
        let all_gone = |reason: String| Reasserted {
            restored: Vec::new(),
            gone: keys.iter().map(|&key| (key, reason.clone())).collect(),
        };
        if prior_epoch == self.epoch {
            return all_gone(format!(
                "same-epoch reconnect: pins of client {prior_client} were released when its \
                 connection dropped; re-acquire"
            ));
        }
        let lease = self.leases.remove(&prior_client);
        if lease.is_none_or(|deadline| now >= deadline) {
            if lease.is_some() {
                self.expire(now, prior_client, actions);
            }
            return all_gone(format!(
                "recovery lease of client {prior_client} (epoch {prior_epoch}) expired or \
                 unknown; re-acquire"
            ));
        }
        let mut out = Reasserted::default();
        for &key in keys {
            if self.dv.pin_resident(client, key) {
                out.restored.push(key);
            } else {
                out.gone
                    .push((key, format!("key {key} is no longer resident; re-acquire")));
            }
        }
        self.depart(now, prior_client, actions);
        out
    }

    /// `client` is gone — hangup, lapsed lease or retired prior
    /// identity: one record voids its lease, the DV releases its pins.
    /// The departure that settles the last recovery lease lifts the
    /// recovery's hold (rule 2).
    pub(crate) fn depart(&mut self, now: SimTime, client: ClientId, actions: &mut Vec<DvAction>) {
        self.leases.remove(&client);
        if self.leases.is_empty() {
            self.dv.release_hold();
        }
        self.journal(WalRecord::ClientGone {
            client,
            epoch: self.epoch,
        });
        self.dv.handle_into(now, DvEvent::ClientGone { client }, actions);
    }

    fn expire(&mut self, now: SimTime, client: ClientId, actions: &mut Vec<DvAction>) {
        self.dv.stats_mut().leases_expired += 1;
        self.depart(now, client, actions);
    }

    /// Earliest instant a [`tick`](Self::tick) has work: the DV's next
    /// deadline or the earliest lease's (a lapsed one reports `now`).
    pub(crate) fn next_due(&self, now: SimTime) -> Option<SimTime> {
        let lease = self.leases.values().min().map(|&deadline| deadline.max(now));
        self.dv.next_due(now).into_iter().chain(lease).min()
    }

    /// Runs the member's timers: every lease due by `now` expires, then
    /// the DV's supervision tick.
    pub(crate) fn tick(&mut self, now: SimTime, actions: &mut Vec<DvAction>) {
        while let Some((&client, _)) = self.leases.iter().find(|&(_, &due)| due <= now) {
            self.expire(now, client, actions);
        }
        self.dv.tick(now, actions);
    }

    /// Whether foreign `interval` is primed (checked before listing).
    pub(crate) fn is_primed(&self, interval: u64) -> bool {
        self.primed.contains(&interval)
    }

    /// First takeover touch of foreign `interval`: primes that
    /// interval's keys among `listed` (the shared storage's `(key,
    /// size)` pairs) and returns what priming evicted. Idempotent per
    /// interval — a later call, or a racing first touch, does nothing.
    pub(crate) fn prime_interval(
        &mut self,
        interval: u64,
        listed: impl IntoIterator<Item = (u64, u64)>,
    ) -> Vec<u64> {
        if !self.primed.insert(interval) {
            return Vec::new();
        }
        self.dv.stats_mut().takeover_intervals_primed += 1;
        let keys = self.dv.cfg().steps.interval_keys(interval);
        let mut evicted = Vec::new();
        for (key, size) in listed {
            if keys.contains(&key) {
                evicted.extend(self.dv.prime(key, size));
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ContextCfg, StepMath};
    use simstore::walog::{encode_record, replay_bytes, RECORD_LEN};
    use std::collections::BTreeSet;

    /// Δr = 4 over 40 steps: interval j holds keys 4j+1..=4j+4. Member
    /// `index` of `size` owns the intervals ≡ index (mod size).
    fn core_with(
        index: u32,
        size: u32,
        resident: &[u64],
        journal: Option<&[WalRecord]>,
        recover: bool,
    ) -> (MemberCore, Recovered) {
        let steps = StepMath::new(1, 4, 40);
        let cfg = ContextCfg::new("m", steps, 1, 1_000).with_policy("lru");
        let me = ClusterMember::new(index, size);
        let dv = DataVirtualizer::for_member(cfg, me);
        MemberCore::recover(
            me,
            dv,
            resident.iter().map(|&key| (key, move || 1)),
            journal,
            recover,
            SimTime::from_secs(10),
            Dur::from_secs(5),
        )
    }

    fn lease(client: u64, epoch: u64) -> WalRecord {
        WalRecord::Lease { client, epoch }
    }

    fn gone(client: u64, epoch: u64) -> WalRecord {
        WalRecord::ClientGone { client, epoch }
    }

    #[test]
    fn epoch_is_strictly_above_the_replayed_one_with_and_without_recover() {
        let journal = [WalRecord::Epoch { epoch: 3 }, lease(7, 3), lease(8, 4), gone(8, 4)];
        for recover in [false, true] {
            let (core, rec) = core_with(0, 1, &[1, 2], Some(&journal), recover);
            assert_eq!(core.epoch(), 5, "recover = {recover}");
            let snapshot = rec.state.expect("a journal yields a state").snapshot(5);
            assert_eq!(snapshot[0], WalRecord::Epoch { epoch: 5 });
            assert!(snapshot.iter().all(|r| r.epoch() == 5));
            assert_eq!(core.leases.len(), usize::from(recover), "recover = {recover}");
        }
        let (core, rec) = core_with(0, 1, &[1], None, true);
        assert_eq!(core.epoch(), 0, "no journal, no epoch");
        assert!(rec.state.is_none());
        assert_eq!(core.next_due(SimTime::ZERO), None, "and no lease");
    }

    #[test]
    fn only_resident_pins_are_restored_and_only_live_clients_are_leased() {
        // Member 1 of 2 owns interval 1 (keys 5-8), not interval 0. 7
        // held 5 twice and 6 (not resident), 8 only 6: 8 is leased all
        // the same. 9 departed; 10 held nothing.
        let journal = [lease(7, 1), lease(8, 1), lease(9, 1), gone(9, 1), lease(10, 1)];
        let (mut core, rec) = core_with(1, 2, &[1, 5], Some(&journal), true);
        assert!(core.dv.is_cached(5));
        assert!(!core.dv.is_cached(1), "a foreign resident step is not primed");
        assert_eq!(core.dv.pin_count(5), 0, "recovery pins nothing");
        assert_eq!(core.dv.stats().recovery_held_steps, 1, "key 5");
        let state = rec.state.expect("journal");
        assert_eq!(
            state.snapshot(2),
            vec![WalRecord::Epoch { epoch: 2 }, lease(7, 2), lease(8, 2), lease(10, 2)],
            "the snapshot journals leases, no pin"
        );
        assert_eq!(rec.client_floor, 11);
        assert_eq!(core.leases.keys().copied().collect::<Vec<_>>(), vec![7, 8, 10]);
        assert_eq!(core.next_due(SimTime::from_secs(10)), Some(SimTime::from_secs(15)));
        // 7 comes back for both counts on 5 and for 6: only the resident
        // key is restored, and only the departure is journaled.
        let mut actions = Vec::new();
        let out = core.reassert(SimTime::from_secs(12), 20, 7, 1, &[5, 5, 6], &mut actions);
        assert_eq!(out.restored, vec![5, 5]);
        assert_eq!(out.gone.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![6]);
        assert_eq!(core.records, vec![gone(7, 2)]);
        assert_eq!(core.dv.pin_count(5), 2);
    }

    #[test]
    fn same_epoch_reassert_is_all_gone_and_runs_nothing() {
        let (mut core, _) = core_with(0, 1, &[1], Some(&[lease(7, 1)]), true);
        let mut actions = Vec::new();
        let epoch = core.epoch();
        let out = core.reassert(SimTime::from_secs(11), 20, 7, epoch, &[1, 1], &mut actions);
        assert!(out.restored.is_empty());
        assert_eq!(out.gone.len(), 2);
        assert!(actions.is_empty() && core.records.is_empty());
        assert_eq!(core.dv.stats().leases_expired, 0);
        // The lease is untouched: the prior client may still return.
        assert!(core.leases.contains_key(&7));
    }

    #[test]
    fn lease_lapsed_at_the_reassert_instant_is_gone_with_one_departure() {
        let (mut core, _) = core_with(0, 1, &[1], Some(&[lease(7, 1)]), true);
        let mut actions = Vec::new();
        let at_deadline = SimTime::from_secs(15);
        let out = core.reassert(at_deadline, 20, 7, 1, &[1], &mut actions);
        assert!(out.restored.is_empty());
        assert_eq!(out.gone.len(), 1);
        assert_eq!(core.records, vec![gone(7, 2)]);
        assert_eq!(core.dv.stats().leases_expired, 1);
        // Claimed once: neither a second reassert nor the tick at the
        // deadline departs again.
        core.records.clear();
        let again = core.reassert(at_deadline, 21, 7, 1, &[1], &mut actions);
        assert_eq!(again.gone.len(), 1);
        core.tick(at_deadline, &mut actions);
        assert!(core.records.is_empty());
        assert_eq!(core.dv.stats().leases_expired, 1);
    }

    #[test]
    fn live_lease_restores_resident_keys_and_journals_only_the_departure() {
        let (mut core, _) = core_with(0, 1, &[1, 2], Some(&[lease(7, 1)]), true);
        let mut actions = Vec::new();
        let out = core.reassert(SimTime::from_secs(12), 20, 7, 1, &[1, 1, 3], &mut actions);
        assert_eq!(out.restored, vec![1, 1]);
        assert_eq!(out.gone.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![3]);
        assert_eq!(core.records, vec![gone(7, 2)], "no pin record");
        // Each claimed count is a pin of the new session; the unclaimed
        // resident key 2 is pinned by nobody.
        assert_eq!(core.dv.pin_count(1), 2);
        assert_eq!(core.dv.pin_count(2), 0);
        assert!(core.leases.is_empty());
        assert_eq!(core.next_due(SimTime::from_secs(12)), None);
        assert_eq!(core.dv.stats().leases_expired, 0);
    }

    #[test]
    fn tick_expires_a_lease_at_its_deadline_and_releases_the_pins() {
        let (mut core, _) = small_solo(&[1, 2], &[lease(7, 1)]);
        let mut actions = Vec::new();
        core.tick(SimTime::from_secs(14), &mut actions);
        assert!(core.records.is_empty(), "not due yet");
        let due = core.next_due(SimTime::from_secs(14)).expect("a lease is due");
        core.tick(due, &mut actions);
        assert_eq!(core.records, vec![gone(7, 2)]);
        assert_eq!(core.dv.stats().leases_expired, 1);
        assert_eq!(core.next_due(due), None);
        // The lapsed lease's hold is gone: the next production evicts.
        let evicted = produce_through(&mut core, due, 5);
        assert!(evicted.contains(&1) && evicted.contains(&2), "{evicted:?}");
    }

    #[test]
    fn priming_is_idempotent_per_interval_and_touches_only_its_keys() {
        // Member 0 of 2 takes over member 1's interval 1 (keys 5-8).
        let (mut core, _) = core_with(0, 2, &[], Some(&[]), false);
        let listed = [(4, 1), (5, 1), (8, 1), (9, 1), (13, 1)];
        // Two callers race the first touch: both saw it unprimed.
        assert!(!core.is_primed(1) && !core.is_primed(1));
        assert!(core.prime_interval(1, listed).is_empty());
        assert!(core.prime_interval(1, listed).is_empty());
        assert!(core.is_primed(1));
        assert_eq!(core.dv.stats().takeover_intervals_primed, 1);
        for key in [5, 8] {
            assert!(core.dv.is_cached(key), "key {key}");
        }
        for key in [4, 9, 13] {
            assert!(!core.dv.is_cached(key), "key {key} is outside interval 1");
        }
        assert!(core.records.is_empty(), "priming journals nothing");
    }

    /// A solo member over a two-step cache (steps of one byte).
    fn small_solo(resident: &[u64], journal: &[WalRecord]) -> (MemberCore, Recovered) {
        let steps = StepMath::new(1, 4, 40);
        let cfg = ContextCfg::new("m", steps, 1, 2)
            .with_policy("lru")
            .with_prefetch(false);
        let dv = DataVirtualizer::for_member(cfg, ClusterMember::SOLO);
        MemberCore::recover(
            ClusterMember::SOLO,
            dv,
            resident.iter().map(|&key| (key, move || 1)),
            Some(journal),
            true,
            SimTime::from_secs(10),
            Dur::from_secs(5),
        )
    }

    /// Client 30 acquires cold `key`, its sim produces the whole
    /// interval at `now`, and 30 releases `key`. Returns the keys
    /// evicted on the way.
    fn produce_through(core: &mut MemberCore, now: SimTime, key: u64) -> Vec<u64> {
        let mut actions = Vec::new();
        core.dv
            .handle_into(now, DvEvent::Acquire { client: 30, key }, &mut actions);
        let (sim, keys) = actions
            .iter()
            .find_map(|a| match a {
                DvAction::Launch { sim, keys, .. } => Some((*sim, keys.clone())),
                _ => None,
            })
            .expect("a cold key launches");
        core.dv
            .handle_into(now, DvEvent::SimStarted { sim }, &mut actions);
        for k in keys {
            core.dv.handle_into(
                now,
                DvEvent::FileProduced {
                    sim,
                    key: k,
                    size: 1,
                },
                &mut actions,
            );
        }
        core.dv
            .handle_into(now, DvEvent::SimFinished { sim }, &mut actions);
        core.dv
            .handle_into(now, DvEvent::Release { client: 30, key }, &mut actions);
        actions
            .into_iter()
            .filter_map(|a| match a {
                DvAction::Evict { key } => Some(key),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_solo_member_leases_every_live_hello_lease_and_holds_evictions_until_the_last_settles() {
        // 7 and 8 said hello (8 held 2); 9 said hello and departed.
        let journal = [lease(7, 1), lease(8, 1), lease(9, 1), gone(9, 1)];
        let (mut core, rec) = small_solo(&[1, 2], &journal);
        assert_eq!(core.leases.keys().copied().collect::<Vec<_>>(), vec![7, 8]);
        assert_eq!(rec.client_floor, 9);
        let state = rec.state.expect("journal");
        assert_eq!(state.leases, BTreeSet::from([7, 8]), "the snapshot keeps both leases");
        assert_eq!(core.dv.stats().recovery_held_steps, 2);
        // Rule 2: interval 1 floods the two-step cache; 1 and 2 stay.
        let t = SimTime::from_secs(11);
        let evicted = produce_through(&mut core, t, 6);
        assert!(evicted.contains(&5) && !evicted.contains(&1), "{evicted:?}");
        assert!(core.dv.is_cached(1) && core.dv.is_cached(2));
        assert!(
            core.dv.cache_stats().overflows > 0,
            "the held area overflows"
        );
        // 8 returns; 7 is still out, so the hold stands.
        let mut actions = Vec::new();
        core.reassert(t, 20, 8, 1, &[2], &mut actions);
        assert!(produce_through(&mut core, t, 9).contains(&6));
        assert!(core.dv.is_cached(1) && core.dv.is_cached(2));
        // 7's lease lapses: the hold lifts, and the next production may
        // take 1 (unpinned) but not 2 (pinned by 20).
        let due = core.next_due(t).expect("7's lease");
        core.tick(due, &mut actions);
        assert_eq!(core.dv.stats().leases_expired, 1);
        assert!(produce_through(&mut core, due, 13).contains(&1));
        assert!(core.dv.is_cached(2));
    }

    #[test]
    fn reassert_pins_a_resident_key_that_lost_its_record_and_gones_the_rest() {
        // 7 held 1 and 3 through its slots: no pin record exists.
        let (mut core, _) = small_solo(&[1, 2], &[lease(7, 1)]);
        let mut actions = Vec::new();
        let out = core.reassert(SimTime::from_secs(12), 20, 7, 1, &[1, 3], &mut actions);
        assert_eq!(out.restored, vec![1]);
        assert_eq!(
            out.gone.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![3]
        );
        assert_eq!(core.records, vec![gone(7, 2)]);
        assert_eq!(core.dv.pin_count(1), 1);
        // The last lease settled: the hold is gone, 1 is held by its pin.
        let evicted = produce_through(&mut core, SimTime::from_secs(12), 5);
        assert!(evicted.contains(&2) && !evicted.contains(&1), "{evicted:?}");
    }

    #[test]
    fn a_lease_is_journaled_at_hello_only_with_a_journal() {
        let (mut core, _) = small_solo(&[], &[]);
        core.lease(4);
        assert_eq!(core.records, vec![lease(4, 1)]);
        // A cluster member leases too.
        let (mut core, _) = core_with(1, 2, &[], Some(&[]), false);
        core.lease(4);
        assert_eq!(core.records, vec![lease(4, 1)]);
        let (mut core, _) = core_with(0, 1, &[], None, false);
        core.lease(4);
        assert!(core.records.is_empty());
    }

    #[test]
    fn a_member_without_a_journal_queues_no_records() {
        let (mut core, _) = core_with(0, 1, &[1], None, false);
        let mut actions = Vec::new();
        core.depart(SimTime::ZERO, 3, &mut actions);
        assert!(core.records.is_empty());
    }

    mod crash_props {
        use super::*;
        use proptest::prelude::*;

        /// One step of a durable member's session history.
        #[derive(Clone, Debug)]
        enum Op {
            /// A new session says hello.
            Hello,
            /// The live session at this index departs.
            Bye(prop::sample::Index),
            /// The daemon restarts, with or without `--recover`.
            Restart(bool),
            /// A pin record lands in the journal, as only the
            /// benchmark's append probe writes one.
            Pin(u64),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                Just(Op::Hello),
                Just(Op::Hello),
                any::<prop::sample::Index>().prop_map(Op::Bye),
                any::<bool>().prop_map(Op::Restart),
                (1u64..40).prop_map(Op::Pin),
            ]
        }

        fn encode(records: &[WalRecord]) -> Vec<u8> {
            let mut bytes = Vec::new();
            for r in records {
                encode_record(r, &mut bytes);
            }
            bytes
        }

        fn start(journal: &[WalRecord], recover: bool) -> (MemberCore, Recovered) {
            core_with(0, 1, &[1, 2], Some(journal), recover)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A scripted history of hellos, departures and restarts,
            /// encoded as the daemon writes it and cut at every byte
            /// boundary: each valid prefix recovers exactly its hellos
            /// minus its departures (a pin record ends what is read),
            /// under an epoch above every record's, and the recovered
            /// snapshot recovers to the same leases.
            #[test]
            fn every_cut_of_a_lease_journal_recovers_its_live_sessions(
                ops in prop::collection::vec(arb_op(), 0..32),
            ) {
                // The file's records, in the order they were written.
                let (core, rec) = start(&[], true);
                let mut epoch = core.epoch();
                let mut written = rec.state.expect("a journal").snapshot(epoch);
                let mut live: Vec<u64> = Vec::new();
                let mut next_client = 1;
                for op in ops {
                    match op {
                        Op::Hello => {
                            written.push(WalRecord::Lease { client: next_client, epoch });
                            live.push(next_client);
                            next_client += 1;
                        }
                        Op::Bye(at) if !live.is_empty() => {
                            let client = live.remove(at.index(live.len()));
                            written.push(WalRecord::ClientGone { client, epoch });
                        }
                        Op::Bye(_) => {}
                        Op::Restart(recover) => {
                            let (records, _) = replay_bytes(&encode(&written));
                            let (core, rec) = start(&records, recover);
                            epoch = core.epoch();
                            let state = rec.state.expect("a journal");
                            live = state.leases.iter().copied().collect();
                            next_client = next_client.max(rec.client_floor);
                            written = state.snapshot(epoch);
                        }
                        Op::Pin(key) => {
                            written.push(WalRecord::PinAcquire { client: next_client, key, epoch });
                        }
                    }
                }
                let bytes = encode(&written);
                let readable = written
                    .iter()
                    .position(|r| matches!(r, WalRecord::PinAcquire { .. }))
                    .unwrap_or(written.len());
                for cut in 0..=bytes.len() {
                    let whole = cut / RECORD_LEN;
                    let (records, report) = replay_bytes(&bytes[..cut]);
                    let replayed = whole.min(readable);
                    prop_assert_eq!(&records[..], &written[..replayed]);
                    prop_assert_eq!(report.truncated, replayed * RECORD_LEN != cut);
                    prop_assert!(!report.earlier);
                    if cut % RECORD_LEN != 0 && cut != bytes.len() {
                        continue; // the same valid prefix as the last boundary
                    }
                    let mut hellos = BTreeSet::new();
                    for r in &written[..replayed] {
                        match *r {
                            WalRecord::Lease { client, .. } => {
                                hellos.insert(client);
                            }
                            WalRecord::ClientGone { client, .. } => {
                                hellos.remove(&client);
                            }
                            _ => {}
                        }
                    }
                    let (core, rec) = start(&records, true);
                    let leased: BTreeSet<u64> = core.leases.keys().copied().collect();
                    prop_assert_eq!(&leased, &hellos);
                    prop_assert_eq!(rec.client_floor, hellos.last().map_or(0, |c| c + 1));
                    prop_assert!(written[..whole].iter().all(|r| r.epoch() < core.epoch()));
                    let state = rec.state.expect("a journal");
                    prop_assert_eq!(&state.leases, &hellos);
                    let (plain, _) = start(&records, false);
                    prop_assert_eq!(plain.epoch(), core.epoch());
                    prop_assert!(plain.leases.is_empty());
                    // Recovering the recovered snapshot: the same leases,
                    // one epoch on.
                    let (again, _) = replay_bytes(&encode(&state.snapshot(core.epoch())));
                    let (core2, rec2) = start(&again, true);
                    prop_assert_eq!(core2.epoch(), core.epoch() + 1);
                    prop_assert_eq!(&rec2.state.expect("a journal").leases, &state.leases);
                    prop_assert_eq!(rec2.client_floor, rec.client_floor);
                }
            }
        }
    }
}
