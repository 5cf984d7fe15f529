//! The cluster-routing core: every failover decision of a multi-daemon
//! DV cluster, as one sans-IO state machine.
//!
//! Beyond the static interval router, a cluster session keeps three
//! facts: which members it has declared down, the takeover epoch, and,
//! for every pin it parked on a taker, where that pin sits and how many
//! times it is held there. [`ClusterRoute`] owns all of them and answers
//! every routing question from them: where an acquire goes and under
//! which tag, where a release goes, what a dead member's pins re-home
//! to, and what a revived member gets handed back. It does no I/O and
//! reads no clock. Probing, sockets and virtual time belong to its two
//! drivers, `DvCluster` (the DVLib tier) and `FaultedClusterExperiment`
//! (scripted faults in virtual time), so a scripted fault plan exercises
//! the same routing the wire runs.
//!
//! The member's side of the contract, [`ownership_error`], lives here
//! too. A takeover tag names the key's *home*, never the member the pin
//! happened to sit on: a pin re-homed twice (its home died, then its
//! taker died) still carries its home's index, and the second taker
//! accepts it for that reason.

use crate::dv::{member_of_key, ClusterMember};
use crate::model::StepMath;
use std::collections::BTreeMap;

/// Which ownership rule an acquire is served under: a member's own
/// keys, or a dead member's keys this member took over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AcquireMode {
    Native,
    Takeover { dead_member: u32, origin_epoch: u64 },
}

/// The ownership rule a cluster member applies to every acquired key:
/// why `key` may not be served at member `me` under `mode`, if it may
/// not. A native acquire must name a key `me` owns: a correctly routing
/// client never sends another, and accepting one would double-produce
/// the interval under a foreign budget slice. A takeover acquire must
/// name a key the asserted-dead member owns. Invalid keys are exempt (no
/// member owns them): they fall through to the DV for the same timeline
/// error every member reports.
pub(crate) fn ownership_error(
    steps: &StepMath,
    me: ClusterMember,
    key: u64,
    mode: AcquireMode,
) -> Option<String> {
    if !steps.valid_key(key) {
        return None;
    }
    let owner = member_of_key(steps, me.size, key);
    let (me, size) = (me.index, me.size);
    match mode {
        AcquireMode::Native if owner == me => None,
        AcquireMode::Native => Some(format!(
            "key {key} belongs to cluster member {owner} (this is {me} of {size})"
        )),
        AcquireMode::Takeover { dead_member, .. } if owner == dead_member => None,
        AcquireMode::Takeover { .. } if owner == me => Some(format!(
            "key {key} belongs to this member ({owner}); \
             acquire it without the takeover tag"
        )),
        AcquireMode::Takeover {
            dead_member,
            origin_epoch,
        } => Some(format!(
            "key {key} belongs to member {owner}, not to dead member \
             {dead_member} (takeover epoch {origin_epoch})"
        )),
    }
}

/// The fixed successor rule of interval failover: the taker of dead
/// member `dead` is the first member clockwise on the membership ring
/// that is not itself down. Every client evaluates this rule
/// independently and, because the ring order is the member-list order
/// all of them share, picks the same taker without coordination.
fn successor_taker(dead: usize, size: usize, down: &[bool]) -> Option<usize> {
    (1..size).map(|i| (dead + i) % size).find(|&m| !down[m])
}

/// Where an acquire of one key goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// Send it to `member` under `mode`: natively at the key's home, or
    /// as a takeover at the home's taker, tagged with the home.
    Member { member: usize, mode: AcquireMode },
    /// The key's home is down and nothing takes it over (failover off,
    /// or no live member left).
    Down(usize),
}

/// Where a release of one key goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Release {
    /// Send it to this live member, which holds the pin.
    Send(usize),
    /// The pin died with this (down) member: drop the local count only.
    Forget(usize),
}

/// The failover state of one cluster session (see the module doc).
pub(crate) struct ClusterRoute {
    steps: StepMath,
    /// Reroute a dead member's intervals to a live taker instead of
    /// reporting it down.
    failover: bool,
    /// Members currently declared dead.
    down: Vec<bool>,
    /// Bumped on every down-detection and every revival; tags takeover
    /// traffic so stale or misrouted claims are attributable.
    epoch: u64,
    /// (key, taker) → pins parked there. A key sits on two takers only
    /// when a revival moved its home's successor while pins stayed on
    /// the old one.
    parked: BTreeMap<(u64, usize), u32>,
}

impl ClusterRoute {
    /// A healthy `size`-member cluster over `steps`, failover off.
    pub(crate) fn new(steps: StepMath, size: u32) -> ClusterRoute {
        ClusterRoute {
            steps,
            failover: false,
            down: vec![false; size as usize],
            epoch: 0,
            parked: BTreeMap::new(),
        }
    }

    pub(crate) fn set_failover(&mut self, on: bool) {
        self.failover = on;
    }

    pub(crate) fn failover(&self) -> bool {
        self.failover
    }

    /// The member owning `key`'s restart interval.
    pub(crate) fn home(&self, key: u64) -> usize {
        member_of_key(&self.steps, self.down.len() as u32, key) as usize
    }

    pub(crate) fn is_down(&self, m: usize) -> bool {
        self.down[m]
    }

    pub(crate) fn members_down(&self) -> usize {
        self.down.iter().filter(|&&d| d).count()
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pins currently parked on takers.
    pub(crate) fn taken_over_pins(&self) -> u64 {
        self.parked.values().map(|&count| count as u64).sum()
    }

    /// Where an acquire of `key` goes now.
    pub(crate) fn route(&self, key: u64) -> Route {
        self.route_home(self.home(key))
    }

    /// Where an acquire of a key homed on `home` goes now: `home` itself
    /// while it is up, its successor-rule taker (tagged with `home`)
    /// while it is down and failover is on, else nowhere.
    pub(crate) fn route_home(&self, home: usize) -> Route {
        if !self.down[home] {
            return Route::Member {
                member: home,
                mode: AcquireMode::Native,
            };
        }
        match successor_taker(home, self.down.len(), &self.down) {
            Some(taker) if self.failover => Route::Member {
                member: taker,
                mode: AcquireMode::Takeover {
                    dead_member: home as u32,
                    origin_epoch: self.epoch,
                },
            },
            _ => Route::Down(home),
        }
    }

    /// Declares member `m` dead, given the `(key, count)` pins the
    /// session held there, and bumps the epoch. Pins parked on `m` died
    /// with it, so their entries start over. With failover on, returns
    /// `held` as home → keys (one entry per pin, in key order), each
    /// batch to be re-acquired along [`route_home`](Self::route_home);
    /// with failover off, nothing (the pins wait for the member's
    /// revival). A member already down is left as it is.
    pub(crate) fn mark_down(
        &mut self,
        m: usize,
        held: impl IntoIterator<Item = (u64, u32)>,
    ) -> BTreeMap<usize, Vec<u64>> {
        let mut by_home: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        if self.down[m] {
            return by_home;
        }
        self.down[m] = true;
        self.epoch += 1;
        self.parked.retain(|&(_, taker), _| taker != m);
        if self.failover {
            let mut held: Vec<(u64, u32)> = held.into_iter().collect();
            held.sort_unstable();
            for (key, count) in held {
                let keys = by_home.entry(self.home(key)).or_default();
                keys.extend(std::iter::repeat_n(key, count as usize));
            }
        }
        by_home
    }

    /// Member `member` granted one pin on `key`. A grant away from the
    /// key's home parks the pin there.
    pub(crate) fn granted(&mut self, key: u64, member: usize) {
        if self.home(key) != member {
            *self.parked.entry((key, member)).or_insert(0) += 1;
        }
    }

    /// Where one release of `key` goes: a taker a pin is parked on, else
    /// the home, or nowhere when the home is down.
    pub(crate) fn release_target(&mut self, key: u64) -> Release {
        let mut on_takers = self.parked.range_mut((key, 0)..=(key, usize::MAX));
        if let Some((&(_, taker), count)) = on_takers.next() {
            *count -= 1;
            if *count == 0 {
                self.parked.remove(&(key, taker));
            }
            return Release::Send(taker);
        }
        let home = self.home(key);
        if self.down[home] {
            Release::Forget(home)
        } else {
            Release::Send(home)
        }
    }

    /// Re-adopts member `m` and bumps the epoch. With failover on,
    /// returns the pins of `m`'s intervals parked on takers, as taker →
    /// `(key, count)` in key order. The driver re-acquires each key at
    /// `m` first, so the residency veto never lapses, then reports it
    /// through [`handed_back`](Self::handed_back); a key it does not
    /// report stays parked.
    pub(crate) fn revive(&mut self, m: usize) -> BTreeMap<usize, Vec<(u64, u32)>> {
        let mut by_taker: BTreeMap<usize, Vec<(u64, u32)>> = BTreeMap::new();
        if !self.down[m] {
            return by_taker;
        }
        self.down[m] = false;
        self.epoch += 1;
        if self.failover {
            for (&(key, taker), &count) in &self.parked {
                if self.home(key) == m {
                    by_taker.entry(taker).or_default().push((key, count));
                }
            }
        }
        by_taker
    }

    /// Every pin `key` had parked on `taker` was handed back to its
    /// home.
    pub(crate) fn handed_back(&mut self, key: u64, taker: usize) {
        self.parked.remove(&(key, taker));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Three members, Δr = 4: member k owns intervals ≡ k mod 3 (keys
    /// 1-4 → 0, 5-8 → 1, 9-12 → 2, ...).
    fn three() -> ClusterRoute {
        let mut route = ClusterRoute::new(StepMath::new(1, 4, 64), 3);
        route.set_failover(true);
        route
    }

    fn steps() -> StepMath {
        StepMath::new(1, 4, 64)
    }

    /// Routes `key`, checks the tag against the member's ownership rule,
    /// and records the grant.
    fn acquire(route: &mut ClusterRoute, key: u64) -> usize {
        let Route::Member { member, mode } = route.route(key) else {
            panic!("key {key} has no route");
        };
        let me = ClusterMember::new(member as u32, 3);
        assert_eq!(ownership_error(&steps(), me, key, mode), None);
        route.granted(key, member);
        member
    }

    #[test]
    fn successor_rule_walks_the_ring_past_down_members() {
        // 3-member ring, only member 1 down: its taker is member 2.
        assert_eq!(successor_taker(1, 3, &[false, true, false]), Some(2));
        // Member 2 down: wraps to member 0.
        assert_eq!(successor_taker(2, 3, &[false, false, true]), Some(0));
        // Members 1 and 2 both down: 1's taker skips 2, lands on 0.
        assert_eq!(successor_taker(1, 3, &[false, true, true]), Some(0));
        // Everyone else down: no taker.
        assert_eq!(successor_taker(0, 3, &[true, true, true]), None);
        // Single-member "cluster": nobody to take over.
        assert_eq!(successor_taker(0, 1, &[true]), None);
    }

    #[test]
    fn chained_takeover_rehomes_under_the_home_tag_and_drains() {
        let mut route = three();
        assert_eq!(acquire(&mut route, 6), 1);
        // Member 1 dies holding 6: it re-homes onto taker 2, and 7
        // follows it there.
        let batches = route.mark_down(1, [(6, 1)]);
        assert_eq!(batches, BTreeMap::from([(1, vec![6])]));
        assert_eq!(acquire(&mut route, 6), 2);
        assert_eq!(acquire(&mut route, 7), 2);
        assert_eq!(route.taken_over_pins(), 2);
        // Taker 2 dies too: its parked entries start over, and the pins
        // re-home onto 0 tagged with their home, member 1, not with 2.
        let batches = route.mark_down(2, [(6, 1), (7, 1)]);
        assert_eq!(
            route.taken_over_pins(),
            0,
            "the dead taker's pins died with it"
        );
        assert_eq!(batches, BTreeMap::from([(1, vec![6, 7])]));
        for (&home, keys) in &batches {
            assert!(keys.iter().all(|&key| route.home(key) == home));
            assert_eq!(
                route.route_home(home),
                Route::Member {
                    member: 0,
                    mode: AcquireMode::Takeover {
                        dead_member: 1,
                        origin_epoch: 2
                    },
                }
            );
            for &key in keys {
                assert_eq!(acquire(&mut route, key), 0);
            }
        }
        assert_eq!(acquire(&mut route, 8), 0);
        assert_eq!(acquire(&mut route, 10), 0);
        assert_eq!(route.taken_over_pins(), 4, "one count per pin, no doubling");
        for key in [6, 7, 8, 10] {
            assert_eq!(route.release_target(key), Release::Send(0));
        }
        assert_eq!(route.taken_over_pins(), 0);
        assert!(route.parked.is_empty());
    }

    #[test]
    fn revival_hands_back_only_the_homes_pins() {
        let mut route = three();
        route.mark_down(2, []);
        assert_eq!(acquire(&mut route, 10), 0);
        route.mark_down(1, []);
        assert_eq!(acquire(&mut route, 6), 0);
        assert_eq!(acquire(&mut route, 6), 0);
        assert_eq!(route.epoch(), 2);
        let plan = route.revive(1);
        assert_eq!(route.epoch(), 3);
        assert_eq!(plan, BTreeMap::from([(0, vec![(6, 2)])]));
        route.handed_back(6, 0);
        assert_eq!(route.taken_over_pins(), 1, "10's home is still down");
        assert_eq!(
            route.route(6),
            Route::Member {
                member: 1,
                mode: AcquireMode::Native
            }
        );
        assert_eq!(route.release_target(6), Release::Send(1));
        assert_eq!(route.release_target(10), Release::Send(0));
        assert_eq!(route.release_target(11), Release::Forget(2));
    }

    #[test]
    fn without_failover_a_down_home_has_no_route() {
        let mut route = three();
        route.set_failover(false);
        assert!(route.mark_down(1, [(6, 1)]).is_empty());
        assert_eq!(route.route(6), Route::Down(1));
        assert_eq!(route.release_target(6), Release::Forget(1));
        assert!(route.revive(1).is_empty());
        assert_eq!(
            route.route(6),
            Route::Member {
                member: 1,
                mode: AcquireMode::Native
            }
        );
        // With failover, routing stops only when every member is down.
        let mut route = three();
        for m in 0..3 {
            route.mark_down(m, []);
        }
        assert_eq!(route.route(6), Route::Down(1));
    }

    /// One step of a random session against a [`ClusterRoute`].
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Acquire(u64),
        /// Release the `n`-th currently held pin (modulo the count).
        Release(usize),
        MarkDown(usize),
        /// Revive a member; hand-back re-acquires at home succeed when
        /// the flag is set.
        Revive(usize, bool),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..4, 1u64..=24, 0usize..64, any::<bool>()).prop_map(|(tag, key, n, ok)| match tag {
            0 => Op::Acquire(key),
            1 => Op::Release(n),
            2 => Op::MarkDown(n % 3),
            _ => Op::Revive(n % 3, ok),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random down/grant/release/revive/hand-back sequences conserve
        /// the parked counts: parked = granted − released − handed back
        /// − dropped with a dead taker, and every parked pin is a
        /// foreign pin some live member holds. No route ever names a
        /// down member, and every re-home batch is tagged with its keys'
        /// home.
        #[test]
        fn parked_pins_are_conserved(
            failover in any::<bool>(),
            ops in proptest::collection::vec(op(), 1..80),
        ) {
            let mut route = ClusterRoute::new(steps(), 3);
            route.set_failover(failover);
            // The driver's view: member → key → pins it holds there.
            let mut held: Vec<HashMap<u64, u32>> = vec![HashMap::new(); 3];
            let (mut granted, mut released, mut handed, mut dropped) = (0u64, 0u64, 0u64, 0u64);
            let grant = |route: &mut ClusterRoute, held: &mut [HashMap<u64, u32>], key: u64| {
                match route.route(key) {
                    Route::Member { member, mode } => {
                        prop_assert!(!route.is_down(member));
                        let me = ClusterMember::new(member as u32, 3);
                        prop_assert_eq!(ownership_error(&steps(), me, key, mode), None);
                        route.granted(key, member);
                        *held[member].entry(key).or_insert(0) += 1;
                        Ok(u64::from(route.home(key) != member))
                    }
                    Route::Down(home) => {
                        prop_assert!(route.is_down(home));
                        Ok(0)
                    }
                }
            };
            for op in ops {
                match op {
                    Op::Acquire(key) => granted += grant(&mut route, &mut held, key)?,
                    Op::Release(n) => {
                        let mut keys: Vec<u64> =
                            held.iter().flat_map(|h| h.keys().copied()).collect();
                        if keys.is_empty() {
                            continue;
                        }
                        keys.sort_unstable();
                        let key = keys[n % keys.len()];
                        let (member, foreign) = match route.release_target(key) {
                            Release::Send(m) => {
                                prop_assert!(!route.is_down(m));
                                prop_assert!(held[m].get(&key).is_some_and(|&c| c > 0),
                                    "release of {} routed to {} which holds no pin", key, m);
                                (m, route.home(key) != m)
                            }
                            Release::Forget(m) => {
                                prop_assert!(route.is_down(m));
                                (m, false)
                            }
                        };
                        if let Some(c) = held[member].get_mut(&key) {
                            *c -= 1;
                            if *c == 0 {
                                held[member].remove(&key);
                            }
                        }
                        released += u64::from(foreign);
                    }
                    Op::MarkDown(m) => {
                        if route.is_down(m) {
                            continue;
                        }
                        // A failover driver re-homes what it held there;
                        // without failover the pins wait for revival.
                        let taken =
                            if failover { std::mem::take(&mut held[m]) } else { HashMap::new() };
                        dropped += taken
                            .iter()
                            .filter(|&(&k, _)| route.home(k) != m)
                            .map(|(_, &c)| c as u64)
                            .sum::<u64>();
                        for (home, keys) in route.mark_down(m, taken) {
                            for key in keys {
                                prop_assert_eq!(route.home(key), home);
                                granted += grant(&mut route, &mut held, key)?;
                            }
                        }
                    }
                    Op::Revive(m, home_ok) => {
                        for (taker, pins) in route.revive(m) {
                            prop_assert!(!route.is_down(taker));
                            if !home_ok {
                                continue;
                            }
                            for (key, count) in pins {
                                prop_assert_eq!(route.home(key), m);
                                prop_assert_eq!(held[taker].remove(&key), Some(count));
                                *held[m].entry(key).or_insert(0) += count;
                                route.handed_back(key, taker);
                                handed += count as u64;
                            }
                        }
                    }
                }
                prop_assert_eq!(route.taken_over_pins(), granted - released - handed - dropped);
                let route = &route;
                let foreign_live: u64 = (0..3)
                    .filter(|&m| !route.is_down(m))
                    .flat_map(|m| held[m].iter().filter(move |(&k, _)| route.home(k) != m))
                    .map(|(_, &c)| c as u64)
                    .sum();
                prop_assert_eq!(route.taken_over_pins(), foreign_live);
            }
        }
    }
}
