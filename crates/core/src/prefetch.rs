//! Prefetch agents (§IV-B) and the lossy access-stream digest that
//! feeds them: one agent per analysis client, observation decoupled
//! from the acquire path.
//!
//! # The agent algorithm (§IV-B)
//!
//! The agent watches the client's access stream, detects forward or
//! backward k-strided trajectories "after two k-stride consecutive
//! accesses", and plans re-simulations that (1) mask the restart latency
//! `alpha_sim` and (2) match the analysis bandwidth. The three inputs
//! are exponential moving averages: `alpha_sim` (restart latency) and
//! `tau_sim` (inter-production gap) maintained by the DV from simulator
//! notifications, and `tau_cli` — the client's *consumption* time per
//! step, sampled from ready-to-next-acquire gaps so a blocked analysis
//! does not look as slow as the simulation that blocks it (see "Where
//! `tau_cli`'s ready point comes from" below).
//!
//! * **Re-simulation length** (§IV-B1a): enough accesses must fit into
//!   one block to cover the next restart latency, reserving two accesses
//!   to confirm the pattern —
//!   `n = ⌈alpha / max(k·tau_sim, tau_cli) + 2⌉ · k`, rounded up to a
//!   restart-interval multiple.
//! * **Prefetch trigger** (§IV-B1a): a new batch is launched at the last
//!   access that still masks the restart latency — when the remaining
//!   planned coverage drops to `⌈alpha / max(k·tau_sim, tau_cli)⌉ · k`
//!   steps.
//! * **Bandwidth matching** (§IV-B1b): if the analysis outpaces the
//!   simulation, first escalate the parallelism level; once escalation
//!   is exhausted, run `s_opt = ⌈k·tau_sim / tau_cli⌉` simulations in
//!   parallel, ramping `s` up by doubling (1, 2, 4, …) while the pattern
//!   persists, capped by `s_max`.
//! * **Backward trajectories** (§IV-B2): simulations still run forward,
//!   so blocks are whole restart intervals planned below the analysis
//!   frontier; when the analysis is slower,
//!   `n = k·alpha / (tau_cli − k·tau_sim)` (rounded up to a restart
//!   interval) with one simulation suffices, otherwise
//!   `s = k·alpha/(n·tau_cli) + k·tau_sim/tau_cli` parallel interval
//!   simulations are planned.
//!
//! The agent only *plans*; the Data Virtualizer filters blocks against
//! cache/pending state, enforces `s_max`, and emits launches.
//!
//! # Restart-aligned blocks
//!
//! A re-simulation loads the restart at or below its first key and
//! computes forward, publishing only its own range: a block that starts
//! inside an interval computes the steps before its start for nothing,
//! and a block that stops inside one leaves a partial interval that a
//! later launch must restart for again. So every forward block *ends* on
//! an interval end `j·B` (or `N`) and every backward block *starts* on
//! an interval start `j·B + 1` (or 1) — whatever frontier planning
//! starts from: a miss's coverage edge (already a boundary), the
//! confirming access itself (`frontier.get_or_insert(key)`), or the
//! undirected first miss, which records its interval end as a forward
//! frontier even when the scan then turns out to run backward. Blocks
//! are stretched to the boundary, never cut, so `n` stays a lower bound
//! on the masking length; and because each block's far edge becomes the
//! next frontier, every block after the first starts on a boundary too.
//!
//! # Where `tau_cli`'s ready point comes from
//!
//! A consumption gap runs from the moment the client's previous request
//! was *ready* to its next acquire. The agents learn gaps only from
//! replayed digest records:
//!
//! * A record served at once is its own ready point.
//! * After a record that blocked, the gap starts at the waiter's ready
//!   stamp, which `on_file_produced` leaves when the awaited production
//!   lands. The daemon and the virtual harness record epochs on the
//!   clock their DV runs on, so the two compare.
//! * Digests a clustered DVLib session forwards carry *client* clock
//!   epochs that must never meet a daemon stamp: there the gap after a
//!   blocked record is not sampled, and only gaps from ready records
//!   feed `tau_cli`.
//!
//! # The pollution-kill rule (§IV-C)
//!
//! Two safety valves keep speculation from hurting the cache:
//!
//! * **Direction change kills.** When a client's stride changes, its
//!   outstanding prefetch simulations are killed — but "a simulation can
//!   be killed only if there are no other analyses waiting for the files
//!   that are going to be produced by it".
//! * **Pollution resets.** A *miss* on a key this client's own agent
//!   prefetched, with nobody currently producing it, means the step was
//!   produced and then evicted before it was consumed: prefetching is
//!   running ahead of the cache budget. Every agent is reset (pattern,
//!   ramp, prefetched-set; the `tau_cli` estimate survives — client
//!   speed is not invalidated by cache pollution).
//!
//! # The access-stream digest: observation decoupled from acquisition
//!
//! Observing the stream *inside* the acquire path would make every hit
//! take the DV lock so `on_access` could run — no lock-free
//! [`simcache::HitIndex`] fast path for a prefetching context — and
//! clustering would split the stream each member's agents see across
//! daemons.
//!
//! [`AccessLog`] keeps the two apart. Observation is a *record*,
//! not a lock acquisition: each daemon connection appends
//! [`AccessRecord`]s — `(client, key, epoch)` — to a bounded
//! per-connection ring as it serves fast-path hits and slow-path
//! acquires, and a drain step replays the ring into the prefetch agents
//! under the DV lock later (piggybacked on the next slow-path
//! transition, or on a periodic reactor tick when the stream is pure
//! hits). Clustered DVLib sessions forward the same digest over the
//! wire (`AccessDigest`) so every member's agents observe the full
//! pre-routing sequence and direction/cadence detection survives
//! clustering. The virtual harness ([`crate::vharness`]) records the
//! same records and drains each right after the acquire that made it —
//! the lossless limit of the piggybacked drain.
//!
//! The contract, precisely:
//!
//! * **Never blocks the hot path.** The ring is owned by one reactor
//!   thread; `push` is a bounded array write. When the ring is full the
//!   *oldest* record is overwritten and counted in
//!   [`AccessLog::dropped`] — the freshest trajectory is what pattern
//!   detection needs.
//! * **Lossy, but order-preserving.** Records replay in observation
//!   order; drops remove a *prefix* of the un-drained window. Loss can
//!   delay pattern confirmation or skip a trigger (degraded prefetch
//!   quality, visible in the drop counters) but never reorders the
//!   stream, so it cannot fabricate a direction change or corrupt agent
//!   state.
//! * **Observation lags acquisition by a bounded window.** An agent may
//!   learn about an access up to one drain interval after the DV served
//!   it. Plans are still filtered against cache/pending state at drain
//!   time, so the lag costs at most prefetch lead, never correctness.
//! * **Epochs are per-recorder-clock.** Only the differences between
//!   one client's consecutive epochs are used (as `tau_cli` consumption
//!   samples), plus — for records the daemon made on its own clock — the
//!   difference from a blocked client's ready stamp; digests forwarded
//!   from DVLib carry client-side clocks and are never compared with a
//!   daemon stamp.

use crate::model::StepMath;
use crate::perfmodel::Ema;
use simcache::{u64_set, U64Set};
use simkit::Dur;
use std::ops::RangeInclusive;

/// Default [`AccessLog`] capacity: deep enough that a drain every few
/// hundred requests (the per-wake dispatch cap, or one reactor tick)
/// loses nothing, small enough to be per-connection state.
pub const ACCESS_LOG_CAPACITY: usize = 1024;

/// Adaptive digest drain: once this many records (¾ of
/// [`ACCESS_LOG_CAPACITY`]) wait, the recorder asks for a drain now
/// instead of waiting for the 20 ms reactor tick — a saturated single
/// client would otherwise overflow between ticks and drop its freshest
/// records. The daemon applies it to a connection's log; a mapped
/// session to its shared ring, with a nudge frame.
pub const DIGEST_HIGH_WATER: usize = ACCESS_LOG_CAPACITY - ACCESS_LOG_CAPACITY / 4;

/// One observed acquire, recorded off the acquire path: who accessed
/// which key, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// The accessing client.
    pub client: u64,
    /// The accessed output-step key.
    pub key: u64,
    /// Monotonic observation timestamp in nanoseconds. Clock domain is
    /// the *recorder's* (daemon or forwarding client); only differences
    /// between one client's consecutive records carry meaning — they
    /// become `tau_cli` consumption samples on replay.
    pub epoch: u64,
    /// `epoch` is a *ready point*: the request was served immediately,
    /// so the gap from this record to the client's next access is pure
    /// consumption time. False for accesses that blocked on production
    /// (their acquire-time epoch is *earlier* than the data's ready
    /// time) — replay must not measure the following gap from this
    /// epoch, or every miss would inflate the estimate by the full
    /// production wait and mis-size the §IV-B prefetch blocks. It starts
    /// that gap at the waiter's ready stamp instead, or skips it when
    /// the epochs come from another clock (see the module docs).
    pub ready: bool,
}

/// Bounded, lossy, order-preserving access log: the decoupling buffer
/// between the lock-free acquire path and the prefetch agents (see the
/// module docs for the full contract).
///
/// Single-owner by design — the daemon keeps one per connection on its
/// reactor thread, DVLib one per cluster member — so `push` needs no
/// synchronization. Overflow overwrites the oldest record and counts it;
/// [`drain_into`](Self::drain_into) hands the window to the replayer
/// together with the drop count accumulated since the previous drain.
#[derive(Clone, Debug)]
pub struct AccessLog {
    buf: Vec<AccessRecord>,
    capacity: usize,
    /// Index of the oldest record.
    head: usize,
    len: usize,
    /// Records lost since the last drain (ring overflows plus any
    /// wire-reported upstream drops folded in via
    /// [`note_dropped`](Self::note_dropped)).
    dropped: u64,
}

impl AccessLog {
    /// A log holding at most `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> AccessLog {
        AccessLog {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Records one access. Never blocks and never allocates once the
    /// ring has grown to capacity: a full ring overwrites its oldest
    /// record and counts the loss.
    pub fn push(&mut self, record: AccessRecord) {
        if self.len == self.capacity {
            // Full: the oldest record gives way. The survivors are the
            // freshest suffix of the stream — exactly what trajectory
            // detection wants to see after a gap.
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
            return;
        }
        let tail = (self.head + self.len) % self.capacity;
        if tail == self.buf.len() {
            self.buf.push(record);
        } else {
            self.buf[tail] = record;
        }
        self.len += 1;
    }

    /// Records buffered and not yet drained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records lost since the last drain.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Folds in drops that happened upstream (a forwarded wire digest
    /// reporting its own sender-side losses).
    pub fn note_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Moves the buffered window into `out` (appended in observation
    /// order) and returns the loss count accumulated since the previous
    /// drain, resetting both.
    pub fn drain_into(&mut self, out: &mut Vec<AccessRecord>) -> u64 {
        out.reserve(self.len);
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % self.capacity]);
        }
        self.head = 0;
        self.len = 0;
        std::mem::take(&mut self.dropped)
    }
}

/// Detected access trajectory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Increasing keys.
    Forward,
    /// Decreasing keys.
    Backward,
}

/// Inputs the agent needs from the DV's estimators at decision time.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchInputs {
    /// Current restart-latency estimate `alpha_sim`.
    pub alpha: Dur,
    /// Current inter-production estimate `tau_sim`.
    pub tau_sim: Dur,
    /// Cadence/timeline math of the context.
    pub steps: StepMath,
    /// Upper bound on simultaneous simulations (`s_max`).
    pub smax: u32,
    /// Use the conservative doubling ramp instead of launching `s_opt`
    /// simulations directly (§IV-B1b).
    pub ramp: bool,
}

/// A planned prefetch: contiguous key blocks to simulate, at a
/// parallelism level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefetchPlan {
    /// Key ranges to simulate, one simulation per block.
    pub blocks: Vec<RangeInclusive<u64>>,
    /// Parallelism level for these launches (§IV-B1b strategy 1).
    pub level: u32,
}

/// What the DV must do after feeding an access to the agent.
#[derive(Clone, Debug, Default)]
pub struct AgentOutcome {
    /// The client changed direction/stride: kill its outstanding
    /// prefetches (§IV-C).
    pub direction_changed: bool,
    /// Launch these prefetch blocks (already deduplicated against the
    /// agent's own planning, not against the cache).
    pub plan: Option<PrefetchPlan>,
}

/// Per-client prefetch agent state.
#[derive(Clone, Debug)]
pub struct PrefetchAgent {
    /// Client consumption time per access, *excluding* DV-induced
    /// blocking: the DV samples ready-to-next-acquire gaps and feeds
    /// them via [`observe_tau_cli`](Self::observe_tau_cli). Measuring
    /// raw inter-access times instead would make a blocked analysis
    /// look exactly as slow as the simulation and defeat bandwidth
    /// matching (`s_opt` would always be 1).
    tau_cli: Ema,
    last_key: Option<u64>,
    last_stride: Option<i64>,
    /// Confirmed pattern: the stride (sign = direction, |s| = k).
    pattern: Option<i64>,
    /// Doubling ramp state `s` (§IV-B1b strategy 2).
    ramp: u32,
    /// Parallelism escalation level (§IV-B1b strategy 1).
    level: u32,
    /// Exclusive frontier of planned production: highest planned key
    /// (forward) or lowest (backward).
    frontier: Option<u64>,
    /// Keys this agent asked to prefetch (pollution detection, §IV-C).
    prefetched: U64Set,
}

impl PrefetchAgent {
    /// A fresh agent; `ema_alpha` smooths its `tau_cli` estimate.
    pub fn new(ema_alpha: f64) -> PrefetchAgent {
        PrefetchAgent {
            tau_cli: Ema::new(ema_alpha),
            last_key: None,
            last_stride: None,
            pattern: None,
            ramp: 1,
            level: 0,
            frontier: None,
            prefetched: u64_set(),
        }
    }

    /// The confirmed direction, if any.
    pub fn direction(&self) -> Option<Direction> {
        self.pattern.map(|s| {
            if s > 0 {
                Direction::Forward
            } else {
                Direction::Backward
            }
        })
    }

    /// The confirmed stride magnitude `k`, if a pattern is confirmed.
    pub fn stride_k(&self) -> Option<u64> {
        self.pattern.map(|s| s.unsigned_abs())
    }

    /// Current client consumption-time estimate.
    pub fn tau_cli(&self) -> Option<Dur> {
        self.tau_cli.estimate()
    }

    /// Feeds one consumption-time sample (`ready -> next acquire`),
    /// measured by the DV.
    pub fn observe_tau_cli(&mut self, sample: Dur) {
        self.tau_cli.observe(sample);
    }

    /// Current parallelism-escalation level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Did this agent prefetch `key` at some point? (Pollution check:
    /// a miss on such a key means it was produced and evicted before
    /// being consumed.)
    pub fn was_prefetched(&self, key: u64) -> bool {
        self.prefetched.contains(&key)
    }

    /// Resets pattern state and ramp (pollution signal resets *all*
    /// agents, §IV-C). The `tau_cli` estimate survives: client speed is
    /// not invalidated by cache pollution.
    pub fn reset(&mut self) {
        self.last_stride = None;
        self.pattern = None;
        self.ramp = 1;
        self.frontier = None;
        self.prefetched.clear();
    }

    /// Tells the agent that production up to `frontier` (inclusive) has
    /// been planned on this client's behalf (miss launches included).
    pub fn note_planned(&mut self, dir: Direction, frontier_key: u64) {
        self.frontier = Some(match (self.frontier, dir) {
            (None, _) => frontier_key,
            (Some(f), Direction::Forward) => f.max(frontier_key),
            (Some(f), Direction::Backward) => f.min(frontier_key),
        });
    }

    /// Marks keys as prefetched on behalf of this client.
    pub fn note_prefetched(&mut self, keys: impl IntoIterator<Item = u64>) {
        self.prefetched.extend(keys);
    }

    /// Feeds one access; returns what the DV should do.
    pub fn on_access(&mut self, key: u64, inputs: &PrefetchInputs) -> AgentOutcome {
        let mut outcome = AgentOutcome::default();

        let stride = self
            .last_key
            .map(|prev| key as i64 - prev as i64);
        self.last_key = Some(key);

        let Some(stride) = stride else {
            return outcome;
        };
        if stride == 0 {
            // Re-access of the same step: no trajectory information.
            return outcome;
        }

        match self.pattern {
            Some(p) if p == stride => {
                // Pattern continues.
            }
            Some(_) => {
                // Direction or stride changed: the paper kills the
                // prefetched simulations and the agent resets (§IV-C).
                outcome.direction_changed = true;
                self.pattern = None;
                self.ramp = 1;
                self.frontier = None;
                self.prefetched.clear();
                self.last_stride = Some(stride);
                return outcome;
            }
            None => {
                if self.last_stride == Some(stride) {
                    // Two consecutive identical strides: confirmed.
                    self.pattern = Some(stride);
                    self.frontier.get_or_insert(key);
                } else {
                    self.last_stride = Some(stride);
                    return outcome;
                }
            }
        }
        self.last_stride = Some(stride);

        outcome.plan = self.plan_prefetch(key, stride, inputs);
        outcome
    }

    /// Plans the next batch of prefetch blocks if the trigger condition
    /// holds.
    fn plan_prefetch(
        &mut self,
        key: u64,
        stride: i64,
        inputs: &PrefetchInputs,
    ) -> Option<PrefetchPlan> {
        let k = stride.unsigned_abs().max(1);
        let steps = inputs.steps;
        let b = steps.outputs_per_interval();
        let n_outputs = steps.n_outputs();
        let forward = stride > 0;

        let tau_cli = self.tau_cli.estimate()?;
        let alpha = inputs.alpha;
        let tau_sim = inputs.tau_sim;

        // Effective per-access service time: limited by the simulation
        // or by the analysis itself (§IV-B1a).
        let k_tau_sim = tau_sim.saturating_mul(k);
        let denom = k_tau_sim.max(tau_cli);
        let lead_accesses = if denom.is_zero() {
            1
        } else {
            div_ceil_dur(alpha, denom)
        };

        // Trigger: remaining planned coverage within the masking window?
        let frontier = self.frontier.unwrap_or(key);
        let remaining = if forward {
            frontier.saturating_sub(key)
        } else {
            key.saturating_sub(frontier)
        };
        if remaining > lead_accesses.saturating_mul(k) {
            return None;
        }

        // Strategy 1 (§IV-B1b): escalate parallelism while the analysis
        // outpaces the simulation and the simulator allows it.
        let analysis_faster = tau_cli < k_tau_sim;
        if analysis_faster && inputs.steps.n_outputs() > 0 {
            // Escalation is bounded by the driver's max level; the DV
            // maps level -> nodes. We escalate one level per trigger.
            if self.level < 8 {
                self.level += 1;
            }
        }

        // Block length n (§IV-B1a / §IV-B2), rounded up to a restart
        // interval multiple.
        let n = if forward {
            round_up_multiple((lead_accesses + 2).saturating_mul(k), b)
        } else if tau_cli > k_tau_sim {
            // Analysis slower than simulation: one sim of length
            // n = k·alpha / (tau_cli − k·tau_sim) masks everything.
            let gap = tau_cli - k_tau_sim;
            let n_raw = (alpha.as_secs_f64() * k as f64 / gap.as_secs_f64()).ceil() as u64;
            round_up_multiple(n_raw.max(1), b)
        } else {
            // Analysis faster: one restart interval per simulation;
            // parallelism comes from s below.
            b
        };

        // Strategy 2: number of parallel simulations.
        let s_opt = if forward {
            div_ceil_dur(k_tau_sim, tau_cli).max(1)
        } else {
            // s = k·alpha/(n·tau_cli) + k·tau_sim/tau_cli  (§IV-B2)
            let tc = tau_cli.as_secs_f64().max(1e-12);
            let s = (k as f64 * alpha.as_secs_f64()) / (n as f64 * tc)
                + k_tau_sim.as_secs_f64() / tc;
            s.ceil() as u64
        }
        .max(1) as u32;

        let s = if inputs.ramp {
            // Conservative mode: "start with s = 1 and double it at each
            // prefetching step" (§IV-B1b).
            let s = self.ramp.min(s_opt).min(inputs.smax).max(1);
            if self.ramp < inputs.smax.min(s_opt.max(1)) {
                self.ramp = (self.ramp * 2).min(inputs.smax);
            }
            s
        } else {
            // Default: match the analysis bandwidth immediately.
            s_opt.min(inputs.smax).max(1)
        };

        // Lay out `s` blocks of `n` steps beyond the frontier, each
        // stretched to the restart boundary on its far side (see
        // "Restart-aligned blocks" in the module docs).
        let mut blocks = Vec::with_capacity(s as usize);
        let mut edge = frontier;
        for _ in 0..s {
            if forward {
                let start = edge + 1;
                if start > n_outputs {
                    break;
                }
                let stop = round_up_multiple(edge + n, b).min(n_outputs);
                blocks.push(start..=stop);
                edge = stop;
            } else {
                if edge <= 1 {
                    break;
                }
                let stop = edge - 1;
                let start = (edge.saturating_sub(n).max(1) - 1) / b * b + 1;
                blocks.push(start..=stop);
                edge = start;
            }
        }
        if blocks.is_empty() {
            return None;
        }
        self.frontier = Some(edge);
        for block in &blocks {
            self.prefetched.extend(block.clone());
        }
        Some(PrefetchPlan {
            blocks,
            level: self.level,
        })
    }
}

/// `⌈a / b⌉` over durations, as a count.
fn div_ceil_dur(a: Dur, b: Dur) -> u64 {
    if b.is_zero() {
        return 1;
    }
    a.as_nanos().div_ceil(b.as_nanos())
}

/// Smallest multiple of `m` that is `>= x` (and at least `m`).
fn round_up_multiple(x: u64, m: u64) -> u64 {
    let m = m.max(1);
    x.max(1).div_ceil(m) * m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(alpha_s: u64, tau_sim_s: u64) -> PrefetchInputs {
        PrefetchInputs {
            alpha: Dur::from_secs(alpha_s),
            tau_sim: Dur::from_secs(tau_sim_s),
            steps: StepMath::new(1, 4, 1000), // B = 4, N = 1000
            smax: 8,
            ramp: false,
        }
    }

    /// Feeds accesses with a fixed consumption-time sample per access.
    fn feed(
        agent: &mut PrefetchAgent,
        tau_cli_s: f64,
        keys: &[u64],
        inp: &PrefetchInputs,
    ) -> Vec<AgentOutcome> {
        keys.iter()
            .map(|&k| {
                agent.observe_tau_cli(Dur::from_secs_f64(tau_cli_s));
                agent.on_access(k, inp)
            })
            .collect()
    }

    #[test]
    fn pattern_confirmed_after_two_strides() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(2, 1);
        feed(&mut a, 1.0, &[10, 11], &inp);
        assert!(a.direction().is_none(), "one stride is not a pattern");
        feed(&mut a, 1.0, &[12], &inp);
        assert_eq!(a.direction(), Some(Direction::Forward));
        assert_eq!(a.stride_k(), Some(1));
    }

    #[test]
    fn backward_pattern_detected() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(2, 1);
        feed(&mut a, 1.0, &[50, 48, 46], &inp);
        assert_eq!(a.direction(), Some(Direction::Backward));
        assert_eq!(a.stride_k(), Some(2));
    }

    #[test]
    fn direction_change_reports_kill() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(2, 1);
        feed(&mut a, 1.0, &[10, 11, 12], &inp);
        let out = feed(&mut a, 1.0, &[9], &inp);
        assert!(out[0].direction_changed);
        assert!(a.direction().is_none());
        // Needs two consecutive equal strides to re-confirm: the jump
        // stride (12 -> 9) differs from the scan stride (-1), so two
        // more accesses are required.
        let out = feed(&mut a, 1.0, &[8], &inp);
        assert!(!out[0].direction_changed);
        assert!(a.direction().is_none());
        feed(&mut a, 1.0, &[7], &inp);
        assert_eq!(a.direction(), Some(Direction::Backward));
    }

    #[test]
    fn repeat_access_is_not_direction_change() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(2, 1);
        feed(&mut a, 1.0, &[10, 11, 12], &inp);
        let out = feed(&mut a, 1.0, &[12], &inp);
        assert!(!out[0].direction_changed);
        assert_eq!(a.direction(), Some(Direction::Forward));
    }

    #[test]
    fn forward_plan_masks_restart_latency() {
        // alpha = 4 s, tau_sim = 1 s, tau_cli = 1 s (analysis reads as
        // fast as production): lead = ceil(4/1) = 4, n = (4+2)*1 ->
        // rounded to B=4 multiple -> 8.
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(4, 1);
        a.note_planned(Direction::Forward, 12); // miss sim covered ..=12
        let outs = feed(&mut a, 1.0, &[9, 10, 11], &inp);
        // At key 11: remaining = 12 - 11 = 1 <= 4 -> trigger.
        let plan = outs[2].plan.as_ref().expect("plan at the trigger");
        assert_eq!(plan.blocks[0], 13..=20, "n = 8 beyond frontier 12");
    }

    #[test]
    fn no_plan_while_coverage_sufficient() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(2, 1);
        a.note_planned(Direction::Forward, 100);
        let outs = feed(&mut a, 1.0, &[10, 11, 12, 13], &inp);
        assert!(
            outs.iter().all(|o| o.plan.is_none()),
            "frontier 100 is far beyond the masking window"
        );
    }

    #[test]
    fn ramp_doubles_across_triggers() {
        // Analysis 4x faster than the simulation: s_opt = 4.
        let mut a = PrefetchAgent::new(1.0);
        let inp = PrefetchInputs {
            alpha: Dur::from_secs(4),
            tau_sim: Dur::from_secs(4),
            steps: StepMath::new(1, 4, 100_000),
            smax: 8,
            ramp: true,
        };
        let mut sizes = Vec::new();
        a.note_planned(Direction::Forward, 4);
        for key in 1..=2000 {
            let out = feed(&mut a, 1.0, &[key], &inp);
            if let Some(plan) = &out[0].plan {
                sizes.push(plan.blocks.len());
            }
            if sizes.len() >= 3 {
                break;
            }
        }
        assert!(sizes.len() >= 3, "expected several triggers: {sizes:?}");
        assert_eq!(sizes[0], 1, "ramp starts at 1");
        assert!(sizes[1] >= 2, "ramp doubled: {sizes:?}");
        assert!(sizes[2] >= sizes[1], "ramp monotone until cap: {sizes:?}");
    }

    #[test]
    fn smax_caps_the_plan() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = PrefetchInputs {
            alpha: Dur::from_secs(10),
            tau_sim: Dur::from_secs(10),
            steps: StepMath::new(1, 2, 100_000),
            smax: 2,
            ramp: false,
        };
        a.note_planned(Direction::Forward, 2);
        let mut max_blocks = 0;
        for key in 1..=200 {
            let out = feed(&mut a, 1.0, &[key], &inp);
            if let Some(plan) = &out[0].plan {
                max_blocks = max_blocks.max(plan.blocks.len());
            }
        }
        assert!(max_blocks <= 2, "smax=2 exceeded: {max_blocks}");
    }

    #[test]
    fn backward_plan_covers_interval_below() {
        let mut a = PrefetchAgent::new(1.0);
        // Analysis slower than sim: tau_cli = 3 s, k*tau_sim = 1 s,
        // alpha = 4 s -> n = ceil(4/2) = 2 -> rounded to B=4.
        let inp = inputs(4, 1);
        a.note_planned(Direction::Backward, 41);
        let outs = feed(&mut a, 3.0, &[44, 43, 42], &inp);
        let plan = outs[2].plan.as_ref().expect("backward trigger");
        let block = plan.blocks[0].clone();
        assert!(*block.end() == 40, "plans below frontier 41: {block:?}");
        assert!(*block.start() >= 1);
    }

    #[test]
    fn backward_plan_clamps_at_key_one() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(4, 1);
        a.note_planned(Direction::Backward, 3);
        let outs = feed(&mut a, 1.0, &[5, 4, 3], &inp);
        if let Some(plan) = &outs[2].plan {
            for b in &plan.blocks {
                assert!(*b.start() >= 1);
            }
        }
    }

    #[test]
    fn backward_faster_analysis_plans_parallel_intervals() {
        // Analysis faster than the simulation: the agent plans several
        // one-interval simulations (s from the section IV-B2 formula).
        let mut a = PrefetchAgent::new(1.0);
        let inp = PrefetchInputs {
            alpha: Dur::from_secs(6),
            tau_sim: Dur::from_secs(2),
            steps: StepMath::new(1, 4, 1000),
            smax: 8,
            ramp: false,
        };
        a.note_planned(Direction::Backward, 101);
        // tau_cli = 0.5 s << 2 s: bandwidth matching kicks in after the
        // ramp warms up.
        let mut max_blocks = 0;
        let mut key = 120u64;
        for _ in 0..40 {
            let out = feed(&mut a, 0.5, &[key], &inp);
            if let Some(plan) = &out[0].plan {
                max_blocks = max_blocks.max(plan.blocks.len());
                for b in &plan.blocks {
                    assert_eq!((b.end() - b.start() + 1) % 4, 0, "interval-aligned blocks");
                }
            }
            key -= 1;
        }
        assert!(max_blocks >= 2, "expected parallel backward plans, got {max_blocks}");
    }

    #[test]
    fn plans_stop_at_timeline_end() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = PrefetchInputs {
            alpha: Dur::from_secs(4),
            tau_sim: Dur::from_secs(1),
            steps: StepMath::new(1, 4, 20), // N = 20
            smax: 8,
            ramp: false,
        };
        a.note_planned(Direction::Forward, 18);
        let outs = feed(&mut a, 1.0, &[16, 17, 18], &inp);
        if let Some(plan) = &outs[2].plan {
            for b in &plan.blocks {
                assert!(*b.end() <= 20, "beyond timeline: {b:?}");
            }
        }
        // Once the frontier hits N, further accesses plan nothing.
        let out = feed(&mut a, 1.0, &[19], &inp);
        if let Some(plan) = &out[0].plan {
            assert!(plan.blocks.iter().all(|b| *b.end() <= 20));
        }
        let out = feed(&mut a, 1.0, &[20], &inp);
        assert!(out[0].plan.is_none(), "nothing left to prefetch");
    }

    #[test]
    fn blocks_start_and_end_on_restart_boundaries() {
        // B = 4 and N = 42: the last interval is the clamped 41..=42.
        let inp = PrefetchInputs {
            alpha: Dur::from_secs(4),
            tau_sim: Dur::from_secs(1),
            steps: StepMath::new(1, 4, 42),
            smax: 8,
            ramp: false,
        };
        let forward: Vec<u64> = (1..=42).collect();
        let backward: Vec<u64> = (1..=42).rev().collect();
        // (frontier set before the scan, first key, scan, tau_cli)
        let cases = [
            // Aligned frontier: a directed miss's coverage edge.
            (Some((Direction::Forward, 12)), 9, &forward, 1.0),
            (Some((Direction::Backward, 29)), 32, &backward, 3.0),
            (Some((Direction::Backward, 29)), 32, &backward, 0.5),
            // No frontier: the confirming access becomes it.
            (None, 5, &forward, 1.0),
            (None, 37, &forward, 1.0),
            (None, 30, &backward, 3.0),
            (None, 30, &backward, 0.5),
            // The undirected first miss on key 30 covered 29..=32 and
            // recorded its end as a forward frontier.
            (Some((Direction::Forward, 8)), 6, &forward, 1.0),
            (Some((Direction::Forward, 32)), 30, &backward, 3.0),
            (Some((Direction::Forward, 32)), 30, &backward, 0.5),
        ];
        for (frontier, first, scan, tau_cli) in cases {
            let mut a = PrefetchAgent::new(1.0);
            if let Some((dir, key)) = frontier {
                a.note_planned(dir, key);
            }
            let from = scan.iter().position(|&k| k == first).unwrap();
            let mut blocks = Vec::new();
            for out in feed(&mut a, tau_cli, &scan[from..], &inp) {
                blocks.extend(out.plan.into_iter().flat_map(|p| p.blocks));
            }
            let case = format!("frontier {frontier:?}, scan from {first}, tau_cli {tau_cli}");
            assert!(!blocks.is_empty(), "{case}: nothing planned");
            let ascending = scan[0] < scan[1];
            for block in &blocks {
                let (start, end) = (*block.start(), *block.end());
                assert!(1 <= start && start <= end && end <= 42, "{case}: {block:?}");
                if ascending {
                    assert!(
                        end % 4 == 0 || end == 42,
                        "{case}: {block:?} ends mid-interval"
                    );
                } else {
                    assert_eq!(start % 4, 1, "{case}: {block:?} starts mid-interval");
                }
            }
            // The clamps were reached: the scan planned to the timeline
            // end it runs towards.
            if ascending {
                assert!(blocks.iter().any(|b| *b.end() == 42), "{case}: {blocks:?}");
            } else {
                assert!(blocks.iter().any(|b| *b.start() == 1), "{case}: {blocks:?}");
            }
        }
    }

    #[test]
    fn reset_clears_pattern_and_prefetch_history() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(2, 1);
        feed(&mut a, 1.0, &[1, 2, 3, 4], &inp);
        a.note_prefetched([7, 8]);
        assert!(a.was_prefetched(7));
        a.reset();
        assert!(!a.was_prefetched(7));
        assert!(a.direction().is_none());
        // tau_cli knowledge survives a pollution reset.
        assert_eq!(a.tau_cli(), Some(Dur::from_secs(1)));
    }

    #[test]
    fn prefetched_keys_tracked_from_plans() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(4, 1);
        a.note_planned(Direction::Forward, 4);
        let outs = feed(&mut a, 1.0, &[2, 3, 4], &inp);
        let plan = outs[2].plan.as_ref().expect("trigger at frontier");
        let first = *plan.blocks[0].start();
        assert!(a.was_prefetched(first));
    }

    fn rec(key: u64, epoch: u64) -> AccessRecord {
        AccessRecord {
            client: 1,
            key,
            epoch,
            ready: true,
        }
    }

    #[test]
    fn access_log_drains_in_observation_order() {
        let mut log = AccessLog::new(8);
        for k in 1..=5 {
            log.push(rec(k, k * 10));
        }
        assert_eq!(log.len(), 5);
        let mut out = Vec::new();
        assert_eq!(log.drain_into(&mut out), 0, "no drops under capacity");
        assert_eq!(out.iter().map(|r| r.key).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert!(log.is_empty());
        // Reusable across drains.
        log.push(rec(9, 90));
        out.clear();
        log.drain_into(&mut out);
        assert_eq!(out[0].key, 9);
    }

    #[test]
    fn access_log_overflow_drops_oldest_and_counts() {
        let mut log = AccessLog::new(4);
        for k in 1..=10 {
            log.push(rec(k, k));
        }
        assert_eq!(log.len(), 4, "bounded");
        assert_eq!(log.dropped(), 6);
        let mut out = Vec::new();
        assert_eq!(log.drain_into(&mut out), 6, "drain reports the loss");
        assert_eq!(
            out.iter().map(|r| r.key).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "freshest suffix survives, in order"
        );
        assert_eq!(log.dropped(), 0, "drop counter resets per drain");
        log.note_dropped(3);
        assert_eq!(log.dropped(), 3, "upstream losses fold in");
    }

    #[test]
    fn access_log_survives_partial_fill_drain_cycles() {
        let mut log = AccessLog::new(4);
        let mut out = Vec::new();
        // Partial fill, drain, then overflow again: the ring indices
        // must stay coherent across the reset.
        log.push(rec(1, 1));
        log.push(rec(2, 2));
        log.drain_into(&mut out);
        out.clear();
        for k in 10..=16 {
            log.push(rec(k, k));
        }
        assert_eq!(log.drain_into(&mut out), 3);
        assert_eq!(
            out.iter().map(|r| r.key).collect::<Vec<_>>(),
            vec![13, 14, 15, 16]
        );
    }

    #[test]
    fn no_plan_without_tau_cli_knowledge() {
        let mut a = PrefetchAgent::new(1.0);
        let inp = inputs(4, 1);
        a.note_planned(Direction::Forward, 4);
        // Accesses without any consumption-time sample: pattern can be
        // confirmed but no plan is computable.
        for key in [2u64, 3, 4] {
            let out = a.on_access(key, &inp);
            assert!(out.plan.is_none());
        }
        assert_eq!(a.direction(), Some(Direction::Forward));
    }
}
