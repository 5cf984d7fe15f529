//! The simulation model (§II-A): cadences, restart mapping, miss costs.
//!
//! A simulation advances in timesteps `t_1 .. t_n`; every `Δd` timesteps
//! it emits an *output step*, every `Δr` timesteps a *restart step*.
//! Output steps are keyed `1 ..= N` (`N = n/Δd`); restart steps are keyed
//! `0 ..= n/Δr` with restart 0 being the initial condition.
//!
//! To produce output step `d_i` the simulation restarts from
//! `R(d_i) = ⌊i·Δd/Δr⌋` and — to exploit spatial locality — runs until
//! at least the next restart boundary `⌈i·Δd/Δr⌉`.
//!
//! We require `Δr` to be a multiple of `Δd` (true for every configuration
//! in the paper: 1440/15, 60/5, 20/1, 48-step Fig. 5 intervals), giving
//! `B = Δr/Δd` output steps per restart interval. A miss on key `i`:
//!
//! * if `i` is a restart boundary (`i % B == 0`): the restart file *is*
//!   the state at `d_i`; the re-simulation only dumps that one step
//!   (miss cost 0);
//! * otherwise: re-simulate the whole interval
//!   `⌊i/B⌋·B + 1 ..= (⌊i/B⌋+1)·B`, at miss cost `i mod B` — the
//!   distance, in output steps, from the previous restart (§III-D).

use serde::{Deserialize, Serialize};
use simbatch::ParallelismMap;
use simkit::Dur;
use std::ops::RangeInclusive;

/// Cadence math for one simulation context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepMath {
    /// Timesteps between output steps (`Δd`).
    pub dd: u64,
    /// Timesteps between restart steps (`Δr`), a multiple of `Δd`.
    pub dr: u64,
    /// Total timeline length in timesteps (`n`).
    pub n_timesteps: u64,
}

impl StepMath {
    /// Creates the cadence math.
    ///
    /// # Panics
    /// Panics unless `0 < Δd ≤ Δr`, `Δr % Δd == 0`, and the timeline
    /// holds at least one output step.
    pub fn new(dd: u64, dr: u64, n_timesteps: u64) -> StepMath {
        assert!(dd > 0, "Δd must be positive");
        assert!(dr >= dd, "Δr must be at least Δd");
        assert!(
            dr.is_multiple_of(dd),
            "Δr ({dr}) must be a multiple of Δd ({dd}); see model docs"
        );
        assert!(n_timesteps >= dd, "timeline shorter than one output step");
        StepMath { dd, dr, n_timesteps }
    }

    /// Output steps per restart interval (`B = Δr/Δd`).
    pub fn outputs_per_interval(&self) -> u64 {
        self.dr / self.dd
    }

    /// Number of output steps on the timeline (`N`).
    pub fn n_outputs(&self) -> u64 {
        self.n_timesteps / self.dd
    }

    /// Number of restart steps written (excluding the initial condition,
    /// which is restart 0).
    pub fn n_restarts(&self) -> u64 {
        self.n_timesteps / self.dr
    }

    /// Is `key` a valid output-step key?
    pub fn valid_key(&self, key: u64) -> bool {
        key >= 1 && key <= self.n_outputs()
    }

    /// `R(d_i) = ⌊i·Δd/Δr⌋`: the restart step a re-simulation of `key`
    /// starts from.
    pub fn restart_before(&self, key: u64) -> u64 {
        key * self.dd / self.dr
    }

    /// `⌈i·Δd/Δr⌉`: the restart boundary a re-simulation runs to.
    pub fn restart_after(&self, key: u64) -> u64 {
        (key * self.dd).div_ceil(self.dr)
    }

    /// Miss cost of `key`: distance in output steps from its previous
    /// restart step (0 exactly on a boundary) — the cost input of the
    /// BCL/DCL policies (§III-D).
    pub fn miss_cost(&self, key: u64) -> u64 {
        key % self.outputs_per_interval()
    }

    /// The output-step keys produced by the re-simulation serving a miss
    /// on `key` (§II-A): the single step if `key` sits on a restart
    /// boundary, else the whole enclosing restart interval (clamped to
    /// the timeline end).
    pub fn resim_range(&self, key: u64) -> RangeInclusive<u64> {
        debug_assert!(self.valid_key(key), "invalid key {key}");
        let b = self.outputs_per_interval();
        if key.is_multiple_of(b) {
            key..=key
        } else {
            let j = key / b;
            let stop = ((j + 1) * b).min(self.n_outputs());
            (j * b + 1)..=stop
        }
    }

    /// The restart index the re-simulation for `key` loads.
    pub fn resim_restart(&self, key: u64) -> u64 {
        // A boundary key (`key % b == 0`) loads the restart written at
        // that very step; a non-boundary key loads the restart opening
        // its interval. Both are `floor(key / b)`.
        key / self.outputs_per_interval()
    }

    /// The output keys inside restart interval `j` (clamped), i.e. the
    /// range a prefetched simulation of interval `j` produces.
    pub fn interval_keys(&self, j: u64) -> RangeInclusive<u64> {
        let b = self.outputs_per_interval();
        let start = j * b + 1;
        let stop = ((j + 1) * b).min(self.n_outputs());
        start..=stop
    }

    /// The restart interval containing `key` (for non-boundary keys; a
    /// boundary key belongs to the interval it terminates).
    pub fn interval_of(&self, key: u64) -> u64 {
        let b = self.outputs_per_interval();
        key.div_ceil(b) - 1
    }

    /// Number of restart intervals covering the timeline.
    pub fn n_intervals(&self) -> u64 {
        self.n_outputs().div_ceil(self.outputs_per_interval())
    }

    /// Stable fingerprint of the cadence configuration (FNV-1a over
    /// `Δd`, `Δr`, `n`), exchanged in the cluster hello handshake: a
    /// client and a daemon that disagree on the step math would hash
    /// intervals differently and silently misroute every key, so the
    /// daemon rejects mismatched fingerprints at session setup.
    pub fn config_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for field in [self.dd, self.dr, self.n_timesteps] {
            for byte in field.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

/// Full configuration of a simulation context (§II "Simulation
/// Contexts": a simulator plus one of its configurations, exposed to
/// analyses by name).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContextCfg {
    /// Context name analyses select (environment variable / `SIMFS_Init`
    /// argument in the paper).
    pub name: String,
    /// Cadence and timeline.
    pub steps: StepMath,
    /// Bytes per output step (`s_o`) for cache accounting.
    pub output_bytes: u64,
    /// Storage-area budget in bytes (`M`).
    pub cache_capacity: u64,
    /// Replacement policy name (`lru`/`lirs`/`arc`/`bcl`/`dcl`; the
    /// paper fixes DCL after Fig. 5).
    pub policy: String,
    /// Maximum number of simultaneously running re-simulations
    /// (`s_max`, §VI).
    pub smax: u32,
    /// Enable the prefetch agents (§IV-B).
    pub prefetch: bool,
    /// Conservative prefetching: instead of launching `s_opt` parallel
    /// simulations at once, start with one and double at each
    /// prefetching step (§IV-B1b: "a simulation context can be
    /// configured to not prefetch directly s_opt simulations at time").
    pub prefetch_ramp: bool,
    /// Parallelism-level mapping for bandwidth matching (§IV-B1b).
    pub parallelism: ParallelismMap,
    /// Smoothing factor of the restart-latency moving average
    /// (§IV-C1c: "the smoothing factor is a parameter defined in the
    /// simulation context").
    pub ema_alpha: f64,
    /// Production-supervision knobs: retry/backoff, poison quarantine,
    /// hang watchdog (see the [`crate::dv`] module doc). Defaulted so
    /// configurations written before supervision existed still load.
    #[serde(default)]
    pub supervisor: SupervisorCfg,
}

impl ContextCfg {
    /// A context with sensible defaults: DCL policy, prefetching on,
    /// `s_max = 8`, EMA smoothing 0.5.
    pub fn new(name: impl Into<String>, steps: StepMath, output_bytes: u64, cache_capacity: u64) -> Self {
        ContextCfg {
            name: name.into(),
            steps,
            output_bytes,
            cache_capacity,
            policy: "dcl".to_string(),
            smax: 8,
            prefetch: true,
            prefetch_ramp: false,
            parallelism: ParallelismMap::unconstrained(1, 4),
            ema_alpha: 0.5,
            supervisor: SupervisorCfg::default(),
        }
    }

    /// Cache capacity expressed in output steps.
    pub fn cache_capacity_steps(&self) -> u64 {
        (self.cache_capacity / self.output_bytes.max(1)).max(1)
    }

    /// Builder: replacement policy.
    pub fn with_policy(mut self, policy: &str) -> Self {
        self.policy = policy.to_string();
        self
    }

    /// Builder: `s_max`.
    pub fn with_smax(mut self, smax: u32) -> Self {
        self.smax = smax.max(1);
        self
    }

    /// Builder: prefetching on/off.
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// Builder: conservative doubling ramp for prefetch parallelism.
    pub fn with_prefetch_ramp(mut self, on: bool) -> Self {
        self.prefetch_ramp = on;
        self
    }

    /// Builder: production-supervision knobs.
    pub fn with_supervisor(mut self, supervisor: SupervisorCfg) -> Self {
        self.supervisor = supervisor;
        self
    }
}

/// Production-supervision knobs of one context: how the DV reacts when
/// a re-simulation fails, stalls, or produces corrupt output (see the
/// retry/poison state machine in the [`crate::dv`] module doc).
///
/// Defaults are sized for real deployments — wall-clock floors in the
/// tens of seconds — so millisecond-scale test productions never trip
/// the watchdog by accident; the fault-injection tests shrink them
/// explicitly.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SupervisorCfg {
    /// Launch attempts per restart interval before it is poisoned.
    pub attempt_budget: u32,
    /// Backoff before retry attempt `n` is `backoff_base · 2^(n-1)`,
    /// capped at [`backoff_cap`](Self::backoff_cap), with deterministic
    /// ±25 % jitter.
    pub backoff_base: Dur,
    /// Upper bound of the exponential backoff ladder.
    pub backoff_cap: Dur,
    /// How long a poisoned interval short-circuits acquires before the
    /// quarantine expires and the attempt budget resets.
    pub quarantine: Dur,
    /// The hang deadline is the current `alpha_sim` (not yet started)
    /// or `tau_sim` (producing) estimate scaled by this factor ...
    pub hang_multiplier: f64,
    /// ... clamped to no less than this floor ...
    pub hang_floor: Dur,
    /// ... and no more than this ceiling, unless twice the estimate is
    /// longer: a simulator slower than the ceiling is not hung.
    pub hang_ceiling: Dur,
}

impl Default for SupervisorCfg {
    fn default() -> SupervisorCfg {
        SupervisorCfg {
            attempt_budget: 3,
            backoff_base: Dur::from_millis(100),
            backoff_cap: Dur::from_secs(10),
            quarantine: Dur::from_secs(30),
            hang_multiplier: 8.0,
            hang_floor: Dur::from_secs(30),
            hang_ceiling: Dur::from_mins(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn math() -> StepMath {
        // Fig. 5 configuration: Δd = 5 min, Δr = 4 h of 1-min timesteps
        // scaled: use dd=5, dr=240 timesteps, B = 48.
        StepMath::new(5, 240, 5 * 1152)
    }

    #[test]
    fn counts() {
        let m = math();
        assert_eq!(m.outputs_per_interval(), 48);
        assert_eq!(m.n_outputs(), 1152);
        assert_eq!(m.n_restarts(), 24);
        assert_eq!(m.n_intervals(), 24);
    }

    #[test]
    fn restart_mapping_matches_paper_formula() {
        let m = StepMath::new(4, 8, 64); // the paper's Fig. 3: Δd=4, Δr=8
        // d_1 covers t in (0,4]: restart R = ⌊1·4/8⌋ = 0.
        assert_eq!(m.restart_before(1), 0);
        // d_2 at t=8: R = 1 (restart exactly there).
        assert_eq!(m.restart_before(2), 1);
        assert_eq!(m.restart_after(1), 1);
        assert_eq!(m.restart_after(3), 2);
    }

    #[test]
    fn miss_costs_cycle_within_interval() {
        let m = math(); // B = 48
        assert_eq!(m.miss_cost(1), 1);
        assert_eq!(m.miss_cost(47), 47);
        assert_eq!(m.miss_cost(48), 0, "boundary steps are free");
        assert_eq!(m.miss_cost(49), 1);
        assert_eq!(m.miss_cost(96), 0);
    }

    #[test]
    fn resim_range_covers_interval() {
        let m = math();
        assert_eq!(m.resim_range(1), 1..=48);
        assert_eq!(m.resim_range(47), 1..=48);
        assert_eq!(m.resim_range(48), 48..=48, "boundary: dump only");
        assert_eq!(m.resim_range(49), 49..=96);
        assert_eq!(m.resim_restart(49), 1);
        assert_eq!(m.resim_restart(48), 1);
    }

    #[test]
    fn resim_range_clamps_at_timeline_end() {
        let m = StepMath::new(1, 10, 25); // B=10, N=25
        assert_eq!(m.resim_range(23), 21..=25);
        assert_eq!(m.interval_keys(2), 21..=25);
    }

    #[test]
    fn interval_of_is_consistent_with_interval_keys() {
        let m = math();
        for key in 1..=m.n_outputs() {
            let j = m.interval_of(key);
            let range = m.interval_keys(j);
            assert!(
                range.contains(&key),
                "key {key} not in its interval {j} ({range:?})"
            );
        }
    }

    #[test]
    fn key_validity() {
        let m = math();
        assert!(!m.valid_key(0));
        assert!(m.valid_key(1));
        assert!(m.valid_key(1152));
        assert!(!m.valid_key(1153));
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn non_divisible_cadence_rejected() {
        StepMath::new(4, 10, 100);
    }

    #[test]
    fn config_hash_separates_cadences() {
        let a = StepMath::new(1, 4, 64).config_hash();
        assert_eq!(a, StepMath::new(1, 4, 64).config_hash(), "deterministic");
        assert_ne!(a, StepMath::new(1, 4, 68).config_hash());
        assert_ne!(a, StepMath::new(1, 8, 64).config_hash());
        assert_ne!(a, StepMath::new(2, 4, 64).config_hash());
    }

    #[test]
    fn context_builders() {
        let cfg = ContextCfg::new("cosmo", math(), 100, 1000)
            .with_policy("lru")
            .with_smax(0)
            .with_prefetch(false);
        assert_eq!(cfg.policy, "lru");
        assert_eq!(cfg.smax, 1, "smax clamped to ≥ 1");
        assert!(!cfg.prefetch);
        assert_eq!(cfg.cache_capacity_steps(), 10);
    }
}
