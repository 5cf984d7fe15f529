//! The four workloads: which context each runs against and which keys
//! each client opens. The seed is the only source of randomness.

use rand::Rng;
use simkit::{SeedSeq, SimRng};
use simtrace::EcmwfSpec;

/// Timesteps per output step of the benchmark context.
pub const DD: u64 = 2;
/// Timesteps per restart step: 8 outputs per restart interval.
pub const DR: u64 = 16;
/// Output steps per restart interval.
pub const PER_INTERVAL: u64 = DR / DD;
/// Concurrent re-simulations the context allows.
pub const SMAX: u32 = 4;
/// Paced production time per output step on the miss workloads. Pacing
/// by sleep makes the simulation a constant, so what varies between
/// runs and commits is SimFS's own overhead.
pub const TAU_MS: u64 = 2;
/// Paced restart latency on the miss workloads.
pub const ALPHA_MS: u64 = 20;
/// Accesses in each client's ECMWF-like archive trace, several times
/// what a client gets through in the longest window (replay wraps).
const ECMWF_TRACE_LEN: u64 = 1 << 16;
/// Seed of the archive traces: the year of the paper.
const ECMWF_ARCHIVE_SEED: u64 = 2019;
/// Seed stream of the `ecmwf_mix` relabelling, shared by the clients
/// (streams 0.. are the clients' own).
const ROTATION_STREAM: u64 = 2000;
/// One open in this many is also checked with `SIMFS_Bitrep`.
pub const BITREP_EVERY: u64 = 64;

/// A workload of the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Resident timeline, transparent open → read → close.
    HotRead,
    /// Resident timeline, WAL on, explicit acquire/release, no bytes.
    HotMetaDurable,
    /// Empty cache, one forward and one backward scan, paced simulator.
    ColdScan,
    /// ECMWF-like reuse over a timeline four times the cache.
    EcmwfMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HotRead,
        Workload::HotMetaDurable,
        Workload::ColdScan,
        Workload::EcmwfMix,
    ];

    /// Contract name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::HotMetaDurable => "hot_meta_durable",
            Workload::ColdScan => "cold_scan",
            Workload::EcmwfMix => "ecmwf_mix",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotRead => {
                "256 resident steps fit the cache: the hit fast path and the data plane (read, decode) do all the work"
            }
            Workload::HotMetaDurable => {
                "same resident steps, WAL on, acquire/release only: every pin is journaled and the data plane is bypassed"
            }
            Workload::ColdScan => {
                "empty cache, forward and backward scan, paced simfs-simd: misses, prefetch, spawn, verify and eviction dominate"
            }
            Workload::EcmwfMix => {
                "ECMWF-like reuse over 4x the cache: hits, misses, evictions and kills interleave on one daemon"
            }
        }
    }

    /// Is the timeline simulated into the cache during set-up?
    pub fn resident(self) -> bool {
        matches!(self, Workload::HotRead | Workload::HotMetaDurable)
    }

    /// Is the run confined to one core (see [`crate::affinity`])? Only
    /// `hot_read` is: its open is a two-thread ping-pong whose wall time
    /// flips by a factor of two with thread placement. The durable
    /// workload's round trip also crosses the effect helper and waits
    /// on the disk, and was never seen to flip; the miss workloads wait
    /// on paced simulators most of the time.
    pub fn single_core(self) -> bool {
        self == Workload::HotRead
    }

    /// Analysis clients — threads and connections of the load
    /// generator — on a box with `nproc` cores: at most `nproc`, two
    /// where the cores allow, one on the single-core workload.
    pub fn clients(self, nproc: usize) -> usize {
        if self.single_core() {
            1
        } else {
            nproc.clamp(1, 2)
        }
    }

    /// Does an open read and decode the bytes (the transparent API), or
    /// only pin and unpin (the explicit API)?
    pub fn reads_bytes(self) -> bool {
        self != Workload::HotMetaDurable
    }

    /// Is the daemon's write-ahead log on?
    pub fn durable(self) -> bool {
        self == Workload::HotMetaDurable
    }

    /// Is `simfs-simd` paced with [`TAU_MS`]/[`ALPHA_MS`]? The resident
    /// workloads simulate at full speed: their simulations are set-up.
    pub fn paced(self) -> bool {
        !self.resident()
    }

    /// Cache budget in output steps; `None` is unbounded.
    pub fn cache_steps(self) -> Option<u64> {
        match self {
            Workload::HotRead | Workload::HotMetaDurable => None,
            Workload::ColdScan => Some(512),
            Workload::EcmwfMix => Some(220),
        }
    }

    /// Timeline length in output steps for a run measuring `seconds`.
    pub fn timeline_steps(self, seconds: f64, clients: usize) -> u64 {
        match self {
            Workload::HotRead | Workload::HotMetaDurable => 256,
            Workload::ColdScan => clients as u64 * scan_region_steps(seconds, clients),
            // 874 files rounded up to whole restart intervals.
            Workload::EcmwfMix => 880,
        }
    }
}

/// Steps of one `cold_scan` client's region, a whole number of
/// intervals. The scan is measured for a fixed time, so the region must
/// outlast the run. Pacing bounds what the whole daemon can produce in
/// `seconds`: `SMAX` simulations × [`PER_INTERVAL`] steps per
/// `ALPHA_MS + PER_INTERVAL·TAU_MS`. The clients share half again that
/// much, plus the prefetch lead. The initial simulation of the timeline
/// is most of this workload's set-up time, which is why the regions are
/// not larger.
pub fn scan_region_steps(seconds: f64, clients: usize) -> u64 {
    let interval_s = (ALPHA_MS + PER_INTERVAL * TAU_MS) as f64 / 1e3;
    let producible = seconds.max(0.1) * SMAX as f64 * PER_INTERVAL as f64 / interval_s;
    let share = producible * 1.5 / clients as f64;
    (share as u64 / PER_INTERVAL + 2 * SMAX as u64) * PER_INTERVAL
}

/// The key sequence of one client.
pub enum KeyStream {
    /// Uniform-random keys over `1..=n`.
    Uniform {
        /// Timeline length.
        n: u64,
        /// The client's own stream.
        rng: SimRng,
    },
    /// A scan: `next`, `next + step`, … until `left` keys were served.
    Scan {
        /// Next key to open.
        next: u64,
        /// +1 forward, −1 backward.
        step: i64,
        /// Keys left in the client's region.
        left: u64,
    },
    /// A pre-generated trace, replayed from `pos` and wrapping around.
    Trace {
        /// The whole trace.
        keys: Vec<u64>,
        /// Next access.
        pos: usize,
    },
}

impl Iterator for KeyStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match self {
            KeyStream::Uniform { n, rng } => Some(rng.gen_range(1..=*n)),
            KeyStream::Scan { next, step, left } => {
                if *left == 0 {
                    return None;
                }
                *left -= 1;
                let key = *next;
                *next = next.wrapping_add_signed(*step);
                Some(key)
            }
            KeyStream::Trace { keys, pos } => {
                let key = keys[*pos];
                *pos = (*pos + 1) % keys.len();
                Some(key)
            }
        }
    }
}

/// The keys client `client` of `clients` opens, for a run of `seconds`.
pub fn key_stream(
    workload: Workload,
    seed: u64,
    client: usize,
    clients: usize,
    seconds: f64,
) -> KeyStream {
    let seq = SeedSeq::new(seed);
    let n = workload.timeline_steps(seconds, clients);
    match workload {
        Workload::HotRead | Workload::HotMetaDurable => KeyStream::Uniform {
            n,
            rng: seq.rng(client as u64),
        },
        Workload::ColdScan => {
            // Even clients scan their region forward, odd ones
            // backward (client 0: 1 → R, client 1: 2R → R+1). The seed
            // picks where inside its first interval a scan starts, so
            // the first re-simulation is partly wasted, as a real
            // analysis's would be.
            let region = n / clients as u64;
            let skip = seq.rng(client as u64).gen_range(0..PER_INTERVAL);
            let lo = client as u64 * region + 1;
            let (next, step) = if client.is_multiple_of(2) {
                (lo + skip, 1)
            } else {
                (lo + region - 1 - skip, -1)
            };
            KeyStream::Scan {
                next,
                step,
                left: region - skip,
            }
        }
        Workload::EcmwfMix => {
            // One archive trace per client, the same in every run and
            // replayed from its start; the seed relabels the archive's
            // files by rotating them a whole number of restart
            // intervals along the timeline (and picks the bytes, see
            // `fixture::context_spec`). Which files are popular, and
            // which stretch of the archive a run replays, are properties
            // of the workload, not of the run: another popularity map
            // or another stretch per seed moved the hit rate, and with
            // it every metric, by more than 10 % between runs of one
            // commit. The rotation keeps every reuse distance and every
            // interval's membership. Trace steps are 0-based, keys
            // 1-based.
            let spec = EcmwfSpec {
                n_accesses: ECMWF_TRACE_LEN,
                ..EcmwfSpec::default()
            };
            debug_assert!(spec.n_files <= n);
            let trace = spec.generate(&mut SeedSeq::new(ECMWF_ARCHIVE_SEED).rng(client as u64));
            let rotate = seq.rng(ROTATION_STREAM).gen_range(0..n / PER_INTERVAL) * PER_INTERVAL;
            let keys: Vec<u64> = trace
                .accesses
                .iter()
                .map(|a| (a.step + rotate) % n + 1)
                .collect();
            KeyStream::Trace { keys, pos: 0 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(w: Workload, seed: u64, client: usize, n: usize) -> Vec<u64> {
        key_stream(w, seed, client, 2, 0.5).take(n).collect()
    }

    #[test]
    fn same_seed_gives_identical_streams_and_traces() {
        for w in Workload::ALL {
            for client in 0..2 {
                assert_eq!(
                    take(w, 11, client, 500),
                    take(w, 11, client, 500),
                    "{}",
                    w.name()
                );
            }
        }
        for w in [Workload::HotRead, Workload::EcmwfMix] {
            assert_ne!(
                take(w, 11, 0, 500),
                take(w, 12, 0, 500),
                "{}: seed ignored",
                w.name()
            );
            assert_ne!(
                take(w, 11, 0, 500),
                take(w, 11, 1, 500),
                "{}: clients share a stream",
                w.name()
            );
        }
    }

    #[test]
    fn every_key_is_inside_the_timeline() {
        for w in Workload::ALL {
            let n = w.timeline_steps(0.5, 2);
            assert_eq!(n % PER_INTERVAL, 0);
            for client in 0..2 {
                assert!(
                    take(w, 3, client, 2000)
                        .iter()
                        .all(|&k| (1..=n).contains(&k)),
                    "{}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn cold_scan_regions_are_disjoint_and_opposed() {
        let region = scan_region_steps(0.5, 2);
        let fwd: Vec<u64> = key_stream(Workload::ColdScan, 5, 0, 2, 0.5).collect();
        let bwd: Vec<u64> = key_stream(Workload::ColdScan, 5, 1, 2, 0.5).collect();
        assert!(fwd.windows(2).all(|w| w[1] == w[0] + 1));
        assert!(bwd.windows(2).all(|w| w[1] + 1 == w[0]));
        assert_eq!(*fwd.last().unwrap(), region);
        assert_eq!(*bwd.last().unwrap(), region + 1);
        assert!(*bwd.first().unwrap() <= 2 * region && *fwd.first().unwrap() >= 1);
        // Together the regions outlast the pacing's production bound.
        let bound = 0.5 * SMAX as f64 * PER_INTERVAL as f64 / 0.036;
        assert!(2.0 * region as f64 > 1.5 * bound);
    }

    #[test]
    fn names_roundtrip_and_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
