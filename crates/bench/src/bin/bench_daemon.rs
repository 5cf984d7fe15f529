//! End-to-end daemon throughput and latency: N concurrent analysis
//! clients hammer a loopback daemon with `acquire`/`release` pairs —
//! the Fig. 4 control-message pattern that bounds how many concurrent
//! analyses one context can serve. Every pair is one full
//! request/response round trip through the wire codec, the reactor and
//! the DV control plane (hit fast path, the DV lock), so the numbers
//! directly track the front-end work in `server.rs`/`reactor.rs`. Each
//! daemon runs one DV per context (the only configuration there is).
//!
//! ```sh
//! cargo run --release -p simfs-bench --bin bench_daemon -- \
//!     [--workloads uniform,hitheavy,zipf,uniform+prefetch,hitheavy+prefetch] \
//!     [--clients 1,2,4,...] [--secs 2] [--cluster 1] \
//!     [--out BENCH_daemon.json]
//! ```
//!
//! A `+prefetch` suffix runs the workload with prefetch agents on —
//! the configuration that historically forfeited the fast path, and now
//! keeps it through the access-stream digest. Those
//! runs additionally report agent-quality counters per point: prefetch
//! launches and hits, pollution resets, kills, and digest
//! replayed/dropped records (the lossiness actually incurred).
//!
//! `--cluster N` (N > 1) runs each workload against an N-daemon
//! cluster (N `DvServer`s in this process, one shared storage area);
//! clients route through DVLib's `DvCluster` interval hash, and each
//! point reports the aggregate rtps plus a per-daemon acquire-rate
//! roll-up from the members' counter deltas.
//!
//! `--degraded` (requires `--cluster` ≥ 2) prices interval failover:
//! sessions enable `set_failover`, and member 1 is shut down halfway
//! through each workload's first point — the surviving members take its
//! intervals over mid-measurement. Every JSON result line carries a
//! `degraded` field so the ladder separates healthy from degraded
//! numbers.
//!
//! `--sim-faults N` injects production faults into the bench simulator:
//! the first production of every Nth key is corrupt, so the daemon's
//! integrity gate rejects it, kills the producer, and the supervisor
//! retries (transparently — the retried production is clean). Pair it
//! with `hitheavy`, whose cold tail keeps launching real sims
//! mid-measurement; every JSON line then reports the supervision
//! counters (`sim_retries`, `intervals_poisoned`, `sims_hung_killed`,
//! `corrupt_outputs`) so fault-smoke ladders pin the retry machinery's
//! cost. Fault-free runs report the same counters, all zero — the
//! supervision tier must stay off the hot path.
//!
//! Three workloads:
//!
//! * **uniform** — every client strides uniformly over a fully warmed
//!   64-key timeline: the pure hit path, comparable across releases
//!   (PR 2's ladder).
//! * **hitheavy** — a 1280-key timeline with 95% of the keyspace warmed
//!   ahead of time; uniform requests mix fast-path hits with cold
//!   misses that launch real re-simulations mid-measurement.
//! * **zipf** — zipfian (θ = 0.99) requests over the warmed 64-key
//!   timeline: the hottest keys cluster in one restart interval, so a
//!   few hit-index words see heavy skew.
//!
//! Per point it records throughput, p50/p99 round-trip latency, and the
//! daemon's control-plane counter deltas: fast-path vs slow-path
//! acquires, epoch fallbacks, misses, and DV-lock wait/hold time — and
//! the `"transport"` its clients' connections rode (`local`: the
//! daemon's abstract Unix socket, which is what in-process daemons on
//! 127.0.0.1 get; `tcp`; `mixed`). The JSON summary seeds the perf
//! trajectory in `BENCH_daemon.json`.

use simbatch::ParallelismMap;
use simfs_core::client::{DvCluster, SimfsClient};
use simfs_core::driver::{PatternDriver, SimDriver};
use simfs_core::dv::DvStats;
use simfs_core::model::{ContextCfg, StepMath};
use simfs_core::net::Transport;
use simfs_core::server::{
    ClusterMember, DurabilityCfg, DvServer, ServerConfig, SimFaultSpec, ThreadSimLauncher,
};
use simstore::{Data, Dataset, StorageArea};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Zipf skew parameter (YCSB's classic θ).
const ZIPF_THETA: f64 = 0.99;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Uniform,
    HitHeavy,
    Zipf,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::HitHeavy => "hitheavy",
            Workload::Zipf => "zipf",
        }
    }

    fn parse(s: &str) -> Workload {
        match s {
            "uniform" => Workload::Uniform,
            "hitheavy" => Workload::HitHeavy,
            "zipf" => Workload::Zipf,
            other => panic!("unknown workload {other} (uniform|hitheavy|zipf[+prefetch])"),
        }
    }

    /// Total timeline length.
    fn n_keys(self) -> u64 {
        match self {
            Workload::Uniform | Workload::Zipf => 64,
            Workload::HitHeavy => 1280,
        }
    }

    /// Keys warmed (materialized + released) before measurement.
    fn warm_keys(self) -> u64 {
        match self {
            Workload::Uniform | Workload::Zipf => 64,
            // 95% of the keyspace cached: the remaining 5% miss and
            // re-simulate during the measured window.
            Workload::HitHeavy => 1216,
        }
    }

    fn default_clients(self) -> Vec<usize> {
        match self {
            Workload::Uniform => vec![1, 2, 4, 8, 16, 32, 128, 256, 1024],
            Workload::HitHeavy | Workload::Zipf => vec![1, 32, 256, 1024],
        }
    }

    /// Cache budget in steps. Hit-heavy bounds the cache just above its
    /// warmed set so the 5% cold tail keeps missing (and evicting) in
    /// steady state instead of materializing once; the others never
    /// evict. The hit-heavy budget scales with the cluster size: each
    /// member takes a `1/K` slice, so every member must be granted its
    /// warm slice *plus* one in-flight 4-step interval of slack —
    /// sized for the largest member (`ceil(304/K)` of the 304 warm
    /// intervals), since an uneven interval split would otherwise
    /// under-budget that member and spiral its warm set out through
    /// evictions, un-measuring the intended 5% miss rate. `K = 1`
    /// reduces to the historical 1220.
    fn cache_steps(self, cluster: u32) -> u64 {
        match self {
            Workload::Uniform | Workload::Zipf => u64::MAX / (1 << 20),
            Workload::HitHeavy => {
                let largest_member_intervals = 304u64.div_ceil(cluster as u64);
                (largest_member_intervals * 4 + 4) * cluster as u64
            }
        }
    }
}

/// One ladder: a workload at a prefetch setting.
#[derive(Clone, Copy, PartialEq, Eq)]
struct RunSpec {
    workload: Workload,
    prefetch: bool,
}

impl RunSpec {
    fn parse(s: &str) -> RunSpec {
        let (base, prefetch) = match s.strip_suffix("+prefetch") {
            Some(base) => (base, true),
            None => (s, false),
        };
        RunSpec {
            workload: Workload::parse(base),
            prefetch,
        }
    }

    fn label(&self) -> String {
        if self.prefetch {
            format!("{}+prefetch", self.workload.name())
        } else {
            self.workload.name().to_string()
        }
    }
}

fn step_bytes(key: u64) -> Vec<u8> {
    let mut ds = Dataset::new(key, key as f64);
    ds.set_attr("simulator", "synthetic");
    let field: Vec<f64> = (0..16).map(|i| (key * 31 + i) as f64).collect();
    ds.add_var("field", vec![16], Data::F64(field)).unwrap();
    ds.encode().to_vec()
}

fn start_daemon(
    dir: &std::path::Path,
    n_keys: u64,
    cache_steps: u64,
    member: ClusterMember,
    prefetch: bool,
    durable: bool,
    faults: SimFaultSpec,
) -> (DvServer, StorageArea) {
    let storage = StorageArea::create(dir, u64::MAX).unwrap();
    let size = step_bytes(1).len() as u64;
    let ctx = ContextCfg::new(
        "bench-ctx",
        StepMath::new(1, 4, n_keys),
        size,
        cache_steps.saturating_mul(size),
    )
    .with_policy("lru")
    .with_prefetch(prefetch)
    .with_smax(8);
    let launcher = Arc::new(
        ThreadSimLauncher::new(
            step_bytes,
            |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
            Duration::from_millis(1),
            Duration::from_micros(200),
        )
        .with_faults(faults),
    );
    let server = DvServer::start(
        ServerConfig {
            ctx,
            driver: Arc::new(
                PatternDriver::new("out-", ".sdf", 6)
                    .with_parallelism(ParallelismMap::unconstrained(1, 2)),
            ),
            storage: storage.clone(),
            launcher,
            checksums: HashMap::new(),
            dv_shards: 1,
            cluster: member,
            durability: if durable {
                DurabilityCfg::durable(false)
            } else {
                DurabilityCfg::default()
            },
        },
        "127.0.0.1:0",
    )
    .unwrap();
    (server, storage)
}

/// One measured session: direct for single daemons (keeping the ladder
/// byte-identical to earlier releases), interval-routed via
/// [`DvCluster`] for clusters.
enum Session {
    Single(SimfsClient),
    /// The bool is the failover flag: degraded-mode sessions tolerate a
    /// release racing a member death.
    Cluster(DvCluster, bool),
}

impl Session {
    fn connect(addrs: &[std::net::SocketAddr], steps: StepMath, failover: bool) -> Session {
        if addrs.len() == 1 {
            Session::Single(SimfsClient::connect(addrs[0], "bench-ctx").unwrap())
        } else {
            let mut c = DvCluster::connect(addrs, "bench-ctx", steps).unwrap();
            if failover {
                c.set_auto_reconnect(true);
                c.set_failover(true);
                // Fast down-detection so the degraded window dominates
                // the measurement, not the probing.
                c.set_down_window(Duration::from_millis(500));
            }
            Session::Cluster(c, failover)
        }
    }

    /// The transport of every connection this session holds.
    fn transports(&self) -> Vec<Transport> {
        match self {
            Session::Single(c) => vec![c.transport()],
            Session::Cluster(c, _) => c.transports(),
        }
    }

    fn acquire_release(&mut self, key: u64) {
        match self {
            Session::Single(c) => {
                let status = c.acquire(&[key]).unwrap();
                assert!(status.ok(), "acquire failed: {status:?}");
                c.release(key).unwrap();
            }
            Session::Cluster(c, failover) => {
                let status = c.acquire(&[key]).unwrap();
                assert!(status.ok(), "acquire failed: {status:?}");
                match c.release(key) {
                    Ok(()) => {}
                    // A member can die between the acquire and this
                    // release; the pin dies with it and the next acquire
                    // reroutes. Only tolerable in degraded mode.
                    Err(_) if *failover => {}
                    Err(e) => panic!("release failed: {e}"),
                }
            }
        }
    }

    fn finalize(self) {
        match self {
            Session::Single(c) => drop(c.finalize()),
            Session::Cluster(c, _) => drop(c.finalize()),
        }
    }
}

/// Threads currently alive in this process (daemon threads + main,
/// sampled before any bench client exists).
fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|entries| entries.count())
        .unwrap_or(0)
}

/// xorshift64* — deterministic per-thread key sampling without
/// cross-thread state.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative zipf distribution over ranks `0..n` (rank 0 hottest);
/// sampled by binary search on a uniform draw.
fn zipf_cdf(n: u64, theta: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

struct Point {
    round_trips: u64,
    elapsed: f64,
    p50_us: f64,
    p99_us: f64,
    /// What the clients' connections rode: `"local"` (the daemon's
    /// abstract Unix socket), `"tcp"`, or `"mixed"`.
    transport: &'static str,
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// One point: `clients` threads, each looping an `acquire([key])` /
/// `release(key)` pair for `secs` with workload-specific key choice,
/// timing every round trip. The measured window runs from barrier
/// release to stop flag — connect, handshake and teardown are excluded.
fn run_point(
    addrs: Arc<Vec<std::net::SocketAddr>>,
    steps: StepMath,
    workload: Workload,
    clients: usize,
    secs: f64,
    cdf: Arc<Vec<f64>>,
    failover: bool,
) -> Point {
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(clients + 1));
    let n_keys = workload.n_keys();
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let stop = stop.clone();
        let start = start.clone();
        let cdf = Arc::clone(&cdf);
        let addrs = Arc::clone(&addrs);
        handles.push(std::thread::spawn(move || -> (Vec<u64>, Vec<Transport>) {
            let mut client = Session::connect(&addrs, steps, failover);
            let transports = client.transports();
            let mut rng = Rng(0x9E37_79B9 ^ ((c as u64 + 1) * 0x1234_5677));
            // Uniform keeps PR 2's deterministic stride walk so the
            // ladder stays comparable across releases.
            let mut key = 1 + (c as u64 * 17) % n_keys;
            let mut lat_ns = Vec::with_capacity(4096);
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                client.acquire_release(key);
                lat_ns.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                key = match workload {
                    Workload::Uniform => 1 + key % n_keys,
                    Workload::HitHeavy => 1 + rng.next() % n_keys,
                    Workload::Zipf => {
                        let u = rng.next_f64();
                        let rank = cdf.partition_point(|&p| p < u) as u64;
                        1 + rank.min(n_keys - 1)
                    }
                };
            }
            client.finalize();
            (lat_ns, transports)
        }));
    }
    start.wait();
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Relaxed);
    let elapsed = t0.elapsed().as_secs_f64();
    let mut all_ns: Vec<u64> = Vec::new();
    let mut transports: Vec<Transport> = Vec::new();
    for handle in handles {
        let (lat_ns, rode) = handle.join().unwrap();
        all_ns.extend(lat_ns);
        transports.extend(rode);
    }
    let transport = match transports.first() {
        Some(first) if transports.iter().all(|t| t == first) => first.as_str(),
        _ => "mixed",
    };
    let round_trips = all_ns.len() as u64;
    all_ns.sort_unstable();
    Point {
        round_trips,
        elapsed,
        p50_us: percentile_us(&all_ns, 0.50),
        p99_us: percentile_us(&all_ns, 0.99),
        transport,
    }
}

fn main() {
    let mut clients_override: Option<Vec<usize>> = None;
    let mut secs = 2.0f64;
    let mut out = String::from("BENCH_daemon.json");
    let mut cluster = 1u32;
    let mut durable = false;
    let mut degraded = false;
    let mut sim_faults = 0u64;
    let mut specs = vec![
        RunSpec { workload: Workload::Uniform, prefetch: false },
        RunSpec { workload: Workload::HitHeavy, prefetch: false },
        RunSpec { workload: Workload::Zipf, prefetch: false },
        RunSpec { workload: Workload::Uniform, prefetch: true },
        RunSpec { workload: Workload::HitHeavy, prefetch: true },
    ];
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        // `--durable` is a bare switch: the session/lease WAL on, so the
        // ladder can price the write-ahead work against the default.
        if flag == "--durable" {
            durable = true;
            continue;
        }
        // `--degraded` is a bare switch: kill member 1 mid-run and
        // measure failover service by the survivors.
        if flag == "--degraded" {
            degraded = true;
            continue;
        }
        let val = args.next().unwrap_or_default();
        match flag.as_str() {
            "--clients" => {
                clients_override = Some(
                    val.split(',')
                        .map(|s| s.trim().parse().expect("bad --clients"))
                        .collect(),
                );
            }
            "--secs" => secs = val.parse().expect("bad --secs"),
            "--out" => out = val,
            "--cluster" => cluster = val.parse().expect("bad --cluster"),
            "--sim-faults" => sim_faults = val.parse().expect("bad --sim-faults"),
            "--workloads" => {
                specs = val.split(',').map(|s| RunSpec::parse(s.trim())).collect();
            }
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(cluster >= 1, "--cluster needs at least one daemon");
    assert!(
        !degraded || cluster >= 2,
        "--degraded needs --cluster 2+ (someone must survive to take over)"
    );

    let mut lines = Vec::new();
    for &spec in &specs {
        let workload = spec.workload;
        let name = spec.label();
        let steps = StepMath::new(1, 4, workload.n_keys());
        let dir = std::env::temp_dir().join(format!(
            "simfs-bench-daemon-{}-{}",
            name,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // `--cluster N`: N daemons over one shared storage area, each
        // owning its residue class of restart intervals.
        let servers: Vec<DvServer> = (0..cluster)
            .map(|k| {
                start_daemon(
                    &dir,
                    workload.n_keys(),
                    workload.cache_steps(cluster),
                    ClusterMember::new(k, cluster),
                    spec.prefetch,
                    durable,
                    SimFaultSpec { crash_quota: 0, corrupt_every: sim_faults, ..Default::default() },
                )
                .0
            })
            .collect();
        let addrs = Arc::new(servers.iter().map(DvServer::addr).collect::<Vec<_>>());

        // Warm the workload's cached keyspace so measured misses are a
        // workload property, not cold-start noise. DvCluster routes
        // each warm key to its owning daemon.
        {
            let mut warm = DvCluster::connect(&addrs, "bench-ctx", steps).unwrap();
            let keys: Vec<u64> = (1..=workload.warm_keys()).collect();
            for chunk in keys.chunks(256) {
                let status = warm.acquire(chunk).unwrap();
                assert!(status.ok(), "warmup failed: {status:?}");
                for &k in chunk {
                    warm.release(k).unwrap();
                }
            }
            warm.finalize().unwrap();
        }
        // Let the warmup simulator threads wind down before counting.
        std::thread::sleep(Duration::from_millis(100));
        let daemon_threads = process_threads().saturating_sub(1); // minus main

        let cdf = Arc::new(if workload == Workload::Zipf {
            zipf_cdf(workload.n_keys(), ZIPF_THETA)
        } else {
            Vec::new()
        });

        println!("workload {name}: {daemon_threads} daemon threads before clients");
        println!(
            "{:>8} {:>12} {:>9} {:>9} {:>9} {:>10} {:>10} {:>8} {:>8} {:>9}",
            "clients", "round_trips", "rtps", "p50_us", "p99_us", "fast", "slow", "miss",
            "fallback", "hold_ns/t"
        );
        let clients = clients_override
            .clone()
            .unwrap_or_else(|| workload.default_clients());
        let mut victim_killed = false;
        for &n in &clients {
            let before: Vec<DvStats> = servers.iter().map(DvServer::stats).collect();
            let kill_now = degraded && !victim_killed;
            let point = if kill_now {
                victim_killed = true;
                let victim = &servers[1];
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        std::thread::sleep(Duration::from_secs_f64(secs / 2.0));
                        victim.shutdown();
                    });
                    run_point(
                        Arc::clone(&addrs),
                        steps,
                        workload,
                        n,
                        secs,
                        Arc::clone(&cdf),
                        degraded,
                    )
                })
            } else {
                run_point(
                    Arc::clone(&addrs),
                    steps,
                    workload,
                    n,
                    secs,
                    Arc::clone(&cdf),
                    degraded,
                )
            };
            if kill_now {
                println!("{:>8} member 1 killed mid-point: failover service by survivors", "");
            }
            // Per-daemon counter deltas plus the cluster-wide roll-up.
            let deltas: Vec<DvStats> = servers
                .iter()
                .zip(&before)
                .map(|(server, before)| server.stats().delta(before))
                .collect();
            let mut d = DvStats::default();
            for delta in &deltas {
                d.accumulate(delta);
            }
            // Derived ratios: the only per-field arithmetic here. Every
            // raw counter reaches the JSON line through `DvStats::iter`.
            let per = |total: u64, n: u64| total.checked_div(n).unwrap_or(0);
            let effect_spawn_ns = per(d.effect_spawn_ns, d.effect_spawn_ops);
            let effect_wal_ns = per(d.effect_wal_ns, d.effect_wal_ops);
            let effect_evict_ns = per(d.effect_evict_ns, d.effect_evict_ops);
            let effect_read_ns = per(d.effect_read_ns, d.effect_read_ops);
            let hold_per_transition = per(d.lock_hold_ns, d.lock_transitions);
            let wait_per_transition = per(d.lock_wait_ns, d.lock_transitions);
            let rtps = point.round_trips as f64 / point.elapsed;
            println!(
                "{n:>8} {:>12} {rtps:>9.0} {:>9.1} {:>9.1} {:>10} {:>10} {:>8} {:>8} \
                 {hold_per_transition:>9}",
                point.round_trips,
                point.p50_us,
                point.p99_us,
                d.acquired_fast,
                d.acquired_slow,
                d.misses,
                d.hit_fallbacks
            );
            if spec.prefetch {
                println!(
                    "{:>8} agents: {} launches, {} prefetch hits, {} pollution resets, \
                     {} kills, digest {} replayed / {} dropped",
                    "",
                    d.prefetch_launches,
                    d.prefetch_hits,
                    d.pollution_resets,
                    d.kills,
                    d.digest_replayed,
                    d.digest_dropped
                );
            }
            if durable {
                println!(
                    "{:>8} wal: {} appends, {} replayed, {} steps held in recovery, \
                     {} leases expired, {} reconnects",
                    "",
                    d.wal_appends,
                    d.wal_replayed,
                    d.recovery_held_steps,
                    d.leases_expired,
                    d.client_reconnects
                );
            }
            if degraded {
                println!(
                    "{:>8} failover: {} takeover acquires, {} intervals primed on takers",
                    "", d.takeover_acquires, d.takeover_intervals_primed
                );
            }
            if sim_faults > 0 {
                println!(
                    "{:>8} supervision: {} corrupt outputs rejected, {} sim retries, \
                     {} hung kills, {} intervals poisoned",
                    "",
                    d.corrupt_outputs,
                    d.sim_retries,
                    d.sims_hung_killed,
                    d.intervals_poisoned
                );
            }
            if d.effects_offloaded > 0 {
                println!(
                    "{:>8} effects: {} offloaded, {} queue-full stalls, {} wal syncs; \
                     ns/op spawn {effect_spawn_ns} wal {effect_wal_ns} evict {effect_evict_ns} \
                     read {effect_read_ns}",
                    "", d.effects_offloaded, d.helper_queue_full, d.wal_syncs
                );
            }
            // Per-daemon acquire rates: how evenly the interval hash
            // spread the load across the cluster.
            let per_daemon: Vec<f64> = deltas
                .iter()
                .map(|m| (m.acquired_fast + m.acquired_slow) as f64 / point.elapsed)
                .collect();
            if cluster > 1 {
                let shares = per_daemon
                    .iter()
                    .enumerate()
                    .map(|(i, r)| format!("d{i} {r:.0}/s"))
                    .collect::<Vec<_>>()
                    .join(", ");
                println!("{:>8} per-daemon acquires: {shares}", "");
            }
            let per_daemon_json = per_daemon
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(", ");
            // Every counter's delta under its field name, straight from
            // the registry: a new `DvStats` row shows up here by itself.
            let counters = d
                .iter()
                .map(|(name, delta)| format!("\"{name}\": {delta}"))
                .collect::<Vec<_>>()
                .join(", ");
            lines.push(format!(
                "    {{\"workload\": \"{}\", \"prefetch\": {}, \"cluster\": {cluster}, \
                 \"degraded\": {degraded}, \"durable\": {durable}, \
                 \"sim_faults\": {sim_faults}, \"transport\": \"{}\", \
                 \"clients\": {n}, \"secs\": {:.3}, \
                 \"round_trips\": {}, \"rtps\": {rtps:.1}, \"p50_us\": {:.1}, \
                 \"p99_us\": {:.1}, {counters}, \
                 \"effect_spawn_ns_per_op\": {effect_spawn_ns}, \
                 \"effect_wal_ns_per_op\": {effect_wal_ns}, \
                 \"effect_evict_ns_per_op\": {effect_evict_ns}, \
                 \"effect_read_ns_per_op\": {effect_read_ns}, \
                 \"lock_hold_ns_per_transition\": {hold_per_transition}, \
                 \"lock_wait_ns_per_transition\": {wait_per_transition}, \
                 \"per_daemon_acquires_per_sec\": [{per_daemon_json}], \
                 \"daemon_threads_before_clients\": {daemon_threads}}}",
                workload.name(), spec.prefetch, point.transport,
                point.elapsed, point.round_trips, point.p50_us, point.p99_us
            ));
        }

        for server in &servers {
            server.shutdown();
        }
        drop(servers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // No top-level "cluster" key: every result line carries its own,
    // so runs at different cluster sizes can be merged into one file
    // (as the committed BENCH_daemon.json is).
    let json = format!(
        "{{\n  \"bench\": \"daemon_acquire_release_roundtrips\",\n  \"results\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    );
    std::fs::write(&out, json).unwrap();
    println!("wrote {out}");
}
