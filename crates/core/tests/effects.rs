//! Effect-execution tier tests: client-visible outcomes pinned against
//! the pre-tier daemon's recorded results, head-of-line isolation,
//! queue backpressure, supervision on helper threads, the simulator
//! lifecycle's single writer, and the saturated-stream digest
//! guarantee. All run the shipping topology (`DvServer::start`): one
//! effect helper per reactor shard, `min(cores, 8)` shards.

use simbatch::ParallelismMap;
use simfs_core::client::SimfsClient;
use simfs_core::driver::{PatternDriver, SimDriver};
use simfs_core::model::{ContextCfg, StepMath};
use simfs_core::server::{
    ClusterMember, DurabilityCfg, DvServer, ServerConfig, SimFaultSpec, ThreadSimLauncher,
};
use simfs_core::wire::{self, ClientKind, Request, Response};
use simstore::{Data, Dataset, StorageArea};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn step_bytes(key: u64) -> Vec<u8> {
    let mut ds = Dataset::new(key, key as f64);
    ds.set_attr("simulator", "synthetic");
    let field: Vec<f64> = (0..16).map(|i| (key * 31 + i) as f64).collect();
    ds.add_var("field", vec![16], Data::F64(field)).unwrap();
    ds.encode().to_vec()
}

struct Fixture {
    server: DvServer,
    storage: StorageArea,
    _dir: std::path::PathBuf,
}

struct FixtureCfg {
    cache_steps: u64,
    smax: u32,
    prefetch: bool,
    faults: SimFaultSpec,
    supervisor: Option<simfs_core::model::SupervisorCfg>,
}

impl Default for FixtureCfg {
    fn default() -> FixtureCfg {
        FixtureCfg {
            cache_steps: 1000,
            smax: 8,
            prefetch: false,
            faults: SimFaultSpec::default(),
            supervisor: None,
        }
    }
}

/// One daemon over a fresh storage area.
fn start_daemon(tag: &str, cfg: FixtureCfg) -> Fixture {
    let dir = std::env::temp_dir().join(format!(
        "simfs-effects-{}-{}-{:?}",
        tag,
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    let driver = Arc::new(
        PatternDriver::new("out-", ".sdf", 6)
            .with_parallelism(ParallelismMap::unconstrained(1, 2)),
    );
    let size = step_bytes(1).len() as u64;
    let steps = StepMath::new(1, 4, 64);
    let mut ctx = ContextCfg::new("test-ctx", steps, size, cfg.cache_steps * size)
        .with_policy("dcl")
        .with_smax(cfg.smax)
        .with_prefetch(cfg.prefetch);
    if let Some(sup) = cfg.supervisor {
        ctx = ctx.with_supervisor(sup);
    }
    let checksums: HashMap<u64, u64> = (1..=8)
        .map(|k| (k, simstore::fnv1a64(&step_bytes(k))))
        .collect();
    let launcher = Arc::new(
        ThreadSimLauncher::new(
            step_bytes,
            |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
            Duration::from_millis(2),
            Duration::from_millis(1),
        )
        .with_faults(cfg.faults),
    );
    let server = DvServer::start(
        ServerConfig {
            ctx,
            driver,
            storage: storage.clone(),
            launcher,
            checksums,
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: DurabilityCfg::default(),
        },
        "127.0.0.1:0",
    )
    .unwrap();
    Fixture {
        server,
        storage,
        _dir: dir,
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Polls the status API until no re-simulation is active, so the next
/// op's hit/miss classification is timing-independent.
fn settle(client: &mut SimfsClient) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = client.status().unwrap();
        if st.active_sims == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "sims never settled: {st:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A hand-rolled analysis session (Hello done): lets a test pipeline
/// frames on one connection and see every reply frame, which the
/// one-request-at-a-time `SimfsClient` cannot.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    raw_send(
        &mut sock,
        &Request::Hello {
            kind: ClientKind::Analysis,
            context: "test-ctx".into(),
            membership: None,
            epoch: None,
        },
    );
    match raw_recv(&mut sock) {
        Response::HelloOk { .. } => sock,
        other => panic!("expected HelloOk, got {other:?}"),
    }
}

fn raw_send(sock: &mut TcpStream, req: &Request) {
    wire::write_frame(sock, &req.encode()).unwrap();
}

fn raw_recv(sock: &mut TcpStream) -> Response {
    let frame = wire::read_frame(sock)
        .expect("reply never arrived")
        .expect("EOF before reply");
    Response::decode(&frame).unwrap()
}

/// The pooled ≡ inline contract, end to end over real sockets: a
/// deterministic request sequence must produce exactly the
/// client-visible outcomes the inline daemon (effects executed on the
/// reactor shard thread, before the effect tier was the only path)
/// produced for it — per-request ready/failed sets, the
/// hit/miss/restart/production/failure/eviction totals after
/// quiescence, and the final storage listing. The literals below were
/// recorded from that daemon at the commit that deleted it (stable over
/// repeated runs). The effect tier may only change *where* effects
/// execute, never *what* they do.
#[test]
fn pooled_and_inline_daemons_serve_identical_outcomes() {
    // A cache of 12 steps (3 intervals at B = 4) forces evictions
    // mid-sequence, exercising the pooled delete path; every acquire
    // is blocking and settled before the next op, so the eviction
    // decisions are deterministic.
    let pooled = start_daemon(
        "eq-pooled",
        FixtureCfg {
            cache_steps: 12,
            ..Default::default()
        },
    );
    let mut pc = SimfsClient::connect(pooled.server.addr(), "test-ctx").unwrap();

    enum Op {
        /// Keys, then the inline daemon's (ready, failed) sets.
        Acquire(&'static [u64], &'static [u64], &'static [u64]),
        Release(u64),
    }
    let ops = [
        Op::Acquire(&[2], &[2], &[]),
        Op::Acquire(&[6], &[6], &[]),
        Op::Acquire(&[2], &[2], &[]), // hit
        Op::Release(2),
        Op::Acquire(&[10], &[10], &[]),
        Op::Release(6),
        Op::Release(2),
        Op::Acquire(&[14], &[14], &[]), // pressure: evicts an unpinned interval
        Op::Acquire(&[18], &[18], &[]),
        Op::Acquire(&[9999], &[], &[9999]), // out of timeline: typed failure
        Op::Release(10),
        Op::Acquire(&[22, 26], &[22, 26], &[]),
        Op::Acquire(&[6], &[6], &[]), // re-misses after eviction
    ];
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Acquire(keys, want_ready, want_failed) => {
                let got = pc.acquire(keys).unwrap();
                assert_eq!(
                    sorted(got.ready.clone()),
                    *want_ready,
                    "op {i}: ready set diverges"
                );
                let got_failed: Vec<u64> = got.failed.iter().map(|(k, _)| *k).collect();
                assert_eq!(sorted(got_failed), *want_failed, "op {i}: failed set diverges");
                settle(&mut pc);
            }
            Op::Release(key) => pc.release(*key).unwrap(),
        }
    }
    pc.finalize().unwrap();

    // Give queued eviction deletes time to land before comparing the
    // on-disk listing.
    std::thread::sleep(Duration::from_millis(200));
    let ps = pooled.server.stats();
    for (name, got, inline) in [
        ("hits", ps.hits, 1),
        ("misses", ps.misses, 8),
        ("restarts", ps.restarts, 8),
        ("produced_steps", ps.produced_steps, 32),
        ("failures", ps.failures, 0),
        ("evictions", ps.evictions, 19),
    ] {
        assert_eq!(got, inline, "{name} diverges: pooled {got} vs inline {inline}");
    }
    assert!(
        ps.effects_offloaded > 0,
        "daemon never used its helpers: {ps:?}"
    );
    let inline_listing: Vec<String> = [6, 7, 8, 11, 14, 15, 18, 19, 22, 23, 26, 27]
        .iter()
        .map(|k| format!("out-{k:06}.sdf"))
        .collect();
    assert_eq!(
        pooled.storage.list().unwrap(),
        inline_listing,
        "final storage listing diverges"
    );
}

/// Head-of-line isolation, on one connection so the slow miss and the
/// hits share a reactor shard whatever the shard count: a miss whose
/// `launch()` takes 600 ms is in flight while ten pure-hit acquires are
/// timed behind it. The launch sleeps on the shard's effect helper, so
/// the hits must stay fast; executed on the shard thread itself (the
/// daemon before the effect tier) the same launch stalled every one of
/// them for its full duration.
#[test]
fn slow_miss_does_not_block_hits_with_effect_pool() {
    let fx = start_daemon(
        "hol-pooled",
        FixtureCfg {
            faults: SimFaultSpec {
                launch_delay: Duration::from_millis(600),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Warm key 2 so the timed acquires are pure fast-path hits. The
    // warm-up miss pays the launch delay once, before timing starts.
    let mut warm = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = warm.acquire(&[2]).unwrap();
    assert!(status.ok(), "{status:?}");
    settle(&mut warm);

    let mut sock = raw_connect(fx.server.addr());
    raw_send(&mut sock, &Request::Acquire { req_id: 1, keys: vec![30] });
    // `Queued` is flushed by the same helper job that then enters the
    // launch: once it is here, the 600 ms launch is under way.
    match raw_recv(&mut sock) {
        Response::Queued { req_id: 1, key: 30, .. } => {}
        other => panic!("expected Queued for the miss, got {other:?}"),
    }
    let mut worst = Duration::ZERO;
    for req_id in 2..12 {
        let t0 = Instant::now();
        raw_send(&mut sock, &Request::Acquire { req_id, keys: vec![2] });
        match raw_recv(&mut sock) {
            Response::Ready { req_id: got, key: 2 } if got == req_id => {}
            other => panic!("hit {req_id} answered with {other:?}"),
        }
        worst = worst.max(t0.elapsed());
        raw_send(&mut sock, &Request::Release { key: 2 });
    }
    assert!(
        worst < Duration::from_millis(200),
        "hits stalled behind the slow miss, worst was {worst:?}"
    );
    // The miss itself completes once its launch returns.
    match raw_recv(&mut sock) {
        Response::Ready { req_id: 1, key: 30 } => {}
        other => panic!("expected Ready for the miss, got {other:?}"),
    }
    raw_send(&mut sock, &Request::Bye);
    warm.finalize().unwrap();
}

/// Overflowing the real effect queue from one connection must park the
/// submitting shard thread — backpressure, not loss. One miss whose
/// `launch()` takes 300 ms occupies the shard's helper; 400 pipelined
/// `Bitrep`s (one effect job each) pile up behind it, past the queue's
/// capacity. Every reply must still arrive, in order, nothing may
/// deadlock, and the stall must be visible in `helper_queue_full`.
#[test]
fn saturated_effect_queue_applies_backpressure_without_loss() {
    use std::io::Write;
    let fx = start_daemon(
        "saturate",
        FixtureCfg {
            faults: SimFaultSpec {
                launch_delay: Duration::from_millis(300),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut sock = raw_connect(fx.server.addr());
    const BURST: u64 = 400;
    let mut pipelined = Vec::new();
    let miss = Request::Acquire { req_id: 0, keys: vec![2] };
    let bitreps = (1..=BURST).map(|req_id| Request::Bitrep { req_id, key: 30 });
    for req in std::iter::once(miss).chain(bitreps) {
        let body = req.encode();
        pipelined.extend_from_slice(&(body.len() as u32).to_le_bytes());
        pipelined.extend_from_slice(&body);
    }
    sock.write_all(&pipelined).unwrap();

    // Per-queue FIFO: the miss's `Queued`, then every Bitrep reply in
    // submission order (key 30 was never materialized, so each is a
    // typed `Failed`), with the miss's `Ready` landing once its sim has
    // produced — somewhere among them.
    let (mut next_bitrep, mut queued, mut ready) = (1, false, false);
    while next_bitrep <= BURST || !ready {
        match raw_recv(&mut sock) {
            Response::Queued { req_id: 0, key: 2, .. } => queued = true,
            Response::Ready { req_id: 0, key: 2 } => ready = true,
            Response::Failed { req_id, key: 30, .. } => {
                assert_eq!(req_id, next_bitrep, "Bitrep replies must arrive in order");
                next_bitrep += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(queued, "the miss was never acknowledged as queued");
    let stats = fx.server.stats();
    assert_eq!(stats.failures, 0, "{stats:?}");
    assert_eq!(stats.restarts, 1, "{stats:?}");
    assert!(stats.effects_offloaded > BURST, "{stats:?}");
    assert!(
        stats.helper_queue_full >= 1,
        "queue never filled — backpressure untested: {stats:?}"
    );
    raw_send(&mut sock, &Request::Release { key: 2 });
    raw_send(&mut sock, &Request::Bye);
}

/// The simulator lifecycle has one writer. Twelve short sims are
/// launched by one commit whose `launch()` calls take 100 ms each, all
/// on the helper of the requesting connection's queue; every sim whose
/// own connection landed on that queue (all of them on one shard, every
/// `shards`-th otherwise — connections are placed round-robin) has its
/// `FileProduced`/`SimFinished` events parked behind the remaining
/// launches while its thread exits and the reaper collects the exit. An
/// exit turned into `SimFinished` there overtakes the sim's own queued
/// productions, and the DV writes a finished sim off as failed and
/// retries it. The exit of a sim that said `Hello` must be ignored.
#[test]
fn finished_sim_is_not_failed_by_its_own_exit() {
    let fx = start_daemon(
        "one-writer",
        FixtureCfg {
            smax: 16,
            faults: SimFaultSpec {
                launch_delay: Duration::from_millis(100),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    // One key in each of twelve restart intervals (B = 4).
    let keys: Vec<u64> = (0..12).map(|i| 2 + i * 4).collect();
    let status = client.acquire(&keys).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(sorted(status.ready.clone()), keys);
    settle(&mut client);
    let stats = fx.server.stats();
    assert_eq!(stats.failures, 0, "a finished sim was failed: {stats:?}");
    assert_eq!(stats.sim_retries, 0, "{stats:?}");
    assert_eq!(stats.restarts, keys.len() as u64, "{stats:?}");
    client.finalize().unwrap();
}

/// The PR 8 supervision ladder (transient crash retry + output
/// integrity) on the default topology: retries and corrupt-output
/// kills are themselves effects, executed on helper threads.
#[test]
fn fault_supervision_holds_with_effect_pool() {
    let fx = start_daemon(
        "supervised",
        FixtureCfg {
            smax: 4,
            faults: SimFaultSpec {
                crash_quota: 1,
                corrupt_every: 7,
                ..Default::default()
            },
            supervisor: Some(simfs_core::model::SupervisorCfg {
                backoff_base: simkit::Dur::from_millis(2),
                backoff_cap: simkit::Dur::from_millis(10),
                quarantine: simkit::Dur::from_secs(2),
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    // Key 2's first sim crashes (quota 1); key 7's first output is
    // published corrupt. Both intervals must still come Ready.
    let status = client.acquire(&[2]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(status.ready, vec![2]);
    let status = client.acquire(&[7]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(status.ready, vec![7]);
    let stats = fx.server.stats();
    assert!(stats.sim_retries >= 1, "{stats:?}");
    assert_eq!(stats.corrupt_outputs, 1, "{stats:?}");
    assert_eq!(stats.intervals_poisoned, 0, "{stats:?}");
    assert!(stats.effects_offloaded > 0, "{stats:?}");
    client.finalize().unwrap();
}

/// A single saturated client must not lose digest records: ~3000
/// pure-hit acquires arrive far faster than the 20 ms reactor tick
/// drains, so without the high-water drain the 1024-record access ring
/// would drop roughly half the stream. The adaptive drain keeps
/// `digest_dropped` at zero, so the prefetch agents see every access.
#[test]
fn saturated_single_client_keeps_full_digest() {
    let fx = start_daemon(
        "digest",
        FixtureCfg {
            prefetch: true,
            ..Default::default()
        },
    );
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[2]).unwrap();
    assert!(status.ok(), "{status:?}");
    settle(&mut client);
    for _ in 0..3000 {
        let status = client.acquire(&[2]).unwrap();
        assert!(status.ok(), "{status:?}");
        client.release(2).unwrap();
    }
    // One more slow-path transition plus a couple of ticks so the last
    // partial ring drains before counting.
    std::thread::sleep(Duration::from_millis(60));
    let stats = fx.server.stats();
    assert_eq!(
        stats.digest_dropped, 0,
        "saturated stream dropped digest records: {stats:?}"
    );
    assert!(stats.digest_replayed >= 3000, "{stats:?}");
    client.finalize().unwrap();
}
