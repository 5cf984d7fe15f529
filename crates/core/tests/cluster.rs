//! Multi-daemon cluster integration tests: K daemon processes (here:
//! K `DvServer`s in one process, each with its own listener, reactor
//! and launcher) composing into one logical control plane, driven
//! through DVLib's [`DvCluster`] routing tier.

use simbatch::ParallelismMap;
use simfs_core::client::{DvCluster, SimfsClient};
use simfs_core::driver::{PatternDriver, SimDriver};
use simfs_core::dv::ClusterMember;
use simfs_core::model::{ContextCfg, StepMath};
use simfs_core::server::{DurabilityCfg, DvServer, ServerConfig, ThreadSimLauncher};
use simstore::{Data, Dataset, StorageArea};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn step_bytes(key: u64) -> Vec<u8> {
    let mut ds = Dataset::new(key, key as f64);
    ds.set_attr("simulator", "synthetic");
    let field: Vec<f64> = (0..16).map(|i| (key * 31 + i) as f64).collect();
    ds.add_var("field", vec![16], Data::F64(field)).unwrap();
    ds.encode().to_vec()
}

/// B = 4, N = 64 — the same timeline the daemon tests use.
fn steps() -> StepMath {
    StepMath::new(1, 4, 64)
}

/// Starts one cluster member (or, with `ClusterMember::SOLO`, the
/// unsharded reference daemon) over `dir`. Prefetch off by default —
/// the deterministic configuration the equivalence tests pin; the
/// digest tests opt in via [`start_member_prefetch`].
fn start_member(
    dir: &std::path::Path,
    member: ClusterMember,
    cache_steps: u64,
    smax: u32,
    dv_shards: u32,
) -> (DvServer, StorageArea) {
    start_member_prefetch(dir, member, cache_steps, smax, dv_shards, false)
}

/// [`start_member`] with an explicit prefetch switch.
fn start_member_prefetch(
    dir: &std::path::Path,
    member: ClusterMember,
    cache_steps: u64,
    smax: u32,
    dv_shards: u32,
    prefetch: bool,
) -> (DvServer, StorageArea) {
    start_member_cfg(
        dir,
        member,
        cache_steps,
        smax,
        dv_shards,
        prefetch,
        "127.0.0.1:0",
        DurabilityCfg::default(),
    )
    .unwrap()
}

/// The fully general member constructor: explicit listen address and
/// durability, fallible (the kill-9 worker retries bind races).
#[allow(clippy::too_many_arguments)]
fn start_member_cfg(
    dir: &std::path::Path,
    member: ClusterMember,
    cache_steps: u64,
    smax: u32,
    dv_shards: u32,
    prefetch: bool,
    listen: &str,
    durability: DurabilityCfg,
) -> std::io::Result<(DvServer, StorageArea)> {
    let storage = StorageArea::create(dir, u64::MAX)?;
    let size = step_bytes(1).len() as u64;
    let ctx = ContextCfg::new("test-ctx", steps(), size, cache_steps * size)
        .with_policy("lru")
        .with_smax(smax)
        .with_prefetch(prefetch);
    let launcher = Arc::new(ThreadSimLauncher::new(
        step_bytes,
        |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
        Duration::from_millis(3),
        Duration::from_millis(1),
    ));
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
            dv_shards,
            cluster: member,
            durability,
        },
        listen,
    )?;
    Ok((server, storage))
}

/// K members over one shared storage area (the paper's layout: one
/// parallel-FS directory, many control-plane daemons).
fn start_cluster(
    tag: &str,
    k: u32,
    cache_steps: u64,
    smax: u32,
    dv_shards: u32,
) -> (Vec<DvServer>, StorageArea, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "simfs-cluster-{}-{}-{:?}",
        tag,
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut servers = Vec::new();
    let mut storage = None;
    for index in 0..k {
        let (server, s) =
            start_member(&dir, ClusterMember::new(index, k), cache_steps, smax, dv_shards);
        servers.push(server);
        storage.get_or_insert(s);
    }
    (servers, storage.unwrap(), dir)
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The cluster ≡ single-daemon contract, end to end over real sockets:
/// the same deterministic request sequence driven through a 3-daemon
/// cluster (via [`DvCluster`]) and through one unsharded daemon (via
/// [`SimfsClient`]) must produce identical client-visible outcomes —
/// per-request ready/failed sets and, after quiescence, identical
/// hit/miss/restart/production totals. This is the wire-level mirror of
/// the `ShardedDv` equivalence property tests.
#[test]
fn three_daemon_cluster_matches_single_daemon() {
    // Big cache (no evictions on either side) keeps the outcome
    // deterministic; smax 6 gives each member a slice of 2.
    // Two local DV shards per member: the cluster tier and the
    // intra-process tier compose (member k's local shard s is flat
    // shard s*3 + k of the 6-way split).
    let (cluster, _cstorage, cdir) = start_cluster("eq", 3, 1000, 6, 2);
    let sdir = std::env::temp_dir().join(format!("simfs-cluster-eq-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sdir);
    let (single, _sstorage) = start_member(&sdir, ClusterMember::SOLO, 1000, 6, 1);

    let addrs: Vec<SocketAddr> = cluster.iter().map(DvServer::addr).collect();
    let mut cc = DvCluster::connect(&addrs, "test-ctx", steps()).unwrap();
    assert_eq!(cc.members(), 3);
    let mut sc = SimfsClient::connect(single.addr(), "test-ctx").unwrap();

    // A fixed op sequence touching every member: misses, hits on
    // already-materialized keys, a multi-key acquire spanning all
    // members, an invalid key, releases (write-coalesced on the member
    // connections). Keys are only re-touched once their interval is
    // fully settled by a prior blocking acquire of the same key, so
    // hit/miss classification is timing-independent.
    enum Op {
        Acquire(&'static [u64]),
        Release(u64),
    }
    let ops = [
        Op::Acquire(&[6]),
        Op::Acquire(&[2]),
        Op::Release(2),
        Op::Release(6),
        Op::Acquire(&[6]),
        Op::Acquire(&[2, 6, 10, 14]),
        Op::Acquire(&[9999]),
        Op::Acquire(&[33]),
        Op::Acquire(&[64]),
    ];
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Acquire(keys) => {
                let got = cc.acquire(keys).unwrap();
                let want = sc.acquire(keys).unwrap();
                assert_eq!(
                    sorted(got.ready.clone()),
                    sorted(want.ready.clone()),
                    "op {i}: ready sets diverge"
                );
                let got_failed: Vec<u64> = got.failed.iter().map(|(k, _)| *k).collect();
                let want_failed: Vec<u64> = want.failed.iter().map(|(k, _)| *k).collect();
                assert_eq!(
                    sorted(got_failed),
                    sorted(want_failed),
                    "op {i}: failed sets diverge"
                );
            }
            Op::Release(key) => {
                cc.release(*key).unwrap();
                sc.release(*key).unwrap();
            }
        }
    }
    cc.flush().unwrap();
    sc.flush().unwrap();

    // Quiesce: six launches (for keys 6, 2, 10, 14, 33, 64); the first
    // five produce their whole 4-step interval, while 64 is a boundary
    // key that re-simulates only itself (§II-A restart dump).
    const EXPECT_PRODUCED: u64 = 5 * 4 + 1;
    let deadline = Instant::now() + Duration::from_secs(15);
    let (mut cs, mut ss) = (cc.status().unwrap(), sc.status().unwrap());
    while (cs.produced_steps, cs.active_sims, ss.produced_steps, ss.active_sims)
        != (EXPECT_PRODUCED, 0, EXPECT_PRODUCED, 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
        cs = cc.status().unwrap();
        ss = sc.status().unwrap();
    }
    assert_eq!(cs.restarts, ss.restarts, "cluster {cs:?} vs single {ss:?}");
    assert_eq!(cs.produced_steps, EXPECT_PRODUCED, "cluster never quiesced: {cs:?}");
    assert_eq!(ss.produced_steps, EXPECT_PRODUCED, "single never quiesced: {ss:?}");
    assert_eq!(cs.hits, ss.hits, "cluster {cs:?} vs single {ss:?}");
    assert_eq!(cs.misses, ss.misses, "cluster {cs:?} vs single {ss:?}");

    cc.finalize().unwrap();
    sc.finalize().unwrap();
    for server in &cluster {
        server.shutdown();
    }
    single.shutdown();
    drop(cluster);
    drop(single);
    let _ = std::fs::remove_dir_all(&cdir);
    let _ = std::fs::remove_dir_all(&sdir);
}

/// Client teardown fans out: a [`DvCluster`] dropped without finalize
/// closes every member connection, so each daemon runs `ClientGone`
/// and releases this client's pins — including fast-path pins held in
/// reactor-thread-local state.
#[test]
fn cluster_teardown_fans_out_to_every_member() {
    let (cluster, _storage, dir) = start_cluster("teardown", 3, 1000, 6, 2);
    let addrs: Vec<SocketAddr> = cluster.iter().map(DvServer::addr).collect();
    // Keys 2, 6, 10 live on members 0, 1, 2 respectively.
    let keys = [2u64, 6, 10];
    {
        let mut cc = DvCluster::connect(&addrs, "test-ctx", steps()).unwrap();
        let status = cc.acquire(&keys).unwrap();
        assert!(status.ok(), "{status:?}");
        for &k in &keys {
            cc.release(k).unwrap();
        }
        cc.flush().unwrap();
        // Re-acquire: now warm, so every member grants a *fast* pin to
        // this client's connection.
        let status = cc.acquire(&keys).unwrap();
        assert!(status.ok(), "{status:?}");
        for (member, &key) in cluster.iter().zip(&keys) {
            assert_eq!(
                member.fast_pinned("test-ctx", key),
                Some(true),
                "member should hold a fast pin on {key}"
            );
        }
        // Dropped here without finalize: teardown must reach all three.
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for (member, &key) in cluster.iter().zip(&keys) {
        while member.fast_pinned("test-ctx", key) == Some(true) {
            assert!(
                Instant::now() < deadline,
                "member never released the departed client's pin on {key}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(member.fast_pinned("test-ctx", key), Some(false));
    }
    for server in &cluster {
        server.shutdown();
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cluster member refuses keys whose interval another daemon owns:
/// accepting them would double-produce the interval under the wrong
/// budget slice. (DVLib never sends them; this pins the guard against
/// misrouting clients.)
#[test]
fn member_rejects_foreign_interval() {
    let dir = std::env::temp_dir().join(format!(
        "simfs-cluster-foreign-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // Member 1 of 3: owns intervals 1, 4, 7, ... — not key 2's interval 0.
    let (server, storage) = start_member(&dir, ClusterMember::new(1, 3), 1000, 6, 2);
    let mut client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[2]).unwrap();
    assert!(!status.ok());
    assert_eq!(status.failed.len(), 1);
    assert_eq!(status.failed[0].0, 2);
    assert!(
        status.failed[0].1.reason.contains("cluster member 0"),
        "reason should name the owner: {}",
        status.failed[0].1
    );
    assert!(!storage.exists("out-000002.sdf"), "foreign interval must not launch");
    // Invalid keys are nobody's: every member reports the uniform
    // timeline error, not a bogus ownership claim.
    let status = client.acquire(&[9999]).unwrap();
    assert_eq!(status.failed.len(), 1);
    assert!(
        status.failed[0].1.reason.contains("outside the timeline"),
        "invalid key must get the timeline error on any member: {}",
        status.failed[0].1
    );
    // A key it does own works normally (interval 1 → keys 5..=8).
    let status = client.acquire(&[6]).unwrap();
    assert!(status.ok(), "{status:?}");
    // The same ownership rule and serve path under the other acquire
    // mode. Key 6 is resident now, so a native re-acquire is one
    // `Ready` and no `Queued`; member 2 (member 1's ring successor, same
    // storage area), asked to take key 6 over from a "dead" member 1,
    // primes interval 1 from the shared files and must answer in the
    // same shape, launching nothing. Keys the takeover tag does not
    // cover are refused per key: 2 is member 0's, 10 is the taker's own.
    let native = client.acquire(&[6]).unwrap();
    let (taker, _) = start_member(&dir, ClusterMember::new(2, 3), 1000, 6, 2);
    let mut tc = SimfsClient::connect(taker.addr(), "test-ctx").unwrap();
    let mut req = tc.takeover_acquire_nb(&[6, 2, 10], 1, 1).unwrap();
    let taken = tc.wait(&mut req).unwrap();
    assert_eq!(native.ready, vec![6]);
    assert_eq!(taken.ready, native.ready);
    assert_eq!(
        (native.est_wait, taken.est_wait),
        (None, None),
        "a resident key is never Queued"
    );
    assert!(native.failed.is_empty());
    let refused = |key: u64, why: &str| {
        taken
            .failed
            .iter()
            .any(|(k, e)| *k == key && e.reason.contains(why))
    };
    assert_eq!(taken.failed.len(), 2, "{taken:?}");
    assert!(refused(2, "not to dead member 1"), "{taken:?}");
    assert!(refused(10, "without the takeover tag"), "{taken:?}");
    assert_eq!(taker.stats().restarts, 0, "a primed resident key must not launch");
    assert_eq!(taker.stats().takeover_intervals_primed, 1);
    tc.finalize().unwrap();
    taker.shutdown();
    client.finalize().unwrap();
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The hello-time membership handshake: a client whose cluster map or
/// step math disagrees with the daemon is rejected with an error that
/// names both views — instead of being silently served misrouted
/// intervals under the wrong budget slice.
fn must_reject<T>(result: std::io::Result<T>, what: &str) -> std::io::Error {
    match result {
        Ok(_) => panic!("{what} must be rejected"),
        Err(e) => e,
    }
}

#[test]
fn hello_rejects_mismatched_membership() {
    use simfs_core::wire::Membership;
    let dir = std::env::temp_dir().join(format!(
        "simfs-cluster-hello-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (server, _storage) = start_member(&dir, ClusterMember::new(1, 3), 1000, 6, 1);
    let good_hash = steps().config_hash();

    // Wrong member index: the client would route member 2's intervals
    // here.
    let err = must_reject(
        SimfsClient::connect_with(
            server.addr(),
            "test-ctx",
            Some(Membership { index: 2, size: 3, steps_hash: good_hash }),
        ),
        "index mismatch",
    );
    assert!(
        err.to_string().contains("membership mismatch"),
        "unexpected error: {err}"
    );

    // Wrong cluster size: every interval hash diverges.
    let err = must_reject(
        SimfsClient::connect_with(
            server.addr(),
            "test-ctx",
            Some(Membership { index: 1, size: 2, steps_hash: good_hash }),
        ),
        "size mismatch",
    );
    assert!(err.to_string().contains("membership mismatch"), "{err}");

    // Wrong step math: same member map, different cadence hash — the
    // subtle one a silent daemon would misroute on.
    let err = must_reject(
        SimfsClient::connect_with(
            server.addr(),
            "test-ctx",
            Some(Membership { index: 1, size: 3, steps_hash: good_hash ^ 1 }),
        ),
        "steps-hash mismatch",
    );
    assert!(err.to_string().contains("steps hash"), "{err}");

    // The correct claim is accepted and serves owned intervals.
    let mut ok = SimfsClient::connect_with(
        server.addr(),
        "test-ctx",
        Some(Membership { index: 1, size: 3, steps_hash: good_hash }),
    )
    .unwrap();
    let status = ok.acquire(&[6]).unwrap(); // interval 1: member 1's
    assert!(status.ok(), "{status:?}");
    ok.finalize().unwrap();

    // Membership-less hellos (solo tools, simulators) still connect.
    let bare = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    drop(bare);

    // DvCluster wires the check end to end: a divergent StepMath fails
    // at connect time.
    let err = must_reject(
        DvCluster::connect(&[server.addr()], "test-ctx", StepMath::new(1, 4, 68)),
        "cluster connect with divergent steps",
    );
    assert!(err.to_string().contains("membership mismatch"), "{err}");

    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cluster half of the access-stream digest: members of a
/// prefetching cluster see only their routed subsequence locally, so
/// DVLib forwards the full pre-routing stream — and every member's
/// agents must end up observing it (each member counts the replayed
/// records whose keys it owns).
#[test]
fn clustered_members_observe_forwarded_digests() {
    let dir = std::env::temp_dir().join(format!(
        "simfs-cluster-digest-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut servers = Vec::new();
    for index in 0..2 {
        let (server, _storage) =
            start_member_prefetch(&dir, ClusterMember::new(index, 2), 1000, 6, 2, true);
        servers.push(server);
    }
    let addrs: Vec<SocketAddr> = servers.iter().map(DvServer::addr).collect();
    let mut cc = DvCluster::connect(&addrs, "test-ctx", steps()).unwrap();

    // A sequential scan across both members' intervals: the full
    // 16-access stream must reach both sets of agents even though each
    // member serves only 8 of the keys.
    const SCAN: u64 = 16;
    for key in 1..=SCAN {
        let status = cc.acquire(&[key]).unwrap();
        assert!(status.ok(), "{status:?}");
        cc.release(key).unwrap();
    }
    cc.flush().unwrap();

    // Each member owns every other interval: 8 of the 16 records each.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let replayed: Vec<u64> = servers
            .iter()
            .map(|s| s.stats().digest_replayed)
            .collect();
        if replayed.iter().all(|&r| r >= SCAN / 2) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "members never observed the forwarded stream: {replayed:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    cc.finalize().unwrap();
    for server in &servers {
        server.shutdown();
    }
    drop(servers);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash recovery with a real kill -9
// ---------------------------------------------------------------------

/// Not a test on its own: the subprocess body for the kill-9 tests.
/// The parent re-execs this test binary with `member_worker --exact`
/// and the `SIMFS_KILL9_*` environment set; it then runs cluster member
/// `SIMFS_KILL9_MEMBER` (default 1) of 3 with a durable WAL until the
/// parent SIGKILLs it. Without the environment (a normal `cargo test`
/// run) it is a no-op.
#[test]
fn member_worker() {
    let Ok(port) = std::env::var("SIMFS_KILL9_PORT") else {
        return;
    };
    let dir = std::path::PathBuf::from(std::env::var("SIMFS_KILL9_DIR").unwrap());
    let recover = std::env::var("SIMFS_KILL9_RECOVER").as_deref() == Ok("1");
    let member = std::env::var("SIMFS_KILL9_MEMBER").map_or(1, |m| m.parse().unwrap());
    let listen = format!("127.0.0.1:{port}");
    // The previous (killed) instance's listener may linger briefly;
    // retry the bind like a restarted daemon would.
    let deadline = Instant::now() + Duration::from_secs(10);
    let (_server, _storage) = loop {
        match start_member_cfg(
            &dir,
            ClusterMember::new(member, 3),
            1000,
            6,
            2,
            false,
            &listen,
            DurabilityCfg::durable(recover),
        ) {
            Ok(pair) => break pair,
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("worker cannot serve {listen}: {e}"),
        }
    };
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn spawn_member_worker(
    member: u32,
    dir: &std::path::Path,
    port: u16,
    recover: bool,
) -> std::process::Child {
    std::process::Command::new(std::env::current_exe().unwrap())
        .args(["member_worker", "--exact"])
        .env("SIMFS_KILL9_MEMBER", member.to_string())
        .env("SIMFS_KILL9_DIR", dir)
        .env("SIMFS_KILL9_PORT", port.to_string())
        .env("SIMFS_KILL9_RECOVER", if recover { "1" } else { "0" })
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn member worker")
}

/// Polls until the worker's listener accepts (it handles the probe
/// connection's EOF like any departed client).
fn await_listening(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match std::net::TcpStream::connect(addr) {
            Ok(_) => return,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("worker on {addr} never came up: {e}"),
        }
    }
}

/// Sorted `.sdf` listing of a storage directory — the client-visible
/// residency, excluding the WAL (`dv-member-*.wal` is daemon-private).
fn sdf_listing(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".sdf"))
        .collect();
    names.sort();
    names
}

/// Acquires `keys` on the faulted cluster `cc` and on the uncrashed
/// reference `rc`; the ready and failed sets must agree.
fn acquire_both(cc: &mut DvCluster, rc: &mut DvCluster, keys: &[u64], tag: &str) {
    let got = cc.acquire(keys).unwrap();
    let want = rc.acquire(keys).unwrap();
    assert_eq!(
        sorted(got.ready.clone()),
        sorted(want.ready.clone()),
        "{tag}: ready sets diverge"
    );
    let got_failed: Vec<u64> = got.failed.iter().map(|(k, _)| *k).collect();
    let want_failed: Vec<u64> = want.failed.iter().map(|(k, _)| *k).collect();
    assert_eq!(sorted(got_failed), sorted(want_failed), "{tag}: failed sets diverge");
}

/// Waits until the reference has produced `produced` steps and neither
/// cluster runs a simulation (a restarted member's counters reset, so
/// the faulted side is compared on activity only).
fn quiesce(cc: &mut DvCluster, rc: &mut DvCluster, produced: u64, tag: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (c, r) = (cc.status().unwrap(), rc.status().unwrap());
        if r.produced_steps == produced && r.active_sims == 0 && c.active_sims == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "{tag} never quiesced: {c:?} vs {r:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The tentpole end-to-end: a 3-member cluster where member 1 is a real
/// child process with a durable WAL. It is SIGKILLed while the client
/// holds pins on its interval, restarted with `--recover`, and the
/// client — auto-reconnect on — re-handshakes and re-asserts its pins.
/// Every per-request outcome and the final storage listing must match a
/// cluster that never crashed.
#[test]
fn kill9_member_recovers_with_reassert() {
    // Reference: an uncrashed in-process 3-member cluster.
    let (reference, _rstorage, ref_dir) = start_cluster("kill9-ref", 3, 1000, 6, 2);
    let ref_addrs: Vec<SocketAddr> = reference.iter().map(DvServer::addr).collect();
    let mut rc = DvCluster::connect(&ref_addrs, "test-ctx", steps()).unwrap();

    // Faulted cluster: members 0 and 2 in-process, member 1 a child.
    let dir = std::env::temp_dir().join(format!("simfs-cluster-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (m0, _storage) = start_member(&dir, ClusterMember::new(0, 3), 1000, 6, 2);
    let (m2, _) = start_member(&dir, ClusterMember::new(2, 3), 1000, 6, 2);
    let port = {
        // Reserve a port for the worker (bind-then-drop).
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let worker_addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let child = spawn_member_worker(1, &dir, port, false);
    await_listening(worker_addr);

    let addrs = [m0.addr(), worker_addr, m2.addr()];
    let mut cc = DvCluster::connect(&addrs, "test-ctx", steps()).unwrap();
    cc.set_auto_reconnect(true);
    cc.set_op_timeout(Some(Duration::from_secs(10)));

    // Phase A — pins land on every member; 5 and 6 (member 1's
    // interval 1) stay pinned across the crash. 6 is a slow-path pin
    // (granted with the launch), 5 a fast-path hit pin: the WAL must
    // cover both grant paths.
    acquire_both(&mut cc, &mut rc, &[6], "A:6");
    acquire_both(&mut cc, &mut rc, &[5], "A:5");
    acquire_both(&mut cc, &mut rc, &[2], "A:2");
    acquire_both(&mut cc, &mut rc, &[10], "A:10");

    // Quiesce both clusters so no sim is mid-production at the kill.
    const PRODUCED_A: u64 = 3 * 4; // intervals 1, 0, 2 fully materialized
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (c, r) = (cc.status().unwrap(), rc.status().unwrap());
        if (c.produced_steps, c.active_sims, r.produced_steps, r.active_sims)
            == (PRODUCED_A, 0, PRODUCED_A, 0)
        {
            break;
        }
        assert!(Instant::now() < deadline, "clusters never quiesced: {c:?} vs {r:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // kill -9 member 1 mid-pin, then restart it with --recover.
    let mut child = child;
    child.kill().unwrap();
    child.wait().unwrap();
    let mut child = spawn_member_worker(1, &dir, port, true);
    await_listening(worker_addr);

    // Phase B — the next touch of member 1 rides the reconnect path:
    // re-handshake, cross-epoch re-assertion of the pins on 5 and 6,
    // then the acquire itself (a warm hit: recovery re-primed the
    // interval from storage).
    acquire_both(&mut cc, &mut rc, &[7], "B:7");
    assert!(cc.reconnects() >= 1, "client never reconnected");
    assert!(cc.pins_reasserted() >= 2, "pins on 5 and 6 must survive via re-assertion");
    // The re-asserted pins are live: releasing and re-acquiring behaves
    // exactly as on the uncrashed cluster.
    cc.release(6).unwrap();
    rc.release(6).unwrap();
    acquire_both(&mut cc, &mut rc, &[6], "B:6 again");
    acquire_both(&mut cc, &mut rc, &[33], "B:33");
    acquire_both(&mut cc, &mut rc, &[2, 6, 10], "B:multi");

    // Quiesce phase B's one new launch (interval 8 for key 33).
    quiesce(&mut cc, &mut rc, PRODUCED_A + 4, "phase B");

    // Recovery equivalence, the client-visible half: identical
    // materialized steps on disk.
    assert_eq!(
        sdf_listing(&dir),
        sdf_listing(&ref_dir),
        "storage diverged from the uncrashed reference"
    );

    cc.finalize().unwrap();
    rc.finalize().unwrap();
    child.kill().unwrap();
    child.wait().unwrap();
    m0.shutdown();
    m2.shutdown();
    for server in &reference {
        server.shutdown();
    }
    drop((m0, m2, reference));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Interval failover, end to end with a real kill -9: member 1 dies
/// mid-pin and is NOT restarted — with failover enabled, every request
/// still completes because member 2 (the successor-rule taker) primes
/// the dead member's intervals from shared storage, re-simulates the
/// cold ones under its own budget, and parks the re-homed pins. When
/// member 1 later restarts with `--recover`, the client hands the
/// parked pins back and the final storage listing matches a cluster
/// that never crashed.
#[test]
fn kill9_member_fails_over_to_taker_and_hands_back() {
    // Reference: an uncrashed in-process 3-member cluster.
    let (reference, _rstorage, ref_dir) = start_cluster("failover-ref", 3, 1000, 6, 2);
    let ref_addrs: Vec<SocketAddr> = reference.iter().map(DvServer::addr).collect();
    let mut rc = DvCluster::connect(&ref_addrs, "test-ctx", steps()).unwrap();

    // Faulted cluster: members 0 and 2 in-process, member 1 a child.
    let dir = std::env::temp_dir().join(format!("simfs-cluster-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (m0, _storage) = start_member(&dir, ClusterMember::new(0, 3), 1000, 6, 2);
    let (m2, _) = start_member(&dir, ClusterMember::new(2, 3), 1000, 6, 2);
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let worker_addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let child = spawn_member_worker(1, &dir, port, false);
    await_listening(worker_addr);

    let addrs = [m0.addr(), worker_addr, m2.addr()];
    let mut cc = DvCluster::connect(&addrs, "test-ctx", steps()).unwrap();
    cc.set_auto_reconnect(true);
    cc.set_failover(true);
    // Short probe window: down-detection in ~1.5 s instead of 30.
    cc.set_down_window(Duration::from_millis(1500));

    // Phase A — pins on every member; 5 and 6 (member 1's interval 1)
    // stay pinned across the crash and will be re-homed onto the taker.
    acquire_both(&mut cc, &mut rc, &[6], "A:6");
    acquire_both(&mut cc, &mut rc, &[5], "A:5");
    acquire_both(&mut cc, &mut rc, &[2], "A:2");
    acquire_both(&mut cc, &mut rc, &[10], "A:10");

    const PRODUCED_A: u64 = 3 * 4; // intervals 1, 0, 2 fully materialized
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (c, r) = (cc.status().unwrap(), rc.status().unwrap());
        if (c.produced_steps, c.active_sims, r.produced_steps, r.active_sims)
            == (PRODUCED_A, 0, PRODUCED_A, 0)
        {
            break;
        }
        assert!(Instant::now() < deadline, "clusters never quiesced: {c:?} vs {r:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // kill -9 member 1 — and do NOT restart it.
    let mut child = child;
    child.kill().unwrap();
    child.wait().unwrap();

    // Phase B — every request completes without member 1.
    // 7: dead member's warm interval — the taker primes it from shared
    // storage. The first touch also re-homes the pins on 5 and 6.
    acquire_both(&mut cc, &mut rc, &[7], "B:7 takeover");
    assert!(cc.degraded(), "down member must be detected");
    assert_eq!(cc.members_down(), 1);
    assert!(
        cc.taken_over_pins() >= 2,
        "pins on 5 and 6 must be re-homed: {}",
        cc.taken_over_pins()
    );
    // 17: dead member's cold interval — the taker re-simulates it.
    acquire_both(&mut cc, &mut rc, &[17], "B:17 cold takeover");
    // Native members are unaffected.
    acquire_both(&mut cc, &mut rc, &[2, 10], "B:native");
    // Takeover pins are live pins: release + re-acquire routes to the
    // taker and behaves exactly as on the uncrashed cluster.
    cc.release(6).unwrap();
    rc.release(6).unwrap();
    acquire_both(&mut cc, &mut rc, &[6], "B:6 again");
    assert!(
        m2.stats().takeover_acquires >= 1,
        "the taker must have served tagged takeover acquires"
    );

    // Quiesce phase B (interval 4 re-simulated: by the taker on the
    // faulted side, by member 1 on the reference).
    const PRODUCED_REF: u64 = PRODUCED_A + 4;
    quiesce(&mut cc, &mut rc, PRODUCED_REF, "phase B");

    // Phase C — restart member 1 with --recover. The next acquire
    // revives it and hands the parked pins back: re-acquired at the
    // restored home member first, then released at the taker.
    let mut child = spawn_member_worker(1, &dir, port, true);
    await_listening(worker_addr);
    acquire_both(&mut cc, &mut rc, &[8], "C:8 home again");
    assert!(!cc.degraded(), "revived member must clear degraded mode");
    assert_eq!(cc.taken_over_pins(), 0, "every parked pin must be handed back");
    assert!(cc.reconnects() >= 1);
    assert!(
        m2.stats().takeover_pins_handed_back >= 2,
        "the taker must have drained hand-backs"
    );
    acquire_both(&mut cc, &mut rc, &[2, 6, 10], "C:multi");
    quiesce(&mut cc, &mut rc, PRODUCED_REF, "phase C");

    // Degraded service must converge to the same on-disk residency as
    // the uncrashed reference.
    assert_eq!(
        sdf_listing(&dir),
        sdf_listing(&ref_dir),
        "storage diverged from the uncrashed reference"
    );

    cc.finalize().unwrap();
    rc.finalize().unwrap();
    child.kill().unwrap();
    child.wait().unwrap();
    m0.shutdown();
    m2.shutdown();
    for server in &reference {
        server.shutdown();
    }
    drop((m0, m2, reference));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Chained failover with two real kill -9s: member 1 dies holding a
/// pin, member 2 takes its intervals over, then member 2 dies too. A
/// dead taker must be detected like a dead home, the pins parked on it
/// must move on to member 0 under their *home's* tag (member 1 — member
/// 0 refuses keys tagged with the taker), and each pin must be counted
/// once. When member 1 restarts with `--recover`, the pins parked for
/// it are handed back, and outcomes and storage match a cluster that
/// never crashed.
#[test]
fn kill9_taker_death_rehomes_pins_under_their_home_tag() {
    let (reference, _rstorage, ref_dir) = start_cluster("chain-ref", 3, 1000, 6, 2);
    let ref_addrs: Vec<SocketAddr> = reference.iter().map(DvServer::addr).collect();
    let mut rc = DvCluster::connect(&ref_addrs, "test-ctx", steps()).unwrap();

    // Faulted cluster: member 0 in-process, members 1 and 2 children.
    let dir = std::env::temp_dir().join(format!("simfs-cluster-chain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (m0, _storage) = start_member(&dir, ClusterMember::new(0, 3), 1000, 6, 2);
    let ports: Vec<u16> = {
        // Reserve two distinct ports for the workers (bind-then-drop).
        let probes: Vec<_> = (0..2)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        probes.iter().map(|p| p.local_addr().unwrap().port()).collect()
    };
    let addr = |port: u16| -> SocketAddr { format!("127.0.0.1:{port}").parse().unwrap() };
    let mut w1 = spawn_member_worker(1, &dir, ports[0], false);
    let mut w2 = spawn_member_worker(2, &dir, ports[1], false);
    await_listening(addr(ports[0]));
    await_listening(addr(ports[1]));

    let addrs = [m0.addr(), addr(ports[0]), addr(ports[1])];
    let mut cc = DvCluster::connect(&addrs, "test-ctx", steps()).unwrap();
    cc.set_failover(true);
    cc.set_down_window(Duration::from_millis(500));

    // Pin 6 (home: member 1) and let interval 1 settle.
    acquire_both(&mut cc, &mut rc, &[6], "pin 6");
    quiesce(&mut cc, &mut rc, 4, "interval 1");

    // kill -9 member 1: the pin on 6 re-homes onto taker 2, and 7
    // follows it there.
    w1.kill().unwrap();
    w1.wait().unwrap();
    acquire_both(&mut cc, &mut rc, &[7], "7 on taker 2");
    assert_eq!(cc.members_down(), 1);
    assert_eq!(cc.taken_over_pins(), 2, "6 and 7 parked on member 2");

    // kill -9 the taker. 8's home is known dead and its taker dies
    // under the acquire: member 2 is classified down, 6 and 7 move on
    // to member 0 tagged with member 1, and 8 follows them.
    w2.kill().unwrap();
    w2.wait().unwrap();
    acquire_both(&mut cc, &mut rc, &[8], "8 after the taker died");
    assert_eq!(cc.members_down(), 2);
    // 10: member 2's own cold interval, re-simulated by member 0.
    acquire_both(&mut cc, &mut rc, &[10], "10 on member 0");
    assert_eq!(cc.taken_over_pins(), 4, "6, 7, 8 and 10 on member 0, once each");
    let takeovers = m0.stats().takeover_acquires;
    assert!(takeovers >= 3, "re-home of 6 and 7, then 8, then 10: {takeovers}");
    cc.release(6).unwrap();
    rc.release(6).unwrap();
    cc.release(10).unwrap();
    rc.release(10).unwrap();
    quiesce(&mut cc, &mut rc, 8, "interval 2");

    // Member 1 restarts with --recover: the next acquire re-adopts it
    // and hands the pins parked for it (7 and 8) back.
    let mut w1 = spawn_member_worker(1, &dir, ports[0], true);
    await_listening(addr(ports[0]));
    acquire_both(&mut cc, &mut rc, &[5], "5 at home again");
    assert_eq!(cc.members_down(), 1, "member 2 stays down");
    assert_eq!(cc.taken_over_pins(), 0, "every parked pin must be handed back");
    assert!(m0.stats().takeover_pins_handed_back >= 2);
    quiesce(&mut cc, &mut rc, 8, "hand-back");
    assert_eq!(
        sdf_listing(&dir),
        sdf_listing(&ref_dir),
        "storage diverged from the uncrashed reference"
    );

    cc.finalize().unwrap();
    rc.finalize().unwrap();
    w1.kill().unwrap();
    w1.wait().unwrap();
    m0.shutdown();
    for server in &reference {
        server.shutdown();
    }
    drop((m0, reference));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Satellite: with auto-reconnect OFF, an op against a dead member must
/// surface a typed [`MemberDown`] after the probe window — not hang.
#[test]
fn dead_member_surfaces_member_down_instead_of_hanging() {
    use simfs_core::client::MemberDown;
    let dir = std::env::temp_dir().join(format!(
        "simfs-cluster-memberdown-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (m0, _storage) = start_member(&dir, ClusterMember::new(0, 3), 1000, 6, 2);
    let (m2, _) = start_member(&dir, ClusterMember::new(2, 3), 1000, 6, 2);
    let port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let worker_addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let child = spawn_member_worker(1, &dir, port, false);
    await_listening(worker_addr);

    let addrs = [m0.addr(), worker_addr, m2.addr()];
    let mut cc = DvCluster::connect(&addrs, "test-ctx", steps()).unwrap();
    // No auto-reconnect, no failover: the op must fail typed, fast.
    cc.set_down_window(Duration::from_millis(800));

    let mut child = child;
    child.kill().unwrap();
    child.wait().unwrap();

    let started = Instant::now();
    let err = cc.acquire(&[6]).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        MemberDown::from_io(&err).is_some_and(|d| d.member == 1),
        "expected a typed MemberDown for member 1, got: {err}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "down detection took {elapsed:?} — the op effectively hung"
    );

    m0.shutdown();
    m2.shutdown();
    drop((m0, m2));
    let _ = std::fs::remove_dir_all(&dir);
}
