//! The local transport ([`simfs_core::net`]) against real daemons:
//! both arms serve one script identically (equivalence), the address
//! alone picks the arm (selection), a name lives exactly as long as its
//! daemon (lifecycle), and a connection that dies between two calls is
//! recovered at the *write* that finds it dead, on either arm.
//!
//! No test here flips a switch — there is none. A TCP session to a
//! same-host daemon is obtained the way a deployment would get one:
//! by hand-rolled frames over a `TcpStream`, or by dialing a daemon
//! bound to `0.0.0.0` under `127.0.0.2`, a loopback address its name
//! (`127.0.0.1`) does not cover.

use simbatch::ParallelismMap;
use simfs_core::client::SimfsClient;
use simfs_core::driver::{PatternDriver, SimDriver};
use simfs_core::dv::{ClusterMember, DvStats};
use simfs_core::model::{ContextCfg, StepMath};
use simfs_core::net::{self, Transport};
use simfs_core::server::{DurabilityCfg, DvServer, EarlierJournal, ServerConfig, ThreadSimLauncher};
use simfs_core::wire::{self, ClientKind, Request, Response};
use simstore::walog::{self, WalRecord};
use simstore::{Data, Dataset, StorageArea};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr as UnixAddr, UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn step_bytes(key: u64) -> Vec<u8> {
    let mut ds = Dataset::new(key, key as f64);
    ds.set_attr("simulator", "synthetic");
    let field: Vec<f64> = (0..16).map(|i| (key * 31 + i) as f64).collect();
    ds.add_var("field", vec![16], Data::F64(field)).unwrap();
    ds.encode().to_vec()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simfs-transport-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One daemon serving `context` over `dir`, listening on
/// `listen`: B = 4, N = 64, prefetch off (every counter the script
/// moves is then a function of the script), checksums for keys 1..=8.
fn start_daemon(
    dir: &Path,
    context: &str,
    listen: &str,
    durability: DurabilityCfg,
) -> io::Result<DvServer> {
    start_daemon_sized(dir, context, listen, durability, 1000)
}

/// [`start_daemon`] with a cache of `cache_steps` steps.
fn start_daemon_sized(
    dir: &Path,
    context: &str,
    listen: &str,
    durability: DurabilityCfg,
    cache_steps: u64,
) -> io::Result<DvServer> {
    let storage = StorageArea::create(dir, u64::MAX)?;
    let size = step_bytes(1).len() as u64;
    let ctx = ContextCfg::new(context, StepMath::new(1, 4, 64), size, cache_steps * size)
        .with_policy("dcl")
        .with_smax(4)
        .with_prefetch(false);
    let launcher = Arc::new(ThreadSimLauncher::new(
        step_bytes,
        |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
        Duration::from_millis(3),
        Duration::from_millis(1),
    ));
    DvServer::start(
        ServerConfig {
            ctx,
            driver: Arc::new(
                PatternDriver::new("out-", ".sdf", 6)
                    .with_parallelism(ParallelismMap::unconstrained(1, 2)),
            ),
            storage,
            launcher,
            checksums: (1..=8)
                .map(|k| (k, simstore::fnv1a64(&step_bytes(k))))
                .collect(),
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability,
        },
        listen,
    )
}

/// A loopback port nobody holds right now (bind-then-drop).
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

fn send(sock: &mut impl Write, req: &Request) {
    wire::write_frame(sock, &req.encode()).unwrap();
}

fn recv(sock: &mut impl Read) -> Response {
    let frame = wire::read_frame(sock)
        .expect("reply never arrived")
        .expect("EOF before reply");
    Response::decode(&frame).unwrap()
}

fn hello(sock: &mut (impl Read + Write), context: &str, epoch: Option<u64>) -> Response {
    send(
        sock,
        &Request::Hello {
            kind: ClientKind::Analysis,
            context: context.into(),
            membership: None,
            epoch,
        },
    );
    recv(sock)
}

// ---------------------------------------------------------------------
// Equivalence
// ---------------------------------------------------------------------

/// The scripted session of the equivalence test, over whatever
/// `connect` hands out: every reply frame in arrival order. The only
/// thing masked is `Queued`'s wait estimate (a wall-clock quantity).
fn scripted_session<S: Read + Write>(
    server: &DvServer,
    mut connect: impl FnMut() -> S,
) -> Vec<Response> {
    let mut log = Vec::new();
    let mut sock = connect();
    let greeting = hello(&mut sock, "test-ctx", None);
    let Response::HelloOk { client_id, epoch } = greeting else {
        panic!("expected HelloOk, got {greeting:?}");
    };
    log.push(greeting);

    // A missing step: Queued, then Ready once the re-simulation
    // publishes it.
    send(
        &mut sock,
        &Request::Acquire {
            req_id: 1,
            keys: vec![6],
        },
    );
    loop {
        let resp = match recv(&mut sock) {
            Response::Queued { req_id, key, .. } => Response::Queued {
                req_id,
                key,
                est_wait_ms: 0,
            },
            other => other,
        };
        let ready = matches!(resp, Response::Ready { .. });
        log.push(resp);
        if ready {
            break;
        }
    }
    // Let the re-simulation retire (unlogged polls: their number is
    // timing), so everything after is served from a settled daemon.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        send(&mut sock, &Request::Status { req_id: 99 });
        match recv(&mut sock) {
            Response::StatusInfo { active_sims: 0, .. } => break,
            Response::StatusInfo { .. } => {}
            other => panic!("expected StatusInfo, got {other:?}"),
        }
        assert!(Instant::now() < deadline, "re-simulation never retired");
        std::thread::sleep(Duration::from_millis(2));
    }
    // A resident step (the fast path), both pins released.
    send(
        &mut sock,
        &Request::Acquire {
            req_id: 2,
            keys: vec![6],
        },
    );
    log.push(recv(&mut sock));
    send(&mut sock, &Request::Release { key: 6 });
    send(&mut sock, &Request::Release { key: 6 });
    send(&mut sock, &Request::Bitrep { req_id: 3, key: 6 });
    log.push(recv(&mut sock));
    send(&mut sock, &Request::Status { req_id: 4 });
    log.push(recv(&mut sock));

    // Forced reconnect holding a pin: the session dies, a new one
    // greets with the prior epoch and re-asserts.
    send(
        &mut sock,
        &Request::Acquire {
            req_id: 5,
            keys: vec![7],
        },
    );
    log.push(recv(&mut sock));
    drop(sock);
    let mut sock = connect();
    log.push(hello(&mut sock, "test-ctx", Some(epoch)));
    send(
        &mut sock,
        &Request::Reassert {
            req_id: 6,
            prior_client: client_id,
            prior_epoch: epoch,
            keys: vec![7],
        },
    );
    log.push(recv(&mut sock));
    send(&mut sock, &Request::Bye);
    // The dead session's pin on 7 is back in the index before the
    // counters are compared.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.fast_pinned("test-ctx", 7) != Some(false) {
        assert!(
            Instant::now() < deadline,
            "dead session's pin never returned"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    log
}

/// The counters a script determines: everything but wall-clock sums,
/// the lock-acquisition tally (the unlogged polls move it) and the
/// transport row itself.
fn scripted_counters(stats: &DvStats) -> Vec<(&'static str, u64)> {
    stats
        .iter()
        .filter(|(name, _)| {
            !name.ends_with("_ns") && !["lock_transitions", "local_sessions"].contains(name)
        })
        .collect()
}

/// One script — hello, missing acquire → `Queued` → `Ready`, resident
/// acquire, release, `bitrep`, `status`, forced reconnect + `Reassert`
/// — yields the same reply frames and moves the same counters over a
/// `TcpStream` as over the daemon's abstract Unix socket. Above
/// `net::Stream` there is one framing, one reactor, one handler.
#[test]
fn equivalence_scripted_session_is_identical_over_tcp_and_unix() {
    let run = |tag: &str, unix: bool| {
        let dir = fresh_dir(tag);
        let server =
            start_daemon(&dir, "test-ctx", "127.0.0.1:0", DurabilityCfg::default()).unwrap();
        let log = if unix {
            let name = UnixAddr::from_abstract_name(server.local_name().unwrap()).unwrap();
            scripted_session(&server, || UnixStream::connect_addr(&name).unwrap())
        } else {
            let addr = server.addr();
            scripted_session(&server, || {
                let sock = TcpStream::connect(addr).unwrap();
                sock.set_nodelay(true).unwrap();
                sock
            })
        };
        let stats = server.stats();
        server.shutdown();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        (log, stats)
    };
    let (tcp_log, tcp_stats) = run("equiv-tcp", false);
    let (unix_log, unix_stats) = run("equiv-unix", true);
    assert_eq!(
        tcp_log, unix_log,
        "reply sequences diverge between the transports"
    );
    assert_eq!(tcp_log.len(), 9, "{tcp_log:#?}");
    assert!(
        matches!(&tcp_log[8], Response::Reasserted { gone, restored, .. } if gone.len() == 1 && restored.is_empty()),
        "same-epoch reassert names the pin gone: {:?}",
        tcp_log[8]
    );
    assert_eq!(
        scripted_counters(&tcp_stats),
        scripted_counters(&unix_stats)
    );
    assert_eq!(
        (
            tcp_stats.misses,
            tcp_stats.acquired_fast,
            tcp_stats.client_reconnects
        ),
        (1, 2, 1)
    );
    // The transport row is the one difference: the two analysis hellos.
    // (The in-process simulator dials the name in both runs.)
    assert_eq!(unix_stats.local_sessions, tcp_stats.local_sessions + 2);
}

/// Waits until the daemon behind `client` runs no re-simulation.
fn settle(client: &mut SimfsClient) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while client.status().unwrap().active_sims != 0 {
        assert!(Instant::now() < deadline, "re-simulation never retired");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// What one acquire resolved to: the ready keys and the failed keys,
/// each sorted.
fn outcome(status: &simfs_core::client::SimfsStatus) -> (Vec<u64>, Vec<u64>) {
    let mut ready = status.ready.clone();
    let mut failed: Vec<u64> = status.failed.iter().map(|(key, _)| *key).collect();
    ready.sort_unstable();
    failed.sort_unstable();
    (ready, failed)
}

/// The DVLib script of the mapped-session equivalence arm, one entry
/// per operation: a miss, a resident acquire released twice, `bitrep`,
/// `status`, a multi-key acquire mixing resident, missing and invalid
/// keys, and `finalize`.
fn client_script(mut client: SimfsClient) -> Vec<String> {
    let mut log = Vec::new();
    log.push(format!("miss {:?}", outcome(&client.acquire(&[6]).unwrap())));
    settle(&mut client);
    log.push(format!("resident {:?}", outcome(&client.acquire(&[6]).unwrap())));
    client.release(6).unwrap();
    client.release(6).unwrap();
    log.push(format!("bitrep {:?}", client.bitrep(6).unwrap()));
    let status = client.status().unwrap();
    log.push(format!("status {} {} {}", status.hits, status.misses, status.restarts));
    // 5 and 7 are resident (6's interval), 10 and 11 are not, 100 lies
    // past the timeline.
    let mixed = client.acquire(&[5, 10, 7, 11, 100]).unwrap();
    log.push(format!("mixed {:?}", outcome(&mixed)));
    for key in mixed.ready {
        client.release(key).unwrap();
    }
    settle(&mut client);
    log.push(format!("finalize {:?}", client.finalize().is_ok()));
    log
}

/// The third arm: the same DVLib script over a *mapped* local session —
/// resident keys pinned through the shared table, no frame exchanged —
/// and over TCP, where every pin is a frame. Same ready/failed sets per
/// operation, same counters apart from the row that says which path the
/// hits took.
#[test]
fn equivalence_mapped_session_matches_tcp() {
    let run = |tag: &str, bind: &str, dial: [u8; 4]| {
        let dir = fresh_dir(tag);
        let server = start_daemon(&dir, "test-ctx", bind, DurabilityCfg::default()).unwrap();
        let addr: SocketAddr = (dial, server.addr().port()).into();
        let client = SimfsClient::connect(addr, "test-ctx").unwrap();
        let transport = client.transport();
        let log = client_script(client);
        // The session's departure (and its releases) reach the daemon
        // before the counters are read.
        let deadline = Instant::now() + Duration::from_secs(10);
        while [5, 6, 7, 10, 11]
            .iter()
            .any(|&k| server.fast_pinned("test-ctx", k) != Some(false))
        {
            assert!(Instant::now() < deadline, "{tag}: pins outlived the session");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = server.stats();
        server.shutdown();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        (transport, log, stats)
    };
    let (mapped_arm, mapped_log, mapped) = run("equiv-mapped", "127.0.0.1:0", [127, 0, 0, 1]);
    let (tcp_arm, tcp_log, tcp) = run("equiv-dvlib-tcp", "0.0.0.0:0", [127, 0, 0, 2]);
    assert_eq!((mapped_arm, tcp_arm), (Transport::Local, Transport::Tcp));
    assert_eq!(mapped_log, tcp_log, "operations resolve differently");
    assert_eq!(
        mapped_log[4],
        "mixed ([5, 7, 10, 11], [100])",
        "{mapped_log:#?}"
    );
    let counters = |stats: &DvStats| -> Vec<(&'static str, u64)> {
        scripted_counters(stats)
            .into_iter()
            .filter(|(name, _)| *name != "shared_hits")
            .collect()
    };
    assert_eq!(counters(&mapped), counters(&tcp));
    // The resident acquire and the two resident keys of the mixed one
    // never left the mapped session.
    assert_eq!((mapped.shared_hits, tcp.shared_hits), (3, 0));
    assert_eq!(mapped.acquired_fast, 3);
}

/// Times the calling thread has blocked so far — its voluntary context
/// switches (`/proc/thread-self/status`). Every exchange with the
/// daemon blocks for the reply; a socket send or receive is not a
/// read or write the kernel's I/O accounting counts, but this wait is.
fn thread_waits() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("voluntary_ctxt_switches")
}

/// A resident open with no exchange: 10 000 `acquire`/`release` pairs
/// on resident keys over a mapped session make the calling thread wait
/// fewer than 200 times in all, and never reach the daemon — where a
/// socket session waits for a reply on nearly every pair (≈ 8 700 –
/// 10 000 waits here before the mapped path existed).
#[test]
fn mapped_session_pins_resident_keys_without_an_exchange() {
    let dir = fresh_dir("no-exchange");
    let server = start_daemon(&dir, "test-ctx", "127.0.0.1:0", DurabilityCfg::default()).unwrap();
    let mut client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    assert_eq!(client.transport(), Transport::Local);
    assert!(client.acquire(&[5]).unwrap().ok());
    client.release(5).unwrap();
    client.flush().unwrap();
    settle(&mut client);

    const PAIRS: u64 = 10_000;
    let before = thread_waits();
    for i in 0..PAIRS {
        let key = 5 + i % 4;
        let status = client.acquire(&[key]).unwrap();
        assert_eq!(status.ready, [key]);
        client.release(key).unwrap();
    }
    let waits = thread_waits() - before;
    assert!(
        waits < 200,
        "{waits} waits for {PAIRS} resident acquire/release pairs"
    );
    // Every hit was the session's own: none reached the daemon's pins.
    let stats = server.stats();
    assert_eq!(stats.shared_hits, PAIRS, "{stats:?}");
    assert_eq!(stats.hits, PAIRS, "{stats:?}");
    assert_eq!(stats.acquired_fast, PAIRS, "{stats:?}");
    client.finalize().unwrap();
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------

/// A loopback target lands on the local socket; a `0.0.0.0` bind is
/// reachable by name via `127.0.0.1` — and by TCP under any other
/// loopback address, with the same daemon behind both.
#[test]
fn selection_follows_the_address() {
    let dir = fresh_dir("select");
    let server = start_daemon(&dir, "test-ctx", "127.0.0.1:0", DurabilityCfg::default()).unwrap();
    assert_eq!(
        server.local_name(),
        Some(net::local_name(&server.addr()).as_str())
    );
    let mut client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    assert_eq!(client.transport(), Transport::Local);
    assert!(client.acquire(&[6]).unwrap().ok());
    assert_eq!(
        server.stats().local_sessions,
        2,
        "the analysis and its re-simulation"
    );
    client.finalize().unwrap();
    server.shutdown();
    drop(server);

    let wild = start_daemon(&dir, "test-ctx", "0.0.0.0:0", DurabilityCfg::default()).unwrap();
    let port = wild.addr().port();
    let mut by_name = SimfsClient::connect(("127.0.0.1", port), "test-ctx").unwrap();
    let mut by_tcp = SimfsClient::connect(("127.0.0.2", port), "test-ctx").unwrap();
    assert_eq!(by_name.transport(), Transport::Local);
    assert_eq!(by_tcp.transport(), Transport::Tcp);
    assert_eq!(wild.stats().local_sessions, 1);
    // One daemon behind both: the step the first session left resident
    // is a hit for either.
    assert!(by_name.acquire(&[6]).unwrap().ok());
    assert!(by_tcp.acquire(&[6]).unwrap().ok());
    assert_eq!((wild.stats().hits, wild.stats().misses), (2, 0));
    by_name.finalize().unwrap();
    by_tcp.finalize().unwrap();
    wild.shutdown();
    drop(wild);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Somebody else holds the name: the daemon starts TCP-only and a raw
/// `TcpStream` session is served as ever.
#[test]
fn selection_taken_name_leaves_a_tcp_only_daemon() {
    let addr: SocketAddr = ([127, 0, 0, 1], free_port()).into();
    let squatter =
        UnixListener::bind_addr(&UnixAddr::from_abstract_name(net::local_name(&addr)).unwrap())
            .unwrap();
    let dir = fresh_dir("taken");
    let server = start_daemon(
        &dir,
        "test-ctx",
        &addr.to_string(),
        DurabilityCfg::default(),
    )
    .unwrap();
    assert_eq!(server.local_name(), None);
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_nodelay(true).unwrap();
    assert!(matches!(
        hello(&mut sock, "test-ctx", None),
        Response::HelloOk { .. }
    ));
    send(&mut sock, &Request::Status { req_id: 1 });
    assert!(matches!(
        recv(&mut sock),
        Response::StatusInfo { req_id: 1, .. }
    ));
    assert_eq!(server.stats().local_sessions, 0);
    drop(squatter);
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two daemons on one port, `127.0.0.1:P` and `127.0.0.2:P`: each name
/// carries the full address, so each session reaches its own daemon —
/// its own context, its own client-id sequence.
#[test]
fn selection_two_daemons_on_one_port_are_never_confused() {
    let (dir_a, dir_b) = (fresh_dir("port-a"), fresh_dir("port-b"));
    let a = start_daemon(&dir_a, "ctx-a", "127.0.0.1:0", DurabilityCfg::default()).unwrap();
    let port = a.addr().port();
    let b = start_daemon(
        &dir_b,
        "ctx-b",
        &format!("127.0.0.2:{port}"),
        DurabilityCfg::default(),
    )
    .unwrap();
    assert_ne!(a.local_name(), b.local_name());

    // Three sessions on A move its client ids on; B's first is still 1.
    let on_a: Vec<SimfsClient> = (0..3)
        .map(|_| SimfsClient::connect(a.addr(), "ctx-a").unwrap())
        .collect();
    let on_b = SimfsClient::connect(b.addr(), "ctx-b").unwrap();
    assert!(on_a
        .iter()
        .chain([&on_b])
        .all(|c| c.transport() == Transport::Local));
    assert_eq!(
        on_a.iter().map(SimfsClient::client_id).collect::<Vec<_>>(),
        [1, 2, 3]
    );
    assert_eq!(on_b.client_id(), 1);
    assert_eq!((a.stats().local_sessions, b.stats().local_sessions), (3, 1));
    // Neither serves the other's context.
    let err = SimfsClient::connect(a.addr(), "ctx-b")
        .err()
        .expect("A has no ctx-b");
    assert!(err.to_string().contains("ctx-a"), "{err}");
    let err = SimfsClient::connect(b.addr(), "ctx-a")
        .err()
        .expect("B has no ctx-a");
    assert!(err.to_string().contains("ctx-b"), "{err}");

    drop((on_a, on_b));
    a.shutdown();
    b.shutdown();
    drop((a, b));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

// ---------------------------------------------------------------------
// Lifecycle and write-side recovery, with a real kill -9
// ---------------------------------------------------------------------

/// Not a test on its own: the subprocess body of the daemon kill-9
/// tests below. They re-exec this test binary with `daemon_worker
/// --exact` and the `SIMFS_TRANSPORT_*` environment set; it then serves
/// a daemon — durable, unless `SIMFS_TRANSPORT_RECOVER` says `plain`
/// (no WAL: its sessions map the context's hit table) — until the
/// parent SIGKILLs it. Without the environment (a normal `cargo test`
/// run) it is a no-op.
#[test]
fn daemon_worker() {
    let Ok(listen) = std::env::var("SIMFS_TRANSPORT_LISTEN") else {
        return;
    };
    let dir = PathBuf::from(std::env::var("SIMFS_TRANSPORT_DIR").unwrap());
    let durability = match std::env::var("SIMFS_TRANSPORT_RECOVER").as_deref() {
        Ok("plain") => DurabilityCfg::default(),
        Ok(recover) => DurabilityCfg::durable(recover == "1"),
        Err(_) => DurabilityCfg::durable(false),
    };
    let _server = start_daemon(&dir, "test-ctx", &listen, durability)
        .unwrap_or_else(|e| panic!("worker cannot serve {listen}: {e}"));
    loop {
        std::thread::park();
    }
}

/// Not a test on its own: the subprocess body of the client kill-9
/// test. With `SIMFS_TRANSPORT_PIN` set it connects to the daemon at
/// `SIMFS_TRANSPORT_PIN_ADDR`, acquires the resident key it names —
/// a pin taken through the shared table — and holds it until the
/// parent SIGKILLs it. Otherwise a no-op.
#[test]
fn pinning_client_worker() {
    let Ok(key) = std::env::var("SIMFS_TRANSPORT_PIN") else {
        return;
    };
    let addr: SocketAddr = std::env::var("SIMFS_TRANSPORT_PIN_ADDR").unwrap().parse().unwrap();
    let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
    let key: u64 = key.parse().unwrap();
    assert_eq!(client.acquire(&[key]).unwrap().ready, [key]);
    loop {
        std::thread::park();
    }
}

/// A worker process; SIGKILLed when dropped, so a failing assertion
/// leaves no daemon behind.
struct Worker(std::process::Child);

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_worker(dir: &Path, listen: &str, recover: bool) -> Worker {
    spawn_worker_as(dir, listen, if recover { "1" } else { "0" })
}

/// A daemon worker in `mode`: `"0"` durable, `"1"` durable with
/// `--recover`, `"plain"` without a WAL.
fn spawn_worker_as(dir: &Path, listen: &str, mode: &str) -> Worker {
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["daemon_worker", "--exact"])
        .env("SIMFS_TRANSPORT_DIR", dir)
        .env("SIMFS_TRANSPORT_LISTEN", listen)
        .env("SIMFS_TRANSPORT_RECOVER", mode)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon worker");
    Worker(child)
}

/// Polls until the worker accepts on TCP — by which time its name, if
/// it gets one, is bound (`Listener::bind` does both before the daemon
/// starts). The probe's EOF is handled like any departed client.
fn await_listening(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while TcpStream::connect(addr).is_err() {
        assert!(Instant::now() < deadline, "worker on {addr} never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// An abstract name dies with its process — no file to go stale: after
/// SIGKILL the dial falls through to TCP's `ECONNREFUSED`, the session's
/// reconnect runs its backoff loop against that, and once the daemon is
/// back the re-established session rides the name again.
#[test]
fn lifecycle_name_dies_with_the_process_and_returns_with_it() {
    let dir = fresh_dir("lifecycle");
    let addr: SocketAddr = ([127, 0, 0, 1], free_port()).into();
    let worker = spawn_worker(&dir, &addr.to_string(), false);
    await_listening(addr);
    let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
    client.set_auto_reconnect(true);
    client.set_op_timeout(Some(Duration::from_secs(10)));
    assert_eq!(client.transport(), Transport::Local);
    assert!(client.acquire(&[6]).unwrap().ok());

    drop(worker); // kill -9
    let err = net::dial(&addr, Some(Duration::from_secs(1))).unwrap_err();
    assert_eq!(
        err.kind(),
        io::ErrorKind::ConnectionRefused,
        "name and port died with the daemon"
    );

    // The daemon returns while the client is already redialing.
    let restart = {
        let (dir, listen) = (dir.clone(), addr.to_string());
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            spawn_worker(&dir, &listen, true)
        })
    };
    let redial = Instant::now();
    assert!(client.acquire(&[6]).unwrap().ok());
    assert!(
        redial.elapsed() >= Duration::from_millis(250),
        "nothing to reach before the restart"
    );
    assert_eq!(client.reconnects(), 1);
    assert_eq!(
        client.transport(),
        Transport::Local,
        "the restarted daemon rebound its name"
    );

    drop(client);
    drop(restart.join().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write-side disconnect, on both arms: auto-reconnect on, the daemon
/// killed and restarted with `--recover` between a `close` and the
/// next `open`. The session finds out at a *write* — the staged
/// release's flush on a Unix socket (`EPIPE` at once), the acquire
/// after it on TCP (whose first write into the dead connection is
/// buffered and answered by an RST) — and both must recover there, not
/// surface `BrokenPipe`.
#[test]
fn write_side_disconnect_recovers_on_both_transports() {
    for (bind_ip, dial_ip, transport) in [
        ("127.0.0.1", [127, 0, 0, 1], Transport::Local),
        // A wildcard bind names 127.0.0.1 only: 127.0.0.2 is TCP.
        ("0.0.0.0", [127, 0, 0, 2], Transport::Tcp),
    ] {
        let dir = fresh_dir(&format!("epipe-{}", transport.as_str()));
        let port = free_port();
        let listen = format!("{bind_ip}:{port}");
        let addr: SocketAddr = (dial_ip, port).into();
        let worker = spawn_worker(&dir, &listen, false);
        await_listening(addr);
        let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
        client.set_auto_reconnect(true);
        client.set_op_timeout(Some(Duration::from_secs(10)));
        assert_eq!(client.transport(), transport);
        // open … close, the pin of the last open still held.
        assert!(client.acquire(&[5]).unwrap().ok());
        client.release(5).unwrap();
        assert!(client.acquire(&[6]).unwrap().ok());
        client.flush().unwrap();

        drop(worker); // kill -9
        let worker = spawn_worker(&dir, &listen, true);
        await_listening(addr);

        // close: a staged release and its flush — the first write into
        // the dead connection.
        client.release(6).unwrap();
        client.flush().unwrap();
        // Let a TCP peer's RST arrive, so the next write is the one
        // that fails.
        std::thread::sleep(Duration::from_millis(50));
        // open: succeeds over a recovered session, on the same arm.
        let status = client.acquire(&[7]).unwrap();
        assert!(status.ok(), "{transport:?}: {status:?}");
        assert_eq!(client.reconnects(), 1, "{transport:?}");
        assert_eq!(client.transport(), transport);
        assert_eq!(
            client.epoch(),
            2,
            "{transport:?}: the recovered instance's epoch"
        );

        client.finalize().unwrap();
        drop(worker);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A mapped session finds out at neither: its resident opens write
    // nothing. The daemon it maps (no WAL, so its hit table is shared)
    // is killed and restarted with `--recover` between two resident
    // opens; the mapping still says "resident", so the next open must
    // be the liveness poll's — a recovered session, not a hit served
    // from the dead daemon's table.
    let dir = fresh_dir("dead-map");
    let addr: SocketAddr = ([127, 0, 0, 1], free_port()).into();
    let listen = addr.to_string();
    let worker = spawn_worker_as(&dir, &listen, "plain");
    await_listening(addr);
    let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
    client.set_auto_reconnect(true);
    client.set_op_timeout(Some(Duration::from_secs(10)));
    assert!(client.acquire(&[6]).unwrap().ok());
    client.release(6).unwrap();
    client.flush().unwrap();
    let before = thread_waits();
    for _ in 0..100 {
        assert!(client.acquire(&[6]).unwrap().ok());
        client.release(6).unwrap();
        client.flush().unwrap();
    }
    let waits = thread_waits() - before;
    assert!(waits < 20, "{waits} waits for 100 resident opens: not mapped");

    drop(worker); // kill -9
    let worker = spawn_worker(&dir, &listen, true);
    await_listening(addr);
    // Past the poll's time bound, whatever the restart took.
    std::thread::sleep(Duration::from_millis(25));
    let status = client.acquire(&[6]).unwrap();
    assert_eq!(status.ready, [6], "{status:?}");
    assert_eq!(client.reconnects(), 1, "served from the dead daemon's mapping");
    assert_eq!(client.epoch(), 1, "the recovered instance's epoch");
    client.release(6).unwrap();
    client.finalize().unwrap();
    drop(worker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Daemon-side lease expiry: a durable daemon SIGKILLed while a client
/// holds a pin, restarted with `--recover`, and the client never comes
/// back. The prior client is leased and its resident steps held; the
/// reaper must expire that lease on time (no sooner than the timeout,
/// within a small slack after it), count it once, let the key be
/// evicted again, and answer a late `Reassert` of the prior identity
/// with `gone`.
#[test]
fn recovered_lease_expires_on_the_daemon_when_its_client_never_returns() {
    const LEASE: Duration = Duration::from_millis(300);
    const SLACK: Duration = Duration::from_millis(250);
    let dir = fresh_dir("lease-expiry");
    let addr: SocketAddr = ([127, 0, 0, 1], free_port()).into();
    let worker = spawn_worker(&dir, &addr.to_string(), false);
    await_listening(addr);
    // The prior instance: interval 1 (keys 5-8) is produced, 6 stays
    // pinned (the session's lease was fsynced before its greeting).
    let mut prior = SimfsClient::connect(addr, "test-ctx").unwrap();
    assert_eq!(prior.acquire(&[6]).unwrap().ready, [6]);
    settle(&mut prior);
    let (prior_client, prior_epoch) = (prior.client_id(), prior.epoch());
    drop(worker); // kill -9
    drop(prior);

    // The recovered instance: a 4-step cache that interval 1 fills.
    let durability = DurabilityCfg {
        wal: true,
        recover: true,
        lease_timeout: LEASE,
    };
    let started = Instant::now();
    let server = start_daemon_sized(&dir, "test-ctx", "127.0.0.1:0", durability, 4).unwrap();
    assert_eq!(
        server.stats().recovery_held_steps,
        4,
        "interval 1, held for the leased client"
    );
    let deadline = started + LEASE + SLACK;
    while server.stats().leases_expired == 0 {
        assert!(Instant::now() < deadline, "the lease outlived {LEASE:?} + {SLACK:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(started.elapsed() >= LEASE, "expired before its deadline");
    assert_eq!(server.stats().leases_expired, 1);

    // No veto left: four held pins on other intervals fill the 4-step
    // cache, so 6 has to go.
    let driver = PatternDriver::new("out-", ".sdf", 6);
    let mut flood = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    for key in [10, 14, 18, 22] {
        assert!(flood.acquire(&[key]).unwrap().ok(), "key {key}");
    }
    settle(&mut flood);
    let deadline = Instant::now() + Duration::from_secs(10);
    while dir.join(driver.filename_of(6)).exists() {
        assert!(Instant::now() < deadline, "the expired lease still vetoes eviction of 6");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The prior identity comes back too late.
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    assert!(matches!(
        hello(&mut sock, "test-ctx", Some(prior_epoch)),
        Response::HelloOk { epoch, .. } if epoch == prior_epoch + 1
    ));
    send(
        &mut sock,
        &Request::Reassert {
            req_id: 1,
            prior_client,
            prior_epoch,
            keys: vec![6],
        },
    );
    match recv(&mut sock) {
        Response::Reasserted { restored, gone, .. } => {
            assert!(restored.is_empty(), "{restored:?}");
            assert_eq!(gone.len(), 1, "{gone:?}");
            assert_eq!(gone[0].0, 6);
            assert!(gone[0].1.contains("expired or unknown"), "{gone:?}");
        }
        other => panic!("expected Reasserted, got {other:?}"),
    }
    assert_eq!(server.stats().leases_expired, 1, "counted once");

    drop(sock);
    flood.finalize().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The other direction: a *client* killed while it holds a pin taken
/// through the shared table. Its hangup alone must free the key — a
/// 4-step cache flooded with fresh intervals pushes the key's file out
/// within 5 s — while a live mapped session's pin, taken the same way,
/// keeps its key resident through the whole flood.
#[test]
fn killed_mapped_client_leaves_no_pin_and_takes_no_other() {
    let dir = fresh_dir("client-kill");
    let server =
        start_daemon_sized(&dir, "test-ctx", "127.0.0.1:0", DurabilityCfg::default(), 4).unwrap();
    let driver = PatternDriver::new("out-", ".sdf", 6);
    let on_disk = |key: u64| dir.join(driver.filename_of(key)).exists();
    let (victim_key, held_key) = (2u64, 6u64);

    // The live session: make 6 resident, then hold it through the table.
    let mut holder = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    assert!(holder.acquire(&[held_key]).unwrap().ok());
    settle(&mut holder);
    holder.release(held_key).unwrap();
    holder.flush().unwrap();
    assert_eq!(holder.acquire(&[held_key]).unwrap().ready, [held_key]);
    assert_eq!(server.stats().shared_hits, 1, "the holder's pin is a slot pin");

    // Make 2 resident, then let a worker process pin it the same way.
    let mut flood = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    // (Released only once its interval is complete: no insert after the
    // release may evict it.)
    assert!(flood.acquire(&[victim_key]).unwrap().ok());
    settle(&mut flood);
    flood.release(victim_key).unwrap();
    flood.flush().unwrap();
    let worker = Worker(
        std::process::Command::new(std::env::current_exe().unwrap())
            .args(["pinning_client_worker", "--exact"])
            .env("SIMFS_TRANSPORT_PIN", victim_key.to_string())
            .env("SIMFS_TRANSPORT_PIN_ADDR", server.addr().to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn client worker"),
    );
    let deadline = Instant::now() + Duration::from_secs(15);
    while server.stats().shared_hits < 2 {
        assert!(Instant::now() < deadline, "the worker never pinned {victim_key}");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.fast_pinned("test-ctx", victim_key), Some(true));
    drop(worker); // kill -9, pin held

    // Flood fresh intervals through the 4-step cache until the dead
    // client's key is gone; the live one's must survive every round.
    let mut interval_key = 10u64;
    let deadline = Instant::now() + Duration::from_secs(5);
    while on_disk(victim_key) {
        assert!(
            Instant::now() < deadline,
            "key {victim_key} outlived its killed client's pin"
        );
        assert!(flood.acquire(&[interval_key]).unwrap().ok());
        flood.release(interval_key).unwrap();
        flood.flush().unwrap();
        settle(&mut flood);
        assert!(on_disk(held_key), "a live session's pinned key was evicted");
        assert_eq!(server.fast_pinned("test-ctx", held_key), Some(true));
        interval_key = 10 + (interval_key + 4 - 10) % 48;
    }
    assert_eq!(server.fast_pinned("test-ctx", victim_key), Some(false));
    holder.release(held_key).unwrap();
    holder.finalize().unwrap();
    flood.finalize().unwrap();
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// A durable context's sessions map too: the crash rule, with a real
// kill -9
// ---------------------------------------------------------------------

/// The context's WAL in `dir` (a solo daemon is member 0).
fn wal_path(dir: &Path) -> PathBuf {
    dir.join("dv-member-0.wal")
}

/// The WAL's records, as a recovery would replay them.
fn wal_records(dir: &Path) -> Vec<WalRecord> {
    walog::replay_bytes(&std::fs::read(wal_path(dir)).unwrap()).0
}

/// Polls until `dir`'s WAL holds a record matching `want`.
fn await_record(dir: &Path, want: impl Fn(&WalRecord) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !wal_records(dir).iter().any(&want) {
        assert!(
            Instant::now() < deadline,
            "record never journaled: {:?}",
            wal_records(dir)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The killed worker's daemon, restarted in process with `--recover`
/// on the same address (its name and port died with it), over a
/// `cache_steps`-step cache.
fn recover_in_process(
    dir: &Path,
    listen: &str,
    lease_timeout: Duration,
    cache_steps: u64,
) -> DvServer {
    let durability = DurabilityCfg {
        wal: true,
        recover: true,
        lease_timeout,
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match start_daemon_sized(dir, "test-ctx", listen, durability, cache_steps) {
            Ok(server) => return server,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("cannot recover on {listen}: {e}"),
        }
    }
}

/// One flood round through another session: a fresh interval's key,
/// acquired, released, and its re-simulation settled.
fn flood_round(flood: &mut SimfsClient, key: u64) {
    assert!(flood.acquire(&[key]).unwrap().ok(), "flood key {key}");
    flood.release(key).unwrap();
    flood.flush().unwrap();
    settle(flood);
}

/// The crash rule end to end. A durable daemon's mapped session pins a
/// resident key through its slot: no frame is exchanged and the WAL
/// does not grow. The daemon is SIGKILLed and restarted with
/// `--recover`; before the session returns, another session floods the
/// 4-step cache, and the key — held by nothing but the recovery's
/// hold — survives. The session's reassert then restores the pin with
/// no re-acquire, and once released the key is evicted by the next
/// flood.
#[test]
fn slot_pin_of_a_durable_daemon_survives_kill9_and_a_flood_until_its_reassert() {
    let dir = fresh_dir("slot-pin-kill9");
    let addr: SocketAddr = ([127, 0, 0, 1], free_port()).into();
    let listen = addr.to_string();
    let driver = PatternDriver::new("out-", ".sdf", 6);
    let on_disk = |key: u64| dir.join(driver.filename_of(key)).exists();
    let worker = spawn_worker(&dir, &listen, false);
    await_listening(addr);
    let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
    client.set_auto_reconnect(true);
    client.set_op_timeout(Some(Duration::from_secs(10)));
    assert_eq!(client.transport(), Transport::Local);
    // A miss makes interval 1 resident; its pin on 5, granted by the
    // daemon, stays held.
    assert_eq!(client.acquire(&[5]).unwrap().ready, [5]);
    settle(&mut client);
    let wal_len = std::fs::metadata(wal_path(&dir)).unwrap().len();

    // Resident opens of 6 through the session's slots, the last one
    // held: no exchange, no record.
    let before = thread_waits();
    for _ in 0..100 {
        assert_eq!(client.acquire(&[6]).unwrap().ready, [6]);
        client.release(6).unwrap();
    }
    assert_eq!(client.acquire(&[6]).unwrap().ready, [6]);
    let waits = thread_waits() - before;
    assert!(
        waits < 20,
        "{waits} waits for 101 resident opens: not mapped"
    );
    assert_eq!(
        std::fs::metadata(wal_path(&dir)).unwrap().len(),
        wal_len,
        "a slot pin reached the WAL"
    );

    drop(worker); // kill -9, 6 held through a slot only
    let server = recover_in_process(&dir, &listen, Duration::from_secs(30), 4);
    let stats = server.stats();
    assert_eq!(stats.recovery_held_steps, 4, "interval 1: {stats:?}");

    // The flood, before the session returns: every round overflows
    // the held cache instead of evicting 6.
    let mut flood = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    for key in [10, 14, 18, 22] {
        flood_round(&mut flood, key);
        assert!(
            on_disk(6),
            "the held key was evicted before its session returned"
        );
    }

    // The session returns at its next open: 5 and 6 are pinned again
    // because they are resident — neither is re-acquired.
    let slow = server.stats().acquired_slow;
    assert_eq!(client.acquire(&[7]).unwrap().ready, [7]);
    assert_eq!(client.reconnects(), 1);
    assert_eq!(client.pins_reasserted(), 2, "5 and 6 restored");
    let stats = server.stats();
    assert_eq!(
        stats.acquired_slow, slow,
        "a reasserted key was re-acquired: {stats:?}"
    );
    assert_eq!(stats.leases_expired, 0);

    // Released, 6 is an ordinary resident step again.
    client.release(6).unwrap();
    client.release(7).unwrap();
    client.flush().unwrap();
    let mut key = 26u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while on_disk(6) {
        assert!(Instant::now() < deadline, "6 outlived its release");
        flood_round(&mut flood, key);
        key = 10 + (key + 4 - 10) % 48;
    }
    client.finalize().unwrap();
    flood.finalize().unwrap();
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash rule's bound: a mapped session of a SIGKILLed durable
/// daemon that never comes back. Its hello lease alone gets it leased
/// at recovery, and the recovery holds the resident steps until that
/// lease's deadline — no sooner, within a small slack after it — and
/// then a flood evicts them.
#[test]
fn recovery_hold_lifts_at_the_lease_deadline_when_a_mapped_session_never_returns() {
    const LEASE: Duration = Duration::from_millis(300);
    const SLACK: Duration = Duration::from_millis(250);
    let dir = fresh_dir("hold-expiry");
    let addr: SocketAddr = ([127, 0, 0, 1], free_port()).into();
    let listen = addr.to_string();
    let driver = PatternDriver::new("out-", ".sdf", 6);
    let on_disk = |key: u64| dir.join(driver.filename_of(key)).exists();
    let worker = spawn_worker(&dir, &listen, false);
    await_listening(addr);
    // The prior session makes interval 1 resident, releases its
    // daemon-granted pin, and holds 7 through its slot.
    let mut prior = SimfsClient::connect(addr, "test-ctx").unwrap();
    assert_eq!(prior.acquire(&[6]).unwrap().ready, [6]);
    settle(&mut prior);
    prior.release(6).unwrap();
    prior.flush().unwrap();
    assert_eq!(prior.acquire(&[7]).unwrap().ready, [7]);
    drop(worker); // kill -9
    drop(prior);

    let started = Instant::now();
    let server = recover_in_process(&dir, &listen, LEASE, 4);
    let stats = server.stats();
    assert_eq!(stats.recovery_held_steps, 4, "{stats:?}");
    let mut flood = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    flood_round(&mut flood, 10);
    let held = (5..=8).all(on_disk);
    if server.stats().leases_expired == 0 {
        assert!(held, "a held step was evicted while the lease was live");
    }
    let deadline = started + LEASE + SLACK;
    while server.stats().leases_expired == 0 {
        assert!(
            Instant::now() < deadline,
            "the hold outlived {LEASE:?} + {SLACK:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        started.elapsed() >= LEASE,
        "lifted before the lease's deadline"
    );
    let mut key = 14u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while on_disk(7) {
        assert!(
            Instant::now() < deadline,
            "the lapsed hold still vetoes eviction of 7"
        );
        flood_round(&mut flood, key);
        key = 10 + (key + 4 - 10) % 48;
    }
    assert_eq!(server.stats().leases_expired, 1);
    flood.finalize().unwrap();
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journal accounting of a durable context's mapped session: its hello
/// writes one `Lease`, durable before the greeting; a miss, 100
/// resident open/close pairs and the miss's release write nothing; and
/// its departure writes one `ClientGone`.
#[test]
fn durable_mapped_session_journals_its_lease_and_departure_and_no_pin() {
    let dir = fresh_dir("journal-accounting");
    let server = start_daemon(
        &dir,
        "test-ctx",
        "127.0.0.1:0",
        DurabilityCfg::durable(false),
    )
    .unwrap();
    let mut client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    assert_eq!(client.transport(), Transport::Local);
    let (id, epoch) = (client.client_id(), client.epoch());
    let appends = || server.stats().wal_appends;
    assert_eq!(appends(), 1, "one record for the hello");
    assert_eq!(
        wal_records(&dir).last(),
        Some(&WalRecord::Lease { client: id, epoch })
    );

    assert_eq!(client.acquire(&[6]).unwrap().ready, [6]);
    settle(&mut client);
    for _ in 0..100 {
        assert_eq!(client.acquire(&[5]).unwrap().ready, [5]);
        client.release(5).unwrap();
    }
    // The miss's release is a frame; the status round trip behind it
    // proves the daemon handled it.
    client.release(6).unwrap();
    client.flush().unwrap();
    settle(&mut client);
    let stats = server.stats();
    assert_eq!(stats.shared_hits, 100, "{stats:?}");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.wal_appends, 1, "a pin or a release wrote a record: {stats:?}");

    client.finalize().unwrap();
    await_record(&dir, |r| matches!(r, WalRecord::ClientGone { .. }));
    assert_eq!(appends(), 2);
    assert_eq!(
        wal_records(&dir),
        vec![
            WalRecord::Epoch { epoch },
            WalRecord::Lease { client: id, epoch },
            WalRecord::ClientGone { client: id, epoch },
        ]
    );
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal an earlier build left — it journaled pins, a takeover
/// grant under its own tag, and leases only for some sessions — is
/// refused by `--recover` with a typed error naming the file and the
/// remedy, and the file stays byte-identical. Started without
/// `--recover`, the daemon takes an epoch above the file's highest and
/// rewrites the file in the current format; `--recover` then succeeds.
#[test]
fn a_journal_from_an_earlier_build_is_refused_by_recover_and_replaced_without_it() {
    let dir = fresh_dir("earlier-journal");
    std::fs::create_dir_all(&dir).unwrap();
    // (tag, client, key, epoch) as that build encoded them: 1 epoch,
    // 2 pin, 3 release, 4 lease, 5 departure, 6 takeover pin; the
    // padding after the tag is zero.
    let mut bytes = Vec::new();
    for (tag, client, key, epoch) in [
        (1u8, 0u64, 0u64, 1u64),
        (4, 7, 0, 1),
        (2, 7, 1, 1),
        (2, 8, 2, 1),
        (6, 9, 1, 1),
        (2, 10, 1, 1),
        (3, 10, 1, 1),
        (5, 10, 0, 1),
        (2, 11, 2, 1),
        (3, 11, 2, 1),
        (4, 12, 0, 1),
        (5, 12, 0, 1),
    ] {
        let start = bytes.len();
        bytes.extend_from_slice(&[tag, 0, 0, 0, 0, 0, 0, 0]);
        for field in [client, key, epoch] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        let sum = simstore::fnv1a64(&bytes[start..]);
        bytes.extend_from_slice(&sum.to_le_bytes());
    }
    let path = wal_path(&dir);
    std::fs::write(&path, &bytes).unwrap();

    let err = match start_daemon(&dir, "test-ctx", "127.0.0.1:0", DurabilityCfg::durable(true)) {
        Ok(_) => panic!("an earlier build's journal was recovered"),
        Err(err) => err,
    };
    assert_eq!(EarlierJournal::from_io(&err).map(|e| &e.path), Some(&path), "{err}");
    let message = err.to_string();
    assert!(message.contains(&path.display().to_string()), "{message}");
    assert!(message.contains("without --recover"), "{message}");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "the refused journal is untouched");

    let server = start_daemon(&dir, "test-ctx", "127.0.0.1:0", DurabilityCfg::durable(false))
        .expect("a start without --recover");
    let client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    let epoch = client.epoch();
    assert!(epoch > 1, "epoch {epoch} is not above the earlier journal's");
    assert_eq!(
        wal_records(&dir),
        vec![WalRecord::Epoch { epoch }, WalRecord::Lease { client: client.client_id(), epoch }]
    );
    client.finalize().unwrap();
    server.shutdown();
    drop(server);

    let server = start_daemon(&dir, "test-ctx", "127.0.0.1:0", DurabilityCfg::durable(true))
        .expect("--recover over the rewritten journal");
    let client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    assert!(client.epoch() > epoch);
    client.finalize().unwrap();
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash rule over TCP, where every pin is the daemon's: a durable
/// daemon bound to `0.0.0.0` and dialed under `127.0.0.2` serves a
/// session that holds a slow pin (a miss) and a fast pin (a hit on the
/// daemon's index). Neither writes a record. The daemon is SIGKILLed
/// and restarted with `--recover`; another session floods the 4-step
/// cache before the session returns, and both keys survive. The
/// session's reassert then restores both pins with no re-acquire.
#[test]
fn tcp_fast_and_slow_pins_of_a_durable_daemon_survive_kill9_and_a_flood_until_their_reassert() {
    let dir = fresh_dir("tcp-pins-kill9");
    let port = free_port();
    let listen = format!("0.0.0.0:{port}");
    let addr: SocketAddr = ([127, 0, 0, 2], port).into();
    let driver = PatternDriver::new("out-", ".sdf", 6);
    let on_disk = |key: u64| dir.join(driver.filename_of(key)).exists();
    let pin_records = || {
        wal_records(&dir)
            .into_iter()
            .filter(|r| {
                !matches!(
                    r,
                    WalRecord::Epoch { .. } | WalRecord::Lease { .. } | WalRecord::ClientGone { .. }
                )
            })
            .count()
    };
    let worker = spawn_worker(&dir, &listen, false);
    await_listening(addr);
    let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
    client.set_auto_reconnect(true);
    client.set_op_timeout(Some(Duration::from_secs(10)));
    assert_eq!(client.transport(), Transport::Tcp);
    // The slow pin: a miss on 5 makes interval 1 resident.
    assert_eq!(client.acquire(&[5]).unwrap().ready, [5]);
    settle(&mut client);
    // The fast pin: 6 is resident, so the daemon pins it on its index.
    let fast = client.status().unwrap();
    assert_eq!(client.acquire(&[6]).unwrap().ready, [6]);
    let after = client.status().unwrap();
    assert_eq!(after.hits, fast.hits + 1, "6 was a hit");
    assert_eq!(after.misses, fast.misses, "6 was a hit");
    assert_eq!(pin_records(), 0, "{:?}", wal_records(&dir));

    drop(worker); // kill -9, 5 and 6 held
    let server = recover_in_process(&dir, &listen, Duration::from_secs(30), 4);
    let stats = server.stats();
    assert_eq!(stats.recovery_held_steps, 4, "interval 1: {stats:?}");

    // The flood, before the session returns.
    let mut flood = SimfsClient::connect(("127.0.0.1", port), "test-ctx").unwrap();
    for key in [10, 14, 18, 22] {
        flood_round(&mut flood, key);
        assert!(
            on_disk(5) && on_disk(6),
            "a held key was evicted before its session returned"
        );
    }

    // The session returns at its next open: both pins come back.
    let slow = server.stats().acquired_slow;
    assert_eq!(client.acquire(&[7]).unwrap().ready, [7]);
    assert_eq!(client.reconnects(), 1);
    assert_eq!(client.transport(), Transport::Tcp);
    assert_eq!(client.pins_reasserted(), 2, "5 and 6 restored");
    let stats = server.stats();
    assert_eq!(
        stats.acquired_slow, slow,
        "a reasserted key was re-acquired: {stats:?}"
    );
    assert_eq!(stats.leases_expired, 0);
    assert_eq!(pin_records(), 0, "{:?}", wal_records(&dir));

    client.finalize().unwrap();
    flood.finalize().unwrap();
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write-side disconnect on the Unix arm with a pin the daemon granted:
/// a slow pin's release is a staged frame even on a mapped session, so
/// after a kill -9 and a `--recover` restart its flush is the write that
/// meets `EPIPE`, and the session recovers right there.
#[test]
fn write_side_disconnect_at_a_slow_pins_release_recovers_on_the_unix_arm() {
    let dir = fresh_dir("epipe-slow-pin");
    let addr: SocketAddr = ([127, 0, 0, 1], free_port()).into();
    let listen = addr.to_string();
    let worker = spawn_worker(&dir, &listen, false);
    await_listening(addr);
    let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
    client.set_auto_reconnect(true);
    client.set_op_timeout(Some(Duration::from_secs(10)));
    assert_eq!(client.transport(), Transport::Local);
    // A miss: granted by the daemon, not through a slot.
    assert_eq!(client.acquire(&[6]).unwrap().ready, [6]);
    settle(&mut client);

    drop(worker); // kill -9
    let worker = spawn_worker(&dir, &listen, true);
    await_listening(addr);

    client.release(6).unwrap();
    assert_eq!(client.reconnects(), 0, "the release is only staged");
    client.flush().unwrap();
    assert_eq!(client.reconnects(), 1, "the flush met the dead connection");
    let status = client.acquire(&[7]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(client.transport(), Transport::Local);
    assert_eq!(client.epoch(), 2, "the recovered instance's epoch");
    client.finalize().unwrap();
    drop(worker);
    let _ = std::fs::remove_dir_all(&dir);
}
