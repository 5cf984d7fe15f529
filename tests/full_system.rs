//! Full-system integration: the production deployment shape — a DV
//! daemon launching *real* `simfs-simd` subprocesses over TCP, serving
//! a real analysis client (Fig. 2's complete workflow).

use simfs::prelude::*;
use simstore::checksum_db;
use simulators::SimKind;
use std::collections::HashMap;
use std::process::Command;
use std::sync::Arc;

/// Path of the sibling `simfs-simd` binary (provided by Cargo for
/// integration tests of the package that defines it).
fn simd_bin() -> &'static str {
    env!("CARGO_BIN_EXE_simfs-simd")
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simfs-full-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `simfs-simd --init` as a subprocess, then serves an analysis
/// through a daemon whose re-simulations are `simfs-simd` subprocesses.
#[test]
fn subprocess_resimulation_end_to_end() {
    let dir = fresh_dir("e2e");
    let (dd, dr, timesteps) = (2u64, 16u64, 160u64); // B = 8, N = 80

    // Initial simulation as the operator would run it.
    let status = Command::new(simd_bin())
        .args([
            "--sim", "heat2d", "--dd", "2", "--dr", "16", "--seed", "11",
            "--init", "--timesteps", "160",
            "--data-dir", dir.to_str().unwrap(),
        ])
        .status()
        .expect("spawn simfs-simd --init");
    assert!(status.success(), "initial simulation failed");

    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    let checksums = checksum_db::load(&dir.join(checksum_db::DB_FILENAME)).unwrap();
    assert_eq!(checksums.len(), 80, "one checksum per output step");

    // Daemon with a process launcher building real simfs-simd jobs.
    let steps = StepMath::new(dd, dr, timesteps);
    let sample = simulators::build_sim(SimKind::Heat2d, 11).output().encode();
    let ctx = ContextCfg::new("heat", steps, sample.len() as u64, u64::MAX / 4).with_smax(4);
    let driver = Arc::new(PatternDriver::new("out-", ".sdf", 6).with_program(
        simd_bin(),
        vec![
            "--sim".into(), "heat2d".into(),
            "--dd".into(), "2".into(),
            "--dr".into(), "16".into(),
            "--seed".into(), "11".into(),
        ],
    ));
    let launcher = Arc::new(ProcessLauncher::new());
    let server = DvServer::start(
        ServerConfig {
            ctx,
            driver: driver.clone(),
            storage: storage.clone(),
            launcher: launcher.clone(),
            checksums,
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: DurabilityCfg::default(),
        },
        "127.0.0.1:0",
    )
    .unwrap();

    let mut client = SimfsClient::connect(server.addr(), "heat").unwrap();

    // Miss in the middle of the timeline: subprocess re-simulation.
    let status = client.acquire(&[21]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert!(storage.exists(&driver.filename_of(21)));

    // Bitwise reproducibility through a *process* boundary.
    assert_eq!(client.bitrep(21).unwrap(), Some(true));

    // The interval partner steps land on disk too; key 21's readiness
    // precedes the tail of the interval, so synchronize on the last
    // step of the range before checking the whole interval.
    let status = client.acquire(&[24]).unwrap();
    assert!(status.ok(), "{status:?}");
    client.release(24).unwrap();
    for key in 17..=24 {
        assert!(storage.exists(&driver.filename_of(key)), "key {key}");
    }

    // Forward walk across an interval boundary: second interval is a
    // fresh subprocess.
    for key in 22..=27u64 {
        let status = client.acquire(&[key]).unwrap();
        assert!(status.ok(), "step {key}: {status:?}");
        client.release(key).unwrap();
    }
    let stats = server.stats();
    assert!(stats.restarts >= 2, "two intervals => at least two jobs");

    // Once the walk settles, every child must be reaped without a
    // further launch to nudge the reaper: a protocol `SimFinished`
    // leaves the job in flight until the launcher reports its exit.
    // And no clean exit may be mistaken for a failure — the exit of a
    // sim that said Hello is not a lifecycle event.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while client.status().unwrap().active_sims > 0 {
        assert!(std::time::Instant::now() < deadline, "sims never settled");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(500);
    while launcher.live() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "{} children unreaped ten reaper polls after the last sim finished",
            launcher.live()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stats = server.stats();
    assert_eq!(stats.failures, 0, "{stats:?}");
    assert_eq!(stats.sim_retries, 0, "{stats:?}");

    client.finalize().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A boundary key (`key % B == 0`) is served by a restart dump — the
/// subprocess produces exactly one file.
#[test]
fn subprocess_boundary_dump() {
    let dir = fresh_dir("dump");
    Command::new(simd_bin())
        .args([
            "--sim", "synthetic", "--dd", "1", "--dr", "8", "--seed", "3",
            "--init", "--timesteps", "64",
            "--data-dir", dir.to_str().unwrap(),
        ])
        .status()
        .expect("init")
        .success()
        .then_some(())
        .expect("init failed");

    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    let checksums = checksum_db::load(&dir.join(checksum_db::DB_FILENAME)).unwrap();
    let ctx = ContextCfg::new(
        "syn",
        StepMath::new(1, 8, 64),
        1024,
        u64::MAX / 4,
    );
    let driver = Arc::new(PatternDriver::new("out-", ".sdf", 6).with_program(
        simd_bin(),
        vec![
            "--sim".into(), "synthetic".into(),
            "--dd".into(), "1".into(),
            "--dr".into(), "8".into(),
            "--seed".into(), "3".into(),
        ],
    ));
    let server = DvServer::start(
        ServerConfig {
            ctx,
            driver,
            storage: storage.clone(),
            launcher: Arc::new(ProcessLauncher::new()),
            checksums,
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: DurabilityCfg::default(),
        },
        "127.0.0.1:0",
    )
    .unwrap();

    let mut client = SimfsClient::connect(server.addr(), "syn").unwrap();
    let status = client.acquire(&[16]).unwrap(); // 16 % 8 == 0: boundary
    assert!(status.ok());
    assert_eq!(client.bitrep(16).unwrap(), Some(true));
    let produced = server.stats().produced_steps;
    assert_eq!(produced, 1, "boundary key is a single restart dump");

    client.finalize().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed subprocess (missing restart file) surfaces as a failed
/// acquire, not a hang.
#[test]
fn subprocess_failure_reports_cleanly() {
    let dir = fresh_dir("fail");
    std::fs::create_dir_all(&dir).unwrap();
    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    // No --init: restart files are missing, every re-simulation fails.
    let ctx = ContextCfg::new("broken", StepMath::new(1, 8, 64), 1024, u64::MAX / 4);
    let driver = Arc::new(PatternDriver::new("out-", ".sdf", 6).with_program(
        simd_bin(),
        vec![
            "--sim".into(), "synthetic".into(),
            "--dd".into(), "1".into(),
            "--dr".into(), "8".into(),
        ],
    ));
    let server = DvServer::start(
        ServerConfig {
            ctx,
            driver,
            storage,
            launcher: Arc::new(ProcessLauncher::new()),
            checksums: HashMap::new(),
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: DurabilityCfg::default(),
        },
        "127.0.0.1:0",
    )
    .unwrap();

    let mut client = SimfsClient::connect(server.addr(), "broken").unwrap();
    let mut req = client.acquire_nb(&[5]).unwrap();
    // The subprocess exits non-zero without ever connecting; the DV
    // notices the dead job via the launcher... in this implementation
    // the process dies before Hello, so the *connection-loss* path is
    // not taken. The acquire must still fail once the failure is
    // detected. Poll with test() under a deadline.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let mut resolved = false;
    while std::time::Instant::now() < deadline {
        let (done, status) = client.test(&mut req).unwrap();
        if done {
            assert!(!status.ok(), "acquire must fail, got {status:?}");
            resolved = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(resolved, "failure was never reported");
    client.finalize().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
