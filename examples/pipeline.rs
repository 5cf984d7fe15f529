//! Virtualizing a simulation pipeline (§III-E): a fine-grain simulation
//! consumes the output of a coarse-grain one. Both stages are
//! virtualized, each with its own DV daemon; when the fine stage
//! re-simulates, its simulator *acquires its inputs from the coarse
//! context* — recursively triggering coarse re-simulations for missing
//! inputs, exactly the cascade of Fig. 6.
//!
//! ```sh
//! cargo run --example pipeline
//! ```

use simbatch::{JobHandle, JobId, JobLauncher, SpawnSpec};
use simfs::prelude::*;
use simfs_core::client::SimulatorSession;
use simfs_core::server::env_keys;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Coarse-stage step content: a pure function of the key.
fn coarse_bytes(key: u64) -> Vec<u8> {
    let mut ds = Dataset::new(key, key as f64);
    ds.set_attr("stage", "coarse");
    ds.add_var(
        "boundary",
        vec![4],
        simstore::Data::F64(vec![key as f64, key as f64 * 0.5, -1.0, 1.0]),
    )
    .expect("boundary field");
    ds.encode().to_vec()
}

/// The fine-stage simulator: for each fine output step it *acquires*
/// the corresponding coarse step through the coarse DV (blocking until
/// the coarse context re-simulates it if missing), then derives its
/// output from the coarse boundary data.
struct FineLauncher {
    coarse_addr: OnceLock<SocketAddr>,
    coarse_storage: StorageArea,
    /// Unreaped sim threads: kill flag plus the handle whose result is
    /// the job's success (the launcher contract: `reap` reports every
    /// exit once, which is how the daemon retires its ledger entry).
    running: Mutex<HashMap<JobId, SimThread>>,
}

type SimThread = (Arc<std::sync::atomic::AtomicBool>, JoinHandle<bool>);

impl JobLauncher for FineLauncher {
    fn launch(&self, job: JobId, spec: &SpawnSpec) -> io::Result<JobHandle> {
        let get = |flag: &str| -> u64 {
            let pos = spec.args.iter().position(|a| a == flag).expect("flag");
            spec.args[pos + 1].parse().expect("number")
        };
        let (start, stop) = (get("--start-key"), get("--stop-key"));
        let env = |k: &str| -> String {
            spec.env
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .expect("env")
        };
        let addr = env(env_keys::DV_ADDR);
        let sim_id: u64 = env(env_keys::SIM_ID).parse().expect("sim id");
        let data_dir = env(env_keys::DATA_DIR);
        let coarse_addr = *self.coarse_addr.get().expect("coarse daemon up");
        let coarse_storage = self.coarse_storage.clone();
        let killed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let kill_requested = Arc::clone(&killed);

        let handle = std::thread::spawn(move || {
            let run = || -> io::Result<()> {
                let area = StorageArea::create(&data_dir, u64::MAX)?;
                let mut session = SimulatorSession::connect(&addr, "fine", sim_id)?;
                // The fine stage is itself an analysis client of the
                // coarse context (§III-E, Fig. 6).
                let mut inputs = SimfsClient::connect(coarse_addr, "coarse")?;
                std::thread::sleep(Duration::from_millis(10));
                session.started()?;
                for key in start..=stop {
                    if kill_requested.load(std::sync::atomic::Ordering::SeqCst) {
                        return Ok(());
                    }
                    // Fine step k needs coarse step ceil(k/2): acquire
                    // through the coarse DV — may trigger a coarse
                    // re-simulation.
                    let coarse_key = key.div_ceil(2);
                    let status = inputs.acquire(&[coarse_key])?;
                    if !status.ok() {
                        return Err(io::Error::other("coarse input unavailable"));
                    }
                    let coarse =
                        coarse_storage.read(&format!("out-{coarse_key:06}.sdf"))?;
                    let coarse_ds = Dataset::decode(&coarse).map_err(io::Error::other)?;
                    let boundary = coarse_ds
                        .var("boundary")
                        .and_then(|v| v.data.as_f64())
                        .expect("boundary");
                    inputs.release(coarse_key)?;

                    let mut ds = Dataset::new(key, key as f64);
                    ds.set_attr("stage", "fine");
                    ds.set_attr("coarse_input", coarse_key.to_string());
                    let refined: Vec<f64> =
                        boundary.iter().map(|x| x * 2.0 + key as f64 * 0.01).collect();
                    ds.add_var("refined", vec![4], simstore::Data::F64(refined))
                        .expect("refined field");
                    std::thread::sleep(Duration::from_millis(3));
                    let size = area.publish(&format!("out-{key:06}.sdf"), &ds.encode())?;
                    session.file_produced(key, size)?;
                }
                session.finished()
            };
            run().is_ok()
        });
        self.running.lock().unwrap().insert(job, (killed, handle));
        Ok(JobHandle { job, pid: 0 })
    }

    fn kill(&self, job: JobId) -> io::Result<()> {
        if let Some((flag, _)) = self.running.lock().unwrap().remove(&job) {
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        Ok(())
    }

    fn reap(&self) -> Vec<(JobId, bool)> {
        let mut running = self.running.lock().unwrap();
        let done: Vec<JobId> = running
            .iter()
            .filter(|(_, (_, handle))| handle.is_finished())
            .map(|(job, _)| *job)
            .collect();
        done.into_iter()
            .map(|job| {
                let (_, handle) = running.remove(&job).expect("collected under this lock");
                (job, handle.join().unwrap_or(false))
            })
            .collect()
    }
}

fn main() -> io::Result<()> {
    let base = std::env::temp_dir().join(format!("simfs-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let coarse_storage = StorageArea::create(base.join("coarse"), u64::MAX)?;
    let fine_storage = StorageArea::create(base.join("fine"), u64::MAX)?;
    let driver = Arc::new(PatternDriver::new("out-", ".sdf", 6));

    // --- stage 1: coarse context (64 steps, restart every 8).
    let coarse_ctx = ContextCfg::new("coarse", StepMath::new(1, 8, 64), 1024, 1 << 20)
        .with_smax(4);
    let coarse_launcher = Arc::new(ThreadSimLauncher::new(
        coarse_bytes,
        |key| format!("out-{key:06}.sdf"),
        Duration::from_millis(10),
        Duration::from_millis(2),
    ));
    let coarse = DvServer::start(
        ServerConfig {
            ctx: coarse_ctx,
            driver: driver.clone(),
            storage: coarse_storage.clone(),
            launcher: coarse_launcher,
            checksums: HashMap::new(),
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: DurabilityCfg::default(),
        },
        "127.0.0.1:0",
    )?;
    println!("coarse DV on {}", coarse.addr());

    // --- stage 2: fine context (128 steps, restart every 16); its
    // simulator pulls inputs from the coarse DV.
    let fine_launcher = Arc::new(FineLauncher {
        coarse_addr: OnceLock::new(),
        coarse_storage: coarse_storage.clone(),
        running: Mutex::new(HashMap::new()),
    });
    fine_launcher.coarse_addr.set(coarse.addr()).unwrap();
    let fine_ctx = ContextCfg::new("fine", StepMath::new(1, 16, 128), 1024, 1 << 20)
        .with_smax(2);
    let fine = DvServer::start(
        ServerConfig {
            ctx: fine_ctx,
            driver: driver.clone(),
            storage: fine_storage.clone(),
            launcher: fine_launcher,
            checksums: HashMap::new(),
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: DurabilityCfg::default(),
        },
        "127.0.0.1:0",
    )?;
    println!("fine DV on {} (inputs virtualized from coarse)", fine.addr());

    // --- analysis on the *fine* context only.
    let mut client = SimfsClient::connect(fine.addr(), "fine")?;
    println!("\nanalysis acquires fine steps 33..=40 (nothing materialized anywhere):");
    for key in 33..=40u64 {
        let status = client.acquire(&[key])?;
        assert!(status.ok(), "{status:?}");
        let ds = Dataset::decode(&fine_storage.read(&format!("out-{key:06}.sdf"))?)
            .map_err(io::Error::other)?;
        println!(
            "  fine step {key}: derived from coarse step {}",
            ds.attr("coarse_input").unwrap_or("?")
        );
        client.release(key)?;
    }

    let cs = coarse.stats();
    let fs = fine.stats();
    println!(
        "\ncascade: fine DV ran {} re-simulation(s); coarse DV ran {} to feed it",
        fs.restarts, cs.restarts
    );
    assert!(cs.restarts > 0, "coarse stage must have been re-simulated");

    client.finalize()?;
    fine.shutdown();
    coarse.shutdown();
    // The flag-based kill in FineLauncher is asynchronous: a killed
    // prefetch thread may still drain its current step (re-creating
    // storage paths) after the DVs report quiescent. Retry the cleanup
    // while those threads wind down.
    let mut cleaned = std::fs::remove_dir_all(&base);
    for _ in 0..100 {
        if cleaned.is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        cleaned = std::fs::remove_dir_all(&base);
    }
    cleaned?;
    println!("\npipeline virtualization OK");
    Ok(())
}
