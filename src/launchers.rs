//! [`KernelLauncher`]: runs real simulation kernels in-process.
//!
//! The production path launches `simfs-simd` as an OS process through
//! [`simbatch::ProcessLauncher`]. For examples, tests, and
//! single-machine use, `KernelLauncher` provides the same behaviour —
//! load the restart file, step the kernel, publish output steps, notify
//! the DV — as a thread inside the daemon's process. The protocol
//! traffic is identical (it connects to the daemon over TCP like any
//! simulator), only the process boundary is removed.

use simbatch::{JobHandle, JobId, JobLauncher, SpawnSpec};
use simfs_core::client::SimulatorSession;
use simfs_core::server::env_keys;
use simstore::{Dataset, StorageArea};
use simulators::{build_sim, SimKind};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// In-process launcher around a [`simulators::SimKind`] kernel.
pub struct KernelLauncher {
    kind: SimKind,
    /// Timesteps per output step.
    dd: u64,
    /// Timesteps per restart step.
    dr: u64,
    /// Emulated production interval per output step.
    tau: Duration,
    /// Emulated restart latency.
    alpha: Duration,
    /// Unreaped sim threads. Entries leave through `kill` or `reap`.
    running: Mutex<HashMap<JobId, SimThread>>,
}

/// One launched sim thread: its kill flag, and the handle whose result
/// is the job's success.
struct SimThread {
    killed: Arc<AtomicBool>,
    handle: JoinHandle<bool>,
}

impl KernelLauncher {
    /// A launcher for the given kernel and cadence; `alpha`/`tau` pace
    /// the production so experiments exercise the prefetch machinery.
    pub fn new(kind: SimKind, dd: u64, dr: u64, alpha: Duration, tau: Duration) -> KernelLauncher {
        assert!(dd > 0 && dr.is_multiple_of(dd), "Δr must be a multiple of Δd");
        KernelLauncher {
            kind,
            dd,
            dr,
            tau,
            alpha,
            running: Mutex::new(HashMap::new()),
        }
    }

    fn arg(spec: &SpawnSpec, flag: &str) -> Option<u64> {
        let pos = spec.args.iter().position(|a| a == flag)?;
        spec.args.get(pos + 1)?.parse().ok()
    }

    fn env_of<'a>(spec: &'a SpawnSpec, key: &str) -> Option<&'a str> {
        spec.env.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

impl JobLauncher for KernelLauncher {
    fn launch(&self, job: JobId, spec: &SpawnSpec) -> io::Result<JobHandle> {
        let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidInput, msg.to_string());
        let start = Self::arg(spec, "--start-key").ok_or_else(|| invalid("missing --start-key"))?;
        let stop = Self::arg(spec, "--stop-key").ok_or_else(|| invalid("missing --stop-key"))?;
        let addr = Self::env_of(spec, env_keys::DV_ADDR)
            .ok_or_else(|| invalid("missing DV addr"))?
            .to_string();
        let sim_id: u64 = Self::env_of(spec, env_keys::SIM_ID)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("missing sim id"))?;
        let context = Self::env_of(spec, env_keys::CONTEXT).unwrap_or("").to_string();
        let data_dir = Self::env_of(spec, env_keys::DATA_DIR)
            .ok_or_else(|| invalid("missing data dir"))?
            .to_string();

        let killed = Arc::new(AtomicBool::new(false));
        let kill_requested = Arc::clone(&killed);

        let (kind, dd, dr, tau, alpha) = (self.kind, self.dd, self.dr, self.tau, self.alpha);
        let handle = std::thread::spawn(move || {
            let run = || -> io::Result<()> {
                let area = StorageArea::create(&data_dir, u64::MAX)?;
                let b = dr / dd;
                let restart_j = if start % b == 0 && start == stop {
                    start / b
                } else {
                    (start - 1) / b
                };
                let restart_bytes = area.read(&format!("restart-{restart_j:06}.sdf"))?;
                let restart = Dataset::decode(&restart_bytes).map_err(io::Error::other)?;
                let mut sim = build_sim(kind, 0);
                sim.load_restart(&restart).map_err(io::Error::other)?;

                let mut session = SimulatorSession::connect(&addr, &context, sim_id)?;
                std::thread::sleep(alpha);
                session.started()?;

                let mut publish = |key: u64,
                                   sim: &mut Box<dyn simulators::RestartableSim + Send>|
                 -> io::Result<()> {
                    std::thread::sleep(tau);
                    let bytes = sim.output().encode();
                    let size = area.publish(&format!("out-{key:06}.sdf"), &bytes)?;
                    session.file_produced(key, size)
                };

                if sim.timestep() == start * dd && start == stop {
                    publish(start, &mut sim)?;
                } else {
                    let stop_t = stop * dd;
                    while sim.timestep() < stop_t {
                        if kill_requested.load(Ordering::SeqCst) {
                            return Ok(()); // vanish: DV already dropped us
                        }
                        sim.step();
                        let t = sim.timestep();
                        if t.is_multiple_of(dd) && t / dd >= start {
                            publish(t / dd, &mut sim)?;
                        }
                    }
                }
                session.finished()
            };
            run().is_ok()
        });
        self.running
            .lock()
            .expect("kernel launcher lock")
            .insert(job, SimThread { killed, handle });
        Ok(JobHandle { job, pid: 0 })
    }

    fn kill(&self, job: JobId) -> io::Result<()> {
        let entry = self.running.lock().expect("kernel launcher lock").remove(&job);
        if let Some(sim) = entry {
            sim.killed.store(true, Ordering::SeqCst);
        }
        Ok(())
    }

    fn reap(&self) -> Vec<(JobId, bool)> {
        let mut running = self.running.lock().expect("kernel launcher lock");
        let done: Vec<JobId> = running
            .iter()
            .filter(|(_, sim)| sim.handle.is_finished())
            .map(|(job, _)| *job)
            .collect();
        done.into_iter()
            .map(|job| {
                let sim = running.remove(&job).expect("collected under this lock");
                // A sim thread that panicked counts as a failed job.
                (job, sim.handle.join().unwrap_or(false))
            })
            .collect()
    }
}
