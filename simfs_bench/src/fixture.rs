//! One benchmark context brought up the way a deployment would be:
//! `simfs-simd --init`, the shipping daemon with default tuning, a
//! `ProcessLauncher` spawning `simfs-simd` for every re-simulation, and
//! one `VirtualFs` session per analysis client.

use crate::workload::{Workload, ALPHA_MS, DD, DR, PER_INTERVAL, SMAX, TAU_MS};
use simbatch::{JobLauncher, ProcessLauncher};
use simfs::spec::ContextSpec;
use simfs_core::client::SimfsClient;
use simfs_core::driver::{PatternDriver, SimDriver};
use simfs_core::dv::ClusterMember;
use simfs_core::intercept::VirtualFs;
use simfs_core::server::{DurabilityCfg, DvServer, ServerConfig};
use simkit::SeedSeq;
use simstore::{checksum_db, StorageArea};
use simulators::SimKind;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Context name every session says hello to.
pub const CONTEXT: &str = "bench";

/// "Unbounded" cache budget in steps (the byte product must not
/// overflow `u64`).
const UNBOUNDED_STEPS: u64 = u64::MAX >> 20;

/// A directory under the build's target directory — inside the
/// checkout the benchmark runs from — removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh directory next to the running executable.
    pub fn create() -> io::Result<WorkDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join("simfs_bench_work").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once the last run leaves it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `simfs-simd` as built next to this binary, unless overridden.
pub fn locate_simd(override_path: Option<&str>) -> Result<PathBuf, String> {
    let path = match override_path {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .with_file_name("simfs-simd"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "simulator binary {} is missing: run `cargo build --release` first (this package builds \
             `simfs-simd` next to `simfs_bench`), or pass --simd PATH",
            path.display()
        ))
    }
}

/// The context description shared by the daemon, `simfs-simd` and the
/// isolated probes.
pub fn context_spec(
    workload: Workload,
    seed: u64,
    timeline_steps: u64,
    data_dir: &Path,
) -> ContextSpec {
    ContextSpec {
        name: CONTEXT.to_string(),
        sim: SimKind::Heat2d,
        // The initial condition follows the seed, so the bytes served
        // differ between seeds while their size does not.
        seed: SeedSeq::new(seed).seed(1000) & 0xffff_ffff,
        dd: DD,
        dr: DR,
        timesteps: timeline_steps * DD,
        policy: "dcl".to_string(),
        smax: SMAX,
        cache_steps: workload.cache_steps().unwrap_or(UNBOUNDED_STEPS),
        prefix: "out-".to_string(),
        suffix: ".sdf".to_string(),
        pad: 6,
        tau_ms: if workload.paced() { TAU_MS } else { 0 },
        alpha_ms: if workload.paced() { ALPHA_MS } else { 0 },
        data_dir: data_dir.to_string_lossy().into_owned(),
    }
}

/// Runs the initial simulation (`simfs-simd --init`) for `spec`.
pub fn run_init(simd: &Path, spec: &ContextSpec) -> io::Result<()> {
    let status = Command::new(simd)
        .args(["--init", "--sim", spec.sim.name()])
        .args(["--dd", &spec.dd.to_string(), "--dr", &spec.dr.to_string()])
        .args([
            "--seed",
            &spec.seed.to_string(),
            "--timesteps",
            &spec.timesteps.to_string(),
        ])
        .args(["--data-dir", &spec.data_dir])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "simfs-simd --init exited with {status}"
        )))
    }
}

/// A running context plus the handles the load generator and the
/// output checks need.
pub struct Fixture {
    /// One connected session per client; the load generator takes them.
    /// Declared (so dropped) before the daemon they talk to.
    pub sessions: Vec<VirtualFs>,
    /// A session of the benchmark's own, for `Status` polls.
    control: SimfsClient,
    /// The shipping daemon.
    pub server: DvServer,
    /// The context's storage area.
    pub storage: StorageArea,
    /// Naming convention.
    pub driver: Arc<PatternDriver>,
    /// The daemon's launcher, kept to see its children gone once the
    /// daemon has stopped.
    launcher: Arc<ProcessLauncher>,
    /// `checksums.db` of the initial simulation.
    pub checksums: HashMap<u64, u64>,
    /// `names[key]` is the file name of output step `key`.
    pub names: Vec<String>,
    /// Encoded size of one output step.
    pub step_bytes: u64,
    /// Timeline length in output steps.
    pub timeline_steps: u64,
    /// Time from the first set-up action to the first timed open.
    pub setup_s: f64,
    /// Declared last: the daemon and its children are gone before the
    /// directory is removed.
    _dir: WorkDir,
}

impl Fixture {
    /// `--init`, daemon start, sessions, warm-up. For the resident
    /// workloads the warm-up opens the whole timeline once, so every
    /// step is simulated into the unbounded cache.
    pub fn setup(
        workload: Workload,
        seed: u64,
        seconds: f64,
        clients: usize,
        simd: &Path,
    ) -> io::Result<Fixture> {
        let began = Instant::now();
        let dir = WorkDir::create()?;
        let timeline_steps = workload.timeline_steps(seconds, clients);
        let spec = context_spec(workload, seed, timeline_steps, dir.path());
        run_init(simd, &spec)?;

        let storage = StorageArea::create(dir.path(), u64::MAX)?;
        let checksums = checksum_db::load(&storage.root().join(checksum_db::DB_FILENAME))?;
        let ctx = spec.context_cfg();
        let step_bytes = ctx.output_bytes;
        let driver = Arc::new(spec.driver(&simd.to_string_lossy()));
        let launcher = Arc::new(ProcessLauncher::new());
        let server = DvServer::start(
            ServerConfig {
                ctx,
                driver: driver.clone(),
                storage: storage.clone(),
                launcher: launcher.clone(),
                checksums: checksums.clone(),
                dv_shards: 0,
                cluster: ClusterMember::SOLO,
                durability: if workload.durable() {
                    DurabilityCfg::durable(false)
                } else {
                    DurabilityCfg::default()
                },
            },
            "127.0.0.1:0",
        )?;

        let names: Vec<String> = (0..=timeline_steps)
            .map(|key| driver.filename_of(key))
            .collect();
        let mut sessions = Vec::with_capacity(clients);
        for _ in 0..clients {
            let client = SimfsClient::connect(server.addr(), CONTEXT)?;
            sessions.push(VirtualFs::new(client, driver.clone(), storage.clone()));
        }
        let control = SimfsClient::connect(server.addr(), CONTEXT)?;
        let mut fixture = Fixture {
            sessions,
            control,
            server,
            storage,
            driver,
            launcher,
            checksums,
            names,
            step_bytes,
            timeline_steps,
            setup_s: 0.0,
            _dir: dir,
        };
        fixture.warm_up(workload)?;
        fixture.setup_s = began.elapsed().as_secs_f64();
        Ok(fixture)
    }

    fn warm_up(&mut self, workload: Workload) -> io::Result<()> {
        if workload.resident() {
            // Interval-sized batches keep SMAX simulations busy without
            // asking the daemon for the timeline in one frame.
            let keys: Vec<u64> = (1..=self.timeline_steps).collect();
            let session = self.sessions[0].session();
            for batch in keys.chunks((SMAX as u64 * PER_INTERVAL) as usize) {
                let status = session.acquire(batch)?;
                if let Some((key, err)) = status.failed.first() {
                    return Err(io::Error::other(format!(
                        "warm-up of step {key} failed: {err}"
                    )));
                }
                for &key in batch {
                    session.release(key)?;
                }
            }
            session.flush()?;
        }
        // One round trip per session: connections are established and
        // the daemon's threads have run before the first timed open.
        for vfs in &mut self.sessions {
            vfs.session().status()?;
        }
        self.wait_idle(Duration::from_secs(30))
    }

    /// Waits until the daemon knows of no running re-simulation, so the
    /// counters read after this are final. The daemon's launcher is
    /// left alone: each child's exit is reported once and is the
    /// daemon's to consume. A child the DV wrote off early (see
    /// `dv.sim_failures` in the README) stays unreaped while the
    /// daemon's reaper is parked, so the CPU time of the last few
    /// simulators of a window is missing from `simd.cpu_us_per_open`.
    pub fn wait_idle(&mut self, limit: Duration) -> io::Result<()> {
        let deadline = Instant::now() + limit;
        // Idle twice in a row: a finishing simulation hands its slot to
        // a queued launch inside one daemon transition, but the launch
        // shows up a moment later.
        let mut idle_polls = 0;
        loop {
            let active = self.control.status()?.active_sims;
            idle_polls = if active == 0 { idle_polls + 1 } else { 0 };
            if idle_polls == 2 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other(format!(
                    "daemon still busy after {limit:?}: {active} active simulations"
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Output files (`out-*.sdf`) currently in the storage area.
    pub fn resident_outputs(&self) -> io::Result<u64> {
        Ok(self
            .storage
            .list()?
            .iter()
            .filter(|name| self.driver.key_of(name).is_some())
            .count() as u64)
    }
}

impl Drop for Fixture {
    /// Stops the daemon, then waits for its children: the launcher is
    /// shared with daemon threads that may outlive this call, so its
    /// own kill-on-drop can come after the directory is gone, and a
    /// simulator publishing into a removed directory complains on
    /// standard error. With the daemon stopped nobody else consumes
    /// these exits.
    fn drop(&mut self) {
        self.sessions.clear();
        self.server.shutdown();
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.launcher.live() > 0 && Instant::now() < deadline {
            self.launcher.reap();
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
