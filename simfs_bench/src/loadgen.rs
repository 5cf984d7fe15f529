//! The closed-loop load generator: one thread and one connection per
//! analysis client, no think time (the analysis is faster than the
//! simulator — the regime of the paper's scaling figures), every byte
//! served checked.

use crate::fixture::Fixture;
use crate::procstat::{self, ProcessCpu};
use crate::spans::{Recorder, Span, NO_PARENT};
use crate::workload::{key_stream, KeyStream, Workload, BITREP_EVERY, DD, PER_INTERVAL, SMAX};
use simfs_core::client::SimfsClient;
use simfs_core::dv::DvStats;
use simfs_core::intercept::VirtualFs;
use simstore::{fnv1a64, Dataset, StorageArea};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// An open that did not deliver what it should have.
#[derive(Clone, Debug, PartialEq)]
pub enum OpenError {
    /// A call returned an error or a failed status: nothing was served.
    /// Counted in `failed`.
    Failed(String),
    /// The calls succeeded and served something else than the step
    /// asked for. Counted in `failed`, and the run is not `correct`.
    Wrong(String),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Failed(why) => write!(f, "FAILED OPEN: {why}"),
            OpenError::Wrong(why) => write!(f, "WRONG OUTPUT: {why}"),
        }
    }
}

/// The analysis's read: the step's field, summed so the bytes are
/// touched. Also the first output check — the dataset is the step asked
/// for.
fn read_field(ds: &Dataset, key: u64) -> Result<f64, OpenError> {
    if ds.step_index != key * DD {
        return Err(OpenError::Wrong(format!(
            "step {key}: dataset carries timestep {}, not {}",
            ds.step_index,
            key * DD
        )));
    }
    let field = ds
        .var("u")
        .and_then(|v| v.data.as_f64())
        .ok_or_else(|| OpenError::Wrong(format!("step {key}: no f64 field `u`")))?;
    Ok(field.iter().sum())
}

fn io_err(what: &str, key: u64, e: io::Error) -> OpenError {
    OpenError::Failed(format!("{what} of step {key}: {e}"))
}

/// `SIMFS_Bitrep` on a step the caller holds pinned.
fn bitrep(session: &mut SimfsClient, key: u64) -> Result<(), OpenError> {
    match session.bitrep(key) {
        Ok(Some(true)) => Ok(()),
        Ok(Some(false)) => Err(OpenError::Wrong(format!(
            "step {key}: SIMFS_Bitrep reports a checksum mismatch"
        ))),
        Ok(None) => Err(OpenError::Wrong(format!(
            "step {key}: no recorded checksum for SIMFS_Bitrep"
        ))),
        Err(e) => Err(io_err("bitrep", key, e)),
    }
}

/// Transparent open → read → close through the shipping facade.
fn open_transparent(
    vfs: &mut VirtualFs,
    name: &str,
    key: u64,
    check_bitrep: bool,
) -> Result<(), OpenError> {
    let ds = match vfs.open(name) {
        Ok(ds) => ds,
        Err(e) => {
            // The acquire may have pinned the step before the read
            // failed; a release of nothing is tolerated.
            let _ = vfs.close(name);
            return Err(io_err("open", key, e));
        }
    };
    // A wrong dataset is still closed, or its pin would outlive the run.
    let mut served = read_field(&ds, key).map(|sum| {
        black_box(sum);
    });
    if check_bitrep {
        served = served.and(bitrep(vfs.session(), key));
    }
    vfs.close(name).map_err(|e| io_err("close", key, e))?;
    served
}

/// Explicit acquire/release pair, no bytes read; the release rides the
/// next acquire's write, as DVLib stages it.
fn open_explicit(vfs: &mut VirtualFs, key: u64, check_bitrep: bool) -> Result<(), OpenError> {
    let session = vfs.session();
    let status = session
        .acquire(&[key])
        .map_err(|e| io_err("acquire", key, e))?;
    if let Some((k, err)) = status.failed.first() {
        return Err(OpenError::Failed(format!(
            "acquire of step {k} failed: {err}"
        )));
    }
    let served = if check_bitrep {
        bitrep(session, key)
    } else {
        Ok(())
    };
    session
        .release(key)
        .map_err(|e| io_err("release", key, e))?;
    served
}

/// What the traced open needs besides the session.
pub struct TraceCtx<'a> {
    /// The context's storage area (the one `VirtualFs` reads from).
    pub storage: &'a StorageArea,
    /// `checksums.db`: the bytes served must hash to the initial
    /// simulation's entry — bit-reproducibility through the process
    /// boundary.
    pub checksums: &'a HashMap<u64, u64>,
    /// Does the workload read bytes, or only pin and unpin?
    pub reads_bytes: bool,
}

/// `VirtualFs::open` + `close`, composed from the same public calls
/// they make, with a span around each. Returns the dataset `open` would
/// have returned (`None` on the explicit-API workload).
pub fn open_traced(
    vfs: &mut VirtualFs,
    cx: &TraceCtx<'_>,
    rec: &mut Recorder,
    open_id: u32,
    name: &str,
    key: u64,
) -> Result<Option<Dataset>, OpenError> {
    let resident = vfs.is_materialized(name);
    let root = rec.begin("open", NO_PARENT, open_id, resident);
    let result = open_traced_inner(vfs, cx, rec, root, name, key);
    rec.end(root);
    result
}

fn open_traced_inner(
    vfs: &mut VirtualFs,
    cx: &TraceCtx<'_>,
    rec: &mut Recorder,
    root: u32,
    name: &str,
    key: u64,
) -> Result<Option<Dataset>, OpenError> {
    let status = rec
        .child("client.acquire", root, || vfs.session().acquire(&[key]))
        .map_err(|e| io_err("acquire", key, e))?;
    if let Some((k, err)) = status.failed.first() {
        return Err(OpenError::Failed(format!(
            "acquire of step {k} failed: {err}"
        )));
    }
    let mut served = Ok(None);
    if cx.reads_bytes {
        served = (|| {
            let bytes = rec
                .child("simstore.read", root, || cx.storage.read(name))
                .map_err(|e| io_err("read", key, e))?;
            let ds = rec
                .child("sdf.decode", root, || Dataset::decode(&bytes))
                .map_err(|e| OpenError::Failed(format!("decode of step {key}: {e}")))?;
            let digest = rec.child("verify.fnv1a64", root, || fnv1a64(&bytes));
            if cx.checksums.get(&key) != Some(&digest) {
                return Err(OpenError::Wrong(format!(
                    "step {key}: bytes hash to {digest:#x}, checksums.db disagrees"
                )));
            }
            black_box(read_field(&ds, key)?);
            Ok(Some(ds))
        })();
    }
    rec.child("client.release", root, || vfs.session().release(key))
        .map_err(|e| io_err("release", key, e))?;
    if cx.reads_bytes {
        rec.child("client.flush", root, || vfs.session().flush())
            .map_err(|e| io_err("flush", key, e))?;
    }
    served
}

/// What one client did during a phase.
#[derive(Default)]
pub struct ClientRun {
    /// Open → bytes → close latency of every successful, unsampled open.
    pub latencies_ns: Vec<u64>,
    /// Opens attempted.
    pub attempted: u64,
    /// Opens that errored, failed, or served wrong bytes.
    pub failed: u64,
    /// Those of them that served wrong bytes.
    pub wrong: u64,
    /// The first few failures, for the report.
    pub errors: Vec<OpenError>,
    /// CPU time of the client thread.
    pub cpu_us: u64,
    /// Spans of the traced pass (empty when tracing is off).
    pub spans: Vec<Span>,
    /// Bit `key` is set once the client asked for step `key`.
    requested: Vec<u64>,
    /// Successful opens that ended in each slice of the window.
    slice_opens: Vec<u32>,
    ended: Option<Instant>,
}

impl ClientRun {
    fn fail(&mut self, error: OpenError) {
        self.failed += 1;
        self.wrong += u64::from(matches!(error, OpenError::Wrong(_)));
        if self.errors.len() < 4 {
            self.errors.push(error);
        }
    }
}

/// One measured window against one fixture.
pub struct Phase {
    /// Per-client results.
    pub clients: Vec<ClientRun>,
    /// The common start to the last open's end.
    pub window_s: f64,
    /// The whole slices of the window: opens that delivered the right
    /// bytes in the slice, and the process CPU (own threads + children
    /// reaped) it cost.
    pub slices: Vec<(u64, ProcessCpu)>,
    /// Daemon counter deltas, read after the daemon went idle.
    pub stats: DvStats,
    /// Process CPU (own threads + reaped `simfs-simd` children).
    pub cpu: ProcessCpu,
    /// CPU of the `dv-reactor-*` threads.
    pub reactor_cpu_us: u64,
    /// CPU of the `dv-effect-*` threads.
    pub effect_cpu_us: u64,
    /// Live `dv-*`, `dv-reactor-*` and `dv-effect-*` threads.
    pub daemon_threads: [u64; 3],
    /// Daemon-side invariants that did not hold at the end.
    pub violations: Vec<String>,
}

impl Phase {
    /// Opens attempted by all clients.
    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    /// Opens that failed, over all clients.
    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// Opens that served something else than the step asked for.
    pub fn wrong(&self) -> u64 {
        self.clients.iter().map(|c| c.wrong).sum()
    }

    /// Opens that delivered the right bytes.
    pub fn completed(&self) -> u64 {
        self.attempted() - self.failed()
    }

    /// Distinct steps and distinct restart intervals the clients asked
    /// for — the bases of the re-simulation ratios.
    pub fn distinct_requested(&self) -> (u64, u64) {
        let words = self
            .clients
            .iter()
            .map(|c| c.requested.len())
            .max()
            .unwrap_or(0);
        let mut union = vec![0u64; words];
        for client in &self.clients {
            for (all, own) in union.iter_mut().zip(&client.requested) {
                *all |= own;
            }
        }
        let steps = union.iter().map(|w| u64::from(w.count_ones())).sum();
        // Interval j holds keys j·B+1 ..= (j+1)·B.
        let bit = |key: u64| {
            union
                .get((key / 64) as usize)
                .is_some_and(|w| w >> (key % 64) & 1 == 1)
        };
        let last_key = words as u64 * 64;
        let intervals = (0..last_key.div_ceil(PER_INTERVAL))
            .filter(|j| (j * PER_INTERVAL + 1..=(j + 1) * PER_INTERVAL).any(bit))
            .count() as u64;
        (steps, intervals)
    }

    /// All clients' latency samples, ascending.
    pub fn sorted_latencies_ns(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .clients
            .iter()
            .flat_map(|c| c.latencies_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

fn stats_delta(after: &DvStats, before: &DvStats) -> DvStats {
    // `DvStats` offers `accumulate` but no difference; these are the
    // counters the report and the output checks read.
    macro_rules! delta {
        ($($field:ident),* $(,)?) => {
            DvStats { $($field: after.$field.saturating_sub(before.$field),)* ..DvStats::default() }
        };
    }
    delta!(
        hits,
        misses,
        restarts,
        prefetch_launches,
        scheduled_steps,
        produced_steps,
        evictions,
        kills,
        pollution_resets,
        failures,
        acquired_fast,
        acquired_slow,
        hit_fallbacks,
        lock_wait_ns,
        lock_hold_ns,
        lock_transitions,
        digest_replayed,
        digest_dropped,
        prefetch_hits,
        wal_appends,
        sim_retries,
        sims_hung_killed,
        intervals_poisoned,
        corrupt_outputs,
        effects_offloaded,
        helper_queue_full,
        wal_syncs,
        effect_spawn_ns,
        effect_spawn_ops,
        effect_wal_ns,
        effect_wal_ops,
        effect_evict_ns,
        effect_evict_ops,
        effect_read_ns,
        effect_read_ops,
    )
}

/// The window is cut into slices of this length; throughput and CPU
/// per open are reported as medians over the slices, so a burst of
/// interference from the machine's other tenants moves a few slices,
/// not the result.
pub const SLICE: Duration = Duration::from_millis(500);

/// Whole slices in a window of `run_for`.
fn slice_count(run_for: Duration) -> usize {
    (run_for.as_nanos() / SLICE.as_nanos()) as usize
}

/// What every client of a phase shares.
struct PhaseJob<'a> {
    workload: Workload,
    fx: &'a Fixture,
    run_for: Duration,
    traced: bool,
    /// All clients start together, here; also zero of the span clock
    /// and of the slices.
    start: Instant,
}

fn client_loop(job: &PhaseJob<'_>, vfs: &mut VirtualFs, mut keys: KeyStream) -> ClientRun {
    let PhaseJob {
        workload,
        fx,
        traced,
        ..
    } = *job;
    let mut run = ClientRun {
        requested: vec![0; fx.names.len().div_ceil(64)],
        slice_opens: vec![0; slice_count(job.run_for)],
        ..ClientRun::default()
    };
    let mut rec = Recorder::new(job.start);
    let cx = TraceCtx {
        storage: &fx.storage,
        checksums: &fx.checksums,
        reads_bytes: workload.reads_bytes(),
    };
    let cpu_before = procstat::this_thread_us();
    std::thread::sleep(job.start.saturating_duration_since(Instant::now()));
    let deadline = job.start + job.run_for;
    let mut now = Instant::now();
    while now < deadline {
        let Some(key) = keys.next() else { break };
        let name = fx.names[key as usize].as_str();
        run.attempted += 1;
        run.requested[(key / 64) as usize] |= 1 << (key % 64);
        // One open in BITREP_EVERY also asks the daemon to verify the
        // file while it is pinned; that open stays out of the latency
        // pool. The traced pass hashes every open's bytes itself.
        let sampled = !traced && run.attempted.is_multiple_of(BITREP_EVERY);
        let outcome = if traced {
            open_traced(vfs, &cx, &mut rec, run.attempted as u32, name, key).map(|_| ())
        } else if workload.reads_bytes() {
            open_transparent(vfs, name, key, sampled)
        } else {
            open_explicit(vfs, key, sampled)
        };
        let began = now;
        now = Instant::now();
        match outcome {
            Ok(()) => {
                if !sampled {
                    run.latencies_ns.push((now - began).as_nanos() as u64);
                }
                // An open that ends after the deadline is in no slice.
                let slice = ((now - job.start).as_nanos() / SLICE.as_nanos()) as usize;
                if let Some(count) = run.slice_opens.get_mut(slice) {
                    *count += 1;
                }
            }
            Err(e) => run.fail(e),
        }
    }
    run.ended = Some(now);
    run.cpu_us = procstat::this_thread_us().saturating_sub(cpu_before);
    run.spans = rec.spans;
    run
}

/// Runs every client of `fx` for `seconds`, waits for the daemon to go
/// idle, and reads the counters and CPU times the window cost.
pub fn run_phase(
    fx: &mut Fixture,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> io::Result<Phase> {
    let mut sessions = std::mem::take(&mut fx.sessions);
    let clients = sessions.len();
    let stats_before = fx.server.stats();
    let cpu_before = ProcessCpu::now();
    let reactor_before = procstat::thread_group("dv-reactor-").cpu_us;
    let effect_before = procstat::thread_group("dv-effect-").cpu_us;

    let run_for = Duration::from_secs_f64(seconds);
    // Built before the clock starts: an archive trace takes a while.
    let streams: Vec<KeyStream> = (0..clients)
        .map(|i| key_stream(workload, seed, i, clients, seconds))
        .collect();
    // Far enough ahead that every client thread is up and waiting.
    let start = Instant::now() + Duration::from_millis(20);
    let job = PhaseJob {
        workload,
        fx,
        run_for,
        traced,
        start,
    };
    let mut slice_cpu = Vec::new();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(i, (vfs, keys))| {
                let job = &job;
                std::thread::Builder::new()
                    .name(format!("bench-client-{i}"))
                    .spawn_scoped(scope, move || client_loop(job, vfs, keys))
                    .expect("spawn client thread")
            })
            .collect();
        // This thread has nothing to do but read the CPU clock at
        // every slice boundary.
        for boundary in 0..=slice_count(run_for) {
            std::thread::sleep(
                (start + SLICE * boundary as u32).saturating_duration_since(Instant::now()),
            );
            slice_cpu.push(ProcessCpu::now());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    fx.sessions = sessions;

    // In-flight (prefetched) simulations are part of what the window
    // cost: their steps and CPU count once they finish.
    fx.wait_idle(Duration::from_secs(30))?;
    let stats = stats_delta(&fx.server.stats(), &stats_before);
    let cpu = ProcessCpu::now().since(cpu_before);
    let reactor_cpu_us = procstat::thread_group("dv-reactor-")
        .cpu_us
        .saturating_sub(reactor_before);
    let effect_cpu_us = procstat::thread_group("dv-effect-")
        .cpu_us
        .saturating_sub(effect_before);

    let last = runs.iter().filter_map(|r| r.ended).max().unwrap_or(start);
    let slices = (0..slice_count(run_for))
        .map(|k| {
            let opens = runs.iter().map(|r| u64::from(r.slice_opens[k])).sum();
            (opens, slice_cpu[k + 1].since(slice_cpu[k]))
        })
        .collect();
    let mut violations = Vec::new();
    // A poisoned interval answers every later acquire with a failure.
    // (`failures` and `corrupt_outputs` are reported, not judged: see
    // "Findings" in the README.)
    if stats.intervals_poisoned > 0 {
        violations.push(format!(
            "{} restart intervals poisoned",
            stats.intervals_poisoned
        ));
    }
    if let Some(budget) = workload.cache_steps() {
        let resident = fx.resident_outputs()?;
        let allowed = budget + SMAX as u64 * PER_INTERVAL;
        if resident > allowed {
            violations.push(format!(
                "{resident} output steps resident, budget {budget} + {} in flight",
                allowed - budget
            ));
        }
    }
    Ok(Phase {
        clients: runs,
        window_s: last.saturating_duration_since(start).as_secs_f64(),
        slices,
        stats,
        cpu,
        reactor_cpu_us,
        effect_cpu_us,
        daemon_threads: ["dv-", "dv-reactor-", "dv-effect-"]
            .map(|p| procstat::thread_group(p).threads),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{context_spec, WorkDir, CONTEXT};
    use simfs::launchers::KernelLauncher;
    use simfs_core::driver::SimDriver;
    use simfs_core::dv::ClusterMember;
    use simfs_core::server::{DurabilityCfg, DvServer, ServerConfig};
    use std::sync::Arc;

    /// The traced composition is only a faithful stand-in for
    /// `VirtualFs::open`/`close` while it returns what they return.
    #[test]
    fn traced_open_returns_what_virtualfs_open_returns() {
        let dir = WorkDir::create().unwrap();
        let spec = context_spec(Workload::HotRead, 7, 32, dir.path());
        let storage = StorageArea::create(dir.path(), u64::MAX).unwrap();
        let init = simfs::setup::run_initial_simulation(
            &storage,
            spec.sim,
            spec.seed,
            spec.dd,
            spec.dr,
            spec.timesteps,
        )
        .unwrap();
        let driver = Arc::new(spec.driver("unused"));
        // Same kernel, same seed, in-process: `cargo test` does not
        // build the `simfs-simd` binary.
        let launcher =
            KernelLauncher::new(spec.sim, spec.dd, spec.dr, Duration::ZERO, Duration::ZERO);
        let server = DvServer::start(
            ServerConfig {
                ctx: spec.context_cfg(),
                driver: driver.clone(),
                storage: storage.clone(),
                launcher: Arc::new(launcher),
                checksums: init.checksums.clone(),
                dv_shards: 0,
                cluster: ClusterMember::SOLO,
                durability: DurabilityCfg::default(),
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let client = SimfsClient::connect(server.addr(), CONTEXT).unwrap();
        let mut vfs = VirtualFs::new(client, driver.clone(), storage.clone());
        let cx = TraceCtx {
            storage: &storage,
            checksums: &init.checksums,
            reads_bytes: true,
        };
        let mut rec = Recorder::new(Instant::now());

        for (open_id, key) in [13u64, 12, 3].into_iter().enumerate() {
            let name = driver.filename_of(key);
            let was_resident = vfs.is_materialized(&name);
            let traced = open_traced(&mut vfs, &cx, &mut rec, open_id as u32, &name, key)
                .unwrap()
                .unwrap();
            let shipped = vfs.open(&name).unwrap();
            vfs.close(&name).unwrap();
            assert_eq!(traced, shipped, "step {key}");
            assert_eq!(traced.step_index, key * DD);
            let root = rec
                .spans
                .iter()
                .find(|s| s.open_id == open_id as u32 && s.parent == NO_PARENT)
                .unwrap();
            assert_eq!((root.name, root.resident), ("open", was_resident));
        }
        let names: Vec<&str> = rec
            .spans
            .iter()
            .filter(|s| s.open_id == 0)
            .map(|s| s.name)
            .collect();
        assert_eq!(
            names,
            [
                "open",
                "client.acquire",
                "simstore.read",
                "sdf.decode",
                "verify.fnv1a64",
                "client.release",
                "client.flush"
            ]
        );
        // Step 13 was missing; 12, produced before it by the same
        // re-simulation, was resident after.
        assert!(!rec.spans[0].resident);
        assert!(rec.spans.iter().find(|s| s.open_id == 1).unwrap().resident);
        // Every pin was dropped again.
        assert_eq!(server.fast_pinned(CONTEXT, 13), Some(false));
        // A wrong checksum database is a failed open, not a silent pass.
        let empty = HashMap::new();
        let bad = TraceCtx {
            storage: &storage,
            checksums: &empty,
            reads_bytes: true,
        };
        let err = open_traced(&mut vfs, &bad, &mut rec, 9, &driver.filename_of(3), 3).unwrap_err();
        assert!(
            matches!(&err, OpenError::Wrong(why) if why.contains("checksums.db")),
            "{err}"
        );
        // A resident step whose file is gone is a failed operation, not
        // a wrong answer, and leaves no pin behind.
        let name = driver.filename_of(12);
        assert!(storage.delete(&name).unwrap());
        let gone = open_transparent(&mut vfs, &name, 12, false).unwrap_err();
        assert!(matches!(gone, OpenError::Failed(_)), "{gone}");
        // A release has no reply: one round trip later it was applied.
        vfs.session().status().unwrap();
        assert_eq!(server.fast_pinned(CONTEXT, 12), Some(false));
        vfs.finalize().unwrap();
    }

    #[test]
    fn read_field_rejects_the_wrong_step() {
        let mut ds = Dataset::new(10, 0.0);
        ds.add_var("u", vec![2], simstore::Data::F64(vec![1.5, 2.5]))
            .unwrap();
        assert_eq!(read_field(&ds, 5), Ok(4.0));
        let wrong = |r: Result<f64, OpenError>| match r {
            Err(OpenError::Wrong(why)) => why,
            other => panic!("expected wrong output, got {other:?}"),
        };
        assert!(wrong(read_field(&ds, 6)).contains("timestep 10"));
        assert!(wrong(read_field(&Dataset::new(10, 0.0), 5)).contains("no f64 field"));
    }
}
