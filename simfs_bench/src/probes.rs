//! Isolated layer probes: fixed-count timings of each module's public
//! entry points with no daemon around them, so a traced span can be
//! compared with what the layer costs alone. The surface is kept to the
//! functions named in the README; a probe that needs more than that is
//! measuring the wrong thing.

use crate::fixture::{context_spec, WorkDir};
use crate::metrics::MetricSet;
use crate::stats::percentile;
use crate::workload::{Workload, ALPHA_MS, DD, DR, PER_INTERVAL, SMAX, TAU_MS};
use bytes::BytesMut;
use simbatch::{JobId, JobLauncher, ProcessLauncher};
use simcache::{policy_by_name, CacheSim, HitIndex};
use simfs_core::driver::SimDriver;
use simfs_core::dv::{DataVirtualizer, DvAction, DvEvent};
use simfs_core::effectpool::EffectPool;
use simfs_core::model::{ContextCfg, StepMath};
use simfs_core::prefetch::{PrefetchAgent, PrefetchInputs};
use simfs_core::reactor::{ConnCtx, Handler, Reactor};
use simfs_core::server::env_keys;
use simfs_core::wire::{self, Request, Response};
use simkit::{Dur, SimTime};
use simstore::walog::{WalRecord, WriteAheadLog};
use simstore::{sdf, Dataset, StorageArea};
use simulators::build_sim;
use std::hint::black_box;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean nanoseconds per call of `f` over `iters` calls.
fn mean_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let began = Instant::now();
    for i in 0..iters {
        f(i);
    }
    began.elapsed().as_nanos() as f64 / iters as f64
}

/// Median nanoseconds of `iters` individually timed calls — for calls
/// that reach the kernel, where one slow outlier would own a mean.
fn median_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|i| {
            let began = Instant::now();
            f(i);
            began.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    percentile(&samples, 50.0) as f64
}

fn scaled(count: u64, scale: f64) -> u64 {
    ((count as f64 * scale) as u64).max(8)
}

/// The context the probes borrow their shapes from: the resident
/// workload's cadences, the miss workloads' cache budget.
fn probe_cfg(timeline_steps: u64, step_bytes: u64) -> ContextCfg {
    let budget = Workload::ColdScan
        .cache_steps()
        .expect("cold_scan is bounded");
    ContextCfg::new(
        "probe",
        StepMath::new(DD, DR, timeline_steps * DD),
        step_bytes,
        budget * step_bytes,
    )
    .with_smax(SMAX)
}

/// `Request::Acquire` and its `Response::Ready`, encoded and decoded.
fn wire_codec_ns(scale: f64) -> f64 {
    let mut buf = BytesMut::with_capacity(64);
    mean_ns(scaled(200_000, scale), |i| {
        buf.clear();
        Request::Acquire {
            req_id: i,
            keys: vec![i],
        }
        .encode_into(&mut buf);
        black_box(Request::decode(&buf).expect("own encoding"));
        buf.clear();
        Response::Ready { req_id: i, key: i }.encode_into(&mut buf);
        black_box(Response::decode(&buf).expect("own encoding"));
    })
}

/// Answers every frame with a `Ready`-sized frame: the shipping
/// reactor, frame parser and flush path with no DV behind them.
struct Echo;

impl Handler for Echo {
    fn on_frame(&mut self, frame: &[u8], cx: &mut ConnCtx<'_>) -> bool {
        const READY_LEN: usize = 17;
        let mut out = [0u8; 4 + READY_LEN];
        out[..4].copy_from_slice(&(READY_LEN as u32).to_le_bytes());
        out[4] = frame.first().copied().unwrap_or(0);
        cx.write(&out);
        true
    }

    fn on_close(&mut self) {}
}

/// Round trips of acquire-sized frames against [`Echo`] from `clients`
/// blocking connections: (median round trip in ns, round trips per s).
fn reactor_echo(clients: usize, scale: f64) -> io::Result<(f64, f64)> {
    let reactor = Reactor::start(clients)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let body = Request::Acquire {
        req_id: 1,
        keys: vec![1],
    }
    .encode();
    let per_client = scaled(20_000, scale);
    let result = std::thread::scope(|scope| -> io::Result<(f64, f64)> {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let body = &body;
                scope.spawn(move || -> io::Result<(Vec<u64>, Instant, Instant)> {
                    let mut stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    let mut rtts = Vec::with_capacity(per_client as usize);
                    let started = Instant::now();
                    let mut now = started;
                    for _ in 0..per_client {
                        wire::write_frame(&mut stream, body)?;
                        wire::read_frame(&mut stream)?.ok_or(io::ErrorKind::UnexpectedEof)?;
                        let done = Instant::now();
                        rtts.push((done - now).as_nanos() as u64);
                        now = done;
                    }
                    Ok((rtts, started, now))
                })
            })
            .collect();
        for _ in 0..clients {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            reactor.submit(stream, Box::new(Echo));
        }
        let mut rtts = Vec::new();
        let (mut first, mut last) = (None::<Instant>, None::<Instant>);
        for handle in handles {
            let (mut r, started, ended) = handle.join().expect("echo client panicked")?;
            rtts.append(&mut r);
            first = Some(first.map_or(started, |f| f.min(started)));
            last = Some(last.map_or(ended, |l| l.max(ended)));
        }
        rtts.sort_unstable();
        let window = (last.expect("clients ran") - first.expect("clients ran")).as_secs_f64();
        Ok((percentile(&rtts, 50.0) as f64, rtts.len() as f64 / window))
    });
    reactor.shutdown();
    result
}

/// Pin and unpin of a published key in the lock-free hit index.
fn hitindex_pin_unpin_ns(scale: f64) -> f64 {
    let index = HitIndex::new(16);
    for key in 1..=256 {
        index.publish(key);
    }
    mean_ns(scaled(1_000_000, scale), |i| {
        let key = i % 256 + 1;
        assert!(index.try_hit_pin(key));
        index.unpin(key, 1);
    })
}

/// Acquire + release of a resident key through the DV state machine.
fn dv_hit_transition_ns(step_bytes: u64, scale: f64) -> f64 {
    let mut dv = DataVirtualizer::new(probe_cfg(256, step_bytes));
    for key in 1..=256 {
        dv.prime(key, step_bytes);
    }
    let mut actions = Vec::new();
    mean_ns(scaled(200_000, scale), |i| {
        let (now, key) = (SimTime::from_nanos(i * 1000), i % 256 + 1);
        dv.handle_into(now, DvEvent::Acquire { client: 1, key }, &mut actions);
        dv.handle_into(now, DvEvent::Release { client: 1, key }, &mut actions);
        actions.clear();
    })
}

/// One whole miss through the DV state machine: miss → launch →
/// started → one `FileProduced` per step → finished → release, at the
/// cache budget so inserts evict. Prefetch is off: the agent is probed
/// on its own.
fn dv_miss_interval_us(step_bytes: u64, scale: f64) -> f64 {
    let intervals = scaled(4_000, scale);
    let cfg = probe_cfg(intervals * PER_INTERVAL, step_bytes).with_prefetch(false);
    let mut dv = DataVirtualizer::new(cfg);
    let mut actions = Vec::new();
    let ns = mean_ns(intervals, |j| {
        let now = SimTime::from_nanos(j * 1_000_000);
        let key = j * PER_INTERVAL + 1;
        dv.handle_into(now, DvEvent::Acquire { client: 1, key }, &mut actions);
        let (sim, keys) = actions
            .iter()
            .find_map(|a| match a {
                DvAction::Launch { sim, keys, .. } => Some((*sim, keys.clone())),
                _ => None,
            })
            .expect("a miss launches a simulation");
        actions.clear();
        dv.handle_into(now, DvEvent::SimStarted { sim }, &mut actions);
        for produced in keys {
            dv.handle_into(
                now,
                DvEvent::FileProduced {
                    sim,
                    key: produced,
                    size: step_bytes,
                },
                &mut actions,
            );
        }
        dv.handle_into(now, DvEvent::SimFinished { sim }, &mut actions);
        assert!(actions.contains(&DvAction::NotifyReady { client: 1, key }));
        dv.handle_into(now, DvEvent::Release { client: 1, key }, &mut actions);
        actions.clear();
    });
    ns / 1e3
}

/// A forward scan fed to one prefetch agent.
fn prefetch_on_access_ns(scale: f64) -> f64 {
    let accesses = scaled(200_000, scale);
    let inputs = PrefetchInputs {
        alpha: Dur::from_millis(ALPHA_MS),
        tau_sim: Dur::from_millis(TAU_MS),
        steps: StepMath::new(DD, DR, (accesses + PER_INTERVAL) * DD),
        smax: SMAX,
        ramp: false,
    };
    let mut agent = PrefetchAgent::new(0.5);
    agent.observe_tau_cli(Dur::from_micros(50));
    mean_ns(accesses, |i| {
        black_box(agent.on_access(i + 1, &inputs));
    })
}

/// DCL at capacity: every insert evicts.
fn dcl_cycle_ns(step_bytes: u64, scale: f64) -> f64 {
    let capacity = Workload::ColdScan
        .cache_steps()
        .expect("cold_scan is bounded");
    let policy = policy_by_name("dcl", capacity as usize).expect("dcl is a shipped policy");
    let mut cache = CacheSim::new(policy, capacity * step_bytes);
    for key in 1..=capacity {
        cache.insert(key, step_bytes, key % PER_INTERVAL);
    }
    mean_ns(scaled(200_000, scale), |i| {
        let key = capacity + 1 + i;
        black_box(cache.insert(key, step_bytes, key % PER_INTERVAL));
    })
}

/// Buffered append, and the flush + fdatasync that makes it durable.
fn walog(dir: &Path, scale: f64) -> io::Result<(f64, f64)> {
    let (mut log, _, _) = WriteAheadLog::open(dir.join("probe.wal"))?;
    let record = |i: u64| WalRecord::PinAcquire {
        client: 1,
        key: i,
        epoch: 1,
    };
    let mut flushed = Ok(0);
    let append_ns = mean_ns(scaled(400_000, scale), |i| {
        log.append(&record(i));
        // Written out now and then so the buffer stays a buffer.
        if i % 4096 == 4095 {
            flushed = log.flush();
        }
    });
    flushed?;
    log.sync()?;
    let mut synced = Ok(());
    let flush_sync_ns = median_ns(scaled(400, scale), |i| {
        log.append(&record(i));
        synced = log.flush().and_then(|_| log.sync());
    });
    synced?;
    Ok((append_ns, flush_sync_ns / 1e3))
}

/// Submit on a shard's queue until the helper thread runs the job.
fn effectpool_submit_to_run_us(scale: f64) -> io::Result<f64> {
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    let exec = Arc::new(move |batch: Vec<Instant>| {
        for submitted in batch {
            let _ = done_tx.send(submitted.elapsed().as_nanos() as u64);
        }
    });
    let pool: EffectPool<Instant> = EffectPool::start(1, 1, 256, exec)?;
    let mut samples: Vec<u64> = (0..scaled(4_000, scale))
        .map(|_| {
            pool.submit(0, Instant::now());
            done_rx.recv().expect("helper runs every job")
        })
        .collect();
    pool.shutdown();
    samples.sort_unstable();
    Ok(percentile(&samples, 50.0) as f64 / 1e3)
}

/// The data plane on one real output step, what `simfs-simd` pays per
/// restart load (alpha) and per produced step (tau) on this box, and
/// one standalone `simfs-simd` interval through `ProcessLauncher`.
fn data_plane(metrics: &mut MetricSet, simd: &Path, seed: u64, scale: f64) -> io::Result<()> {
    let dir = WorkDir::create()?;
    let spec = context_spec(Workload::HotRead, seed, 64, dir.path());
    let area = StorageArea::create(dir.path(), u64::MAX)?;
    simfs::setup::run_initial_simulation(
        &area,
        spec.sim,
        spec.seed,
        spec.dd,
        spec.dr,
        spec.timesteps,
    )?;
    let driver = spec.driver(&simd.to_string_lossy());

    let mut sim = build_sim(spec.sim, spec.seed);
    let heat2d_step_us = mean_ns(scaled(20_000, scale), |_| sim.step()) / 1e3;
    let step: Dataset = sim.output();
    let bytes = step.encode();
    let n = scaled(20_000, scale);
    let encode_us = mean_ns(n, |_| drop(black_box(step.encode()))) / 1e3;
    let decode_us = mean_ns(n, |_| drop(black_box(Dataset::decode(&bytes)))) / 1e3;
    let verify_us = mean_ns(n, |_| drop(black_box(sdf::verify(&bytes)))) / 1e3;

    let files = scaled(400, scale);
    let mut io_result = Ok(());
    let publish_us = median_ns(files, |i| {
        if let Err(e) = area.publish(&format!("probe-{i:06}.sdf"), &bytes) {
            io_result = Err(e);
        }
    }) / 1e3;
    let read_us = median_ns(files * 10, |i| {
        match area.read(&format!("probe-{:06}.sdf", i % files)) {
            Ok(read) => drop(black_box(read)),
            Err(e) => io_result = Err(e),
        }
    }) / 1e3;

    // What simfs-simd does between exec and `SimStarted`, and then per
    // output step, with the pacing sleeps left out.
    let restarts = spec.timesteps / spec.dr;
    let alpha_ms = median_ns(scaled(200, scale), |i| {
        let mut fresh = build_sim(spec.sim, spec.seed);
        let loaded = area
            .read(&driver.restart_filename(i % restarts))
            .and_then(|raw| Dataset::decode(&raw).map_err(io::Error::other))
            .and_then(|ds| fresh.load_restart(&ds).map_err(io::Error::other));
        if let Err(e) = loaded {
            io_result = Err(e);
        }
        black_box(fresh.timestep());
    }) / 1e6;
    let tau_ms = median_ns(files, |i| {
        for _ in 0..spec.dd {
            sim.step();
        }
        if let Err(e) = area.publish(&format!("probe-{i:06}.sdf"), &sim.output().encode()) {
            io_result = Err(e);
        }
    }) / 1e6;

    // One unpaced, standalone restart interval through ProcessLauncher.
    let launcher = ProcessLauncher::new();
    let mut failed_jobs = 0;
    let spawn_exit_ms = median_ns(scaled(40, scale), |i| {
        let interval = i % restarts;
        let job = driver
            .make_job(
                interval * PER_INTERVAL + 1,
                (interval + 1) * PER_INTERVAL,
                0,
            )
            .env(env_keys::DATA_DIR, spec.data_dir.clone());
        if let Err(e) = launcher.launch(JobId(i), &job) {
            io_result = Err(e);
            return;
        }
        loop {
            match launcher.reap().first() {
                Some(&(_, ok)) => {
                    failed_jobs += u64::from(!ok);
                    break;
                }
                None => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    }) / 1e6;
    io_result?;
    if failed_jobs > 0 {
        return Err(io::Error::other(format!(
            "{failed_jobs} standalone simfs-simd runs failed"
        )));
    }
    metrics.set("probe.sdf.decode_us", decode_us);
    metrics.set("probe.sdf.encode_us", encode_us);
    metrics.set("probe.sdf.verify_us", verify_us);
    metrics.set("probe.simstore.publish_us", publish_us);
    metrics.set("probe.simstore.read_us", read_us);
    metrics.set("probe.simd.alpha_ms", alpha_ms);
    metrics.set("probe.simd.tau_ms", tau_ms);
    metrics.set("probe.heat2d.step_us", heat2d_step_us);
    metrics.set("probe.simbatch.spawn_exit_ms", spawn_exit_ms);
    Ok(())
}

/// Runs every probe and records it under its contract name. `scale`
/// shrinks the iteration counts (the smoke run uses 1/20).
pub fn run_all(
    metrics: &mut MetricSet,
    simd: &Path,
    seed: u64,
    clients: usize,
    step_bytes: u64,
    scale: f64,
) -> io::Result<()> {
    metrics.set("probe.wire.codec_ns", wire_codec_ns(scale));
    let (echo_rtt_ns, echo_per_s) = reactor_echo(clients, scale)?;
    metrics.set("probe.reactor.echo_rtt_us", echo_rtt_ns / 1e3);
    metrics.set("probe.reactor.echo_per_s", echo_per_s);
    metrics.set("probe.hitindex.pin_unpin_ns", hitindex_pin_unpin_ns(scale));
    metrics.set(
        "probe.dv.hit_transition_ns",
        dv_hit_transition_ns(step_bytes, scale),
    );
    metrics.set(
        "probe.dv.miss_interval_us",
        dv_miss_interval_us(step_bytes, scale),
    );
    metrics.set("probe.prefetch.on_access_ns", prefetch_on_access_ns(scale));
    metrics.set(
        "probe.simcache.dcl_cycle_ns",
        dcl_cycle_ns(step_bytes, scale),
    );
    let dir = WorkDir::create()?;
    let (append_ns, flush_sync_us) = walog(dir.path(), scale)?;
    metrics.set("probe.walog.append_ns", append_ns);
    metrics.set("probe.walog.flush_sync_us", flush_sync_us);
    metrics.set(
        "probe.effectpool.submit_to_run_us",
        effectpool_submit_to_run_us(scale)?,
    );
    data_plane(metrics, simd, seed, scale)
}
