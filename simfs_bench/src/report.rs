//! Turns measured phases into the contract's metrics.

use crate::loadgen::{Phase, SLICE};
use crate::metrics::MetricSet;
use crate::spans::{self_times, Span, NO_PARENT};
use crate::stats::{highest_supported_percentile, median, percentile, ratio};
use crate::workload::{Workload, ALPHA_MS, PER_INTERVAL, SMAX, TAU_MS};

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    percentile(&samples, 50.0)
}

/// Throughput and CPU per open as medians over the window's slices
/// (over the whole window when it is shorter than one slice).
pub fn sliced_rates(phase: &Phase) -> (f64, f64) {
    let busy: Vec<_> = phase
        .slices
        .iter()
        .filter(|(opens, _)| *opens > 0)
        .collect();
    if busy.is_empty() {
        let completed = phase.completed() as f64;
        return (
            ratio(completed, phase.window_s),
            ratio(phase.cpu.total_us() as f64, completed),
        );
    }
    let per_s: Vec<f64> = phase
        .slices
        .iter()
        .map(|(opens, _)| *opens as f64 / SLICE.as_secs_f64())
        .collect();
    let cpu: Vec<f64> = busy
        .iter()
        .map(|(opens, cpu)| cpu.total_us() as f64 / *opens as f64)
        .collect();
    (median(&per_s), median(&cpu))
}

/// The end-to-end metrics of an untraced phase.
pub fn end_to_end(metrics: &mut MetricSet, phase: &Phase, setup_s: f64) {
    let lat = phase.sorted_latencies_ns();
    metrics.set("setup_s", setup_s);
    metrics.set("opens_per_s", sliced_rates(phase).0);
    metrics.set("open_p75_us", us(percentile(&lat, 75.0)));
}

/// Lines a person reads next to the metrics: sample counts, latency
/// percentiles, the daemon's failure counters, and whether the tail
/// percentile has its ten samples.
pub fn phase_notes(phase: &Phase) -> Vec<String> {
    let lat = phase.sorted_latencies_ns();
    let mut notes = vec![format!(
        "opens: {} attempted, {} failed, {} latency samples over {:.3} s",
        phase.attempted(),
        phase.failed(),
        lat.len(),
        phase.window_s
    )];
    let at: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0]
        .iter()
        .map(|&q| format!("p{q} {:.1}", us(percentile(&lat, q))))
        .collect();
    notes.push(format!("open latency us: {}", at.join("  ")));
    let per_slice: Vec<u64> = phase.slices.iter().map(|(opens, _)| *opens).collect();
    notes.push(format!(
        "whole window: {:.1} opens/s, {:.1} us CPU per open; opens per {} ms slice: {per_slice:?}",
        ratio(phase.completed() as f64, phase.window_s),
        ratio(phase.cpu.total_us() as f64, phase.completed() as f64),
        SLICE.as_millis()
    ));
    let stats = &phase.stats;
    notes.push(format!(
        "daemon counters: sim_failures {}, sim_retries {}, corrupt_outputs {}, intervals_poisoned {}",
        stats.failures, stats.sim_retries, stats.corrupt_outputs, stats.intervals_poisoned
    ));
    match highest_supported_percentile(lat.len()) {
        Some(q) if q >= 99.0 => notes.push(format!(
            "highest percentile with ten samples beyond it: p{q}"
        )),
        other => notes.push(format!(
            "WARNING: {} samples support at most {}; p99 is reported but is not a result",
            lat.len(),
            other.map_or("no tail percentile".to_string(), |q| format!("p{q}"))
        )),
    }
    notes
}

/// Per-span-name view of the traced pass.
struct Traced<'a> {
    spans: Vec<&'a [Span]>,
}

impl Traced<'_> {
    fn durations(&self, name: &str, resident: Option<bool>) -> Vec<u64> {
        self.spans
            .iter()
            .flat_map(|spans| spans.iter())
            .filter(|s| s.name == name && resident.is_none_or(|r| s.resident == r))
            .map(Span::dur_ns)
            .collect()
    }

    /// Per open: (root duration, root self time, release + flush time).
    fn per_open(&self) -> Vec<(u64, u64, u64)> {
        let mut opens = Vec::new();
        for spans in &self.spans {
            let selfs = self_times(spans);
            let mut tail = vec![0u64; spans.len()];
            for s in spans
                .iter()
                .filter(|s| matches!(s.name, "client.release" | "client.flush"))
            {
                tail[s.parent as usize] += s.dur_ns();
            }
            opens.extend(
                spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.parent == NO_PARENT)
                    .map(|(i, s)| (s.dur_ns(), selfs[i], tail[i])),
            );
        }
        opens
    }
}

/// The per-layer metrics that come from running phases: `untraced`
/// supplies the daemon's counters and CPU times (they explain the
/// end-to-end numbers, which are measured with tracing off), `traced`
/// the spans. The probes are recorded separately.
pub fn per_layer(
    metrics: &mut MetricSet,
    workload: Workload,
    untraced: &Phase,
    traced: &Phase,
    step_bytes: u64,
    echo_per_s: f64,
) {
    let stats = &untraced.stats;
    let completed = untraced.completed() as f64;
    let per_open = |total: u64| ratio(total as f64, completed);
    let per_op_us = |ns: u64, ops: u64| ratio(ns as f64 / 1e3, ops as f64);
    let (steps_requested, intervals_requested) = untraced.distinct_requested();
    let opens_per_s = ratio(completed, untraced.window_s);
    let lat = untraced.sorted_latencies_ns();
    let attempted = untraced.attempted() + traced.attempted();

    metrics.set(
        "failed_share",
        ratio(
            (untraced.failed() + traced.failed()) as f64,
            attempted as f64,
        ),
    );
    metrics.set("resim_steps_per_open", per_open(stats.produced_steps));
    metrics.set("cpu_us_per_open", sliced_rates(untraced).1);
    metrics.set("open_p25_us", us(percentile(&lat, 25.0)));
    metrics.set("open_p50_us", us(percentile(&lat, 50.0)));
    metrics.set("open_p99_us", us(percentile(&lat, 99.0)));

    let t = Traced {
        spans: traced.clients.iter().map(|c| c.spans.as_slice()).collect(),
    };
    let opens = t.per_open();
    metrics.set(
        "client.acquire_resident_us",
        us(p50(t.durations("client.acquire", Some(true)))),
    );
    metrics.set(
        "client.release_flush_us",
        us(p50(opens.iter().map(|o| o.2).collect())),
    );
    metrics.set("reactor.cpu_us_per_open", per_open(untraced.reactor_cpu_us));
    metrics.set("reactor.ceiling_share", ratio(opens_per_s, echo_per_s));

    metrics.set(
        "dv.fast_path_share",
        ratio(
            stats.acquired_fast as f64,
            (stats.acquired_fast + stats.acquired_slow) as f64,
        ),
    );
    metrics.set("dv.hit_fallbacks", stats.hit_fallbacks as f64);
    metrics.set(
        "dv.lock_wait_ns_per_transition",
        ratio(stats.lock_wait_ns as f64, stats.lock_transitions as f64),
    );
    metrics.set(
        "dv.lock_hold_ns_per_transition",
        ratio(stats.lock_hold_ns as f64, stats.lock_transitions as f64),
    );

    metrics.set(
        "simstore.read_us",
        us(p50(t.durations("simstore.read", None))),
    );
    metrics.set("sdf.decode_us", us(p50(t.durations("sdf.decode", None))));
    metrics.set(
        "verify.fnv1a64_us",
        us(p50(t.durations("verify.fnv1a64", None))),
    );
    metrics.set(
        "intercept.self_us",
        us(p50(opens.iter().map(|o| o.1).collect())),
    );
    let bytes_read = if workload.reads_bytes() {
        completed * step_bytes as f64
    } else {
        0.0
    };
    metrics.set(
        "read_mib_per_s",
        ratio(bytes_read / (1 << 20) as f64, untraced.window_s),
    );

    metrics.set("walog.appends_per_open", per_open(stats.wal_appends));
    metrics.set(
        "walog.appends_per_sync",
        ratio(stats.wal_appends as f64, stats.wal_syncs as f64),
    );
    metrics.set(
        "effectpool.wal_us_per_op",
        per_op_us(stats.effect_wal_ns, stats.effect_wal_ops),
    );
    metrics.set(
        "effectpool.cpu_us_per_open",
        per_open(untraced.effect_cpu_us),
    );
    metrics.set("effectpool.queue_full", stats.helper_queue_full as f64);

    metrics.set(
        "dv.hit_rate",
        ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
    );
    metrics.set(
        "dv.restarts_per_interval",
        ratio(stats.restarts as f64, intervals_requested as f64),
    );
    metrics.set(
        "dv.resim_amplification",
        ratio(stats.produced_steps as f64, steps_requested as f64),
    );
    metrics.set("dv.evictions", stats.evictions as f64);
    metrics.set("dv.kills", stats.kills as f64);
    metrics.set("dv.sim_failures", stats.failures as f64);
    metrics.set("dv.sim_retries", stats.sim_retries as f64);
    metrics.set("dv.corrupt_outputs", stats.corrupt_outputs as f64);
    metrics.set("dv.intervals_poisoned", stats.intervals_poisoned as f64);
    let mut missing = t.durations("client.acquire", Some(false));
    missing.sort_unstable();
    metrics.set(
        "client.acquire_missing_ms",
        percentile(&missing, 50.0) as f64 / 1e6,
    );
    metrics.set(
        "client.acquire_missing_p99_ms",
        percentile(&missing, 99.0) as f64 / 1e6,
    );
    // The pacing's floor for the intervals this run touched: SMAX
    // simulations side by side, each alpha + B·tau per interval.
    let floor_s = if workload.paced() {
        intervals_requested as f64 * (ALPHA_MS + PER_INTERVAL * TAU_MS) as f64 / 1e3 / SMAX as f64
    } else {
        0.0
    };
    metrics.set("scan.over_lower_bound", ratio(untraced.window_s, floor_s));

    metrics.set("prefetch.launches", stats.prefetch_launches as f64);
    metrics.set(
        "prefetch.hit_share",
        ratio(stats.prefetch_hits as f64, stats.hits as f64),
    );
    metrics.set("prefetch.pollution_resets", stats.pollution_resets as f64);
    metrics.set("prefetch.digest_dropped", stats.digest_dropped as f64);

    metrics.set(
        "effectpool.spawn_us_per_op",
        per_op_us(stats.effect_spawn_ns, stats.effect_spawn_ops),
    );
    metrics.set(
        "effectpool.evict_us_per_op",
        per_op_us(stats.effect_evict_ns, stats.effect_evict_ops),
    );
    metrics.set(
        "effectpool.read_us_per_op",
        per_op_us(stats.effect_read_ns, stats.effect_read_ops),
    );
    metrics.set("effectpool.offloaded", stats.effects_offloaded as f64);
    metrics.set("simd.cpu_us_per_open", per_open(untraced.cpu.children_us));

    let traced_lat = traced.sorted_latencies_ns();
    let traced_per_s = ratio(traced.completed() as f64, traced.window_s);
    metrics.set("trace.open_p50_us", us(percentile(&traced_lat, 50.0)));
    metrics.set("trace.opens_per_s", traced_per_s);
    // Per open, the share of the root span its children account for.
    let mut accounted: Vec<u64> = opens
        .iter()
        .filter(|o| o.0 > 0)
        .map(|o| (o.0 - o.1) * 1_000_000 / o.0)
        .collect();
    accounted.sort_unstable();
    metrics.set(
        "trace.accounted_share",
        percentile(&accounted, 50.0) as f64 / 1e6,
    );
    metrics.set(
        "trace.overhead_share",
        1.0 - ratio(traced_per_s, opens_per_s),
    );

    let loadgen_us: u64 = untraced.clients.iter().map(|c| c.cpu_us).sum();
    metrics.set("runner.nproc", nproc() as f64);
    metrics.set(
        "loadgen.cpu_share",
        ratio(loadgen_us as f64, untraced.cpu.total_us() as f64),
    );
    metrics.set("loadgen.cpu_us_per_open", per_open(loadgen_us));
    metrics.set("daemon.threads", untraced.daemon_threads[0] as f64);
    metrics.set("daemon.reactor_threads", untraced.daemon_threads[1] as f64);
    metrics.set("daemon.effect_threads", untraced.daemon_threads[2] as f64);
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
