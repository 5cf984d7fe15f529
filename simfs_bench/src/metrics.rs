//! The metric names, units and regression bounds this benchmark
//! promises — the same table `BENCHMARK.json` carries for the driver
//! (a unit test pins the two equal) — and the emitter that refuses to
//! print a run which left one of them out.

/// One declared metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Contract name; later issues cite it.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Is a larger value an improvement?
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only; per-layer metrics are not gated).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: 0.0,
    }
}

/// What an analysis sees, measured with tracing off. Defined — and
/// never 0 — on every workload; an "open" on `hot_meta_durable` is one
/// acquire/release pair.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("opens_per_s", "1/s", true, 0.25),
    e2e("open_p75_us", "us", false, 0.25),
];

/// Single-layer numbers from the traced pass, the daemon's counters
/// over the same window, and the isolated probes. Layers are module
/// names; the README says which end-to-end metric each should move.
pub const PER_LAYER: &[MetricDef] = &[
    // Judged per workload rather than gated: 0 on some workloads
    // (`failed_share`, `resim_steps_per_open`) or too noisy on a
    // two-core runner (`open_p99_us`).
    lower("failed_share", "ratio"),
    lower("resim_steps_per_open", "steps"),
    lower("cpu_us_per_open", "us"),
    lower("open_p25_us", "us"),
    lower("open_p50_us", "us"),
    lower("open_p99_us", "us"),
    // client / wire / reactor / sys
    lower("client.acquire_resident_us", "us"),
    lower("client.release_flush_us", "us"),
    lower("reactor.cpu_us_per_open", "us"),
    higher("reactor.ceiling_share", "ratio"),
    lower("probe.wire.codec_ns", "ns"),
    lower("probe.reactor.echo_rtt_us", "us"),
    higher("probe.reactor.echo_per_s", "1/s"),
    // simcache::hitindex / dv hit path
    higher("dv.fast_path_share", "ratio"),
    lower("dv.hit_fallbacks", "count"),
    lower("dv.lock_wait_ns_per_transition", "ns"),
    lower("dv.lock_hold_ns_per_transition", "ns"),
    lower("probe.hitindex.pin_unpin_ns", "ns"),
    lower("probe.dv.hit_transition_ns", "ns"),
    // intercept / simstore::area / simstore::sdf
    lower("simstore.read_us", "us"),
    lower("sdf.decode_us", "us"),
    lower("verify.fnv1a64_us", "us"),
    lower("intercept.self_us", "us"),
    higher("read_mib_per_s", "MiB/s"),
    lower("probe.sdf.decode_us", "us"),
    lower("probe.sdf.encode_us", "us"),
    lower("probe.sdf.verify_us", "us"),
    lower("probe.simstore.publish_us", "us"),
    lower("probe.simstore.read_us", "us"),
    // simstore::walog / effectpool (WAL class)
    lower("walog.appends_per_open", "count"),
    higher("walog.appends_per_sync", "count"),
    lower("effectpool.wal_us_per_op", "us"),
    lower("effectpool.cpu_us_per_open", "us"),
    lower("effectpool.queue_full", "count"),
    lower("probe.walog.append_ns", "ns"),
    lower("probe.walog.flush_sync_us", "us"),
    lower("probe.effectpool.submit_to_run_us", "us"),
    // dv miss path / server supervision
    higher("dv.hit_rate", "ratio"),
    lower("dv.restarts_per_interval", "ratio"),
    lower("dv.resim_amplification", "ratio"),
    lower("dv.evictions", "count"),
    lower("dv.kills", "count"),
    lower("dv.sim_failures", "count"),
    lower("dv.sim_retries", "count"),
    lower("dv.corrupt_outputs", "count"),
    lower("dv.intervals_poisoned", "count"),
    lower("client.acquire_missing_ms", "ms"),
    lower("client.acquire_missing_p99_ms", "ms"),
    lower("scan.over_lower_bound", "ratio"),
    lower("probe.dv.miss_interval_us", "us"),
    // prefetch
    lower("prefetch.launches", "count"),
    higher("prefetch.hit_share", "ratio"),
    lower("prefetch.pollution_resets", "count"),
    lower("prefetch.digest_dropped", "count"),
    lower("probe.prefetch.on_access_ns", "ns"),
    // effectpool (spawn/evict/read) / simbatch / simfs-simd / simulators
    lower("effectpool.spawn_us_per_op", "us"),
    lower("effectpool.evict_us_per_op", "us"),
    lower("effectpool.read_us_per_op", "us"),
    lower("effectpool.offloaded", "count"),
    lower("simd.cpu_us_per_open", "us"),
    lower("probe.simbatch.spawn_exit_ms", "ms"),
    lower("probe.simd.alpha_ms", "ms"),
    lower("probe.simd.tau_ms", "ms"),
    lower("probe.heat2d.step_us", "us"),
    // simcache policies
    lower("probe.simcache.dcl_cycle_ns", "ns"),
    // the traced pass itself
    lower("trace.open_p50_us", "us"),
    higher("trace.opens_per_s", "1/s"),
    higher("trace.accounted_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    // runner context (read these before comparing two machines)
    higher("runner.nproc", "count"),
    lower("loadgen.cpu_share", "ratio"),
    lower("loadgen.cpu_us_per_open", "us"),
    lower("daemon.threads", "count"),
    lower("daemon.reactor_threads", "count"),
    lower("daemon.effect_threads", "count"),
];

/// Values measured by one run, keyed by contract name.
#[derive(Debug, Default)]
pub struct MetricSet {
    values: Vec<(&'static str, f64)>,
}

impl MetricSet {
    /// Records `value` under `name`.
    ///
    /// # Panics
    /// Panics when `name` is recorded twice — two code paths claiming
    /// one contract name is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.values.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The `metrics` JSON object over exactly `defs`, in their order.
    /// Fails on a declared metric that was not measured, a measured one
    /// that was not declared, or a value JSON cannot carry.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        if let Some((stray, _)) = self
            .values
            .iter()
            .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
        {
            return Err(format!("metric {stray} measured but not declared"));
        }
        let mut parts = Vec::with_capacity(defs.len());
        for def in defs {
            let value = self
                .get(def.name)
                .ok_or_else(|| format!("metric {} not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", def.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// Reads back a line [`result_line`] wrote over `defs`: whether the run
/// was correct, and its metrics. `--agree` reads its child runs so.
pub fn parse_result_line(line: &str, defs: &[MetricDef]) -> Option<(bool, MetricSet)> {
    let correct = line.strip_prefix("{\"correct\": ")?.starts_with("true");
    let mut set = MetricSet::default();
    for def in defs {
        let tag = format!("\"{}\": {{\"value\": ", def.name);
        let rest = &line[line.find(&tag)? + tag.len()..];
        set.set(def.name, rest[..rest.find(',')?].parse().ok()?);
    }
    Some((correct, set))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, def) in all.iter().enumerate() {
            assert!(name_ok(def.name, 64, "_.-"), "bad name {:?}", def.name);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name_ok(def.unit, 16, "_/%.-"), "bad unit {:?}", def.unit);
            assert!(
                all[..i].iter().all(|d| d.name != def.name),
                "{} declared twice",
                def.name
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is mandatory");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn emitter_prints_every_declared_metric_exactly_once() {
        let defs = [lower("a.b", "us"), higher("c", "1/s")];
        let mut set = MetricSet::default();
        set.set("c", 2.5);
        assert_eq!(set.to_json(&defs).unwrap_err(), "metric a.b not measured");
        set.set("a.b", 1.0);
        let json = set.to_json(&defs).unwrap();
        assert_eq!(json, "{\"a.b\": {\"value\": 1, \"unit\": \"us\"}, \"c\": {\"value\": 2.5, \"unit\": \"1/s\"}}");
        assert_eq!(json.matches("\"a.b\"").count(), 1);
        set.set("zz", 0.0);
        assert_eq!(
            set.to_json(&defs).unwrap_err(),
            "metric zz measured but not declared"
        );
    }

    #[test]
    fn emitter_rejects_values_json_cannot_carry() {
        let defs = [lower("a", "us")];
        let mut set = MetricSet::default();
        set.set("a", f64::NAN);
        assert!(set.to_json(&defs).is_err());
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn recording_a_name_twice_is_a_bug() {
        let mut set = MetricSet::default();
        set.set("a", 1.0);
        set.set("a", 2.0);
    }

    #[test]
    fn result_line_reads_back() {
        let defs = [
            lower("open_p50_us", "us"),
            higher("trace.open_p50_us", "1/s"),
        ];
        let mut set = MetricSet::default();
        set.set("trace.open_p50_us", 7.0);
        set.set("open_p50_us", 1234.5678);
        let line = result_line(false, 10, 1, &set.to_json(&defs).unwrap());
        let (correct, read) = parse_result_line(&line, &defs).unwrap();
        assert!(!correct);
        assert_eq!(read.get("open_p50_us"), Some(1234.5678));
        assert_eq!(read.get("trace.open_p50_us"), Some(7.0));
        assert!(parse_result_line(&line, &[lower("absent", "us")]).is_none());
        assert!(parse_result_line("cargo: error", &defs).is_none());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, "{}");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
