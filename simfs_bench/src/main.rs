//! `simfs_bench` — the end-to-end open → bytes → close benchmark with
//! per-layer attribution. One invocation measures one workload:
//!
//! ```text
//! simfs_bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--simd PATH]
//! simfs_bench --smoke [--seed N]     every workload at small scale, all checks on
//! simfs_bench --agree [--seed N]     two sets of ten runs per workload against the bounds
//! ```
//!
//! The last line of standard output is the result object the driver
//! reads; README.md beside this package defines every name in it.
//! `--smoke` and `--agree` run each measurement the way the driver
//! does, as a process of its own.

mod affinity;
mod fixture;
mod loadgen;
mod metrics;
mod probes;
mod procstat;
mod report;
mod spans;
mod stats;
mod workload;

use fixture::Fixture;
use loadgen::{run_phase, Phase};
use metrics::{MetricDef, MetricSet, END_TO_END, PER_LAYER};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::Workload;

/// What the driver measures for, and what `BENCHMARK.json` declares.
const RUN_SECONDS: u64 = 10;
/// Set-ups per untraced run, at least; `setup_s` is their median (the
/// driver's contract asks for several set-ups per run and their median).
const MIN_SETUPS: usize = 3;
/// Set-ups are repeated until they have taken this share of the window.
/// A set-up is mostly `fsync` (one per restart file and per warmed-up
/// step), and this runner's disk latency wanders by ±20 % within
/// seconds: three set-ups of 0.1 s read 27 % apart between two sets of
/// ten runs of one commit, a few seconds of them stay within 10 %.
const SETUP_SHARE: f64 = 0.3;
/// Runs per set of `--agree`: the driver's ten.
const AGREE_RUNS: u64 = 10;
/// Window of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    simd: Option<String>,
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Single,
    Smoke,
    Agree,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
        simd: None,
        mode: Mode::Single,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--simd" => args.simd = Some(value()?.clone()),
            "--smoke" => args.mode = Mode::Smoke,
            "--agree" => args.mode = Mode::Agree,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.mode == Mode::Single && args.workload.is_none() {
        return Err(
            "usage: simfs_bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] \
                    [--simd PATH] | --smoke [--seed N] | --agree [--seed N]"
                .to_string(),
        );
    }
    Ok(args)
}

/// Outcome of one run of one workload.
struct RunResult {
    metrics: MetricSet,
    attempted: u64,
    failed: u64,
    correct: bool,
    /// Human-readable context: sample counts, quartiles, violations.
    notes: Vec<String>,
    /// Traced spans per client (empty on untraced runs).
    spans: Vec<Vec<spans::Span>>,
}

/// Adds the phase's notes; was everything it served right? An open
/// that returned an error is counted in `failed` and has served nothing.
fn absorb(phase: &Phase, label: &str, notes: &mut Vec<String>) -> bool {
    notes.extend(
        report::phase_notes(phase)
            .into_iter()
            .map(|n| format!("{label}: {n}")),
    );
    for error in phase.clients.iter().flat_map(|c| &c.errors) {
        notes.push(format!("{label}: {error}"));
    }
    for violation in &phase.violations {
        notes.push(format!("{label}: VIOLATION: {violation}"));
    }
    phase.wrong() == 0 && phase.violations.is_empty()
}

fn runner_note(clients: usize) -> String {
    format!("{clients} client(s), nproc {}", report::nproc())
}

/// Tracing off: set-ups for [`SETUP_SHARE`] of the window, [`MIN_SETUPS`]
/// at least (the last one is measured), one phase.
fn run_untraced(w: Workload, seed: u64, seconds: f64, simd: &Path) -> std::io::Result<RunResult> {
    let clients = w.clients(report::nproc());
    let mut setup_times = Vec::new();
    let mut fixture = None;
    let budget = Duration::from_secs_f64(seconds * SETUP_SHARE);
    let began = Instant::now();
    while setup_times.len() < MIN_SETUPS || began.elapsed() < budget {
        drop(fixture.take());
        let fx = Fixture::setup(w, seed, seconds, clients, simd)?;
        setup_times.push(fx.setup_s);
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("at least one set-up");
    let phase = run_phase(&mut fx, w, seed, seconds, false)?;
    drop(fx);

    let mut metrics = MetricSet::default();
    report::end_to_end(&mut metrics, &phase, stats::median(&setup_times));
    let fastest = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = setup_times.iter().copied().fold(0.0, f64::max);
    let mut notes = vec![format!(
        "{} set-ups, {fastest:.3} to {slowest:.3} s, {}",
        setup_times.len(),
        runner_note(clients)
    )];
    let correct = absorb(&phase, "untraced", &mut notes);
    Ok(RunResult {
        metrics,
        attempted: phase.attempted(),
        failed: phase.failed(),
        correct,
        notes,
        spans: Vec::new(),
    })
}

/// Tracing on: half the time untraced (counters, CPU and the base of
/// `trace.overhead_share`), half traced, each against a fresh context,
/// then the isolated probes, their counts scaled with the window.
fn run_traced(w: Workload, seed: u64, seconds: f64, simd: &Path) -> std::io::Result<RunResult> {
    let clients = w.clients(report::nproc());
    let half = seconds / 2.0;
    let mut fx = Fixture::setup(w, seed, half, clients, simd)?;
    let untraced = run_phase(&mut fx, w, seed, half, false)?;
    drop(fx);
    let mut fx = Fixture::setup(w, seed, half, clients, simd)?;
    let mut traced = run_phase(&mut fx, w, seed, half, true)?;
    let step_bytes = fx.step_bytes;
    drop(fx);

    let mut metrics = MetricSet::default();
    let probe_scale = (seconds / RUN_SECONDS as f64).min(1.0);
    probes::run_all(&mut metrics, simd, seed, clients, step_bytes, probe_scale)?;
    let echo_per_s = metrics.get("probe.reactor.echo_per_s").unwrap_or(0.0);
    report::per_layer(&mut metrics, w, &untraced, &traced, step_bytes, echo_per_s);
    let mut notes = vec![format!(
        "{}, build profile: {}",
        runner_note(clients),
        if cfg!(debug_assertions) {
            "debug — NOT a measurement"
        } else {
            "release"
        }
    )];
    let correct = absorb(&untraced, "untraced", &mut notes) & absorb(&traced, "traced", &mut notes);
    Ok(RunResult {
        metrics,
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed() + traced.failed(),
        correct,
        notes,
        spans: traced
            .clients
            .iter_mut()
            .map(|c| std::mem::take(&mut c.spans))
            .collect(),
    })
}

/// Prints the run for a person, then (last) the line for the driver.
fn print_run(w: Workload, defs: &[MetricDef], run: &RunResult) -> Result<String, String> {
    let json = run.metrics.to_json(defs)?;
    println!("# workload {} — {}", w.name(), w.why());
    for note in &run.notes {
        println!("# {note}");
    }
    for def in defs {
        let value = run.metrics.get(def.name).expect("to_json checked presence");
        println!("{:<36} {:>16.4} {}", def.name, value, def.unit);
    }
    let line = metrics::result_line(run.correct, run.attempted.max(1), run.failed, &json);
    println!("{line}");
    Ok(line)
}

fn write_outputs(out: &Path, line: &str, spans: &[Vec<spans::Span>]) -> std::io::Result<()> {
    std::fs::write(out, format!("{line}\n"))?;
    if !spans.is_empty() {
        let mut file =
            std::io::BufWriter::new(std::fs::File::create(out.with_extension("spans.jsonl"))?);
        for (client, buffer) in spans.iter().enumerate() {
            spans::write_jsonl(&mut file, client, buffer)?;
        }
        file.flush()?;
    }
    Ok(())
}

fn single(args: &Args, simd: &Path) -> Result<bool, String> {
    let w = args.workload.expect("checked by parse_args");
    let (defs, run) = if args.trace {
        (PER_LAYER, run_traced(w, args.seed, args.seconds, simd))
    } else {
        (END_TO_END, run_untraced(w, args.seed, args.seconds, simd))
    };
    let run = run.map_err(|e| format!("{}: {e}", w.name()))?;
    let line = print_run(w, defs, &run)?;
    if let Some(out) = &args.out {
        write_outputs(out, &line, &run.spans).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(run.correct)
}

/// One measurement as the driver starts it: a process of its own.
fn child_run(
    simd: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--simd")
        .arg(simd)
        .stdin(Stdio::null());
    Ok(cmd)
}

/// Every workload, untraced and traced, over a short window, every
/// output check on.
fn smoke(args: &Args, simd: &Path) -> Result<bool, String> {
    let mut all_correct = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            let status = child_run(simd, w, args.seed, SMOKE_SECONDS, trace)?
                .status()
                .map_err(|e| format!("{}: {e}", w.name()))?;
            match status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Err(format!("{} (trace {trace}): {status}", w.name())),
            }
        }
    }
    println!(
        "smoke: {}",
        if all_correct {
            "every output check passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

/// The metrics of one child run that measured and served right bytes.
fn measured(
    simd: &Path,
    w: Workload,
    seed: u64,
    trace: bool,
    defs: &[MetricDef],
) -> Result<MetricSet, String> {
    let out = child_run(simd, w, seed, RUN_SECONDS as f64, trace)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout
        .lines()
        .last()
        .and_then(|line| metrics::parse_result_line(line, defs));
    match (out.status.code(), result) {
        (Some(0), Some((true, set))) => Ok(set),
        _ => {
            print!("{stdout}");
            Err(format!("{} seed {seed}: {}", w.name(), out.status))
        }
    }
}

/// The driver's acceptance procedure, run on one commit: two sets of
/// ten runs per workload, another seed each; per end-to-end metric the
/// spread within a set (interquartile distance over median) and the
/// drift of the median between the sets, both against the bound. Ends
/// with what this data alone makes of each bound by the rule the bounds
/// in `BENCHMARK.json` were fixed with (README, "How the bounds were
/// fixed").
fn agree(args: &Args, simd: &Path) -> Result<bool, String> {
    let mut within = true;
    // Per end-to-end metric: (largest spread, largest difference of the
    // medians in either direction), over the workloads.
    let mut largest = vec![(0.0f64, 0.0f64); END_TO_END.len()];
    println!(
        "# nproc {}, {AGREE_RUNS} runs per set, {RUN_SECONDS} s per run, seeds {}..",
        report::nproc(),
        args.seed
    );
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}",
        "workload", "metric", "median_1", "median_2", "spread_1", "spread_2", "drift", "bound"
    );
    for w in Workload::ALL {
        let mut sets: Vec<Vec<MetricSet>> = Vec::new();
        for set in 0..2 {
            let seeds = (0..AGREE_RUNS).map(|i| args.seed + set * AGREE_RUNS + i);
            sets.push(
                seeds
                    .map(|seed| measured(simd, w, seed, false, END_TO_END))
                    .collect::<Result<_, _>>()?,
            );
        }
        for (def, seen) in END_TO_END.iter().zip(&mut largest) {
            let values = |set: &[MetricSet]| -> Vec<f64> {
                set.iter()
                    .map(|m| m.get(def.name).expect("end-to-end metric"))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (med_a, med_b) = (stats::median(&a), stats::median(&b));
            let worse = if def.higher_is_better {
                med_a - med_b
            } else {
                med_b - med_a
            };
            let drift = stats::ratio(worse, med_a);
            let spread = stats::iqr_share(&a).max(stats::iqr_share(&b));
            // The set-up time's spread is reported but not judged.
            let ok = (def.name == "setup_s" || spread <= def.bound) && drift <= def.bound;
            within &= ok;
            *seen = (seen.0.max(spread), seen.1.max(drift.abs()));
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>8.4} {:>7.2}{}",
                w.name(),
                def.name,
                med_a,
                med_b,
                stats::iqr_share(&a),
                stats::iqr_share(&b),
                drift,
                def.bound,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
        // Who was measuring (ROADMAP, "single-core runner").
        let traced = measured(simd, w, args.seed, true, PER_LAYER)?;
        println!(
            "# {}: runner.nproc {}, loadgen.cpu_share {:.3}",
            w.name(),
            traced.get("runner.nproc").expect("per-layer metric"),
            traced.get("loadgen.cpu_share").expect("per-layer metric")
        );
    }
    for (def, (spread, difference)) in END_TO_END.iter().zip(largest) {
        println!(
            "# {}: largest spread {spread:.4}, largest difference between the sets {difference:.4}; \
             min(25 %, max(5 %, 2 x difference, spread)) = {:.4}; bound {}",
            def.name,
            (2.0 * difference).max(spread).clamp(0.05, 0.25),
            def.bound
        );
    }
    println!(
        "agree: {}",
        if within {
            "every metric within its bound"
        } else {
            "BOUNDS EXCEEDED"
        }
    );
    Ok(within)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = Mode::Single;
    let outcome = parse_args(&argv).and_then(|args| {
        mode = args.mode;
        if mode == Mode::Single && args.workload.is_some_and(Workload::single_core) {
            affinity::confine_to_one_core(&argv)?;
        }
        let simd = fixture::locate_simd(args.simd.as_deref())?;
        match mode {
            Mode::Single => single(&args, &simd),
            Mode::Smoke => smoke(&args, &simd),
            Mode::Agree => agree(&args, &simd),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            if mode != Mode::Agree {
                eprintln!(
                    "simfs_bench: wrong output served — see the WRONG OUTPUT / VIOLATION lines"
                );
            }
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("simfs_bench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse_args(&argv(
            "--workload cold_scan --seed 7 --seconds 10 --trace 1",
        ))
        .ok()
        .unwrap();
        assert_eq!(args.workload, Some(Workload::ColdScan));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(
            parse_args(&argv("--seed 7")).is_err(),
            "a workload is required"
        );
        assert!(parse_args(&argv("--workload nope"))
            .err()
            .unwrap()
            .contains("hot_read"));
        assert!(parse_args(&argv("--workload hot_read --trace 2")).is_err());
        assert!(parse_args(&argv("--workload hot_read --seconds 0")).is_err());
        assert!(parse_args(&argv("--smoke")).is_ok());
        assert!(parse_args(&argv("--agree --seed 5")).is_ok());
    }

    /// `BENCHMARK.json` as the tables of this binary spell it.
    fn benchmark_json() -> String {
        let better = |d: &MetricDef| {
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        };
        let workloads: Vec<String> = Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name(),
                    w.why()
                )
            })
            .collect();
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name,
                    d.unit,
                    better(d),
                    d.bound
                )
            })
            .collect();
        let layers: Vec<String> = PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name,
                    d.unit,
                    better(d)
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"bash\", \"simfs_bench/run.sh\"],\n  \"paths\": [\"simfs_bench\"],\n  \
             \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            e2e.join(",\n"),
            layers.join(",\n")
        )
    }

    /// `BENCHMARK.json` is what the driver reads and this binary is
    /// what it runs: the committed file, kept by hand, says what the
    /// tables here say — names, units, bounds, workloads, run length.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, benchmark_json());
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn a_run_prints_every_declared_metric_once() {
        for defs in [END_TO_END, PER_LAYER] {
            let mut metrics = MetricSet::default();
            for def in defs {
                metrics.set(def.name, 1.5);
            }
            let run = RunResult {
                metrics,
                attempted: 3,
                failed: 0,
                correct: true,
                notes: vec![],
                spans: vec![],
            };
            let line = print_run(Workload::HotRead, defs, &run).unwrap();
            for def in defs {
                assert_eq!(
                    line.matches(&format!("\"{}\": {{", def.name)).count(),
                    1,
                    "{}",
                    def.name
                );
            }
            assert!(line.starts_with(
                "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"
            ));
        }
    }
}
