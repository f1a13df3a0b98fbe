//! The repo benchmark. Three entry points:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and ends with one JSON line: the end-to-end
//!   metrics (tracing off) or the per-layer metrics (traced run).
//! * `suite` runs every workload, each in a child process, and writes a
//!   result file with the run record.
//! * `compare A.json B.json` holds two result files against the bounds.
//!
//! See `README.md` beside this package for the workloads and metrics.

mod inputs;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{END_TO_END, PER_LAYER};
use spans::SpanBuf;
use workloads::{Samples, WorkloadDef, WORKLOADS};

/// Exit code of a refused run: the measurement happened but may not be
/// reported (too few samples, a skipped check, counts that do not repeat).
const REFUSED: u8 = 2;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Spans the traced window may record before it counts drops.
const SPAN_CAPACITY: usize = 1 << 18;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    /// Development mode: one set-up, no sample-count refusal.
    pub quick: bool,
}

pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(4)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sts-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--threads <t>] [--quick]\n\
         \x20      sts-benchmark suite --seed <n> [--seconds <s>] [--runs <r>] [--trace <0|1>] [--threads <t>] [--quick] [--out <file>]\n\
         \x20      sts-benchmark compare <A.json> <B.json>",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(64)
}

/// `--key value` pairs and bare flags after the subcommand.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("{key} does not take '{v}'")))
            .transpose()
    }

    pub fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("suite") => suite::run(&Flags(args[1..].to_vec())),
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a, b),
            _ => usage(),
        },
        Some(_) => match run_args(&Flags(args)) {
            Ok(run) => run_workload(&run),
            Err(message) => {
                eprintln!("{message}");
                usage()
            }
        },
        None => usage(),
    }
}

fn run_args(flags: &Flags) -> Result<RunArgs, String> {
    let required = |key: &str| format!("{key} is required");
    Ok(RunArgs {
        workload: flags
            .value("--workload")
            .ok_or_else(|| required("--workload"))?
            .to_string(),
        seed: flags.parsed("--seed")?.ok_or_else(|| required("--seed"))?,
        seconds: flags
            .parsed("--seconds")?
            .ok_or_else(|| required("--seconds"))?,
        trace: match flags.value("--trace") {
            Some("0") => false,
            Some("1") => true,
            _ => return Err("--trace takes 0 or 1".to_string()),
        },
        threads: flags
            .parsed("--threads")?
            .unwrap_or_else(default_threads)
            .max(1),
        quick: flags.has("--quick"),
    })
}

fn run_workload(args: &RunArgs) -> ExitCode {
    let Some(def) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("unknown workload '{}'", args.workload);
        return usage();
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        eprintln!("--seconds must be positive");
        return usage();
    }
    let outcome = if args.trace {
        traced_run(def, args)
    } else {
        end_to_end_run(def, args)
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(refusal) => {
            eprintln!("refused: {} on {}", refusal, def.name);
            ExitCode::from(REFUSED)
        }
    }
}

fn set_up(def: &WorkloadDef, args: &RunArgs) -> Box<dyn workloads::Workload> {
    workloads::setup(def.name, args.seed, args.threads, args.trace)
        .expect("the name is in WORKLOADS")
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What a window must satisfy before its numbers may be reported.
fn vet(samples: &Samples, quick: bool) -> Result<(), String> {
    for note in &samples.failure_notes {
        eprintln!("failed: {note}");
    }
    if samples.checked != samples.attempted {
        return Err(format!(
            "a correctness check was skipped ({} ops, {} verdicts)",
            samples.attempted, samples.checked
        ));
    }
    let needed = 2 * stats::TAIL_SUPPORT;
    if !quick && samples.solve_ms.len() < needed {
        return Err(format!(
            "{} unit samples, a median with {} beyond it needs {needed}",
            samples.solve_ms.len(),
            stats::TAIL_SUPPORT
        ));
    }
    Ok(())
}

fn finish(
    samples: &[&Samples],
    metrics: Vec<(&'static str, f64)>,
    units: &[(&str, &'static str)],
) -> Result<String, String> {
    let with_units: Vec<(&str, f64, &str)> = units
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.iter().find(|m| m.0 == name).map(|m| m.1);
            match value {
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric {name} is {v}")),
                None => Err(format!("metric {name} was not measured")),
            }
        })
        .collect::<Result<_, _>>()?;
    let attempted: u64 = samples.iter().map(|s| s.attempted).sum();
    let failed: u64 = samples.iter().map(|s| s.failed).sum();
    Ok(report::result_line(
        failed == 0,
        attempted,
        failed,
        &with_units,
    ))
}

/// Tracing off: set up [`SETUP_REPS`] times, run one window, report the
/// end-to-end metrics.
fn end_to_end_run(def: &WorkloadDef, args: &RunArgs) -> Result<String, String> {
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut workload = None;
    for _ in 0..reps {
        // One instance at a time: peak memory is that of one set-up.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(set_up(def, args));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let samples = workload.run(Duration::from_secs_f64(args.seconds), &mut SpanBuf::off());
    drop(workload);
    vet(&samples, args.quick)?;
    eprintln!(
        "{}: threads {}, {} ops ({} units, {} updates), {} failed",
        def.name,
        args.threads,
        samples.attempted,
        samples.solve_ms.len(),
        samples.refactor_ms.len(),
        samples.failed
    );
    let metrics = vec![
        ("solve_ms_p50", stats::median(&samples.solve_ms)),
        ("solves_per_s", samples.ops_per_s()),
        ("peak_rss_mb", peak_rss_mb()?),
        ("setup_s", stats::median(&setup_s)),
    ];
    let units: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    finish(&[&samples], metrics, &units)
}

/// The traced run, on one set-up: a window with spans around every call
/// into a layer, between two untraced windows of half its length (so that a
/// drift of the host falls on both sides of the overhead comparison), at a
/// quarter of the op count in all; then the layer probes on the workload's
/// primary operator.
fn traced_run(def: &WorkloadDef, args: &RunArgs) -> Result<String, String> {
    let mut workload = set_up(def, args);
    let eighth = Duration::from_secs_f64(args.seconds / 8.0);
    let mut main_track = SpanBuf::with_capacity(SPAN_CAPACITY);
    let before = workload.run(eighth, &mut SpanBuf::off());
    let traced = workload.run(2 * eighth, &mut main_track);
    let after = workload.run(eighth, &mut SpanBuf::off());
    for window in [&before, &traced, &after] {
        vet(window, true)?;
        // Same seed, same ops: the first cycle's iteration counts must repeat.
        if window.first_cycle_iterations != traced.first_cycle_iterations {
            return Err(format!(
                "first-cycle PCG iterations differ between an untraced and the traced window: {:?} vs {:?}",
                window.first_cycle_iterations, traced.first_cycle_iterations
            ));
        }
    }
    let untraced_ms: Vec<f64> = before
        .solve_ms
        .iter()
        .chain(&after.solve_ms)
        .copied()
        .collect();

    let tracks: Vec<&SpanBuf> = std::iter::once(&main_track)
        .chain(workload.extra_tracks())
        .collect();
    write_trace(def.name, &tracks)?;
    let mut layer_ns = std::collections::BTreeMap::new();
    for track in &tracks {
        for (layer, ns) in spans::layer_self_ns(track.spans()) {
            *layer_ns.entry(layer).or_insert(0u64) += ns;
        }
    }
    let spanned_ns = layer_ns.values().sum::<u64>().max(1) as f64;
    let share = |layer: &str| *layer_ns.get(layer).unwrap_or(&0) as f64 / spanned_ns;

    let p50_off = stats::median(&untraced_ms);
    let sorted = stats::sorted(&traced.solve_ms);
    let p50_on = stats::percentile(&sorted, 50);
    // The workload's stated tail percentile, or the highest one below it
    // with ten samples beyond it; a window too short even for that reports
    // its median.
    let p = stats::tail_percentile(sorted.len(), def.tail_percentile).unwrap_or(50);
    let iterations = &traced.first_cycle_iterations;
    // A workload without a service leaves the service's counters at zero.
    let service = traced.service.unwrap_or_default();
    let mut metrics = vec![
        ("run.units", traced.solve_ms.len() as f64),
        ("run.solve_ms_p50_untraced", p50_off),
        ("run.solve_ms_p50_traced", p50_on),
        ("run.solve_ms_tail_traced", stats::percentile(&sorted, p)),
        ("run.tail_percentile", f64::from(p)),
        (
            "run.refactor_ms_p50_traced",
            stats::median(&traced.refactor_ms),
        ),
        ("run.trace_overhead_share", p50_on / p50_off - 1.0),
        ("run.layers_cover_share", traced.cover_share.unwrap_or(0.0)),
        (
            "run.iters_per_solve",
            iterations.iter().sum::<u64>() as f64 / iterations.len().max(1) as f64,
        ),
        (
            "run.spans",
            tracks.iter().map(|t| t.spans().len()).sum::<usize>() as f64,
        ),
        (
            "run.spans_dropped",
            tracks.iter().map(|t| t.dropped()).sum::<u64>() as f64,
        ),
        ("run.span_bench_share", share("bench")),
        ("run.span_core_share", share("core")),
        ("run.span_krylov_share", share("krylov")),
        ("run.span_serve_share", share("serve")),
        ("serve.cache_hit_share", service.cache_hit_share),
        ("serve.evictions", service.evictions),
        ("serve.workspace_reuse_share", service.workspace_reuse_share),
    ];
    metrics.extend(probes::layer_probes(
        workload.primary_operator(),
        args.threads,
        args.seed,
    ));
    let units: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    finish(&[&before, &traced, &after], metrics, &units)
}

/// Writes `out/trace-<workload>.json` in this package's directory.
fn write_trace(workload: &str, tracks: &[&SpanBuf]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    let numbered: Vec<(u32, &[spans::Span])> = tracks
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.spans()))
        .collect();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace_json(&numbered)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{workload}: trace written to {}", path.display());
    Ok(())
}
