//! `suite`: every workload, each in its own child process (so that
//! `peak_rss_mb` is that workload's alone), repeated `--runs` times, printed
//! as a table and written to a result file with the run record.
//! `compare`: two such files against the bounds.

use std::process::{Command, ExitCode};

use serde::Value;
use sts_serve::protocol::obj;

use crate::report::{self, Verdict, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{default_threads, stats, Flags, REFUSED};

/// `--seconds` of a suite run when none is given: `run_seconds` of
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// `--seconds` in `--quick` mode: every workload still completes its first
/// cycle, every check still runs.
const QUICK_SECONDS: f64 = 0.05;

struct Plan {
    seed: u64,
    seconds: f64,
    runs: usize,
    trace: bool,
    threads: usize,
    quick: bool,
    out: String,
}

fn plan(flags: &Flags) -> Result<Plan, String> {
    let quick = flags.has("--quick");
    Ok(Plan {
        seed: flags.parsed("--seed")?.ok_or("--seed is required")?,
        seconds: flags.parsed("--seconds")?.unwrap_or(if quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        runs: flags.parsed("--runs")?.unwrap_or(1).max(1),
        trace: flags.value("--trace") == Some("1"),
        threads: flags
            .parsed("--threads")?
            .unwrap_or_else(default_threads)
            .max(1),
        quick,
        out: flags.value("--out").map_or_else(
            || concat!(env!("CARGO_MANIFEST_DIR"), "/out/result.json").to_string(),
            str::to_string,
        ),
    })
}

/// One child run; returns the parsed result line.
fn child(plan: &Plan, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &plan.threads.to_string()]);
    if plan.quick {
        command.arg("--quick");
    }
    // stderr is inherited: refusals and failure notes reach the terminal.
    let output = command
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    serde_json::from_str(line).map_err(|e| format!("{workload} result line: {e}"))
}

fn metric_of(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Commit, toolchain and host of the run, carried by every result file.
fn run_record(plan: &Plan) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let caches: Vec<Value> = (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| {
                std::fs::read_to_string(format!("{dir}/{f}"))
                    .ok()
                    .map(|s| s.trim().to_string())
            };
            Some(Value::Str(format!(
                "L{} {} {}",
                read("level")?,
                read("type")?,
                read("size")?
            )))
        })
        .collect();
    obj(vec![
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        ("cpu_model", Value::Str(cpu_model)),
        ("caches", Value::Array(caches)),
        (
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(1, |p| p.get()) as u64),
        ),
        ("threads", Value::UInt(plan.threads as u64)),
        ("seed", Value::UInt(plan.seed)),
        ("seconds", Value::Float(plan.seconds)),
        ("runs", Value::UInt(plan.runs as u64)),
    ])
}

pub fn run(flags: &Flags) -> ExitCode {
    let plan = match plan(flags) {
        Ok(plan) => plan,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(64);
        }
    };
    let mut workloads = Vec::new();
    let mut any_failed = false;
    for def in &WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        for _ in 0..plan.runs {
            let result = match child(&plan, def.name, false) {
                Ok(result) => result,
                Err(message) => {
                    eprintln!("{message}");
                    return ExitCode::from(REFUSED);
                }
            };
            for (metric, values) in END_TO_END.iter().zip(&mut values) {
                values.extend(metric_of(&result, metric.name));
            }
            attempted.push(result.get("attempted").cloned().unwrap_or(Value::Null));
            failed.push(result.get("failed").cloned().unwrap_or(Value::Null));
            any_failed |= result.get("correct").and_then(Value::as_bool) != Some(true);
        }
        println!("{}  ({})", def.name, def.why);
        for (metric, values) in END_TO_END.iter().zip(&values) {
            let spread = if values.len() >= 2 {
                format!("  spread {:.4}", stats::spread(values))
            } else {
                String::new()
            };
            println!(
                "  {:<18} {:>14.4} {:<4} (median of {}){spread}",
                metric.name,
                stats::median(values),
                metric.unit,
                values.len()
            );
        }
        println!(
            "  {:<18} {:?} of {:?} ops",
            "failed",
            counts(&failed),
            counts(&attempted)
        );
        let mut entry = vec![
            ("attempted", Value::Array(attempted)),
            ("failed", Value::Array(failed)),
            (
                "metrics",
                Value::Object(
                    END_TO_END
                        .iter()
                        .zip(&values)
                        .map(|(m, v)| {
                            let values =
                                Value::Array(v.iter().copied().map(Value::Float).collect());
                            (
                                m.name.to_string(),
                                obj(vec![
                                    ("unit", Value::Str(m.unit.to_string())),
                                    ("values", values),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ];
        if plan.trace {
            match child(&plan, def.name, true) {
                Ok(result) => {
                    for (name, unit, _) in &PER_LAYER {
                        if let Some(v) = metric_of(&result, name) {
                            println!("  {name:<32} {v:>16.4} {unit}");
                        }
                    }
                    entry.push((
                        "per_layer",
                        result.get("metrics").cloned().unwrap_or(Value::Null),
                    ));
                }
                Err(message) => {
                    eprintln!("{message}");
                    return ExitCode::from(REFUSED);
                }
            }
        }
        workloads.push((def.name, obj(entry)));
    }
    let file = obj(vec![
        ("quick", Value::Bool(plan.quick)),
        ("record", run_record(&plan)),
        ("workloads", obj(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&file).expect("the value model always renders");
    let path = std::path::Path::new(&plan.out);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    match written {
        Ok(()) => println!("result written to {}", path.display()),
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if any_failed {
        eprintln!("some ops failed their correctness check");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn counts(values: &[Value]) -> Vec<u64> {
    values.iter().filter_map(Value::as_u64).collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match file.get("quick").and_then(Value::as_bool) {
        Some(false) => Ok(file),
        Some(true) => Err(format!("{path} is a --quick result: too short to compare")),
        None => Err(format!("{path} is not a suite result file")),
    }
}

/// One row per workload and end-to-end metric: A, B, B / A, the bound and
/// the verdict. Exits non-zero when any row is `worse`.
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("{message}");
            return ExitCode::from(REFUSED);
        }
    };
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut worse = 0;
    for def in &WORKLOADS {
        for metric in &END_TO_END {
            let values =
                |file| report::metric_values(file, def.name, metric.name).filter(|v| !v.is_empty());
            let (Some(va), Some(vb)) = (values(&a), values(&b)) else {
                eprintln!("{} / {} is missing from a file", def.name, metric.name);
                return ExitCode::from(REFUSED);
            };
            let c = report::compare_metric(metric, &va, &vb);
            worse += usize::from(c.verdict == Verdict::Worse);
            println!(
                "{:<18} {:<16} {:>12.4} {:>12.4} {:>8.4} {:>6.2}  {}",
                def.name,
                metric.name,
                c.a,
                c.b,
                c.ratio,
                metric.bound,
                c.verdict.as_str()
            );
        }
    }
    if worse > 0 {
        eprintln!("{worse} metric(s) worse than their bound allows");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
