//! The solver daemon.
//!
//! ```text
//! sts_serve [--addr 127.0.0.1:7171] [--threads 4] [--capacity 32] [--quiet]
//!           [--metrics-path FILE] [--trace-dir DIR]
//! ```
//!
//! Binds the address, prints one `{"event":"listening","addr":…}` JSON line
//! to stdout (machine-readable readiness for wrappers; `--addr
//! 127.0.0.1:0` picks a free port and reports it), then serves JSON-lines
//! requests until a client sends `shutdown`. Unless `--quiet` is given,
//! per-request metrics stream to stderr, one JSON object per line.
//!
//! `--metrics-path FILE` appends the same per-request JSONL lines to `FILE`,
//! flushed per line, in addition to (or, with `--quiet`, instead of) stderr.
//! `--trace-dir DIR` enables span recording and writes one Chrome
//! trace-event JSON file per solve (`DIR/solve-N.trace.json`), viewable in
//! Perfetto or `chrome://tracing`.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use serde::Value;
use sts_serve::protocol::{obj, render};
use sts_serve::{serve, ServiceConfig, SolverService};

struct Args {
    addr: String,
    threads: usize,
    capacity: usize,
    quiet: bool,
    metrics_path: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_string(),
        threads: 4,
        capacity: 32,
        quiet: false,
        metrics_path: None,
        trace_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => args.addr = it.next().ok_or("--addr needs a value")?,
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads needs a positive integer")?;
            }
            "--capacity" => {
                args.capacity = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--capacity needs a positive integer")?;
            }
            "--quiet" => args.quiet = true,
            "--metrics-path" => {
                args.metrics_path = Some(PathBuf::from(
                    it.next().ok_or("--metrics-path needs a file path")?,
                ));
            }
            "--trace-dir" => {
                args.trace_dir = Some(PathBuf::from(
                    it.next().ok_or("--trace-dir needs a directory path")?,
                ));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: sts_serve [--addr HOST:PORT] [--threads N] [--capacity N] [--quiet] \
                     [--metrics-path FILE] [--trace-dir DIR]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// A metrics sink appending one flushed JSONL line per request to `file`,
/// mirroring to stderr unless `quiet`.
fn file_metrics_sink(mut file: File, quiet: bool) -> Box<dyn FnMut(&str) + Send> {
    Box::new(move |line: &str| {
        if !quiet {
            eprintln!("{line}");
        }
        // Write + flush per line so a crashed or killed daemon loses at most
        // the line in flight.
        if writeln!(file, "{line}").and_then(|_| file.flush()).is_err() {
            eprintln!("metrics sink write failed; line dropped");
        }
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let bound = match listener.local_addr() {
        Ok(a) => a.to_string(),
        Err(_) => args.addr.clone(),
    };
    let mut service = SolverService::new(ServiceConfig {
        threads: args.threads.max(1),
        cache_capacity: args.capacity.max(1),
        ..ServiceConfig::default()
    });
    if let Some(path) = &args.metrics_path {
        let file = match OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot open metrics path {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        service.set_metrics_sink(file_metrics_sink(file, args.quiet));
    } else if !args.quiet {
        service.set_metrics_sink(Box::new(|line: &str| eprintln!("{line}")));
    }
    if let Some(dir) = args.trace_dir.clone() {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create trace dir {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        service.set_trace_sink(Box::new(move |solve, json| {
            let path = dir.join(format!("solve-{solve}.trace.json"));
            if std::fs::write(&path, json).is_err() {
                eprintln!("trace write failed for {}", path.display());
            }
        }));
    }
    println!(
        "{}",
        render(&obj(vec![
            ("event", Value::Str("listening".to_string())),
            ("addr", Value::Str(bound)),
        ]))
    );
    match serve(listener, Arc::new(Mutex::new(service))) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
