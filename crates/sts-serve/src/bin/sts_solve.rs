//! The thin CLI client.
//!
//! ```text
//! sts_solve stats    --addr 127.0.0.1:7171
//! sts_solve shutdown --addr 127.0.0.1:7171
//! sts_solve demo     --addr 127.0.0.1:7171 [--nx 24] [--ny 24] [--solves 1000]
//! ```
//!
//! `demo` is the service quickstart end to end: submit the grid Laplacian's
//! pattern once, attach values once, then stream `--solves` warm right-hand
//! sides through the cache, printing a closing JSON metrics line (solves,
//! total/mean wall time, iteration count) to stdout.

use std::process::ExitCode;
use std::time::Instant;

use serde::Value;
use sts_matrix::generators;
use sts_serve::protocol::{obj, render};
use sts_serve::Client;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let command = args
        .next()
        .ok_or("usage: sts_solve <stats|shutdown|demo> --addr HOST:PORT [demo flags]")?;
    let mut addr = "127.0.0.1:7171".to_string();
    let (mut nx, mut ny, mut solves) = (24usize, 24usize, 1000usize);
    while let Some(flag) = args.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = grab("--addr")?,
            "--nx" => nx = parse_num(&grab("--nx")?)?,
            "--ny" => ny = parse_num(&grab("--ny")?)?,
            "--solves" => solves = parse_num(&grab("--solves")?)?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match command.as_str() {
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!("{}", render(&stats));
            Ok(())
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!(r#"{{"event":"shutdown_acknowledged"}}"#);
            Ok(())
        }
        "demo" => demo(&mut client, nx, ny, solves),
        other => Err(format!("unknown command '{other}'")),
    }
}

fn demo(client: &mut Client, nx: usize, ny: usize, solves: usize) -> Result<(), String> {
    let a = generators::grid2d_laplacian(nx, ny).map_err(|e| e.to_string())?;
    let n = a.nrows();

    // 1. Pay the analysis once.
    let pattern = client
        .submit_pattern(&a, "STS-3", 40)
        .map_err(|e| e.to_string())?;
    // 2. Attach values once (factors the preconditioner server-side).
    let preconditioner = client
        .submit_values(&pattern, a.values())
        .map_err(|e| e.to_string())?;

    // 3. Stream warm solves through the cache.
    let start = Instant::now();
    let mut total_iterations = 0u64;
    let mut all_converged = true;
    for s in 0..solves {
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i + s) % 13) as f64).collect();
        let result = client.solve(&pattern, &b).map_err(|e| e.to_string())?;
        total_iterations += result.iterations;
        all_converged &= result.converged;
    }
    let wall_ns = start.elapsed().as_nanos() as u64;

    // 4. One closing metrics line: one JSON object.
    println!(
        "{}",
        render(&obj(vec![
            ("event", Value::Str("demo".to_string())),
            ("pattern", Value::Str(pattern)),
            ("preconditioner", Value::Str(preconditioner)),
            ("n", Value::UInt(n as u64)),
            ("solves", Value::UInt(solves as u64)),
            ("all_converged", Value::Bool(all_converged)),
            ("total_iterations", Value::UInt(total_iterations)),
            ("total_wall_ns", Value::UInt(wall_ns)),
            (
                "mean_solve_wall_ns",
                Value::UInt(wall_ns / (solves.max(1) as u64)),
            ),
        ]))
    );
    Ok(())
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("'{s}' is not a number"))
}
