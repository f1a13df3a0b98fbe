//! Dump a Chrome trace-event timeline of one PCG solve.
//!
//! Runs SSOR-PCG on a 200×200 2-D Laplacian with span recording enabled,
//! then writes the recorded pack-level timeline — phase-1 gathers, phase-2
//! chain tasks, and the parallel IC(0) factor sweeps of the warm-up — as Chrome trace-event JSON. Open the output in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`: one track per worker,
//! one slice per pack phase.
//!
//! ```text
//! cargo run --release --example sts_trace_dump -- [OUTPUT.json]
//! ```
//!
//! Without an argument the JSON goes to stdout.

use std::sync::Arc;

use sts_k::core::Method;
use sts_k::krylov::{KrylovWorkspace, Pcg, SpdSystem, Ssor};
use sts_k::matrix::{generators, ops};
use sts_k::numa::Schedule;
use sts_k::trace::{chrome_trace_json, SpanRecorder};

fn main() {
    let out_path = std::env::args().nth(1);

    // The acceptance workload: an SPD 2-D 5-point Laplacian on a 200×200
    // grid, bound to the STS-3 hierarchy.
    let a = generators::grid2d_laplacian(200, 200).expect("grid dimensions are valid");
    let sys = SpdSystem::build(&a, Method::Sts3, 80).expect("laplacian binds to STS-3");
    let threads = std::thread::available_parallelism()
        .map(|c| c.get().min(8))
        .unwrap_or(4);

    let mut pcg = Pcg::new(threads, Schedule::Guided { min_chunk: 1 });
    let recorder = Arc::new(SpanRecorder::new(1 << 20));
    recorder.enable();
    pcg.solver_mut()
        .set_trace_recorder(Some(Arc::clone(&recorder)));

    let mut pre = Ssor::new(&sys);
    let mut ws = KrylovWorkspace::new(sys.n());
    let x_true = vec![1.0; sys.n()];
    let b = ops::spmv(&a, &x_true).expect("dimensions agree");
    let out = pcg
        .solve(&sys, &mut pre, &b, &mut ws)
        .expect("laplacian solve succeeds");

    let spans = recorder.snapshot();
    let json = chrome_trace_json(&spans);
    eprintln!(
        "solved n = {} in {} iterations ({:.1} ms); {} spans recorded ({} dropped), {} packs",
        sys.n(),
        out.iterations,
        out.wall_ns as f64 / 1e6,
        spans.len(),
        recorder.dropped(),
        sys.structure().num_packs(),
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).expect("trace file is writable");
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}
