//! Criterion micro-benchmarks of the triangular solve kernels.
//!
//! Wall-clock timings of the sequential and threaded solvers for each of the
//! four methods on a representative matrix (D2, the planar-triangulation
//! class). On a single-core CI host these numbers mostly reflect the kernel's
//! per-nonzero cost; the figure harnesses (simulated machines) are the
//! artefacts that reproduce the paper's multi-core results.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sts_core::{Method, ParallelSolver, SolveEngine, SolveOptions};
use sts_matrix::suite::{self, SuiteId};
use sts_matrix::SuiteScale;
use sts_numa::Schedule;

fn solver_benchmarks(c: &mut Criterion) {
    let m = suite::generate(SuiteId::D2, SuiteScale::Tiny).expect("suite entry generates");
    let l = m.lower().expect("lower operand");
    let mut group = c.benchmark_group("triangular_solve");
    for method in Method::all() {
        let s = method.build(&l, 80).expect("builder succeeds");
        let b = vec![1.0; s.n()];
        group.bench_with_input(
            BenchmarkId::new("sequential", method.label()),
            &s,
            |bench, s| bench.iter(|| s.solve_sequential(&b).unwrap()),
        );
        let threads = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
        let piped = SolveOptions::default();
        let split = piped.with_engine(SolveEngine::Split);
        let sequential = piped.with_engine(SolveEngine::Sequential);
        group.bench_with_input(
            BenchmarkId::new("sequential_split", method.label()),
            &s,
            |bench, s| bench.iter(|| solver.solve_with(s, &b, &sequential).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("threads_{threads}"), method.label()),
            &s,
            |bench, s| bench.iter(|| solver.solve(s, &b).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("split_threads_{threads}"), method.label()),
            &s,
            |bench, s| bench.iter(|| solver.solve_with(s, &b, &split).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("pipelined_threads_{threads}"), method.label()),
            &s,
            |bench, s| bench.iter(|| solver.solve_with(s, &b, &piped).unwrap()),
        );
        let nrhs = 4;
        let b4 = vec![1.0; s.n() * nrhs];
        group.bench_with_input(
            BenchmarkId::new(format!("batch{nrhs}_threads_{threads}"), method.label()),
            &s,
            |bench, s| bench.iter(|| solver.solve_with(s, &b4, &split.with_nrhs(nrhs)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new(
                format!("batch{nrhs}_pipelined_threads_{threads}"),
                method.label(),
            ),
            &s,
            |bench, s| bench.iter(|| solver.solve_with(s, &b4, &piped.with_nrhs(nrhs)).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, solver_benchmarks);
criterion_main!(benches);
