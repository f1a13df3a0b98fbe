//! Criterion benchmarks of the end-to-end Krylov workload: PCG on the
//! 200×200 grid Laplacian, comparing sequential-sweep against
//! pipelined-sweep preconditioning, plus the IC(0) *setup* pair —
//! sequential up-looking sweep vs. the level-scheduled build on the pack
//! hierarchy, plus the batched pair — lockstep scalar CG vs block CG on a
//! shared Krylov space over four correlated right-hand sides, on both sweep
//! engines (the sequential one running the batched sequential split
//! kernels).
//!
//! Both sweep engines (and both setup engines) run bitwise-identical
//! arithmetic, so every timed solve performs exactly the same iteration
//! count — the measured difference is pure kernel speed. A per-application
//! pair (one SSOR application, no CG around it) isolates the sweeps
//! themselves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sts_core::Method;
use sts_krylov::{Ic0, KrylovWorkspace, Pcg, Preconditioner, SpdSystem, Ssor, SweepEngine};
use sts_matrix::{generators, ops};
use sts_numa::Schedule;

fn krylov_benchmarks(c: &mut Criterion) {
    let a = generators::grid2d_laplacian(200, 200).expect("grid dimensions are valid");
    let sys = SpdSystem::build(&a, Method::Sts3, 80).expect("laplacian binds to STS-3");
    let n = sys.n();
    let threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let pcg = Pcg::new(threads, Schedule::Guided { min_chunk: 1 });
    let x_true: Vec<f64> = (0..n)
        .map(|i| ((i * 7919) % 101) as f64 * 0.02 - 1.0)
        .collect();
    let b = ops::spmv(&a, &x_true).expect("dimensions match");
    let mut ws = KrylovWorkspace::new(n);

    let mut group = c.benchmark_group("pcg_200x200");
    for engine in [SweepEngine::Sequential, SweepEngine::Pipelined] {
        let label = match engine {
            SweepEngine::Sequential => "seq_sweeps",
            SweepEngine::Pipelined => "pipelined_sweeps",
        };
        let mut pre = Ssor::new(&sys, pcg.solver(), engine);
        // Warm-up outside the timer: forces the lazy split layouts.
        let warm = pcg
            .solve(&sys, &mut pre, &b, &mut ws)
            .expect("PCG converges");
        assert!(warm.converged);
        group.bench_with_input(BenchmarkId::new("ssor_solve", label), &sys, |bench, sys| {
            bench.iter(|| pcg.solve(sys, &mut pre, &b, &mut ws).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("ssor_apply", label),
            &sys,
            |bench, _sys| {
                let mut z = vec![0.0; n];
                let mut sweep = vec![0.0; n];
                bench.iter(|| {
                    pre.apply_into(pcg.solver(), &b, &mut z, &mut sweep)
                        .unwrap()
                })
            },
        );
    }
    let mut ic0 = Ic0::new(&sys, pcg.solver(), SweepEngine::Pipelined).expect("laplacian is SPD");
    group.bench_with_input(
        BenchmarkId::new("ic0_solve", "pipelined_sweeps"),
        &sys,
        |bench, sys| bench.iter(|| pcg.solve(sys, &mut ic0, &b, &mut ws).unwrap()),
    );
    group.finish();

    // Lockstep scalar CG vs block CG on four correlated right-hand sides
    // (Krylov chain + 1% rough parts): same operator, same tolerance — the
    // block driver converges in fewer iterations on a shared Krylov space,
    // at the price of small dense projections per step. Both engines'
    // batched sweeps back the SSOR pair, so the bench also exercises the
    // sequential batched split kernels.
    let nrhs = 4;
    let bb = generators::correlated_rhs_chain(&a, nrhs).expect("workload binds to the operator");
    let mut wsb = KrylovWorkspace::with_nrhs(n, nrhs);
    let mut group = c.benchmark_group("pcg_batch4_200x200");
    for engine in [SweepEngine::Sequential, SweepEngine::Pipelined] {
        let label = match engine {
            SweepEngine::Sequential => "seq_sweeps",
            SweepEngine::Pipelined => "pipelined_sweeps",
        };
        let mut pre = Ssor::new(&sys, pcg.solver(), engine);
        let warm = pcg
            .solve_batch(&sys, &mut pre, &bb, nrhs, &mut wsb)
            .expect("lockstep CG converges");
        assert!(warm.converged.iter().all(|&c| c));
        group.bench_with_input(
            BenchmarkId::new("ssor_lockstep", label),
            &sys,
            |bench, sys| {
                bench.iter(|| pcg.solve_batch(sys, &mut pre, &bb, nrhs, &mut wsb).unwrap())
            },
        );
        group.bench_with_input(BenchmarkId::new("ssor_block", label), &sys, |bench, sys| {
            bench.iter(|| pcg.solve_block(sys, &mut pre, &bb, nrhs, &mut wsb).unwrap())
        });
    }
    group.finish();

    // The preconditioner setup pair: identical factors (asserted), so the
    // measured difference is pure scheduling.
    let f_seq = sts_matrix::factor::ic0(sys.matrix()).expect("laplacian is SPD");
    let f_par = pcg
        .solver()
        .parallel_ic0(sys.structure(), sys.matrix())
        .expect("laplacian is SPD");
    assert_eq!(f_seq.values(), f_par.values(), "setup engines must agree");
    let mut group = c.benchmark_group("ic0_build_200x200");
    group.bench_function("sequential_sweep", |bench| {
        bench.iter(|| sts_matrix::factor::ic0(sys.matrix()).unwrap())
    });
    group.bench_function("level_scheduled", |bench| {
        bench.iter(|| {
            pcg.solver()
                .parallel_ic0(sys.structure(), sys.matrix())
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, krylov_benchmarks);
criterion_main!(benches);
