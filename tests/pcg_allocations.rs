//! A PCG iteration allocates nothing: with the workspace warm, a solve's
//! allocation count does not grow with its iteration count, for the scalar
//! driver and for the lockstep batch driver alike.
//!
//! The count comes from a counting global allocator, so this binary holds a
//! single test: nothing else may allocate while it measures.

use sts_k::core::Method;
use sts_k::krylov::{Ic0, KrylovWorkspace, Pcg, PcgOptions, SpdSystem, SweepEngine, Tolerance};
use sts_k::matrix::generators;
use sts_k::numa::Schedule;
use sts_k::trace::CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator::new();

/// Allocations made while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = GLOBAL.allocations();
    f();
    GLOBAL.allocations() - before
}

#[test]
fn an_iteration_allocates_nothing() {
    // Two reduction blocks, so the pooled vector kernels split the work.
    let a = generators::grid2d_laplacian(70, 70).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 40).unwrap();
    let n = sys.n();
    let nrhs = 3;
    let b: Vec<f64> = (0..n * nrhs)
        .map(|k| ((k * 7919) % 17) as f64 - 8.0)
        .collect();
    let driver = |max_iterations| {
        Pcg::with_options(
            2,
            Schedule::Guided { min_chunk: 1 },
            PcgOptions {
                tolerance: Tolerance::Absolute(0.0),
                max_iterations,
                record_history: false,
            },
        )
    };
    let (short, long) = (driver(3), driver(30));
    let mut pre = Ic0::new(&sys, short.solver(), SweepEngine::Split).unwrap();
    let mut ws = KrylovWorkspace::new(n);
    let mut wsb = KrylovWorkspace::with_nrhs(n, nrhs);
    let mut counts = Vec::new();
    for pcg in [&short, &long] {
        // Warm: lazy sweep layouts, and anything the pool's threads set up
        // on first use.
        pcg.solve(&sys, &mut pre, &b[..n], &mut ws).unwrap();
        pcg.solve_batch(&sys, &mut pre, &b, nrhs, &mut wsb).unwrap();
    }
    for pcg in [&short, &long] {
        let scalar = allocations(|| {
            let out = pcg.solve(&sys, &mut pre, &b[..n], &mut ws).unwrap();
            assert_eq!(out.iterations, pcg.options().max_iterations);
        });
        let batch = allocations(|| {
            let out = pcg.solve_batch(&sys, &mut pre, &b, nrhs, &mut wsb).unwrap();
            assert_eq!(out.lockstep_iterations, pcg.options().max_iterations);
        });
        counts.push((scalar, batch));
    }
    assert_eq!(
        counts[0], counts[1],
        "(scalar, batch) allocations per solve at 3 and at 30 iterations"
    );
}
