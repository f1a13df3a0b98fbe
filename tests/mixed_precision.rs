//! Mixed-precision invariants: f32 value slabs with f64 accumulation must
//! trade memory traffic, never answers.
//!
//! Two properties pin the contract down:
//!
//! * **Refined accuracy.** A triangular solve on the f32 slabs, wrapped in
//!   [`solve_refined`](sts_k::krylov::solve_refined), lands within 1e-10 of
//!   the f64 direct solve — across both orderings, both multi-level depths,
//!   several worker counts and every engine, on randomly generated operands.
//! * **Engine independence.** The f32 sweep kernels are bitwise identical
//!   across engines (like their f64 counterparts), so a PCG run whose
//!   preconditioner reads the f32 slabs takes *exactly* the same number of
//!   iterations whichever engine performs the sweeps.

use proptest::prelude::*;
use sts_k::core::{
    Method, Ordering, ParallelSolver, PrecisionPolicy, SolveEngine, SolveOptions, StsBuilder,
    SuperRowSizing, SweepDirection,
};
use sts_k::krylov::{
    solve_refined, KrylovWorkspace, Pcg, Preconditioner, RefineOptions, SpdSystem, Ssor,
    SweepEngine,
};
use sts_k::matrix::{generators, ops, LowerTriangularCsr};
use sts_k::numa::Schedule;

/// Strategy: a random lower-triangular operand with n in [1, 60] and an
/// average of up to 4 strictly-lower entries per row. The values are
/// continuous draws, so demoting them to f32 genuinely loses bits — the
/// refinement loop has real work to do.
fn lower_triangular_strategy() -> impl Strategy<Value = LowerTriangularCsr> {
    (1usize..60, 0u8..=4, 0u64..1000).prop_map(|(n, density, seed)| {
        generators::random_lower_triangular(n, density as f64, seed)
            .expect("random operand is always constructible")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn refined_f32_solves_match_the_f64_reference(l in lower_triangular_strategy()) {
        for ordering in [Ordering::LevelSet, Ordering::Coloring] {
            for k in [2usize, 3] {
                let s = StsBuilder::new(k)
                    .ordering(ordering)
                    .super_row_sizing(SuperRowSizing::Rows(8))
                    .build(&l)
                    .unwrap();
                let x_true: Vec<f64> =
                    (0..s.n()).map(|i| 0.5 + (i % 6) as f64 * 0.4).collect();
                let b = s.lower().multiply(&x_true).unwrap();
                let bt = s.lower().multiply_transpose(&x_true).unwrap();
                for threads in [1usize, 2, 4, 8] {
                    let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
                    for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
                        let rhs = match direction {
                            SweepDirection::Forward => &b,
                            SweepDirection::Transpose => &bt,
                        };
                        let reference = solver
                            .solve_with(&s, rhs, &SolveOptions::default().with_direction(direction))
                            .unwrap();
                        for engine in
                            [SolveEngine::Sequential, SolveEngine::Split, SolveEngine::Pipelined]
                        {
                            let opts = SolveOptions::default()
                                .with_engine(engine)
                                .with_direction(direction)
                                .with_precision(PrecisionPolicy::ValuesF32WithRefinement);
                            let out = solve_refined(
                                &solver,
                                &s,
                                rhs,
                                &opts,
                                &RefineOptions::default(),
                            )
                            .unwrap();
                            prop_assert!(
                                out.converged,
                                "refinement stalled ({ordering:?}, k={k}, {threads} threads, \
                                 {engine:?}, {direction:?}, n={})",
                                s.n()
                            );
                            // Each pass contracts the error by ~1e-7, so two must
                            // reach the 1e-12 residual; these draws need one.
                            prop_assert!(
                                out.refine_iterations <= 2,
                                "{} refinement passes ({ordering:?}, k={k}, {threads} threads, \
                                 {engine:?}, {direction:?}, n={})",
                                out.refine_iterations,
                                s.n()
                            );
                            prop_assert!(
                                ops::relative_error_inf(&out.x, &reference) < 1e-10,
                                "refined f32 solve drifted from f64 ({ordering:?}, k={k}, \
                                 {threads} threads, {engine:?}, {direction:?}, n={})",
                                s.n()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The f32 sweep kernels, like the f64 ones, are bitwise identical across
/// engines for single right-hand sides — so a mixed-precision PCG run must
/// take exactly the same iteration count whichever engine the
/// preconditioner sweeps on, at any worker count.
#[test]
fn f32_pcg_iteration_counts_are_engine_independent() {
    let a = generators::triangulated_grid(16, 13, 11).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    let x_true: Vec<f64> = (0..sys.n())
        .map(|i| ((i * 31) % 17) as f64 * 0.1 - 0.8)
        .collect();
    let b = ops::spmv(&a, &x_true).unwrap();
    let mut counts = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let pcg = Pcg::new(threads, Schedule::Guided { min_chunk: 1 });
        let mut per_engine = Vec::new();
        for engine in [SweepEngine::Sequential, SweepEngine::Pipelined] {
            let mut pre = Ssor::new(&sys, pcg.solver(), engine);
            pre.set_precision(PrecisionPolicy::ValuesF32WithRefinement);
            assert_eq!(pre.precision(), PrecisionPolicy::ValuesF32WithRefinement);
            let mut ws = KrylovWorkspace::new(sys.n());
            let out = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
            assert!(out.converged, "{engine:?} at {threads} threads diverged");
            per_engine.push(out.iterations);
        }
        assert!(
            per_engine.windows(2).all(|w| w[0] == w[1]),
            "f32-path iteration counts diverged across engines at {threads} threads: \
             {per_engine:?}"
        );
        counts.push(per_engine[0]);
    }
    // Engine independence holds per worker count; the bitwise kernels make
    // the count identical across worker counts too.
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "f32-path iteration counts diverged across worker counts: {counts:?}"
    );
}
