//! End-to-end tests of the `sts-krylov` subsystem against a dense reference:
//! PCG (plain, SSOR, IC(0); sequential and split sweep engines) must
//! converge to the dense-Cholesky solution of the synthetic SPD suite (grid
//! Laplacians) within an iteration bound. The iteration's bits do not depend
//! on the thread count, a single solve is the one-lane batch solve bit for
//! bit, and the product has the bits of the CSR product of the permuted
//! operator.

use sts_k::core::solver::vector::BLOCK_ROWS;
use sts_k::core::{BlockSums, Method, ParallelSolver};
use sts_k::krylov::{
    Ic0, Identity, KrylovWorkspace, Pcg, PcgOptions, Preconditioner, SpdSystem, Ssor, SweepEngine,
    Tolerance,
};
use sts_k::matrix::suite::{generate, SuiteId, SuiteScale};
use sts_k::matrix::{generators, ops, CsrMatrix};
use sts_k::numa::Schedule;

/// Dense Cholesky solve `A x = b` — the ground-truth oracle.
fn dense_cholesky_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let mut m = vec![vec![0.0f64; n]; n];
    for (r, c, v) in a.iter() {
        m[r][c] = v;
    }
    // In-place lower Cholesky: m becomes L with A = L Lᵀ.
    for i in 0..n {
        for j in 0..=i {
            let mut s = m[i][j];
            for (a, b) in m[i][..j].iter().zip(&m[j][..j]) {
                s -= a * b;
            }
            if i == j {
                assert!(s > 0.0, "test operator must be SPD");
                m[i][i] = s.sqrt();
            } else {
                m[i][j] = s / m[j][j];
            }
        }
    }
    // Forward then backward substitution.
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= m[i][k] * y[k];
        }
        y[i] = s / m[i][i];
    }
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in i + 1..n {
            s -= m[k][i] * x[k];
        }
        x[i] = s / m[i][i];
    }
    x
}

/// The synthetic SPD suite: grid Laplacians of assorted shapes.
fn spd_suite() -> Vec<(String, CsrMatrix)> {
    vec![
        (
            "grid2d_8x8".into(),
            generators::grid2d_laplacian(8, 8).unwrap(),
        ),
        (
            "grid2d_13x7".into(),
            generators::grid2d_laplacian(13, 7).unwrap(),
        ),
        (
            "grid2d_16x16".into(),
            generators::grid2d_laplacian(16, 16).unwrap(),
        ),
        (
            "grid3d_5x4x4".into(),
            generators::grid3d_laplacian(5, 4, 4).unwrap(),
        ),
    ]
}

#[test]
fn pcg_matches_the_dense_reference_on_the_spd_suite() {
    for (name, a) in spd_suite() {
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let n = sys.n();
        // A rough right-hand side so the Krylov space has full dimension.
        let b: Vec<f64> = (0..n).map(|i| ((i * 7919) % 17) as f64 - 8.0).collect();
        let x_ref = dense_cholesky_solve(&a, &b);
        let pcg = Pcg::with_options(
            4,
            Schedule::Guided { min_chunk: 1 },
            PcgOptions {
                tolerance: Tolerance::Relative(1e-10),
                max_iterations: n,
                record_history: true,
            },
        );
        let mut ws = KrylovWorkspace::new(n);
        let mut preconditioners: Vec<(&str, Box<dyn Preconditioner>)> = vec![
            ("none", Box::new(Identity)),
            (
                "ssor-seq",
                Box::new(Ssor::new(&sys, SweepEngine::Sequential)),
            ),
            ("ssor-split", Box::new(Ssor::new(&sys, SweepEngine::Split))),
            (
                "ic0-split",
                Box::new(Ic0::new(&sys, pcg.solver(), SweepEngine::Split).unwrap()),
            ),
        ];
        for (label, pre) in preconditioners.iter_mut() {
            let out = pcg.solve(&sys, pre.as_mut(), &b, &mut ws).unwrap();
            assert!(
                out.converged,
                "{name}/{label}: PCG must converge within n = {n} iterations \
                 (residual {:.3e})",
                out.residual_norm
            );
            assert!(
                out.iterations <= n,
                "{name}/{label}: iteration bound exceeded"
            );
            assert!(
                ops::relative_error_inf(&out.x, &x_ref) < 1e-7,
                "{name}/{label}: solution diverged from the dense reference"
            );
            // The recorded history is consistent with convergence.
            assert_eq!(out.history.len(), out.iterations + 1);
            assert!(out.history.last().unwrap() <= &out.history[0]);
        }
    }
}

#[test]
fn batched_pcg_matches_the_dense_reference() {
    let a = generators::grid2d_laplacian(12, 10).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    let n = sys.n();
    let nrhs = 4;
    let pcg = Pcg::new(3, Schedule::Guided { min_chunk: 1 });
    let mut pre = Ssor::new(&sys, SweepEngine::Split);
    let mut b = vec![0.0; n * nrhs];
    let mut x_ref = vec![0.0; n * nrhs];
    for q in 0..nrhs {
        let bq: Vec<f64> = (0..n)
            .map(|i| ((i * 31 + q * 7) % 23) as f64 * 0.5 - 5.0)
            .collect();
        let xq = dense_cholesky_solve(&a, &bq);
        for i in 0..n {
            b[i * nrhs + q] = bq[i];
            x_ref[i * nrhs + q] = xq[i];
        }
    }
    let mut ws = KrylovWorkspace::with_nrhs(n, nrhs);
    let out = pcg.solve_batch(&sys, &mut pre, &b, nrhs, &mut ws).unwrap();
    assert!(out.converged.iter().all(|&c| c));
    assert!(
        ops::relative_error_inf(&out.x, &x_ref) < 1e-6,
        "batched PCG diverged from the dense reference"
    );
}

#[test]
fn batched_pcg_matches_the_dense_reference_on_every_preconditioner() {
    // The lockstep driver — and the block-mode entry that forwards to it —
    // against the ground-truth oracle, on both sweep engines and both
    // preconditioner families, to the acceptance bar of 1e-8.
    let a = generators::grid2d_laplacian(12, 10).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    let n = sys.n();
    let nrhs = 4;
    let pcg = Pcg::with_options(
        3,
        Schedule::Guided { min_chunk: 1 },
        PcgOptions {
            tolerance: Tolerance::Relative(1e-11),
            max_iterations: n,
            record_history: false,
        },
    );
    let mut b = vec![0.0; n * nrhs];
    let mut x_ref = vec![0.0; n * nrhs];
    for q in 0..nrhs {
        let bq: Vec<f64> = (0..n)
            .map(|i| ((i * 53 + q * 11) % 29) as f64 * 0.4 - 6.0)
            .collect();
        let xq = dense_cholesky_solve(&a, &bq);
        for i in 0..n {
            b[i * nrhs + q] = bq[i];
            x_ref[i * nrhs + q] = xq[i];
        }
    }
    let mut ws = KrylovWorkspace::with_nrhs(n, nrhs);
    let mut preconditioners: Vec<(&str, Box<dyn Preconditioner>)> = vec![
        ("none", Box::new(Identity)),
        (
            "ssor-seq",
            Box::new(Ssor::new(&sys, SweepEngine::Sequential)),
        ),
        ("ssor-split", Box::new(Ssor::new(&sys, SweepEngine::Split))),
        (
            "ic0-split",
            Box::new(Ic0::new(&sys, pcg.solver(), SweepEngine::Split).unwrap()),
        ),
    ];
    for (label, pre) in preconditioners.iter_mut() {
        let out = pcg
            .solve_batch(&sys, pre.as_mut(), &b, nrhs, &mut ws)
            .unwrap();
        assert!(
            out.converged.iter().all(|&c| c),
            "{label}: lockstep PCG must converge (residuals {:?})",
            out.residual_norms
        );
        assert!(
            ops::relative_error_inf(&out.x, &x_ref) < 1e-8,
            "{label}: batched solution diverged from the dense reference \
             (error {:.3e})",
            ops::relative_error_inf(&out.x, &x_ref)
        );
        assert_eq!(
            out.lockstep_iterations,
            *out.iterations.iter().max().unwrap()
        );
        let block = pcg
            .solve_block(&sys, pre.as_mut(), &b, nrhs, &mut ws)
            .unwrap();
        assert_eq!(
            block.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            out.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{label}: the block entry must be the lockstep solve"
        );
        assert_eq!(block.block_steps, out.lockstep_iterations);
        assert_eq!(block.deflations, 0);
    }
}

#[test]
fn batched_pcg_meets_the_true_residual_bound_on_the_200x200_laplacian() {
    // Four right-hand sides on the benchmark-sized operator: every system
    // must converge, and its true residual ‖A x − b‖ (not the recurrence
    // residual the stopping rule watches) must respect the 1e-8 relative
    // tolerance with a 2× drift allowance.
    let a = generators::grid2d_laplacian(200, 200).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 80).unwrap();
    let n = sys.n();
    let nrhs = 4;
    let b: Vec<f64> = (0..n * nrhs)
        .map(|i| ((i * 37) % 19) as f64 * 0.25 - 2.0)
        .collect();
    let pcg = Pcg::new(2, Schedule::Guided { min_chunk: 1 });
    let mut pre = Ic0::new(&sys, pcg.solver(), SweepEngine::Split).unwrap();
    let mut ws = KrylovWorkspace::with_nrhs(n, nrhs);
    let out = pcg.solve_batch(&sys, &mut pre, &b, nrhs, &mut ws).unwrap();
    assert!(out.converged.iter().all(|&c| c));
    for q in 0..nrhs {
        let xq: Vec<f64> = (0..n).map(|i| out.x[i * nrhs + q]).collect();
        let bq: Vec<f64> = (0..n).map(|i| b[i * nrhs + q]).collect();
        let ax = ops::spmv(&a, &xq).unwrap();
        let res: Vec<f64> = ax.iter().zip(&bq).map(|(v, w)| v - w).collect();
        assert!(
            ops::norm2(&res) <= 2e-8 * ops::norm2(&bq),
            "system {q} true residual exceeds the tolerance"
        );
    }
}

#[test]
fn pcg_bits_do_not_depend_on_the_thread_count() {
    // 12 543 rows: four reduction blocks, the last one short, and a row
    // count that is a multiple of neither 4 nor the block size, so every
    // remainder path of the blocked reductions runs.
    let a = generators::grid2d_laplacian(111, 113).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 80).unwrap();
    let n = sys.n();
    let block = sts_k::core::solver::vector::BLOCK_ROWS;
    assert!(n > 3 * block && !n.is_multiple_of(block) && !n.is_multiple_of(4));
    let rhs = |nrhs: usize| -> Vec<f64> {
        (0..n * nrhs)
            .map(|k| ((k * 7919) % 23) as f64 * 0.37 - 4.0)
            .collect()
    };
    // (iterations, x) per request, at the first thread count.
    let mut first: Vec<(Vec<usize>, Vec<f64>)> = Vec::new();
    for threads in [1, 2, 3, 8] {
        let pcg = Pcg::new(threads, Schedule::Guided { min_chunk: 1 });
        let mut pre = Ic0::new(&sys, pcg.solver(), SweepEngine::Split).unwrap();
        let b = rhs(1);
        let one = pcg
            .solve(&sys, &mut pre, &b, &mut KrylovWorkspace::new(n))
            .unwrap();
        assert!(one.converged);
        let mut got = vec![(vec![one.iterations], one.x)];
        for nrhs in [3, 4] {
            let mut ws = KrylovWorkspace::with_nrhs(n, nrhs);
            let out = pcg
                .solve_batch(&sys, &mut pre, &rhs(nrhs), nrhs, &mut ws)
                .unwrap();
            assert!(out.converged.iter().all(|&c| c));
            got.push((out.iterations, out.x));
        }
        if first.is_empty() {
            first = got;
        } else {
            for (want, have) in first.iter().zip(&got) {
                assert_eq!(
                    want.0, have.0,
                    "iteration counts moved at {threads} threads"
                );
                assert!(
                    want.1
                        .iter()
                        .zip(&have.1)
                        .all(|(u, v)| u.to_bits() == v.to_bits()),
                    "solution bits moved at {threads} threads"
                );
            }
        }
    }
}

/// Operators of assorted stencils, each spanning more than one reduction
/// block.
fn block_operators() -> Vec<(&'static str, CsrMatrix)> {
    let small_suite_d1 = generate(SuiteId::D1, SuiteScale::Small).unwrap().symmetric;
    vec![
        (
            "5-point grid",
            generators::grid2d_laplacian(70, 61).unwrap(),
        ),
        ("9-point grid", generators::grid2d_9point(66, 64).unwrap()),
        (
            "triangulation",
            generators::triangulated_grid(67, 65, 5).unwrap(),
        ),
        (
            "27-point grid",
            generators::grid3d_27point(17, 16, 16).unwrap(),
        ),
        ("small-suite D1", small_suite_d1),
    ]
}

#[test]
fn solve_is_the_one_lane_batch_solve() {
    // `solve` runs the lockstep loop at one lane: its solution, iteration
    // count, convergence flag and residual are the bits of
    // `solve_batch(.., 1, ..)` on every operator and thread count.
    let operators = spd_suite().into_iter().chain(
        block_operators()
            .into_iter()
            .map(|(name, a)| (name.to_string(), a)),
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (name, a) in operators {
        let sys = SpdSystem::build(&a, Method::Sts3, 80).unwrap();
        let n = sys.n();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7919) % 17) as f64 - 8.0).collect();
        let mut ws = KrylovWorkspace::new(n);
        let mut pre = Ic0::new(
            &sys,
            &ParallelSolver::new(2, Schedule::Static),
            SweepEngine::Split,
        )
        .unwrap();
        for threads in [1, 2, 3, 8] {
            let what = format!("{name}, {threads} threads");
            let pcg = Pcg::new(threads, Schedule::Guided { min_chunk: 1 });
            let one = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
            let batch = pcg.solve_batch(&sys, &mut pre, &b, 1, &mut ws).unwrap();
            assert!(one.converged, "{what}: did not converge");
            assert_eq!(bits(&one.x), bits(&batch.x), "{what}: x moved");
            assert_eq!([one.iterations], *batch.iterations, "{what}: iterations");
            assert_eq!(batch.lockstep_iterations, one.iterations, "{what}: steps");
            assert_eq!([one.converged], *batch.converged, "{what}: converged");
            assert_eq!(
                one.residual_norm.to_bits(),
                batch.residual_norms[0].to_bits(),
                "{what}: residual"
            );
        }
    }
}

#[test]
fn the_product_has_the_bits_of_the_permuted_csr_product() {
    // PCG multiplies by the structure's symmetric layout of `L'`, with u32
    // columns: row by row in ascending column order from 0.0, exactly as
    // the CSR product of `P A Pᵀ` sums it. So the product and its dots are
    // bitwise those of `spmv_batch_into` on `P A Pᵀ`, at every width and
    // thread count. Each operator spans more than one reduction block.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (name, a) in block_operators() {
        let sys = SpdSystem::build(&a, Method::Sts3, 80).unwrap();
        let n = sys.n();
        assert!(n > BLOCK_ROWS, "{name}: {n} rows fit one reduction block");
        let pa = a
            .permute_symmetric(sys.structure().permutation().new_to_old())
            .unwrap();
        for threads in [1, 2, 3] {
            let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
            for nrhs in 1..=5 {
                let what = format!("{name}, nrhs = {nrhs}, {threads} threads");
                let p: Vec<f64> = (0..n * nrhs)
                    .map(|k| ((k * 7919) % 29) as f64 * 0.173 - 2.3)
                    .collect();
                let mut want = vec![0.0; n * nrhs];
                solver.spmv_batch_into(&pa, &p, &mut want, nrhs).unwrap();
                let mut sums = BlockSums::new(n, nrhs);
                let want_dots = bits(solver.dots(&p, &want, &mut sums).unwrap());
                let mut ap = vec![f64::NAN; n * nrhs];
                let dots = bits(
                    solver
                        .spmv_dots(sys.structure(), &p, &mut ap, &mut sums)
                        .unwrap(),
                );
                assert!(bits(&ap) == bits(&want), "{what}: A·p moved");
                assert_eq!(dots, want_dots, "{what}: p·Ap moved");
            }
        }
    }
}
