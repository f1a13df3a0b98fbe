//! End-to-end tests of the `sts-krylov` subsystem against a dense reference:
//! PCG (plain, SSOR, IC(0); sequential and split sweep engines) must
//! converge to the dense-Cholesky solution of the synthetic SPD suite (grid
//! Laplacians) within an iteration bound.

use sts_k::core::Method;
use sts_k::krylov::{
    Ic0, Identity, KrylovWorkspace, Pcg, PcgOptions, Preconditioner, SpdSystem, Ssor, SweepEngine,
    Tolerance,
};
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
