//! Iterative refinement: f32-slab triangular solves driven to f64 accuracy.
//!
//! The mixed-precision kernels
//! ([`PrecisionPolicy::ValuesF32WithRefinement`](sts_core::PrecisionPolicy::ValuesF32WithRefinement))
//! halve the value-slab traffic of a sweep but round every stored
//! coefficient to f32, so a single pass carries ~1e-7 relative error — far
//! short of the 1e-15 a double-precision solve delivers. Classical iterative
//! refinement closes that gap at almost no cost, because the expensive part
//! (the sweep) can *stay* in the cheap precision:
//!
//! 1. `x ← L⁻¹₃₂ b` — solve with the f32 slabs (f64 accumulation);
//! 2. `r ← b − L x` — residual against the **full-precision** operand,
//!    computed entirely in f64;
//! 3. if `‖r‖₂ ≤ tol · ‖b‖₂`, stop; else `x ← x + L⁻¹₃₂ r` and repeat.
//!
//! Each pass contracts the error by roughly the f32 rounding level (~1e-7),
//! so one or two correction sweeps reach 1e-12 relative residuals; the
//! [`RefineOutcome::refine_iterations`] count is the observable
//! `tests/mixed_precision.rs` holds at ≤ 2 on operands whose values do not
//! round-trip through f32. Requesting
//! [`ValuesF64`](sts_core::PrecisionPolicy::ValuesF64) degenerates gracefully: the first residual
//! check already passes and the wrapper returns the plain solve with zero
//! refinement passes.

use sts_core::{ParallelSolver, SolveOptions, StsStructure, SweepDirection};
use sts_matrix::{ops, MatrixError};
use sts_trace::Phase;

use crate::Result;

/// Stopping policy for [`solve_refined`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Stop once `‖b − L x‖₂ ≤ tolerance · ‖b‖₂`. The default (`1e-12`)
    /// puts the refined solution well within 1e-10 of the f64 direct solve.
    pub tolerance: f64,
    /// Correction passes allowed after the initial solve. Refinement
    /// contracts the error by ~1e-7 per pass, so the default (4) leaves
    /// ample margin; running out marks the outcome `converged = false`
    /// rather than erroring.
    pub max_refinements: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            tolerance: 1e-12,
            max_refinements: 4,
        }
    }
}

/// What [`solve_refined`] produced.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The refined solution, in the structure's numbering.
    pub x: Vec<f64>,
    /// Correction passes performed after the initial solve (0 when the
    /// first solve already met the tolerance — always the case for
    /// [`ValuesF64`](sts_core::PrecisionPolicy::ValuesF64)).
    pub refine_iterations: usize,
    /// The final residual `‖b − L x‖₂`.
    pub residual_norm: f64,
    /// Whether the tolerance was met within the refinement budget.
    pub converged: bool,
}

/// Solves `L x = b` (or `Lᵀ x = b`) at the precision `opts` requests, then
/// refines the result against the full-precision operand until the relative
/// residual meets `refine.tolerance`.
///
/// `b` lives in the structure's numbering, like every other
/// [`ParallelSolver`] entry; the inner solves go through
/// [`ParallelSolver::solve_with`], so `opts` picks the engine, direction and
/// precision in one place. Only single right-hand sides are refined
/// (`opts.nrhs` must be 1).
pub fn solve_refined(
    solver: &ParallelSolver,
    s: &StsStructure,
    b: &[f64],
    opts: &SolveOptions,
    refine: &RefineOptions,
) -> Result<RefineOutcome> {
    if opts.nrhs != 1 {
        return Err(MatrixError::DimensionMismatch(format!(
            "solve_refined refines single right-hand sides, got nrhs = {}",
            opts.nrhs
        )));
    }
    if b.len() != s.n() {
        return Err(MatrixError::DimensionMismatch(format!(
            "b has length {}, expected {}",
            b.len(),
            s.n()
        )));
    }
    if !(refine.tolerance.is_finite() && refine.tolerance >= 0.0) {
        return Err(MatrixError::InvalidParameter(format!(
            "refinement tolerance must be finite and non-negative, got {}",
            refine.tolerance
        )));
    }
    let l = s.lower();
    let recorder = solver.trace_recorder().cloned();
    let threshold = refine.tolerance * ops::norm2(b);
    let mut x = solver.solve_with(s, b, opts)?;
    let mut refine_iterations = 0usize;
    loop {
        let t0 = recorder.as_ref().map(|r| r.now_ns());
        // The residual is the one place full precision is mandatory: it is
        // computed against the f64 operand even when the sweeps read f32
        // slabs, so refinement converges to the f64 answer, not the f32 one.
        let lx = match opts.direction {
            SweepDirection::Forward => l.multiply(&x)?,
            SweepDirection::Transpose => l.multiply_transpose(&x)?,
        };
        let r: Vec<f64> = b.iter().zip(&lx).map(|(bi, li)| bi - li).collect();
        let rnorm = ops::norm2(&r);
        if !rnorm.is_finite() {
            return Err(MatrixError::NonFiniteResidual {
                iteration: refine_iterations,
            });
        }
        if rnorm <= threshold {
            return Ok(RefineOutcome {
                x,
                refine_iterations,
                residual_norm: rnorm,
                converged: true,
            });
        }
        if refine_iterations == refine.max_refinements {
            return Ok(RefineOutcome {
                x,
                refine_iterations,
                residual_norm: rnorm,
                converged: false,
            });
        }
        let d = solver.solve_with(s, &r, opts)?;
        for (xi, di) in x.iter_mut().zip(&d) {
            *xi += di;
        }
        if let (Some(rec), Some(t0)) = (recorder.as_ref(), t0) {
            // One span per pass: the f64 residual plus the correction sweep
            // it fed, with the pass index in the pack column.
            rec.record(0, refine_iterations as u32, Phase::Refine, t0, rec.now_ns());
        }
        refine_iterations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_core::{Method, PrecisionPolicy, SolveEngine};
    use sts_matrix::generators;
    use sts_numa::Schedule;

    fn setup(threads: usize) -> (ParallelSolver, StsStructure, Vec<f64>, Vec<f64>) {
        let a = generators::triangulated_grid(14, 11, 7).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 8).unwrap();
        let x_star: Vec<f64> = (0..s.n())
            .map(|i| 0.3 + ((i * 7) % 13) as f64 / 13.0)
            .collect();
        let b = ops::manufacture_rhs(s.lower(), &x_star).unwrap();
        (ParallelSolver::new(threads, Schedule::Static), s, b, x_star)
    }

    #[test]
    fn f64_precision_needs_no_refinement_passes() {
        let (solver, s, b, _) = setup(2);
        let opts = SolveOptions::default();
        let out = solve_refined(&solver, &s, &b, &opts, &RefineOptions::default()).unwrap();
        assert!(out.converged);
        assert_eq!(out.refine_iterations, 0);
        assert_eq!(out.x, solver.solve_with(&s, &b, &opts).unwrap());
    }

    #[test]
    fn f32_solves_refine_to_the_f64_answer() {
        let (solver, s, b, _) = setup(4);
        let f64_opts = SolveOptions::default();
        for engine in [
            SolveEngine::Sequential,
            SolveEngine::Split,
            SolveEngine::Pipelined,
        ] {
            for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
                let opts = SolveOptions::default()
                    .with_engine(engine)
                    .with_direction(direction)
                    .with_precision(PrecisionPolicy::ValuesF32WithRefinement);
                let f64_dir = f64_opts.with_direction(direction);
                let reference = solver.solve_with(&s, &b, &f64_dir).unwrap();
                let out = solve_refined(&solver, &s, &b, &opts, &RefineOptions::default()).unwrap();
                assert!(out.converged, "engine {engine:?} direction {direction:?}");
                assert!(
                    out.refine_iterations <= 2,
                    "engine {engine:?} direction {direction:?} took {} passes",
                    out.refine_iterations
                );
                assert!(ops::relative_error_inf(&out.x, &reference) < 1e-10);
            }
        }
    }

    #[test]
    fn refinement_rejects_bad_requests() {
        let (solver, s, b, _) = setup(1);
        let batch = SolveOptions::default().with_nrhs(2);
        assert!(matches!(
            solve_refined(&solver, &s, &b, &batch, &RefineOptions::default()),
            Err(MatrixError::DimensionMismatch(_))
        ));
        assert!(matches!(
            solve_refined(
                &solver,
                &s,
                &b[..3],
                &SolveOptions::default(),
                &RefineOptions::default()
            ),
            Err(MatrixError::DimensionMismatch(_))
        ));
        let bad_tol = RefineOptions {
            tolerance: f64::NAN,
            ..RefineOptions::default()
        };
        assert!(matches!(
            solve_refined(&solver, &s, &b, &SolveOptions::default(), &bad_tol),
            Err(MatrixError::InvalidParameter(_))
        ));
    }
}
