//! The preconditioned conjugate-gradient driver.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sts_core::ParallelSolver;
use sts_matrix::MatrixError;
use sts_numa::Schedule;
use sts_trace::Registry;

use crate::precond::Preconditioner;
use crate::system::SpdSystem;
use crate::workspace::KrylovWorkspace;
use crate::Result;

/// When the iteration is allowed to stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Stop once `‖r‖₂ ≤ factor · ‖b‖₂` (the production default: scale
    /// invariant).
    Relative(f64),
    /// Stop once `‖r‖₂ ≤ bound` outright.
    Absolute(f64),
}

impl Tolerance {
    /// The concrete residual threshold for a system with `‖b‖₂ = b_norm`.
    ///
    /// A zero `b_norm` yields a zero threshold, so a zero right-hand side
    /// converges immediately (at `x = 0`) instead of dividing by zero
    /// somewhere downstream. A *non-finite* `b_norm` would poison the
    /// stopping comparison (`NaN > NaN` is `false`, which would silently
    /// report an untouched iterate as finished); the solve drivers reject a
    /// non-finite initial residual with
    /// [`MatrixError::NonFiniteResidual`]
    /// before consulting the threshold, and this helper stays total for
    /// direct callers by clamping to `0.0` — the conservative
    /// "never converged" answer, never a NaN.
    pub fn threshold(&self, b_norm: f64) -> f64 {
        match *self {
            Tolerance::Relative(factor) => {
                if b_norm.is_finite() {
                    factor * b_norm
                } else {
                    0.0
                }
            }
            Tolerance::Absolute(bound) => bound,
        }
    }
}

/// Driver policy: tolerance, iteration bound, history recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcgOptions {
    /// Stopping criterion on the (true, recurrence-maintained) residual.
    pub tolerance: Tolerance,
    /// Hard iteration bound; exceeding it reports `converged: false`.
    pub max_iterations: usize,
    /// Whether to record `‖r‖₂` per iteration in the outcome.
    pub record_history: bool,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions {
            tolerance: Tolerance::Relative(1e-8),
            max_iterations: 1000,
            record_history: true,
        }
    }
}

/// What a single-RHS solve produced.
#[derive(Debug, Clone)]
pub struct PcgOutcome {
    /// The solution, in the caller's (original) numbering.
    pub x: Vec<f64>,
    /// Iterations performed (= preconditioner applications = `A·p`
    /// products).
    pub iterations: usize,
    /// Whether the tolerance was met within the iteration bound.
    pub converged: bool,
    /// Final `‖r‖₂`.
    pub residual_norm: f64,
    /// `‖r‖₂` before each iteration (index 0 is the initial residual), when
    /// history recording is on.
    pub history: Vec<f64>,
    /// Wall time of the whole solve.
    pub seconds_total: f64,
    /// Wall time spent inside preconditioner applications.
    pub seconds_precond: f64,
    /// Wall time of the whole solve, integer nanoseconds — the canonical
    /// value every reporting layer (metrics lines, histograms, bench
    /// fields) should reuse instead of re-deriving its own. The legacy
    /// `seconds_total` is the same measurement rendered as f64 seconds.
    pub wall_ns: u64,
    /// Wall time inside preconditioner applications, integer nanoseconds
    /// (the same measurement as `seconds_precond`).
    pub precond_ns: u64,
}

impl PcgOutcome {
    /// Fraction of the solve spent applying the preconditioner — the share
    /// of end-to-end time the triangular kernels own.
    pub fn precond_share(&self) -> f64 {
        if self.seconds_total > 0.0 {
            self.seconds_precond / self.seconds_total
        } else {
            0.0
        }
    }
}

/// What a batched solve produced.
#[derive(Debug, Clone)]
pub struct PcgBatchOutcome {
    /// Solutions, interleaved (`x[i * nrhs + q]`), original numbering.
    pub x: Vec<f64>,
    /// Per-system iteration at which the tolerance was first met (the
    /// lockstep count for systems that never converged).
    pub iterations: Vec<usize>,
    /// Per-system convergence flags.
    pub converged: Vec<bool>,
    /// Per-system final `‖r‖₂`.
    pub residual_norms: Vec<f64>,
    /// Lockstep iterations performed (every system advances together; a
    /// converged system is frozen, not dropped, so the batch kernels keep
    /// their full width).
    pub lockstep_iterations: usize,
}

/// What [`Pcg::solve_block`] reports: a lockstep batch outcome under the
/// field names the block-CG driver used to fill.
#[derive(Debug, Clone)]
pub struct PcgBlockOutcome {
    /// Solutions, interleaved (`x[i * nrhs + q]`), original numbering.
    pub x: Vec<f64>,
    /// Per-system iteration at which the tolerance was first met.
    pub iterations: Vec<usize>,
    /// Per-system convergence flags.
    pub converged: Vec<bool>,
    /// Per-system final `‖r‖₂`.
    pub residual_norms: Vec<f64>,
    /// Lockstep iterations performed
    /// ([`PcgBatchOutcome::lockstep_iterations`]).
    pub block_steps: usize,
    /// Always 0: the lockstep driver drops no direction.
    pub deflations: usize,
}

/// The conjugate-gradient driver: owns the worker pool every kernel of the
/// iteration runs on (triangular sweeps, `A·p` products) and the stopping
/// policy.
pub struct Pcg {
    solver: ParallelSolver,
    options: PcgOptions,
    metrics: Option<Arc<Registry>>,
}

impl Pcg {
    /// A driver on `threads` workers with default options.
    pub fn new(threads: usize, schedule: Schedule) -> Self {
        Pcg {
            solver: ParallelSolver::new(threads, schedule),
            options: PcgOptions::default(),
            metrics: None,
        }
    }

    /// A driver with explicit options.
    pub fn with_options(threads: usize, schedule: Schedule, options: PcgOptions) -> Self {
        Pcg {
            solver: ParallelSolver::new(threads, schedule),
            options,
            metrics: None,
        }
    }

    /// Installs (or clears) a metrics registry the driver feeds per solve:
    /// the `pcg_solves_total` counter plus the `pcg_iterations`,
    /// `pcg_wall_ns` and `pcg_precond_share_pct` histograms (and, through
    /// [`RobustPcg`](crate::RobustPcg), the `pcg_recovery_rungs_total`
    /// counter). Observation is lock-free; the registry lookup happens once
    /// per solve, far off the iteration hot path.
    pub fn set_metrics_registry(&mut self, registry: Option<Arc<Registry>>) {
        self.metrics = registry;
    }

    /// The installed metrics registry, if any.
    pub fn metrics_registry(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref()
    }

    /// The worker pool the sweeps, products and IC(0) builds run on.
    pub fn solver(&self) -> &ParallelSolver {
        &self.solver
    }

    /// Mutable access to the worker pool, for installing a fault-injection
    /// hook ([`ParallelSolver::set_chaos_hook`]) or a span recorder.
    pub fn solver_mut(&mut self) -> &mut ParallelSolver {
        &mut self.solver
    }

    /// The driver's stopping policy.
    pub fn options(&self) -> &PcgOptions {
        &self.options
    }

    /// Replaces the stopping policy without rebuilding the worker pool.
    /// Lets a long-lived driver (e.g. a solver service) honour per-request
    /// tolerances while keeping its threads parked between solves.
    pub fn set_options(&mut self, options: PcgOptions) {
        self.options = options;
    }

    /// Solves `A x = b` (original numbering) with preconditioned CG.
    ///
    /// Every pass of an iteration runs on the driver's pool: the sweep pair
    /// through `ParallelSolver::solve_into`, and the vector work in three
    /// dispatches around the product — `r·z`
    /// ([`ParallelSolver::dots`]), `p = z + β p`
    /// ([`ParallelSolver::update_direction`]), then `x += α p`,
    /// `r −= α Ap` with `‖r‖` ([`ParallelSolver::cg_step`]) — while `p·Ap`
    /// is summed in the product's own dispatch
    /// ([`ParallelSolver::spmv_dots`]). Every sum follows one blocked order
    /// fixed by `n` alone (see [`sts_core::solver::vector`]), so the
    /// iterates, the iteration count and `x` are bitwise the same at every
    /// thread count. After warm-up (lazy layout builds on first use), an
    /// iteration performs no heap allocation: every vector and the partial
    /// sums live in `ws`.
    pub fn solve(
        &self,
        sys: &SpdSystem,
        pre: &mut dyn Preconditioner,
        b: &[f64],
        ws: &mut KrylovWorkspace,
    ) -> Result<PcgOutcome> {
        check_shapes(sys, b, 1, ws)?;
        let start = Instant::now();
        let mut precond = Duration::ZERO;
        // With x₀ = 0 the initial residual *is* the gathered right-hand
        // side, so it lands directly in r.
        sys.gather_into(b, &mut ws.r);
        ws.x.fill(0.0);
        let mut rnorm = self.solver.dots(&ws.r, &ws.r, &mut ws.sums)?[0].sqrt();
        if !rnorm.is_finite() {
            // A NaN or infinite right-hand side: every comparison against
            // the threshold would be silently false. Name the breakdown
            // instead of iterating on poison.
            return Err(MatrixError::NonFiniteResidual { iteration: 0 });
        }
        let threshold = self.options.tolerance.threshold(rnorm);
        // Grown as it is pushed, never sized from `max_iterations`: that
        // bound is whatever the caller (or a wire request) asked for.
        let mut history = Vec::new();
        if self.options.record_history {
            history.push(rnorm);
        }
        let mut iterations = 0usize;
        let mut rz = 0.0f64;
        while rnorm > threshold && iterations < self.options.max_iterations {
            let t0 = Instant::now();
            pre.apply_into(&self.solver, &ws.r, &mut ws.z, &mut ws.sweep)?;
            precond += t0.elapsed();
            let rz_new = self.solver.dots(&ws.r, &ws.z, &mut ws.sums)?[0];
            if iterations == 0 {
                ws.p.copy_from_slice(&ws.z);
            } else {
                if rz == 0.0 {
                    // Stagnated preconditioned residual (e.g. an exactly
                    // converged system iterated past convergence, or an
                    // indefinite preconditioner): `rz_new / rz` would poison
                    // p with ±∞ and, one 0·∞ alpha later, x with NaN. Stop
                    // here instead — x, p and r keep their last finite
                    // values and `converged` reports the true residual
                    // state, mirroring the batch path's `rz[q] == 0.0`
                    // freeze.
                    break;
                }
                self.solver
                    .update_direction(&ws.z, &[rz_new / rz], &mut ws.p)?;
            }
            rz = rz_new;
            let pap = self
                .solver
                .spmv_dots(sys.structure(), &ws.p, &mut ws.ap, &mut ws.sums)?[0];
            let alpha = rz / pap;
            if !alpha.is_finite() {
                // Breakdown (indefinite operator or preconditioner): report
                // the state honestly instead of iterating on NaNs.
                break;
            }
            let rr =
                self.solver
                    .cg_step(&[alpha], &ws.p, &ws.ap, &mut ws.x, &mut ws.r, &mut ws.sums)?[0];
            iterations += 1;
            rnorm = rr.sqrt();
            if !rnorm.is_finite() {
                // A non-finite value slipped into the recurrence (operator
                // or preconditioner emitted NaN/∞ past the alpha guard):
                // stop with the iteration named rather than looping on NaN
                // until the bound.
                return Err(MatrixError::NonFiniteResidual {
                    iteration: iterations,
                });
            }
            if self.options.record_history {
                history.push(rnorm);
            }
        }
        let mut x = vec![0.0; sys.n()];
        sys.scatter_into(&ws.x, &mut x);
        // One elapsed() reading feeds both representations, so the integer
        // and f64 fields can never disagree about what was measured.
        let wall = start.elapsed();
        let outcome = PcgOutcome {
            x,
            iterations,
            converged: rnorm <= threshold,
            residual_norm: rnorm,
            history,
            seconds_total: wall.as_secs_f64(),
            seconds_precond: precond.as_secs_f64(),
            wall_ns: wall.as_nanos() as u64,
            precond_ns: precond.as_nanos() as u64,
        };
        if let Some(reg) = &self.metrics {
            reg.counter("pcg_solves_total").inc();
            reg.histogram("pcg_iterations").observe(iterations as u64);
            reg.histogram("pcg_wall_ns").observe(outcome.wall_ns);
            reg.histogram("pcg_precond_share_pct")
                .observe((outcome.precond_share() * 100.0) as u64);
        }
        Ok(outcome)
    }

    /// Solves `nrhs` systems `A X = B` at once (interleaved layout,
    /// `b[i * nrhs + q]`, original numbering) with lockstep preconditioned
    /// CG on the batch kernels: one batched sweep pair and one batched
    /// `A·X` product per lockstep iteration serve the whole batch, so the
    /// index traffic of every row is amortised over the right-hand sides.
    /// Converged systems are frozen (their updates scaled by zero) until the
    /// stragglers finish.
    ///
    /// The vector work runs on the pool in the same kernels as
    /// [`Pcg::solve`], at lane width `nrhs`; lane `q`'s sums follow exactly
    /// the scalar driver's blocked order, so every lane is bitwise equal to
    /// the standalone solve of its right-hand side, at every thread count.
    /// After warm-up, a lockstep iteration performs no heap allocation.
    pub fn solve_batch(
        &self,
        sys: &SpdSystem,
        pre: &mut dyn Preconditioner,
        b: &[f64],
        nrhs: usize,
        ws: &mut KrylovWorkspace,
    ) -> Result<PcgBatchOutcome> {
        let (mut rnorm, thresholds, mut iterations) = self.start_batch(sys, b, nrhs, ws)?;
        let mut rz = vec![0.0f64; nrhs];
        let mut alpha = vec![0.0f64; nrhs];
        let mut beta = vec![0.0f64; nrhs];
        let mut lockstep = 0usize;
        while lockstep < self.options.max_iterations
            && rnorm.iter().zip(&thresholds).any(|(&r, &t)| r > t)
        {
            pre.apply_batch_into(&self.solver, &ws.r, &mut ws.z, &mut ws.sweep, nrhs)?;
            let rz_new = self.solver.dots(&ws.r, &ws.z, &mut ws.sums)?;
            for q in 0..nrhs {
                let active = rnorm[q] > thresholds[q];
                beta[q] = if lockstep == 0 || !active || rz[q] == 0.0 {
                    0.0
                } else {
                    rz_new[q] / rz[q]
                };
            }
            rz.copy_from_slice(rz_new);
            if lockstep == 0 {
                ws.p.copy_from_slice(&ws.z);
            } else {
                self.solver.update_direction(&ws.z, &beta, &mut ws.p)?;
            }
            let pap = self
                .solver
                .spmv_dots(sys.structure(), &ws.p, &mut ws.ap, &mut ws.sums)?;
            for q in 0..nrhs {
                let active = rnorm[q] > thresholds[q];
                let a = rz[q] / pap[q];
                // Frozen or broken-down systems get a zero step: x and r
                // stay put, so their reported residual remains truthful.
                alpha[q] = if active && a.is_finite() { a } else { 0.0 };
            }
            let rr =
                self.solver
                    .cg_step(&alpha, &ws.p, &ws.ap, &mut ws.x, &mut ws.r, &mut ws.sums)?;
            for (r, &s) in rnorm.iter_mut().zip(rr) {
                *r = s.sqrt();
            }
            lockstep += 1;
            check_finite_norms(&rnorm, lockstep)?;
            for q in 0..nrhs {
                if rnorm[q] <= thresholds[q] && iterations[q] > lockstep {
                    iterations[q] = lockstep;
                }
            }
        }
        let (x, converged) = finish_batch(
            sys,
            ws,
            nrhs,
            (&rnorm, &thresholds),
            &mut iterations,
            lockstep,
        );
        Ok(PcgBatchOutcome {
            x,
            iterations,
            converged,
            residual_norms: rnorm,
            lockstep_iterations: lockstep,
        })
    }

    /// [`Pcg::solve_batch`] under the block-CG outcome shape: `block_steps`
    /// is the lockstep count and `deflations` is 0. Block CG took exactly as
    /// many steps as lockstep CG on every benchmark operator, at 1.6–1.9×
    /// its wall time, and was deleted; this adapter stays only for the
    /// repository benchmark's `Block` unit, until the benchmark retires it.
    pub fn solve_block(
        &self,
        sys: &SpdSystem,
        pre: &mut dyn Preconditioner,
        b: &[f64],
        nrhs: usize,
        ws: &mut KrylovWorkspace,
    ) -> Result<PcgBlockOutcome> {
        let out = self.solve_batch(sys, pre, b, nrhs, ws)?;
        Ok(PcgBlockOutcome {
            x: out.x,
            iterations: out.iterations,
            converged: out.converged,
            residual_norms: out.residual_norms,
            block_steps: out.lockstep_iterations,
            deflations: 0,
        })
    }

    /// The lockstep driver's entry state: checks the shapes, gathers `b`
    /// into `ws.r` (with `x₀ = 0` the initial residual *is* the right-hand
    /// side), zeroes `ws.x`, and returns per system the initial residual
    /// norm, the threshold, and the iteration stamp — 0 for a system
    /// converged at entry, the iteration bound until a system first meets
    /// its threshold otherwise.
    fn start_batch(
        &self,
        sys: &SpdSystem,
        b: &[f64],
        nrhs: usize,
        ws: &mut KrylovWorkspace,
    ) -> Result<(Vec<f64>, Vec<f64>, Vec<usize>)> {
        check_shapes(sys, b, nrhs, ws)?;
        sys.gather_batch_into(b, &mut ws.r, nrhs);
        ws.x.fill(0.0);
        let rnorm: Vec<f64> = self
            .solver
            .dots(&ws.r, &ws.r, &mut ws.sums)?
            .iter()
            .map(|s| s.sqrt())
            .collect();
        check_finite_norms(&rnorm, 0)?;
        let thresholds: Vec<f64> = rnorm
            .iter()
            .map(|&bn| self.options.tolerance.threshold(bn))
            .collect();
        let iterations = rnorm
            .iter()
            .zip(&thresholds)
            .map(|(&r, &t)| {
                if r <= t {
                    0
                } else {
                    self.options.max_iterations
                }
            })
            .collect();
        Ok((rnorm, thresholds, iterations))
    }
}

/// Rejects a right-hand side or a workspace that is not `n × nrhs`.
fn check_shapes(sys: &SpdSystem, b: &[f64], nrhs: usize, ws: &KrylovWorkspace) -> Result<()> {
    let n = sys.n();
    if nrhs == 0 {
        return Err(MatrixError::DimensionMismatch(
            "a solve needs at least one right-hand side".into(),
        ));
    }
    if n.checked_mul(nrhs) != Some(b.len()) {
        return Err(MatrixError::DimensionMismatch(format!(
            "b has length {}, expected n * nrhs = {}",
            b.len(),
            n as u128 * nrhs as u128
        )));
    }
    if ws.n() != n || ws.nrhs() != nrhs {
        return Err(MatrixError::DimensionMismatch(format!(
            "workspace is sized for n = {} × nrhs = {}, solve needs n = {n} × nrhs = {nrhs}",
            ws.n(),
            ws.nrhs()
        )));
    }
    Ok(())
}

/// The lockstep driver's exit state: scatters `ws.x` back to the caller's
/// numbering, derives the convergence flags from the final norms, and stamps
/// the systems that never met their threshold with the `steps` the solve
/// performed.
fn finish_batch(
    sys: &SpdSystem,
    ws: &KrylovWorkspace,
    nrhs: usize,
    (rnorm, thresholds): (&[f64], &[f64]),
    iterations: &mut [usize],
    steps: usize,
) -> (Vec<f64>, Vec<bool>) {
    let mut x = vec![0.0; sys.n() * nrhs];
    sys.scatter_batch_into(&ws.x, &mut x, nrhs);
    let converged: Vec<bool> = rnorm
        .iter()
        .zip(thresholds)
        .map(|(&r, &t)| r <= t)
        .collect();
    for (it, &c) in iterations.iter_mut().zip(&converged) {
        if !c {
            *it = steps;
        }
    }
    (x, converged)
}

/// Rejects a non-finite residual norm anywhere in a batch, naming the
/// iteration at which it appeared (0 is the initial residual).
fn check_finite_norms(rnorm: &[f64], iteration: usize) -> Result<()> {
    if rnorm.iter().any(|r| !r.is_finite()) {
        return Err(MatrixError::NonFiniteResidual { iteration });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Ic0, Identity, Ssor, SweepEngine};
    use sts_core::Method;
    use sts_matrix::{generators, ops};

    fn laplacian_system(nx: usize, ny: usize) -> SpdSystem {
        let a = generators::grid2d_laplacian(nx, ny).unwrap();
        SpdSystem::build(&a, Method::Sts3, 8).unwrap()
    }

    #[test]
    fn plain_cg_solves_the_laplacian() {
        let sys = laplacian_system(12, 12);
        let a = generators::grid2d_laplacian(12, 12).unwrap();
        let x_true: Vec<f64> = (0..sys.n())
            .map(|i| ((i % 13) as f64 - 6.0) * 0.5)
            .collect();
        let b = ops::spmv(&a, &x_true).unwrap();
        let pcg = Pcg::new(2, Schedule::Guided { min_chunk: 1 });
        let mut ws = KrylovWorkspace::new(sys.n());
        let out = pcg.solve(&sys, &mut Identity, &b, &mut ws).unwrap();
        assert!(out.converged, "CG must converge on an SPD Laplacian");
        assert!(ops::relative_error_inf(&out.x, &x_true) < 1e-6);
        assert_eq!(out.history.len(), out.iterations + 1);
        assert!(out.history.windows(2).any(|w| w[1] < w[0]));
        assert!(out.residual_norm <= out.history[0] * 1e-8);
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let sys = laplacian_system(16, 16);
        let a = generators::grid2d_laplacian(16, 16).unwrap();
        let x_true: Vec<f64> = (0..sys.n()).map(|i| 1.0 + (i % 7) as f64 * 0.4).collect();
        let b = ops::spmv(&a, &x_true).unwrap();
        let pcg = Pcg::new(3, Schedule::Guided { min_chunk: 1 });
        let mut ws = KrylovWorkspace::new(sys.n());
        let plain = pcg.solve(&sys, &mut Identity, &b, &mut ws).unwrap();
        let mut ssor = Ssor::new(&sys, SweepEngine::Split);
        let with_ssor = pcg.solve(&sys, &mut ssor, &b, &mut ws).unwrap();
        let mut ic0 = Ic0::new(&sys, pcg.solver(), SweepEngine::Split).unwrap();
        let with_ic0 = pcg.solve(&sys, &mut ic0, &b, &mut ws).unwrap();
        assert!(plain.converged && with_ssor.converged && with_ic0.converged);
        assert!(
            with_ssor.iterations < plain.iterations,
            "SSOR must beat plain CG ({} vs {})",
            with_ssor.iterations,
            plain.iterations
        );
        assert!(
            with_ic0.iterations < plain.iterations,
            "IC(0) must beat plain CG ({} vs {})",
            with_ic0.iterations,
            plain.iterations
        );
        assert!(ops::relative_error_inf(&with_ssor.x, &x_true) < 1e-6);
        assert!(ops::relative_error_inf(&with_ic0.x, &x_true) < 1e-6);
        assert!(with_ssor.seconds_precond > 0.0);
        assert!(with_ssor.precond_share() > 0.0 && with_ssor.precond_share() < 1.0);
    }

    #[test]
    fn sequential_and_split_sweeps_take_identical_iteration_counts() {
        // The acceptance invariant: both engines run the same per-row
        // arithmetic, so the iterate sequences — and hence the counts — are
        // identical, not merely close.
        let sys = laplacian_system(20, 20);
        let a = generators::grid2d_laplacian(20, 20).unwrap();
        let b = ops::spmv(&a, &vec![1.0; sys.n()]).unwrap();
        let pcg = Pcg::new(4, Schedule::Guided { min_chunk: 1 });
        let mut ws = KrylovWorkspace::new(sys.n());
        let mut seq = Ssor::new(&sys, SweepEngine::Sequential);
        let mut pip = Ssor::new(&sys, SweepEngine::Split);
        let out_seq = pcg.solve(&sys, &mut seq, &b, &mut ws).unwrap();
        let out_pip = pcg.solve(&sys, &mut pip, &b, &mut ws).unwrap();
        assert!(out_seq.converged && out_pip.converged);
        assert_eq!(out_seq.iterations, out_pip.iterations);
        assert_eq!(out_seq.history, out_pip.history, "bitwise-identical paths");
    }

    #[test]
    fn absolute_tolerance_and_iteration_bound_are_honored() {
        let sys = laplacian_system(10, 10);
        let a = generators::grid2d_laplacian(10, 10).unwrap();
        let x_rough: Vec<f64> = (0..sys.n())
            .map(|i| ((i * 7919) % 23) as f64 - 11.0)
            .collect();
        let b = ops::spmv(&a, &x_rough).unwrap();
        // A bound too tight to reach in 3 iterations.
        let pcg = Pcg::with_options(
            2,
            Schedule::Static,
            PcgOptions {
                tolerance: Tolerance::Absolute(1e-12),
                max_iterations: 3,
                record_history: false,
            },
        );
        let mut ws = KrylovWorkspace::new(sys.n());
        let out = pcg.solve(&sys, &mut Identity, &b, &mut ws).unwrap();
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
        assert!(out.history.is_empty());
    }

    #[test]
    fn batched_solve_matches_single_rhs_solves() {
        let sys = laplacian_system(11, 13);
        let a = generators::grid2d_laplacian(11, 13).unwrap();
        let n = sys.n();
        let nrhs = 3;
        let pcg = Pcg::new(3, Schedule::Guided { min_chunk: 1 });
        let mut pre = Ssor::new(&sys, SweepEngine::Split);
        let mut b = vec![0.0; n * nrhs];
        let mut x_true = vec![0.0; n * nrhs];
        for q in 0..nrhs {
            let xq: Vec<f64> = (0..n)
                .map(|i| 1.0 + ((i + 3 * q) % 9) as f64 * 0.3)
                .collect();
            let bq = ops::spmv(&a, &xq).unwrap();
            for i in 0..n {
                b[i * nrhs + q] = bq[i];
                x_true[i * nrhs + q] = xq[i];
            }
        }
        let mut ws = KrylovWorkspace::with_nrhs(n, nrhs);
        let out = pcg.solve_batch(&sys, &mut pre, &b, nrhs, &mut ws).unwrap();
        assert!(
            out.converged.iter().all(|&c| c),
            "all systems must converge"
        );
        assert!(ops::relative_error_inf(&out.x, &x_true) < 1e-6);
        assert!(out.lockstep_iterations >= *out.iterations.iter().max().unwrap());
        // Each system's count matches its standalone solve (same arithmetic
        // per slot — frozen systems never perturb the others).
        let mut ws1 = KrylovWorkspace::new(n);
        for q in 0..nrhs {
            let bq: Vec<f64> = (0..n).map(|i| b[i * nrhs + q]).collect();
            let single = pcg.solve(&sys, &mut pre, &bq, &mut ws1).unwrap();
            assert_eq!(
                single.iterations, out.iterations[q],
                "system {q} diverged from its standalone count"
            );
        }
    }

    /// A preconditioner manufactured to stagnate: the second application
    /// returns a vector *exactly* orthogonal to r (so `rz` lands on 0.0
    /// while the residual is still alive), and later applications return r
    /// again — the shape that used to drive `beta = rz_new / 0` to ±∞ and
    /// then `x += (0·∞) · p` to NaN.
    struct StagnatingPre {
        calls: usize,
    }

    impl Preconditioner for StagnatingPre {
        fn label(&self) -> &'static str {
            "stagnating"
        }

        fn apply_batch_into(
            &mut self,
            _solver: &sts_core::ParallelSolver,
            r: &[f64],
            z: &mut [f64],
            _sweep: &mut [f64],
            _nrhs: usize,
        ) -> crate::Result<()> {
            if self.calls == 1 {
                // z ⊥ r exactly: dot(r, z) = r₀·r₁ − r₁·r₀ = 0.0 in floating
                // point (the two products are bitwise equal).
                z.fill(0.0);
                z[0] = r[1];
                z[1] = -r[0];
            } else {
                z.copy_from_slice(r);
            }
            self.calls += 1;
            Ok(())
        }
    }

    #[test]
    fn stagnated_rz_breaks_cleanly_instead_of_poisoning_x() {
        // Regression for the beta recurrence dividing by rz == 0: the solve
        // must stop at the stagnation point with finite x/r state and an
        // honest convergence flag, not return NaNs.
        let sys = laplacian_system(8, 8);
        let a = generators::grid2d_laplacian(8, 8).unwrap();
        // A rough right-hand side so the solve is still far from converged
        // when the stagnating application lands at iteration 1.
        let x_rough: Vec<f64> = (0..sys.n())
            .map(|i| ((i * 7919) % 23) as f64 - 11.0)
            .collect();
        let b = ops::spmv(&a, &x_rough).unwrap();
        let pcg = Pcg::new(2, Schedule::Static);
        let mut ws = KrylovWorkspace::new(sys.n());
        let mut pre = StagnatingPre { calls: 0 };
        let out = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
        assert!(
            out.x.iter().all(|v| v.is_finite()),
            "x must stay unpoisoned through the rz == 0 breakdown"
        );
        assert!(out.residual_norm.is_finite());
        assert!(
            !out.converged,
            "the stagnated solve did not reach tolerance"
        );
        assert!(out.history.iter().all(|v| v.is_finite()));
        // The orthogonal application lands at iteration 1 (rz = 0, alpha =
        // 0); the guard fires at the next beta step, so exactly two
        // iterations ran.
        assert_eq!(out.iterations, 2);
    }

    #[test]
    fn zero_rhs_converges_immediately_with_zero_solution() {
        let sys = laplacian_system(9, 9);
        let pcg = Pcg::new(2, Schedule::Static);
        let mut ws = KrylovWorkspace::new(sys.n());
        let b = vec![0.0; sys.n()];
        let out = pcg.solve(&sys, &mut Identity, &b, &mut ws).unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.residual_norm, 0.0);
        assert!(out.x.iter().all(|&v| v == 0.0));
        // The batch path agrees: an all-zero batch is converged at entry
        // with zero lockstep iterations.
        let nrhs = 3;
        let mut wsb = KrylovWorkspace::with_nrhs(sys.n(), nrhs);
        let bb = vec![0.0; sys.n() * nrhs];
        let batch = pcg
            .solve_batch(&sys, &mut Identity, &bb, nrhs, &mut wsb)
            .unwrap();
        assert!(batch.converged.iter().all(|&c| c));
        assert_eq!(batch.lockstep_iterations, 0);
        assert!(batch.iterations.iter().all(|&i| i == 0));
        assert!(batch.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn absolute_tolerance_converging_path_is_honored() {
        // The Absolute branch with a reachable bound: the final residual
        // respects the bound outright (no scaling by ‖b‖).
        let sys = laplacian_system(10, 10);
        let a = generators::grid2d_laplacian(10, 10).unwrap();
        let b = ops::spmv(&a, &vec![2.0; sys.n()]).unwrap();
        let bound = 1e-6;
        let pcg = Pcg::with_options(
            2,
            Schedule::Static,
            PcgOptions {
                tolerance: Tolerance::Absolute(bound),
                max_iterations: 500,
                record_history: true,
            },
        );
        let mut ws = KrylovWorkspace::new(sys.n());
        let out = pcg.solve(&sys, &mut Identity, &b, &mut ws).unwrap();
        assert!(out.converged);
        assert!(out.residual_norm <= bound);
        assert!(
            out.history[out.iterations - 1] > bound,
            "the solve must stop at the first iteration under the bound"
        );
    }

    #[test]
    fn block_solve_is_the_lockstep_batch_solve_on_both_engines() {
        // Batched lockstep solves run on single-core hosts through the
        // sequential engine with iterates bitwise identical to the
        // split engine, every lane equals its standalone solve, and
        // `solve_block` reports that same solve under the block field names.
        let sys = laplacian_system(10, 13);
        let a = generators::grid2d_laplacian(10, 13).unwrap();
        let n = sys.n();
        let nrhs = 2;
        let pcg = Pcg::new(2, Schedule::Guided { min_chunk: 1 });
        let mut b = vec![0.0; n * nrhs];
        for q in 0..nrhs {
            let xq: Vec<f64> = (0..n)
                .map(|i| 1.0 + ((i + 5 * q) % 7) as f64 * 0.4)
                .collect();
            let bq = ops::spmv(&a, &xq).unwrap();
            for i in 0..n {
                b[i * nrhs + q] = bq[i];
            }
        }
        let mut ws = KrylovWorkspace::with_nrhs(n, nrhs);
        let mut seq = Ssor::new(&sys, SweepEngine::Sequential);
        let mut pip = Ssor::new(&sys, SweepEngine::Split);
        let batch_seq = pcg.solve_batch(&sys, &mut seq, &b, nrhs, &mut ws).unwrap();
        let batch_pip = pcg.solve_batch(&sys, &mut pip, &b, nrhs, &mut ws).unwrap();
        assert!(batch_seq.converged.iter().all(|&c| c));
        assert_eq!(batch_seq.iterations, batch_pip.iterations);
        assert_eq!(batch_seq.x, batch_pip.x);
        let mut ws1 = KrylovWorkspace::new(n);
        for q in 0..nrhs {
            let bq: Vec<f64> = (0..n).map(|i| b[i * nrhs + q]).collect();
            let single = pcg.solve(&sys, &mut seq, &bq, &mut ws1).unwrap();
            assert_eq!(single.iterations, batch_seq.iterations[q]);
            for i in 0..n {
                assert_eq!(
                    batch_seq.x[i * nrhs + q],
                    single.x[i],
                    "lane {q} diverged from its standalone solve at row {i}"
                );
            }
        }
        for (pre, batch) in [(&mut seq, &batch_seq), (&mut pip, &batch_pip)] {
            let block = pcg.solve_block(&sys, pre, &b, nrhs, &mut ws).unwrap();
            assert_eq!(block.x, batch.x);
            assert_eq!(block.iterations, batch.iterations);
            assert_eq!(block.converged, batch.converged);
            assert_eq!(block.residual_norms, batch.residual_norms);
            assert_eq!(block.block_steps, batch.lockstep_iterations);
            assert_eq!(block.deflations, 0);
        }
    }

    #[test]
    fn mismatched_workspace_and_rhs_are_rejected() {
        let sys = laplacian_system(6, 6);
        let pcg = Pcg::new(2, Schedule::Static);
        let mut ws = KrylovWorkspace::new(sys.n());
        assert!(pcg.solve(&sys, &mut Identity, &[1.0; 3], &mut ws).is_err());
        let mut small = KrylovWorkspace::new(5);
        assert!(pcg
            .solve(&sys, &mut Identity, &vec![1.0; sys.n()], &mut small)
            .is_err());
        let b = vec![1.0; sys.n() * 2];
        assert!(pcg
            .solve_batch(&sys, &mut Identity, &b, 0, &mut ws)
            .is_err());
        assert!(pcg
            .solve_batch(&sys, &mut Identity, &b, 2, &mut ws)
            .is_err());
        assert!(pcg
            .solve_block(&sys, &mut Identity, &b[..5], 2, &mut ws)
            .is_err());
        // 36 · 2⁶² wraps to 0 = b.len(): the shape check must not wrap.
        assert_eq!(sys.n(), 36);
        assert!(matches!(
            pcg.solve_batch(&sys, &mut Identity, &[], 1 << 62, &mut ws),
            Err(MatrixError::DimensionMismatch(_))
        ));
    }
}
