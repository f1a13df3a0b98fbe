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
    /// Wall time of the whole solve, integer nanoseconds — the one value
    /// every reporting layer (metrics lines, histograms, bench fields)
    /// reuses instead of re-deriving its own.
    pub wall_ns: u64,
    /// Wall time inside preconditioner applications, integer nanoseconds.
    pub precond_ns: u64,
}

impl PcgOutcome {
    /// Fraction of the solve spent applying the preconditioner — the share
    /// of end-to-end time the triangular kernels own.
    pub fn precond_share(&self) -> f64 {
        if self.wall_ns > 0 {
            self.precond_ns as f64 / self.wall_ns as f64
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
    /// Per-system iteration at which the system converged or stopped on a
    /// breakdown (the lockstep count for systems still active at the
    /// iteration bound).
    pub iterations: Vec<usize>,
    /// Per-system convergence flags.
    pub converged: Vec<bool>,
    /// Per-system final `‖r‖₂`.
    pub residual_norms: Vec<f64>,
    /// Lockstep iterations performed (every active system advances
    /// together; a converged or stopped system is frozen, not dropped, so
    /// the batch kernels keep their full width).
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
/// policy. It has one CG loop, the lockstep loop of [`Pcg::solve_batch`];
/// [`Pcg::solve`] runs it at one lane.
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

    /// Solves `A x = b` (original numbering) with preconditioned CG: the
    /// lockstep loop of [`Pcg::solve_batch`] at one lane, with the residual
    /// history, the preconditioner's share of the wall time and the
    /// metrics-registry observations on top.
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
        let start = Instant::now();
        // Grown as it is pushed, never sized from `max_iterations`: that
        // bound is whatever the caller (or a wire request) asked for.
        let mut history = Vec::new();
        let recorded = self.options.record_history.then_some(&mut history);
        let (out, precond) = self.lockstep(sys, pre, b, 1, ws, recorded)?;
        let wall = start.elapsed();
        let outcome = PcgOutcome {
            x: out.x,
            iterations: out.iterations[0],
            converged: out.converged[0],
            residual_norm: out.residual_norms[0],
            history,
            wall_ns: wall.as_nanos() as u64,
            precond_ns: precond.as_nanos() as u64,
        };
        if let Some(reg) = &self.metrics {
            reg.counter("pcg_solves_total").inc();
            reg.histogram("pcg_iterations")
                .observe(outcome.iterations as u64);
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
    ///
    /// Each lane is active, converged or stopped. A lane stops on a
    /// breakdown: `r·z = 0` past the first iteration (the next `β` would
    /// divide by it), or a non-finite `α`. Converged and stopped lanes
    /// take no further step, so they keep their `x` and `r` bit for bit, and
    /// the loop ends when no lane is active. Lane `q`'s sums follow exactly
    /// the `nrhs = 1` order, so every lane is bitwise equal to
    /// [`Pcg::solve`] on its right-hand side, at every thread count. After
    /// warm-up, a lockstep iteration performs no heap allocation.
    pub fn solve_batch(
        &self,
        sys: &SpdSystem,
        pre: &mut dyn Preconditioner,
        b: &[f64],
        nrhs: usize,
        ws: &mut KrylovWorkspace,
    ) -> Result<PcgBatchOutcome> {
        Ok(self.lockstep(sys, pre, b, nrhs, ws, None)?.0)
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

    /// The CG iteration, every lane of `b` in lockstep (see
    /// [`Pcg::solve_batch`]); `history`, when given, receives every lane's
    /// `‖r‖₂` at entry and after each step. Returns the outcome and the wall
    /// time spent in the preconditioner.
    fn lockstep(
        &self,
        sys: &SpdSystem,
        pre: &mut dyn Preconditioner,
        b: &[f64],
        nrhs: usize,
        ws: &mut KrylovWorkspace,
        mut history: Option<&mut Vec<f64>>,
    ) -> Result<(PcgBatchOutcome, Duration)> {
        check_shapes(sys, b, nrhs, ws)?;
        // With x₀ = 0 the initial residual *is* the gathered right-hand
        // side, so it lands directly in r.
        sys.gather_batch_into(b, &mut ws.r, nrhs);
        ws.x.fill(0.0);
        let mut rnorm: Vec<f64> = self
            .solver
            .dots(&ws.r, &ws.r, &mut ws.sums)?
            .iter()
            .map(|s| s.sqrt())
            .collect();
        // A NaN or infinite right-hand side: every comparison against the
        // threshold would be silently false. Name it instead of iterating on
        // poison.
        check_finite_norms(&rnorm, 0)?;
        let thresholds: Vec<f64> = rnorm
            .iter()
            .map(|&bn| self.options.tolerance.threshold(bn))
            .collect();
        let mut active: Vec<bool> = rnorm.iter().zip(&thresholds).map(|(r, t)| r > t).collect();
        // A lane's count is stamped when it leaves the active set; a lane
        // converged at entry keeps 0.
        let mut iterations = vec![0usize; nrhs];
        if let Some(h) = history.as_deref_mut() {
            h.extend_from_slice(&rnorm);
        }
        let (mut rz, mut beta, mut alpha) = (vec![0.0; nrhs], vec![0.0; nrhs], vec![0.0; nrhs]);
        let mut precond = Duration::ZERO;
        let mut steps = 0usize;
        while steps < self.options.max_iterations && active.contains(&true) {
            let t0 = Instant::now();
            pre.apply_batch_into(&self.solver, &ws.r, &mut ws.z, &mut ws.sweep, nrhs)?;
            precond += t0.elapsed();
            let rz_new = self.solver.dots(&ws.r, &ws.z, &mut ws.sums)?;
            for q in 0..nrhs {
                if active[q] && steps > 0 && rz[q] == 0.0 {
                    // A stagnated preconditioned residual (an exactly
                    // converged system iterated past convergence, or an
                    // indefinite preconditioner): `rz_new / rz` would poison
                    // p with ±∞ and, one 0·∞ alpha later, x with NaN.
                    active[q] = false;
                    iterations[q] = steps;
                }
                beta[q] = if active[q] && steps > 0 {
                    rz_new[q] / rz[q]
                } else {
                    0.0
                };
                rz[q] = rz_new[q];
            }
            if !active.contains(&true) {
                break;
            }
            if steps == 0 {
                ws.p.copy_from_slice(&ws.z);
            } else {
                self.solver.update_direction(&ws.z, &beta, &mut ws.p)?;
            }
            let pap = self
                .solver
                .spmv_dots(sys.structure(), &ws.p, &mut ws.ap, &mut ws.sums)?;
            for q in 0..nrhs {
                let a = rz[q] / pap[q];
                if active[q] && !a.is_finite() {
                    // Breakdown (indefinite operator or preconditioner).
                    active[q] = false;
                    iterations[q] = steps;
                }
                // NaN is cg_step's "no step": an inactive lane's x and r
                // stay as they are.
                alpha[q] = if active[q] { a } else { f64::NAN };
            }
            if !active.contains(&true) {
                break;
            }
            let rr =
                self.solver
                    .cg_step(&alpha, &ws.p, &ws.ap, &mut ws.x, &mut ws.r, &mut ws.sums)?;
            steps += 1;
            for (r, &s) in rnorm.iter_mut().zip(rr) {
                *r = s.sqrt();
            }
            // A non-finite value slipped into the recurrence past the alpha
            // guard: name the iteration rather than loop on NaN to the bound.
            check_finite_norms(&rnorm, steps)?;
            for q in 0..nrhs {
                if active[q] && rnorm[q] <= thresholds[q] {
                    active[q] = false;
                    iterations[q] = steps;
                }
            }
            if let Some(h) = history.as_deref_mut() {
                h.extend_from_slice(&rnorm);
            }
        }
        // Lanes still active ran to the bound.
        for (it, &a) in iterations.iter_mut().zip(&active) {
            if a {
                *it = steps;
            }
        }
        let mut x = vec![0.0; sys.n() * nrhs];
        sys.scatter_batch_into(&ws.x, &mut x, nrhs);
        let converged = rnorm.iter().zip(&thresholds).map(|(r, t)| r <= t).collect();
        let outcome = PcgBatchOutcome {
            x,
            iterations,
            converged,
            residual_norms: rnorm,
            lockstep_iterations: steps,
        };
        Ok((outcome, precond))
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
        let mut ssor = Ssor::new(&sys);
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
        assert!(with_ssor.precond_ns > 0);
        assert!(with_ssor.precond_share() > 0.0 && with_ssor.precond_share() < 1.0);
    }

    #[test]
    fn one_thread_and_many_thread_solves_take_identical_iteration_counts() {
        // The acceptance invariant: every thread count runs the same per-row
        // arithmetic and the same blocked reductions, so the iterate
        // sequences — and hence the counts — are identical, not merely close.
        let sys = laplacian_system(20, 20);
        let a = generators::grid2d_laplacian(20, 20).unwrap();
        let b = ops::spmv(&a, &vec![1.0; sys.n()]).unwrap();
        let one = Pcg::new(1, Schedule::Static);
        let many = Pcg::new(4, Schedule::Guided { min_chunk: 1 });
        let mut ws = KrylovWorkspace::new(sys.n());
        let mut pre = Ssor::new(&sys);
        let out_one = one.solve(&sys, &mut pre, &b, &mut ws).unwrap();
        let out_many = many.solve(&sys, &mut pre, &b, &mut ws).unwrap();
        assert!(out_one.converged && out_many.converged);
        assert_eq!(out_one.iterations, out_many.iterations);
        assert_eq!(out_one.history, out_many.history, "bitwise-identical paths");
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
        let mut pre = Ssor::new(&sys);
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

    /// A preconditioner manufactured to stagnate one lane: `z = r` on every
    /// lane but `lane`, which from the second application on gets a `z`
    /// *exactly* orthogonal to its `r` (so its `rz` lands on 0.0 while its
    /// residual is still alive) — the shape that used to drive
    /// `beta = rz_new / 0` to ±∞ and then `x += (0·∞) · p` to NaN.
    struct StagnatingPre {
        lane: usize,
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
            nrhs: usize,
        ) -> crate::Result<()> {
            z.copy_from_slice(r);
            if self.calls >= 1 {
                // z ⊥ r exactly: dot(r, z) = r₀·r₁ − r₁·r₀ = 0.0 in floating
                // point (the two products are bitwise equal).
                let q = self.lane;
                for zi in z.iter_mut().skip(q).step_by(nrhs) {
                    *zi = 0.0;
                }
                z[q] = r[nrhs + q];
                z[nrhs + q] = -r[q];
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
        let mut pre = StagnatingPre { lane: 0, calls: 0 };
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
    fn a_stagnated_lane_stops_while_the_others_run_on() {
        // Lane 1 of the batch stagnates at iteration 1 and stops there, as
        // the one-lane solve of its right-hand side does; it keeps its x
        // while lanes 0 and 2 run on to convergence, bitwise as their own
        // solves.
        let sys = laplacian_system(9, 11);
        let a = generators::grid2d_laplacian(9, 11).unwrap();
        let (n, nrhs) = (sys.n(), 3);
        let mut b = vec![0.0; n * nrhs];
        for q in 0..nrhs {
            let xq: Vec<f64> = (0..n)
                .map(|i| ((i * 7919 + q * 31) % 23) as f64 - 11.0)
                .collect();
            for (i, v) in ops::spmv(&a, &xq).unwrap().into_iter().enumerate() {
                b[i * nrhs + q] = v;
            }
        }
        let pcg = Pcg::new(2, Schedule::Static);
        let mut ws = KrylovWorkspace::with_nrhs(n, nrhs);
        let mut pre = StagnatingPre { lane: 1, calls: 0 };
        let batch = pcg.solve_batch(&sys, &mut pre, &b, nrhs, &mut ws).unwrap();
        assert!(
            batch.lockstep_iterations < pcg.options().max_iterations,
            "the stopped lane must not hold the batch to the iteration bound"
        );
        assert_eq!(batch.converged, [true, false, true]);
        assert_eq!(batch.iterations[1], 2);
        let mut ws1 = KrylovWorkspace::new(n);
        for q in 0..nrhs {
            let bq: Vec<f64> = (0..n).map(|i| b[i * nrhs + q]).collect();
            let single = if q == 1 {
                let mut pre = StagnatingPre { lane: 0, calls: 0 };
                pcg.solve(&sys, &mut pre, &bq, &mut ws1).unwrap()
            } else {
                pcg.solve(&sys, &mut Identity, &bq, &mut ws1).unwrap()
            };
            assert_eq!(batch.iterations[q], single.iterations, "lane {q}");
            assert_eq!(batch.converged[q], single.converged, "lane {q}");
            assert_eq!(
                batch.residual_norms[q].to_bits(),
                single.residual_norm.to_bits(),
                "lane {q}"
            );
            for i in 0..n {
                assert_eq!(
                    batch.x[i * nrhs + q].to_bits(),
                    single.x[i].to_bits(),
                    "lane {q} diverged from its standalone solve at row {i}"
                );
            }
        }
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
    fn block_solve_is_the_lockstep_batch_solve_at_every_thread_count() {
        // Batched lockstep solves run on a one-thread solver with iterates
        // bitwise identical to a two-thread one, every lane equals its
        // standalone solve, and `solve_block` reports that same solve under
        // the block field names.
        let sys = laplacian_system(10, 13);
        let a = generators::grid2d_laplacian(10, 13).unwrap();
        let n = sys.n();
        let nrhs = 2;
        let one = Pcg::new(1, Schedule::Static);
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
        let mut pre = Ssor::new(&sys);
        let batch_one = one.solve_batch(&sys, &mut pre, &b, nrhs, &mut ws).unwrap();
        let batch_two = pcg.solve_batch(&sys, &mut pre, &b, nrhs, &mut ws).unwrap();
        assert!(batch_one.converged.iter().all(|&c| c));
        assert_eq!(batch_one.iterations, batch_two.iterations);
        assert_eq!(batch_one.x, batch_two.x);
        let mut ws1 = KrylovWorkspace::new(n);
        for q in 0..nrhs {
            let bq: Vec<f64> = (0..n).map(|i| b[i * nrhs + q]).collect();
            let single = pcg.solve(&sys, &mut pre, &bq, &mut ws1).unwrap();
            assert_eq!(single.iterations, batch_two.iterations[q]);
            for i in 0..n {
                assert_eq!(
                    batch_two.x[i * nrhs + q],
                    single.x[i],
                    "lane {q} diverged from its standalone solve at row {i}"
                );
            }
        }
        for (solver, batch) in [(&one, &batch_one), (&pcg, &batch_two)] {
            let block = solver
                .solve_block(&sys, &mut pre, &b, nrhs, &mut ws)
                .unwrap();
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
