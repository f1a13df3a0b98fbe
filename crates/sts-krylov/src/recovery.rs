//! The recovery ladder: graceful degradation for breakdown-prone
//! preconditioning.
//!
//! IC(0) exists for every M-matrix, but a merely-SPD operand can drive a
//! pivot of the incomplete factorization negative
//! ([`MatrixError::FactorizationBreakdown`]) even though exact Cholesky
//! would succeed — the classical Kershaw counterexample. A production
//! solver must not surface that as a hard failure when a slightly weaker
//! preconditioner finishes the job. [`RobustPcg`] climbs a ladder instead:
//!
//! 1. **IC(0)** on `A` itself — the fast path, identical to
//!    [`Ic0::new`];
//! 2. **row-boosted IC(0)** ([`Ic0Operand::RowBoosted`]): the breakdown
//!    reports exactly which pivot went non-positive
//!    ([`MatrixError::FactorizationBreakdown`]`::row`), so before touching
//!    the whole diagonal the ladder boosts *only that row's* diagonal under
//!    escalating boosts — a far smaller perturbation of the
//!    preconditioner, so convergence barely degrades when it works
//!    (Kershaw's counterexample factors with a single boosted pivot);
//! 3. **shifted IC(0)** on `A + α·diag(A)` under escalating α
//!    ([`Ic0Operand::Shifted`], Manteuffel's shift): each rung is a strictly
//!    more diagonally dominant operand, so a large enough α always
//!    factors;
//! 4. **SSOR** — no factorization at all, cannot break down at setup;
//! 5. **Identity** — plain CG, the unconditional last resort.
//!
//! Every attempt — failed or final — is recorded in a [`RecoveryReport`],
//! so degradation is *observable*: the caller learns which rung converged,
//! which shifts were burned, and how many iterations the descent cost,
//! instead of silently getting a slower solve. Only *breakdown-shaped*
//! errors descend the ladder ([`MatrixError::FactorizationBreakdown`] at
//! setup, [`MatrixError::NonFiniteResidual`] during the iteration);
//! structural errors (dimension mismatches, worker panics, timeouts)
//! propagate immediately — retrying cannot fix those, and masking them
//! would hide real faults.
//!
//! The rung order lives in one place (`descend`). Its two callers differ
//! only in when a rung counts as accepted: [`build_ladder_preconditioner`]
//! accepts a rung whose setup succeeds, [`RobustPcg`] one whose setup *and*
//! solve succeed.

use sts_core::{ParallelSolver, PrecisionPolicy};
use sts_matrix::MatrixError;

use crate::pcg::{Pcg, PcgBatchOutcome, PcgOutcome};
use crate::precond::{Ic0, Ic0Operand, Identity, Preconditioner, Ssor, SweepEngine};
use crate::system::SpdSystem;
use crate::workspace::KrylovWorkspace;
use crate::Result;

/// Which rungs the ladder may visit, and in what strength order.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Escalating single-row diagonal boosts tried on the exact row
    /// [`MatrixError::FactorizationBreakdown`] reported, before any
    /// whole-diagonal shift ([`Ic0Operand::RowBoosted`]). Empty disables
    /// the rung.
    pub row_boosts: Vec<f64>,
    /// Escalating Manteuffel shifts tried after the unshifted (and
    /// row-boosted) factorizations break down.
    pub shifts: Vec<f64>,
    /// Whether the ladder may degrade past shifted IC(0) to SSOR.
    pub allow_ssor: bool,
    /// Whether the ladder may degrade all the way to plain CG.
    pub allow_identity: bool,
    /// The sweep engine every rung's preconditioner runs on.
    pub engine: SweepEngine,
    /// The value-slab precision every rung's preconditioner sweeps with
    /// ([`Preconditioner::set_precision`]).
    pub precision: PrecisionPolicy,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            row_boosts: vec![1e-2, 1.0],
            shifts: vec![1e-3, 1e-2, 1e-1, 1.0],
            allow_ssor: true,
            allow_identity: true,
            engine: SweepEngine::Split,
            precision: PrecisionPolicy::ValuesF64,
        }
    }
}

/// One rung the ladder tried and abandoned.
#[derive(Debug, Clone)]
pub struct RecoveryAttempt {
    /// The rung's preconditioner label ("ic0", "ic0-rowboost",
    /// "ic0-shifted", "ssor", "none").
    pub preconditioner: &'static str,
    /// The Manteuffel shift of the rung — or, on "ic0-rowboost" rungs,
    /// the single-row boost (0.0 off both).
    pub shift: f64,
    /// Why the rung was abandoned.
    pub error: MatrixError,
    /// Iterations the rung consumed before failing (0 for setup-time
    /// breakdowns).
    pub iterations: usize,
}

/// What the descent looked like: every abandoned rung, plus where the
/// ladder came to rest.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The rungs tried and abandoned, in order. Empty when the fast path
    /// succeeded.
    pub attempts: Vec<RecoveryAttempt>,
    /// The shifts whose factorizations were attempted (successful final
    /// rung included).
    pub shifts_tried: Vec<f64>,
    /// Label of the preconditioner that produced the returned outcome.
    pub final_preconditioner: &'static str,
    /// The shift of the final rung — or its single-row boost when
    /// `final_preconditioner` is "ic0-rowboost" (0.0 when unshifted).
    pub final_shift: f64,
    /// Whether the returned outcome came from anything but the fast path.
    pub degraded: bool,
    /// Iterations consumed by abandoned rungs — the descent's cost on top
    /// of the final solve's own count.
    pub extra_iterations: usize,
}

/// A solve outcome ([`PcgOutcome`] or [`PcgBatchOutcome`]) plus the story of
/// how it was obtained. A batch descends together: a breakdown on any system
/// restarts the whole iteration on the next rung.
#[derive(Debug, Clone)]
pub struct Robust<O> {
    /// The final rung's solve outcome.
    pub outcome: O,
    /// The descent record.
    pub report: RecoveryReport,
}

/// A preconditioner produced by climbing the setup-time rungs of the
/// recovery ladder ([`build_ladder_preconditioner`]): whichever rung's setup
/// succeeded first, behind one concrete type so callers (e.g. a factor
/// cache) can store it without boxing.
#[derive(Debug)]
pub enum LadderPreconditioner {
    /// An IC(0) factor (possibly Manteuffel-shifted) whose setup succeeded.
    Ic0(Ic0),
    /// The SSOR fallback — no factorization, setup cannot break down.
    Ssor(Ssor),
    /// Plain CG, the unconditional last resort.
    Identity(Identity),
}

impl LadderPreconditioner {
    fn inner(&self) -> &dyn Preconditioner {
        match self {
            LadderPreconditioner::Ic0(p) => p,
            LadderPreconditioner::Ssor(p) => p,
            LadderPreconditioner::Identity(p) => p,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn Preconditioner {
        match self {
            LadderPreconditioner::Ic0(p) => p,
            LadderPreconditioner::Ssor(p) => p,
            LadderPreconditioner::Identity(p) => p,
        }
    }
}

impl Preconditioner for LadderPreconditioner {
    fn label(&self) -> &'static str {
        self.inner().label()
    }

    fn apply_batch_into(
        &mut self,
        solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        sweep: &mut [f64],
        nrhs: usize,
    ) -> Result<()> {
        self.inner_mut().apply_batch_into(solver, r, z, sweep, nrhs)
    }

    fn set_precision(&mut self, precision: PrecisionPolicy) {
        self.inner_mut().set_precision(precision);
    }

    fn precision(&self) -> PrecisionPolicy {
        self.inner().precision()
    }
}

/// One rung of the ladder, in the order [`descend`] visits them.
#[derive(Debug, Clone, Copy)]
enum Rung {
    /// IC(0) on `A` itself.
    Plain,
    /// IC(0) with the reported breakdown row's diagonal boosted.
    RowBoost(f64),
    /// IC(0) on `A + α·diag(A)`.
    Shift(f64),
    /// SSOR — setup cannot break down.
    Ssor,
    /// Plain CG.
    Identity,
}

/// Walks the ladder: builds each permitted rung's preconditioner in order,
/// switches it to the policy's precision and hands it to `accept`; the first
/// rung `accept` returns `Ok` for is where the ladder rests.
/// Breakdown-shaped failures — at setup or inside `accept` — are recorded
/// and descend; structural failures propagate immediately.
fn descend<T>(
    sys: &SpdSystem,
    solver: &ParallelSolver,
    policy: &RecoveryPolicy,
    accept: &mut dyn FnMut(LadderPreconditioner) -> Result<T>,
) -> Result<(T, RecoveryReport)> {
    let rungs = std::iter::once(Rung::Plain)
        .chain(policy.row_boosts.iter().map(|&beta| Rung::RowBoost(beta)))
        .chain(policy.shifts.iter().map(|&alpha| Rung::Shift(alpha)))
        .chain(policy.allow_ssor.then_some(Rung::Ssor))
        .chain(policy.allow_identity.then_some(Rung::Identity));
    let ic0 = |operand: Ic0Operand| {
        Ic0::with_operand(sys, solver, policy.engine, operand).map(LadderPreconditioner::Ic0)
    };
    let mut attempts: Vec<RecoveryAttempt> = Vec::new();
    let mut shifts_tried: Vec<f64> = Vec::new();
    // The pivot row the first factorization breakdown named: the row-boost
    // rungs target it, and are skipped when no setup has broken down.
    let mut breakdown_row: Option<usize> = None;
    for rung in rungs {
        let (label, shift, built) = match rung {
            Rung::Plain => ("ic0", 0.0, ic0(Ic0Operand::Plain)),
            Rung::RowBoost(alpha) => match breakdown_row {
                Some(row) => (
                    "ic0-rowboost",
                    alpha,
                    ic0(Ic0Operand::RowBoosted { row, alpha }),
                ),
                None => continue,
            },
            Rung::Shift(alpha) => ("ic0-shifted", alpha, ic0(Ic0Operand::Shifted(alpha))),
            Rung::Ssor => (
                "ssor",
                0.0,
                Ok(LadderPreconditioner::Ssor(Ssor::new(sys, policy.engine))),
            ),
            Rung::Identity => ("none", 0.0, Ok(LadderPreconditioner::Identity(Identity))),
        };
        if matches!(rung, Rung::Plain | Rung::Shift(_)) {
            shifts_tried.push(shift);
        }
        let accepted = built.and_then(|mut pre| {
            pre.set_precision(policy.precision);
            accept(pre)
        });
        let error = match accepted {
            Ok(value) => {
                let extra_iterations = attempts.iter().map(|a| a.iterations).sum();
                let report = RecoveryReport {
                    degraded: !attempts.is_empty(),
                    attempts,
                    shifts_tried,
                    final_preconditioner: label,
                    final_shift: shift,
                    extra_iterations,
                };
                return Ok((value, report));
            }
            Err(e) => e,
        };
        // Only breakdown-shaped errors — fixable by a weaker preconditioner
        // — descend; structural ones (wrong sizes, poisoned pool, timeout)
        // a different preconditioner cannot cure.
        let iterations = match error {
            MatrixError::FactorizationBreakdown { row, .. } => {
                breakdown_row.get_or_insert(row);
                0
            }
            MatrixError::NonFiniteResidual { iteration } => iteration,
            _ => return Err(error),
        };
        attempts.push(RecoveryAttempt {
            preconditioner: label,
            shift,
            error,
            iterations,
        });
    }
    // Every permitted rung broke down. Surface the last breakdown.
    Err(attempts.pop().map(|a| a.error).unwrap_or_else(|| {
        MatrixError::InvalidParameter("recovery ladder has no permitted rungs".into())
    }))
}

/// Climbs the *setup-time* rungs of the ladder without running a solve:
/// IC(0), row-boosted and shifted IC(0) under the policy's escalating
/// values, then SSOR / Identity if permitted. Returns the first rung whose
/// setup succeeded plus a [`RecoveryReport`] of the setup breakdowns burned
/// on the way down.
///
/// This is the factor-cache entry point: a solver service factors once at
/// value-submission time and then reuses the returned preconditioner across
/// many solves, so setup-time degradation must be decided (and reported)
/// once, up front. Iteration-time breakdowns
/// ([`MatrixError::NonFiniteResidual`]) can of course still surface later;
/// only the full [`RobustPcg`] entry points descend on those.
pub fn build_ladder_preconditioner(
    sys: &SpdSystem,
    solver: &ParallelSolver,
    policy: &RecoveryPolicy,
) -> Result<(LadderPreconditioner, RecoveryReport)> {
    descend(sys, solver, policy, &mut Ok)
}

/// The fault-tolerant PCG driver: [`Pcg`] plus the recovery ladder.
pub struct RobustPcg {
    pcg: Pcg,
    policy: RecoveryPolicy,
}

impl RobustPcg {
    /// Wraps `pcg` with the default policy (four escalating shifts, SSOR
    /// and Identity both allowed).
    pub fn new(pcg: Pcg) -> Self {
        RobustPcg {
            pcg,
            policy: RecoveryPolicy::default(),
        }
    }

    /// Wraps `pcg` with an explicit policy.
    pub fn with_policy(pcg: Pcg, policy: RecoveryPolicy) -> Self {
        RobustPcg { pcg, policy }
    }

    /// The wrapped driver.
    pub fn pcg(&self) -> &Pcg {
        &self.pcg
    }

    /// The wrapped driver, mutably (fault hooks, span recorders).
    pub fn pcg_mut(&mut self) -> &mut Pcg {
        &mut self.pcg
    }

    /// The ladder policy.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Solves `A x = b`, descending the ladder on breakdown. Returns the
    /// first rung's outcome that produced a clean solve (converged or
    /// not), together with the [`RecoveryReport`]. Errs only when every
    /// permitted rung failed with a breakdown-shaped error, or any rung
    /// failed with a structural one.
    pub fn solve(
        &self,
        sys: &SpdSystem,
        b: &[f64],
        ws: &mut KrylovWorkspace,
    ) -> Result<Robust<PcgOutcome>> {
        self.run(sys, &mut |pre| self.pcg.solve(sys, pre, b, ws))
    }

    /// Solves `nrhs` systems at once ([`Pcg::solve_batch`]) behind the
    /// ladder. The lockstep batch shares one preconditioner, so a breakdown
    /// on any system descends the whole batch to the next rung and restarts
    /// the lockstep iteration there; abandoned-rung iteration counts land in
    /// [`RecoveryReport::extra_iterations`] as usual.
    pub fn solve_batch(
        &self,
        sys: &SpdSystem,
        b: &[f64],
        nrhs: usize,
        ws: &mut KrylovWorkspace,
    ) -> Result<Robust<PcgBatchOutcome>> {
        self.run(sys, &mut |pre| self.pcg.solve_batch(sys, pre, b, nrhs, ws))
    }

    /// Descends the ladder with `solve` (one of the [`Pcg`] entries)
    /// as the acceptance test of each rung, and feeds the descent into the
    /// wrapped driver's metrics registry (if one is installed): every
    /// abandoned rung counts one `pcg_recovery_rungs_total` — the trend
    /// line a weakening default shift schedule shows up on first.
    fn run<O>(
        &self,
        sys: &SpdSystem,
        solve: &mut dyn FnMut(&mut dyn Preconditioner) -> Result<O>,
    ) -> Result<Robust<O>> {
        let (outcome, report) = descend(sys, self.pcg.solver(), &self.policy, &mut |mut pre| {
            solve(&mut pre)
        })?;
        if !report.attempts.is_empty() {
            if let Some(reg) = self.pcg.metrics_registry() {
                reg.counter("pcg_recovery_rungs_total")
                    .add(report.attempts.len() as u64);
            }
        }
        Ok(Robust { outcome, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_core::Method;
    use sts_matrix::{generators, ops};
    use sts_numa::Schedule;

    #[test]
    fn clean_system_takes_the_fast_path_with_an_empty_report() {
        let a = generators::grid2d_laplacian(12, 12).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let b = ops::spmv(&a, &vec![1.0; sys.n()]).unwrap();
        let robust = RobustPcg::new(Pcg::new(2, Schedule::Guided { min_chunk: 1 }));
        let mut ws = KrylovWorkspace::new(sys.n());
        let out = robust.solve(&sys, &b, &mut ws).unwrap();
        assert!(out.outcome.converged);
        assert!(!out.report.degraded);
        assert!(out.report.attempts.is_empty());
        assert_eq!(out.report.final_preconditioner, "ic0");
        assert_eq!(out.report.final_shift, 0.0);
        assert_eq!(out.report.extra_iterations, 0);
        assert_eq!(out.report.shifts_tried, vec![0.0]);
    }

    #[test]
    fn batch_entry_descends_the_ladder() {
        let a = generators::grid2d_laplacian(10, 10).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let nrhs = 3;
        let mut b = vec![0.0; sys.n() * nrhs];
        for (k, slot) in b.iter_mut().enumerate() {
            *slot = 1.0 + (k % 7) as f64;
        }
        let robust = RobustPcg::new(Pcg::new(2, Schedule::Guided { min_chunk: 1 }));
        let mut ws = KrylovWorkspace::with_nrhs(sys.n(), nrhs);
        let batch = robust.solve_batch(&sys, &b, nrhs, &mut ws).unwrap();
        assert!(batch.outcome.converged.iter().all(|&c| c));
        assert!(!batch.report.degraded);
        assert_eq!(batch.report.final_preconditioner, "ic0");
        // The batch entry surfaces structural errors (wrong-size B)
        // without descending, like the scalar entry.
        let e = robust
            .solve_batch(&sys, &b[..5], nrhs, &mut ws)
            .unwrap_err();
        assert!(matches!(e, MatrixError::DimensionMismatch(_)));
    }

    #[test]
    fn setup_ladder_builds_the_fast_path_on_a_clean_operand() {
        let a = generators::grid2d_laplacian(9, 9).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let pcg = Pcg::new(2, Schedule::Static);
        let (mut pre, report) =
            build_ladder_preconditioner(&sys, pcg.solver(), &RecoveryPolicy::default()).unwrap();
        assert_eq!(pre.label(), "ic0");
        assert!(!report.degraded);
        assert_eq!(report.shifts_tried, vec![0.0]);
        // The returned preconditioner drives an ordinary solve.
        let b = ops::spmv(&a, &vec![1.0; sys.n()]).unwrap();
        let mut ws = KrylovWorkspace::new(sys.n());
        let out = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
        assert!(out.converged);
    }

    #[test]
    fn setup_ladder_with_no_rungs_is_rejected() {
        let a = generators::grid2d_laplacian(6, 6).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let pcg = Pcg::new(1, Schedule::Static);
        let policy = RecoveryPolicy {
            shifts: vec![],
            row_boosts: vec![],
            allow_ssor: false,
            allow_identity: false,
            engine: SweepEngine::Sequential,
            ..RecoveryPolicy::default()
        };
        // IC(0) itself still runs (the Laplacian factors), so this succeeds…
        let (pre, _) = build_ladder_preconditioner(&sys, pcg.solver(), &policy).unwrap();
        assert_eq!(pre.label(), "ic0");
    }

    #[test]
    fn structural_errors_do_not_descend_the_ladder() {
        let a = generators::grid2d_laplacian(8, 8).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let robust = RobustPcg::new(Pcg::new(2, Schedule::Static));
        let mut ws = KrylovWorkspace::new(sys.n());
        // Wrong-length b: a DimensionMismatch must propagate, not trigger
        // an SSOR retry that would also fail confusingly.
        let e = robust.solve(&sys, &[1.0; 3], &mut ws).unwrap_err();
        assert!(matches!(e, MatrixError::DimensionMismatch(_)));
    }

    #[test]
    fn ladder_with_no_rungs_is_rejected() {
        let a = generators::grid2d_laplacian(6, 6).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        // A policy that forbids every fallback still runs IC(0) itself.
        let policy = RecoveryPolicy {
            shifts: vec![],
            row_boosts: vec![],
            allow_ssor: false,
            allow_identity: false,
            engine: SweepEngine::Sequential,
            ..RecoveryPolicy::default()
        };
        let robust = RobustPcg::with_policy(Pcg::new(1, Schedule::Static), policy);
        let b = vec![1.0; sys.n()];
        let mut ws = KrylovWorkspace::new(sys.n());
        // The Laplacian factors fine, so the fast path still succeeds.
        let out = robust.solve(&sys, &b, &mut ws).unwrap();
        assert!(out.outcome.converged);
        assert!(!out.report.degraded);
    }
}
