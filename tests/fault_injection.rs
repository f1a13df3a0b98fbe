//! Chaos suite: every injected fault must yield a structured error or a
//! successful recovery — never a hang, never a NaN result — within a
//! bounded wall-clock budget, at every thread count.
//!
//! The faults come from `sts_bench::faultinject` (deterministic, seeded):
//! worker panics at a chosen pack, worker stalls, NaN values, and
//! SPD-breaking perturbations (both the validation-clean tiny-diagonal kind
//! and the genuinely-SPD Kershaw 4-cycle that only the row-boosted or
//! shifted IC(0) recovery rungs can handle).

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};

use sts_bench::faultinject;
use sts_k::core::{ChaosHook, Method, ParallelSolver, SolveOptions, SweepDirection};
use sts_k::krylov::{
    build_ladder_preconditioner, Ic0, Ic0Operand, KrylovWorkspace, Pcg, Preconditioner,
    RecoveryPolicy, RobustPcg, SpdSystem, SweepEngine,
};
use sts_k::matrix::{factor, generators, ops, MatrixError};
use sts_k::numa::{PoolError, Schedule, WorkerPool};

mod common;

use common::thread_counts;

/// Every chaos scenario must resolve inside this budget — generous enough
/// for a debug-profile CI host, far below "hung".
const BUDGET: Duration = Duration::from_secs(30);

/// Runs `f` and asserts it finished inside the chaos budget.
fn within_budget<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    assert!(
        elapsed < BUDGET,
        "{label} took {elapsed:?}, over the {BUDGET:?} chaos budget"
    );
    out
}

#[test]
fn pool_panic_is_a_structured_error_and_the_pool_survives() {
    for threads in thread_counts() {
        within_budget("pool panic", || {
            let pool = WorkerPool::new(threads);
            let err = pool
                .parallel_for(64, Schedule::Dynamic { chunk: 1 }, &|i| {
                    if i == 17 {
                        panic!("injected fault: body died at index {i}");
                    }
                })
                .expect_err("a panicking body must surface an error");
            let PoolError::WorkerPanicked {
                slot,
                pack,
                message,
            } = err;
            assert!(
                slot < threads,
                "slot {slot} out of range at {threads} threads"
            );
            assert_eq!(pack, 17);
            assert!(message.contains("injected fault"));
            // Poisoning is per-dispatch: the same pool runs the next job.
            let hits = AtomicUsize::new(0);
            pool.parallel_for(32, Schedule::Static, &|_| {
                hits.fetch_add(1, AtomicOrdering::SeqCst);
            })
            .expect("the pool must survive a panicked dispatch");
            assert_eq!(hits.into_inner(), 32);
        });
    }
}

#[test]
fn sweep_panic_is_structured_and_recovers() {
    let a = generators::grid2d_laplacian(24, 24).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let s = Method::Sts3.build(&l, 16).unwrap();
    // The failure path is the split driver's, whatever it drives: both
    // directions, single-RHS and batched.
    for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
        for nrhs in [1usize, 3] {
            let opts = SolveOptions::default()
                .with_direction(direction)
                .with_nrhs(nrhs);
            let b = vec![1.0; s.n() * nrhs];
            let reference = ParallelSolver::new(1, Schedule::Static)
                .solve_with(&s, &b, &opts)
                .unwrap();
            for threads in thread_counts() {
                within_budget("sweep panic", || {
                    let mut solver =
                        ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
                    solver.set_chaos_hook(Some(faultinject::panic_hook(0)));
                    let err = solver
                        .solve_with(&s, &b, &opts)
                        .expect_err("the injected panic must surface");
                    match err {
                        MatrixError::WorkerPanicked {
                            slot,
                            pack,
                            message,
                        } => {
                            assert!(slot < threads);
                            assert_eq!(pack, 0, "the panic site is deterministic");
                            assert!(message.contains("injected fault"));
                        }
                        other => panic!("expected WorkerPanicked, got {other:?}"),
                    }
                    // Clearing the hook restores a fully working solver:
                    // nothing leaks across dispatches.
                    solver.set_chaos_hook(None);
                    let x = solver
                        .solve_with(&s, &b, &opts)
                        .expect("solver must recover");
                    assert!(
                        ops::relative_error_inf(&x, &reference) < 1e-12,
                        "post-fault {direction:?} nrhs={nrhs} solve diverged at {threads} threads"
                    );
                });
            }
        }
    }
}

#[test]
fn parallel_ic0_panic_is_a_structured_error() {
    let a = generators::grid2d_laplacian(20, 20).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 16).unwrap();
    let f_ref = factor::ic0(sys.matrix()).unwrap();
    for threads in thread_counts() {
        within_budget("ic0 panic", || {
            let mut solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
            solver.set_chaos_hook(Some(faultinject::panic_hook(0)));
            let err = solver
                .parallel_ic0(sys.structure(), sys.matrix())
                .expect_err("the injected panic must surface");
            match err {
                MatrixError::WorkerPanicked { slot, pack, .. } => {
                    assert!(slot < threads);
                    assert_eq!(pack, 0);
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
            solver.set_chaos_hook(None);
            let f = solver
                .parallel_ic0(sys.structure(), sys.matrix())
                .expect("setup must recover");
            assert_eq!(f.values(), f_ref.values(), "post-fault factor is exact");
        });
    }
}

#[test]
fn parallel_ic0_panic_is_reported_at_its_pack() {
    // The IC(0) build runs one dispatch per pack; a panic in a later pack
    // names that pack, and the solver still factors exactly afterwards.
    let a = generators::grid2d_laplacian(20, 20).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 16).unwrap();
    let last = sys.structure().num_packs() - 1;
    assert!(last > 0, "the fixture needs a second pack");
    let f_ref = factor::ic0(sys.matrix()).unwrap();
    for threads in thread_counts() {
        within_budget("ic0 late panic", || {
            let mut solver = ParallelSolver::new(threads, Schedule::Dynamic { chunk: 2 });
            solver.set_chaos_hook(Some(faultinject::panic_hook(last)));
            match solver.parallel_ic0(sys.structure(), sys.matrix()) {
                Err(MatrixError::WorkerPanicked {
                    slot,
                    pack,
                    message,
                }) => {
                    assert!(slot < threads);
                    assert_eq!(pack, last, "the panic is reported at its pack");
                    assert!(message.contains("injected fault"));
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
            solver.set_chaos_hook(None);
            let f = solver
                .parallel_ic0(sys.structure(), sys.matrix())
                .expect("setup must recover");
            assert_eq!(f.values(), f_ref.values(), "post-fault factor is exact");
        });
    }
}

#[test]
fn unsplit_solve_panic_is_reported_at_its_pack() {
    let a = generators::grid2d_laplacian(24, 24).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let s = Method::Sts3.build(&l, 16).unwrap();
    assert!(s.num_packs() > 1, "the fixture needs a second pack");
    let b = vec![1.0; s.n()];
    let reference = s.solve_sequential(&b).unwrap();
    for p in [0, s.num_packs() - 1] {
        for threads in thread_counts() {
            within_budget("unsplit solve panic", || {
                let mut solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
                solver.set_chaos_hook(Some(faultinject::panic_hook(p)));
                match solver.solve(&s, &b) {
                    Err(MatrixError::WorkerPanicked {
                        slot,
                        pack,
                        message,
                    }) => {
                        assert!(slot < threads);
                        assert_eq!(pack, p, "the panic is reported at its pack");
                        assert!(message.contains("injected fault"));
                    }
                    other => panic!("expected WorkerPanicked, got {other:?}"),
                }
                solver.set_chaos_hook(None);
                let x = solver.solve(&s, &b).expect("solver must recover");
                assert!(ops::relative_error_inf(&x, &reference) < 1e-12);
            });
        }
    }
}

#[test]
fn stalled_worker_is_a_slow_success() {
    // No kernel waits on a peer inside a dispatch, so a stalled worker only
    // holds back its dispatch's barrier: a slow success at every thread
    // count, for the sweeps and for the IC(0) build alike.
    let a = generators::grid2d_laplacian(16, 16).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let s = Method::Sts3.build(&l, 16).unwrap();
    let b = vec![1.0; s.n()];
    let reference = s.solve_sequential(&b).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 16).unwrap();
    let f_ref = factor::ic0(sys.matrix()).unwrap();
    for threads in thread_counts() {
        let mut solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
        solver.set_chaos_hook(Some(faultinject::stall_hook(
            0,
            0,
            Duration::from_millis(400),
        )));
        within_budget("stalled sweep", || {
            let x = solver
                .solve_with(&s, &b, &SolveOptions::default())
                .expect("a stalled sweep worker still finishes");
            assert!(
                ops::relative_error_inf(&x, &reference) < 1e-12,
                "stalled sweep diverged at {threads} threads"
            );
        });
        within_budget("stalled IC(0) build", || {
            let f = solver
                .parallel_ic0(sys.structure(), sys.matrix())
                .expect("a stalled IC(0) worker still finishes");
            assert_eq!(
                f.values(),
                f_ref.values(),
                "stalled IC(0) build diverged at {threads} threads"
            );
        });
    }
}

#[test]
fn nan_matrix_is_rejected_at_the_build_boundary() {
    within_budget("NaN operand", || {
        let mut a = generators::grid2d_laplacian(12, 12).unwrap();
        let sites = faultinject::inject_nan_values(&mut a, 2, 5);
        let err = SpdSystem::build(&a, Method::Sts3, 8)
            .expect_err("a NaN operand must be rejected before any kernel runs");
        match err {
            MatrixError::NonFinite { row, col, value } => {
                assert!(
                    sites.contains(&(row, col)),
                    "the error must name a poisoned site, got ({row}, {col})"
                );
                assert!(value.is_nan());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
    });
}

#[test]
fn nan_rhs_is_a_named_residual_error() {
    let a = generators::grid2d_laplacian(10, 10).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    within_budget("NaN rhs", || {
        let pcg = Pcg::new(2, Schedule::Static);
        let mut ws = KrylovWorkspace::new(sys.n());
        let mut b = vec![1.0; sys.n()];
        b[37] = f64::NAN;
        let err = pcg
            .solve(&sys, &mut sts_k::krylov::Identity, &b, &mut ws)
            .expect_err("a NaN right-hand side must be rejected");
        assert!(
            matches!(err, MatrixError::NonFiniteResidual { iteration: 0 }),
            "expected NonFiniteResidual at iteration 0, got {err:?}"
        );
    });
}

/// A preconditioner that starts returning NaN after a few clean
/// applications — the mid-iteration poisoning shape.
struct LatePoison {
    calls: usize,
}

impl Preconditioner for LatePoison {
    fn label(&self) -> &'static str {
        "late-poison"
    }

    fn apply_batch_into(
        &mut self,
        _solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        _sweep: &mut [f64],
        _nrhs: usize,
    ) -> sts_k::krylov::Result<()> {
        z.copy_from_slice(r);
        if self.calls >= 2 {
            z[0] = f64::NAN;
        }
        self.calls += 1;
        Ok(())
    }
}

#[test]
fn mid_solve_preconditioner_nan_never_reaches_the_iterate() {
    // A NaN emitted by the preconditioner mid-solve poisons the search
    // direction, so the very next step trips the alpha breakdown guard: the
    // solve stops with an honest non-converged outcome whose iterate kept
    // its last finite value. The NaN must never surface in `x` and the loop
    // must never spin on NaN until the iteration bound.
    let a = generators::grid2d_laplacian(10, 10).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    within_budget("late poison", || {
        let pcg = Pcg::new(2, Schedule::Static);
        let mut ws = KrylovWorkspace::new(sys.n());
        let x_rough: Vec<f64> = (0..sys.n())
            .map(|i| ((i * 7919) % 23) as f64 - 11.0)
            .collect();
        let b = ops::spmv(&a, &x_rough).unwrap();
        let mut pre = LatePoison { calls: 0 };
        let out = pcg
            .solve(&sys, &mut pre, &b, &mut ws)
            .expect("the alpha guard degrades gracefully, it does not error");
        assert!(!out.converged, "the poisoned solve cannot have converged");
        assert!(
            out.iterations < pcg.options().max_iterations,
            "the guard must stop the loop, not run it to the bound"
        );
        assert!(
            out.x.iter().all(|v| v.is_finite()),
            "the injected NaN leaked into the returned iterate"
        );
    });
}

#[test]
fn breakdown_error_is_identical_at_every_thread_count() {
    // The tiny-diagonal poison defeats IC(0) deterministically; the
    // level-scheduled setup must report the sequential reference's
    // breakdown — same row, bitwise-same pivot — at every worker count.
    let mut a = generators::grid2d_laplacian(14, 14).unwrap();
    faultinject::break_spd_diagonal(&mut a, 9);
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    let (row_ref, pivot_ref) = match factor::ic0(sys.matrix()) {
        Err(MatrixError::FactorizationBreakdown { row, pivot }) => (row, pivot),
        other => panic!("expected a breakdown, got {other:?}"),
    };
    for threads in thread_counts() {
        within_budget("breakdown parity", || {
            let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
            match solver.parallel_ic0(sys.structure(), sys.matrix()) {
                Err(MatrixError::FactorizationBreakdown { row, pivot }) => {
                    assert_eq!(row, row_ref, "breakdown row at {threads} threads");
                    assert_eq!(
                        pivot.to_bits(),
                        pivot_ref.to_bits(),
                        "breakdown pivot at {threads} threads"
                    );
                }
                other => panic!("expected a breakdown at {threads} threads, got {other:?}"),
            }
            // `Ic0` factors the structure's lower triangle, not the matrix,
            // and must stop at the same row with the same pivot.
            match Ic0::new(&sys, &solver, SweepEngine::Split) {
                Err(MatrixError::FactorizationBreakdown { row, pivot }) => {
                    assert_eq!(row, row_ref, "Ic0 breakdown row at {threads} threads");
                    assert_eq!(
                        pivot.to_bits(),
                        pivot_ref.to_bits(),
                        "Ic0 breakdown pivot at {threads} threads"
                    );
                }
                other => panic!("expected an Ic0 breakdown, got {:?}", other.err()),
            }
        });
    }
}

#[test]
fn shifted_ic0_matches_the_reference_factor_across_the_ladder() {
    let a = generators::grid2d_laplacian(16, 16).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    let lower = sys.structure().lower();
    for threads in thread_counts() {
        within_budget("shifted parity", || {
            let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
            for alpha in [1e-3, 1e-1, 1.0] {
                // The sequential reference on the shifted lower triangle:
                // every diagonal (each row's last entry) scaled by 1 + α.
                let mut want = lower.values().to_vec();
                for &end in &lower.row_ptr()[1..] {
                    want[end - 1] *= 1.0 + alpha;
                }
                factor::ic0_in_place(lower.row_ptr(), lower.col_idx(), &mut want).unwrap();
                let want = sys
                    .structure()
                    .with_operand(lower.with_values(want).unwrap())
                    .unwrap();
                let operand = Ic0Operand::Shifted(alpha);
                let mut pre = Ic0::with_operand(&sys, &solver, operand).unwrap();
                let label = format!("shifted (α = {alpha}) factor at {threads} threads");
                common::assert_applies_factor(&mut pre, &solver, &want, &label);
                assert_eq!(pre.shift(), alpha);
                assert_eq!(pre.label(), "ic0-shifted");
            }
        });
    }
}

#[test]
fn recovery_ladder_restores_convergence_on_the_kershaw_operator() {
    // The acceptance scenario: the Kershaw-perturbed 200×200 grid Laplacian
    // is SPD but defeats unshifted IC(0); the ladder must recover and
    // converge, with the descent fully reported. The breakdown is local (one
    // 4-cycle cell), so the row-boost rung — which shifts only the breakdown
    // row IC(0) reported — is expected to rescue it before the
    // whole-diagonal Manteuffel rungs are reached.
    let a = generators::grid2d_laplacian(200, 200).unwrap();
    let (k, _) = faultinject::kershaw_cycle(&a, 200, 200, 7);
    let sys = SpdSystem::build(&k, Method::Sts3, 80).expect("the perturbed operator stays SPD");
    within_budget("recovery ladder", || {
        let robust = RobustPcg::new(Pcg::new(4, Schedule::Guided { min_chunk: 1 }));
        let mut ws = KrylovWorkspace::new(sys.n());
        let b = vec![1.0; sys.n()];
        let out = robust.solve(&sys, &b, &mut ws).expect("the ladder holds");
        assert!(out.outcome.converged, "recovery must restore convergence");
        assert!(out.outcome.x.iter().all(|v| v.is_finite()));
        assert!(out.report.degraded);
        assert!(
            !out.report.attempts.is_empty(),
            "the unshifted rung must have failed"
        );
        assert!(
            out.report
                .attempts
                .iter()
                .all(|at| matches!(at.error, MatrixError::FactorizationBreakdown { .. })),
            "every abandoned rung broke down at setup"
        );
        assert_eq!(
            out.report.final_preconditioner, "ic0-rowboost",
            "a single-cell breakdown must be rescued by the targeted rung"
        );
        assert!(
            robust.policy().row_boosts.contains(&out.report.final_shift),
            "the reported boost must be one of the policy's betas"
        );
    });
}

#[test]
fn setup_ladder_and_solve_ladder_report_the_same_descent() {
    // One rung list, two acceptance tests: when every breakdown happens at
    // setup, `build_ladder_preconditioner` (accepts a rung whose setup
    // succeeds) and `RobustPcg::solve` (setup and solve) must tell the same
    // story — attempt order, shifts tried, final rung, degraded flag — or
    // fail with the same error.
    let a = generators::grid2d_laplacian(40, 40).unwrap();
    let (kershaw, _) = faultinject::kershaw_cycle(&a, 40, 40, 7);
    let no_rungs = RecoveryPolicy {
        row_boosts: Vec::new(),
        shifts: Vec::new(),
        allow_ssor: false,
        allow_identity: false,
        ..RecoveryPolicy::default()
    };
    for (name, operator, policy, rests_on) in [
        ("laplacian", &a, RecoveryPolicy::default(), Some("ic0")),
        (
            "kershaw",
            &kershaw,
            RecoveryPolicy::default(),
            Some("ic0-rowboost"),
        ),
        ("laplacian, no rungs", &a, no_rungs.clone(), Some("ic0")),
        ("kershaw, no rungs", &kershaw, no_rungs, None),
    ] {
        let sys = SpdSystem::build(operator, Method::Sts3, 20).unwrap();
        let robust = RobustPcg::with_policy(Pcg::new(2, Schedule::Guided { min_chunk: 1 }), policy);
        let setup = build_ladder_preconditioner(&sys, robust.pcg().solver(), robust.policy())
            .map(|(_, report)| report);
        let mut ws = KrylovWorkspace::new(sys.n());
        let solved = robust
            .solve(&sys, &vec![1.0; sys.n()], &mut ws)
            .map(|out| out.report);
        assert_eq!(format!("{setup:?}"), format!("{solved:?}"), "{name}");
        assert_eq!(
            setup.ok().map(|report| report.final_preconditioner),
            rests_on,
            "{name}"
        );
    }
}

#[test]
fn row_boost_rung_outranks_the_whole_diagonal_shifts() {
    // The rung ordering, shown by ablation on the same Kershaw operator:
    // with the default policy the ladder rests on the targeted row boost;
    // with `row_boosts` emptied it climbs past the missing rung and lands
    // on a whole-diagonal Manteuffel shift instead — same convergence,
    // blunter (every diagonal entry perturbed) recovery.
    let a = generators::grid2d_laplacian(120, 120).unwrap();
    let (k, _) = faultinject::kershaw_cycle(&a, 120, 120, 7);
    let sys = SpdSystem::build(&k, Method::Sts3, 60).expect("the perturbed operator stays SPD");
    within_budget("row-boost ablation", || {
        let b = vec![1.0; sys.n()];
        let boosted = RobustPcg::new(Pcg::new(4, Schedule::Guided { min_chunk: 1 }));
        let mut ws = KrylovWorkspace::new(sys.n());
        let out = boosted.solve(&sys, &b, &mut ws).expect("the ladder holds");
        assert!(out.outcome.converged);
        assert_eq!(out.report.final_preconditioner, "ic0-rowboost");

        let no_boosts = RobustPcg::with_policy(
            Pcg::new(4, Schedule::Guided { min_chunk: 1 }),
            RecoveryPolicy {
                row_boosts: Vec::new(),
                ..RecoveryPolicy::default()
            },
        );
        let out = no_boosts
            .solve(&sys, &b, &mut ws)
            .expect("the shift rungs still hold without the boost rung");
        assert!(out.outcome.converged);
        assert!(
            out.report.final_preconditioner == "ic0-shifted"
                || out.report.final_preconditioner == "ssor",
            "without row boosts the ladder must fall back to the shifted rungs, got {}",
            out.report.final_preconditioner
        );
    });
}

#[test]
fn recovery_ladder_covers_the_batched_solve_entry() {
    // Same acceptance operator, but through `RobustPcg::solve_batch`: the
    // descent happens once at setup and every right-hand side in the batch
    // converges under the recovered preconditioner.
    let a = generators::grid2d_laplacian(120, 120).unwrap();
    let (k, _) = faultinject::kershaw_cycle(&a, 120, 120, 7);
    let sys = SpdSystem::build(&k, Method::Sts3, 60).expect("the perturbed operator stays SPD");
    within_budget("batched recovery ladder", || {
        let robust = RobustPcg::new(Pcg::new(4, Schedule::Guided { min_chunk: 1 }));
        let nrhs = 3;
        let mut ws = KrylovWorkspace::with_nrhs(sys.n(), nrhs);
        let mut b = vec![0.0; sys.n() * nrhs];
        for (i, v) in b.iter_mut().enumerate() {
            *v = 1.0 + (i % 7) as f64;
        }
        let out = robust
            .solve_batch(&sys, &b, nrhs, &mut ws)
            .expect("the ladder holds for the batch entry");
        assert!(
            out.outcome.converged.iter().all(|&c| c),
            "every batched RHS must converge after recovery"
        );
        assert!(out.outcome.x.iter().all(|v| v.is_finite()));
        assert!(out.report.degraded, "the unshifted rung must have failed");
        assert!(out
            .report
            .attempts
            .iter()
            .all(|at| matches!(at.error, MatrixError::FactorizationBreakdown { .. })));
        assert!(
            out.report.final_preconditioner == "ic0-rowboost"
                || out.report.final_preconditioner == "ic0-shifted"
                || out.report.final_preconditioner == "ssor"
        );
    });
}

#[test]
fn chaos_hooks_compose_with_the_krylov_driver() {
    // End-to-end: a panic injected under a full PCG solve surfaces as the
    // same structured error through every layer, and the driver is usable
    // again after the hook is cleared.
    let a = generators::grid2d_laplacian(16, 16).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    for threads in thread_counts() {
        within_budget("krylov chaos", || {
            let mut pcg = Pcg::new(threads, Schedule::Guided { min_chunk: 1 });
            pcg.solver_mut()
                .set_chaos_hook(Some(faultinject::panic_hook(0)));
            let mut pre = sts_k::krylov::Ssor::new(&sys);
            let mut ws = KrylovWorkspace::new(sys.n());
            let b = vec![1.0; sys.n()];
            let err = pcg
                .solve(&sys, &mut pre, &b, &mut ws)
                .expect_err("the injected panic must surface through PCG");
            assert!(
                matches!(err, MatrixError::WorkerPanicked { .. }),
                "expected WorkerPanicked, got {err:?}"
            );
            pcg.solver_mut().set_chaos_hook(None);
            let out = pcg
                .solve(&sys, &mut pre, &b, &mut ws)
                .expect("the driver must recover once the fault clears");
            assert!(out.converged);
            assert!(out.x.iter().all(|v| v.is_finite()));
        });
    }
}

#[test]
fn stall_hook_type_is_the_public_chaos_hook() {
    // The harness's hooks are plain `ChaosHook`s — any test can write its
    // own without new API surface.
    let custom: ChaosHook = std::sync::Arc::new(|_w, _p| {});
    let mut solver = ParallelSolver::new(2, Schedule::Static);
    solver.set_chaos_hook(Some(custom));
    solver.set_chaos_hook(None);
}
