//! Dynamic cross-check of the static schedule model (`race-shadow` feature).
//!
//! Every parallel kernel — the split sweep, the unsplit solve and the IC(0)
//! build — records one `RowTrace` per produced row (the exact shared slots
//! its inner loop read), and `check_replay` compares the log against the
//! footprints `sts_core::verify` extracts. A divergence in either direction
//! (kernel touches something the model missed, or the model claims reads
//! the kernel never performs) fails here, so the verifier's proofs are
//! grounded in what the kernels really do. Run with:
//!
//! ```text
//! cargo test --features race-shadow --test race_shadow
//! ```
#![cfg(feature = "race-shadow")]

use std::sync::Arc;

use sts_k::core::{
    solve_spec, super_row_spec, Method, Ordering, ParallelSolver, SolveEngine, SolveOptions,
    StsBuilder, SuperRowSizing, SweepDirection,
};
use sts_k::matrix::generators;
use sts_k::numa::Schedule;
use sts_k::verify::{check_replay, AccessLog, ScheduleSpec};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn replay(log: &AccessLog, spec: &ScheduleSpec, what: &str) {
    let traces = log.take();
    assert!(!traces.is_empty(), "{what}: nothing was recorded");
    if let Err(m) = check_replay(spec, &traces) {
        panic!("{what}: {m}");
    }
}

#[test]
fn every_solve_engine_touches_exactly_the_modelled_footprints() {
    let l = generators::random_lower_triangular(120, 3.0, 42).unwrap();
    for ordering in [Ordering::LevelSet, Ordering::Coloring] {
        for k in [2usize, 3] {
            let s = StsBuilder::new(k)
                .ordering(ordering)
                .super_row_sizing(SuperRowSizing::Rows(8))
                .build(&l)
                .unwrap();
            // The model is chunk-granularity-independent after replay
            // flattening, and a batch row touches the same rows as a
            // single-RHS row (just `nrhs` slots of each), so one
            // row-granularity spec per direction covers every thread count
            // and batch width of the split driver.
            for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
                let spec = solve_spec(&s, usize::MAX, direction);
                for threads in THREAD_SWEEP {
                    let mut solver =
                        ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
                    let log = Arc::new(AccessLog::new());
                    solver.set_shadow_log(Some(log.clone()));
                    for nrhs in [1usize, 3] {
                        let opts = SolveOptions::default()
                            .with_engine(SolveEngine::Split)
                            .with_direction(direction)
                            .with_nrhs(nrhs);
                        solver
                            .solve_with(&s, &vec![1.0; s.n() * nrhs], &opts)
                            .unwrap();
                        replay(
                            &log,
                            &spec,
                            &format!(
                                "split {direction:?} nrhs={nrhs} {ordering:?} k={k} \
                                 threads={threads}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn the_factor_kernel_touches_exactly_the_modelled_footprints() {
    let a = generators::grid2d_laplacian(16, 14).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let s = Method::Sts3.build(&l, 8).unwrap();
    let a_perm = a.permute_symmetric(s.permutation().new_to_old()).unwrap();
    let spec = super_row_spec(&s);
    for threads in THREAD_SWEEP {
        let mut solver = ParallelSolver::new(threads, Schedule::Static);
        let log = Arc::new(AccessLog::new());
        solver.set_shadow_log(Some(log.clone()));
        solver.parallel_ic0(&s, &a_perm).unwrap();
        replay(&log, &spec, &format!("parallel_ic0 threads={threads}"));
    }
}

#[test]
fn the_unsplit_kernel_touches_exactly_the_modelled_footprints() {
    let l = generators::random_lower_triangular(120, 3.0, 42).unwrap();
    let s = Method::Sts3.build(&l, 8).unwrap();
    let spec = super_row_spec(&s);
    for threads in THREAD_SWEEP {
        let mut solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
        let log = Arc::new(AccessLog::new());
        solver.set_shadow_log(Some(log.clone()));
        solver.solve(&s, &vec![1.0; s.n()]).unwrap();
        replay(&log, &spec, &format!("unsplit solve threads={threads}"));
    }
}
