//! Helpers shared by the integration-test binaries. Each binary compiles
//! this module and uses only part of it.
#![allow(dead_code)]

use sts_k::core::{ParallelSolver, PrecisionPolicy, SolveOptions, StsStructure, SweepDirection};
use sts_k::krylov::{Ic0, Preconditioner};

/// The worker counts every thread-count parity loop runs under: one thread
/// (no pool threads), two, four, and eight — more threads than a small host
/// has cores, so the barriers also run oversubscribed.
pub fn thread_counts() -> [usize; 4] {
    [1, 2, 4, 8]
}

/// Asserts that `pre` applies bit for bit like a forward and a transpose
/// sweep over `want`, whose operand is the reference factor: at one and
/// four right-hand sides, on f64 and on f32 slabs.
pub fn assert_applies_factor(
    pre: &mut Ic0,
    solver: &ParallelSolver,
    want: &StsStructure,
    label: &str,
) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for precision in [
        PrecisionPolicy::ValuesF64,
        PrecisionPolicy::ValuesF32WithRefinement,
    ] {
        pre.set_precision(precision);
        for nrhs in [1, 4] {
            let len = want.n() * nrhs;
            let r: Vec<f64> = (0..len).map(|k| 1.0 + (k % 7) as f64 * 0.3).collect();
            let (mut z, mut sweep) = (vec![0.0; len], vec![0.0; len]);
            pre.apply_batch_into(solver, &r, &mut z, &mut sweep, nrhs)
                .unwrap();
            let opts = SolveOptions::default()
                .with_nrhs(nrhs)
                .with_precision(precision);
            let (mut y, mut expected) = (vec![0.0; len], vec![0.0; len]);
            solver.solve_into(want, &r, &mut y, &opts).unwrap();
            let opts = opts.with_direction(SweepDirection::Transpose);
            solver.solve_into(want, &y, &mut expected, &opts).unwrap();
            assert_eq!(
                bits(&z),
                bits(&expected),
                "{label}: {precision:?}, nrhs {nrhs}"
            );
        }
    }
}
