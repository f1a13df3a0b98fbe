//! Parallel (level-scheduled) IC(0) construction: bitwise parity with the
//! sequential up-looking sweep across the synthetic suite, orderings,
//! multi-level depths, worker counts and loop schedules — including
//! identical `FactorizationBreakdown` errors on non-SPD input.
//!
//! The same parity holds for [`Ic0`], which factors a copy of the system
//! structure's lower triangle instead of the operator and keeps only the
//! sweep layouts it fills: its applications equal a sweep pair over the
//! reference factor, bit for bit.
//!
//! The parity claim is exact equality (`==` on the value arrays), not a
//! tolerance: every factor entry is a pure function of already-final inputs
//! evaluated in the same merge order on both engines, so any difference at
//! all is a scheduling bug.

use sts_k::core::{Method, Ordering, ParallelSolver, StsBuilder, StsStructure, SuperRowSizing};
use sts_k::krylov::{Ic0, Ic0Operand, SpdSystem, SweepEngine};
use sts_k::matrix::suite::{SuiteScale, TestSuite};
use sts_k::matrix::{factor, generators, CsrMatrix, LowerTriangularCsr, MatrixError};
use sts_k::numa::Schedule;

mod common;

/// The worker counts every parity check runs under. CI's build/test matrix
/// exports `STS_TEST_THREADS` (1 on the no-contention leg, 4 on the
/// oversubscribed one); that count is appended so the pack barriers are
/// exercised under the runner's real contention regime on top of the fixed
/// {1, 2, 4, 8} sweep.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4, 8];
    if let Ok(raw) = std::env::var("STS_TEST_THREADS") {
        if let Ok(extra) = raw.trim().parse::<usize>() {
            if extra > 0 && !counts.contains(&extra) {
                counts.push(extra);
            }
        }
    }
    counts
}

/// The build runs its super-rows under the solver's schedule: the static
/// blocks, dynamic chunks and the paper's `guided,1` all claim them in a
/// different order.
const SCHEDULES: [Schedule; 3] = [
    Schedule::Static,
    Schedule::Dynamic { chunk: 32 },
    Schedule::Guided { min_chunk: 1 },
];

/// Builds the k-level structure for `l` and returns it with the reordered
/// full symmetric matrix both IC(0) engines factor.
fn build_case(l: &LowerTriangularCsr, ordering: Ordering, k: usize) -> (StsStructure, CsrMatrix) {
    let s = StsBuilder::new(k)
        .ordering(ordering)
        .super_row_sizing(SuperRowSizing::Rows(16))
        .build(l)
        .unwrap();
    let a = s.lower().symmetrized();
    (s, a)
}

/// Asserts both engines agree bitwise on `a` under every schedule — on the
/// factor values when the factorization exists, on the breakdown row and
/// pivot bits when it does not. Returns whether the factorization
/// succeeded.
fn assert_engines_agree(s: &StsStructure, a: &CsrMatrix, label: &str) -> bool {
    let seq = factor::ic0(a);
    for (threads, schedule) in thread_counts()
        .into_iter()
        .flat_map(|t| SCHEDULES.map(|sch| (t, sch)))
    {
        let label = format!("{label} under {schedule:?}");
        let solver = ParallelSolver::new(threads, schedule);
        let par = solver.parallel_ic0(s, a);
        match (&seq, &par) {
            (Ok(f_seq), Ok(f_par)) => {
                assert_eq!(
                    f_seq.values(),
                    f_par.values(),
                    "{label}: parallel IC(0) diverged from sequential with {threads} threads"
                );
                assert_eq!(f_seq.col_idx(), f_par.col_idx());
            }
            (
                Err(MatrixError::FactorizationBreakdown { row: r1, pivot: p1 }),
                Err(MatrixError::FactorizationBreakdown { row: r2, pivot: p2 }),
            ) => {
                assert_eq!(
                    r1, r2,
                    "{label}: breakdown row differs with {threads} threads"
                );
                assert_eq!(
                    p1.to_bits(),
                    p2.to_bits(),
                    "{label}: breakdown pivot differs with {threads} threads"
                );
            }
            (a_out, b_out) => panic!(
                "{label}: engines disagree on the outcome with {threads} threads: \
                 sequential {a_out:?}, parallel {b_out:?}"
            ),
        }
    }
    seq.is_ok()
}

#[test]
fn parallel_ic0_is_bitwise_identical_on_the_synthetic_suite() {
    // Orderings × k ∈ {2, 3} × threads on every suite matrix. Suite
    // operands are not all SPD once symmetrized — those cases exercise the
    // breakdown-identity path instead; the SPD grid below guarantees the
    // success path is also covered.
    let suite = TestSuite::generate(SuiteScale::Tiny).unwrap();
    let mut successes = 0usize;
    for m in &suite.matrices {
        let l = m.lower().unwrap();
        for ordering in [Ordering::LevelSet, Ordering::Coloring] {
            for k in [2usize, 3] {
                let (s, a) = build_case(&l, ordering, k);
                let label = format!("{} ({ordering:?}, k={k})", m.id.label());
                if assert_engines_agree(&s, &a, &label) {
                    successes += 1;
                }
            }
        }
    }
    assert!(
        successes > 0,
        "at least some suite factorizations must succeed for the parity check to bite"
    );
}

#[test]
fn parallel_ic0_is_bitwise_identical_on_spd_grids() {
    // Grid Laplacians are SPD M-matrices: IC(0) is known to exist, so this
    // pins the success path across orderings and depths.
    for (nx, ny) in [(20usize, 16usize), (13, 13)] {
        let grid = generators::grid2d_laplacian(nx, ny).unwrap();
        let l = generators::lower_operand(&grid).unwrap();
        for ordering in [Ordering::LevelSet, Ordering::Coloring] {
            for k in [2usize, 3] {
                let (s, a) = build_case(&l, ordering, k);
                let label = format!("laplacian {nx}x{ny} ({ordering:?}, k={k})");
                assert!(
                    assert_engines_agree(&s, &a, &label),
                    "{label}: SPD grid factorization must succeed"
                );
            }
        }
    }
}

#[test]
fn breakdown_errors_identically_on_both_paths() {
    // Poison one diagonal of the reordered SPD matrix so the pivot at that
    // row goes non-positive: both engines must report the same
    // FactorizationBreakdown row with the bitwise-same pivot, for every
    // ordering, depth and thread count (assert_engines_agree compares the
    // error arms too).
    let grid = generators::grid2d_laplacian(12, 11).unwrap();
    let l = generators::lower_operand(&grid).unwrap();
    for ordering in [Ordering::LevelSet, Ordering::Coloring] {
        for k in [2usize, 3] {
            let (s, mut a) = build_case(&l, ordering, k);
            let target = s.n() * 2 / 3;
            let pos = a
                .row_cols(target)
                .iter()
                .position(|&c| c == target)
                .expect("diagonal is stored");
            let at = a.row_ptr()[target] + pos;
            a.values_mut()[at] = 1e-12;
            let label = format!("poisoned laplacian ({ordering:?}, k={k})");
            assert!(
                !assert_engines_agree(&s, &a, &label),
                "{label}: the poisoned diagonal must break the factorization"
            );
        }
    }
}

/// `P A Pᵀ` with the diagonal of `rows` scaled by `1 + alpha`: the operand
/// an [`Ic0Operand`] names, formed from the system's matrix.
fn perturbed(a: &CsrMatrix, rows: std::ops::Range<usize>, alpha: f64) -> CsrMatrix {
    let mut out = a.clone();
    for r in rows {
        let pos = a.row_cols(r).iter().position(|&c| c == r).unwrap();
        out.values_mut()[a.row_ptr()[r] + pos] *= 1.0 + alpha;
    }
    out
}

#[test]
fn ic0_from_the_lower_triangle_matches_the_reference_factor() {
    // `Ic0` factors a copy of the structure's lower triangle, never the
    // operator: on every operand, at every thread count, it applies
    // `factor::ic0` on `P A Pᵀ` bit for bit, and a breakdown names the
    // same row with the same pivot bits.
    let grid = generators::grid2d_laplacian(23, 19).unwrap();
    let mut poisoned = grid.clone();
    let target = 200;
    let pos = poisoned.row_cols(target).iter().position(|&c| c == target);
    let at = poisoned.row_ptr()[target] + pos.unwrap();
    poisoned.values_mut()[at] = 1e-9;
    let mut outcomes = [0usize; 2];
    for a in [grid, poisoned] {
        let sys = SpdSystem::build(&a, Method::Sts3, 16).unwrap();
        let n = sys.n();
        let operands = [
            (Ic0Operand::Plain, perturbed(sys.matrix(), 0..0, 0.0)),
            (Ic0Operand::Shifted(0.1), perturbed(sys.matrix(), 0..n, 0.1)),
            (
                Ic0Operand::RowBoosted {
                    row: 77,
                    alpha: 0.5,
                },
                perturbed(sys.matrix(), 77..78, 0.5),
            ),
        ];
        for (operand, matrix) in operands {
            let reference = factor::ic0(&matrix).and_then(|f| sys.structure().with_operand(f));
            for threads in [1, 2, 3, 8] {
                let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
                let label = format!("{operand:?}, {threads} threads");
                let got = Ic0::with_operand(&sys, &solver, SweepEngine::Split, operand);
                match (&reference, got) {
                    (Ok(want), Ok(mut pre)) => {
                        common::assert_applies_factor(&mut pre, &solver, want, &label);
                        outcomes[0] += 1;
                    }
                    (
                        Err(MatrixError::FactorizationBreakdown { row, pivot }),
                        Err(MatrixError::FactorizationBreakdown { row: r, pivot: p }),
                    ) => {
                        assert_eq!(*row, r, "{label}: breakdown row");
                        assert_eq!(pivot.to_bits(), p.to_bits(), "{label}: pivot");
                        outcomes[1] += 1;
                    }
                    (want, got) => panic!("{label}: expected {want:?}, got {got:?}"),
                }
            }
        }
    }
    assert!(
        outcomes.iter().all(|&c| c > 0),
        "(factors, breakdowns) compared: {outcomes:?}"
    );
}
