//! Level-scheduled parallel IC(0) construction on the pack hierarchy.
//!
//! `sts_matrix::factor::ic0` is an up-looking sweep whose dependency DAG is
//! exactly the triangular-solve DAG: row `i` reads the rows named by its
//! retained strictly-lower columns (completely — prefix and diagonal) plus
//! its own earlier entries. The pack / super-row hierarchy an
//! [`StsStructure`] validates for the solve therefore schedules the
//! factorization verbatim, on the same loop as the paper's unsplit sweep
//! (Algorithm 1; see [`parallel`](super::parallel)):
//!
//! * per pack, one `parallel_for` over the pack's super-rows under the
//!   solver's schedule; each super-row is one task, run by one worker, so
//!   each row has exactly one writer;
//! * the pool's completion is the barrier between packs;
//! * within a task, rows run in increasing order, so same-super-row reads
//!   are this worker's own earlier writes in program order.
//!
//! # Bitwise identity
//!
//! Every value `L[i][·]` is a pure function of already-final inputs,
//! evaluated by [`ic0_factor_row`] in
//! the same merge order as the sequential sweep — so the level-scheduled
//! factor is **bitwise identical** to `sts_matrix::factor::ic0` for every
//! worker count, schedule and interleaving (asserted by the property tests).
//!
//! # Breakdown identity
//!
//! A task that hits a non-SPD pivot does not abort the sweep; it records the
//! row and keeps factoring, at one worker as at many — `sqrt` of the bad
//! pivot propagates as NaN, and NaN-poisoned descendants fail their own
//! pivot checks. Each task keeps its lowest bad row and merges it once. The
//! *lowest* recorded row has all its dependencies intact (any broken
//! dependency would itself be a lower recorded row), so its pivot is bitwise
//! identical to the one the sequential sweep reports when it stops there
//! first: both engines return the same
//! [`MatrixError::FactorizationBreakdown`].
//!
//! # Memory ordering / race freedom
//!
//! The value array is shared through the same
//! `SharedVec` (`solver::kernel`) wrapper as the solve kernels.
//! Row `i`'s slice has one writer (the worker that runs its super-row).
//! Reads target (a) rows of earlier packs, published by the pack barrier —
//! the pool's completion count, which every helper decrements after its last
//! write of the pack and the dispatcher reads before it starts the next — or
//! (b) rows of `i`'s own super-row, written earlier by the same worker in
//! program order. Pack independence ([`StsStructure::validate`]) rules out
//! every other target, so no slot is ever accessed concurrently with its
//! write.

use std::sync::{Mutex, PoisonError};

use sts_matrix::factor::{ic0_factor_row, lower_pattern_copy};
use sts_matrix::{CsrMatrix, LowerTriangularCsr, MatrixError};
use sts_trace::Phase;
use sts_verify::TaskKind;

use crate::csrk::{Result, StsStructure};
use crate::solver::kernel::SharedVec;
use crate::solver::parallel::{span, ParallelSolver};

impl ParallelSolver {
    /// Zero-fill incomplete Cholesky of `a`, level-scheduled over `s`'s pack
    /// hierarchy on this solver's worker pool.
    ///
    /// `a` must be the reordered symmetric matrix whose lower triangle has
    /// **exactly** the sparsity pattern of `s.lower()` (the
    /// [`StsStructure::with_operand`] contract) — the schedule's
    /// pack-independence invariant is derived from that pattern, so a
    /// mismatch is rejected up front. Values may differ.
    ///
    /// The result is bitwise identical to `sts_matrix::factor::ic0(a)` —
    /// including the [`MatrixError::FactorizationBreakdown`] row and pivot
    /// on non-SPD input — for every thread count and schedule (see the
    /// module documentation for the argument).
    pub fn parallel_ic0(&self, s: &StsStructure, a: &CsrMatrix) -> Result<LowerTriangularCsr> {
        let (row_ptr, col_idx, mut vals) = lower_pattern_copy(a)?;
        if row_ptr != s.lower().row_ptr() || col_idx != s.lower().col_idx() {
            return Err(MatrixError::InvalidStructure(
                "parallel_ic0 needs lower(a) to have exactly the structure operand's sparsity \
                 pattern (the with_operand contract); the level schedule is derived from it"
                    .into(),
            ));
        }
        let n = s.n();
        let rec = self.active_recorder();
        // The lowest bad-pivot row any task saw, with its pivot; usize::MAX
        // marks "none".
        let breakdown = Mutex::new((usize::MAX, 0.0f64));
        let shared = SharedVec::new(&mut vals);
        // A panic outranks the breakdown below: the sweep did not finish, so
        // the record may be incomplete.
        self.drive_super_rows(s, |p, t, rows| {
            let (mut local_row, mut local_pivot) = (usize::MAX, 0.0f64);
            span(rec, Phase::Factor, t, p, || {
                for i in rows {
                    let lo = row_ptr[i];
                    // SAFETY: row i's slots are written only by the worker
                    // running its super-row; reads inside ic0_factor_row
                    // target strictly earlier rows — published by the pack
                    // barrier (earlier packs) or written earlier by this
                    // worker (own super-row). See the module docs.
                    let row = unsafe { shared.slice_mut(lo, row_ptr[i + 1] - lo) };
                    let d = ic0_factor_row(
                        &row_ptr,
                        &col_idx,
                        // SAFETY: same argument as the slice above — k
                        // names a finalized slot.
                        |k| unsafe { shared.read(k) },
                        row,
                        i,
                    );
                    if (d <= 0.0 || !d.is_finite()) && local_row == usize::MAX {
                        (local_row, local_pivot) = (i, d);
                    }
                    // Row-granularity reads: every slot ic0_factor_row
                    // touched belongs to a row named by i's strictly-lower
                    // columns (or to row i itself, which is the write).
                    self.shadow_record(
                        TaskKind::Gather,
                        i,
                        col_idx[lo..row_ptr[i + 1] - 1].iter().copied(),
                    );
                }
            });
            if local_row != usize::MAX {
                let mut first = breakdown.lock().unwrap_or_else(PoisonError::into_inner);
                if local_row < first.0 {
                    *first = (local_row, local_pivot);
                }
            }
        })?;
        let (first, pivot) = breakdown
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if first != usize::MAX {
            return Err(MatrixError::FactorizationBreakdown { row: first, pivot });
        }
        let csr = CsrMatrix::from_raw_unchecked(n, n, row_ptr, col_idx, vals);
        LowerTriangularCsr::from_csr(&csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use sts_matrix::{factor, generators};
    use sts_numa::Schedule;

    /// The structure and reordered full matrix for a grid Laplacian: the
    /// SpdSystem shape without depending on sts-krylov.
    fn laplacian_setup(nx: usize, ny: usize) -> (StsStructure, CsrMatrix) {
        let a = generators::grid2d_laplacian(nx, ny).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 8).unwrap();
        let a_perm = a.permute_symmetric(s.permutation().new_to_old()).unwrap();
        (s, a_perm)
    }

    #[test]
    fn parallel_factor_is_bitwise_identical_across_thread_counts() {
        let (s, a) = laplacian_setup(17, 15);
        let reference = factor::ic0(&a).unwrap();
        for threads in [1, 2, 4, 8] {
            let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
            let f = solver.parallel_ic0(&s, &a).unwrap();
            assert_eq!(
                f.values(),
                reference.values(),
                "parallel IC(0) diverged from sequential with {threads} threads"
            );
            assert_eq!(f.row_ptr(), reference.row_ptr());
            assert_eq!(f.col_idx(), reference.col_idx());
        }
    }

    #[test]
    fn degenerate_systems_factor_at_every_thread_count() {
        // No rows, and one row: packs with no super-row or a single one, at
        // one worker as at three.
        use sts_matrix::CooMatrix;
        let mut one = CooMatrix::new(1, 1);
        one.push(0, 0, 4.0).unwrap();
        for a in [CooMatrix::new(0, 0).to_csr(), one.to_csr()] {
            let l = LowerTriangularCsr::from_csr(&a).unwrap();
            let s = Method::Sts3.build(&l, 8).unwrap();
            let reference = factor::ic0(&a).unwrap();
            for threads in [1, 3] {
                let solver = ParallelSolver::new(threads, Schedule::Static);
                let f = solver.parallel_ic0(&s, &a).unwrap();
                assert_eq!(f.values(), reference.values(), "n = {}", s.n());
            }
        }
    }

    #[test]
    fn repeated_contended_builds_stay_identical() {
        // Oversubscribed pool, chain-heavy level-set ordering: a missing
        // barrier would show up as sporadic divergence.
        let a = generators::grid2d_laplacian(20, 20).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Csr3Ls.build(&l, 6).unwrap();
        let a_perm = a.permute_symmetric(s.permutation().new_to_old()).unwrap();
        let reference = factor::ic0(&a_perm).unwrap();
        let solver = ParallelSolver::new(8, Schedule::Guided { min_chunk: 1 });
        for round in 0..20 {
            let f = solver.parallel_ic0(&s, &a_perm).unwrap();
            assert_eq!(
                f.values(),
                reference.values(),
                "parallel IC(0) diverged on round {round}"
            );
        }
    }

    #[test]
    fn breakdown_reports_the_same_row_and_pivot_as_sequential() {
        let (s, mut a) = laplacian_setup(9, 9);
        // Poison one diagonal in the *reordered* numbering so the pivot at
        // that row goes non-positive; rows depending on it NaN-poison, and
        // both engines must stop at the same first row with the same pivot.
        let target = s.n() / 2;
        let pos = a
            .row_cols(target)
            .iter()
            .position(|&c| c == target)
            .unwrap();
        let start = a.row_ptr()[target];
        a.values_mut()[start + pos] = 1e-9;
        let seq = factor::ic0(&a);
        let Err(MatrixError::FactorizationBreakdown {
            row: seq_row,
            pivot: seq_pivot,
        }) = seq
        else {
            panic!("poisoned diagonal must break the sequential factorization");
        };
        for threads in [2, 4, 8] {
            let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
            match solver.parallel_ic0(&s, &a) {
                Err(MatrixError::FactorizationBreakdown { row, pivot }) => {
                    assert_eq!(row, seq_row, "{threads} threads: breakdown row differs");
                    assert_eq!(
                        pivot.to_bits(),
                        seq_pivot.to_bits(),
                        "{threads} threads: breakdown pivot differs"
                    );
                }
                other => panic!("{threads} threads: expected breakdown, got {other:?}"),
            }
        }
    }

    #[test]
    fn pattern_mismatch_is_rejected() {
        let (s, a) = laplacian_setup(6, 6);
        // A matrix of the right size but a different pattern (identity).
        let other = CsrMatrix::identity(s.n());
        let solver = ParallelSolver::new(2, Schedule::Static);
        assert!(matches!(
            solver.parallel_ic0(&s, &other),
            Err(MatrixError::InvalidStructure(_))
        ));
        // And the happy path still works afterwards (pool reusable).
        assert!(solver.parallel_ic0(&s, &a).is_ok());
    }

    #[test]
    fn factor_preconditions_through_the_structure_sweeps() {
        // End-to-end: the parallel factor hosted by with_operand inverts
        // F Fᵀ through the structure's forward/backward sweeps.
        let (s, a) = laplacian_setup(10, 8);
        let solver = ParallelSolver::new(4, Schedule::Guided { min_chunk: 1 });
        let f = solver.parallel_ic0(&s, &a).unwrap();
        let fs = s.with_operand(f).unwrap();
        let w: Vec<f64> = (0..s.n()).map(|i| 1.0 - (i % 4) as f64 * 0.2).collect();
        let ftw = fs.lower().multiply_transpose(&w).unwrap();
        let r = fs.lower().multiply(&ftw).unwrap();
        let y = fs.solve_sequential(&r).unwrap();
        let z = fs.solve_transpose_sequential(&y).unwrap();
        for (got, want) in z.iter().zip(&w) {
            assert!((got - want).abs() < 1e-10);
        }
    }
}
