//! Incomplete factorizations producing triangular preconditioner operands.
//!
//! The workload the STS-k kernels exist for is a preconditioned iterative
//! solver: every iteration applies `M⁻¹` through one forward and one
//! backward triangular sweep. [`ic0`] builds the classic zero-fill
//! incomplete Cholesky preconditioner `M = L Lᵀ ≈ A` whose factor has
//! *exactly* the sparsity pattern of `A`'s lower triangle — which means an
//! ordering (and split layout) computed once for `A` hosts the factor's
//! values unchanged.
//!
//! # Algorithm
//!
//! Row-wise up-looking IC(0): for each row `i` in increasing order, and each
//! retained strictly-lower position `(i, k)` in increasing column order,
//!
//! ```text
//! L[i][k] = (A[i][k] − Σ_{j < k} L[i][j] · L[k][j]) / L[k][k]
//! L[i][i] = sqrt(A[i][i] − Σ_{j < i} L[i][j]²)
//! ```
//!
//! where the sums run over the *retained* pattern only (a sorted two-pointer
//! merge of rows `i` and `k`). A non-positive value under the square root is
//! reported as [`MatrixError::FactorizationBreakdown`]; on SPD M-matrices
//! (the grid Laplacians of the synthetic suite) the factorization is known
//! to exist.
//!
//! # Level-scheduled (parallel) construction
//!
//! The factorization's dependency DAG is *the same DAG the triangular solve
//! walks*: row `i`'s update reads exactly the rows `k` named by its retained
//! strictly-lower columns (each such row completely — its prefix for the
//! two-pointer merge and its diagonal for the scale), plus its own earlier
//! entries. A pack / super-row hierarchy that is valid for the solve — no
//! row depends on a row of a *different* super-row of the same pack — is
//! therefore valid verbatim for the factorization: the rows of one pack can
//! be factored concurrently as long as (a) every earlier pack a row's
//! columns reference has fully completed and (b) the rows of one super-row
//! are factored in increasing row order by a single worker. Because each
//! row's value is a pure function of already-final inputs evaluated in the
//! same merge order, the level-scheduled factor is **bitwise identical** to
//! the sequential up-looking sweep, for any worker count and any
//! interleaving. The pool-resident kernel lives in
//! `sts_core::ParallelSolver::parallel_ic0`; this module provides the
//! engine-agnostic pieces it shares with [`ic0`]: the lower-triangle pattern
//! copy ([`lower_pattern_copy`]) and the single-row update
//! ([`ic0_factor_row`]). Both engines also factor a [`LowerTriangularCsr`]'s
//! values directly, on that operand's pattern ([`ic0_in_place`] here): the
//! pattern of `lower(A)` is the operand's, so no copy of `A` is needed.

use crate::csr::CsrMatrix;
use crate::error::MatrixError;
use crate::triangular::LowerTriangularCsr;
use crate::Result;

/// Copies `a`'s lower triangle (columns sorted increasingly, diagonal last
/// in its natural sorted position) into raw CSR arrays — the in-place
/// workspace both the sequential and the level-scheduled IC(0) sweeps
/// overwrite, pattern unchanged.
///
/// Fails when `a` is not square or a row has no stored diagonal.
pub fn lower_pattern_copy(a: &CsrMatrix) -> Result<(Vec<usize>, Vec<usize>, Vec<f64>)> {
    if a.nrows() != a.ncols() {
        return Err(MatrixError::DimensionMismatch(format!(
            "ic0 needs a square matrix, got {}x{}",
            a.nrows(),
            a.ncols()
        )));
    }
    let n = a.nrows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0usize);
    for r in 0..n {
        let mut has_diag = false;
        for (&c, &v) in a.row_cols(r).iter().zip(a.row_values(r)) {
            if c > r {
                break; // columns are sorted; the rest is upper triangle
            }
            col_idx.push(c);
            vals.push(v);
            has_diag |= c == r;
        }
        if !has_diag {
            return Err(MatrixError::SingularDiagonal { row: r });
        }
        row_ptr.push(col_idx.len());
    }
    Ok((row_ptr, col_idx, vals))
}

/// The up-looking IC(0) update of row `i` over the retained pattern.
///
/// `row` is the row's value slice `vals[row_ptr[i]..row_ptr[i + 1]]`
/// (initialised with `A`'s lower-triangle values, diagonal last), held
/// exclusively by the caller; `read(k)` returns the already-final factor
/// value at global value index `k < row_ptr[i]` — a plain slice read for the
/// sequential sweep, a shared-pointer read for the level-scheduled one.
/// Every index passed to `read` targets a strictly earlier row, which is
/// what makes the borrow split sound in both engines.
///
/// Returns the pivot `d = A[i][i] − Σ L[i][j]²` *before* the square root,
/// having already stored `sqrt(d)` in the diagonal slot; the caller checks
/// `d <= 0.0 || !d.is_finite()` and reports
/// [`MatrixError::FactorizationBreakdown`] (a non-SPD pivot propagates as
/// NaN, which downstream rows' own pivot checks also catch, so the first —
/// lowest-row — breakdown is identical whichever engine runs the sweep).
#[inline]
pub fn ic0_factor_row<F: Fn(usize) -> f64>(
    row_ptr: &[usize],
    col_idx: &[usize],
    read: F,
    row: &mut [f64],
    i: usize,
) -> f64 {
    let lo = row_ptr[i];
    let hi = row_ptr[i + 1];
    debug_assert_eq!(row.len(), hi - lo, "row slice must cover row {i}");
    for kk in lo..hi - 1 {
        let k = col_idx[kk];
        // Sparse dot of rows i and k over columns < k (two-pointer merge of
        // the already-computed prefixes).
        let mut s = row[kk - lo];
        let (mut pi, mut pk) = (lo, row_ptr[k]);
        let k_end = row_ptr[k + 1] - 1; // exclude L[k][k]
        while pi < kk && pk < k_end {
            match col_idx[pi].cmp(&col_idx[pk]) {
                std::cmp::Ordering::Less => pi += 1,
                std::cmp::Ordering::Greater => pk += 1,
                std::cmp::Ordering::Equal => {
                    s -= row[pi - lo] * read(pk);
                    pi += 1;
                    pk += 1;
                }
            }
        }
        row[kk - lo] = s / read(k_end);
    }
    let mut d = row[hi - 1 - lo];
    for v in &row[..hi - 1 - lo] {
        d -= v * v;
    }
    row[hi - 1 - lo] = d.sqrt();
    d
}

/// Zero-fill incomplete Cholesky: returns the lower-triangular factor `L`
/// with the sparsity pattern of `a`'s lower triangle such that
/// `L Lᵀ ≈ a` (exact on the retained pattern positions).
///
/// `a` must be square with a fully stored symmetric pattern (both triangles
/// present, as the synthetic suite and Matrix Market symmetric readers
/// produce); only the lower triangle is read. This is the sequential
/// up-looking sweep ([`ic0_in_place`]); the level-scheduled parallel
/// construction (`sts_core::ParallelSolver::parallel_ic0`) produces
/// bitwise-identical values on the same input (see the module
/// documentation).
pub fn ic0(a: &CsrMatrix) -> Result<LowerTriangularCsr> {
    let (row_ptr, col_idx, mut vals) = lower_pattern_copy(a)?;
    ic0_in_place(&row_ptr, &col_idx, &mut vals)?;
    let n = a.nrows();
    let csr = CsrMatrix::from_raw_unchecked(n, n, row_ptr, col_idx, vals);
    LowerTriangularCsr::from_csr(&csr)
}

/// The sequential up-looking IC(0) sweep in place: `vals`, laid out on the
/// lower-triangular pattern `row_ptr`/`col_idx` (columns increasing, the
/// diagonal last in every row, as both [`lower_pattern_copy`] and a
/// [`LowerTriangularCsr`] hold it), is overwritten row by row with the
/// factor. Stops at the first non-SPD pivot with
/// [`MatrixError::FactorizationBreakdown`].
pub fn ic0_in_place(row_ptr: &[usize], col_idx: &[usize], vals: &mut [f64]) -> Result<()> {
    // Row r's entries end with its diagonal (largest retained column), so
    // vals[row_ptr[r+1]-1] is L[r][r] once row r is done.
    for i in 0..row_ptr.len().saturating_sub(1) {
        let lo = row_ptr[i];
        let hi = row_ptr[i + 1];
        // Rows < i are final; the split borrow mirrors the dependency DAG.
        let (done, rest) = vals.split_at_mut(lo);
        let row = &mut rest[..hi - lo];
        let d = ic0_factor_row(row_ptr, col_idx, |k| done[k], row, i);
        if d <= 0.0 || !d.is_finite() {
            return Err(MatrixError::FactorizationBreakdown { row: i, pivot: d });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::generators;
    use crate::ops;

    /// Dense `L Lᵀ` entry for verification.
    fn llt_entry(l: &LowerTriangularCsr, i: usize, j: usize) -> f64 {
        let row = |r: usize| -> Vec<(usize, f64)> {
            let mut v: Vec<(usize, f64)> = l
                .row_off_diag_cols(r)
                .iter()
                .copied()
                .zip(l.row_off_diag_values(r).iter().copied())
                .collect();
            v.push((r, l.diag(r)));
            v
        };
        let (ri, rj) = (row(i), row(j));
        let mut s = 0.0;
        for &(c, v) in &ri {
            if let Some(&(_, w)) = rj.iter().find(|&&(d, _)| d == c) {
                s += v * w;
            }
        }
        s
    }

    #[test]
    fn tridiagonal_ic0_is_the_exact_cholesky_factor() {
        // A tridiagonal SPD matrix has a tridiagonal Cholesky factor, so
        // IC(0) drops nothing: L Lᵀ must equal A exactly.
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
                coo.push(i - 1, i, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let l = ic0(&a).unwrap();
        for (r, c, v) in a.iter() {
            if c <= r {
                assert!(
                    (llt_entry(&l, r, c) - v).abs() < 1e-12,
                    "LLᵀ[{r}][{c}] diverged from A"
                );
            }
        }
        // The factor actually preconditions: L (Lᵀ x) recovers A x.
        let x: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * i as f64).collect();
        let ax = ops::spmv(&a, &x).unwrap();
        let y = l.solve_seq(&ax).unwrap();
        let x_back = l.solve_transpose_seq(&y).unwrap();
        assert!(ops::relative_error_inf(&x_back, &x) < 1e-10);
    }

    #[test]
    fn ic0_matches_a_on_the_retained_pattern() {
        // The defining IC(0) property: (L Lᵀ)[i][j] = A[i][j] for every
        // retained position (i, j), even where the exact factor would fill.
        let a = generators::grid2d_laplacian(6, 5).unwrap();
        let l = ic0(&a).unwrap();
        assert_eq!(l.nnz() * 2 - l.n(), a.nnz(), "pattern must be preserved");
        for (r, c, v) in a.iter() {
            if c <= r {
                assert!(
                    (llt_entry(&l, r, c) - v).abs() < 1e-12,
                    "IC(0) must match A at retained position ({r}, {c})"
                );
            }
        }
    }

    #[test]
    fn lower_pattern_copy_extracts_exactly_the_lower_triangle() {
        let a = generators::grid2d_laplacian(5, 4).unwrap();
        let (row_ptr, col_idx, vals) = lower_pattern_copy(&a).unwrap();
        assert_eq!(row_ptr.len(), a.nrows() + 1);
        assert_eq!(col_idx.len(), vals.len());
        for r in 0..a.nrows() {
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns sorted");
            assert_eq!(*cols.last().unwrap(), r, "diagonal last");
            for (&c, &v) in cols.iter().zip(&vals[row_ptr[r]..row_ptr[r + 1]]) {
                assert_eq!(v, a.get(r, c));
            }
        }
    }

    #[test]
    fn factor_row_reproduces_the_full_sweep_row_by_row() {
        // Driving ic0_factor_row by hand must give the exact ic0 factor —
        // the parity the level-scheduled engine relies on.
        let a = generators::grid2d_laplacian(7, 6).unwrap();
        let reference = ic0(&a).unwrap();
        let (row_ptr, col_idx, mut vals) = lower_pattern_copy(&a).unwrap();
        for i in 0..a.nrows() {
            let (done, rest) = vals.split_at_mut(row_ptr[i]);
            let row = &mut rest[..row_ptr[i + 1] - row_ptr[i]];
            let d = ic0_factor_row(&row_ptr, &col_idx, |k| done[k], row, i);
            assert!(d > 0.0 && d.is_finite());
        }
        assert_eq!(vals, reference.values(), "bitwise parity with ic0");
    }

    #[test]
    fn ic0_rejects_non_spd_input() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 3.0).unwrap();
        coo.push(1, 0, 3.0).unwrap();
        coo.push(1, 1, 1.0).unwrap(); // 1 − 9 < 0 under the root
        let e = ic0(&coo.to_csr());
        assert!(matches!(
            e,
            Err(MatrixError::FactorizationBreakdown { row: 1, .. })
        ));
    }

    #[test]
    fn ic0_rejects_missing_diagonal_and_rectangular_input() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 0.5).unwrap();
        assert!(matches!(
            ic0(&coo.to_csr()),
            Err(MatrixError::SingularDiagonal { row: 1 })
        ));
        let rect = CooMatrix::new(2, 3);
        assert!(matches!(
            ic0(&rect.to_csr()),
            Err(MatrixError::DimensionMismatch(_))
        ));
    }
}
