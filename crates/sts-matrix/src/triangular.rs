//! Lower-triangular matrix storage and the sequential reference solve.
//!
//! [`LowerTriangularCsr`] stores the operand `L` of `L x = b` the way the
//! paper's Algorithm 1 consumes it: row-wise, with the strictly-lower entries
//! of each row first (columns sorted increasingly) and the diagonal entry
//! stored *last* in the row, so the inner kernel is
//!
//! ```text
//! temp = Σ_{j in row i, j < i} L[i,j] * x[j]
//! x[i] = (b[i] - temp) / L[i,i]
//! ```
//!
//! All higher-level solvers in `sts-core` permute and regroup this structure
//! but keep the per-row layout identical, so the innermost loop is shared.
//!
//! The pattern (`row_ptr`, `col_idx`) is held behind `Arc`s: an operand
//! with new values on the same pattern ([`LowerTriangularCsr::with_values`]
//! — a rebound system, an incomplete factor) shares the pattern's
//! allocations instead of copying them.

use std::sync::Arc;

use crate::csr::{inverse_permutation, CsrMatrix};
use crate::error::MatrixError;
use crate::Result;

/// A sparse lower-triangular matrix with a guaranteed nonzero diagonal.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerTriangularCsr {
    n: usize,
    /// Row pointers into `col_idx`/`values` (`index1` in the paper).
    row_ptr: Arc<Vec<usize>>,
    /// Column indices; within a row the strictly-lower columns come first in
    /// increasing order, followed by the diagonal column (== row index).
    col_idx: Arc<Vec<usize>>,
    /// Values, laid out parallel to `col_idx`.
    values: Vec<f64>,
}

impl LowerTriangularCsr {
    /// Builds a lower-triangular matrix from a general CSR matrix.
    ///
    /// Every entry must satisfy `col <= row`; rows missing a diagonal entry
    /// (or carrying a zero diagonal) are rejected because the triangular
    /// solve would divide by zero.
    pub fn from_csr(csr: &CsrMatrix) -> Result<Self> {
        if csr.nrows() != csr.ncols() {
            return Err(MatrixError::DimensionMismatch(format!(
                "lower-triangular matrix must be square, got {}x{}",
                csr.nrows(),
                csr.ncols()
            )));
        }
        let n = csr.nrows();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(csr.nnz());
        let mut values = Vec::with_capacity(csr.nnz());
        row_ptr.push(0);
        for r in 0..n {
            let mut diag: Option<f64> = None;
            for (&c, &v) in csr.row_cols(r).iter().zip(csr.row_values(r)) {
                if c > r {
                    return Err(MatrixError::NotLowerTriangular { row: r, col: c });
                }
                if c == r {
                    diag = Some(v);
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            match diag {
                Some(d) if d != 0.0 => {
                    col_idx.push(r);
                    values.push(d);
                }
                _ => return Err(MatrixError::SingularDiagonal { row: r }),
            }
            row_ptr.push(col_idx.len());
        }
        Ok(LowerTriangularCsr {
            n,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values,
        })
    }

    /// The same pattern with new `values` (laid out parallel to
    /// [`LowerTriangularCsr::col_idx`]): the pattern's allocations are
    /// shared, not copied, so [`LowerTriangularCsr::shares_pattern_with`]
    /// holds between the two.
    ///
    /// Fails with [`MatrixError::DimensionMismatch`] when `values` is not
    /// `nnz` long and with [`MatrixError::SingularDiagonal`] when a row's
    /// diagonal (its last entry) is zero.
    pub fn with_values(&self, values: Vec<f64>) -> Result<Self> {
        if values.len() != self.nnz() {
            return Err(MatrixError::DimensionMismatch(format!(
                "{} values for a pattern of {} entries",
                values.len(),
                self.nnz()
            )));
        }
        if let Some(row) = (0..self.n).find(|&r| values[self.row_ptr[r + 1] - 1] == 0.0) {
            return Err(MatrixError::SingularDiagonal { row });
        }
        Ok(LowerTriangularCsr {
            n: self.n,
            row_ptr: Arc::clone(&self.row_ptr),
            col_idx: Arc::clone(&self.col_idx),
            values,
        })
    }

    /// Whether `other` holds this operand's pattern allocations rather than
    /// an equal copy: true between an operand and any
    /// [`LowerTriangularCsr::with_values`] of it.
    pub fn shares_pattern_with(&self, other: &LowerTriangularCsr) -> bool {
        Arc::ptr_eq(&self.row_ptr, &other.row_ptr) && Arc::ptr_eq(&self.col_idx, &other.col_idx)
    }

    /// The value array, by value (the pattern is dropped or kept shared).
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Extracts the lower triangle of a general (e.g. symmetric) matrix and
    /// builds the triangular operand from it.
    pub fn from_lower_triangle_of(csr: &CsrMatrix) -> Result<Self> {
        Self::from_csr(&csr.lower_triangle())
    }

    /// Dimension `n` of the square matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries (strictly-lower + diagonal).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Average row density `nnz / n`.
    pub fn row_density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n as f64
        }
    }

    /// Row pointer array (`index1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (`subscript1`).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array (`valueL`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The strictly-lower column indices of row `r` (excludes the diagonal).
    pub fn row_off_diag_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1] - 1]
    }

    /// The strictly-lower values of row `r` (excludes the diagonal).
    pub fn row_off_diag_values(&self, r: usize) -> &[f64] {
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1] - 1]
    }

    /// The diagonal value of row `r`.
    pub fn diag(&self, r: usize) -> f64 {
        self.values[self.row_ptr[r + 1] - 1]
    }

    /// Number of stored entries in row `r` including the diagonal.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Solves `L x = b` sequentially (forward substitution) and returns `x`.
    pub fn solve_seq(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(MatrixError::DimensionMismatch(format!(
                "b has length {} but L is {}x{}",
                b.len(),
                self.n,
                self.n
            )));
        }
        let mut x = vec![0.0; self.n];
        self.solve_seq_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `L x = b` sequentially into a caller-provided buffer.
    pub fn solve_seq_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        if b.len() != self.n || x.len() != self.n {
            return Err(MatrixError::DimensionMismatch(
                "b and x must both have length n".into(),
            ));
        }
        for i in 0..self.n {
            let start = self.row_ptr[i];
            let end = self.row_ptr[i + 1];
            let mut acc = 0.0;
            for k in start..end - 1 {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            x[i] = (b[i] - acc) / self.values[end - 1];
        }
        Ok(())
    }

    /// Solves the transposed system `Lᵀ x = b` (an upper-triangular solve)
    /// sequentially and returns `x`.
    ///
    /// `L` is stored by rows, which is column-major storage for `Lᵀ`, so the
    /// solve uses the classic column sweep: once `x[i]` is known, its
    /// contribution is scattered into the remaining right-hand side entries.
    /// Together with [`LowerTriangularCsr::solve_seq`] this provides the
    /// forward/backward pair needed by symmetric Gauss–Seidel and incomplete
    /// Cholesky preconditioners.
    pub fn solve_transpose_seq(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.n];
        self.solve_transpose_seq_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `Lᵀ x = b` sequentially into a caller-provided buffer with no
    /// heap allocation: `x` doubles as the running right-hand side of the
    /// column sweep (each finalized `x[i]` scatters its update into the
    /// still-pending entries below it in the buffer).
    pub fn solve_transpose_seq_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        if b.len() != self.n || x.len() != self.n {
            return Err(MatrixError::DimensionMismatch(format!(
                "b and x must both have length {} but got {} and {}",
                self.n,
                b.len(),
                x.len()
            )));
        }
        x.copy_from_slice(b);
        for i in (0..self.n).rev() {
            let start = self.row_ptr[i];
            let end = self.row_ptr[i + 1];
            let xi = x[i] / self.values[end - 1];
            x[i] = xi;
            for k in start..end - 1 {
                x[self.col_idx[k]] -= self.values[k] * xi;
            }
        }
        Ok(())
    }

    /// Computes `y = Lᵀ x` (used to manufacture right-hand sides for the
    /// transposed solve).
    pub fn multiply_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n {
            return Err(MatrixError::DimensionMismatch(format!(
                "x has length {} but L is {}x{}",
                x.len(),
                self.n,
                self.n
            )));
        }
        let mut y = vec![0.0; self.n];
        for (i, &xi) in x.iter().enumerate() {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                y[self.col_idx[k]] += self.values[k] * xi;
            }
        }
        Ok(y)
    }

    /// Computes `y = L x` (used to manufacture right-hand sides and to verify
    /// solutions via the residual).
    pub fn multiply(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n {
            return Err(MatrixError::DimensionMismatch(format!(
                "x has length {} but L is {}x{}",
                x.len(),
                self.n,
                self.n
            )));
        }
        let mut y = vec![0.0; self.n];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Converts back to a general [`CsrMatrix`] with columns fully sorted
    /// (diagonal in its natural position).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for r in 0..self.n {
            for (&c, &v) in self
                .row_off_diag_cols(r)
                .iter()
                .zip(self.row_off_diag_values(r))
            {
                col_idx.push(c);
                values.push(v);
            }
            col_idx.push(r);
            values.push(self.diag(r));
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw_unchecked(self.n, self.n, row_ptr, col_idx, values)
    }

    /// Returns the symmetric pattern matrix `A = L + Lᵀ` whose graph `G1`
    /// drives the reorderings of the paper. The diagonal is summed with
    /// itself (`2D`); [`LowerTriangularCsr::permute_symmetric`] keeps it.
    pub fn symmetrized(&self) -> CsrMatrix {
        self.to_csr().plus_transpose()
    }

    /// Applies a symmetric permutation to `L` and returns
    /// `lower(P (L + Lᵀ − D) Pᵀ)`, where `D` is `L`'s diagonal: rows and
    /// columns are relabelled by `perm` (new index → old index), every
    /// entry that lands above the diagonal is mirrored into the lower
    /// triangle, and the diagonal is kept as is.
    ///
    /// This is the paper's use of reorderings: the symmetric pattern
    /// `A = L + Lᵀ` is permuted and its lower triangle becomes the new
    /// operand, which changes the dependency structure but not the values.
    /// Every value bit of `L` is kept, so the identity permutation returns
    /// `L`, and `perm` followed by its inverse returns `L`.
    ///
    /// Two counting passes over `L`'s `nnz` entries (bucket by new column,
    /// then scatter the columns in increasing order into their rows); no
    /// sort and no symmetric matrix in between. Rows come out sorted with
    /// the diagonal last.
    pub fn permute_symmetric(&self, perm: &[usize]) -> Result<LowerTriangularCsr> {
        let n = self.n;
        let inv = inverse_permutation(perm, n)?;
        // Entry (r, c) lands at (max, min) of its new labels.
        let placed = |r: usize, c: usize| {
            let (p, q) = (inv[r], inv[c]);
            (p.max(q), p.min(q))
        };
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_ptr = vec![0usize; n + 1];
        for r in 0..n {
            for &c in &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]] {
                let (row, col) = placed(r, c);
                row_ptr[row + 1] += 1;
                col_ptr[col + 1] += 1;
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
            col_ptr[i + 1] += col_ptr[i];
        }
        let nnz = row_ptr[n];
        // Pass 1: bucket every entry by its new column.
        let mut by_col = vec![(0usize, 0.0f64); nnz];
        let mut next = col_ptr[..n].to_vec();
        for r in 0..n {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let (row, col) = placed(r, self.col_idx[k]);
                by_col[next[col]] = (row, self.values[k]);
                next[col] += 1;
            }
        }
        // Pass 2: the columns in increasing order into their rows, which
        // fills every row sorted, the diagonal (its largest column) last.
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        next.copy_from_slice(&row_ptr[..n]);
        for c in 0..n {
            for &(row, v) in &by_col[col_ptr[c]..col_ptr[c + 1]] {
                col_idx[next[row]] = c;
                values[next[row]] = v;
                next[row] += 1;
            }
        }
        Ok(LowerTriangularCsr {
            n,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values,
        })
    }

    /// The values of `lower(P a Pᵀ)` on this operand's pattern, which the
    /// result shares ([`LowerTriangularCsr::with_values`]): each entry
    /// `(r, c)` of `a`'s lower triangle, diagonal included, is written
    /// into the slot of its new position `(max, min)` of the relabelled
    /// `(r, c)`, found by a binary search in that row of the pattern. For
    /// a symmetric `a` whose `lower(P a Pᵀ)` has exactly this pattern, the
    /// result equals [`LowerTriangularCsr::permute_symmetric`] of `lower(a)`
    /// bit for bit, without building a second pattern. `perm` maps new
    /// indices to old ones.
    ///
    /// The check is exact: every entry must find its slot, and `a`'s lower
    /// triangle must hold as many entries as the pattern. A
    /// [`CsrMatrix`]'s rows have strictly increasing columns, so distinct
    /// entries land in distinct slots and the two conditions together mean
    /// the patterns are equal.
    ///
    /// Fails with [`MatrixError::InvalidStructure`] when the patterns
    /// differ, [`MatrixError::DimensionMismatch`] when `a` is not `n × n`,
    /// [`MatrixError::InvalidParameter`] when `perm` is not a permutation of
    /// its rows, and [`MatrixError::SingularDiagonal`] when a diagonal
    /// value is zero.
    pub fn with_lower_of(&self, a: &CsrMatrix, perm: &[usize]) -> Result<LowerTriangularCsr> {
        let n = self.n;
        if a.nrows() != n || a.ncols() != n {
            return Err(MatrixError::DimensionMismatch(format!(
                "matrix is {}x{}, the pattern is {n}x{n}",
                a.nrows(),
                a.ncols()
            )));
        }
        let inv = inverse_permutation(perm, n)?;
        let mut values = vec![0.0f64; self.nnz()];
        let mut filled = 0usize;
        for r in 0..n {
            let cols = a.row_cols(r);
            let lower = cols.partition_point(|&c| c <= r);
            for (&c, &v) in cols[..lower].iter().zip(a.row_values(r)) {
                let (p, q) = (inv[r], inv[c]);
                let (row, col) = (p.max(q), p.min(q));
                let slots = self.row_ptr[row]..self.row_ptr[row + 1];
                let Ok(k) = self.col_idx[slots.clone()].binary_search(&col) else {
                    return Err(MatrixError::InvalidStructure(format!(
                        "entry ({r}, {c}) of the matrix has no slot in the pattern"
                    )));
                };
                values[slots.start + k] = v;
            }
            filled += lower;
        }
        if filled != self.nnz() {
            return Err(MatrixError::InvalidStructure(format!(
                "the matrix's lower triangle holds {filled} entries, the pattern {}",
                self.nnz()
            )));
        }
        self.with_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// The 9x9 example from Figure 1 of the paper (pattern only; values are
    /// chosen to make L diagonally dominant).
    pub(crate) fn paper_example() -> LowerTriangularCsr {
        // Lower-triangular pattern of Figure 1 (1-based in the paper):
        // row: columns (strictly lower) — diag always present
        // 1: -       2: -      3: 1      4: 2     5: -
        // 6: 3,4     7: 4,5,6  8: 5,7    9: 1,2,8
        let pattern: &[(usize, &[usize])] = &[
            (0, &[]),
            (1, &[]),
            (2, &[0]),
            (3, &[1]),
            (4, &[]),
            (5, &[2, 3]),
            (6, &[3, 4, 5]),
            (7, &[4, 6]),
            (8, &[0, 1, 7]),
        ];
        let mut coo = CooMatrix::new(9, 9);
        for &(r, cols) in pattern {
            for &c in cols {
                coo.push(r, c, -1.0).unwrap();
            }
            coo.push(r, r, 4.0).unwrap();
        }
        LowerTriangularCsr::from_csr(&coo.to_csr()).unwrap()
    }

    #[test]
    fn rejects_upper_triangular_entries() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let e = LowerTriangularCsr::from_csr(&coo.to_csr());
        assert!(matches!(
            e,
            Err(MatrixError::NotLowerTriangular { row: 0, col: 1 })
        ));
    }

    #[test]
    fn rejects_missing_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let e = LowerTriangularCsr::from_csr(&coo.to_csr());
        assert!(matches!(e, Err(MatrixError::SingularDiagonal { row: 1 })));
    }

    #[test]
    fn rejects_zero_diagonal() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 0.0).unwrap();
        let e = LowerTriangularCsr::from_csr(&coo.to_csr());
        assert!(matches!(e, Err(MatrixError::SingularDiagonal { row: 0 })));
    }

    #[test]
    fn rejects_rectangular_matrices() {
        let coo = CooMatrix::new(2, 3);
        let e = LowerTriangularCsr::from_csr(&coo.to_csr());
        assert!(matches!(e, Err(MatrixError::DimensionMismatch(_))));
    }

    #[test]
    fn diagonal_is_stored_last_per_row() {
        let l = paper_example();
        for r in 0..l.n() {
            let end = l.row_ptr()[r + 1];
            assert_eq!(
                l.col_idx()[end - 1],
                r,
                "row {r} must end with its diagonal"
            );
            // off-diagonal columns strictly increasing and < r
            let off = l.row_off_diag_cols(r);
            for w in off.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(off.iter().all(|&c| c < r));
        }
    }

    #[test]
    fn solve_seq_identity() {
        let l = LowerTriangularCsr::from_csr(&CsrMatrix::identity(5)).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(l.solve_seq(&b).unwrap(), b);
    }

    #[test]
    fn solve_seq_matches_multiply_roundtrip() {
        let l = paper_example();
        let x_true: Vec<f64> = (0..l.n()).map(|i| (i as f64 + 1.0) * 0.5).collect();
        let b = l.multiply(&x_true).unwrap();
        let x = l.solve_seq(&b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_rejects_wrong_length_rhs() {
        let l = paper_example();
        assert!(l.solve_seq(&[1.0; 3]).is_err());
        assert!(l.multiply(&[1.0; 3]).is_err());
        assert!(l.solve_transpose_seq(&[1.0; 3]).is_err());
        assert!(l.multiply_transpose(&[1.0; 3]).is_err());
    }

    #[test]
    fn transpose_solve_inverts_transpose_multiply() {
        let l = paper_example();
        let x_true: Vec<f64> = (0..l.n()).map(|i| 1.0 - 0.1 * i as f64).collect();
        let b = l.multiply_transpose(&x_true).unwrap();
        let x = l.solve_transpose_seq(&b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_solve_matches_dense_upper_solve() {
        // Forward then backward solve applied to L Lᵀ x = b reproduces x.
        let l = paper_example();
        let x_true = vec![2.0; l.n()];
        let b = l.multiply(&l.multiply_transpose(&x_true).unwrap()).unwrap();
        let y = l.solve_seq(&b).unwrap();
        let x = l.solve_transpose_seq(&y).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_solve_on_identity_is_a_noop() {
        let l = LowerTriangularCsr::from_csr(&CsrMatrix::identity(4)).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(l.solve_transpose_seq(&b).unwrap(), b);
    }

    #[test]
    fn to_csr_roundtrip_preserves_entries() {
        let l = paper_example();
        let csr = l.to_csr();
        let l2 = LowerTriangularCsr::from_csr(&csr).unwrap();
        assert_eq!(l, l2);
    }

    #[test]
    fn symmetrized_matches_figure_one() {
        let l = paper_example();
        let a = l.symmetrized();
        assert!(a.is_symmetric(1e-12));
        // Figure 1: vertex 9 (index 8) is adjacent to 1, 2 and 8 (indices 0, 1, 7).
        let neighbors: Vec<usize> = a.row_cols(8).iter().copied().filter(|&c| c != 8).collect();
        assert_eq!(neighbors, vec![0, 1, 7]);
    }

    /// `lower(P A Pᵀ)` built the way the analysis built it before it became
    /// counting passes: `A = L + Lᵀ − D` through a COO round trip, relabelled
    /// through a second COO (which sorts every row), lower triangle
    /// extracted.
    fn permute_symmetric_reference(l: &LowerTriangularCsr, perm: &[usize]) -> LowerTriangularCsr {
        let n = l.n();
        let mut a = CooMatrix::with_capacity(n, n, 2 * l.nnz());
        for i in 0..n {
            for (&j, &v) in l.row_off_diag_cols(i).iter().zip(l.row_off_diag_values(i)) {
                a.push(i, j, v).unwrap();
                a.push(j, i, v).unwrap();
            }
            a.push(i, i, l.diag(i)).unwrap();
        }
        let a = a.to_csr();
        let mut inv = vec![0; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let mut pa = CooMatrix::with_capacity(n, n, a.nnz());
        for (r, c, v) in a.iter() {
            pa.push(inv[r], inv[c], v).unwrap();
        }
        LowerTriangularCsr::from_lower_triangle_of(&pa.to_csr()).unwrap()
    }

    /// Figure 1 and the tiny suite's lower operands.
    fn operands() -> Vec<LowerTriangularCsr> {
        let mut ls = vec![paper_example()];
        for m in crate::suite::TestSuite::generate(crate::suite::SuiteScale::Tiny)
            .unwrap()
            .matrices
        {
            ls.push(m.lower().unwrap());
        }
        ls
    }

    /// The reversal and a seeded shuffle of `0..n`.
    fn permutations(n: usize) -> [Vec<usize>; 2] {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut shuffled: Vec<usize> = (0..n).collect();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(n as u64));
        [(0..n).rev().collect(), shuffled]
    }

    #[test]
    fn permute_symmetric_by_the_identity_returns_l_bit_for_bit() {
        for l in operands() {
            let id: Vec<usize> = (0..l.n()).collect();
            assert_eq!(l.permute_symmetric(&id).unwrap(), l);
        }
    }

    #[test]
    fn permute_symmetric_then_its_inverse_returns_l_bit_for_bit() {
        for l in operands() {
            for perm in permutations(l.n()) {
                let mut inv = vec![0; perm.len()];
                for (new, &old) in perm.iter().enumerate() {
                    inv[old] = new;
                }
                let back = l
                    .permute_symmetric(&perm)
                    .unwrap()
                    .permute_symmetric(&inv)
                    .unwrap();
                assert_eq!(back, l);
            }
        }
    }

    #[test]
    fn permute_symmetric_equals_the_lower_triangle_of_the_permuted_symmetric_matrix() {
        for l in operands() {
            for perm in permutations(l.n()) {
                assert_eq!(
                    l.permute_symmetric(&perm).unwrap(),
                    permute_symmetric_reference(&l, &perm)
                );
            }
        }
    }

    #[test]
    fn permute_symmetric_keeps_the_diagonal() {
        let l = paper_example();
        let perm: Vec<usize> = (0..l.n()).rev().collect();
        let lp = l.permute_symmetric(&perm).unwrap();
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(lp.diag(new), l.diag(old));
        }
        assert!(l.permute_symmetric(&[0; 9]).is_err());
        assert!(l.permute_symmetric(&[0, 1]).is_err());
    }

    #[test]
    fn permute_symmetric_preserves_solution_up_to_relabelling() {
        let l = paper_example();
        let n = l.n();
        // reverse permutation
        let perm: Vec<usize> = (0..n).rev().collect();
        let lp = l.permute_symmetric(&perm).unwrap();
        assert_eq!(lp.n(), n);
        assert_eq!(lp.nnz(), l.nnz());
        // The permuted matrix must still be solvable and well formed.
        let ones = vec![1.0; n];
        let b = lp.multiply(&ones).unwrap();
        let x = lp.solve_seq(&b).unwrap();
        for v in x {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn with_lower_of_equals_permuting_the_lower_triangle() {
        let suite = crate::suite::TestSuite::generate(crate::suite::SuiteScale::Tiny).unwrap();
        for m in suite.matrices {
            let l = m.lower().unwrap();
            for perm in permutations(l.n()) {
                let lp = l.permute_symmetric(&perm).unwrap();
                let filled = lp.with_lower_of(&m.symmetric, &perm).unwrap();
                assert!(filled.shares_pattern_with(&lp));
                let bits = |l: &LowerTriangularCsr| -> Vec<u64> {
                    l.values().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&filled), bits(&lp));
            }
        }
    }

    #[test]
    fn with_lower_of_rejects_other_patterns() {
        // The 3 × 3 tridiagonal operator and its pattern.
        let tri = |entries: &[(usize, usize)]| {
            let mut coo = CooMatrix::new(3, 3);
            for i in 0..3 {
                coo.push(i, i, 4.0).unwrap();
            }
            for &(r, c) in entries {
                coo.push_symmetric(r, c, -1.0).unwrap();
            }
            coo.to_csr()
        };
        let a = tri(&[(1, 0), (2, 1)]);
        let l = LowerTriangularCsr::from_lower_triangle_of(&a).unwrap();
        let id = [0, 1, 2];
        assert_eq!(l.with_lower_of(&a, &id).unwrap(), l);
        let structure =
            |e: Result<LowerTriangularCsr>| matches!(e, Err(MatrixError::InvalidStructure(_)));
        // A moved pair (same count), a dropped pair, an added pair.
        assert!(structure(l.with_lower_of(&tri(&[(1, 0), (2, 0)]), &id)));
        assert!(structure(l.with_lower_of(&tri(&[(1, 0)]), &id)));
        assert!(structure(
            l.with_lower_of(&tri(&[(1, 0), (2, 1), (2, 0)]), &id)
        ));
        // A bad permutation, a wrong size, a zero diagonal.
        assert!(matches!(
            l.with_lower_of(&a, &[0, 0, 1]),
            Err(MatrixError::InvalidParameter(_))
        ));
        assert!(matches!(
            l.with_lower_of(&CsrMatrix::identity(2), &[0, 1]),
            Err(MatrixError::DimensionMismatch(_))
        ));
        let mut zero = a.clone();
        zero.values_mut()[0] = 0.0;
        assert!(matches!(
            l.with_lower_of(&zero, &id),
            Err(MatrixError::SingularDiagonal { row: 0 })
        ));
    }

    #[test]
    fn with_values_shares_the_pattern() {
        let l = paper_example();
        let doubled: Vec<f64> = l.values().iter().map(|v| v * 2.0).collect();
        let l2 = l.with_values(doubled.clone()).unwrap();
        assert!(l2.shares_pattern_with(&l) && l.shares_pattern_with(&l2));
        assert_eq!((l2.row_ptr(), l2.col_idx()), (l.row_ptr(), l.col_idx()));
        assert_eq!(l2.into_values(), doubled);
        // An equal copy is not a shared pattern.
        let copy = LowerTriangularCsr::from_csr(&l.to_csr()).unwrap();
        assert_eq!(copy, l);
        assert!(!copy.shares_pattern_with(&l));
        // Wrong length, zero diagonal.
        assert!(matches!(
            l.with_values(vec![1.0; 3]),
            Err(MatrixError::DimensionMismatch(_))
        ));
        let mut zero_diag = l.values().to_vec();
        zero_diag[l.row_ptr()[5] - 1] = 0.0;
        assert!(matches!(
            l.with_values(zero_diag),
            Err(MatrixError::SingularDiagonal { row: 4 })
        ));
    }
}
