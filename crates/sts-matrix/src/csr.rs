//! Compressed sparse row storage.
//!
//! [`CsrMatrix`] is the "level-1" storage of the paper's CSR-k hierarchy:
//! a row-pointer array (`index1` in the paper's notation), a column-index
//! array (`subscript1`) and a value array (`valueL`). Columns within a row are
//! kept sorted and deduplicated; every routine in the workspace relies on
//! that invariant.

use crate::error::MatrixError;
use crate::Result;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating every structural
    /// invariant: pointer monotonicity, array lengths, column bounds and
    /// sortedness.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        let ptr_len = nrows.checked_add(1).ok_or_else(|| {
            MatrixError::InvalidStructure(format!("{nrows} rows need more row pointers than fit"))
        })?;
        if row_ptr.len() != ptr_len {
            return Err(MatrixError::InvalidStructure(format!(
                "row_ptr has length {} but expected {ptr_len}",
                row_ptr.len()
            )));
        }
        if row_ptr.first().copied().unwrap_or(0) != 0 {
            return Err(MatrixError::InvalidStructure("row_ptr[0] must be 0".into()));
        }
        if col_idx.len() != values.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "col_idx ({}) and values ({}) lengths differ",
                col_idx.len(),
                values.len()
            )));
        }
        if row_ptr[nrows] != col_idx.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "row_ptr[n]={} does not match nnz={}",
                row_ptr[nrows],
                col_idx.len()
            )));
        }
        // Monotone before any row is sliced: with row_ptr[n] = nnz, that
        // keeps every row's range inside col_idx.
        if let Some(r) = row_ptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(MatrixError::InvalidStructure(format!(
                "row_ptr decreases at row {r}"
            )));
        }
        for r in 0..nrows {
            let mut prev: Option<usize> = None;
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                if c >= ncols {
                    return Err(MatrixError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        nrows,
                        ncols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(MatrixError::InvalidStructure(format!(
                            "columns in row {r} are not strictly increasing"
                        )));
                    }
                }
                prev = Some(c);
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR matrix without validation. Intended for internal callers
    /// (e.g. [`CooMatrix::to_csr`](crate::CooMatrix::to_csr)) that construct
    /// the arrays correctly by design.
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Checks numeric and structural fitness for use as an SPD solver
    /// operand: monotone row pointers, in-bounds strictly-increasing column
    /// indices, every stored value finite and — for square matrices — a
    /// present, positive, finite diagonal in every row.
    ///
    /// Structural invariants are enforced at [`CsrMatrix::from_raw`] time
    /// already; `validate` re-verifies them so matrices assembled through
    /// [`CsrMatrix::from_raw_unchecked`] (or mutated via
    /// [`CsrMatrix::values_mut`]) get the same guarantees at the solver
    /// boundary, and adds the numeric checks no constructor performs.
    pub fn validate(&self) -> Result<()> {
        if self.row_ptr.len() != self.nrows + 1
            || self.row_ptr.first() != Some(&0)
            || self.col_idx.len() != self.values.len()
            || self.row_ptr.last() != Some(&self.values.len())
        {
            return Err(MatrixError::InvalidStructure(
                "row pointer array is inconsistent with the entry arrays".to_string(),
            ));
        }
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if lo > hi {
                return Err(MatrixError::InvalidStructure(format!(
                    "row pointers decrease at row {r}"
                )));
            }
            let mut diag = None;
            let mut prev: Option<usize> = None;
            for k in lo..hi {
                let c = self.col_idx[k];
                if c >= self.ncols {
                    return Err(MatrixError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        nrows: self.nrows,
                        ncols: self.ncols,
                    });
                }
                if prev.is_some_and(|p| p >= c) {
                    return Err(MatrixError::InvalidStructure(format!(
                        "row {r} columns are not strictly increasing"
                    )));
                }
                prev = Some(c);
                let v = self.values[k];
                if !v.is_finite() {
                    return Err(MatrixError::NonFinite {
                        row: r,
                        col: c,
                        value: v,
                    });
                }
                if c == r {
                    diag = Some(v);
                }
            }
            if self.nrows == self.ncols {
                match diag {
                    None => return Err(MatrixError::SingularDiagonal { row: r }),
                    Some(d) if d <= 0.0 => {
                        return Err(MatrixError::InvalidParameter(format!(
                            "row {r} has non-positive diagonal {d}; the operand is not positive \
                             definite"
                        )))
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Average row density `nnz / nrows` (0 for an empty matrix).
    pub fn row_density(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// The row pointer array (`index1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index array (`subscript1`).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (structure is immutable).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Column indices of row `r`.
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Values of row `r`.
    pub fn row_values(&self, r: usize) -> &[f64] {
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Returns the stored value at `(r, c)`, or `0.0` when the entry is not
    /// stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let cols = self.row_cols(r);
        match cols.binary_search(&c) {
            Ok(pos) => self.row_values(r)[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            self.row_cols(r)
                .iter()
                .zip(self.row_values(r).iter())
                .map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            row_counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            row_counts[i + 1] += row_counts[i];
        }
        let mut next = row_counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for r in 0..self.nrows {
            for (c, v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                let pos = next[*c];
                col_idx[pos] = r;
                values[pos] = *v;
                next[*c] += 1;
            }
        }
        // Rows of the transpose are filled in increasing original-row order,
        // so columns are already sorted.
        CsrMatrix::from_raw_unchecked(self.ncols, self.nrows, row_counts, col_idx, values)
    }

    /// Returns `A + Aᵀ` as a *pattern* union with summed values, which is the
    /// symmetric matrix whose undirected graph `G1` drives every ordering in
    /// the paper. Diagonal entries are kept once (values summed).
    pub fn plus_transpose(&self) -> CsrMatrix {
        let t = self.transpose();
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..self.nrows {
            let (ac, av) = (self.row_cols(r), self.row_values(r));
            let (bc, bv) = (t.row_cols(r), t.row_values(r));
            let (mut i, mut j) = (0, 0);
            while i < ac.len() || j < bc.len() {
                let take_a = j >= bc.len() || (i < ac.len() && ac[i] <= bc[j]);
                let take_b = i >= ac.len() || (j < bc.len() && bc[j] <= ac[i]);
                if take_a && take_b {
                    col_idx.push(ac[i]);
                    values.push(av[i] + bv[j]);
                    i += 1;
                    j += 1;
                } else if take_a {
                    col_idx.push(ac[i]);
                    values.push(av[i]);
                    i += 1;
                } else {
                    col_idx.push(bc[j]);
                    values.push(bv[j]);
                    j += 1;
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw_unchecked(self.nrows, self.ncols, row_ptr, col_idx, values)
    }

    /// Extracts the lower-triangular part (including the diagonal) as a new
    /// CSR matrix.
    pub fn lower_triangle(&self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..self.nrows {
            for (&c, &v) in self.row_cols(r).iter().zip(self.row_values(r)) {
                if c <= r {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw_unchecked(self.nrows, self.ncols, row_ptr, col_idx, values)
    }

    /// Applies a symmetric permutation: returns `P A Pᵀ` where the permuted
    /// matrix's row `i` is the original row `perm[i]`. `perm` maps
    /// new index → old index.
    ///
    /// Values are moved, never combined, so every stored bit is kept. One
    /// pass over the rows: each new row gathers its old row with relabelled
    /// columns and sorts it, `O(nnz log row length)`. This is kept over the
    /// two counting passes [`LowerTriangularCsr::permute_symmetric`] needs
    /// because it is faster on long rows: on the 56³ 27-point operator under
    /// its STS-3 ordering, which sends a row's neighbours to other packs, it
    /// took 150–180 ms against 220–290 ms for bucketing by new column and
    /// scattering into rows (two scattered writes per entry), on one core
    /// of a 2-vCPU x86-64 host; on a 300×300 triangulation the two tie.
    ///
    /// [`LowerTriangularCsr::permute_symmetric`]: crate::LowerTriangularCsr::permute_symmetric
    pub fn permute_symmetric(&self, perm: &[usize]) -> Result<CsrMatrix> {
        if self.nrows != self.ncols {
            return Err(MatrixError::DimensionMismatch(format!(
                "permutation length {} does not match square matrix dimension {}",
                perm.len(),
                self.nrows
            )));
        }
        let inv = inverse_permutation(perm, self.nrows)?;
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for &old_r in perm {
            scratch.clear();
            for (&c, &v) in self.row_cols(old_r).iter().zip(self.row_values(old_r)) {
                scratch.push((inv[c], v));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix::from_raw_unchecked(
            self.nrows, self.ncols, row_ptr, col_idx, values,
        ))
    }

    /// True if the matrix is structurally and numerically symmetric to within
    /// `tol`: row `r` stores, in order, exactly the entries of column `r`
    /// listed by increasing row, each within `tol` of its mirror.
    ///
    /// One pass over the entries with one cursor per row and no transpose:
    /// entry `(i, j)` must meet the next unconsumed entry of row `j`, at
    /// column `i`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.is_symmetric_by(|a, b| (a - b).abs() <= tol)
    }

    /// [`CsrMatrix::is_symmetric`] with a tolerance relative to the pair:
    /// every entry `a_ij` is within `rel_tol · max(|a_ij|, |a_ji|)` of its
    /// mirror, so the verdict does not change when the matrix is scaled.
    pub fn is_symmetric_relative(&self, rel_tol: f64) -> bool {
        self.is_symmetric_by(|a, b| (a - b).abs() <= rel_tol * a.abs().max(b.abs()))
    }

    /// The one walk behind both symmetry checks: `close(a_ij, a_ji)` judges
    /// every mirrored pair.
    fn is_symmetric_by(&self, close: impl Fn(f64, f64) -> bool) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let mut cursor = self.row_ptr[..self.nrows].to_vec();
        for i in 0..self.nrows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                let m = cursor[j];
                if m == self.row_ptr[j + 1] || self.col_idx[m] != i {
                    return false;
                }
                if !close(self.values[k], self.values[m]) {
                    return false;
                }
                cursor[j] = m + 1;
            }
        }
        // Every entry consumed one slot and no row overflowed, so every row
        // was consumed exactly.
        true
    }
}

/// Inverts `perm` (new index → old index) over `0..n`, rejecting anything
/// that is not a permutation of `0..n`.
pub(crate) fn inverse_permutation(perm: &[usize], n: usize) -> Result<Vec<usize>> {
    if perm.len() != n {
        return Err(MatrixError::DimensionMismatch(format!(
            "permutation length {} does not match square matrix dimension {n}",
            perm.len()
        )));
    }
    let mut inv = vec![usize::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        if old >= n || inv[old] != usize::MAX {
            return Err(MatrixError::InvalidParameter(
                "perm is not a permutation of 0..n".into(),
            ));
        }
        inv[old] = new;
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    #[test]
    fn from_raw_rejects_patterns_it_cannot_index() {
        // nrows + 1 overflows: no row_ptr can have that length.
        assert!(matches!(
            CsrMatrix::from_raw(usize::MAX, usize::MAX, vec![], vec![], vec![]),
            Err(MatrixError::InvalidStructure(_))
        ));
        // row_ptr[1] runs past nnz before row_ptr decreases back to it.
        assert!(matches!(
            CsrMatrix::from_raw(2, 2, vec![0, 5, 2], vec![0, 1], vec![1.0, 1.0]),
            Err(MatrixError::InvalidStructure(_))
        ));
    }

    #[test]
    fn validate_accepts_an_spd_like_operand() {
        let a = CsrMatrix::from_raw(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![2.0, -1.0, -1.0, 2.0],
        )
        .unwrap();
        assert!(a.validate().is_ok());
    }

    #[test]
    fn validate_rejects_non_finite_values() {
        let mut a = CsrMatrix::identity(3);
        a.values_mut()[1] = f64::NAN;
        assert!(matches!(
            a.validate(),
            Err(MatrixError::NonFinite { row: 1, col: 1, .. })
        ));
        a.values_mut()[1] = f64::INFINITY;
        assert!(matches!(a.validate(), Err(MatrixError::NonFinite { .. })));
    }

    #[test]
    fn validate_rejects_missing_or_non_positive_diagonals() {
        let missing = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 0], vec![1.0, 1.0]).unwrap();
        assert!(matches!(
            missing.validate(),
            Err(MatrixError::SingularDiagonal { row: 1 })
        ));
        let mut neg = CsrMatrix::identity(2);
        neg.values_mut()[0] = -1.0;
        assert!(matches!(
            neg.validate(),
            Err(MatrixError::InvalidParameter(_))
        ));
    }

    #[test]
    fn validate_rejects_malformed_unchecked_structure() {
        let bad = CsrMatrix::from_raw_unchecked(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(matches!(
            bad.validate(),
            Err(MatrixError::InvalidStructure(_))
        ));
        let oob = CsrMatrix::from_raw_unchecked(1, 1, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(
            oob.validate(),
            Err(MatrixError::IndexOutOfBounds { .. })
        ));
    }

    fn sample() -> CsrMatrix {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 2.0),
            (0, 2, 1.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn from_raw_validates_row_ptr_length() {
        let e = CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(e.is_err());
    }

    #[test]
    fn from_raw_validates_monotonicity() {
        let e = CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(MatrixError::InvalidStructure(_))));
    }

    #[test]
    fn from_raw_validates_column_bounds() {
        let e = CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(MatrixError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn from_raw_validates_sorted_columns() {
        let e = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(MatrixError::InvalidStructure(_))));
    }

    #[test]
    fn from_raw_accepts_valid_input() {
        let m = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).unwrap();
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let id = CsrMatrix::identity(4);
        assert_eq!(id.nnz(), 4);
        for i in 0..4 {
            assert_eq!(id.get(i, i), 1.0);
        }
    }

    #[test]
    fn get_returns_zero_for_missing_entries() {
        let m = sample();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 1.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_swaps_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.get(2, 0), 1.0);
    }

    #[test]
    fn plus_transpose_is_symmetric() {
        let m = sample();
        let s = m.plus_transpose();
        assert!(s.is_symmetric(0.0));
        assert_eq!(s.get(0, 0), 4.0); // diagonal summed
        assert_eq!(s.get(0, 2), 5.0); // 1 + 4
        assert_eq!(s.get(2, 0), 5.0);
    }

    #[test]
    fn lower_triangle_drops_upper_entries() {
        let m = sample();
        let l = m.lower_triangle();
        assert_eq!(l.get(0, 2), 0.0);
        assert_eq!(l.get(2, 0), 4.0);
        assert_eq!(l.nnz(), 4);
    }

    #[test]
    fn permute_symmetric_reverses() {
        let m = sample();
        let perm = vec![2, 1, 0];
        let p = m.permute_symmetric(&perm).unwrap();
        // New (0,0) should be old (2,2)
        assert_eq!(p.get(0, 0), 5.0);
        assert_eq!(p.get(2, 2), 2.0);
        // New (0,2) should be old (2,0)
        assert_eq!(p.get(0, 2), 4.0);
    }

    #[test]
    fn permute_symmetric_rejects_bad_permutation() {
        let m = sample();
        assert!(m.permute_symmetric(&[0, 0, 1]).is_err());
        assert!(m.permute_symmetric(&[0, 1]).is_err());
    }

    #[test]
    fn iter_visits_all_entries_in_row_major_order() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0)
            ]
        );
    }

    #[test]
    fn row_density_is_nnz_over_n() {
        let m = sample();
        assert!((m.row_density() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn is_symmetric_detects_asymmetry() {
        assert!(!sample().is_symmetric(1e-12));
        assert!(CsrMatrix::identity(3).is_symmetric(0.0));
    }

    #[test]
    fn relative_symmetry_scales_with_the_entries() {
        let pair = |d: f64, upper: f64, lower: f64| {
            CsrMatrix::from_raw(
                2,
                2,
                vec![0, 2, 4],
                vec![0, 1, 0, 1],
                vec![d, upper, lower, d],
            )
            .unwrap()
        };
        // One ulp apart at 2e11: symmetric relative to the entries.
        let big = -1e11f64;
        let stiff = pair(2e11, big, f64::from_bits(big.to_bits() + 1));
        assert!(stiff.is_symmetric_relative(1e-12));
        assert!(!stiff.is_symmetric(1e-12));
        // Half the size of its mirror: asymmetric at any scale.
        let tiny = pair(2e-13, -1e-13, -0.5e-13);
        assert!(!tiny.is_symmetric_relative(1e-12));
        assert!(tiny.is_symmetric(1e-12));
        assert!(!sample().is_symmetric_relative(1e-12));
        assert!(CsrMatrix::identity(3).is_symmetric_relative(0.0));
    }
}
