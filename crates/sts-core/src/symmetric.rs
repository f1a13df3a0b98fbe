//! The symmetric layout: the operator `A = L' + L'ᵀ − D` row by row, the
//! one copy of the operator a Krylov iteration multiplies by.
//!
//! A system bound to an STS ordering keeps its reordered lower triangle
//! `L'` anyway (the sweeps' operand, and the carrier of the ordering), and
//! `L'` alone defines the symmetric operator. This layout is `A` in CSR
//! form built from `L'`: row `i` holds `L'`'s row `i` (the strictly-lower
//! entries, then the diagonal) and then `L'ᵀ`'s row `i` (the entries
//! `L'[j][i]`, `j > i`), so every row lists its columns in increasing
//! order, as a CSR product reads them. Columns are `u32`
//! ([`StsStructure::new`] checks `n − 1 ≤ u32::MAX`), 12 bytes per entry
//! against 16 for a `usize`-indexed CSR matrix.
//!
//! Like the split layouts it is built on first use
//! ([`StsStructure::symmetric`]), in one counting pass over `L'`, and a
//! factor structure never builds it.
//!
//! [`StsStructure::new`]: crate::csrk::StsStructure::new
//! [`StsStructure::symmetric`]: crate::csrk::StsStructure::symmetric

use sts_matrix::LowerTriangularCsr;

/// `L' + L'ᵀ − D` in CSR form with `u32` columns; see the
/// [module documentation](self).
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricLayout {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SymmetricLayout {
    /// Builds the layout of `l`: a count of each row's transpose entries,
    /// then one pass over `l`'s rows in increasing order that copies row
    /// `i` in place and appends each strictly-lower entry `(i, j)` to row
    /// `j`, which leaves every row's transpose part sorted.
    pub(crate) fn build(l: &LowerTriangularCsr) -> SymmetricLayout {
        let n = l.n();
        debug_assert!(
            n == 0 || n - 1 <= u32::MAX as usize,
            "columns are stored as u32"
        );
        let (l_ptr, l_cols, l_vals) = (l.row_ptr(), l.col_idx(), l.values());
        // row_ptr[i + 1] first counts row i's transpose entries.
        let mut row_ptr = vec![0usize; n + 1];
        for &j in (0..n).flat_map(|i| l.row_off_diag_cols(i)) {
            row_ptr[j + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i] + l.row_nnz(i);
        }
        let nnz = row_ptr[n];
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        // The next free slot of each row's transpose part.
        let mut next: Vec<usize> = (0..n).map(|i| row_ptr[i] + l.row_nnz(i)).collect();
        for i in 0..n {
            let (src, dst) = (l_ptr[i]..l_ptr[i + 1], row_ptr[i]..next[i]);
            for (c, &j) in col_idx[dst.clone()].iter_mut().zip(&l_cols[src.clone()]) {
                *c = j as u32;
            }
            values[dst].copy_from_slice(&l_vals[src.clone()]);
            for k in src.start..src.end - 1 {
                let j = l_cols[k];
                col_idx[next[j]] = i as u32;
                values[next[j]] = l_vals[k];
                next[j] += 1;
            }
        }
        SymmetricLayout {
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Dimension of the operator.
    pub fn n(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Stored entries: `2 · nnz(L') − n`.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointers into `col_idx` / `values`.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, increasing within each row.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Values, parallel to `col_idx`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::generators;

    #[test]
    fn the_layout_is_the_symmetric_operator_with_sorted_rows() {
        let a = generators::grid2d_9point(5, 4).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let sym = SymmetricLayout::build(&l);
        assert_eq!(sym.n(), a.nrows());
        assert_eq!(sym.nnz(), a.nnz());
        assert_eq!(sym.row_ptr(), a.row_ptr());
        let cols: Vec<usize> = sym.col_idx().iter().map(|&c| c as usize).collect();
        assert_eq!(cols, a.col_idx());
        assert_eq!(sym.values(), a.values());
    }

    #[test]
    fn an_empty_operator_has_an_empty_layout() {
        let l = LowerTriangularCsr::from_csr(&sts_matrix::CooMatrix::new(0, 0).to_csr()).unwrap();
        let sym = SymmetricLayout::build(&l);
        assert_eq!((sym.n(), sym.nnz()), (0, 0));
    }
}
