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
//! The row pointers and columns depend only on `L'`'s pattern: they form a
//! `SymmetricPattern`, built once per analysed pattern in one counting
//! pass and shared by `Arc` between every structure of that pattern. A
//! structure's [`SymmetricLayout`] adds only its values, written by one
//! value-only pass over `L'` (`SymmetricLayout::fill`). Like the split
//! layouts it is built on first use ([`StsStructure::symmetric`]), and a
//! factor structure never builds it.
//!
//! [`StsStructure::new`]: crate::csrk::StsStructure::new
//! [`StsStructure::symmetric`]: crate::csrk::StsStructure::symmetric

use std::sync::Arc;

use sts_matrix::LowerTriangularCsr;

/// The per-pattern half of a [`SymmetricLayout`]: row pointers and `u32`
/// columns of `L' + L'ᵀ − D`.
#[derive(Debug, PartialEq)]
pub(crate) struct SymmetricPattern {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
}

impl SymmetricPattern {
    /// The pattern of `l`'s symmetric operator: a count of each row's
    /// transpose entries, then one pass over `l`'s rows in increasing order
    /// that copies row `i`'s columns in place and appends `i` to the
    /// transpose part of row `j` for each strictly-lower entry `(i, j)`,
    /// which leaves every row's transpose part sorted.
    pub(crate) fn build(l: &LowerTriangularCsr) -> SymmetricPattern {
        let n = l.n();
        debug_assert!(
            n == 0 || n - 1 <= u32::MAX as usize,
            "columns are stored as u32"
        );
        // row_ptr[i + 1] first counts row i's transpose entries.
        let mut row_ptr = vec![0usize; n + 1];
        for &j in (0..n).flat_map(|i| l.row_off_diag_cols(i)) {
            row_ptr[j + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i] + l.row_nnz(i);
        }
        let mut col_idx = vec![0u32; row_ptr[n]];
        let mut next = transpose_starts(&row_ptr, l);
        for i in 0..n {
            let row = &l.col_idx()[l.row_ptr()[i]..l.row_ptr()[i + 1]];
            for (c, &j) in col_idx[row_ptr[i]..].iter_mut().zip(row) {
                *c = j as u32;
            }
            for &j in &row[..row.len() - 1] {
                col_idx[next[j]] = i as u32;
                next[j] += 1;
            }
        }
        SymmetricPattern { row_ptr, col_idx }
    }
}

/// The first slot of each row's transpose part: the row's start plus its
/// own `L'` entries.
fn transpose_starts(row_ptr: &[usize], l: &LowerTriangularCsr) -> Vec<usize> {
    (0..l.n()).map(|i| row_ptr[i] + l.row_nnz(i)).collect()
}

/// `L' + L'ᵀ − D` in CSR form with `u32` columns: a shared
/// `SymmetricPattern` and this structure's values; see the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct SymmetricLayout {
    pattern: Arc<SymmetricPattern>,
    values: Vec<f64>,
}

/// Equality compares the pattern's contents and the values.
impl PartialEq for SymmetricLayout {
    fn eq(&self, other: &SymmetricLayout) -> bool {
        self.pattern == other.pattern && self.values == other.values
    }
}

impl SymmetricLayout {
    /// The value pass: row `i` of `l` copied in place, and each
    /// strictly-lower value `(i, j)` appended to row `j`'s transpose part in
    /// the order [`SymmetricPattern::build`] wrote its column. `l` must
    /// carry the pattern's operand pattern.
    pub(crate) fn fill(pattern: &Arc<SymmetricPattern>, l: &LowerTriangularCsr) -> SymmetricLayout {
        let row_ptr = &pattern.row_ptr;
        let mut values = vec![0.0f64; pattern.col_idx.len()];
        let mut next = transpose_starts(row_ptr, l);
        for i in 0..l.n() {
            let row = &l.values()[l.row_ptr()[i]..l.row_ptr()[i + 1]];
            values[row_ptr[i]..row_ptr[i] + row.len()].copy_from_slice(row);
            for (&j, &v) in l.row_off_diag_cols(i).iter().zip(row) {
                values[next[j]] = v;
                next[j] += 1;
            }
        }
        SymmetricLayout {
            pattern: Arc::clone(pattern),
            values,
        }
    }

    /// Dimension of the operator.
    pub fn n(&self) -> usize {
        self.pattern.row_ptr.len() - 1
    }

    /// Stored entries: `2 · nnz(L') − n`.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointers into `col_idx` / `values`.
    pub fn row_ptr(&self) -> &[usize] {
        &self.pattern.row_ptr
    }

    /// Column indices, increasing within each row.
    pub fn col_idx(&self) -> &[u32] {
        &self.pattern.col_idx
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
        let sym = SymmetricLayout::fill(&Arc::new(SymmetricPattern::build(&l)), &l);
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
        let sym = SymmetricLayout::fill(&Arc::new(SymmetricPattern::build(&l)), &l);
        assert_eq!((sym.n(), sym.nnz()), (0, 0));
    }
}
