//! The dependency-split CSR layout behind the two-phase solve engine.
//!
//! The pack-parallel solver's critical path walks every row's full nonzero
//! list between two barriers. But most of those nonzeros reference rows of
//! *earlier* packs — components that are already final when the pack starts.
//! Only the few entries that reference the row's own super-row form a true
//! dependence chain. [`SplitLayout`] materialises that distinction at build
//! time by splitting every row's off-diagonal entries into two slabs:
//!
//! * the **external** slab holds the `(col, val)` pairs whose column belongs
//!   to an earlier pack. Gathering them is a pure sparse-matrix-vector
//!   product against finalized data — embarrassingly parallel, no ordering
//!   constraint, bandwidth-bound streaming;
//! * the **internal** slab holds the entries whose column belongs to the same
//!   pack (and therefore, by [`StsStructure::validate`]'s pack-independence
//!   invariant, to the same super-row). This is the short true dependence
//!   chain that must run under the pack schedule.
//!
//! Both slabs are stored contiguously in pack-major, row-major order — the
//! rows of a pack are contiguous in the reordered numbering, so a pack's
//! external slab is one dense streamable range. The reciprocal of each
//! diagonal is precomputed so the substitution multiplies instead of divides.
//!
//! The split sweep runs a stage's gather once the barrier that ends the
//! previous stage has published every earlier pack; the schedule verifier
//! ([`crate::verify`]) proves that every external column names such a row.
//!
//! # Per-pattern and per-value arrays
//!
//! Which slab, row and column an entry of the operand lands in depends only
//! on the operand's sparsity pattern and the pack hierarchy. Those arrays —
//! the slabs' row pointers and `u32` columns, and the chain tasks — form a
//! `SplitPattern`, built once per analysed pattern and shared by `Arc`
//! between every structure of that pattern (a rebound system, its
//! incomplete factor, a recovery factor). A [`SplitLayout`] adds what a
//! structure's values decide: the two value slabs, written by one
//! value-only pass over the operand (`SplitLayout::fill`), and the
//! reciprocal diagonal, which the layouts of both sweep directions share.
//! A first build is the pattern pass followed by that same value pass.
//!
//! The layout duplicates the operand's off-diagonal values (ext + int slabs
//! hold every strictly-lower entry exactly once, next to the original CSR
//! arrays). It is therefore built **lazily**: [`StsStructure::split`] builds
//! it on first use (and the split kernels force it), so unsplit-only callers
//! skip the extra storage and the build sweep entirely.
//!
//! # One type, two directions
//!
//! The backward sweep `L'ᵀ x' = b'` runs on the same type: [`SplitLayout`]
//! built from the transposed operand by [`crate::transpose`], where
//! "earlier pack" reads "later pack" (an earlier *stage* of the reverse
//! sweep) and chain rows are stored in decreasing order. The kernels take a
//! `&SplitLayout` plus a stage → pack mapping and never ask which direction
//! they run.
//!
//! [`StsStructure::split`]: crate::csrk::StsStructure::split
//!
//! [`StsStructure::validate`]: crate::csrk::StsStructure::validate

use std::sync::{Arc, OnceLock};

use sts_matrix::LowerTriangularCsr;

use crate::options::SweepDirection;

/// The per-pattern half of a [`SplitLayout`]: the slabs' row pointers and
/// columns and the chain tasks phase 2 dispatches, for one sweep direction.
/// Field docs are phrased for the forward layout; see the module docs for
/// the transpose reading.
#[derive(Debug, PartialEq)]
pub(crate) struct SplitPattern {
    /// The sweep this pattern serves, which decides its value pass.
    direction: SweepDirection,
    /// CSR row pointer over the external slab (`n + 1` entries).
    ext_row_ptr: Vec<usize>,
    /// Columns of the external slab, referencing rows of earlier packs
    /// only. Stored as `u32` to halve the slab's index traffic
    /// ([`StsStructure::new`](crate::csrk::StsStructure::new) rejects
    /// systems with more than 2^32 rows).
    ext_cols: Vec<u32>,
    /// CSR row pointer over the internal slab (`n + 1` entries).
    int_row_ptr: Vec<usize>,
    /// Columns of the internal slab, referencing rows of the same
    /// super-row, as `u32` like `ext_cols`.
    int_cols: Vec<u32>,
    /// Super-rows owning at least one internal entry ("chain tasks"),
    /// grouped by pack: the chain tasks of pack `p` are
    /// `chain_srs[chain_sr_ptr[p]..chain_sr_ptr[p + 1]]`. Phase 2 dispatches
    /// only these; all other super-rows are final after phase 1.
    chain_srs: Vec<usize>,
    /// Pack pointer into `chain_srs` (`num_packs + 1` entries).
    chain_sr_ptr: Vec<usize>,
    /// The chain *rows* (rows with internal entries) of each chain task, in
    /// the order phase 2 visits them: task `t` of `chain_srs` owns
    /// `chain_rows[chain_row_ptr[t]..chain_row_ptr[t + 1]]`. Phase 2 visits
    /// exactly these rows and no others.
    chain_rows: Vec<u32>,
    /// Task pointer into `chain_rows` (`chain_srs.len() + 1` entries).
    chain_row_ptr: Vec<usize>,
}

/// The per-row slab index arrays a pattern constructor produces, before the
/// chain tasks are grouped ([`SplitPattern::from_slabs`]); fields as on
/// [`SplitPattern`].
pub(crate) struct SlabPattern {
    pub(crate) ext_row_ptr: Vec<usize>,
    pub(crate) ext_cols: Vec<u32>,
    pub(crate) int_row_ptr: Vec<usize>,
    pub(crate) int_cols: Vec<u32>,
}

impl SplitPattern {
    /// The pattern of a sweep in `direction` over `l`'s pattern, grouped by
    /// the validated hierarchy arrays `index3`/`index2`.
    pub(crate) fn build(
        l: &LowerTriangularCsr,
        index3: &[usize],
        index2: &[usize],
        direction: SweepDirection,
    ) -> SplitPattern {
        let n = l.n();
        // Enforced with a proper error by StsStructure::new before this runs.
        debug_assert!(
            n == 0 || n - 1 <= u32::MAX as usize,
            "columns are stored as u32"
        );
        let slabs = match direction {
            SweepDirection::Forward => forward_slabs(l, index3, index2),
            SweepDirection::Transpose => crate::transpose::slabs(l, index3, index2),
        };
        SplitPattern::from_slabs(slabs, index3, index2, direction)
    }

    /// Completes a pattern from its per-row slabs: groups the super-rows
    /// that own internal entries ("chain tasks") by pack, and records each
    /// task's chain rows in the order phase 2 must visit them — increasing
    /// for the forward substitution, decreasing for the backward one — so
    /// phase 2 visits nothing else.
    fn from_slabs(
        slabs: SlabPattern,
        index3: &[usize],
        index2: &[usize],
        direction: SweepDirection,
    ) -> SplitPattern {
        let num_packs = index3.len() - 1;
        let int_row_ptr = &slabs.int_row_ptr;
        let mut chain_srs = Vec::new();
        let mut chain_sr_ptr = Vec::with_capacity(num_packs + 1);
        let mut chain_rows = Vec::new();
        let mut chain_row_ptr = vec![0usize];
        chain_sr_ptr.push(0);
        for p in 0..num_packs {
            for sr in index3[p]..index3[p + 1] {
                let rows = index2[sr]..index2[sr + 1];
                if int_row_ptr[rows.start] == int_row_ptr[rows.end] {
                    continue;
                }
                chain_srs.push(sr);
                let first = chain_rows.len();
                chain_rows.extend(
                    rows.filter(|&r| int_row_ptr[r] != int_row_ptr[r + 1])
                        .map(|r| r as u32),
                );
                if direction == SweepDirection::Transpose {
                    chain_rows[first..].reverse();
                }
                chain_row_ptr.push(chain_rows.len());
            }
            chain_sr_ptr.push(chain_srs.len());
        }
        SplitPattern {
            direction,
            ext_row_ptr: slabs.ext_row_ptr,
            ext_cols: slabs.ext_cols,
            int_row_ptr: slabs.int_row_ptr,
            int_cols: slabs.int_cols,
            chain_srs,
            chain_sr_ptr,
            chain_rows,
            chain_row_ptr,
        }
    }

    /// Entries of the external slab.
    pub(crate) fn ext_nnz(&self) -> usize {
        self.ext_cols.len()
    }

    /// Entries of the internal slab.
    pub(crate) fn int_nnz(&self) -> usize {
        self.int_cols.len()
    }

    /// The external slab's CSR row pointer.
    pub(crate) fn ext_row_ptr(&self) -> &[usize] {
        &self.ext_row_ptr
    }

    /// The internal slab's CSR row pointer.
    pub(crate) fn int_row_ptr(&self) -> &[usize] {
        &self.int_row_ptr
    }
}

/// The forward slabs: a row's strictly-lower columns are sorted, so its
/// external entries (columns before its pack's first row) are a prefix of
/// the row and its internal entries the rest.
fn forward_slabs(l: &LowerTriangularCsr, index3: &[usize], index2: &[usize]) -> SlabPattern {
    let n = l.n();
    let off_diag = l.nnz() - n;
    let mut slabs = SlabPattern {
        ext_row_ptr: Vec::with_capacity(n + 1),
        ext_cols: Vec::with_capacity(off_diag),
        int_row_ptr: Vec::with_capacity(n + 1),
        int_cols: Vec::new(),
    };
    slabs.ext_row_ptr.push(0);
    slabs.int_row_ptr.push(0);
    for p in 0..index3.len() - 1 {
        let pack_start = index2[index3[p]];
        for i in pack_start..index2[index3[p + 1]] {
            let cols = l.row_off_diag_cols(i);
            let (ext, int) = cols.split_at(cols.partition_point(|&c| c < pack_start));
            slabs.ext_cols.extend(ext.iter().map(|&c| c as u32));
            slabs.int_cols.extend(int.iter().map(|&c| c as u32));
            slabs.ext_row_ptr.push(slabs.ext_cols.len());
            slabs.int_row_ptr.push(slabs.int_cols.len());
        }
    }
    slabs
}

/// Per-row split of the reordered operand (or its transpose) into external
/// (off-pack) and internal (in-pack) slabs, plus the chain tasks phase 2
/// dispatches: a shared `SplitPattern` and this structure's values. Built
/// lazily by the first
/// [`StsStructure::split`](crate::csrk::StsStructure::split) /
/// [`StsStructure::transpose_split`](crate::csrk::StsStructure::transpose_split)
/// call; immutable afterwards. Accessor docs are phrased for the forward
/// layout; see the module docs for the transpose reading.
#[derive(Debug, Clone)]
pub struct SplitLayout {
    /// The index arrays and chain tasks, shared by every structure of the
    /// pattern.
    pattern: Arc<SplitPattern>,
    /// Values of the external slab, parallel to the pattern's `ext_cols`.
    ext_vals: Vec<f64>,
    /// Values of the internal slab, parallel to the pattern's `int_cols`.
    int_vals: Vec<f64>,
    /// Reciprocal diagonal, `1.0 / L'[i][i]`, shared by the layouts of both
    /// sweep directions of one structure.
    inv_diag: Arc<[f64]>,
    /// Lazily demoted `f32` copy of `ext_vals` for the mixed-precision
    /// kernels (storage-only — accumulation stays `f64`). Built on first
    /// [`SplitLayout::ext_vals_f32`] call so `f64`-only callers never pay
    /// the extra storage; ignored by `PartialEq` like the lazy caches on
    /// `StsStructure`.
    ext_vals_f32: OnceLock<Vec<f32>>,
    /// Lazily demoted `f32` copy of `int_vals` (see `ext_vals_f32`).
    int_vals_f32: OnceLock<Vec<f32>>,
}

/// Equality compares the pattern, the value slabs and the reciprocal
/// diagonal; the lazily demoted `f32` value caches are derived data and are
/// ignored (the same convention as `StsStructure`'s lazy layout caches).
impl PartialEq for SplitLayout {
    fn eq(&self, other: &SplitLayout) -> bool {
        self.pattern == other.pattern
            && self.ext_vals == other.ext_vals
            && self.int_vals == other.int_vals
            && self.inv_diag == other.inv_diag
    }
}

impl SplitLayout {
    /// The value pass: `l`'s strictly-lower values written into `pattern`'s
    /// slabs. `l` must carry the pattern's operand pattern, and `inv_diag`
    /// its reciprocal diagonal.
    pub(crate) fn fill(
        pattern: &Arc<SplitPattern>,
        l: &LowerTriangularCsr,
        inv_diag: &Arc<[f64]>,
    ) -> SplitLayout {
        let (ext_vals, int_vals) = match pattern.direction {
            SweepDirection::Forward => forward_values(pattern, l),
            SweepDirection::Transpose => crate::transpose::values(pattern, l),
        };
        SplitLayout {
            pattern: Arc::clone(pattern),
            ext_vals,
            int_vals,
            inv_diag: Arc::clone(inv_diag),
            ext_vals_f32: OnceLock::new(),
            int_vals_f32: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.inv_diag.len()
    }

    /// Total entries in the external (off-pack) slab.
    pub fn ext_nnz(&self) -> usize {
        self.pattern.ext_nnz()
    }

    /// Total entries in the internal (in-pack) slab.
    pub fn int_nnz(&self) -> usize {
        self.pattern.int_nnz()
    }

    /// The demoted `f32` copy of the external value slab, built on first
    /// use (one rounding per entry; the reciprocal diagonal is *not*
    /// demoted). Thread-safe: concurrent first calls race benignly inside
    /// the `OnceLock`.
    #[inline]
    pub fn ext_vals_f32(&self) -> &[f32] {
        self.ext_vals_f32
            .get_or_init(|| self.ext_vals.iter().map(|&v| v as f32).collect())
    }

    /// The demoted `f32` copy of the internal value slab (see
    /// [`SplitLayout::ext_vals_f32`]).
    #[inline]
    pub fn int_vals_f32(&self) -> &[f32] {
        self.int_vals_f32
            .get_or_init(|| self.int_vals.iter().map(|&v| v as f32).collect())
    }

    /// Whether the demoted `f32` slabs have been built yet (diagnostic;
    /// `f64`-only callers should keep this `false`).
    pub fn f32_slabs_built(&self) -> bool {
        self.ext_vals_f32.get().is_some() && self.int_vals_f32.get().is_some()
    }

    /// The external slab's CSR row pointer (`n + 1` entries).
    #[inline]
    pub fn ext_row_ptr(&self) -> &[usize] {
        &self.pattern.ext_row_ptr
    }

    /// The external slab's column array.
    #[inline]
    pub fn ext_cols(&self) -> &[u32] {
        &self.pattern.ext_cols
    }

    /// The external slab's value array.
    #[inline]
    pub fn ext_vals(&self) -> &[f64] {
        &self.ext_vals
    }

    /// The internal slab's CSR row pointer (`n + 1` entries).
    #[inline]
    pub fn int_row_ptr(&self) -> &[usize] {
        &self.pattern.int_row_ptr
    }

    /// The internal slab's column array.
    #[inline]
    pub fn int_cols(&self) -> &[u32] {
        &self.pattern.int_cols
    }

    /// The internal slab's value array.
    #[inline]
    pub fn int_vals(&self) -> &[f64] {
        &self.int_vals
    }

    /// The reciprocal diagonal array.
    #[inline]
    pub fn inv_diags(&self) -> &[f64] {
        &self.inv_diag
    }

    /// External entries of row `i` as parallel `(cols, vals)` slices.
    #[inline]
    pub fn ext_row(&self, i: usize) -> (&[u32], &[f64]) {
        let p = &self.pattern;
        let r = p.ext_row_ptr[i]..p.ext_row_ptr[i + 1];
        (&p.ext_cols[r.clone()], &self.ext_vals[r])
    }

    /// Internal entries of row `i` as parallel `(cols, vals)` slices.
    #[inline]
    pub fn int_row(&self, i: usize) -> (&[u32], &[f64]) {
        let p = &self.pattern;
        let r = p.int_row_ptr[i]..p.int_row_ptr[i + 1];
        (&p.int_cols[r.clone()], &self.int_vals[r])
    }

    /// Reciprocal diagonal of row `i`.
    #[inline]
    pub fn inv_diag(&self, i: usize) -> f64 {
        self.inv_diag[i]
    }

    /// The chain tasks of pack `p`: the super-rows with at least one
    /// internal entry, i.e. the only tasks phase 2 must dispatch.
    #[inline]
    pub fn chain_super_rows(&self, p: usize) -> &[usize] {
        let pattern = &self.pattern;
        &pattern.chain_srs[pattern.chain_sr_ptr[p]..pattern.chain_sr_ptr[p + 1]]
    }

    /// The chain rows of the `t`-th chain task of pack `p`, in row order —
    /// exactly the rows phase 2 must correct for that task.
    #[inline]
    pub fn chain_rows_of(&self, p: usize, t: usize) -> &[u32] {
        let pattern = &self.pattern;
        let task = pattern.chain_sr_ptr[p] + t;
        &pattern.chain_rows[pattern.chain_row_ptr[task]..pattern.chain_row_ptr[task + 1]]
    }

    /// External entries of a contiguous row range, as one streamable slab
    /// (used by benches to verify the layout is contiguous per pack).
    pub fn ext_range_nnz(&self, rows: std::ops::Range<usize>) -> usize {
        self.ext_row_ptr()[rows.end] - self.ext_row_ptr()[rows.start]
    }

    /// Internal entries of a contiguous row range.
    pub fn int_range_nnz(&self, rows: std::ops::Range<usize>) -> usize {
        self.int_row_ptr()[rows.end] - self.int_row_ptr()[rows.start]
    }
}

/// The forward value pass: each row's values split at its external prefix.
fn forward_values(pattern: &SplitPattern, l: &LowerTriangularCsr) -> (Vec<f64>, Vec<f64>) {
    let mut ext_vals = Vec::with_capacity(pattern.ext_nnz());
    let mut int_vals = Vec::with_capacity(pattern.int_nnz());
    let erp = &pattern.ext_row_ptr;
    for i in 0..l.n() {
        let (ext, int) = l.row_off_diag_values(i).split_at(erp[i + 1] - erp[i]);
        ext_vals.extend_from_slice(ext);
        int_vals.extend_from_slice(int);
    }
    (ext_vals, int_vals)
}

#[cfg(test)]
mod tests {
    use crate::builder::Method;
    use sts_matrix::generators;

    #[test]
    fn slabs_partition_the_off_diagonal_entries() {
        let a = generators::triangulated_grid(12, 12, 1).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            let split = s.split();
            assert_eq!(split.n(), s.n());
            assert_eq!(
                split.ext_nnz() + split.int_nnz(),
                s.nnz() - s.n(),
                "{}: ext + int must cover every strictly-lower entry",
                method.label()
            );
        }
    }

    #[test]
    fn external_entries_reference_earlier_packs_only() {
        let grid = generators::grid2d_9point(14, 14).unwrap();
        let triangulated = generators::triangulated_grid(12, 12, 7).unwrap();
        for a in [grid, triangulated] {
            let l = generators::lower_operand(&a).unwrap();
            for method in Method::all() {
                let s = method.build(&l, 8).unwrap();
                let split = s.split();
                for p in 0..s.num_packs() {
                    let rows = s.pack_rows(p);
                    for i in rows.clone() {
                        let (ext_cols, _) = split.ext_row(i);
                        assert!(
                            ext_cols.iter().all(|&j| (j as usize) < rows.start),
                            "{}: external entry of row {i} outside an earlier pack",
                            method.label()
                        );
                        let (int_cols, _) = split.int_row(i);
                        assert!(int_cols
                            .iter()
                            .all(|&j| rows.contains(&(j as usize)) && (j as usize) < i));
                    }
                }
            }
        }
    }

    #[test]
    fn internal_entries_stay_inside_the_super_row() {
        let a = generators::triangulated_grid(10, 10, 4).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        let split = s.split();
        for sr in 0..s.num_super_rows() {
            let rows = s.super_row_rows(sr);
            for i in rows.clone() {
                let (int_cols, _) = split.int_row(i);
                assert!(
                    int_cols.iter().all(|&j| rows.contains(&(j as usize))),
                    "internal entry of row {i} escapes super-row {sr}"
                );
            }
        }
    }

    #[test]
    fn range_nnz_matches_per_row_sums() {
        let a = generators::grid2d_laplacian(9, 9).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Csr3Ls.build(&l, 6).unwrap();
        let split = s.split();
        for p in 0..s.num_packs() {
            let rows = s.pack_rows(p);
            let ext_sum: usize = rows.clone().map(|i| split.ext_row(i).0.len()).sum();
            let int_sum: usize = rows.clone().map(|i| split.int_row(i).0.len()).sum();
            assert_eq!(split.ext_range_nnz(rows.clone()), ext_sum);
            assert_eq!(split.int_range_nnz(rows), int_sum);
        }
    }

    #[test]
    fn inv_diag_is_the_reciprocal_of_the_stored_diagonal() {
        let l = generators::paper_figure1_l();
        let s = Method::CsrCol.build(&l, 2).unwrap();
        let split = s.split();
        for i in 0..s.n() {
            assert!((split.inv_diag(i) * s.lower().diag(i) - 1.0).abs() < 1e-15);
        }
    }
}
