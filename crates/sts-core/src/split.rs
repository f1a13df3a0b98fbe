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
//! The layout additionally records **readiness metadata**: for every row,
//! the number of leading packs that must be done before its external reads
//! are final ([`SplitLayout::ext_dep`] — `1 +` the latest earlier pack the
//! row's external entries reference, `0` when it has none; a row whose
//! latest dependency is pack 0 therefore stores `1`, not `0`). A chunk is
//! ready as soon as the packs `0..max(ext_dep)` of its rows are *done* —
//! typically much earlier than "the previous pack is done". The
//! level-scheduled IC(0) build waits on exactly this, and the schedule
//! verifier proves the sweeps against it.
//!
//! The layout duplicates the operand's off-diagonal storage (ext + int slabs
//! hold every strictly-lower entry exactly once, next to the original CSR
//! arrays). It is therefore built **lazily**: [`StsStructure::split`] builds
//! it on first use (and the split kernels force it), so unsplit-only callers
//! skip the ≈2× off-diagonal storage and the build sweep entirely.
//!
//! # One type, two directions
//!
//! The backward sweep `L'ᵀ x' = b'` runs on the same type: [`SplitLayout`]
//! built from the transposed operand by [`crate::transpose`], where
//! "earlier pack" reads "later pack" (an earlier *stage* of the reverse
//! sweep), readiness is stamped in reverse stage numbering and chain rows
//! are stored in decreasing order. The kernels take a `&SplitLayout` plus a
//! stage → pack mapping and never ask which direction they run.
//!
//! [`StsStructure::split`]: crate::csrk::StsStructure::split
//!
//! [`StsStructure::validate`]: crate::csrk::StsStructure::validate

use std::sync::OnceLock;

use sts_matrix::LowerTriangularCsr;

/// Per-row split of the reordered operand (or its transpose) into external
/// (off-pack) and internal (in-pack) slabs, plus the readiness metadata the
/// level-scheduled factorization and the schedule verifier read. Built
/// lazily by the first
/// [`StsStructure::split`](crate::csrk::StsStructure::split) /
/// [`StsStructure::transpose_split`](crate::csrk::StsStructure::transpose_split)
/// call; immutable afterwards. Field and accessor docs are phrased for the
/// forward layout; see the module docs for the transpose reading.
#[derive(Debug, Clone)]
pub struct SplitLayout {
    /// CSR row pointer over the external slab (`n + 1` entries).
    ext_row_ptr: Vec<usize>,
    /// Columns of the external slab, referencing rows of earlier packs
    /// only. Stored as `u32` to halve the slab's index traffic
    /// ([`StsStructure::new`](crate::csrk::StsStructure::new) rejects
    /// systems with more than 2^32 rows).
    ext_cols: Vec<u32>,
    /// Values of the external slab.
    ext_vals: Vec<f64>,
    /// CSR row pointer over the internal slab (`n + 1` entries).
    int_row_ptr: Vec<usize>,
    /// Columns of the internal slab, referencing rows of the same
    /// super-row, as `u32` like `ext_cols`.
    int_cols: Vec<u32>,
    /// Values of the internal slab.
    int_vals: Vec<f64>,
    /// Reciprocal diagonal, `1.0 / L'[i][i]`.
    inv_diag: Vec<f64>,
    /// Super-rows owning at least one internal entry ("chain tasks"),
    /// grouped by pack: the chain tasks of pack `p` are
    /// `chain_srs[chain_sr_ptr[p]..chain_sr_ptr[p + 1]]`. Phase 2 dispatches
    /// only these; all other super-rows are final after phase 1.
    chain_srs: Vec<usize>,
    /// Pack pointer into `chain_srs` (`num_packs + 1` entries).
    chain_sr_ptr: Vec<usize>,
    /// The chain *rows* (rows with internal entries) of each chain task, in
    /// row order: task `t` of `chain_srs` owns
    /// `chain_rows[chain_row_ptr[t]..chain_row_ptr[t + 1]]`. Phase 2 visits
    /// exactly these rows and no others.
    chain_rows: Vec<u32>,
    /// Task pointer into `chain_rows` (`chain_srs.len() + 1` entries).
    chain_row_ptr: Vec<usize>,
    /// Per-row readiness: `1 + (latest pack referenced by the row's external
    /// entries)`, `0` when the row has none. The row's phase-1 gather may run
    /// as soon as packs `0..ext_dep[i]` are done.
    ext_dep: Vec<u32>,
    /// Lazily demoted `f32` copy of `ext_vals` for the mixed-precision
    /// kernels (storage-only — accumulation stays `f64`). Built on first
    /// [`SplitLayout::ext_vals_f32`] call so `f64`-only callers never pay
    /// the extra storage; ignored by `PartialEq` like the lazy caches on
    /// `StsStructure`.
    ext_vals_f32: OnceLock<Vec<f32>>,
    /// Lazily demoted `f32` copy of `int_vals` (see `ext_vals_f32`).
    int_vals_f32: OnceLock<Vec<f32>>,
}

/// Equality compares the built slabs and metadata; the lazily demoted `f32`
/// value caches are derived data and are ignored (the same convention as
/// `StsStructure`'s lazy layout caches).
impl PartialEq for SplitLayout {
    fn eq(&self, other: &SplitLayout) -> bool {
        self.ext_row_ptr == other.ext_row_ptr
            && self.ext_cols == other.ext_cols
            && self.ext_vals == other.ext_vals
            && self.int_row_ptr == other.int_row_ptr
            && self.int_cols == other.int_cols
            && self.int_vals == other.int_vals
            && self.inv_diag == other.inv_diag
            && self.chain_srs == other.chain_srs
            && self.chain_sr_ptr == other.chain_sr_ptr
            && self.chain_rows == other.chain_rows
            && self.chain_row_ptr == other.chain_row_ptr
            && self.ext_dep == other.ext_dep
    }
}

/// The per-row slabs a layout constructor produces, before the chain tasks
/// are grouped ([`SplitLayout::from_slabs`]); fields as on [`SplitLayout`].
pub(crate) struct Slabs {
    pub(crate) ext_row_ptr: Vec<usize>,
    pub(crate) ext_cols: Vec<u32>,
    pub(crate) ext_vals: Vec<f64>,
    pub(crate) int_row_ptr: Vec<usize>,
    pub(crate) int_cols: Vec<u32>,
    pub(crate) int_vals: Vec<f64>,
    pub(crate) inv_diag: Vec<f64>,
    pub(crate) ext_dep: Vec<u32>,
}

/// The order phase 2 visits a chain task's rows in: increasing for the
/// forward substitution, decreasing for the backward one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChainOrder {
    Increasing,
    Decreasing,
}

/// Row → pack lookup from the validated hierarchy arrays.
pub(crate) fn pack_of_rows(n: usize, index3: &[usize], index2: &[usize]) -> Vec<u32> {
    let mut pack_of_row = vec![0u32; n];
    for p in 0..index3.len() - 1 {
        let rows = index2[index3[p]]..index2[index3[p + 1]];
        pack_of_row[rows].fill(p as u32);
    }
    pack_of_row
}

impl SplitLayout {
    /// Splits the reordered operand's rows at each row's pack boundary (the
    /// forward layout; [`crate::transpose::build`] is the other
    /// constructor).
    ///
    /// `pack_start_row[i]` must be the first row of the pack containing row
    /// `i`: because packs execute in row order, a column is external exactly
    /// when it is smaller than its row's pack start. `index3`/`index2` are
    /// the validated hierarchy arrays, used to group the chain tasks by
    /// pack.
    pub(crate) fn build(
        l: &LowerTriangularCsr,
        pack_start_row: &[usize],
        index3: &[usize],
        index2: &[usize],
    ) -> SplitLayout {
        let n = l.n();
        // Enforced with a proper error by StsStructure::new before this runs.
        debug_assert!(
            n == 0 || n - 1 <= u32::MAX as usize,
            "columns are stored as u32"
        );
        let row_ptr = l.row_ptr();
        let col_idx = l.col_idx();
        let values = l.values();
        let off_diag = l.nnz() - n;
        let pack_of_row = pack_of_rows(n, index3, index2);
        let mut ext_row_ptr = Vec::with_capacity(n + 1);
        let mut int_row_ptr = Vec::with_capacity(n + 1);
        let mut ext_cols = Vec::with_capacity(off_diag);
        let mut ext_vals = Vec::with_capacity(off_diag);
        let mut int_cols = Vec::new();
        let mut int_vals = Vec::new();
        let mut inv_diag = Vec::with_capacity(n);
        let mut ext_dep = Vec::with_capacity(n);
        ext_row_ptr.push(0);
        int_row_ptr.push(0);
        for i in 0..n {
            let start = row_ptr[i];
            let end = row_ptr[i + 1];
            let pack_start = pack_start_row[i];
            let mut dep = 0u32;
            for k in start..end - 1 {
                if col_idx[k] < pack_start {
                    ext_cols.push(col_idx[k] as u32);
                    ext_vals.push(values[k]);
                    dep = dep.max(pack_of_row[col_idx[k]] + 1);
                } else {
                    int_cols.push(col_idx[k] as u32);
                    int_vals.push(values[k]);
                }
            }
            ext_row_ptr.push(ext_cols.len());
            int_row_ptr.push(int_cols.len());
            inv_diag.push(1.0 / values[end - 1]);
            debug_assert!(
                dep <= pack_of_row[i],
                "external reads stay in earlier packs"
            );
            ext_dep.push(dep);
        }
        SplitLayout::from_slabs(
            Slabs {
                ext_row_ptr,
                ext_cols,
                ext_vals,
                int_row_ptr,
                int_cols,
                int_vals,
                inv_diag,
                ext_dep,
            },
            index3,
            index2,
            ChainOrder::Increasing,
        )
    }

    /// Completes a layout from its per-row slabs: groups the super-rows that
    /// own internal entries ("chain tasks") by pack, and records each task's
    /// chain rows in the order phase 2 must visit them, so phase 2 visits
    /// nothing else.
    pub(crate) fn from_slabs(
        slabs: Slabs,
        index3: &[usize],
        index2: &[usize],
        order: ChainOrder,
    ) -> SplitLayout {
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
                if order == ChainOrder::Decreasing {
                    chain_rows[first..].reverse();
                }
                chain_row_ptr.push(chain_rows.len());
            }
            chain_sr_ptr.push(chain_srs.len());
        }
        SplitLayout {
            ext_row_ptr: slabs.ext_row_ptr,
            ext_cols: slabs.ext_cols,
            ext_vals: slabs.ext_vals,
            int_row_ptr: slabs.int_row_ptr,
            int_cols: slabs.int_cols,
            int_vals: slabs.int_vals,
            inv_diag: slabs.inv_diag,
            chain_srs,
            chain_sr_ptr,
            chain_rows,
            chain_row_ptr,
            ext_dep: slabs.ext_dep,
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
        self.ext_cols.len()
    }

    /// Total entries in the internal (in-pack) slab.
    pub fn int_nnz(&self) -> usize {
        self.int_cols.len()
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
        &self.ext_row_ptr
    }

    /// The external slab's column array.
    #[inline]
    pub fn ext_cols(&self) -> &[u32] {
        &self.ext_cols
    }

    /// The external slab's value array.
    #[inline]
    pub fn ext_vals(&self) -> &[f64] {
        &self.ext_vals
    }

    /// The internal slab's CSR row pointer (`n + 1` entries).
    #[inline]
    pub fn int_row_ptr(&self) -> &[usize] {
        &self.int_row_ptr
    }

    /// The internal slab's column array.
    #[inline]
    pub fn int_cols(&self) -> &[u32] {
        &self.int_cols
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
        let r = self.ext_row_ptr[i]..self.ext_row_ptr[i + 1];
        (&self.ext_cols[r.clone()], &self.ext_vals[r])
    }

    /// Internal entries of row `i` as parallel `(cols, vals)` slices.
    #[inline]
    pub fn int_row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.int_row_ptr[i]..self.int_row_ptr[i + 1];
        (&self.int_cols[r.clone()], &self.int_vals[r])
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
        &self.chain_srs[self.chain_sr_ptr[p]..self.chain_sr_ptr[p + 1]]
    }

    /// The chain rows of the `t`-th chain task of pack `p`, in row order —
    /// exactly the rows phase 2 must correct for that task.
    #[inline]
    pub fn chain_rows_of(&self, p: usize, t: usize) -> &[u32] {
        let task = self.chain_sr_ptr[p] + t;
        &self.chain_rows[self.chain_row_ptr[task]..self.chain_row_ptr[task + 1]]
    }

    /// Per-row readiness metadata: `ext_dep()[i]` is `1 +` the latest pack
    /// referenced by row `i`'s external entries (`0` when it has none). Row
    /// `i`'s phase-1 gather may run as soon as packs `0..ext_dep()[i]` are
    /// done.
    #[inline]
    pub fn ext_dep(&self) -> &[u32] {
        &self.ext_dep
    }

    /// Readiness of a contiguous row range (a phase-1 gather chunk): the
    /// number of leading packs that must be done before every external read
    /// of the range is final. Always `≤` the range's own pack, and for
    /// chained orderings typically `<` — the slack the level-scheduled
    /// IC(0) build overlaps.
    #[inline]
    pub fn range_ext_dep(&self, rows: std::ops::Range<usize>) -> u32 {
        self.ext_dep[rows].iter().copied().max().unwrap_or(0)
    }

    /// External entries of a contiguous row range, as one streamable slab
    /// (used by benches to verify the layout is contiguous per pack).
    pub fn ext_range_nnz(&self, rows: std::ops::Range<usize>) -> usize {
        self.ext_row_ptr[rows.end] - self.ext_row_ptr[rows.start]
    }

    /// Internal entries of a contiguous row range.
    pub fn int_range_nnz(&self, rows: std::ops::Range<usize>) -> usize {
        self.int_row_ptr[rows.end] - self.int_row_ptr[rows.start]
    }
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
        let a = generators::grid2d_9point(14, 14).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 8).unwrap();
        let split = s.split();
        for p in 0..s.num_packs() {
            let rows = s.pack_rows(p);
            for i in rows.clone() {
                let (ext_cols, _) = split.ext_row(i);
                assert!(ext_cols.iter().all(|&j| (j as usize) < rows.start));
                let (int_cols, _) = split.int_row(i);
                assert!(int_cols
                    .iter()
                    .all(|&j| rows.contains(&(j as usize)) && (j as usize) < i));
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
    fn readiness_metadata_bounds_every_external_read() {
        let a = generators::triangulated_grid(12, 12, 7).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            let split = s.split();
            // Row → pack lookup from the structure.
            let mut pack_of = vec![0usize; s.n()];
            for p in 0..s.num_packs() {
                for r in s.pack_rows(p) {
                    pack_of[r] = p;
                }
            }
            let mut any_slack = false;
            for p in 0..s.num_packs() {
                let rows = s.pack_rows(p);
                assert!(split.range_ext_dep(rows.clone()) as usize <= p);
                for i in rows {
                    let dep = split.ext_dep()[i];
                    let (cols, _) = split.ext_row(i);
                    // dep is exactly 1 + the latest referenced pack.
                    let latest = cols.iter().map(|&j| pack_of[j as usize] + 1).max();
                    assert_eq!(dep as usize, latest.unwrap_or(0));
                    if p > 0 && (dep as usize) < p {
                        any_slack = true;
                    }
                }
            }
            // The tentpole premise: some rows' gathers are ready before the
            // predecessor pack finishes (row-granular slack; whole packs
            // rarely have it under level-set orderings, where every level
            // depends on its predecessor by construction).
            if s.num_packs() > 2 {
                assert!(
                    any_slack,
                    "{}: no level-scheduling slack found in the readiness metadata",
                    method.label()
                );
            }
        }
    }

    #[test]
    fn ext_dep_distinguishes_a_pack_zero_dependency_from_none() {
        // Level-set packs: pack 0 is the dependency-free level, and every
        // pack-1 row reads pack-0 rows only. The encoding must keep those two
        // cases apart: "no external reads" stores 0, "latest dependency is
        // pack 0" stores 1.
        let l = generators::paper_figure1_l();
        let s = Method::CsrLs.build(&l, 2).unwrap();
        assert!(s.num_packs() > 1);
        let split = s.split();
        for i in s.pack_rows(0) {
            assert_eq!(split.ext_dep()[i], 0, "pack-0 row {i} has no dependency");
        }
        let pack0 = s.pack_rows(0);
        let mut saw_boundary_row = false;
        for i in s.pack_rows(1) {
            let (cols, _) = split.ext_row(i);
            if cols.is_empty() {
                assert_eq!(split.ext_dep()[i], 0);
                continue;
            }
            assert!(cols.iter().all(|&j| pack0.contains(&(j as usize))));
            assert_eq!(
                split.ext_dep()[i],
                1,
                "row {i}'s latest dependency is pack 0, so it must store 1, not 0"
            );
            saw_boundary_row = true;
        }
        assert!(saw_boundary_row, "some pack-1 row depends on pack 0");
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
