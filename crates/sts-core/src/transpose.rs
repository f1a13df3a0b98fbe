//! The transpose (backward-sweep) constructor of the dependency-split layout.
//!
//! Preconditioned iterative solvers pair every forward sweep `L' y = r` with
//! a backward sweep `L'ᵀ z = t` — symmetric Gauss–Seidel and incomplete
//! Cholesky both apply the transpose once per iteration. `build` produces
//! the [`SplitLayout`] of `L'ᵀ`, so the backward sweep runs on the same
//! kernels and drivers as the forward one, with the packs visited in reverse.
//!
//! # Why reverse pack order is correct
//!
//! `L'ᵀ` is upper triangular: component `i` of the solution reads only
//! components `j > i` (`x[i] = (b[i] − Σ_{j>i} L'[j][i]·x[j]) / L'[i][i]`).
//! Classify each such read by where row `j` lives relative to row `i`'s pack:
//!
//! * if `j` is in a **different super-row**, then `L'[j][i] ≠ 0` means row
//!   `j` *depends on* row `i`, and [`StsStructure::validate`]'s
//!   pack-independence invariant forces `pack(j) > pack(i)` — a strictly
//!   **later** pack;
//! * otherwise `j` is in the **same super-row** as `i` (and the same pack).
//!
//! Executing the packs in **reverse order** therefore makes the transposed
//! system's dependence structure exactly mirror the forward one: when pack
//! `p` starts, every cross-super-row read targets a pack `> p` that has
//! already finished, so those entries gather in any order and any
//! interleaving (phase 1), and only the short within-super-row chains remain
//! ordered (phase 2, walking each super-row's rows in *decreasing* index
//! order, the reverse of the forward sweep). The split driver — and its
//! barrier correctness argument — carries over verbatim with "pack" read as
//! "stage".
//!
//! # What differs from the forward layout
//!
//! The slabs hold the transposed operand's strictly-upper entries row-wise
//! (CSR of `L'ᵀ`, i.e. CSC of `L'` without the diagonal): the **external**
//! slab of row `i` names rows `j` in *later* packs, the **internal** slab
//! rows `j > i` of the same super-row. Readiness
//! ([`SplitLayout::ext_dep`]) is stamped in **reverse stage numbering**: a
//! backward sweep runs stage `s` = pack `num_packs − 1 − s`, so a row whose
//! latest external read targets pack `q` is ready once the first
//! `num_packs − q` *stages* are done. Chain rows are stored per task in
//! decreasing row order, so phase 2 iterates them forward.
//!
//! Like the forward layout, it duplicates the off-diagonal storage and is
//! therefore built lazily by the first [`StsStructure::transpose_split`]
//! call.
//!
//! [`StsStructure::transpose_split`]: crate::csrk::StsStructure::transpose_split
//! [`StsStructure::validate`]: crate::csrk::StsStructure::validate

use sts_matrix::LowerTriangularCsr;

use crate::split::{pack_of_rows, ChainOrder, Slabs, SplitLayout};

/// Builds the transpose split of the reordered operand. `index3`/`index2`
/// are the validated hierarchy arrays; classification relies on the
/// pack-independence invariant (cross-super-row dependents live in strictly
/// later packs).
pub(crate) fn build(l: &LowerTriangularCsr, index3: &[usize], index2: &[usize]) -> SplitLayout {
    let n = l.n();
    debug_assert!(
        n == 0 || n - 1 <= u32::MAX as usize,
        "columns are stored as u32"
    );
    let row_ptr = l.row_ptr();
    let col_idx = l.col_idx();
    let values = l.values();
    let num_packs = index3.len() - 1;
    let pack_of_row = pack_of_rows(n, index3, index2);
    // Counting pass: each strictly-lower entry (j, i) of L' is an entry
    // (i, j) of the transpose; classify by pack(j) vs pack(i).
    let mut ext_count = vec![0usize; n];
    let mut int_count = vec![0usize; n];
    for j in 0..n {
        for &i in &col_idx[row_ptr[j]..row_ptr[j + 1] - 1] {
            if pack_of_row[j] > pack_of_row[i] {
                ext_count[i] += 1;
            } else {
                // Same pack ⇒ same super-row by the pack-independence
                // invariant; an *earlier* pack is impossible for j > i.
                debug_assert_eq!(pack_of_row[j], pack_of_row[i]);
                int_count[i] += 1;
            }
        }
    }
    let mut ext_row_ptr = Vec::with_capacity(n + 1);
    let mut int_row_ptr = Vec::with_capacity(n + 1);
    ext_row_ptr.push(0);
    int_row_ptr.push(0);
    for i in 0..n {
        ext_row_ptr.push(ext_row_ptr[i] + ext_count[i]);
        int_row_ptr.push(int_row_ptr[i] + int_count[i]);
    }
    let mut ext_cols = vec![0u32; ext_row_ptr[n]];
    let mut ext_vals = vec![0.0f64; ext_row_ptr[n]];
    let mut int_cols = vec![0u32; int_row_ptr[n]];
    let mut int_vals = vec![0.0f64; int_row_ptr[n]];
    let mut ext_dep = vec![0u32; n];
    // Fill pass; sweeping j in increasing order leaves every
    // transpose-row's columns sorted increasingly.
    let mut ext_cursor = ext_row_ptr[..n].to_vec();
    let mut int_cursor = int_row_ptr[..n].to_vec();
    for j in 0..n {
        for k in row_ptr[j]..row_ptr[j + 1] - 1 {
            let i = col_idx[k];
            if pack_of_row[j] > pack_of_row[i] {
                ext_cols[ext_cursor[i]] = j as u32;
                ext_vals[ext_cursor[i]] = values[k];
                ext_cursor[i] += 1;
                // Reverse-stage readiness: pack q is stage
                // num_packs − 1 − q, so "stage of pack(j) done" is
                // epoch ≥ num_packs − pack(j).
                ext_dep[i] = ext_dep[i].max(num_packs as u32 - pack_of_row[j]);
            } else {
                int_cols[int_cursor[i]] = j as u32;
                int_vals[int_cursor[i]] = values[k];
                int_cursor[i] += 1;
            }
        }
    }
    SplitLayout::from_slabs(
        Slabs {
            ext_row_ptr,
            ext_cols,
            ext_vals,
            int_row_ptr,
            int_cols,
            int_vals,
            inv_diag: (0..n).map(|i| 1.0 / l.diag(i)).collect(),
            ext_dep,
        },
        index3,
        index2,
        ChainOrder::Decreasing,
    )
}

#[cfg(test)]
mod tests {
    use crate::builder::Method;
    use sts_matrix::generators;

    #[test]
    fn slabs_partition_the_strictly_lower_entries() {
        let a = generators::triangulated_grid(12, 12, 1).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            let ts = s.transpose_split();
            assert_eq!(ts.n(), s.n());
            assert_eq!(
                ts.ext_nnz() + ts.int_nnz(),
                s.nnz() - s.n(),
                "{}: ext + int must cover every strictly-lower entry",
                method.label()
            );
        }
    }

    #[test]
    fn external_entries_reference_later_packs_only() {
        let a = generators::grid2d_9point(14, 14).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 8).unwrap();
        let ts = s.transpose_split();
        for p in 0..s.num_packs() {
            let rows = s.pack_rows(p);
            for i in rows.clone() {
                let (ext_cols, _) = ts.ext_row(i);
                assert!(
                    ext_cols.iter().all(|&j| (j as usize) >= rows.end),
                    "external transpose entry of row {i} does not reach a later pack"
                );
                let (int_cols, _) = ts.int_row(i);
                assert!(int_cols
                    .iter()
                    .all(|&j| rows.contains(&(j as usize)) && (j as usize) > i));
            }
        }
    }

    #[test]
    fn internal_entries_stay_inside_the_super_row() {
        let a = generators::triangulated_grid(10, 10, 4).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        let ts = s.transpose_split();
        for sr in 0..s.num_super_rows() {
            let rows = s.super_row_rows(sr);
            for i in rows.clone() {
                let (int_cols, _) = ts.int_row(i);
                assert!(
                    int_cols.iter().all(|&j| rows.contains(&(j as usize))),
                    "internal transpose entry of row {i} escapes super-row {sr}"
                );
            }
        }
    }

    #[test]
    fn transpose_entries_mirror_the_forward_operand() {
        // Every (i, j, v) of the transpose layout must be a strictly-lower
        // (j, i, v) of L'.
        let a = generators::grid2d_laplacian(9, 9).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Csr3Ls.build(&l, 6).unwrap();
        let ts = s.transpose_split();
        let lp = s.lower();
        for i in 0..s.n() {
            for (cols, vals) in [ts.ext_row(i), ts.int_row(i)] {
                for (&j, &v) in cols.iter().zip(vals) {
                    let j = j as usize;
                    assert!(j > i);
                    let pos = lp
                        .row_off_diag_cols(j)
                        .iter()
                        .position(|&c| c == i)
                        .unwrap_or_else(|| panic!("transpose entry ({i}, {j}) not in L'"));
                    assert_eq!(lp.row_off_diag_values(j)[pos], v);
                }
            }
        }
    }

    #[test]
    fn chain_rows_are_stored_in_decreasing_order() {
        let a = generators::grid2d_laplacian(12, 12).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 6).unwrap();
        let ts = s.transpose_split();
        for p in 0..s.num_packs() {
            for t in 0..ts.chain_super_rows(p).len() {
                let rows = ts.chain_rows_of(p, t);
                assert!(!rows.is_empty());
                for w in rows.windows(2) {
                    assert!(
                        w[0] > w[1],
                        "chain rows must decrease for the backward sweep"
                    );
                }
            }
        }
    }

    #[test]
    fn readiness_metadata_bounds_every_external_read() {
        let a = generators::triangulated_grid(12, 12, 7).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            let ts = s.transpose_split();
            let num_packs = s.num_packs();
            let mut pack_of = vec![0usize; s.n()];
            for p in 0..num_packs {
                for r in s.pack_rows(p) {
                    pack_of[r] = p;
                }
            }
            for p in 0..num_packs {
                let rows = s.pack_rows(p);
                // The range's stage is num_packs − 1 − p.
                assert!(ts.range_ext_dep(rows.clone()) as usize <= num_packs - 1 - p);
                for i in rows {
                    let (cols, _) = ts.ext_row(i);
                    let latest = cols
                        .iter()
                        .map(|&j| num_packs as u32 - pack_of[j as usize] as u32)
                        .max();
                    assert_eq!(ts.ext_dep()[i], latest.unwrap_or(0));
                }
            }
        }
    }
}
