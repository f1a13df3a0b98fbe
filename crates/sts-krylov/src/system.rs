//! An SPD operator bound to an STS ordering.

use std::sync::{Arc, OnceLock};

use sts_core::{Method, StsStructure};
use sts_matrix::{CsrMatrix, LowerTriangularCsr, MatrixError};

use crate::Result;

/// How far apart a mirrored pair `a_ij`, `a_ji` may be, relative to the
/// larger of the two, for an operand to count as symmetric
/// ([`CsrMatrix::is_symmetric_relative`]).
const SYMMETRY_TOLERANCE: f64 = 1e-12;

/// A symmetric positive-definite system `A x = b` prepared for repeated
/// preconditioned solves: the STS structure of `A`'s lower triangle, which
/// fixes the ordering and is all the system holds.
///
/// The reordered lower triangle `L' = lower(P A Pᵀ)` defines the operator
/// `P A Pᵀ = L' + L'ᵀ − D`: the preconditioners sweep `L'`, and the
/// iteration's product reads the structure's symmetric layout of it
/// ([`StsStructure::symmetric`], built by both constructors). No second
/// copy of the operator is kept.
///
/// Everything downstream — matrix–vector products, preconditioner sweeps,
/// vector updates — runs in the reordered numbering; the permutation is
/// applied once to the right-hand side on entry and once to the solution on
/// exit. This matches the intended production use: an application permutes
/// its matrix once and then iterates.
#[derive(Debug, Clone)]
pub struct SpdSystem {
    /// The STS structure of `lower(P A Pᵀ)`; shared with the preconditioners
    /// built from this system.
    structure: Arc<StsStructure>,
    /// `P A Pᵀ` as a CSR matrix, materialised only by [`SpdSystem::matrix`].
    matrix: OnceLock<CsrMatrix>,
}

impl SpdSystem {
    /// Binds `a` (symmetric, fully stored, positive diagonal) to the
    /// ordering computed by `method` on its lower triangle.
    ///
    /// The operand is validated at this boundary
    /// ([`CsrMatrix::validate`]): sorted in-bounds columns, a present and
    /// positive diagonal, and finite values. A matrix carrying a NaN or an
    /// infinity is rejected here with [`MatrixError::NonFinite`] naming the
    /// offending entry, instead of poisoning every later iterate. Symmetry
    /// is checked relative to each mirrored pair: `|a_ij − a_ji|` may be at
    /// most `1e-12 · max(|a_ij|, |a_ji|)`, at any scale of `a`.
    ///
    /// `lower(a)` defines the operator: the system solves with
    /// `lower(a) + lower(a)ᵀ − D`, so within that tolerance the upper
    /// triangle's values are not read.
    pub fn build(a: &CsrMatrix, method: Method, rows_per_super_row: usize) -> Result<SpdSystem> {
        if a.nrows() != a.ncols() {
            return Err(MatrixError::DimensionMismatch(format!(
                "SPD system must be square, got {}x{}",
                a.nrows(),
                a.ncols()
            )));
        }
        a.validate()?;
        if !a.is_symmetric_relative(SYMMETRY_TOLERANCE) {
            return Err(MatrixError::InvalidParameter(
                "SpdSystem::build needs a symmetric matrix with both triangles stored".into(),
            ));
        }
        let l = sts_matrix::generators::lower_operand(a)?;
        Ok(SpdSystem::around(method.build(&l, rows_per_super_row)?))
    }

    /// Binds `a` to an ordering that was already computed for its sparsity
    /// pattern, skipping the analysis pipeline entirely.
    ///
    /// This is the warm path of a structure cache: `base` is the
    /// [`StsStructure`] produced by an earlier [`SpdSystem::build`] (or a
    /// pattern-only analysis) on a matrix with the same sparsity pattern.
    /// Orderings are purely structural, so the pack / super-row hierarchy and
    /// permutation carry over unchanged. Only `lower(a)`'s values are
    /// permuted into `base`'s order (`O(nnz)`, without forming `P A Pᵀ`),
    /// and the new operand shares `base`'s hierarchy arrays and its lower
    /// triangle's pattern by `Arc` rather than copying them. The resulting
    /// system is bitwise identical to what a fresh [`SpdSystem::build`] with
    /// the same method would produce.
    ///
    /// The operand is validated exactly as in [`SpdSystem::build`], and
    /// `lower(a)` defines the operator here as there; a matrix whose pattern
    /// no longer matches the cached hierarchy is rejected with
    /// [`MatrixError::DimensionMismatch`] or
    /// [`MatrixError::InvalidStructure`].
    pub fn build_with_structure(a: &CsrMatrix, base: &StsStructure) -> Result<SpdSystem> {
        if a.nrows() != a.ncols() {
            return Err(MatrixError::DimensionMismatch(format!(
                "SPD system must be square, got {}x{}",
                a.nrows(),
                a.ncols()
            )));
        }
        if a.nrows() != base.n() {
            return Err(MatrixError::DimensionMismatch(format!(
                "matrix is {}x{0}, cached structure expects {1}x{1}",
                a.nrows(),
                base.n()
            )));
        }
        a.validate()?;
        if !a.is_symmetric_relative(SYMMETRY_TOLERANCE) {
            return Err(MatrixError::InvalidParameter(
                "SpdSystem::build_with_structure needs a symmetric matrix with both triangles \
                 stored"
                    .into(),
            ));
        }
        let l_perm = LowerTriangularCsr::permute_lower_of(a, base.permutation().new_to_old())?;
        if l_perm.row_ptr() != base.lower().row_ptr() || l_perm.col_idx() != base.lower().col_idx()
        {
            return Err(MatrixError::InvalidStructure(
                "matrix sparsity pattern does not match the cached structure".into(),
            ));
        }
        let l = base.lower().with_values(l_perm.into_values())?;
        Ok(SpdSystem::around(base.with_operand(l)?))
    }

    /// The system of `structure`, its symmetric layout built now so that no
    /// solve pays for it.
    fn around(structure: StsStructure) -> SpdSystem {
        structure.symmetric();
        SpdSystem {
            structure: Arc::new(structure),
            matrix: OnceLock::new(),
        }
    }

    /// Dimension of the system.
    pub fn n(&self) -> usize {
        self.structure.n()
    }

    /// The reordered operator `P A Pᵀ` as a CSR matrix, materialised from the
    /// structure's symmetric layout on the first call and kept: for an
    /// exactly symmetric `a` it equals `a.permute_symmetric(new_to_old)` bit
    /// for bit.
    ///
    /// Kept only because the repository benchmark (its traced probes and
    /// replay) and tests name it. Nothing on the solve, value-update, factor
    /// or recovery path calls it, so a system that is only solved with
    /// never holds this copy.
    pub fn matrix(&self) -> &CsrMatrix {
        self.matrix.get_or_init(|| {
            let sym = self.structure.symmetric();
            CsrMatrix::from_raw_unchecked(
                self.n(),
                self.n(),
                sym.row_ptr().to_vec(),
                sym.col_idx().iter().map(|&c| c as usize).collect(),
                sym.values().to_vec(),
            )
        })
    }

    /// The STS structure of the reordered lower triangle (the SSOR sweep
    /// operand, and the carrier of the ordering).
    pub fn structure(&self) -> &StsStructure {
        &self.structure
    }

    /// A shared handle to the structure, for preconditioners that keep it.
    pub fn structure_arc(&self) -> Arc<StsStructure> {
        Arc::clone(&self.structure)
    }

    /// Gathers a vector given in original numbering into reordered
    /// numbering, `out[new] = v[old]`, allocation-free.
    pub fn gather_into(&self, v: &[f64], out: &mut [f64]) {
        let old_of = self.structure.permutation().new_to_old();
        for (slot, &old) in out.iter_mut().zip(old_of) {
            *slot = v[old];
        }
    }

    /// Gathers `nrhs` interleaved systems (`v[i * nrhs + r]`) into reordered
    /// numbering, allocation-free.
    pub fn gather_batch_into(&self, v: &[f64], out: &mut [f64], nrhs: usize) {
        let old_of = self.structure.permutation().new_to_old();
        for (new, &old) in old_of.iter().enumerate() {
            out[new * nrhs..(new + 1) * nrhs].copy_from_slice(&v[old * nrhs..(old + 1) * nrhs]);
        }
    }

    /// Scatters a reordered vector back to original numbering,
    /// `out[old] = v[new]`, allocation-free.
    pub fn scatter_into(&self, v: &[f64], out: &mut [f64]) {
        let old_of = self.structure.permutation().new_to_old();
        for (&value, &old) in v.iter().zip(old_of) {
            out[old] = value;
        }
    }

    /// Scatters `nrhs` interleaved reordered systems back to original
    /// numbering, allocation-free.
    pub fn scatter_batch_into(&self, v: &[f64], out: &mut [f64], nrhs: usize) {
        let old_of = self.structure.permutation().new_to_old();
        for (new, &old) in old_of.iter().enumerate() {
            out[old * nrhs..(old + 1) * nrhs].copy_from_slice(&v[new * nrhs..(new + 1) * nrhs]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::{generators, ops};

    #[test]
    fn build_permutes_the_operator_consistently() {
        let a = generators::grid2d_laplacian(7, 6).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        assert_eq!(sys.n(), 42);
        // A'·(P x) must equal P·(A x) for any x.
        let x: Vec<f64> = (0..sys.n()).map(|i| 0.5 + (i % 9) as f64).collect();
        let ax = ops::spmv(&a, &x).unwrap();
        let mut x_perm = vec![0.0; sys.n()];
        sys.gather_into(&x, &mut x_perm);
        let ax_perm = ops::spmv(sys.matrix(), &x_perm).unwrap();
        let mut expected = vec![0.0; sys.n()];
        sys.gather_into(&ax, &mut expected);
        assert!(ops::relative_error_inf(&ax_perm, &expected) < 1e-13);
        // Gather/scatter round-trip, single and batch.
        let mut back = vec![0.0; sys.n()];
        sys.scatter_into(&x_perm, &mut back);
        assert_eq!(back, x);
        let nrhs = 3;
        let xb: Vec<f64> = (0..sys.n() * nrhs).map(|k| k as f64).collect();
        let mut gathered = vec![0.0; sys.n() * nrhs];
        let mut scattered = vec![0.0; sys.n() * nrhs];
        sys.gather_batch_into(&xb, &mut gathered, nrhs);
        sys.scatter_batch_into(&gathered, &mut scattered, nrhs);
        assert_eq!(scattered, xb);
    }

    /// `P A Pᵀ` formed directly from `a` in `sys`'s ordering.
    fn permuted(a: &CsrMatrix, sys: &SpdSystem) -> CsrMatrix {
        let new_to_old = sys.structure().permutation().new_to_old();
        a.permute_symmetric(new_to_old).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn build_with_structure_matches_fresh_build_bitwise() {
        let a = generators::grid2d_laplacian(9, 5).unwrap();
        let cold = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        // Same pattern, different values: scale and re-symmetrize.
        let scaled = CsrMatrix::from_raw(
            a.nrows(),
            a.ncols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().iter().map(|v| v * 3.0).collect(),
        )
        .unwrap();
        let warm = SpdSystem::build_with_structure(&scaled, cold.structure()).unwrap();
        let fresh = SpdSystem::build(&scaled, Method::Sts3, 8).unwrap();
        assert_eq!(warm.matrix().values(), fresh.matrix().values());
        assert_eq!(warm.structure(), fresh.structure());
        // Both constructors build the symmetric layout the product reads.
        assert!(cold.structure().symmetric_built() && warm.structure().symmetric_built());
        assert_eq!(warm.structure().symmetric(), fresh.structure().symmetric());
        // The matrix shim is P A Pᵀ bit for bit, before and after a rebind.
        for (sys, a) in [(&cold, &a), (&warm, &scaled), (&fresh, &scaled)] {
            let want = permuted(a, sys);
            assert_eq!(sys.matrix().row_ptr(), want.row_ptr());
            assert_eq!(sys.matrix().col_idx(), want.col_idx());
            assert_eq!(bits(sys.matrix().values()), bits(want.values()));
        }
        // The warm structure shares the cached hierarchy and the cached
        // lower triangle's pattern instead of copying them.
        assert!(warm.structure().shares_hierarchy_with(cold.structure()));
        assert!(warm
            .structure()
            .lower()
            .shares_pattern_with(cold.structure().lower()));
        assert!(!fresh
            .structure()
            .lower()
            .shares_pattern_with(cold.structure().lower()));
        // A pattern that doesn't match the cached hierarchy is rejected.
        let other = generators::grid2d_laplacian(5, 9).unwrap();
        assert!(SpdSystem::build_with_structure(&other, cold.structure()).is_err());
    }

    #[test]
    fn build_rejects_asymmetric_input() {
        let l = generators::paper_figure1_l();
        // A raw lower triangle is not a symmetric operator.
        let e = SpdSystem::build(&l.to_csr(), Method::Sts3, 4);
        assert!(e.is_err());
    }

    /// The 2 × 2 operator `[[d, upper], [lower, d]]`.
    fn pair(d: f64, upper: f64, lower: f64) -> CsrMatrix {
        CsrMatrix::from_raw(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![d, upper, lower, d],
        )
        .unwrap()
    }

    #[test]
    fn symmetry_is_judged_relative_to_each_pair() {
        let base = SpdSystem::build(&pair(4.0, -1.0, -1.0), Method::Sts3, 4).unwrap();
        let off = -1e11f64;
        let cases = [
            // Exactly symmetric.
            (pair(4.0, -1.0, -1.0), true),
            // Steel stiffness in SI units, one ulp apart: symmetric.
            (pair(2e11, off, f64::from_bits(off.to_bits() + 1)), true),
            // 50 % asymmetric, at a scale below an absolute 1e-12.
            (pair(2e-13, -1e-13, -0.5e-13), false),
        ];
        for (a, symmetric) in cases {
            let built = SpdSystem::build(&a, Method::Sts3, 4);
            let rebound = SpdSystem::build_with_structure(&a, base.structure());
            assert_eq!(built.is_ok(), symmetric, "build of {:?}", a.values());
            assert_eq!(rebound.is_ok(), symmetric, "rebind of {:?}", a.values());
            if !symmetric {
                assert!(matches!(built, Err(MatrixError::InvalidParameter(_))));
                assert!(matches!(rebound, Err(MatrixError::InvalidParameter(_))));
            }
        }
    }
}
