//! Vector and matrix–vector helpers shared across the workspace: SpMV,
//! norms, residuals, and right-hand-side manufacturing.

use crate::csr::CsrMatrix;
use crate::error::MatrixError;
use crate::triangular::LowerTriangularCsr;
use crate::Result;

/// Sparse matrix–vector product `y = A x`.
pub fn spmv(a: &CsrMatrix, x: &[f64]) -> Result<Vec<f64>> {
    if x.len() != a.ncols() {
        return Err(MatrixError::DimensionMismatch(format!(
            "x has length {}, expected {}",
            x.len(),
            a.ncols()
        )));
    }
    let mut y = vec![0.0; a.nrows()];
    spmv_into(a, x, &mut y)?;
    Ok(y)
}

/// Sparse matrix–vector product into a caller-provided buffer.
pub fn spmv_into(a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> Result<()> {
    if x.len() != a.ncols() || y.len() != a.nrows() {
        return Err(MatrixError::DimensionMismatch(
            "x/y lengths must match the matrix dimensions".into(),
        ));
    }
    for (r, yr) in y.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (&c, &v) in a.row_cols(r).iter().zip(a.row_values(r)) {
            acc += v * x[c];
        }
        *yr = acc;
    }
    Ok(())
}

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Infinity norm of a vector.
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// Residual `||L x - b||₂` of a candidate triangular solution.
pub fn triangular_residual(l: &LowerTriangularCsr, x: &[f64], b: &[f64]) -> Result<f64> {
    let lx = l.multiply(x)?;
    if b.len() != lx.len() {
        return Err(MatrixError::DimensionMismatch(
            "b has the wrong length".into(),
        ));
    }
    Ok(norm2(
        &lx.iter().zip(b).map(|(a, b)| a - b).collect::<Vec<_>>(),
    ))
}

/// Relative infinity-norm error between two vectors, `||a-b||∞ / max(1, ||b||∞)`.
pub fn relative_error_inf(a: &[f64], b: &[f64]) -> f64 {
    let diff: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    norm_inf(&diff) / norm_inf(b).max(1.0)
}

/// Manufactures a right-hand side `b = L x*` for a known solution `x*`, which
/// the benchmark harnesses use so every method can be verified bit-for-bit
/// against the same reference.
pub fn manufacture_rhs(l: &LowerTriangularCsr, x_star: &[f64]) -> Result<Vec<f64>> {
    l.multiply(x_star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn small_l() -> LowerTriangularCsr {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 1, -2.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        LowerTriangularCsr::from_csr(&coo.to_csr()).unwrap()
    }

    #[test]
    fn spmv_identity_is_noop() {
        let id = CsrMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, -4.0];
        assert_eq!(spmv(&id, &x).unwrap(), x);
    }

    #[test]
    fn spmv_rejects_bad_lengths() {
        let id = CsrMatrix::identity(4);
        assert!(spmv(&id, &[1.0]).is_err());
        let mut y = vec![0.0; 2];
        assert!(spmv_into(&id, &[1.0; 4], &mut y).is_err());
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let l = small_l();
        let x = vec![1.0, 2.0, 3.0];
        let b = manufacture_rhs(&l, &x).unwrap();
        let x_solved = l.solve_seq(&b).unwrap();
        assert!(triangular_residual(&l, &x_solved, &b).unwrap() < 1e-12);
        assert!(relative_error_inf(&x_solved, &x) < 1e-12);
    }

    #[test]
    fn residual_detects_wrong_solution() {
        let l = small_l();
        let b = vec![1.0, 1.0, 1.0];
        let wrong = vec![10.0, 10.0, 10.0];
        assert!(triangular_residual(&l, &wrong, &b).unwrap() > 1.0);
    }
}
