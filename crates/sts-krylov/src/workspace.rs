//! The persistent vector arena behind allocation-free iterations.

/// Every vector a PCG iteration touches, sized once for a structure (and an
/// optional batch width) and reused across solves: after the first
/// [`Pcg::solve`](crate::Pcg::solve) on a warmed-up system, neither the
/// driver's updates nor the preconditioner sweeps allocate.
///
/// The fields are deliberately crate-private: the driver splits disjoint
/// `&`/`&mut` borrows across them (residual read while the sweep scratch is
/// written), which only field access can express.
#[derive(Debug, Clone)]
pub struct KrylovWorkspace {
    n: usize,
    nrhs: usize,
    /// Solution accumulator (reordered numbering).
    pub(crate) x: Vec<f64>,
    /// Residual `r = b − A x`; with `x₀ = 0` the gathered right-hand side
    /// lands here directly.
    pub(crate) r: Vec<f64>,
    /// Preconditioned residual `z = M⁻¹ r`.
    pub(crate) z: Vec<f64>,
    /// Search direction.
    pub(crate) p: Vec<f64>,
    /// Operator application `A p`.
    pub(crate) ap: Vec<f64>,
    /// Preconditioner mid-sweep scratch (the vector between the forward and
    /// backward triangular solves).
    pub(crate) sweep: Vec<f64>,
}

impl KrylovWorkspace {
    /// Workspace for single-RHS solves on an `n`-dimensional system.
    pub fn new(n: usize) -> Self {
        Self::with_nrhs(n, 1)
    }

    /// Workspace for `nrhs`-wide batched solves (interleaved layout,
    /// `v[i * nrhs + r]`).
    pub fn with_nrhs(n: usize, nrhs: usize) -> Self {
        let nrhs = nrhs.max(1);
        let len = n * nrhs;
        KrylovWorkspace {
            n,
            nrhs,
            x: vec![0.0; len],
            r: vec![0.0; len],
            z: vec![0.0; len],
            p: vec![0.0; len],
            ap: vec![0.0; len],
            sweep: vec![0.0; len],
        }
    }

    /// The dimension this workspace was sized for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The batch width this workspace was sized for.
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_sizes_every_buffer() {
        let ws = KrylovWorkspace::with_nrhs(7, 3);
        assert_eq!(ws.n(), 7);
        assert_eq!(ws.nrhs(), 3);
        for buf in [&ws.x, &ws.r, &ws.z, &ws.p, &ws.ap, &ws.sweep] {
            assert_eq!(buf.len(), 21);
        }
        assert_eq!(KrylovWorkspace::new(5).nrhs(), 1);
    }
}
