//! Preconditioners whose sweeps run on the STS triangular kernels.
//!
//! A preconditioner application is two triangular sweeps — one forward, one
//! backward — on a fixed structure, repeated every iteration. Both
//! implementations here therefore bind to an [`SpdSystem`]'s structure at
//! construction, force both of its split layouts there, and apply through
//! the allocation-free [`ParallelSolver::solve_into`]:
//!
//! * [`Ssor`] — symmetric Gauss–Seidel, `M = (D + L) D⁻¹ (D + L)ᵀ`, whose
//!   operand *is* the system structure's reordered lower triangle (no extra
//!   factorization);
//! * [`Ic0`] — zero-fill incomplete Cholesky, `M = F Fᵀ` with
//!   `F = ic0(P A Pᵀ)`, factored from a copy of the values of the system
//!   structure's lower triangle `L'` (which defines `P A Pᵀ`; no copy of
//!   the operator is read). The factor has `L'`'s sparsity pattern exactly
//!   and shares its allocations, so it reuses the system's pack / super-row
//!   hierarchy (and hence the whole split-kernel machinery) through
//!   [`StsStructure::with_operand`] without validating the pattern again;
//!   its split layouts share the pattern's index arrays, so building them
//!   writes the factor's values only, and once both are filled the
//!   factor's own copy of its values is released
//!   ([`StsStructure::into_sweeps`]): the preconditioner holds the two
//!   sweep layouts and nothing else.
//!   The factorization itself is level-scheduled over that same hierarchy
//!   on the driver's pool, bitwise identical to the sequential reference
//!   sweep `sts_matrix::factor::ic0`;
//! * [`Identity`] — `M = I`, turning the driver into plain CG for
//!   comparison runs.
//!
//! Every sweep runs on the one split driver of the one sweep kernel, on the
//! threads of the solver the application is handed. It runs the *same*
//! per-row arithmetic in the same order at every thread count and batch
//! width, so the thread count changes wall time, never the iterate
//! sequence: PCG takes bitwise identical paths and the same iteration count
//! on a one-thread solver as on an N-thread one, and every lane of a
//! batched application equals the single-RHS application of that lane bit
//! for bit (see the `sts_core::solver` module docs).

use std::sync::Arc;

use sts_core::{ParallelSolver, PrecisionPolicy, SolveOptions, StsStructure, SweepDirection};
use sts_matrix::{LowerTriangularCsr, MatrixError};

use crate::system::SpdSystem;
use crate::Result;

/// `sts_core`'s `SolveEngine` under the name this crate has used for it; the
/// value changes nothing. Kept only because `benchmark/` names it; ROADMAP
/// item 1(c) retires it.
pub use sts_core::SolveEngine as SweepEngine;

/// The application contract `z = M⁻¹ r`, in the system's reordered
/// numbering, with no heap allocation: implementations may only use the
/// provided buffers (`sweep` is the caller's mid-sweep scratch from the
/// [`KrylovWorkspace`](crate::KrylovWorkspace)) and their own prebuilt
/// state.
pub trait Preconditioner {
    /// Short label for reports ("none", "ssor", "ic0").
    fn label(&self) -> &'static str;

    /// Applies `z ← M⁻¹ r` to `nrhs` interleaved systems
    /// (`r[i * nrhs + q]`) on `solver`'s pool.
    fn apply_batch_into(
        &mut self,
        solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        sweep: &mut [f64],
        nrhs: usize,
    ) -> Result<()>;

    /// Applies `z ← M⁻¹ r` to one system: the batched application at
    /// `nrhs = 1`.
    fn apply_into(
        &mut self,
        solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        sweep: &mut [f64],
    ) -> Result<()> {
        self.apply_batch_into(solver, r, z, sweep, 1)
    }

    /// Selects the value-slab precision the sweeps read
    /// ([`PrecisionPolicy::ValuesF32WithRefinement`] loads the lazily
    /// demoted f32 slabs, accumulating in f64). The default is a no-op:
    /// preconditioners without triangular sweeps ([`Identity`]) have nothing
    /// to demote and always behave as f64. Implementations must make the
    /// switch take effect on the *next* application; they may eagerly build
    /// the f32 slabs so the first mixed-precision apply is not the one
    /// paying the demotion sweep.
    fn set_precision(&mut self, precision: PrecisionPolicy) {
        let _ = precision;
    }

    /// The value-slab precision the sweeps currently read
    /// ([`PrecisionPolicy::ValuesF64`] unless
    /// [`Preconditioner::set_precision`] switched it).
    fn precision(&self) -> PrecisionPolicy {
        PrecisionPolicy::ValuesF64
    }
}

/// `M = I`: plain conjugate gradient.
#[derive(Debug, Default, Clone, Copy)]
pub struct Identity;

impl Preconditioner for Identity {
    fn label(&self) -> &'static str {
        "none"
    }

    fn apply_batch_into(
        &mut self,
        _solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        _sweep: &mut [f64],
        _nrhs: usize,
    ) -> Result<()> {
        z.copy_from_slice(r);
        Ok(())
    }
}

/// The two sweeps shared by [`Ssor`] and [`Ic0`]: a structure and the
/// value-slab precision every sweep is issued with. The sweeps read
/// the structure's two split layouts only, so the structure may be a
/// sweep-only one ([`StsStructure::into_sweeps`]), as a factor's is.
#[derive(Debug)]
struct SweepPair {
    structure: Arc<StsStructure>,
    /// Switched by [`Preconditioner::set_precision`], f64 by default.
    precision: PrecisionPolicy,
}

impl SweepPair {
    /// Forces both lazy layouts (a sweep-only structure has them already),
    /// so the first apply is not the one paying the build sweeps.
    fn new(structure: Arc<StsStructure>) -> Self {
        structure.split();
        structure.transpose_split();
        SweepPair {
            structure,
            precision: PrecisionPolicy::ValuesF64,
        }
    }

    /// Switches the value-slab precision of subsequent sweeps, eagerly
    /// demoting the slabs so the next apply is not the one paying the
    /// one-time conversion.
    fn set_precision(&mut self, precision: PrecisionPolicy) {
        if precision == PrecisionPolicy::ValuesF32WithRefinement {
            for layout in [self.structure.split(), self.structure.transpose_split()] {
                layout.ext_vals_f32();
                layout.int_vals_f32();
            }
        }
        self.precision = precision;
    }

    /// One sweep over `nrhs` interleaved systems: `L y = r` (forward) or
    /// `Lᵀ y = r` (transpose) into `y`.
    fn sweep(
        &self,
        solver: &ParallelSolver,
        direction: SweepDirection,
        r: &[f64],
        y: &mut [f64],
        nrhs: usize,
    ) -> Result<()> {
        let opts = SolveOptions::default()
            .with_direction(direction)
            .with_nrhs(nrhs)
            .with_precision(self.precision);
        solver.solve_into(&self.structure, r, y, &opts)
    }
}

/// Symmetric Gauss–Seidel (SSOR with ω = 1):
/// `M = (D + L) D⁻¹ (D + L)ᵀ`, where `D + L` is the system structure's
/// reordered lower triangle. Application is a forward sweep, a diagonal
/// scale, and a backward sweep — all on the STS kernels, no factorization.
#[derive(Debug)]
pub struct Ssor {
    sweeps: SweepPair,
    /// Diagonal of the reordered operand (`D`).
    diag: Vec<f64>,
}

impl Ssor {
    /// Builds the preconditioner on `sys`'s structure.
    pub fn new(sys: &SpdSystem) -> Ssor {
        let structure = sys.structure_arc();
        let diag = (0..structure.n())
            .map(|i| structure.lower().diag(i))
            .collect();
        Ssor {
            sweeps: SweepPair::new(structure),
            diag,
        }
    }
}

impl Preconditioner for Ssor {
    fn label(&self) -> &'static str {
        "ssor"
    }

    fn apply_batch_into(
        &mut self,
        solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        sweep: &mut [f64],
        nrhs: usize,
    ) -> Result<()> {
        // (D + L) y = r.
        self.sweeps
            .sweep(solver, SweepDirection::Forward, r, sweep, nrhs)?;
        // t = D y, in place. (The width-1 loop is kept apart because it
        // vectorizes: through the chunked loop a single-RHS application on
        // the 200×200 Laplacian measured ≈ 10 % slower.)
        if nrhs == 1 {
            for (value, d) in sweep.iter_mut().zip(&self.diag) {
                *value *= d;
            }
        } else {
            for (row, d) in sweep.chunks_exact_mut(nrhs).zip(&self.diag) {
                for value in row {
                    *value *= d;
                }
            }
        }
        // (D + L)ᵀ z = t.
        self.sweeps
            .sweep(solver, SweepDirection::Transpose, sweep, z, nrhs)
    }

    fn set_precision(&mut self, precision: PrecisionPolicy) {
        self.sweeps.set_precision(precision);
    }

    fn precision(&self) -> PrecisionPolicy {
        self.sweeps.precision
    }
}

/// Zero-fill incomplete Cholesky: `M = F Fᵀ` with `F = ic0(P A Pᵀ)`.
///
/// The factor is computed in the system's reordered numbering (incomplete
/// factorizations are ordering-dependent, so factoring the *reordered*
/// matrix is what makes the preconditioner consistent with the iteration's
/// coordinates), from a copy of the values of the system structure's lower
/// triangle `L' = lower(P A Pᵀ)` — all of `P A Pᵀ` that IC(0) reads. It is
/// carried by a second [`StsStructure`] that shares the system's pack /
/// super-row hierarchy, `L'`'s pattern and the layouts' index arrays —
/// IC(0) preserves the sparsity pattern, so all three transfer via
/// [`StsStructure::with_operand`]. The factor's values fill its forward
/// and transpose split layouts and are then released
/// ([`StsStructure::into_sweeps`]): what the preconditioner holds is the
/// two layouts' value slabs and reciprocal diagonal, and `Arc`s to the
/// shared patterns. The factor's bits, and its breakdown row and pivot, are
/// those of `sts_matrix::factor::ic0` on `P A Pᵀ`; an application is
/// therefore bitwise equal to a forward and a transpose sweep over
/// `sys.structure().with_operand(<that factor>)`.
#[derive(Debug)]
pub struct Ic0 {
    sweeps: SweepPair,
    /// The operand the factor was computed from.
    operand: Ic0Operand,
}

/// Which operand an [`Ic0`] factors: the system's matrix or one of the two
/// diagonal perturbations the recovery ladder ([`crate::RobustPcg`]) climbs.
/// Neither perturbation touches the sparsity pattern, so every factor rides
/// the system's pack hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ic0Operand {
    /// `A` itself.
    Plain,
    /// **Manteuffel-shifted**: `A + α·diag(A)` (every diagonal entry scaled
    /// by `1 + α`, `α ≥ 0`), the classical recovery for an incomplete
    /// factorization that breaks down on an operand that is SPD but not an
    /// M-matrix. A large enough α always restores diagonal dominance (and
    /// hence existence of the factorization) at the price of a weaker
    /// preconditioner.
    Shifted(f64),
    /// **Row-boosted**: `A` with only row `row`'s diagonal entry scaled by
    /// `1 + α` (`α > 0`) — the gentlest recovery for a factorization that
    /// broke down at a *known* pivot row (reported by
    /// [`MatrixError::FactorizationBreakdown`]): the perturbation stays
    /// local to the row that lost positivity instead of weakening the
    /// preconditioner everywhere.
    RowBoosted {
        /// The row (reordered numbering) whose diagonal is boosted.
        row: usize,
        /// The relative boost of that diagonal entry.
        alpha: f64,
    },
}

impl Ic0 {
    /// Factorizes `sys`'s reordered operator, level-scheduled on `solver`'s
    /// pool, and builds the sweep state. Fails with
    /// [`MatrixError::FactorizationBreakdown`] when the matrix is not SPD on
    /// the retained pattern.
    ///
    /// The third argument changes nothing: kept only because `benchmark/`
    /// names it; ROADMAP item 1(c) retires it.
    pub fn new(sys: &SpdSystem, solver: &ParallelSolver, _engine: SweepEngine) -> Result<Ic0> {
        Ic0::with_operand(sys, solver, Ic0Operand::Plain)
    }

    /// [`Ic0::new`] with the factored operand chosen by the caller. The
    /// factorization is level-scheduled over the system's pack hierarchy
    /// on `solver`'s pool (`ParallelSolver::parallel_ic0_values`): per pack,
    /// the super-rows are factored in parallel under the solver's schedule,
    /// with a barrier between packs. The factored values fill both sweep
    /// layouts and are then dropped.
    pub fn with_operand(
        sys: &SpdSystem,
        solver: &ParallelSolver,
        operand: Ic0Operand,
    ) -> Result<Ic0> {
        let vals = operand.values(sys.structure().lower())?;
        let factor = solver.parallel_ic0_values(sys.structure(), vals)?;
        let structure = Arc::new(sys.structure().with_operand(factor)?.into_sweeps());
        Ok(Ic0 {
            sweeps: SweepPair::new(structure),
            operand,
        })
    }

    /// The Manteuffel shift α this factorization was built with (`0.0`
    /// unless the operand is [`Ic0Operand::Shifted`]).
    pub fn shift(&self) -> f64 {
        match self.operand {
            Ic0Operand::Shifted(alpha) => alpha,
            _ => 0.0,
        }
    }

    /// The `(row, alpha)` single-row diagonal boost this factorization was
    /// built with, if the operand is [`Ic0Operand::RowBoosted`].
    pub fn row_boost(&self) -> Option<(usize, f64)> {
        match self.operand {
            Ic0Operand::RowBoosted { row, alpha } => Some((row, alpha)),
            _ => None,
        }
    }
}

impl Ic0Operand {
    /// The report label of a factor of this operand. A zero shift is the
    /// plain operand.
    fn label(self) -> &'static str {
        match self {
            Ic0Operand::RowBoosted { .. } => "ic0-rowboost",
            Ic0Operand::Shifted(alpha) if alpha != 0.0 => "ic0-shifted",
            _ => "ic0",
        }
    }

    /// The operand's lower-triangle values, the workspace the factorization
    /// overwrites: a copy of `l`'s, with the diagonal (each row's last
    /// entry) of the perturbed rows scaled by `1 + α`.
    fn values(self, l: &LowerTriangularCsr) -> Result<Vec<f64>> {
        let (rows, alpha) = match self {
            Ic0Operand::Plain => (0..0, 0.0),
            Ic0Operand::Shifted(alpha) => {
                if !alpha.is_finite() || alpha < 0.0 {
                    return Err(MatrixError::InvalidParameter(format!(
                        "Manteuffel shift must be finite and non-negative, got {alpha}"
                    )));
                }
                (0..l.n(), alpha)
            }
            Ic0Operand::RowBoosted { row, alpha } => {
                if !alpha.is_finite() || alpha <= 0.0 {
                    return Err(MatrixError::InvalidParameter(format!(
                        "row boost must be finite and positive, got {alpha}"
                    )));
                }
                if row >= l.n() {
                    return Err(MatrixError::InvalidParameter(format!(
                        "row boost targets row {row}, but the operand has {} rows",
                        l.n()
                    )));
                }
                (row..row + 1, alpha)
            }
        };
        let mut vals = l.values().to_vec();
        for row in rows {
            vals[l.row_ptr()[row + 1] - 1] *= 1.0 + alpha;
        }
        Ok(vals)
    }
}

impl Preconditioner for Ic0 {
    fn label(&self) -> &'static str {
        self.operand.label()
    }

    fn apply_batch_into(
        &mut self,
        solver: &ParallelSolver,
        r: &[f64],
        z: &mut [f64],
        sweep: &mut [f64],
        nrhs: usize,
    ) -> Result<()> {
        // F y = r, then Fᵀ z = y.
        self.sweeps
            .sweep(solver, SweepDirection::Forward, r, sweep, nrhs)?;
        self.sweeps
            .sweep(solver, SweepDirection::Transpose, sweep, z, nrhs)
    }

    fn set_precision(&mut self, precision: PrecisionPolicy) {
        self.sweeps.set_precision(precision);
    }

    fn precision(&self) -> PrecisionPolicy {
        self.sweeps.precision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_core::Method;
    use sts_matrix::{generators, ops};
    use sts_numa::Schedule;

    fn test_setup() -> (SpdSystem, ParallelSolver) {
        let a = generators::grid2d_laplacian(9, 8).unwrap();
        let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
        let solver = ParallelSolver::new(3, Schedule::Guided { min_chunk: 1 });
        (sys, solver)
    }

    /// Dense reference for `M⁻¹ r` with `M = (D+L) D⁻¹ (D+L)ᵀ`.
    fn ssor_reference(sys: &SpdSystem, r: &[f64]) -> Vec<f64> {
        let l = sys.structure().lower();
        let y = l.solve_seq(r).unwrap();
        let dy: Vec<f64> = (0..sys.n()).map(|i| y[i] * l.diag(i)).collect();
        l.solve_transpose_seq(&dy).unwrap()
    }

    #[test]
    fn ssor_agrees_with_the_reference_application() {
        let (sys, solver) = test_setup();
        let r: Vec<f64> = (0..sys.n()).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
        let expected = ssor_reference(&sys, &r);
        let mut pre = Ssor::new(&sys);
        let mut z = vec![0.0; sys.n()];
        let mut sweep = vec![0.0; sys.n()];
        pre.apply_into(&solver, &r, &mut z, &mut sweep).unwrap();
        assert!(ops::relative_error_inf(&z, &expected) < 1e-12);
    }

    #[test]
    fn one_thread_and_many_thread_applications_are_bitwise_identical() {
        let (sys, solver) = test_setup();
        let one = ParallelSolver::new(1, Schedule::Static);
        let r: Vec<f64> = (0..sys.n()).map(|i| 0.25 + (i % 7) as f64).collect();
        let mut pre = Ssor::new(&sys);
        let (mut z1, mut z2) = (vec![0.0; sys.n()], vec![0.0; sys.n()]);
        let mut sweep = vec![0.0; sys.n()];
        pre.apply_into(&one, &r, &mut z1, &mut sweep).unwrap();
        pre.apply_into(&solver, &r, &mut z2, &mut sweep).unwrap();
        assert_eq!(z1, z2, "thread counts must take bitwise identical paths");
    }

    #[test]
    fn ic0_engine_names_give_bitwise_equal_applications() {
        let (sys, solver) = test_setup();
        let mut split = Ic0::new(&sys, &solver, SweepEngine::Split).unwrap();
        let mut pipelined = Ic0::new(&sys, &solver, SweepEngine::Pipelined).unwrap();
        for nrhs in [1, 4] {
            let len = sys.n() * nrhs;
            let r: Vec<f64> = (0..len).map(|k| 0.5 + (k % 9) as f64 * 0.7).collect();
            let (mut z1, mut z2, mut sweep) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
            split
                .apply_batch_into(&solver, &r, &mut z1, &mut sweep, nrhs)
                .unwrap();
            pipelined
                .apply_batch_into(&solver, &r, &mut z2, &mut sweep, nrhs)
                .unwrap();
            assert_eq!(bits(&z1), bits(&z2), "nrhs {nrhs}");
        }
    }

    #[test]
    fn ic0_application_inverts_the_factor_product() {
        let (sys, solver) = test_setup();
        let mut pre = Ic0::new(&sys, &solver, SweepEngine::Split).unwrap();
        // Manufacture r = F Fᵀ w, expect apply(r) = w.
        let f = sts_matrix::factor::ic0(sys.matrix()).unwrap();
        let w: Vec<f64> = (0..sys.n()).map(|i| 1.0 - (i % 4) as f64 * 0.2).collect();
        let ftw = f.multiply_transpose(&w).unwrap();
        let r = f.multiply(&ftw).unwrap();
        let mut z = vec![0.0; sys.n()];
        let mut sweep = vec![0.0; sys.n()];
        pre.apply_into(&solver, &r, &mut z, &mut sweep).unwrap();
        assert!(ops::relative_error_inf(&z, &w) < 1e-10);
    }

    /// `(F Fᵀ)⁻¹ r` for the factor `F` that is `s`'s operand: a forward then
    /// a transpose sweep over `s`, at `nrhs` lanes and `precision`.
    fn sweep_pair(
        solver: &ParallelSolver,
        s: &StsStructure,
        r: &[f64],
        nrhs: usize,
        precision: PrecisionPolicy,
    ) -> Vec<f64> {
        let opts = SolveOptions::default()
            .with_nrhs(nrhs)
            .with_precision(precision);
        let mut y = vec![0.0; r.len()];
        solver.solve_into(s, r, &mut y, &opts).unwrap();
        let mut z = vec![0.0; r.len()];
        let opts = opts.with_direction(SweepDirection::Transpose);
        solver.solve_into(s, &y, &mut z, &opts).unwrap();
        z
    }

    #[test]
    fn ic0_factor_has_the_bits_of_the_reference_factor() {
        let (sys, solver) = test_setup();
        let mut pre = Ic0::new(&sys, &solver, SweepEngine::Split).unwrap();
        // The level-scheduled build factors the lower triangle's values to
        // the bits of the sequential reference factor of the operator, so an
        // application is a sweep pair over that factor, at every width and
        // slab precision.
        let reference = sts_matrix::factor::ic0(sys.matrix()).unwrap();
        let want = sys.structure().with_operand(reference).unwrap();
        for precision in [
            PrecisionPolicy::ValuesF64,
            PrecisionPolicy::ValuesF32WithRefinement,
        ] {
            pre.set_precision(precision);
            for nrhs in [1, 4] {
                let len = sys.n() * nrhs;
                let r: Vec<f64> = (0..len).map(|k| 1.0 + (k % 7) as f64 * 0.3).collect();
                let (mut z, mut sweep) = (vec![0.0; len], vec![0.0; len]);
                pre.apply_batch_into(&solver, &r, &mut z, &mut sweep, nrhs)
                    .unwrap();
                let expected = sweep_pair(&solver, &want, &r, nrhs, precision);
                assert_eq!(bits(&z), bits(&expected), "{precision:?}, nrhs {nrhs}");
            }
        }
        // The factor holds the system's hierarchy and layout patterns.
        let factor = &pre.sweeps.structure;
        assert!(factor.shares_layout_patterns_with(sys.structure()));
        assert!(factor.shares_hierarchy_with(sys.structure()));
    }

    #[test]
    fn batch_application_is_bitwise_identical_to_per_system_applications() {
        // Every lane of a batched application runs the single-RHS
        // application's exact floating-point sequence, at every thread
        // count.
        let (sys, _) = test_setup();
        let n = sys.n();
        let nrhs = 3;
        let rb: Vec<f64> = (0..n * nrhs)
            .map(|k| 1.0 + ((k / nrhs + k % nrhs) % 6) as f64 * 0.4)
            .collect();
        let mut pre = Ssor::new(&sys);
        for threads in [1, 3] {
            let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
            let mut zb = vec![0.0; n * nrhs];
            let mut sweepb = vec![0.0; n * nrhs];
            pre.apply_batch_into(&solver, &rb, &mut zb, &mut sweepb, nrhs)
                .unwrap();
            for q in 0..nrhs {
                let r: Vec<f64> = (0..n).map(|i| rb[i * nrhs + q]).collect();
                let mut z = vec![0.0; n];
                let mut sweep = vec![0.0; n];
                pre.apply_into(&solver, &r, &mut z, &mut sweep).unwrap();
                for i in 0..n {
                    assert_eq!(
                        zb[i * nrhs + q],
                        z[i],
                        "lane {q} diverged at row {i} ({threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn a_rebound_system_and_its_factor_share_the_base_pattern() {
        let (base, solver) = test_setup();
        let a = generators::grid2d_laplacian(9, 8).unwrap();
        let doubled = sts_matrix::CsrMatrix::from_raw(
            a.nrows(),
            a.ncols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().iter().map(|v| v * 2.0).collect(),
        )
        .unwrap();
        let sys = SpdSystem::build_with_structure(&doubled, base.structure()).unwrap();
        let pre = Ic0::new(&sys, &solver, SweepEngine::Split).unwrap();
        let pattern = base.structure().lower();
        assert!(sys.structure().lower().shares_pattern_with(pattern));
        assert!(pre.sweeps.structure.shares_hierarchy_with(base.structure()));
        // ... and the layouts' index arrays.
        assert!(sys
            .structure()
            .shares_layout_patterns_with(base.structure()));
        assert!(pre
            .sweeps
            .structure
            .shares_layout_patterns_with(base.structure()));
        // The factor structure never builds the product's layout.
        assert!(!pre.sweeps.structure.symmetric_built());
    }

    fn bits<T: Copy + Into<f64>>(v: &[T]) -> Vec<u64> {
        v.iter().map(|&x| x.into().to_bits()).collect()
    }

    /// Both sweep layouts of `got` equal `want`'s — pattern, f64 values,
    /// reciprocal diagonal and f32 slabs, bit for bit — and hold `base`'s
    /// pattern allocations.
    fn assert_sweep_layouts_equal(got: &StsStructure, want: &StsStructure, base: &StsStructure) {
        for (g, w, b) in [
            (got.split(), want.split(), base.split()),
            (
                got.transpose_split(),
                want.transpose_split(),
                base.transpose_split(),
            ),
        ] {
            assert_eq!(g.ext_row_ptr(), w.ext_row_ptr());
            assert_eq!(g.ext_cols(), w.ext_cols());
            assert_eq!(g.int_row_ptr(), w.int_row_ptr());
            assert_eq!(g.int_cols(), w.int_cols());
            assert_eq!(bits(g.ext_vals()), bits(w.ext_vals()));
            assert_eq!(bits(g.int_vals()), bits(w.int_vals()));
            assert_eq!(bits(g.inv_diags()), bits(w.inv_diags()));
            assert!(g.f32_slabs_built() && w.f32_slabs_built());
            assert_eq!(bits(g.ext_vals_f32()), bits(w.ext_vals_f32()));
            assert_eq!(bits(g.int_vals_f32()), bits(w.int_vals_f32()));
            for p in 0..got.num_packs() {
                assert_eq!(g.chain_super_rows(p), w.chain_super_rows(p));
            }
            // The index arrays are the base's allocations.
            assert!(std::ptr::eq(g.ext_cols(), b.ext_cols()));
            assert!(std::ptr::eq(g.int_row_ptr(), b.int_row_ptr()));
            assert!(!std::ptr::eq(g.ext_cols(), w.ext_cols()));
        }
        assert!(got.shares_layout_patterns_with(base));
        assert!(!got.shares_layout_patterns_with(want));
    }

    #[test]
    fn rebound_systems_and_factors_equal_fresh_builds_in_every_layout() {
        let suite =
            sts_matrix::suite::TestSuite::generate(sts_matrix::suite::SuiteScale::Tiny).unwrap();
        let solvers: Vec<ParallelSolver> = (1..=3)
            .map(|t| ParallelSolver::new(t, Schedule::Guided { min_chunk: 1 }))
            .collect();
        for m in &suite.matrices {
            let a = &m.symmetric;
            let base = SpdSystem::build(a, Method::Sts3, 8).unwrap();
            // New values on the same pattern: the diagonal up by 1 %.
            let next = sts_matrix::CsrMatrix::from_raw(
                a.nrows(),
                a.ncols(),
                a.row_ptr().to_vec(),
                a.col_idx().to_vec(),
                a.iter()
                    .map(|(r, c, v)| if r == c { v * 1.01 } else { v })
                    .collect(),
            )
            .unwrap();
            let rebound = SpdSystem::build_with_structure(&next, base.structure()).unwrap();
            let fresh = SpdSystem::build(&next, Method::Sts3, 8).unwrap();
            let label = m.id.label();
            let (got, want) = (rebound.structure(), fresh.structure());
            assert_eq!(got, want, "{label}: the rebound structure");
            let (gs, ws) = (got.symmetric(), want.symmetric());
            assert_eq!(gs.row_ptr(), ws.row_ptr(), "{label}");
            assert_eq!(gs.col_idx(), ws.col_idx(), "{label}");
            assert_eq!(bits(gs.values()), bits(ws.values()), "{label}");
            assert!(std::ptr::eq(
                gs.col_idx(),
                base.structure().symmetric().col_idx()
            ));
            assert!(got.shares_layout_patterns_with(base.structure()));
            for solver in &solvers {
                for operand in [Ic0Operand::Plain, Ic0Operand::Shifted(0.05)] {
                    let factor = |sys: &SpdSystem| {
                        let mut pre = Ic0::with_operand(sys, solver, operand).unwrap();
                        pre.set_precision(PrecisionPolicy::ValuesF32WithRefinement);
                        pre
                    };
                    let (g, w) = (factor(&rebound), factor(&fresh));
                    assert_sweep_layouts_equal(
                        &g.sweeps.structure,
                        &w.sweeps.structure,
                        base.structure(),
                    );
                }
            }
        }
    }
}
