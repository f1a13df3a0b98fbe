//! Typed solve options: the one place direction, batch width, and numeric
//! precision are selected.
//!
//! [`ParallelSolver`](crate::solver::parallel::ParallelSolver) grew its entry
//! points one at a time — direction (forward / transpose) × single / batch —
//! until callers had a method matrix to navigate and no way to thread a
//! *new* axis (like precision) through it. [`SolveOptions`] collapses the
//! matrix into one typed request consumed by
//! [`ParallelSolver::solve_with`](crate::solver::parallel::ParallelSolver::solve_with)
//! and its allocation-free form
//! [`solve_into`](crate::solver::parallel::ParallelSolver::solve_into); one
//! sweep kernel and one driver run every combination. How many threads run
//! it is the solver's, not the request's: a one-thread solver runs the same
//! sweep on the calling thread alone.
//!
//! # Precision
//!
//! [`PrecisionPolicy`] selects how the *value slabs* are stored, never how
//! arithmetic is performed:
//!
//! * [`PrecisionPolicy::ValuesF64`] — the default full-precision path;
//! * [`PrecisionPolicy::ValuesF32WithRefinement`] — the split layouts keep
//!   demoted `f32` copies of the external/internal value slabs, halving the
//!   value traffic of the bandwidth-bound sweeps. Kernels *load* `f32` but
//!   **accumulate in `f64`** (`acc += v as f64 * x[col]`), and the reciprocal
//!   diagonal stays `f64`, so a sweep's only error source is the one-time
//!   storage rounding of the off-diagonal values. A single mixed-precision
//!   sweep is therefore accurate to ≈ `f32` epsilon relative and is driven
//!   back to `f64` accuracy by an outer corrector: the Krylov iteration for
//!   preconditioned solves, or the explicit iterative-refinement wrapper in
//!   `sts-krylov` for direct solves.

/// How the triangular-sweep value slabs are stored (storage only — all
/// accumulation is `f64` under every policy; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrecisionPolicy {
    /// Full-precision `f64` value slabs (the default).
    #[default]
    ValuesF64,
    /// Demoted `f32` value slabs with `f64` accumulation; results are meant
    /// to be driven to full accuracy by an outer corrector (Krylov iteration
    /// or iterative refinement).
    ValuesF32WithRefinement,
}

impl PrecisionPolicy {
    /// Bytes each stored slab value occupies under this policy.
    pub fn value_bytes(self) -> usize {
        match self {
            PrecisionPolicy::ValuesF64 => 8,
            PrecisionPolicy::ValuesF32WithRefinement => 4,
        }
    }

    /// The wire/diagnostic label (`"f64"` / `"f32"`), matching the
    /// `precision` field of the service protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            PrecisionPolicy::ValuesF64 => "f64",
            PrecisionPolicy::ValuesF32WithRefinement => "f32",
        }
    }
}

/// The name of a sweep driver. Every value runs the one split driver, so
/// the value changes nothing; kept only because `benchmark/` names it;
/// ROADMAP item 1(c) retires it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolveEngine {
    /// The two-phase split kernel on the pool (external gather, phase
    /// barrier, internal chains, stage barrier).
    #[default]
    Split,
    /// The same split driver under an older name.
    Pipelined,
}

/// Sweep direction: the lower-triangular system or its transpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepDirection {
    /// Solve `L' x' = b'` (forward substitution).
    #[default]
    Forward,
    /// Solve `L'ᵀ x' = b'` (backward substitution over the packs in reverse
    /// order).
    Transpose,
}

impl SweepDirection {
    /// Diagnostic label.
    pub fn as_str(self) -> &'static str {
        match self {
            SweepDirection::Forward => "forward",
            SweepDirection::Transpose => "transpose",
        }
    }
}

/// One typed solve request:
/// [`ParallelSolver::solve_with`](crate::solver::parallel::ParallelSolver::solve_with)
/// consumes it, and the Krylov / service layers thread it through unchanged.
///
/// The default is the common case: forward sweep, one right-hand side,
/// full `f64` precision.
///
/// ```
/// use sts_core::{PrecisionPolicy, SolveOptions, SweepDirection};
///
/// let opts = SolveOptions::default();
/// assert_eq!(opts.direction, SweepDirection::Forward);
/// assert_eq!(opts.nrhs, 1);
/// assert_eq!(opts.precision, PrecisionPolicy::ValuesF64);
///
/// let mixed = SolveOptions::default().with_precision(PrecisionPolicy::ValuesF32WithRefinement);
/// assert_eq!(mixed.precision.value_bytes(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolveOptions {
    /// Forward or transpose sweep.
    pub direction: SweepDirection,
    /// Number of interleaved right-hand sides (`b[i * nrhs + r]`); must be
    /// ≥ 1.
    pub nrhs: usize,
    /// Value-slab storage precision.
    pub precision: PrecisionPolicy,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            direction: SweepDirection::default(),
            nrhs: 1,
            precision: PrecisionPolicy::default(),
        }
    }
}

impl SolveOptions {
    /// `self`, unchanged: every [`SolveEngine`] runs the one split driver.
    /// Kept only because `benchmark/` names it; ROADMAP item 1(c) retires
    /// it.
    pub fn with_engine(self, _engine: SolveEngine) -> SolveOptions {
        self
    }

    /// `self` with a different direction.
    pub fn with_direction(mut self, direction: SweepDirection) -> SolveOptions {
        self.direction = direction;
        self
    }

    /// `self` with a different batch width.
    pub fn with_nrhs(mut self, nrhs: usize) -> SolveOptions {
        self.nrhs = nrhs;
        self
    }

    /// `self` with a different precision policy.
    pub fn with_precision(mut self, precision: PrecisionPolicy) -> SolveOptions {
        self.precision = precision;
        self
    }
}

/// A value type the triangular-sweep kernels can load from a slab.
///
/// The kernels are generic over the *stored* type only; every accumulation
/// happens in `f64` through [`SlabValue::to_f64`]. For `f64` the conversion
/// is the identity and inlines away, so the monomorphized `f64` kernels are
/// instruction-for-instruction the pre-generic kernels — the bitwise-parity
/// invariants across thread counts are untouched. For `f32` the conversion
/// is the exact widening `as f64` (every `f32` is exactly representable in
/// `f64`), so a mixed-precision sweep's only error is the slab's one-time
/// storage rounding.
pub trait SlabValue: Copy + Send + Sync + 'static {
    /// Widen the stored value to the `f64` accumulation domain.
    fn to_f64(self) -> f64;
}

impl SlabValue for f64 {
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
}

impl SlabValue for f32 {
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_full_precision_split_single_solve() {
        let opts = SolveOptions::default();
        assert_eq!(opts.direction, SweepDirection::Forward);
        assert_eq!(opts.nrhs, 1);
        assert_eq!(opts.precision, PrecisionPolicy::ValuesF64);
    }

    #[test]
    fn builder_style_setters_compose() {
        let opts = SolveOptions::default()
            .with_direction(SweepDirection::Transpose)
            .with_nrhs(4)
            .with_precision(PrecisionPolicy::ValuesF32WithRefinement);
        assert_eq!(opts.direction, SweepDirection::Transpose);
        assert_eq!(opts.nrhs, 4);
        assert_eq!(opts.precision, PrecisionPolicy::ValuesF32WithRefinement);
    }

    #[test]
    fn engine_names_leave_every_request_unchanged() {
        let changed = SolveOptions::default()
            .with_direction(SweepDirection::Transpose)
            .with_nrhs(4)
            .with_precision(PrecisionPolicy::ValuesF32WithRefinement);
        for engine in [SolveEngine::Split, SolveEngine::Pipelined] {
            for opts in [SolveOptions::default(), changed] {
                assert_eq!(opts.with_engine(engine), opts, "{engine:?}");
            }
            // Set before the other fields as well as after them.
            let built = SolveOptions::default()
                .with_engine(engine)
                .with_direction(SweepDirection::Transpose)
                .with_nrhs(4)
                .with_precision(PrecisionPolicy::ValuesF32WithRefinement);
            assert_eq!(built, changed, "{engine:?}");
        }
    }

    #[test]
    fn precision_labels_and_widths_match_the_wire_contract() {
        assert_eq!(PrecisionPolicy::ValuesF64.as_str(), "f64");
        assert_eq!(PrecisionPolicy::ValuesF32WithRefinement.as_str(), "f32");
        assert_eq!(PrecisionPolicy::ValuesF64.value_bytes(), 8);
        assert_eq!(PrecisionPolicy::ValuesF32WithRefinement.value_bytes(), 4);
    }

    #[test]
    fn slab_values_widen_exactly() {
        assert_eq!(1.5f64.to_f64().to_bits(), 1.5f64.to_bits());
        let v = 0.1f32; // not exactly representable; widening is still exact
        assert_eq!(v.to_f64(), v as f64);
    }
}
