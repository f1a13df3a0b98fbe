//! The CSR-k structure: the reordered triangular operand plus its pack /
//! super-row hierarchy.
//!
//! The storage follows Algorithm 1 of the paper. On top of the traditional
//! CSR arrays of the operand (`index1`, `subscript1`, `valueL`, held in an
//! [`LowerTriangularCsr`]), two extra index arrays describe the hierarchy:
//!
//! * `index3[p] .. index3[p+1]` — the super-rows of pack `p`;
//! * `index2[s] .. index2[s+1]` — the rows of super-row `s`.
//!
//! Packs are executed one after another (with a barrier in between); the
//! super-rows of a pack are independent tasks; the rows of a super-row are
//! solved sequentially by whichever core owns the task.

use std::sync::{Arc, OnceLock};

use sts_graph::Permutation;
use sts_matrix::{LowerTriangularCsr, MatrixError};

use crate::builder::Ordering;
use crate::options::SweepDirection;
use crate::split::{SplitLayout, SplitPattern};
use crate::symmetric::{SymmetricLayout, SymmetricPattern};

/// Result alias for the core crate.
pub type Result<T> = std::result::Result<T, MatrixError>;

/// The k-level reordered triangular system produced by
/// [`StsBuilder`](crate::builder::StsBuilder).
#[derive(Debug, Clone)]
pub struct StsStructure {
    k: usize,
    ordering: Ordering,
    /// Pack → first super-row, shared (`Arc`) between the analysis structure
    /// and any factor structure derived via [`StsStructure::with_operand`].
    index3: Arc<Vec<usize>>,
    /// Super-row → first row, shared like `index3`.
    index2: Arc<Vec<usize>>,
    /// The operand `L'`: `None` once [`StsStructure::into_sweeps`] has
    /// released it, after filling both sweep layouts from it.
    l: Option<LowerTriangularCsr>,
    /// The reordering permutation, shared like the index arrays.
    perm: Arc<Permutation>,
    /// The layouts' index arrays, built once per pattern and shared
    /// (`Arc`) like the hierarchy arrays: every structure derived through
    /// [`StsStructure::with_operand`] on this operand's pattern holds the
    /// same allocation.
    patterns: Arc<LayoutPatterns>,
    /// The sweep layouts, indexed by [`direction_index`]: the forward
    /// dependency-split layout ([`StsStructure::split`]) and the transpose
    /// (backward-sweep) one ([`StsStructure::transpose_split`]). Each is built
    /// on first use — it roughly doubles the off-diagonal storage, so
    /// callers that never run that sweep should not pay for it — as the
    /// shared pattern plus this structure's values.
    sweeps: [OnceLock<SplitLayout>; 2],
    /// The reciprocal diagonal both sweep layouts read, built with the first.
    inv_diag: OnceLock<Arc<[f64]>>,
    /// The symmetric layout `L' + L'ᵀ − D` a Krylov iteration multiplies
    /// by, likewise built on first use ([`StsStructure::symmetric`]) — only
    /// a system's structure pays for it, never a factor's.
    sym: OnceLock<SymmetricLayout>,
}

/// The per-pattern halves of a structure's layouts, each built on first
/// use by whichever structure of the pattern needs it first.
#[derive(Debug, Default)]
struct LayoutPatterns {
    /// The sweep layouts' patterns, indexed like `StsStructure::sweeps`.
    sweeps: [OnceLock<Arc<SplitPattern>>; 2],
    sym: OnceLock<Arc<SymmetricPattern>>,
    /// Debug-only guards: set once a sweep pattern's schedule has been
    /// statically verified (the first layout build of a direction runs the
    /// check under `debug_assertions`). Plain flags, not lazily computed
    /// values, because the verifier itself reads the layout reentrantly.
    /// Never read in release builds (where the hook compiles out).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    verified: [OnceLock<()>; 2],
}

/// The slot of `direction` in the per-direction layout arrays.
fn direction_index(direction: SweepDirection) -> usize {
    match direction {
        SweepDirection::Forward => 0,
        SweepDirection::Transpose => 1,
    }
}

/// Equality ignores the lazy layouts while the operand is held: they are
/// pure functions of the operand and the hierarchy, so two structures that
/// differ only in whether [`StsStructure::split`] (or the transpose or
/// symmetric layout) has been called yet are still equal. A sweep-only
/// structure ([`StsStructure::into_sweeps`]) has released its operand, and
/// its two sweep layouts are where its values live: it equals the
/// sweep-only structures with equal layouts, and no structure that still
/// holds an operand.
impl PartialEq for StsStructure {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.ordering == other.ordering
            && self.index3 == other.index3
            && self.index2 == other.index2
            && self.perm == other.perm
            && match (&self.l, &other.l) {
                (Some(l), Some(other_l)) => l == other_l,
                (None, None) => {
                    self.split() == other.split()
                        && self.transpose_split() == other.transpose_split()
                }
                _ => false,
            }
    }
}

impl StsStructure {
    /// Assembles a structure from its parts, validating every invariant (see
    /// [`StsStructure::validate`]). The dependency-split layout the two-phase
    /// kernels run on is *not* built here; it is constructed
    /// lazily by the first [`StsStructure::split`] call (the `u32` column
    /// limit it relies on is still checked eagerly, so the lazy build cannot
    /// fail).
    pub fn new(
        k: usize,
        ordering: Ordering,
        index3: Vec<usize>,
        index2: Vec<usize>,
        l: LowerTriangularCsr,
        perm: Permutation,
    ) -> Result<Self> {
        Self::from_shared(
            k,
            ordering,
            Arc::new(index3),
            Arc::new(index2),
            l,
            Arc::new(perm),
        )
    }

    /// Assembles a structure around already-shared hierarchy arrays, still
    /// validating every invariant. This is how [`StsStructure::with_operand`]
    /// avoids copying the (potentially large) index arrays and permutation:
    /// the analysis structure and every factor structure derived from it hold
    /// `Arc`s to the same allocations.
    fn from_shared(
        k: usize,
        ordering: Ordering,
        index3: Arc<Vec<usize>>,
        index2: Arc<Vec<usize>>,
        l: LowerTriangularCsr,
        perm: Arc<Permutation>,
    ) -> Result<Self> {
        let s = StsStructure::assemble(k, ordering, index3, index2, l, perm, Arc::default());
        s.validate()?;
        if s.n() > 0 && s.n() - 1 > u32::MAX as usize {
            return Err(MatrixError::InvalidStructure(format!(
                "split layout stores columns as u32; n = {} exceeds the 2^32 row limit",
                s.n()
            )));
        }
        Ok(s)
    }

    /// The fields, no layout built yet and nothing checked. `patterns`
    /// must be empty or describe `l`'s pattern over this hierarchy.
    fn assemble(
        k: usize,
        ordering: Ordering,
        index3: Arc<Vec<usize>>,
        index2: Arc<Vec<usize>>,
        l: LowerTriangularCsr,
        perm: Arc<Permutation>,
        patterns: Arc<LayoutPatterns>,
    ) -> Self {
        StsStructure {
            k,
            ordering,
            index3,
            index2,
            l: Some(l),
            perm,
            patterns,
            sweeps: Default::default(),
            inv_diag: OnceLock::new(),
            sym: OnceLock::new(),
        }
    }

    /// The number of levels of sub-structuring (1 for the flat reference
    /// methods, 3 for STS-3).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The ordering (coloring or level-set) that produced the packs.
    pub fn ordering(&self) -> Ordering {
        self.ordering
    }

    /// Dimension of the system: where the last super-row ends.
    pub fn n(&self) -> usize {
        self.index2[self.index2.len() - 1]
    }

    /// Stored nonzeros of the reordered operand.
    pub fn nnz(&self) -> usize {
        self.stored_in(0..self.n())
    }

    /// Stored nonzeros of the operand in `rows`: read from its row pointer,
    /// or, once [`StsStructure::into_sweeps`] has released it, from the
    /// forward layout's two slabs plus one diagonal per row.
    fn stored_in(&self, rows: std::ops::Range<usize>) -> usize {
        match &self.l {
            Some(l) => l.row_ptr()[rows.end] - l.row_ptr()[rows.start],
            None => {
                let split = self.split();
                rows.len() + split.ext_range_nnz(rows.clone()) + split.int_range_nnz(rows)
            }
        }
    }

    /// The reordered triangular operand `L' = lower(P A Pᵀ)`.
    ///
    /// # Panics
    ///
    /// On a structure returned by [`StsStructure::into_sweeps`], which holds
    /// no operand. So does everything that reads the operand:
    /// [`StsStructure::with_operand`], [`StsStructure::symmetric`],
    /// [`StsStructure::solve_sequential`],
    /// [`StsStructure::solve_transpose_sequential`] and
    /// [`StsStructure::validate`]; the unsplit
    /// [`ParallelSolver::solve`](crate::ParallelSolver::solve); the IC(0)
    /// builds [`ParallelSolver::parallel_ic0`](crate::ParallelSolver::parallel_ic0)
    /// and [`ParallelSolver::parallel_ic0_values`](crate::ParallelSolver::parallel_ic0_values);
    /// [`super_row_spec`](crate::super_row_spec); and `sts_krylov::solve_refined`.
    /// The counts ([`StsStructure::n`], [`StsStructure::nnz`],
    /// [`StsStructure::work_per_pack`]) and the sweep layouts stay readable.
    pub fn lower(&self) -> &LowerTriangularCsr {
        match &self.l {
            Some(l) => l,
            None => panic!("a sweep-only structure holds no operand"),
        }
    }

    /// The permutation `P` (new index → original index).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Number of packs (parallel steps separated by barriers).
    pub fn num_packs(&self) -> usize {
        self.index3.len() - 1
    }

    /// Number of super-rows (parallel tasks) over all packs.
    pub fn num_super_rows(&self) -> usize {
        self.index2.len() - 1
    }

    /// The `index3` array (pack → first super-row).
    pub fn index3(&self) -> &[usize] {
        &self.index3
    }

    /// The `index2` array (super-row → first row).
    pub fn index2(&self) -> &[usize] {
        &self.index2
    }

    /// The super-rows of pack `p`.
    pub fn pack_super_rows(&self, p: usize) -> std::ops::Range<usize> {
        self.index3[p]..self.index3[p + 1]
    }

    /// The rows of super-row `s`.
    pub fn super_row_rows(&self, s: usize) -> std::ops::Range<usize> {
        self.index2[s]..self.index2[s + 1]
    }

    /// The rows covered by pack `p`.
    pub fn pack_rows(&self, p: usize) -> std::ops::Range<usize> {
        self.index2[self.index3[p]]..self.index2[self.index3[p + 1]]
    }

    /// Number of solution components (rows) computed by each pack.
    pub fn components_per_pack(&self) -> Vec<usize> {
        (0..self.num_packs())
            .map(|p| self.pack_rows(p).len())
            .collect()
    }

    /// Work (stored nonzeros, i.e. fused multiply-adds) performed by each pack.
    pub fn work_per_pack(&self) -> Vec<usize> {
        (0..self.num_packs())
            .map(|p| self.stored_in(self.pack_rows(p)))
            .collect()
    }

    /// Solves the reordered system `L' x' = b'` sequentially, iterating packs,
    /// super-rows and rows exactly as Algorithm 1 does with one thread.
    pub fn solve_sequential(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n() {
            return Err(MatrixError::DimensionMismatch(format!(
                "b has length {}, expected {}",
                b.len(),
                self.n()
            )));
        }
        let mut x = vec![0.0; self.n()];
        let l = self.lower();
        let (row_ptr, col_idx, values) = (l.row_ptr(), l.col_idx(), l.values());
        for p in 0..self.num_packs() {
            for s in self.pack_super_rows(p) {
                for i1 in self.super_row_rows(s) {
                    let start = row_ptr[i1];
                    let end = row_ptr[i1 + 1];
                    let mut acc = 0.0;
                    for k in start..end - 1 {
                        acc += values[k] * x[col_idx[k]];
                    }
                    x[i1] = (b[i1] - acc) / values[end - 1];
                }
            }
        }
        Ok(x)
    }

    /// The dependency-split layout (external/internal slabs plus the chain
    /// tasks), built on first use. Thread-safe: concurrent first calls
    /// race benignly inside the `OnceLock`; every caller sees the same built
    /// layout. Callers who want the build cost out of their timed region can
    /// force it up front with this same method.
    pub fn split(&self) -> &SplitLayout {
        self.layout(SweepDirection::Forward)
    }

    /// Whether the dependency-split layout has been built yet (diagnostic;
    /// unsplit-only callers should keep this `false` and skip the ≈2×
    /// off-diagonal storage cost).
    pub fn split_built(&self) -> bool {
        self.sweeps[0].get().is_some()
    }

    /// The transpose (backward-sweep) split layout, built on first use like
    /// [`StsStructure::split`]. See [`crate::transpose`] for the
    /// reverse-pack-order correctness argument the backward sweeps rely on.
    pub fn transpose_split(&self) -> &SplitLayout {
        self.layout(SweepDirection::Transpose)
    }

    /// Whether the transpose split layout has been built yet (diagnostic).
    pub fn transpose_split_built(&self) -> bool {
        self.sweeps[1].get().is_some()
    }

    /// The symmetric layout `L' + L'ᵀ − D` (see [`crate::symmetric`]), built
    /// on first use like [`StsStructure::split`]: the operator a Krylov
    /// iteration's product reads.
    pub fn symmetric(&self) -> &SymmetricLayout {
        self.sym.get_or_init(|| {
            let l = self.lower();
            let pattern = self
                .patterns
                .sym
                .get_or_init(|| Arc::new(SymmetricPattern::build(l)));
            SymmetricLayout::fill(pattern, l)
        })
    }

    /// Whether the symmetric layout has been built yet (diagnostic).
    pub fn symmetric_built(&self) -> bool {
        self.sym.get().is_some()
    }

    /// The split layout a sweep in `direction` runs on: the pattern's
    /// (built by the first structure of the pattern that sweeps in
    /// `direction`) filled with this structure's values.
    pub(crate) fn layout(&self, direction: SweepDirection) -> &SplitLayout {
        let d = direction_index(direction);
        let layout = self.sweeps[d].get_or_init(|| {
            let l = self.lower();
            let pattern = self.patterns.sweeps[d].get_or_init(|| {
                Arc::new(SplitPattern::build(
                    l,
                    &self.index3,
                    &self.index2,
                    direction,
                ))
            });
            let inv_diag = self
                .inv_diag
                .get_or_init(|| (0..l.n()).map(|i| 1.0 / l.diag(i)).collect());
            SplitLayout::fill(pattern, l, inv_diag)
        });
        // Debug builds statically verify a pattern's schedule the first time
        // a layout of it is built. The guard must be a non-blocking `set`
        // (first caller wins, losers skip): the verifier extracts its
        // footprints by calling `layout()` again, and a `get_or_init` here
        // would deadlock on that reentrancy.
        #[cfg(debug_assertions)]
        if self.patterns.verified[d].set(()).is_ok() {
            if let Err(v) = self.verify_schedule_at(usize::MAX, direction) {
                panic!(
                    "{} schedule fails static verification: {v}",
                    direction.as_str()
                );
            }
            if direction == SweepDirection::Forward {
                if let Err(v) = self.verify_factor_schedule() {
                    panic!("super-row schedule fails static verification: {v}");
                }
            }
        }
        layout
    }

    /// Rebuilds this structure around a different operand that shares the
    /// hierarchy: same dimension, same pack / super-row boundaries, and a
    /// sparsity pattern that still satisfies the pack-independence invariant
    /// (validated). The permutation is carried over unchanged.
    ///
    /// This is the factored-preconditioner entry point: an incomplete
    /// Cholesky factor has exactly the sparsity pattern of the reordered
    /// operand's lower triangle, so the ordering computed once for the
    /// system matrix can host the factor's values without re-running the
    /// ordering pipeline.
    ///
    /// An operand on this structure's pattern is not validated again: pack
    /// independence is a property of that pattern and the hierarchy, and
    /// both were validated when this structure was built. Such an operand
    /// either holds the pattern's allocations
    /// ([`LowerTriangularCsr::with_values`] of [`StsStructure::lower`]) or
    /// an equal copy, which is compared entry by entry and then dropped in
    /// favour of the shared allocations. The returned structure then shares
    /// the layouts' index arrays too
    /// ([`StsStructure::shares_layout_patterns_with`]): each of its layouts,
    /// built on first use, costs one value pass. Any other operand is
    /// validated in full and gets layout patterns of its own.
    pub fn with_operand(&self, l: LowerTriangularCsr) -> Result<StsStructure> {
        if l.n() != self.n() {
            return Err(MatrixError::DimensionMismatch(format!(
                "replacement operand is {}x{0}, structure expects {1}x{1}",
                l.n(),
                self.n()
            )));
        }
        let (index3, index2, perm) = (
            Arc::clone(&self.index3),
            Arc::clone(&self.index2),
            Arc::clone(&self.perm),
        );
        let own = self.lower();
        let l = if l.shares_pattern_with(own) {
            l
        } else if l.row_ptr() == own.row_ptr() && l.col_idx() == own.col_idx() {
            own.with_values(l.into_values())?
        } else {
            return StsStructure::from_shared(self.k, self.ordering, index3, index2, l, perm);
        };
        Ok(StsStructure::assemble(
            self.k,
            self.ordering,
            index3,
            index2,
            l,
            perm,
            Arc::clone(&self.patterns),
        ))
    }

    /// This structure reduced to what a sweep reads: both sweep layouts are
    /// built from the operand, whose values are then released. The result
    /// keeps the layouts' value slabs, the reciprocal diagonal and the
    /// shared hierarchy and layout patterns, and serves
    /// [`ParallelSolver::solve_into`](crate::ParallelSolver::solve_into) and
    /// the layout accessors; every method that reads the operand panics on
    /// it (see [`StsStructure::lower`]).
    ///
    /// This is how a factor is held: Algorithm 1 sweeps only the CSR-k
    /// layouts, so a copy of the factor's values beside them would be read
    /// by nothing.
    pub fn into_sweeps(mut self) -> StsStructure {
        self.split();
        self.transpose_split();
        self.l = None;
        self
    }

    /// Whether `other` shares this structure's hierarchy allocations (index
    /// arrays and permutation) rather than owning copies. True for any
    /// structure derived through [`StsStructure::with_operand`]; diagnostic
    /// for cache implementations that rely on the sharing.
    pub fn shares_hierarchy_with(&self, other: &StsStructure) -> bool {
        Arc::ptr_eq(&self.index3, &other.index3)
            && Arc::ptr_eq(&self.index2, &other.index2)
            && Arc::ptr_eq(&self.perm, &other.perm)
    }

    /// Whether `other` shares this structure's layout patterns — the split,
    /// transpose and symmetric layouts' row pointers, columns and chain
    /// tasks — rather than building its own: true for any structure derived
    /// through [`StsStructure::with_operand`] on this structure's pattern
    /// (diagnostic).
    pub fn shares_layout_patterns_with(&self, other: &StsStructure) -> bool {
        Arc::ptr_eq(&self.patterns, &other.patterns)
    }

    /// Solves the transposed (upper-triangular) system `L'ᵀ x' = b'`
    /// sequentially.
    ///
    /// Together with [`StsStructure::solve_sequential`] this provides the
    /// forward/backward sweep pair that symmetric Gauss–Seidel and incomplete
    /// Cholesky preconditioners perform per iteration. The backward sweep is
    /// mathematically equivalent to processing the packs in reverse order.
    pub fn solve_transpose_sequential(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lower().solve_transpose_seq(b)
    }

    /// Maps a solution vector of the reordered system back to the original
    /// row numbering (`result[original] = x_new[new]`).
    pub fn scatter_to_original(&self, x_new: &[f64]) -> Vec<f64> {
        self.perm.scatter_to_original(x_new)
    }

    /// Gathers a vector given in original numbering into the reordered
    /// numbering (`result[new] = v[original]`).
    pub fn gather_from_original(&self, v: &[f64]) -> Vec<f64> {
        self.perm.apply_to_slice(v)
    }

    /// Validates every structural invariant:
    ///
    /// 1. `index3`/`index2` are monotone, start at 0 and end at the number of
    ///    super-rows / rows respectively;
    /// 2. the permutation has the right size;
    /// 3. **pack independence** — no row depends (through a strictly-lower
    ///    nonzero of `L'`) on a row of a *different* super-row of the same
    ///    pack; dependencies must come from earlier packs or from earlier rows
    ///    of the same super-row.
    pub fn validate(&self) -> Result<()> {
        let l = self.lower();
        let n = l.n();
        if self.perm.len() != n {
            return Err(MatrixError::InvalidStructure(format!(
                "permutation length {} does not match n = {n}",
                self.perm.len()
            )));
        }
        check_monotone_cover(&self.index2, n, "index2")?;
        check_monotone_cover(&self.index3, self.index2.len() - 1, "index3")?;
        // Row → super-row and super-row → pack lookup tables.
        let mut super_row_of = vec![0usize; n];
        for s in 0..self.num_super_rows() {
            for r in self.super_row_rows(s) {
                super_row_of[r] = s;
            }
        }
        let mut pack_of = vec![0usize; self.num_super_rows()];
        for p in 0..self.num_packs() {
            for s in self.pack_super_rows(p) {
                pack_of[s] = p;
            }
        }
        for i in 0..n {
            let si = super_row_of[i];
            for &j in l.row_off_diag_cols(i) {
                let sj = super_row_of[j];
                if sj == si {
                    continue; // internal to the task: solved sequentially
                }
                if pack_of[sj] >= pack_of[si] {
                    return Err(MatrixError::InvalidStructure(format!(
                        "row {i} (pack {}) depends on row {j} (pack {}) which is not in an \
                         earlier pack",
                        pack_of[si], pack_of[sj]
                    )));
                }
            }
        }
        Ok(())
    }
}

fn check_monotone_cover(index: &[usize], total: usize, name: &str) -> Result<()> {
    let Some((&first, &last)) = index.first().zip(index.last()) else {
        return Err(MatrixError::InvalidStructure(format!(
            "{name} must start at 0"
        )));
    };
    if first != 0 {
        return Err(MatrixError::InvalidStructure(format!(
            "{name} must start at 0"
        )));
    }
    if last != total {
        return Err(MatrixError::InvalidStructure(format!(
            "{name} must end at {total}, got {last}"
        )));
    }
    if index.windows(2).any(|w| w[0] > w[1]) {
        return Err(MatrixError::InvalidStructure(format!(
            "{name} must be non-decreasing"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::generators;

    /// A hand-built flat structure over the Figure-1 example: each row is its
    /// own super-row, packs = dependency levels.
    fn figure1_flat_structure() -> StsStructure {
        let l = generators::paper_figure1_l();
        // Dependency levels of the example: {0,1,4}, {2,3}, {5}, {6}, {7}, {8}.
        // Reorder rows level by level.
        let order = vec![0usize, 1, 4, 2, 3, 5, 6, 7, 8];
        let perm = Permutation::from_new_to_old(order).unwrap();
        // Value-preserving symmetric permutation of the operand.
        let lp = l.permute_symmetric(perm.new_to_old()).unwrap();
        let index2: Vec<usize> = (0..=9).collect();
        let index3 = vec![0, 3, 5, 6, 7, 8, 9];
        StsStructure::new(1, Ordering::LevelSet, index3, index2, lp, perm).unwrap()
    }

    #[test]
    fn flat_structure_reports_counts() {
        let s = figure1_flat_structure();
        assert_eq!(s.n(), 9);
        assert_eq!(s.num_packs(), 6);
        assert_eq!(s.num_super_rows(), 9);
        assert_eq!(s.components_per_pack(), vec![3, 2, 1, 1, 1, 1]);
        assert_eq!(s.work_per_pack().iter().sum::<usize>(), s.nnz());
        assert_eq!(s.k(), 1);
        assert_eq!(s.ordering(), Ordering::LevelSet);
    }

    #[test]
    fn sequential_solve_matches_plain_forward_substitution() {
        let s = figure1_flat_structure();
        let x_true: Vec<f64> = (0..9).map(|i| 1.0 + i as f64 * 0.25).collect();
        let b = s.lower().multiply(&x_true).unwrap();
        let x = s.solve_sequential(&b).unwrap();
        let x_ref = s.lower().solve_seq(&b).unwrap();
        for ((a, b), c) in x.iter().zip(&x_ref).zip(&x_true) {
            assert!((a - b).abs() < 1e-12);
            assert!((a - c).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let s = figure1_flat_structure();
        assert!(s.solve_sequential(&[1.0; 3]).is_err());
        assert!(s.solve_transpose_sequential(&[1.0; 3]).is_err());
    }

    #[test]
    fn forward_then_backward_sweep_inverts_the_normal_operator() {
        // (L' L'ᵀ) x = b solved by a forward then a backward sweep.
        let s = figure1_flat_structure();
        let x_true: Vec<f64> = (0..9).map(|i| 0.5 + i as f64 * 0.1).collect();
        let lt_x = s.lower().multiply_transpose(&x_true).unwrap();
        let b = s.lower().multiply(&lt_x).unwrap();
        let y = s.solve_sequential(&b).unwrap();
        let x = s.solve_transpose_sequential(&y).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn with_operand_reuses_the_hierarchy_for_new_values() {
        let s = figure1_flat_structure();
        // Same pattern, shifted values: scale every stored entry.
        let mut csr = s.lower().to_csr();
        for v in csr.values_mut() {
            *v *= 2.0;
        }
        let l2 = LowerTriangularCsr::from_csr(&csr).unwrap();
        assert!(!l2.shares_pattern_with(s.lower()));
        let s2 = s.with_operand(l2).unwrap();
        // An equal copy of the pattern is dropped for the shared one.
        assert!(s2.lower().shares_pattern_with(s.lower()));
        assert!(s2.shares_layout_patterns_with(&s));
        assert!(std::ptr::eq(s2.split().ext_cols(), s.split().ext_cols()));
        assert_eq!(s2.num_packs(), s.num_packs());
        assert_eq!(s2.index2(), s.index2());
        let b = vec![1.0; 9];
        let x = s.solve_sequential(&b).unwrap();
        let x2 = s2.solve_sequential(&b).unwrap();
        for (a, b) in x2.iter().zip(&x) {
            // L₂ = 2 L ⇒ x₂ = x / 2.
            assert!((a - b / 2.0).abs() < 1e-12);
        }
        // A wrong-sized operand is rejected.
        let tiny = generators::paper_figure1_l();
        let small = LowerTriangularCsr::from_csr(&tiny.to_csr().lower_triangle()).unwrap();
        let shrunk = StsStructure::new(
            1,
            Ordering::LevelSet,
            vec![0, 1],
            vec![0, 5],
            {
                let mut coo = sts_matrix::CooMatrix::new(5, 5);
                for i in 0..5 {
                    coo.push(i, i, 1.0).unwrap();
                }
                LowerTriangularCsr::from_csr(&coo.to_csr()).unwrap()
            },
            Permutation::identity(5),
        )
        .unwrap();
        assert_eq!(small.n(), 9);
        assert!(shrunk.with_operand(small).is_err());
    }

    #[test]
    fn another_valid_pattern_gets_layout_patterns_of_its_own() {
        // Every row its own super-row and its own pack is valid for any
        // lower-triangular pattern.
        let l = generators::paper_figure1_l();
        let flat = |l: LowerTriangularCsr| {
            let (index3, index2) = ((0..=9).collect(), (0..=9).collect());
            StsStructure::new(
                1,
                Ordering::LevelSet,
                index3,
                index2,
                l,
                Permutation::identity(9),
            )
            .unwrap()
        };
        let s = flat(l.clone());
        let mut diagonal = sts_matrix::CooMatrix::new(9, 9);
        for i in 0..9 {
            diagonal.push(i, i, 2.0).unwrap();
        }
        let d = LowerTriangularCsr::from_csr(&diagonal.to_csr()).unwrap();
        let s2 = s.with_operand(d.clone()).unwrap();
        assert!(s2.shares_hierarchy_with(&s) && !s2.shares_layout_patterns_with(&s));
        assert_eq!(s2.split().ext_nnz() + s2.split().int_nnz(), 0);
        assert_eq!(*s2.split(), *flat(d).split());
        assert_eq!(*s.split(), *flat(l).split());
    }

    #[test]
    fn equality_ignores_the_lazy_split_cache() {
        let a = figure1_flat_structure();
        let b = a.clone();
        let _ = a.split(); // populate a's cache only
        assert!(a.split_built() && !b.split_built());
        assert_eq!(a, b, "the split cache is derived state, not identity");
        let _ = a.transpose_split();
        assert!(a.transpose_split_built() && !b.transpose_split_built());
        assert_eq!(a, b, "the transpose cache is derived state too");
        let _ = a.symmetric();
        assert!(a.symmetric_built() && !b.symmetric_built());
        assert_eq!(a, b, "so is the symmetric layout");
    }

    #[test]
    fn an_operand_on_the_shared_pattern_keeps_the_hierarchy() {
        let s = figure1_flat_structure();
        let halved: Vec<f64> = s.lower().values().iter().map(|v| v / 2.0).collect();
        let s2 = s
            .with_operand(s.lower().with_values(halved).unwrap())
            .unwrap();
        assert!(s2.shares_hierarchy_with(&s));
        assert!(s2.lower().shares_pattern_with(s.lower()));
        assert!(s2.validate().is_ok());
        let b = vec![1.0; 9];
        let (x, x2) = (
            s.solve_sequential(&b).unwrap(),
            s2.solve_sequential(&b).unwrap(),
        );
        for (a, b) in x2.iter().zip(&x) {
            assert!((a - 2.0 * b).abs() < 1e-12);
        }
    }

    #[test]
    fn a_sweep_only_structure_keeps_both_layouts_and_no_operand() {
        let s = figure1_flat_structure();
        let swept = s.clone().into_sweeps();
        assert!(swept.split_built() && swept.transpose_split_built());
        assert_eq!(*swept.split(), *s.split());
        assert_eq!(*swept.transpose_split(), *s.transpose_split());
        assert!(swept.shares_hierarchy_with(&s) && swept.shares_layout_patterns_with(&s));
        assert_eq!((swept.n(), swept.num_packs()), (s.n(), s.num_packs()));
        assert!(!swept.symmetric_built());
        assert_ne!(swept, s);
    }

    #[test]
    fn a_sweep_only_structure_counts_its_entries_from_the_forward_layout() {
        let a = generators::grid2d_laplacian(30, 30).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = crate::builder::Method::Sts3.build(&l, 8).unwrap();
        let swept = s.clone().into_sweeps();
        assert!(swept.split().int_nnz() > 0);
        assert_eq!(
            (swept.nnz(), swept.work_per_pack()),
            (s.nnz(), s.work_per_pack())
        );
    }

    #[test]
    fn sweep_only_structures_compare_by_their_layouts() {
        let s = figure1_flat_structure();
        let scaled = s.lower().values().iter().map(|v| 2.0 * v).collect();
        let other = s
            .with_operand(s.lower().with_values(scaled).unwrap())
            .unwrap();
        assert_eq!(s.clone().into_sweeps(), s.clone().into_sweeps());
        assert_ne!(s.clone().into_sweeps(), other.into_sweeps());
    }

    #[test]
    #[should_panic(expected = "a sweep-only structure holds no operand")]
    fn a_sweep_only_structure_has_no_lower_triangle() {
        figure1_flat_structure().into_sweeps().lower();
    }

    #[test]
    fn split_layout_is_built_lazily_and_only_once() {
        let s = figure1_flat_structure();
        assert!(
            !s.split_built(),
            "construction must not pay the split storage cost"
        );
        // Unsplit kernels never force it.
        let b = vec![1.0; 9];
        let _ = s.solve_sequential(&b).unwrap();
        assert!(!s.split_built());
        // The first split use builds it; later calls reuse the same layout.
        let first = s.split() as *const _;
        assert!(s.split_built());
        assert_eq!(first, s.split() as *const _);
        // The transpose layout is independent and just as lazy.
        assert!(!s.transpose_split_built());
        let _ = s.solve_transpose_sequential(&b).unwrap();
        assert!(!s.transpose_split_built());
        let _ = s.transpose_split();
        assert!(s.transpose_split_built());
        // So is the symmetric layout, which no sweep reads.
        assert!(!s.symmetric_built());
        let first = s.symmetric() as *const _;
        assert!(s.symmetric_built());
        assert_eq!(first, s.symmetric() as *const _);
    }

    #[test]
    fn gather_and_scatter_roundtrip() {
        let s = figure1_flat_structure();
        let original: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let gathered = s.gather_from_original(&original);
        let back = s.scatter_to_original(&gathered);
        assert_eq!(back, original);
        // The gathered vector is a genuine permutation of the original.
        let mut sorted = gathered.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted, original);
    }

    #[test]
    fn validation_rejects_bad_index_arrays() {
        let s = figure1_flat_structure();
        let l = s.lower().clone();
        let perm = s.permutation().clone();
        // index2 not covering all rows
        let bad = StsStructure::new(
            1,
            Ordering::LevelSet,
            vec![0, 8],
            (0..=8).collect(),
            l.clone(),
            perm.clone(),
        );
        assert!(bad.is_err());
        // index3 not starting at zero
        let bad = StsStructure::new(
            1,
            Ordering::LevelSet,
            vec![1, 9],
            (0..=9).collect(),
            l,
            perm,
        );
        assert!(bad.is_err());
    }

    #[test]
    fn validation_rejects_intra_pack_dependencies() {
        // Put every row of the Figure-1 example into one single pack with one
        // row per super-row: rows 2..8 depend on earlier rows in the same
        // pack, which must be rejected.
        let l = generators::paper_figure1_l();
        let perm = Permutation::identity(9);
        let index2: Vec<usize> = (0..=9).collect();
        let index3 = vec![0, 9];
        let err = StsStructure::new(1, Ordering::Coloring, index3, index2, l, perm);
        assert!(err.is_err());
    }

    #[test]
    fn single_pack_is_valid_when_rows_share_one_super_row() {
        // The same rows are fine if they form ONE super-row (sequential task).
        let l = generators::paper_figure1_l();
        let perm = Permutation::identity(9);
        let index2 = vec![0, 9];
        let index3 = vec![0, 1];
        let s = StsStructure::new(3, Ordering::Coloring, index3, index2, l, perm).unwrap();
        assert_eq!(s.num_packs(), 1);
        assert_eq!(s.num_super_rows(), 1);
        let b = vec![1.0; 9];
        let x = s.solve_sequential(&b).unwrap();
        let x_ref = s.lower().solve_seq(&b).unwrap();
        assert_eq!(x, x_ref);
    }
}
