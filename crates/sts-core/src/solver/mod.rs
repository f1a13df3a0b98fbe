//! Triangular solvers on top of the STS-k structure.
//!
//! * [`parallel`] — the pack-parallel solver on a persistent (optionally
//!   pinned) worker pool: the split driver of the one two-phase sweep
//!   kernel behind [`ParallelSolver::solve_with`] /
//!   [`ParallelSolver::solve_into`], plus Algorithm 1 executed with threads
//!   ([`ParallelSolver::solve`]: one `parallel_for` over the super-rows of
//!   each pack, a barrier between packs) — the super-row loop the IC(0)
//!   build runs on too.
//! * `kernel` — the row arithmetic of that sweep: one row body with a
//!   gather-row and a chain-row function, at lane width 1 or 8.
//! * `plan` — the one chunk geometry (the split sweep's stage and chunk
//!   functions): called by the driver and by the schedule verifier alike.
//! * [`vector`] — the vector kernels of a Krylov iteration on the same
//!   pool, over fixed blocks of [`vector::BLOCK_ROWS`] rows: the products
//!   [`ParallelSolver::spmv_into`] / [`ParallelSolver::spmv_batch_into`] on
//!   a `CsrMatrix`, and the fused passes of a CG iteration —
//!   [`ParallelSolver::dots`], [`ParallelSolver::update_direction`],
//!   [`ParallelSolver::spmv_dots`] (`A·p` with `p·Ap`, `A` read from the
//!   structure's symmetric layout with `u32` columns, through the same row
//!   body as the plain products) and [`ParallelSolver::cg_step`] (`x`, `r`
//!   with `r·r`) — whose sums follow one blocked order, so their bits do
//!   not depend on the thread count and lane `q` of a batch sums as its
//!   `nrhs = 1` reduction does.
//! * [`factor`] — level-scheduled parallel IC(0) construction
//!   ([`ParallelSolver::parallel_ic0`] from a matrix,
//!   [`ParallelSolver::parallel_ic0_values`] from values on the structure's
//!   own pattern, which the factor then shares): the preconditioner *setup*
//!   run over the same pack hierarchy on Algorithm 1's super-row loop, a
//!   barrier per pack, bitwise identical to the sequential up-looking
//!   sweep.
//!
//! # Which requests are bitwise identical
//!
//! A sweep's output bits depend on the row arithmetic, never on the thread
//! count, the chunking or the batch width, and every split-layout sweep
//! runs one row arithmetic (`acc = Σ v·x` in slab order, then
//! `x = (b − acc)·d`):
//!
//! | request | bitwise identical to |
//! |---|---|
//! | [`ParallelSolver::solve_with`] (split), any `nrhs` | itself at every thread count (one thread included); lane by lane, the `nrhs = 1` sweep of that right-hand side |
//! | [`ParallelSolver::solve`] (unsplit, Algorithm 1's row loop) | itself at every thread count and schedule |
//!
//! Across the two rows — and against [`StsStructure::solve_sequential`] /
//! [`StsStructure::solve_transpose_sequential`] — results agree to rounding,
//! not bitwise: the unsplit loop sums a row's entries in one pass and
//! divides by the diagonal, the split layouts sum the external and internal
//! slabs separately and multiply by its reciprocal. Reading the f32 value
//! slabs changes the stored values, not the arithmetic, so the table holds
//! per precision. `tests/sweep_golden_bits.rs` pins the bits of both rows.
//!
//! [`StsStructure::solve_sequential`]: crate::csrk::StsStructure::solve_sequential
//! [`StsStructure::solve_transpose_sequential`]: crate::csrk::StsStructure::solve_transpose_sequential

pub mod factor;
pub(crate) mod kernel;
pub mod parallel;
pub(crate) mod plan;
pub mod vector;

pub use parallel::ParallelSolver;
pub use vector::BlockSums;
