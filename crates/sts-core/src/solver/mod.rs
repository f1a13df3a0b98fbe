//! Triangular solvers on top of the STS-k structure.
//!
//! * [`parallel`] — the pack-parallel solver on a persistent (optionally
//!   pinned) worker pool: the sequential, split and pipelined drivers of the
//!   one two-phase sweep kernel behind [`ParallelSolver::solve_with`] /
//!   [`ParallelSolver::solve_into`], plus Algorithm 1 executed with threads
//!   ([`ParallelSolver::solve`]: one `parallel_for` over the super-rows of
//!   each pack, a barrier between packs).
//! * `kernel` — the row arithmetic of that sweep: one row body with a
//!   gather-row and a chain-row function, at lane width 1 or 8.
//! * [`plan`] — the one chunk geometry ([`PipelinePlan`], the factor
//!   chunking): computed once, executed by the kernels, and read back by the
//!   schedule verifier.
//! * [`scheduled`] — a schedule-only level-scheduled solver for callers who
//!   must solve their original `L x = b` without any reordering (classical
//!   Saltz level scheduling); it shares no storage transformation with STS-k
//!   and serves as an additional baseline.
//! * [`factor`] — level-scheduled parallel IC(0) construction
//!   ([`ParallelSolver::parallel_ic0`]): the preconditioner *setup* run over
//!   the same pack hierarchy, epoch-gate readiness scheme and gated-worker
//!   scaffold as the pipelined solves, bitwise identical to the sequential
//!   up-looking sweep.
//!
//! # Which requests are bitwise identical
//!
//! A sweep's output bits depend on the row arithmetic, never on the driver,
//! the thread count, the chunking or the batch width, and the split-layout
//! engines share one row arithmetic (`acc = Σ v·x` in slab order, then
//! `x = (b − acc)·d`):
//!
//! | request | bitwise identical to |
//! |---|---|
//! | sequential / split / pipelined, any `nrhs` | each other at every thread count; lane by lane, the `nrhs = 1` sweep of that right-hand side |
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
pub mod plan;
pub mod scheduled;

pub use parallel::ParallelSolver;
pub use plan::PipelinePlan;
pub use scheduled::LevelScheduledSolver;
