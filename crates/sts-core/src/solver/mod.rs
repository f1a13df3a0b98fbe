//! Triangular solvers on top of the STS-k structure.
//!
//! * [`parallel`] — the pack-parallel solver on a persistent (optionally
//!   pinned) worker pool: the sequential, split and pipelined drivers of the
//!   one two-phase sweep kernel behind [`ParallelSolver::solve_with`] /
//!   [`ParallelSolver::solve_into`], plus Algorithm 1 executed with threads
//!   ([`ParallelSolver::solve`]: one `parallel_for` over the super-rows of
//!   each pack, a barrier between packs).
//! * `kernel` — the row arithmetic of that sweep: the *sum form* and the
//!   *tile form*, each with one gather-row and one chain-row function.
//! * [`plan`] — the one chunk geometry ([`PipelinePlan`], the factor
//!   chunking): computed once, executed by the kernels, and read back by the
//!   schedule verifier and the simulator.
//! * [`scheduled`] — a schedule-only level-scheduled solver for callers who
//!   must solve their original `L x = b` without any reordering (classical
//!   Saltz level scheduling); it shares no storage transformation with STS-k
//!   and serves as an additional baseline.
//! * [`factor`] — level-scheduled parallel IC(0) construction
//!   ([`ParallelSolver::parallel_ic0`]): the preconditioner *setup* run over
//!   the same pack hierarchy and epoch-gate readiness scheme as the solves,
//!   bitwise identical to the sequential up-looking sweep.

//!
//! # Which requests are bitwise identical
//!
//! A sweep's output bits depend on the row arithmetic, never on the driver,
//! the thread count or the chunking. Which arithmetic a request runs is a
//! pure function of `(engine, nrhs)`:
//!
//! | request | form | bitwise identical to |
//! |---|---|---|
//! | `nrhs = 1`, sequential / split / pipelined | sum, width 1 | each other, at every thread count |
//! | `nrhs > 1`, sequential | sum, width 8 | lane by lane, the `nrhs = 1` sweeps above |
//! | `nrhs > 1`, split / pipelined | tile | each other, at every thread count |
//! | [`ParallelSolver::solve`] (unsplit) | Algorithm 1's row loop | itself at every thread count and schedule |
//!
//! Across rows of the table — sum vs tile vs the unsplit loop, and every
//! engine vs [`StsStructure::solve_sequential`] /
//! [`StsStructure::solve_transpose_sequential`] — results agree to rounding
//! (≤ 1e-12 relative on the test suites), not bitwise: the forms associate
//! the same products differently. Reading the f32 value slabs changes the
//! stored values, not the form, so the table holds per precision.
//! `tests/sweep_golden_bits.rs` pins the bits of every row.
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
