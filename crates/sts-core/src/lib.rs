//! STS-k: a multilevel sparse triangular solution scheme for NUMA multicores.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates (`sts-matrix`, `sts-graph`, `sts-numa`, `sts-sched`):
//!
//! * [`csrk`] — the k-level CSR-k structure (`index3`/`index2`/`index1`) that
//!   stores the reordered triangular operand together with its pack /
//!   super-row hierarchy, plus the sequential reference solve (Algorithm 1);
//! * [`pack`] — pack construction on the (coarse) graph by greedy coloring or
//!   dependency level sets, ordered by increasing size;
//! * [`reorder`] — the super-row input sets, read off `L` in one pass, and
//!   the within-pack DAR reordering (RCM on the data-affinity graph) that
//!   exposes line-graph structure for cache reuse;
//! * [`builder`] — the [`StsBuilder`] pipeline and the four named methods of
//!   the evaluation (`CSR-LS`, `CSR-COL`, `CSR-3-LS`, `STS-3`);
//! * [`split`] — the dependency-split CSR layout (built lazily on first
//!   use): per pack, an *external* slab of entries referencing earlier packs
//!   (streamed by the embarrassingly-parallel gather phase) and an
//!   *internal* slab holding the true in-pack dependence chains, plus the
//!   chain tasks of each pack;
//! * [`transpose`] — the transpose (backward-sweep) constructor of the same
//!   layout type: the split applied to `L'ᵀ`, with the packs consumed in
//!   reverse order, so preconditioner forward/backward sweep pairs both run
//!   on the parallel driver;
//! * [`symmetric`] — the third lazily built layout of a structure: the
//!   symmetric operator `L' + L'ᵀ − D` row by row with `u32` columns, which
//!   the Krylov product ([`ParallelSolver::spmv_dots`]) reads, so a system
//!   needs no second copy of its operator;
//! * [`solver`] — the threaded pack-parallel solver: one sweep kernel (one
//!   row body in `solver::kernel`, one chunk geometry in `solver::plan`)
//!   under one two-phase split driver behind
//!   `ParallelSolver::solve_with` / `solve_into`; the paper's unsplit
//!   barrier-per-pack kernel (`ParallelSolver::solve`); and the
//!   level-scheduled parallel IC(0) construction
//!   (`ParallelSolver::parallel_ic0`) that runs the preconditioner *setup*
//!   on that same super-row loop, a barrier per pack;
//! * [`options`] — the typed [`SolveOptions`] request (direction × batch
//!   width × [`PrecisionPolicy`]) consumed by
//!   [`solver::parallel::ParallelSolver::solve_with`], and the [`SlabValue`]
//!   abstraction behind the mixed-precision (f32-storage / f64-accumulation)
//!   sweep kernels;
//! * [`analysis`] — the parallelism and work-distribution statistics behind
//!   Figures 7 and 8, and the bytes-per-sweep count
//!   ([`analysis::solve_bytes`]) the repo benchmark's roofline ratio is
//!   taken against;
//! * [`verify`] — static schedule verification: extracts the dispatches the
//!   split sweep and the super-row loop issue, with every task's exact
//!   read/write footprint, and checks that a barrier or program order
//!   orders every access, via the dependency-free `sts-verify` checker
//!   ([`StsStructure::verify_schedule`]); re-run automatically on first
//!   layout build under `debug_assertions`.
//!
//! # Semantics of the reordering
//!
//! Like the paper (and like coloring-based triangular solves in general), the
//! builder *reorders the system symmetrically*: from the input operand `L` it
//! forms `A = L + Lᵀ` (keeping `L`'s diagonal), applies the computed
//! permutation `P`, and the structure solves the reordered system
//! `lower(P A Pᵀ) · x' = b'`. This matches the intended use in iterative
//! solvers, where the application permutes its matrix once and then performs
//! many triangular solves in the new ordering. A fixed `L x = b` that must
//! not be reordered has no parallel solver here; its sequential solve is
//! `sts_matrix::LowerTriangularCsr::solve_seq`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod builder;
pub mod csrk;
pub mod options;
pub mod pack;
pub mod reorder;
pub mod solver;
pub mod split;
pub mod symmetric;
pub mod transpose;
pub mod verify;

pub use analysis::{SimulatedExecutor, SolveBytesModel};
pub use builder::{Method, Ordering, StsBuilder, SuperRowSizing};
pub use csrk::StsStructure;
pub use options::{PrecisionPolicy, SlabValue, SolveEngine, SolveOptions, SweepDirection};
pub use solver::parallel::{ChaosHook, ParallelSolver};
pub use solver::vector::BlockSums;
pub use split::SplitLayout;
pub use symmetric::SymmetricLayout;
pub use verify::{solve_spec, super_row_spec};
