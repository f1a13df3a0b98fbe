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
//! * [`reorder`] — the within-pack DAR reordering (RCM on the data-affinity
//!   graph) that exposes line-graph structure for cache reuse;
//! * [`builder`] — the [`StsBuilder`] pipeline and the four named methods of
//!   the evaluation (`CSR-LS`, `CSR-COL`, `CSR-3-LS`, `STS-3`);
//! * [`split`] — the dependency-split CSR layout (built lazily on first
//!   use): per pack, an *external* slab of entries referencing earlier packs
//!   (streamed by the embarrassingly-parallel gather phase) and an
//!   *internal* slab holding the true in-pack dependence chains, plus
//!   per-row readiness metadata for level scheduling;
//! * [`transpose`] — the transpose (backward-sweep) constructor of the same
//!   layout type: the split applied to `L'ᵀ`, with the packs consumed in
//!   reverse order, so preconditioner forward/backward sweep pairs both run
//!   on the parallel engines;
//! * [`solver`] — the threaded pack-parallel solver: one sweep kernel (one
//!   row body in `solver::kernel`, one chunk geometry in `solver::plan`)
//!   under a sequential and a two-phase split driver, both behind
//!   `ParallelSolver::solve_with` / `solve_into`; the paper's unsplit
//!   barrier-per-pack kernel (`ParallelSolver::solve`); a schedule-only
//!   level-scheduled solver for callers who cannot reorder their system;
//!   and the level-scheduled parallel IC(0) construction
//!   (`ParallelSolver::parallel_ic0`) that runs the preconditioner *setup*
//!   over the same pack hierarchy, each chunk waiting on an epoch gate for
//!   just the packs it reads;
//! * [`options`] — the typed [`SolveOptions`] request (engine × direction ×
//!   batch width × [`PrecisionPolicy`]) consumed by
//!   [`solver::parallel::ParallelSolver::solve_with`], and the [`SlabValue`]
//!   abstraction behind the mixed-precision (f32-storage / f64-accumulation)
//!   sweep kernels;
//! * [`exec`] — the simulated NUMA executor that prices the paper's
//!   pack-by-pack solve on a modelled machine (the 32-core Intel and 24-core
//!   AMD nodes), used by the `paper_figs` driver, and the bytes-per-sweep
//!   model the repo benchmark's roofline ratio is taken against;
//! * [`analysis`] — the parallelism and work-distribution statistics behind
//!   Figures 7 and 8;
//! * [`verify`] — static schedule verification: extracts every task's exact
//!   read/write footprint and happens-before edges from the split layouts
//!   and checks race-freedom, deadlock-freedom and write completeness via
//!   the dependency-free `sts-verify` checker
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
//! many triangular solves in the new ordering. Callers who must solve a fixed
//! `L x = b` without reordering can use
//! [`solver::LevelScheduledSolver`], which schedules the original system.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod builder;
pub mod csrk;
pub mod exec;
pub mod options;
pub mod pack;
pub mod reorder;
pub mod solver;
pub mod split;
pub mod transpose;
pub mod verify;

pub use builder::{Method, Ordering, StsBuilder, SuperRowSizing};
pub use csrk::StsStructure;
pub use exec::simulated::{
    SimReport, SimSchedule, SimulatedExecutor, SimulationParams, SolveBytesModel,
};
pub use options::{PrecisionPolicy, SlabValue, SolveEngine, SolveOptions, SweepDirection};
pub use solver::parallel::{ChaosHook, ParallelSolver};
pub use split::SplitLayout;
pub use verify::{factor_spec, solve_spec};
