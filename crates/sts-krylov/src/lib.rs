//! `sts-krylov`: the iterative-solver subsystem the triangular kernels serve.
//!
//! The paper's argument for fast sparse triangular solves is end-to-end: a
//! preconditioned Krylov solver applies one forward and one backward
//! triangular sweep *per iteration*, thousands of times on one fixed
//! structure. This crate is that workload as a production subsystem:
//!
//! * [`SpdSystem`] — an SPD operator bound to an STS ordering, held as
//!   nothing but its structure: the lower triangle is permuted **once** into
//!   the structure's numbering and defines the operator, so every sweep,
//!   product (on the structure's symmetric layout) and update of the
//!   iteration runs in reordered space and the permutation is paid only at
//!   entry (right-hand side gather) and exit (solution scatter);
//! * [`Preconditioner`] — the sweep contract ([`Identity`], [`Ssor`],
//!   [`Ic0`]), each applying `z = M⁻¹ r` with **no heap allocation**: the
//!   sweeps run through `ParallelSolver::solve_into` against caller-held
//!   buffers, with the sweep engine selectable between the sequential and
//!   split drivers ([`SweepEngine`], which is `sts_core`'s `SolveEngine`) —
//!   bitwise identical at every batch width;
//! * [`KrylovWorkspace`] — the persistent vector arena (`r`, `z`, `p`,
//!   `A·p`, sweep scratch, and the partial sums of the reductions) sized
//!   once per structure, so a converged solve followed by a thousand more
//!   allocates nothing, and no iteration allocates;
//! * [`Pcg`] — the conjugate-gradient driver. It has one CG loop, lockstep
//!   CG on the interleaved layout of the batch sweep kernels: one batched
//!   sweep pair and one batched `A·P` product per iteration serve every
//!   right-hand side ([`Pcg::solve_batch`]; [`Pcg::solve_block`] reports
//!   the same solve under the field names of the block-CG driver it
//!   replaced), and [`Pcg::solve`] is that loop at one lane. A lane that
//!   converges, or stops on a breakdown, is frozen until the others
//!   finish. Every pass of the iteration runs on the driver's worker pool:
//!   the sweep pair, the product `A·p` fused with `p·Ap`, and the vector
//!   work in three dispatches (`r·z`; `p = z + β p`; `x += α p` and
//!   `r −= α Ap` fused with `‖r‖`) from `sts_core`'s
//!   [`vector`](sts_core::solver::vector) kernels. Every dot product and
//!   norm is one blocked reduction whose order is fixed by the vector
//!   length (4096-row blocks, four sub-sums by row mod 4, block partials
//!   added in ascending order), so the iterates do not depend on the thread
//!   count, and every lane of a batch is bitwise its one-lane solve. It
//!   carries the tolerance policy ([`Tolerance`]), the iteration bound, and,
//!   for a single solve, a per-iteration residual history and
//!   preconditioner wall-time attribution ([`PcgOutcome`]);
//! * [`RobustPcg`] — the fault-tolerant driver: on IC(0) breakdown it
//!   descends a recovery ladder (a single-row diagonal boost targeting the
//!   exact pivot the breakdown named, then Manteuffel-shifted IC(0) under
//!   escalating α, then SSOR, then Identity), reporting every abandoned rung
//!   in a [`RecoveryReport`] so degradation is observable, never silent;
//! * [`solve_refined`] — iterative refinement for the mixed-precision
//!   kernels: triangular sweeps on f32 value slabs
//!   ([`PrecisionPolicy`](sts_core::PrecisionPolicy)), residuals in f64, so
//!   the cheap solves converge to the same tolerance as the f64 path.
//!
//! # Quickstart
//!
//! ```
//! use sts_core::Method;
//! use sts_krylov::{Ic0, KrylovWorkspace, Pcg, Preconditioner, SpdSystem, Ssor, SweepEngine};
//! use sts_matrix::generators;
//! use sts_numa::Schedule;
//!
//! // An SPD operator: the 2-D 5-point Laplacian, bound to an STS-3 ordering.
//! let a = generators::grid2d_laplacian(24, 24).unwrap();
//! let sys = SpdSystem::build(&a, Method::Sts3, 40).unwrap();
//!
//! // A PCG driver and a preconditioner whose sweeps run on the split
//! // parallel driver.
//! let pcg = Pcg::new(4, Schedule::Guided { min_chunk: 1 });
//! let mut pre = Ssor::new(&sys, SweepEngine::Split);
//!
//! // Persistent workspace: repeated solves allocate nothing.
//! let mut ws = KrylovWorkspace::new(sys.n());
//! let b = vec![1.0; sys.n()];
//! let out = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
//! assert!(out.converged);
//! assert!(out.iterations < 200);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod pcg;
pub mod precond;
pub mod recovery;
pub mod refine;
pub mod system;
pub mod workspace;

pub use pcg::{Pcg, PcgBatchOutcome, PcgBlockOutcome, PcgOptions, PcgOutcome, Tolerance};
pub use precond::{Ic0, Ic0Operand, Identity, Preconditioner, Ssor, SweepEngine};
pub use recovery::{
    build_ladder_preconditioner, LadderPreconditioner, RecoveryAttempt, RecoveryPolicy,
    RecoveryReport, Robust, RobustPcg,
};
pub use refine::{solve_refined, RefineOptions, RefineOutcome};
pub use system::SpdSystem;
pub use workspace::KrylovWorkspace;

/// Result alias for the Krylov subsystem (errors are the matrix substrate's).
pub type Result<T> = std::result::Result<T, sts_matrix::MatrixError>;
