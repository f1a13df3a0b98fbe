//! STS-k — a multilevel sparse triangular solution scheme for NUMA multicores.
//!
//! This is the facade crate of the workspace: it re-exports the substrate
//! crates and the core STS-k library so that examples, integration tests and
//! downstream users can depend on a single crate.
//!
//! * [`matrix`] — sparse matrix storage, Matrix Market I/O, synthetic suite,
//!   incomplete factorizations;
//! * [`graph`] — adjacency graphs, RCM, level sets, coloring, coarsening;
//! * [`numa`] — thread pinning and the pinned worker pool;
//! * [`sched`] — DAR task graphs, the In-Pack cost model and schedulers;
//! * [`core`] — the CSR-k structure, pack construction and the four solvers;
//! * [`krylov`] — the preconditioned conjugate-gradient subsystem driving
//!   the parallel triangular kernels end to end;
//! * [`serve`] — the persistent solver service: a JSON-lines daemon with a
//!   structure/factor cache and a typed client library;
//! * [`trace`] — the zero-dependency observability layer: lock-free span
//!   recording over the solve phases, counters and log-scale latency
//!   histograms with a Prometheus-style exposition, and a Chrome
//!   trace-event exporter (viewable in Perfetto / `chrome://tracing`);
//! * [`verify`] — the static schedule checker behind
//!   [`core::csrk::StsStructure::verify_schedule`]: proves that a barrier
//!   or program order orders every access of the dispatches the parallel
//!   kernels issue, from their exact read/write footprints, with a
//!   `race-shadow` dynamic cross-check.
//!
//! # Quickstart
//!
//! ```
//! use sts_k::matrix::generators;
//! use sts_k::core::{StsBuilder, Ordering};
//!
//! // A small 2-D Laplacian; its lower triangle is the operand L.
//! let a = generators::grid2d_laplacian(20, 20).unwrap();
//! let l = generators::lower_operand(&a).unwrap();
//!
//! // Build STS-3 (coloring ordering). The builder reorders the system
//! // symmetrically; the structure solves the reordered operand.
//! let sts = StsBuilder::new(3).ordering(Ordering::Coloring).build(&l).unwrap();
//! let x_true = vec![1.0; l.n()];
//! let b = sts.lower().multiply(&x_true).unwrap();
//! let x = sts.solve_sequential(&b).unwrap();
//! assert!(x.iter().zip(&x_true).all(|(a, b)| (a - b).abs() < 1e-10));
//! ```
//!
//! # One sweep kernel, one front door
//!
//! Every structure also carries a dependency-split layout
//! ([`core::SplitLayout`]): per pack, the nonzeros referencing *earlier*
//! packs (a pure, embarrassingly-parallel gather) are separated from the
//! short in-pack dependence chains. One sweep kernel streams the former and
//! schedules only the latter, and a single typed request,
//! [`core::SolveOptions`], selects how it runs — engine (sequential, or the
//! two-phase split driver on the pool: one parallel loop per phase, then a
//! barrier), sweep direction (`L'` or `L'ᵀ`), right-hand-side count
//! and value-slab precision — through
//! [`core::ParallelSolver::solve_with`]:
//!
//! ```
//! use sts_k::core::{Ordering, ParallelSolver, SolveEngine, SolveOptions, StsBuilder,
//!                   SweepDirection};
//! use sts_k::matrix::generators;
//! use sts_k::numa::Schedule;
//!
//! let a = generators::grid2d_laplacian(20, 20).unwrap();
//! let l = generators::lower_operand(&a).unwrap();
//! let sts = StsBuilder::new(3).ordering(Ordering::Coloring).build(&l).unwrap();
//! let b = vec![1.0; sts.n()];
//! let solver = ParallelSolver::new(4, Schedule::Guided { min_chunk: 1 });
//!
//! // Two-phase split solve (the default engine): external gather, phase
//! // barrier, in-pack chains.
//! let split = SolveOptions::default();
//! let x = solver.solve_with(&sts, &b, &split).unwrap();
//! assert!((x[0] - sts.solve_sequential(&b).unwrap()[0]).abs() < 1e-12);
//!
//! // The sequential driver runs the same row arithmetic — bitwise — on the
//! // calling thread alone.
//! let seq = split.with_engine(SolveEngine::Sequential);
//! assert_eq!(solver.solve_with(&sts, &b, &seq).unwrap(), x);
//!
//! // Four right-hand sides at once, row-major (`B[i * nrhs + r]`).
//! let nrhs = 4;
//! let bb: Vec<f64> = (0..sts.n() * nrhs).map(|k| 1.0 + (k % nrhs) as f64).collect();
//! let xb = solver.solve_with(&sts, &bb, &split.with_nrhs(nrhs)).unwrap();
//! assert_eq!(xb, solver.solve_with(&sts, &bb, &seq.with_nrhs(nrhs)).unwrap());
//!
//! // The backward sweep `L'ᵀ x = b` runs on the same kernel, packs reversed.
//! let xt = solver
//!     .solve_with(&sts, &b, &split.with_direction(SweepDirection::Transpose))
//!     .unwrap();
//! let reference = sts.solve_transpose_sequential(&b).unwrap();
//! assert!(xt.iter().zip(&reference).all(|(a, b)| (a - b).abs() < 1e-12));
//! ```
//!
//! The split layouts behind the kernel are built lazily on first use;
//! callers that only ever run the paper's unsplit kernel
//! ([`core::ParallelSolver::solve`]) skip their ≈2× off-diagonal storage
//! cost entirely. Iterative solvers hold their own output buffers and call
//! the allocation-free [`core::ParallelSolver::solve_into`].
//!
//! [`core::PrecisionPolicy::ValuesF32WithRefinement`] demotes the value
//! slabs to cached f32 copies (~half the sweep's value traffic) while every
//! kernel still accumulates in f64, and
//! [`krylov::solve_refined`] drives the result to the f64 answer in a pass
//! or two of iterative refinement:
//!
//! ```
//! use sts_k::core::{Ordering, ParallelSolver, PrecisionPolicy, SolveOptions, StsBuilder};
//! use sts_k::krylov::{solve_refined, RefineOptions};
//! use sts_k::matrix::generators;
//! use sts_k::numa::Schedule;
//!
//! let a = generators::triangulated_grid(14, 11, 7).unwrap();
//! let l = generators::lower_operand(&a).unwrap();
//! let sts = StsBuilder::new(3).ordering(Ordering::Coloring).build(&l).unwrap();
//! let solver = ParallelSolver::new(4, Schedule::Guided { min_chunk: 1 });
//! let b = vec![1.0; sts.n()];
//!
//! // The split f64 solve.
//! let opts = SolveOptions::default();
//! let x = solver.solve_with(&sts, &b, &opts).unwrap();
//!
//! // Mixed precision: f32 value slabs, f64 accumulation, refined back to
//! // the f64 answer against the full-precision operand.
//! let f32_opts = opts.with_precision(PrecisionPolicy::ValuesF32WithRefinement);
//! let out = solve_refined(&solver, &sts, &b, &f32_opts, &RefineOptions::default()).unwrap();
//! assert!(out.converged && out.refine_iterations <= 2);
//! assert!(x.iter().zip(&out.x).all(|(a, b)| (a - b).abs() < 1e-10));
//! ```
//!
//! # The Krylov subsystem (`sts-krylov`)
//!
//! The workload the triangular kernels exist for: a preconditioned
//! conjugate-gradient solver performing one forward and one backward sweep
//! per iteration on a fixed structure. [`krylov::SpdSystem`] permutes the
//! operator into the STS ordering once; [`krylov::Ssor`] (symmetric
//! Gauss–Seidel) and [`krylov::Ic0`] (zero-fill incomplete Cholesky) run
//! their sweeps through [`core::ParallelSolver::solve_into`] against a
//! persistent [`krylov::KrylovWorkspace`], so an iteration allocates
//! nothing; and the backward sweeps run in parallel too, on the transpose
//! split layout ([`core::StsStructure::transpose_split`], packs in reverse
//! order):
//!
//! ```
//! use sts_k::core::Method;
//! use sts_k::krylov::{Ic0, KrylovWorkspace, Pcg, SpdSystem, Ssor, SweepEngine};
//! use sts_k::matrix::{generators, ops};
//! use sts_k::numa::Schedule;
//!
//! // SPD operator bound to an STS-3 ordering.
//! let a = generators::grid2d_laplacian(24, 24).unwrap();
//! let sys = SpdSystem::build(&a, Method::Sts3, 40).unwrap();
//!
//! // PCG with symmetric Gauss–Seidel sweeps on the split driver.
//! let pcg = Pcg::new(4, Schedule::Guided { min_chunk: 1 });
//! let mut pre = Ssor::new(&sys, SweepEngine::Split);
//! let mut ws = KrylovWorkspace::new(sys.n());
//!
//! let x_true = vec![1.0; sys.n()];
//! let b = ops::spmv(&a, &x_true).unwrap();
//! let out = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
//! assert!(out.converged);
//! assert!(ops::relative_error_inf(&out.x, &x_true) < 1e-6);
//! ```
//!
//! ## Many right-hand sides at once
//!
//! [`krylov::Pcg::solve_batch`] solves `nrhs` systems on one operator with
//! lockstep CG: one recurrence per right-hand side, but one batched sweep
//! pair and one batched `A·P` product per iteration serve them all, so each
//! row's index traffic is paid once for the whole batch. A converged system
//! is frozen (its updates scaled by zero) while the stragglers finish. Every
//! sweep engine works, and every lane of a batched solve is bitwise equal to
//! the standalone solve of that right-hand side:
//!
//! ```
//! use sts_k::core::Method;
//! use sts_k::krylov::{KrylovWorkspace, Pcg, SpdSystem, Ssor, SweepEngine};
//! use sts_k::matrix::generators;
//! use sts_k::numa::Schedule;
//!
//! let a = generators::grid2d_laplacian(20, 20).unwrap();
//! let sys = SpdSystem::build(&a, Method::Sts3, 40).unwrap();
//! let (n, nrhs) = (sys.n(), 3);
//!
//! // Three right-hand sides, interleaved (`b[i * nrhs + q]`).
//! let mut b = vec![0.0; n * nrhs];
//! for (k, v) in b.iter_mut().enumerate() {
//!     *v = ((k * 7919) % 13) as f64 - 6.0;
//! }
//!
//! let pcg = Pcg::new(4, Schedule::Guided { min_chunk: 1 });
//! let mut pre = Ssor::new(&sys, SweepEngine::Split);
//! let mut ws = KrylovWorkspace::with_nrhs(n, nrhs);
//! let out = pcg.solve_batch(&sys, &mut pre, &b, nrhs, &mut ws).unwrap();
//! assert!(out.converged.iter().all(|&c| c));
//! assert_eq!(out.lockstep_iterations, *out.iterations.iter().max().unwrap());
//!
//! // Lane 1 equals its own single-RHS solve, bit for bit.
//! let b1: Vec<f64> = (0..n).map(|i| b[i * nrhs + 1]).collect();
//! let one = pcg.solve(&sys, &mut pre, &b1, &mut KrylovWorkspace::new(n)).unwrap();
//! assert_eq!(one.iterations, out.iterations[1]);
//! assert!((0..n).all(|i| out.x[i * nrhs + 1] == one.x[i]));
//! ```
//!
//! ## Parallel preconditioner setup
//!
//! The IC(0) factor shares the reordered pattern, so it reuses the same
//! hierarchy — and the *factorization itself* is level-scheduled over that
//! hierarchy on the driver's pool by [`krylov::Ic0::new`]: per pack, one
//! parallel loop over the pack's super-rows, then a barrier — the paper's
//! Algorithm 1 with the IC(0) row in place of the solve row. The
//! sequential sweep [`matrix::factor::ic0`] remains as the reference, and
//! the level-scheduled factor has its bits exactly. The preconditioner
//! keeps only the two sweep layouts it fills from the factor, so the bits
//! show in its application: a forward and a transpose sweep over the
//! reference factor give the same `z`:
//!
//! ```
//! # use sts_k::core::{Method, SolveOptions, SweepDirection};
//! # use sts_k::krylov::{Ic0, KrylovWorkspace, Pcg, Preconditioner, SpdSystem, SweepEngine};
//! # use sts_k::matrix::{factor, generators, ops};
//! # use sts_k::numa::Schedule;
//! # let a = generators::grid2d_laplacian(24, 24).unwrap();
//! # let sys = SpdSystem::build(&a, Method::Sts3, 40).unwrap();
//! # let pcg = Pcg::new(4, Schedule::Guided { min_chunk: 1 });
//! # let mut ws = KrylovWorkspace::new(sys.n());
//! # let b = ops::spmv(&a, &vec![1.0; sys.n()]).unwrap();
//! // Setup runs level-scheduled on the pool; sweeps run on the split driver.
//! let mut ic0 = Ic0::new(&sys, pcg.solver(), SweepEngine::Split).unwrap();
//! let out_ic0 = pcg.solve(&sys, &mut ic0, &b, &mut ws).unwrap();
//! assert!(out_ic0.converged);
//!
//! // The sequential reference factor of P A Pᵀ, bit for bit.
//! let reference = factor::ic0(sys.matrix()).unwrap();
//! let f = sys.structure().with_operand(reference).unwrap();
//! let (solver, r) = (pcg.solver(), vec![1.0; sys.n()]);
//! let (mut y, mut want) = (vec![0.0; sys.n()], vec![0.0; sys.n()]);
//! solver.solve_into(&f, &r, &mut y, &SolveOptions::default()).unwrap();
//! let transpose = SolveOptions::default().with_direction(SweepDirection::Transpose);
//! solver.solve_into(&f, &y, &mut want, &transpose).unwrap();
//! let (mut z, mut sweep) = (vec![0.0; sys.n()], vec![0.0; sys.n()]);
//! ic0.apply_into(solver, &r, &mut z, &mut sweep).unwrap();
//! assert_eq!(z, want);
//! ```
//!
//! # Error handling & graceful degradation
//!
//! Every failure mode of the solve path surfaces as a structured
//! [`matrix::MatrixError`] — never a hang, never a NaN in a returned
//! iterate:
//!
//! * **Input validation.** [`matrix::CsrMatrix::validate`] (in-bounds sorted
//!   columns, a present positive diagonal, finite values) runs at
//!   [`krylov::SpdSystem::build`], so a NaN or structurally broken operand
//!   is rejected at the boundary with the offending `(row, col, value)`
//!   named — before any kernel touches it. A non-finite right-hand side or
//!   a NaN emitted mid-recurrence trips the residual guard instead,
//!   reported as `NonFiniteResidual { iteration }`.
//! * **Worker panics.** Pool job bodies run under `catch_unwind`; a panic
//!   poisons only the current dispatch, and `parallel_for`, the sweeps and
//!   the parallel IC(0) setup (the stage or pack that panicked is the
//!   reported `pack`) return `WorkerPanicked { slot, pack, message }` with
//!   the first payload. The pool stays usable, so the next call runs clean.
//! * **Worker stalls.** No worker waits on a peer inside a dispatch, so a
//!   stalled worker — in a sweep or in the IC(0) setup — only delays its
//!   dispatch's barrier: a slow success at every thread count.
//! * **Preconditioner breakdown.** IC(0) on an SPD-but-not-M matrix can hit
//!   a non-positive pivot (`FactorizationBreakdown { row, pivot }`, bitwise
//!   identical between the sequential and level-scheduled engines).
//!   [`krylov::RobustPcg`] wraps [`krylov::Pcg`] in a recovery ladder: it
//!   first retries with only the *reported breakdown row's* diagonal
//!   boosted (the targeted `ic0-rowboost` rung, under
//!   [`krylov::RecoveryPolicy::row_boosts`]), then with the
//!   Manteuffel-shifted `IC(0)(A + α·diag(A))` under the escalating shifts
//!   of [`krylov::RecoveryPolicy`], then degrades to SSOR
//!   and finally to unpreconditioned CG, and reports every abandoned rung in
//!   a [`krylov::RecoveryReport`] (attempts, shifts tried, the surviving
//!   preconditioner, extra iterations paid).
//!
//! ```
//! use sts_k::core::Method;
//! use sts_k::krylov::{KrylovWorkspace, Pcg, RobustPcg, SpdSystem};
//! use sts_k::matrix::generators;
//! use sts_k::numa::Schedule;
//!
//! let a = generators::grid2d_laplacian(24, 24).unwrap();
//! let sys = SpdSystem::build(&a, Method::Sts3, 40).unwrap();
//! let robust = RobustPcg::new(Pcg::new(4, Schedule::Guided { min_chunk: 1 }));
//! let mut ws = KrylovWorkspace::new(sys.n());
//! let out = robust.solve(&sys, &vec![1.0; sys.n()], &mut ws).unwrap();
//! // A clean operator never pays for the ladder: no attempts recorded.
//! assert!(out.outcome.converged && out.report.attempts.is_empty());
//! ```
//!
//! The deterministic fault-injection helpers behind the chaos suite
//! (`tests/fault_injection.rs`) live in `sts-bench`'s `faultinject` module:
//! seeded SPD-breaking perturbations, NaN poisoning, and chaos hooks that
//! panic or stall a chosen worker at a chosen pack.
//!
//! # The solver service (`sts-serve`)
//!
//! Analysis and factorization are reusable across every solve that shares a
//! sparsity pattern. [`serve::SolverService`] caches both behind a
//! versioned JSON-lines contract — submit a pattern once (`O(analysis)`),
//! attach values once (`O(nnz)` rebind + factor), then stream warm solves
//! that skip analysis entirely; concurrent clients multiplex onto one
//! shared worker pool, and solutions cross the wire bitwise intact:
//!
//! ```
//! use sts_k::serve::{ServiceConfig, SolverService};
//!
//! let mut service = SolverService::new(ServiceConfig::default());
//!
//! // 1. Submit the sparsity pattern (a tiny 2×2 SPD system here): the
//! //    analysis runs once and is keyed by a pattern hash.
//! let reply = service.handle_line(
//!     r#"{"v":1,"id":1,"op":"submit_pattern","n":2,"row_ptr":[0,2,4],
//!         "col_idx":[0,1,0,1],"method":"STS-3","rows_per_super_row":8}"#,
//! );
//! assert!(reply.line.contains("\"ok\":true"));
//! let key = reply.line.split("\"pattern\":\"").nth(1).unwrap()[..16].to_string();
//!
//! // 2. Attach values (factors the preconditioner), then 3. solve warm.
//! let reply = service.handle_line(&format!(
//!     r#"{{"v":1,"id":2,"op":"submit_values","pattern":"{key}","values":[4.0,-1.0,-1.0,4.0]}}"#,
//! ));
//! assert!(reply.line.contains("\"preconditioner\":\"ic0\""));
//! let reply = service.handle_line(&format!(
//!     r#"{{"v":1,"id":3,"op":"solve","pattern":"{key}","b":[3.0,3.0]}}"#,
//! ));
//! assert!(reply.line.contains("\"converged\":true"));
//! // The warm path skipped analysis: the solve envelope says so.
//! assert!(reply.line.contains("\"cache\":\"warm\""));
//! ```
//!
//! The daemon (`sts_serve` binary) serves the same state machine over TCP;
//! [`serve::Client`] is the typed blocking client the `sts_solve` CLI wraps.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use sts_core as core;
pub use sts_graph as graph;
pub use sts_krylov as krylov;
pub use sts_matrix as matrix;
pub use sts_numa as numa;
pub use sts_sched as sched;
pub use sts_serve as serve;
pub use sts_trace as trace;
pub use sts_verify as verify;
