//! The pack-parallel triangular solver: one sweep kernel, three drivers.
//!
//! A sweep visits the packs as *stages* — in order for `L' x' = b'`, in
//! reverse order for the transposed system `L'ᵀ x' = b'` — and runs every
//! stage in two phases on the direction's
//! [`SplitLayout`]:
//!
//! 1. **gather** — `x[i] = (b[i] − Σ L_ext·x)·d_i` for every row `i` of the
//!    pack, cut into static chunks (chunk `c` is owned by worker `c`). Every
//!    column of the external slab belongs to an already finished stage, so
//!    all inputs are final: rows can run in any order and any interleaving,
//!    and the slab streams contiguously (the pack's rows are consecutive);
//! 2. **chain** — the short in-super-row dependence chains
//!    (`x[i] −= d_i·Σ L_int·x`), one task per super-row that has any.
//!
//! This moves the bulk of the memory traffic out of the ordered critical
//! path: phase 1 is a bandwidth-bound SpMV-style sweep with perfect load
//! balance, and phase 2 only walks the internal slab, a small fraction of
//! the nonzeros for coloring/level-set packs.
//!
//! The row arithmetic lives in `solver::kernel` (one row body, written
//! once), the chunk geometry in [`plan`](super::plan). This module
//! holds the three **drivers** that walk the stages of a [`PipelinePlan`]
//! and differ only in how they synchronise — direction, batch width and slab
//! precision are data:
//!
//! * *sequential* — a plain stage loop on the calling thread;
//! * *split* — two `parallel_for` dispatches per stage: the gather chunks
//!   under the static schedule, then the chain tasks under the solver's
//!   configured schedule; the pool's completion is the barrier;
//! * *pipelined* — one dispatch per solve, with the per-stage barriers fused
//!   into an [`EpochGate`] (below), on the gated-worker scaffold it shares
//!   with the level-scheduled IC(0) build.
//!
//! [`ParallelSolver::solve_with`] is the allocating front door over all of
//! them, [`ParallelSolver::solve_into`] the allocation-free form iterative
//! solvers call with a caller-held plan and output buffer, and
//! [`ParallelSolver::solve`] the paper's original kernel: one `parallel_for`
//! over the super-rows of each pack on the *unsplit* operand, a barrier
//! between packs.
//!
//! # Failure semantics
//!
//! A pool dispatch cannot be abandoned — `parallel_for` lends the workers a
//! borrowed body and returns only when all of them are done with it — so
//! every failure is reported after the last worker has come back, the pool
//! and the plan stay usable, and the output buffer must be treated as torn.
//!
//! The barrier-synchronised kernels ([`ParallelSolver::solve`], the split
//! driver, the SpMVs) wait on nobody inside a dispatch: a panicking body is
//! caught by the pool and surfaces as [`MatrixError::WorkerPanicked`] with
//! the loop index in flight. The gate-synchronised kernels — the pipelined
//! driver and [`parallel_ic0`](ParallelSolver::parallel_ic0) — wait on each
//! other inside one, where a dead or stalled peer would strand them. Both
//! are bodies run by one scaffold, `ParallelSolver::run_gated`, and it alone
//! implements the following:
//!
//! * each worker's body runs under `catch_unwind`. A panic — in the row
//!   arithmetic or in the [`ChaosHook`], called as a worker enters a stage's
//!   phase-1 unit — records the first `(slot, stage, message)` and *poisons*
//!   the gate; the dispatch returns [`MatrixError::WorkerPanicked`];
//! * every wait — the blocking readiness wait and the polling loop a body
//!   writes itself — gives up on the poison flag and on the *watchdog
//!   deadline* ([`ParallelSolver::set_watchdog`], counted from dispatch
//!   start). A poisoned wait bails out of the body; a wait past the deadline
//!   records its stage, poisons the gate for the peers, and bails: the
//!   dispatch returns [`MatrixError::SolveTimeout`], unless a panic was
//!   recorded too (the timeout is then usually its collateral);
//! * a stalled worker is not interrupted, so the caller regains control
//!   after `max(stall, budget)`: never a hang, not a real-time bound. A
//!   lone worker has no peer to starve — its own program order satisfies
//!   every wait it meets — so there a stall is just a slow success;
//! * the poison is rewound with the gate (per solve by the plan, per build
//!   by `parallel_ic0`'s fresh gate): nothing leaks into the next dispatch.
//!
//! # Data-race freedom
//!
//! The solution vector is shared mutably across workers through
//! `SharedVec`. For the unsplit kernel this is sound because:
//!
//! * every row index is written by exactly one super-row, and every super-row
//!   is executed by exactly one worker within its pack;
//! * a row only *reads* components written either by earlier rows of the same
//!   super-row (same worker, program order) or by rows of earlier packs
//!   (separated by the pool's completion barrier, which synchronises memory);
//! * [`StsStructure::validate`] enforces exactly this dependency discipline at
//!   construction time.
//!
//! ## The split driver (a barrier per phase)
//!
//! The split driver shares `x` across an extra barrier, and the argument
//! extends as follows:
//!
//! * **phase 1** writes `x[i]` only for rows `i` of the current stage — each
//!   row belongs to exactly one statically-assigned chunk, so each index has
//!   one writer — and reads `x[j]` only through the external slab, whose
//!   columns `j` lie in earlier stages and were finalized before the
//!   previous stage's completion barrier;
//! * the pool's completion of phase 1 is a barrier that publishes every
//!   phase-1 write before phase 2 starts;
//! * **phase 2** writes `x[i]` for the rows of exactly one super-row per
//!   task and reads, besides those same rows, only phase-1 results of the
//!   current stage (published by the phase barrier) through the internal
//!   slab, whose columns stay inside the writer's own super-row (same
//!   worker, program order).
//!
//! With `nrhs > 1`, "row `i`" stands for the `nrhs` consecutive slots of row
//! `i` throughout. For the transpose direction the argument is the mirror
//! image (see [`transpose`](crate::transpose)): in `L'ᵀ`, row `i` reads only
//! rows `j > i`, pack independence puts every cross-super-row `j` in a
//! strictly *later* pack — an earlier stage of the reverse sweep — and
//! same-pack reads stay inside `i`'s own super-row, whose chain rows are
//! stored in decreasing order.
//!
//! ## The pipelined driver (gate readiness, tickets, look-ahead)
//!
//! The pipelined driver runs the *same* chunks and tasks but fuses the two
//! full-pool barriers per stage into an [`EpochGate`]: one gated dispatch
//! covers the whole solve, and workers coordinate through per-stage
//! completion counters. The schedule per worker `w`:
//!
//! * chunk `c` of every stage is *owned* by worker `c` — ownership is a
//!   static function of `(stage, w)`, so no two workers ever write the same
//!   row;
//! * a chunk does not wait for the previous stage; it waits only until the
//!   gate's epoch covers the chunk's precomputed readiness
//!   ([`SplitLayout::range_ext_dep`] — the latest stage its external slab
//!   range actually reads). Phase 1 of stage `s + 1` therefore overlaps
//!   phase 2 of stage `s` whenever the dependency structure allows;
//! * **phase 2** chain tasks of stage `s` are claimed one at a time from a
//!   shared ticket counter once the gate reports stage `s`'s phase 1
//!   drained; a worker that finds no ticket left moves straight on to its
//!   chunk of stage `s + 1`. While phase 1 of stage `s` is still draining, a
//!   parked worker *looks ahead*: it runs its chunks of stages `s + 1` and
//!   `s + 2` (readiness permitting) instead of spinning.
//!
//! ### Memory-ordering argument (which flag publishes which `x` entries)
//!
//! Data-race freedom needs every read of `x[j]` to happen-after the write it
//! observes. The gate provides exactly two publication edges:
//!
//! * **`is_open(d)` / a `Ready` from `wait_open_until(d, ..)`** (epoch ≥ `d`)
//!   happens-after *every* arrival of stages `0..d` — both phases — via the
//!   release sequences on the gate's per-stage counters and the release CAS
//!   chain on the epoch. A phase-1 chunk with readiness `d` reads `x[j]`
//!   only for external columns `j` in stages `< d`, each finalized (phase-1
//!   write, plus phase-2 correction for chain rows) before its stage's last
//!   arrival. The chunk runs behind that edge, so all those entries are
//!   published to it.
//! * **`phase1_drained(s)`** happens-after every phase-1 arrival of stage
//!   `s`. A phase-2 task reads `x[j]` only for internal columns `j` of its
//!   own super-row (phase-1 values published by the drained flag, or its own
//!   earlier chain-row corrections in program order) and corrects rows owned
//!   by no other task. Its writes are in turn published to later stages by
//!   its `arrive_phase2` and the epoch edge above.
//!
//! Lookahead never weakens this: a worker running a chunk of stage `s + 2`
//! early still passed that chunk's own readiness check, and writes only rows
//! of stage `s + 2`, which no other worker touches until the epoch covers
//! `s + 2` — which cannot happen before the chunk's own arrival.
//!
//! # Reusable plans
//!
//! Iterative solvers apply these kernels thousands of times on one
//! structure. [`ParallelSolver::solve_into`] takes a caller-provided
//! solution buffer plus a [`PipelinePlan`] — the chunk geometry and the
//! per-solve scheduling state (gate arrival counts, phase-2 ticket counters)
//! built once by [`ParallelSolver::plan`] and rewound between pipelined
//! solves via the gate's generation-stamped
//! [`reset`](sts_numa::EpochGate::reset) — so a solve performs **no heap
//! allocation**. `&mut` on the plan is what makes the reset sound: the
//! borrow checker guarantees no concurrent solve shares the scheduling
//! state.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sts_matrix::{CsrMatrix, MatrixError};
use sts_numa::pool::panic_message;
use sts_numa::{EpochGate, GateWait, PoolError, Schedule, SpinWait, WorkerPool};
use sts_trace::{Phase, SpanRecorder};
use sts_verify::TaskKind;

use super::kernel::{SharedVec, Slab, Sum, TILE};
use super::plan::{chunk_count, chunk_range, stage_pack, PipelinePlan};
use crate::csrk::{Result, StsStructure};
use crate::options::{PrecisionPolicy, SlabValue, SolveEngine, SolveOptions, SweepDirection};
use crate::split::SplitLayout;

/// Maps a pool-level failure into the matrix error taxonomy the solver
/// surfaces.
pub(crate) fn pool_error_to_matrix(e: PoolError) -> MatrixError {
    match e {
        PoolError::WorkerPanicked {
            slot,
            pack,
            message,
        } => MatrixError::WorkerPanicked {
            slot,
            pack,
            message,
        },
    }
}

/// A hook the fault-injection harness installs to perturb worker `w` at
/// stage/pack `st` of a parallel kernel (panic, stall, …). Runs inside the
/// kernel's `catch_unwind` region, so a panicking hook behaves exactly like a
/// panicking kernel body.
pub type ChaosHook = Arc<dyn Fn(usize, usize) + Send + Sync>;

/// Times `f` as one `phase` span of `worker` at `stage` when a recorder is
/// feeding this dispatch, and just runs it otherwise.
#[inline]
fn span<T>(
    rec: Option<&SpanRecorder>,
    phase: Phase,
    worker: usize,
    stage: usize,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = rec.map(|r| r.now_ns());
    let out = f();
    if let (Some(r), Some(t0)) = (rec, t0) {
        r.record(worker as u32, stage as u32, phase, t0, r.now_ns());
    }
    out
}

/// Shared failure record of one gated dispatch: the first panic any worker
/// hit, or else the first watchdog timeout.
struct KernelFailure(Mutex<Option<MatrixError>>);

impl KernelFailure {
    fn new() -> Self {
        KernelFailure(Mutex::new(None))
    }

    /// Keeps `error` if it is the first, or the first panic: a panic
    /// outranks a timeout, which is usually collateral of its poisoning.
    fn record(&self, error: MatrixError) {
        let mut first = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let outranks = match &*first {
            None => true,
            Some(kept) => {
                matches!(kept, MatrixError::SolveTimeout { .. })
                    && matches!(error, MatrixError::WorkerPanicked { .. })
            }
        };
        if outranks {
            *first = Some(error);
        }
    }

    fn into_result(self) -> Result<()> {
        let first = self.0.into_inner().unwrap_or_else(PoisonError::into_inner);
        first.map_or(Ok(()), Err)
    }
}

/// One worker of a gated dispatch ([`ParallelSolver::run_gated`]): the
/// kernel body's only way to the chaos hook, the recorder, and the gate's
/// failure paths.
pub(crate) struct GatedWorker<'a> {
    solver: &'a ParallelSolver,
    gate: &'a EpochGate,
    failure: &'a KernelFailure,
    deadline: Instant,
    rec: Option<&'a SpanRecorder>,
    slot: usize,
    /// The stage this worker last entered: where a panic is reported.
    stage: Cell<usize>,
}

impl GatedWorker<'_> {
    /// The pool slot this worker runs on.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }

    /// Marks `stage` as the one a panic from here on is reported at.
    fn at(&self, stage: usize) {
        self.stage.set(stage);
    }

    /// [`GatedWorker::at`], then the chaos hook: call it where the worker
    /// starts the phase-1 unit of `stage`.
    pub(crate) fn enter(&self, stage: usize) {
        self.at(stage);
        if let Some(hook) = &self.solver.chaos {
            hook(self.slot, stage);
        }
    }

    /// Times `f` as one `phase` span of this worker at `stage`.
    #[inline]
    pub(crate) fn span<T>(&self, phase: Phase, stage: usize, f: impl FnOnce() -> T) -> T {
        span(self.rec, phase, self.slot, stage, f)
    }

    /// Waits until stages `0..dep` are done, on behalf of `stage`. `false`
    /// means bail: a peer failed, or the watchdog deadline passed (recorded
    /// against `stage`, and the gate poisoned for the peers).
    pub(crate) fn await_stages(&self, dep: usize, stage: usize) -> bool {
        let wait = self.span(Phase::GateWait, stage, || {
            self.gate.wait_open_until(dep, self.deadline)
        });
        match wait {
            GateWait::Ready => true,
            GateWait::Poisoned => false,
            GateWait::TimedOut => self.timed_out(stage),
        }
    }

    /// One [`SpinWait::relax`] step of a wait at `stage` that the body
    /// polls itself (it has work to look for between looks), against the
    /// same deadline and with the same outcome as
    /// [`GatedWorker::await_stages`]: `false` means bail.
    fn relax(&self, wait: &mut SpinWait, stage: usize) -> bool {
        if wait.relax(|| Instant::now() >= self.deadline) {
            return self.timed_out(stage);
        }
        true
    }

    /// Records the watchdog timeout at `stage` and poisons the gate;
    /// `false`, for the caller to bail with.
    fn timed_out(&self, stage: usize) -> bool {
        self.failure.record(MatrixError::SolveTimeout {
            stage,
            timeout_ms: self.solver.watchdog_ms,
        });
        self.gate.poison();
        false
    }
}

/// Default watchdog budget for one gated dispatch; generous enough that
/// no healthy solve on any matrix in the suite comes near it.
const DEFAULT_WATCHDOG_MS: u64 = 10_000;

/// A reusable parallel solver bound to a worker pool.
pub struct ParallelSolver {
    pool: WorkerPool,
    schedule: Schedule,
    /// Watchdog budget for one gated dispatch, in milliseconds.
    watchdog_ms: u64,
    /// Optional fault-injection hook; see [`ChaosHook`].
    chaos: Option<ChaosHook>,
    /// Optional span recorder; see [`ParallelSolver::set_trace_recorder`].
    trace: Option<Arc<SpanRecorder>>,
    /// Optional race-shadow access log; see
    /// [`ParallelSolver::set_shadow_log`].
    #[cfg(feature = "race-shadow")]
    shadow: Option<Arc<sts_verify::AccessLog>>,
}

impl ParallelSolver {
    /// Creates a solver that runs on `threads` unpinned workers — the calling
    /// thread and `threads − 1` pool threads — with the given intra-pack
    /// schedule.
    pub fn new(threads: usize, schedule: Schedule) -> Self {
        Self::with_pinning(threads, schedule, &[])
    }

    /// Creates a solver whose workers are pinned to the given core order
    /// (typically [`NumaTopology::compact_core_order`]). Worker 0 of every
    /// solve is the thread that calls it (see [`sts_numa::pool`]):
    /// `core_order[0]` names that thread's core and is not applied — the
    /// solver does not own its caller, and a caller that wants the compact
    /// placement for itself pins itself there. Workers `1..threads` are the
    /// pool's own threads and are pinned to `core_order[1..]`.
    ///
    /// [`NumaTopology::compact_core_order`]:
    ///     sts_numa::NumaTopology::compact_core_order
    pub fn with_pinning(threads: usize, schedule: Schedule, core_order: &[usize]) -> Self {
        ParallelSolver {
            pool: WorkerPool::with_pinning(threads, core_order),
            schedule,
            watchdog_ms: DEFAULT_WATCHDOG_MS,
            chaos: None,
            trace: None,
            #[cfg(feature = "race-shadow")]
            shadow: None,
        }
    }

    /// Sets the watchdog deadline of the gate-synchronised kernels (module
    /// docs, "Failure semantics"): a wait on a peer that exceeds this budget,
    /// counted from dispatch start, ends the dispatch with
    /// [`MatrixError::SolveTimeout`] instead of hanging behind a stalled
    /// worker. Budgets below 1 ms are clamped up to 1 ms.
    pub fn set_watchdog(&mut self, budget: Duration) {
        self.watchdog_ms = (budget.as_millis() as u64).max(1);
    }

    /// The current watchdog budget of the gate-synchronised kernels.
    pub fn watchdog(&self) -> Duration {
        Duration::from_millis(self.watchdog_ms)
    }

    /// Installs (or clears) a fault-injection hook invoked as `hook(w, st)`
    /// when worker `w` starts the phase-1 unit of stage/pack `st` in the
    /// pipelined kernels and the level-scheduled factorization. Test support:
    /// a hook that panics or stalls exercises the failure paths
    /// deterministically.
    pub fn set_chaos_hook(&mut self, hook: Option<ChaosHook>) {
        self.chaos = hook;
    }

    /// Installs (or clears) a span recorder fed by the parallel kernels:
    /// phase-1 gather chunks ([`Phase::Gather`]), phase-2 chain tasks
    /// ([`Phase::Chain`]), blocking epoch-gate waits ([`Phase::GateWait`])
    /// in the pipelined kernels, and level-scheduled IC(0) chunks
    /// ([`Phase::Factor`]).
    ///
    /// The recorder's enabled flag is sampled once per solve, so an
    /// installed-but-disabled recorder costs one `Option` check per kernel
    /// dispatch (the configuration every untraced run of the repo benchmark
    /// measures). The `worker` field of a span is
    /// the pool slot for the pipelined kernels and the static phase-1
    /// chunks; for the split engine's dynamically scheduled phase-2 it carries
    /// the chain-task index instead (the pool does not expose which slot
    /// claimed a task). The `pack` field is the *stage* index: identical to
    /// the pack for forward sweeps, reversed for transpose sweeps.
    pub fn set_trace_recorder(&mut self, recorder: Option<Arc<SpanRecorder>>) {
        self.trace = recorder;
    }

    /// The installed span recorder, if any.
    pub fn trace_recorder(&self) -> Option<&Arc<SpanRecorder>> {
        self.trace.as_ref()
    }

    /// Installs (or clears) a race-shadow access log: the split, pipelined
    /// and factor kernels record one [`sts_verify::RowTrace`] per produced
    /// row (the exact shared slots the inner loop read), so
    /// [`sts_verify::check_replay`] can cross-check the static schedule
    /// model against what the kernels really touch. Test support: recording
    /// serialises on the log's mutex.
    #[cfg(feature = "race-shadow")]
    pub fn set_shadow_log(&mut self, log: Option<Arc<sts_verify::AccessLog>>) {
        self.shadow = log;
    }

    /// Records one produced row into the race-shadow log, if installed.
    #[cfg(feature = "race-shadow")]
    #[inline]
    pub(crate) fn shadow_record(
        &self,
        kind: sts_verify::TaskKind,
        row: usize,
        reads: impl IntoIterator<Item = usize>,
    ) {
        if let Some(log) = self.shadow.as_deref() {
            log.record(kind, row, reads);
        }
    }

    /// No-op twin of the `race-shadow` recorder: the lazy `reads` iterator is
    /// never consumed, so release kernels pay nothing.
    #[cfg(not(feature = "race-shadow"))]
    #[inline(always)]
    pub(crate) fn shadow_record(
        &self,
        _kind: sts_verify::TaskKind,
        _row: usize,
        _reads: impl IntoIterator<Item = usize>,
    ) {
    }

    /// The recorder to feed during one kernel dispatch: installed *and*
    /// enabled (sampled once, so the per-span cost is only paid when spans
    /// are actually wanted).
    pub(crate) fn active_recorder(&self) -> Option<&SpanRecorder> {
        self.trace.as_deref().filter(|r| r.is_enabled())
    }

    /// Number of workers: the calling thread plus the pool's own threads.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// The intra-pack schedule in use.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Builds the reusable [`PipelinePlan`] for sweeps of `s` in `direction`
    /// on this solver's pool. Build it once per structure and direction;
    /// [`ParallelSolver::solve_into`] reuses it at no allocation cost, for
    /// every engine, batch width and precision. The first plan built for a
    /// (structure, direction, thread count) makes the one O(n) readiness
    /// pass and the structure remembers its result; later builds cost
    /// O(packs × threads).
    pub fn plan(&self, s: &StsStructure, direction: SweepDirection) -> PipelinePlan {
        PipelinePlan::build(s, self.pool.num_threads(), direction)
    }

    /// Solves a triangular system described by a typed [`SolveOptions`]
    /// request and returns the solution.
    ///
    /// The request selects the engine ([`SolveEngine`]), sweep direction
    /// ([`SweepDirection`]), batch width (`nrhs`, interleaved layout
    /// `b[i * nrhs + r]`) and value-slab precision ([`PrecisionPolicy`]).
    /// Every engine accepts every combination of the other three; this
    /// method cuts a [`PipelinePlan`]
    /// for the call — the gate and ticket counters are the call's own, the
    /// chunk readiness is the copy `s` remembers from the first sweep in
    /// this direction at this thread count, so only that first call pays an
    /// O(n) pass outside its sweep — and runs [`ParallelSolver::solve_into`].
    /// Callers sweeping one structure many times still do better holding a
    /// plan and an output buffer themselves: `solve_into` allocates nothing.
    ///
    /// Mixed-precision requests ([`PrecisionPolicy::ValuesF32WithRefinement`])
    /// read the lazily demoted f32 value slabs but accumulate every partial
    /// product in f64; the sweep alone is accurate to roughly single
    /// precision, and callers needing f64 accuracy wrap it in iterative
    /// refinement (`sts-krylov`'s refinement driver does this).
    ///
    /// # Errors
    ///
    /// `nrhs == 0` or a right-hand side    /// else. `nrhs == 0` or a right-hand side whose length is not `n * nrhs`
    /// returns [`MatrixError::DimensionMismatch`].
    pub fn solve_with(&self, s: &StsStructure, b: &[f64], opts: &SolveOptions) -> Result<Vec<f64>> {
        let mut plan = self.plan(s, opts.direction);
        let mut x = vec![0.0f64; b.len()];
        self.solve_into(s, &mut plan, b, &mut x, opts)?;
        Ok(x)
    }

    /// [`ParallelSolver::solve_with`] into a caller-provided buffer with a
    /// caller-held [`PipelinePlan`]: the hot path for iterative solvers,
    /// performing no heap allocation. One plan per (structure, direction)
    /// serves every engine, `nrhs` and precision — the schedule depends only
    /// on the structure and the thread count.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] when `nrhs == 0` or `b` / `x` are
    /// not `n * nrhs` long; [`MatrixError::InvalidParameter`] when `plan`
    /// was not built by this solver for `s` and `opts.direction`. The pool-backed
    /// engines also surface [`MatrixError::WorkerPanicked`], and the
    /// pipelined engine [`MatrixError::SolveTimeout`]; on any error `x` must
    /// be treated as torn.
    pub fn solve_into(
        &self,
        s: &StsStructure,
        plan: &mut PipelinePlan,
        b: &[f64],
        x: &mut [f64],
        opts: &SolveOptions,
    ) -> Result<()> {
        let nrhs = opts.nrhs;
        if nrhs == 0 {
            return Err(MatrixError::DimensionMismatch(
                "a solve needs at least one right-hand side".into(),
            ));
        }
        if b.len() != s.n() * nrhs || x.len() != s.n() * nrhs {
            return Err(MatrixError::DimensionMismatch(format!(
                "b and x must both have length n * nrhs = {}, got {} and {}",
                s.n() * nrhs,
                b.len(),
                x.len()
            )));
        }
        plan.check(s, self.pool.num_threads(), opts.direction)?;
        let layout = s.layout(opts.direction);
        let (ecols, icols) = (layout.ext_cols(), layout.int_cols());
        match opts.precision {
            PrecisionPolicy::ValuesF64 => self.sweep(
                plan,
                layout,
                Slab {
                    cols: ecols,
                    vals: layout.ext_vals(),
                },
                Slab {
                    cols: icols,
                    vals: layout.int_vals(),
                },
                (b, x),
                opts,
            ),
            PrecisionPolicy::ValuesF32WithRefinement => self.sweep(
                plan,
                layout,
                Slab {
                    cols: ecols,
                    vals: layout.ext_vals_f32(),
                },
                Slab {
                    cols: icols,
                    vals: layout.int_vals_f32(),
                },
                (b, x),
                opts,
            ),
        }
    }

    /// One sweep over `layout`'s external and internal slabs, from `b` into
    /// `x`: binds the row body — lane width 1 for a single right-hand side,
    /// [`TILE`] for a batch — to the sweep's `(gather, chain)` bodies and
    /// runs them under the requested engine's driver.
    fn sweep<V: SlabValue>(
        &self,
        plan: &mut PipelinePlan,
        layout: &SplitLayout,
        ext: Slab<'_, V>,
        int: Slab<'_, V>,
        (b, x): (&[f64], &mut [f64]),
        opts: &SolveOptions,
    ) -> Result<()> {
        let rows = SweepRows {
            solver: self,
            layout,
            ext,
            int,
            b,
            x: SharedVec::new(x),
            nrhs: opts.nrhs,
            direction: plan.direction(),
            num_stages: plan.num_stages(),
        };
        if opts.nrhs == 1 {
            self.drive(
                opts.engine,
                plan,
                &|range| rows.gather_rows::<1>(range),
                &|st, t| rows.chain_task::<1>(st, t),
            )
        } else {
            self.drive(
                opts.engine,
                plan,
                &|range| rows.gather_rows::<TILE>(range),
                &|st, t| rows.chain_task::<TILE>(st, t),
            )
        }
    }

    /// Runs a sweep's `(gather, chain)` bodies under `engine`'s driver.
    fn drive(
        &self,
        engine: SolveEngine,
        plan: &mut PipelinePlan,
        gather: &GatherFn<'_>,
        chain: &ChainFn<'_>,
    ) -> Result<()> {
        match engine {
            SolveEngine::Sequential => {
                drive_sequential(plan, gather, chain);
                Ok(())
            }
            SolveEngine::Split => self.drive_split(plan, gather, chain),
            SolveEngine::Pipelined => self.drive_pipelined(plan, gather, chain),
        }
    }

    /// Solves the reordered system `L' x' = b'` with the paper's unsplit
    /// barrier-per-pack kernel (Algorithm 1 run with threads; it has no
    /// [`SolveEngine`], no plan and no options — forward, one right-hand
    /// side, f64) and returns `x'`:
    /// per pack, the super-rows are distributed over the pool under the
    /// configured OpenMP-style schedule (the paper uses `dynamic,32` for the
    /// flat methods and `guided,1` for the 3-level methods), each walking
    /// its rows' full nonzero lists; the pool's completion is the inter-pack
    /// barrier. Never forces the split layouts.
    pub fn solve(&self, s: &StsStructure, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != s.n() {
            return Err(MatrixError::DimensionMismatch(format!(
                "b has length {}, expected {}",
                b.len(),
                s.n()
            )));
        }
        let mut x = vec![0.0f64; s.n()];
        {
            let shared = SharedVec::new(&mut x);
            let l = s.lower();
            let row_ptr = l.row_ptr();
            let col_idx = l.col_idx();
            let values = l.values();
            for p in 0..s.num_packs() {
                let pack = s.pack_super_rows(p);
                let first_super_row = pack.start;
                let pack_len = pack.len();
                self.pool
                    .parallel_for(pack_len, self.schedule, &|t| {
                        let sr = first_super_row + t;
                        for i1 in s.super_row_rows(sr) {
                            let start = row_ptr[i1];
                            let end = row_ptr[i1 + 1];
                            let mut acc = 0.0;
                            for k in start..end - 1 {
                                // SAFETY: column k refers either to an earlier pack
                                // (completed before this pack started) or to an
                                // earlier row of this same super-row (written by
                                // this worker earlier in this closure).
                                acc += values[k] * unsafe { shared.read(col_idx[k]) };
                            }
                            // SAFETY: row i1 belongs to exactly one super-row,
                            // executed by exactly one worker.
                            unsafe { shared.write(i1, (b[i1] - acc) / values[end - 1]) };
                        }
                    })
                    .map_err(pool_error_to_matrix)?;
            }
        }
        Ok(x)
    }

    /// The split driver: per stage, the plan's gather chunks under the
    /// static schedule (one contiguous block of rows — and one contiguous
    /// slab range — per worker), the pool's completion as the phase barrier,
    /// then the chain tasks under the configured schedule. Chain-free stages
    /// skip phase 2 and its barrier entirely.
    fn drive_split(
        &self,
        plan: &PipelinePlan,
        gather: &GatherFn<'_>,
        chain: &ChainFn<'_>,
    ) -> Result<()> {
        let rec = self.active_recorder();
        for st in 0..plan.num_stages() {
            let chunks = plan.stage_chunks(st);
            self.pool
                .parallel_for(chunks.len(), Schedule::Static, &|c| {
                    span(rec, Phase::Gather, c, st, || gather(chunks[c].clone()))
                })
                .map_err(pool_error_to_matrix)?;
            // The pool does not expose which slot claimed a dynamically
            // scheduled task, so a chain span's worker field carries the
            // chain-task index.
            self.pool
                .parallel_for(plan.num_chain_tasks(st), self.schedule, &|t| {
                    span(rec, Phase::Chain, t, st, || chain(st, t))
                })
                .map_err(pool_error_to_matrix)?;
        }
        Ok(())
    }

    /// Runs `body` once on every worker of the pool as one gate-coordinated
    /// dispatch: the scaffold the pipelined sweep and the level-scheduled
    /// IC(0) build share, and the one place their failure semantics (module
    /// docs, "Failure semantics") are implemented. `gate` must be fresh or
    /// reset: the poison a failed dispatch leaves on it is the caller's to
    /// rewind.
    pub(crate) fn run_gated(
        &self,
        gate: &EpochGate,
        body: impl Fn(&GatedWorker<'_>) + Sync,
    ) -> Result<()> {
        let deadline = Instant::now() + self.watchdog();
        let failure = KernelFailure::new();
        let rec = self.active_recorder();
        self.pool
            .parallel_for(self.pool.num_threads(), Schedule::Static, &|slot| {
                let worker = GatedWorker {
                    solver: self,
                    gate,
                    failure: &failure,
                    deadline,
                    rec,
                    slot,
                    stage: Cell::new(0),
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&worker))) {
                    failure.record(MatrixError::WorkerPanicked {
                        slot,
                        pack: worker.stage.get(),
                        message: panic_message(payload.as_ref()),
                    });
                    gate.poison();
                }
            })
            // Unreachable in practice — the catch above absorbs every panic —
            // but kept sound rather than assumed.
            .map_err(pool_error_to_matrix)?;
        failure.into_result()
    }

    /// The pipelined driver: one gated dispatch, per-stage completion
    /// counters instead of barriers, statically owned phase-1 chunks with
    /// readiness waits, ticket-claimed phase-2 chain tasks, and bounded
    /// gather lookahead for parked workers (see the module documentation).
    /// A lone worker runs the same body: every wait it meets is already
    /// satisfied by its own program order.
    fn drive_pipelined(
        &self,
        plan: &mut PipelinePlan,
        gather: &GatherFn<'_>,
        chain: &ChainFn<'_>,
    ) -> Result<()> {
        // Rewind the gate (generation-stamped) and the ticket counters; &mut
        // exclusivity makes the plain stores race-free, and the pool dispatch
        // below publishes them to every worker.
        plan.rewind();
        let plan = &*plan;
        let num_stages = plan.num_stages();
        self.run_gated(&plan.gate, |worker| {
            let w = worker.slot();
            // Runs this worker's phase-1 chunk of stage `st` (a no-op `Ran`
            // when it owns none). Non-blocking mode refuses — `NotReady` —
            // instead of waiting for the chunk's readiness; `Bail` means the
            // worker must unwind its loop.
            let run_chunk = |st: usize, blocking: bool| -> ChunkStep {
                let Some(rows) = plan.stage_chunks(st).get(w) else {
                    return ChunkStep::Ran;
                };
                let dep = plan.stage_deps(st)[w] as usize;
                if blocking {
                    if !worker.await_stages(dep, st) {
                        return ChunkStep::Bail;
                    }
                } else if plan.gate.is_poisoned() {
                    return ChunkStep::Bail;
                } else if !plan.gate.is_open(dep) {
                    return ChunkStep::NotReady;
                }
                worker.enter(st);
                worker.span(Phase::Gather, st, || gather(rows.clone()));
                plan.gate.arrive_phase1(st);
                ChunkStep::Ran
            };
            // The next stage whose phase-1 chunk this worker still owes;
            // lookahead advances it past the stage being processed.
            let mut next_p1 = 0usize;
            for st in 0..num_stages {
                if next_p1 == st {
                    if run_chunk(st, true) == ChunkStep::Bail {
                        return;
                    }
                    next_p1 = st + 1;
                }
                let ntasks = plan.num_chain_tasks(st);
                if ntasks == 0 {
                    continue;
                }
                let mut wait = SpinWait::new();
                loop {
                    if plan.gate.is_poisoned() {
                        return;
                    }
                    if !plan.gate.phase1_drained(st) {
                        // Parked: gather ahead into the next stages instead
                        // of spinning (readiness permitting).
                        if next_p1 < num_stages && next_p1 - st <= PIPELINE_LOOKAHEAD {
                            match run_chunk(next_p1, false) {
                                ChunkStep::Ran => {
                                    next_p1 += 1;
                                    wait = SpinWait::new();
                                    continue;
                                }
                                ChunkStep::Bail => return,
                                ChunkStep::NotReady => {}
                            }
                        }
                        if !worker.relax(&mut wait, st) {
                            return;
                        }
                        continue;
                    }
                    let t = plan.tickets[st].fetch_add(1, AtomicOrdering::Relaxed);
                    if t >= ntasks {
                        break;
                    }
                    worker.at(st);
                    worker.span(Phase::Chain, st, || chain(st, t));
                    plan.gate.arrive_phase2(st);
                }
            }
        })
    }

    /// Sparse matrix–vector product `y = A x` on the solver's worker pool:
    /// the rows are statically chunked, each chunk writing a disjoint slice
    /// of `y`. This is the companion kernel iterative solvers need next to
    /// the triangular sweeps (one `A·p` per iteration), sharing the pool so
    /// the whole iteration runs on one set of (optionally pinned) workers.
    /// No heap allocation.
    pub fn spmv_into(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != a.ncols() || y.len() != a.nrows() {
            return Err(MatrixError::DimensionMismatch(
                "x/y lengths must match the matrix dimensions".into(),
            ));
        }
        let n = a.nrows();
        if n == 0 {
            return Ok(());
        }
        let shared = SharedVec::new(y);
        let row_ptr = a.row_ptr();
        let col_idx = a.col_idx();
        let values = a.values();
        let nchunks = chunk_count(self.pool.num_threads(), n);
        self.pool
            .parallel_for(nchunks, Schedule::Static, &|c| {
                for r in chunk_range(0, n, nchunks, c) {
                    let mut acc = 0.0;
                    for k in row_ptr[r]..row_ptr[r + 1] {
                        acc += values[k] * x[col_idx[k]];
                    }
                    // SAFETY: row r belongs to exactly one static chunk; x is
                    // never written during the product.
                    unsafe { shared.write(r, acc) };
                }
            })
            .map_err(pool_error_to_matrix)?;
        Ok(())
    }

    /// Multi-RHS sparse matrix–vector product `Y = A X` on the solver's
    /// worker pool, with the interleaved layout the batch solvers use
    /// (`x[i * nrhs + r]`). Each `(col, val)` load is amortised over the
    /// batch via a register tile. No heap allocation.
    pub fn spmv_batch_into(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        y: &mut [f64],
        nrhs: usize,
    ) -> Result<()> {
        if nrhs == 0 {
            return Err(MatrixError::DimensionMismatch(
                "spmv_batch_into needs at least one right-hand side".into(),
            ));
        }
        if x.len() != a.ncols() * nrhs || y.len() != a.nrows() * nrhs {
            return Err(MatrixError::DimensionMismatch(
                "x/y lengths must match the matrix dimensions times nrhs".into(),
            ));
        }
        let n = a.nrows();
        if n == 0 {
            return Ok(());
        }
        let shared = SharedVec::new(y);
        let row_ptr = a.row_ptr();
        let col_idx = a.col_idx();
        let values = a.values();
        let nchunks = chunk_count(self.pool.num_threads(), n);
        self.pool
            .parallel_for(nchunks, Schedule::Static, &|c| {
                for r in chunk_range(0, n, nchunks, c) {
                    let base = r * nrhs;
                    for r0 in (0..nrhs).step_by(TILE) {
                        let w = TILE.min(nrhs - r0);
                        let mut acc = [0.0f64; TILE];
                        for k in row_ptr[r]..row_ptr[r + 1] {
                            let (j, v) = (col_idx[k], values[k]);
                            for (q, a) in acc[..w].iter_mut().enumerate() {
                                *a += v * x[j * nrhs + r0 + q];
                            }
                        }
                        for (q, a) in acc[..w].iter().enumerate() {
                            // SAFETY: the nrhs slots of row r belong to exactly
                            // one static chunk.
                            unsafe { shared.write(base + r0 + q, *a) };
                        }
                    }
                }
            })
            .map_err(pool_error_to_matrix)?;
        Ok(())
    }
}

/// One contiguous phase-1 row range of a sweep.
type GatherFn<'a> = dyn Fn(Range<usize>) + Sync + 'a;
/// Chain task `t` of stage `st` of a sweep.
type ChainFn<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// The sequential driver: the stages in order on the calling thread — no
/// pool, no synchronisation, no hooks.
fn drive_sequential(plan: &PipelinePlan, gather: &GatherFn<'_>, chain: &ChainFn<'_>) {
    for st in 0..plan.num_stages() {
        gather(plan.stage_rows(st));
        for t in 0..plan.num_chain_tasks(st) {
            chain(st, t);
        }
    }
}

/// The data of one sweep: the direction's layout with the value slabs at the
/// requested precision, the right-hand sides, and the shared solution.
struct SweepRows<'a, V> {
    solver: &'a ParallelSolver,
    layout: &'a SplitLayout,
    ext: Slab<'a, V>,
    int: Slab<'a, V>,
    b: &'a [f64],
    x: SharedVec,
    nrhs: usize,
    direction: SweepDirection,
    num_stages: usize,
}

impl<V: SlabValue> SweepRows<'_, V> {
    /// Phase 1 over one contiguous row range (a gather chunk).
    fn gather_rows<const W: usize>(&self, rows: Range<usize>) {
        let erp = self.layout.ext_row_ptr();
        let inv_diag = self.layout.inv_diags();
        for i in rows {
            let r = erp[i]..erp[i + 1];
            // SAFETY: solve_into checked x holds n * nrhs slots and the
            // layout's columns are rows of s. Row i is written by exactly
            // one gather chunk; its external columns lie in stages finished
            // before this chunk started — behind the previous barrier
            // (split), the chunk's readiness wait (pipelined) or in program
            // order (sequential). See the module docs.
            unsafe {
                Sum::<W>::gather(
                    &self.x,
                    self.b,
                    i,
                    self.ext,
                    r.clone(),
                    inv_diag[i],
                    self.nrhs,
                )
            };
            self.solver.shadow_record(
                TaskKind::Gather,
                i,
                self.ext.cols[r].iter().map(|&j| j as usize),
            );
        }
    }

    /// Phase 2: chain task `t` of stage `st`, its chain rows in layout order
    /// (increasing for forward sweeps, decreasing for transpose sweeps).
    fn chain_task<const W: usize>(&self, st: usize, t: usize) {
        let p = stage_pack(self.direction, self.num_stages, st);
        let irp = self.layout.int_row_ptr();
        let inv_diag = self.layout.inv_diags();
        for &i in self.layout.chain_rows_of(p, t) {
            let i = i as usize;
            let r = irp[i]..irp[i + 1];
            // SAFETY: bounds as in gather_rows. Row i belongs to exactly one
            // chain task; its phase-1 value was published by the phase
            // barrier / drained flag; its internal columns stay inside this
            // task's super-row — corrected earlier by this task if they are
            // chain rows, phase-1 values otherwise.
            unsafe { Sum::<W>::chain(&self.x, i, self.int, r.clone(), inv_diag[i], self.nrhs) };
            // The recorded reads: the internal columns plus the re-read of
            // the row's own phase-1 partial.
            self.solver.shadow_record(
                TaskKind::Chain,
                i,
                self.int.cols[r]
                    .iter()
                    .map(|&j| j as usize)
                    .chain(std::iter::once(i)),
            );
        }
    }
}

/// Tri-state outcome of one phase-1 chunk attempt in the pipelined loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkStep {
    /// The chunk ran (or the worker owns none at this stage).
    Ran,
    /// Non-blocking readiness check failed; try again later.
    NotReady,
    /// The gate is poisoned (or this wait timed out): unwind the worker loop.
    Bail,
}

/// How many stages past the one a worker is parked on it may gather ahead
/// into (stages `s + 1` and `s + 2`): enough to hide short chains without
/// letting fast workers run arbitrarily far from the cache-resident frontier.
const PIPELINE_LOOKAHEAD: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use sts_matrix::{generators, ops, CooMatrix, LowerTriangularCsr};

    const SPLIT_ENGINES: [SolveEngine; 3] = [
        SolveEngine::Sequential,
        SolveEngine::Split,
        SolveEngine::Pipelined,
    ];
    const DIRECTIONS: [SweepDirection; 2] = [SweepDirection::Forward, SweepDirection::Transpose];
    const F32: PrecisionPolicy = PrecisionPolicy::ValuesF32WithRefinement;

    fn opts(engine: SolveEngine, direction: SweepDirection) -> SolveOptions {
        SolveOptions::default()
            .with_engine(engine)
            .with_direction(direction)
    }

    /// The plain (unsplit, single-threaded) reference sweep of `direction`.
    fn reference(s: &StsStructure, direction: SweepDirection, b: &[f64]) -> Vec<f64> {
        match direction {
            SweepDirection::Forward => s.solve_sequential(b).unwrap(),
            SweepDirection::Transpose => s.solve_transpose_sequential(b).unwrap(),
        }
    }

    /// A right-hand side manufactured from a known solution.
    fn manufactured(s: &StsStructure, direction: SweepDirection, shift: usize) -> Vec<f64> {
        let x: Vec<f64> = (0..s.n())
            .map(|i| 1.0 + ((i + shift) % 5) as f64 * 0.3)
            .collect();
        match direction {
            SweepDirection::Forward => s.lower().multiply(&x).unwrap(),
            SweepDirection::Transpose => s.lower().multiply_transpose(&x).unwrap(),
        }
    }

    fn lane(x: &[f64], nrhs: usize, q: usize) -> Vec<f64> {
        x.iter().skip(q).step_by(nrhs).copied().collect()
    }

    fn check_parallel_matches_sequential(
        a: &sts_matrix::CsrMatrix,
        method: Method,
        threads: usize,
        schedule: Schedule,
    ) {
        let l = generators::lower_operand(a).unwrap();
        let s = method.build(&l, 8).unwrap();
        let x_true: Vec<f64> = (0..s.n()).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
        let b = s.lower().multiply(&x_true).unwrap();
        let seq = s.solve_sequential(&b).unwrap();
        let solver = ParallelSolver::new(threads, schedule);
        let par = solver.solve(&s, &b).unwrap();
        assert!(
            ops::relative_error_inf(&par, &seq) < 1e-12,
            "parallel must match sequential"
        );
        assert!(ops::relative_error_inf(&par, &x_true) < 1e-10);
    }

    #[test]
    fn parallel_matches_sequential_for_all_methods() {
        let a = generators::triangulated_grid(14, 14, 2).unwrap();
        for method in Method::all() {
            check_parallel_matches_sequential(&a, method, 4, Schedule::Dynamic { chunk: 4 });
        }
    }

    #[test]
    fn parallel_matches_sequential_across_schedules() {
        let a = generators::grid2d_9point(13, 13).unwrap();
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 32 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            check_parallel_matches_sequential(&a, Method::Sts3, 4, schedule);
        }
    }

    #[test]
    fn single_threaded_solver_works() {
        let a = generators::road_network(12, 12, 0.6, 4).unwrap();
        check_parallel_matches_sequential(&a, Method::CsrCol, 1, Schedule::Static);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let l = generators::paper_figure1_l();
        let s = Method::Sts3.build(&l, 2).unwrap();
        let b = vec![1.0; 9];
        let solver = ParallelSolver::new(8, Schedule::Guided { min_chunk: 1 });
        let x = solver.solve(&s, &b).unwrap();
        let x_ref = s.solve_sequential(&b).unwrap();
        assert!(ops::relative_error_inf(&x, &x_ref) < 1e-14);
    }

    #[test]
    fn solver_is_reusable_across_structures_and_right_hand_sides() {
        let solver = ParallelSolver::new(3, Schedule::Dynamic { chunk: 2 });
        for seed in 0..3 {
            let a = generators::triangulated_grid(9, 9, seed).unwrap();
            let l = generators::lower_operand(&a).unwrap();
            let s = Method::Sts3.build(&l, 4).unwrap();
            for shift in 0..3 {
                let x_true: Vec<f64> = (0..s.n()).map(|i| (i + shift) as f64 * 0.1 + 1.0).collect();
                let b = s.lower().multiply(&x_true).unwrap();
                let x = solver.solve(&s, &b).unwrap();
                assert!(ops::relative_error_inf(&x, &x_true) < 1e-10);
            }
        }
    }

    #[test]
    fn every_engine_matches_the_reference_sweeps_for_all_methods_and_schedules() {
        let a = generators::triangulated_grid(14, 14, 2).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            for direction in DIRECTIONS {
                let b = manufactured(&s, direction, 0);
                let expected = reference(&s, direction, &b);
                for threads in [1, 2, 4, 8] {
                    for schedule in [
                        Schedule::Static,
                        Schedule::Dynamic { chunk: 4 },
                        Schedule::Guided { min_chunk: 1 },
                    ] {
                        let solver = ParallelSolver::new(threads, schedule);
                        for engine in SPLIT_ENGINES {
                            let x = solver.solve_with(&s, &b, &opts(engine, direction)).unwrap();
                            assert!(
                                ops::relative_error_inf(&x, &expected) < 1e-12,
                                "{} {engine:?} {direction:?} with {threads} threads under \
                                 {schedule:?} diverged from the reference sweep",
                                method.label()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_lanes_are_bitwise_identical_to_scalar_sweeps_on_every_engine() {
        // The engine-matrix invariant: each lane of a batch runs the scalar
        // sweep's exact floating-point sequence on every engine at every
        // thread count, so equality is ==, not a tolerance. Widths above
        // TILE exercise the remainder pass (9) and a third pass (17).
        let a = generators::grid2d_9point(9, 9).unwrap();
        let s = Method::Sts3
            .build(&generators::lower_operand(&a).unwrap(), 4)
            .unwrap();
        let n = s.n();
        let scalar_solver = ParallelSolver::new(1, Schedule::Static);
        for nrhs in [1usize, 3, 9, 17] {
            let bb: Vec<f64> = (0..n * nrhs)
                .map(|k| 1.0 + ((k / nrhs) * 7 + (k % nrhs) * 3) as f64 * 0.31)
                .collect();
            for direction in DIRECTIONS {
                for precision in [PrecisionPolicy::ValuesF64, F32] {
                    let scalar = opts(SolveEngine::Sequential, direction).with_precision(precision);
                    let mut expected = vec![0.0; n * nrhs];
                    for q in 0..nrhs {
                        let xq = scalar_solver
                            .solve_with(&s, &lane(&bb, nrhs, q), &scalar)
                            .unwrap();
                        for (i, v) in xq.into_iter().enumerate() {
                            expected[i * nrhs + q] = v;
                        }
                    }
                    for threads in [1, 3, 8] {
                        let solver =
                            ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
                        for engine in SPLIT_ENGINES {
                            let o = scalar.with_engine(engine).with_nrhs(nrhs);
                            assert_eq!(
                                solver.solve_with(&s, &bb, &o).unwrap(),
                                expected,
                                "{engine:?} {direction:?} {precision:?} batch of {nrhs} \
                                 diverged from the scalar sweeps at {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bad_shapes_are_rejected_by_every_engine() {
        let l = generators::paper_figure1_l();
        let s = Method::CsrLs.build(&l, 2).unwrap();
        let solver = ParallelSolver::new(2, Schedule::Static);
        assert!(solver.solve(&s, &[1.0; 4]).is_err());
        for engine in SPLIT_ENGINES {
            for direction in DIRECTIONS {
                let o = opts(engine, direction);
                for (b_len, nrhs) in [(4, 1), (9, 0), (10, 2)] {
                    assert!(
                        matches!(
                            solver.solve_with(&s, &vec![1.0; b_len], &o.with_nrhs(nrhs)),
                            Err(MatrixError::DimensionMismatch(_))
                        ),
                        "{engine:?} {direction:?} accepted b.len() = {b_len}, nrhs = {nrhs}"
                    );
                }
                // solve_into checks the output buffer the same way.
                let mut plan = solver.plan(&s, direction);
                let mut short = vec![0.0; 3];
                assert!(matches!(
                    solver.solve_into(&s, &mut plan, &[1.0; 9], &mut short, &o),
                    Err(MatrixError::DimensionMismatch(_))
                ));
            }
        }
    }

    #[test]
    fn degenerate_systems_solve_on_every_engine() {
        let empty = LowerTriangularCsr::from_csr(&CooMatrix::new(0, 0).to_csr()).unwrap();
        let mut one = CooMatrix::new(1, 1);
        one.push(0, 0, 4.0).unwrap();
        let one = LowerTriangularCsr::from_csr(&one.to_csr()).unwrap();
        for l in [empty, one] {
            let s = Method::Sts3.build(&l, 8).unwrap();
            for threads in [1, 3] {
                let solver = ParallelSolver::new(threads, Schedule::Static);
                for engine in SPLIT_ENGINES {
                    for direction in DIRECTIONS {
                        for nrhs in [1, 3] {
                            let b = vec![2.0; s.n() * nrhs];
                            let x = solver
                                .solve_with(&s, &b, &opts(engine, direction).with_nrhs(nrhs))
                                .unwrap();
                            assert_eq!(x, vec![0.5; s.n() * nrhs], "{engine:?} {direction:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pipelined_sweeps_are_stable_under_repeated_contention() {
        // The chain-heaviest ordering (level sets) re-solved many times on an
        // oversubscribed pool: races between lookahead gathers and chain
        // corrections, or readiness races in the reverse sweep, would show
        // up as sporadic divergence.
        let a = generators::grid2d_laplacian(24, 24).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Csr3Ls.build(&l, 6).unwrap();
        let solver = ParallelSolver::new(8, Schedule::Guided { min_chunk: 1 });
        for direction in DIRECTIONS {
            let b = manufactured(&s, direction, 0);
            let expected = reference(&s, direction, &b);
            let o = SolveOptions::default().with_direction(direction);
            let mut plan = solver.plan(&s, direction);
            let mut x = vec![0.0; s.n()];
            for round in 0..50 {
                solver.solve_into(&s, &mut plan, &b, &mut x, &o).unwrap();
                assert!(
                    ops::relative_error_inf(&x, &expected) < 1e-12,
                    "{direction:?} pipelined diverged on round {round}"
                );
            }
            assert_eq!(plan.generation(), 50, "each solve rewinds the plan once");
        }
    }

    #[test]
    fn solve_into_reuses_plans_across_solves_and_matches_solve_with() {
        let a = generators::grid2d_laplacian(16, 16).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 6).unwrap();
        let solver = ParallelSolver::new(4, Schedule::Guided { min_chunk: 1 });
        let nrhs = 2;
        let bb: Vec<f64> = (0..s.n() * nrhs).map(|k| 1.0 + (k % 3) as f64).collect();
        for direction in DIRECTIONS {
            // One plan serves every engine, width and precision.
            let mut plan = solver.plan(&s, direction);
            let mut x = vec![0.0; s.n()];
            let mut xb = vec![0.0; s.n() * nrhs];
            for shift in 0..4 {
                let b: Vec<f64> = (0..s.n()).map(|i| 1.0 + ((i + shift) % 5) as f64).collect();
                for engine in SPLIT_ENGINES {
                    for precision in [PrecisionPolicy::ValuesF64, F32] {
                        let o = opts(engine, direction).with_precision(precision);
                        solver.solve_into(&s, &mut plan, &b, &mut x, &o).unwrap();
                        assert_eq!(x, solver.solve_with(&s, &b, &o).unwrap());
                        let ob = o.with_nrhs(nrhs);
                        solver.solve_into(&s, &mut plan, &bb, &mut xb, &ob).unwrap();
                        assert_eq!(xb, solver.solve_with(&s, &bb, &ob).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn mismatched_plans_are_rejected() {
        let a = generators::grid2d_laplacian(10, 10).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        let solver = ParallelSolver::new(3, Schedule::Static);
        let b = vec![1.0; s.n()];
        let mut x = vec![0.0; s.n()];
        let fwd_opts = SolveOptions::default();
        let bwd_opts = fwd_opts.with_direction(SweepDirection::Transpose);
        // Wrong direction.
        let mut bwd = solver.plan(&s, SweepDirection::Transpose);
        assert_eq!(bwd.direction(), SweepDirection::Transpose);
        assert!(solver
            .solve_into(&s, &mut bwd, &b, &mut x, &fwd_opts)
            .is_err());
        let mut fwd = solver.plan(&s, SweepDirection::Forward);
        assert!(solver
            .solve_into(&s, &mut fwd, &b, &mut x, &bwd_opts)
            .is_err());
        // Wrong thread count.
        let other = ParallelSolver::new(2, Schedule::Static);
        let mut plan2 = other.plan(&s, SweepDirection::Forward);
        assert!(solver
            .solve_into(&s, &mut plan2, &b, &mut x, &fwd_opts)
            .is_err());
        // Wrong structure.
        let a2 = generators::grid2d_laplacian(9, 9).unwrap();
        let l2 = generators::lower_operand(&a2).unwrap();
        let s2 = Method::Sts3.build(&l2, 4).unwrap();
        let b2 = vec![1.0; s2.n()];
        let mut x2 = vec![0.0; s2.n()];
        let mut plan = solver.plan(&s, SweepDirection::Forward);
        assert!(solver
            .solve_into(&s2, &mut plan, &b2, &mut x2, &fwd_opts)
            .is_err());
        // Same n, pack count and thread count but different pack boundaries:
        // a structurally stale plan must still be rejected (the row ranges
        // it would hand the gather chunks race the other structure's chain
        // tasks).
        let l9 = generators::paper_figure1_l();
        let order = vec![0usize, 1, 4, 2, 3, 5, 6, 7, 8];
        let perm = sts_graph::Permutation::from_new_to_old(order).unwrap();
        let lp = l9.permute_symmetric(perm.new_to_old()).unwrap();
        let index2: Vec<usize> = (0..=9).collect();
        let sa = StsStructure::new(
            1,
            crate::builder::Ordering::LevelSet,
            vec![0, 3, 5, 6, 7, 8, 9],
            index2.clone(),
            lp.clone(),
            perm.clone(),
        )
        .unwrap();
        let sb = StsStructure::new(
            1,
            crate::builder::Ordering::LevelSet,
            vec![0, 2, 5, 6, 7, 8, 9],
            index2,
            lp,
            perm,
        )
        .unwrap();
        assert_eq!(sa.n(), sb.n());
        assert_eq!(sa.num_packs(), sb.num_packs());
        let b9 = vec![1.0; 9];
        let mut x9 = vec![0.0; 9];
        let mut plan_a = solver.plan(&sa, SweepDirection::Forward);
        for engine in SPLIT_ENGINES {
            let o = fwd_opts.with_engine(engine);
            assert!(solver
                .solve_into(&sb, &mut plan_a, &b9, &mut x9, &o)
                .is_err());
            // ... and the plan still works against its own structure.
            assert!(solver
                .solve_into(&sa, &mut plan_a, &b9, &mut x9, &o)
                .is_ok());
        }
    }

    #[test]
    fn single_worker_solves_still_stamp_the_plan_generation() {
        let a = generators::grid2d_laplacian(8, 8).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        let solver = ParallelSolver::new(1, Schedule::Static);
        let mut plan = solver.plan(&s, SweepDirection::Forward);
        let b = vec![1.0; s.n()];
        let mut x = vec![0.0; s.n()];
        for round in 1..=3 {
            solver
                .solve_into(&s, &mut plan, &b, &mut x, &SolveOptions::default())
                .unwrap();
            assert_eq!(plan.generation(), round);
        }
    }

    #[test]
    fn pool_spmv_matches_the_sequential_product() {
        let a = generators::grid2d_9point(13, 11).unwrap();
        let x: Vec<f64> = (0..a.ncols()).map(|i| 0.3 + (i % 7) as f64 * 0.5).collect();
        let expected = ops::spmv(&a, &x).unwrap();
        for threads in [1, 2, 4, 8] {
            let solver = ParallelSolver::new(threads, Schedule::Static);
            let mut y = vec![0.0; a.nrows()];
            solver.spmv_into(&a, &x, &mut y).unwrap();
            assert!(ops::relative_error_inf(&y, &expected) < 1e-14);
        }
        // Batch: interleaved copies scaled per system.
        let nrhs = 3;
        let xb: Vec<f64> = (0..a.ncols() * nrhs)
            .map(|k| x[k / nrhs] * (1.0 + (k % nrhs) as f64))
            .collect();
        let solver = ParallelSolver::new(4, Schedule::Static);
        let mut yb = vec![0.0; a.nrows() * nrhs];
        solver.spmv_batch_into(&a, &xb, &mut yb, nrhs).unwrap();
        for i in 0..a.nrows() {
            for r in 0..nrhs {
                let want = expected[i] * (1.0 + r as f64);
                assert!((yb[i * nrhs + r] - want).abs() <= 1e-12 * want.abs().max(1.0));
            }
        }
        // Bad shapes are rejected.
        let mut y = vec![0.0; a.nrows()];
        assert!(solver.spmv_into(&a, &x[1..], &mut y).is_err());
        assert!(solver.spmv_batch_into(&a, &xb, &mut yb, 0).is_err());
    }

    #[test]
    fn pinned_solver_solves_correctly() {
        let topo = sts_numa::NumaTopology::detect_host();
        let order = topo.compact_core_order(2);
        let a = generators::grid2d_laplacian(10, 10).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        let solver = ParallelSolver::with_pinning(2, Schedule::Guided { min_chunk: 1 }, &order);
        let x_true = vec![2.0; s.n()];
        let b = s.lower().multiply(&x_true).unwrap();
        let x = solver.solve(&s, &b).unwrap();
        assert!(ops::relative_error_inf(&x, &x_true) < 1e-10);
    }

    #[test]
    fn single_rhs_sweeps_agree_bitwise_across_engines_and_f32_approximates_f64() {
        let a = generators::triangulated_grid(12, 12, 3).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 6).unwrap();
        for direction in DIRECTIONS {
            let b = manufactured(&s, direction, 0);
            for precision in [PrecisionPolicy::ValuesF64, F32] {
                let one = ParallelSolver::new(1, Schedule::Static);
                let seq = one
                    .solve_with(
                        &s,
                        &b,
                        &opts(SolveEngine::Sequential, direction).with_precision(precision),
                    )
                    .unwrap();
                for threads in [1, 2, 4] {
                    let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
                    // Every engine runs the one row body row by row, and f32
                    // slabs round only the stored values, so all engines
                    // give the exact same bits at every thread count.
                    for engine in [SolveEngine::Split, SolveEngine::Pipelined] {
                        let x = solver
                            .solve_with(&s, &b, &opts(engine, direction).with_precision(precision))
                            .unwrap();
                        assert_eq!(
                            seq, x,
                            "{engine:?} {direction:?} {precision:?} diverged at {threads} threads"
                        );
                    }
                }
                // The f32 sweep is accurate to at least roughly single
                // precision before any refinement.
                assert!(ops::relative_error_inf(&seq, &reference(&s, direction, &b)) < 1e-4);
            }
        }
    }
}
