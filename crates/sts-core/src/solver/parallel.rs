//! The pack-parallel triangular solver: one sweep kernel, two drivers.
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
//! once), the chunk geometry in `solver::plan`. This module holds the two
//! **drivers** that walk the stages and differ only in how they synchronise
//! — direction, batch width and slab precision are data:
//!
//! * *sequential* — a plain stage loop on the calling thread;
//! * *split* — two `parallel_for` dispatches per stage: the gather chunks
//!   under the static schedule, then the chain tasks under the solver's
//!   configured schedule; the pool's completion is the barrier. This is the
//!   paper's execution model: one parallel loop per phase, then a barrier.
//!
//! [`ParallelSolver::solve_with`] is the allocating front door over both,
//! [`ParallelSolver::solve_into`] the allocation-free form iterative solvers
//! call with an output buffer they hold, and [`ParallelSolver::solve`] the
//! paper's original kernel: one `parallel_for` over the super-rows of each
//! pack on the *unsplit* operand, a barrier between packs. That super-row
//! loop is one private driver with two row bodies — the unsplit sweep row,
//! and the IC(0) row of [`ParallelSolver::parallel_ic0`] (see
//! [`factor`](super::factor)).
//!
//! A sweep recomputes its chunk geometry per stage — a few integer
//! operations on the pack boundaries — instead of storing it, so a sweep
//! performs **no heap allocation** and its caller holds nothing but the
//! buffers.
//!
//! # Failure semantics
//!
//! A pool dispatch cannot be abandoned — `parallel_for` lends the workers a
//! borrowed body and returns only when all of them are done with it — so
//! every failure is reported after the last worker has come back, the pool
//! stays usable, and the output buffer must be treated as torn.
//!
//! No kernel waits on a peer inside a dispatch: each is a sequence of
//! `parallel_for` loops whose completion is the barrier. A panicking body is
//! caught by the pool and surfaces as [`MatrixError::WorkerPanicked`], whose
//! `pack` is the stage (split driver) or pack (super-row loop) whose
//! dispatch panicked; the SpMVs, one dispatch each, report the loop index in
//! flight. The [`ChaosHook`] runs where a unit of work starts — `hook(c, st)`
//! at gather chunk `c` of stage `st` in the split driver, `hook(t, p)` at
//! super-row task `t` of pack `p` in the super-row loop — so a panicking
//! hook fails the same way, and a stalling hook only holds back its
//! dispatch's barrier: a stalled worker is a slow success in every kernel
//! at every thread count.
//!
//! # Data-race freedom
//!
//! The solution vector is shared mutably across workers through
//! `SharedVec`. For the unsplit kernel (and, with the factor's value array
//! in its place, the IC(0) build) this is sound because:
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
//! The schedule verifier ([`crate::verify`]) checks both arguments on the
//! dispatches the drivers issue: per stage the gather and chain dispatches
//! of the split driver, per pack the super-row dispatch of the unsplit
//! kernel and the IC(0) build. Every access must be ordered by an earlier
//! dispatch's barrier or by program order within its task.

use std::ops::Range;
use std::sync::Arc;

use sts_matrix::MatrixError;
use sts_numa::{PoolError, Schedule, WorkerPool};
use sts_trace::{Phase, SpanRecorder};
use sts_verify::TaskKind;

use super::kernel::{SharedVec, Slab, Sum, TILE};
use super::plan::{chunk_count, chunk_range, stage_pack, stage_rows};
use crate::csrk::{Result, StsStructure};
use crate::options::{PrecisionPolicy, SlabValue, SolveEngine, SolveOptions, SweepDirection};
use crate::split::SplitLayout;

/// Maps a pool-level failure into the matrix error taxonomy the solver
/// surfaces.
pub(super) fn pool_error_to_matrix(e: PoolError) -> MatrixError {
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

/// A hook the fault-injection harness installs to perturb unit `w` at
/// stage/pack `st` of a parallel kernel (panic, stall, …). Runs inside the
/// kernel body, so a panicking hook behaves exactly like a panicking kernel
/// body.
pub type ChaosHook = Arc<dyn Fn(usize, usize) + Send + Sync>;

/// Times `f` as one `phase` span of `worker` at `stage` when a recorder is
/// feeding this dispatch, and just runs it otherwise.
#[inline]
pub(crate) fn span<T>(
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

/// A reusable parallel solver bound to a worker pool.
pub struct ParallelSolver {
    pub(super) pool: WorkerPool,
    schedule: Schedule,
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
    /// placement for itself pins itself there, before or after building the
    /// solver. Workers `1..threads` are the pool's own threads and are
    /// pinned to `core_order[1..]`.
    ///
    /// [`NumaTopology::compact_core_order`]:
    ///     sts_numa::NumaTopology::compact_core_order
    pub fn with_pinning(threads: usize, schedule: Schedule, core_order: &[usize]) -> Self {
        ParallelSolver {
            pool: WorkerPool::with_pinning(threads, core_order),
            schedule,
            chaos: None,
            trace: None,
            #[cfg(feature = "race-shadow")]
            shadow: None,
        }
    }

    /// Installs (or clears) a fault-injection hook, invoked as `hook(c, st)`
    /// when the split driver starts gather chunk `c` of stage `st`, and as
    /// `hook(t, p)` when the super-row loop — the unsplit
    /// [`ParallelSolver::solve`] and the level-scheduled factorization —
    /// starts super-row task `t` of pack `p`. Test support: a hook that
    /// panics or stalls exercises the failure paths deterministically.
    pub fn set_chaos_hook(&mut self, hook: Option<ChaosHook>) {
        self.chaos = hook;
    }

    /// Installs (or clears) a span recorder fed by the parallel kernels:
    /// the split driver's phase-1 gather chunks ([`Phase::Gather`]) and
    /// phase-2 chain tasks ([`Phase::Chain`]), and the level-scheduled IC(0)
    /// build's super-row tasks ([`Phase::Factor`]).
    ///
    /// The recorder's enabled flag is sampled once per solve, so an
    /// installed-but-disabled recorder costs one `Option` check per kernel
    /// dispatch (the configuration every untraced run of the repo benchmark
    /// measures). The `worker` field of a span is the chunk index for the
    /// split driver's static gather chunks, and the task index for its
    /// dynamically scheduled chain tasks and the IC(0) build's super-row
    /// tasks (the pool does not expose which slot claimed a task). The
    /// `pack` field is the *stage* index: identical to the pack for forward
    /// sweeps and the IC(0) build, reversed for transpose sweeps.
    pub fn set_trace_recorder(&mut self, recorder: Option<Arc<SpanRecorder>>) {
        self.trace = recorder;
    }

    /// The installed span recorder, if any.
    pub fn trace_recorder(&self) -> Option<&Arc<SpanRecorder>> {
        self.trace.as_ref()
    }

    /// Installs (or clears) a race-shadow access log: the split sweep, the
    /// unsplit [`ParallelSolver::solve`] and the IC(0) build record one [`sts_verify::RowTrace`] per produced row (the
    /// exact shared slots the inner loop read), so
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

    /// Solves a triangular system described by a typed [`SolveOptions`]
    /// request and returns the solution.
    ///
    /// The request selects the engine ([`SolveEngine`]), sweep direction
    /// ([`SweepDirection`]), batch width (`nrhs`, interleaved layout
    /// `b[i * nrhs + r]`) and value-slab precision ([`PrecisionPolicy`]).
    /// Every engine accepts every combination of the other three. This
    /// method allocates the solution and runs
    /// [`ParallelSolver::solve_into`], which callers sweeping one structure
    /// many times call directly with a buffer they hold.
    ///
    /// Mixed-precision requests ([`PrecisionPolicy::ValuesF32WithRefinement`])
    /// read the lazily demoted f32 value slabs but accumulate every partial
    /// product in f64; the sweep alone is accurate to roughly single
    /// precision, and callers needing f64 accuracy wrap it in iterative
    /// refinement (`sts-krylov`'s refinement driver does this).
    ///
    /// # Errors
    ///
    /// `nrhs == 0` or a right-hand side whose length is not `n * nrhs`
    /// returns [`MatrixError::DimensionMismatch`].
    pub fn solve_with(&self, s: &StsStructure, b: &[f64], opts: &SolveOptions) -> Result<Vec<f64>> {
        let mut x = vec![0.0f64; b.len()];
        self.solve_into(s, b, &mut x, opts)?;
        Ok(x)
    }

    /// [`ParallelSolver::solve_with`] into a caller-provided buffer: the hot
    /// path for iterative solvers, performing no heap allocation.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] when `nrhs == 0` or `b` / `x` are
    /// not `n * nrhs` long. The pool-backed engines also surface
    /// [`MatrixError::WorkerPanicked`]; on any error `x` must be treated as
    /// torn.
    pub fn solve_into(
        &self,
        s: &StsStructure,
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
        let len = s.n().checked_mul(nrhs);
        if len != Some(b.len()) || len != Some(x.len()) {
            return Err(MatrixError::DimensionMismatch(format!(
                "b and x must both have length n * nrhs = {}, got {} and {}",
                s.n() as u128 * nrhs as u128,
                b.len(),
                x.len()
            )));
        }
        let stages = Stages {
            s,
            layout: s.layout(opts.direction),
            direction: opts.direction,
        };
        let (ecols, icols) = (stages.layout.ext_cols(), stages.layout.int_cols());
        match opts.precision {
            PrecisionPolicy::ValuesF64 => self.sweep(
                stages,
                Slab {
                    cols: ecols,
                    vals: stages.layout.ext_vals(),
                },
                Slab {
                    cols: icols,
                    vals: stages.layout.int_vals(),
                },
                (b, x),
                opts,
            ),
            PrecisionPolicy::ValuesF32WithRefinement => self.sweep(
                stages,
                Slab {
                    cols: ecols,
                    vals: stages.layout.ext_vals_f32(),
                },
                Slab {
                    cols: icols,
                    vals: stages.layout.int_vals_f32(),
                },
                (b, x),
                opts,
            ),
        }
    }

    /// One sweep over the external and internal slabs of `stages`' layout,
    /// from `b` into `x`: binds the row body — lane width 1 for a single
    /// right-hand side, [`TILE`] for a batch — to the sweep's
    /// `(gather, chain)` bodies and runs them under the requested engine's
    /// driver.
    fn sweep<V: SlabValue>(
        &self,
        stages: Stages<'_>,
        ext: Slab<'_, V>,
        int: Slab<'_, V>,
        (b, x): (&[f64], &mut [f64]),
        opts: &SolveOptions,
    ) -> Result<()> {
        let rows = SweepRows {
            solver: self,
            stages,
            ext,
            int,
            b,
            x: SharedVec::new(x),
            nrhs: opts.nrhs,
        };
        if opts.nrhs == 1 {
            self.drive(
                opts.engine,
                stages,
                &|range| rows.gather_rows::<1>(range),
                &|st, t| rows.chain_task::<1>(st, t),
            )
        } else {
            self.drive(
                opts.engine,
                stages,
                &|range| rows.gather_rows::<TILE>(range),
                &|st, t| rows.chain_task::<TILE>(st, t),
            )
        }
    }

    /// Runs a sweep's `(gather, chain)` bodies under `engine`'s driver.
    fn drive(
        &self,
        engine: SolveEngine,
        stages: Stages<'_>,
        gather: &GatherFn<'_>,
        chain: &ChainFn<'_>,
    ) -> Result<()> {
        match engine {
            SolveEngine::Sequential => {
                drive_sequential(stages, gather, chain);
                Ok(())
            }
            SolveEngine::Split | SolveEngine::Pipelined => self.drive_split(stages, gather, chain),
        }
    }

    /// Solves the reordered system `L' x' = b'` with the paper's unsplit
    /// barrier-per-pack kernel (Algorithm 1 run with threads; it has no
    /// [`SolveEngine`] and no options — forward, one right-hand side, f64)
    /// and returns `x'`:
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
            self.drive_super_rows(s, |_, _, rows| {
                for i1 in rows {
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
                    self.shadow_record(
                        TaskKind::Gather,
                        i1,
                        col_idx[start..end - 1].iter().copied(),
                    );
                }
            })?;
        }
        Ok(x)
    }

    /// Algorithm 1's loop, shared by the unsplit sweep and the IC(0) build:
    /// per pack `p`, one `parallel_for` over its super-rows under the
    /// solver's schedule, with the pool's completion as the barrier between
    /// packs. Super-row task `t` hands its rows, in order, to
    /// `task(p, t, rows)` on one worker, after the chaos hook ran as
    /// `hook(t, p)`. A panic in pack `p`'s dispatch is reported at `pack: p`.
    pub(crate) fn drive_super_rows(
        &self,
        s: &StsStructure,
        task: impl Fn(usize, usize, Range<usize>) + Sync,
    ) -> Result<()> {
        for p in 0..s.num_packs() {
            let srs = s.pack_super_rows(p);
            self.pool
                .parallel_for(srs.len(), self.schedule, &|t| {
                    if let Some(hook) = &self.chaos {
                        hook(t, p);
                    }
                    task(p, t, s.super_row_rows(srs.start + t));
                })
                .map_err(|e| stage_error(e, p))?;
        }
        Ok(())
    }

    /// The split driver: per stage, the gather chunks under the static
    /// schedule (one contiguous block of rows — and one contiguous slab
    /// range — per worker), the pool's completion as the phase barrier,
    /// then the chain tasks under the configured schedule. Chain-free
    /// stages skip phase 2 and its barrier entirely. A panic in either
    /// dispatch of stage `st` is reported at `pack: st`.
    fn drive_split(
        &self,
        stages: Stages<'_>,
        gather: &GatherFn<'_>,
        chain: &ChainFn<'_>,
    ) -> Result<()> {
        let rec = self.active_recorder();
        let workers = self.pool.num_threads();
        for st in 0..stages.count() {
            let rows = stages.rows(st);
            let nchunks = chunk_count(workers, rows.len());
            self.pool
                .parallel_for(nchunks, Schedule::Static, &|c| {
                    if let Some(hook) = &self.chaos {
                        hook(c, st);
                    }
                    let chunk = chunk_range(rows.start, rows.len(), nchunks, c);
                    span(rec, Phase::Gather, c, st, || gather(chunk))
                })
                .map_err(|e| stage_error(e, st))?;
            // The pool does not expose which slot claimed a dynamically
            // scheduled task, so a chain span's worker field carries the
            // chain-task index.
            self.pool
                .parallel_for(stages.chain_tasks(st), self.schedule, &|t| {
                    span(rec, Phase::Chain, t, st, || chain(st, t))
                })
                .map_err(|e| stage_error(e, st))?;
        }
        Ok(())
    }
}

/// A pool failure of one of stage (or pack) `st`'s dispatches, reported at
/// that stage.
fn stage_error(e: PoolError, st: usize) -> MatrixError {
    let PoolError::WorkerPanicked { slot, message, .. } = e;
    MatrixError::WorkerPanicked {
        slot,
        pack: st,
        message,
    }
}

/// One contiguous phase-1 row range of a sweep.
type GatherFn<'a> = dyn Fn(Range<usize>) + Sync + 'a;
/// Chain task `t` of stage `st` of a sweep.
type ChainFn<'a> = dyn Fn(usize, usize) + Sync + 'a;

/// The stage geometry of one sweep — which rows and how many chain tasks
/// each stage has — read off the structure, its layout in the sweep's
/// direction, and the free functions of `solver::plan`.
#[derive(Clone, Copy)]
struct Stages<'a> {
    s: &'a StsStructure,
    layout: &'a SplitLayout,
    direction: SweepDirection,
}

impl Stages<'_> {
    /// Number of stages (packs).
    fn count(&self) -> usize {
        self.s.num_packs()
    }

    /// All rows of stage `st`.
    fn rows(&self, st: usize) -> Range<usize> {
        stage_rows(self.s, self.direction, st)
    }

    /// The pack stage `st` runs.
    fn pack(&self, st: usize) -> usize {
        stage_pack(self.direction, self.count(), st)
    }

    /// Number of chain tasks of stage `st`.
    fn chain_tasks(&self, st: usize) -> usize {
        self.layout.chain_super_rows(self.pack(st)).len()
    }
}

/// The sequential driver: the stages in order on the calling thread — no
/// pool, no synchronisation, no hooks.
fn drive_sequential(stages: Stages<'_>, gather: &GatherFn<'_>, chain: &ChainFn<'_>) {
    for st in 0..stages.count() {
        gather(stages.rows(st));
        for t in 0..stages.chain_tasks(st) {
            chain(st, t);
        }
    }
}

/// The data of one sweep: the direction's stages and layout with the value
/// slabs at the requested precision, the right-hand sides, and the shared
/// solution.
struct SweepRows<'a, V> {
    solver: &'a ParallelSolver,
    stages: Stages<'a>,
    ext: Slab<'a, V>,
    int: Slab<'a, V>,
    b: &'a [f64],
    x: SharedVec,
    nrhs: usize,
}

impl<V: SlabValue> SweepRows<'_, V> {
    /// Phase 1 over one contiguous row range (a gather chunk).
    fn gather_rows<const W: usize>(&self, rows: Range<usize>) {
        let erp = self.stages.layout.ext_row_ptr();
        let inv_diag = self.stages.layout.inv_diags();
        for i in rows {
            let r = erp[i]..erp[i + 1];
            // SAFETY: solve_into checked x holds n * nrhs slots and the
            // layout's columns are rows of s. Row i is written by exactly
            // one gather chunk; its external columns lie in stages finished
            // before this chunk started — behind the previous stage's
            // barrier (split) or in program order (sequential). See the
            // module docs.
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
        let layout = self.stages.layout;
        let irp = layout.int_row_ptr();
        let inv_diag = layout.inv_diags();
        for &i in layout.chain_rows_of(self.stages.pack(st), t) {
            let i = i as usize;
            let r = irp[i]..irp[i + 1];
            // SAFETY: bounds as in gather_rows. Row i belongs to exactly one
            // chain task; its phase-1 value was published by the phase
            // barrier (or program order); its internal columns stay inside
            // this task's super-row — corrected earlier by this task if they
            // are chain rows, phase-1 values otherwise.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use sts_matrix::{generators, ops, CooMatrix, LowerTriangularCsr};

    const SPLIT_ENGINES: [SolveEngine; 2] = [SolveEngine::Sequential, SolveEngine::Split];
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

    /// The `nrhs` for which `n * nrhs` wraps to 1 (`n` odd): the inverse of
    /// `n` modulo 2^bits, by Newton's iteration. An unchecked length check
    /// accepts a one-entry buffer for it.
    fn wraps_to_one(n: usize) -> usize {
        let v = (0..6).fold(1usize, |v, _| {
            v.wrapping_mul(2usize.wrapping_sub(n.wrapping_mul(v)))
        });
        assert_eq!(n.wrapping_mul(v), 1);
        v
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
                for (b_len, nrhs) in [(4, 1), (9, 0), (10, 2), (1, wraps_to_one(9))] {
                    assert!(
                        matches!(
                            solver.solve_with(&s, &vec![1.0; b_len], &o.with_nrhs(nrhs)),
                            Err(MatrixError::DimensionMismatch(_))
                        ),
                        "{engine:?} {direction:?} accepted b.len() = {b_len}, nrhs = {nrhs}"
                    );
                }
                // solve_into checks the output buffer the same way.
                let mut short = vec![0.0; 3];
                assert!(matches!(
                    solver.solve_into(&s, &[1.0; 9], &mut short, &o),
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
    fn split_sweeps_are_stable_under_repeated_contention() {
        // The chain-heaviest ordering (level sets) re-solved many times into
        // one buffer on an oversubscribed pool: a missing stage or phase
        // barrier would show up as sporadic divergence.
        let a = generators::grid2d_laplacian(24, 24).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Csr3Ls.build(&l, 6).unwrap();
        let solver = ParallelSolver::new(8, Schedule::Guided { min_chunk: 1 });
        for direction in DIRECTIONS {
            let b = manufactured(&s, direction, 0);
            let expected = reference(&s, direction, &b);
            let o = opts(SolveEngine::Split, direction);
            let mut x = vec![0.0; s.n()];
            for round in 0..50 {
                solver.solve_into(&s, &b, &mut x, &o).unwrap();
                assert!(
                    ops::relative_error_inf(&x, &expected) < 1e-12,
                    "{direction:?} split diverged on round {round}"
                );
            }
        }
    }

    #[test]
    fn solve_into_matches_solve_with_across_repeated_solves() {
        let a = generators::grid2d_laplacian(16, 16).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 6).unwrap();
        let solver = ParallelSolver::new(4, Schedule::Guided { min_chunk: 1 });
        let nrhs = 2;
        let bb: Vec<f64> = (0..s.n() * nrhs).map(|k| 1.0 + (k % 3) as f64).collect();
        for direction in DIRECTIONS {
            // One pair of buffers serves every engine, width and precision.
            let mut x = vec![0.0; s.n()];
            let mut xb = vec![0.0; s.n() * nrhs];
            for shift in 0..4 {
                let b: Vec<f64> = (0..s.n()).map(|i| 1.0 + ((i + shift) % 5) as f64).collect();
                for engine in SPLIT_ENGINES {
                    for precision in [PrecisionPolicy::ValuesF64, F32] {
                        let o = opts(engine, direction).with_precision(precision);
                        solver.solve_into(&s, &b, &mut x, &o).unwrap();
                        assert_eq!(x, solver.solve_with(&s, &b, &o).unwrap());
                        let ob = o.with_nrhs(nrhs);
                        solver.solve_into(&s, &bb, &mut xb, &ob).unwrap();
                        assert_eq!(xb, solver.solve_with(&s, &bb, &ob).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn a_panicking_gather_chunk_is_reported_at_its_stage() {
        let a = generators::grid2d_laplacian(12, 12).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        assert!(s.num_packs() > 1, "the fixture needs a second stage");
        let b = vec![1.0; s.n()];
        for threads in [1, 3] {
            let mut solver = ParallelSolver::new(threads, Schedule::Static);
            solver.set_chaos_hook(Some(Arc::new(|_, st| {
                if st == 1 {
                    panic!("injected fault at stage {st}");
                }
            })));
            for direction in DIRECTIONS {
                match solver.solve_with(&s, &b, &opts(SolveEngine::Split, direction)) {
                    Err(MatrixError::WorkerPanicked {
                        slot,
                        pack,
                        message,
                    }) => {
                        assert!(slot < threads);
                        assert_eq!(pack, 1, "{direction:?} at {threads} threads");
                        assert!(message.contains("injected fault"));
                    }
                    other => panic!("expected WorkerPanicked, got {other:?}"),
                }
            }
            // The sequential driver runs no hooks.
            let o = opts(SolveEngine::Sequential, SweepDirection::Forward);
            assert!(solver.solve_with(&s, &b, &o).is_ok());
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
        assert_eq!((a.nrows(), a.ncols()), (143, 143));
        let nrhs = wraps_to_one(143);
        assert!(matches!(
            solver.spmv_batch_into(&a, &[1.0], &mut [0.0], nrhs),
            Err(MatrixError::DimensionMismatch(_))
        ));
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
                    // give the exact same bits at every thread count —
                    // `Pipelined` included, which the split driver answers.
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
