//! The one chunk geometry: which rows each worker owns in each stage, and
//! when a chunk may start.
//!
//! Every parallel sweep splits a pack's rows (or, for the factorization, its
//! super-rows) into `min(workers, len)` contiguous static chunks — chunk `c`
//! is owned by worker `c` — and lets a chunk start once the stages its
//! external reads target are done. This module is the only place that
//! arithmetic is written: `chunk_range` is the formula, [`PipelinePlan`]
//! applies it to a solve sweep and `FactorChunks` to `parallel_ic0`. The
//! kernels execute those ranges and the schedule verifier
//! ([`crate::verify`]) reads the very same objects, so what is proven is the
//! schedule that runs.

use std::ops::Range;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use sts_matrix::MatrixError;
use sts_numa::EpochGate;

use crate::csrk::{Result, StsStructure};
use crate::options::SweepDirection;
use crate::split::SplitLayout;

/// Static chunk `c` of `nchunks` over the `len` items starting at `start`.
#[inline]
pub(crate) fn chunk_range(start: usize, len: usize, nchunks: usize, c: usize) -> Range<usize> {
    start + c * len / nchunks..start + (c + 1) * len / nchunks
}

/// How many static chunks `workers` workers split `len` items into.
#[inline]
pub(crate) fn chunk_count(workers: usize, len: usize) -> usize {
    workers.min(len)
}

/// The reusable per-structure scheduling state of the sweep engines: the
/// stage → pack binding (packs in forward or reverse order), each stage's
/// static gather chunks with their readiness, the chain-task counts, and —
/// for the pipelined engine — the epoch gate and phase-2 ticket counters.
/// Built once per (structure, direction, thread count) by
/// [`ParallelSolver::plan`](super::parallel::ParallelSolver::plan), rewound —
/// never reallocated — by every pipelined
/// [`solve_into`](super::parallel::ParallelSolver::solve_into), so repeated
/// solves on one structure are allocation-free. `solve_into` rejects a plan
/// that was built for anything else.
#[derive(Debug)]
pub struct PipelinePlan {
    direction: SweepDirection,
    /// Dimension of the structure the plan was built for.
    n: usize,
    /// Worker count the chunks were cut for.
    threads: usize,
    /// The rows of each stage's pack (contiguous in the reordered
    /// numbering).
    stage_rows: Vec<Range<usize>>,
    /// Chain tasks per stage.
    ntasks: Vec<usize>,
    /// Stage pointer into `chunk_rows` / `chunk_dep` (`num_stages + 1`
    /// entries).
    chunk_ptr: Vec<usize>,
    /// The row range of every gather chunk.
    chunk_rows: Vec<Range<usize>>,
    /// Per-chunk readiness in the plan's stage numbering: the chunk may run
    /// once stages `0..dep` are done. Shared with the structure, which
    /// remembers it per (direction, workers).
    chunk_dep: Arc<[u32]>,
    /// The resettable epoch gate coordinating the stages.
    pub(super) gate: EpochGate,
    /// Phase-2 ticket counters, one per stage.
    pub(super) tickets: Vec<AtomicUsize>,
}

impl PipelinePlan {
    /// Cuts the sweep of `s` in `direction` into chunks for `workers`
    /// workers, forcing the direction's lazy layout. The chunk ranges are
    /// O(packs × workers) arithmetic; their readiness — one O(n) pass over
    /// the layout's metadata — is derived by the first build for this
    /// (direction, workers) and remembered on the structure next to that
    /// layout, so every later build, by any caller, skips the pass. No pool
    /// is involved, so `workers` may be `usize::MAX` for row-granularity
    /// chunks.
    pub fn build(s: &StsStructure, workers: usize, direction: SweepDirection) -> PipelinePlan {
        let workers = workers.max(1);
        let layout = s.layout(direction);
        let num_packs = s.num_packs();
        let mut stage_rows = Vec::with_capacity(num_packs);
        let mut ntasks = Vec::with_capacity(num_packs);
        let mut counts = Vec::with_capacity(num_packs);
        let mut chunk_ptr = Vec::with_capacity(num_packs + 1);
        let mut chunk_rows = Vec::new();
        chunk_ptr.push(0usize);
        for st in 0..num_packs {
            let p = stage_pack(direction, num_packs, st);
            let rows = s.pack_rows(p);
            let nchunks = chunk_count(workers, rows.len());
            chunk_rows
                .extend((0..nchunks).map(|c| chunk_range(rows.start, rows.len(), nchunks, c)));
            chunk_ptr.push(chunk_rows.len());
            let nt = layout.chain_super_rows(p).len();
            counts.push((nchunks, nt));
            ntasks.push(nt);
            stage_rows.push(rows);
        }
        let chunk_dep = s.chunk_readiness(direction, workers, || derive_deps(layout, &chunk_rows));
        PipelinePlan {
            direction,
            n: s.n(),
            threads: workers,
            stage_rows,
            ntasks,
            chunk_ptr,
            chunk_rows,
            chunk_dep,
            gate: EpochGate::new(&counts),
            tickets: (0..num_packs).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The sweep direction the plan was built for.
    pub fn direction(&self) -> SweepDirection {
        self.direction
    }

    /// Number of stages (packs).
    pub fn num_stages(&self) -> usize {
        self.stage_rows.len()
    }

    /// How many pipelined solves have rewound this plan (the gate's
    /// generation stamp).
    pub fn generation(&self) -> usize {
        self.gate.generation()
    }

    /// The pack stage `st` runs: `st` itself for forward plans,
    /// `num_stages − 1 − st` for transpose plans.
    pub fn pack_of_stage(&self, st: usize) -> usize {
        stage_pack(self.direction, self.num_stages(), st)
    }

    /// All rows of stage `st`.
    pub fn stage_rows(&self, st: usize) -> Range<usize> {
        self.stage_rows[st].clone()
    }

    /// The gather chunks of stage `st`; chunk `c` is owned by worker `c`.
    pub fn stage_chunks(&self, st: usize) -> &[Range<usize>] {
        &self.chunk_rows[self.chunk_ptr[st]..self.chunk_ptr[st + 1]]
    }

    /// Readiness of each chunk of [`PipelinePlan::stage_chunks`]: chunk `c`
    /// may start once stages `0..stage_deps(st)[c]` are done.
    pub fn stage_deps(&self, st: usize) -> &[u32] {
        &self.chunk_dep[self.chunk_ptr[st]..self.chunk_ptr[st + 1]]
    }

    /// Number of chain tasks of stage `st`.
    pub fn num_chain_tasks(&self, st: usize) -> usize {
        self.ntasks[st]
    }

    /// Rewinds the gate and the ticket counters for the next pipelined
    /// solve. `&mut` exclusivity makes the plain stores race-free.
    pub(super) fn rewind(&mut self) {
        self.gate.reset();
        for t in &mut self.tickets {
            *t.get_mut() = 0;
        }
    }

    /// Checks that the plan was built for this structure, direction and
    /// thread count. Dimensions, stage → row-range bindings and chain-task
    /// counts are verified on every call (O(num_packs)), because a stale
    /// plan would hand the gather chunks row ranges that race the
    /// structure's own chain tasks through the shared solution vector; the
    /// per-chunk ranges and readiness — a pure function of the (already
    /// matched) pack boundaries and the operand's pattern — are re-derived
    /// from the layout, not taken from the structure's remembered copy, and
    /// compared in debug builds.
    pub(super) fn check(
        &self,
        s: &StsStructure,
        threads: usize,
        direction: SweepDirection,
    ) -> Result<()> {
        let layout = s.layout(direction);
        let consistent = self.direction == direction
            && self.n == s.n()
            && self.num_stages() == s.num_packs()
            && self.threads == threads
            && (0..self.num_stages()).all(|st| {
                let p = self.pack_of_stage(st);
                self.stage_rows[st] == s.pack_rows(p)
                    && self.ntasks[st] == layout.chain_super_rows(p).len()
            });
        if !consistent {
            return Err(MatrixError::InvalidParameter(format!(
                "pipeline plan mismatch: plan is {} over {} stages for n = {} on {} threads and \
                 must have been built from this exact structure, kernel needs {} over {} stages \
                 for n = {} on {} threads",
                self.direction.as_str(),
                self.num_stages(),
                self.n,
                self.threads,
                direction.as_str(),
                s.num_packs(),
                s.n(),
                threads,
            )));
        }
        #[cfg(debug_assertions)]
        {
            let fresh = PipelinePlan::build(s, threads, direction);
            debug_assert!(
                fresh.chunk_rows == self.chunk_rows
                    && derive_deps(layout, &fresh.chunk_rows) == *self.chunk_dep,
                "plan chunk metadata is stale for this structure"
            );
        }
        Ok(())
    }
}

/// Readiness of each of `chunks` on `layout`: the O(n) pass a plan build
/// makes once per (structure, direction, workers).
fn derive_deps(layout: &SplitLayout, chunks: &[Range<usize>]) -> Vec<u32> {
    chunks
        .iter()
        .map(|rows| layout.range_ext_dep(rows.clone()))
        .collect()
}

/// Stage → pack binding of a sweep over `num_packs` packs.
pub(super) fn stage_pack(direction: SweepDirection, num_packs: usize, st: usize) -> usize {
    match direction {
        SweepDirection::Forward => st,
        SweepDirection::Transpose => num_packs - 1 - st,
    }
}

/// The chunks of one `parallel_ic0` sweep: per pack, its super-rows split
/// into static chunks (so a chunk never cuts a super-row and same-super-row
/// reads stay in one worker's program order), with each chunk's readiness in
/// pack numbering.
#[derive(Debug)]
pub(crate) struct FactorChunks {
    /// Pack pointer into `rows` / `dep` (`num_packs + 1` entries).
    chunk_ptr: Vec<usize>,
    rows: Vec<Range<usize>>,
    dep: Vec<u32>,
}

impl FactorChunks {
    /// Cuts the factor sweep of `s` for `workers` workers (forces the
    /// forward split layout for its readiness metadata).
    pub(crate) fn build(s: &StsStructure, workers: usize) -> FactorChunks {
        let workers = workers.max(1);
        let split = s.split();
        let index2 = s.index2();
        let mut chunk_ptr = Vec::with_capacity(s.num_packs() + 1);
        let mut rows = Vec::new();
        let mut dep = Vec::new();
        chunk_ptr.push(0usize);
        for p in 0..s.num_packs() {
            let srs = s.pack_super_rows(p);
            let nchunks = chunk_count(workers, srs.len());
            for c in 0..nchunks {
                let chunk = chunk_range(srs.start, srs.len(), nchunks, c);
                let chunk_rows = index2[chunk.start]..index2[chunk.end];
                dep.push(split.range_ext_dep(chunk_rows.clone()));
                rows.push(chunk_rows);
            }
            chunk_ptr.push(rows.len());
        }
        FactorChunks {
            chunk_ptr,
            rows,
            dep,
        }
    }

    /// The row ranges of pack `p`'s chunks; chunk `c` is owned by worker `c`.
    pub(crate) fn pack_chunks(&self, p: usize) -> &[Range<usize>] {
        &self.rows[self.chunk_ptr[p]..self.chunk_ptr[p + 1]]
    }

    /// Readiness of each chunk of [`FactorChunks::pack_chunks`]: the packs
    /// `0..dep` must be fully factored first.
    pub(crate) fn pack_deps(&self, p: usize) -> &[u32] {
        &self.dep[self.chunk_ptr[p]..self.chunk_ptr[p + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use sts_matrix::{generators, CooMatrix, LowerTriangularCsr};

    const DIRECTIONS: [SweepDirection; 2] = [SweepDirection::Forward, SweepDirection::Transpose];

    fn structure() -> StsStructure {
        let a = generators::grid2d_9point(14, 11).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        Method::Sts3.build(&l, 4).unwrap()
    }

    /// Everything a driver or the verifier reads from a plan's geometry.
    #[allow(clippy::type_complexity)]
    fn geometry(plan: &PipelinePlan) -> Vec<(Vec<Range<usize>>, Vec<u32>, usize)> {
        (0..plan.num_stages())
            .map(|st| {
                (
                    plan.stage_chunks(st).to_vec(),
                    plan.stage_deps(st).to_vec(),
                    plan.num_chain_tasks(st),
                )
            })
            .collect()
    }

    #[test]
    fn a_plan_cut_from_remembered_readiness_equals_one_cut_from_scratch() {
        let untouched = structure();
        let warm = untouched.clone();
        for threads in [1usize, 2, 3, 8] {
            for direction in DIRECTIONS {
                let first = PipelinePlan::build(&warm, threads, direction);
                let again = PipelinePlan::build(&warm, threads, direction);
                assert!(
                    Arc::ptr_eq(&first.chunk_dep, &again.chunk_dep),
                    "the second build re-derived readiness at {threads} threads"
                );
                let scratch = PipelinePlan::build(&untouched.clone(), threads, direction);
                assert!(!Arc::ptr_eq(&scratch.chunk_dep, &again.chunk_dep));
                assert_eq!(geometry(&again), geometry(&scratch));
                // The re-derivation `check` makes in debug builds agrees.
                again.check(&warm, threads, direction).unwrap();
            }
        }
    }

    #[test]
    fn each_thread_count_and_direction_remembers_its_own_readiness() {
        let s = structure();
        let widest = (0..s.num_packs())
            .map(|p| s.pack_rows(p).len())
            .max()
            .unwrap();
        assert!(widest >= 3, "the fixture needs a pack that 3 workers split");
        for direction in DIRECTIONS {
            let two = PipelinePlan::build(&s, 2, direction);
            let three = PipelinePlan::build(&s, 3, direction);
            assert!(three.chunk_dep.len() > two.chunk_dep.len());
            assert_eq!(
                geometry(&three),
                geometry(&PipelinePlan::build(&structure(), 3, direction))
            );
            // Asking for two again still finds two's.
            let two_again = PipelinePlan::build(&s, 2, direction);
            assert!(Arc::ptr_eq(&two.chunk_dep, &two_again.chunk_dep));
        }
        let forward = PipelinePlan::build(&s, 2, SweepDirection::Forward);
        let transpose = PipelinePlan::build(&s, 2, SweepDirection::Transpose);
        assert!(!Arc::ptr_eq(&forward.chunk_dep, &transpose.chunk_dep));
    }

    #[test]
    fn with_operand_starts_without_the_donors_readiness() {
        let s = structure();
        let donor = PipelinePlan::build(&s, 2, SweepDirection::Forward);
        assert!(donor.chunk_dep.iter().any(|&d| d > 0));
        // A diagonal operand fits any hierarchy and reads nothing, so every
        // chunk of it is ready at once — unlike the donor's.
        let mut diagonal = CooMatrix::new(s.n(), s.n());
        for i in 0..s.n() {
            diagonal.push(i, i, 2.0).unwrap();
        }
        let rebound = s
            .with_operand(LowerTriangularCsr::from_csr(&diagonal.to_csr()).unwrap())
            .unwrap();
        let plan = PipelinePlan::build(&rebound, 2, SweepDirection::Forward);
        assert_eq!(plan.chunk_dep.len(), donor.chunk_dep.len());
        assert!(plan.chunk_dep.iter().all(|&d| d == 0));
    }
}
