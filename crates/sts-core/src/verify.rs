//! Extraction of [`ScheduleSpec`]s from a structure, and the
//! [`StsStructure::verify_schedule`] front door.
//!
//! A spec is the list of `parallel_for` dispatches a kernel issues, each
//! task with the exact read/write footprint of its rows in program order;
//! [`sts_verify`] checks that every access is ordered by a dispatch's
//! barrier or by program order. Two drivers run every parallel kernel:
//!
//! * the **split sweep** ([`solve_spec`]): per stage, one gather dispatch of
//!   static chunks (reads: the external slab columns, i.e. `x` slots of
//!   earlier stages; writes: the chunk's rows), then — when the stage's
//!   pack has chain work — one chain dispatch of one task per chain
//!   super-row (reads: the row's own phase-1 partial, then its internal
//!   slab columns; writes: the chain rows, in layout order);
//! * **Algorithm 1's super-row loop** ([`super_row_spec`]), which runs both
//!   the unsplit [`ParallelSolver::solve`] and
//!   [`ParallelSolver::parallel_ic0`]: per pack, one dispatch of one task per
//!   super-row, whose rows read the rows named by their strictly-lower
//!   columns. It reads only the structure's hierarchy and operand, so
//!   verifying it builds no split layout.
//!
//! Chunk boundaries are not re-derived here: [`solve_spec`] cuts them with
//! the same `solver::plan` functions the split driver calls, so the proof is
//! about the schedule that runs. `threads = usize::MAX` gives one task per
//! row, the finest cut. The super-row loop schedules its tasks dynamically,
//! but a task is always one super-row run in program order, so the spec
//! does not depend on the worker count. The dynamic `race-shadow`
//! cross-check (see [`sts_verify::replay`]) validates the footprints
//! against what the kernels touch.
//!
//! Under `debug_assertions`, the first build of each lazy sweep layout of
//! a pattern re-runs the corresponding checks ([`StsStructure::split`] /
//! [`StsStructure::transpose_split`]), so every pattern any debug test
//! solves with is verified at row granularity. The schedule is a function
//! of the pattern and the hierarchy alone, so the structures that share a
//! pattern's layouts share its verification too.
//!
//! [`ParallelSolver::solve`]: crate::ParallelSolver::solve
//! [`ParallelSolver::parallel_ic0`]: crate::ParallelSolver::parallel_ic0

use sts_verify::{RowFootprint, ScheduleProof, ScheduleSpec, ScheduleViolation, Task, TaskKind};

use crate::csrk::StsStructure;
use crate::options::SweepDirection;
use crate::solver::plan::{chunk_count, chunk_range, stage_pack, stage_rows};

/// Thread counts [`StsStructure::verify_schedule`] sweeps: the chunk
/// granularities CI exercises, plus `usize::MAX` for one task per row.
pub const VERIFY_THREAD_SWEEP: [usize; 5] = [1, 2, 4, 8, usize::MAX];

/// Builds the dispatches of one split sweep at the given worker count and
/// direction: per stage a gather dispatch, then a chain dispatch when the
/// stage has chain tasks. `threads = usize::MAX` gives one gather task per
/// row.
pub fn solve_spec(s: &StsStructure, threads: usize, direction: SweepDirection) -> ScheduleSpec {
    let layout = s.layout(direction);
    let cols = |c: &[u32]| c.iter().map(|&j| j as usize).collect::<Vec<_>>();
    let mut dispatches = Vec::with_capacity(2 * s.num_packs());
    for st in 0..s.num_packs() {
        let pack = stage_pack(direction, s.num_packs(), st);
        let rows = stage_rows(s, direction, st);
        let nchunks = chunk_count(threads, rows.len());
        dispatches.push(
            (0..nchunks)
                .map(|c| Task {
                    pack,
                    kind: TaskKind::Gather,
                    rows: chunk_range(rows.start, rows.len(), nchunks, c)
                        .map(|i| RowFootprint {
                            row: i,
                            reads: cols(layout.ext_row(i).0),
                        })
                        .collect(),
                })
                .collect(),
        );
        let chains: Vec<Task> = (0..layout.chain_super_rows(pack).len())
            .map(|t| Task {
                pack,
                kind: TaskKind::Chain,
                rows: layout
                    .chain_rows_of(pack, t)
                    .iter()
                    .map(|&i| {
                        let i = i as usize;
                        let mut reads = vec![i];
                        reads.extend(cols(layout.int_row(i).0));
                        RowFootprint { row: i, reads }
                    })
                    .collect(),
            })
            .collect();
        if !chains.is_empty() {
            dispatches.push(chains);
        }
    }
    ScheduleSpec {
        locations: s.n(),
        dispatches,
    }
}

/// Builds the dispatches of Algorithm 1's super-row loop: per pack, one task
/// per super-row, whose rows read the rows named by their strictly-lower
/// columns.
pub fn super_row_spec(s: &StsStructure) -> ScheduleSpec {
    let l = s.lower();
    let dispatches = (0..s.num_packs())
        .map(|p| {
            s.pack_super_rows(p)
                .map(|sr| Task {
                    pack: p,
                    kind: TaskKind::Gather,
                    rows: s
                        .super_row_rows(sr)
                        .map(|i| RowFootprint {
                            row: i,
                            reads: l.row_off_diag_cols(i).to_vec(),
                        })
                        .collect(),
                })
                .collect()
        })
        .collect();
    ScheduleSpec {
        locations: s.n(),
        dispatches,
    }
}

impl StsStructure {
    /// Statically verifies every parallel schedule: both split-sweep
    /// directions across the worker counts of [`VERIFY_THREAD_SWEEP`], and
    /// the super-row loop. Returns the merged [`ScheduleProof`] or the first
    /// [`ScheduleViolation`] with its `(pack, phase, row, location)` and
    /// writer.
    ///
    /// Forces both lazy split layouts (they *are* the split sweep's
    /// schedule).
    pub fn verify_schedule(&self) -> Result<ScheduleProof, ScheduleViolation> {
        let mut proof = ScheduleProof::default();
        for &threads in &VERIFY_THREAD_SWEEP {
            for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
                proof.merge(&self.verify_schedule_at(threads, direction)?);
            }
        }
        proof.merge(&self.verify_factor_schedule()?);
        Ok(proof)
    }

    /// Verifies one split-sweep schedule at a specific worker count and
    /// direction (`threads = usize::MAX` checks at row granularity).
    pub fn verify_schedule_at(
        &self,
        threads: usize,
        direction: SweepDirection,
    ) -> Result<ScheduleProof, ScheduleViolation> {
        sts_verify::verify(&solve_spec(self, threads, direction))
    }

    /// Verifies the super-row loop's schedule (the unsplit solve and the
    /// IC(0) build). Builds no split layout.
    pub fn verify_factor_schedule(&self) -> Result<ScheduleProof, ScheduleViolation> {
        sts_verify::verify(&super_row_spec(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use sts_matrix::generators;

    #[test]
    fn every_method_schedule_verifies() {
        let l = generators::random_lower_triangular(60, 2.5, 11).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            let proof = s.verify_schedule().unwrap();
            assert!(proof.tasks > 0);
            assert_eq!(proof.locations, s.n() * proof.specs);
        }
    }

    #[test]
    fn specs_issue_the_drivers_dispatches() {
        let l = generators::random_lower_triangular(80, 3.0, 7).unwrap();
        let s = Method::Sts3.build(&l, 8).unwrap();
        let chain_stages = (0..s.num_packs())
            .filter(|&p| !s.split().chain_super_rows(p).is_empty())
            .count();
        assert!(chain_stages > 0);
        let spec = solve_spec(&s, 2, SweepDirection::Forward);
        assert_eq!(spec.dispatches.len(), s.num_packs() + chain_stages);
        let spec = super_row_spec(&s);
        assert_eq!(spec.dispatches.len(), s.num_packs());
        assert_eq!(spec.num_tasks(), s.num_super_rows());
        let rows: usize = spec.dispatches.iter().flatten().map(|t| t.rows.len()).sum();
        assert_eq!(rows, s.n());
    }
}
