//! Extraction of [`ScheduleSpec`]s from a structure's split layouts, and
//! the [`StsStructure::verify_schedule`] front door.
//!
//! The pack-parallel kernels are race-free only if the statically
//! precomputed readiness metadata ([`SplitLayout::ext_dep`] and the
//! transpose layout's reverse-stage equivalent) covers everything the tasks
//! actually read. This module makes that checkable: it rebuilds every
//! task's **exact** read/write footprint — phase-1 gather chunks (reads:
//! external slab columns, i.e. the `x` slots of other packs; writes: the
//! chunk's own partial rows), phase-2 chain tickets (reads: internal slab
//! columns plus the row's own partial; writes: the chain rows) and
//! `parallel_ic0` factor chunks (reads: the rows named by each row's
//! strictly-lower columns; writes: the row) — together with the
//! happens-before edges a chunk or task needs (readiness from
//! [`SplitLayout::range_ext_dep`], chain tasks after their stage's phase 1,
//! program order), and hands the model to the dependency-free checker in
//! [`sts_verify`].
//!
//! Chunk boundaries are not re-derived here: [`solve_spec`] cuts them with
//! the same `solver::plan` functions the split driver calls, and
//! [`factor_spec`] reads the `FactorChunks` `parallel_ic0` runs, so the
//! proof is about the schedule that runs. Passing `threads = usize::MAX`
//! yields row- (super-row-) granularity chunks — the sharpest check, since
//! coarser chunks take the `max` of their rows' readiness and can only
//! over-synchronise.
//!
//! The verified solve model is the **dependency-minimal** schedule: each
//! chunk waits only for the stages its external reads target, not for the
//! whole previous stage. The split driver runs the same tasks with full
//! barriers between phases and stages (strictly more ordering), so the
//! proof covers it; the dynamic `race-shadow` cross-check (see
//! [`sts_verify::replay`]) validates the footprints against what it touches.
//!
//! Under `debug_assertions`, the first build of each lazy layout re-runs
//! the corresponding checks ([`StsStructure::split`] /
//! [`StsStructure::transpose_split`]), so every structure any debug test
//! solves with is verified race- and deadlock-free at row granularity.

use sts_verify::{
    ChainSpec, ChunkSpec, RowFootprint, ScheduleProof, ScheduleSpec, ScheduleViolation, StageSpec,
};

use crate::csrk::StsStructure;
use crate::options::SweepDirection;
use crate::solver::plan::{chunk_count, chunk_range, stage_pack, stage_rows, FactorChunks};
#[allow(unused_imports)] // doc links
use crate::split::SplitLayout;

/// Thread counts [`StsStructure::verify_schedule`] sweeps: the chunk
/// granularities CI exercises, plus `usize::MAX` for the row-granularity
/// bound.
pub const VERIFY_THREAD_SWEEP: [usize; 5] = [1, 2, 4, 8, usize::MAX];

/// Builds the static schedule model of one solve sweep at the given worker
/// count and direction, each chunk with its dependency-minimal readiness.
/// `threads = usize::MAX` gives row-granularity chunks (the sharpest
/// readiness check).
pub fn solve_spec(s: &StsStructure, threads: usize, direction: SweepDirection) -> ScheduleSpec {
    let layout = s.layout(direction);
    let footprint = |i: usize, cols: &[u32]| RowFootprint {
        row: i,
        reads: cols.iter().map(|&j| j as usize).collect(),
    };
    let stages = (0..s.num_packs())
        .map(|st| {
            let pack = stage_pack(direction, s.num_packs(), st);
            let rows = stage_rows(s, direction, st);
            let nchunks = chunk_count(threads, rows.len());
            let chunks = (0..nchunks)
                .map(|c| {
                    let chunk = chunk_range(rows.start, rows.len(), nchunks, c);
                    ChunkSpec {
                        dep: layout.range_ext_dep(chunk.clone()) as usize,
                        rows: chunk.map(|i| footprint(i, layout.ext_row(i).0)).collect(),
                        publishes: true,
                    }
                })
                .collect();
            let chains = (0..layout.chain_super_rows(pack).len())
                .map(|t| ChainSpec {
                    claims_after_drain: true,
                    rows: layout
                        .chain_rows_of(pack, t)
                        .iter()
                        .map(|&i| footprint(i as usize, layout.int_row(i as usize).0))
                        .collect(),
                })
                .collect();
            StageSpec {
                pack,
                chunks,
                chains,
            }
        })
        .collect();
    ScheduleSpec {
        locations: s.n(),
        stages,
    }
}

/// Builds the static schedule model of one `parallel_ic0` sweep: per pack,
/// the factor kernel's super-row-aligned chunks, whose rows read the rows
/// named by their strictly-lower columns; no phase 2.
pub fn factor_spec(s: &StsStructure, threads: usize) -> ScheduleSpec {
    let chunks = FactorChunks::build(s, threads);
    let l = s.lower();
    let stages = (0..s.num_packs())
        .map(|p| StageSpec {
            pack: p,
            chunks: chunks
                .pack_chunks(p)
                .iter()
                .zip(chunks.pack_deps(p))
                .map(|(rows, &dep)| ChunkSpec {
                    dep: dep as usize,
                    rows: rows
                        .clone()
                        .map(|i| RowFootprint {
                            row: i,
                            reads: l.row_off_diag_cols(i).to_vec(),
                        })
                        .collect(),
                    publishes: true,
                })
                .collect(),
            chains: Vec::new(),
        })
        .collect();
    ScheduleSpec {
        locations: s.n(),
        stages,
    }
}

impl StsStructure {
    /// Statically verifies the full pack schedule: both sweep directions and
    /// the factor sweep, across the worker counts of
    /// [`VERIFY_THREAD_SWEEP`]. Returns the merged [`ScheduleProof`] or the
    /// first [`ScheduleViolation`] with `(pack, phase, row, missing edge)`
    /// detail.
    ///
    /// Forces both lazy split layouts (they *are* the schedule being
    /// verified).
    pub fn verify_schedule(&self) -> Result<ScheduleProof, ScheduleViolation> {
        let mut proof = ScheduleProof::default();
        for &threads in &VERIFY_THREAD_SWEEP {
            for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
                proof.merge(&self.verify_schedule_at(threads, direction)?);
            }
            proof.merge(&self.verify_factor_schedule(threads)?);
        }
        Ok(proof)
    }

    /// Verifies one solve schedule at a specific worker count and direction
    /// (`threads = usize::MAX` checks at row granularity).
    pub fn verify_schedule_at(
        &self,
        threads: usize,
        direction: SweepDirection,
    ) -> Result<ScheduleProof, ScheduleViolation> {
        sts_verify::verify(&solve_spec(self, threads, direction))
    }

    /// Verifies the `parallel_ic0` factor schedule at a specific worker
    /// count.
    pub fn verify_factor_schedule(
        &self,
        threads: usize,
    ) -> Result<ScheduleProof, ScheduleViolation> {
        sts_verify::verify(&factor_spec(self, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Method;
    use sts_matrix::generators;

    fn structure() -> StsStructure {
        let l = generators::random_lower_triangular(80, 3.0, 7).unwrap();
        Method::Sts3.build(&l, 8).unwrap()
    }

    #[test]
    fn every_method_schedule_verifies() {
        let l = generators::random_lower_triangular(60, 2.5, 11).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            let proof = s.verify_schedule().unwrap();
            assert!(proof.chunks > 0);
            assert_eq!(proof.locations, s.n() * proof.specs);
        }
    }

    #[test]
    fn dropping_a_dependency_is_flagged_with_its_exact_row() {
        let s = structure();
        let mut spec = solve_spec(&s, usize::MAX, SweepDirection::Forward);
        // Find the first chunk with a real dependency; at row granularity
        // its dep is the row's own ext_dep, achieved by an actual read.
        let (st, c) = spec
            .stages
            .iter()
            .enumerate()
            .find_map(|(st, stage)| stage.chunks.iter().position(|c| c.dep > 0).map(|c| (st, c)))
            .expect("some chunk depends on an earlier pack");
        let row = spec.stages[st].chunks[c].rows[0].row;
        let pack = spec.stages[st].pack;
        assert!(sts_verify::mutate::drop_dependency(&mut spec, st, c));
        match sts_verify::verify(&spec) {
            Err(ScheduleViolation::ReadRace {
                pack: p, row: r, ..
            }) => {
                assert_eq!((p, r), (pack, row));
            }
            other => panic!("expected a ReadRace at (pack {pack}, row {row}), got {other:?}"),
        }
    }

    #[test]
    fn factor_spec_verifies_and_counts_every_row() {
        let s = structure();
        let spec = factor_spec(&s, 4);
        let rows: usize = spec
            .stages
            .iter()
            .flat_map(|st| &st.chunks)
            .map(|c| c.rows.len())
            .sum();
        assert_eq!(rows, s.n());
        sts_verify::verify(&spec).unwrap();
    }
}
