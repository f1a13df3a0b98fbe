//! The one chunk geometry: which rows each worker owns in each stage.
//!
//! Every parallel sweep splits a pack's rows (or, for the factorization, its
//! super-rows) into `min(workers, len)` contiguous static chunks — chunk `c`
//! is owned by worker `c`. This module is the only place that arithmetic is
//! written: `chunk_count` and `chunk_range` are the formula, `stage_pack` and
//! `stage_rows` bind a sweep's stages to packs, and `FactorChunks` applies
//! the formula to `parallel_ic0` together with each chunk's readiness. The
//! drivers and the schedule verifier ([`crate::verify`]) call the very same
//! functions, so what is proven is the schedule that runs.

use std::ops::Range;

use crate::csrk::StsStructure;
use crate::options::SweepDirection;

/// Static chunk `c` of `nchunks` over the `len` items starting at `start`.
#[inline]
pub(crate) fn chunk_range(start: usize, len: usize, nchunks: usize, c: usize) -> Range<usize> {
    start + c * len / nchunks..start + (c + 1) * len / nchunks
}

/// How many static chunks `workers` workers split `len` items into.
#[inline]
pub(crate) fn chunk_count(workers: usize, len: usize) -> usize {
    workers.max(1).min(len)
}

/// Stage → pack binding of a sweep over `num_packs` packs: packs in order
/// for forward sweeps, in reverse order for transpose sweeps.
#[inline]
pub(crate) fn stage_pack(direction: SweepDirection, num_packs: usize, st: usize) -> usize {
    match direction {
        SweepDirection::Forward => st,
        SweepDirection::Transpose => num_packs - 1 - st,
    }
}

/// All rows of stage `st` of a sweep of `s` in `direction` (contiguous in the
/// reordered numbering).
#[inline]
pub(crate) fn stage_rows(s: &StsStructure, direction: SweepDirection, st: usize) -> Range<usize> {
    s.pack_rows(stage_pack(direction, s.num_packs(), st))
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
    use sts_matrix::generators;

    #[test]
    fn stage_chunks_tile_every_stage_in_both_directions() {
        let a = generators::grid2d_9point(14, 11).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 4).unwrap();
        for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
            let mut covered = vec![0usize; s.n()];
            for st in 0..s.num_packs() {
                let rows = stage_rows(&s, direction, st);
                for workers in [1usize, 3, usize::MAX] {
                    let nchunks = chunk_count(workers, rows.len());
                    assert!(nchunks <= rows.len() && nchunks <= workers);
                    let mut next = rows.start;
                    for c in 0..nchunks {
                        let chunk = chunk_range(rows.start, rows.len(), nchunks, c);
                        assert_eq!(chunk.start, next, "chunks must tile stage {st}");
                        assert!(!chunk.is_empty());
                        next = chunk.end;
                    }
                    assert_eq!(next, rows.end);
                }
                for i in rows {
                    covered[i] += 1;
                }
            }
            assert!(covered.iter().all(|&k| k == 1), "{direction:?}");
        }
    }
}
