//! The one chunk geometry: which rows each worker owns in each stage of a
//! split sweep.
//!
//! The split driver cuts a stage's rows into `min(workers, len)` contiguous
//! static chunks — chunk `c` is owned by worker `c`. This module is the only
//! place that arithmetic is written: `chunk_count` and `chunk_range` are the
//! formula, and `stage_pack` and `stage_rows` bind a sweep's stages to
//! packs. The drivers and the schedule verifier ([`crate::verify`]) call the
//! very same functions, so what is proven is the schedule that runs.

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
