//! Everything random the workloads consume, derived from `--seed`: the
//! program under test receives only these generated inputs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sts_matrix::{ops, CsrMatrix, LowerTriangularCsr};

/// One generator per purpose, so that adding a draw to one stream leaves
/// the others (and the counts that must repeat per seed) untouched.
pub fn stream(seed: u64, purpose: &str) -> StdRng {
    // FNV-1a over the purpose label, mixed with the seed.
    let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    StdRng::seed_from_u64(seed ^ tag)
}

/// A vector with entries uniform in `[-1, 1)`.
pub fn uniform_vector(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// `nrhs` right-hand sides `b = A x*` for seeded solutions `x*`, as columns.
pub fn manufactured_rhs(a: &CsrMatrix, rng: &mut StdRng, nrhs: usize) -> Vec<Vec<f64>> {
    (0..nrhs)
        .map(|_| ops::spmv(a, &uniform_vector(rng, a.nrows())).expect("dimensions match"))
        .collect()
}

/// Columns interleaved as `x[i * nrhs + q]`.
pub fn interleave(columns: &[Vec<f64>]) -> Vec<f64> {
    let nrhs = columns.len();
    let n = columns[0].len();
    let mut out = vec![0.0; n * nrhs];
    for (q, column) in columns.iter().enumerate() {
        for (i, &v) in column.iter().enumerate() {
            out[i * nrhs + q] = v;
        }
    }
    out
}

pub fn column(interleaved: &[f64], nrhs: usize, q: usize) -> Vec<f64> {
    interleaved.iter().skip(q).step_by(nrhs).copied().collect()
}

/// The relative diagonal shift of one value update. Small, so that the
/// updated operator is a genuinely different matrix whose conditioning (and
/// therefore iteration count and cost) stays that of the original.
pub fn diagonal_shift(rng: &mut StdRng) -> f64 {
    rng.gen_range(1.0e-3..2.0e-3)
}

/// `A + delta * diag(A)`: same pattern, still symmetric and diagonally
/// dominant.
pub fn shifted_matrix(a: &CsrMatrix, delta: f64) -> CsrMatrix {
    let mut out = a.clone();
    let rows = a.row_ptr().windows(2).enumerate();
    for (r, entries) in rows {
        let (cols, values) = (a.col_idx(), out.values_mut());
        for k in entries[0]..entries[1] {
            if cols[k] == r {
                values[k] *= 1.0 + delta;
            }
        }
    }
    out
}

/// The triangular counterpart of [`shifted_matrix`]: the diagonal is the
/// last entry of each row of a lower-triangular operand.
pub fn shifted_lower(l: &LowerTriangularCsr, delta: f64) -> LowerTriangularCsr {
    let mut values = l.values().to_vec();
    for r in 0..l.n() {
        values[l.row_ptr()[r + 1] - 1] *= 1.0 + delta;
    }
    let csr = CsrMatrix::from_raw(
        l.n(),
        l.n(),
        l.row_ptr().to_vec(),
        l.col_idx().to_vec(),
        values,
    )
    .expect("same pattern as a valid operand");
    LowerTriangularCsr::from_csr(&csr).expect("a shifted diagonal stays nonzero")
}

/// One request of the served traffic mix. `pattern` indexes the resident
/// patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Warm single right-hand-side `solve`.
    Solve { pattern: usize },
    /// `solve` with `nrhs = 4` in batch mode.
    Batch4 { pattern: usize },
    /// `submit_values` on a resident pattern.
    SubmitValues { pattern: usize },
    /// `submit_pattern` of a pattern the service has not seen, then
    /// `submit_values`, then its first `solve`.
    Cold,
}

/// Ops per schedule block and how many warm solves, batched solves and value
/// updates a block holds beside its one cold sequence: 80 %, 10 %, 8 %, 2 %.
pub const SERVE_BLOCK: usize = 50;
pub const SERVE_BLOCK_MIX: [usize; 3] = [40, 5, 4];
pub const RESIDENT_PATTERNS: usize = 3;

/// How many of `ops` touch resident pattern `p`.
fn uses(ops: &[ServeOp], p: usize) -> usize {
    ops.iter()
        .filter(|op| match op {
            ServeOp::Solve { pattern }
            | ServeOp::Batch4 { pattern }
            | ServeOp::SubmitValues { pattern } => *pattern == p,
            ServeOp::Cold => false,
        })
        .count()
}

/// The op schedule, in blocks of [`SERVE_BLOCK`]. Every block holds the
/// stated mix exactly and spreads each kind evenly over the resident
/// patterns; only the order inside a block is random. Throughput is taken
/// over whole blocks, so two runs that complete different numbers of ops
/// still measure the same mix.
///
/// The cold sequence sits in the middle of its block. A cold pattern enters
/// a cache with one free slot beside the residents and must push out the
/// previous cold pattern, not a resident: that holds when every resident has
/// been used since the previous cold sequence, which the 49 ops on residents
/// between two block middles see to and two adjacent cold sequences would
/// not.
pub fn serve_schedule(seed: u64, blocks: usize) -> Vec<ServeOp> {
    let mut rng = stream(seed, "serve-schedule");
    let [solves, batches, updates] = SERVE_BLOCK_MIX;
    let mut schedule = Vec::with_capacity(blocks * SERVE_BLOCK);
    // Running offsets keep the pattern rotation even across blocks when a
    // kind's count per block is not a multiple of the pattern count.
    let (mut s, mut b, mut u) = (0usize, 0usize, 0usize);
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(SERVE_BLOCK);
        for _ in 0..solves {
            block.push(ServeOp::Solve {
                pattern: s % RESIDENT_PATTERNS,
            });
            s += 1;
        }
        for _ in 0..batches {
            block.push(ServeOp::Batch4 {
                pattern: b % RESIDENT_PATTERNS,
            });
            b += 1;
        }
        for _ in 0..updates {
            block.push(ServeOp::SubmitValues {
                pattern: u % RESIDENT_PATTERNS,
            });
            u += 1;
        }
        // Redrawn (practically never) until both halves use every resident
        // twice: with one request of the other client possibly still in
        // flight, one use might not have reached the service yet.
        loop {
            block.shuffle(&mut rng);
            let (before, after) = block.split_at(SERVE_BLOCK / 2);
            if (0..RESIDENT_PATTERNS).all(|p| uses(before, p) >= 2 && uses(after, p) >= 2) {
                break;
            }
        }
        block.insert(SERVE_BLOCK / 2, ServeOp::Cold);
        schedule.extend(block);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_per_seed_and_differs_across_seeds() {
        assert_eq!(serve_schedule(7, 6), serve_schedule(7, 6));
        assert_ne!(serve_schedule(7, 6), serve_schedule(8, 6));
        // A longer schedule extends a shorter one: a run that gets further
        // replays the same prefix.
        assert_eq!(serve_schedule(7, 6)[..100], serve_schedule(7, 2)[..]);
    }

    #[test]
    fn every_block_holds_the_stated_mix() {
        let schedule = serve_schedule(3, 12);
        assert_eq!(schedule.len(), 12 * SERVE_BLOCK);
        for block in schedule.chunks(SERVE_BLOCK) {
            let count = |f: fn(&ServeOp) -> bool| block.iter().filter(|op| f(op)).count();
            assert_eq!(count(|op| matches!(op, ServeOp::Solve { .. })), 40);
            assert_eq!(count(|op| matches!(op, ServeOp::Batch4 { .. })), 5);
            assert_eq!(count(|op| matches!(op, ServeOp::SubmitValues { .. })), 4);
            assert_eq!(block[SERVE_BLOCK / 2], ServeOp::Cold);
            assert_eq!(count(|op| matches!(op, ServeOp::Cold)), 1);
            // Every resident is used on either side of the cold sequence.
            for half in [&block[..SERVE_BLOCK / 2], &block[SERVE_BLOCK / 2 + 1..]] {
                assert!((0..RESIDENT_PATTERNS).all(|p| uses(half, p) >= 2));
            }
        }
        // 80 / 10 / 8 / 2 percent overall, and warm solves fall evenly on
        // the three resident patterns.
        let solves_on = |p: usize| {
            schedule
                .iter()
                .filter(|op| matches!(op, ServeOp::Solve { pattern } if *pattern == p))
                .count()
        };
        assert_eq!(solves_on(0) + solves_on(1) + solves_on(2), 480);
        assert_eq!(solves_on(0), 160);
        assert_eq!(solves_on(1), 160);
    }

    #[test]
    fn streams_are_independent_and_seeded() {
        let a = uniform_vector(&mut stream(1, "rhs"), 8);
        assert_eq!(a, uniform_vector(&mut stream(1, "rhs"), 8));
        assert_ne!(a, uniform_vector(&mut stream(1, "values"), 8));
        assert_ne!(a, uniform_vector(&mut stream(2, "rhs"), 8));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn shifts_touch_only_the_diagonal() {
        let a = sts_matrix::generators::grid2d_laplacian(4, 3).unwrap();
        let shifted = shifted_matrix(&a, 0.5);
        for (r, c, v) in a.iter() {
            let expect = if r == c { v * 1.5 } else { v };
            assert_eq!(shifted.get(r, c), expect);
        }
        let l = sts_matrix::generators::lower_operand(&a).unwrap();
        let shifted = shifted_lower(&l, 0.5);
        assert_eq!(shifted.col_idx(), l.col_idx());
        for r in 0..l.n() {
            assert_eq!(shifted.diag(r), l.diag(r) * 1.5);
            assert_eq!(shifted.row_off_diag_values(r), l.row_off_diag_values(r));
        }
    }

    #[test]
    fn interleave_round_trips() {
        let cols = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let x = interleave(&cols);
        assert_eq!(x, vec![1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        assert_eq!(column(&x, 3, 1), cols[1]);
    }
}
