//! The vector kernels of a Krylov iteration, on the solver's pool.
//!
//! Besides its sweep pair, a preconditioned CG iteration makes four passes
//! over its vectors. Each is one `parallel_for` here, over fixed blocks of
//! [`BLOCK_ROWS`] rows under the static schedule:
//!
//! * [`ParallelSolver::dots`] — `u·v` per lane (`r·z`, and `r·r` at entry);
//! * [`ParallelSolver::update_direction`] — `p = z + β∘p`;
//! * [`ParallelSolver::spmv_dots`] — `A·p` together with `p·Ap`, `A` read
//!   from the structure's symmetric layout ([`StsStructure::symmetric`]);
//! * [`ParallelSolver::cg_step`] — `x += α∘p` and `r −= α∘Ap`, together
//!   with `r·r`.
//!
//! Vectors hold `nrhs` lanes interleaved (`v[i * nrhs + q]`); a lane's
//! scalars (`α`, `β`) are per lane, so one kernel serves the scalar driver
//! at `nrhs = 1` and every lane of a lockstep batch. The plain products
//! [`ParallelSolver::spmv_into`] and [`ParallelSolver::spmv_batch_into`] on a
//! [`CsrMatrix`] live here too, and share their row body with `spmv_dots`:
//! the body is generic over the column index type, `usize` for a
//! `CsrMatrix`, `u32` for the symmetric layout.
//!
//! # The reduction order
//!
//! Every sum is one blocked reduction whose order depends only on the
//! vector's length, never on the thread count or the schedule:
//!
//! * rows are cut into blocks of [`BLOCK_ROWS`] rows (the last may be
//!   short);
//! * within a block, lane `q` adds row `i`'s term to sub-sum `i mod 4`; the
//!   sub-sums start at `-0.0`, the additive identity, and combine as
//!   `(s0 + s1) + (s2 + s3)`;
//! * each lane's block partials are added in ascending block order on the
//!   calling thread, starting from `-0.0`.
//!
//! So lane `q` of a batch sums exactly as the `nrhs = 1` reduction of that
//! lane's vectors does, and a vector shorter than four rows sums left to
//! right, as a plain loop would. The elementwise outputs (`p`, `x`, `r`,
//! `A·p`) use one per-element formula at every width; `A·p` sums each row
//! in ascending column order from `0.0`, as the plain products do, so
//! `spmv_dots` on a structure has the bits of `spmv_batch_into` on
//! `P A Pᵀ` whenever `A` is exactly symmetric. None of the kernels allocates:
//! the partial sums live in a caller-held [`BlockSums`].
//!
//! # Data-race freedom
//!
//! A block is one index of the dispatch, so exactly one worker runs it: it
//! alone writes the block's rows (all `nrhs` slots of each) of every vector
//! the kernel writes, and the block's `nrhs` partial-sum slots. Everything
//! else a kernel touches is only read during its dispatch — `spmv_dots`
//! reads `p` at any row, and writes only `A·p`. The pool's completion
//! publishes the writes before the calling thread adds the partials.

use std::ops::Range;

use sts_matrix::{CsrMatrix, MatrixError};
use sts_numa::Schedule;

use super::kernel::{SharedVec, TILE};
use super::parallel::{pool_error_to_matrix, ParallelSolver};
use super::plan::{chunk_count, chunk_range};
use crate::csrk::{Result, StsStructure};
use crate::symmetric::SymmetricLayout;

/// Rows per reduction block: the unit of work of every vector kernel, and
/// the granularity that fixes the order of every sum. A constant, so that
/// the bits of a sum never depend on how it was run.
pub const BLOCK_ROWS: usize = 4096;

// Blocks start on a multiple of four rows, so a block-local row index has
// the same residue mod 4 as the global one.
const _: () = assert!(BLOCK_ROWS.is_multiple_of(4));

/// The scratch of the blocked reductions for vectors of `n` rows × `nrhs`
/// lanes: one partial sum per block and lane, and the per-lane totals the
/// kernels return. Sized once, so the kernels allocate nothing.
#[derive(Debug, Clone)]
pub struct BlockSums {
    n: usize,
    nrhs: usize,
    partials: Vec<f64>,
    totals: Vec<f64>,
}

impl BlockSums {
    /// Scratch for vectors of `n` rows and `nrhs` lanes:
    /// `ceil(n / BLOCK_ROWS) · nrhs` partial sums.
    ///
    /// # Panics
    ///
    /// When `nrhs == 0`, or when `n * nrhs` overflows `usize`.
    pub fn new(n: usize, nrhs: usize) -> Self {
        assert!(nrhs > 0, "BlockSums needs at least one lane");
        assert!(
            n.checked_mul(nrhs).is_some(),
            "BlockSums: n = {n} × nrhs = {nrhs} overflows usize"
        );
        BlockSums {
            n,
            nrhs,
            partials: vec![0.0; n.div_ceil(BLOCK_ROWS) * nrhs],
            totals: vec![0.0; nrhs],
        }
    }

    /// The number of rows this scratch was sized for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of lanes this scratch was sized for.
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }

    /// Rejects a vector that is not `n × nrhs` long.
    fn check(&self, name: &str, v: &[f64]) -> Result<()> {
        if v.len() != self.n * self.nrhs {
            return Err(MatrixError::DimensionMismatch(format!(
                "{name} has length {}, the reduction scratch is sized for n = {} × nrhs = {}",
                v.len(),
                self.n,
                self.nrhs
            )));
        }
        Ok(())
    }

    /// Rejects per-lane scalars that are not `nrhs` long.
    fn check_lanes(&self, name: &str, s: &[f64]) -> Result<()> {
        if s.len() != self.nrhs {
            return Err(MatrixError::DimensionMismatch(format!(
                "{name} has {} lanes, the reduction scratch has {}",
                s.len(),
                self.nrhs
            )));
        }
        Ok(())
    }
}

/// One block's share of a reducing kernel.
trait BlockBody: Sync {
    /// Does the work of the block-local rows `0..rows.len()` of the global
    /// rows `rows`, lanes tiled `W` at a time, and writes the block's
    /// partial sum of each of the `nrhs` lanes into `out`.
    ///
    /// # Safety
    ///
    /// No other thread may access the rows `rows` of any vector the body
    /// writes for the duration of the call.
    unsafe fn run<const W: usize>(&self, rows: Range<usize>, out: &mut [f64]);
}

/// The lane count a body at width `W` runs: 1, known to the compiler, at
/// `W = 1`, so every lane loop of the scalar path folds away.
#[inline(always)]
fn lanes<const W: usize>(nrhs: usize) -> usize {
    if W == 1 {
        1
    } else {
        nrhs
    }
}

/// The reduction of one block: `terms(i, q0, w)` does block-local row `i`'s
/// work for lanes `q0..q0 + w` and returns their terms, and lane `q`'s term
/// of row `i` goes to sub-sum `i mod 4` (see the module documentation).
/// `W` is 1 for `nrhs = 1`, where every lane loop folds away, and [`TILE`]
/// otherwise.
#[inline(always)]
fn block_sum<const W: usize>(
    len: usize,
    nrhs: usize,
    out: &mut [f64],
    mut terms: impl FnMut(usize, usize, usize) -> [f64; W],
) {
    let nrhs = lanes::<W>(nrhs);
    let mut q0 = 0;
    while q0 < nrhs {
        let w = if W == 1 { 1 } else { (nrhs - q0).min(W) };
        let add = |s: &mut [f64; W], t: [f64; W]| {
            for (a, t) in s[..w].iter_mut().zip(&t) {
                *a += t;
            }
        };
        // Four named accumulators, not an array indexed by `i mod 4`: the
        // scalar path keeps them in registers.
        let [mut s0, mut s1, mut s2, mut s3] = [[-0.0f64; W]; 4];
        let mut i = 0;
        while i + 4 <= len {
            add(&mut s0, terms(i, q0, w));
            add(&mut s1, terms(i + 1, q0, w));
            add(&mut s2, terms(i + 2, q0, w));
            add(&mut s3, terms(i + 3, q0, w));
            i += 4;
        }
        for (s, i) in [&mut s0, &mut s1, &mut s2].into_iter().zip(i..len) {
            add(s, terms(i, q0, w));
        }
        for (q, o) in out[q0..q0 + w].iter_mut().enumerate() {
            *o = (s0[q] + s1[q]) + (s2[q] + s3[q]);
        }
        q0 += w;
    }
}

/// A column index a product reads: `usize` in a [`CsrMatrix`], `u32` in a
/// [`SymmetricLayout`].
trait Col: Copy + Sync {
    fn at(self) -> usize;
}

impl Col for usize {
    #[inline(always)]
    fn at(self) -> usize {
        self
    }
}

impl Col for u32 {
    #[inline(always)]
    fn at(self) -> usize {
        self as usize
    }
}

/// The three arrays of a CSR operator, read once outside the row loops.
#[derive(Clone, Copy)]
struct Csr<'a, C> {
    row_ptr: &'a [usize],
    col_idx: &'a [C],
    values: &'a [f64],
}

impl<'a> Csr<'a, usize> {
    fn of(a: &'a CsrMatrix) -> Self {
        Csr {
            row_ptr: a.row_ptr(),
            col_idx: a.col_idx(),
            values: a.values(),
        }
    }
}

impl<'a> Csr<'a, u32> {
    fn of_symmetric(a: &'a SymmetricLayout) -> Self {
        Csr {
            row_ptr: a.row_ptr(),
            col_idx: a.col_idx(),
            values: a.values(),
        }
    }
}

impl<C: Col> Csr<'_, C> {
    /// Lanes `q0..q0 + w` of row `r` of `A·X` (interleaved `x`, `nrhs`
    /// lanes): `Σ v·x` in CSR order, from `0.0`.
    #[inline(always)]
    fn row<const W: usize>(
        self,
        x: &[f64],
        r: usize,
        nrhs: usize,
        q0: usize,
        w: usize,
    ) -> [f64; W] {
        let mut acc = [0.0f64; W];
        for k in self.row_ptr[r]..self.row_ptr[r + 1] {
            let (j, v) = (self.col_idx[k].at(), self.values[k]);
            if W == 1 {
                acc[0] += v * x[j];
            } else {
                let xj = &x[j * nrhs + q0..j * nrhs + q0 + w];
                for (a, &xq) in acc[..w].iter_mut().zip(xj) {
                    *a += v * xq;
                }
            }
        }
        acc
    }
}

/// Rows `rows` of `A·X` into `y`, the rows' `nrhs` slots each, lanes tiled
/// `W` at a time.
#[inline(always)]
fn product_rows<const W: usize, C: Col>(
    a: Csr<'_, C>,
    x: &[f64],
    rows: Range<usize>,
    nrhs: usize,
    y: &mut [f64],
) {
    if W == 1 {
        for (y, r) in y.iter_mut().zip(rows) {
            [*y] = a.row::<1>(x, r, 1, 0, 1);
        }
        return;
    }
    for (r, y) in rows.zip(y.chunks_exact_mut(nrhs)) {
        let mut q0 = 0;
        while q0 < nrhs {
            let w = (nrhs - q0).min(W);
            let acc = a.row::<W>(x, r, nrhs, q0, w);
            y[q0..q0 + w].copy_from_slice(&acc[..w]);
            q0 += w;
        }
    }
}

/// One block's per-lane partial dots `u·v`, `u` and `v` the block's slots.
#[inline(always)]
fn dot_block<const W: usize>(u: &[f64], v: &[f64], nrhs: usize, out: &mut [f64]) {
    let nrhs = lanes::<W>(nrhs);
    block_sum::<W>(u.len() / nrhs, nrhs, out, |i, q0, w| {
        let k = i * nrhs + q0;
        let mut t = [0.0f64; W];
        for (q, t) in t[..w].iter_mut().enumerate() {
            *t = u[k + q] * v[k + q];
        }
        t
    });
}

/// The block range of rows `n` rows are cut into for block `b`.
fn block_rows(n: usize, b: usize) -> Range<usize> {
    b * BLOCK_ROWS..n.min((b + 1) * BLOCK_ROWS)
}

/// `u·v` per lane.
struct Dots<'a> {
    u: &'a [f64],
    v: &'a [f64],
    nrhs: usize,
}

impl BlockBody for Dots<'_> {
    // SAFETY: this body only reads, so it needs nothing of the contract.
    unsafe fn run<const W: usize>(&self, rows: Range<usize>, out: &mut [f64]) {
        let slots = rows.start * self.nrhs..rows.end * self.nrhs;
        dot_block::<W>(&self.u[slots.clone()], &self.v[slots], self.nrhs, out);
    }
}

/// `ap = A·p` and `p·ap` per lane.
struct SpmvDots<'a> {
    a: Csr<'a, u32>,
    p: &'a [f64],
    ap: SharedVec,
    nrhs: usize,
}

impl BlockBody for SpmvDots<'_> {
    // SAFETY: the caller's contract hands this call the block's rows of
    // `ap`, the one vector it writes.
    unsafe fn run<const W: usize>(&self, rows: Range<usize>, out: &mut [f64]) {
        let slots = rows.start * self.nrhs..rows.end * self.nrhs;
        // SAFETY: the caller's contract gives this call the block's rows of
        // `ap` alone; `p` is never written during the dispatch.
        let ap = unsafe { self.ap.slice_mut(slots.start, slots.len()) };
        product_rows::<W, _>(self.a, self.p, rows, self.nrhs, ap);
        // A second pass over the block, while it is still in cache: summing
        // inside the product's row loop measured slower.
        dot_block::<W>(&self.p[slots], ap, self.nrhs, out);
    }
}

/// `x += α∘p`, `r −= α∘ap` and `r·r` per lane.
struct Step<'a> {
    alpha: &'a [f64],
    p: &'a [f64],
    ap: &'a [f64],
    x: SharedVec,
    r: SharedVec,
    nrhs: usize,
}

impl BlockBody for Step<'_> {
    // SAFETY: the caller's contract hands this call the block's rows of
    // `x` and `r`, the vectors it writes.
    unsafe fn run<const W: usize>(&self, rows: Range<usize>, out: &mut [f64]) {
        let nrhs = lanes::<W>(self.nrhs);
        let slots = rows.start * nrhs..rows.end * nrhs;
        let (p, ap) = (&self.p[slots.clone()], &self.ap[slots.clone()]);
        // SAFETY: the caller's contract gives this call the block's rows of
        // `x` and `r` alone, and the two are distinct vectors.
        let (x, r) = unsafe {
            (
                self.x.slice_mut(slots.start, slots.len()),
                self.r.slice_mut(slots.start, slots.len()),
            )
        };
        let alpha = self.alpha;
        block_sum::<W>(rows.len(), nrhs, out, |i, q0, w| {
            let k = i * nrhs + q0;
            let mut t = [0.0f64; W];
            for (q, t) in t[..w].iter_mut().enumerate() {
                let a = alpha[q0 + q];
                x[k + q] += a * p[k + q];
                r[k + q] -= a * ap[k + q];
                *t = r[k + q] * r[k + q];
            }
            t
        });
    }
}

impl ParallelSolver {
    /// Runs `body` on every block of the `sums.n()` rows under the static
    /// schedule, then adds each lane's block partials in ascending block
    /// order. Returns the per-lane totals.
    fn reduce<'s>(&self, sums: &'s mut BlockSums, body: &impl BlockBody) -> Result<&'s [f64]> {
        let (n, nrhs) = (sums.n, sums.nrhs);
        let partials = SharedVec::new(&mut sums.partials);
        self.pool
            .parallel_for(n.div_ceil(BLOCK_ROWS), Schedule::Static, &|b| {
                let rows = block_rows(n, b);
                // SAFETY: block `b` is one index of this dispatch, so this
                // call alone owns its `nrhs` partial slots and, by the same
                // token, its rows of every vector `body` writes.
                unsafe {
                    let out = partials.slice_mut(b * nrhs, nrhs);
                    if nrhs == 1 {
                        body.run::<1>(rows, out);
                    } else {
                        body.run::<TILE>(rows, out);
                    }
                }
            })
            .map_err(pool_error_to_matrix)?;
        sums.totals.fill(-0.0);
        for block in sums.partials.chunks_exact(nrhs) {
            for (t, &s) in sums.totals.iter_mut().zip(block) {
                *t += s;
            }
        }
        Ok(&sums.totals)
    }

    /// Per-lane dot products `u·v` of two interleaved vectors of
    /// `sums.n()` rows × `sums.nrhs()` lanes, in the blocked order of the
    /// [module documentation](self): the bits do not depend on the thread
    /// count, and lane `q` equals the `nrhs = 1` dot of that lane's vectors.
    /// No heap allocation.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] when `u` or `v` is not
    /// `n × nrhs` long; [`MatrixError::WorkerPanicked`] when the pool fails.
    pub fn dots<'s>(&self, u: &[f64], v: &[f64], sums: &'s mut BlockSums) -> Result<&'s [f64]> {
        sums.check("u", u)?;
        sums.check("v", v)?;
        let nrhs = sums.nrhs;
        self.reduce(sums, &Dots { u, v, nrhs })
    }

    /// The CG direction update `p = z + β∘p` on interleaved vectors, lane
    /// `q` scaled by `beta[q]` (`nrhs = beta.len()`), per element exactly
    /// `z + β·p`. No heap allocation.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] when `beta` is empty or `z` and
    /// `p` are not the same whole number of `nrhs`-lane rows;
    /// [`MatrixError::WorkerPanicked`] when the pool fails.
    pub fn update_direction(&self, z: &[f64], beta: &[f64], p: &mut [f64]) -> Result<()> {
        let nrhs = beta.len();
        if nrhs == 0 || z.len() != p.len() || !z.len().is_multiple_of(nrhs) {
            return Err(MatrixError::DimensionMismatch(
                "z and p must be the same n × nrhs length, with nrhs = beta.len() ≥ 1".into(),
            ));
        }
        let n = z.len() / nrhs;
        let shared = SharedVec::new(p);
        self.pool
            .parallel_for(n.div_ceil(BLOCK_ROWS), Schedule::Static, &|b| {
                let rows = block_rows(n, b);
                let slots = rows.start * nrhs..rows.end * nrhs;
                // SAFETY: block `b` is one index of this dispatch, so this
                // call alone owns its rows of `p`.
                let p = unsafe { shared.slice_mut(slots.start, slots.len()) };
                let z = &z[slots];
                if nrhs == 1 {
                    let beta = beta[0];
                    for (pi, &zi) in p.iter_mut().zip(z) {
                        *pi = zi + beta * *pi;
                    }
                } else {
                    for (pr, zr) in p.chunks_exact_mut(nrhs).zip(z.chunks_exact(nrhs)) {
                        for ((pi, &zi), &bq) in pr.iter_mut().zip(zr).zip(beta) {
                            *pi = zi + bq * *pi;
                        }
                    }
                }
            })
            .map_err(pool_error_to_matrix)
    }

    /// The CG product `ap = A·p` together with the per-lane dots `p·ap`, in
    /// one dispatch, `A` being `s`'s symmetric operator
    /// `L' + L'ᵀ − D` ([`StsStructure::symmetric`], built here on first
    /// use). Each row of `ap` sums in ascending column order from `0.0`, so
    /// it has the bits of [`ParallelSolver::spmv_batch_into`] on the CSR
    /// form of that operator; the dots follow the blocked order of the
    /// [module documentation](self). No heap allocation once the layout
    /// exists.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] when `s` is not `n × n` or `p` /
    /// `ap` are not `n × nrhs` long; [`MatrixError::WorkerPanicked`] when
    /// the pool fails.
    pub fn spmv_dots<'s>(
        &self,
        s: &StsStructure,
        p: &[f64],
        ap: &mut [f64],
        sums: &'s mut BlockSums,
    ) -> Result<&'s [f64]> {
        if s.n() != sums.n {
            return Err(MatrixError::DimensionMismatch(format!(
                "the operator is {0} × {0}, the reduction scratch is sized for n = {1}",
                s.n(),
                sums.n
            )));
        }
        sums.check("p", p)?;
        sums.check("ap", ap)?;
        let body = SpmvDots {
            a: Csr::of_symmetric(s.symmetric()),
            p,
            ap: SharedVec::new(ap),
            nrhs: sums.nrhs,
        };
        self.reduce(sums, &body)
    }

    /// The CG step `x += α∘p`, `r −= α∘ap`, together with the per-lane
    /// `r·r` of the updated residual, in one dispatch. Per element exactly
    /// `x + α·p` and `r − α·ap`; the sums follow the blocked order of the
    /// [module documentation](self). No heap allocation.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] when a vector is not `n × nrhs`
    /// long or `alpha` is not `nrhs` long; [`MatrixError::WorkerPanicked`]
    /// when the pool fails.
    pub fn cg_step<'s>(
        &self,
        alpha: &[f64],
        p: &[f64],
        ap: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        sums: &'s mut BlockSums,
    ) -> Result<&'s [f64]> {
        sums.check_lanes("alpha", alpha)?;
        for (name, v) in [("p", p), ("ap", ap), ("x", &*x), ("r", &*r)] {
            sums.check(name, v)?;
        }
        let body = Step {
            alpha,
            p,
            ap,
            x: SharedVec::new(x),
            r: SharedVec::new(r),
            nrhs: sums.nrhs,
        };
        self.reduce(sums, &body)
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
        self.product(a, x, y, 1)
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
        if a.ncols().checked_mul(nrhs) != Some(x.len())
            || a.nrows().checked_mul(nrhs) != Some(y.len())
        {
            return Err(MatrixError::DimensionMismatch(
                "x/y lengths must match the matrix dimensions times nrhs".into(),
            ));
        }
        self.product(a, x, y, nrhs)
    }

    /// The plain products' driver: one static chunk of rows per worker.
    fn product(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64], nrhs: usize) -> Result<()> {
        let n = a.nrows();
        if n == 0 {
            return Ok(());
        }
        let a = Csr::of(a);
        let shared = SharedVec::new(y);
        let nchunks = chunk_count(self.pool.num_threads(), n);
        self.pool
            .parallel_for(nchunks, Schedule::Static, &|c| {
                let rows = chunk_range(0, n, nchunks, c);
                // SAFETY: the rows of static chunk `c` belong to this call
                // alone; `x` is never written during the product.
                let y = unsafe { shared.slice_mut(rows.start * nrhs, rows.len() * nrhs) };
                if nrhs == 1 {
                    product_rows::<1, _>(a, x, rows, 1, y);
                } else {
                    product_rows::<TILE, _>(a, x, rows, nrhs, y);
                }
            })
            .map_err(pool_error_to_matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::generators;

    /// Row counts around the block and sub-sum boundaries.
    #[cfg(not(miri))]
    const SIZES: [usize; 9] = [
        0,
        1,
        3,
        4,
        5,
        BLOCK_ROWS - 1,
        BLOCK_ROWS,
        BLOCK_ROWS + 1,
        3 * BLOCK_ROWS + 7,
    ];
    #[cfg(miri)]
    const SIZES: [usize; 6] = [0, 1, 3, 4, 5, BLOCK_ROWS + 1];
    const WIDTHS: [usize; 4] = [1, 2, 4, 9];

    /// The documented order, written out plainly for one lane: blocks of
    /// `BLOCK_ROWS` rows, four sub-sums by `i mod 4` combined pairwise, the
    /// block partials added in ascending order.
    fn reference_sum(terms: &[f64]) -> f64 {
        let mut total = -0.0;
        for block in terms.chunks(BLOCK_ROWS) {
            let mut s = [-0.0f64; 4];
            for (i, &t) in block.iter().enumerate() {
                s[i % 4] += t;
            }
            total += (s[0] + s[1]) + (s[2] + s[3]);
        }
        total
    }

    /// Per-lane `u·v` of interleaved vectors in the documented order, as
    /// bit patterns.
    fn reference_dots(u: &[f64], v: &[f64], nrhs: usize) -> Vec<u64> {
        (0..nrhs)
            .map(|q| {
                let t: Vec<f64> = u
                    .iter()
                    .zip(v)
                    .skip(q)
                    .step_by(nrhs)
                    .map(|(a, b)| a * b)
                    .collect();
                reference_sum(&t).to_bits()
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Values with no exactly representable pattern for reordering to hide
    /// behind.
    fn values(len: usize, seed: u64) -> Vec<f64> {
        (0..len as u64)
            .map(|k| {
                let h = (k ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
                (h as f64 / (1u64 << 53) as f64 - 0.3) * 1e3
            })
            .collect()
    }

    /// A symmetric tridiagonal `n × n` matrix with irrational-looking
    /// entries.
    fn tridiagonal(n: usize) -> CsrMatrix {
        let mut coo = sts_matrix::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + (i % 7) as f64 / 3.0).unwrap();
            if i > 0 {
                let v = -1.0 - (i % 5) as f64 / 7.0;
                coo.push(i, i - 1, v).unwrap();
                coo.push(i - 1, i, v).unwrap();
            }
        }
        coo.to_csr()
    }

    /// The structure of symmetric `a`'s lower triangle as one super-row in
    /// one pack, in the original numbering: its symmetric layout is `a`.
    fn one_super_row(a: &CsrMatrix) -> StsStructure {
        let n = a.nrows();
        StsStructure::new(
            1,
            crate::builder::Ordering::LevelSet,
            vec![0, 1],
            vec![0, n],
            generators::lower_operand(a).unwrap(),
            sts_graph::Permutation::identity(n),
        )
        .unwrap()
    }

    #[test]
    fn every_kernel_follows_the_documented_order_at_every_width() {
        let solvers = [
            ParallelSolver::new(1, Schedule::Static),
            ParallelSolver::new(3, Schedule::Static),
        ];
        for n in SIZES {
            let a = tridiagonal(n);
            let s = one_super_row(&a);
            for nrhs in WIDTHS {
                let len = n * nrhs;
                let (u, v) = (values(len, 1), values(len, 2));
                let lanes: Vec<f64> = (0..nrhs).map(|q| 0.5 - q as f64 * 0.37).collect();
                for solver in &solvers {
                    let mut sums = BlockSums::new(n, nrhs);
                    let what = format!("n = {n}, nrhs = {nrhs}, {} threads", solver.num_threads());

                    let got = solver.dots(&u, &v, &mut sums).unwrap();
                    assert_eq!(bits(got), reference_dots(&u, &v, nrhs), "dots {what}");

                    let mut p = v.clone();
                    solver.update_direction(&u, &lanes, &mut p).unwrap();
                    for (k, &pk) in p.iter().enumerate() {
                        assert_eq!(pk.to_bits(), (u[k] + lanes[k % nrhs] * v[k]).to_bits());
                    }

                    let mut ap = vec![f64::NAN; len];
                    let got = bits(solver.spmv_dots(&s, &u, &mut ap, &mut sums).unwrap());
                    let mut want = vec![0.0; len];
                    solver.spmv_batch_into(&a, &u, &mut want, nrhs).unwrap();
                    assert_eq!(ap, want, "spmv_dots' product {what}");
                    assert_eq!(got, reference_dots(&u, &ap, nrhs), "spmv_dots {what}");

                    let (mut x, mut r) = (values(len, 3), values(len, 4));
                    let (x0, r0) = (x.clone(), r.clone());
                    let got = bits(
                        solver
                            .cg_step(&lanes, &u, &v, &mut x, &mut r, &mut sums)
                            .unwrap(),
                    );
                    for k in 0..len {
                        let a = lanes[k % nrhs];
                        assert_eq!(x[k].to_bits(), (x0[k] + a * u[k]).to_bits());
                        assert_eq!(r[k].to_bits(), (r0[k] - a * v[k]).to_bits());
                    }
                    assert_eq!(got, reference_dots(&r, &r, nrhs), "cg_step {what}");
                }
            }
        }
    }

    #[test]
    fn short_vectors_sum_left_to_right() {
        let solver = ParallelSolver::new(2, Schedule::Static);
        for n in 0..4 {
            let u = values(n, 5);
            let mut sums = BlockSums::new(n, 1);
            let got = solver.dots(&u, &u, &mut sums).unwrap()[0];
            let plain = u.iter().fold(-0.0, |s, x| s + x * x);
            assert_eq!(got.to_bits(), plain.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn scalar_spmv_dots_matches_spmv_into() {
        let a = generators::grid2d_9point(70, 61).unwrap();
        let n = a.nrows();
        assert!(n > BLOCK_ROWS);
        let p = values(n, 6);
        let mut want = vec![0.0; n];
        let solver = ParallelSolver::new(2, Schedule::Static);
        solver.spmv_into(&a, &p, &mut want).unwrap();
        let mut ap = vec![0.0; n];
        let mut sums = BlockSums::new(n, 1);
        solver
            .spmv_dots(&one_super_row(&a), &p, &mut ap, &mut sums)
            .unwrap();
        assert_eq!(bits(&ap), bits(&want));
    }

    #[test]
    fn mismatched_shapes_are_rejected() {
        let solver = ParallelSolver::new(2, Schedule::Static);
        let mut sums = BlockSums::new(6, 2);
        let (u, mut w) = (vec![1.0; 12], vec![1.0; 12]);
        assert!(solver.dots(&u, &u[1..], &mut sums).is_err());
        assert!(solver.update_direction(&u, &[], &mut w).is_err());
        assert!(solver.update_direction(&u, &[1.0; 5], &mut w).is_err());
        assert!(solver.update_direction(&u, &[1.0], &mut w[1..]).is_err());
        let five = one_super_row(&tridiagonal(5));
        assert!(solver.spmv_dots(&five, &u, &mut w, &mut sums).is_err());
        let (mut x, mut r) = (vec![0.0; 12], vec![0.0; 12]);
        assert!(solver
            .cg_step(&[1.0], &u, &u, &mut x, &mut r, &mut sums)
            .is_err());
        assert!(solver
            .cg_step(&[1.0; 2], &u, &u, &mut x[1..], &mut r, &mut sums)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn oversized_scratch_panics() {
        BlockSums::new(usize::MAX, 2);
    }
}
