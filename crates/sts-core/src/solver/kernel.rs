//! The row arithmetic of the sweep kernels, written once.
//!
//! Every engine runs the same two-phase sweep per pack — *gather* a row
//! against finished packs, then *chain*-correct the rows with in-super-row
//! dependencies — and every output bit comes from one row body, [`Sum`]: it
//! accumulates `acc = Σ v·x` in slab order and then applies
//! `x = (b − acc)·d` (gather) or `x −= acc·d` (chain). Single-RHS requests
//! run it at lane width 1 (the plain scalar loop), batches at width
//! [`TILE`]; a lane of a batch performs exactly the scalar sweep's
//! floating-point sequence, so every lane of every batch on every engine is
//! bitwise identical to the scalar sweep of that right-hand side.
//!
//! The body is generic over the stored value type (`f32` slabs widen
//! exactly into the `f64` accumulation) and a const lane width, so the
//! solve-path instantiations are `{f64, f32} × {Sum<1>, Sum<TILE>}`.

use std::ops::Range;

use crate::options::SlabValue;

/// Right-hand sides accumulated per stack tile by the batch row bodies: wide
/// enough that typical batches (4–8 RHS) stream the column/value slabs once,
/// small enough to stay in registers. Wider batches take further passes over
/// the row.
pub(crate) const TILE: usize = 8;

/// Shared mutable solution vector; see the `parallel` module documentation
/// for the aliasing discipline that makes this sound.
pub(crate) struct SharedVec {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: the wrapper only forwards raw-pointer accesses; every dereference
// goes through the unsafe methods below, whose contracts require the caller
// to provide the per-slot single-writer discipline argued in the module docs.
unsafe impl Sync for SharedVec {}

impl SharedVec {
    /// Wraps a vector for shared mutable access; the vector must outlive every
    /// use of the wrapper.
    pub(crate) fn new(v: &mut [f64]) -> Self {
        SharedVec {
            ptr: v.as_mut_ptr(),
            len: v.len(),
        }
    }

    /// # Safety
    /// Caller must guarantee the index is in bounds and not concurrently
    /// accessed by another thread.
    #[inline(always)]
    pub(crate) unsafe fn write(&self, idx: usize, value: f64) {
        debug_assert!(idx < self.len);
        *self.ptr.add(idx) = value;
    }

    /// # Safety
    /// Caller must guarantee the index is in bounds and not concurrently
    /// written by another thread.
    #[inline(always)]
    pub(crate) unsafe fn read(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.len);
        *self.ptr.add(idx)
    }

    /// Shared view of the `len` slots starting at `start`.
    ///
    /// # Safety
    /// Caller must guarantee the range is in bounds and that no thread
    /// writes any slot of the range for the lifetime of the returned slice.
    #[inline(always)]
    pub(crate) unsafe fn slice(&self, start: usize, len: usize) -> &[f64] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts(self.ptr.add(start), len)
    }

    /// Exclusive view of the `len` slots starting at `start`.
    ///
    /// # Safety
    /// Caller must guarantee the range is in bounds and that no other thread
    /// reads or writes any slot of the range for the lifetime of the
    /// returned slice (the level-scheduled factorization's per-row
    /// ownership discipline provides exactly this).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [f64] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// One value slab of a split layout: its parallel column and value arrays
/// (values at whichever precision the sweep reads).
#[derive(Clone, Copy)]
pub(crate) struct Slab<'a, V> {
    pub(crate) cols: &'a [u32],
    pub(crate) vals: &'a [V],
}

/// The row body at lane width `W`: 1 for single-RHS sweeps (where `nrhs`
/// must be 1 and every lane loop folds away), [`TILE`] for batches, over
/// `nrhs` interleaved right-hand sides (`x[i * nrhs + q]`). `slab` is a whole
/// slab, `entries` the row's range in it and `d` the row's reciprocal
/// diagonal. (The body indexes the slab rather than take sub-slices: with
/// rows of two or three entries the plain checked loop measured faster than
/// the unrolled one sub-slices compile to.)
pub(crate) struct Sum<const W: usize>;

impl<const W: usize> Sum<W> {
    /// For each block of up to `W` lanes: `acc[q] = Σ_{k ∈ entries}
    /// vals[k] · x[cols[k], q]` in slab order, then
    /// `x[i, q] = finish(slot of (i, q), acc[q])`.
    ///
    /// # Safety
    /// As for [`Sum::gather`]; `finish` may read row `i`'s slots.
    #[inline(always)]
    unsafe fn row<V: SlabValue>(
        x: &SharedVec,
        i: usize,
        slab: Slab<'_, V>,
        entries: Range<usize>,
        nrhs: usize,
        finish: impl Fn(usize, f64) -> f64,
    ) {
        let nrhs = if W == 1 { 1 } else { nrhs };
        let mut q0 = 0;
        while q0 < nrhs {
            let w = if W == 1 { 1 } else { (nrhs - q0).min(W) };
            let mut acc = [0.0f64; W];
            for k in entries.clone() {
                let v = slab.vals[k].to_f64();
                let from = slab.cols[k] as usize * nrhs + q0;
                if W == 1 {
                    // SAFETY: forwarded from the caller's contract.
                    acc[0] += v * unsafe { x.read(from) };
                } else {
                    // SAFETY: the view covers `w` slots of row `cols[k]`
                    // only, which the caller's contract puts in bounds and
                    // keeps free of writers for the whole call. Under the
                    // split and pipelined drivers other workers do write `x`
                    // while the view lives, but only slots of *other* rows
                    // (each row has one writer, and `cols[k]` names finished
                    // rows), and this call's own writes go to row `i`, which
                    // a strictly triangular slab never names — so no write
                    // overlaps the viewed range. (A slice, not per-lane
                    // reads: this is the form the lane loop vectorizes in.)
                    let xj = unsafe { x.slice(from, w) };
                    for (a, &xq) in acc[..w].iter_mut().zip(xj) {
                        *a += v * xq;
                    }
                }
            }
            let at = i * nrhs + q0;
            for (q, &a) in acc[..w].iter().enumerate() {
                // SAFETY: row i's slots are owned by this call.
                unsafe { x.write(at + q, finish(at + q, a)) };
            }
            q0 += w;
        }
    }

    /// Phase 1: produces row `i` from `b` and the rows named by
    /// `slab.cols[entries]`.
    ///
    /// # Safety
    /// The `nrhs` slots of row `i` and of every row in `slab.cols[entries]`
    /// must be in bounds of `x`; `slab.cols[entries]` must not name row `i`;
    /// no other thread may access row `i`'s slots or write the
    /// `slab.cols[entries]` rows' slots during the call. Other threads may
    /// concurrently write rows that are neither.
    #[inline(always)]
    pub(crate) unsafe fn gather<V: SlabValue>(
        x: &SharedVec,
        b: &[f64],
        i: usize,
        slab: Slab<'_, V>,
        entries: Range<usize>,
        d: f64,
        nrhs: usize,
    ) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { Self::row(x, i, slab, entries, nrhs, |slot, acc| (b[slot] - acc) * d) }
    }

    /// Phase 2: corrects row `i`'s phase-1 value by the rows named by
    /// `slab.cols[entries]`.
    ///
    /// # Safety
    /// As for [`Sum::gather`].
    #[inline(always)]
    pub(crate) unsafe fn chain<V: SlabValue>(
        x: &SharedVec,
        i: usize,
        slab: Slab<'_, V>,
        entries: Range<usize>,
        d: f64,
        nrhs: usize,
    ) {
        // SAFETY: forwarded from the caller's contract; the closure re-reads
        // row i's own phase-1 value, which this call owns.
        unsafe {
            Self::row(x, i, slab, entries, nrhs, |slot, acc| {
                x.read(slot) - acc * d
            })
        }
    }
}
