//! Deterministic fault injection for the chaos test suite.
//!
//! Every helper here is seeded and allocation-explicit: the same seed
//! produces the same perturbation on every run and at every thread count,
//! so a chaos test that fails reproduces exactly. Faults come in four
//! families, mirroring the failure modes the solve path defends against:
//!
//! * **SPD-breaking value perturbations** — [`break_spd_diagonal`] (a tiny
//!   positive diagonal entry that defeats IC(0) while passing the positive-
//!   diagonal validation) and [`kershaw_cycle`] (an embedded 4-cycle that is
//!   genuinely SPD yet breaks IC(0) under any of the orderings the builders
//!   produce — the shape only the shifted-factorization rungs recover);
//! * **non-finite values** — [`inject_nan_values`] poisons matrix entries
//!   with NaN to exercise the `validate()` boundary, and NaN right-hand
//!   sides exercise the residual guards;
//! * **worker panics** — [`panic_hook`] panics the worker that picks up a
//!   chosen pack, exercising pool poisoning;
//! * **worker stalls** — [`stall_hook`] parks the worker that picks up a
//!   chosen pack, exercising the IC(0) build's epoch-gate watchdog (a
//!   stalled sweep is only slow).
//!
//! The hooks plug into
//! [`ParallelSolver::set_chaos_hook`](sts_core::ParallelSolver), which the
//! split sweep driver invokes at every `(gather chunk, stage)` start and the
//! parallel IC(0) build at every `(worker, pack)` chunk start.

use std::sync::Arc;
use std::time::Duration;

use sts_core::ChaosHook;
use sts_matrix::CsrMatrix;

/// SplitMix64: a tiny deterministic generator, so fault sites are seeded
/// without dragging a rand dependency into the harness.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// A generator whose whole future is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Replaces one (seeded) diagonal entry of `a` with a tiny positive value.
/// The matrix stays validation-clean — the diagonal is still present,
/// positive and finite — but the IC(0) pivot of some later row goes
/// non-positive, producing a deterministic
/// [`FactorizationBreakdown`](sts_matrix::MatrixError::FactorizationBreakdown).
/// Returns the poisoned row (original numbering).
pub fn break_spd_diagonal(a: &mut CsrMatrix, seed: u64) -> usize {
    let mut rng = DetRng::new(seed);
    let n = a.nrows();
    // Keep away from row 0: a first-row poison breaks *its own* pivot
    // trivially rather than a downstream one.
    let row = 1 + rng.below(n - 1);
    set_diag(a, row, 1e-9);
    row
}

/// Embeds the Kershaw counterexample into a grid Laplacian built by
/// [`sts_matrix::generators::grid2d_laplacian`]`(nx, ny)`: the four nodes of
/// one interior 2×2 grid cell are decoupled from the rest of the matrix and
/// rewired as a 4-cycle with diagonal 3 and edge weights `−2, −2, −2, +2`.
/// That block is SPD (dense Cholesky pivots 3, 5/3, 3/5, 1/3) but **not** an
/// M-matrix, and its IC(0) pivot goes negative under natural, BFS/RCM and
/// level-set orderings alike — so the perturbed matrix defeats the unshifted
/// IC(0) rung however the builder orders it, while staying genuinely SPD
/// (the ladder's shifted rungs and SSOR still converge).
///
/// Returns the four perturbed node indices. `nx` and `ny` must both be at
/// least 4 so the cell is interior.
pub fn kershaw_cycle(a: &CsrMatrix, nx: usize, ny: usize, seed: u64) -> (CsrMatrix, [usize; 4]) {
    assert!(nx >= 4 && ny >= 4, "grid too small for an interior cell");
    assert_eq!(a.nrows(), nx * ny, "matrix does not match the grid");
    let mut rng = DetRng::new(seed);
    // An interior cell: top-left corner in [1, nx-3] × [1, ny-3].
    let cx = 1 + rng.below(nx - 3);
    let cy = 1 + rng.below(ny - 3);
    let i = cy * nx + cx;
    let cell = [i, i + 1, i + nx, i + nx + 1];
    // Rebuild the matrix without any row/column touching the cell, then add
    // the decoupled cycle block.
    let mut coo = sts_matrix::CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz() + 8);
    let in_cell = |v: usize| cell.contains(&v);
    for (r, c, v) in a.iter() {
        if !in_cell(r) && !in_cell(c) {
            // Infallible: (r, c) come from a valid matrix of the same shape.
            let _ = coo.push(r, c, v);
        }
    }
    // The cycle i — i+1 — i+nx+1 — i+nx — i with one positive edge: SPD,
    // not an M-matrix, IC(0)-fatal.
    let edges = [
        (cell[0], cell[1], -2.0),
        (cell[1], cell[3], -2.0),
        (cell[3], cell[2], -2.0),
        (cell[2], cell[0], 2.0),
    ];
    for &node in &cell {
        let _ = coo.push(node, node, 3.0);
    }
    for &(u, v, w) in &edges {
        let _ = coo.push(u, v, w);
        let _ = coo.push(v, u, w);
    }
    (coo.to_csr(), cell)
}

/// Overwrites `count` seeded value slots of `a` with NaN. Returns the
/// poisoned (row, col) sites.
pub fn inject_nan_values(a: &mut CsrMatrix, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = DetRng::new(seed);
    let nnz = a.nnz();
    let mut sites = Vec::with_capacity(count);
    let mut slots = Vec::with_capacity(count);
    for _ in 0..count {
        slots.push(rng.below(nnz));
    }
    for &k in &slots {
        let row = match a.row_ptr().binary_search(&k) {
            // `k` sits at the start of row r (skipping empty rows the
            // search may land on).
            Ok(r) => (r..a.nrows())
                .find(|&r| a.row_ptr()[r + 1] > k)
                .unwrap_or(r),
            Err(r) => r - 1,
        };
        sites.push((row, a.col_idx()[k]));
        a.values_mut()[k] = f64::NAN;
    }
    sites
}

/// A chaos hook that panics the worker which picks up pack `pack` — any
/// worker, first arrival wins. Deterministic in *site* (always that pack),
/// intentionally racy in *which* worker dies, exactly like a real fault.
pub fn panic_hook(pack: usize) -> ChaosHook {
    Arc::new(move |_worker, p| {
        if p == pack {
            panic!("injected fault: worker panicked at pack {p}");
        }
    })
}

/// A chaos hook that stalls worker `worker` for `dur` when it picks up pack
/// `pack` — the "hardware went away" shape the epoch-gate watchdog exists
/// for. The worker *returns* after the stall (the pool can always complete
/// its barrier); in a multi-worker IC(0) build its peers hit the watchdog
/// deadline first and the build reports a timeout, while a sweep just runs
/// slow.
pub fn stall_hook(worker: usize, pack: usize, dur: Duration) -> ChaosHook {
    Arc::new(move |w, p| {
        if w == worker && p == pack {
            std::thread::sleep(dur);
        }
    })
}

/// Sets row `row`'s diagonal entry of `a` to `value` (asserts it exists).
fn set_diag(a: &mut CsrMatrix, row: usize, value: f64) {
    let lo = a.row_ptr()[row];
    let hi = a.row_ptr()[row + 1];
    let k = (lo..hi)
        .find(|&k| a.col_idx()[k] == row)
        .expect("generator matrices store every diagonal");
    a.values_mut()[k] = value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::generators;

    #[test]
    fn det_rng_is_deterministic_and_covers_its_range() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut seen = [false; 7];
        let mut r = DetRng::new(7);
        for _ in 0..200 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn broken_diagonal_still_validates_but_defeats_ic0() {
        let mut a = generators::grid2d_laplacian(10, 10).unwrap();
        let row = break_spd_diagonal(&mut a, 1);
        assert!(row > 0 && row < 100);
        a.validate().unwrap();
        assert!(matches!(
            sts_matrix::factor::ic0(&a),
            Err(sts_matrix::MatrixError::FactorizationBreakdown { .. })
        ));
    }

    #[test]
    fn kershaw_cycle_is_symmetric_spd_shaped_and_defeats_ic0() {
        let a = generators::grid2d_laplacian(8, 8).unwrap();
        let (k, cell) = kershaw_cycle(&a, 8, 8, 3);
        k.validate().unwrap();
        assert!(k.is_symmetric(1e-12));
        for &node in &cell {
            assert_eq!(k.get(node, node), 3.0);
        }
        assert!(matches!(
            sts_matrix::factor::ic0(&k),
            Err(sts_matrix::MatrixError::FactorizationBreakdown { .. })
        ));
    }

    #[test]
    fn nan_injection_reports_its_sites() {
        let mut a = generators::grid2d_laplacian(6, 6).unwrap();
        let sites = inject_nan_values(&mut a, 3, 11);
        assert_eq!(sites.len(), 3);
        for &(r, c) in &sites {
            assert!(a.get(r, c).is_nan());
        }
        assert!(a.validate().is_err());
    }
}
