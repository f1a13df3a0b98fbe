//! Synthetic sparse matrix generators.
//!
//! The paper evaluates STS-k on twelve matrices from the University of
//! Florida Sparse Matrix Collection (Table 1). Those inputs are multi-million
//! row downloads that are not available offline, so this module provides
//! generators for the same *structural classes* at configurable scale:
//!
//! * finite-difference grid Laplacians (5/9-point 2-D, 7/27-point 3-D) for the
//!   medium/high row-density matrices (`nlpkkt160` ≈ 27 nnz/row is exactly a
//!   3-D 27-point stencil pattern);
//! * block-expanded stencils for the very dense rows of `ldoor` (~45 nnz/row);
//! * triangulated grids for the `delaunay_n2x` family (~7 nnz/row);
//! * random geometric graphs for `rgg_n_2_21_s0` (~15 nnz/row);
//! * degree-limited "road network" graphs for `road_central`, `road_usa`,
//!   `europe_osm` (~3.1–3.4 nnz/row) and the `hugetrace`/`hugebubbles`
//!   meshes (~4 nnz/row).
//!
//! Every generator returns a symmetric positive-definite-style matrix
//! (diagonally dominant, negative off-diagonals) so that its lower triangle is
//! a well-conditioned triangular operand. Pack structure, coloring and level
//! sets depend only on the sparsity pattern, which is what these generators
//! reproduce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::MatrixError;
use crate::triangular::LowerTriangularCsr;
use crate::Result;

/// Builds a symmetric diagonally-dominant matrix from an undirected edge list.
///
/// Each edge `(u, v)` contributes `-1` at `(u, v)` and `(v, u)`; the diagonal
/// of each row is set to `degree + 1`, which makes the matrix strictly
/// diagonally dominant and therefore non-singular.
pub fn symmetric_from_edges(n: usize, edges: &[(usize, usize)]) -> Result<CsrMatrix> {
    let mut degree = vec![0usize; n];
    let mut coo = CooMatrix::with_capacity(n, n, edges.len() * 2 + n);
    for &(u, v) in edges {
        if u >= n || v >= n {
            return Err(MatrixError::IndexOutOfBounds {
                row: u,
                col: v,
                nrows: n,
                ncols: n,
            });
        }
        if u == v {
            continue;
        }
        coo.push(u, v, -1.0)?;
        coo.push(v, u, -1.0)?;
        degree[u] += 1;
        degree[v] += 1;
    }
    for (i, &d) in degree.iter().enumerate() {
        coo.push(i, i, d as f64 + 1.0)?;
    }
    // Duplicate edges collapse by summation; recompute the diagonal so the
    // matrix stays dominant even then by using drop-free conversion.
    Ok(coo.to_csr())
}

/// Extracts the lower-triangular operand of a symmetric matrix generated by
/// this module.
pub fn lower_operand(sym: &CsrMatrix) -> Result<LowerTriangularCsr> {
    LowerTriangularCsr::from_lower_triangle_of(sym)
}

fn grid_index(nx: usize, x: usize, y: usize) -> usize {
    y * nx + x
}

fn grid3_index(nx: usize, ny: usize, x: usize, y: usize, z: usize) -> usize {
    (z * ny + y) * nx + x
}

/// 2-D 5-point Laplacian on an `nx x ny` grid (≈5 nnz/row).
pub fn grid2d_laplacian(nx: usize, ny: usize) -> Result<CsrMatrix> {
    if nx == 0 || ny == 0 {
        return Err(MatrixError::InvalidParameter(
            "grid dimensions must be positive".into(),
        ));
    }
    let mut edges = Vec::with_capacity(2 * nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            let i = grid_index(nx, x, y);
            if x + 1 < nx {
                edges.push((i, grid_index(nx, x + 1, y)));
            }
            if y + 1 < ny {
                edges.push((i, grid_index(nx, x, y + 1)));
            }
        }
    }
    symmetric_from_edges(nx * ny, &edges)
}

/// 2-D 9-point stencil on an `nx x ny` grid (≈9 nnz/row).
pub fn grid2d_9point(nx: usize, ny: usize) -> Result<CsrMatrix> {
    if nx == 0 || ny == 0 {
        return Err(MatrixError::InvalidParameter(
            "grid dimensions must be positive".into(),
        ));
    }
    let mut edges = Vec::with_capacity(4 * nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            let i = grid_index(nx, x, y);
            if x + 1 < nx {
                edges.push((i, grid_index(nx, x + 1, y)));
            }
            if y + 1 < ny {
                edges.push((i, grid_index(nx, x, y + 1)));
                if x + 1 < nx {
                    edges.push((i, grid_index(nx, x + 1, y + 1)));
                }
                if x > 0 {
                    edges.push((i, grid_index(nx, x - 1, y + 1)));
                }
            }
        }
    }
    symmetric_from_edges(nx * ny, &edges)
}

/// 3-D 7-point Laplacian on an `nx x ny x nz` grid (≈7 nnz/row).
pub fn grid3d_laplacian(nx: usize, ny: usize, nz: usize) -> Result<CsrMatrix> {
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(MatrixError::InvalidParameter(
            "grid dimensions must be positive".into(),
        ));
    }
    let mut edges = Vec::with_capacity(3 * nx * ny * nz);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = grid3_index(nx, ny, x, y, z);
                if x + 1 < nx {
                    edges.push((i, grid3_index(nx, ny, x + 1, y, z)));
                }
                if y + 1 < ny {
                    edges.push((i, grid3_index(nx, ny, x, y + 1, z)));
                }
                if z + 1 < nz {
                    edges.push((i, grid3_index(nx, ny, x, y, z + 1)));
                }
            }
        }
    }
    symmetric_from_edges(nx * ny * nz, &edges)
}

/// 3-D 27-point stencil on an `nx x ny x nz` grid (≈27 nnz/row), the
/// structural analogue of `nlpkkt160` (27.01 nnz/row).
pub fn grid3d_27point(nx: usize, ny: usize, nz: usize) -> Result<CsrMatrix> {
    if nx == 0 || ny == 0 || nz == 0 {
        return Err(MatrixError::InvalidParameter(
            "grid dimensions must be positive".into(),
        ));
    }
    let mut edges = Vec::new();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = grid3_index(nx, ny, x, y, z);
                for dz in 0..=1usize {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dz == 0 && (dy < 0 || (dy == 0 && dx <= 0)) {
                                // enumerate each undirected neighbour pair once
                                continue;
                            }
                            let nx2 = x as i64 + dx;
                            let ny2 = y as i64 + dy;
                            let nz2 = z + dz;
                            if nx2 < 0
                                || ny2 < 0
                                || nx2 >= nx as i64
                                || ny2 >= ny as i64
                                || nz2 >= nz
                            {
                                continue;
                            }
                            edges.push((i, grid3_index(nx, ny, nx2 as usize, ny2 as usize, nz2)));
                        }
                    }
                }
            }
        }
    }
    symmetric_from_edges(nx * ny * nz, &edges)
}

/// Replaces every vertex of `base` with a clique of `block` vertices and every
/// edge with a complete bipartite connection between the two cliques. Used to
/// emulate multi-degree-of-freedom FEM matrices such as `ldoor` whose rows
/// carry ~45 nonzeros.
pub fn block_expand(base: &CsrMatrix, block: usize) -> Result<CsrMatrix> {
    if block == 0 {
        return Err(MatrixError::InvalidParameter(
            "block size must be positive".into(),
        ));
    }
    if base.nrows() != base.ncols() {
        return Err(MatrixError::DimensionMismatch(
            "base matrix must be square".into(),
        ));
    }
    let n = base.nrows() * block;
    let mut edges = Vec::new();
    for r in 0..base.nrows() {
        // intra-block clique
        for a in 0..block {
            for b in (a + 1)..block {
                edges.push((r * block + a, r * block + b));
            }
        }
        for &c in base.row_cols(r) {
            if c <= r {
                continue;
            }
            for a in 0..block {
                for b in 0..block {
                    edges.push((r * block + a, c * block + b));
                }
            }
        }
    }
    symmetric_from_edges(n, &edges)
}

/// Random geometric graph: `n` points uniform in the unit square, connected
/// when their distance is below a radius chosen to hit `target_degree` on
/// average. Structural analogue of `rgg_n_2_21_s0` (~15 nnz/row).
pub fn random_geometric(n: usize, target_degree: f64, seed: u64) -> Result<CsrMatrix> {
    if n == 0 {
        return Err(MatrixError::InvalidParameter("n must be positive".into()));
    }
    if target_degree <= 0.0 {
        return Err(MatrixError::InvalidParameter(
            "target_degree must be positive".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    // Expected degree for radius r is ~ n * pi * r^2; invert for r.
    let radius = (target_degree / (n as f64 * std::f64::consts::PI)).sqrt();
    // Bin points into a uniform grid of cell size `radius` so neighbour search
    // touches only the 9 surrounding cells.
    let cells = ((1.0 / radius).ceil() as usize).max(1);
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); cells * cells];
    let cell_of = |p: (f64, f64)| -> (usize, usize) {
        let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
        let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
        (cx, cy)
    };
    for (i, &p) in pts.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        bins[cy * cells + cx].push(i);
    }
    let mut edges = Vec::new();
    let r2 = radius * radius;
    for i in 0..n {
        let (cx, cy) = cell_of(pts[i]);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let bx = cx as i64 + dx;
                let by = cy as i64 + dy;
                if bx < 0 || by < 0 || bx >= cells as i64 || by >= cells as i64 {
                    continue;
                }
                for &j in &bins[by as usize * cells + bx as usize] {
                    if j <= i {
                        continue;
                    }
                    let ddx = pts[i].0 - pts[j].0;
                    let ddy = pts[i].1 - pts[j].1;
                    if ddx * ddx + ddy * ddy <= r2 {
                        edges.push((i, j));
                    }
                }
            }
        }
    }
    symmetric_from_edges(n, &edges)
}

/// Triangulated grid: a 2-D grid with one diagonal per cell, giving vertex
/// degree ≈6 like a Delaunay triangulation of random points
/// (`delaunay_n23`/`delaunay_n24` have 7 nnz/row including the diagonal).
pub fn triangulated_grid(nx: usize, ny: usize, seed: u64) -> Result<CsrMatrix> {
    if nx == 0 || ny == 0 {
        return Err(MatrixError::InvalidParameter(
            "grid dimensions must be positive".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(3 * nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            let i = grid_index(nx, x, y);
            if x + 1 < nx {
                edges.push((i, grid_index(nx, x + 1, y)));
            }
            if y + 1 < ny {
                edges.push((i, grid_index(nx, x, y + 1)));
            }
            if x + 1 < nx && y + 1 < ny {
                // one of the two diagonals, chosen at random per cell
                if rng.gen_bool(0.5) {
                    edges.push((i, grid_index(nx, x + 1, y + 1)));
                } else {
                    edges.push((grid_index(nx, x + 1, y), grid_index(nx, x, y + 1)));
                }
            }
        }
    }
    symmetric_from_edges(nx * ny, &edges)
}

/// Road-network-like graph: a sparse subgraph of the 2-D grid where a fraction
/// of the grid edges is removed, yielding long path-like structures with
/// average degree ≈2.2–3 (so 3.1–4 nnz/row including the diagonal), the class
/// of `road_central`, `road_usa`, `europe_osm` and the `huge*` meshes.
pub fn road_network(nx: usize, ny: usize, keep_probability: f64, seed: u64) -> Result<CsrMatrix> {
    if nx == 0 || ny == 0 {
        return Err(MatrixError::InvalidParameter(
            "grid dimensions must be positive".into(),
        ));
    }
    if !(0.0..=1.0).contains(&keep_probability) {
        return Err(MatrixError::InvalidParameter(
            "keep_probability must lie in [0, 1]".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for y in 0..ny {
        for x in 0..nx {
            let i = grid_index(nx, x, y);
            // Keep a horizontal backbone so the graph does not fall apart into
            // isolated vertices (road networks are mostly connected).
            if x + 1 < nx {
                let backbone = y % 4 == 0;
                if backbone || rng.gen_bool(keep_probability) {
                    edges.push((i, grid_index(nx, x + 1, y)));
                }
            }
            if y + 1 < ny && rng.gen_bool(keep_probability) {
                edges.push((i, grid_index(nx, x, y + 1)));
            }
        }
    }
    symmetric_from_edges(nx * ny, &edges)
}

/// The 9×9 lower-triangular example of Figure 1 of the paper, used by unit
/// tests, documentation examples and the `fig_example` harness.
// The pattern is a compile-time constant that is trivially in bounds and lower
// triangular, so the fallible constructors cannot fail here.
#[allow(clippy::expect_used)]
pub fn paper_figure1_l() -> LowerTriangularCsr {
    let pattern: &[(usize, &[usize])] = &[
        (0, &[]),
        (1, &[]),
        (2, &[0]),
        (3, &[1]),
        (4, &[]),
        (5, &[2, 3]),
        (6, &[3, 4, 5]),
        (7, &[4, 6]),
        (8, &[0, 1, 7]),
    ];
    let mut coo = CooMatrix::new(9, 9);
    for &(r, cols) in pattern {
        for &c in cols {
            coo.push(r, c, -1.0).expect("pattern entry in bounds");
        }
        coo.push(r, r, 4.0).expect("diagonal in bounds");
    }
    LowerTriangularCsr::from_csr(&coo.to_csr()).expect("figure-1 pattern is lower triangular")
}

/// A random sparse lower-triangular matrix with `extra` strictly-lower entries
/// per row on average, used by property-based tests across the workspace.
pub fn random_lower_triangular(
    n: usize,
    avg_off_diag: f64,
    seed: u64,
) -> Result<LowerTriangularCsr> {
    if n == 0 {
        return Err(MatrixError::InvalidParameter("n must be positive".into()));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let max_below = i;
        let want = avg_off_diag.min(max_below as f64);
        for j in 0..max_below {
            let p = want / max_below as f64;
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                coo.push(i, j, -rng.gen_range(0.1..1.0))?;
            }
        }
        coo.push(i, i, rng.gen_range(2.0..4.0) + avg_off_diag)?;
    }
    LowerTriangularCsr::from_csr(&coo.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_has_expected_size_and_density() {
        let a = grid2d_laplacian(10, 10).unwrap();
        assert_eq!(a.nrows(), 100);
        assert!(a.is_symmetric(0.0));
        // interior vertices have 4 neighbours + diagonal = 5
        assert!(a.row_density() > 4.0 && a.row_density() <= 5.0);
    }

    #[test]
    fn grid2d_rejects_empty_dimensions() {
        assert!(grid2d_laplacian(0, 5).is_err());
        assert!(grid2d_9point(5, 0).is_err());
    }

    #[test]
    fn grid3d_27point_density_matches_nlpkkt_class() {
        let a = grid3d_27point(8, 8, 8).unwrap();
        assert!(a.is_symmetric(0.0));
        // 27-point stencil: up to 26 neighbours + diagonal.
        assert!(a.row_density() > 15.0 && a.row_density() <= 27.0);
    }

    #[test]
    fn nine_point_density_exceeds_five_point() {
        let five = grid2d_laplacian(12, 12).unwrap();
        let nine = grid2d_9point(12, 12).unwrap();
        assert!(nine.row_density() > five.row_density());
    }

    #[test]
    fn block_expand_multiplies_dimension_and_density() {
        let base = grid2d_laplacian(6, 6).unwrap();
        let b = block_expand(&base, 3).unwrap();
        assert_eq!(b.nrows(), 36 * 3);
        assert!(b.is_symmetric(0.0));
        assert!(b.row_density() > 2.5 * base.row_density());
    }

    #[test]
    fn block_expand_rejects_zero_block() {
        let base = grid2d_laplacian(3, 3).unwrap();
        assert!(block_expand(&base, 0).is_err());
    }

    #[test]
    fn random_geometric_hits_target_degree_roughly() {
        let a = random_geometric(2000, 14.0, 7).unwrap();
        assert!(a.is_symmetric(0.0));
        let d = a.row_density();
        assert!(d > 7.0 && d < 25.0, "row density {d} far from target");
    }

    #[test]
    fn random_geometric_is_deterministic_per_seed() {
        let a = random_geometric(500, 10.0, 3).unwrap();
        let b = random_geometric(500, 10.0, 3).unwrap();
        assert_eq!(a, b);
        let c = random_geometric(500, 10.0, 4).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn triangulated_grid_density_matches_delaunay_class() {
        let a = triangulated_grid(40, 40, 1).unwrap();
        let d = a.row_density();
        assert!(d > 5.0 && d < 7.5, "row density {d}");
    }

    #[test]
    fn road_network_density_matches_road_class() {
        let a = road_network(80, 80, 0.55, 11).unwrap();
        let d = a.row_density();
        assert!(d > 2.5 && d < 4.5, "row density {d}");
    }

    #[test]
    fn road_network_validates_probability() {
        assert!(road_network(10, 10, 1.5, 0).is_err());
    }

    #[test]
    fn generated_matrices_yield_solvable_triangular_operands() {
        for a in [
            grid2d_laplacian(8, 8).unwrap(),
            grid2d_9point(8, 8).unwrap(),
            grid3d_laplacian(4, 4, 4).unwrap(),
            triangulated_grid(8, 8, 0).unwrap(),
            road_network(10, 10, 0.5, 0).unwrap(),
            random_geometric(200, 8.0, 0).unwrap(),
        ] {
            let l = lower_operand(&a).unwrap();
            let x_true = vec![1.0; l.n()];
            let b = l.multiply(&x_true).unwrap();
            let x = l.solve_seq(&b).unwrap();
            for (xs, xt) in x.iter().zip(&x_true) {
                assert!((xs - xt).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn paper_figure1_matches_published_pattern() {
        let l = paper_figure1_l();
        assert_eq!(l.n(), 9);
        // 12 strictly-lower entries + 9 diagonals
        assert_eq!(l.nnz(), 12 + 9);
        assert_eq!(l.row_off_diag_cols(8), &[0, 1, 7]);
        assert_eq!(l.row_off_diag_cols(6), &[3, 4, 5]);
    }

    #[test]
    fn random_lower_triangular_is_always_solvable() {
        for seed in 0..5 {
            let l = random_lower_triangular(64, 3.0, seed).unwrap();
            let b = vec![1.0; 64];
            let x = l.solve_seq(&b).unwrap();
            assert_eq!(x.len(), 64);
            assert!(x.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn symmetric_from_edges_rejects_out_of_bounds() {
        assert!(symmetric_from_edges(3, &[(0, 5)]).is_err());
    }

    #[test]
    fn symmetric_from_edges_ignores_self_loops() {
        let a = symmetric_from_edges(3, &[(1, 1), (0, 2)]).unwrap();
        assert_eq!(a.get(1, 1), 1.0); // degree 0 + 1
        assert_eq!(a.get(0, 2), -1.0);
    }
}
