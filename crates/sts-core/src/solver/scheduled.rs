//! Schedule-only level-scheduled solver for the *original* system.
//!
//! Some callers cannot reorder their triangular matrix (for instance when `L`
//! is an exact factor handed over by another component). For them this module
//! provides the classical Saltz level scheduling: dependency levels of the
//! rows of `L` are computed once, and each level's rows are solved in parallel
//! without any permutation, so the result is the solution of the caller's own
//! `L x = b`.

use sts_graph::LevelSets;
use sts_matrix::{LowerTriangularCsr, MatrixError};
use sts_numa::{Schedule, WorkerPool};

use crate::csrk::Result;
use crate::solver::kernel::SharedVec;

/// A level-scheduled solver for a fixed lower-triangular matrix.
pub struct LevelScheduledSolver {
    l: LowerTriangularCsr,
    /// Rows grouped by dependency level, each level sorted by row index.
    levels: Vec<Vec<usize>>,
}

impl LevelScheduledSolver {
    /// Analyses the dependency levels of `l`.
    pub fn new(l: LowerTriangularCsr) -> Self {
        let levels = LevelSets::from_lower_triangular(&l).levels().to_vec();
        LevelScheduledSolver { l, levels }
    }

    /// Number of dependency levels (parallel steps).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The analysed matrix.
    pub fn lower(&self) -> &LowerTriangularCsr {
        &self.l
    }

    /// Solves `L x = b` sequentially (identical to
    /// [`LowerTriangularCsr::solve_seq`], provided for symmetry).
    pub fn solve_sequential(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.l.solve_seq(b)
    }

    /// Solves `L x = b` level by level on the given pool.
    pub fn solve_parallel(
        &self,
        pool: &WorkerPool,
        schedule: Schedule,
        b: &[f64],
    ) -> Result<Vec<f64>> {
        if b.len() != self.l.n() {
            return Err(MatrixError::DimensionMismatch(format!(
                "b has length {}, expected {}",
                b.len(),
                self.l.n()
            )));
        }
        let mut x = vec![0.0f64; self.l.n()];
        {
            let shared = SharedVec::new(&mut x);
            let row_ptr = self.l.row_ptr();
            let col_idx = self.l.col_idx();
            let values = self.l.values();
            for level in &self.levels {
                pool.parallel_for(level.len(), schedule, &|t| {
                    let i = level[t];
                    let start = row_ptr[i];
                    let end = row_ptr[i + 1];
                    let mut acc = 0.0;
                    for k in start..end - 1 {
                        // SAFETY: dependencies of a level-`d` row live in
                        // levels < d, fully written before this level started.
                        acc += values[k] * unsafe { shared.read(col_idx[k]) };
                    }
                    // SAFETY: each row belongs to exactly one level entry.
                    unsafe { shared.write(i, (b[i] - acc) / values[end - 1]) };
                })
                .map_err(crate::solver::parallel::pool_error_to_matrix)?;
            }
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::{generators, ops};

    #[test]
    fn level_counts_match_level_sets() {
        let l = generators::paper_figure1_l();
        let solver = LevelScheduledSolver::new(l);
        assert_eq!(solver.num_levels(), 6);
    }

    #[test]
    fn parallel_solution_matches_sequential_and_is_in_original_ordering() {
        let a = generators::triangulated_grid(12, 12, 5).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let x_true: Vec<f64> = (0..l.n()).map(|i| (i % 9) as f64 - 4.0).collect();
        let b = l.multiply(&x_true).unwrap();
        let solver = LevelScheduledSolver::new(l);
        let pool = WorkerPool::new(4);
        let x = solver
            .solve_parallel(&pool, Schedule::Dynamic { chunk: 8 }, &b)
            .unwrap();
        // The result is the original system's solution — no permutation.
        assert!(ops::relative_error_inf(&x, &x_true) < 1e-10);
        let seq = solver.solve_sequential(&b).unwrap();
        assert!(ops::relative_error_inf(&x, &seq) < 1e-13);
    }

    #[test]
    fn wrong_rhs_length_is_rejected() {
        let solver = LevelScheduledSolver::new(generators::paper_figure1_l());
        let pool = WorkerPool::new(2);
        assert!(solver
            .solve_parallel(&pool, Schedule::Static, &[0.0; 2])
            .is_err());
    }

    #[test]
    fn diagonal_matrix_solves_in_one_level() {
        let l = generators::random_lower_triangular(50, 0.0, 3).unwrap();
        let solver = LevelScheduledSolver::new(l.clone());
        assert_eq!(solver.num_levels(), 1);
        let b = vec![3.0; 50];
        let pool = WorkerPool::new(3);
        let x = solver
            .solve_parallel(&pool, Schedule::Guided { min_chunk: 1 }, &b)
            .unwrap();
        let seq = l.solve_seq(&b).unwrap();
        assert!(ops::relative_error_inf(&x, &seq) < 1e-14);
    }
}
