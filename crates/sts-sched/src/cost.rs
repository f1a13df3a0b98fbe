//! The In-Pack cost model (Definition 1 / Equation 1).
//!
//! On the one-level platform of Definition 1, processor `j` running the task
//! set `V_j` pays
//!
//! ```text
//! w · |∪_{i ∈ Vj} I_i|   — copying each distinct input into its cache once
//! e · |Vj|               — executing the tasks
//! r · Σ_{i ∈ Vj} |I_i|   — re-reading every input from cache per task
//! ```
//!
//! and the schedule's execution time is the maximum over processors
//! (Equation 1).

use crate::dar::DarGraph;

/// The flat (UMA) cost model of Definition 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InPackCostModel {
    /// Cost of copying one unit of data from memory into a cache (`w`).
    pub w: f64,
    /// Cost of executing one task (`e`).
    pub e: f64,
    /// Cost of one cache read (`r`).
    pub r: f64,
}

impl InPackCostModel {
    /// The reduction model of Theorem 1: only memory-to-cache copies count.
    pub fn copy_only(w: f64) -> Self {
        InPackCostModel { w, e: 0.0, r: 0.0 }
    }

    /// A model with all three components, in the spirit of the paper's
    /// examples (`w` ≫ `r` > `e`).
    pub fn standard() -> Self {
        InPackCostModel {
            w: 200.0,
            e: 1.0,
            r: 4.0,
        }
    }

    /// Cost of processor `j` under assignment `assignment` (task → processor).
    pub fn processor_cost(&self, dar: &DarGraph, assignment: &[usize], j: usize) -> f64 {
        let mut distinct: Vec<usize> = Vec::new();
        let mut tasks = 0usize;
        let mut reads = 0usize;
        for (t, &p) in assignment.iter().enumerate() {
            if p != j {
                continue;
            }
            tasks += 1;
            reads += dar.inputs(t).len();
            distinct.extend_from_slice(dar.inputs(t));
        }
        distinct.sort_unstable();
        distinct.dedup();
        self.w * distinct.len() as f64 + self.e * tasks as f64 + self.r * reads as f64
    }

    /// Equation 1: the makespan of an assignment onto `q` processors.
    pub fn makespan(&self, dar: &DarGraph, assignment: &[usize], q: usize) -> f64 {
        assert_eq!(assignment.len(), dar.num_tasks());
        assert!(
            assignment.iter().all(|&p| p < q),
            "assignment references processor >= q"
        );
        (0..q)
            .map(|j| self.processor_cost(dar, assignment, j))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_processor_cost_matches_formula() {
        let dar = DarGraph::from_inputs(vec![vec![0, 1], vec![1, 2], vec![3]]);
        let m = InPackCostModel {
            w: 10.0,
            e: 1.0,
            r: 0.5,
        };
        let assignment = vec![0, 0, 0];
        // distinct inputs {0,1,2,3} = 4, tasks = 3, reads = 5
        let expected = 10.0 * 4.0 + 1.0 * 3.0 + 0.5 * 5.0;
        assert_eq!(m.processor_cost(&dar, &assignment, 0), expected);
        assert_eq!(m.makespan(&dar, &assignment, 2), expected);
        assert_eq!(m.processor_cost(&dar, &assignment, 1), 0.0);
    }

    #[test]
    fn splitting_shared_inputs_duplicates_copies() {
        // Two tasks sharing one input: together they copy it once, apart twice.
        let dar = DarGraph::from_inputs(vec![vec![7], vec![7]]);
        let m = InPackCostModel::copy_only(1.0);
        assert_eq!(m.makespan(&dar, &[0, 0], 2), 1.0);
        assert_eq!(m.makespan(&dar, &[0, 1], 2), 1.0); // per-proc max is still 1
                                                       // but the *total* copies differ; check via summed processor costs
        let total_together: f64 = (0..2).map(|j| m.processor_cost(&dar, &[0, 0], j)).sum();
        let total_apart: f64 = (0..2).map(|j| m.processor_cost(&dar, &[0, 1], j)).sum();
        assert_eq!(total_together, 1.0);
        assert_eq!(total_apart, 2.0);
    }

    #[test]
    fn line_dar_block_schedule_cost_matches_paper_formula() {
        // Section 3.3: n = m*q tasks on a line, block schedule has cost
        // w*(m+1) + e*m + r*(2m) per processor.
        let (m_tasks, q) = (4usize, 3usize);
        let n = m_tasks * q;
        let dar = DarGraph::line(n);
        let model = InPackCostModel {
            w: 100.0,
            e: 2.0,
            r: 5.0,
        };
        let assignment: Vec<usize> = (0..n).map(|i| i / m_tasks).collect();
        let expected = model.w * (m_tasks as f64 + 1.0)
            + model.e * m_tasks as f64
            + model.r * (2 * m_tasks) as f64;
        assert_eq!(model.makespan(&dar, &assignment, q), expected);
    }

    #[test]
    #[should_panic]
    fn out_of_range_processor_is_rejected() {
        let dar = DarGraph::line(2);
        let m = InPackCostModel::standard();
        let _ = m.makespan(&dar, &[0, 5], 2);
    }
}
