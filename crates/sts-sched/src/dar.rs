//! The Data Affinity and Reuse (DAR) graph of a pack.
//!
//! Vertices are the tasks of the pack (one task per super-row); task `t`
//! carries the set `I_t` of *external* inputs it reads — the solution
//! components produced by earlier packs. Two tasks are connected when their
//! input sets intersect (`DX_l ∩ DX_m ≠ ∅` in the paper's notation): executing
//! them on the same core, back to back, lets the second read the shared
//! components out of a proximal cache.
//!
//! [`shared_input_adjacency`] is the one routine that finds these edges: the
//! (input, task) pairs of the pack sorted by input put each input's readers
//! in one run, and a task's neighbours are the readers of its inputs. Both
//! [`DarGraph::from_inputs`] and the builder's within-pack reordering
//! (`sts_core::reorder`) read it.

/// The DAR adjacency of `num_tasks` tasks, where `inputs_of(t)` lists the
/// external inputs of task `t`: CSR arrays `(adj_ptr, adj)` in which
/// `adj[adj_ptr[t]..adj_ptr[t + 1]]` are, in increasing order, the tasks
/// other than `t` that read at least one input of `t`.
///
/// One sort of the pack's (input, task) pairs gives the readers of each
/// input as one run; a marker over the tasks keeps each neighbour once.
pub fn shared_input_adjacency<'a>(
    num_tasks: usize,
    inputs_of: impl Fn(usize) -> &'a [usize],
) -> (Vec<usize>, Vec<usize>) {
    let mut readers: Vec<(usize, usize)> = (0..num_tasks)
        .flat_map(|t| inputs_of(t).iter().map(move |&x| (x, t)))
        .collect();
    readers.sort_unstable();
    let mut seen_by = vec![usize::MAX; num_tasks];
    let mut adj_ptr = Vec::with_capacity(num_tasks + 1);
    let mut adj = Vec::new();
    adj_ptr.push(0);
    for t in 0..num_tasks {
        seen_by[t] = t;
        let start = adj.len();
        for &x in inputs_of(t) {
            let first = readers.partition_point(|&(y, _)| y < x);
            for &(_, u) in readers[first..].iter().take_while(|&&(y, _)| y == x) {
                if seen_by[u] != t {
                    seen_by[u] = t;
                    adj.push(u);
                }
            }
        }
        adj[start..].sort_unstable();
        adj_ptr.push(adj.len());
    }
    (adj_ptr, adj)
}

/// The DAR graph of one pack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DarGraph {
    /// `inputs[t]`: sorted, deduplicated external data ids read by task `t`.
    inputs: Vec<Vec<usize>>,
    /// The neighbours of task `t` are `adj[adj_ptr[t]..adj_ptr[t + 1]]`:
    /// the tasks sharing at least one input with `t`, sorted.
    adj_ptr: Vec<usize>,
    adj: Vec<usize>,
}

impl DarGraph {
    /// Builds the DAR graph from per-task input sets. Inputs are deduplicated
    /// and sorted; the edges come from [`shared_input_adjacency`].
    pub fn from_inputs(mut inputs: Vec<Vec<usize>>) -> DarGraph {
        for set in &mut inputs {
            set.sort_unstable();
            set.dedup();
        }
        let (adj_ptr, adj) = shared_input_adjacency(inputs.len(), |t| &inputs[t]);
        DarGraph {
            inputs,
            adj_ptr,
            adj,
        }
    }

    /// Number of tasks in the pack.
    pub fn num_tasks(&self) -> usize {
        self.inputs.len()
    }

    /// The external inputs of task `t`.
    pub fn inputs(&self, t: usize) -> &[usize] {
        &self.inputs[t]
    }

    /// Tasks sharing at least one input with `t`.
    pub fn neighbors(&self, t: usize) -> &[usize] {
        &self.adj[self.adj_ptr[t]..self.adj_ptr[t + 1]]
    }

    /// Number of DAR edges.
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Number of distinct external inputs read by the whole pack.
    pub fn num_distinct_inputs(&self) -> usize {
        let mut all: Vec<usize> = self.inputs.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }

    /// Total number of input reads (with multiplicity across tasks), the
    /// `Σ|Iᵢ|` term of the cost model.
    pub fn total_reads(&self) -> usize {
        self.inputs.iter().map(|s| s.len()).sum()
    }

    /// True when the DAR graph is a collection of simple paths (every vertex
    /// has degree ≤ 2 and there are no cycles) — the "line graph" special case
    /// of Section 3.4 for which the block schedule is optimal.
    pub fn is_union_of_paths(&self) -> bool {
        let n = self.num_tasks();
        if (0..n).any(|t| self.neighbors(t).len() > 2) {
            return false;
        }
        // With max degree ≤ 2, the graph is a union of paths iff each
        // connected component has edges = vertices - 1 (no cycles).
        let mut visited = vec![false; n];
        for start in 0..n {
            if visited[start] {
                continue;
            }
            let mut stack = vec![start];
            visited[start] = true;
            let mut vertices = 0usize;
            let mut degree_sum = 0usize;
            while let Some(v) = stack.pop() {
                vertices += 1;
                degree_sum += self.neighbors(v).len();
                for &u in self.neighbors(v) {
                    if !visited[u] {
                        visited[u] = true;
                        stack.push(u);
                    }
                }
            }
            let edges = degree_sum / 2;
            if edges + 1 != vertices && vertices > 1 {
                return false;
            }
            if vertices == 1 && edges != 0 {
                return false;
            }
        }
        true
    }

    /// Builds the canonical "line pack" of Figure 5: `n` tasks where task `i`
    /// reads inputs `{i, i+1}`, so consecutive tasks share exactly one input.
    pub fn line(n: usize) -> DarGraph {
        DarGraph::from_inputs((0..n).map(|i| vec![i, i + 1]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure3_pack_two() {
        // Figure 3: pack 2 of the worked example has tasks {1,3}, {2,4} and
        // {5,8}; tasks {1,3} and {2,4} both read x9's neighbours... in the
        // paper the DAR of pack 2 connects (1,3)-(2,4) and (2,4)-(5,8).
        // Reproduce the same shape with explicit input sets.
        let dar = DarGraph::from_inputs(vec![
            vec![8],    // super-row {1,3} reads x9? (shared with {2,4})
            vec![8, 6], // super-row {2,4}
            vec![6],    // super-row {5,8}
        ]);
        assert_eq!(dar.num_edges(), 2);
        assert_eq!(dar.neighbors(1), &[0, 2]);
        assert!(dar.is_union_of_paths());
    }

    #[test]
    fn shared_input_adjacency_is_the_intersection_graph() {
        // Pseudo-random sets over a small id range, so most pairs meet.
        let sets: Vec<Vec<usize>> = (0..40)
            .map(|t: usize| (0..t % 4).map(|k| (t * 7 + k * 13) % 23).collect())
            .collect();
        let (adj_ptr, adj) = shared_input_adjacency(sets.len(), |t| &sets[t]);
        for (a, set_a) in sets.iter().enumerate() {
            let expected: Vec<usize> = (0..sets.len())
                .filter(|&b| b != a && set_a.iter().any(|x| sets[b].contains(x)))
                .collect();
            assert_eq!(&adj[adj_ptr[a]..adj_ptr[a + 1]], expected.as_slice());
        }
    }

    #[test]
    fn edges_exist_exactly_when_inputs_intersect() {
        let dar = DarGraph::from_inputs(vec![vec![1, 2], vec![2, 3], vec![4], vec![3, 4]]);
        assert!(dar.neighbors(0).contains(&1));
        assert!(!dar.neighbors(0).contains(&2));
        assert!(dar.neighbors(2).contains(&3));
        assert_eq!(dar.num_edges(), 3);
    }

    #[test]
    fn duplicate_inputs_are_deduplicated() {
        let dar = DarGraph::from_inputs(vec![vec![5, 5, 1], vec![]]);
        assert_eq!(dar.inputs(0), &[1, 5]);
        assert_eq!(dar.total_reads(), 2);
        assert_eq!(dar.num_distinct_inputs(), 2);
    }

    #[test]
    fn line_pack_matches_figure5() {
        let dar = DarGraph::line(6);
        assert_eq!(dar.num_tasks(), 6);
        assert_eq!(dar.num_edges(), 5);
        assert!(dar.is_union_of_paths());
        // interior tasks have two neighbours, endpoints one
        assert_eq!(dar.neighbors(0).len(), 1);
        assert_eq!(dar.neighbors(3).len(), 2);
        // n tasks with inputs {i, i+1} -> n+1 distinct inputs, 2n reads
        assert_eq!(dar.num_distinct_inputs(), 7);
        assert_eq!(dar.total_reads(), 12);
    }

    #[test]
    fn cycle_is_not_a_union_of_paths() {
        // Figure 4's connected components are cycles (task j shares with
        // j+1 mod a_i): three tasks in a triangle.
        let dar = DarGraph::from_inputs(vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        assert_eq!(dar.num_edges(), 3);
        assert!(!dar.is_union_of_paths());
    }

    #[test]
    fn star_is_not_a_union_of_paths() {
        let dar = DarGraph::from_inputs(vec![vec![9], vec![9], vec![9], vec![9]]);
        // All four tasks share input 9: a clique, degree 3 > 2.
        assert!(!dar.is_union_of_paths());
    }

    #[test]
    fn isolated_tasks_form_paths_trivially() {
        let dar = DarGraph::from_inputs(vec![vec![1], vec![2], vec![3]]);
        assert_eq!(dar.num_edges(), 0);
        assert!(dar.is_union_of_paths());
    }

    #[test]
    fn empty_dar_graph() {
        let dar = DarGraph::from_inputs(vec![]);
        assert_eq!(dar.num_tasks(), 0);
        assert_eq!(dar.num_edges(), 0);
        assert!(dar.is_union_of_paths());
    }
}
