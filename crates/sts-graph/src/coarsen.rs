//! Coarsening `G1` into the super-row graph `G2`.
//!
//! Section 3.1 of the paper builds super-rows by agglomerating rows that share
//! nonzero columns — formalised either through graph coarsening (collapsing
//! connected vertices, as in Figure 1) or, when the matrix is in a
//! band-reducing order such as RCM, by grouping *contiguous* rows. Coarsening
//! aims for super-rows with roughly equal numbers of nonzeros so that tasks
//! have equal work.
//!
//! Two strategies are provided:
//!
//! * [`CoarseningStrategy::ContiguousRows`] — fixed number of consecutive rows
//!   per super-row (the paper's 80 rows on Intel / 320 rows on AMD);
//! * [`CoarseningStrategy::HeavyEdgeMatching`] — classic multilevel pairwise
//!   matching (the Figure 1 illustration collapses pairs of connected
//!   vertices), useful when the matrix is not band-ordered.

use crate::adjacency::Graph;

/// How rows of `G1` are grouped into super-rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarseningStrategy {
    /// Group every `rows_per_group` consecutive vertices.
    ContiguousRows {
        /// Number of consecutive rows per super-row (≥ 1).
        rows_per_group: usize,
    },
    /// Greedy heavy-edge matching: every super-vertex is a matched pair of
    /// adjacent vertices (or a leftover singleton).
    HeavyEdgeMatching,
}

/// A partition of the vertices of a graph into super-vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coarsening {
    /// `membership[v]` is the super-vertex that contains `v`.
    membership: Vec<usize>,
    /// `groups[s]` lists the vertices of super-vertex `s`, in increasing order.
    groups: Vec<Vec<usize>>,
}

impl Coarsening {
    /// Coarsens `graph` with the requested strategy.
    ///
    /// For the contiguous strategy the vertex numbering is assumed to be a
    /// band-reducing (e.g. RCM) order, as in the paper.
    pub fn coarsen(graph: &Graph, strategy: CoarseningStrategy) -> Coarsening {
        match strategy {
            CoarseningStrategy::ContiguousRows { rows_per_group } => {
                Self::contiguous(graph.n(), rows_per_group.max(1))
            }
            CoarseningStrategy::HeavyEdgeMatching => Self::heavy_edge_matching(graph),
        }
    }

    fn contiguous(n: usize, rows_per_group: usize) -> Coarsening {
        let membership = (0..n).map(|v| v / rows_per_group).collect();
        let groups = (0..n)
            .step_by(rows_per_group)
            .map(|start| (start..(start + rows_per_group).min(n)).collect())
            .collect();
        Coarsening { membership, groups }
    }

    fn heavy_edge_matching(graph: &Graph) -> Coarsening {
        let n = graph.n();
        let mut matched = vec![usize::MAX; n];
        let mut membership = vec![usize::MAX; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        // Visit vertices in increasing degree order so low-degree vertices get
        // a chance to pair before their few neighbours are taken.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| (graph.degree(v), v));
        for &v in &order {
            if matched[v] != usize::MAX {
                continue;
            }
            // Prefer the unmatched neighbour with the most shared structure;
            // with unit edge weights that is simply the highest-weight
            // neighbour (heaviest super-row after merging).
            let partner = graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| matched[u] == usize::MAX)
                .max_by_key(|&u| (graph.weight(u), usize::MAX - u));
            let s = groups.len();
            match partner {
                Some(u) => {
                    matched[v] = u;
                    matched[u] = v;
                    membership[v] = s;
                    membership[u] = s;
                    let mut g = vec![v.min(u), v.max(u)];
                    g.sort_unstable();
                    groups.push(g);
                }
                None => {
                    matched[v] = v;
                    membership[v] = s;
                    groups.push(vec![v]);
                }
            }
        }
        Coarsening { membership, groups }
    }

    /// Number of super-vertices.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of fine vertices.
    pub fn n(&self) -> usize {
        self.membership.len()
    }

    /// The super-vertex containing fine vertex `v`.
    pub fn group_of(&self, v: usize) -> usize {
        self.membership[v]
    }

    /// The fine vertices of super-vertex `s` (increasing order).
    pub fn group(&self, s: usize) -> &[usize] {
        &self.groups[s]
    }

    /// All groups.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The full membership table.
    pub fn membership(&self) -> &[usize] {
        &self.membership
    }

    /// True when every group is a contiguous index range (required by the
    /// CSR-k `index2` representation).
    pub fn is_contiguous(&self) -> bool {
        self.groups
            .iter()
            .all(|g| g.windows(2).all(|w| w[1] == w[0] + 1))
    }

    /// Builds the coarse graph `G2`: super-vertices are the groups, an edge
    /// connects two distinct super-vertices when any of their members are
    /// adjacent in the fine graph, and the weight of a super-vertex is the sum
    /// of its members' weights.
    pub fn coarse_graph(&self, fine: &Graph) -> Graph {
        let ng = self.num_groups();
        let mut adj_ptr = Vec::with_capacity(ng + 1);
        let mut adj = Vec::new();
        let mut weights = Vec::with_capacity(ng);
        adj_ptr.push(0);
        let mut stamp = vec![usize::MAX; ng];
        for s in 0..ng {
            let mut w = 0usize;
            let mut nbrs = Vec::new();
            for &v in &self.groups[s] {
                w += fine.weight(v);
                for &u in fine.neighbors(v) {
                    let t = self.membership[u];
                    if t != s && stamp[t] != s {
                        stamp[t] = s;
                        nbrs.push(t);
                    }
                }
            }
            nbrs.sort_unstable();
            adj.extend_from_slice(&nbrs);
            weights.push(w);
            adj_ptr.push(adj.len());
        }
        Graph::from_raw(adj_ptr, adj, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::generators;

    fn grid_graph(nx: usize, ny: usize) -> Graph {
        Graph::from_symmetric_csr(&generators::grid2d_laplacian(nx, ny).unwrap())
    }

    #[test]
    fn contiguous_rows_partitions_evenly() {
        let g = grid_graph(6, 6);
        let c = Coarsening::coarsen(&g, CoarseningStrategy::ContiguousRows { rows_per_group: 4 });
        assert_eq!(c.num_groups(), 9);
        assert!(c.is_contiguous());
        for s in 0..c.num_groups() {
            assert_eq!(c.group(s).len(), 4);
            for &v in c.group(s) {
                assert_eq!(c.group_of(v), s);
            }
        }
    }

    #[test]
    fn contiguous_rows_handles_remainder() {
        let g = grid_graph(5, 2); // 10 vertices
        let c = Coarsening::coarsen(&g, CoarseningStrategy::ContiguousRows { rows_per_group: 4 });
        assert_eq!(c.num_groups(), 3);
        assert_eq!(c.group(2).len(), 2);
    }

    #[test]
    fn membership_is_a_partition_for_all_strategies() {
        let g = grid_graph(7, 5);
        for strat in [
            CoarseningStrategy::ContiguousRows { rows_per_group: 3 },
            CoarseningStrategy::HeavyEdgeMatching,
        ] {
            let c = Coarsening::coarsen(&g, strat);
            let mut seen = vec![false; g.n()];
            for s in 0..c.num_groups() {
                for &v in c.group(s) {
                    assert!(!seen[v], "{strat:?}: vertex {v} appears twice");
                    seen[v] = true;
                    assert_eq!(c.group_of(v), s);
                }
            }
            assert!(seen.iter().all(|&b| b), "{strat:?}: some vertex unassigned");
        }
    }

    #[test]
    fn heavy_edge_matching_pairs_adjacent_vertices() {
        let g = grid_graph(4, 4);
        let c = Coarsening::coarsen(&g, CoarseningStrategy::HeavyEdgeMatching);
        for s in 0..c.num_groups() {
            let grp = c.group(s);
            assert!(grp.len() <= 2);
            if grp.len() == 2 {
                assert!(g.has_edge(grp[0], grp[1]), "matched pair must be adjacent");
            }
        }
        // A 4x4 grid has a perfect matching, so every group should be a pair.
        assert_eq!(c.num_groups(), 8);
    }

    #[test]
    fn coarse_graph_preserves_connectivity_structure() {
        let g = grid_graph(6, 6);
        let c = Coarsening::coarsen(&g, CoarseningStrategy::ContiguousRows { rows_per_group: 6 });
        let g2 = c.coarse_graph(&g);
        assert_eq!(g2.n(), 6);
        // Row-groups of a grid form a path in the coarse graph.
        assert_eq!(g2.degree(0), 1);
        assert_eq!(g2.degree(2), 2);
        // Coarse weights sum to the fine weights.
        let fine_total: usize = (0..g.n()).map(|v| g.weight(v)).sum();
        let coarse_total: usize = (0..g2.n()).map(|v| g2.weight(v)).sum();
        assert_eq!(fine_total, coarse_total);
    }

    #[test]
    fn coarse_graph_has_no_self_loops() {
        let g = grid_graph(9, 3);
        for strat in [
            CoarseningStrategy::ContiguousRows { rows_per_group: 5 },
            CoarseningStrategy::HeavyEdgeMatching,
        ] {
            let c = Coarsening::coarsen(&g, strat);
            let g2 = c.coarse_graph(&g);
            for s in 0..g2.n() {
                assert!(!g2.neighbors(s).contains(&s));
            }
        }
    }

    #[test]
    fn figure1_style_pairing_produces_five_super_rows() {
        // Figure 1 collapses the 9-vertex example into 5 super-vertices
        // (four pairs and one singleton).
        let l = generators::paper_figure1_l();
        let g = Graph::from_lower_triangular(&l);
        let c = Coarsening::coarsen(&g, CoarseningStrategy::HeavyEdgeMatching);
        assert_eq!(c.num_groups(), 5);
        let sizes: Vec<usize> = (0..5).map(|s| c.group(s).len()).collect();
        let pairs = sizes.iter().filter(|&&s| s == 2).count();
        let singles = sizes.iter().filter(|&&s| s == 1).count();
        assert_eq!((pairs, singles), (4, 1));
    }
}
