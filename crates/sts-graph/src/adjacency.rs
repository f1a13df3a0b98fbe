//! Undirected adjacency graphs in CSR form.
//!
//! A [`Graph`] is the structure-only view of a symmetric sparse matrix: the
//! vertex set is the row set, and an edge `{u, v}` exists when `A[u][v] != 0`
//! for `u != v` (the diagonal never contributes an edge). This is the graph
//! `G1` of the paper when built from `A = L + Lᵀ`, and the graph `G2` of the
//! super-rows when built from their predecessor lists
//! ([`Graph::from_predecessors`]) or by [`coarsening`](crate::coarsen) `G1`.

use sts_matrix::{CsrMatrix, LowerTriangularCsr};

/// An undirected graph stored as CSR adjacency lists with per-vertex weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    adj_ptr: Vec<usize>,
    adj: Vec<usize>,
    /// Per-vertex weight; for `G1` this is the number of nonzeros of the row
    /// of `L`, for coarse graphs it is the sum over the constituent rows.
    weights: Vec<usize>,
}

impl Graph {
    /// Builds a graph from raw CSR adjacency arrays.
    ///
    /// # Panics
    /// Panics (in debug builds) if the arrays are inconsistent; callers inside
    /// this crate construct them correctly by design.
    pub fn from_raw(adj_ptr: Vec<usize>, adj: Vec<usize>, weights: Vec<usize>) -> Self {
        debug_assert_eq!(adj_ptr.len(), weights.len() + 1);
        debug_assert_eq!(*adj_ptr.last().unwrap_or(&0), adj.len());
        Graph {
            adj_ptr,
            adj,
            weights,
        }
    }

    /// Builds the graph of a symmetric matrix (edges = off-diagonal entries).
    /// Vertex weights are the row nonzero counts of the matrix.
    pub fn from_symmetric_csr(a: &CsrMatrix) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "graph requires a square matrix");
        let n = a.nrows();
        let mut adj_ptr = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(a.nnz());
        let mut weights = Vec::with_capacity(n);
        adj_ptr.push(0);
        for r in 0..n {
            for &c in a.row_cols(r) {
                if c != r {
                    adj.push(c);
                }
            }
            weights.push(a.row_nnz(r));
            adj_ptr.push(adj.len());
        }
        Graph {
            adj_ptr,
            adj,
            weights,
        }
    }

    /// Builds `G1 = G(L + Lᵀ)` directly from a lower-triangular operand
    /// without materialising the symmetric matrix values. Vertex weights are
    /// the row counts of `L`.
    ///
    /// One counting pass and one scatter pass; the adjacency comes out
    /// sorted without a sort. Rows are scattered in increasing order, so a
    /// vertex first receives its lower neighbours (its own row of `L`,
    /// ascending) and then its upper neighbours (the later rows that name
    /// it, ascending).
    pub fn from_lower_triangular(l: &LowerTriangularCsr) -> Self {
        let (adj_ptr, adj) = lower_adjacency(l.n(), |i| l.row_off_diag_cols(i));
        let weights = (0..l.n()).map(|i| l.row_nnz(i)).collect();
        Graph {
            adj_ptr,
            adj,
            weights,
        }
    }

    /// The graph [`Graph::from_symmetric_csr`] returns for `L + Lᵀ`, built
    /// from `L` without forming `L + Lᵀ`: the edges of
    /// [`Graph::from_lower_triangular`], with each vertex weighted by its row
    /// count in `L + Lᵀ` (its degree plus the diagonal).
    pub fn from_lower_triangular_symmetrized(l: &LowerTriangularCsr) -> Self {
        let (adj_ptr, adj) = lower_adjacency(l.n(), |i| l.row_off_diag_cols(i));
        let weights = adj_ptr.windows(2).map(|w| w[1] - w[0] + 1).collect();
        Graph {
            adj_ptr,
            adj,
            weights,
        }
    }

    /// The undirected graph with an edge `{i, j}` for every `j` in
    /// `preds[i]`, each vertex weighted by `weights`: the super-row graph
    /// `G2` from the super-row predecessor lists. Every list must be sorted,
    /// free of duplicates and below its vertex; the adjacency then comes out
    /// sorted by the scatter of [`Graph::from_lower_triangular`].
    ///
    /// # Panics
    /// Panics if `weights` and `preds` differ in length.
    pub fn from_predecessors(preds: &[Vec<usize>], weights: Vec<usize>) -> Self {
        assert_eq!(preds.len(), weights.len(), "one weight per vertex");
        let (adj_ptr, adj) = lower_adjacency(preds.len(), |i| &preds[i]);
        Graph {
            adj_ptr,
            adj,
            weights,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Neighbours of vertex `v` (sorted, without `v` itself).
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[self.adj_ptr[v]..self.adj_ptr[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj_ptr[v + 1] - self.adj_ptr[v]
    }

    /// Weight of vertex `v`.
    pub fn weight(&self, v: usize) -> usize {
        self.weights[v]
    }

    /// The vertex of maximum degree (ties broken by lowest index); `None` for
    /// an empty graph.
    pub fn max_degree_vertex(&self) -> Option<usize> {
        (0..self.n()).max_by_key(|&v| (self.degree(v), usize::MAX - v))
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// True when `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Relabels the vertices: vertex `new` of the result is vertex
    /// `new_to_old[new]` of `self`, and weights travel with their vertices.
    ///
    /// One scatter pass, no sort. The graph is undirected, so the new
    /// neighbours of `u` are the new vertices `v` whose old vertex is
    /// adjacent to `u`'s; visiting `v` in increasing order and appending `v`
    /// to each neighbour's list leaves every list sorted.
    ///
    /// # Panics
    /// Panics if `new_to_old` is not a permutation of `0..n`.
    pub fn relabel(&self, new_to_old: &[usize]) -> Graph {
        let n = self.n();
        assert_eq!(new_to_old.len(), n, "relabelling must cover every vertex");
        let mut old_to_new = vec![usize::MAX; n];
        for (new, &old) in new_to_old.iter().enumerate() {
            assert!(
                old_to_new[old] == usize::MAX,
                "relabelling repeats vertex {old}"
            );
            old_to_new[old] = new;
        }
        let mut adj_ptr = vec![0usize; n + 1];
        for (v, &old) in new_to_old.iter().enumerate() {
            adj_ptr[v + 1] = adj_ptr[v] + self.degree(old);
        }
        let mut adj = vec![0usize; self.adj.len()];
        let mut next = adj_ptr[..n].to_vec();
        for (v, &old) in new_to_old.iter().enumerate() {
            for &o in self.neighbors(old) {
                let u = old_to_new[o];
                adj[next[u]] = v;
                next[u] += 1;
            }
        }
        let weights = new_to_old.iter().map(|&old| self.weights[old]).collect();
        Graph {
            adj_ptr,
            adj,
            weights,
        }
    }
}

/// The CSR adjacency of the undirected graph whose vertex `i` has the lower
/// neighbours `lower(i)` (each list sorted and below `i`): a degree count,
/// then one scatter of the lists in vertex order, which leaves every list
/// sorted.
fn lower_adjacency<'a>(n: usize, lower: impl Fn(usize) -> &'a [usize]) -> (Vec<usize>, Vec<usize>) {
    // Each pair (i, j), j in lower(i), contributes the edge {i, j}.
    let mut adj_ptr = vec![0usize; n + 1];
    for i in 0..n {
        for &j in lower(i) {
            adj_ptr[i + 1] += 1;
            adj_ptr[j + 1] += 1;
        }
    }
    for i in 0..n {
        adj_ptr[i + 1] += adj_ptr[i];
    }
    let mut adj = vec![0usize; adj_ptr[n]];
    let mut next = adj_ptr[..n].to_vec();
    for i in 0..n {
        for &j in lower(i) {
            adj[next[i]] = j;
            next[i] += 1;
            adj[next[j]] = i;
            next[j] += 1;
        }
    }
    (adj_ptr, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::generators;

    fn figure1_graph() -> Graph {
        Graph::from_lower_triangular(&generators::paper_figure1_l())
    }

    #[test]
    fn figure1_graph_has_expected_edges() {
        let g = figure1_graph();
        assert_eq!(g.n(), 9);
        // 12 strictly-lower entries = 12 undirected edges.
        assert_eq!(g.num_edges(), 12);
        // Vertex 9 (index 8) is adjacent to 1, 2, 8 (indices 0, 1, 7).
        assert_eq!(g.neighbors(8), &[0, 1, 7]);
        // Vertex 7 (index 6) is adjacent to 4, 5, 6, 8 (indices 3, 4, 5, 7).
        assert_eq!(g.neighbors(6), &[3, 4, 5, 7]);
    }

    #[test]
    fn from_symmetric_matches_from_lower_triangular() {
        let l = generators::paper_figure1_l();
        let ga = Graph::from_symmetric_csr(&l.symmetrized());
        let gb = Graph::from_lower_triangular(&l);
        assert_eq!(ga.n(), gb.n());
        for v in 0..ga.n() {
            assert_eq!(ga.neighbors(v), gb.neighbors(v));
        }
    }

    #[test]
    fn degrees_and_max_degree_vertex() {
        let g = figure1_graph();
        assert_eq!(g.degree(6), 4);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.max_degree_vertex(), Some(6));
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = figure1_graph();
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
        assert!(g.has_edge(8, 0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn weights_are_row_nnz() {
        let l = generators::paper_figure1_l();
        let g = Graph::from_lower_triangular(&l);
        for v in 0..g.n() {
            assert_eq!(g.weight(v), l.row_nnz(v));
        }
    }

    #[test]
    fn relabel_preserves_edge_structure() {
        let g = figure1_graph();
        let perm: Vec<usize> = (0..g.n()).rev().collect();
        let p = g.relabel(&perm);
        assert_eq!(p.num_edges(), g.num_edges());
        // Edge {8, 0} becomes {0, 8} after reversal.
        assert!(p.has_edge(0, 8));
        // Weights travel with their vertices.
        assert_eq!(p.weight(0), g.weight(8));
    }

    #[test]
    fn from_lower_triangular_symmetrized_is_the_graph_of_l_plus_lt() {
        for l in [
            generators::paper_figure1_l(),
            generators::random_lower_triangular(200, 3.0, 4).unwrap(),
        ] {
            // `symmetrized` doubles the diagonal, which changes no pattern.
            assert_eq!(
                Graph::from_lower_triangular_symmetrized(&l),
                Graph::from_symmetric_csr(&l.symmetrized())
            );
        }
    }

    #[test]
    fn relabel_equals_relabelling_each_list_and_sorting_it() {
        let l = generators::random_lower_triangular(200, 3.0, 7).unwrap();
        let g = Graph::from_lower_triangular(&l);
        let n = g.n();
        let new_to_old: Vec<usize> = (0..n).map(|i| (i * 73 + 11) % n).collect();
        let mut old_to_new = vec![0; n];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old] = new;
        }
        let r = g.relabel(&new_to_old);
        for (v, &old) in new_to_old.iter().enumerate() {
            let mut expected: Vec<usize> =
                g.neighbors(old).iter().map(|&o| old_to_new[o]).collect();
            expected.sort_unstable();
            assert_eq!(r.neighbors(v), expected.as_slice());
            assert_eq!(r.weight(v), g.weight(old));
        }
    }

    #[test]
    fn from_predecessors_is_the_graph_of_the_lower_lists() {
        let l = generators::random_lower_triangular(200, 3.0, 5).unwrap();
        let preds: Vec<Vec<usize>> = (0..l.n())
            .map(|i| l.row_off_diag_cols(i).to_vec())
            .collect();
        let weights: Vec<usize> = (0..l.n()).map(|i| l.row_nnz(i)).collect();
        assert_eq!(
            Graph::from_predecessors(&preds, weights),
            Graph::from_lower_triangular(&l)
        );
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::from_raw(vec![0], vec![], vec![]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.max_degree_vertex(), None);
    }

    #[test]
    fn grid_graph_has_grid_degrees() {
        let a = generators::grid2d_laplacian(4, 4).unwrap();
        let g = Graph::from_symmetric_csr(&a);
        assert_eq!(g.n(), 16);
        // corner vertices have degree 2, interior 4
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(5), 4);
    }
}
