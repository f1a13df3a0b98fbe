//! The STS-k construction pipeline and the four named methods of the paper's
//! evaluation.
//!
//! [`StsBuilder`] turns a lower-triangular operand into an
//! [`StsStructure`] by composing the steps of
//! Section 3:
//!
//! 1. apply RCM to the graph `G1` of `A = L + Lᵀ` — all methods receive the
//!    RCM-ordered matrix, as in the evaluation setup. `G1` is built straight
//!    from `L`, and `A` itself is never formed: what the later steps read is
//!    `G1` relabelled into the RCM order and `L` permuted into it
//!    ([`LowerTriangularCsr::permute_symmetric`]), each dropped after its
//!    last reader;
//! 2. (k ≥ 2) coarsen the RCM-ordered graph into super-rows of roughly equal
//!    work;
//! 3. partition the (super-)rows into packs by greedy coloring or dependency
//!    level sets, and order the packs by increasing size;
//! 4. (k ≥ 3) reorder the super-rows inside each pack by RCM on the pack's
//!    DAR graph so consecutive tasks share inputs;
//! 5. assemble the global permutation and build the reordered operand
//!    `lower(P (L + Lᵀ − D) Pᵀ)` (`D` is `L`'s diagonal, kept as is) from `L`
//!    in two counting passes; `P A Pᵀ` is not built and no row is sorted.
//!
//! The four evaluation methods are exposed as [`Method`] presets:
//! `CSR-LS`, `CSR-COL`, `CSR-3-LS` and `STS-3` (a.k.a. `CSR-3-COL`).

use serde::Serialize;
use sts_graph::{rcm, Coarsening, CoarseningStrategy, ColoringOrder, Graph, Permutation};
use sts_matrix::{LowerTriangularCsr, MatrixError};

use crate::csrk::{Result, StsStructure};
use crate::pack::Packs;
use crate::reorder::{reorder_pack_by_dar, super_row_inputs};

/// The ordering used to extract packs (independent sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Ordering {
    /// Greedy graph coloring (Schreiber–Tang), the paper's recommended choice.
    Coloring,
    /// Dependency level sets (Saltz aggregation).
    LevelSet,
}

/// How super-rows are sized during coarsening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SuperRowSizing {
    /// A fixed number of consecutive rows per super-row (the paper uses 80 on
    /// the Intel node and 320 on the AMD node).
    Rows(usize),
}

/// The four methods compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Method {
    /// Flat compressed sparse row solve with level-set packs (the reference).
    CsrLs,
    /// Flat compressed sparse row solve with coloring packs.
    CsrCol,
    /// 3-level sub-structuring with level-set packs.
    Csr3Ls,
    /// 3-level sub-structuring with coloring packs — STS-3, the paper's
    /// contribution (also written CSR-3-COL).
    Sts3,
}

impl Method {
    /// All four methods in the order the paper's figures list them.
    pub fn all() -> [Method; 4] {
        [Method::CsrLs, Method::Csr3Ls, Method::CsrCol, Method::Sts3]
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Method::CsrLs => "CSR-LS",
            Method::CsrCol => "CSR-COL",
            Method::Csr3Ls => "CSR-3-LS",
            Method::Sts3 => "STS-3",
        }
    }

    /// The builder preset for this method. `rows_per_super_row` only affects
    /// the 3-level methods (pass the paper's 80 for an Intel-like machine or
    /// 320 for an AMD-like machine).
    pub fn builder(&self, rows_per_super_row: usize) -> StsBuilder {
        match self {
            Method::CsrLs => StsBuilder::new(1).ordering(Ordering::LevelSet),
            Method::CsrCol => StsBuilder::new(1).ordering(Ordering::Coloring),
            Method::Csr3Ls => StsBuilder::new(3)
                .ordering(Ordering::LevelSet)
                .super_row_sizing(SuperRowSizing::Rows(rows_per_super_row)),
            Method::Sts3 => StsBuilder::new(3)
                .ordering(Ordering::Coloring)
                .super_row_sizing(SuperRowSizing::Rows(rows_per_super_row)),
        }
    }

    /// Builds the structure for this method with the given super-row size.
    pub fn build(&self, l: &LowerTriangularCsr, rows_per_super_row: usize) -> Result<StsStructure> {
        self.builder(rows_per_super_row).build(l)
    }
}

/// Configurable construction pipeline for STS-k structures.
#[derive(Debug, Clone, PartialEq)]
pub struct StsBuilder {
    k: usize,
    ordering: Ordering,
    sizing: SuperRowSizing,
    apply_rcm: bool,
    coloring_order: ColoringOrder,
    within_pack_rcm: bool,
    order_packs_by_size: bool,
}

impl StsBuilder {
    /// Creates a builder for a `k`-level structure. `k = 1` is the flat
    /// reference (packs of individual rows); `k = 2` adds super-rows;
    /// `k = 3` (the paper's STS-3) additionally reorders each pack through its
    /// DAR graph.
    ///
    /// # Panics
    /// Panics if `k` is 0 or greater than 3.
    pub fn new(k: usize) -> Self {
        assert!((1..=3).contains(&k), "k must be 1, 2 or 3 (got {k})");
        StsBuilder {
            k,
            ordering: Ordering::Coloring,
            sizing: SuperRowSizing::Rows(80),
            apply_rcm: true,
            coloring_order: ColoringOrder::LargestDegreeFirst,
            within_pack_rcm: k >= 3,
            order_packs_by_size: true,
        }
    }

    /// Selects the pack-extraction ordering.
    pub fn ordering(mut self, ordering: Ordering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Selects how super-rows are sized (ignored when `k == 1`).
    pub fn super_row_sizing(mut self, sizing: SuperRowSizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// Enables or disables the initial RCM ordering (enabled by default; the
    /// paper presents all methods with the RCM-ordered matrix).
    pub fn apply_rcm(mut self, yes: bool) -> Self {
        self.apply_rcm = yes;
        self
    }

    /// Selects the greedy-coloring vertex order.
    pub fn coloring_order(mut self, order: ColoringOrder) -> Self {
        self.coloring_order = order;
        self
    }

    /// Enables or disables the within-pack DAR reordering (enabled by default
    /// when `k >= 3`); exposed for the ablation benchmarks.
    pub fn within_pack_rcm(mut self, yes: bool) -> Self {
        self.within_pack_rcm = yes;
        self
    }

    /// Enables or disables ordering the packs by increasing size (enabled by
    /// default); exposed for the ablation benchmarks.
    pub fn order_packs_by_size(mut self, yes: bool) -> Self {
        self.order_packs_by_size = yes;
        self
    }

    /// The configured number of levels.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Runs the pipeline on a lower-triangular operand.
    pub fn build(&self, l: &LowerTriangularCsr) -> Result<StsStructure> {
        let n = l.n();
        if n == 0 {
            return StsStructure::new(
                self.k,
                self.ordering,
                vec![0],
                vec![0],
                l.clone(),
                Permutation::identity(0),
            );
        }
        // 1. RCM on G1 = G(L + Lᵀ), built from L; then G1 relabelled and L
        //    permuted into the RCM order. Nothing symmetric is materialised,
        //    and each intermediate is dropped after its last reader: the
        //    build's peak memory is the sum of what is alive at once.
        let g1 = Graph::from_lower_triangular_symmetrized(l);
        let perm0 = if self.apply_rcm {
            rcm::reverse_cuthill_mckee(&g1)
        } else {
            Permutation::identity(n)
        };
        let g1r = g1.relabel(perm0.new_to_old());
        drop(g1);
        let l1 = l.permute_symmetric(perm0.new_to_old())?;

        // 2. Coarsen into super-rows (k >= 2); k == 1 keeps singleton groups.
        let (groups, entity_graph) = if self.k == 1 {
            let groups: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            (groups, g1r)
        } else {
            let SuperRowSizing::Rows(r) = self.sizing;
            let strategy = CoarseningStrategy::ContiguousRows {
                rows_per_group: r.max(1),
            };
            let coarsening = Coarsening::coarsen(&g1r, strategy);
            let coarse = coarsening.coarse_graph(&g1r);
            (coarsening.groups().to_vec(), coarse)
        };
        let entity_sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();

        // 3. Packs by coloring or level sets, ordered by increasing size.
        let mut packs = match self.ordering {
            Ordering::Coloring => Packs::by_coloring(&entity_graph, self.coloring_order),
            Ordering::LevelSet => {
                let preds = entity_predecessors(&l1, &groups);
                Packs::by_level_set(&preds)
            }
        };
        drop(entity_graph);
        if self.order_packs_by_size {
            packs.order_by_increasing_size(&entity_sizes);
        }

        // 4. Within-pack DAR reordering (k >= 3).
        let inputs = if self.within_pack_rcm {
            super_row_inputs(&l1, &groups)
        } else {
            Vec::new()
        };
        drop(l1);
        let ordered_packs: Vec<Vec<usize>> = packs
            .all()
            .iter()
            .map(|pack| {
                if self.within_pack_rcm {
                    reorder_pack_by_dar(pack, &inputs)
                } else {
                    let mut p = pack.clone();
                    p.sort_unstable();
                    p
                }
            })
            .collect();
        drop(inputs);

        // 5. Assemble the global ordering and the index arrays, then the
        //    operand lower(P (L + Lᵀ − D) Pᵀ) straight from L.
        let mut index3 = Vec::with_capacity(ordered_packs.len() + 1);
        let mut index2 = Vec::with_capacity(groups.len() + 1);
        let mut order1: Vec<usize> = Vec::with_capacity(n);
        index3.push(0);
        index2.push(0);
        for pack in &ordered_packs {
            for &s in pack {
                order1.extend_from_slice(&groups[s]);
                index2.push(order1.len());
            }
            index3.push(index2.len() - 1);
        }
        let final_new_to_old: Vec<usize> = order1.iter().map(|&r1| perm0.old_of(r1)).collect();
        let perm = Permutation::from_new_to_old(final_new_to_old).ok_or_else(|| {
            MatrixError::InvalidStructure("assembled ordering is not a permutation".into())
        })?;
        let l_final = l.permute_symmetric(perm.new_to_old())?;
        StsStructure::new(self.k, self.ordering, index3, index2, l_final, perm)
    }
}

/// Computes, for every entity (super-row), the list of entities it depends on
/// (strictly smaller indices, suitable for
/// [`Packs::by_level_set`](crate::pack::Packs::by_level_set)). Entity `I`
/// depends on entity `J < I` when any row of `I` has a strictly-lower nonzero
/// column owned by `J`.
pub fn entity_predecessors(l: &LowerTriangularCsr, groups: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut group_of = vec![usize::MAX; l.n()];
    for (s, g) in groups.iter().enumerate() {
        for &r in g {
            group_of[r] = s;
        }
    }
    groups
        .iter()
        .enumerate()
        .map(|(s, g)| {
            let mut preds: Vec<usize> = g
                .iter()
                .flat_map(|&r| l.row_off_diag_cols(r).iter().copied())
                .map(|c| group_of[c])
                .filter(|&j| j != s)
                .collect();
            preds.sort_unstable();
            preds.dedup();
            preds
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::generators;
    use sts_matrix::ops;

    fn check_solves_correctly(s: &StsStructure) {
        let n = s.n();
        let x_true: Vec<f64> = (0..n).map(|i| 0.5 + (i % 7) as f64).collect();
        let b = s.lower().multiply(&x_true).unwrap();
        let x = s.solve_sequential(&b).unwrap();
        assert!(
            ops::relative_error_inf(&x, &x_true) < 1e-10,
            "solve of the reordered system must reproduce the manufactured solution"
        );
    }

    #[test]
    fn all_methods_build_and_solve_on_the_paper_example() {
        let l = generators::paper_figure1_l();
        for method in Method::all() {
            let s = method.build(&l, 2).unwrap();
            assert_eq!(s.n(), 9);
            s.validate().unwrap();
            check_solves_correctly(&s);
        }
    }

    #[test]
    fn all_methods_build_and_solve_on_generator_matrices() {
        let matrices = [
            generators::grid2d_laplacian(12, 12).unwrap(),
            generators::triangulated_grid(10, 10, 3).unwrap(),
            generators::road_network(14, 14, 0.6, 1).unwrap(),
            generators::random_geometric(250, 8.0, 2).unwrap(),
        ];
        for a in &matrices {
            let l = generators::lower_operand(a).unwrap();
            for method in Method::all() {
                let s = method.build(&l, 8).unwrap();
                assert_eq!(s.n(), l.n());
                assert_eq!(
                    s.nnz(),
                    l.nnz(),
                    "reordering must preserve the nonzero count"
                );
                s.validate().unwrap();
                check_solves_correctly(&s);
            }
        }
    }

    #[test]
    fn coloring_yields_fewer_packs_than_level_set() {
        let a = generators::triangulated_grid(20, 20, 7).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let col = Method::CsrCol.build(&l, 8).unwrap();
        let ls = Method::CsrLs.build(&l, 8).unwrap();
        assert!(
            col.num_packs() < ls.num_packs(),
            "coloring packs ({}) should be fewer than level-set packs ({})",
            col.num_packs(),
            ls.num_packs()
        );
    }

    #[test]
    fn k3_reduces_pack_count_relative_to_k1_for_level_sets() {
        // Section 3.2: level sets applied to G2 produce fewer levels than on G1.
        let a = generators::grid2d_9point(24, 24).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let flat = Method::CsrLs.build(&l, 8).unwrap();
        let k3 = Method::Csr3Ls.build(&l, 8).unwrap();
        assert!(
            k3.num_packs() < flat.num_packs(),
            "CSR-3-LS packs ({}) should be fewer than CSR-LS packs ({})",
            k3.num_packs(),
            flat.num_packs()
        );
    }

    #[test]
    fn packs_are_ordered_by_increasing_size() {
        let a = generators::triangulated_grid(16, 16, 1).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = Method::Sts3.build(&l, 8).unwrap();
        let sizes = s.components_per_pack();
        assert!(
            sizes.windows(2).all(|w| w[0] <= w[1]),
            "pack sizes must be non-decreasing"
        );
    }

    #[test]
    fn super_row_sizing_by_rows_bounds_group_length() {
        let a = generators::grid2d_laplacian(20, 20).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = StsBuilder::new(3)
            .ordering(Ordering::Coloring)
            .super_row_sizing(SuperRowSizing::Rows(16))
            .build(&l)
            .unwrap();
        for sr in 0..s.num_super_rows() {
            assert!(s.super_row_rows(sr).len() <= 16);
        }
        assert!(s.num_super_rows() >= 400 / 16);
    }

    #[test]
    fn disabling_rcm_and_pack_ordering_still_solves() {
        let a = generators::triangulated_grid(10, 10, 9).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = StsBuilder::new(3)
            .ordering(Ordering::Coloring)
            .apply_rcm(false)
            .order_packs_by_size(false)
            .within_pack_rcm(false)
            .super_row_sizing(SuperRowSizing::Rows(4))
            .build(&l)
            .unwrap();
        s.validate().unwrap();
        check_solves_correctly(&s);
    }

    #[test]
    fn k2_builds_super_rows_without_dar_reordering() {
        let a = generators::grid2d_laplacian(12, 12).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        let s = StsBuilder::new(2)
            .ordering(Ordering::Coloring)
            .super_row_sizing(SuperRowSizing::Rows(6))
            .build(&l)
            .unwrap();
        assert_eq!(s.k(), 2);
        assert!(s.num_super_rows() < s.n());
        check_solves_correctly(&s);
    }

    #[test]
    #[should_panic(expected = "k must be 1, 2 or 3")]
    fn k_zero_is_rejected() {
        let _ = StsBuilder::new(0);
    }

    #[test]
    fn empty_matrix_builds_trivially() {
        let coo = sts_matrix::CooMatrix::new(0, 0);
        let l = LowerTriangularCsr::from_csr(&coo.to_csr()).unwrap();
        let s = Method::Sts3.build(&l, 8).unwrap();
        assert_eq!(s.n(), 0);
        assert_eq!(s.num_packs(), 0);
        assert_eq!(s.solve_sequential(&[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn entity_predecessors_point_backwards_only() {
        let l = generators::paper_figure1_l();
        let groups: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]];
        let preds = entity_predecessors(&l, &groups);
        for (i, p) in preds.iter().enumerate() {
            assert!(p.iter().all(|&j| j < i));
        }
        // The last group depends on both earlier groups (rows 6..8 reference
        // columns 3, 4, 5 and 0, 1).
        assert_eq!(preds[2], vec![0, 1]);
    }

    #[test]
    fn method_labels_match_paper_names() {
        assert_eq!(Method::CsrLs.label(), "CSR-LS");
        assert_eq!(Method::CsrCol.label(), "CSR-COL");
        assert_eq!(Method::Csr3Ls.label(), "CSR-3-LS");
        assert_eq!(Method::Sts3.label(), "STS-3");
        assert_eq!(Method::all().len(), 4);
    }

    #[test]
    fn nnz_is_preserved_by_the_reordering() {
        // The permuted operand has exactly the same number of stored entries:
        // the reordering only relabels the symmetric pattern.
        let a = generators::random_geometric(300, 10.0, 5).unwrap();
        let l = generators::lower_operand(&a).unwrap();
        for method in Method::all() {
            let s = method.build(&l, 16).unwrap();
            assert_eq!(s.nnz(), l.nnz());
        }
    }
}
