//! Integration tests on the *quality* of the orderings the pipeline produces:
//! RCM bandwidth reduction, pack-size monotonicity, within-pack input sharing,
//! and the structural claims the paper makes about CSR-k versus the flat
//! formulations.

use sts_k::core::pack::Packs;
use sts_k::core::reorder;
use sts_k::core::{Method, Ordering, StsBuilder, StsStructure, SuperRowSizing};
use sts_k::graph::{metrics, rcm, Graph, Permutation};
use sts_k::matrix::generators;
use sts_k::matrix::suite::{SuiteId, SuiteScale, TestSuite};

/// The external inputs of every super-row of a built structure, in its final
/// numbering, and the super-row of each row.
fn final_super_row_inputs(s: &StsStructure) -> (reorder::SuperRowInputs, Vec<usize>) {
    let mut group_of = vec![0; s.n()];
    for sr in 0..s.num_super_rows() {
        for row in s.super_row_rows(sr) {
            group_of[row] = sr;
        }
    }
    let identity: Vec<usize> = (0..s.n()).collect();
    (
        reorder::super_row_inputs(s.lower(), &identity, &group_of),
        group_of,
    )
}

#[test]
fn rcm_reduces_bandwidth_on_every_suite_class() {
    let suite = TestSuite::generate_subset(
        SuiteScale::Tiny,
        &[SuiteId::G1, SuiteId::D1, SuiteId::D2, SuiteId::D3],
    )
    .unwrap();
    for m in &suite.matrices {
        let g = Graph::from_symmetric_csr(&m.symmetric);
        // Shuffle first so there is something to recover.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<usize> = (0..g.n()).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(17));
        let shuffled = g.relabel(&order);
        let before = metrics::bandwidth(&shuffled, &Permutation::identity(g.n()));
        let after = metrics::bandwidth(&shuffled, &rcm::reverse_cuthill_mckee(&shuffled));
        assert!(
            after < before,
            "{}: RCM should reduce bandwidth ({before} -> {after})",
            m.id.label()
        );
    }
}

#[test]
fn pack_sizes_are_monotone_for_all_methods_when_ordering_is_enabled() {
    let suite = TestSuite::generate_subset(SuiteScale::Tiny, &[SuiteId::D2, SuiteId::D4]).unwrap();
    for m in &suite.matrices {
        let l = m.lower().unwrap();
        for method in Method::all() {
            let s = method.build(&l, 32).unwrap();
            let sizes = s.components_per_pack();
            assert!(
                sizes.windows(2).all(|w| w[0] <= w[1]),
                "{} on {}: pack sizes must be non-decreasing",
                method.label(),
                m.id.label()
            );
        }
    }
}

#[test]
fn within_pack_dar_reordering_improves_consecutive_sharing() {
    // The point of Section 3.4: after RCM on the DAR, consecutive tasks of the
    // big packs share inputs more often than in the unordered construction.
    let a = generators::triangulated_grid(40, 40, 21).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let with = StsBuilder::new(3)
        .ordering(Ordering::Coloring)
        .super_row_sizing(SuperRowSizing::Rows(8))
        .within_pack_rcm(true)
        .build(&l)
        .unwrap();
    let without = StsBuilder::new(3)
        .ordering(Ordering::Coloring)
        .super_row_sizing(SuperRowSizing::Rows(8))
        .within_pack_rcm(false)
        .build(&l)
        .unwrap();

    // Measure sharing on the final structures: fraction of consecutive
    // super-row pairs of the largest pack that reuse at least one
    // previous-pack column.
    let sharing = |s: &StsStructure| -> f64 {
        let p = (0..s.num_packs())
            .max_by_key(|&p| s.pack_rows(p).len())
            .unwrap();
        let inputs = final_super_row_inputs(s).0;
        let pack: Vec<usize> = s.pack_super_rows(p).collect();
        reorder::consecutive_sharing_fraction(&pack, &inputs)
    };
    let f_with = sharing(&with);
    let f_without = sharing(&without);
    assert!(
        f_with >= f_without,
        "DAR reordering should not reduce consecutive input sharing ({f_with} vs {f_without})"
    );
    assert!(
        f_with > 0.25,
        "the reordered largest pack should show substantial consecutive sharing, got {f_with}"
    );
}

#[test]
fn coloring_packs_on_g2_are_independent_sets_of_the_coarse_graph() {
    // The builder's coarse graph G2 — the super-rows' predecessors made
    // symmetric — read off the built structure, whose super-rows are
    // contiguous in the final numbering: no two super-rows of one coloring
    // pack are adjacent in it.
    let a = generators::grid2d_9point(30, 30).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let s = Method::Sts3.build(&l, 10).unwrap();
    let (inputs, group_of) = final_super_row_inputs(&s);
    let preds = inputs.predecessors(&group_of);
    let g2 = Graph::from_predecessors(&preds, vec![1; preds.len()]);
    assert!(g2.num_edges() > 0);
    let packs = Packs::from_partition(
        (0..s.num_packs())
            .map(|p| s.pack_super_rows(p).collect())
            .collect(),
    );
    assert!(packs.is_independent(&g2));
    assert!(packs.respects_dependencies(&preds));
    // A greedy coloring needs at most max degree + 1 colors.
    assert!(packs.num_packs() <= g2.max_degree() + 1);
}

#[test]
fn csr3_ls_does_not_blow_up_the_pack_count_and_shrinks_it_on_mesh_classes() {
    // Section 3.2's argument for applying level sets to G2 rather than G1: the
    // paper reports "small decreases in the number of packs". On wide, path-
    // like road networks the coarse levels can come out essentially equal to
    // the fine levels (grouping is orthogonal to the dependency chains), so we
    // assert a strict decrease only for the mesh/stencil classes and a "no
    // blow-up" bound (+15%) everywhere.
    let suite = TestSuite::generate_subset(
        SuiteScale::Tiny,
        &[SuiteId::D2, SuiteId::D3, SuiteId::D6, SuiteId::S1],
    )
    .unwrap();
    for m in &suite.matrices {
        let l = m.lower().unwrap();
        let flat = Method::CsrLs.build(&l, 32).unwrap();
        let multi = Method::Csr3Ls.build(&l, 32).unwrap();
        let strict = matches!(m.id, SuiteId::D2 | SuiteId::S1);
        if strict {
            assert!(
                multi.num_packs() < flat.num_packs(),
                "{}: CSR-3-LS should have fewer packs ({} vs {})",
                m.id.label(),
                multi.num_packs(),
                flat.num_packs()
            );
        } else {
            assert!(
                multi.num_packs() as f64 <= flat.num_packs() as f64 * 1.15,
                "{}: CSR-3-LS pack count should not blow up ({} vs {})",
                m.id.label(),
                multi.num_packs(),
                flat.num_packs()
            );
        }
    }
}

#[test]
fn super_row_size_controls_task_granularity() {
    let a = generators::grid2d_laplacian(40, 40).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let fine = Method::Sts3.build(&l, 8).unwrap();
    let coarse = Method::Sts3.build(&l, 64).unwrap();
    assert!(fine.num_super_rows() > coarse.num_super_rows());
    // Both still solve correctly.
    for s in [&fine, &coarse] {
        let x_true = vec![1.5; s.n()];
        let b = s.lower().multiply(&x_true).unwrap();
        let x = s.solve_sequential(&b).unwrap();
        assert!(sts_k::matrix::ops::relative_error_inf(&x, &x_true) < 1e-10);
    }
}
