//! Integration tests of `analysis::solve_bytes`, the compulsory traffic of one
//! sweep that the roofline bound divides by the stream bandwidth: it is exact
//! arithmetic over the lower factor, only the value term follows the slab
//! precision, it is deterministic, and the benchmark's shim returns it.

use sts_k::core::analysis::{self, SolveBytesModel};
use sts_k::core::{Method, PrecisionPolicy, SimulatedExecutor, StsStructure};
use sts_k::matrix::suite::{SuiteId, SuiteScale, TestSuite};
use sts_k::matrix::LowerTriangularCsr;
use sts_k::numa::topology::NumaTopology;

const PRECISIONS: [PrecisionPolicy; 2] = [
    PrecisionPolicy::ValuesF64,
    PrecisionPolicy::ValuesF32WithRefinement,
];

fn lower_factors() -> Vec<(SuiteId, LowerTriangularCsr)> {
    let ids = [
        SuiteId::G1,
        SuiteId::D1,
        SuiteId::S1,
        SuiteId::D2,
        SuiteId::D6,
    ];
    TestSuite::generate_subset(SuiteScale::Tiny, &ids)
        .expect("suite generation succeeds")
        .matrices
        .iter()
        .map(|m| (m.id, m.lower().unwrap()))
        .collect()
}

fn every_structure(f: impl Fn(SuiteId, &LowerTriangularCsr, Method, &StsStructure)) {
    for (id, l) in lower_factors() {
        for method in Method::all() {
            f(id, &l, method, &method.build(&l, 16).unwrap());
        }
    }
}

#[test]
fn the_count_is_exact_arithmetic_over_the_lower_factor() {
    // Every method permutes the nonzeros of L without adding or dropping any,
    // so each streams the off-diagonal values once, the f64 reciprocal
    // diagonal once, two row pointers, and b and x once.
    every_structure(|id, l, method, s| {
        let n = l.n() as u64;
        let off_diagonal = l.nnz() as u64 - n;
        let row_pointers = 2 * (n + 1) * std::mem::size_of::<usize>() as u64;
        for precision in PRECISIONS {
            let expect = SolveBytesModel {
                n: l.n(),
                value_bytes: off_diagonal * precision.value_bytes() as u64 + 8 * n,
                index_bytes: off_diagonal * 4 + row_pointers,
                vector_bytes: 16 * n,
            };
            assert_eq!(
                analysis::solve_bytes(s, precision),
                expect,
                "{} on {} under {precision:?}",
                method.label(),
                id.label()
            );
        }
    });
}

#[test]
fn demoting_the_slabs_changes_only_the_value_term() {
    every_structure(|id, _, method, s| {
        let wide = analysis::solve_bytes(s, PrecisionPolicy::ValuesF64);
        let narrow = analysis::solve_bytes(s, PrecisionPolicy::ValuesF32WithRefinement);
        let context = format!("{} on {}", method.label(), id.label());
        assert_eq!(wide.n, narrow.n, "{context}");
        assert_eq!(wide.index_bytes, narrow.index_bytes, "{context}");
        assert_eq!(wide.vector_bytes, narrow.vector_bytes, "{context}");
        // Each u32 column index pairs with one slab value, which loses 4 of
        // its 8 bytes.
        let slab_nnz =
            (wide.index_bytes - 2 * (wide.n as u64 + 1) * std::mem::size_of::<usize>() as u64) / 4;
        assert_eq!(
            wide.value_bytes - narrow.value_bytes,
            4 * slab_nnz,
            "{context}"
        );
    });
}

#[test]
fn f32_slabs_lower_the_total_by_a_smaller_share_than_the_values() {
    // Why the doc comment quotes total bytes per row beside value bytes per
    // row: the diagonal, indices and vectors do not shrink.
    every_structure(|id, _, method, s| {
        let wide = analysis::solve_bytes(s, PrecisionPolicy::ValuesF64);
        let narrow = analysis::solve_bytes(s, PrecisionPolicy::ValuesF32WithRefinement);
        let value_share = 1.0 - narrow.value_bytes_per_row() / wide.value_bytes_per_row();
        let total_share = 1.0 - narrow.total_bytes_per_row() / wide.total_bytes_per_row();
        assert!(
            0.0 < total_share && total_share < value_share && value_share < 0.5,
            "{} on {}: total falls {total_share:.3}, values fall {value_share:.3}",
            method.label(),
            id.label()
        );
    });
}

#[test]
fn the_structural_counts_are_identical_across_builds() {
    // The structural paper figures are compared byte for byte between
    // commits, so a rebuild of the same matrix must reproduce every count.
    for (id, l) in lower_factors() {
        for method in Method::all() {
            let a = method.build(&l, 16).unwrap();
            let b = method.build(&l, 16).unwrap();
            let context = format!("{} on {}", method.label(), id.label());
            assert_eq!(
                analysis::parallelism_stats(&a),
                analysis::parallelism_stats(&b),
                "{context}"
            );
            assert_eq!(
                analysis::largest_pack(&a),
                analysis::largest_pack(&b),
                "{context}"
            );
            for precision in PRECISIONS {
                assert_eq!(
                    analysis::solve_bytes(&a, precision),
                    analysis::solve_bytes(&b, precision),
                    "{context}"
                );
            }
        }
    }
}

#[test]
fn the_benchmark_shim_returns_solve_bytes_at_every_thread_count() {
    // The repository benchmark reaches the count through these two names;
    // the topology it passes must not change the answer.
    every_structure(|id, _, method, s| {
        for threads in [1, 2, 16] {
            let shim = SimulatedExecutor::new(NumaTopology::uma(threads));
            for precision in PRECISIONS {
                assert_eq!(
                    shim.model_solve_bytes(s, precision),
                    analysis::solve_bytes(s, precision),
                    "{} on {} at {threads} threads",
                    method.label(),
                    id.label()
                );
            }
        }
    });
}
