//! Property-based tests on the core invariants of the workspace, using
//! randomly generated sparse triangular systems and graphs.

use proptest::prelude::*;
use sts_k::core::{
    Method, Ordering, ParallelSolver, SolveEngine, SolveOptions, StsBuilder, StsStructure,
    SuperRowSizing, SweepDirection,
};
use sts_k::graph::{rcm, Coloring, ColoringOrder, Graph, LevelSets, Permutation};
use sts_k::matrix::suite::{SuiteScale, TestSuite};
use sts_k::matrix::{generators, ops, CooMatrix, CsrMatrix, LowerTriangularCsr};
use sts_k::numa::Schedule;
use sts_k::sched::cost::InPackCostModel;
use sts_k::sched::dar::DarGraph;
use sts_k::sched::exact::optimal_schedule;
use sts_k::sched::heuristic::{affinity_list_schedule, block_schedule, round_robin_schedule};

/// Strategy: a random lower-triangular operand with n in [1, 60] and an
/// average of up to 4 strictly-lower entries per row.
fn lower_triangular_strategy() -> impl Strategy<Value = LowerTriangularCsr> {
    (1usize..60, 0u8..=4, 0u64..1000).prop_map(|(n, density, seed)| {
        generators::random_lower_triangular(n, density as f64, seed)
            .expect("random operand is always constructible")
    })
}

const SPLIT_ENGINES: [SolveEngine; 2] = [SolveEngine::Sequential, SolveEngine::Split];
const DIRECTIONS: [SweepDirection; 2] = [SweepDirection::Forward, SweepDirection::Transpose];

/// The options-matrix agreement invariant on one structure: every
/// split-layout engine, in both directions, single-RHS and batched, at
/// several worker counts, returns the same bits — lane by lane those of the
/// sequential engine's single-RHS sweep — and that sweep agrees with the
/// plain reference sweep to 1e-12. Returns the first divergence as a message
/// naming the request.
fn engines_match_the_reference_sweeps(s: &StsStructure, nrhs: usize) -> Result<(), String> {
    let n = s.n();
    let x_true: Vec<f64> = (0..n).map(|i| 0.5 + (i % 6) as f64 * 0.4).collect();
    let scalar_solver = ParallelSolver::new(1, Schedule::Static);
    for direction in DIRECTIONS {
        let reference = |b: &[f64]| match direction {
            SweepDirection::Forward => s.solve_sequential(b).unwrap(),
            SweepDirection::Transpose => s.solve_transpose_sequential(b).unwrap(),
        };
        let b = match direction {
            SweepDirection::Forward => s.lower().multiply(&x_true).unwrap(),
            SweepDirection::Transpose => s.lower().multiply_transpose(&x_true).unwrap(),
        };
        let scalar = SolveOptions::default()
            .with_engine(SolveEngine::Sequential)
            .with_direction(direction);
        // Batched right-hand sides: shifted copies of b, expected solutions
        // from the sequential engine's scalar sweep per system.
        let mut bb = vec![0.0; n * nrhs];
        let mut expected = vec![0.0; n * nrhs];
        for r in 0..nrhs {
            let br: Vec<f64> = b.iter().map(|&v| v + r as f64).collect();
            let xr = scalar_solver.solve_with(s, &br, &scalar).unwrap();
            if ops::relative_error_inf(&xr, &reference(&br)) >= 1e-12 {
                return Err(format!(
                    "{direction:?} scalar sweep diverged from the reference sweep (n={n})"
                ));
            }
            for i in 0..n {
                bb[i * nrhs + r] = br[i];
                expected[i * nrhs + r] = xr[i];
            }
        }
        let single: Vec<f64> = expected.iter().step_by(nrhs).copied().collect();
        for threads in [1usize, 2, 4, 8] {
            let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
            for engine in SPLIT_ENGINES {
                let opts = scalar.with_engine(engine);
                for (rhs, want, width) in [(&b, &single, 1), (&bb, &expected, nrhs)] {
                    let x = solver.solve_with(s, rhs, &opts.with_nrhs(width)).unwrap();
                    if x != *want {
                        return Err(format!(
                            "{engine:?} {direction:?} nrhs={width} moved a bit ({threads} threads, n={n})"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// `is_symmetric` as it was computed before the cursor walk: build the
/// transpose and compare arrays.
fn is_symmetric_by_transpose(a: &CsrMatrix, tol: f64) -> bool {
    if a.nrows() != a.ncols() {
        return false;
    }
    let t = a.transpose();
    t.row_ptr() == a.row_ptr()
        && t.col_idx() == a.col_idx()
        && a.values()
            .iter()
            .zip(t.values())
            .all(|(x, y)| (x - y).abs() <= tol)
}

/// A symmetric `n × n` matrix from mirrored random entries (all ones when
/// `pattern`, so only the structure can tell entries apart), as rows of
/// `(column, value)`, then broken (or not) by `mutation`: a perturbed value,
/// a NaN, two entries of a row swapped, a duplicated entry with or without
/// its mirror, a dropped entry, or an extra column.
fn mutated_symmetric(
    n: usize,
    entries: &[(usize, usize, f64)],
    pattern: bool,
    mutation: u8,
    pick: usize,
) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in entries {
        let v = if pattern { 1.0 } else { v };
        coo.push(r % n, c % n, v).unwrap();
        coo.push(c % n, r % n, v).unwrap();
    }
    for i in 0..n {
        coo.push(i, i, if pattern { 1.0 } else { 4.0 }).unwrap();
    }
    let a = coo.to_csr();
    let mut rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|r| {
            a.row_cols(r)
                .iter()
                .copied()
                .zip(a.row_values(r).iter().copied())
                .collect()
        })
        .collect();
    let r = pick % n;
    let k = pick % rows[r].len();
    let mut ncols = n;
    match mutation {
        1 => rows[r][k].1 += 1e-13,
        2 => rows[r][k].1 += 1e-9,
        3 => rows[r][k].1 = f64::NAN,
        4 => {
            let last = rows[r].len() - 1;
            rows[r].swap(0, last);
        }
        5 => {
            let e = rows[r][k];
            rows[r].insert(k, e);
        }
        6 => {
            let (c, v) = rows[r][k];
            rows[r].insert(k, (c, v));
            let m = rows[c].iter().position(|&(j, _)| j == r).unwrap();
            rows[c].insert(m, (r, v));
        }
        7 => {
            rows[r].remove(k);
        }
        8 => ncols = n + 1,
        _ => {}
    }
    let mut row_ptr = vec![0];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for row in rows {
        for (c, v) in row {
            col_idx.push(c);
            values.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw_unchecked(n, ncols, row_ptr, col_idx, values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sequential_solve_inverts_multiply(l in lower_triangular_strategy()) {
        let x_true: Vec<f64> = (0..l.n()).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
        let b = l.multiply(&x_true).unwrap();
        let x = l.solve_seq(&b).unwrap();
        prop_assert!(ops::relative_error_inf(&x, &x_true) < 1e-8);
    }

    #[test]
    fn every_method_reproduces_the_sequential_solution(l in lower_triangular_strategy()) {
        for method in Method::all() {
            let s = method.build(&l, 8).unwrap();
            prop_assert!(s.validate().is_ok());
            let x_true: Vec<f64> = (0..s.n()).map(|i| 0.5 + (i % 3) as f64).collect();
            let b = s.lower().multiply(&x_true).unwrap();
            let x = s.solve_sequential(&b).unwrap();
            prop_assert!(ops::relative_error_inf(&x, &x_true) < 1e-8,
                "{} failed on an n={} instance", method.label(), l.n());
        }
    }

    #[test]
    fn parallel_solve_matches_sequential(l in lower_triangular_strategy()) {
        let s = Method::Sts3.build(&l, 8).unwrap();
        let x_true: Vec<f64> = (0..s.n()).map(|i| (i % 4) as f64 - 1.5).collect();
        let b = s.lower().multiply(&x_true).unwrap();
        let seq = s.solve_sequential(&b).unwrap();
        let solver = ParallelSolver::new(3, Schedule::Dynamic { chunk: 2 });
        let par = solver.solve(&s, &b).unwrap();
        prop_assert!(ops::relative_error_inf(&par, &seq) < 1e-12);
    }

    #[test]
    fn every_engine_matches_the_reference_sweeps(l in lower_triangular_strategy()) {
        // The sweep-kernel invariant: the sequential and split
        // drivers — forward and transpose, single-RHS and batched — return
        // identical bits (every batch lane those of its scalar sweep) and
        // agree with the reference sweeps to 1e-12, across both orderings,
        // both multi-level depths and several worker counts.
        for ordering in [Ordering::LevelSet, Ordering::Coloring] {
            for k in [2usize, 3] {
                let s = StsBuilder::new(k)
                    .ordering(ordering)
                    .super_row_sizing(SuperRowSizing::Rows(8))
                    .build(&l)
                    .unwrap();
                let outcome = engines_match_the_reference_sweeps(&s, 3);
                prop_assert!(outcome.is_ok(), "{:?} k={}: {:?}", ordering, k, outcome);
            }
        }
    }

    #[test]
    fn builder_permutation_is_a_bijection(l in lower_triangular_strategy()) {
        let s = StsBuilder::new(3)
            .ordering(Ordering::Coloring)
            .super_row_sizing(SuperRowSizing::Nnz(16))
            .build(&l)
            .unwrap();
        let perm = s.permutation();
        prop_assert_eq!(perm.len(), l.n());
        prop_assert!(perm.compose(&perm.inverse()).is_identity());
        // index arrays cover every row exactly once
        let covered: usize = (0..s.num_super_rows()).map(|sr| s.super_row_rows(sr).len()).sum();
        prop_assert_eq!(covered, l.n());
    }

    #[test]
    fn level_sets_respect_dependencies_on_random_operands(l in lower_triangular_strategy()) {
        let ls = LevelSets::from_lower_triangular(&l);
        let preds: Vec<Vec<usize>> = (0..l.n()).map(|i| l.row_off_diag_cols(i).to_vec()).collect();
        prop_assert!(ls.respects_dependencies(&preds));
        // Level count is at most n and at least 1.
        prop_assert!(ls.num_levels() >= 1 && ls.num_levels() <= l.n());
    }

    #[test]
    fn greedy_coloring_is_proper_on_random_graphs(l in lower_triangular_strategy()) {
        let g = Graph::from_lower_triangular(&l);
        for order in [ColoringOrder::Natural, ColoringOrder::LargestDegreeFirst, ColoringOrder::SmallestLast] {
            let c = Coloring::greedy(&g, order);
            prop_assert!(c.is_proper(&g));
            prop_assert!(c.num_colors() <= g.max_degree() + 1);
        }
    }

    #[test]
    fn rcm_is_a_bijection_and_never_worsens_a_path_bandwidth(l in lower_triangular_strategy()) {
        let g = Graph::from_lower_triangular(&l);
        let p = rcm::reverse_cuthill_mckee(&g);
        prop_assert_eq!(p.len(), g.n());
        prop_assert!(Permutation::from_new_to_old(p.new_to_old().to_vec()).is_some());
    }

    #[test]
    fn permutation_apply_scatter_roundtrip(order in proptest::collection::vec(0usize..1000, 1..50)) {
        // Build a permutation from an arbitrary vector by sorting its indices.
        let n = order.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (order[i], i));
        let p = Permutation::from_new_to_old(idx).unwrap();
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let roundtrip = p.scatter_to_original(&p.apply_to_slice(&values));
        prop_assert_eq!(roundtrip, values);
    }

    #[test]
    fn exact_in_pack_schedule_never_loses_to_heuristics(
        sets in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..3), 1..7),
        q in 1usize..4,
    ) {
        let dar = DarGraph::from_inputs(sets);
        let model = InPackCostModel { w: 10.0, e: 1.0, r: 0.5 };
        let opt = optimal_schedule(&dar, q, &model);
        for assignment in [
            block_schedule(dar.num_tasks(), q),
            round_robin_schedule(dar.num_tasks(), q),
            affinity_list_schedule(&dar, q, &model),
        ] {
            let h = model.makespan(&dar, &assignment, q);
            prop_assert!(opt.makespan <= h + 1e-9,
                "optimal {} exceeded heuristic {}", opt.makespan, h);
        }
    }

    #[test]
    fn is_symmetric_agrees_with_the_transpose_form(
        n in 1usize..9,
        entries in proptest::collection::vec((0usize..9, 0usize..9, -2.0f64..2.0), 0..24),
        mutation in 0u8..10,
        pick in 0usize..1000,
    ) {
        for pattern in [false, true] {
            let a = mutated_symmetric(n, &entries, pattern, mutation, pick);
            for tol in [0.0, 1e-12] {
                prop_assert_eq!(
                    a.is_symmetric(tol),
                    is_symmetric_by_transpose(&a, tol),
                    "mutation {} at tol {}, pattern {}", mutation, tol, pattern
                );
            }
        }
    }

    #[test]
    fn coo_to_csr_sums_duplicates_like_a_dense_accumulator(
        entries in proptest::collection::vec((0usize..8, 0usize..8, -5.0f64..5.0), 0..60)
    ) {
        let mut coo = CooMatrix::new(8, 8);
        let mut dense = vec![vec![0.0f64; 8]; 8];
        for &(r, c, v) in &entries {
            coo.push(r, c, v).unwrap();
            dense[r][c] += v;
        }
        let csr = coo.to_csr();
        for (r, dense_row) in dense.iter().enumerate() {
            for (c, &expected) in dense_row.iter().enumerate() {
                let got = csr.get(r, c);
                prop_assert!((got - expected).abs() < 1e-12);
            }
        }
    }
}

/// The options-matrix agreement invariant on every matrix of the synthetic
/// suite (deterministic, so suite regressions are reported by name).
#[test]
fn every_engine_matches_the_reference_sweeps_on_the_synthetic_suite() {
    let suite = TestSuite::generate(SuiteScale::Tiny).unwrap();
    for m in &suite.matrices {
        let l = m.lower().unwrap();
        for ordering in [Ordering::LevelSet, Ordering::Coloring] {
            for k in [2usize, 3] {
                let s = StsBuilder::new(k)
                    .ordering(ordering)
                    .super_row_sizing(SuperRowSizing::Rows(16))
                    .build(&l)
                    .unwrap();
                if let Err(what) = engines_match_the_reference_sweeps(&s, 2) {
                    panic!("{} ({ordering:?}, k={k}): {what}", m.id.label());
                }
            }
        }
    }
}
