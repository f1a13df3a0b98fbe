//! End-to-end integration tests spanning the whole workspace: every suite
//! class × every method × sequential/parallel execution, the wall-clock
//! measurement behind the timed paper figures, plus the headline structural
//! claims of the paper at test scale.

use sts_bench::harness;
use sts_k::core::{analysis, Method, ParallelSolver};
use sts_k::matrix::ops;
use sts_k::matrix::suite::{SuiteId, SuiteScale, TestSuite};
use sts_k::numa::Schedule;

fn representative_suite() -> TestSuite {
    TestSuite::generate_subset(
        SuiteScale::Tiny,
        &[
            SuiteId::G1,
            SuiteId::D1,
            SuiteId::S1,
            SuiteId::D2,
            SuiteId::D3,
        ],
    )
    .expect("suite generation succeeds")
}

#[test]
fn every_method_solves_every_suite_class_correctly() {
    let suite = representative_suite();
    let solver = ParallelSolver::new(4, Schedule::Guided { min_chunk: 1 });
    for m in &suite.matrices {
        let l = m.lower().unwrap();
        for method in Method::all() {
            let s = method.build(&l, 40).unwrap();
            s.validate().unwrap();
            let x_true: Vec<f64> = (0..s.n()).map(|i| 1.0 + (i % 11) as f64 * 0.1).collect();
            let b = s.lower().multiply(&x_true).unwrap();
            let x_seq = s.solve_sequential(&b).unwrap();
            let x_par = solver.solve(&s, &b).unwrap();
            assert!(
                ops::relative_error_inf(&x_seq, &x_true) < 1e-9,
                "{} sequential solve wrong on {}",
                method.label(),
                m.id.label()
            );
            assert!(
                ops::relative_error_inf(&x_par, &x_seq) < 1e-12,
                "{} parallel solve differs from sequential on {}",
                method.label(),
                m.id.label()
            );
        }
    }
}

#[test]
fn reordered_solution_maps_back_to_original_numbering() {
    let suite = representative_suite();
    let m = &suite.matrices[3]; // D2, planar triangulation
    let l = m.lower().unwrap();
    let s = Method::Sts3.build(&l, 40).unwrap();
    // Take a vector in original numbering, gather, scatter: identity.
    let v: Vec<f64> = (0..s.n()).map(|i| i as f64 * 0.5 - 3.0).collect();
    let roundtrip = s.scatter_to_original(&s.gather_from_original(&v));
    assert_eq!(roundtrip, v);
}

#[test]
fn coloring_dominates_level_sets_in_parallelism_metrics() {
    // Figure 7 + Figure 8 at test scale, across classes.
    let suite = representative_suite();
    for m in &suite.matrices {
        let l = m.lower().unwrap();
        let ls = Method::CsrLs.build(&l, 40).unwrap();
        let sts = Method::Sts3.build(&l, 40).unwrap();
        let stat_ls = analysis::parallelism_stats(&ls);
        let stat_sts = analysis::parallelism_stats(&sts);
        assert!(
            stat_sts.num_packs < stat_ls.num_packs,
            "{}: STS-3 should need fewer packs ({} vs {})",
            m.id.label(),
            stat_sts.num_packs,
            stat_ls.num_packs
        );
        assert!(
            stat_sts.work_fraction_top5 > stat_ls.work_fraction_top5,
            "{}: STS-3 should concentrate more work in its top packs",
            m.id.label()
        );
    }
}

#[test]
fn parallel_solve_matches_sequential_at_every_thread_count_under_every_schedule() {
    // Figures 12-13 sweep the thread count; every count and every intra-pack
    // schedule must give the sequential answer, also past the host's cores.
    let suite = TestSuite::generate_subset(SuiteScale::Tiny, &[SuiteId::D2]).unwrap();
    let l = suite.matrices[0].lower().unwrap();
    for method in [Method::CsrLs, Method::Sts3] {
        let s = method.build(&l, 16).unwrap();
        let b: Vec<f64> = (0..s.n()).map(|i| 1.0 + (i % 5) as f64).collect();
        let x_seq = s.solve_sequential(&b).unwrap();
        for threads in 1..=4 {
            for schedule in [
                Schedule::Static,
                Schedule::Dynamic { chunk: 32 },
                Schedule::Guided { min_chunk: 1 },
            ] {
                let x = ParallelSolver::new(threads, schedule)
                    .solve(&s, &b)
                    .unwrap();
                assert!(
                    ops::relative_error_inf(&x, &x_seq) <= 1e-12,
                    "{} with {threads} threads under {schedule:?} differs from sequential",
                    method.label()
                );
            }
        }
    }
}

#[test]
fn every_method_is_timed_at_the_paper_schedule_and_checked() {
    // Figure 9's pipeline at test scale: build the four methods, time each at
    // its paper schedule on this host. `wallclock_seconds` panics unless the
    // timed solve gives the sequential answer, so a time here is a right one.
    let suite = TestSuite::generate_subset(SuiteScale::Tiny, &[SuiteId::D2]).unwrap();
    let m = &suite.matrices[0];
    let run = harness::build_methods(m, harness::rows_per_super_row_scaled(80, SuiteScale::Tiny));
    for method in Method::all() {
        let s = &run.method(method).structure;
        let seconds = harness::wallclock_seconds(
            s,
            harness::paper_schedule(method),
            2,
            method.label(),
            m.id.label(),
        );
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "{}: {seconds} s is not a time",
            method.label()
        );
    }
}

#[test]
fn build_then_solve_many_right_hand_sides_amortises_preprocessing() {
    // The intended usage pattern: one build, many solves (the paper amortises
    // pre-processing over repeated right-hand sides).
    let suite = TestSuite::generate_subset(SuiteScale::Tiny, &[SuiteId::D3]).unwrap();
    let l = suite.matrices[0].lower().unwrap();
    let s = Method::Sts3.build(&l, 40).unwrap();
    let solver = ParallelSolver::new(2, Schedule::Guided { min_chunk: 1 });
    for k in 0..10 {
        let x_true: Vec<f64> = (0..s.n()).map(|i| ((i + k) % 7) as f64 + 1.0).collect();
        let b = s.lower().multiply(&x_true).unwrap();
        let x = solver.solve(&s, &b).unwrap();
        assert!(ops::relative_error_inf(&x, &x_true) < 1e-9);
    }
}
