//! Smoke tests of the `sts-k` facade crate: everything a downstream user
//! reaches through the re-exports must be usable together, mirroring the
//! README quickstart and the examples.

use sts_k::core::{Method, Ordering, ParallelSolver, SimulatedExecutor, SolveOptions, StsBuilder};
use sts_k::graph::{Coloring, ColoringOrder, Graph};
use sts_k::matrix::{generators, io, ops};
use sts_k::numa::{NumaTopology, Schedule, WorkerPool};
use sts_k::sched::dar::DarGraph;

#[test]
fn readme_quickstart_compiles_and_runs() {
    let a = generators::grid2d_9point(20, 20).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let sts = Method::Sts3.build(&l, 80).unwrap();
    let x_true = vec![1.0; sts.n()];
    let b = sts.lower().multiply(&x_true).unwrap();
    let solver = ParallelSolver::new(2, Schedule::Guided { min_chunk: 1 });
    let x = solver.solve(&sts, &b).unwrap();
    assert!(ops::relative_error_inf(&x, &x_true) < 1e-10);
}

#[test]
fn facade_exposes_every_substrate() {
    // matrix + io
    let a = generators::triangulated_grid(12, 12, 3).unwrap();
    let mut buf = Vec::new();
    io::write_matrix_market(&a, &mut buf).unwrap();
    let back = io::read_matrix_market(buf.as_slice()).unwrap();
    assert_eq!(a, back);

    // graph
    let g = Graph::from_symmetric_csr(&a);
    let c = Coloring::greedy(&g, ColoringOrder::LargestDegreeFirst);
    assert!(c.is_proper(&g));

    // numa
    let topo = NumaTopology::amd_magny_cours_24();
    assert_eq!(topo.total_cores(), 24);
    let pool = WorkerPool::new(2);
    let counter = std::sync::atomic::AtomicUsize::new(0);
    pool.parallel_for(10, Schedule::Static, &|_| {
        counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    })
    .unwrap();
    assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 10);

    // sched
    let dar = DarGraph::line(4);
    assert!(dar.is_union_of_paths());

    // core: builder with explicit options + simulated executor
    let l = generators::lower_operand(&a).unwrap();
    let s = StsBuilder::new(3)
        .ordering(Ordering::LevelSet)
        .build(&l)
        .unwrap();
    let exec = SimulatedExecutor::new(topo);
    let rep = exec.simulate(&s, 12, Schedule::Guided { min_chunk: 1 });
    assert!(rep.total_cycles > 0.0);
}

#[test]
fn level_scheduled_solve_is_reachable_through_the_facade() {
    // CSR-LS, the flat level-set method, is solved by the same parallel
    // driver as STS-3, on its reordered operand.
    let a = generators::grid2d_laplacian(10, 10).unwrap();
    let l = generators::lower_operand(&a).unwrap();
    let s = Method::CsrLs.build(&l, 2).unwrap();
    let x_true: Vec<f64> = (0..s.n()).map(|i| 1.0 + (i % 7) as f64).collect();
    let b = s.lower().multiply(&x_true).unwrap();
    let solver = ParallelSolver::new(2, Schedule::Dynamic { chunk: 4 });
    let x = solver.solve_with(&s, &b, &SolveOptions::default()).unwrap();
    assert!(ops::relative_error_inf(&x, &x_true) < 1e-10);
    assert_eq!(x, s.solve_sequential(&b).unwrap());
}
