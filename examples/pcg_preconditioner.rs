//! Preconditioned conjugate gradient on the `sts-krylov` subsystem.
//!
//! This is the paper's motivating use case end to end: an iterative solver
//! performs one forward and one backward sparse triangular sweep per
//! iteration, so the sweeps' parallel efficiency dominates wall time. The
//! example solves an SPD 2-D Laplacian system four ways —
//!
//! * plain CG (no preconditioner),
//! * SSOR-PCG on a one-thread solver,
//! * SSOR-PCG on an N-thread solver,
//! * IC(0)-PCG on the N-thread solver,
//!
//! and reports iterations, wall time, and the share of time spent inside
//! the preconditioner (the fraction the triangular kernels own). The two
//! SSOR rows demonstrate the subsystem's core invariant: every thread count
//! runs bitwise-identical arithmetic, so both take *exactly* the same
//! iteration count and differ only in speed.
//!
//! Run with `cargo run --release --example pcg_preconditioner`.

use sts_k::core::Method;
use sts_k::krylov::{
    Ic0, Identity, KrylovWorkspace, Pcg, PcgOutcome, Preconditioner, SpdSystem, Ssor, SweepEngine,
};
use sts_k::matrix::{generators, ops};
use sts_k::numa::Schedule;

fn report(label: &str, out: &PcgOutcome, x_true: &[f64]) {
    println!(
        "{label:<26} {:>5} iterations  {:>9.3} ms  precond {:>4.1}%  error {:.2e}",
        out.iterations,
        out.wall_ns as f64 * 1e-6,
        out.precond_share() * 100.0,
        ops::relative_error_inf(&out.x, x_true)
    );
}

fn main() {
    // An SPD system: 2-D 5-point Laplacian on a 120x120 grid.
    let a = generators::grid2d_laplacian(120, 120).expect("grid dimensions are valid");
    let sys = SpdSystem::build(&a, Method::Sts3, 80).expect("laplacian binds to STS-3");
    let threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "system: n = {}, nnz = {}, STS-3 with {} packs over {} super-rows, {} threads",
        sys.n(),
        sys.structure().symmetric().nnz(),
        sys.structure().num_packs(),
        sys.structure().num_super_rows(),
        threads
    );

    let n = sys.n();
    // A rough (pseudo-random) solution so the Krylov space has full
    // dimension — smooth right-hand sides converge unrepresentatively fast.
    let x_true: Vec<f64> = (0..n)
        .map(|i| ((i * 7919) % 101) as f64 * 0.02 - 1.0)
        .collect();
    let b = ops::spmv(&a, &x_true).expect("dimensions match");

    let pcg = Pcg::new(threads, Schedule::Guided { min_chunk: 1 });
    let mut ws = KrylovWorkspace::new(n);

    // Plain CG: the baseline every preconditioner must beat.
    let plain = pcg
        .solve(&sys, &mut Identity, &b, &mut ws)
        .expect("plain CG runs");
    report("plain CG", &plain, &x_true);

    // SSOR-PCG on one thread vs all of them: same iterates, faster sweeps.
    let mut ssor = Ssor::new(&sys);
    let one = Pcg::new(1, Schedule::Static)
        .solve(&sys, &mut ssor, &b, &mut ws)
        .expect("one-thread PCG runs");
    report("SSOR-PCG (1 thread)", &one, &x_true);

    let many = pcg
        .solve(&sys, &mut ssor, &b, &mut ws)
        .expect("N-thread PCG runs");
    report(&format!("SSOR-PCG ({threads} threads)"), &many, &x_true);
    assert_eq!(
        one.iterations, many.iterations,
        "every thread count is bitwise identical: counts must match exactly"
    );

    // IC(0)-PCG: a genuine factorization, same hierarchy, fewer iterations.
    let mut ic0 = Ic0::new(&sys, pcg.solver(), SweepEngine::Split).expect("laplacian is SPD");
    let ic = pcg
        .solve(&sys, &mut ic0, &b, &mut ws)
        .expect("IC(0)-PCG runs");
    report(&format!("IC(0)-PCG ({threads} threads)"), &ic, &x_true);

    println!(
        "\niteration reduction: SSOR {:.1}x, IC(0) {:.1}x over plain CG",
        plain.iterations as f64 / many.iterations.max(1) as f64,
        plain.iterations as f64 / ic.iterations.max(1) as f64
    );
    println!(
        "{threads}-thread speedup at equal iterates: {:.2}x on preconditioner time \
         ({:.3} ms -> {:.3} ms per solve)",
        one.precond_ns as f64 / many.precond_ns.max(1) as f64,
        one.precond_ns as f64 * 1e-6,
        many.precond_ns as f64 * 1e-6
    );
    let label = ssor.label();
    println!(
        "preconditioner '{label}' applied {} times without allocation",
        many.iterations
    );
}
