//! Preconditioned conjugate gradient on the `sts-krylov` subsystem.
//!
//! This is the paper's motivating use case end to end: an iterative solver
//! performs one forward and one backward sparse triangular sweep per
//! iteration, so the sweeps' parallel efficiency dominates wall time. The
//! example solves an SPD 2-D Laplacian system four ways —
//!
//! * plain CG (no preconditioner),
//! * SSOR-PCG with *sequential* split sweeps,
//! * SSOR-PCG with *split* parallel sweeps,
//! * IC(0)-PCG with split parallel sweeps,
//!
//! and reports iterations, wall time, and the share of time spent inside
//! the preconditioner (the fraction the triangular kernels own). The two
//! SSOR rows demonstrate the subsystem's core invariant: both engines run
//! bitwise-identical arithmetic, so they take *exactly* the same iteration
//! count and differ only in speed.
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
        out.seconds_total * 1e3,
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

    // SSOR-PCG, sequential vs split sweeps: same iterates, faster sweeps.
    let mut ssor_seq = Ssor::new(&sys, SweepEngine::Sequential);
    let seq = pcg
        .solve(&sys, &mut ssor_seq, &b, &mut ws)
        .expect("sequential-sweep PCG runs");
    report("SSOR-PCG (seq sweeps)", &seq, &x_true);

    let mut ssor_pip = Ssor::new(&sys, SweepEngine::Split);
    let pip = pcg
        .solve(&sys, &mut ssor_pip, &b, &mut ws)
        .expect("split-sweep PCG runs");
    report("SSOR-PCG (split)", &pip, &x_true);
    assert_eq!(
        seq.iterations, pip.iterations,
        "the sweep engines are bitwise identical: counts must match exactly"
    );

    // IC(0)-PCG: a genuine factorization, same hierarchy, fewer iterations.
    let mut ic0 = Ic0::new(&sys, pcg.solver(), SweepEngine::Split).expect("laplacian is SPD");
    let ic = pcg
        .solve(&sys, &mut ic0, &b, &mut ws)
        .expect("IC(0)-PCG runs");
    report("IC(0)-PCG (split)", &ic, &x_true);

    println!(
        "\niteration reduction: SSOR {:.1}x, IC(0) {:.1}x over plain CG",
        plain.iterations as f64 / seq.iterations.max(1) as f64,
        plain.iterations as f64 / ic.iterations.max(1) as f64
    );
    println!(
        "sweep-engine speedup at equal iterates: {:.2}x on preconditioner time \
         ({:.3} ms -> {:.3} ms per solve)",
        seq.seconds_precond / pip.seconds_precond.max(1e-12),
        seq.seconds_precond * 1e3,
        pip.seconds_precond * 1e3
    );
    let label = ssor_pip.label();
    println!(
        "preconditioner '{label}' applied {} times without allocation",
        pip.iterations
    );
}
