//! Golden output bits of every sweep the options matrix can request.
//!
//! Each `(structure, engine, direction, nrhs, precision)` request is solved
//! at several thread counts and its output hashed over `f64::to_bits`. The
//! sequential engine's digest (and, for the one request it serves, that of
//! the unsplit kernel `ParallelSolver::solve`) is compared with a table
//! recorded once at the commit *before* the sweep kernels were unified; every
//! other engine must produce the sequential engine's digest — there is one
//! row arithmetic, so choosing an engine or a thread count never moves a bit.
//! A kernel refactor must leave the table untouched: a changed digest means
//! some request's output bits moved.
//!
//! The digests are thread-count invariant (per-row arithmetic does not
//! depend on chunking), so one entry covers threads 1, 2, 3 and 8. On a
//! mismatch the failure message prints the whole computed table in
//! paste-ready form.

use sts_k::core::{
    Method, Ordering, ParallelSolver, PrecisionPolicy, SolveEngine, SolveOptions, StsBuilder,
    StsStructure, SuperRowSizing, SweepDirection,
};
use sts_k::krylov::{Ic0, KrylovWorkspace, Pcg, SpdSystem, SweepEngine};
use sts_k::matrix::{generators, MatrixError};
use sts_k::numa::Schedule;

const THREADS: [usize; 4] = [1, 2, 3, 8];
const WIDTHS: [usize; 3] = [1, 3, 9];

/// FNV-1a over the little-endian bytes of every value's bit pattern.
fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn structures() -> Vec<(&'static str, StsStructure)> {
    let fig1 = Method::Sts3
        .build(&generators::paper_figure1_l(), 2)
        .unwrap();
    let grid = generators::grid2d_9point(12, 12).unwrap();
    let grid = Method::Sts3
        .build(&generators::lower_operand(&grid).unwrap(), 6)
        .unwrap();
    let random = StsBuilder::new(2)
        .ordering(Ordering::LevelSet)
        .super_row_sizing(SuperRowSizing::Rows(8))
        .build(&generators::random_lower_triangular(120, 3.0, 42).unwrap())
        .unwrap();
    vec![("fig1", fig1), ("grid9", grid), ("rand120", random)]
}

/// A right-hand side with no two equal lanes and no exactly representable
/// pattern the f32 demotion could hide behind.
fn rhs(n: usize, nrhs: usize) -> Vec<f64> {
    (0..n * nrhs)
        .map(|k| 1.0 + ((k * 7 + k / nrhs * 3) % 23) as f64 * 0.173)
        .collect()
}

/// Runs one solve at every thread count, asserts the outputs agree bitwise,
/// and returns the digest.
fn digest_at_every_thread_count(
    label: &str,
    solve: impl Fn(&ParallelSolver) -> Result<Vec<f64>, MatrixError>,
) -> u64 {
    let mut first: Option<u64> = None;
    for threads in THREADS {
        let solver = ParallelSolver::new(threads, Schedule::Guided { min_chunk: 1 });
        let x =
            solve(&solver).unwrap_or_else(|e| panic!("{label} failed at {threads} threads: {e}"));
        let d = digest(&x);
        match first {
            None => first = Some(d),
            Some(f) => assert_eq!(f, d, "{label}: bits differ at {threads} threads"),
        }
    }
    first.expect("at least one thread count")
}

/// The digest of one options-matrix request.
fn sweep_digest(s: &StsStructure, b: &[f64], opts: &SolveOptions, label: &str) -> u64 {
    digest_at_every_thread_count(label, |solver| solver.solve_with(s, b, opts))
}

fn computed_table() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    for (name, s) in structures() {
        for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
            for nrhs in WIDTHS {
                let b = rhs(s.n(), nrhs);
                for precision in [
                    PrecisionPolicy::ValuesF64,
                    PrecisionPolicy::ValuesF32WithRefinement,
                ] {
                    let base = SolveOptions::default()
                        .with_direction(direction)
                        .with_nrhs(nrhs)
                        .with_precision(precision);
                    let label = |engine: &str| {
                        format!(
                            "{name}/{engine}/{}/n{nrhs}/{}",
                            direction.as_str(),
                            precision.as_str()
                        )
                    };
                    let l = label(SolveEngine::Sequential.as_str());
                    let sequential =
                        sweep_digest(&s, &b, &base.with_engine(SolveEngine::Sequential), &l);
                    table.push((l, sequential));
                    // The unsplit barrier-per-pack kernel serves one request:
                    // forward, one right-hand side, f64.
                    if base == SolveOptions::default() {
                        let l = label("parallel");
                        let d = digest_at_every_thread_count(&l, |solver| solver.solve(&s, &b));
                        table.push((l, d));
                    }
                    for engine in [SolveEngine::Split, SolveEngine::Pipelined] {
                        let l = label(engine.as_str());
                        let d = sweep_digest(&s, &b, &base.with_engine(engine), &l);
                        assert_eq!(d, sequential, "{l} must equal the sequential sweep's bits");
                    }
                }
            }
        }
    }
    table
}

fn render(table: &[(String, u64)]) -> String {
    table
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", 0x{d:016x}),\n"))
        .collect()
}

#[test]
fn sweep_output_bits_match_the_recorded_table() {
    let computed = computed_table();
    let golden: Vec<(String, u64)> = GOLDEN_SWEEPS
        .iter()
        .map(|&(l, d)| (l.to_string(), d))
        .collect();
    assert!(
        computed == golden,
        "sweep output bits moved; computed table:\n{}",
        render(&computed)
    );
}

/// IC(0)-PCG on a 2-D Laplacian: iteration counts and solution bits of one
/// scalar solve and one lockstep batch solve per sweep engine, the same at
/// every thread count.
#[test]
fn pcg_iterations_and_solution_bits_match_the_recorded_values() {
    let a = generators::grid2d_laplacian(14, 11).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    let n = sys.n();
    let nrhs = 3;
    let b = rhs(n, 1);
    let bb = rhs(n, nrhs);
    let golden: Vec<(String, usize, u64)> = GOLDEN_PCG
        .iter()
        .map(|&(l, it, d)| (l.to_string(), it, d))
        .collect();
    for threads in THREADS {
        let pcg = Pcg::new(threads, Schedule::Guided { min_chunk: 1 });
        let mut computed = Vec::new();
        for (name, engine) in [
            ("sequential", SweepEngine::Sequential),
            ("pipelined", SweepEngine::Pipelined),
        ] {
            let mut pre = Ic0::new(&sys, pcg.solver(), engine).unwrap();
            let mut ws = KrylovWorkspace::new(n);
            let out = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
            assert!(out.converged);
            computed.push((format!("{name}/solve"), out.iterations, digest(&out.x)));
            let mut wsb = KrylovWorkspace::with_nrhs(n, nrhs);
            let out = pcg
                .solve_batch(&sys, &mut pre, &bb, nrhs, &mut wsb)
                .unwrap();
            assert!(out.converged.iter().all(|&c| c));
            computed.push((
                format!("{name}/solve_batch"),
                out.lockstep_iterations,
                digest(&out.x),
            ));
        }
        let rendered: String = computed
            .iter()
            .map(|(l, it, d)| format!("    (\"{l}\", {it}, 0x{d:016x}),\n"))
            .collect();
        assert!(
            computed == golden,
            "PCG iteration counts or solution bits moved at {threads} threads; computed:\n{rendered}"
        );
    }
}

/// Recorded when the PCG vector passes moved onto the pool: every dot
/// product and norm became the blocked reduction of
/// `sts_core::solver::vector`, whose order is fixed by the vector length
/// alone (the sweeps' bits, pinned by `GOLDEN_SWEEPS`, did not move).
const GOLDEN_PCG: &[(&str, usize, u64)] = &[
    ("sequential/solve", 12, 0x99e6188d7fcbf122),
    ("sequential/solve_batch", 13, 0x132a607cdb6b2081),
    ("pipelined/solve", 12, 0x99e6188d7fcbf122),
    ("pipelined/solve_batch", 13, 0x132a607cdb6b2081),
];

/// Recorded at the commit before the sweep kernels were unified.
const GOLDEN_SWEEPS: &[(&str, u64)] = &[
    ("fig1/sequential/forward/n1/f64", 0x95981485163dd204),
    ("fig1/parallel/forward/n1/f64", 0x0654eb2bbb2bac93),
    ("fig1/sequential/forward/n1/f32", 0x95981485163dd204),
    ("fig1/sequential/forward/n3/f64", 0x7a8051e7d2158f6e),
    ("fig1/sequential/forward/n3/f32", 0x7a8051e7d2158f6e),
    ("fig1/sequential/forward/n9/f64", 0x2b42b048f3621e71),
    ("fig1/sequential/forward/n9/f32", 0x2b42b048f3621e71),
    ("fig1/sequential/transpose/n1/f64", 0xe3cdebb2b328a2ba),
    ("fig1/sequential/transpose/n1/f32", 0xe3cdebb2b328a2ba),
    ("fig1/sequential/transpose/n3/f64", 0x500d1abe87adc640),
    ("fig1/sequential/transpose/n3/f32", 0x500d1abe87adc640),
    ("fig1/sequential/transpose/n9/f64", 0x2bc28bc3505c0296),
    ("fig1/sequential/transpose/n9/f32", 0x2bc28bc3505c0296),
    ("grid9/sequential/forward/n1/f64", 0x3f754d4408da9d04),
    ("grid9/parallel/forward/n1/f64", 0xd56f76d1fadd4acb),
    ("grid9/sequential/forward/n1/f32", 0x3f754d4408da9d04),
    ("grid9/sequential/forward/n3/f64", 0xc6db033d19754a6d),
    ("grid9/sequential/forward/n3/f32", 0xc6db033d19754a6d),
    ("grid9/sequential/forward/n9/f64", 0x01d0482d5bf44557),
    ("grid9/sequential/forward/n9/f32", 0x01d0482d5bf44557),
    ("grid9/sequential/transpose/n1/f64", 0x3702f66ffdb452fb),
    ("grid9/sequential/transpose/n1/f32", 0x3702f66ffdb452fb),
    ("grid9/sequential/transpose/n3/f64", 0x7ed0b5c2863118b5),
    ("grid9/sequential/transpose/n3/f32", 0x7ed0b5c2863118b5),
    ("grid9/sequential/transpose/n9/f64", 0x3c3a2a0e10088c9f),
    ("grid9/sequential/transpose/n9/f32", 0x3c3a2a0e10088c9f),
    ("rand120/sequential/forward/n1/f64", 0x5fdf96e98e5a5b8a),
    ("rand120/parallel/forward/n1/f64", 0x25addf50f30c3b6f),
    ("rand120/sequential/forward/n1/f32", 0xf94501402b80fdb1),
    ("rand120/sequential/forward/n3/f64", 0x2515a4286cb886d2),
    ("rand120/sequential/forward/n3/f32", 0x1a8244c58d2b4d91),
    ("rand120/sequential/forward/n9/f64", 0x96120b89d1491bc9),
    ("rand120/sequential/forward/n9/f32", 0x4b768f7cb193b83c),
    ("rand120/sequential/transpose/n1/f64", 0x953d6a01f1b1afe0),
    ("rand120/sequential/transpose/n1/f32", 0x35ec9e9cda773276),
    ("rand120/sequential/transpose/n3/f64", 0x4d75b7b85dd6770e),
    ("rand120/sequential/transpose/n3/f32", 0xa3d097e2ecb06d5f),
    ("rand120/sequential/transpose/n9/f64", 0x9a72ee577c6b23fd),
    ("rand120/sequential/transpose/n9/f32", 0x822c825265ce13ca),
];
