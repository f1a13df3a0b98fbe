//! Shared machinery of the `paper_figs` driver: the paper's two super-row
//! sizes scaled for the suite, method construction on a suite matrix, and
//! the one way to time a solve (wall clock on this host, checked against
//! the sequential solve first).

use std::time::Instant;

use sts_core::{Method, StsStructure};
use sts_matrix::{ops, SuiteMatrix, SuiteScale};
use sts_numa::Schedule;

/// The super-row sizes the paper tunes per machine: 80 rows on its Intel
/// node and 320 on its AMD node ("to correspond to bigger L2 cache on
/// AMD").
pub const PAPER_ROWS_PER_SUPER_ROW: [usize; 2] = [80, 320];

/// The super-row size the harnesses use for one of the paper's sizes at a
/// given suite scale.
///
/// The paper's 80/320 rows are calibrated for matrices of 1–50 million
/// rows whose dependency levels are tens of thousands of rows wide. The
/// generated suite is 100–1000× smaller, so using the paper's sizes would
/// leave most packs with a single task and no parallelism to measure.
/// The scaled values keep the ratio of tasks per pack in the regime the
/// paper evaluates while preserving the 1:4 ratio of the two sizes.
pub fn rows_per_super_row_scaled(paper_rows: usize, scale: SuiteScale) -> usize {
    match scale {
        SuiteScale::Tiny | SuiteScale::Small => paper_rows / 10,
        SuiteScale::Medium => paper_rows / 2,
    }
}

/// One method built on one matrix, with its structure statistics.
#[derive(Debug)]
pub struct MethodRun {
    /// The method.
    pub method: Method,
    /// The built structure.
    pub structure: StsStructure,
    /// Wall-clock seconds spent constructing the structure (pre-processing,
    /// reported for completeness; the paper amortises it away).
    pub build_seconds: f64,
}

/// All four methods built on one suite matrix at one super-row size.
#[derive(Debug)]
pub struct SuiteRun {
    /// The suite matrix.
    pub matrix_label: String,
    /// Dimension of the generated matrix.
    pub n: usize,
    /// Nonzeros of the triangular operand.
    pub nnz: usize,
    /// The four built methods, in [`Method::all`] order.
    pub methods: Vec<MethodRun>,
}

impl SuiteRun {
    /// The run of one method.
    pub fn method(&self, method: Method) -> &MethodRun {
        self.methods
            .iter()
            .find(|r| r.method == method)
            .expect("build_methods builds every method")
    }
}

/// Builds all four methods on one matrix using `rows_per_super_row` for the
/// 3-level variants.
pub fn build_methods(m: &SuiteMatrix, rows_per_super_row: usize) -> SuiteRun {
    let l = m
        .lower()
        .expect("suite matrices have solvable lower operands");
    let methods = Method::all()
        .into_iter()
        .map(|method| {
            let start = Instant::now();
            let structure = method
                .build(&l, rows_per_super_row)
                .expect("builder succeeds on suite matrices");
            MethodRun {
                method,
                structure,
                build_seconds: start.elapsed().as_secs_f64(),
            }
        })
        .collect();
    SuiteRun {
        matrix_label: m.id.label().to_string(),
        n: l.n(),
        nnz: l.nnz(),
        methods,
    }
}

/// The OpenMP schedule the paper uses for each method (`dynamic,32` for the
/// flat methods, `guided,1` for the 3-level methods).
pub fn paper_schedule(method: Method) -> Schedule {
    match method {
        Method::CsrLs | Method::CsrCol => Schedule::Dynamic { chunk: 32 },
        Method::Csr3Ls | Method::Sts3 => Schedule::Guided { min_chunk: 1 },
    }
}

/// Solves timed per measurement (the paper averages over 10).
const REPEATS: usize = 3;

/// Mean wall-clock seconds of one solve of `s` on this host with `threads`
/// workers under `schedule`, by the paper's barrier-per-pack kernel
/// ([`sts_core::ParallelSolver::solve`]).
///
/// One untimed warm-up solve comes first. It also forces any lazy layout
/// out of the timed region, and its answer is checked against
/// [`StsStructure::solve_sequential`] on the same right-hand side, to the
/// `1e-12` relative ∞-norm bound of the solver's own parallel-vs-sequential
/// test: a time is only reported for a solve that is right.
///
/// # Panics
///
/// When the check fails, naming `method` and `matrix`.
pub fn wallclock_seconds(
    s: &StsStructure,
    schedule: Schedule,
    threads: usize,
    method: &str,
    matrix: &str,
) -> f64 {
    let solver = sts_core::ParallelSolver::new(threads, schedule);
    let b = vec![1.0; s.n()];
    let solve = || solver.solve(s, &b).expect("solve succeeds");
    let x = solve();
    let reference = s.solve_sequential(&b).expect("sequential solve succeeds");
    let error = ops::relative_error_inf(&x, &reference);
    assert!(
        error <= 1e-12,
        "{method} on {matrix} ({threads} threads): parallel solve differs from the \
         sequential one by {error:e}"
    );
    let start = Instant::now();
    for _ in 0..REPEATS {
        solve();
    }
    start.elapsed().as_secs_f64() / REPEATS as f64
}

/// The host's CPU model (the `model name` of `/proc/cpuinfo`), recorded
/// beside every timed row; `"unknown"` where the platform does not say.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Geometric mean of a slice of positive values (0 when empty).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::suite::{self, SuiteId};

    #[test]
    fn scaled_super_row_sizes_keep_the_paper_ratio() {
        assert_eq!(PAPER_ROWS_PER_SUPER_ROW, [80, 320]);
        for (scale, sizes) in [
            (SuiteScale::Tiny, [8, 32]),
            (SuiteScale::Small, [8, 32]),
            (SuiteScale::Medium, [40, 160]),
        ] {
            assert_eq!(
                PAPER_ROWS_PER_SUPER_ROW.map(|rows| rows_per_super_row_scaled(rows, scale)),
                sizes
            );
        }
    }

    #[test]
    fn build_methods_produces_all_four() {
        let m = suite::generate(SuiteId::D3, SuiteScale::Tiny).unwrap();
        let run = build_methods(&m, 16);
        assert_eq!(run.methods.len(), 4);
        assert_eq!(run.matrix_label, "D3");
        for mr in &run.methods {
            assert_eq!(mr.structure.n(), run.n);
            assert!(mr.build_seconds >= 0.0);
        }
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn paper_schedules_match_section_4_1() {
        assert_eq!(
            paper_schedule(Method::CsrLs),
            Schedule::Dynamic { chunk: 32 }
        );
        assert_eq!(
            paper_schedule(Method::Sts3),
            Schedule::Guided { min_chunk: 1 }
        );
    }

    #[test]
    fn wallclock_measurement_returns_positive_time() {
        let m = suite::generate(SuiteId::D3, SuiteScale::Tiny).unwrap();
        let run = build_methods(&m, 16);
        let sts = run.method(Method::Sts3);
        let t = wallclock_seconds(&sts.structure, paper_schedule(sts.method), 2, "STS-3", "D3");
        assert!(t > 0.0);
    }
}
