//! Shared machinery of the `paper_figs` driver: the two machine presets,
//! method construction on a suite matrix, and the two ways to time a solve
//! (modelled cycles, host wall clock).

use std::time::Instant;

use serde::Serialize;
use sts_core::{Method, SimReport, SimulatedExecutor, StsStructure};
use sts_matrix::SuiteMatrix;
use sts_numa::{NumaTopology, Schedule};

/// The two evaluation machines of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Machine {
    /// 32-core Intel Westmere-EX node (figures use 16 cores; scaling 1–32).
    Intel,
    /// 24-core AMD MagnyCours node (figures use 12 cores; scaling 1–24).
    Amd,
}

impl Machine {
    /// Both machines, Intel first as in the paper's figures.
    pub fn both() -> [Machine; 2] {
        [Machine::Intel, Machine::Amd]
    }

    /// The topology preset for this machine.
    pub fn topology(&self) -> NumaTopology {
        match self {
            Machine::Intel => NumaTopology::intel_westmere_ex_32(),
            Machine::Amd => NumaTopology::amd_magny_cours_24(),
        }
    }

    /// The per-matrix figure core count (16 on Intel, 12 on AMD).
    pub fn figure_cores(&self) -> usize {
        match self {
            Machine::Intel => 16,
            Machine::Amd => 12,
        }
    }

    /// The core counts of the scaling figures (Figures 12 and 13).
    pub fn scaling_cores(&self) -> &'static [usize] {
        match self {
            Machine::Intel => &[1, 2, 4, 8, 16, 24, 32],
            Machine::Amd => &[1, 2, 4, 6, 12, 18, 24],
        }
    }

    /// The core counts the paper averages over for the scaling figures
    /// (8–32 on Intel, 6–24 on AMD).
    pub fn scaling_mean_cores(&self) -> &'static [usize] {
        match self {
            Machine::Intel => &[8, 16, 24, 32],
            Machine::Amd => &[6, 12, 18, 24],
        }
    }

    /// The super-row size the paper uses on this machine (80 rows on Intel,
    /// 320 on AMD, chosen for the respective L2 sizes).
    pub fn rows_per_super_row(&self) -> usize {
        match self {
            Machine::Intel => 80,
            Machine::Amd => 320,
        }
    }

    /// The super-row size used by the harnesses at a given suite scale.
    ///
    /// The paper's 80/320 rows are calibrated for matrices of 1–50 million
    /// rows whose dependency levels are tens of thousands of rows wide. The
    /// generated suite is 100–1000× smaller, so using the paper's sizes would
    /// leave most packs with a single task and no parallelism to measure.
    /// The scaled values keep the ratio of tasks per pack in the regime the
    /// paper evaluates while preserving the Intel:AMD 1:4 ratio.
    pub fn rows_per_super_row_scaled(&self, scale: sts_matrix::SuiteScale) -> usize {
        use sts_matrix::SuiteScale::*;
        match (self, scale) {
            (Machine::Intel, Tiny) | (Machine::Intel, Small) => 8,
            (Machine::Intel, Medium) => 40,
            (Machine::Amd, Tiny) | (Machine::Amd, Small) => 32,
            (Machine::Amd, Medium) => 160,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Machine::Intel => "Intel",
            Machine::Amd => "AMD",
        }
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

/// All four methods built on one suite matrix (for a given machine's
/// super-row size).
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

/// Simulates one built method on `cores` cores of the given machine.
pub fn simulate(machine: Machine, run: &MethodRun, cores: usize) -> SimReport {
    let exec = SimulatedExecutor::new(machine.topology());
    exec.simulate(&run.structure, cores, paper_schedule(run.method))
}

/// Measures the wall-clock solve time of one built method on the host with
/// `threads` workers: one untimed warm-up solve (which also forces the lazy
/// layouts out of the timed region), then the mean over `repeats` solves, as
/// the paper averages over 10 repeats.
pub fn wallclock_seconds(run: &MethodRun, threads: usize, repeats: usize) -> f64 {
    let solver = sts_core::ParallelSolver::new(threads, paper_schedule(run.method));
    let b = vec![1.0; run.structure.n()];
    let solve = || {
        solver.solve(&run.structure, &b).expect("solve succeeds");
    };
    solve(); // warm-up
    let start = Instant::now();
    for _ in 0..repeats {
        solve();
    }
    start.elapsed().as_secs_f64() / repeats as f64
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
    use sts_matrix::SuiteScale;

    #[test]
    fn machine_presets_match_paper_parameters() {
        assert_eq!(Machine::Intel.figure_cores(), 16);
        assert_eq!(Machine::Amd.figure_cores(), 12);
        assert_eq!(Machine::Intel.rows_per_super_row(), 80);
        assert_eq!(Machine::Amd.rows_per_super_row(), 320);
        assert_eq!(Machine::Intel.topology().total_cores(), 32);
        assert_eq!(Machine::Amd.topology().total_cores(), 24);
        assert_eq!(*Machine::Intel.scaling_cores().last().unwrap(), 32);
        assert_eq!(*Machine::Amd.scaling_cores().last().unwrap(), 24);
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
    fn simulation_of_built_methods_is_positive_and_favours_sts3() {
        let m = suite::generate(SuiteId::D2, SuiteScale::Tiny).unwrap();
        let run = build_methods(&m, Machine::Intel.rows_per_super_row());
        let t_ref = simulate(Machine::Intel, &run.methods[0], 16).total_cycles;
        let t_sts = simulate(Machine::Intel, &run.methods[3], 16).total_cycles;
        assert!(t_ref > 0.0 && t_sts > 0.0);
        assert!(
            t_sts < t_ref,
            "STS-3 should beat CSR-LS: {t_sts} vs {t_ref}"
        );
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
        let t = wallclock_seconds(&run.methods[3], 2, 2);
        assert!(t > 0.0);
    }
}
