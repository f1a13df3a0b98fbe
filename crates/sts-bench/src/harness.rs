//! Shared machinery for the figure/table binaries.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Serialize;
use sts_core::{Method, SimReport, SimulatedExecutor, SolveEngine, SolveOptions, StsStructure};
use sts_matrix::{SuiteMatrix, SuiteScale, TestSuite};
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

/// Command-line configuration shared by every harness binary.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Suite scale.
    pub scale: SuiteScale,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
    /// Use wall-clock threaded execution on the host instead of the simulator.
    pub wallclock: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale: SuiteScale::Small,
            out_dir: PathBuf::from("results"),
            wallclock: false,
        }
    }
}

/// Parses the common `--scale`, `--out` and `--wallclock` arguments.
pub fn parse_args() -> BenchConfig {
    let mut config = BenchConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                config.scale = match args.get(i).map(String::as_str) {
                    Some("tiny") => SuiteScale::Tiny,
                    Some("small") | None => SuiteScale::Small,
                    Some("medium") => SuiteScale::Medium,
                    Some(other) => {
                        eprintln!("unknown scale {other}, using small");
                        SuiteScale::Small
                    }
                };
            }
            "--out" => {
                i += 1;
                if let Some(dir) = args.get(i) {
                    config.out_dir = PathBuf::from(dir);
                }
            }
            "--wallclock" => config.wallclock = true,
            other => eprintln!("ignoring unknown argument {other}"),
        }
        i += 1;
    }
    config
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

/// Generates the suite at the configured scale.
pub fn generate_suite(config: &BenchConfig) -> TestSuite {
    TestSuite::generate(config.scale).expect("suite generation cannot fail for preset scales")
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

/// Builds a single method on an explicit operand (used by the smoke bench,
/// which targets one matrix/method pair rather than the suite).
pub fn build_methods_single(
    l: &sts_matrix::LowerTriangularCsr,
    method: Method,
    rows_per_super_row: usize,
) -> MethodRun {
    let start = Instant::now();
    let structure = method
        .build(l, rows_per_super_row)
        .expect("builder succeeds on the smoke matrix");
    MethodRun {
        method,
        structure,
        build_seconds: start.elapsed().as_secs_f64(),
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

/// Simulates one built method with the two-phase split kernel on `cores`
/// cores of the given machine.
pub fn simulate_split(machine: Machine, run: &MethodRun, cores: usize) -> SimReport {
    let exec = SimulatedExecutor::new(machine.topology());
    exec.simulate_split(&run.structure, cores, paper_schedule(run.method))
}

/// Simulates one built method with the pack-pipelined (barrier-fused) kernel
/// on `cores` cores of the given machine.
pub fn simulate_pipelined(machine: Machine, run: &MethodRun, cores: usize) -> SimReport {
    let exec = SimulatedExecutor::new(machine.topology());
    exec.simulate_pipelined(&run.structure, cores, paper_schedule(run.method))
}

/// Simulates the level-scheduled IC(0) construction for one built method on
/// `cores` cores of the given machine (`cores = 1` models the sequential
/// up-looking sweep).
pub fn simulate_ic0_build(machine: Machine, run: &MethodRun, cores: usize) -> SimReport {
    let exec = SimulatedExecutor::new(machine.topology());
    exec.simulate_ic0_build(&run.structure, cores)
}

/// The shared measurement protocol of the `wallclock_seconds*` helpers: one
/// untimed warm-up solve (which also forces the lazy split layout out of the
/// timed region), then the mean over `repeats` solves, as the paper averages
/// over 10 repeats.
fn wallclock_with(
    run: &MethodRun,
    threads: usize,
    repeats: usize,
    solve: impl Fn(&sts_core::ParallelSolver, &StsStructure, &[f64]),
) -> f64 {
    let solver = sts_core::ParallelSolver::new(threads, paper_schedule(run.method));
    let b = vec![1.0; run.structure.n()];
    solve(&solver, &run.structure, &b); // warm-up
    let start = Instant::now();
    for _ in 0..repeats {
        solve(&solver, &run.structure, &b);
    }
    start.elapsed().as_secs_f64() / repeats as f64
}

/// Measures the wall-clock solve time of one built method on the host with
/// `threads` workers (averaged over `repeats` solves).
pub fn wallclock_seconds(run: &MethodRun, threads: usize, repeats: usize) -> f64 {
    wallclock_with(run, threads, repeats, |solver, s, b| {
        solver.solve(s, b).expect("solve succeeds");
    })
}

/// Measures the wall-clock solve time of the two-phase split kernel on the
/// host with `threads` workers (averaged over `repeats` solves).
pub fn wallclock_seconds_split(run: &MethodRun, threads: usize, repeats: usize) -> f64 {
    wallclock_with(run, threads, repeats, |solver, s, b| {
        solver
            .solve_with(
                s,
                b,
                &SolveOptions::default().with_engine(SolveEngine::Split),
            )
            .expect("solve succeeds");
    })
}

/// Measures the wall-clock solve time of the pack-pipelined kernel on the
/// host with `threads` workers (averaged over `repeats` solves).
pub fn wallclock_seconds_pipelined(run: &MethodRun, threads: usize, repeats: usize) -> f64 {
    wallclock_with(run, threads, repeats, |solver, s, b| {
        solver
            .solve_with(s, b, &SolveOptions::default())
            .expect("solve succeeds");
    })
}

/// Geometric mean of a slice of positive values (0 when empty).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Writes one JSON line to `path`, creating missing parent directories
/// first — `bench_smoke --json-path bench/bench_smoke.json` must work from a
/// fresh checkout where `bench/` does not exist yet (CI relies on the file
/// appearing, so the caller treats an error as fatal).
pub fn write_json_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, format!("{line}\n"))
}

/// Writes a serialisable result as pretty JSON into `<out_dir>/<name>.json`.
pub fn write_json<T: Serialize>(out_dir: &Path, name: &str, value: &T) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
        return;
    }
    let path = out_dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("\n[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::suite::{self, SuiteId};

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
    fn write_json_line_creates_missing_parent_directories() {
        // A fresh checkout has no bench/ directory; the writer must create
        // the whole chain rather than fail on the first missing component.
        let root =
            std::env::temp_dir().join(format!("sts_bench_write_json_line_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("nested/deeper/bench_smoke.json");
        assert!(!path.parent().unwrap().exists());
        write_json_line(&path, r#"{"ok":true}"#).expect("missing parents are created");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"ok\":true}\n",
            "record is written with a trailing newline"
        );
        // Overwriting through now-existing directories also works.
        write_json_line(&path, r#"{"ok":false}"#).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\":false}\n");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wallclock_measurement_returns_positive_time() {
        let m = suite::generate(SuiteId::D3, SuiteScale::Tiny).unwrap();
        let run = build_methods(&m, 16);
        let t = wallclock_seconds(&run.methods[3], 2, 2);
        assert!(t > 0.0);
    }
}
