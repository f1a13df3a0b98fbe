//! The five workloads. Each is a repeating *cycle* of unit ops closed by one
//! value update, run until the time budget is spent (and always through the
//! first cycle, so that every metric has a sample); every answer is checked
//! outside the timed span of the op that produced it.

mod pcg;
pub mod serve;
mod tri;

use std::time::{Duration, Instant};

use sts_core::ParallelSolver;
use sts_krylov::Pcg;
use sts_matrix::{ops, CsrMatrix};
use sts_numa::Schedule;

use crate::spans::SpanBuf;

/// Rows per super-row: the paper's setting for its Intel node.
pub const ROWS_PER_SUPER_ROW: usize = 80;
/// The schedule the paper uses for the 3-level methods (`guided,1`).
pub const STS3_SCHEDULE: Schedule = Schedule::Guided { min_chunk: 1 };

/// A solver whose workers are pinned compactly, one per core, as the paper
/// pins its OpenMP threads (`KMP_AFFINITY=compact`). Unpinned, the scheduler
/// places the workers in one of two ways per process on this host, and the
/// cache-resident sweep is 45 % slower in one of them for the whole run.
/// Where the host refuses the affinity call the workers stay unpinned.
pub fn pinned_solver(threads: usize) -> ParallelSolver {
    let cores: Vec<usize> = (0..threads).collect();
    ParallelSolver::with_pinning(threads, STS3_SCHEDULE, &cores)
}

/// A PCG driver on a [`pinned_solver`]. (`sts-serve` builds its own,
/// unpinned driver; `serve_mixed` measures it as it is.)
pub fn pinned_pcg(threads: usize) -> Pcg {
    let mut pcg = Pcg::new(threads, STS3_SCHEDULE);
    *pcg.solver_mut() = pinned_solver(threads);
    pcg
}

/// One traced unit in this many also replays its pieces in isolation.
const REPLAY_EVERY: u64 = 10;

/// Seed of the irregular pattern of `pcg_batch4_tri2d`. The pattern is part
/// of the workload, not of the run: patterns drawn from different seeds cost
/// up to 35 % apart per solve (different packs, different iteration counts),
/// which would make ten seeds ten workloads. `--seed` draws the right-hand
/// sides and the value updates.
const TRIANGULATION_SEED: u64 = 2015;

/// Largest relative residual `‖L'x − b‖ / ‖b‖` a sweep may leave.
const SWEEP_RESIDUAL_LIMIT: f64 = 1e-10;
/// Largest true relative residual `‖b − A x‖ / ‖b‖` a PCG or served
/// solution may leave (the solver stops at a recurrence residual of 1e-8).
const SOLVE_RESIDUAL_LIMIT: f64 = 1e-6;

pub struct WorkloadDef {
    pub name: &'static str,
    /// The tail percentile reported when the run has the samples for it.
    pub tail_percentile: u32,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "tri_3d27",
        tail_percentile: 99,
        why: "30 MB of STS-3 slabs on a 175k-row 27-point grid: the out-of-cache, bandwidth-bound sweep pair the paper is about",
    },
    WorkloadDef {
        name: "tri_2d_small",
        tail_percentile: 99,
        why: "cache-resident 200x200 grid, 3 packs: per-solve dispatch, plan rewind and synchronisation weigh most against a 150 us sweep",
    },
    WorkloadDef {
        name: "pcg_3d27",
        tail_percentile: 85,
        why: "IC(0)-PCG to 1e-8 on the 175k-row operator with a refactor every 6 solves: time to a solution of stated accuracy",
    },
    WorkloadDef {
        name: "pcg_batch4_tri2d",
        tail_percentile: 80,
        why: "lockstep and block PCG at nrhs = 4 on an irregular 90k-row triangulation: the strided batch kernels and nrhs x nrhs micro-kernels",
    },
    WorkloadDef {
        name: "serve_mixed",
        tail_percentile: 95,
        why: "two closed-loop clients on the TCP daemon, 80/10/8/2 solve/batch/update/cold mix: JSON, cache and sockets dominate",
    },
];

/// What one timed window of a workload produced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Ops attempted (units, value updates, cold sequences) and how many of
    /// them failed: an error, `converged = false` or a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    /// Ops that reached a verdict; fewer than `attempted` means a
    /// correctness check was skipped.
    pub checked: u64,
    /// Latency of each unit op, milliseconds.
    pub solve_ms: Vec<f64>,
    /// Latency of each value update (new values on a known pattern to an
    /// operator that has solved once), milliseconds.
    pub refactor_ms: Vec<f64>,
    /// Ops inside completed cycles and the timed wall they took, for
    /// throughput over a mix that is the same in every run.
    pub cycle_ops: u64,
    pub cycle_wall_s: f64,
    /// PCG iterations of each system solved during the first cycle, in op
    /// order: a count that repeats exactly per seed.
    pub first_cycle_iterations: Vec<u64>,
    /// Share of the unit's time that the unit's named pieces, replayed in
    /// isolation, account for. Traced windows only.
    pub cover_share: Option<f64>,
    /// What the workload's own service counted during the window.
    pub service: Option<ServiceCounts>,
    /// The first few failures, for the log.
    pub failure_notes: Vec<String>,
}

/// Deltas of the `stats` op over one window.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceCounts {
    pub cache_hit_share: f64,
    pub evictions: f64,
    pub workspace_reuse_share: f64,
}

impl Samples {
    fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records the verdict on one op: `Ok` when its answer passed the
    /// correctness check, `Err` when the op returned an error or its answer
    /// failed the check. Every attempted op must come through here.
    fn check(&mut self, verdict: Result<(), String>) {
        self.checked += 1;
        if let Err(note) = verdict {
            self.failed += 1;
            if self.failure_notes.len() < 8 {
                self.failure_notes.push(note);
            }
        }
    }

    /// Ops completed per second of timed wall, over whole cycles.
    pub fn ops_per_s(&self) -> f64 {
        self.cycle_ops as f64 / self.cycle_wall_s
    }
}

/// Timed ops of the cycle in progress; folded into [`Samples`] only when the
/// cycle completes, so that a run cut off mid-cycle does not skew the mix.
#[derive(Default)]
struct Cycle {
    ops: u64,
    wall: Duration,
}

impl Cycle {
    fn add(&mut self, elapsed: Duration) {
        self.ops += 1;
        self.wall += elapsed;
    }

    fn commit(self, samples: &mut Samples) {
        samples.cycle_ops += self.ops;
        samples.cycle_wall_s += self.wall.as_secs_f64();
    }
}

pub trait Workload {
    /// Runs cycles until `budget` is spent. Spans are recorded into `spans`
    /// (a buffer that is off for the end-to-end windows).
    fn run(&mut self, budget: Duration, spans: &mut SpanBuf) -> Samples;

    /// The operator the layer probes of the traced run are taken on.
    fn primary_operator(&self) -> &CsrMatrix;

    /// Chrome-trace tracks beyond the main buffer (per-client buffers).
    fn extra_tracks(&self) -> &[SpanBuf] {
        &[]
    }
}

/// Generates the workload's matrix from the seed and takes it to
/// ready-to-solve: analysis, factorization, layout warm-up. The caller times
/// this call as `setup_s`.
pub fn setup(name: &str, seed: u64, threads: usize, traced: bool) -> Option<Box<dyn Workload>> {
    use sts_matrix::generators as gen;
    let grid = "grid dimensions are valid";
    Some(match name {
        "tri_3d27" => Box::new(tri::Tri::setup(
            gen::grid3d_27point(56, 56, 56).expect(grid),
            seed,
            threads,
            100,
        )),
        "tri_2d_small" => Box::new(tri::Tri::setup(
            gen::grid2d_laplacian(200, 200).expect(grid),
            seed,
            threads,
            2000,
        )),
        "pcg_3d27" => Box::new(pcg::PcgCycle::setup(
            gen::grid3d_27point(56, 56, 56).expect(grid),
            seed,
            threads,
            &pcg::SINGLE_CYCLE,
        )),
        "pcg_batch4_tri2d" => Box::new(pcg::PcgCycle::setup(
            gen::triangulated_grid(300, 300, TRIANGULATION_SEED).expect(grid),
            seed,
            threads,
            &pcg::BATCH4_CYCLE,
        )),
        "serve_mixed" => Box::new(serve::Serve::setup(seed, threads, traced)),
        _ => return None,
    })
}

/// Whether the window is over: the budget is spent and the first cycle is
/// complete.
fn window_over(samples: &Samples, deadline: Instant) -> bool {
    samples.cycle_ops > 0 && Instant::now() >= deadline
}

/// `‖b − A x‖ / ‖b‖`, the true residual, computed by the benchmark.
fn relative_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = ops::spmv(a, x).expect("dimensions match the operator");
    let r: Vec<f64> = b.iter().zip(&ax).map(|(b, ax)| b - ax).collect();
    ops::norm2(&r) / ops::norm2(b)
}

/// Checks every column of a solution interleaved as `x[i * nrhs + q]`.
fn check_columns(
    a: &CsrMatrix,
    x: &[f64],
    converged: bool,
    b_cols: &[Vec<f64>],
) -> Result<(), String> {
    let nrhs = b_cols.len();
    (0..nrhs).try_for_each(|q| {
        check_solution(a, &crate::inputs::column(x, nrhs, q), &b_cols[q], converged)
    })
}

/// Checks one solved system against [`SOLVE_RESIDUAL_LIMIT`].
fn check_solution(a: &CsrMatrix, x: &[f64], b: &[f64], converged: bool) -> Result<(), String> {
    if !converged {
        return Err("solver reported converged = false".to_string());
    }
    if x.len() != b.len() {
        return Err(format!(
            "solution has {} entries, expected {}",
            x.len(),
            b.len()
        ));
    }
    let residual = relative_residual(a, x, b);
    // A NaN residual must fail, so compare for success.
    if residual <= SOLVE_RESIDUAL_LIMIT {
        Ok(())
    } else {
        Err(format!(
            "true relative residual {residual:e} exceeds {SOLVE_RESIDUAL_LIMIT:e}"
        ))
    }
}
