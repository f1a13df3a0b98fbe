//! Bench smoke: one JSON line tracking the solve-kernel trajectory per PR.
//!
//! Builds STS-3 on the 200×200 grid Laplacian and reports, as a single JSON
//! object on stdout:
//!
//! * simulated cycles on the modelled 16-core Intel node for the sequential
//!   reference (1 core), the pack-parallel kernel, the two-phase split
//!   kernel and the pack-pipelined (barrier-fused) kernel, plus the
//!   barrier-bound cycles of the split vs. pipelined schedules;
//! * measured wall-clock seconds on the host for the sequential, parallel,
//!   split, pipelined and batched (4 RHS, per-system, split and pipelined)
//!   kernels, and the pipelined-vs-split wall-time ratio;
//! * the end-to-end Krylov workload: SSOR-PCG on the same matrix with
//!   pipelined sweeps (`pcg_iters`, `pcg_wall_ns`, `pcg_precond_share`) —
//!   the trend line that catches regressions in what the triangular kernels
//!   are *for*, not just in the kernels themselves;
//! * the mixed-precision path: the identical SSOR-PCG solve with the
//!   preconditioner sweeps reading f32 value slabs (the gated
//!   `pcg_f32slab_wall_ns`, expected below `pcg_wall_ns` — the slabs halve
//!   the sweep's value traffic), the modelled per-row value traffic at both
//!   widths (`sim_bytes_per_row_f64` / `sim_bytes_per_row_f32`, the ~2×
//!   ratio), and the refinement passes an f32 triangular solve needs to
//!   reach the f64 answer (`f32_refinement_extra_iters`, gated absolutely
//!   at ≤ 2);
//! * the block-Krylov workload: block CG vs lockstep scalar CG on four
//!   correlated right-hand sides (`pcg_block_iters`,
//!   `pcg_block_lockstep_iters`, `pcg_block_steps`,
//!   `pcg_block_vs_lockstep_iter_ratio`, and the gated
//!   `pcg_block_wall_per_rhs_ns`) — the shared Krylov space must cut
//!   iterations, not just per-iteration cost;
//! * the preconditioner *setup* path: IC(0) construction wall time for both
//!   engines (`ic0_build_sequential_wall_ns` vs.
//!   `ic0_build_parallel_wall_ns`, the level-scheduled build on the pack
//!   hierarchy) plus the modelled counterpart
//!   (`sim_ic0_build_*_cycles`), after asserting the two factors are
//!   bitwise identical;
//! * the fault-tolerant path: recovery-ladder attempts burned restoring
//!   convergence on the Kershaw-perturbed operator (`recovery_attempts`),
//!   the per-solve cost of the clean-path guards
//!   (`pcg_guarded_overhead_ns`, gated at < 2% of `pcg_wall_ns`), and the
//!   wall cost of one `validate()` boundary pass (`spd_validate_wall_ns`)
//!   — the robustness tax trend lines;
//! * the observability tax: what a pipelined solve pays for an
//!   installed-but-disabled span recorder
//!   (`pcg_trace_disabled_overhead_ns`, gated at < 2% of `pcg_wall_ns`) —
//!   tracing must be free when it is off;
//! * the solver service: the cold path through the wire contract
//!   (`serve_cold_solve_wall_ns` — pattern analysis + factorization + first
//!   solve) vs. the warm cached path (`serve_warm_solve_wall_ns`), both
//!   gated — the structure/factor cache must keep the steady-state solve
//!   far below the cold one;
//! * the static schedule verifier: wall nanoseconds of one full
//!   `verify_schedule()` pass over the smoke structure and the total
//!   happens-before edges it certified (`verify_schedule_wall_ns`,
//!   `hb_edges_total`) — advisory trend lines, deliberately not gated.
//!
//! Run with `cargo run --release -p sts-bench --bin bench_smoke`. The output
//! is one line so CI logs diff cleanly across PRs.
//!
//! # Flags
//!
//! * `--json-path <FILE>` — additionally write the JSON line to `<FILE>`
//!   (missing parent directories are created). CI uses this to archive the
//!   record as a per-commit artifact, to append it to the
//!   `BENCH_trend.jsonl` job summary, and to feed the `bench_gate`
//!   regression check against the committed `bench/baseline.json`.

use std::sync::Arc;
use std::time::Instant;

use serde::{Serialize, Value};
use sts_bench::harness::{self, Machine};
use sts_core::{
    Method, ParallelSolver, PrecisionPolicy, SimulatedExecutor, SolveEngine, SolveOptions,
};
use sts_krylov::{
    solve_refined, Identity, KrylovWorkspace, Pcg, Preconditioner, RefineOptions, RobustPcg,
    SpdSystem, Ssor, SweepEngine,
};
use sts_matrix::generators;
use sts_serve::protocol::{float_array, obj, render, usize_array};
use sts_serve::{ServiceConfig, SolverService};
use sts_trace::SpanRecorder;

#[derive(Serialize)]
struct Smoke {
    matrix: String,
    n: usize,
    nnz: usize,
    method: String,
    threads: usize,
    sim_cores: usize,
    sim_sequential_cycles: f64,
    sim_parallel_cycles: f64,
    sim_split_cycles: f64,
    sim_pipelined_cycles: f64,
    sim_split_compute_speedup: f64,
    /// Barrier-bound cycles of the split schedule (two barriers per chained
    /// pack) vs. the pipelined schedule (one pool barrier per solve).
    sim_split_sync_cycles: f64,
    sim_pipelined_sync_cycles: f64,
    /// Modelled end-to-end gain of barrier fusion.
    sim_pipelined_vs_split_speedup: f64,
    wall_sequential_s: f64,
    wall_sequential_split_s: f64,
    wall_parallel_s: f64,
    wall_parallel_split_s: f64,
    wall_parallel_pipelined_s: f64,
    /// Measured wall-time ratio split / pipelined (≥ 1.0 means the fused
    /// kernel is no slower than the barriered one). Taken from a dedicated
    /// interleaved min-of-blocks measurement, so it is noise-robust but not
    /// directly comparable with the mean-based `wall_*` fields.
    wall_pipelined_vs_split_speedup: f64,
    wall_batch4_per_rhs_s: f64,
    wall_batch4_pipelined_per_rhs_s: f64,
    /// SSOR-PCG (pipelined sweeps, 1e-8 relative) on the same matrix:
    /// iterations to convergence, best-of-blocks wall nanoseconds per solve,
    /// and the fraction of solve time spent inside the preconditioner.
    pcg_iters: usize,
    pcg_wall_ns: f64,
    pcg_precond_share: f64,
    /// The identical SSOR-PCG solve with the preconditioner sweeps reading
    /// the f32 value slabs (f64 accumulation) — same best-of-5 protocol as
    /// `pcg_wall_ns`, so the pair is directly comparable. Gated, and
    /// expected *below* the f64 field: the slabs halve the bandwidth-bound
    /// sweep's value traffic.
    pcg_f32slab_wall_ns: f64,
    /// Modelled compulsory value-slab traffic per row of one forward sweep
    /// at each storage width (`SimulatedExecutor::model_solve_bytes`) — the
    /// ~2× reduction the mixed-precision kernels chase, as arithmetic over
    /// the split layout rather than a measurement.
    sim_bytes_per_row_f64: f64,
    sim_bytes_per_row_f32: f64,
    /// Correction passes `solve_refined` needed to drive an f32-slab
    /// triangular solve on the smoke operator to its 1e-12 relative
    /// residual. Gated absolutely at ≤ 2: the f32 slabs may trade memory
    /// traffic, never accuracy.
    f32_refinement_extra_iters: usize,
    /// Block CG vs lockstep scalar CG on the same operator with 4
    /// correlated right-hand sides (a Krylov chain `b_q ∝ A^q c` plus a 1%
    /// independent rough part each): total per-system iterations of the
    /// shared-Krylov-space block driver, of the lockstep scalar driver, the
    /// shared block steps, and the iteration ratio (< 1.0 means the block
    /// space converged in fewer iterations, the headline win). The wall
    /// field is best-of-blocks nanoseconds per right-hand side of the block
    /// solve and is gated.
    pcg_block_iters: usize,
    pcg_block_lockstep_iters: usize,
    pcg_block_steps: usize,
    pcg_block_vs_lockstep_iter_ratio: f64,
    pcg_block_wall_per_rhs_ns: f64,
    /// IC(0) preconditioner setup on the same operator, both engines
    /// (best-of-blocks wall nanoseconds per factorization; the factors are
    /// bitwise identical, asserted before timing): the sequential
    /// up-looking sweep vs. the level-scheduled build on the pack
    /// hierarchy, plus the modelled cycles on the 16-core Intel node.
    /// `ic0_build_engine` records what the default setup path actually ran
    /// on this host — `parallel_ic0` takes a sequential fast path when the
    /// pool has a single worker.
    ic0_build_engine: String,
    ic0_build_sequential_wall_ns: f64,
    ic0_build_parallel_wall_ns: f64,
    ic0_build_parallel_vs_sequential_speedup: f64,
    sim_ic0_build_sequential_cycles: f64,
    sim_ic0_build_parallel_cycles: f64,
    sim_ic0_build_speedup: f64,
    /// The fault-tolerant solve path: rungs the recovery ladder burned
    /// (abandoned attempts) restoring convergence on the Kershaw-perturbed
    /// operator — the IC(0)-breaking-but-SPD shape. A growing count means
    /// the default shift schedule got weaker.
    recovery_attempts: usize,
    /// Best-of-blocks wall nanoseconds of the guards a *clean* PCG solve
    /// pays per call: the tolerance clamp plus the `pcg_iters + 1`
    /// non-finite residual checks — the exact scalar operations this
    /// solve's guard path executes, measured in isolation. Gated against
    /// `pcg_wall_ns` (< 2%) so the per-solve robustness tax can never
    /// quietly grow into the hot path.
    pcg_guarded_overhead_ns: f64,
    /// Best-of-blocks wall nanoseconds an installed-but-*disabled*
    /// `SpanRecorder` adds to one pipelined triangular solve — the paired
    /// difference between a traced-off solver and a plain one, clamped at
    /// zero. Gated against `pcg_wall_ns` (< 2%): observability must stay
    /// free when it is off.
    pcg_trace_disabled_overhead_ns: f64,
    /// Best-of-blocks wall nanoseconds of one `CsrMatrix::validate` pass
    /// over the smoke operator — the price of the non-finite/SPD-shape
    /// guard at the `SpdSystem::build` boundary. Informational: it is a
    /// once-per-build cost, amortised over every solve on the system.
    spd_validate_wall_ns: f64,
    /// The solver service's cold path, measured once through the wire
    /// contract on an in-process `SolverService`: `submit_pattern` (full
    /// STS analysis) + `submit_values` (warm rebind + IC(0) factorization)
    /// + the first solve. Gated: this is what a new pattern costs a client.
    serve_cold_solve_wall_ns: f64,
    /// The service's warm path (best-of-blocks): one `solve` request
    /// against the cached structure and factor — JSON parsing, workspace
    /// checkout, the PCG solve, and response rendering. Gated: this is the
    /// steady-state cost a streaming client pays per solve, and it must
    /// stay far below the cold path for the cache to be worth anything.
    serve_warm_solve_wall_ns: f64,
    /// Wall nanoseconds of one full static schedule verification
    /// ([`sts_core::StsStructure::verify_schedule`]: every thread count of
    /// the sweep × both sweep directions, plus the factor schedules) on the
    /// smoke structure. Advisory trend line — deliberately *not* in
    /// `GATED_FIELDS`: the verifier runs once per structure build (and in CI
    /// debug builds), so its cost tracks analysis, never the solve hot path.
    verify_schedule_wall_ns: f64,
    /// Task-granularity happens-before edges across the verified schedules
    /// — the size of the synchronisation relation the proof covers.
    /// Advisory: a step change means the schedule shape changed.
    hb_edges_total: f64,
}

fn main() {
    let json_path = parse_json_path();
    let a = generators::grid2d_laplacian(200, 200).expect("grid dimensions are valid");
    let l = generators::lower_operand(&a).expect("laplacian has a solvable lower operand");
    let threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    // Enough repeats to hold the wall-time ratios steady on a noisy
    // single-core CI host (the whole timed section stays well under a
    // second).
    let repeats = 150;

    let run = harness::build_methods_single(&l, Method::Sts3, 80);
    let s = &run.structure;

    // Simulated machine: the paper's 16-core Intel figure configuration.
    let machine = Machine::Intel;
    let sim_cores = machine.figure_cores();
    let sim_seq = harness::simulate(machine, &run, 1);
    let sim_par = harness::simulate(machine, &run, sim_cores);
    let sim_split = harness::simulate_split(machine, &run, sim_cores);
    let sim_piped = harness::simulate_pipelined(machine, &run, sim_cores);

    // Host wall-clock.
    let b = vec![1.0; s.n()];
    let wall_sequential_s = time_per_solve(repeats, || s.solve_sequential(&b).unwrap());
    // Every wall_* field is a mean over `repeats` solves, comparable with
    // the wall_* series of earlier commits.
    let wall_parallel_s = harness::wallclock_seconds(&run, threads, repeats);
    let wall_parallel_split_s = harness::wallclock_seconds_split(&run, threads, repeats);
    let wall_parallel_pipelined_s = harness::wallclock_seconds_pipelined(&run, threads, repeats);
    let solver = ParallelSolver::new(threads, harness::paper_schedule(run.method));
    let split = SolveOptions::default().with_engine(SolveEngine::Split);
    let piped = SolveOptions::default();
    let wall_sequential_split_s = time_per_solve(repeats, || {
        solver
            .solve_with(s, &b, &piped.with_engine(SolveEngine::Sequential))
            .unwrap()
    });
    // The split-vs-pipelined ratio is the trend line CI watches for the
    // barrier-fusion win, so it gets its own dedicated measurement:
    // interleaved (process-level drift cancels out of the ratio instead of
    // landing on whichever kernel was timed last) and min-of-blocks
    // (scheduler noise on the typically single-core host only ever adds
    // time). The mean-based wall_* fields above are *not* comparable with
    // these paired numbers. Measured before the batch section so the
    // multi-RHS buffers don't perturb the allocator state under it.
    let (paired_split_s, paired_piped_s) = time_pair(
        repeats,
        || solver.solve_with(s, &b, &split).unwrap(),
        || solver.solve_with(s, &b, &piped).unwrap(),
    );
    let nrhs = 4;
    let b4 = vec![1.0; s.n() * nrhs];
    let wall_batch4_s = time_per_solve(repeats, || {
        solver.solve_with(s, &b4, &split.with_nrhs(nrhs)).unwrap()
    });
    let wall_batch4_piped_s = time_per_solve(repeats, || {
        solver.solve_with(s, &b4, &piped.with_nrhs(nrhs)).unwrap()
    });

    // End-to-end Krylov workload: SSOR-PCG with pipelined sweeps on the same
    // operator. One warm-up solve builds the lazy layouts; the reported wall
    // time is the best of a few solves (scheduler noise only adds time).
    let sys = SpdSystem::build(&a, Method::Sts3, 80).expect("laplacian binds to STS-3");
    let pcg = Pcg::new(threads, harness::paper_schedule(run.method));
    let mut pre = Ssor::new(&sys, pcg.solver(), SweepEngine::Pipelined);
    let x_pcg: Vec<f64> = (0..sys.n())
        .map(|i| ((i * 7919) % 101) as f64 * 0.02 - 1.0)
        .collect();
    let b_pcg = sts_matrix::ops::spmv(&a, &x_pcg).expect("dimensions match");
    let mut ws = KrylovWorkspace::new(sys.n());
    let mut best = pcg
        .solve(&sys, &mut pre, &b_pcg, &mut ws)
        .expect("warm-up PCG solve succeeds");
    for _ in 0..4 {
        let out = pcg
            .solve(&sys, &mut pre, &b_pcg, &mut ws)
            .expect("PCG solve succeeds");
        assert_eq!(out.iterations, best.iterations, "PCG must be deterministic");
        if out.seconds_total < best.seconds_total {
            best = out;
        }
    }

    // The mixed-precision trend lines. First the same SSOR-PCG solve with
    // the preconditioner sweeps on the f32 value slabs: `set_precision`
    // pays the one-time demotion and the first solve is the warm-up; the
    // reported wall time follows the same best-of-5 protocol as
    // `pcg_wall_ns` so the f32-below-f64 comparison the gate trends is
    // apples to apples. The preconditioner is restored to f64 afterwards —
    // every later section must keep measuring the default path.
    pre.set_precision(PrecisionPolicy::ValuesF32WithRefinement);
    let mut best_f32 = pcg
        .solve(&sys, &mut pre, &b_pcg, &mut ws)
        .expect("warm-up f32-slab PCG solve succeeds");
    for _ in 0..4 {
        let out = pcg
            .solve(&sys, &mut pre, &b_pcg, &mut ws)
            .expect("f32-slab PCG solve succeeds");
        assert_eq!(
            out.iterations, best_f32.iterations,
            "f32-slab PCG must be deterministic"
        );
        if out.seconds_total < best_f32.seconds_total {
            best_f32 = out;
        }
    }
    pre.set_precision(PrecisionPolicy::ValuesF64);
    // The modelled counterpart: compulsory value-slab traffic per row of one
    // sweep at each storage width — pure arithmetic over the split layout.
    let bytes_exec = SimulatedExecutor::new(machine.topology());
    let bytes_f64 = bytes_exec.model_solve_bytes(s, PrecisionPolicy::ValuesF64);
    let bytes_f32 = bytes_exec.model_solve_bytes(s, PrecisionPolicy::ValuesF32WithRefinement);
    // And the accuracy side of the trade: how many correction passes drive
    // an f32-slab triangular solve on this operator back to the f64 answer.
    let f32_opts = SolveOptions::default().with_precision(PrecisionPolicy::ValuesF32WithRefinement);
    let refined = solve_refined(&solver, s, &b, &f32_opts, &RefineOptions::default())
        .expect("the f32-slab smoke solve refines");
    assert!(
        refined.converged,
        "refinement must converge on the smoke operator"
    );

    // Block CG vs lockstep scalar CG: four correlated right-hand sides
    // (Krylov chain + 1% rough parts — the "family of similar load cases"
    // shape block solvers exist for), plain CG so the iteration comparison
    // isolates the shared Krylov space itself. Deterministic, so the
    // iteration counts are exact trend lines; the block wall time is
    // best-of-5 per solve like the scalar PCG field.
    let nrhs_blk = 4;
    let b_blk =
        generators::correlated_rhs_chain(&a, nrhs_blk).expect("workload binds to the operator");
    let mut ws_blk = KrylovWorkspace::with_nrhs(sys.n(), nrhs_blk);
    let lockstep = pcg
        .solve_batch(&sys, &mut Identity, &b_blk, nrhs_blk, &mut ws_blk)
        .expect("lockstep CG solves the correlated batch");
    let mut best_blk = pcg
        .solve_block(&sys, &mut Identity, &b_blk, nrhs_blk, &mut ws_blk)
        .expect("block CG solves the correlated batch");
    assert!(
        best_blk.converged.iter().all(|&c| c) && lockstep.converged.iter().all(|&c| c),
        "both batch drivers must converge on the smoke operator"
    );
    for _ in 0..4 {
        let out = pcg
            .solve_block(&sys, &mut Identity, &b_blk, nrhs_blk, &mut ws_blk)
            .expect("block CG solve succeeds");
        assert_eq!(
            out.total_iterations(),
            best_blk.total_iterations(),
            "block CG must be deterministic"
        );
        if out.seconds_total < best_blk.seconds_total {
            best_blk = out;
        }
    }
    let lockstep_total: usize = lockstep.iterations.iter().sum();

    // Preconditioner setup: sequential vs. level-scheduled IC(0) on the
    // system's pack hierarchy. The factors are bitwise identical by
    // construction — assert it once, then time the pair interleaved
    // (min-of-blocks, same protocol as the kernel ratio above). The
    // factorization is ~10× a solve, so it gets a smaller block budget.
    let f_seq = sts_matrix::factor::ic0(sys.matrix()).expect("laplacian is SPD");
    let f_par = pcg
        .solver()
        .parallel_ic0(sys.structure(), sys.matrix())
        .expect("laplacian is SPD");
    assert_eq!(
        f_seq.values(),
        f_par.values(),
        "setup engines must produce bitwise identical factors"
    );
    let (ic0_seq_s, ic0_par_s) = time_pair_blocks(
        20,
        2,
        || sts_matrix::factor::ic0(sys.matrix()).unwrap(),
        || {
            pcg.solver()
                .parallel_ic0(sys.structure(), sys.matrix())
                .unwrap()
        },
    );
    let sim_ic0_seq = harness::simulate_ic0_build(machine, &run, 1);
    let sim_ic0_par = harness::simulate_ic0_build(machine, &run, sim_cores);

    // Fault-tolerant path: the recovery ladder on the Kershaw-perturbed
    // operator (SPD but IC(0)-fatal). The attempt count is a trend line for
    // the default shift schedule; the solve must converge.
    let (a_kershaw, _) = sts_bench::faultinject::kershaw_cycle(&a, 200, 200, 7);
    let sys_kershaw =
        SpdSystem::build(&a_kershaw, Method::Sts3, 80).expect("perturbed operator stays SPD");
    let robust = RobustPcg::new(Pcg::new(threads, harness::paper_schedule(run.method)));
    let mut ws_kershaw = KrylovWorkspace::new(sys_kershaw.n());
    let b_kershaw = vec![1.0; sys_kershaw.n()];
    let recovered = robust
        .solve(&sys_kershaw, &b_kershaw, &mut ws_kershaw)
        .expect("the ladder must reach a working rung");
    assert!(
        recovered.outcome.converged,
        "recovery must restore convergence on the perturbed operator"
    );
    let recovery_attempts = recovered.report.attempts.len();

    // The guard tax, split by where it is paid. Per solve: the tolerance
    // clamp plus one finite check per residual norm — the scalar branch
    // sequence the guarded PCG loop adds, on opaque values so it cannot be
    // folded away. Per build: one full validate() pass.
    let norms: Vec<f64> = (0..=best.iterations).map(|i| 1.0 + i as f64).collect();
    let (guard_s, _) = time_pair_blocks(
        2000,
        200,
        || {
            let b_norm = std::hint::black_box(1.0f64);
            let mut clean = b_norm.is_finite();
            for &r in &norms {
                clean &= std::hint::black_box(r).is_finite();
            }
            std::hint::black_box(clean)
        },
        || (),
    );
    let (validate_s, _) = time_pair_blocks(20, 5, || a.validate().unwrap(), || ());

    // The disabled-tracing tax: the same pipelined kernel with a span
    // recorder installed but never enabled, paired against the plain solver
    // (interleaved min-of-blocks, like every other ratio here). The
    // difference is the whole cost observability charges a production solve
    // that has tracing wired up but off.
    let mut solver_traced = ParallelSolver::new(threads, harness::paper_schedule(run.method));
    solver_traced.set_trace_recorder(Some(Arc::new(SpanRecorder::new(1024))));
    let (piped_plain_s, piped_traced_s) = time_pair(
        repeats,
        || solver.solve_with(s, &b, &piped).unwrap(),
        || solver_traced.solve_with(s, &b, &piped).unwrap(),
    );
    let trace_overhead_ns = ((piped_traced_s - piped_plain_s) * 1e9).max(0.0);

    // The solver service, through the wire contract on an in-process
    // `SolverService` (no sockets, so the numbers isolate the service
    // layer): the cold path pays analysis + factorization + first solve
    // once; the warm path is the steady-state cached solve a streaming
    // client sees. The cache's entire point is warm ≪ cold — asserted here,
    // trended by the gate.
    let mut service = SolverService::new(ServiceConfig::default());
    let pattern_req = render(&obj(vec![
        ("v", Value::UInt(1)),
        ("id", Value::UInt(1)),
        ("op", Value::Str("submit_pattern".to_string())),
        ("n", Value::UInt(a.nrows() as u64)),
        ("row_ptr", usize_array(a.row_ptr())),
        ("col_idx", usize_array(a.col_idx())),
        ("method", Value::Str("STS-3".to_string())),
        ("rows_per_super_row", Value::UInt(80)),
    ]));
    let serve_cold_start = Instant::now();
    let reply = service.handle_line(&pattern_req);
    assert!(
        reply.line.contains("\"ok\":true"),
        "pattern submits cleanly"
    );
    let pattern = reply
        .line
        .split("\"pattern\":\"")
        .nth(1)
        .and_then(|rest| rest.get(..16))
        .expect("submit_pattern returns the key")
        .to_string();
    let values_req = render(&obj(vec![
        ("v", Value::UInt(1)),
        ("id", Value::UInt(2)),
        ("op", Value::Str("submit_values".to_string())),
        ("pattern", Value::Str(pattern.clone())),
        ("values", float_array(a.values())),
    ]));
    assert!(service
        .handle_line(&values_req)
        .line
        .contains("\"ok\":true"));
    let solve_req = render(&obj(vec![
        ("v", Value::UInt(1)),
        ("id", Value::UInt(3)),
        ("op", Value::Str("solve".to_string())),
        ("pattern", Value::Str(pattern)),
        ("b", float_array(&b_pcg)),
    ]));
    let reply = service.handle_line(&solve_req);
    assert!(
        reply.line.contains("\"converged\":true"),
        "the served smoke solve converges"
    );
    let serve_cold_s = serve_cold_start.elapsed().as_secs_f64();
    let mut serve_warm_s = f64::INFINITY;
    for _ in 0..20 {
        let start = Instant::now();
        for _ in 0..5 {
            let reply = service.handle_line(&solve_req);
            debug_assert!(reply.line.contains("\"cache\":\"warm\""));
        }
        serve_warm_s = serve_warm_s.min(start.elapsed().as_secs_f64() / 5.0);
    }
    assert!(
        serve_warm_s < serve_cold_s,
        "the warm service path must undercut the cold path (warm {serve_warm_s:.3e}s vs cold {serve_cold_s:.3e}s)"
    );

    // The static schedule verifier on the smoke structure (see the field
    // docs; advisory, not gated).
    let verify_start = Instant::now();
    let proof = s
        .verify_schedule()
        .expect("the smoke schedule verifies race- and deadlock-free");
    let verify_schedule_wall_ns = verify_start.elapsed().as_secs_f64() * 1e9;

    let smoke = Smoke {
        matrix: "grid2d_laplacian_200x200".to_string(),
        n: s.n(),
        nnz: s.nnz(),
        method: run.method.label().to_string(),
        threads,
        sim_cores,
        sim_sequential_cycles: sim_seq.total_cycles,
        sim_parallel_cycles: sim_par.total_cycles,
        sim_split_cycles: sim_split.total_cycles,
        sim_pipelined_cycles: sim_piped.total_cycles,
        sim_split_compute_speedup: sim_par.compute_cycles / sim_split.compute_cycles,
        sim_split_sync_cycles: sim_split.sync_cycles,
        sim_pipelined_sync_cycles: sim_piped.sync_cycles,
        sim_pipelined_vs_split_speedup: sim_split.total_cycles / sim_piped.total_cycles,
        wall_sequential_s,
        wall_sequential_split_s,
        wall_parallel_s,
        wall_parallel_split_s,
        wall_parallel_pipelined_s,
        wall_pipelined_vs_split_speedup: paired_split_s / paired_piped_s,
        wall_batch4_per_rhs_s: wall_batch4_s / nrhs as f64,
        wall_batch4_pipelined_per_rhs_s: wall_batch4_piped_s / nrhs as f64,
        pcg_iters: best.iterations,
        // The driver's integer clock (PcgOutcome::wall_ns) — the same value
        // the service metrics line reports, not an f64 re-derivation.
        pcg_wall_ns: best.wall_ns as f64,
        pcg_precond_share: best.precond_share(),
        pcg_f32slab_wall_ns: best_f32.wall_ns as f64,
        sim_bytes_per_row_f64: bytes_f64.value_bytes_per_row(),
        sim_bytes_per_row_f32: bytes_f32.value_bytes_per_row(),
        f32_refinement_extra_iters: refined.refine_iterations,
        pcg_block_iters: best_blk.total_iterations(),
        pcg_block_lockstep_iters: lockstep_total,
        pcg_block_steps: best_blk.block_steps,
        pcg_block_vs_lockstep_iter_ratio: best_blk.total_iterations() as f64
            / lockstep_total as f64,
        pcg_block_wall_per_rhs_ns: best_blk.seconds_total * 1e9 / nrhs_blk as f64,
        ic0_build_engine: if threads > 1 {
            "parallel".to_string()
        } else {
            "parallel-seq-fastpath".to_string()
        },
        ic0_build_sequential_wall_ns: ic0_seq_s * 1e9,
        ic0_build_parallel_wall_ns: ic0_par_s * 1e9,
        ic0_build_parallel_vs_sequential_speedup: ic0_seq_s / ic0_par_s,
        sim_ic0_build_sequential_cycles: sim_ic0_seq.total_cycles,
        sim_ic0_build_parallel_cycles: sim_ic0_par.total_cycles,
        sim_ic0_build_speedup: sim_ic0_seq.total_cycles / sim_ic0_par.total_cycles,
        recovery_attempts,
        pcg_guarded_overhead_ns: guard_s * 1e9,
        pcg_trace_disabled_overhead_ns: trace_overhead_ns,
        spd_validate_wall_ns: validate_s * 1e9,
        serve_cold_solve_wall_ns: serve_cold_s * 1e9,
        serve_warm_solve_wall_ns: serve_warm_s * 1e9,
        verify_schedule_wall_ns,
        hb_edges_total: proof.hb_edges as f64,
    };
    let line = serde_json::to_string(&smoke).expect("smoke record serialises");
    println!("{line}");
    if let Some(path) = json_path {
        harness::write_json_line(&path, &line).expect("bench json is writable");
        eprintln!("[bench json written to {}]", path.display());
    }
}

/// Parses `--json-path <FILE>` (the only flag this binary takes).
fn parse_json_path() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut path = None;
    while i < args.len() {
        match args[i].as_str() {
            "--json-path" => {
                i += 1;
                match args.get(i) {
                    Some(p) => path = Some(std::path::PathBuf::from(p)),
                    None => {
                        // Exit non-zero: CI relies on the file existing, so a
                        // silently dropped record must fail the job.
                        eprintln!("--json-path needs a file argument");
                        std::process::exit(2);
                    }
                }
            }
            other => eprintln!("ignoring unknown argument {other}"),
        }
        i += 1;
    }
    path
}

fn time_per_solve<O>(repeats: usize, mut solve: impl FnMut() -> O) -> f64 {
    let _ = solve(); // warm-up
    let start = Instant::now();
    for _ in 0..repeats {
        let _ = solve();
    }
    start.elapsed().as_secs_f64() / repeats as f64
}

/// Times two kernels in small alternating blocks and reports each kernel's
/// *fastest* per-solve block time. Interleaving cancels slow process-level
/// drift out of the ratio, and the minimum is robust against scheduler
/// interrupts, which only ever add time (this host is typically one core).
fn time_pair<O1, O2>(
    repeats: usize,
    solve_a: impl FnMut() -> O1,
    solve_b: impl FnMut() -> O2,
) -> (f64, f64) {
    // More rounds than the mean-based fields use: the minimum converges on
    // the true kernel cost as long as *some* block of each kernel runs
    // undisturbed, so the budget buys robustness against sustained host
    // load, not just isolated interrupts.
    let block = 5usize;
    time_pair_blocks(repeats.div_ceil(block).max(60), block, solve_a, solve_b)
}

/// [`time_pair`] with an explicit block/round budget, for operations too
/// expensive for the default one (the IC(0) factorizations).
fn time_pair_blocks<O1, O2>(
    rounds: usize,
    block: usize,
    mut solve_a: impl FnMut() -> O1,
    mut solve_b: impl FnMut() -> O2,
) -> (f64, f64) {
    let _ = solve_a(); // warm-ups (also force the lazy split layout)
    let _ = solve_b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..block {
            let _ = solve_a();
        }
        best_a = best_a.min(start.elapsed().as_secs_f64() / block as f64);
        let start = Instant::now();
        for _ in 0..block {
            let _ = solve_b();
        }
        best_b = best_b.min(start.elapsed().as_secs_f64() / block as f64);
    }
    (best_a, best_b)
}
