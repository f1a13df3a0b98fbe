//! Layer probes of the traced run: each layer's public functions called on
//! their own, on the workload's primary operator and at the run's thread
//! count, so that every workload reports every per-layer time as measured.
//! A probe value is the median over repeated calls unless it is a count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sts_core::{
    Method, ParallelSolver, PrecisionPolicy, SimulatedExecutor, SolveEngine, SolveOptions,
    StsStructure, SweepDirection,
};
use sts_krylov::{
    build_ladder_preconditioner, Ic0, KrylovWorkspace, Preconditioner, RecoveryPolicy, SpdSystem,
    SweepEngine,
};
use sts_matrix::{factor, generators, ops, CsrMatrix};
use sts_numa::topology::NumaTopology;
use sts_numa::{Schedule, WorkerPool};
use sts_serve::{protocol, SolverService};
use sts_trace::{Phase, SpanRecorder};

use crate::inputs;
use crate::stats::median;
use crate::workloads::{pinned_pcg, pinned_solver, serve, ROWS_PER_SUPER_ROW};

pub type Metric = (&'static str, f64);

/// Wall budget of one repeated probe.
const PROBE_BUDGET: Duration = Duration::from_millis(300);
/// Bytes per array of the bandwidth probe: 16 x the sum of the two 2 MiB
/// L2s. This VM also reports a 260 MiB L3 shared with other tenants, which
/// three arrays cannot exceed fourfold: the figure is cache-or-DRAM
/// bandwidth.
const STREAM_ARRAY_BYTES: usize = 64 << 20;

/// Median seconds of `f` over as many calls as fit the probe budget
/// (3 to 200), after one untimed call.
fn median_seconds(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < 3 || (samples.len() < 200 && begun.elapsed() < PROBE_BUDGET) {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// STREAM triad `a = b + s * c` over three arrays split across `threads`
/// threads; best of nine passes, GB/s counting two reads and one write.
fn stream_triad_gbps(threads: usize) -> f64 {
    let len = STREAM_ARRAY_BYTES / 8;
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads);
    let best = (0..9)
        .map(|_| {
            seconds(|| {
                std::thread::scope(|scope| {
                    for ((a, b), c) in a
                        .chunks_mut(chunk)
                        .zip(b.chunks(chunk))
                        .zip(c.chunks(chunk))
                    {
                        scope.spawn(move || {
                            for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                                *a = b + 3.0 * c;
                            }
                        });
                    }
                });
            })
        })
        .fold(f64::INFINITY, f64::min);
    std::hint::black_box(&a);
    (3 * STREAM_ARRAY_BYTES) as f64 / best / 1e9
}

/// Bytes of the forward split layout's slabs: values, `u32` columns, row
/// pointers and reciprocal diagonals.
fn slab_bytes(s: &StsStructure) -> f64 {
    let split = s.split();
    let values = split.ext_vals().len() + split.int_vals().len() + split.inv_diags().len();
    let cols = split.ext_cols().len() + split.int_cols().len();
    let ptrs = split.ext_row_ptr().len() + split.int_row_ptr().len();
    (values * 8 + cols * 4 + ptrs * 8) as f64
}

pub fn layer_probes(a: &CsrMatrix, threads: usize, seed: u64) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let n = a.nrows();
    let mut rng = inputs::stream(seed, "probes");
    let x_star = inputs::uniform_vector(&mut rng, n);
    let b4_cols = inputs::manufactured_rhs(a, &mut rng, 4);
    let (b, b4) = (b4_cols[0].clone(), inputs::interleave(&b4_cols));

    // host
    let stream_gbps = stream_triad_gbps(threads);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    out.extend([
        ("host.stream_gbps", stream_gbps),
        ("host.nproc", nproc as f64),
        ("host.threads", threads as f64),
    ]);

    // sts-numa: an empty-body dispatch, one index per worker, on workers
    // pinned like the solver's.
    let cores: Vec<usize> = (0..threads).collect();
    let pool = WorkerPool::with_pinning(threads, &cores);
    let dispatch = median_seconds(|| {
        pool.parallel_for(threads, Schedule::Static, &|_| {})
            .expect("an empty body does not panic");
    });
    out.push(("numa.dispatch_us", dispatch * 1e6));

    // sts-matrix
    let mut y = vec![0.0; n];
    out.extend([
        (
            "matrix.validate_us",
            median_seconds(|| a.validate().expect("valid")) * 1e6,
        ),
        (
            "matrix.spmv_us",
            median_seconds(|| ops::spmv_into(a, &x_star, &mut y).expect("dimensions match")) * 1e6,
        ),
    ]);

    // sts-core, analysis
    let mut sys = None;
    let analysis_s = seconds(|| {
        sys = Some(SpdSystem::build(a, Method::Sts3, ROWS_PER_SUPER_ROW).expect("operator binds"));
    });
    let sys = sys.expect("built above");
    let s = sys.structure();
    let largest_pack = (0..s.num_packs())
        .map(|p| s.pack_rows(p).len())
        .max()
        .unwrap_or(0);
    let solver = pinned_solver(threads);
    let forward = SolveOptions::default();
    let transpose = forward.with_direction(SweepDirection::Transpose);
    let sweep = |opts: &SolveOptions, rhs: &[f64]| {
        solver.solve_with(s, rhs, opts).expect("sweep succeeds");
    };
    // The first sweep in a direction builds that direction's layout.
    let first_fwd = seconds(|| sweep(&forward, &b));
    let first_bwd = seconds(|| sweep(&transpose, &b));
    let fwd = median_seconds(|| sweep(&forward, &b));
    let bwd = median_seconds(|| sweep(&transpose, &b));
    out.extend([
        ("core.analysis_s", analysis_s),
        (
            "core.layout_build_ms",
            ((first_fwd - fwd) + (first_bwd - bwd)) * 1e3,
        ),
        ("core.packs", s.num_packs() as f64),
        ("core.super_rows", s.num_super_rows() as f64),
        ("core.largest_pack_share", largest_pack as f64 / n as f64),
        ("core.slab_bytes", slab_bytes(s)),
    ]);

    // sts-core, solver. References: Algorithm 1 on one thread, the split
    // engine, f32 slabs, and the paper's CSR-LS baseline at this thread
    // count.
    let with_engine = |engine| forward.with_engine(engine);
    let f32_slabs = forward.with_precision(PrecisionPolicy::ValuesF32WithRefinement);
    let l = generators::lower_operand(a).expect("operator has a lower operand");
    let csr_ls = Method::CsrLs
        .build(&l, ROWS_PER_SUPER_ROW)
        .expect("CSR-LS builds");
    let ls_solver = ParallelSolver::new(threads, Schedule::Dynamic { chunk: 32 });
    let model = SimulatedExecutor::new(NumaTopology::uma(threads));
    let sweep_bytes = model
        .model_solve_bytes(s, PrecisionPolicy::ValuesF64)
        .total_bytes() as f64;
    let sweep_gbps = sweep_bytes / fwd / 1e9;
    out.extend([
        ("core.sweep_fwd_us", fwd * 1e6),
        ("core.sweep_bwd_us", bwd * 1e6),
        (
            "core.sweep_seq_us",
            median_seconds(|| drop(s.solve_sequential(&b).expect("sweep succeeds"))) * 1e6,
        ),
        (
            "core.sweep_split_us",
            median_seconds(|| sweep(&with_engine(SolveEngine::Split), &b)) * 1e6,
        ),
        (
            "core.sweep_f32_us",
            median_seconds(|| sweep(&f32_slabs, &b)) * 1e6,
        ),
        (
            "core.sweep_csrls_us",
            median_seconds(|| drop(ls_solver.solve(&csr_ls, &b).expect("sweep succeeds"))) * 1e6,
        ),
        (
            "core.sweep_batch4_per_rhs_us",
            median_seconds(|| sweep(&forward.with_nrhs(4), &b4)) * 1e6 / 4.0,
        ),
        (
            "core.parallel_ic0_ms",
            median_seconds(|| drop(solver.parallel_ic0(s, sys.matrix()).expect("IC(0) exists")))
                * 1e3,
        ),
        ("core.sweep_bytes", sweep_bytes),
        ("core.sweep_gbps", sweep_gbps),
        ("core.roofline_ratio", sweep_gbps / stream_gbps),
    ]);
    out.push((
        "matrix.ic0_seq_ms",
        median_seconds(|| drop(factor::ic0(sys.matrix()).expect("IC(0) exists"))) * 1e3,
    ));

    // sts-trace: the program's own recorder on the same sweeps.
    out.extend(sweep_phase_shares(s, threads, &b));

    // sts-krylov
    out.extend(krylov_probes(a, &sys, threads, &b, &b4));

    // sts-serve
    out.extend(serve_probes(a, threads, &b));
    out
}

/// Shares of worker time per sweep phase, from `sts-trace` spans recorded
/// inside the program during forward and transpose sweeps.
fn sweep_phase_shares(s: &StsStructure, threads: usize, b: &[f64]) -> Vec<Metric> {
    let capacity = 1 << 18;
    let recorder = Arc::new(SpanRecorder::new(capacity));
    let mut solver = pinned_solver(threads);
    solver.set_trace_recorder(Some(Arc::clone(&recorder)));
    recorder.enable();
    let begun = Instant::now();
    let mut sweeps = 0;
    // Stop well before the ring wraps: shares are taken over whole sweeps.
    while sweeps < 2 || (recorder.len() < capacity / 4 && begun.elapsed() < PROBE_BUDGET) {
        for direction in [SweepDirection::Forward, SweepDirection::Transpose] {
            let opts = SolveOptions::default().with_direction(direction);
            solver.solve_with(s, b, &opts).expect("sweep succeeds");
        }
        sweeps += 1;
    }
    recorder.disable();
    let mut by_phase = [0u64; 3];
    for span in recorder.snapshot() {
        let slot = match span.phase {
            Phase::Gather => 0,
            Phase::Chain => 1,
            Phase::GateWait => 2,
            Phase::Factor | Phase::Refine => continue,
        };
        by_phase[slot] += span.t_end_ns - span.t_start_ns;
    }
    let total = by_phase.iter().sum::<u64>().max(1) as f64;
    vec![
        ("trace.gather_share", by_phase[0] as f64 / total),
        ("trace.chain_share", by_phase[1] as f64 / total),
        ("trace.gatewait_share", by_phase[2] as f64 / total),
        ("trace.spans_dropped", recorder.dropped() as f64),
    ]
}

fn krylov_probes(
    a: &CsrMatrix,
    sys: &SpdSystem,
    threads: usize,
    b: &[f64],
    b4: &[f64],
) -> Vec<Metric> {
    let n = sys.n();
    let pcg = pinned_pcg(threads);
    let build = || Ic0::new(sys, pcg.solver(), SweepEngine::Pipelined).expect("IC(0) exists");
    let mut pre = build();
    let ic0_build = median_seconds(|| drop(build()));
    let rebind = median_seconds(|| {
        drop(SpdSystem::build_with_structure(a, sys.structure()).expect("same pattern rebinds"))
    });
    let (_, report) = build_ladder_preconditioner(sys, pcg.solver(), &RecoveryPolicy::default())
        .expect("the ladder reaches a rung");

    let mut ws = KrylovWorkspace::new(n);
    let (mut wall, mut share, mut iterations) = (Vec::new(), Vec::new(), 0);
    median_seconds(|| {
        let out = pcg.solve(sys, &mut pre, b, &mut ws).expect("PCG solves");
        wall.push(out.wall_ns as f64 / 1e9);
        share.push(out.precond_share());
        iterations = out.iterations;
    });
    let pcg_s = median(&wall);

    let r = vec![1.0; n];
    let (mut z, mut sweep) = (vec![0.0; n], vec![0.0; n]);
    let apply = median_seconds(|| {
        pre.apply_into(pcg.solver(), &r, &mut z, &mut sweep)
            .expect("factor applies");
    });
    let spmv = median_seconds(|| {
        pcg.solver()
            .spmv_into(sys.matrix(), &r, &mut z)
            .expect("dimensions match");
    });

    let mut ws4 = KrylovWorkspace::with_nrhs(n, 4);
    let batch4 = median_seconds(|| {
        drop(
            pcg.solve_batch(sys, &mut pre, b4, 4, &mut ws4)
                .expect("lockstep PCG solves"),
        );
    });
    let (mut block_steps, mut deflations) = (0, 0);
    let block4 = median_seconds(|| {
        let out = pcg
            .solve_block(sys, &mut pre, b4, 4, &mut ws4)
            .expect("block PCG solves");
        (block_steps, deflations) = (out.block_steps, out.deflations);
    });
    vec![
        ("krylov.pcg_ms", pcg_s * 1e3),
        ("krylov.iters", iterations as f64),
        ("krylov.precond_share", median(&share)),
        ("krylov.precond_apply_us", apply * 1e6),
        ("krylov.spmv_us", spmv * 1e6),
        (
            "krylov.vecops_ms",
            (pcg_s - iterations as f64 * (apply + spmv)) * 1e3,
        ),
        ("krylov.rebind_ms", rebind * 1e3),
        ("krylov.ic0_build_ms", ic0_build * 1e3),
        ("krylov.batch4_ms", batch4 * 1e3),
        ("krylov.block4_ms", block4 * 1e3),
        ("krylov.block_steps", block_steps as f64),
        ("krylov.deflations", deflations as f64),
        ("krylov.recovery_rungs", report.attempts.len() as f64),
    ]
}

/// The served path on the operator: one cold sequence over the socket, then
/// warm solves, and the pieces of a warm solve on their own (request
/// rendering, request parsing, handling on a twin service without a socket,
/// reply parsing). What the round trip takes beyond the service's handling
/// and the client's own rendering and parsing is the wire: sockets, line
/// buffering and the service mutex.
fn serve_probes(a: &CsrMatrix, threads: usize, b: &[f64]) -> Vec<Metric> {
    let daemon = serve::Daemon::start(threads);
    let mut client = daemon.connect();
    let mut twin = SolverService::new(serve::service_config(threads));

    let mut key = String::new();
    let cold = seconds(|| {
        key = client
            .submit_pattern(a, "STS-3", ROWS_PER_SUPER_ROW)
            .expect("pattern submits");
        client
            .submit_values(&key, a.values())
            .expect("values submit");
        client
            .request("solve", serve::solve_fields(&key, b, 1))
            .expect("first solve succeeds");
    });
    for line in [
        serve::request_line("submit_pattern", serve::pattern_fields(a)),
        serve::request_line("submit_values", serve::values_fields(&key, a.values())),
    ] {
        assert!(twin.handle_line(&line).line.contains("\"ok\":true"));
    }
    let submit_values = median_seconds(|| {
        client
            .submit_values(&key, a.values())
            .expect("values resubmit");
    });

    let mut line = String::new();
    let encode =
        median_seconds(|| line = serve::request_line("solve", serve::solve_fields(&key, b, 1)));
    let decode = median_seconds(|| drop(protocol::parse_request(&line).expect("request parses")));
    let solve_wall = |reply: &serde::Value| {
        serve::parse_solution(reply)
            .expect("solve reply lifts")
            .solve_wall_ns as f64
            / 1e9
    };
    let mut replies = Vec::new();
    let handle = median_seconds(|| replies.push(twin.handle_line(&line).line));
    let twin_pcg: Vec<f64> = replies
        .iter()
        .map(|reply| {
            let parsed = serde_json::from_str(reply).expect("reply parses");
            solve_wall(parsed.get("result").expect("ok envelope"))
        })
        .collect();
    let reply = replies.pop().expect("at least one handled line");
    let reply_parse = median_seconds(|| drop(serde_json::from_str(&reply).expect("reply parses")));
    let mut pcg = Vec::new();
    let roundtrip = median_seconds(|| {
        let result = client
            .request("solve", serve::solve_fields(&key, b, 1))
            .expect("solve succeeds");
        pcg.push(solve_wall(&result));
    });
    drop(client);
    // The twin and the daemon run separate, unpinned pools, whose PCG times
    // differ by placement: the daemon's handling is taken as its own PCG time
    // plus the overhead measured around the twin's.
    let pcg = median(&pcg);
    let service_overhead = handle - median(&twin_pcg);
    vec![
        ("serve.cold_ms", cold * 1e3),
        ("serve.submit_values_ms", submit_values * 1e3),
        ("serve.roundtrip_ms", roundtrip * 1e3),
        ("serve.encode_ms", encode * 1e3),
        ("serve.decode_ms", decode * 1e3),
        ("serve.handle_ms", handle * 1e3),
        ("serve.pcg_ms", pcg * 1e3),
        ("serve.service_overhead_ms", service_overhead * 1e3),
        (
            "serve.wire_ms",
            (roundtrip - pcg - service_overhead - encode - reply_parse) * 1e3,
        ),
        ("serve.reply_parse_ms", reply_parse * 1e3),
        ("serve.request_bytes", line.len() as f64 + 1.0),
        ("serve.reply_bytes", reply.len() as f64 + 1.0),
    ]
}
