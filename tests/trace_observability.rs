//! End-to-end observability: span timelines, Chrome trace export, and the
//! service-level metrics surface.
//!
//! The acceptance workload is the 200×200 2-D Laplacian of the paper's
//! smoke suite: a tracing-enabled split-driver SSOR-PCG solve must produce a
//! valid Chrome trace-event JSON document whose spans cover every pack in
//! both solve phases (phase-1 gather, phase-2 chains).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use serde::Value;
use sts_k::core::{Method, ParallelSolver, SolveOptions, SweepDirection};
use sts_k::krylov::{KrylovWorkspace, Pcg, SpdSystem, Ssor};
use sts_k::matrix::{generators, ops};
use sts_k::numa::Schedule;
use sts_k::serve::{ServiceConfig, SolverService};
use sts_k::trace::{chrome_trace_json, Phase, SpanRecorder};

/// A traced split-driver solve on the acceptance workload, returning the
/// recorder and the system it ran on.
fn traced_laplacian_solve() -> (Arc<SpanRecorder>, SpdSystem) {
    let a = generators::grid2d_laplacian(200, 200).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 80).unwrap();
    let mut pcg = Pcg::new(4, Schedule::Guided { min_chunk: 1 });
    let recorder = Arc::new(SpanRecorder::new(1 << 20));
    recorder.enable();
    pcg.solver_mut()
        .set_trace_recorder(Some(Arc::clone(&recorder)));
    let mut pre = Ssor::new(&sys);
    let mut ws = KrylovWorkspace::new(sys.n());
    let b = ops::spmv(&a, &vec![1.0; sys.n()]).unwrap();
    let out = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
    assert!(out.converged);
    assert!(out.wall_ns > 0);
    (recorder, sys)
}

#[test]
fn traced_solve_covers_every_pack_per_phase() {
    let (recorder, sys) = traced_laplacian_solve();
    let spans = recorder.snapshot();
    assert!(!spans.is_empty(), "a traced solve must record spans");
    assert_eq!(recorder.dropped(), 0, "ring sized for the whole solve");

    let num_packs = sys.structure().num_packs();
    let mut gathered = BTreeSet::new();
    let mut chained = BTreeSet::new();
    for s in &spans {
        assert!(s.t_end_ns >= s.t_start_ns, "spans are well-formed");
        assert!(
            (s.pack as usize) < num_packs,
            "pack {} out of range {num_packs}",
            s.pack
        );
        match s.phase {
            Phase::Gather => {
                gathered.insert(s.pack);
            }
            Phase::Chain => {
                chained.insert(s.pack);
            }
            Phase::GateWait | Phase::Factor | Phase::Refine => {}
        }
    }
    let all: BTreeSet<u32> = (0..num_packs as u32).collect();
    assert_eq!(gathered, all, "every pack gathers once per sweep");
    assert_eq!(chained, all, "every pack runs its chains once per sweep");
}

/// The split driver records spans for whatever it drives: a transpose sweep
/// and a batched sweep each leave `Gather` and `Chain` spans for every pack.
#[test]
fn split_driver_traces_transpose_and_batch_sweeps() {
    let a = generators::grid2d_laplacian(40, 40).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 40).unwrap();
    let s = sys.structure();
    let all: BTreeSet<u32> = (0..s.num_packs() as u32).collect();
    for opts in [
        SolveOptions::default().with_direction(SweepDirection::Transpose),
        SolveOptions::default().with_nrhs(4),
    ] {
        let mut solver = ParallelSolver::new(3, Schedule::Guided { min_chunk: 1 });
        let recorder = Arc::new(SpanRecorder::new(1 << 16));
        recorder.enable();
        solver.set_trace_recorder(Some(Arc::clone(&recorder)));
        solver
            .solve_with(s, &vec![1.0; s.n() * opts.nrhs], &opts)
            .unwrap();
        let packs_of = |phase: Phase| -> BTreeSet<u32> {
            recorder
                .snapshot()
                .iter()
                .filter(|span| span.phase == phase)
                .map(|span| span.pack)
                .collect()
        };
        assert_eq!(packs_of(Phase::Gather), all, "{opts:?}: gather spans");
        assert_eq!(packs_of(Phase::Chain), all, "{opts:?}: chain spans");
        assert_eq!(recorder.dropped(), 0);
    }
}

#[test]
fn chrome_trace_export_is_valid_json() {
    let (recorder, _) = traced_laplacian_solve();
    let json = chrome_trace_json(&recorder.snapshot());
    let v = serde_json::from_str(&json).expect("export parses as JSON");
    let events = v.as_array().expect("trace is a JSON array");
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("cat").and_then(Value::as_str), Some("sts"));
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        assert!(e.get("ts").and_then(Value::as_f64).is_some());
        assert!(e.get("dur").and_then(Value::as_f64).is_some());
        assert!(e.get("tid").and_then(Value::as_u64).is_some());
        let pack = e.get("args").and_then(|a| a.get("pack"));
        assert!(pack.and_then(Value::as_u64).is_some());
        let name = e.get("name").and_then(Value::as_str).unwrap();
        assert!(matches!(name, "gather" | "chain" | "gate_wait" | "factor"));
    }
}

#[test]
fn installed_but_disabled_recorder_stays_silent() {
    let a = generators::grid2d_laplacian(40, 40).unwrap();
    let sys = SpdSystem::build(&a, Method::Sts3, 40).unwrap();
    let mut pcg = Pcg::new(4, Schedule::Guided { min_chunk: 1 });
    let recorder = Arc::new(SpanRecorder::new(1024));
    // Installed but never enabled: the disabled path must record nothing.
    pcg.solver_mut()
        .set_trace_recorder(Some(Arc::clone(&recorder)));
    let mut pre = Ssor::new(&sys);
    let mut ws = KrylovWorkspace::new(sys.n());
    let b = ops::spmv(&a, &vec![1.0; sys.n()]).unwrap();
    pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
    assert!(recorder.snapshot().is_empty());
    assert_eq!(recorder.dropped(), 0);
}

/// Drives one submit/values/solve cycle on a 2×2 SPD system and returns the
/// pattern key.
fn warm_service(service: &mut SolverService) -> String {
    let reply = service.handle_line(
        r#"{"v":1,"id":1,"op":"submit_pattern","n":2,"row_ptr":[0,2,4],"col_idx":[0,1,0,1],"method":"STS-3","rows_per_super_row":8}"#,
    );
    assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
    let key = reply.line.split("\"pattern\":\"").nth(1).unwrap()[..16].to_string();
    let reply = service.handle_line(&format!(
        r#"{{"v":1,"id":2,"op":"submit_values","pattern":"{key}","values":[4.0,-1.0,-1.0,4.0]}}"#
    ));
    assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
    let reply = service.handle_line(&format!(
        r#"{{"v":1,"id":3,"op":"solve","pattern":"{key}","b":[3.0,3.0]}}"#
    ));
    assert!(reply.line.contains("\"converged\":true"), "{}", reply.line);
    key
}

#[test]
fn metrics_op_returns_stats_and_prometheus_exposition() {
    let mut service = SolverService::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    warm_service(&mut service);
    let reply = service.handle_line(r#"{"v":1,"id":4,"op":"metrics"}"#);
    assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
    let v = serde_json::from_str(&reply.line).unwrap();
    let result = v.get("result").unwrap();
    // The stats object rides along unchanged.
    let stats = result.get("stats").unwrap();
    assert_eq!(stats.get("requests").and_then(Value::as_u64), Some(4));
    assert_eq!(stats.get("solves").and_then(Value::as_u64), Some(1));
    // The exposition carries the cross-layer metric families: service-level
    // request counters and op latency histograms plus the Krylov-level
    // iteration histogram fed by the Pcg driver itself.
    let text = result.get("exposition").and_then(Value::as_str).unwrap();
    assert!(text.contains("# TYPE sts_serve_requests_total counter"));
    assert!(text.contains("sts_serve_requests_total 3"));
    assert!(text.contains("sts_serve_cache_misses_total 1"));
    assert!(text.contains("# TYPE sts_serve_op_wall_ns_solve histogram"));
    assert!(text.contains("sts_serve_op_wall_ns_solve_count 1"));
    assert!(text.contains("pcg_solves_total 1"));
    assert!(text.contains("pcg_iterations_count 1"));
    assert!(text.contains("pcg_wall_ns_count 1"));

    // Error-code counters appear once an error is served.
    service.handle_line(r#"{"v":1,"id":5,"op":"warp"}"#);
    let reply = service.handle_line(r#"{"v":1,"id":6,"op":"metrics"}"#);
    assert!(reply.line.contains("sts_serve_errors_total_unknown_op 1"));
}

#[test]
fn phase_histograms_account_for_the_op_wall_time() {
    use sts_k::serve::protocol::{float_array, obj, render, usize_array};

    // A scripted session on an operator large enough (n = 6 400, lines of
    // ~120 KB) that every phase of a request is far longer than a clock
    // read.
    let a = generators::grid2d_laplacian(80, 80).unwrap();
    let mut service = SolverService::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    let request = |id: u64, op: &str, fields: Vec<(&str, Value)>| {
        let mut all = vec![
            ("v", Value::UInt(1)),
            ("id", Value::UInt(id)),
            ("op", Value::Str(op.to_string())),
        ];
        all.extend(fields);
        render(&obj(all))
    };
    let reply = service.handle_line(&request(
        1,
        "submit_pattern",
        vec![
            ("n", Value::UInt(a.nrows() as u64)),
            ("row_ptr", usize_array(a.row_ptr())),
            ("col_idx", usize_array(a.col_idx())),
            ("method", Value::Str("STS-3".to_string())),
            ("rows_per_super_row", Value::UInt(8)),
        ],
    ));
    assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);
    let key = reply.line.split("\"pattern\":\"").nth(1).unwrap()[..16].to_string();
    let mut lines = vec![request(
        2,
        "submit_values",
        vec![
            ("pattern", Value::Str(key.clone())),
            ("values", float_array(a.values())),
        ],
    )];
    let b = ops::spmv(&a, &vec![1.0; a.nrows()]).unwrap();
    for id in 3..9 {
        lines.push(request(
            id,
            "solve",
            vec![("pattern", Value::Str(key.clone())), ("b", float_array(&b))],
        ));
    }
    lines.push("not json".to_string());
    lines.push(request(10, "stats", vec![]));
    for line in &lines {
        service.handle_line(line);
    }

    let registry = service.metrics_registry();
    let sum = |name: &str| registry.histogram(name).sum();
    let count = |name: &str| registry.histogram(name).count();
    let requests = 1 + lines.len() as u64;
    for phase in ["decode", "lock_wait", "dispatch", "encode"] {
        assert_eq!(
            count(&format!("sts_serve_phase_ns_{phase}")),
            requests,
            "{phase} is observed once per request"
        );
    }
    let ops = [
        "submit_pattern",
        "submit_values",
        "solve",
        "invalid",
        "stats",
    ];
    let wall: u64 = ops
        .iter()
        .map(|op| sum(&format!("sts_serve_op_wall_ns_{op}")))
        .sum();
    assert_eq!(
        ops.iter()
            .map(|op| count(&format!("sts_serve_op_wall_ns_{op}")))
            .sum::<u64>(),
        requests
    );
    // The wall time runs from line in hand to reply rendered: the three
    // working phases must account for it, and every one of them must have
    // seen real work.
    let [decode, dispatch, encode] =
        ["decode", "dispatch", "encode"].map(|phase| sum(&format!("sts_serve_phase_ns_{phase}")));
    let parts = decode + dispatch + encode;
    assert!(
        parts <= wall && wall - parts <= wall / 20,
        "decode {decode} + dispatch {dispatch} + encode {encode} = {parts} of wall {wall}"
    );
    assert!(decode > 0 && dispatch > decode && encode > 0);

    // And the phases are scraped with everything else.
    let reply = service.handle_line(r#"{"v":1,"id":11,"op":"metrics"}"#);
    for phase in ["decode", "lock_wait", "dispatch", "encode"] {
        assert!(
            reply
                .line
                .contains(&format!("# TYPE sts_serve_phase_ns_{phase} histogram")),
            "{phase}"
        );
    }
}

#[test]
fn service_trace_sink_receives_chrome_json_per_solve() {
    let mut service = SolverService::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    let traces: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_traces = Arc::clone(&traces);
    service.set_trace_sink(Box::new(move |solve, json| {
        sink_traces.lock().unwrap().push((solve, json.to_string()));
    }));
    let key = warm_service(&mut service);
    let reply = service.handle_line(&format!(
        r#"{{"v":1,"id":7,"op":"solve","pattern":"{key}","b":[1.0,-1.0]}}"#
    ));
    assert!(reply.line.contains("\"ok\":true"), "{}", reply.line);

    let traces = traces.lock().unwrap();
    assert_eq!(traces.len(), 2, "one timeline per solve request");
    assert_eq!(traces[0].0, 1);
    assert_eq!(traces[1].0, 2);
    for (_, json) in traces.iter() {
        let v = serde_json::from_str(json).expect("trace sink hands out valid JSON");
        assert!(!v.as_array().unwrap().is_empty());
    }
}

#[test]
fn solve_metrics_line_reuses_pcg_integer_wall_clock() {
    let mut service = SolverService::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    });
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_lines = Arc::clone(&lines);
    service.set_metrics_sink(Box::new(move |line: &str| {
        sink_lines.lock().unwrap().push(line.to_string());
    }));
    warm_service(&mut service);
    let lines = lines.lock().unwrap();
    let solve_line = lines
        .iter()
        .find(|l| l.contains("\"op\":\"solve\""))
        .expect("a solve metrics line was emitted");
    let v = serde_json::from_str(solve_line).unwrap();
    let pcg_wall = v.get("pcg_wall_ns").and_then(Value::as_u64).unwrap();
    let solve_wall = v.get("solve_wall_ns").and_then(Value::as_u64).unwrap();
    // The driver's own clock is a strict sub-interval of the service's.
    assert!(pcg_wall > 0 && pcg_wall <= solve_wall);
}
