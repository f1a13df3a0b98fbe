//! In-process tests of the solver service: cache lifecycle (cold analysis,
//! idempotent resubmission, LRU eviction), workspace reuse, per-request
//! option overrides, and — the load-bearing property — that a served solve
//! is bitwise identical to the direct in-process API.

use serde::Value;
use sts_k::core::Method;
use sts_k::krylov::{build_ladder_preconditioner, KrylovWorkspace, Pcg, RecoveryPolicy, SpdSystem};
use sts_k::matrix::{generators, CsrMatrix};
use sts_k::numa::Schedule;
use sts_k::serve::protocol::{float_array, obj, render, usize_array};
use sts_k::serve::{ServiceConfig, SolverService};

/// Renders a request line for `op` with the standard envelope fields plus
/// `extra`, keeping float formatting identical to the service's own.
fn request(id: u64, op: &str, extra: Vec<(&str, Value)>) -> String {
    let mut fields = vec![
        ("v", Value::UInt(1)),
        ("id", Value::UInt(id)),
        ("op", Value::Str(op.to_string())),
    ];
    fields.extend(extra);
    render(&obj(fields))
}

fn parse(line: &str) -> Value {
    serde_json::from_str(line).expect("response lines are valid JSON")
}

fn result_of(line: &str) -> Value {
    let v = parse(line);
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "expected a success envelope, got: {line}"
    );
    v.get("result")
        .cloned()
        .expect("ok envelopes carry a result")
}

fn error_code_of(line: &str) -> String {
    let v = parse(line);
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .expect("error envelopes carry a code")
        .to_string()
}

fn floats_of(v: &Value, field: &str) -> Vec<f64> {
    v.get(field)
        .and_then(Value::as_array)
        .expect("field is an array")
        .iter()
        .map(|x| x.as_f64().expect("entries are floats"))
        .collect()
}

/// Drives the full pattern → values → key handshake and returns the key.
fn submit(service: &mut SolverService, a: &CsrMatrix, method: &str, rsr: usize) -> String {
    let line = request(
        1,
        "submit_pattern",
        vec![
            ("n", Value::UInt(a.nrows() as u64)),
            ("row_ptr", usize_array(a.row_ptr())),
            ("col_idx", usize_array(a.col_idx())),
            ("method", Value::Str(method.to_string())),
            ("rows_per_super_row", Value::UInt(rsr as u64)),
        ],
    );
    let result = result_of(&service.handle_line(&line).line);
    let key = result
        .get("pattern")
        .and_then(Value::as_str)
        .expect("submit_pattern returns the key")
        .to_string();
    let line = request(
        2,
        "submit_values",
        vec![
            ("pattern", Value::Str(key.clone())),
            ("values", float_array(a.values())),
        ],
    );
    let result = result_of(&service.handle_line(&line).line);
    assert_eq!(
        result.get("degraded").and_then(Value::as_bool),
        Some(false),
        "the Laplacian factors cleanly"
    );
    key
}

fn solve_request(id: u64, key: &str, b: &[f64], extra: Vec<(&str, Value)>) -> String {
    let mut fields = vec![
        ("pattern", Value::Str(key.to_string())),
        ("b", float_array(b)),
    ];
    fields.extend(extra);
    request(id, "solve", fields)
}

#[test]
fn served_solves_match_the_direct_api_bitwise() {
    // The acceptance property: a solve through the protocol — synthetic
    // pattern analysis, warm value rebind, JSON float round-trip — equals
    // the direct in-process build bit for bit, in all three modes.
    let a = generators::grid2d_laplacian(24, 24).unwrap();
    let config = ServiceConfig::default();
    let mut service = SolverService::new(config.clone());
    let key = submit(&mut service, &a, "STS-3", 8);

    let pcg = Pcg::with_options(config.threads, config.schedule, config.options);
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    let (mut pre, _) =
        build_ladder_preconditioner(&sys, pcg.solver(), &RecoveryPolicy::default()).unwrap();

    let n = sys.n();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64).collect();
    let mut ws = KrylovWorkspace::new(n);
    let direct = pcg.solve(&sys, &mut pre, &b, &mut ws).unwrap();
    let served = result_of(
        &service
            .handle_line(&solve_request(3, &key, &b, vec![]))
            .line,
    );
    assert_eq!(served.get("converged").and_then(Value::as_bool), Some(true));
    assert_eq!(
        served.get("iterations").and_then(Value::as_u64),
        Some(direct.iterations as u64)
    );
    let x_served = floats_of(&served, "x");
    assert_eq!(
        x_served.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        direct.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "the served solution must round-trip the wire bitwise"
    );

    // Batch and block modes through the same cached factor.
    let nrhs = 3;
    let b_multi: Vec<f64> = (0..n * nrhs).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut ws_multi = KrylovWorkspace::with_nrhs(n, nrhs);
    let direct_batch = pcg
        .solve_batch(&sys, &mut pre, &b_multi, nrhs, &mut ws_multi)
        .unwrap();
    let served_batch = result_of(
        &service
            .handle_line(&solve_request(
                4,
                &key,
                &b_multi,
                vec![
                    ("mode", Value::Str("batch".to_string())),
                    ("nrhs", Value::UInt(nrhs as u64)),
                ],
            ))
            .line,
    );
    assert_eq!(
        floats_of(&served_batch, "x")
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        direct_batch
            .x
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );

    let direct_block = pcg
        .solve_block(&sys, &mut pre, &b_multi, nrhs, &mut ws_multi)
        .unwrap();
    let served_block = result_of(
        &service
            .handle_line(&solve_request(
                5,
                &key,
                &b_multi,
                vec![
                    ("mode", Value::Str("block".to_string())),
                    ("nrhs", Value::UInt(nrhs as u64)),
                ],
            ))
            .line,
    );
    assert_eq!(
        floats_of(&served_block, "x")
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        direct_block
            .x
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
}

#[test]
fn lru_eviction_drops_the_coldest_pattern() {
    let a = generators::grid2d_laplacian(8, 8).unwrap();
    let mut service = SolverService::new(ServiceConfig {
        cache_capacity: 2,
        ..ServiceConfig::default()
    });
    // Three distinct keys from the same pattern: the coarsening knob is
    // part of the hash.
    let k1 = submit(&mut service, &a, "STS-3", 4);
    let k2 = submit(&mut service, &a, "STS-3", 8);
    // Touch k1 so k2 is the least recently used when capacity overflows.
    let b = vec![1.0; a.nrows()];
    result_of(
        &service
            .handle_line(&solve_request(10, &k1, &b, vec![]))
            .line,
    );
    let k3 = submit(&mut service, &a, "STS-3", 16);

    let stats = result_of(&service.handle_line(&request(11, "stats", vec![])).line);
    assert_eq!(
        stats.get("patterns_cached").and_then(Value::as_u64),
        Some(2)
    );
    assert_eq!(
        stats.get("cache_evictions").and_then(Value::as_u64),
        Some(1)
    );

    // The evicted pattern answers `unknown_pattern`; the survivors solve.
    let code = error_code_of(
        &service
            .handle_line(&solve_request(12, &k2, &b, vec![]))
            .line,
    );
    assert_eq!(code, "unknown_pattern");
    result_of(
        &service
            .handle_line(&solve_request(13, &k1, &b, vec![]))
            .line,
    );
    result_of(
        &service
            .handle_line(&solve_request(14, &k3, &b, vec![]))
            .line,
    );
}

#[test]
fn workspaces_are_pooled_across_solves() {
    let a = generators::grid2d_laplacian(8, 8).unwrap();
    let mut service = SolverService::new(ServiceConfig::default());
    let key = submit(&mut service, &a, "STS-3", 8);
    let b = vec![1.0; a.nrows()];
    for id in 0..4 {
        result_of(
            &service
                .handle_line(&solve_request(20 + id, &key, &b, vec![]))
                .line,
        );
    }
    let stats = result_of(&service.handle_line(&request(30, "stats", vec![])).line);
    assert_eq!(
        stats.get("workspaces_created").and_then(Value::as_u64),
        Some(1),
        "same-shape solves must reuse the pooled workspace"
    );
    assert_eq!(
        stats.get("workspaces_reused").and_then(Value::as_u64),
        Some(3)
    );
    assert_eq!(stats.get("solves").and_then(Value::as_u64), Some(4));
}

#[test]
fn per_request_overrides_do_not_leak_into_later_solves() {
    let a = generators::grid2d_laplacian(16, 16).unwrap();
    let mut service = SolverService::new(ServiceConfig::default());
    let key = submit(&mut service, &a, "STS-3", 8);
    let b = vec![1.0; a.nrows()];

    let default_run = result_of(
        &service
            .handle_line(&solve_request(40, &key, &b, vec![]))
            .line,
    );
    let default_iters = default_run
        .get("iterations")
        .and_then(Value::as_u64)
        .unwrap();

    // A starved iteration bound must fail to converge…
    let starved = result_of(
        &service
            .handle_line(&solve_request(
                41,
                &key,
                &b,
                vec![("max_iterations", Value::UInt(1))],
            ))
            .line,
    );
    assert_eq!(
        starved.get("converged").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(starved.get("iterations").and_then(Value::as_u64), Some(1));

    // An absurd bound is a bound, never an allocation size: the solve
    // converges as usual and the service keeps serving — also when it is
    // configured to record the residual history.
    let mut recording = ServiceConfig::default();
    recording.options.record_history = true;
    let mut recording = SolverService::new(recording);
    assert_eq!(submit(&mut recording, &a, "STS-3", 8), key);
    for service in [&mut service, &mut recording] {
        let huge = result_of(
            &service
                .handle_line(&solve_request(
                    44,
                    &key,
                    &b,
                    vec![("max_iterations", Value::UInt(1_000_000_000_000_000))],
                ))
                .line,
        );
        assert_eq!(huge.get("converged").and_then(Value::as_bool), Some(true));
        assert_eq!(
            huge.get("iterations").and_then(Value::as_u64),
            Some(default_iters)
        );
    }

    // …and the next plain solve runs under the restored defaults.
    let after = result_of(
        &service
            .handle_line(&solve_request(42, &key, &b, vec![]))
            .line,
    );
    assert_eq!(after.get("converged").and_then(Value::as_bool), Some(true));
    assert_eq!(
        after.get("iterations").and_then(Value::as_u64),
        Some(default_iters)
    );

    // A nonsense tolerance is rejected before it can touch solver state.
    let code = error_code_of(
        &service
            .handle_line(&solve_request(
                43,
                &key,
                &b,
                vec![("tolerance", Value::Float(-1.0))],
            ))
            .line,
    );
    assert_eq!(code, "bad_request");
}

#[test]
fn metrics_sink_receives_one_line_per_request() {
    use std::sync::{Arc, Mutex};
    let a = generators::grid2d_laplacian(8, 8).unwrap();
    let mut service = SolverService::new(ServiceConfig::default());
    let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_lines = Arc::clone(&lines);
    service.set_metrics_sink(Box::new(move |line| {
        sink_lines.lock().unwrap().push(line.to_string());
    }));
    let key = submit(&mut service, &a, "STS-3", 8);
    let b = vec![1.0; a.nrows()];
    result_of(
        &service
            .handle_line(&solve_request(50, &key, &b, vec![]))
            .line,
    );
    service.handle_line("garbage");

    let lines = lines.lock().unwrap();
    assert_eq!(
        lines.len(),
        4,
        "pattern, values, solve, and the parse error"
    );
    for line in lines.iter() {
        let v = parse(line);
        assert_eq!(v.get("event").and_then(Value::as_str), Some("request"));
        assert!(v.get("wall_ns").and_then(Value::as_u64).is_some());
    }
    let solve_line = parse(&lines[2]);
    assert_eq!(solve_line.get("op").and_then(Value::as_str), Some("solve"));
    assert_eq!(
        solve_line.get("cache").and_then(Value::as_str),
        Some("warm")
    );
    let err_line = parse(&lines[3]);
    assert_eq!(err_line.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        err_line.get("code").and_then(Value::as_str),
        Some("parse_error")
    );
}

#[test]
fn schedule_field_is_used_by_the_shared_pool() {
    // Construction smoke for a non-default schedule: the config plumbs
    // through to the one shared pool.
    let a = generators::grid2d_laplacian(8, 8).unwrap();
    let mut service = SolverService::new(ServiceConfig {
        threads: 2,
        schedule: Schedule::Dynamic { chunk: 2 },
        ..ServiceConfig::default()
    });
    let key = submit(&mut service, &a, "STS-3", 8);
    let b = vec![1.0; a.nrows()];
    let out = result_of(
        &service
            .handle_line(&solve_request(60, &key, &b, vec![]))
            .line,
    );
    assert_eq!(out.get("converged").and_then(Value::as_bool), Some(true));
}
