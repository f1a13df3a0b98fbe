//! End-to-end TCP test: several clients multiplex onto one daemon sharing
//! one analyzed pattern, and every served solution is bitwise identical to
//! the direct in-process API — concurrency and the wire change nothing.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread;

use sts_k::core::Method;
use sts_k::krylov::{build_ladder_preconditioner, KrylovWorkspace, Pcg, RecoveryPolicy, SpdSystem};
use sts_k::matrix::generators;
use sts_k::serve::{serve, Client, ServiceConfig, SolverService};

/// Deterministic per-client right-hand side.
fn rhs(n: usize, seed: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i + 3 * seed) % 11) as f64).collect()
}

#[test]
fn concurrent_clients_get_bitwise_identical_solutions() {
    let a = generators::grid2d_laplacian(16, 16).unwrap();
    let n = a.nrows();
    let config = ServiceConfig::default();

    // Direct in-process reference, same pool shape as the daemon's.
    let pcg = Pcg::with_options(config.threads, config.schedule, config.options);
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    let (mut pre, _) =
        build_ladder_preconditioner(&sys, pcg.solver(), &RecoveryPolicy::default()).unwrap();
    let clients = 5usize;
    let mut reference = Vec::with_capacity(clients);
    let mut ws = KrylovWorkspace::new(n);
    for seed in 0..clients {
        let out = pcg.solve(&sys, &mut pre, &rhs(n, seed), &mut ws).unwrap();
        assert!(out.converged);
        reference.push(out.x);
    }

    // Daemon on an ephemeral port.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(Mutex::new(SolverService::new(config)));
    let daemon = thread::spawn(move || serve(listener, service));

    // One client pays the analysis and factorization…
    let mut setup = Client::connect(&addr).unwrap();
    let pattern = setup.submit_pattern(&a, "STS-3", 8).unwrap();
    let preconditioner = setup.submit_values(&pattern, a.values()).unwrap();
    assert_eq!(preconditioner, "ic0");

    // …then every client solves concurrently against the shared factor.
    let mut handles = Vec::new();
    for seed in 0..clients {
        let addr = addr.clone();
        let pattern = pattern.clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let mut solutions = Vec::new();
            for round in 0..3 {
                let result = client.solve(&pattern, &rhs(n, seed)).unwrap();
                assert!(
                    result.converged,
                    "client {seed} round {round} must converge"
                );
                solutions.push(result.x);
            }
            (seed, solutions)
        }));
    }
    for handle in handles {
        let (seed, solutions) = handle.join().unwrap();
        for x in solutions {
            assert_eq!(
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference[seed]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "client {seed} must match the direct API bitwise"
            );
        }
    }

    // The shared pattern was analyzed exactly once; every solve was warm.
    let stats = setup.stats().unwrap();
    assert_eq!(
        stats.get("patterns_cached").and_then(serde::Value::as_u64),
        Some(1)
    );
    assert_eq!(
        stats.get("solves").and_then(serde::Value::as_u64),
        Some(3 * clients as u64)
    );

    setup.shutdown().unwrap();
    let connections = daemon.join().unwrap().unwrap();
    assert!(connections > clients as u64);
}

#[test]
fn large_requests_from_overlapping_clients_change_nothing() {
    // Lines of ~270 KB: while one client's solve holds the service, the
    // others are reading a request off their socket, writing a reply to it
    // or queued on the mutex, and a fifth client keeps replacing the factor
    // with an equal one.
    let a = generators::grid2d_laplacian(120, 120).unwrap();
    let n = a.nrows();
    let config = ServiceConfig::default();

    let pcg = Pcg::with_options(config.threads, config.schedule, config.options);
    let sys = SpdSystem::build(&a, Method::Sts3, 8).unwrap();
    let (mut pre, _) =
        build_ladder_preconditioner(&sys, pcg.solver(), &RecoveryPolicy::default()).unwrap();
    let (solvers, rounds, resubmits) = (4usize, 4usize, 6usize);
    let mut ws = KrylovWorkspace::new(n);
    let reference: Vec<Vec<u64>> = (0..solvers)
        .map(|seed| {
            let out = pcg.solve(&sys, &mut pre, &rhs(n, seed), &mut ws).unwrap();
            assert!(out.converged);
            out.x.iter().map(|v| v.to_bits()).collect()
        })
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(Mutex::new(SolverService::new(config)));
    let daemon = thread::spawn(move || serve(listener, service));

    let mut setup = Client::connect(&addr).unwrap();
    let pattern = setup.submit_pattern(&a, "STS-3", 8).unwrap();
    assert_eq!(setup.submit_values(&pattern, a.values()).unwrap(), "ic0");

    thread::scope(|scope| {
        for (seed, expected) in reference.iter().enumerate() {
            let (addr, pattern) = (&addr, &pattern);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let b = rhs(n, seed);
                for round in 0..rounds {
                    let result = client.solve(pattern, &b).unwrap();
                    assert!(result.converged, "client {seed} round {round}");
                    let bits: Vec<u64> = result.x.iter().map(|v| v.to_bits()).collect();
                    assert!(
                        bits == *expected,
                        "client {seed} round {round} must match the direct API bitwise"
                    );
                }
            });
        }
        let (addr, pattern, a) = (&addr, &pattern, &a);
        scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for _ in 0..resubmits {
                assert_eq!(client.submit_values(pattern, a.values()).unwrap(), "ic0");
            }
        });
    });

    // Every line sent was counted once (this one included), and solves that
    // never overlap inside the service never need a second workspace each.
    let stats = setup.stats().unwrap();
    let stat = |key: &str| stats.get(key).and_then(serde::Value::as_u64).unwrap();
    assert_eq!(
        stat("requests"),
        (2 + solvers * rounds + resubmits + 1) as u64
    );
    assert_eq!(stat("solves"), (solvers * rounds) as u64);
    assert!(
        (1..=solvers as u64).contains(&stat("workspaces_created")),
        "created {}",
        stat("workspaces_created")
    );

    setup.shutdown().unwrap();
    daemon.join().unwrap().unwrap();
}
