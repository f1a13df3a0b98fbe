//! `serve_mixed`: `sts_serve::serve` on a loopback port inside this process,
//! driven in a closed loop by `Client` connections that each send their next
//! request when the previous reply is parsed.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;
use sts_matrix::{generators, CsrMatrix};
use sts_serve::protocol::{self, float_array, obj, render, usize_array, PROTOCOL_VERSION};
use sts_serve::{Client, ServiceConfig, SolverService};

use super::{check_columns, Samples, ServiceCounts, Workload, REPLAY_EVERY, ROWS_PER_SUPER_ROW};
use crate::inputs::{self, ServeOp, RESIDENT_PATTERNS, SERVE_BLOCK};
use crate::spans::SpanBuf;

const METHOD: &str = "STS-3";
const CACHE_CAPACITY: usize = 4;
/// Schedule length: far more than a window can consume.
const BLOCKS: usize = 200;
const CLIENT_SPAN_CAPACITY: usize = 1 << 16;

/// The daemon on a loopback port, stopped and joined on drop.
pub struct Daemon {
    pub addr: SocketAddr,
    server: Option<JoinHandle<std::io::Result<u64>>>,
}

pub fn service_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        cache_capacity: CACHE_CAPACITY,
        ..ServiceConfig::default()
    }
}

impl Daemon {
    pub fn start(threads: usize) -> Daemon {
        let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let service = Arc::new(Mutex::new(SolverService::new(service_config(threads))));
        let server = std::thread::spawn(move || sts_serve::serve(listener, service));
        Daemon {
            addr,
            server: Some(server),
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.addr).expect("the daemon accepts connections")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Every other connection must already be closed: `serve` joins its
        // connection threads before it returns.
        if let Ok(mut client) = Client::connect(self.addr) {
            let _ = client.shutdown();
        }
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// The `submit_pattern` fields for `a`.
pub fn pattern_fields(a: &CsrMatrix) -> Vec<(&'static str, Value)> {
    vec![
        ("n", Value::UInt(a.nrows() as u64)),
        ("row_ptr", usize_array(a.row_ptr())),
        ("col_idx", usize_array(a.col_idx())),
        ("method", Value::Str(METHOD.to_string())),
        ("rows_per_super_row", Value::UInt(ROWS_PER_SUPER_ROW as u64)),
    ]
}

pub fn values_fields(key: &str, values: &[f64]) -> Vec<(&'static str, Value)> {
    vec![
        ("pattern", Value::Str(key.to_string())),
        ("values", float_array(values)),
    ]
}

pub fn solve_fields(key: &str, b: &[f64], nrhs: usize) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("pattern", Value::Str(key.to_string())),
        ("b", float_array(b)),
    ];
    if nrhs > 1 {
        fields.push(("mode", Value::Str("batch".to_string())));
        fields.push(("nrhs", Value::UInt(nrhs as u64)));
    }
    fields
}

/// The request line `Client::request` would put on the wire for these
/// fields, for replaying against `parse_request` and a twin service.
pub fn request_line(op: &str, fields: Vec<(&'static str, Value)>) -> String {
    let mut entries = vec![
        ("v", Value::UInt(PROTOCOL_VERSION)),
        ("id", Value::UInt(1)),
        ("op", Value::Str(op.to_string())),
    ];
    entries.extend(fields);
    render(&obj(entries))
}

pub struct Solution {
    pub x: Vec<f64>,
    pub converged: bool,
    pub iterations: Vec<u64>,
    pub solve_wall_ns: u64,
}

/// Lifts a `solve` result object; single and batch replies differ in whether
/// `converged` and `iterations` are scalars or arrays.
pub fn parse_solution(result: &Value) -> Result<Solution, String> {
    let x = result
        .get("x")
        .and_then(Value::as_array)
        .ok_or("solve reply without x")?
        .iter()
        .map(|v| v.as_f64().ok_or("x holds a non-number"))
        .collect::<Result<Vec<f64>, _>>()?;
    let converged = match result.get("converged") {
        Some(Value::Bool(c)) => *c,
        Some(Value::Array(all)) => all.iter().all(|c| c.as_bool() == Some(true)),
        _ => return Err("solve reply without converged".to_string()),
    };
    let iterations = match result.get("iterations") {
        Some(Value::Array(all)) => all.iter().filter_map(Value::as_u64).collect(),
        Some(one) => one.as_u64().into_iter().collect(),
        None => return Err("solve reply without iterations".to_string()),
    };
    let solve_wall_ns = result
        .get("solve_wall_ns")
        .and_then(Value::as_u64)
        .ok_or("solve reply without solve_wall_ns")?;
    Ok(Solution {
        x,
        converged,
        iterations,
        solve_wall_ns,
    })
}

/// A resident pattern and the version of its values the service holds.
///
/// Clients must know which operator a solve ran against to check its
/// answer, and iteration counts must repeat per seed although two clients
/// race: so every op on a pattern is ordered against the pattern's value
/// updates by its position in the schedule, not by arrival. A solve of epoch
/// `e` (the number of updates scheduled before it) waits until exactly `e`
/// updates are applied; update `e` waits until every solve of epoch `e` is
/// done. Ops are claimed in schedule order, so the op waited for is always
/// already running.
struct Resident {
    base: CsrMatrix,
    key: String,
    version: Mutex<Version>,
    turn: Condvar,
}

struct Version {
    epoch: usize,
    reads_done: usize,
    a: Arc<CsrMatrix>,
}

impl Resident {
    /// The version once `ready` holds for it.
    fn wait_for(&self, ready: impl Fn(&Version) -> bool) -> MutexGuard<'_, Version> {
        let unpoisoned = "no client panics holding a version";
        let mut v = self.version.lock().expect(unpoisoned);
        while !ready(&v) {
            v = self.turn.wait(v).expect(unpoisoned);
        }
        v
    }

    fn begin_read(&self, epoch: usize) -> Arc<CsrMatrix> {
        Arc::clone(&self.wait_for(|v| v.epoch == epoch).a)
    }

    fn end_read(&self) {
        self.wait_for(|_| true).reads_done += 1;
        self.turn.notify_all();
    }

    fn begin_write(&self, epoch: usize, reads: usize) {
        drop(self.wait_for(|v| v.epoch == epoch && v.reads_done == reads));
    }

    fn end_write(&self, a: CsrMatrix) {
        let mut v = self.wait_for(|_| true);
        *v = Version {
            epoch: v.epoch + 1,
            reads_done: 0,
            a: Arc::new(a),
        };
        self.turn.notify_all();
    }
}

/// Where each scheduled op stands relative to its pattern's value updates.
struct OpOrder {
    /// Updates on the op's pattern scheduled before it.
    epoch: Vec<usize>,
    /// `reads[pattern][epoch]`: solves on the pattern within that epoch.
    reads: Vec<Vec<usize>>,
}

fn order(schedule: &[ServeOp]) -> OpOrder {
    let mut epoch = Vec::with_capacity(schedule.len());
    let mut reads = vec![vec![0usize]; RESIDENT_PATTERNS];
    for op in schedule {
        match *op {
            ServeOp::Solve { pattern } | ServeOp::Batch4 { pattern } => {
                epoch.push(reads[pattern].len() - 1);
                *reads[pattern].last_mut().expect("starts non-empty") += 1;
            }
            ServeOp::SubmitValues { pattern } => {
                epoch.push(reads[pattern].len() - 1);
                reads[pattern].push(0);
            }
            ServeOp::Cold => epoch.push(0),
        }
    }
    OpOrder { epoch, reads }
}

struct OpRecord {
    index: usize,
    op: ServeOp,
    latency: Duration,
    /// When the op completed, since the window began.
    done_at: Duration,
    outcome: Result<Vec<u64>, String>,
    /// (seconds of the replayed pieces, seconds of the op) when replayed.
    replay: Option<(f64, f64)>,
}

pub struct Serve {
    seed: u64,
    residents: Vec<Resident>,
    clients: Vec<Client>,
    /// In-process service with the same resident patterns and no socket.
    twin: Option<Mutex<SolverService>>,
    cold_next: AtomicUsize,
    client_spans: Vec<SpanBuf>,
    // Declared last: dropped after the clients, whose open connections would
    // keep the daemon from stopping.
    daemon: Daemon,
}

impl Serve {
    /// Daemon start, then each resident pattern taken from unseen to its
    /// first checked solution over the socket.
    pub fn setup(seed: u64, threads: usize, traced: bool) -> Serve {
        let grid = "grid dimensions are valid";
        let matrices = [
            generators::grid2d_laplacian(200, 200).expect(grid),
            generators::grid2d_9point(150, 150).expect(grid),
            generators::grid3d_laplacian(30, 30, 30).expect(grid),
        ];
        let daemon = Daemon::start(threads);
        let clients: Vec<Client> = (0..threads.min(2)).map(|_| daemon.connect()).collect();
        let mut serve = Serve {
            seed,
            residents: Vec::new(),
            clients,
            twin: traced.then(|| Mutex::new(SolverService::new(service_config(threads)))),
            cold_next: AtomicUsize::new(0),
            client_spans: Vec::new(),
            daemon,
        };
        let mut rng = inputs::stream(seed, "serve-setup");
        for a in matrices {
            let b_cols = inputs::manufactured_rhs(&a, &mut rng, 1);
            let (key, solution) = cold_sequence(&mut serve.clients[0], &a, &b_cols[0])
                .expect("resident patterns submit and solve");
            check_columns(&a, &solution.x, solution.converged, &b_cols)
                .expect("the first served solution is right");
            // One discarded value update takes the service's allocator to
            // the state every later update finds.
            serve.clients[0]
                .submit_values(&key, a.values())
                .expect("resident values resubmit");
            if let Some(twin) = &serve.twin {
                let mut twin = twin.lock().expect("twin is only used here");
                for line in [
                    request_line("submit_pattern", pattern_fields(&a)),
                    request_line("submit_values", values_fields(&key, a.values())),
                ] {
                    assert!(twin.handle_line(&line).line.contains("\"ok\":true"));
                }
            }
            serve.residents.push(Resident {
                version: Mutex::new(Version {
                    epoch: 0,
                    reads_done: 0,
                    a: Arc::new(a.clone()),
                }),
                base: a,
                key,
                turn: Condvar::new(),
            });
        }
        serve
    }

    /// Puts every resident pattern back on its generated values, so that
    /// each window starts from the same service state.
    fn reset_values(&mut self) {
        for r in &self.residents {
            let mut v = r.wait_for(|_| true);
            if v.epoch != 0 {
                self.clients[0]
                    .submit_values(&r.key, r.base.values())
                    .expect("resident values resubmit");
            }
            *v = Version {
                epoch: 0,
                reads_done: 0,
                a: Arc::new(r.base.clone()),
            };
        }
    }

    fn service_counters(&mut self) -> [f64; 5] {
        let stats = self.clients[0].stats().expect("stats op succeeds");
        [
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "workspaces_reused",
            "workspaces_created",
        ]
        .map(|k| {
            stats
                .get(k)
                .and_then(Value::as_f64)
                .expect("stats carries its counters")
        })
    }
}

/// `submit_pattern` → `submit_values` → first `solve`.
fn cold_sequence(
    client: &mut Client,
    a: &CsrMatrix,
    b: &[f64],
) -> Result<(String, Solution), String> {
    let key = client
        .submit_pattern(a, METHOD, ROWS_PER_SUPER_ROW)
        .map_err(|e| format!("submit_pattern failed: {e}"))?;
    client
        .submit_values(&key, a.values())
        .map_err(|e| format!("submit_values failed: {e}"))?;
    let result = client
        .request("solve", solve_fields(&key, b, 1))
        .map_err(|e| format!("first solve failed: {e}"))?;
    Ok((key, parse_solution(&result)?))
}

/// Requests a client sends on one connection before it opens a fresh one.
/// A connection can fall into a state in which every request on it carries
/// the 40 ms delayed-ACK stall (the client writes a line and its newline
/// separately); on two long-lived connections a run measures that draw —
/// one run in ten had half its solves stalled and a median 45 % up — and on
/// many short-lived ones it measures the share of connections that stall.
const OPS_PER_CONNECTION: usize = SERVE_BLOCK / 2;

/// Everything one client thread shares with the other.
struct Shared<'a> {
    daemon: &'a Daemon,
    seed: u64,
    schedule: &'a [ServeOp],
    ordering: &'a OpOrder,
    residents: &'a [Resident],
    twin: Option<&'a Mutex<SolverService>>,
    cold_next: &'a AtomicUsize,
    next_op: &'a AtomicUsize,
    window_start: Instant,
    deadline: Instant,
}

fn client_loop(shared: &Shared, client: &mut Client, spans: &mut SpanBuf) -> Vec<OpRecord> {
    let mut records = Vec::new();
    // The first block always completes. The check comes before the claim:
    // a claimed op must run, because the other client may be waiting on it.
    while shared.next_op.load(Ordering::SeqCst) < SERVE_BLOCK || Instant::now() < shared.deadline {
        let index = shared.next_op.fetch_add(1, Ordering::SeqCst);
        let Some(&op) = shared.schedule.get(index) else {
            break;
        };
        if !records.is_empty() && records.len() % OPS_PER_CONNECTION == 0 {
            *client = shared.daemon.connect();
        }
        let op_id = index as u64 + 1;
        let mut rng = inputs::stream(shared.seed, &format!("serve-op-{index}"));
        let mut replay = None;
        let (latency, outcome) = match op {
            ServeOp::Solve { pattern } | ServeOp::Batch4 { pattern } => {
                let nrhs = if matches!(op, ServeOp::Solve { .. }) {
                    1
                } else {
                    4
                };
                let resident = &shared.residents[pattern];
                let a = resident.begin_read(shared.ordering.epoch[index]);
                let b_cols = inputs::manufactured_rhs(&a, &mut rng, nrhs);
                let fields = solve_fields(&resident.key, &inputs::interleave(&b_cols), nrhs);
                let replayed = (spans.is_on() && nrhs == 1 && op_id.is_multiple_of(REPLAY_EVERY))
                    .then(|| fields.clone());
                let open = spans.begin("serve.client_roundtrip", op_id);
                let start = Instant::now();
                let solution = client
                    .request("solve", fields)
                    .map_err(|e| format!("solve failed: {e}"))
                    .and_then(|result| parse_solution(&result));
                let latency = start.elapsed();
                spans.end(open);
                resident.end_read();
                if let (Some(fields), Some(twin)) = (replayed, shared.twin) {
                    let pieces = replay_pieces(fields, twin, spans, op_id);
                    replay = Some((pieces, latency.as_secs_f64()));
                }
                let outcome = solution.and_then(|s| {
                    check_columns(&a, &s.x, s.converged, &b_cols)?;
                    Ok(s.iterations)
                });
                (latency, outcome)
            }
            ServeOp::SubmitValues { pattern } => {
                let resident = &shared.residents[pattern];
                let epoch = shared.ordering.epoch[index];
                resident.begin_write(epoch, shared.ordering.reads[pattern][epoch]);
                let a = inputs::shifted_matrix(&resident.base, inputs::diagonal_shift(&mut rng));
                let open = spans.begin("serve.client_submit_values", op_id);
                let start = Instant::now();
                let label = client.submit_values(&resident.key, a.values());
                let latency = start.elapsed();
                spans.end(open);
                // On failure the service keeps the old factor; publishing
                // the new values anyway makes the following solves fail
                // their residual check, as they should.
                resident.end_write(a);
                let outcome = match label {
                    Ok(label) if label == "ic0" => Ok(Vec::new()),
                    Ok(label) => Err(format!("update degraded to preconditioner '{label}'")),
                    Err(e) => Err(format!("submit_values failed: {e}")),
                };
                (latency, outcome)
            }
            ServeOp::Cold => {
                let j = shared.cold_next.fetch_add(1, Ordering::SeqCst);
                let a = generators::grid2d_laplacian(96 + j, 96 + j)
                    .expect("grid dimensions are valid");
                let b_cols = inputs::manufactured_rhs(&a, &mut rng, 1);
                let open = spans.begin("serve.client_cold_sequence", op_id);
                let start = Instant::now();
                let solved = cold_sequence(client, &a, &b_cols[0]);
                let latency = start.elapsed();
                spans.end(open);
                let outcome = solved.and_then(|(_, s)| {
                    check_columns(&a, &s.x, s.converged, &b_cols)?;
                    Ok(Vec::new())
                });
                (latency, outcome)
            }
        };
        records.push(OpRecord {
            index,
            op,
            latency,
            done_at: shared.window_start.elapsed(),
            outcome,
            replay,
        });
    }
    records
}

/// The pieces of one warm solve on their own — request rendering, request
/// parsing, the service's handling of the line without a socket, reply
/// parsing — as spans of the op. Returns the seconds of the pieces that are
/// serial parts of the round trip (parsing happens inside the handling).
fn replay_pieces(
    fields: Vec<(&'static str, Value)>,
    twin: &Mutex<SolverService>,
    spans: &mut SpanBuf,
    op_id: u64,
) -> f64 {
    let timed = |spans: &mut SpanBuf, name: &'static str, f: &mut dyn FnMut()| {
        let open = spans.begin(name, op_id);
        let start = Instant::now();
        f();
        let elapsed = start.elapsed().as_secs_f64();
        spans.end(open);
        elapsed
    };
    let mut line = String::new();
    let mut fields = Some(fields);
    let encode = timed(spans, "serve.encode", &mut || {
        line = request_line("solve", fields.take().expect("rendered once"));
    });
    timed(spans, "serve.decode", &mut || {
        protocol::parse_request(&line).expect("a request the client sent parses");
    });
    let mut reply = String::new();
    let handle = timed(spans, "serve.handle_twin", &mut || {
        reply = twin
            .lock()
            .expect("twin handlers do not panic")
            .handle_line(&line)
            .line;
    });
    let reply_parse = timed(spans, "serve.reply_parse", &mut || {
        serde_json::from_str(&reply).expect("a reply the service rendered parses");
    });
    encode + handle + reply_parse
}

impl Workload for Serve {
    fn run(&mut self, budget: Duration, spans: &mut SpanBuf) -> Samples {
        self.reset_values();
        let before = self.service_counters();
        let schedule = inputs::serve_schedule(self.seed, BLOCKS);
        let ordering = order(&schedule);
        let next_op = AtomicUsize::new(0);
        let mut client_spans: Vec<SpanBuf> = self
            .clients
            .iter()
            .map(|_| {
                if spans.is_on() {
                    SpanBuf::sharing_epoch(spans, CLIENT_SPAN_CAPACITY)
                } else {
                    SpanBuf::off()
                }
            })
            .collect();
        let window_start = Instant::now();
        let shared = Shared {
            daemon: &self.daemon,
            seed: self.seed,
            schedule: &schedule,
            ordering: &ordering,
            residents: &self.residents,
            twin: self.twin.as_ref(),
            cold_next: &self.cold_next,
            next_op: &next_op,
            window_start,
            deadline: window_start + budget,
        };
        let mut records: Vec<OpRecord> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&mut client_spans)
                .map(|(client, spans)| {
                    let shared = &shared;
                    scope.spawn(move || client_loop(shared, client, spans))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        records.sort_by_key(|r| r.index);

        let mut samples = Samples::default();
        let (mut replayed_s, mut replayed_of_s) = (0.0, 0.0);
        for r in &records {
            samples.attempt();
            let ms = r.latency.as_secs_f64() * 1e3;
            match r.op {
                ServeOp::Solve { .. } => samples.solve_ms.push(ms),
                ServeOp::SubmitValues { .. } => samples.refactor_ms.push(ms),
                ServeOp::Batch4 { .. } | ServeOp::Cold => {}
            }
            match &r.outcome {
                Ok(iterations) => {
                    samples.check(Ok(()));
                    if r.index < SERVE_BLOCK {
                        samples.first_cycle_iterations.extend(iterations);
                    }
                }
                // An error envelope or transport error has no answer to
                // check; a wrong answer was checked and failed. Both fail.
                Err(note) => samples.check(Err(format!("op {} ({:?}): {note}", r.index, r.op))),
            }
            if let Some((pieces, whole)) = r.replay {
                replayed_s += pieces;
                replayed_of_s += whole;
            }
        }
        // Ops are claimed in order and every claimed op completes, so the
        // records are a prefix of the schedule: whole blocks are the cycles.
        let whole = records.len() / SERVE_BLOCK * SERVE_BLOCK;
        samples.cycle_ops = whole as u64;
        samples.cycle_wall_s = records[..whole]
            .iter()
            .map(|r| r.done_at)
            .max()
            .unwrap_or_default()
            .as_secs_f64();
        if replayed_of_s > 0.0 {
            samples.cover_share = Some(replayed_s / replayed_of_s);
        }
        let after = self.service_counters();
        let [hits, misses, evictions, reused, created] =
            std::array::from_fn(|i| after[i] - before[i]);
        samples.service = Some(ServiceCounts {
            cache_hit_share: hits / (hits + misses),
            evictions,
            workspace_reuse_share: reused / (reused + created),
        });
        if spans.is_on() {
            self.client_spans = client_spans;
        }
        samples
    }

    fn primary_operator(&self) -> &CsrMatrix {
        &self.residents[0].base
    }

    fn extra_tracks(&self) -> &[SpanBuf] {
        &self.client_spans
    }
}
