//! The solver service: protocol dispatch over the cache and the shared pool.
//!
//! [`SolverService`] owns exactly one [`Pcg`] driver (and therefore one
//! worker pool): every client's solves multiplex onto the same threads. It
//! performs no I/O of its own — [`SolverService::handle_line`] maps one
//! request line to one response line — so the same state machine serves the
//! TCP daemon, in-process tests, and the bench harness identically.
//!
//! A request passes through three phases — decode (line → [`Request`]),
//! dispatch (cache lookup, workspace checkout, PCG, counters, the metrics
//! line) and encode (outcome → reply line) — each timed into its own
//! `sts_serve_phase_ns_*` histogram, next to the time the line waited for
//! the service. The daemon runs all three under its mutex.

use std::sync::Arc;
use std::time::Instant;

use serde::Value;
use sts_core::{Method, PrecisionPolicy};
use sts_krylov::{
    build_ladder_preconditioner, KrylovWorkspace, Pcg, PcgOptions, Preconditioner, RecoveryPolicy,
    SpdSystem, Tolerance,
};
use sts_matrix::{CsrMatrix, MatrixError};
use sts_numa::Schedule;
use sts_trace::{chrome_trace_json, Registry, SpanRecorder};

use crate::cache::{key_from_wire, key_to_wire, pattern_key, FactorEntry, StructureCache};
use crate::pool::WorkspacePool;
use crate::protocol::{
    err_envelope, float_array, map_error, obj, ok_envelope, parse_request, render, ErrorCode,
    Request, RequestError, SolveMode,
};

/// Construction-time knobs of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the shared solve pool.
    pub threads: usize,
    /// Chunk schedule of the shared pool.
    pub schedule: Schedule,
    /// Maximum number of patterns the cache holds before LRU eviction.
    pub cache_capacity: usize,
    /// Recovery ladder policy applied when factoring at `submit_values`.
    pub recovery: RecoveryPolicy,
    /// Default stopping policy; per-request `tolerance` / `max_iterations`
    /// fields override it for one solve. The default records no residual
    /// history: no wire field reports it.
    pub options: PcgOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 4,
            schedule: Schedule::Guided { min_chunk: 1 },
            cache_capacity: 32,
            recovery: RecoveryPolicy::default(),
            options: PcgOptions {
                record_history: false,
                ..PcgOptions::default()
            },
        }
    }
}

/// One handled request: the response line plus whether the daemon should
/// stop accepting connections.
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// The JSON response line (no trailing newline).
    pub line: String,
    /// True after a `shutdown` request was acknowledged.
    pub shutdown: bool,
}

/// Per-request metrics sink: receives one JSON object per handled request,
/// one per line.
pub type MetricsSink = Box<dyn FnMut(&str) + Send>;

/// Per-solve trace sink: receives the 1-based solve sequence number and the
/// Chrome trace-event JSON of that solve's span timeline.
pub type TraceSink = Box<dyn FnMut(u64, &str) + Send>;

/// Span-ring capacity of the tracing recorder a [`TraceSink`] installs.
/// Sized for thousands of pack phases per solve; older spans are dropped
/// (counted) if a single solve overflows it.
const TRACE_CAPACITY: usize = 65_536;

/// The persistent solver service.
pub struct SolverService {
    pcg: Pcg,
    config: ServiceConfig,
    cache: StructureCache,
    pool: WorkspacePool,
    requests: u64,
    solves: u64,
    metrics: Option<MetricsSink>,
    registry: Arc<Registry>,
    trace_recorder: Option<Arc<SpanRecorder>>,
    trace_sink: Option<TraceSink>,
}

/// What a dispatched op produced: the members of the success envelope's
/// result object plus the metric fields worth trending.
#[derive(Default)]
struct OpOutcome {
    /// A solve's solution, the vector PCG returned: the result's leading
    /// `"x"` member, written from here when the reply is rendered.
    x: Option<Vec<f64>>,
    result: Vec<(&'static str, Value)>,
    metric_fields: Vec<(&'static str, Value)>,
}

type OpResult = Result<OpOutcome, (ErrorCode, String)>;

impl SolverService {
    /// A service with `config`'s pool, cache, and policies.
    pub fn new(config: ServiceConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let mut pcg = Pcg::with_options(config.threads, config.schedule, config.options);
        pcg.set_metrics_registry(Some(Arc::clone(&registry)));
        SolverService {
            pcg,
            cache: StructureCache::new(config.cache_capacity),
            pool: WorkspacePool::new(),
            requests: 0,
            solves: 0,
            metrics: None,
            registry,
            trace_recorder: None,
            trace_sink: None,
            config,
        }
    }

    /// Installs a per-request metrics sink (one JSON line per request).
    pub fn set_metrics_sink(&mut self, sink: MetricsSink) {
        self.metrics = Some(sink);
    }

    /// Installs a per-solve trace sink and enables span recording on the
    /// shared solver. Every subsequent `solve` request hands the sink one
    /// Chrome trace-event JSON document (viewable in Perfetto /
    /// `chrome://tracing`) keyed by the solve sequence number.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        let recorder = Arc::new(SpanRecorder::new(TRACE_CAPACITY));
        recorder.enable();
        self.pcg
            .solver_mut()
            .set_trace_recorder(Some(Arc::clone(&recorder)));
        self.trace_recorder = Some(recorder);
        self.trace_sink = Some(sink);
    }

    /// The shared metrics registry every layer of this service feeds
    /// (Krylov iteration counts, per-op latency, cache traffic).
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Handles one request line, returning the response line and the
    /// shutdown flag. Never panics on malformed input: every failure maps to
    /// an error envelope with a stable [`ErrorCode`].
    pub fn handle_line(&mut self, line: &str) -> ServeReply {
        self.handle(line.as_bytes(), Instant::now())
    }

    /// [`SolverService::handle_line`] for a line as it came off a socket at
    /// `arrived` — possibly not UTF-8, which is the same `parse_error` any
    /// other malformed line earns, and possibly having waited for the
    /// service since.
    ///
    /// `sts_serve_op_wall_ns_<op>` is the request's whole stay, `arrived` to
    /// reply rendered; the `sts_serve_phase_ns_*` histograms are its parts.
    /// The metrics line's `wall_ns` is decode plus dispatch, as it was
    /// before the phases were told apart.
    pub(crate) fn handle(&mut self, line: &[u8], arrived: Instant) -> ServeReply {
        let started = Instant::now();
        self.requests += 1;
        let request = match std::str::from_utf8(line) {
            Ok(text) => parse_request(text),
            Err(e) => Err(RequestError {
                id: 0,
                code: ErrorCode::ParseError,
                message: format!("request is not valid UTF-8: {e}"),
            }),
        };
        let decoded = Instant::now();
        let (id, op, mut outcome) = match request {
            Ok((id, request)) => (id, op_label(&request), self.dispatch(request)),
            Err(e) => (e.id, "invalid", Err((e.code, e.message))),
        };
        let wall_ns = started.elapsed().as_nanos() as u64;
        self.registry.counter("sts_serve_requests_total").inc();
        let (code, metric_fields) = match &mut outcome {
            Ok(op) => (None, std::mem::take(&mut op.metric_fields)),
            Err((code, _)) => {
                self.registry
                    .counter(&format!("sts_serve_errors_total_{}", code.as_str()))
                    .inc();
                (Some(*code), Vec::new())
            }
        };
        self.emit_metrics(op, id, code, wall_ns, metric_fields);
        let dispatched = Instant::now();
        let line = match &outcome {
            Ok(op) => ok_envelope(id, op.x.as_deref(), &op.result),
            Err((code, message)) => err_envelope(id, *code, message),
        };
        let encoded = Instant::now();
        for (phase, from, to) in [
            ("lock_wait", arrived, started),
            ("decode", started, decoded),
            ("dispatch", decoded, dispatched),
            ("encode", dispatched, encoded),
        ] {
            self.registry
                .histogram(&format!("sts_serve_phase_ns_{phase}"))
                .observe(to.duration_since(from).as_nanos() as u64);
        }
        self.registry
            .histogram(&format!("sts_serve_op_wall_ns_{op}"))
            .observe(encoded.duration_since(arrived).as_nanos() as u64);
        ServeReply {
            line,
            shutdown: op == "shutdown" && outcome.is_ok(),
        }
    }

    fn emit_metrics(
        &mut self,
        op: &str,
        id: u64,
        code: Option<ErrorCode>,
        wall_ns: u64,
        extra: Vec<(&'static str, Value)>,
    ) {
        if let Some(sink) = self.metrics.as_mut() {
            let mut fields = vec![
                ("event", Value::Str("request".to_string())),
                ("op", Value::Str(op.to_string())),
                ("id", Value::UInt(id)),
                ("ok", Value::Bool(code.is_none())),
                ("wall_ns", Value::UInt(wall_ns)),
            ];
            if let Some(code) = code {
                fields.push(("code", Value::Str(code.as_str().to_string())));
            }
            fields.extend(extra);
            let line = render(&obj(fields));
            sink(&line);
        }
    }

    fn dispatch(&mut self, request: Request) -> OpResult {
        match request {
            Request::SubmitPattern {
                n,
                row_ptr,
                col_idx,
                method,
                rows_per_super_row,
            } => self.submit_pattern(n, row_ptr, col_idx, &method, rows_per_super_row),
            Request::SubmitValues {
                pattern,
                values,
                precision,
            } => self.submit_values(&pattern, values, precision),
            Request::Solve {
                pattern,
                b,
                mode,
                nrhs,
                tolerance,
                max_iterations,
                precision,
            } => self.solve(
                &pattern,
                b,
                mode,
                nrhs,
                tolerance,
                max_iterations,
                precision,
            ),
            Request::Stats => Ok(self.stats()),
            Request::Metrics => Ok(self.metrics_op()),
            Request::Shutdown => Ok(OpOutcome {
                result: vec![("stopping", Value::Bool(true))],
                ..OpOutcome::default()
            }),
        }
    }

    fn submit_pattern(
        &mut self,
        n: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        method_label: &str,
        rows_per_super_row: usize,
    ) -> OpResult {
        let method = method_from_label(method_label).ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                format!("unknown analysis method '{method_label}'"),
            )
        })?;
        if rows_per_super_row == 0 {
            return Err((
                ErrorCode::BadRequest,
                "rows_per_super_row must be positive".to_string(),
            ));
        }
        let key = pattern_key(n, &row_ptr, &col_idx, method, rows_per_super_row);
        if let Some(entry) = self.cache.peek(key) {
            // The key is a 64-bit hash, and collisions can be made: a hit
            // must be this pattern, or a client's values would be bound to
            // another client's structure.
            if entry.structure.n() != n
                || entry.method != method
                || entry.rows_per_super_row != rows_per_super_row
                || entry.row_ptr != row_ptr
                || entry.col_idx != col_idx
            {
                return Err((
                    ErrorCode::BadRequest,
                    format!(
                        "pattern key {} is held by a different pattern",
                        key_to_wire(key)
                    ),
                ));
            }
        }
        if self.cache.get_mut(key).is_some() {
            self.registry.counter("sts_serve_cache_hits_total").inc();
            // Idempotent resubmission: the analysis is already paid for.
            let entry = self.cache.peek(key).ok_or_else(internal_race)?;
            let result = pattern_result(key, true, 0, &entry.structure);
            return Ok(OpOutcome {
                x: None,
                result,
                metric_fields: vec![
                    ("pattern", Value::Str(key_to_wire(key))),
                    ("cache", Value::Str("hit".to_string())),
                ],
            });
        }
        self.registry.counter("sts_serve_cache_misses_total").inc();
        // Cold path: analyze the pattern on synthetic M-matrix values — the
        // orderings are purely structural, so the hierarchy is identical to
        // what the caller's values would produce.
        let start = Instant::now();
        let mut a = CsrMatrix::from_raw(
            n,
            n,
            row_ptr.clone(),
            col_idx.clone(),
            vec![-1.0; col_idx.len()],
        )
        .map_err(wire_error)?;
        synthesize_diagonal(&mut a);
        let sys = SpdSystem::build(&a, method, rows_per_super_row).map_err(wire_error)?;
        let structure = sys.structure_arc();
        let analysis_wall_ns = start.elapsed().as_nanos() as u64;
        let entry = self.cache.insert(
            key,
            method,
            rows_per_super_row,
            row_ptr,
            col_idx,
            structure,
            analysis_wall_ns,
        );
        let result = pattern_result(key, false, analysis_wall_ns, &entry.structure);
        Ok(OpOutcome {
            x: None,
            result,
            metric_fields: vec![
                ("pattern", Value::Str(key_to_wire(key))),
                ("cache", Value::Str("miss".to_string())),
                ("analysis_wall_ns", Value::UInt(analysis_wall_ns)),
            ],
        })
    }

    fn submit_values(
        &mut self,
        pattern: &str,
        values: Vec<f64>,
        precision: PrecisionPolicy,
    ) -> OpResult {
        let key = parse_pattern(pattern)?;
        let entry = self
            .cache
            .get_mut(key)
            .ok_or_else(|| unknown_pattern(pattern))?;
        if values.len() != entry.col_idx.len() {
            return Err((
                ErrorCode::DimensionMismatch,
                format!(
                    "got {} values, pattern has {} entries",
                    values.len(),
                    entry.col_idx.len()
                ),
            ));
        }
        let start = Instant::now();
        let a = CsrMatrix::from_raw(
            entry.structure.n(),
            entry.structure.n(),
            entry.row_ptr.clone(),
            entry.col_idx.clone(),
            values,
        )
        .map_err(wire_error)?;
        // Warm rebind: the cached hierarchy carries over, no analysis runs.
        let system = SpdSystem::build_with_structure(&a, &entry.structure).map_err(wire_error)?;
        // The request's precision overrides the configured ladder default,
        // so a single service can hold f64 and f32 factors side by side.
        let mut recovery_policy = self.config.recovery.clone();
        recovery_policy.precision = precision;
        let (preconditioner, recovery) =
            build_ladder_preconditioner(&system, self.pcg.solver(), &recovery_policy)
                .map_err(wire_error)?;
        let factor_wall_ns = start.elapsed().as_nanos() as u64;
        let label = preconditioner.label();
        let result = vec![
            ("pattern", Value::Str(key_to_wire(key))),
            ("preconditioner", Value::Str(label.to_string())),
            ("degraded", Value::Bool(recovery.degraded)),
            (
                "recovery_attempts",
                Value::UInt(recovery.attempts.len() as u64),
            ),
            ("final_shift", Value::Float(recovery.final_shift)),
            ("factor_wall_ns", Value::UInt(factor_wall_ns)),
            ("precision", Value::Str(precision.as_str().to_string())),
        ];
        entry.factor = Some(FactorEntry {
            system,
            preconditioner,
            recovery,
            factor_wall_ns,
            precision,
        });
        Ok(OpOutcome {
            x: None,
            result,
            metric_fields: vec![
                ("pattern", Value::Str(key_to_wire(key))),
                ("factor_wall_ns", Value::UInt(factor_wall_ns)),
                ("preconditioner", Value::Str(label.to_string())),
            ],
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn solve(
        &mut self,
        pattern: &str,
        b: Vec<f64>,
        mode: SolveMode,
        nrhs: usize,
        tolerance: Option<f64>,
        max_iterations: Option<usize>,
        precision: Option<PrecisionPolicy>,
    ) -> OpResult {
        let key = parse_pattern(pattern)?;
        if nrhs == 0 {
            return Err((ErrorCode::BadRequest, "nrhs must be at least 1".to_string()));
        }
        if mode == SolveMode::Single && nrhs != 1 {
            return Err((
                ErrorCode::BadRequest,
                format!("mode 'single' solves one system, got nrhs = {nrhs}"),
            ));
        }
        // Per-request stopping policy: apply overrides for this solve only.
        let mut options = self.config.options;
        if let Some(tol) = tolerance {
            if !(tol.is_finite() && tol > 0.0) {
                return Err((
                    ErrorCode::BadRequest,
                    format!("tolerance must be positive and finite, got {tol}"),
                ));
            }
            options.tolerance = Tolerance::Relative(tol);
        }
        if let Some(iters) = max_iterations {
            options.max_iterations = iters;
        }
        self.pcg.set_options(options);

        let entry = self
            .cache
            .get_mut(key)
            .ok_or_else(|| unknown_pattern(pattern))?;
        let factor = entry.factor.as_mut().ok_or_else(|| {
            (
                ErrorCode::NoValues,
                format!("pattern '{pattern}' has no submitted values; call submit_values first"),
            )
        })?;
        let n = factor.system.n();
        if n.checked_mul(nrhs) != Some(b.len()) {
            return Err((
                ErrorCode::DimensionMismatch,
                format!(
                    "b has {} entries, expected n * nrhs = {}",
                    b.len(),
                    n as u128 * nrhs as u128
                ),
            ));
        }
        if let Some(rec) = &self.trace_recorder {
            // One timeline per solve: drop whatever the previous request
            // recorded before this solve's spans land.
            rec.clear();
        }
        let start = Instant::now();
        let mut ws = self.pool.checkout(n, nrhs);
        // A per-request precision overrides the factor's default for this
        // solve only; restoring afterwards is a flag flip (demoted slabs
        // stay cached on the structure). An absent field inherits the
        // precision `submit_values` requested.
        let factor_precision = factor.precision;
        let precision = precision.unwrap_or(factor_precision);
        factor.preconditioner.set_precision(precision);
        let solved = run_solve(&self.pcg, factor, &b, mode, nrhs, &mut ws);
        factor.preconditioner.set_precision(factor_precision);
        self.pool.checkin(ws);
        self.pcg.set_options(self.config.options);
        let solve_wall_ns = start.elapsed().as_nanos() as u64;
        let (x, mut fields, iterations, pcg_wall_ns) = solved.map_err(wire_error)?;
        self.solves += 1;
        if let (Some(rec), Some(sink)) = (&self.trace_recorder, self.trace_sink.as_mut()) {
            let spans = rec.snapshot();
            if !spans.is_empty() {
                sink(self.solves, &chrome_trace_json(&spans));
            }
        }
        fields.push(("solve_wall_ns", Value::UInt(solve_wall_ns)));
        fields.push(("cache", Value::Str("warm".to_string())));
        fields.push(("precision", Value::Str(precision.as_str().to_string())));
        let mut metric_fields = vec![
            ("pattern", Value::Str(key_to_wire(key))),
            ("cache", Value::Str("warm".to_string())),
            ("mode", Value::Str(mode.as_str().to_string())),
            ("precision", Value::Str(precision.as_str().to_string())),
            ("solve_wall_ns", Value::UInt(solve_wall_ns)),
            ("iterations", Value::UInt(iterations)),
        ];
        if let Some(ns) = pcg_wall_ns {
            // The driver's own integer clock (PcgOutcome::wall_ns), not a
            // service-side re-measurement.
            metric_fields.push(("pcg_wall_ns", Value::UInt(ns)));
        }
        Ok(OpOutcome {
            x: Some(x),
            result: fields,
            metric_fields,
        })
    }

    fn stats(&mut self) -> OpOutcome {
        OpOutcome {
            result: self.stats_fields(),
            ..OpOutcome::default()
        }
    }

    /// `stats` counters plus the Prometheus text exposition of the shared
    /// registry — one scrape-shaped response for external collectors.
    fn metrics_op(&mut self) -> OpOutcome {
        let stats = obj(self.stats_fields());
        OpOutcome {
            result: vec![
                ("stats", stats),
                ("exposition", Value::Str(self.registry.render_prometheus())),
            ],
            ..OpOutcome::default()
        }
    }

    fn stats_fields(&mut self) -> Vec<(&'static str, Value)> {
        let cache = self.cache.stats();
        let pool = self.pool.stats();
        vec![
            ("patterns_cached", Value::UInt(self.cache.len() as u64)),
            (
                "factors_cached",
                Value::UInt(self.cache.factors_cached() as u64),
            ),
            ("cache_capacity", Value::UInt(self.cache.capacity() as u64)),
            ("cache_hits", Value::UInt(cache.hits)),
            ("cache_misses", Value::UInt(cache.misses)),
            ("cache_evictions", Value::UInt(cache.evictions)),
            ("workspaces_idle", Value::UInt(self.pool.idle() as u64)),
            ("workspaces_created", Value::UInt(pool.created)),
            ("workspaces_reused", Value::UInt(pool.reused)),
            ("requests", Value::UInt(self.requests)),
            ("solves", Value::UInt(self.solves)),
            ("threads", Value::UInt(self.config.threads as u64)),
        ]
    }
}

/// The solution as the driver returned it, the response fields that follow
/// it, the scalar iteration count reported on the metrics line, and the
/// driver-measured wall time (`PcgOutcome::wall_ns`) when the mode exposes
/// one.
type SolveFields = (Vec<f64>, Vec<(&'static str, Value)>, u64, Option<u64>);

/// Runs the mode-selected solve and lowers the outcome to response fields.
fn run_solve(
    pcg: &Pcg,
    factor: &mut FactorEntry,
    b: &[f64],
    mode: SolveMode,
    nrhs: usize,
    ws: &mut KrylovWorkspace,
) -> Result<SolveFields, MatrixError> {
    let pre: &mut dyn Preconditioner = &mut factor.preconditioner;
    match mode {
        SolveMode::Single => {
            let out = pcg.solve(&factor.system, pre, b, ws)?;
            let iterations = out.iterations as u64;
            Ok((
                out.x,
                vec![
                    ("iterations", Value::UInt(iterations)),
                    ("converged", Value::Bool(out.converged)),
                    ("residual_norm", Value::Float(out.residual_norm)),
                ],
                iterations,
                Some(out.wall_ns),
            ))
        }
        SolveMode::Batch | SolveMode::Block => {
            let out = pcg.solve_batch(&factor.system, pre, b, nrhs, ws)?;
            let iterations = out.lockstep_iterations as u64;
            let mut fields = vec![
                (
                    "iterations",
                    Value::Array(
                        out.iterations
                            .iter()
                            .map(|&i| Value::UInt(i as u64))
                            .collect(),
                    ),
                ),
                (
                    "converged",
                    Value::Array(out.converged.iter().map(|&c| Value::Bool(c)).collect()),
                ),
                ("residual_norms", float_array(&out.residual_norms)),
            ];
            if mode == SolveMode::Block {
                // Block CG is gone; its reply keys stay for old clients.
                fields.push(("block_steps", Value::UInt(iterations)));
                fields.push(("deflations", Value::UInt(0)));
            } else {
                fields.push(("lockstep_iterations", Value::UInt(iterations)));
            }
            Ok((out.x, fields, iterations, None))
        }
    }
}

/// The result object of `submit_pattern`.
fn pattern_result(
    key: u64,
    cached: bool,
    analysis_wall_ns: u64,
    structure: &sts_core::StsStructure,
) -> Vec<(&'static str, Value)> {
    vec![
        ("pattern", Value::Str(key_to_wire(key))),
        ("cached", Value::Bool(cached)),
        ("analysis_wall_ns", Value::UInt(analysis_wall_ns)),
        ("n", Value::UInt(structure.n() as u64)),
        ("nnz_lower", Value::UInt(structure.nnz() as u64)),
        ("packs", Value::UInt(structure.num_packs() as u64)),
        ("super_rows", Value::UInt(structure.num_super_rows() as u64)),
    ]
}

/// Turns a validated pattern whose values are all `-1` into a symmetric
/// M-matrix: `degree + 1` on the diagonal, `-1` off it. Diagonally dominant,
/// so analysis-time validation and the orderings behave exactly as with
/// production values.
fn synthesize_diagonal(a: &mut CsrMatrix) {
    for i in 0..a.nrows() {
        let row = a.row_ptr()[i]..a.row_ptr()[i + 1];
        let degree = row.len().saturating_sub(1);
        if let Some(k) = row.clone().find(|&k| a.col_idx()[k] == i) {
            a.values_mut()[k] = degree as f64 + 1.0;
        }
    }
}

fn method_from_label(label: &str) -> Option<Method> {
    Method::all().into_iter().find(|m| m.label() == label)
}

fn op_label(request: &Request) -> &'static str {
    match request {
        Request::SubmitPattern { .. } => "submit_pattern",
        Request::SubmitValues { .. } => "submit_values",
        Request::Solve { .. } => "solve",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    }
}

fn parse_pattern(pattern: &str) -> Result<u64, (ErrorCode, String)> {
    key_from_wire(pattern).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            format!("'{pattern}' is not a pattern key (16 hex digits)"),
        )
    })
}

fn unknown_pattern(pattern: &str) -> (ErrorCode, String) {
    (
        ErrorCode::UnknownPattern,
        format!("pattern '{pattern}' is not cached (evicted or never submitted)"),
    )
}

fn internal_race() -> (ErrorCode, String) {
    (
        ErrorCode::Internal,
        "cache entry vanished mid-request".to_string(),
    )
}

fn wire_error(e: MatrixError) -> (ErrorCode, String) {
    (map_error(&e), e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_matrix::generators::grid2d_laplacian;

    #[test]
    fn a_key_held_by_another_pattern_is_refused_and_binds_nothing() {
        let mut service = SolverService::new(ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        });
        let (method, r) = (Method::Sts3, 8);
        let a = grid2d_laplacian(4, 4).expect("a 4x4 grid");
        let b = grid2d_laplacian(4, 5).expect("a 4x5 grid");
        let key_b = pattern_key(b.nrows(), b.row_ptr(), b.col_idx(), method, r);
        // Pattern A's entry, filed under B's key: what a crafted FNV-1a
        // collision would leave in the cache.
        let structure = SpdSystem::build(&a, method, r)
            .expect("the grid is SPD")
            .structure_arc();
        service.cache.insert(
            key_b,
            method,
            r,
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            structure,
            0,
        );

        let refused = service.submit_pattern(
            b.nrows(),
            b.row_ptr().to_vec(),
            b.col_idx().to_vec(),
            method.label(),
            r,
        );
        match refused {
            Err((code, message)) => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains(&key_to_wire(key_b)), "{message}");
            }
            Ok(_) => panic!("a colliding key must not be a hit"),
        }
        assert_eq!(service.cache.len(), 1, "nothing new is cached");
        let entry = service.cache.peek(key_b).expect("the entry stays");
        assert_eq!(entry.row_ptr, a.row_ptr(), "the entry keeps pattern A");
        assert!(entry.factor.is_none(), "no values were bound");
    }
}
