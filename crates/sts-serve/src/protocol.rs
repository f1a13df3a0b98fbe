//! The versioned JSON-lines wire contract.
//!
//! Every message is one JSON object on one line. Requests carry the protocol
//! version (`"v": 1`), a client-chosen correlation id, and an `"op"`;
//! responses echo the version and id and carry either `"ok": true` with a
//! `"result"` object or `"ok": false` with an `"error"` object holding a
//! stable machine-readable [`ErrorCode`] and a human-readable message.
//!
//! The contract is snapshot-tested (`tests/contract/` at the workspace root):
//! renames of fields, codes, or op names fail CI. See `docs/PROTOCOL.md` for
//! the full request/response catalogue.
//!
//! Floating-point values survive the wire bitwise: the vendored JSON layer
//! renders each `f64` as the shortest digits that read back to its bits (an
//! exact tie between the two nearest candidates rounded up in magnitude),
//! byte for byte the text of Rust's `Display`, so a solution vector read
//! back by a client is bit-for-bit the solver's output.
//!
//! The n-length arrays (`b`, `x`, `values`, `row_ptr`, `col_idx`) cross this
//! boundary once per direction and never as a tree: [`parse_request`] reads
//! them straight into their vectors on its one walk over the line, and the
//! envelope and request writers append them straight from their slices.
//! Both go through `serde_json`'s one float writer and one number scanner,
//! the same ones a [`Value`] is rendered and parsed with, so the bytes do
//! not depend on the route.

use serde::Value;
use sts_core::PrecisionPolicy;
use sts_matrix::MatrixError;

/// The protocol version this build speaks. Requests carrying any other
/// version are rejected with [`ErrorCode::VersionMismatch`].
pub const PROTOCOL_VERSION: u64 = 1;

/// Stable machine-readable error codes of the `"error".code` field.
///
/// Codes are part of the versioned contract: existing codes never change
/// meaning within a protocol version (new codes may be added).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    ParseError,
    /// The request's `"v"` is not [`PROTOCOL_VERSION`].
    VersionMismatch,
    /// A required field is absent or has the wrong type.
    MissingField,
    /// A field's value is out of range or inconsistent with the op.
    BadRequest,
    /// The `"op"` is not one of the contract's operations.
    UnknownOp,
    /// The referenced sparsity-pattern key has no cache entry.
    UnknownPattern,
    /// A solve was requested for a pattern that has no submitted values yet.
    NoValues,
    /// The submitted matrix failed validation (structure, triangularity,
    /// diagonal, non-finite entries).
    InvalidMatrix,
    /// Vector or matrix dimensions do not agree.
    DimensionMismatch,
    /// The IC(0) factorization broke down and the recovery ladder was
    /// exhausted or disabled.
    FactorizationBreakdown,
    /// A solver worker panicked mid-solve (the pool recovered; retry is
    /// safe).
    WorkerPanicked,
    /// Reserved: a factorization timed out. No current path emits it; the
    /// code stays in the catalogue so the contract only ever grows.
    SolveTimeout,
    /// The iteration produced a non-finite residual and the ladder was
    /// exhausted or disabled.
    NonFiniteResidual,
    /// Any other server-side failure.
    Internal,
}

impl ErrorCode {
    /// The wire string of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::ParseError => "parse_error",
            ErrorCode::VersionMismatch => "version_mismatch",
            ErrorCode::MissingField => "missing_field",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownPattern => "unknown_pattern",
            ErrorCode::NoValues => "no_values",
            ErrorCode::InvalidMatrix => "invalid_matrix",
            ErrorCode::DimensionMismatch => "dimension_mismatch",
            ErrorCode::FactorizationBreakdown => "factorization_breakdown",
            ErrorCode::WorkerPanicked => "worker_panicked",
            ErrorCode::SolveTimeout => "solve_timeout",
            ErrorCode::NonFiniteResidual => "non_finite_residual",
            ErrorCode::Internal => "internal",
        }
    }

    /// Every code of the contract, in a fixed order (snapshot-tested).
    pub fn all() -> &'static [ErrorCode] {
        &[
            ErrorCode::ParseError,
            ErrorCode::VersionMismatch,
            ErrorCode::MissingField,
            ErrorCode::BadRequest,
            ErrorCode::UnknownOp,
            ErrorCode::UnknownPattern,
            ErrorCode::NoValues,
            ErrorCode::InvalidMatrix,
            ErrorCode::DimensionMismatch,
            ErrorCode::FactorizationBreakdown,
            ErrorCode::WorkerPanicked,
            ErrorCode::SolveTimeout,
            ErrorCode::NonFiniteResidual,
            ErrorCode::Internal,
        ]
    }
}

/// Maps a solver-stack error onto the wire code the envelope reports.
///
/// Breakdown- and fault-shaped errors keep their identity (clients may
/// choose to retry a [`ErrorCode::WorkerPanicked`] but not a
/// [`ErrorCode::FactorizationBreakdown`]); validation errors collapse onto
/// [`ErrorCode::InvalidMatrix`] / [`ErrorCode::DimensionMismatch`].
pub fn map_error(e: &MatrixError) -> ErrorCode {
    match e {
        MatrixError::IndexOutOfBounds { .. }
        | MatrixError::NotLowerTriangular { .. }
        | MatrixError::SingularDiagonal { .. }
        | MatrixError::InvalidStructure(_)
        | MatrixError::NonFinite { .. } => ErrorCode::InvalidMatrix,
        MatrixError::DimensionMismatch(_) => ErrorCode::DimensionMismatch,
        MatrixError::InvalidParameter(_) => ErrorCode::BadRequest,
        MatrixError::FactorizationBreakdown { .. } => ErrorCode::FactorizationBreakdown,
        MatrixError::WorkerPanicked { .. } => ErrorCode::WorkerPanicked,
        MatrixError::NonFiniteResidual { .. } => ErrorCode::NonFiniteResidual,
        MatrixError::ParseError { .. } | MatrixError::Io(_) => ErrorCode::Internal,
    }
}

/// How a multi-RHS solve request drives the Krylov layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMode {
    /// One right-hand side, scalar PCG.
    Single,
    /// `nrhs` systems under lockstep batched PCG (shared sweeps, independent
    /// Krylov spaces).
    Batch,
    /// Accepted for compatibility and answered by the lockstep driver, like
    /// `Batch`; the reply keeps its `block_steps` key (the lockstep count)
    /// and `deflations` key (always 0).
    Block,
}

impl SolveMode {
    /// The wire string of the mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolveMode::Single => "single",
            SolveMode::Batch => "batch",
            SolveMode::Block => "block",
        }
    }
}

/// A parsed request, version-checked and field-validated.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a sparsity pattern for analysis; idempotent, returns the
    /// pattern key.
    SubmitPattern {
        /// Dimension of the (square, symmetric) matrix.
        n: usize,
        /// CSR row pointers of the full symmetric matrix, length `n + 1`.
        row_ptr: Vec<usize>,
        /// CSR column indices (both triangles stored).
        col_idx: Vec<usize>,
        /// Analysis method label ("STS-3", "CSR-LS", "CSR-COL", "CSR-3-LS").
        method: String,
        /// Rows per super-row of the hierarchy (the paper's coarsening
        /// knob).
        rows_per_super_row: usize,
    },
    /// Attach numeric values to a submitted pattern and factor the
    /// preconditioner.
    SubmitValues {
        /// The pattern key returned by `submit_pattern`.
        pattern: String,
        /// Values aligned with the pattern's CSR entries.
        values: Vec<f64>,
        /// Value-slab precision the factor's sweeps run at; parsed from the
        /// optional `"precision"` field (`"f64"`, the default, or `"f32"`).
        precision: PrecisionPolicy,
    },
    /// Solve on a pattern whose values have been submitted (the warm path).
    Solve {
        /// The pattern key.
        pattern: String,
        /// Right-hand side(s); `n * nrhs` entries, interleaved
        /// (`b[i * nrhs + q]`) when `nrhs > 1`.
        b: Vec<f64>,
        /// Solve mode; defaults to `single`.
        mode: SolveMode,
        /// Number of right-hand sides; defaults to 1.
        nrhs: usize,
        /// Optional relative tolerance override.
        tolerance: Option<f64>,
        /// Optional iteration-bound override.
        max_iterations: Option<usize>,
        /// Value-slab precision for this solve's sweeps, overriding what
        /// `submit_values` requested for one solve; `None` (field absent)
        /// inherits the factor's precision.
        precision: Option<PrecisionPolicy>,
    },
    /// Service counters (cache hits/misses, evictions, solves).
    Stats,
    /// Aggregated observability state: the `stats` counters plus a
    /// Prometheus-style text exposition of the metrics registry.
    Metrics,
    /// Stop the daemon after responding.
    Shutdown,
}

/// A request that failed before dispatch: the best-effort correlation id
/// plus the code and message the error envelope should carry.
#[derive(Debug, Clone)]
pub struct RequestError {
    /// The request's id if one could be read, else 0.
    pub id: u64,
    /// The stable error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Builds a JSON object [`Value`] from key/value pairs.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Lowers an `f64` slice to a JSON array value.
pub fn float_array(v: &[f64]) -> Value {
    Value::Array(v.iter().map(|&x| Value::Float(x)).collect())
}

/// Lowers a `usize` slice to a JSON array value.
pub fn usize_array(v: &[usize]) -> Value {
    Value::Array(v.iter().map(|&x| Value::UInt(x as u64)).collect())
}

/// Renders a [`Value`] as one JSON line (serialization is infallible).
pub fn render(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// Writes one JSON object member by member: small members as [`Value`]s,
/// the n-length arrays straight from their slices.
pub(crate) struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

/// Appends `{`, the members `members` writes, and `}`.
pub(crate) fn write_object(out: &mut String, members: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    members(&mut ObjectWriter { out, empty: true });
    out.push('}');
}

impl ObjectWriter<'_> {
    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        serde_json::write_string(key, self.out);
        self.out.push(':');
    }

    pub(crate) fn value(&mut self, key: &str, value: &Value) {
        self.key(key);
        serde_json::write_compact(value, self.out);
    }

    pub(crate) fn floats(&mut self, key: &str, xs: &[f64]) {
        self.key(key);
        serde_json::write_f64_array(xs, self.out);
    }

    pub(crate) fn usizes(&mut self, key: &str, xs: &[usize]) {
        self.key(key);
        serde_json::write_usize_array(xs, self.out);
    }

    pub(crate) fn object(&mut self, key: &str, members: impl FnOnce(&mut ObjectWriter<'_>)) {
        self.key(key);
        write_object(self.out, members);
    }
}

/// Serializes a success envelope: `{"v":1,"id":id,"ok":true,"result":{…}}`.
/// The result object leads with `"x"` when a solution vector is given, then
/// holds `result`'s members in order.
pub fn ok_envelope(id: u64, x: Option<&[f64]>, result: &[(&str, Value)]) -> String {
    let mut line = String::new();
    write_object(&mut line, |w| {
        w.value("v", &Value::UInt(PROTOCOL_VERSION));
        w.value("id", &Value::UInt(id));
        w.value("ok", &Value::Bool(true));
        w.object("result", |r| {
            if let Some(x) = x {
                r.floats("x", x);
            }
            for (key, value) in result {
                r.value(key, value);
            }
        });
    });
    line
}

/// Serializes an error envelope:
/// `{"v":1,"id":id,"ok":false,"error":{"code":…,"message":…}}`.
pub fn err_envelope(id: u64, code: ErrorCode, message: &str) -> String {
    render(&obj(vec![
        ("v", Value::UInt(PROTOCOL_VERSION)),
        ("id", Value::UInt(id)),
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![
                ("code", Value::Str(code.as_str().to_string())),
                ("message", Value::Str(message.to_string())),
            ]),
        ),
    ]))
}

fn missing(id: u64, field: &str) -> RequestError {
    RequestError {
        id,
        code: ErrorCode::MissingField,
        message: format!("missing or mistyped field '{field}'"),
    }
}

fn get_usize(v: &Value, id: u64, field: &str) -> Result<usize, RequestError> {
    v.get(field)
        .and_then(Value::as_usize)
        .ok_or_else(|| missing(id, field))
}

fn get_str(v: &Value, id: u64, field: &str) -> Result<String, RequestError> {
    v.get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing(id, field))
}

/// The members of a request line's top-level object under one array-typed
/// key set, in line order: `None` where the member is not such an array.
type ArrayMembers<T> = Vec<(String, Option<Vec<T>>)>;

/// One walk over a request line. The members that hold n-length arrays are
/// read into vectors; every other member goes into `rest`, a small tree.
struct Members {
    rest: Value,
    floats: ArrayMembers<f64>,
    usizes: ArrayMembers<usize>,
}

fn walk(line: &str) -> serde_json::Result<Members> {
    let mut parser = serde_json::Parser::new(line);
    let (mut rest, mut floats, mut usizes) = (Vec::new(), Vec::new(), Vec::new());
    let is_object = parser.members(|parser, key| {
        match key.as_str() {
            "b" | "values" => floats.push((key, parser.f64_array()?)),
            "row_ptr" | "col_idx" => usizes.push((key, parser.usize_array()?)),
            _ => rest.push((key, parser.value()?)),
        }
        Ok(())
    })?;
    let rest = if is_object {
        Value::Object(rest)
    } else {
        parser.value()?
    };
    parser.end()?;
    Ok(Members {
        rest,
        floats,
        usizes,
    })
}

/// Takes the array under `field`; as with [`Value::get`], the first member
/// of that name is the one that counts.
fn take_array<T>(
    members: &mut ArrayMembers<T>,
    id: u64,
    field: &str,
) -> Result<Vec<T>, RequestError> {
    members
        .iter_mut()
        .find(|(key, _)| key == field)
        .and_then(|(_, array)| array.take())
        .ok_or_else(|| missing(id, field))
}

/// Parses the optional `"precision"` field: `"f64"` means full precision,
/// `"f32"` requests the mixed-precision slabs, absent yields `None` (each
/// op picks its own default), and anything else is a
/// [`ErrorCode::BadRequest`] (the same code an unknown solve mode earns).
fn get_precision(v: &Value, id: u64) -> Result<Option<PrecisionPolicy>, RequestError> {
    match v.get("precision") {
        None => Ok(None),
        Some(x) => match x.as_str() {
            Some("f64") => Ok(Some(PrecisionPolicy::ValuesF64)),
            Some("f32") => Ok(Some(PrecisionPolicy::ValuesF32WithRefinement)),
            Some(other) => Err(RequestError {
                id,
                code: ErrorCode::BadRequest,
                message: format!("unknown precision '{other}' (expected 'f64' or 'f32')"),
            }),
            None => Err(missing(id, "precision")),
        },
    }
}

/// Parses one request line into its correlation id and [`Request`].
///
/// The line is walked once: `b`, `values`, `row_ptr` and `col_idx` are read
/// into their vectors as they are met, the small members are kept as a tree
/// and checked afterwards in a fixed order (`v`, `op`, then the op's fields)
/// — so which field a well-formed line is rejected for does not depend on
/// the order of its members. A repeated member counts the first time only,
/// and unknown members are skipped (after being checked to be JSON).
///
/// On failure the returned [`RequestError`] still carries the id when one
/// was readable, so the error envelope stays correlated.
pub fn parse_request(line: &str) -> Result<(u64, Request), RequestError> {
    let Members {
        rest: v,
        mut floats,
        mut usizes,
    } = walk(line).map_err(|e| RequestError {
        id: 0,
        code: ErrorCode::ParseError,
        message: format!("request is not valid JSON: {e}"),
    })?;
    let id = v.get("id").and_then(Value::as_u64).unwrap_or(0);
    match v.get("v").and_then(Value::as_u64) {
        Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            return Err(RequestError {
                id,
                code: ErrorCode::VersionMismatch,
                message: format!(
                    "protocol version {other} is not supported (this is v{PROTOCOL_VERSION})"
                ),
            });
        }
        None => return Err(missing(id, "v")),
    }
    let op = get_str(&v, id, "op")?;
    let request = match op.as_str() {
        "submit_pattern" => Request::SubmitPattern {
            n: get_usize(&v, id, "n")?,
            row_ptr: take_array(&mut usizes, id, "row_ptr")?,
            col_idx: take_array(&mut usizes, id, "col_idx")?,
            method: get_str(&v, id, "method")?,
            rows_per_super_row: get_usize(&v, id, "rows_per_super_row")?,
        },
        "submit_values" => Request::SubmitValues {
            pattern: get_str(&v, id, "pattern")?,
            values: take_array(&mut floats, id, "values")?,
            precision: get_precision(&v, id)?.unwrap_or(PrecisionPolicy::ValuesF64),
        },
        "solve" => {
            let mode = match v.get("mode").and_then(Value::as_str) {
                None | Some("single") => SolveMode::Single,
                Some("batch") => SolveMode::Batch,
                Some("block") => SolveMode::Block,
                Some(other) => {
                    return Err(RequestError {
                        id,
                        code: ErrorCode::BadRequest,
                        message: format!("unknown solve mode '{other}'"),
                    });
                }
            };
            let nrhs = match v.get("nrhs") {
                None => 1,
                Some(x) => x.as_usize().ok_or_else(|| missing(id, "nrhs"))?,
            };
            let tolerance = match v.get("tolerance") {
                None => None,
                Some(x) => Some(x.as_f64().ok_or_else(|| missing(id, "tolerance"))?),
            };
            let max_iterations = match v.get("max_iterations") {
                None => None,
                Some(x) => Some(x.as_usize().ok_or_else(|| missing(id, "max_iterations"))?),
            };
            Request::Solve {
                pattern: get_str(&v, id, "pattern")?,
                b: take_array(&mut floats, id, "b")?,
                mode,
                nrhs,
                tolerance,
                max_iterations,
                precision: get_precision(&v, id)?,
            }
        }
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(RequestError {
                id,
                code: ErrorCode::UnknownOp,
                message: format!("unknown op '{other}'"),
            });
        }
    };
    Ok((id, request))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_op() {
        let (id, r) = parse_request(
            r#"{"v":1,"id":7,"op":"submit_pattern","n":2,"row_ptr":[0,1,2],"col_idx":[0,1],"method":"STS-3","rows_per_super_row":8}"#,
        )
        .unwrap();
        assert_eq!(id, 7);
        assert!(matches!(r, Request::SubmitPattern { n: 2, .. }));

        let (_, r) = parse_request(
            r#"{"v":1,"id":8,"op":"submit_values","pattern":"abcd","values":[2.0,3.0]}"#,
        )
        .unwrap();
        assert!(matches!(
            r,
            Request::SubmitValues {
                precision: PrecisionPolicy::ValuesF64,
                ..
            }
        ));
        let (_, r) = parse_request(
            r#"{"v":1,"id":8,"op":"submit_values","pattern":"abcd","values":[2.0],"precision":"f32"}"#,
        )
        .unwrap();
        assert!(matches!(
            r,
            Request::SubmitValues {
                precision: PrecisionPolicy::ValuesF32WithRefinement,
                ..
            }
        ));

        let (_, r) = parse_request(
            r#"{"v":1,"id":9,"op":"solve","pattern":"abcd","b":[1.0,2.0],"mode":"batch","nrhs":2,"tolerance":1e-10}"#,
        )
        .unwrap();
        match r {
            Request::Solve {
                mode,
                nrhs,
                tolerance,
                max_iterations,
                ..
            } => {
                assert_eq!(mode, SolveMode::Batch);
                assert_eq!(nrhs, 2);
                assert_eq!(tolerance, Some(1e-10));
                assert_eq!(max_iterations, None);
            }
            other => panic!("expected solve, got {other:?}"),
        }

        assert!(matches!(
            parse_request(r#"{"v":1,"id":1,"op":"stats"}"#).unwrap().1,
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"v":1,"id":1,"op":"metrics"}"#).unwrap().1,
            Request::Metrics
        ));
        assert!(matches!(
            parse_request(r#"{"v":1,"id":1,"op":"shutdown"}"#)
                .unwrap()
                .1,
            Request::Shutdown
        ));
    }

    #[test]
    fn parse_failures_carry_codes_and_ids() {
        let e = parse_request("not json").unwrap_err();
        assert_eq!(e.code, ErrorCode::ParseError);
        assert_eq!(e.id, 0);

        let e = parse_request(r#"{"v":2,"id":3,"op":"stats"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::VersionMismatch);
        assert_eq!(e.id, 3);

        let e = parse_request(r#"{"v":1,"id":4,"op":"warp"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::UnknownOp);

        let e = parse_request(r#"{"v":1,"id":5,"op":"solve","pattern":"x"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::MissingField);

        let e = parse_request(
            r#"{"v":1,"id":6,"op":"solve","pattern":"x","b":[1.0],"mode":"triangular"}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);

        // An unknown precision earns the same invalid-field code on both
        // ops that accept it.
        let e = parse_request(
            r#"{"v":1,"id":7,"op":"solve","pattern":"x","b":[1.0],"precision":"f16"}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = parse_request(
            r#"{"v":1,"id":8,"op":"submit_values","pattern":"x","values":[1.0],"precision":"f16"}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn envelopes_have_the_contract_shape() {
        let ok = ok_envelope(3, None, &[("answer", Value::UInt(42))]);
        assert_eq!(ok, r#"{"v":1,"id":3,"ok":true,"result":{"answer":42}}"#);
        let ok = ok_envelope(3, Some(&[1.0, 0.5]), &[("answer", Value::UInt(42))]);
        assert_eq!(
            ok,
            r#"{"v":1,"id":3,"ok":true,"result":{"x":[1.0,0.5],"answer":42}}"#
        );
        let err = err_envelope(4, ErrorCode::UnknownPattern, "no such pattern");
        assert_eq!(
            err,
            r#"{"v":1,"id":4,"ok":false,"error":{"code":"unknown_pattern","message":"no such pattern"}}"#
        );
    }

    #[test]
    fn error_mapping_is_total_and_stable() {
        use sts_matrix::MatrixError as E;
        assert_eq!(
            map_error(&E::DimensionMismatch("x".into())),
            ErrorCode::DimensionMismatch
        );
        assert_eq!(
            map_error(&E::FactorizationBreakdown {
                row: 1,
                pivot: -1.0
            }),
            ErrorCode::FactorizationBreakdown
        );
        assert_eq!(
            map_error(&E::WorkerPanicked {
                slot: 0,
                pack: 0,
                message: "boom".into()
            }),
            ErrorCode::WorkerPanicked
        );
        assert_eq!(
            map_error(&E::NonFiniteResidual { iteration: 3 }),
            ErrorCode::NonFiniteResidual
        );
        assert_eq!(
            map_error(&E::InvalidStructure("x".into())),
            ErrorCode::InvalidMatrix
        );
    }
}
