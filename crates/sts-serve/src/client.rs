//! The client library: a typed, blocking wrapper over the wire contract.
//!
//! [`Client`] speaks the JSON-lines protocol over a `TcpStream` and lifts
//! responses into typed results, mapping `"ok": false` envelopes onto
//! [`ClientError::Server`] with the stable error-code string preserved.
//! `TCP_NODELAY` is set and a request line goes out, with its newline, in
//! one write.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde::Value;
use sts_matrix::CsrMatrix;

use crate::protocol::{write_object, ObjectWriter, PROTOCOL_VERSION};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(std::io::Error),
    /// The server answered with an error envelope.
    Server {
        /// The stable wire error code (e.g. `"unknown_pattern"`).
        code: String,
        /// The human-readable message.
        message: String,
    },
    /// The server's response did not match the contract shape.
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Malformed(msg) => write!(f, "malformed response: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias of the client library.
pub type ClientResult<T> = Result<T, ClientError>;

/// What a `solve` request returned, lifted from the wire.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The solution (interleaved `x[i * nrhs + q]` for multi-RHS modes),
    /// bitwise identical to the solver's in-process output.
    pub x: Vec<f64>,
    /// Iterations: the scalar count for `single`, the lockstep count for
    /// `batch` and `block`.
    pub iterations: u64,
    /// Whether every system met the tolerance.
    pub converged: bool,
    /// Server-side solve wall time, nanoseconds.
    pub solve_wall_ns: u64,
}

/// A blocking JSON-lines client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// The request line, then the response line: one buffer for the
    /// connection's lifetime.
    line: String,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 0,
            line: String::new(),
        })
    }

    /// Sends one request object (the `v`/`id` envelope fields are added
    /// here) and waits for its response, returning the `"result"` object.
    pub fn request(&mut self, op: &str, fields: Vec<(&str, Value)>) -> ClientResult<Value> {
        // The tree is consumed as it is written: gone before the reply is
        // awaited.
        self.round_trip(op, move |w| {
            for (key, value) in fields {
                w.value(key, &value);
            }
        })
    }

    /// [`Client::request`] with the members after `op` written by `members`,
    /// which is how the typed calls put their slices on the wire without a
    /// tree in between.
    fn round_trip(
        &mut self,
        op: &str,
        members: impl FnOnce(&mut ObjectWriter<'_>),
    ) -> ClientResult<Value> {
        self.next_id += 1;
        let id = self.next_id;
        self.line.clear();
        write_object(&mut self.line, |w| {
            w.value("v", &Value::UInt(PROTOCOL_VERSION));
            w.value("id", &Value::UInt(id));
            w.value("op", &Value::Str(op.to_string()));
            members(w);
        });
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;

        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        lift_response(&self.line)
    }

    /// Submits a matrix's sparsity pattern for analysis; returns the pattern
    /// key to quote in `submit_values` / `solve`.
    pub fn submit_pattern(
        &mut self,
        a: &CsrMatrix,
        method: &str,
        rows_per_super_row: usize,
    ) -> ClientResult<String> {
        let result = self.round_trip("submit_pattern", |w| {
            w.value("n", &Value::UInt(a.nrows() as u64));
            w.usizes("row_ptr", a.row_ptr());
            w.usizes("col_idx", a.col_idx());
            w.value("method", &Value::Str(method.to_string()));
            w.value(
                "rows_per_super_row",
                &Value::UInt(rows_per_super_row as u64),
            );
        })?;
        result
            .get("pattern")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Malformed("submit_pattern without pattern".to_string()))
    }

    /// Attaches the matrix's values to a submitted pattern (factors the
    /// preconditioner server-side). Returns the preconditioner label the
    /// setup ladder came to rest on.
    pub fn submit_values(&mut self, pattern: &str, values: &[f64]) -> ClientResult<String> {
        let result = self.round_trip("submit_values", |w| {
            w.value("pattern", &Value::Str(pattern.to_string()));
            w.floats("values", values);
        })?;
        result
            .get("preconditioner")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                ClientError::Malformed("submit_values without preconditioner".to_string())
            })
    }

    /// Solves one system on the warm path.
    pub fn solve(&mut self, pattern: &str, b: &[f64]) -> ClientResult<SolveResult> {
        let result = self.round_trip("solve", |w| {
            w.value("pattern", &Value::Str(pattern.to_string()));
            w.floats("b", b);
        })?;
        lift_solution(&result)
    }

    /// Fetches the service counters.
    pub fn stats(&mut self) -> ClientResult<Value> {
        self.request("stats", Vec::new())
    }

    /// Asks the daemon to stop accepting connections.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        self.request("shutdown", Vec::new()).map(|_| ())
    }
}

/// Lifts one response line: the `"result"` of a success envelope, moved out
/// of the parsed reply, or the error an error envelope carries.
fn lift_response(line: &str) -> ClientResult<Value> {
    let v = serde_json::from_str(line.trim_end())
        .map_err(|e| ClientError::Malformed(format!("response is not JSON: {e}")))?;
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => match v {
            Value::Object(members) => members.into_iter().find(|(key, _)| key == "result"),
            _ => None,
        }
        .map(|(_, result)| result)
        .ok_or_else(|| ClientError::Malformed("ok response without result".to_string())),
        Some(false) => {
            let error = v.get("error");
            let code = error
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap_or("internal")
                .to_string();
            let message = error
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            Err(ClientError::Server { code, message })
        }
        None => Err(ClientError::Malformed(
            "response carries no ok field".to_string(),
        )),
    }
}

/// Lifts a `solve` result object. Every entry of `x` must be a number: a
/// `null` (how the wire writes a non-finite float) is a malformed reply, not
/// a shorter solution.
fn lift_solution(result: &Value) -> ClientResult<SolveResult> {
    let x = result
        .get("x")
        .and_then(Value::as_array)
        .ok_or_else(|| ClientError::Malformed("solve without x".to_string()))?
        .iter()
        .map(Value::as_f64)
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| ClientError::Malformed("solve x holds a non-number".to_string()))?;
    Ok(SolveResult {
        x,
        iterations: result
            .get("iterations")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        converged: result
            .get("converged")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        solve_wall_ns: result
            .get("solve_wall_ns")
            .and_then(Value::as_u64)
            .unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_solution_holding_a_non_number_is_malformed_not_shorter() {
        let reply = |x: &str| {
            format!(
                r#"{{"v":1,"id":1,"ok":true,"result":{{"x":{x},"iterations":3,"converged":true,"solve_wall_ns":9}}}}"#
            )
        };
        let result = lift_response(&reply("[1.0,2,-0.5]")).unwrap();
        let solved = lift_solution(&result).unwrap();
        assert_eq!(solved.x, [1.0, 2.0, -0.5]);
        assert_eq!((solved.iterations, solved.converged), (3, true));

        // `null` is how the wire writes a non-finite float.
        for x in ["[1.0,null,3.0]", "[1.0,\"2.0\"]", "[[1.0]]", "7"] {
            let result = lift_response(&reply(x)).unwrap();
            assert!(
                matches!(lift_solution(&result), Err(ClientError::Malformed(_))),
                "x = {x}"
            );
        }
    }

    #[test]
    fn responses_lift_to_the_result_or_the_error() {
        let result =
            lift_response(r#"{"v":1,"id":1,"ok":true,"result":{"a":1},"result":{"a":2}}"#).unwrap();
        assert_eq!(result.get("a").and_then(Value::as_u64), Some(1));
        assert!(matches!(
            lift_response(r#"{"v":1,"id":1,"ok":true}"#),
            Err(ClientError::Malformed(_))
        ));
        assert!(matches!(
            lift_response(r#"{"v":1,"id":1,"ok":false,"error":{"code":"no_values","message":"m"}}"#),
            Err(ClientError::Server { code, message }) if code == "no_values" && message == "m"
        ));
        assert!(matches!(
            lift_response("[true]"),
            Err(ClientError::Malformed(_))
        ));
        assert!(matches!(
            lift_response("not json"),
            Err(ClientError::Malformed(_))
        ));
    }
}
