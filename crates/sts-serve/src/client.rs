//! The client library: a typed, blocking wrapper over the wire contract.
//!
//! [`Client`] speaks the JSON-lines protocol over a `TcpStream` and lifts
//! responses into typed results, mapping `"ok": false` envelopes onto
//! [`ClientError::Server`] with the stable error-code string preserved.
//! `TCP_NODELAY` is set and a request line goes out, with its newline, in
//! one write. A reply line is walked once, and a solution's `x` is read
//! straight into its vector, without a tree in between.

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
        self.round_trip(op, false, move |w| {
            for (key, value) in fields {
                w.value(key, &value);
            }
        })
        .map(|reply| reply.result)
    }

    /// [`Client::request`] with the members after `op` written by `members`,
    /// which is how the typed calls put their slices on the wire without a
    /// tree in between; with `x_array`, the result's `x` is read the same
    /// way ([`lift_response`]).
    fn round_trip(
        &mut self,
        op: &str,
        x_array: bool,
        members: impl FnOnce(&mut ObjectWriter<'_>),
    ) -> ClientResult<Reply> {
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
        lift_response(&self.line, x_array)
    }

    /// Submits a matrix's sparsity pattern for analysis; returns the pattern
    /// key to quote in `submit_values` / `solve`.
    pub fn submit_pattern(
        &mut self,
        a: &CsrMatrix,
        method: &str,
        rows_per_super_row: usize,
    ) -> ClientResult<String> {
        let reply = self.round_trip("submit_pattern", false, |w| {
            w.value("n", &Value::UInt(a.nrows() as u64));
            w.usizes("row_ptr", a.row_ptr());
            w.usizes("col_idx", a.col_idx());
            w.value("method", &Value::Str(method.to_string()));
            w.value(
                "rows_per_super_row",
                &Value::UInt(rows_per_super_row as u64),
            );
        })?;
        reply
            .result
            .get("pattern")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Malformed("submit_pattern without pattern".to_string()))
    }

    /// Attaches the matrix's values to a submitted pattern (factors the
    /// preconditioner server-side). Returns the preconditioner label the
    /// setup ladder came to rest on.
    pub fn submit_values(&mut self, pattern: &str, values: &[f64]) -> ClientResult<String> {
        let reply = self.round_trip("submit_values", false, |w| {
            w.value("pattern", &Value::Str(pattern.to_string()));
            w.floats("values", values);
        })?;
        reply
            .result
            .get("preconditioner")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                ClientError::Malformed("submit_values without preconditioner".to_string())
            })
    }

    /// Solves one system on the warm path.
    pub fn solve(&mut self, pattern: &str, b: &[f64]) -> ClientResult<SolveResult> {
        let reply = self.round_trip("solve", true, |w| {
            w.value("pattern", &Value::Str(pattern.to_string()));
            w.floats("b", b);
        })?;
        lift_solution(reply)
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

/// A success envelope's `result`, lifted from one walk over the reply line.
struct Reply {
    /// The result, without its first `x` member when that was read into
    /// `x` instead.
    result: Value,
    /// The result's first `x` member, when it was asked for as an array:
    /// `None` when there is none, `Some(None)` when it is another value than
    /// an array of numbers.
    x: Option<Option<Vec<f64>>>,
}

/// The envelope of one reply line as a small tree, walked once; with
/// `x_array`, the first `result` object's first `x` member is read into a
/// vector instead, as the request parser reads `b`.
fn walk_reply(line: &str, x_array: bool) -> serde_json::Result<(Value, Option<Option<Vec<f64>>>)> {
    let mut parser = serde_json::Parser::new(line);
    let (mut members, mut x) = (Vec::<(String, Value)>::new(), None);
    let is_object = parser.members(|parser, key| {
        let value = if x_array && key == "result" && !members.iter().any(|(k, _)| k == "result") {
            let mut result = Vec::new();
            let is_object = parser.members(|parser, key| {
                if key == "x" && x.is_none() {
                    x = Some(parser.f64_array()?);
                } else {
                    result.push((key, parser.value()?));
                }
                Ok(())
            })?;
            if is_object {
                Value::Object(result)
            } else {
                parser.value()?
            }
        } else {
            parser.value()?
        };
        members.push((key, value));
        Ok(())
    })?;
    let envelope = if is_object {
        Value::Object(members)
    } else {
        parser.value()?
    };
    parser.end()?;
    Ok((envelope, x))
}

/// Lifts one response line, walked once ([`walk_reply`]).
fn lift_response(line: &str, x_array: bool) -> ClientResult<Reply> {
    let (envelope, x) = walk_reply(line, x_array)
        .map_err(|e| ClientError::Malformed(format!("response is not JSON: {e}")))?;
    lift_envelope(envelope, x)
}

/// The `"result"` of a success envelope, moved out of it, or the error an
/// error envelope carries. As with [`Value::get`], the first member of a
/// name is the one that counts.
fn lift_envelope(v: Value, x: Option<Option<Vec<f64>>>) -> ClientResult<Reply> {
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => match v {
            Value::Object(members) => members.into_iter().find(|(key, _)| key == "result"),
            _ => None,
        }
        .map(|(_, result)| Reply { result, x })
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

/// Lifts a `solve` reply whose `x` was read as an array. Every entry of `x`
/// must be a number: a `null` (how the wire writes a non-finite float) is a
/// malformed reply, not a shorter solution.
fn lift_solution(reply: Reply) -> ClientResult<SolveResult> {
    let x = reply
        .x
        .ok_or_else(|| ClientError::Malformed("solve without x".to_string()))?
        .ok_or_else(|| ClientError::Malformed("solve x is not an array of numbers".to_string()))?;
    let result = &reply.result;
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
        let solved = lift_solution(lift_response(&reply("[1.0,2,-0.5]"), true).unwrap()).unwrap();
        assert_eq!(solved.x, [1.0, 2.0, -0.5]);
        assert_eq!((solved.iterations, solved.converged), (3, true));

        // `null` is how the wire writes a non-finite float.
        for x in ["[1.0,null,3.0]", "[1.0,\"2.0\"]", "[[1.0]]", "7"] {
            let reply = lift_response(&reply(x), true).unwrap();
            assert!(
                matches!(lift_solution(reply), Err(ClientError::Malformed(_))),
                "x = {x}"
            );
        }
        // The first `x` counts; a reply without one is malformed too.
        let twice = r#"{"ok":true,"result":{"x":[1.5],"x":[2.5]}}"#;
        let solved = lift_solution(lift_response(twice, true).unwrap()).unwrap();
        assert_eq!(solved.x, [1.5]);
        let none = lift_response(r#"{"ok":true,"result":{"x2":[1]}}"#, true).unwrap();
        assert!(matches!(
            lift_solution(none),
            Err(ClientError::Malformed(_))
        ));
    }

    #[test]
    fn responses_lift_to_the_result_or_the_error() {
        for x_array in [false, true] {
            let result = lift_response(
                r#"{"v":1,"id":1,"ok":true,"result":{"a":1},"result":{"a":2,"x":[3]}}"#,
                x_array,
            )
            .unwrap();
            assert_eq!(result.result.get("a").and_then(Value::as_u64), Some(1));
            assert!(result.x.is_none());
            assert!(matches!(
                lift_response(r#"{"v":1,"id":1,"ok":true}"#, x_array),
                Err(ClientError::Malformed(_))
            ));
            assert!(matches!(
                lift_response(
                    r#"{"v":1,"id":1,"ok":false,"error":{"code":"no_values","message":"m"}}"#,
                    x_array
                ),
                Err(ClientError::Server { code, message }) if code == "no_values" && message == "m"
            ));
            assert!(matches!(
                lift_response("[true]", x_array),
                Err(ClientError::Malformed(_))
            ));
            assert!(matches!(
                lift_response("not json", x_array),
                Err(ClientError::Malformed(_))
            ));
        }
    }

    /// The route the walk replaced: the whole reply parsed into a tree, the
    /// result moved out of it.
    fn lift_tree(line: &str) -> ClientResult<Value> {
        let v = serde_json::from_str(line.trim_end())
            .map_err(|e| ClientError::Malformed(format!("response is not JSON: {e}")))?;
        lift_envelope(v, None).map(|reply| reply.result)
    }

    #[test]
    fn every_contract_reply_lifts_the_same_both_ways() {
        let session = include_str!("../../../tests/contract/session.txt");
        let mut lifted = [0usize; 3];
        for line in session.lines().filter_map(|l| l.strip_prefix("< ")) {
            let tree = lift_tree(line);
            let (plain, walked) = (lift_response(line, false), lift_response(line, true));
            match (tree, plain, walked) {
                (Ok(want), Ok(plain), Ok(walked)) => {
                    assert_eq!(plain.result, want, "{line}");
                    assert!(plain.x.is_none());
                    // The walk leaves the first `x` out of the tree and
                    // reads it as the tree's numbers.
                    let mut members = match want {
                        Value::Object(members) => members,
                        other => panic!("{line}: result {other:?}"),
                    };
                    let x = members
                        .iter()
                        .position(|(key, _)| key == "x")
                        .map(|at| members.remove(at).1);
                    assert_eq!(walked.result, Value::Object(members), "{line}");
                    let x = x.map(|x| {
                        x.as_array()
                            .and_then(|items| items.iter().map(Value::as_f64).collect())
                    });
                    let bits = |x: Option<Option<Vec<f64>>>| {
                        x.map(|x| x.map(|x| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()))
                    };
                    lifted[usize::from(x.is_some())] += 1;
                    assert_eq!(bits(walked.x), bits(x), "{line}");
                }
                (Err(want), Err(plain), Err(walked)) => {
                    assert_eq!(plain.to_string(), want.to_string(), "{line}");
                    assert_eq!(walked.to_string(), want.to_string(), "{line}");
                    lifted[2] += 1;
                }
                (want, plain, walked) => panic!(
                    "{line}: tree {want:?}, walked {:?} and {:?}",
                    plain.map(|r| r.result),
                    walked.map(|r| r.result)
                ),
            }
        }
        // Results without and with an `x`, and error envelopes.
        assert!(lifted.iter().all(|&n| n > 0), "{lifted:?}");
    }
}
