//! TCP-level robustness: whatever bytes arrive on a connection, the daemon
//! answers every non-blank line with one envelope and keeps serving that
//! connection. Written against raw sockets, not `Client`, so the bytes on
//! the wire are exactly the ones below.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;

use serde::Value;
use sts_k::serve::{serve, ServiceConfig, SolverService};

struct RawConnection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConnection {
    fn open(addr: &str) -> RawConnection {
        let stream = TcpStream::connect(addr).unwrap();
        RawConnection {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
    }

    /// The next reply line, parsed.
    fn reply(&mut self) -> Value {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).unwrap() > 0,
            "the daemon closed the connection instead of answering"
        );
        assert!(line.ends_with('\n') && !line.ends_with("\r\n"));
        serde_json::from_str(&line).expect("replies are JSON")
    }
}

fn error_code(reply: &Value) -> Option<&str> {
    reply.get("error")?.get("code")?.as_str()
}

#[test]
fn a_connection_survives_non_utf8_blank_and_crlf_lines() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let service = Arc::new(Mutex::new(SolverService::new(ServiceConfig {
        threads: 2,
        ..ServiceConfig::default()
    })));
    let daemon = thread::spawn(move || serve(listener, service));
    let mut conn = RawConnection::open(&addr);

    // Bytes that are not UTF-8: a parse error with id 0, not a dropped
    // connection.
    conn.send(b"{\"v\":1,\"id\":5,\"op\":\"st\xff\xfets\"}\n");
    let reply = conn.reply();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(reply.get("id").and_then(Value::as_u64), Some(0));
    assert_eq!(error_code(&reply), Some("parse_error"));

    // Blank lines are skipped without a reply; a CRLF-terminated request is
    // answered like any other, on the same connection.
    conn.send(b"\n\r\n   \t\n");
    conn.send(b"{\"v\":1,\"id\":6,\"op\":\"stats\"}\r\n");
    let reply = conn.reply();
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(reply.get("id").and_then(Value::as_u64), Some(6));
    // The bad line was counted as a request, the blank ones were not.
    let requests = |reply: &Value| {
        reply
            .get("result")
            .and_then(|r| r.get("requests"))
            .and_then(Value::as_u64)
    };
    assert_eq!(requests(&reply), Some(2));

    // Malformed JSON and a lone invalid byte, then two requests in one
    // segment: each line gets its own reply, in order.
    conn.send(b"{\"v\":1,\n\x80\n");
    assert_eq!(error_code(&conn.reply()), Some("parse_error"));
    assert_eq!(error_code(&conn.reply()), Some("parse_error"));
    conn.send(b"{\"v\":1,\"id\":7,\"op\":\"stats\"}\n{\"v\":1,\"id\":8,\"op\":\"conjure\"}\n");
    let reply = conn.reply();
    assert_eq!(reply.get("id").and_then(Value::as_u64), Some(7));
    assert_eq!(requests(&reply), Some(5));
    let reply = conn.reply();
    assert_eq!(reply.get("id").and_then(Value::as_u64), Some(8));
    assert_eq!(error_code(&reply), Some("unknown_op"));

    // A final line without a newline is still a line.
    let mut last = RawConnection::open(&addr);
    last.send(b"{\"v\":1,\"id\":9,\"op\":\"shutdown\"}");
    last.writer.shutdown(std::net::Shutdown::Write).unwrap();
    let reply = last.reply();
    assert_eq!(reply.get("id").and_then(Value::as_u64), Some(9));
    assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true));
    drop(conn);
    daemon.join().unwrap().unwrap();
}
