//! The TCP daemon: JSON lines over `std::net`, thread per connection.
//!
//! Connections share one [`SolverService`] behind a mutex, held for the
//! whole of one request — decode, dispatch, encode — so requests from
//! concurrent clients interleave at line granularity, and every solve runs
//! on the service's single shared worker pool (the paper's threads), never
//! one pool per client. Reading a line off the socket and writing the reply
//! happen outside the mutex. (Decoding before taking it and encoding after
//! releasing it was measured and lost on a two-core host, where a connection
//! thread's JSON work takes a core from the solve in progress: ROADMAP,
//! recorded dead ends.)
//!
//! `TCP_NODELAY` is set on every connection and a reply line goes out, with
//! its newline, in one write: no reply waits in the kernel for the ACK of
//! an earlier segment.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use crate::service::SolverService;

/// Runs the accept loop until a client's `shutdown` request is
/// acknowledged. Returns the number of connections served.
///
/// Each connection gets a reader thread; responses are written back on the
/// same stream, one line per request, in request order.
pub fn serve(listener: TcpListener, service: Arc<Mutex<SolverService>>) -> std::io::Result<u64> {
    let stopping = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    let mut connections = 0u64;
    let mut handles = Vec::new();
    for stream in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        connections += 1;
        let service = Arc::clone(&service);
        let stopping_flag = Arc::clone(&stopping);
        handles.push(thread::spawn(move || {
            let _ = handle_connection(stream, service, &stopping_flag, addr);
        }));
    }
    for handle in handles {
        let _ = handle.join();
    }
    Ok(connections)
}

/// A line as `BufRead::lines` would hand it over — without its `\n` or
/// `\r\n` — or `None` where the daemon skips it as blank (only whitespace,
/// by `str::trim`'s definition). Bytes that are not UTF-8 are not blank.
fn request_line(raw: &[u8]) -> Option<&[u8]> {
    let line = raw.strip_suffix(b"\n").unwrap_or(raw);
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    // A request starts with `{`: only a line whose first byte is not plain
    // ASCII text needs the full check.
    let blank = match line.first() {
        None => true,
        Some(b) if b.is_ascii_graphic() => false,
        Some(_) => std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty()),
    };
    (!blank).then_some(line)
}

fn handle_connection(
    stream: TcpStream,
    service: Arc<Mutex<SolverService>>,
    stopping: &AtomicBool,
    addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut raw = Vec::new();
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        let Some(line) = request_line(&raw) else {
            continue;
        };
        let arrived = Instant::now();
        let reply = match service.lock() {
            Ok(mut service) => service.handle(line, arrived),
            // A poisoned mutex means a handler panicked; the pool itself
            // recovers (catch_unwind + poisoning at dispatch level), so
            // answer with what the envelope can say and keep serving.
            Err(poisoned) => poisoned.into_inner().handle(line, arrived),
        };
        let mut line = reply.line;
        line.push('\n');
        writer.write_all(line.as_bytes())?;
        if reply.shutdown {
            stopping.store(true, Ordering::SeqCst);
            // The accept loop blocks in `incoming()`; poke it awake with a
            // throwaway connection so it observes the flag and exits.
            let _ = TcpStream::connect(addr);
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::request_line;

    #[test]
    fn lines_lose_their_ending_and_blank_ones_are_skipped() {
        assert_eq!(request_line(b"{}\n"), Some(&b"{}"[..]));
        assert_eq!(request_line(b"{}\r\n"), Some(&b"{}"[..]));
        assert_eq!(
            request_line(b"{}"),
            Some(&b"{}"[..]),
            "last line, no newline"
        );
        assert_eq!(request_line(b" {}\n"), Some(&b" {}"[..]));
        for blank in [
            &b"\n"[..],
            b"\r\n",
            b"  \t \n",
            "\u{a0}\u{2003}\n".as_bytes(),
        ] {
            assert_eq!(request_line(blank), None, "{blank:?}");
        }
        // Not UTF-8, so not blank: it is answered (with a parse error).
        assert_eq!(request_line(b"\xff\xfe\n"), Some(&b"\xff\xfe"[..]));
        assert_eq!(request_line(b" \xff\n"), Some(&b" \xff"[..]));
    }
}
