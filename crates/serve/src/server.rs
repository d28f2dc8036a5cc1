//! The TCP front end: a `std::net` listener feeding a fixed worker
//! pool.
//!
//! # Thread-pool sizing
//!
//! Workers default to 4. A worker is only ever blocked on socket I/O or
//! doing CPU-light snapshot reads (an `Arc` clone plus JSON rendering),
//! so a small pool saturates the read path long before it contends with
//! ingest — the since-removed `query_scaling` bench showed a single
//! snapshot cell sustaining dozens of reader threads (EXPERIMENTS.md).
//! Connections beyond the pool wait in the accept queue; riders see
//! latency, not errors, under overload.
//!
//! # Shutdown
//!
//! `ServerHandle::shutdown` flips the stop flag, wakes the acceptor
//! with a self-connection, wakes idle workers via the condvar, and
//! joins every thread. Workers notice the flag between requests and
//! via read timeouts, so shutdown is bounded by one timeout interval.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use wilocator_core::WiLocator;
use wilocator_obs::sync::unpoisoned;

use crate::http::{parse_request, HttpError, HttpLimits};
use crate::service::{respond, Response};

/// Transport configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Parser limits applied to every connection.
    pub limits: HttpLimits,
    /// Socket read timeout; also bounds how long an idle keep-alive
    /// connection can hold a worker, and the shutdown latency.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            limits: HttpLimits::default(),
            read_timeout_ms: 5_000,
        }
    }
}

/// Connections handed from the acceptor to the workers.
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// A running front end; dropping it without calling
/// [`ServerHandle::shutdown`] detaches the threads.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the concrete port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes every thread, and joins them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Self-connect so the acceptor returns from `accept`.
        let _ = TcpStream::connect(self.addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (use `127.0.0.1:0` for an ephemeral port) and starts
/// the acceptor and worker threads.
pub fn serve(
    server: Arc<WiLocator>,
    addr: impl ToSocketAddrs,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(ConnQueue {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
    });

    let mut threads = Vec::new();
    for _ in 0..config.workers.max(1) {
        let server = Arc::clone(&server);
        let conns = Arc::clone(&conns);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            worker_loop(&server, &conns, &stop, config)
        }));
    }
    {
        let conns = Arc::clone(&conns);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &conns, &stop)
        }));
    }
    Ok(ServerHandle {
        addr,
        stop,
        threads,
    })
}

fn accept_loop(listener: &TcpListener, conns: &ConnQueue, stop: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    // The wake-up self-connection (or a late client);
                    // drop it and wake the workers so they drain out.
                    conns.ready.notify_all();
                    return;
                }
                unpoisoned(conns.queue.lock()).push_back(stream);
                conns.ready.notify_one();
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    conns.ready.notify_all();
                    return;
                }
                // Transient accept errors (e.g. ECONNABORTED) are
                // expected under load; keep serving.
            }
        }
    }
}

fn worker_loop(server: &WiLocator, conns: &ConnQueue, stop: &AtomicBool, config: ServeConfig) {
    loop {
        let stream = {
            let mut queue = unpoisoned(conns.queue.lock());
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // Timed wait: survives a missed notification during
                // shutdown without spinning in steady state.
                let (guard, _timed_out) =
                    unpoisoned(conns.ready.wait_timeout(queue, Duration::from_millis(100)));
                queue = guard;
            }
        };
        handle_connection(server, stream, &config, stop);
    }
}

/// Serves one connection until close, error, or shutdown. Never
/// panics: every I/O failure ends with a best-effort close.
fn handle_connection(
    server: &WiLocator,
    mut stream: TcpStream,
    config: &ServeConfig,
    stop: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(config.read_timeout_ms.max(1))));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Drain every complete pipelined request already buffered
        // before reading more bytes.
        match parse_request(&buf, &config.limits) {
            Ok(Some((request, consumed))) => {
                let response = respond(server, &request);
                let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
                if write_response(&mut stream, &mut out, &response, keep_alive).is_err()
                    || !keep_alive
                {
                    return;
                }
                buf.drain(..consumed.min(buf.len()));
                continue;
            }
            Ok(None) => {
                if buf.len() > config.limits.max_buffer() {
                    let error = HttpError {
                        status: 431,
                        message: "request too large",
                    };
                    write_error(&mut stream, &mut out, server, error);
                    return;
                }
            }
            Err(error) => {
                write_error(&mut stream, &mut out, server, error);
                return;
            }
        }
        match stream.read(&mut chunk) {
            // Orderly close (or abrupt disconnect mid-request).
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Timeout or hard error: drop the connection quietly.
            Err(_) => return,
        }
        if stop.load(Ordering::SeqCst) && buf.is_empty() {
            return;
        }
    }
}

/// Answers a parse rejection and counts it as a bad request. The
/// connection always closes afterwards: framing is unknown.
fn write_error(stream: &mut TcpStream, out: &mut Vec<u8>, server: &WiLocator, error: HttpError) {
    server.query_metrics().bad_request_total.inc();
    let response = Response::error(error.status, error.message);
    let _ = write_response(stream, out, &response, false);
}

/// Sends one answer, head and body, with one `write_all` from the
/// connection's reused buffer `out`, so on the `TCP_NODELAY` socket it
/// leaves as one segment rather than two.
fn write_response(
    stream: &mut TcpStream,
    out: &mut Vec<u8>,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    out.clear();
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    out.extend_from_slice(response.body.as_bytes());
    stream.write_all(out)?;
    stream.flush()
}

/// Reason phrases for every status the front end emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_text_covers_parser_statuses() {
        for status in [200u16, 400, 404, 405, 413, 414, 431, 505] {
            assert_ne!(status_text(status), "Error", "{status}");
        }
        assert_eq!(status_text(599), "Error");
    }

    #[test]
    fn config_defaults_are_sane() {
        let config = ServeConfig::default();
        assert!(config.workers >= 1);
        assert!(config.read_timeout_ms > 0);
        assert!(config.limits.max_buffer() > config.limits.max_request_line);
    }
}
