//! Adversarial transport tests: the front end faces untrusted bytes,
//! so every malformed, truncated, oversized or abusive input must end
//! in a 4xx/5xx or a clean close — never a panic, and never a wedged
//! server. Each socket test re-checks that the server still answers
//! `/healthz` afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use wilocator_core::{WiLocator, WiLocatorConfig};
use wilocator_geo::Point;
use wilocator_rf::{AccessPoint, ApId, HomogeneousField};
use wilocator_road::{NetworkBuilder, Route, RouteId};
use wilocator_serve::{parse_request, serve, HttpLimits, ServeConfig, ServerHandle};

/// A one-street, one-route server with no traffic: the adversarial
/// tests exercise the transport, not the pipeline.
fn tiny_server() -> Arc<WiLocator> {
    let mut b = NetworkBuilder::new();
    let a = b.add_node(Point::new(0.0, 0.0));
    let c = b.add_node(Point::new(600.0, 0.0));
    let edge = b.add_edge(a, c, None).expect("distinct nodes");
    let network = b.build();
    let mut route = Route::new(RouteId(0), "9", vec![edge], &network).expect("connected");
    route.add_stops_evenly(2);
    let aps = vec![
        AccessPoint::new(ApId(0), Point::new(100.0, 10.0)),
        AccessPoint::new(ApId(1), Point::new(400.0, -10.0)),
    ];
    let field = HomogeneousField::new(aps);
    let server = WiLocator::new(&field, vec![route], WiLocatorConfig::default());
    // Publish an (empty) snapshot so the data endpoints know the route.
    server.publish_snapshot(0.0);
    Arc::new(server)
}

fn boot() -> ServerHandle {
    let config = ServeConfig {
        read_timeout_ms: 300,
        ..ServeConfig::default()
    };
    serve(tiny_server(), "127.0.0.1:0", config).expect("bind ephemeral port")
}

/// Sends raw bytes on a fresh connection and returns everything the
/// server answers before closing (or before the read times out).
fn exchange(handle: &ServerHandle, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    stream.write_all(raw).expect("send");
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads one response (headers + Content-Length body) from a stream
/// that stays open. `buf` persists across calls so pipelined responses
/// that arrive in one TCP segment are not lost.
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, String) {
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read headers");
        assert!(n > 0, "connection closed before a full response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .and_then(|v| v.parse().ok())
        .expect("Content-Length present");
    while buf.len() < header_end + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let text = String::from_utf8_lossy(&buf[..header_end + content_length]).into_owned();
    buf.drain(..header_end + content_length);
    (status, text)
}

fn assert_alive(handle: &ServerHandle) {
    let reply = exchange(
        handle,
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert!(
        reply.starts_with("HTTP/1.1 200"),
        "server wedged: {reply:?}"
    );
}

#[test]
fn malformed_inputs_get_4xx_and_close() {
    let handle = boot();
    for (raw, status) in [
        (&b"BOGUS\r\n\r\n"[..], "400"),
        (b"GET /x HTTP/1.1 junk\r\n\r\n", "400"),
        (b"get /lowercase HTTP/1.1\r\n\r\n", "400"),
        (b"GET nopath HTTP/1.1\r\n\r\n", "400"),
        (b"GET /x HTTP/9.9\r\n\r\n", "505"),
        (b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n", "400"),
        (b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", "413"),
        (b"\xff\xfe\xfd\r\n\r\n", "400"),
    ] {
        let reply = exchange(&handle, raw);
        assert!(
            reply.starts_with(&format!("HTTP/1.1 {status}")),
            "{:?} answered {reply:?}",
            String::from_utf8_lossy(raw)
        );
        assert!(reply.contains("Connection: close"), "{reply:?}");
    }
    assert_alive(&handle);
    handle.shutdown();
}

#[test]
fn method_not_allowed_is_405() {
    let handle = boot();
    let reply = exchange(
        &handle,
        b"DELETE /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 405"), "{reply:?}");
    assert_alive(&handle);
    handle.shutdown();
}

#[test]
fn oversized_request_line_is_414() {
    let handle = boot();
    let mut raw = b"GET /".to_vec();
    raw.resize(raw.len() + 9_000, b'a');
    let reply = exchange(&handle, &raw);
    assert!(reply.starts_with("HTTP/1.1 414"), "{reply:?}");
    assert_eq!(
        reply.split_once("\r\n\r\n").map(|(_, body)| body),
        Some(r#"{"status":414,"error":"request line too long"}"#),
    );
    assert_alive(&handle);
    handle.shutdown();
}

#[test]
fn oversized_header_section_is_431() {
    let handle = boot();
    let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..500 {
        raw.extend(format!("X-Filler-{i}: {}\r\n", "a".repeat(40)).into_bytes());
    }
    raw.extend(b"\r\n");
    let reply = exchange(&handle, &raw);
    assert!(reply.starts_with("HTTP/1.1 431"), "{reply:?}");
    assert_alive(&handle);
    handle.shutdown();
}

#[test]
fn partial_sends_reassemble_into_one_request() {
    let handle = boot();
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    for piece in [&b"GET /hea"[..], b"lthz HTT", b"P/1.1\r\n", b"\r\n"] {
        stream.write_all(piece).expect("send piece");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut buf = Vec::new();
    let (status, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn pipelined_requests_each_get_a_response() {
    let handle = boot();
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /traffic/0 HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send pipeline");
    let mut buf = Vec::new();
    let (s1, body1) = read_one_response(&mut stream, &mut buf);
    let (s2, body2) = read_one_response(&mut stream, &mut buf);
    let (s3, _) = read_one_response(&mut stream, &mut buf);
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert!(body1.contains("\"status\":\"ok\""), "{body1:?}");
    assert!(body2.contains("\"route\":\"R0\""), "{body2:?}");
    // The final request asked to close; the stream must now drain.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(
        buf.is_empty() && rest.is_empty(),
        "bytes after the final response"
    );
    handle.shutdown();
}

#[test]
fn keep_alive_serves_sequential_requests() {
    let handle = boot();
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    let mut buf = Vec::new();
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("send");
        let (status, _) = read_one_response(&mut stream, &mut buf);
        assert_eq!(status, 200);
    }
    handle.shutdown();
}

#[test]
fn abrupt_disconnects_leave_the_server_healthy() {
    let handle = boot();
    for raw in [&b"GET /heal"[..], b"GET /healthz HTTP/1.1\r\nHost:", b""] {
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        if !raw.is_empty() {
            stream.write_all(raw).expect("send partial");
        }
        drop(stream); // mid-request hangup
    }
    assert_alive(&handle);
    handle.shutdown();
}

#[test]
fn idle_connections_time_out_without_wedging_workers() {
    let handle = boot();
    // Hold more silent connections than there are workers.
    let idle: Vec<TcpStream> = (0..6)
        .map(|_| TcpStream::connect(handle.local_addr()).expect("connect"))
        .collect();
    // After the 300 ms read timeout every worker is free again.
    std::thread::sleep(Duration::from_millis(700));
    assert_alive(&handle);
    drop(idle);
    handle.shutdown();
}

#[test]
fn unknown_ids_are_404_and_bad_ids_are_400() {
    let handle = boot();
    for (target, status) in [
        ("/position/999", "404"),
        ("/arrivals/999", "404"),
        ("/traffic/7", "404"),
        ("/position/abc", "400"),
        ("/arrivals/1?route=x", "400"),
        ("/traffic/-1", "400"),
        ("/unknown/1", "404"),
    ] {
        let reply = exchange(
            &handle,
            format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
        );
        assert!(
            reply.starts_with(&format!("HTTP/1.1 {status}")),
            "{target} answered {reply:?}"
        );
    }
    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics, whatever bytes arrive.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = parse_request(&bytes, &HttpLimits::default());
    }

    /// Feeding a valid request one prefix at a time never produces an
    /// error before the request is complete, and parses at the end.
    #[test]
    fn prefixes_of_a_valid_request_never_error(cut in 0usize..44) {
        let raw: &[u8] = b"GET /arrivals/1?route=0 HTTP/1.1\r\nHost: x\r\n\r\n";
        prop_assert_eq!(raw.len(), 45);
        let prefix = &raw[..cut.min(raw.len())];
        let parsed = parse_request(prefix, &HttpLimits::default());
        prop_assert!(matches!(parsed, Ok(None)), "prefix {:?}", cut);
        let full = parse_request(raw, &HttpLimits::default());
        prop_assert!(matches!(full, Ok(Some((_, 45)))));
    }

    /// Tight limits change the verdict, never the safety: any byte
    /// soup against tiny limits still returns instead of panicking.
    #[test]
    fn parser_never_panics_under_tiny_limits(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let limits = HttpLimits { max_request_line: 8, max_header_bytes: 8, max_headers: 1 };
        let _ = parse_request(&bytes, &limits);
    }
}
