//! End-to-end checks of the `tracedump` binary: both modes' exit codes,
//! the reports on stdout, and usage and input errors on stderr.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wilocator_obs::{SteppingClock, TraceConfig, Tracer};
use wilocator_tracedump::dash::{parse_dump, render_dashboard};

const DUMP: &str = r#"{"epoch":3,"as_of_s":120.5,"evaluated_at_s":120,"staleness_s":0.25,
    "series":[{"family":"wilocator_reports_total","kind":"counter","points":[
      {"start_us":0,"delta":10,"rate_per_s":0.5}]}],
    "routes":[],
    "detectors":[{"name":"dead_reckon_fraction","fired":true,"short_burn":1.5,
      "long_burn":1.2,"threshold":0.25,"short_events":30,"long_events":90,
      "exemplar_trace_ids":[255]}]}"#;

const CHECK_LINE: &str =
    "tracedump: ok — epoch 3, 1 series, 0 routes, 1 detectors (fired: dead_reckon_fraction)\n";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracedump"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("run tracedump")
}

/// Writes `text` to a file of this test binary's scratch directory.
fn scratch_file(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write scratch file");
    path.to_string_lossy().into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn trace_mode_reports_a_recorder_export() {
    let tracer = Tracer::new(
        TraceConfig::default(),
        2,
        Arc::new(SteppingClock::new(0, 3)),
    );
    {
        let ctx = tracer.start_root_span(1, "ingest").expect("enabled");
        ctx.field("route", 0u64);
        drop(ctx.child_span("track"));
        ctx.flag_anomaly("dead_reckoned");
    }
    let path = scratch_file("cli-trace.json", &tracer.chrome_trace_json());
    let out = run(&[&path, "--top", "1"]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout(&out).starts_with("tracedump: 2 spans across 1 traces\n"),
        "{out:?}"
    );
}

#[test]
fn dash_mode_renders_and_checks_a_file() {
    let path = scratch_file("cli-dump.json", DUMP);
    let out = run(&["dash", &path]);
    assert!(out.status.success(), "{out:?}");
    let dash = parse_dump(DUMP).expect("valid dump");
    assert_eq!(stdout(&out), render_dashboard(&dash));

    let out = run(&["dash", &path, "--check"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout(&out), CHECK_LINE);
}

#[test]
fn dash_mode_reads_stdin() {
    let mut child = bin()
        .args(["dash", "-", "--check"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tracedump");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(DUMP.as_bytes())
        .expect("write dump");
    let out = child.wait_with_output().expect("wait for tracedump");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout(&out), CHECK_LINE);
}

#[test]
fn malformed_dump_exits_one_naming_the_file() {
    let path = scratch_file("cli-malformed.json", r#"{"as_of_s":0}"#);
    let out = run(&["dash", &path, "--check"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout(&out).is_empty(), "{out:?}");
    let err = stderr(&out);
    assert!(err.contains(&path) && err.contains("epoch"), "{err}");
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    for args in [&[][..], &["--bogus"], &["dash", "--bogus"], &["dash"]] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}: {out:?}");
        assert!(
            stderr(&out).contains("usage: tracedump"),
            "{args:?}: {out:?}"
        );
    }
}

/// Runs `dash --fetch` against a one-connection local peer that `peer`
/// drives: it must exit 1 naming the peer and `why`, within the binary's
/// 5 s fetch timeout plus a margin.
fn fetch_fails_against(peer: fn(TcpStream), why: &str) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let peer = std::thread::spawn(move || peer(listener.accept().expect("accept").0));
    let start = Instant::now();
    let out = run(&["dash", "--fetch", &addr]);
    let took = start.elapsed();
    peer.join().expect("peer thread");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = stderr(&out);
    assert!(err.contains(&addr) && err.contains(why), "{err}");
    assert!(took < Duration::from_secs(5 + 10), "took {took:?}");
}

#[test]
fn fetch_gives_up_on_a_silent_peer() {
    // Reads the request and everything after it, never answers, and
    // ends when the client hangs up.
    fetch_fails_against(
        |mut stream| {
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
        },
        "no answer within 5s",
    );
}

#[test]
fn fetch_caps_an_endless_answer() {
    // Sends until the client hangs up.
    fetch_fails_against(
        |mut stream| {
            let chunk = [b'x'; 64 << 10];
            while stream.write_all(&chunk).is_ok() {}
        },
        "answer longer than",
    );
}
