//! `tracedump`: inspect what the server exports.
//!
//! ```text
//! tracedump <trace.json | -> [--top K]
//! tracedump dash <dump.json | -> [--check]
//! tracedump dash --fetch HOST:PORT [--check]
//! ```
//!
//! Trace mode prints the slowest stages, per-route latency breakdowns
//! and anomaly summary of a flight-recorder export. `dash` renders the
//! quality plane's `/debug` JSON as a deterministic text dashboard: from
//! a combined dump (what `vancouver_day --debug-out` writes), or with
//! `--fetch` from the three `/debug` endpoints of a live server, merged.
//! `--check` validates the document and prints a one-line summary
//! instead of the dashboard — CI pipes replay dumps through it as a
//! schema gate. `-` reads the input from stdin.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

use wilocator_tracedump::dash::{parse_dump, render_dashboard, Dashboard};
use wilocator_tracedump::{parse_trace, render_report, validate_nesting};

const USAGE: &str = "usage: tracedump <trace.json | -> [--top K]
       tracedump dash <dump.json | -> [--check]
       tracedump dash --fetch HOST:PORT [--check]";

/// How long `--fetch` waits to connect, and then for each read or write.
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);

/// The most bytes `--fetch` reads of one answer, head included.
const FETCH_MAX_BYTES: u64 = 4 << 20;

/// Why a run ended without printing its report.
enum Stop {
    /// `--help`: usage on stderr, exit 0.
    Help,
    /// Bad arguments: the problem and usage on stderr, exit 1.
    Usage(String),
    /// Unreadable or invalid input: the message on stderr, exit 1.
    Failed(String),
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let run = if args.next_if_eq("dash").is_some() {
        dash(args)
    } else {
        trace(args)
    };
    exit_code(run)
}

fn trace(mut args: impl Iterator<Item = String>) -> Result<(), Stop> {
    let mut path: Option<String> = None;
    let mut top_k = 10usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(k)) => top_k = k,
                _ => return Err(usage("--top takes an integer")),
            },
            "--help" | "-h" => return Err(Stop::Help),
            flag if is_flag(flag) => return Err(usage(format!("unknown flag `{flag}`"))),
            _ if path.is_none() => path = Some(arg),
            _ => return Err(usage("more than one input file")),
        }
    }
    let path = path.ok_or_else(|| usage("no input file"))?;
    let events = read_input(&path)
        .and_then(|text| parse_trace(&text))
        .map_err(|e| failed(&path, e))?;
    validate_nesting(&events).map_err(|e| failed(&path, format!("malformed span tree: {e}")))?;
    print!("{}", render_report(&events, top_k));
    Ok(())
}

fn dash(mut args: impl Iterator<Item = String>) -> Result<(), Stop> {
    let mut input: Option<String> = None;
    let mut fetch: Option<String> = None;
    let mut check = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--fetch" => match args.next() {
                Some(addr) => fetch = Some(addr),
                None => return Err(usage("--fetch takes HOST:PORT")),
            },
            "--help" | "-h" => return Err(Stop::Help),
            flag if is_flag(flag) => return Err(usage(format!("unknown flag `{flag}`"))),
            _ if input.is_none() => input = Some(arg),
            _ => return Err(usage("more than one input")),
        }
    }
    let dash = match (input, fetch) {
        (Some(_), Some(_)) => return Err(usage("give a file or --fetch, not both")),
        (None, None) => return Err(usage("no input")),
        (Some(path), None) => read_input(&path)
            .and_then(|text| parse_dump(&text))
            .map_err(|e| failed(&path, e))?,
        (None, Some(addr)) => fetch_dashboard(&addr).map_err(|e| failed(&addr, e))?,
    };
    if check {
        let fired = dash.fired();
        let fired = if fired.is_empty() {
            "none fired".to_string()
        } else {
            format!("fired: {}", fired.join(","))
        };
        println!(
            "tracedump: ok — epoch {}, {} series, {} routes, {} detectors ({fired})",
            dash.epoch,
            dash.series.len(),
            dash.routes.len(),
            dash.detectors.len(),
        );
    } else {
        print!("{}", render_dashboard(&dash));
    }
    Ok(())
}

/// Whether `arg` reads as a flag: dash-prefixed, and not `-` (stdin).
fn is_flag(arg: &str) -> bool {
    arg.starts_with('-') && arg != "-"
}

fn usage(problem: impl Into<String>) -> Stop {
    Stop::Usage(problem.into())
}

fn failed(input: &str, error: impl std::fmt::Display) -> Stop {
    Stop::Failed(format!("{input}: {error}"))
}

/// Turns either mode's outcome into its stderr text and exit code.
fn exit_code(run: Result<(), Stop>) -> ExitCode {
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Help) => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(Stop::Usage(problem)) => {
            eprintln!("tracedump: {problem}\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(Stop::Failed(message)) => {
            eprintln!("tracedump: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Reads the whole input: the file at `path`, or stdin for `-`.
fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("stdin: {e}"))?;
        return Ok(text);
    }
    std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))
}

/// One `Connection: close` HTTP exchange; returns the response body.
/// A peer that does not answer within [`FETCH_TIMEOUT`] per connect,
/// read or write, or that sends more than [`FETCH_MAX_BYTES`], fails it.
fn http_get(addr: &str, target: &str) -> Result<String, String> {
    let connect = |e: std::io::Error| format!("connect {addr}: {e}");
    let socket = addr
        .to_socket_addrs()
        .map_err(connect)?
        .next()
        .ok_or_else(|| format!("connect {addr}: no address"))?;
    let mut stream = TcpStream::connect_timeout(&socket, FETCH_TIMEOUT).map_err(connect)?;
    let get = |e: std::io::Error| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            format!("GET {target}: no answer within {FETCH_TIMEOUT:?}")
        }
        _ => format!("GET {target}: {e}"),
    };
    stream.set_read_timeout(Some(FETCH_TIMEOUT)).map_err(get)?;
    stream.set_write_timeout(Some(FETCH_TIMEOUT)).map_err(get)?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: wilocator\r\nConnection: close\r\n\r\n"
    )
    .map_err(get)?;
    let mut raw = Vec::new();
    stream
        .take(FETCH_MAX_BYTES + 1)
        .read_to_end(&mut raw)
        .map_err(get)?;
    if raw.len() as u64 > FETCH_MAX_BYTES {
        return Err(format!(
            "GET {target}: answer longer than {FETCH_MAX_BYTES} bytes"
        ));
    }
    let raw = String::from_utf8(raw).map_err(|_| format!("GET {target}: non-UTF-8 response"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("GET {target}: malformed response"))?;
    let status = head.split(' ').nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("GET {target}: HTTP {status}: {body}"));
    }
    Ok(body.to_string())
}

/// Pulls `/debug/slo`, `/debug/quality` and `/debug/timeseries` and
/// merges them: stamps from the SLO body (it carries staleness too),
/// sections from their own bodies.
fn fetch_dashboard(addr: &str) -> Result<Dashboard, String> {
    let mut dash = parse_dump(&http_get(addr, "/debug/slo")?)?;
    dash.routes = parse_dump(&http_get(addr, "/debug/quality")?)?.routes;
    dash.series = parse_dump(&http_get(addr, "/debug/timeseries")?)?.series;
    Ok(dash)
}
