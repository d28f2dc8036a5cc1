//! Golden fixture for the `/debug` observability endpoints: a
//! deterministic single-threaded replay on stepping clocks must render
//! byte-identical `/debug/timeseries`, `/debug/quality` and
//! `/debug/slo` bodies, run to run and commit to commit — and every
//! body must round-trip through the `tracedump dash` parser.
//!
//! Bless after an intentional format change with
//! `WILOCATOR_BLESS=1 cargo test --test debug_golden`.

mod common;

use std::sync::Arc;

use common::{assert_matches_fixture, seeded_day, to_report};
use wilocator::core::{BusKey, ScanReport, WiLocator, WiLocatorConfig};
use wilocator::obs::SteppingClock;
use wilocator::serve::{debug_dump, parse_request, respond, HttpLimits, Request};
use wilocator_tracedump::dash::{parse_dump, render_dashboard};

fn get(target: &str) -> Request {
    let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
    let (request, _) = parse_request(raw.as_bytes(), &HttpLimits::default())
        .expect("well-formed request line")
        .expect("complete request");
    request
}

/// Replays one seeded morning sequentially on stepping clocks — span
/// stamps, staleness and publish cadence are all functions of the
/// replay, so the debug bodies are exact.
fn replayed_server() -> WiLocator {
    let (city, plan) = seeded_day(11);
    let server = WiLocator::new_with_clocks(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
        Arc::new(SteppingClock::new(0, 250)),
        Arc::new(SteppingClock::new(1_000, 125)),
    );
    for (trip, route) in plan.trip_routes() {
        server
            .register_bus(BusKey(trip as u64), route)
            .expect("served route");
    }
    let reports: Vec<ScanReport> = plan.events.iter().map(to_report).collect();
    for chunk in reports.chunks(32) {
        for result in server.ingest_batch(chunk) {
            result.expect("registered bus");
        }
    }
    server.train(10.0 * 3_600.0);
    server.publish_snapshot(10.0 * 3_600.0);
    server
}

const TARGETS: [&str; 4] = [
    "/debug/timeseries",
    "/debug/quality",
    "/debug/quality?route=0",
    "/debug/slo",
];

fn transcript(server: &WiLocator) -> String {
    let mut out = String::new();
    for target in TARGETS {
        let response = respond(server, &get(target));
        assert_eq!(response.status, 200, "GET {target}: {}", response.body);
        // Every body must be parseable by the dashboard's strict schema
        // reader — the golden only records documents the tooling accepts.
        parse_dump(&response.body)
            .unwrap_or_else(|e| panic!("GET {target}: rejected by tracedump dash: {e}"));
        out.push_str(&format!(
            "GET {target}\n{} {}\n{}\n\n",
            response.status, response.content_type, response.body
        ));
    }
    out
}

#[test]
fn debug_responses_match_golden() {
    let server = replayed_server();
    assert_matches_fixture(&transcript(&server), "debug_golden.txt");
}

#[test]
fn debug_responses_are_replay_deterministic() {
    let first = transcript(&replayed_server());
    let second = transcript(&replayed_server());
    assert_eq!(
        first, second,
        "same seed, same replay — debug bodies must not drift"
    );
}

#[test]
fn combined_dump_renders_deterministically() {
    let server = replayed_server();
    let dump = debug_dump(&server);
    let dash = parse_dump(&dump).expect("combined dump parses");
    assert!(dash.epoch > 0, "replay published snapshots");
    assert!(
        !dash.series.is_empty() && !dash.detectors.is_empty(),
        "dump carries all sections"
    );
    let rendered = render_dashboard(&dash);
    assert_matches_fixture(&rendered, "debug_dashboard_golden.txt");
}
