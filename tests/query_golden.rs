//! Golden query-response fixture: a deterministic single-threaded replay
//! rendered through the serve layer must produce byte-identical JSON,
//! run to run and commit to commit.
//!
//! Bless the fixture after an intentional format change with
//! `WILOCATOR_BLESS=1 cargo test --test query_golden`.

mod common;

use common::{assert_matches_fixture, seeded_day, to_report};
use wilocator::core::{ScanReport, WiLocator, WiLocatorConfig};
use wilocator::serve::{parse_request, respond, HttpLimits, Request};

fn request(method: &str, target: &str) -> Request {
    let raw = format!("{method} {target} HTTP/1.1\r\n\r\n");
    let (request, _) = parse_request(raw.as_bytes(), &HttpLimits::default())
        .expect("well-formed request line")
        .expect("complete request");
    request
}

/// Replays one seeded morning single-threaded — ingest in plan order,
/// batches of 32, then train — *without* finishing the buses, so
/// `/position` still answers for them.
fn replayed_server() -> WiLocator {
    let (city, plan) = seeded_day(11);
    let server = WiLocator::new(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
    );
    for (trip, route) in plan.trip_routes() {
        server
            .register_bus(wilocator::core::BusKey(trip as u64), route)
            .expect("served route");
    }
    let reports: Vec<ScanReport> = plan.events.iter().map(to_report).collect();
    for chunk in reports.chunks(32) {
        for result in server.ingest_batch(chunk) {
            result.expect("registered bus");
        }
    }
    server.train(10.0 * 3_600.0);
    server
}

/// The fixed battery of requests the fixture records, as (method,
/// target): every data endpoint, the route filter, each 4xx shape and
/// the long-poll's immediate answers.
fn battery(server: &WiLocator) -> Vec<(&'static str, String)> {
    let get = |target: &str| ("GET", target.to_string());
    let mut battery: Vec<_> = [
        "/arrivals/0",
        "/arrivals/1",
        "/arrivals/1?route=0",
        "/arrivals/3",
        "/traffic/0",
        "/traffic/1",
        "/traffic/2",
        // 4xx shapes are part of the contract too.
        "/arrivals/99",
        "/traffic/9",
        "/position/99999",
        "/position/abc",
        "/arrivals/1?route=x",
        "/nope/1",
    ]
    .into_iter()
    .map(get)
    .collect();
    // Snapshot iteration is ordered, so "the first three buses" is a
    // deterministic pick.
    for bus in server.query_snapshot().buses.keys().take(3) {
        battery.push(get(&format!("/position/{}", bus.0)));
    }
    battery.push(("POST", "/healthz".to_string()));
    battery.extend(
        [
            "/arrivals/abc",
            "/traffic/abc",
            "/subscribe",
            // The replay has published past epoch 0: this answers at once.
            "/subscribe?epoch=0&timeout_ms=0",
        ]
        .into_iter()
        .map(get),
    );
    battery
}

fn transcript(server: &WiLocator) -> String {
    let mut out = String::new();
    for (method, target) in battery(server) {
        let response = respond(server, &request(method, &target));
        out.push_str(&format!(
            "{method} {target}\n{} {}\n{}\n\n",
            response.status, response.content_type, response.body
        ));
    }
    out
}

#[test]
fn query_responses_match_golden() {
    let server = replayed_server();
    assert_matches_fixture(&transcript(&server), "query_golden.txt");
}

#[test]
fn query_responses_are_replay_deterministic() {
    let first = transcript(&replayed_server());
    let second = transcript(&replayed_server());
    assert_eq!(
        first, second,
        "same seed, same replay — response bytes must not drift"
    );
}
