//! Flight-recorder golden: a deterministic replay — fixed scene, stepping
//! clock, single-threaded ingestion — must reproduce the checked-in trace
//! text dump byte-for-byte, and the Chrome export of the same replay must
//! parse as schema-valid, well-nested trace-event JSON.
//!
//! Determinism rests on three legs: trace ids come from one atomic
//! counter driven from one thread, span timestamps come from a
//! [`SteppingClock`], and the report stream is a fixed function of the
//! scene. Regenerate the fixture after an intentional change with
//! `WILOCATOR_BLESS=1 cargo test --test trace_golden`.

use std::sync::Arc;

use wilocator::core::{BusKey, ScanReport, WiLocator, WiLocatorConfig};
use wilocator::geo::Point;
use wilocator::obs::{MonotonicClock, SteppingClock, TraceConfig};
use wilocator::rf::{AccessPoint, ApId, Bssid, HomogeneousField, Reading, Scan, SignalField};
use wilocator::road::{NetworkBuilder, Route, RouteId, StopId};
use wilocator_tracedump::{parse_trace, validate_nesting, Json};

/// One 800 m street, one route, APs alternating either side — the same
/// scene the server unit tests drive, with a stepping span clock.
fn scene() -> (WiLocator, HomogeneousField) {
    let mut b = NetworkBuilder::new();
    let n0 = b.add_node(Point::new(0.0, 0.0));
    let n1 = b.add_node(Point::new(400.0, 0.0));
    let n2 = b.add_node(Point::new(800.0, 0.0));
    let e0 = b.add_edge(n0, n1, None).expect("distinct nodes");
    let e1 = b.add_edge(n1, n2, None).expect("distinct nodes");
    let net = b.build();
    let mut route = Route::new(RouteId(0), "9", vec![e0, e1], &net).expect("connected street");
    route.add_stops_evenly(3);
    let mut aps = Vec::new();
    let mut x = 40.0;
    let mut i = 0u32;
    while x < 800.0 {
        aps.push(AccessPoint::new(
            ApId(i),
            Point::new(x, if i.is_multiple_of(2) { 15.0 } else { -15.0 }),
        ));
        i += 1;
        x += 80.0;
    }
    let field = HomogeneousField::new(aps);
    // Full-detail tracing: the golden pins every child span, not just
    // the sampled subset the production default keeps.
    let config = WiLocatorConfig {
        trace: TraceConfig::detailed(),
        ..WiLocatorConfig::default()
    };
    let server = WiLocator::new_with_clocks(
        &field,
        vec![route],
        config,
        Arc::new(SteppingClock::new(0, 1)),
        Arc::new(MonotonicClock::new()),
    );
    (server, field)
}

fn report(field: &HomogeneousField, route: &Route, s: f64, t: f64, bus: u64) -> ScanReport {
    let p = route.point_at(s);
    let readings: Vec<Reading> = field
        .detectable_at(p, -90.0)
        .into_iter()
        .map(|(ap, rss)| Reading {
            ap,
            bssid: Bssid::from_ap_id(ap),
            rss_dbm: rss.round() as i32,
        })
        .collect();
    ScanReport {
        bus: BusKey(bus),
        time_s: t,
        scans: vec![Scan::new(t, readings)],
    }
}

/// The fixed replay: two buses (one via single ingests, one via a batch),
/// one unknown-bus rejection, one arrival prediction.
fn replay() -> WiLocator {
    let (server, field) = scene();
    let route = server.routes()[0].clone();
    server.register_bus(BusKey(1), RouteId(0)).expect("served");
    server.register_bus(BusKey(2), RouteId(0)).expect("served");
    for k in 0..6u32 {
        let t = f64::from(k) * 10.0;
        server
            .ingest(&report(&field, &route, t * 8.0, t, 1))
            .expect("registered");
    }
    let batch: Vec<ScanReport> = (0..4u32)
        .map(|k| report(&field, &route, f64::from(k) * 40.0, f64::from(k) * 10.0, 2))
        .collect();
    for result in server.ingest_batch(&batch) {
        result.expect("registered");
    }
    assert!(server
        .ingest(&report(&field, &route, 0.0, 0.0, 99))
        .is_err());
    server
        .predict_arrival(BusKey(1), StopId(2))
        .expect("stop ahead of bus 1");
    server
}

#[test]
fn deterministic_replay_reproduces_golden_trace_dump() {
    let got = replay().trace_text_dump();
    assert!(!got.is_empty(), "replay recorded traces");

    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace_golden.txt");
    if std::env::var_os("WILOCATOR_BLESS").is_some() {
        std::fs::write(&fixture, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&fixture).expect(
        "fixture missing — run WILOCATOR_BLESS=1 cargo test --test trace_golden to create it",
    );
    assert_eq!(
        got, want,
        "trace dump drifted from golden — bless the fixture if intentional"
    );
}

#[test]
fn replay_is_stable_across_runs() {
    assert_eq!(
        replay().trace_text_dump(),
        replay().trace_text_dump(),
        "two identical replays must dump identically"
    );
}

#[test]
fn chrome_export_is_schema_valid_and_nested() {
    let server = replay();
    let events = parse_trace(&server.trace_chrome_json()).expect("export parses");
    assert!(!events.is_empty());
    validate_nesting(&events).expect("spans nest");
    // Every event is a complete span with the pinned keys (enforced by
    // the parser) and the roots carry the structured ingest fields.
    let roots: Vec<_> = events
        .iter()
        .filter(|e| e.name == "ingest" && e.arg("outcome").is_some())
        .collect();
    assert!(!roots.is_empty(), "annotated ingest roots exported");
    assert!(roots
        .iter()
        .all(|e| e.arg("bus").and_then(Json::as_u64).is_some()));
    // The unknown-bus rejection is present and flagged.
    assert!(events
        .iter()
        .any(|e| e.arg("anomaly").and_then(Json::as_str) == Some("unknown_bus")));
    // The per-bus timeline finds the batch-ingested bus.
    assert_eq!(server.timeline(BusKey(2)).len(), 4);
}
