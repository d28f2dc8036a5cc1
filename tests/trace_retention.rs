//! Flight-recorder retention invariants.
//!
//! Two properties the tail-sampler must hold under any workload: the
//! retention buffer never exceeds its byte cap (it sheds oldest-first
//! instead of growing), and in a deterministic replay every
//! anomaly-flagged ingest is retained exactly once — anomaly retention
//! is a pure function of the report stream, not of timing.

use std::sync::Arc;

use proptest::prelude::*;
use wilocator::core::{BusKey, ScanReport, WiLocator, WiLocatorConfig};
use wilocator::geo::Point;
use wilocator::obs::{MonotonicClock, SteppingClock, TraceConfig, Tracer};
use wilocator::rf::{AccessPoint, ApId, Bssid, HomogeneousField, Reading, Scan, SignalField};
use wilocator::road::{NetworkBuilder, Route, RouteId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The retention buffer's byte accounting never exceeds the cap, no
    /// matter how spans and fields are shaped; the per-shard rings never
    /// exceed their slot capacity either.
    #[test]
    fn retention_never_exceeds_byte_cap(
        cap_kb in 1usize..8,
        trace_shapes in proptest::collection::vec((1usize..6, 0usize..5), 1..40),
    ) {
        let config = TraceConfig {
            retained_bytes: cap_kb * 1024,
            ring_capacity: 4,
            ..TraceConfig::default()
        };
        let tracer = Tracer::new(config, 2, Arc::new(SteppingClock::new(0, 7)));
        for (i, &(spans, fields)) in trace_shapes.iter().enumerate() {
            let ctx = tracer.start_root_span(i % 2, "ingest").expect("enabled");
            ctx.flag_anomaly("unknown_bus");
            for s in 0..spans {
                let span = ctx.child_span("stage");
                for f in 0..fields {
                    span.field("k", (s * 31 + f) as u64);
                }
            }
            drop(ctx);
            prop_assert!(
                tracer.retention_bytes() <= config.retained_bytes,
                "retention {} exceeds cap {}",
                tracer.retention_bytes(),
                config.retained_bytes
            );
            prop_assert!(tracer.ring_lens().iter().all(|&l| l <= config.ring_capacity));
        }
        // The byte gauge agrees with the retained set's own accounting.
        let accounted: usize = tracer.retained().iter().map(|t| t.approx_bytes()).sum();
        prop_assert_eq!(tracer.retention_bytes(), accounted);
    }
}

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
    let server = WiLocator::new_with_clocks(
        &field,
        vec![route],
        WiLocatorConfig::default(),
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

/// A deterministic replay that interleaves healthy ingests with known
/// anomalies: every anomaly-flagged ingest must land in the retained set
/// exactly once, and nothing healthy may be retained as an anomaly.
#[test]
fn every_anomalous_ingest_is_retained_exactly_once() {
    let (server, field) = scene();
    let route = server.routes()[0].clone();
    server.register_bus(BusKey(1), RouteId(0)).expect("served");

    let mut expected_unknown = 0u64;
    for k in 0..12u32 {
        let t = f64::from(k) * 10.0;
        server
            .ingest(&report(&field, &route, t * 6.0, t, 1))
            .expect("registered");
        if k.is_multiple_of(3) {
            // Unregistered bus: the directory rejects it, the recorder
            // keeps an anomaly-flagged root span.
            assert!(server.ingest(&report(&field, &route, 0.0, t, 77)).is_err());
            expected_unknown += 1;
        }
    }
    // A batch with one more unknown bus mixed in.
    let mut batch: Vec<ScanReport> = (12..16u32)
        .map(|k| {
            let t = f64::from(k) * 10.0;
            report(&field, &route, (t * 6.0).min(790.0), t, 1)
        })
        .collect();
    batch.push(report(&field, &route, 0.0, 160.0, 88));
    expected_unknown += 1;
    assert_eq!(
        server
            .ingest_batch(&batch)
            .iter()
            .filter(|r| r.is_err())
            .count(),
        1
    );

    let retained = server.tracer().retained();
    let unknown: Vec<_> = retained
        .iter()
        .filter(|t| t.anomaly == Some("unknown_bus"))
        .collect();
    assert_eq!(
        unknown.len() as u64,
        expected_unknown,
        "each unknown-bus ingest retained once"
    );
    // Exactly once: no trace id appears twice in the retained set.
    let mut ids: Vec<u64> = retained.iter().map(|t| t.trace_id).collect();
    let before = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), before, "retained set holds no duplicate traces");
    // Healthy ingests were not retained as anomalies, and the metrics
    // ledger agrees with the retained set.
    let anomalous = retained.iter().filter(|t| t.anomaly.is_some()).count() as u64;
    let snap = server.metrics();
    assert_eq!(
        snap.counter("wilocator_trace_retained_anomaly_total"),
        anomalous
    );
    // Replaying the identical stream retains the identical anomaly set.
    let (server2, field2) = scene();
    let route2 = server2.routes()[0].clone();
    server2.register_bus(BusKey(1), RouteId(0)).expect("served");
    for k in 0..12u32 {
        let t = f64::from(k) * 10.0;
        server2
            .ingest(&report(&field2, &route2, t * 6.0, t, 1))
            .expect("registered");
        if k.is_multiple_of(3) {
            assert!(server2
                .ingest(&report(&field2, &route2, 0.0, t, 77))
                .is_err());
        }
    }
    let mut batch2: Vec<ScanReport> = (12..16u32)
        .map(|k| {
            let t = f64::from(k) * 10.0;
            report(&field2, &route2, (t * 6.0).min(790.0), t, 1)
        })
        .collect();
    batch2.push(report(&field2, &route2, 0.0, 160.0, 88));
    server2.ingest_batch(&batch2);
    let ids2: Vec<u64> = server2
        .tracer()
        .retained()
        .iter()
        .filter(|t| t.anomaly.is_some())
        .map(|t| t.trace_id)
        .collect();
    let ids1: Vec<u64> = retained
        .iter()
        .filter(|t| t.anomaly.is_some())
        .map(|t| t.trace_id)
        .collect();
    assert_eq!(ids1, ids2, "anomaly retention is replay-deterministic");
}
