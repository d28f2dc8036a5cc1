//! End-to-end quality-plane degradation: a healthy replay goes bad
//! mid-stream (AP death plus device RSS bias), and the live quality
//! plane must notice — per-route ETA-error quantiles rise in the
//! published sections, and a drift detector fires carrying at least one
//! retained exemplar trace id, all observed through the `/debug/slo`
//! JSON a rider-plane client would see.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wilocator::core::{BusKey, QualitySections, ScanReport, WiLocator, WiLocatorConfig};
use wilocator::obs::SteppingClock;
use wilocator::road::RouteId;
use wilocator::serve::{parse_request, respond, HttpLimits};
use wilocator::sim::{
    sense_trip, simple_street, simulate_trip, BusConfig, CityConfig, ScanBundle, SensingConfig,
    TrafficConfig, TrafficModel,
};
use wilocator_tracedump::dash::parse_dump;

const T0: f64 = 8.0 * 3_600.0;

/// Dense sensing so one bus clears the detectors' `min_events` floor
/// in every 60 s evaluation window.
fn sensing() -> SensingConfig {
    SensingConfig {
        scan_period_s: 2.0,
        period_jitter_s: 0.2,
        ..SensingConfig::default()
    }
}

/// Replays one trip; from `switch_t` on, the stream degrades: even
/// reports lose all WiFi (dead APs → empty scans, the tracker dead
/// reckons), odd reports keep only every fifth AP and read it 25 dB
/// hot (device bias → signature mismatches).
fn replay(
    server: &WiLocator,
    bundles: &[ScanBundle],
    switch_t: f64,
) -> (f64, Arc<QualitySections>) {
    server.register_bus(BusKey(7), RouteId(0)).expect("served");
    let mut mid: Option<Arc<QualitySections>> = None;
    let mut last_publish = f64::NEG_INFINITY;
    let mut last_t = T0;
    for (i, b) in bundles.iter().enumerate() {
        let mut report = ScanReport {
            bus: BusKey(7),
            time_s: b.time_s,
            scans: b.scans.clone(),
        };
        if b.time_s >= switch_t {
            if mid.is_none() {
                // The last healthy sections, straight off the snapshot.
                mid = Some(server.query_snapshot().quality.clone());
            }
            for scan in &mut report.scans {
                if i % 2 == 0 {
                    scan.readings.clear();
                } else {
                    scan.readings.retain(|r| r.ap.0 % 5 == 0);
                    for r in &mut scan.readings {
                        r.rss_dbm += 25;
                    }
                }
            }
        }
        server.ingest(&report).expect("registered");
        if b.time_s - last_publish >= 10.0 {
            server.publish_snapshot(b.time_s);
            last_publish = b.time_s;
        }
        last_t = b.time_s;
    }
    server.publish_snapshot(last_t);
    (last_t, mid.expect("stream reached the switch point"))
}

#[test]
fn mid_replay_degradation_raises_quantiles_and_fires_a_detector() {
    let city = simple_street(4_000.0, 6, 41, &CityConfig::default());
    let server = WiLocator::new_with_clocks(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
        Arc::new(SteppingClock::new(0, 250)),
        Arc::new(SteppingClock::new(1_000, 125)),
    );
    let route = city.routes[0].clone();
    let traffic = TrafficModel::new(&city.network, TrafficConfig::default(), 23);
    let mut rng = StdRng::seed_from_u64(23);
    let tr = simulate_trip(&route, &traffic, T0, &BusConfig::default(), &mut rng);
    let idx = city.ap_index();
    let bundles = sense_trip(&city, &tr, 0, &sensing(), &idx, &mut rng);
    assert!(bundles.len() > 200, "trip too short: {}", bundles.len());

    let switch_t = (bundles[0].time_s + bundles[bundles.len() - 1].time_s) / 2.0;
    let (_, mid) = replay(&server, &bundles, switch_t);
    let end = server.query_snapshot().quality.clone();

    // ETA accuracy degrades live: at the longer horizons the absolute
    // error quantile widens once the stream goes bad.
    let route0 = RouteId(0);
    let healthy = &mid
        .routes
        .get(&route0)
        .expect("healthy confirmations")
        .horizons;
    let degraded = &end
        .routes
        .get(&route0)
        .expect("degraded confirmations")
        .horizons;
    assert!(
        healthy[0].confirmed_total > 0 && degraded[2].confirmed_total > healthy[2].confirmed_total,
        "ledger must confirm through both phases: {healthy:?} {degraded:?}"
    );
    assert!(
        degraded[2].p90_abs_s > healthy[2].p90_abs_s
            && degraded[2].mean_abs_error_s > 1.5 * healthy[2].mean_abs_error_s,
        "degradation must widen the live error quantiles: healthy {:?} vs degraded {:?}",
        healthy[2],
        degraded[2]
    );

    // A drift detector fires, and its published status carries retained
    // exemplar trace ids.
    let fired: Vec<_> = end.slo.iter().filter(|d| d.fired).collect();
    assert!(!fired.is_empty(), "no detector fired: {:?}", end.slo);
    assert!(
        end.slo
            .iter()
            .any(|d| d.name == "dead_reckon_fraction" && d.fired),
        "dead-reckon drift must be detected: {:?}",
        end.slo
    );
    assert!(
        fired.iter().any(|d| !d.exemplar_trace_ids.is_empty()),
        "a fired detector must carry exemplar trace ids: {fired:?}"
    );
    // None of that fired during the healthy half.
    assert!(
        mid.slo.iter().all(|d| !d.fired),
        "healthy phase must be quiet: {:?}",
        mid.slo
    );

    // The same verdict must reach a rider-plane client: fetch /debug/slo
    // through the serve layer and re-check from the parsed JSON.
    let raw = "GET /debug/slo HTTP/1.1\r\n\r\n";
    let (request, _) = parse_request(raw.as_bytes(), &HttpLimits::default())
        .expect("well-formed")
        .expect("complete");
    let response = respond(&server, &request);
    assert_eq!(response.status, 200);
    let dash = parse_dump(&response.body).expect("schema-valid /debug/slo");
    let detector = dash
        .detectors
        .iter()
        .find(|d| d.name == "dead_reckon_fraction")
        .expect("detector published");
    assert!(detector.fired, "published JSON must show the firing");
    assert!(
        !detector.exemplar_trace_ids.is_empty(),
        "published JSON must carry >=1 retained exemplar trace id"
    );
}
