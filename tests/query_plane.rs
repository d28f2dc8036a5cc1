//! Query-plane behaviour: staleness bounds under a paused publisher,
//! publish-after-ingest/train visibility, and the read path's
//! independence from shard ingest locks (the no-reader-blocking
//! guarantee the snapshot layer exists to provide).

mod common;

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use common::{seeded_day, to_report};
use wilocator::core::{BusKey, ScanReport, WiLocator, WiLocatorConfig};
use wilocator::obs::{Clock, SteppingClock};
use wilocator::serve::{parse_request, respond, HttpLimits, Request};
use wilocator_tracedump::parse_json;

fn get(target: &str) -> Request {
    let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
    let (request, _) = parse_request(raw.as_bytes(), &HttpLimits::default())
        .expect("well-formed request line")
        .expect("complete request");
    request
}

fn register_all(server: &WiLocator, plan: &wilocator::sim::LoadPlan) {
    for (trip, route) in plan.trip_routes() {
        server
            .register_bus(BusKey(trip as u64), route)
            .expect("served route");
    }
}

fn ingest_slice(server: &WiLocator, reports: &[ScanReport]) {
    for chunk in reports.chunks(32) {
        for result in server.ingest_batch(chunk) {
            result.expect("registered bus");
        }
    }
}

/// One report at a time through `ingest`, which never publishes.
fn ingest_each(server: &WiLocator, reports: &[ScanReport]) {
    for report in reports {
        server.ingest(report).expect("registered bus");
    }
}

/// Paused publisher: readers keep getting the last published epoch while
/// ingest runs on, the staleness reading grows, and a single resumed
/// publish cycle surfaces a fresh epoch. Reports go through `ingest`,
/// which leaves publication to the caller.
#[test]
fn paused_publisher_serves_last_epoch_within_staleness_bound() {
    let (city, plan) = seeded_day(7);
    // Deterministic clocks: spans on one, staleness/latency on the other.
    let span_clock: Arc<dyn Clock> = Arc::new(SteppingClock::new(0, 1));
    let query_clock: Arc<dyn Clock> = Arc::new(SteppingClock::new(1_000, 1_000));
    let server = WiLocator::new_with_clocks(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
        span_clock,
        query_clock,
    );
    register_all(&server, &plan);
    let reports: Vec<ScanReport> = plan.events.iter().map(to_report).collect();
    let mid = reports.len() / 2;

    // Unpublished is not stale: the empty pre-publish snapshot is a
    // well-defined epoch-0 answer, not a lagging one.
    assert_eq!(server.snapshot_epoch(), 0);
    assert_eq!(server.query_metrics().staleness_us(), 0);

    ingest_each(&server, &reports[..mid]);
    assert_eq!(
        server.snapshot_epoch(),
        0,
        "publisher is paused — ingest must not publish"
    );

    let epoch = server.publish_snapshot(4.0 * 3_600.0);
    assert_eq!(epoch, 1);

    // Staleness grows monotonically on the query clock while paused.
    let s0 = server.query_metrics().staleness_us();
    for _ in 0..8 {
        let _ = server.query_metrics().staleness_us();
    }
    let s1 = server.query_metrics().staleness_us();
    assert!(
        s1 > s0,
        "staleness must grow while the publisher is paused ({s0} -> {s1})"
    );

    // More ingest with the publisher still paused: readers keep the last
    // epoch, and /healthz reports both the epoch and the lag.
    ingest_each(&server, &reports[mid..]);
    assert_eq!(server.snapshot_epoch(), 1);
    assert_eq!(server.query_snapshot().epoch, 1);
    let health = respond(&server, &get("/healthz"));
    assert_eq!(health.status, 200);
    let body = parse_json(&health.body).expect("healthz is JSON");
    assert_eq!(body.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(body.get("epoch").and_then(|v| v.as_u64()), Some(1));
    let lag = body
        .get("staleness_us")
        .and_then(|v| v.as_u64())
        .expect("staleness_us is a number");
    assert!(lag > 0, "paused publisher must report non-zero staleness");

    // Resume: one publish cycle is enough to surface a fresh epoch and
    // re-arm the staleness base.
    let before = server.query_metrics().staleness_us();
    let resumed = server.publish_snapshot(10.0 * 3_600.0);
    assert_eq!(resumed, 2);
    assert_eq!(server.query_snapshot().epoch, 2);
    let after = server.query_metrics().staleness_us();
    assert!(
        after < before,
        "publishing must reset the staleness base ({before} -> {after})"
    );
}

/// Default config: every `ingest_batch` and every `train` ends with a
/// freshly published, coherent snapshot.
#[test]
fn ingest_and_train_publish_fresh_epochs() {
    let (city, plan) = seeded_day(5);
    let server = WiLocator::new(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
    );
    register_all(&server, &plan);
    assert_eq!(server.snapshot_epoch(), 0);

    let reports: Vec<ScanReport> = plan.events.iter().map(to_report).collect();
    let first = reports.len().min(32);
    ingest_slice(&server, &reports[..first]);
    let e1 = server.snapshot_epoch();
    assert!(e1 >= 1, "ingest_batch must publish");
    let snap = server.query_snapshot();
    assert_eq!(snap.epoch, e1);
    assert!(snap.is_coherent());

    server.train(9.5 * 3_600.0);
    assert!(
        server.snapshot_epoch() > e1,
        "train must publish the retrained state"
    );
}

/// Runs `f` with *every* shard's ingest write lock held at once.
fn with_all_shards_locked(server: &WiLocator, shard: usize, f: &mut dyn FnMut()) {
    if shard == server.shard_count() {
        f();
    } else {
        server
            .quiesce_shard(shard, || with_all_shards_locked(server, shard + 1, f))
            .expect("shard index in range");
    }
}

/// The acceptance criterion, made executable: with every shard ingest
/// lock held (writers fully wedged), the whole query battery still
/// completes, because the read path never touches a shard lock. A
/// deadlock here surfaces as a clean timeout panic, not a hung test.
#[test]
fn queries_complete_while_every_shard_ingest_lock_is_held() {
    let (city, plan) = seeded_day(3);
    let server = Arc::new(WiLocator::new(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
    ));
    register_all(&server, &plan);
    let reports: Vec<ScanReport> = plan.events.iter().map(to_report).collect();
    ingest_slice(&server, &reports[..reports.len().min(256)]);
    server.train(9.0 * 3_600.0);

    let snapshot = server.query_snapshot();
    let bus = snapshot
        .buses
        .keys()
        .next()
        .copied()
        .expect("replay slice tracked at least one bus");
    let targets = vec![
        "/healthz".to_string(),
        "/metrics".to_string(),
        "/arrivals/0".to_string(),
        format!("/position/{}", bus.0),
        "/traffic/0".to_string(),
    ];

    assert!(server.shard_count() >= 2, "scene should exercise >1 shard");
    with_all_shards_locked(&server, 0, &mut || {
        let (tx, rx) = mpsc::channel();
        let srv = Arc::clone(&server);
        let batch = targets.clone();
        std::thread::spawn(move || {
            let statuses: Vec<(String, u16)> = batch
                .iter()
                .map(|t| (t.clone(), respond(&srv, &get(t)).status))
                .collect();
            let snap = srv.query_snapshot();
            let _ = tx.send((statuses, snap.epoch, snap.is_coherent()));
        });
        // If any query were to block on a shard ingest lock, this recv
        // times out and fails the test instead of hanging it.
        let (statuses, epoch, coherent) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("queries must complete while every shard ingest lock is held");
        for (target, status) in statuses {
            assert_eq!(status, 200, "GET {target} under full ingest lockout");
        }
        assert!(epoch >= 1);
        assert!(coherent);
    });
}
