//! Metrics-snapshot regression: a seeded simulated day replayed through
//! the server must reproduce the checked-in counter snapshot
//! exactly, and that snapshot must be bit-identical whether the day is
//! replayed through `ingest_batch` from 1, 2 or 4 threads.
//!
//! Only the deterministic families are compared: histograms time
//! wall-clock, and `wilocator_ingest_batches_total` counts transport
//! calls rather than reports, so both are excluded (the former by
//! `deterministic_lines`, the latter via
//! [`NONDETERMINISTIC_COUNTER_FAMILIES`]). Regenerate the fixture after
//! an intentional behaviour change with
//! `WILOCATOR_BLESS=1 cargo test --test metrics_snapshot`.

mod common;

use common::{deterministic_snapshot, replay_batched, seeded_day};
use wilocator::core::{WiLocator, WiLocatorConfig};

/// The golden fixture: key counters of a seeded day, exact to the unit.
/// Unlike the arrival-prediction fixture there is no float tolerance —
/// every line is an integer event count.
#[test]
fn seeded_day_counters_match_golden_fixture() {
    let (city, plan) = seeded_day(11);
    let server = WiLocator::new(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
    );
    replay_batched(&server, &plan, 1);
    let got = deterministic_snapshot(&server);

    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/metrics_snapshot.txt");
    if std::env::var_os("WILOCATOR_BLESS").is_some() {
        std::fs::write(&fixture, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&fixture).expect(
        "fixture missing — run WILOCATOR_BLESS=1 cargo test --test metrics_snapshot to create it",
    );
    assert_eq!(
        got, want,
        "metrics snapshot drifted from golden — bless the fixture if intentional"
    );
}

/// The invariants the snapshot must satisfy regardless of fixture
/// content: every report accounted for, every locate classified.
#[test]
fn seeded_day_counters_satisfy_accounting_invariants() {
    let (city, plan) = seeded_day(11);
    let server = WiLocator::new(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
    );
    replay_batched(&server, &plan, 1);
    let snap = server.metrics();

    // Offered load == accepted load: the load generator's own stats agree
    // with the server's ingest accounting.
    let offered = plan.stats();
    assert_eq!(
        offered.counter_family_total("loadgen_events_total"),
        snap.counter_family_total("wilocator_reports_total"),
    );
    // Every report resolved to exactly one outcome.
    assert_eq!(
        snap.counter_family_total("wilocator_reports_total"),
        snap.counter_family_total("wilocator_fixes_total")
            + snap.counter_family_total("wilocator_reports_absorbed_total")
            + snap.counter_family_total("wilocator_reports_stale_total"),
    );
    // Every locate call resolved to exactly one fix method (or none).
    assert_eq!(
        snap.counter_family_total("svd_locate_total"),
        snap.counter_family_total("svd_fix_exact_total")
            + snap.counter_family_total("svd_fix_tie_boundary_total")
            + snap.counter_family_total("svd_fix_nearest_signature_total")
            + snap.counter_family_total("svd_fix_dead_reckoned_total")
            + snap.counter_family_total("svd_fix_none_total"),
    );
    // The day actually exercised the pipeline.
    assert!(snap.counter_family_total("svd_fix_exact_total") > 100);
    assert!(snap.counter_family_total("wilocator_traversals_committed_total") > 10);
    assert!(snap.counter_family_total("predict_train_total") >= 1);
    // One predictor: each `train` call trains it once.
    assert_eq!(
        snap.counter_family_total("predict_train_total"),
        snap.counter("wilocator_train_calls_total"),
    );
    assert_eq!(
        snap.gauge("wilocator_active_buses"),
        0,
        "all buses finished"
    );
}

/// The cross-thread identity the whole metric design is built around:
/// counters count events, not scheduling, so the deterministic snapshot
/// of a lane-partitioned batched replay is byte-identical at any thread
/// count.
#[test]
fn snapshot_is_identical_across_thread_counts() {
    let (city, plan) = seeded_day(11);
    assert!(plan.events.len() > 100, "day too small");
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 4] {
        let server = WiLocator::new(
            &city.server_field,
            city.routes.clone(),
            WiLocatorConfig::default(),
        );
        replay_batched(&server, &plan, threads);
        snapshots.push((threads, deterministic_snapshot(&server)));
    }
    let (_, ref base) = snapshots[0];
    assert!(base.contains("wilocator_reports_total"));
    for (threads, snap) in &snapshots[1..] {
        assert_eq!(
            snap, base,
            "{threads}-thread snapshot diverges from single-threaded"
        );
    }
}
