//! Shared scene and replay helpers for the integration tests: the
//! two-street city, its seeded day of service, and the batched
//! multi-thread replay the determinism suites are built on.

#![allow(dead_code)] // each test binary uses a subset

use wilocator::core::{BusKey, ScanReport, WiLocator, NONDETERMINISTIC_COUNTER_FAMILIES};
use wilocator::geo::{BoundingBox, Point};
use wilocator::rf::{
    AccessPoint, ApId, HomogeneousField, LogDistance, PhysicalField, ShadowingField,
};
use wilocator::road::{NetworkBuilder, Route, RouteId, Schedule};
use wilocator::sim::{
    simulate, City, LoadEvent, LoadPlan, SimulationConfig, TrafficConfig, TrafficModel,
};

/// Two disjoint 1.2 km streets, one route each, plus an express variant
/// riding the first street — the same scene the concurrency tests
/// replay.
pub fn two_street_city(seed: u64) -> City {
    let mut b = NetworkBuilder::new();
    let mut aps = Vec::new();
    let mut ap_id = 0u32;
    let mut streets = Vec::new();
    for (street, y) in [0.0f64, 900.0].iter().enumerate() {
        let mut prev = b.add_node(Point::new(0.0, *y));
        let mut edges = Vec::new();
        for k in 1..=4 {
            let node = b.add_node(Point::new(k as f64 * 300.0, *y));
            edges.push(b.add_edge(prev, node, None).expect("distinct nodes"));
            prev = node;
        }
        let mut x = 30.0;
        while x < 1_200.0 {
            aps.push(AccessPoint::new(
                ApId(ap_id),
                Point::new(x, y + if ap_id.is_multiple_of(2) { 18.0 } else { -18.0 }),
            ));
            ap_id += 1;
            x += 55.0;
        }
        streets.push((street, edges));
    }
    let network = b.build();
    let mut built = Vec::new();
    let (_, first_street_edges) = streets[0].clone();
    for (street, edges) in streets {
        let mut route = Route::new(
            RouteId(street as u32),
            if street == 0 { "9" } else { "14" },
            edges,
            &network,
        )
        .expect("connected street");
        route.add_stops_evenly(4);
        built.push(route);
    }
    let mut express = Route::new(RouteId(2), "9 express", first_street_edges, &network)
        .expect("connected street");
    express.add_stops_evenly(2);
    built.push(express);
    let bbox = BoundingBox::from_points(network.nodes().iter().map(|n| n.position()))
        .expect("non-empty network")
        .inflated(400.0);
    let shadowing = ShadowingField::new(4.0, 60.0, seed ^ 0x5AAD);
    let field = PhysicalField::new(aps.clone(), LogDistance::urban(), shadowing);
    City {
        network,
        routes: built,
        field,
        server_field: HomogeneousField::new(aps),
        towers: Vec::new(),
        bbox,
    }
}

/// One seeded morning of service on all three routes.
pub fn seeded_day(seed: u64) -> (City, LoadPlan) {
    let city = two_street_city(seed);
    let traffic = TrafficModel::new(&city.network, TrafficConfig::default(), seed);
    let mut schedule = Schedule::new();
    for (route, headway) in [
        (RouteId(0), 1_200.0),
        (RouteId(1), 1_500.0),
        (RouteId(2), 1_800.0),
    ] {
        schedule.add_headway_service(route, 8.0 * 3_600.0, 9.5 * 3_600.0, headway);
    }
    let config = SimulationConfig {
        days: 1,
        seed,
        ..SimulationConfig::default()
    };
    let dataset = simulate(&city, &schedule, &traffic, &config);
    (city, LoadPlan::for_day(&dataset, 0))
}

/// The ingestible form of a load event.
pub fn to_report(event: &LoadEvent) -> ScanReport {
    ScanReport {
        bus: BusKey(event.trip_id as u64),
        time_s: event.time_s,
        scans: event.scans.clone(),
    }
}

/// Replays the full day through `ingest_batch` from `threads` threads
/// (lane-partitioned, 32 reports per batch), finishes every bus, trains.
pub fn replay_batched(server: &WiLocator, plan: &LoadPlan, threads: usize) {
    for (trip, route) in plan.trip_routes() {
        server
            .register_bus(BusKey(trip as u64), route)
            .expect("served route");
    }
    std::thread::scope(|scope| {
        for lane in plan.lanes(threads) {
            scope.spawn(move || {
                let reports: Vec<ScanReport> =
                    lane.iter().map(|&i| to_report(&plan.events[i])).collect();
                for chunk in reports.chunks(32) {
                    for result in server.ingest_batch(chunk) {
                        result.expect("registered bus");
                    }
                }
            });
        }
    });
    for (trip, _) in plan.trip_routes() {
        server
            .finish_bus(BusKey(trip as u64))
            .expect("registered bus");
    }
    server.train(10.0 * 3_600.0);
}

/// The snapshot's deterministic lines with the chunking-dependent
/// counter families stripped — the canonical comparison form.
pub fn deterministic_snapshot(server: &WiLocator) -> String {
    server
        .metrics()
        .deterministic_lines()
        .lines()
        .filter(|line| {
            let family = line
                .split(['{', ' '])
                .next()
                .expect("non-empty metric line");
            !NONDETERMINISTIC_COUNTER_FAMILIES.contains(&family)
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Compares `got` against the golden fixture at `tests/fixtures/<name>`,
/// blessing it instead when `WILOCATOR_BLESS` is set.
pub fn assert_matches_fixture(got: &str, name: &str) {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os("WILOCATOR_BLESS").is_some() {
        std::fs::write(&fixture, got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&fixture).unwrap_or_else(|_| {
        panic!("fixture {name} missing — run WILOCATOR_BLESS=1 cargo test to create it")
    });
    assert_eq!(
        got, &want,
        "{name} drifted from golden — bless the fixture if intentional"
    );
}
