//! Deterministic multi-threaded ingestion: replaying a seeded simulated
//! day from N threads must produce exactly the single-threaded state.
//!
//! The server's guarantee is per bus — the same reports for a bus in the
//! same order yield the same fixes and travel-time records, whatever the
//! cross-bus interleaving. The load generator's lanes keep each trip's
//! events on one thread, so every thread count replays to identical
//! trackers, stores and (after training) predictors.

use wilocator_core::{BusKey, CoreError, ScanReport, WiLocator, WiLocatorConfig};
use wilocator_geo::{BoundingBox, Point};
use wilocator_rf::{
    AccessPoint, ApId, HomogeneousField, LogDistance, PhysicalField, ShadowingField,
};
use wilocator_road::{NetworkBuilder, Route, RouteId, Schedule};
use wilocator_sim::{
    simulate, City, LoadEvent, LoadPlan, SimulationConfig, TrafficConfig, TrafficModel,
};

/// Two disjoint 1.2 km streets, one route each, plus an express variant
/// riding the first street.
fn two_street_city(seed: u64) -> City {
    let mut b = NetworkBuilder::new();
    let mut aps = Vec::new();
    let mut ap_id = 0u32;
    let mut routes = Vec::new();
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
        routes.push((street, edges));
    }
    let network = b.build();
    let mut built = Vec::new();
    let (_, first_street_edges) = routes[0].clone();
    for (street, edges) in routes {
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
fn seeded_day(seed: u64) -> (City, LoadPlan) {
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

fn to_report(event: &LoadEvent) -> ScanReport {
    ScanReport {
        bus: BusKey(event.trip_id as u64),
        time_s: event.time_s,
        scans: event.scans.clone(),
    }
}

/// Replays the plan on `threads` threads (lane-partitioned) or, with
/// `batch_size > 0`, through `ingest_batch` in order from one thread.
fn replay(server: &WiLocator, plan: &LoadPlan, threads: usize, batch_size: usize) {
    for (trip, route) in plan.trip_routes() {
        server
            .register_bus(BusKey(trip as u64), route)
            .expect("served route");
    }
    if batch_size > 0 {
        let reports: Vec<ScanReport> = plan.events.iter().map(to_report).collect();
        for chunk in reports.chunks(batch_size) {
            for result in server.ingest_batch(chunk) {
                result.expect("registered bus");
            }
        }
    } else if threads <= 1 {
        for event in &plan.events {
            server.ingest(&to_report(event)).expect("registered bus");
        }
    } else {
        std::thread::scope(|scope| {
            for lane in plan.lanes(threads) {
                scope.spawn(move || {
                    for i in lane {
                        server
                            .ingest(&to_report(&plan.events[i]))
                            .expect("registered bus");
                    }
                });
            }
        });
    }
    for (trip, _) in plan.trip_routes() {
        server
            .finish_bus(BusKey(trip as u64))
            .expect("registered bus");
    }
}

/// Bit-exact snapshot of every bus trajectory (taken before finish).
fn fix_signature(server: &WiLocator, plan: &LoadPlan) -> Vec<(usize, Vec<(u64, u64)>)> {
    plan.trip_ids()
        .into_iter()
        .map(|trip| {
            let fixes = server
                .trajectory(BusKey(trip as u64))
                .expect("bus registered")
                .iter()
                .map(|f| (f.s.to_bits(), f.time_s.to_bits()))
                .collect();
            (trip, fixes)
        })
        .collect()
}

/// Bit-exact snapshot of the travel-time store: per edge,
/// the `(route, t_enter, t_exit)` bit patterns of its records.
type StoreSignature = Vec<(u32, Vec<(u32, u64, u64)>)>;

fn store_signature(server: &WiLocator) -> StoreSignature {
    server.with_store(|store| {
        let mut edges: Vec<_> = store.edges().collect();
        edges.sort_by_key(|e| e.0);
        edges
            .into_iter()
            .map(|e| {
                let records = store
                    .traversals(e)
                    .iter()
                    .map(|tr| (tr.route.0, tr.t_enter.to_bits(), tr.t_exit.to_bits()))
                    .collect();
                (e.0, records)
            })
            .collect()
    })
}

/// Bit-exact predictions on a grid of (position, query time) per route.
fn prediction_signature(server: &WiLocator) -> Vec<u64> {
    let mut out = Vec::new();
    for route in server.routes() {
        let end = route.length();
        for k in 0..6 {
            let s = end * k as f64 / 6.0;
            for t in [8.2 * 3_600.0, 8.9 * 3_600.0, 9.6 * 3_600.0] {
                let eta = server
                    .predict_arrival_at(route.id(), s, t, end)
                    .expect("served route");
                out.push(eta.to_bits());
            }
        }
    }
    out
}

#[test]
fn threaded_replay_matches_single_threaded() {
    let (city, plan) = seeded_day(11);
    assert!(
        plan.events.len() > 100,
        "day too small: {}",
        plan.events.len()
    );
    let mut signatures = Vec::new();
    for threads in [1usize, 2, 4] {
        let server = WiLocator::new(
            &city.server_field,
            city.routes.clone(),
            WiLocatorConfig::default(),
        );
        for (trip, route) in plan.trip_routes() {
            server.register_bus(BusKey(trip as u64), route).unwrap();
        }
        if threads == 1 {
            for event in &plan.events {
                server.ingest(&to_report(event)).unwrap();
            }
        } else {
            std::thread::scope(|scope| {
                for lane in plan.lanes(threads) {
                    let server = &server;
                    let plan = &plan;
                    scope.spawn(move || {
                        for i in lane {
                            server.ingest(&to_report(&plan.events[i])).unwrap();
                        }
                    });
                }
            });
        }
        let fixes = fix_signature(&server, &plan);
        for (trip, _) in plan.trip_routes() {
            server.finish_bus(BusKey(trip as u64)).unwrap();
        }
        server.train(10.0 * 3_600.0);
        signatures.push((
            threads,
            fixes,
            store_signature(&server),
            prediction_signature(&server),
        ));
    }
    let (_, ref fixes1, ref store1, ref pred1) = signatures[0];
    assert!(
        fixes1.iter().all(|(_, f)| !f.is_empty()),
        "every trip produced fixes"
    );
    assert!(!store1.is_empty(), "traversals recorded");
    for (threads, fixes, store, pred) in &signatures[1..] {
        assert_eq!(fixes, fixes1, "{threads}-thread fix sequences diverge");
        assert_eq!(store, store1, "{threads}-thread store diverges");
        assert_eq!(pred, pred1, "{threads}-thread predictions diverge");
    }
}

#[test]
fn no_traversals_lost_across_thread_counts() {
    let (city, plan) = seeded_day(23);
    let trips = plan.trip_ids().len();
    for threads in [1usize, 3] {
        let server = WiLocator::new(
            &city.server_field,
            city.routes.clone(),
            WiLocatorConfig::default(),
        );
        replay(&server, &plan, threads, 0);
        let (records, edges) = server.with_store(|s| (s.len(), s.edge_count()));
        // Every trip crosses every segment of its route: 3 trips' worth of
        // 4-segment routes plus the express's share must all be there.
        assert_eq!(edges, 8, "{threads} threads: all street segments seen");
        assert!(
            records >= trips * 2,
            "{threads} threads: only {records} records for {trips} trips"
        );
    }
}

#[test]
fn batched_replay_matches_streamed_replay() {
    let (city, plan) = seeded_day(31);
    let streamed = WiLocator::new(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
    );
    let batched = WiLocator::new(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
    );
    replay(&streamed, &plan, 1, 0);
    replay(&batched, &plan, 0, 32);
    assert_eq!(store_signature(&streamed), store_signature(&batched));
    streamed.train(10.0 * 3_600.0);
    batched.train(10.0 * 3_600.0);
    assert_eq!(
        prediction_signature(&streamed),
        prediction_signature(&batched)
    );
}

#[test]
fn batch_surfaces_unknown_buses_without_poisoning_the_rest() {
    let (city, plan) = seeded_day(47);
    let server = WiLocator::new(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
    );
    for (trip, route) in plan.trip_routes() {
        server.register_bus(BusKey(trip as u64), route).unwrap();
    }
    let mut reports: Vec<ScanReport> = plan.events.iter().take(8).map(to_report).collect();
    reports.insert(
        4,
        ScanReport {
            bus: BusKey(9_999),
            time_s: 0.0,
            scans: Vec::new(),
        },
    );
    let results = server.ingest_batch(&reports);
    assert_eq!(results.len(), 9);
    assert_eq!(results[4], Err(CoreError::UnknownBus(BusKey(9_999))));
    for (i, r) in results.iter().enumerate() {
        if i != 4 {
            assert!(r.is_ok(), "report {i} failed: {r:?}");
        }
    }
    // The error is metered exactly once, and the eight good reports all
    // made it into the ingest accounting.
    let snap = server.metrics();
    assert_eq!(snap.counter("wilocator_unknown_bus_total"), 1);
    assert_eq!(snap.counter_family_total("wilocator_reports_total"), 8);
}

/// The documented state after a batch full of error paths: an unknown
/// bus errors in place, reordered (stale) reports are dropped without
/// touching the committed trajectory or store, an equal-timestamp
/// duplicate is re-processed rather than dropped — and every outcome is
/// metered, so `reports == fixes + absorbed + stale` keeps holding.
#[test]
fn batch_duplicates_and_reordering_leave_documented_state() {
    let (city, plan) = seeded_day(59);
    let server = WiLocator::new(
        &city.server_field,
        city.routes.clone(),
        WiLocatorConfig::default(),
    );
    for (trip, route) in plan.trip_routes() {
        server.register_bus(BusKey(trip as u64), route).unwrap();
    }
    let trip = plan.trip_ids()[0];
    let bus = BusKey(trip as u64);
    let events: Vec<&LoadEvent> = plan.events.iter().filter(|e| e.trip_id == trip).collect();
    assert!(events.len() > 10, "trip too short");
    let head: Vec<ScanReport> = events[..8].iter().map(|e| to_report(e)).collect();
    for result in server.ingest_batch(&head) {
        result.unwrap();
    }
    let committed = server.trajectory(bus).expect("registered");
    let last_fix_time = committed.last().expect("head produced fixes").time_s;
    let store_before = store_signature(&server);
    let before = server.metrics();

    // Strictly older than the latest fix ⇒ stale; equal ⇒ duplicate.
    let stale: Vec<ScanReport> = head
        .iter()
        .filter(|r| r.time_s < last_fix_time)
        .cloned()
        .collect();
    assert!(!stale.is_empty(), "no reordered reports to replay");
    let duplicate = head
        .iter()
        .find(|r| r.time_s == last_fix_time)
        .expect("latest fix came from a head report")
        .clone();
    let mut batch = vec![ScanReport {
        bus: BusKey(9_999),
        time_s: 0.0,
        scans: Vec::new(),
    }];
    batch.extend(stale.iter().cloned());
    batch.push(duplicate);
    let results = server.ingest_batch(&batch);
    assert_eq!(results[0], Err(CoreError::UnknownBus(BusKey(9_999))));
    for r in &results[1..] {
        assert!(r.is_ok(), "stale/duplicate reports are not errors: {r:?}");
    }

    // Stale replays appended nothing: the committed prefix is intact and
    // anything the duplicate appended sits at the same timestamp.
    let after_traj = server.trajectory(bus).expect("registered");
    assert_eq!(&after_traj[..committed.len()], &committed[..]);
    for fix in &after_traj[committed.len()..] {
        assert_eq!(fix.time_s, last_fix_time, "duplicate moved time forward");
    }
    assert_eq!(store_signature(&server), store_before, "store unchanged");

    // Every outcome metered: one unknown bus, every stale replay counted
    // stale, the duplicate re-processed (fix or absorbed — not stale).
    let after = server.metrics();
    let delta =
        |family: &str| after.counter_family_total(family) - before.counter_family_total(family);
    assert_eq!(delta("wilocator_unknown_bus_total"), 1);
    assert_eq!(delta("wilocator_reports_stale_total"), stale.len() as u64);
    assert_eq!(delta("wilocator_reports_total"), (stale.len() + 1) as u64);
    assert_eq!(
        after.counter_family_total("wilocator_reports_total"),
        after.counter_family_total("wilocator_fixes_total")
            + after.counter_family_total("wilocator_reports_absorbed_total")
            + after.counter_family_total("wilocator_reports_stale_total"),
    );

    // The server is not poisoned: the trip's next real report still lands.
    server
        .ingest(&to_report(events[8]))
        .expect("server healthy");
}
