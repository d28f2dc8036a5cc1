//! The three workloads, run by one engine.
//!
//! Every workload streams reports to the server and rider requests to the
//! front end from one generator thread, in 10 s windows of stream time
//! (one batch each): hand the window's reports, look at the published
//! snapshot, finish the buses whose trips ended, then send the window's
//! share of rider requests over one keep-alive connection. The workloads
//! differ in how reports are handed and how many requests ride on them:
//!
//! | workload | set-up | measured phase | hand-off | requests per report |
//! |---|---|---|---|---|
//! | `backfill` | day 0 and day 1 to 07:00, `train` | rest of day 1, then `train` | `ingest`, one at a time | 0.01 |
//! | `live` | days 0–1, `train`, day 2 to 08:00 | the 08:00–10:00 rush | `ingest_batch` | 1 |
//! | `riders` | as `live` | as `live` | `ingest_batch` | 100 |
//!
//! The traced mode runs the same stream and adds shadow calls into each
//! layer's public entry points next to the real ones, timing both.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use wilocator_core::{BusKey, BusTracker, QuerySnapshot, WiLocator, WiLocatorConfig};
use wilocator_obs::MetricsSnapshot;
use wilocator_road::{Route, RouteId, StopId};
use wilocator_serve::{parse_request, respond, serve, HttpLimits, ServeConfig, ServerHandle};
use wilocator_sim::DAY_S;
use wilocator_svd::{Fix, PositioningMetrics, RouteTileIndex, TrackingFilter};
use wilocator_tracedump::{parse_json, Json};

use crate::alloc::Usage;
use crate::client::Client;
use crate::scenario::{true_arrival, true_s_at, Scenario, BATCH_S, HISTORY_DAYS};
use crate::spans::{Spans, PID_BATCH, PID_REQUEST, PID_SETUP};
use crate::stats::{percentile, Freshness};

/// Batches at the start of the first `live` session whose answers feed
/// the accuracy metrics (2 min of the rush), so those metrics are a
/// function of the seed alone. The session never ends before them.
const LIVE_ACCURACY_BATCHES: usize = 12;
/// The same for `riders`, whose batches each carry a burst of ~10k
/// requests (1 min of the rush).
const RIDERS_ACCURACY_BATCHES: usize = 6;
/// `backfill` samples one fix in this many for arrival predictions.
const BACKFILL_ETA_EVERY: u64 = 1_024;
/// Rider requests go out in bursts of at least this many, so only about
/// one request in a burst finds the front end's worker asleep: one burst
/// right after the first batch of a phase, then one whenever this many
/// more are due (every batch in `riders`, about every 10th in `live`, a
/// few times a pass in `backfill`).
const BURST_REQUESTS: f64 = 1_000.0;
/// Stops ahead predicted for each sampled `backfill` fix.
const BACKFILL_STOPS_AHEAD: usize = 10;
/// Stream time of day at which `backfill`'s set-up stops loading day 1
/// and trains: the first hour of service, so the snapshot riders read
/// during the backfill carries buses still in service.
const BACKFILL_SETUP_TOD_S: f64 = 7.0 * 3_600.0;
/// Every `/position` answer must lie this close to the bus's true arc
/// length at the fix time, metres: one stop spacing of the sparsest
/// Table-I route (Rapid Line, 13.7 km over 19 stops), rounded up. A fix
/// farther off puts the bus at the wrong stop.
const POSITION_ENVELOPE_M: f64 = 1_000.0;
/// Upper bound on `pos_err_m_p50`, metres: the city's mean AP spacing. An
/// order-2 tile spans about one spacing, so a median fix farther off than
/// that means the tile lookup itself is wrong.
const POS_P50_ENVELOPE_M: f64 = 55.0;
/// Upper bound on `eta_err_s_p50`, seconds: WiLocator's worst rush-hour
/// error in the paper's Fig. 8(b), about 500 s. A median beyond the
/// paper's maximum means prediction is broken.
const ETA_P50_ENVELOPE_S: f64 = 500.0;
/// Traced runs answer one request in this many a second time
/// in-process, to split its round trip into layers.
const SHADOW_REQUEST_EVERY: u64 = 4;
/// Traced runs keep the spans of one batch in this many, and of one
/// shadowed request in this many.
const SPAN_EVERY: u64 = 16;
/// At most this many spans are kept.
const SPAN_CAP: usize = 200_000;
/// Check failures quoted on standard error.
const FAILURES_QUOTED: usize = 20;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// History replayed through `ingest`.
    Backfill,
    /// The morning rush through `ingest_batch`, publishing every batch.
    Live,
    /// The same rush with rider requests outnumbering reports.
    Riders,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Backfill, Workload::Live, Workload::Riders];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Backfill => "backfill",
            Workload::Live => "live",
            Workload::Riders => "riders",
        }
    }

    fn accuracy_batches(self) -> usize {
        match self {
            Workload::Backfill => usize::MAX,
            Workload::Live => LIVE_ACCURACY_BATCHES,
            Workload::Riders => RIDERS_ACCURACY_BATCHES,
        }
    }

    fn requests_per_report(self) -> f64 {
        match self {
            Workload::Backfill => 0.01,
            Workload::Live => 1.0,
            // Two orders of magnitude: at the loadgen's 1000:1 a 10 s
            // run would cover about two batches.
            Workload::Riders => (wilocator_sim::DEFAULT_QUERY_RATIO / 10) as f64,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed on the operations that did not fail.
    pub correct: bool,
    /// Reports and requests attempted in measured phases.
    pub attempted: u64,
    /// Of those, reports the server refused and requests not answered 200
    /// in full.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// The rider request endpoints, in the loadgen's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Arrivals,
    Position,
    Traffic,
}

impl Endpoint {
    const ALL: [Endpoint; 3] = [Endpoint::Arrivals, Endpoint::Position, Endpoint::Traffic];

    fn label(self) -> &'static str {
        match self {
            Endpoint::Arrivals => "arrivals",
            Endpoint::Position => "position",
            Endpoint::Traffic => "traffic",
        }
    }
}

/// One rider request.
#[derive(Debug, Clone, Copy)]
enum Op {
    Arrivals {
        route: RouteId,
        stop: StopId,
        stop_s: f64,
    },
    Position {
        bus: BusKey,
    },
    Traffic {
        route: RouteId,
    },
}

impl Op {
    fn endpoint(self) -> Endpoint {
        match self {
            Op::Arrivals { .. } => Endpoint::Arrivals,
            Op::Position { .. } => Endpoint::Position,
            Op::Traffic { .. } => Endpoint::Traffic,
        }
    }

    fn target(self) -> String {
        match self {
            Op::Arrivals { route, stop, .. } => format!("/arrivals/{}?route={}", stop.0, route.0),
            Op::Position { bus } => format!("/position/{}", bus.0),
            Op::Traffic { route } => format!("/traffic/{}", route.0),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th request of a run: the loadgen's mix (`RiderLoad::op`),
/// 70% arrivals, 20% position, 10% traffic, each kind falling back to the
/// others when it has nothing to address.
fn pick_op(
    seed: u64,
    i: u64,
    stops: &[(RouteId, StopId, f64)],
    buses: &[BusKey],
    routes: &[RouteId],
) -> Op {
    let r = splitmix64(seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407));
    let pick = r >> 8;
    let arrivals = || {
        (!stops.is_empty()).then(|| {
            let (route, stop, stop_s) = stops[(pick % stops.len() as u64) as usize];
            Op::Arrivals {
                route,
                stop,
                stop_s,
            }
        })
    };
    let position = || {
        (!buses.is_empty()).then(|| Op::Position {
            bus: buses[(pick % buses.len() as u64) as usize],
        })
    };
    let traffic = || {
        (!routes.is_empty()).then(|| Op::Traffic {
            route: routes[(pick % routes.len() as u64) as usize],
        })
    };
    let order = match r % 10 {
        0..=6 => [arrivals(), position(), traffic()],
        7 | 8 => [position(), arrivals(), traffic()],
        _ => [traffic(), arrivals(), position()],
    };
    order
        .into_iter()
        .flatten()
        .next()
        .expect("the city has stops and routes")
}

/// Per-layer accumulators of a traced run.
#[derive(Debug, Default)]
struct Layers {
    reports: u64,
    rank_s: f64,
    rank_allocs: u64,
    locate_s: f64,
    tracker_s: f64,
    server_ingest_s: f64,
    server_allocs: u64,
    route_index_build_s: f64,
    train_ms: Vec<f64>,
    batch_lock_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    publish_bytes: u64,
    traffic_ms: Vec<f64>,
    traffic_records: u64,
    arrivals_ms: Vec<f64>,
    etas: u64,
    predict_calls_s: f64,
    predict_calls: u64,
    self_ms: Vec<f64>,
    parse_us: Vec<f64>,
    respond_us: Vec<f64>,
    respond_by_endpoint: [Vec<f64>; 3],
    response_bytes: u64,
    respond_allocs: u64,
    transport_us: Vec<f64>,
    /// Server counter deltas over measured phases.
    reports_total: u64,
    fixes_total: u64,
    nearest_total: u64,
    dead_reckoned_total: u64,
    publishes_total: u64,
}

/// Everything a run accumulates across its sessions.
struct Tally {
    seed: u64,
    traced: bool,
    origin: Instant,
    setup_s: Vec<f64>,
    heap_mb: Vec<f64>,
    measured_s: f64,
    phase_reports: u64,
    ingest_s: f64,
    /// Wall time of measured phases inside request round trips and
    /// `train` calls, seconds.
    round_trips_s: f64,
    phase_train_s: f64,
    freshness: Freshness,
    query_us: Vec<f64>,
    /// Per burst, the 99th percentile of its round trips.
    burst_p99_us: Vec<f64>,
    pos_err_m: Vec<f64>,
    eta_err_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    failure_count: u64,
    requests: u64,
    /// Largest `/position` error seen, metres.
    worst_position_m: f64,
    layers: Layers,
    spans: Spans,
}

impl Tally {
    /// A check failed: the run is not correct.
    fn fail(&mut self, what: String) {
        self.failure_count += 1;
        self.quote(what);
    }

    /// An operation failed: it counts in `failed`, and the checks speak
    /// only of the operations that did not fail.
    fn failed_op(&mut self, what: String) {
        self.failed += 1;
        self.quote(what);
    }

    fn quote(&mut self, what: String) {
        if self.failures.len() < FAILURES_QUOTED {
            self.failures.push(what);
        }
    }

    fn since_origin(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }
}

/// Shadow copies of one bus's tracking state, stepped on the same reports
/// as the server's own.
struct Shadow {
    filter: TrackingFilter,
    tracker: BusTracker,
    last_fix_s: f64,
}

/// A window of the stream and whether its answers feed the accuracy
/// metrics and its spans are kept.
struct Window {
    index: u64,
    range: Range<usize>,
    accuracy: bool,
    spans: bool,
}

/// One server's life: set-up, measured phase, teardown.
struct Session<'a> {
    scn: &'a Scenario,
    workload: Workload,
    server: Arc<WiLocator>,
    front: Option<ServerHandle>,
    client: Option<Client>,
    /// By trip: registered and not yet finished.
    in_service: Vec<bool>,
    handed: u64,
    sent: [u64; 3],
    shadowed: [u64; 3],
    last_epoch: u64,
    last_publishes: u64,
    shadows: HashMap<BusKey, Shadow>,
    stops: Vec<(RouteId, StopId, f64)>,
    routes: Vec<RouteId>,
    due_requests: f64,
    fixes_seen: u64,
    in_phase: bool,
}

/// Runs `workload` for `seconds` of measured time on inputs from `seed`.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let truth_day = match workload {
        Workload::Backfill => 1,
        Workload::Live | Workload::Riders => HISTORY_DAYS,
    };
    let days = match workload {
        Workload::Backfill => HISTORY_DAYS,
        Workload::Live | Workload::Riders => HISTORY_DAYS + 1,
    };
    let scn = Scenario::generate(seed, days, truth_day);
    // Generation used two threads; everything measured runs on one CPU.
    let cpu = crate::pin::to_current_cpu();
    let origin = Instant::now();
    let mut tally = Tally {
        seed,
        traced,
        origin,
        setup_s: Vec::new(),
        heap_mb: Vec::new(),
        measured_s: 0.0,
        phase_reports: 0,
        ingest_s: 0.0,
        round_trips_s: 0.0,
        phase_train_s: 0.0,
        freshness: Freshness::default(),
        query_us: Vec::new(),
        burst_p99_us: Vec::new(),
        pos_err_m: Vec::new(),
        eta_err_s: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        failure_count: 0,
        requests: 0,
        worst_position_m: 0.0,
        layers: Layers::default(),
        spans: Spans::new(origin, SPAN_CAP),
    };
    if traced {
        time_route_index_builds(&scn, &mut tally);
    }
    // A rush session measures the whole run. A `backfill` session
    // measures one pass over day 1, a few seconds, so sessions repeat
    // (each with a fresh set-up) until the run is measured.
    let mut sessions = 0;
    while sessions == 0 || tally.measured_s < seconds {
        let mut session = Session::setup(&scn, workload, &mut tally);
        session.measure(&mut tally, seconds, sessions == 0);
        session.teardown(&mut tally);
        sessions += 1;
    }
    check_envelopes(&mut tally);
    eprintln!(
        "perfbench: measured {:.3} s = ingest calls {:.3} s + request round trips {:.3} s + train {:.3} s + the generator's own work {:.3} s",
        tally.measured_s,
        tally.ingest_s,
        tally.round_trips_s,
        tally.phase_train_s,
        tally.measured_s - tally.ingest_s - tally.round_trips_s - tally.phase_train_s,
    );
    let mut round_trips = tally.query_us.clone();
    eprintln!(
        "perfbench: request round trips p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, p99.9 {:.1} us over {} requests",
        pct(&mut round_trips, 50.0),
        pct(&mut round_trips, 90.0),
        pct(&mut round_trips, 99.0),
        pct(&mut round_trips, 99.9),
        round_trips.len(),
    );
    eprintln!(
        "perfbench: {} seed {seed}: pinned to CPU {cpu:?}, generation {:.2} s, {sessions} session(s), set-up {:?} s, measured {:.2} s, {} reports, {} requests, worst /position error {:.1} m",
        workload.name(),
        scn.generation_s,
        tally.setup_s.iter().map(|s| (s * 100.0).round() / 100.0).collect::<Vec<_>>(),
        tally.measured_s,
        tally.phase_reports,
        tally.requests,
        tally.worst_position_m,
    );
    for f in &tally.failures {
        eprintln!("perfbench: failed: {f}");
    }
    let quoted = tally.failures.len() as u64;
    if tally.failure_count + tally.failed > quoted {
        eprintln!(
            "perfbench: {} checks and {} operations failed in all",
            tally.failure_count, tally.failed
        );
    }
    if traced {
        write_trace(workload, seed, &tally.spans);
    }
    let metrics = if traced {
        layer_metrics(&mut tally)
    } else {
        end_to_end_metrics(&mut tally)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("perfbench: a metric had no samples or was not finite");
    }
    Outcome {
        correct: tally.failure_count == 0 && finite,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// The accuracy medians must stay inside the envelopes the scenario's
/// geometry and the paper set.
fn check_envelopes(tally: &mut Tally) {
    let pos = percentile(&mut tally.pos_err_m, 50.0).unwrap_or(f64::NAN);
    if pos.is_nan() || pos > POS_P50_ENVELOPE_M {
        tally.fail(format!(
            "pos_err_m_p50 {pos} m exceeds {POS_P50_ENVELOPE_M} m"
        ));
    }
    let eta = percentile(&mut tally.eta_err_s, 50.0).unwrap_or(f64::NAN);
    if eta.is_nan() || eta > ETA_P50_ENVELOPE_S {
        tally.fail(format!(
            "eta_err_s_p50 {eta} s exceeds {ETA_P50_ENVELOPE_S} s"
        ));
    }
}

fn time_route_index_builds(scn: &Scenario, tally: &mut Tally) {
    let config = WiLocatorConfig::default();
    let start = Instant::now();
    for route in &scn.city.routes {
        let index = RouteTileIndex::build(
            &scn.city.server_field,
            route,
            config.svd,
            config.sample_step_m,
        );
        std::hint::black_box(index);
    }
    let end = Instant::now();
    tally.layers.route_index_build_s = (end - start).as_secs_f64();
    tally
        .spans
        .push("route_index.build", PID_SETUP, 0, None, start, end);
}

fn write_trace(workload: Workload, seed: u64, spans: &Spans) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{seed}.json", workload.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.chrome_json()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans ({} dropped at the cap) written to {}",
            spans.len(),
            spans.dropped(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Total recorded shard write-lock hold, microseconds.
fn lock_hold_us(server: &WiLocator) -> u64 {
    server
        .metrics()
        .histograms()
        .iter()
        .filter(|(k, _)| k.starts_with("wilocator_shard_lock_hold_us"))
        .map(|(_, h)| h.sum)
        .sum()
}

impl<'a> Session<'a> {
    fn setup(scn: &'a Scenario, workload: Workload, tally: &mut Tally) -> Session<'a> {
        let start = Instant::now();
        let server = Arc::new(WiLocator::new(
            &scn.city.server_field,
            scn.city.routes.clone(),
            WiLocatorConfig::default(),
        ));
        let front = serve(Arc::clone(&server), "127.0.0.1:0", ServeConfig::default())
            .expect("the front end binds a loopback port");
        let mut stops = Vec::new();
        for route in &scn.city.routes {
            for stop in route.stops() {
                stops.push((route.id(), stop.id(), stop.s()));
            }
        }
        let mut session = Session {
            scn,
            workload,
            server,
            front: Some(front),
            client: None,
            in_service: vec![false; scn.trips.len()],
            handed: 0,
            sent: [0; 3],
            shadowed: [0; 3],
            last_epoch: 0,
            last_publishes: 0,
            shadows: HashMap::new(),
            stops,
            routes: scn.city.routes.iter().map(Route::id).collect(),
            due_requests: 0.0,
            fixes_seen: 0,
            in_phase: false,
        };
        let (day, start_s, from) = session.phase();
        for d in 0..day {
            session.load(tally, d, 0..scn.days[d].reports.len());
        }
        if workload == Workload::Backfill {
            session.load(tally, day, 0..from);
            session.train(tally, start_s);
        } else {
            session.train(tally, day as f64 * DAY_S);
            session.load(tally, day, 0..from);
        }
        let addr = session
            .front
            .as_ref()
            .map(ServerHandle::local_addr)
            .expect("front end runs");
        session.client = Some(Client::connect(addr).expect("loopback connect"));
        tally.setup_s.push(start.elapsed().as_secs_f64());
        session
    }

    /// Loads reports through `ingest`, untimed (set-up).
    fn load(&mut self, tally: &mut Tally, day: usize, range: Range<usize>) {
        let d = &self.scn.days[day];
        for i in range {
            let report = &d.reports[i];
            let meta = d.meta[i];
            if meta.first {
                self.register(tally, report.bus);
            }
            self.handed += 1;
            if let Err(e) = self.server.ingest(report) {
                tally.fail(format!("set-up ingest of {}: {e}", report.bus));
            }
            if meta.last {
                self.finish(tally, report.bus);
            }
        }
    }

    fn register(&mut self, tally: &mut Tally, bus: BusKey) {
        let route = self.scn.trips[bus.0 as usize].route;
        if let Err(e) = self.server.register_bus(bus, route) {
            tally.fail(format!("register {bus}: {e}"));
        }
        self.in_service[bus.0 as usize] = true;
        if tally.traced && self.in_phase {
            self.register_shadow(bus);
        }
    }

    fn finish(&mut self, tally: &mut Tally, bus: BusKey) {
        if let Err(e) = self.server.finish_bus(bus) {
            tally.fail(format!("finish {bus}: {e}"));
        }
        self.in_service[bus.0 as usize] = false;
        self.shadows.remove(&bus);
    }

    /// Trains (which publishes), then looks at the published snapshot.
    fn train(&mut self, tally: &mut Tally, as_of: f64) {
        let usage = Usage::now();
        let start = Instant::now();
        self.server.train(as_of);
        let end = Instant::now();
        let ms = (end - start).as_secs_f64() * 1e3;
        if self.in_phase {
            tally.phase_train_s += ms / 1e3;
        }
        if tally.traced {
            tally.layers.train_ms.push(ms);
            tally
                .spans
                .push("predict.train", PID_SETUP, 0, None, start, end);
        }
        self.observe(tally, None, Some((ms, Usage::now().since(usage).1)));
    }

    /// The measured phase: a whole pass over the rest of day 1
    /// (`backfill`), or the rush for at least `seconds` (and at least the
    /// accuracy batches in the first session).
    fn measure(&mut self, tally: &mut Tally, seconds: f64, first_session: bool) {
        let (day, origin_s, from) = self.phase();
        let reports = &self.scn.days[day].reports;
        let before = self.server.metrics();
        self.in_phase = true;
        // Buses already in service get their shadows now.
        if tally.traced {
            let buses: Vec<BusKey> = (0..self.in_service.len())
                .filter(|&t| self.in_service[t])
                .map(|t| BusKey(t as u64))
                .collect();
            for bus in buses {
                self.attach_shadow(bus, day);
            }
        }
        let started = Instant::now();
        self.due_requests = BURST_REQUESTS;
        let mut i = from;
        let mut index = 0u64;
        while i < reports.len() {
            let key = ((reports[i].time_s - origin_s) / BATCH_S).floor();
            let mut j = i + 1;
            while j < reports.len() && ((reports[j].time_s - origin_s) / BATCH_S).floor() == key {
                j += 1;
            }
            let window = Window {
                index,
                range: i..j,
                accuracy: first_session && (index as usize) < self.workload.accuracy_batches(),
                // Sessions replay the same stream; the first one's spans
                // stand for all.
                spans: tally.traced && first_session && index.is_multiple_of(SPAN_EVERY),
            };
            self.window(tally, day, &window);
            i = j;
            index += 1;
            if self.workload != Workload::Backfill
                && started.elapsed().as_secs_f64() >= seconds
                && (!first_session || index as usize >= self.workload.accuracy_batches())
                && tally.freshness.pending() == 0
            {
                break;
            }
        }
        if self.workload == Workload::Backfill {
            // The backfilled day becomes visible to riders when the
            // retrained snapshot is published.
            self.train(tally, f64::from(HISTORY_DAYS) * DAY_S);
        }
        tally.measured_s += started.elapsed().as_secs_f64();
        if self.workload == Workload::Backfill && first_session {
            self.check_history(tally);
        }
        if tally.freshness.pending() > 0 {
            tally.fail(format!(
                "{} reports were never seen in a published snapshot",
                tally.freshness.pending()
            ));
        }
        self.in_phase = false;
        let after = self.server.metrics();
        let delta =
            |name: &str| after.counter_family_total(name) - before.counter_family_total(name);
        let l = &mut tally.layers;
        l.reports_total += delta("wilocator_reports_total");
        l.fixes_total += delta("wilocator_fixes_total");
        l.nearest_total += delta("svd_fix_nearest_signature_total");
        l.dead_reckoned_total += delta("svd_fix_dead_reckoned_total");
        l.publishes_total += delta("wilocator_snapshot_publish_total");
    }

    /// `backfill`: every committed traversal has positive duration, and
    /// the trained predictor gives a finite arrival on every route.
    fn check_history(&self, tally: &mut Tally) {
        let bad = self.server.with_store(|store| {
            store
                .edges()
                .flat_map(|e| store.traversals(e).iter())
                .filter(|t| t.travel_time().is_nan() || t.travel_time() <= 0.0)
                .count()
        });
        if bad > 0 {
            tally.fail(format!(
                "{bad} committed traversals have no positive duration"
            ));
        }
        let at = f64::from(HISTORY_DAYS) * DAY_S + 8.0 * 3_600.0;
        for route in &self.scn.city.routes {
            match self
                .server
                .predict_arrival_at(route.id(), 0.0, at, route.length())
            {
                Ok(eta) if eta.is_finite() && eta > at => {}
                other => tally.fail(format!("trained prediction over {}: {other:?}", route.id())),
            }
        }
    }

    /// Rebuilds a bus's shadows from its published trajectory so far: the
    /// shadow filter and tracker replay the reports the bus has sent.
    fn attach_shadow(&mut self, bus: BusKey, day: usize) {
        self.register_shadow(bus);
        let (_, phase_start_s, _) = self.phase();
        let d = &self.scn.days[day];
        let Some(shadow) = self.shadows.get_mut(&bus) else {
            return;
        };
        for report in d.reports.iter().filter(|r| r.bus == bus) {
            if report.time_s >= phase_start_s {
                break;
            }
            let ranks = report.positioning_ranks(1);
            if report.time_s >= shadow.last_fix_s {
                if let Some(fix) = shadow.filter.step(&ranks, report.time_s) {
                    shadow.last_fix_s = fix.time_s;
                }
            }
            shadow.tracker.ingest(report);
        }
    }

    /// The day the measured phase streams, the stream time it starts at
    /// (also the origin of its 10 s windows), and its first report.
    fn phase(&self) -> (usize, f64, usize) {
        let (day, start_s) = match self.workload {
            Workload::Backfill => (1, DAY_S + BACKFILL_SETUP_TOD_S),
            Workload::Live | Workload::Riders => (HISTORY_DAYS as usize, self.scn.rush_start_s),
        };
        let from = self.scn.days[day]
            .reports
            .partition_point(|r| r.time_s < start_s);
        (day, start_s, from)
    }

    fn register_shadow(&mut self, bus: BusKey) {
        let route = self.scn.trips[bus.0 as usize].route;
        let positioner = self
            .server
            .positioner(route)
            .expect("served route")
            .clone()
            // Shadows count into their own ledger, so the server's
            // positioning counters stay its own.
            .with_metrics(PositioningMetrics::shared());
        self.shadows.insert(
            bus,
            Shadow {
                filter: TrackingFilter::new(positioner.clone()),
                tracker: BusTracker::new(positioner),
                last_fix_s: f64::NEG_INFINITY,
            },
        );
    }

    fn window(&mut self, tally: &mut Tally, day: usize, w: &Window) {
        let scn = self.scn;
        let d = &scn.days[day];
        let window_start = Instant::now();
        for i in w.range.clone() {
            if d.meta[i].first {
                self.register(tally, d.reports[i].bus);
            }
        }
        let lock_before = tally.traced.then(|| lock_hold_us(&self.server));
        let mut publish_call: Option<(f64, u64)> = None;
        match self.workload {
            Workload::Backfill => {
                for i in w.range.clone() {
                    let report = &d.reports[i];
                    let usage = Usage::now();
                    let start = Instant::now();
                    let result = self.server.ingest(report);
                    let end = Instant::now();
                    tally
                        .freshness
                        .handed(report.time_s, tally.since_origin(start));
                    tally.ingest_s += (end - start).as_secs_f64();
                    if tally.traced {
                        tally.layers.server_ingest_s += (end - start).as_secs_f64();
                        tally.layers.server_allocs += Usage::now().since(usage).0;
                    }
                    if w.spans {
                        tally.spans.push(
                            "server.ingest",
                            PID_BATCH,
                            w.index,
                            Some("batch"),
                            start,
                            end,
                        );
                    }
                    let fix = self.on_result(tally, day, i, result, w);
                    if tally.traced {
                        self.shadow_ingest(tally, day, i, fix, w);
                    }
                    if let Some(fix) = fix {
                        self.sample_predictions(tally, day, i, &fix, w.accuracy);
                    }
                }
            }
            Workload::Live | Workload::Riders => {
                let batch = &d.reports[w.range.clone()];
                let usage = Usage::now();
                let start = Instant::now();
                let handed_at = tally.since_origin(start);
                for report in batch {
                    tally.freshness.handed(report.time_s, handed_at);
                }
                let results = self.server.ingest_batch(batch);
                let end = Instant::now();
                let (allocs, bytes) = Usage::now().since(usage);
                tally.ingest_s += (end - start).as_secs_f64();
                publish_call = Some(((end - start).as_secs_f64() * 1e3, bytes));
                if w.spans {
                    tally.spans.push(
                        "server.ingest_batch",
                        PID_BATCH,
                        w.index,
                        Some("batch"),
                        start,
                        end,
                    );
                }
                if tally.traced {
                    tally.layers.server_allocs += allocs;
                }
                for (k, result) in results.into_iter().enumerate() {
                    let i = w.range.start + k;
                    let fix = self.on_result(tally, day, i, result, w);
                    if tally.traced {
                        self.shadow_ingest(tally, day, i, fix, w);
                    }
                }
            }
        }
        self.handed += w.range.len() as u64;
        tally.phase_reports += w.range.len() as u64;
        tally.attempted += w.range.len() as u64;
        let mut publish_ms = None;
        if let Some(before) = lock_before {
            let hold_ms = (lock_hold_us(&self.server) - before) as f64 / 1e3;
            tally.layers.batch_lock_ms.push(hold_ms);
            if let Some((call_ms, bytes)) = publish_call {
                tally.layers.server_ingest_s += hold_ms / 1e3;
                publish_ms = Some((call_ms - hold_ms, bytes));
            }
        }
        self.observe(tally, Some(w), publish_ms);
        for i in w.range.clone() {
            if d.meta[i].last {
                self.finish(tally, d.reports[i].bus);
            }
        }
        self.due_requests += w.range.len() as f64 * self.workload.requests_per_report();
        if self.due_requests >= BURST_REQUESTS {
            let count = self.due_requests.floor();
            self.due_requests -= count;
            self.requests(tally, count as u64, w);
        }
        if w.spans {
            tally.spans.push(
                "batch",
                PID_BATCH,
                w.index,
                None,
                window_start,
                Instant::now(),
            );
        }
    }

    /// Books one ingest result: failures, fix checks, positioning error.
    fn on_result(
        &mut self,
        tally: &mut Tally,
        day: usize,
        i: usize,
        result: Result<Option<Fix>, wilocator_core::CoreError>,
        w: &Window,
    ) -> Option<Fix> {
        let d = &self.scn.days[day];
        let report = &d.reports[i];
        match result {
            Err(e) => {
                tally.failed_op(format!("ingest of {}: {e}", report.bus));
                None
            }
            Ok(None) => None,
            Ok(Some(fix)) => {
                self.fixes_seen += 1;
                let length = self
                    .scn
                    .route_of(report.bus)
                    .map_or(f64::NAN, Route::length);
                if !(fix.s >= 0.0 && fix.s <= length) {
                    tally.fail(format!(
                        "{} fixed off its route at s = {} m",
                        report.bus, fix.s
                    ));
                }
                if w.accuracy {
                    tally.pos_err_m.push((fix.s - d.meta[i].true_s).abs());
                }
                Some(fix)
            }
        }
    }

    /// `backfill` arrival predictions: for one fix in
    /// [`BACKFILL_ETA_EVERY`], every stop up to [`BACKFILL_STOPS_AHEAD`]
    /// ahead, against the simulated arrival. Every pass makes them, so
    /// passes cost the same; the first pass's errors are kept.
    fn sample_predictions(
        &mut self,
        tally: &mut Tally,
        day: usize,
        i: usize,
        fix: &Fix,
        keep: bool,
    ) {
        if !self.fixes_seen.is_multiple_of(BACKFILL_ETA_EVERY) {
            return;
        }
        let report = &self.scn.days[day].reports[i];
        let trip = &self.scn.trips[report.bus.0 as usize];
        let (Some(route), Some(truth)) = (self.scn.city.route(trip.route), trip.truth.as_ref())
        else {
            return;
        };
        for stop in route.stops_after(fix.s).take(BACKFILL_STOPS_AHEAD) {
            let start = Instant::now();
            let eta = self
                .server
                .predict_arrival_at(trip.route, fix.s, fix.time_s, stop.s());
            let took = start.elapsed().as_secs_f64();
            match eta {
                Ok(eta) if eta.is_finite() && eta >= fix.time_s => {
                    if keep {
                        tally
                            .eta_err_s
                            .push((eta - true_arrival(truth, stop.s())).abs());
                    }
                    tally.layers.predict_calls_s += took;
                    tally.layers.predict_calls += 1;
                }
                other => tally.fail(format!(
                    "prediction for {} at {}: {other:?}",
                    report.bus,
                    stop.id()
                )),
            }
        }
    }

    /// Traced: rank, locate and track the same report on the bus's shadow
    /// state, and check that the shadows reach the server's fix.
    fn shadow_ingest(
        &mut self,
        tally: &mut Tally,
        day: usize,
        i: usize,
        fix: Option<Fix>,
        w: &Window,
    ) {
        let report = &self.scn.days[day].reports[i];
        let Some(shadow) = self.shadows.get_mut(&report.bus) else {
            tally.fail(format!("no shadow for {}", report.bus));
            return;
        };
        tally.layers.reports += 1;
        let usage = Usage::now();
        let t0 = Instant::now();
        let ranks = report.positioning_ranks(1);
        let t1 = Instant::now();
        tally.layers.rank_allocs += Usage::now().since(usage).0;
        tally.layers.rank_s += (t1 - t0).as_secs_f64();
        // The tracker drops a report older than its last fix before
        // ranking; the shadow filter does the same.
        let t2 = Instant::now();
        let filtered = if report.time_s >= shadow.last_fix_s {
            shadow.filter.step(&ranks, report.time_s)
        } else {
            None
        };
        let t3 = Instant::now();
        tally.layers.locate_s += (t3 - t2).as_secs_f64();
        if let Some(f) = filtered {
            shadow.last_fix_s = f.time_s;
        }
        let t4 = Instant::now();
        let tracked = shadow.tracker.ingest(report);
        let t5 = Instant::now();
        tally.layers.tracker_s += (t5 - t4).as_secs_f64();
        if filtered != fix || tracked != fix {
            tally.fail(format!(
                "shadows of {} at {} s diverged: server {fix:?}, filter {filtered:?}, tracker {tracked:?}",
                report.bus, report.time_s
            ));
        }
        if w.spans {
            tally
                .spans
                .push("rank", PID_BATCH, w.index, Some("batch"), t0, t1);
            tally
                .spans
                .push("locate", PID_BATCH, w.index, Some("batch"), t2, t3);
            tally
                .spans
                .push("tracker", PID_BATCH, w.index, Some("batch"), t4, t5);
        }
    }

    /// Looks at the published snapshot: freshness, and on a new epoch the
    /// snapshot checks. `publish` is the publishing call's time and bytes,
    /// counted only inside a measured phase.
    fn observe(&mut self, tally: &mut Tally, w: Option<&Window>, publish: Option<(f64, u64)>) {
        let snap = self.server.query_snapshot();
        if self.in_phase {
            tally
                .freshness
                .observe(snap.published_at_s, tally.since_origin(Instant::now()));
        }
        if snap.epoch != self.last_epoch {
            let publish = publish.filter(|_| self.in_phase);
            self.on_publish(tally, &snap, w, publish);
        }
    }

    /// Checks a newly published snapshot; collects `live`'s arrival errors;
    /// traced, times the publish path's layers on the same state.
    fn on_publish(
        &mut self,
        tally: &mut Tally,
        snap: &QuerySnapshot,
        w: Option<&Window>,
        publish: Option<(f64, u64)>,
    ) {
        let metrics = self.server.metrics();
        let publishes = metrics.counter_family_total("wilocator_snapshot_publish_total");
        if snap.epoch - self.last_epoch != publishes - self.last_publishes {
            tally.fail(format!(
                "epoch moved {} → {} over {} publishes",
                self.last_epoch,
                snap.epoch,
                publishes - self.last_publishes
            ));
        }
        self.last_epoch = snap.epoch;
        self.last_publishes = publishes;
        let accuracy = self.workload == Workload::Live && w.is_some_and(|w| w.accuracy);
        for ((route_id, stop_id), entries) in &snap.arrivals {
            let Some(route) = self.scn.city.route(*route_id) else {
                tally.fail(format!("snapshot names unknown {route_id}"));
                continue;
            };
            let Some(stop) = route.stop(*stop_id) else {
                tally.fail(format!("snapshot names unknown {stop_id} on {route_id}"));
                continue;
            };
            if entries.windows(2).any(|p| p[0].eta_s > p[1].eta_s) {
                tally.fail(format!(
                    "arrival table of {stop_id} on {route_id} is not sorted"
                ));
            }
            for e in entries {
                let Some(view) = snap.buses.get(&e.bus) else {
                    tally.fail(format!("{} in a table but not in the snapshot", e.bus));
                    continue;
                };
                if e.from_fix_time_s != view.fix.time_s
                    || view.fix.s >= stop.s()
                    || !e.eta_s.is_finite()
                    || e.eta_s < view.fix.time_s
                {
                    tally.fail(format!(
                        "entry {e:?} at {stop_id} on {route_id} against fix {:?}",
                        view.fix
                    ));
                    continue;
                }
                if accuracy {
                    if let Some(truth) = self.scn.trips[e.bus.0 as usize].truth.as_ref() {
                        tally
                            .eta_err_s
                            .push((e.eta_s - true_arrival(truth, stop.s())).abs());
                    }
                }
            }
        }
        for route in &self.scn.city.routes {
            let segments = snap.traffic(route.id()).map_or(0, <[_]>::len);
            if segments != route.edges().len() {
                tally.fail(format!(
                    "{} has {segments} traffic states for {} segments",
                    route.id(),
                    route.edges().len()
                ));
            }
        }
        if tally.traced {
            self.shadow_publish(tally, snap, w, publish, &metrics);
        }
    }

    /// Traced: the traffic maps and arrival tables of the snapshot just
    /// published, recomputed through the server's own entry points on the
    /// state it was built from, and compared with it.
    fn shadow_publish(
        &mut self,
        tally: &mut Tally,
        snap: &QuerySnapshot,
        w: Option<&Window>,
        publish: Option<(f64, u64)>,
        metrics: &MetricsSnapshot,
    ) {
        let spans = w.is_some_and(|w| w.spans);
        let tid = w.map_or(0, |w| w.index);
        let t0 = Instant::now();
        for route in &self.scn.city.routes {
            match self.server.traffic_map(route.id(), snap.published_at_s) {
                Ok(states) if snap.traffic(route.id()) == Some(states.as_slice()) => {}
                other => tally.fail(format!(
                    "traffic map of {} differs from the snapshot: {other:?}",
                    route.id()
                )),
            }
        }
        let t1 = Instant::now();
        let mut etas = 0u64;
        for route in &self.scn.city.routes {
            for stop in route.stops() {
                let list = self
                    .server
                    .arrivals_at(route.id(), stop.id())
                    .unwrap_or_default();
                etas += list.len() as u64;
                let published = snap.arrivals(route.id(), stop.id()).unwrap_or_default();
                let same = list.len() == published.len()
                    && list
                        .iter()
                        .zip(published)
                        .all(|(a, b)| a.0 == b.bus && a.1 == b.eta_s);
                if !same {
                    tally.fail(format!(
                        "arrivals at {} on {} differ from the snapshot",
                        stop.id(),
                        route.id()
                    ));
                }
            }
        }
        let t2 = Instant::now();
        let traffic_ms = (t1 - t0).as_secs_f64() * 1e3;
        let arrivals_ms = (t2 - t1).as_secs_f64() * 1e3;
        let l = &mut tally.layers;
        l.traffic_ms.push(traffic_ms);
        l.traffic_records += metrics.counter_family_total("wilocator_traversals_committed_total");
        l.arrivals_ms.push(arrivals_ms);
        l.etas += etas;
        if let Some((publish_ms, bytes)) = publish {
            l.publish_ms.push(publish_ms);
            l.publish_bytes += bytes;
            l.self_ms.push(publish_ms - traffic_ms - arrivals_ms);
        }
        if spans {
            tally
                .spans
                .push("traffic_map", PID_BATCH, tid, Some("batch"), t0, t1);
            tally
                .spans
                .push("predict.arrivals", PID_BATCH, tid, Some("batch"), t1, t2);
        }
    }

    /// Sends `count` rider requests and checks every answer.
    fn requests(&mut self, tally: &mut Tally, count: u64, w: &Window) {
        let snap = self.server.query_snapshot();
        let buses: Vec<BusKey> = snap
            .buses
            .keys()
            .copied()
            .filter(|b| self.in_service.get(b.0 as usize).copied().unwrap_or(false))
            .collect();
        let first = tally.query_us.len();
        for _ in 0..count {
            let n = tally.requests;
            tally.requests += 1;
            let op = pick_op(tally.seed, n, &self.stops, &buses, &self.routes);
            let bytes = Client::request_bytes(&op.target());
            let client = self.client.as_mut().expect("connected");
            let start = Instant::now();
            let answer = client.round_trip(&bytes);
            let end = Instant::now();
            tally.attempted += 1;
            self.sent[op.endpoint() as usize] += 1;
            let answer = match answer {
                Ok(a) if a.status == 200 && a.body.len() == a.content_length => a,
                other => {
                    tally.failed_op(format!("{}: {other:?}", op.target()));
                    let addr = self
                        .front
                        .as_ref()
                        .map(ServerHandle::local_addr)
                        .expect("front end runs");
                    self.client = Client::connect(addr).ok();
                    continue;
                }
            };
            tally.round_trips_s += (end - start).as_secs_f64();
            let round_trip_us = (end - start).as_secs_f64() * 1e6;
            tally.query_us.push(round_trip_us);
            let body = String::from_utf8_lossy(&answer.body);
            match parse_json(&body) {
                Ok(doc) => self.check_answer(tally, op, &doc, w.accuracy),
                Err(e) => {
                    tally.failed_op(format!("{}: unparsable answer: {e}", op.target()));
                    continue;
                }
            }
            if tally.traced && n.is_multiple_of(SHADOW_REQUEST_EVERY) {
                self.shadowed[op.endpoint() as usize] += 1;
                let span = n
                    .is_multiple_of(SHADOW_REQUEST_EVERY * SPAN_EVERY)
                    .then_some((n, start, end));
                self.shadow_request(tally, op, &bytes, &answer.body, round_trip_us, span);
            }
        }
        let mut burst = tally.query_us[first..].to_vec();
        if let Some(p99) = percentile(&mut burst, 99.0) {
            tally.burst_p99_us.push(p99);
        }
    }

    fn check_answer(&self, tally: &mut Tally, op: Op, doc: &Json, accuracy: bool) {
        match op {
            Op::Arrivals { route, stop_s, .. } => {
                let Some(Json::Arr(blocks)) = doc.get("routes") else {
                    tally.fail(format!("{}: no routes", op.target()));
                    return;
                };
                if blocks.len() != 1
                    || blocks[0].get("route").and_then(Json::as_str)
                        != Some(route.to_string().as_str())
                {
                    tally.fail(format!("{}: expected one block for {route}", op.target()));
                    return;
                }
                let Some(Json::Arr(list)) = blocks[0].get("arrivals") else {
                    tally.fail(format!("{}: no arrivals list", op.target()));
                    return;
                };
                let mut last = f64::NEG_INFINITY;
                for entry in list {
                    let eta = entry
                        .get("eta_s")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN);
                    let bus = entry
                        .get("bus")
                        .and_then(Json::as_str)
                        .and_then(|b| b.strip_prefix("bus"))
                        .and_then(|b| b.parse::<u64>().ok());
                    if eta.is_nan() || eta < last {
                        tally.fail(format!(
                            "{}: list not sorted or ETA not finite",
                            op.target()
                        ));
                        return;
                    }
                    last = eta;
                    let truth = bus
                        .and_then(|b| self.scn.trips.get(b as usize))
                        .and_then(|t| t.truth.as_ref());
                    match truth {
                        Some(truth) if accuracy && self.workload == Workload::Riders => {
                            tally
                                .eta_err_s
                                .push((eta - true_arrival(truth, stop_s)).abs());
                        }
                        Some(_) => {}
                        None => tally.fail(format!("{}: unknown bus {bus:?}", op.target())),
                    }
                }
            }
            Op::Position { bus } => {
                let fix = doc.get("fix");
                let s = fix
                    .and_then(|f| f.get("s"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let t = fix
                    .and_then(|f| f.get("time_s"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let Some(truth) = self.scn.trips[bus.0 as usize].truth.as_ref() else {
                    tally.fail(format!("{}: no ground truth", op.target()));
                    return;
                };
                let err = (s - true_s_at(truth, t)).abs();
                tally.worst_position_m = tally.worst_position_m.max(err);
                if err.is_nan() || err > POSITION_ENVELOPE_M {
                    tally.fail(format!(
                        "{}: s = {s} m at {t} s is {err} m from the truth",
                        op.target()
                    ));
                }
            }
            Op::Traffic { route } => {
                let segments = match doc.get("segments") {
                    Some(Json::Arr(s)) => s.len(),
                    _ => 0,
                };
                let want = self.scn.city.route(route).map_or(0, |r| r.edges().len());
                if segments != want {
                    tally.fail(format!(
                        "{}: {segments} states for {want} segments",
                        op.target()
                    ));
                }
            }
        }
    }

    /// Traced: parse and answer the same request in-process; the round
    /// trip minus both is the transport's share.
    fn shadow_request(
        &mut self,
        tally: &mut Tally,
        op: Op,
        bytes: &[u8],
        body: &[u8],
        round_trip_us: f64,
        span: Option<(u64, Instant, Instant)>,
    ) {
        let t0 = Instant::now();
        let parsed = parse_request(bytes, &HttpLimits::default());
        let t1 = Instant::now();
        let Ok(Some((request, _))) = parsed else {
            tally.fail(format!(
                "{}: the request does not parse in-process",
                op.target()
            ));
            return;
        };
        let usage = Usage::now();
        let t2 = Instant::now();
        let response = respond(&self.server, &request);
        let t3 = Instant::now();
        let l = &mut tally.layers;
        l.respond_allocs += Usage::now().since(usage).0;
        let parse_us = (t1 - t0).as_secs_f64() * 1e6;
        let respond_us = (t3 - t2).as_secs_f64() * 1e6;
        l.parse_us.push(parse_us);
        l.respond_us.push(respond_us);
        l.respond_by_endpoint[op.endpoint() as usize].push(respond_us);
        l.response_bytes += body.len() as u64;
        l.transport_us.push(round_trip_us - parse_us - respond_us);
        if response.status != 200 || response.body.as_bytes() != body {
            tally.fail(format!(
                "{}: the in-process answer differs from the one served",
                op.target()
            ));
        }
        if let Some((n, start, end)) = span {
            let spans = &mut tally.spans;
            spans.push("roundtrip", PID_REQUEST, n, Some("request"), start, end);
            spans.push("http.parse", PID_REQUEST, n, Some("request"), t0, t1);
            spans.push("service.respond", PID_REQUEST, n, Some("request"), t2, t3);
            spans.push("request", PID_REQUEST, n, None, start, t3);
        }
    }

    /// Cross-checks the server's counters, stops the front end and drops
    /// the server, measuring the heap it releases.
    fn teardown(mut self, tally: &mut Tally) {
        self.client = None;
        let m = self.server.metrics();
        let reports = m.counter_family_total("wilocator_reports_total");
        let outcomes = m.counter_family_total("wilocator_reports_stale_total")
            + m.counter_family_total("wilocator_reports_absorbed_total")
            + m.counter_family_total("wilocator_fixes_total");
        if reports != self.handed || outcomes != reports {
            tally.fail(format!(
                "wilocator_reports_total {reports}, handed {}, stale + absorbed + fixes {outcomes}",
                self.handed
            ));
        }
        // Traced runs answer some requests a second time in-process.
        for e in Endpoint::ALL {
            let counted = m.counter(&format!(
                "wilocator_queries_total{{endpoint=\"{}\"}}",
                e.label()
            ));
            let (sent, shadowed) = (self.sent[e as usize], self.shadowed[e as usize]);
            if counted != sent + shadowed {
                tally.fail(format!(
                    "wilocator_queries_total{{endpoint=\"{}\"}} is {counted}, sent {sent}, answered in-process {shadowed}",
                    e.label(),
                ));
            }
        }
        let not_found = m.counter_family_total("wilocator_query_not_found_total");
        if not_found != 0 {
            tally.fail(format!("wilocator_query_not_found_total is {not_found}"));
        }
        drop(m);
        if let Some(front) = self.front.take() {
            front.shutdown();
        }
        self.shadows.clear();
        self.shadows.shrink_to_fit();
        let before = Usage::now().live_bytes;
        match Arc::try_unwrap(self.server) {
            Ok(server) => drop(server),
            Err(_) => tally.fail("the server outlived its front end".to_string()),
        }
        let after = Usage::now().live_bytes;
        tally
            .heap_mb
            .push(before.saturating_sub(after) as f64 / 1e6);
    }
}

fn pct(values: &mut [f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or(f64::NAN)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

fn end_to_end_metrics(t: &mut Tally) -> Vec<Metric> {
    let mut freshness_ms: Vec<f64> = t.freshness.samples.iter().map(|s| s * 1e3).collect();
    vec![
        Metric {
            name: "setup_s",
            value: pct(&mut t.setup_s, 50.0),
            unit: "s",
        },
        Metric {
            name: "ingest_reports_per_s",
            value: ratio(t.phase_reports as f64, t.ingest_s),
            unit: "reports/s",
        },
        Metric {
            name: "freshness_ms_p50",
            value: pct(&mut freshness_ms, 50.0),
            unit: "ms",
        },
        Metric {
            name: "freshness_ms_p90",
            value: pct(&mut freshness_ms, 90.0),
            unit: "ms",
        },
        Metric {
            name: "query_us_p50",
            value: pct(&mut t.query_us, 50.0),
            unit: "us",
        },
        // A burst that meets a neighbour's load on a shared host moves one
        // sample of this median, not the metric.
        Metric {
            name: "query_us_p99",
            value: pct(&mut t.burst_p99_us, 50.0),
            unit: "us",
        },
        Metric {
            name: "pos_err_m_p50",
            value: pct(&mut t.pos_err_m, 50.0),
            unit: "m",
        },
        Metric {
            name: "eta_err_s_p50",
            value: pct(&mut t.eta_err_s, 50.0),
            unit: "s",
        },
        Metric {
            name: "server_heap_mb",
            value: pct(&mut t.heap_mb, 50.0),
            unit: "MB",
        },
    ]
}

fn layer_metrics(t: &mut Tally) -> Vec<Metric> {
    let l = &mut t.layers;
    let reports = l.reports as f64;
    let us_per_report = |s: f64| ratio(s * 1e6, reports);
    let server_us = us_per_report(l.server_ingest_s);
    let tracker_us = us_per_report(l.tracker_s);
    let publishes = l.publish_ms.len() as f64;
    let requests = l.respond_us.len() as f64;
    let traffic_s: f64 = l.traffic_ms.iter().sum::<f64>() / 1e3;
    let arrivals_s: f64 = l.arrivals_ms.iter().sum::<f64>() / 1e3;
    vec![
        Metric {
            name: "rank.us_per_report",
            value: us_per_report(l.rank_s),
            unit: "us",
        },
        Metric {
            name: "rank.allocs_per_report",
            value: ratio(l.rank_allocs as f64, reports),
            unit: "count",
        },
        Metric {
            name: "locate.us_per_report",
            value: us_per_report(l.locate_s),
            unit: "us",
        },
        Metric {
            name: "locate.fixes_per_report",
            value: ratio(l.fixes_total as f64, l.reports_total as f64),
            unit: "ratio",
        },
        Metric {
            name: "locate.nearest_fallbacks_per_fix",
            value: ratio(l.nearest_total as f64, l.fixes_total as f64),
            unit: "ratio",
        },
        Metric {
            name: "locate.dead_reckoned_per_fix",
            value: ratio(l.dead_reckoned_total as f64, l.fixes_total as f64),
            unit: "ratio",
        },
        Metric {
            name: "tracker.us_per_report",
            value: tracker_us,
            unit: "us",
        },
        Metric {
            name: "server.ingest_us_per_report",
            value: server_us,
            unit: "us",
        },
        Metric {
            name: "server.self_us_per_report",
            value: server_us - tracker_us,
            unit: "us",
        },
        Metric {
            name: "server.allocs_per_report",
            value: ratio(l.server_allocs as f64, reports),
            unit: "count",
        },
        Metric {
            name: "route_index.build_s",
            value: l.route_index_build_s,
            unit: "s",
        },
        Metric {
            name: "predict.train_ms",
            value: mean(&l.train_ms),
            unit: "ms",
        },
        Metric {
            name: "server.batch_lock_ms_p50",
            value: pct(&mut l.batch_lock_ms, 50.0),
            unit: "ms",
        },
        Metric {
            name: "snapshot.publish_ms_p50",
            value: pct(&mut l.publish_ms, 50.0),
            unit: "ms",
        },
        Metric {
            name: "snapshot.publish_ms_p90",
            value: pct(&mut l.publish_ms, 90.0),
            unit: "ms",
        },
        Metric {
            name: "snapshot.publishes_per_report",
            value: ratio(l.publishes_total as f64, l.reports_total as f64),
            unit: "ratio",
        },
        Metric {
            name: "snapshot.alloc_mb_per_publish",
            value: ratio(l.publish_bytes as f64 / 1e6, publishes),
            unit: "MB",
        },
        Metric {
            name: "snapshot.self_ms_per_publish",
            value: mean(&l.self_ms),
            unit: "ms",
        },
        Metric {
            name: "traffic_map.ms_per_publish",
            value: mean(&l.traffic_ms),
            unit: "ms",
        },
        Metric {
            name: "traffic_map.ns_per_history_record",
            value: ratio(traffic_s * 1e9, l.traffic_records as f64),
            unit: "ns",
        },
        Metric {
            name: "predict.arrivals_ms_per_publish",
            value: mean(&l.arrivals_ms),
            unit: "ms",
        },
        Metric {
            name: "predict.us_per_eta",
            value: ratio(
                (arrivals_s + l.predict_calls_s) * 1e6,
                (l.etas + l.predict_calls) as f64,
            ),
            unit: "us",
        },
        Metric {
            name: "http.parse_us_p50",
            value: pct(&mut l.parse_us, 50.0),
            unit: "us",
        },
        Metric {
            name: "service.respond_us_p50",
            value: pct(&mut l.respond_us, 50.0),
            unit: "us",
        },
        Metric {
            name: "service.respond_us_p99",
            value: pct(&mut l.respond_us, 99.0),
            unit: "us",
        },
        Metric {
            name: "service.arrivals_us_p50",
            value: pct(&mut l.respond_by_endpoint[0], 50.0),
            unit: "us",
        },
        Metric {
            name: "service.position_us_p50",
            value: pct(&mut l.respond_by_endpoint[1], 50.0),
            unit: "us",
        },
        Metric {
            name: "service.traffic_us_p50",
            value: pct(&mut l.respond_by_endpoint[2], 50.0),
            unit: "us",
        },
        Metric {
            name: "service.response_bytes_mean",
            value: ratio(l.response_bytes as f64, requests),
            unit: "bytes",
        },
        Metric {
            name: "service.allocs_per_request",
            value: ratio(l.respond_allocs as f64, requests),
            unit: "count",
        },
        Metric {
            name: "transport.us_p50",
            value: pct(&mut l.transport_us, 50.0),
            unit: "us",
        },
        Metric {
            name: "transport.us_p99",
            value: pct(&mut l.transport_us, 99.0),
            unit: "us",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_seventy_twenty_ten() {
        let stops = [(RouteId(0), StopId(1), 100.0)];
        let buses = [BusKey(7)];
        let routes = [RouteId(0)];
        let mut counts = [0u32; 3];
        for i in 0..10_000 {
            counts[pick_op(42, i, &stops, &buses, &routes).endpoint() as usize] += 1;
        }
        assert!((6_700..7_300).contains(&counts[0]), "{counts:?}");
        assert!((1_700..2_300).contains(&counts[1]), "{counts:?}");
        assert!((800..1_200).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn with_no_bus_to_address_position_requests_fall_back_to_arrivals() {
        let stops = [(RouteId(0), StopId(1), 100.0)];
        let routes = [RouteId(0)];
        for i in 0..1_000 {
            assert_ne!(
                pick_op(1, i, &stops, &[], &routes).endpoint(),
                Endpoint::Position
            );
        }
    }
}
