//! The WiLocator back-end server (Fig. 4).
//!
//! "We shift the computation burden to the server": this type owns the
//! per-route SVD positioners, the per-bus trackers, the travel-time store,
//! the trained predictor and the traffic-map generator, and exposes the
//! operations of the paper's three components — real-time tracking,
//! arrival-time prediction and traffic-map generation.
//!
//! # Locking
//!
//! Everything ingest mutates sits behind one `RwLock`: the bus table,
//! the travel-time store, the predictor and the traffic-map generator.
//! One store serves every route, which is what Equation 8 asks for: a
//! segment's records are shared by every route that crosses it. The
//! route table and the positioners are built once and read without a
//! lock, and rider queries read the published [`QuerySnapshot`], never
//! the lock. The quality plane's ledger mutex nests inside the server
//! lock, never the other way around.

use crate::sync::{unpoisoned, Arc, RwLock};
use std::collections::HashMap;

use wilocator_obs::{
    Clock, MetricsSnapshot, MonotonicClock, Registry, TraceConfig, TraceCtx, TraceData, Tracer,
};
use wilocator_rf::{ApId, SignalField};
use wilocator_road::{Route, RouteId, StopId};
use wilocator_svd::{
    Fix, FixMethod, PositionerConfig, PositioningMetrics, RoutePositioner, RouteTileIndex,
    SvdConfig,
};

use crate::history::{TravelTimeStore, Traversal};
use crate::metrics::{QueryMetrics, ServerMetrics, ShardMetrics};
use crate::predict::{ArrivalPredictor, PredictorConfig, ResidualSource};
use crate::quality::{BusQuality, QualityConfig, QualityPlane};
use crate::report::{BusKey, RouteIdentifier, ScanReport};
use crate::snapshot::{ArrivalEntry, BusView, QuerySnapshot, SnapshotCell};
use crate::tracker::{crossing_time, BusTracker, IngestOutcome};
use crate::traffic_map::{SegmentState, TrafficMapConfig, TrafficMapGenerator};

/// Errors returned by the server API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The route id is not served by this deployment.
    UnknownRoute(RouteId),
    /// The bus key has not been registered.
    UnknownBus(BusKey),
    /// The stop id does not exist on the route.
    UnknownStop(StopId),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnknownRoute(r) => write!(f, "unknown route {r}"),
            CoreError::UnknownBus(b) => write!(f, "unknown bus {b}"),
            CoreError::UnknownStop(s) => write!(f, "unknown stop {s}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Outcome of ingesting one report: `Ok(Some(fix))` when the scan
/// anchored a position, `Ok(None)` when it was absorbed without one.
pub type IngestResult = Result<Option<Fix>, CoreError>;

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WiLocatorConfig {
    /// SVD construction parameters.
    pub svd: SvdConfig,
    /// Positioner parameters.
    pub positioner: PositionerConfig,
    /// Predictor parameters.
    pub predictor: PredictorConfig,
    /// Traffic-map parameters.
    pub traffic: TrafficMapConfig,
    /// Route sampling step for the tile index, metres.
    pub sample_step_m: f64,
    /// A traversal is committed to the store once the bus is this far past
    /// the segment end, metres (stabilises the crossing interpolation).
    pub commit_margin_m: f64,
    /// Tracing / flight-recorder parameters.
    pub trace: TraceConfig,
    /// Quality-plane (retro-prediction ledger, drift detectors)
    /// parameters.
    pub quality: QualityConfig,
}

impl Default for WiLocatorConfig {
    fn default() -> Self {
        WiLocatorConfig {
            svd: SvdConfig::default(),
            positioner: PositionerConfig::default(),
            predictor: PredictorConfig::default(),
            traffic: TrafficMapConfig::default(),
            sample_step_m: 2.0,
            commit_margin_m: 30.0,
            trace: TraceConfig::default(),
            quality: QualityConfig::default(),
        }
    }
}

#[derive(Debug)]
struct BusState {
    route: RouteId,
    tracker: BusTracker,
    committed_upto: usize,
    /// Churn set and confirmation floor, reached by the quality plane's
    /// ingest hook without a hash probe (this state rides the bus entry
    /// the hot path already fetched).
    quality: BusQuality,
}

impl BusState {
    /// Records into `store` the segment traversals the latest fix has
    /// cleared by `commit_margin_m`, scanning only segments past
    /// `committed_upto`, and returns how many it recorded. The crossing
    /// interpolation uses the first straddling fix pair, which later
    /// fixes never displace, so committing eagerly here produces the same
    /// records as re-deriving the full trip at finish time. A margin of
    /// `f64::NEG_INFINITY` clears every remaining segment: the scan then
    /// yields exactly the [`crate::tracker::segment_traversals`] records
    /// from `committed_upto` on, in the same order.
    fn drain_cleared(&mut self, store: &mut TravelTimeStore, commit_margin_m: f64) -> u64 {
        let route = self.tracker.route();
        let fixes = self.tracker.trajectory().fixes();
        let Some(fix) = fixes.last() else {
            return 0;
        };
        let mut committed = 0;
        for i in self.committed_upto..route.edges().len() {
            if route.edge_end_s(i) + commit_margin_m > fix.s {
                break;
            }
            if let (Some(t_enter), Some(t_exit)) = (
                crossing_time(fixes, route.edge_start_s(i)),
                crossing_time(fixes, route.edge_end_s(i)),
            ) {
                if t_exit > t_enter {
                    store.record(
                        route.edges()[i],
                        Traversal {
                            route: self.route,
                            t_enter,
                            t_exit,
                        },
                    );
                    committed += 1;
                    self.committed_upto = i + 1;
                }
            }
        }
        committed
    }
}

/// Everything behind the server lock: the trackers of the registered
/// buses, the travel-time records of every segment, the predictor
/// trained on those records, and the traffic-map state.
#[derive(Debug)]
struct State {
    buses: HashMap<BusKey, BusState>,
    store: TravelTimeStore,
    predictor: ArrivalPredictor,
    traffic: TrafficMapGenerator,
    /// Scratch for the quality hook's current-scan AP set, so the
    /// steady-state ingest path never allocates for churn accounting.
    quality_scratch: Vec<ApId>,
}

impl State {
    /// The arrival table of one stop at `stop_s` on `route`: every bus of
    /// the route whose latest fix is short of the stop, with its
    /// Equation 9 arrival time, soonest first. Arrival-time ties (buses
    /// at the same fix) order by bus key, so the table replays
    /// identically across processes. A `ledgered` table is a rider
    /// answer and moves the predictor's counters; publication builds
    /// its tables off the ledger.
    fn arrival_table(&self, route: &Route, stop_s: f64, ledgered: bool) -> Vec<ArrivalEntry> {
        let mut entries: Vec<ArrivalEntry> = self
            .buses
            // lint: allow(unordered_iter) — collected, then sorted by (arrival time, bus key) before returning
            .iter()
            .filter(|(_, state)| state.route == route.id())
            .filter_map(|(&bus, state)| {
                let fix = state.tracker.trajectory().last()?;
                (fix.s < stop_s).then(|| ArrivalEntry {
                    bus,
                    eta_s: if ledgered {
                        self.predictor.predict_arrival(
                            &self.store,
                            route,
                            fix.s,
                            fix.time_s,
                            stop_s,
                        )
                    } else {
                        self.predictor.predict_arrival_with(
                            &self.store,
                            route,
                            fix.s,
                            fix.time_s,
                            stop_s,
                            ResidualSource::AnyRoute,
                        )
                    },
                    from_fix_time_s: fix.time_s,
                })
            })
            .collect();
        entries.sort_by(|a, b| a.eta_s.total_cmp(&b.eta_s).then_with(|| a.bus.cmp(&b.bus)));
        entries
    }
}

/// Ring slots in the query [`SnapshotCell`]. More slots give stalled
/// readers more publish cycles of grace before a writer can block on
/// them; 2 is the functional minimum.
const SNAPSHOT_SLOTS: usize = 4;

/// Detail-sampling key for a report's trace: derived from content (bus
/// and report time), never from wall time or arrival order, so replays
/// sample the same reports at any thread count.
fn trace_key(report: &ScanReport) -> u64 {
    report.bus.0 ^ report.time_s.to_bits().rotate_left(17)
}

/// The WiLocator server.
///
/// # Examples
///
/// See the crate-level example and `examples/quickstart.rs`.
#[derive(Debug)]
pub struct WiLocator {
    config: WiLocatorConfig,
    routes: Vec<Route>,
    positioners: HashMap<RouteId, RoutePositioner>,
    identifier: RouteIdentifier,
    /// The server lock: everything ingest mutates.
    state: RwLock<State>,
    /// Ingest ledger, *outside* the lock: recording (including the
    /// lock-hold histogram) never needs it.
    ingest_metrics: Arc<ShardMetrics>,
    /// Transport accounting.
    server_metrics: Arc<ServerMetrics>,
    /// Flight recorder: one trace ring plus the tail-sampled retention
    /// buffer ([`wilocator_obs::Tracer`]). Shared with nothing but the
    /// registry; recording never takes the server lock.
    tracer: Arc<Tracer>,
    /// The epoch-published query snapshot cell: readers answer rider
    /// queries from here without ever touching the server lock.
    snapshot: SnapshotCell,
    /// Query-plane accounting (endpoint counts, publication progress,
    /// staleness); shared with the serving front end.
    query_metrics: Arc<QueryMetrics>,
    /// Quality observability plane: the retro-prediction ledger beside
    /// (never inside) the server lock, evaluated on the publish path
    /// into the snapshot's quality sections.
    quality: QualityPlane,
    /// Every ledger (server, ingest, predictor, route positioners),
    /// labelled; [`WiLocator::metrics`] gathers it into one snapshot.
    registry: Registry,
}

impl WiLocator {
    /// Builds the server: constructs the route tile indexes from the
    /// geo-tag field (the SVD construction step of Fig. 4) and registers
    /// route names for announcement-based identification.
    pub fn new<F: SignalField + ?Sized>(
        field: &F,
        routes: Vec<Route>,
        config: WiLocatorConfig,
    ) -> Self {
        Self::new_with_clocks(
            field,
            routes,
            config,
            Arc::new(MonotonicClock::new()),
            Arc::new(MonotonicClock::new()),
        )
    }

    /// [`WiLocator::new`] with an explicit span clock and a separate
    /// query-plane clock. Deterministic replay harnesses pass a
    /// [`wilocator_obs::SteppingClock`] as the span clock so span
    /// durations — and therefore slow-path tail sampling — reproduce
    /// byte-identically; production callers use the monotonic default.
    ///
    /// The span clock is consumed one reading per span; snapshot
    /// publication must not read from it, or publish cadence would shift
    /// every later span stamp and break deterministic trace goldens. So
    /// staleness and query latency run on their own clock — wall time by
    /// default, a stepping clock in staleness-bound tests.
    pub fn new_with_clocks<F: SignalField + ?Sized>(
        field: &F,
        routes: Vec<Route>,
        config: WiLocatorConfig,
        clock: Arc<dyn Clock>,
        query_clock: Arc<dyn Clock>,
    ) -> Self {
        let registry = Registry::new();
        let mut positioners = HashMap::new();
        let mut identifier = RouteIdentifier::new();
        for route in &routes {
            let index = RouteTileIndex::build(field, route, config.svd, config.sample_step_m);
            let pos_metrics = PositioningMetrics::shared();
            registry.register(
                format!("route=\"{}\"", route.id().0),
                pos_metrics.clone() as Arc<dyn wilocator_obs::Collect>,
            );
            positioners.insert(
                route.id(),
                RoutePositioner::new(route.clone(), index, config.positioner)
                    .with_metrics(pos_metrics),
            );
            identifier.register(route.id(), route.name());
        }
        let ingest_metrics = ShardMetrics::shared();
        registry.register(
            "",
            ingest_metrics.clone() as Arc<dyn wilocator_obs::Collect>,
        );
        let predictor = ArrivalPredictor::new(config.predictor);
        registry.register(
            "",
            predictor.metrics().clone() as Arc<dyn wilocator_obs::Collect>,
        );
        let state = RwLock::new(State {
            buses: HashMap::new(),
            store: TravelTimeStore::new(),
            predictor,
            traffic: TrafficMapGenerator::new(config.traffic),
            quality_scratch: Vec::new(),
        });
        let server_metrics = ServerMetrics::shared();
        registry.register(
            "",
            server_metrics.clone() as Arc<dyn wilocator_obs::Collect>,
        );
        // One trace ring: ingest spans already finish one at a time
        // under the server lock, and query spans are sampled.
        let tracer = Arc::new(Tracer::new(config.trace, 1, clock));
        registry.register("", tracer.clone() as Arc<dyn wilocator_obs::Collect>);
        let quality = QualityPlane::new(config.quality);
        registry.register(
            "",
            quality.metrics().clone() as Arc<dyn wilocator_obs::Collect>,
        );
        let query_metrics = QueryMetrics::new(query_clock);
        registry.register("", query_metrics.clone() as Arc<dyn wilocator_obs::Collect>);
        WiLocator {
            config,
            routes,
            positioners,
            identifier,
            state,
            ingest_metrics,
            server_metrics,
            tracer,
            snapshot: SnapshotCell::new(SNAPSHOT_SLOTS),
            query_metrics,
            quality,
            registry,
        }
    }

    /// The served routes.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Route lookup.
    pub fn route(&self, id: RouteId) -> Option<&Route> {
        self.routes.iter().find(|r| r.id() == id)
    }

    /// Registers a bus on a route (driver text input path of §V-A.1).
    /// Registering a bus that is already registered starts a new trip:
    /// the previous one ends exactly as [`WiLocator::finish_bus`] would
    /// end it, except that the bus stays active.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRoute`] for unserved routes.
    pub fn register_bus(&self, bus: BusKey, route: RouteId) -> Result<(), CoreError> {
        let positioner = self
            .positioners
            .get(&route)
            .ok_or(CoreError::UnknownRoute(route))?;
        let fresh = BusState {
            route,
            tracker: BusTracker::new(positioner.clone()),
            committed_upto: 0,
            quality: BusQuality::default(),
        };
        let state = &mut *unpoisoned(self.state.write());
        match state.buses.insert(bus, fresh) {
            Some(trip) => self.end_trip(&mut state.store, bus, trip),
            None => self.server_metrics.active_buses.inc(),
        }
        self.server_metrics.buses_registered_total.inc();
        Ok(())
    }

    /// Registers a bus from an announcement transcript (voice path of
    /// §V-A.1). Returns the identified route.
    pub fn register_bus_by_announcement(&self, bus: BusKey, transcript: &str) -> Option<RouteId> {
        let route = self.identifier.identify(transcript)?;
        self.register_bus(bus, route).ok()?;
        Some(route)
    }

    /// One report of a registered bus, with the server lock held for
    /// write: track, then commit the traversals the new fix has cleared
    /// into `store`. The outcome of every report lands in exactly one of
    /// the ingest ledger's stale/absorbed/fix counters, chosen by
    /// [`ShardMetrics::outcome_total`]. On a fix, the quality plane
    /// folds AP churn and settles pending retro-predictions (its ledger
    /// mutex nests inside the server lock — the documented order).
    // lint: hot_path(deny: blocks_or_syscalls, unbounded_iteration)
    fn ingest_locked(
        &self,
        bus: &mut BusState,
        store: &mut TravelTimeStore,
        scratch: &mut Vec<ApId>,
        report: &ScanReport,
        trace: Option<&TraceCtx<'_>>,
    ) -> Option<Fix> {
        let metrics = &self.ingest_metrics;
        metrics.reports_total.inc();
        let outcome = bus.tracker.ingest_classified_traced(report, trace);
        metrics.outcome_total(&outcome).inc();
        if let Some(t) = trace {
            t.field("route", bus.route.0);
            t.field("outcome", outcome.label());
        }
        match outcome {
            IngestOutcome::Stale | IngestOutcome::NoFix => None,
            IngestOutcome::Fix(fix) => {
                if let Some(t) = trace.filter(|_| fix.method == FixMethod::DeadReckoned) {
                    t.flag_anomaly("dead_reckoned");
                }
                if let Some(t) = trace.filter(|_| fix.method == FixMethod::NearestSignature) {
                    // The direct tile lookup missed and positioning fell
                    // back to the global nearest-signature search — the
                    // per-fix evidence behind the tile-miss drift detector.
                    t.flag_anomaly("tile_mapping_miss");
                }
                let span = trace.map(|t| t.child_span("commit"));
                let committed = bus.drain_cleared(store, self.config.commit_margin_m);
                metrics.traversals_committed_total.add(committed);
                if let Some(sp) = &span {
                    sp.field("traversals", committed);
                }
                self.quality.on_fix(
                    report,
                    &fix,
                    bus.tracker.trajectory().fixes(),
                    &mut bus.quality,
                    scratch,
                    trace,
                );
                Some(fix)
            }
        }
    }

    /// Ingests `reports` in input order under one acquisition of the
    /// server's write lock, storing each outcome in `results` (same
    /// length). Reports of unregistered buses are rejected first, in
    /// input order. The rest get a root span each and one clock read
    /// each: a report's end stamp is the next one's start, so tracing
    /// adds no clock reads, and the pair bounding the run is the
    /// lock-hold sample. A call with no registered bus records none.
    // lint: hot_path(deny: blocks_or_syscalls, unbounded_iteration)
    fn ingest_all(&self, reports: &[ScanReport], results: &mut [IngestResult]) {
        let poisoned = self.state.is_poisoned();
        let state = &mut *unpoisoned(self.state.write());
        let mut registered = false;
        for (report, result) in reports.iter().zip(results.iter_mut()) {
            if state.buses.contains_key(&report.bus) {
                registered = true;
            } else {
                *result = self.reject_unknown_bus(report.bus);
            }
        }
        if !registered {
            return;
        }
        let clock = self.tracer.clock();
        let hold_start = clock.now_us();
        let mut prev = hold_start;
        for (report, result) in reports.iter().zip(results.iter_mut()) {
            // Unregistered buses were rejected above.
            let Some(bus) = state.buses.get_mut(&report.bus) else {
                continue;
            };
            let trace = self
                .tracer
                .start_root_span_keyed(0, "ingest", prev, trace_key(report));
            if let Some(t) = &trace {
                t.field("bus", report.bus.0);
                if poisoned {
                    t.flag_anomaly("lock_poison_recovered");
                }
            }
            *result = Ok(self.ingest_locked(
                bus,
                &mut state.store,
                &mut state.quality_scratch,
                report,
                trace.as_ref(),
            ));
            let now = clock.now_us();
            if let Some(t) = trace {
                t.finish_at(now);
            }
            prev = now;
        }
        self.ingest_metrics
            .lock_hold_us
            .record(prev.saturating_sub(hold_start));
    }

    /// Rejects a report whose bus is not registered: records an
    /// anomaly-flagged root span so unknown buses show up in the flight
    /// recorder, and counts it.
    fn reject_unknown_bus(&self, bus: BusKey) -> IngestResult {
        let trace = self.tracer.start_root_span(0, "ingest");
        if let Some(t) = &trace {
            t.field("bus", bus.0);
            t.flag_anomaly("unknown_bus");
        }
        self.server_metrics.unknown_bus_total.inc();
        Err(CoreError::UnknownBus(bus))
    }

    /// Ingests one scan report, returning the new position fix.
    ///
    /// Newly completed segment traversals (the bus has moved
    /// `commit_margin_m` past a segment end) are committed to the
    /// travel-time store, feeding prediction and the traffic map.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownBus`] for unregistered buses.
    pub fn ingest(&self, report: &ScanReport) -> IngestResult {
        self.server_metrics.ingest_total.inc();
        let mut result = [Ok(None)];
        self.ingest_all(std::slice::from_ref(report), &mut result);
        let [result] = result;
        result
    }

    /// Ingests a batch of scan reports under one acquisition of the
    /// server lock, returning one result per report in input order, then
    /// publishes a snapshot.
    ///
    /// Reports are ingested in input order, so a batch produces exactly
    /// the per-bus fix sequences and store contents that the same
    /// reports would produce through [`WiLocator::ingest`] one at a
    /// time. An unregistered bus errors in place without failing the
    /// rest of the batch.
    // lint: hot_path(deny: blocks_or_syscalls, unbounded_iteration)
    pub fn ingest_batch(&self, reports: &[ScanReport]) -> Vec<IngestResult> {
        self.server_metrics.ingest_batches_total.inc();
        self.server_metrics
            .ingest_batch_reports_total
            .add(reports.len() as u64);
        self.server_metrics.batch_size.record(reports.len() as u64);
        let mut results: Vec<IngestResult> = vec![Ok(None); reports.len()];
        self.ingest_all(reports, &mut results);
        self.publish_after_batch(reports);
        results
    }

    /// Finishes a bus trip: commits all remaining traversals and removes
    /// the tracker.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownBus`] for unregistered buses.
    pub fn finish_bus(&self, bus: BusKey) -> Result<(), CoreError> {
        let state = &mut *unpoisoned(self.state.write());
        let trip = state.buses.remove(&bus).ok_or(CoreError::UnknownBus(bus))?;
        self.server_metrics.active_buses.dec();
        self.server_metrics.buses_finished_total.inc();
        let _hold = self
            .ingest_metrics
            .lock_hold_us
            .time_with(self.tracer.clock());
        self.end_trip(&mut state.store, bus, trip);
        Ok(())
    }

    /// Ends the trip whose state `trip` was just taken out of the bus
    /// table (server write lock held): drops its pending
    /// retro-predictions, which no fix of the ended trip will settle and
    /// which the next trip under the same key must neither be blocked by
    /// nor settle, then commits every traversal the trip crossed.
    fn end_trip(&self, store: &mut TravelTimeStore, bus: BusKey, mut trip: BusState) {
        self.quality.forget_bus(bus);
        let committed = trip.drain_cleared(store, f64::NEG_INFINITY);
        self.ingest_metrics
            .traversals_committed_total
            .add(committed);
    }

    /// The latest position fix of a bus.
    pub fn position(&self, bus: BusKey) -> Option<Fix> {
        let state = unpoisoned(self.state.read());
        state.buses.get(&bus)?.tracker.trajectory().last().copied()
    }

    /// The tracked trajectory fixes of a bus.
    pub fn trajectory(&self, bus: BusKey) -> Option<Vec<Fix>> {
        let state = unpoisoned(self.state.read());
        Some(state.buses.get(&bus)?.tracker.trajectory().fixes().to_vec())
    }

    /// Offline training (§V-A.3): seasonal index → slot partitions, from
    /// everything recorded before `as_of`, then a publish.
    pub fn train(&self, as_of: f64) {
        self.server_metrics.train_calls_total.inc();
        {
            let state = &mut *unpoisoned(self.state.write());
            state.predictor.train(&state.store, as_of);
        }
        self.publish_snapshot(as_of);
    }

    /// Predicts the absolute arrival time of `bus` at stop `stop` of its
    /// route (Equations 8–9), from its latest fix.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownBus`] / [`CoreError::UnknownStop`].
    pub fn predict_arrival(&self, bus: BusKey, stop: StopId) -> Result<f64, CoreError> {
        let state = unpoisoned(self.state.read());
        let tracked = state.buses.get(&bus).ok_or(CoreError::UnknownBus(bus))?;
        let route = tracked.tracker.route();
        let stop = route.stop(stop).ok_or(CoreError::UnknownStop(stop))?;
        let fix = tracked
            .tracker
            .trajectory()
            .last()
            .ok_or(CoreError::UnknownBus(bus))?;
        let trace = self.tracer.start_root_span(0, "predict_arrival");
        if let Some(t) = &trace {
            t.field("bus", bus.0);
            t.field("stop", stop.id().0);
        }
        Ok(state.predictor.predict_arrival_traced(
            &state.store,
            route,
            fix.s,
            fix.time_s,
            stop.s(),
            trace.as_ref(),
        ))
    }

    /// Predicts the arrival time at `stop_s` for a hypothetical bus of
    /// `route` at `current_s` at time `t` (used by the evaluation harness).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRoute`] for unserved routes.
    pub fn predict_arrival_at(
        &self,
        route: RouteId,
        current_s: f64,
        t: f64,
        stop_s: f64,
    ) -> Result<f64, CoreError> {
        let r = self.route(route).ok_or(CoreError::UnknownRoute(route))?;
        let state = unpoisoned(self.state.read());
        Ok(state
            .predictor
            .predict_arrival(&state.store, r, current_s, t, stop_s))
    }

    /// Rider-facing query (the paper's third component, the trip-plan
    /// interface): every active bus of `route` that has not yet passed
    /// `stop`, with its predicted arrival time, soonest first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRoute`] / [`CoreError::UnknownStop`].
    pub fn arrivals_at(
        &self,
        route: RouteId,
        stop: StopId,
    ) -> Result<Vec<(BusKey, f64)>, CoreError> {
        let r = self.route(route).ok_or(CoreError::UnknownRoute(route))?;
        let stop = r.stop(stop).ok_or(CoreError::UnknownStop(stop))?;
        Ok(unpoisoned(self.state.read())
            .arrival_table(r, stop.s(), true)
            .into_iter()
            .map(|entry| (entry.bus, entry.eta_s))
            .collect())
    }

    /// The live traffic map of a route at time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRoute`] for unserved routes.
    pub fn traffic_map(&self, route: RouteId, t: f64) -> Result<Vec<SegmentState>, CoreError> {
        let r = self.route(route).ok_or(CoreError::UnknownRoute(route))?;
        let state = unpoisoned(self.state.read());
        Ok(state
            .traffic
            .route_map(&state.store, &state.predictor, r, t))
    }

    /// Auto-publication hook: after a batch lands, publish a snapshot
    /// stamped with the newest finite report time in the batch (the
    /// publisher itself clamps the stamp monotone across racing lanes).
    /// The tracker drops non-finite stamps, so they never move the stamp.
    fn publish_after_batch(&self, reports: &[ScanReport]) {
        let mut as_of = f64::NEG_INFINITY;
        for report in reports.iter().filter(|r| r.time_s.is_finite()) {
            as_of = as_of.max(report.time_s);
        }
        if as_of.is_finite() {
            self.publish_snapshot(as_of);
        }
    }

    /// Builds and publishes a fresh immutable [`QuerySnapshot`] for
    /// stream time `as_of`, returning the new epoch.
    ///
    /// The builder takes the server's *read* lock once, computes every
    /// bus view, arrival table and traffic map from that one coherent
    /// pass, and hands the result to the snapshot cell — readers switch
    /// to it atomically and never observe a half-built view. Arrival
    /// integration runs unledgered so continuous publication never
    /// distorts the rider-facing Eq. 8/9 accounting, and nothing here
    /// emits trace spans, so deterministic replay goldens are unaffected
    /// by publish cadence.
    pub fn publish_snapshot(&self, as_of: f64) -> u64 {
        let epoch = self.snapshot.publish_with(|epoch, prev| {
            // Stream time never runs backwards across racing publishers.
            self.build_snapshot(epoch, as_of.max(prev.published_at_s))
        });
        self.query_metrics.mark_published(epoch);
        epoch
    }

    /// The latest published query snapshot. Never touches the server
    /// lock or the publish gate: one atomic load, one uncontended slot read
    /// lock, one `Arc` clone.
    pub fn query_snapshot(&self) -> Arc<QuerySnapshot> {
        self.snapshot.read()
    }

    /// The epoch of the latest published snapshot (0 before the first).
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Long-poll primitive: blocks until the published epoch exceeds
    /// `epoch` or `timeout` elapses, returning the epoch current at that
    /// point. Waiters park outside both the publish gate and the read
    /// path ([`SnapshotCell::wait_past_epoch`]).
    pub fn wait_past_epoch(&self, epoch: u64, timeout: std::time::Duration) -> u64 {
        self.snapshot.wait_past_epoch(epoch, timeout)
    }

    /// The query-plane accounting ledger (shared with the front end).
    pub fn query_metrics(&self) -> &Arc<QueryMetrics> {
        &self.query_metrics
    }

    /// Maintenance hook: runs `f` while holding the server's *write*
    /// lock. Exists so tests can prove the read path's independence from
    /// ingest: queries issued from inside `f` must still complete,
    /// because snapshot reads never acquire the server lock.
    pub fn quiesce<T>(&self, f: impl FnOnce() -> T) -> T {
        let _guard = unpoisoned(self.state.write());
        f()
    }

    /// One coherent pass under the server's read lock: every section of
    /// the snapshot is computed from the same view.
    fn build_snapshot(&self, epoch: u64, as_of: f64) -> QuerySnapshot {
        let mut snap = QuerySnapshot::stamped(epoch, as_of);
        {
            let state = unpoisoned(self.state.read());
            // lint: allow(unordered_iter) — lands in the snapshot's BTreeMap, which orders the published view by bus key
            for (&key, bus) in &state.buses {
                if let Some(&fix) = bus.tracker.trajectory().last() {
                    snap.buses.insert(
                        key,
                        BusView {
                            route: bus.route,
                            fix,
                        },
                    );
                }
            }
            for route in &self.routes {
                for stop in route.stops() {
                    let entries = state.arrival_table(route, stop.s(), false);
                    // Record the published ETAs whose lead time entered a
                    // horizon into the retro-prediction ledger (its mutex
                    // nests inside the server read lock), pulling each
                    // recipient bus's confirmation floor down to this
                    // stop so its ingest hook knows work is due.
                    self.quality.issue(
                        route.id(),
                        stop.id(),
                        stop.s(),
                        as_of,
                        &entries,
                        |bus, floor_s| {
                            if let Some(bus) = state.buses.get(&bus) {
                                bus.quality.floor_min(floor_s);
                            }
                        },
                    );
                    snap.arrivals.insert((route.id(), stop.id()), entries);
                }
                snap.traffic.insert(
                    route.id(),
                    state
                        .traffic
                        .route_map(&state.store, &state.predictor, route, as_of),
                );
            }
        }
        // Evaluate (or reuse, inside the sampling gap) the quality
        // sections after the server lock is released: the evaluation
        // pass gathers the whole registry and must not extend the
        // critical section.
        snap.quality = self.quality.sections(
            as_of,
            || self.registry.gather(),
            self.query_metrics.staleness_s(),
            || self.tracer.retained(),
        );
        snap
    }

    /// Read access to the live travel-time store (evaluation hooks).
    /// `f` runs under the server's read lock, so it must not call back
    /// into a method that writes.
    pub fn with_store<T>(&self, f: impl FnOnce(&TravelTimeStore) -> T) -> T {
        f(&unpoisoned(self.state.read()).store)
    }

    /// The positioner of a route (evaluation hooks).
    pub fn positioner(&self, route: RouteId) -> Option<&RoutePositioner> {
        self.positioners.get(&route)
    }

    /// A point-in-time snapshot of every metric the server exposes:
    /// transport counters, the ingest ledger, predictor accounting (all
    /// unlabelled), and per-route positioning accounting (labelled
    /// `route="<id>"`). Recording is lock-free; gathering reads the
    /// atomics without touching the server lock, so this is safe to call
    /// from a scrape loop while ingestion runs.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.gather()
    }

    /// The snapshot in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics().prometheus_text()
    }

    /// The flight recorder behind this server's spans.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Per-bus timeline query: every trace still held by the flight
    /// recorder (ring buffers plus the tail-sampled retention set) whose
    /// root span carries `bus` as its `bus` field, ordered by trace id
    /// (admission order).
    pub fn timeline(&self, bus: BusKey) -> Vec<TraceData> {
        self.tracer.timeline_for("bus", bus.0)
    }

    /// Everything the flight recorder currently holds as Chrome
    /// trace-event JSON — load it at `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn trace_chrome_json(&self) -> String {
        self.tracer.chrome_trace_json()
    }

    /// Everything the flight recorder currently holds in the deterministic
    /// text form used by golden tests.
    pub fn trace_text_dump(&self) -> String {
        self.tracer.text_dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::segment_traversals;
    use wilocator_geo::Point;
    use wilocator_obs::FieldValue;
    use wilocator_rf::{AccessPoint, Bssid, HomogeneousField, Reading, Scan};
    use wilocator_road::{EdgeId, NetworkBuilder};

    pub(crate) fn setup() -> (WiLocator, HomogeneousField) {
        setup_with_stops(3)
    }

    /// An 800 m street of two segments carrying route 0 with `stops`
    /// evenly spaced stops, APs every 80 m.
    fn setup_with_stops(stops: usize) -> (WiLocator, HomogeneousField) {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(400.0, 0.0));
        let n2 = b.add_node(Point::new(800.0, 0.0));
        let e0 = b.add_edge(n0, n1, None).unwrap();
        let e1 = b.add_edge(n1, n2, None).unwrap();
        let net = b.build();
        let mut route = Route::new(RouteId(0), "9", vec![e0, e1], &net).unwrap();
        route.add_stops_evenly(stops);
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
        let server = WiLocator::new(&field, vec![route], WiLocatorConfig::default());
        (server, field)
    }

    pub(crate) fn report(
        field: &HomogeneousField,
        route: &Route,
        s: f64,
        t: f64,
        bus: u64,
    ) -> ScanReport {
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

    fn drive(server: &WiLocator, field: &HomogeneousField, bus: u64, t0: f64, speed: f64) {
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(bus), RouteId(0)).unwrap();
        let mut t = t0;
        loop {
            let s = (t - t0) * speed;
            if s > route.length() {
                break;
            }
            server.ingest(&report(field, &route, s, t, bus)).unwrap();
            t += 10.0;
        }
        server.finish_bus(BusKey(bus)).unwrap();
    }

    /// Two disjoint 800 m streets, each carrying one route; a third route
    /// rides the first street's segments.
    fn setup_two_streets() -> (WiLocator, HomogeneousField) {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(400.0, 0.0));
        let n2 = b.add_node(Point::new(800.0, 0.0));
        let m0 = b.add_node(Point::new(0.0, 600.0));
        let m1 = b.add_node(Point::new(400.0, 600.0));
        let m2 = b.add_node(Point::new(800.0, 600.0));
        let e0 = b.add_edge(n0, n1, None).unwrap();
        let e1 = b.add_edge(n1, n2, None).unwrap();
        let f0 = b.add_edge(m0, m1, None).unwrap();
        let f1 = b.add_edge(m1, m2, None).unwrap();
        let net = b.build();
        let mut r0 = Route::new(RouteId(0), "9", vec![e0, e1], &net).unwrap();
        let mut r1 = Route::new(RouteId(1), "14", vec![f0, f1], &net).unwrap();
        let mut r2 = Route::new(RouteId(2), "9 express", vec![e0, e1], &net).unwrap();
        r0.add_stops_evenly(3);
        r1.add_stops_evenly(3);
        r2.add_stops_evenly(3);
        let mut aps = Vec::new();
        let mut i = 0u32;
        for y in [0.0, 600.0] {
            let mut x = 40.0;
            while x < 800.0 {
                aps.push(AccessPoint::new(
                    ApId(i),
                    Point::new(x, y + if i.is_multiple_of(2) { 15.0 } else { -15.0 }),
                ));
                i += 1;
                x += 80.0;
            }
        }
        let field = HomogeneousField::new(aps);
        let server = WiLocator::new(&field, vec![r0, r1, r2], WiLocatorConfig::default());
        (server, field)
    }

    #[test]
    fn unknown_route_and_bus_errors() {
        let (server, field) = setup();
        assert_eq!(
            server.register_bus(BusKey(1), RouteId(9)),
            Err(CoreError::UnknownRoute(RouteId(9)))
        );
        let route = server.routes()[0].clone();
        let rep = report(&field, &route, 0.0, 0.0, 2);
        assert_eq!(server.ingest(&rep), Err(CoreError::UnknownBus(BusKey(2))));
        assert_eq!(
            server.finish_bus(BusKey(2)),
            Err(CoreError::UnknownBus(BusKey(2)))
        );
    }

    #[test]
    fn announcement_registration() {
        let (server, _) = setup();
        assert_eq!(
            server.register_bus_by_announcement(BusKey(1), "route 9 bound for Boundary"),
            Some(RouteId(0))
        );
        assert!(server
            .register_bus_by_announcement(BusKey(2), "route 55")
            .is_none());
    }

    #[test]
    fn tracking_produces_positions() {
        let (server, field) = setup();
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(1), RouteId(0)).unwrap();
        for k in 0..5 {
            let t = k as f64 * 10.0;
            server
                .ingest(&report(&field, &route, t * 8.0, t, 1))
                .unwrap();
        }
        let fix = server.position(BusKey(1)).expect("tracked");
        assert!((fix.s - 320.0).abs() < 60.0, "fix at {}", fix.s);
        assert_eq!(server.trajectory(BusKey(1)).unwrap().len(), 5);
    }

    #[test]
    fn traversals_committed_to_store() {
        let (server, field) = setup();
        drive(&server, &field, 1, 0.0, 8.0);
        let (records, edges) = server.with_store(|s| (s.len(), s.edge_count()));
        assert_eq!(edges, 2, "both segments recorded");
        assert!(records >= 2);
        // Ground-truth segment time is 400 m / 8 m/s = 50 s.
        server.with_store(|s| {
            for e in s.edges().collect::<Vec<_>>() {
                for tr in s.traversals(e) {
                    // 400 m at 8 m/s = 50 s; the first segment carries
                    // extra startup-extrapolation noise.
                    assert!(
                        (tr.travel_time() - 50.0).abs() < 25.0,
                        "travel time {}",
                        tr.travel_time()
                    );
                }
            }
        });
    }

    #[test]
    fn prediction_after_history() {
        let (server, field) = setup();
        // Five buses build history.
        for b in 0..5 {
            drive(&server, &field, b, b as f64 * 400.0, 8.0);
        }
        server.train(10_000.0);
        // A new bus at the start asks for the final stop's arrival.
        server.register_bus(BusKey(99), RouteId(0)).unwrap();
        let route = server.routes()[0].clone();
        server
            .ingest(&report(&field, &route, 5.0, 3_000.0, 99))
            .unwrap();
        let final_stop = route.stops().last().unwrap().id();
        let eta = server.predict_arrival(BusKey(99), final_stop).unwrap();
        // ~800 m at 8 m/s ≈ 100 s from now.
        let offset = eta - 3_000.0;
        assert!((60.0..200.0).contains(&offset), "eta offset {offset}");
    }

    #[test]
    fn predict_arrival_at_unknown_route_errors() {
        let (server, _) = setup();
        assert!(matches!(
            server.predict_arrival_at(RouteId(7), 0.0, 0.0, 100.0),
            Err(CoreError::UnknownRoute(_))
        ));
    }

    #[test]
    fn traffic_map_has_entry_per_segment() {
        let (server, field) = setup();
        for b in 0..10 {
            drive(&server, &field, b, b as f64 * 400.0, 8.0);
        }
        let map = server.traffic_map(RouteId(0), 5_000.0).unwrap();
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn arrivals_at_lists_approaching_buses() {
        let (server, field) = setup();
        let route = server.routes()[0].clone();
        // Two buses on the road: one at 100 m, one at 600 m.
        server.register_bus(BusKey(1), RouteId(0)).unwrap();
        server.register_bus(BusKey(2), RouteId(0)).unwrap();
        server
            .ingest(&report(&field, &route, 100.0, 1_000.0, 1))
            .unwrap();
        server
            .ingest(&report(&field, &route, 600.0, 1_000.0, 2))
            .unwrap();
        // Stop mid-route at s = 400: only bus 1 is still approaching.
        let mid_stop = route.stops()[1].id();
        let arrivals = server.arrivals_at(RouteId(0), mid_stop).unwrap();
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].0, BusKey(1));
        assert!(arrivals[0].1 > 1_000.0);
        // Final stop: both approach, bus 2 arrives first.
        let last_stop = route.stops().last().unwrap().id();
        let arrivals = server.arrivals_at(RouteId(0), last_stop).unwrap();
        assert_eq!(arrivals.len(), 2);
        assert_eq!(arrivals[0].0, BusKey(2));
        assert!(arrivals[0].1 <= arrivals[1].1);
        // Unknown stop errors.
        assert!(matches!(
            server.arrivals_at(RouteId(0), StopId(99)),
            Err(CoreError::UnknownStop(_))
        ));
    }

    #[test]
    fn batch_matches_sequential_ingest() {
        let (batched, field) = setup_two_streets();
        let (sequential, _) = setup_two_streets();
        let routes: Vec<Route> = batched.routes().to_vec();
        let mut reports = Vec::new();
        for (bus, route_idx) in [(1u64, 0usize), (2, 1), (3, 2)] {
            batched
                .register_bus(BusKey(bus), routes[route_idx].id())
                .unwrap();
            sequential
                .register_bus(BusKey(bus), routes[route_idx].id())
                .unwrap();
            for k in 0..20 {
                let t = k as f64 * 10.0;
                let s = (t * 6.0).min(routes[route_idx].length());
                reports.push(report(&field, &routes[route_idx], s, t, bus));
            }
        }
        // Interleave buses within the batch while keeping per-bus order,
        // then split it in two: both halves reach both streets.
        reports.sort_by(|a, b| a.time_s.partial_cmp(&b.time_s).unwrap());
        let (first, second) = reports.split_at(reports.len() / 2);
        for batch in [first, second] {
            assert!(batched.ingest_batch(batch).iter().all(|r| r.is_ok()));
        }
        for r in &reports {
            sequential.ingest(r).unwrap();
        }
        for bus in [1u64, 2, 3] {
            assert_eq!(
                batched.trajectory(BusKey(bus)),
                sequential.trajectory(BusKey(bus)),
                "bus {bus} trajectories diverge"
            );
        }
        let records = |server: &WiLocator| {
            server.with_store(|s| {
                s.edges()
                    .map(|e| (e, s.traversals(e).to_vec()))
                    .collect::<Vec<_>>()
            })
        };
        let batched_records = records(&batched);
        // Each street's first segment is cleared; the second awaits finish.
        assert_eq!(batched_records.len(), 2);
        assert_eq!(
            batched_records,
            records(&sequential),
            "store records diverge"
        );
        let (b, q) = (batched.metrics(), sequential.metrics());
        for family in [
            "wilocator_reports_total",
            "wilocator_reports_stale_total",
            "wilocator_reports_absorbed_total",
            "wilocator_fixes_total",
            "wilocator_traversals_committed_total",
        ] {
            assert_eq!(b.counter(family), q.counter(family), "{family}");
        }
        // One lock-hold sample per batch, and one per `ingest`.
        let hold = "wilocator_shard_lock_hold_us";
        assert_eq!(b.histogram(hold).unwrap().count, 2);
        assert_eq!(
            q.histogram(hold).unwrap().count,
            q.counter("wilocator_reports_total")
        );
    }

    #[test]
    fn finish_commits_what_a_full_trip_rescan_yields() {
        // A trip to the route end clears its last segment only at finish;
        // one cut short at 500 m never crosses it at all.
        for end_s in [800.0, 500.0] {
            let (server, field) = setup();
            let route = server.routes()[0].clone();
            server.register_bus(BusKey(1), RouteId(0)).unwrap();
            for k in 0..=(end_s / 80.0) as usize {
                let t = k as f64 * 10.0;
                server
                    .ingest(&report(&field, &route, t * 8.0, t, 1))
                    .unwrap();
            }
            let fixes = server.trajectory(BusKey(1)).unwrap();
            let eager = server.with_store(|s| s.len());
            server.finish_bus(BusKey(1)).unwrap();
            // The reference: the records of re-scanning the whole trip.
            let expected: Vec<(EdgeId, Traversal)> = segment_traversals(&route, &fixes)
                .into_iter()
                .map(|tr| {
                    let traversal = Traversal {
                        route: RouteId(0),
                        t_enter: tr.t_enter,
                        t_exit: tr.t_exit,
                    };
                    (route.edges()[tr.edge_index], traversal)
                })
                .collect();
            let stored: Vec<(EdgeId, Traversal)> = server.with_store(|s| {
                s.edges()
                    .flat_map(|e| s.traversals(e).iter().map(move |&tr| (e, tr)))
                    .collect()
            });
            assert_eq!(stored, expected, "trip to {end_s} m");
            assert_eq!(
                eager, 1,
                "trip to {end_s} m: first segment commits at ingest"
            );
            let committed = server
                .metrics()
                .counter_family_total("wilocator_traversals_committed_total");
            assert_eq!(committed as usize, expected.len());
        }
    }

    #[test]
    fn re_registration_ends_the_trip_like_finish_bus() {
        // Drive bus 1 to the route end, end its trip, then read the
        // stored traversals and the trip counters.
        let end_trip = |end: &dyn Fn(&WiLocator)| {
            let (server, field) = setup();
            let route = server.routes()[0].clone();
            server.register_bus(BusKey(1), RouteId(0)).unwrap();
            for k in 0..=10 {
                let t = k as f64 * 10.0;
                server
                    .ingest(&report(&field, &route, t * 8.0, t, 1))
                    .unwrap();
            }
            end(&server);
            let stored: Vec<(EdgeId, Traversal)> = server.with_store(|s| {
                s.edges()
                    .flat_map(|e| s.traversals(e).iter().map(move |&tr| (e, tr)))
                    .collect()
            });
            let m = server.metrics();
            let counters = [
                m.counter_family_total("wilocator_traversals_committed_total"),
                m.counter("wilocator_buses_finished_total"),
                m.gauge("wilocator_active_buses") as u64,
            ];
            (stored, counters)
        };
        let (finished, [committed, finishes, active]) = end_trip(&|server| {
            server.finish_bus(BusKey(1)).unwrap();
            server.register_bus(BusKey(1), RouteId(0)).unwrap();
        });
        assert_eq!(finished.len(), 2, "both segments stored");
        assert_eq!([committed, finishes, active], [2, 1, 1]);
        let (re_registered, counters) = end_trip(&|server| {
            server.register_bus(BusKey(1), RouteId(0)).unwrap();
        });
        assert_eq!(re_registered, finished, "the same traversals");
        assert_eq!(counters, [2, 0, 1], "only finish_bus finishes a bus");
    }

    #[test]
    fn non_finite_stamps_are_dropped_as_stale() {
        let (server, field) = setup();
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(1), RouteId(0)).unwrap();
        let bad_stamps = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut dropped = 0;
        for k in 0..10 {
            let t = k as f64 * 10.0;
            let s = t * 6.0;
            // Before the first fix, and twice mid-trip, through both
            // entry points.
            if k % 4 == 0 {
                for bad in bad_stamps {
                    let r = report(&field, &route, s, bad, 1);
                    assert_eq!(server.ingest(&r), Ok(None));
                    assert_eq!(server.ingest_batch(&[r]), vec![Ok(None)]);
                    dropped += 2;
                }
            }
            let fix = server.ingest(&report(&field, &route, s, t, 1)).unwrap();
            assert_eq!(
                fix.map(|f| f.time_s),
                Some(t),
                "the next finite report fixes"
            );
        }
        let fixes = server.trajectory(BusKey(1)).unwrap();
        assert_eq!(fixes.len(), 10);
        assert!(fixes.iter().all(|f| f.time_s.is_finite()));
        let snap = server.metrics();
        assert_eq!(
            snap.counter_family_total("wilocator_reports_stale_total"),
            dropped
        );
    }

    #[test]
    fn an_infinite_stamp_does_not_skip_the_batch_publish() {
        let (server, field) = setup();
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(1), RouteId(0)).unwrap();
        server.ingest_batch(&[report(&field, &route, 60.0, 10.0, 1)]);
        let epoch = server.snapshot_epoch();
        let published = |server: &WiLocator| {
            let snap = server.query_snapshot();
            snap.position(BusKey(1)).map(|v| v.fix.time_s)
        };
        assert_eq!(published(&server), Some(10.0));
        server.ingest_batch(&[
            report(&field, &route, 120.0, 20.0, 1),
            report(&field, &route, 180.0, f64::INFINITY, 1),
        ]);
        assert_eq!(server.snapshot_epoch(), epoch + 1);
        assert_eq!(published(&server), Some(20.0));
    }

    #[test]
    fn batch_reports_unknown_bus_in_place() {
        let (server, field) = setup();
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(1), RouteId(0)).unwrap();
        let reports = vec![
            report(&field, &route, 0.0, 0.0, 1),
            report(&field, &route, 0.0, 0.0, 77),
            report(&field, &route, 80.0, 10.0, 1),
        ];
        let results = server.ingest_batch(&reports);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(CoreError::UnknownBus(BusKey(77))));
        assert!(results[2].is_ok());
    }

    #[test]
    fn metrics_account_for_every_report() {
        let (server, field) = setup();
        let route = server.routes()[0].clone();
        drive(&server, &field, 1, 0.0, 8.0);
        // One unknown-bus rejection on top of the driven trip.
        let _ = server.ingest(&report(&field, &route, 0.0, 0.0, 42));
        server.train(10_000.0);
        let snap = server.metrics();
        let reports = snap.counter_family_total("wilocator_reports_total");
        assert!(reports > 0, "reports metered");
        assert_eq!(
            reports,
            snap.counter_family_total("wilocator_fixes_total")
                + snap.counter_family_total("wilocator_reports_absorbed_total")
                + snap.counter_family_total("wilocator_reports_stale_total"),
            "every report lands in exactly one outcome counter"
        );
        assert_eq!(snap.counter("wilocator_unknown_bus_total"), 1);
        assert_eq!(snap.counter("wilocator_buses_registered_total"), 1);
        assert_eq!(snap.counter("wilocator_buses_finished_total"), 1);
        assert_eq!(snap.gauge("wilocator_active_buses"), 0);
        assert_eq!(snap.counter("wilocator_train_calls_total"), 1);
        // The positioner's per-route ledger saw the same locate calls.
        assert_eq!(
            snap.counter_family_total("svd_locate_total"),
            reports,
            "one locate per tracked report"
        );
        // Both segments were committed (eagerly or at finish).
        assert!(snap.counter_family_total("wilocator_traversals_committed_total") >= 2);
        // Training metered one seasonal index per recorded edge.
        assert_eq!(
            snap.counter_family_total("predict_seasonal_indexes_built_total"),
            2
        );
        // Lock-hold spans were recorded.
        assert!(
            snap.histogram("wilocator_shard_lock_hold_us")
                .map(|h| h.count > 0)
                .unwrap_or(false),
            "lock hold histogram populated"
        );
        // Prometheus exposition renders without panicking and names the
        // core families.
        let text = server.metrics_text();
        assert!(text.contains("# TYPE wilocator_reports_total counter"));
        assert!(text.contains("wilocator_shard_lock_hold_us_count"));
    }

    #[test]
    fn batch_metrics_count_reports_not_chunks() {
        let (server, field) = setup();
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(1), RouteId(0)).unwrap();
        let reports: Vec<ScanReport> = (0..6)
            .map(|k| report(&field, &route, k as f64 * 40.0, k as f64 * 10.0, 1))
            .collect();
        server.ingest_batch(&reports[..2]);
        server.ingest_batch(&reports[2..]);
        let snap = server.metrics();
        assert_eq!(snap.counter("wilocator_ingest_batches_total"), 2);
        assert_eq!(snap.counter("wilocator_ingest_batch_reports_total"), 6);
        assert_eq!(snap.histogram("wilocator_batch_size").unwrap().count, 2);
        assert_eq!(snap.counter_family_total("wilocator_reports_total"), 6);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            CoreError::UnknownRoute(RouteId(0)),
            CoreError::UnknownBus(BusKey(0)),
            CoreError::UnknownStop(StopId(0)),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// [`setup`] with a stepping clock, so span durations (and the
    /// tail-sampling decisions built on them) are reproducible.
    fn setup_stepping(step_us: u64) -> (WiLocator, HomogeneousField) {
        let (_, field) = setup();
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(400.0, 0.0));
        let n2 = b.add_node(Point::new(800.0, 0.0));
        let e0 = b.add_edge(n0, n1, None).unwrap();
        let e1 = b.add_edge(n1, n2, None).unwrap();
        let net = b.build();
        let mut route = Route::new(RouteId(0), "9", vec![e0, e1], &net).unwrap();
        route.add_stops_evenly(3);
        let config = WiLocatorConfig {
            trace: TraceConfig::detailed(),
            ..WiLocatorConfig::default()
        };
        let server = WiLocator::new_with_clocks(
            &field,
            vec![route],
            config,
            Arc::new(wilocator_obs::SteppingClock::new(0, step_us)),
            Arc::new(MonotonicClock::new()),
        );
        (server, field)
    }

    #[test]
    fn ingest_opens_nested_spans_per_report() {
        let (server, field) = setup_stepping(1);
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(7), RouteId(0)).unwrap();
        for k in 0..4 {
            server
                .ingest(&report(&field, &route, k as f64 * 40.0, k as f64 * 10.0, 7))
                .unwrap();
        }
        let recent = server.tracer().recent();
        assert_eq!(recent.len(), 4, "one trace per ingested report");
        for trace in &recent {
            let root = trace.root().expect("root span");
            assert_eq!(root.name, "ingest");
            assert_eq!(root.field("bus"), Some(FieldValue::U64(7)));
            assert!(
                root.field("outcome").is_some(),
                "every ingest root is annotated with its IngestOutcome"
            );
            assert!(
                trace.spans.iter().any(|s| s.name == "track"),
                "tracker child span present"
            );
        }
        // At least one report produced a fix, whose trace then carries the
        // positioning and commit stages.
        let fixed: Vec<_> = recent
            .iter()
            .filter(|t| {
                t.root()
                    .and_then(|r| r.field("outcome"))
                    .is_some_and(|v| matches!(v, FieldValue::Str("fix")))
            })
            .collect();
        assert!(!fixed.is_empty());
        for trace in fixed {
            for stage in ["locate", "commit"] {
                assert!(
                    trace.spans.iter().any(|s| s.name == stage),
                    "fix trace missing `{stage}` span"
                );
            }
        }
    }

    #[test]
    fn unknown_bus_traces_are_retained_as_anomalies() {
        let (server, field) = setup_stepping(1);
        let route = server.routes()[0].clone();
        let rep = report(&field, &route, 0.0, 0.0, 99);
        assert!(server.ingest(&rep).is_err());
        let batch = server.ingest_batch(std::slice::from_ref(&rep));
        assert!(batch[0].is_err());
        let retained = server.tracer().retained();
        assert_eq!(retained.len(), 2, "both rejected ingests retained");
        for trace in &retained {
            assert_eq!(trace.anomaly, Some("unknown_bus"));
            assert_eq!(
                trace.root().and_then(|r| r.field("bus")),
                Some(FieldValue::U64(99))
            );
        }
    }

    #[test]
    fn timeline_filters_traces_by_bus() {
        let (server, field) = setup_stepping(1);
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(1), RouteId(0)).unwrap();
        server.register_bus(BusKey(2), RouteId(0)).unwrap();
        for k in 0..3 {
            let t = k as f64 * 10.0;
            server.ingest(&report(&field, &route, t, t, 1)).unwrap();
            server.ingest(&report(&field, &route, t, t, 2)).unwrap();
        }
        let line = server.timeline(BusKey(2));
        assert_eq!(line.len(), 3);
        assert!(line
            .windows(2)
            .all(|pair| pair[0].trace_id < pair[1].trace_id));
        assert!(server.timeline(BusKey(3)).is_empty());
    }

    #[test]
    fn predict_arrival_trace_reaches_predictor_span() {
        let (server, field) = setup_stepping(1);
        drive(&server, &field, 1, 0.0, 8.0);
        server.train(1_000_000.0);
        server.register_bus(BusKey(2), RouteId(0)).unwrap();
        let route = server.routes()[0].clone();
        server.ingest(&report(&field, &route, 0.0, 0.0, 2)).unwrap();
        server
            .ingest(&report(&field, &route, 80.0, 10.0, 2))
            .unwrap();
        server.predict_arrival(BusKey(2), StopId(2)).unwrap();
        let trace = server
            .tracer()
            .recent()
            .into_iter()
            .rev()
            .find(|t| t.root().map(|r| r.name) == Some("predict_arrival"))
            .expect("predict_arrival trace recorded");
        let root = trace.root().unwrap();
        assert_eq!(root.field("bus"), Some(FieldValue::U64(2)));
        assert_eq!(root.field("stop"), Some(FieldValue::U64(2)));
        let child = trace
            .spans
            .iter()
            .find(|s| s.name == "predict")
            .expect("predict child span");
        assert!(child.field("segments").is_some());
        assert!(child.field("eta_s").is_some());
    }

    /// Runs bus `bus` at 8 m/s from 0 to `end_s` starting at `t0`, one
    /// report per `ingest_batch` every 10 s, so every batch publishes.
    fn run_batched(server: &WiLocator, field: &HomogeneousField, bus: u64, t0: f64, end_s: f64) {
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(bus), RouteId(0)).unwrap();
        for k in 0..=(end_s / 80.0) as usize {
            let t = t0 + k as f64 * 10.0;
            let batch = [report(field, &route, k as f64 * 80.0, t, bus)];
            assert!(server.ingest_batch(&batch)[0].is_ok());
        }
    }

    #[test]
    fn a_finished_trip_leaves_no_pending_etas_behind() {
        let (server, field) = setup_with_stops(5);
        let evicted = |s: &WiLocator| {
            s.metrics()
                .counter_family_total("wilocator_eta_ledger_evicted_total")
        };
        // Trip 1 stops at 320 m with ETAs for the stops ahead pending.
        run_batched(&server, &field, 1, 0.0, 320.0);
        let pending = server.quality.pending_len();
        assert!(pending > 0, "trip 1 left ETAs pending");
        server.finish_bus(BusKey(1)).unwrap();
        assert_eq!(server.quality.pending_len(), 0, "finish drops them");
        assert_eq!(evicted(&server), pending as u64, "and counts them");
        // Trip 2 under the same key: its own predictions are issued and
        // settled, none of trip 1's.
        run_batched(&server, &field, 1, 5_000.0, 800.0);
        let quality = server.query_snapshot().quality.clone();
        let horizons = &quality.routes[&RouteId(0)].horizons;
        assert_eq!(horizons.len(), 3);
        for h in horizons {
            assert!(h.confirmed_total > 0, "{h:?}");
            assert!(h.mean_abs_error_s < 60.0, "{h:?}");
        }
        // Re-registration mid-trip drops the pending ETAs the same way.
        server.finish_bus(BusKey(1)).unwrap();
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(2), RouteId(0)).unwrap();
        server.ingest_batch(&[report(&field, &route, 0.0, 9_000.0, 2)]);
        let pending = server.quality.pending_len();
        assert!(pending > 0);
        let before = evicted(&server);
        server.register_bus(BusKey(2), RouteId(0)).unwrap();
        assert_eq!(server.quality.pending_len(), 0);
        assert_eq!(evicted(&server) - before, pending as u64);
    }

    #[test]
    fn published_arrival_tables_equal_arrivals_at_and_leave_the_ledger_alone() {
        let (server, field) = setup_two_streets();
        let routes = server.routes().to_vec();
        // History on both streets, then a trained predictor.
        for (bus, route) in [(10u64, 0usize), (11, 1), (12, 2), (13, 0), (14, 1)] {
            server
                .register_bus(BusKey(bus), routes[route].id())
                .unwrap();
            for k in 0..=10 {
                let t = bus as f64 * 300.0 + k as f64 * 10.0;
                let s = (k as f64 * 80.0).min(routes[route].length());
                server
                    .ingest(&report(&field, &routes[route], s, t, bus))
                    .unwrap();
            }
            server.finish_bus(BusKey(bus)).unwrap();
        }
        server.train(10_000.0);
        // Several buses of every route on the road, some sharing a stop.
        for (bus, route, s) in [
            (1u64, 0usize, 100.0),
            (2, 0, 500.0),
            (3, 1, 250.0),
            (4, 2, 60.0),
            (5, 2, 700.0),
        ] {
            server
                .register_bus(BusKey(bus), routes[route].id())
                .unwrap();
            for (k, ds) in [-40.0f64, 0.0].into_iter().enumerate() {
                let t = 10_000.0 + k as f64 * 10.0;
                let at = (s + ds).max(0.0);
                server
                    .ingest(&report(&field, &routes[route], at, t, bus))
                    .unwrap();
            }
        }
        let counters = |s: &WiLocator| {
            let m = s.metrics();
            [
                m.counter_family_total("predict_arrival_total"),
                m.counter_family_total("predict_segment_total"),
            ]
        };
        let before = counters(&server);
        server.publish_snapshot(10_010.0);
        assert_eq!(counters(&server), before, "publication is off the ledger");
        let snap = server.query_snapshot();
        let mut entries = 0;
        for route in &routes {
            for stop in route.stops() {
                let published: Vec<(BusKey, u64)> = snap.arrivals[&(route.id(), stop.id())]
                    .iter()
                    .map(|e| (e.bus, e.eta_s.to_bits()))
                    .collect();
                let answered: Vec<(BusKey, u64)> = server
                    .arrivals_at(route.id(), stop.id())
                    .unwrap()
                    .into_iter()
                    .map(|(bus, eta_s)| (bus, eta_s.to_bits()))
                    .collect();
                assert_eq!(
                    published,
                    answered,
                    "route {} stop {}",
                    route.id(),
                    stop.id()
                );
                entries += published.len();
            }
        }
        assert!(entries >= 8, "{entries} table entries");
        let after = counters(&server);
        assert_eq!(
            after[0] - before[0],
            entries as u64,
            "one Eq. 9 walk per rider entry"
        );
        assert!(after[1] - before[1] >= entries as u64);
    }

    #[test]
    fn chrome_export_and_text_dump_cover_recorded_traces() {
        let (server, field) = setup_stepping(1);
        let route = server.routes()[0].clone();
        server.register_bus(BusKey(1), RouteId(0)).unwrap();
        server.ingest(&report(&field, &route, 0.0, 0.0, 1)).unwrap();
        let json = server.trace_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"ingest\""));
        let text = server.trace_text_dump();
        assert!(text.contains("span 0 parent - ingest"));
    }
}
