//! Bus arrival-time prediction (Section IV, Equations 8–9).
//!
//! The travel time of route `j` on segment `e_i` in slot `l` is predicted
//! as the route's historical mean in that slot plus the average *recent
//! residual* of the buses — of any route — that most recently traversed
//! the segment:
//!
//! ```text
//! Tp(i,j,t) = Th(i,j,l) + Σ_k { Tr(i,k,l) − Th(i,k,l) } / K
//! ```
//!
//! Arrival at a stop integrates segment predictions with fractional first
//! and last segments (Equation 9), re-evaluating the slot as predicted
//! time accumulates ("the computation will be separated slot-by-slot").

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use wilocator_obs::TraceCtx;
use wilocator_road::{EdgeId, Route, RouteId};

use crate::history::TravelTimeStore;
use crate::metrics::PredictorMetrics;
use crate::seasonal::{partition_from_index, seasonal_index, SeasonalConfig, SlotPartition, DAY_S};

/// Key of the frozen-mean cache: `(segment, route filter, slot filter)`.
type MeanKey = (EdgeId, Option<RouteId>, Option<usize>);

/// Whose recent traversals lend their residuals to Equation 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidualSource {
    /// Recent buses of every route on the segment: WiLocator.
    AnyRoute,
    /// Recent buses of the queried route only: the same-route baseline.
    SameRoute,
}

/// One Equation 9 walk: the arrival time, plus the segments summed and
/// the residuals borrowed that the `predict` span records.
#[derive(Debug, Clone, Copy)]
struct Walk {
    eta_s: f64,
    segments: u64,
    borrows: u64,
}

/// Configuration of the arrival predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// How far back "recently passed" buses count, seconds.
    pub recent_window_s: f64,
    /// Maximum number of recent buses (`J`) averaged per segment.
    pub max_recent_buses: usize,
    /// Minimum historical records on a segment before its slot-mean is
    /// trusted; below this the all-time mean is used.
    pub min_slot_samples: usize,
    /// Fallback cruise speed when a segment has no history at all, m/s.
    pub fallback_speed_mps: f64,
    /// Seasonal analysis parameters used by [`ArrivalPredictor::train`].
    pub seasonal: SeasonalConfig,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            recent_window_s: 2_700.0,
            max_recent_buses: 8,
            min_slot_samples: 4,
            fallback_speed_mps: 6.0,
            seasonal: SeasonalConfig::default(),
        }
    }
}

/// Predicts per-segment travel times and stop arrival times.
///
/// Train once (offline phase: seasonal index → per-segment slot
/// partitions), then query online.
#[derive(Debug, Clone)]
pub struct ArrivalPredictor {
    config: PredictorConfig,
    partitions: HashMap<EdgeId, SlotPartition>,
    default_partition: SlotPartition,
    /// Historical means frozen at training time:
    /// `(edge, route filter, slot filter) → (mean, count)`. Populated by
    /// [`ArrivalPredictor::train`]; makes online queries O(log n) instead
    /// of a scan over the store. Ordered so training-time iteration is
    /// deterministic across processes.
    mean_cache: BTreeMap<MeanKey, (f64, usize)>,
    /// Train/predict accounting; clones of this predictor share it.
    metrics: Arc<PredictorMetrics>,
}

impl ArrivalPredictor {
    /// Creates an untrained predictor (whole-day slots everywhere).
    pub fn new(config: PredictorConfig) -> Self {
        ArrivalPredictor {
            config,
            partitions: HashMap::new(),
            default_partition: SlotPartition::whole_day(),
            mean_cache: BTreeMap::new(),
            metrics: Arc::new(PredictorMetrics::default()),
        }
    }

    /// The predictor configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// The train/predict accounting ledger (shared by clones).
    pub fn metrics(&self) -> &Arc<PredictorMetrics> {
        &self.metrics
    }

    /// Offline phase (§V-A.3): computes each segment's seasonal index from
    /// records before `as_of` and derives its slot partition.
    pub fn train(&mut self, store: &TravelTimeStore, as_of: f64) {
        self.metrics.train_total.inc();
        let edges: Vec<EdgeId> = store.edges().collect();
        for edge in edges {
            let si = seasonal_index(store, edge, as_of, &self.config.seasonal);
            self.metrics.seasonal_indexes_built_total.inc();
            self.metrics
                .seasonal_slots_populated_total
                .add(si.populated_slots() as u64);
            let partition = partition_from_index(&si, &self.config.seasonal);
            if partition.slot_count() > 1 {
                self.metrics.multi_slot_partitions_total.inc();
            }
            self.partitions.insert(edge, partition);
        }
        // Freeze the historical means (the paper's offline phase): every
        // (edge, route, slot) aggregate, plus the any-route and any-slot
        // marginals used by the fallback chain.
        self.mean_cache.clear();
        let edges: Vec<EdgeId> = store.edges().collect();
        for edge in edges {
            let partition = self
                .partitions
                .get(&edge)
                .cloned()
                .unwrap_or_else(SlotPartition::whole_day);
            let add = |key: MeanKey, tt: f64, cache: &mut BTreeMap<MeanKey, (f64, usize)>| {
                let e = cache.entry(key).or_insert((0.0, 0));
                e.0 += tt;
                e.1 += 1;
            };
            for tr in store.completed_before(edge, as_of) {
                let slot = partition.slot_of(tr.t_enter.rem_euclid(DAY_S));
                let tt = tr.travel_time();
                add((edge, Some(tr.route), Some(slot)), tt, &mut self.mean_cache);
                add((edge, None, Some(slot)), tt, &mut self.mean_cache);
                add((edge, Some(tr.route), None), tt, &mut self.mean_cache);
                add((edge, None, None), tt, &mut self.mean_cache);
            }
        }
        for (sum, n) in self.mean_cache.values_mut() {
            *sum /= (*n).max(1) as f64;
        }
    }

    /// True once [`ArrivalPredictor::train`] populated the mean cache for
    /// `edge`.
    fn cache_covers(&self, edge: EdgeId) -> bool {
        self.mean_cache.contains_key(&(edge, None, None))
    }

    /// The slot partition of a segment (whole-day when untrained).
    pub fn partition(&self, edge: EdgeId) -> &SlotPartition {
        self.partitions
            .get(&edge)
            .unwrap_or(&self.default_partition)
    }

    /// Historical mean travel time `Th(i, j, l)` of `route` on `edge` for
    /// the slot containing `t`, using data strictly before `t`.
    ///
    /// Falls back from (route, slot) → (any route, slot) → (route, any
    /// slot) → (any route, any slot), each requiring
    /// `min_slot_samples` except the last.
    pub fn historical_mean(
        &self,
        store: &TravelTimeStore,
        edge: EdgeId,
        route: Option<RouteId>,
        t: f64,
    ) -> Option<f64> {
        if self.cache_covers(edge) {
            let slot = self.partition(edge).slot_of(t);
            let min = self.config.min_slot_samples;
            let get = |key: MeanKey| self.mean_cache.get(&key).copied();
            for key in [
                (edge, route, Some(slot)),
                (edge, None, Some(slot)),
                (edge, route, None),
            ] {
                if let Some((mean, n)) = get(key) {
                    if n >= min {
                        return Some(mean);
                    }
                }
            }
            return get((edge, None, None)).map(|(mean, _)| mean);
        }
        let partition = self.partition(edge);
        let slot = partition.slot_of(t);
        let min = self.config.min_slot_samples;
        let in_slot = |tr: &crate::history::Traversal| {
            partition.slot_of(tr.t_enter.rem_euclid(DAY_S)) == slot
        };
        let count = |r: Option<RouteId>, slot_only: bool| {
            store
                .completed_before(edge, t)
                .filter(|tr| r.map(|rr| tr.route == rr).unwrap_or(true))
                .filter(|tr| !slot_only || in_slot(tr))
                .count()
        };
        if count(route, true) >= min {
            return store.mean_travel_time(edge, route, t, in_slot);
        }
        if count(None, true) >= min {
            return store.mean_travel_time(edge, None, t, in_slot);
        }
        if count(route, false) >= min {
            return store.mean_travel_time(edge, route, t, |_| true);
        }
        store.mean_travel_time(edge, None, t, |_| true)
    }

    /// Equation 8: predicted travel time of `route` on `edge` for a bus
    /// entering around time `t`, borrowing the residuals of recent buses
    /// of every route. Rider-facing: moves the predictor ledger.
    ///
    /// Returns `None` only when the segment has no history at all.
    pub fn predict_segment(
        &self,
        store: &TravelTimeStore,
        edge: EdgeId,
        route: RouteId,
        t: f64,
    ) -> Option<f64> {
        self.segment(
            store,
            edge,
            route,
            t,
            ResidualSource::AnyRoute,
            Some(&self.metrics),
        )
        .0
    }

    /// [`ArrivalPredictor::predict_segment`] with the residuals drawn
    /// from `residuals`, off the ledger (baselines).
    pub fn predict_segment_with(
        &self,
        store: &TravelTimeStore,
        edge: EdgeId,
        route: RouteId,
        t: f64,
        residuals: ResidualSource,
    ) -> Option<f64> {
        self.segment(store, edge, route, t, residuals, None).0
    }

    /// The segment rule of Equation 8, also reporting its K (how many
    /// recent-bus residuals were borrowed), for trace fields. The recent
    /// set is the last `max_recent_buses` traversals of any route inside
    /// the window; `residuals` then decides which of them lend theirs.
    ///
    /// `ledger` is the accounting sink: rider-facing calls pass the shared
    /// predictor ledger, background snapshot publication and baselines
    /// pass `None` so their recomputation never distorts the Eq. 8/9
    /// counters (which must stay a pure function of the ingested report
    /// stream and the rider queries).
    fn segment(
        &self,
        store: &TravelTimeStore,
        edge: EdgeId,
        route: RouteId,
        t: f64,
        residuals: ResidualSource,
        ledger: Option<&PredictorMetrics>,
    ) -> (Option<f64>, u64) {
        if let Some(m) = ledger {
            m.predict_segment_total.inc();
        }
        let Some(th_own) = self.historical_mean(store, edge, Some(route), t) else {
            return (None, 0);
        };
        let recent = store.recent_buses(
            edge,
            t,
            self.config.recent_window_s,
            self.config.max_recent_buses,
        );
        let mut ratio_sum = 0.0;
        let mut k = 0usize;
        for tr in recent
            .iter()
            .filter(|tr| residuals == ResidualSource::AnyRoute || tr.route == route)
        {
            if let Some(th_k) = self.historical_mean(store, edge, Some(tr.route), tr.t_enter) {
                if th_k > 1e-9 {
                    ratio_sum += tr.travel_time() / th_k;
                    k += 1;
                }
            }
        }
        if k == 0 {
            return (Some(th_own), 0);
        }
        // The K of Equation 8: residuals actually borrowed from recent
        // buses on this segment.
        if let Some(m) = ledger {
            m.residual_borrow_total.add(k as u64);
            m.residual_applied_total.inc();
        }
        // Equation 8 implemented multiplicatively: each recent bus
        // contributes its travel-time *ratio* to its own historical mean,
        // which transfers across routes whose regular speeds differ ("even
        // though their regular speeds on this segment may differ"). One
        // shrinkage pseudo-count pulls the estimate toward 1 when few
        // buses contribute (a single bus's ratio mixes the shared
        // environment term with its own dwell/light noise).
        let ratio = (ratio_sum + 1.0) / (k as f64 + 1.0);
        // Congestion can slow a segment several-fold but never speed it up
        // beyond free flow by much.
        let ratio = ratio.clamp(0.5, 3.0);
        (Some((th_own * ratio).max(1.0)), k as u64)
    }

    /// Predicted travel time with the no-history fallback applied: a
    /// segment without records is crossed at `fallback_speed_mps`.
    pub fn predict_segment_or_fallback(
        &self,
        store: &TravelTimeStore,
        route: &Route,
        edge_index: usize,
        t: f64,
    ) -> f64 {
        self.segment_time(
            store,
            route,
            edge_index,
            t,
            ResidualSource::AnyRoute,
            Some(&self.metrics),
        )
        .0
    }

    /// [`ArrivalPredictor::segment`] on the route's `edge_index`-th
    /// segment, with the cruise-speed fallback applied.
    fn segment_time(
        &self,
        store: &TravelTimeStore,
        route: &Route,
        edge_index: usize,
        t: f64,
        residuals: ResidualSource,
        ledger: Option<&PredictorMetrics>,
    ) -> (f64, u64) {
        let edge = route.edges()[edge_index];
        let (predicted, k) = self.segment(store, edge, route.id(), t, residuals, ledger);
        match predicted {
            Some(tp) => (tp, k),
            None => {
                if let Some(m) = ledger {
                    m.segment_fallback_total.inc();
                }
                (
                    route.edge_length(edge_index) / self.config.fallback_speed_mps,
                    k,
                )
            }
        }
    }

    /// Equation 9: predicted *absolute arrival time* at arc length
    /// `stop_s` for a bus of `route` currently at `current_s` at time `t`.
    /// Rider-facing: moves the predictor ledger.
    ///
    /// Returns `t` when the stop is at or behind the current position.
    /// Slots are re-evaluated as predicted time accumulates.
    pub fn predict_arrival(
        &self,
        store: &TravelTimeStore,
        route: &Route,
        current_s: f64,
        t: f64,
        stop_s: f64,
    ) -> f64 {
        self.predict_arrival_traced(store, route, current_s, t, stop_s, None)
    }

    /// [`ArrivalPredictor::predict_arrival`] with an optional trace
    /// context: a `predict` child span annotated with the number of
    /// segments summed and the total Equation 8 residual borrows.
    pub fn predict_arrival_traced(
        &self,
        store: &TravelTimeStore,
        route: &Route,
        current_s: f64,
        t: f64,
        stop_s: f64,
        trace: Option<&TraceCtx<'_>>,
    ) -> f64 {
        self.metrics.predict_arrival_total.inc();
        let span = trace.map(|tr| tr.child_span("predict"));
        let walk = self.integrate(
            store,
            route,
            current_s,
            t,
            stop_s,
            ResidualSource::AnyRoute,
            Some(&self.metrics),
        );
        if let Some(sp) = &span {
            sp.field("segments", walk.segments);
            sp.field("residual_borrows", walk.borrows);
            sp.field("eta_s", walk.eta_s);
        }
        walk.eta_s
    }

    /// [`ArrivalPredictor::predict_arrival`] with the residuals drawn
    /// from `residuals`, off the ledger. Background snapshot publication
    /// recomputes arrival tables after every batch; letting those sweeps
    /// move the predict counters would make the rider-facing Eq. 8/9
    /// accounting a function of publish cadence instead of the report
    /// stream. The same-route baseline calls it too.
    pub fn predict_arrival_with(
        &self,
        store: &TravelTimeStore,
        route: &Route,
        current_s: f64,
        t: f64,
        stop_s: f64,
        residuals: ResidualSource,
    ) -> f64 {
        self.integrate(store, route, current_s, t, stop_s, residuals, None)
            .eta_s
    }

    /// The one Equation 9 walk: from the bus's position to the stop's,
    /// segment by segment, the fractional remainder of the current
    /// segment, every full segment between, then the fraction of the
    /// stop's segment. Each segment's Equation 8 time is evaluated at
    /// the predicted entry time, so the slot follows the bus ("the
    /// computation will be separated slot-by-slot").
    #[allow(clippy::too_many_arguments)]
    fn integrate(
        &self,
        store: &TravelTimeStore,
        route: &Route,
        current_s: f64,
        t: f64,
        stop_s: f64,
        residuals: ResidualSource,
        ledger: Option<&PredictorMetrics>,
    ) -> Walk {
        let mut walk = Walk {
            eta_s: t,
            segments: 0,
            borrows: 0,
        };
        if stop_s <= current_s {
            return walk;
        }
        let start = route.position_at(current_s);
        let target = route.position_at(stop_s.min(route.length()));
        for i in start.edge_index..=target.edge_index {
            let (tp, k) = self.segment_time(store, route, i, walk.eta_s, residuals, ledger);
            walk.segments += 1;
            walk.borrows += k;
            let len = route.edge_length(i);
            walk.eta_s += match (i == start.edge_index, i == target.edge_index) {
                (true, true) => tp * (target.s_on_edge - start.s_on_edge).max(0.0) / len,
                (true, false) => tp * (len - start.s_on_edge) / len,
                (false, true) => tp * target.s_on_edge / len,
                (false, false) => tp,
            };
        }
        walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Traversal;
    use wilocator_geo::Point;
    use wilocator_road::{NetworkBuilder, RouteId};

    fn route_3seg() -> Route {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(600.0, 0.0));
        let n2 = b.add_node(Point::new(1_200.0, 0.0));
        let n3 = b.add_node(Point::new(1_800.0, 0.0));
        let e0 = b.add_edge(n0, n1, None).unwrap();
        let e1 = b.add_edge(n1, n2, None).unwrap();
        let e2 = b.add_edge(n2, n3, None).unwrap();
        Route::new(RouteId(0), "r", vec![e0, e1, e2], &b.build()).unwrap()
    }

    /// Seed the store with `days` days of one traversal per hour per edge,
    /// travel time `tt` seconds (+rush extra during hours 8–9).
    fn seeded_store(route: &Route, days: usize, tt: f64, rush_extra: f64) -> TravelTimeStore {
        let mut store = TravelTimeStore::new();
        for day in 0..days {
            for hour in 6..22 {
                for (i, &edge) in route.edges().iter().enumerate() {
                    let t0 = day as f64 * DAY_S + hour as f64 * 3_600.0 + i as f64 * 120.0;
                    let extra = if (8..10).contains(&hour) {
                        rush_extra
                    } else {
                        0.0
                    };
                    store.record(
                        edge,
                        Traversal {
                            route: RouteId((i % 2) as u32),
                            t_enter: t0,
                            t_exit: t0 + tt + extra,
                        },
                    );
                }
            }
        }
        store
    }

    #[test]
    fn untrained_predictor_uses_whole_day_history() {
        let route = route_3seg();
        let store = seeded_store(&route, 3, 90.0, 0.0);
        let p = ArrivalPredictor::new(PredictorConfig::default());
        let now = 3.0 * DAY_S + 12.0 * 3_600.0;
        let tp = p
            .predict_segment(&store, route.edges()[0], route.id(), now)
            .unwrap();
        assert!((tp - 90.0).abs() < 1.0, "tp {tp}");
    }

    #[test]
    fn trained_predictor_is_slot_aware() {
        let route = route_3seg();
        let store = seeded_store(&route, 10, 90.0, 120.0);
        let mut p = ArrivalPredictor::new(PredictorConfig::default());
        p.train(&store, 10.0 * DAY_S);
        let rush = 10.0 * DAY_S + 8.6 * 3_600.0;
        let off = 10.0 * DAY_S + 13.0 * 3_600.0;
        let tp_rush = p
            .predict_segment(&store, route.edges()[0], route.id(), rush)
            .unwrap();
        let tp_off = p
            .predict_segment(&store, route.edges()[0], route.id(), off)
            .unwrap();
        assert!(
            tp_rush > tp_off + 60.0,
            "rush {tp_rush} vs off-peak {tp_off}"
        );
    }

    #[test]
    fn recent_residual_corrects_prediction() {
        let route = route_3seg();
        let mut store = seeded_store(&route, 5, 90.0, 0.0);
        let edge = route.edges()[1];
        let now = 5.0 * DAY_S + 12.0 * 3_600.0;
        // A bus of *another* route just crawled the segment: +60 s residual.
        store.record(
            edge,
            Traversal {
                route: RouteId(1),
                t_enter: now - 600.0,
                t_exit: now - 600.0 + 150.0,
            },
        );
        let p = ArrivalPredictor::new(PredictorConfig::default());
        let tp = p.predict_segment(&store, edge, RouteId(0), now).unwrap();
        // +60 s residual, shrunk by K/(K+1) with K = 1 ⇒ +30 s.
        assert!(tp > 110.0, "residual not propagated: {tp}");
    }

    #[test]
    fn stale_residual_is_ignored() {
        let route = route_3seg();
        let mut store = seeded_store(&route, 5, 90.0, 0.0);
        let edge = route.edges()[1];
        let now = 5.0 * DAY_S + 12.0 * 3_600.0;
        store.record(
            edge,
            Traversal {
                route: RouteId(1),
                t_enter: now - 2.0 * 3_600.0, // two hours old
                t_exit: now - 2.0 * 3_600.0 + 400.0,
            },
        );
        let p = ArrivalPredictor::new(PredictorConfig::default());
        let tp = p.predict_segment(&store, edge, RouteId(0), now).unwrap();
        assert!((90.0..110.0).contains(&tp), "stale record leaked: {tp}");
    }

    #[test]
    fn arrival_integrates_segments_with_fractions() {
        let route = route_3seg();
        let store = seeded_store(&route, 5, 60.0, 0.0);
        let p = ArrivalPredictor::new(PredictorConfig::default());
        let now = 5.0 * DAY_S + 12.0 * 3_600.0;
        // Bus halfway down segment 0 (s = 300), stop mid-segment 2
        // (s = 1500): 0.5·60 + 60 + 0.5·60 = 120 s.
        let eta = p.predict_arrival(&store, &route, 300.0, now, 1_500.0);
        assert!((eta - now - 120.0).abs() < 5.0, "eta offset {}", eta - now);
    }

    #[test]
    fn arrival_same_segment_fraction() {
        let route = route_3seg();
        let store = seeded_store(&route, 5, 60.0, 0.0);
        let p = ArrivalPredictor::new(PredictorConfig::default());
        let now = 5.0 * DAY_S + 12.0 * 3_600.0;
        // From s = 100 to s = 400 within segment 0: 0.5 of 60 s.
        let eta = p.predict_arrival(&store, &route, 100.0, now, 400.0);
        assert!((eta - now - 30.0).abs() < 2.0);
    }

    #[test]
    fn arrival_behind_position_is_now() {
        let route = route_3seg();
        let store = TravelTimeStore::new();
        let p = ArrivalPredictor::new(PredictorConfig::default());
        assert_eq!(
            p.predict_arrival(&store, &route, 500.0, 1_000.0, 400.0),
            1_000.0
        );
    }

    #[test]
    fn no_history_falls_back_to_cruise_speed() {
        let route = route_3seg();
        let store = TravelTimeStore::new();
        let p = ArrivalPredictor::new(PredictorConfig::default());
        let eta = p.predict_arrival(&store, &route, 0.0, 0.0, 1_800.0);
        // 1800 m at 6 m/s = 300 s.
        assert!((eta - 300.0).abs() < 5.0, "eta {eta}");
    }

    #[test]
    fn metrics_meter_training_and_residual_borrows() {
        let route = route_3seg();
        let mut store = seeded_store(&route, 5, 90.0, 120.0);
        let mut p = ArrivalPredictor::new(PredictorConfig::default());
        p.train(&store, 5.0 * DAY_S);
        let m = p.metrics().clone();
        assert_eq!(m.train_total.get(), 1);
        assert_eq!(m.seasonal_indexes_built_total.get(), 3);
        assert!(m.multi_slot_partitions_total.get() >= 1, "rush split");
        // Two recent buses on a segment ⇒ Eq. 8 borrows K = 2 residuals.
        let edge = route.edges()[1];
        let now = 5.0 * DAY_S + 12.0 * 3_600.0;
        for dt in [300.0, 600.0] {
            store.record(
                edge,
                Traversal {
                    route: RouteId(1),
                    t_enter: now - dt,
                    t_exit: now - dt + 150.0,
                },
            );
        }
        let borrows_before = m.residual_borrow_total.get();
        p.predict_segment(&store, edge, RouteId(0), now).unwrap();
        assert_eq!(m.residual_borrow_total.get() - borrows_before, 2);
        assert_eq!(m.residual_applied_total.get(), 1);
        assert_eq!(m.predict_segment_total.get(), 1);
        // A predictor with no history at all takes the cruise-speed
        // fallback, metered (the trained one above answers from its
        // frozen mean cache even against an empty store).
        let empty = TravelTimeStore::new();
        let untrained = ArrivalPredictor::new(PredictorConfig::default());
        untrained.predict_segment_or_fallback(&empty, &route, 0, now);
        assert_eq!(untrained.metrics().segment_fallback_total.get(), 1);
        // Clones share the ledger.
        let clone = p.clone();
        clone.predict_arrival(&empty, &route, 0.0, now, 100.0);
        assert_eq!(m.predict_arrival_total.get(), 1);
    }

    #[test]
    fn prediction_never_negative_or_zero() {
        let route = route_3seg();
        let mut store = seeded_store(&route, 3, 60.0, 0.0);
        let edge = route.edges()[0];
        let now = 3.0 * DAY_S + 12.0 * 3_600.0;
        // Recent bus was absurdly fast (negative residual larger than Th).
        store.record(
            edge,
            Traversal {
                route: RouteId(1),
                t_enter: now - 300.0,
                t_exit: now - 299.0,
            },
        );
        let p = ArrivalPredictor::new(PredictorConfig::default());
        let tp = p.predict_segment(&store, edge, RouteId(0), now).unwrap();
        assert!(tp >= 1.0);
    }
}
