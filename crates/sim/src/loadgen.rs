//! Deterministic ingestion load generation.
//!
//! Flattens a simulated [`Dataset`] into a time-ordered
//! stream of per-trip scan events and partitions it into *lanes* — per
//! thread queues that preserve the relative order of every trip's events.
//! The server's determinism guarantee is per bus ("same reports for a bus
//! in the same order → same fixes and records"), so any lane assignment
//! that keeps a trip's events on one lane replays to identical state
//! regardless of thread interleaving. That is exactly what the
//! concurrency tests in `wilocator-core` assert.

use wilocator_obs::{metric_key, MetricsSnapshot};
use wilocator_rf::Scan;
use wilocator_road::RouteId;

use crate::trace::Dataset;

/// One ingestible event: a trip's scan bundle with its identity attached.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadEvent {
    /// The trip the scans came from (doubles as the bus key).
    pub trip_id: usize,
    /// The trip's route.
    pub route: RouteId,
    /// Scan time, absolute seconds.
    pub time_s: f64,
    /// Ground-truth arc length at scan time (evaluation only).
    pub true_s: f64,
    /// One scan per device on the bus.
    pub scans: Vec<Scan>,
}

/// A replayable ingestion plan: every scan event of the selected trips in
/// global time order (ties broken by trip id, so plans are deterministic).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadPlan {
    /// All events, time-ordered.
    pub events: Vec<LoadEvent>,
}

impl LoadPlan {
    /// Builds the plan for one service day of a dataset.
    pub fn for_day(dataset: &Dataset, day: u32) -> Self {
        Self::from_trips(dataset, |t| t.day == day)
    }

    /// Builds the plan for every trip accepted by `keep`.
    pub fn from_trips(
        dataset: &Dataset,
        mut keep: impl FnMut(&crate::trace::TripTrace) -> bool,
    ) -> Self {
        let mut events = Vec::new();
        for trip in dataset.trips.iter().filter(|t| keep(t)) {
            for bundle in &trip.bundles {
                events.push(LoadEvent {
                    trip_id: trip.trip_id,
                    route: trip.route,
                    time_s: bundle.time_s,
                    true_s: bundle.true_s,
                    scans: bundle.scans.clone(),
                });
            }
        }
        events.sort_by(|a, b| {
            a.time_s
                .partial_cmp(&b.time_s)
                .expect("finite scan times")
                .then(a.trip_id.cmp(&b.trip_id))
        });
        LoadPlan { events }
    }

    /// The distinct trips of the plan, ascending.
    pub fn trip_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.events.iter().map(|e| e.trip_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The route of each trip in the plan.
    pub fn trip_routes(&self) -> Vec<(usize, RouteId)> {
        let mut pairs: Vec<(usize, RouteId)> =
            self.events.iter().map(|e| (e.trip_id, e.route)).collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        pairs.dedup();
        pairs
    }

    /// The plan summarised as a metrics snapshot, in the same counter
    /// families the server's observability layer uses: per-route
    /// `loadgen_events_total{route="<id>"}` and
    /// `loadgen_trips_total{route="<id>"}`. The family totals therefore
    /// state the offered load — what the server's `wilocator_reports_total`
    /// should account for after a full replay.
    pub fn stats(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for e in &self.events {
            let labels = format!("route=\"{}\"", e.route.0);
            out.add_counter(metric_key("loadgen_events_total", &labels), 1);
        }
        for (_, route) in self.trip_routes() {
            let labels = format!("route=\"{}\"", route.0);
            out.add_counter(metric_key("loadgen_trips_total", &labels), 1);
        }
        out
    }

    /// Partitions event indices into `n` lanes by `trip_id % n`. Every
    /// trip's events land on one lane in their original relative order,
    /// so replaying lanes from independent threads preserves each bus's
    /// report order — the invariant the server's determinism rests on.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn lanes(&self, n: usize) -> Vec<Vec<usize>> {
        assert!(n > 0, "at least one lane");
        let mut lanes = vec![Vec::new(); n];
        for (i, e) in self.events.iter().enumerate() {
            lanes[e.trip_id % n].push(i);
        }
        lanes
    }
}

/// The default rider-to-ingest query ratio. Real deployments are
/// read-dominated: the paper's rider app asks for arrivals far more often
/// than buses report scans.
pub const DEFAULT_QUERY_RATIO: u64 = 1_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::{simple_street, CityConfig};
    use crate::trace::{simulate, SimulationConfig};
    use crate::traffic::{TrafficConfig, TrafficModel};
    use wilocator_road::Schedule;

    fn tiny_dataset(days: u32) -> Dataset {
        let city = simple_street(1_200.0, 4, 1, &CityConfig::default());
        let traffic = TrafficModel::new(&city.network, TrafficConfig::default(), 1);
        let mut sched = Schedule::new();
        sched.add_headway_service(RouteId(0), 8.0 * 3_600.0, 10.0 * 3_600.0, 1_800.0);
        let config = SimulationConfig {
            days,
            ..SimulationConfig::default()
        };
        simulate(&city, &sched, &traffic, &config)
    }

    #[test]
    fn plan_is_time_ordered_and_complete() {
        let ds = tiny_dataset(2);
        let plan = LoadPlan::for_day(&ds, 0);
        let day0_bundles: usize = ds.trips_on_day(0).map(|t| t.bundles.len()).sum();
        assert_eq!(plan.events.len(), day0_bundles);
        for w in plan.events.windows(2) {
            assert!(
                w[1].time_s > w[0].time_s
                    || (w[1].time_s == w[0].time_s && w[1].trip_id > w[0].trip_id)
            );
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let a = LoadPlan::for_day(&tiny_dataset(1), 0);
        let b = LoadPlan::for_day(&tiny_dataset(1), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn lanes_partition_and_preserve_trip_order() {
        let plan = LoadPlan::for_day(&tiny_dataset(1), 0);
        for n in [1usize, 2, 3, 7] {
            let lanes = plan.lanes(n);
            assert_eq!(lanes.len(), n);
            let mut all: Vec<usize> = lanes.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..plan.events.len()).collect::<Vec<_>>());
            for lane in &lanes {
                // Indices ascending within a lane ⇒ original relative
                // order (and so per-trip order) is preserved.
                for w in lane.windows(2) {
                    assert!(w[1] > w[0]);
                }
            }
        }
    }

    #[test]
    fn trip_ids_and_routes_cover_the_day() {
        let ds = tiny_dataset(1);
        let plan = LoadPlan::for_day(&ds, 0);
        let ids = plan.trip_ids();
        assert_eq!(ids.len(), ds.trips_on_day(0).count());
        let routes = plan.trip_routes();
        assert_eq!(routes.len(), ids.len());
        assert!(routes.iter().all(|&(_, r)| r == RouteId(0)));
    }

    #[test]
    #[should_panic(expected = "lane")]
    fn zero_lanes_rejected() {
        LoadPlan::default().lanes(0);
    }

    #[test]
    fn stats_state_the_offered_load() {
        let ds = tiny_dataset(1);
        let plan = LoadPlan::for_day(&ds, 0);
        let stats = plan.stats();
        assert_eq!(
            stats.counter_family_total("loadgen_events_total") as usize,
            plan.events.len()
        );
        assert_eq!(
            stats.counter_family_total("loadgen_trips_total") as usize,
            plan.trip_ids().len()
        );
        // Single-route city: everything lands on route 0's label.
        assert_eq!(
            stats.counter("loadgen_events_total{route=\"0\"}") as usize,
            plan.events.len()
        );
        // Empty plans snapshot to nothing rather than zero-valued keys.
        assert!(LoadPlan::default().stats().counters().is_empty());
    }
}
