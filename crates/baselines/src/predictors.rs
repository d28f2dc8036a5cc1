//! Arrival-prediction baselines: the transit agency's static timetable
//! estimate and the same-route-only crowd predictor.

use wilocator_core::{ArrivalPredictor, PredictorConfig, ResidualSource, TravelTimeStore};
use wilocator_road::{EdgeId, Route, RouteId};

/// The "Transit Agency" predictor of Fig. 8b: per-slot historical means
/// frozen at training time, with **no recent-residual correction** — the
/// behaviour of a published timetable plus AVL-style historical averages.
/// During an unusual rush hour it cannot react, which produces the long
/// error tail the paper observes (max ≈ 800 s vs WiLocator's ≈ 500 s).
#[derive(Debug)]
pub struct AgencyPredictor {
    predictor: ArrivalPredictor,
    /// History frozen at training time: later observations never arrive.
    frozen: TravelTimeStore,
    /// The freeze instant; predictions are computed "as of" this history.
    trained_at: f64,
}

impl AgencyPredictor {
    /// Trains the agency model on everything in `store` before `as_of` and
    /// freezes it.
    pub fn train(store: &TravelTimeStore, as_of: f64, config: PredictorConfig) -> Self {
        // Copy only the pre-freeze records.
        let mut frozen = TravelTimeStore::new();
        for edge in store.edges().collect::<Vec<_>>() {
            for tr in store.completed_before(edge, as_of) {
                frozen.record(edge, *tr);
            }
        }
        let mut predictor = ArrivalPredictor::new(PredictorConfig {
            // No recent window: the agency never reacts to live residuals.
            recent_window_s: 0.0,
            ..config
        });
        predictor.train(&frozen, as_of);
        AgencyPredictor {
            predictor,
            frozen,
            trained_at: as_of,
        }
    }

    /// The freeze instant.
    pub fn trained_at(&self) -> f64 {
        self.trained_at
    }

    /// Predicted absolute arrival time at `stop_s` for a bus of `route` at
    /// `current_s` at time `t`, from frozen history only.
    pub fn predict_arrival(&self, route: &Route, current_s: f64, t: f64, stop_s: f64) -> f64 {
        self.predictor
            .predict_arrival(&self.frozen, route, current_s, t, stop_s)
    }
}

/// The same-route-only predictor (Zhou et al. [28, 29] style): WiLocator's
/// own Equations 8–9 *except* that recent residuals come only from buses
/// of the **same route** — on low-frequency routes the previous
/// same-route bus is long gone, so the correction is usually stale or
/// absent. Both predictors run the one implementation in
/// [`ArrivalPredictor`], so the delta against WiLocator isolates the
/// paper's cross-route contribution, not how residuals are damped.
#[derive(Debug)]
pub struct SameRoutePredictor {
    predictor: ArrivalPredictor,
}

impl SameRoutePredictor {
    /// Creates the predictor (train like [`ArrivalPredictor`]).
    pub fn new(config: PredictorConfig) -> Self {
        SameRoutePredictor {
            predictor: ArrivalPredictor::new(config),
        }
    }

    /// Offline training: same seasonal machinery as WiLocator.
    pub fn train(&mut self, store: &TravelTimeStore, as_of: f64) {
        self.predictor.train(store, as_of);
    }

    /// Equation 8 with `K′` restricted to the queried route.
    pub fn predict_segment(
        &self,
        store: &TravelTimeStore,
        edge: EdgeId,
        route: RouteId,
        t: f64,
    ) -> Option<f64> {
        self.predictor
            .predict_segment_with(store, edge, route, t, ResidualSource::SameRoute)
    }

    /// Equation 9 with same-route-only segment predictions.
    pub fn predict_arrival(
        &self,
        store: &TravelTimeStore,
        route: &Route,
        current_s: f64,
        t: f64,
        stop_s: f64,
    ) -> f64 {
        self.predictor.predict_arrival_with(
            store,
            route,
            current_s,
            t,
            stop_s,
            ResidualSource::SameRoute,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wilocator_core::Traversal;
    use wilocator_geo::Point;
    use wilocator_road::{NetworkBuilder, Route, RouteId};

    const DAY_S: f64 = 86_400.0;

    fn route_2seg() -> Route {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(600.0, 0.0));
        let n2 = b.add_node(Point::new(1_200.0, 0.0));
        let e0 = b.add_edge(n0, n1, None).unwrap();
        let e1 = b.add_edge(n1, n2, None).unwrap();
        Route::new(RouteId(0), "r", vec![e0, e1], &b.build()).unwrap()
    }

    fn seeded_store(route: &Route, days: usize) -> TravelTimeStore {
        let mut store = TravelTimeStore::new();
        for day in 0..days {
            for hour in 6..22 {
                for (i, &edge) in route.edges().iter().enumerate() {
                    let t0 = day as f64 * DAY_S + hour as f64 * 3_600.0 + i as f64 * 90.0;
                    store.record(
                        edge,
                        Traversal {
                            route: RouteId(0),
                            t_enter: t0,
                            t_exit: t0 + 80.0,
                        },
                    );
                }
            }
        }
        store
    }

    #[test]
    fn agency_ignores_live_congestion() {
        let route = route_2seg();
        let mut store = seeded_store(&route, 5);
        let agency = AgencyPredictor::train(&store, 5.0 * DAY_S, PredictorConfig::default());
        let now = 5.0 * DAY_S + 12.0 * 3_600.0;
        // A live jam is recorded after the freeze.
        store.record(
            route.edges()[0],
            Traversal {
                route: RouteId(1),
                t_enter: now - 500.0,
                t_exit: now - 500.0 + 400.0,
            },
        );
        let eta = agency.predict_arrival(&route, 0.0, now, 1_200.0);
        // Agency still predicts ~160 s (two clean segments).
        assert!((eta - now - 160.0).abs() < 10.0, "agency eta {}", eta - now);
        assert_eq!(agency.trained_at(), 5.0 * DAY_S);
    }

    #[test]
    fn same_route_uses_only_own_residuals() {
        let route = route_2seg();
        let mut store = seeded_store(&route, 5);
        let now = 5.0 * DAY_S + 12.0 * 3_600.0;
        let edge = route.edges()[0];
        // A bus of route 7 just crawled (+200 s residual).
        store.record(
            edge,
            Traversal {
                route: RouteId(7),
                t_enter: now - 500.0,
                t_exit: now - 500.0 + 280.0,
            },
        );
        let sr = SameRoutePredictor::new(PredictorConfig::default());
        let tp = sr.predict_segment(&store, edge, RouteId(0), now).unwrap();
        // The same-route predictor ignores route 7's residual...
        assert!((tp - 80.0).abs() < 10.0, "same-route tp {tp}");
        // ...but reacts when its own route reports one.
        store.record(
            edge,
            Traversal {
                route: RouteId(0),
                t_enter: now - 300.0,
                t_exit: now - 300.0 + 280.0,
            },
        );
        let tp = sr.predict_segment(&store, edge, RouteId(0), now).unwrap();
        // +200 s residual, shrunk by K/(K+1) with K = 1 ⇒ +100 s.
        assert!(tp > 160.0, "own residual ignored: {tp}");
    }

    #[test]
    fn same_route_arrival_integration() {
        let route = route_2seg();
        let store = seeded_store(&route, 5);
        let sr = SameRoutePredictor::new(PredictorConfig::default());
        let now = 5.0 * DAY_S + 12.0 * 3_600.0;
        let eta = sr.predict_arrival(&store, &route, 300.0, now, 900.0);
        // Half of segment 0 (40 s) + half of segment 1 (40 s).
        assert!((eta - now - 80.0).abs() < 5.0, "eta {}", eta - now);
        // Behind the bus: now.
        assert_eq!(sr.predict_arrival(&store, &route, 300.0, now, 100.0), now);
    }

    #[test]
    fn same_route_equals_wilocator_unless_another_route_lends_a_residual() {
        let route = route_2seg();
        let mut store = seeded_store(&route, 5);
        let now = 5.0 * DAY_S + 12.0 * 3_600.0;
        // Recent traversals of the queried route only, one slow.
        for (edge, dt, tt) in [(0, 700.0, 150.0), (1, 600.0, 90.0), (0, 400.0, 85.0)] {
            store.record(
                route.edges()[edge],
                Traversal {
                    route: RouteId(0),
                    t_enter: now - dt,
                    t_exit: now - dt + tt,
                },
            );
        }
        let mut wilocator = ArrivalPredictor::new(PredictorConfig::default());
        let mut same_route = SameRoutePredictor::new(PredictorConfig::default());
        wilocator.train(&store, 5.0 * DAY_S);
        same_route.train(&store, 5.0 * DAY_S);
        let both = |store: &TravelTimeStore| {
            (
                wilocator.predict_arrival(store, &route, 150.0, now, 1_100.0),
                same_route.predict_arrival(store, &route, 150.0, now, 1_100.0),
            )
        };
        let (w, s) = both(&store);
        assert_eq!(w.to_bits(), s.to_bits(), "{w} vs {s}");
        // One recent bus of another route crawled segment 1.
        store.record(
            route.edges()[1],
            Traversal {
                route: RouteId(7),
                t_enter: now - 300.0,
                t_exit: now - 300.0 + 240.0,
            },
        );
        let (w, s) = both(&store);
        assert!(
            w > s,
            "the cross-route residual moves only WiLocator: {w} vs {s}"
        );
    }

    #[test]
    fn agency_with_empty_history_uses_fallback() {
        let route = route_2seg();
        let store = TravelTimeStore::new();
        let agency = AgencyPredictor::train(&store, 0.0, PredictorConfig::default());
        let eta = agency.predict_arrival(&route, 0.0, 0.0, 1_200.0);
        // 1200 m at the 6 m/s fallback = 200 s.
        assert!((eta - 200.0).abs() < 5.0, "eta {eta}");
    }
}
