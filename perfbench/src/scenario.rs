//! The benchmark's inputs, generated from one seed: the Table-I city at
//! 3-minute headways, two phones per bus scanning every 10 s, two days of
//! history and the morning of a third, evaluation, day.
//!
//! Generation is not timed. Trips are simulated on two threads, each trip
//! with its own random stream derived from the seed and its trip id the
//! way `wilocator_sim::simulate` derives them, so the inputs do not depend
//! on the thread count.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wilocator_core::{BusKey, ScanReport};
use wilocator_eval::{vancouver_city, vancouver_pipeline, Scale};
use wilocator_road::{Route, RouteId};
use wilocator_sim::{
    daily_schedule, sense_trip, simulate_trip, City, SimulationConfig, TrafficModel, Trajectory,
    DAY_S,
};

/// Headway of every route, seconds: ROADMAP's 10× bus-density row.
pub const HEADWAY_S: f64 = 180.0;
/// Days of recorded history before the evaluation day.
pub const HISTORY_DAYS: u32 = 2;
/// Seed of the traffic model, the same in every run: the three days'
/// congestion is part of the scenario, like the road map. A day-level
/// congestion draw moves the rush-hour ETA error by a factor of two from
/// one day to the next, far more than any change to the program would.
/// The run's seed draws everything else: the AP deployment and
/// shadowing, the buses' kinematics, the phones' scans and the rider
/// requests.
pub const TRAFFIC_SEED: u64 = 0x7_ABCD;
/// Stream time covered by one batch: the scan period, so each bus in
/// service reports about once per batch.
pub const BATCH_S: f64 = 10.0;

/// One simulated trip; its id is the bus key the server tracks it under.
#[derive(Debug)]
pub struct Trip {
    /// The route served.
    pub route: RouteId,
    /// Ground-truth motion, kept only for the days whose answers are
    /// checked against it.
    pub truth: Option<Trajectory>,
}

/// What the benchmark knows about one report besides what the server
/// receives.
#[derive(Debug, Clone, Copy)]
pub struct Meta {
    /// Ground-truth arc length at the report's time, metres.
    pub true_s: f64,
    /// The trip's first report: register the bus before handing it.
    pub first: bool,
    /// The trip's last report: finish the bus after handing it.
    pub last: bool,
}

/// One day of the stream, in stream order (time, then bus key).
#[derive(Debug, Default)]
pub struct Day {
    /// What the server receives.
    pub reports: Vec<ScanReport>,
    /// The same reports' ground truth and trip boundaries.
    pub meta: Vec<Meta>,
}

/// Everything a run streams, generated from one seed.
#[derive(Debug)]
pub struct Scenario {
    /// The city (routes, stops, the server's geo-tag field).
    pub city: City,
    /// Every trip, indexed by bus key.
    pub trips: Vec<Trip>,
    /// The stream, one entry per day.
    pub days: Vec<Day>,
    /// Start of the evaluation day's measured window (the traffic
    /// model's morning rush), absolute seconds. The evaluation day's
    /// stream ends with the rush.
    pub rush_start_s: f64,
    /// Wall time spent generating, seconds.
    pub generation_s: f64,
}

impl Scenario {
    /// Generates `days` days (history days first, then the evaluation day
    /// cut at the end of its morning rush), keeping ground-truth
    /// trajectories for the trips of day `truth_day`.
    pub fn generate(seed: u64, days: u32, truth_day: u32) -> Scenario {
        let started = Instant::now();
        let city = vancouver_city(seed);
        let pipeline = vancouver_pipeline(Scale::Medium, seed);
        let mut traffic = TrafficModel::new(&city.network, pipeline.traffic, TRAFFIC_SEED);
        for &(route, factor) in &pipeline.route_factors {
            traffic.set_route_factor(route, factor);
        }
        for &(route, sensitivity) in &pipeline.congestion_sensitivities {
            traffic.set_congestion_sensitivity(route, sensitivity);
        }
        let headways: Vec<(RouteId, f64)> =
            city.routes.iter().map(|r| (r.id(), HEADWAY_S)).collect();
        let schedule = daily_schedule(&city, &headways);
        let (rush_start_tod, rush_end_tod) = traffic.config().morning_rush;
        let eval_day = HISTORY_DAYS;
        let rush_start_s = f64::from(eval_day) * DAY_S + rush_start_tod;
        let rush_end_s = f64::from(eval_day) * DAY_S + rush_end_tod;

        // (day, route, departure) per trip, in `simulate`'s trip-id order.
        let mut plan = Vec::new();
        for day in 0..days {
            for trip in schedule.trips() {
                let departure = f64::from(day) * DAY_S + trip.departure_s;
                if day == eval_day && departure >= rush_end_s {
                    continue;
                }
                plan.push((day, trip.route, departure));
            }
        }
        let sim = pipeline.sim;
        let simulated = simulate_trips(&city, &traffic, &sim, seed, &plan);

        let mut trips = Vec::with_capacity(plan.len());
        let mut events: Vec<Vec<(ScanReport, Meta)>> = (0..days).map(|_| Vec::new()).collect();
        for (id, ((day, route, _), (trajectory, bundles))) in plan.iter().zip(simulated).enumerate()
        {
            let kept: Vec<_> = bundles
                .into_iter()
                .filter(|b| *day != eval_day || b.time_s < rush_end_s)
                .collect();
            let n = kept.len();
            for (i, bundle) in kept.into_iter().enumerate() {
                events[*day as usize].push((
                    ScanReport {
                        bus: BusKey(id as u64),
                        time_s: bundle.time_s,
                        scans: bundle.scans,
                    },
                    Meta {
                        true_s: bundle.true_s,
                        first: i == 0,
                        last: i + 1 == n,
                    },
                ));
            }
            trips.push(Trip {
                route: *route,
                truth: (*day == truth_day).then_some(trajectory),
            });
        }
        let days_out = events
            .into_iter()
            .map(|mut day| {
                day.sort_by(|(a, _), (b, _)| a.time_s.total_cmp(&b.time_s).then(a.bus.cmp(&b.bus)));
                let (reports, meta) = day.into_iter().unzip();
                Day { reports, meta }
            })
            .collect();
        Scenario {
            city,
            trips,
            days: days_out,
            rush_start_s,
            generation_s: started.elapsed().as_secs_f64(),
        }
    }

    /// The route a bus serves.
    pub fn route_of(&self, bus: BusKey) -> Option<&Route> {
        let trip = self.trips.get(bus.0 as usize)?;
        self.city.route(trip.route)
    }
}

/// Simulates every planned trip on two threads (trip `i` on thread
/// `i % 2`), returning each trip's trajectory and scan bundles in plan
/// order.
fn simulate_trips(
    city: &City,
    traffic: &TrafficModel,
    sim: &SimulationConfig,
    seed: u64,
    plan: &[(u32, RouteId, f64)],
) -> Vec<(Trajectory, Vec<wilocator_sim::ScanBundle>)> {
    const THREADS: usize = 2;
    let ap_index = city.ap_index();
    let mut parts: Vec<Vec<(usize, Trajectory, Vec<wilocator_sim::ScanBundle>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|lane| {
                    let ap_index = &ap_index;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for (id, &(_, route, departure)) in
                            plan.iter().enumerate().skip(lane).step_by(THREADS)
                        {
                            let route_index = city
                                .routes
                                .iter()
                                .position(|r| r.id() == route)
                                .expect("the schedule names the city's routes");
                            let mut rng =
                                StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9));
                            let trajectory = simulate_trip(
                                &city.routes[route_index],
                                traffic,
                                departure,
                                &sim.bus,
                                &mut rng,
                            );
                            let bundles = sense_trip(
                                city,
                                &trajectory,
                                route_index,
                                &sim.sensing,
                                ap_index,
                                &mut rng,
                            );
                            out.push((id, trajectory, bundles));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a generator thread panicked"))
                .collect()
        });
    let mut all: Vec<_> = parts.iter_mut().flat_map(std::mem::take).collect();
    all.sort_by_key(|(id, _, _)| *id);
    all.into_iter().map(|(_, t, b)| (t, b)).collect()
}

/// Ground truth: where a trip's bus was at stream time `t`, metres of arc
/// length (clamped to the trip).
pub fn true_s_at(truth: &Trajectory, t: f64) -> f64 {
    truth.s_at(t)
}

/// Ground truth: when a trip's bus first reached arc length `stop_s`
/// (its arrival at a stop there), absolute seconds.
pub fn true_arrival(truth: &Trajectory, stop_s: f64) -> f64 {
    truth.time_at_s(stop_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 m at 100 s, 300 m at 130 s (10 m/s), a dwell at 300 m until
    /// 150 s, then 500 m at 170 s.
    fn trip() -> Trajectory {
        let mut t = Trajectory::new(100.0, 0.0);
        t.push(130.0, 300.0);
        t.push(150.0, 300.0);
        t.push(170.0, 500.0);
        t
    }

    #[test]
    fn arc_length_interpolates_between_samples() {
        let t = trip();
        assert_eq!(true_s_at(&t, 100.0), 0.0);
        assert_eq!(true_s_at(&t, 115.0), 150.0);
        assert_eq!(true_s_at(&t, 140.0), 300.0);
        assert_eq!(true_s_at(&t, 160.0), 400.0);
        // Outside the trip the bus sits at its ends.
        assert_eq!(true_s_at(&t, 50.0), 0.0);
        assert_eq!(true_s_at(&t, 900.0), 500.0);
    }

    #[test]
    fn arrival_is_the_first_time_a_stop_is_reached() {
        let t = trip();
        assert_eq!(true_arrival(&t, 150.0), 115.0);
        // A stop at the dwell is reached when the dwell begins.
        assert_eq!(true_arrival(&t, 300.0), 130.0);
        assert_eq!(true_arrival(&t, 400.0), 160.0);
        assert_eq!(true_arrival(&t, 500.0), 170.0);
    }
}
