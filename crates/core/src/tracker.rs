//! Real-time per-bus tracking (§V-A.2) and intersection-crossing
//! interpolation (Fig. 5).

use wilocator_geo::GeoPoint;
use wilocator_obs::TraceCtx;
use wilocator_road::Route;
use wilocator_svd::{Fix, RoutePositioner, TrackingFilter};

use crate::report::ScanReport;

/// A tracked trajectory: the paper's Definition 6 (sequence of
/// `<lat, long, t>`), kept here in route coordinates with planar points;
/// [`BusTracker::trajectory_geo`] converts to geodetic tuples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrackedTrajectory {
    fixes: Vec<Fix>,
}

impl TrackedTrajectory {
    /// The position fixes in time order.
    pub fn fixes(&self) -> &[Fix] {
        &self.fixes
    }

    /// True when no fix has been produced yet.
    pub fn is_empty(&self) -> bool {
        self.fixes.is_empty()
    }

    /// The most recent fix.
    pub fn last(&self) -> Option<&Fix> {
        self.fixes.last()
    }
}

/// What became of one ingested report (the classification the server's
/// metrics need; [`BusTracker::ingest`] collapses it to `Option<Fix>`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestOutcome {
    /// The report produced a new fix, appended to the trajectory.
    Fix(Fix),
    /// The report was older than the latest fix (network reordering), or
    /// its time stamp was not finite, and was dropped; trajectory and
    /// committed traversals are untouched.
    Stale,
    /// The report was absorbed without producing a fix (e.g. acquisition
    /// has not locked yet); trajectory is untouched.
    NoFix,
}

impl IngestOutcome {
    /// Stable lowercase label, used for trace-span fields and logs.
    pub fn label(&self) -> &'static str {
        match self {
            IngestOutcome::Fix(_) => "fix",
            IngestOutcome::Stale => "stale",
            IngestOutcome::NoFix => "absorbed",
        }
    }
}

/// Tracks one bus over its route from incoming scan reports.
///
/// Holds the SVD positioner, rank-averages each report's scans across
/// devices, applies the mobility prior, and accumulates the trajectory.
#[derive(Debug, Clone)]
pub struct BusTracker {
    filter: TrackingFilter,
    trajectory: TrackedTrajectory,
}

impl BusTracker {
    /// Creates a tracker around a prepared positioner.
    pub fn new(positioner: RoutePositioner) -> Self {
        BusTracker {
            filter: TrackingFilter::new(positioner),
            trajectory: TrackedTrajectory::default(),
        }
    }

    /// The route being tracked.
    pub fn route(&self) -> &Route {
        self.filter.positioner().route()
    }

    /// The accumulated trajectory.
    pub fn trajectory(&self) -> &TrackedTrajectory {
        &self.trajectory
    }

    /// Ingests one scan report, returning the new fix if one was produced.
    ///
    /// Reports older than the latest fix (network reordering between the
    /// riders' phones and the server) and reports whose time stamp is not
    /// finite are dropped.
    pub fn ingest(&mut self, report: &ScanReport) -> Option<Fix> {
        match self.ingest_classified(report) {
            IngestOutcome::Fix(fix) => Some(fix),
            IngestOutcome::Stale | IngestOutcome::NoFix => None,
        }
    }

    /// [`BusTracker::ingest`], but reporting *why* no fix was produced —
    /// a stale (reordered) report is dropped, anything else is absorbed.
    pub fn ingest_classified(&mut self, report: &ScanReport) -> IngestOutcome {
        self.ingest_classified_traced(report, None)
    }

    /// [`BusTracker::ingest_classified`] with an optional trace context:
    /// opens a `track` child span (the stale drop happens before any span
    /// opens), under which the filter's positioning attempts nest.
    pub fn ingest_classified_traced(
        &mut self,
        report: &ScanReport,
        trace: Option<&TraceCtx<'_>>,
    ) -> IngestOutcome {
        // A NaN stamp would pass the order check below and become a fix at
        // t = NaN; a +inf one would make every later report stale.
        if !report.time_s.is_finite() {
            return IngestOutcome::Stale;
        }
        if let Some(last) = self.trajectory.last() {
            if report.time_s < last.time_s {
                return IngestOutcome::Stale;
            }
        }
        let span = trace.map(|t| t.child_span("track"));
        // Every AP heard by at least one scan enters the rank list.
        let ranked = report.positioning_ranks(1);
        if let Some(sp) = &span {
            sp.field("ranked_aps", ranked.len());
        }
        // Rank order comes from the averaged ranks; re-expressing as RSS
        // keeps tie detection meaningful (equal mean RSS ⇒ boundary).
        // Prior chaining and divergence recovery live in the filter.
        match self.filter.step_traced(&ranked, report.time_s, trace) {
            Some(fix) => {
                self.trajectory.fixes.push(fix);
                IngestOutcome::Fix(fix)
            }
            None => IngestOutcome::NoFix,
        }
    }

    /// Whether the trip is plausibly finished (last fix at the route end).
    pub fn finished(&self) -> bool {
        self.trajectory
            .last()
            .map(|f| f.s >= self.route().length() - 1.0)
            .unwrap_or(false)
    }

    /// The trajectory as geodetic `<lat, long, t>` tuples (Definition 6),
    /// through the given projection.
    pub fn trajectory_geo(&self, projection: &wilocator_geo::Projection) -> Vec<(GeoPoint, f64)> {
        self.trajectory
            .fixes
            .iter()
            .map(|f| (projection.unproject(f.point), f.time_s))
            .collect()
    }
}

/// Interpolates the time the bus crossed route arc length `s_cross` from
/// the two fixes straddling it (Fig. 5): travelling "smoothly, i.e., at a
/// steady speed" between scans A and B, the crossing time is
/// `t(A) + t(A,B) · d(A, cross) / d_r(A, B)`.
///
/// Returns `None` when no straddling pair exists. A crossing slightly
/// before the first fix (at most one inter-fix distance — the route start,
/// which the first scan already overshoots) is recovered by backward
/// extrapolation at the speed of the first moving pair.
pub fn crossing_time(fixes: &[Fix], s_cross: f64) -> Option<f64> {
    let mut prev: Option<&Fix> = None;
    for f in fixes {
        if let Some(a) = prev {
            if a.s <= s_cross && f.s >= s_cross {
                if f.s - a.s < 1e-9 {
                    return Some(a.time_s);
                }
                return Some(a.time_s + (f.time_s - a.time_s) * (s_cross - a.s) / (f.s - a.s));
            }
        }
        prev = Some(f);
    }
    // Extrapolation window: a crossing at most this far (in time, at the
    // locally observed speed) outside the fix range is still recovered —
    // the route start the first scan overshoots and the route end the last
    // scan stops short of.
    const EXTRAP_LIMIT_S: f64 = 30.0;
    let first = fixes.first()?;
    if s_cross < first.s {
        let moving = fixes.windows(2).find(|w| w[1].s > w[0].s + 1e-9)?;
        let v = (moving[1].s - moving[0].s) / (moving[1].time_s - moving[0].time_s).max(1e-9);
        let gap = first.s - s_cross;
        if gap / v <= EXTRAP_LIMIT_S {
            return Some(first.time_s - gap / v);
        }
    }
    let last = fixes.last()?;
    if s_cross > last.s {
        let moving = fixes.windows(2).rev().find(|w| w[1].s > w[0].s + 1e-9)?;
        let v = (moving[1].s - moving[0].s) / (moving[1].time_s - moving[0].time_s).max(1e-9);
        let gap = s_cross - last.s;
        if gap / v <= EXTRAP_LIMIT_S {
            return Some(last.time_s + gap / v);
        }
    }
    None
}

/// Extracted ground data for one traversed route segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentTraversal {
    /// Index of the segment within the route.
    pub edge_index: usize,
    /// Interpolated arrival at the segment start, seconds.
    pub t_enter: f64,
    /// Interpolated arrival at the segment end, seconds.
    pub t_exit: f64,
}

impl SegmentTraversal {
    /// Travel time over the segment, seconds.
    pub fn travel_time(&self) -> f64 {
        self.t_exit - self.t_enter
    }
}

/// Extracts the completed segment traversals from a tracked trajectory.
pub fn segment_traversals(route: &Route, fixes: &[Fix]) -> Vec<SegmentTraversal> {
    let mut out = Vec::new();
    for i in 0..route.edges().len() {
        let (Some(t_enter), Some(t_exit)) = (
            crossing_time(fixes, route.edge_start_s(i)),
            crossing_time(fixes, route.edge_end_s(i)),
        ) else {
            continue;
        };
        if t_exit > t_enter {
            out.push(SegmentTraversal {
                edge_index: i,
                t_enter,
                t_exit,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wilocator_geo::Point;
    use wilocator_rf::{AccessPoint, ApId, Bssid, HomogeneousField, Reading, Scan, SignalField};
    use wilocator_road::{NetworkBuilder, RouteId};
    use wilocator_svd::{FixMethod, PositionerConfig, RouteTileIndex, SvdConfig};

    fn setup() -> (BusTracker, HomogeneousField) {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(400.0, 0.0));
        let n2 = b.add_node(Point::new(800.0, 0.0));
        let e0 = b.add_edge(n0, n1, None).unwrap();
        let e1 = b.add_edge(n1, n2, None).unwrap();
        let net = b.build();
        let route = Route::new(RouteId(0), "t", vec![e0, e1], &net).unwrap();
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
        let index = RouteTileIndex::build(&field, &route, SvdConfig::default(), 1.0);
        (
            BusTracker::new(RoutePositioner::new(
                route,
                index,
                PositionerConfig::default(),
            )),
            field,
        )
    }

    fn report_at(field: &HomogeneousField, p: Point, t: f64, bus: u64) -> ScanReport {
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
            bus: crate::report::BusKey(bus),
            time_s: t,
            scans: vec![Scan::new(t, readings)],
        }
    }

    #[test]
    fn tracker_follows_a_noiseless_bus() {
        let (mut tracker, field) = setup();
        // Bus moves at 10 m/s, scans every 10 s.
        for k in 0..8 {
            let t = k as f64 * 10.0;
            let s = t * 10.0;
            let p = tracker.route().point_at(s);
            let fix = tracker.ingest(&report_at(&field, p, t, 1));
            if let Some(f) = fix {
                assert!((f.s - s).abs() < 50.0, "tick {k}: {} vs {s}", f.s);
            }
        }
        assert_eq!(tracker.trajectory().fixes().len(), 8);
        // Monotone trajectory.
        for w in tracker.trajectory().fixes().windows(2) {
            assert!(w[1].s >= w[0].s - 1e-9);
        }
    }

    #[test]
    fn empty_report_dead_reckons() {
        let (mut tracker, field) = setup();
        let p = tracker.route().point_at(100.0);
        tracker.ingest(&report_at(&field, p, 0.0, 1));
        let fix = tracker
            .ingest(&ScanReport {
                bus: crate::report::BusKey(1),
                time_s: 10.0,
                scans: vec![Scan::new(10.0, vec![])],
            })
            .unwrap();
        assert_eq!(fix.method, FixMethod::DeadReckoned);
    }

    #[test]
    fn stale_report_is_classified_and_dropped() {
        let (mut tracker, field) = setup();
        let p = tracker.route().point_at(100.0);
        assert!(matches!(
            tracker.ingest_classified(&report_at(&field, p, 50.0, 1)),
            IngestOutcome::Fix(_)
        ));
        let before = tracker.trajectory().fixes().to_vec();
        // An older report arrives late: dropped, trajectory untouched.
        let q = tracker.route().point_at(60.0);
        assert_eq!(
            tracker.ingest_classified(&report_at(&field, q, 20.0, 1)),
            IngestOutcome::Stale
        );
        assert_eq!(tracker.trajectory().fixes(), &before[..]);
    }

    #[test]
    fn crossing_time_interpolates_linearly() {
        let mk = |t: f64, s: f64| Fix {
            s,
            point: Point::new(s, 0.0),
            interval: (s, s),
            method: FixMethod::Exact,
            time_s: t,
        };
        let fixes = vec![mk(0.0, 380.0), mk(10.0, 420.0)];
        // Crossing s = 400 halfway between the two fixes.
        assert_eq!(crossing_time(&fixes, 400.0), Some(5.0));
        assert_eq!(crossing_time(&fixes, 380.0), Some(0.0));
        assert_eq!(crossing_time(&fixes, 420.0), Some(10.0));
        // Within the 30 s extrapolation window (80 m at 4 m/s = 20 s).
        assert_eq!(crossing_time(&fixes, 500.0), Some(30.0));
        assert_eq!(crossing_time(&fixes, 340.0), Some(-10.0));
        // Far outside the window: unknown.
        assert_eq!(crossing_time(&fixes, 1_000.0), None);
        assert_eq!(crossing_time(&fixes, 100.0), None);
    }

    #[test]
    fn crossing_time_handles_dwell_at_the_node() {
        let mk = |t: f64, s: f64| Fix {
            s,
            point: Point::new(s, 0.0),
            interval: (s, s),
            method: FixMethod::Exact,
            time_s: t,
        };
        // Bus stopped exactly at the crossing point.
        let fixes = vec![mk(0.0, 400.0), mk(20.0, 400.0), mk(30.0, 450.0)];
        assert_eq!(crossing_time(&fixes, 400.0), Some(0.0));
    }

    #[test]
    fn segment_traversals_from_full_trip() {
        let (mut tracker, field) = setup();
        for k in 0..=16 {
            let t = k as f64 * 10.0;
            let s = (t * 5.0).min(800.0);
            let p = tracker.route().point_at(s);
            tracker.ingest(&report_at(&field, p, t, 1));
        }
        let route = tracker.route().clone();
        let traversals = segment_traversals(&route, tracker.trajectory().fixes());
        assert_eq!(traversals.len(), 2);
        // ~80 s per 400 m segment at 5 m/s.
        for tr in &traversals {
            assert!(
                (tr.travel_time() - 80.0).abs() < 25.0,
                "segment {} took {}",
                tr.edge_index,
                tr.travel_time()
            );
        }
    }

    #[test]
    fn finished_detects_route_end() {
        let (mut tracker, field) = setup();
        assert!(!tracker.finished());
        let end = tracker.route().length();
        let p = tracker.route().point_at(end);
        tracker.ingest(&report_at(&field, p, 0.0, 1));
        // A single fix near the end suffices.
        if let Some(f) = tracker.trajectory().last() {
            if f.s >= end - 1.0 {
                assert!(tracker.finished());
            }
        }
    }

    #[test]
    fn trajectory_geo_roundtrips() {
        let (mut tracker, field) = setup();
        let p = tracker.route().point_at(100.0);
        tracker.ingest(&report_at(&field, p, 0.0, 1));
        let proj = wilocator_geo::Projection::new(GeoPoint::new(49.26, -123.14));
        let geo = tracker.trajectory_geo(&proj);
        assert_eq!(geo.len(), 1);
        let back = proj.project(geo[0].0);
        assert!(back.distance(tracker.trajectory().last().unwrap().point) < 1e-6);
    }
}
