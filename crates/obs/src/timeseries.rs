//! Windowed time-series over the metric ledgers: fixed-memory rings of
//! per-window aggregates, rotated deterministically on the stamps the
//! caller samples at.
//!
//! The scrape model ([`crate::MetricsSnapshot`]) answers "how much has
//! ever happened"; dashboards and drift detectors need "how much
//! happened *lately*". [`TimeSeries`] closes that gap without a
//! time-series database: the caller samples a metrics snapshot
//! periodically (the WiLocator server samples at every snapshot
//! publication), and the series splits each tracked family's cumulative
//! value into per-window deltas:
//!
//! * **counter** families → per-window delta and rate (events/s),
//! * **gauge** families → last sampled value per window,
//! * **histogram** families → per-window [`HistogramSnapshot`] deltas,
//!   from which p50/p90/p99 are extracted via the log-bucket
//!   [`HistogramSnapshot::quantile`].
//!
//! # Memory bound
//!
//! Each tracked family holds at most `windows` completed windows plus
//! the open one — counters/gauges one word per window, histograms one
//! [`HistogramSnapshot`] (34 words) per window — so a fully tracked
//! series is a few KiB regardless of uptime. Rotation reuses the ring;
//! nothing grows with time.
//!
//! # Conservation
//!
//! Rotation never drops or double-counts: for a monotone counter, the
//! sum of all retained window deltas plus the evicted-delta remainder
//! equals the cumulative growth since tracking began. Change observed
//! between two samples is attributed to the window of the *later*
//! sample (the series cannot know how a gap distributed it); gap
//! windows close at zero. Property tests in `tests/timeseries_props.rs`
//! pin exactly this.

use std::collections::{BTreeMap, VecDeque};

use crate::histogram::HistogramSnapshot;
use crate::snapshot::MetricsSnapshot;

/// Ring geometry: window width and how many closed windows are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSeriesConfig {
    /// Window width in microseconds of the sample stamps.
    pub window_us: u64,
    /// Closed windows retained per family (the open window rides on
    /// top). Clamped to at least 1.
    pub windows: usize,
}

impl Default for TimeSeriesConfig {
    fn default() -> Self {
        TimeSeriesConfig {
            window_us: 60_000_000,
            windows: 10,
        }
    }
}

/// What a tracked family aggregates per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotone counter: per-window delta + rate.
    Counter,
    /// Instantaneous gauge: last sampled value per window.
    Gauge,
    /// Histogram: per-window snapshot delta, quantiles on demand.
    Histogram,
}

impl SeriesKind {
    /// The `kind` string in the `/debug/timeseries` exposition.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }
}

/// One window's aggregate for one family.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowAgg {
    /// Counter delta over the window and the implied rate.
    Counter {
        /// Cumulative growth inside the window.
        delta: u64,
        /// `delta / window_s`.
        rate_per_s: f64,
    },
    /// Last gauge value sampled in (or carried into) the window.
    Gauge {
        /// The value.
        value: i64,
    },
    /// Histogram delta over the window.
    Histogram {
        /// Values recorded inside the window.
        count: u64,
        /// Median upper bound (log-bucket resolution).
        p50: u64,
        /// 90th-percentile upper bound.
        p90: u64,
        /// 99th-percentile upper bound.
        p99: u64,
    },
}

/// One window of one family: start stamp plus the aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPoint {
    /// Window start on the sample stamps' timeline, microseconds.
    pub start_us: u64,
    /// The aggregate.
    pub agg: WindowAgg,
}

/// A family's retained windows, oldest first; the last point is the
/// still-open window.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesView {
    /// The tracked metric family name.
    pub family: String,
    /// What the family aggregates.
    pub kind: SeriesKind,
    /// Retained windows, oldest → open.
    pub points: Vec<WindowPoint>,
}

#[derive(Debug, Clone)]
enum SeriesState {
    Counter {
        /// Cumulative value at the open window's start (set on first
        /// sample; deltas count from there).
        base: Option<u64>,
        /// Latest sampled cumulative value.
        latest: u64,
        /// Closed per-window deltas, oldest first.
        ring: VecDeque<(u64, u64)>,
    },
    Gauge {
        latest: Option<i64>,
        ring: VecDeque<(u64, i64)>,
    },
    Histogram {
        /// Boxed: a snapshot carries the full bucket array, an order of
        /// magnitude bigger than the other variants; boxing keeps every
        /// `SeriesState` in the map small.
        base: Option<Box<HistogramSnapshot>>,
        latest: Box<HistogramSnapshot>,
        ring: VecDeque<(u64, HistogramSnapshot)>,
    },
}

impl SeriesState {
    fn new(kind: SeriesKind) -> Self {
        match kind {
            SeriesKind::Counter => SeriesState::Counter {
                base: None,
                latest: 0,
                ring: VecDeque::new(),
            },
            SeriesKind::Gauge => SeriesState::Gauge {
                latest: None,
                ring: VecDeque::new(),
            },
            SeriesKind::Histogram => SeriesState::Histogram {
                base: None,
                latest: Box::default(),
                ring: VecDeque::new(),
            },
        }
    }

    fn kind(&self) -> SeriesKind {
        match self {
            SeriesState::Counter { .. } => SeriesKind::Counter,
            SeriesState::Gauge { .. } => SeriesKind::Gauge,
            SeriesState::Histogram { .. } => SeriesKind::Histogram,
        }
    }

    /// Closes the open window at `start_us` and opens the next one.
    fn rotate(&mut self, start_us: u64, capacity: usize) {
        match self {
            SeriesState::Counter { base, latest, ring } => {
                let delta = latest.saturating_sub(base.unwrap_or(*latest));
                push_capped(ring, (start_us, delta), capacity);
                *base = Some(*latest);
            }
            SeriesState::Gauge { latest, ring } => {
                push_capped(ring, (start_us, latest.unwrap_or(0)), capacity);
            }
            SeriesState::Histogram { base, latest, ring } => {
                let open = match base {
                    Some(b) => snapshot_delta(latest, b),
                    None => HistogramSnapshot::default(),
                };
                push_capped(ring, (start_us, open), capacity);
                *base = Some(latest.clone());
            }
        }
    }
}

fn push_capped<T>(ring: &mut VecDeque<T>, item: T, capacity: usize) {
    while ring.len() >= capacity.max(1) {
        ring.pop_front();
    }
    ring.push_back(item);
}

/// `a − b` per field, saturating — both snapshots come from the same
/// monotone histogram, so saturation only absorbs benign tearing skew.
fn snapshot_delta(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = HistogramSnapshot {
        count: a.count.saturating_sub(b.count),
        sum: a.sum.saturating_sub(b.sum),
        buckets: [0; crate::histogram::BUCKETS],
    };
    for (o, (x, y)) in out.buckets.iter_mut().zip(a.buckets.iter().zip(&b.buckets)) {
        *o = x.saturating_sub(*y);
    }
    out
}

/// Sum of every gauge whose family (key up to any `{`) equals `family`.
fn gauge_family_total(snapshot: &MetricsSnapshot, family: &str) -> i64 {
    snapshot
        .gauges()
        .iter()
        .filter(|(k, _)| k.as_str() == family || k.split('{').next() == Some(family))
        .map(|(_, &v)| v)
        .sum()
}

/// Merge of every histogram whose family equals `family`.
fn histogram_family_merged(snapshot: &MetricsSnapshot, family: &str) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for (k, h) in snapshot.histograms() {
        if k.as_str() == family || k.split('{').next() == Some(family) {
            merged.merge(h);
        }
    }
    merged
}

/// The windowed time-series ring. Single-writer by design: the server
/// samples it from inside the (already serialized) snapshot publication
/// path, so the struct itself carries no locks.
#[derive(Debug)]
pub struct TimeSeries {
    config: TimeSeriesConfig,
    /// Index (`start_us / window_us`) of the open window; `None` until
    /// the first sample anchors the ring.
    open_window: Option<u64>,
    series: BTreeMap<String, SeriesState>,
}

impl TimeSeries {
    /// An empty ring.
    pub fn new(config: TimeSeriesConfig) -> Self {
        TimeSeries {
            config: TimeSeriesConfig {
                window_us: config.window_us.max(1),
                windows: config.windows.max(1),
            },
            open_window: None,
            series: BTreeMap::new(),
        }
    }

    /// The ring geometry.
    pub fn config(&self) -> TimeSeriesConfig {
        self.config
    }

    /// Tracks a family (idempotent; the kind of an existing family is
    /// never changed).
    pub fn track(&mut self, family: &str, kind: SeriesKind) {
        self.series
            .entry(family.to_string())
            .or_insert_with(|| SeriesState::new(kind));
    }

    /// Samples every tracked family from `snapshot` at stamp `now_us`
    /// (the server passes stream time; tests pass literals). A stamp
    /// earlier than the open window is clamped into it, so a skewed
    /// stamp can never rotate the ring backwards.
    pub fn sample_at(&mut self, now_us: u64, snapshot: &MetricsSnapshot) {
        let window = now_us / self.config.window_us;
        let open = match self.open_window {
            None => {
                self.open_window = Some(window);
                window
            }
            Some(open) => open,
        };
        if window > open {
            // Close the open window, zero-fill any skipped ones (their
            // start stamps keep the timeline honest), then land in the
            // new open window. Rotation count is bounded by the ring
            // capacity: older windows would be evicted immediately.
            let skipped = (window - open).min(self.config.windows as u64 + 1);
            let first = window - skipped + 1;
            for w in 0..skipped {
                let closing = first + w;
                let start_us = (closing - 1).saturating_mul(self.config.window_us);
                for state in self.series.values_mut() {
                    state.rotate(start_us, self.config.windows);
                }
            }
            self.open_window = Some(window);
        }
        for (family, state) in self.series.iter_mut() {
            match state {
                SeriesState::Counter { base, latest, .. } => {
                    *latest = snapshot.counter_family_total(family);
                    if base.is_none() {
                        *base = Some(*latest);
                    }
                }
                SeriesState::Gauge { latest, .. } => {
                    *latest = Some(gauge_family_total(snapshot, family));
                }
                SeriesState::Histogram { base, latest, .. } => {
                    **latest = histogram_family_merged(snapshot, family);
                    if base.is_none() {
                        *base = Some(latest.clone());
                    }
                }
            }
        }
    }

    /// Every tracked family's retained windows (closed windows oldest
    /// first, the open window last), families in name order.
    pub fn view(&self) -> Vec<SeriesView> {
        let window_s = self.config.window_us as f64 / 1e6;
        let open_start = self
            .open_window
            .unwrap_or(0)
            .saturating_mul(self.config.window_us);
        self.series
            .iter()
            .map(|(family, state)| {
                let mut points = Vec::new();
                match state {
                    SeriesState::Counter { base, latest, ring } => {
                        for &(start_us, delta) in ring {
                            points.push(WindowPoint {
                                start_us,
                                agg: WindowAgg::Counter {
                                    delta,
                                    rate_per_s: delta as f64 / window_s,
                                },
                            });
                        }
                        let open_delta = latest.saturating_sub(base.unwrap_or(*latest));
                        points.push(WindowPoint {
                            start_us: open_start,
                            agg: WindowAgg::Counter {
                                delta: open_delta,
                                rate_per_s: open_delta as f64 / window_s,
                            },
                        });
                    }
                    SeriesState::Gauge { latest, ring } => {
                        for &(start_us, value) in ring {
                            points.push(WindowPoint {
                                start_us,
                                agg: WindowAgg::Gauge { value },
                            });
                        }
                        points.push(WindowPoint {
                            start_us: open_start,
                            agg: WindowAgg::Gauge {
                                value: latest.unwrap_or(0),
                            },
                        });
                    }
                    SeriesState::Histogram { base, latest, ring } => {
                        for (start_us, delta) in ring {
                            points.push(WindowPoint {
                                start_us: *start_us,
                                agg: histogram_agg(delta),
                            });
                        }
                        let open = match base {
                            Some(b) => snapshot_delta(latest, b),
                            None => HistogramSnapshot::default(),
                        };
                        points.push(WindowPoint {
                            start_us: open_start,
                            agg: histogram_agg(&open),
                        });
                    }
                }
                SeriesView {
                    family: family.clone(),
                    kind: state.kind(),
                    points,
                }
            })
            .collect()
    }

    /// Sum of a counter family's deltas over the most recent `n`
    /// windows (open window included) — the detector-facing read.
    pub fn recent_counter_delta(&self, family: &str, n: usize) -> u64 {
        match self.series.get(family) {
            Some(SeriesState::Counter { base, latest, ring }) => {
                let open = latest.saturating_sub(base.unwrap_or(*latest));
                let closed: u64 = ring
                    .iter()
                    .rev()
                    .take(n.saturating_sub(1))
                    .map(|&(_, d)| d)
                    .sum();
                open + closed
            }
            _ => 0,
        }
    }
}

fn histogram_agg(delta: &HistogramSnapshot) -> WindowAgg {
    WindowAgg::Histogram {
        count: delta.count,
        p50: delta.quantile(0.5),
        p90: delta.quantile(0.9),
        p99: delta.quantile(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn series(window_us: u64, windows: usize) -> TimeSeries {
        TimeSeries::new(TimeSeriesConfig { window_us, windows })
    }

    fn counter_snapshot(v: u64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.add_counter("hits_total{shard=\"0\"}", v / 2);
        s.add_counter("hits_total{shard=\"1\"}", v - v / 2);
        s
    }

    #[test]
    fn counter_deltas_split_by_window() {
        let mut ts = series(100, 4);
        ts.track("hits_total", SeriesKind::Counter);
        ts.sample_at(0, &counter_snapshot(10));
        ts.sample_at(50, &counter_snapshot(14));
        ts.sample_at(120, &counter_snapshot(20));
        ts.sample_at(130, &counter_snapshot(21));
        let view = ts.view();
        assert_eq!(view.len(), 1);
        let points = &view[0].points;
        assert_eq!(points.len(), 2, "one closed + the open window");
        assert_eq!(
            points[0].agg,
            WindowAgg::Counter {
                delta: 4,
                rate_per_s: 4.0 / 1e-4
            }
        );
        // The 14→20 growth spans the rotation and lands in the later
        // window: 6 + 1 = 7.
        assert_eq!(
            points[1].agg,
            WindowAgg::Counter {
                delta: 7,
                rate_per_s: 7.0 / 1e-4
            }
        );
    }

    #[test]
    fn conservation_across_rotation_and_gaps() {
        let mut ts = series(100, 64);
        ts.track("hits_total", SeriesKind::Counter);
        ts.sample_at(0, &counter_snapshot(3));
        ts.sample_at(10, &counter_snapshot(8));
        ts.sample_at(505, &counter_snapshot(40)); // 4-window gap
        ts.sample_at(710, &counter_snapshot(41));
        let total: u64 = ts.view()[0]
            .points
            .iter()
            .map(|p| match p.agg {
                WindowAgg::Counter { delta, .. } => delta,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 41 - 3, "deltas sum to cumulative growth");
    }

    #[test]
    fn ring_memory_is_bounded() {
        let mut ts = series(10, 3);
        ts.track("hits_total", SeriesKind::Counter);
        for i in 0..1_000u64 {
            ts.sample_at(i * 10, &counter_snapshot(i));
        }
        let points = &ts.view()[0].points;
        assert_eq!(points.len(), 4, "3 closed + open");
    }

    #[test]
    fn gauges_carry_last_value() {
        let mut ts = series(100, 4);
        ts.track("depth", SeriesKind::Gauge);
        let mut s = MetricsSnapshot::new();
        s.add_gauge("depth", 7);
        ts.sample_at(0, &s);
        ts.sample_at(250, &s); // two rotations, no new value
        let points = &ts.view()[0].points;
        assert_eq!(points.len(), 3);
        assert!(points
            .iter()
            .all(|p| p.agg == WindowAgg::Gauge { value: 7 }));
    }

    #[test]
    fn histogram_windows_expose_quantiles() {
        let mut ts = series(100, 4);
        ts.track("lat_us", SeriesKind::Histogram);
        let h = Histogram::new();
        let mut snap = MetricsSnapshot::new();
        snap.add_histogram("lat_us", h.snapshot());
        ts.sample_at(0, &snap);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let mut snap = MetricsSnapshot::new();
        snap.add_histogram("lat_us", h.snapshot());
        ts.sample_at(50, &snap);
        let points = &ts.view()[0].points;
        match &points[0].agg {
            WindowAgg::Histogram {
                count, p50, p99, ..
            } => {
                assert_eq!(*count, 4);
                assert!(p50 <= p99);
                assert!(*p99 >= 100);
            }
            other => panic!("want histogram agg, got {other:?}"),
        }
    }

    #[test]
    fn backwards_clock_never_rotates_backwards() {
        let mut ts = series(100, 4);
        ts.track("hits_total", SeriesKind::Counter);
        ts.sample_at(250, &counter_snapshot(5));
        ts.sample_at(40, &counter_snapshot(9)); // skewed early stamp
        let points = &ts.view()[0].points;
        assert_eq!(points.len(), 1, "no rotation on backwards stamp");
        assert_eq!(
            points[0].agg,
            WindowAgg::Counter {
                delta: 4,
                rate_per_s: 4.0 / 1e-4
            }
        );
    }

    #[test]
    fn recent_counter_delta_sums_latest_windows() {
        let mut ts = series(100, 8);
        ts.track("hits_total", SeriesKind::Counter);
        ts.sample_at(0, &counter_snapshot(0));
        ts.sample_at(150, &counter_snapshot(10));
        ts.sample_at(250, &counter_snapshot(30));
        // Closed windows: [0,?], [10]; open: 20.
        assert_eq!(ts.recent_counter_delta("hits_total", 1), 20);
        assert_eq!(ts.recent_counter_delta("hits_total", 2), 30);
        assert_eq!(ts.recent_counter_delta("hits_total", 16), 30);
        assert_eq!(ts.recent_counter_delta("absent_total", 3), 0);
    }
}
