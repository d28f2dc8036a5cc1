//! Property tests for the windowed time-series ring: conservation of
//! counter increments across arbitrary sampling cadences, window
//! monotonicity, and quantile sanity — the invariants the quality
//! plane's detectors lean on.

use proptest::prelude::*;
use wilocator_obs::{MetricsSnapshot, SeriesKind, TimeSeries, TimeSeriesConfig, WindowAgg};

const FAMILY: &str = "wilocator_props_total";

fn series(window_us: u64, windows: usize) -> TimeSeries {
    let mut ts = TimeSeries::new(TimeSeriesConfig { window_us, windows });
    ts.track(FAMILY, SeriesKind::Counter);
    ts
}

fn counter_snapshot(total: u64) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
    snap.add_counter(FAMILY, total);
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the sampling cadence and gaps, retained counter deltas
    /// never invent or double-count increments: the sum of every
    /// retained window's delta is at most (final − first) observed, and
    /// exactly that when nothing rotated out of the ring.
    #[test]
    fn counter_deltas_conserve_increments(
        window_us in 1_000u64..1_000_000,
        windows in 2usize..12,
        steps in proptest::collection::vec((1u64..500_000, 0u64..1_000), 1..40),
    ) {
        let mut ts = series(window_us, windows);
        let mut now = 0u64;
        let mut total = 0u64;
        ts.sample_at(now, &counter_snapshot(total));
        let mut rotated_out = false;
        let first_seen = total;
        for (advance, inc) in steps {
            now += advance;
            total += inc;
            ts.sample_at(now, &counter_snapshot(total));
            if now / window_us >= windows as u64 {
                rotated_out = true;
            }
        }
        let view = ts.view();
        let points = &view.iter().find(|v| v.family == FAMILY).expect("tracked").points;
        let sum: u64 = points
            .iter()
            .map(|p| match p.agg {
                WindowAgg::Counter { delta, .. } => delta,
                _ => 0,
            })
            .sum();
        prop_assert!(sum <= total - first_seen, "sum {sum} > {}", total - first_seen);
        if !rotated_out {
            prop_assert_eq!(sum, total - first_seen);
        }
    }

    /// Window starts are strictly increasing, aligned to the window
    /// grid, and never more than `windows + 1` are retained.
    #[test]
    fn windows_are_monotone_aligned_and_bounded(
        window_us in 1_000u64..1_000_000,
        windows in 1usize..10,
        steps in proptest::collection::vec(1u64..2_000_000, 1..50),
    ) {
        let mut ts = series(window_us, windows);
        let mut now = 0u64;
        for advance in steps {
            now += advance;
            ts.sample_at(now, &counter_snapshot(now / 7));
        }
        let view = ts.view();
        let points = &view.iter().find(|v| v.family == FAMILY).expect("tracked").points;
        prop_assert!(points.len() <= windows + 1, "{} points", points.len());
        let mut prev: Option<u64> = None;
        for p in points {
            prop_assert_eq!(p.start_us % window_us, 0, "unaligned window start");
            if let Some(prev) = prev {
                prop_assert!(p.start_us > prev, "non-monotone window starts");
            }
            prev = Some(p.start_us);
        }
    }

    /// `recent_counter_delta(n)` equals summing the last `n` retained
    /// points by hand — the detector arithmetic and the published view
    /// must agree.
    #[test]
    fn recent_delta_matches_view(
        window_us in 10_000u64..200_000,
        steps in proptest::collection::vec((1u64..300_000, 0u64..100), 1..30),
        n in 1usize..8,
    ) {
        let mut ts = series(window_us, 6);
        let mut now = 0u64;
        let mut total = 0u64;
        ts.sample_at(now, &counter_snapshot(total));
        for (advance, inc) in steps {
            now += advance;
            total += inc;
            ts.sample_at(now, &counter_snapshot(total));
        }
        let view = ts.view();
        let points = &view.iter().find(|v| v.family == FAMILY).expect("tracked").points;
        let by_hand: u64 = points
            .iter()
            .rev()
            .take(n)
            .map(|p| match p.agg {
                WindowAgg::Counter { delta, .. } => delta,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(ts.recent_counter_delta(FAMILY, n), by_hand);
    }

    /// Histogram window quantiles are monotone (p50 <= p90 <= p99) and
    /// bounded by the window's recorded extremes' bucket uppers.
    #[test]
    fn histogram_quantiles_are_monotone(
        values in proptest::collection::vec(0u64..1_000_000, 1..50),
    ) {
        let mut ts = TimeSeries::new(TimeSeriesConfig { window_us: 1_000_000, windows: 4 });
        ts.track("wilocator_props_us", SeriesKind::Histogram);
        let hist = wilocator_obs::Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let mut snap = MetricsSnapshot::new();
        snap.add_histogram("wilocator_props_us", hist.snapshot());
        let mut ts2 = ts;
        ts2.sample_at(0, &MetricsSnapshot::new());
        ts2.sample_at(1, &snap);
        let view = ts2.view();
        let points = &view
            .iter()
            .find(|v| v.family == "wilocator_props_us")
            .expect("tracked")
            .points;
        let Some(&WindowAgg::Histogram { count, p50, p90, p99 }) =
            points.last().map(|p| &p.agg)
        else {
            panic!("open histogram window must exist");
        };
        prop_assert_eq!(count, values.len() as u64);
        prop_assert!(p50 <= p90 && p90 <= p99, "p50 {p50} p90 {p90} p99 {p99}");
    }
}
