//! Log-bucketed latency histogram and RAII span timer.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::Clock;

/// Number of power-of-two buckets. Bucket `i` counts values `v` with
/// `bucket_index(v) == i`; bucket 0 holds `v == 0`, bucket `i >= 1` holds
/// `2^(i-1) <= v < 2^i`, and the last bucket absorbs everything above.
/// With 32 buckets a microsecond-valued histogram spans sub-µs to ~35 min.
pub const BUCKETS: usize = 32;

/// The bucket that counts `v` (see [`BUCKETS`] for the layout).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Upper bound (inclusive) of bucket `i`, for exposition.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-bucket, lock-free histogram of non-negative integer values
/// (typically microseconds). Recording is three relaxed atomic adds; no
/// allocation, no locks, safe from any thread.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Starts a span whose elapsed **microseconds** on `clock` are
    /// recorded here when the returned guard drops — inject a stepping
    /// clock to make timing goldens deterministic.
    #[inline]
    pub fn time_with<'a>(&'a self, clock: &'a dyn Clock) -> ClockSpanTimer<'a> {
        ClockSpanTimer {
            histogram: self,
            clock,
            start_us: clock.now_us(),
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state.
    ///
    /// # Tearing model
    ///
    /// The three fields are loaded with `Relaxed` ordering and no mutual
    /// synchronisation, so a snapshot taken concurrently with [`record`]
    /// calls can *tear*: it may observe a bucket increment without the
    /// matching `count`/`sum` update (or vice versa), and `sum` may lag
    /// `count` by in-flight values. Each field is individually atomic and
    /// monotonic, the skew is bounded by the number of in-flight `record`
    /// calls, and a quiescent histogram always snapshots exactly. Scrape
    /// consumers tolerate this by design; tests snapshot after joining
    /// writers.
    ///
    /// [`record`]: Histogram::record
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Measures one span on an injected [`Clock`]; records elapsed
/// microseconds into its histogram on drop. Obtain via
/// [`Histogram::time_with`].
#[derive(Debug)]
pub struct ClockSpanTimer<'a> {
    histogram: &'a Histogram,
    clock: &'a dyn Clock,
    start_us: u64,
}

impl ClockSpanTimer<'_> {
    /// Stops the span early (equivalent to dropping the guard).
    pub fn stop(self) {}
}

impl Drop for ClockSpanTimer<'_> {
    fn drop(&mut self) {
        self.histogram
            .record(self.clock.now_us().saturating_sub(self.start_us));
    }
}

/// Plain-data copy of a [`Histogram`], mergeable and comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts (see [`BUCKETS`] for the bucket layout).
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean recorded value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`0.0..=1.0`): the upper bound of the bucket
    /// containing the q-th value. Resolution is the bucket width (a factor
    /// of two), which is plenty for latency regression tracking.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Adds another snapshot's observations into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// `(upper_bound, cumulative_count)` pairs over non-empty prefixes —
    /// the Prometheus `_bucket{le=...}` series.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if c > 0 {
                out.push((bucket_upper(i), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        for v in [0, 1, 1, 5, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 107);
        assert!((s.mean() - 21.4).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let q50 = s.quantile(0.5);
        let q99 = s.quantile(0.99);
        assert!(q50 <= q99);
        // The median of 1..=1000 lies in the bucket containing 500.
        assert!((256..=1023).contains(&q50), "q50 = {q50}");
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.9), 0);
    }

    #[test]
    fn merge_adds_observations() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        b.record(5);
        b.record(7);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.count, 3);
        assert_eq!(sa.sum, 15);
    }

    #[test]
    fn clock_span_timer_records_deterministic_duration() {
        use crate::clock::SteppingClock;
        let h = Histogram::new();
        let clock = SteppingClock::new(0, 7);
        {
            let _t = h.time_with(&clock); // start 0, end 7
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 7);
    }

    #[test]
    fn cumulative_buckets_are_cumulative() {
        let h = Histogram::new();
        h.record(1);
        h.record(100);
        let cum = h.snapshot().cumulative_buckets();
        assert_eq!(cum.len(), 2);
        assert_eq!(cum[0].1, 1);
        assert_eq!(cum[1].1, 2);
        assert!(cum[0].0 < cum[1].0);
    }
}
