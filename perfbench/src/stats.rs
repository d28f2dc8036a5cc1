//! The benchmark's own arithmetic: percentile selection and freshness
//! bookkeeping.

use std::collections::VecDeque;

/// The `p`-th percentile (0–100) of `values` by the nearest-rank rule:
/// the smallest sample with at least `p`% of the samples at or below it.
/// Sorts `values` in place. Returns `None` for an empty sample.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Freshness bookkeeping: each report handed to the server waits until the
/// generator first sees a published snapshot stamped at or after the
/// report's time; the wait is its freshness sample.
///
/// Reports must be handed in stream-time order (the order the benchmark
/// streams them in), so the oldest pending report is always the next one a
/// snapshot can cover.
#[derive(Debug, Default)]
pub struct Freshness {
    /// `(report time, wall time handed)`, oldest first.
    pending: VecDeque<(f64, f64)>,
    /// Waits observed so far, seconds.
    pub samples: Vec<f64>,
}

impl Freshness {
    /// Notes a report with stream time `report_s` handed at wall time
    /// `handed_at` (seconds on any clock `observe` also uses).
    ///
    /// # Panics
    ///
    /// Panics when reports are handed out of stream-time order.
    pub fn handed(&mut self, report_s: f64, handed_at: f64) {
        if let Some(&(last, _)) = self.pending.back() {
            assert!(report_s >= last, "reports must be handed in time order");
        }
        self.pending.push_back((report_s, handed_at));
    }

    /// The generator sees a snapshot published for stream time
    /// `published_at_s` at wall time `now`: every pending report it covers
    /// gets its sample.
    pub fn observe(&mut self, published_at_s: f64, now: f64) {
        while let Some(&(report_s, handed_at)) = self.pending.front() {
            if report_s > published_at_s {
                break;
            }
            self.samples.push(now - handed_at);
            self.pending.pop_front();
        }
    }

    /// Reports handed but not yet covered by any seen snapshot.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_of_one_to_ten() {
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(5.0));
        assert_eq!(percentile(&mut v, 90.0), Some(9.0));
        // 99% of 10 samples is rank 9.9, rounded up to the tenth sample.
        assert_eq!(percentile(&mut v, 99.0), Some(10.0));
        assert_eq!(percentile(&mut v, 100.0), Some(10.0));
        // Rank 0 clamps to the smallest sample.
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
    }

    #[test]
    fn median_picks_a_sample_not_a_mean() {
        assert_eq!(percentile(&mut [4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&mut [7.5], 50.0), Some(7.5));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn p99_of_two_hundred_samples_is_the_198th() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), Some(198.0));
        assert_eq!(percentile(&mut v, 90.0), Some(180.0));
    }

    #[test]
    fn freshness_of_a_batch_published_on_time() {
        let mut f = Freshness::default();
        f.handed(100.0, 1.0);
        f.handed(105.0, 1.0);
        // The snapshot is stamped with the newest report of the batch.
        f.observe(105.0, 1.25);
        assert_eq!(f.samples, vec![0.25, 0.25]);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn freshness_when_publication_lags_a_batch() {
        let mut f = Freshness::default();
        // Batch A (stream 1 s and 2 s) handed at wall 0.0; the snapshot
        // seen after it is still the old one, stamped at stream 0 s.
        f.handed(1.0, 0.0);
        f.handed(2.0, 0.0);
        f.observe(0.0, 0.1);
        assert!(f.samples.is_empty());
        assert_eq!(f.pending(), 2);
        // Batch B (11 s, 12 s) handed at 0.2; a snapshot stamped 12 s is
        // seen at 0.35 and covers both batches.
        f.handed(11.0, 0.2);
        f.handed(12.0, 0.2);
        f.observe(12.0, 0.35);
        let expect = [0.35, 0.35, 0.15, 0.15];
        assert_eq!(f.samples.len(), expect.len());
        for (got, want) in f.samples.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn a_snapshot_covers_only_reports_up_to_its_stamp() {
        let mut f = Freshness::default();
        f.handed(10.0, 0.0);
        f.handed(20.0, 0.0);
        f.observe(15.0, 0.5);
        assert_eq!(f.samples, vec![0.5]);
        assert_eq!(f.pending(), 1);
        // Seeing the same snapshot again changes nothing.
        f.observe(15.0, 0.7);
        assert_eq!(f.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_hand_off_is_refused() {
        let mut f = Freshness::default();
        f.handed(10.0, 0.0);
        f.handed(9.0, 0.0);
    }
}
