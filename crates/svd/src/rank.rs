//! Rank averaging across devices and scan windows.
//!
//! The paper's founding observation: "the average RSS rank from an AP
//! sensed by multiple devices remains relatively stable" even though raw
//! RSS swings by >10 dB. When several riders' phones report scans within
//! the same window, averaging each AP's *rank position* across the reports
//! suppresses fading-induced rank swaps before the signature lookup.

use std::collections::HashMap;

use wilocator_rf::{ApId, Scan};

/// An AP with its averaged rank statistics across a scan window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AveragedRank {
    /// The AP.
    pub ap: ApId,
    /// Mean rank position (0 = strongest) over the scans that heard it.
    pub mean_rank: f64,
    /// Number of scans (devices) that heard the AP.
    pub observations: usize,
    /// Mean RSS across the scans that heard it, dBm.
    pub mean_rss_dbm: f64,
}

/// Averages RSS ranks over a window of scans (typically: the reports of all
/// riders on the bus within one scan period).
///
/// Returns APs ordered by mean rank ascending (strongest first); ties break
/// by more observations, then stronger mean RSS, then AP id. APs missing
/// from some scans are averaged only over the scans that heard them, but an
/// AP must be heard by at least `min_observations` scans to be listed.
///
/// # Examples
///
/// ```
/// use wilocator_rf::{ApId, Bssid, Reading, Scan};
/// use wilocator_svd::average_ranks;
///
/// let mk = |pairs: &[(u32, i32)]| Scan::new(0.0, pairs.iter().map(|&(a, r)| Reading {
///     ap: ApId(a), bssid: Bssid::from_ap_id(ApId(a)), rss_dbm: r,
/// }).collect());
/// // Two devices disagree on ranks 2/3 but agree AP0 is strongest.
/// let scans = [mk(&[(0, -50), (1, -60), (2, -70)]), mk(&[(0, -52), (2, -61), (1, -63)])];
/// let avg = average_ranks(&scans, 1);
/// assert_eq!(avg[0].ap, ApId(0));
/// ```
pub fn average_ranks(scans: &[Scan], min_observations: usize) -> Vec<AveragedRank> {
    let mut acc: HashMap<ApId, (f64, usize, f64)> = HashMap::new();
    for scan in scans {
        for (rank, (ap, rss)) in scan.ranked().into_iter().enumerate() {
            let e = acc.entry(ap).or_insert((0.0, 0, 0.0));
            e.0 += rank as f64;
            e.1 += 1;
            e.2 += rss as f64;
        }
    }
    let mut out: Vec<AveragedRank> = acc
        .into_iter()
        .filter(|&(_, (_, n, _))| n >= min_observations.max(1))
        .map(|(ap, (rank_sum, n, rss_sum))| AveragedRank {
            ap,
            mean_rank: rank_sum / n as f64,
            observations: n,
            mean_rss_dbm: rss_sum / n as f64,
        })
        .collect();
    out.sort_by(|a, b| {
        a.mean_rank
            .total_cmp(&b.mean_rank)
            .then(b.observations.cmp(&a.observations))
            .then(b.mean_rss_dbm.total_cmp(&a.mean_rss_dbm))
            .then(a.ap.cmp(&b.ap))
    });
    out
}

/// Converts averaged ranks to the integer-dBm ranked list the positioner
/// consumes: order comes from the averaged ranks (strongest first), values
/// are the rounded mean RSS so the positioner's tie-margin test sees real
/// signal levels rather than synthetic rank scores.
pub fn to_ranked_rss(avg: &[AveragedRank]) -> Vec<(ApId, i32)> {
    avg.iter()
        .map(|a| (a.ap, a.mean_rss_dbm.round() as i32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wilocator_rf::{Bssid, Reading};

    fn scan(pairs: &[(u32, i32)]) -> Scan {
        Scan::new(
            0.0,
            pairs
                .iter()
                .map(|&(a, r)| Reading {
                    ap: ApId(a),
                    bssid: Bssid::from_ap_id(ApId(a)),
                    rss_dbm: r,
                })
                .collect(),
        )
    }

    #[test]
    fn single_scan_preserves_order() {
        let avg = average_ranks(&[scan(&[(0, -50), (1, -60), (2, -70)])], 1);
        let order: Vec<ApId> = avg.iter().map(|a| a.ap).collect();
        assert_eq!(order, vec![ApId(0), ApId(1), ApId(2)]);
    }

    #[test]
    fn averaging_suppresses_one_bad_scan() {
        // Two good scans say (0, 1); one fading-corrupted scan says (1, 0).
        let scans = [
            scan(&[(0, -50), (1, -60)]),
            scan(&[(0, -51), (1, -59)]),
            scan(&[(1, -52), (0, -58)]),
        ];
        let avg = average_ranks(&scans, 1);
        assert_eq!(avg[0].ap, ApId(0));
        assert!(avg[0].mean_rank < avg[1].mean_rank);
    }

    #[test]
    fn min_observations_filters_flaky_aps() {
        let scans = [
            scan(&[(0, -50), (9, -89)]), // AP9 heard only once
            scan(&[(0, -52)]),
            scan(&[(0, -51)]),
        ];
        let avg = average_ranks(&scans, 2);
        assert_eq!(avg.len(), 1);
        assert_eq!(avg[0].ap, ApId(0));
        assert_eq!(avg[0].observations, 3);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(average_ranks(&[], 1).is_empty());
        assert!(average_ranks(&[scan(&[])], 1).is_empty());
    }

    #[test]
    fn mean_rss_computed() {
        let avg = average_ranks(&[scan(&[(0, -50)]), scan(&[(0, -60)])], 1);
        assert_eq!(avg[0].mean_rss_dbm, -55.0);
    }

    #[test]
    fn rank_tie_broken_by_observations_then_rss() {
        // AP0 and AP1 both have mean rank 0.5 across two scans, but AP0 is
        // stronger on average.
        let scans = [scan(&[(0, -50), (1, -60)]), scan(&[(1, -55), (0, -65)])];
        let avg = average_ranks(&scans, 1);
        assert_eq!(avg[0].mean_rank, avg[1].mean_rank);
        assert_eq!(avg[0].ap, ApId(0)); // −57.5 dBm beats −57.5? compute: AP0 (−50−65)/2=−57.5, AP1 (−60−55)/2=−57.5 → tie, falls to id
    }
}
