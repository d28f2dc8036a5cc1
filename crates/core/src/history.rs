//! The travel-time store: historical and recent traversals per road
//! segment.
//!
//! Keyed by the *global* segment id ([`EdgeId`]), not by route — routes
//! that share a segment share its history, which is exactly what lets
//! Equation 8 borrow the most recent residual of *any* route on the
//! segment ("an advantage of leveraging more lately travel time of buses
//! with the same/different routes … over other solutions that only use the
//! data of the same route").

use std::collections::BTreeMap;

use wilocator_road::{EdgeId, RouteId};

/// One recorded traversal of a segment by a bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traversal {
    /// The route of the traversing bus.
    pub route: RouteId,
    /// Arrival at the segment start, absolute seconds.
    pub t_enter: f64,
    /// Arrival at the segment end, absolute seconds.
    pub t_exit: f64,
}

impl Traversal {
    /// Travel time over the segment, seconds.
    pub fn travel_time(&self) -> f64 {
        self.t_exit - self.t_enter
    }
}

/// Per-segment travel-time records, ordered by exit time.
///
/// Keyed by a `BTreeMap` so [`TravelTimeStore::edges`] yields segments in
/// id order: predictor training iterates this map, and replay output must
/// be byte-identical across processes (hash order is seeded per process).
#[derive(Debug, Clone, Default)]
pub struct TravelTimeStore {
    by_edge: BTreeMap<EdgeId, Vec<Traversal>>,
}

impl TravelTimeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TravelTimeStore::default()
    }

    /// Records a traversal.
    ///
    /// # Panics
    ///
    /// Panics if `t_exit <= t_enter` (zero or negative travel time).
    pub fn record(&mut self, edge: EdgeId, traversal: Traversal) {
        assert!(
            traversal.t_exit > traversal.t_enter,
            "travel time must be positive"
        );
        let v = self.by_edge.entry(edge).or_default();
        // Keep sorted by exit time; appends are usually already in order.
        match v.last() {
            Some(last) if last.t_exit <= traversal.t_exit => v.push(traversal),
            _ => {
                let pos = v
                    .binary_search_by(|t| t.t_exit.total_cmp(&traversal.t_exit))
                    .unwrap_or_else(|e| e);
                v.insert(pos, traversal);
            }
        }
    }

    /// All traversals of a segment, ordered by exit time.
    pub fn traversals(&self, edge: EdgeId) -> &[Traversal] {
        self.by_edge.get(&edge).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct segments with data.
    pub fn edge_count(&self) -> usize {
        self.by_edge.len()
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.by_edge.values().map(|v| v.len()).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Segments with at least one record, in ascending id order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.by_edge.keys().copied()
    }

    /// Copies every record of `other` into this store (used to assemble
    /// a merged view across server shards). Record lists stay ordered by
    /// exit time.
    pub fn merge_from(&mut self, other: &TravelTimeStore) {
        for (&edge, records) in &other.by_edge {
            let v = self.by_edge.entry(edge).or_default();
            if v.is_empty() {
                v.extend_from_slice(records);
            } else {
                v.extend_from_slice(records);
                v.sort_by(|a, b| a.t_exit.total_cmp(&b.t_exit));
            }
        }
    }

    /// Traversals of `edge` completed strictly before `t`, optionally
    /// filtered by a predicate on the record.
    pub fn completed_before(&self, edge: EdgeId, t: f64) -> impl Iterator<Item = &Traversal> {
        self.traversals(edge)
            .iter()
            .take_while(move |tr| tr.t_exit < t)
    }

    /// The last `max_j` traversals of `edge` (any route) completed within
    /// `(t - window, t)`, oldest first — the "J buses of K′ routes passing
    /// by e_i most recently" of Equation 5.
    pub fn recent_buses(
        &self,
        edge: EdgeId,
        t: f64,
        window_s: f64,
        max_j: usize,
    ) -> Vec<Traversal> {
        let all = self.traversals(edge);
        let start = all.partition_point(|tr| tr.t_exit <= t - window_s);
        let end = all.partition_point(|tr| tr.t_exit < t);
        let lo = end.saturating_sub(max_j).max(start);
        all[lo..end].to_vec()
    }

    /// Mean travel time of `route` on `edge` over records completed before
    /// `t` and accepted by `filter` (used to restrict to a time slot).
    /// Returns `None` when no record matches.
    pub fn mean_travel_time(
        &self,
        edge: EdgeId,
        route: Option<RouteId>,
        t: f64,
        mut filter: impl FnMut(&Traversal) -> bool,
    ) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for tr in self.completed_before(edge, t) {
            // lint: allow(hot_path_effects) — caller-supplied predicate (⊤): time-slot restrictions are pure record tests
            if route.map(|r| tr.route == r).unwrap_or(true) && filter(tr) {
                sum += tr.travel_time();
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(route: u32, enter: f64, exit: f64) -> Traversal {
        Traversal {
            route: RouteId(route),
            t_enter: enter,
            t_exit: exit,
        }
    }

    #[test]
    fn records_stay_sorted() {
        let mut s = TravelTimeStore::new();
        let e = EdgeId(0);
        s.record(e, tr(0, 100.0, 160.0));
        s.record(e, tr(1, 50.0, 120.0)); // out of order insert
        s.record(e, tr(0, 200.0, 270.0));
        let exits: Vec<f64> = s.traversals(e).iter().map(|t| t.t_exit).collect();
        assert_eq!(exits, vec![120.0, 160.0, 270.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_travel_time_rejected() {
        let mut s = TravelTimeStore::new();
        s.record(EdgeId(0), tr(0, 100.0, 100.0));
    }

    #[test]
    fn completed_before_respects_time() {
        let mut s = TravelTimeStore::new();
        let e = EdgeId(0);
        s.record(e, tr(0, 0.0, 60.0));
        s.record(e, tr(0, 100.0, 170.0));
        assert_eq!(s.completed_before(e, 170.0).count(), 1);
        assert_eq!(s.completed_before(e, 171.0).count(), 2);
        assert_eq!(s.completed_before(e, 0.0).count(), 0);
    }

    #[test]
    fn mean_travel_time_filters() {
        let mut s = TravelTimeStore::new();
        let e = EdgeId(0);
        s.record(e, tr(0, 0.0, 50.0)); // 50 s
        s.record(e, tr(0, 100.0, 180.0)); // 80 s
        s.record(e, tr(1, 200.0, 290.0)); // 90 s
        let all = s.mean_travel_time(e, None, 1e9, |_| true).unwrap();
        assert!((all - (50.0 + 80.0 + 90.0) / 3.0).abs() < 1e-9);
        let r0 = s
            .mean_travel_time(e, Some(RouteId(0)), 1e9, |_| true)
            .unwrap();
        assert!((r0 - 65.0).abs() < 1e-9);
        let early = s
            .mean_travel_time(e, None, 1e9, |t| t.t_enter < 150.0)
            .unwrap();
        assert!((early - 65.0).abs() < 1e-9);
        assert!(s.mean_travel_time(EdgeId(9), None, 1e9, |_| true).is_none());
    }

    #[test]
    fn empty_store_behaviour() {
        let s = TravelTimeStore::new();
        assert!(s.is_empty());
        assert!(s.traversals(EdgeId(0)).is_empty());
    }
}
