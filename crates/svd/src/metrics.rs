//! Positioning observability: which path produced each fix.
//!
//! Positioning regressions are invisible in aggregate error figures until
//! an eval plot drifts; what moves first is the *mix of resolution paths*
//! — exact tile hits degrading into nearest-signature fallbacks, mobility
//! overrides firing on a miscalibrated field. These counters expose that
//! mix per route ([`PositioningMetrics`], shared by every clone of a
//! [`crate::RoutePositioner`]) and per planar mapper
//! ([`TileMapperMetrics`], Definition 5's direct / SVE-boundary /
//! longest-boundary-neighbour accounting).

use std::sync::Arc;

use wilocator_obs::{metric_key, Collect, Counter, MetricsSnapshot};

use crate::positioning::FixMethod;

/// Counters of the route-constrained positioner
/// ([`crate::RoutePositioner`] / [`crate::TrackingFilter`]).
///
/// One instance is shared (via `Arc`) by every clone of a positioner, so
/// the per-bus trackers of a route all feed one ledger. Every `locate`
/// call resolves to exactly one of the four fix-method counters or to
/// `none_total`, so
/// `locate_total == exact + tie_boundary + nearest_signature + dead_reckoned + none`
/// holds at any quiescent point. Those five counters are private and
/// reached only through `PositioningMetrics::fix_total`.
#[derive(Debug, Default)]
pub struct PositioningMetrics {
    /// `locate` calls.
    pub locate_total: Counter,
    /// Fixes from a direct signature → sub-segment hit.
    exact_total: Counter,
    /// Fixes on a merged tie boundary (equal ranks ⇒ SVE boundary point).
    tie_boundary_total: Counter,
    /// Fixes via the nearest known signature (rank-vector mismatch).
    nearest_signature_total: Counter,
    /// Fixes extrapolated inside the mobility window.
    dead_reckoned_total: Counter,
    /// `locate` calls that produced no fix (empty scan without prior).
    none_total: Counter,
    /// Scans whose candidates all contradicted the mobility window (the
    /// window won; the fix above is counted as dead-reckoned).
    pub mobility_override_total: Counter,
    /// Empty rank lists received.
    pub empty_scan_total: Counter,
    /// Widened re-acquisition attempts by the tracking filter.
    pub relock_attempt_total: Counter,
    /// Re-acquisitions that re-locked on an exact match.
    pub relock_success_total: Counter,
}

impl PositioningMetrics {
    /// A fresh, shareable ledger.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The one counter a `locate` result lands in: its fix method's, or
    /// `none_total` for no fix. The match names every variant, so a
    /// method added without a counter does not compile. It matches the
    /// bare `FixMethod` because clippy's wildcard lints do not see a
    /// `Some(_)` arm.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub(crate) fn fix_total(&self, method: Option<FixMethod>) -> &Counter {
        let Some(method) = method else {
            return &self.none_total;
        };
        match method {
            FixMethod::Exact => &self.exact_total,
            FixMethod::TieBoundary => &self.tie_boundary_total,
            FixMethod::NearestSignature => &self.nearest_signature_total,
            FixMethod::DeadReckoned => &self.dead_reckoned_total,
        }
    }

    /// Sum of the non-exact resolution counters — the "fallback pressure"
    /// regression tests watch.
    pub fn fallback_total(&self) -> u64 {
        self.tie_boundary_total.get()
            + self.nearest_signature_total.get()
            + self.dead_reckoned_total.get()
    }
}

impl Collect for PositioningMetrics {
    fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot) {
        let c = |name: &str, v: u64, out: &mut MetricsSnapshot| {
            out.add_counter(metric_key(name, labels), v);
        };
        c("svd_locate_total", self.locate_total.get(), out);
        c("svd_fix_exact_total", self.exact_total.get(), out);
        c(
            "svd_fix_tie_boundary_total",
            self.tie_boundary_total.get(),
            out,
        );
        c(
            "svd_fix_nearest_signature_total",
            self.nearest_signature_total.get(),
            out,
        );
        c(
            "svd_fix_dead_reckoned_total",
            self.dead_reckoned_total.get(),
            out,
        );
        c("svd_fix_none_total", self.none_total.get(), out);
        c(
            "svd_mobility_override_total",
            self.mobility_override_total.get(),
            out,
        );
        c("svd_empty_scan_total", self.empty_scan_total.get(), out);
        c(
            "svd_relock_attempt_total",
            self.relock_attempt_total.get(),
            out,
        );
        c(
            "svd_relock_success_total",
            self.relock_success_total.get(),
            out,
        );
    }
}

/// Counters of the planar Tile Mapping ([`crate::TileMapper`]).
///
/// Every successful `locate`/`map_tile` resolution is either *direct*
/// (the tile intersects the road) or *via the longest-boundary
/// neighbour*; failures are misses. The invariant
/// `locate_total == direct + via_neighbor + miss` is what the
/// tile-mapping property test asserts under random AP layouts.
#[derive(Debug, Default)]
pub struct TileMapperMetrics {
    /// `locate` calls with a non-empty rank list.
    pub locate_total: Counter,
    /// Resolutions where the named tile intersected the road.
    pub direct_total: Counter,
    /// Resolutions through the longest-shared-boundary neighbour.
    pub via_neighbor_total: Counter,
    /// Rank lists resolved through the nearest known signature.
    pub nearest_signature_total: Counter,
    /// Calls that could not be mapped at all.
    pub miss_total: Counter,
}

impl TileMapperMetrics {
    /// A fresh, shareable ledger.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl Collect for TileMapperMetrics {
    fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot) {
        let c = |name: &str, v: u64, out: &mut MetricsSnapshot| {
            out.add_counter(metric_key(name, labels), v);
        };
        c("tile_map_locate_total", self.locate_total.get(), out);
        c("tile_map_direct_total", self.direct_total.get(), out);
        c(
            "tile_map_via_neighbor_total",
            self.via_neighbor_total.get(),
            out,
        );
        c(
            "tile_map_nearest_signature_total",
            self.nearest_signature_total.get(),
            out,
        );
        c("tile_map_miss_total", self.miss_total.get(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positioning_metrics_collect_under_labels() {
        let m = PositioningMetrics::default();
        m.locate_total.add(3);
        m.exact_total.add(2);
        m.dead_reckoned_total.inc();
        let mut snap = MetricsSnapshot::new();
        m.collect_into("route=\"9\"", &mut snap);
        assert_eq!(snap.counter("svd_locate_total{route=\"9\"}"), 3);
        assert_eq!(snap.counter("svd_fix_exact_total{route=\"9\"}"), 2);
        assert_eq!(m.fallback_total(), 1);
    }

    #[test]
    fn each_fix_method_moves_exactly_its_own_family() {
        let cases = [
            (Some(FixMethod::Exact), "svd_fix_exact_total"),
            (Some(FixMethod::TieBoundary), "svd_fix_tie_boundary_total"),
            (
                Some(FixMethod::NearestSignature),
                "svd_fix_nearest_signature_total",
            ),
            (Some(FixMethod::DeadReckoned), "svd_fix_dead_reckoned_total"),
            (None, "svd_fix_none_total"),
        ];
        let families: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.1).collect();
        assert_eq!(
            families.len(),
            cases.len(),
            "families are pairwise distinct"
        );
        for (method, family) in cases {
            let m = PositioningMetrics::default();
            m.fix_total(method).inc();
            let mut snap = MetricsSnapshot::new();
            m.collect_into("", &mut snap);
            let moved: Vec<&str> = snap
                .counters()
                .iter()
                .filter(|(_, v)| **v != 0)
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(moved, [family], "{method:?}");
        }
    }

    #[test]
    fn tile_mapper_metrics_collect() {
        let m = TileMapperMetrics::default();
        m.locate_total.add(2);
        m.direct_total.inc();
        m.via_neighbor_total.inc();
        let mut snap = MetricsSnapshot::new();
        m.collect_into("", &mut snap);
        assert_eq!(
            snap.counter("tile_map_direct_total") + snap.counter("tile_map_via_neighbor_total"),
            snap.counter("tile_map_locate_total")
        );
    }
}
