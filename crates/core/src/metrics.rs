//! Server observability: ingest accounting, transport accounting and
//! predictor accounting.
//!
//! All three structs are relaxed-atomic ledgers ([`wilocator_obs`]):
//! recording never locks or allocates, so they sit directly on the
//! ingest hot path. Every counter here counts *events*, which under the
//! server's per-bus replay determinism makes the totals bit-identical
//! across thread counts; the histograms time wall-clock spans and are
//! not (they are excluded from
//! [`wilocator_obs::MetricsSnapshot::deterministic_lines`]).
//!
//! One transport-level exception: `wilocator_ingest_batches_total`
//! counts *calls* to [`crate::WiLocator::ingest_batch`], which depends
//! on how a caller chunks the same report stream — replay-identity
//! tests must exclude it (batch *report* totals stay deterministic).

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Arc;
use crate::tracker::IngestOutcome;

use wilocator_obs::{metric_key, Clock, Collect, Counter, Gauge, Histogram, MetricsSnapshot};

/// Ingest accounting. Lives *outside* the server's `RwLock`, so
/// recording — including the lock-hold histogram — never needs the
/// lock. The name, like the `wilocator_shard_lock_hold_us` family,
/// dates from when each group of edge-sharing routes had a lock of its
/// own.
///
/// Invariant at any quiescent point:
/// `reports_total == fixes_total + reports_absorbed_total + reports_stale_total`.
/// The three outcome counters are private and reached only through
/// `ShardMetrics::outcome_total`, so the invariant holds by
/// construction.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Reports that reached a tracker (known bus).
    pub reports_total: Counter,
    /// Reports dropped as older than the bus's latest fix (network
    /// reordering); the committed trajectory is untouched.
    reports_stale_total: Counter,
    /// Reports absorbed without a fix (e.g. acquisition not yet locked).
    reports_absorbed_total: Counter,
    /// Position fixes produced.
    fixes_total: Counter,
    /// Segment traversals committed to the travel-time store (both the
    /// eager drain on ingest and the tail commit on finish).
    pub traversals_committed_total: Counter,
    /// Microseconds the server write lock was held per ingest call or
    /// finished trip.
    pub lock_hold_us: Histogram,
}

impl ShardMetrics {
    /// A fresh, shareable ledger.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The one counter an ingest outcome lands in. The match names every
    /// variant, so an outcome added without a counter does not compile.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub(crate) fn outcome_total(&self, outcome: &IngestOutcome) -> &Counter {
        match outcome {
            IngestOutcome::Fix(_) => &self.fixes_total,
            IngestOutcome::Stale => &self.reports_stale_total,
            IngestOutcome::NoFix => &self.reports_absorbed_total,
        }
    }
}

impl Collect for ShardMetrics {
    fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot) {
        out.add_counter(
            metric_key("wilocator_reports_total", labels),
            self.reports_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_reports_stale_total", labels),
            self.reports_stale_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_reports_absorbed_total", labels),
            self.reports_absorbed_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_fixes_total", labels),
            self.fixes_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_traversals_committed_total", labels),
            self.traversals_committed_total.get(),
        );
        out.add_histogram(
            metric_key("wilocator_shard_lock_hold_us", labels),
            self.lock_hold_us.snapshot(),
        );
    }
}

/// Transport accounting: the envelope around the ingest ledger.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Single-report [`crate::WiLocator::ingest`] calls.
    pub ingest_total: Counter,
    /// [`crate::WiLocator::ingest_batch`] calls. NOT replay-deterministic
    /// across different batch chunkings — see the module docs.
    pub ingest_batches_total: Counter,
    /// Reports submitted through batches (deterministic: every report is
    /// counted once however the stream is chunked).
    pub ingest_batch_reports_total: Counter,
    /// Reports rejected because the bus was not registered.
    pub unknown_bus_total: Counter,
    /// Buses registered (re-registration counts again).
    pub buses_registered_total: Counter,
    /// Buses finished.
    pub buses_finished_total: Counter,
    /// [`crate::WiLocator::train`] calls.
    pub train_calls_total: Counter,
    /// Currently registered buses.
    pub active_buses: Gauge,
    /// Batch sizes (reports per `ingest_batch` call). Excluded from the
    /// deterministic subset along with the batch-call counter.
    pub batch_size: Histogram,
}

impl ServerMetrics {
    /// A fresh, shareable ledger.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl Collect for ServerMetrics {
    fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot) {
        out.add_counter(
            metric_key("wilocator_ingest_total", labels),
            self.ingest_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_ingest_batches_total", labels),
            self.ingest_batches_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_ingest_batch_reports_total", labels),
            self.ingest_batch_reports_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_unknown_bus_total", labels),
            self.unknown_bus_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_buses_registered_total", labels),
            self.buses_registered_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_buses_finished_total", labels),
            self.buses_finished_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_train_calls_total", labels),
            self.train_calls_total.get(),
        );
        out.add_gauge(
            // lint: allow(metric_hygiene) — dimensionless count of live entities
            metric_key("wilocator_active_buses", labels),
            self.active_buses.get(),
        );
        out.add_histogram(
            // lint: allow(metric_hygiene) — dimensionless reports-per-batch count
            metric_key("wilocator_batch_size", labels),
            self.batch_size.snapshot(),
        );
    }
}

/// Counter families that count transport-level *calls* or wall-clock
/// artifacts rather than events, and therefore differ across batch
/// chunkings or timings of the same report stream. Replay-identity and
/// golden comparisons must drop these lines from
/// [`wilocator_obs::MetricsSnapshot::deterministic_lines`]; kept next to
/// the counters so tests and docs can't drift.
///
/// The trace families: slow-path retention and the retention buffer's
/// byte pressure depend on span *durations*, which only a stepping clock
/// makes reproducible — anomaly retention, by contrast, is a pure
/// function of the report stream and stays in the deterministic set.
///
/// The query-plane families: snapshot publication piggybacks on
/// `ingest_batch` calls, so the publish counter and epoch gauge inherit
/// the batch counter's chunking dependence; query counts follow rider
/// load rather than the report stream; and staleness follows the wall
/// clock.
///
/// The quality-plane ETA families: retro-predictions are issued on the
/// publish path, so issuance (and therefore confirmation and eviction)
/// inherits publish cadence's chunking dependence. The quality plane's
/// AP-churn families, by contrast, are recorded per fix and stay in the
/// deterministic set.
pub const NONDETERMINISTIC_COUNTER_FAMILIES: &[&str] = &[
    "wilocator_ingest_batches_total",
    "wilocator_trace_retained_slow_total",
    "wilocator_trace_retention_evicted_total",
    "wilocator_trace_retained_bytes",
    "wilocator_queries_total",
    "wilocator_query_not_found_total",
    "wilocator_query_bad_request_total",
    "wilocator_snapshot_publish_total",
    "wilocator_snapshot_epoch",
    "wilocator_snapshot_staleness_us",
    "wilocator_eta_issued_total",
    "wilocator_eta_confirmed_total",
    "wilocator_eta_ledger_evicted_total",
];

/// Arrival-predictor accounting (Equations 8–9): training coverage and
/// how often the recent-residual borrow actually fires online.
///
/// Owned by [`crate::ArrivalPredictor`] behind an `Arc`, so clones of a
/// predictor (evaluation harnesses clone freely) share one ledger.
#[derive(Debug, Default)]
pub struct PredictorMetrics {
    /// [`crate::ArrivalPredictor::train`] calls.
    pub train_total: Counter,
    /// Seasonal indexes built across all train calls (one per edge).
    pub seasonal_indexes_built_total: Counter,
    /// Base slots that carried data across those indexes.
    pub seasonal_slots_populated_total: Counter,
    /// Slot partitions that split the day (rush-hour structure found).
    pub multi_slot_partitions_total: Counter,
    /// Equation 8 evaluations.
    pub predict_segment_total: Counter,
    /// Recent buses whose residual was borrowed, summed over predictions
    /// (the `K` of Equation 8).
    pub residual_borrow_total: Counter,
    /// Predictions where at least one residual was borrowed.
    pub residual_applied_total: Counter,
    /// Segments predicted by the cruise-speed fallback (no history).
    pub segment_fallback_total: Counter,
    /// Equation 9 arrival integrations.
    pub predict_arrival_total: Counter,
}

impl Collect for PredictorMetrics {
    fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot) {
        let pairs: [(&str, &Counter); 9] = [
            ("predict_train_total", &self.train_total),
            (
                "predict_seasonal_indexes_built_total",
                &self.seasonal_indexes_built_total,
            ),
            (
                "predict_seasonal_slots_populated_total",
                &self.seasonal_slots_populated_total,
            ),
            (
                "predict_multi_slot_partitions_total",
                &self.multi_slot_partitions_total,
            ),
            ("predict_segment_total", &self.predict_segment_total),
            ("predict_residual_borrow_total", &self.residual_borrow_total),
            (
                "predict_residual_applied_total",
                &self.residual_applied_total,
            ),
            (
                "predict_segment_fallback_total",
                &self.segment_fallback_total,
            ),
            ("predict_arrival_total", &self.predict_arrival_total),
        ];
        for (name, c) in pairs {
            out.add_counter(metric_key(name, labels), c.get());
        }
    }
}

/// The rider-facing endpoints the query plane accounts per-endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryEndpoint {
    /// `GET /arrivals/{stop}`.
    Arrivals,
    /// `GET /position/{bus}`.
    Position,
    /// `GET /traffic/{route}`.
    Traffic,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
    /// `GET /debug/timeseries`.
    DebugTimeseries,
    /// `GET /debug/quality`.
    DebugQuality,
    /// `GET /debug/slo`.
    DebugSlo,
    /// `GET /subscribe` (long-poll for the next epoch).
    Subscribe,
}

impl QueryEndpoint {
    /// The `endpoint` label value in the exposition.
    pub fn label(self) -> &'static str {
        match self {
            QueryEndpoint::Arrivals => "arrivals",
            QueryEndpoint::Position => "position",
            QueryEndpoint::Traffic => "traffic",
            QueryEndpoint::Metrics => "metrics",
            QueryEndpoint::Healthz => "healthz",
            QueryEndpoint::DebugTimeseries => "debug_timeseries",
            QueryEndpoint::DebugQuality => "debug_quality",
            QueryEndpoint::DebugSlo => "debug_slo",
            QueryEndpoint::Subscribe => "subscribe",
        }
    }

    /// Every endpoint, in exposition order.
    pub const ALL: [QueryEndpoint; 9] = [
        QueryEndpoint::Arrivals,
        QueryEndpoint::Position,
        QueryEndpoint::Traffic,
        QueryEndpoint::Metrics,
        QueryEndpoint::Healthz,
        QueryEndpoint::DebugTimeseries,
        QueryEndpoint::DebugQuality,
        QueryEndpoint::DebugSlo,
        QueryEndpoint::Subscribe,
    ];
}

/// Query-plane accounting: per-endpoint request counts, request-outcome
/// counters, publication progress and snapshot staleness.
///
/// Lives beside the snapshot cell, *outside* every lock: the read path
/// records with relaxed atomics exactly like the ingest ledgers. The
/// staleness gauge is computed at gather time from the publish stamp and
/// the query-plane clock (deliberately *not* the span clock: publication
/// must not consume span-clock readings, or publish cadence would shift
/// deterministic trace goldens), so a paused publisher shows up as a
/// growing gauge without anyone polling.
#[derive(Debug)]
pub struct QueryMetrics {
    /// `GET /arrivals/{stop}` requests.
    pub arrivals_total: Counter,
    /// `GET /position/{bus}` requests.
    pub position_total: Counter,
    /// `GET /traffic/{route}` requests.
    pub traffic_total: Counter,
    /// `GET /metrics` requests.
    pub metrics_total: Counter,
    /// `GET /healthz` requests.
    pub healthz_total: Counter,
    /// `GET /debug/timeseries` requests.
    pub debug_timeseries_total: Counter,
    /// `GET /debug/quality` requests.
    pub debug_quality_total: Counter,
    /// `GET /debug/slo` requests.
    pub debug_slo_total: Counter,
    /// `GET /subscribe` long-poll requests.
    pub subscribe_total: Counter,
    /// Requests that named an unknown stop, bus or route.
    pub not_found_total: Counter,
    /// Requests rejected before routing (malformed path or method).
    pub bad_request_total: Counter,
    /// Snapshots published.
    pub snapshot_publish_total: Counter,
    /// Epoch of the latest published snapshot.
    pub snapshot_epoch: Gauge,
    /// Microseconds per query, request receipt to response write.
    pub latency_us: Histogram,
    /// Query-clock stamp of the latest publication (0 before the first).
    published_at_us: AtomicU64,
    /// The query-plane clock staleness and latency are measured on.
    clock: Arc<dyn Clock>,
}

impl QueryMetrics {
    /// A fresh ledger on `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(QueryMetrics {
            arrivals_total: Counter::new(),
            position_total: Counter::new(),
            traffic_total: Counter::new(),
            metrics_total: Counter::new(),
            healthz_total: Counter::new(),
            debug_timeseries_total: Counter::new(),
            debug_quality_total: Counter::new(),
            debug_slo_total: Counter::new(),
            subscribe_total: Counter::new(),
            not_found_total: Counter::new(),
            bad_request_total: Counter::new(),
            snapshot_publish_total: Counter::new(),
            snapshot_epoch: Gauge::new(),
            latency_us: Histogram::default(),
            published_at_us: AtomicU64::new(0),
            clock,
        })
    }

    /// The clock staleness and latency are measured on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Counts one request against its endpoint.
    pub fn record_query(&self, endpoint: QueryEndpoint) {
        self.endpoint_counter(endpoint).inc()
    }

    fn endpoint_counter(&self, endpoint: QueryEndpoint) -> &Counter {
        match endpoint {
            QueryEndpoint::Arrivals => &self.arrivals_total,
            QueryEndpoint::Position => &self.position_total,
            QueryEndpoint::Traffic => &self.traffic_total,
            QueryEndpoint::Metrics => &self.metrics_total,
            QueryEndpoint::Healthz => &self.healthz_total,
            QueryEndpoint::DebugTimeseries => &self.debug_timeseries_total,
            QueryEndpoint::DebugQuality => &self.debug_quality_total,
            QueryEndpoint::DebugSlo => &self.debug_slo_total,
            QueryEndpoint::Subscribe => &self.subscribe_total,
        }
    }

    /// Records a publication: bumps the publish counter and epoch gauge
    /// and restamps the staleness base.
    pub fn mark_published(&self, epoch: u64) {
        self.snapshot_publish_total.inc();
        self.snapshot_epoch
            .set(i64::try_from(epoch).unwrap_or(i64::MAX));
        // `.max(1)` keeps a clock that starts at 0 (stepping-clock
        // replays) from colliding with the unpublished sentinel.
        // Ordering: Relaxed — `published_at_us` is a monotone timestamp
        // read in isolation by `staleness_us`; no other memory hangs off
        // it, so only per-location coherence is needed. The tearing
        // bound relaxed metrics tolerate is pinned by
        // `relaxed_metrics_tear_within_documented_bound` in
        // crates/check/tests/model.rs.
        self.published_at_us
            .store(self.clock.now_us().max(1), Ordering::Relaxed);
    }

    /// Microseconds since the latest publication on the shared clock
    /// (0 before the first publish — an empty server is not "stale").
    pub fn staleness_us(&self) -> u64 {
        // Ordering: Relaxed — see `mark_published`; a reader pairing a
        // fresh epoch with a one-publish-stale timestamp only inflates
        // reported staleness by a publish interval, which the metric's
        // consumers tolerate by design.
        let at = self.published_at_us.load(Ordering::Relaxed);
        if at == 0 {
            return 0;
        }
        // lint: allow(read_path_purity) — dyn Clock dispatch defaults to ⊤; every Clock impl is a pure time read, no locks or blocking
        self.clock.now_us().saturating_sub(at)
    }

    /// Staleness in seconds, clamped at zero. The clamp is structural —
    /// [`QueryMetrics::staleness_us`] saturates at the integer layer —
    /// but this method is the audited unit boundary: a skewed or
    /// backwards-stepping clock must surface as `0.0`, never as a
    /// negative age (the regression test drives a decreasing clock
    /// through exactly that path).
    pub fn staleness_s(&self) -> f64 {
        (self.staleness_us() as f64 / 1e6).max(0.0)
    }
}

impl Collect for QueryMetrics {
    fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot) {
        for endpoint in QueryEndpoint::ALL {
            let tag = format!("endpoint=\"{}\"", endpoint.label());
            let merged = if labels.is_empty() {
                tag
            } else {
                format!("{labels},{tag}")
            };
            out.add_counter(
                metric_key("wilocator_queries_total", &merged),
                self.endpoint_counter(endpoint).get(),
            );
        }
        out.add_counter(
            metric_key("wilocator_query_not_found_total", labels),
            self.not_found_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_query_bad_request_total", labels),
            self.bad_request_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_snapshot_publish_total", labels),
            self.snapshot_publish_total.get(),
        );
        out.add_gauge(
            // lint: allow(metric_hygiene) — dimensionless monotone sequence number
            metric_key("wilocator_snapshot_epoch", labels),
            self.snapshot_epoch.get(),
        );
        out.add_gauge(
            metric_key("wilocator_snapshot_staleness_us", labels),
            i64::try_from(self.staleness_us()).unwrap_or(i64::MAX),
        );
        out.add_histogram(
            metric_key("wilocator_query_latency_us", labels),
            self.latency_us.snapshot(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_metrics_collect_under_shard_label() {
        let m = ShardMetrics::default();
        m.reports_total.add(5);
        m.fixes_total.add(3);
        m.reports_absorbed_total.inc();
        m.reports_stale_total.inc();
        m.lock_hold_us.record(12);
        let mut snap = MetricsSnapshot::new();
        m.collect_into("shard=\"2\"", &mut snap);
        assert_eq!(snap.counter("wilocator_reports_total{shard=\"2\"}"), 5);
        assert_eq!(
            snap.counter("wilocator_fixes_total{shard=\"2\"}")
                + snap.counter("wilocator_reports_absorbed_total{shard=\"2\"}")
                + snap.counter("wilocator_reports_stale_total{shard=\"2\"}"),
            snap.counter("wilocator_reports_total{shard=\"2\"}")
        );
        assert_eq!(
            snap.histogram("wilocator_shard_lock_hold_us{shard=\"2\"}")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn each_outcome_moves_exactly_its_own_family() {
        let fix = wilocator_svd::Fix {
            s: 0.0,
            point: wilocator_geo::Point::new(0.0, 0.0),
            interval: (0.0, 0.0),
            method: wilocator_svd::FixMethod::Exact,
            time_s: 0.0,
        };
        let cases = [
            (IngestOutcome::Fix(fix), "wilocator_fixes_total"),
            (IngestOutcome::Stale, "wilocator_reports_stale_total"),
            (IngestOutcome::NoFix, "wilocator_reports_absorbed_total"),
        ];
        let families: std::collections::BTreeSet<&str> = cases.iter().map(|c| c.1).collect();
        assert_eq!(
            families.len(),
            cases.len(),
            "families are pairwise distinct"
        );
        for (outcome, family) in &cases {
            let m = ShardMetrics::default();
            m.outcome_total(outcome).inc();
            let mut snap = MetricsSnapshot::new();
            m.collect_into("", &mut snap);
            let moved: Vec<&str> = snap
                .counters()
                .iter()
                .filter(|(_, v)| **v != 0)
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(moved, [*family], "{outcome:?}");
        }
    }

    #[test]
    fn server_metrics_collect_everything() {
        let m = ServerMetrics::default();
        m.ingest_batches_total.add(7);
        m.ingest_batch_reports_total.add(100);
        m.active_buses.set(4);
        m.batch_size.record(50);
        let mut snap = MetricsSnapshot::new();
        m.collect_into("", &mut snap);
        assert_eq!(snap.counter("wilocator_ingest_batches_total"), 7);
        assert_eq!(snap.counter("wilocator_ingest_batch_reports_total"), 100);
        assert_eq!(snap.gauge("wilocator_active_buses"), 4);
        assert_eq!(snap.histogram("wilocator_batch_size").unwrap().count, 1);
        // The call counter is listed as chunking-dependent.
        assert!(NONDETERMINISTIC_COUNTER_FAMILIES.contains(&"wilocator_ingest_batches_total"));
    }

    #[test]
    fn query_metrics_collect_per_endpoint_and_compute_staleness() {
        let clock = Arc::new(wilocator_obs::SteppingClock::new(1_000, 100));
        let m = QueryMetrics::new(clock);
        assert_eq!(m.staleness_us(), 0, "unpublished server is not stale");
        m.record_query(QueryEndpoint::Arrivals);
        m.record_query(QueryEndpoint::Arrivals);
        m.record_query(QueryEndpoint::Healthz);
        m.not_found_total.inc();
        m.mark_published(7);
        // One clock read at publish; each staleness read steps once more.
        assert_eq!(m.staleness_us(), 100);
        assert_eq!(m.staleness_us(), 200);
        let mut snap = MetricsSnapshot::new();
        m.collect_into("", &mut snap);
        assert_eq!(
            snap.counter("wilocator_queries_total{endpoint=\"arrivals\"}"),
            2
        );
        assert_eq!(
            snap.counter("wilocator_queries_total{endpoint=\"healthz\"}"),
            1
        );
        assert_eq!(snap.counter_family_total("wilocator_queries_total"), 3);
        assert_eq!(snap.counter("wilocator_query_not_found_total"), 1);
        assert_eq!(snap.counter("wilocator_snapshot_publish_total"), 1);
        assert_eq!(snap.gauge("wilocator_snapshot_epoch"), 7);
        assert_eq!(snap.gauge("wilocator_snapshot_staleness_us"), 300);
        // Every query-plane family is excluded from replay-identity
        // comparisons: publication rides on batch chunking, queries on
        // rider load, staleness on the clock.
        for family in [
            "wilocator_queries_total",
            "wilocator_query_not_found_total",
            "wilocator_query_bad_request_total",
            "wilocator_snapshot_publish_total",
            "wilocator_snapshot_epoch",
            "wilocator_snapshot_staleness_us",
        ] {
            assert!(NONDETERMINISTIC_COUNTER_FAMILIES.contains(&family));
        }
    }

    #[test]
    fn staleness_is_clamped_under_clock_skew() {
        // A clock that steps *backwards*: each read is earlier than the
        // last, the worst case of NTP skew between the publish stamp and
        // the staleness read.
        #[derive(Debug)]
        struct SkewedClock(std::sync::atomic::AtomicU64);
        impl wilocator_obs::Clock for SkewedClock {
            fn now_us(&self) -> u64 {
                self.0.fetch_sub(500, std::sync::atomic::Ordering::Relaxed)
            }
        }
        let m = QueryMetrics::new(Arc::new(SkewedClock(std::sync::atomic::AtomicU64::new(
            10_000,
        ))));
        m.mark_published(1); // stamps at 10_000; later reads are earlier
        assert_eq!(m.staleness_us(), 0, "saturating_sub floors at zero");
        assert_eq!(m.staleness_s(), 0.0, "seconds view never goes negative");
        // A well-behaved stepping clock still measures forward age.
        let clock = Arc::new(wilocator_obs::SteppingClock::new(1_000, 250));
        let m = QueryMetrics::new(clock);
        m.mark_published(1);
        assert_eq!(m.staleness_s(), 0.00025);
    }

    #[test]
    fn predictor_metrics_collect() {
        let m = PredictorMetrics::default();
        m.predict_segment_total.add(4);
        m.residual_borrow_total.add(9);
        m.residual_applied_total.add(3);
        let mut snap = MetricsSnapshot::new();
        m.collect_into("shard=\"0\"", &mut snap);
        assert_eq!(
            snap.counter("predict_residual_borrow_total{shard=\"0\"}"),
            9
        );
        assert_eq!(snap.counter_family_total("predict_segment_total"), 4);
    }
}
