//! Online quality monitors: the retro-prediction ledger, per-route
//! ETA-residual sketches, drift detectors, and the quality sections
//! published with every [`crate::QuerySnapshot`].
//!
//! The rest of the observability stack answers "how fast" — counters,
//! histograms, traces. This module answers **"how well"**, live: the
//! paper's headline metric is arrival-time prediction accuracy, and its
//! dominant real-world degraders (device heterogeneity, AP churn
//! deforming the Voronoi diagram locally) arrive silently. Waiting for
//! an offline EXPERIMENTS.md sweep to notice is not an option for a
//! production fleet.
//!
//! # The retro-prediction ledger
//!
//! At every snapshot publication, each arrival-table entry whose lead
//! time has dropped to within a horizon (1, 3 or 5 minutes) is
//! recorded as a *pending* prediction: "at stream time `t` we told
//! riders bus B reaches stop S at `eta`". When B's own fix stream later
//! crosses S, the actual crossing time is interpolated from the
//! trajectory ([`crate::tracker::crossing_time`] — the same
//! interpolation the travel-time store trusts) and the signed residual
//! `predicted − actual` is folded into per-(route, horizon) quantile
//! sketches. This is the paper's figure-level accuracy metric computed
//! online, from the live stream, with no ground-truth side channel: the
//! bus itself confirms its arrival.
//!
//! The ledger is bounded (`MAX_PENDING` entries per shard,
//! FIFO eviction) and each sketch is a fixed pair of 32-bucket
//! log-histograms, so quality monitoring adds O(1) memory per
//! (route, horizon) regardless of uptime.
//!
//! # Drift detectors
//!
//! Four detectors watch the leading indicators of quality loss, each
//! evaluated as a burn-rate pair over a short and a long window of the
//! [`wilocator_obs::TimeSeries`] ring (both must exceed the SLO
//! threshold to fire, so a single noisy window neither fires nor masks
//! a sustained regression):
//!
//! * **dead-reckon fraction** — `svd_fix_dead_reckoned_total` over
//!   `svd_locate_total`;
//! * **tile-miss fraction** — signature resolutions that missed the
//!   direct tile path (`nearest_signature` + `none`) over locates;
//! * **AP-churn fraction** — per-bus scan-to-scan AP set divergence;
//! * **snapshot staleness** — seconds since the last publication.
//!
//! A fired detector carries *exemplar trace ids* from the tail-sampled
//! flight recorder: the retained traces whose anomaly kind matches the
//! detector (`dead_reckoned`, `tile_mapping_miss`, `ap_churn`), so an
//! alert links directly to causal traces instead of a bare ratio.
//!
//! # Locking
//!
//! Hot-path recording locks one per-shard quality mutex, always
//! acquired *after* the shard's `RwLock` (confirmation runs inside
//! `ingest_locked`; issuance inside the snapshot builder's shard read
//! pass) and never the other way around. Evaluation locks the plane
//! state first, then each shard quality mutex one at a time; it never
//! touches a shard `RwLock`, so the publish path cannot deadlock with
//! ingest. Readers of the published [`QualitySections`] touch no lock
//! at all — the sections ride the epoch-published snapshot.

use std::collections::{BTreeMap, VecDeque};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{unpoisoned, Arc, Mutex};

use wilocator_obs::histogram::{bucket_index, bucket_upper, BUCKETS};
use wilocator_obs::{
    metric_key, Collect, Counter, MetricsSnapshot, SeriesKind, SeriesView, TimeSeries,
    TimeSeriesConfig, TraceCtx, TraceData,
};
use wilocator_rf::ApId;
use wilocator_road::{RouteId, StopId};
use wilocator_svd::Fix;

use crate::report::{BusKey, ScanReport};
use crate::snapshot::ArrivalEntry;
use crate::tracker::crossing_time;

/// Quality-plane configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityConfig {
    /// Master switch. Disabled, every hook is a cheap early return and
    /// the published sections stay empty.
    pub enabled: bool,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig { enabled: true }
    }
}

/// Retro-prediction horizons, seconds, ascending. An arrival-table entry
/// is recorded against horizon `h` the first publication its lead time
/// is within `HORIZONS_S[h]`.
const HORIZONS_S: [f64; 3] = [60.0, 180.0, 300.0];

/// Pending-ledger entries per shard; the oldest entry is evicted (and
/// counted) when a new issuance would exceed this.
const MAX_PENDING: usize = 4096;

/// Quality window width: 60 *stream* seconds, in the microseconds the
/// time-series ring counts in. Residual-sketch rotation and the
/// time-series ring both rotate on stream time, so replays evaluate
/// identically at any wall-clock speed.
const WINDOW_US: u64 = 60_000_000;

/// Closed windows retained per series / sketch.
const WINDOWS: usize = 10;

/// Minimum stream-time gap between evaluation passes, seconds.
/// Publication can run per batch; re-gathering the registry that often
/// would tax the ingest path for no information gain.
const MIN_SAMPLE_GAP_S: f64 = 1.0;

/// Burn-rate SLO thresholds and window shape of the drift detectors.
mod slo {
    /// Max acceptable dead-reckoned fraction of locate calls.
    pub const DEAD_RECKON_MAX_RATIO: f64 = 0.25;
    /// Max acceptable tile-miss (non-direct signature resolution)
    /// fraction of locate calls.
    pub const TILE_MISS_MAX_RATIO: f64 = 0.4;
    /// Max acceptable churned fraction of observed APs.
    pub const AP_CHURN_MAX_RATIO: f64 = 0.5;
    /// Max acceptable snapshot staleness, seconds.
    pub const STALENESS_MAX_S: f64 = 30.0;
    /// Short burn window, in quality windows (fast detection).
    pub const SHORT_WINDOWS: usize = 1;
    /// Long burn window, in quality windows (sustained confirmation).
    pub const LONG_WINDOWS: usize = 5;
    /// Minimum denominator events inside a burn window for a ratio
    /// detector to be eligible to fire — a 1-of-2 blip is not drift.
    pub const MIN_EVENTS: u64 = 20;
    /// Exemplar trace ids attached to a fired detector, at most.
    pub const MAX_EXEMPLARS: usize = 3;
}

// ---------------------------------------------------------------------
// Residual sketches
// ---------------------------------------------------------------------

/// A fixed-memory sketch of *signed* residual seconds: two log-histograms
/// (negative and non-negative magnitudes) on the bucket layout of
/// [`wilocator_obs::Histogram`]. Quantiles walk the negative side from
/// most- to least-negative, then the non-negative side ascending, so
/// extraction is monotone in `q` by construction (the timeseries
/// proptests pin the unsigned analogue).
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualSketch {
    count: u64,
    sum_abs_s: f64,
    neg: [u64; BUCKETS],
    nonneg: [u64; BUCKETS],
}

impl Default for ResidualSketch {
    fn default() -> Self {
        ResidualSketch {
            count: 0,
            sum_abs_s: 0.0,
            neg: [0; BUCKETS],
            nonneg: [0; BUCKETS],
        }
    }
}

impl ResidualSketch {
    /// Folds one signed residual (seconds) into the sketch.
    pub fn fold(&mut self, residual_s: f64) {
        if !residual_s.is_finite() {
            return;
        }
        let mag = residual_s.abs().round().min(u64::MAX as f64) as u64;
        let idx = bucket_index(mag);
        if residual_s < 0.0 {
            self.neg[idx] += 1;
        } else {
            self.nonneg[idx] += 1;
        }
        self.count += 1;
        self.sum_abs_s += residual_s.abs();
    }

    /// Residuals folded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean absolute residual, seconds (0 when empty).
    pub fn mean_abs_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs_s / self.count as f64
        }
    }

    /// Signed quantile (`0.0..=1.0`), at bucket resolution: the signed
    /// upper-magnitude bound of the bucket containing the q-th residual
    /// in ascending signed order.
    pub fn quantile_s(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in (0..BUCKETS).rev() {
            seen += self.neg[i];
            if seen >= rank {
                return -(bucket_upper(i).min(1 << 62) as f64);
            }
        }
        for (i, &c) in self.nonneg.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(1 << 62) as f64;
            }
        }
        bucket_upper(BUCKETS - 1).min(1 << 62) as f64
    }

    /// Magnitude quantile: the signed buckets folded together by
    /// absolute value — the "how wrong, regardless of direction" view
    /// the dashboards lead with. Returns a bucket upper bound.
    pub fn quantile_abs_s(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.neg[i] + self.nonneg[i];
            if seen >= rank {
                return bucket_upper(i).min(1 << 62) as f64;
            }
        }
        bucket_upper(BUCKETS - 1).min(1 << 62) as f64
    }

    /// Adds another sketch's residuals into this one.
    pub fn merge(&mut self, other: &ResidualSketch) {
        self.count += other.count;
        self.sum_abs_s += other.sum_abs_s;
        for (a, b) in self.neg.iter_mut().zip(&other.neg) {
            *a += b;
        }
        for (a, b) in self.nonneg.iter_mut().zip(&other.nonneg) {
            *a += b;
        }
    }
}

/// Cumulative + windowed sketches for one (route, horizon).
#[derive(Debug, Default)]
struct HorizonSketches {
    cumulative: ResidualSketch,
    current: ResidualSketch,
    /// Closed stream-time windows, oldest first, capped at `WINDOWS`.
    ring: VecDeque<ResidualSketch>,
}

impl HorizonSketches {
    fn rotate(&mut self) {
        while self.ring.len() >= WINDOWS {
            self.ring.pop_front();
        }
        self.ring.push_back(std::mem::take(&mut self.current));
    }

    fn recent(&self) -> ResidualSketch {
        let mut out = self.current.clone();
        for w in &self.ring {
            out.merge(w);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------

/// Key of one pending retro-prediction: a bus serves one route and stop
/// ids are route-scoped, so (bus, stop, horizon) is unique per shard.
type PendingKey = (BusKey, StopId, u8);

#[derive(Debug, Clone, Copy)]
struct PendingEta {
    route: RouteId,
    stop_s: f64,
    predicted_abs_s: f64,
}

/// Per-shard quality state, parallel to the server's shard table and
/// guarded by its own mutex *outside* the shard `RwLock`.
#[derive(Debug, Default)]
struct ShardQuality {
    pending: BTreeMap<PendingKey, PendingEta>,
    /// Issuance order, for FIFO eviction. May hold keys already
    /// confirmed (removed from `pending`); eviction skips them and the
    /// list is compacted when it outgrows the ledger bound.
    order: VecDeque<PendingKey>,
    residuals: BTreeMap<(RouteId, u8), HorizonSketches>,
}

/// Per-bus quality state, owned by the shard's bus table so the hot
/// ingest hook reaches it through the `BusState` it already fetched —
/// no extra hash probe, and no lane-mutex acquire until a settlement
/// is actually due.
#[derive(Debug)]
pub(crate) struct BusQuality {
    /// Previous scan's sorted AP-id set, for churn accounting. Empty
    /// means the bus has no prior non-empty scan: sets are only stored
    /// when a scan observed at least one AP. Mutated only under the
    /// shard write lock (the ingest path).
    prev_aps: Vec<ApId>,
    /// Bit pattern of the smallest pending `stop_s` for this bus — the
    /// confirmation fast path. A fix short of the floor cannot settle
    /// anything, so the hot hook skips the ledger (and its mutex)
    /// entirely. Every write happens with the bus's lane mutex held
    /// (issuance under the shard read lock, settlement under the write
    /// lock), so plain relaxed load/store cannot lose an update; the
    /// atomic exists for interior mutability under the read lock, with
    /// ordering supplied by the shard `RwLock` itself. The floor may go
    /// stale-low (eviction removes ledger entries without raising it);
    /// that costs one empty range scan, never a missed settlement.
    due_floor_bits: AtomicU64,
}

impl Default for BusQuality {
    fn default() -> Self {
        Self {
            prev_aps: Vec::new(),
            due_floor_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }
}

impl BusQuality {
    fn due_floor(&self) -> f64 {
        f64::from_bits(self.due_floor_bits.load(Ordering::Relaxed))
    }

    /// Lowers the floor to `stop_s` if it isn't already lower. Callers
    /// hold the bus's lane mutex (see `due_floor_bits`), so the
    /// read-then-store pair cannot lose a concurrent update.
    pub(crate) fn floor_min(&self, stop_s: f64) {
        if stop_s < self.due_floor() {
            self.due_floor_bits
                .store(stop_s.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Count of ids in exactly one of two sorted, deduplicated slices.
fn sym_diff_count(a: &[ApId], b: &[ApId]) -> u64 {
    let (mut i, mut j, mut out) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out + (a.len() - i) as u64 + (b.len() - j) as u64
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Quality-plane accounting. The AP families are pure functions of the
/// report stream (deterministic across thread counts); the ETA families
/// ride snapshot-publication cadence and are listed in
/// [`crate::metrics::NONDETERMINISTIC_COUNTER_FAMILIES`].
#[derive(Debug, Default)]
pub struct QualityMetrics {
    /// Retro-predictions recorded into the pending ledger.
    pub eta_issued_total: Counter,
    /// Pending predictions confirmed by an actual arrival.
    pub eta_confirmed_total: Counter,
    /// Pending predictions dropped unconfirmed: evicted by the ledger
    /// bound, or dropped with their bus's trip when the bus finished or
    /// re-registered.
    pub eta_ledger_evicted_total: Counter,
    /// APs that appeared in or vanished from a bus's scan set between
    /// consecutive fixes.
    pub ap_churn_total: Counter,
    /// APs observed across fixes (the churn denominator).
    pub ap_observed_total: Counter,
}

impl QualityMetrics {
    /// A fresh, shareable ledger.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl Collect for QualityMetrics {
    fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot) {
        out.add_counter(
            metric_key("wilocator_eta_issued_total", labels),
            self.eta_issued_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_eta_confirmed_total", labels),
            self.eta_confirmed_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_eta_ledger_evicted_total", labels),
            self.eta_ledger_evicted_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_ap_churn_total", labels),
            self.ap_churn_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_ap_observed_total", labels),
            self.ap_observed_total.get(),
        );
    }
}

// ---------------------------------------------------------------------
// Published views
// ---------------------------------------------------------------------

/// Live accuracy of one (route, horizon): cumulative and recent-window
/// residual statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonQuality {
    /// The horizon, seconds.
    pub horizon_s: f64,
    /// Confirmations folded since startup.
    pub confirmed_total: u64,
    /// Cumulative mean absolute residual, seconds.
    pub mean_abs_error_s: f64,
    /// Cumulative signed residual quantiles, seconds (bucket bounds).
    pub p50_s: f64,
    /// 90th percentile.
    pub p90_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Cumulative 90th-percentile *absolute* residual, seconds.
    pub p90_abs_s: f64,
    /// Confirmations inside the retained windows.
    pub recent_confirmed: u64,
    /// 90th-percentile signed residual over the retained windows.
    pub recent_p90_s: f64,
    /// 90th-percentile absolute residual over the retained windows —
    /// the live "how wrong right now" number degradations move first.
    pub recent_p90_abs_s: f64,
}

/// Live accuracy of one route across the horizons.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RouteQuality {
    /// One entry per horizon, ascending.
    pub horizons: Vec<HorizonQuality>,
}

/// One drift detector's published status.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorStatus {
    /// Stable detector name (`dead_reckon_fraction`, …).
    pub name: &'static str,
    /// Whether both burn windows exceed the threshold.
    pub fired: bool,
    /// Short-window burn rate: observed ratio over threshold (≥ 1
    /// means above SLO).
    pub short_burn: f64,
    /// Long-window burn rate.
    pub long_burn: f64,
    /// The threshold the burns are normalized by.
    pub threshold: f64,
    /// Denominator events in the short window (eligibility evidence).
    pub short_events: u64,
    /// Denominator events in the long window.
    pub long_events: u64,
    /// Retained flight-recorder traces whose anomaly matches this
    /// detector, newest first — the alert-to-causal-trace link.
    pub exemplar_trace_ids: Vec<u64>,
}

/// The quality sections published inside every [`crate::QuerySnapshot`]:
/// windowed time-series, per-route accuracy, and detector statuses.
/// Shared by `Arc` so snapshot clones stay cheap.
#[derive(Debug, Clone, Default)]
pub struct QualitySections {
    /// Stream time of the evaluation pass that produced these sections.
    pub evaluated_at_s: f64,
    /// Windowed aggregates of the tracked metric families.
    pub series: Vec<SeriesView>,
    /// Per-route live accuracy.
    pub routes: BTreeMap<RouteId, RouteQuality>,
    /// Drift-detector statuses, stable order.
    pub slo: Vec<DetectorStatus>,
}

// ---------------------------------------------------------------------
// The plane
// ---------------------------------------------------------------------

/// Counter families the ingest dashboard tracks by default.
const TRACKED_COUNTERS: &[&str] = &[
    "wilocator_reports_total",
    "wilocator_fixes_total",
    "wilocator_queries_total",
    "wilocator_eta_issued_total",
    "wilocator_eta_confirmed_total",
    "wilocator_ap_churn_total",
    "wilocator_ap_observed_total",
    "svd_locate_total",
    "svd_fix_dead_reckoned_total",
    "svd_fix_nearest_signature_total",
    "svd_fix_none_total",
];

const TRACKED_GAUGES: &[&str] = &["wilocator_active_buses", "wilocator_snapshot_staleness_us"];

const TRACKED_HISTOGRAMS: &[&str] = &["wilocator_shard_lock_hold_us", "wilocator_query_latency_us"];

#[derive(Debug)]
struct PlaneState {
    series: TimeSeries,
    /// Stream-time window index the residual sketches are open on.
    sketch_window: Option<u64>,
    /// Cached sections of the last evaluation, reused while the stream
    /// has advanced less than `MIN_SAMPLE_GAP_S`.
    cached: Option<(f64, Arc<QualitySections>)>,
}

/// The quality observability plane. One per server, beside (never
/// inside) the shard locks.
#[derive(Debug)]
pub struct QualityPlane {
    config: QualityConfig,
    metrics: Arc<QualityMetrics>,
    lanes: Vec<Mutex<ShardQuality>>,
    state: Mutex<PlaneState>,
}

impl QualityPlane {
    /// A plane for `shards` server shards. Evaluation drives its
    /// time-series by stream time.
    pub fn new(shards: usize, config: QualityConfig) -> Self {
        let mut series = TimeSeries::new(TimeSeriesConfig {
            window_us: WINDOW_US,
            windows: WINDOWS,
        });
        for f in TRACKED_COUNTERS {
            series.track(f, SeriesKind::Counter);
        }
        for f in TRACKED_GAUGES {
            series.track(f, SeriesKind::Gauge);
        }
        for f in TRACKED_HISTOGRAMS {
            series.track(f, SeriesKind::Histogram);
        }
        QualityPlane {
            config,
            metrics: QualityMetrics::shared(),
            lanes: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            state: Mutex::new(PlaneState {
                series,
                sketch_window: None,
                cached: None,
            }),
        }
    }

    /// The quality accounting ledger (for registry registration).
    pub fn metrics(&self) -> &Arc<QualityMetrics> {
        &self.metrics
    }

    /// Hot-path hook: one confirmed fix for `report.bus` on `route`.
    /// Folds AP churn into `bq` (the bus's shard-owned quality state)
    /// and settles any pending retro-predictions the fix has crossed.
    /// Called with the shard `RwLock` held for write; the per-shard
    /// quality mutex is taken only when the fix has reached the bus's
    /// due floor, so the steady-state hook touches no lock but the one
    /// its caller already holds (lock order: shard lock → quality
    /// mutex, module docs).
    #[allow(clippy::too_many_arguments)]
    // lint: hot_path(deny: blocks_or_syscalls, unbounded_iteration)
    pub(crate) fn on_fix(
        &self,
        shard: usize,
        report: &ScanReport,
        fix: &Fix,
        fixes: &[Fix],
        bq: &mut BusQuality,
        scratch: &mut Vec<ApId>,
        trace: Option<&TraceCtx<'_>>,
    ) {
        if !self.config.enabled {
            return;
        }
        // AP churn: symmetric difference of consecutive sorted AP sets.
        // The current set is built in the shard's scratch buffer and
        // swapped with the stored per-bus set, so the steady-state hook
        // performs no heap allocation. Scan readings usually arrive in
        // ascending AP order; the sort runs only when they do not.
        scratch.clear();
        scratch.extend(
            report
                .scans
                .iter()
                .flat_map(|s| s.readings.iter().map(|r| r.ap)),
        );
        if !scratch.windows(2).all(|w| w[0] < w[1]) {
            scratch.sort_unstable();
            scratch.dedup();
        }
        if !scratch.is_empty() {
            self.metrics.ap_observed_total.add(scratch.len() as u64);
            // An empty stored set is "no prior non-empty scan": the
            // first observation seeds the set without counting churn.
            if !bq.prev_aps.is_empty() {
                let churned = sym_diff_count(&bq.prev_aps, scratch);
                self.metrics.ap_churn_total.add(churned);
                if let Some(t) = trace {
                    // Over half the combined set turned over between two
                    // consecutive scans of the same bus: a local AP-set
                    // deformation worth a retained causal trace.
                    if churned * 2 > (bq.prev_aps.len() + scratch.len()) as u64 {
                        t.flag_anomaly("ap_churn");
                    }
                }
            }
            std::mem::swap(&mut bq.prev_aps, scratch);
        }
        // Arrival confirmation: settle pending predictions whose stop
        // the trajectory has now crossed. The floor check keeps the
        // common nothing-due case free of ledger (and mutex) traffic.
        if fix.s < bq.due_floor() {
            return;
        }
        let Some(cell) = self.lanes.get(shard) else {
            return;
        };
        let q = &mut *unpoisoned(cell.lock());
        let lo = (report.bus, StopId(0), 0u8);
        let hi = (report.bus, StopId(u32::MAX), u8::MAX);
        let mut due: Vec<PendingKey> = Vec::new();
        let mut remaining = f64::INFINITY;
        for (k, p) in q.pending.range(lo..=hi) {
            if fix.s >= p.stop_s {
                due.push(*k);
            } else {
                remaining = remaining.min(p.stop_s);
            }
        }
        bq.due_floor_bits
            .store(remaining.to_bits(), Ordering::Relaxed);
        for key in due {
            let Some(p) = q.pending.remove(&key) else {
                continue;
            };
            // `crossing_time` needs a fix pair straddling the stop; a
            // tracker whose first fix is already past it (mid-route
            // registration) settles as unconfirmable and is dropped.
            if let Some(actual) = crossing_time(fixes, p.stop_s) {
                self.metrics.eta_confirmed_total.inc();
                let sketches = q.residuals.entry((p.route, key.2)).or_default();
                let residual = p.predicted_abs_s - actual;
                sketches.cumulative.fold(residual);
                sketches.current.fold(residual);
            }
        }
    }

    /// Publication hook: records the arrival-table entries of one
    /// (route, stop) whose lead time has entered a horizon. Called from
    /// the snapshot builder with the shard read lock held (same lock
    /// order as [`QualityPlane::on_fix`]). `floor_min` is invoked, with
    /// the lane mutex held, for each bus that gained a pending entry —
    /// the caller routes it to that bus's [`BusQuality`] so the ingest
    /// hook knows a settlement is due.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn issue(
        &self,
        shard: usize,
        route: RouteId,
        stop: StopId,
        stop_s: f64,
        as_of: f64,
        entries: &[ArrivalEntry],
        mut floor_min: impl FnMut(BusKey, f64),
    ) {
        if !self.config.enabled || entries.is_empty() {
            return;
        }
        let Some(cell) = self.lanes.get(shard) else {
            return;
        };
        let mut q = unpoisoned(cell.lock());
        for entry in entries {
            let lead = entry.eta_s - as_of;
            if lead <= 0.0 {
                continue;
            }
            let mut inserted = false;
            for (h, horizon_s) in HORIZONS_S.iter().enumerate() {
                if lead > *horizon_s {
                    continue;
                }
                let key = (entry.bus, stop, h as u8);
                if q.pending.contains_key(&key) {
                    continue;
                }
                while q.pending.len() >= MAX_PENDING {
                    let Some(old) = q.order.pop_front() else {
                        break;
                    };
                    if q.pending.remove(&old).is_some() {
                        self.metrics.eta_ledger_evicted_total.inc();
                    }
                }
                q.pending.insert(
                    key,
                    PendingEta {
                        route,
                        stop_s,
                        predicted_abs_s: entry.eta_s,
                    },
                );
                q.order.push_back(key);
                inserted = true;
                self.metrics.eta_issued_total.inc();
            }
            if inserted {
                floor_min(entry.bus, stop_s);
            }
        }
        // Confirmed entries leave their keys behind in `order`; compact
        // before the backlog of dead keys outgrows the ledger itself.
        if q.order.len() > MAX_PENDING * 2 {
            let pending = std::mem::take(&mut q.pending);
            q.order.retain(|k| pending.contains_key(k));
            q.pending = pending;
        }
    }

    /// Drops every pending retro-prediction of `bus`, counting each as
    /// evicted: the bus's trip ended (finish or re-registration), so no
    /// fix of that trip will settle them, and a later trip under the
    /// same key must neither be blocked by them nor settle them. Called
    /// with the shard write lock held that dropped the bus's state (lock
    /// order as in [`QualityPlane::on_fix`]).
    pub(crate) fn forget_bus(&self, shard: usize, bus: BusKey) {
        let Some(cell) = self.lanes.get(shard) else {
            return;
        };
        let q = &mut *unpoisoned(cell.lock());
        let lo = (bus, StopId(0), 0u8);
        let hi = (bus, StopId(u32::MAX), u8::MAX);
        let stale: Vec<PendingKey> = q.pending.range(lo..=hi).map(|(k, _)| *k).collect();
        for key in stale {
            q.pending.remove(&key);
            self.metrics.eta_ledger_evicted_total.inc();
        }
    }

    /// Evaluation pass: rotates the stream-time windows, samples the
    /// time-series from `gather`, evaluates the detectors, and returns
    /// the sections to publish. Reuses the previous result while the
    /// stream has advanced less than `MIN_SAMPLE_GAP_S`, so
    /// per-batch publication stays cheap.
    pub(crate) fn sections(
        &self,
        as_of: f64,
        gather: impl FnOnce() -> MetricsSnapshot,
        staleness_s: f64,
        retained: impl FnOnce() -> Vec<TraceData>,
    ) -> Arc<QualitySections> {
        if !self.config.enabled {
            return Arc::new(QualitySections::default());
        }
        let mut state = unpoisoned(self.state.lock());
        if let Some((at, cached)) = &state.cached {
            if as_of >= *at && as_of - *at < MIN_SAMPLE_GAP_S {
                return cached.clone();
            }
        }
        let now_us = (as_of.max(0.0) * 1e6) as u64;
        // Rotate the residual sketches onto the stream-time window grid
        // (never backwards; gaps rotate at most ring-capacity+1 times,
        // matching the series' own clamp).
        let window = now_us / WINDOW_US;
        let open = state.sketch_window.unwrap_or(window);
        if window > open {
            let turns = (window - open).min(WINDOWS as u64 + 1) as usize;
            for cell in &self.lanes {
                let mut q = unpoisoned(cell.lock());
                for sketches in q.residuals.values_mut() {
                    for _ in 0..turns {
                        sketches.rotate();
                    }
                }
            }
        }
        state.sketch_window = Some(window.max(open));
        state.series.sample_at(now_us, &gather());
        let routes = self.route_quality();
        let slo = self.evaluate_detectors(&state.series, staleness_s, retained);
        let sections = Arc::new(QualitySections {
            evaluated_at_s: as_of,
            series: state.series.view(),
            routes,
            slo,
        });
        state.cached = Some((as_of, sections.clone()));
        sections
    }

    /// Per-route accuracy views from the residual sketches. Every route
    /// lives in exactly one shard, so no cross-shard merge is needed.
    fn route_quality(&self) -> BTreeMap<RouteId, RouteQuality> {
        let mut out: BTreeMap<RouteId, RouteQuality> = BTreeMap::new();
        for cell in &self.lanes {
            let q = unpoisoned(cell.lock());
            for ((route, h), sketches) in &q.residuals {
                let recent = sketches.recent();
                let cum = &sketches.cumulative;
                let view = out.entry(*route).or_default();
                let horizon_s = HORIZONS_S.get(*h as usize).copied().unwrap_or(0.0);
                view.horizons.push(HorizonQuality {
                    horizon_s,
                    confirmed_total: cum.count(),
                    mean_abs_error_s: cum.mean_abs_s(),
                    p50_s: cum.quantile_s(0.5),
                    p90_s: cum.quantile_s(0.9),
                    p99_s: cum.quantile_s(0.99),
                    p90_abs_s: cum.quantile_abs_s(0.9),
                    recent_confirmed: recent.count(),
                    recent_p90_s: recent.quantile_s(0.9),
                    recent_p90_abs_s: recent.quantile_abs_s(0.9),
                });
            }
        }
        for view in out.values_mut() {
            view.horizons
                .sort_by(|a, b| a.horizon_s.total_cmp(&b.horizon_s));
        }
        out
    }

    fn evaluate_detectors(
        &self,
        series: &TimeSeries,
        staleness_s: f64,
        retained: impl FnOnce() -> Vec<TraceData>,
    ) -> Vec<DetectorStatus> {
        struct Spec {
            name: &'static str,
            anomaly: &'static str,
            num: &'static [&'static str],
            den: &'static [&'static str],
            threshold: f64,
        }
        let specs = [
            Spec {
                name: "dead_reckon_fraction",
                anomaly: "dead_reckoned",
                num: &["svd_fix_dead_reckoned_total"],
                den: &["svd_locate_total"],
                threshold: slo::DEAD_RECKON_MAX_RATIO,
            },
            Spec {
                name: "tile_miss_fraction",
                anomaly: "tile_mapping_miss",
                num: &["svd_fix_nearest_signature_total", "svd_fix_none_total"],
                den: &["svd_locate_total"],
                threshold: slo::TILE_MISS_MAX_RATIO,
            },
            Spec {
                name: "ap_churn_fraction",
                anomaly: "ap_churn",
                num: &["wilocator_ap_churn_total"],
                den: &["wilocator_ap_observed_total"],
                threshold: slo::AP_CHURN_MAX_RATIO,
            },
        ];
        let sum = |families: &[&str], n: usize| -> u64 {
            families
                .iter()
                .map(|f| series.recent_counter_delta(f, n))
                .sum()
        };
        let burn = |num: u64, den: u64, threshold: f64| -> f64 {
            if den == 0 || threshold <= 0.0 {
                0.0
            } else {
                (num as f64 / den as f64) / threshold
            }
        };
        let mut out = Vec::with_capacity(specs.len() + 1);
        let mut retained_once = Some(retained);
        let mut exemplar_pool: Option<Vec<TraceData>> = None;
        for spec in specs {
            let short_den = sum(spec.den, slo::SHORT_WINDOWS);
            let long_den = sum(spec.den, slo::LONG_WINDOWS);
            let short_burn = burn(sum(spec.num, slo::SHORT_WINDOWS), short_den, spec.threshold);
            let long_burn = burn(sum(spec.num, slo::LONG_WINDOWS), long_den, spec.threshold);
            let fired = short_den >= slo::MIN_EVENTS
                && long_den >= slo::MIN_EVENTS
                && short_burn >= 1.0
                && long_burn >= 1.0;
            let exemplar_trace_ids = if fired {
                // The retention buffer is drained at most once per
                // evaluation, however many detectors fire.
                if exemplar_pool.is_none() {
                    exemplar_pool = Some(retained_once.take().map(|f| f()).unwrap_or_default());
                }
                let mut ids: Vec<u64> = exemplar_pool
                    .as_deref()
                    .unwrap_or_default()
                    .iter()
                    .filter(|t| t.anomaly == Some(spec.anomaly))
                    .map(|t| t.trace_id)
                    .collect();
                ids.sort_unstable_by(|a, b| b.cmp(a));
                ids.truncate(slo::MAX_EXEMPLARS);
                ids
            } else {
                Vec::new()
            };
            out.push(DetectorStatus {
                name: spec.name,
                fired,
                short_burn,
                long_burn,
                threshold: spec.threshold,
                short_events: short_den,
                long_events: long_den,
                exemplar_trace_ids,
            });
        }
        // Staleness is a level, not a rate: both burns are the same
        // normalized reading, and no exemplar anomaly maps to it.
        let staleness_burn = staleness_s / slo::STALENESS_MAX_S;
        out.push(DetectorStatus {
            name: "snapshot_staleness",
            fired: staleness_burn >= 1.0,
            short_burn: staleness_burn,
            long_burn: staleness_burn,
            threshold: slo::STALENESS_MAX_S,
            short_events: 0,
            long_events: 0,
            exemplar_trace_ids: Vec::new(),
        });
        out
    }

    /// Pending ledger entries across shards (tests and debug).
    pub fn pending_len(&self) -> usize {
        self.lanes
            .iter()
            .map(|c| unpoisoned(c.lock()).pending.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(config: QualityConfig) -> QualityPlane {
        QualityPlane::new(1, config)
    }

    fn fix_at(s: f64, time_s: f64) -> Fix {
        Fix {
            s,
            point: wilocator_geo::Point::new(s, 0.0),
            interval: (s, s),
            method: wilocator_svd::FixMethod::Exact,
            time_s,
        }
    }

    fn report(bus: u64, time_s: f64, aps: &[u32]) -> ScanReport {
        ScanReport {
            bus: BusKey(bus),
            time_s,
            scans: vec![wilocator_rf::Scan::new(
                time_s,
                aps.iter()
                    .map(|&ap| wilocator_rf::Reading {
                        ap: ApId(ap),
                        bssid: wilocator_rf::Bssid::from_ap_id(ApId(ap)),
                        rss_dbm: -60,
                    })
                    .collect(),
            )],
        }
    }

    fn entry(bus: u64, eta_s: f64) -> ArrivalEntry {
        ArrivalEntry {
            bus: BusKey(bus),
            eta_s,
            from_fix_time_s: 0.0,
        }
    }

    #[test]
    fn sketch_quantiles_are_signed_and_monotone() {
        let mut sk = ResidualSketch::default();
        for r in [-40.0, -10.0, -5.0, 1.0, 2.0, 3.0, 30.0, 80.0] {
            sk.fold(r);
        }
        assert_eq!(sk.count(), 8);
        let q10 = sk.quantile_s(0.1);
        let q50 = sk.quantile_s(0.5);
        let q99 = sk.quantile_s(0.99);
        assert!(q10 <= q50 && q50 <= q99, "{q10} {q50} {q99}");
        assert!(q10 < 0.0, "lowest decile is an early prediction");
        assert!(q99 >= 80.0);
        assert!((sk.mean_abs_s() - 171.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_issues_once_per_horizon_and_confirms_on_crossing() {
        let p = plane(QualityConfig::default());
        let mut bq = BusQuality::default();
        let mut scratch = Vec::new();
        // Bus 1 predicted to reach stop (at s=500) at t=150, issued at
        // t=50: lead 100 s is within the 180 s and 300 s horizons only.
        let floor = |_, s| bq.floor_min(s);
        p.issue(
            0,
            RouteId(0),
            StopId(2),
            500.0,
            50.0,
            &[entry(1, 150.0)],
            floor,
        );
        assert_eq!(p.metrics().eta_issued_total.get(), 2);
        assert_eq!(bq.due_floor(), 500.0, "issuance lowered the floor");
        // Re-issuing the same prediction is idempotent.
        p.issue(
            0,
            RouteId(0),
            StopId(2),
            500.0,
            55.0,
            &[entry(1, 150.0)],
            |_, s| bq.floor_min(s),
        );
        assert_eq!(p.metrics().eta_issued_total.get(), 2);
        assert_eq!(p.pending_len(), 2);
        // The fix stream crosses s=500 between t=140 and t=160: actual
        // crossing interpolates to t=150 → residual 0 on both horizons.
        let fixes = [fix_at(450.0, 140.0), fix_at(550.0, 160.0)];
        let last = fixes[fixes.len() - 1];
        p.on_fix(
            0,
            &report(1, 160.0, &[]),
            &last,
            &fixes,
            &mut bq,
            &mut scratch,
            None,
        );
        assert_eq!(p.metrics().eta_confirmed_total.get(), 2);
        assert_eq!(p.pending_len(), 0);
        assert_eq!(bq.due_floor(), f64::INFINITY, "nothing left pending");
        let routes = p.route_quality();
        let rq = routes.get(&RouteId(0)).expect("route quality");
        assert_eq!(rq.horizons.len(), 2);
        assert!(rq.horizons.iter().all(|h| h.confirmed_total == 1));
        assert!(rq.horizons.iter().all(|h| h.mean_abs_error_s == 0.0));
    }

    #[test]
    fn ledger_eviction_is_fifo_and_counted() {
        let p = plane(QualityConfig::default());
        let last = MAX_PENDING as u64 + 1;
        for bus in 1..=last {
            p.issue(
                0,
                RouteId(0),
                StopId(0),
                100.0,
                0.0,
                &[entry(bus, 250.0)], // lead 250 → 300 s horizon only
                |_, _| {},
            );
        }
        assert_eq!(p.metrics().eta_issued_total.get(), last);
        assert_eq!(p.metrics().eta_ledger_evicted_total.get(), 1);
        assert_eq!(p.pending_len(), MAX_PENDING);
        // The first issued entry is the one that went.
        let lane = unpoisoned(p.lanes[0].lock());
        assert!(!lane.pending.contains_key(&(BusKey(1), StopId(0), 2)));
        assert!(lane.pending.contains_key(&(BusKey(2), StopId(0), 2)));
        assert!(lane.pending.contains_key(&(BusKey(last), StopId(0), 2)));
    }

    #[test]
    fn forgetting_a_bus_drops_only_its_pending_entries() {
        let p = plane(QualityConfig::default());
        for (bus, stop) in [(1u64, 0u32), (1, 1), (2, 0)] {
            p.issue(
                0,
                RouteId(0),
                StopId(stop),
                100.0,
                0.0,
                &[entry(bus, 50.0)], // lead 50 → all three horizons
                |_, _| {},
            );
        }
        assert_eq!(p.pending_len(), 9);
        p.forget_bus(0, BusKey(1));
        assert_eq!(p.pending_len(), 3, "bus 2's entries stay");
        assert_eq!(p.metrics().eta_ledger_evicted_total.get(), 6);
        p.forget_bus(0, BusKey(1));
        assert_eq!(p.metrics().eta_ledger_evicted_total.get(), 6);
    }

    #[test]
    fn ap_churn_counts_symmetric_difference_and_flags_anomaly() {
        let p = plane(QualityConfig::default());
        let mut bq = BusQuality::default();
        let mut scratch = Vec::new();
        let f = fix_at(10.0, 1.0);
        p.on_fix(
            0,
            &report(1, 1.0, &[1, 2, 3, 4]),
            &f,
            &[f],
            &mut bq,
            &mut scratch,
            None,
        );
        assert_eq!(p.metrics().ap_observed_total.get(), 4);
        assert_eq!(p.metrics().ap_churn_total.get(), 0);
        // One AP swapped: churn 2 of 8 observed.
        p.on_fix(
            0,
            &report(1, 2.0, &[1, 2, 3, 5]),
            &f,
            &[f],
            &mut bq,
            &mut scratch,
            None,
        );
        assert_eq!(p.metrics().ap_observed_total.get(), 8);
        assert_eq!(p.metrics().ap_churn_total.get(), 2);
    }

    #[test]
    fn sections_cache_by_stream_gap_and_rotate_windows() {
        let p = plane(QualityConfig::default());
        let gather = MetricsSnapshot::new;
        let a = p.sections(10.0, gather, 0.0, Vec::new);
        let b = p.sections(10.5, gather, 0.0, Vec::new);
        assert!(Arc::ptr_eq(&a, &b), "within the gap: cached");
        let c = p.sections(12.0, gather, 0.0, Vec::new);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.evaluated_at_s, 12.0);
        assert_eq!(c.slo.len(), 4, "three ratio detectors + staleness");
        assert!(c.slo.iter().all(|d| !d.fired));
    }

    #[test]
    fn staleness_detector_fires_on_level() {
        let p = plane(QualityConfig::default());
        let s = p.sections(5.0, MetricsSnapshot::new, 45.0, Vec::new);
        let stale = s
            .slo
            .iter()
            .find(|d| d.name == "snapshot_staleness")
            .expect("staleness detector");
        assert!(stale.fired);
        assert!((stale.short_burn - 1.5).abs() < 1e-9);
    }

    #[test]
    fn ratio_detector_fires_with_exemplars() {
        let p = plane(QualityConfig::default());
        // A metrics snapshot with 60% dead-reckoned locates, enough
        // events to clear the eligibility floor.
        let gather = || {
            let mut m = MetricsSnapshot::new();
            m.add_counter("svd_locate_total{route=\"0\"}", 100);
            m.add_counter("svd_fix_dead_reckoned_total{route=\"0\"}", 60);
            m
        };
        let retained = || {
            vec![
                TraceData {
                    trace_id: 7,
                    shard: 0,
                    anomaly: Some("dead_reckoned"),
                    spans: Vec::new(),
                },
                TraceData {
                    trace_id: 9,
                    shard: 0,
                    anomaly: Some("unknown_bus"),
                    spans: Vec::new(),
                },
                TraceData {
                    trace_id: 11,
                    shard: 0,
                    anomaly: Some("dead_reckoned"),
                    spans: Vec::new(),
                },
            ]
        };
        // First evaluation establishes the counter baselines; the second
        // observes the dead-reckoned surge as window deltas.
        p.sections(5.0, MetricsSnapshot::new, 0.0, Vec::new);
        let s = p.sections(10.0, gather, 0.0, retained);
        let dr = s
            .slo
            .iter()
            .find(|d| d.name == "dead_reckon_fraction")
            .expect("dead-reckon detector");
        assert!(dr.fired, "0.6 observed vs 0.25 threshold");
        assert!(dr.short_burn > 2.0);
        assert_eq!(dr.exemplar_trace_ids, vec![11, 7], "newest first");
        let tile = s
            .slo
            .iter()
            .find(|d| d.name == "tile_miss_fraction")
            .expect("tile detector");
        assert!(!tile.fired);
        assert!(tile.exemplar_trace_ids.is_empty());
    }

    #[test]
    fn disabled_plane_is_inert() {
        let p = plane(QualityConfig { enabled: false });
        p.issue(
            0,
            RouteId(0),
            StopId(0),
            100.0,
            0.0,
            &[entry(1, 50.0)],
            |_, _| {},
        );
        let f = fix_at(10.0, 1.0);
        let mut bq = BusQuality::default();
        let mut scratch = Vec::new();
        p.on_fix(
            0,
            &report(1, 1.0, &[1, 2]),
            &f,
            &[f],
            &mut bq,
            &mut scratch,
            None,
        );
        assert_eq!(p.metrics().eta_issued_total.get(), 0);
        assert_eq!(p.metrics().ap_observed_total.get(), 0);
        let s = p.sections(5.0, MetricsSnapshot::new, 99.0, Vec::new);
        assert!(s.slo.is_empty());
        assert!(s.series.is_empty());
    }

    #[test]
    fn sym_diff_counts_both_sides() {
        let a = [ApId(1), ApId(2), ApId(3)];
        let b = [ApId(2), ApId(4)];
        assert_eq!(sym_diff_count(&a, &b), 3);
        assert_eq!(sym_diff_count(&a, &a), 0);
        assert_eq!(sym_diff_count(&[], &b), 2);
    }
}
