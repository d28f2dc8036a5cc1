//! SVD-based bus positioning (Section III-B of the paper).
//!
//! Given an observed RSS rank list, [`RoutePositioner`] finds the road
//! sub-segments whose tile signature matches (Definition 5's Tile Mapping,
//! restricted to the route by the mobility constraint), disambiguates using
//! the previous fix and the bus's maximum speed, and handles the paper's
//! corner cases:
//!
//! * **rank ties** — equal RSS from two APs puts the bus on the tile
//!   boundary; we match the union of tie-permuted signatures, which merges
//!   the sub-segments on both sides of the boundary so the estimate lands
//!   on it;
//! * **unknown signatures** (noise or AP churn) — fall back to the known
//!   signature with the smallest rank distance;
//! * **no matching sub-segment near the prior** — dead-reckon inside the
//!   mobility window.
//!
//! Since PR 7 the fix arithmetic runs on the flat kernels: observed AP ids
//! are interned to dense `u16` codes into fixed stack buffers (unknown APs
//! get per-call sentinel codes above the interner range), tie permutations
//! are enumerated as small code arrays, and every table probe is a binary
//! search on the sorted [`crate::SignatureTable`]. The per-call heap state
//! lives in a caller-owned [`LocateScratch`] so a tracking loop performs
//! no allocation at all in steady state. The semantics are pinned to the
//! map-based oracle in [`crate::reference`] by the `kernel_differential`
//! test battery: every fix must be byte-identical.

use std::sync::Arc;

use wilocator_geo::Point;
use wilocator_rf::ApId;
use wilocator_road::Route;

use wilocator_obs::TraceCtx;

use crate::metrics::PositioningMetrics;
use crate::route_index::{RouteTileIndex, SubSegment};
use crate::signature::rank_distance_codes;

/// Upper bound on the lookup order the flat path supports; the interning
/// buffers are `MAX_ORDER + 1` entries (order plus the tie-probe rank).
/// The paper runs order 2 ("a second-order SVD is enough"), so 8 is
/// generous headroom, and it keeps the per-call stack state tiny.
const MAX_ORDER: usize = 8;

/// Maximum number of tie-permuted alternative signatures considered per
/// scan (matches the reference path's bounded swap enumeration).
const MAX_TIE_SIGS: usize = 3;

/// How an estimate was produced (coarse confidence signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixMethod {
    /// The observed signature matched a sub-segment directly.
    Exact,
    /// The observed ranks contained ties; the estimate sits on the merged
    /// boundary region of the tied signatures.
    TieBoundary,
    /// No exact match; the nearest known signature (by rank distance) was
    /// used.
    NearestSignature,
    /// No usable match; position extrapolated inside the mobility window.
    DeadReckoned,
}

impl FixMethod {
    /// Stable lowercase label, used for trace-span fields and logs.
    pub fn label(self) -> &'static str {
        match self {
            FixMethod::Exact => "exact",
            FixMethod::TieBoundary => "tie_boundary",
            FixMethod::NearestSignature => "nearest_signature",
            FixMethod::DeadReckoned => "dead_reckoned",
        }
    }
}

/// A position fix on the route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fix {
    /// Arc length along the route, metres.
    pub s: f64,
    /// Planar position.
    pub point: Point,
    /// The sub-segment (or merged interval) the fix came from.
    pub interval: (f64, f64),
    /// How the fix was produced.
    pub method: FixMethod,
    /// Time of the observation, seconds.
    pub time_s: f64,
}

/// The previous fix used as the mobility prior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prior {
    /// Arc length of the previous fix, metres.
    pub s: f64,
    /// Time of the previous fix, seconds.
    pub time_s: f64,
}

/// Configuration of the positioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionerConfig {
    /// Signature order used for lookups (must not exceed the index order,
    /// nor the flat path's buffer bound of 8).
    pub order: usize,
    /// Maximum plausible bus speed, m/s (mobility constraint window).
    pub max_speed_mps: f64,
    /// Reject nearest-signature fallbacks farther than this rank distance.
    pub max_rank_distance: f64,
    /// Near-tie margin for the fallback: all signatures within this rank
    /// distance of the best match contribute candidates, and the mobility
    /// prior arbitrates between them.
    pub fallback_margin: f64,
    /// Two readings within this many dB count as tied ranks.
    pub tie_margin_db: i32,
    /// A fix may land this many metres *behind* the prior (noise in the
    /// previous fix; buses never really reverse).
    pub backtrack_m: f64,
    /// Assumed pace while dead reckoning through scan gaps, m/s.
    pub dead_reckon_speed_mps: f64,
}

impl Default for PositionerConfig {
    fn default() -> Self {
        PositionerConfig {
            order: 2,
            max_speed_mps: 25.0,
            max_rank_distance: 8.0,
            fallback_margin: 4.0,
            tie_margin_db: 0,
            backtrack_m: 60.0,
            dead_reckon_speed_mps: 6.0,
        }
    }
}

/// Reusable per-call heap state for [`RoutePositioner::locate_with`].
///
/// A locate call needs a handful of small growable buffers (candidate
/// intervals, their merged form, fallback scores). Owning them here and
/// passing them back in lets a steady-state tracking loop run with zero
/// heap allocation: the buffers grow to the high-water mark of the first
/// few scans and are reused afterwards. Contents are meaningless between
/// calls; every call clears before use.
#[derive(Debug, Clone, Default)]
pub struct LocateScratch {
    /// Candidate `(s0, s1)` intervals gathered from signature matches.
    intervals: Vec<(f64, f64)>,
    /// `intervals` merged into maximal disjoint intervals.
    merged: Vec<(f64, f64)>,
    /// Nearest-signature fallback results: `(table index, rank distance)`.
    near: Vec<(u32, f64)>,
    /// High-order prefix matching scores: `(sub-segment index, distance)`.
    scored: Vec<(u32, f64)>,
}

impl LocateScratch {
    /// Creates empty scratch state (no allocation until first use).
    pub fn new() -> Self {
        LocateScratch::default()
    }
}

thread_local! {
    /// Per-thread scratch backing the allocation-free convenience entry
    /// point ([`RoutePositioner::locate`]); callers that want explicit
    /// control use [`RoutePositioner::locate_with`].
    static LOCATE_SCRATCH: std::cell::RefCell<LocateScratch> =
        std::cell::RefCell::new(LocateScratch::new());
}

/// Positions a bus on its route from RSS rank lists.
///
/// # Examples
///
/// ```
/// use wilocator_geo::Point;
/// use wilocator_road::{NetworkBuilder, Route, RouteId};
/// use wilocator_rf::{AccessPoint, ApId, HomogeneousField};
/// use wilocator_svd::{PositionerConfig, RoutePositioner, RouteTileIndex, SvdConfig};
///
/// let mut b = NetworkBuilder::new();
/// let n0 = b.add_node(Point::new(0.0, 0.0));
/// let n1 = b.add_node(Point::new(300.0, 0.0));
/// let e = b.add_edge(n0, n1, None)?;
/// let net = b.build();
/// let route = Route::new(RouteId(0), "demo", vec![e], &net)?;
/// let field = HomogeneousField::new(vec![
///     AccessPoint::new(ApId(0), Point::new(50.0, 20.0)),
///     AccessPoint::new(ApId(1), Point::new(250.0, -20.0)),
/// ]);
/// let index = RouteTileIndex::build(&field, &route, SvdConfig::default(), 1.0);
/// let positioner = RoutePositioner::new(route, index, PositionerConfig::default());
/// // A scan near the start hears AP0 ≫ AP1.
/// let fix = positioner.locate(&[(ApId(0), -50), (ApId(1), -80)], 0.0, None).unwrap();
/// assert!(fix.s < 150.0);
/// # Ok::<(), wilocator_road::RoadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoutePositioner {
    route: Route,
    index: RouteTileIndex,
    config: PositionerConfig,
    /// Shared by every clone (one tracker per bus), so the counters
    /// aggregate per route.
    metrics: Option<Arc<PositioningMetrics>>,
}

impl RoutePositioner {
    /// Creates a positioner over a route and its tile index.
    ///
    /// # Panics
    ///
    /// Panics if `config.order` is zero, exceeds the index's order, or
    /// exceeds the flat path's buffer bound of 8.
    pub fn new(route: Route, index: RouteTileIndex, config: PositionerConfig) -> Self {
        assert!(
            config.order >= 1 && config.order <= index.config().order,
            "positioner order must be in 1..=index order"
        );
        assert!(
            config.order <= MAX_ORDER,
            "positioner order exceeds the flat-kernel bound of 8"
        );
        RoutePositioner {
            route,
            index,
            config,
            metrics: None,
        }
    }

    /// Attaches a metrics ledger; every clone of this positioner (one per
    /// tracked bus) records into the same `Arc`.
    pub fn with_metrics(mut self, metrics: Arc<PositioningMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached metrics ledger, if any.
    pub fn metrics(&self) -> Option<&Arc<PositioningMetrics>> {
        self.metrics.as_ref()
    }

    /// The route being tracked.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The underlying tile index.
    pub fn index(&self) -> &RouteTileIndex {
        &self.index
    }

    /// The positioner configuration.
    pub fn config(&self) -> &PositionerConfig {
        &self.config
    }

    /// Produces a fix from a ranked RSS list (strongest first) observed at
    /// `time_s`, optionally constrained by the previous fix.
    ///
    /// Returns `None` when the scan is empty and no prior exists.
    // lint: hot_path(deny: acquires_lock, blocks_or_syscalls, reads_clock, unbounded_iteration)
    pub fn locate(&self, ranked: &[(ApId, i32)], time_s: f64, prior: Option<Prior>) -> Option<Fix> {
        // The dominant serving case resolves before the thread-local
        // scratch is even touched.
        if let Some(fix) = self.fast_fix(ranked, time_s, prior) {
            self.note_fast_fix();
            return Some(fix);
        }
        LOCATE_SCRATCH.with(|s| self.locate_with(&mut s.borrow_mut(), ranked, time_s, prior, None))
    }

    /// The allocation-free form of [`RoutePositioner::locate`], with an
    /// optional trace context (a `locate` child span annotated with the
    /// fix method and position): per-call heap buffers live in the
    /// caller-owned `scratch`, so a tracking loop reusing one scratch
    /// performs no allocation in steady state.
    pub fn locate_with(
        &self,
        scratch: &mut LocateScratch,
        ranked: &[(ApId, i32)],
        time_s: f64,
        prior: Option<Prior>,
        trace: Option<&TraceCtx<'_>>,
    ) -> Option<Fix> {
        let span = trace.map(|t| t.child_span("locate"));
        let fix = self.locate_inner(scratch, ranked, time_s, prior);
        if let Some(sp) = &span {
            match fix.as_ref() {
                Some(f) => {
                    sp.field("method", f.method.label());
                    sp.field("s", f.s);
                }
                None => sp.field("method", "none"),
            }
        }
        if let Some(m) = &self.metrics {
            m.locate_total.inc();
            if ranked.is_empty() {
                m.empty_scan_total.inc();
            }
            m.fix_total(fix.as_ref().map(|f| f.method)).inc();
        }
        fix
    }

    /// The branch-light fast path for the dominant serving shape: order-2
    /// lookup, no rank ties, known APs, one exact signature hit covering a
    /// single route run, and a prior (if any) whose mobility window accepts
    /// that run. Returns `None` for anything else — the general path then
    /// recomputes from first principles, so *punting is always safe*; only
    /// an accepted fix must be exact, which it is by construction: every
    /// expression below mirrors the general path's, in the same order, on
    /// the same operands (enforced by the `kernel_differential` battery).
    // lint: hot_path(deny: allocates, acquires_lock, blocks_or_syscalls, reads_clock, unbounded_iteration)
    #[inline]
    fn fast_fix(&self, ranked: &[(ApId, i32)], time_s: f64, prior: Option<Prior>) -> Option<Fix> {
        if self.config.order != 2 || ranked.len() < 2 {
            return None;
        }
        // Any tie-margin pair routes through the permutation machinery.
        let upper = 3.min(ranked.len());
        for i in 0..upper - 1 {
            let a = ranked.get(i)?.1;
            let b = ranked.get(i + 1)?.1;
            if (a - b).abs() <= self.config.tie_margin_db {
                return None;
            }
        }
        let interner = self.index.interner();
        let &(ap0, _) = ranked.first()?;
        let &(ap1, _) = ranked.get(1)?;
        // Unknown APs in the head would need sentinel codes; leave those
        // scans (and plain lookup misses) to the fallback machinery.
        let (c0, c1) = match (interner.code(ap0), interner.code(ap1)) {
            (Some(c0), Some(c1)) => (c0, c1),
            _ => return None,
        };
        let table = self.index.table();
        let idx = table.find2(c0, c1)?;
        let &[seg] = table.payload_at(idx) else {
            return None;
        };
        let sub = self.index.subsegments().get(seg as usize)?;
        let interval = (sub.s0, sub.s1);
        if let Some(pr) = prior {
            let dt = (time_s - pr.time_s).max(0.0);
            let reach = (
                pr.s - self.config.backtrack_m,
                pr.s + self.config.max_speed_mps * dt,
            );
            let slack = 2.0 * self.index.sample_step_m() + 5.0;
            if !(interval.1 >= reach.0 - slack && interval.0 <= reach.1 + slack) {
                // Mobility override: the general path dead-reckons (and
                // counts the override in the metrics).
                return None;
            }
        }
        let mut s = 0.5 * (interval.0 + interval.1);
        if let Some(pr) = prior {
            let dt = (time_s - pr.time_s).max(0.0);
            let lo = (pr.s - self.config.backtrack_m).max(interval.0);
            let hi = (pr.s + self.config.max_speed_mps * dt).min(interval.1);
            if lo <= hi {
                s = s.clamp(lo, hi);
            }
        }
        let s = s.clamp(0.0, self.route.length());
        Some(Fix {
            s,
            point: self.route.point_at(s),
            interval,
            method: FixMethod::Exact,
            time_s,
        })
    }

    /// Metrics bookkeeping for a fix produced by [`Self::fast_fix`] outside
    /// [`Self::locate_with`] (which does its own accounting).
    fn note_fast_fix(&self) {
        if let Some(m) = &self.metrics {
            m.locate_total.inc();
            m.fix_total(Some(FixMethod::Exact)).inc();
        }
    }

    fn locate_inner(
        &self,
        scratch: &mut LocateScratch,
        ranked: &[(ApId, i32)],
        time_s: f64,
        prior: Option<Prior>,
    ) -> Option<Fix> {
        if ranked.is_empty() {
            return self.dead_reckon(time_s, prior);
        }
        if let Some(fix) = self.fast_fix(ranked, time_s, prior) {
            return Some(fix);
        }
        let k = self.config.order;
        let interner = self.index.interner();
        let table = self.index.table();
        let subsegments = self.index.subsegments();

        // 1. Intern the scan head into a stack buffer. Only the first
        //    `order + 1` ranks matter (the +1 is the tie probe against the
        //    rank just below the signature cut). APs the server never
        //    rasterised get per-call sentinel codes just above the interner
        //    range, in first-occurrence order: they compare unequal to
        //    every stored code (a guaranteed lookup miss, exactly like an
        //    unknown `ApId` missing a hash map) while still letting the
        //    rank-distance fallback count them as misses.
        let upper = (k + 1).min(ranked.len());
        let mut head = [(0u16, 0i32); MAX_ORDER + 1];
        let mut unknown = [(ApId(0), 0u16); MAX_ORDER + 1];
        let mut n_unknown = 0usize;
        let sentinel_base = interner.len();
        for (j, &(ap, rss)) in ranked.iter().take(upper).enumerate() {
            let code = match interner.code(ap) {
                Some(c) => c,
                None => {
                    let seen = unknown[..n_unknown].iter().find(|u| u.0 == ap);
                    match seen {
                        Some(&(_, c)) => c,
                        None => {
                            // `sentinel_base + n_unknown ≤ 65 000 + 8`,
                            // comfortably inside `u16` (the interner cap
                            // reserves exactly this headroom).
                            let c = (sentinel_base + n_unknown) as u16;
                            unknown[n_unknown] = (ap, c);
                            n_unknown += 1;
                            c
                        }
                    }
                }
            };
            head[j] = (code, rss);
        }

        // 2. Candidate signatures: the observed one, plus permutations of
        //    tied ranks (equal RSS ⇒ the bus sits on a tile boundary).
        //    The reference path materialises `TileSignature`s; here each
        //    candidate is a small code array. The first `MAX_TIE_SIGS`
        //    qualifying swap positions are applied, each deduplicated
        //    against the signatures already kept — the same bounded,
        //    deterministic enumeration as the reference path.
        let m = k.min(ranked.len());
        let mut base_sig = [0u16; MAX_ORDER];
        for j in 0..m {
            base_sig[j] = head[j].0;
        }
        let mut alts = [[0u16; MAX_ORDER]; MAX_TIE_SIGS];
        let mut n_alts = 0usize;
        let mut tried = 0usize;
        for i in 0..upper.saturating_sub(1) {
            if tried == MAX_TIE_SIGS {
                break;
            }
            if (head[i].1 - head[i + 1].1).abs() > self.config.tie_margin_db {
                continue;
            }
            tried += 1;
            let mut v = base_sig;
            if i + 1 < m {
                v.swap(i, i + 1);
            } else {
                // The rank just below the signature cut ties with the last
                // kept rank: the swap pulls it into the signature.
                v[i] = head[i + 1].0;
            }
            let dup = v[..m] == base_sig[..m] || alts[..n_alts].iter().any(|a| a[..m] == v[..m]);
            if !dup {
                alts[n_alts] = v;
                n_alts += 1;
            }
        }
        let tied = n_alts > 0;

        // 3. Collect candidate intervals. At order ≤ 2 this is an exact
        //    signature lookup. At higher orders matching is hierarchical:
        //    the top-2 prefix (the most reliable part of a noisy rank
        //    list — the paper's "2-order SVD is often enough") selects the
        //    enclosing coarse tile, and the *full* rank list then scores
        //    the finer runs inside it by rank distance. Exact matches come
        //    back at distance 0; a corrupted tail rank degrades gracefully
        //    to the order-2 cell instead of aliasing to a distant tile
        //    that happens to carry the corrupted permutation.
        scratch.intervals.clear();
        let mut exact = true;
        let sig_count = 1 + n_alts;
        if k <= 2 {
            for si in 0..sig_count {
                let sig: &[u16] = if si == 0 {
                    &base_sig[..m]
                } else {
                    &alts[si - 1][..m]
                };
                let hit = match sig {
                    &[c0, c1] => table.find2(c0, c1),
                    _ => table.find(sig),
                };
                if let Some(idx) = hit {
                    for &seg in table.payload_at(idx) {
                        if let Some(seg) = subsegments.get(seg as usize) {
                            scratch.intervals.push((seg.s0, seg.s1));
                        }
                    }
                }
            }
        } else {
            scratch.scored.clear();
            for si in 0..sig_count {
                let sig: &[u16] = if si == 0 {
                    &base_sig[..m]
                } else {
                    &alts[si - 1][..m]
                };
                let prefix = &sig[..m.min(2)];
                for idx in table.prefix_range(prefix) {
                    let d = rank_distance_codes(table.codes_at(idx), sig);
                    for &seg in table.payload_at(idx) {
                        scratch.scored.push((seg, d));
                    }
                }
            }
            if let Some(best) = scratch
                .scored
                .iter()
                .map(|&(_, d)| d)
                .min_by(|a, b| a.total_cmp(b))
            {
                exact = best == 0.0;
                for i in 0..scratch.scored.len() {
                    let (seg, d) = scratch.scored[i];
                    if d <= best + self.config.fallback_margin {
                        if let Some(seg) = subsegments.get(seg as usize) {
                            scratch.intervals.push((seg.s0, seg.s1));
                        }
                    }
                }
            }
        }
        let mut method = if tied {
            FixMethod::TieBoundary
        } else if exact {
            FixMethod::Exact
        } else {
            FixMethod::NearestSignature
        };

        // 4. Fallback: the nearest known signatures by rank distance. All
        //    near-ties contribute candidates so the mobility constraint can
        //    arbitrate (a noisy rank metric alone picks wrong runs).
        if scratch.intervals.is_empty() {
            let (near, intervals) = (&mut scratch.near, &mut scratch.intervals);
            self.index
                .nearest_codes(&base_sig[..m], 6, self.config.fallback_margin, near);
            for &(idx, d) in near.iter() {
                if d <= self.config.max_rank_distance {
                    for &seg in table.payload_at(idx as usize) {
                        if let Some(seg) = subsegments.get(seg as usize) {
                            intervals.push((seg.s0, seg.s1));
                        }
                    }
                }
            }
            if !scratch.intervals.is_empty() {
                method = FixMethod::NearestSignature;
            }
        }
        if scratch.intervals.is_empty() {
            return self.dead_reckon(time_s, prior);
        }

        // 5. Merge overlapping/adjacent intervals (tied signatures produce
        //    abutting runs around the tile boundary).
        merge_intervals_into(
            &mut scratch.intervals,
            &mut scratch.merged,
            self.index.sample_step_m(),
        );
        let merged: &[(f64, f64)] = &scratch.merged;

        // 6. Mobility constraint: prefer the interval consistent with the
        //    prior; a bus only moves forward along its route.
        let interval = match prior {
            Some(pr) => {
                let dt = (time_s - pr.time_s).max(0.0);
                let reach = (
                    pr.s - self.config.backtrack_m,
                    pr.s + self.config.max_speed_mps * dt,
                );
                let slack = 2.0 * self.index.sample_step_m() + 5.0;
                let closest = merged
                    .iter()
                    .filter(|&&(a, b)| b >= reach.0 - slack && a <= reach.1 + slack)
                    .min_by(|&&(a0, b0), &&(a1, b1)| {
                        let c0 = interval_distance(a0, b0, pr.s);
                        let c1 = interval_distance(a1, b1, pr.s);
                        c0.total_cmp(&c1)
                    });
                match closest {
                    None => {
                        // Scan contradicts the mobility window — trust the
                        // window (the paper trusts the route constraint over
                        // a single noisy scan).
                        if let Some(m) = &self.metrics {
                            m.mobility_override_total.inc();
                        }
                        return self.dead_reckon(time_s, prior);
                    }
                    Some(&iv) => iv,
                }
            }
            None => {
                // No prior: take the longest interval (highest prior mass).
                // `merged` cannot be empty here (intervals was non-empty and
                // merging only coalesces), but dead-reckoning beats a panic
                // if that invariant ever breaks.
                match merged
                    .iter()
                    .max_by(|&&(a0, b0), &&(a1, b1)| (b0 - a0).total_cmp(&(b1 - a1)))
                {
                    Some(&iv) => iv,
                    None => return self.dead_reckon(time_s, prior),
                }
            }
        };

        // 7. Point estimate: the interval midpoint (the Tile Mapping's
        //    centroid projection), clamped into the reachable window.
        let mut s = 0.5 * (interval.0 + interval.1);
        if let Some(pr) = prior {
            let dt = (time_s - pr.time_s).max(0.0);
            let lo = (pr.s - self.config.backtrack_m).max(interval.0);
            let hi = (pr.s + self.config.max_speed_mps * dt).min(interval.1);
            if lo <= hi {
                s = s.clamp(lo, hi);
            }
        }
        let s = s.clamp(0.0, self.route.length());
        Some(Fix {
            s,
            point: self.route.point_at(s),
            interval,
            method,
            time_s,
        })
    }

    fn dead_reckon(&self, time_s: f64, prior: Option<Prior>) -> Option<Fix> {
        let pr = prior?;
        // Without a measurement, assume the bus kept a typical urban pace
        // since the last fix.
        let dt = (time_s - pr.time_s).max(0.0);
        let s = (pr.s + self.config.dead_reckon_speed_mps * dt).min(self.route.length());
        Some(Fix {
            s,
            point: self.route.point_at(s),
            interval: (pr.s, s),
            method: FixMethod::DeadReckoned,
            time_s,
        })
    }

    /// Positioning error of a fix against ground truth, measured as road
    /// length (the paper's error metric).
    pub fn road_error_m(&self, fix: &Fix, truth_s: f64) -> f64 {
        (fix.s - truth_s).abs()
    }

    /// The sub-segment containing arc length `s` (exposes the index for
    /// diagnostics).
    pub fn subsegment_at(&self, s: f64) -> &SubSegment {
        self.index.subsegment_at(s)
    }
}

/// A stateful tracking filter around [`RoutePositioner`]: chains the
/// mobility prior between fixes and recovers from divergence by
/// *progressively widening* the search window instead of trusting either
/// the prior or a single noisy scan outright.
///
/// After `streak_threshold` consecutive fixes that did not come from an
/// exact signature match, the prior is slid backwards (both in position
/// and time) a little more each step, growing the feasible window in both
/// directions until the filter re-locks on an exact match.
#[derive(Debug, Clone)]
pub struct TrackingFilter {
    positioner: RoutePositioner,
    prior: Option<Prior>,
    unmatched_streak: usize,
    streak_threshold: usize,
    /// Reused locate buffers: steady-state tracking allocates nothing.
    scratch: LocateScratch,
}

impl TrackingFilter {
    /// Wraps a positioner with default divergence handling (threshold 3).
    pub fn new(positioner: RoutePositioner) -> Self {
        TrackingFilter {
            positioner,
            prior: None,
            unmatched_streak: 0,
            streak_threshold: 3,
            scratch: LocateScratch::new(),
        }
    }

    /// The wrapped positioner.
    pub fn positioner(&self) -> &RoutePositioner {
        &self.positioner
    }

    /// The current prior, if any.
    pub fn prior(&self) -> Option<Prior> {
        self.prior
    }

    /// Processes one ranked scan, updating the prior.
    ///
    /// Three regimes:
    ///
    /// * **Acquisition** (no prior yet): only a scan-anchored fix (exact or
    ///   tie-boundary match) initialises the track — a rank-distance guess
    ///   with no mobility constraint can land anywhere on the route.
    /// * **Tracking**: normal mobility-constrained positioning; a
    ///   dead-reckoned fix (scan rejected) increments the divergence
    ///   counter, any scan-anchored fix resets it.
    /// * **Re-acquisition** (counter at threshold): the search window is
    ///   progressively widened around the last estimate until an *exact*
    ///   match re-locks the track. Dead reckoning itself always proceeds
    ///   from the unwidened prior at the configured pace, so a diverged
    ///   track drifts boundedly instead of compounding.
    pub fn step(&mut self, ranked: &[(ApId, i32)], time_s: f64) -> Option<Fix> {
        self.step_traced(ranked, time_s, None)
    }

    /// [`TrackingFilter::step`] with an optional trace context: every
    /// positioning attempt (acquisition, tracking, widened re-lock) opens
    /// a `locate` child span.
    pub fn step_traced(
        &mut self,
        ranked: &[(ApId, i32)],
        time_s: f64,
        trace: Option<&TraceCtx<'_>>,
    ) -> Option<Fix> {
        let Some(pr) = self.prior else {
            // Acquisition.
            let fix =
                self.positioner
                    .locate_with(&mut self.scratch, ranked, time_s, None, trace)?;
            return match fix.method {
                FixMethod::Exact | FixMethod::TieBoundary => {
                    self.unmatched_streak = 0;
                    self.prior = Some(Prior {
                        s: fix.s,
                        time_s: fix.time_s,
                    });
                    Some(fix)
                }
                _ => None,
            };
        };
        // Tracking with the raw prior.
        let fix =
            self.positioner
                .locate_with(&mut self.scratch, ranked, time_s, Some(pr), trace)?;
        match fix.method {
            FixMethod::DeadReckoned => {
                self.unmatched_streak += 1;
                // Re-acquisition: widen the window and demand a
                // scan-anchored re-lock.
                if self.unmatched_streak >= self.streak_threshold {
                    let w = (self.unmatched_streak - self.streak_threshold + 1) as f64;
                    let widened = Prior {
                        s: (pr.s - 150.0 * w).max(0.0),
                        time_s: pr.time_s - 30.0 * w,
                    };
                    if let Some(m) = &self.positioner.metrics {
                        m.relock_attempt_total.inc();
                    }
                    if let Some(refix) = self.positioner.locate_with(
                        &mut self.scratch,
                        ranked,
                        time_s,
                        Some(widened),
                        trace,
                    ) {
                        if matches!(refix.method, FixMethod::Exact | FixMethod::TieBoundary) {
                            if let Some(m) = &self.positioner.metrics {
                                m.relock_success_total.inc();
                            }
                            self.unmatched_streak = 0;
                            self.prior = Some(Prior {
                                s: refix.s,
                                time_s: refix.time_s,
                            });
                            return Some(refix);
                        }
                    }
                }
                self.prior = Some(Prior {
                    s: fix.s,
                    time_s: fix.time_s,
                });
                Some(fix)
            }
            _ => {
                self.unmatched_streak = 0;
                self.prior = Some(Prior {
                    s: fix.s,
                    time_s: fix.time_s,
                });
                Some(fix)
            }
        }
    }

    /// Resets the filter for a new trip.
    pub fn reset(&mut self) {
        self.prior = None;
        self.unmatched_streak = 0;
    }

    /// Seeds the prior from an external position source (e.g. a
    /// map-matched GPS fix during a WiFi coverage gap), so the next scan
    /// is searched around it.
    pub fn seed(&mut self, prior: Prior) {
        self.prior = Some(prior);
        self.unmatched_streak = 0;
    }
}

/// Sorts `intervals` and merges runs closer than `gap` into maximal
/// disjoint intervals written to `out` (cleared first) — the buffer-reusing
/// form of the reference path's `merge_intervals`.
fn merge_intervals_into(intervals: &mut [(f64, f64)], out: &mut Vec<(f64, f64)>, gap: f64) {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    out.clear();
    for &(a, b) in intervals.iter() {
        match out.last_mut() {
            Some(last) if a <= last.1 + gap => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
}

/// Distance from `s` to the interval `[a, b]` (0 when inside).
fn interval_distance(a: f64, b: f64, s: f64) -> f64 {
    if s < a {
        a - s
    } else if s > b {
        s - b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagram::SvdConfig;
    use wilocator_rf::{AccessPoint, HomogeneousField, SignalField};
    use wilocator_road::{NetworkBuilder, RouteId};

    /// The Vec-based merge, preserved as a thin wrapper over
    /// [`merge_intervals_into`] so its unit tests keep pinning the
    /// coalescing semantics.
    fn merge_intervals(mut intervals: Vec<(f64, f64)>, gap: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        merge_intervals_into(&mut intervals, &mut out, gap);
        out
    }

    fn street(len: f64, spacing: f64) -> (Route, HomogeneousField) {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(len, 0.0));
        let e = b.add_edge(n0, n1, None).unwrap();
        let route = Route::new(RouteId(0), "t", vec![e], &b.build()).unwrap();
        let mut aps = Vec::new();
        let mut x = spacing / 2.0;
        let mut i = 0u32;
        while x < len {
            let y = if i.is_multiple_of(2) { 15.0 } else { -15.0 };
            aps.push(AccessPoint::new(ApId(i), Point::new(x, y)));
            i += 1;
            x += spacing;
        }
        (route, HomogeneousField::new(aps))
    }

    fn positioner(len: f64, spacing: f64) -> (RoutePositioner, HomogeneousField) {
        let (route, field) = street(len, spacing);
        let index = RouteTileIndex::build(&field, &route, SvdConfig::default(), 1.0);
        (
            RoutePositioner::new(route, index, PositionerConfig::default()),
            field,
        )
    }

    /// Noiseless ranked list at a point.
    fn ranked_at(field: &HomogeneousField, p: Point) -> Vec<(ApId, i32)> {
        field
            .detectable_at(p, -90.0)
            .into_iter()
            .map(|(ap, rss)| (ap, rss.round() as i32))
            .collect()
    }

    #[test]
    fn noiseless_fix_is_accurate() {
        let (pos, field) = positioner(800.0, 80.0);
        for truth in [40.0, 211.0, 555.0, 790.0] {
            let ranked = ranked_at(&field, pos.route().point_at(truth));
            let fix = pos.locate(&ranked, 0.0, None).expect("fix");
            // Sub-segments with 80 m AP spacing are ≲ 40 m; the midpoint
            // estimate is therefore within ~half a run of the truth, a bit
            // more at the route ends where runs are unterminated.
            assert!(
                pos.road_error_m(&fix, truth) <= 45.0,
                "truth {truth}, fix {} ({:?})",
                fix.s,
                fix.method
            );
        }
    }

    #[test]
    fn prior_disambiguates_between_repeated_signatures() {
        let (pos, field) = positioner(800.0, 80.0);
        let truth = 400.0;
        let ranked = ranked_at(&field, pos.route().point_at(truth));
        let prior = Prior {
            s: 380.0,
            time_s: 0.0,
        };
        let fix = pos.locate(&ranked, 10.0, Some(prior)).unwrap();
        assert!((fix.s - truth).abs() <= 25.0);
        // Fix must lie in the forward mobility window.
        assert!(fix.s >= prior.s - 1e-9);
        assert!(fix.s <= prior.s + 25.0 * 10.0 + 1e-9);
    }

    #[test]
    fn empty_scan_dead_reckons_from_prior() {
        let (pos, _field) = positioner(800.0, 80.0);
        let prior = Prior {
            s: 100.0,
            time_s: 0.0,
        };
        let fix = pos.locate(&[], 10.0, Some(prior)).unwrap();
        assert_eq!(fix.method, FixMethod::DeadReckoned);
        assert!(fix.s > 100.0 && fix.s < 100.0 + 250.0);
    }

    #[test]
    fn empty_scan_without_prior_is_none() {
        let (pos, _field) = positioner(800.0, 80.0);
        assert!(pos.locate(&[], 0.0, None).is_none());
    }

    #[test]
    fn tie_produces_boundary_estimate() {
        let (pos, _field) = positioner(800.0, 80.0);
        // Find two consecutive sub-segments A, B whose order-2 signatures
        // share the site but differ in the second rank: the boundary
        // between them is where ranks 2 and 3 tie. Constructing a scan
        // with that exact tie must place the bus on the shared boundary.
        let subs = pos.index().subsegments().to_vec();
        let mut tested = false;
        for w in subs.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let (sa, sb) = (a.signature.aps(), b.signature.aps());
            if sa.len() == 2 && sb.len() == 2 && sa[0] == sb[0] && sa[1] != sb[1] {
                let boundary = a.s1;
                // Rank list: shared site strongest, then the two tied
                // second-place APs.
                let ranked = vec![(sa[0], -50), (sa[1], -60), (sb[1], -60)];
                let fix = pos.locate(&ranked, 0.0, None).unwrap();
                assert_eq!(fix.method, FixMethod::TieBoundary);
                assert!(
                    (fix.s - boundary).abs() <= (a.length() + b.length()) / 2.0 + 5.0,
                    "boundary {boundary}, fix {} ({:?})",
                    fix.s,
                    fix.method
                );
                tested = true;
                break;
            }
        }
        assert!(tested, "no same-site boundary found on the test street");
    }

    #[test]
    fn unknown_signature_falls_back_to_nearest() {
        let (pos, field) = positioner(800.0, 80.0);
        let truth = 300.0;
        let mut ranked = ranked_at(&field, pos.route().point_at(truth));
        // Corrupt the list: drop the strongest AP (as if it just died).
        ranked.remove(0);
        let fix = pos.locate(&ranked, 0.0, None).expect("fallback fix");
        assert!(
            pos.road_error_m(&fix, truth) <= 120.0,
            "err {}",
            pos.road_error_m(&fix, truth)
        );
    }

    #[test]
    fn contradictory_scan_is_overridden_by_mobility() {
        let (pos, field) = positioner(800.0, 80.0);
        // Prior at s = 100; scan claims the bus is at s = 700 one second
        // later (impossible at 25 m/s).
        let ranked = ranked_at(&field, pos.route().point_at(700.0));
        let prior = Prior {
            s: 100.0,
            time_s: 0.0,
        };
        let fix = pos.locate(&ranked, 1.0, Some(prior)).unwrap();
        assert_eq!(fix.method, FixMethod::DeadReckoned);
        assert!(fix.s < 150.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let (pos, field) = positioner(800.0, 80.0);
        let mut scratch = LocateScratch::new();
        for truth in [40.0, 211.0, 555.0, 790.0] {
            let ranked = ranked_at(&field, pos.route().point_at(truth));
            let reused = pos.locate_with(&mut scratch, &ranked, 0.0, None, None);
            let fresh = pos.locate(&ranked, 0.0, None);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn unknown_aps_in_scan_miss_rather_than_alias() {
        let (pos, field) = positioner(800.0, 80.0);
        let truth = 300.0;
        let mut ranked = ranked_at(&field, pos.route().point_at(truth));
        // Splice two never-rasterised APs into the head of the scan: they
        // must read as guaranteed misses (sentinel codes), not alias onto
        // real tiles, so the positioner falls back instead of matching an
        // exact signature the index never stored.
        ranked.insert(0, (ApId(60_000), -45));
        ranked.insert(1, (ApId(60_001), -46));
        if let Some(fix) = pos.locate(&ranked, 0.0, None) {
            assert_ne!(fix.method, FixMethod::Exact);
        }
    }

    #[test]
    fn merge_intervals_merges_adjacent() {
        let merged = merge_intervals(vec![(0.0, 10.0), (10.5, 20.0), (40.0, 50.0)], 1.0);
        assert_eq!(merged, vec![(0.0, 20.0), (40.0, 50.0)]);
    }

    #[test]
    fn merge_intervals_keeps_disjoint() {
        let merged = merge_intervals(vec![(0.0, 1.0), (5.0, 6.0)], 0.5);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn interval_distance_cases() {
        assert_eq!(interval_distance(2.0, 4.0, 3.0), 0.0);
        assert_eq!(interval_distance(2.0, 4.0, 1.0), 1.0);
        assert_eq!(interval_distance(2.0, 4.0, 6.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn order_exceeding_index_rejected() {
        let (route, field) = street(200.0, 80.0);
        let index = RouteTileIndex::build(&field, &route, SvdConfig::default(), 1.0);
        let _ = RoutePositioner::new(
            route,
            index,
            PositionerConfig {
                order: 5,
                ..PositionerConfig::default()
            },
        );
    }

    #[test]
    fn fix_error_metric_is_road_distance() {
        let (pos, field) = positioner(400.0, 80.0);
        let ranked = ranked_at(&field, pos.route().point_at(100.0));
        let fix = pos.locate(&ranked, 0.0, None).unwrap();
        assert_eq!(pos.road_error_m(&fix, fix.s), 0.0);
        assert_eq!(pos.road_error_m(&fix, fix.s + 7.0), 7.0);
    }
}
