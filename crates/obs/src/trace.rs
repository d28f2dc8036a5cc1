//! Causal tracing and the flight recorder.
//!
//! # Span model
//!
//! A *trace* is the causal record of one request through the server —
//! one ingested reading or one arrival prediction. It is a tree of
//! *spans*: the root span covers the whole request, child spans cover
//! stages (`track`, `locate`, `tile_map`, `predict`, `commit`). Spans
//! carry a name, start/end microsecond stamps from an injected
//! [`Clock`], and a small set of structured fields (bus id, outcome,
//! fix method, tile id, residual-borrow count).
//!
//! Within one request, spans are built thread-confined inside a
//! [`TraceCtx`] (a `RefCell`, no atomics at all); [`SpanGuard`] closes
//! its span on drop, so nesting follows scope nesting. Only when the
//! root context drops does the finished trace touch shared state.
//!
//! # Tail sampling
//!
//! Every *published* trace lands in a bounded per-shard ring buffer and
//! is eventually overwritten — that is the flight recorder's steady
//! state. A trace is additionally *retained* (copied into a byte-capped
//! retention buffer that survives ring churn) only when it is worth
//! keeping:
//!
//! * its root span exceeded [`TraceConfig::latency_threshold_us`], or
//! * it carries an anomaly flag (dead-reckoned fix, tile-mapping miss,
//!   unknown bus, lock-poison recovery).
//!
//! Retention decisions happen at trace finish, after the root span has
//! closed — i.e. sampling on the *tail* of the request, when its
//! latency and outcome are known.
//!
//! Orthogonally, only ~1 in [`TraceConfig::detail_every`] traces is
//! *detailed* — records clock-stamped child spans. The choice hashes a
//! content key (bus id ⊕ timestamp bits), never wall time or arrival
//! order, so replays are stable across runs and thread counts. A trace
//! that is neither detailed, anomalous, nor slow is counted and dropped
//! at finish without entering a ring: the steady-state cost per request
//! is a handful of relaxed atomics, no lock, no allocation, and zero
//! extra clock reads (the root shares its stamps with the lock-hold
//! histogram).
//!
//! # Ordering and tearing (W003)
//!
//! All tracer atomics use `Relaxed` ordering: trace ids only need
//! uniqueness, counters are totals, and the rings/retention buffer are
//! guarded by their own mutexes. Exports lock one ring at a time, so a
//! [`Tracer::text_dump`] taken while traffic is in flight is a
//! consistent set of *finished* traces but not a point-in-time cut —
//! the same tearing model as metric snapshots.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::Clock;
use crate::counter::{Counter, Gauge};
use crate::json::JsonWriter;
use crate::snapshot::{metric_key, Collect, MetricsSnapshot};
use crate::sync::unpoisoned;

/// Sentinel parent for root spans.
const ROOT_PARENT: u32 = u32::MAX;
/// Sentinel end stamp for spans still open.
const OPEN_END: u64 = u64::MAX;

/// Flight-recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Master switch; when false, no contexts are created and the hot
    /// path pays a single branch per request.
    pub enabled: bool,
    /// Finished traces kept per shard ring before overwrite.
    pub ring_capacity: usize,
    /// Byte budget of the retention buffer (approximate, see
    /// [`TraceData::approx_bytes`]).
    pub retained_bytes: usize,
    /// Root spans at least this long are retained (tail sampling).
    pub latency_threshold_us: u64,
    /// Roughly one in this many keyed traces is *detailed* — records
    /// individually clock-stamped child spans. The rest record only
    /// their root span (with fields and anomaly flags intact), keeping
    /// the steady-state cost near zero. `0` or `1` details every trace;
    /// other values are rounded up to a power of two so the hot-path
    /// check is a mask instead of a division.
    ///
    /// The choice is a hash of the caller-supplied key
    /// ([`Tracer::start_root_span_keyed`]), not of the trace id, so it
    /// is a pure function of request content — identical replays make
    /// identical choices at any thread count.
    pub detail_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            ring_capacity: 256,
            retained_bytes: 1 << 20,
            latency_threshold_us: 1_000,
            detail_every: 16,
        }
    }
}

impl TraceConfig {
    /// A configuration that details every trace — full child-span
    /// timing, as golden tests and offline replays want.
    pub fn detailed() -> Self {
        Self {
            detail_every: 1,
            ..Self::default()
        }
    }
}

/// A structured span field value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'static str),
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            // Fixed precision keeps text dumps byte-stable.
            FieldValue::F64(v) => write!(f, "{v:.2}"),
            FieldValue::Str(s) => write!(f, "{s}"),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Number of span fields stored inline before spilling to the heap.
/// Hot-path spans annotate at most three fields, so the common case
/// allocates nothing.
const INLINE_FIELDS: usize = 3;

/// A span's structured fields: a small inline array that spills to a
/// `Vec` only once it is full. Iteration order is insertion order.
#[derive(Debug, Clone)]
pub struct FieldList {
    inline: [(&'static str, FieldValue); INLINE_FIELDS],
    inline_len: u8,
    spill: Vec<(&'static str, FieldValue)>,
}

impl Default for FieldList {
    fn default() -> Self {
        Self::new()
    }
}

impl FieldList {
    /// An empty list (no allocation).
    pub fn new() -> Self {
        Self {
            inline: [("", FieldValue::U64(0)); INLINE_FIELDS],
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// Appends a field.
    pub fn push(&mut self, name: &'static str, value: FieldValue) {
        let len = usize::from(self.inline_len);
        match self.inline.get_mut(len) {
            Some(slot) => {
                *slot = (name, value);
                self.inline_len += 1;
            }
            None => self.spill.push((name, value)),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        usize::from(self.inline_len) + self.spill.len()
    }

    /// True when no fields have been added.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, FieldValue)> {
        self.inline
            .iter()
            .take(usize::from(self.inline_len))
            .chain(self.spill.iter())
    }
}

impl PartialEq for FieldList {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<'a> IntoIterator for &'a FieldList {
    type Item = &'a (&'static str, FieldValue);
    type IntoIter = std::iter::Chain<
        std::iter::Take<std::slice::Iter<'a, (&'static str, FieldValue)>>,
        std::slice::Iter<'a, (&'static str, FieldValue)>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline
            .iter()
            .take(usize::from(self.inline_len))
            .chain(self.spill.iter())
    }
}

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// Position in the trace's span list; the root is always 0.
    pub seq: u32,
    /// `seq` of the parent span, or `u32::MAX` for the root.
    pub parent: u32,
    /// Nesting depth (root = 0).
    pub depth: u32,
    /// Stage name (`ingest`, `track`, `locate`, …).
    pub name: &'static str,
    /// Start stamp in clock microseconds.
    pub start_us: u64,
    /// End stamp, or `u64::MAX` while the span is open.
    pub end_us: u64,
    /// Structured annotations, in the order they were added.
    pub fields: FieldList,
}

impl SpanData {
    /// True for the trace's root span.
    pub fn is_root(&self) -> bool {
        self.parent == ROOT_PARENT
    }

    /// Span duration in microseconds (0 while open).
    pub fn duration_us(&self) -> u64 {
        if self.end_us == OPEN_END {
            0
        } else {
            self.end_us.saturating_sub(self.start_us)
        }
    }

    /// The value of the named field, if annotated.
    pub fn field(&self, name: &str) -> Option<FieldValue> {
        self.fields
            .iter()
            .find_map(|(k, v)| (*k == name).then_some(*v))
    }

    /// An inert root span left behind when the real one is moved out of
    /// a finishing context.
    fn placeholder() -> Self {
        SpanData {
            seq: 0,
            parent: ROOT_PARENT,
            depth: 0,
            name: "",
            start_us: 0,
            end_us: 0,
            fields: FieldList::new(),
        }
    }
}

/// One finished trace: a span tree plus identity and anomaly state.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceData {
    /// Unique, monotonically assigned id.
    pub trace_id: u64,
    /// Shard whose ring recorded the trace.
    pub shard: usize,
    /// First anomaly flagged on the trace, if any.
    pub anomaly: Option<&'static str>,
    /// Spans in creation order; the root is first.
    pub spans: Vec<SpanData>,
}

impl TraceData {
    /// The root span (absent only for a degenerate empty trace).
    pub fn root(&self) -> Option<&SpanData> {
        self.spans.first()
    }

    /// Root-span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.root().map(SpanData::duration_us).unwrap_or(0)
    }

    /// The root span's field `name` as a `u64`, if annotated so.
    pub fn root_field_u64(&self, name: &str) -> Option<u64> {
        match self.root()?.field(name) {
            Some(FieldValue::U64(v)) => Some(v),
            _ => None,
        }
    }

    /// Approximate heap+inline footprint, the unit of the retention
    /// byte cap. Deterministic: a pure function of the span tree shape.
    pub fn approx_bytes(&self) -> usize {
        let mut n = std::mem::size_of::<TraceData>();
        for sp in &self.spans {
            n += std::mem::size_of::<SpanData>();
            n += sp.fields.len() * std::mem::size_of::<(&'static str, FieldValue)>();
        }
        n
    }
}

/// Retention buffer state (guarded by one mutex).
#[derive(Debug, Default)]
struct Retention {
    traces: VecDeque<TraceData>,
    bytes: usize,
}

/// One shard's ring, padded to a cache line so neighbouring shards'
/// rings don't false-share when batch threads publish concurrently.
#[derive(Debug, Default)]
#[repr(align(64))]
struct ShardRing(Mutex<VecDeque<TraceData>>);

/// The flight recorder: per-shard rings of recent traces plus the
/// tail-sampled retention buffer, with its own accounting counters.
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    /// `detail_every` rounded up to a power of two, minus one: the
    /// sampling check is `mix64(key) & detail_mask == 0`.
    detail_mask: u64,
    clock: Arc<dyn Clock>,
    next_trace_id: AtomicU64,
    rings: Vec<ShardRing>,
    retention: Mutex<Retention>,
    traces_total: Counter,
    spans_total: Counter,
    ring_evicted_total: Counter,
    retained_anomaly_total: Counter,
    retained_slow_total: Counter,
    retention_evicted_total: Counter,
    retained_bytes: Gauge,
}

impl Tracer {
    /// A tracer with one ring per shard (at least one).
    pub fn new(config: TraceConfig, shards: usize, clock: Arc<dyn Clock>) -> Self {
        let rings = (0..shards.max(1)).map(|_| ShardRing::default()).collect();
        let detail_mask = if config.detail_every <= 1 {
            0
        } else {
            config.detail_every.next_power_of_two() - 1
        };
        Self {
            config,
            detail_mask,
            clock,
            next_trace_id: AtomicU64::new(0),
            rings,
            retention: Mutex::default(),
            traces_total: Counter::new(),
            spans_total: Counter::new(),
            ring_evicted_total: Counter::new(),
            retained_anomaly_total: Counter::new(),
            retained_slow_total: Counter::new(),
            retention_evicted_total: Counter::new(),
            retained_bytes: Gauge::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// The clock stamps are read from.
    pub fn clock(&self) -> &dyn Clock {
        // lint: allow(read_path_purity) — dyn Clock dispatch defaults to ⊤; every Clock impl is a pure time read, no locks or blocking
        self.clock.as_ref()
    }

    /// Opens a trace rooted at a new span, or `None` when tracing is
    /// disabled. The context is thread-confined; the trace publishes to
    /// the shard's ring when the context drops. Traces opened this way
    /// are always detailed (child spans individually clock-stamped) —
    /// the hot path uses [`Tracer::start_root_span_keyed`] instead.
    pub fn start_root_span(&self, shard: usize, name: &'static str) -> Option<TraceCtx<'_>> {
        if !self.config.enabled {
            return None;
        }
        let start_us = self.clock.now_us();
        Some(self.open_root(shard, name, start_us, true))
    }

    /// The hot-path variant: the caller supplies the root's start stamp
    /// (typically shared with a histogram timer, so tracing adds no
    /// clock reads) and a content-derived sampling key that decides
    /// whether this trace records detailed child spans
    /// ([`TraceConfig::detail_every`]). Close with
    /// [`TraceCtx::finish_at`] to share the end stamp too.
    pub fn start_root_span_keyed(
        &self,
        shard: usize,
        name: &'static str,
        start_us: u64,
        key: u64,
    ) -> Option<TraceCtx<'_>> {
        if !self.config.enabled {
            return None;
        }
        let detailed = mix64(key) & self.detail_mask == 0;
        Some(self.open_root(shard, name, start_us, detailed))
    }

    fn open_root(
        &self,
        shard: usize,
        name: &'static str,
        start_us: u64,
        detailed: bool,
    ) -> TraceCtx<'_> {
        let trace_id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        let root = SpanData {
            seq: 0,
            parent: ROOT_PARENT,
            depth: 0,
            name,
            start_us,
            end_us: OPEN_END,
            fields: FieldList::new(),
        };
        self.spans_total.inc();
        TraceCtx {
            tracer: self,
            shard: shard.min(self.rings.len().saturating_sub(1)),
            trace_id,
            detailed,
            inner: RefCell::new(CtxInner {
                root,
                // A non-detailed trace records no children, so it never
                // needs the heap (or the pool) at all.
                children: if detailed {
                    pooled_children()
                } else {
                    Vec::new()
                },
                open: Vec::new(),
                anomaly: None,
                root_end: None,
            }),
        }
    }

    /// Publishes a finished trace (already counted by its context's
    /// drop): tail-sampling decision first, then the ring insert
    /// (evicting the oldest entries beyond capacity).
    fn finish(&self, trace: TraceData) {
        let anomalous = trace.anomaly.is_some();
        let slow = !anomalous && trace.duration_us() >= self.config.latency_threshold_us;
        if anomalous || slow {
            self.retain(trace.clone(), anomalous);
        }
        let Some(ring) = self.rings.get(trace.shard).map(|r| &r.0) else {
            return;
        };
        if self.config.ring_capacity == 0 {
            self.ring_evicted_total.inc();
            return;
        }
        let mut ring = unpoisoned(ring.lock());
        while ring.len() >= self.config.ring_capacity {
            if let Some(old) = ring.pop_front() {
                recycle_spans(old.spans);
            }
            self.ring_evicted_total.inc();
        }
        ring.push_back(trace);
    }

    /// Admits a trace to the retention buffer, evicting the oldest
    /// retained traces until it fits. A trace larger than the whole
    /// budget is rejected outright (counted as evicted) — a
    /// content-deterministic decision, so anomaly-retention counts stay
    /// replay-stable.
    fn retain(&self, trace: TraceData, anomalous: bool) {
        let bytes = trace.approx_bytes();
        if bytes > self.config.retained_bytes {
            self.retention_evicted_total.inc();
            return;
        }
        let mut r = unpoisoned(self.retention.lock());
        while r.bytes.saturating_add(bytes) > self.config.retained_bytes {
            match r.traces.pop_front() {
                Some(old) => {
                    r.bytes = r.bytes.saturating_sub(old.approx_bytes());
                    self.retention_evicted_total.inc();
                }
                None => break,
            }
        }
        r.bytes += bytes;
        r.traces.push_back(trace);
        self.retained_bytes.set(r.bytes as i64);
        if anomalous {
            self.retained_anomaly_total.inc();
        } else {
            self.retained_slow_total.inc();
        }
    }

    /// Every retained trace, oldest first.
    pub fn retained(&self) -> Vec<TraceData> {
        unpoisoned(self.retention.lock())
            .traces
            .iter()
            .cloned()
            .collect()
    }

    /// Current byte footprint of the retention buffer.
    pub fn retention_bytes(&self) -> usize {
        unpoisoned(self.retention.lock()).bytes
    }

    /// Current length of each shard ring.
    pub fn ring_lens(&self) -> Vec<usize> {
        self.rings
            .iter()
            .map(|r| unpoisoned(r.0.lock()).len())
            .collect()
    }

    /// Total traces finished so far.
    pub fn traces_finished(&self) -> u64 {
        self.traces_total.get()
    }

    /// Every trace still in a ring, ordered by trace id.
    pub fn recent(&self) -> Vec<TraceData> {
        let mut out = Vec::new();
        for ring in &self.rings {
            out.extend(unpoisoned(ring.0.lock()).iter().cloned());
        }
        out.sort_by_key(|t| t.trace_id);
        out
    }

    /// Union of retained and recent traces, deduplicated, ordered by
    /// trace id — the export set.
    pub fn export_traces(&self) -> Vec<TraceData> {
        let mut all = self.retained();
        all.extend(self.recent());
        all.sort_by_key(|t| t.trace_id);
        all.dedup_by_key(|t| t.trace_id);
        all
    }

    /// Exported traces whose root span carries `field = value` — the
    /// per-bus timeline query when `field` is `"bus"`.
    pub fn timeline_for(&self, field: &str, value: u64) -> Vec<TraceData> {
        self.export_traces()
            .into_iter()
            .filter(|t| t.root_field_u64(field) == Some(value))
            .collect()
    }

    /// The export set as Chrome trace-event JSON (`chrome://tracing` /
    /// Perfetto loadable): one complete `"X"` event per span, `pid` =
    /// shard, `tid` = trace id, `ts`/`dur` in microseconds.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::new(&mut out);
        w.open_obj();
        w.key("displayTimeUnit").string("ms");
        w.key("traceEvents").open_arr();
        for t in &self.export_traces() {
            for sp in &t.spans {
                chrome_event(&mut w, t, sp);
            }
        }
        w.close_arr().close_obj();
        out
    }

    /// The export set in a deterministic line-oriented text form, for
    /// golden tests and terminal inspection: one header line per trace,
    /// one indented line per span.
    pub fn text_dump(&self) -> String {
        let mut out = String::new();
        for t in &self.export_traces() {
            out.push_str(&format!(
                "trace {} shard {} anomaly {}\n",
                t.trace_id,
                t.shard,
                t.anomaly.unwrap_or("-")
            ));
            for sp in &t.spans {
                for _ in 0..=sp.depth {
                    out.push_str("  ");
                }
                let parent = if sp.is_root() {
                    "-".to_string()
                } else {
                    sp.parent.to_string()
                };
                let end = if sp.end_us == OPEN_END {
                    "-".to_string()
                } else {
                    sp.end_us.to_string()
                };
                out.push_str(&format!(
                    "span {} parent {} {} start {} end {}",
                    sp.seq, parent, sp.name, sp.start_us, end
                ));
                for (k, v) in &sp.fields {
                    out.push_str(&format!(" {k}={v}"));
                }
                out.push('\n');
            }
        }
        out
    }
}

impl Collect for Tracer {
    fn collect_into(&self, labels: &str, out: &mut MetricsSnapshot) {
        out.add_counter(
            metric_key("wilocator_trace_traces_total", labels),
            self.traces_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_trace_spans_total", labels),
            self.spans_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_trace_ring_evicted_total", labels),
            self.ring_evicted_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_trace_retained_anomaly_total", labels),
            self.retained_anomaly_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_trace_retained_slow_total", labels),
            self.retained_slow_total.get(),
        );
        out.add_counter(
            metric_key("wilocator_trace_retention_evicted_total", labels),
            self.retention_evicted_total.get(),
        );
        out.add_gauge(
            metric_key("wilocator_trace_retained_bytes", labels),
            self.retained_bytes.get(),
        );
    }
}

/// Renders one span as a Chrome trace-event object.
fn chrome_event(w: &mut JsonWriter<'_>, t: &TraceData, sp: &SpanData) {
    w.open_obj();
    w.key("name").string(sp.name);
    w.key("cat").string("wilocator");
    w.key("ph").string("X");
    w.key("ts").literal(sp.start_us);
    w.key("dur").literal(sp.duration_us());
    w.key("pid").literal(t.shard);
    w.key("tid").literal(t.trace_id);
    w.key("args").open_obj();
    if !sp.is_root() {
        w.key("parent").literal(sp.parent);
    } else if let Some(a) = t.anomaly {
        w.key("anomaly").string(a);
    }
    for (k, v) in &sp.fields {
        w.key(k);
        // `Display` is the JSON literal, floats at two decimals; a
        // non-finite float, which a JSON number cannot carry, is quoted.
        match v {
            FieldValue::Str(_) => w.string(v),
            FieldValue::F64(f) if !f.is_finite() => w.string(v),
            _ => w.literal(v),
        };
    }
    w.close_obj().close_obj();
}

std::thread_local! {
    /// Recycled span vectors (capacity retained, contents cleared):
    /// ring eviction feeds the pool, [`Tracer::open_root`] drains it, so
    /// a warmed-up recorder opens traces without touching the allocator.
    /// Purely an allocation cache — trace *content* never flows through
    /// it, so replay determinism is unaffected.
    static SPAN_POOL: RefCell<Vec<Vec<SpanData>>> = const { RefCell::new(Vec::new()) };
}

/// Upper bound on pooled vectors per thread; beyond this they are freed.
const SPAN_POOL_CAP: usize = 64;

/// An empty span vector for a detailed trace's children, reusing a
/// pooled allocation when one is available.
fn pooled_children() -> Vec<SpanData> {
    let mut v = SPAN_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    v.clear();
    v
}

/// Returns a retired span vector to this thread's pool.
fn recycle_spans(mut v: Vec<SpanData>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    SPAN_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < SPAN_POOL_CAP {
            pool.push(v);
        }
    });
}

/// SplitMix64 finalizer: spreads a structured sampling key (bus id ⊕
/// timestamp bits) uniformly so `mix64(key) % detail_every` samples
/// evenly even when keys share low bits.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mutable trace state, thread-confined behind the context's `RefCell`.
///
/// The root span lives inline — a non-detailed trace that ends neither
/// anomalous nor slow is dropped without ever materialising a span
/// vector, taking a lock, or touching the pool.
#[derive(Debug)]
struct CtxInner {
    root: SpanData,
    /// Child spans in open order; `children[i]` has `seq == i + 1`.
    /// Empty (capacity 0) on a non-detailed trace.
    children: Vec<SpanData>,
    /// Stack of open child indices (into `children`); the innermost is
    /// last. The root sits implicitly below the stack — it stays open
    /// for the trace's whole life, and an empty stack means the root is
    /// innermost. Starting empty keeps the hot path free of this
    /// allocation.
    open: Vec<usize>,
    anomaly: Option<&'static str>,
    /// Caller-supplied root end stamp ([`TraceCtx::finish_at`]); when
    /// unset, the drop handler reads the clock itself.
    root_end: Option<u64>,
}

/// One in-flight trace. Dropping the context closes every open span and
/// publishes the finished trace to the tracer.
///
/// The context is deliberately `!Sync` (interior `RefCell`): a trace
/// belongs to the one thread serving its request.
#[derive(Debug)]
pub struct TraceCtx<'t> {
    tracer: &'t Tracer,
    shard: usize,
    trace_id: u64,
    detailed: bool,
    inner: RefCell<CtxInner>,
}

impl TraceCtx<'_> {
    /// The trace's unique id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Closes the trace using a caller-supplied root end stamp instead
    /// of a fresh clock read — the hot path shares one stamp between
    /// the trace and its lock-hold histogram.
    pub fn finish_at(self, end_us: u64) {
        self.inner.borrow_mut().root_end = Some(end_us);
    }

    /// Annotates the innermost open span (the root when no child is
    /// open) with a structured field.
    pub fn field(&self, name: &'static str, value: impl Into<FieldValue>) {
        let mut inner = self.inner.borrow_mut();
        let CtxInner {
            root,
            children,
            open,
            ..
        } = &mut *inner;
        let sp = match open.last() {
            Some(&idx) => match children.get_mut(idx) {
                Some(sp) => sp,
                None => return,
            },
            None => root,
        };
        sp.fields.push(name, value.into());
    }

    /// Flags the trace as anomalous (first flag wins), guaranteeing
    /// retention regardless of latency.
    pub fn flag_anomaly(&self, kind: &'static str) {
        let mut inner = self.inner.borrow_mut();
        if inner.anomaly.is_none() {
            inner.anomaly = Some(kind);
        }
    }

    /// Opens a child span under the innermost open span. Bind the
    /// returned guard for the whole traced region (W006): the span
    /// closes when the guard drops. On a non-detailed trace the guard
    /// is inert — no span is recorded and no clock is read.
    pub fn child_span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.detailed {
            return SpanGuard {
                ctx: self,
                idx: NOOP_SPAN,
            };
        }
        // lint: allow(hot_path_effects) — stamp runs only under a detailed trace ctx; hot paths pass trace=None or sampled keyed spans
        let now = self.tracer.clock.now_us();
        let mut inner = self.inner.borrow_mut();
        let CtxInner { children, open, .. } = &mut *inner;
        // The root (seq 0) is the implicit bottom of the open stack;
        // children[i] carries seq i + 1.
        let parent = open.last().map(|&i| i as u32 + 1).unwrap_or(0);
        let depth = open.len() as u32 + 1;
        let idx = children.len();
        children.push(SpanData {
            seq: idx as u32 + 1,
            parent,
            depth,
            name,
            start_us: now,
            end_us: OPEN_END,
            fields: FieldList::new(),
        });
        open.push(idx);
        self.tracer.spans_total.inc();
        SpanGuard { ctx: self, idx }
    }
}

impl Drop for TraceCtx<'_> {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.root_end.unwrap_or_else(|| self.tracer.clock.now_us());
        let CtxInner {
            root,
            children,
            open,
            anomaly,
            ..
        } = &mut *inner;
        // Close any children left open, then the implicitly open root.
        for &idx in open.iter() {
            if let Some(sp) = children.get_mut(idx) {
                if sp.end_us == OPEN_END {
                    sp.end_us = now;
                }
            }
        }
        open.clear();
        if root.end_us == OPEN_END {
            root.end_us = now;
        }
        self.tracer.traces_total.inc();
        // The flight recorder keeps detailed (sampled) traces plus
        // anything the tail sampler would retain; every other trace is
        // accounted and dropped right here — no span vector, no ring
        // lock, no pool traffic.
        let anomalous = anomaly.is_some();
        let slow = !anomalous && root.duration_us() >= self.tracer.config.latency_threshold_us;
        if !self.detailed && !anomalous && !slow {
            return;
        }
        let mut spans = std::mem::take(children);
        spans.insert(0, std::mem::replace(root, SpanData::placeholder()));
        let data = TraceData {
            trace_id: self.trace_id,
            shard: self.shard,
            anomaly: *anomaly,
            spans,
        };
        drop(inner);
        self.tracer.finish(data);
    }
}

/// Marker index for a guard on a non-detailed trace: every operation on
/// it is a no-op.
const NOOP_SPAN: usize = usize::MAX;

/// RAII guard for a child span: the span's end stamp is taken when the
/// guard drops (or [`SpanGuard::stop`] consumes it).
#[derive(Debug)]
pub struct SpanGuard<'c> {
    ctx: &'c TraceCtx<'c>,
    idx: usize,
}

impl SpanGuard<'_> {
    /// Annotates this span with a structured field.
    pub fn field(&self, name: &'static str, value: impl Into<FieldValue>) {
        if self.idx == NOOP_SPAN {
            return;
        }
        let mut inner = self.ctx.inner.borrow_mut();
        if let Some(sp) = inner.children.get_mut(self.idx) {
            sp.fields.push(name, value.into());
        }
    }

    /// Closes the span now (sugar for dropping the guard).
    pub fn stop(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.idx == NOOP_SPAN {
            return;
        }
        let now = self.ctx.tracer.clock.now_us();
        let mut inner = self.ctx.inner.borrow_mut();
        let CtxInner { children, open, .. } = &mut *inner;
        // Drop order can diverge from stack order only if a guard is
        // moved out of scope; truncating to this span's stack position
        // keeps later field() calls from attaching to a closed span.
        if let Some(pos) = open.iter().rposition(|&i| i == self.idx) {
            open.truncate(pos);
        }
        if let Some(sp) = children.get_mut(self.idx) {
            if sp.end_us == OPEN_END {
                sp.end_us = now;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SteppingClock;

    fn tracer(config: TraceConfig) -> Tracer {
        Tracer::new(config, 2, Arc::new(SteppingClock::new(0, 10)))
    }

    #[test]
    fn spans_nest_and_close_in_scope_order() {
        let t = tracer(TraceConfig::default());
        {
            let ctx = t.start_root_span(0, "ingest").unwrap();
            ctx.field("bus", 7u64);
            {
                let track = ctx.child_span("track");
                track.field("ranked_aps", 3u64);
                let locate = ctx.child_span("locate");
                locate.field("method", "exact");
            }
            ctx.child_span("commit").stop();
        }
        let traces = t.recent();
        assert_eq!(traces.len(), 1);
        let spans = &traces[0].spans;
        assert_eq!(spans.len(), 4);
        assert!(spans[0].is_root());
        assert_eq!(spans[1].name, "track");
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].name, "locate");
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[2].depth, 2);
        assert_eq!(spans[3].name, "commit");
        assert_eq!(spans[3].parent, 0);
        // Stepping clock: every stamp distinct, children inside parent.
        for sp in spans {
            assert!(sp.end_us >= sp.start_us);
            assert_ne!(sp.end_us, OPEN_END);
        }
        assert!(spans[1].start_us > spans[0].start_us);
        assert!(spans[0].end_us > spans[3].end_us);
        assert_eq!(traces[0].root_field_u64("bus"), Some(7));
    }

    #[test]
    fn tail_sampling_retains_slow_and_anomalous_only() {
        let config = TraceConfig {
            latency_threshold_us: 50,
            ..TraceConfig::default()
        };
        // Step 10 and a root with no children: duration 10 (fast).
        let t = tracer(config);
        drop(t.start_root_span(0, "fast"));
        assert!(t.retained().is_empty());
        // Enough child spans push the root past the threshold.
        {
            let ctx = t.start_root_span(0, "slow").unwrap();
            for _ in 0..4 {
                ctx.child_span("stage").stop();
            }
        }
        assert_eq!(t.retained().len(), 1);
        assert_eq!(t.retained_slow_total.get(), 1);
        // Anomalies retain regardless of latency.
        {
            let ctx = t.start_root_span(1, "bad").unwrap();
            ctx.flag_anomaly("unknown_bus");
            ctx.flag_anomaly("second_flag_ignored");
        }
        let retained = t.retained();
        assert_eq!(retained.len(), 2);
        assert_eq!(retained[1].anomaly, Some("unknown_bus"));
        assert_eq!(t.retained_anomaly_total.get(), 1);
        assert_eq!(t.traces_finished(), 3);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let config = TraceConfig {
            ring_capacity: 3,
            latency_threshold_us: u64::MAX,
            ..TraceConfig::default()
        };
        let t = tracer(config);
        for _ in 0..5 {
            drop(t.start_root_span(0, "r"));
        }
        let lens = t.ring_lens();
        assert_eq!(lens, vec![3, 0]);
        assert_eq!(t.ring_evicted_total.get(), 2);
        let recent = t.recent();
        assert_eq!(
            recent.iter().map(|x| x.trace_id).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn zero_capacity_ring_records_nothing_and_does_not_hang() {
        let config = TraceConfig {
            ring_capacity: 0,
            latency_threshold_us: u64::MAX,
            ..TraceConfig::default()
        };
        let t = tracer(config);
        drop(t.start_root_span(0, "r"));
        assert!(t.recent().is_empty());
        assert_eq!(t.ring_evicted_total.get(), 1);
    }

    #[test]
    fn retention_respects_byte_cap() {
        let probe = tracer(TraceConfig::default());
        {
            let ctx = probe.start_root_span(0, "probe").unwrap();
            ctx.flag_anomaly("x");
        }
        let one = probe.retained()[0].approx_bytes();
        let config = TraceConfig {
            retained_bytes: one * 2 + one / 2,
            ..TraceConfig::default()
        };
        let t = tracer(config);
        for _ in 0..5 {
            let ctx = t.start_root_span(0, "a").unwrap();
            ctx.flag_anomaly("x");
        }
        assert_eq!(t.retained().len(), 2);
        assert!(t.retention_bytes() <= config.retained_bytes);
        assert_eq!(t.retained_anomaly_total.get(), 5);
        assert_eq!(t.retention_evicted_total.get(), 3);
        // Newest retained traces survive.
        assert_eq!(
            t.retained().iter().map(|x| x.trace_id).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn disabled_tracer_creates_no_contexts() {
        let config = TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        };
        let t = tracer(config);
        assert!(t.start_root_span(0, "r").is_none());
        assert_eq!(t.traces_finished(), 0);
    }

    #[test]
    fn timeline_filters_by_root_field() {
        let t = tracer(TraceConfig::default());
        for bus in [1u64, 2, 1] {
            let ctx = t.start_root_span(0, "ingest").unwrap();
            ctx.field("bus", bus);
        }
        let line = t.timeline_for("bus", 1);
        assert_eq!(line.len(), 2);
        assert_eq!(line[0].trace_id, 0);
        assert_eq!(line[1].trace_id, 2);
        assert!(t.timeline_for("bus", 9).is_empty());
    }

    #[test]
    fn chrome_export_has_required_keys_and_escapes() {
        let t = tracer(TraceConfig::default());
        {
            let ctx = t.start_root_span(1, "ingest").unwrap();
            ctx.field("bus", 7u64);
            ctx.field("delta", -3i64);
            ctx.flag_anomaly("unknown_bus");
            let sp = ctx.child_span("track");
            sp.field("note", "has \"quotes\"");
            sp.field("nan", f64::NAN);
            sp.field("s", 12.3456f64);
            sp.field("ok", true);
        }
        assert_eq!(
            t.chrome_trace_json(),
            concat!(
                r#"{"displayTimeUnit":"ms","traceEvents":["#,
                r#"{"name":"ingest","cat":"wilocator","ph":"X","ts":0,"dur":30,"pid":1,"tid":0,"#,
                r#""args":{"anomaly":"unknown_bus","bus":7,"delta":-3}},"#,
                r#"{"name":"track","cat":"wilocator","ph":"X","ts":10,"dur":10,"pid":1,"tid":0,"#,
                r#""args":{"parent":0,"note":"has \"quotes\"","nan":"NaN","s":12.35,"ok":true}}]}"#,
            )
        );
    }

    #[test]
    fn text_dump_is_deterministic() {
        let make = || {
            let t = tracer(TraceConfig::default());
            {
                let ctx = t.start_root_span(0, "ingest").unwrap();
                ctx.field("bus", 3u64);
                let sp = ctx.child_span("track");
                sp.field("s", 12.345f64);
            }
            t.text_dump()
        };
        let a = make();
        assert_eq!(a, make());
        assert!(a.contains("trace 0 shard 0 anomaly -"));
        assert!(a.contains("span 1 parent 0 track"));
        assert!(a.contains("s=12.35"));
    }

    #[test]
    fn collect_exports_trace_counter_families() {
        let t = tracer(TraceConfig::default());
        {
            let ctx = t.start_root_span(0, "r").unwrap();
            ctx.flag_anomaly("x");
        }
        let mut snap = MetricsSnapshot::new();
        t.collect_into("", &mut snap);
        assert_eq!(snap.counter("wilocator_trace_traces_total"), 1);
        assert_eq!(snap.counter("wilocator_trace_spans_total"), 1);
        assert_eq!(snap.counter("wilocator_trace_retained_anomaly_total"), 1);
        assert!(snap.gauge("wilocator_trace_retained_bytes") > 0);
    }
}
