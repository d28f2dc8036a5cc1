//! Zero-dependency observability primitives for the WiLocator workspace.
//!
//! Production-scale ingestion is only debuggable with per-stage
//! accounting: how many reports arrived, how many produced fixes, which
//! positioning fallbacks fired, how long shard locks were held. This
//! crate provides the instruments — built on `std::sync::atomic` only
//! (the build environment has no crates.io access, mirroring
//! `crates/compat/`):
//!
//! * [`Counter`] / [`Gauge`] — relaxed-atomic scalars;
//! * [`Histogram`] — lock-free log-bucketed value distribution, with a
//!   RAII [`ClockSpanTimer`] for latency spans on an injected [`Clock`];
//! * [`MetricsSnapshot`] — plain-data aggregation with merge semantics, a
//!   deterministic text form for golden tests, and Prometheus-style
//!   exposition;
//! * [`Collect`] / [`Registry`] — how per-shard and per-route metric
//!   structs are labelled and gathered into one snapshot;
//! * [`Clock`] — injectable microsecond time source ([`MonotonicClock`]
//!   in production, [`SteppingClock`] in deterministic goldens);
//! * [`TimeSeries`] — fixed-memory ring of windowed aggregates
//!   (counter deltas/rates, gauge values, histogram quantiles) sampled
//!   from [`MetricsSnapshot`]s, rotated deterministically on the
//!   caller's sample stamps;
//! * [`trace`] — causal span tracing with a tail-sampled flight
//!   recorder ([`Tracer`] / [`TraceCtx`] / [`SpanGuard`]), Chrome
//!   trace-event export and a deterministic text dump;
//! * [`JsonWriter`] — the one JSON writer, appending to a caller's
//!   buffer: the Chrome export and the rider front end's answers.
//!
//! # Design rules
//!
//! Recording never takes a lock and never allocates: hot paths pay a few
//! relaxed atomic adds (and, for spans, one `Instant` pair). Aggregation
//! (naming, labelling, sorting, formatting) happens only at snapshot
//! time. Counters and gauges count *events*, so under the server's
//! per-bus replay determinism they are bit-identical across thread
//! counts; histograms time *wall-clock spans* and are not — golden tests
//! compare [`MetricsSnapshot::deterministic_lines`], which excludes them.
//!
//! # Examples
//!
//! ```
//! use wilocator_obs::{metric_key, Counter, Histogram, MetricsSnapshot, MonotonicClock};
//!
//! let clock = MonotonicClock::new();
//! let reports = Counter::new();
//! let lock_us = Histogram::new();
//! {
//!     let _span = lock_us.time_with(&clock); // records elapsed µs on drop
//!     reports.inc();
//! }
//! let mut snap = MetricsSnapshot::new();
//! snap.add_counter(metric_key("reports_total", "shard=\"0\""), reports.get());
//! snap.add_histogram("lock_hold_us", lock_us.snapshot());
//! assert_eq!(snap.counter("reports_total{shard=\"0\"}"), 1);
//! assert!(snap.prometheus_text().contains("# TYPE reports_total counter"));
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod clock;
pub mod counter;
pub mod histogram;
pub mod json;
pub mod snapshot;
pub mod sync;
pub mod timeseries;
pub mod trace;

pub use clock::{Clock, MonotonicClock, SteppingClock};
pub use counter::{Counter, Gauge};
pub use histogram::{ClockSpanTimer, Histogram, HistogramSnapshot, BUCKETS};
pub use json::JsonWriter;
pub use snapshot::{
    escape_label_value, metric_key, validate_exposition_line, Collect, MetricsSnapshot, Registry,
};
pub use timeseries::{
    SeriesKind, SeriesView, TimeSeries, TimeSeriesConfig, WindowAgg, WindowPoint,
};
pub use trace::{
    FieldList, FieldValue, SpanData, SpanGuard, TraceConfig, TraceCtx, TraceData, Tracer,
};
