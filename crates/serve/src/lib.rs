//! Rider-facing HTTP front end for WiLocator.
//!
//! A zero-dependency HTTP/1.1 server over `std::net` answering rider
//! queries from the epoch-published [`wilocator_core::QuerySnapshot`].
//! Endpoints:
//!
//! | Endpoint | Answer |
//! |---|---|
//! | `GET /arrivals/{stop}` | Predicted arrivals at a stop, per route (`?route=N` filters) |
//! | `GET /position/{bus}` | A bus's latest published fix |
//! | `GET /traffic/{route}` | The route's traffic-map segment states |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /healthz` | Liveness plus snapshot epoch and staleness |
//! | `GET /debug/timeseries` | Windowed metric aggregates (counter deltas, gauges, latency quantiles) |
//! | `GET /debug/quality` | Per-route ETA-accuracy quantiles from the retro-prediction ledger (`?route=N` filters) |
//! | `GET /debug/slo` | Drift-detector burn rates with exemplar trace ids |
//! | `GET /subscribe?epoch=N` | Long-poll until a snapshot newer than `N` is published (bounded timeout) |
//!
//! The crate splits into three layers, each testable without the one
//! below: [`http`] (pure byte parsing), [`service`] (pure routing over
//! a [`wilocator_core::WiLocator`]), and [`server`] (sockets and the
//! worker pool). Data responses never touch a shard ingest lock — they
//! read the immutable published snapshot, so query throughput is
//! independent of ingest contention (see `DESIGN.md` §10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

pub mod http;
pub mod server;
pub mod service;

pub use http::{parse_request, HttpError, HttpLimits, Request};
pub use server::{serve, ServeConfig, ServerHandle};
pub use service::{debug_dump, respond, Response};
