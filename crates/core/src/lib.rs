//! The WiLocator server: real-time bus tracking, arrival-time prediction
//! and traffic-map generation (Sections IV–V of the paper).
//!
//! This crate is the back-end of the paper's three-component architecture
//! (Fig. 4): riders' phones scan WiFi and upload reports; the server —
//! this crate — positions each bus on its route with the Signal Voronoi
//! Diagram, extracts segment travel times by interpolating intersection
//! crossings (Fig. 5), learns each segment's rush-hour structure through
//! the seasonal index (Eq. 6–7), predicts arrivals by combining historical
//! means with the recent residuals of *all* routes sharing a segment
//! (Eq. 8–9), and classifies live traffic by z-scoring travel-time
//! residuals (the rule-of-thumb thresholds of §V-A.4).
//!
//! Entry point: [`WiLocator`].
//!
//! # Examples
//!
//! ```
//! use wilocator_core::{BusKey, ScanReport, WiLocator, WiLocatorConfig};
//! use wilocator_geo::Point;
//! use wilocator_road::{NetworkBuilder, Route, RouteId};
//! use wilocator_rf::{AccessPoint, ApId, Bssid, HomogeneousField, Reading, Scan};
//!
//! // One street, two APs, one route.
//! let mut b = NetworkBuilder::new();
//! let n0 = b.add_node(Point::new(0.0, 0.0));
//! let n1 = b.add_node(Point::new(300.0, 0.0));
//! let e = b.add_edge(n0, n1, None)?;
//! let net = b.build();
//! let mut route = Route::new(RouteId(0), "9", vec![e], &net)?;
//! route.add_stops_evenly(2);
//! let field = HomogeneousField::new(vec![
//!     AccessPoint::new(ApId(0), Point::new(60.0, 20.0)),
//!     AccessPoint::new(ApId(1), Point::new(240.0, -20.0)),
//! ]);
//!
//! let server = WiLocator::new(&field, vec![route], WiLocatorConfig::default());
//! server.register_bus(BusKey(1), RouteId(0))?;
//! let fix = server.ingest(&ScanReport {
//!     bus: BusKey(1),
//!     time_s: 0.0,
//!     scans: vec![Scan::new(0.0, vec![
//!         Reading { ap: ApId(0), bssid: Bssid::from_ap_id(ApId(0)), rss_dbm: -50 },
//!         Reading { ap: ApId(1), bssid: Bssid::from_ap_id(ApId(1)), rss_dbm: -78 },
//!     ])],
//! })?;
//! assert!(fix.unwrap().s < 150.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
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

pub mod history;
pub mod hybrid;
pub mod metrics;
pub mod predict;
pub mod proximity;
pub mod quality;
pub mod report;
pub mod seasonal;
pub mod server;
pub mod snapshot;
pub mod sync;
pub mod tracker;
pub mod traffic_map;

pub use history::{TravelTimeStore, Traversal};
pub use hybrid::{FixSource, HybridConfig, HybridFix, HybridTracker};
pub use metrics::{
    PredictorMetrics, QueryEndpoint, QueryMetrics, ServerMetrics, ShardMetrics,
    NONDETERMINISTIC_COUNTER_FAMILIES,
};
pub use predict::{ArrivalPredictor, PredictorConfig, ResidualSource};
pub use proximity::{group_by_proximity, scan_distance_db, DeviceId};
pub use quality::{
    DetectorStatus, HorizonQuality, QualityConfig, QualityMetrics, QualityPlane, QualitySections,
    ResidualSketch, RouteQuality,
};
pub use report::{BusKey, RouteIdentifier, ScanReport};
pub use seasonal::{
    partition_from_index, seasonal_index, SeasonalConfig, SeasonalIndex, SlotPartition,
};
pub use server::{CoreError, IngestResult, WiLocator, WiLocatorConfig};
pub use snapshot::{ArrivalEntry, BusView, QuerySnapshot, SectionStamps, SnapshotCell};
pub use tracker::{
    crossing_time, segment_traversals, BusTracker, IngestOutcome, SegmentTraversal,
    TrackedTrajectory,
};
pub use traffic_map::{
    delta_from_history, delta_from_median, detect_anomalies, route_exclusions, unknown_fraction,
    Anomaly, SegmentState, TrafficMapConfig, TrafficMapGenerator, TrafficState,
};
