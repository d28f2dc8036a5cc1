//! Signal Voronoi Diagram construction and rank-based positioning —
//! the primary contribution of the WiLocator paper (Section III).
//!
//! The Signal Voronoi Diagram (SVD) partitions the RF signal space of a set
//! of WiFi access points into **Signal Cells** — regions dominated by one
//! AP — and recursively into **Signal Tiles**, regions where the *rank
//! order* of RSS from the surrounding APs is constant. Because ranks are
//! far more stable than raw RSS (which swings >10 dB even at a standstill),
//! a scanned rank list identifies the tile a device is in without any
//! fingerprint calibration or propagation-model fitting.
//!
//! The crate provides:
//!
//! * [`TileSignature`] — ordered AP lists naming tiles, with a rank
//!   distance for noisy-lookup fallback;
//! * [`SignalVoronoiDiagram`] — the rasterised planar diagram: tiles,
//!   cells, tile-boundary lengths, SVE joints;
//! * [`RouteTileIndex`] — the diagram restricted to a bus route
//!   (signature → road sub-segments), the production positioning path;
//! * [`RoutePositioner`] — rank list + mobility constraint → position fix,
//!   with tie handling, nearest-signature fallback and dead reckoning;
//! * [`TileMapper`] — the paper-faithful Tile Mapping (Definition 5) over
//!   the planar diagram, including the longest-tile-boundary fallback;
//! * [`average_ranks`] — multi-device rank averaging;
//! * [`PositioningMetrics`] / [`TileMapperMetrics`] — lock-free counters
//!   of which resolution path produced each fix.
//!
//! # Examples
//!
//! ```
//! use wilocator_geo::Point;
//! use wilocator_road::{NetworkBuilder, Route, RouteId};
//! use wilocator_rf::{AccessPoint, ApId, HomogeneousField};
//! use wilocator_svd::{PositionerConfig, RoutePositioner, RouteTileIndex, SvdConfig};
//!
//! // A 300 m street with two kerbside APs.
//! let mut b = NetworkBuilder::new();
//! let n0 = b.add_node(Point::new(0.0, 0.0));
//! let n1 = b.add_node(Point::new(300.0, 0.0));
//! let e = b.add_edge(n0, n1, None)?;
//! let net = b.build();
//! let route = Route::new(RouteId(0), "demo", vec![e], &net)?;
//! let field = HomogeneousField::new(vec![
//!     AccessPoint::new(ApId(0), Point::new(60.0, 20.0)),
//!     AccessPoint::new(ApId(1), Point::new(240.0, -20.0)),
//! ]);
//!
//! let index = RouteTileIndex::build(&field, &route, SvdConfig::default(), 1.0);
//! let pos = RoutePositioner::new(route, index, PositionerConfig::default());
//! let fix = pos.locate(&[(ApId(1), -55), (ApId(0), -75)], 0.0, None).unwrap();
//! assert!(fix.s > 150.0); // nearer the second AP
//! # Ok::<(), wilocator_road::RoadError>(())
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

pub mod diagram;
pub mod interner;
pub mod metrics;
pub mod positioning;
pub mod rank;
pub mod reference;
pub mod route_index;
pub mod signature;
pub mod table;
pub mod tile_mapping;

pub use diagram::{Joint, SignalCell, SignalVoronoiDiagram, SvdConfig, Tile, TileId};
pub use interner::{ApInterner, InternerError, MAX_INTERNED_APS};
pub use metrics::{PositioningMetrics, TileMapperMetrics};
pub use positioning::{
    Fix, FixMethod, LocateScratch, PositionerConfig, Prior, RoutePositioner, TrackingFilter,
};
pub use rank::{average_ranks, to_ranked_rss, AveragedRank};
pub use reference::{ReferencePositioner, ReferenceRouteIndex};
pub use route_index::{RouteTileIndex, SubSegment};
pub use signature::{rank_distance_codes, signature_from_ranked, TileSignature};
pub use table::SignatureTable;
pub use tile_mapping::{MappedPosition, TileMapper};
