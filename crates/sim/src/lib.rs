//! Urban mobility and crowdsensing simulator — the substitute for the
//! paper's in-situ Metro-Vancouver deployment.
//!
//! The WiLocator evaluation ran on three weeks of rider-collected traces
//! over four real bus routes. That data is not available, so this crate
//! regenerates its statistical structure end to end:
//!
//! * [`city`] — synthetic road networks and AP deployments, including
//!   [`vancouver_like`], which reproduces Table I's four routes (stop
//!   counts, lengths, overlap lengths) exactly, and [`campus`] for the
//!   Table II / Fig. 10 scene;
//! * [`traffic`] — per-segment speeds with rush-hour periodicity (what the
//!   seasonal index must discover), a *shared* environment residual across
//!   routes (what Equation 8's cross-route correction exploits), and
//!   injectable incidents (what the anomaly detector must localise);
//! * [`bus`] — kinematic trip simulation with stop dwells and traffic
//!   lights (the "false anomaly" sources of §V-A.4);
//! * [`sensing`] — rider WiFi scans at the paper's 10 s period, plus GPS
//!   (urban canyon) and Cell-ID observations for the baselines;
//! * [`trace`] — multi-day dataset generation, deterministic in a seed;
//! * [`loadgen`] — flattens a dataset into a time-ordered, lane-partitioned
//!   ingestion plan for deterministic multi-threaded server replay, with
//!   a [`LoadPlan::stats`](loadgen::LoadPlan::stats) snapshot stating the
//!   offered load in the server's own metric vocabulary.
//!
//! # Examples
//!
//! ```
//! use wilocator_road::RouteId;
//! use wilocator_sim::{
//!     daily_schedule, simple_street, simulate, CityConfig, SimulationConfig,
//!     TrafficConfig, TrafficModel,
//! };
//!
//! let city = simple_street(1_000.0, 4, 7, &CityConfig::default());
//! let traffic = TrafficModel::new(&city.network, TrafficConfig::default(), 7);
//! let schedule = daily_schedule(&city, &[(RouteId(0), 3_600.0)]);
//! let config = SimulationConfig { days: 1, ..SimulationConfig::default() };
//! let dataset = simulate(&city, &schedule, &traffic, &config);
//! assert!(!dataset.trips.is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod bus;
pub mod city;
pub mod loadgen;
pub mod sensing;
pub mod trace;
pub mod traffic;
pub mod trajectory;

pub use bus::{segment_travel_time, simulate_trip, BusConfig};
pub use city::{campus, simple_street, vancouver_like, CampusScene, City, CityConfig};
pub use loadgen::{LoadEvent, LoadPlan, DEFAULT_QUERY_RATIO};
pub use sensing::{sense_trip, serving_tower, GpsModel, ScanBundle, SensingConfig};
pub use trace::{daily_schedule, simulate, Dataset, SimulationConfig, TripTrace};
pub use traffic::{Incident, TrafficConfig, TrafficModel, DAY_S};
pub use trajectory::Trajectory;
