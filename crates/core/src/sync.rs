//! Synchronization façade for this crate's concurrent protocol modules.
//!
//! [`crate::snapshot`], [`crate::server`] and [`crate::metrics`] import
//! their lock and atomic types from here instead of `std::sync` (lint
//! rule W010 `raw_sync` enforces it). In a normal build these are
//! exactly the `std` types; under `RUSTFLAGS='--cfg wilocator_check'`
//! they become `wilocator-check`'s virtual primitives, so the model
//! checker explores the *real* publication and locking code rather
//! than a hand-copied model of it. See `crates/check` and DESIGN.md
//! §14.

pub use wilocator_check::sync::*;
