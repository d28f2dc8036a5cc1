//! The sync façade: `std` primitives in production, virtual ones under
//! `--cfg wilocator_check`.
//!
//! Protocol modules (`wilocator-core`'s snapshot/server/metrics,
//! `wilocator-obs`'s counters) import their synchronization types from
//! here via a thin `crate::sync` re-export instead of `std::sync`
//! (enforced by lint rule W010 `raw_sync`). A normal build compiles to
//! exactly the `std` types — zero overhead, zero behaviour change. The
//! model-check CI job rebuilds with `RUSTFLAGS='--cfg wilocator_check'`,
//! swapping in [`crate::model`]'s virtual types so the *real* protocol
//! code runs under exhaustive interleaving exploration.
//!
//! `Arc` is deliberately re-exported from `std` in both modes: the
//! snapshot protocol's reclamation argument rests on plain reference
//! counting, and `Arc` clone/drop is not a scheduling point.

#[cfg(not(wilocator_check))]
pub use std::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(wilocator_check)]
pub use crate::model::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

pub use std::sync::Arc;

/// Enters a lock even when a previous holder panicked.
///
/// Every lock taken through this helper guards plain data with no
/// multi-step invariant spanning an unlock, so the state behind a
/// poisoned lock is still consistent; recovering the guard keeps one
/// panicked request from turning into a permanently poisoned server.
/// The serving path itself is panic-free (enforced by clippy's panic
/// denies and wilocator-lint W002/W009), so in practice this recovery
/// never fires. The virtual primitives return `std`'s `LockResult` too,
/// so the same helper serves both build modes.
pub fn unpoisoned<G>(result: Result<G, std::sync::PoisonError<G>>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Atomic cells and orderings (`Ordering` is always the `std` enum).
pub mod atomic {
    #[cfg(not(wilocator_check))]
    pub use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize};

    #[cfg(wilocator_check)]
    pub use crate::model::{AtomicI64, AtomicU64, AtomicUsize};

    pub use std::sync::atomic::Ordering;
}
