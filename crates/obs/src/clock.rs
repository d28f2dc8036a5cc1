//! Time sources for span timing.
//!
//! Production code uses [`MonotonicClock`], a thin wrapper over
//! [`std::time::Instant`] anchored at construction. Golden tests inject a
//! [`SteppingClock`] whose reads advance by a fixed amount, which makes
//! span durations — and with [`Histogram::time_with`] the lock-hold
//! histograms — byte-identical across runs instead of stripped from
//! snapshots.
//!
//! [`Histogram::time_with`]: crate::Histogram::time_with

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A microsecond time source.
///
/// Implementations must be cheap (a handful of instructions) and safe to
/// call from any thread: the tracer reads the clock on every span open
/// and close while the server's ingest lock is held.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// The current time in microseconds since an arbitrary origin.
    ///
    /// Only differences between readings are meaningful. Readings taken
    /// on one thread are monotonically non-decreasing.
    fn now_us(&self) -> u64;
}

/// The production clock: microseconds elapsed since construction, read
/// from the OS monotonic clock.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock anchored at the moment of the call.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        // A u64 of microseconds wraps after ~584'000 years of uptime.
        self.origin.elapsed().as_micros() as u64
    }
}

/// A deterministic test clock: each reading returns the previous value
/// and advances the internal time by a fixed step.
///
/// A step of `0` freezes the clock (every reading identical); a step of
/// `1` makes consecutive readings `start, start+1, start+2, …`, so span
/// start/end stamps in a single-threaded replay are a pure function of
/// the event sequence.
///
/// The internal counter uses `Relaxed` ordering (per the W003 policy):
/// each reading is still unique and monotonic across threads, but
/// cross-thread ordering of stamps is unspecified — deterministic
/// goldens must replay single-threaded.
#[derive(Debug)]
pub struct SteppingClock {
    now_us: AtomicU64,
    step_us: u64,
}

impl SteppingClock {
    /// A clock whose first reading is `start_us`, advancing by `step_us`
    /// per reading.
    pub fn new(start_us: u64, step_us: u64) -> Self {
        Self {
            now_us: AtomicU64::new(start_us),
            step_us,
        }
    }
}

impl Clock for SteppingClock {
    fn now_us(&self) -> u64 {
        self.now_us.fetch_add(self.step_us, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepping_clock_is_deterministic() {
        let c = SteppingClock::new(100, 10);
        assert_eq!(c.now_us(), 100);
        assert_eq!(c.now_us(), 110);
        assert_eq!(c.now_us(), 120);
    }

    #[test]
    fn frozen_clock_never_moves() {
        let c = SteppingClock::new(42, 0);
        assert_eq!(c.now_us(), 42);
        assert_eq!(c.now_us(), 42);
    }

    #[test]
    fn monotonic_clock_does_not_go_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }
}
