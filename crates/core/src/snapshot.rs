//! Epoch-published query snapshots: the rider-facing read path.
//!
//! The ingest side of the server mutates sharded state behind `RwLock`s;
//! serving millions of riders from those locks would couple read latency
//! to write contention. Instead the server periodically *publishes* an
//! immutable [`QuerySnapshot`] — every bus's latest fix, every stop's
//! arrival table, every route's traffic map — and readers answer from
//! the latest published snapshot without ever touching an ingest lock.
//!
//! # Publication protocol
//!
//! [`SnapshotCell`] is a ring of `N ≥ 2` slots, each holding an
//! `Arc<QuerySnapshot>`, plus an atomic epoch counter:
//!
//! * **Readers** load the epoch (`Acquire`), index slot `epoch % N`,
//!   clone the `Arc` out under that slot's read lock, and retry if the
//!   snapshot's own epoch no longer matches the loaded one (a publisher
//!   lapped the whole ring between the two instructions — possible only
//!   when a reader stalls for `N` full publish cycles mid-read). The
//!   critical section is one reference-count increment — no allocation,
//!   no shard lock, no waiting on writers (a writer never touches the
//!   slot the current epoch points at).
//! * **Writers** serialize on a publish gate, build the next snapshot
//!   (taking shard *read* locks one at a time), write it into slot
//!   `(epoch + 1) % N` under that slot's write lock, then advance the
//!   epoch with a `Release` store. A writer can only wait on a reader
//!   that has fallen `N − 1` whole publish cycles behind mid-clone.
//!
//! The retry makes per-reader epoch monotonicity unconditional: each
//! returned snapshot carries exactly the epoch the reader loaded, and
//! same-thread loads of one atomic are coherence-ordered, so a reader's
//! sequence of epochs never decreases. Without it, a lapped reader could
//! return epoch `N + k` and then `N + j` (`j < k`) on its next call.
//! The model checker found that schedule (`crates/check/tests/model.rs`,
//! `lapped_reader_would_regress_without_retry`) before any wall-clock
//! stress test did.
//!
//! # Memory reclamation
//!
//! Old snapshots are reclaimed by `Arc`: overwriting a ring slot drops
//! the ring's reference, and the snapshot is freed when the last reader
//! clone drops. No epoch-based reclamation scheme or unsafe code is
//! needed — the workspace forbids `unsafe` — because readers hold owning
//! references, never borrowed pointers.

use std::collections::BTreeMap;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{unpoisoned, Arc, Condvar, Mutex, RwLock};

use wilocator_road::{RouteId, StopId};
use wilocator_svd::Fix;

use crate::quality::QualitySections;
use crate::report::BusKey;
use crate::traffic_map::SegmentState;

/// One bus's published position: the route it serves and its latest fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusView {
    /// The route the bus is registered on.
    pub route: RouteId,
    /// The latest position fix at publish time.
    pub fix: Fix,
}

/// One predicted arrival in a stop's published table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalEntry {
    /// The approaching bus.
    pub bus: BusKey,
    /// Predicted absolute arrival time at the stop, seconds.
    pub eta_s: f64,
    /// `time_s` of the fix the prediction was integrated from. Always
    /// equals the published [`BusView::fix`] of the same bus in the same
    /// snapshot — consistency tests assert exactly this pairing.
    pub from_fix_time_s: f64,
}

/// Per-section epoch stamps, written once at build time. A reader that
/// ever observes differing stamps has seen a torn snapshot — which the
/// single-`Arc` publication makes impossible, and tests verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionStamps {
    /// Epoch stamped on the bus-position section.
    pub buses: u64,
    /// Epoch stamped on the arrival-table section.
    pub arrivals: u64,
    /// Epoch stamped on the traffic-map section.
    pub traffic: u64,
}

/// An immutable, internally consistent view of the serving state,
/// published as one unit: positions, arrival tables and traffic maps all
/// computed from the same pass over the shards.
///
/// All collections are ordered (`BTreeMap`, pre-sorted `Vec`s) so that
/// iteration — and therefore any serialized response — is deterministic.
#[derive(Debug, Clone, Default)]
pub struct QuerySnapshot {
    /// Publication sequence number; 0 is the empty pre-publish snapshot.
    pub epoch: u64,
    /// The `as_of` stream time the snapshot was built for, seconds.
    pub published_at_s: f64,
    /// Latest fix of every tracked bus, ordered by key.
    pub buses: BTreeMap<BusKey, BusView>,
    /// Per-(route, stop) arrival tables, soonest first (ties by bus key).
    pub arrivals: BTreeMap<(RouteId, StopId), Vec<ArrivalEntry>>,
    /// Per-route traffic maps in route segment order.
    pub traffic: BTreeMap<RouteId, Vec<SegmentState>>,
    /// Quality sections (time-series, per-route accuracy, detector
    /// statuses), evaluated on the publish path and shared by `Arc` so
    /// `/debug` readers never touch an ingest lock. Empty when the
    /// quality plane is disabled.
    pub quality: Arc<QualitySections>,
    /// Torn-read tripwire: every section carries the snapshot's epoch.
    pub stamps: SectionStamps,
}

impl QuerySnapshot {
    /// The empty snapshot served before the first publication.
    pub fn empty() -> Self {
        QuerySnapshot::default()
    }

    /// An empty snapshot stamped for `epoch` at `as_of`, ready for the
    /// builder to fill.
    pub fn stamped(epoch: u64, as_of: f64) -> Self {
        QuerySnapshot {
            epoch,
            published_at_s: as_of,
            stamps: SectionStamps {
                buses: epoch,
                arrivals: epoch,
                traffic: epoch,
            },
            ..QuerySnapshot::default()
        }
    }

    /// The published position of a bus.
    pub fn position(&self, bus: BusKey) -> Option<&BusView> {
        self.buses.get(&bus)
    }

    /// The arrival table of one (route, stop) pair.
    pub fn arrivals(&self, route: RouteId, stop: StopId) -> Option<&[ArrivalEntry]> {
        self.arrivals.get(&(route, stop)).map(Vec::as_slice)
    }

    /// All arrival tables for a stop id across routes (stop ids are
    /// per-route, so one id can name a stop on several routes), in route
    /// order.
    pub fn arrivals_at_stop(
        &self,
        stop: StopId,
    ) -> impl Iterator<Item = (RouteId, &[ArrivalEntry])> {
        self.arrivals
            .iter()
            .filter(move |((_, s), _)| *s == stop)
            .map(|((r, _), entries)| (*r, entries.as_slice()))
    }

    /// The published traffic map of a route.
    pub fn traffic(&self, route: RouteId) -> Option<&[SegmentState]> {
        self.traffic.get(&route).map(Vec::as_slice)
    }

    /// True when every section carries the snapshot's own epoch — the
    /// not-torn invariant readers assert.
    pub fn is_coherent(&self) -> bool {
        self.stamps.buses == self.epoch
            && self.stamps.arrivals == self.epoch
            && self.stamps.traffic == self.epoch
    }
}

/// The epoch-published snapshot cell (see the module docs for the
/// protocol and its memory-reclamation argument).
#[derive(Debug)]
pub struct SnapshotCell {
    /// Current epoch; slot `epoch % slots.len()` holds its snapshot.
    epoch: AtomicU64,
    /// The ring. Writers only ever lock the *next* slot for writing, so
    /// readers of the current slot never contend with a writer.
    slots: Vec<RwLock<Arc<QuerySnapshot>>>,
    /// Serializes publishers; readers never touch it.
    gate: Mutex<()>,
    /// Long-poll subscriber parking lot: [`SnapshotCell::wait_past_epoch`]
    /// waiters sleep on `published` under `subs`, and every publication
    /// wakes them. Deliberately separate from `gate` so a subscriber
    /// arriving mid-build never waits out the snapshot construction.
    subs: Mutex<()>,
    published: Condvar,
}

impl SnapshotCell {
    /// A cell with `slots` ring slots (clamped to at least 2), serving
    /// the empty epoch-0 snapshot until the first publication.
    pub fn new(slots: usize) -> Self {
        let empty = Arc::new(QuerySnapshot::empty());
        SnapshotCell {
            epoch: AtomicU64::new(0),
            slots: (0..slots.max(2))
                .map(|_| RwLock::new(empty.clone()))
                .collect(),
            gate: Mutex::new(()),
            subs: Mutex::new(()),
            published: Condvar::new(),
        }
    }

    /// The epoch of the latest published snapshot (0 before the first).
    pub fn epoch(&self) -> u64 {
        // Ordering: Acquire — callers use this as a freshness fence
        // ("anything published before the epoch I saw is visible");
        // pinned by `snapshot_reads_are_monotone_and_coherent` in
        // crates/check/tests/model.rs.
        self.epoch.load(Ordering::Acquire)
    }

    /// The latest published snapshot. Wait-free in practice: one atomic
    /// load, one uncontended slot read lock, one `Arc` clone; the retry
    /// loop only runs when a publisher laps the whole ring mid-read.
    pub fn read(&self) -> Arc<QuerySnapshot> {
        // lint: allow(hot_path_effects) — retry fires only when a publisher laps the whole slot ring mid-read; one iteration in every non-adversarial schedule
        loop {
            // Ordering: Acquire pairs with the publisher's Release store
            // below, so observing epoch `e` makes snapshot `e`'s slot
            // write visible to the slot read — a Relaxed load here lets
            // the model serve a stale ring slot (torn view of epoch `e`).
            // Pinned by `snapshot_reads_are_monotone_and_coherent`; the
            // deliberately broken ordering is caught by
            // `buggy_publish_order_is_caught` (crates/check/tests/model.rs).
            let e = self.epoch.load(Ordering::Acquire);
            let idx = (e as usize) % self.slots.len();
            let snap = Arc::clone(&*unpoisoned(self.slots[idx].read()));
            // The slot can only hold epoch `e + kN` (the Acquire load
            // guarantees at-least-`e`); anything newer means we were
            // lapped — retry with the fresh epoch so the returned epoch
            // always equals a value this thread loaded, which is what
            // makes per-reader monotonicity hold (module docs).
            if snap.epoch == e {
                return snap;
            }
        }
    }

    /// Publishes the snapshot produced by `build`, which receives the
    /// epoch being published and the previous snapshot (for monotonic
    /// stream-time clamping). Returns the new epoch.
    ///
    /// Publishers serialize on the gate; the epoch only advances here,
    /// with a `Release` store readers pair with their `Acquire` load.
    // lint: hot_path(deny: blocks_or_syscalls, unbounded_iteration)
    pub fn publish_with(&self, builder: impl FnOnce(u64, &QuerySnapshot) -> QuerySnapshot) -> u64 {
        let _gate = unpoisoned(self.gate.lock());
        // Ordering: Relaxed is enough — every store to `epoch` happens
        // under this gate, so the previous publisher's store is visible
        // through the gate's lock/unlock edge, not the atomic's. The
        // load was Acquire before the model checker existed; downgraded
        // after `publish_gate_serializes_and_epoch_is_exact` and
        // `snapshot_reads_are_monotone_and_coherent`
        // (crates/check/tests/model.rs) passed exhaustively with
        // Relaxed (14 and 217 schedules at preemption bound 2, stale
        // reads enabled, at the time of the downgrade).
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        let snap = {
            let prev = self.read();
            // lint: allow(hot_path_effects) — caller-supplied builder (⊤): publishers pass the pure snapshot constructor, exercised by the publish-path tests
            Arc::new(builder(next, &prev))
        };
        let idx = (next as usize) % self.slots.len();
        *unpoisoned(self.slots[idx].write()) = snap;
        // Ordering: Release publishes the slot write (and the snapshot's
        // heap contents) to any reader whose Acquire load observes
        // `next`. Pinned by `snapshot_reads_are_monotone_and_coherent`;
        // storing before the slot write (the seeded bug) is caught by
        // `buggy_publish_order_is_caught`.
        self.epoch.store(next, Ordering::Release);
        // Wake long-poll subscribers. Lock-then-notify: a waiter either
        // loads the new epoch before sleeping, or is already parked in
        // `wait_timeout` (having released `subs`) by the time this lock
        // acquisition succeeds — so the notification cannot fall between
        // its epoch check and its wait.
        drop(unpoisoned(self.subs.lock()));
        self.published.notify_all();
        next
    }

    /// Blocks until the published epoch exceeds `epoch` or `timeout`
    /// elapses, and returns the epoch current at that point — the
    /// long-poll primitive behind the HTTP `/subscribe` endpoint.
    ///
    /// Waiters park on a subscriber mutex distinct from the publish
    /// gate, so they neither serialize with a publisher's snapshot build
    /// nor with the lock-free `read` path. Under the model checker's
    /// virtual `Condvar` every wait times out immediately (a sound
    /// over-approximation), which this loop tolerates by re-checking the
    /// epoch after every wake and returning on timeout.
    pub fn wait_past_epoch(&self, epoch: u64, timeout: std::time::Duration) -> u64 {
        let mut remaining = timeout;
        let mut parked = unpoisoned(self.subs.lock());
        loop {
            // Ordering: Acquire — same freshness fence as `epoch()`; a
            // woken subscriber goes on to `read()` the snapshot whose
            // publication woke it.
            let e = self.epoch.load(Ordering::Acquire);
            if e > epoch || remaining.is_zero() {
                return e;
            }
            let started = std::time::Instant::now();
            let (guard, result) = unpoisoned(self.published.wait_timeout(parked, remaining));
            parked = guard;
            if result.timed_out() {
                return self.epoch.load(Ordering::Acquire);
            }
            remaining = remaining.saturating_sub(started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with_epoch(epoch: u64) -> QuerySnapshot {
        QuerySnapshot::stamped(epoch, epoch as f64)
    }

    #[test]
    fn empty_cell_serves_epoch_zero() {
        let cell = SnapshotCell::new(4);
        assert_eq!(cell.epoch(), 0);
        let snap = cell.read();
        assert_eq!(snap.epoch, 0);
        assert!(snap.buses.is_empty());
        assert!(snap.is_coherent());
    }

    #[test]
    fn publish_advances_epoch_and_swaps_snapshot() {
        let cell = SnapshotCell::new(2);
        for expect in 1..=10u64 {
            let got = cell.publish_with(|epoch, prev| {
                assert_eq!(epoch, expect);
                assert_eq!(prev.epoch, expect - 1);
                snap_with_epoch(epoch)
            });
            assert_eq!(got, expect);
            assert_eq!(cell.read().epoch, expect);
        }
    }

    #[test]
    fn readers_see_monotone_coherent_epochs_under_concurrent_publish() {
        let cell = SnapshotCell::new(4);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for _ in 0..500 {
                    cell.publish_with(|epoch, _| snap_with_epoch(epoch));
                }
            });
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut last = 0u64;
                        for _ in 0..2_000 {
                            let snap = cell.read();
                            assert!(snap.is_coherent(), "torn snapshot at {}", snap.epoch);
                            assert!(snap.epoch >= last, "epoch went backwards");
                            last = snap.epoch;
                        }
                        last
                    })
                })
                .collect();
            writer.join().expect("writer");
            for r in readers {
                r.join().expect("reader");
            }
        });
        assert_eq!(cell.epoch(), 500);
    }

    #[test]
    fn old_snapshot_outlives_overwrite_via_arc() {
        let cell = SnapshotCell::new(2);
        cell.publish_with(|e, _| snap_with_epoch(e));
        let held = cell.read();
        assert_eq!(held.epoch, 1);
        // Publish enough times to overwrite epoch 1's ring slot.
        for _ in 0..4 {
            cell.publish_with(|e, _| snap_with_epoch(e));
        }
        // The held clone still reads epoch 1: reclamation is by Arc drop,
        // not by slot reuse.
        assert_eq!(held.epoch, 1);
        assert!(held.is_coherent());
        assert_eq!(cell.read().epoch, 5);
    }

    #[test]
    fn wait_past_epoch_times_out_wakes_and_short_circuits() {
        let cell = SnapshotCell::new(2);
        // Timeout path: nothing published, bounded wait returns epoch 0.
        let e = cell.wait_past_epoch(0, std::time::Duration::from_millis(5));
        assert_eq!(e, 0);
        // Short-circuit path: the epoch is already past the watermark.
        cell.publish_with(|e, _| snap_with_epoch(e));
        assert_eq!(
            cell.wait_past_epoch(0, std::time::Duration::from_secs(30)),
            1
        );
        // Wake path: a publisher on another thread releases the waiter
        // well before the (generous) timeout.
        std::thread::scope(|scope| {
            let waiter =
                scope.spawn(|| cell.wait_past_epoch(1, std::time::Duration::from_secs(30)));
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                cell.publish_with(|e, _| snap_with_epoch(e));
            });
            assert_eq!(waiter.join().expect("waiter"), 2);
        });
    }

    #[test]
    fn arrivals_at_stop_spans_routes() {
        let mut snap = QuerySnapshot::stamped(3, 100.0);
        let entry = |bus: u64| ArrivalEntry {
            bus: BusKey(bus),
            eta_s: 120.0,
            from_fix_time_s: 90.0,
        };
        snap.arrivals
            .insert((RouteId(0), StopId(1)), vec![entry(1)]);
        snap.arrivals
            .insert((RouteId(2), StopId(1)), vec![entry(2), entry(3)]);
        snap.arrivals
            .insert((RouteId(0), StopId(0)), vec![entry(4)]);
        let at: Vec<_> = snap.arrivals_at_stop(StopId(1)).collect();
        assert_eq!(at.len(), 2);
        assert_eq!(at[0].0, RouteId(0));
        assert_eq!(at[1].0, RouteId(2));
        assert_eq!(at[1].1.len(), 2);
        assert_eq!(
            snap.arrivals(RouteId(0), StopId(0)).map(<[_]>::len),
            Some(1)
        );
        assert!(snap.arrivals(RouteId(9), StopId(0)).is_none());
    }
}
