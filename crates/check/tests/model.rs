//! Model tests for WiLocator's real concurrency protocols.
//!
//! Compiled only under `RUSTFLAGS='--cfg wilocator_check'`: that cfg
//! switches `wilocator-core`'s and `wilocator-obs`'s `crate::sync`
//! façades from `std` to the virtual primitives in
//! [`wilocator_check::model`], so these tests exhaustively explore the
//! *shipping* `SnapshotCell`, publish gate and counter code — not a
//! hand-copied model of it. Each test asserts its protocol invariant in
//! every schedule up to the preemption bound and reports how many
//! schedules that took; the counts are cited next to the memory-ordering
//! choices they pin in `crates/core/src/snapshot.rs` and
//! `crates/obs/src/counter.rs`.
//!
//! Run: `RUSTFLAGS='--cfg wilocator_check' cargo test -p wilocator-check --test model`
//! Replay a printed failure: prepend `WILOCATOR_CHECK_SEED=<n>`.
#![cfg(wilocator_check)]

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Mutex as StdMutex;

use wilocator_check::{explore_report, explore_with, model, Config};
use wilocator_core::{QuerySnapshot, SnapshotCell};
use wilocator_obs::Counter;

// `std::sync::Arc` on purpose: snapshot reclamation is plain reference
// counting and Arc ops are not scheduling points (see check's sync docs).
use std::sync::Arc;

/// Epoch monotonicity and never-torn reads across ring wraparound: a
/// publisher laps the 2-slot ring (3 publishes) while a reader reads
/// twice. Every schedule must give the reader coherent snapshots with
/// non-decreasing epochs — this is the schedule family that forced the
/// lap-retry loop in `SnapshotCell::read` and pins its `Acquire` epoch
/// load plus the publisher's `Release` epoch store.
#[test]
fn snapshot_reads_are_monotone_and_coherent() {
    let report = explore_with(Config::default(), || {
        let cell = Arc::new(SnapshotCell::new(2));
        let publisher = {
            let cell = cell.clone();
            model::thread::spawn(move || {
                for _ in 0..3 {
                    cell.publish_with(|epoch, prev| {
                        assert_eq!(
                            prev.epoch,
                            epoch - 1,
                            "gate-serialized build saw a stale prev"
                        );
                        QuerySnapshot::stamped(epoch, epoch as f64)
                    });
                }
            })
        };
        let mut last = 0u64;
        for _ in 0..2 {
            let snap = cell.read();
            assert!(snap.is_coherent(), "torn snapshot at epoch {}", snap.epoch);
            assert!(
                snap.epoch >= last,
                "per-reader epoch regressed: {} after {last}",
                snap.epoch
            );
            last = snap.epoch;
        }
        publisher.join().expect("publisher");
        assert_eq!(cell.epoch(), 3);
    });
    eprintln!(
        "[model] snapshot_reads_are_monotone_and_coherent: {} schedules, {} events",
        report.schedules, report.events
    );
    assert!(
        report.schedules >= 100,
        "wraparound protocol explored too few schedules ({}) to mean anything",
        report.schedules
    );
}

/// The schedule the retry loop exists for, demonstrated on a faithful
/// copy of the *pre-retry* `read()`: load epoch, then clone the slot
/// with no lap check. A publisher that laps the ring between those two
/// instructions hands the reader a newer snapshot than its loaded
/// epoch, and the reader's next read can return an older one — the
/// checker must find that regression.
#[test]
fn lapped_reader_would_regress_without_retry() {
    struct NoRetryCell {
        epoch: model::AtomicU64,
        slots: Vec<model::RwLock<Arc<QuerySnapshot>>>,
        gate: model::Mutex<()>,
    }
    impl NoRetryCell {
        fn new() -> Self {
            let empty = Arc::new(QuerySnapshot::empty());
            NoRetryCell {
                epoch: model::AtomicU64::new(0),
                slots: (0..2).map(|_| model::RwLock::new(empty.clone())).collect(),
                gate: model::Mutex::new(()),
            }
        }
        fn read(&self) -> Arc<QuerySnapshot> {
            let idx = (self.epoch.load(Ordering::Acquire) as usize) % self.slots.len();
            Arc::clone(&self.slots[idx].read().expect("slot"))
        }
        fn publish(&self) {
            let _gate = self.gate.lock().expect("gate");
            let next = self.epoch.load(Ordering::Relaxed) + 1;
            let idx = (next as usize) % self.slots.len();
            *self.slots[idx].write().expect("slot") =
                Arc::new(QuerySnapshot::stamped(next, next as f64));
            self.epoch.store(next, Ordering::Release);
        }
    }
    let report = explore_report(Config::default(), || {
        let cell = Arc::new(NoRetryCell::new());
        let publisher = {
            let cell = cell.clone();
            model::thread::spawn(move || {
                for _ in 0..3 {
                    cell.publish();
                }
            })
        };
        let first = cell.read();
        let second = cell.read();
        assert!(
            second.epoch >= first.epoch,
            "per-reader epoch regressed: {} after {}",
            second.epoch,
            first.epoch
        );
        publisher.join().expect("publisher");
    });
    let failure = report
        .failure
        .expect("lapped reader must regress without the retry");
    assert!(
        failure.message.contains("regressed"),
        "unexpected failure: {}",
        failure.message
    );
    eprintln!(
        "[model] lapped_reader_would_regress_without_retry: regression at seed {} of {}",
        failure.seed, report.schedules
    );
}

/// Publisher mutual exclusion and exact epoch accounting: two publishers
/// race on the gate; a virtual occupancy flag inside the builder proves
/// no schedule ever runs two builders at once, and each builder sees
/// exactly the previous epoch. This test pins the `Relaxed` epoch load
/// in `publish_with` — the gate's lock edge alone orders publisher
/// against publisher in every explored schedule.
#[test]
fn publish_gate_serializes_and_epoch_is_exact() {
    let report = explore_with(Config::default(), || {
        let cell = Arc::new(SnapshotCell::new(2));
        let in_builder = Arc::new(model::AtomicU64::new(0));
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let cell = cell.clone();
                let flag = in_builder.clone();
                model::thread::spawn(move || {
                    cell.publish_with(|epoch, prev| {
                        assert_eq!(
                            flag.fetch_add(1, Ordering::Relaxed),
                            0,
                            "two publishers inside the gate"
                        );
                        assert_eq!(prev.epoch, epoch - 1, "builder saw a stale prev");
                        flag.fetch_sub(1, Ordering::Relaxed);
                        QuerySnapshot::stamped(epoch, epoch as f64)
                    });
                })
            })
            .collect();
        for p in publishers {
            p.join().expect("publisher");
        }
        assert_eq!(cell.epoch(), 2, "publishes lost or double-counted");
    });
    eprintln!(
        "[model] publish_gate_serializes_and_epoch_is_exact: {} schedules, {} events",
        report.schedules, report.events
    );
    // Few schedules is the point: once one publisher owns the gate the
    // other is disabled, so the only branching is gate order, join
    // interleaving and epoch-load value choices.
    assert!(report.schedules >= 10, "explored {}", report.schedules);
}

/// The PR-6 read-path contract, as an executable statement: a reader
/// completes `SnapshotCell::read` while the server's ingest write lock
/// is held (and never released until the reader is done). If any
/// schedule had the reader touch that lock, the checker would report
/// the deadlock; all schedules completing proves the read path is
/// ingest-lock-free.
#[test]
fn readers_never_block_on_ingest_locks() {
    let report = explore_with(Config::default(), || {
        // Stand-in for the `server.rs` ingest lock, same primitive type.
        let ingest_lock = Arc::new(model::RwLock::new(0u64));
        let cell = Arc::new(SnapshotCell::new(2));
        cell.publish_with(|epoch, _| QuerySnapshot::stamped(epoch, 0.0));
        let reader = {
            let cell = cell.clone();
            model::thread::spawn(move || {
                let snap = cell.read();
                assert_eq!(snap.epoch, 1);
                assert!(snap.is_coherent());
            })
        };
        // Take the ingest write lock while the reader is in flight, and
        // join while still holding it: the reader can only finish if its
        // path never touches the ingest lock.
        let ingest_guard = ingest_lock.write().expect("ingest writer");
        reader.join().expect("reader");
        drop(ingest_guard);
    });
    eprintln!(
        "[model] readers_never_block_on_ingest_locks: {} schedules, {} events",
        report.schedules, report.events
    );
}

/// `wilocator-obs` counters under the real all-`Relaxed` code: lone
/// counters stay exact (RMW atomicity) and monotone per reader
/// (same-location coherence) in every schedule.
#[test]
fn relaxed_counter_is_exact_and_monotone() {
    let report = explore_with(Config::default(), || {
        let hits = Arc::new(Counter::new());
        let incs: Vec<_> = (0..2)
            .map(|_| {
                let hits = hits.clone();
                model::thread::spawn(move || hits.inc())
            })
            .collect();
        let watcher = {
            let hits = hits.clone();
            model::thread::spawn(move || {
                let first = hits.get();
                let second = hits.get();
                assert!(second >= first, "counter regressed: {second} after {first}");
            })
        };
        for t in incs {
            t.join().expect("incrementer");
        }
        watcher.join().expect("watcher");
        assert_eq!(hits.get(), 2, "relaxed RMW lost an increment");
    });
    eprintln!(
        "[model] relaxed_counter_is_exact_and_monotone: {} schedules, {} events",
        report.schedules, report.events
    );
}

/// The documented tearing bound of relaxed metrics, verified in both
/// directions: a scrape CAN observe a later counter's increment without
/// an earlier one (the checker must reach that schedule — it is the
/// cross-counter reordering `Relaxed` gives up), and totals are still
/// exact once writers are joined.
#[test]
fn relaxed_metrics_tear_within_documented_bound() {
    let seen: Arc<StdMutex<HashSet<(u64, u64)>>> = Arc::new(StdMutex::new(HashSet::new()));
    let seen2 = seen.clone();
    let report = explore_with(Config::default(), move || {
        let ingested = Arc::new(Counter::new());
        let published = Arc::new(Counter::new());
        let writer = {
            let (a, b) = (ingested.clone(), published.clone());
            model::thread::spawn(move || {
                a.inc(); // writers bump "ingested" strictly before "published"
                b.inc();
            })
        };
        let scraped_published = published.get();
        let scraped_ingested = ingested.get();
        seen2
            .lock()
            .expect("observation set")
            .insert((scraped_published, scraped_ingested));
        writer.join().expect("writer");
        assert_eq!(ingested.get(), 1);
        assert_eq!(published.get(), 1);
    });
    let seen = seen.lock().expect("observation set");
    assert!(
        seen.contains(&(1, 0)),
        "checker never reached the documented tear (published=1, ingested=0); observed {seen:?}"
    );
    assert!(
        seen.contains(&(0, 0)) && seen.contains(&(1, 1)),
        "missing trivial schedules: {seen:?}"
    );
    eprintln!(
        "[model] relaxed_metrics_tear_within_documented_bound: {} schedules, observations {:?}",
        report.schedules, *seen
    );
}

/// A faithful copy of `publish_with` with the seeded bug from ISSUE 8 —
/// the epoch is bumped *before* the slot write — plus the pre-retry
/// reader. The checker must catch the torn window, and replaying the
/// printed seed must reproduce the identical schedule table.
#[test]
fn buggy_publish_order_is_caught_and_replays() {
    struct BuggyCell {
        epoch: model::AtomicU64,
        slots: Vec<model::RwLock<Arc<QuerySnapshot>>>,
        gate: model::Mutex<()>,
    }
    impl BuggyCell {
        fn new() -> Self {
            let empty = Arc::new(QuerySnapshot::empty());
            BuggyCell {
                epoch: model::AtomicU64::new(0),
                slots: (0..2).map(|_| model::RwLock::new(empty.clone())).collect(),
                gate: model::Mutex::new(()),
            }
        }
        fn publish(&self) {
            let _gate = self.gate.lock().expect("gate");
            let next = self.epoch.load(Ordering::Relaxed) + 1;
            // BUG (deliberate): the epoch advertises the snapshot before
            // the slot holds it.
            self.epoch.store(next, Ordering::Release);
            let idx = (next as usize) % self.slots.len();
            *self.slots[idx].write().expect("slot") =
                Arc::new(QuerySnapshot::stamped(next, next as f64));
        }
    }
    let body = || {
        let cell = Arc::new(BuggyCell::new());
        let publisher = {
            let cell = cell.clone();
            model::thread::spawn(move || cell.publish())
        };
        let advertised = cell.epoch.load(Ordering::Acquire);
        let idx = (advertised as usize) % cell.slots.len();
        let snap = Arc::clone(&cell.slots[idx].read().expect("slot"));
        assert!(
            snap.epoch >= advertised,
            "slot holds epoch {} but the cell advertised {advertised}",
            snap.epoch
        );
        publisher.join().expect("publisher");
    };
    let first = explore_report(Config::default(), body);
    let failure = first
        .failure
        .expect("epoch-before-slot-write must be caught");
    assert!(
        failure.message.contains("advertised"),
        "{}",
        failure.message
    );
    assert!(
        failure.table.contains("store 1"),
        "table shows the early epoch store"
    );

    // Deterministic replay from the printed seed: drive the replay-seed
    // path explore_report wires to WILOCATOR_CHECK_SEED.
    let replay = explore_report(
        Config {
            replay_seed: Some(failure.seed),
            ..Config::default()
        },
        body,
    );
    let refound = replay.failure.expect("replay must reproduce the failure");
    assert_eq!(refound.seed, failure.seed, "replay diverged in seed");
    assert_eq!(refound.table, failure.table, "replay diverged in schedule");
    eprintln!(
        "[model] buggy_publish_order_is_caught_and_replays: seed {} of {} schedules",
        failure.seed, first.schedules
    );
}
