//! Virtual synchronization primitives.
//!
//! Drop-in stand-ins for `std::sync::{Mutex, RwLock, Condvar}` and the
//! `AtomicU64`/`AtomicUsize`/`AtomicI64` cells, with the same method
//! signatures the production code uses (including `LockResult` returns,
//! so [`crate::sync::unpoisoned`] works unchanged). Inside an
//! [`explore`](crate::explore) closure every operation traps into the
//! execution's scheduler; outside one, each type falls back to plain
//! `std` behaviour, so code compiled against the model still runs
//! normally in unit tests and helper threads.
//!
//! Data storage piggybacks on real `std` locks: the virtual protocol
//! serializes ownership first, so the inner `std` lock is uncontended by
//! construction and exists only to hold the `T` safely (the workspace
//! forbids `unsafe`). Model objects are tied to the execution that
//! first observes them — create them *inside* the explore closure;
//! cross-execution reuse panics with a pointed message.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::sync::{Arc, LockResult, OnceLock};

use crate::sched::{Aborted, Exec, ObjKind, Op, Tid};
use crate::sync::unpoisoned;

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

#[derive(Clone)]
pub(crate) struct Ctx {
    exec: Arc<Exec>,
    tid: Tid,
}

fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Entry point for every model OS thread (the explore root and each
/// [`thread::spawn`]): installs the scheduler context, rendezvouses for
/// the start event, and converts panics into execution failures (or
/// quiet exits for [`Aborted`] unwinds).
pub(crate) fn runner<F: FnOnce()>(exec: Arc<Exec>, tid: Tid, f: F) {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            exec: exec.clone(),
            tid,
        })
    });
    // `begin` must sit inside the unwind guard: if the execution aborts
    // before this thread's start event is granted, the rendezvous exits
    // by an [`Aborted`] panic and `finish` below must still run, or the
    // explorer's drain loop waits on a thread that can never finish.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.begin(tid);
        f()
    }));
    CTX.with(|c| *c.borrow_mut() = None);
    match result {
        Ok(()) => exec.finish(tid),
        Err(payload) => {
            if payload.downcast_ref::<Aborted>().is_some() {
                exec.finish(tid);
            } else {
                exec.fail(tid, panic_message(payload.as_ref()));
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Lazily binds a model object to (execution serial, object id) on first
/// model-context access. `const`-constructible so `Counter::new()` et
/// al. stay `const fn`.
#[derive(Debug, Default)]
struct ModelId {
    cell: OnceLock<(u64, usize)>,
}

impl ModelId {
    const fn new() -> Self {
        ModelId {
            cell: OnceLock::new(),
        }
    }

    fn bind(&self, kind: ObjKind, init: u64) -> Option<(Ctx, usize)> {
        let c = ctx()?;
        let (serial, id) = *self
            .cell
            .get_or_init(|| (c.exec.serial, c.exec.alloc_obj(kind, init)));
        assert!(
            serial == c.exec.serial,
            "model sync object reused across executions — create it inside the explore closure"
        );
        Some((c, id))
    }
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

macro_rules! model_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$doc])*
        pub struct $name {
            id: ModelId,
            init: $prim,
            /// Backs the cell outside model executions.
            fallback: $std,
        }

        impl $name {
            /// A cell holding `v` (usable in `const` contexts, like the
            /// `std` type).
            pub const fn new(v: $prim) -> Self {
                $name {
                    id: ModelId::new(),
                    init: v,
                    fallback: <$std>::new(v),
                }
            }

            fn model(&self) -> Option<(Ctx, usize)> {
                self.id.bind(ObjKind::Atomic, self.init as u64)
            }

            /// Loads the value; in a model run this is a scheduling
            /// point and may observe any coherence-allowed store.
            pub fn load(&self, ord: Ordering) -> $prim {
                match self.model() {
                    Some((c, id)) => c.exec.step(c.tid, Op::Load { obj: id, ord }) as $prim,
                    None => self.fallback.load(ord),
                }
            }

            /// Stores `v`.
            pub fn store(&self, v: $prim, ord: Ordering) {
                match self.model() {
                    Some((c, id)) => {
                        c.exec.step(
                            c.tid,
                            Op::Store {
                                obj: id,
                                ord,
                                val: v as u64,
                            },
                        );
                    }
                    None => self.fallback.store(v, ord),
                }
            }

            /// Adds `v`, returning the previous value. RMWs always read
            /// the newest store.
            pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                match self.model() {
                    Some((c, id)) => c.exec.step(
                        c.tid,
                        Op::Rmw {
                            obj: id,
                            ord,
                            add: v as u64,
                        },
                    ) as $prim,
                    None => self.fallback.fetch_add(v, ord),
                }
            }

            /// Subtracts `v`, returning the previous value.
            pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                match self.model() {
                    Some((c, id)) => c.exec.step(
                        c.tid,
                        Op::Rmw {
                            obj: id,
                            ord,
                            add: (v as u64).wrapping_neg(),
                        },
                    ) as $prim,
                    None => self.fallback.fetch_sub(v, ord),
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(0)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // Reading the value here would be a scheduling point;
                // keep Debug inert.
                f.write_str(concat!(stringify!($name), " { .. }"))
            }
        }
    };
}

model_atomic!(
    /// Virtual `AtomicU64`.
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);
model_atomic!(
    /// Virtual `AtomicUsize`.
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);
model_atomic!(
    /// Virtual `AtomicI64` (modeled on the two's-complement u64 image).
    AtomicI64,
    std::sync::atomic::AtomicI64,
    i64
);

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// Virtual mutex; same shape as `std::sync::Mutex` for the subset the
/// workspace uses.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    id: ModelId,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex around `t`.
    pub const fn new(t: T) -> Self {
        Mutex {
            id: ModelId::new(),
            inner: std::sync::Mutex::new(t),
        }
    }

    /// Locks (a scheduling point in model runs; blocking is modeled, so
    /// lock-order deadlocks are *found*, not hit). Never actually
    /// returns `Err`: the model swallows poison like the production
    /// `unpoisoned` helpers do.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let model = self.id.bind(ObjKind::Mutex, 0);
        if let Some((c, id)) = &model {
            c.exec.step(c.tid, Op::Lock { obj: *id });
        }
        let inner = unpoisoned(self.inner.lock());
        Ok(MutexGuard {
            lock: self,
            inner: Some(inner),
            model,
        })
    }

    /// Whether a holder panicked (delegates to the inner lock).
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

/// Guard for [`Mutex`]; releasing is a scheduling point.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(Ctx, usize)>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the inner lock")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the inner lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the inner std lock before the virtual unlock so the
        // next virtual owner finds it free.
        drop(self.inner.take());
        if let Some((c, id)) = self.model.take() {
            c.exec.step(c.tid, Op::Unlock { obj: id });
        }
    }
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ctx(T{})", self.tid)
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// Virtual reader–writer lock.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    id: ModelId,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// An rwlock around `t`.
    pub const fn new(t: T) -> Self {
        RwLock {
            id: ModelId::new(),
            inner: std::sync::RwLock::new(t),
        }
    }

    /// Takes a shared lock (scheduling point; blocks — virtually — while
    /// a writer holds it).
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let model = self.id.bind(ObjKind::Rw, 0);
        if let Some((c, id)) = &model {
            c.exec.step(c.tid, Op::ReadLock { obj: *id });
        }
        let inner = unpoisoned(self.inner.read());
        Ok(RwLockReadGuard {
            inner: Some(inner),
            model,
        })
    }

    /// Takes the exclusive lock (scheduling point; virtually blocks
    /// while readers or a writer hold it).
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let model = self.id.bind(ObjKind::Rw, 0);
        if let Some((c, id)) = &model {
            c.exec.step(c.tid, Op::WriteLock { obj: *id });
        }
        let inner = unpoisoned(self.inner.write());
        Ok(RwLockWriteGuard {
            inner: Some(inner),
            model,
        })
    }

    /// Whether a writer panicked (delegates to the inner lock).
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

/// Shared guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    model: Option<(Ctx, usize)>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the inner lock")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((c, id)) = self.model.take() {
            c.exec.step(c.tid, Op::ReadUnlock { obj: id });
        }
    }
}

/// Exclusive guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    model: Option<(Ctx, usize)>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the inner lock")
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the inner lock")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((c, id)) = self.model.take() {
            c.exec.step(c.tid, Op::WriteUnlock { obj: id });
        }
    }
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

/// Virtual condition variable. No spurious wakeups are modeled (a
/// documented coverage limit — wait loops are still the required idiom
/// because notify choice is explored).
#[derive(Debug, Default)]
pub struct Condvar {
    id: ModelId,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A fresh condvar.
    pub const fn new() -> Self {
        Condvar {
            id: ModelId::new(),
            inner: std::sync::Condvar::new(),
        }
    }

    /// Releases `guard`'s mutex, parks until notified, reacquires.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match (guard.model.take(), self.id.bind(ObjKind::Cond, 0)) {
            (Some((c, mid)), Some((_, cid))) => {
                let lock = guard.lock;
                drop(guard.inner.take());
                drop(guard);
                c.exec.step(
                    c.tid,
                    Op::CondWait {
                        cond: cid,
                        lock: mid,
                    },
                );
                let inner = unpoisoned(lock.inner.lock());
                Ok(MutexGuard {
                    lock,
                    inner: Some(inner),
                    model: Some((c, mid)),
                })
            }
            (model, _) => {
                // Outside a model run: delegate to the std condvar.
                guard.model = model;
                let lock = guard.lock;
                let std_guard = guard.inner.take().expect("guard holds the inner lock");
                drop(guard);
                let inner = unpoisoned(self.inner.wait(std_guard));
                Ok(MutexGuard {
                    lock,
                    inner: Some(inner),
                    model: None,
                })
            }
        }
    }

    /// Releases `guard`'s mutex and parks until notified or until `dur`
    /// elapses, then reacquires.
    ///
    /// Model runs have no clock, so the bounded wait is modeled as
    /// timing out *immediately*: the mutex is released and reacquired
    /// (both scheduling points) and `timed_out()` reports `true`. That
    /// is the sound over-approximation — a timeout may always fire
    /// before any notify — and it keeps bounded waits from registering
    /// as deadlocks. Callers must treat `wait_timeout` purely as a
    /// pacing primitive and re-check their predicate in a loop.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        match (guard.model.take(), self.id.bind(ObjKind::Cond, 0)) {
            (Some((c, mid)), Some(_)) => {
                let lock = guard.lock;
                // Release the inner std lock before the virtual unlock
                // so the next virtual owner finds it free (same order
                // as MutexGuard::drop).
                drop(guard.inner.take());
                drop(guard);
                c.exec.step(c.tid, Op::Unlock { obj: mid });
                c.exec.step(c.tid, Op::Lock { obj: mid });
                let inner = unpoisoned(lock.inner.lock());
                Ok((
                    MutexGuard {
                        lock,
                        inner: Some(inner),
                        model: Some((c, mid)),
                    },
                    WaitTimeoutResult { timed_out: true },
                ))
            }
            (model, _) => {
                // Outside a model run: delegate to the std condvar.
                guard.model = model;
                let lock = guard.lock;
                let std_guard = guard.inner.take().expect("guard holds the inner lock");
                drop(guard);
                let (inner, res) = unpoisoned(self.inner.wait_timeout(std_guard, dur));
                Ok((
                    MutexGuard {
                        lock,
                        inner: Some(inner),
                        model: None,
                    },
                    WaitTimeoutResult {
                        timed_out: res.timed_out(),
                    },
                ))
            }
        }
    }

    /// Wakes one waiter (which one is a model choice point).
    pub fn notify_one(&self) {
        match self.id.bind(ObjKind::Cond, 0) {
            Some((c, id)) => {
                c.exec.step(c.tid, Op::NotifyOne { cond: id });
            }
            None => self.inner.notify_one(),
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        match self.id.bind(ObjKind::Cond, 0) {
            Some((c, id)) => {
                c.exec.step(c.tid, Op::NotifyAll { cond: id });
            }
            None => self.inner.notify_all(),
        }
    }
}

/// Result of a [`Condvar::wait_timeout`]: whether the wait ended by
/// timeout rather than a notify. Mirrors `std::sync::WaitTimeoutResult`
/// (which has no public constructor, hence the local type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` when the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

/// Model-aware threads: inside an explore closure, spawn registers a
/// model thread whose every sync op is scheduled; outside, it is a plain
/// `std::thread::spawn`.
pub mod thread {
    use super::*;

    /// Handle to a spawned model thread.
    pub struct JoinHandle<T> {
        model: Option<Tid>,
        slot: Arc<std::sync::Mutex<Option<T>>>,
        real: Option<std::thread::JoinHandle<()>>,
    }

    /// Spawns `f`; inside a model run the child participates in
    /// exhaustive scheduling (its start is ordered after the spawn).
    pub fn spawn<T, F>(f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slot = Arc::new(std::sync::Mutex::new(None));
        let slot2 = slot.clone();
        match ctx() {
            Some(c) => {
                let tid = c.exec.register_child(c.tid);
                let exec = c.exec.clone();
                let real = std::thread::spawn(move || {
                    runner(exec, tid, move || {
                        let v = f();
                        *unpoisoned(slot2.lock()) = Some(v);
                    })
                });
                JoinHandle {
                    model: Some(tid),
                    slot,
                    real: Some(real),
                }
            }
            None => {
                let real = std::thread::spawn(move || {
                    *unpoisoned(slot2.lock()) = Some(f());
                });
                JoinHandle {
                    model: None,
                    slot,
                    real: Some(real),
                }
            }
        }
    }

    impl<T> JoinHandle<T> {
        /// Joins the thread; a scheduling point that is enabled only
        /// once the target finished (and a happens-before edge from its
        /// last event).
        pub fn join(mut self) -> std::thread::Result<T> {
            if let (Some(target), Some(c)) = (self.model, ctx()) {
                c.exec.step(c.tid, Op::Join { thread: target });
            }
            let real = self.real.take().expect("join consumes the handle");
            real.join()?;
            match unpoisoned(self.slot.lock()).take() {
                Some(v) => Ok(v),
                None => Err(Box::new("model thread finished without a result")),
            }
        }
    }
}
