//! The cooperative scheduler and interleaving explorer.
//!
//! Every virtual synchronization primitive in [`crate::model`] traps its
//! operations into an [`Exec`]: the calling OS thread parks until the
//! explorer grants it the run token, applies its operation to the
//! centralized protocol state under one lock, and returns to user code.
//! Exactly one model thread runs between scheduling points, so an
//! execution is fully described by the sequence of choices the explorer
//! makes — which is what makes exhaustive enumeration and seed replay
//! possible with plain OS threads and no unsafe code.
//!
//! # Exploration algorithm
//!
//! The explorer performs an iterative-deepening-free DFS over a *choice
//! tree*. Each scheduling point appends a [`Node::Sched`] listing the
//! runnable-thread options in exploration order; each nondeterministic
//! value (a stale atomic load candidate, a condvar wakeup pick) appends a
//! [`Node::Value`]. One execution = replay the recorded prefix, then
//! take the first (default) option at every fresh node. After the run,
//! the deepest node with an unexplored option advances and everything
//! below it is discarded. Exploration is bounded two ways:
//!
//! * **Preemption bound** ([`Config::preemption_bound`]): switching away
//!   from a thread that is still runnable counts as a preemption; once
//!   the budget is spent, the running thread keeps running until it
//!   blocks or finishes. Empirically (CHESS) almost all concurrency bugs
//!   need ≤ 2 preemptions.
//! * **Sleep sets** (DPOR-lite): once a thread's op has been fully
//!   explored from a state, sibling branches put it to sleep until a
//!   *dependent* op (same object, at least one writer — or anything by a
//!   thread someone sleeps on joining) executes, pruning commuting
//!   interleavings without losing distinct outcomes.
//!
//! # Weak-memory-lite value oracle
//!
//! Atomic loads are not forced to see the newest store. Each virtual
//! atomic keeps its full modification order with per-store vector
//! clocks; a `Relaxed`/`Acquire` load may read any store newer than both
//! the thread's happens-before floor and its own coherence floor (newest
//! [`Config::value_window`] candidates branch the search, newest first).
//! `Acquire` loads join the writer's clock only when the store was
//! `Release` or stronger, so missing release/acquire pairs show up as
//! genuinely stale reads. RMWs always read the newest store (atomicity),
//! and `SeqCst` is approximated as read-newest — a single total order is
//! assumed rather than modeled, which is the documented coverage limit
//! (DESIGN.md §14).

use std::sync::atomic::Ordering;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use crate::sync::unpoisoned;

/// Model-thread identifier: index into the execution's thread table.
pub(crate) type Tid = usize;

/// A vector clock, indexed by [`Tid`] and grown lazily.
pub(crate) type VClock = Vec<u64>;

fn vjoin(a: &mut VClock, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (i, v) in b.iter().enumerate() {
        if *v > a[i] {
            a[i] = *v;
        }
    }
}

fn vget(a: &[u64], i: usize) -> u64 {
    a.get(i).copied().unwrap_or(0)
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Exploration limits and knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum number of preemptive context switches per execution
    /// (switches away from a still-runnable thread). Forced switches —
    /// the running thread blocked or finished — are free.
    pub preemption_bound: usize,
    /// Hard cap on explored schedules; exceeding it is reported as a
    /// failure so a state-space blowup can't hang CI silently.
    pub max_schedules: usize,
    /// Hard cap on events in one execution (runaway-loop backstop).
    pub max_steps: usize,
    /// How many of the newest visible stores a relaxed/acquire load may
    /// choose between. 1 disables stale reads entirely.
    pub value_window: usize,
    /// Stop at DFS execution `n` and print its schedule table — the
    /// programmatic form of the `WILOCATOR_CHECK_SEED` env var (the env
    /// var wins only when this is `None`, so tests can replay without
    /// racing on process-global state).
    pub replay_seed: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 2,
            max_schedules: 1_000_000,
            max_steps: 20_000,
            value_window: 3,
            replay_seed: None,
        }
    }
}

/// What one `explore` call did: schedule and event counts plus the
/// failure, if any.
#[derive(Debug, Clone)]
pub struct Report {
    /// Executions explored (including pruned ones).
    pub schedules: usize,
    /// Total events across all executions.
    pub events: usize,
    /// The first failing schedule, if the model found one.
    pub failure: Option<Failure>,
}

/// A failing schedule, ready to print and replay.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Deterministic index of the failing execution in DFS order; rerun
    /// with `WILOCATOR_CHECK_SEED=<seed>` to replay exactly this
    /// schedule.
    pub seed: usize,
    /// The panic or deadlock description.
    pub message: String,
    /// The failing schedule rendered as a step/thread/event table.
    pub table: String,
}

/// Panic payload used to unwind model threads when an execution is
/// abandoned (failure elsewhere, or a redundant branch pruned). The
/// runner treats it as a quiet exit, and the panic hook suppresses it.
pub(crate) struct Aborted;

/// What a virtual op touches, for dependence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ObjRef {
    /// A virtual sync object by id.
    Obj(usize),
    /// A thread's lifecycle (join dependence).
    Thread(Tid),
}

/// Kinds of virtual sync objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ObjKind {
    Atomic,
    Mutex,
    Rw,
    Cond,
}

/// One trapped synchronization operation.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// First event of a spawned thread.
    Start,
    Load {
        obj: usize,
        ord: Ordering,
    },
    Store {
        obj: usize,
        ord: Ordering,
        val: u64,
    },
    /// `fetch_add` (all RMWs reduce to wrapping add on the u64 image).
    Rmw {
        obj: usize,
        ord: Ordering,
        add: u64,
    },
    Lock {
        obj: usize,
    },
    Unlock {
        obj: usize,
    },
    ReadLock {
        obj: usize,
    },
    ReadUnlock {
        obj: usize,
    },
    WriteLock {
        obj: usize,
    },
    WriteUnlock {
        obj: usize,
    },
    /// Atomically release `lock` and park on `cond`.
    CondWait {
        cond: usize,
        lock: usize,
    },
    NotifyOne {
        cond: usize,
    },
    NotifyAll {
        cond: usize,
    },
    Join {
        thread: Tid,
    },
}

impl Op {
    /// The (object, is-write) footprint used for sleep-set dependence.
    /// Read-class pairs on the same object commute; anything else on the
    /// same object conflicts.
    fn touches(&self) -> Vec<(ObjRef, bool)> {
        match self {
            Op::Start => Vec::new(),
            Op::Load { obj, .. } => vec![(ObjRef::Obj(*obj), false)],
            Op::Store { obj, .. } | Op::Rmw { obj, .. } => vec![(ObjRef::Obj(*obj), true)],
            Op::Lock { obj }
            | Op::Unlock { obj }
            | Op::WriteLock { obj }
            | Op::WriteUnlock { obj } => vec![(ObjRef::Obj(*obj), true)],
            Op::ReadLock { obj } | Op::ReadUnlock { obj } => vec![(ObjRef::Obj(*obj), false)],
            Op::CondWait { cond, lock } => {
                vec![(ObjRef::Obj(*cond), true), (ObjRef::Obj(*lock), true)]
            }
            Op::NotifyOne { cond } | Op::NotifyAll { cond } => vec![(ObjRef::Obj(*cond), true)],
            Op::Join { thread } => vec![(ObjRef::Thread(*thread), false)],
        }
    }

    /// Whether the op can run right now (blocking ops gate on object
    /// state; everything else is always enabled).
    fn enabled(&self, st: &ExecState) -> bool {
        match self {
            Op::Lock { obj } => matches!(&st.objs[*obj], ObjState::Mutex { owner: None, .. }),
            Op::WriteLock { obj } => {
                matches!(&st.objs[*obj], ObjState::Rw { writer: None, readers, .. } if readers.is_empty())
            }
            Op::ReadLock { obj } => matches!(&st.objs[*obj], ObjState::Rw { writer: None, .. }),
            Op::Join { thread } => matches!(st.threads[*thread].status, Status::Finished),
            _ => true,
        }
    }

    /// Human-readable label used in deadlock reports (apply() builds
    /// richer descriptions with observed values for the trace itself).
    fn label(&self) -> String {
        match self {
            Op::Start => "start".into(),
            Op::Load { obj, ord } => format!("atomic#{obj} load ({ord:?})"),
            Op::Store { obj, val, ord } => format!("atomic#{obj} store {val} ({ord:?})"),
            Op::Rmw { obj, add, ord } => format!("atomic#{obj} fetch_add {add} ({ord:?})"),
            Op::Lock { obj } => format!("mutex#{obj} lock"),
            Op::Unlock { obj } => format!("mutex#{obj} unlock"),
            Op::ReadLock { obj } => format!("rwlock#{obj} read-lock"),
            Op::ReadUnlock { obj } => format!("rwlock#{obj} read-unlock"),
            Op::WriteLock { obj } => format!("rwlock#{obj} write-lock"),
            Op::WriteUnlock { obj } => format!("rwlock#{obj} write-unlock"),
            Op::CondWait { cond, lock } => format!("cond#{cond} wait (releases mutex#{lock})"),
            Op::NotifyOne { cond } => format!("cond#{cond} notify_one"),
            Op::NotifyAll { cond } => format!("cond#{cond} notify_all"),
            Op::Join { thread } => format!("join T{thread}"),
        }
    }
}

/// One store in an atomic's modification order.
#[derive(Debug, Clone)]
struct StoreRec {
    val: u64,
    writer: Tid,
    /// The writer's own clock component at store time (happens-before
    /// test: `clock[writer] >= wtime` means this store is in the past).
    wtime: u64,
    clock: VClock,
    release: bool,
}

/// Virtual sync object state.
#[derive(Debug)]
enum ObjState {
    Atomic {
        /// Modification order; index 0 is the initial value, visible to
        /// everyone.
        stores: Vec<StoreRec>,
        /// Per-thread coherence floor: newest store index each thread
        /// has read or written (reads may never go backwards).
        floor: Vec<usize>,
    },
    Mutex {
        owner: Option<Tid>,
        /// Release clock: joined by unlockers, acquired by lockers.
        clock: VClock,
    },
    Rw {
        writer: Option<Tid>,
        readers: Vec<Tid>,
        /// Write-unlock release clock (acquired by both lock kinds).
        wclock: VClock,
        /// Read-unlock release clock (acquired by write-lockers only:
        /// `unlock_shared` synchronizes with the next `lock`, but not
        /// with other `lock_shared`s).
        rclock: VClock,
    },
    Cond {
        /// Parked waiters with the mutex each must reacquire.
        parked: Vec<(Tid, usize)>,
    },
}

#[derive(Debug, Clone)]
enum Status {
    /// Has an op queued and is parked waiting for the run token.
    Pending(Op),
    /// Holds the run token (or is executing user code between traps).
    Running,
    /// Parked on a condvar; not schedulable until notified.
    Parked,
    Finished,
}

#[derive(Debug)]
struct ThreadSt {
    status: Status,
    clock: VClock,
}

/// One scheduling-order option: a thread plus the dependence footprint
/// its pending op had when the node was created.
#[derive(Debug, Clone)]
struct SchedOpt {
    tid: Tid,
    sig: Vec<(ObjRef, bool)>,
}

/// A node in the DFS choice tree.
#[derive(Debug, Clone)]
enum Node {
    Sched {
        options: Vec<SchedOpt>,
        sleep: Vec<SchedOpt>,
        chosen: usize,
    },
    Value {
        n: usize,
        chosen: usize,
    },
}

/// One row of the execution trace.
#[derive(Debug, Clone)]
struct Event {
    tid: Tid,
    desc: String,
}

fn conflicting(a: &[(ObjRef, bool)], b: &[(ObjRef, bool)]) -> bool {
    a.iter()
        .any(|(oa, wa)| b.iter().any(|(ob, wb)| oa == ob && (*wa || *wb)))
}

struct ExecState {
    cfg: Config,
    threads: Vec<ThreadSt>,
    objs: Vec<ObjState>,
    granted: Option<Tid>,
    active: Option<Tid>,
    aborting: bool,
    pruned: bool,
    failure: Option<String>,
    trace: Vec<Event>,
    tree: Vec<Node>,
    cursor: usize,
    preemptions: usize,
    prev: Option<Tid>,
    steps: usize,
}

/// One execution's shared protocol state plus the token-passing
/// rendezvous between model threads and the explorer.
pub(crate) struct Exec {
    st: StdMutex<ExecState>,
    cv: StdCondvar,
    /// Globally unique per execution; model objects remember which
    /// execution assigned their id so cross-execution reuse is caught.
    pub(crate) serial: u64,
}

enum RunOutcome {
    Complete,
    Pruned,
    Failed(String),
}

impl Exec {
    fn new(cfg: Config, tree: Vec<Node>) -> Self {
        use std::sync::atomic::AtomicU64;
        static NEXT_SERIAL: AtomicU64 = AtomicU64::new(1);
        Exec {
            st: StdMutex::new(ExecState {
                cfg,
                threads: Vec::new(),
                objs: Vec::new(),
                granted: None,
                active: None,
                aborting: false,
                pruned: false,
                failure: None,
                trace: Vec::new(),
                tree,
                cursor: 0,
                preemptions: 0,
                prev: None,
                steps: 0,
            }),
            cv: StdCondvar::new(),
            serial: NEXT_SERIAL.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, ExecState> {
        unpoisoned(self.st.lock())
    }

    fn wait<'a>(&self, g: StdMutexGuard<'a, ExecState>) -> StdMutexGuard<'a, ExecState> {
        if std::env::var_os("WILOCATOR_CHECK_TRACE_RUNS").is_some() {
            let (g, to) = unpoisoned(self.cv.wait_timeout(g, std::time::Duration::from_secs(2)));
            if to.timed_out() {
                eprintln!(
                    "[dbg] STALL granted={:?} active={:?} aborting={} cursor={} treelen={} statuses={:?}",
                    g.granted,
                    g.active,
                    g.aborting,
                    g.cursor,
                    g.tree.len(),
                    g.threads.iter().map(|t| format!("{:?}", t.status)).collect::<Vec<_>>()
                );
            }
            return g;
        }
        unpoisoned(self.cv.wait(g))
    }

    /// Registers a new virtual sync object and returns its id. Not a
    /// scheduling point: object creation is thread-local until shared.
    pub(crate) fn alloc_obj(&self, kind: ObjKind, init: u64) -> usize {
        let mut st = self.lock();
        let id = st.objs.len();
        st.objs.push(match kind {
            ObjKind::Atomic => ObjState::Atomic {
                stores: vec![StoreRec {
                    val: init,
                    writer: 0,
                    wtime: 0,
                    clock: Vec::new(),
                    release: true,
                }],
                floor: Vec::new(),
            },
            ObjKind::Mutex => ObjState::Mutex {
                owner: None,
                clock: Vec::new(),
            },
            ObjKind::Rw => ObjState::Rw {
                writer: None,
                readers: Vec::new(),
                wclock: Vec::new(),
                rclock: Vec::new(),
            },
            ObjKind::Cond => ObjState::Cond { parked: Vec::new() },
        });
        id
    }

    fn register_root(&self) -> Tid {
        let mut st = self.lock();
        debug_assert!(st.threads.is_empty());
        st.threads.push(ThreadSt {
            status: Status::Pending(Op::Start),
            clock: vec![1],
        });
        0
    }

    /// Registers a child thread spawned by the (active) `parent`; the
    /// child starts with the parent's clock, giving the spawn edge.
    pub(crate) fn register_child(&self, parent: Tid) -> Tid {
        let mut st = self.lock();
        let tid = st.threads.len();
        let mut clock = st.threads[parent].clock.clone();
        if clock.len() <= tid {
            clock.resize(tid + 1, 0);
        }
        clock[tid] = 1;
        st.threads.push(ThreadSt {
            status: Status::Pending(Op::Start),
            clock,
        });
        tid
    }

    /// First rendezvous of a freshly spawned model thread: wait to be
    /// scheduled for the `Start` op, then return to run user code.
    pub(crate) fn begin(&self, tid: Tid) {
        let _ = self.run_step(tid, None);
    }

    /// Traps one synchronization op: queue it, park until granted, apply
    /// it, return the op's value (loads/RMWs) to the caller.
    pub(crate) fn step(&self, tid: Tid, op: Op) -> u64 {
        if std::thread::panicking() {
            // Guard drops during unwind must neither yield (the failing
            // schedule is already decided) nor double-panic; apply the
            // release directly so lock state stays consistent.
            let mut st = self.lock();
            if st.aborting {
                return 0;
            }
            let (val, desc) = apply(&mut st, tid, &op);
            st.trace.push(Event { tid, desc });
            return val;
        }
        self.run_step(tid, Some(op))
    }

    /// Shared body of [`Self::begin`] and [`Self::step`]: queue the op
    /// (if given; `begin` relies on `Start` pre-queued at registration),
    /// then loop grant → apply, staying parked across condvar waits.
    fn run_step(&self, tid: Tid, op: Option<Op>) -> u64 {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            std::panic::panic_any(Aborted);
        }
        if let Some(op) = op {
            st.steps += 1;
            if st.steps > st.cfg.max_steps {
                let msg = format!("execution exceeded max_steps={}", st.cfg.max_steps);
                st.failure.get_or_insert(msg);
                st.aborting = true;
                self.cv.notify_all();
                drop(st);
                std::panic::panic_any(Aborted);
            }
            st.threads[tid].status = Status::Pending(op);
            st.active = None;
            self.cv.notify_all();
        }
        loop {
            loop {
                if st.aborting {
                    drop(st);
                    std::panic::panic_any(Aborted);
                }
                if st.granted == Some(tid) {
                    break;
                }
                st = self.wait(st);
            }
            st.granted = None;
            st.active = Some(tid);
            let op = match std::mem::replace(&mut st.threads[tid].status, Status::Running) {
                Status::Pending(op) => op,
                other => {
                    st.threads[tid].status = other;
                    st.failure
                        .get_or_insert(format!("internal: T{tid} granted without a pending op"));
                    st.aborting = true;
                    self.cv.notify_all();
                    drop(st);
                    std::panic::panic_any(Aborted);
                }
            };
            let parked = matches!(op, Op::CondWait { .. });
            let (val, desc) = apply(&mut st, tid, &op);
            st.trace.push(Event { tid, desc });
            if parked {
                // apply() released the mutex and set us Parked; hand the
                // token back and stay here until a notify requeues us as
                // Pending(Lock) and the explorer grants the reacquire.
                st.active = None;
                self.cv.notify_all();
                continue;
            }
            return val;
        }
    }

    /// Marks `tid` finished (normal return or quiet abort unwind).
    pub(crate) fn finish(&self, tid: Tid) {
        let mut st = self.lock();
        st.threads[tid].clock[tid] += 1;
        st.threads[tid].status = Status::Finished;
        if !st.aborting {
            st.trace.push(Event {
                tid,
                desc: "finish".into(),
            });
        }
        st.active = None;
        self.cv.notify_all();
    }

    /// Records a model-thread panic as the execution's failure and
    /// aborts every other thread.
    pub(crate) fn fail(&self, tid: Tid, msg: String) {
        let mut st = self.lock();
        st.trace.push(Event {
            tid,
            desc: format!("panic: {msg}"),
        });
        st.failure.get_or_insert(msg);
        st.threads[tid].status = Status::Finished;
        st.aborting = true;
        st.active = None;
        self.cv.notify_all();
    }

    /// The explorer side: grant ops one at a time until the execution
    /// completes, deadlocks, fails, or is pruned as redundant.
    fn schedule_loop(&self) -> RunOutcome {
        let mut st = self.lock();
        loop {
            while st.granted.is_some() || st.active.is_some() {
                st = self.wait(st);
            }
            if st.aborting {
                while !st
                    .threads
                    .iter()
                    .all(|t| matches!(t.status, Status::Finished))
                {
                    st = self.wait(st);
                }
                return match (&st.failure, st.pruned) {
                    (Some(msg), _) => RunOutcome::Failed(msg.clone()),
                    (None, _) => RunOutcome::Pruned,
                };
            }
            let pending: Vec<Tid> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, Status::Pending(_)))
                .map(|(i, _)| i)
                .collect();
            let enabled: Vec<Tid> = pending
                .iter()
                .copied()
                .filter(|t| match &st.threads[*t].status {
                    Status::Pending(op) => op.enabled(&st),
                    _ => false,
                })
                .collect();
            if enabled.is_empty() {
                if st
                    .threads
                    .iter()
                    .all(|t| matches!(t.status, Status::Finished))
                {
                    return RunOutcome::Complete;
                }
                let msg = deadlock_message(&st);
                st.trace.push(Event {
                    tid: 0,
                    desc: "deadlock detected".into(),
                });
                st.failure.get_or_insert(msg);
                st.aborting = true;
                self.cv.notify_all();
                continue;
            }
            match decide(&mut st, &enabled) {
                Some(tid) => {
                    st.granted = Some(tid);
                    self.cv.notify_all();
                }
                None => {
                    st.pruned = true;
                    st.aborting = true;
                    self.cv.notify_all();
                }
            }
        }
    }

    fn take_back(&self) -> (Vec<Event>, Vec<Node>) {
        let mut st = self.lock();
        (std::mem::take(&mut st.trace), std::mem::take(&mut st.tree))
    }
}

fn deadlock_message(st: &ExecState) -> String {
    let mut blocked = Vec::new();
    for (tid, t) in st.threads.iter().enumerate() {
        match &t.status {
            Status::Pending(op) => blocked.push(format!("T{tid} blocked on {}", op.label())),
            Status::Parked => blocked.push(format!("T{tid} parked on a condvar (lost wakeup)")),
            _ => {}
        }
    }
    format!("deadlock: {}", blocked.join("; "))
}

/// Picks the next thread to run, consulting (replay) or extending
/// (fresh) the choice tree. Returns `None` when every enabled thread is
/// in the sleep set — the state's outcomes are covered by a sibling
/// branch and the execution is pruned.
fn decide(st: &mut ExecState, enabled: &[Tid]) -> Option<Tid> {
    let prev_enabled = st.prev.filter(|p| enabled.contains(p));
    let pick = if st.cursor < st.tree.len() {
        match &st.tree[st.cursor] {
            Node::Sched {
                options, chosen, ..
            } => options[*chosen].tid,
            Node::Value { .. } => {
                // Replay divergence would mean the model is
                // nondeterministic; the debug build catches it loudly.
                debug_assert!(false, "choice-tree divergence: expected a Sched node");
                enabled[0]
            }
        }
    } else {
        // Exploration order: keep running the previous thread first
        // (fewest context switches explored first), then by tid.
        let mut order: Vec<Tid> = Vec::new();
        if let Some(p) = prev_enabled {
            order.push(p);
        }
        order.extend(enabled.iter().copied().filter(|t| Some(*t) != prev_enabled));
        if prev_enabled.is_some() && st.preemptions >= st.cfg.preemption_bound {
            order.truncate(1);
        }
        let sleep = inherit_sleep(st);
        let options: Vec<SchedOpt> = order
            .iter()
            .filter(|t| !sleep.iter().any(|e| e.tid == **t))
            .map(|t| SchedOpt {
                tid: *t,
                sig: pending_sig(st, *t),
            })
            .collect();
        if options.is_empty() {
            return None;
        }
        let pick = options[0].tid;
        st.tree.push(Node::Sched {
            options,
            sleep,
            chosen: 0,
        });
        pick
    };
    st.cursor += 1;
    if let Some(p) = prev_enabled {
        if pick != p {
            st.preemptions += 1;
        }
    }
    st.prev = Some(pick);
    Some(pick)
}

/// Sleep set for a fresh node: the previous scheduling point's sleep set
/// plus its already-explored sibling options, minus everything dependent
/// on the op that actually executed there.
fn inherit_sleep(st: &ExecState) -> Vec<SchedOpt> {
    for node in st.tree[..st.cursor].iter().rev() {
        if let Node::Sched {
            options,
            sleep,
            chosen,
        } = node
        {
            let executed = &options[*chosen];
            let mut out = Vec::new();
            for e in sleep.iter().chain(options[..*chosen].iter()) {
                if e.tid == executed.tid
                    || conflicting(&e.sig, &executed.sig)
                    || e.sig
                        .iter()
                        .any(|(o, _)| *o == ObjRef::Thread(executed.tid))
                {
                    continue;
                }
                out.push(e.clone());
            }
            return out;
        }
    }
    Vec::new()
}

fn pending_sig(st: &ExecState, tid: Tid) -> Vec<(ObjRef, bool)> {
    match &st.threads[tid].status {
        Status::Pending(op) => op.touches(),
        _ => Vec::new(),
    }
}

/// Picks among `n` nondeterministic values (stale-load candidates,
/// condvar wakeup targets), replaying or extending the choice tree.
fn choose_value(st: &mut ExecState, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let choice = if st.cursor < st.tree.len() {
        match &st.tree[st.cursor] {
            Node::Value { chosen, .. } => *chosen,
            Node::Sched { .. } => {
                debug_assert!(false, "choice-tree divergence: expected a Value node");
                0
            }
        }
    } else {
        st.tree.push(Node::Value { n, chosen: 0 });
        0
    };
    st.cursor += 1;
    choice.min(n - 1)
}

/// Applies one granted op to the protocol state, returning the op's
/// value and its trace description. Callers hold the state lock and
/// have already verified enabledness.
fn apply(st: &mut ExecState, tid: Tid, op: &Op) -> (u64, String) {
    // Every applied op is a fresh timestamp in its thread's clock.
    {
        let c = &mut st.threads[tid].clock;
        if c.len() <= tid {
            c.resize(tid + 1, 0);
        }
        c[tid] += 1;
    }
    match op {
        Op::Start => (0, "start".into()),
        Op::Load { obj, ord } => {
            let tclock = st.threads[tid].clock.clone();
            let candidates: Vec<usize> = {
                let ObjState::Atomic { stores, floor } = &st.objs[*obj] else {
                    unreachable!("load on non-atomic object");
                };
                // Coherence floor: never read older than we've already
                // read or written; happens-before floor: never read
                // older than the newest store in our past.
                let mut lo = floor.get(tid).copied().unwrap_or(0);
                for (i, s) in stores.iter().enumerate().skip(lo) {
                    if vget(&tclock, s.writer) >= s.wtime {
                        lo = i;
                    }
                }
                let mut c: Vec<usize> = (lo..stores.len()).rev().collect();
                if *ord == Ordering::SeqCst {
                    // Approximation: SeqCst loads read the newest store
                    // (no SC total order is modeled — DESIGN.md §14).
                    c.truncate(1);
                }
                c.truncate(st.cfg.value_window.max(1));
                c
            };
            let k = choose_value(st, candidates.len());
            let idx = candidates[k];
            let ObjState::Atomic { stores, floor } = &mut st.objs[*obj] else {
                unreachable!();
            };
            if floor.len() <= tid {
                floor.resize(tid + 1, 0);
            }
            floor[tid] = floor[tid].max(idx);
            let rec = stores[idx].clone();
            let newest = idx + 1 == stores.len();
            if is_acquire(*ord) && rec.release {
                vjoin(&mut st.threads[tid].clock, &rec.clock);
            }
            let stale = if newest { "" } else { " [stale]" };
            (
                rec.val,
                format!("atomic#{obj} load -> {}{stale} ({ord:?})", rec.val),
            )
        }
        Op::Store { obj, ord, val } => {
            let clock = st.threads[tid].clock.clone();
            let wtime = clock[tid];
            let ObjState::Atomic { stores, floor } = &mut st.objs[*obj] else {
                unreachable!("store on non-atomic object");
            };
            stores.push(StoreRec {
                val: *val,
                writer: tid,
                wtime,
                clock,
                release: is_release(*ord),
            });
            let idx = stores.len() - 1;
            if floor.len() <= tid {
                floor.resize(tid + 1, 0);
            }
            floor[tid] = idx;
            (0, format!("atomic#{obj} store {val} ({ord:?})"))
        }
        Op::Rmw { obj, ord, add } => {
            let (prev, new) = {
                let ObjState::Atomic { stores, .. } = &st.objs[*obj] else {
                    unreachable!("rmw on non-atomic object");
                };
                let prev = stores.last().expect("mod order never empty").clone();
                (prev.clone(), prev.val.wrapping_add(*add))
            };
            if is_acquire(*ord) && prev.release {
                vjoin(&mut st.threads[tid].clock, &prev.clock);
            }
            let mut clock = st.threads[tid].clock.clone();
            // An RMW continues the release sequence of the store it read
            // from, so an acquire load of this record must pick up the
            // head release's clock even if the RMW itself is Relaxed.
            if prev.release {
                vjoin(&mut clock, &prev.clock);
            }
            let wtime = st.threads[tid].clock[tid];
            let ObjState::Atomic { stores, floor } = &mut st.objs[*obj] else {
                unreachable!();
            };
            stores.push(StoreRec {
                val: new,
                writer: tid,
                wtime,
                clock,
                release: is_release(*ord) || prev.release,
            });
            let idx = stores.len() - 1;
            if floor.len() <= tid {
                floor.resize(tid + 1, 0);
            }
            floor[tid] = idx;
            (
                prev.val,
                format!("atomic#{obj} fetch_add {add} -> {new} ({ord:?})"),
            )
        }
        Op::Lock { obj } => {
            let acquired = {
                let ObjState::Mutex { owner, clock } = &mut st.objs[*obj] else {
                    unreachable!("lock on non-mutex object");
                };
                debug_assert!(owner.is_none());
                *owner = Some(tid);
                clock.clone()
            };
            vjoin(&mut st.threads[tid].clock, &acquired);
            (0, format!("mutex#{obj} lock"))
        }
        Op::Unlock { obj } => {
            let tclock = st.threads[tid].clock.clone();
            let ObjState::Mutex { owner, clock } = &mut st.objs[*obj] else {
                unreachable!();
            };
            *owner = None;
            vjoin(clock, &tclock);
            (0, format!("mutex#{obj} unlock"))
        }
        Op::ReadLock { obj } => {
            let acquired = {
                let ObjState::Rw {
                    writer,
                    readers,
                    wclock,
                    ..
                } = &mut st.objs[*obj]
                else {
                    unreachable!("read-lock on non-rwlock object");
                };
                debug_assert!(writer.is_none());
                readers.push(tid);
                wclock.clone()
            };
            vjoin(&mut st.threads[tid].clock, &acquired);
            (0, format!("rwlock#{obj} read-lock"))
        }
        Op::ReadUnlock { obj } => {
            let tclock = st.threads[tid].clock.clone();
            let ObjState::Rw {
                readers, rclock, ..
            } = &mut st.objs[*obj]
            else {
                unreachable!();
            };
            if let Some(pos) = readers.iter().position(|r| *r == tid) {
                readers.remove(pos);
            }
            vjoin(rclock, &tclock);
            (0, format!("rwlock#{obj} read-unlock"))
        }
        Op::WriteLock { obj } => {
            let acquired = {
                let ObjState::Rw {
                    writer,
                    readers,
                    wclock,
                    rclock,
                } = &mut st.objs[*obj]
                else {
                    unreachable!("write-lock on non-rwlock object");
                };
                debug_assert!(writer.is_none() && readers.is_empty());
                *writer = Some(tid);
                let mut c = wclock.clone();
                vjoin(&mut c, rclock);
                c
            };
            vjoin(&mut st.threads[tid].clock, &acquired);
            (0, format!("rwlock#{obj} write-lock"))
        }
        Op::WriteUnlock { obj } => {
            let tclock = st.threads[tid].clock.clone();
            let ObjState::Rw { writer, wclock, .. } = &mut st.objs[*obj] else {
                unreachable!();
            };
            *writer = None;
            vjoin(wclock, &tclock);
            (0, format!("rwlock#{obj} write-unlock"))
        }
        Op::CondWait { cond, lock } => {
            let tclock = st.threads[tid].clock.clone();
            {
                let ObjState::Mutex { owner, clock } = &mut st.objs[*lock] else {
                    unreachable!("cond wait with non-mutex lock");
                };
                *owner = None;
                vjoin(clock, &tclock);
            }
            let ObjState::Cond { parked } = &mut st.objs[*cond] else {
                unreachable!("wait on non-cond object");
            };
            parked.push((tid, *lock));
            st.threads[tid].status = Status::Parked;
            (0, format!("cond#{cond} wait (releases mutex#{lock})"))
        }
        Op::NotifyOne { cond } => {
            let n = {
                let ObjState::Cond { parked } = &st.objs[*cond] else {
                    unreachable!("notify on non-cond object");
                };
                parked.len()
            };
            if n == 0 {
                return (0, format!("cond#{cond} notify_one (no waiters)"));
            }
            let k = choose_value(st, n);
            let ObjState::Cond { parked } = &mut st.objs[*cond] else {
                unreachable!();
            };
            let (w, m) = parked.remove(k);
            st.threads[w].status = Status::Pending(Op::Lock { obj: m });
            (0, format!("cond#{cond} notify_one -> T{w}"))
        }
        Op::NotifyAll { cond } => {
            let ObjState::Cond { parked } = &mut st.objs[*cond] else {
                unreachable!("notify on non-cond object");
            };
            let woken = std::mem::take(parked);
            let labels: Vec<String> = woken.iter().map(|(w, _)| format!("T{w}")).collect();
            for (w, m) in woken {
                st.threads[w].status = Status::Pending(Op::Lock { obj: m });
            }
            (
                0,
                format!(
                    "cond#{cond} notify_all -> [{}]",
                    if labels.is_empty() {
                        "no waiters".into()
                    } else {
                        labels.join(", ")
                    }
                ),
            )
        }
        Op::Join { thread } => {
            let jc = st.threads[*thread].clock.clone();
            vjoin(&mut st.threads[tid].clock, &jc);
            (0, format!("join T{thread}"))
        }
    }
}

/// Advances the choice tree to the next unexplored branch; `false` means
/// the space is exhausted.
fn advance(tree: &mut Vec<Node>) -> bool {
    while let Some(last) = tree.last_mut() {
        match last {
            Node::Value { n, chosen } if *chosen + 1 < *n => {
                *chosen += 1;
                return true;
            }
            Node::Sched {
                options, chosen, ..
            } if *chosen + 1 < options.len() => {
                *chosen += 1;
                return true;
            }
            _ => {
                tree.pop();
            }
        }
    }
    false
}

const TABLE_CAP: usize = 600;

fn render_table(trace: &[Event]) -> String {
    let mut out = String::from(" step  thread  event\n");
    let skip = trace.len().saturating_sub(TABLE_CAP);
    if skip > 0 {
        out.push_str(&format!("  ... ({skip} earlier events elided)\n"));
    }
    for (i, e) in trace.iter().enumerate().skip(skip) {
        out.push_str(&format!("{:5}  T{:<5}  {}\n", i + 1, e.tid, e.desc));
    }
    out
}

/// Installs (once) a panic hook that silences the [`Aborted`] unwinds
/// model threads use to abandon an execution.
fn install_quiet_abort_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Aborted>().is_none() {
                default(info);
            }
        }));
    });
}

/// Exhaustively explores `body` under `cfg` and returns the [`Report`]
/// without panicking on failure — the entry point for tests that expect
/// a model to fail (e.g. seeded-bug detection).
///
/// `body` is rerun once per schedule; it must create all model state
/// inside the closure (a model object must not outlive its execution).
/// Set `WILOCATOR_CHECK_SEED=<n>` to stop at DFS execution `n` and print
/// its schedule table — the replay path printed with every failure.
pub fn explore_report<F>(cfg: Config, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_abort_hook();
    let body = std::sync::Arc::new(body);
    let seed_replay: Option<usize> = cfg.replay_seed.or_else(|| {
        std::env::var("WILOCATOR_CHECK_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
    });
    let mut tree: Vec<Node> = Vec::new();
    let mut schedules = 0usize;
    let mut events = 0usize;
    let mut failure = None;
    loop {
        if std::env::var_os("WILOCATOR_CHECK_TRACE_RUNS").is_some() {
            eprintln!("[dbg] run #{schedules}");
        }
        let exec = std::sync::Arc::new(Exec::new(cfg.clone(), std::mem::take(&mut tree)));
        let root = exec.register_root();
        let exec2 = exec.clone();
        let body2 = body.clone();
        let handle = std::thread::spawn(move || crate::model::runner(exec2, root, move || body2()));
        let outcome = exec.schedule_loop();
        let _ = handle.join();
        let (trace, new_tree) = exec.take_back();
        let seed = schedules;
        schedules += 1;
        events += trace.len();
        if let RunOutcome::Failed(message) = outcome {
            let table = render_table(&trace);
            eprintln!(
                "[wilocator-check] FAILED at schedule #{seed} after exploring {schedules} schedule(s)\n\
                 [wilocator-check] {message}\n\
                 [wilocator-check] replay: WILOCATOR_CHECK_SEED={seed} cargo test ... (same test, same build)\n\
                 {table}"
            );
            failure = Some(Failure {
                seed,
                message,
                table,
            });
            break;
        }
        if seed_replay == Some(seed) {
            eprintln!(
                "[wilocator-check] schedule #{seed} (WILOCATOR_CHECK_SEED replay, passing):\n{}",
                render_table(&trace)
            );
            break;
        }
        tree = new_tree;
        if !advance(&mut tree) {
            break;
        }
        if schedules >= cfg.max_schedules {
            failure = Some(Failure {
                seed,
                message: format!(
                    "schedule budget exhausted (max_schedules={})",
                    cfg.max_schedules
                ),
                table: String::new(),
            });
            break;
        }
    }
    Report {
        schedules,
        events,
        failure,
    }
}

/// Explores `body` with `cfg` and panics with the failing schedule if
/// the model finds a bug. Returns the report (schedule counts) on
/// success.
pub fn explore_with<F>(cfg: Config, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = explore_report(cfg, body);
    if let Some(f) = &report.failure {
        panic!(
            "model check failed at schedule #{} ({} schedules explored): {}\nreplay: WILOCATOR_CHECK_SEED={}\n{}",
            f.seed, report.schedules, f.message, f.seed, f.table
        );
    }
    report
}

/// [`explore_with`] under the default [`Config`] (preemption bound 2,
/// value window 3).
pub fn explore<F>(body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    explore_with(Config::default(), body)
}
