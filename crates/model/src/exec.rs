//! The execution engine: a token-passing scheduler that serializes real
//! OS threads so that exactly one modeled thread runs between scheduling
//! points, a recorded-choice chooser (DFS / seeded sampling / replay),
//! and the modeled object table — mutexes, notify tokens, and atomics
//! with a store-buffer memory model driven by vector clocks.
//!
//! Every shim operation begins with a *scheduling point*: the running
//! thread announces its next operation, the chooser picks which enabled
//! thread performs the next operation, and the token moves. Because the
//! token is exclusive, the operation bodies themselves run data-race-free
//! no matter what the modeled program does — all nondeterminism is
//! concentrated in the recorded choices, which is what makes schedules
//! replayable.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64 as RealAtomicU64, Ordering as RealOrdering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdGuard};

pub use std::sync::atomic::Ordering;

use crate::clock::VClock;
use crate::rng::{mix, SplitMix64};
use crate::schedule::Choice;

/// Upper bound on modeled threads per execution — a sanity rail, not a
/// tuning knob; model tests are supposed to be tiny.
const MAX_THREADS: usize = 16;

/// Panic payload used to unwind modeled threads when an exploration
/// aborts (a failure was found, or teardown started). Every modeled
/// thread's wrapper catches and swallows it.
pub(crate) struct ExecAbort;

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn lock_state(m: &StdMutex<ExecState>) -> StdGuard<'_, ExecState> {
    // A modeled thread that panics (deliberately — that is how model
    // tests fail) poisons this mutex; the state itself is always
    // consistent because every mutation happens under the guard.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Operation tags mixed into the canonical per-object trace hashes.
mod opcode {
    pub(super) const LOCK: u64 = 1;
    pub(super) const UNLOCK: u64 = 2;
    pub(super) const NOTIFY: u64 = 3;
    pub(super) const WAIT: u64 = 4;
    pub(super) const LOAD: u64 = 5;
    pub(super) const STORE: u64 = 6;
    pub(super) const RMW: u64 = 7;
    pub(super) const SPAWN: u64 = 8;
    pub(super) const JOIN: u64 = 9;
    pub(super) const FINISH: u64 = 11;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Runnable,
    Blocked,
    Finished,
}

/// What a blocked thread is waiting for — surfaced verbatim in deadlock
/// reports (which is how lost wakeups manifest).
#[derive(Clone, Copy, Debug)]
enum BlockOn {
    Lock(usize),
    Notify(usize),
    Join(usize),
}

impl std::fmt::Display for BlockOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockOn::Lock(o) => write!(f, "Mutex#{o}"),
            BlockOn::Notify(o) => write!(f, "Notify#{o} (no token: a wakeup was lost or never sent)"),
            BlockOn::Join(t) => write!(f, "join(t{t})"),
        }
    }
}

struct ModelThread {
    state: TState,
    blocked_on: Option<BlockOn>,
    clock: VClock,
}

/// One entry in an atomic's modification order.
struct Store {
    value: u64,
    /// Writing thread and its clock component at the store: a reader
    /// whose clock covers `(writer, stamp)` can no longer observe
    /// anything older (coherence + happens-before visibility floor).
    writer: usize,
    stamp: u32,
    /// The writer's full clock when the store had release semantics; an
    /// acquiring load that reads this store joins it (synchronizes-with).
    release: Option<VClock>,
}

enum Obj {
    Mutex { locked_by: Option<usize>, clock: VClock },
    Notify { token: bool, clock: VClock },
    Atomic { stores: Vec<Store>, last_read: Vec<usize> },
}

/// How a lazily-registered object starts life.
pub(crate) enum ObjInit {
    Mutex,
    Notify,
    Atomic(u64),
}

/// Where choices come from for one execution.
pub(crate) enum Mode {
    /// Prescribed prefix, then always alternative 0 — the DFS leg.
    Dfs,
    /// Prescribed prefix (normally empty), then uniform via the RNG.
    Sample(SplitMix64),
    /// Prescribed prefix, then alternative 0 — semantically identical to
    /// [`Mode::Dfs`] but run with an unlimited preemption budget so a
    /// recorded schedule replays whatever bound found it.
    Replay,
}

struct Chooser {
    mode: Mode,
    prescribed: Vec<u32>,
    pos: usize,
    recorded: Vec<Choice>,
}

impl Chooser {
    /// Decide a choice point with `arity >= 2` alternatives.
    fn choose(&mut self, arity: usize) -> usize {
        debug_assert!(arity >= 2);
        let index = if self.pos < self.prescribed.len() {
            (self.prescribed[self.pos] as usize).min(arity - 1)
        } else {
            match &mut self.mode {
                Mode::Dfs | Mode::Replay => 0,
                Mode::Sample(rng) => rng.below(arity),
            }
        };
        self.pos += 1;
        self.recorded.push(Choice { index: index as u32, arity: arity as u32 });
        index
    }

    /// A choice point that *would* have had alternatives but was forced
    /// to "continue the current thread" by the preemption bound. It is
    /// recorded with arity 1 so the DFS never increments it, yet still
    /// consumes one prescription slot — keeping replays aligned even
    /// though they run with an unlimited bound.
    fn forced(&mut self) {
        self.pos += 1;
        self.recorded.push(Choice { index: 0, arity: 1 });
    }
}

struct ExecState {
    threads: Vec<ModelThread>,
    active: usize,
    /// False once the execution is over — completed, failed, or torn
    /// down. Modeled threads that observe it unwind with [`ExecAbort`].
    running: bool,
    finished: usize,
    failure: Option<String>,
    objects: Vec<Obj>,
    /// Canonical per-object operation-sequence hashes: interleavings that
    /// only reorder operations on *different* objects hash identically,
    /// so the fold over these counts Mazurkiewicz trace classes.
    obj_hash: Vec<u64>,
    /// Hash of object-less events (spawn/join/yield/finish).
    misc_hash: u64,
    chooser: Chooser,
    preemptions: usize,
    bound: usize,
    steps: usize,
    max_steps: usize,
    trace: Option<Vec<String>>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// What one execution produced, harvested after teardown.
pub(crate) struct RunResult {
    pub(crate) recorded: Vec<Choice>,
    pub(crate) failure: Option<String>,
    pub(crate) canon: u64,
    pub(crate) trace: Vec<String>,
    #[allow(dead_code)] // surfaced in Outcome totals later if needed
    pub(crate) steps: usize,
}

pub(crate) struct Execution {
    pub(crate) epoch: u64,
    /// The OS thread that drives this execution's exploration.
    pub(crate) explorer: std::thread::ThreadId,
    state: StdMutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// A modeled thread's identity: the execution it belongs to and its id.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) id: usize,
}

/// The calling OS thread's model context, if it is a modeled thread of a
/// live exploration. `None` means "run the real primitive" — shims used
/// outside `explore` fall back to ordinary blocking behavior.
pub(crate) fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(ctx: Option<Ctx>) {
    CURRENT.with(|c| *c.borrow_mut() = ctx);
}

/// Monotone epoch distinguishing executions, so per-object [`ObjRef`]
/// registrations from a previous schedule (or a `static`'s from a
/// previous test) are recognized as stale and re-registered.
static EPOCH: RealAtomicU64 = RealAtomicU64::new(0);

/// A shim object's lazily-assigned identity within the active execution.
/// `const`-constructible so shim types can live in `static`s.
#[derive(Debug)]
pub(crate) struct ObjRef {
    epoch: RealAtomicU64,
    id: RealAtomicU64,
}

impl Default for ObjRef {
    fn default() -> Self {
        ObjRef::new()
    }
}

impl ObjRef {
    pub(crate) const fn new() -> Self {
        ObjRef { epoch: RealAtomicU64::new(0), id: RealAtomicU64::new(0) }
    }

    /// This object's id in `ctx`'s execution, registering it (with
    /// `init`'s starting state) on first touch per execution. Runs under
    /// the scheduler token, so the two-cell update cannot race.
    pub(crate) fn resolve(&self, ctx: &Ctx, init: impl FnOnce() -> ObjInit) -> usize {
        if self.epoch.load(RealOrdering::SeqCst) == ctx.exec.epoch {
            return self.id.load(RealOrdering::SeqCst) as usize;
        }
        let id = ctx.exec.register(init());
        self.id.store(id as u64, RealOrdering::SeqCst);
        self.epoch.store(ctx.exec.epoch, RealOrdering::SeqCst);
        id
    }
}

fn acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl Execution {
    fn new(bound: usize, max_steps: usize, mode: Mode, prescribed: Vec<u32>, trace_on: bool) -> Self {
        let mut main = ModelThread { state: TState::Runnable, blocked_on: None, clock: VClock::default() };
        main.clock.tick(0);
        Execution {
            epoch: EPOCH.fetch_add(1, RealOrdering::SeqCst) + 1,
            explorer: std::thread::current().id(),
            state: StdMutex::new(ExecState {
                threads: vec![main],
                active: 0,
                running: true,
                finished: 0,
                failure: None,
                objects: Vec::new(),
                obj_hash: Vec::new(),
                misc_hash: 0,
                chooser: Chooser { mode, prescribed, pos: 0, recorded: Vec::new() },
                preemptions: 0,
                bound,
                steps: 0,
                max_steps,
                trace: trace_on.then(Vec::new),
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn register(&self, init: ObjInit) -> usize {
        let mut st = lock_state(&self.state);
        let id = st.objects.len();
        st.objects.push(match init {
            ObjInit::Mutex => Obj::Mutex { locked_by: None, clock: VClock::default() },
            ObjInit::Notify => Obj::Notify { token: false, clock: VClock::default() },
            ObjInit::Atomic(value) => Obj::Atomic {
                stores: vec![Store { value, writer: 0, stamp: 0, release: None }],
                last_read: Vec::new(),
            },
        });
        st.obj_hash.push(0);
        id
    }

    /// Record a failure (first one wins) and end the execution: every
    /// modeled thread unwinds at its next brush with the scheduler.
    fn fail_locked(&self, st: &mut ExecState, message: String) {
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.running = false;
        self.cv.notify_all();
    }

    /// True once this execution has been torn down (a failure was raised
    /// or every thread finished). Shim operations reached *after* that —
    /// typically from destructors running during the `ExecAbort` unwind,
    /// like a lock-order tracker purging its edges from a global map —
    /// must bypass the model entirely: re-entering the scheduler would
    /// panic again inside an active unwind and abort the process.
    pub(crate) fn aborted(&self) -> bool {
        !lock_state(&self.state).running
    }

    fn note(st: &mut ExecState, thread: usize, line: impl FnOnce() -> String) {
        if let Some(trace) = st.trace.as_mut() {
            trace.push(format!("[t{thread}] {}", line()));
        }
    }

    /// Pick who runs the next operation. `me_enabled` is false when the
    /// caller just blocked or finished (switching away from it is free;
    /// switching away from an *enabled* thread costs preemption budget).
    /// Returns [`None`] — after recording a deadlock failure — when no
    /// thread can run.
    fn choose_next(&self, st: &mut ExecState, me: usize, me_enabled: bool) -> Option<usize> {
        let mut cands: Vec<usize> = Vec::with_capacity(st.threads.len());
        if me_enabled {
            cands.push(me);
        }
        for (i, t) in st.threads.iter().enumerate() {
            if i != me && t.state == TState::Runnable {
                cands.push(i);
            }
        }
        if cands.is_empty() {
            if st.finished < st.threads.len() {
                let mut msg = String::from("deadlock: every unfinished thread is blocked");
                for (i, t) in st.threads.iter().enumerate() {
                    if t.state == TState::Blocked {
                        if let Some(on) = t.blocked_on {
                            msg.push_str(&format!("\n    t{i} blocked on {on}"));
                        }
                    }
                }
                self.fail_locked(st, msg);
            }
            return None;
        }
        let index = if cands.len() < 2 {
            0
        } else if me_enabled && st.preemptions >= st.bound {
            st.chooser.forced();
            0
        } else {
            st.chooser.choose(cands.len())
        };
        let chosen = cands[index];
        if me_enabled && chosen != me {
            st.preemptions += 1;
        }
        Some(chosen)
    }

    /// Block until this thread holds the token again (or the execution
    /// ended, in which case unwind).
    fn wait_for_token<'a>(&'a self, mut st: StdGuard<'a, ExecState>, me: usize) -> StdGuard<'a, ExecState> {
        while st.running && st.active != me {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if !st.running {
            drop(st);
            std::panic::panic_any(ExecAbort);
        }
        st
    }

    /// One scheduling point: charge a step, fold the op into the
    /// canonical trace hash, and let the chooser decide who performs the
    /// next operation. On return the calling thread holds the token and
    /// may apply its operation's effects.
    fn schedule_point(&self, me: usize, obj: Option<usize>, op: u64) {
        let mut st = lock_state(&self.state);
        if !st.running {
            drop(st);
            std::panic::panic_any(ExecAbort);
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let max = st.max_steps;
            self.fail_locked(
                &mut st,
                format!(
                    "depth limit exceeded: more than {max} scheduling points \
                     (possible livelock; raise wsg_model's MAX_DEPTH if the test is this deep)"
                ),
            );
            drop(st);
            std::panic::panic_any(ExecAbort);
        }
        let tag = mix(me as u64 + 1, op);
        match obj {
            Some(o) => st.obj_hash[o] = mix(st.obj_hash[o], tag),
            None => st.misc_hash = mix(st.misc_hash, tag),
        }
        match self.choose_next(&mut st, me, true) {
            Some(chosen) if chosen != me => {
                st.active = chosen;
                self.cv.notify_all();
                drop(self.wait_for_token(st, me));
            }
            Some(_) => {}
            // Unreachable in practice (the caller is enabled), but keep
            // the teardown path uniform.
            None => {
                drop(st);
                std::panic::panic_any(ExecAbort);
            }
        }
    }

    /// Mark the caller blocked, hand the token to someone else, and wait
    /// to be scheduled again (the unblocker marks us runnable; a later
    /// choice gives us the token back).
    fn block_me<'a>(
        &'a self,
        mut st: StdGuard<'a, ExecState>,
        me: usize,
        on: BlockOn,
    ) -> StdGuard<'a, ExecState> {
        st.threads[me].state = TState::Blocked;
        st.threads[me].blocked_on = Some(on);
        match self.choose_next(&mut st, me, false) {
            Some(next) => {
                st.active = next;
                self.cv.notify_all();
            }
            None => {
                // Deadlock (failure already recorded) — unwind.
                drop(st);
                std::panic::panic_any(ExecAbort);
            }
        }
        self.wait_for_token(st, me)
    }

    fn wake_blocked_on(st: &mut ExecState, pred: impl Fn(BlockOn) -> bool) {
        for t in st.threads.iter_mut() {
            if t.state == TState::Blocked && t.blocked_on.is_some_and(&pred) {
                t.state = TState::Runnable;
                t.blocked_on = None;
            }
        }
    }

    // ---- mutex ----------------------------------------------------------

    pub(crate) fn mutex_lock(&self, me: usize, obj: usize) {
        self.schedule_point(me, Some(obj), opcode::LOCK);
        let mut st = lock_state(&self.state);
        loop {
            if !st.running {
                drop(st);
                std::panic::panic_any(ExecAbort);
            }
            let (held, clock) = match &st.objects[obj] {
                Obj::Mutex { locked_by, clock } => (locked_by.is_some(), clock.clone()),
                _ => unreachable!("object {obj} is not a mutex"),
            };
            if !held {
                if let Obj::Mutex { locked_by, .. } = &mut st.objects[obj] {
                    *locked_by = Some(me);
                }
                st.threads[me].clock.join(&clock);
                Self::note(&mut st, me, || format!("Mutex#{obj} lock"));
                return;
            }
            st = self.block_me(st, me, BlockOn::Lock(obj));
        }
    }

    /// Not a scheduling point: the release becomes observable at the
    /// holder's next point, which is when waiters can actually win the
    /// token anyway.
    pub(crate) fn mutex_unlock(&self, me: usize, obj: usize) {
        let mut st = lock_state(&self.state);
        if !st.running {
            return; // teardown / failure unwind — state no longer matters
        }
        st.threads[me].clock.tick(me);
        let clock = st.threads[me].clock.clone();
        if let Obj::Mutex { locked_by, clock: oclock } = &mut st.objects[obj] {
            debug_assert_eq!(*locked_by, Some(me), "unlock by non-holder");
            *locked_by = None;
            oclock.join(&clock);
        }
        let tag = mix(me as u64 + 1, opcode::UNLOCK);
        st.obj_hash[obj] = mix(st.obj_hash[obj], tag);
        Self::wake_blocked_on(&mut st, |on| matches!(on, BlockOn::Lock(o) if o == obj));
        Self::note(&mut st, me, || format!("Mutex#{obj} unlock"));
    }

    // ---- notify ---------------------------------------------------------

    pub(crate) fn notify_notify(&self, me: usize, obj: usize) {
        self.schedule_point(me, Some(obj), opcode::NOTIFY);
        let mut st = lock_state(&self.state);
        st.threads[me].clock.tick(me);
        let clock = st.threads[me].clock.clone();
        if let Obj::Notify { token, clock: oclock } = &mut st.objects[obj] {
            *token = true;
            oclock.join(&clock);
        }
        Self::wake_blocked_on(&mut st, |on| matches!(on, BlockOn::Notify(o) if o == obj));
        Self::note(&mut st, me, || format!("Notify#{obj} notify"));
    }

    pub(crate) fn notify_wait(&self, me: usize, obj: usize) {
        self.schedule_point(me, Some(obj), opcode::WAIT);
        let mut st = lock_state(&self.state);
        loop {
            if !st.running {
                drop(st);
                std::panic::panic_any(ExecAbort);
            }
            let (has_token, clock) = match &st.objects[obj] {
                Obj::Notify { token, clock } => (*token, clock.clone()),
                _ => unreachable!("object {obj} is not a notify"),
            };
            if has_token {
                if let Obj::Notify { token, .. } = &mut st.objects[obj] {
                    *token = false;
                }
                st.threads[me].clock.join(&clock);
                Self::note(&mut st, me, || format!("Notify#{obj} wait -> consumed token"));
                return;
            }
            Self::note(&mut st, me, || format!("Notify#{obj} wait -> parked"));
            st = self.block_me(st, me, BlockOn::Notify(obj));
        }
    }

    // ---- atomics --------------------------------------------------------

    /// A load observes some store in the modification order, no older
    /// than (a) the newest store already happens-before the load and
    /// (b) anything this thread previously read or wrote here
    /// (coherence). When several stores remain observable, which one is a
    /// recorded choice — candidates are deduplicated by (value,
    /// synchronization effect), the vector-clock pruning that collapses
    /// equivalent interleavings.
    pub(crate) fn atomic_load(&self, me: usize, obj: usize, ord: Ordering) -> u64 {
        self.schedule_point(me, Some(obj), opcode::LOAD);
        let mut st = lock_state(&self.state);
        if let Obj::Atomic { last_read, .. } = &mut st.objects[obj] {
            if last_read.len() <= me {
                last_read.resize(me + 1, 0);
            }
        }
        let me_clock = st.threads[me].clock.clone();
        let cands: Vec<usize> = match &st.objects[obj] {
            Obj::Atomic { stores, last_read } => {
                let latest = stores.len() - 1;
                if matches!(ord, Ordering::SeqCst) {
                    vec![latest]
                } else {
                    let mut floor = last_read[me];
                    for (i, s) in stores.iter().enumerate().skip(floor) {
                        if me_clock.get(s.writer) >= s.stamp {
                            floor = i;
                        }
                    }
                    // Newest first, so the default choice is the value a
                    // sequentially-consistent run would see.
                    let mut cands: Vec<usize> = Vec::new();
                    for i in (floor..=latest).rev() {
                        let s = &stores[i];
                        let dup = cands.iter().any(|&j| {
                            let t = &stores[j];
                            t.value == s.value
                                && (!acquires(ord) || t.release == s.release)
                        });
                        if !dup {
                            cands.push(i);
                        }
                    }
                    cands
                }
            }
            _ => unreachable!("object {obj} is not an atomic"),
        };
        let pick = if cands.len() >= 2 { st.chooser.choose(cands.len()) } else { 0 };
        let chosen = cands[pick];
        let (value, release) = match &mut st.objects[obj] {
            Obj::Atomic { stores, last_read } => {
                last_read[me] = last_read[me].max(chosen);
                (stores[chosen].value, stores[chosen].release.clone())
            }
            _ => unreachable!(),
        };
        if acquires(ord) {
            if let Some(rc) = release {
                st.threads[me].clock.join(&rc);
            }
        }
        Self::note(&mut st, me, || format!("Atomic#{obj} load ({ord:?}) -> {value}"));
        value
    }

    pub(crate) fn atomic_store(&self, me: usize, obj: usize, ord: Ordering, value: u64) {
        self.schedule_point(me, Some(obj), opcode::STORE);
        let mut st = lock_state(&self.state);
        st.threads[me].clock.tick(me);
        let clock = st.threads[me].clock.clone();
        let stamp = clock.get(me);
        if let Obj::Atomic { stores, last_read } = &mut st.objects[obj] {
            stores.push(Store {
                value,
                writer: me,
                stamp,
                release: releases(ord).then(|| clock.clone()),
            });
            let idx = stores.len() - 1;
            if last_read.len() <= me {
                last_read.resize(me + 1, 0);
            }
            last_read[me] = idx;
        }
        Self::note(&mut st, me, || format!("Atomic#{obj} store {value} ({ord:?})"));
    }

    /// Read-modify-write: always operates on the newest store in the
    /// modification order (atomicity), acquiring/releasing per `ord`.
    /// Returns `(old, new)`.
    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        obj: usize,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
        label: &'static str,
    ) -> (u64, u64) {
        self.schedule_point(me, Some(obj), opcode::RMW);
        let mut st = lock_state(&self.state);
        let (old, release) = match &st.objects[obj] {
            Obj::Atomic { stores, .. } => {
                let s = stores.last().expect("atomic has an initial store");
                (s.value, s.release.clone())
            }
            _ => unreachable!("object {obj} is not an atomic"),
        };
        if acquires(ord) {
            if let Some(rc) = release {
                st.threads[me].clock.join(&rc);
            }
        }
        let new = f(old);
        st.threads[me].clock.tick(me);
        let clock = st.threads[me].clock.clone();
        let stamp = clock.get(me);
        if let Obj::Atomic { stores, last_read } = &mut st.objects[obj] {
            stores.push(Store {
                value: new,
                writer: me,
                stamp,
                release: releases(ord).then(|| clock.clone()),
            });
            let idx = stores.len() - 1;
            if last_read.len() <= me {
                last_read.resize(me + 1, 0);
            }
            last_read[me] = idx;
        }
        Self::note(&mut st, me, || format!("Atomic#{obj} {label} {old} -> {new} ({ord:?})"));
        (old, new)
    }

    // ---- threads --------------------------------------------------------

    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        me: usize,
        body: Box<dyn FnOnce() + Send>,
    ) -> usize {
        self.schedule_point(me, None, opcode::SPAWN);
        let mut st = lock_state(&self.state);
        if st.threads.len() >= MAX_THREADS {
            self.fail_locked(
                &mut st,
                format!("more than {MAX_THREADS} modeled threads — model tests must stay tiny"),
            );
            drop(st);
            std::panic::panic_any(ExecAbort);
        }
        st.threads[me].clock.tick(me);
        let child = st.threads.len();
        let mut child_clock = st.threads[me].clock.clone();
        child_clock.tick(child);
        st.threads.push(ModelThread {
            state: TState::Runnable,
            blocked_on: None,
            clock: child_clock,
        });
        Self::note(&mut st, me, || format!("spawn t{child}"));
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("wsg-model-{child}"))
            .spawn(move || {
                set_current(Some(Ctx { exec: Arc::clone(&exec), id: child }));
                {
                    // Wait to be scheduled for the first time.
                    let mut st = lock_state(&exec.state);
                    while st.running && st.active != child {
                        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    if !st.running {
                        return; // execution ended before our first step
                    }
                }
                match std::panic::catch_unwind(AssertUnwindSafe(body)) {
                    Ok(()) => exec.thread_finished(child),
                    Err(payload) => {
                        if payload.downcast_ref::<ExecAbort>().is_none() {
                            exec.fail_panic(child, panic_message(payload.as_ref()));
                        }
                    }
                }
            })
            .expect("spawn wsg_model thread");
        st.os_handles.push(handle);
        child
    }

    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        self.schedule_point(me, None, opcode::JOIN);
        let mut st = lock_state(&self.state);
        loop {
            if !st.running {
                drop(st);
                std::panic::panic_any(ExecAbort);
            }
            if st.threads[target].state == TState::Finished {
                let clock = st.threads[target].clock.clone();
                st.threads[me].clock.join(&clock);
                Self::note(&mut st, me, || format!("join t{target}"));
                return;
            }
            st = self.block_me(st, me, BlockOn::Join(target));
        }
    }

    pub(crate) fn thread_finished(&self, me: usize) {
        let mut st = lock_state(&self.state);
        if !st.running {
            return;
        }
        st.threads[me].clock.tick(me);
        st.threads[me].state = TState::Finished;
        st.finished += 1;
        let tag = mix(me as u64 + 1, opcode::FINISH);
        st.misc_hash = mix(st.misc_hash, tag);
        Self::wake_blocked_on(&mut st, |on| matches!(on, BlockOn::Join(t) if t == me));
        Self::note(&mut st, me, || "finished".to_string());
        if st.finished == st.threads.len() {
            st.running = false;
            self.cv.notify_all();
            return;
        }
        if let Some(next) = self.choose_next(&mut st, me, false) {
            st.active = next;
            self.cv.notify_all();
        }
        // None: deadlock failure already recorded by choose_next.
    }

    pub(crate) fn fail_panic(&self, me: usize, message: String) {
        let mut st = lock_state(&self.state);
        Self::note(&mut st, me, || format!("panicked: {message}"));
        self.fail_locked(&mut st, format!("t{me} panicked: {message}"));
    }
}

/// Run one complete execution of `body` under the given chooser
/// configuration and harvest its result. Spawns fresh OS threads (one
/// per modeled thread) and joins them all before returning, so no state
/// leaks between schedules.
pub(crate) fn run_one(
    body: &Arc<dyn Fn() + Send + Sync>,
    prescribed: Vec<u32>,
    mode: Mode,
    bound: usize,
    max_steps: usize,
    trace_on: bool,
) -> RunResult {
    assert!(
        current().is_none(),
        "wsg_model explorations cannot nest: explore() called from inside a modeled thread"
    );
    let exec = Arc::new(Execution::new(bound, max_steps, mode, prescribed, trace_on));
    let body = Arc::clone(body);
    let exec0 = Arc::clone(&exec);
    let main = std::thread::Builder::new()
        .name("wsg-model-0".to_string())
        .spawn(move || {
            set_current(Some(Ctx { exec: Arc::clone(&exec0), id: 0 }));
            match std::panic::catch_unwind(AssertUnwindSafe(|| body())) {
                Ok(()) => exec0.thread_finished(0),
                Err(payload) => {
                    if payload.downcast_ref::<ExecAbort>().is_none() {
                        exec0.fail_panic(0, panic_message(payload.as_ref()));
                    }
                }
            }
        })
        .expect("spawn wsg_model main thread");
    lock_state(&exec.state).os_handles.push(main);

    // Wait for the execution to finish (all threads done, or failure).
    {
        let mut st = lock_state(&exec.state);
        while st.running {
            st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
    // Tear down every OS thread before harvesting — spawns can append
    // handles while earlier ones are being joined, so drain in a loop.
    loop {
        let handles = std::mem::take(&mut lock_state(&exec.state).os_handles);
        if handles.is_empty() {
            break;
        }
        for h in handles {
            // wsg_lint: allow(E2) — a modeled thread's panic was already captured as the execution's failure; the join result carries nothing further.
            let _ = h.join();
        }
    }

    let mut st = lock_state(&exec.state);
    let canon = st.obj_hash.iter().fold(st.misc_hash, |acc, &h| mix(acc, h));
    RunResult {
        recorded: std::mem::take(&mut st.chooser.recorded),
        failure: st.failure.take(),
        canon,
        trace: st.trace.take().unwrap_or_default(),
        steps: st.steps,
    }
}
