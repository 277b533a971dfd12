//! Minimal std-based synchronisation primitives shared across the
//! workspace — with a sanitizer-style lock-order deadlock detector in
//! debug builds.
//!
//! The workspace builds with zero registry dependencies, so instead of
//! `parking_lot` this module wraps [`std::sync::Mutex`] with the same
//! ergonomic surface: `lock()` returns the guard directly. Lock poisoning
//! is deliberately not propagated — a panic while holding one of these
//! locks already aborts the affected test or simulation, and every
//! guarded structure here (delivery logs, layer state, the HTTP worker
//! pool's connection queue) stays consistent between mutations.
//!
//! ## Lock-order tracking (debug builds only)
//!
//! In debug builds every [`Mutex`] carries a unique id and every
//! acquisition is recorded in a global lock-order graph: holding `A`
//! while acquiring `B` adds the edge `A → B`, stamped with both
//! acquisition sites (`#[track_caller]`). If an acquisition would create
//! a cycle — the classic two-locks-in-opposite-order deadlock — the
//! detector panics *before blocking*, printing the current acquisition
//! site, the held lock's site, and the previously observed conflicting
//! order, so the report appears deterministically even when the actual
//! interleaving would only deadlock once in a thousand runs. Acquiring a
//! lock the same thread already holds (guaranteed self-deadlock with
//! `std::sync::Mutex`) panics too.
//!
//! In release builds the tracking fields compile out entirely; the
//! compile-time assertions at the bottom of this file pin
//! `size_of::<Mutex<T>>()` to exactly `std::sync::Mutex<T>`'s, so the
//! detector is zero-cost where it matters — `cargo build --release`
//! fails if tracking ever leaks into release layout.
//!
//! ## Model checking (`--cfg wsg_model`)
//!
//! This module is the workspace's single aliasing point for the
//! `wsg_model` deterministic schedule explorer: under
//! `RUSTFLAGS="--cfg wsg_model"` the [`Mutex`] storage, the lock-order
//! graph's own lock, the [`Notify`] wake token, and the re-exported
//! atomics all switch to `wsg_model` shims, so every consumer that says
//! `wsg_net::sync::{Mutex, Notify, AtomicBool, …}` becomes explorable
//! without further changes. In normal builds the shims are absent and
//! the re-exports are the `std` types themselves.

use std::ops::{Deref, DerefMut};

// Re-exported atomics: `std`'s in normal builds, the explorer's shims
// under `--cfg wsg_model`. `Ordering` is always `std`'s enum (the shims
// take it verbatim and honor it in the model's memory system).
pub use std::sync::atomic::Ordering;
#[cfg(not(wsg_model))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
#[cfg(wsg_model)]
pub use wsg_model::atomic::{AtomicBool, AtomicU64, AtomicUsize};

#[cfg(wsg_model)]
pub use wsg_model::sync::Notify;

#[cfg(debug_assertions)]
mod order {
    //! The global lock-order graph and per-thread held-lock stack.

    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::panic::Location;

    // `std`'s, not the `wsg_model` shim: the id counter is a `static`, and
    // a shim object cannot be shared by concurrent explorations.
    use std::sync::atomic::{AtomicU64, Ordering};

    type Site = &'static Location<'static>;

    /// One observed ordering: while `from` was held (acquired at
    /// `held_site`), `to` was acquired at `acq_site`.
    #[derive(Clone, Copy)]
    struct Edge {
        held_site: Site,
        acq_site: Site,
    }

    type Adjacency = BTreeMap<u64, BTreeMap<u64, Edge>>;

    /// Adjacency: from-lock → (to-lock → first observed sites). Under
    /// `--cfg wsg_model` the graph's own lock is a model mutex, so the
    /// detector's internal synchronization is itself explored.
    #[cfg(not(wsg_model))]
    static GRAPH: std::sync::Mutex<Adjacency> = std::sync::Mutex::new(BTreeMap::new());

    #[cfg(not(wsg_model))]
    fn graph() -> std::sync::MutexGuard<'static, Adjacency> {
        GRAPH.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One graph per exploration, keyed by the thread driving it (`None`:
    /// threads outside any), because a model mutex cannot be shared by
    /// explorations that run concurrently in one test binary. Leaked: a
    /// test binary runs a handful of explorations.
    #[cfg(wsg_model)]
    fn graph() -> wsg_model::sync::MutexGuard<'static, Adjacency> {
        type Graph = &'static wsg_model::sync::Mutex<Adjacency>;
        static GRAPHS: std::sync::Mutex<Vec<(Option<std::thread::ThreadId>, Graph)>> =
            std::sync::Mutex::new(Vec::new());
        let key = wsg_model::explorer();
        let mut graphs = GRAPHS.lock().unwrap_or_else(|e| e.into_inner());
        let graph = match graphs.iter().find(|(k, _)| *k == key) {
            Some(&(_, graph)) => graph,
            None => {
                let graph: Graph = Box::leak(Box::default());
                graphs.push((key, graph));
                graph
            }
        };
        drop(graphs);
        graph.lock()
    }

    thread_local! {
        /// Locks this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<(u64, Site)>> = const { RefCell::new(Vec::new()) };
    }

    /// Debug identity of one `Mutex` instance. Ids are never reused;
    /// dropping the mutex purges its edges so the graph stays bounded
    /// by the number of *live* locks.
    #[derive(Debug)]
    pub(super) struct Track {
        pub(super) id: u64,
    }

    impl Track {
        pub(super) fn fresh() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(1);
            // wsg_lint: allow(atomic-ordering) — audited: the RMW's atomicity alone guarantees unique ids; no other data is published
            Track { id: NEXT.fetch_add(1, Ordering::Relaxed) }
        }
    }

    impl Drop for Track {
        fn drop(&mut self) {
            let mut graph = graph();
            graph.remove(&self.id);
            for targets in graph.values_mut() {
                targets.remove(&self.id);
            }
        }
    }

    /// RAII token for one held lock; popping happens on guard drop, by
    /// id, so guards may be dropped out of acquisition order.
    pub(super) struct Held {
        id: u64,
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&(id, _)| id == self.id) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Record the intent to acquire `id` at `site`. Panics on a
    /// same-thread re-acquisition or on a lock-order cycle; otherwise
    /// registers the ordering edge and marks the lock held.
    pub(super) fn acquire(id: u64, site: Site) -> Held {
        let fatal = HELD.with(|held| {
            let held = held.borrow();
            if let Some(&(_, prev_site)) = held.iter().find(|&&(h, _)| h == id) {
                return Some(format!(
                    "wsg_net::sync::Mutex recursive lock (guaranteed self-deadlock): \
                     Mutex#{id} acquired at {site} is already held by this thread \
                     (acquired at {prev_site})"
                ));
            }
            let &(top_id, top_site) = held.last()?;
            let mut graph = graph();
            if graph.get(&top_id).is_some_and(|t| t.contains_key(&id)) {
                return None; // ordering already known good
            }
            if let Some(path) = path_between(&graph, id, top_id) {
                let mut msg = format!(
                    "wsg_net::sync::Mutex lock-order cycle (potential deadlock): \
                     acquiring Mutex#{id} at {site} while holding Mutex#{top_id} \
                     (acquired at {top_site}); conflicting order previously observed:"
                );
                for (from, to, edge) in path {
                    msg.push_str(&format!(
                        "\n  Mutex#{to} acquired at {} while Mutex#{from} was held \
                         (acquired at {})",
                        edge.acq_site, edge.held_site
                    ));
                }
                return Some(msg);
            }
            graph
                .entry(top_id)
                .or_default()
                .insert(id, Edge { held_site: top_site, acq_site: site });
            None
        });
        // Panic outside the HELD/GRAPH borrows so unwinding re-enters
        // neither.
        if let Some(msg) = fatal {
            panic!("{msg}");
        }
        HELD.with(|held| held.borrow_mut().push((id, site)));
        Held { id }
    }

    /// A directed path `from → … → to` in the order graph, if any —
    /// the witness that `to → from` would close a cycle.
    fn path_between(
        graph: &BTreeMap<u64, BTreeMap<u64, Edge>>,
        from: u64,
        to: u64,
    ) -> Option<Vec<(u64, u64, Edge)>> {
        fn dfs(
            graph: &BTreeMap<u64, BTreeMap<u64, Edge>>,
            at: u64,
            to: u64,
            seen: &mut Vec<u64>,
            path: &mut Vec<(u64, u64, Edge)>,
        ) -> bool {
            let Some(targets) = graph.get(&at) else { return false };
            for (&next, &edge) in targets {
                if seen.contains(&next) {
                    continue;
                }
                seen.push(next);
                path.push((at, next, edge));
                if next == to || dfs(graph, next, to, seen, path) {
                    return true;
                }
                path.pop();
            }
            false
        }
        let mut path = Vec::new();
        let mut seen = vec![from];
        dfs(graph, from, to, &mut seen, &mut path).then_some(path)
    }

    /// Whether the ordering edge `a → b` is currently recorded
    /// (test support).
    #[cfg(test)]
    pub(super) fn has_edge(a: u64, b: u64) -> bool {
        graph().get(&a).is_some_and(|t| t.contains_key(&b))
    }
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
///
/// In debug builds, acquisitions feed a global lock-order graph that
/// panics deterministically on ordering cycles and same-thread
/// re-acquisition (see the module docs); in release builds this type is
/// layout- and cost-identical to [`std::sync::Mutex`].
///
/// ```
/// use wsg_net::sync::Mutex;
///
/// let counter = Mutex::new(0u32);
/// *counter.lock() += 1;
/// assert_eq!(*counter.lock(), 1);
/// ```
#[derive(Debug)]
pub struct Mutex<T> {
    #[cfg(not(wsg_model))]
    inner: std::sync::Mutex<T>,
    #[cfg(wsg_model)]
    inner: wsg_model::sync::Mutex<T>,
    #[cfg(debug_assertions)]
    track: order::Track,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// A new lock guarding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            #[cfg(not(wsg_model))]
            inner: std::sync::Mutex::new(value),
            #[cfg(wsg_model)]
            inner: wsg_model::sync::Mutex::new(value),
            #[cfg(debug_assertions)]
            track: order::Track::fresh(),
        }
    }

    /// Acquire the lock, blocking until available.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder panicked while holding the lock. In
    /// debug builds, also panics — *before* blocking — when this thread
    /// already holds the lock, or when the acquisition would create a
    /// lock-order cycle with an ordering observed anywhere else in the
    /// process (a potential deadlock, reported with both acquisition
    /// sites).
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(self.track.id, std::panic::Location::caller());
        MutexGuard {
            #[cfg(not(wsg_model))]
            inner: self.inner.lock().expect("wsg_net::sync::Mutex poisoned"),
            #[cfg(wsg_model)]
            inner: self.inner.lock(),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    /// Consume the lock and return the guarded value.
    pub fn into_inner(self) -> T {
        #[cfg(not(wsg_model))]
        {
            self.inner.into_inner().expect("wsg_net::sync::Mutex poisoned")
        }
        #[cfg(wsg_model)]
        {
            self.inner.into_inner()
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        #[cfg(not(wsg_model))]
        {
            self.inner.get_mut().expect("wsg_net::sync::Mutex poisoned")
        }
        #[cfg(wsg_model)]
        {
            self.inner.get_mut()
        }
    }
}

/// Guard returned by [`Mutex::lock`]; releases the lock (and, in debug
/// builds, pops the thread's held-lock stack) on drop.
pub struct MutexGuard<'a, T> {
    #[cfg(not(wsg_model))]
    inner: std::sync::MutexGuard<'a, T>,
    #[cfg(wsg_model)]
    inner: wsg_model::sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// A wake token ("eventcount-lite"): [`Notify::notify_one`] deposits at
/// most one token; [`Notify::wait`] consumes it or parks until one
/// arrives. Multiple notifies before a wait coalesce into a single
/// token — exactly the semantics the batching sender's wakeup path
/// relies on (a wake is "there may be work", not a counted message).
/// Under `--cfg wsg_model` this is the explorer's shim, whose deadlock
/// detector reports a `wait` that can never be woken as a lost wakeup.
#[cfg(not(wsg_model))]
#[derive(Debug, Default)]
pub struct Notify {
    token: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

#[cfg(not(wsg_model))]
impl Notify {
    pub const fn new() -> Self {
        Notify { token: std::sync::Mutex::new(false), cv: std::sync::Condvar::new() }
    }

    /// Deposit the token (idempotent) and wake a parked waiter.
    pub fn notify_one(&self) {
        *self.token.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_one();
    }

    /// Consume a token, parking until one is deposited.
    pub fn wait(&self) {
        let mut token = self.token.lock().unwrap_or_else(|e| e.into_inner());
        while !*token {
            token = self.cv.wait(token).unwrap_or_else(|e| e.into_inner());
        }
        *token = false;
    }
}

// Zero-cost guarantee: in release builds the tracking fields are gone
// and this wrapper is layout-identical to std's. Checked at compile
// time, so `cargo build --release` itself is the regression test.
// (Model builds opt out: the shim carries its object registration.)
#[cfg(all(not(debug_assertions), not(wsg_model)))]
const _: () = {
    assert!(
        std::mem::size_of::<Mutex<u64>>() == std::mem::size_of::<std::sync::Mutex<u64>>(),
        "release Mutex must not carry lock-order tracking"
    );
    assert!(
        std::mem::size_of::<MutexGuard<'static, u64>>()
            == std::mem::size_of::<std::sync::MutexGuard<'static, u64>>(),
        "release MutexGuard must not carry lock-order tracking"
    );
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(vec![1, 2]);
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3]);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn shared_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut m = Mutex::new(5);
        *m.get_mut() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn nested_consistent_order_is_fine() {
        let a = Mutex::new(1);
        let b = Mutex::new(2);
        for _ in 0..3 {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
    }

    #[test]
    fn out_of_order_guard_drop_is_fine() {
        let a = Mutex::new(1);
        let b = Mutex::new(2);
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // dropped before gb: stack pops by id, not LIFO
        assert_eq!(*gb, 2);
        drop(gb);
        let _ = a.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn inverted_order_panics_deterministically() {
        let a = Mutex::new('a');
        let b = Mutex::new('b');
        {
            let _ga = a.lock();
            let _gb = b.lock(); // records a → b
        }
        let _gb = b.lock();
        let _ga = a.lock(); // b → a closes the cycle: panic, not deadlock
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "recursive lock")]
    fn same_thread_reacquisition_panics() {
        let m = Mutex::new(0);
        let _first = m.lock();
        let _second = m.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn transitive_cycles_are_detected() {
        let a = Arc::new(Mutex::new(0));
        let b = Arc::new(Mutex::new(0));
        let c = Arc::new(Mutex::new(0));
        {
            let _ga = a.lock();
            let _gb = b.lock(); // a → b
        }
        {
            let _gb = b.lock();
            let _gc = c.lock(); // b → c
        }
        let (a2, c2) = (Arc::clone(&a), Arc::clone(&c));
        let err = std::thread::spawn(move || {
            let _gc = c2.lock();
            let _ga = a2.lock(); // c → a closes a → b → c → a
        })
        .join()
        .expect_err("cycle must panic the acquiring thread");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is the diagnostic string");
        assert!(msg.contains("lock-order cycle"), "unexpected message: {msg}");
        assert!(msg.contains("previously observed"), "missing witness path: {msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn dropping_a_mutex_purges_its_edges() {
        let a = Mutex::new(0);
        let b = Mutex::new(0);
        let (ia, ib) = (a.track.id, b.track.id);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert!(order::has_edge(ia, ib));
        drop(b);
        assert!(!order::has_edge(ia, ib));
    }

    #[test]
    fn notify_tokens_coalesce() {
        let n = Notify::new();
        n.notify_one();
        n.notify_one();
        n.notify_one();
        n.wait(); // consumes the single coalesced token
        // A second wait would park forever: verify the token is spent
        // without blocking by racing a fresh notify.
        n.notify_one();
        n.wait();
    }

    #[test]
    fn notify_wakes_parked_waiter() {
        let n = Arc::new(Notify::new());
        let seen = Arc::new(Mutex::new(false));
        let (n2, seen2) = (Arc::clone(&n), Arc::clone(&seen));
        let waiter = std::thread::spawn(move || {
            n2.wait();
            *seen2.lock() = true;
        });
        n.notify_one();
        waiter.join().unwrap();
        assert!(*seen.lock());
    }

    #[cfg(all(debug_assertions, not(wsg_model)))]
    #[test]
    fn debug_build_actually_tracks() {
        // The inverse of the release-mode compile-time layout check:
        // in debug the id field must be present.
        assert!(
            std::mem::size_of::<Mutex<u64>>() > std::mem::size_of::<std::sync::Mutex<u64>>()
        );
    }
}
