//! `wsg_model`: a loom-style deterministic concurrency model checker
//! (see DESIGN.md §13).
//!
//! Tests written against the shim types ([`sync::Mutex`],
//! [`sync::Notify`], [`atomic::AtomicUsize`]/[`atomic::AtomicBool`]/
//! [`atomic::AtomicU64`], [`thread::spawn`]) are driven by an
//! [`Explorer`] that enumerates thread interleavings: every shim
//! operation is a scheduling point, the explorer DFS-walks the tree of
//! recorded choices up to a preemption bound, then randomly samples
//! schedules beyond it (seeded, so `WSG_MODEL_SEED` replays the exact
//! same stream). Atomic `Ordering`s are honored — relaxed and acquire
//! loads may observe stale values within their vector-clock visibility
//! window — so ordering bugs that real hardware exhibits rarely are
//! enumerated deterministically.
//!
//! A failing schedule is minimized (choices greedily reverted to the
//! default until the failure disappears) and printed as a replayable
//! trace; `WSG_MODEL_SCHEDULE=<schedule> cargo test <name>` re-runs that
//! exact interleaving.
//!
//! Outside an active exploration the shims fall back to the real
//! primitives, so crates compiled with `--cfg wsg_model` still run their
//! ordinary suites; without the cfg, consumers alias the shim names to
//! the real types and the model compiles out entirely.
//!
//! Environment knobs: `WSG_MODEL_BUDGET` caps total schedules per
//! exploration (CI keeps it small), `WSG_MODEL_SEED` re-seeds the
//! sampling phase, `WSG_MODEL_SCHEDULE` replays one schedule instead of
//! exploring. Explicit builder calls override the environment.

mod clock;
mod exec;
mod rng;
mod schedule;

pub mod atomic;
pub mod sync;
pub mod thread;

use std::collections::BTreeSet;
use std::sync::Arc;
use std::sync::Once;

use exec::{run_one, Mode, RunResult};
use rng::{mix, SplitMix64};
pub use schedule::{ParseScheduleError, Schedule};

/// Cap on minimizer re-runs, so pathological failures cannot stall a
/// suite: minimization is best-effort, replayability is guaranteed
/// regardless.
const MINIMIZE_BUDGET: usize = 256;

/// One confirmed failing interleaving, minimized and replayable.
#[derive(Debug)]
pub struct Failure {
    /// What went wrong: a panic message (assertion), a deadlock report
    /// (lost wakeup), or a depth-limit trip (livelock).
    pub message: String,
    /// The minimized failing schedule; replaying it reproduces the
    /// failure byte-for-byte (`WSG_MODEL_SCHEDULE=<this>`).
    pub schedule: Schedule,
    /// Per-step operation trace of the minimized failing execution.
    pub trace: Vec<String>,
    /// The per-sample seed when the failure came from the sampling
    /// phase; `WSG_MODEL_SEED=<base seed>` reproduces the whole phase.
    pub sampled_seed: Option<u64>,
}

impl Failure {
    /// Human-readable report with the replay recipe.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.message);
        out.push_str(&format!("\n  replay: WSG_MODEL_SCHEDULE={}", self.schedule));
        if let Some(seed) = self.sampled_seed {
            out.push_str(&format!("\n  (found while sampling; per-sample seed {seed})"));
        }
        if !self.trace.is_empty() {
            out.push_str("\n  minimized failing trace:");
            for line in &self.trace {
                out.push_str("\n    ");
                out.push_str(line);
            }
        }
        out
    }
}

/// What one exploration did.
#[derive(Debug)]
pub struct Outcome {
    /// Executions run (DFS + sampling + the replay that produced the
    /// minimized trace counts as one more).
    pub schedules: usize,
    /// Distinct Mazurkiewicz trace classes seen — interleavings that
    /// only reorder operations on unrelated objects collapse into one.
    pub distinct_traces: usize,
    /// The DFS enumerated every schedule within the preemption bound.
    pub exhausted: bool,
    /// The first failure found, if any (exploration stops on it).
    pub failure: Option<Failure>,
}

impl Outcome {
    /// Panic with the full report if the exploration failed.
    fn assert_ok(&self, name: &str) {
        if let Some(failure) = &self.failure {
            panic!(
                "wsg_model: `{name}` failed after {} schedule(s)\n{}",
                self.schedules,
                failure.report()
            );
        }
    }
}

/// Builder for one exploration. Defaults: preemption bound 3, at most
/// 50 000 schedules, 64 sampled schedules beyond the bound, depth limit
/// 10 000 scheduling points. `WSG_MODEL_BUDGET` / `WSG_MODEL_SEED`
/// override the defaults; explicit builder calls override both.
pub struct Explorer {
    preemption_bound: usize,
    max_schedules: usize,
    samples: usize,
    seed: u64,
    dfs: bool,
}

/// Scheduling points allowed per execution before the run is failed as a
/// livelock.
const MAX_DEPTH: usize = 10_000;

impl Default for Explorer {
    fn default() -> Self {
        Explorer::new()
    }
}

impl Explorer {
    pub fn new() -> Self {
        let mut e = Explorer {
            preemption_bound: 3,
            max_schedules: 50_000,
            samples: 64,
            seed: 0x5753_5f47_6f73_7369, // "WS_Gossi"
            dfs: true,
        };
        if let Some(budget) = env_parse::<usize>("WSG_MODEL_BUDGET") {
            e.max_schedules = budget.max(1);
        }
        if let Some(seed) = env_parse::<u64>("WSG_MODEL_SEED") {
            e.seed = seed;
        }
        e
    }

    /// How many times a schedule may switch away from a still-runnable
    /// thread before switches are forced off. Bounds the DFS: most real
    /// concurrency bugs need very few preemptions (CHESS's observation).
    pub fn preemption_bound(mut self, bound: usize) -> Self {
        self.preemption_bound = bound;
        self
    }

    /// Hard cap on executions (DFS + sampling together).
    pub fn max_schedules(mut self, max: usize) -> Self {
        self.max_schedules = max.max(1);
        self
    }

    /// Randomly-sampled schedules run beyond the preemption bound after
    /// the DFS (0 disables the sampling phase).
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Base seed for the sampling phase (per-sample seeds derive from
    /// it, so one number replays the whole phase).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disable the exhaustive DFS phase (sampling only) — used by the
    /// seed-replay tests, rarely useful otherwise.
    pub fn sampling_only(mut self) -> Self {
        self.dfs = false;
        self
    }

    /// Run `body` under every schedule the configuration reaches.
    /// Stops at the first failure, minimizes it, and re-runs the
    /// minimized schedule once more to capture the trace.
    pub fn explore<F>(&self, body: F) -> Outcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_quiet_panic_hook();
        let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
        if let Ok(text) = std::env::var("WSG_MODEL_SCHEDULE") {
            // An empty/blank var (e.g. `WSG_MODEL_SCHEDULE= cargo test`)
            // means "no replay", matching the wsg_net::check env idiom.
            if !text.trim().is_empty() {
                let schedule: Schedule = text
                    .trim()
                    .parse()
                    .unwrap_or_else(|e| panic!("WSG_MODEL_SCHEDULE: {e}"));
                return self.replay(&body, &schedule);
            }
        }
        let mut seen = BTreeSet::new();
        let mut schedules = 0usize;
        let mut exhausted = false;
        let mut failure: Option<Failure> = None;

        if self.dfs {
            let mut prescribed: Vec<u32> = Vec::new();
            loop {
                if schedules >= self.max_schedules {
                    break;
                }
                let run = run_one(
                    &body,
                    prescribed.clone(),
                    Mode::Dfs,
                    self.preemption_bound,
                    MAX_DEPTH,
                    false,
                );
                schedules += 1;
                seen.insert(run.canon);
                if run.failure.is_some() {
                    failure = Some(self.finish_failure(&body, run, None, &mut schedules));
                    break;
                }
                match schedule::next_prescribed(&run.recorded) {
                    Some(next) => prescribed = next,
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
        }

        if failure.is_none() {
            for sample in 0..self.samples {
                if schedules >= self.max_schedules {
                    break;
                }
                let sample_seed = mix(self.seed, sample as u64);
                let run = run_one(
                    &body,
                    Vec::new(),
                    Mode::Sample(SplitMix64::new(sample_seed)),
                    usize::MAX,
                    MAX_DEPTH,
                    false,
                );
                schedules += 1;
                seen.insert(run.canon);
                if run.failure.is_some() {
                    failure =
                        Some(self.finish_failure(&body, run, Some(sample_seed), &mut schedules));
                    break;
                }
            }
        }

        Outcome { schedules, distinct_traces: seen.len(), exhausted, failure }
    }

    /// [`Explorer::explore`], panicking with the report on failure.
    pub fn check<F>(&self, name: &str, body: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.explore(body).assert_ok(name);
    }

    /// Run exactly one schedule (trace recording on). The preemption
    /// bound is lifted: recorded schedules already encode every switch,
    /// whatever bound found them.
    pub fn replay(&self, body: &Arc<dyn Fn() + Send + Sync>, schedule: &Schedule) -> Outcome {
        install_quiet_panic_hook();
        let run = run_one(
            body,
            schedule.0.clone(),
            Mode::Replay,
            usize::MAX,
            MAX_DEPTH,
            true,
        );
        let failed = run.failure.is_some();
        Outcome {
            schedules: 1,
            distinct_traces: 1,
            exhausted: false,
            failure: failed.then(|| Failure {
                message: run.failure.clone().unwrap_or_default(),
                schedule: Schedule::from_recorded(&run.recorded),
                trace: run.trace,
                sampled_seed: None,
            }),
        }
    }

    /// Minimize a failing run and capture its trace with one final
    /// replay.
    fn finish_failure(
        &self,
        body: &Arc<dyn Fn() + Send + Sync>,
        run: RunResult,
        sampled_seed: Option<u64>,
        schedules: &mut usize,
    ) -> Failure {
        let minimized = self.minimize(body, run.recorded, schedules);
        let schedule = Schedule::from_recorded(&minimized);
        let replayed = run_one(
            body,
            schedule.0.clone(),
            Mode::Replay,
            usize::MAX,
            MAX_DEPTH,
            true,
        );
        *schedules += 1;
        // A deterministic test must fail again on its own minimized
        // schedule; fall back to the original data if it somehow did not
        // (a nondeterministic body — the report still carries the facts).
        if replayed.failure.is_some() {
            Failure {
                message: replayed.failure.unwrap_or_default(),
                schedule: Schedule::from_recorded(&replayed.recorded),
                trace: replayed.trace,
                sampled_seed,
            }
        } else {
            Failure {
                message: format!(
                    "{} (warning: minimized schedule did not replay — is the test body \
                     deterministic?)",
                    run.failure.unwrap_or_default()
                ),
                schedule,
                trace: run.trace,
                sampled_seed,
            }
        }
    }

    /// Greedily revert choices to the default (alternative 0) while the
    /// failure persists, to a fixpoint. Each accepted simplification
    /// adopts the *recorded* choices of its own failing run, so the
    /// final schedule is self-consistent and replays byte-identically.
    fn minimize(
        &self,
        body: &Arc<dyn Fn() + Send + Sync>,
        mut best: Vec<schedule::Choice>,
        schedules: &mut usize,
    ) -> Vec<schedule::Choice> {
        let mut runs = 0usize;
        loop {
            let mut improved = false;
            for i in 0..best.len() {
                if best[i].index == 0 {
                    continue;
                }
                if runs >= MINIMIZE_BUDGET {
                    return best;
                }
                runs += 1;
                let mut prescribed: Vec<u32> = best.iter().map(|c| c.index).collect();
                prescribed[i] = 0;
                let run =
                    run_one(body, prescribed, Mode::Replay, usize::MAX, MAX_DEPTH, false);
                *schedules += 1;
                if run.failure.is_some() {
                    best = run.recorded;
                    improved = true;
                    break;
                }
            }
            if !improved {
                return best;
            }
        }
    }
}

/// Explore `body` with the default [`Explorer`] and panic with a
/// replayable report on failure.
pub fn check<F>(name: &str, body: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Explorer::new().check(name, body);
}

/// The OS thread driving the exploration the calling modeled thread
/// belongs to; `None` outside one. One thread drives every execution of
/// an exploration and concurrent explorations run on different threads,
/// so this keys per-exploration instances of what would otherwise be one
/// `static` shim object — a shim object registers with one execution at a
/// time and cannot be shared by explorations that run concurrently.
pub fn explorer() -> Option<std::thread::ThreadId> {
    exec::current().map(|ctx| ctx.exec.explorer)
}

/// Run `f`, catching an *expected* panic and returning its message as
/// `Err` — for model tests that assert a structure panics deliberately
/// (e.g. the lock-order detector reporting a cycle) without failing the
/// exploration. Scheduler teardown panics are transparently re-raised,
/// so a caught `Err` is always the structure's own panic.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => {
            if payload.is::<exec::ExecAbort>() {
                std::panic::resume_unwind(payload);
            }
            // `as_ref`, not `&payload`: the latter would coerce the Box
            // itself into `&dyn Any` and hide the real payload type.
            Err(exec::panic_message(payload.as_ref()))
        }
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Modeled threads fail by panicking (assertions) and unwind by
/// panicking (aborts) — thousands of times per exploration. Silence the
/// default "thread panicked" stderr chatter for them; every real failure
/// is reported, minimized, by the explorer itself.
fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let modeled = std::thread::current()
                .name()
                .is_some_and(|name| name.starts_with("wsg-model-"));
            if !modeled {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn shims_fall_back_to_real_primitives_outside_exploration() {
        let m = sync::Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);

        let a = atomic::AtomicUsize::new(5);
        assert_eq!(a.fetch_add(2, Ordering::SeqCst), 5);
        assert_eq!(a.load(Ordering::Acquire), 7);
        assert_eq!(a.fetch_max(3, Ordering::AcqRel), 7);
        assert_eq!(a.swap(1, Ordering::SeqCst), 7);

        let b = atomic::AtomicBool::new(false);
        b.store(true, Ordering::Release);
        assert!(b.load(Ordering::Acquire));
        assert!(b.swap(false, Ordering::SeqCst));

        let n = std::sync::Arc::new(sync::Notify::new());
        let n2 = std::sync::Arc::clone(&n);
        let h = thread::spawn(move || n2.wait());
        n.notify_one();
        h.join().unwrap();
    }

    #[test]
    fn single_threaded_body_runs_exactly_one_schedule() {
        let outcome = Explorer::new().samples(0).explore(|| {
            let a = atomic::AtomicUsize::new(0);
            a.store(3, Ordering::SeqCst);
            assert_eq!(a.load(Ordering::SeqCst), 3);
        });
        assert!(outcome.failure.is_none());
        assert!(outcome.exhausted);
        assert_eq!(outcome.schedules, 1);
        assert_eq!(outcome.distinct_traces, 1);
    }

    #[test]
    fn mutex_counter_is_race_free_across_interleavings() {
        let outcome = Explorer::new().samples(8).explore(|| {
            let counter = std::sync::Arc::new(sync::Mutex::new(0u32));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let counter = std::sync::Arc::clone(&counter);
                    thread::spawn(move || {
                        for _ in 0..2 {
                            *counter.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(*counter.lock(), 4);
        });
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        assert!(outcome.exhausted, "small test must be exhaustively explored");
        assert!(outcome.schedules > 1, "interleavings were actually enumerated");
    }

    #[test]
    fn deadlock_is_reported_as_a_failure() {
        let outcome = Explorer::new().samples(0).explore(|| {
            let n = std::sync::Arc::new(sync::Notify::new());
            let waiter = {
                let n = std::sync::Arc::clone(&n);
                thread::spawn(move || n.wait())
            };
            // No notify ever: the waiter parks forever.
            waiter.join().unwrap();
        });
        let failure = outcome.failure.expect("must deadlock");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
        assert!(failure.message.contains("Notify"), "{}", failure.message);
    }

    #[test]
    fn release_acquire_publication_always_observed() {
        // Release store + acquire load through a join: the reader must
        // see the write — no schedule may report a stale value.
        let outcome = Explorer::new().samples(8).explore(|| {
            let flag = std::sync::Arc::new(atomic::AtomicBool::new(false));
            let data = std::sync::Arc::new(atomic::AtomicUsize::new(0));
            let (f2, d2) = (std::sync::Arc::clone(&flag), std::sync::Arc::clone(&data));
            let writer = thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(true, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) {
                assert_eq!(data.load(Ordering::Relaxed), 42, "acquire must publish the store");
            }
            writer.join().unwrap();
        });
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure.map(|f| f.report()));
        assert!(outcome.exhausted);
    }

    #[test]
    fn relaxed_load_can_observe_stale_value() {
        // The same shape *without* release/acquire: some schedule sees
        // flag == true but data == 0. This is the A2 lint's raison
        // d'être, demonstrated executably.
        let outcome = Explorer::new().samples(0).explore(|| {
            let flag = std::sync::Arc::new(atomic::AtomicBool::new(false));
            let data = std::sync::Arc::new(atomic::AtomicUsize::new(0));
            let (f2, d2) = (std::sync::Arc::clone(&flag), std::sync::Arc::clone(&data));
            let writer = thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(true, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) {
                assert_eq!(data.load(Ordering::Relaxed), 42);
            }
            writer.join().unwrap();
        });
        let failure = outcome.failure.expect("relaxed publication must be caught");
        assert!(failure.message.contains("42"), "{}", failure.message);
    }

    #[test]
    fn notify_tokens_coalesce() {
        let outcome = Explorer::new().samples(8).explore(|| {
            let n = std::sync::Arc::new(sync::Notify::new());
            let n2 = std::sync::Arc::clone(&n);
            let h = thread::spawn(move || {
                n2.notify_one();
                n2.notify_one(); // coalesces into the same token
            });
            n.wait();
            h.join().unwrap();
            // A second wait here would deadlock in the schedule where
            // both notifies preceded the first wait — that coalescing is
            // exactly the modeled semantics.
        });
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure.map(|f| f.report()));
    }
}
