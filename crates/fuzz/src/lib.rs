//! # wsg_fuzz — coverage-guided fuzzing for the WS-Gossip wire parsers
//!
//! Every byte that reaches a gossip node flows through one of five
//! hand-rolled parsers: HTTP/1.1 framing, the XML pull reader, the SOAP
//! envelope, the `urn:ws-gossip:batch` wire, and the WS-Membership
//! binding. The paper's availability argument assumes nodes fail only by
//! crashing — not by *being* crashed by a hostile byte string — so this
//! crate is the third leg of the correctness-tooling stack (after
//! `wsg_lint`'s static rules and `wsg_model`'s schedule exploration): a
//! zero-dependency coverage-guided fuzzer in the AFL/libFuzzer tradition
//! (DESIGN.md §14).
//!
//! * **Feedback** comes from `wsg_net::cov` — `cov!()` callsites on the
//!   parsers' branch points, compiled in with `RUSTFLAGS="--cfg wsg_cov"`.
//!   An input that lights up a new `(edge, count-bucket)` pair joins the
//!   corpus. Without the cfg the engine still runs (mutation + oracles),
//!   it just never grows the corpus beyond the seeds.
//! * **Mutation** (`mutate`) is deterministic on `wsg_net::rng`: byte
//!   mutators (bitflips, splices, repeats, truncation, interesting
//!   values) plus structure-aware ones that work at token granularity
//!   (swap/duplicate XML tags, corrupt `Content-Length`, shuffle batch
//!   segments).
//! * **Oracles** ([`targets`]) go beyond "no panic": parse → serialise →
//!   parse fixed points, `parse_wire` byte-identity recovery, chunked vs
//!   whole-buffer HTTP agreement, and parser-limit enforcement.
//! * **Reproducibility**: the whole run is a pure function of
//!   (`WSG_FUZZ_SEED`, budget, seed corpus). A crashing input is
//!   minimized by the same shrink-by-halving philosophy as
//!   `wsg_net::check` and can be replayed via `WSG_FUZZ_INPUT`.
//!
//! Environment variables (all optional):
//!
//! | variable         | meaning                                          |
//! |------------------|--------------------------------------------------|
//! | `WSG_FUZZ_SEED`  | engine RNG seed (default 0)                      |
//! | `WSG_FUZZ_BUDGET`| iterations (`5000`) or wall time (`10s`/`500ms`) |
//! | `WSG_FUZZ_INPUT` | path of one input to replay (CLI, with --target) |

pub mod corpus;
mod mutate;
pub mod seeds;
pub mod targets;

use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, Once};

use wsg_net::cov;
use wsg_net::rng::RngExt;
use wsg_net::SplitMix64;

use targets::FuzzTarget;

/// FNV-1a over a byte string — used for stable input fingerprints in the
/// admission trajectory and for per-target RNG streams (same constants as
/// `wsg_net::check`'s name hashing).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Engine parameters. The run is a pure function of these plus the seeds.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base RNG seed (xor-mixed with the target name's hash so that every
    /// target gets an independent deterministic stream).
    pub seed: u64,
    /// Mutation iterations after the seed replay.
    pub budget: u64,
    /// Optional wall-clock cap in milliseconds; whichever budget runs out
    /// first ends the loop.
    pub wall_ms: Option<u64>,
    /// Inputs larger than this are truncated after mutation.
    pub max_len: usize,
    /// Stop after this many distinct crashes/oracle violations.
    pub max_crashes: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            budget: 2_000,
            wall_ms: None,
            max_len: 1 << 16,
            max_crashes: 4,
        }
    }
}

impl FuzzConfig {
    /// Read `WSG_FUZZ_SEED` / `WSG_FUZZ_BUDGET` over the defaults.
    pub fn from_env() -> Self {
        let mut config = FuzzConfig::default();
        if let Ok(seed) = std::env::var("WSG_FUZZ_SEED") {
            if let Ok(seed) = seed.trim().parse::<u64>() {
                config.seed = seed;
            }
        }
        if let Ok(budget) = std::env::var("WSG_FUZZ_BUDGET") {
            let (iterations, wall_ms) = parse_budget(budget.trim());
            if let Some(iterations) = iterations {
                config.budget = iterations;
            }
            config.wall_ms = wall_ms;
        }
        config
    }
}

/// Parse a `WSG_FUZZ_BUDGET` value: a bare integer is an iteration count,
/// a `10s` / `1500ms` suffix is a wall-clock cap (with the iteration
/// budget left effectively unbounded so the clock is what stops the run).
pub fn parse_budget(value: &str) -> (Option<u64>, Option<u64>) {
    if let Some(ms) = value.strip_suffix("ms") {
        return (Some(u64::MAX), ms.trim().parse::<u64>().ok());
    }
    if let Some(secs) = value.strip_suffix('s') {
        return (
            Some(u64::MAX),
            secs.trim().parse::<u64>().ok().map(|s| s.saturating_mul(1_000)),
        );
    }
    (value.parse::<u64>().ok(), None)
}

/// One distinct failure found by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crash {
    /// `panic: …` payload or `oracle: …` violation message.
    pub message: String,
    /// The mutated input that first triggered the failure.
    pub input: Vec<u8>,
    /// Shrink-by-halving minimized form (still fails with `message`).
    pub minimized: Vec<u8>,
    /// Iteration at which the failure surfaced (0 = a seed itself fails).
    pub iteration: u64,
}

/// Everything a fuzzing run produced, sufficient to compare two runs for
/// determinism byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzOutcome {
    /// Target name.
    pub target: &'static str,
    /// Total executions (seeds + mutations + minimization probes are NOT
    /// counted here; this is the main-loop execution count).
    pub executions: u64,
    /// Final corpus: seeds plus every admitted input, in admission order.
    pub corpus: Vec<Vec<u8>>,
    /// `(iteration, fnv64(input))` for every admission — the corpus
    /// trajectory the determinism test compares.
    pub(crate) admissions: Vec<(u64, u64)>,
    /// Aggregate `(edge, bucket)` coverage map over the whole run.
    pub coverage: BTreeSet<(u32, u8)>,
    /// Coverage pairs first reached by a *mutated* input (i.e. beyond
    /// what the seed corpus already covered).
    pub new_edges: usize,
    /// Distinct failures, in discovery order.
    pub crashes: Vec<Crash>,
}

// The cov table is process-global, so concurrent engine runs would blend
// their feedback signals; every entry point that touches the table
// serialises here. `unwrap_or_else(into_inner)` keeps the lock usable
// after a poisoning panic (the engine itself catches target panics, so
// poisoning can only come from a bug in the harness).
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    static IN_FUZZ_EXEC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Suppress the default "thread panicked at …" stderr noise for panics
/// the engine catches, without hiding panics from anything else (same
/// idea as `wsg_model::install_quiet_panic_hook`, but flag-based because
/// the engine runs on the caller's thread).
fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_FUZZ_EXEC.with(|flag| flag.get()) {
                previous(info);
            }
        }));
    });
}

/// Run `input` through `target` once, catching panics, and snapshot the
/// edge coverage it produced. Internal: assumes the engine lock is held.
fn execute(target: &dyn FuzzTarget, input: &[u8]) -> (Result<(), String>, Vec<(u32, u8)>) {
    cov::reset();
    IN_FUZZ_EXEC.with(|flag| flag.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| target.run(input)));
    IN_FUZZ_EXEC.with(|flag| flag.set(false));
    let coverage = cov::snapshot();
    let outcome = match result {
        Ok(Ok(())) => Ok(()),
        Ok(Err(oracle)) => Err(format!("oracle: {oracle}")),
        Err(payload) => Err(format!("panic: {}", payload_message(payload.as_ref()))),
    };
    (outcome, coverage)
}

/// Run one input through a target, panic-safely — the public form used by
/// corpus replay tests and `WSG_FUZZ_INPUT` replay.
pub fn run_input(target: &dyn FuzzTarget, input: &[u8]) -> Result<(), String> {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_quiet_panic_hook();
    execute(target, input).0
}

/// Shrink a failing input by removing ever-smaller chunks while the same
/// failure message reproduces — the `wsg_net::check` shrinking philosophy
/// (halve, retry, halve again) applied to a byte string. Bounded by a
/// fixed probe budget so a pathological failure cannot stall the run.
fn minimize(target: &dyn FuzzTarget, input: &[u8], message: &str) -> Vec<u8> {
    let mut current = input.to_vec();
    let mut probes = 4_096usize;
    let still_fails = |candidate: &[u8], probes: &mut usize| -> bool {
        *probes = probes.saturating_sub(1);
        matches!(&execute(target, candidate).0, Err(m) if m == message)
    };
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut i = 0;
        while i + chunk <= current.len() && probes > 0 {
            let mut candidate = current.clone();
            candidate.drain(i..i + chunk);
            if still_fails(&candidate, &mut probes) {
                current = candidate;
                progressed = true;
                // The suffix shifted left onto `i`; retry the same offset.
            } else {
                i += chunk;
            }
        }
        if probes == 0 || (chunk == 1 && !progressed) {
            return current;
        }
        if !progressed {
            chunk /= 2;
        } else {
            chunk = chunk.min(current.len().max(1));
        }
        if chunk == 0 {
            return current;
        }
    }
}

/// The coverage-guided mutation loop.
///
/// Replays `seeds` (admitting them all), then mutates corpus picks for
/// `config.budget` iterations, admitting inputs that reach novel
/// `(edge, bucket)` coverage and minimizing every distinct failure. The
/// outcome is a deterministic function of `(seeds, config)` for a given
/// build — the property the determinism self-test pins.
pub fn fuzz(target: &dyn FuzzTarget, seeds: &[Vec<u8>], config: &FuzzConfig) -> FuzzOutcome {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_quiet_panic_hook();

    let mut rng = SplitMix64::new(config.seed ^ fnv64(target.name().as_bytes()));
    let mut seen: BTreeSet<(u32, u8)> = BTreeSet::new();
    let mut corpus: Vec<Vec<u8>> = Vec::new();
    let mut admissions: Vec<(u64, u64)> = Vec::new();
    let mut crashes: Vec<Crash> = Vec::new();
    let mut executions: u64 = 0;

    // wsg_lint: allow(wall-clock) — the optional WSG_FUZZ_BUDGET wall cap
    // exists to bound CI time; determinism holds per-iteration regardless.
    let started = config.wall_ms.map(|_| std::time::Instant::now());

    let default_seed: Vec<Vec<u8>>;
    let seeds: &[Vec<u8>] = if seeds.is_empty() {
        default_seed = vec![Vec::new()];
        &default_seed
    } else {
        seeds
    };

    for seed in seeds {
        let (result, coverage) = execute(target, seed);
        executions += 1;
        for pair in coverage {
            seen.insert(pair);
        }
        if let Err(message) = result {
            if !crashes.iter().any(|c| c.message == message) {
                let minimized = minimize(target, seed, &message);
                crashes.push(Crash { message, input: seed.clone(), minimized, iteration: 0 });
            }
        }
        corpus.push(seed.clone());
    }
    let seed_coverage = seen.len();

    for iteration in 1..=config.budget {
        if crashes.len() >= config.max_crashes {
            break;
        }
        if let (Some(started), Some(wall_ms)) = (started, config.wall_ms) {
            if started.elapsed().as_millis() as u64 >= wall_ms {
                break;
            }
        }
        let mut input = rng.choose(&corpus).cloned().unwrap_or_default();
        mutate::mutate(&mut input, &corpus, &mut rng, config.max_len);
        let (result, coverage) = execute(target, &input);
        executions += 1;
        let mut novel = false;
        for pair in coverage {
            if seen.insert(pair) {
                novel = true;
            }
        }
        match result {
            Err(message) => {
                if !crashes.iter().any(|c| c.message == message) {
                    let minimized = minimize(target, &input, &message);
                    crashes.push(Crash { message, input, minimized, iteration });
                }
            }
            Ok(()) => {
                if novel {
                    admissions.push((iteration, fnv64(&input)));
                    corpus.push(input);
                }
            }
        }
    }

    FuzzOutcome {
        target: target.name(),
        executions,
        corpus,
        admissions,
        new_edges: seen.len() - seed_coverage,
        coverage: seen,
        crashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_distinguishes_inputs() {
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_eq!(fnv64(b"same"), fnv64(b"same"));
    }

    #[test]
    fn parse_budget_forms() {
        assert_eq!(parse_budget("5000"), (Some(5_000), None));
        assert_eq!(parse_budget("10s"), (Some(u64::MAX), Some(10_000)));
        assert_eq!(parse_budget("250ms"), (Some(u64::MAX), Some(250)));
        assert_eq!(parse_budget("junk"), (None, None));
    }

    #[test]
    fn run_input_catches_panics() {
        let planted = targets::Planted;
        let err = run_input(&planted, b"xxBOOMxx").unwrap_err();
        assert!(err.starts_with("panic: "), "{err}");
        assert!(run_input(&planted, b"calm").is_ok());
    }

    #[test]
    fn minimize_reduces_to_the_trigger() {
        let planted = targets::Planted;
        let _guard = ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install_quiet_panic_hook();
        let message = execute(&planted, b"noise BOOM more noise").0.unwrap_err();
        let minimized = minimize(&planted, b"noise BOOM more noise", &message);
        assert_eq!(minimized, b"BOOM");
    }
}
