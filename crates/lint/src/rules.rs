//! The lint rule catalogue and the token-stream rule engine.
//!
//! Every rule protects a project invariant (see DESIGN.md "Static
//! analysis"):
//!
//! * **D1 `hash-collections`** — no `HashMap`/`HashSet` in protocol and
//!   simulation crates. Their iteration order is nondeterministic, which
//!   breaks the bit-identical-trace guarantee.
//! * **D2 `wall-clock`** — no `Instant::now`/`SystemTime`/`UNIX_EPOCH`
//!   outside `wsg_bench::timing` and `wsg_http`. Simulated protocols run
//!   on virtual `SimTime`; a wall-clock read makes a run a function of
//!   the host.
//! * **D3 `ambient-rng`** — no ambient randomness (`thread_rng`,
//!   `OsRng`, `rand::`, `RandomState`, …). All randomness flows through
//!   `wsg_net::rng` so a run is a pure function of its seed.
//! * **P1 `panic-path`** — no `.unwrap()`/`.expect()`/`panic!`-family
//!   macros in the HTTP server/client/parser hot paths or inside
//!   `Protocol`/`Handler` trait impls. A panicking worker thread takes
//!   down a node silently; handlers must return faults instead.
//! * **H1 `registry-deps`** — every `Cargo.toml` dependency must be a
//!   `path`/`workspace` dependency (see `manifest`). Enforced over
//!   manifests, listed here for the catalogue.
//! * **M1 `allow-grammar`** — meta rule: malformed `wsg_lint:` comments
//!   or allows naming unknown rules are themselves diagnostics, so a
//!   typo cannot silently disable a rule.
//! * **O1 `metric-name`** — literal metric names passed to the
//!   `wsg_obs::Registry` register methods must match the exposition
//!   grammar `[a-z][a-z0-9_]*`, so a misnamed metric fails the build
//!   instead of panicking at first registration in production.
//! * **A2 `atomic-ordering`** — `Ordering::Relaxed` only in the audited
//!   stats-counter modules (`A2_RELAXED_FILES`). Relaxed provides no
//!   inter-thread synchronization; anywhere data is published across
//!   threads it silently reorders, so every other use must carry an
//!   audit note in an allow comment.
//! * **E2 `error-swallowing`** — no silently discarded fallible results
//!   (`let _ = …;` or a statement-terminated `.ok();`) outside tests.
//!   A swallowed `Err` on a send/write/join path hides partitions and
//!   shutdown races; discards must be logged, counted, or justified
//!   with an allow comment *that states a reason*.
//! * **T1 `socket-timeout`** — blocking socket calls (`accept`,
//!   `connect`, `read_exact`, `write_all`, …) in the live-transport
//!   crates (`wsg_http`, `wsg_cluster`) must share their enclosing `fn`
//!   with a `set_*_timeout` call or another timeout-named identifier,
//!   so a hung peer cannot park a worker thread forever.
//! * **F1 `cov-scope`** — the `cov!()` edge-instrumentation macro only
//!   in the designated wire-parser modules (`F1_COV_FILES`). Edge ids
//!   are compile-time hashes of their callsite, so scattered probes
//!   dilute the fuzzer's coverage map and drag the `wsg_cov` cfg into
//!   crates that should not know about it.
//!
//! Rules run on the `lexer` token stream, never on raw text, so
//! occurrences inside strings, raw strings, char literals and comments
//! cannot fire. Code under `#[cfg(test)]` / `#[test]` is exempt: tests
//! may use wall-clock timeouts and hash sets freely.
//!
//! ## Allow-listing
//!
//! `// wsg_lint: allow(<rule>[, <rule>...])` suppresses the named rules
//! (by name `hash-collections` or id `D1`; `all` matches every rule) on
//! the comment's own line when it trails code, or on the next line of
//! code when it stands alone. Unused allows are reported and fail the
//! build under `--deny-all`, so suppressions cannot outlive the code
//! they justify.

use crate::lexer::{lex, Token, TokenKind};

/// A lint rule's identity, as shown in diagnostics and the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Short id (`D1`).
    pub id: &'static str,
    /// Kebab-case name used in allow comments (`hash-collections`).
    pub name: &'static str,
    /// One-line summary for `--list`.
    pub summary: &'static str,
}

/// The full rule catalogue.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D1",
        name: "hash-collections",
        summary: "no HashMap/HashSet in protocol/sim crates (nondeterministic iteration)",
    },
    Rule {
        id: "D2",
        name: "wall-clock",
        summary: "no Instant::now/SystemTime outside wsg_bench::timing and wsg_http",
    },
    Rule {
        id: "D3",
        name: "ambient-rng",
        summary: "no ambient randomness; all RNG flows through wsg_net::rng",
    },
    Rule {
        id: "P1",
        name: "panic-path",
        summary: "no unwrap/expect/panic! in HTTP hot paths or Protocol/Handler impls",
    },
    Rule {
        id: "H1",
        name: "registry-deps",
        summary: "Cargo.toml dependencies must be path-only (hermetic build)",
    },
    Rule {
        id: "M1",
        name: "allow-grammar",
        summary: "wsg_lint allow comments must parse and name known rules",
    },
    Rule {
        id: "O1",
        name: "metric-name",
        summary: "registered metric names must match [a-z][a-z0-9_]*",
    },
    Rule {
        id: "A2",
        name: "atomic-ordering",
        summary: "Ordering::Relaxed only in audited stats-counter modules",
    },
    Rule {
        id: "E2",
        name: "error-swallowing",
        summary: "no silently discarded Results (let _ = / .ok();) outside tests",
    },
    Rule {
        id: "T1",
        name: "socket-timeout",
        summary: "socket I/O in live-transport crates must pair with a timeout",
    },
    Rule {
        id: "F1",
        name: "cov-scope",
        summary: "cov!() edge instrumentation only in the designated parser modules",
    },
];

/// Look a rule up by id or name.
pub(crate) fn rule(id_or_name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id_or_name || r.name == id_or_name)
}

/// One finding, pointing at a workspace-relative file and 1-based line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: &'static Rule,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.file, self.line, self.rule.id, self.rule.name, self.message
        )
    }
}

/// An allow comment that suppressed nothing — stale suppressions are
/// reported so they cannot outlive the violation they justified.
#[derive(Debug, Clone)]
pub struct StaleAllow {
    pub file: String,
    pub line: u32,
    pub rules: String,
}

/// Result of linting one `.rs` source file.
#[derive(Debug, Default)]
pub(crate) struct FileReport {
    pub(crate) diagnostics: Vec<Diagnostic>,
    pub(crate) stale_allows: Vec<StaleAllow>,
}

struct Allow {
    comment_line: u32,
    covered_line: u32,
    rules: Vec<String>,
    used: bool,
}

/// Lint one source file. `rel_path` is the workspace-relative path with
/// `/` separators; rule scoping keys off it.
pub(crate) fn check_source(rel_path: &str, src: &str) -> FileReport {
    let tokens = lex(src);
    let code: Vec<Token<'_>> = tokens.iter().copied().filter(|t| !t.is_comment()).collect();

    let mut report = FileReport::default();
    let mut allows = collect_allows(rel_path, &tokens, &code, &mut report.diagnostics);
    let test_ranges = test_regions(&code);
    let impl_ranges = handler_impl_regions(&code);

    let in_src = rel_path.starts_with("crates/") && rel_path.contains("/src/");
    let d1 = in_src && in_d1_scope(rel_path);
    let d2 = in_src && in_d2_scope(rel_path);
    let d3 = in_src && rel_path != "crates/net/src/rng.rs";
    let p1_file = in_src && P1_FILES.contains(&rel_path);
    let a2 = in_src && !A2_RELAXED_FILES.contains(&rel_path);
    let f1 = in_src && !F1_COV_FILES.contains(&rel_path);
    let t1 = in_src && in_t1_scope(rel_path);
    let fn_ranges = if t1 { fn_regions(&code) } else { Vec::new() };

    let in_range = |ranges: &[(usize, usize)], i: usize| {
        ranges.iter().any(|&(lo, hi)| i >= lo && i <= hi)
    };

    let mut raw = Vec::new();
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || in_range(&test_ranges, i) {
            continue;
        }
        if d1 {
            if let Some(d) = check_d1(rel_path, &code, i) {
                raw.push(d);
            }
        }
        if d2 {
            if let Some(d) = check_d2(rel_path, &code, i) {
                raw.push(d);
            }
        }
        if d3 {
            if let Some(d) = check_d3(rel_path, &code, i) {
                raw.push(d);
            }
        }
        if p1_file || (in_src && in_range(&impl_ranges, i)) {
            if let Some(d) = check_p1(rel_path, &code, i) {
                raw.push(d);
            }
        }
        if in_src {
            if let Some(d) = check_o1(rel_path, &code, i) {
                raw.push(d);
            }
        }
        if a2 {
            if let Some(d) = check_a2(rel_path, &code, i) {
                raw.push(d);
            }
        }
        if f1 {
            if let Some(d) = check_f1(rel_path, &code, i) {
                raw.push(d);
            }
        }
        if in_src {
            if let Some(d) = check_e2(rel_path, &code, i) {
                raw.push(d);
            }
        }
        if t1 {
            if let Some(d) = check_t1(rel_path, &code, i, &fn_ranges) {
                raw.push(d);
            }
        }
    }

    for diag in raw {
        let suppressed = allows.iter_mut().any(|a| {
            a.covered_line == diag.line
                && a.rules.iter().any(|r| {
                    r == "all" || r == diag.rule.id || r == diag.rule.name
                })
                && {
                    a.used = true;
                    true
                }
        });
        if !suppressed {
            report.diagnostics.push(diag);
        }
    }

    for a in allows.into_iter().filter(|a| !a.used) {
        report.stale_allows.push(StaleAllow {
            file: rel_path.to_string(),
            line: a.comment_line,
            rules: a.rules.join(", "),
        });
    }

    report
}

// ---------------------------------------------------------------- scopes

/// Crates whose state must iterate deterministically: everything that
/// feeds the simulated protocol traces.
const D1_SCOPE_DIRS: &[&str] = &[
    "crates/core/src/",
    "crates/gossip/src/",
    "crates/coord/src/",
    "crates/membership/src/",
    "crates/cluster/src/",
    "crates/baselines/src/",
];

/// Simulation-side files of `wsg_net` (the rest of the crate hosts the
/// real-time thread runtime, which D1 does not constrain), plus the wire
/// batching modules: per-peer FIFO drain order is part of the batch
/// format's contract, so its queues must iterate deterministically.
const D1_SCOPE_FILES: &[&str] = &[
    "crates/net/src/sim.rs",
    "crates/net/src/faults.rs",
    "crates/soap/src/batch.rs",
    "crates/http/src/batch.rs",
];

fn in_d1_scope(path: &str) -> bool {
    D1_SCOPE_DIRS.iter().any(|d| path.starts_with(d)) || D1_SCOPE_FILES.contains(&path)
}

fn in_d2_scope(path: &str) -> bool {
    // wsg_bench::timing is the one sanctioned stopwatch; wsg_http runs
    // on real sockets and so legitimately lives on the wall clock.
    path != "crates/bench/src/timing.rs" && !path.starts_with("crates/http/src/")
}

/// HTTP hot-path files where a panic kills a worker thread or a client
/// request without a fault envelope.
const P1_FILES: &[&str] = &[
    "crates/http/src/server.rs",
    "crates/http/src/client.rs",
    "crates/http/src/parser.rs",
    "crates/http/src/batch.rs",
    "crates/soap/src/batch.rs",
    "crates/soap/src/gossip.rs",
];

/// Audited stats-counter modules where `Ordering::Relaxed` is the point:
/// monotone counters read for human display, never used to publish other
/// data across threads. Everywhere else Relaxed needs an audit note.
const A2_RELAXED_FILES: &[&str] = &[
    "crates/obs/src/lib.rs",
    "crates/bench/src/timing.rs",
    "crates/bench/src/sweep.rs",
    // Coverage hit counters: monotonic per-edge tallies read only after
    // the fuzz loop quiesces — classic stats-counter Relaxed.
    "crates/net/src/cov.rs",
];

/// Live-transport crates whose blocking socket calls must carry
/// timeouts: everything else either runs on the simulated network or
/// never touches a socket.
fn in_t1_scope(path: &str) -> bool {
    path.starts_with("crates/http/src/") || path.starts_with("crates/cluster/src/")
}

/// The wire-parser modules `wsg_fuzz` instruments: the only places the
/// `cov!()` edge-hit macro may appear (plus its defining module). The
/// list is the fuzzer's instrumentation contract — extending coverage to
/// a new parse path means extending this list in the same change.
const F1_COV_FILES: &[&str] = &[
    "crates/net/src/cov.rs",
    "crates/http/src/parser.rs",
    "crates/xml/src/reader.rs",
    "crates/soap/src/envelope.rs",
    "crates/soap/src/batch.rs",
    "crates/soap/src/gossip.rs",
    "crates/cluster/src/proto.rs",
];

// ---------------------------------------------------------------- rules

fn seq_path_call(code: &[Token<'_>], i: usize, head: &str, tail: &str) -> bool {
    code[i].is_ident(head)
        && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 3).is_some_and(|t| t.is_ident(tail))
}

fn check_d1(file: &str, code: &[Token<'_>], i: usize) -> Option<Diagnostic> {
    let tok = code[i];
    if tok.text == "HashMap" || tok.text == "HashSet" {
        return Some(Diagnostic {
            file: file.to_string(),
            line: tok.line,
            rule: rule("D1").unwrap(),
            message: format!(
                "{} iterates in nondeterministic order and breaks bit-identical traces; \
                 use BTreeMap/BTreeSet (or justify with `// wsg_lint: allow(hash-collections)`)",
                tok.text
            ),
        });
    }
    None
}

fn check_d2(file: &str, code: &[Token<'_>], i: usize) -> Option<Diagnostic> {
    let tok = code[i];
    let hit = if seq_path_call(code, i, "Instant", "now") {
        Some("Instant::now()")
    } else if tok.text == "SystemTime" {
        Some("SystemTime")
    } else if tok.text == "UNIX_EPOCH" {
        Some("UNIX_EPOCH")
    } else {
        None
    };
    hit.map(|what| Diagnostic {
        file: file.to_string(),
        line: tok.line,
        rule: rule("D2").unwrap(),
        message: format!(
            "{what} reads the wall clock; simulated code must use SimTime and measurement \
             code must go through wsg_bench::timing (or justify with \
             `// wsg_lint: allow(wall-clock)`)"
        ),
    })
}

/// Identifiers that smell like ambient (non-seeded) randomness.
const D3_IDENTS: &[&str] =
    &["thread_rng", "ThreadRng", "OsRng", "StdRng", "from_entropy", "getrandom", "RandomState"];

fn check_d3(file: &str, code: &[Token<'_>], i: usize) -> Option<Diagnostic> {
    let tok = code[i];
    let is_rand_path = tok.is_ident("rand")
        && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && code.get(i + 2).is_some_and(|t| t.is_punct(':'));
    if D3_IDENTS.contains(&tok.text) || is_rand_path {
        return Some(Diagnostic {
            file: file.to_string(),
            line: tok.line,
            rule: rule("D3").unwrap(),
            message: format!(
                "`{}` is ambient randomness; every random decision must flow through a seeded \
                 wsg_net::rng generator so runs are pure functions of their seed",
                tok.text
            ),
        });
    }
    None
}

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

fn check_p1(file: &str, code: &[Token<'_>], i: usize) -> Option<Diagnostic> {
    let tok = code[i];
    let method_call = (tok.text == "unwrap" || tok.text == "expect")
        && i > 0
        && code[i - 1].is_punct('.')
        && code.get(i + 1).is_some_and(|t| t.is_punct('('));
    let macro_call =
        PANIC_MACROS.contains(&tok.text) && code.get(i + 1).is_some_and(|t| t.is_punct('!'));
    if method_call || macro_call {
        let what = if method_call {
            format!(".{}()", tok.text)
        } else {
            format!("{}!", tok.text)
        };
        return Some(Diagnostic {
            file: file.to_string(),
            line: tok.line,
            rule: rule("P1").unwrap(),
            message: format!(
                "{what} in a hot path or Protocol/Handler impl: a panic here kills a worker \
                 or node silently — return an error/fault instead (or justify with \
                 `// wsg_lint: allow(panic-path)`)"
            ),
        });
    }
    None
}

/// The `wsg_obs::Registry` get-or-register entry points. A literal first
/// argument is the metric name; anything else (a variable, a `format!`)
/// is out of static reach and left to the runtime validation.
const O1_REGISTER_FNS: &[&str] = &[
    "register_counter",
    "register_gauge",
    "register_histogram",
    "register_counter_family",
    "register_gauge_family",
    "register_histogram_family",
];

/// The exposition name grammar, mirrored from `wsg_obs::valid_metric_name`
/// (kept in sync by `wsg_obs`'s tests; duplicated so the linter stays
/// dependency-free).
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn check_o1(file: &str, code: &[Token<'_>], i: usize) -> Option<Diagnostic> {
    let tok = code[i];
    let is_register_call = O1_REGISTER_FNS.contains(&tok.text)
        && i > 0
        && code[i - 1].is_punct('.')
        && code.get(i + 1).is_some_and(|t| t.is_punct('('));
    if !is_register_call {
        return None;
    }
    let arg = code.get(i + 2)?;
    if arg.kind != TokenKind::Str {
        return None; // dynamic name: checked at runtime by the registry
    }
    let name = arg.text.trim_start_matches('b').trim_matches('"');
    if valid_metric_name(name) {
        return None;
    }
    Some(Diagnostic {
        file: file.to_string(),
        line: arg.line,
        rule: rule("O1").unwrap(),
        message: format!(
            "metric name {:?} violates the exposition grammar [a-z][a-z0-9_]*; \
             scrapers reject it and the registry panics at first registration",
            name
        ),
    })
}

fn check_a2(file: &str, code: &[Token<'_>], i: usize) -> Option<Diagnostic> {
    if !seq_path_call(code, i, "Ordering", "Relaxed") {
        return None;
    }
    Some(Diagnostic {
        file: file.to_string(),
        line: code[i].line,
        rule: rule("A2").unwrap(),
        message: "Ordering::Relaxed provides no inter-thread synchronization; outside the \
                  audited stats-counter modules use Acquire/Release (or record the audit with \
                  `// wsg_lint: allow(atomic-ordering)`)"
            .to_string(),
    })
}

fn check_f1(file: &str, code: &[Token<'_>], i: usize) -> Option<Diagnostic> {
    let tok = code[i];
    // The invocation shape `cov!(` — a `cov` path segment (`use …::cov;`,
    // `cov::reset()`) or `cov != x` does not fire.
    if !(tok.is_ident("cov")
        && code.get(i + 1).is_some_and(|t| t.is_punct('!'))
        && code.get(i + 2).is_some_and(|t| t.is_punct('(')))
    {
        return None;
    }
    Some(Diagnostic {
        file: file.to_string(),
        line: tok.line,
        rule: rule("F1").unwrap(),
        message: "cov!() outside the designated parser modules dilutes the fuzzer's edge map; \
                  instrument a new parse path by adding its file to F1_COV_FILES in the same \
                  change (or justify with `// wsg_lint: allow(cov-scope)`)"
            .to_string(),
    })
}

fn check_e2(file: &str, code: &[Token<'_>], i: usize) -> Option<Diagnostic> {
    let tok = code[i];
    let let_discard = tok.is_ident("let")
        && code.get(i + 1).is_some_and(|t| t.is_ident("_"))
        && code.get(i + 2).is_some_and(|t| t.is_punct('='))
        && !code.get(i + 3).is_some_and(|t| t.is_punct('='));
    // Only the statement-terminated form discards: `.ok()?` and
    // `.ok().map(..)` consume the Option and are fine.
    let ok_discard = tok.is_ident("ok")
        && i > 0
        && code[i - 1].is_punct('.')
        && code.get(i + 1).is_some_and(|t| t.is_punct('('))
        && code.get(i + 2).is_some_and(|t| t.is_punct(')'))
        && code.get(i + 3).is_some_and(|t| t.is_punct(';'));
    if !(let_discard || ok_discard) {
        return None;
    }
    let what = if let_discard { "`let _ = …;`" } else { "`.ok();`" };
    Some(Diagnostic {
        file: file.to_string(),
        line: tok.line,
        rule: rule("E2").unwrap(),
        message: format!(
            "{what} swallows a fallible result silently; log it, count it, or justify it \
             with `// wsg_lint: allow(error-swallowing) — <reason>` (the reason is required)"
        ),
    })
}

/// Blocking socket entry points whose callers must hold a deadline. The
/// match is a method/assoc call (`.accept(` / `TcpStream::connect(`), so
/// `fn read_exact` definitions and plain idents do not fire.
const T1_SOCKET_OPS: &[&str] =
    &["accept", "connect", "read_exact", "read_to_end", "read_to_string", "read_line", "write_all"];

fn check_t1(
    file: &str,
    code: &[Token<'_>],
    i: usize,
    fn_ranges: &[(usize, usize, bool)],
) -> Option<Diagnostic> {
    let tok = code[i];
    if !T1_SOCKET_OPS.contains(&tok.text)
        || !code.get(i + 1).is_some_and(|t| t.is_punct('('))
        || !(i > 0 && (code[i - 1].is_punct('.') || code[i - 1].is_punct(':')))
    {
        return None;
    }
    // Innermost enclosing fn (fn regions nest properly, so the one with
    // the greatest start is the innermost). A call outside any fn (e.g.
    // a const initializer) has no worker thread to hang and is skipped.
    let &(_, _, has_timeout) = fn_ranges
        .iter()
        .filter(|&&(lo, hi, _)| i >= lo && i <= hi)
        .max_by_key(|&&(lo, _, _)| lo)?;
    if has_timeout {
        return None;
    }
    Some(Diagnostic {
        file: file.to_string(),
        line: tok.line,
        rule: rule("T1").unwrap(),
        message: format!(
            "`{}(…)` blocks on a socket with no timeout in its enclosing fn; a hung peer \
             parks this worker forever — pair it with set_read_timeout/set_write_timeout \
             or a *_timeout call (or justify with `// wsg_lint: allow(socket-timeout)`)",
            tok.text
        ),
    })
}

// ------------------------------------------------------------ allow parsing

fn collect_allows(
    file: &str,
    tokens: &[Token<'_>],
    code: &[Token<'_>],
    diags: &mut Vec<Diagnostic>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for tok in tokens.iter().filter(|t| t.is_comment()) {
        // A directive must START the comment (after the `//`/`/*`/doc
        // sigils) — prose that merely mentions the grammar is ignored.
        let content = tok.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = content.strip_prefix("wsg_lint:") else { continue };
        let rest = rest.trim_start();
        let bad = |msg: &str, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                file: file.to_string(),
                line: tok.line,
                rule: rule("M1").unwrap(),
                message: msg.to_string(),
            });
        };
        let Some((inner, after)) = rest.strip_prefix("allow(").and_then(|r| {
            // Take up to the matching close paren on this comment.
            r.find(')').map(|end| (&r[..end], &r[end + 1..]))
        }) else {
            bad(
                "malformed wsg_lint comment: expected `wsg_lint: allow(<rule>[, <rule>...])`",
                diags,
            );
            continue;
        };
        let names: Vec<String> =
            inner.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
        if names.is_empty() {
            bad("empty wsg_lint allow list", diags);
            continue;
        }
        let mut ok = true;
        for name in &names {
            if name != "all" && rule(name).is_none() {
                bad(&format!("unknown lint rule `{name}` in allow comment"), diags);
                ok = false;
            }
        }
        if !ok {
            continue;
        }
        // An error-swallowing suppression must say *why* the discard is
        // safe: the reason is the audit trail. Anything alphanumeric
        // after the close paren counts; a bare `allow(E2)` does not.
        let wants_e2 = names.iter().any(|n| n == "E2" || n == "error-swallowing");
        if wants_e2 && !after.chars().any(char::is_alphanumeric) {
            bad(
                "allow(error-swallowing) requires a reason after the close paren, e.g. \
                 `// wsg_lint: allow(E2) — receiver gone means shutdown`",
                diags,
            );
            continue;
        }
        // A trailing comment covers its own line; a standalone comment
        // covers the next line that carries code.
        let trailing = code.iter().any(|t| t.line == tok.line);
        let covered_line = if trailing {
            tok.line
        } else {
            match code.iter().find(|t| t.line > tok.line) {
                Some(next) => next.line,
                None => tok.line,
            }
        };
        allows.push(Allow { comment_line: tok.line, covered_line, rules: names, used: false });
    }
    allows
}

// ------------------------------------------------- region computation

/// Token-index ranges (inclusive) covered by `#[cfg(test)]` / `#[test]`
/// items. Heuristic, but exact for this workspace's layout: the
/// attribute target runs to the matching close brace of its body, or to
/// the first top-level `;` for braceless items.
fn test_regions(code: &[Token<'_>]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < code.len() {
        if !(code[i].is_punct('#') && code[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let (attr_idents, after_attr) = read_attribute(code, i);
        if !is_test_attribute(&attr_idents) {
            i = after_attr;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = after_attr;
        while j + 1 < code.len() && code[j].is_punct('#') && code[j + 1].is_punct('[') {
            let (_, next) = read_attribute(code, j);
            j = next;
        }
        let end = item_end(code, j);
        regions.push((i, end));
        i = end + 1;
    }
    regions
}

/// Read `#[...]` starting at `i` (pointing at `#`). Returns the idents
/// inside and the index just past the closing `]`.
fn read_attribute<'a>(code: &[Token<'a>], i: usize) -> (Vec<&'a str>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (idents, j + 1);
            }
        } else if t.kind == TokenKind::Ident {
            idents.push(t.text);
        }
        j += 1;
    }
    (idents, code.len())
}

fn is_test_attribute(idents: &[&str]) -> bool {
    match idents {
        ["test"] => true,
        _ => {
            idents.contains(&"cfg")
                && idents.contains(&"test")
                && !idents.contains(&"not")
        }
    }
}

/// The index of the token ending the item starting at `start`: the
/// matching `}` of its first top-level brace, or the first top-level `;`.
fn item_end(code: &[Token<'_>], start: usize) -> usize {
    let mut j = start;
    let mut paren = 0i32;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct(';') && paren == 0 {
            return j;
        } else if t.is_punct('{') && paren == 0 {
            return match_brace(code, j);
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(code: &[Token<'_>], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < code.len() {
        if code[j].is_punct('{') {
            depth += 1;
        } else if code[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}

/// Token ranges of every `fn` item (including nested fns), tagged with
/// whether the fn's tokens mention a timeout anywhere — a
/// `set_read_timeout`/`connect_timeout` call, a `read_timeout` field, a
/// `TIMEOUT` const. T1 judges socket calls against the innermost range.
fn fn_regions(code: &[Token<'_>]) -> Vec<(usize, usize, bool)> {
    let mut regions = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("fn")
            || !code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            continue;
        }
        let end = item_end(code, i);
        let has_timeout = code[i..=end.min(code.len() - 1)]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text.to_ascii_lowercase().contains("timeout"));
        regions.push((i, end, has_timeout));
    }
    regions
}

/// Body token ranges of `impl <Trait> for <Type>` blocks where the trait
/// is `Protocol` or `Handler` — the message/request handler surfaces the
/// paper's Layer concept maps onto.
fn handler_impl_regions(code: &[Token<'_>]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !code[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Scan the impl header up to its body `{` at angle-depth 0,
        // remembering the last path segment before a depth-0 `for`.
        let mut angle = 0i32;
        let mut last_ident: Option<&str> = None;
        let mut trait_name: Option<&str> = None;
        let mut j = i + 1;
        let mut body = None;
        while j < code.len() {
            let t = code[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                // `->` in an fn type does not close a generic list.
                if !(j > 0 && code[j - 1].is_punct('-')) {
                    angle -= 1;
                }
            } else if t.is_punct('{') && angle <= 0 {
                body = Some(j);
                break;
            } else if t.is_punct(';') && angle <= 0 {
                break;
            } else if t.kind == TokenKind::Ident {
                if t.text == "for" && angle <= 0 && trait_name.is_none() {
                    trait_name = last_ident;
                } else if angle <= 0 {
                    last_ident = Some(t.text);
                }
            }
            j += 1;
        }
        let Some(open) = body else {
            i = j + 1;
            continue;
        };
        let close = match_brace(code, open);
        if matches!(trait_name, Some("Protocol") | Some("Handler")) {
            regions.push((open, close));
        }
        // Nested impls inside fn bodies are rare; restart after the
        // header so inner impls (e.g. in test mods) are still seen.
        i = open + 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(path: &str, src: &str) -> Vec<String> {
        check_source(path, src)
            .diagnostics
            .into_iter()
            .map(|d| format!("{}:{}", d.rule.id, d.line))
            .collect()
    }

    const COORD: &str = "crates/coord/src/fake.rs";

    #[test]
    fn d1_fires_on_hashmap_in_protocol_crate() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n";
        assert_eq!(lint_at(COORD, src), vec!["D1:1", "D1:2"]);
    }

    #[test]
    fn d1_silent_outside_scope() {
        let src = "use std::collections::HashMap;\n";
        assert!(lint_at("crates/xml/src/reader.rs", src).is_empty());
        assert!(lint_at("crates/coord/tests/integration.rs", src).is_empty());
    }

    #[test]
    fn d1_silent_in_strings_comments_rawstrings() {
        let src = concat!(
            "// HashMap in a comment\n",
            "/* HashSet in a block comment */\n",
            "const A: &str = \"HashMap::new()\";\n",
            "const B: &str = r#\"HashSet of \"things\"\"#;\n",
            "const C: char = 'H';\n",
        );
        assert!(lint_at(COORD, src).is_empty());
    }

    #[test]
    fn d1_silent_under_cfg_test() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::collections::HashSet;\n",
            "    #[test]\n",
            "    fn t() { let _ = HashSet::<u32>::new(); }\n",
            "}\n",
        );
        assert!(lint_at(COORD, src).is_empty());
    }

    #[test]
    fn d1_fires_after_cfg_test_block_ends() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests { }\n",
            "type T = std::collections::HashMap<u8, u8>;\n",
        );
        assert_eq!(lint_at(COORD, src), vec!["D1:3"]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { let _: std::collections::HashMap<u8,u8>; }\n";
        assert_eq!(lint_at(COORD, src), vec!["D1:2"]);
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "use std::collections::HashMap; // wsg_lint: allow(hash-collections)\n";
        let report = check_source(COORD, src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(report.stale_allows.is_empty());
    }

    #[test]
    fn standalone_allow_covers_next_line() {
        let src = concat!(
            "// wsg_lint: allow(D1) — keys never iterated\n",
            "use std::collections::HashMap;\n",
            "use std::collections::HashSet;\n",
        );
        assert_eq!(lint_at(COORD, src), vec!["D1:3"]);
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// wsg_lint: allow(hash-collections)\nfn nothing_wrong() {}\n";
        let report = check_source(COORD, src);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.stale_allows.len(), 1);
    }

    #[test]
    fn unknown_rule_in_allow_is_m1() {
        let src = "// wsg_lint: allow(hash-colections)\nfn f() {}\n";
        let report = check_source(COORD, src);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule.id, "M1");
    }

    #[test]
    fn malformed_allow_is_m1() {
        let src = "// wsg_lint: allowing everything\nfn f() {}\n";
        let report = check_source(COORD, src);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule.id, "M1");
    }

    #[test]
    fn d2_fires_on_instant_now_and_systemtime() {
        let src = "fn f() { let t = std::time::Instant::now(); }\nfn g() -> SystemTime { todo() }\n";
        assert_eq!(lint_at("crates/net/src/threads.rs", src), vec!["D2:1", "D2:2"]);
    }

    #[test]
    fn d2_allows_instant_as_a_type() {
        // Storing or adding to an Instant passed in is fine; only the
        // `::now` read is ambient.
        let src = "fn f(start: Instant) -> Duration { start.elapsed() }\n";
        assert!(lint_at("crates/net/src/threads.rs", src).is_empty());
    }

    #[test]
    fn d2_exempt_in_timing_and_http() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(lint_at("crates/bench/src/timing.rs", src).is_empty());
        assert!(lint_at("crates/http/src/server.rs", src).is_empty());
    }

    #[test]
    fn d3_fires_on_ambient_rng() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        let hits = lint_at("crates/gossip/src/engine.rs", src);
        assert!(hits.contains(&"D3:1".to_string()), "{hits:?}");
    }

    #[test]
    fn d3_exempt_in_rng_module() {
        let src = "struct RandomState;\n";
        assert!(lint_at("crates/net/src/rng.rs", src).is_empty());
    }

    #[test]
    fn p1_fires_in_http_files_outside_tests() {
        let src = concat!(
            "fn serve() { stream.set_write_timeout(t).unwrap(); }\n",
            "fn fail() { panic!(\"boom\"); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { serve().unwrap(); }\n",
            "}\n",
        );
        assert_eq!(lint_at("crates/http/src/server.rs", src), vec!["P1:1", "P1:2"]);
    }

    #[test]
    fn p1_fires_inside_protocol_impls_only() {
        let src = concat!(
            "fn free() { x.unwrap(); }\n", // not in an impl: no diagnostic
            "impl<T: Clone> Protocol for Node<T> {\n",
            "    fn on_message(&mut self) { self.x.unwrap(); }\n",
            "}\n",
            "impl Handler for H {\n",
            "    fn handle(&mut self) { unreachable!() }\n",
            "}\n",
            "impl Node<u8> {\n",
            "    fn inherent(&self) { y.expect(\"fine here\"); }\n",
            "}\n",
        );
        assert_eq!(lint_at("crates/gossip/src/engine.rs", src), vec!["P1:3", "P1:6"]);
    }

    #[test]
    fn p1_ignores_unwrap_or_variants() {
        let src = "impl Protocol for N { fn f(&self) { x.unwrap_or(0); y.unwrap_or_default(); } }\n";
        assert!(lint_at("crates/gossip/src/engine.rs", src).is_empty());
    }

    #[test]
    fn p1_impls_inside_test_mods_are_exempt() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    impl Protocol for Fake { fn f(&self) { x.unwrap(); } }\n",
            "}\n",
        );
        assert!(lint_at("crates/gossip/src/engine.rs", src).is_empty());
    }

    #[test]
    fn debug_impl_is_not_a_handler() {
        let src = "impl std::fmt::Debug for Chain { fn fmt(&self) { x.unwrap(); } }\n";
        assert!(lint_at("crates/gossip/src/engine.rs", src).is_empty());
    }

    #[test]
    fn o1_fires_on_bad_literal_metric_names() {
        let src = concat!(
            "fn f(r: &Registry) {\n",
            "    r.register_counter(\"Wsg_Bad_Total\", \"help\");\n",
            "    r.register_gauge_family(\"wsg-dashes\", \"help\", &[\"l\"]);\n",
            "    r.register_histogram(\"wsg_good_micros\", \"help\");\n",
            "}\n",
        );
        assert_eq!(lint_at("crates/obs/src/fake.rs", src), vec!["O1:2", "O1:3"]);
    }

    #[test]
    fn o1_ignores_dynamic_names_and_non_method_calls() {
        let src = concat!(
            "fn f(r: &Registry, name: &str) {\n",
            "    r.register_counter(name, \"help\");\n", // dynamic: runtime's job
            "    register_counter(\"NOT A METHOD\", \"help\");\n", // free fn, not the registry
            "}\n",
        );
        assert!(lint_at("crates/obs/src/fake.rs", src).is_empty());
    }

    #[test]
    fn o1_silent_in_tests() {
        let src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(r: &Registry) { r.register_counter(\"BAD\", \"h\"); }\n",
            "}\n",
        );
        assert!(lint_at("crates/obs/src/fake.rs", src).is_empty());
    }

    #[test]
    fn o1_grammar_matches_wsg_obs() {
        assert!(valid_metric_name("wsg_gossip_published_total"));
        assert!(valid_metric_name("a"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("_leading"));
        assert!(!valid_metric_name("9starts_with_digit"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name("UpperCase"));
    }

    #[test]
    fn rule_lookup_by_id_and_name() {
        assert_eq!(rule("D1").unwrap().name, "hash-collections");
        assert_eq!(rule("wall-clock").unwrap().id, "D2");
        assert_eq!(rule("atomic-ordering").unwrap().id, "A2");
        assert_eq!(rule("E2").unwrap().name, "error-swallowing");
        assert_eq!(rule("socket-timeout").unwrap().id, "T1");
        assert_eq!(rule("cov-scope").unwrap().id, "F1");
        assert!(rule("nope").is_none());
    }

    #[test]
    fn a2_fires_on_relaxed_outside_the_allowlist() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(lint_at("crates/net/src/sync.rs", src), vec!["A2:1"]);
    }

    #[test]
    fn a2_silent_in_allowlisted_stats_modules_and_tests() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        for file in A2_RELAXED_FILES {
            assert!(lint_at(file, src).is_empty(), "{file} must be exempt");
        }
        let test_src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n",
            "}\n",
        );
        assert!(lint_at("crates/net/src/sync.rs", test_src).is_empty());
    }

    #[test]
    fn a2_silent_on_other_orderings_and_non_code_text() {
        let src = concat!(
            "// Ordering::Relaxed in a comment\n",
            "const DOC: &str = r#\"Ordering::Relaxed // with a fake comment\"#;\n",
            "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Acquire) }\n",
        );
        assert!(lint_at("crates/net/src/sync.rs", src).is_empty());
    }

    #[test]
    fn f1_fires_on_cov_macro_outside_the_designated_parsers() {
        let src = "fn f() { cov!(); parse(); }\n";
        assert_eq!(lint_at("crates/gossip/src/engine.rs", src), vec!["F1:1"]);
    }

    #[test]
    fn f1_silent_in_designated_files_paths_and_tests() {
        let src = "fn f() { cov!(); }\n";
        for file in F1_COV_FILES {
            assert!(lint_at(file, src).is_empty(), "{file} must be exempt");
        }
        let paths = concat!(
            "use wsg_net::cov;\n",
            "fn f(a: u32) -> bool { cov::reset(); let cov = a; cov != 3 }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { cov!(); }\n",
            "}\n",
        );
        assert!(lint_at("crates/gossip/src/engine.rs", paths).is_empty());
    }

    #[test]
    fn f1_allow_comment_suppresses() {
        let src = "fn f() { cov!(); } // wsg_lint: allow(cov-scope)\n";
        let report = check_source("crates/gossip/src/engine.rs", src);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(report.stale_allows.is_empty());
    }

    #[test]
    fn e2_fires_on_let_discard_and_terminal_ok() {
        let src = concat!(
            "fn f(tx: &Sender<u32>) {\n",
            "    let _ = tx.send(1);\n",
            "    tx.send(2).ok();\n",
            "}\n",
        );
        assert_eq!(lint_at("crates/gossip/src/engine.rs", src), vec!["E2:2", "E2:3"]);
    }

    #[test]
    fn e2_ignores_consumed_ok_named_discards_and_tests() {
        let src = concat!(
            "fn f(s: &str) -> Option<u32> { s.parse().ok() }\n",
            "fn g(s: &str) -> Option<u32> { let v = s.parse::<u32>().ok()?; Some(v) }\n",
            "fn h(tx: &Sender<u32>) { let _ignored = tx.send(1); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(tx: &Sender<u32>) { let _ = tx.send(1); tx.send(2).ok(); }\n",
            "}\n",
        );
        assert!(lint_at("crates/gossip/src/engine.rs", src).is_empty());
    }

    #[test]
    fn e2_allow_requires_a_reason() {
        let with_reason = concat!(
            "fn f(tx: &Sender<u32>) {\n",
            "    // wsg_lint: allow(E2) — receiver gone means shutdown\n",
            "    let _ = tx.send(1);\n",
            "}\n",
        );
        let report = check_source("crates/gossip/src/engine.rs", with_reason);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(report.stale_allows.is_empty());

        let bare = concat!(
            "fn f(tx: &Sender<u32>) {\n",
            "    // wsg_lint: allow(E2)\n",
            "    let _ = tx.send(1);\n",
            "}\n",
        );
        let hits = lint_at("crates/gossip/src/engine.rs", bare);
        assert_eq!(hits, vec!["M1:2", "E2:3"], "a reasonless allow must not suppress");
    }

    #[test]
    fn t1_fires_on_untimed_socket_calls_in_transport_crates_only() {
        let src = concat!(
            "fn dial(addr: &str) -> io::Result<TcpStream> {\n",
            "    TcpStream::connect(addr)\n",
            "}\n",
        );
        assert_eq!(lint_at("crates/http/src/client.rs", src), vec!["T1:2"]);
        assert_eq!(lint_at("crates/cluster/src/transport.rs", src), vec!["T1:2"]);
        assert!(lint_at("crates/net/src/threads.rs", src).is_empty(), "out of T1 scope");
    }

    #[test]
    fn t1_silent_when_the_enclosing_fn_mentions_a_timeout() {
        let src = concat!(
            "fn dial(addr: &SocketAddr) -> io::Result<TcpStream> {\n",
            "    let s = TcpStream::connect_timeout(addr, IO_TIMEOUT)?;\n",
            "    s.set_read_timeout(Some(IO_TIMEOUT))?;\n",
            "    s.read_exact(&mut buf)?;\n",
            "    Ok(s)\n",
            "}\n",
        );
        assert!(lint_at("crates/http/src/client.rs", src).is_empty());
    }

    #[test]
    fn t1_judges_the_innermost_fn() {
        // The outer fn knows a timeout; the nested helper does not.
        let src = concat!(
            "fn outer(l: &TcpListener) {\n",
            "    let t = ACCEPT_TIMEOUT;\n",
            "    fn inner(l: &TcpListener) { let _c = l.accept(); }\n",
            "    inner(l);\n",
            "}\n",
        );
        let hits = lint_at("crates/http/src/server.rs", src);
        assert!(hits.contains(&"T1:3".to_string()), "{hits:?}");
    }

    #[test]
    fn t1_ignores_definitions_and_plain_idents() {
        let src = concat!(
            "impl Read for Framed {\n",
            "    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> { self.fill(buf) }\n",
            "}\n",
            "fn doc() { let accept = 1; let _use = accept; }\n",
        );
        assert!(lint_at("crates/http/src/parser.rs", src).is_empty());
    }
}
