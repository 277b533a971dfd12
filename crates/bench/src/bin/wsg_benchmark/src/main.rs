//! `wsg_benchmark` — the repository's benchmark.
//!
//! ```text
//! wsg_benchmark run --workload <name|all> --seed N [--seconds S] [--trace [0|1]]
//!                   [--smoke] [--subscribers N]
//! wsg_benchmark selfcheck [--seed A] [--seed-b B] [--seconds S] [--smoke]
//! wsg_benchmark manifest
//! ```
//!
//! `run` on one workload measures in this process and ends with one JSON
//! line: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`: an untraced reference window, a traced window, then the
//! stage replays). `run --workload all` and `selfcheck` give every
//! workload a fresh child process, so CPU time, peak memory, threads and
//! sockets never leak from one workload into the next. `manifest` prints
//! `BENCHMARK.json` from the tables in `metrics.rs` and `fleet.rs`.
//! README.md beside this package explains the workloads and metrics.

mod fleet;
mod load;
mod metrics;
mod probe;
mod stages;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use fleet::{Options, Workload, WORKLOADS};
use metrics::{parse_result_line, result_line, unit_of, ResultLine, Values, END_TO_END, PER_LAYER};

/// Length of the measured window, and `run_seconds` in `BENCHMARK.json`.
/// The issue asks for 30 s; the driver's total-time cap (92 runs, each
/// with three set-ups, warm-up and quiescence, inside 3420 s) leaves 20.
const RUN_SECONDS: u64 = 20;

/// The command `BENCHMARK.json` gives the driver.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "crates/bench/src/bin/wsg_benchmark/Cargo.toml",
    "--",
    "run",
];

/// The directory that holds this package and nothing else.
const PATHS: &[&str] = &["crates/bench/src/bin/wsg_benchmark"];

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seed_b: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    subscribers: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        seed: 17,
        seed_b: None,
        seconds: None,
        trace: false,
        smoke: false,
        subscribers: 8,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {text}"))
        };
        match flag {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = number(value()?)? as u64,
            "--seed-b" => parsed.seed_b = Some(number(value()?)? as u64),
            "--seconds" => parsed.seconds = Some(number(value()?)?),
            "--subscribers" => parsed.subscribers = number(value()?)? as usize,
            "--smoke" => parsed.smoke = true,
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    parsed.trace = false;
                    i += 1;
                }
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !(1..=62).contains(&parsed.subscribers) {
        return Err("--subscribers must be between 1 and 62".to_string());
    }
    if parsed.seconds.is_some_and(|s| !(0.5..=60.0).contains(&s)) {
        return Err("--seconds must be between 0.5 and 60".to_string());
    }
    Ok(parsed)
}

impl Args {
    fn options(&self, workload: &Workload) -> Options {
        // Set-up on ClusterRuntime waits for heartbeat gossip to converge,
        // which takes one to four 100 ms rounds depending on the seed:
        // seven set-ups bring its median where three bring the others'.
        let setups = if workload.churn { 7 } else { 3 };
        Options {
            seed: self.seed,
            seconds: self
                .seconds
                .unwrap_or(if self.smoke { 2.0 } else { RUN_SECONDS as f64 }),
            warmup_s: if self.smoke { 1.0 } else { 3.0 },
            subscribers: self.subscribers,
            setups: if self.smoke || self.trace { 1 } else { setups },
            trace: self.trace,
            capture: false,
        }
    }

    fn stage_calls(&self) -> usize {
        if self.smoke {
            2_000
        } else {
            20_000
        }
    }
}

fn print_values(workload: &str, values: &Values) {
    for (name, value) in values {
        println!("{workload:<15} {name:<40} {value:>16.4} {}", unit_of(name));
    }
}

/// Measure one workload in this process; the last line printed is the
/// driver's JSON result.
fn run_one(workload: &Workload, args: &Args) -> Result<bool, String> {
    let opts = args.options(workload);
    println!(
        "# {} seed={} seconds={} trace={} subscribers={} cores={}",
        workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.subscribers,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut report = fleet::run(workload, &opts)?;
    for note in &report.notes {
        println!("{:<15} {note}", workload.name);
    }
    let values = if opts.trace {
        // Stage replays first in the table, then the traced window.
        let mut values = stages::run(opts.seed, args.stage_calls())?;
        values.append(&mut report.per_layer);
        if let Some(missing) = PER_LAYER
            .iter()
            .find(|m| !values.iter().any(|(n, _)| *n == m.name))
        {
            return Err(format!(
                "per-layer metric {} was not measured",
                missing.name
            ));
        }
        values
    } else {
        report.end_to_end
    };
    print_values(workload.name, &values);
    for violation in &report.violations {
        println!("{:<15} VIOLATION {violation}", workload.name);
    }
    let correct = report.violations.is_empty();
    println!(
        "{}",
        result_line(correct, report.attempted.max(1), report.failed, &values)
    );
    Ok(correct)
}

/// Run one workload in a fresh child process, echoing what it prints.
fn run_child(workload: &str, args: &Args, seed: u64, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--subscribers", &args.subscribers.to_string()]);
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    let Some(result) = parse_result_line(last) else {
        return Err(format!("{workload}: no result line ({})", output.status));
    };
    Ok(ResultLine {
        correct: result.correct && output.status.success(),
        ..result
    })
}

/// `run --workload all`: every workload in its own process, plus the
/// traced rerun when asked.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    for workload in WORKLOADS {
        let plain = run_child(workload.name, args, args.seed, false)?;
        correct &= plain.correct;
        if args.trace {
            correct &= run_child(workload.name, args, args.seed, true)?.correct;
        }
    }
    println!(
        "# all workloads {}",
        if correct { "correct" } else { "INCORRECT" }
    );
    Ok(correct)
}

/// `selfcheck`: the end-to-end set twice (A/A, or seed A against seed B),
/// each pair of values against the metric's bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let seed_b = args.seed_b.unwrap_or(args.seed);
    let mut pass = true;
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let a = run_child(workload.name, args, args.seed, false)?;
        let b = run_child(workload.name, args, seed_b, false)?;
        pass &= a.correct && b.correct;
        for spec in END_TO_END {
            let value = |r: &ResultLine| {
                r.metrics
                    .iter()
                    .find(|(n, _)| n == spec.name)
                    .map_or(f64::NAN, |(_, v)| *v)
            };
            let (first, second) = (value(&a), value(&b));
            // Positive = the second run is worse.
            let worse = match spec.better {
                "lower" => (second - first) / first,
                _ => (first - second) / first,
            };
            let ok = worse.is_finite() && worse <= spec.bound;
            pass &= ok;
            rows.push(format!(
                "{:<15} {:<22} {first:>14.4} {second:>14.4} {:>+8.2}% bound {:>5.1}%  {}",
                workload.name,
                spec.name,
                worse * 100.0,
                spec.bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            ));
        }
    }
    println!(
        "# selfcheck: seed {} against seed {seed_b}; worse = second run against first",
        args.seed
    );
    for row in rows {
        println!("{row}");
    }
    println!("# selfcheck {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

/// `BENCHMARK.json`, rendered from the tables the program measures by.
fn manifest() -> String {
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strings(COMMAND),
        strings(PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        Some("selfcheck") => parse_args(&args[1..]).and_then(|args| selfcheck(&args)),
        Some("run") => parse_args(&args[1..]).and_then(|args| {
            if args.workload == "all" {
                return run_all(&args);
            }
            let workload = WORKLOADS
                .iter()
                .find(|w| w.name == args.workload)
                .ok_or_else(|| format!("unknown workload {}", args.workload))?;
            run_one(workload, &args)
        }),
        _ => Err(
            "usage: wsg_benchmark <run|selfcheck|manifest> [options] (see README.md)".to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("wsg_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let driver = parse_args(&strings(&[
            "--workload",
            "steady_small",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]))
        .expect("driver arguments parse");
        assert!(!driver.trace);
        assert_eq!(
            (driver.workload.as_str(), driver.seed, driver.seconds),
            ("steady_small", 3, Some(20.0))
        );
        assert!(
            parse_args(&strings(&["--trace", "1"]))
                .expect("parses")
                .trace
        );
        let bare = parse_args(&strings(&["--trace", "--smoke"])).expect("parses");
        assert!(bare.trace && bare.smoke);
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `wsg_benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_fits_the_contract() {
        let text = manifest();
        assert!(text.len() < 64 * 1024);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
        assert!(COMMAND.len() <= 32);
        assert!(PATHS
            .iter()
            .all(|p| COMMAND.iter().any(|c| c.starts_with(p))));
    }

    /// The smoke run end to end: every end-to-end metric of the manifest
    /// is printed under its name, and the outputs are correct.
    #[test]
    fn smoke_run_prints_every_end_to_end_metric() {
        let args = Args {
            smoke: true,
            ..parse_args(&[]).expect("defaults")
        };
        let report =
            fleet::run(&WORKLOADS[0], &args.options(&WORKLOADS[0])).expect("smoke fleet runs");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let names: Vec<&str> = report.end_to_end.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert!(
            report
                .end_to_end
                .iter()
                .all(|(_, v)| v.is_finite() && *v > 0.0),
            "{:?}",
            report.end_to_end
        );
        let line = result_line(true, report.attempted, report.failed, &report.end_to_end);
        let parsed = parse_result_line(&line).expect("parses");
        assert!(parsed.attempted > 0);
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
    }
}
