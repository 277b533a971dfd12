//! `wsg_fuzz` CLI — run the coverage-guided sweep, replay one input, or
//! regenerate the committed seed corpus.
//!
//! ```text
//! wsg_fuzz [--all | --target NAME]... [--budget N|Ns|Nms] [--seed N]
//!          [--save] [--assert-coverage]
//! wsg_fuzz --target NAME --replay FILE     (also: WSG_FUZZ_INPUT=FILE)
//! wsg_fuzz --write-seeds                   (regenerate fuzz/corpus seeds)
//! ```
//!
//! Exit codes: `0` clean, `1` crashes or oracle violations were found,
//! `2` usage error or `--assert-coverage` failure.

use std::process::ExitCode;

use wsg_fuzz::targets::{all_targets, target_by_name, FuzzTarget};
use wsg_fuzz::{corpus, fnv64, run_input, seeds, FuzzConfig};

struct Cli {
    targets: Vec<Box<dyn FuzzTarget>>,
    config: FuzzConfig,
    save: bool,
    assert_coverage: bool,
    replay: Option<String>,
    write_seeds: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        targets: Vec::new(),
        config: FuzzConfig::from_env(),
        save: false,
        assert_coverage: false,
        replay: std::env::var("WSG_FUZZ_INPUT").ok(),
        write_seeds: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--all" => cli.targets = all_targets(),
            "--target" => {
                let name = value("--target")?;
                cli.targets
                    .push(target_by_name(&name).ok_or(format!("unknown target '{name}'"))?);
            }
            "--budget" => {
                let spec = value("--budget")?;
                let (iterations, wall_ms) = wsg_fuzz::parse_budget(&spec);
                cli.config.budget = iterations.ok_or(format!("bad --budget '{spec}'"))?;
                cli.config.wall_ms = wall_ms;
            }
            "--seed" => {
                cli.config.seed =
                    value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--save" => cli.save = true,
            "--assert-coverage" => cli.assert_coverage = true,
            "--replay" => cli.replay = Some(value("--replay")?),
            "--write-seeds" => cli.write_seeds = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if cli.targets.is_empty() {
        cli.targets = all_targets();
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("wsg_fuzz: {error}");
            return ExitCode::from(2);
        }
    };

    if cli.write_seeds {
        return match seeds::write() {
            Ok(count) => {
                println!("wrote {count} seed inputs under {}", corpus::corpus_root().display());
                ExitCode::SUCCESS
            }
            Err(error) => {
                eprintln!("wsg_fuzz: --write-seeds: {error}");
                ExitCode::from(2)
            }
        };
    }

    if let Some(path) = &cli.replay {
        let input = match std::fs::read(path) {
            Ok(input) => input,
            Err(error) => {
                eprintln!("wsg_fuzz: cannot read {path}: {error}");
                return ExitCode::from(2);
            }
        };
        let mut failed = false;
        for target in &cli.targets {
            match run_input(target.as_ref(), &input) {
                Ok(()) => println!("{}: ok ({} bytes)", target.name(), input.len()),
                Err(message) => {
                    failed = true;
                    println!("{}: FAIL — {message}", target.name());
                }
            }
        }
        return if failed { ExitCode::from(1) } else { ExitCode::SUCCESS };
    }

    let mut any_crash = false;
    let mut coverage_ok = true;
    for target in &cli.targets {
        let mut seeds = corpus::seeds(target.name()).unwrap_or_default();
        seeds.extend(corpus::regressions(target.name()).unwrap_or_default());
        let outcome = wsg_fuzz::fuzz(target.as_ref(), &seeds, &cli.config);
        println!(
            "{:<11} execs={:<7} corpus={:<4} edges={:<4} new-edges={:<4} crashes={}",
            outcome.target,
            outcome.executions,
            outcome.corpus.len(),
            outcome.coverage.iter().map(|(edge, _)| edge).collect::<std::collections::BTreeSet<_>>().len(),
            outcome.new_edges,
            outcome.crashes.len(),
        );
        if cli.save {
            for input in &outcome.corpus[seeds.len().min(outcome.corpus.len())..] {
                if let Err(err) = corpus::save(&corpus::dir_for(target.name()), input) {
                    eprintln!("wsg_fuzz: saving {} corpus entry failed: {err}", target.name());
                }
            }
            for crash in &outcome.crashes {
                if let Ok(path) =
                    corpus::save(&corpus::regressions_for(target.name()), &crash.minimized)
                {
                    println!("  saved regression {}", path.display());
                }
            }
        }
        for crash in &outcome.crashes {
            any_crash = true;
            println!(
                "  crash at iteration {} ({} bytes, minimized {}): {}",
                crash.iteration,
                crash.input.len(),
                crash.minimized.len(),
                crash.message
            );
            println!("  minimized input hash {:016x}", fnv64(&crash.minimized));
        }
        if cli.assert_coverage && outcome.new_edges == 0 {
            coverage_ok = false;
            eprintln!("wsg_fuzz: target {} discovered no new edges", outcome.target);
        }
    }
    if cli.assert_coverage && !wsg_net::cov::enabled() {
        eprintln!("wsg_fuzz: --assert-coverage requires RUSTFLAGS=\"--cfg wsg_cov\"");
        coverage_ok = false;
    }
    if !coverage_ok {
        ExitCode::from(2)
    } else if any_crash {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
