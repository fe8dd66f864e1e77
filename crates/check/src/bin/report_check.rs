//! Differential & property-fuzz harness driver.
//!
//! ```sh
//! # Check a seed range (exit code 1 on any finding):
//! cargo run --release -p ptsim-check --bin report_check -- --seeds 50
//!
//! # Reproduce one finding deterministically:
//! cargo run --release -p ptsim-check --bin report_check -- --replay 1234
//!
//! # Machine-readable output:
//! cargo run --release -p ptsim-check --bin report_check -- --seeds 50 --json
//! ```

use ptsim_check::{run_seed_filtered, SuiteReport, ORACLES};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    seeds: u64,
    start: u64,
    replay: Option<u64>,
    json: bool,
    oracle: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seeds: 25, start: 0, replay: None, json: false, oracle: None };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let mut num = |name: &str| -> Result<u64, String> {
            value(name)?.parse().map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--seeds" => args.seeds = num("--seeds")?,
            "--start" => args.start = num("--start")?,
            "--replay" => args.replay = Some(num("--replay")?),
            "--json" => args.json = true,
            "--oracle" => {
                let name = value("--oracle")?;
                if !ORACLES.iter().any(|o| o.name == name) {
                    let known: Vec<&str> = ORACLES.iter().map(|o| o.name).collect();
                    return Err(format!("--oracle: unknown oracle {name:?}; known: {known:?}"));
                }
                args.oracle = Some(name);
            }
            "--help" | "-h" => {
                println!(
                    "usage: report_check [--seeds N] [--start S] [--replay SEED] [--json] \
                     [--oracle NAME]\n\
                     \n\
                     --seeds N     check seeds S..S+N (default 25)\n\
                     --start S     first seed of the range (default 0)\n\
                     --replay SEED re-check exactly one seed\n\
                     --json        machine-readable report\n\
                     --oracle NAME run a single oracle instead of the full set"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("report_check: {e}");
            return ExitCode::from(2);
        }
    };

    let seeds: Vec<u64> = match args.replay {
        Some(seed) => vec![seed],
        None => (args.start..args.start + args.seeds).collect(),
    };
    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(seeds.len());
    for &seed in &seeds {
        let outcome = run_seed_filtered(seed, args.oracle.as_deref());
        if !args.json {
            if outcome.failures.is_empty() {
                if args.replay.is_some() {
                    println!("PASS seed={seed}  {}", outcome.case);
                }
            } else {
                for f in &outcome.failures {
                    println!("FAIL seed={seed} oracle={}: {}", f.oracle, f.message);
                    println!("     shrunk: {}", f.shrunk);
                    println!("     replay: {}", f.replay_command());
                }
            }
        }
        outcomes.push(outcome);
    }
    let report = SuiteReport { outcomes };
    let failures = report.failures().len();

    if args.json {
        println!("{}", report.to_json());
    } else {
        println!(
            "checked {} seed{} in {:.1}s: {}",
            seeds.len(),
            if seeds.len() == 1 { "" } else { "s" },
            started.elapsed().as_secs_f64(),
            if failures == 0 {
                "all oracles passed".to_string()
            } else {
                format!("{failures} finding(s)")
            }
        );
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
