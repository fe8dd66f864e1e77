//! `ptsim check`: the differential & property-fuzz harness driver.
//!
//! ```sh
//! # Check a seed range (exit code 1 on any finding):
//! ptsim check --seeds 50
//!
//! # Reproduce one finding deterministically:
//! ptsim check --replay 1234
//!
//! # Machine-readable output:
//! ptsim check --seeds 50 --json
//! ```
//!
//! `--start S` moves the range to S..S+N (default 0, N defaults to 25);
//! `--oracle NAME` runs a single oracle instead of the full set.

use crate::cli::{Args, Error};
use ptsim_check::{run_seed_filtered, SuiteReport, ORACLES};
use std::process::ExitCode;
use std::time::Instant;

pub fn check(args: &mut Args) -> Result<ExitCode, Error> {
    let count: u64 = args.value("--seeds")?.unwrap_or(25);
    let start: u64 = args.value("--start")?.unwrap_or(0);
    let replay: Option<u64> = args.value("--replay")?;
    let json = args.flag("--json");
    let oracle =
        args.value_with("--oracle", |name| match ORACLES.iter().find(|o| o.name == name) {
            Some(o) => Ok(o.name),
            None => {
                let known: Vec<&str> = ORACLES.iter().map(|o| o.name).collect();
                Err(format!("unknown oracle; known: {known:?}"))
            }
        })?;
    args.finish()?;

    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (start..start + count).collect(),
    };
    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(seeds.len());
    for &seed in &seeds {
        let outcome = run_seed_filtered(seed, oracle);
        if !json {
            if outcome.failures.is_empty() {
                if replay.is_some() {
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

    if json {
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
    Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
