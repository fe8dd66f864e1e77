//! The PyTorchSim-rs benchmark: one command, six workloads, end-to-end and
//! per-layer numbers for the whole stack. README.md explains the
//! workloads, the metric → layer → workload map, and how to read the output.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//!   in this process and prints, as the last line of stdout, one JSON
//!   object `{correct, attempted, failed, metrics}` — end-to-end metrics
//!   with `--trace 0`, per-layer metrics with `--trace 1`.
//! * Without `--workload` it runs every workload, each in a child process
//!   of its own (so peak memory is per workload), prints every metric by
//!   name with its unit, and writes `out/result.json`; `--traced` makes
//!   that the traced pass.
//!
//! Either way the exit code is non-zero when any operation failed its
//! golden check.

mod alloc;
mod compare;
mod golden;
mod metrics;
mod probes;
mod rng;
mod serve;
mod sim;
mod span;
mod stats;

use golden::Goldens;
use metrics::Metrics;
use pytorchsim::common::json::{parse_json, Json};
use pytorchsim::trace::validate::validate_chrome_trace;
use span::SpanLog;
use stats::LatencyRecorder;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] =
    ["bert_s512", "bert_s128", "tenants_cn", "kernels_ils", "serve_hit", "serve_miss"];

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Run only this workload, in this process.
    workload: Option<String>,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long a run measures.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Smoke use only: stop after this many operations (sim: reps).
    pub reps: Option<u32>,
    /// Maintenance: recompute `golden.json` from this build.
    write_golden: bool,
    /// Compare the result files of several full passes (`repeat.sh`).
    summarize: Vec<String>,
}

/// Result of one workload run, before it is printed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Lines for the human reader (sample counts, quartiles).
    pub notes: Vec<String>,
    pub metrics: Metrics,
}

/// Whether a run should set its workload up once more, after `done`
/// set-ups that took `spent` in all: at least three (the median is
/// reported), and a set-up that takes milliseconds is repeated further —
/// up to nine times or 1.5 s — because a short time needs more samples to
/// repeat.
pub fn set_up_again(done: usize, spent: Duration) -> bool {
    done < 3 || (done < 9 && spent < Duration::from_millis(1500))
}

/// The sample count and quartiles of the operation latencies, for the
/// human reader.
pub fn latency_note(latencies: &mut LatencyRecorder) -> String {
    format!(
        "operation latency over n={} samples: min {:.4} ms, q1 {:.4} ms, median {:.4} ms, q3 {:.4} ms",
        latencies.len(),
        latencies.percentile_ms(0.0),
        latencies.percentile_ms(25.0),
        latencies.percentile_ms(50.0),
        latencies.percentile_ms(75.0)
    )
}

const USAGE: &str = "usage: ptsim-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--reps N] [--write-golden]\n       \
                     ptsim-benchmark --summarize RESULT.json RESULT.json...";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        reps: None,
        write_golden: false,
        summarize: Vec::new(),
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.trace = true,
            "--reps" => args.reps = Some(value()?.parse().map_err(|e| format!("--reps: {e}"))?),
            "--write-golden" => args.write_golden = true,
            "--summarize" => args.summarize = it.by_ref().collect(),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// `benchmark/out`, inside the checkout this binary was built from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes `out/trace_<workload>.json` and re-validates what was written.
pub fn write_trace(workload: &str, log: &SpanLog) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, log.chrome_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let check = validate_chrome_trace(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if check.spans != log.len() {
        return Err(format!(
            "{}: {} spans written, {} recorded",
            path.display(),
            check.spans,
            log.len()
        ));
    }
    Ok(())
}

fn run_workload(name: &str, args: &Args, goldens: &Goldens) -> Result<Outcome, String> {
    match name {
        "serve_hit" => serve::run(serve::Mix::Hit, args, goldens),
        "serve_miss" => serve::run(serve::Mix::Miss, args, goldens),
        _ => {
            let workload = sim::workloads()
                .into_iter()
                .find(|w| w.name == name)
                .ok_or_else(|| format!("no workload {name:?}"))?;
            let run = if args.trace {
                workload.run_traced(args, goldens)
            } else {
                workload.run_untraced(args, goldens)
            };
            run.map_err(|e| e.to_string())
        }
    }
}

/// The result line of one workload run.
fn result_json(outcome: &Outcome, correct: bool) -> Json {
    Json::obj()
        .set("correct", Json::Bool(correct))
        .set("attempted", Json::u64(outcome.attempted))
        .set("failed", Json::u64(outcome.failed))
        .set("metrics", outcome.metrics.to_json())
}

/// Runs one workload in this process; prints the table to stderr and the
/// result line to stdout.
fn single(name: &str, args: &Args) -> Result<bool, String> {
    let goldens = Goldens::committed()?;
    let outcome = run_workload(name, args, &goldens)?;
    let mut problems = outcome.errors.clone();
    for name in outcome.metrics.missing() {
        problems.push(format!("end-to-end metric {name} is missing or not positive"));
    }
    if outcome.attempted == 0 {
        problems.push("no operation was attempted".into());
    }
    for p in &problems {
        eprintln!("[{name}] FAILED: {p}");
    }
    let correct = outcome.failed == 0 && problems.is_empty();
    for note in &outcome.notes {
        eprintln!("[{name}] {note}");
    }
    eprint!("{}", table(name, &outcome.metrics));
    println!("{}", result_json(&outcome, correct).render());
    Ok(correct)
}

fn table(workload: &str, metrics: &Metrics) -> String {
    metrics
        .rows()
        .iter()
        .map(|(name, value, unit)| format!("{workload:<12} {name:<34} {value:>16.6} {unit}\n"))
        .collect()
}

/// Runs every workload in a child process each and gathers the results.
fn full_pass(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut results = Json::obj();
    for name in WORKLOADS {
        eprintln!(
            "== {name} (seed {}, {} s, trace {}) ==",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(reps) = args.reps {
            cmd.args(["--reps", &reps.to_string()]);
        }
        // The child's own table goes to our stderr; its stdout is the result.
        let output = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed =
            stdout.lines().last().ok_or(format!("{name} printed no result")).and_then(|l| {
                parse_json(l).map_err(|e| format!("{name} printed an unreadable result: {e}"))
            });
        match parsed {
            Ok(result) => {
                let ok = output.status.success()
                    && result.get("correct").and_then(Json::as_bool) == Some(true);
                if !ok {
                    eprintln!("== {name}: NOT CORRECT (exit {:?}) ==", output.status.code());
                }
                all_correct &= ok;
                results = results.set(name, result);
            }
            Err(e) => {
                eprintln!("== {e} (exit {:?}) ==", output.status.code());
                all_correct = false;
            }
        }
    }
    let mut doc = Json::obj()
        .set("pass", Json::str(if args.trace { "traced" } else { "end_to_end" }))
        .set("seed", Json::u64(args.seed))
        .set("seconds", Json::num(args.seconds))
        .set("correct", Json::Bool(all_correct))
        .set("claim", Json::Null);
    // Smoke settings are recorded so a shortened run is never mistaken
    // for a measurement.
    if args.seconds != DEFAULT_SECONDS {
        doc = doc.set("non_default_seconds", Json::Bool(true));
    }
    if let Some(reps) = args.reps {
        doc = doc.set("reps_cap", Json::u64(u64::from(reps)));
    }
    doc = doc.set("workloads", results);
    let dir = out_dir();
    let file = if args.trace { "result_traced.json" } else { "result.json" };
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::write(dir.join(file), doc.render() + "\n")
        .map_err(|e| format!("write {}: {e}", dir.join(file).display()))?;
    println!("{}", doc.render());
    Ok(all_correct)
}

fn write_golden() -> Result<bool, String> {
    let mut goldens = Goldens::default();
    sim::compute_goldens(&mut goldens).map_err(|e| e.to_string())?;
    serve::compute_goldens(&mut goldens)?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    std::fs::write(&path, goldens.render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}; rebuild to compile it in", path.display());
    Ok(true)
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| {
        if !args.summarize.is_empty() {
            compare::summarize(&args.summarize)
        } else if args.write_golden {
            write_golden()
        } else if let Some(name) = args.workload.clone() {
            single(&name, &args)
        } else {
            full_pass(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ptsim-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a =
            parse(&["--workload", "serve_hit", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_hit"));
        assert_eq!((a.seed, a.seconds, a.trace, a.reps), (7, 10.0, true, None));
        let a = parse(&["--seed", "3", "--traced", "--reps", "1"]).unwrap();
        assert_eq!((a.workload, a.seed, a.trace, a.reps), (None, 3, true, Some(1)));
        let a = parse(&[]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (1, DEFAULT_SECONDS, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&["--workload", "nope"]).unwrap_err().contains("unknown workload"));
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_contract_keys() {
        let mut metrics = Metrics::end_to_end();
        metrics.set("setup_s", 0.8127);
        let outcome =
            Outcome { attempted: 1000, failed: 0, errors: vec![], notes: vec![], metrics };
        let line = result_json(&outcome, true).render();
        let Json::Obj(fields) = parse_json(&line).unwrap() else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains(r#""setup_s":{"value":0.8127,"unit":"s"}"#), "{line}");
    }
}
