//! The load generator behind `ptsim loadgen`.
//!
//! Methodology (recorded in `EXPERIMENTS.md`): `conns` threads each hold
//! one keep-alive connection and either free-run (closed loop, `rps = 0`)
//! or pace themselves to a target aggregate rate (open loop). Latency is
//! measured per request from first byte written to full response read and
//! recorded into a bounded log-bucketed [`Histogram`] per worker (constant
//! memory regardless of sample count, deterministic merge), whose
//! nearest-rank percentiles resolve to genuinely observed samples — tail
//! behaviour under admission control is the whole point of the experiment,
//! so the p99 must be a real request, not an interpolated bucket edge.
//!
//! The request mix is what distinguishes the cache paths:
//! - [`Mix::Cached`]: every request is byte-identical, so after the first
//!   simulation the server answers from the result cache (hot path).
//! - [`Mix::Distinct`]: requests cycle through distinct specs, exercising
//!   compile + simulate under concurrency.
//! - [`Mix::Mixed`]: a percentage split of the two.

use crate::client::HttpClient;
use ptsim_common::config::SimConfig;
use ptsim_common::json::ToJson;
use ptsim_common::json_record;
use ptsim_trace::Histogram;
use pytorchsim::{ModelRequest, RunSpec};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Request mix of a load run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One byte-identical request, repeated: result-cache hot path.
    Cached,
    /// Cycle through distinct specs: compile/simulate path.
    Distinct,
    /// `percent` of requests distinct, the rest cached.
    Mixed(u32),
}

impl Mix {
    /// Parses `"cached"`, `"distinct"`, or `"mixed:NN"`.
    ///
    /// # Errors
    ///
    /// On anything else.
    pub fn parse(s: &str) -> Result<Mix, String> {
        match s {
            "cached" => Ok(Mix::Cached),
            "distinct" => Ok(Mix::Distinct),
            _ => match s.strip_prefix("mixed:").and_then(|p| p.parse::<u32>().ok()) {
                Some(p) if p <= 100 => Ok(Mix::Mixed(p)),
                _ => Err(format!(
                    "bad mix {s:?} (expected \"cached\", \"distinct\", or \"mixed:NN\")"
                )),
            },
        }
    }

    fn label(&self) -> String {
        match self {
            Mix::Cached => "cached".into(),
            Mix::Distinct => "distinct".into(),
            Mix::Mixed(p) => format!("mixed:{p}"),
        }
    }
}

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server to hit.
    pub addr: SocketAddr,
    /// Concurrent keep-alive connections (one thread each).
    pub conns: usize,
    /// Measured duration (excludes warm-up).
    pub duration: Duration,
    /// Aggregate target request rate; `0` free-runs (closed loop).
    pub rps: f64,
    /// Request mix.
    pub mix: Mix,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:8080".parse().expect("static addr"),
            conns: 4,
            duration: Duration::from_secs(10),
            rps: 0.0,
            mix: Mix::Cached,
        }
    }
}

/// The catalog of request bodies a mix draws from. Specs are small on
/// purpose — the experiment measures the *service*, not the simulator.
fn catalog(mix: Mix) -> Vec<String> {
    let spec = |n: usize| {
        RunSpec::new(ModelRequest::Gemm { n }).with_config(SimConfig::tiny()).to_json_string()
    };
    match mix {
        Mix::Cached => vec![spec(24)],
        Mix::Distinct | Mix::Mixed(_) => (1..=8).map(|i| spec(8 * i)).collect(),
    }
}

fn pick_body(mix: Mix, n_bodies: usize, i: u64) -> usize {
    match mix {
        Mix::Cached => 0,
        Mix::Distinct => (i as usize) % n_bodies,
        Mix::Mixed(percent) => {
            if (i % 100) < u64::from(percent) {
                (i as usize) % n_bodies
            } else {
                0
            }
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Mix label (`cached`, `distinct`, `mixed:NN`).
    pub mix: String,
    /// Connections used.
    pub conns: usize,
    /// Target aggregate rate (0 = closed loop).
    pub rps_target: f64,
    /// Measured wall-clock seconds.
    pub wall_seconds: f64,
    /// Requests sent (and answered — the client is blocking).
    pub sent: u64,
    /// `200` responses.
    pub ok: u64,
    /// `200`s served from the server's result cache.
    pub cache_hits: u64,
    /// `429` admission rejections.
    pub rejected_429: u64,
    /// `503` rejections (draining or deadline).
    pub rejected_503: u64,
    /// Other HTTP statuses.
    pub other_status: u64,
    /// Transport-level failures.
    pub transport_errors: u64,
    /// Achieved throughput over the measured window, requests/second.
    pub throughput_rps: f64,
    /// Exact latency percentiles over successful requests, microseconds.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
}

json_record!(ToJson for LoadReport {
    mix,
    conns,
    rps_target,
    wall_seconds,
    sent,
    ok,
    cache_hits,
    rejected_429,
    rejected_503,
    other_status,
    transport_errors,
    throughput_rps,
    p50_us,
    p95_us,
    p99_us,
    mean_us,
    max_us,
});

impl LoadReport {
    /// Human-readable one-screen summary.
    pub fn summary(&self) -> String {
        format!(
            "mix={} conns={} target={} rps\n\
             sent {} over {:.2}s -> {:.1} req/s ({} ok, {} cache hits, \
             {}x429, {}x503, {} other, {} transport errors)\n\
             latency p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  mean {:.3} ms  max {:.3} ms",
            self.mix,
            self.conns,
            if self.rps_target > 0.0 { format!("{:.0}", self.rps_target) } else { "∞".into() },
            self.sent,
            self.wall_seconds,
            self.throughput_rps,
            self.ok,
            self.cache_hits,
            self.rejected_429,
            self.rejected_503,
            self.other_status,
            self.transport_errors,
            self.p50_us as f64 / 1e3,
            self.p95_us as f64 / 1e3,
            self.p99_us as f64 / 1e3,
            self.mean_us / 1e3,
            self.max_us as f64 / 1e3,
        )
    }
}

#[derive(Default)]
struct WorkerTally {
    sent: u64,
    ok: u64,
    cache_hits: u64,
    rejected_429: u64,
    rejected_503: u64,
    other_status: u64,
    transport_errors: u64,
    latencies_us: Histogram,
}

fn worker(cfg: &LoadgenConfig, bodies: &[String], worker_index: usize) -> WorkerTally {
    let mut tally = WorkerTally::default();
    let mut client = HttpClient::new(cfg.addr);
    let per_conn_interval = if cfg.rps > 0.0 {
        Some(Duration::from_secs_f64(cfg.conns as f64 / cfg.rps))
    } else {
        None
    };
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let mut i = 0u64;
    while Instant::now() < deadline {
        if let Some(interval) = per_conn_interval {
            // Open loop: each conn fires on its own fixed schedule, offset
            // by its index so conns do not phase-lock.
            let due = start + interval.mul_f64(i as f64 + worker_index as f64 / cfg.conns as f64);
            if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        let seq = i * cfg.conns as u64 + worker_index as u64;
        let body = &bodies[pick_body(cfg.mix, bodies.len(), seq)];
        let t0 = Instant::now();
        match client.post("/v1/simulate", body) {
            Ok(resp) => {
                tally.sent += 1;
                match resp.status {
                    200 => {
                        tally.ok += 1;
                        if resp.header("x-ptsim-cache") == Some("hit") {
                            tally.cache_hits += 1;
                        }
                        tally.latencies_us.observe(t0.elapsed().as_micros() as u64);
                    }
                    429 => tally.rejected_429 += 1,
                    503 => tally.rejected_503 += 1,
                    _ => tally.other_status += 1,
                }
            }
            Err(_) => {
                tally.sent += 1;
                tally.transport_errors += 1;
            }
        }
        i += 1;
    }
    tally
}

/// Runs the load and aggregates.
///
/// Before the measured window, every catalog entry is requested once so
/// compilation happens outside the measurement (the steady state a service
/// benchmark wants; cold-start costs are the compile cache's story, told
/// by its own metrics).
///
/// # Errors
///
/// If the warm-up requests cannot reach the server at all.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport, String> {
    let bodies = catalog(cfg.mix);
    let mut warm = HttpClient::new(cfg.addr);
    for body in &bodies {
        let resp = warm.post("/v1/simulate", body)?;
        if resp.status != 200 {
            return Err(format!("warm-up request failed with {}: {}", resp.status, resp.body));
        }
    }
    let started = Instant::now();
    let tallies: Vec<WorkerTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.conns.max(1))
            .map(|w| {
                let bodies = &bodies;
                s.spawn(move || worker(cfg, bodies, w))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut report = LoadReport {
        mix: cfg.mix.label(),
        conns: cfg.conns.max(1),
        rps_target: cfg.rps,
        wall_seconds: wall,
        ..LoadReport::default()
    };
    // Per-worker histograms fold element-wise (commutative), so the merged
    // percentiles are independent of worker join order.
    let latencies = Histogram::standalone();
    for t in tallies {
        report.sent += t.sent;
        report.ok += t.ok;
        report.cache_hits += t.cache_hits;
        report.rejected_429 += t.rejected_429;
        report.rejected_503 += t.rejected_503;
        report.other_status += t.other_status;
        report.transport_errors += t.transport_errors;
        latencies.merge(&t.latencies_us);
    }
    report.p50_us = latencies.percentile(50.0);
    report.p95_us = latencies.percentile(95.0);
    report.p99_us = latencies.percentile(99.0);
    report.max_us = latencies.max();
    report.mean_us = latencies.mean();
    report.throughput_rps = if wall > 0.0 { report.sent as f64 / wall } else { 0.0 };
    Ok(report)
}

/// Exact nearest-rank percentile over an already **sorted** sample set:
/// the smallest sample such that at least `p` percent of samples are ≤ it
/// (rank `⌈(p/100)·n⌉`, 1-based, clamped into the sample range). No
/// interpolation — the returned value is always an observed sample. An
/// empty set reports `0`.
///
/// This is the reference semantics the bounded [`Histogram`] used by
/// [`run`] approximates; the two agree exactly whenever the rank lands on
/// a bucket's first or last sample (always true with ≤2 samples per
/// bucket), which the tests pin.
pub fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_labels() {
        assert_eq!(Mix::parse("cached").unwrap(), Mix::Cached);
        assert_eq!(Mix::parse("distinct").unwrap(), Mix::Distinct);
        assert_eq!(Mix::parse("mixed:30").unwrap(), Mix::Mixed(30));
        assert!(Mix::parse("mixed:101").is_err());
        assert!(Mix::parse("warm").is_err());
        assert_eq!(Mix::Mixed(30).label(), "mixed:30");
    }

    #[test]
    fn cached_catalog_is_one_identical_body() {
        let bodies = catalog(Mix::Cached);
        assert_eq!(bodies.len(), 1);
        for i in 0..10 {
            assert_eq!(pick_body(Mix::Cached, bodies.len(), i), 0);
        }
    }

    #[test]
    fn distinct_catalog_cycles() {
        let bodies = catalog(Mix::Distinct);
        assert!(bodies.len() > 1);
        let picks: Vec<_> =
            (0..bodies.len() as u64).map(|i| pick_body(Mix::Distinct, bodies.len(), i)).collect();
        assert_eq!(picks.len(), bodies.len());
        assert!(picks.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn report_json_renders() {
        let r = LoadReport { sent: 10, ok: 9, p50_us: 1200, ..LoadReport::default() };
        let parsed = ptsim_common::json::parse_json(&r.to_json().render()).unwrap();
        assert_eq!(parsed.req_u64("sent").unwrap(), 10);
        assert_eq!(parsed.req_u64("p50_us").unwrap(), 1200);
    }

    /// Satellite pin: the degenerate sample counts. Nearest-rank must not
    /// index out of bounds (0 samples), must report the only sample at
    /// every percentile (1 sample), and must split 2 samples at the
    /// median: rank ⌈0.5·2⌉ = 1 → first sample for p50, rank ⌈0.95·2⌉ = 2
    /// → second sample for p95/p99.
    #[test]
    fn exact_percentile_handles_zero_one_and_two_samples() {
        assert_eq!(exact_percentile(&[], 50.0), 0);
        assert_eq!(exact_percentile(&[], 99.0), 0);

        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(exact_percentile(&[7], p), 7, "single sample at p{p}");
        }

        let two = [10, 20];
        assert_eq!(exact_percentile(&two, 50.0), 10);
        assert_eq!(exact_percentile(&two, 95.0), 20);
        assert_eq!(exact_percentile(&two, 99.0), 20);
        // p = 0 clamps to the first sample instead of underflowing rank 0.
        assert_eq!(exact_percentile(&two, 0.0), 10);
    }

    /// The bounded histogram that replaced the unbounded latency vector
    /// must report bit-identical percentiles on the degenerate sample
    /// counts pinned above, and match the nearest-rank reference whenever
    /// ranks land on bucket boundaries.
    #[test]
    fn histogram_percentiles_match_exact_on_degenerate_counts() {
        let empty = Histogram::standalone();
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(empty.percentile(p), exact_percentile(&[], p), "empty at p{p}");
        }

        let one = Histogram::standalone();
        one.observe(7);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(one.percentile(p), exact_percentile(&[7], p), "single sample at p{p}");
        }

        let two = Histogram::standalone();
        two.observe(10);
        two.observe(20);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(two.percentile(p), exact_percentile(&[10, 20], p), "two samples at p{p}");
        }
    }

    #[test]
    fn exact_percentile_matches_nearest_rank_on_a_known_set() {
        // The canonical nearest-rank example: 1..=5.
        let v = [15, 20, 35, 40, 50];
        assert_eq!(exact_percentile(&v, 30.0), 20);
        assert_eq!(exact_percentile(&v, 40.0), 20);
        assert_eq!(exact_percentile(&v, 50.0), 35);
        assert_eq!(exact_percentile(&v, 100.0), 50);
    }
}
