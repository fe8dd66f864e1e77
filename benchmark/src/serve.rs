//! The two serve workloads: an in-process `ptsim_serve` daemon driven over
//! real loopback HTTP by a closed loop on **one keep-alive connection**.
//!
//! Closed loop, because the service's clients are design-space-exploration
//! scripts that wait for each reply before sending the next request. One
//! connection, because on a two-CPU host a two-connection loop swings by a
//! third run to run while one connection repeats within a few percent
//! (concurrency is still watched, ungated, as `serve.conc2_req_per_s`).
//! One operation is one request; it fails on a non-200 status, a transport
//! error, or a `total_cycles` that differs from the catalog golden (cold
//! shapes: from a direct `RunSpec::run`, checked after the window).

use crate::golden::{Golden, Goldens};
use crate::metrics::Metrics;
use crate::rng::{Rng, Shuffled, Zipf};
use crate::span::SpanLog;
use crate::stats::{median, LatencyRecorder, WindowCounter};
use crate::{latency_note, probes, set_up_again, Args, Outcome};
use ptsim_serve::{start, HttpClient, ServeConfig, ServerHandle};
use pytorchsim::common::config::SimConfig;
use pytorchsim::common::json::{parse_json, FromJson, ToJson};
use pytorchsim::togsim::SimReport;
use pytorchsim::trace::MetricValue;
use pytorchsim::{CompileCache, ModelRequest, RunSpec};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which request mix a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// No simulation at all: seeded Zipf(1.0) draws over the warmed
    /// catalog against a 32 MiB result cache. HTTP read → JSON parse →
    /// `RunSpec::parse_wire` / canonical JSON / fingerprint →
    /// `ResultCache::get` → write. The workload for ROADMAP items 3 (one
    /// JSON stack, one wire version) and 4 (spine overhead per request).
    Hit,
    /// Everything per request: result cache off, uniform seeded draws (a
    /// fresh seeded permutation of the catalog every 64), and every 8th
    /// request a never-seen `GemmRect` shape (cold staged
    /// compile). Compiler / `CompileCache` / report-JSON gains show here
    /// and not on `serve_hit`; p99 sits inside the cold-compile population.
    Miss,
}

impl Mix {
    pub fn name(self) -> &'static str {
        match self {
            Mix::Hit => "serve_hit",
            Mix::Miss => "serve_miss",
        }
    }
}

/// Every `COLD_EVERY`-th request of `serve_miss` is a cold shape.
const COLD_EVERY: u64 = 8;
/// Every `COLD_CHECK_EVERY`-th cold response is re-derived directly.
const COLD_CHECK_EVERY: usize = 16;
/// Throughput window.
const WINDOW: Duration = Duration::from_secs(2);

/// The 64-spec catalog: small Gemm / GemmRect / Mlp / LayerNorm / Softmax
/// models on `SimConfig::tiny()` — the experiment measures the service,
/// not the simulator. Order is fixed; it is the Zipf rank order.
pub fn catalog() -> Vec<RunSpec> {
    let mut models = Vec::with_capacity(64);
    for i in 0..16 {
        models.push(ModelRequest::Gemm { n: 8 + 4 * i });
    }
    for i in 0..16 {
        models.push(ModelRequest::GemmRect { m: 8 + 8 * (i % 4), k: 16 + 8 * (i / 4), n: 24 });
    }
    for batch in [1, 2, 4, 8] {
        for hidden in [16, 32, 48] {
            models.push(ModelRequest::Mlp { batch, hidden });
        }
    }
    for i in 0..10 {
        models.push(ModelRequest::LayerNorm { rows: 8 + 8 * (i % 5), cols: 32 + 32 * (i / 5) });
    }
    for i in 0..10 {
        models.push(ModelRequest::Softmax { rows: 8 + 8 * (i % 5), cols: 32 + 32 * (i / 5) });
    }
    models.into_iter().map(|m| RunSpec::new(m).with_config(SimConfig::tiny())).collect()
}

fn catalog_key(index: usize) -> String {
    format!("catalog/{index:02}")
}

/// A never-seen `GemmRect`: odd `n`, which no catalog entry has, and
/// unique within the run.
fn cold_shape(rng: &mut Rng, seen: &mut HashSet<(usize, usize, usize)>) -> RunSpec {
    loop {
        let shape = (
            5 + rng.below(36) as usize,
            5 + rng.below(36) as usize,
            5 + 2 * rng.below(18) as usize,
        );
        if seen.insert(shape) {
            let (m, k, n) = shape;
            return RunSpec::new(ModelRequest::GemmRect { m, k, n }).with_config(SimConfig::tiny());
        }
    }
}

/// `total_cycles` of a simulate response body, without a full parse (the
/// client is part of the closed loop; keep it light).
fn total_cycles_of(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"total_cycles\":")? + "\"total_cycles\":".len()..];
    let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// Spinning threads that occupy every CPU but one while a serve workload
/// sets up and measures.
///
/// The closed loop is a ping-pong: the client sleeps while the server's
/// connection thread works and the reverse. Left alone, Linux sometimes
/// keeps the pair on one CPU (a request then costs 25 µs on the reference
/// host) and sometimes spreads it over two, where every hand-over wakes a
/// halted virtual CPU (90 µs) — and which of the two it does depends on
/// what ran in the seconds before. With the other CPUs taken, the pair
/// always shares the free one, so the loop measures the request path's own
/// work, and repeats within a few percent whatever ran before.
struct CpuHolders {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl CpuHolders {
    fn start() -> Self {
        let spare = std::thread::available_parallelism().map_or(1, usize::from).saturating_sub(1);
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..spare)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // A flag that publishes nothing else: Relaxed suffices.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        CpuHolders { stop, threads }
    }
}

impl Drop for CpuHolders {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A holder only spins; it cannot have panicked.
            let _ = t.join();
        }
    }
}

/// A started, warmed server.
struct Ready {
    handle: ServerHandle,
    /// Warm-up response bodies, catalog order (checked against goldens
    /// outside the timing).
    warm_bodies: Vec<String>,
    duration: Duration,
}

fn server_config(mix: Mix) -> ServeConfig {
    ServeConfig {
        workers: 2,
        result_cache_mb: if mix == Mix::Hit { 32 } else { 0 },
        ..ServeConfig::default()
    }
}

/// Server start plus one request per catalog spec (cold compile + run of
/// all 64): everything before the first timed request.
fn set_up(mix: Mix, bodies: &[String], log: &mut SpanLog) -> Result<Ready, String> {
    let started = Instant::now();
    let span = log.enter("setup");
    let handle =
        log.time("serve.start", || start(server_config(mix))).map_err(|e| e.to_string())?;
    let mut client = HttpClient::new(handle.addr());
    let warm = log.enter("warmup");
    let mut warm_bodies = Vec::with_capacity(bodies.len());
    for body in bodies {
        let resp = client.post("/v1/simulate", body)?;
        if resp.status != 200 {
            return Err(format!("warm-up request answered {}: {}", resp.status, resp.body));
        }
        warm_bodies.push(resp.body);
    }
    log.exit(warm);
    log.exit(span);
    Ok(Ready { handle, warm_bodies, duration: started.elapsed() })
}

fn shut_down(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// Compares each warm-up body's report with its catalog golden.
fn check_catalog(goldens: &Goldens, warm_bodies: &[String]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, body) in warm_bodies.iter().enumerate() {
        let report = parse_json(body).and_then(|v| v.req("report").and_then(SimReport::from_json));
        match report {
            Ok(report) => errors.extend(goldens.check(&catalog_key(i), &report).err()),
            Err(e) => errors.push(format!("{}: unreadable response: {e}", catalog_key(i))),
        }
    }
    errors
}

/// The request bodies of the catalog and the `total_cycles` each must
/// come back with.
struct Requests {
    bodies: Vec<String>,
    expected: Vec<u64>,
}

/// Seeded catalog indices for one connection: Zipf(1.0) ranks for the hit
/// mix, block-shuffled uniform for the miss mix.
struct Draws {
    mix: Mix,
    rng: Rng,
    zipf: Zipf,
    uniform: Shuffled,
}

impl Draws {
    fn new(mix: Mix, entries: usize, seed: u64, stream: u64) -> Self {
        Draws {
            mix,
            rng: Rng::new(seed, stream),
            zipf: Zipf::new(entries, 1.0),
            uniform: Shuffled::new(entries),
        }
    }

    fn next(&mut self) -> usize {
        match self.mix {
            Mix::Hit => self.zipf.draw(&mut self.rng),
            Mix::Miss => self.uniform.draw(&mut self.rng),
        }
    }
}

/// What one measured window produced.
struct Window {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    latencies: LatencyRecorder,
    req_per_s: f64,
    cycles: u64,
    elapsed: Duration,
    queue_depth_max: u64,
}

/// The closed loop: one connection, next request only after the reply.
fn closed_loop(
    mix: Mix,
    handle: &ServerHandle,
    requests: &Requests,
    seed: u64,
    budget: Duration,
    max_requests: Option<u64>,
    log: &mut SpanLog,
) -> Window {
    let mut client = HttpClient::new(handle.addr());
    let mut draws = Draws::new(mix, requests.bodies.len(), seed, 0x5e);
    let mut shape_rng = Rng::new(seed, 0xc0);
    let mut seen = HashSet::new();
    let mut cold: Vec<(RunSpec, u64)> = Vec::new();
    let queue_depth = handle.metrics().gauge("serve.queue.depth");
    let mut w = Window {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        // Room for 100 k requests a second; recording never reallocates.
        latencies: LatencyRecorder::with_capacity((budget.as_secs_f64() * 1e5) as usize + 1024),
        req_per_s: 0.0,
        cycles: 0,
        elapsed: Duration::ZERO,
        queue_depth_max: 0,
    };
    // Per-request spans are kept for the first few thousand requests only:
    // enough to read a request's shape, without a 100 MB trace file.
    const SPAN_CAP: u64 = 4_000;
    let mut windows = WindowCounter::start(WINDOW);
    let started = Instant::now();
    while started.elapsed() < budget && max_requests.is_none_or(|m| w.attempted < m) {
        let is_cold = mix == Mix::Miss && w.attempted % COLD_EVERY == COLD_EVERY - 1;
        let cold_spec = is_cold.then(|| cold_shape(&mut shape_rng, &mut seen));
        let cold_body = cold_spec.as_ref().map(ToJson::to_json_string);
        let (body, want) = match &cold_body {
            Some(body) => (body.as_str(), None),
            None => {
                let i = draws.next();
                (requests.bodies[i].as_str(), Some(requests.expected[i]))
            }
        };
        let span = (w.attempted < SPAN_CAP).then(|| log.enter("serve.request"));
        let t0 = Instant::now();
        let reply = client.post("/v1/simulate", body);
        let t1 = Instant::now();
        if let Some(span) = span {
            log.exit(span);
        }
        w.latencies.record(t1 - t0);
        windows.record(t1);
        w.attempted += 1;
        if log.enabled() {
            w.queue_depth_max = w.queue_depth_max.max(queue_depth.get());
        }
        let verdict = match reply {
            Err(e) => Err(format!("transport: {e}")),
            Ok(resp) if resp.status != 200 => Err(format!("status {}: {}", resp.status, resp.body)),
            Ok(resp) => match (total_cycles_of(&resp.body), want) {
                (None, _) => Err("response carries no total_cycles".to_string()),
                (Some(got), Some(want)) if got != want => {
                    Err(format!("total_cycles {got}, golden {want}"))
                }
                (Some(got), _) => {
                    w.cycles += got;
                    cold.extend(cold_spec.map(|spec| (spec, got)));
                    Ok(())
                }
            },
        };
        if let Err(e) = verdict {
            w.failed += 1;
            if w.errors.len() < 8 {
                w.errors.push(format!("request {}: {e}", w.attempted));
            }
        }
    }
    w.elapsed = started.elapsed();
    w.req_per_s = windows.median_rate(w.elapsed);
    drop(client);

    // Cold shapes have no committed golden (they depend on the seed): a
    // sample is re-derived through `RunSpec::run` on a private cache.
    let direct = CompileCache::shared();
    for (spec, got) in cold.iter().step_by(COLD_CHECK_EVERY) {
        match spec.run(&direct) {
            Ok(report) if report.total_cycles == *got => {}
            Ok(report) => {
                w.failed += 1;
                w.errors.push(format!(
                    "{:?}: server said {got} cycles, direct run {}",
                    spec.model, report.total_cycles
                ));
            }
            Err(e) => {
                w.failed += 1;
                w.errors.push(format!("{:?}: direct run failed: {e}", spec.model));
            }
        }
    }
    w
}

/// Two connections against the two workers, two seconds: concurrency is
/// watched, not gated, because it does not repeat within a tenth on two
/// CPUs.
fn conc2_req_per_s(mix: Mix, handle: &ServerHandle, bodies: &[String], seed: u64) -> f64 {
    let budget = Duration::from_secs(2);
    let started = Instant::now();
    let total: u64 = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2u64)
            .map(|conn| {
                s.spawn(move || {
                    let mut client = HttpClient::new(handle.addr());
                    let mut draws = Draws::new(mix, bodies.len(), seed, 0xc2 + conn);
                    let mut sent = 0u64;
                    while started.elapsed() < budget {
                        let body = &bodies[draws.next()];
                        if client.post("/v1/simulate", body).is_ok_and(|r| r.status == 200) {
                            sent += 1;
                        }
                    }
                    sent
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("load thread panicked")).sum()
    });
    total as f64 / started.elapsed().as_secs_f64()
}

/// Runs a serve workload, untraced (end-to-end) or traced (per-layer).
pub fn run(mix: Mix, args: &Args, goldens: &Goldens) -> Result<Outcome, String> {
    let mut log = SpanLog::new(mix.name(), args.trace);
    let specs = catalog();
    let requests = Requests {
        bodies: specs.iter().map(ToJson::to_json_string).collect(),
        expected: (0..specs.len())
            .map(|i| goldens.get(&catalog_key(i)).map(|g| g.total_cycles))
            .collect::<Result<_, _>>()?,
    };
    let bodies = &requests.bodies;

    let holders = CpuHolders::start();
    let mut setup_s = Vec::new();
    let mut errors = Vec::new();
    let setups_started = Instant::now();
    let mut ready = set_up(mix, bodies, &mut log)?;
    setup_s.push(ready.duration.as_secs_f64());
    // The traced pass reports no set-up time: once is enough.
    while !args.trace && set_up_again(setup_s.len(), setups_started.elapsed()) {
        errors.extend(check_catalog(goldens, &ready.warm_bodies));
        shut_down(ready.handle);
        ready = set_up(mix, bodies, &mut log)?;
        setup_s.push(ready.duration.as_secs_f64());
    }
    errors.extend(check_catalog(goldens, &ready.warm_bodies));

    // The traced pass spends half its time in the window and the rest on
    // the concurrency sample and the layer probes.
    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let max_requests = args.reps.map(u64::from);
    let span = log.enter("window");
    let mut w =
        closed_loop(mix, &ready.handle, &requests, args.seed, budget, max_requests, &mut log);
    log.exit(span);
    drop(holders);
    errors.append(&mut w.errors);

    let metrics = if args.trace {
        let mut metrics = Metrics::per_layer();
        // The tail is per-layer, not end-to-end: every workload reports
        // every end-to-end metric, and the upper tail of a dozen simulation
        // reps is host noise (see README.md).
        metrics.set("serve.p50_ms", w.latencies.percentile_ms(50.0));
        metrics.set("serve.p99_ms", w.latencies.percentile_ms(99.0));
        metrics.set("serve.req_per_s", w.req_per_s);
        server_metrics(&mut metrics, &ready.handle, w.queue_depth_max);
        let span = log.enter("window.conc2");
        metrics
            .set("serve.conc2_req_per_s", conc2_req_per_s(mix, &ready.handle, bodies, args.seed));
        log.exit(span);
        probes::layers(&mut metrics, &mut log, args.seed);
        metrics.set("mem.peak_rss_mb", crate::peak_rss_mb());
        metrics
    } else {
        let mut metrics = Metrics::end_to_end();
        metrics.set("setup_s", median(&setup_s));
        metrics.set("p50_ms", w.latencies.percentile_ms(50.0));
        metrics.set("ops_per_s", w.req_per_s);
        // Simulated cycles delivered: mean cycles per reply × replies/s.
        let ok = (w.attempted - w.failed).max(1) as f64;
        metrics.set("sim_mcycles_per_s", w.cycles as f64 / ok / 1e6 * w.req_per_s);
        metrics
    };
    shut_down(ready.handle);
    if args.trace {
        if let Err(e) = crate::write_trace(mix.name(), &log) {
            errors.push(e);
        }
    }
    let notes = vec![
        format!("set up {} times; peak RSS {:.1} MiB", setup_s.len(), crate::peak_rss_mb()),
        latency_note(&mut w.latencies),
    ];
    Ok(Outcome { attempted: w.attempted, failed: w.failed, errors, notes, metrics })
}

/// What the server's own registry and compile cache say about the window.
fn server_metrics(metrics: &mut Metrics, handle: &ServerHandle, queue_depth_max: u64) {
    let registry = handle.metrics();
    let count = |name: &str| registry.counter(name).get() as f64;
    let (hits, misses) = (count("serve.result_cache.hits"), count("serve.result_cache.misses"));
    metrics.set("serve.result_cache_hit_rate", hits / (hits + misses).max(1.0));
    metrics.set("serve.coalesced", count("serve.coalesced"));
    metrics.set("serve.queue_depth_max", queue_depth_max as f64);
    for (name, value) in registry.snapshot() {
        if let ("serve.simulate.run_us", MetricValue::Histogram { p50, .. }) =
            (name.as_str(), value)
        {
            metrics.set("serve.run_us_p50", p50 as f64);
        }
    }
    let cache = handle.compile_cache().stats();
    metrics.set(
        "serve.compile_cache_hit_rate",
        cache.hits as f64 / (cache.hits + cache.compiles).max(1) as f64,
    );
}

/// Computes the catalog goldens by direct runs (for `--write-golden`).
pub fn compute_goldens(into: &mut Goldens) -> Result<(), String> {
    let cache = CompileCache::shared();
    for (i, spec) in catalog().iter().enumerate() {
        let report = spec.run(&cache).map_err(|e| format!("{}: {e}", catalog_key(i)))?;
        into.insert(&catalog_key(i), Golden::of(&report));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_64_distinct_valid_specs_and_no_odd_n_gemm_rect() {
        let specs = catalog();
        assert_eq!(specs.len(), 64);
        let prints: HashSet<u64> = specs.iter().map(RunSpec::fingerprint).collect();
        assert_eq!(prints.len(), 64);
        for spec in &specs {
            spec.validate().unwrap();
            if let ModelRequest::GemmRect { n, .. } = spec.model {
                assert_eq!(n % 2, 0, "odd n is reserved for cold shapes");
            }
        }
    }

    #[test]
    fn cold_shapes_are_seeded_unique_and_outside_the_catalog() {
        let draw = |seed| {
            let (mut rng, mut seen) = (Rng::new(seed, 0xc0), HashSet::new());
            (0..500).map(|_| cold_shape(&mut rng, &mut seen).model).collect::<Vec<_>>()
        };
        let (a, b) = (draw(3), draw(3));
        assert_eq!(a, b, "same seed, same shapes");
        assert_ne!(a, draw(4));
        let distinct: HashSet<String> = a.iter().map(|m| format!("{m:?}")).collect();
        assert_eq!(distinct.len(), 500);
        let catalog: Vec<ModelRequest> = catalog().iter().map(|s| s.model).collect();
        for m in &a {
            m.validate().unwrap();
            assert!(!catalog.contains(m));
            let ModelRequest::GemmRect { m, k, n } = *m else { panic!("not a GemmRect") };
            assert!(!(m == k && k == n && catalog.contains(&ModelRequest::Gemm { n })));
        }
    }

    #[test]
    fn total_cycles_is_read_from_a_response_body() {
        let body = r#"{"fingerprint":"00","report":{"total_cycles":12345,"jobs":[]}}"#;
        assert_eq!(total_cycles_of(body), Some(12345));
        assert_eq!(total_cycles_of(r#"{"total_cycles":7}"#), Some(7));
        assert_eq!(total_cycles_of(r#"{"error":"x"}"#), None);
        assert_eq!(total_cycles_of(r#"{"total_cycles":"#), None);
    }
}
