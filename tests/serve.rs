//! Integration tests of the simulation service (`ptsim-serve`).
//!
//! Everything runs in-process: `server::start` binds an ephemeral port and
//! the blocking client talks to it over real TCP, so these tests exercise
//! the same accept/admission/worker/drain machinery as production — while
//! the handle gives white-box access to the compile cache and metrics for
//! exactly-once and zero-drop assertions.

use ptsim_common::config::SimConfig;
use ptsim_common::json::{parse_json, FromJson, Json};
use ptsim_serve::client::HttpClient;
use ptsim_serve::server::{start, ServeConfig, ServerHandle};
use ptsim_togsim::{Fidelity, SimReport};
use ptsim_trace::MetricValue;
use pytorchsim::{CompileCache, ModelRequest, RunOptions, RunSpec, Simulator};
use std::time::{Duration, Instant};

fn tiny_spec(n: usize) -> RunSpec {
    RunSpec::new(ModelRequest::Gemm { n }).with_config(SimConfig::tiny())
}

fn report_from_body(body: &str) -> SimReport {
    let parsed = parse_json(body).expect("response body is JSON");
    SimReport::from_json(parsed.req("report").expect("has report")).expect("report parses")
}

fn direct_gemm(n: usize) -> SimReport {
    Simulator::new(SimConfig::tiny())
        .run(&pytorchsim::models::gemm(n), RunOptions::tls())
        .expect("direct run succeeds")
}

fn metric(handle: &ServerHandle, name: &str) -> u64 {
    handle
        .metrics()
        .snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| match v {
            MetricValue::Counter(c) | MetricValue::Gauge(c) => c,
            MetricValue::Histogram { count, .. } => count,
        })
        .unwrap_or(0)
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(60), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn concurrent_identical_and_distinct_requests_compile_once_and_match_direct_runs() {
    let handle = start(ServeConfig { workers: 4, ..ServeConfig::default() }).unwrap();
    let addr = handle.addr();

    const IDENTICAL: usize = 12;
    let distinct_sizes = [16usize, 24, 40, 56];
    let identical_body = tiny_spec(32).canonical_json();
    let distinct_bodies: Vec<String> =
        distinct_sizes.iter().map(|&n| tiny_spec(n).canonical_json()).collect();

    let mut identical_results = Vec::new();
    let mut distinct_results = Vec::new();
    std::thread::scope(|s| {
        let identical: Vec<_> = (0..IDENTICAL)
            .map(|_| {
                let body = &identical_body;
                s.spawn(move || HttpClient::new(addr).post("/v1/simulate", body).unwrap())
            })
            .collect();
        let distinct: Vec<_> = distinct_bodies
            .iter()
            .map(|body| s.spawn(move || HttpClient::new(addr).post("/v1/simulate", body).unwrap()))
            .collect();
        identical_results.extend(identical.into_iter().map(|h| h.join().unwrap()));
        distinct_results.extend(distinct.into_iter().map(|h| h.join().unwrap()));
    });

    for resp in identical_results.iter().chain(&distinct_results) {
        assert_eq!(resp.status, 200, "body: {}", resp.body);
    }
    // Identical concurrent requests produce byte-identical bodies — whether
    // each was coalesced behind the leader, served from the result cache,
    // or (never) re-simulated.
    for resp in &identical_results {
        assert_eq!(resp.body, identical_results[0].body);
    }
    // Exactly-once compilation per unique spec, regardless of concurrency:
    // 1 shared spec + 4 distinct sizes = 5 compiles.
    let stats = handle.compile_cache().stats();
    assert_eq!(stats.compiles, 1 + distinct_sizes.len() as u64, "stats: {stats:?}");

    // Server responses are bit-identical to direct library runs.
    assert_eq!(report_from_body(&identical_results[0].body), direct_gemm(32));
    for (resp, &n) in distinct_results.iter().zip(&distinct_sizes) {
        assert_eq!(report_from_body(&resp.body), direct_gemm(n), "gemm({n})");
    }
    // The wire path agrees with the in-process RunSpec entry point too.
    assert_eq!(tiny_spec(32).run(&CompileCache::shared()).unwrap(), direct_gemm(32));

    // Request accounting: every simulate request was either a result-cache
    // hit or a recorded miss; nothing vanished.
    let hits = metric(&handle, "serve.result_cache.hits");
    let misses = metric(&handle, "serve.result_cache.misses");
    assert_eq!(hits + misses, (IDENTICAL + distinct_sizes.len()) as u64);

    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_completes_every_admitted_request() {
    // A grace period far beyond any run here: this test is about draining,
    // not about cancelling (see `shutdown_grace_cancels_...`).
    let handle =
        start(ServeConfig { workers: 2, shutdown_grace_ms: 120_000, ..ServeConfig::default() })
            .unwrap();
    let addr = handle.addr();

    // One long run (ILS gemm-384: ~0.1 s in release, ~1.1 s in debug)
    // holds one worker while quick TLS runs pass through the other, so a
    // run is still executing when the drain starts. The waits below are on
    // monotonic counters, never on a gauge a short run can flip and unflip
    // between two polls.
    let long = tiny_spec(384).with_fidelity(Fidelity::Ils).canonical_json();
    let quick: Vec<String> = (0..5).map(|i| tiny_spec(16 + 8 * i).canonical_json()).collect();

    let mut responses = Vec::new();
    let mut runs_done_at_drain = 0;
    std::thread::scope(|s| {
        let mut posts =
            vec![s.spawn(|| HttpClient::new(addr).post("/v1/simulate", &long).unwrap())];
        wait_until("the long run to be admitted", || {
            metric(&handle, "serve.result_cache.misses") >= 1
        });
        posts.extend(quick.iter().map(|body| {
            s.spawn(move || HttpClient::new(addr).post("/v1/simulate", body).unwrap())
        }));
        // Every connection accepted and parsed before the listener stops.
        let all = 1 + quick.len() as u64;
        wait_until("every request to be read", || {
            metric(&handle, "serve.result_cache.misses") >= all
        });
        wait_until("a quick run to finish", || metric(&handle, "serve.simulate.run_us") >= 1);
        runs_done_at_drain = metric(&handle, "serve.simulate.run_us");
        let shut = HttpClient::new(addr).post("/admin/shutdown", "").unwrap();
        assert_eq!(shut.status, 200);
        responses.extend(posts.into_iter().map(|h| h.join().unwrap()));
    });

    // Zero dropped in-flight: every request either completed (admitted
    // before the drain) or was *cleanly rejected* as draining — never a
    // hung connection, transport error, or lost response.
    let mut completed = 0;
    for resp in &responses {
        match resp.status {
            200 => {
                completed += 1;
                assert!(report_from_body(&resp.body).total_cycles > 0);
            }
            503 => assert!(resp.body.contains("draining"), "unexpected 503: {}", resp.body),
            other => panic!("unexpected status {other}: {}", resp.body),
        }
    }
    assert!(completed > 0, "at least the in-flight request must complete");
    assert!(
        completed > runs_done_at_drain,
        "the drain must wait for runs still executing ({completed} completed, \
         {runs_done_at_drain} done before the drain)"
    );
    // join() returning proves the drain terminated: accept loop closed,
    // queue ran dry, every worker exited.
    handle.join();
}

#[test]
fn admission_queue_overflow_yields_429() {
    let handle = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        deadline_ms: 120_000,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // Blocker: a sweep of many points occupies the single worker for a
    // while (~0.15 s in release, ~1.4 s in debug; one job).
    let blocker_points: Vec<String> = (0..48)
        .map(|i| tiny_spec(96 + 8 * (i % 12)).with_fidelity(Fidelity::Ils).canonical_json())
        .collect();
    let blocker = format!("{{\"points\":[{}]}}", blocker_points.join(","));

    std::thread::scope(|s| {
        let blocker_post = s.spawn(|| HttpClient::new(addr).post("/v1/sweep", &blocker).unwrap());
        wait_until("the sweep to occupy the worker", || metric(&handle, "serve.inflight") > 0);
        // Fill the single queue slot...
        let filler_body = tiny_spec(20).canonical_json();
        let filler =
            s.spawn(move || HttpClient::new(addr).post("/v1/simulate", &filler_body).unwrap());
        wait_until("the filler to queue", || metric(&handle, "serve.queue.depth") > 0);
        // ...so with the worker on the sweep and the queue full, a burst of
        // distinct requests (defeating cache and coalescing) must bounce:
        // at most one can ever sneak into the slot, so of 6 concurrent
        // requests at least 5 get an immediate 429.
        let burst: Vec<_> = (0..6)
            .map(|i| {
                s.spawn(move || {
                    HttpClient::new(addr)
                        .post("/v1/simulate", &tiny_spec(200 + 4 * i).canonical_json())
                        .unwrap()
                })
            })
            .collect();
        let mut bounced = 0;
        for h in burst {
            let resp = h.join().unwrap();
            if resp.status == 429 {
                assert!(resp.body.contains("queue full"), "body: {}", resp.body);
                bounced += 1;
            }
        }
        assert!(bounced >= 5, "only {bounced} of 6 burst requests bounced");

        assert_eq!(blocker_post.join().unwrap().status, 200);
        assert_eq!(filler.join().unwrap().status, 200);
    });
    assert!(metric(&handle, "serve.rejected.queue_full") >= 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn sweep_returns_input_ordered_json_lines_matching_direct_runs() {
    let handle = start(ServeConfig::default()).unwrap();
    let sizes = [24usize, 8, 16];
    let points: Vec<String> = sizes.iter().map(|&n| tiny_spec(n).canonical_json()).collect();
    let body = format!("{{\"points\":[{}],\"jobs\":2}}", points.join(","));
    let resp = HttpClient::new(handle.addr()).post("/v1/sweep", &body).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));

    let lines: Vec<&str> = resp.body.lines().collect();
    assert_eq!(lines.len(), sizes.len() + 1, "points plus a summary line");
    for (line, &n) in lines.iter().zip(&sizes) {
        let parsed = parse_json(line).unwrap();
        assert_eq!(parsed.req_str("label").unwrap(), format!("gemm{n}"), "input order");
        let report = SimReport::from_json(parsed.req("report").unwrap()).unwrap();
        assert_eq!(report, direct_gemm(n), "gemm({n})");
    }
    let summary = parse_json(lines[sizes.len()]).unwrap();
    assert_eq!(summary.req("cache").unwrap().req_u64("compiles").unwrap(), sizes.len() as u64);

    handle.shutdown();
    handle.join();
}

#[test]
fn error_codes_are_typed() {
    // One worker: a request that killed it would leave every later miss
    // unanswered.
    let handle = start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let mut client = HttpClient::new(handle.addr());

    assert_eq!(client.post("/v1/simulate", "{not json").unwrap().status, 400);
    assert_eq!(client.post("/v1/simulate", "{\"no_model\":1}").unwrap().status, 400);
    assert_eq!(client.get("/no/such/route").unwrap().status, 404);
    assert_eq!(client.get("/v1/simulate").unwrap().status, 405);
    // Valid shape, impossible dimensions: typed simulation failure.
    let resp = client.post("/v1/simulate", &tiny_spec(0).canonical_json()).unwrap();
    assert_eq!(resp.status, 422, "body: {}", resp.body);
    // Every error body is machine-readable.
    let parsed = parse_json(&resp.body).unwrap();
    assert_eq!(parsed.req_u64("status").unwrap(), 422);
    assert!(!parsed.req_str("error").unwrap().is_empty());

    // Hostile numbers: a fraction or a magnitude past 2^53 is a malformed
    // request, an in-range but absurd size an invalid config. Neither may
    // panic, abort or strand the worker: a fresh miss is still answered.
    let tiny = tiny_spec(16).canonical_json();
    for (channels, status, fresh) in
        [("2.5", 400, 8), ("1e20", 400, 24), ("1099511627776", 422, 40)]
    {
        let body = tiny.replace("\"channels\":2,", &format!("\"channels\":{channels},"));
        assert_ne!(body, tiny);
        let resp = client.post("/v1/simulate", &body).unwrap();
        assert_eq!(resp.status, status, "channels {channels}: {}", resp.body);
        assert!(resp.body.contains("channels"), "channels {channels}: {}", resp.body);
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        let resp = client.post("/v1/simulate", &tiny_spec(fresh).canonical_json()).unwrap();
        assert_eq!(resp.status, 200, "fresh miss after channels {channels}: {}", resp.body);
        assert_eq!(report_from_body(&resp.body), direct_gemm(fresh));
    }

    // A deeply nested body is a malformed request, not a stack overflow
    // that takes the whole process down.
    let nested = "[".repeat(64 * 1024);
    for route in ["/v1/simulate", "/v1/sweep"] {
        let resp = client.post(route, &nested).unwrap();
        assert_eq!(resp.status, 400, "{route}: {}", resp.body);
        assert!(resp.body.contains("nesting deeper than"), "{route}: {}", resp.body);
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn wire_versioning_rejects_unknown_versions_and_fidelities() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = HttpClient::new(handle.addr());
    let canon = tiny_spec(16).canonical_json();

    // A version this build does not read is a typed, counted rejection.
    for (n, v) in [(1, 0), (2, 4)] {
        let body = canon.replacen('{', &format!("{{\"v\":{v},"), 1);
        let resp = client.post("/v1/simulate", &body).unwrap();
        assert_eq!(resp.status, 400, "v{v}: {}", resp.body);
        assert!(resp.body.contains("unsupported schema"), "v{v}: {}", resp.body);
        assert_eq!(metric(&handle, "serve.rejected.schema"), n, "v{v}");
    }

    // The retired "ils_timing" alias is an unknown fidelity, not ILS.
    let ils = tiny_spec(16).with_fidelity(Fidelity::Ils).canonical_json();
    let retired = ils.replace("\"ils\"", "\"ils_timing\"");
    assert_ne!(retired, ils);
    let resp = client.post("/v1/simulate", &retired).unwrap();
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert!(resp.body.contains("unknown fidelity"), "body: {}", resp.body);
    assert_eq!(metric(&handle, "serve.rejected.schema"), 2);

    handle.shutdown();
    handle.join();
}

#[test]
fn invalid_config_is_rejected_at_startup() {
    for (cfg, what) in [
        (ServeConfig { workers: 0, ..ServeConfig::default() }, "workers"),
        (ServeConfig { queue_depth: 0, ..ServeConfig::default() }, "queue_depth"),
        (ServeConfig { deadline_ms: 0, ..ServeConfig::default() }, "deadline_ms"),
    ] {
        let err = match start(cfg) {
            Err(e) => e,
            Ok(_) => panic!("{what} == 0 must be rejected"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{what}");
        assert!(err.to_string().contains(what), "{what}: {err}");
        assert!(err.to_string().contains("invalid configuration"), "{what}: {err}");
    }
}

/// Acceptance: a request whose `deadline_ms` expires *mid-simulation* is
/// cooperatively cancelled and answered `503` within 250 ms of the
/// deadline — not left running until its own completion, and not stranded
/// until the connection-side wait gives up.
#[test]
fn mid_run_deadline_expiry_returns_503_promptly() {
    let handle = start(ServeConfig {
        workers: 1,
        deadline_ms: 150,
        shutdown_grace_ms: 60_000,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = HttpClient::new(handle.addr());

    // Fast compile (milliseconds), long simulation (~0.7 s even in
    // release): the deadline expires deep inside the engine, where only the
    // scheduler's bounded-interval poll sites can observe it.
    let body = tiny_spec(512).with_fidelity(Fidelity::Ils).canonical_json();
    let t0 = Instant::now();
    let resp = client.post("/v1/simulate", &body).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(resp.status, 503, "body: {}", resp.body);
    assert!(resp.body.contains("deadline exceeded mid-simulation"), "body: {}", resp.body);
    assert!(
        elapsed < Duration::from_millis(150 + 250),
        "503 arrived after {elapsed:?}; the budget is the 150 ms deadline plus 250 ms"
    );
    assert!(metric(&handle, "serve.cancelled.deadline") >= 1);

    // The worker survives a cancelled run and its caches stay sound: a
    // fast request right after is served normally.
    let resp = client.post("/v1/simulate", &tiny_spec(16).canonical_json()).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(report_from_body(&resp.body), direct_gemm(16));

    handle.shutdown();
    handle.join();
}

/// Acceptance: a drain with a long in-flight run completes within the
/// grace period — the run is cooperatively cancelled, and its coalesced
/// followers get the same clean `503` instead of being stranded.
#[test]
fn shutdown_grace_cancels_stuck_runs_and_strands_no_followers() {
    let handle = start(ServeConfig {
        workers: 1,
        deadline_ms: 120_000,
        shutdown_grace_ms: 100,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    // A sweep long enough (~2 s even in release) that it is always still
    // mid-run when the grace period expires.
    let points: Vec<String> = (0..16)
        .map(|i| tiny_spec(384 + 8 * (i % 8)).with_fidelity(Fidelity::Ils).canonical_json())
        .collect();
    let body = format!("{{\"points\":[{}]}}", points.join(","));

    let mut drained = Duration::ZERO;
    let mut responses = Vec::new();
    std::thread::scope(|s| {
        let leader = s.spawn(|| HttpClient::new(addr).post("/v1/sweep", &body).unwrap());
        wait_until("the sweep to go in flight", || metric(&handle, "serve.inflight") > 0);
        let follower = s.spawn(|| HttpClient::new(addr).post("/v1/sweep", &body).unwrap());
        wait_until("the follower to coalesce", || metric(&handle, "serve.coalesced") > 0);

        let t0 = Instant::now();
        handle.shutdown();
        responses.push(("leader", leader.join().unwrap()));
        responses.push(("follower", follower.join().unwrap()));
        drained = t0.elapsed();
    });
    for (who, resp) in &responses {
        assert_eq!(resp.status, 503, "{who} body: {}", resp.body);
        assert!(resp.body.contains("cancelled by server shutdown"), "{who} body: {}", resp.body);
    }
    assert!(
        drained < Duration::from_millis(100 + 2_000),
        "responses took {drained:?} against a 100 ms grace"
    );
    assert_eq!(metric(&handle, "serve.shutdown.grace_expired"), 1);
    assert!(metric(&handle, "serve.cancelled.shutdown") >= 1);
    // join() returning proves the cancelled drain terminated cleanly.
    handle.join();
}

/// Acceptance: `/metrics` serves valid Prometheus text exposition —
/// `text/plain; version=0.0.4`, families sorted by name, at least one
/// histogram — and the rendering is deterministic while the registry is
/// quiescent. The JSON view lives on at `/metrics.json`.
#[test]
fn metrics_endpoint_serves_sorted_prometheus_text() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = HttpClient::new(handle.addr());
    // Generate some traffic so counters and latency histograms exist.
    assert_eq!(client.post("/v1/simulate", &tiny_spec(16).canonical_json()).unwrap().status, 200);
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("text/plain; version=0.0.4"));
    let families: Vec<&str> = resp
        .body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    assert!(!families.is_empty(), "body: {}", resp.body);
    let mut sorted = families.clone();
    sorted.sort_unstable();
    assert_eq!(families, sorted, "metric families must be name-sorted");
    assert!(resp.body.contains(" histogram"), "at least one histogram family: {}", resp.body);
    assert!(
        resp.body.contains("ptsim_serve_simulate_latency_us_bucket{le=\"+Inf\"}"),
        "body: {}",
        resp.body
    );
    // Quiescent registry (no traffic in between) renders byte-identically
    // except for the metrics endpoint's own self-observation.
    for line in client.get("/metrics").unwrap().body.lines() {
        if !line.contains("ptsim_serve_metrics") && !line.contains("ptsim_serve_responses") {
            assert!(resp.body.contains(line), "line {line:?} drifted between scrapes");
        }
    }

    // The structured JSON view moved to /metrics.json.
    let json = client.get("/metrics.json").unwrap();
    assert_eq!(json.status, 200);
    assert_eq!(json.header("content-type"), Some("application/json"));
    let parsed = parse_json(&json.body).unwrap();
    assert!(parsed.req_u64("serve.simulate.requests").unwrap() >= 1, "body: {}", json.body);

    handle.shutdown();
    handle.join();
}

/// Every response carries a monotonically increasing `x-ptsim-request-id`
/// header — in the header only, so result-cached bodies stay byte-identical
/// across requests.
#[test]
fn every_response_carries_a_unique_request_id() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = HttpClient::new(handle.addr());
    let body = tiny_spec(16).canonical_json();

    let mut ids = Vec::new();
    let first = client.post("/v1/simulate", &body).unwrap();
    let second = client.post("/v1/simulate", &body).unwrap();
    assert_eq!(first.body, second.body, "cached body must not embed the request id");
    for resp in
        [first, second, client.get("/healthz").unwrap(), client.get("/no/such/route").unwrap()]
    {
        let id = resp.header("x-ptsim-request-id").expect("request id header").to_string();
        let n: u64 = id.strip_prefix("req-").expect("req-<n> shape").parse().unwrap();
        ids.push(n);
    }
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(ids, sorted, "ids must be unique and increasing: {ids:?}");

    handle.shutdown();
    handle.join();
}

/// Acceptance: `"profile":true` returns a bottleneck-attribution
/// summary inline, the report itself stays bit-identical to an unprofiled
/// run, and the attribution closes exactly over the total cycles.
#[test]
fn profile_flag_returns_inline_counter_summary() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = HttpClient::new(handle.addr());

    let plain = client.post("/v1/simulate", &tiny_spec(24).canonical_json()).unwrap();
    assert_eq!(plain.status, 200, "body: {}", plain.body);
    assert!(!plain.body.contains("\"profile\""), "unprofiled body: {}", plain.body);

    let body = tiny_spec(24).with_profile(true).canonical_json();
    assert!(body.contains("\"profile\":true"), "{body}");
    let resp = client.post("/v1/simulate", &body).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(report_from_body(&resp.body), report_from_body(&plain.body), "counters perturb");

    let parsed = parse_json(&resp.body).unwrap();
    let profile = parsed.req("profile").expect("profiled body has a profile key");
    let total = profile.req_u64("total_cycles").unwrap();
    assert_eq!(total, report_from_body(&resp.body).total_cycles);
    let attributed = profile.req_u64("attributed_cycles").unwrap();
    assert_eq!(attributed, total, "attribution must close exactly");

    // Profiled and unprofiled specs have distinct fingerprints, so the
    // result cache keeps both bodies and repeat profiled requests hit.
    let repeat = client.post("/v1/simulate", &body).unwrap();
    assert_eq!(repeat.header("x-ptsim-cache"), Some("hit"));
    assert_eq!(repeat.body, resp.body);

    handle.shutdown();
    handle.join();
}

#[test]
fn result_cache_turns_repeats_into_hits() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = HttpClient::new(handle.addr());
    let body = tiny_spec(36).canonical_json();

    let first = client.post("/v1/simulate", &body).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-ptsim-cache"), Some("miss"));
    let second = client.post("/v1/simulate", &body).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-ptsim-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cached body is byte-identical");
    assert_eq!(handle.compile_cache().stats().compiles, 1);

    handle.shutdown();
    handle.join();
}

/// A cached spec is answered whichever way it is spelled: its canonical
/// text takes the raw-bytes fast path, any other spelling the parse path,
/// and both return the body of the run byte for byte. Each request counts
/// exactly one hit or one miss; rejected requests count neither.
#[test]
fn cached_specs_hit_in_every_spelling_and_count_once() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = HttpClient::new(handle.addr());
    let counted = || {
        metric(&handle, "serve.result_cache.hits") + metric(&handle, "serve.result_cache.misses")
    };

    let canon = tiny_spec(28).canonical_json();
    let first = client.post("/v1/simulate", &canon).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("x-ptsim-cache"), Some("miss"));

    // No string in a spec holds a quote, so `,"` and `":` only occur
    // between tokens.
    let spaced = format!(" {}\n", canon.replace(",\"", ",\n  \"").replace("\":", "\" : "));
    let Json::Obj(mut fields) = parse_json(&canon).unwrap() else { panic!("not an object") };
    fields.reverse();
    let reordered = Json::Obj(fields).render();
    // Keys earlier builds sent: a schema version, and a backend.
    let legacy = |keys: &str| canon.replacen('{', &format!("{{{keys},"), 1);
    let spellings = [
        ("canonical", canon.clone()),
        ("whitespace", spaced),
        ("reordered", reordered),
        ("v1", legacy("\"v\":1")),
        ("v2 serial", legacy("\"v\":2,\"backend\":\"serial\"")),
        ("v3 reference", legacy("\"v\":3,\"backend\":\"reference\"")),
        ("parallel", legacy("\"backend\":\"parallel:4\"")),
    ];
    for (spelling, body) in &spellings {
        assert!(*spelling == "canonical" || *body != canon, "{spelling} is the canonical text");
        let resp = client.post("/v1/simulate", body).unwrap();
        assert_eq!(resp.status, 200, "{spelling}: {}", resp.body);
        assert_eq!(resp.header("x-ptsim-cache"), Some("hit"), "{spelling}");
        assert_eq!(resp.body, first.body, "{spelling}: body differs from the fresh run");
    }
    let sent = 1 + spellings.len() as u64;
    assert_eq!(metric(&handle, "serve.result_cache.hits"), sent - 1);
    assert_eq!(counted(), sent, "one hit or one miss per request");

    // Rejections still happen, and are neither hits nor misses.
    let schema_before = metric(&handle, "serve.rejected.schema");
    let v9 = legacy("\"v\":9");
    let resp = client.post("/v1/simulate", &v9).unwrap();
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert!(resp.body.contains("unsupported schema"), "body: {}", resp.body);
    assert_eq!(metric(&handle, "serve.rejected.schema"), schema_before + 1);
    assert_eq!(client.post("/v1/simulate", &canon[1..]).unwrap().status, 400);
    assert_eq!(counted(), sent);

    // A cached profiled spec keeps its profile block on the fast path.
    let profiled = tiny_spec(28).with_profile(true).canonical_json();
    let fresh = client.post("/v1/simulate", &profiled).unwrap();
    let cached = client.post("/v1/simulate", &profiled).unwrap();
    assert_eq!(fresh.header("x-ptsim-cache"), Some("miss"));
    assert_eq!(cached.header("x-ptsim-cache"), Some("hit"));
    assert_eq!(cached.body, fresh.body);
    assert!(parse_json(&cached.body).unwrap().get("profile").is_some(), "{}", cached.body);
    assert_eq!(counted(), sent + 2);

    handle.shutdown();
    handle.join();
}

/// Regression for the worker-bookkeeping race: `serve.inflight` used to be
/// decremented only after the worker had released the response, so a scrape
/// issued right after it could still read 1. Every request here runs on a
/// worker (result cache off), on the one connection that then scrapes.
#[test]
fn inflight_gauge_is_zero_as_soon_as_the_response_is_out() {
    let handle = start(ServeConfig { result_cache_mb: 0, ..ServeConfig::default() }).unwrap();
    let mut client = HttpClient::new(handle.addr());
    let body = tiny_spec(16).canonical_json();
    for round in 0..250 {
        assert_eq!(client.post("/v1/simulate", &body).unwrap().status, 200);
        let scrape = client.get("/metrics.json").unwrap();
        assert_eq!(scrape.status, 200);
        let inflight = parse_json(&scrape.body).unwrap().req_u64("serve.inflight").unwrap();
        assert_eq!(inflight, 0, "round {round}: worker still counted after its response");
    }
    assert_eq!(metric(&handle, "serve.simulate.requests"), 250);

    handle.shutdown();
    handle.join();
}
