//! The simulation daemon: admission control, worker pool, routing.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ──► connection threads (one per TCP conn, keep-alive)
//!                        │  read HTTP request
//!                        │  result cache[fnv1a(body)]?  ──hit──► respond
//!                        │  parse JSON → RunSpec → canonical JSON (once)
//!                        │  result cache[fnv1a(canon)]? ──hit──► respond
//!                        │    (skipped when canon == body: it just missed)
//!                        │  coalesce (InflightMap): leader | follower
//!                        ▼  leader only
//!                   bounded JobQueue  ──full──► 429
//!                        ▼
//!                   worker pool (N threads) ── Simulator::run through the
//!                        │                     shared CompileCache
//!                        ▼
//!                   Slot::fill ──► every waiter responds; body cached
//! ```
//!
//! Admission control is the bounded `JobQueue`: when `queue_depth` jobs
//! are already waiting, new work is rejected immediately with `429` rather
//! than queued into unbounded memory — the client knows to back off *now*,
//! and latency of accepted work stays predictable. Per-request deadlines
//! (`deadline_ms`) turn queue-stranded work into `503` instead of letting
//! a client wait forever.
//!
//! Graceful shutdown (`POST /admin/shutdown` or [`ServerHandle::shutdown`])
//! drains: the listener stops accepting, in-flight and queued requests all
//! complete (**zero dropped in-flight**, asserted by the integration
//! tests), workers exit when the queue runs dry, and [`ServerHandle::join`]
//! returns. Runs still executing after `shutdown_grace_ms` are
//! cooperatively cancelled via their [`CancelToken`] — every waiter
//! (leader and coalesced followers alike) gets a `503` instead of
//! hanging, so a stuck simulation cannot hold shutdown hostage.

use crate::http::{read_request, HttpError, Request, Response};
use crate::inflight::{InflightMap, Join, Outcome};
use crate::rescache::ResultCache;
use ptsim_common::fingerprint::fnv1a;
use ptsim_common::json::{Json, ToJson};
use ptsim_common::{CancelToken, Error};
use ptsim_trace::MetricsRegistry;
use pytorchsim::obs::CounterHub;
use pytorchsim::sweep::{Sweep, SweepOptions};
use pytorchsim::{CompileCache, RunSpec};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Most points accepted in one `/v1/sweep` request.
pub const MAX_SWEEP_POINTS: usize = 256;

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 lets the OS pick (the actual address is
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Bounded admission-queue depth; beyond it requests get `429`.
    pub queue_depth: usize,
    /// Result-cache budget in mebibytes (0 disables).
    pub result_cache_mb: usize,
    /// Per-request deadline, admission to completion, milliseconds.
    /// Enforced end-to-end: a request that exceeds it *mid-simulation* is
    /// cooperatively cancelled and answered `503`, not just one stranded
    /// in the admission queue.
    pub deadline_ms: u64,
    /// Graceful-shutdown grace period, milliseconds: once a drain starts,
    /// in-flight runs still executing after this long are cooperatively
    /// cancelled (each answers `503`) rather than awaited indefinitely.
    /// `0` cancels in-flight work immediately on drain.
    pub shutdown_grace_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            result_cache_mb: 32,
            deadline_ms: 30_000,
            shutdown_grace_ms: 5_000,
        }
    }
}

impl ServeConfig {
    /// Rejects nonsense tunables upfront with a typed error, instead of
    /// silently patching them to surprise defaults at use sites (the old
    /// behavior: `deadline_ms.max(1)`, `workers.max(1)`,
    /// `queue_depth.max(1)` scattered through the server).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `workers`, `queue_depth`, or
    /// `deadline_ms` is zero.
    pub fn validate(&self) -> Result<(), Error> {
        if self.workers == 0 {
            return Err(Error::InvalidConfig("serve workers must be nonzero".into()));
        }
        if self.queue_depth == 0 {
            return Err(Error::InvalidConfig("serve queue_depth must be nonzero".into()));
        }
        if self.deadline_ms == 0 {
            return Err(Error::InvalidConfig("serve deadline_ms must be nonzero".into()));
        }
        Ok(())
    }
}

/// One unit of admitted work.
struct Job {
    canon: String,
    fingerprint: u64,
    admitted: Instant,
    kind: JobKind,
}

enum JobKind {
    Simulate(Box<RunSpec>),
    Sweep { points: Vec<RunSpec>, jobs: usize },
}

/// Why [`JobQueue::try_push`] refused a job.
#[derive(Debug, PartialEq, Eq)]
enum PushError {
    Full,
    Closed,
}

/// A bounded MPMC queue on `Mutex` + `Condvar` (the workspace has no
/// channel dependency; `std::sync::mpsc` would serialize workers behind a
/// `Mutex<Receiver>`, so a hand-rolled queue is both simpler and fairer).
struct JobQueue {
    inner: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    fn new(depth: usize) -> Self {
        JobQueue { inner: Mutex::new((VecDeque::new(), false)), ready: Condvar::new(), depth }
    }

    fn try_push(&self, job: Job) -> Result<usize, PushError> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        if inner.1 {
            return Err(PushError::Closed);
        }
        if inner.0.len() >= self.depth {
            return Err(PushError::Full);
        }
        inner.0.push_back(job);
        let len = inner.0.len();
        self.ready.notify_one();
        Ok(len)
    }

    /// Blocks for the next job; `None` once closed *and* drained.
    fn pop(&self) -> Option<(Job, usize)> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = inner.0.pop_front() {
                let left = inner.0.len();
                return Some((job, left));
            }
            if inner.1 {
                return None;
            }
            inner = self.ready.wait(inner).expect("job queue poisoned");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("job queue poisoned").1 = true;
        self.ready.notify_all();
    }
}

/// Everything the accept, connection, and worker threads share.
struct State {
    cfg: ServeConfig,
    metrics: Arc<MetricsRegistry>,
    compile_cache: Arc<CompileCache>,
    results: ResultCache,
    inflight: InflightMap,
    queue: JobQueue,
    draining: AtomicBool,
    /// Set once the shutdown grace period has expired: every in-flight
    /// run's token has been cancelled, and runs *starting* after this
    /// point are cancelled at arming time.
    force_cancel: AtomicBool,
    active_conns: AtomicU64,
    /// Cancel tokens of runs currently executing on workers, so a
    /// grace-expired drain can fire them all.
    run_cancels: Mutex<HashMap<u64, CancelToken>>,
    cancel_seq: AtomicU64,
    /// Monotonic request counter behind the `x-ptsim-request-id` header.
    /// The id lives in the *header only*: response bodies are result-cached
    /// and coalesced across requests, so a body-embedded id would replay a
    /// stale id to later callers.
    request_seq: AtomicU64,
    started: Instant,
}

impl State {
    fn deadline(&self) -> Duration {
        // `deadline_ms` is validated nonzero at startup.
        Duration::from_millis(self.cfg.deadline_ms)
    }

    /// Tracks a run's cancel token for the drain path. The insert-then-
    /// check order closes the race with [`State::cancel_in_flight`]: a
    /// token is either seen in the map or cancelled here directly.
    fn register_cancel(&self, token: &CancelToken) -> u64 {
        let id = self.cancel_seq.fetch_add(1, Ordering::SeqCst);
        self.run_cancels.lock().expect("cancel registry poisoned").insert(id, token.clone());
        if self.force_cancel.load(Ordering::SeqCst) {
            token.cancel();
        }
        id
    }

    fn unregister_cancel(&self, id: u64) {
        self.run_cancels.lock().expect("cancel registry poisoned").remove(&id);
    }

    /// Fires every in-flight run's token (grace-expired drain), and makes
    /// later-arming runs cancel immediately.
    fn cancel_in_flight(&self) {
        self.force_cancel.store(true, Ordering::SeqCst);
        for token in self.run_cancels.lock().expect("cancel registry poisoned").values() {
            token.cancel();
        }
    }

    fn count_response(&self, status: u16) {
        let class = match status {
            200..=299 => "serve.responses.2xx",
            400..=499 => "serve.responses.4xx",
            _ => "serve.responses.5xx",
        };
        self.metrics.counter(class).inc();
    }
}

/// Handle to a started server: its address and its lifecycle.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (shared with `GET /metrics`).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.state.metrics)
    }

    /// The shared compile cache, for exactly-once-compilation assertions.
    pub fn compile_cache(&self) -> Arc<CompileCache> {
        Arc::clone(&self.state.compile_cache)
    }

    /// Starts a graceful drain, exactly like `POST /admin/shutdown`.
    pub fn shutdown(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }

    /// Blocks until the drain completes and every thread has exited.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    pub fn join(self) {
        self.accept.join().expect("accept thread panicked");
        for w in self.workers {
            w.join().expect("worker thread panicked");
        }
    }
}

/// Binds and starts a server.
///
/// # Errors
///
/// Rejects an invalid [`ServeConfig`] (see [`ServeConfig::validate`]) with
/// [`std::io::ErrorKind::InvalidInput`], and propagates bind failures.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    if let Err(e) = cfg.validate() {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers;
    let state = Arc::new(State {
        queue: JobQueue::new(cfg.queue_depth),
        results: ResultCache::new(cfg.result_cache_mb * (1 << 20)),
        inflight: InflightMap::new(),
        metrics: Arc::new(MetricsRegistry::new()),
        compile_cache: CompileCache::shared(),
        draining: AtomicBool::new(false),
        force_cancel: AtomicBool::new(false),
        active_conns: AtomicU64::new(0),
        run_cancels: Mutex::new(HashMap::new()),
        cancel_seq: AtomicU64::new(0),
        request_seq: AtomicU64::new(0),
        started: Instant::now(),
        cfg,
    });
    let worker_handles = (0..workers)
        .map(|i| {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("ptsim-serve-worker-{i}"))
                .spawn(move || worker_loop(&state))
                .expect("spawn worker")
        })
        .collect();
    let accept = {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("ptsim-serve-accept".into())
            .spawn(move || accept_loop(&listener, &state))
            .expect("spawn accept thread")
    };
    Ok(ServerHandle { addr, state, accept, workers: worker_handles })
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    while !state.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                state.active_conns.fetch_add(1, Ordering::SeqCst);
                let conn_state = Arc::clone(state);
                let spawned =
                    std::thread::Builder::new().name("ptsim-serve-conn".into()).spawn(move || {
                        connection_loop(stream, &conn_state);
                        conn_state.active_conns.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    state.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock) => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // Draining: no new connections. Wait for live ones to finish their
    // requests (they observe the flag and close), then let workers run the
    // queue dry and exit. Connections can only finish if the runs they
    // wait on finish, so once the grace period elapses the remaining
    // in-flight runs are cooperatively cancelled (each answers `503`) —
    // a stuck simulation cannot hold shutdown hostage.
    let drain_started = Instant::now();
    let grace = Duration::from_millis(state.cfg.shutdown_grace_ms);
    let mut cancelled = false;
    while state.active_conns.load(Ordering::SeqCst) > 0 {
        if !cancelled && drain_started.elapsed() >= grace {
            state.metrics.counter("serve.shutdown.grace_expired").inc();
            state.cancel_in_flight();
            cancelled = true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    state.queue.close();
}

fn connection_loop(stream: TcpStream, state: &Arc<State>) {
    // Short read timeouts let idle keep-alive connections notice a drain
    // within ~100 ms; `read_request` retries timeouts mid-request.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        match read_request(&mut reader) {
            Err(HttpError::Idle) => {
                if state.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(HttpError::Closed) => return,
            Err(HttpError::Bad(msg)) => {
                let resp = Response::error(400, &msg);
                state.count_response(400);
                let _ = resp.write_to(&mut writer, false);
                return;
            }
            Ok(req) => {
                let resp = route(&req, state);
                // Checked after routing so a shutdown request closes its
                // own connection immediately.
                let keep_alive = req.keep_alive() && !state.draining.load(Ordering::SeqCst);
                state.count_response(resp.status);
                if resp.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
        }
    }
}

fn route(req: &Request, state: &Arc<State>) -> Response {
    let t0 = Instant::now();
    let request_id = state.request_seq.fetch_add(1, Ordering::SeqCst);
    let (endpoint, resp) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("healthz", healthz(state)),
        ("GET", "/metrics") => ("metrics", metrics_endpoint(state)),
        ("GET", "/metrics.json") => ("metrics", metrics_json_endpoint(state)),
        ("POST", "/v1/simulate") => ("simulate", simulate(req, state)),
        ("POST", "/v1/sweep") => ("sweep", sweep(req, state)),
        ("POST", "/admin/shutdown") => ("shutdown", shutdown(state)),
        (
            _,
            "/healthz" | "/metrics" | "/metrics.json" | "/v1/simulate" | "/v1/sweep"
            | "/admin/shutdown",
        ) => ("other", Response::error(405, &format!("method {} not allowed here", req.method))),
        _ => ("other", Response::error(404, &format!("no route for {}", req.path))),
    };
    state.metrics.counter(&format!("serve.{endpoint}.requests")).inc();
    state
        .metrics
        .histogram(&format!("serve.{endpoint}.latency_us"))
        .observe(t0.elapsed().as_micros() as u64);
    resp.with_header("x-ptsim-request-id", format!("req-{request_id}"))
}

/// Refreshes the compile-cache gauges from the live cache so both metric
/// renderings see current values. The staged cache keeps its own atomic
/// counters, so per-stage hit/miss/in-flight numbers are exported as
/// point-in-time gauges rather than double-counted registry counters.
fn refresh_cache_gauges(state: &Arc<State>) {
    let stats = state.compile_cache.stats();
    let m = &state.metrics;
    m.gauge("compile_cache.models").set(state.compile_cache.len() as u64);
    m.gauge("compile_cache.bytes_held").set(stats.bytes_held);
    m.gauge("compile_cache.evictions").set(stats.evictions);
    for (stage, s) in [
        ("graph", stats.graph),
        ("plan", stats.plan),
        ("kernel", stats.kernel),
        ("model", stats.model),
    ] {
        m.gauge(&format!("compile_cache.{stage}.hits")).set(s.hits);
        m.gauge(&format!("compile_cache.{stage}.misses")).set(s.misses);
        m.gauge(&format!("compile_cache.{stage}.in_flight")).set(s.in_flight);
    }
}

/// `GET /metrics`: Prometheus text exposition (`text/plain;
/// version=0.0.4`), deterministically sorted by metric name.
fn metrics_endpoint(state: &Arc<State>) -> Response {
    refresh_cache_gauges(state);
    Response::text(200, state.metrics.prometheus_text())
}

/// `GET /metrics.json`: the same registry as one JSON object, for tests
/// and tooling that want structured values rather than scrape text.
fn metrics_json_endpoint(state: &Arc<State>) -> Response {
    refresh_cache_gauges(state);
    Response::json(200, state.metrics.json())
}

fn healthz(state: &Arc<State>) -> Response {
    let draining = state.draining.load(Ordering::SeqCst);
    let body = Json::obj()
        .set("status", Json::str(if draining { "draining" } else { "ok" }))
        .set("draining", Json::Bool(draining))
        .set("uptime_seconds", Json::num(state.started.elapsed().as_secs_f64()))
        .set("workers", Json::u64(state.cfg.workers as u64))
        .render();
    Response::json(200, body)
}

fn shutdown(state: &Arc<State>) -> Response {
    state.draining.store(true, Ordering::SeqCst);
    Response::json(200, "{\"status\":\"draining\"}")
}

/// Runs the leader path: admit into the queue or complete the slot with a
/// rejection so followers see it too, then wait for the outcome.
fn admit_and_wait(state: &Arc<State>, job: Job, slot: &crate::inflight::Slot) -> Response {
    let canon = job.canon.clone();
    if state.draining.load(Ordering::SeqCst) {
        state.metrics.counter("serve.rejected.draining").inc();
        let outcome: Outcome = Err((503, "server is draining".into()));
        state.inflight.complete(&canon, outcome.clone());
        return respond(outcome, "miss");
    }
    match state.queue.try_push(job) {
        Ok(depth) => {
            state.metrics.gauge("serve.queue.depth").set(depth as u64);
            wait_on_slot(state, slot)
        }
        Err(PushError::Full) => {
            state.metrics.counter("serve.rejected.queue_full").inc();
            let outcome: Outcome =
                Err((429, format!("admission queue full (depth {})", state.cfg.queue_depth)));
            state.inflight.complete(&canon, outcome.clone());
            respond(outcome, "miss")
        }
        Err(PushError::Closed) => {
            state.metrics.counter("serve.rejected.draining").inc();
            let outcome: Outcome = Err((503, "server is draining".into()));
            state.inflight.complete(&canon, outcome.clone());
            respond(outcome, "miss")
        }
    }
}

fn wait_on_slot(state: &Arc<State>, slot: &crate::inflight::Slot) -> Response {
    // Slack past the worker-side deadline so the 503 normally comes from
    // the worker (and thus also reaches coalesced followers).
    let wait = state.deadline() + Duration::from_millis(250);
    match slot.wait(wait) {
        Some(outcome) => respond(outcome, "miss"),
        None => {
            state.metrics.counter("serve.rejected.deadline").inc();
            Response::error(503, "deadline exceeded waiting for the simulation")
        }
    }
}

fn respond(outcome: Outcome, cache: &str) -> Response {
    match outcome {
        Ok(body) => Response::json(200, body).with_header("x-ptsim-cache", cache),
        Err((status, msg)) => Response::error(status, &msg),
    }
}

fn cache_hit(state: &Arc<State>, cached: String) -> Response {
    state.metrics.counter("serve.result_cache.hits").inc();
    Response::json(200, cached).with_header("x-ptsim-cache", "hit")
}

fn simulate(req: &Request, state: &Arc<State>) -> Response {
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e),
    };
    // Every in-repo client sends the canonical form, so the request bytes
    // are the cache key. The lookup compares the full canonical text, so
    // only a body byte-equal to a spec that already ran is answered here;
    // a hash collision can only cost a miss.
    let raw_fp = fnv1a(body.as_bytes());
    if let Some(cached) = state.results.probe(raw_fp, body) {
        return cache_hit(state, cached);
    }
    let parsed = match ptsim_common::json::parse_json(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let spec = match RunSpec::parse_wire(&parsed) {
        Ok(s) => s,
        Err(e @ ptsim_common::Error::UnsupportedSchema(_)) => {
            state.metrics.counter("serve.rejected.schema").inc();
            return Response::error(400, &e.to_string());
        }
        Err(e) => return Response::error(400, &format!("bad RunSpec: {e}")),
    };
    let canon = spec.canonical_json();
    let fingerprint = fnv1a(canon.as_bytes());
    // A canonical body already missed on these very bytes; any other
    // spelling gets one lookup under the canonical key.
    let cached = if canon == body { None } else { state.results.probe(fingerprint, &canon) };
    if let Some(cached) = cached {
        return cache_hit(state, cached);
    }
    state.results.count_miss();
    state.metrics.counter("serve.result_cache.misses").inc();
    match state.inflight.join(&canon) {
        Join::Leader(slot) => {
            let job = Job {
                canon,
                fingerprint,
                admitted: Instant::now(),
                kind: JobKind::Simulate(Box::new(spec)),
            };
            admit_and_wait(state, job, &slot)
        }
        Join::Follower(slot) => {
            state.metrics.counter("serve.coalesced").inc();
            wait_on_slot(state, &slot)
        }
    }
}

fn sweep(req: &Request, state: &Arc<State>) -> Response {
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e),
    };
    let parsed = match ptsim_common::json::parse_json(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let Some(raw_points) = parsed.get("points").and_then(Json::as_arr) else {
        return Response::error(400, "sweep body needs a \"points\" array of RunSpecs");
    };
    if raw_points.is_empty() {
        return Response::error(400, "sweep body has no points");
    }
    if raw_points.len() > MAX_SWEEP_POINTS {
        return Response::error(
            400,
            &format!("{} points exceeds the limit of {MAX_SWEEP_POINTS}", raw_points.len()),
        );
    }
    let mut points = Vec::with_capacity(raw_points.len());
    for (i, rp) in raw_points.iter().enumerate() {
        match RunSpec::parse_wire(rp) {
            Ok(p) => points.push(p),
            Err(e @ ptsim_common::Error::UnsupportedSchema(_)) => {
                state.metrics.counter("serve.rejected.schema").inc();
                return Response::error(400, &format!("points[{i}]: {e}"));
            }
            Err(e) => return Response::error(400, &format!("bad RunSpec at points[{i}]: {e}")),
        }
    }
    let jobs = parsed
        .get("jobs")
        .and_then(Json::as_num)
        .map_or(1, |n| (n.max(1.0) as usize).min(state.cfg.workers));
    // One sweep occupies one admission slot and one worker; its canonical
    // form includes every point, so identical sweeps coalesce like
    // identical simulations (they are not result-cached — the payoff is in
    // the per-point compile cache, which sweeps share with everyone).
    let canon = format!(
        "sweep:{}:{}",
        jobs,
        points.iter().map(RunSpec::canonical_json).collect::<Vec<_>>().join(",")
    );
    match state.inflight.join(&canon) {
        Join::Leader(slot) => {
            let job = Job {
                canon,
                fingerprint: 0,
                admitted: Instant::now(),
                kind: JobKind::Sweep { points, jobs },
            };
            as_ndjson(admit_and_wait(state, job, &slot))
        }
        Join::Follower(slot) => {
            state.metrics.counter("serve.coalesced").inc();
            as_ndjson(wait_on_slot(state, &slot))
        }
    }
}

/// Sweep successes are JSON *lines*, one point per line, not one document.
fn as_ndjson(mut resp: Response) -> Response {
    if resp.status == 200 {
        resp.content_type = "application/x-ndjson";
    }
    resp
}

fn worker_loop(state: &Arc<State>) {
    while let Some((job, left)) = state.queue.pop() {
        state.metrics.gauge("serve.queue.depth").set(left as u64);
        let gauge = state.metrics.gauge("serve.inflight");
        gauge.add(1);
        // The run's end-to-end deadline counts from admission, so queue
        // wait and simulation share one budget. Registering the token
        // lets a grace-expired drain fire it mid-run; the completion
        // guard keeps the coalescing contract even if `execute` panics.
        let token = CancelToken::with_deadline(job.admitted + state.deadline());
        let reg = state.register_cancel(&token);
        let guard = state.inflight.completion_guard(
            job.canon.clone(),
            Err((500, "request abandoned by its worker".into())),
        );
        let outcome = execute(state, &job, &token);
        state.unregister_cancel(reg);
        if let (Ok(body), JobKind::Simulate(_)) = (&outcome, &job.kind) {
            state.results.insert(job.fingerprint, job.canon.clone(), body.clone());
        }
        // All bookkeeping before the waiters wake: a `/metrics` scrape
        // issued right after the response must already see this job gone.
        gauge.sub(1);
        guard.complete(outcome);
    }
}

/// Maps a cooperative cancellation to its `503`, attributing the cause:
/// a token whose wall-clock deadline has passed was killed by
/// `deadline_ms`; otherwise it was fired by a grace-expired shutdown.
fn cancelled_outcome(state: &Arc<State>, token: &CancelToken, e: &Error) -> Outcome {
    let cause = if token.deadline_expired() {
        state.metrics.counter("serve.cancelled.deadline").inc();
        "deadline exceeded mid-simulation"
    } else {
        state.metrics.counter("serve.cancelled.shutdown").inc();
        "cancelled by server shutdown"
    };
    Err((503, format!("{cause}: {e}")))
}

fn execute(state: &Arc<State>, job: &Job, token: &CancelToken) -> Outcome {
    if job.admitted.elapsed() > state.deadline() {
        state.metrics.counter("serve.rejected.deadline").inc();
        return Err((503, "deadline exceeded in the admission queue".into()));
    }
    match &job.kind {
        JobKind::Simulate(spec) => {
            let t0 = Instant::now();
            // `"profile":true` attaches a counter hub to the run and adds
            // a bottleneck-attribution summary to the body. Profiled specs
            // carry a distinct fingerprint (the flag is part of the wire
            // form), and attribution is deterministic, so the body is as
            // result-cacheable as an unprofiled one.
            let hub =
                spec.profile.then(|| CounterHub::shared(pytorchsim::obs::CounterConfig::default()));
            match spec.run_observed(&state.compile_cache, Some(token), hub.clone()) {
                Ok(report) => {
                    state
                        .metrics
                        .histogram("serve.simulate.run_us")
                        .observe(t0.elapsed().as_micros() as u64);
                    let mut body = Json::obj()
                        .set("fingerprint", Json::str(format!("{:016x}", job.fingerprint)))
                        .set("report", report.to_json());
                    if let Some(hub) = hub {
                        let attr = pytorchsim::obs::profile::attribute(&hub, report.total_cycles);
                        body = body.set("profile", attr.to_json());
                    }
                    Ok(body.render())
                }
                Err(e @ Error::Cancelled { .. }) => cancelled_outcome(state, token, &e),
                Err(e) => Err((422, format!("simulation failed: {e}"))),
            }
        }
        JobKind::Sweep { points, jobs } => {
            let mut sw = Sweep::new();
            for p in points {
                match p.to_sweep_point() {
                    Ok(sp) => {
                        sw.push(sp);
                    }
                    Err(e) => return Err((422, format!("invalid sweep point: {e}"))),
                }
            }
            let opts = SweepOptions {
                jobs: *jobs,
                cache: Some(Arc::clone(&state.compile_cache)),
                cancel: Some(token.clone()),
            };
            match sw.run(&opts) {
                Ok(report) => {
                    // Input-ordered JSON lines: one PointResult per line,
                    // then a summary line.
                    let mut out = String::new();
                    for r in &report.results {
                        out.push_str(&r.to_json().render());
                        out.push('\n');
                    }
                    out.push_str(
                        &Json::obj()
                            .set("jobs", Json::u64(report.jobs as u64))
                            .set("wall_seconds", Json::num(report.wall_seconds))
                            .set("cache", report.cache.to_json())
                            .render(),
                    );
                    out.push('\n');
                    Ok(out)
                }
                Err(e @ Error::Cancelled { .. }) => cancelled_outcome(state, token, &e),
                Err(e) => Err((422, format!("sweep failed: {e}"))),
            }
        }
    }
}
