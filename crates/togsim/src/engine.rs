//! The event-driven TLS engine, built on the [`ptsim_event`] kernel.
//!
//! The replay loop is a [`ptsim_event::Scheduler`] client: the DRAM and NoC
//! models participate as [`ptsim_event::Component`]s, tile completions /
//! cache hits / job arrivals / core wake-ups live in one typed
//! [`EventQueue`], and a
//! [`WakeSet`] of dirty cores limits each issue pass to the cores something
//! actually happened to — O(active) per event instead of O(cores × jobs)
//! per iteration.

use crate::cache::L1Cache;
use crate::report::{JobReport, SimReport};
use ptsim_common::config::SimConfig;
use ptsim_common::id::RequestIdGen;
use ptsim_common::{CancelToken, Cycle, Error, RequestId, Result};
use ptsim_dram::{DramSim, MemRequest, ShardedDram};
use ptsim_event::{CompletionSource, EventQueue, Scheduler, Step, WakeSet};
use ptsim_funcsim::FuncSim;
use ptsim_isa::program::Program;
use ptsim_noc::{NocMessage, NocSim};
use ptsim_obs::{BusyUnit, CounterHub, QueueSite};
use ptsim_timingsim::TimingSim;
use ptsim_tog::{ExecUnit, ExecutableTog, FlatNodeKind};
use ptsim_trace::{Counter, Lane, MetricsRegistry, Tracer};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Multiplicative hasher for the request-id keyed in-flight map: ids are
/// sequential u64s, so SipHash's DoS resistance buys nothing and its cost
/// shows up on every transaction (two map ops per hop).
#[derive(Default)]
struct TxHasher(u64);

impl Hasher for TxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Identifies a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub usize);

/// Simulation fidelity of compute nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Fidelity {
    /// Tile-Level Simulation: use the TOG's offline latencies (fast).
    #[default]
    Tls,
    /// Instruction-Level Simulation: every kernel's machine code is
    /// re-executed per tile instance — timed on the core pipeline model
    /// (the Gem5 role) *and* executed functionally, arithmetic included,
    /// on the ISA interpreter (the Spike role) — plus a per-tile pipeline
    /// restart/descriptor overhead. Slow by design: this is the
    /// execution-driven comparator of Fig. 6 and the high-fidelity
    /// reference of Fig. 5.
    Ils {
        /// Extra cycles per tile instance (pipeline refill between kernels).
        per_tile_overhead: u64,
        /// Execute kernels functionally too (the Spike role). Required for
        /// faithful wall-clock comparisons; timing-only studies can skip
        /// it, since functional execution does not change simulated cycles.
        functional: bool,
    },
}

/// How a simulation run executes on the host.
///
/// This is the single switch that replaced the old scattered
/// `run`/`run_reference` entry points: one enum, threaded through
/// `RunOptions`, the sweep grid, the `RunSpec` wire schema, and the
/// simulation server.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum ExecutionBackend {
    /// Single-threaded event kernel (the default). Deterministic and the
    /// baseline every other backend must match bit-for-bit.
    #[default]
    Serial,
    /// Conservative lookahead-barrier parallelism: DRAM channel shards
    /// advance to each epoch's horizon on worker threads while the NoC
    /// advances on the coordinator; all cross-component coupling stays on
    /// the coordinator between epochs, so reports are bit-identical to
    /// [`ExecutionBackend::Serial`].
    ///
    /// With a tracer attached the engine falls back to the serial path:
    /// worker-side trace recording would interleave nondeterministically.
    Parallel {
        /// Worker threads for component shards (clamped to the shardable
        /// component count; must be ≥ 1).
        workers: usize,
    },
    /// Legacy full-rescan loop: every core re-examined every iteration,
    /// clock always advancing by at least one cycle. The oracle of the
    /// kernel-equivalence suite.
    Reference,
}

impl ExecutionBackend {
    /// Worker count used when a wire string says `"parallel"` with no `:N`.
    pub const DEFAULT_PARALLEL_WORKERS: usize = 4;

    /// Canonical wire encoding: `"serial"`, `"parallel:N"`, `"reference"`.
    pub fn as_wire(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for ExecutionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionBackend::Serial => f.write_str("serial"),
            ExecutionBackend::Parallel { workers } => write!(f, "parallel:{workers}"),
            ExecutionBackend::Reference => f.write_str("reference"),
        }
    }
}

impl std::str::FromStr for ExecutionBackend {
    type Err = String;

    /// Parses the wire encoding. `"parallel"` without a worker count means
    /// [`ExecutionBackend::DEFAULT_PARALLEL_WORKERS`]; a count of zero is
    /// rejected.
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "serial" => Ok(ExecutionBackend::Serial),
            "reference" => Ok(ExecutionBackend::Reference),
            "parallel" => {
                Ok(ExecutionBackend::Parallel { workers: Self::DEFAULT_PARALLEL_WORKERS })
            }
            _ => {
                let workers = s
                    .strip_prefix("parallel:")
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        format!(
                            "unknown execution backend '{s}' \
                             (expected serial, parallel[:N] with N >= 1, or reference)"
                        )
                    })?;
                Ok(ExecutionBackend::Parallel { workers })
            }
        }
    }
}

/// Job submission parameters.
#[derive(Debug, Clone, Default)]
pub struct JobSpec {
    /// First core of this job's partition.
    pub core_offset: usize,
    /// Number of cores in the partition (0 = all remaining cores).
    pub cores: usize,
    /// DRAM accounting tag.
    pub tag: u32,
    /// Arrival time.
    pub start_at: Cycle,
    /// Kernel programs (required for ILS fidelity).
    pub kernels: Option<Arc<HashMap<String, Program>>>,
}

struct Job {
    tog: Arc<ExecutableTog>,
    spec: JobSpec,
    deps_left: Vec<u32>,
    consumers: Vec<Vec<u32>>,
    nodes_done: usize,
    seeded: bool,
    end: Cycle,
    dma_bytes: u64,
    compute_nodes: usize,
}

#[derive(Debug, Clone, Copy)]
struct DmaJob {
    job: usize,
    node: usize,
    is_write: bool,
    base: u64,
    stride: u64,
    row_bytes: u64,
    started: u64,
    next_tx: u64,
    done_tx: u64,
    total_tx: u64,
    core: usize,
    tag: u32,
}

impl DmaJob {
    fn tx_addr(&self, i: u64, tx_bytes: u64) -> u64 {
        let per_row = self.row_bytes.div_ceil(tx_bytes).max(1);
        let row = i / per_row;
        let within = i % per_row;
        self.base + row * self.stride + within * tx_bytes
    }
}

#[derive(Debug, Clone, Copy)]
enum TxPhase {
    /// Read: waiting on DRAM; next hop is the NoC response.
    ReadDram,
    /// Read: data in flight on the NoC back to the core.
    ReadNoc,
    /// Write: data in flight on the NoC to the memory controller.
    WriteNoc,
    /// Write: waiting on DRAM.
    WriteDram,
}

#[derive(Debug, Clone, Copy)]
struct TxRef {
    dma_id: usize,
    phase: TxPhase,
    addr: u64,
}

struct Core {
    matrix_free: Cycle,
    vector_free: Cycle,
    matrix_busy: u64,
    vector_busy: u64,
    matrix_q: VecDeque<(usize, usize)>,
    vector_q: VecDeque<(usize, usize)>,
    dma_wait_q: VecDeque<(usize, usize)>,
    active_dma: Vec<usize>,
    dma_issue_free: Cycle,
    /// Latest [`Event::CoreWake`] already queued for the DMA issue pipe,
    /// so a stall rediscovered within one fixed-point pass posts no
    /// duplicate. `dma_issue_free` is non-decreasing, which makes this an
    /// exact dedup.
    dma_wake_posted: Cycle,
}

impl Core {
    fn new() -> Self {
        Core {
            matrix_free: Cycle::ZERO,
            vector_free: Cycle::ZERO,
            matrix_busy: 0,
            vector_busy: 0,
            matrix_q: VecDeque::new(),
            vector_q: VecDeque::new(),
            dma_wait_q: VecDeque::new(),
            active_dma: Vec::new(),
            dma_issue_free: Cycle::ZERO,
            dma_wake_posted: Cycle::ZERO,
        }
    }
}

/// Scheduled engine events. Tied times pop in the derived `Ord` order, so
/// the variant order IS the tie-breaking policy: in-flight work retires
/// (`ComputeDone`, then `CacheHit`) before new jobs seed (`JobArrival`)
/// before pure wake-ups (`CoreWake`) — exactly the per-cycle order the
/// legacy rescan loop established. Do not reorder variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    ComputeDone {
        job: usize,
        node: usize,
    },
    /// A read transaction served by the per-core L1 cache.
    CacheHit {
        dma_id: usize,
    },
    /// A job reaches its arrival time and seeds its dependency-free nodes.
    JobArrival {
        job: usize,
    },
    /// A core's DMA descriptor-issue pipe frees up with work still waiting.
    CoreWake {
        core: usize,
    },
}

/// Counter handles for the engine's per-phase profiling (replaces the old
/// `PTSIM_PROFILE` env-var + stderr path). Attached via
/// [`TogSim::set_metrics`]; the `*_ns` counters accumulate host wall-clock
/// nanoseconds per phase.
#[derive(Debug, Clone)]
struct EngineMetrics {
    iterations: Counter,
    events_drained: Counter,
    cores_woken: Counter,
    issue_ns: Counter,
    dram_ns: Counter,
    noc_ns: Counter,
    collect_ns: Counter,
}

impl EngineMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
            iterations: registry.counter("togsim.iterations"),
            events_drained: registry.counter("togsim.events_drained"),
            cores_woken: registry.counter("togsim.cores_woken"),
            issue_ns: registry.counter("togsim.issue_ns"),
            dram_ns: registry.counter("togsim.dram_advance_ns"),
            noc_ns: registry.counter("togsim.noc_advance_ns"),
            collect_ns: registry.counter("togsim.collect_ns"),
        }
    }
}

/// Runs `f`, charging its host-side duration to `c` when profiling is on.
fn timed<R>(c: Option<&Counter>, f: impl FnOnce() -> R) -> R {
    match c {
        Some(c) => {
            let t0 = std::time::Instant::now();
            let r = f();
            c.add(t0.elapsed().as_nanos() as u64);
            r
        }
        None => f(),
    }
}

/// The tile-level simulator.
pub struct TogSim {
    cfg: SimConfig,
    fidelity: Fidelity,
    dram: DramSim,
    /// Sharded re-hosting of `dram` while a parallel run is in flight;
    /// `None` (and `dram` fully populated) otherwise.
    parallel: Option<ShardedDram>,
    noc: NocSim,
    cores: Vec<Core>,
    caches: Vec<Option<L1Cache>>,
    jobs: Vec<Job>,
    dma_slab: Vec<DmaJob>,
    tx_refs: HashMap<RequestId, TxRef, BuildHasherDefault<TxHasher>>,
    /// Transactions refused by a full memory system, parked until it
    /// drains: one FIFO per DRAM channel (channels fill independently) and
    /// one for the NoC (its back-pressure is global).
    retry_dram: Vec<VecDeque<MemRequest>>,
    retry_noc: VecDeque<NocMessage>,
    /// Refused `mem_enqueue` calls, for the retry-path bound test.
    #[cfg(test)]
    mem_refusals: u64,
    ids: RequestIdGen,
    queue: EventQueue<Event>,
    now: Cycle,
    timing: TimingSim,
    /// Per-core functional machines for execution-driven ILS.
    funcsims: Vec<Option<FuncSim>>,
    max_cycles: u64,
    /// Cores something happened to since the last issue pass.
    dirty: WakeSet,
    /// Cores whose DMA transaction stream hit memory-system backpressure;
    /// revisited on every issue pass until the stream drains, like the
    /// legacy full rescan did.
    stalled: Vec<bool>,
    /// Jobs whose every node has retired (O(1) completion check).
    jobs_done: usize,
    /// Reusable drain buffers — the hot loop allocates nothing steady-state.
    dram_buf: Vec<(RequestId, Cycle)>,
    noc_buf: Vec<(RequestId, Cycle)>,
    issue_buf: Vec<usize>,
    tx_cores_buf: Vec<usize>,
    /// Per-phase profiling counters, when a registry is attached.
    metrics: Option<EngineMetrics>,
    /// Timeline recording when enabled; shared with the DRAM and NoC models
    /// so their events land in the same trace.
    tracer: Option<Arc<Tracer>>,
    /// Hardware performance counters when enabled; shared with the DRAM
    /// and NoC models. Unlike the tracer, counters do not force the
    /// parallel backend onto the serial path: bucket aggregation is
    /// commutative, so worker-side recording stays deterministic.
    counters: Option<Arc<CounterHub>>,
    /// Cooperative cancellation, polled by the scheduler step loop (and,
    /// under the parallel backend, by the shard workers).
    cancel: Option<CancelToken>,
}

impl TogSim {
    /// Creates a simulator for the given configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let ports = cfg.npu.cores + cfg.dram.channels;
        let mut noc = NocSim::new(&cfg.noc, ports, cfg.npu.freq_mhz);
        if let Some(ch) = &cfg.noc.chiplet {
            // Cores and channels each split evenly across chiplets.
            let mut map = Vec::with_capacity(ports);
            for c in 0..cfg.npu.cores {
                map.push(c * ch.chiplets / cfg.npu.cores.max(1));
            }
            for m in 0..cfg.dram.channels {
                map.push(m * ch.chiplets / cfg.dram.channels.max(1));
            }
            noc.set_chiplet_map(map);
        }
        TogSim {
            cfg: cfg.clone(),
            fidelity: Fidelity::Tls,
            dram: DramSim::new(&cfg.dram, cfg.npu.freq_mhz),
            parallel: None,
            noc,
            cores: (0..cfg.npu.cores).map(|_| Core::new()).collect(),
            caches: (0..cfg.npu.cores).map(|_| cfg.npu.l1_cache.map(L1Cache::new)).collect(),
            jobs: Vec::new(),
            dma_slab: Vec::new(),
            tx_refs: HashMap::default(),
            retry_dram: vec![VecDeque::new(); cfg.dram.channels],
            retry_noc: VecDeque::new(),
            #[cfg(test)]
            mem_refusals: 0,
            ids: RequestIdGen::new(),
            queue: EventQueue::new(),
            now: Cycle::ZERO,
            timing: TimingSim::new(&cfg.npu),
            funcsims: (0..cfg.npu.cores).map(|_| None).collect(),
            max_cycles: u64::MAX / 4,
            dirty: WakeSet::new(cfg.npu.cores),
            stalled: vec![false; cfg.npu.cores],
            jobs_done: 0,
            dram_buf: Vec::new(),
            noc_buf: Vec::new(),
            issue_buf: Vec::new(),
            tx_cores_buf: Vec::new(),
            metrics: None,
            tracer: None,
            counters: None,
            cancel: None,
        }
    }

    /// Attaches a metrics registry: the run loop then accumulates
    /// per-phase counters (`togsim.iterations`, `togsim.events_drained`,
    /// `togsim.cores_woken`, and host-nanosecond `togsim.*_ns` phase
    /// timers) into it.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(EngineMetrics::new(registry));
    }

    /// Selects the fidelity mode (TLS by default).
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Simulation-length safety limit in cycles.
    pub fn set_max_cycles(&mut self, max_cycles: u64) {
        self.max_cycles = max_cycles;
    }

    /// Arms cooperative cancellation: the run loop polls `token` at a
    /// bounded interval and, once it fires, unwinds with
    /// [`Error::Cancelled`] (`phase: "togsim"`) instead of completing.
    /// Cancellation never changes the timeline of a run that completes —
    /// the clock only ever stops, it is never skewed.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Enables execution-timeline recording with a fresh [`Tracer`];
    /// export with [`TogSim::chrome_trace`] after `run`.
    pub fn enable_tracing(&mut self) {
        self.set_tracer(Arc::new(Tracer::new()));
    }

    /// Attaches an externally owned tracer. The handle is threaded into the
    /// DRAM and NoC models so compute spans, DMA activity, per-channel DRAM
    /// transactions, and NoC transfers all land in one timeline.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.dram.set_tracer(tracer.clone());
        self.noc.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Attaches a counter hub. The handle is threaded into the DRAM and
    /// NoC models, and the engine itself records per-core compute-unit
    /// busy cycles (overall and per kernel) plus engine/core queue
    /// depths. Counter recording is bit-identical across every
    /// [`ExecutionBackend`] at a fixed workload.
    pub fn set_counters(&mut self, counters: Arc<CounterHub>) {
        self.dram.set_counters(counters.clone());
        self.noc.set_counters(counters.clone());
        self.counters = Some(counters);
    }

    /// The attached counter hub, if any.
    pub fn counters(&self) -> Option<&Arc<CounterHub>> {
        self.counters.as_ref()
    }

    /// Serializes the recorded timeline in the Chrome trace-event format
    /// (load it at `chrome://tracing` or in Perfetto). One "process" per
    /// core with matrix/vector/DMA threads, plus rows for each DRAM channel
    /// and the NoC. Timestamps are simulated cycles.
    ///
    /// Returns an empty array when tracing was not enabled.
    pub fn chrome_trace(&self) -> String {
        match &self.tracer {
            Some(t) => ptsim_trace::chrome::export_chrome_trace(&t.events()),
            None => "[]".to_string(),
        }
    }

    /// Submits a TOG for execution.
    pub fn add_job(&mut self, tog: ExecutableTog, spec: JobSpec) -> JobId {
        self.add_shared_job(Arc::new(tog), spec)
    }

    /// Submits a shared (cached) TOG for execution.
    pub fn add_shared_job(&mut self, tog: Arc<ExecutableTog>, mut spec: JobSpec) -> JobId {
        if spec.cores == 0 {
            spec.cores = self.cfg.npu.cores.saturating_sub(spec.core_offset).max(1);
        }
        let n = tog.nodes.len();
        let mut deps_left = vec![0u32; n];
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in tog.nodes.iter().enumerate() {
            deps_left[i] = node.deps.len() as u32;
            for &d in &node.deps {
                consumers[d].push(i as u32);
            }
        }
        let id = self.jobs.len();
        if n == 0 {
            // An empty TOG is complete on arrival.
            self.jobs_done += 1;
        }
        self.jobs.push(Job {
            tog,
            spec,
            deps_left,
            consumers,
            nodes_done: 0,
            seeded: false,
            end: Cycle::ZERO,
            dma_bytes: 0,
            compute_nodes: 0,
        });
        JobId(id)
    }

    fn core_of(&self, job: usize, node_core: u32) -> usize {
        let spec = &self.jobs[job].spec;
        (spec.core_offset + (node_core as usize % spec.cores.max(1))) % self.cores.len()
    }

    fn channel_port(&self, addr: u64) -> usize {
        self.cfg.npu.cores + self.dram.channel_of(addr)
    }

    /// Runs every submitted job to completion on the event kernel: dirty
    /// cores only are issued, and the clock jumps straight between
    /// component and scheduled event times.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SimulationFault`] on deadlock (a malformed TOG) or
    /// when the cycle safety limit is exceeded.
    pub fn run(&mut self) -> Result<SimReport> {
        self.run_with(ExecutionBackend::Serial)
    }

    /// Runs every submitted job to completion on the selected
    /// [`ExecutionBackend`].
    ///
    /// Every backend produces bit-identical reports; they differ only in
    /// host execution strategy:
    ///
    /// - [`Serial`](ExecutionBackend::Serial): the event kernel on the
    ///   calling thread — same as [`TogSim::run`].
    /// - [`Parallel`](ExecutionBackend::Parallel): the DRAM channels are
    ///   re-hosted on a [`ShardedDram`] whose worker threads advance busy
    ///   channel groups to each epoch's horizon while the NoC advances on
    ///   this thread; admission, completion collection, and scheduling stay
    ///   on this thread between epochs. Falls back to the serial path when
    ///   a tracer is attached (worker-side trace recording would interleave
    ///   nondeterministically).
    /// - [`Reference`](ExecutionBackend::Reference): the legacy full-rescan
    ///   loop, the oracle of the kernel-equivalence suite.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SimulationFault`] on deadlock (a malformed TOG) or
    /// when the cycle safety limit is exceeded.
    pub fn run_with(&mut self, backend: ExecutionBackend) -> Result<SimReport> {
        match backend {
            ExecutionBackend::Serial => self.run_loop(false)?,
            ExecutionBackend::Reference => self.run_loop(true)?,
            ExecutionBackend::Parallel { workers } => {
                if self.tracer.is_some() {
                    self.run_loop(false)?;
                } else {
                    let sharded = ShardedDram::new(&mut self.dram, workers);
                    if let Some(token) = &self.cancel {
                        sharded.set_cancel(token);
                    }
                    self.parallel = Some(sharded);
                    let result = self.run_loop(false);
                    // Put the channels (and their stats) back before
                    // reporting or propagating an error.
                    self.parallel
                        .take()
                        .expect("parallel backend installed")
                        .restore(&mut self.dram);
                    result?;
                }
            }
        }
        Ok(self.build_report())
    }

    fn run_loop(&mut self, reference: bool) -> Result<()> {
        // Arrivals become heap events: no per-iteration scan over unseeded
        // jobs. (Jobs already seeded by an earlier `run` call are skipped.)
        for j in 0..self.jobs.len() {
            if !self.jobs[j].seeded {
                self.push_event(self.jobs[j].spec.start_at, Event::JobArrival { job: j });
            }
        }
        let mut sched = Scheduler::starting_at(self.now);
        sched.set_max_cycles(self.max_cycles);
        if let Some(token) = &self.cancel {
            sched.set_cancel(token.clone());
        }
        let metrics = self.metrics.clone();
        loop {
            if let Some(m) = &metrics {
                m.iterations.inc();
            }
            let collected =
                timed(metrics.as_ref().map(|m| &m.collect_ns), || self.collect_completions());
            if reference {
                self.dirty.insert_all();
            }
            let issued = timed(metrics.as_ref().map(|m| &m.issue_ns), || self.issue());
            if !reference && (collected || issued) {
                // The reference path never claims progress, which pins the
                // scheduler to the legacy always-bump clamp.
                sched.note_progress();
            }
            if self.jobs_done == self.jobs.len() {
                return Ok(());
            }
            sched.observe(self.queue.next_time());
            sched.observe_component(self.mem_next_event());
            sched.observe_component(self.noc.next_event());
            match sched.step() {
                Step::Advance(t) => {
                    self.now = t;
                    self.advance_components(t, metrics.as_ref());
                }
                Step::Drain => {
                    // A component event landed exactly at `now`: let the
                    // components retire it, then loop to collect without
                    // moving the clock.
                    self.advance_components(self.now, None);
                }
                Step::Deadlocked => return Err(self.deadlock_fault()),
                Step::LimitExceeded => {
                    return Err(Error::SimulationFault("cycle safety limit exceeded".into()));
                }
                Step::Cancelled => {
                    return Err(Error::Cancelled { at_cycle: self.now.raw(), phase: "togsim" });
                }
            }
        }
    }

    /// Advances the memory system and the NoC to `t`: one epoch. With the
    /// parallel backend installed, busy DRAM channel groups run on their
    /// worker threads while the NoC advances on this thread (safe overlap:
    /// the two components never interact within a scheduler step — their
    /// coupling is mediated by `collect_completions`, which runs next);
    /// serially otherwise.
    fn advance_components(&mut self, t: Cycle, metrics: Option<&EngineMetrics>) {
        match &mut self.parallel {
            Some(sharded) => {
                let noc = &mut self.noc;
                timed(metrics.map(|m| &m.dram_ns), || {
                    sharded.advance_overlapped(t, || noc.advance(t));
                });
            }
            None => {
                timed(metrics.map(|m| &m.dram_ns), || self.dram.advance(t));
                timed(metrics.map(|m| &m.noc_ns), || self.noc.advance(t));
            }
        }
    }

    /// Memory-system admission, routed to the sharded host during a
    /// parallel run. Identical admission rule either way.
    fn mem_enqueue(&mut self, req: MemRequest, at: Cycle) -> bool {
        let admitted = match &mut self.parallel {
            Some(sharded) => sharded.try_enqueue(req, at),
            None => self.dram.try_enqueue(req, at),
        };
        #[cfg(test)]
        if !admitted {
            self.mem_refusals += 1;
        }
        admitted
    }

    /// Earliest future memory-system event, routed like [`Self::mem_enqueue`].
    fn mem_next_event(&self) -> Option<Cycle> {
        match &self.parallel {
            Some(sharded) => sharded.next_event(),
            None => self.dram.next_event(),
        }
    }

    /// Drains memory-system completions (serial retirement order) into `out`.
    fn mem_drain_completions_into(&mut self, out: &mut Vec<(RequestId, Cycle)>) {
        match &mut self.parallel {
            Some(sharded) => sharded.drain_completions_into(out),
            None => self.dram.drain_completions_into(out),
        }
    }

    fn build_report(&self) -> SimReport {
        let jobs = self
            .jobs
            .iter()
            .map(|j| JobReport {
                name: j.tog.name.clone(),
                start: j.spec.start_at,
                end: j.end,
                dma_bytes: j.dma_bytes,
                compute_nodes: j.compute_nodes,
                tag: j.spec.tag,
            })
            .collect::<Vec<_>>();
        SimReport {
            total_cycles: jobs.iter().map(|j| j.end.raw()).max().unwrap_or(0),
            jobs,
            dram: self.dram.stats(),
            noc: self.noc.stats(),
            matrix_busy: self.cores.iter().map(|c| c.matrix_busy).sum(),
            vector_busy: self.cores.iter().map(|c| c.vector_busy).sum(),
        }
    }

    /// Builds the deadlock diagnostic: besides the unfinished-job count,
    /// it lists every core with queued or in-flight work and every
    /// unfinished job's remaining node count, which is usually enough to
    /// see *which* dependency never resolved.
    fn deadlock_fault(&self) -> Error {
        let unfinished = self.jobs.iter().filter(|j| j.nodes_done < j.tog.nodes.len()).count();
        let mut cores = String::new();
        for (i, c) in self.cores.iter().enumerate() {
            if c.matrix_q.is_empty()
                && c.vector_q.is_empty()
                && c.dma_wait_q.is_empty()
                && c.active_dma.is_empty()
            {
                continue;
            }
            if !cores.is_empty() {
                cores.push_str(", ");
            }
            cores.push_str(&format!(
                "core{i}: matrix_q={} vector_q={} dma_wait_q={} active_dma={}",
                c.matrix_q.len(),
                c.vector_q.len(),
                c.dma_wait_q.len(),
                c.active_dma.len()
            ));
        }
        if cores.is_empty() {
            cores.push_str("all idle");
        }
        let mut jobs = String::new();
        for (i, j) in self.jobs.iter().enumerate() {
            let total = j.tog.nodes.len();
            if j.nodes_done >= total {
                continue;
            }
            if !jobs.is_empty() {
                jobs.push_str(", ");
            }
            jobs.push_str(&format!(
                "job{i} '{}': {} of {total} nodes remaining{}",
                j.tog.name,
                total - j.nodes_done,
                if j.seeded { "" } else { " (never arrived)" }
            ));
        }
        Error::SimulationFault(format!(
            "deadlock at {}: {} jobs unfinished; cores: [{}]; jobs: [{}]; \
             in-flight: {} transactions, {} dram retries, {} noc retries",
            self.now,
            unfinished,
            cores,
            jobs,
            self.tx_refs.len(),
            self.retry_dram.iter().map(VecDeque::len).sum::<usize>(),
            self.retry_noc.len()
        ))
    }

    /// Routes a ready node to its resource queue and wakes the core.
    fn dispatch(&mut self, job: usize, node: usize) {
        let core = self.core_of(job, self.jobs[job].tog.nodes[node].core);
        self.dirty.insert(core);
        let (site, depth) = match &self.jobs[job].tog.nodes[node].kind {
            FlatNodeKind::Compute { unit, .. } => match unit {
                ExecUnit::Matrix => {
                    self.cores[core].matrix_q.push_back((job, node));
                    (QueueSite::CoreMatrix, self.cores[core].matrix_q.len())
                }
                ExecUnit::Vector => {
                    self.cores[core].vector_q.push_back((job, node));
                    (QueueSite::CoreVector, self.cores[core].vector_q.len())
                }
            },
            FlatNodeKind::LoadDma { .. } | FlatNodeKind::StoreDma { .. } => {
                self.cores[core].dma_wait_q.push_back((job, node));
                (QueueSite::CoreDma, self.cores[core].dma_wait_q.len())
            }
        };
        if let Some(c) = &self.counters {
            c.record_queue_depth(site, core, self.now.raw(), depth as u64);
        }
    }

    /// Pushes an engine event and, with counters attached, samples the
    /// event-queue depth. Pushes happen at identical simulated times on
    /// every backend (the event streams are bit-identical), so the
    /// sampled series is backend-independent.
    fn push_event(&mut self, at: Cycle, event: Event) {
        self.queue.push(at, event);
        if let Some(c) = &self.counters {
            c.record_queue_depth(QueueSite::Scheduler, 0, self.now.raw(), self.queue.len() as u64);
        }
    }

    /// Issues work that can start at the current time on every dirty core;
    /// loops to a fixed point. Returns whether anything was issued.
    ///
    /// Phase order within a pass — retries, then per-core compute/DMA
    /// activation in ascending core order, then transaction streaming —
    /// matches the legacy full rescan, so visiting only dirty cores
    /// changes nothing observable: a skipped core has, by construction,
    /// nothing issuable.
    fn issue(&mut self) -> bool {
        let mut issue_buf = std::mem::take(&mut self.issue_buf);
        self.dirty.drain_into(&mut issue_buf);
        if let Some(m) = &self.metrics {
            m.cores_woken.add(issue_buf.len() as u64);
        }
        // Transaction streaming additionally revisits every core whose
        // stream is blocked on memory-system backpressure: backpressure
        // lifts when the DRAM/NoC advance, not through a per-core event.
        let mut tx_cores = std::mem::take(&mut self.tx_cores_buf);
        tx_cores.clear();
        tx_cores.extend_from_slice(&issue_buf);
        tx_cores.extend((0..self.stalled.len()).filter(|&c| self.stalled[c]));
        tx_cores.sort_unstable();
        tx_cores.dedup();
        let mut any = false;
        loop {
            let mut progress = false;
            progress |= self.retry_backpressured();
            for &core in &issue_buf {
                progress |= self.issue_computes(core);
                progress |= self.activate_dmas(core);
            }
            progress |= self.issue_transactions(&tx_cores);
            if !progress {
                break;
            }
            any = true;
        }
        self.issue_buf = issue_buf;
        self.tx_cores_buf = tx_cores;
        any
    }

    fn issue_computes(&mut self, core: usize) -> bool {
        let mut progress = false;
        for unit in [ExecUnit::Matrix, ExecUnit::Vector] {
            loop {
                let free = match unit {
                    ExecUnit::Matrix => self.cores[core].matrix_free,
                    ExecUnit::Vector => self.cores[core].vector_free,
                };
                if free > self.now {
                    break;
                }
                let head = match unit {
                    ExecUnit::Matrix => self.cores[core].matrix_q.pop_front(),
                    ExecUnit::Vector => self.cores[core].vector_q.pop_front(),
                };
                let Some((job, node)) = head else { break };
                let cycles = self.compute_cycles(job, node, core);
                if let Some(c) = &self.counters {
                    let FlatNodeKind::Compute { kernel, .. } = &self.jobs[job].tog.nodes[node].kind
                    else {
                        unreachable!("compute queue only holds compute nodes")
                    };
                    let busy_unit = match unit {
                        ExecUnit::Matrix => BusyUnit::Matrix,
                        ExecUnit::Vector => BusyUnit::Vector,
                    };
                    c.record_compute(core, busy_unit, kernel, self.now.raw(), cycles);
                }
                if let Some(t) = &self.tracer {
                    let FlatNodeKind::Compute { kernel, .. } = &self.jobs[job].tog.nodes[node].kind
                    else {
                        unreachable!("compute queue only holds compute nodes")
                    };
                    let lane = match unit {
                        ExecUnit::Matrix => Lane::Matrix,
                        ExecUnit::Vector => Lane::Vector,
                    };
                    t.compute_span(
                        core,
                        lane,
                        kernel,
                        self.now.raw(),
                        cycles,
                        self.jobs[job].spec.tag,
                    );
                }
                let done = self.now + cycles;
                match unit {
                    ExecUnit::Matrix => {
                        self.cores[core].matrix_free = done;
                        self.cores[core].matrix_busy += cycles;
                    }
                    ExecUnit::Vector => {
                        self.cores[core].vector_free = done;
                        self.cores[core].vector_busy += cycles;
                    }
                }
                self.push_event(done, Event::ComputeDone { job, node });
                self.jobs[job].compute_nodes += 1;
                progress = true;
            }
        }
        progress
    }

    fn compute_cycles(&mut self, job: usize, node: usize, core: usize) -> u64 {
        let FlatNodeKind::Compute { kernel, cycles, args, .. } =
            &self.jobs[job].tog.nodes[node].kind
        else {
            unreachable!("compute queue only holds compute nodes");
        };
        match self.fidelity {
            Fidelity::Tls => *cycles,
            Fidelity::Ils { per_tile_overhead, functional } => {
                if kernel == "barrier" {
                    return 0;
                }
                let Some(program) = self.jobs[job]
                    .spec
                    .kernels
                    .as_ref()
                    .and_then(|k| k.get(kernel.as_str()).cloned())
                else {
                    return *cycles + per_tile_overhead;
                };
                // Gem5 role: time the machine code instruction by
                // instruction for this instance.
                let measured = self.timing.measure(&program).map(|l| l.cycles).unwrap_or(*cycles);
                if !functional {
                    return measured + per_tile_overhead;
                }
                // Spike role: execute it functionally, arithmetic included.
                // This is exactly why ILS is slow — "all arithmetic
                // operations have to be executed within the simulator"
                // (§2.1). Architectural faults from running a tile kernel
                // standalone (scratchpad contents are not staged in timing
                // studies) are tolerated.
                let machine = self.funcsims[core].get_or_insert_with(|| {
                    let mut m = FuncSim::new(&self.cfg.npu);
                    m.set_max_steps(u64::MAX / 2);
                    m
                });
                if program.name.ends_with("_w0") {
                    let _ = machine.preload_zero_weights();
                }
                for (i, reg) in [10u8, 11, 12, 13].iter().enumerate() {
                    machine.set_reg(
                        ptsim_isa::reg::Reg::new(*reg),
                        args.get(i).copied().unwrap_or(0) as i64,
                    );
                }
                let _ = machine.run(&program);
                measured + per_tile_overhead
            }
        }
    }

    /// Moves ready DMA nodes into the active set, paying descriptor-issue
    /// serialization on the core's scalar pipe.
    fn activate_dmas(&mut self, core: usize) -> bool {
        let mut progress = false;
        while self.cores[core].active_dma.len() < self.cfg.npu.dma_queue_depth {
            if self.cores[core].dma_issue_free > self.now {
                break;
            }
            let Some((job, node)) = self.cores[core].dma_wait_q.pop_front() else {
                break;
            };
            let (is_write, base, stride, rows, row_bytes) =
                match &self.jobs[job].tog.nodes[node].kind {
                    FlatNodeKind::LoadDma { addr, rows, cols, mm_stride, .. } => {
                        (false, *addr, *mm_stride, *rows, *cols * 4)
                    }
                    FlatNodeKind::StoreDma { addr, rows, cols, mm_stride, .. } => {
                        (true, *addr, *mm_stride, *rows, *cols * 4)
                    }
                    FlatNodeKind::Compute { .. } => unreachable!("dma queue"),
                };
            let tx_bytes = self.cfg.dram.transaction_bytes;
            let per_row = row_bytes.div_ceil(tx_bytes).max(1);
            let dma = DmaJob {
                job,
                node,
                is_write,
                base,
                stride,
                row_bytes,
                started: self.now.raw(),
                next_tx: 0,
                done_tx: 0,
                total_tx: per_row * rows.max(1),
                core,
                tag: self.jobs[job].spec.tag,
            };
            self.jobs[job].dma_bytes += dma.total_tx * tx_bytes;
            if let Some(t) = &self.tracer {
                t.dma_issue(core, self.now.raw(), dma.total_tx * tx_bytes, is_write, dma.tag);
            }
            let id = self.dma_slab.len();
            self.dma_slab.push(dma);
            self.cores[core].active_dma.push(id);
            self.cores[core].dma_issue_free = self.now + self.cfg.npu.dma_issue_cycles;
            progress = true;
        }
        // Stalled on the descriptor-issue rate with work still waiting —
        // whether the loop broke on the rate or never ran because the
        // active set is depth-full: post a wake-up so the scheduler stops
        // when the issue pipe frees, exactly like the legacy per-core
        // rescan did. No other event fires at this time (unit completions
        // carry their own `ComputeDone`/DMA events, the issue pipe does
        // not). `dma_wake_posted` is monotone, so each wake time is posted
        // at most once.
        let free = self.cores[core].dma_issue_free;
        if free > self.now
            && !self.cores[core].dma_wait_q.is_empty()
            && self.cores[core].dma_wake_posted < free
        {
            self.cores[core].dma_wake_posted = free;
            self.push_event(free, Event::CoreWake { core });
        }
        progress
    }

    /// Streams transactions of active DMA jobs on `cores` into the memory
    /// system, recording which cores blocked on backpressure.
    fn issue_transactions(&mut self, cores: &[usize]) -> bool {
        let tx_bytes = self.cfg.dram.transaction_bytes;
        let mut progress = false;
        for &core in cores {
            let mut blocked = false;
            // Index loop: the active set is only mutated by `finish_tx`,
            // which cannot run while transactions are being issued.
            for slot in 0..self.cores[core].active_dma.len() {
                let dma_id = self.cores[core].active_dma[slot];
                loop {
                    let d = self.dma_slab[dma_id];
                    if d.next_tx >= d.total_tx {
                        break;
                    }
                    let addr = d.tx_addr(d.next_tx, tx_bytes);
                    let rid = self.ids.next_id();
                    let ok = if d.is_write {
                        if let Some(cache) = &mut self.caches[d.core] {
                            cache.access_write(addr);
                        }
                        // Write data first crosses the NoC to the memory
                        // controller.
                        let msg = NocMessage {
                            id: rid,
                            src: d.core,
                            dst: self.channel_port(addr),
                            bytes: tx_bytes,
                        };
                        if self.noc.try_send(msg, self.now) {
                            self.tx_refs
                                .insert(rid, TxRef { dma_id, phase: TxPhase::WriteNoc, addr });
                            true
                        } else {
                            false
                        }
                    } else if self.caches[d.core]
                        .as_mut()
                        .map(|c| c.access_read(addr))
                        .unwrap_or(false)
                    {
                        // L1 hit: data arrives after the hit latency without
                        // touching the memory system (§3.3.3).
                        let lat =
                            self.caches[d.core].as_ref().map(|c| c.hit_latency()).unwrap_or(0);
                        self.push_event(self.now + lat, Event::CacheHit { dma_id });
                        true
                    } else {
                        let req = MemRequest::read(rid, addr, tx_bytes, d.tag);
                        if self.mem_enqueue(req, self.now) {
                            // The line fills only once the memory system has
                            // accepted the miss.
                            if let Some(cache) = &mut self.caches[d.core] {
                                cache.fill(addr);
                            }
                            self.tx_refs
                                .insert(rid, TxRef { dma_id, phase: TxPhase::ReadDram, addr });
                            true
                        } else {
                            false
                        }
                    };
                    if !ok {
                        blocked = true;
                        break;
                    }
                    self.dma_slab[dma_id].next_tx += 1;
                    progress = true;
                }
            }
            self.stalled[core] = blocked;
        }
        progress
    }

    /// Re-offers parked transactions, each FIFO front-first up to its first
    /// refusal. Nothing frees a slot within a pass (every retry carries the
    /// same `now` and no component advances), so whatever sits behind a
    /// refused transaction would be refused too: stopping there admits
    /// exactly what a scan of every parked transaction would, for work
    /// proportional to what is admitted rather than to what is waiting.
    fn retry_backpressured(&mut self) -> bool {
        let mut progress = false;
        for ch in 0..self.retry_dram.len() {
            while let Some(&req) = self.retry_dram[ch].front() {
                if !self.mem_enqueue(req, self.now) {
                    break;
                }
                self.retry_dram[ch].pop_front();
                progress = true;
            }
        }
        while let Some(&msg) = self.retry_noc.front() {
            if !self.noc.try_send(msg, self.now) {
                break;
            }
            self.retry_noc.pop_front();
            progress = true;
        }
        progress
    }

    /// Drains every completion due at the current time — DRAM retirements,
    /// NoC deliveries, then scheduled events — marking affected cores
    /// dirty. Returns whether anything was processed.
    fn collect_completions(&mut self) -> bool {
        let mut drained = 0u64;
        // DRAM completions, through the reusable drain buffer (the legacy
        // `pop_completed` allocated a fresh Vec per poll).
        let mut buf = std::mem::take(&mut self.dram_buf);
        self.mem_drain_completions_into(&mut buf);
        for (rid, at) in buf.drain(..) {
            drained += 1;
            let Some(tx) = self.tx_refs.get_mut(&rid) else {
                continue;
            };
            let TxRef { dma_id, addr, phase } = *tx;
            match phase {
                TxPhase::ReadDram => {
                    // Data returns over the NoC to the core.
                    tx.phase = TxPhase::ReadNoc;
                    let msg = NocMessage {
                        id: rid,
                        src: self.channel_port(addr),
                        dst: self.dma_slab[dma_id].core,
                        bytes: self.cfg.dram.transaction_bytes,
                    };
                    if !self.noc.try_send(msg, at) {
                        self.retry_noc.push_back(msg);
                    }
                }
                TxPhase::WriteDram => {
                    self.tx_refs.remove(&rid);
                    self.finish_tx(dma_id);
                }
                _ => {}
            }
        }
        self.dram_buf = buf;
        // NoC deliveries.
        let mut buf = std::mem::take(&mut self.noc_buf);
        self.noc.drain_completions_into(&mut buf);
        for (rid, at) in buf.drain(..) {
            drained += 1;
            let Some(tx) = self.tx_refs.get_mut(&rid) else {
                continue;
            };
            let TxRef { dma_id, addr, phase } = *tx;
            match phase {
                TxPhase::ReadNoc => {
                    self.tx_refs.remove(&rid);
                    self.finish_tx(dma_id);
                }
                TxPhase::WriteNoc => {
                    tx.phase = TxPhase::WriteDram;
                    let tag = self.dma_slab[dma_id].tag;
                    let req = MemRequest::write(rid, addr, self.cfg.dram.transaction_bytes, tag);
                    if !self.mem_enqueue(req, at) {
                        self.retry_dram[self.dram.channel_of(addr)].push_back(req);
                    }
                }
                _ => {}
            }
        }
        self.noc_buf = buf;
        // Scheduled events due now, in (time, Event-Ord) order.
        while let Some((_t, event)) = self.queue.pop_due(self.now) {
            drained += 1;
            match event {
                Event::ComputeDone { job, node } => {
                    let core = self.core_of(job, self.jobs[job].tog.nodes[node].core);
                    self.dirty.insert(core);
                    // Completions land on the clock edge they are collected
                    // at, not the edge they were pushed at: a zero-latency
                    // event pushed at `now` only pops at `now + 1`, and
                    // recording the push time would report a `total_cycles`
                    // one short of the clock the run actually needed (so
                    // `max_cycles == total_cycles` could not replay).
                    self.node_done(job, node, self.now);
                }
                Event::CacheHit { dma_id } => self.finish_tx(dma_id),
                Event::JobArrival { job } => self.seed_job(job),
                Event::CoreWake { core } => self.dirty.insert(core),
            }
        }
        if drained > 0 {
            if let Some(m) = &self.metrics {
                m.events_drained.add(drained);
            }
        }
        drained > 0
    }

    /// Seeds an arrived job: dispatches every dependency-free node.
    fn seed_job(&mut self, job: usize) {
        if self.jobs[job].seeded {
            return;
        }
        self.jobs[job].seeded = true;
        for node in 0..self.jobs[job].tog.nodes.len() {
            if self.jobs[job].deps_left[node] == 0 {
                self.dispatch(job, node);
            }
        }
    }

    fn finish_tx(&mut self, dma_id: usize) {
        let d = &mut self.dma_slab[dma_id];
        d.done_tx += 1;
        if d.done_tx == d.total_tx {
            let (job, node, core) = (d.job, d.node, d.core);
            let (started, is_write) = (d.started, d.is_write);
            let (bytes, tag) = (d.total_tx * self.cfg.dram.transaction_bytes, d.tag);
            self.cores[core].active_dma.retain(|&i| i != dma_id);
            // A DMA slot freed: the core can activate waiting descriptors.
            self.dirty.insert(core);
            if let Some(t) = &self.tracer {
                t.dma_span(core, started, self.now.raw(), bytes, is_write, tag);
            }
            self.node_done(job, node, self.now);
        }
    }

    fn node_done(&mut self, job: usize, node: usize, at: Cycle) {
        {
            let j = &mut self.jobs[job];
            j.nodes_done += 1;
            j.end = j.end.max(at);
        }
        if self.jobs[job].nodes_done == self.jobs[job].tog.nodes.len() {
            self.jobs_done += 1;
        }
        let consumers = std::mem::take(&mut self.jobs[job].consumers[node]);
        for &c in &consumers {
            let c = c as usize;
            self.jobs[job].deps_left[c] -= 1;
            if self.jobs[job].deps_left[c] == 0 {
                self.dispatch(job, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_tog::{AddrExpr, TogBuilder, TogOpKind};

    fn cfg() -> SimConfig {
        SimConfig::tiny()
    }

    fn expand(b: TogBuilder) -> ExecutableTog {
        b.finish().expand().unwrap()
    }

    /// load -> compute -> store chain of `n` tiles with double buffering
    /// expressed through dependencies.
    fn pipeline_tog(n: u64, compute_cycles: u64, tile_bytes: u64) -> ExecutableTog {
        let mut b = TogBuilder::new("pipe");
        let i = b.begin_loop(n);
        let ld = b
            .node(TogOpKind::load(AddrExpr::new(0x1000).with_term(i, tile_bytes), tile_bytes), &[]);
        let w = b.node(TogOpKind::WaitDma { dma: ld }, &[]);
        let c = b.node(TogOpKind::compute("k", compute_cycles, ExecUnit::Matrix), &[w]);
        b.node(
            TogOpKind::store(AddrExpr::new(0x100_0000).with_term(i, tile_bytes), tile_bytes),
            &[c],
        );
        b.end_loop();
        expand(b)
    }

    #[test]
    fn empty_compute_graph_finishes_immediately() {
        let mut b = TogBuilder::new("one");
        b.node(TogOpKind::compute("k", 500, ExecUnit::Vector), &[]);
        let mut sim = TogSim::new(&cfg());
        sim.add_job(expand(b), JobSpec::default());
        let r = sim.run().unwrap();
        assert_eq!(r.total_cycles, 500);
    }

    #[test]
    fn dma_latency_is_visible() {
        let mut b = TogBuilder::new("ld");
        let ld = b.node(TogOpKind::load(AddrExpr::new(0x1000), 4096), &[]);
        let w = b.node(TogOpKind::WaitDma { dma: ld }, &[]);
        b.node(TogOpKind::compute("k", 10, ExecUnit::Matrix), &[w]);
        let mut sim = TogSim::new(&cfg());
        sim.add_job(expand(b), JobSpec::default());
        let r = sim.run().unwrap();
        // 4 KiB over 2 channels at 64 B/cycle plus latencies: ≥ 32 cycles.
        assert!(r.total_cycles >= 42, "cycles {}", r.total_cycles);
        assert_eq!(r.dram.reads, 64);
        assert!(r.noc.messages >= 64);
    }

    #[test]
    fn compute_and_dma_overlap() {
        // With dependencies allowing it, loads of later tiles overlap
        // earlier computes: total << serial sum.
        let n = 16;
        let r = {
            let mut sim = TogSim::new(&cfg());
            sim.add_job(pipeline_tog(n, 2000, 4096), JobSpec::default());
            sim.run().unwrap()
        };
        let serial: u64 = n * 2000 + 2 * n * 100; // rough serial floor
        assert!(r.total_cycles < serial, "no overlap: {} vs {serial}", r.total_cycles);
        assert!(r.total_cycles > n * 2000, "compute time must dominate");
    }

    #[test]
    fn dependencies_serialize_computes() {
        let mut b = TogBuilder::new("chain");
        let a = b.node(TogOpKind::compute("k", 100, ExecUnit::Matrix), &[]);
        let c = b.node(TogOpKind::compute("k", 100, ExecUnit::Matrix), &[a]);
        b.node(TogOpKind::compute("k", 100, ExecUnit::Matrix), &[c]);
        let mut sim = TogSim::new(&cfg());
        sim.add_job(expand(b), JobSpec::default());
        assert_eq!(sim.run().unwrap().total_cycles, 300);
    }

    #[test]
    fn matrix_and_vector_units_run_concurrently() {
        let mut b = TogBuilder::new("mv");
        b.node(TogOpKind::compute("m", 1000, ExecUnit::Matrix), &[]);
        b.node(TogOpKind::compute("v", 1000, ExecUnit::Vector), &[]);
        let mut sim = TogSim::new(&cfg());
        sim.add_job(expand(b), JobSpec::default());
        assert_eq!(sim.run().unwrap().total_cycles, 1000);
    }

    #[test]
    fn same_unit_serializes() {
        let mut b = TogBuilder::new("mm");
        b.node(TogOpKind::compute("m1", 1000, ExecUnit::Matrix), &[]);
        b.node(TogOpKind::compute("m2", 1000, ExecUnit::Matrix), &[]);
        let mut sim = TogSim::new(&cfg());
        sim.add_job(expand(b), JobSpec::default());
        assert_eq!(sim.run().unwrap().total_cycles, 2000);
    }

    #[test]
    fn multi_core_jobs_share_dram() {
        // Two jobs on different cores with heavy DMA: co-located run is
        // slower per job than an isolated run (bandwidth contention) but
        // faster than fully serial.
        // Each job alone demands ~70% of DRAM bandwidth; together they
        // oversubscribe it, so co-location hurts without full serialization.
        let tog = || pipeline_tog(32, 700, 32768);
        let mut two_core = cfg();
        two_core.npu.cores = 2;
        let solo = {
            let mut sim = TogSim::new(&two_core);
            sim.add_job(tog(), JobSpec { core_offset: 0, cores: 1, ..JobSpec::default() });
            sim.run().unwrap().total_cycles
        };
        let duo = {
            let mut sim = TogSim::new(&two_core);
            sim.add_job(tog(), JobSpec { core_offset: 0, cores: 1, tag: 0, ..JobSpec::default() });
            sim.add_job(tog(), JobSpec { core_offset: 1, cores: 1, tag: 1, ..JobSpec::default() });
            sim.run().unwrap()
        };
        assert!(
            duo.total_cycles as f64 > 1.05 * solo as f64,
            "contention must slow jobs: {} vs {solo}",
            duo.total_cycles
        );
        // Inter-stream bank conflicts legitimately eat much of the overlap
        // win on this 2-channel config; the bound only excludes full
        // serialization plus overheads.
        assert!(
            (duo.total_cycles as f64) < 2.02 * solo as f64,
            "jobs must overlap: {} vs {solo}",
            duo.total_cycles
        );
        assert!(duo.dram_bytes_for_tag(0) > 0);
        assert!(duo.dram_bytes_for_tag(1) > 0);
    }

    #[test]
    fn arrival_times_delay_jobs() {
        let mut sim = TogSim::new(&cfg());
        let mut b = TogBuilder::new("late");
        b.node(TogOpKind::compute("k", 10, ExecUnit::Matrix), &[]);
        sim.add_job(expand(b), JobSpec { start_at: Cycle::new(5000), ..JobSpec::default() });
        let r = sim.run().unwrap();
        assert!(r.total_cycles >= 5010);
    }

    #[test]
    fn ils_mode_is_slower_than_tls_in_simulated_time_with_overhead() {
        let tog = pipeline_tog(8, 100, 4096);
        let tls = {
            let mut sim = TogSim::new(&cfg());
            sim.add_job(tog.clone(), JobSpec::default());
            sim.run().unwrap().total_cycles
        };
        let ils = {
            let mut sim = TogSim::new(&cfg())
                .with_fidelity(Fidelity::Ils { per_tile_overhead: 40, functional: false });
            sim.add_job(tog, JobSpec::default());
            sim.run().unwrap().total_cycles
        };
        assert!(ils > tls, "ils {ils} vs tls {tls}");
    }

    #[test]
    fn aux_latency_tables_drive_data_dependent_timing() {
        let mut b = TogBuilder::new("sparse");
        b.aux_table("t", vec![100, 5000, 100]);
        let i = b.begin_loop(3);
        let _ = i;
        b.node(
            TogOpKind::Compute {
                kernel: "sp".into(),
                cycles: 0,
                unit: ExecUnit::Matrix,
                latency_table: Some("t".into()),
                args: Vec::new(),
            },
            &[],
        );
        b.end_loop();
        let mut sim = TogSim::new(&cfg());
        sim.add_job(expand(b), JobSpec::default());
        // Serial on one matrix unit: 100 + 5000 + 100.
        assert_eq!(sim.run().unwrap().total_cycles, 5200);
    }

    #[test]
    fn store_only_graph_completes() {
        let mut b = TogBuilder::new("st");
        b.node(TogOpKind::store(AddrExpr::new(0x2000), 1024), &[]);
        let mut sim = TogSim::new(&cfg());
        sim.add_job(expand(b), JobSpec::default());
        let r = sim.run().unwrap();
        assert_eq!(r.dram.writes, 16);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn report_bandwidth_accounting() {
        let mut sim = TogSim::new(&cfg());
        sim.add_job(pipeline_tog(4, 10, 4096), JobSpec { tag: 9, ..JobSpec::default() });
        let r = sim.run().unwrap();
        // 4 loads + 4 stores of 4 KiB.
        assert_eq!(r.dram_bytes_for_tag(9), 8 * 4096);
        assert!(r.jobs[0].mean_bandwidth() > 0.0);
    }
}

#[cfg(test)]
mod backend_tests {
    use super::*;
    use ptsim_tog::{AddrExpr, TogBuilder, TogOpKind};

    fn expand(b: TogBuilder) -> ExecutableTog {
        b.finish().expand().unwrap()
    }

    /// load -> compute -> store chain (same shape the kernel tests use).
    fn pipeline_tog(n: u64, compute_cycles: u64, tile_bytes: u64) -> ExecutableTog {
        let mut b = TogBuilder::new("pipe");
        let i = b.begin_loop(n);
        let ld = b
            .node(TogOpKind::load(AddrExpr::new(0x1000).with_term(i, tile_bytes), tile_bytes), &[]);
        let w = b.node(TogOpKind::WaitDma { dma: ld }, &[]);
        let c = b.node(TogOpKind::compute("k", compute_cycles, ExecUnit::Matrix), &[w]);
        b.node(
            TogOpKind::store(AddrExpr::new(0x100_0000).with_term(i, tile_bytes), tile_bytes),
            &[c],
        );
        b.end_loop();
        expand(b)
    }

    /// Runs the same workload on `backend` and on Serial; demands equality.
    fn assert_matches_serial(cfg: &SimConfig, tog: &ExecutableTog, backend: ExecutionBackend) {
        let run = |backend| {
            let mut sim = TogSim::new(cfg);
            sim.add_job(tog.clone(), JobSpec::default());
            sim.run_with(backend).unwrap()
        };
        let serial = run(ExecutionBackend::Serial);
        let other = run(backend);
        assert_eq!(serial, other, "{backend} diverged from serial");
    }

    #[test]
    fn parallel_matches_serial_across_worker_counts() {
        let mut cfg = SimConfig::tiny();
        cfg.dram.channels = 4;
        let tog = pipeline_tog(24, 150, 8192);
        // 1 worker, workers == channels, workers > channels.
        for workers in [1, 2, 4, 16] {
            assert_matches_serial(&cfg, &tog, ExecutionBackend::Parallel { workers });
        }
    }

    #[test]
    fn parallel_matches_serial_on_single_channel() {
        // workers > components collapses to one shard.
        let cfg = {
            let mut c = SimConfig::tiny();
            c.dram.channels = 1;
            c
        };
        let tog = pipeline_tog(8, 50, 4096);
        assert_matches_serial(&cfg, &tog, ExecutionBackend::Parallel { workers: 8 });
    }

    #[test]
    fn parallel_matches_reference_too() {
        let cfg = SimConfig::tiny();
        let tog = pipeline_tog(12, 200, 4096);
        let run = |backend| {
            let mut sim = TogSim::new(&cfg);
            sim.add_job(tog.clone(), JobSpec::default());
            sim.run_with(backend).unwrap()
        };
        assert_eq!(
            run(ExecutionBackend::Reference),
            run(ExecutionBackend::Parallel { workers: 2 })
        );
    }

    #[test]
    fn parallel_handles_drain_boundary_events() {
        // An L1-less store-heavy graph produces DRAM completions landing
        // exactly on collected edges (the `Step::Drain` path): writes hop
        // NoC -> DRAM, and the WriteNoc delivery re-enqueues into DRAM *at*
        // the current time — the zero-latency-at-the-horizon boundary case.
        let mut cfg = SimConfig::tiny();
        cfg.dram.channels = 2;
        cfg.dram.queue_depth = 4; // force backpressure retries too
        let mut b = TogBuilder::new("st");
        for i in 0..6u64 {
            b.node(TogOpKind::store(AddrExpr::new(0x2000 + i * 0x40), 2048), &[]);
        }
        let tog = expand(b);
        for workers in [1, 2, 8] {
            assert_matches_serial(&cfg, &tog, ExecutionBackend::Parallel { workers });
        }
    }

    #[test]
    fn parallel_with_tracer_falls_back_to_serial_path() {
        let mut serial = TogSim::new(&SimConfig::tiny());
        serial.enable_tracing();
        let mut b = TogBuilder::new("t");
        let ld = b.node(TogOpKind::load(AddrExpr::new(0x1000), 4096), &[]);
        b.node(TogOpKind::WaitDma { dma: ld }, &[]);
        let tog = expand(b);
        serial.add_job(tog.clone(), JobSpec::default());
        let want = serial.run().unwrap();
        let trace = serial.chrome_trace();

        let mut par = TogSim::new(&SimConfig::tiny());
        par.enable_tracing();
        par.add_job(tog, JobSpec::default());
        let got = par.run_with(ExecutionBackend::Parallel { workers: 4 }).unwrap();
        assert_eq!(want, got);
        // Identical path, identical trace.
        assert_eq!(trace, par.chrome_trace());
    }

    #[test]
    fn parallel_runs_are_repeatable() {
        let mut cfg = SimConfig::tiny();
        cfg.dram.channels = 4;
        let tog = pipeline_tog(16, 100, 8192);
        let run = || {
            let mut sim = TogSim::new(&cfg);
            sim.add_job(tog.clone(), JobSpec::default());
            sim.run_with(ExecutionBackend::Parallel { workers: 4 }).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backend_wire_round_trips() {
        for b in [
            ExecutionBackend::Serial,
            ExecutionBackend::Reference,
            ExecutionBackend::Parallel { workers: 1 },
            ExecutionBackend::Parallel { workers: 7 },
        ] {
            assert_eq!(b.as_wire().parse::<ExecutionBackend>().unwrap(), b);
        }
        assert_eq!(
            "parallel".parse::<ExecutionBackend>().unwrap(),
            ExecutionBackend::Parallel { workers: ExecutionBackend::DEFAULT_PARALLEL_WORKERS }
        );
        for bad in ["", "threads", "parallel:0", "parallel:-1", "parallel:x", "Serial"] {
            assert!(bad.parse::<ExecutionBackend>().is_err(), "{bad:?} must not parse");
        }
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use ptsim_tog::{AddrExpr, TogBuilder, TogOpKind};

    /// A 256 KiB store (4096 writes against 2 channels x 32 queue slots, so
    /// thousands park in the retry FIFOs) racing a dependent load stream.
    fn store_flood_tog() -> ExecutableTog {
        let mut b = TogBuilder::new("flood");
        b.node(TogOpKind::store(AddrExpr::new(0x100_0000), 256 * 1024), &[]);
        let i = b.begin_loop(16);
        let ld = b.node(TogOpKind::load(AddrExpr::new(0x1000).with_term(i, 8192), 8192), &[]);
        let w = b.node(TogOpKind::WaitDma { dma: ld }, &[]);
        b.node(TogOpKind::compute("k", 40, ExecUnit::Matrix), &[w]);
        b.end_loop();
        b.finish().expand().unwrap()
    }

    #[test]
    fn store_flood_report_is_pinned_and_backend_independent() {
        let run = |backend| {
            let mut sim = TogSim::new(&SimConfig::tiny());
            sim.add_job(store_flood_tog(), JobSpec::default());
            sim.run_with(backend).unwrap()
        };
        let serial = run(ExecutionBackend::Serial);
        // Captured from the commit before the per-channel retry FIFOs.
        assert_eq!(serial.total_cycles, 4786);
        let d = &serial.dram;
        assert_eq!((d.reads, d.writes, d.total_latency), (2048, 4096, 357_838));
        assert_eq!((d.row_hits, d.row_misses, d.row_conflicts), (5876, 32, 236));
        assert_eq!((serial.noc.messages, serial.noc.total_latency), (6144, 559_104));
        assert_eq!(serial, run(ExecutionBackend::Reference));
        assert_eq!(serial, run(ExecutionBackend::Parallel { workers: 2 }));
    }

    /// Fills every DRAM channel, then parks `per_channel` writes behind each.
    fn sim_with_parked_writes(per_channel: u64) -> TogSim {
        let cfg = SimConfig::tiny();
        let mut sim = TogSim::new(&cfg);
        let (channels, tx) = (cfg.dram.channels as u64, cfg.dram.transaction_bytes);
        let mut ids = RequestIdGen::new();
        for ch in 0..channels {
            let addr = |i: u64| (i * channels + ch) * tx;
            let mut i = 0;
            while sim.mem_enqueue(MemRequest::write(ids.next_id(), addr(i), tx, 0), Cycle::ZERO) {
                i += 1;
            }
            for k in 0..per_channel {
                let req = MemRequest::write(ids.next_id(), addr(i + k), tx, 0);
                sim.retry_dram[ch as usize].push_back(req);
            }
        }
        sim.mem_refusals = 0;
        sim
    }

    fn parked(sim: &TogSim) -> usize {
        sim.retry_dram.iter().map(VecDeque::len).sum()
    }

    #[test]
    fn retry_pass_is_refused_at_most_once_per_channel() {
        let mut sim = sim_with_parked_writes(2000);
        let channels = sim.cfg.dram.channels as u64;
        // Every channel full: one refusal each, nothing admitted.
        assert!(!sim.retry_backpressured());
        assert_eq!(sim.mem_refusals, channels);
        assert_eq!(parked(&sim), 2 * 2000);
        // Slots free up: each FIFO refills its channel front-first and is
        // again refused exactly once.
        sim.now = Cycle::new(40);
        sim.dram.advance(sim.now);
        let free = sim.dram.free_slots();
        assert!(free > 0 && free < 2000);
        sim.mem_refusals = 0;
        assert!(sim.retry_backpressured());
        assert_eq!(sim.mem_refusals, channels);
        assert_eq!(parked(&sim), 2 * 2000 - free);
        assert_eq!(sim.dram.free_slots(), 0);
    }

    #[test]
    fn deadlock_diagnostic_counts_parked_retries_across_channels() {
        let sim = sim_with_parked_writes(7);
        let Error::SimulationFault(msg) = sim.deadlock_fault() else {
            panic!("deadlock must be a simulation fault");
        };
        assert!(msg.contains("14 dram retries, 0 noc retries"), "{msg}");
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use ptsim_common::config::L1CacheConfig;
    use ptsim_tog::{AddrExpr, TogBuilder, TogOpKind};

    /// Repeatedly loads the same small region.
    fn rereading_tog(reps: u64) -> ExecutableTog {
        let mut b = TogBuilder::new("reread");
        let mut prev: Option<u32> = None;
        for _ in 0..reps {
            let ld = b.node(TogOpKind::load(AddrExpr::new(0x1000), 4096), &[]);
            let w = b.node(TogOpKind::WaitDma { dma: ld }, &[]);
            let deps = match prev {
                Some(p) => vec![w, p],
                None => vec![w],
            };
            prev = Some(b.node(TogOpKind::compute("k", 5, ExecUnit::Vector), &deps));
        }
        b.finish().expand().unwrap()
    }

    #[test]
    fn l1_cache_accelerates_rereads() {
        let mut cached = SimConfig::tiny();
        cached.npu.l1_cache = Some(L1CacheConfig::kib_128());
        let uncached = SimConfig::tiny();

        let run = |cfg: &SimConfig| {
            let mut sim = TogSim::new(cfg);
            sim.add_job(rereading_tog(16), JobSpec::default());
            sim.run().unwrap()
        };
        let with = run(&cached);
        let without = run(&uncached);
        assert!(
            with.total_cycles * 2 < without.total_cycles,
            "cache must accelerate rereads: {} vs {}",
            with.total_cycles,
            without.total_cycles
        );
        // Only the first pass misses: 15 of 16 passes hit.
        assert_eq!(with.dram.reads, 64, "only cold misses reach DRAM");
        assert_eq!(without.dram.reads, 16 * 64);
    }

    #[test]
    fn l1_cache_is_per_core() {
        let mut cfg = SimConfig::tiny();
        cfg.npu.cores = 2;
        cfg.npu.l1_cache = Some(L1CacheConfig::kib_128());
        let mut sim = TogSim::new(&cfg);
        sim.add_job(rereading_tog(4), JobSpec { core_offset: 0, cores: 1, ..JobSpec::default() });
        sim.add_job(
            rereading_tog(4),
            JobSpec { core_offset: 1, cores: 1, tag: 1, ..JobSpec::default() },
        );
        let r = sim.run().unwrap();
        eprintln!(
            "dram reads {} by tag0 {} tag1 {}",
            r.dram.reads,
            r.dram_bytes_for_tag(0) / 64,
            r.dram_bytes_for_tag(1) / 64
        );
        // Each core takes its own cold misses for the shared region.
        assert_eq!(r.dram.reads, 2 * 64);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use ptsim_tog::{AddrExpr, TogBuilder, TogOpKind};

    #[test]
    fn chrome_trace_records_computes_and_dmas() {
        let mut b = TogBuilder::new("t");
        let ld = b.node(TogOpKind::load(AddrExpr::new(0x1000), 4096), &[]);
        let w = b.node(TogOpKind::WaitDma { dma: ld }, &[]);
        let c = b.node(TogOpKind::compute("gemm_tile", 123, ExecUnit::Matrix), &[w]);
        b.node(TogOpKind::store(AddrExpr::new(0x8000), 4096), &[c]);
        let mut sim = TogSim::new(&SimConfig::tiny());
        sim.enable_tracing();
        sim.add_job(b.finish().expand().unwrap(), JobSpec::default());
        sim.run().unwrap();
        let trace = sim.chrome_trace();
        assert!(trace.contains(r#""name":"gemm_tile""#), "{trace}");
        assert!(trace.contains(r#""name":"loadDMA""#));
        assert!(trace.contains(r#""name":"storeDMA""#));
        assert!(trace.contains(r#""tid":"matrix""#));
        // Valid JSON shape (balanced brackets, comma-separated objects).
        assert!(trace.starts_with('[') && trace.ends_with(']'));
    }

    #[test]
    fn tracing_off_yields_empty_array() {
        let mut sim = TogSim::new(&SimConfig::tiny());
        assert_eq!(sim.chrome_trace(), "[]");
        let mut b = TogBuilder::new("t");
        b.node(TogOpKind::compute("k", 5, ExecUnit::Vector), &[]);
        sim.add_job(b.finish().expand().unwrap(), JobSpec::default());
        sim.run().unwrap();
        assert_eq!(sim.chrome_trace(), "[]");
    }
}
