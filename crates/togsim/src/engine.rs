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
use ptsim_common::json::{FromJson, Json, ToJson};
use ptsim_common::{CancelToken, Cycle, Error, RequestId, Result};
use ptsim_dram::{DramSim, MemRequest};
use ptsim_event::{CompletionSource, EventQueue, Scheduler, Step, WakeSet};
use ptsim_noc::{NocMessage, NocSim};
use ptsim_obs::{BusyUnit, CounterHub, QueueSite};
use ptsim_tog::{ExecUnit, ExecutableTog, FlatNodeKind};
use ptsim_trace::{Counter, Lane, MetricsRegistry, Tracer};
use std::collections::VecDeque;
use std::sync::Arc;

/// Identifies a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(pub usize);

/// Cycles an ILS compute node pays on top of its kernel's latency: the
/// pipeline restart and descriptor cost between tile kernels.
pub const ILS_PER_TILE_OVERHEAD: u64 = 24;

/// Simulation fidelity of compute nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Tile-Level Simulation: use the TOG's offline latencies (fast).
    #[default]
    Tls,
    /// Instruction-Level Simulation: a compute node costs its kernel's
    /// offline-measured latency plus [`ILS_PER_TILE_OVERHEAD`]; barrier
    /// joins stay free. Re-timing the kernel per tile instance would return
    /// the same latency (the timing model is deterministic), so Fig. 5's
    /// TLS error measures this constant and its knock-on through DRAM
    /// contention. The engine only times; computing real outputs (the
    /// Spike role) is `ptsim_compiler::exec::execute_functional`, which
    /// Fig. 6's ILS column runs alongside this mode.
    Ils,
}

impl ToJson for Fidelity {
    fn to_json(&self) -> Json {
        Json::str(match self {
            Fidelity::Tls => "tls",
            Fidelity::Ils => "ils",
        })
    }
}

impl FromJson for Fidelity {
    fn from_json(v: &Json) -> std::result::Result<Self, String> {
        match v.as_str() {
            Some("tls") => Ok(Fidelity::Tls),
            Some("ils") => Ok(Fidelity::Ils),
            Some(other) => Err(format!("unknown fidelity {other:?} (expected \"tls\" or \"ils\")")),
            None => Err("fidelity must be a string".into()),
        }
    }
}

/// How a simulation run executes on the host.
///
/// One enum, threaded through `RunOptions` into [`TogSim::run_with`]. Every
/// backend yields bit-identical reports, so the choice is not part of a
/// run's identity and is not on any wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionBackend {
    /// Single-threaded event kernel (the default). Deterministic and the
    /// baseline [`ExecutionBackend::Reference`] must match bit-for-bit.
    #[default]
    Serial,
    /// Compatibility alias of [`ExecutionBackend::Serial`]: runs the serial
    /// loop, and `workers` is ignored. The lookahead-parallel engine it used
    /// to select was retired (its reports were always bit-identical to
    /// `Serial`, so only wall time changes — it gets faster). The variant
    /// stays only because the benchmark's `togsim.parallel2_ratio` probe
    /// names it; it goes away together with that probe in a benchmark-only
    /// PR (ROADMAP item 10).
    Parallel {
        /// Ignored.
        workers: usize,
    },
    /// Legacy full-rescan loop: every core re-examined every iteration,
    /// clock always advancing by at least one cycle. The oracle of the
    /// kernel-equivalence suite.
    Reference,
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
    /// The address walk, positioned at transaction `next_tx`.
    walk: AddrWalk,
    started: u64,
    next_tx: u64,
    done_tx: u64,
    total_tx: u64,
    core: usize,
    tag: u32,
}

/// The transaction addresses of a strided DMA, `rows` rows of `row_bytes`
/// each `stride` apart: transaction `i` reads `base + (i / per_row) * stride
/// + (i % per_row) * tx_bytes`. The walk keeps `(row_base, within)` for the
/// current `i`, so no transaction pays a division.
#[derive(Debug, Clone, Copy)]
struct AddrWalk {
    stride: u64,
    tx_bytes: u64,
    /// Transactions per row, at least one.
    per_row: u64,
    /// Start address of the current row.
    row_base: u64,
    /// Index of the current transaction within its row, below `per_row`.
    within: u64,
}

impl AddrWalk {
    fn new(base: u64, stride: u64, row_bytes: u64, tx_bytes: u64) -> Self {
        let per_row = row_bytes.div_ceil(tx_bytes).max(1);
        AddrWalk { stride, tx_bytes, per_row, row_base: base, within: 0 }
    }

    fn addr(&self) -> u64 {
        self.row_base + self.within * self.tx_bytes
    }

    /// Steps to the next transaction.
    fn advance(&mut self) {
        self.within += 1;
        if self.within == self.per_row {
            self.within = 0;
            // Past the last row this address is never read, so it may wrap.
            self.row_base = self.row_base.wrapping_add(self.stride);
        }
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
    addr: u64,
    /// Index into the engine's DMA slab.
    dma_id: u32,
    /// NoC port of the memory channel serving `addr`, decoded once at
    /// issue (`cores + channel`).
    port: u16,
    phase: TxPhase,
}

/// In-flight transactions, a power-of-two ring indexed by `rid & mask`.
///
/// Ids are drawn in increasing order before admission is tried, so a refused
/// attempt or an L1 hit leaves a hole (`None`) and ids are never renumbered.
/// `[base, end)` is the window from the oldest live id to one past the newest
/// inserted one; every slot outside it is `None`. Retiring the oldest
/// transaction moves `base` over the leading holes. An insert past the
/// ring's capacity doubles it and re-places the window's entries.
#[derive(Debug, Default)]
struct TxRing {
    base: u64,
    end: u64,
    slots: Vec<Option<TxRef>>,
    live: usize,
}

impl TxRing {
    /// Slots a ring starts with.
    const MIN_SLOTS: usize = 64;

    fn mask(&self) -> u64 {
        self.slots.len() as u64 - 1
    }

    /// Registers `tx` under `rid`.
    ///
    /// # Panics
    ///
    /// Panics if `rid` is below the window or already live.
    fn insert(&mut self, rid: RequestId, tx: TxRef) {
        let id = rid.raw();
        if self.base == self.end {
            self.base = id;
            self.end = id;
        }
        let span = id.checked_sub(self.base).expect("transaction id below the ring window");
        let span = usize::try_from(span).expect("ring window fits in memory");
        if span >= self.slots.len() {
            self.grow(span + 1);
        }
        let i = (id & self.mask()) as usize;
        assert!(self.slots[i].replace(tx).is_none(), "transaction {rid:?} already in flight");
        self.end = self.end.max(id + 1);
        self.live += 1;
    }

    /// Doubles the ring until it holds `span` slots and re-places the
    /// window's live entries.
    fn grow(&mut self, span: usize) {
        let len = span.next_power_of_two().max(2 * self.slots.len()).max(Self::MIN_SLOTS);
        let mut slots = vec![None; len];
        let mask = len as u64 - 1;
        if !self.slots.is_empty() {
            let old = self.mask();
            for id in self.base..self.end {
                slots[(id & mask) as usize] = self.slots[(id & old) as usize].take();
            }
        }
        self.slots = slots;
    }

    fn slot(&mut self, rid: RequestId) -> Option<&mut Option<TxRef>> {
        let id = rid.raw();
        if id < self.base || id >= self.end {
            return None;
        }
        let i = (id & self.mask()) as usize;
        Some(&mut self.slots[i])
    }

    fn get_mut(&mut self, rid: RequestId) -> Option<&mut TxRef> {
        self.slot(rid)?.as_mut()
    }

    /// Retires `rid`, then moves `base` over the holes at the front of the
    /// window.
    fn remove(&mut self, rid: RequestId) -> Option<TxRef> {
        let tx = self.slot(rid)?.take()?;
        self.live -= 1;
        let mask = self.mask();
        while self.base < self.end && self.slots[(self.base & mask) as usize].is_none() {
            self.base += 1;
        }
        Some(tx)
    }

    /// Live transactions.
    fn len(&self) -> usize {
        self.live
    }
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
    noc: NocSim,
    cores: Vec<Core>,
    caches: Vec<Option<L1Cache>>,
    jobs: Vec<Job>,
    dma_slab: Vec<DmaJob>,
    tx_refs: TxRing,
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
    /// and NoC models.
    counters: Option<Arc<CounterHub>>,
    /// Cooperative cancellation, polled by the scheduler step loop.
    cancel: Option<CancelToken>,
}

impl TogSim {
    /// Creates a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if cores plus DRAM channels exceed 65 536 NoC ports, which
    /// `SimConfig::validate`'s count bounds rule out.
    pub fn new(cfg: &SimConfig) -> Self {
        let ports = cfg.npu.cores + cfg.dram.channels;
        assert!(ports <= 1 << 16, "{ports} NoC ports exceed the engine's 16-bit port ids");
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
            noc,
            cores: (0..cfg.npu.cores).map(|_| Core::new()).collect(),
            caches: (0..cfg.npu.cores).map(|_| cfg.npu.l1_cache.map(L1Cache::new)).collect(),
            jobs: Vec::new(),
            dma_slab: Vec::new(),
            tx_refs: TxRing::default(),
            retry_dram: vec![VecDeque::new(); cfg.dram.channels],
            retry_noc: VecDeque::new(),
            #[cfg(test)]
            mem_refusals: 0,
            ids: RequestIdGen::new(),
            queue: EventQueue::new(),
            now: Cycle::ZERO,
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

    /// NoC port of the memory channel serving `addr`.
    fn channel_port(&self, addr: u64) -> u16 {
        // `TogSim::new` checked that every port fits.
        (self.cfg.npu.cores + self.dram.channel_of(addr)) as u16
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
    /// Both loops produce bit-identical reports:
    ///
    /// - [`Serial`](ExecutionBackend::Serial) (and its compatibility alias
    ///   [`Parallel`](ExecutionBackend::Parallel)): the event kernel on the
    ///   calling thread — same as [`TogSim::run`].
    /// - [`Reference`](ExecutionBackend::Reference): the legacy full-rescan
    ///   loop, the oracle of the kernel-equivalence suite.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SimulationFault`] on deadlock (a malformed TOG) or
    /// when the cycle safety limit is exceeded.
    pub fn run_with(&mut self, backend: ExecutionBackend) -> Result<SimReport> {
        let reference = backend == ExecutionBackend::Reference;
        self.run_loop(reference)?;
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
            sched.observe_component(self.dram.next_event());
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

    /// Advances the memory system and the NoC to `t`. The two never interact
    /// within a scheduler step: their coupling is mediated by
    /// `collect_completions`, which runs next.
    fn advance_components(&mut self, t: Cycle, metrics: Option<&EngineMetrics>) {
        timed(metrics.map(|m| &m.dram_ns), || self.dram.advance(t));
        timed(metrics.map(|m| &m.noc_ns), || self.noc.advance(t));
    }

    /// DRAM admission; under test it also counts refusals for the
    /// retry-path bound test.
    fn mem_enqueue(&mut self, req: MemRequest, at: Cycle) -> bool {
        let admitted = self.dram.try_enqueue(req, at);
        #[cfg(test)]
        if !admitted {
            self.mem_refusals += 1;
        }
        admitted
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
                let cycles = self.compute_cycles(job, node);
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

    fn compute_cycles(&self, job: usize, node: usize) -> u64 {
        let FlatNodeKind::Compute { kernel, cycles, .. } = &self.jobs[job].tog.nodes[node].kind
        else {
            unreachable!("compute queue only holds compute nodes");
        };
        match self.fidelity {
            Fidelity::Tls => *cycles,
            Fidelity::Ils if kernel == "barrier" => 0,
            Fidelity::Ils => *cycles + ILS_PER_TILE_OVERHEAD,
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
            let walk = AddrWalk::new(base, stride, row_bytes, tx_bytes);
            let dma = DmaJob {
                job,
                node,
                is_write,
                walk,
                started: self.now.raw(),
                next_tx: 0,
                done_tx: 0,
                total_tx: walk.per_row * rows.max(1),
                core,
                tag: self.jobs[job].spec.tag,
            };
            self.jobs[job].dma_bytes += dma.total_tx * tx_bytes;
            if let Some(t) = &self.tracer {
                t.dma_issue(core, self.now.raw(), dma.total_tx * tx_bytes, is_write, dma.tag);
            }
            let id = self.dma_slab.len();
            assert!(id < u32::MAX as usize, "a run issues fewer than 2^32 DMA descriptors");
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
                    let addr = d.walk.addr();
                    let port = self.channel_port(addr);
                    // Checked against `u32::MAX` at activation.
                    let tx = |phase| TxRef { addr, dma_id: dma_id as u32, port, phase };
                    let rid = self.ids.next_id();
                    let ok = if d.is_write {
                        if let Some(cache) = &mut self.caches[d.core] {
                            cache.access_write(addr);
                        }
                        // Write data first crosses the NoC to the memory
                        // controller.
                        let msg =
                            NocMessage { id: rid, src: d.core, dst: port.into(), bytes: tx_bytes };
                        if self.noc.try_send(msg, self.now) {
                            self.tx_refs.insert(rid, tx(TxPhase::WriteNoc));
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
                            self.tx_refs.insert(rid, tx(TxPhase::ReadDram));
                            true
                        } else {
                            false
                        }
                    };
                    if !ok {
                        blocked = true;
                        break;
                    }
                    let d = &mut self.dma_slab[dma_id];
                    d.next_tx += 1;
                    d.walk.advance();
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
        self.dram.drain_completions_into(&mut buf);
        for (rid, at) in buf.drain(..) {
            drained += 1;
            let Some(tx) = self.tx_refs.get_mut(rid) else {
                continue;
            };
            let TxRef { dma_id, port, phase, .. } = *tx;
            let dma_id = dma_id as usize;
            match phase {
                TxPhase::ReadDram => {
                    // Data returns over the NoC to the core.
                    tx.phase = TxPhase::ReadNoc;
                    let msg = NocMessage {
                        id: rid,
                        src: port.into(),
                        dst: self.dma_slab[dma_id].core,
                        bytes: self.cfg.dram.transaction_bytes,
                    };
                    if !self.noc.try_send(msg, at) {
                        self.retry_noc.push_back(msg);
                    }
                }
                TxPhase::WriteDram => {
                    self.tx_refs.remove(rid);
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
            let Some(tx) = self.tx_refs.get_mut(rid) else {
                continue;
            };
            let TxRef { addr, dma_id, port, phase } = *tx;
            let dma_id = dma_id as usize;
            match phase {
                TxPhase::ReadNoc => {
                    self.tx_refs.remove(rid);
                    self.finish_tx(dma_id);
                }
                TxPhase::WriteNoc => {
                    tx.phase = TxPhase::WriteDram;
                    let tag = self.dma_slab[dma_id].tag;
                    let req = MemRequest::write(rid, addr, self.cfg.dram.transaction_bytes, tag);
                    if !self.mem_enqueue(req, at) {
                        let channel = usize::from(port) - self.cfg.npu.cores;
                        self.retry_dram[channel].push_back(req);
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

    fn cycles_at(tog: &ExecutableTog, fidelity: Fidelity) -> u64 {
        let mut sim = TogSim::new(&cfg()).with_fidelity(fidelity);
        sim.add_job(tog.clone(), JobSpec::default());
        sim.run().unwrap().total_cycles
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
        let (ils, tls) = (cycles_at(&tog, Fidelity::Ils), cycles_at(&tog, Fidelity::Tls));
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
        let tog = expand(b);
        // Serial on one matrix unit: 100 + 5000 + 100. No kernel program
        // exists for a table-timed tile; ILS charges the table latency plus
        // the per-tile overhead.
        assert_eq!(cycles_at(&tog, Fidelity::Tls), 5200);
        assert_eq!(cycles_at(&tog, Fidelity::Ils), 5200 + 3 * ILS_PER_TILE_OVERHEAD);
    }

    #[test]
    fn ils_barrier_joins_cost_nothing() {
        let mut b = TogBuilder::new("join");
        let x = b.node(TogOpKind::compute("k", 100, ExecUnit::Matrix), &[]);
        let y = b.node(TogOpKind::compute("k", 100, ExecUnit::Vector), &[]);
        let join = b.node(TogOpKind::compute("barrier", 0, ExecUnit::Vector), &[x, y]);
        b.node(TogOpKind::compute("k", 100, ExecUnit::Matrix), &[join]);
        let tog = expand(b);
        // Two tiles on the critical path pay the overhead; the join does not.
        let (ils, tls) = (cycles_at(&tog, Fidelity::Ils), cycles_at(&tog, Fidelity::Tls));
        assert_eq!(ils, tls + 2 * ILS_PER_TILE_OVERHEAD);
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

    /// The compatibility promise of the retired parallel backend: at any
    /// worker count, `Parallel` is the serial loop — same report, same
    /// Chrome trace, same counter series as [`TogSim::run`].
    #[test]
    fn parallel_matches_serial_across_worker_counts() {
        let mut cfg = SimConfig::tiny();
        cfg.dram.channels = 4;
        let tog = pipeline_tog(24, 150, 8192);
        let run = |backend: Option<ExecutionBackend>| {
            let mut sim = TogSim::new(&cfg);
            sim.enable_tracing();
            let hub = Arc::new(CounterHub::default());
            sim.set_counters(Arc::clone(&hub));
            sim.add_job(tog.clone(), JobSpec::default());
            let report = match backend {
                Some(b) => sim.run_with(b),
                None => sim.run(),
            };
            (report.unwrap(), sim.chrome_trace(), hub.to_json().render())
        };
        let serial = run(None);
        assert!(serial.1.len() > 2 && serial.2.len() > 2, "nothing recorded");
        for workers in [1, 4, 16] {
            let got = run(Some(ExecutionBackend::Parallel { workers }));
            assert_eq!(serial, got, "parallel:{workers} diverged from run()");
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
    }

    /// Fills every DRAM channel, then parks `per_channel` writes behind each.
    fn sim_with_parked_writes(per_channel: u64) -> TogSim {
        let cfg = SimConfig::tiny();
        let mut sim = TogSim::new(&cfg);
        let (channels, tx) = (cfg.dram.channels as u64, cfg.dram.transaction_bytes);
        let mut ids = RequestIdGen::new();
        for ch in 0..channels {
            let addr = |i: u64| (i * channels + ch) * tx;
            // Every write is in flight, admitted or parked, as the engine
            // registers it before offering it to DRAM.
            let mut write = |sim: &mut TogSim, i: u64| {
                let req = MemRequest::write(ids.next_id(), addr(i), tx, 0);
                let port = sim.channel_port(req.addr);
                let phase = TxPhase::WriteDram;
                sim.tx_refs.insert(req.id, TxRef { addr: req.addr, dma_id: 0, port, phase });
                req
            };
            let mut i = 0;
            loop {
                let req = write(&mut sim, i);
                if !sim.mem_enqueue(req, Cycle::ZERO) {
                    sim.tx_refs.remove(req.id);
                    break;
                }
                i += 1;
            }
            for k in 0..per_channel {
                let req = write(&mut sim, i + k);
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
        // Two channels x 32 admitted writes, plus the 14 parked ones; the
        // refused probe per channel left a hole in the ring, not an entry.
        assert_eq!(sim.tx_refs.len(), 78);
        assert!(
            msg.contains("in-flight: 78 transactions, 14 dram retries, 0 noc retries"),
            "{msg}"
        );
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

#[cfg(test)]
mod ring_tests {
    use super::*;
    use ptsim_common::rng::Rng;
    use std::collections::BTreeMap;

    fn tx(dma_id: u32) -> TxRef {
        TxRef { addr: 0, dma_id, port: 0, phase: TxPhase::ReadDram }
    }

    fn rid(id: u64) -> RequestId {
        RequestId::new(id)
    }

    /// Ids 0, 3 and 7 live; 1, 2, 4, 5 and 6 were drawn and never inserted.
    fn holey() -> TxRing {
        let mut ring = TxRing::default();
        for id in [0, 3, 7] {
            ring.insert(rid(id), tx(id as u32));
        }
        ring
    }

    #[test]
    fn a_slot_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Option<TxRef>>(), 16);
    }

    /// `(live, base, window length)`.
    fn shape(ring: &TxRing) -> (usize, u64, u64) {
        (ring.len(), ring.base, ring.end - ring.base)
    }

    #[test]
    fn holes_from_unused_ids_are_empty_slots() {
        let mut ring = holey();
        assert_eq!(shape(&ring), (3, 0, 8));
        for id in [1, 2, 4, 5, 6, 8, 1 << 40] {
            assert!(ring.get_mut(rid(id)).is_none(), "id {id}");
            assert!(ring.remove(rid(id)).is_none(), "id {id}");
        }
        assert_eq!(ring.get_mut(rid(3)).map(|t| t.dma_id), Some(3));
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn out_of_order_retirement_keeps_the_window() {
        let mut ring = holey();
        assert_eq!(ring.remove(rid(7)).map(|t| t.dma_id), Some(7));
        assert_eq!(ring.remove(rid(3)).map(|t| t.dma_id), Some(3));
        // The oldest id is still live, so the window stays.
        assert_eq!(shape(&ring), (1, 0, 8));
        assert!(ring.remove(rid(3)).is_none(), "retired twice");
        assert_eq!(ring.len(), 1);
        // A later phase rewrites the entry in place.
        ring.get_mut(rid(0)).unwrap().phase = TxPhase::ReadNoc;
        assert!(matches!(ring.get_mut(rid(0)).unwrap().phase, TxPhase::ReadNoc));
    }

    #[test]
    fn retiring_the_front_pops_leading_holes() {
        let mut ring = holey();
        ring.remove(rid(0));
        assert_eq!(shape(&ring), (2, 3, 5));
        ring.remove(rid(3));
        assert_eq!(shape(&ring), (1, 7, 1));
        ring.remove(rid(7));
        assert_eq!(shape(&ring), (0, 8, 0));
        // An empty ring restarts its window at the next id, however far on.
        ring.insert(rid(100), tx(1));
        assert_eq!(shape(&ring), (1, 100, 1));
    }

    #[test]
    fn ids_below_the_base_are_not_found() {
        let mut ring = holey();
        ring.remove(rid(0));
        assert_eq!(ring.base, 3);
        for id in [0, 1, 2] {
            assert!(ring.get_mut(rid(id)).is_none(), "id {id}");
            assert!(ring.remove(rid(id)).is_none(), "id {id}");
        }
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn ids_that_share_a_slot_modulo_the_ring_are_told_apart() {
        let mut ring = TxRing::default();
        ring.insert(rid(5), tx(5));
        let len = ring.slots.len() as u64;
        // `5 + len` maps onto the slot of 5: the ring doubles instead.
        ring.insert(rid(5 + len), tx(6));
        assert_eq!(ring.slots.len() as u64, 2 * len);
        assert_eq!(ring.get_mut(rid(5)).map(|t| t.dma_id), Some(5));
        assert_eq!(ring.get_mut(rid(5 + len)).map(|t| t.dma_id), Some(6));
        assert!(ring.get_mut(rid(5 + 2 * len)).is_none());
    }

    /// Random inserts (with holes), lookups, rewrites and out-of-order
    /// retirements against a `BTreeMap`, with a live window that grows over
    /// several doublings, shrinks and wraps the ring many times.
    #[test]
    fn ring_matches_a_map_model() {
        let mut rng = Rng::seed_from_u64(0x7e46);
        let mut ring = TxRing::default();
        let mut model: BTreeMap<u64, TxRef> = BTreeMap::new();
        let mut next = 0u64;
        let mut sizes = Vec::new();
        for step in 0..60_000u64 {
            // Phases: grow to ~800 live, drain to a handful, repeat.
            let filling = (step / 2_000) % 2 == 0;
            let insert_p = if filling { 0.7 } else { 0.3 };
            if rng.gen_bool(insert_p) {
                // Skipped ids are holes: refused attempts and L1 hits.
                next += rng.gen_range(0..3u64);
                let t = TxRef {
                    addr: rng.next_u64(),
                    dma_id: rng.next_u64() as u32,
                    port: rng.next_u64() as u16,
                    phase: TxPhase::WriteNoc,
                };
                ring.insert(rid(next), t);
                model.insert(next, t);
                next += 1;
            } else if !model.is_empty() {
                // Retire mostly near the front, sometimes anywhere.
                let k = if rng.gen_bool(0.5) {
                    rng.gen_range(0..model.len().min(8))
                } else {
                    rng.gen_range(0..model.len())
                };
                let id = *model.keys().nth(k).unwrap();
                let (got, want) = (ring.remove(rid(id)), model.remove(&id));
                assert_eq!(got.map(|t| (t.addr, t.dma_id)), want.map(|t| (t.addr, t.dma_id)));
            }
            // Probe live ids, holes, ids below the window and past its end.
            for _ in 0..2 {
                let probe = rng.gen_range(0..next + 4);
                let want = model.get(&probe).map(|t| (t.addr, t.dma_id, t.port));
                let got = ring.get_mut(rid(probe)).map(|t| (t.addr, t.dma_id, t.port));
                assert_eq!(got, want, "probe {probe} at step {step}");
                if let (Some(t), Some(m)) = (ring.get_mut(rid(probe)), model.get_mut(&probe)) {
                    t.phase = TxPhase::WriteDram;
                    m.phase = TxPhase::WriteDram;
                }
            }
            assert_eq!(ring.len(), model.len());
            let oldest = model.keys().next().copied();
            assert_eq!(oldest.map(|id| id == ring.base), oldest.map(|_| true), "base at {step}");
            sizes.push(ring.slots.len());
        }
        // The window grew across several doublings and the ids wrapped the
        // final ring many times.
        let peak = sizes.iter().copied().max().unwrap();
        assert!(peak >= 8 * TxRing::MIN_SLOTS, "peak {peak} slots");
        assert!(next > 4 * peak as u64, "{next} ids over {peak} slots");
    }
}

#[cfg(test)]
mod walk_tests {
    use super::*;

    /// Every transaction address of the walk equals the closed form
    /// `base + (i / per_row) * stride + (i % per_row) * tx_bytes`.
    #[test]
    fn incremental_walk_matches_the_closed_form() {
        // (base, stride, rows, row_bytes, tx_bytes)
        let cases = [
            (0x1000, 4096, 8, 4096, 64),        // rows of whole transactions
            (0x1000, 1024, 5, 1000, 64),        // row_bytes not a multiple of tx_bytes
            (0x40, 1 << 20, 6, 256, 64),        // stride much larger than a row
            (0x2000, 512, 1, 8192, 64),         // one row
            (0x3000, 192, 9, 64, 64),           // one transaction per row
            (0x3000, 100, 9, 12, 64),           // a row smaller than a transaction
            (0, 0, 4, 128, 32),                 // zero stride re-reads one row
            (0x7, 96, 3, 200, 8),               // unaligned base, odd stride
            (0x1_0000_0000, 4096, 0, 4096, 64), // `rows = 0` streams one row
        ];
        for (base, stride, rows, row_bytes, tx_bytes) in cases {
            let mut walk = AddrWalk::new(base, stride, row_bytes, tx_bytes);
            let per_row = row_bytes.div_ceil(tx_bytes).max(1);
            assert_eq!(walk.per_row, per_row);
            for i in 0..per_row * u64::max(rows, 1) {
                let want = base + (i / per_row) * stride + (i % per_row) * tx_bytes;
                assert_eq!(walk.addr(), want, "tx {i} of {:?}", (base, stride, rows, row_bytes));
                walk.advance();
            }
        }
    }
}
