//! The four simulation workloads. One operation is one rep: a complete
//! simulated run (or, for `kernels_ils`, the six kernel runs), whose
//! reports must equal the committed goldens.
//!
//! The models are fixed — simulation inputs have no random part — so
//! `--seed` only drives the replay probes of the traced pass. Every model
//! is sized so a rep takes 0.5–1 s on the reference host: a ten-second run
//! then holds ten or more reps and reports their median. The host-time
//! shares quoted below were measured on the seed commit with the engine's
//! own `togsim.*_ns` phase counters (README.md has the table).

use crate::golden::Goldens;
use crate::metrics::Metrics;
use crate::span::SpanLog;
use crate::stats::{median, LatencyRecorder};
use crate::{alloc, latency_note, probes, set_up_again, Args, Outcome};
use pytorchsim::common::config::SimConfig;
use pytorchsim::common::{Cycle, Result as SimResult};
use pytorchsim::compiler::CompiledModel;
use pytorchsim::models::{self, BertConfig, ModelSpec};
use pytorchsim::obs::{profile, CounterConfig, CounterHub};
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
use pytorchsim::togsim::{JobSpec, SimReport, TogSim};
use pytorchsim::trace::{MetricsRegistry, Tracer};
use pytorchsim::{ExecutionBackend, RunOptions, Simulator};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a workload's models become one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One model, TLS, `Simulator::run_compiled`.
    Single,
    /// Every model co-located, model `i` on core `i`,
    /// `Simulator::run_tenants`.
    Tenants,
    /// Every model on its own under `RunOptions::ils()`.
    Ils,
}

/// One simulation workload.
pub struct SimWorkload {
    pub name: &'static str,
    mode: Mode,
    cfg: SimConfig,
    build: fn() -> Vec<(&'static str, ModelSpec)>,
}

/// Issue-bound: seq-512 attention on a narrow encoder keeps the engine's
/// issue path busy (61 % of host time in `togsim.issue_ns`, 31 % in DRAM) —
/// the BERT-base profile ROADMAP item 2 targets, at a hundredth of its run
/// time. Engine issue / `tx_refs` work shows here; DRAM-only work little.
fn bert_s512_models() -> Vec<(&'static str, ModelSpec)> {
    let cfg =
        BertConfig { hidden: 128, layers: 1, heads: 2, intermediate: 512, seq: 512, batch: 1 };
    vec![("bert_s512", models::bert(cfg, "bert_h128_l1_s512"))]
}

/// DRAM-bound single stream: base dims at seq 128 stream weights (66 % of
/// host time in `togsim.dram_advance_ns`, 20 % issue) — the mirror image
/// of `bert_s512`, so a `Channel::schedule` gain and an issue-path gain
/// are told apart.
fn bert_s128_models() -> Vec<(&'static str, ModelSpec)> {
    let cfg = BertConfig { layers: 1, ..BertConfig::base(128, 1) };
    vec![("bert_s128", models::bert(cfg, "bert_base_l1_s128"))]
}

/// The same DRAM and NoC layers used differently: a BERT layer and a
/// ResNet-18 conv stage (CONV1, batch 4) interleave on the two-core
/// crossbar configuration — conflict-heavy FR-FCFS picks (9 % of
/// transactions are row conflicts), multi-core wake lists, 1.3 M crossbar
/// messages. A DRAM fast path tuned for one streaming DMA that costs the
/// contended case shows here.
fn tenants_cn_models() -> Vec<(&'static str, ModelSpec)> {
    let mut v = bert_s128_models();
    v[0].0 = "bert";
    v.push(("conv1_b4", models::conv_kernel(1, 4).expect("conv index 1 exists")));
    v
}

/// Bypasses TOGSim's hot loop: under ILS every tile instance is timed and
/// executed instruction by instruction, so `funcsim` + `timingsim`
/// dominate (82 % of host time inside compute issue). The paper's
/// Fig. 5/6 pair at reduced scale; engine and DRAM work should not move it.
fn kernels_ils_models() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("gemm256", models::gemm(256)),
        ("gemm384", models::gemm(384)),
        ("conv2", models::conv_kernel(2, 1).expect("conv index 2 exists")),
        ("conv3", models::conv_kernel(3, 1).expect("conv index 3 exists")),
        ("layernorm", models::layernorm_kernel(512, 768)),
        ("softmax", models::softmax_kernel(512, 512)),
    ]
}

/// The simulation workloads, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<SimWorkload> {
    let one_core = SimConfig::tpu_v3_single_core();
    vec![
        SimWorkload {
            name: "bert_s512",
            mode: Mode::Single,
            cfg: one_core.clone(),
            build: bert_s512_models,
        },
        SimWorkload {
            name: "bert_s128",
            mode: Mode::Single,
            cfg: one_core.clone(),
            build: bert_s128_models,
        },
        SimWorkload {
            name: "tenants_cn",
            mode: Mode::Tenants,
            cfg: SimConfig::tpu_v3(),
            build: tenants_cn_models,
        },
        SimWorkload {
            name: "kernels_ils",
            mode: Mode::Ils,
            cfg: one_core,
            build: kernels_ils_models,
        },
    ]
}

/// A set-up workload: a fresh simulator (fresh compile cache), the models
/// cold-compiled into it, and what set-up itself produced.
pub struct Ready {
    sim: Simulator,
    specs: Vec<ModelSpec>,
    models: Vec<(&'static str, Arc<CompiledModel>)>,
    /// Reports of the set-up's own runs (TLS comparators, warm-up rep),
    /// keyed for the golden check, which happens outside the timing.
    produced: Vec<(String, SimReport)>,
    pub duration: Duration,
}

impl SimWorkload {
    fn base_options(&self) -> RunOptions {
        match self.mode {
            Mode::Ils => RunOptions::ils(),
            _ => RunOptions::tls(),
        }
    }

    fn golden_key(&self, label: &str, fidelity: &str) -> String {
        match self.mode {
            Mode::Ils => format!("{}/{label}/{fidelity}", self.name),
            _ => self.name.to_string(),
        }
    }

    /// Graph build, cold compile, TLS comparators (`kernels_ils`) and one
    /// discarded warm-up rep: everything before the first timed operation.
    pub fn set_up(&self, log: &mut SpanLog) -> SimResult<Ready> {
        let started = Instant::now();
        let span = log.enter("setup");
        let built = log.time("models.build", self.build);
        let sim = Simulator::new(self.cfg.clone());
        let mut models = Vec::with_capacity(built.len());
        let mut specs = Vec::with_capacity(built.len());
        for (label, spec) in built {
            models.push((label, log.time("core.compile", || sim.compile(&spec))?));
            specs.push(spec);
        }
        let mut ready =
            Ready { sim, specs, models, produced: Vec::new(), duration: Duration::ZERO };
        if self.mode == Mode::Ils {
            for (label, model) in &ready.models {
                let report = log.time("core.run_compiled", || {
                    ready.sim.run_compiled(model, &RunOptions::tls())
                })?;
                ready.produced.push((self.golden_key(label, "tls"), report));
            }
        }
        let warm = log.enter("warmup");
        let reports = self.run_op(&ready, &self.base_options(), log)?;
        log.exit(warm);
        ready.produced.extend(reports);
        log.exit(span);
        ready.duration = started.elapsed();
        Ok(ready)
    }

    /// One operation under `opts` (fidelity is the workload's own).
    fn run_op(
        &self,
        ready: &Ready,
        opts: &RunOptions,
        log: &mut SpanLog,
    ) -> SimResult<Vec<(String, SimReport)>> {
        match self.mode {
            Mode::Single | Mode::Ils => ready
                .models
                .iter()
                .map(|(label, model)| {
                    let report = self.run_one(ready, model, opts, log)?;
                    Ok((self.golden_key(label, "ils"), report))
                })
                .collect(),
            Mode::Tenants => {
                let report = self.run_tenants(ready, opts, log)?;
                Ok(vec![(self.name.to_string(), report)])
            }
        }
    }

    fn run_one(
        &self,
        ready: &Ready,
        model: &CompiledModel,
        opts: &RunOptions,
        log: &mut SpanLog,
    ) -> SimResult<SimReport> {
        in_run_span(log, "core.run_compiled", opts, || ready.sim.run_compiled(model, opts))
    }

    fn run_tenants(
        &self,
        ready: &Ready,
        opts: &RunOptions,
        log: &mut SpanLog,
    ) -> SimResult<SimReport> {
        let observed = opts.metrics.is_some() || opts.tracer.is_some() || opts.counters.is_some();
        in_run_span(log, "core.run_tenants", opts, || {
            if !observed {
                let tenants: Vec<_> = ready
                    .models
                    .iter()
                    .enumerate()
                    .map(|(core, (_, model))| {
                        (Arc::clone(model), core, 1, core as u32, Cycle::ZERO)
                    })
                    .collect();
                return ready.sim.run_tenants(&tenants);
            }
            // `Simulator::run_tenants` takes no options; with a registry,
            // tracer or hub attached the same jobs go to the engine directly.
            let mut engine = TogSim::new(&self.cfg);
            if let Some(m) = &opts.metrics {
                engine.set_metrics(m);
            }
            if let Some(t) = &opts.tracer {
                engine.set_tracer(Arc::clone(t));
            }
            if let Some(c) = &opts.counters {
                engine.set_counters(Arc::clone(c));
            }
            for (core, (_, model)) in ready.models.iter().enumerate() {
                let placement =
                    JobSpec { core_offset: core, cores: 1, tag: core as u32, ..JobSpec::default() };
                engine.add_shared_job(Arc::new(model.tog.clone()), placement);
            }
            engine.run_with(opts.backend)
        })
    }
}

/// Runs `run` inside a span called `name`. When `opts` carries a metrics
/// registry, the phase time the run added to it becomes the span's
/// children, laid end to end.
fn in_run_span(
    log: &mut SpanLog,
    name: &str,
    opts: &RunOptions,
    run: impl FnOnce() -> SimResult<SimReport>,
) -> SimResult<SimReport> {
    let before = opts.metrics.as_deref().map(PhaseCounters::read);
    let span = log.enter(name);
    let report = run();
    log.exit(span);
    if let (Some(registry), Some(before)) = (opts.metrics.as_deref(), before) {
        let after = PhaseCounters::read(registry);
        let parts: Vec<(&str, u64)> = after
            .phase_ns()
            .into_iter()
            .zip(before.phase_ns())
            .map(|((phase, now), (_, then))| (phase, now - then))
            .collect();
        log.lay_out_children(span, &parts);
    }
    report
}

/// The engine's published per-phase counters, read from a registry.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCounters {
    iterations: u64,
    events_drained: u64,
    cores_woken: u64,
    issue_ns: u64,
    dram_ns: u64,
    noc_ns: u64,
    collect_ns: u64,
}

impl PhaseCounters {
    fn read(registry: &MetricsRegistry) -> Self {
        let get = |name: &str| registry.counter(name).get();
        PhaseCounters {
            iterations: get("togsim.iterations"),
            events_drained: get("togsim.events_drained"),
            cores_woken: get("togsim.cores_woken"),
            issue_ns: get("togsim.issue_ns"),
            dram_ns: get("togsim.dram_advance_ns"),
            noc_ns: get("togsim.noc_advance_ns"),
            collect_ns: get("togsim.collect_ns"),
        }
    }

    /// The four host-time phases, as span names and nanoseconds.
    fn phase_ns(&self) -> [(&'static str, u64); 4] {
        [
            ("togsim.issue", self.issue_ns),
            ("togsim.dram_advance", self.dram_ns),
            ("togsim.noc_advance", self.noc_ns),
            ("togsim.collect", self.collect_ns),
        ]
    }
}

/// Checks every produced report against its golden; returns the failures.
fn check_all(goldens: &Goldens, produced: &[(String, SimReport)]) -> Vec<String> {
    produced.iter().filter_map(|(key, report)| goldens.check(key, report).err()).collect()
}

fn cycles_of(produced: &[(String, SimReport)]) -> u64 {
    produced.iter().map(|(_, r)| r.total_cycles).sum()
}

/// Mean |TLS − ILS| / ILS over the kernels of an ILS workload, percent.
/// Both sides are simulated cycle counts, so the figure repeats exactly.
/// The reference is this repository's own ILS mode, not silicon.
fn tls_err_pct(produced: &[(String, SimReport)]) -> f64 {
    let mut errs = Vec::new();
    for (key, ils) in produced.iter().filter(|(k, _)| k.ends_with("/ils")) {
        let tls_key = format!("{}/tls", key.trim_end_matches("/ils"));
        if let Some((_, tls)) = produced.iter().find(|(k, _)| *k == tls_key) {
            let (t, i) = (tls.total_cycles as f64, ils.total_cycles as f64);
            errs.push(100.0 * (t - i).abs() / i);
        }
    }
    if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

impl SimWorkload {
    /// The untraced pass: end-to-end metrics.
    pub fn run_untraced(&self, args: &Args, goldens: &Goldens) -> SimResult<Outcome> {
        let mut log = SpanLog::new(self.name, false);
        let mut setup_s = Vec::new();
        let mut errors = Vec::new();
        let setups_started = Instant::now();
        let mut ready = self.set_up(&mut log)?;
        setup_s.push(ready.duration.as_secs_f64());
        while set_up_again(setup_s.len(), setups_started.elapsed()) {
            errors.extend(check_all(goldens, &ready.produced));
            ready = self.set_up(&mut log)?;
            setup_s.push(ready.duration.as_secs_f64());
        }
        errors.extend(check_all(goldens, &ready.produced));

        let opts = self.base_options();
        let mut latencies = LatencyRecorder::with_capacity(4096);
        let (mut attempted, mut failed, mut cycles) = (0u64, 0u64, 0u64);
        let budget = Duration::from_secs_f64(args.seconds);
        let started = Instant::now();
        loop {
            let t0 = Instant::now();
            let reports = self.run_op(&ready, &opts, &mut log)?;
            latencies.record(t0.elapsed());
            attempted += 1;
            cycles += cycles_of(&reports);
            let bad = check_all(goldens, &reports);
            if !bad.is_empty() {
                failed += 1;
                errors.extend(bad);
            }
            if started.elapsed() >= budget || args.reps.is_some_and(|r| attempted >= u64::from(r)) {
                break;
            }
        }
        let elapsed = started.elapsed().as_secs_f64();

        let mut metrics = Metrics::end_to_end();
        metrics.set("setup_s", median(&setup_s));
        let p50_ms = latencies.percentile_ms(50.0);
        metrics.set("p50_ms", p50_ms);
        // One stream, closed loop: the rate at the median operation time
        // (reps ÷ elapsed would let one stalled rep move the whole run).
        metrics.set("ops_per_s", 1e3 / p50_ms);
        // Simulated cycles of one operation over its median host time.
        metrics.set("sim_mcycles_per_s", (cycles / attempted) as f64 / 1e3 / p50_ms);
        let notes = vec![
            format!(
                "set up {} times; {attempted} reps in {elapsed:.2} s; peak RSS {:.1} MiB",
                setup_s.len(),
                crate::peak_rss_mb()
            ),
            latency_note(&mut latencies),
        ];
        Ok(Outcome { attempted, failed, errors, notes, metrics })
    }

    /// The traced pass: per-layer metrics and `out/trace_<workload>.json`.
    pub fn run_traced(&self, args: &Args, goldens: &Goldens) -> SimResult<Outcome> {
        let mut log = SpanLog::new(self.name, true);
        let mut metrics = Metrics::per_layer();
        let mut errors = Vec::new();
        let ready = self.set_up(&mut log)?;
        errors.extend(check_all(goldens, &ready.produced));
        if self.mode == Mode::Ils {
            metrics.set("accuracy.tls_err_pct", tls_err_pct(&ready.produced));
        }
        let base = self.base_options();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut rep = 0u32;
        // Runs one op, checks it, returns its wall time in seconds.
        let mut timed_op = |opts: &RunOptions,
                            log: &mut SpanLog,
                            errors: &mut Vec<String>|
         -> SimResult<(f64, Vec<(String, SimReport)>)> {
            rep += 1;
            log.set_rep(rep);
            let t0 = Instant::now();
            let reports = self.run_op(&ready, opts, log)?;
            let wall = t0.elapsed().as_secs_f64();
            attempted += 1;
            let bad = check_all(goldens, &reports);
            if !bad.is_empty() {
                failed += 1;
                errors.extend(bad);
            }
            Ok((wall, reports))
        };

        // Plain reps (no registry: the untraced reference inside this run)
        // alternate with traced reps (engine phase counters on, allocations
        // counted), so a slow spell of the host falls on both alike.
        let reps = args.reps.map_or(if args.seconds < 5.0 { 1 } else { 2 }, |r| r.max(1) as usize);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut last_reports = Vec::new();
        let mut phases = PhaseCounters::default();
        let mut allocs = alloc::AllocSnapshot::default();
        for _ in 0..reps {
            let span = log.enter("rep.plain");
            let (wall, reports) = timed_op(&base, &mut log, &mut errors)?;
            log.exit(span);
            plain.push(wall);
            last_reports = reports;

            let registry = Arc::new(MetricsRegistry::new());
            let opts = base.clone().with_metrics(Arc::clone(&registry));
            let span = log.enter("rep.traced");
            let before = alloc::snapshot();
            alloc::set_counting(true);
            let (wall, _) = timed_op(&opts, &mut log, &mut errors)?;
            alloc::set_counting(false);
            allocs = alloc::snapshot().since(before);
            log.exit(span);
            traced.push(wall);
            phases = PhaseCounters::read(&registry);
        }
        let plain_s = median(&plain);
        let traced_s = median(&traced);
        metrics.set("trace_overhead_ratio", traced_s / plain_s);
        self.engine_metrics(&mut metrics, &phases, traced.last().copied().unwrap_or(0.0));
        let events = phases.events_drained.max(1) as f64;
        metrics.set("alloc.count_per_kevent", allocs.count as f64 / (events / 1e3));
        metrics.set("alloc.bytes_per_rep", allocs.bytes as f64);
        self.report_metrics(&mut metrics, &last_reports, &phases);

        // A run with a `Tracer` attached, over a plain one.
        let tracer = Tracer::shared();
        let span = log.enter("rep.tracer_on");
        let (wall, _) = timed_op(&base.clone().with_tracer(tracer), &mut log, &mut errors)?;
        log.exit(span);
        metrics.set("trace.tracer_on_ratio", wall / plain_s);

        if self.name == "bert_s128" {
            // Counters-on cost (ROADMAP items 2/4 want ≤ 1.03×) and the
            // other two execution backends, on the DRAM-bound stream.
            let mut profiled = Vec::new();
            let mut attribute_ms = 0.0;
            for _ in 0..reps {
                let hub = CounterHub::shared(CounterConfig::default());
                let span = log.enter("rep.counters_on");
                let t0 = Instant::now();
                let (_, reports) =
                    timed_op(&base.clone().with_counters(Arc::clone(&hub)), &mut log, &mut errors)?;
                let t1 = Instant::now();
                let attribution =
                    log.time("obs.attribute", || profile::attribute(&hub, cycles_of(&reports)));
                attribute_ms = t1.elapsed().as_secs_f64() * 1e3;
                profiled.push(t0.elapsed().as_secs_f64());
                log.exit(span);
                if attribution.attributed_cycles() != cycles_of(&reports) {
                    errors.push("obs.attribute did not close to total cycles".into());
                }
            }
            let profiled_s = median(&profiled);
            metrics.set("obs.wall_profiled_ms", profiled_s * 1e3);
            metrics.set("obs.counters_on_ratio", profiled_s / plain_s);
            metrics.set("obs.attribute_ms", attribute_ms);
            for (name, backend) in [
                ("togsim.parallel2_ratio", ExecutionBackend::Parallel { workers: 2 }),
                ("togsim.reference_ratio", ExecutionBackend::Reference),
            ] {
                let span = log.enter(name);
                let (wall, _) =
                    timed_op(&base.clone().with_backend(backend), &mut log, &mut errors)?;
                log.exit(span);
                metrics.set(name, wall / plain_s);
            }
        }
        if self.mode == Mode::Tenants {
            let span = log.enter("core.sweep_j2");
            match sweep_j2_speedup(&ready.specs[0], &self.cfg) {
                Ok(x) => metrics.set("core.sweep_j2_speedup_x", x),
                Err(e) => errors.push(format!("sweep_j2: {e}")),
            }
            log.exit(span);
        }

        probes::compiler(&mut metrics, &mut log, &self.cfg, &ready.specs)?;
        probes::kernels(&mut metrics, &mut log, &self.cfg, &ready.models);
        probes::layers(&mut metrics, &mut log, args.seed);

        // One of the two run spans exists, depending on the workload's mode.
        metrics.set(
            "core.run_self_ms",
            log.self_ms("core.run_compiled", true) + log.self_ms("core.run_tenants", true),
        );
        metrics.set("models.build_ms", log.self_ms("models.build", false));
        metrics.set("core.compile_ms", log.self_ms("core.compile", false));
        if let Err(e) = crate::write_trace(self.name, &log) {
            errors.push(e);
        }
        metrics.set("mem.peak_rss_mb", crate::peak_rss_mb());
        Ok(Outcome { attempted, failed, errors, notes: Vec::new(), metrics })
    }

    /// Host-time shares and per-event costs from the engine's counters of
    /// one traced rep that took `wall_s`.
    fn engine_metrics(&self, metrics: &mut Metrics, p: &PhaseCounters, wall_s: f64) {
        let wall_ns = (wall_s * 1e9).max(1.0);
        let events = p.events_drained.max(1) as f64;
        metrics.set("togsim.issue_share", p.issue_ns as f64 / wall_ns);
        metrics.set("togsim.dram_advance_share", p.dram_ns as f64 / wall_ns);
        metrics.set("togsim.noc_advance_share", p.noc_ns as f64 / wall_ns);
        metrics.set("togsim.collect_share", p.collect_ns as f64 / wall_ns);
        metrics.set("togsim.issue_ns_per_event", p.issue_ns as f64 / events);
        metrics.set("togsim.host_ns_per_event", wall_ns / events);
        metrics.set("togsim.iterations", p.iterations as f64);
        metrics.set("togsim.events_drained", p.events_drained as f64);
        metrics.set("togsim.cores_woken", p.cores_woken as f64);
    }

    /// Simulated work counts of one op, and host cost per unit of them.
    fn report_metrics(
        &self,
        metrics: &mut Metrics,
        reports: &[(String, SimReport)],
        p: &PhaseCounters,
    ) {
        let sum = |f: fn(&SimReport) -> u64| reports.iter().map(|(_, r)| f(r)).sum::<u64>();
        let tx = sum(|r| r.dram.reads + r.dram.writes);
        let msgs = sum(|r| r.noc.messages);
        metrics.set("dram.transactions", tx as f64);
        metrics.set("dram.row_hits", sum(|r| r.dram.row_hits) as f64);
        metrics.set("dram.row_conflicts", sum(|r| r.dram.row_conflicts) as f64);
        metrics.set(
            "dram.mean_latency_cycles",
            sum(|r| r.dram.total_latency) as f64 / tx.max(1) as f64,
        );
        metrics.set("dram.host_ns_per_tx", p.dram_ns as f64 / tx.max(1) as f64);
        metrics.set("noc.messages", msgs as f64);
        metrics.set(
            "noc.mean_latency_cycles",
            sum(|r| r.noc.total_latency) as f64 / msgs.max(1) as f64,
        );
        metrics.set("noc.host_ns_per_msg", p.noc_ns as f64 / msgs.max(1) as f64);
    }
}

/// `Sweep::run` over four DRAM-only variants of one model, one job then
/// two: the supported parallel axis. One compile must serve all eight
/// points (the variants differ only below the compile projection).
fn sweep_j2_speedup(spec: &ModelSpec, base: &SimConfig) -> Result<f64, String> {
    let mut sweep = Sweep::new();
    for queue_depth in [16, 24, 32, 48] {
        let mut cfg = SimConfig {
            npu: pytorchsim::common::config::NpuConfig::tpu_v3_single_core(),
            ..base.clone()
        };
        cfg.dram.queue_depth = queue_depth;
        sweep.push(SweepPoint::model(spec.clone(), cfg));
    }
    let cache = pytorchsim::CompileCache::shared();
    let mut walls = Vec::new();
    let mut reports: Vec<Vec<SimReport>> = Vec::new();
    for jobs in [1, 2] {
        let options = SweepOptions::with_jobs(jobs).with_cache(Arc::clone(&cache));
        let t0 = Instant::now();
        let report = sweep.run(&options).map_err(|e| e.to_string())?;
        walls.push(t0.elapsed().as_secs_f64());
        reports.push(report.sim_reports().into_iter().cloned().collect());
    }
    if cache.stats().compiles != 1 {
        return Err(format!("expected one compile, saw {}", cache.stats().compiles));
    }
    if reports[0] != reports[1] {
        return Err("jobs=2 reports differ from jobs=1".into());
    }
    Ok(walls[0] / walls[1])
}

/// Computes every golden of the simulation workloads (for `--write-golden`).
pub fn compute_goldens(into: &mut Goldens) -> SimResult<()> {
    for w in workloads() {
        let ready = w.set_up(&mut SpanLog::new(w.name, false))?;
        for (key, report) in &ready.produced {
            into.insert(key, crate::golden::Golden::of(report));
        }
    }
    Ok(())
}
