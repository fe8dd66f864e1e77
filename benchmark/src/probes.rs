//! Per-layer probes of the traced pass: each times calls into one layer's
//! public functions from outside, on inputs generated from `--seed`.
//!
//! A probe repeats a fixed batch of work several times and reports the
//! median batch, as nanoseconds per unit of work. They run in every traced
//! run, whatever the workload, so a full traced pass holds six samples of
//! each.

use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::span::SpanLog;
use crate::stats::median;
use ptsim_event::{EventQueue, Scheduler, Step};
use ptsim_serve::http::{read_request, Response};
use ptsim_serve::ResultCache;
use pytorchsim::common::config::{DramConfig, MemSchedulerPolicy, NocConfig, SimConfig};
use pytorchsim::common::json::{parse_json, ToJson};
use pytorchsim::common::{Cycle, RequestId, Result as SimResult};
use pytorchsim::compiler::{CompiledModel, Compiler, CompilerOptions, KernelStore};
use pytorchsim::dram::{DramSim, MemRequest};
use pytorchsim::funcsim::FuncSim;
use pytorchsim::isa::reg::Reg;
use pytorchsim::models::ModelSpec;
use pytorchsim::noc::{NocMessage, NocSim};
use pytorchsim::obs::{CounterConfig, CounterHub};
use pytorchsim::timingsim::TimingSim;
use pytorchsim::tog::FlatNodeKind;
use pytorchsim::trace::RowOutcome;
use pytorchsim::{ModelRequest, RunSpec, Simulator};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

/// Batches per probe; the median batch is reported.
const BATCHES: usize = 5;

/// Times `batch` (which performs, and returns, some units of work)
/// `BATCHES` times inside one span and returns the median ns per unit.
fn ns_per_unit(log: &mut SpanLog, name: &str, mut batch: impl FnMut() -> u64) -> f64 {
    let span = log.enter(name);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let units = batch();
            t0.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    log.exit(span);
    median(&samples)
}

/// Compile stages on the workload's models, cold (fresh `KernelStore`)
/// and warm, summed over the models.
pub fn compiler(
    metrics: &mut Metrics,
    log: &mut SpanLog,
    cfg: &SimConfig,
    specs: &[ModelSpec],
) -> SimResult<()> {
    let compiler = Compiler::new(cfg.clone(), CompilerOptions::default());
    let (mut capture, mut plan_ms, mut cold, mut warm) = (0.0, 0.0, 0.0, 0.0);
    let (mut measured, mut nodes) = (0u64, 0usize);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let outer = log.enter("probe.compiler");
    for spec in specs {
        let store = KernelStore::new();
        let t = Instant::now();
        log.time("compiler.capture", || compiler.capture(&spec.graph))?;
        capture += ms(t);
        let t = Instant::now();
        let plan = log.time("compiler.plan", || compiler.plan(&spec.graph, &store))?;
        plan_ms += ms(t);
        let t = Instant::now();
        let model =
            log.time("compiler.emit", || compiler.emit(&spec.graph, &spec.name, 1, &plan, &store))?;
        cold += ms(t);
        measured += store.stats().misses;
        nodes += model.tog.nodes.len();
        let t = Instant::now();
        log.time("compiler.emit", || compiler.emit(&spec.graph, &spec.name, 1, &plan, &store))?;
        warm += ms(t);
    }
    log.exit(outer);
    metrics.set("compiler.capture_ms", capture);
    metrics.set("compiler.plan_ms", plan_ms);
    metrics.set("compiler.emit_cold_ms", cold);
    metrics.set("compiler.emit_warm_ms", warm);
    metrics.set("compiler.kernels_measured", measured as f64);
    metrics.set("compiler.tog_nodes", nodes as f64);
    Ok(())
}

/// `TimingSim::measure` and `FuncSim::run` on the workload's own kernel
/// programs, with the arguments their first TOG instance carries — what
/// ILS does once per tile instance.
pub fn kernels(
    metrics: &mut Metrics,
    log: &mut SpanLog,
    cfg: &SimConfig,
    models: &[(&'static str, Arc<CompiledModel>)],
) {
    // Sorted by name: `CompiledModel::kernels` is a `HashMap`.
    let mut programs = BTreeMap::new();
    for (_, model) in models {
        for node in &model.tog.nodes {
            if let FlatNodeKind::Compute { kernel, args, .. } = &node.kind {
                if let Some(program) = model.kernels.get(kernel) {
                    programs
                        .entry(kernel.clone())
                        .or_insert_with(|| (program.clone(), args.clone()));
                }
            }
        }
    }
    if programs.is_empty() {
        return;
    }
    let timing = TimingSim::new(&cfg.npu);
    let mut timing_instrs = 0u64;
    let timing_ns = ns_per_unit(log, "probe.timingsim", || {
        timing_instrs = 0;
        for (program, _) in programs.values() {
            if let Ok(latency) = black_box(timing.measure(black_box(program))) {
                timing_instrs += latency.instructions;
            }
        }
        1
    });
    metrics.set("timingsim.measure_us_per_kernel", timing_ns / 1e3 / programs.len() as f64);
    metrics.set("timingsim.ns_per_instr", timing_ns / timing_instrs.max(1) as f64);

    let mut machine = FuncSim::new(&cfg.npu);
    machine.set_max_steps(u64::MAX / 2);
    let mut func_instrs = 0u64;
    let func_ns = ns_per_unit(log, "probe.funcsim", || {
        let before = machine.stats().instructions;
        for (program, args) in programs.values() {
            if program.name.ends_with("_w0") {
                let _ = machine.preload_zero_weights();
            }
            for (i, reg) in [10u8, 11, 12, 13].iter().enumerate() {
                machine.set_reg(Reg::new(*reg), args.get(i).copied().unwrap_or(0) as i64);
            }
            // Faults from running a tile standalone (nothing staged in the
            // scratchpad) are tolerated, exactly as the engine does.
            let _ = black_box(machine.run(black_box(program)));
        }
        func_instrs = machine.stats().instructions - before;
        1
    });
    metrics.set("funcsim.run_us_per_kernel", func_ns / 1e3 / programs.len() as f64);
    metrics.set("funcsim.ns_per_instr", func_ns / func_instrs.max(1) as f64);
}

/// Transactions per DRAM replay batch.
const DRAM_TX: u64 = 40_000;

/// Replays `addrs` through a fresh `DramSim` the way the engine drives
/// it: enqueue until refused, advance to the next event, drain.
fn dram_replay(cfg: &DramConfig, addrs: &[u64]) -> u64 {
    let mut dram = DramSim::new(cfg, 940.0);
    let mut now = Cycle::ZERO;
    let (mut next, mut done) = (0usize, 0usize);
    while done < addrs.len() {
        while next < addrs.len() {
            let req = if next % 4 == 3 {
                MemRequest::write(RequestId::new(next as u64), addrs[next], 64, 0)
            } else {
                MemRequest::read(RequestId::new(next as u64), addrs[next], 64, 0)
            };
            if !dram.try_enqueue(req, now) {
                break;
            }
            next += 1;
        }
        now = dram.next_event().map_or(now + 1, |t| t.max(now + 1));
        dram.advance(now);
        done += black_box(dram.pop_completed()).len();
    }
    addrs.len() as u64
}

/// Messages per NoC replay batch.
const NOC_MSGS: u64 = 40_000;

/// Replays seeded channel→core and core→channel messages through a fresh
/// `NocSim` with the port layout the engine uses (cores, then channels).
fn noc_replay(cfg: &NocConfig, seed: u64) -> u64 {
    let (cores, channels) = (2usize, 16usize);
    let mut noc = NocSim::new(cfg, cores + channels, 940.0);
    let mut rng = Rng::new(seed, 0x0c);
    let mut now = Cycle::ZERO;
    let (mut sent, mut delivered) = (0u64, 0u64);
    while delivered < NOC_MSGS {
        while sent < NOC_MSGS {
            let core = rng.below(cores as u64) as usize;
            let port = cores + rng.below(channels as u64) as usize;
            let (src, dst) = if sent % 4 == 3 { (core, port) } else { (port, core) };
            let msg = NocMessage { id: RequestId::new(sent), src, dst, bytes: 64 };
            if !noc.try_send(msg, now) {
                break;
            }
            sent += 1;
        }
        now = noc.next_event().map_or(now + 1, |t| t.max(now + 1));
        noc.advance(now);
        delivered += black_box(noc.pop_delivered()).len() as u64;
    }
    NOC_MSGS
}

/// The workload-independent probes: DRAM and NoC replay, the event
/// kernel, the counter hub, the compile cache and wire spec, the HTTP
/// edge, the result cache, JSON.
pub fn layers(metrics: &mut Metrics, log: &mut SpanLog, seed: u64) {
    let outer = log.enter("probe.layers");

    // dram: one sequential stream (row hits), one scattered over rows
    // (conflicts), both FR-FCFS; the scattered one again under FCFS.
    let hbm = DramConfig::hbm2_tpu_v3();
    let mut rng = Rng::new(seed, 0xd7);
    let base = rng.below(1 << 20) * 64;
    let stream: Vec<u64> = (0..DRAM_TX).map(|i| base + i * 64).collect();
    let scatter: Vec<u64> = (0..DRAM_TX).map(|_| rng.below(1 << 24) * 64).collect();
    let fcfs = DramConfig { scheduler: MemSchedulerPolicy::Fcfs, ..hbm.clone() };
    metrics.set(
        "dram.ns_per_tx_stream",
        ns_per_unit(log, "probe.dram", || dram_replay(&hbm, &stream)),
    );
    metrics.set(
        "dram.ns_per_tx_scatter",
        ns_per_unit(log, "probe.dram", || dram_replay(&hbm, &scatter)),
    );
    metrics.set(
        "dram.ns_per_tx_fcfs",
        ns_per_unit(log, "probe.dram", || dram_replay(&fcfs, &scatter)),
    );

    // noc
    let crossbar = NocConfig::crossbar_tpu_v3();
    let simple = NocConfig::simple();
    metrics.set(
        "noc.ns_per_msg_crossbar",
        ns_per_unit(log, "probe.noc", || noc_replay(&crossbar, seed)),
    );
    metrics
        .set("noc.ns_per_msg_simple", ns_per_unit(log, "probe.noc", || noc_replay(&simple, seed)));

    // event: the scheduler's observe + step protocol, and the queue.
    const STEPS: u64 = 200_000;
    metrics.set(
        "event.sched_step_ns",
        ns_per_unit(log, "probe.event", || {
            let mut sched = Scheduler::new();
            let mut rng = Rng::new(seed, 0xe1);
            for _ in 0..STEPS {
                let now = sched.now();
                sched.note_progress();
                sched.observe(Some(now + 1 + rng.below(64)));
                sched.observe_component(Some(now + rng.below(32)));
                if !matches!(black_box(sched.step()), Step::Advance(_) | Step::Drain) {
                    break;
                }
            }
            STEPS
        }),
    );
    metrics.set(
        "event.queue_push_pop_ns",
        ns_per_unit(log, "probe.event", || {
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut rng = Rng::new(seed, 0xe2);
            let mut now = Cycle::ZERO;
            for i in 0..STEPS {
                queue.push(now + 1 + rng.below(256), i);
                queue.push(now + 1 + rng.below(256), i);
                now = queue.next_time().unwrap_or(now);
                while black_box(queue.pop_due(now)).is_some() {}
            }
            2 * STEPS
        }),
    );

    // obs: the per-transaction recording path of the counter hub.
    const RECORDS: u64 = 200_000;
    metrics.set(
        "obs.record_dram_tx_ns",
        ns_per_unit(log, "probe.obs", || {
            let hub = CounterHub::new(CounterConfig::default());
            let mut rng = Rng::new(seed, 0x0b);
            for i in 0..RECORDS {
                let outcome = match rng.below(8) {
                    0 => RowOutcome::Conflict,
                    1 => RowOutcome::Miss,
                    _ => RowOutcome::Hit,
                };
                hub.record_dram_tx((i % 16) as usize, i * 3, 64, outcome);
            }
            black_box(hub.is_empty());
            RECORDS
        }),
    );

    // core: a compile on a warm key, and the request-path spec handling.
    let sim = Simulator::new(SimConfig::tiny());
    let spec = pytorchsim::models::mlp(4, 32);
    sim.compile(&spec).expect("mlp compiles on the tiny configuration");
    const LOOKUPS: u64 = 20_000;
    metrics.set(
        "core.compile_cache_hit_ns",
        ns_per_unit(log, "probe.core", || {
            for _ in 0..LOOKUPS {
                black_box(sim.compile(black_box(&spec)).expect("warm key"));
            }
            LOOKUPS
        }),
    );
    let run_spec =
        RunSpec::new(ModelRequest::GemmRect { m: 24, k: 32, n: 40 }).with_config(SimConfig::tiny());
    let wire = run_spec.to_json_string();
    let parsed = parse_json(&wire).expect("canonical JSON parses");
    const PARSES: u64 = 5_000;
    metrics.set(
        "core.runspec_parse_ns",
        ns_per_unit(log, "probe.core", || {
            for _ in 0..PARSES {
                let spec = RunSpec::parse_wire(black_box(&parsed)).expect("valid spec");
                black_box(spec.canonical_json());
                black_box(spec.fingerprint());
            }
            PARSES
        }),
    );
    metrics.set(
        "common.json_parse_ns_per_kb",
        ns_per_unit(log, "probe.common", || {
            for _ in 0..PARSES {
                black_box(parse_json(black_box(&wire)).expect("canonical JSON parses"));
            }
            PARSES
        }) * 1024.0
            / wire.len() as f64,
    );

    // serve: the HTTP edge on in-memory bytes, the result cache, and
    // rendering a report.
    let report = run_spec
        .run(&pytorchsim::CompileCache::shared())
        .expect("probe spec simulates on the tiny configuration");
    let body = format!(
        "{{\"fingerprint\":\"{:016x}\",\"report\":{}}}",
        run_spec.fingerprint(),
        report.to_json_string()
    );
    let request = format!(
        "POST /v1/simulate HTTP/1.1\r\nhost: ptsim\r\ncontent-length: {}\r\n\r\n{wire}",
        wire.len()
    );
    const HTTP: u64 = 20_000;
    metrics.set(
        "serve.http_parse_ns",
        ns_per_unit(log, "probe.serve", || {
            for _ in 0..HTTP {
                let mut reader = BufReader::new(black_box(request.as_bytes()));
                black_box(read_request(&mut reader).expect("well-formed request"));
            }
            HTTP
        }),
    );
    let response = Response::json(200, body.clone()).with_header("x-ptsim-cache", "hit");
    let mut sink = Vec::with_capacity(body.len() + 256);
    metrics.set(
        "serve.response_write_ns",
        ns_per_unit(log, "probe.serve", || {
            for _ in 0..HTTP {
                sink.clear();
                black_box(&response).write_to(&mut sink, true).expect("write to a Vec");
            }
            HTTP
        }),
    );
    metrics.set(
        "serve.report_json_ns",
        ns_per_unit(log, "probe.serve", || {
            for _ in 0..HTTP {
                black_box(black_box(&report).to_json_string());
            }
            HTTP
        }),
    );
    const ENTRIES: u64 = 256;
    let keys: Vec<(u64, String)> = (0..ENTRIES)
        .map(|i| {
            let spec = RunSpec::new(ModelRequest::Gemm { n: 8 + i as usize })
                .with_config(SimConfig::tiny());
            (spec.fingerprint(), spec.canonical_json())
        })
        .collect();
    let cache = ResultCache::new(32 << 20);
    metrics.set(
        "serve.rescache_insert_ns",
        ns_per_unit(log, "probe.serve", || {
            let fresh = ResultCache::new(32 << 20);
            for (fp, canon) in &keys {
                fresh.insert(*fp, canon.clone(), body.clone());
            }
            black_box(fresh.stats());
            ENTRIES
        }),
    );
    for (fp, canon) in &keys {
        cache.insert(*fp, canon.clone(), body.clone());
    }
    metrics.set(
        "serve.rescache_get_ns",
        ns_per_unit(log, "probe.serve", || {
            let mut rng = Rng::new(seed, 0x5c);
            for _ in 0..HTTP {
                let (fp, canon) = &keys[rng.below(ENTRIES) as usize];
                black_box(cache.get(*fp, canon));
            }
            HTTP
        }),
    );
    log.exit(outer);
}
