//! `ptsim profile [gemm|bert|resnet] [--bench] [--json] [--trace out.json]
//! [--top N] [--bucket CYCLES] [--guard] [--max-overhead RATIO]`: the
//! bottleneck-attribution profiler. It runs a workload with the hardware
//! performance counters enabled and reports where the engine cycles went.
//!
//! The report joins three layers of the stack:
//!
//! * the engine-side counter hub (`ptsim-obs`) attributes every cycle of
//!   the run to a kernel as compute, DRAM stall, NoC stall, or other
//!   (roofline-style; rows sum exactly to the engine's total cycles);
//! * the compiled model's per-operator plans fold the kernel rows into a
//!   per-layer table;
//! * the timing simulator re-measures the hottest kernels with counters
//!   attached, exposing their serializer/`DrainFifo` pressure.
//!
//! `--json` emits the whole report as one JSON object; `--trace <path>`
//! writes a Perfetto-loadable Chrome trace with one counter track per
//! series; `--guard` additionally runs the workload with counters off and
//! asserts the simulated report is bit-identical (the counters must
//! observe, never perturb), printing the measured wall-clock overhead;
//! `--max-overhead` tightens the guard's overhead-ratio bound (default
//! 25, a catastrophic-regression backstop — CI pins a smaller one).

use super::trace::{model, workload};
use crate::cli::{Args, Error};
use ptsim_common::config::SimConfig;
use pytorchsim::compiler::CompiledModel;
use pytorchsim::obs::profile::{apportion, attribute, Attribution};
use pytorchsim::obs::{CounterConfig, CounterHub, CounterKey, QueueSite};
use pytorchsim::timingsim::TimingSim;
use pytorchsim::tog::FlatNodeKind;
use pytorchsim::trace::{chrome, validate, Tracer};
use pytorchsim::{RunOptions, Simulator};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// One row of the per-layer table: a kernel row's cycles split across the
/// graph operators that instantiated the kernel, proportional to each
/// operator's TOG compute cycles.
#[derive(Debug, Default, Clone)]
struct LayerRow {
    name: String,
    compute: u64,
    dram_stall: u64,
    noc_stall: u64,
    other: u64,
}

impl LayerRow {
    fn total(&self) -> u64 {
        self.compute + self.dram_stall + self.noc_stall + self.other
    }
}

/// Folds the per-kernel attribution into per-layer rows by joining the
/// compiled model's operator plans with the TOG: each kernel's cycles are
/// apportioned across the layers whose tile nodes invoke it, weighted by
/// the layers' static TOG compute cycles for that kernel. Kernels the TOG
/// cannot place (never the case in practice) land in an `(unmapped)` row,
/// preserving the exact-closure invariant.
fn layer_table(model: &CompiledModel, attr: &Attribution) -> Vec<LayerRow> {
    // kernel name -> per-layer static compute cycles.
    let mut shares: BTreeMap<&str, Vec<(usize, u64)>> = BTreeMap::new();
    for (li, plan) in model.op_plans.iter().enumerate() {
        let (lo, hi) = plan.node_range;
        for node in &model.tog.nodes[lo..hi] {
            if let FlatNodeKind::Compute { kernel, cycles, .. } = &node.kind {
                let weight = (*cycles).max(1);
                let per_layer = shares.entry(kernel.as_str()).or_default();
                match per_layer.last_mut() {
                    Some((idx, c)) if *idx == li => *c += weight,
                    _ => per_layer.push((li, weight)),
                }
            }
        }
    }
    let mut rows: BTreeMap<usize, LayerRow> = BTreeMap::new();
    let mut unmapped = LayerRow { name: "(unmapped)".to_string(), ..LayerRow::default() };
    for k in &attr.kernels {
        match shares.get(k.kernel.as_str()) {
            Some(per_layer) if !per_layer.is_empty() => {
                let weights: Vec<u64> = per_layer.iter().map(|&(_, c)| c).collect();
                let compute = apportion(k.compute, &weights);
                let dram = apportion(k.dram_stall, &weights);
                let noc = apportion(k.noc_stall, &weights);
                let other = apportion(k.other, &weights);
                for (i, &(li, _)) in per_layer.iter().enumerate() {
                    let row = rows.entry(li).or_insert_with(|| LayerRow {
                        name: layer_name(model, li),
                        ..LayerRow::default()
                    });
                    row.compute += compute[i];
                    row.dram_stall += dram[i];
                    row.noc_stall += noc[i];
                    row.other += other[i];
                }
            }
            _ => {
                unmapped.compute += k.compute;
                unmapped.dram_stall += k.dram_stall;
                unmapped.noc_stall += k.noc_stall;
                unmapped.other += k.other;
            }
        }
    }
    let mut out: Vec<LayerRow> = rows.into_values().collect();
    if unmapped.total() > 0 {
        out.push(unmapped);
    }
    out.sort_by(|a, b| b.total().cmp(&a.total()).then_with(|| a.name.cmp(&b.name)));
    out
}

fn layer_name(model: &CompiledModel, li: usize) -> String {
    let plan = &model.op_plans[li];
    let node = model.graph.node(plan.value);
    if node.name.is_empty() {
        format!("op{li}")
    } else {
        node.name.clone()
    }
}

/// Timing-simulator micro-profile of one kernel: latency plus the peak
/// serializer/`DrainFifo` depths a counter-attached re-measurement saw.
#[derive(Debug, Clone)]
struct KernelMicro {
    kernel: String,
    cycles: u64,
    stall_cycles: u64,
    peak_weight_fifo: u64,
    peak_input_fifo: u64,
    peak_sa_outputs: u64,
}

/// Re-measures the top kernels on the timing simulator with a private
/// counter hub each, extracting peak FIFO depths — the per-kernel join of
/// the counter layer with the compiler's measured-kernel store.
fn kernel_micro_profiles(
    cfg: &SimConfig,
    model: &CompiledModel,
    top: &[String],
) -> Vec<KernelMicro> {
    let timing = TimingSim::new(&cfg.npu);
    let mut out = Vec::new();
    for name in top {
        let Some(program) = model.kernels.get(name) else { continue };
        let hub = CounterHub::new(CounterConfig { cycles_per_bucket: 64, max_buckets: 1024 });
        let Ok(latency) = timing.measure_with_counters(program, &hub) else { continue };
        let peak = |site: QueueSite, index: u32| {
            hub.snapshot()
                .into_iter()
                .find(|s| s.key == CounterKey::QueueDepth { site, index })
                .map(|s| s.total)
                .unwrap_or(0)
        };
        out.push(KernelMicro {
            kernel: name.clone(),
            cycles: latency.cycles,
            stall_cycles: latency.stall_cycles,
            peak_weight_fifo: peak(QueueSite::TimingSerializer, 0),
            peak_input_fifo: peak(QueueSite::TimingSerializer, 1),
            peak_sa_outputs: peak(QueueSite::TimingSaOutputs, 0),
        });
    }
    out
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "0.0%".to_string();
    }
    format!("{:.1}%", part as f64 * 100.0 / whole as f64)
}

pub fn profile(args: &mut Args) -> Result<ExitCode, Error> {
    let bench = args.flag("--bench");
    let json = args.flag("--json");
    let guard = args.flag("--guard");
    let trace_path: Option<String> = args.value("--trace")?;
    let top = args.value("--top")?.unwrap_or(5);
    let bucket = args.value("--bucket")?.unwrap_or(1024);
    let max_overhead: f64 = args.value("--max-overhead")?.unwrap_or(25.0);
    let spec = model(args, "bert", |name| workload(name, bench))?;
    args.finish()?;
    let cfg = SimConfig::tpu_v3_single_core();
    let sim = Simulator::new(cfg.clone());
    let model = sim.compile(&spec).expect("compilation succeeds");

    let hub =
        CounterHub::shared(CounterConfig { cycles_per_bucket: bucket, ..CounterConfig::default() });
    let tracer = trace_path.as_ref().map(|_| Tracer::shared());
    let mut opts = RunOptions::tls().with_counters(Arc::clone(&hub));
    if let Some(t) = &tracer {
        opts = opts.with_tracer(Arc::clone(t));
    }
    let started = Instant::now();
    let report = sim.run_compiled(&model, &opts).expect("simulation succeeds");
    let wall_on = started.elapsed();

    if guard {
        // The counters must observe without perturbing: a counters-off run
        // of the same compiled model must produce a bit-identical report.
        let started = Instant::now();
        let plain =
            sim.run_compiled(&model, &RunOptions::tls()).expect("counters-off run succeeds");
        let wall_off = started.elapsed();
        assert_eq!(plain, report, "counters perturbed the simulated timeline");
        let ratio = wall_on.as_secs_f64() / wall_off.as_secs_f64().max(1e-9);
        eprintln!(
            "guard: counters-on {:.1} ms vs counters-off {:.1} ms ({:.2}x); reports bit-identical",
            wall_on.as_secs_f64() * 1e3,
            wall_off.as_secs_f64() * 1e3,
            ratio
        );
        // Counter recording is O(events) map updates and must stay within
        // a small multiple of the plain run even on noisy CI machines; the
        // default bound is a deliberately loose catastrophic-regression
        // backstop, tightened by CI via --max-overhead.
        assert!(
            ratio < max_overhead,
            "counter overhead ratio {ratio:.2}x exceeds the guard bound {:.2}x",
            max_overhead
        );
    }

    let attr = attribute(&hub, report.total_cycles);
    // The acceptance invariant: attribution is exhaustive and exact.
    assert_eq!(
        attr.attributed_cycles(),
        report.total_cycles,
        "attribution must close exactly over the engine cycles"
    );

    let layers = layer_table(&model, &attr);
    let top_names: Vec<String> = attr.top(top).iter().map(|k| k.kernel.clone()).collect();
    let micro = kernel_micro_profiles(&cfg, &model, &top_names);

    if let Some(path) = &trace_path {
        let tracer = tracer.as_ref().expect("tracer was attached for --trace");
        let exported =
            chrome::export_chrome_trace_with_counters(&tracer.events(), &hub.counter_tracks());
        let check = validate::validate_chrome_trace(&exported).expect("exported trace is valid");
        std::fs::write(path, &exported).expect("trace file is writable");
        eprintln!(
            "wrote {path}: {} records ({} spans, {} counter samples) across {} tracks",
            check.records, check.spans, check.counters, check.tracks
        );
    }

    if json {
        let micro_json = ptsim_common::json::Json::Arr(
            micro
                .iter()
                .map(|m| {
                    ptsim_common::json::Json::obj()
                        .set("kernel", ptsim_common::json::Json::str(&m.kernel))
                        .set("cycles", ptsim_common::json::Json::Num(m.cycles as f64))
                        .set("stall_cycles", ptsim_common::json::Json::Num(m.stall_cycles as f64))
                        .set(
                            "peak_weight_fifo",
                            ptsim_common::json::Json::Num(m.peak_weight_fifo as f64),
                        )
                        .set(
                            "peak_input_fifo",
                            ptsim_common::json::Json::Num(m.peak_input_fifo as f64),
                        )
                        .set(
                            "peak_sa_outputs",
                            ptsim_common::json::Json::Num(m.peak_sa_outputs as f64),
                        )
                })
                .collect(),
        );
        let layers_json = ptsim_common::json::Json::Arr(
            layers
                .iter()
                .map(|l| {
                    ptsim_common::json::Json::obj()
                        .set("layer", ptsim_common::json::Json::str(&l.name))
                        .set("compute", ptsim_common::json::Json::Num(l.compute as f64))
                        .set("dram_stall", ptsim_common::json::Json::Num(l.dram_stall as f64))
                        .set("noc_stall", ptsim_common::json::Json::Num(l.noc_stall as f64))
                        .set("other", ptsim_common::json::Json::Num(l.other as f64))
                        .set("total", ptsim_common::json::Json::Num(l.total() as f64))
                })
                .collect(),
        );
        let doc = ptsim_common::json::Json::obj()
            .set("workload", ptsim_common::json::Json::str(&spec.name))
            .set("total_cycles", ptsim_common::json::Json::Num(report.total_cycles as f64))
            .set("attribution", attr.to_json())
            .set("layers", layers_json)
            .set("kernel_micro", micro_json)
            .set("counters", hub.to_json());
        println!("{}", doc.render());
        return Ok(ExitCode::SUCCESS);
    }

    println!(
        "workload: {} ({} graph ops, {} TOG nodes)",
        spec.name,
        model.op_plans.len(),
        model.tog.nodes.len()
    );
    println!("total cycles: {}", report.total_cycles);
    println!(
        "attributed: {} (closure exact), tail idle: {} ({})",
        attr.attributed_cycles(),
        attr.tail_idle,
        pct(attr.tail_idle, report.total_cycles)
    );

    let t = report.total_cycles;
    let kernel_rows: Vec<Vec<String>> = attr
        .kernels
        .iter()
        .map(|k| {
            vec![
                k.kernel.clone(),
                format!("{} ({})", k.compute, pct(k.compute, t)),
                format!("{} ({})", k.dram_stall, pct(k.dram_stall, t)),
                format!("{} ({})", k.noc_stall, pct(k.noc_stall, t)),
                format!("{} ({})", k.other, pct(k.other, t)),
                k.total().to_string(),
            ]
        })
        .collect();
    ptsim_bench::print_table(
        "Per-kernel cycle attribution",
        &["kernel", "compute", "dram stall", "noc stall", "other", "total"],
        &kernel_rows,
    );

    let layer_rows: Vec<Vec<String>> = layers
        .iter()
        .map(|l| {
            vec![
                l.name.clone(),
                format!("{} ({})", l.compute, pct(l.compute, t)),
                format!("{} ({})", l.dram_stall, pct(l.dram_stall, t)),
                format!("{} ({})", l.noc_stall, pct(l.noc_stall, t)),
                format!("{} ({})", l.other, pct(l.other, t)),
                l.total().to_string(),
            ]
        })
        .collect();
    ptsim_bench::print_table(
        "Per-layer cycle attribution",
        &["layer", "compute", "dram stall", "noc stall", "other", "total"],
        &layer_rows,
    );

    let micro_rows: Vec<Vec<String>> = micro
        .iter()
        .map(|m| {
            vec![
                m.kernel.clone(),
                m.cycles.to_string(),
                m.stall_cycles.to_string(),
                m.peak_weight_fifo.to_string(),
                m.peak_input_fifo.to_string(),
                m.peak_sa_outputs.to_string(),
            ]
        })
        .collect();
    ptsim_bench::print_table(
        "Kernel micro-profile (timing simulator, counters attached)",
        &["kernel", "cycles", "stalls", "peak wFIFO", "peak iFIFO", "peak SA out"],
        &micro_rows,
    );

    println!("\n## Top bottlenecks\n");
    for k in attr.top(top) {
        let (dominant, amount) = [
            ("compute-bound", k.compute),
            ("DRAM-bound", k.dram_stall),
            ("NoC-bound", k.noc_stall),
            ("latency/other", k.other),
        ]
        .into_iter()
        .max_by_key(|&(_, v)| v)
        .unwrap();
        println!(
            "  {}: {} of {} cycles ({}) — {}",
            k.kernel,
            amount,
            k.total(),
            pct(k.total(), t),
            dominant
        );
    }
    Ok(ExitCode::SUCCESS)
}
