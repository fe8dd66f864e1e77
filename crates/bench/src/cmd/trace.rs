//! `ptsim trace [gemm|bert|resnet] [--bench] [--trace out.json] [--json]`:
//! runs a real workload under the tracer and exports a Perfetto-loadable
//! Chrome trace.
//!
//! `--trace <path>` writes the Chrome trace-event JSON (open it at
//! <https://ui.perfetto.dev> or `chrome://tracing`); `--json` prints a
//! JSON object with the run summary, the trace roll-up metrics, and the
//! engine's per-phase self-profiling counters (`togsim.*` — the
//! machine-readable replacement of the old `PTSIM_PROFILE` stderr dump)
//! instead of the human-readable summary; `--bench` shrinks the workload
//! for CI.

use crate::cli::{Args, Error};
use ptsim_common::config::SimConfig;
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::trace::{chrome, validate, EventData, MetricsRegistry, Tracer};
use pytorchsim::{RunOptions, Simulator};
use std::process::ExitCode;
use std::sync::Arc;

/// Builds the `[gemm|bert|resnet]` positional of `compile`, `trace` and
/// `profile` (`default` when absent) with `build`, which knows the sizes.
/// Read it after every `--flag value`, so no flag's value is taken for it.
pub fn model(
    args: &mut Args,
    default: &str,
    build: impl FnOnce(&str) -> Option<ModelSpec>,
) -> Result<ModelSpec, Error> {
    let name = args.positional().unwrap_or_else(|| default.to_string());
    build(&name).ok_or_else(|| Error::invalid("model", &name, "expected gemm, bert, or resnet"))
}

/// The workloads of `trace` and `profile`; `--bench` shrinks GEMM and BERT.
pub fn workload(name: &str, bench: bool) -> Option<ModelSpec> {
    match name {
        "gemm" => Some(models::gemm(if bench { 256 } else { 1024 })),
        "bert" => Some(models::bert_base(if bench { 64 } else { 512 }, 1)),
        "resnet" => Some(models::resnet18(1)),
        _ => None,
    }
}

pub fn trace(args: &mut Args) -> Result<ExitCode, Error> {
    let bench = args.flag("--bench");
    let json = args.flag("--json");
    let trace_path: Option<String> = args.value("--trace")?;
    let spec = model(args, "bert", |name| workload(name, bench))?;
    args.finish()?;
    let sim = Simulator::new(SimConfig::tpu_v3_single_core());
    let tracer = Tracer::shared();
    let engine_metrics = Arc::new(MetricsRegistry::new());
    let report = sim
        .run(
            &spec,
            RunOptions::tls().with_tracer(tracer.clone()).with_metrics(engine_metrics.clone()),
        )
        .expect("simulation succeeds");

    if let Some(path) = &trace_path {
        let exported = chrome::export_chrome_trace(&tracer.events());
        let check = validate::validate_chrome_trace(&exported).expect("exported trace is valid");
        std::fs::write(path, &exported).expect("trace file is writable");
        eprintln!(
            "wrote {path}: {} records ({} spans, {} async pairs, {} instants) across {} tracks",
            check.records, check.spans, check.async_pairs, check.instants, check.tracks
        );
        if tracer.dropped() > 0 {
            eprintln!("warning: ring buffer dropped {} events", tracer.dropped());
        }
    }

    if json {
        let jobs = report
            .jobs
            .iter()
            .map(|j| {
                format!(
                    "{{\"name\":\"{}\",\"start\":{},\"end\":{},\
                     \"compute_nodes\":{},\"dma_bytes\":{}}}",
                    j.name,
                    j.start.raw(),
                    j.end.raw(),
                    j.compute_nodes,
                    j.dma_bytes
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"workload\":\"{}\",\"total_cycles\":{},\"traced_events\":{},\
             \"jobs\":[{jobs}],\"trace_metrics\":{},\"engine_metrics\":{}}}",
            spec.name,
            report.total_cycles,
            tracer.len(),
            summarize(&tracer).json(),
            engine_metrics.json()
        );
    } else {
        println!("workload: {}", spec.name);
        println!("total cycles: {}", report.total_cycles);
        println!("traced events: {}", tracer.len());
        for job in &report.jobs {
            println!(
                "  job {}: cycles {}..{}, {} compute nodes, {} DMA bytes",
                job.name,
                job.start.raw(),
                job.end.raw(),
                job.compute_nodes,
                job.dma_bytes
            );
        }
        println!("\n{}", summarize(&tracer).summary_table());
    }
    Ok(ExitCode::SUCCESS)
}

/// Rolls the trace up into the metrics registry's summary table.
fn summarize(tracer: &Tracer) -> MetricsRegistry {
    let metrics = MetricsRegistry::new();
    let compute = metrics.counter("compute.spans");
    let compute_cycles = metrics.counter("compute.cycles");
    let dma_bytes = metrics.counter("dma.bytes");
    let dram_rd = metrics.counter("dram.reads");
    let dram_wr = metrics.counter("dram.writes");
    let dram_latency = metrics.histogram("dram.latency_cycles");
    let noc_latency = metrics.histogram("noc.latency_cycles");
    for ev in tracer.events() {
        match ev.data {
            EventData::TileCompute { .. } => {
                compute.inc();
                compute_cycles.add(ev.dur);
            }
            EventData::DmaTransfer { bytes, .. } => dma_bytes.add(bytes),
            EventData::DramTx { is_write, latency, .. } => {
                if is_write {
                    dram_wr.inc();
                } else {
                    dram_rd.inc();
                }
                dram_latency.observe(latency);
            }
            EventData::NocTransfer { latency, .. } => noc_latency.observe(latency),
            _ => {}
        }
    }
    metrics
}
