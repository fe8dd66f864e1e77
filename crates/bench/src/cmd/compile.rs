//! `ptsim compile [gemm|bert|resnet] [--json]`: dumps the staged compile
//! pipeline for one model: the artifact each stage produces (with its
//! content fingerprint), per-stage wall-clock timings, and kernel-store
//! efficiency.
//!
//! After the cold compile the report re-emits the same model twice through
//! the same kernel store — once unchanged (every kernel lookup must hit)
//! and once under a DRAM-only config variant (the plan fingerprint and
//! every measured latency must carry over, because kernel timing reads
//! only the core projection of the config). A violation of either reuse
//! invariant exits 1, so this subcommand doubles as a smoke test of the
//! staged cache.

use super::trace::model;
use crate::cli::{Args, Error};
use ptsim_common::config::SimConfig;
use ptsim_common::json::Json;
use pytorchsim::compiler::{Compiler, CompilerOptions, KernelStore};
use pytorchsim::models;
use std::process::ExitCode;
use std::time::Instant;

fn seconds(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn compile(args: &mut Args) -> Result<ExitCode, Error> {
    let json = args.flag("--json");
    let spec = model(args, "gemm", |name| match name {
        "gemm" => Some(models::gemm(256)),
        "bert" => Some(models::bert(
            models::BertConfig { layers: 2, ..models::BertConfig::base(128, 1) },
            "bert_mini",
        )),
        "resnet" => Some(models::resnet18(1)),
        _ => None,
    })?;
    args.finish()?;
    let cfg = SimConfig::tpu_v3_single_core();
    let compiler = Compiler::new(cfg.clone(), CompilerOptions::default());
    let store = KernelStore::new();

    // Cold staged compile, timed stage by stage.
    let t = Instant::now();
    let graph = compiler.capture(&spec.graph).expect("capture succeeds");
    let capture_s = seconds(t);
    let t = Instant::now();
    let plan = compiler.plan(&spec.graph, &store).expect("plan succeeds");
    let plan_s = seconds(t);
    let t = Instant::now();
    let model = compiler.emit(&spec.graph, &spec.name, 1, &plan, &store).expect("emit succeeds");
    let emit_s = seconds(t);
    let cold = store.stats();

    // Warm re-emit through the same store: zero new measurements allowed.
    let t = Instant::now();
    let warm_model =
        compiler.emit(&spec.graph, &spec.name, 1, &plan, &store).expect("warm emit succeeds");
    let warm_s = seconds(t);
    let warm = store.stats();
    let warm_misses = warm.misses - cold.misses;

    // DRAM-only config variant: the plan fingerprint and every kernel
    // measurement must be reusable, because neither reads DramConfig.
    let mut dram_cfg = cfg.clone();
    dram_cfg.dram.channels *= 2;
    dram_cfg.dram.transaction_bytes *= 2;
    let dram_compiler = Compiler::new(dram_cfg, CompilerOptions::default());
    let dram_plan = dram_compiler.plan(&spec.graph, &store).expect("variant plan succeeds");
    let t = Instant::now();
    dram_compiler
        .emit(&spec.graph, &spec.name, 1, &dram_plan, &store)
        .expect("variant emit succeeds");
    let dram_s = seconds(t);
    let dram = store.stats();
    let dram_misses = dram.misses - warm.misses;

    let mut violations = Vec::new();
    if warm_model.tog.nodes.len() != model.tog.nodes.len() {
        violations.push("warm re-emit changed the TOG".to_string());
    }
    if warm_misses != 0 {
        violations.push(format!("warm re-emit measured {warm_misses} kernels (expected 0)"));
    }
    if dram_plan.fingerprint != plan.fingerprint {
        violations.push("DRAM-only config variant changed the plan fingerprint".to_string());
    }
    if dram_misses != 0 {
        violations.push(format!("DRAM-only variant measured {dram_misses} kernels (expected 0)"));
    }

    if json {
        let stage = |name: &str, fp: Option<u64>, wall: f64, detail: Json| {
            let j = Json::obj().set("stage", Json::str(name)).set("wall_seconds", Json::num(wall));
            let j = match fp {
                Some(fp) => j.set("fingerprint", Json::str(format!("{fp:016x}"))),
                None => j,
            };
            j.set("artifact", detail)
        };
        let out = Json::obj()
            .set("model", Json::str(&spec.name))
            .set(
                "stages",
                Json::Arr(vec![
                    stage(
                        "capture",
                        Some(graph.fingerprint),
                        capture_s,
                        Json::obj().set("nodes", Json::u64(graph.nodes as u64)),
                    ),
                    stage(
                        "plan",
                        Some(plan.fingerprint),
                        plan_s,
                        Json::obj()
                            .set("tilings", Json::u64(plan.tilings.len() as u64))
                            .set("probes", Json::u64(plan.probes.len() as u64))
                            .set("measured", Json::u64(plan.measured)),
                    ),
                    stage(
                        "measure+emit",
                        None,
                        emit_s,
                        Json::obj()
                            .set("kernels", Json::u64(model.stats.kernels as u64))
                            .set("tog_nodes", Json::u64(model.stats.tog_nodes as u64))
                            .set("fused_ops", Json::u64(model.stats.fused_ops as u64))
                            .set("timing_measurements", Json::u64(model.stats.timing_measurements))
                            .set("approx_bytes", Json::u64(model.approx_bytes())),
                    ),
                ]),
            )
            .set(
                "kernel_store",
                Json::obj()
                    .set("kernels", Json::u64(dram.kernels))
                    .set("hits", Json::u64(dram.hits))
                    .set("misses", Json::u64(dram.misses))
                    .set("bytes_held", Json::u64(dram.bytes_held)),
            )
            .set(
                "reuse",
                Json::obj()
                    .set("warm_emit_seconds", Json::num(warm_s))
                    .set("warm_emit_measurements", Json::u64(warm_misses))
                    .set("dram_variant_emit_seconds", Json::num(dram_s))
                    .set("dram_variant_measurements", Json::u64(dram_misses))
                    .set(
                        "plan_fingerprint_stable",
                        Json::Bool(dram_plan.fingerprint == plan.fingerprint),
                    ),
            )
            .set(
                "violations",
                Json::Arr(violations.iter().map(|v| Json::str(v.as_str())).collect()),
            );
        println!("{}", out.render());
    } else {
        println!("## Staged compile — {} (cold kernel store)\n", spec.name);
        println!("| stage | artifact | wall |");
        println!("|---|---|---|");
        println!(
            "| capture | graph {:016x}, {} nodes | {:.3}ms |",
            graph.fingerprint,
            graph.nodes,
            capture_s * 1e3
        );
        println!(
            "| plan | plan {:016x}, {} tilings, {} probes, {} measured | {:.3}ms |",
            plan.fingerprint,
            plan.tilings.len(),
            plan.probes.len(),
            plan.measured,
            plan_s * 1e3
        );
        println!(
            "| measure+emit | {} kernels, {} TOG nodes, {} fused, {} measurements, ~{} KiB | {:.3}ms |",
            model.stats.kernels,
            model.stats.tog_nodes,
            model.stats.fused_ops,
            model.stats.timing_measurements,
            model.approx_bytes() / 1024,
            emit_s * 1e3
        );
        println!(
            "\nkernel store: {} kernels, {} misses, {} hits, ~{} KiB held",
            dram.kernels,
            dram.misses,
            dram.hits,
            dram.bytes_held / 1024
        );
        println!("warm re-emit:       {:.3}ms, {} new measurements", warm_s * 1e3, warm_misses);
        println!(
            "DRAM-variant emit:  {:.3}ms, {} new measurements, plan fingerprint stable: {}",
            dram_s * 1e3,
            dram_misses,
            dram_plan.fingerprint == plan.fingerprint
        );
    }

    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }
    Ok(if violations.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
