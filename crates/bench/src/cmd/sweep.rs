//! `ptsim sweep`: the parallel sweep harness on a Fig. 7-style grid (GEMM,
//! BERT-mini, ResNet-18 across NPU configurations).
//!
//! `--dram-sweep N` instead sweeps one model over N DRAM-only config
//! variants through a shared compile cache and asserts the staged
//! pipeline's headline property: DRAM parameters are outside every compile
//! stage's config projection, so the sweep performs zero redundant kernel
//! timing measurements (kernel-stage hit rate ≥ (N−1)/N). Exits 1 on
//! violation — CI runs it as the compile-cache smoke test.

use super::figures::scale_jobs_json;
use crate::cli::{Args, Error};
use ptsim_bench::{print_table, Scale};
use ptsim_common::config::{NocConfig, SimConfig};
use ptsim_common::json::ToJson;
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
use std::process::ExitCode;

fn grid(scale: Scale) -> Sweep {
    let specs: Vec<ModelSpec> = match scale {
        Scale::Bench => vec![
            models::gemm(256),
            models::bert(
                models::BertConfig { layers: 2, ..models::BertConfig::base(128, 1) },
                "bert_mini",
            ),
            models::resnet18(1),
        ],
        Scale::Full => vec![models::gemm(1024), models::bert_base(512, 1), models::resnet18(1)],
    };
    let cn = SimConfig::tpu_v3_single_core();
    let sn = SimConfig { noc: NocConfig::simple(), ..cn.clone() };
    let configs = [("cn".to_string(), cn), ("sn".to_string(), sn)];
    Sweep::grid(specs, &configs)
}

/// Sweeps one model over `n` DRAM-only config variants and asserts that
/// kernel timing work is shared across all of them: every variant after
/// the first must reuse the first's kernel measurements (they differ only
/// in fields outside the kernel projection), so the kernel-stage hit rate
/// must reach (n−1)/n with zero redundant measurements.
fn dram_sweep(scale: Scale, n: usize, jobs: usize, json: bool) -> ExitCode {
    let spec = match scale {
        Scale::Bench => models::gemm(256),
        Scale::Full => models::bert(
            models::BertConfig { layers: 2, ..models::BertConfig::base(128, 1) },
            "bert_mini",
        ),
    };
    let base = SimConfig::tpu_v3_single_core();
    let mut sweep = Sweep::new();
    for i in 0..n {
        let mut cfg = base.clone();
        cfg.dram.channels = base.dram.channels.max(1) * (i + 1);
        cfg.dram.queue_depth = base.dram.queue_depth + i;
        let label = format!("{}@dram{}ch", spec.name, cfg.dram.channels);
        sweep.push(SweepPoint::model(spec.clone(), cfg).with_label(label));
    }
    let report = sweep.run(&SweepOptions::with_jobs(jobs)).expect("dram sweep succeeds");

    let kernel = &report.cache.kernel;
    let lookups = kernel.hits + kernel.misses;
    let hit_rate = kernel.hits as f64 / lookups.max(1) as f64;
    let target = (n - 1) as f64 / n as f64;
    // Zero redundant measurements: with one unique model, every kernel is
    // measured exactly once, so sweep-wide misses cannot exceed the unique
    // kernel count of a single compile.
    let unique_kernels = {
        let sim = pytorchsim::Simulator::new(base);
        sim.compile(&spec).expect("reference compile succeeds").stats.kernels as u64
    };

    if json {
        let out = report
            .to_json()
            .set("kernel_hit_rate", ptsim_common::json::Json::num(hit_rate))
            .set("kernel_hit_rate_target", ptsim_common::json::Json::num(target));
        println!("{}", out.render());
    } else {
        print_table(
            &format!("DRAM sweep — {n} variants, shared compile cache"),
            &["point", "cycles", "DRAM bytes", "wall"],
            &rows(&report),
        );
        println!(
            "\ncompile cache: {} compiles, {} hits; kernel stage: {} misses, {} hits \
             (hit rate {:.1}%, target ≥ {:.1}%)",
            report.cache.compiles,
            report.cache.hits,
            kernel.misses,
            kernel.hits,
            hit_rate * 100.0,
            target * 100.0,
        );
    }

    let mut failed = false;
    if hit_rate < target {
        eprintln!("VIOLATION: kernel-stage hit rate {hit_rate:.3} below target {target:.3}");
        failed = true;
    }
    if kernel.misses > unique_kernels {
        eprintln!(
            "VIOLATION: {} kernel measurements across the sweep, but one compile needs only {} \
             — {} redundant",
            kernel.misses,
            unique_kernels,
            kernel.misses - unique_kernels
        );
        failed = true;
    }
    if kernel.in_flight != 0 {
        eprintln!("VIOLATION: {} kernel measurements still in flight", kernel.in_flight);
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("zero redundant kernel measurements across {n} DRAM variants");
    ExitCode::SUCCESS
}

fn rows(report: &pytorchsim::sweep::SweepReport) -> Vec<Vec<String>> {
    report
        .results
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.report.total_cycles.to_string(),
                r.report.dram.bytes.to_string(),
                format!("{:.3}s", r.wall_seconds),
            ]
        })
        .collect()
}

pub fn sweep(args: &mut Args) -> Result<ExitCode, Error> {
    let (scale, jobs, json) = scale_jobs_json(args)?;
    let dram_variants = args.value_with("--dram-sweep", |v| match v.parse::<usize>() {
        Ok(n) if n >= 2 => Ok(n),
        _ => Err("needs a variant count of at least 2, e.g. --dram-sweep 4"),
    })?;
    args.finish()?;
    if let Some(n) = dram_variants {
        return Ok(dram_sweep(scale, n, jobs, json));
    }

    let report = grid(scale).run(&SweepOptions::with_jobs(jobs)).expect("sweep succeeds");
    if json {
        println!("{}", report.to_json_string());
        return Ok(ExitCode::SUCCESS);
    }
    print_table(
        &format!("Sweep — {} points over {} worker(s)", report.results.len(), report.jobs),
        &["point", "cycles", "DRAM bytes", "wall"],
        &rows(&report),
    );
    println!(
        "\nwall {:.3}s; compile cache: {} compiles, {} hits",
        report.wall_seconds, report.cache.compiles, report.cache.hits
    );
    Ok(ExitCode::SUCCESS)
}
