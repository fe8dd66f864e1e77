//! Demonstrates the parallel sweep harness on a Fig. 7-style grid
//! (GEMM, BERT-mini, ResNet-18 across NPU configurations).
//!
//! Usage: `report_sweep [--bench] [--jobs N] [--json] [--bench-harness]
//! [--dram-sweep N]`
//!
//! `--dram-sweep N` instead sweeps one model over N DRAM-only config
//! variants through a shared compile cache and asserts the staged
//! pipeline's headline property: DRAM parameters are outside every compile
//! stage's config projection, so the sweep performs zero redundant kernel
//! timing measurements (kernel-stage hit rate ≥ (N−1)/N). Exits nonzero on
//! violation — CI runs it as the compile-cache smoke test.
//!
//! `--jobs N` runs the sweep over N worker threads (results are
//! bit-identical at any count). `--bench-harness` instead benchmarks the
//! harness itself: it executes the same grid serially and in parallel on a
//! cold cache each time, verifies the reports match, and prints the
//! wall-clock speedup — the sanity check that parallel sweeps actually pay.

use ptsim_bench::{cli_scale_and_jobs, print_table, Scale};
use ptsim_common::config::{NocConfig, SimConfig};
use ptsim_common::json::ToJson;
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};

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

fn bench_harness(scale: Scale, jobs: usize) {
    let sweep = grid(scale);
    let jobs = if jobs > 1 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(4, |n| n.get().min(sweep.len()))
    };

    // Cold caches on both sides: the harness benchmark measures compile +
    // simulate, which is what a fresh exploration sweep pays.
    let serial = sweep.run(&SweepOptions::with_jobs(1)).expect("serial sweep succeeds");
    let parallel = sweep.run(&SweepOptions::with_jobs(jobs)).expect("parallel sweep succeeds");

    assert_eq!(
        serial.sim_reports(),
        parallel.sim_reports(),
        "parallel sweep must be bit-identical to serial"
    );
    assert_eq!(serial.cache.compiles, parallel.cache.compiles, "same unique compiles");

    println!("sweep harness self-benchmark ({} points)", sweep.len());
    println!("  serial   (--jobs 1):  {:8.3}s", serial.wall_seconds);
    println!("  parallel (--jobs {jobs}):  {:8.3}s", parallel.wall_seconds);
    println!(
        "  speedup: {:.2}x  (reports bit-identical, {} unique compiles each)",
        serial.wall_seconds / parallel.wall_seconds.max(1e-9),
        serial.cache.compiles,
    );
}

/// Sweeps one model over `n` DRAM-only config variants and asserts that
/// kernel timing work is shared across all of them: every variant after
/// the first must reuse the first's kernel measurements (they differ only
/// in fields outside the kernel projection), so the kernel-stage hit rate
/// must reach (n−1)/n with zero redundant measurements.
fn dram_sweep(scale: Scale, n: usize, jobs: usize, json: bool) {
    assert!(n >= 2, "--dram-sweep needs at least 2 variants");
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
        let table: Vec<Vec<String>> = report
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
            .collect();
        print_table(
            &format!("DRAM sweep — {n} variants, shared compile cache"),
            &["point", "cycles", "DRAM bytes", "wall"],
            &table,
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
        std::process::exit(1);
    }
    println!("zero redundant kernel measurements across {n} DRAM variants");
}

/// The `--dram-sweep N` flag, if present.
fn cli_dram_sweep() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--dram-sweep").map(|i| {
        args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("--dram-sweep needs a variant count, e.g. --dram-sweep 4");
            std::process::exit(2);
        })
    })
}

fn main() {
    let (scale, jobs) = cli_scale_and_jobs();
    if let Some(n) = cli_dram_sweep() {
        dram_sweep(scale, n, jobs, std::env::args().any(|a| a == "--json"));
        return;
    }
    if std::env::args().any(|a| a == "--bench-harness") {
        bench_harness(scale, jobs);
        return;
    }

    let report = grid(scale).run(&SweepOptions::with_jobs(jobs)).expect("sweep succeeds");
    if std::env::args().any(|a| a == "--json") {
        println!("{}", report.to_json_string());
        return;
    }
    let table: Vec<Vec<String>> = report
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
        .collect();
    print_table(
        &format!("Sweep — {} points over {} worker(s)", report.results.len(), report.jobs),
        &["point", "cycles", "DRAM bytes", "wall"],
        &table,
    );
    println!(
        "\nwall {:.3}s; compile cache: {} compiles, {} hits",
        report.wall_seconds, report.cache.compiles, report.cache.hits
    );
}
