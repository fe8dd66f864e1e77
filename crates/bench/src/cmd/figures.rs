//! `ptsim fig5` … `fig10` and `table1`: the paper's figures and Table 1,
//! at paper scale or, with `--bench`, at the reduced scale CI runs.

use crate::cli::{Args, Error};
use ptsim_bench::{fig10, fig5, fig6, fig7, fig8, fig9, fmt_x, print_table, Scale};
use ptsim_common::json::{Json, ToJson};
use ptsim_common::json_record;
use std::process::ExitCode;

/// `--bench`, `--jobs N` (default 1) and `--json`: the options every
/// figure and the sweep take. Results are bit-identical at any job count
/// (see `pytorchsim::sweep`).
pub fn scale_jobs_json(args: &mut Args) -> Result<(Scale, usize, bool), Error> {
    let scale = if args.flag("--bench") { Scale::Bench } else { Scale::Full };
    let jobs = args.value("--jobs")?.unwrap_or(1);
    Ok((scale, jobs, args.flag("--json")))
}

/// Fig. 5, simulation accuracy.
pub fn fig5(args: &mut Args) -> Result<ExitCode, Error> {
    let (scale, jobs, json) = scale_jobs_json(args)?;
    args.finish()?;
    let rows = fig5::run(scale, jobs);
    if json {
        println!("{}", rows.to_json_string());
        return Ok(ExitCode::SUCCESS);
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.reference.to_string(),
                r.tls.to_string(),
                format!("{:+.1}%", r.tls_err_pct()),
                r.roofline.to_string(),
                r.scalesim.to_string(),
                r.maestro.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 5 — simulated cycles vs the ILS hardware-reference",
        &["workload", "reference", "TLS", "TLS err", "roofline", "scalesim", "maestro"],
        &table,
    );
    println!("\nMAE vs reference:");
    println!("  PyTorchSim (TLS):   {:6.1}%", fig5::mae(&rows, |r| r.tls));
    println!("  Timeloop-like:      {:6.1}%", fig5::mae(&rows, |r| r.roofline));
    println!("  SCALE-Sim-like:     {:6.1}%", fig5::mae(&rows, |r| r.scalesim));
    println!("  MAESTRO-like:       {:6.1}%", fig5::mae(&rows, |r| r.maestro));
    Ok(ExitCode::SUCCESS)
}

/// Fig. 6, simulation speed. `--jobs` parallelises the compile warm-up
/// only; timings stay serial. Exits 1 when the shape fails
/// (`fig6::shape_holds`) or an ILS output does not match eager execution.
pub fn fig6(args: &mut Args) -> Result<ExitCode, Error> {
    let (scale, jobs, json) = scale_jobs_json(args)?;
    args.finish()?;
    let rows = fig6::run(scale, jobs);
    let shape = fig6::shape_holds(&rows);
    if json {
        println!("{}", rows.to_json_string());
    } else {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.3}s", r.tls_sn),
                    format!("{:.3}s", r.tls_cn),
                    format!("{:.3}s", r.ils),
                    format!("{:.3}s", r.mnpusim),
                    fmt_x(r.speedup_sn()),
                    fmt_x(r.speedup_cn()),
                    r.outputs.as_ref().map_or_else(
                        |finding| format!("FINDING: {finding}"),
                        |diff| format!("match ({diff:.1e})"),
                    ),
                ]
            })
            .collect();
        print_table(
            "Fig. 6 — wall-clock simulation time and speedup over ILS",
            &[
                "workload",
                "TLS-SN",
                "TLS-CN",
                "ILS",
                "mNPUsim-like",
                "SN speedup",
                "CN speedup",
                "ILS outputs vs eager",
            ],
            &table,
        );
        let gm_sn: f64 = rows.iter().map(|r| r.speedup_sn().ln()).sum::<f64>() / rows.len() as f64;
        let gm_cn: f64 = rows.iter().map(|r| r.speedup_cn().ln()).sum::<f64>() / rows.len() as f64;
        println!("\ngeomean speedup over ILS: SN {:.2}x, CN {:.2}x", gm_sn.exp(), gm_cn.exp());
        let verdict = if shape { "holds" } else { "FAILS" };
        println!("shape (TLS-SN and TLS-CN faster than ILS on every row): {verdict}");
    }
    if !shape || rows.iter().any(|r| r.outputs.is_err()) {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Fig. 7: the heterogeneous dense-sparse NPU and multi-model tenancy,
/// plus the §5.1 sparse-TLS validation.
pub fn fig7(args: &mut Args) -> Result<ExitCode, Error> {
    let (scale, jobs, json) = scale_jobs_json(args)?;
    args.finish()?;
    let h = fig7::run_hetero(scale, jobs);
    if json {
        let out = Json::obj()
            .set("hetero", h.to_json())
            .set("sparse_validation", fig7::run_sparse_validation(scale).to_json())
            .set("tenancy", fig7::run_tenancy(scale, jobs).to_json());
        println!("{}", out.render());
        return Ok(ExitCode::SUCCESS);
    }
    print_table(
        "Fig. 7a — dense/sparse cores: separate chips vs heterogeneous NPU",
        &["core", "alone (cycles)", "integrated (cycles)", "change"],
        &[
            vec![
                "dense (SA)".into(),
                h.dense_alone.to_string(),
                h.dense_hetero.to_string(),
                format!("{:+.0}% speed", 100.0 * (h.dense_speedup() - 1.0)),
            ],
            vec![
                "sparse (SpMSpM)".into(),
                h.sparse_alone.to_string(),
                h.sparse_hetero.to_string(),
                format!("{:+.0}% time", 100.0 * (h.sparse_slowdown() - 1.0)),
            ],
        ],
    );

    let v = fig7::run_sparse_validation(scale);
    print_table(
        "§5.1 validation — sparse TLS vs detailed per-element reference",
        &["workload", "detailed (cy)", "TLS (cy)", "cycle error", "speedup"],
        &v.iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.detailed_cycles.to_string(),
                    r.tls_cycles.to_string(),
                    format!("{:.1}%", r.cycle_error_pct()),
                    format!("{:.1}x", r.speedup()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let t = fig7::run_tenancy(scale, jobs);
    let (bert_chg, resnet_chg) = t.latency_changes();
    print_table(
        "Fig. 7b — multi-model tenancy: solo (half BW) vs co-located",
        &[
            "tenant",
            "solo (cycles)",
            "co-located (cycles)",
            "latency change",
            "co-located BW (B/cy)",
        ],
        &[
            vec![
                "BERT".into(),
                t.bert_alone.to_string(),
                t.bert_shared.to_string(),
                format!("{bert_chg:+.1}%"),
                format!("{:.0}", t.bert_bw),
            ],
            vec![
                "ResNet-18".into(),
                t.resnet_alone.to_string(),
                t.resnet_shared.to_string(),
                format!("{resnet_chg:+.1}%"),
                format!("{:.0}", t.resnet_bw),
            ],
        ],
    );
    Ok(ExitCode::SUCCESS)
}

fn print_fig8_rows(title: &str, rows: &[fig8::Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            for (i, (label, cycles)) in r.variants.iter().enumerate() {
                row.push(format!("{label}: {cycles} ({:.2}x)", r.speedup(i)));
            }
            row
        })
        .collect();
    print_table(title, &["workload", "baseline", "variant", "variant2"], &table);
}

/// Fig. 8, compiler optimization impact.
pub fn fig8(args: &mut Args) -> Result<ExitCode, Error> {
    let (scale, jobs, json) = scale_jobs_json(args)?;
    args.finish()?;
    let dma = fig8::run_dma(scale, jobs);
    let conv_batch1 = fig8::run_conv_batch1(scale, jobs);
    let conv_small_c = fig8::run_conv_small_c(scale, jobs);
    if json {
        let out = Json::obj()
            .set("dma", dma.to_json())
            .set("conv_batch1", conv_batch1.to_json())
            .set("conv_small_c", conv_small_c.to_json());
        println!("{}", out.render());
        return Ok(ExitCode::SUCCESS);
    }
    print_fig8_rows("Fig. 8a — DMA granularity (CG vs FG vs SFG)", &dma);
    print_fig8_rows("Fig. 8b — CONV layout optimization, batch = 1", &conv_batch1);
    print_fig8_rows("Fig. 8c — CONV layout optimization, small input channels", &conv_small_c);
    Ok(ExitCode::SUCCESS)
}

/// Fig. 9, chiplet NUMA mapping.
pub fn fig9(args: &mut Args) -> Result<ExitCode, Error> {
    let (scale, jobs, json) = scale_jobs_json(args)?;
    args.finish()?;
    let rows = fig9::run(scale, jobs);
    if json {
        println!("{}", rows.to_json_string());
        return Ok(ExitCode::SUCCESS);
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            // The paper's §5.4 estimate: 480 GB/s local, 64 GB/s remote,
            // normalized to the 960 GB/s monolithic chip.
            let analytic = if r.local_fraction < 1.0 {
                format!("{:.1}x", fig9::analytical_slowdown(r.local_fraction, 480.0, 64.0))
            } else {
                "1.0x".into()
            };
            vec![
                r.name.clone(),
                format!("{:.0}%", 100.0 * r.local_fraction),
                r.cycles.to_string(),
                format!("{:.2}x", r.normalized),
                analytic,
            ]
        })
        .collect();
    print_table(
        "Fig. 9 — chiplet weight-mapping vs monolithic",
        &["mapping", "local traffic", "cycles", "normalized runtime", "harmonic-mean estimate"],
        &table,
    );
    Ok(ExitCode::SUCCESS)
}

/// Fig. 10, the training batch-size study, with the §5.5 functional
/// validation.
pub fn fig10(args: &mut Args) -> Result<ExitCode, Error> {
    let (scale, jobs, json) = scale_jobs_json(args)?;
    args.finish()?;
    let rows = fig10::run(scale, jobs);
    if json {
        println!("{}", rows.to_json_string());
        return Ok(ExitCode::SUCCESS);
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                r.run.iterations.to_string(),
                r.run.cycles_per_iteration.to_string(),
                r.run.total_cycles.to_string(),
                format!("{:.3} -> {:.3}", r.run.losses[0], r.run.losses.last().unwrap()),
                format!("{:.1}%", 100.0 * r.run.final_accuracy),
            ]
        })
        .collect();
    print_table(
        "Fig. 10 — training batch-size impact",
        &["batch", "iterations", "cycles/iter", "total cycles", "loss first->last", "accuracy"],
        &table,
    );
    if rows.len() >= 2 {
        let (a, b) = (&rows[0], &rows[1]);
        println!(
            "\nper-iteration cost {}: {:.2}x of batch {}, total time {:.2}x",
            b.batch,
            b.run.cycles_per_iteration as f64 / a.run.cycles_per_iteration as f64,
            a.batch,
            b.run.total_cycles as f64 / a.run.total_cycles as f64,
        );
    }
    let (npu, host) = fig10::validate_functional_loss(scale);
    println!(
        "\nvalidation: first-iteration loss NPU {npu:.5} vs host {host:.5} (|diff| {:.1e})",
        (npu - host).abs()
    );
    Ok(ExitCode::SUCCESS)
}

struct FeatureRow {
    feature: &'static str,
    status: &'static str,
}

json_record!(ToJson for FeatureRow { feature, status });

/// Table 1, the feature matrix as realized by this reproduction. It has no
/// scale; `--bench` is accepted so that one loop can call every report.
pub fn table1(args: &mut Args) -> Result<ExitCode, Error> {
    args.flag("--bench");
    let json = args.flag("--json");
    args.finish()?;
    if !json {
        println!("Table 1 — feature coverage of this PyTorchSim reproduction\n");
    }
    let mut rows = Vec::new();
    for (feature, status) in [
        ("High speed (TLS with offline tile latencies)", "yes — ptsim-togsim"),
        ("Multi-core", "yes — compiler M-partitioning + TOGSim cores"),
        ("Multi-DNN tenancy", "yes — ptsim-scheduler + TogSim job specs"),
        (
            "Cycle-accurate DRAM & interconnect",
            "yes — ptsim-dram (FR-FCFS, row buffers), ptsim-noc (SN/CN, chiplet)",
        ),
        (
            "General vector ops",
            "yes — RVV-style vector + SFU kernels (softmax, layernorm, GELU, ...)",
        ),
        ("Compiler support", "yes — ptsim-compiler (tiling, fusion, layouts, FG-DMA)"),
        ("Training support", "yes — ahead-of-time autodiff + compiled backward TOGs"),
        ("Base ISA", "RISC-V-flavoured custom ISA (ptsim-isa)"),
        ("Data-dependent timing model", "yes — sparse per-tile latency tables (ptsim-sparse)"),
        ("Model input format", "graph API (PyTorch-2 style capture), no format conversion"),
    ] {
        if json {
            rows.push(FeatureRow { feature, status });
        } else {
            println!("  {feature:<55} {status}");
        }
    }
    if json {
        println!("{}", rows.to_json_string());
    }
    Ok(ExitCode::SUCCESS)
}
