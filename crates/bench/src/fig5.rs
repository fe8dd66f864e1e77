//! Fig. 5 — simulation accuracy.
//!
//! The paper validates simulated cycles against a real Google TPUv3. No TPU
//! exists here, so the instruction-level (ILS) mode — which re-executes
//! every kernel's machine code per tile with per-tile pipeline overheads —
//! plays the hardware-reference role (see DESIGN.md). TLS and the
//! analytical baselines (Timeloop-, SCALE-Sim-, MAESTRO-like) are measured
//! against it, reproducing the figure's shape: TLS lands within ~10%, the
//! analytical models underestimate end-to-end time badly because they
//! ignore vector operators, fusion, and DRAM dynamics.

use crate::Scale;
use ptsim_common::config::SimConfig;
use ptsim_common::json_record;
use ptsim_common::util::mean_abs_pct_error;
use pytorchsim::baselines::{MaestroModel, RooflineModel, ScaleSimModel};
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
use pytorchsim::RunOptions;

/// One workload's accuracy row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Reference (ILS "hardware") cycles.
    pub reference: u64,
    /// PyTorchSim TLS cycles.
    pub tls: u64,
    /// Timeloop-like roofline estimate.
    pub roofline: u64,
    /// SCALE-Sim-like estimate.
    pub scalesim: u64,
    /// MAESTRO-like estimate.
    pub maestro: u64,
}

impl Row {
    /// Signed percent error of TLS vs the reference.
    pub fn tls_err_pct(&self) -> f64 {
        100.0 * (self.tls as f64 - self.reference as f64) / self.reference as f64
    }
}

json_record!(ToJson for Row { name, reference, tls, roofline, scalesim, maestro });

/// The figure's workload list at the given scale.
pub fn workloads(scale: Scale) -> Vec<ModelSpec> {
    match scale {
        Scale::Bench => vec![
            models::gemm(256),
            models::gemm(512),
            models::conv_kernel(3, 1).expect("paper conv kernel"),
            models::layernorm_kernel(128, 768),
            models::softmax_kernel(128, 512),
        ],
        Scale::Full => vec![
            models::gemm(512),
            models::gemm(1024),
            models::gemm(2048),
            models::gemm(4096),
            models::conv_kernel(0, 1).expect("paper conv kernel"),
            models::conv_kernel(1, 1).expect("paper conv kernel"),
            models::conv_kernel(2, 1).expect("paper conv kernel"),
            models::conv_kernel(3, 1).expect("paper conv kernel"),
            models::layernorm_kernel(512, 768),
            models::softmax_kernel(512, 512),
            models::resnet18(1),
            models::resnet50(1),
            models::bert_base(512, 1),
            models::bert_large(512, 1),
            models::albert(512, 1),
        ],
    }
}

/// Runs the accuracy comparison over `jobs` sweep workers. Each workload
/// contributes two sweep points — the ILS timing reference and the TLS
/// measurement — sharing one compiled model through the sweep's cache.
pub fn run(scale: Scale, jobs: usize) -> Vec<Row> {
    let cfg = SimConfig::tpu_v3_single_core();
    let roofline = RooflineModel::new(&cfg);
    let scalesim = ScaleSimModel::new(&cfg);
    let maestro = MaestroModel::new(&cfg);
    let specs = workloads(scale);

    let mut sweep = Sweep::new();
    for spec in &specs {
        sweep.push(
            SweepPoint::model(spec.clone(), cfg.clone())
                .with_label(format!("{}#ils", spec.name))
                .with_run(RunOptions::ils()),
        );
        sweep.push(
            SweepPoint::model(spec.clone(), cfg.clone()).with_label(format!("{}#tls", spec.name)),
        );
    }
    let report = sweep.run(&SweepOptions::with_jobs(jobs)).expect("fig5 sweep succeeds");

    specs
        .iter()
        .zip(report.results.chunks(2))
        .map(|(spec, pair)| Row {
            name: spec.name.clone(),
            reference: pair[0].report.total_cycles,
            tls: pair[1].report.total_cycles,
            roofline: roofline.estimate(&spec.graph),
            scalesim: scalesim.estimate(&spec.graph),
            maestro: maestro.estimate(&spec.graph),
        })
        .collect()
}

/// Mean absolute percentage error of a column extractor vs the reference.
pub fn mae(rows: &[Row], f: impl Fn(&Row) -> u64) -> f64 {
    let measured: Vec<f64> = rows.iter().map(|r| f(r) as f64).collect();
    let reference: Vec<f64> = rows.iter().map(|r| r.reference as f64).collect();
    mean_abs_pct_error(&measured, &reference)
}
