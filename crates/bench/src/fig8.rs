//! Fig. 8 — compiler optimization impact (§5.3): fine-grained DMA and the
//! CONV layout optimizations.

use crate::Scale;
use ptsim_common::config::{DmaGranularity, SimConfig};
use ptsim_common::json::{Json, ToJson};
use pytorchsim::compiler::CompilerOptions;
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};

/// One workload simulated under several compiler configurations.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Baseline cycles (first configuration).
    pub baseline: u64,
    /// Cycles per variant, in the order the variants were given.
    pub variants: Vec<(String, u64)>,
}

impl Row {
    /// Speedup of variant `i` over the baseline.
    pub fn speedup(&self, i: usize) -> f64 {
        self.baseline as f64 / self.variants[i].1.max(1) as f64
    }
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        let variants = self
            .variants
            .iter()
            .map(|(label, cycles)| Json::Arr(vec![Json::str(label), Json::u64(*cycles)]))
            .collect();
        Json::obj()
            .set("name", Json::str(&self.name))
            .set("baseline", Json::u64(self.baseline))
            .set("variants", Json::Arr(variants))
    }
}

/// Runs every (workload × compiler-variant) combination as one sweep over
/// `jobs` workers and folds the results back into per-workload rows.
fn run_variants(
    specs: &[ModelSpec],
    variants: &[(&str, CompilerOptions)],
    jobs: usize,
) -> Vec<Row> {
    let cfg = SimConfig::tpu_v3_single_core();
    let mut sweep = Sweep::new();
    for spec in specs {
        for (label, opts) in variants {
            sweep.push(
                SweepPoint::model(spec.clone(), cfg.clone())
                    .with_label(format!("{}#{label}", spec.name))
                    .with_options(opts.clone()),
            );
        }
    }
    let report = sweep.run(&SweepOptions::with_jobs(jobs)).expect("fig8 sweep succeeds");

    specs
        .iter()
        .zip(report.results.chunks(variants.len()))
        .map(|(spec, chunk)| {
            let results: Vec<(String, u64)> = variants
                .iter()
                .zip(chunk)
                .map(|((label, _), point)| (label.to_string(), point.report.total_cycles))
                .collect();
            Row { name: spec.name.clone(), baseline: results[0].1, variants: results }
        })
        .collect()
}

/// Fig. 8a: coarse-grained vs fine-grained vs selective fine-grained DMA
/// for square GEMMs.
pub fn run_dma(scale: Scale, jobs: usize) -> Vec<Row> {
    let sizes: &[usize] = match scale {
        Scale::Bench => &[512],
        Scale::Full => &[512, 1024, 2048],
    };
    let variants = [
        ("CG-DMA", CompilerOptions { dma: DmaGranularity::Coarse, ..CompilerOptions::default() }),
        ("FG-DMA", CompilerOptions { dma: DmaGranularity::Fine, ..CompilerOptions::default() }),
        (
            "SFG-DMA",
            CompilerOptions { dma: DmaGranularity::SelectiveFine, ..CompilerOptions::default() },
        ),
    ];
    let specs: Vec<ModelSpec> = sizes.iter().map(|&n| models::gemm(n)).collect();
    run_variants(&specs, &variants, jobs)
}

/// Fig. 8b: CONV layout optimization for batch-1 ResNet-style convolutions.
pub fn run_conv_batch1(scale: Scale, jobs: usize) -> Vec<Row> {
    let specs: Vec<ModelSpec> = match scale {
        Scale::Bench => vec![models::conv_kernel(3, 1).expect("paper conv kernel")],
        Scale::Full => {
            vec![
                models::conv_kernel(0, 1).expect("paper conv kernel"),
                models::conv_kernel(1, 1).expect("paper conv kernel"),
                models::conv_kernel(2, 1).expect("paper conv kernel"),
                models::conv_kernel(3, 1).expect("paper conv kernel"),
                models::resnet18(1),
            ]
        }
    };
    let variants = [
        ("baseline", CompilerOptions { conv_layout_opt: false, ..CompilerOptions::default() }),
        ("layout-opt", CompilerOptions::default()),
    ];
    run_variants(&specs, &variants, jobs)
}

/// Fig. 8c: CONV layout optimization for small input-channel counts, at
/// batch sizes 1 and 64.
pub fn run_conv_small_c(scale: Scale, jobs: usize) -> Vec<Row> {
    let geometries: Vec<ModelSpec> = match scale {
        Scale::Bench => vec![models::conv_custom(1, 3, 64, 56, 7, 2, 3)],
        Scale::Full => vec![
            models::conv_custom(1, 3, 64, 224, 7, 2, 3),
            models::conv_custom(64, 3, 64, 112, 7, 2, 3),
            models::conv_custom(1, 4, 64, 112, 3, 1, 1),
            models::conv_custom(64, 4, 64, 56, 3, 1, 1),
        ],
    };
    let variants = [
        ("baseline", CompilerOptions { conv_layout_opt: false, ..CompilerOptions::default() }),
        ("layout-opt", CompilerOptions::default()),
    ];
    run_variants(&geometries, &variants, jobs)
}
