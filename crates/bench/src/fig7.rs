//! Fig. 7 — (a) heterogeneous dense-sparse NPU and (b) multi-model tenancy.

use crate::Scale;
use ptsim_common::config::{MemSchedulerPolicy, SimConfig};
use ptsim_common::json_record;
use ptsim_common::Cycle;
use pytorchsim::models;
use pytorchsim::sparse::{DetailedSparseSim, SparseCoreConfig, SpmspmLowering};
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
use pytorchsim::tensor::CsrMatrix;
use pytorchsim::togsim::JobSpec;
use pytorchsim::Simulator;
use std::sync::Arc;
use std::time::Instant;

/// Fig. 7a results: dense and sparse core latencies, alone vs integrated.
#[derive(Debug, Clone)]
pub struct HeteroResult {
    /// Dense core cycles on its own chip (half bandwidth).
    pub dense_alone: u64,
    /// Sparse core cycles on its own chip (half bandwidth).
    pub sparse_alone: u64,
    /// Dense core cycles in the heterogeneous NPU (shared full bandwidth).
    pub dense_hetero: u64,
    /// Sparse core cycles in the heterogeneous NPU.
    pub sparse_hetero: u64,
}

impl HeteroResult {
    /// Dense-core speedup from integration (the paper saw +23%).
    pub fn dense_speedup(&self) -> f64 {
        self.dense_alone as f64 / self.dense_hetero.max(1) as f64
    }

    /// Sparse-core slowdown from integration (the paper saw 40%).
    pub fn sparse_slowdown(&self) -> f64 {
        self.sparse_hetero as f64 / self.sparse_alone.max(1) as f64
    }
}

json_record!(ToJson for HeteroResult { dense_alone, sparse_alone, dense_hetero, sparse_hetero });

/// Runs Fig. 7a: a dense (systolic) core and a sparse (Flexagon-like) core,
/// each alone with half the HBM (the 240 GB/s chips) versus integrated in
/// one NPU sharing the doubled memory system (480 GB/s) under FR-FCFS. The
/// three scenarios are independent sweep points executed over `jobs`
/// workers; the dense GEMM is compiled once (against the standalone-chip
/// config, as the paper's dense binary is) and replayed as a raw TOG.
pub fn run_hetero(scale: Scale, jobs: usize) -> HeteroResult {
    let (gemm_n, spm_n, tile) = match scale {
        Scale::Bench => (256, 256, 64),
        Scale::Full => (1024, 512, 64),
    };
    let mut hetero_cfg = SimConfig::tpu_v3();
    hetero_cfg.npu.cores = 2;
    hetero_cfg.dram.channels = 8; // 480 GB/s-equivalent shared
    hetero_cfg.dram.scheduler = MemSchedulerPolicy::FrFcfs;
    let mut alone_cfg = hetero_cfg.clone();
    alone_cfg.dram.channels = 4; // 240 GB/s-equivalent each

    let compiler = Simulator::new(alone_cfg.clone());
    let dense_spec = models::gemm(gemm_n);
    let dense = compiler.compile(&dense_spec).expect("dense compiles");
    let dense_tog = Arc::new(dense.tog.clone());

    let a = CsrMatrix::random(spm_n, spm_n, 0.05, 900);
    let b = CsrMatrix::random(spm_n, spm_n, 0.05, 901);
    let sparse = SpmspmLowering::new(SparseCoreConfig::flexagon_like(), tile)
        .lower(&a, &b, 0x4000_0000)
        .expect("sparse lowers");
    let sparse_tog = Arc::new(sparse.tog.expand().expect("sparse tog expands"));

    let dense_job = || {
        (Arc::clone(&dense_tog), JobSpec { core_offset: 0, cores: 1, tag: 0, ..JobSpec::default() })
    };
    let sparse_job = || {
        (
            Arc::clone(&sparse_tog),
            JobSpec { core_offset: 1, cores: 1, tag: 1, ..JobSpec::default() },
        )
    };

    let mut sweep = Sweep::new();
    sweep.push(SweepPoint::raw("dense-alone", alone_cfg.clone(), [dense_job()]));
    sweep.push(SweepPoint::raw("sparse-alone", alone_cfg, [sparse_job()]));
    sweep.push(SweepPoint::raw("hetero", hetero_cfg, [dense_job(), sparse_job()]));
    let report = sweep.run(&SweepOptions::with_jobs(jobs)).expect("hetero sweep succeeds");

    let both = &report.results[2].report;
    HeteroResult {
        dense_alone: report.results[0].report.jobs[0].cycles(),
        sparse_alone: report.results[1].report.jobs[0].cycles(),
        dense_hetero: both.jobs[0].cycles(),
        sparse_hetero: both.jobs[1].cycles(),
    }
}

/// §5.1 validation: sparse TLS vs the detailed per-element reference.
#[derive(Debug, Clone)]
pub struct SparseValidation {
    /// Workload label.
    pub name: String,
    /// Detailed reference cycles.
    pub detailed_cycles: u64,
    /// TLS cycles (serial tile sum, the matched compute model).
    pub tls_cycles: u64,
    /// Detailed simulation wall time, seconds.
    pub detailed_wall: f64,
    /// TLS replay wall time (offline table amortized), seconds.
    pub tls_wall: f64,
}

impl SparseValidation {
    /// Absolute cycle error, percent.
    pub fn cycle_error_pct(&self) -> f64 {
        100.0 * (self.tls_cycles as f64 - self.detailed_cycles as f64).abs()
            / self.detailed_cycles.max(1) as f64
    }

    /// TLS wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        self.detailed_wall / self.tls_wall.max(1e-9)
    }
}

json_record!(ToJson for SparseValidation {
    name,
    detailed_cycles,
    tls_cycles,
    detailed_wall,
    tls_wall,
});

/// Validates sparse TLS against the detailed simulator for SpMSpM-256/512
/// at 95% sparsity (the paper's setup).
pub fn run_sparse_validation(scale: Scale) -> Vec<SparseValidation> {
    let sizes: &[usize] = match scale {
        Scale::Bench => &[256],
        Scale::Full => &[256, 512],
    };
    let core = SparseCoreConfig::flexagon_like();
    sizes
        .iter()
        .map(|&n| {
            let a = CsrMatrix::random(n, n, 0.05, n as u64);
            let b = CsrMatrix::random(n, n, 0.05, n as u64 + 1);
            let reps = 5;
            let t0 = Instant::now();
            let mut detailed_cycles = 0;
            for _ in 0..reps {
                detailed_cycles =
                    DetailedSparseSim::new(core, 0, 64).simulate(&a, &b).expect("simulates");
            }
            let detailed_wall = t0.elapsed().as_secs_f64() / reps as f64;

            // Offline table generation happens once; replays are what
            // exploration workloads pay ("reused over multiple simulations").
            let t1 = Instant::now();
            let lowered = SpmspmLowering::new(core, 64).lower(&a, &b, 0).expect("lowers");
            let offline = t1.elapsed().as_secs_f64();
            let t2 = Instant::now();
            let mut tls_cycles = 0u64;
            for _ in 0..reps {
                tls_cycles = lowered.tiles.iter().map(|t| t.cycles).sum();
            }
            let replay = t2.elapsed().as_secs_f64() / reps as f64;
            SparseValidation {
                name: format!("SpMSpM{n}"),
                detailed_cycles,
                tls_cycles,
                detailed_wall,
                tls_wall: replay + offline / 50.0,
            }
        })
        .collect()
}

/// Fig. 7b results: tenant latencies alone (half bandwidth) vs co-located.
#[derive(Debug, Clone)]
pub struct TenancyResult {
    /// BERT cycles alone.
    pub bert_alone: u64,
    /// ResNet cycles alone.
    pub resnet_alone: u64,
    /// BERT cycles co-located.
    pub bert_shared: u64,
    /// ResNet cycles co-located.
    pub resnet_shared: u64,
    /// BERT mean DRAM bandwidth co-located, bytes/cycle.
    pub bert_bw: f64,
    /// ResNet mean DRAM bandwidth co-located, bytes/cycle.
    pub resnet_bw: f64,
}

impl TenancyResult {
    /// Percent latency change for (bert, resnet) from co-location.
    pub fn latency_changes(&self) -> (f64, f64) {
        (
            100.0 * (self.bert_shared as f64 - self.bert_alone as f64)
                / self.bert_alone.max(1) as f64,
            100.0 * (self.resnet_shared as f64 - self.resnet_alone as f64)
                / self.resnet_alone.max(1) as f64,
        )
    }
}

json_record!(ToJson for TenancyResult {
    bert_alone,
    resnet_alone,
    bert_shared,
    resnet_shared,
    bert_bw,
    resnet_bw,
});

/// Runs Fig. 7b: BERT-Base and ResNet-18 co-located on one NPU versus solo
/// runs with half the DRAM bandwidth each (the paper's allocation). The
/// co-located tenancy point and the two solo points run as one sweep; the
/// co-located point, the longest, goes first so that on two workers the
/// solo runs overlap it.
pub fn run_tenancy(scale: Scale, jobs: usize) -> TenancyResult {
    let (bert_spec, resnet_spec) = match scale {
        Scale::Bench => (
            models::bert(
                models::BertConfig { layers: 2, ..models::BertConfig::base(128, 1) },
                "bert_mini",
            ),
            models::resnet18(1),
        ),
        Scale::Full => (models::bert_base(512, 4), models::resnet18(8)),
    };
    let mut full = SimConfig::tpu_v3();
    full.npu.cores = 2;
    let mut half = full.clone();
    half.dram.channels = full.dram.channels / 2;

    let mut sweep = Sweep::new();
    sweep.push(SweepPoint::tenants(
        "co-located",
        full,
        [
            (
                bert_spec.clone(),
                JobSpec { core_offset: 0, cores: 1, tag: 0, start_at: Cycle::ZERO },
            ),
            (
                resnet_spec.clone(),
                JobSpec { core_offset: 1, cores: 1, tag: 1, start_at: Cycle::ZERO },
            ),
        ],
    ));
    sweep.push(SweepPoint::model(bert_spec, half.clone()).with_label("bert-solo"));
    sweep.push(SweepPoint::model(resnet_spec, half).with_label("resnet-solo"));
    let report = sweep.run(&SweepOptions::with_jobs(jobs)).expect("tenancy sweep succeeds");

    let both = &report.results[0].report;
    TenancyResult {
        bert_alone: report.results[1].report.jobs[0].cycles(),
        resnet_alone: report.results[2].report.jobs[0].cycles(),
        bert_shared: both.jobs[0].cycles(),
        resnet_shared: both.jobs[1].cycles(),
        bert_bw: both.dram_bytes_for_tag(0) as f64 / both.jobs[0].cycles().max(1) as f64,
        resnet_bw: both.dram_bytes_for_tag(1) as f64 / both.jobs[1].cycles().max(1) as f64,
    }
}
