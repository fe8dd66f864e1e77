//! Fig. 9 — weight-tensor mapping on a chiplet-based NUMA NPU (§5.4).
//!
//! Two chiplets, each with one core and half the HBM channels, joined by a
//! 64 GB/s (32 per direction), 20 ns link. GEMM tiles read a controlled
//! fraction of their operands from local vs. remote memory:
//! best-case mapping ≈ 75% local, random ≈ 50%, worst-case ≈ 25%. The
//! monolithic NPU (no link) is the normalization baseline.

use crate::Scale;
use ptsim_common::config::{ChipletLinkConfig, SimConfig};
use ptsim_common::json_record;
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
use pytorchsim::tog::{AddrExpr, ExecUnit, ExecutableTog, TogBuilder, TogOpKind};
use pytorchsim::togsim::JobSpec;
use std::sync::Arc;

/// One mapping strategy's result.
#[derive(Debug, Clone)]
pub struct Row {
    /// Mapping name.
    pub name: String,
    /// Fraction of local traffic.
    pub local_fraction: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Runtime normalized to the monolithic NPU.
    pub normalized: f64,
}

json_record!(ToJson for Row { name, local_fraction, cycles, normalized });

/// Builds one core's tile stream with `local_of_4` of every four operand
/// loads placed on the local chiplet's memory. Each load spreads its rows
/// across all of one chiplet's channels (base selects the chiplet half,
/// stride skips the other half), so data placement — not transaction
/// interleaving — controls locality.
fn numa_tog(
    core: usize,
    local_of_4: usize,
    channels: usize,
    tiles: u64,
    rows: u64,
) -> ExecutableTog {
    let chan_round = (channels * 64) as u64;
    let half = (channels / 2) as u64;
    let local_half = if core == 0 { 0u64 } else { 1 };
    let mut b = TogBuilder::new(format!("numa_c{core}_{local_of_4}of4"));
    let i = b.begin_loop(tiles);
    let mut waits = Vec::new();
    for part in 0..4usize {
        let on_half = if part < local_of_4 { local_half } else { 1 - local_half };
        let ld = b.node(
            TogOpKind::LoadDma {
                mm: AddrExpr::new(on_half * half * 64).with_term(i, rows * chan_round),
                sp: AddrExpr::new((part as u64) * rows * half * 64),
                rows,
                cols: 16 * half, // one full chiplet-half of channels per row
                mm_stride: chan_round,
                sp_stride: half * 64,
                transpose: false,
            },
            &[],
        );
        waits.push(b.node(TogOpKind::WaitDma { dma: ld }, &[]));
    }
    // A memory-bound GEMM tile: small compute relative to its traffic.
    b.node(TogOpKind::compute("gemm_tile", 64, ExecUnit::Matrix), &waits);
    b.end_loop();
    b.finish().expand().expect("numa tog is well-formed")
}

/// Runs the mapping sweep: the monolithic baseline and the three chiplet
/// mappings are four raw-TOG sweep points executed over `jobs` workers.
pub fn run(scale: Scale, jobs: usize) -> Vec<Row> {
    let (tiles, rows) = match scale {
        Scale::Bench => (16u64, 64u64),
        Scale::Full => (128, 128),
    };
    let mut cfg = SimConfig::tpu_v3();
    cfg.npu.cores = 2;
    cfg.noc.chiplet = Some(ChipletLinkConfig::paper_two_chiplets());
    let mut mono = cfg.clone();
    mono.noc.chiplet = None;

    let channels = cfg.dram.channels;
    let point = |name: &str, cfg: &SimConfig, local_of_4: usize| {
        SweepPoint::raw(
            name,
            cfg.clone(),
            (0..2).map(|core| {
                (
                    Arc::new(numa_tog(core, local_of_4, channels, tiles, rows)),
                    JobSpec { core_offset: core, cores: 1, tag: core as u32, ..JobSpec::default() },
                )
            }),
        )
    };

    // Monolithic baseline: no chiplet link and interleaved placement
    // (half the accesses on each side of the now-unified memory).
    let mappings = [("best-case", 3usize), ("random", 2), ("worst-case", 1)];
    let mut sweep = Sweep::new();
    sweep.push(point("monolithic", &mono, 2));
    for (name, local) in mappings {
        sweep.push(point(name, &cfg, local));
    }
    let report = sweep.run(&SweepOptions::with_jobs(jobs)).expect("numa sweep succeeds");

    let monolithic = report.results[0].report.total_cycles;
    let mut rows_out = vec![Row {
        name: "monolithic".into(),
        local_fraction: 1.0,
        cycles: monolithic,
        normalized: 1.0,
    }];
    for ((name, local), result) in mappings.iter().zip(&report.results[1..]) {
        rows_out.push(Row {
            name: (*name).into(),
            local_fraction: *local as f64 / 4.0,
            cycles: result.report.total_cycles,
            normalized: result.report.total_cycles as f64 / monolithic as f64,
        });
    }
    rows_out
}

/// The paper's harmonic-mean effective-bandwidth estimate for a mapping
/// (§5.4): runtime ∝ 1 / BW_eff.
pub fn analytical_slowdown(local_fraction: f64, local_gbps: f64, remote_gbps: f64) -> f64 {
    let bw_eff = 1.0 / (local_fraction / local_gbps + (1.0 - local_fraction) / remote_gbps);
    // Normalized to the monolithic chip's full (2x local) bandwidth.
    (local_gbps * 2.0) / bw_eff
}
