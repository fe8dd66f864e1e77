//! Bottleneck attribution: turn a recorded [`CounterHub`] into a
//! roofline-style breakdown of where engine cycles went.
//!
//! The algorithm walks wall-clock time in counter buckets (all series
//! resampled to one common width). In each bucket, per core:
//!
//! * cycles covered by kernel-busy counters are **compute**, capped at
//!   the bucket width (matrix and vector lanes can overlap);
//! * the remaining idle cycles are split into **DRAM stall** vs **NoC
//!   stall** proportional to global DRAM-byte and NoC-flit activity in
//!   that bucket, or **other** when neither was active;
//! * idle in buckets where no kernel ran is carried forward in a pending
//!   pool and charged to the next bucket's kernels by busy share — idle
//!   after the last kernel retires becomes **tail idle**.
//!
//! Every split uses exact integer apportioning, so the per-kernel rows
//! plus tail idle always sum to `total_cycles` — the closure the
//! `ptsim profile` acceptance check relies on.

use crate::{common_width, CounterHub, CounterKey, CounterSeries};
use ptsim_common::json::Json;
use std::collections::BTreeMap;

/// Attribution of engine cycles to one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAttribution {
    /// Kernel name (as passed to `record_compute`).
    pub kernel: String,
    /// Cycles a compute lane was busy running this kernel.
    pub compute: u64,
    /// Idle cycles charged to waiting on DRAM traffic.
    pub dram_stall: u64,
    /// Idle cycles charged to waiting on NoC traffic.
    pub noc_stall: u64,
    /// Idle cycles with no memory-system activity to blame.
    pub other: u64,
}

impl KernelAttribution {
    /// All cycles attributed to this kernel.
    pub fn total(&self) -> u64 {
        self.compute + self.dram_stall + self.noc_stall + self.other
    }
}

/// The full cycle breakdown for a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// Engine cycles the breakdown covers.
    pub total_cycles: u64,
    /// Cores that recorded compute activity (rows are averaged across
    /// them so the breakdown stays in units of engine cycles).
    pub cores: usize,
    /// Per-kernel rows, sorted by attributed cycles descending (name
    /// ascending on ties).
    pub kernels: Vec<KernelAttribution>,
    /// Cycles not attributable to any kernel (warm-up/drain and
    /// rounding from cross-core averaging).
    pub tail_idle: u64,
}

impl Attribution {
    /// Sum of every attributed cycle including tail idle; equals
    /// [`Attribution::total_cycles`] by construction.
    pub fn attributed_cycles(&self) -> u64 {
        self.kernels.iter().map(KernelAttribution::total).sum::<u64>() + self.tail_idle
    }

    /// The `n` kernels with the most attributed cycles.
    pub fn top(&self, n: usize) -> &[KernelAttribution] {
        &self.kernels[..self.kernels.len().min(n)]
    }

    /// Renders the breakdown as a JSON object (deterministic: rows are
    /// already sorted).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("total_cycles", Json::Num(self.total_cycles as f64))
            .set("attributed_cycles", Json::Num(self.attributed_cycles() as f64))
            .set("cores", Json::Num(self.cores as f64))
            .set("tail_idle", Json::Num(self.tail_idle as f64))
            .set(
                "kernels",
                Json::Arr(
                    self.kernels
                        .iter()
                        .map(|k| {
                            Json::obj()
                                .set("kernel", Json::str(&k.kernel))
                                .set("compute", Json::Num(k.compute as f64))
                                .set("dram_stall", Json::Num(k.dram_stall as f64))
                                .set("noc_stall", Json::Num(k.noc_stall as f64))
                                .set("other", Json::Num(k.other as f64))
                                .set("total", Json::Num(k.total() as f64))
                        })
                        .collect(),
                ),
            )
    }
}

/// Splits `amount` across `shares` proportionally with exact integer
/// closure: the returned parts always sum to `amount` (the remainder is
/// folded into the largest share, first on ties). All zero shares ⇒ all
/// zero parts. Public because `ptsim profile` reuses it to split
/// per-kernel rows across the layers that instantiated the kernel.
pub fn apportion(amount: u64, shares: &[u64]) -> Vec<u64> {
    let total: u64 = shares.iter().sum();
    if total == 0 || amount == 0 {
        return vec![0; shares.len()];
    }
    let mut parts: Vec<u64> =
        shares.iter().map(|&s| ((amount as u128 * s as u128) / total as u128) as u64).collect();
    let assigned: u64 = parts.iter().sum();
    let mut rest = amount - assigned;
    if rest > 0 {
        let argmax = shares
            .iter()
            .enumerate()
            .max_by_key(|&(i, &s)| (s, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap();
        parts[argmax] += rest;
        rest = 0;
    }
    debug_assert_eq!(rest, 0);
    parts
}

#[derive(Debug, Default, Clone, Copy)]
struct Row {
    compute: u64,
    dram_stall: u64,
    noc_stall: u64,
    other: u64,
}

/// Element-wise sum of bucket `b` across `series`.
fn activity(series: &[&CounterSeries], b: usize) -> u64 {
    series.iter().map(|s| s.bucket(b)).sum()
}

/// Computes the cycle breakdown of a recorded run.
///
/// `total_cycles` is the engine's reported end time; counters recorded
/// past it are ignored (they cannot happen in practice — every recording
/// is stamped at or before the retire cycle).
pub fn attribute(hub: &CounterHub, total_cycles: u64) -> Attribution {
    let snap = hub.snapshot();
    let width = common_width(&snap);
    let resampled: Vec<CounterSeries> = snap.iter().map(|s| s.rebucket(width)).collect();

    let dram: Vec<&CounterSeries> =
        resampled.iter().filter(|s| matches!(s.key, CounterKey::DramBytes { .. })).collect();
    let noc: Vec<&CounterSeries> =
        resampled.iter().filter(|s| matches!(s.key, CounterKey::NocInjFlits { .. })).collect();

    // Kernel-busy series grouped by core, each as (kernel id, series).
    let mut per_core: BTreeMap<u32, Vec<(u32, &CounterSeries)>> = BTreeMap::new();
    for s in &resampled {
        if let CounterKey::KernelBusy { core, kernel } = s.key {
            per_core.entry(core).or_default().push((kernel, s));
        }
    }

    let core_count = per_core.len();
    if total_cycles == 0 || core_count == 0 {
        return Attribution {
            total_cycles,
            cores: core_count,
            kernels: Vec::new(),
            tail_idle: total_cycles,
        };
    }

    let buckets = total_cycles.div_ceil(width) as usize;
    // Accumulated rows per kernel id, summed over all cores.
    let mut rows: BTreeMap<u32, Row> = BTreeMap::new();

    for kernels in per_core.values() {
        let ids: Vec<u32> = kernels.iter().map(|&(id, _)| id).collect();
        // Stall cycles from kernel-free buckets, waiting to be charged
        // to whichever kernels run next.
        let mut pending = Row::default();
        for b in 0..buckets {
            let width_b = width.min(total_cycles - b as u64 * width);
            let busy: Vec<u64> = kernels.iter().map(|&(_, s)| s.bucket(b)).collect();
            let busy_total: u64 = busy.iter().sum();
            // Matrix and vector lanes overlap, so raw busy can exceed
            // wall-clock width; scale compute down to the cycles the
            // core was actually occupied.
            let (compute, idle) = if busy_total >= width_b {
                (apportion(width_b, &busy), 0)
            } else {
                (busy.clone(), width_b - busy_total)
            };
            // Blame this bucket's idle on whatever the memory system
            // was doing during it.
            let dram_act = activity(&dram, b);
            let noc_act = activity(&noc, b);
            let mut stall = Row::default();
            if dram_act + noc_act > 0 {
                let d = ((idle as u128 * dram_act as u128) / (dram_act + noc_act) as u128) as u64;
                stall.dram_stall = d;
                stall.noc_stall = idle - d;
            } else {
                stall.other = idle;
            }
            if busy_total == 0 {
                pending.dram_stall += stall.dram_stall;
                pending.noc_stall += stall.noc_stall;
                pending.other += stall.other;
                continue;
            }
            // Charge compute plus this bucket's and any pending stall
            // to the kernels running now, by busy share.
            let d_parts = apportion(pending.dram_stall + stall.dram_stall, &busy);
            let n_parts = apportion(pending.noc_stall + stall.noc_stall, &busy);
            let o_parts = apportion(pending.other + stall.other, &busy);
            pending = Row::default();
            for (i, &id) in ids.iter().enumerate() {
                let row = rows.entry(id).or_default();
                row.compute += compute[i];
                row.dram_stall += d_parts[i];
                row.noc_stall += n_parts[i];
                row.other += o_parts[i];
            }
        }
        // Idle after the last kernel retired on this core: tail. Keep it
        // in the sum (as an unattributed row) via the pending remainder —
        // handled below by the closure arithmetic.
        let _ = pending; // folded into tail_idle by the final subtraction
    }

    // Each core's walk covers exactly `total_cycles`; average the summed
    // rows back down to engine-cycle units and fold every rounding
    // remainder (and per-core trailing idle) into tail_idle so the
    // breakdown still sums exactly to `total_cycles`.
    let c = core_count as u64;
    let mut kernels: Vec<KernelAttribution> = rows
        .iter()
        .map(|(&id, r)| KernelAttribution {
            kernel: hub.kernel_name(id).unwrap_or_else(|| format!("kernel{id}")),
            compute: r.compute / c,
            dram_stall: r.dram_stall / c,
            noc_stall: r.noc_stall / c,
            other: r.other / c,
        })
        .collect();
    kernels.sort_by(|a, b| b.total().cmp(&a.total()).then_with(|| a.kernel.cmp(&b.kernel)));
    let attributed: u64 = kernels.iter().map(KernelAttribution::total).sum();
    let tail_idle = total_cycles.saturating_sub(attributed);

    Attribution { total_cycles, cores: core_count, kernels, tail_idle }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusyUnit, CounterConfig};
    use ptsim_trace::RowOutcome;

    fn hub(width: u64) -> CounterHub {
        CounterHub::new(CounterConfig { cycles_per_bucket: width, max_buckets: 4096 })
    }

    #[test]
    fn apportion_is_exact() {
        assert_eq!(apportion(10, &[1, 1, 1]).iter().sum::<u64>(), 10);
        assert_eq!(apportion(7, &[0, 0]), vec![0, 0]);
        assert_eq!(apportion(100, &[3, 1]), vec![75, 25]);
        assert_eq!(apportion(1, &[5, 5]).iter().sum::<u64>(), 1);
    }

    #[test]
    fn breakdown_sums_exactly_to_total_cycles() {
        let h = hub(100);
        h.record_compute(0, BusyUnit::Matrix, "gemm", 0, 80);
        h.record_dram_tx(0, 120, 4096, RowOutcome::Miss); // idle bucket: dram stall
        h.record_compute(0, BusyUnit::Vector, "softmax", 250, 30);
        let a = attribute(&h, 300);
        assert_eq!(a.attributed_cycles(), 300);
        assert_eq!(a.cores, 1);
        let gemm = a.kernels.iter().find(|k| k.kernel == "gemm").unwrap();
        assert_eq!(gemm.compute, 80);
        // Bucket 0 idle (20 cycles) had no memory activity -> other.
        assert_eq!(gemm.other, 20);
        let soft = a.kernels.iter().find(|k| k.kernel == "softmax").unwrap();
        assert_eq!(soft.compute, 30);
        // Bucket 1 was fully idle with DRAM traffic: its 100 cycles are
        // carried to softmax (the next kernel to run) as dram stall.
        assert_eq!(soft.dram_stall, 100);
        // Bucket 2 idle (70) had no activity -> other, charged to softmax.
        assert_eq!(soft.other, 70);
        assert_eq!(a.tail_idle, 0);
    }

    #[test]
    fn one_busy_lane_charges_each_kernel_its_busy_total() {
        // Tiles longer than a bucket, across bucket edges, with gaps.
        let h = hub(100);
        for (kernel, at, cycles) in
            [("a", 0, 250), ("b", 250, 130), ("a", 380, 90), ("b", 600, 1000), ("a", 1700, 5)]
        {
            h.record_compute(0, BusyUnit::Matrix, kernel, at, cycles);
        }
        let a = attribute(&h, 1705);
        assert_eq!(a.attributed_cycles(), 1705);
        for s in h.snapshot() {
            if let CounterKey::KernelBusy { kernel, .. } = s.key {
                let name = h.kernel_name(kernel).unwrap();
                let row = a.kernels.iter().find(|k| k.kernel == name).unwrap();
                assert_eq!(row.compute, s.total, "kernel {name}");
            }
        }
    }

    #[test]
    fn overlapping_lanes_are_capped_at_wall_clock() {
        let h = hub(100);
        h.record_compute(0, BusyUnit::Matrix, "a", 0, 100);
        h.record_compute(0, BusyUnit::Vector, "b", 0, 100);
        let a = attribute(&h, 100);
        assert_eq!(a.attributed_cycles(), 100);
        let total: u64 = a.kernels.iter().map(|k| k.compute).sum();
        assert_eq!(total, 100, "200 busy cycles scale to 100 wall-clock");
    }

    #[test]
    fn trailing_idle_lands_in_tail() {
        let h = hub(50);
        h.record_compute(0, BusyUnit::Matrix, "k", 0, 50);
        let a = attribute(&h, 500);
        assert_eq!(a.attributed_cycles(), 500);
        assert_eq!(a.tail_idle, 450);
    }

    #[test]
    fn multi_core_rows_average_and_still_close() {
        let h = hub(100);
        h.record_compute(0, BusyUnit::Matrix, "k", 0, 100);
        h.record_compute(1, BusyUnit::Matrix, "k", 0, 60);
        h.record_noc_flits(0, 1, 150, 32); // idle on both cores: noc stall
        let a = attribute(&h, 200);
        assert_eq!(a.cores, 2);
        assert_eq!(a.attributed_cycles(), 200);
        let k = &a.kernels[0];
        // Core 0: 100 compute; core 1: 60 compute. Averaged: 80.
        assert_eq!(k.compute, 80);
        assert!(a.tail_idle > 0, "core 1's uncharged idle folds into tail");
    }

    #[test]
    fn empty_hub_attributes_everything_to_tail() {
        let h = hub(100);
        let a = attribute(&h, 1234);
        assert_eq!(a.kernels.len(), 0);
        assert_eq!(a.tail_idle, 1234);
        assert_eq!(a.attributed_cycles(), 1234);
    }

    #[test]
    fn json_rendering_is_deterministic() {
        let h = hub(100);
        h.record_compute(0, BusyUnit::Matrix, "gemm", 0, 10);
        let a = attribute(&h, 100);
        assert_eq!(a.to_json().render(), a.to_json().render());
        assert!(a.to_json().render().contains("\"kernel\":\"gemm\""));
    }
}
