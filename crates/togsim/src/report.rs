//! Simulation result reporting.

use ptsim_common::json_record;
use ptsim_common::Cycle;
use ptsim_dram::DramStats;
use ptsim_noc::NocStats;

/// Per-job (per-TOG) results.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// TOG name.
    pub name: String,
    /// Arrival/start time.
    pub start: Cycle,
    /// Completion time of the last node.
    pub end: Cycle,
    /// DMA bytes this job moved.
    pub dma_bytes: u64,
    /// Compute node instances executed.
    pub compute_nodes: usize,
    /// DRAM accounting tag.
    pub tag: u32,
}

impl JobReport {
    /// Job latency in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_since(self.start)
    }

    /// Mean DRAM bandwidth over the job's lifetime, bytes per cycle.
    pub fn mean_bandwidth(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.dma_bytes as f64 / c as f64
        }
    }
}

/// Whole-simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Completion time of the last job.
    pub total_cycles: u64,
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
    /// Aggregated DRAM statistics.
    pub dram: DramStats,
    /// Aggregated interconnect statistics.
    pub noc: NocStats,
    /// Cycles the matrix (systolic) units were busy, summed over cores.
    pub matrix_busy: u64,
    /// Cycles the vector units were busy, summed over cores.
    pub vector_busy: u64,
}

impl SimReport {
    /// Bytes served by DRAM for a given tag (tenant accounting, §5.2).
    pub fn dram_bytes_for_tag(&self, tag: u32) -> u64 {
        self.dram.bytes_by_tag.get(&tag).copied().unwrap_or(0)
    }

    /// The single job's latency, for single-TOG runs.
    ///
    /// # Panics
    ///
    /// Panics if the simulation had no jobs.
    pub fn latency(&self) -> u64 {
        self.jobs[0].cycles()
    }
}

json_record!(JobReport { name, start, end, dma_bytes, compute_nodes, tag });
json_record!(SimReport { total_cycles, jobs, dram, noc, matrix_busy, vector_busy });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_report_arithmetic() {
        let j = JobReport {
            name: "j".into(),
            start: Cycle::new(100),
            end: Cycle::new(300),
            dma_bytes: 400,
            compute_nodes: 3,
            tag: 0,
        };
        assert_eq!(j.cycles(), 200);
        assert_eq!(j.mean_bandwidth(), 2.0);
    }

    #[test]
    fn sim_report_json_round_trips() {
        use ptsim_common::json::{FromJson, ToJson};
        let mut dram = DramStats { bytes: 4096, ..DramStats::default() };
        dram.bytes_by_tag.insert(0, 4096);
        let report = SimReport {
            total_cycles: 12_345,
            jobs: vec![JobReport {
                name: "gemm32".into(),
                start: Cycle::new(0),
                end: Cycle::new(12_345),
                dma_bytes: 4096,
                compute_nodes: 16,
                tag: 0,
            }],
            dram,
            noc: NocStats { messages: 3, bytes: 4096, link_crossings: 0, total_latency: 30 },
            matrix_busy: 9000,
            vector_busy: 800,
        };
        let back = SimReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(back, report, "wire round-trip must be bit-identical");
    }
}
