//! Multi-NPU data-parallel training — the §3.9.3 extension.
//!
//! The paper leaves multi-NPU systems as future work but sketches the
//! approach: instantiate multiple NPU models and exploit that data-parallel
//! training needs only coarse-grained communication (an all-reduce of the
//! gradients between iterations), so per-NPU simulations synchronize
//! infrequently. This module implements exactly that: each NPU's
//! per-iteration time comes from its own TOGSim run over the sharded batch,
//! and the gradient all-reduce is modelled with the standard ring-collective
//! cost over the inter-NPU links.

use ptsim_common::config::SimConfig;
use ptsim_common::cycles::ns_to_cycles;
use ptsim_common::{Error, Result};
use ptsim_models::ModelSpec;
use std::sync::Arc;

use crate::cache::CompileCache;
use crate::simulator::{RunOptions, Simulator};
use crate::training::training_spec;
use ptsim_compiler::CompilerOptions;

/// The inter-NPU fabric of a multi-NPU system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of NPUs.
    pub npus: usize,
    /// Per-link bandwidth, GB/s (e.g. inter-chip interconnect).
    pub link_gbps: f64,
    /// Per-hop link latency, ns.
    pub link_latency_ns: f64,
}

impl ClusterConfig {
    /// A TPU-pod-like fabric: 4 NPUs on 100 GB/s links, 1 µs hops.
    pub fn pod_of(npus: usize) -> Self {
        ClusterConfig { npus: npus.max(1), link_gbps: 100.0, link_latency_ns: 1000.0 }
    }
}

/// Timing of one data-parallel training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterIteration {
    /// Per-NPU compute cycles (forward + backward on the local shard).
    pub compute_cycles: u64,
    /// Gradient all-reduce cycles (ring collective).
    pub allreduce_cycles: u64,
}

impl ClusterIteration {
    /// Total iteration time in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.allreduce_cycles
    }

    /// Fraction of the iteration spent computing.
    pub fn compute_fraction(&self) -> f64 {
        self.compute_cycles as f64 / self.total_cycles().max(1) as f64
    }
}

/// Data-parallel scaling results across NPU counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingReport {
    /// `(npus, iteration)` per configuration.
    pub points: Vec<(usize, ClusterIteration)>,
}

impl ScalingReport {
    /// Scaling efficiency of the `i`-th point vs the first: achieved
    /// speedup over ideal linear speedup, typically in [0, 1].
    ///
    /// Total over untrusted input: returns `None` for an empty report, an
    /// out-of-range index, or degenerate points (zero NPUs or zero-cycle
    /// iterations) where the ratio is undefined.
    pub fn efficiency(&self, i: usize) -> Option<f64> {
        let (n0, it0) = self.points.first()?;
        let (ni, iti) = self.points.get(i)?;
        if *n0 == 0 || it0.total_cycles() == 0 || iti.total_cycles() == 0 {
            return None;
        }
        let ideal = *ni as f64 / *n0 as f64;
        if ideal == 0.0 {
            return None;
        }
        let achieved = it0.total_cycles() as f64 / iti.total_cycles() as f64;
        Some(achieved / ideal)
    }
}

/// Simulates data-parallel training over a cluster of identical NPUs.
pub struct ClusterSim {
    sim: Simulator,
    cluster: ClusterConfig,
}

impl ClusterSim {
    /// Creates a cluster of `cluster.npus` NPUs of configuration `npu`.
    pub fn new(npu: SimConfig, cluster: ClusterConfig) -> Self {
        ClusterSim { sim: Simulator::new(npu), cluster }
    }

    /// Ring all-reduce cycles for `bytes` of gradients: each NPU sends
    /// `2·(N−1)/N · bytes` over its link, in `2·(N−1)` latency-bearing
    /// steps.
    pub fn allreduce_cycles(&self, bytes: u64) -> u64 {
        let n = self.cluster.npus as u64;
        if n <= 1 {
            return 0;
        }
        let freq = self.sim.config().npu.freq_mhz;
        let bytes_per_cycle = self.cluster.link_gbps * 1e9 / (freq * 1e6);
        let volume = 2 * (n - 1) * bytes / n;
        let transfer = (volume as f64 / bytes_per_cycle).ceil() as u64;
        let latency = 2 * (n - 1) * ns_to_cycles(self.cluster.link_latency_ns, freq);
        transfer + latency
    }

    /// Times one data-parallel iteration of `global_batch` split evenly
    /// across the NPUs under `opts`: the per-shard forward+backward pass
    /// is an ordinary [`Simulator::run`] of its [`training_spec`], and the
    /// gradient volume is the model's parameter bytes. A tracer in `opts`
    /// also receives each rank's all-reduce phase spans.
    ///
    /// # Errors
    ///
    /// Returns an error if the batch does not split evenly, the model is
    /// not trainable, or compilation fails.
    pub fn iteration(
        &self,
        make_model: impl Fn(usize) -> ModelSpec,
        global_batch: usize,
        opts: &RunOptions,
    ) -> Result<ClusterIteration> {
        self.sim.config().validate()?;
        let n = self.cluster.npus;
        if !global_batch.is_multiple_of(n) || global_batch == 0 {
            return Err(Error::InvalidConfig(format!(
                "global batch {global_batch} does not split across {n} NPUs"
            )));
        }
        let spec = make_model(global_batch / n);
        let compute_cycles = self.sim.run(&training_spec(&spec)?, opts.clone())?.total_cycles;
        let grad_bytes = (spec.param_count() * 4) as u64;
        let allreduce_cycles = self.allreduce_cycles(grad_bytes);
        if let Some(t) = &opts.tracer {
            if allreduce_cycles > 0 {
                // The ring collective splits evenly: N−1 reduce-scatter
                // steps followed by N−1 all-gather steps of equal volume.
                // Every NPU participates symmetrically, so each records its
                // own span pair tagged with its rank (the tag used to be
                // hard-coded to 0, attributing the collective to NPU 0).
                let scatter = allreduce_cycles / 2;
                for rank in 0..n as u32 {
                    t.allreduce(
                        compute_cycles,
                        scatter,
                        ptsim_trace::AllReducePhase::ReduceScatter,
                        grad_bytes,
                        rank,
                    );
                }
                for rank in 0..n as u32 {
                    t.allreduce(
                        compute_cycles + scatter,
                        allreduce_cycles - scatter,
                        ptsim_trace::AllReducePhase::AllGather,
                        grad_bytes,
                        rank,
                    );
                }
            }
        }
        Ok(ClusterIteration { compute_cycles, allreduce_cycles })
    }

    /// Sweeps NPU counts for a fixed global batch, producing the
    /// weak/strong-scaling profile.
    ///
    /// # Errors
    ///
    /// Propagates iteration errors.
    pub fn scaling(
        npu: SimConfig,
        base: ClusterConfig,
        npu_counts: &[usize],
        make_model: impl Fn(usize) -> ModelSpec + Copy,
        global_batch: usize,
    ) -> Result<ScalingReport> {
        // One compile cache across NPU counts: identical shard sizes (e.g.
        // weak scaling, or repeated counts) compile once.
        let cache = CompileCache::shared();
        let mut points = Vec::new();
        for &n in npu_counts {
            let cluster = ClusterSim {
                sim: Simulator::with_cache(
                    npu.clone(),
                    CompilerOptions::default(),
                    Arc::clone(&cache),
                ),
                cluster: ClusterConfig { npus: n, ..base },
            };
            points.push((n, cluster.iteration(make_model, global_batch, &RunOptions::tls())?));
        }
        Ok(ScalingReport { points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_common::CancelToken;
    use ptsim_models::mlp;

    fn tiny() -> SimConfig {
        SimConfig::tiny()
    }

    #[test]
    fn single_npu_has_no_allreduce() {
        let sim = ClusterSim::new(tiny(), ClusterConfig { npus: 1, ..ClusterConfig::pod_of(1) });
        assert_eq!(sim.allreduce_cycles(1 << 20), 0);
        let it = sim.iteration(|b| mlp(b, 32), 16, &RunOptions::tls()).unwrap();
        assert_eq!(it.allreduce_cycles, 0);
        assert!(it.compute_cycles > 0);
    }

    #[test]
    fn allreduce_grows_with_gradient_size_and_npus() {
        let four = ClusterSim::new(tiny(), ClusterConfig::pod_of(4));
        let eight = ClusterSim::new(tiny(), ClusterConfig::pod_of(8));
        assert!(four.allreduce_cycles(64 << 20) > four.allreduce_cycles(1 << 20));
        // Per-NPU volume saturates at 2x bytes, so 8 NPUs ≈ 4 NPUs on
        // volume but pays more latency steps.
        assert!(eight.allreduce_cycles(1024) > four.allreduce_cycles(1024));
    }

    #[test]
    fn strong_scaling_shrinks_compute_but_not_allreduce() {
        let report =
            ClusterSim::scaling(tiny(), ClusterConfig::pod_of(1), &[1, 2, 4], |b| mlp(b, 32), 16)
                .unwrap();
        let c: Vec<u64> = report.points.iter().map(|(_, it)| it.compute_cycles).collect();
        assert!(c[0] > c[1] && c[1] > c[2], "compute must shrink: {c:?}");
        let a: Vec<u64> = report.points.iter().map(|(_, it)| it.allreduce_cycles).collect();
        assert!(a[1] <= a[2], "allreduce must not shrink: {a:?}");
        // Efficiency decays with scale.
        let e1 = report.efficiency(1).unwrap();
        let e2 = report.efficiency(2).unwrap();
        assert!(e1 <= 1.01);
        assert!(e2 <= e1 + 1e-9);
    }

    #[test]
    fn efficiency_is_total_over_untrusted_input() {
        // Regression: `efficiency` used to index `points[0]`/`points[i]`
        // unchecked and divide by an ideal ratio that can be zero — empty
        // reports and stale indices panicked.
        let empty = ScalingReport { points: Vec::new() };
        assert_eq!(empty.efficiency(0), None);
        let it = ClusterIteration { compute_cycles: 100, allreduce_cycles: 0 };
        let report = ScalingReport { points: vec![(1, it), (2, it)] };
        assert_eq!(report.efficiency(5), None, "out-of-range index must not panic");
        assert!(report.efficiency(1).is_some());
        let degenerate = ScalingReport { points: vec![(0, it), (4, it)] };
        assert_eq!(degenerate.efficiency(1), None, "zero-NPU baseline has no ideal speedup");
        let stalled = ScalingReport {
            points: vec![(1, ClusterIteration { compute_cycles: 0, allreduce_cycles: 0 }), (2, it)],
        };
        assert_eq!(stalled.efficiency(1), None, "zero-cycle iterations have no ratio");
    }

    #[test]
    fn degenerate_npu_configs_are_rejected_before_simulation() {
        let mut cfg = tiny();
        cfg.noc.flit_bytes = 0;
        let sim = ClusterSim::new(cfg, ClusterConfig::pod_of(2));
        let err = sim.iteration(|b| mlp(b, 32), 16, &RunOptions::tls()).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn pre_cancelled_iteration_stops_before_compiling() {
        // The shard's training graph compiles through the same path as
        // `Simulator::run`, so a fired token unwinds at the first compile
        // stage and nothing is cached.
        let sim = ClusterSim::new(tiny(), ClusterConfig::pod_of(1));
        let token = CancelToken::new();
        token.cancel();
        let opts = RunOptions::tls().with_cancel(token);
        let err = sim.iteration(|b| mlp(b, 32), 16, &opts).unwrap_err();
        assert!(matches!(err, Error::Cancelled { phase: "compile:capture", .. }), "{err}");
        assert_eq!(sim.sim.cache_len(), 0);
    }

    #[test]
    fn uneven_batches_are_rejected() {
        let sim = ClusterSim::new(tiny(), ClusterConfig::pod_of(3));
        assert!(sim.iteration(|b| mlp(b, 32), 16, &RunOptions::tls()).is_err());
    }
}
