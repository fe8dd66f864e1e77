//! Seed-deterministic case generation.
//!
//! A [`CheckCase`] is a complete randomized scenario: a workload drawn from
//! the model zoo, a mutated-but-valid [`SimConfig`], a multi-tenant request
//! profile, and the adversarial inputs the robustness oracles feed to the
//! public API (a corrupted config, an untrusted conv-kernel index, raw
//! scaling points). Everything derives from one `u64` seed through
//! independent SplitMix64 sub-streams, so a case replays bit-identically
//! from its seed alone and editing one draw site never reshuffles the
//! others.

use ptsim_common::config::{
    ChipletLinkConfig, DramConfig, L1CacheConfig, MemSchedulerPolicy, NocConfig, NocKind, SimConfig,
};
use ptsim_common::rng::{splitmix, Rng};
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::scheduler::ArrivalDist;
use std::fmt;

/// An independent RNG sub-stream of `seed`. Each generated aspect of a case
/// draws from its own stream, so replay stays stable under generator edits.
fn stream(seed: u64, lane: u64) -> Rng {
    Rng::seed_from_u64(splitmix(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)))
}

fn pick<T: Copy>(rng: &mut Rng, choices: &[T]) -> T {
    choices[rng.gen_range(0..choices.len())]
}

/// A workload drawn from the model zoo, with the dimensions the case
/// randomizes. Kept small by construction: the harness runs each case
/// through a dozen simulations, so CI's seed budget only works if every
/// family compiles and simulates in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Square GEMM.
    Gemm {
        /// Matrix dimension.
        n: usize,
    },
    /// Rectangular GEMM `[m,k] × [k,n]`.
    GemmRect {
        /// Rows of the activation.
        m: usize,
        /// Contraction dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// The §5.5 MLP classifier.
    Mlp {
        /// Batch size.
        batch: usize,
        /// Hidden width.
        hidden: usize,
    },
    /// A small custom 3×3 convolution.
    Conv {
        /// Batch size.
        batch: usize,
        /// Input/output channels.
        channels: usize,
        /// Feature-map height/width.
        hw: usize,
    },
    /// A standalone LayerNorm kernel.
    LayerNorm {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// A standalone Softmax kernel.
    Softmax {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// A one-layer, narrow transformer encoder block.
    Bert {
        /// Sequence length.
        seq: usize,
        /// Batch size.
        batch: usize,
    },
}

impl Workload {
    fn random(rng: &mut Rng) -> Self {
        match rng.gen_range(0..7) {
            0 => Workload::Gemm { n: 8 * rng.gen_range(2..13) },
            1 => Workload::GemmRect {
                m: pick(rng, &[8, 16, 24, 32, 48, 64]),
                k: pick(rng, &[8, 16, 24, 32, 48, 64]),
                n: pick(rng, &[8, 16, 24, 32, 48, 64]),
            },
            2 => Workload::Mlp { batch: rng.gen_range(1..9), hidden: pick(rng, &[16, 32, 64]) },
            3 => Workload::Conv {
                batch: rng.gen_range(1..3),
                channels: pick(rng, &[4, 8]),
                hw: pick(rng, &[6, 8, 10]),
            },
            4 => Workload::LayerNorm { rows: rng.gen_range(2..17), cols: pick(rng, &[16, 32, 64]) },
            5 => Workload::Softmax { rows: rng.gen_range(2..17), cols: pick(rng, &[16, 32, 64]) },
            _ => Workload::Bert { seq: pick(rng, &[8, 16]), batch: 1 },
        }
    }

    /// Builds the model.
    pub fn spec(&self) -> ModelSpec {
        match *self {
            Workload::Gemm { n } => models::gemm(n),
            Workload::GemmRect { m, k, n } => models::gemm_rect(m, k, n),
            Workload::Mlp { batch, hidden } => models::mlp(batch, hidden),
            Workload::Conv { batch, channels, hw } => {
                models::conv_custom(batch, channels, channels, hw, 3, 1, 1)
            }
            Workload::LayerNorm { rows, cols } => models::layernorm_kernel(rows, cols),
            Workload::Softmax { rows, cols } => models::softmax_kernel(rows, cols),
            Workload::Bert { seq, batch } => models::bert(
                models::BertConfig {
                    hidden: 32,
                    layers: 1,
                    heads: 2,
                    intermediate: 64,
                    seq,
                    batch,
                },
                &format!("bert_check_s{seq}_b{batch}"),
            ),
        }
    }

    /// The same family at `factor ×` the batch-like dimension, when the
    /// family has one — the metamorphic "larger batch never gets cheaper"
    /// oracle. `None` for fixed-size kernels.
    pub fn scaled(&self, factor: usize) -> Option<Workload> {
        match *self {
            Workload::Gemm { .. } | Workload::Conv { .. } => None,
            Workload::GemmRect { m, k, n } => Some(Workload::GemmRect { m: m * factor, k, n }),
            Workload::Mlp { batch, hidden } => {
                Some(Workload::Mlp { batch: batch * factor, hidden })
            }
            Workload::LayerNorm { rows, cols } => {
                Some(Workload::LayerNorm { rows: rows * factor, cols })
            }
            Workload::Softmax { rows, cols } => {
                Some(Workload::Softmax { rows: rows * factor, cols })
            }
            Workload::Bert { seq, batch } => Some(Workload::Bert { seq, batch: batch * factor }),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Workload::Gemm { n } => write!(f, "gemm{n}"),
            Workload::GemmRect { m, k, n } => write!(f, "gemm_{m}x{k}x{n}"),
            Workload::Mlp { batch, hidden } => write!(f, "mlp_b{batch}_h{hidden}"),
            Workload::Conv { batch, channels, hw } => write!(f, "conv_b{batch}_c{channels}_hw{hw}"),
            Workload::LayerNorm { rows, cols } => write!(f, "layernorm_{rows}x{cols}"),
            Workload::Softmax { rows, cols } => write!(f, "softmax_{rows}x{cols}"),
            Workload::Bert { seq, batch } => write!(f, "bert_s{seq}_b{batch}"),
        }
    }
}

/// Which configuration field the config-rejection oracle corrupts. Every
/// variant must be caught by `SimConfig::validate` — the oracle feeds the
/// corrupted config to the public facades and demands `InvalidConfig`, not
/// a panic or garbage cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// `npu.cores = 0`.
    NpuCores,
    /// `npu.freq_mhz = 0.0`.
    NpuFreq,
    /// `npu.dma_queue_depth = 0`.
    DmaQueue,
    /// `npu.element_bytes = 0`.
    ElementBytes,
    /// `l1_cache.ways = 0` (cache forced present).
    L1Ways,
    /// `l1_cache.line_bytes = 0` (cache forced present).
    L1Line,
    /// `dram.bytes_per_cycle_per_channel = 0`.
    DramBus,
    /// `dram.queue_depth = 0`.
    DramQueue,
    /// `noc.flit_bytes = 0`.
    NocFlit,
    /// `noc.bytes_per_cycle = 0`.
    NocBandwidth,
    /// `noc.port_links = 0`.
    NocLinks,
    /// `noc.chiplet` with a single chiplet.
    ChipletSingle,
}

impl Corruption {
    const ALL: [Corruption; 12] = [
        Corruption::NpuCores,
        Corruption::NpuFreq,
        Corruption::DmaQueue,
        Corruption::ElementBytes,
        Corruption::L1Ways,
        Corruption::L1Line,
        Corruption::DramBus,
        Corruption::DramQueue,
        Corruption::NocFlit,
        Corruption::NocBandwidth,
        Corruption::NocLinks,
        Corruption::ChipletSingle,
    ];

    /// Applies the corruption to a copy of `cfg`.
    pub fn apply(&self, cfg: &SimConfig) -> SimConfig {
        let mut c = cfg.clone();
        match self {
            Corruption::NpuCores => c.npu.cores = 0,
            Corruption::NpuFreq => c.npu.freq_mhz = 0.0,
            Corruption::DmaQueue => c.npu.dma_queue_depth = 0,
            Corruption::ElementBytes => c.npu.element_bytes = 0,
            Corruption::L1Ways => {
                c.npu.l1_cache = Some(L1CacheConfig { ways: 0, ..L1CacheConfig::kib_128() })
            }
            Corruption::L1Line => {
                c.npu.l1_cache = Some(L1CacheConfig { line_bytes: 0, ..L1CacheConfig::kib_128() })
            }
            Corruption::DramBus => c.dram.bytes_per_cycle_per_channel = 0,
            Corruption::DramQueue => c.dram.queue_depth = 0,
            Corruption::NocFlit => c.noc.flit_bytes = 0,
            Corruption::NocBandwidth => c.noc.bytes_per_cycle = 0,
            Corruption::NocLinks => c.noc.port_links = 0,
            Corruption::ChipletSingle => {
                c.noc.chiplet = Some(ChipletLinkConfig {
                    chiplets: 1,
                    ..ChipletLinkConfig::paper_two_chiplets()
                })
            }
        }
        c
    }
}

/// One tenant's request profile in the multi-tenant scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantProfile {
    /// Arrival process.
    pub arrivals: ArrivalDist,
    /// Number of requests.
    pub count: usize,
}

impl TenantProfile {
    fn random(rng: &mut Rng) -> Self {
        let arrivals = match rng.gen_range(0..3) {
            0 => ArrivalDist::AtOnce,
            1 => ArrivalDist::Uniform { interval: rng.gen_range(100..5_001) },
            _ => ArrivalDist::Poisson { mean_interval: rng.gen_range(100..5_001) as f64 },
        };
        TenantProfile { arrivals, count: rng.gen_range(1..5) }
    }
}

/// A complete randomized scenario, derived deterministically from `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckCase {
    /// The generating seed (the replay handle).
    pub seed: u64,
    /// The workload under test.
    pub workload: Workload,
    /// The (valid) simulated machine.
    pub cfg: SimConfig,
    /// Multi-tenant request profiles (at least one).
    pub tenants: Vec<TenantProfile>,
    /// Whether the scheduler partitions cores spatially (vs temporally).
    pub spatial: bool,
    /// Scheduler batch-size cap.
    pub max_batch: usize,
    /// Field the config-rejection oracle corrupts.
    pub corrupt: Corruption,
    /// Untrusted conv-kernel index fed to the model zoo (may be invalid).
    pub conv_index: usize,
    /// Synthetic `(npus, compute_cycles, allreduce_cycles)` scaling points,
    /// possibly degenerate, fed raw to `ScalingReport`.
    pub scaling: Vec<(usize, u64, u64)>,
    /// Index probed on the scaling report (may be out of range).
    pub eff_index: usize,
}

impl CheckCase {
    /// Generates the case for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let workload = Workload::random(&mut stream(seed, 1));
        let cfg = random_config(&mut stream(seed, 2));
        let mut rng = stream(seed, 3);
        let tenants = (0..rng.gen_range(1..4)).map(|_| TenantProfile::random(&mut rng)).collect();
        let spatial = rng.gen_bool(0.5);
        let max_batch = rng.gen_range(1..5);

        let mut rng = stream(seed, 4);
        let corrupt = pick(&mut rng, &Corruption::ALL);
        let conv_index = rng.gen_range(0..8);
        let scaling: Vec<(usize, u64, u64)> = (0..rng.gen_range(0..5))
            .map(|_| {
                // Degenerate points (zero NPUs, zero cycles) are in-domain
                // on purpose: `efficiency` must be total over them.
                (rng.gen_range(0..9), rng.gen_range(0..100_001), rng.gen_range(0..10_001))
            })
            .collect();
        let eff_index = rng.gen_range(0..6);

        CheckCase {
            seed,
            workload,
            cfg,
            tenants,
            spatial,
            max_batch,
            corrupt,
            conv_index,
            scaling,
            eff_index,
        }
    }

    /// One-line human summary, printed with failures and after shrinking.
    pub fn summary(&self) -> String {
        let n = &self.cfg.npu;
        let l1 = match &n.l1_cache {
            Some(l1) => format!("{}K/{}w", l1.size_bytes / 1024, l1.ways),
            None => "off".into(),
        };
        format!(
            "{} on {}c {}x{}sa*{} v{}x{} spad{}K l1:{} dram{}ch/q{} noc:{:?}/f{}/p{}{} \
             tenants={} {} max_batch={}",
            self.workload,
            n.cores,
            n.systolic_rows,
            n.systolic_cols,
            n.systolic_arrays_per_core,
            n.vector_units,
            n.vector_lanes,
            n.scratchpad_bytes / 1024,
            l1,
            self.cfg.dram.channels,
            self.cfg.dram.queue_depth,
            self.cfg.noc.kind,
            self.cfg.noc.flit_bytes,
            self.cfg.noc.port_links,
            if self.cfg.noc.chiplet.is_some() { "/chiplet" } else { "" },
            self.tenants.len(),
            if self.spatial { "spatial" } else { "temporal" },
            self.max_batch,
        )
    }
}

/// Draws a valid machine configuration around [`SimConfig::tiny`]'s scale:
/// every subsystem is mutated, but dimensions stay small enough that a case
/// simulates in milliseconds.
fn random_config(rng: &mut Rng) -> SimConfig {
    let mut cfg = SimConfig::tiny();
    cfg.npu.cores = pick(rng, &[1, 1, 2, 2, 4]);
    let sa = pick(rng, &[4, 8, 8, 16]);
    cfg.npu.systolic_rows = sa;
    cfg.npu.systolic_cols = sa;
    cfg.npu.systolic_arrays_per_core = pick(rng, &[1, 1, 2]);
    cfg.npu.vector_units = pick(rng, &[2, 4, 8]);
    cfg.npu.vector_lanes = pick(rng, &[4, 8]);
    // The vector unit must span a logical output row of the (possibly
    // ganged) systolic array, or validation rejects the machine.
    while cfg.npu.total_vector_lanes() < cfg.npu.logical_sa_cols() {
        cfg.npu.vector_units *= 2;
    }
    cfg.npu.scratchpad_bytes = pick(rng, &[64, 128, 256]) * 1024;
    cfg.npu.dma_queue_depth = pick(rng, &[2, 4, 8]);
    cfg.npu.dma_issue_cycles = pick(rng, &[4, 12]);
    cfg.npu.l1_cache = match rng.gen_range(0..5) {
        0 => Some(L1CacheConfig::kib_128()),
        1 => Some(L1CacheConfig { size_bytes: 16 * 1024, line_bytes: 64, ways: 2, hit_latency: 2 }),
        _ => None,
    };

    cfg.dram = DramConfig {
        channels: pick(rng, &[1, 2, 4]),
        banks_per_channel: pick(rng, &[4, 8, 16]),
        queue_depth: pick(rng, &[8, 16, 32]),
        scheduler: if rng.gen_bool(0.5) {
            MemSchedulerPolicy::FrFcfs
        } else {
            MemSchedulerPolicy::Fcfs
        },
        ..DramConfig::hbm2_tpu_v3()
    };

    cfg.noc = NocConfig {
        kind: if rng.gen_bool(0.5) { NocKind::Simple } else { NocKind::Crossbar },
        flit_bytes: pick(rng, &[16, 32]),
        latency_cycles: pick(rng, &[2, 4, 8]),
        bytes_per_cycle: pick(rng, &[256, 512, 1024]),
        port_links: pick(rng, &[8, 16, 32]),
        chiplet: None,
    };
    // Chiplet partitioning only makes sense with cores to split.
    if cfg.npu.cores >= 2 && rng.gen_bool(0.15) {
        cfg.noc.chiplet = Some(ChipletLinkConfig::paper_two_chiplets());
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_replay_bit_identically() {
        for seed in [0, 1, 7, 42, 0xDEAD_BEEF] {
            assert_eq!(CheckCase::from_seed(seed), CheckCase::from_seed(seed), "seed {seed}");
        }
    }

    #[test]
    fn generated_configs_are_always_valid() {
        for seed in 0..200 {
            let case = CheckCase::from_seed(seed);
            case.cfg.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!case.tenants.is_empty());
        }
    }

    #[test]
    fn every_corruption_is_rejected_by_validate() {
        let cfg = SimConfig::tiny();
        for corrupt in Corruption::ALL {
            let bad = corrupt.apply(&cfg);
            assert!(bad.validate().is_err(), "{corrupt:?} must invalidate the config");
        }
    }

    #[test]
    fn seeds_diversify_cases() {
        let distinct: std::collections::HashSet<String> =
            (0..64).map(|s| CheckCase::from_seed(s).summary()).collect();
        assert!(distinct.len() > 48, "only {} distinct cases in 64 seeds", distinct.len());
    }
}
