//! Hardware and simulation configuration.
//!
//! The default preset, [`NpuConfig::tpu_v3`], mirrors the validation target
//! of the paper (§4.1): two cores at 940 MHz, each with two 128×128 systolic
//! arrays, 128 vector units of 16 lanes, 16 MiB of scratchpad, and four HBM2
//! stacks totalling 960 GB/s behind a crossbar NoC with 256-bit flits.

use crate::cycles::{ns_to_cycles, Cycle};
use crate::error::{Error, Result};
use crate::json_record;
use std::fmt::Display;

// Bounds of `SimConfig::validate`. Each value sizes an allocation, a loop
// or a cycle count, and each bound is at least 16x the largest value any
// preset, figure, example, test or `ptsim check` case uses.

/// Largest count: cores, DRAM channels, banks and queue depths, NoC port
/// links, chiplets, systolic and vector dimensions, L1 ways and sets.
pub const MAX_COUNT: usize = 4096;
/// Largest product of counts that sizes one allocation: total vector
/// lanes, logical systolic columns and DRAM banks across channels.
pub const MAX_UNITS: usize = 1 << 16;
/// Largest byte size or per-cycle byte rate (256 MiB).
pub const MAX_BYTES: u64 = 1 << 28;
/// Largest fixed latency, cycles: NoC zero-load, DMA issue and L1 hit.
pub const MAX_LATENCY_CYCLES: u64 = 1 << 20;
/// Largest timing, ns: each DRAM timing and the chiplet link latency.
pub const MAX_TIMING_NS: f64 = 1e6;
/// Largest core clock, MHz.
pub const MAX_FREQ_MHZ: f64 = 1e5;

/// Checks `lo <= value <= hi`; NaN fails.
fn bounded<T: PartialOrd + Display>(what: &str, value: T, lo: T, hi: T) -> Result<()> {
    if lo <= value && value <= hi {
        Ok(())
    } else {
        Err(Error::InvalidConfig(format!("{what} must be in {lo}..={hi}, got {value}")))
    }
}

fn count(what: &str, value: usize) -> Result<()> {
    bounded(what, value, 1, MAX_COUNT)
}

fn bytes(what: &str, value: u64) -> Result<()> {
    bounded(what, value, 1, MAX_BYTES)
}

fn power_of_two(what: &str, value: u64) -> Result<()> {
    bytes(what, value)?;
    if value.is_power_of_two() {
        Ok(())
    } else {
        Err(Error::InvalidConfig(format!("{what} must be a power of two, got {value}")))
    }
}

/// Granularity at which the compiler decomposes tensor DMAs (§3.6.3, §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DmaGranularity {
    /// One DMA per tensor tile (baseline).
    Coarse,
    /// Tile DMAs split into systolic-array-sized sub-transfers so compute can
    /// begin as soon as its first operand rows arrive.
    Fine,
    /// Fine-grained DMA, but disabled for tensors large enough that the loss
    /// of DRAM row-buffer locality outweighs the overlap gain (SFG-DMA).
    #[default]
    SelectiveFine,
}

/// DRAM command scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemSchedulerPolicy {
    /// First-ready, first-come-first-served: prefers row-buffer hits.
    #[default]
    FrFcfs,
    /// Strict arrival order.
    Fcfs,
}

/// Cycle-accurate DRAM model configuration (Ramulator 2 analog).
///
/// The model runs in the NPU core clock domain; `bytes_per_cycle_per_channel`
/// is the data-bus width seen at that clock. The TPUv3 preset achieves
/// 960 GB/s = 16 channels × 64 B/cycle × 940 MHz.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent (pseudo-)channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size per bank, in bytes.
    pub row_bytes: u64,
    /// Size of one memory transaction, in bytes.
    pub transaction_bytes: u64,
    /// Data-bus bytes transferred per core cycle per channel.
    pub bytes_per_cycle_per_channel: u64,
    /// CAS latency, ns.
    pub t_cl_ns: f64,
    /// RAS-to-CAS delay, ns.
    pub t_rcd_ns: f64,
    /// Row-active time, ns.
    pub t_ras_ns: f64,
    /// Write recovery, ns.
    pub t_wr_ns: f64,
    /// Row precharge, ns.
    pub t_rp_ns: f64,
    /// Per-channel request queue depth.
    pub queue_depth: usize,
    /// Command scheduling policy.
    pub scheduler: MemSchedulerPolicy,
}

impl DramConfig {
    /// HBM2 configuration matching the paper's TPUv3 setup (four stacks,
    /// 960 GB/s aggregate, tCL/tRCD/tRAS/tWR/tRP = 8/8/18/8/8 ns).
    pub fn hbm2_tpu_v3() -> Self {
        DramConfig {
            channels: 16,
            banks_per_channel: 16,
            row_bytes: 2048,
            transaction_bytes: 64,
            bytes_per_cycle_per_channel: 64,
            t_cl_ns: 8.0,
            t_rcd_ns: 8.0,
            t_ras_ns: 18.0,
            t_wr_ns: 8.0,
            t_rp_ns: 8.0,
            queue_depth: 32,
            scheduler: MemSchedulerPolicy::FrFcfs,
        }
    }

    /// Total peak bandwidth in bytes per core cycle.
    pub fn peak_bytes_per_cycle(&self) -> u64 {
        self.channels as u64 * self.bytes_per_cycle_per_channel
    }

    /// Total peak bandwidth in GB/s at the given core frequency.
    pub fn peak_gbps(&self, freq_mhz: f64) -> f64 {
        self.peak_bytes_per_cycle() as f64 * freq_mhz * 1e6 / 1e9
    }

    /// Converts a timing parameter from nanoseconds to core cycles.
    pub fn timing_cycles(&self, ns: f64, freq_mhz: f64) -> u64 {
        ns_to_cycles(ns, freq_mhz)
    }

    /// Validates internal consistency and the `MAX_*` bounds.
    pub fn validate(&self) -> Result<()> {
        count("dram channels", self.channels)?;
        count("dram banks per channel", self.banks_per_channel)?;
        count("dram queue depth", self.queue_depth)?;
        bounded("dram banks", self.channels * self.banks_per_channel, 1, MAX_UNITS)?;
        power_of_two("dram transaction bytes", self.transaction_bytes)?;
        bounded("dram row bytes", self.row_bytes, self.transaction_bytes, MAX_BYTES)?;
        bytes("dram bus width", self.bytes_per_cycle_per_channel)?;
        for (what, ns) in [
            ("dram tCL", self.t_cl_ns),
            ("dram tRCD", self.t_rcd_ns),
            ("dram tRAS", self.t_ras_ns),
            ("dram tWR", self.t_wr_ns),
            ("dram tRP", self.t_rp_ns),
        ] {
            bounded(what, ns, 0.0, MAX_TIMING_NS)?;
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::hbm2_tpu_v3()
    }
}

/// Interconnect fidelity selector (§4.1: PyTorchSim-SN vs PyTorchSim-CN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NocKind {
    /// Simple latency–bandwidth network model (SN).
    Simple,
    /// Cycle-accurate flit-level crossbar (CN, Booksim analog).
    #[default]
    Crossbar,
}

/// Configuration of an off-chip chiplet-to-chiplet link (§5.4).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipletLinkConfig {
    /// Number of chiplets; cores and DRAM channels are split evenly.
    pub chiplets: usize,
    /// Link bandwidth **per direction**, bytes per core cycle.
    pub link_bytes_per_cycle: u64,
    /// Link one-way latency, ns.
    pub link_latency_ns: f64,
}

impl ChipletLinkConfig {
    /// The paper's §5.4 setup: two chiplets, 64 GB/s aggregate (32 GB/s per
    /// direction) and 20 ns latency, at a 940 MHz core clock.
    pub fn paper_two_chiplets() -> Self {
        ChipletLinkConfig {
            chiplets: 2,
            // 32 GB/s per direction at 940 MHz = ~34 B/cycle.
            link_bytes_per_cycle: 34,
            link_latency_ns: 20.0,
        }
    }
}

/// Interconnect configuration (Booksim analog).
#[derive(Debug, Clone, PartialEq)]
pub struct NocConfig {
    /// Fidelity of the on-chip network model.
    pub kind: NocKind,
    /// Flit width in bytes (paper: 256-bit flits).
    pub flit_bytes: u64,
    /// Zero-load latency of the on-chip network, cycles.
    pub latency_cycles: u64,
    /// Per-port bandwidth of the simple model, bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Parallel flit links per port in the crossbar model. A core port must
    /// sink the aggregate DRAM stream (~1 KiB/cycle for TPUv3), so ports are
    /// multi-link: 32 links x 32 B flits = 1 KiB/cycle.
    pub port_links: u64,
    /// Optional chiplet partitioning with an off-chip link.
    pub chiplet: Option<ChipletLinkConfig>,
}

impl NocConfig {
    /// Crossbar NoC with 256-bit flits, as assumed in §4.1.
    pub fn crossbar_tpu_v3() -> Self {
        NocConfig {
            kind: NocKind::Crossbar,
            flit_bytes: 32,
            latency_cycles: 4,
            bytes_per_cycle: 1024,
            port_links: 32,
            chiplet: None,
        }
    }

    /// Simple latency-bandwidth network (SN).
    pub fn simple() -> Self {
        NocConfig { kind: NocKind::Simple, ..Self::crossbar_tpu_v3() }
    }

    /// Validates internal consistency and the `MAX_*` bounds.
    pub fn validate(&self) -> Result<()> {
        bytes("noc flit bytes", self.flit_bytes)?;
        bytes("noc port bandwidth", self.bytes_per_cycle)?;
        bounded("noc port links", self.port_links, 1, MAX_COUNT as u64)?;
        bounded("noc latency", self.latency_cycles, 0, MAX_LATENCY_CYCLES)?;
        if let Some(ch) = &self.chiplet {
            bounded("chiplets", ch.chiplets, 2, MAX_COUNT)?;
            bytes("chiplet link bandwidth", ch.link_bytes_per_cycle)?;
            bounded("chiplet link latency", ch.link_latency_ns, 0.0, MAX_TIMING_NS)?;
        }
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        Self::crossbar_tpu_v3()
    }
}

/// Optional per-core L1 data cache in front of DRAM (§3.3.3: NPUs usually
/// use software-managed scratchpads, "however, it is still possible to
/// model L1 caches by expressing cache accesses as nodes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1CacheConfig {
    /// Total capacity, bytes.
    pub size_bytes: u64,
    /// Line size, bytes (typically the DRAM transaction size).
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency, cycles.
    pub hit_latency: u64,
}

impl L1CacheConfig {
    /// A 128 KiB, 8-way cache with 64 B lines and 4-cycle hits.
    pub fn kib_128() -> Self {
        L1CacheConfig { size_bytes: 128 * 1024, line_bytes: 64, ways: 8, hit_latency: 4 }
    }

    /// Number of sets. Degenerate geometries (zero line size or
    /// associativity, rejected by [`L1CacheConfig::validate`]) saturate to
    /// one set instead of dividing by zero.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64).max(1)).max(1) as usize
    }

    /// Validates internal consistency and the `MAX_*` bounds.
    pub fn validate(&self) -> Result<()> {
        count("l1 ways", self.ways)?;
        power_of_two("l1 line bytes", self.line_bytes)?;
        bounded("l1 bytes", self.size_bytes, self.line_bytes * self.ways as u64, MAX_BYTES)?;
        count("l1 sets", self.sets())?;
        bounded("l1 hit latency", self.hit_latency, 1, MAX_LATENCY_CYCLES)
    }
}

/// NPU core/microarchitecture configuration (§3.3, Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub struct NpuConfig {
    /// Number of NPU cores.
    pub cores: usize,
    /// Core clock, MHz.
    pub freq_mhz: f64,
    /// Systolic array rows (weight dimension).
    pub systolic_rows: usize,
    /// Systolic array columns (output dimension).
    pub systolic_cols: usize,
    /// Number of systolic arrays per core.
    pub systolic_arrays_per_core: usize,
    /// Number of vector units per core.
    pub vector_units: usize,
    /// SIMD lanes per vector unit.
    pub vector_lanes: usize,
    /// Software-managed scratchpad capacity per core, bytes.
    pub scratchpad_bytes: u64,
    /// Tensor element size, bytes (fp32 = 4).
    pub element_bytes: u64,
    /// Maximum outstanding DMA descriptors per core.
    pub dma_queue_depth: usize,
    /// Fixed overhead of issuing one DMA descriptor, cycles (scalar unit +
    /// address generation; the 4D engine amortizes this per §3.6.3).
    pub dma_issue_cycles: u64,
    /// Optional per-core L1 data cache in front of DRAM. `None` (the
    /// default, like recent NPUs) uses the software-managed scratchpad
    /// only.
    pub l1_cache: Option<L1CacheConfig>,
}

impl NpuConfig {
    /// The Google TPUv3 validation target of §4.1 (one board, two cores).
    pub fn tpu_v3() -> Self {
        NpuConfig {
            cores: 2,
            freq_mhz: 940.0,
            systolic_rows: 128,
            systolic_cols: 128,
            systolic_arrays_per_core: 2,
            vector_units: 128,
            vector_lanes: 16,
            scratchpad_bytes: 16 * 1024 * 1024,
            element_bytes: 4,
            dma_queue_depth: 16,
            dma_issue_cycles: 12,
            l1_cache: None,
        }
    }

    /// A single-core variant of [`NpuConfig::tpu_v3`], used for accuracy
    /// validation exactly as in the paper ("we used only a single NPU core").
    pub fn tpu_v3_single_core() -> Self {
        NpuConfig { cores: 1, ..Self::tpu_v3() }
    }

    /// A small configuration for fast unit tests: one core, an 8×8 systolic
    /// array, 4 vector units × 4 lanes, 64 KiB scratchpad.
    pub fn tiny() -> Self {
        NpuConfig {
            cores: 1,
            freq_mhz: 940.0,
            systolic_rows: 8,
            systolic_cols: 8,
            systolic_arrays_per_core: 1,
            vector_units: 4,
            vector_lanes: 4,
            scratchpad_bytes: 64 * 1024,
            element_bytes: 4,
            dma_queue_depth: 4,
            dma_issue_cycles: 12,
            l1_cache: None,
        }
    }

    /// Peak multiply-accumulate operations per cycle per core.
    pub fn macs_per_cycle(&self) -> u64 {
        (self.systolic_rows * self.systolic_cols * self.systolic_arrays_per_core) as u64
    }

    /// Columns of the core's *logical* matrix unit: the per-core systolic
    /// arrays operate in lockstep on adjacent output columns, so the
    /// functional and timing models treat them as one array of
    /// `systolic_rows × (systolic_cols × arrays)`.
    pub fn logical_sa_cols(&self) -> usize {
        self.systolic_cols * self.systolic_arrays_per_core
    }

    /// Total vector lanes per core.
    pub fn total_vector_lanes(&self) -> usize {
        self.vector_units * self.vector_lanes
    }

    /// Converts a simulated time to seconds at this core's clock.
    pub fn cycles_to_secs(&self, t: Cycle) -> f64 {
        t.raw() as f64 / (self.freq_mhz * 1e6)
    }

    /// Validates internal consistency and the `MAX_*` bounds.
    pub fn validate(&self) -> Result<()> {
        count("npu cores", self.cores)?;
        count("systolic rows", self.systolic_rows)?;
        count("systolic columns", self.systolic_cols)?;
        count("systolic arrays per core", self.systolic_arrays_per_core)?;
        count("vector units", self.vector_units)?;
        count("vector lanes", self.vector_lanes)?;
        count("dma queue depth", self.dma_queue_depth)?;
        bounded("logical systolic columns", self.logical_sa_cols(), 1, MAX_UNITS)?;
        bounded("total vector lanes", self.total_vector_lanes(), 1, MAX_UNITS)?;
        if self.total_vector_lanes() < self.logical_sa_cols() {
            // The vector unit drains the systolic array's output FIFO one
            // row per register group: it must span a logical output row.
            return Err(Error::InvalidConfig(format!(
                "vector unit ({} lanes) is narrower than the logical systolic array \
                 ({} columns): output rows cannot be drained",
                self.total_vector_lanes(),
                self.logical_sa_cols()
            )));
        }
        bounded("scratchpad bytes", self.scratchpad_bytes, 4096, MAX_BYTES)?;
        bytes("tensor element bytes", self.element_bytes)?;
        bounded("dma issue latency", self.dma_issue_cycles, 0, MAX_LATENCY_CYCLES)?;
        if !(self.freq_mhz > 0.0 && self.freq_mhz <= MAX_FREQ_MHZ) {
            return Err(Error::InvalidConfig(format!(
                "core clock must be in (0, {MAX_FREQ_MHZ}] MHz, got {}",
                self.freq_mhz
            )));
        }
        if let Some(l1) = &self.l1_cache {
            l1.validate()?;
        }
        Ok(())
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self::tpu_v3()
    }
}

/// Top-level simulation configuration bundling every subsystem.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimConfig {
    /// NPU core configuration.
    pub npu: NpuConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Interconnect configuration.
    pub noc: NocConfig,
}

impl SimConfig {
    /// The paper's TPUv3 validation configuration.
    pub fn tpu_v3() -> Self {
        SimConfig {
            npu: NpuConfig::tpu_v3(),
            dram: DramConfig::hbm2_tpu_v3(),
            noc: NocConfig::crossbar_tpu_v3(),
        }
    }

    /// Single-core TPUv3, as used for Fig. 5 accuracy validation.
    pub fn tpu_v3_single_core() -> Self {
        SimConfig { npu: NpuConfig::tpu_v3_single_core(), ..Self::tpu_v3() }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        SimConfig {
            npu: NpuConfig::tiny(),
            dram: DramConfig { channels: 2, ..DramConfig::hbm2_tpu_v3() },
            noc: NocConfig::simple(),
        }
    }

    /// Validates every subsystem. Every build/run entry point of the
    /// simulation facade (`Simulator` and the `ClusterSim` and sweep
    /// harness built on it) calls this before touching the engine, so a
    /// degenerate value (`flit_bytes = 0`, `ways = 0`, ...) surfaces as
    /// [`Error::InvalidConfig`] instead of garbage cycles or a panic deep
    /// inside a component model.
    pub fn validate(&self) -> Result<()> {
        self.npu.validate()?;
        self.dram.validate()?;
        self.noc.validate()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Compile-stage config projections.
//
// The compiler pipeline caches each stage by a fingerprint over *only the
// configuration fields that stage reads*. The projection types below are
// the single source of truth for that read set: a stage key built from a
// projection provably cannot change when an unrelated subsystem (DRAM
// timing, NoC topology) is swept, which is what lets DRAM/NoC parameter
// sweeps reuse every kernel measurement and compiled model.
// ---------------------------------------------------------------------

/// The [`NpuConfig`] fields the kernel codegen + offline timing stage
/// reads.
///
/// Kernel generation (`ptsim-compiler`'s `KernelGen`) reads the systolic
/// array geometry and the total vector width; the cycle-accurate kernel
/// timing model (`ptsim-timingsim`) additionally reads the vector unit
/// count and the DMA issue overhead; tiling reads the scratchpad capacity.
/// Nothing in the kernel stage reads [`DramConfig`] or [`NocConfig`]:
/// measured tile latencies are valid across every memory-system variant
/// (the paper's §3.8 reuse "across different scenarios and HW
/// configurations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelConfigProjection {
    /// Systolic array rows.
    pub systolic_rows: usize,
    /// Systolic array columns.
    pub systolic_cols: usize,
    /// Systolic arrays per core (they form one logical array).
    pub systolic_arrays_per_core: usize,
    /// Vector units per core.
    pub vector_units: usize,
    /// SIMD lanes per vector unit.
    pub vector_lanes: usize,
    /// Scratchpad capacity, bytes (bounds tile sizes).
    pub scratchpad_bytes: u64,
    /// DMA descriptor issue overhead, cycles (timing model parameter).
    pub dma_issue_cycles: u64,
}

impl KernelConfigProjection {
    /// Content fingerprint of this projection (stage-tagged).
    pub fn fingerprint(&self) -> u64 {
        crate::fingerprint::Fnv::new()
            .str("kernel-projection-v1")
            .usize(self.systolic_rows)
            .usize(self.systolic_cols)
            .usize(self.systolic_arrays_per_core)
            .usize(self.vector_units)
            .usize(self.vector_lanes)
            .u64(self.scratchpad_bytes)
            .u64(self.dma_issue_cycles)
            .finish()
    }
}

/// The configuration the fusion + tiling/layout planning stage reads: the
/// kernel projection (tiling is bounded by the same geometry) plus — only
/// when autotuning is on — the peak DRAM bandwidth used to score candidate
/// M-tiles. With autotuning off, a plan is reusable across every DRAM and
/// NoC variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanConfigProjection {
    /// The kernel-stage projection (geometry + scratchpad).
    pub kernel: KernelConfigProjection,
    /// `Some(peak bytes/cycle)` when the autotuner's DMA-cost model reads
    /// it; `None` when the plan is DRAM-independent.
    pub dram_peak_bytes_per_cycle: Option<u64>,
}

impl PlanConfigProjection {
    /// Content fingerprint of this projection (stage-tagged).
    pub fn fingerprint(&self) -> u64 {
        let mut f = crate::fingerprint::Fnv::new().str("plan-projection-v1");
        f.write_u64(self.kernel.fingerprint());
        match self.dram_peak_bytes_per_cycle {
            Some(bw) => {
                f.write_u64(1);
                f.write_u64(bw);
            }
            None => f.write_u64(0),
        }
        f.finish()
    }
}

/// The configuration the whole compile (plan + TOG emission) reads: the
/// plan projection plus the core count the emitted TOG partitions work
/// across. This is the config component of a compiled model's cache key —
/// deliberately *not* the full [`SimConfig`], so models survive DRAM/NoC
/// sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileConfigProjection {
    /// The planning-stage projection.
    pub plan: PlanConfigProjection,
    /// NPU cores the TOG partitions work across.
    pub cores: usize,
}

impl CompileConfigProjection {
    /// Content fingerprint of this projection (stage-tagged).
    pub fn fingerprint(&self) -> u64 {
        crate::fingerprint::Fnv::new()
            .str("compile-projection-v1")
            .u64(self.plan.fingerprint())
            .usize(self.cores)
            .finish()
    }
}

impl NpuConfig {
    /// The projection of this config the kernel codegen/timing stage
    /// reads. See [`KernelConfigProjection`].
    pub fn kernel_projection(&self) -> KernelConfigProjection {
        KernelConfigProjection {
            systolic_rows: self.systolic_rows,
            systolic_cols: self.systolic_cols,
            systolic_arrays_per_core: self.systolic_arrays_per_core,
            vector_units: self.vector_units,
            vector_lanes: self.vector_lanes,
            scratchpad_bytes: self.scratchpad_bytes,
            dma_issue_cycles: self.dma_issue_cycles,
        }
    }
}

impl SimConfig {
    /// The projection the planning stage reads. `autotune` states whether
    /// the compiler's M-tile autotuner is on — the only compile path that
    /// reads DRAM state (its peak bandwidth).
    pub fn plan_projection(&self, autotune: bool) -> PlanConfigProjection {
        PlanConfigProjection {
            kernel: self.npu.kernel_projection(),
            dram_peak_bytes_per_cycle: autotune.then(|| self.dram.peak_bytes_per_cycle()),
        }
    }

    /// The projection a whole compilation reads (plan + emission).
    pub fn compile_projection(&self, autotune: bool) -> CompileConfigProjection {
        CompileConfigProjection { plan: self.plan_projection(autotune), cores: self.npu.cores }
    }
}

// JSON round-trips: every consumer that moves configs over a wire
// (`ptsim-serve`, the report bins) goes through [`ToJson`]/[`FromJson`],
// keyed by field name in the order listed here.

json_record!(
    enum DmaGranularity {
        Coarse,
        Fine,
        SelectiveFine,
    }
);
json_record!(
    enum MemSchedulerPolicy {
        FrFcfs,
        Fcfs,
    }
);
json_record!(
    enum NocKind {
        Simple,
        Crossbar,
    }
);
json_record!(DramConfig {
    channels,
    banks_per_channel,
    row_bytes,
    transaction_bytes,
    bytes_per_cycle_per_channel,
    t_cl_ns,
    t_rcd_ns,
    t_ras_ns,
    t_wr_ns,
    t_rp_ns,
    queue_depth,
    scheduler,
});
json_record!(ChipletLinkConfig { chiplets, link_bytes_per_cycle, link_latency_ns });
json_record!(NocConfig { kind, flit_bytes, latency_cycles, bytes_per_cycle, port_links, chiplet });
json_record!(L1CacheConfig { size_bytes, line_bytes, ways, hit_latency });
json_record!(NpuConfig {
    cores,
    freq_mhz,
    systolic_rows,
    systolic_cols,
    systolic_arrays_per_core,
    vector_units,
    vector_lanes,
    scratchpad_bytes,
    element_bytes,
    dma_queue_depth,
    dma_issue_cycles,
    l1_cache,
});
json_record!(SimConfig { npu, dram, noc });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, Json, ToJson};

    #[test]
    fn tpu_v3_matches_paper_numbers() {
        let c = SimConfig::tpu_v3();
        assert_eq!(c.npu.cores, 2);
        assert_eq!(c.npu.systolic_rows, 128);
        assert_eq!(c.npu.systolic_arrays_per_core, 2);
        assert_eq!(c.npu.vector_units, 128);
        assert_eq!(c.npu.vector_lanes, 16);
        assert_eq!(c.npu.scratchpad_bytes, 16 << 20);
        // 960 GB/s aggregate HBM2 bandwidth (within a few percent).
        let gbps = c.dram.peak_gbps(c.npu.freq_mhz);
        assert!((gbps - 960.0).abs() < 5.0, "got {gbps} GB/s");
        c.validate().unwrap();
    }

    #[test]
    fn macs_per_cycle_counts_both_arrays() {
        let c = NpuConfig::tpu_v3();
        assert_eq!(c.macs_per_cycle(), 2 * 128 * 128);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = NpuConfig::tiny();
        c.cores = 0;
        assert!(c.validate().is_err());
        let mut d = DramConfig::hbm2_tpu_v3();
        d.transaction_bytes = 3;
        assert!(d.validate().is_err());
    }

    #[test]
    fn vector_unit_narrower_than_the_logical_array_is_rejected() {
        // The kernel generator drains one logical output row per vector
        // register group; a machine whose vector unit cannot span it used
        // to pass validation and then die mid-compile with `Unsupported`.
        let mut c = NpuConfig::tiny();
        c.systolic_cols = 16;
        c.systolic_arrays_per_core = 2; // 32 logical columns
        c.vector_units = 2;
        c.vector_lanes = 8; // 16 lanes
        assert!(c.validate().is_err());
        c.vector_units = 4; // 32 lanes: exactly spans the row
        assert!(c.validate().is_ok());
    }

    #[test]
    fn degenerate_noc_configs_are_rejected() {
        let mut n = NocConfig::crossbar_tpu_v3();
        n.flit_bytes = 0;
        assert!(n.validate().is_err());
        let mut n = NocConfig::simple();
        n.bytes_per_cycle = 0;
        assert!(n.validate().is_err());
        let mut n = NocConfig::crossbar_tpu_v3();
        n.port_links = 0;
        assert!(n.validate().is_err());
        let mut n = NocConfig::crossbar_tpu_v3();
        n.chiplet =
            Some(ChipletLinkConfig { chiplets: 1, ..ChipletLinkConfig::paper_two_chiplets() });
        assert!(n.validate().is_err());
        assert!(NocConfig::crossbar_tpu_v3().validate().is_ok());
    }

    #[test]
    fn degenerate_l1_configs_are_rejected_and_sets_never_divides_by_zero() {
        let mut l1 = L1CacheConfig::kib_128();
        assert!(l1.validate().is_ok());
        l1.ways = 0;
        assert!(l1.validate().is_err());
        // The guarded division: a zero-way geometry saturates instead of
        // panicking (the pre-validation code path that motivated the guard).
        assert!(l1.sets() >= 1);
        let mut l1 = L1CacheConfig::kib_128();
        l1.line_bytes = 0;
        assert!(l1.validate().is_err());
        assert!(l1.sets() >= 1);
        let mut l1 = L1CacheConfig::kib_128();
        l1.size_bytes = 64;
        assert!(l1.validate().is_err());
    }

    #[test]
    fn sim_config_validation_covers_every_subsystem() {
        let mut c = SimConfig::tiny();
        c.noc.flit_bytes = 0;
        assert!(c.validate().is_err(), "noc must be validated");
        let mut c = SimConfig::tiny();
        c.npu.l1_cache = Some(L1CacheConfig { ways: 0, ..L1CacheConfig::kib_128() });
        assert!(c.validate().is_err(), "l1 must be validated");
        let mut c = SimConfig::tiny();
        c.dram.queue_depth = 0;
        assert!(c.validate().is_err(), "dram queue must be validated");
        assert!(SimConfig::tiny().validate().is_ok());
        assert!(SimConfig::tpu_v3().validate().is_ok());

        // Values that size an allocation or a cycle count are bounded: each
        // of these used to pass and then abort the process, panic, or
        // report nonsense cycles.
        let mut full = SimConfig::tpu_v3();
        full.npu.l1_cache = Some(L1CacheConfig::kib_128());
        full.noc.chiplet = Some(ChipletLinkConfig::paper_two_chiplets());
        type Mutation = fn(&mut SimConfig);
        let hostile: [(&str, Mutation); 19] = [
            ("channels", |c| c.dram.channels = 1 << 40),
            ("banks", |c| c.dram.banks_per_channel = MAX_COUNT + 1),
            ("banks in total", |c| (c.dram.channels, c.dram.banks_per_channel) = (MAX_COUNT, 32)),
            ("dram queue", |c| c.dram.queue_depth = usize::MAX),
            ("tCL", |c| c.dram.t_cl_ns = 1e300),
            ("tRP", |c| c.dram.t_rp_ns = -50.0),
            ("tRAS", |c| c.dram.t_ras_ns = f64::NAN),
            ("cores", |c| c.npu.cores = MAX_COUNT + 1),
            ("systolic", |c| c.npu.systolic_rows = 1 << 20),
            ("vector lanes", |c| (c.npu.vector_units, c.npu.vector_lanes) = (MAX_COUNT, 32)),
            ("dma queue", |c| c.npu.dma_queue_depth = MAX_COUNT + 1),
            ("dma issue", |c| c.npu.dma_issue_cycles = MAX_LATENCY_CYCLES + 1),
            ("scratchpad", |c| c.npu.scratchpad_bytes = 1 << 40),
            ("clock", |c| c.npu.freq_mhz = f64::INFINITY),
            ("noc latency", |c| c.noc.latency_cycles = (1 << 53) - 1),
            ("port links", |c| c.noc.port_links = 1 << 32),
            ("l1 size", |c| c.npu.l1_cache.as_mut().unwrap().size_bytes = 1 << 40),
            ("l1 hit", |c| c.npu.l1_cache.as_mut().unwrap().hit_latency = u64::MAX),
            ("link latency", |c| c.noc.chiplet.as_mut().unwrap().link_latency_ns = 1e9),
        ];
        for (what, mutate) in hostile {
            let mut c = full.clone();
            mutate(&mut c);
            assert!(c.validate().is_err(), "{what} must be bounded");
        }
        // Each bound is at least 16x the largest value in use.
        let mut c = full;
        (c.dram.channels, c.npu.cores, c.npu.systolic_rows) = (16 * 64, 16 * 8, 16 * 128);
        (c.npu.vector_units, c.npu.scratchpad_bytes) = (16 * 128, 16 << 24);
        (c.dram.t_ras_ns, c.npu.dma_issue_cycles) = (16.0 * 1000.0, 16 * 24);
        assert!(c.validate().is_ok(), "{:?}", c.validate());
    }

    #[test]
    fn configs_serialize_round_trip() {
        // The ToJson/FromJson pair must round-trip bit-identically,
        // optional subtrees (L1 cache, chiplet link) included.
        let mut c = SimConfig::tpu_v3();
        let json = c.to_json_string();
        assert_eq!(SimConfig::from_json_str(&json).unwrap(), c);
        c.npu.l1_cache = Some(L1CacheConfig::kib_128());
        c.noc.chiplet = Some(ChipletLinkConfig::paper_two_chiplets());
        c.dram.scheduler = MemSchedulerPolicy::Fcfs;
        c.noc.kind = NocKind::Simple;
        assert_eq!(SimConfig::from_json_str(&c.to_json_string()).unwrap(), c);

        // Per key: change one leaf at a time. Parsing and re-rendering must
        // give back exactly that change, so no key is read into another
        // field (tpu_v3's tCL, tRCD, tWR and tRP are all 8 ns).
        let doc = c.to_json();
        let mut paths = Vec::new();
        leaf_paths(&doc, &mut Vec::new(), &mut paths);
        assert!(paths.contains(&vec!["npu", "l1_cache", "hit_latency"]), "{paths:?}");
        assert!(paths.contains(&vec!["noc", "chiplet", "link_latency_ns"]), "{paths:?}");
        for path in paths {
            let mut changed = doc.clone();
            let leaf = path.iter().fold(&mut changed, |d, key| match d {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                _ => unreachable!(),
            });
            *leaf = match leaf {
                Json::Num(n) => Json::Num(*n + 1.0),
                Json::Str(s) => Json::str(other_variant(s)),
                other => panic!("{path:?}: unexpected leaf {other:?}"),
            };
            assert_eq!(SimConfig::from_json(&changed).unwrap().to_json(), changed, "{path:?}");
        }
    }

    /// Every leaf of an object tree, as its key path.
    fn leaf_paths<'a>(doc: &'a Json, prefix: &mut Vec<&'a str>, out: &mut Vec<Vec<&'a str>>) {
        match doc {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    prefix.push(k);
                    leaf_paths(v, prefix, out);
                    prefix.pop();
                }
            }
            _ => out.push(prefix.clone()),
        }
    }

    /// Another variant of the same enum as `variant`.
    fn other_variant(variant: &str) -> &'static str {
        match variant {
            "FrFcfs" => "Fcfs",
            "Fcfs" => "FrFcfs",
            "Simple" => "Crossbar",
            "Crossbar" => "Simple",
            other => panic!("no alternative for {other}"),
        }
    }

    #[test]
    fn config_json_rejects_missing_and_mistyped_fields() {
        let mut doc = SimConfig::tiny().to_json();
        let Json::Obj(fields) = &mut doc else { panic!() };
        fields.retain(|(k, _)| k != "dram");
        let err = SimConfig::from_json(&doc).unwrap_err();
        assert!(err.contains("dram"), "{err}");
        let err = SimConfig::from_json_str("[1,2]").unwrap_err();
        assert!(err.contains("npu"), "{err}");
    }

    /// Every mutation of every [`DramConfig`] and [`NocConfig`] field,
    /// exercised against the stage projections: none of them may move the
    /// kernel-stage key (or the whole compile key when autotuning is off).
    /// This is the invalidation contract DRAM/NoC sweeps rely on to skip
    /// kernel re-measurement entirely.
    #[test]
    fn dram_and_noc_mutations_never_touch_the_kernel_stage_key() {
        let base = SimConfig::tpu_v3();
        let kfp = base.npu.kernel_projection().fingerprint();
        let cfp = base.compile_projection(false).fingerprint();

        let dram_variants: Vec<DramConfig> = vec![
            DramConfig { channels: 4, ..base.dram.clone() },
            DramConfig { banks_per_channel: 8, ..base.dram.clone() },
            DramConfig { row_bytes: 4096, ..base.dram.clone() },
            DramConfig { transaction_bytes: 128, ..base.dram.clone() },
            DramConfig { bytes_per_cycle_per_channel: 32, ..base.dram.clone() },
            DramConfig { t_cl_ns: 12.0, ..base.dram.clone() },
            DramConfig { t_rcd_ns: 12.0, ..base.dram.clone() },
            DramConfig { t_ras_ns: 24.0, ..base.dram.clone() },
            DramConfig { t_wr_ns: 12.0, ..base.dram.clone() },
            DramConfig { t_rp_ns: 12.0, ..base.dram.clone() },
            DramConfig { queue_depth: 64, ..base.dram.clone() },
            DramConfig { scheduler: MemSchedulerPolicy::Fcfs, ..base.dram.clone() },
        ];
        for (i, dram) in dram_variants.into_iter().enumerate() {
            let cfg = SimConfig { dram, ..base.clone() };
            assert_eq!(cfg.npu.kernel_projection().fingerprint(), kfp, "dram variant {i}");
            assert_eq!(cfg.compile_projection(false).fingerprint(), cfp, "dram variant {i}");
        }

        let noc_variants: Vec<NocConfig> = vec![
            NocConfig { kind: NocKind::Simple, ..base.noc.clone() },
            NocConfig { flit_bytes: 64, ..base.noc.clone() },
            NocConfig { latency_cycles: 16, ..base.noc.clone() },
            NocConfig { bytes_per_cycle: 512, ..base.noc.clone() },
            NocConfig { port_links: 16, ..base.noc.clone() },
            NocConfig {
                chiplet: Some(ChipletLinkConfig::paper_two_chiplets()),
                ..base.noc.clone()
            },
        ];
        for (i, noc) in noc_variants.into_iter().enumerate() {
            let cfg = SimConfig { noc, ..base.clone() };
            assert_eq!(cfg.npu.kernel_projection().fingerprint(), kfp, "noc variant {i}");
            assert_eq!(cfg.compile_projection(false).fingerprint(), cfp, "noc variant {i}");
        }
    }

    /// The fields the kernel stage *does* read must each invalidate its
    /// key: vector width (units and lanes), systolic-array dimensions, and
    /// scratchpad capacity — plus the DMA issue overhead the timing model
    /// reads.
    #[test]
    fn kernel_stage_fields_each_invalidate_the_key() {
        let base = NpuConfig::tpu_v3();
        let kfp = base.kernel_projection().fingerprint();
        let variants: Vec<(&str, NpuConfig)> = vec![
            ("systolic_rows", NpuConfig { systolic_rows: 64, ..base.clone() }),
            ("systolic_cols", NpuConfig { systolic_cols: 64, ..base.clone() }),
            ("systolic_arrays_per_core", NpuConfig { systolic_arrays_per_core: 1, ..base.clone() }),
            ("vector_units", NpuConfig { vector_units: 64, ..base.clone() }),
            ("vector_lanes", NpuConfig { vector_lanes: 32, ..base.clone() }),
            ("scratchpad_bytes", NpuConfig { scratchpad_bytes: 8 << 20, ..base.clone() }),
            ("dma_issue_cycles", NpuConfig { dma_issue_cycles: 24, ..base.clone() }),
        ];
        for (field, npu) in variants {
            assert_ne!(
                npu.kernel_projection().fingerprint(),
                kfp,
                "{field} must invalidate the kernel-stage key"
            );
        }
        // Fields the kernel stage does not read must not invalidate it.
        let same = NpuConfig {
            cores: 7,
            freq_mhz: 123.0,
            dma_queue_depth: 99,
            element_bytes: 2,
            l1_cache: Some(L1CacheConfig::kib_128()),
            ..base.clone()
        };
        assert_eq!(same.kernel_projection().fingerprint(), kfp);
    }

    /// The DRAM bandwidth gate: with autotuning on, the plan (and compile)
    /// key must track peak DRAM bandwidth; with it off, it must not. Core
    /// count affects only the compile (emission) key, never the plan.
    #[test]
    fn plan_projection_reads_dram_bandwidth_only_under_autotune() {
        let base = SimConfig::tpu_v3();
        let faster = SimConfig {
            dram: DramConfig { channels: base.dram.channels * 2, ..base.dram.clone() },
            ..base.clone()
        };
        assert_eq!(
            base.plan_projection(false).fingerprint(),
            faster.plan_projection(false).fingerprint()
        );
        assert_ne!(
            base.plan_projection(true).fingerprint(),
            faster.plan_projection(true).fingerprint()
        );

        let more_cores =
            SimConfig { npu: NpuConfig { cores: 4, ..base.npu.clone() }, ..base.clone() };
        assert_eq!(
            base.plan_projection(false).fingerprint(),
            more_cores.plan_projection(false).fingerprint(),
            "plan is core-count independent"
        );
        assert_ne!(
            base.compile_projection(false).fingerprint(),
            more_cores.compile_projection(false).fingerprint(),
            "emission partitions across cores"
        );
    }

    #[test]
    fn chiplet_link_preset_matches_paper() {
        let l = ChipletLinkConfig::paper_two_chiplets();
        assert_eq!(l.chiplets, 2);
        // 34 B/cycle * 940 MHz ~= 32 GB/s per direction.
        let gbps = l.link_bytes_per_cycle as f64 * 940.0e6 / 1e9;
        assert!((gbps - 32.0).abs() < 1.0);
    }
}
