//! TOGSim — the Tile-Level Simulation engine (§3.7–3.8).
//!
//! TOGSim executes expanded Tile Operation Graphs at high speed: tile
//! compute nodes use their offline-measured deterministic latencies, while
//! the non-deterministic parts — DMA transfers through the interconnect and
//! DRAM — are modelled *online* with the cycle-accurate [`ptsim_noc`] and
//! [`ptsim_dram`] simulators, exactly the paper's split. Multiple TOGs can
//! run concurrently on (partitions of) a multi-core NPU for multi-model
//! tenancy studies (§5.2). The instruction-level fidelity mode charges each
//! compute node its kernel's latency plus a fixed per-tile overhead; it is
//! Fig. 5's reference and the timing half of Fig. 6's ILS column.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::config::SimConfig;
//! use ptsim_tog::{AddrExpr, ExecUnit, TogBuilder, TogOpKind};
//! use ptsim_togsim::TogSim;
//!
//! let mut b = TogBuilder::new("one_tile");
//! let ld = b.node(TogOpKind::load(AddrExpr::new(0x1000), 256), &[]);
//! let w = b.node(TogOpKind::WaitDma { dma: ld }, &[]);
//! b.node(TogOpKind::compute("k", 100, ExecUnit::Matrix), &[w]);
//! let tog = b.finish().expand()?;
//!
//! let mut sim = TogSim::new(&SimConfig::tiny());
//! sim.add_job(tog, Default::default());
//! let report = sim.run()?;
//! assert!(report.total_cycles > 100);
//! # Ok::<(), ptsim_common::Error>(())
//! ```

pub mod cache;
pub mod engine;
pub mod report;

pub use cache::{CacheStats, L1Cache};
pub use engine::{ExecutionBackend, Fidelity, JobId, JobSpec, TogSim, ILS_PER_TILE_OVERHEAD};
pub use report::{JobReport, SimReport};
