//! PyTorchSim-rs — a comprehensive, fast, and accurate NPU simulation
//! framework, reproducing *PyTorchSim* (MICRO 2025) in pure Rust.
//!
//! The [`Simulator`] facade ties the full stack together:
//!
//! 1. models are captured as computation graphs ([`ptsim_graph`], the
//!    PyTorch-2 frontend analog) with ahead-of-time autodiff for training;
//! 2. the compiler backend ([`ptsim_compiler`]) tiles each operator,
//!    generates RISC-V-flavoured NPU kernels ([`ptsim_isa`]), measures
//!    their deterministic latencies on the cycle-accurate core model
//!    ([`ptsim_timingsim`], the Gem5 analog), and emits a Tile Operation
//!    Graph ([`ptsim_tog`]);
//! 3. TOGSim ([`ptsim_togsim`]) replays the TOG at tile granularity while
//!    DRAM ([`ptsim_dram`]) and the interconnect ([`ptsim_noc`]) are
//!    simulated cycle-accurately online — the paper's Tile-Level
//!    Simulation;
//! 4. the functional simulator ([`ptsim_funcsim`], the Spike analog)
//!    validates compiled kernels against the eager reference and extracts
//!    data-dependent latencies for sparse tiles ([`ptsim_sparse`]).
//!
//! # Examples
//!
//! ```
//! use ptsim_common::config::SimConfig;
//! use pytorchsim::{RunOptions, Simulator};
//!
//! let sim = Simulator::new(SimConfig::tiny());
//! let report = sim.run(&ptsim_models::gemm(32), RunOptions::tls())?;
//! assert!(report.total_cycles > 0);
//! # Ok::<(), ptsim_common::Error>(())
//! ```
//!
//! Sweeps of many (model × config × options × fidelity) points run through
//! the parallel [`sweep`] harness, which shares one [`CompileCache`] across
//! worker threads:
//!
//! ```
//! use ptsim_common::config::SimConfig;
//! use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
//!
//! let mut sweep = Sweep::new();
//! sweep.push(SweepPoint::model(ptsim_models::gemm(16), SimConfig::tiny()));
//! sweep.push(SweepPoint::model(ptsim_models::gemm(32), SimConfig::tiny()));
//! let report = sweep.run(&SweepOptions::with_jobs(2))?;
//! assert_eq!(report.cache.compiles, 2);
//! # Ok::<(), ptsim_common::Error>(())
//! ```

pub mod cache;
pub mod distributed;
pub mod runspec;
pub mod simulator;
pub mod sweep;
pub mod training;

pub use cache::{CacheKey, CompileCache, CompileCacheStats, StageStats};
pub use distributed::{ClusterConfig, ClusterIteration, ClusterSim, ScalingReport};
pub use ptsim_togsim::ExecutionBackend;
pub use runspec::{FidelitySpec, ModelRequest, RunSpec};
pub use simulator::{RunOptions, Simulator};
pub use sweep::{Sweep, SweepOptions, SweepPoint, SweepReport};
pub use training::{train_mlp, training_spec, TrainingRun};

// Compile-time thread-safety audit: everything the sweep harness shares
// across worker threads (or moves into them) must be Send + Sync. A type
// regressing here (e.g. an Rc or RefCell sneaking into a report) fails the
// build instead of failing deep inside `std::thread::scope`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulator>();
    assert_send_sync::<RunOptions>();
    assert_send_sync::<CompileCache>();
    assert_send_sync::<Sweep>();
    assert_send_sync::<SweepReport>();
    assert_send_sync::<TrainingRun>();
    assert_send_sync::<ClusterSim>();
    assert_send_sync::<ptsim_compiler::CompiledModel>();
    assert_send_sync::<ptsim_tog::ExecutableTog>();
    assert_send_sync::<ptsim_togsim::SimReport>();
    assert_send_sync::<ptsim_trace::Tracer>();
};

// Re-export the workspace's public surface for downstream users.
pub use ptsim_baselines as baselines;
pub use ptsim_common as common;
pub use ptsim_compiler as compiler;
pub use ptsim_dram as dram;
pub use ptsim_funcsim as funcsim;
pub use ptsim_graph as graph;
pub use ptsim_isa as isa;
pub use ptsim_models as models;
pub use ptsim_noc as noc;
pub use ptsim_obs as obs;
pub use ptsim_scheduler as scheduler;
pub use ptsim_sparse as sparse;
pub use ptsim_tensor as tensor;
pub use ptsim_timingsim as timingsim;
pub use ptsim_tog as tog;
pub use ptsim_togsim as togsim;
pub use ptsim_trace as trace;
