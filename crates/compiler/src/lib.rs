//! The NPU compiler backend — the Inductor/MLIR-backend analog (§3.6).
//!
//! Given a captured computation graph, the compiler:
//!
//! 1. analyses fusion opportunities (GEMM/CONV epilogues, §3.6.3),
//! 2. plans tiling with a Gemmini-style scratchpad-maximizing heuristic and
//!    selects CONV tensor layouts (HWNC / HWC / HNWC),
//! 3. generates ISA tile kernels and measures their deterministic latencies
//!    offline on the cycle-accurate core timing model (§3.8),
//! 4. emits a flat Tile Operation Graph with double-buffered software
//!    pipelining, fine-grained DMA decomposition when profitable, and
//!    multi-core work partitioning, and
//! 5. records per-operator execution plans for the hybrid functional
//!    executor.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::config::SimConfig;
//! use ptsim_compiler::{Compiler, CompilerOptions};
//! use ptsim_graph::GraphBuilder;
//!
//! let mut g = GraphBuilder::new();
//! let x = g.input("x", [16, 16]);
//! let w = g.parameter("w", [16, 8]);
//! let y = g.matmul(x, w)?;
//! g.output(y);
//! let model = Compiler::new(SimConfig::tiny(), CompilerOptions::default())
//!     .compile(&g.finish(), "demo", 1)?;
//! assert!(!model.tog.nodes.is_empty());
//! # Ok::<(), ptsim_common::Error>(())
//! ```

pub mod exec;
pub mod kernels;
pub mod layout;
pub mod lower;
pub mod options;
pub mod pipeline;
pub mod tiles;

pub use exec::execute_functional;
pub use kernels::{EltOp, Epilogue, KernelGen};
pub use layout::MemoryLayout;
pub use lower::{CompileStats, CompiledModel, ExecPath, Lowerer, OpPlan};
pub use options::CompilerOptions;
pub use pipeline::{
    capture, graph_fingerprint, GraphArtifact, KernelKey, KernelStore, KernelStoreStats,
    MeasuredKernel, PlanArtifact, ProbedGemm,
};
pub use tiles::{ConvLayout, ConvMapping, GemmTiling};

use ptsim_common::config::SimConfig;
use ptsim_common::Result;
use ptsim_graph::Graph;

/// The compiler facade: configuration plus options.
#[derive(Debug, Clone)]
pub struct Compiler {
    cfg: SimConfig,
    opts: CompilerOptions,
}

impl Compiler {
    /// Creates a compiler for a simulated NPU configuration.
    pub fn new(cfg: SimConfig, opts: CompilerOptions) -> Self {
        Compiler { cfg, opts }
    }

    /// The target configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The active options.
    pub fn options(&self) -> &CompilerOptions {
        &self.opts
    }

    /// Compiles a graph into kernels, a TOG, and execution plans.
    ///
    /// Runs the staged pipeline (capture → plan → measure → emit) end to
    /// end against a private, per-call [`KernelStore`]. To share kernel
    /// measurements across compiles, drive [`Compiler::plan`] and
    /// [`Compiler::emit`] with a long-lived store (as `CompileCache` in
    /// `ptsim-core` does).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid or cannot be tiled onto the
    /// configured core.
    pub fn compile(&self, graph: &Graph, name: &str, batch: usize) -> Result<CompiledModel> {
        let store = KernelStore::new();
        let plan = self.plan(graph, &store)?;
        self.emit(graph, name, batch, &plan, &store)
    }

    /// Stage 1: validates and fingerprints a graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph fails structural validation.
    pub fn capture(&self, graph: &Graph) -> Result<GraphArtifact> {
        pipeline::capture(graph)
    }

    /// Stage 2: builds the fusion/tiling/layout plan, measuring autotune
    /// probe kernels through `store`.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid or a probe kernel cannot
    /// be generated.
    pub fn plan(&self, graph: &Graph, store: &KernelStore) -> Result<PlanArtifact> {
        Lowerer::staged(&self.cfg, &self.opts, store).build_plan(graph)
    }

    /// Stages 3+4: emits the TOG from a precomputed plan, measuring any
    /// still-unmeasured kernels through `store`.
    ///
    /// # Errors
    ///
    /// Returns an error if an operator cannot be tiled onto the configured
    /// core.
    pub fn emit(
        &self,
        graph: &Graph,
        name: &str,
        batch: usize,
        plan: &PlanArtifact,
        store: &KernelStore,
    ) -> Result<CompiledModel> {
        Lowerer::staged(&self.cfg, &self.opts, store).with_plan(plan).lower(graph, name, batch)
    }
}
