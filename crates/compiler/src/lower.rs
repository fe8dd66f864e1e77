//! Graph-to-TOG lowering: the Inductor-backend analog (§3.6).
//!
//! The lowerer walks a computation graph in topological order and, per
//! operator, emits (a) ISA tile kernels (measured offline on the timing
//! simulator, with latencies memoized — §3.8), (b) a flat Tile Operation
//! Graph of loads/computes/stores with double-buffered software pipelining,
//! and (c) an execution plan telling the functional executor whether the
//! operator runs through the ISA kernels or falls back to the eager
//! reference ("executed on the CPU", §3.8).
//!
//! GEMM-family operators are partitioned across cores along the M
//! dimension; each core double-buffers A/W tiles and accumulates output
//! tiles in its scratchpad across reduction chunks.

use crate::kernels::{EltOp, Epilogue, KernelGen};
use crate::layout::MemoryLayout;
use crate::options::CompilerOptions;
use crate::pipeline::{graph_fingerprint, KernelStore, PlanArtifact, ProbedGemm};
use crate::tiles::{ConvMapping, GemmTiling};
use ptsim_common::config::{DmaGranularity, SimConfig};
use ptsim_common::fingerprint::Fnv;
use ptsim_common::Result;
use ptsim_graph::{Graph, Op, ValueId};
use ptsim_isa::program::Program;
use ptsim_timingsim::TimingSim;
use ptsim_tog::{ExecUnit, ExecutableTog, FlatNode, FlatNodeKind};
use std::collections::HashMap;

/// How the functional executor realizes one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Graph interface node (input/parameter/constant): staged by the host.
    Interface,
    /// Executed through the compiled ISA kernels on the functional NPU.
    Isa,
    /// Executed by the eager reference; the TOG still models its timing
    /// (the paper's hybrid host execution, §3.8).
    Eager,
    /// Pure view (reshape): the host copies the region.
    Alias,
    /// Folded into another operator's kernel by epilogue fusion.
    FusedInto(ValueId),
}

/// Per-operator plan recorded during lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpPlan {
    /// The graph value this plan realizes.
    pub value: ValueId,
    /// Functional execution path.
    pub path: ExecPath,
    /// Range of flat-TOG node indices emitted for this operator.
    pub node_range: (usize, usize),
}

/// Lowering statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Distinct kernels generated.
    pub kernels: usize,
    /// Flat TOG nodes emitted.
    pub tog_nodes: usize,
    /// Operators absorbed by epilogue fusion.
    pub fused_ops: usize,
    /// Offline timing-simulator measurements performed.
    pub timing_measurements: u64,
}

/// A fully compiled model: kernels + TOG + memory layout + plans.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// Model name.
    pub name: String,
    /// Batch size this compilation specializes (§3.10 TOG cache key).
    pub batch: usize,
    /// The source graph.
    pub graph: Graph,
    /// The flat tile operation graph.
    pub tog: ExecutableTog,
    /// Compiled kernels by name.
    pub kernels: HashMap<String, Program>,
    /// DRAM placement of every graph value.
    pub layout: MemoryLayout,
    /// Per-operator execution plans, in graph node order.
    pub op_plans: Vec<OpPlan>,
    /// Lowering statistics.
    pub stats: CompileStats,
}

impl CompiledModel {
    /// Verifies that every TOG node's scratchpad footprint and every
    /// compute kernel's address arguments stay within the core's
    /// scratchpad — the compiler-output lint that catches tiling or
    /// buffer-layout bugs before they become silent DMA corruption in the
    /// functional model.
    ///
    /// # Errors
    ///
    /// Returns [`ptsim_common::Error::InvalidGraph`] naming the first
    /// offending node.
    pub fn validate_scratchpad(&self, cfg: &ptsim_common::config::NpuConfig) -> Result<()> {
        let cap = cfg.scratchpad_bytes;
        for (i, node) in self.tog.nodes.iter().enumerate() {
            match &node.kind {
                FlatNodeKind::LoadDma { sp, rows, cols, sp_stride, .. }
                | FlatNodeKind::StoreDma { sp, rows, cols, sp_stride, .. } => {
                    let extent = sp + rows.saturating_sub(1) * sp_stride + cols * 4;
                    if extent > cap {
                        return Err(ptsim_common::Error::InvalidGraph(format!(
                            "tog node {i}: scratchpad range ends at {extent:#x},                              capacity {cap:#x}"
                        )));
                    }
                }
                FlatNodeKind::Compute { kernel, args, .. } => {
                    for (j, &a) in args.iter().enumerate() {
                        if a >= cap {
                            return Err(ptsim_common::Error::InvalidGraph(format!(
                                "tog node {i} ({kernel}): arg {j} = {a:#x} outside                                  scratchpad of {cap:#x}"
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Approximate resident size of this compiled model, for cache
    /// accounting: kernels, TOG nodes, layout entries, and plans.
    pub fn approx_bytes(&self) -> u64 {
        let kernels: u64 =
            self.kernels.iter().map(|(name, p)| 64 + name.len() as u64 + p.len() as u64 * 16).sum();
        let tog = self.tog.nodes.len() as u64 * 96;
        let layout = self.layout.len() as u64 * 32;
        let plans = self.op_plans.len() as u64 * 40;
        let graph = self.graph.len() as u64 * 64;
        128 + kernels + tog + layout + plans + graph
    }
}

/// DRAM base address where model tensors are placed.
pub const DRAM_BASE: u64 = 0x1000_0000;

struct FusionInfo {
    epilogue: Epilogue,
    bias: Option<ValueId>,
    final_value: ValueId,
    absorbed: Vec<ValueId>,
}

/// The lowering engine.
pub struct Lowerer<'a> {
    cfg: &'a SimConfig,
    opts: &'a CompilerOptions,
    kg: KernelGen,
    timing: TimingSim,
    /// Shared per-kernel measurement store: the one place kernels are timed.
    store: &'a KernelStore,
    /// Precomputed plan to emit from (staged pipeline stage 4).
    plan: Option<&'a PlanArtifact>,
    /// Kernel config-projection fingerprint, the store key half.
    kernel_fp: u64,
    /// Timing measurements this lowerer performed against the store.
    measured: u64,
    /// Autotune probes measured, recorded for plan artifacts.
    probes: Vec<ProbedGemm>,
    kernels: HashMap<String, Program>,
    nodes: Vec<FlatNode>,
    value_ready: HashMap<ValueId, usize>,
    layout: MemoryLayout,
    cores: usize,
    stats: CompileStats,
}

impl<'a> Lowerer<'a> {
    /// Creates a lowerer measuring kernels through the shared `store`,
    /// keyed by the kernel config projection.
    pub fn staged(cfg: &'a SimConfig, opts: &'a CompilerOptions, store: &'a KernelStore) -> Self {
        Lowerer {
            cfg,
            opts,
            kg: KernelGen::new(&cfg.npu),
            timing: TimingSim::new(&cfg.npu),
            store,
            plan: None,
            kernel_fp: cfg.npu.kernel_projection().fingerprint(),
            measured: 0,
            probes: Vec::new(),
            kernels: HashMap::new(),
            nodes: Vec::new(),
            value_ready: HashMap::new(),
            layout: MemoryLayout::default(),
            cores: cfg.npu.cores,
            stats: CompileStats::default(),
        }
    }

    /// Emits from a precomputed plan artifact instead of replanning.
    #[must_use]
    pub fn with_plan(mut self, plan: &'a PlanArtifact) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Runs stage 2 of the pipeline: fusion-independent tiling decisions,
    /// memory layout, and (under autotune) probe measurements, producing a
    /// [`PlanArtifact`] that [`Lowerer::with_plan`] can later emit from.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid or a probe kernel cannot
    /// be generated.
    pub fn build_plan(mut self, graph: &Graph) -> Result<PlanArtifact> {
        graph.validate()?;
        let graph_fp = graph_fingerprint(graph);
        self.layout = MemoryLayout::for_graph(graph, DRAM_BASE);
        let mut tilings = HashMap::new();
        for (idx, node) in graph.nodes().iter().enumerate() {
            let (m, k, n) = match &node.op {
                Op::MatMul => {
                    let s = &graph.node(node.inputs[0]).shape;
                    (s.dim(0), s.dim(1), graph.node(node.inputs[1]).shape.dim(1))
                }
                Op::BatchMatMul => {
                    let sa = &graph.node(node.inputs[0]).shape;
                    let sb = &graph.node(node.inputs[1]).shape;
                    (sa.dim(1), sa.dim(2), sb.dim(2))
                }
                _ => continue,
            };
            let tiling = self.plan_tiling(idx, m, k, n)?;
            tilings.insert(idx, tiling);
        }
        let fingerprint = Fnv::new()
            .str("plan-artifact-v1")
            .u64(graph_fp)
            .u64(self.cfg.plan_projection(self.opts.autotune).fingerprint())
            .u64(self.opts.fingerprint())
            .finish();
        Ok(PlanArtifact {
            graph_fingerprint: graph_fp,
            fingerprint,
            tilings,
            probes: self.probes,
            layout: self.layout,
            measured: self.measured,
        })
    }

    /// Lowers a whole graph into a compiled model.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is invalid or an operator cannot be
    /// tiled onto this configuration.
    pub fn lower(mut self, graph: &Graph, name: &str, batch: usize) -> Result<CompiledModel> {
        graph.validate()?;
        self.layout = match self.plan {
            Some(plan) => plan.layout.clone(),
            None => MemoryLayout::for_graph(graph, DRAM_BASE),
        };
        // Replay the plan's autotune probes through the shared store so the
        // emitted kernel set is the same whether the plan was built in this
        // compile or fetched from a cache: probe kernels stay in the map.
        if let Some(plan) = self.plan {
            for probe in plan.probes.clone() {
                let pname =
                    KernelGen::gemm_name(probe.tm, probe.tk, probe.tn, true, Epilogue::None, true);
                self.kernel(&pname, |kg| {
                    kg.gemm_tile_opt(probe.tm, probe.tk, probe.tn, true, Epilogue::None, true)
                })?;
            }
        }
        let fusions = self.find_fusions(graph);
        let absorbed: HashMap<ValueId, ValueId> =
            fusions.values().flat_map(|f| f.absorbed.iter().map(|&v| (v, f.final_value))).collect();

        let mut plans = Vec::with_capacity(graph.len());
        // Absorbed ops of a fusion whose root lowered to the eager path
        // still need host-side evaluation (the kernels never ran them).
        let mut demoted: std::collections::HashSet<ValueId> = std::collections::HashSet::new();
        for idx in 0..graph.len() {
            let value = ValueId(idx);
            let start = self.nodes.len();
            let path = if demoted.contains(&value) {
                ExecPath::Eager
            } else if let Some(&root_final) = absorbed.get(&value) {
                self.stats.fused_ops += 1;
                ExecPath::FusedInto(root_final)
            } else {
                let path = self.lower_node(graph, value, fusions.get(&value))?;
                if path == ExecPath::Eager {
                    if let Some(fusion) = fusions.get(&value) {
                        demoted.extend(fusion.absorbed.iter().copied());
                    }
                }
                path
            };
            plans.push(OpPlan { value, path, node_range: (start, self.nodes.len()) });
        }
        self.stats.kernels = self.kernels.len();
        self.stats.tog_nodes = self.nodes.len();
        // Measurements this model caused: the plan stage's plus this
        // emission's store misses (a cached plan attributes its original
        // probe measurements).
        self.stats.timing_measurements = self.plan.map_or(0, |p| p.measured) + self.measured;
        let tog = ExecutableTog { name: format!("{name}_b{batch}"), nodes: self.nodes };
        tog.validate()?;
        Ok(CompiledModel {
            name: name.to_string(),
            batch,
            graph: graph.clone(),
            tog,
            kernels: self.kernels,
            layout: self.layout,
            op_plans: plans,
            stats: self.stats,
        })
    }

    // ---------------------------------------------------------------
    // Fusion analysis
    // ---------------------------------------------------------------

    fn find_fusions(&self, graph: &Graph) -> HashMap<ValueId, FusionInfo> {
        let mut fusions = HashMap::new();
        if !self.opts.fuse_epilogue {
            return fusions;
        }
        let counts = graph.use_counts();
        // consumer map: value -> unique consumer (if exactly one).
        let mut consumer: HashMap<ValueId, ValueId> = HashMap::new();
        for (idx, node) in graph.nodes().iter().enumerate() {
            for &input in &node.inputs {
                consumer.insert(input, ValueId(idx));
            }
        }
        let outputs: std::collections::HashSet<ValueId> = graph.outputs().iter().copied().collect();
        let single_use = |v: ValueId| counts[v.index()] == 1 && !outputs.contains(&v);

        for (idx, node) in graph.nodes().iter().enumerate() {
            if !matches!(node.op, Op::MatMul | Op::Conv2d(_)) {
                continue;
            }
            let root = ValueId(idx);
            let mut absorbed = Vec::new();
            let mut current = root;
            let mut bias = None;
            // Optional bias add: Add(current, rank-1 parameter/constant).
            if single_use(current) {
                if let Some(&next) = consumer.get(&current) {
                    let n = graph.node(next);
                    if matches!(n.op, Op::Add) && n.inputs[0] == current {
                        let other = n.inputs[1];
                        let other_node = graph.node(other);
                        let n_dim = node.shape.dim(node.shape.rank() - 1);
                        if matches!(other_node.op, Op::Parameter | Op::Constant(_))
                            && other_node.shape.rank() == 1
                            && other_node.shape.dim(0) == n_dim
                        {
                            bias = Some(other);
                            absorbed.push(next);
                            current = next;
                        }
                    }
                }
            }
            // Optional activation.
            let mut act: Option<&Op> = None;
            if single_use(current) {
                if let Some(&next) = consumer.get(&current) {
                    let n = graph.node(next);
                    if matches!(n.op, Op::Relu | Op::Gelu) {
                        act = Some(&n.op);
                        absorbed.push(next);
                        current = next;
                    }
                }
            }
            if absorbed.is_empty() {
                continue;
            }
            let epilogue = match (bias.is_some(), act) {
                (true, Some(Op::Relu)) => Epilogue::BiasRelu,
                (true, Some(Op::Gelu)) => Epilogue::BiasGelu,
                (true, _) => Epilogue::Bias,
                (false, Some(Op::Relu)) => Epilogue::Relu,
                (false, Some(Op::Gelu)) => Epilogue::Gelu,
                (false, _) => continue,
            };
            fusions.insert(root, FusionInfo { epilogue, bias, final_value: current, absorbed });
        }
        fusions
    }

    // ---------------------------------------------------------------
    // Node emission helpers
    // ---------------------------------------------------------------

    fn add(&mut self, kind: FlatNodeKind, deps: Vec<usize>, core: u32) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(FlatNode { kind, deps, core });
        idx
    }

    #[allow(clippy::too_many_arguments)]
    fn load(
        &mut self,
        mm: u64,
        sp: u64,
        rows: u64,
        cols: u64,
        mm_stride: u64,
        sp_stride: u64,
        transpose: bool,
        deps: Vec<usize>,
        core: u32,
    ) -> usize {
        self.add(
            FlatNodeKind::LoadDma { addr: mm, sp, rows, cols, mm_stride, sp_stride, transpose },
            deps,
            core,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn store(
        &mut self,
        mm: u64,
        sp: u64,
        rows: u64,
        cols: u64,
        mm_stride: u64,
        sp_stride: u64,
        deps: Vec<usize>,
        core: u32,
    ) -> usize {
        self.add(
            FlatNodeKind::StoreDma { addr: mm, sp, rows, cols, mm_stride, sp_stride },
            deps,
            core,
        )
    }

    /// Ensures `name` exists in the kernel set, building it with `make` on
    /// demand, and returns its offline-measured latency.
    fn kernel(
        &mut self,
        name: &str,
        make: impl FnOnce(&KernelGen) -> Result<Program>,
    ) -> Result<u64> {
        let (measured, missed) =
            self.store.get_or_measure(name, self.kernel_fp, &self.timing, || make(&self.kg))?;
        if missed {
            self.measured += 1;
        }
        if !self.kernels.contains_key(name) {
            self.kernels.insert(name.to_string(), measured.program.clone());
        }
        Ok(measured.latency.cycles)
    }

    fn compute(
        &mut self,
        kernel: &str,
        cycles: u64,
        unit: ExecUnit,
        args: Vec<u64>,
        deps: Vec<usize>,
        core: u32,
    ) -> usize {
        self.add(
            FlatNodeKind::Compute { kernel: kernel.to_string(), cycles, unit, args },
            deps,
            core,
        )
    }

    /// Emits the zero-cost join node marking `value` ready.
    fn finish_value(&mut self, value: ValueId, deps: Vec<usize>) {
        if deps.len() == 1 {
            // A single producer needs no join node.
            self.value_ready.insert(value, deps[0]);
            return;
        }
        let idx = self.compute("barrier", 0, ExecUnit::Vector, Vec::new(), deps, 0);
        self.value_ready.insert(value, idx);
    }

    fn dep_of(&self, value: ValueId) -> Option<usize> {
        self.value_ready.get(&value).copied()
    }

    fn deps_of(&self, values: &[ValueId]) -> Vec<usize> {
        values.iter().filter_map(|&v| self.dep_of(v)).collect()
    }

    // ---------------------------------------------------------------
    // Operator dispatch
    // ---------------------------------------------------------------

    fn lower_node(
        &mut self,
        graph: &Graph,
        value: ValueId,
        fusion: Option<&FusionInfo>,
    ) -> Result<ExecPath> {
        let node = graph.node(value).clone();
        let ins = node.inputs.clone();
        let out_shape = node.shape.clone();
        match &node.op {
            Op::Input | Op::Parameter | Op::Constant(_) => Ok(ExecPath::Interface),
            Op::Reshape(_) => {
                // Pure view; the host aliases the region.
                if let Some(d) = self.dep_of(ins[0]) {
                    self.value_ready.insert(value, d);
                }
                Ok(ExecPath::Alias)
            }
            Op::MatMul => {
                let (a, b) = (ins[0], ins[1]);
                let (m, k) = {
                    let s = &graph.node(a).shape;
                    (s.dim(0), s.dim(1))
                };
                let n = graph.node(b).shape.dim(1);
                let (epi, bias, final_value) = match fusion {
                    Some(f) => (f.epilogue, f.bias, f.final_value),
                    None => (Epilogue::None, None, value),
                };
                let spec = GemmSpec {
                    m,
                    n,
                    k_per_pass: k,
                    passes: 1,
                    tiling: self.plan_tiling(value.index(), m, k, n)?,
                    epi,
                    a_base: self.layout.addr(a),
                    a_row_stride: (k * 4) as u64,
                    a_region: 0,
                    b_base: self.layout.addr(b),
                    b_row_stride: (n * 4) as u64,
                    b_region: 0,
                    o_base: self.layout.addr(final_value),
                    o_row_stride: (n * 4) as u64,
                    bias: bias.map(|bv| (self.layout.addr(bv), self.dep_of(bv))),
                    a_dep: self.dep_of(a),
                    b_dep: self.dep_of(b),
                    fg: self.use_fg((k * n * 4) as u64),
                    buffers: self.buffer_depth(),
                };
                let stores = self.emit_tiled_gemm(&spec)?;
                self.finish_value(final_value, stores);
                Ok(ExecPath::Isa)
            }
            Op::BatchMatMul => {
                let (a, b) = (ins[0], ins[1]);
                let sa = graph.node(a).shape.clone();
                let sb = graph.node(b).shape.clone();
                let (batch, m, k, n) = (sa.dim(0), sa.dim(1), sa.dim(2), sb.dim(2));
                let mut stores = Vec::new();
                for bi in 0..batch {
                    let spec = GemmSpec {
                        m,
                        n,
                        k_per_pass: k,
                        passes: 1,
                        tiling: self.plan_tiling(value.index(), m, k, n)?,
                        epi: Epilogue::None,
                        a_base: self.layout.addr(a) + (bi * m * k * 4) as u64,
                        a_row_stride: (k * 4) as u64,
                        a_region: 0,
                        b_base: self.layout.addr(b) + (bi * k * n * 4) as u64,
                        b_row_stride: (n * 4) as u64,
                        b_region: 0,
                        o_base: self.layout.addr(value) + (bi * m * n * 4) as u64,
                        o_row_stride: (n * 4) as u64,
                        bias: None,
                        a_dep: self.dep_of(a),
                        b_dep: self.dep_of(b),
                        fg: self.use_fg((k * n * 4) as u64),
                        buffers: self.buffer_depth(),
                    };
                    stores.extend(self.emit_tiled_gemm(&spec)?);
                }
                self.finish_value(value, stores);
                Ok(ExecPath::Eager)
            }
            Op::Conv2d(geom) => {
                let (x, w) = (ins[0], ins[1]);
                let xs = graph.node(x).shape.clone();
                let ws = graph.node(w).shape.clone();
                let (epi, _bias, final_value) = match fusion {
                    Some(f) => (f.epilogue, f.bias, f.final_value),
                    None => (Epilogue::None, None, value),
                };
                let map = ConvMapping::choose(
                    self.opts,
                    xs.dim(0),
                    xs.dim(1),
                    ws.dim(0),
                    out_shape.dim(2),
                    out_shape.dim(3),
                    ws.dim(2),
                    ws.dim(3),
                    *geom,
                );
                let bias = fusion.and_then(|f| f.bias);
                let stores = self.emit_conv(&map, x, w, final_value, epi, bias)?;
                self.finish_value(final_value, stores);
                Ok(ExecPath::Eager)
            }
            Op::Conv2dBackwardInput { .. } | Op::Conv2dBackwardWeight { .. } => {
                // GEMM-shaped backward passes with wrapped addressing.
                let (a, b) = (ins[0], ins[1]);
                let work = graph.node(a).shape.numel().max(graph.node(b).shape.numel());
                let m = out_shape.dim(0).max(1) * out_shape.dims().get(2).copied().unwrap_or(1);
                let n = out_shape.numel() / m.max(1);
                let k = (work / m.max(1)).max(1);
                let spec = GemmSpec {
                    m,
                    n: n.max(1),
                    k_per_pass: k,
                    passes: 1,
                    tiling: GemmTiling::plan(&self.cfg.npu, self.opts, m, k, n.max(1)),
                    epi: Epilogue::None,
                    a_base: self.layout.addr(a),
                    a_row_stride: (k * 4) as u64,
                    a_region: self.layout.bytes(a),
                    b_base: self.layout.addr(b),
                    b_row_stride: (n.max(1) * 4) as u64,
                    b_region: self.layout.bytes(b),
                    o_base: self.layout.addr(value),
                    o_row_stride: (n.max(1) * 4) as u64,
                    bias: None,
                    a_dep: self.dep_of(a),
                    b_dep: self.dep_of(b),
                    fg: false,
                    buffers: self.buffer_depth(),
                };
                let stores = self.emit_tiled_gemm(&spec)?;
                self.finish_value(value, stores);
                Ok(ExecPath::Eager)
            }
            Op::Add | Op::Sub | Op::Mul | Op::Div => {
                let (a, b) = (ins[0], ins[1]);
                let (sa, sb) = (graph.node(a).shape.clone(), graph.node(b).shape.clone());
                let op = match node.op {
                    Op::Add => EltOp::Add,
                    Op::Sub => EltOp::Sub,
                    Op::Mul => EltOp::Mul,
                    _ => EltOp::Div,
                };
                if sa == sb {
                    self.emit_eltwise(value, &[a, b], op, out_shape.numel())?;
                    Ok(ExecPath::Isa)
                } else if sb.rank() == 1
                    && sb.dim(0) == out_shape.dim(out_shape.rank() - 1)
                    && sa == out_shape
                {
                    let cols = sb.dim(0);
                    let rows = out_shape.numel() / cols;
                    if cols <= self.kg.vlmax {
                        self.emit_rowwise(value, a, b, op, rows, cols)?;
                        Ok(ExecPath::Isa)
                    } else {
                        self.emit_opaque(value, &ins, out_shape.numel())?;
                        Ok(ExecPath::Eager)
                    }
                } else {
                    self.emit_opaque(value, &ins, out_shape.numel())?;
                    Ok(ExecPath::Eager)
                }
            }
            Op::Scale(s) => {
                self.emit_eltwise(value, &[ins[0]], EltOp::Scale(*s), out_shape.numel())?;
                Ok(ExecPath::Isa)
            }
            Op::Relu => {
                self.emit_eltwise(value, &[ins[0]], EltOp::Relu, out_shape.numel())?;
                Ok(ExecPath::Isa)
            }
            Op::Gelu => {
                self.emit_eltwise(value, &[ins[0]], EltOp::Gelu, out_shape.numel())?;
                Ok(ExecPath::Isa)
            }
            Op::Tanh => {
                self.emit_eltwise(value, &[ins[0]], EltOp::Tanh, out_shape.numel())?;
                Ok(ExecPath::Isa)
            }
            Op::Sigmoid => {
                self.emit_eltwise(value, &[ins[0]], EltOp::Sigmoid, out_shape.numel())?;
                Ok(ExecPath::Isa)
            }
            Op::Exp => {
                self.emit_eltwise(value, &[ins[0]], EltOp::Exp, out_shape.numel())?;
                Ok(ExecPath::Isa)
            }
            Op::Softmax => {
                let cols = out_shape.dim(out_shape.rank() - 1);
                let rows = out_shape.numel() / cols;
                if cols <= self.kg.vlmax {
                    self.emit_rowstat(value, &[ins[0]], RowStat::Softmax, rows, cols)?;
                    Ok(ExecPath::Isa)
                } else {
                    self.emit_opaque(value, &ins, 4 * out_shape.numel())?;
                    Ok(ExecPath::Eager)
                }
            }
            Op::LayerNorm { eps } => {
                let cols = out_shape.dim(out_shape.rank() - 1);
                let rows = out_shape.numel() / cols;
                if cols <= self.kg.vlmax {
                    self.emit_rowstat(
                        value,
                        &[ins[0], ins[1], ins[2]],
                        RowStat::LayerNorm { eps: *eps },
                        rows,
                        cols,
                    )?;
                    Ok(ExecPath::Isa)
                } else {
                    self.emit_opaque(value, &ins, 6 * out_shape.numel())?;
                    Ok(ExecPath::Eager)
                }
            }
            Op::CrossEntropyGrad => {
                let cols = out_shape.dim(1);
                let rows = out_shape.dim(0);
                if cols <= self.kg.vlmax {
                    self.emit_rowstat(
                        value,
                        &[ins[0], ins[1]],
                        RowStat::CeGrad { batch: rows },
                        rows,
                        cols,
                    )?;
                    Ok(ExecPath::Isa)
                } else {
                    self.emit_opaque(value, &ins, 4 * out_shape.numel())?;
                    Ok(ExecPath::Eager)
                }
            }
            Op::SumAxis { axis: 0 } | Op::ReduceTo(_) if is_column_reduce(graph, &node) => {
                let input = ins[0];
                let in_shape = graph.node(input).shape.clone();
                let cols = out_shape.numel().max(1);
                let rows = in_shape.numel() / cols;
                if cols <= self.kg.vlmax && rows > 0 {
                    self.emit_reduce(value, input, rows, cols, 1.0)?;
                } else {
                    self.emit_opaque(value, &ins, in_shape.numel())?;
                }
                Ok(ExecPath::Eager)
            }
            Op::Transpose2 | Op::TransposeLast2 | Op::Permute(_) => {
                self.emit_transpose_like(value, ins[0], &out_shape)?;
                Ok(ExecPath::Eager)
            }
            // Everything else: eager functional with approximate traffic.
            other => {
                let work: usize = ins
                    .iter()
                    .map(|&v| graph.node(v).shape.numel())
                    .sum::<usize>()
                    .max(out_shape.numel());
                let _ = other;
                self.emit_opaque(value, &ins, work)?;
                Ok(ExecPath::Eager)
            }
        }
    }

    fn use_fg(&self, weight_bytes: u64) -> bool {
        match self.opts.dma {
            DmaGranularity::Coarse => false,
            DmaGranularity::Fine => true,
            DmaGranularity::SelectiveFine => weight_bytes < self.opts.sfg_threshold_bytes,
        }
    }

    /// Operand buffer depth: coarse-grained DMA tracks dependencies at
    /// whole-transfer granularity, which forbids load/compute overlap
    /// (single buffering); FG/SFG double-buffer (§3.6.3, Fig. 8a).
    fn buffer_depth(&self) -> usize {
        match self.opts.dma {
            DmaGranularity::Coarse => 1,
            _ => 2,
        }
    }

    /// GEMM tiling, optionally autotuned: candidate M-tiles are scored by
    /// offline-measured kernel cycles per output row plus their DMA cost at
    /// peak bandwidth, and the cheapest wins (§3.6.3 autotuning). Kernel
    /// measurements go through the kernel store, so candidates are cheap
    /// to revisit across operators.
    fn plan_tiling(&mut self, node: usize, m: usize, k: usize, n: usize) -> Result<GemmTiling> {
        if let Some(plan) = self.plan {
            if let Some(&tiling) = plan.tilings.get(&node) {
                return Ok(tiling);
            }
        }
        let base = GemmTiling::plan(&self.cfg.npu, self.opts, m, k, n);
        if !self.opts.autotune || m <= 1 {
            return Ok(base);
        }
        let rpc = self.kg.rows_per_chunk();
        let mut candidates: Vec<usize> = vec![base.tm];
        for cand in [rpc, 64, 128, 256, 512] {
            if cand >= rpc && cand <= base.tm && !candidates.contains(&cand) {
                candidates.push(cand);
            }
        }
        let bw = self.cfg.dram.peak_bytes_per_cycle().max(1);
        let mut best = (base.tm, u64::MAX);
        for tm in candidates {
            let tm = tm.min(m).max(1);
            let probe = ProbedGemm { tm, tk: base.tk, tn: base.tn };
            if !self.probes.contains(&probe) {
                self.probes.push(probe);
            }
            let name = KernelGen::gemm_name(tm, base.tk, base.tn, true, Epilogue::None, true);
            let kernel_cycles = self.kernel(&name, |kg| {
                kg.gemm_tile_opt(tm, base.tk, base.tn, true, Epilogue::None, true)
            })?;
            let tiles = m.div_ceil(tm) as u64;
            let dma_bytes = (tm * base.tk + base.tk * base.tn) as u64 * 4;
            let per_tile = kernel_cycles.max(dma_bytes / bw);
            let score = tiles * per_tile;
            if score < best.1 {
                best = (tm, score);
            }
        }
        Ok(GemmTiling { tm: best.0, ..base })
    }

    // ---------------------------------------------------------------
    // Tiled GEMM emission (matmul, bmm, conv passes, conv backward)
    // ---------------------------------------------------------------

    fn emit_tiled_gemm(&mut self, spec: &GemmSpec) -> Result<Vec<usize>> {
        let t = spec.tiling;
        let kt = spec.k_per_pass.div_ceil(t.tk);
        let mt = spec.m.div_ceil(t.tm);
        let nt = spec.n.div_ceil(t.tn);
        let rpc = self.kg.rows_per_chunk() as u64;
        // Per-core scratchpad layout (bytes).
        let a_sz = (t.tm * t.tk * 4) as u64;
        let w_sz = (t.tk * t.tn * 4) as u64;
        let o_sz = (t.tm * t.tn * 4) as u64;
        let bias_sz = rpc * (t.tn * 4) as u64;
        // Output-tile group: keep as many N-tiles resident as fit so each A
        // tile is loaded once per (mi, k-step) and reused across the group —
        // the scratchpad-maximizing reuse of the Gemmini-style heuristic.
        let fixed = 2 * a_sz + 2 * w_sz + bias_sz * nt.min(8) as u64;
        let group = ((self.cfg.npu.scratchpad_bytes.saturating_sub(fixed) / o_sz.max(1)) as usize)
            .clamp(1, nt);
        let sp_a = [0, a_sz];
        let sp_w = [2 * a_sz, 2 * a_sz + w_sz];
        let sp_o_base = 2 * a_sz + 2 * w_sz;
        let sp_bias_base = sp_o_base + group as u64 * o_sz;
        let sp_o = |oi: usize| sp_o_base + oi as u64 * o_sz;
        let sp_bias = |oi: usize| sp_bias_base + oi as u64 * bias_sz;

        let cores = self.cores.min(mt.max(1));
        let mut all_stores = Vec::new();
        for core in 0..cores {
            let mi_lo = mt * core / cores;
            let mi_hi = mt * (core + 1) / cores;
            // Buffer hazard tracking: readers of each double-buffered A/W
            // slot, and the last store of each resident output slot.
            let mut a_user: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
            let mut w_user: [Option<usize>; 2] = [None, None];
            let mut o_store: Vec<Option<usize>> = vec![None; group];
            let mut a_seq = 0usize;
            let mut w_seq = 0usize;
            for mi in mi_lo..mi_hi {
                let tm_r = (spec.m - mi * t.tm).min(t.tm);
                let mut g0 = 0usize;
                while g0 < nt {
                    let g1 = (g0 + group).min(nt);
                    // Bias staged once per (mi, group, ni).
                    let mut bias_dep: Vec<Option<usize>> = vec![None; g1 - g0];
                    if let Some((bias_mm, bdep)) = spec.bias {
                        for ni in g0..g1 {
                            let oi = ni - g0;
                            let tn_r = (spec.n - ni * t.tn).min(t.tn);
                            let mut deps: Vec<usize> = bdep.into_iter().collect();
                            if let Some(war) = o_store[oi] {
                                deps.push(war);
                            }
                            let copies = if tn_r == self.kg.sa_cols { rpc } else { 1 };
                            let mut last = None;
                            for j in 0..copies {
                                last = Some(self.load(
                                    bias_mm + (ni * t.tn * 4) as u64,
                                    sp_bias(oi) + j * (tn_r * 4) as u64,
                                    1,
                                    tn_r as u64,
                                    (tn_r * 4) as u64,
                                    (tn_r * 4) as u64,
                                    false,
                                    deps.clone(),
                                    core as u32,
                                ));
                            }
                            bias_dep[oi] = last;
                        }
                    }
                    // Accumulation chain per resident output tile.
                    let mut chains: Vec<Option<usize>> = vec![None; g1 - g0];
                    let total_steps = spec.passes * kt;
                    let mut step = 0usize;
                    for pass in 0..spec.passes {
                        for ki in 0..kt {
                            let tk_r = (spec.k_per_pass - ki * t.tk).min(t.tk);
                            let acc = step > 0;
                            let last_step = step + 1 == total_steps;
                            let fg = spec.fg && tm_r == t.tm && tk_r == t.tk;

                            // --- A tile: loaded once for the whole group ---
                            let pa = a_seq % spec.buffers;
                            a_seq += 1;
                            let (a_base, a_stride) = spec.a_addr(mi, t.tm, pass, ki, t.tk, tk_r);
                            let mut a_deps: Vec<usize> = spec.a_dep.into_iter().collect();
                            a_deps.append(&mut a_user[pa]);
                            // FG-DMA halves the tile transfer so the first
                            // sub-compute starts after half the rows land;
                            // finer splits would pay the array's fill/drain
                            // skew per sub-kernel.
                            let a_chunks: Vec<(usize, usize)> = if fg {
                                chunk_rows(tm_r, (tm_r / 2).max(self.kg.sa_rows))
                            } else {
                                vec![(0, tm_r)]
                            };
                            let mut a_loads = Vec::new();
                            for &(row0, rows) in &a_chunks {
                                a_loads.push(self.load(
                                    wrap(
                                        a_base + row0 as u64 * a_stride,
                                        spec.a_base,
                                        spec.a_region,
                                    ),
                                    sp_a[pa] + (row0 * t.tk * 4) as u64,
                                    rows as u64,
                                    tk_r as u64,
                                    a_stride,
                                    (tk_r * 4) as u64,
                                    false,
                                    a_deps.clone(),
                                    core as u32,
                                ));
                            }

                            for ni in g0..g1 {
                                let oi = ni - g0;
                                let tn_r = (spec.n - ni * t.tn).min(t.tn);
                                let epi = if last_step { spec.epi } else { Epilogue::None };
                                let fg_n = fg && tn_r == t.tn;

                                // --- W tile loads ---
                                let pw = w_seq % spec.buffers;
                                w_seq += 1;
                                let (b_base, b_stride) =
                                    spec.b_addr(ni, t.tn, pass, ki, t.tk, tn_r);
                                let mut w_deps: Vec<usize> = spec.b_dep.into_iter().collect();
                                if let Some(war) = w_user[pw] {
                                    w_deps.push(war);
                                }
                                let w_chunks: Vec<(usize, usize)> = if fg_n {
                                    chunk_rows(tk_r, (tk_r / 2).max(1))
                                } else {
                                    vec![(0, tk_r)]
                                };
                                let mut w_loads = Vec::new();
                                for &(row0, rows) in &w_chunks {
                                    w_loads.push(self.load(
                                        wrap(
                                            b_base + row0 as u64 * b_stride,
                                            spec.b_base,
                                            spec.b_region,
                                        ),
                                        sp_w[pw] + (row0 * t.tn * 4) as u64,
                                        rows as u64,
                                        tn_r as u64,
                                        b_stride,
                                        (tn_r * 4) as u64,
                                        false,
                                        w_deps.clone(),
                                        core as u32,
                                    ));
                                }

                                // --- Compute (split into sub-kernels when
                                // fine-grained DMA is on) ---
                                let sub_chunks: &[(usize, usize)] = if fg_n {
                                    &a_chunks
                                } else {
                                    std::slice::from_ref(a_chunks.first().expect("non-empty"))
                                };
                                let mut last_compute = None;
                                for (s, &(row0, rows)) in sub_chunks.iter().enumerate() {
                                    let (rows_k, head) =
                                        if fg_n { (rows, s == 0) } else { (tm_r, true) };
                                    let row0 = if fg_n { row0 } else { 0 };
                                    let name =
                                        KernelGen::gemm_name(rows_k, tk_r, tn_r, acc, epi, head);
                                    let cycles = self.kernel(&name, |kg| {
                                        kg.gemm_tile_opt(rows_k, tk_r, tn_r, acc, epi, head)
                                    })?;
                                    let mut deps = Vec::new();
                                    if fg_n {
                                        deps.push(a_loads[s]);
                                    } else {
                                        deps.extend(a_loads.iter().copied());
                                    }
                                    if head {
                                        deps.extend(w_loads.iter().copied());
                                        if let Some(c) = chains[oi] {
                                            deps.push(c);
                                        }
                                        if step == 0 {
                                            if let Some(war) = o_store[oi] {
                                                deps.push(war);
                                            }
                                            if let Some(bd) = bias_dep[oi] {
                                                deps.push(bd);
                                            }
                                        }
                                    } else if let Some(c) = last_compute {
                                        deps.push(c);
                                    }
                                    let args = vec![
                                        sp_a[pa] + (row0 * t.tk * 4) as u64,
                                        sp_w[pw],
                                        sp_o(oi) + (row0 * t.tn * 4) as u64,
                                        sp_bias(oi),
                                    ];
                                    last_compute = Some(self.compute(
                                        &name,
                                        cycles,
                                        ExecUnit::Matrix,
                                        args,
                                        deps,
                                        core as u32,
                                    ));
                                }
                                let tail = last_compute.expect("at least one chunk");
                                a_user[pa].push(tail);
                                w_user[pw] = Some(tail);
                                chains[oi] = Some(tail);
                            }
                            step += 1;
                        }
                    }
                    // --- Store the group's output tiles ---
                    for ni in g0..g1 {
                        let oi = ni - g0;
                        let tn_r = (spec.n - ni * t.tn).min(t.tn);
                        let (o_base, o_stride) = spec.o_addr(mi, t.tm, ni, t.tn);
                        let st = self.store(
                            o_base,
                            sp_o(oi),
                            tm_r as u64,
                            tn_r as u64,
                            o_stride,
                            (tn_r * 4) as u64,
                            vec![chains[oi].expect("at least one step")],
                            core as u32,
                        );
                        o_store[oi] = Some(st);
                        all_stores.push(st);
                    }
                    g0 = g1;
                }
            }
        }
        Ok(all_stores)
    }
    fn emit_conv(
        &mut self,
        map: &ConvMapping,
        x: ValueId,
        w: ValueId,
        out: ValueId,
        epi: Epilogue,
        bias: Option<ValueId>,
    ) -> Result<Vec<usize>> {
        let mut tm = map.m_tile(self.opts);
        let tk = map.k_per_pass.min(self.kg.sa_rows).max(1);
        let tn = map.gemm_n.min(self.kg.sa_cols).max(1);
        // Shrink M (granule-aligned) until double-buffered tiles fit.
        let sp_words = (self.cfg.npu.scratchpad_bytes / 4) as usize;
        let granule = map.m_granule.max(1);
        while tm > granule && 2 * (tm * tk + tk * tn + tm * tn) + 4 * tn > sp_words {
            tm = (tm - granule).max(granule);
        }
        let spec = GemmSpec {
            m: map.gemm_m,
            n: map.gemm_n,
            k_per_pass: map.k_per_pass,
            passes: map.passes,
            tiling: GemmTiling { tm, tk, tn },
            epi,
            a_base: self.layout.addr(x),
            a_row_stride: (map.k_per_pass * 4) as u64,
            a_region: self.layout.bytes(x),
            b_base: self.layout.addr(w),
            b_row_stride: (map.gemm_n * 4) as u64,
            b_region: self.layout.bytes(w),
            o_base: self.layout.addr(out),
            o_row_stride: (map.gemm_n * 4) as u64,
            bias: bias.map(|bv| (self.layout.addr(bv), self.dep_of(bv))),
            a_dep: self.dep_of(x),
            b_dep: self.dep_of(w),
            fg: self.use_fg((map.k_per_pass * map.passes * map.gemm_n * 4) as u64),
            buffers: self.buffer_depth(),
        };
        self.emit_tiled_gemm(&spec)
    }

    // ---------------------------------------------------------------
    // Vector-unit operators
    // ---------------------------------------------------------------

    /// Elementwise tile budget in elements, sized so six double-buffered
    /// tiles fit the scratchpad.
    fn elt_tile_elems(&self, numel: usize) -> usize {
        let sp_words = (self.cfg.npu.scratchpad_bytes / 4) as usize;
        let cap = (sp_words / 8).max(self.kg.vlmax);
        numel.min(cap)
    }

    fn emit_eltwise(
        &mut self,
        value: ValueId,
        ins: &[ValueId],
        op: EltOp,
        numel: usize,
    ) -> Result<()> {
        let te = self.elt_tile_elems(numel);
        let tiles = numel.div_ceil(te);
        let sp_in0 = [0u64, (te * 4) as u64];
        let sp_in1 = [(2 * te * 4) as u64, (3 * te * 4) as u64];
        let sp_out = [(4 * te * 4) as u64, (5 * te * 4) as u64];
        let out_mm = self.layout.addr(value);
        let deps0: Option<usize> = self.dep_of(ins[0]);
        let deps1: Option<usize> = ins.get(1).and_then(|&v| self.dep_of(v));
        let mut war: [Option<usize>; 2] = [None, None];
        let mut stores = Vec::new();
        let core = (value.index() % self.cores) as u32;
        for ti in 0..tiles {
            let p = ti % 2;
            let e = (numel - ti * te).min(te);
            let name = KernelGen::eltwise_name(op, e);
            let cycles = self.kernel(&name, |kg| kg.eltwise_tile(op, e))?;
            let mut deps = Vec::new();
            let mut loads = Vec::new();
            let mut d0: Vec<usize> = deps0.into_iter().collect();
            if let Some(wd) = war[p] {
                d0.push(wd);
            }
            loads.push(self.load(
                self.layout.addr(ins[0]) + (ti * te * 4) as u64,
                sp_in0[p],
                1,
                e as u64,
                (e * 4) as u64,
                (e * 4) as u64,
                false,
                d0,
                core,
            ));
            if op.is_binary() {
                let mut d1: Vec<usize> = deps1.into_iter().collect();
                if let Some(wd) = war[p] {
                    d1.push(wd);
                }
                loads.push(self.load(
                    self.layout.addr(ins[1]) + (ti * te * 4) as u64,
                    sp_in1[p],
                    1,
                    e as u64,
                    (e * 4) as u64,
                    (e * 4) as u64,
                    false,
                    d1,
                    core,
                ));
            }
            deps.extend(loads);
            let c = self.compute(
                &name,
                cycles,
                ExecUnit::Vector,
                vec![sp_in0[p], sp_in1[p], sp_out[p]],
                deps,
                core,
            );
            war[p] = Some(c);
            let st = self.store(
                out_mm + (ti * te * 4) as u64,
                sp_out[p],
                1,
                e as u64,
                (e * 4) as u64,
                (e * 4) as u64,
                vec![c],
                core,
            );
            stores.push(st);
        }
        self.finish_value(value, stores);
        Ok(())
    }

    fn emit_rowwise(
        &mut self,
        value: ValueId,
        a: ValueId,
        b: ValueId,
        op: EltOp,
        rows: usize,
        cols: usize,
    ) -> Result<()> {
        let sp_words = (self.cfg.npu.scratchpad_bytes / 4) as usize;
        let rpt = rows.min((sp_words / (6 * cols)).max(1)).min(64);
        let tiles = rows.div_ceil(rpt);
        let tile_bytes = (rpt * cols * 4) as u64;
        let sp_in = [0u64, tile_bytes];
        let sp_out = [2 * tile_bytes, 3 * tile_bytes];
        let sp_vec = 4 * tile_bytes;
        let core = (value.index() % self.cores) as u32;
        // Stage the broadcast vector once.
        let vec_load = self.load(
            self.layout.addr(b),
            sp_vec,
            1,
            cols as u64,
            (cols * 4) as u64,
            (cols * 4) as u64,
            false,
            self.deps_of(&[b]),
            core,
        );
        let a_dep = self.dep_of(a);
        let mut war: [Option<usize>; 2] = [None, None];
        let mut stores = Vec::new();
        for ti in 0..tiles {
            let p = ti % 2;
            let r = (rows - ti * rpt).min(rpt);
            let name = KernelGen::rowwise_name(op, r, cols);
            let cycles = self.kernel(&name, |kg| kg.rowwise_tile(op, r, cols))?;
            let mut d: Vec<usize> = a_dep.into_iter().collect();
            if let Some(wd) = war[p] {
                d.push(wd);
            }
            let ld = self.load(
                self.layout.addr(a) + (ti * rpt * cols * 4) as u64,
                sp_in[p],
                r as u64,
                cols as u64,
                (cols * 4) as u64,
                (cols * 4) as u64,
                false,
                d,
                core,
            );
            let c = self.compute(
                &name,
                cycles,
                ExecUnit::Vector,
                vec![sp_in[p], sp_vec, sp_out[p]],
                vec![ld, vec_load],
                core,
            );
            war[p] = Some(c);
            stores.push(self.store(
                self.layout.addr(value) + (ti * rpt * cols * 4) as u64,
                sp_out[p],
                r as u64,
                cols as u64,
                (cols * 4) as u64,
                (cols * 4) as u64,
                vec![c],
                core,
            ));
        }
        self.finish_value(value, stores);
        Ok(())
    }

    fn emit_rowstat(
        &mut self,
        value: ValueId,
        ins: &[ValueId],
        stat: RowStat,
        rows: usize,
        cols: usize,
    ) -> Result<()> {
        let sp_words = (self.cfg.npu.scratchpad_bytes / 4) as usize;
        let rpt = rows.min((sp_words / (8 * cols)).max(1)).min(64);
        let tiles = rows.div_ceil(rpt);
        let tile_bytes = (rpt * cols * 4) as u64;
        let sp_in = [0u64, tile_bytes];
        let sp_aux = [2 * tile_bytes, 3 * tile_bytes]; // targets for ce_grad
        let sp_out = [4 * tile_bytes, 5 * tile_bytes];
        let sp_gamma = 6 * tile_bytes;
        let sp_beta = sp_gamma + (cols * 4) as u64;
        let core = (value.index() % self.cores) as u32;

        // Stage affine parameters once for layernorm.
        let mut param_deps = Vec::new();
        if let RowStat::LayerNorm { .. } = stat {
            param_deps.push(self.load(
                self.layout.addr(ins[1]),
                sp_gamma,
                1,
                cols as u64,
                (cols * 4) as u64,
                (cols * 4) as u64,
                false,
                self.deps_of(&[ins[1]]),
                core,
            ));
            param_deps.push(self.load(
                self.layout.addr(ins[2]),
                sp_beta,
                1,
                cols as u64,
                (cols * 4) as u64,
                (cols * 4) as u64,
                false,
                self.deps_of(&[ins[2]]),
                core,
            ));
        }
        let in_dep = self.dep_of(ins[0]);
        let aux_dep = match stat {
            RowStat::CeGrad { .. } => ins.get(1).and_then(|&v| self.dep_of(v)),
            _ => None,
        };
        let mut war: [Option<usize>; 2] = [None, None];
        let mut stores = Vec::new();
        for ti in 0..tiles {
            let p = ti % 2;
            let r = (rows - ti * rpt).min(rpt);
            let (name, cycles) = match stat {
                RowStat::Softmax => {
                    let name = KernelGen::softmax_name(r, cols);
                    let cy = self.kernel(&name, |kg| kg.softmax_tile(r, cols))?;
                    (name, cy)
                }
                RowStat::LayerNorm { eps } => {
                    let name = KernelGen::layernorm_name(r, cols);
                    let cy = self.kernel(&name, |kg| kg.layernorm_tile(r, cols, eps))?;
                    (name, cy)
                }
                RowStat::CeGrad { batch } => {
                    let name = KernelGen::ce_grad_name(r, cols);
                    let cy = self.kernel(&name, |kg| kg.ce_grad_tile(r, cols, batch))?;
                    (name, cy)
                }
            };
            let mut d: Vec<usize> = in_dep.into_iter().collect();
            if let Some(wd) = war[p] {
                d.push(wd);
            }
            let ld = self.load(
                self.layout.addr(ins[0]) + (ti * rpt * cols * 4) as u64,
                sp_in[p],
                r as u64,
                cols as u64,
                (cols * 4) as u64,
                (cols * 4) as u64,
                false,
                d,
                core,
            );
            let mut deps = vec![ld];
            deps.extend(param_deps.iter().copied());
            let mut args = vec![sp_in[p], 0, sp_out[p], 0];
            match stat {
                RowStat::LayerNorm { .. } => {
                    args[1] = sp_gamma;
                    args[3] = sp_beta;
                }
                RowStat::CeGrad { .. } => {
                    let mut d2: Vec<usize> = aux_dep.into_iter().collect();
                    if let Some(wd) = war[p] {
                        d2.push(wd);
                    }
                    let tl = self.load(
                        self.layout.addr(ins[1]) + (ti * rpt * cols * 4) as u64,
                        sp_aux[p],
                        r as u64,
                        cols as u64,
                        (cols * 4) as u64,
                        (cols * 4) as u64,
                        false,
                        d2,
                        core,
                    );
                    deps.push(tl);
                    args[1] = sp_aux[p];
                }
                RowStat::Softmax => {}
            }
            let c = self.compute(&name, cycles, ExecUnit::Vector, args, deps, core);
            war[p] = Some(c);
            stores.push(self.store(
                self.layout.addr(value) + (ti * rpt * cols * 4) as u64,
                sp_out[p],
                r as u64,
                cols as u64,
                (cols * 4) as u64,
                (cols * 4) as u64,
                vec![c],
                core,
            ));
        }
        self.finish_value(value, stores);
        Ok(())
    }

    fn emit_reduce(
        &mut self,
        value: ValueId,
        input: ValueId,
        rows: usize,
        cols: usize,
        scale: f32,
    ) -> Result<()> {
        let sp_words = (self.cfg.npu.scratchpad_bytes / 4) as usize;
        let rpt = rows.min((sp_words / (4 * cols)).max(1)).min(128);
        let tiles = rows.div_ceil(rpt);
        let tile_bytes = (rpt * cols * 4) as u64;
        let sp_in = [0u64, tile_bytes];
        let sp_partial = 2 * tile_bytes;
        let core = (value.index() % self.cores) as u32;
        let in_dep = self.dep_of(input);
        let mut war: [Option<usize>; 2] = [None, None];
        let mut last_compute = None;
        for ti in 0..tiles {
            let p = ti % 2;
            let r = (rows - ti * rpt).min(rpt);
            let name = KernelGen::reduce_name(r, cols, scale);
            let cycles = self.kernel(&name, |kg| kg.reduce_tile(r, cols, scale))?;
            let mut d: Vec<usize> = in_dep.into_iter().collect();
            if let Some(wd) = war[p] {
                d.push(wd);
            }
            let ld = self.load(
                self.layout.addr(input) + (ti * rpt * cols * 4) as u64,
                sp_in[p],
                r as u64,
                cols as u64,
                (cols * 4) as u64,
                (cols * 4) as u64,
                false,
                d,
                core,
            );
            let mut deps = vec![ld];
            // Partial accumulation across tiles is serialized.
            if let Some(c) = last_compute {
                deps.push(c);
            }
            let c = self.compute(
                &name,
                cycles,
                ExecUnit::Vector,
                vec![sp_in[p], 0, sp_partial, 0],
                deps,
                core,
            );
            war[p] = Some(c);
            last_compute = Some(c);
        }
        let st = self.store(
            self.layout.addr(value),
            sp_partial,
            1,
            cols as u64,
            (cols * 4) as u64,
            (cols * 4) as u64,
            last_compute.into_iter().collect(),
            core,
        );
        self.finish_value(value, vec![st]);
        Ok(())
    }

    fn emit_transpose_like(
        &mut self,
        value: ValueId,
        input: ValueId,
        out_shape: &ptsim_tensor::Shape,
    ) -> Result<()> {
        // Transpose through the DMA engine: tiles loaded with the transpose
        // flag and stored back; no compute beyond a pass-through.
        let numel = out_shape.numel();
        let tile = self.elt_tile_elems(numel).min(256 * 256);
        let rows = (tile as f64).sqrt() as usize;
        let rows = rows.max(1);
        let cols = (tile / rows).max(1);
        let per_tile = rows * cols;
        let tiles = numel.div_ceil(per_tile);
        let core = (value.index() % self.cores) as u32;
        let dep = self.dep_of(input);
        let mut stores = Vec::new();
        let mut war: [Option<usize>; 2] = [None, None];
        for ti in 0..tiles {
            let p = ti % 2;
            let sp = (p * per_tile * 4) as u64;
            let mut d: Vec<usize> = dep.into_iter().collect();
            if let Some(wd) = war[p] {
                d.push(wd);
            }
            let ld = self.load(
                self.layout.addr(input) + (ti * per_tile * 4) as u64,
                sp,
                rows as u64,
                cols as u64,
                (cols * 4) as u64,
                (rows * 4) as u64,
                true,
                d,
                core,
            );
            war[p] = Some(ld);
            stores.push(self.store(
                self.layout.addr(value) + (ti * per_tile * 4) as u64,
                sp,
                cols as u64,
                rows as u64,
                (rows * 4) as u64,
                (rows * 4) as u64,
                vec![ld],
                core,
            ));
        }
        self.finish_value(value, stores);
        Ok(())
    }

    /// Fallback emission: loads every operand, runs a vector-unit cost
    /// proxy proportional to `work_elems`, stores the output.
    fn emit_opaque(&mut self, value: ValueId, ins: &[ValueId], work_elems: usize) -> Result<()> {
        let te = self.elt_tile_elems(work_elems.max(1));
        let tiles = work_elems.max(1).div_ceil(te);
        let core = (value.index() % self.cores) as u32;
        let out_bytes = self.layout.bytes(value);
        let mut stores = Vec::new();
        let mut prev: Option<usize> = None;
        for ti in 0..tiles {
            let e = (work_elems - ti * te).min(te);
            let name = KernelGen::eltwise_name(EltOp::Add, e);
            let cycles = self.kernel(&name, |kg| kg.eltwise_tile(EltOp::Add, e))?;
            let mut loads = Vec::new();
            for (j, &input) in ins.iter().enumerate() {
                let region = self.layout.bytes(input);
                let mut d: Vec<usize> = self.dep_of(input).into_iter().collect();
                if let Some(p) = prev {
                    d.push(p);
                }
                let input_base = self.layout.addr(input);
                loads.push(self.load(
                    wrap(input_base + (ti * te * 4) as u64, input_base, region),
                    (j * te * 4) as u64,
                    1,
                    e as u64,
                    (e * 4) as u64,
                    (e * 4) as u64,
                    false,
                    d,
                    core,
                ));
            }
            let c = self.compute(&name, cycles, ExecUnit::Vector, Vec::new(), loads, core);
            prev = Some(c);
            let off = ((ti * te * 4) as u64) % out_bytes.max(4);
            stores.push(self.store(
                self.layout.addr(value) + off,
                0,
                1,
                (out_bytes / 4).min(e as u64),
                out_bytes,
                out_bytes,
                vec![c],
                core,
            ));
        }
        self.finish_value(value, stores);
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum RowStat {
    Softmax,
    LayerNorm { eps: f32 },
    CeGrad { batch: usize },
}

/// A tiled-GEMM emission request.
struct GemmSpec {
    m: usize,
    n: usize,
    k_per_pass: usize,
    passes: usize,
    tiling: GemmTiling,
    epi: Epilogue,
    a_base: u64,
    a_row_stride: u64,
    /// When nonzero, A addresses wrap modulo this region (conv patch view).
    a_region: u64,
    b_base: u64,
    b_row_stride: u64,
    b_region: u64,
    o_base: u64,
    o_row_stride: u64,
    bias: Option<(u64, Option<usize>)>,
    a_dep: Option<usize>,
    b_dep: Option<usize>,
    fg: bool,
    /// Operand buffer slots: 1 = coarse-grained DMA (no load/compute
    /// overlap), 2 = double buffering.
    buffers: usize,
}

impl GemmSpec {
    fn a_addr(
        &self,
        mi: usize,
        tm: usize,
        pass: usize,
        ki: usize,
        tk: usize,
        _tk_r: usize,
    ) -> (u64, u64) {
        let row0 = mi * tm;
        let col0 = pass * self.k_per_pass + ki * tk;
        (self.a_base + (row0 as u64) * self.a_row_stride + (col0 * 4) as u64, self.a_row_stride)
    }

    fn b_addr(
        &self,
        ni: usize,
        tn: usize,
        pass: usize,
        ki: usize,
        tk: usize,
        _tn_r: usize,
    ) -> (u64, u64) {
        let row0 = pass * self.k_per_pass + ki * tk;
        let col0 = ni * tn;
        (self.b_base + (row0 as u64) * self.b_row_stride + (col0 * 4) as u64, self.b_row_stride)
    }

    fn o_addr(&self, mi: usize, tm: usize, ni: usize, tn: usize) -> (u64, u64) {
        (
            self.o_base + (mi * tm) as u64 * self.o_row_stride + (ni * tn * 4) as u64,
            self.o_row_stride,
        )
    }
}

/// Keeps an address inside `[base, base + region)` by wrapping its offset,
/// preserving 64-byte alignment. `region == 0` means no wrapping. Used for
/// CONV patch-matrix addressing, where the logical patch matrix is larger
/// than the underlying tensor because patches overlap (the implicit-im2col
/// engine re-reads input bytes).
fn wrap(addr: u64, base: u64, region: u64) -> u64 {
    if region == 0 || addr < base {
        return addr;
    }
    let offset = (addr - base) % region.max(64);
    base + (offset & !63)
}

fn chunk_rows(total: usize, chunk: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut row = 0;
    while row < total {
        let rows = (total - row).min(chunk);
        out.push((row, rows));
        row += rows;
    }
    out
}

fn is_column_reduce(graph: &Graph, node: &ptsim_graph::GraphNode) -> bool {
    match &node.op {
        Op::SumAxis { axis: 0 } => graph.node(node.inputs[0]).shape.rank() == 2,
        Op::ReduceTo(target) => {
            let in_shape = &graph.node(node.inputs[0]).shape;
            target.rank() == 1 && in_shape.rank() == 2 && in_shape.dim(1) == target.dim(0)
        }
        _ => false,
    }
}
