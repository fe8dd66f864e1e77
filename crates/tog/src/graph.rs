//! TOG structure, builder, and loop expansion.

use crate::expr::AddrExpr;
use ptsim_common::{Error, Result};
use std::collections::HashMap;

/// Which execution engine a compute node occupies. The paper captures
/// vector- and matrix-unit latencies separately in the TOG ("In our example
/// model of Google TPU, we capture the information for vector and matrix
/// units separately").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecUnit {
    /// The dataflow (systolic array) pipeline.
    Matrix,
    /// The vector/scalar pipeline.
    Vector,
}

/// The operation performed by one TOG node.
#[derive(Debug, Clone, PartialEq)]
pub enum TogOpKind {
    /// A tile compute operation with an offline-measured latency.
    Compute {
        /// Kernel name (ties back to the compiled program).
        kernel: String,
        /// Deterministic latency from the timing simulator, cycles.
        cycles: u64,
        /// Engine occupied.
        unit: ExecUnit,
        /// For data-dependent tiles: key into the TOG's auxiliary per-tile
        /// latency tables; the n-th instance of this node takes the n-th
        /// entry (§3.7, sparse TLS).
        latency_table: Option<String>,
        /// Kernel ABI arguments (scratchpad operand addresses), evaluated
        /// per instance; used by the functional executor, irrelevant to
        /// timing.
        args: Vec<AddrExpr>,
    },
    /// An asynchronous DRAM→scratchpad tile transfer with full descriptor
    /// geometry (rows × cols elements, strides, optional transpose).
    LoadDma {
        /// Main-memory base address expression.
        mm: AddrExpr,
        /// Scratchpad base address expression.
        sp: AddrExpr,
        /// Tile rows.
        rows: u64,
        /// Tile columns, elements.
        cols: u64,
        /// Main-memory row stride, bytes.
        mm_stride: u64,
        /// Scratchpad row stride, bytes.
        sp_stride: u64,
        /// Transpose on the fly (§3.3.3).
        transpose: bool,
    },
    /// An asynchronous scratchpad→DRAM tile transfer.
    StoreDma {
        /// Main-memory base address expression.
        mm: AddrExpr,
        /// Scratchpad base address expression.
        sp: AddrExpr,
        /// Tile rows.
        rows: u64,
        /// Tile columns, elements.
        cols: u64,
        /// Main-memory row stride, bytes.
        mm_stride: u64,
        /// Scratchpad row stride, bytes.
        sp_stride: u64,
    },
    /// A dependency barrier on a specific `LoadDma` node: consumers of this
    /// node wait for the referenced load's most recent instance. Separating
    /// `loadDMA` from `waitDMA` lets loads be hoisted before compute loops
    /// for overlap (§3.7).
    WaitDma {
        /// The `LoadDma` node id being waited on.
        dma: u32,
    },
}

impl TogOpKind {
    /// Convenience constructor for a dense compute node.
    pub fn compute(kernel: impl Into<String>, cycles: u64, unit: ExecUnit) -> Self {
        TogOpKind::Compute {
            kernel: kernel.into(),
            cycles,
            unit,
            latency_table: None,
            args: Vec::new(),
        }
    }

    /// Convenience constructor for a single-row (contiguous) load DMA of
    /// `bytes` bytes to scratchpad address 0.
    pub fn load(mm: AddrExpr, bytes: u64) -> Self {
        TogOpKind::LoadDma {
            mm,
            sp: AddrExpr::new(0),
            rows: 1,
            cols: bytes / 4,
            mm_stride: bytes,
            sp_stride: bytes,
            transpose: false,
        }
    }

    /// Convenience constructor for a single-row (contiguous) store DMA.
    pub fn store(mm: AddrExpr, bytes: u64) -> Self {
        TogOpKind::StoreDma {
            mm,
            sp: AddrExpr::new(0),
            rows: 1,
            cols: bytes / 4,
            mm_stride: bytes,
            sp_stride: bytes,
        }
    }
}

/// One TOG node: an operation plus dependencies on other node ids.
#[derive(Debug, Clone, PartialEq)]
pub struct TogOp {
    /// The operation.
    pub kind: TogOpKind,
    /// Node ids this node depends on (resolved to the dep's most recent
    /// instance at expansion time).
    pub deps: Vec<u32>,
}

/// A structured TOG item: a node or a counted loop.
#[derive(Debug, Clone, PartialEq)]
pub enum TogItem {
    /// A counted loop (`loopBegin`/`loopEnd` pair of the paper).
    Loop {
        /// Loop-variable id referenced by address expressions.
        var: u32,
        /// Trip count.
        count: u64,
        /// Loop body.
        body: Vec<TogItem>,
    },
    /// A single node.
    Op {
        /// Node id (unique within the TOG).
        id: u32,
        /// The node.
        op: TogOp,
    },
}

/// A Tile Operation Graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tog {
    /// Name (model + operation + batch).
    pub name: String,
    /// Structured body.
    pub items: Vec<TogItem>,
    /// Auxiliary per-tile latency tables for data-dependent computes.
    pub aux_latencies: HashMap<String, Vec<u64>>,
}

impl Tog {
    /// Flattens loops into an executable instance graph.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGraph`] on dangling dependencies or exhausted
    /// auxiliary latency tables.
    pub fn expand(&self) -> Result<ExecutableTog> {
        let mut ex = Expander {
            nodes: Vec::new(),
            binding: HashMap::new(),
            last_instance: HashMap::new(),
            wait_targets: HashMap::new(),
            table_counters: HashMap::new(),
            aux: &self.aux_latencies,
        };
        ex.run(&self.items)?;
        Ok(ExecutableTog { name: self.name.clone(), nodes: ex.nodes })
    }

    /// Counts the structural nodes (not instances).
    pub fn op_count(&self) -> usize {
        fn walk(items: &[TogItem]) -> usize {
            items
                .iter()
                .map(|i| match i {
                    TogItem::Loop { body, .. } => walk(body),
                    TogItem::Op { .. } => 1,
                })
                .sum()
        }
        walk(&self.items)
    }
}

struct Expander<'a> {
    nodes: Vec<FlatNode>,
    binding: HashMap<u32, u64>,
    last_instance: HashMap<u32, usize>,
    wait_targets: HashMap<u32, usize>,
    table_counters: HashMap<String, usize>,
    aux: &'a HashMap<String, Vec<u64>>,
}

impl Expander<'_> {
    fn run(&mut self, items: &[TogItem]) -> Result<()> {
        for item in items {
            match item {
                TogItem::Loop { var, count, body } => {
                    for i in 0..*count {
                        self.binding.insert(*var, i);
                        self.run(body)?;
                    }
                    self.binding.remove(var);
                }
                TogItem::Op { id, op } => self.emit(*id, op)?,
            }
        }
        Ok(())
    }

    fn resolve_dep(&self, dep: u32) -> Result<usize> {
        if let Some(&target) = self.wait_targets.get(&dep) {
            return Ok(target);
        }
        self.last_instance.get(&dep).copied().ok_or_else(|| {
            Error::InvalidGraph(format!("dependency on node {dep} with no prior instance"))
        })
    }

    fn emit(&mut self, id: u32, op: &TogOp) -> Result<()> {
        match &op.kind {
            TogOpKind::WaitDma { dma } => {
                // Pure dependency marker: resolve and remember the target.
                let target = self.last_instance.get(dma).copied().ok_or_else(|| {
                    Error::InvalidGraph(format!("waitDMA on load {dma} with no prior instance"))
                })?;
                self.wait_targets.insert(id, target);
                Ok(())
            }
            kind => {
                let mut deps = Vec::with_capacity(op.deps.len());
                for &d in &op.deps {
                    deps.push(self.resolve_dep(d)?);
                }
                let flat_kind = match kind {
                    TogOpKind::Compute { kernel, cycles, unit, latency_table, args } => {
                        let cycles = match latency_table {
                            Some(key) => {
                                let counter = self.table_counters.entry(key.clone()).or_insert(0);
                                let table = self.aux.get(key).ok_or_else(|| {
                                    Error::InvalidGraph(format!("missing latency table {key}"))
                                })?;
                                let c = *table.get(*counter).ok_or_else(|| {
                                    Error::InvalidGraph(format!(
                                        "latency table {key} exhausted at instance {counter}"
                                    ))
                                })?;
                                *counter += 1;
                                c
                            }
                            None => *cycles,
                        };
                        FlatNodeKind::Compute {
                            kernel: kernel.clone(),
                            cycles,
                            unit: *unit,
                            args: args.iter().map(|a| a.eval(&self.binding)).collect(),
                        }
                    }
                    TogOpKind::LoadDma { mm, sp, rows, cols, mm_stride, sp_stride, transpose } => {
                        FlatNodeKind::LoadDma {
                            addr: mm.eval(&self.binding),
                            sp: sp.eval(&self.binding),
                            rows: *rows,
                            cols: *cols,
                            mm_stride: *mm_stride,
                            sp_stride: *sp_stride,
                            transpose: *transpose,
                        }
                    }
                    TogOpKind::StoreDma { mm, sp, rows, cols, mm_stride, sp_stride } => {
                        FlatNodeKind::StoreDma {
                            addr: mm.eval(&self.binding),
                            sp: sp.eval(&self.binding),
                            rows: *rows,
                            cols: *cols,
                            mm_stride: *mm_stride,
                            sp_stride: *sp_stride,
                        }
                    }
                    TogOpKind::WaitDma { .. } => unreachable!("handled above"),
                };
                let idx = self.nodes.len();
                self.nodes.push(FlatNode { kind: flat_kind, deps, core: 0 });
                self.last_instance.insert(id, idx);
                Ok(())
            }
        }
    }
}

/// One expanded node instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatNode {
    /// The resolved operation.
    pub kind: FlatNodeKind,
    /// Indices of earlier nodes this instance depends on.
    pub deps: Vec<usize>,
    /// NPU core this node is assigned to (the compiler partitions tile
    /// work across cores; schedulers may re-map with an offset).
    pub core: u32,
}

/// The resolved operation of a [`FlatNode`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlatNodeKind {
    /// A tile compute with its final latency.
    Compute {
        /// Kernel name.
        kernel: String,
        /// Latency, cycles.
        cycles: u64,
        /// Engine occupied.
        unit: ExecUnit,
        /// Evaluated kernel ABI arguments (scratchpad addresses).
        args: Vec<u64>,
    },
    /// A load DMA with concrete addresses and geometry.
    LoadDma {
        /// Main-memory byte address.
        addr: u64,
        /// Scratchpad byte address.
        sp: u64,
        /// Tile rows.
        rows: u64,
        /// Tile columns, elements.
        cols: u64,
        /// Main-memory row stride, bytes.
        mm_stride: u64,
        /// Scratchpad row stride, bytes.
        sp_stride: u64,
        /// Transpose on the fly.
        transpose: bool,
    },
    /// A store DMA with concrete addresses and geometry.
    StoreDma {
        /// Main-memory byte address.
        addr: u64,
        /// Scratchpad byte address.
        sp: u64,
        /// Tile rows.
        rows: u64,
        /// Tile columns, elements.
        cols: u64,
        /// Main-memory row stride, bytes.
        mm_stride: u64,
        /// Scratchpad row stride, bytes.
        sp_stride: u64,
    },
}

impl FlatNodeKind {
    /// Bytes moved by a DMA node (0 for compute).
    pub fn dma_bytes(&self) -> u64 {
        match self {
            FlatNodeKind::LoadDma { rows, cols, .. }
            | FlatNodeKind::StoreDma { rows, cols, .. } => rows * cols * 4,
            FlatNodeKind::Compute { .. } => 0,
        }
    }
}

/// A fully expanded TOG ready for tile-level simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutableTog {
    /// Name inherited from the TOG.
    pub name: String,
    /// Instances in dependency (topological) order.
    pub nodes: Vec<FlatNode>,
}

impl ExecutableTog {
    /// Sum of compute-node latencies (a serial lower bound on compute).
    pub fn total_compute_cycles(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n.kind {
                FlatNodeKind::Compute { cycles, .. } => cycles,
                _ => 0,
            })
            .sum()
    }

    /// Total DMA traffic in bytes.
    pub fn total_dma_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.kind.dma_bytes()).sum()
    }

    /// Verifies the topological invariant (deps point strictly backward).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGraph`] on a forward or self dependency.
    pub fn validate(&self) -> Result<()> {
        for (i, node) in self.nodes.iter().enumerate() {
            for &d in &node.deps {
                if d >= i {
                    return Err(Error::InvalidGraph(format!(
                        "node {i} depends on later or self node {d}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Builds TOGs with automatic id assignment and loop nesting.
#[derive(Debug, Clone, Default)]
pub struct TogBuilder {
    name: String,
    stack: Vec<Vec<TogItem>>,
    loop_meta: Vec<(u32, u64)>,
    next_id: u32,
    next_var: u32,
    aux: HashMap<String, Vec<u64>>,
}

impl TogBuilder {
    /// Creates a builder for a TOG with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TogBuilder { name: name.into(), stack: vec![Vec::new()], ..Self::default() }
    }

    /// Opens a counted loop; returns the loop-variable id for address
    /// expressions.
    pub fn begin_loop(&mut self, count: u64) -> u32 {
        let var = self.next_var;
        self.next_var += 1;
        self.loop_meta.push((var, count));
        self.stack.push(Vec::new());
        var
    }

    /// Closes the innermost loop.
    ///
    /// # Panics
    ///
    /// Panics if no loop is open (a compiler bug).
    pub fn end_loop(&mut self) {
        let body = self.stack.pop().expect("unbalanced end_loop");
        let (var, count) = self.loop_meta.pop().expect("unbalanced end_loop");
        self.current().push(TogItem::Loop { var, count, body });
    }

    /// Appends a node with dependencies; returns its id.
    pub fn node(&mut self, kind: TogOpKind, deps: &[u32]) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let op = TogOp { kind, deps: deps.to_vec() };
        self.current().push(TogItem::Op { id, op });
        id
    }

    /// Registers an auxiliary per-tile latency table.
    pub fn aux_table(&mut self, key: impl Into<String>, latencies: Vec<u64>) {
        self.aux.insert(key.into(), latencies);
    }

    fn current(&mut self) -> &mut Vec<TogItem> {
        self.stack.last_mut().expect("builder always has a scope")
    }

    /// Finishes the TOG.
    ///
    /// # Panics
    ///
    /// Panics if loops are still open.
    pub fn finish(mut self) -> Tog {
        assert_eq!(self.stack.len(), 1, "unbalanced loops at finish");
        Tog {
            name: self.name,
            items: self.stack.pop().expect("root scope"),
            aux_latencies: self.aux,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn simple_loop_tog(n: u64) -> Tog {
        let mut b = TogBuilder::new("t");
        let i = b.begin_loop(n);
        let ld = b.node(TogOpKind::load(AddrExpr::new(0).with_term(i, 64), 64), &[]);
        let w = b.node(TogOpKind::WaitDma { dma: ld }, &[]);
        let c = b.node(TogOpKind::compute("k", 10, ExecUnit::Matrix), &[w]);
        b.node(TogOpKind::store(AddrExpr::new(0x1000).with_term(i, 64), 64), &[c]);
        b.end_loop();
        b.finish()
    }

    #[test]
    fn expansion_resolves_addresses_per_iteration() {
        let tog = simple_loop_tog(3);
        let flat = tog.expand().unwrap();
        flat.validate().unwrap();
        assert_eq!(flat.nodes.len(), 9); // waitDMA dissolves
        match flat.nodes[3].kind {
            FlatNodeKind::LoadDma { addr, .. } => assert_eq!(addr, 64),
            ref k => panic!("unexpected {k:?}"),
        }
        match flat.nodes[8].kind {
            FlatNodeKind::StoreDma { addr, .. } => assert_eq!(addr, 0x1000 + 128),
            ref k => panic!("unexpected {k:?}"),
        }
    }

    #[test]
    fn wait_dma_links_compute_to_load() {
        let flat = simple_loop_tog(2).expand().unwrap();
        // Node order per iter: load, compute, store.
        // Compute (idx 1) must depend on load (idx 0).
        assert_eq!(flat.nodes[1].deps, vec![0]);
        assert_eq!(flat.nodes[4].deps, vec![3]);
    }

    #[test]
    fn totals_accumulate() {
        let flat = simple_loop_tog(4).expand().unwrap();
        assert_eq!(flat.total_compute_cycles(), 40);
        assert_eq!(flat.total_dma_bytes(), 4 * 128);
    }

    #[test]
    fn aux_latency_tables_feed_instances() {
        let mut b = TogBuilder::new("sparse");
        b.aux_table("sp", vec![5, 7, 11]);
        let i = b.begin_loop(3);
        let _ = i;
        b.node(
            TogOpKind::Compute {
                kernel: "spmspm".into(),
                cycles: 0,
                unit: ExecUnit::Matrix,
                latency_table: Some("sp".into()),
                args: Vec::new(),
            },
            &[],
        );
        b.end_loop();
        let flat = b.finish().expand().unwrap();
        let cycles: Vec<u64> = flat
            .nodes
            .iter()
            .map(|n| match n.kind {
                FlatNodeKind::Compute { cycles, .. } => cycles,
                _ => 0,
            })
            .collect();
        assert_eq!(cycles, vec![5, 7, 11]);
    }

    #[test]
    fn exhausted_latency_table_is_an_error() {
        let mut b = TogBuilder::new("sparse");
        b.aux_table("sp", vec![5]);
        let _ = b.begin_loop(2);
        b.node(
            TogOpKind::Compute {
                kernel: "spmspm".into(),
                cycles: 0,
                unit: ExecUnit::Matrix,
                latency_table: Some("sp".into()),
                args: Vec::new(),
            },
            &[],
        );
        b.end_loop();
        assert!(b.finish().expand().is_err());
    }

    #[test]
    fn dangling_dependency_is_an_error() {
        let mut b = TogBuilder::new("bad");
        b.node(TogOpKind::compute("k", 1, ExecUnit::Vector), &[99]);
        assert!(b.finish().expand().is_err());
    }

    #[test]
    fn cross_iteration_deps_use_most_recent_instance() {
        // A compute outside the loop depending on the loop's store sees the
        // final iteration's store.
        let mut b = TogBuilder::new("t");
        let i = b.begin_loop(3);
        let st = b.node(TogOpKind::store(AddrExpr::new(0).with_term(i, 8), 8), &[]);
        b.end_loop();
        let c = b.node(TogOpKind::compute("k", 1, ExecUnit::Vector), &[st]);
        let _ = c;
        let flat = b.finish().expand().unwrap();
        assert_eq!(flat.nodes.len(), 4);
        assert_eq!(flat.nodes[3].deps, vec![2]);
    }

    proptest! {
        #[test]
        fn expansion_instance_count_matches(n in 1u64..20) {
            let flat = simple_loop_tog(n).expand().unwrap();
            prop_assert_eq!(flat.nodes.len() as u64, 3 * n);
            flat.validate().unwrap();
        }

        #[test]
        fn nested_loops_multiply(outer in 1u64..6, inner in 1u64..6) {
            let mut b = TogBuilder::new("nest");
            let o = b.begin_loop(outer);
            let i = b.begin_loop(inner);
            b.node(
                TogOpKind::load(AddrExpr::new(0).with_term(o, 1024).with_term(i, 64), 64),
                &[],
            );
            b.end_loop();
            b.end_loop();
            let flat = b.finish().expand().unwrap();
            prop_assert_eq!(flat.nodes.len() as u64, outer * inner);
            // Last instance address reflects both variables.
            match flat.nodes.last().unwrap().kind {
                FlatNodeKind::LoadDma { addr, .. } => {
                    prop_assert_eq!(addr, (outer - 1) * 1024 + (inner - 1) * 64);
                }
                ref k => prop_assert!(false, "unexpected {:?}", k),
            }
        }
    }
}
