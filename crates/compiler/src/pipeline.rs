//! The staged compile pipeline: content-addressed artifacts per stage.
//!
//! The compiler is split into four explicitly staged artifacts (§3.8's
//! offline-measurement separation taken to its logical end):
//!
//! 1. **Graph capture** ([`GraphArtifact`]): validation plus a canonical
//!    FNV fingerprint of the graph contents. Keyed by nothing but the
//!    graph itself.
//! 2. **Plan** ([`PlanArtifact`]): fusion analysis, memory layout, and
//!    GEMM tilings (including autotune probe selection). Keyed by the
//!    graph fingerprint plus the *plan* config projection — DRAM
//!    bandwidth participates only when autotuning is on.
//! 3. **Kernels** ([`KernelStore`]): ISA codegen plus the cycle-accurate
//!    latency measurement on the timing simulator. Keyed by kernel name
//!    plus the *kernel* config projection (systolic array, vector unit,
//!    scratchpad, DMA issue) — never DRAM or NoC fields, so kernels are
//!    shared across models and across memory-system sweeps.
//! 4. **TOG emission**: deterministic given the plan and the measured
//!    kernels; produces the final `CompiledModel`.
//!
//! Each stage reads *only* the fields its projection fingerprints, which
//! is what makes the per-stage caching sound: see
//! `ptsim_common::config::KernelConfigProjection` and friends.

use crate::tiles::GemmTiling;
use ptsim_common::fingerprint::Fnv;
use ptsim_common::{Error, Result};
use ptsim_graph::{Graph, Op};
use ptsim_isa::program::Program;
use ptsim_timingsim::{TileLatency, TimingSim};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::layout::MemoryLayout;

/// Canonical content fingerprint of a computation graph.
///
/// Folds every node's operator (constants by their IEEE-754 bit
/// patterns, not their display form), shape, and input wiring plus the
/// graph's output list. Two graphs fingerprint equal iff the compiler
/// would treat them identically.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut f = Fnv::new().str("graph-v1");
    f.write_usize(graph.len());
    for node in graph.nodes() {
        match &node.op {
            // Constants are fingerprinted by bits: Debug-formatting floats
            // would be both slow and precision-lossy for large tensors.
            Op::Constant(t) => {
                f.write_str("Constant");
                f.write_usize(t.shape().rank());
                for &d in t.shape().dims() {
                    f.write_usize(d);
                }
                for &v in t.data() {
                    f.write_bytes(&v.to_bits().to_le_bytes());
                }
            }
            op => f.write_str(&format!("{op:?}")),
        }
        f.write_usize(node.shape.rank());
        for &d in node.shape.dims() {
            f.write_usize(d);
        }
        f.write_usize(node.inputs.len());
        for v in &node.inputs {
            f.write_usize(v.index());
        }
    }
    f.write_usize(graph.outputs().len());
    for v in graph.outputs() {
        f.write_usize(v.index());
    }
    f.finish()
}

/// Stage-1 artifact: a validated, fingerprinted graph.
///
/// Deliberately tiny — the graph itself already lives in the `ModelSpec`;
/// what this stage buys is that validation and fingerprinting run once
/// per distinct graph, and every later stage keys off `fingerprint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphArtifact {
    /// Content fingerprint (see [`graph_fingerprint`]).
    pub fingerprint: u64,
    /// Node count, for reporting.
    pub nodes: usize,
}

/// Runs stage 1: validates the graph and fingerprints it.
///
/// # Errors
///
/// Returns [`ptsim_common::Error::InvalidGraph`] if the graph fails
/// structural validation.
pub fn capture(graph: &Graph) -> Result<GraphArtifact> {
    graph.validate()?;
    Ok(GraphArtifact { fingerprint: graph_fingerprint(graph), nodes: graph.len() })
}

/// An autotune probe the planner measured while scoring candidate M-tiles.
///
/// Recorded so TOG emission can replay the probe through the shared
/// [`KernelStore`]: probe kernels belong to the compiled model's kernel
/// map whether the plan was built in this compile or came from a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbedGemm {
    /// Probed M-tile.
    pub tm: usize,
    /// K-tile (the base plan's, shared by all probes of one operator).
    pub tk: usize,
    /// N-tile (likewise).
    pub tn: usize,
}

/// Stage-2 artifact: fusion + tiling + layout plan for one graph.
#[derive(Debug, Clone)]
pub struct PlanArtifact {
    /// Fingerprint of the graph this plan was derived from.
    pub graph_fingerprint: u64,
    /// Fingerprint of the plan itself: graph + plan projection + options.
    pub fingerprint: u64,
    /// Chosen GEMM tiling per MatMul/BatchMatMul graph-node index.
    pub tilings: HashMap<usize, GemmTiling>,
    /// Autotune probes measured while planning, in measurement order.
    pub probes: Vec<ProbedGemm>,
    /// DRAM placement of every graph value.
    pub layout: MemoryLayout,
    /// Timing-simulator measurements performed while planning (autotune
    /// probes that missed the kernel store).
    pub measured: u64,
}

impl PlanArtifact {
    /// Approximate resident size, for cache accounting.
    pub fn approx_bytes(&self) -> u64 {
        let tilings = self.tilings.len() as u64 * 48;
        let probes = self.probes.len() as u64 * 24;
        let layout = self.layout.len() as u64 * 32;
        64 + tilings + probes + layout
    }
}

/// Key of one measured kernel: its canonical name (which encodes tile
/// shape, accumulation, epilogue, and weight-load mode) plus the kernel
/// config-projection fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// Canonical kernel name, e.g. `gemm_m128_k128_n128_a1_e0_w1`.
    pub name: String,
    /// `KernelConfigProjection::fingerprint()` of the target NPU.
    pub config_fp: u64,
}

/// Stage-3 artifact: a generated ISA kernel plus its offline-measured
/// deterministic tile latency.
#[derive(Debug, Clone)]
pub struct MeasuredKernel {
    /// The compiled program.
    pub program: Program,
    /// Cycle-accurate latency measured on the timing simulator.
    pub latency: TileLatency,
}

impl MeasuredKernel {
    /// Approximate resident size, for cache accounting.
    pub fn approx_bytes(&self) -> u64 {
        64 + self.program.name.len() as u64 + self.program.len() as u64 * 16
    }
}

/// Snapshot of [`KernelStore`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStoreStats {
    /// Lookups served from an already-measured kernel (including model- and
    /// plan-level reuse recorded by the owning cache).
    pub hits: u64,
    /// Codegen + timing measurements performed.
    pub misses: u64,
    /// Lookups currently gated behind an in-flight measurement.
    pub in_flight: u64,
    /// Distinct kernels held.
    pub kernels: u64,
    /// Approximate bytes held.
    pub bytes_held: u64,
}

/// The shared per-kernel measurement store (stage 3).
///
/// Thread-safe with exactly-once measurement semantics: concurrent
/// requests for the same [`KernelKey`] serialize on a per-key gate and
/// all but the first observe a hit. Because the key carries only the
/// kernel config projection, distinct models — and distinct DRAM/NoC
/// configurations — requesting the same tile shape share one entry.
#[derive(Debug, Default)]
pub struct KernelStore {
    ready: RwLock<HashMap<KernelKey, Arc<MeasuredKernel>>>,
    inflight: Mutex<HashMap<KernelKey, Arc<Mutex<()>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
}

impl KernelStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KernelStore::default()
    }

    /// Number of distinct kernels held.
    pub fn len(&self) -> usize {
        self.ready.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True if no kernel has been measured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the measured kernel for `name` under `config_fp`, running
    /// `make` plus a timing-simulator measurement exactly once per key.
    ///
    /// The boolean is `true` when this call performed the measurement
    /// (a miss) and `false` when it was served from the store.
    ///
    /// # Errors
    ///
    /// Propagates codegen or timing-simulation errors; failed builds are
    /// not cached.
    pub fn get_or_measure(
        &self,
        name: &str,
        config_fp: u64,
        timing: &TimingSim,
        make: impl FnOnce() -> Result<Program>,
    ) -> Result<(Arc<MeasuredKernel>, bool)> {
        let key = KernelKey { name: name.to_string(), config_fp };
        if let Some(found) = self.lookup(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((found, false));
        }
        // Per-key gate: losers of the race block here, then re-check.
        let gate = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(inflight.entry(key.clone()).or_default())
        };
        let _guard = gate.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(found) = self.lookup(&key) {
            self.release_gate(&key, &gate);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((found, false));
        }
        let result = (|| {
            let program = make()?;
            if program.name != key.name {
                return Err(Error::SimulationFault(format!(
                    "kernel name mismatch: built {:?}, keyed {:?}",
                    program.name, key.name
                )));
            }
            let latency = timing.measure(&program)?;
            Ok(Arc::new(MeasuredKernel { program, latency }))
        })();
        match result {
            Ok(measured) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(measured.approx_bytes(), Ordering::Relaxed);
                let mut ready = self.ready.write().unwrap_or_else(|e| e.into_inner());
                ready.insert(key.clone(), Arc::clone(&measured));
                drop(ready);
                self.release_gate(&key, &gate);
                Ok((measured, true))
            }
            Err(e) => {
                self.release_gate(&key, &gate);
                Err(e)
            }
        }
    }

    fn lookup(&self, key: &KernelKey) -> Option<Arc<MeasuredKernel>> {
        self.ready.read().unwrap_or_else(|e| e.into_inner()).get(key).cloned()
    }

    fn release_gate(&self, key: &KernelKey, gate: &Arc<Mutex<()>>) {
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(current) = inflight.get(key) {
            if Arc::ptr_eq(current, gate) {
                inflight.remove(key);
            }
        }
    }

    /// Records `n` additional hits without touching the map — used by the
    /// owning cache when a plan- or model-level hit short-circuits what
    /// would have been `n` kernel lookups.
    pub fn record_reuse(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> KernelStoreStats {
        KernelStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            in_flight: self.inflight.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
            kernels: self.len() as u64,
            bytes_held: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every kernel and resets byte accounting (hit/miss counters
    /// survive, mirroring `CompileCache::clear`).
    pub fn clear(&self) {
        self.ready.write().unwrap_or_else(|e| e.into_inner()).clear();
        self.bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_common::config::SimConfig;
    use ptsim_graph::GraphBuilder;

    fn mlp_graph(m: usize, k: usize, n: usize) -> Graph {
        let mut g = GraphBuilder::new();
        let x = g.input("x", [m, k]);
        let w = g.parameter("w", [k, n]);
        let y = g.matmul(x, w).unwrap();
        g.output(y);
        g.finish()
    }

    #[test]
    fn graph_fingerprint_is_content_addressed() {
        let a = graph_fingerprint(&mlp_graph(16, 16, 8));
        let b = graph_fingerprint(&mlp_graph(16, 16, 8));
        let c = graph_fingerprint(&mlp_graph(16, 16, 16));
        assert_eq!(a, b, "identical graphs must fingerprint equal");
        assert_ne!(a, c, "shape changes must invalidate");
    }

    #[test]
    fn capture_validates() {
        let art = capture(&mlp_graph(8, 8, 8)).unwrap();
        assert_eq!(art.nodes, 3);
        assert_eq!(art.fingerprint, graph_fingerprint(&mlp_graph(8, 8, 8)));
    }

    #[test]
    fn kernel_store_measures_once_and_counts() {
        let cfg = SimConfig::tiny();
        let kg = crate::kernels::KernelGen::new(&cfg.npu);
        let timing = TimingSim::new(&cfg.npu);
        let fp = cfg.npu.kernel_projection().fingerprint();
        let store = KernelStore::new();
        let name = crate::kernels::KernelGen::gemm_name(
            4,
            4,
            4,
            true,
            crate::kernels::Epilogue::None,
            true,
        );
        let (first, miss) = store
            .get_or_measure(&name, fp, &timing, || {
                kg.gemm_tile_opt(4, 4, 4, true, crate::kernels::Epilogue::None, true)
            })
            .unwrap();
        assert!(miss);
        let (second, miss2) =
            store.get_or_measure(&name, fp, &timing, || panic!("must not rebuild")).unwrap();
        assert!(!miss2);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.kernels), (1, 1, 1));
        assert!(stats.bytes_held > 0);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn kernel_store_keys_on_config_projection() {
        let cfg = SimConfig::tiny();
        let kg = crate::kernels::KernelGen::new(&cfg.npu);
        let timing = TimingSim::new(&cfg.npu);
        let store = KernelStore::new();
        let name = crate::kernels::KernelGen::gemm_name(
            4,
            4,
            4,
            true,
            crate::kernels::Epilogue::None,
            true,
        );
        let build = || kg.gemm_tile_opt(4, 4, 4, true, crate::kernels::Epilogue::None, true);
        store.get_or_measure(&name, 1, &timing, build).unwrap();
        let (_, miss) = store.get_or_measure(&name, 2, &timing, build).unwrap();
        assert!(miss, "a different config projection must be a distinct key");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cfg = SimConfig::tiny();
        let timing = TimingSim::new(&cfg.npu);
        let store = KernelStore::new();
        let err = store
            .get_or_measure("boom", 0, &timing, || Err(Error::Unsupported("nope".into())))
            .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
        assert_eq!(store.len(), 0);
        assert_eq!(store.stats().in_flight, 0, "gate must be released on error");
    }
}
