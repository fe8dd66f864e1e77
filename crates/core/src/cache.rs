//! The shared, thread-safe multi-level compile cache (the §3.10 TOG
//! cache, staged).
//!
//! Compilation — tiling, kernel generation, offline latency measurement —
//! dominates the cost of a simulation *sweep*: the same (model, batch)
//! point recurs across configurations and fidelities, and TLS replays are
//! orders of magnitude cheaper than the compile that feeds them. A
//! [`CompileCache`] holds one store per pipeline stage,
//!
//! ```text
//! graph capture ──► fusion/tiling plan ──► measured kernels ──► model
//!   (graph fp)      (graph + plan-proj      (name + kernel       (full
//!                    + options fps)          config projection)   key)
//! ```
//!
//! each keyed by an FNV content fingerprint over *only the inputs that
//! stage reads* (see `ptsim_common::config` projections). The payoffs:
//! two models sharing GEMM tile shapes share kernel measurements, and a
//! DRAM/NoC parameter sweep — whose configs are invisible to every
//! compile stage unless autotuning — skips planning and measurement
//! entirely.
//!
//! Concurrency design: per level, a `RwLock` map of finished artifacts
//! gives lock-free read scaling on the hot hit path, while a per-key
//! in-flight gate serializes *only* the workers racing to build the same
//! key; distinct keys build in parallel.
//!
//! Stat semantics: a hit at level N is also recorded as a hit at every
//! level below it that the hit short-circuited (a model hit books one
//! plan hit and `kernels.len()` kernel hits), so per-stage hit rates
//! reflect work *avoided*, not merely lookups performed.

use ptsim_common::config::SimConfig;
use ptsim_common::fingerprint::Fnv;
use ptsim_common::json_record;
use ptsim_common::Result;
use ptsim_compiler::{
    graph_fingerprint, CompiledModel, Compiler, CompilerOptions, GraphArtifact, KernelStore,
    PlanArtifact,
};
use ptsim_models::ModelSpec;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Identity of one compilation: the model stage's cache key.
///
/// The graph fingerprint carries the architecture *and* specialization
/// (batch size and sequence length live in the node shapes), so two batch
/// sizes of one model never alias. The config enters through the
/// *compile* projection — only the fields any compile stage reads — so
/// configurations differing in DRAM or NoC parameters alone share one
/// compiled model (unless autotuning, which reads DRAM bandwidth).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    name: String,
    graph_fp: u64,
    config_fp: u64,
    options_fp: u64,
}

impl CacheKey {
    /// Builds the key for compiling `spec` against `cfg` with `opts`.
    pub fn new(spec: &ModelSpec, cfg: &SimConfig, opts: &CompilerOptions) -> Self {
        CacheKey {
            name: spec.name.clone(),
            graph_fp: graph_fingerprint(&spec.graph),
            config_fp: cfg.compile_projection(opts.autotune).fingerprint(),
            options_fp: opts.fingerprint(),
        }
    }

    /// The graph-content fingerprint component of the key.
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph_fp
    }
}

/// Hit/miss/in-flight counters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// Lookups served without rebuilding (including reuse short-circuited
    /// by a higher-level hit).
    pub hits: u64,
    /// Artifacts built.
    pub misses: u64,
    /// Builds currently in flight behind a per-key gate.
    pub in_flight: u64,
}

impl StageStats {
    fn delta(self, before: StageStats) -> StageStats {
        StageStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            in_flight: self.in_flight,
        }
    }
}

json_record!(ToJson for StageStats { hits, misses, in_flight });

/// Counters of a [`CompileCache`], for sweep reporting, `/metrics`, and
/// for asserting that each unique point compiled exactly once.
///
/// `hits`/`compiles` mirror the model stage and predate the staged
/// pipeline; they are kept as the top-level summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileCacheStats {
    /// Requests served from the cache (model level).
    pub hits: u64,
    /// Compilations performed (equals the number of unique keys requested).
    pub compiles: u64,
    /// Approximate bytes held across all levels (models, plans, kernels).
    pub bytes_held: u64,
    /// Models evicted to stay within the byte capacity.
    pub evictions: u64,
    /// Stage 1: graph capture (validation + fingerprint).
    pub graph: StageStats,
    /// Stage 2: fusion/tiling/layout plans.
    pub plan: StageStats,
    /// Stage 3: measured kernels (codegen + timing simulation).
    pub kernel: StageStats,
    /// Stage 4: emitted models.
    pub model: StageStats,
}

impl CompileCacheStats {
    /// Counters accumulated since `before` (for sweep deltas).
    /// `bytes_held` and `in_flight` are point-in-time gauges and are
    /// reported as-is.
    #[must_use]
    pub fn delta(self, before: CompileCacheStats) -> CompileCacheStats {
        CompileCacheStats {
            hits: self.hits - before.hits,
            compiles: self.compiles - before.compiles,
            bytes_held: self.bytes_held,
            evictions: self.evictions - before.evictions,
            graph: self.graph.delta(before.graph),
            plan: self.plan.delta(before.plan),
            kernel: self.kernel.delta(before.kernel),
            model: self.model.delta(before.model),
        }
    }
}

json_record!(ToJson for CompileCacheStats {
    hits,
    compiles,
    bytes_held,
    evictions,
    graph,
    plan,
    kernel,
    model,
});

/// One level of the artifact store: a keyed map with exactly-once build
/// semantics and hit/miss counters.
#[derive(Debug)]
struct Level<K, V> {
    ready: RwLock<HashMap<K, Arc<V>>>,
    inflight: Mutex<HashMap<K, Arc<Mutex<()>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for Level<K, V> {
    fn default() -> Self {
        Level {
            ready: RwLock::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V> Level<K, V> {
    fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.ready.read().expect("compile cache poisoned").get(key).cloned()
    }

    /// Records a hit avoided by a higher-level hit.
    fn record_reuse(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> Result<V>) -> Result<Arc<V>> {
        if let Some(hit) = self.peek(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        // Per-key gate: the first worker in builds, the rest wait here and
        // then take the re-check hit below.
        let gate = {
            let mut inflight = self.inflight.lock().expect("compile cache poisoned");
            Arc::clone(inflight.entry(key.clone()).or_default())
        };
        let _guard = gate.lock().expect("compile cache poisoned");
        if let Some(hit) = self.peek(&key) {
            self.inflight.lock().expect("compile cache poisoned").remove(&key);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let built = match build() {
            Ok(v) => Arc::new(v),
            Err(e) => {
                // Failures are not cached: release the gate so the next
                // request retries.
                self.inflight.lock().expect("compile cache poisoned").remove(&key);
                return Err(e);
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.ready.write().expect("compile cache poisoned").insert(key.clone(), Arc::clone(&built));
        self.inflight.lock().expect("compile cache poisoned").remove(&key);
        Ok(built)
    }

    fn stats(&self) -> StageStats {
        StageStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            in_flight: self.inflight.lock().expect("compile cache poisoned").len() as u64,
        }
    }

    fn clear(&self) {
        self.ready.write().expect("compile cache poisoned").clear();
        self.inflight.lock().expect("compile cache poisoned").clear();
    }
}

/// A model-level entry plus the bookkeeping eviction needs.
#[derive(Debug)]
struct ModelEntry {
    model: Arc<CompiledModel>,
    bytes: u64,
    last_used: u64,
}

/// The multi-level artifact store, shareable as `Arc<CompileCache>`
/// between simulators and sweep workers.
///
/// Levels: graph artifacts by graph fingerprint, plans by
/// (graph, plan-projection, options) fingerprint, measured kernels in a
/// shared [`KernelStore`] keyed by (name, kernel-projection), and
/// compiled models by [`CacheKey`]. Only the model level evicts (LRU,
/// optional byte capacity): lower-level artifacts are small and shared.
#[derive(Debug, Default)]
pub struct CompileCache {
    graphs: Level<u64, GraphArtifact>,
    plans: Level<u64, PlanArtifact>,
    kernels: KernelStore,
    models: RwLock<HashMap<CacheKey, ModelEntry>>,
    model_inflight: Mutex<HashMap<CacheKey, Arc<Mutex<()>>>>,
    model_hits: AtomicU64,
    model_misses: AtomicU64,
    model_bytes: AtomicU64,
    plan_bytes: AtomicU64,
    evictions: AtomicU64,
    capacity_bytes: Option<u64>,
    tick: AtomicU64,
}

impl CompileCache {
    /// Creates an empty cache behind an [`Arc`], ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(CompileCache::default())
    }

    /// Creates a cache that evicts least-recently-used *models* once the
    /// model level exceeds `bytes` (plans and kernels are never evicted:
    /// they are small, shared, and expensive to remeasure).
    pub fn with_capacity(bytes: u64) -> Arc<Self> {
        Arc::new(CompileCache { capacity_bytes: Some(bytes), ..CompileCache::default() })
    }

    /// Number of cached compiled models.
    pub fn len(&self) -> usize {
        self.models.read().expect("compile cache poisoned").len()
    }

    /// Whether the cache holds no models.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared kernel-measurement store (stage 3).
    pub fn kernel_store(&self) -> &KernelStore {
        &self.kernels
    }

    /// Counters so far, across all levels.
    pub fn stats(&self) -> CompileCacheStats {
        let kernel = self.kernels.stats();
        let model_hits = self.model_hits.load(Ordering::Relaxed);
        let model_misses = self.model_misses.load(Ordering::Relaxed);
        CompileCacheStats {
            hits: model_hits,
            compiles: model_misses,
            bytes_held: self.model_bytes.load(Ordering::Relaxed)
                + self.plan_bytes.load(Ordering::Relaxed)
                + kernel.bytes_held,
            evictions: self.evictions.load(Ordering::Relaxed),
            graph: self.graphs.stats(),
            plan: self.plans.stats(),
            kernel: StageStats {
                hits: kernel.hits,
                misses: kernel.misses,
                in_flight: kernel.in_flight,
            },
            model: StageStats {
                hits: model_hits,
                misses: model_misses,
                in_flight: self.model_inflight.lock().expect("compile cache poisoned").len() as u64,
            },
        }
    }

    /// The cached model for `key`, if present (does not count as a hit or
    /// refresh recency).
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<CompiledModel>> {
        self.models.read().expect("compile cache poisoned").get(key).map(|e| Arc::clone(&e.model))
    }

    fn touch(&self, key: &CacheKey) -> Option<Arc<CompiledModel>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut models = self.models.write().expect("compile cache poisoned");
        let entry = models.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.model))
    }

    /// Books the lower-stage work a model-level hit avoided.
    fn cascade_hit(&self, model: &CompiledModel) {
        self.graphs.record_reuse(1);
        self.plans.record_reuse(1);
        self.kernels.record_reuse(model.kernels.len() as u64);
    }

    fn insert_model(&self, key: CacheKey, model: &Arc<CompiledModel>) {
        let bytes = model.approx_bytes();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut models = self.models.write().expect("compile cache poisoned");
        models.insert(key.clone(), ModelEntry { model: Arc::clone(model), bytes, last_used: tick });
        self.model_bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(cap) = self.capacity_bytes {
            while self.model_bytes.load(Ordering::Relaxed) > cap && models.len() > 1 {
                let victim = models
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                let Some(victim) = victim else { break };
                if let Some(evicted) = models.remove(&victim) {
                    self.model_bytes.fetch_sub(evicted.bytes, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Returns the model for `key`, compiling it with `compile` on the
    /// first request. Concurrent requests for the same key block until the
    /// single compilation finishes; requests for distinct keys proceed in
    /// parallel.
    ///
    /// # Errors
    ///
    /// Propagates the compiler's error. Failures are not cached: the next
    /// request retries.
    pub fn get_or_compile(
        &self,
        key: CacheKey,
        compile: impl FnOnce() -> Result<CompiledModel>,
    ) -> Result<Arc<CompiledModel>> {
        if let Some(hit) = self.touch(&key) {
            self.model_hits.fetch_add(1, Ordering::Relaxed);
            self.cascade_hit(&hit);
            return Ok(hit);
        }
        // Per-key gate: the first worker in compiles, the rest wait here
        // and then take the re-check hit below.
        let gate = {
            let mut inflight = self.model_inflight.lock().expect("compile cache poisoned");
            Arc::clone(inflight.entry(key.clone()).or_default())
        };
        let _guard = gate.lock().expect("compile cache poisoned");
        if let Some(hit) = self.touch(&key) {
            self.model_inflight.lock().expect("compile cache poisoned").remove(&key);
            self.model_hits.fetch_add(1, Ordering::Relaxed);
            self.cascade_hit(&hit);
            return Ok(hit);
        }
        let model = match compile() {
            Ok(m) => Arc::new(m),
            Err(e) => {
                self.model_inflight.lock().expect("compile cache poisoned").remove(&key);
                return Err(e);
            }
        };
        self.model_misses.fetch_add(1, Ordering::Relaxed);
        self.insert_model(key.clone(), &model);
        self.model_inflight.lock().expect("compile cache poisoned").remove(&key);
        Ok(model)
    }

    /// Compiles `spec` with `compiler` through the staged pipeline,
    /// caching every stage: graph capture, plan, kernel measurements, and
    /// the emitted model.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors.
    pub fn compile_spec(
        &self,
        compiler: &Compiler,
        spec: &ModelSpec,
    ) -> Result<Arc<CompiledModel>> {
        self.compile_spec_cancellable(compiler, spec, None, None)
    }

    /// [`CompileCache::compile_spec`] with per-stage compile spans
    /// recorded on the tracer's compiler track (wall-clock µs relative to
    /// the start of this compile; a model-level hit records a single
    /// `compile:hit` instant instead) and cooperative cancellation:
    /// `cancel` is polled between every artifact stage (capture → plan →
    /// measure+emit), so a fired token unwinds before the next stage
    /// starts. The unwind is an ordinary `Err` through
    /// [`get_or_compile`](CompileCache::get_or_compile)'s failure path:
    /// nothing partial is cached and the per-key in-flight gate is
    /// released, so a concurrent or later request for the same key simply
    /// compiles afresh — cancellation cannot poison the cache.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors, and returns
    /// [`ptsim_common::Error::Cancelled`] if `cancel` fires between
    /// stages.
    pub fn compile_spec_cancellable(
        &self,
        compiler: &Compiler,
        spec: &ModelSpec,
        tracer: Option<&ptsim_trace::Tracer>,
        cancel: Option<&ptsim_common::CancelToken>,
    ) -> Result<Arc<CompiledModel>> {
        let check = |phase: &'static str| -> Result<()> {
            match cancel {
                Some(token) => token.checkpoint(0, phase),
                None => Ok(()),
            }
        };
        let started = std::time::Instant::now();
        let us = |t: std::time::Instant| (t - started).as_micros() as u64;
        let key = CacheKey::new(spec, compiler.config(), compiler.options());
        let graph_fp = key.graph_fp;
        // Compile spans carry a tag derived from the full cache key, so a
        // trace with interleaved compiles from many requests still shows
        // which spans belong to which compilation unit.
        let span_tag = (key.graph_fp ^ key.config_fp ^ key.options_fp) as u32;
        let compiled = AtomicU64::new(0);
        let model = self.get_or_compile(key, || {
            compiled.store(1, Ordering::Relaxed);
            // Stage 1: graph capture. A fingerprint match skips
            // revalidation of a structurally identical graph.
            check("compile:capture")?;
            let t0 = std::time::Instant::now();
            self.graphs.get_or_build(graph_fp, || {
                spec.graph.validate()?;
                Ok(GraphArtifact { fingerprint: graph_fp, nodes: spec.graph.len() })
            })?;
            if let Some(tr) = tracer {
                tr.compile_span(us(t0), "capture", t0.elapsed().as_micros() as u64, span_tag);
            }
            // Stage 2: plan, keyed by graph + plan projection + options —
            // the exact key `Lowerer::build_plan` stamps on the artifact.
            let opts = compiler.options();
            let plan_key = Fnv::new()
                .str("plan-artifact-v1")
                .u64(graph_fp)
                .u64(compiler.config().plan_projection(opts.autotune).fingerprint())
                .u64(opts.fingerprint())
                .finish();
            check("compile:plan")?;
            let t1 = std::time::Instant::now();
            let plan = self.plans.get_or_build(plan_key, || {
                let plan = compiler.plan(&spec.graph, &self.kernels)?;
                debug_assert_eq!(plan.fingerprint, plan_key, "plan key drifted from artifact");
                self.plan_bytes.fetch_add(plan.approx_bytes(), Ordering::Relaxed);
                Ok(plan)
            })?;
            if let Some(tr) = tracer {
                tr.compile_span(us(t1), "plan", t1.elapsed().as_micros() as u64, span_tag);
            }
            // Stages 3+4: emission measures any still-unknown kernels
            // through the shared store, then assembles the model.
            check("compile:emit")?;
            let t2 = std::time::Instant::now();
            let model = compiler.emit(&spec.graph, &spec.name, 1, &plan, &self.kernels)?;
            if let Some(tr) = tracer {
                tr.compile_span(us(t2), "measure+emit", t2.elapsed().as_micros() as u64, span_tag);
            }
            Ok(model)
        })?;
        if compiled.load(Ordering::Relaxed) == 0 {
            if let Some(tr) = tracer {
                tr.compile_span(started.elapsed().as_micros() as u64, "hit", 0, span_tag);
            }
        }
        Ok(model)
    }

    /// Drops every cached artifact at every level and resets byte
    /// accounting; hit/miss counters keep accumulating.
    pub fn clear(&self) {
        self.models.write().expect("compile cache poisoned").clear();
        self.model_inflight.lock().expect("compile cache poisoned").clear();
        self.graphs.clear();
        self.plans.clear();
        self.kernels.clear();
        self.model_bytes.store(0, Ordering::Relaxed);
        self.plan_bytes.store(0, Ordering::Relaxed);
        self.model_hits.store(0, Ordering::Relaxed);
        self.model_misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_models::{gemm, mlp};

    fn key(spec: &ModelSpec) -> CacheKey {
        CacheKey::new(spec, &SimConfig::tiny(), &CompilerOptions::default())
    }

    #[test]
    fn distinct_batches_of_one_model_get_distinct_keys() {
        // Regression for the name-only cache key: same architecture and
        // name, different batch dimension in the graph shapes.
        let mut a = mlp(4, 32);
        let mut b = mlp(8, 32);
        a.name = "mlp".into();
        b.name = "mlp".into();
        assert_ne!(key(&a), key(&b));
    }

    #[test]
    fn key_depends_on_config_and_options() {
        let spec = gemm(16);
        let base = key(&spec);
        let other_cfg = CacheKey::new(&spec, &SimConfig::tpu_v3(), &CompilerOptions::default());
        let other_opts = CacheKey::new(&spec, &SimConfig::tiny(), &CompilerOptions::unoptimized());
        assert_ne!(base, other_cfg);
        assert_ne!(base, other_opts);
        assert_eq!(base, key(&spec));
    }

    #[test]
    fn dram_only_config_changes_share_the_compiled_model() {
        // The heart of the staged pipeline: with autotune off, no compile
        // stage reads DRAM or NoC fields, so a memory-system sweep hits at
        // the model level.
        let spec = gemm(16);
        let mut swept = SimConfig::tiny();
        swept.dram.channels *= 2;
        swept.dram.transaction_bytes *= 2;
        assert_eq!(key(&spec), CacheKey::new(&spec, &swept, &CompilerOptions::default()));
        // Autotune reads DRAM bandwidth while planning, so the same sweep
        // must recompile.
        let tuned = CompilerOptions { autotune: true, ..CompilerOptions::default() };
        assert_ne!(
            CacheKey::new(&spec, &SimConfig::tiny(), &tuned),
            CacheKey::new(&spec, &swept, &tuned)
        );
    }

    #[test]
    fn concurrent_requests_compile_exactly_once() {
        let cache = CompileCache::shared();
        let cfg = SimConfig::tiny();
        let compiler = Compiler::new(cfg, CompilerOptions::default());
        let spec = gemm(32);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.compile_spec(&compiler, &spec).expect("compiles"));
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.compiles, 1, "exactly one compile for one key");
        assert_eq!(stats.hits, 7);
        assert_eq!(cache.len(), 1);
        assert!(stats.kernel.misses >= 1, "the one compile measured kernels");
        assert_eq!(stats.graph.misses, 1, "one graph capture");
        assert_eq!(stats.plan.misses, 1, "one plan build");
        assert_eq!(stats.model.in_flight, 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = CompileCache::default();
        let spec = gemm(8);
        let k = key(&spec);
        let err = cache
            .get_or_compile(k.clone(), || Err(ptsim_common::Error::Unsupported("nope".into())));
        assert!(err.is_err());
        assert_eq!(cache.stats().compiles, 0);
        let compiler = Compiler::new(SimConfig::tiny(), CompilerOptions::default());
        let ok = cache.get_or_compile(k, || compiler.compile(&spec.graph, &spec.name, 1));
        assert!(ok.is_ok());
        assert_eq!(cache.stats().compiles, 1);
    }

    #[test]
    fn cross_model_kernel_sharing_measures_each_kernel_once() {
        // Two *distinct* models whose GEMMs tile identically: the second
        // compile must reuse every kernel measurement from the first.
        let cache = CompileCache::default();
        let compiler = Compiler::new(SimConfig::tiny(), CompilerOptions::default());
        let a = gemm(32);
        let mut b = gemm(32);
        b.name = "gemm-clone".into();
        let ma = cache.compile_spec(&compiler, &a).unwrap();
        let measured_after_a = cache.stats().kernel.misses;
        let mb = cache.compile_spec(&compiler, &b).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.compiles, 2, "distinct names are distinct models");
        assert_eq!(
            stats.kernel.misses, measured_after_a,
            "second model must not remeasure shared kernels"
        );
        assert_eq!(ma.kernels.len(), mb.kernels.len());
        assert!(stats.kernel.hits >= ma.kernels.len() as u64);
    }

    #[test]
    fn model_hits_cascade_into_stage_counters() {
        let cache = CompileCache::default();
        let compiler = Compiler::new(SimConfig::tiny(), CompilerOptions::default());
        let spec = gemm(16);
        let model = cache.compile_spec(&compiler, &spec).unwrap();
        let before = cache.stats();
        cache.compile_spec(&compiler, &spec).unwrap();
        let delta = cache.stats().delta(before);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.compiles, 0);
        assert_eq!(delta.plan.hits, 1, "model hit books the avoided plan");
        assert_eq!(
            delta.kernel.hits,
            model.kernels.len() as u64,
            "model hit books every avoided kernel measurement"
        );
    }

    #[test]
    fn stats_report_bytes_held() {
        let cache = CompileCache::default();
        let compiler = Compiler::new(SimConfig::tiny(), CompilerOptions::default());
        cache.compile_spec(&compiler, &gemm(16)).unwrap();
        let stats = cache.stats();
        assert!(stats.bytes_held > 0);
        cache.clear();
        assert_eq!(cache.stats().bytes_held, 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used_models() {
        let compiler = Compiler::new(SimConfig::tiny(), CompilerOptions::default());
        let tiny_cap = CompileCache::with_capacity(1);
        tiny_cap.compile_spec(&compiler, &gemm(16)).unwrap();
        tiny_cap.compile_spec(&compiler, &gemm(32)).unwrap();
        let stats = tiny_cap.stats();
        assert!(stats.evictions >= 1, "1-byte capacity must evict");
        assert_eq!(tiny_cap.len(), 1, "the newest model stays resident");
        // The evicted model recompiles on the next request...
        tiny_cap.compile_spec(&compiler, &gemm(16)).unwrap();
        assert_eq!(tiny_cap.stats().compiles, 3);
        // ...but its kernel measurements survived in the kernel store.
        assert_eq!(tiny_cap.stats().kernel.misses, stats.kernel.misses);
    }
}
