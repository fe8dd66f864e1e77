//! The top-level simulator facade.
//!
//! # API migration
//!
//! The historical `run_inference*` trio collapsed into one entry point,
//! [`Simulator::run`], configured by [`RunOptions`]:
//!
//! | old method (removed)              | replacement                                |
//! |-----------------------------------|--------------------------------------------|
//! | `run_inference(spec)`             | `run(spec, RunOptions::tls())`             |
//! | `run_inference_ils(spec)`         | `run(spec, RunOptions::ils())`             |
//! | `set_tracer(t)` after `new`       | `Simulator::builder(cfg).tracer(t).build()`|
//! | `TogSim::run_reference()`         | `run_with(ExecutionBackend::Reference)`    |
//!
//! The `#[deprecated]` 0.2.0 shims for these are gone; the table stays for
//! readers migrating old call sites. [`RunOptions`] also selects the host
//! [`ExecutionBackend`] (the serial event kernel or the legacy reference
//! loop) — both are bit-identical in simulated results.
//! `run` takes `&self`: the compile cache is interior-locked and
//! shareable, so one `Simulator` (or one [`crate::CompileCache`] across
//! many) can serve concurrent sweep workers — see [`crate::sweep`].

use crate::cache::CompileCache;
use ptsim_common::config::SimConfig;
use ptsim_common::{CancelToken, Cycle, Result};
use ptsim_compiler::{execute_functional, CompiledModel, Compiler, CompilerOptions};
use ptsim_models::ModelSpec;
use ptsim_tensor::Tensor;
use ptsim_togsim::{ExecutionBackend, Fidelity, JobSpec, SimReport, TogSim};
use std::sync::Arc;

/// Per-run configuration of [`Simulator::run`]: fidelity, tracing, and the
/// simulation safety limit, in one vocabulary shared by the inference,
/// training, and cluster facades.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Compute-node fidelity (TLS by default).
    pub fidelity: Fidelity,
    /// Host execution backend (serial by default). [`ExecutionBackend`]
    /// values are bit-identical in simulated results; they differ only in
    /// how the host executes the run.
    pub backend: ExecutionBackend,
    /// Per-run tracer; overrides the simulator's construction-time tracer.
    pub tracer: Option<Arc<ptsim_trace::Tracer>>,
    /// Simulation-length safety limit in cycles, when set.
    pub max_cycles: Option<u64>,
    /// Metrics registry; the engine registers its per-phase counters
    /// (`togsim.iterations`, `togsim.issue_ns`, …) here when set.
    pub metrics: Option<Arc<ptsim_trace::MetricsRegistry>>,
    /// Hardware performance counters: when set, the engine and the DRAM
    /// and NoC models record cycle-resolved counter series (compute-unit
    /// busy cycles per core and kernel, per-channel DRAM bandwidth and
    /// row outcomes, NoC link occupancy, queue depths) into the hub. The
    /// recorded series are bit-identical across every [`ExecutionBackend`].
    pub counters: Option<Arc<ptsim_obs::CounterHub>>,
    /// Cooperative cancellation: when set, the compile stages and the
    /// engine step loop poll the token at bounded intervals and unwind
    /// with [`ptsim_common::Error::Cancelled`] once it fires.
    pub cancel: Option<CancelToken>,
}

impl RunOptions {
    /// Tile-Level Simulation — the fast default.
    pub fn tls() -> Self {
        RunOptions::default()
    }

    /// Instruction-level fidelity, Fig. 5's reference: every compute node
    /// costs its kernel's offline-measured latency plus
    /// [`ptsim_togsim::ILS_PER_TILE_OVERHEAD`] (see [`Fidelity::Ils`]). It
    /// only times; real outputs come from [`Simulator::execute`] /
    /// `execute_functional`, which Fig. 6's ILS column runs alongside it.
    pub fn ils() -> Self {
        RunOptions { fidelity: Fidelity::Ils, ..RunOptions::default() }
    }

    /// Selects an explicit fidelity.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Selects the host execution backend.
    #[must_use]
    pub fn with_backend(mut self, backend: ExecutionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a tracer to this run.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<ptsim_trace::Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Sets the cycle safety limit.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = Some(max_cycles);
        self
    }

    /// Attaches a metrics registry: the simulation engine registers its
    /// per-phase counters there (simulator self-profiling, the
    /// machine-readable replacement of the old `PTSIM_PROFILE` stderr
    /// dump — surfaced by `report_trace --json`).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<ptsim_trace::MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches a performance-counter hub: the engine, DRAM, and NoC
    /// record cycle-resolved counter series into it during the run.
    #[must_use]
    pub fn with_counters(mut self, counters: Arc<ptsim_obs::CounterHub>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Arms cooperative cancellation for this run. The token is polled
    /// between compile stages and at a bounded interval of the engine's
    /// step loop; once it fires the run returns
    /// [`ptsim_common::Error::Cancelled`]. Cancelling never corrupts
    /// shared state: the compile cache treats it as an ordinary failure
    /// (nothing cached, in-flight gates released) and the engine stops the
    /// clock instead of skewing it.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// A TOGSim configured by `opts`: fidelity, tracer (a per-run tracer wins
/// over the facade's `default_tracer`), safety limit, and metrics applied.
/// One construction path shared by the inference, tenancy, sweep, and
/// training facades, so a [`RunOptions`] means the same thing everywhere.
pub(crate) fn build_togsim(
    cfg: &SimConfig,
    opts: &RunOptions,
    default_tracer: Option<&Arc<ptsim_trace::Tracer>>,
) -> TogSim {
    let mut sim = TogSim::new(cfg).with_fidelity(opts.fidelity);
    if let Some(limit) = opts.max_cycles {
        sim.set_max_cycles(limit);
    }
    if let Some(t) = opts.tracer.as_ref().or(default_tracer) {
        sim.set_tracer(Arc::clone(t));
    }
    if let Some(m) = &opts.metrics {
        sim.set_metrics(m);
    }
    if let Some(c) = &opts.counters {
        sim.set_counters(Arc::clone(c));
    }
    if let Some(token) = &opts.cancel {
        sim.set_cancel(token.clone());
    }
    sim
}

/// Construction-time configuration of a [`Simulator`].
#[derive(Debug, Clone, Default)]
pub struct SimulatorBuilder {
    cfg: SimConfig,
    opts: CompilerOptions,
    tracer: Option<Arc<ptsim_trace::Tracer>>,
    cache: Option<Arc<CompileCache>>,
}

impl SimulatorBuilder {
    /// Compiler options (for the §5.3 optimization studies).
    #[must_use]
    pub fn compiler_options(mut self, opts: CompilerOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Default tracer for every run (a per-run [`RunOptions::tracer`]
    /// takes precedence).
    #[must_use]
    pub fn tracer(mut self, tracer: Arc<ptsim_trace::Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Shares an existing compile cache instead of creating a private one,
    /// so identical (model, batch, config, options) points compile once
    /// across simulators and threads.
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Builds the simulator.
    pub fn build(self) -> Simulator {
        Simulator {
            compiler: Compiler::new(self.cfg.clone(), self.opts),
            cfg: self.cfg,
            cache: self.cache.unwrap_or_default(),
            tracer: self.tracer,
        }
    }
}

/// A complete PyTorchSim instance: compiler, compile cache, and simulators
/// for a fixed NPU configuration.
///
/// Compiled models are cached by (name, input shapes, config, compiler
/// options) — the §3.10 TOG cache — so recompilation happens only the
/// first time a (model, batch) combination is seen, even when the cache is
/// shared across simulators or threads.
pub struct Simulator {
    cfg: SimConfig,
    compiler: Compiler,
    cache: Arc<CompileCache>,
    tracer: Option<Arc<ptsim_trace::Tracer>>,
}

impl Simulator {
    /// Creates a simulator with default compiler options.
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_options(cfg, CompilerOptions::default())
    }

    /// Creates a simulator with explicit compiler options (for the §5.3
    /// optimization studies).
    pub fn with_options(cfg: SimConfig, opts: CompilerOptions) -> Self {
        Simulator::builder(cfg).compiler_options(opts).build()
    }

    /// Starts construction-time configuration: compiler options, tracer,
    /// and cache sharing.
    pub fn builder(cfg: SimConfig) -> SimulatorBuilder {
        SimulatorBuilder { cfg, ..SimulatorBuilder::default() }
    }

    /// The NPU configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The active compiler options.
    pub fn compiler_options(&self) -> &CompilerOptions {
        self.compiler.options()
    }

    /// The compile cache (private by default, shared when built with
    /// [`SimulatorBuilder::shared_cache`]).
    pub fn cache(&self) -> &Arc<CompileCache> {
        &self.cache
    }

    /// The construction-time tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<ptsim_trace::Tracer>> {
        self.tracer.as_ref()
    }

    /// Compiles (or fetches from the cache) a model.
    ///
    /// # Errors
    ///
    /// Returns [`ptsim_common::Error::InvalidConfig`] for a degenerate NPU
    /// configuration, or an error if lowering fails.
    pub fn compile(&self, spec: &ModelSpec) -> Result<Arc<CompiledModel>> {
        self.compile_with_cancel(spec, None)
    }

    /// [`Simulator::compile`] with cooperative cancellation polled between
    /// the artifact stages.
    ///
    /// # Errors
    ///
    /// As [`Simulator::compile`], plus [`ptsim_common::Error::Cancelled`]
    /// if `cancel` fires between stages.
    pub fn compile_with_cancel(
        &self,
        spec: &ModelSpec,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<CompiledModel>> {
        self.cfg.validate()?;
        self.cache.compile_spec_cancellable(&self.compiler, spec, self.tracer.as_deref(), cancel)
    }

    /// Number of cached compiled models (over the whole shared cache).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Runs one inference of `spec` under `opts` — the single entry point
    /// replacing the `run_inference*` trio (see the module docs for the
    /// migration table).
    ///
    /// # Errors
    ///
    /// Returns an error if compilation or simulation fails.
    pub fn run(&self, spec: &ModelSpec, opts: RunOptions) -> Result<SimReport> {
        self.cfg.validate()?;
        // A per-run tracer wins over the construction-time default, for
        // compile spans exactly as for simulation events.
        let tracer = opts.tracer.as_deref().or(self.tracer.as_deref());
        let model = self.cache.compile_spec_cancellable(
            &self.compiler,
            spec,
            tracer,
            opts.cancel.as_ref(),
        )?;
        self.run_compiled(&model, &opts)
    }

    /// Runs one inference of an already compiled model under `opts`.
    ///
    /// # Errors
    ///
    /// Returns [`ptsim_common::Error::InvalidConfig`] for a degenerate NPU
    /// configuration, or an error if simulation fails.
    pub fn run_compiled(&self, model: &CompiledModel, opts: &RunOptions) -> Result<SimReport> {
        self.cfg.validate()?;
        let mut sim = self.new_togsim(opts);
        sim.add_shared_job(Arc::new(model.tog.clone()), JobSpec::default());
        sim.run_with(opts.backend)
    }

    /// A TOGSim configured for one run: fidelity, tracer (per-run wins
    /// over construction-time), safety limit, and metrics applied.
    pub(crate) fn new_togsim(&self, opts: &RunOptions) -> TogSim {
        build_togsim(&self.cfg, opts, self.tracer.as_ref())
    }

    /// Runs several compiled models concurrently (multi-model tenancy,
    /// §5.2). Each entry is `(model, core_offset, cores, tag, arrival)`.
    ///
    /// # Errors
    ///
    /// Returns an error if simulation deadlocks.
    pub fn run_tenants(
        &self,
        tenants: &[(Arc<CompiledModel>, usize, usize, u32, Cycle)],
    ) -> Result<SimReport> {
        self.cfg.validate()?;
        let mut sim = self.new_togsim(&RunOptions::tls());
        for (model, core_offset, cores, tag, start_at) in tenants {
            sim.add_shared_job(
                Arc::new(model.tog.clone()),
                JobSpec {
                    core_offset: *core_offset,
                    cores: *cores,
                    tag: *tag,
                    start_at: *start_at,
                },
            );
        }
        sim.run()
    }

    /// Executes `spec` functionally on the NPU (compiled kernels +
    /// functional simulator, with host fallback for unsupported operators),
    /// returning the graph outputs.
    ///
    /// # Errors
    ///
    /// Returns an error on binding mismatches or kernel faults.
    pub fn execute(
        &self,
        spec: &ModelSpec,
        inputs: &[Tensor],
        params: &[Tensor],
    ) -> Result<Vec<Tensor>> {
        let model = self.compile(spec)?;
        execute_functional(&model, &self.cfg.npu, inputs, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_models::{gemm, mlp};

    #[test]
    fn compile_cache_hits_for_identical_specs() {
        let sim = Simulator::new(SimConfig::tiny());
        let spec = gemm(16);
        let a = sim.compile(&spec).unwrap();
        let b = sim.compile(&spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(sim.cache_len(), 1);
        assert_eq!(sim.cache().stats().hits, 1);
    }

    #[test]
    fn compile_cache_does_not_alias_batches_of_one_name() {
        // Regression: the cache used to key on `spec.name` alone, so two
        // batch sizes of the same model aliased to whichever compiled
        // first. The key now includes the input shapes.
        let sim = Simulator::new(SimConfig::tiny());
        let mut small = mlp(4, 32);
        let mut large = mlp(16, 32);
        small.name = "mlp".into();
        large.name = "mlp".into();
        let a = sim.compile(&small).unwrap();
        let b = sim.compile(&large).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "distinct batches must compile separately");
        assert_eq!(sim.cache_len(), 2);
        let small_cycles = sim.run(&small, RunOptions::tls()).unwrap().total_cycles;
        let large_cycles = sim.run(&large, RunOptions::tls()).unwrap().total_cycles;
        assert!(large_cycles > small_cycles, "{small_cycles} vs {large_cycles}");
    }

    #[test]
    fn inference_produces_nonzero_cycles_and_traffic() {
        let sim = Simulator::new(SimConfig::tiny());
        let r = sim.run(&gemm(32), RunOptions::tls()).unwrap();
        assert!(r.total_cycles > 0);
        assert!(r.dram.bytes >= 3 * 32 * 32 * 4);
    }

    #[test]
    fn ils_simulated_cycles_close_to_tls() {
        // TLS is derived from the same kernels measured offline, so the
        // simulated cycle counts must be close (the error is the per-tile
        // overhead ILS adds) — this is the heart of the TLS argument.
        let sim = Simulator::new(SimConfig::tiny());
        let spec = gemm(48);
        let tls = sim.run(&spec, RunOptions::tls()).unwrap().total_cycles;
        let ils = sim.run(&spec, RunOptions::ils()).unwrap().total_cycles;
        let err = (tls as f64 - ils as f64).abs() / ils as f64;
        assert!(err < 0.35, "tls {tls} vs ils {ils} ({:.1}% error)", err * 100.0);
    }

    #[test]
    fn every_backend_yields_identical_reports() {
        let sim = Simulator::new(SimConfig::tiny());
        let spec = gemm(32);
        let serial = sim.run(&spec, RunOptions::tls()).unwrap();
        let reference = RunOptions::tls().with_backend(ExecutionBackend::Reference);
        assert_eq!(serial, sim.run(&spec, reference).unwrap());
    }

    #[test]
    fn pre_cancelled_run_fails_typed_without_poisoning_the_cache() {
        let sim = Simulator::new(SimConfig::tiny());
        let spec = gemm(16);
        let token = CancelToken::new();
        token.cancel();
        let err = sim.run(&spec, RunOptions::tls().with_cancel(token)).unwrap_err();
        assert!(
            matches!(err, ptsim_common::Error::Cancelled { phase: "compile:capture", .. }),
            "{err}"
        );
        // Nothing partial was cached and the in-flight gate was released:
        // the same simulator compiles and runs the spec afresh.
        assert_eq!(sim.cache_len(), 0);
        let report = sim.run(&spec, RunOptions::tls()).unwrap();
        assert_eq!(
            report,
            Simulator::new(SimConfig::tiny()).run(&spec, RunOptions::tls()).unwrap()
        );
    }

    #[test]
    fn budget_cancel_mid_simulation_reports_togsim_phase() {
        let sim = Simulator::new(SimConfig::tiny());
        let spec = gemm(32);
        // Budget past the three compile-stage polls but far below the
        // engine's step count: the cancellation lands mid-simulation.
        let token = CancelToken::with_poll_budget(4);
        let err = sim.run(&spec, RunOptions::tls().with_cancel(token)).unwrap_err();
        assert!(matches!(err, ptsim_common::Error::Cancelled { phase: "togsim", .. }), "{err}");
        // The compiled model was cached before the cancellation hit the
        // engine; an uncancelled retry hits the cache and completes.
        assert_eq!(sim.cache_len(), 1);
        sim.run(&spec, RunOptions::tls()).unwrap();
    }

    #[test]
    fn uncancelled_token_leaves_reports_bit_identical() {
        let sim = Simulator::new(SimConfig::tiny());
        let spec = gemm(32);
        let plain = sim.run(&spec, RunOptions::tls()).unwrap();
        let armed = sim.run(&spec, RunOptions::tls().with_cancel(CancelToken::new())).unwrap();
        assert_eq!(plain, armed, "an unfired token must not perturb the timeline");
    }

    #[test]
    fn builder_shares_cache_between_simulators() {
        let cache = crate::CompileCache::shared();
        let a = Simulator::builder(SimConfig::tiny()).shared_cache(Arc::clone(&cache)).build();
        let b = Simulator::builder(SimConfig::tiny()).shared_cache(Arc::clone(&cache)).build();
        let spec = gemm(16);
        let ma = a.compile(&spec).unwrap();
        let mb = b.compile(&spec).unwrap();
        assert!(Arc::ptr_eq(&ma, &mb));
        assert_eq!(cache.stats().compiles, 1);
        assert_eq!(cache.stats().hits, 1);
    }
}
