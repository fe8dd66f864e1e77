//! DNN training simulation (§5.5).
//!
//! Training couples the timing and functional models (§3.1, Table 2): the
//! per-iteration NPU time comes from TOGSim executing the compiled
//! forward+backward TOG, while the loss trajectory — which determines how
//! many iterations a training run needs — comes from functional execution.
//! Loss curves here use the eager reference for speed (bit-equivalent to
//! the ISA path, which `tests/integration.rs` verifies on sample
//! iterations), matching the paper's observation that functional outputs
//! can be computed on the host.

use crate::cache::CompileCache;
use crate::simulator::RunOptions;
use ptsim_common::config::SimConfig;
use ptsim_common::json::{Json, ToJson};
use ptsim_common::{Error, Result};
use ptsim_compiler::{Compiler, CompilerOptions};
use ptsim_graph::autodiff::build_training_graph;
use ptsim_graph::exec::execute;
use ptsim_graph::train::Sgd;
use ptsim_models::{ModelSpec, SyntheticMnist};
use ptsim_tensor::Tensor;
use ptsim_togsim::JobSpec;
use std::sync::Arc;

/// The result of a simulated training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRun {
    /// Loss after each iteration.
    pub losses: Vec<f32>,
    /// Simulated NPU cycles per training iteration.
    pub cycles_per_iteration: u64,
    /// Total simulated cycles (iterations × per-iteration).
    pub total_cycles: u64,
    /// Iterations executed.
    pub iterations: usize,
    /// Final training-set accuracy in [0, 1].
    pub final_accuracy: f64,
}

impl TrainingRun {
    /// First iteration whose loss drops below `target`, if any.
    pub fn iterations_to_loss(&self, target: f32) -> Option<usize> {
        self.losses.iter().position(|&l| l < target).map(|i| i + 1)
    }
}

impl ToJson for TrainingRun {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("losses", Json::Arr(self.losses.iter().map(|&l| Json::num(l)).collect()))
            .set("cycles_per_iteration", Json::u64(self.cycles_per_iteration))
            .set("total_cycles", Json::u64(self.total_cycles))
            .set("iterations", Json::u64(self.iterations as u64))
            .set("final_accuracy", Json::num(self.final_accuracy))
    }
}

/// Construction-time configuration of a [`TrainingSim`], mirroring
/// [`crate::SimulatorBuilder`] so the facades share one vocabulary.
#[derive(Debug, Clone, Default)]
pub struct TrainingSimBuilder {
    cfg: SimConfig,
    opts: CompilerOptions,
    run: RunOptions,
    cache: Option<Arc<CompileCache>>,
}

impl TrainingSimBuilder {
    /// Compiler options for the forward+backward TOG.
    #[must_use]
    pub fn compiler_options(mut self, opts: CompilerOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Run options (fidelity, tracer, safety limit) of the per-iteration
    /// TOGSim run.
    #[must_use]
    pub fn run_options(mut self, run: RunOptions) -> Self {
        self.run = run;
        self
    }

    /// Tracer for the per-iteration run — shorthand for a
    /// [`RunOptions::with_tracer`] run configuration.
    #[must_use]
    pub fn tracer(mut self, tracer: Arc<ptsim_trace::Tracer>) -> Self {
        self.run.tracer = Some(tracer);
        self
    }

    /// Shares an existing compile cache (e.g. one pre-warmed by a
    /// [`crate::sweep::Sweep`] over the training graphs).
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Builds the training simulator.
    pub fn build(self) -> TrainingSim {
        TrainingSim {
            cfg: self.cfg,
            opts: self.opts,
            run: self.run,
            cache: self.cache.unwrap_or_default(),
        }
    }
}

/// Simulates training of a trainable [`ModelSpec`] on a synthetic dataset.
pub struct TrainingSim {
    cfg: SimConfig,
    opts: CompilerOptions,
    run: RunOptions,
    cache: Arc<CompileCache>,
}

impl TrainingSim {
    /// Creates a training simulator with default options.
    pub fn new(cfg: SimConfig) -> Self {
        TrainingSim::builder(cfg).build()
    }

    /// Starts construction-time configuration.
    pub fn builder(cfg: SimConfig) -> TrainingSimBuilder {
        TrainingSimBuilder { cfg, ..TrainingSimBuilder::default() }
    }

    /// The forward+backward pass of `spec` as a compilable model: the
    /// autodiff-expanded graph under the canonical `{name}_train` name.
    ///
    /// # Errors
    ///
    /// Returns an error if the model has no loss or autodiff fails.
    pub fn training_spec(spec: &ModelSpec) -> Result<ModelSpec> {
        let loss = spec
            .loss
            .ok_or_else(|| Error::InvalidGraph(format!("model {} has no loss", spec.name)))?;
        Ok(ModelSpec {
            name: format!("{}_train", spec.name),
            graph: build_training_graph(&spec.graph, loss)?,
            loss: None,
        })
    }

    /// Per-iteration NPU cycles for the model's forward+backward pass,
    /// from the compiled training TOG on TOGSim. Compilation goes through
    /// the (shareable) compile cache.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a degenerate NPU configuration,
    /// or an error if the model has no loss or compilation fails.
    pub fn iteration_cycles(&self, spec: &ModelSpec) -> Result<u64> {
        self.cfg.validate()?;
        let train_spec = Self::training_spec(spec)?;
        let compiler = Compiler::new(self.cfg.clone(), self.opts.clone());
        let compiled = self.cache.compile_spec(&compiler, &train_spec)?;
        let mut sim = crate::simulator::build_togsim(&self.cfg, &self.run, None);
        sim.add_shared_job(Arc::new(compiled.tog.clone()), JobSpec::default());
        Ok(sim.run_with(self.run.backend)?.total_cycles)
    }

    /// Trains `spec` (whose inputs must be `[x, one-hot t]`) with SGD on a
    /// synthetic dataset, combining the functional loss trajectory with the
    /// per-iteration timing.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is not trainable or execution fails.
    pub fn train_mlp(
        &self,
        spec: &ModelSpec,
        batch: usize,
        dataset: &SyntheticMnist,
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> Result<TrainingRun> {
        let cycles_per_iteration = self.iteration_cycles(spec)?;
        self.train_mlp_with_cycles(spec, batch, dataset, epochs, lr, seed, cycles_per_iteration)
    }

    /// [`TrainingSim::train_mlp`] with externally supplied per-iteration
    /// cycles — for callers that already timed the forward+backward TOG
    /// (e.g. through a parallel [`crate::sweep::Sweep`] over batch sizes)
    /// and only need the functional loss trajectory here.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is not trainable or execution fails.
    #[allow(clippy::too_many_arguments)]
    pub fn train_mlp_with_cycles(
        &self,
        spec: &ModelSpec,
        batch: usize,
        dataset: &SyntheticMnist,
        epochs: usize,
        lr: f32,
        seed: u64,
        cycles_per_iteration: u64,
    ) -> Result<TrainingRun> {
        let loss_value = spec
            .loss
            .ok_or_else(|| Error::InvalidGraph(format!("model {} has no loss", spec.name)))?;
        let train_graph = build_training_graph(&spec.graph, loss_value)?;

        let mut params = spec.init_params(seed);
        let opt = Sgd::new(lr);
        let iters_per_epoch = (dataset.len() / batch).max(1);
        let mut losses = Vec::new();
        for epoch in 0..epochs {
            for it in 0..iters_per_epoch {
                let (x, t, _) = dataset.batch(epoch * iters_per_epoch + it, batch);
                let exec = execute(&train_graph, &[x, t], &params)?;
                let outs = exec.outputs();
                losses.push(outs[0].data()[0]);
                let grads: Vec<Tensor> = outs[1..].iter().map(|&g| g.clone()).collect();
                opt.step(&mut params, &grads)?;
            }
        }

        // Final accuracy over one sweep of the dataset.
        let mut correct = 0.0;
        let evals = iters_per_epoch;
        for it in 0..evals {
            let (x, t, _) = dataset.batch(it, batch);
            let exec = execute(&spec.graph, &[x, t], &params)?;
            correct += dataset.accuracy(exec.outputs()[0], it, batch);
        }
        let iterations = losses.len();
        Ok(TrainingRun {
            losses,
            cycles_per_iteration,
            total_cycles: cycles_per_iteration * iterations as u64,
            iterations,
            final_accuracy: correct / evals as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_models::mlp;

    #[test]
    fn iteration_cycles_scale_with_batch() {
        let sim = TrainingSim::new(SimConfig::tiny());
        let small = sim.iteration_cycles(&mlp(4, 32)).unwrap();
        let large = sim.iteration_cycles(&mlp(32, 32)).unwrap();
        assert!(large > small, "{small} vs {large}");
        // ...but sub-linearly: larger batches amortize weight loads.
        assert!(large < 8 * small, "{small} vs {large}");
    }

    #[test]
    fn training_reduces_loss_and_reaches_accuracy() {
        let sim = TrainingSim::new(SimConfig::tiny());
        let data = SyntheticMnist::generate(256, 11);
        let run = sim.train_mlp(&mlp(16, 32), 16, &data, 3, 0.05, 1).unwrap();
        assert_eq!(run.iterations, 48);
        let first = run.losses[0];
        let last = *run.losses.last().unwrap();
        assert!(last < 0.5 * first, "loss {first} -> {last}");
        assert!(run.final_accuracy > 0.8, "accuracy {}", run.final_accuracy);
        assert!(run.total_cycles > 0);
        assert!(run.iterations_to_loss(first * 0.8).is_some());
    }

    #[test]
    fn untrainable_models_are_rejected() {
        let sim = TrainingSim::new(SimConfig::tiny());
        assert!(sim.iteration_cycles(&ptsim_models::gemm(8)).is_err());
    }
}
