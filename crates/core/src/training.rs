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

use ptsim_common::json_record;
use ptsim_common::{Error, Result};
use ptsim_graph::autodiff::build_training_graph;
use ptsim_graph::exec::execute;
use ptsim_graph::train::{Sgd, TrainSession};
use ptsim_graph::ValueId;
use ptsim_models::{ModelSpec, SyntheticMnist};

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

json_record!(ToJson for TrainingRun {
    losses,
    cycles_per_iteration,
    total_cycles,
    iterations,
    final_accuracy,
});

/// The forward+backward pass of `spec` as a compilable model: the
/// autodiff-expanded graph under the canonical `{name}_train` name. Its
/// per-iteration NPU cycles are those of an ordinary run,
/// `Simulator::run(&training_spec(spec)?, opts)`.
///
/// # Errors
///
/// Returns an error if the model has no loss or autodiff fails.
pub fn training_spec(spec: &ModelSpec) -> Result<ModelSpec> {
    Ok(ModelSpec {
        name: format!("{}_train", spec.name),
        graph: build_training_graph(&spec.graph, loss_of(spec)?)?,
        loss: None,
    })
}

fn loss_of(spec: &ModelSpec) -> Result<ValueId> {
    spec.loss.ok_or_else(|| Error::InvalidGraph(format!("model {} has no loss", spec.name)))
}

/// Trains `spec` (whose inputs must be `[x, one-hot t]`) with SGD on a
/// synthetic dataset, pairing the functional loss trajectory with
/// `cycles_per_iteration`, the simulated cost of one forward+backward
/// pass (see [`training_spec`]).
///
/// # Errors
///
/// Returns an error if the model is not trainable or execution fails.
pub fn train_mlp(
    spec: &ModelSpec,
    batch: usize,
    dataset: &SyntheticMnist,
    epochs: usize,
    lr: f32,
    seed: u64,
    cycles_per_iteration: u64,
) -> Result<TrainingRun> {
    let session = TrainSession::new(spec.graph.clone(), loss_of(spec)?)?;
    let mut params = spec.init_params(seed);
    let opt = Sgd::new(lr);
    let iters_per_epoch = (dataset.len() / batch).max(1);
    let mut losses = Vec::new();
    for epoch in 0..epochs {
        for it in 0..iters_per_epoch {
            let (x, t, _) = dataset.batch(epoch * iters_per_epoch + it, batch);
            losses.push(session.step(&[x, t], &mut params, &opt)?);
        }
    }

    // Final accuracy over one sweep of the dataset.
    let mut correct = 0.0;
    let evals = iters_per_epoch;
    for it in 0..evals {
        let (x, t, _) = dataset.batch(it, batch);
        let exec = execute(session.forward_graph(), &[x, t], &params)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOptions, Simulator};
    use ptsim_common::config::SimConfig;
    use ptsim_models::mlp;

    fn iteration_cycles(sim: &Simulator, spec: &ModelSpec) -> u64 {
        sim.run(&training_spec(spec).unwrap(), RunOptions::tls()).unwrap().total_cycles
    }

    #[test]
    fn iteration_cycles_scale_with_batch() {
        let sim = Simulator::new(SimConfig::tiny());
        let small = iteration_cycles(&sim, &mlp(4, 32));
        let large = iteration_cycles(&sim, &mlp(32, 32));
        assert!(large > small, "{small} vs {large}");
        // ...but sub-linearly: larger batches amortize weight loads.
        assert!(large < 8 * small, "{small} vs {large}");
    }

    #[test]
    fn training_reduces_loss_and_reaches_accuracy() {
        let spec = mlp(16, 32);
        let cycles = iteration_cycles(&Simulator::new(SimConfig::tiny()), &spec);
        let data = SyntheticMnist::generate(256, 11);
        let run = train_mlp(&spec, 16, &data, 3, 0.05, 1, cycles).unwrap();
        assert_eq!(run.iterations, 48);
        let first = run.losses[0];
        let last = *run.losses.last().unwrap();
        assert!(last < 0.5 * first, "loss {first} -> {last}");
        assert!(run.final_accuracy > 0.8, "accuracy {}", run.final_accuracy);
        assert_eq!(run.total_cycles, 48 * cycles);
        assert!(run.iterations_to_loss(first * 0.8).is_some());
    }

    #[test]
    fn untrainable_models_are_rejected() {
        assert!(training_spec(&ptsim_models::gemm(8)).is_err());
        let data = SyntheticMnist::generate(16, 1);
        assert!(train_mlp(&ptsim_models::gemm(8), 4, &data, 1, 0.1, 0, 1).is_err());
    }
}
