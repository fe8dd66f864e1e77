//! Fig. 10 — impact of the batch-size hyperparameter on training (§5.5).
//!
//! Trains the MLP on the synthetic MNIST-like dataset at two batch sizes
//! and reports per-iteration NPU cycles, total training time, loss
//! trajectories, and final accuracy. The validation half checks that the
//! functional NPU (compiled forward+backward kernels) reproduces the host
//! loss — the paper's "training loss curves from PyTorchSim are identical
//! to those from a real CPU".

use crate::Scale;
use ptsim_common::config::SimConfig;
use ptsim_common::json_record;
use pytorchsim::compiler::{execute_functional, Compiler, CompilerOptions};
use pytorchsim::graph::autodiff::build_training_graph;
use pytorchsim::graph::exec;
use pytorchsim::models::{mlp, SyntheticMnist};
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
use pytorchsim::{train_mlp, training_spec, TrainingRun};

/// One batch size's training results.
#[derive(Debug, Clone)]
pub struct Row {
    /// Batch size.
    pub batch: usize,
    /// The training run (losses, timing, accuracy).
    pub run: TrainingRun,
}

json_record!(ToJson for Row { batch, run });

/// Runs the batch-size study. The per-iteration timing of every batch size
/// — a sweep over the autodiff-expanded forward+backward graphs — runs over
/// `jobs` workers first; the (host-side, inherently sequential) SGD loss
/// loops then reuse those cycle counts via [`train_mlp`].
pub fn run(scale: Scale, jobs: usize) -> Vec<Row> {
    let (samples, epochs, hidden, batches): (usize, usize, usize, Vec<usize>) = match scale {
        Scale::Bench => (512, 2, 64, vec![16, 64]),
        Scale::Full => (4096, 4, 256, vec![32, 256]),
    };
    let cfg = SimConfig::tpu_v3_single_core();
    let data = SyntheticMnist::generate(samples, 7);

    let specs: Vec<_> = batches.iter().map(|&batch| mlp(batch, hidden)).collect();
    let mut sweep = Sweep::new();
    for spec in &specs {
        let train_spec = training_spec(spec).expect("mlp is trainable");
        sweep.push(SweepPoint::model(train_spec, cfg.clone()));
    }
    let timing = sweep.run(&SweepOptions::with_jobs(jobs)).expect("fig10 timing sweep succeeds");

    batches
        .into_iter()
        .zip(specs)
        .zip(&timing.results)
        .map(|((batch, spec), point)| {
            let cycles = point.report.total_cycles;
            let run = train_mlp(&spec, batch, &data, epochs, 0.05, 42, cycles).expect("trains");
            Row { batch, run }
        })
        .collect()
}

/// §5.5 validation: the first training iteration's loss computed by the
/// functional NPU vs the eager host; returns `(npu_loss, host_loss)`.
pub fn validate_functional_loss(scale: Scale) -> (f32, f32) {
    let (batch, hidden) = match scale {
        Scale::Bench => (8, 32),
        Scale::Full => (32, 256),
    };
    let cfg = SimConfig::tpu_v3_single_core();
    let spec = mlp(batch, hidden);
    let train = build_training_graph(&spec.graph, spec.loss.expect("mlp has a loss"))
        .expect("autodiff succeeds");
    let compiled = Compiler::new(cfg.clone(), CompilerOptions::default())
        .compile(&train, "mlp_train_validation", 1)
        .expect("training graph compiles");
    let data = SyntheticMnist::generate(batch * 2, 9);
    let (x, t, _) = data.batch(0, batch);
    let params = spec.init_params(11);
    let npu = execute_functional(&compiled, &cfg.npu, &[x.clone(), t.clone()], &params)
        .expect("functional execution succeeds");
    let eager = exec::execute(&train, &[x, t], &params).expect("eager execution succeeds");
    (npu[0].data()[0], eager.outputs()[0].data()[0])
}
