//! DNN training simulation (§5.5): batch-size impact on loss convergence
//! and NPU time.
//!
//! ```sh
//! cargo run --release --example train_mlp
//! ```
//!
//! Trains the paper's MLP (784 → 256 → 10) on the synthetic MNIST-like
//! dataset with two batch sizes. The per-iteration NPU time comes from
//! TOGSim executing the compiled forward+backward TOG (autodiff runs
//! ahead of time, like AOTAutograd); the loss trajectory from functional
//! execution.

use ptsim_common::config::SimConfig;
use pytorchsim::models::{mlp, SyntheticMnist};
use pytorchsim::{train_mlp, training_spec, RunOptions, Simulator};

fn main() -> ptsim_common::Result<()> {
    let sim = Simulator::new(SimConfig::tpu_v3_single_core());
    let data = SyntheticMnist::generate(2048, 7);
    println!("dataset: {} synthetic samples, 10 classes", data.len());

    let mut rows = Vec::new();
    for &batch in &[32usize, 256] {
        let spec = mlp(batch, 256);
        let cycles = sim.run(&training_spec(&spec)?, RunOptions::tls())?.total_cycles;
        let run = train_mlp(&spec, batch, &data, 3, 0.05, 42, cycles)?;
        println!("\nbatch {batch}: {} iterations", run.iterations);
        println!("  per-iteration: {} cycles", run.cycles_per_iteration);
        println!(
            "  total: {} cycles ({:.2} ms simulated)",
            run.total_cycles,
            run.total_cycles as f64 / 940e3
        );
        println!(
            "  loss {:.3} -> {:.3}, accuracy {:.1}%",
            run.losses[0],
            run.losses.last().copied().unwrap_or(f32::NAN),
            100.0 * run.final_accuracy
        );
        rows.push((batch, run));
    }

    let (b0, r0) = &rows[0];
    let (b1, r1) = &rows[1];
    println!(
        "\nper-iteration cost {b1} vs {b0}: {:.2}x for {:.0}x the samples",
        r1.cycles_per_iteration as f64 / r0.cycles_per_iteration as f64,
        *b1 as f64 / *b0 as f64
    );
    println!("epoch time {b1} vs {b0}: {:.2}x", (r1.total_cycles as f64 / r0.total_cycles as f64),);
    Ok(())
}
