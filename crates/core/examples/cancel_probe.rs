//! Measures wall-clock cancellation latency: how long after a
//! `CancelToken` deadline expires does a mid-simulation run actually
//! unwind? Times an uncancelled reference run first, then arms a
//! wall-clock deadline at a fraction of it and reports the overshoot
//! (elapsed − deadline) over several trials. Feeds the numbers quoted in
//! EXPERIMENTS.md.

use ptsim_common::config::SimConfig;
use ptsim_common::{CancelToken, Error};
use pytorchsim::{models, RunOptions, Simulator};
use std::time::{Duration, Instant};

fn main() {
    let sim = Simulator::new(SimConfig::tiny());
    let spec = models::gemm(512);

    // Warm the compile cache so the trials measure engine-phase latency,
    // then time the uncancelled reference.
    sim.run(&spec, RunOptions::ils()).unwrap();
    let started = Instant::now();
    let report = sim.run(&spec, RunOptions::ils()).unwrap();
    let reference = started.elapsed();
    println!(
        "reference: gemm_512 ILS, {} cycles in {:.1} ms uncancelled",
        report.total_cycles,
        reference.as_secs_f64() * 1e3
    );

    let deadline = reference / 4;
    let mut overshoots = Vec::new();
    for trial in 0..10 {
        let token = CancelToken::with_timeout(deadline);
        let started = Instant::now();
        let err = sim
            .run(&spec, RunOptions::ils().with_cancel(token))
            .expect_err("a deadline at 1/4 of the reference wall time must fire");
        let elapsed = started.elapsed();
        let overshoot = elapsed.saturating_sub(deadline);
        match err {
            Error::Cancelled { at_cycle, phase } => println!(
                "trial {trial}: cancelled at cycle {at_cycle} ({phase}), \
                 {:.3} ms past the deadline",
                overshoot.as_secs_f64() * 1e3
            ),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        overshoots.push(overshoot);
    }
    overshoots.sort();
    let median = overshoots[overshoots.len() / 2];
    let max = *overshoots.last().unwrap_or(&Duration::ZERO);
    println!(
        "cancellation latency over {} trials: median {:.3} ms, max {:.3} ms \
         (deadline {:.1} ms, reference {:.1} ms)",
        overshoots.len(),
        median.as_secs_f64() * 1e3,
        max.as_secs_f64() * 1e3,
        deadline.as_secs_f64() * 1e3,
        reference.as_secs_f64() * 1e3
    );
}
