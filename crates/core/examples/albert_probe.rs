use ptsim_common::config::SimConfig;
use pytorchsim::{models, RunOptions, Simulator};

fn main() {
    let sim = Simulator::new(SimConfig::tpu_v3_single_core());
    let spec = models::albert(512, 1);
    let ils = sim.run(&spec, RunOptions::ils()).unwrap().total_cycles;
    let tls = sim.run(&spec, RunOptions::tls()).unwrap().total_cycles;
    println!(
        "albert_s512_b1: reference {ils}, TLS {tls}, err {:+.1}%",
        100.0 * (tls as f64 - ils as f64) / ils as f64
    );
}
