//! Regenerates Fig. 5 (simulation accuracy) at paper scale.
//! Pass `--bench` for the reduced workload set, `--json` for JSON output,
//! `--jobs N` to run the sweep over N worker threads.

use ptsim_bench::{cli_scale_and_jobs, fig5, print_table};
use ptsim_common::json::ToJson;

fn main() {
    let (scale, jobs) = cli_scale_and_jobs();
    let rows = fig5::run(scale, jobs);
    if std::env::args().any(|a| a == "--json") {
        println!("{}", rows.to_json_string());
        return;
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.reference.to_string(),
                r.tls.to_string(),
                format!("{:+.1}%", r.tls_err_pct()),
                r.roofline.to_string(),
                r.scalesim.to_string(),
                r.maestro.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 5 — simulated cycles vs the ILS hardware-reference",
        &["workload", "reference", "TLS", "TLS err", "roofline", "scalesim", "maestro"],
        &table,
    );
    println!("\nMAE vs reference:");
    println!("  PyTorchSim (TLS):   {:6.1}%", fig5::mae(&rows, |r| r.tls));
    println!("  Timeloop-like:      {:6.1}%", fig5::mae(&rows, |r| r.roofline));
    println!("  SCALE-Sim-like:     {:6.1}%", fig5::mae(&rows, |r| r.scalesim));
    println!("  MAESTRO-like:       {:6.1}%", fig5::mae(&rows, |r| r.maestro));
}
