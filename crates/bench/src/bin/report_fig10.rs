//! Regenerates Fig. 10 (training batch-size study) with the §5.5
//! functional validation. Pass `--jobs N` to parallelize the per-batch
//! timing sweep.

use ptsim_bench::{cli_scale_and_jobs, fig10, print_table};
use ptsim_common::json::ToJson;

fn main() {
    let (scale, jobs) = cli_scale_and_jobs();
    let rows = fig10::run(scale, jobs);
    if std::env::args().any(|a| a == "--json") {
        println!("{}", rows.to_json_string());
        return;
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                r.run.iterations.to_string(),
                r.run.cycles_per_iteration.to_string(),
                r.run.total_cycles.to_string(),
                format!("{:.3} -> {:.3}", r.run.losses[0], r.run.losses.last().unwrap()),
                format!("{:.1}%", 100.0 * r.run.final_accuracy),
            ]
        })
        .collect();
    print_table(
        "Fig. 10 — training batch-size impact",
        &["batch", "iterations", "cycles/iter", "total cycles", "loss first->last", "accuracy"],
        &table,
    );
    if rows.len() >= 2 {
        let (a, b) = (&rows[0], &rows[1]);
        println!(
            "\nper-iteration cost {}: {:.2}x of batch {}, total time {:.2}x",
            b.batch,
            b.run.cycles_per_iteration as f64 / a.run.cycles_per_iteration as f64,
            a.batch,
            b.run.total_cycles as f64 / a.run.total_cycles as f64,
        );
    }
    let (npu, host) = fig10::validate_functional_loss(scale);
    println!(
        "\nvalidation: first-iteration loss NPU {npu:.5} vs host {host:.5} (|diff| {:.1e})",
        (npu - host).abs()
    );
}
