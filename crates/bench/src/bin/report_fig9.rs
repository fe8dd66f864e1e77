//! Regenerates Fig. 9 (chiplet NUMA mapping). Pass `--jobs N` to run the
//! mapping points over N worker threads.

use ptsim_bench::{cli_scale_and_jobs, fig9, print_table};
use ptsim_common::json::ToJson;

fn main() {
    let (scale, jobs) = cli_scale_and_jobs();
    let rows = fig9::run(scale, jobs);
    if std::env::args().any(|a| a == "--json") {
        println!("{}", rows.to_json_string());
        return;
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            // The paper's §5.4 estimate: 480 GB/s local, 64 GB/s remote,
            // normalized to the 960 GB/s monolithic chip.
            let analytic = if r.local_fraction < 1.0 {
                format!("{:.1}x", fig9::analytical_slowdown(r.local_fraction, 480.0, 64.0))
            } else {
                "1.0x".into()
            };
            vec![
                r.name.clone(),
                format!("{:.0}%", 100.0 * r.local_fraction),
                r.cycles.to_string(),
                format!("{:.2}x", r.normalized),
                analytic,
            ]
        })
        .collect();
    print_table(
        "Fig. 9 — chiplet weight-mapping vs monolithic",
        &["mapping", "local traffic", "cycles", "normalized runtime", "harmonic-mean estimate"],
        &table,
    );
}
