//! Regenerates Fig. 8 (compiler optimization impact). Pass `--json` for
//! JSON, `--jobs N` to run the sweeps over N worker threads.

use ptsim_bench::{cli_scale_and_jobs, fig8, print_table};
use ptsim_common::json::{Json, ToJson};

fn print_rows(title: &str, rows: &[fig8::Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            for (i, (label, cycles)) in r.variants.iter().enumerate() {
                row.push(format!("{label}: {cycles} ({:.2}x)", r.speedup(i)));
            }
            row
        })
        .collect();
    print_table(title, &["workload", "baseline", "variant", "variant2"], &table);
}

fn main() {
    let (scale, jobs) = cli_scale_and_jobs();
    let dma = fig8::run_dma(scale, jobs);
    let conv_batch1 = fig8::run_conv_batch1(scale, jobs);
    let conv_small_c = fig8::run_conv_small_c(scale, jobs);
    if std::env::args().any(|a| a == "--json") {
        let out = Json::obj()
            .set("dma", dma.to_json())
            .set("conv_batch1", conv_batch1.to_json())
            .set("conv_small_c", conv_small_c.to_json());
        println!("{}", out.render());
        return;
    }
    print_rows("Fig. 8a — DMA granularity (CG vs FG vs SFG)", &dma);
    print_rows("Fig. 8b — CONV layout optimization, batch = 1", &conv_batch1);
    print_rows("Fig. 8c — CONV layout optimization, small input channels", &conv_small_c);
}
