//! Regenerates Fig. 6 (simulation speed) at paper scale.
//! Pass `--bench` for the reduced workload set, `--json` for JSON output,
//! `--jobs N` to parallelize the compile warm-up (timings stay serial).
//! Exits non-zero when the shape fails (`fig6::shape_holds`) or an ILS
//! output does not match eager execution.

use ptsim_bench::{cli_scale_and_jobs, fig6, fmt_x, print_table};
use ptsim_common::json::ToJson;

fn main() {
    let (scale, jobs) = cli_scale_and_jobs();
    let rows = fig6::run(scale, jobs);
    let shape = fig6::shape_holds(&rows);
    if std::env::args().any(|a| a == "--json") {
        println!("{}", rows.to_json_string());
    } else {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.3}s", r.tls_sn),
                    format!("{:.3}s", r.tls_cn),
                    format!("{:.3}s", r.ils),
                    format!("{:.3}s", r.mnpusim),
                    fmt_x(r.speedup_sn()),
                    fmt_x(r.speedup_cn()),
                    r.outputs.as_ref().map_or_else(
                        |finding| format!("FINDING: {finding}"),
                        |diff| format!("match ({diff:.1e})"),
                    ),
                ]
            })
            .collect();
        print_table(
            "Fig. 6 — wall-clock simulation time and speedup over ILS",
            &[
                "workload",
                "TLS-SN",
                "TLS-CN",
                "ILS",
                "mNPUsim-like",
                "SN speedup",
                "CN speedup",
                "ILS outputs vs eager",
            ],
            &table,
        );
        let gm_sn: f64 = rows.iter().map(|r| r.speedup_sn().ln()).sum::<f64>() / rows.len() as f64;
        let gm_cn: f64 = rows.iter().map(|r| r.speedup_cn().ln()).sum::<f64>() / rows.len() as f64;
        println!("\ngeomean speedup over ILS: SN {:.2}x, CN {:.2}x", gm_sn.exp(), gm_cn.exp());
        let verdict = if shape { "holds" } else { "FAILS" };
        println!("shape (TLS-SN and TLS-CN faster than ILS on every row): {verdict}");
    }
    if !shape || rows.iter().any(|r| r.outputs.is_err()) {
        std::process::exit(1);
    }
}
