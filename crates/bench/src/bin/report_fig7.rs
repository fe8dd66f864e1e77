//! Regenerates Fig. 7 (heterogeneous dense-sparse NPU, multi-model
//! tenancy) plus the §5.1 sparse-TLS validation. Pass `--json` for JSON,
//! `--jobs N` to run the sweeps over N worker threads.

use ptsim_bench::{cli_scale_and_jobs, fig7, print_table};
use ptsim_common::json::{Json, ToJson};

fn main() {
    let (scale, jobs) = cli_scale_and_jobs();

    let h = fig7::run_hetero(scale, jobs);
    if std::env::args().any(|a| a == "--json") {
        let out = Json::obj()
            .set("hetero", h.to_json())
            .set("sparse_validation", fig7::run_sparse_validation(scale).to_json())
            .set("tenancy", fig7::run_tenancy(scale, jobs).to_json());
        println!("{}", out.render());
        return;
    }
    print_table(
        "Fig. 7a — dense/sparse cores: separate chips vs heterogeneous NPU",
        &["core", "alone (cycles)", "integrated (cycles)", "change"],
        &[
            vec![
                "dense (SA)".into(),
                h.dense_alone.to_string(),
                h.dense_hetero.to_string(),
                format!("{:+.0}% speed", 100.0 * (h.dense_speedup() - 1.0)),
            ],
            vec![
                "sparse (SpMSpM)".into(),
                h.sparse_alone.to_string(),
                h.sparse_hetero.to_string(),
                format!("{:+.0}% time", 100.0 * (h.sparse_slowdown() - 1.0)),
            ],
        ],
    );

    let v = fig7::run_sparse_validation(scale);
    print_table(
        "§5.1 validation — sparse TLS vs detailed per-element reference",
        &["workload", "detailed (cy)", "TLS (cy)", "cycle error", "speedup"],
        &v.iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    r.detailed_cycles.to_string(),
                    r.tls_cycles.to_string(),
                    format!("{:.1}%", r.cycle_error_pct()),
                    format!("{:.1}x", r.speedup()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let t = fig7::run_tenancy(scale, jobs);
    let (bert_chg, resnet_chg) = t.latency_changes();
    print_table(
        "Fig. 7b — multi-model tenancy: solo (half BW) vs co-located",
        &[
            "tenant",
            "solo (cycles)",
            "co-located (cycles)",
            "latency change",
            "co-located BW (B/cy)",
        ],
        &[
            vec![
                "BERT".into(),
                t.bert_alone.to_string(),
                t.bert_shared.to_string(),
                format!("{bert_chg:+.1}%"),
                format!("{:.0}", t.bert_bw),
            ],
            vec![
                "ResNet-18".into(),
                t.resnet_alone.to_string(),
                t.resnet_shared.to_string(),
                format!("{resnet_chg:+.1}%"),
                format!("{:.0}", t.resnet_bw),
            ],
        ],
    );
}
