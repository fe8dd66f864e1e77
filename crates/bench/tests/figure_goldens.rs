//! Figure goldens: the simulated fields of Fig. 5, 7, 8, 9, 10 and Table 1
//! at bench scale, one JSON row per line, compared with the committed text
//! in `tests/goldens/`. Wall-clock fields are left out. A mismatch prints
//! the new rendering; a change that moves results on purpose commits it as
//! the new golden and names every moved number.

use ptsim_bench::{fig10, fig5, fig7, fig8, fig9, Scale};
use ptsim_common::config::SimConfig;
use ptsim_common::json::{Json, ToJson};
use pytorchsim::timingsim::TimingSim;
use pytorchsim::tog::FlatNodeKind;
use pytorchsim::Simulator;
use std::collections::HashMap;
use std::process::Command;

/// One rendered line per row.
fn lines(rows: impl IntoIterator<Item = Json>) -> String {
    rows.into_iter().map(|r| r.render() + "\n").collect()
}

fn check(figure: &str, golden: &str, rendered: &str) {
    assert!(rendered == golden, "{figure} differs from its golden; new rendering:\n{rendered}");
}

#[test]
fn fig5_cycles_match_golden() {
    let rows = fig5::run(Scale::Bench, 1);
    check("fig5", include_str!("goldens/fig5.txt"), &lines(rows.iter().map(ToJson::to_json)));
}

/// Fig. 7a and the §5.1 cycle columns.
#[test]
fn fig7a_cycles_match_golden() {
    let sparse = fig7::run_sparse_validation(Scale::Bench).into_iter().map(|v| {
        Json::obj()
            .set("name", Json::str(&v.name))
            .set("detailed_cycles", Json::u64(v.detailed_cycles))
            .set("tls_cycles", Json::u64(v.tls_cycles))
    });
    let rendered = lines([fig7::run_hetero(Scale::Bench, 1).to_json()].into_iter().chain(sparse));
    check("fig7a", include_str!("goldens/fig7a.txt"), &rendered);
}

/// Fig. 7b is the slowest figure, so its sweep gets two workers (results
/// are identical at any worker count).
#[test]
fn fig7b_cycles_match_golden() {
    let rendered = lines([fig7::run_tenancy(Scale::Bench, 2).to_json()]);
    check("fig7b", include_str!("goldens/fig7b.txt"), &rendered);
}

#[test]
fn fig8_cycles_match_golden() {
    let rows = [fig8::run_dma, fig8::run_conv_batch1, fig8::run_conv_small_c]
        .into_iter()
        .flat_map(|run| run(Scale::Bench, 1));
    check("fig8", include_str!("goldens/fig8.txt"), &lines(rows.map(|r| r.to_json())));
}

#[test]
fn fig9_cycles_match_golden() {
    let rows = fig9::run(Scale::Bench, 1);
    check("fig9", include_str!("goldens/fig9.txt"), &lines(rows.iter().map(ToJson::to_json)));
}

#[test]
fn fig10_training_matches_golden() {
    let (npu, host) = fig10::validate_functional_loss(Scale::Bench);
    let validation = Json::obj().set("npu_loss", Json::num(npu)).set("host_loss", Json::num(host));
    let rows = fig10::run(Scale::Bench, 1).iter().map(ToJson::to_json).collect::<Vec<_>>();
    check("fig10", include_str!("goldens/fig10.txt"), &lines(rows.into_iter().chain([validation])));
}

/// The rule ILS rests on: every compute node of Fig. 5's workloads carries
/// exactly the latency a fresh timing simulator measures for its kernel,
/// so an ILS node costs its TLS `cycles` plus the per-tile overhead.
#[test]
fn fig5_node_cycles_are_fresh_kernel_measurements() {
    for (label, cfg) in [("tpu_v3", SimConfig::tpu_v3_single_core()), ("tiny", SimConfig::tiny())] {
        let sim = Simulator::new(cfg.clone());
        let timing = TimingSim::new(&cfg.npu);
        for spec in fig5::workloads(Scale::Bench) {
            let model = sim.compile(&spec).expect("compiles");
            let mut measured = HashMap::new();
            for node in &model.tog.nodes {
                let FlatNodeKind::Compute { kernel, cycles, .. } = &node.kind else { continue };
                let fresh = match model.kernels.get(kernel) {
                    Some(program) => *measured
                        .entry(kernel)
                        .or_insert_with(|| timing.measure(program).expect("kernel times").cycles),
                    None => {
                        assert_eq!(kernel, "barrier", "{}: no program for {kernel}", spec.name);
                        0
                    }
                };
                assert_eq!(fresh, *cycles, "{} {kernel} on {label}", spec.name);
            }
        }
    }
}

/// Table 1 has no scale: the committed report is its golden.
#[test]
fn table1_matches_committed_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_report_table1")).output().expect("runs");
    let rendered = String::from_utf8(out.stdout).expect("utf-8 output");
    check("table1", include_str!("../../../reports/table1.txt"), &rendered);
}
