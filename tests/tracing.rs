//! End-to-end tracing acceptance tests: a real model run must export a
//! well-formed, cycle-ordered, properly nested Chrome trace, and a
//! disabled tracer must record nothing on the hot paths.

use ptsim_common::config::SimConfig;
use pytorchsim::models;
use pytorchsim::obs::{profile, CounterConfig, CounterHub, CounterKey};
use pytorchsim::trace::{chrome, validate, EventData, Tracer, Track};
use pytorchsim::{ClusterConfig, ClusterSim, RunOptions, Simulator};

#[test]
fn bert_run_exports_a_valid_perfetto_trace() {
    let tracer = Tracer::shared();
    let sim = Simulator::new(SimConfig::tiny());
    // A depth-reduced BERT-Base: the full encoder block (attention +
    // FFN + layernorms) at real widths, truncated to 2 layers so the
    // test stays fast while exercising every instrumented layer.
    let cfg = models::BertConfig { layers: 2, ..models::BertConfig::base(32, 1) };
    let opts = RunOptions::tls().with_tracer(tracer.clone());
    let report = sim.run(&models::bert(cfg, "bert_base"), opts).unwrap();
    assert!(report.total_cycles > 0);

    // The run touched every instrumented layer.
    let events = tracer.events();
    assert!(events.iter().any(|e| matches!(e.data, EventData::TileCompute { .. })));
    assert!(events.iter().any(|e| matches!(e.data, EventData::DmaIssue { .. })));
    assert!(events.iter().any(|e| matches!(e.data, EventData::DmaTransfer { .. })));
    assert!(events.iter().any(|e| matches!(e.data, EventData::DramTx { .. })));

    // The export parses as Chrome trace JSON with events well-formed,
    // cycle-ordered per track, and spans properly nested.
    let json = chrome::export_chrome_trace(&events);
    let check = validate::validate_chrome_trace(&json).expect("trace must validate");
    assert!(check.spans > 0, "expected compute spans");
    assert!(check.async_pairs > 0, "expected DMA async spans");
    assert!(check.instants > 0, "expected DRAM/issue instants");
    assert!(check.tracks >= 2, "expected core and DRAM tracks, got {}", check.tracks);
}

#[test]
fn disabled_tracer_records_nothing_on_hot_paths() {
    let sim = Simulator::new(SimConfig::tiny());
    let tracer = Tracer::shared();
    tracer.set_enabled(false);
    sim.run(&models::gemm(64), RunOptions::tls().with_tracer(tracer.clone())).unwrap();
    assert!(tracer.is_empty(), "disabled tracer must take the cheap-guard branch");
    assert_eq!(tracer.dropped(), 0);
    assert_eq!(chrome::export_chrome_trace(&tracer.events()), "[]");
}

#[test]
fn cluster_iteration_traces_both_allreduce_phases() {
    let tracer = Tracer::shared();
    let sim = ClusterSim::new(SimConfig::tiny(), ClusterConfig::pod_of(4));
    let opts = RunOptions::tls().with_tracer(tracer.clone());
    sim.iteration(|b| models::mlp(b, 32), 16, &opts).unwrap();

    let events = tracer.events();
    let phases: Vec<(&str, u32)> = events
        .iter()
        .filter_map(|e| match &e.data {
            EventData::AllReduce { phase, .. } => Some((phase.name(), e.tag)),
            _ => None,
        })
        .collect();
    // Every NPU rank records its own span pair (the tag used to be
    // hard-coded to 0, attributing the whole collective to NPU 0).
    let scatters: Vec<u32> =
        phases.iter().filter(|(p, _)| *p == "reduceScatter").map(|&(_, t)| t).collect();
    let gathers: Vec<u32> =
        phases.iter().filter(|(p, _)| *p == "allGather").map(|&(_, t)| t).collect();
    assert_eq!(scatters, [0, 1, 2, 3]);
    assert_eq!(gathers, [0, 1, 2, 3]);
    // The shard's training graph compiles through the traced run path, so
    // its compile stages land on the same tracer.
    let compile_stages: Vec<&str> = events
        .iter()
        .filter(|e| e.track == Track::Compiler)
        .filter_map(|e| match &e.data {
            EventData::Marker { label } => Some(label.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(compile_stages, ["compile:capture", "compile:plan", "compile:measure+emit"]);

    let json = chrome::export_chrome_trace(&events);
    let check = validate::validate_chrome_trace(&json).expect("trace must validate");
    assert!(check.spans >= 2, "allreduce phases must appear as spans");
}

/// `ptsim profile resnet --bench` at two bucket widths: the bucket only sets
/// the resolution, so the compute column is the same, and it covers the
/// matrix unit's busy time (99 % of the run). No lane bucket holds more
/// busy cycles than its width.
#[test]
fn resnet_compute_share_does_not_depend_on_the_bucket_width() {
    let sim = Simulator::new(SimConfig::tpu_v3_single_core());
    let model = sim.compile(&models::resnet18(1)).unwrap();
    let profile_at = |cycles_per_bucket| {
        let hub = CounterHub::shared(CounterConfig { cycles_per_bucket, ..Default::default() });
        let opts = RunOptions::tls().with_counters(hub.clone());
        let report = sim.run_compiled(&model, &opts).unwrap();
        for s in hub.snapshot() {
            if matches!(
                s.key,
                CounterKey::CoreMatrixBusy { .. } | CounterKey::CoreVectorBusy { .. }
            ) {
                let over = s.buckets.iter().position(|&b| b > s.cycles_per_bucket);
                assert_eq!(over, None, "{} overfull at width {}", s.name, s.cycles_per_bucket);
            }
        }
        let attr = profile::attribute(&hub, report.total_cycles);
        let compute: u64 = attr.kernels.iter().map(|k| k.compute).sum();
        (compute, report.total_cycles)
    };
    let (fine, total) = profile_at(1024);
    let (coarse, _) = profile_at(16384);
    assert_eq!(fine, coarse, "compute cycles moved with the bucket width");
    assert!(fine as f64 >= 0.95 * total as f64, "compute {fine} of {total} cycles");
}
