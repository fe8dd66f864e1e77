//! Event-kernel equivalence acceptance suite.
//!
//! The TOGSim engine was rewired from a monolithic poll-everything loop
//! onto the shared `ptsim-event` scheduler with per-core dirty lists. The
//! acceptance bar is *bit-identity*: the serial event engine and the legacy
//! full-rescan reference loop (`ExecutionBackend::Reference`) must produce
//! exactly the same [`SimReport`] for every workload family, at every
//! fidelity, and irrespective of sweep parallelism.
//!
//! [`SimReport`]: pytorchsim::togsim::SimReport

use std::sync::Arc;

use ptsim_common::config::{NocConfig, SimConfig};
use ptsim_common::Cycle;
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::obs::{CounterConfig, CounterHub};
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
use pytorchsim::tog::{ExecUnit, ExecutableTog, FlatNode, FlatNodeKind};
use pytorchsim::togsim::{JobSpec, SimReport, TogSim};
use pytorchsim::{ExecutionBackend, RunOptions, Simulator};

/// One representative per workload family in `crates/models`: a bare GEMM,
/// an MLP, a transformer block stack, and a convolution layer.
fn workloads() -> Vec<ModelSpec> {
    vec![
        models::gemm(64),
        models::mlp(4, 32),
        models::bert(
            models::BertConfig { layers: 1, ..models::BertConfig::base(32, 1) },
            "bert_tiny",
        ),
        models::conv_kernel(3, 1).expect("paper conv kernel"),
    ]
}

/// Runs one compiled workload through the given backend and returns its
/// report.
fn run_backend(
    sim: &Simulator,
    spec: &ModelSpec,
    opts: &RunOptions,
    backend: ExecutionBackend,
) -> SimReport {
    let model = sim.compile(spec).expect("workload compiles");

    let mut togsim = TogSim::new(sim.config()).with_fidelity(opts.fidelity);
    togsim.add_shared_job(Arc::new(model.tog.clone()), JobSpec::default());
    togsim.run_with(backend).expect("backend run")
}

#[test]
fn every_backend_is_bit_identical_at_every_fidelity() {
    let sim = Simulator::new(SimConfig::tiny());
    for spec in workloads() {
        for (name, opts) in [("tls", RunOptions::tls()), ("ils", RunOptions::ils())] {
            let serial = run_backend(&sim, &spec, &opts, ExecutionBackend::Serial);
            let reference = run_backend(&sim, &spec, &opts, ExecutionBackend::Reference);
            assert_eq!(serial, reference, "{} diverges at {name}", spec.name);
        }
    }
}

#[test]
fn every_backend_matches_serial_on_the_multi_core_config() {
    // The tpu_v3 memory system exercises deeper DRAM/NoC queues (and with
    // them the descriptor-rate wake-ups and backpressure retries).
    let sim = Simulator::new(SimConfig::tpu_v3_single_core());
    let tls = RunOptions::tls();
    for spec in workloads() {
        let serial = run_backend(&sim, &spec, &tls, ExecutionBackend::Serial);
        let reference = run_backend(&sim, &spec, &tls, ExecutionBackend::Reference);
        assert_eq!(serial, reference, "{} diverges on tpu_v3", spec.name);
    }
}

/// Runs one compiled workload through the given backend with a fresh
/// counter hub attached, returning the report and the hub's canonical JSON
/// rendering (sorted series, so byte-equality means series-equality).
fn run_backend_counted(
    sim: &Simulator,
    spec: &ModelSpec,
    opts: &RunOptions,
    backend: ExecutionBackend,
) -> (SimReport, String) {
    let model = sim.compile(spec).expect("workload compiles");

    let hub = CounterHub::shared(CounterConfig::default());
    let mut togsim = TogSim::new(sim.config()).with_fidelity(opts.fidelity);
    togsim.set_counters(Arc::clone(&hub));
    togsim.add_shared_job(Arc::new(model.tog.clone()), JobSpec::default());
    let report = togsim.run_with(backend).expect("backend run");
    (report, hub.to_json().render())
}

/// The performance-counter layer inherits the engine's bit-identity
/// guarantee. With the same workload and config, both backends must record
/// *exactly* the same counter series — same keys, same buckets, same
/// values — because every recording is stamped with simulated time, never
/// host time. And attaching counters must not perturb the simulated
/// timeline.
#[test]
fn counter_series_are_bit_identical_across_backends() {
    let sim = Simulator::new(SimConfig::tiny());
    let tls = RunOptions::tls();
    for spec in workloads() {
        let plain = run_backend(&sim, &spec, &tls, ExecutionBackend::Serial);
        let serial = run_backend_counted(&sim, &spec, &tls, ExecutionBackend::Serial);
        assert_eq!(plain, serial.0, "{}: counters perturb the run", spec.name);
        assert!(serial.1.len() > 2, "{}: hub recorded nothing", spec.name);
        let reference = run_backend_counted(&sim, &spec, &tls, ExecutionBackend::Reference);
        assert_eq!(serial.0, reference.0, "{} report diverges", spec.name);
        assert_eq!(serial.1, reference.1, "{} counter series diverge", spec.name);
    }
}

#[test]
fn staggered_tenant_arrivals_are_bit_identical() {
    // Job seeding moved from a per-iteration scan to `JobArrival` events;
    // staggered `start_at`s are the path that exercises it.
    let sim = Simulator::new(SimConfig::tiny());
    let a = sim.compile(&models::gemm(48)).expect("compiles");
    let b = sim.compile(&models::mlp(4, 32)).expect("compiles");
    let seed = |tog_sim: &mut TogSim| {
        tog_sim.add_shared_job(Arc::new(a.tog.clone()), JobSpec { tag: 1, ..JobSpec::default() });
        tog_sim.add_shared_job(
            Arc::new(b.tog.clone()),
            JobSpec { tag: 2, start_at: Cycle::new(2_000), ..JobSpec::default() },
        );
    };
    let mut event = TogSim::new(sim.config());
    seed(&mut event);
    let serial = event.run().expect("serial run");
    let mut reference = TogSim::new(sim.config());
    seed(&mut reference);
    let got = reference.run_with(ExecutionBackend::Reference).expect("reference run");
    assert_eq!(serial, got, "staggered arrivals diverge");
}

#[test]
fn sweep_reports_are_bit_identical_across_worker_counts() {
    let grid = || {
        let cn = SimConfig::tiny();
        let sn = SimConfig { noc: NocConfig::simple(), ..cn.clone() };
        let mut sweep = Sweep::grid(
            [models::gemm(64), models::conv_kernel(3, 1).expect("paper conv kernel")],
            &[("cn".to_string(), cn.clone()), ("sn".to_string(), sn)],
        );
        sweep.push(
            SweepPoint::model(models::gemm(48), cn)
                .with_label("gemm48_ils")
                .with_run(RunOptions::ils()),
        );
        sweep
    };
    let serial = grid().run(&SweepOptions::with_jobs(1)).expect("serial sweep");
    let parallel = grid().run(&SweepOptions::with_jobs(8)).expect("parallel sweep");
    assert_eq!(serial.sim_reports(), parallel.sim_reports());
}

#[test]
fn deadlocked_tog_reports_queue_depths_and_remaining_nodes() {
    // A node depending on itself can never dispatch: the scheduler runs
    // out of wake candidates with the job unfinished, and the diagnostic
    // names the stuck core state and the job's remaining node count.
    let tog = ExecutableTog {
        name: "cyclic".to_string(),
        nodes: vec![FlatNode {
            kind: FlatNodeKind::Compute {
                kernel: "spin".to_string(),
                cycles: 8,
                unit: ExecUnit::Matrix,
                args: Vec::new(),
            },
            deps: vec![0],
            core: 0,
        }],
    };
    let mut sim = TogSim::new(&SimConfig::tiny());
    sim.add_shared_job(Arc::new(tog), JobSpec::default());
    let err = sim.run().expect_err("cyclic TOG must deadlock");
    let msg = err.to_string();
    assert!(msg.contains("deadlock at 0cy: 1 jobs unfinished"), "{msg}");
    assert!(msg.contains("cores: [all idle]"), "{msg}");
    assert!(msg.contains("job0 'cyclic': 1 of 1 nodes remaining"), "{msg}");
    assert!(msg.contains("in-flight: 0 transactions, 0 dram retries, 0 noc retries"), "{msg}");
}
