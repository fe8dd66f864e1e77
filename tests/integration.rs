//! Cross-crate integration tests: the full capture → compile → simulate
//! pipeline, functional equivalence between the NPU and the eager
//! reference, and the TLS-vs-ILS fidelity relationship.

use ptsim_common::config::SimConfig;
use pytorchsim::compiler::{execute_functional, Compiler, CompilerOptions};
use pytorchsim::graph::autodiff::build_training_graph;
use pytorchsim::graph::exec;
use pytorchsim::models::{self, SyntheticMnist};
use pytorchsim::tensor::Tensor;
use pytorchsim::togsim::{JobSpec, TogSim};
use pytorchsim::{RunOptions, Simulator};

#[test]
fn end_to_end_gemm_pipeline() {
    let sim = Simulator::new(SimConfig::tiny());
    let spec = models::gemm(64);
    let report = sim.run(&spec, RunOptions::tls()).unwrap();
    assert!(report.total_cycles > 0);
    // Traffic covers at least both operands and the result once.
    assert!(report.dram.bytes >= 3 * 64 * 64 * 4);
    // The simulated time is at least the roofline bound.
    let roofline = pytorchsim::baselines::RooflineModel::new(sim.config()).estimate(&spec.graph);
    assert!(report.total_cycles >= roofline, "{} vs roofline {roofline}", report.total_cycles);
}

#[test]
fn npu_functional_execution_matches_eager_for_mlp_inference() {
    let sim = Simulator::new(SimConfig::tiny());
    let spec = models::mlp(8, 32);
    let params = spec.init_params(3);
    let data = SyntheticMnist::generate(8, 4);
    let (x, t, _) = data.batch(0, 8);

    let npu = sim.execute(&spec, &[x.clone(), t.clone()], &params).unwrap();
    let eager = exec::execute(&spec.graph, &[x, t], &params).unwrap();
    for (got, expect) in npu.iter().zip(eager.outputs()) {
        assert!(got.allclose(expect, 1e-2), "diff {}", got.max_abs_diff(expect).unwrap());
    }
}

#[test]
fn training_iteration_on_npu_matches_eager_loss_and_gradients() {
    // The §5.5 validation: the compiled forward+backward pass executed on
    // the functional NPU reproduces the host loss/gradients.
    let cfg = SimConfig::tiny();
    let spec = models::mlp(8, 32);
    let train = build_training_graph(&spec.graph, spec.loss.unwrap()).unwrap();
    let compiled = Compiler::new(cfg.clone(), CompilerOptions::default())
        .compile(&train, "mlp_train", 1)
        .unwrap();

    let params = spec.init_params(9);
    let data = SyntheticMnist::generate(32, 10);
    let (x, t, _) = data.batch(0, 8);

    let npu = execute_functional(&compiled, &cfg.npu, &[x.clone(), t.clone()], &params).unwrap();
    let eager = exec::execute(&train, &[x, t], &params).unwrap();
    let reference = eager.outputs();
    // Loss matches.
    assert!(
        (npu[0].data()[0] - reference[0].data()[0]).abs() < 1e-2,
        "loss {} vs {}",
        npu[0].data()[0],
        reference[0].data()[0]
    );
    // Every parameter gradient matches.
    for (i, (got, expect)) in npu[1..].iter().zip(&reference[1..]).enumerate() {
        assert!(got.allclose(expect, 1e-2), "grad {i}");
    }
}

#[test]
fn tog_cache_makes_recompilation_free() {
    let sim = Simulator::new(SimConfig::tiny());
    let spec = models::gemm(48);
    sim.run(&spec, RunOptions::tls()).unwrap();
    let before = sim.cache_len();
    sim.run(&spec, RunOptions::tls()).unwrap();
    assert_eq!(sim.cache_len(), before);
    assert_eq!(sim.cache().stats().hits, 1);
}

#[test]
fn multi_tenant_inference_interferes() {
    let mut cfg = SimConfig::tiny();
    cfg.npu.cores = 2;
    let sim = Simulator::new(cfg);
    let a = sim.compile(&models::gemm(96)).unwrap();
    let b = sim.compile(&models::gemm_rect(96, 96, 48)).unwrap();

    let solo_a = sim.run_tenants(&[(a.clone(), 0, 1, 0, ptsim_common::Cycle::ZERO)]).unwrap().jobs
        [0]
    .cycles();
    let shared = sim
        .run_tenants(&[
            (a, 0, 1, 0, ptsim_common::Cycle::ZERO),
            (b, 1, 1, 1, ptsim_common::Cycle::ZERO),
        ])
        .unwrap();
    let shared_a = shared.jobs[0].cycles();
    assert!(shared_a >= solo_a, "co-location cannot speed a job up: {shared_a} vs {solo_a}");
    assert!(shared.dram_bytes_for_tag(0) > 0);
    assert!(shared.dram_bytes_for_tag(1) > 0);
}

#[test]
fn sparse_tog_runs_in_togsim_with_data_dependent_latencies() {
    use pytorchsim::sparse::{SparseCoreConfig, SpmspmLowering};
    use pytorchsim::tensor::CsrMatrix;
    let a = CsrMatrix::random(128, 128, 0.05, 50);
    let b = CsrMatrix::random(128, 128, 0.05, 51);
    let lowered = SpmspmLowering::new(SparseCoreConfig::flexagon_like(), 32)
        .lower(&a, &b, 0x1000_0000)
        .unwrap();
    let flat = lowered.tog.expand().unwrap();
    let mut sim = TogSim::new(&SimConfig::tiny());
    sim.add_job(flat, JobSpec::default());
    let report = sim.run().unwrap();
    let compute_floor: u64 = lowered.tiles.iter().map(|t| t.cycles).sum();
    assert!(report.total_cycles >= compute_floor / 2, "tiles must dominate");
}

#[test]
fn scheduler_feeds_togsim() {
    use pytorchsim::scheduler::{
        ArrivalDist, LoadGenerator, RequestProfile, Scheduler, SharingPolicy,
    };
    let mut cfg = SimConfig::tiny();
    cfg.npu.cores = 2;
    let sim = Simulator::new(cfg.clone());
    let spec = models::gemm(48);
    let compiled = sim.compile(&spec).unwrap();

    let requests = LoadGenerator::new(1).generate(&[RequestProfile::new(
        &spec.name,
        ArrivalDist::Uniform { interval: 2000 },
        4,
    )]);
    let jobs = Scheduler::new(SharingPolicy::Temporal, 2, 2).schedule(&requests);
    assert_eq!(jobs.len(), 2);
    let tenants: Vec<_> = jobs
        .iter()
        .map(|j| (compiled.clone(), j.core_offset, j.cores, j.tenant.raw(), j.start_at))
        .collect();
    let report = sim.run_tenants(&tenants).unwrap();
    assert_eq!(report.jobs.len(), 2);
    assert!(report.jobs[1].start >= jobs[1].start_at);
}

#[test]
fn isa_binary_round_trip_through_compiled_model() {
    // Every compiled kernel assembles to binary and disassembles back.
    let sim = Simulator::new(SimConfig::tiny());
    let model = sim.compile(&models::gemm(32)).unwrap();
    assert!(!model.kernels.is_empty());
    for (name, program) in &model.kernels {
        let words = program.assemble();
        let back = pytorchsim::isa::Program::disassemble(name.clone(), &words).unwrap();
        assert_eq!(&back, program, "kernel {name}");
    }
}

#[test]
fn optimized_graph_is_equivalent_after_dce_and_folding() {
    use pytorchsim::graph::{optimize, GraphBuilder};
    let mut g = GraphBuilder::new();
    let x = g.input("x", [4, 4]);
    let ones = g.constant("ones", Tensor::ones([4, 4]));
    let two = g.add(ones, ones).unwrap();
    let y = g.mul(x, two).unwrap();
    let _dead = g.relu(x).unwrap();
    g.output(y);
    let graph = g.finish();
    let (opt, stats) = optimize::optimize(&graph).unwrap();
    assert!(stats.nodes_folded >= 1);
    assert!(stats.dead_nodes_removed >= 1);

    let x = Tensor::randn([4, 4], 0);
    let a = exec::execute(&graph, std::slice::from_ref(&x), &[]).unwrap();
    let b = exec::execute(&opt, &[x], &[]).unwrap();
    assert!(a.outputs()[0].allclose(b.outputs()[0], 1e-6));
}

/// The benchmark goldens cover only 16 channels x 16 banks with 2 KiB rows.
/// This pins a GEMM on a geometry where no count is a power of two (three
/// channels, six banks, 192-byte rows, three crossbar links per port), so a
/// change to the address decode or the transaction walk that only holds on
/// powers of two shows here.
#[test]
fn gemm_on_an_odd_memory_geometry_is_pinned() {
    let mut cfg = SimConfig::tiny();
    cfg.dram.channels = 3;
    cfg.dram.banks_per_channel = 6;
    cfg.dram.row_bytes = 192;
    cfg.noc = ptsim_common::config::NocConfig::crossbar_tpu_v3();
    cfg.noc.port_links = 3;
    cfg.validate().unwrap();
    let report =
        Simulator::new(cfg).run(&models::gemm_rect(96, 80, 48), RunOptions::tls()).unwrap();
    let d = &report.dram;
    let got = (report.total_cycles, d.reads, d.writes, d.row_hits, d.row_conflicts);
    assert_eq!(got, (71_854, 1440, 576, 769, 1229));
    assert_eq!(report.noc.messages, 2016);
}
