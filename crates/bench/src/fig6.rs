//! Fig. 6 — simulation speed.
//!
//! Wall-clock time of four simulation modes on the same workloads:
//!
//! - **TLS-SN**: tile-level simulation with the simple latency–bandwidth
//!   network,
//! - **TLS-CN**: tile-level simulation with the flit-level crossbar,
//! - **ILS**: instruction-level mode, the slow comparator standing in for
//!   Accel-Sim-style simulation: the engine re-times every kernel's machine
//!   code per tile instance, and the compiled kernels execute functionally
//!   on seeded data — the real arithmetic the paper's ILS pays for (§2.1).
//!   Outside the timer the outputs are checked against eager execution; a
//!   divergence or a failure to execute is a finding, never skipped,
//! - **mNPUsim-like**: trace-granular serial simulation with per-access
//!   address-record formatting.
//!
//! Reported speedups are normalized to ILS.

use crate::Scale;
use ptsim_common::config::{NocConfig, SimConfig};
use ptsim_common::json::{Json, ToJson};
use pytorchsim::baselines::MnpusimLike;
use pytorchsim::compiler::{execute_functional, CompilerOptions};
use pytorchsim::graph::exec;
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::sweep::{Sweep, SweepOptions};
use pytorchsim::{CompileCache, RunOptions, Simulator};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the ILS column's sample inputs and parameters.
const SEED: u64 = 0;

/// One workload's wall-clock measurements, in seconds.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// TLS with the simple network.
    pub tls_sn: f64,
    /// TLS with the crossbar network.
    pub tls_cn: f64,
    /// Instruction-level mode: the ILS engine run plus functional
    /// execution of the compiled kernels.
    pub ils: f64,
    /// The mNPUsim-like comparator.
    pub mnpusim: f64,
    /// The ILS outputs against eager execution: the largest absolute
    /// difference when it is within [`exec::FUNCTIONAL_TOL`], otherwise the
    /// finding (a divergence, or a failure to execute functionally).
    pub outputs: Result<f32, String>,
}

impl Row {
    /// TLS-SN speedup over ILS.
    pub fn speedup_sn(&self) -> f64 {
        self.ils / self.tls_sn.max(1e-9)
    }

    /// TLS-CN speedup over ILS.
    pub fn speedup_cn(&self) -> f64 {
        self.ils / self.tls_cn.max(1e-9)
    }
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("name", Json::str(&self.name))
            .set("tls_sn", Json::num(self.tls_sn))
            .set("tls_cn", Json::num(self.tls_cn))
            .set("ils", Json::num(self.ils))
            .set("mnpusim", Json::num(self.mnpusim))
            .set("ils_max_abs_diff", self.outputs.as_ref().map_or(Json::Null, |&d| Json::num(d)))
            .set("ils_finding", self.outputs.as_ref().map_or_else(Json::str, |_| Json::Null))
    }
}

/// Fig. 6's shape, ordering only: TLS-SN and TLS-CN are both faster than
/// ILS on every row. No speedup ratio is checked; those depend on the host.
pub fn shape_holds(rows: &[Row]) -> bool {
    !rows.is_empty() && rows.iter().all(|r| r.tls_sn < r.ils && r.tls_cn < r.ils)
}

/// The figure's workload list.
pub fn workloads(scale: Scale) -> Vec<ModelSpec> {
    match scale {
        Scale::Bench => {
            vec![models::gemm(256), models::conv_kernel(3, 1).expect("paper conv kernel")]
        }
        Scale::Full => vec![
            models::gemm(512),
            models::gemm(1024),
            models::gemm(2048),
            models::conv_kernel(0, 1).expect("paper conv kernel"),
            models::conv_kernel(1, 1).expect("paper conv kernel"),
            models::conv_kernel(2, 1).expect("paper conv kernel"),
            models::conv_kernel(3, 1).expect("paper conv kernel"),
            models::resnet18(1),
        ],
    }
}

/// Runs the speed comparison. Compilation for every (workload, config)
/// point happens up front in a `jobs`-wide warm-up sweep over one shared
/// compile cache; the timed measurements then run serially against the warm
/// cache, so compile time is excluded (the paper excludes it from
/// simulation-speed measurements, §4.1) and the timings are uncontended.
pub fn run(scale: Scale, jobs: usize) -> Vec<Row> {
    let cn = SimConfig::tpu_v3_single_core();
    let sn = SimConfig { noc: NocConfig::simple(), ..cn.clone() };
    let specs = workloads(scale);

    let cache = CompileCache::shared();
    let configs = [("sn".to_string(), sn.clone()), ("cn".to_string(), cn.clone())];
    Sweep::grid(specs.iter().cloned(), &configs)
        .run(&SweepOptions::with_jobs(jobs).with_cache(Arc::clone(&cache)))
        .expect("fig6 warm-up sweep succeeds");

    let sim_sn = Simulator::with_cache(sn.clone(), CompilerOptions::default(), Arc::clone(&cache));
    let sim_cn = Simulator::with_cache(cn.clone(), CompilerOptions::default(), Arc::clone(&cache));
    specs
        .into_iter()
        .map(|spec| {
            let compiled = sim_cn.compile(&spec).expect("compiles");

            let t = Instant::now();
            sim_sn.run(&spec, RunOptions::tls()).expect("tls-sn");
            let tls_sn = t.elapsed().as_secs_f64();

            let t = Instant::now();
            sim_cn.run(&spec, RunOptions::tls()).expect("tls-cn");
            let tls_cn = t.elapsed().as_secs_f64();

            let params = spec.init_params(SEED);
            let inputs = spec.sample_inputs(SEED).expect("seeded inputs");
            let t = Instant::now();
            sim_cn.run(&spec, RunOptions::ils()).expect("ils");
            let npu = execute_functional(&compiled, &cn.npu, &inputs, &params);
            let ils = t.elapsed().as_secs_f64();
            let outputs =
                npu.map_err(|e| format!("cannot execute functionally: {e}")).and_then(|npu| {
                    match exec::max_abs_diff(&spec.graph, &inputs, &params, &npu) {
                        Ok(diff) if diff <= exec::FUNCTIONAL_TOL => Ok(diff),
                        Ok(diff) => Err(format!("diverges from eager (max abs diff {diff:.3e})")),
                        Err(e) => Err(format!("eager comparison: {e}")),
                    }
                });

            let mut mn = MnpusimLike::new(&cn);
            let t = Instant::now();
            mn.simulate(&compiled.tog);
            let mnpusim = t.elapsed().as_secs_f64();

            Row { name: spec.name.clone(), tls_sn, tls_cn, ils, mnpusim, outputs }
        })
        .collect()
}
