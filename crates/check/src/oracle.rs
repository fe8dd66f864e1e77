//! The oracle set: each oracle takes a generated [`CheckCase`] and checks
//! one cross-cutting property of the simulation stack against it.
//!
//! Three oracle styles:
//!
//! - **Differential**: two implementations that must agree — the event
//!   engine vs the legacy reference loop (bit-identity), the functional
//!   NPU path vs the eager interpreter (numerics), serial vs parallel
//!   sweeps and warm-cache vs fresh compiles (bit-identity).
//! - **Metamorphic**: a relation between two runs when the input changes in
//!   a known direction — more DRAM channels or NoC bandwidth never makes a
//!   workload meaningfully slower (a small documented slack absorbs
//!   row-buffer locality and arbitration-order shifts), a larger batch
//!   never makes it faster, a `max_cycles` limit exactly at the run length
//!   never changes the result.
//! - **Robustness**: untrusted inputs (corrupted configs, out-of-range zoo
//!   indices, degenerate scaling points) must surface as typed errors, not
//!   panics or garbage.
//!
//! Every oracle body runs under `catch_unwind`: a panic anywhere in the
//! stack is itself a finding, reported with the panic message.

use crate::gen::{CheckCase, Workload};
use ptsim_common::config::{NocKind, SimConfig};
use ptsim_common::json::FromJson;
use ptsim_common::Error;
use pytorchsim::graph::exec;
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::scheduler::{LoadGenerator, Request, RequestProfile, Scheduler, SharingPolicy};
use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
use pytorchsim::togsim::{ExecutionBackend, JobSpec, SimReport, TogSim};
use pytorchsim::trace::{chrome, validate, Tracer};
use pytorchsim::{
    ClusterConfig, ClusterIteration, ClusterSim, CompileCache, ModelRequest, RunOptions, RunSpec,
    ScalingReport, Simulator,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// One property checked against generated cases.
pub struct Oracle {
    /// Stable name, used in reports and replay output.
    pub name: &'static str,
    /// The check: `Err` carries a human-readable finding.
    pub run: fn(&CheckCase) -> Result<(), String>,
}

/// The full oracle set, in roughly increasing cost order.
pub const ORACLES: &[Oracle] = &[
    Oracle { name: "config_rejection", run: config_rejection },
    Oracle { name: "zoo_robustness", run: zoo_robustness },
    Oracle { name: "scaling_efficiency", run: scaling_efficiency },
    Oracle { name: "load_generation", run: load_generation },
    Oracle { name: "trace_validation", run: trace_validation },
    Oracle { name: "kernel_equivalence", run: kernel_equivalence },
    Oracle { name: "cached_vs_fresh", run: cached_vs_fresh },
    Oracle { name: "sweep_determinism", run: sweep_determinism },
    Oracle { name: "max_cycles_clamp", run: max_cycles_clamp },
    Oracle { name: "cancel_consistency", run: cancel_consistency },
    Oracle { name: "resource_monotonicity", run: resource_monotonicity },
    Oracle { name: "batch_monotonicity", run: batch_monotonicity },
    Oracle { name: "fidelity_agreement", run: fidelity_agreement },
    Oracle { name: "functional_equivalence", run: functional_equivalence },
    Oracle { name: "server_vs_direct", run: server_vs_direct },
];

/// Runs `f`, converting a panic anywhere in the stack into a finding.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        format!("{what} panicked: {msg}")
    })
}

fn expect_invalid<T>(what: &str, r: ptsim_common::Result<T>) -> Result<(), String> {
    match r {
        Err(Error::InvalidConfig(_)) => Ok(()),
        Err(e) => Err(format!("{what}: expected InvalidConfig, got: {e}")),
        Ok(_) => Err(format!("{what}: accepted a degenerate config")),
    }
}

/// Every public build/run entry point must reject the corrupted config with
/// [`Error::InvalidConfig`] before the engine sees it.
fn config_rejection(case: &CheckCase) -> Result<(), String> {
    let bad = case.corrupt.apply(&case.cfg);
    let spec = models::gemm(16);

    let r =
        no_panic("Simulator::run", || Simulator::new(bad.clone()).run(&spec, RunOptions::tls()))?;
    expect_invalid("Simulator::run", r)?;

    let r = no_panic("ClusterSim::iteration", || {
        ClusterSim::new(bad.clone(), ClusterConfig::pod_of(1)).iteration(
            |b| models::mlp(b, 16),
            2,
            &RunOptions::tls(),
        )
    })?;
    expect_invalid("ClusterSim::iteration", r)?;

    let mut sweep = Sweep::new();
    sweep.push(SweepPoint::model(spec, bad));
    let r = no_panic("Sweep::run", || sweep.run(&SweepOptions::default()).map(|_| ()))?;
    expect_invalid("Sweep::run", r)
}

/// The model zoo must turn an untrusted conv-kernel index into a typed
/// error, never a panic.
fn zoo_robustness(case: &CheckCase) -> Result<(), String> {
    let r = no_panic("conv_kernel", || models::conv_kernel(case.conv_index, 1))?;
    match (case.conv_index <= 3, r) {
        (true, Ok(_)) | (false, Err(Error::InvalidConfig(_))) => Ok(()),
        (true, Err(e)) => {
            Err(format!("conv_kernel({}) rejected a paper index: {e}", case.conv_index))
        }
        (false, Err(e)) => {
            Err(format!("conv_kernel({}): expected InvalidConfig, got: {e}", case.conv_index))
        }
        (false, Ok(_)) => {
            Err(format!("conv_kernel({}) accepted an invalid index", case.conv_index))
        }
    }
}

/// `ScalingReport::efficiency` must be total over raw points: `Some` exactly
/// for well-defined ratios, `None` (never a panic or a non-finite float)
/// otherwise, and exactly `1.0` for the baseline point.
fn scaling_efficiency(case: &CheckCase) -> Result<(), String> {
    let report = ScalingReport {
        points: case
            .scaling
            .iter()
            .map(|&(n, c, a)| (n, ClusterIteration { compute_cycles: c, allreduce_cycles: a }))
            .collect(),
    };
    let e = no_panic("ScalingReport::efficiency", || report.efficiency(case.eff_index))?;
    if let Some(v) = e {
        if !v.is_finite() || v < 0.0 {
            return Err(format!("efficiency({}) = {v} is not a finite ratio", case.eff_index));
        }
    }
    match report.points.first() {
        None => {
            if e.is_some() {
                return Err("efficiency of an empty report must be None".into());
            }
        }
        Some((n0, it0)) => {
            let base_ok = *n0 > 0 && it0.total_cycles() > 0;
            if case.eff_index < report.points.len() {
                let (ni, iti) = &report.points[case.eff_index];
                let defined = base_ok && *ni > 0 && iti.total_cycles() > 0;
                if e.is_some() != defined {
                    return Err(format!(
                        "efficiency({}) = {e:?}, but the ratio is {}",
                        case.eff_index,
                        if defined { "well-defined" } else { "undefined" }
                    ));
                }
            } else if e.is_some() {
                return Err(format!(
                    "efficiency({}) must be None out of range (len {})",
                    case.eff_index,
                    report.points.len()
                ));
            }
            let zero = no_panic("efficiency(0)", || report.efficiency(0))?;
            if base_ok && zero != Some(1.0) {
                return Err(format!("baseline efficiency(0) = {zero:?}, expected Some(1.0)"));
            }
        }
    }
    Ok(())
}

fn tenant_arrivals(reqs: &[Request], t: u32) -> Vec<u64> {
    reqs.iter().filter(|r| r.tenant.raw() == t).map(|r| r.arrival.raw()).collect()
}

/// The load generator must be deterministic, sorted, complete, start every
/// stream at cycle 0, and keep tenant streams mutually independent; the
/// scheduler must place every request in exactly one job under the batch
/// cap.
fn load_generation(case: &CheckCase) -> Result<(), String> {
    let profiles: Vec<RequestProfile> = case
        .tenants
        .iter()
        .enumerate()
        .map(|(t, p)| RequestProfile::new(format!("tenant{t}"), p.arrivals, p.count))
        .collect();
    let generator = LoadGenerator::new(case.seed);
    let reqs = no_panic("LoadGenerator::generate", || generator.generate(&profiles))?;

    if reqs != generator.generate(&profiles) {
        return Err("generation is not deterministic for a fixed seed".into());
    }
    let expected: usize = case.tenants.iter().map(|p| p.count).sum();
    if reqs.len() != expected {
        return Err(format!("generated {} requests, profiles promise {expected}", reqs.len()));
    }
    if !reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival) {
        return Err("request stream is not arrival-sorted".into());
    }
    for (t, p) in case.tenants.iter().enumerate() {
        let mine = tenant_arrivals(&reqs, t as u32);
        if p.count > 0 && mine.first() != Some(&0) {
            return Err(format!(
                "tenant {t} ({:?}) first arrival is {:?}, every stream starts at 0",
                p.arrivals,
                mine.first()
            ));
        }
    }
    // Independence: growing tenant 0's stream must not move anyone else's.
    if case.tenants.len() >= 2 {
        let mut longer = profiles.clone();
        longer[0].count += 3;
        let grown = generator.generate(&longer);
        for t in 1..case.tenants.len() as u32 {
            if tenant_arrivals(&reqs, t) != tenant_arrivals(&grown, t) {
                return Err(format!(
                    "tenant {t}'s arrivals changed when tenant 0 got more requests \
                     (streams are entangled)"
                ));
            }
        }
    }

    let policy = if case.spatial { SharingPolicy::Spatial } else { SharingPolicy::Temporal };
    let jobs = Scheduler::new(policy, case.cfg.npu.cores, case.max_batch).schedule(&reqs);
    let batched: usize = jobs.iter().map(|j| j.batch).sum();
    if batched != expected {
        return Err(format!("schedule covers {batched} of {expected} requests"));
    }
    if let Some(j) = jobs.iter().find(|j| j.batch > case.max_batch) {
        return Err(format!("job batches {} requests over the cap {}", j.batch, case.max_batch));
    }
    Ok(())
}

/// A traced run (scheduler dispatches included) must export a Chrome trace
/// that passes structural validation, with nothing silently dropped.
fn trace_validation(case: &CheckCase) -> Result<(), String> {
    let tracer = Tracer::shared();
    let profiles: Vec<RequestProfile> = case
        .tenants
        .iter()
        .enumerate()
        .map(|(t, p)| RequestProfile::new(format!("tenant{t}"), p.arrivals, p.count))
        .collect();
    let reqs = LoadGenerator::new(case.seed).generate(&profiles);
    let policy = if case.spatial { SharingPolicy::Spatial } else { SharingPolicy::Temporal };
    Scheduler::new(policy, case.cfg.npu.cores, case.max_batch)
        .schedule_with_tracer(&reqs, Some(&tracer));

    let sim = Simulator::new(case.cfg.clone());
    let spec = case.workload.spec();
    no_panic("traced run", || sim.run(&spec, RunOptions::tls().with_tracer(tracer.clone())))?
        .map_err(|e| format!("traced run failed: {e}"))?;

    if tracer.dropped() > 0 {
        return Err(format!("tracer dropped {} events", tracer.dropped()));
    }
    let json = chrome::export_chrome_trace(&tracer.events());
    let check =
        validate::validate_chrome_trace(&json).map_err(|e| format!("invalid trace: {e}"))?;
    if check.spans == 0 {
        return Err("trace has no compute spans".into());
    }
    Ok(())
}

/// Runs one job set through both engine semantics and demands bit-identity.
fn run_both(
    cfg: &SimConfig,
    jobs: &[(Arc<pytorchsim::compiler::CompiledModel>, JobSpec)],
) -> Result<(SimReport, SimReport), String> {
    let mut event = TogSim::new(cfg);
    let mut reference = TogSim::new(cfg);
    for (model, spec) in jobs {
        event.add_shared_job(Arc::new(model.tog.clone()), spec.clone());
        reference.add_shared_job(Arc::new(model.tog.clone()), spec.clone());
    }
    let e = no_panic("TogSim::run", || event.run())?.map_err(|e| format!("event run: {e}"))?;
    let r = no_panic("TogSim::run_with(Reference)", || {
        reference.run_with(ExecutionBackend::Reference)
    })?
    .map_err(|e| format!("reference run: {e}"))?;
    Ok((e, r))
}

/// The event-driven engine must match the legacy rescan loop bit-for-bit —
/// single-job and under scheduled multi-tenant placements.
fn kernel_equivalence(case: &CheckCase) -> Result<(), String> {
    let sim = Simulator::new(case.cfg.clone());
    let spec = case.workload.spec();
    let model = sim.compile(&spec).map_err(|e| format!("compile: {e}"))?;

    let (event, reference) = run_both(&case.cfg, &[(model.clone(), JobSpec::default())])?;
    if event != reference {
        return Err(format!(
            "single-job reports diverge: event {} vs reference {} cycles",
            event.total_cycles, reference.total_cycles
        ));
    }

    // The scheduled multi-tenant placement: per-tenant models at the
    // offsets, partitions, and staggered arrivals the scheduler assigned.
    let profiles: Vec<RequestProfile> = case
        .tenants
        .iter()
        .enumerate()
        .map(|(t, p)| RequestProfile::new(format!("tenant{t}"), p.arrivals, p.count))
        .collect();
    let reqs = LoadGenerator::new(case.seed).generate(&profiles);
    let policy = if case.spatial { SharingPolicy::Spatial } else { SharingPolicy::Temporal };
    let schedule = Scheduler::new(policy, case.cfg.npu.cores, case.max_batch).schedule(&reqs);
    let mut jobs = Vec::new();
    for job in &schedule {
        let t = job.tenant.raw() as usize;
        let tenant_spec: ModelSpec =
            if t == 0 { spec.clone() } else { models::gemm(16 + 8 * t.min(8)) };
        let compiled = sim.compile(&tenant_spec).map_err(|e| format!("tenant compile: {e}"))?;
        jobs.push((
            compiled,
            JobSpec {
                core_offset: job.core_offset,
                cores: job.cores,
                tag: job.tenant.raw(),
                start_at: job.start_at,
            },
        ));
    }
    let (event, reference) = run_both(&case.cfg, &jobs)?;
    if event != reference {
        return Err(format!(
            "multi-tenant reports diverge over {} scheduled jobs: event {} vs reference {} cycles",
            jobs.len(),
            event.total_cycles,
            reference.total_cycles
        ));
    }
    Ok(())
}

/// A compile served from a warm [`CompileCache`] must equal a fresh one.
/// The workload is first compiled at a config differing only in DRAM, then
/// at `case.cfg` through the same cache, so the plan and kernel stages (and,
/// without autotuning, the whole model) hit. The result must match
/// `Compiler::compile` on a private store in every field except
/// `timing_measurements`, which counts store misses and drops on a warm
/// store. Odd seeds turn autotune on, so the plan stage's DRAM-bandwidth
/// read and probe replay are exercised.
fn cached_vs_fresh(case: &CheckCase) -> Result<(), String> {
    use pytorchsim::compiler::{CompileStats, Compiler, CompilerOptions};
    let spec = case.workload.spec();
    let opts = CompilerOptions { autotune: case.seed % 2 == 1, ..CompilerOptions::default() };
    let cache = CompileCache::shared();
    let compile_cached = |cfg: SimConfig| {
        no_panic("cached compile", || cache.compile_spec(&Compiler::new(cfg, opts.clone()), &spec))
    };
    let mut warmup = case.cfg.clone();
    warmup.dram.channels *= 2;
    // A failed warm-up caches nothing; the compile at `case.cfg` reports it.
    let _ = compile_cached(warmup)?;
    let cached = compile_cached(case.cfg.clone())?;
    let fresh = no_panic("fresh compile", || {
        Compiler::new(case.cfg.clone(), opts.clone()).compile(&spec.graph, &spec.name, 1)
    })?;
    let (cached, fresh) = match (cached, fresh) {
        (Ok(c), Ok(f)) => (c, f),
        (Err(ce), Err(fe)) => {
            let (ce, fe) = (ce.to_string(), fe.to_string());
            if ce == fe {
                return Ok(()); // agree on the rejection
            }
            return Err(format!("compiles reject differently: cached {ce:?} vs fresh {fe:?}"));
        }
        (Ok(_), Err(e)) => return Err(format!("only the fresh compile failed: {e}")),
        (Err(e), Ok(_)) => return Err(format!("only the cached compile failed: {e}")),
    };
    if cached.tog != fresh.tog {
        return Err(format!(
            "TOGs diverge: cached {} nodes vs fresh {}",
            cached.tog.nodes.len(),
            fresh.tog.nodes.len()
        ));
    }
    if cached.kernels != fresh.kernels {
        let mut c: Vec<&String> = cached.kernels.keys().collect();
        let mut f: Vec<&String> = fresh.kernels.keys().collect();
        c.sort();
        f.sort();
        return Err(format!("kernel sets diverge: cached {c:?} vs fresh {f:?}"));
    }
    if cached.layout != fresh.layout {
        return Err("memory layouts diverge".into());
    }
    if cached.op_plans != fresh.op_plans {
        return Err("op plans diverge".into());
    }
    let stats = |s: CompileStats| CompileStats { timing_measurements: 0, ..s };
    if stats(cached.stats) != stats(fresh.stats) {
        return Err(format!(
            "compile stats diverge: cached {:?} vs fresh {:?}",
            cached.stats, fresh.stats
        ));
    }
    Ok(())
}

/// A sweep must report bit-identical simulation results whatever its worker
/// count.
fn sweep_determinism(case: &CheckCase) -> Result<(), String> {
    let spec = case.workload.spec();
    let mut sweep = Sweep::new();
    sweep.push(SweepPoint::model(spec.clone(), case.cfg.clone()));
    sweep.push(SweepPoint::model(spec, SimConfig::tiny()));
    sweep.push(SweepPoint::model(models::gemm(24), case.cfg.clone()));

    let cache = CompileCache::shared();
    let serial = no_panic("serial sweep", || {
        sweep.run(&SweepOptions::with_jobs(1).with_cache(Arc::clone(&cache)))
    })?
    .map_err(|e| format!("serial sweep: {e}"))?;
    let parallel =
        no_panic("parallel sweep", || sweep.run(&SweepOptions::with_jobs(3).with_cache(cache)))?
            .map_err(|e| format!("parallel sweep: {e}"))?;
    if serial.sim_reports() != parallel.sim_reports() {
        return Err("serial and 3-worker sweeps disagree on simulation reports".into());
    }
    Ok(())
}

/// A `max_cycles` limit exactly at the run length must change nothing; one
/// cycle less must fail with a simulation fault — the clamp is monotone and
/// exact, never silently truncating results.
fn max_cycles_clamp(case: &CheckCase) -> Result<(), String> {
    let sim = Simulator::new(case.cfg.clone());
    let spec = case.workload.spec();
    let base =
        no_panic("run", || sim.run(&spec, RunOptions::tls()))?.map_err(|e| format!("run: {e}"))?;
    let t = base.total_cycles;

    let capped = no_panic("run at limit", || sim.run(&spec, RunOptions::tls().with_max_cycles(t)))?
        .map_err(|e| format!("limit == run length must still succeed, got: {e}"))?;
    if capped != base {
        return Err("a non-binding max_cycles changed the report".into());
    }
    if t >= 2 {
        match no_panic("run under limit", || {
            sim.run(&spec, RunOptions::tls().with_max_cycles(t - 1))
        })? {
            Err(Error::SimulationFault(_)) => {}
            Err(e) => {
                return Err(format!("limit below run length: expected SimulationFault, got: {e}"))
            }
            Ok(r) => {
                return Err(format!(
                    "limit {} below run length {t} still completed with {} cycles",
                    t - 1,
                    r.total_cycles
                ))
            }
        }
    }
    Ok(())
}

/// Cooperative cancellation must be clean and deterministic: a run killed
/// mid-flight by a seed-derived poll budget fails with the typed
/// [`Error::Cancelled`]; re-running the identical spec *uncancelled on the
/// same simulator* (same compile cache, same exactly-once gates) must be
/// bit-identical to a never-cancelled run on a fresh simulator —
/// cancellation can neither poison the caches nor leave a gate stuck.
fn cancel_consistency(case: &CheckCase) -> Result<(), String> {
    use ptsim_common::CancelToken;
    let spec = case.workload.spec();

    let baseline = no_panic("baseline run", || {
        Simulator::new(case.cfg.clone()).run(&spec, RunOptions::tls())
    })?
    .map_err(|e| format!("baseline run: {e}"))?;

    // Poll sites are fixed points of a run (the compile stages, then every
    // 64th scheduler step), so a seed-derived budget cancels at the same
    // spot on every replay — from before compilation (budget 0) to deep
    // inside the engine.
    let budget = case.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57; // 0..128
    let sim = Simulator::new(case.cfg.clone());
    let token = CancelToken::with_poll_budget(budget);
    let run = no_panic("cancelled run", || sim.run(&spec, RunOptions::tls().with_cancel(token)))?;
    match run {
        Err(Error::Cancelled { .. }) => {}
        Err(e) => return Err(format!("budget {budget}: expected Error::Cancelled, got: {e}")),
        // A budget beyond the run's total poll count never fires; the
        // report must then be untouched by the cancellation plumbing.
        Ok(r) if r == baseline => {}
        Ok(r) => {
            return Err(format!(
                "unfired budget {budget} changed the report: {} vs {} cycles",
                r.total_cycles, baseline.total_cycles
            ))
        }
    }

    let retry = no_panic("uncancelled retry", || sim.run(&spec, RunOptions::tls()))?
        .map_err(|e| format!("uncancelled retry after a cancelled run failed: {e}"))?;
    if retry != baseline {
        return Err(format!(
            "retry after cancellation diverges from a never-cancelled run: {} vs {} cycles \
             (poisoned cache?)",
            retry.total_cycles, baseline.total_cycles
        ));
    }

    let stats = sim.cache().stats();
    for (stage, s) in [
        ("graph", stats.graph),
        ("plan", stats.plan),
        ("kernel", stats.kernel),
        ("model", stats.model),
    ] {
        if s.in_flight != 0 {
            return Err(format!(
                "{} {stage}-stage gates still in flight after a cancelled run",
                s.in_flight
            ));
        }
    }
    Ok(())
}

fn tls_cycles(cfg: &SimConfig, spec: &ModelSpec) -> Result<u64, String> {
    no_panic("run", || Simulator::new(cfg.clone()).run(spec, RunOptions::tls()))?
        .map(|r| r.total_cycles)
        .map_err(|e| format!("run: {e}"))
}

/// More memory or interconnect bandwidth must never *meaningfully* slow a
/// workload down.
///
/// The invariant is deliberately not exact: doubling the channel count
/// re-interleaves addresses, and a small sequential stream that used to
/// ride one channel's open row gets sliced across channels into row
/// misses (measured: 4ch→8ch turned 20 hits / 4 misses into 16 / 8 and
/// cost 8 cycles on a 118-cycle GEMM). Crossbar arbitration order can
/// likewise shift by a cycle when link counts change. Those locality and
/// tie-break effects are physical; what the oracle must catch is a knob
/// wired backwards — so slowdowns are tolerated up to
/// `max(16, base / 20)` cycles and anything beyond fails.
fn resource_monotonicity(case: &CheckCase) -> Result<(), String> {
    let spec = case.workload.spec();
    let base = tls_cycles(&case.cfg, &spec)?;
    let slack = 16u64.max(base / 20);

    // Under a chiplet overlay, channel count is not a pure resource knob:
    // channels split evenly across chiplets, so doubling them re-interleaves
    // addresses onto channels living on *other* chiplets and traffic that was
    // chiplet-local can start paying the off-chip link. The invariant only
    // holds on flat interconnects.
    if case.cfg.noc.chiplet.is_none() {
        let mut more_dram = case.cfg.clone();
        more_dram.dram.channels *= 2;
        let dram_cycles = tls_cycles(&more_dram, &spec)?;
        if dram_cycles > base + slack {
            return Err(format!(
                "doubling DRAM channels ({} -> {}) slowed {} from {base} to {dram_cycles} cycles",
                case.cfg.dram.channels, more_dram.dram.channels, case.workload
            ));
        }
    }

    let mut more_noc = case.cfg.clone();
    match more_noc.noc.kind {
        NocKind::Simple => more_noc.noc.bytes_per_cycle *= 2,
        NocKind::Crossbar => more_noc.noc.port_links *= 2,
    }
    let noc_cycles = tls_cycles(&more_noc, &spec)?;
    if noc_cycles > base + slack {
        return Err(format!(
            "doubling NoC bandwidth slowed {} from {base} to {noc_cycles} cycles",
            case.workload
        ));
    }
    Ok(())
}

/// A larger batch (or row count) must never finish earlier than the same
/// workload at the smaller size.
fn batch_monotonicity(case: &CheckCase) -> Result<(), String> {
    let Some(bigger) = case.workload.scaled(2) else { return Ok(()) };
    let base = tls_cycles(&case.cfg, &case.workload.spec())?;
    let scaled = tls_cycles(&case.cfg, &bigger.spec())?;
    if scaled < base {
        return Err(format!(
            "{} takes {base} cycles but the doubled-size {bigger} only {scaled}",
            case.workload
        ));
    }
    Ok(())
}

/// Cross-fidelity agreement: TLS must stay within tolerance of the
/// instruction-level reference. ILS charges each tile its TLS latency plus
/// a fixed overhead, so today this holds by construction: it is a
/// tautology until ILS times an instruction stream of its own.
fn fidelity_agreement(case: &CheckCase) -> Result<(), String> {
    let sim = Simulator::new(case.cfg.clone());
    let spec = case.workload.spec();
    let ils = no_panic("ils run", || sim.run(&spec, RunOptions::ils()))?
        .map_err(|e| format!("ils run: {e}"))?;
    let tls = no_panic("tls run", || sim.run(&spec, RunOptions::tls()))?
        .map_err(|e| format!("tls run: {e}"))?;
    // TLS replays latencies measured offline from the same kernels, so the
    // divergence budget is the ILS per-tile overhead; small kernels are
    // overhead-dominated, hence the absolute floor.
    let diff = tls.total_cycles.abs_diff(ils.total_cycles);
    if diff > ils.total_cycles / 2 + 2_000 {
        return Err(format!(
            "tls {} vs ils {} cycles diverge beyond the per-tile overhead budget",
            tls.total_cycles, ils.total_cycles
        ));
    }
    Ok(())
}

/// The compiled kernels executed on the functional NPU must match the eager
/// graph interpreter numerically.
fn functional_equivalence(case: &CheckCase) -> Result<(), String> {
    let sim = Simulator::new(case.cfg.clone());
    let spec = case.workload.spec();
    let params = spec.init_params(case.seed);
    let inputs = spec.sample_inputs(case.seed).map_err(|e| format!("sample inputs: {e}"))?;

    let npu = no_panic("Simulator::execute", || sim.execute(&spec, &inputs, &params))?
        .map_err(|e| format!("npu execute: {e}"))?;
    let diff =
        no_panic("eager compare", || exec::max_abs_diff(&spec.graph, &inputs, &params, &npu))?
            .map_err(|e| format!("eager compare: {e}"))?;
    if diff > exec::FUNCTIONAL_TOL {
        return Err(format!("{} diverges from eager (max abs diff {diff:.3e})", case.workload));
    }
    Ok(())
}

/// Maps the generated workload onto the wire-level model request. `Bert`
/// pins the same fixed shape the generator uses, so both sides build the
/// same graph.
fn model_request(workload: &Workload) -> ModelRequest {
    match *workload {
        Workload::Gemm { n } => ModelRequest::Gemm { n },
        Workload::GemmRect { m, k, n } => ModelRequest::GemmRect { m, k, n },
        Workload::Mlp { batch, hidden } => ModelRequest::Mlp { batch, hidden },
        Workload::Conv { batch, channels, hw } => ModelRequest::Conv { batch, channels, hw },
        Workload::LayerNorm { rows, cols } => ModelRequest::LayerNorm { rows, cols },
        Workload::Softmax { rows, cols } => ModelRequest::Softmax { rows, cols },
        Workload::Bert { seq, batch } => {
            ModelRequest::Bert { seq, batch, hidden: 32, layers: 1, heads: 2, intermediate: 64 }
        }
    }
}

/// One `ptsim-serve` instance shared by every case: the point is precisely
/// that a long-lived daemon with a hot compile cache and result cache stays
/// bit-identical to fresh direct runs, seed after seed.
fn shared_server() -> Result<&'static ptsim_serve::ServerHandle, String> {
    static SERVER: OnceLock<std::io::Result<ptsim_serve::ServerHandle>> = OnceLock::new();
    SERVER
        .get_or_init(|| ptsim_serve::start(ptsim_serve::ServeConfig::default()))
        .as_ref()
        .map_err(|e| format!("start server: {e}"))
}

/// A `RunSpec` posted to the HTTP daemon must come back `200` with a report
/// bit-identical to running the same spec directly in-process — the full
/// JSON round trip (model request, mutated config, fingerprint) through the
/// admission queue, worker pool, and caches must not perturb a single bit.
fn server_vs_direct(case: &CheckCase) -> Result<(), String> {
    let spec = RunSpec::new(model_request(&case.workload)).with_config(case.cfg.clone());
    let direct = no_panic("RunSpec::run", || spec.run(&CompileCache::shared()))?
        .map_err(|e| format!("direct run: {e}"))?;

    let handle = shared_server()?;
    let resp = no_panic("POST /v1/simulate", || {
        ptsim_serve::client::post(handle.addr(), "/v1/simulate", &spec.canonical_json())
    })??;
    if resp.status != 200 {
        return Err(format!("server returned {}: {}", resp.status, resp.body));
    }
    let parsed = ptsim_common::json::parse_json(&resp.body)
        .map_err(|e| format!("response is not JSON: {e}"))?;
    let fingerprint = parsed.req_str("fingerprint").map_err(|e| e.to_string())?.to_string();
    if fingerprint != format!("{:016x}", spec.fingerprint()) {
        return Err(format!(
            "server fingerprint {fingerprint} != local {:016x}",
            spec.fingerprint()
        ));
    }
    let served = SimReport::from_json(parsed.req("report").map_err(|e| e.to_string())?)
        .map_err(|e| format!("served report: {e}"))?;
    if served != direct {
        return Err(format!(
            "served report diverges from the direct run for {}: {} vs {} cycles",
            case.workload, served.total_cycles, direct.total_cycles
        ));
    }
    Ok(())
}
