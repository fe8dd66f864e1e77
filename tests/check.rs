//! Acceptance tests of the ptsim-check harness, plus the seed-pinned
//! regression suite for the latent-bug batch the harness was built to
//! catch. Each pinned seed was discovered by running the generator: its
//! case targets exactly the code path of one (now fixed) bug, so the test
//! fails again if the fix is reverted.

use ptsim_check::gen::{CheckCase, Corruption, Workload};
use ptsim_check::{run_seed, run_seed_filtered, run_suite};
use ptsim_common::config::SimConfig;
use ptsim_common::{CancelToken, Error};
use pytorchsim::scheduler::ArrivalDist;
use pytorchsim::{RunOptions, Simulator};

#[test]
fn smoke_seeds_pass_every_oracle() {
    let report = run_suite(0..4);
    for o in &report.outcomes {
        assert!(o.failures.is_empty(), "seed {}: {:?}", o.seed, o.failures);
    }
}

#[test]
fn outcomes_replay_bit_identically() {
    assert_eq!(run_seed(1), run_seed(1));
}

/// Asserts that replaying `seed` passes every oracle and that its generated
/// case still has the shape that made it interesting (a guard against
/// generator drift silently hollowing out a pin).
fn pin(seed: u64, shape: impl Fn(&CheckCase) -> bool, what: &str) {
    let case = CheckCase::from_seed(seed);
    assert!(shape(&case), "seed {seed} no longer generates a case with {what}: {}", case.summary());
    let outcome = run_seed(seed);
    assert!(outcome.failures.is_empty(), "seed {seed} ({what}): {:?}", outcome.failures);
}

// --- Tentpole findings: bugs the harness discovered, now fixed. ---

/// `TogSim` recorded zero-latency completions (barrier kernels, 0-cycle
/// cache hits) at their *push* time, one clock edge before they actually
/// fire, so `total_cycles` under-reported the clock the run needed and
/// `max_cycles == total_cycles` faulted on replay. Discovered by the
/// `max_cycles_clamp` oracle on the very first seeds.
#[test]
fn regression_max_cycles_equal_to_run_length_replays() {
    let sim = Simulator::new(SimConfig::tiny());
    let spec = Workload::Gemm { n: 16 }.spec();
    let base = sim.run(&spec, RunOptions::tls()).expect("unlimited run");
    let t = base.total_cycles;
    let capped = sim
        .run(&spec, RunOptions::tls().with_max_cycles(t))
        .expect("a limit equal to the run length must not fault");
    assert_eq!(capped, base, "a non-binding limit changed the report");
    assert!(
        matches!(
            sim.run(&spec, RunOptions::tls().with_max_cycles(t - 1)),
            Err(Error::SimulationFault(_))
        ),
        "a limit one cycle short must fault"
    );
}

/// A machine whose vector unit is narrower than the logical systolic array
/// used to pass `SimConfig::validate` and then die deep in kernel
/// compilation with `Unsupported("degenerate gemm tile")`. Discovered by
/// the `kernel_equivalence` oracle (seeds 2 and 6 pre-fix); it must now be
/// rejected upfront as a typed `InvalidConfig`.
#[test]
fn regression_narrow_vector_unit_is_an_invalid_config_not_a_compile_error() {
    let mut cfg = SimConfig::tiny();
    cfg.npu.systolic_rows = 16;
    cfg.npu.systolic_cols = 16;
    cfg.npu.systolic_arrays_per_core = 2; // 32 logical columns
    cfg.npu.vector_units = 2;
    cfg.npu.vector_lanes = 8; // 16 lanes
    let spec = Workload::Gemm { n: 16 }.spec();
    match Simulator::new(cfg).run(&spec, RunOptions::tls()) {
        Err(Error::InvalidConfig(_)) => {}
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

/// The generator must never emit a machine the compiler cannot target
/// (pre-fix, seeds 2 and 6 drew 16-lane vector units against 16- and
/// 32-column logical arrays).
#[test]
fn regression_generator_respects_the_vector_width_floor() {
    for seed in 0..300 {
        let c = CheckCase::from_seed(seed);
        assert!(
            c.cfg.npu.total_vector_lanes() >= c.cfg.npu.logical_sa_cols(),
            "seed {seed}: {} lanes < {} logical columns",
            c.cfg.npu.total_vector_lanes(),
            c.cfg.npu.logical_sa_cols()
        );
    }
}

/// Seed 26 (flat NoC) found that doubling DRAM channels 4 -> 8 slices a
/// small sequential stream's open-row locality into misses (20 hits / 4
/// misses became 16 / 8, +8 cycles on a 118-cycle GEMM): physical, so the
/// monotonicity oracle tolerates it — but only within its documented slack.
#[test]
fn regression_flat_noc_row_buffer_locality_shift_stays_within_tolerance() {
    pin(26, |c| c.cfg.noc.chiplet.is_none(), "a flat NoC");
}

/// Seed 1 found that under a chiplet overlay, doubling the channel count
/// re-maps channels onto other chiplets (traffic starts paying the
/// off-chip link), so channel count is not a pure resource knob there and
/// the oracle's channel arm must skip chiplet configs.
#[test]
fn regression_chiplet_channel_remap_is_exempt_from_channel_monotonicity() {
    pin(1, |c| c.cfg.noc.chiplet.is_some(), "a chiplet overlay");
}

/// The retired parallel backend's worker count was drawn from its own
/// sub-stream, so dropping that draw moved no other: every seed still
/// names the case it named before, and old `--replay N` commands and the
/// pins in this file stay valid. Summaries captured at the parent commit,
/// minus their ` workers=N` token.
#[test]
fn replay_handles_still_name_the_same_cases() {
    for (seed, summary) in [
        (
            1,
            "layernorm_4x32 on 2c 4x4sa*1 v4x8 spad64K l1:16K/2w dram4ch/q8 \
             noc:Crossbar/f16/p32/chiplet tenants=3 temporal max_batch=4",
        ),
        (
            5,
            "gemm32 on 1c 4x4sa*1 v4x4 spad256K l1:128K/8w dram4ch/q16 noc:Crossbar/f32/p8 \
             tenants=2 spatial max_batch=3",
        ),
        (
            7,
            "gemm_64x64x48 on 1c 8x8sa*1 v4x8 spad64K l1:off dram1ch/q8 noc:Crossbar/f16/p32 \
             tenants=3 spatial max_batch=2",
        ),
        (
            8,
            "conv_b1_c8_hw8 on 4c 8x8sa*1 v8x4 spad128K l1:off dram2ch/q8 noc:Simple/f16/p32 \
             tenants=3 spatial max_batch=1",
        ),
        (
            26,
            "gemm_8x8x8 on 1c 8x8sa*1 v8x4 spad256K l1:off dram4ch/q16 noc:Crossbar/f32/p32 \
             tenants=1 spatial max_batch=2",
        ),
    ] {
        assert_eq!(CheckCase::from_seed(seed).summary(), summary, "seed {seed}");
    }
}

// --- Satellite fixes, pinned via seeds whose cases exercise them. ---

/// Seed 8: an `L1Ways` corruption (the `sets()` divide-by-zero guard and
/// L1 validation), two-plus tenants with a Poisson profile (per-tenant
/// sub-seeds, first arrival at 0), and degenerate scaling points (the
/// total `ScalingReport::efficiency`).
#[test]
fn regression_l1_validation_poisson_tenants_and_degenerate_scaling() {
    pin(
        8,
        |c| {
            matches!(c.corrupt, Corruption::L1Ways)
                && c.tenants.len() >= 2
                && c.tenants.iter().any(|t| matches!(t.arrivals, ArrivalDist::Poisson { .. }))
                && c.scaling.iter().any(|&(n, cc, _)| n == 0 || cc == 0)
        },
        "an L1 corruption, Poisson tenants, and degenerate scaling points",
    );
}

/// Seed 5: a `NocFlit` corruption (NoC validation), an out-of-range conv
/// zoo index (the `conv_kernel` panic-to-`InvalidConfig` fix), and a
/// Poisson multi-tenant mix.
#[test]
fn regression_noc_validation_and_conv_index_robustness() {
    pin(
        5,
        |c| {
            matches!(c.corrupt, Corruption::NocFlit)
                && c.conv_index > 3
                && c.tenants.len() >= 2
                && c.tenants.iter().any(|t| matches!(t.arrivals, ArrivalDist::Poisson { .. }))
        },
        "a NoC corruption, an out-of-range conv index, and Poisson tenants",
    );
}

/// Seed 0: an out-of-range conv index alongside the BERT workload (the
/// deepest model the zoo ships, covering attention + layernorm + softmax
/// kernels through every differential oracle).
#[test]
fn regression_bert_end_to_end_with_conv_index_robustness() {
    pin(
        0,
        |c| c.conv_index > 3 && matches!(c.workload, Workload::Bert { .. }),
        "an out-of-range conv index and a BERT workload",
    );
}

// --- Cancellation pins: seeds whose seed-derived poll budgets land the
// `cancel_consistency` oracle's cancellation in each distinct phase. ---

/// The oracle's budget derivation (`seed · φ₆₄ >> 57`, range 0..128),
/// duplicated here so a pin fails loudly if the derivation drifts.
fn oracle_budget(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57
}

/// Replays `seed` through the single named oracle and re-checks the shape
/// that makes it interesting.
fn pin_oracle(seed: u64, oracle: &str, shape: impl Fn(&CheckCase) -> bool, what: &str) {
    let case = CheckCase::from_seed(seed);
    assert!(shape(&case), "seed {seed} no longer generates a case with {what}: {}", case.summary());
    let outcome = run_seed_filtered(seed, Some(oracle));
    assert!(outcome.failures.is_empty(), "seed {seed} ({what}): {:?}", outcome.failures);
}

/// With a cold cache the poll order is fixed: three compile-stage
/// checkpoints, then the scheduler's own polling. Budgets 0..=3 therefore
/// land the cancellation in each distinct phase of a run — before capture,
/// between stages, and on the first engine poll — and the reported phase
/// depends only on the budget, never on host timing.
#[test]
fn regression_cancellation_phase_coverage_is_deterministic() {
    let case = CheckCase::from_seed(0);
    for (budget, expect_phase) in
        [(0u64, "compile:capture"), (1, "compile:plan"), (2, "compile:emit"), (3, "togsim")]
    {
        let sim = Simulator::new(case.cfg.clone());
        let token = CancelToken::with_poll_budget(budget);
        match sim.run(&case.workload.spec(), RunOptions::tls().with_cancel(token)) {
            Err(Error::Cancelled { phase, .. }) => {
                assert_eq!(phase, expect_phase, "budget {budget}");
            }
            other => panic!("budget {budget}: expected Cancelled, got {other:?}"),
        }
    }
}

/// Seeds 0 and 34 draw the two smallest budgets (0 and 1), pinning the
/// oracle's fired-token branch at the earliest poll sites: cancellation
/// before and between compile stages must unwind without poisoning the
/// compile cache, and the uncancelled retry must replay bit-identically.
#[test]
fn regression_compile_stage_cancellation_leaves_the_cache_sound() {
    for (seed, budget) in [(0u64, 0u64), (34, 1)] {
        pin_oracle(
            seed,
            "cancel_consistency",
            |c| oracle_budget(c.seed) == budget,
            "a poll budget landing inside compilation",
        );
    }
}

/// Seeds 13 (budget 4, outliving its tiny layernorm run) and 8 (budget
/// 120) pin the oracle's unfired-token branch: an armed but unconsumed
/// budget must leave the report bit-identical to an uncancelled run.
#[test]
fn regression_unfired_token_is_bit_identical() {
    pin_oracle(13, "cancel_consistency", |c| oracle_budget(c.seed) == 4, "a small unfired budget");
    pin_oracle(8, "cancel_consistency", |c| oracle_budget(c.seed) >= 100, "a large unfired budget");
}
