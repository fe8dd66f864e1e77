//! Greedy case shrinking.
//!
//! When an oracle fails, the raw case is rarely minimal: the workload, the
//! config mutations, and the tenant mix were all drawn independently, and
//! usually only one of them matters. The shrinker repeatedly proposes
//! simplifications — swap the workload for a small GEMM, reset one
//! subsystem to the tiny baseline, drop tenants — and keeps any proposal on
//! which the *same oracle still fails*, until no proposal helps. The result
//! replays from the original seed (`--replay` regenerates and re-shrinks
//! deterministically), so the shrunk summary is a description, not a new
//! seed.

use crate::gen::{CheckCase, TenantProfile, Workload};
use ptsim_common::config::SimConfig;
use pytorchsim::scheduler::ArrivalDist;

/// Proposal ceiling per shrink run: each accepted proposal restarts the
/// pass, so the bound is on total attempts, keeping shrinking O(seconds)
/// even when every proposal re-simulates.
const MAX_ATTEMPTS: usize = 64;

fn half(n: usize, floor: usize) -> usize {
    (n / 2).max(floor)
}

/// Simplification proposals, most aggressive first (greedy shrinking lands
/// near-minimal faster when big cuts are tried before small trims).
fn proposals(case: &CheckCase) -> Vec<CheckCase> {
    let mut out = Vec::new();
    let mut push = |c: CheckCase| {
        if c != *case {
            out.push(c);
        }
    };

    // Whole-axis resets.
    push(CheckCase { workload: Workload::Gemm { n: 16 }, ..case.clone() });
    push(CheckCase { cfg: SimConfig::tiny(), ..case.clone() });
    push(CheckCase {
        tenants: vec![TenantProfile { arrivals: ArrivalDist::AtOnce, count: 1 }],
        ..case.clone()
    });

    // Per-subsystem config resets.
    let tiny = SimConfig::tiny();
    push(CheckCase {
        cfg: SimConfig { npu: tiny.npu.clone(), ..case.cfg.clone() },
        ..case.clone()
    });
    push(CheckCase {
        cfg: SimConfig { dram: tiny.dram.clone(), ..case.cfg.clone() },
        ..case.clone()
    });
    push(CheckCase {
        cfg: SimConfig { noc: tiny.noc.clone(), ..case.cfg.clone() },
        ..case.clone()
    });
    if case.cfg.npu.l1_cache.is_some() {
        let mut cfg = case.cfg.clone();
        cfg.npu.l1_cache = None;
        push(CheckCase { cfg, ..case.clone() });
    }
    if case.cfg.noc.chiplet.is_some() {
        let mut cfg = case.cfg.clone();
        cfg.noc.chiplet = None;
        push(CheckCase { cfg, ..case.clone() });
    }
    if case.cfg.npu.cores > 1 {
        let mut cfg = case.cfg.clone();
        cfg.npu.cores = 1;
        push(CheckCase { cfg, ..case.clone() });
    }

    // Workload dimension halving.
    let smaller = match case.workload {
        Workload::Gemm { n } => Workload::Gemm { n: half(n, 8) },
        Workload::GemmRect { m, k, n } => {
            Workload::GemmRect { m: half(m, 8), k: half(k, 8), n: half(n, 8) }
        }
        Workload::Mlp { batch, hidden } => {
            Workload::Mlp { batch: half(batch, 1), hidden: half(hidden, 16) }
        }
        Workload::Conv { batch, channels, hw } => {
            Workload::Conv { batch: half(batch, 1), channels: half(channels, 4), hw: half(hw, 6) }
        }
        Workload::LayerNorm { rows, cols } => {
            Workload::LayerNorm { rows: half(rows, 2), cols: half(cols, 16) }
        }
        Workload::Softmax { rows, cols } => {
            Workload::Softmax { rows: half(rows, 2), cols: half(cols, 16) }
        }
        Workload::Bert { seq, batch } => {
            Workload::Bert { seq: half(seq, 8), batch: half(batch, 1) }
        }
    };
    push(CheckCase { workload: smaller, ..case.clone() });

    // Tenant trims.
    if case.tenants.len() > 1 {
        push(CheckCase { tenants: case.tenants[..1].to_vec(), ..case.clone() });
    }
    if case.tenants.iter().any(|t| t.count > 1) {
        let tenants = case.tenants.iter().map(|t| TenantProfile { count: 1, ..*t }).collect();
        push(CheckCase { tenants, ..case.clone() });
    }
    if case.max_batch > 1 {
        push(CheckCase { max_batch: 1, ..case.clone() });
    }

    // Adversarial-input trims.
    if case.scaling.len() > 2 {
        push(CheckCase { scaling: case.scaling[..2].to_vec(), ..case.clone() });
    }
    if case.conv_index > 4 {
        push(CheckCase { conv_index: 4, ..case.clone() });
    }
    out
}

/// Greedily shrinks `case` while `fails` keeps failing, returning the
/// smallest failing case found. `fails` gets the proposal and must return
/// `true` when the original finding still reproduces on it.
pub fn shrink(case: &CheckCase, mut fails: impl FnMut(&CheckCase) -> bool) -> CheckCase {
    let mut current = case.clone();
    let mut attempts = 0;
    'outer: while attempts < MAX_ATTEMPTS {
        for candidate in proposals(&current) {
            attempts += 1;
            if fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
            if attempts >= MAX_ATTEMPTS {
                break;
            }
        }
        break;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_to_a_minimal_case_for_a_synthetic_predicate() {
        // Predicate: fails whenever the config has an L1 cache. The shrunk
        // case must keep the cache but simplify everything else it can.
        let mut case = CheckCase::from_seed(12345);
        case.cfg.npu.l1_cache = Some(ptsim_common::config::L1CacheConfig::kib_128());
        let shrunk = shrink(&case, |c| c.cfg.npu.l1_cache.is_some());
        assert!(shrunk.cfg.npu.l1_cache.is_some(), "must preserve the failure");
        assert_eq!(shrunk.workload, Workload::Gemm { n: 16 });
        assert_eq!(shrunk.tenants.len(), 1);
        assert_eq!(shrunk.cfg.npu.cores, 1);
    }

    #[test]
    fn shrinking_a_passing_case_returns_it_unchanged() {
        let case = CheckCase::from_seed(7);
        assert_eq!(shrink(&case, |_| false), case);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let case = CheckCase::from_seed(999);
        let a = shrink(&case, |c| !c.tenants.is_empty());
        let b = shrink(&case, |c| !c.tenants.is_empty());
        assert_eq!(a, b);
    }
}
