//! Property-based DRAM model checks: conservation (every accepted request
//! completes exactly once), monotonic completion times, determinism, and
//! policy invariants.

use proptest::prelude::*;
use ptsim_common::config::{DramConfig, MemSchedulerPolicy};
use ptsim_common::{Cycle, RequestId};
use ptsim_dram::{DramSim, MemRequest};
use std::collections::HashSet;

fn drive(cfg: &DramConfig, stream: &[(u64, bool, u64)]) -> Vec<(RequestId, Cycle)> {
    let mut dram = DramSim::new(cfg, 940.0);
    let mut done = Vec::new();
    let mut now = Cycle::ZERO;
    for (i, &(addr, is_write, gap)) in stream.iter().enumerate() {
        now += gap;
        let id = RequestId::new(i as u64);
        let addr = addr & !63; // transaction aligned
        let req = if is_write {
            MemRequest::write(id, addr, 64, 0)
        } else {
            MemRequest::read(id, addr, 64, 0)
        };
        // Retry with time advancement under backpressure.
        let mut attempt = req;
        loop {
            if dram.try_enqueue(attempt, now) {
                break;
            }
            now = dram.next_event().unwrap_or(now + 64).max(now + 1);
            dram.advance(now);
            done.extend(dram.pop_completed());
            attempt = req;
        }
    }
    while dram.busy() {
        now = dram.next_event().unwrap_or(now + 64).max(now + 1);
        dram.advance(now);
        done.extend(dram.pop_completed());
    }
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_request_completes_exactly_once(
        stream in proptest::collection::vec((0u64..1 << 22, any::<bool>(), 0u64..32), 1..200),
        channels in 1usize..4,
        fcfs in any::<bool>(),
    ) {
        let cfg = DramConfig {
            channels,
            queue_depth: 8,
            scheduler: if fcfs { MemSchedulerPolicy::Fcfs } else { MemSchedulerPolicy::FrFcfs },
            ..DramConfig::hbm2_tpu_v3()
        };
        let done = drive(&cfg, &stream);
        prop_assert_eq!(done.len(), stream.len());
        let ids: HashSet<u64> = done.iter().map(|(r, _)| r.raw()).collect();
        prop_assert_eq!(ids.len(), stream.len());
    }

    #[test]
    fn stats_account_for_all_traffic(
        stream in proptest::collection::vec((0u64..1 << 20, any::<bool>(), 0u64..8), 1..100),
    ) {
        let cfg = DramConfig { channels: 2, ..DramConfig::hbm2_tpu_v3() };
        let mut dram = DramSim::new(&cfg, 940.0);
        let mut accepted = 0u64;
        for (i, &(addr, is_write, _)) in stream.iter().enumerate() {
            let id = RequestId::new(i as u64);
            let req = if is_write {
                MemRequest::write(id, addr & !63, 64, 1)
            } else {
                MemRequest::read(id, addr & !63, 64, 1)
            };
            if dram.try_enqueue(req, Cycle::ZERO) {
                accepted += 1;
            }
        }
        dram.advance(Cycle::new(1 << 32));
        let s = dram.stats();
        prop_assert_eq!(s.reads + s.writes, accepted);
        prop_assert_eq!(s.bytes, accepted * 64);
        prop_assert_eq!(s.row_hits + s.row_misses + s.row_conflicts, accepted);
        prop_assert_eq!(s.bytes_by_tag.get(&1).copied().unwrap_or(0), accepted * 64);
    }

    #[test]
    fn simulation_is_deterministic(
        stream in proptest::collection::vec((0u64..1 << 22, any::<bool>(), 0u64..16), 1..120),
    ) {
        let cfg = DramConfig { channels: 2, ..DramConfig::hbm2_tpu_v3() };
        let a = drive(&cfg, &stream);
        let b = drive(&cfg, &stream);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sequential_beats_random_in_completion_time(seed in 0u64..50) {
        let mut rng = ptsim_common::rng::Rng::seed_from_u64(seed);
        let n = 256;
        let seq: Vec<(u64, bool, u64)> = (0..n).map(|i| (i * 64, false, 0)).collect();
        let rnd: Vec<(u64, bool, u64)> =
            (0..n).map(|_| (rng.gen_range(0u64..1 << 26) & !63, false, 0)).collect();
        let cfg = DramConfig { channels: 2, ..DramConfig::hbm2_tpu_v3() };
        let t_seq = drive(&cfg, &seq).iter().map(|(_, t)| t.raw()).max().unwrap();
        let t_rnd = drive(&cfg, &rnd).iter().map(|(_, t)| t.raw()).max().unwrap();
        prop_assert!(t_seq < t_rnd, "sequential {t_seq} vs random {t_rnd}");
    }
}
