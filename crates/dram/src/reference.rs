//! Test-only differential oracle for [`crate::channel::Channel`].
//!
//! `RefChannel` is the scheduler as it stood before the allocation-free
//! rewrite — a fresh `arrived` list and a `bank_and_row` decode per pick, a
//! `(finish, id)` min-heap of in-flight requests, `bytes_by_tag` updated per
//! transaction — kept verbatim (minus the tracer/counter hooks) so the fast
//! path has an independent implementation to agree with. The property test
//! drives both through identical random streams and demands the identical
//! completion sequence, `next_event()` after every step, and statistics.

use crate::channel::{MemRequest, RowOutcome};
use crate::stats::DramStats;
use crate::DramSim;
use proptest::prelude::*;
use ptsim_common::config::{DramConfig, MemSchedulerPolicy};
use ptsim_common::{Cycle, RequestId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    activated_at: u64,
    busy_until: u64,
    write_recovery_until: u64,
}

struct RefChannel {
    queue: Vec<(MemRequest, u64)>,
    banks: Vec<Bank>,
    t_cl: u64,
    t_rcd: u64,
    t_ras: u64,
    t_wr: u64,
    t_rp: u64,
    burst: u64,
    policy: MemSchedulerPolicy,
    queue_depth: usize,
    blocks_per_row: u64,
    channels: u64,
    tx_bytes: u64,
    time: u64,
    bus_free: u64,
    inflight: BinaryHeap<Reverse<(u64, RequestId)>>,
    stats: DramStats,
}

impl RefChannel {
    fn new(cfg: &DramConfig, freq_mhz: f64) -> Self {
        let t = |ns: f64| cfg.timing_cycles(ns, freq_mhz);
        RefChannel {
            queue: Vec::new(),
            banks: vec![Bank::default(); cfg.banks_per_channel],
            t_cl: t(cfg.t_cl_ns),
            t_rcd: t(cfg.t_rcd_ns),
            t_ras: t(cfg.t_ras_ns),
            t_wr: t(cfg.t_wr_ns),
            t_rp: t(cfg.t_rp_ns),
            burst: (cfg.transaction_bytes / cfg.bytes_per_cycle_per_channel).max(1),
            policy: cfg.scheduler,
            queue_depth: cfg.queue_depth,
            blocks_per_row: (cfg.row_bytes / cfg.transaction_bytes).max(1),
            channels: cfg.channels as u64,
            tx_bytes: cfg.transaction_bytes,
            time: 0,
            bus_free: 0,
            inflight: BinaryHeap::new(),
            stats: DramStats::default(),
        }
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.tx_bytes;
        let in_channel = block / self.channels;
        let bank = ((in_channel / self.blocks_per_row) % self.banks.len() as u64) as usize;
        let row = in_channel / self.blocks_per_row / self.banks.len() as u64;
        (bank, row)
    }

    fn try_enqueue(&mut self, req: MemRequest, now: Cycle) -> bool {
        if self.queue.len() >= self.queue_depth {
            return false;
        }
        self.queue.push((req, now.raw()));
        true
    }

    fn next_event(&self) -> Option<Cycle> {
        if let Some(&Reverse((finish, _))) = self.inflight.peek() {
            return Some(Cycle::new(finish));
        }
        let arrival = self.queue.iter().map(|q| q.1).min()?;
        Some(Cycle::new(arrival.max(self.time) + 1))
    }

    fn advance(&mut self, to: Cycle, completed: &mut Vec<(RequestId, Cycle)>) {
        let horizon = to.raw();
        self.schedule(horizon);
        while let Some(&Reverse((finish, rid))) = self.inflight.peek() {
            if finish > horizon {
                break;
            }
            self.inflight.pop();
            completed.push((rid, Cycle::new(finish)));
        }
    }

    fn schedule(&mut self, horizon: u64) {
        loop {
            if self.queue.is_empty() {
                self.time = self.time.max(horizon);
                return;
            }
            let arrived: Vec<usize> =
                (0..self.queue.len()).filter(|&i| self.queue[i].1 <= self.time).collect();
            if arrived.is_empty() {
                let next_arrival = self.queue.iter().map(|q| q.1).min().unwrap();
                if next_arrival > horizon {
                    self.time = horizon;
                    return;
                }
                self.time = next_arrival;
                continue;
            }
            let pick = match self.policy {
                MemSchedulerPolicy::FrFcfs => arrived
                    .iter()
                    .copied()
                    .find(|&i| {
                        let (bank, row) = self.bank_and_row(self.queue[i].0.addr);
                        self.banks[bank].open_row == Some(row)
                    })
                    .unwrap_or(arrived[0]),
                MemSchedulerPolicy::Fcfs => arrived[0],
            };
            let (req, arrival) = self.queue[pick];
            let (bank_idx, row) = self.bank_and_row(req.addr);
            let bank = self.banks[bank_idx];
            let start = self.time.max(bank.busy_until);
            if start > horizon {
                self.time = horizon;
                return;
            }
            let (outcome, data_at) = match bank.open_row {
                Some(r) if r == row => (RowOutcome::Hit, start + self.t_cl),
                Some(_) => {
                    let pre_start =
                        start.max(bank.activated_at + self.t_ras).max(bank.write_recovery_until);
                    (RowOutcome::Conflict, pre_start + self.t_rp + self.t_rcd + self.t_cl)
                }
                None => (RowOutcome::Miss, start + self.t_rcd + self.t_cl),
            };
            let finish = data_at.max(self.bus_free) + self.burst;
            let b = &mut self.banks[bank_idx];
            match outcome {
                RowOutcome::Hit => b.busy_until = start + 1,
                RowOutcome::Miss => {
                    b.activated_at = start + self.t_rcd;
                    b.busy_until = b.activated_at;
                }
                RowOutcome::Conflict => {
                    b.activated_at = finish - self.t_cl - self.burst;
                    b.busy_until = b.activated_at;
                }
            }
            b.open_row = Some(row);
            if req.is_write {
                b.write_recovery_until = finish + self.t_wr;
            }
            self.bus_free = finish;
            self.time = start + 1;
            self.stats.record(&req, outcome, finish.saturating_sub(arrival));
            self.stats.add_tag_bytes(req.tag, req.bytes);
            self.inflight.push(Reverse((finish, req.id)));
            self.queue.remove(pick);
        }
    }
}

/// The reference channels behind [`DramSim`]'s routing and merge order.
struct RefDram {
    channels: Vec<RefChannel>,
    tx_bytes: u64,
}

impl RefDram {
    fn new(cfg: &DramConfig, freq_mhz: f64) -> Self {
        RefDram {
            channels: (0..cfg.channels).map(|_| RefChannel::new(cfg, freq_mhz)).collect(),
            tx_bytes: cfg.transaction_bytes,
        }
    }

    fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.tx_bytes) % self.channels.len() as u64) as usize
    }

    fn try_enqueue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let ch = self.channel_of(req.addr);
        self.channels[ch].try_enqueue(req, now)
    }

    fn advance(&mut self, to: Cycle, completed: &mut Vec<(RequestId, Cycle)>) {
        for ch in &mut self.channels {
            ch.advance(to, completed);
        }
    }

    fn next_event(&self) -> Option<Cycle> {
        self.channels.iter().filter_map(RefChannel::next_event).min()
    }

    fn stats(&self) -> DramStats {
        let mut total = DramStats::default();
        for ch in &self.channels {
            total.merge(&ch.stats);
        }
        total
    }
}

/// One generated step: `(block, is_write, tag, skew, pace)`. The request
/// arrives `skew` cycles in the past (the engine enqueues NoC-delivered
/// writes with `at <= now`); `pace` decides whether the models then stay
/// put (a burst), re-advance to the same horizon (the engine's drain step)
/// or move forward.
type Step = (u64, bool, u32, u64, u64);

/// `Err` describes the first completion on which the two logs differ, with
/// the request's channel, bank and row.
fn compare_logs(
    fast_log: &[(RequestId, Cycle)],
    slow_log: &[(RequestId, Cycle)],
    slow: &RefDram,
    requests: &[MemRequest],
) -> Result<(), String> {
    if fast_log == slow_log {
        return Ok(());
    }
    let i = fast_log.iter().zip(slow_log).take_while(|(a, b)| a == b).count();
    let describe = |entry: Option<&(RequestId, Cycle)>| match entry {
        Some(&(id, at)) => {
            let req = requests[id.raw() as usize];
            let ch = slow.channel_of(req.addr);
            let (bank, row) = slow.channels[ch].bank_and_row(req.addr);
            format!(
                "{id:?} ({} {:#x}: channel {ch} bank {bank} row {row}) at {at}",
                if req.is_write { "write" } else { "read" },
                req.addr
            )
        }
        None => "nothing".to_string(),
    };
    Err(format!(
        "completion #{i} diverged: rewrite retired {}, reference retired {}",
        describe(fast_log.get(i)),
        describe(slow_log.get(i))
    ))
}

/// Drives both models through `steps`; `Err` names the first divergence.
fn run_differential(cfg: &DramConfig, steps: &[Step]) -> Result<(), String> {
    let mut fast = DramSim::new(cfg, 940.0);
    let mut slow = RefDram::new(cfg, 940.0);
    let (mut fast_log, mut slow_log) = (Vec::new(), Vec::new());
    let mut requests = Vec::new();
    let mut now = Cycle::ZERO;

    for &(block, is_write, tag, skew, pace) in steps {
        let id = RequestId::new(requests.len() as u64);
        let req = MemRequest { id, addr: block * cfg.transaction_bytes, bytes: 64, is_write, tag };
        requests.push(req);
        let at = Cycle::new(now.raw().saturating_sub(skew));
        let admitted = fast.try_enqueue(req, at);
        if admitted != slow.try_enqueue(req, at) {
            return Err(format!("admission of {id:?} at {at} diverged (rewrite: {admitted})"));
        }
        if pace >= 16 {
            now += pace.saturating_sub(23);
            fast.advance(now);
            fast_log.extend(fast.pop_completed());
            slow.advance(now, &mut slow_log);
            compare_logs(&fast_log, &slow_log, &slow, &requests)?;
        }
        if fast.next_event() != slow.next_event() {
            return Err(format!(
                "next_event after {id:?} at {now} diverged: rewrite {:?}, reference {:?}",
                fast.next_event(),
                slow.next_event()
            ));
        }
    }
    now += 1 << 32;
    fast.advance(now);
    fast_log.extend(fast.pop_completed());
    slow.advance(now, &mut slow_log);
    compare_logs(&fast_log, &slow_log, &slow, &requests)?;
    if fast.busy() || fast.next_event().is_some() || slow.next_event().is_some() {
        return Err("models must be idle after the final drain".to_string());
    }
    if fast.stats() != slow.stats() {
        return Err(format!("stats diverged: {:?} vs {:?}", fast.stats(), slow.stats()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rewrite_matches_reference_on_random_streams(
        steps in proptest::collection::vec(
            (0u64..2048, any::<bool>(), 0u32..3, 0u64..24, 0u64..48),
            1..400,
        ),
        geometry in (1usize..5, 1usize..5, 2usize..33),
        fcfs in any::<bool>(),
    ) {
        let (channels, banks_per_channel, queue_depth) = geometry;
        let cfg = DramConfig {
            channels,
            banks_per_channel,
            queue_depth,
            row_bytes: 512,
            scheduler: if fcfs { MemSchedulerPolicy::Fcfs } else { MemSchedulerPolicy::FrFcfs },
            ..DramConfig::hbm2_tpu_v3()
        };
        if let Err(e) = run_differential(&cfg, &steps) {
            prop_assert!(false, "{channels} channels x {banks_per_channel} banks, depth \
                {queue_depth}, {:?}: {e}", cfg.scheduler);
        }
    }
}

/// A long same-row stream against a shallow queue: admission refusals, the
/// frontier jump to a future arrival, and same-horizon re-advances, all with
/// a fixed (non-sampled) input.
#[test]
fn rewrite_matches_reference_on_a_backpressured_stream() {
    let cfg = DramConfig { channels: 2, queue_depth: 2, ..DramConfig::hbm2_tpu_v3() };
    let steps: Vec<Step> =
        (0..600u64).map(|i| (i % 96, i % 3 == 0, (i % 2) as u32, i % 5, 14 + i % 14)).collect();
    run_differential(&cfg, &steps).unwrap();
}
