//! One DRAM channel: request queue, banks, scheduler, and data bus.

use crate::stats::DramStats;
use ptsim_common::config::{DramConfig, MemSchedulerPolicy};
use ptsim_common::{Cycle, RequestId};
use ptsim_obs::CounterHub;
use ptsim_trace::Tracer;
use std::collections::VecDeque;
use std::sync::Arc;

/// One transaction-granularity memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identity, echoed on completion.
    pub id: RequestId,
    /// Byte address (transaction aligned is recommended).
    pub addr: u64,
    /// Transfer size in bytes (one transaction).
    pub bytes: u64,
    /// True for writes.
    pub is_write: bool,
    /// Free-form source tag (core, tenant) for bandwidth accounting.
    pub tag: u32,
}

impl MemRequest {
    /// A read transaction.
    pub fn read(id: RequestId, addr: u64, bytes: u64, tag: u32) -> Self {
        MemRequest { id, addr, bytes, is_write: false, tag }
    }

    /// A write transaction.
    pub fn write(id: RequestId, addr: u64, bytes: u64, tag: u32) -> Self {
        MemRequest { id, addr, bytes, is_write: true, tag }
    }
}

/// What a request did to the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// Row already open: only tCL.
    Hit,
    /// Bank idle: tRCD + tCL.
    Miss,
    /// Another row open: tRP + tRCD + tCL (after tRAS of the old row).
    Conflict,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Cycle at which the open row was activated (for tRAS).
    activated_at: u64,
    /// Cycle until which the bank is busy with the current access.
    busy_until: u64,
    /// Earliest cycle a precharge may complete (write recovery).
    write_recovery_until: u64,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: MemRequest,
    arrival: u64,
    /// `bank_and_row(req.addr)`, decoded once at admission.
    bank: usize,
    row: u64,
}

/// Derived timing, in core cycles.
#[derive(Debug, Clone, Copy)]
struct Timing {
    t_cl: u64,
    t_rcd: u64,
    t_ras: u64,
    t_wr: u64,
    t_rp: u64,
    burst: u64,
}

/// One DRAM channel.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    /// Admitted requests in admission order (which is *not* arrival order:
    /// callers may enqueue with non-monotone timestamps).
    queue: VecDeque<Queued>,
    banks: Vec<Bank>,
    timing: Timing,
    policy: MemSchedulerPolicy,
    queue_depth: usize,
    blocks_per_row: u64,
    channels: u64,
    tx_bytes: u64,
    /// Scheduling frontier: everything before this is decided.
    time: u64,
    /// Data-bus free time.
    bus_free: u64,
    /// Scheduled requests whose data has not yet been delivered, as
    /// `(finish_cycle, request id)`. A FIFO is a min-queue here: every
    /// transfer starts at or after `bus_free`, the previous `finish`, and
    /// lasts `burst >= 1` cycles, so `finish` is strictly increasing.
    inflight: VecDeque<(u64, RequestId)>,
    stats: DramStats,
    /// Bytes of the current run of same-tag requests, not yet folded into
    /// `stats.bytes_by_tag`: a DMA stream carries one tag for thousands of
    /// transactions, which keeps the map off the per-transaction path.
    tag_run: Option<(u32, u64)>,
    /// This channel's index, used as the trace track id.
    index: usize,
    tracer: Option<Arc<Tracer>>,
    counters: Option<Arc<CounterHub>>,
}

impl Channel {
    pub(crate) fn new(cfg: &DramConfig, freq_mhz: f64) -> Self {
        let t = |ns: f64| cfg.timing_cycles(ns, freq_mhz);
        Channel {
            queue: VecDeque::new(),
            banks: vec![Bank::default(); cfg.banks_per_channel],
            timing: Timing {
                t_cl: t(cfg.t_cl_ns),
                t_rcd: t(cfg.t_rcd_ns),
                t_ras: t(cfg.t_ras_ns),
                t_wr: t(cfg.t_wr_ns),
                t_rp: t(cfg.t_rp_ns),
                burst: (cfg.transaction_bytes / cfg.bytes_per_cycle_per_channel).max(1),
            },
            policy: cfg.scheduler,
            queue_depth: cfg.queue_depth,
            blocks_per_row: (cfg.row_bytes / cfg.transaction_bytes).max(1),
            channels: cfg.channels as u64,
            tx_bytes: cfg.transaction_bytes,
            time: 0,
            bus_free: 0,
            inflight: VecDeque::new(),
            stats: DramStats::default(),
            tag_run: None,
            index: 0,
            tracer: None,
            counters: None,
        }
    }

    /// Attaches a tracer; `index` identifies this channel's trace track.
    pub(crate) fn set_tracer(&mut self, tracer: Arc<Tracer>, index: usize) {
        self.index = index;
        self.tracer = Some(tracer);
    }

    /// Attaches a counter hub; `index` identifies this channel's series.
    pub(crate) fn set_counters(&mut self, counters: Arc<CounterHub>, index: usize) {
        self.index = index;
        self.counters = Some(counters);
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        // Block-interleaved across channels; low column bits within a row
        // for sequential-stream row locality (RoBaCoCh-style mapping).
        let block = addr / self.tx_bytes;
        let in_channel = block / self.channels;
        let bank = ((in_channel / self.blocks_per_row) % self.banks.len() as u64) as usize;
        let row = in_channel / self.blocks_per_row / self.banks.len() as u64;
        (bank, row)
    }

    pub(crate) fn try_enqueue(&mut self, req: MemRequest, now: Cycle) -> bool {
        if self.queue.len() >= self.queue_depth {
            return false;
        }
        let (bank, row) = self.bank_and_row(req.addr);
        self.queue.push_back(Queued { req, arrival: now.raw(), bank, row });
        true
    }

    pub(crate) fn busy(&self) -> bool {
        !self.queue.is_empty() || !self.inflight.is_empty()
    }

    pub(crate) fn free_slots(&self) -> usize {
        self.queue_depth - self.queue.len()
    }

    /// Adds this channel's counters, the pending tag run included, to `total`.
    pub(crate) fn merge_stats_into(&self, total: &mut DramStats) {
        total.merge(&self.stats);
        if let Some((tag, bytes)) = self.tag_run {
            total.add_tag_bytes(tag, bytes);
        }
    }

    /// Earliest future time at which this channel has work to report:
    /// either a scheduled request's data delivery (exact) or, when nothing
    /// is in flight, a lower bound for scheduling a queued request.
    pub(crate) fn next_event(&self) -> Option<Cycle> {
        if let Some(&(finish, _)) = self.inflight.front() {
            return Some(Cycle::new(finish));
        }
        let arrival = self.queue.iter().map(|q| q.arrival).min()?;
        Some(Cycle::new(arrival.max(self.time) + 1))
    }

    /// Schedules requests with service starting no later than `to` and
    /// retires those whose data delivery completes by `to`.
    pub(crate) fn advance(&mut self, to: Cycle, completed: &mut Vec<(RequestId, Cycle)>) {
        let horizon = to.raw();
        self.schedule(horizon);
        while let Some(&(finish, rid)) = self.inflight.front() {
            if finish > horizon {
                break;
            }
            self.inflight.pop_front();
            completed.push((rid, Cycle::new(finish)));
        }
    }

    /// Picks and timestamps requests whose service can start by `horizon`.
    fn schedule(&mut self, horizon: u64) {
        loop {
            if self.queue.is_empty() {
                self.time = self.time.max(horizon);
                return;
            }
            // One pass in admission order over the requests that have
            // arrived by the frontier: FR-FCFS takes the oldest row hit,
            // else (like FCFS) the oldest arrived.
            let mut pick: Option<(usize, Queued)> = None;
            let mut next_arrival = u64::MAX;
            for (i, q) in self.queue.iter().enumerate() {
                if q.arrival > self.time {
                    next_arrival = next_arrival.min(q.arrival);
                } else if self.policy == MemSchedulerPolicy::Fcfs
                    || self.banks[q.bank].open_row == Some(q.row)
                {
                    pick = Some((i, *q));
                    break;
                } else if pick.is_none() {
                    pick = Some((i, *q));
                }
            }
            let Some((slot, q)) = pick else {
                // Nothing has arrived (so the scan saw every request): jump
                // the frontier to the next arrival if within range.
                if next_arrival > horizon {
                    self.time = horizon;
                    return;
                }
                self.time = next_arrival;
                continue;
            };
            let bank = self.banks[q.bank];
            let start = self.time.max(bank.busy_until);
            if start > horizon {
                // Cannot start anything new inside this window.
                self.time = horizon;
                return;
            }
            self.queue.remove(slot);
            // Row-buffer outcome and resulting latency.
            let (outcome, data_at) = match bank.open_row {
                Some(r) if r == q.row => (RowOutcome::Hit, start + self.timing.t_cl),
                Some(_) => {
                    // Precharge the old row (respecting tRAS and write
                    // recovery), activate the new one, then CAS.
                    let pre_start = start
                        .max(bank.activated_at + self.timing.t_ras)
                        .max(bank.write_recovery_until);
                    (
                        RowOutcome::Conflict,
                        pre_start + self.timing.t_rp + self.timing.t_rcd + self.timing.t_cl,
                    )
                }
                None => (RowOutcome::Miss, start + self.timing.t_rcd + self.timing.t_cl),
            };
            // Data transfer occupies the bus.
            let xfer_start = data_at.max(self.bus_free);
            let finish = xfer_start + self.timing.burst;

            let b = &mut self.banks[q.bank];
            // Column accesses to an open row pipeline back-to-back (the data
            // bus is the throughput limiter); activations/precharges occupy
            // the bank until the row is open.
            match outcome {
                RowOutcome::Hit => {
                    b.busy_until = start + 1;
                }
                RowOutcome::Miss => {
                    b.activated_at = start + self.timing.t_rcd;
                    b.busy_until = b.activated_at;
                }
                RowOutcome::Conflict => {
                    b.activated_at = finish - self.timing.t_cl - self.timing.burst;
                    b.busy_until = b.activated_at;
                }
            }
            b.open_row = Some(q.row);
            if q.req.is_write {
                b.write_recovery_until = finish + self.timing.t_wr;
            }
            self.bus_free = finish;
            self.time = start + 1;

            let latency = finish.saturating_sub(q.arrival);
            self.stats.record(&q.req, outcome, latency);
            match &mut self.tag_run {
                Some((tag, bytes)) if *tag == q.req.tag => *bytes += q.req.bytes,
                run => {
                    if let Some((tag, bytes)) = run.replace((q.req.tag, q.req.bytes)) {
                        self.stats.add_tag_bytes(tag, bytes);
                    }
                }
            }
            let row = match outcome {
                RowOutcome::Hit => ptsim_trace::RowOutcome::Hit,
                RowOutcome::Miss => ptsim_trace::RowOutcome::Miss,
                RowOutcome::Conflict => ptsim_trace::RowOutcome::Conflict,
            };
            if let Some(t) = &self.tracer {
                t.dram_tx(self.index, finish, q.req.is_write, row, q.req.bytes, latency, q.req.tag);
            }
            if let Some(c) = &self.counters {
                c.record_dram_tx(self.index, finish, q.req.bytes, row);
            }
            debug_assert!(
                self.inflight.back().is_none_or(|&(last, _)| last < finish),
                "per-channel finish times must be strictly increasing"
            );
            self.inflight.push_back((finish, q.req.id));
        }
    }
}
