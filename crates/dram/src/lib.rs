//! Cycle-accurate DRAM model — the Ramulator 2 analog (§3.8).
//!
//! The model is organized as channels × banks with open-row (row-buffer)
//! tracking, the paper's timing parameters (tCL/tRCD/tRAS/tWR/tRP), and a
//! choice of FR-FCFS or FCFS scheduling. It runs in the NPU core clock
//! domain and is *event-driven*: callers enqueue transaction-granularity
//! requests and call [`DramSim::advance`] to move the memory timeline
//! forward, which keeps multi-million-cycle simulations fast while
//! preserving cycle-level interleaving under contention — the property the
//! multi-tenancy and heterogeneous-NPU case studies depend on (§5.1–5.2).
//!
//! The model implements the [`ptsim_event::Component`] protocol (and
//! [`ptsim_event::CompletionSource`] for allocation-free completion
//! draining), so any event-kernel driver can schedule it generically.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::config::DramConfig;
//! use ptsim_common::{Cycle, RequestId};
//! use ptsim_dram::{DramSim, MemRequest};
//!
//! let mut dram = DramSim::new(&DramConfig::hbm2_tpu_v3(), 940.0);
//! let req = MemRequest::read(RequestId::new(0), 0x1000, 64, 0);
//! assert!(dram.try_enqueue(req, Cycle::ZERO));
//! dram.advance(Cycle::new(100));
//! let done = dram.pop_completed();
//! assert_eq!(done.len(), 1);
//! ```

pub mod channel;
#[cfg(test)]
mod reference;
pub mod stats;

pub use channel::{MemRequest, RowOutcome};
pub use stats::DramStats;

use channel::Channel;
use ptsim_common::config::DramConfig;
use ptsim_common::{Cycle, RequestId};
use ptsim_event::{CompletionSource, Component};

/// The multi-channel DRAM simulator.
#[derive(Debug, Clone)]
pub struct DramSim {
    cfg: DramConfig,
    /// `log2(transaction_bytes)`: an address's block is `addr >> tx_shift`.
    tx_shift: u32,
    channels: Vec<Channel>,
    completed: Vec<(RequestId, Cycle)>,
}

impl DramSim {
    /// Creates a DRAM model for `cfg`, with timings converted to core
    /// cycles at `freq_mhz`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.transaction_bytes` is not a power of two: addresses
    /// are decoded with a shift. `SimConfig::validate` (and
    /// `DramConfig::validate`) reject such a configuration with an error
    /// first.
    pub fn new(cfg: &DramConfig, freq_mhz: f64) -> Self {
        assert!(
            cfg.transaction_bytes.is_power_of_two(),
            "dram transaction bytes must be a power of two, got {}",
            cfg.transaction_bytes
        );
        let channels = (0..cfg.channels).map(|_| Channel::new(cfg, freq_mhz)).collect();
        DramSim {
            cfg: cfg.clone(),
            tx_shift: cfg.transaction_bytes.trailing_zeros(),
            channels,
            completed: Vec::new(),
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Attaches a tracer: every channel records its retiring transactions
    /// (with row-buffer outcome and latency) on its own trace track.
    pub fn set_tracer(&mut self, tracer: std::sync::Arc<ptsim_trace::Tracer>) {
        for (i, ch) in self.channels.iter_mut().enumerate() {
            ch.set_tracer(tracer.clone(), i);
        }
    }

    /// Attaches a counter hub: every channel records retiring transactions
    /// into its per-channel bandwidth and row-outcome counter series.
    pub fn set_counters(&mut self, counters: std::sync::Arc<ptsim_obs::CounterHub>) {
        for (i, ch) in self.channels.iter_mut().enumerate() {
            ch.set_counters(counters.clone(), i);
        }
    }

    /// Maps an address to its channel index (transaction-interleaved).
    pub fn channel_of(&self, addr: u64) -> usize {
        self.decode(addr).0
    }

    /// Splits an address into its channel and its block index within that
    /// channel: blocks of `transaction_bytes` interleave across channels.
    fn decode(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.tx_shift;
        let channels = self.cfg.channels as u64;
        ((block % channels) as usize, block / channels)
    }

    /// Attempts to enqueue a transaction; returns `false` if the target
    /// channel's queue is full (the caller must retry later — this is the
    /// backpressure that throttles DMA engines).
    pub fn try_enqueue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let (ch, in_channel) = self.decode(req.addr);
        self.channels[ch].try_enqueue(req, in_channel, now)
    }

    /// Advances every channel's timeline to `to`, retiring requests.
    pub fn advance(&mut self, to: Cycle) {
        for ch in &mut self.channels {
            ch.advance(to, &mut self.completed);
        }
    }

    /// Drains the completed-request list.
    ///
    /// Allocates a fresh `Vec` per call; hot loops should prefer the
    /// buffer-reusing [`CompletionSource::drain_completions_into`].
    pub fn pop_completed(&mut self) -> Vec<(RequestId, Cycle)> {
        std::mem::take(&mut self.completed)
    }

    /// True if any request is queued or in flight.
    pub fn busy(&self) -> bool {
        self.channels.iter().any(Channel::busy)
    }

    /// The earliest future time at which something will complete, if any.
    pub fn next_event(&self) -> Option<Cycle> {
        self.channels.iter().filter_map(Channel::next_event).min()
    }

    /// Aggregated statistics over all channels.
    pub fn stats(&self) -> DramStats {
        let mut total = DramStats::default();
        for ch in &self.channels {
            ch.merge_stats_into(&mut total);
        }
        total
    }

    /// Total free request-queue slots (diagnostic).
    pub fn free_slots(&self) -> usize {
        self.channels.iter().map(Channel::free_slots).sum()
    }
}

impl Component for DramSim {
    fn advance(&mut self, to: Cycle) {
        DramSim::advance(self, to);
    }

    fn next_event(&self) -> Option<Cycle> {
        DramSim::next_event(self)
    }

    fn busy(&self) -> bool {
        DramSim::busy(self)
    }
}

impl CompletionSource for DramSim {
    type Completion = (RequestId, Cycle);

    fn drain_completions_into(&mut self, out: &mut Vec<Self::Completion>) {
        out.append(&mut self.completed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_common::config::MemSchedulerPolicy;
    use ptsim_common::id::RequestIdGen;

    fn cfg() -> DramConfig {
        DramConfig { channels: 2, ..DramConfig::hbm2_tpu_v3() }
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let c = cfg();
        let mut dram = DramSim::new(&c, 940.0);
        let req = MemRequest::read(RequestId::new(1), 0, 64, 0);
        assert!(dram.try_enqueue(req, Cycle::ZERO));
        assert!(dram.busy());
        dram.advance(Cycle::new(1000));
        let done = dram.pop_completed();
        assert_eq!(done.len(), 1);
        // First access is a row miss: at least tRCD + tCL ≈ 16 cycles.
        assert!(done[0].1.raw() >= 15, "completed at {}", done[0].1);
        assert!(!dram.busy());
        let s = dram.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.row_misses, 1);
    }

    #[test]
    fn sequential_stream_mostly_row_hits() {
        let c = cfg();
        let mut dram = DramSim::new(&c, 940.0);
        let mut ids = RequestIdGen::new();
        let mut enqueued = 0u64;
        let mut addr = 0u64;
        let mut now = Cycle::ZERO;
        while enqueued < 256 {
            let req = MemRequest::read(ids.next_id(), addr, 64, 0);
            if dram.try_enqueue(req, now) {
                enqueued += 1;
                addr += 64;
            } else {
                now = dram.next_event().unwrap_or(now + 100);
                dram.advance(now);
            }
        }
        dram.advance(Cycle::new(1_000_000));
        assert_eq!(dram.pop_completed().len(), 256);
        let s = dram.stats();
        assert!(
            s.row_hits > 3 * (s.row_misses + s.row_conflicts),
            "hits {} misses {} conflicts {}",
            s.row_hits,
            s.row_misses,
            s.row_conflicts
        );
    }

    #[test]
    fn random_stream_causes_conflicts() {
        let c = cfg();
        let mut dram = DramSim::new(&c, 940.0);
        let mut ids = RequestIdGen::new();
        // Stride chosen to hammer a single bank with different rows.
        let bank_stride = c.transaction_bytes
            * c.channels as u64
            * (c.row_bytes / c.transaction_bytes)
            * c.banks_per_channel as u64;
        let mut now = Cycle::ZERO;
        for i in 0..64u64 {
            let req = MemRequest::read(ids.next_id(), i * bank_stride, 64, 0);
            while !dram.try_enqueue(req, now) {
                now = dram.next_event().unwrap_or(now + 100);
                dram.advance(now);
            }
        }
        dram.advance(Cycle::new(1_000_000));
        let s = dram.stats();
        assert!(s.row_conflicts > 30, "conflicts {}", s.row_conflicts);
    }

    #[test]
    fn frfcfs_prefers_row_hits_over_older_conflicts() {
        let mut c = cfg();
        c.channels = 1;
        c.scheduler = MemSchedulerPolicy::FrFcfs;
        let mut dram = DramSim::new(&c, 940.0);
        // Open row 0 with request A; then enqueue B (conflict row) and C
        // (hit on row 0). Under FR-FCFS, C should finish before B.
        let row_stride =
            c.transaction_bytes * (c.row_bytes / c.transaction_bytes) * c.banks_per_channel as u64;
        dram.try_enqueue(MemRequest::read(RequestId::new(0), 0, 64, 0), Cycle::ZERO);
        dram.advance(Cycle::new(100));
        dram.try_enqueue(MemRequest::read(RequestId::new(1), row_stride, 64, 0), Cycle::new(100));
        dram.try_enqueue(MemRequest::read(RequestId::new(2), 64, 64, 0), Cycle::new(100));
        dram.advance(Cycle::new(10_000));
        let done = dram.pop_completed();
        let t = |id: u64| done.iter().find(|(r, _)| r.raw() == id).unwrap().1;
        assert!(t(2) < t(1), "hit {} should beat conflict {}", t(2), t(1));
    }

    #[test]
    fn fcfs_respects_arrival_order() {
        let mut c = cfg();
        c.channels = 1;
        c.scheduler = MemSchedulerPolicy::Fcfs;
        let mut dram = DramSim::new(&c, 940.0);
        let row_stride =
            c.transaction_bytes * (c.row_bytes / c.transaction_bytes) * c.banks_per_channel as u64;
        dram.try_enqueue(MemRequest::read(RequestId::new(0), 0, 64, 0), Cycle::ZERO);
        dram.advance(Cycle::new(100));
        dram.try_enqueue(MemRequest::read(RequestId::new(1), row_stride, 64, 0), Cycle::new(100));
        dram.try_enqueue(MemRequest::read(RequestId::new(2), 64, 64, 0), Cycle::new(100));
        dram.advance(Cycle::new(10_000));
        let done = dram.pop_completed();
        let t = |id: u64| done.iter().find(|(r, _)| r.raw() == id).unwrap().1;
        assert!(t(1) <= t(2), "fcfs must serve older first");
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let mut c = cfg();
        c.channels = 1;
        c.queue_depth = 4;
        let mut dram = DramSim::new(&c, 940.0);
        let mut ok = 0;
        for i in 0..10u64 {
            if dram.try_enqueue(MemRequest::read(RequestId::new(i), i * 64, 64, 0), Cycle::ZERO) {
                ok += 1;
            }
        }
        assert_eq!(ok, 4);
        dram.advance(Cycle::new(100_000));
        assert_eq!(dram.pop_completed().len(), 4);
    }

    #[test]
    fn per_tag_bytes_are_tracked() {
        let c = cfg();
        let mut dram = DramSim::new(&c, 940.0);
        dram.try_enqueue(MemRequest::read(RequestId::new(0), 0, 64, 7), Cycle::ZERO);
        dram.try_enqueue(MemRequest::write(RequestId::new(1), 64, 64, 9), Cycle::ZERO);
        dram.advance(Cycle::new(10_000));
        let s = dram.stats();
        assert_eq!(s.bytes_by_tag.get(&7).copied(), Some(64));
        assert_eq!(s.bytes_by_tag.get(&9).copied(), Some(64));
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn writes_are_slower_to_turn_around() {
        // A write followed by a conflicting row read must respect tWR.
        let mut c = cfg();
        c.channels = 1;
        let mut dram = DramSim::new(&c, 940.0);
        let row_stride =
            c.transaction_bytes * (c.row_bytes / c.transaction_bytes) * c.banks_per_channel as u64;
        dram.try_enqueue(MemRequest::write(RequestId::new(0), 0, 64, 0), Cycle::ZERO);
        dram.try_enqueue(MemRequest::read(RequestId::new(1), row_stride, 64, 0), Cycle::ZERO);
        dram.advance(Cycle::new(100_000));
        let done = dram.pop_completed();
        let t1 = done.iter().find(|(r, _)| r.raw() == 1).unwrap().1;
        // write (tRCD+tCL) + tWR + tRP + tRCD + tCL at 940 MHz ≥ 40 cycles.
        assert!(t1.raw() >= 40, "read after write conflict at {t1}");
    }

    /// The address map as closed-form divisions: channel, then bank and row.
    fn closed_form(c: &DramConfig, addr: u64) -> (usize, usize, u64) {
        let block = addr / c.transaction_bytes;
        let channel = (block % c.channels as u64) as usize;
        let in_channel = block / c.channels as u64;
        let blocks_per_row = (c.row_bytes / c.transaction_bytes).max(1);
        let banks = c.banks_per_channel as u64;
        let bank = ((in_channel / blocks_per_row) % banks) as usize;
        (channel, bank, in_channel / blocks_per_row / banks)
    }

    #[test]
    fn shift_decode_matches_the_closed_form_on_odd_geometries() {
        let mut rng = ptsim_common::rng::Rng::seed_from_u64(46);
        for (channels, banks, row_bytes, tx) in
            [(3, 6, 192, 64), (5, 7, 96, 32), (1, 1, 64, 64), (16, 16, 2048, 64), (7, 3, 1000, 8)]
        {
            let c = DramConfig {
                channels,
                banks_per_channel: banks,
                row_bytes,
                transaction_bytes: tx,
                ..DramConfig::hbm2_tpu_v3()
            };
            let dram = DramSim::new(&c, 940.0);
            let small = (0..4096u64).map(|i| i * 8);
            let random = (0..4096).map(|_| rng.next_u64() >> rng.gen_range(0..48u32));
            for addr in small.chain(random).chain([u64::MAX]) {
                let (ch, in_channel) = dram.decode(addr);
                let (bank, row) = dram.channels[ch].bank_and_row(in_channel);
                assert_eq!(ch, dram.channel_of(addr), "{c:?} at {addr:#x}");
                assert_eq!((ch, bank, row), closed_form(&c, addr), "{c:?} at {addr:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn transaction_bytes_off_a_power_of_two_panic() {
        let c = DramConfig { transaction_bytes: 96, ..cfg() };
        assert!(c.validate().is_err(), "the config layer rejects it first");
        DramSim::new(&c, 940.0);
    }
}
