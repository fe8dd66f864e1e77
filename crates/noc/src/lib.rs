//! Interconnect models — the Booksim analog (§3.8, §4.1).
//!
//! Two fidelity points are provided, matching the paper's PyTorchSim-SN and
//! PyTorchSim-CN variants:
//!
//! - [`NocKind::Simple`]: a latency–bandwidth model (SN). Each source port
//!   serializes its injected bytes at the configured rate and every message
//!   pays the zero-load latency.
//! - [`NocKind::Crossbar`]: a flit-level crossbar (CN). Messages are
//!   segmented into flits; input and output ports each accept `port_links`
//!   flits per cycle, so concurrent messages to one output serialize — the
//!   contention behaviour that matters when interconnect bandwidth is
//!   constrained.
//!
//! An optional chiplet overlay (§5.4) splits the ports between chiplets and
//! routes crossing messages over a per-direction serialized off-chip link
//! with its own latency, producing NUMA behaviour.
//!
//! Both variants implement the [`ptsim_event::Component`] protocol (and
//! [`ptsim_event::CompletionSource`] for allocation-free delivery draining),
//! so any event-kernel driver can schedule them generically.
//!
//! Undelivered messages wait in one FIFO per destination port. Every send to
//! a port moves that port's ejection frontier forward, so arrival times never
//! decrease within a FIFO: each `advance` takes the due prefix of every
//! non-empty FIFO and sorts just that batch by `(arrival, id)`, which is the
//! order a global priority queue would pop them in.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::config::NocConfig;
//! use ptsim_common::{Cycle, RequestId};
//! use ptsim_noc::{NocMessage, NocSim};
//!
//! let mut noc = NocSim::new(&NocConfig::crossbar_tpu_v3(), 4, 940.0);
//! noc.try_send(NocMessage { id: RequestId::new(0), src: 0, dst: 2, bytes: 256 }, Cycle::ZERO);
//! noc.advance(Cycle::new(100));
//! assert_eq!(noc.pop_delivered().len(), 1);
//! ```

use ptsim_common::config::{ChipletLinkConfig, NocConfig, NocKind};
use ptsim_common::cycles::ns_to_cycles;
use ptsim_common::json_record;
use ptsim_common::{Cycle, RequestId};
use ptsim_event::{CompletionSource, Component, DrainFifo};

/// One message travelling through the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocMessage {
    /// Caller identity, echoed on delivery.
    pub id: RequestId,
    /// Source port.
    pub src: usize,
    /// Destination port.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Interconnect statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Messages delivered.
    pub messages: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Messages that crossed the chiplet link.
    pub link_crossings: u64,
    /// Sum of message latencies, cycles.
    pub total_latency: u64,
}

impl NocStats {
    /// Mean message latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }
}

json_record!(NocStats { messages, bytes, link_crossings, total_latency });

/// The interconnect simulator (SN or CN, with optional chiplet overlay).
#[derive(Debug, Clone)]
pub struct NocSim {
    kind: NocKind,
    flit_bytes: u64,
    latency: u64,
    bytes_per_cycle: u64,
    port_links: u64,
    ports: usize,
    in_free: Vec<u64>,
    out_free: Vec<u64>,
    chiplet: Option<ChipletState>,
    /// Per destination port: undelivered messages in send order, which is
    /// also non-decreasing arrival order (see [`NocSim::try_send`]).
    pending: Vec<DrainFifo<RequestId>>,
    /// Ports whose `pending` FIFO is non-empty, in no particular order.
    active: Vec<usize>,
    /// Undelivered messages across every port.
    in_flight: usize,
    /// Earliest arrival at an `active` FIFO's head; `u64::MAX` when nothing
    /// is in flight.
    next_ready: u64,
    delivered: Vec<(RequestId, Cycle)>,
    stats: NocStats,
    max_in_flight: usize,
    tracer: Option<std::sync::Arc<ptsim_trace::Tracer>>,
    counters: Option<std::sync::Arc<ptsim_obs::CounterHub>>,
}

#[derive(Debug, Clone)]
struct ChipletState {
    chiplets: usize,
    ports_per_chiplet: usize,
    /// Optional explicit port→chiplet assignment (cores and memory channels
    /// are interleaved in the port space, so a plain division is not always
    /// the right split).
    port_map: Option<Vec<usize>>,
    link_bytes_per_cycle: u64,
    link_latency: u64,
    /// Per (from, to) directed pair: link-free time.
    link_free: Vec<u64>,
}

impl ChipletState {
    fn new(cfg: &ChipletLinkConfig, ports: usize, freq_mhz: f64) -> Self {
        let chiplets = cfg.chiplets.max(1);
        ChipletState {
            chiplets,
            ports_per_chiplet: ports.div_ceil(chiplets),
            port_map: None,
            link_bytes_per_cycle: cfg.link_bytes_per_cycle.max(1),
            link_latency: ns_to_cycles(cfg.link_latency_ns, freq_mhz),
            link_free: vec![0; chiplets * chiplets],
        }
    }

    fn chiplet_of(&self, port: usize) -> usize {
        if let Some(map) = &self.port_map {
            return map.get(port).copied().unwrap_or(0).min(self.chiplets - 1);
        }
        (port / self.ports_per_chiplet).min(self.chiplets - 1)
    }
}

impl NocSim {
    /// Creates an interconnect with `ports` endpoints at core frequency
    /// `freq_mhz` (used to convert chiplet-link latency from ns).
    pub fn new(cfg: &NocConfig, ports: usize, freq_mhz: f64) -> Self {
        NocSim {
            kind: cfg.kind,
            flit_bytes: cfg.flit_bytes.max(1),
            latency: cfg.latency_cycles,
            bytes_per_cycle: cfg.bytes_per_cycle.max(1),
            port_links: cfg.port_links.max(1),
            ports,
            in_free: vec![0; ports],
            out_free: vec![0; ports],
            chiplet: cfg.chiplet.as_ref().map(|c| ChipletState::new(c, ports, freq_mhz)),
            pending: vec![DrainFifo::new(); ports],
            active: Vec::new(),
            in_flight: 0,
            next_ready: u64::MAX,
            delivered: Vec::new(),
            stats: NocStats::default(),
            max_in_flight: 1 << 20,
            tracer: None,
            counters: None,
        }
    }

    /// Attaches a tracer: every accepted message is recorded on the NoC
    /// track at its delivery cycle with source, destination, and latency.
    pub fn set_tracer(&mut self, tracer: std::sync::Arc<ptsim_trace::Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Attaches a counter hub: every accepted message records its flit (or
    /// byte, for the simple model) occupancy on the source injection and
    /// destination ejection link series at the delivery cycle.
    pub fn set_counters(&mut self, counters: std::sync::Arc<ptsim_obs::CounterHub>) {
        self.counters = Some(counters);
    }

    /// Port slot rate per cycle: flit links for the crossbar, bytes for the
    /// simple model.
    fn port_rate(&self) -> u64 {
        match self.kind {
            NocKind::Simple => self.bytes_per_cycle,
            NocKind::Crossbar => self.port_links,
        }
    }

    /// Slots one message occupies at a port.
    fn msg_units(&self, bytes: u64) -> u64 {
        match self.kind {
            NocKind::Simple => bytes.max(1),
            NocKind::Crossbar => bytes.div_ceil(self.flit_bytes).max(1),
        }
    }

    /// Which chiplet a port belongs to (0 when no chiplet overlay).
    pub fn chiplet_of(&self, port: usize) -> usize {
        self.chiplet.as_ref().map_or(0, |c| c.chiplet_of(port))
    }

    /// Sets an explicit port→chiplet assignment (one entry per port). Used
    /// when cores and memory-channel ports interleave in the port space.
    ///
    /// # Panics
    ///
    /// Panics if `map.len()` differs from the port count.
    pub fn set_chiplet_map(&mut self, map: Vec<usize>) {
        assert_eq!(map.len(), self.ports, "chiplet map must cover every port");
        if let Some(c) = &mut self.chiplet {
            c.port_map = Some(map);
        }
    }

    /// Attempts to inject a message at `now`; returns `false` when the
    /// in-flight window is full (backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a valid port.
    pub fn try_send(&mut self, msg: NocMessage, now: Cycle) -> bool {
        assert!(msg.src < self.ports && msg.dst < self.ports, "port out of range");
        if self.in_flight >= self.max_in_flight {
            return false;
        }
        let now = now.raw();
        // Port occupancy is tracked in fine-grained slots (flits for the
        // crossbar, bytes for the simple model) so several small messages
        // can share one port-cycle — a port is a wide link, not a
        // one-message-per-cycle turnstile.
        let rate = self.port_rate();
        let units = self.msg_units(msg.bytes);
        // Injection serialization at the source port.
        let inj_start = (now * rate).max(self.in_free[msg.src]);
        let inj_end = inj_start + units;
        self.in_free[msg.src] = inj_end;

        // Chiplet link crossing, if any (tracked in byte-slots).
        let mut t = inj_end.div_ceil(rate);
        let mut crossed = false;
        if let Some(ch) = &mut self.chiplet {
            let (a, b) = (ch.chiplet_of(msg.src), ch.chiplet_of(msg.dst));
            if a != b {
                crossed = true;
                let idx = a * ch.chiplets + b;
                let lrate = ch.link_bytes_per_cycle;
                let start = (t * lrate).max(ch.link_free[idx]);
                let end = start + msg.bytes;
                ch.link_free[idx] = end;
                t = end.div_ceil(lrate) + ch.link_latency;
            }
        }

        // Output-port serialization (ejection). `ej_end` strictly increases
        // per destination (it becomes the port's new `out_free`), so `ready`
        // never decreases within the destination's FIFO.
        let ej_start = (t * rate).max(self.out_free[msg.dst]);
        let ej_end = ej_start + units;
        self.out_free[msg.dst] = ej_end;
        let ready = ej_end.div_ceil(rate) + self.latency;

        self.stats.messages += 1;
        self.stats.bytes += msg.bytes;
        self.stats.total_latency += ready - now;
        if crossed {
            self.stats.link_crossings += 1;
        }
        if let Some(t) = &self.tracer {
            t.noc_transfer(ready, msg.src, msg.dst, msg.bytes, ready - now, crossed, 0);
        }
        if let Some(c) = &self.counters {
            c.record_noc_flits(msg.src, msg.dst, ready, units);
        }
        let fifo = &mut self.pending[msg.dst];
        if fifo.is_empty() {
            self.active.push(msg.dst);
        }
        // `DrainFifo::push` debug-asserts that arrivals never decrease.
        fifo.push(Cycle::new(ready), msg.id);
        self.in_flight += 1;
        self.next_ready = self.next_ready.min(ready);
        true
    }

    /// Delivers every message whose arrival time is ≤ `to`, in
    /// `(arrival, id)` order.
    pub fn advance(&mut self, to: Cycle) {
        let horizon = to.raw();
        if horizon < self.next_ready {
            return;
        }
        let start = self.delivered.len();
        let mut next = u64::MAX;
        let mut i = 0;
        while i < self.active.len() {
            let fifo = &mut self.pending[self.active[i]];
            while let Some((ready, &id)) = fifo.front() {
                if ready.raw() > horizon {
                    next = next.min(ready.raw());
                    break;
                }
                fifo.pop_front();
                self.delivered.push((id, ready));
            }
            if fifo.is_empty() {
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        self.in_flight -= self.delivered.len() - start;
        self.next_ready = next;
        self.delivered[start..].sort_unstable_by_key(|&(id, at)| (at, id));
    }

    /// Drains the delivered-message list.
    ///
    /// Allocates a fresh `Vec` per call; hot loops should prefer the
    /// buffer-reusing [`CompletionSource::drain_completions_into`].
    pub fn pop_delivered(&mut self) -> Vec<(RequestId, Cycle)> {
        std::mem::take(&mut self.delivered)
    }

    /// True if messages are still in flight.
    pub fn busy(&self) -> bool {
        self.in_flight > 0
    }

    /// Earliest pending delivery time, if any.
    pub fn next_event(&self) -> Option<Cycle> {
        self.busy().then(|| Cycle::new(self.next_ready))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }
}

impl Component for NocSim {
    fn advance(&mut self, to: Cycle) {
        NocSim::advance(self, to);
    }

    fn next_event(&self) -> Option<Cycle> {
        NocSim::next_event(self)
    }

    fn busy(&self) -> bool {
        NocSim::busy(self)
    }
}

impl CompletionSource for NocSim {
    type Completion = (RequestId, Cycle);

    fn drain_completions_into(&mut self, out: &mut Vec<Self::Completion>) {
        out.append(&mut self.delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ptsim_common::config::NocConfig;

    fn send(noc: &mut NocSim, id: u64, src: usize, dst: usize, bytes: u64, at: u64) {
        assert!(
            noc.try_send(NocMessage { id: RequestId::new(id), src, dst, bytes }, Cycle::new(at))
        );
    }

    fn delivery(noc: &mut NocSim, id: u64) -> u64 {
        noc.advance(Cycle::new(1_000_000));
        noc.pop_delivered()
            .iter()
            .find(|(r, _)| r.raw() == id)
            .map(|&(_, t)| t.raw())
            .expect("message delivered")
    }

    #[test]
    fn simple_model_pays_latency_and_serialization() {
        let mut cfg = NocConfig::simple();
        cfg.bytes_per_cycle = 64;
        let mut noc = NocSim::new(&cfg, 4, 940.0);
        send(&mut noc, 0, 0, 1, 256, 0);
        let t = delivery(&mut noc, 0);
        // 256B at 64B/cycle twice (inject + eject) + 4 cycles latency.
        assert_eq!(t, 4 + 4 + 4);
    }

    #[test]
    fn crossbar_contention_serializes_at_output() {
        let mut cfg = NocConfig::crossbar_tpu_v3();
        cfg.port_links = 1; // single-link ports make contention visible
        let mut noc = NocSim::new(&cfg, 4, 940.0);
        // Two sources target the same destination at once.
        send(&mut noc, 0, 0, 2, 256, 0);
        send(&mut noc, 1, 1, 2, 256, 0);
        noc.advance(Cycle::new(1_000_000));
        let done = noc.pop_delivered();
        let t0 = done.iter().find(|(r, _)| r.raw() == 0).unwrap().1.raw();
        let t1 = done.iter().find(|(r, _)| r.raw() == 1).unwrap().1.raw();
        // 256B = 8 flits; the second message waits for the first's ejection.
        assert!((t1 as i64 - t0 as i64).unsigned_abs() >= 8, "t0={t0} t1={t1}");
    }

    #[test]
    fn distinct_destinations_do_not_contend() {
        let mut cfg = NocConfig::crossbar_tpu_v3();
        cfg.port_links = 1;
        let mut noc = NocSim::new(&cfg, 4, 940.0);
        send(&mut noc, 0, 0, 2, 256, 0);
        send(&mut noc, 1, 1, 3, 256, 0);
        noc.advance(Cycle::new(1_000_000));
        let done = noc.pop_delivered();
        let t0 = done.iter().find(|(r, _)| r.raw() == 0).unwrap().1.raw();
        let t1 = done.iter().find(|(r, _)| r.raw() == 1).unwrap().1.raw();
        assert_eq!(t0, t1);
    }

    #[test]
    fn chiplet_crossing_pays_link_latency_and_bandwidth() {
        let mut cfg = NocConfig::crossbar_tpu_v3();
        cfg.chiplet = Some(ptsim_common::config::ChipletLinkConfig::paper_two_chiplets());
        // 4 ports: 0,1 on chiplet 0; 2,3 on chiplet 1.
        let mut noc = NocSim::new(&cfg, 4, 940.0);
        assert_eq!(noc.chiplet_of(0), 0);
        assert_eq!(noc.chiplet_of(3), 1);
        send(&mut noc, 0, 0, 1, 256, 0); // local
        send(&mut noc, 1, 0, 3, 256, 0); // crossing
        noc.advance(Cycle::new(1_000_000));
        let done = noc.pop_delivered();
        let local = done.iter().find(|(r, _)| r.raw() == 0).unwrap().1.raw();
        let remote = done.iter().find(|(r, _)| r.raw() == 1).unwrap().1.raw();
        // Remote pays 19-cycle link latency plus 256/34 serialization.
        assert!(remote >= local + 19, "local {local} remote {remote}");
        assert_eq!(noc.stats().link_crossings, 1);
    }

    #[test]
    fn opposite_link_directions_are_independent() {
        let mut cfg = NocConfig::simple();
        cfg.chiplet = Some(ptsim_common::config::ChipletLinkConfig::paper_two_chiplets());
        let mut noc = NocSim::new(&cfg, 4, 940.0);
        send(&mut noc, 0, 0, 2, 3400, 0); // chiplet 0 -> 1 (100 link cycles)
        send(&mut noc, 1, 2, 0, 3400, 0); // chiplet 1 -> 0
        noc.advance(Cycle::new(1_000_000));
        let done = noc.pop_delivered();
        let a = done.iter().find(|(r, _)| r.raw() == 0).unwrap().1.raw();
        let b = done.iter().find(|(r, _)| r.raw() == 1).unwrap().1.raw();
        // Full duplex: both should complete at the same time.
        assert_eq!(a, b);
    }

    #[test]
    fn same_link_direction_serializes() {
        let mut cfg = NocConfig::simple();
        cfg.chiplet = Some(ptsim_common::config::ChipletLinkConfig::paper_two_chiplets());
        let mut noc = NocSim::new(&cfg, 4, 940.0);
        send(&mut noc, 0, 0, 2, 3400, 0);
        send(&mut noc, 1, 1, 3, 3400, 0); // same direction 0 -> 1
        noc.advance(Cycle::new(1_000_000));
        let done = noc.pop_delivered();
        let a = done.iter().find(|(r, _)| r.raw() == 0).unwrap().1.raw();
        let b = done.iter().find(|(r, _)| r.raw() == 1).unwrap().1.raw();
        assert!((b as i64 - a as i64).unsigned_abs() >= 90, "a {a} b {b}");
    }

    #[test]
    fn stats_accumulate() {
        let cfg = NocConfig::simple();
        let mut noc = NocSim::new(&cfg, 2, 940.0);
        send(&mut noc, 0, 0, 1, 64, 0);
        send(&mut noc, 1, 0, 1, 64, 0);
        noc.advance(Cycle::new(1000));
        let s = noc.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 128);
        assert!(s.mean_latency() > 0.0);
    }

    /// One random step: route bits, payload bytes, send offset past the
    /// current horizon, advance gap past the send, and whether to advance
    /// to the same horizon twice.
    type Step = (u64, u64, u64, u64, bool);

    /// Drives `steps` through one interconnect advancing after every send
    /// and a clone advanced once at the end, checking the delivery-order
    /// contract of the per-destination FIFOs against the arrival times
    /// read back from the latency statistics.
    fn check_delivery_order(
        cfg: &NocConfig,
        ports: usize,
        map: Option<Vec<usize>>,
        steps: &[Step],
    ) -> Result<(), String> {
        let mut noc = NocSim::new(cfg, ports, 940.0);
        if let Some(map) = map {
            noc.set_chiplet_map(map);
        }
        let mut oneshot = noc.clone();
        let mut log: Vec<(RequestId, Cycle)> = Vec::new();
        let mut pending: Vec<(u64, RequestId)> = Vec::new();
        let mut last_ready = vec![0u64; ports];
        let mut horizon = 0u64;
        for (i, &(route, bytes, offset, gap, repeat)) in steps.iter().enumerate() {
            let src = (route % ports as u64) as usize;
            let dst = ((route >> 32) % ports as u64) as usize;
            // A permutation of the step index: ids reach the NoC out of
            // order, as retried transactions do.
            let id = RequestId::new(i as u64 * 7919 % 65521);
            let msg = NocMessage { id, src, dst, bytes };
            let at = horizon + offset;
            let before = noc.stats().total_latency;
            prop_assert!(
                noc.try_send(msg, Cycle::new(at)) && oneshot.try_send(msg, Cycle::new(at))
            );
            let ready = at + noc.stats().total_latency - before;
            prop_assert!(
                ready >= last_ready[dst],
                "port {dst}: arrival {ready} after {}",
                last_ready[dst]
            );
            last_ready[dst] = ready;
            pending.push((ready, id));
            let advances = if repeat { 2 } else { 1 };
            for _ in 0..advances {
                let prev = horizon;
                horizon = at + gap;
                noc.advance(Cycle::new(horizon));
                for (id, c) in noc.pop_delivered() {
                    prop_assert!(
                        prev < c.raw() && c.raw() <= horizon,
                        "{id:?} delivered at {c} outside ({prev}, {horizon}]"
                    );
                    let k = pending.iter().position(|&(_, p)| p == id).ok_or("unknown id")?;
                    prop_assert_eq!(pending.swap_remove(k).0, c.raw());
                    log.push((id, c));
                }
                let earliest = pending.iter().map(|&(r, _)| Cycle::new(r)).min();
                prop_assert_eq!(noc.next_event(), earliest);
            }
        }
        let end = Cycle::new(horizon + (1 << 40));
        noc.advance(end);
        log.extend(noc.pop_delivered());
        prop_assert!(!noc.busy() && noc.next_event().is_none());
        prop_assert!(
            log.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
            "deliveries not sorted by (cycle, id)"
        );
        prop_assert_eq!(log.len(), steps.len());
        oneshot.advance(end);
        prop_assert!(oneshot.pop_delivered() == log, "stepwise and one-shot deliveries differ");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn deliveries_follow_arrival_then_id_order(
            steps in proptest::collection::vec(
                (any::<u64>(), 1u64..2048, 0u64..4, 0u64..40, any::<bool>()),
                1..300,
            ),
            shape in (any::<bool>(), 2usize..9, 1u64..5, 0u64..12, 1u64..256),
            chiplet in (0usize..4, 8u64..64, 0u64..40, any::<bool>()),
            map in proptest::collection::vec(0usize..3, 8..9),
        ) {
            let (crossbar, ports, port_links, latency, bytes_per_cycle) = shape;
            let (chiplets, link_bytes_per_cycle, link_latency_ns, explicit_map) = chiplet;
            let cfg = NocConfig {
                kind: if crossbar { NocKind::Crossbar } else { NocKind::Simple },
                latency_cycles: latency,
                bytes_per_cycle,
                port_links,
                chiplet: (chiplets > 1).then_some(ChipletLinkConfig {
                    chiplets,
                    link_bytes_per_cycle,
                    link_latency_ns: link_latency_ns as f64,
                }),
                ..NocConfig::crossbar_tpu_v3()
            };
            let map = (chiplets > 1 && explicit_map).then(|| map[..ports].to_vec());
            if let Err(e) = check_delivery_order(&cfg, ports, map, &steps) {
                prop_assert!(false, "{cfg:?}, {ports} ports: {e}");
            }
        }
    }
}
