//! Interconnect models — the Booksim analog (§3.8, §4.1).
//!
//! Two fidelity points are provided, matching the paper's PyTorchSim-SN and
//! PyTorchSim-CN variants:
//!
//! - [`NocKind::Simple`]: a latency–bandwidth model (SN). Each source port
//!   serializes its injected bytes at the configured rate and every message
//!   pays the zero-load latency.
//! - [`NocKind::Crossbar`]: a flit-level crossbar (CN). Messages are
//!   segmented into flits; input and output ports each accept one flit per
//!   cycle, so concurrent messages to one output serialize — the contention
//!   behaviour that matters when interconnect bandwidth is constrained.
//!
//! An optional chiplet overlay (§5.4) splits the ports between chiplets and
//! routes crossing messages over a per-direction serialized off-chip link
//! with its own latency, producing NUMA behaviour.
//!
//! Both variants implement the [`ptsim_event::Component`] protocol (and
//! [`ptsim_event::CompletionSource`] for allocation-free delivery draining),
//! so any event-kernel driver can schedule them generically.
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
use ptsim_common::json::{FromJson, Json, ToJson};
use ptsim_common::{Cycle, RequestId};
use ptsim_event::{CompletionSource, Component};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

impl ToJson for NocStats {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("messages", Json::u64(self.messages))
            .set("bytes", Json::u64(self.bytes))
            .set("link_crossings", Json::u64(self.link_crossings))
            .set("total_latency", Json::u64(self.total_latency))
    }
}

impl FromJson for NocStats {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(NocStats {
            messages: v.req_u64("messages")?,
            bytes: v.req_u64("bytes")?,
            link_crossings: v.req_u64("link_crossings")?,
            total_latency: v.req_u64("total_latency")?,
        })
    }
}

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
    queue: BinaryHeap<Reverse<(u64, RequestId)>>,
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
            queue: BinaryHeap::new(),
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
        if self.queue.len() >= self.max_in_flight {
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

        // Output-port serialization (ejection).
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
        self.queue.push(Reverse((ready, msg.id)));
        true
    }

    /// Delivers every message whose arrival time is ≤ `to`.
    pub fn advance(&mut self, to: Cycle) {
        let horizon = to.raw();
        while let Some(&Reverse((ready, id))) = self.queue.peek() {
            if ready > horizon {
                break;
            }
            self.queue.pop();
            self.delivered.push((id, Cycle::new(ready)));
        }
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
        !self.queue.is_empty()
    }

    /// Earliest pending delivery time, if any.
    pub fn next_event(&self) -> Option<Cycle> {
        self.queue.peek().map(|&Reverse((ready, _))| Cycle::new(ready))
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
}
