//! ptsim-obs — cycle-resolved hardware performance counters.
//!
//! A [`CounterHub`] is the observability companion to `ptsim-trace`'s
//! event ring: instead of individual events it accumulates *time-bucketed
//! counter series* — systolic-array and vector-unit busy cycles per core
//! (and per kernel), DRAM per-channel bandwidth and row-buffer outcomes,
//! NoC per-link flit occupancy, and scheduler/DrainFifo queue depths.
//! Components hold an `Option<Arc<CounterHub>>` and record through typed
//! methods, so the disabled path costs one branch and nothing else.
//!
//! Memory is bounded: every series starts at
//! [`CounterConfig::cycles_per_bucket`] cycles per bucket and, when a
//! recording lands past [`CounterConfig::max_buckets`], the series
//! *coalesces* — adjacent buckets merge and the bucket width doubles —
//! so arbitrarily long runs fit in a fixed footprint while keeping the
//! full time extent.
//!
//! Determinism: bucket sums and maxima are commutative, and every bucket
//! index is a function of the simulated cycle an event retires at. Since
//! the execution backends (`Serial` / `Reference`) produce bit-identical
//! event sets, the counter series they record are bit-identical too.
//!
//! The [`profile`] module turns a recorded hub into a roofline-style
//! bottleneck attribution (compute vs DRAM-stall vs NoC-stall per
//! kernel); `ptsim profile` (in `ptsim-bench`) joins it with the staged
//! compiler's `KernelStore` for per-layer tables.

pub mod profile;

use ptsim_common::json::Json;
use ptsim_trace::chrome::CounterTrack;
use ptsim_trace::RowOutcome;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Sizing of every series in a [`CounterHub`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterConfig {
    /// Simulated cycles per bucket before any coalescing. Clamped to at
    /// least 1.
    pub cycles_per_bucket: u64,
    /// Bucket-count ceiling per series; recording past it doubles the
    /// bucket width (halving the count). Clamped to at least 2.
    pub max_buckets: usize,
}

impl Default for CounterConfig {
    fn default() -> Self {
        CounterConfig { cycles_per_bucket: 1024, max_buckets: 4096 }
    }
}

impl CounterConfig {
    fn normalized(self) -> Self {
        CounterConfig {
            cycles_per_bucket: self.cycles_per_bucket.max(1),
            max_buckets: self.max_buckets.max(2),
        }
    }
}

/// How a series combines values landing in one bucket (and buckets
/// merging during coalescing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Agg {
    /// Bucket holds the sum of recorded values (busy cycles, bytes, flits).
    Sum,
    /// Bucket holds the maximum recorded value (queue depths).
    Max,
}

/// Which compute unit a busy-cycle recording charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyUnit {
    /// The systolic array.
    Matrix,
    /// The vector unit.
    Vector,
}

/// Which queue a depth sample describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueueSite {
    /// The engine's pending-event queue.
    Scheduler,
    /// A core's matrix-lane ready queue.
    CoreMatrix,
    /// A core's vector-lane ready queue.
    CoreVector,
    /// A core's DMA wait queue.
    CoreDma,
    /// A timing-sim serializer `DrainFifo` (index 0 weights, 1 inputs).
    TimingSerializer,
    /// The timing-sim systolic-array output `DrainFifo`.
    TimingSaOutputs,
}

impl QueueSite {
    fn name(self, index: u32) -> String {
        match self {
            QueueSite::Scheduler => "queue.scheduler".to_string(),
            QueueSite::CoreMatrix => format!("queue.core{index}.matrix"),
            QueueSite::CoreVector => format!("queue.core{index}.vector"),
            QueueSite::CoreDma => format!("queue.core{index}.dma"),
            QueueSite::TimingSerializer => format!("queue.timing.serializer{index}"),
            QueueSite::TimingSaOutputs => "queue.timing.sa_outputs".to_string(),
        }
    }
}

/// Identity of one counter series. The `Ord` derive fixes snapshot order,
/// making every exported view deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CounterKey {
    /// Systolic-array busy cycles on one core.
    CoreMatrixBusy {
        /// Global core index.
        core: u32,
    },
    /// Vector-unit busy cycles on one core.
    CoreVectorBusy {
        /// Global core index.
        core: u32,
    },
    /// Busy cycles of one kernel on one core (both lanes combined).
    KernelBusy {
        /// Global core index.
        core: u32,
        /// Interned kernel id; resolve with [`CounterHub::kernel_name`].
        kernel: u32,
    },
    /// Bytes transferred on one DRAM channel.
    DramBytes {
        /// Channel index.
        channel: u32,
    },
    /// Row-buffer hits on one DRAM channel.
    DramRowHits {
        /// Channel index.
        channel: u32,
    },
    /// Row-buffer misses on one DRAM channel.
    DramRowMisses {
        /// Channel index.
        channel: u32,
    },
    /// Row-buffer conflicts on one DRAM channel.
    DramRowConflicts {
        /// Channel index.
        channel: u32,
    },
    /// Flits (or bytes, for the simple NoC) injected on one port's link.
    NocInjFlits {
        /// Source port.
        port: u32,
    },
    /// Flits ejected at one port's link.
    NocEjFlits {
        /// Destination port.
        port: u32,
    },
    /// Depth samples of one queue (Max-aggregated).
    QueueDepth {
        /// Which queue family.
        site: QueueSite,
        /// Instance index within the family.
        index: u32,
    },
}

impl CounterKey {
    fn agg(self) -> Agg {
        match self {
            CounterKey::QueueDepth { .. } => Agg::Max,
            _ => Agg::Sum,
        }
    }
}

/// One bucketed series, dense from cycle 0.
#[derive(Debug, Clone)]
struct Cell {
    agg: Agg,
    width: u64,
    buckets: Vec<u64>,
    total: u64,
}

impl Cell {
    fn new(agg: Agg, width: u64) -> Self {
        Cell { agg, width, buckets: Vec::new(), total: 0 }
    }

    fn combine(agg: Agg, a: u64, b: u64) -> u64 {
        match agg {
            Agg::Sum => a.saturating_add(b),
            Agg::Max => a.max(b),
        }
    }

    fn coalesce(&mut self) {
        self.width = self.width.saturating_mul(2);
        let merged = self.buckets.len().div_ceil(2);
        for i in 0..merged {
            let a = self.buckets[2 * i];
            let b = self.buckets.get(2 * i + 1).copied().unwrap_or(0);
            self.buckets[i] = Self::combine(self.agg, a, b);
        }
        self.buckets.truncate(merged);
    }

    fn record(&mut self, at: u64, value: u64, max_buckets: usize) {
        self.total = Self::combine(self.agg, self.total, value);
        let mut idx = (at / self.width) as usize;
        while idx >= max_buckets {
            self.coalesce();
            idx = (at / self.width) as usize;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] = Self::combine(self.agg, self.buckets[idx], value);
    }

    /// Books a busy interval `[at, at + cycles)` of a `Sum` series: each
    /// bucket it overlaps gains the overlapping cycles, so no bucket of a
    /// serial lane ever holds more than its width. A zero-length interval
    /// records a zero at `at`.
    fn record_span(&mut self, at: u64, cycles: u64, max_buckets: usize) {
        debug_assert_eq!(self.agg, Agg::Sum, "only sums spread over time");
        if cycles == 0 {
            return self.record(at, 0, max_buckets);
        }
        self.total = Self::combine(self.agg, self.total, cycles);
        let end = at + cycles;
        while ((end - 1) / self.width) as usize >= max_buckets {
            self.coalesce();
        }
        let (first, last) = ((at / self.width) as usize, ((end - 1) / self.width) as usize);
        if last >= self.buckets.len() {
            self.buckets.resize(last + 1, 0);
        }
        for idx in first..=last {
            let lo = at.max(idx as u64 * self.width);
            let hi = end.min((idx as u64 + 1).saturating_mul(self.width));
            self.buckets[idx] = Self::combine(self.agg, self.buckets[idx], hi - lo);
        }
    }
}

/// A read-only snapshot of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSeries {
    /// The series identity.
    pub key: CounterKey,
    /// Human-readable name, e.g. `core0.matrix_busy` or
    /// `dram.ch1.bytes`.
    pub name: String,
    /// Aggregation the buckets carry.
    pub agg: Agg,
    /// Current bucket width in cycles (a power-of-two multiple of the
    /// configured width if the series coalesced).
    pub cycles_per_bucket: u64,
    /// Dense bucket values from cycle 0.
    pub buckets: Vec<u64>,
    /// Whole-series aggregate (sum or max of every recorded value).
    pub total: u64,
}

impl CounterSeries {
    /// The series rebucketed to a coarser `width`, which must be a
    /// multiple of the current width (snapshot widths are all powers of
    /// two times the configured width, so any snapshot's maximum width
    /// qualifies for every series in it).
    pub fn rebucket(&self, width: u64) -> CounterSeries {
        assert!(
            width >= self.cycles_per_bucket && width.is_multiple_of(self.cycles_per_bucket),
            "rebucket width {} incompatible with {}",
            width,
            self.cycles_per_bucket
        );
        let k = (width / self.cycles_per_bucket) as usize;
        if k == 1 {
            return self.clone();
        }
        let buckets: Vec<u64> = self
            .buckets
            .chunks(k)
            .map(|c| c.iter().fold(0u64, |acc, &v| Cell::combine(self.agg, acc, v)))
            .collect();
        CounterSeries { cycles_per_bucket: width, buckets, ..self.clone() }
    }

    /// Bucket value covering cycle-bucket `idx` at this series' width,
    /// zero past the recorded extent.
    pub fn bucket(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct HubInner {
    series: BTreeMap<CounterKey, Cell>,
    kernel_ids: HashMap<String, u32>,
    kernel_names: Vec<String>,
}

/// The shared counter hub. Components record through `&self`; interior
/// state is one mutex over a key-sorted map (bucket combination is
/// commutative, and the key space is partitioned per component instance).
#[derive(Debug)]
pub struct CounterHub {
    cfg: CounterConfig,
    inner: Mutex<HubInner>,
}

impl Default for CounterHub {
    fn default() -> Self {
        CounterHub::new(CounterConfig::default())
    }
}

impl CounterHub {
    /// Creates an empty hub.
    pub fn new(cfg: CounterConfig) -> Self {
        CounterHub { cfg: cfg.normalized(), inner: Mutex::new(HubInner::default()) }
    }

    /// Creates a shared handle ready to thread through simulators.
    pub fn shared(cfg: CounterConfig) -> Arc<CounterHub> {
        Arc::new(CounterHub::new(cfg))
    }

    /// The (normalized) configuration.
    pub fn config(&self) -> CounterConfig {
        self.cfg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn cell<'a>(&self, inner: &'a mut HubInner, key: CounterKey) -> &'a mut Cell {
        let width = self.cfg.cycles_per_bucket;
        inner.series.entry(key).or_insert_with(|| Cell::new(key.agg(), width))
    }

    fn record(&self, key: CounterKey, at: u64, value: u64) {
        let mut inner = self.lock();
        self.cell(&mut inner, key).record(at, value, self.cfg.max_buckets);
    }

    /// Charges the busy interval `[at, at + cycles)` on `core`'s `unit` for
    /// `kernel`: every bucket the interval overlaps gains the cycles it
    /// covers, in both the lane series and the per-kernel series.
    pub fn record_compute(&self, core: usize, unit: BusyUnit, kernel: &str, at: u64, cycles: u64) {
        let core = core as u32;
        let lane_key = match unit {
            BusyUnit::Matrix => CounterKey::CoreMatrixBusy { core },
            BusyUnit::Vector => CounterKey::CoreVectorBusy { core },
        };
        let mut inner = self.lock();
        let kid = match inner.kernel_ids.get(kernel) {
            Some(&id) => id,
            None => {
                let id = inner.kernel_names.len() as u32;
                inner.kernel_names.push(kernel.to_string());
                inner.kernel_ids.insert(kernel.to_string(), id);
                id
            }
        };
        let max_buckets = self.cfg.max_buckets;
        self.cell(&mut inner, lane_key).record_span(at, cycles, max_buckets);
        let kernel_key = CounterKey::KernelBusy { core, kernel: kid };
        self.cell(&mut inner, kernel_key).record_span(at, cycles, max_buckets);
    }

    /// Records one DRAM transaction retiring on `channel` at `at`.
    pub fn record_dram_tx(&self, channel: usize, at: u64, bytes: u64, outcome: RowOutcome) {
        let channel = channel as u32;
        self.record(CounterKey::DramBytes { channel }, at, bytes);
        let key = match outcome {
            RowOutcome::Hit => CounterKey::DramRowHits { channel },
            RowOutcome::Miss => CounterKey::DramRowMisses { channel },
            RowOutcome::Conflict => CounterKey::DramRowConflicts { channel },
        };
        self.record(key, at, 1);
    }

    /// Records `flits` occupying the injection link of `src` and the
    /// ejection link of `dst` for one NoC message delivered at `at`.
    pub fn record_noc_flits(&self, src: usize, dst: usize, at: u64, flits: u64) {
        self.record(CounterKey::NocInjFlits { port: src as u32 }, at, flits);
        self.record(CounterKey::NocEjFlits { port: dst as u32 }, at, flits);
    }

    /// Records a queue-depth sample (Max-aggregated within a bucket).
    pub fn record_queue_depth(&self, site: QueueSite, index: usize, at: u64, depth: u64) {
        self.record(CounterKey::QueueDepth { site, index: index as u32 }, at, depth);
    }

    /// Resolves an interned kernel id from [`CounterKey::KernelBusy`].
    pub fn kernel_name(&self, id: u32) -> Option<String> {
        self.lock().kernel_names.get(id as usize).cloned()
    }

    fn display_name(&self, inner: &HubInner, key: CounterKey) -> String {
        match key {
            CounterKey::CoreMatrixBusy { core } => format!("core{core}.matrix_busy"),
            CounterKey::CoreVectorBusy { core } => format!("core{core}.vector_busy"),
            CounterKey::KernelBusy { core, kernel } => {
                let name =
                    inner.kernel_names.get(kernel as usize).map(String::as_str).unwrap_or("?");
                format!("core{core}.kernel.{name}")
            }
            CounterKey::DramBytes { channel } => format!("dram.ch{channel}.bytes"),
            CounterKey::DramRowHits { channel } => format!("dram.ch{channel}.row_hits"),
            CounterKey::DramRowMisses { channel } => format!("dram.ch{channel}.row_misses"),
            CounterKey::DramRowConflicts { channel } => format!("dram.ch{channel}.row_conflicts"),
            CounterKey::NocInjFlits { port } => format!("noc.inj{port}.flits"),
            CounterKey::NocEjFlits { port } => format!("noc.ej{port}.flits"),
            CounterKey::QueueDepth { site, index } => site.name(index),
        }
    }

    /// Every series, sorted by [`CounterKey`] — deterministic for a given
    /// set of recordings regardless of recording or thread order.
    pub fn snapshot(&self) -> Vec<CounterSeries> {
        let inner = self.lock();
        inner
            .series
            .iter()
            .map(|(&key, cell)| CounterSeries {
                key,
                name: self.display_name(&inner, key),
                agg: cell.agg,
                cycles_per_bucket: cell.width,
                buckets: cell.buckets.clone(),
                total: cell.total,
            })
            .collect()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().series.is_empty()
    }

    /// Renders the snapshot as a JSON array of series objects (sorted,
    /// hence byte-deterministic).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.snapshot()
                .into_iter()
                .map(|s| {
                    Json::obj()
                        .set("name", Json::str(&s.name))
                        .set(
                            "agg",
                            Json::str(match s.agg {
                                Agg::Sum => "sum",
                                Agg::Max => "max",
                            }),
                        )
                        .set("cycles_per_bucket", Json::Num(s.cycles_per_bucket as f64))
                        .set("total", Json::Num(s.total as f64))
                        .set(
                            "buckets",
                            Json::Arr(s.buckets.iter().map(|&v| Json::Num(v as f64)).collect()),
                        )
                })
                .collect(),
        )
    }

    /// Converts every series into a Chrome/Perfetto counter track: one
    /// `(bucket_start, value)` point per bucket, suitable for
    /// [`ptsim_trace::chrome::export_chrome_trace_with_counters`].
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        self.snapshot()
            .into_iter()
            .map(|s| CounterTrack {
                name: s.name,
                points: s
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as u64 * s.cycles_per_bucket, v as f64))
                    .collect(),
            })
            .collect()
    }
}

/// The widest bucket width across `series` — a valid
/// [`CounterSeries::rebucket`] target for all of them, since every width
/// is the configured base times a power of two.
pub fn common_width(series: &[CounterSeries]) -> u64 {
    series.iter().map(|s| s.cycles_per_bucket).max().unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub(cycles_per_bucket: u64, max_buckets: usize) -> CounterHub {
        CounterHub::new(CounterConfig { cycles_per_bucket, max_buckets })
    }

    #[test]
    fn sums_land_in_time_buckets() {
        let h = hub(100, 64);
        h.record_compute(0, BusyUnit::Matrix, "gemm", 0, 10);
        h.record_compute(0, BusyUnit::Matrix, "gemm", 50, 5);
        h.record_compute(0, BusyUnit::Matrix, "gemm", 150, 7);
        let snap = h.snapshot();
        let m = snap.iter().find(|s| s.name == "core0.matrix_busy").unwrap();
        assert_eq!(m.buckets, vec![15, 7]);
        assert_eq!(m.total, 22);
        let k = snap.iter().find(|s| s.name == "core0.kernel.gemm").unwrap();
        assert_eq!(k.buckets, vec![15, 7]);
    }

    #[test]
    fn busy_spans_fill_no_bucket_past_its_width() {
        // Back-to-back tiles on one lane, most longer than a bucket; the run
        // outgrows 16 buckets, so the series coalesces on the way.
        let h = hub(64, 16);
        let mut at = 0;
        for cycles in [10, 300, 64, 1, 700, 129, 0, 2000, 63] {
            h.record_compute(0, BusyUnit::Matrix, "k", at, cycles);
            at += cycles;
        }
        for s in h.snapshot() {
            assert!(s.cycles_per_bucket > 64, "{} did not coalesce", s.name);
            assert_eq!(s.buckets.iter().sum::<u64>(), at, "{}", s.name);
            assert_eq!(s.total, at, "{}", s.name);
            let full = at / s.cycles_per_bucket;
            for (i, &b) in s.buckets.iter().enumerate() {
                // The lane never idles, so every bucket before the last is full.
                let want =
                    if (i as u64) < full { s.cycles_per_bucket } else { at % s.cycles_per_bucket };
                assert_eq!(b, want, "{} bucket {i}", s.name);
            }
        }
    }

    #[test]
    fn coalescing_doubles_width_and_conserves_totals() {
        let h = hub(1, 4);
        for at in 0..16u64 {
            h.record_dram_tx(0, at, 64, RowOutcome::Hit);
        }
        let snap = h.snapshot();
        let bytes = snap.iter().find(|s| s.name == "dram.ch0.bytes").unwrap();
        // 16 cycles into at most 4 buckets: width grew 1 -> 4.
        assert_eq!(bytes.cycles_per_bucket, 4);
        assert_eq!(bytes.buckets.len(), 4);
        assert_eq!(bytes.buckets.iter().sum::<u64>(), 16 * 64);
        assert_eq!(bytes.total, 16 * 64);
        let hits = snap.iter().find(|s| s.name == "dram.ch0.row_hits").unwrap();
        assert_eq!(hits.total, 16);
    }

    #[test]
    fn bucket_of_one_cycle_is_supported() {
        let h = hub(1, 1024);
        h.record_noc_flits(2, 3, 7, 9);
        let snap = h.snapshot();
        let inj = snap.iter().find(|s| s.name == "noc.inj2.flits").unwrap();
        assert_eq!(inj.cycles_per_bucket, 1);
        assert_eq!(inj.bucket(7), 9);
        assert_eq!(snap.iter().filter(|s| s.name == "noc.ej3.flits").count(), 1);
    }

    #[test]
    fn bucket_wider_than_the_whole_run_uses_one_bucket() {
        let h = hub(1 << 40, 16);
        h.record_compute(1, BusyUnit::Vector, "softmax", 12_345, 100);
        h.record_compute(1, BusyUnit::Vector, "softmax", 999_999, 50);
        let snap = h.snapshot();
        let v = snap.iter().find(|s| s.name == "core1.vector_busy").unwrap();
        assert_eq!(v.buckets, vec![150]);
        assert_eq!(v.cycles_per_bucket, 1 << 40);
    }

    #[test]
    fn max_aggregation_takes_maxima_through_coalescing() {
        let h = hub(1, 2);
        h.record_queue_depth(QueueSite::Scheduler, 0, 0, 3);
        h.record_queue_depth(QueueSite::Scheduler, 0, 1, 9);
        h.record_queue_depth(QueueSite::Scheduler, 0, 2, 5);
        h.record_queue_depth(QueueSite::Scheduler, 0, 3, 1);
        let snap = h.snapshot();
        let q = snap.iter().find(|s| s.name == "queue.scheduler").unwrap();
        assert_eq!(q.agg, Agg::Max);
        assert_eq!(q.buckets, vec![9, 5]);
        assert_eq!(q.total, 9, "series total is the overall max");
    }

    #[test]
    fn snapshot_order_is_deterministic_and_recording_order_free() {
        let a = hub(10, 64);
        a.record_dram_tx(1, 5, 64, RowOutcome::Miss);
        a.record_compute(0, BusyUnit::Matrix, "gemm", 0, 4);
        a.record_noc_flits(0, 1, 3, 2);
        let b = hub(10, 64);
        b.record_noc_flits(0, 1, 3, 2);
        b.record_compute(0, BusyUnit::Matrix, "gemm", 0, 4);
        b.record_dram_tx(1, 5, 64, RowOutcome::Miss);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn rebucket_merges_groups() {
        let h = hub(10, 1024);
        for (at, v) in [(0, 1u64), (10, 2), (20, 3), (30, 4), (45, 5)] {
            h.record_dram_tx(0, at, v, RowOutcome::Hit);
        }
        let s = h.snapshot().into_iter().find(|s| s.name == "dram.ch0.bytes").unwrap();
        let r = s.rebucket(20);
        assert_eq!(r.cycles_per_bucket, 20);
        assert_eq!(r.buckets, vec![3, 7, 5]);
        assert_eq!(r.total, s.total);
    }

    #[test]
    fn counter_tracks_carry_bucket_starts() {
        let h = hub(100, 64);
        h.record_compute(0, BusyUnit::Matrix, "k", 250, 10);
        let tracks = h.counter_tracks();
        let t = tracks.iter().find(|t| t.name == "core0.matrix_busy").unwrap();
        assert_eq!(t.points, vec![(0, 0.0), (100, 0.0), (200, 10.0)]);
    }
}
