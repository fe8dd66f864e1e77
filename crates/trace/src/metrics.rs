//! A registry of named counters, gauges, and histograms.
//!
//! Instruments register once (cheaply cloneable handles) and bump on hot
//! paths through a relaxed-atomic enabled check, so a disabled registry
//! costs one branch per update. The registry renders a plain-text summary
//! table for end-of-run reports, a deterministically ordered (sorted by
//! name) JSON object, and Prometheus text exposition for scrape endpoints.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two histogram buckets (`u64` has 64 bit positions,
/// plus one bucket for zero).
const HIST_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Adds `n` when the owning registry is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value (or running-max) gauge.
#[derive(Debug, Clone)]
pub struct Gauge {
    value: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// Overwrites the value when the owning registry is enabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the value to `v` if larger.
    #[inline]
    pub fn set_max(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Increments the value by `n` (level-tracking gauges: queue depths,
    /// in-flight request counts).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Decrements the value by `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            let _ = self
                .value
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One log bucket: sample count plus enough extrema bookkeeping
/// (sum/min/max) to extract exact nearest-rank percentiles whenever the
/// rank lands on a bucket's first or last sample.
#[derive(Debug)]
struct Bucket {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64, // u64::MAX while empty
    max: AtomicU64, // 0 while empty
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [Bucket; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| Bucket::new()),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A bounded histogram over power-of-two buckets: bucket 0 counts zeros,
/// bucket `i >= 1` counts values whose highest set bit is `i - 1` (values
/// in `[2^(i-1), 2^i)`). Each bucket tracks count/sum/min/max, so
/// [`percentile`](Histogram::percentile) returns an exact sample value
/// whenever the nearest rank is a bucket's first or last sample — which is
/// always the case with at most two samples per bucket — and a real
/// observed value (the bucket max) otherwise. Memory is constant
/// regardless of sample count, and [`merge`](Histogram::merge) is
/// element-wise and commutative, so per-worker histograms fold together
/// deterministically in any order.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
    enabled: Arc<AtomicBool>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::standalone()
    }
}

impl Histogram {
    /// An always-enabled histogram not attached to any registry — for
    /// bounded per-worker latency recording (e.g. the load generator)
    /// where registration-by-name is unnecessary.
    pub fn standalone() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner::new()),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    fn bucket_of(v: u64) -> usize {
        match v {
            0 => 0,
            _ => 64 - v.leading_zeros() as usize,
        }
    }

    /// Inclusive Prometheus-style upper bound of bucket `i`: the largest
    /// value the bucket can hold.
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample when the owning registry is enabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let b = &self.inner.buckets[Self::bucket_of(v)];
        b.count.fetch_add(1, Ordering::Relaxed);
        b.sum.fetch_add(v, Ordering::Relaxed);
        b.min.fetch_min(v, Ordering::Relaxed);
        b.max.fetch_max(v, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples, or zero with no samples.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Smallest recorded sample, or zero with no samples.
    pub fn min(&self) -> u64 {
        self.inner
            .buckets
            .iter()
            .filter(|b| b.count.load(Ordering::Relaxed) > 0)
            .map(|b| b.min.load(Ordering::Relaxed))
            .next()
            .unwrap_or(0)
    }

    /// Largest recorded sample, or zero with no samples.
    pub fn max(&self) -> u64 {
        self.inner
            .buckets
            .iter()
            .rev()
            .filter(|b| b.count.load(Ordering::Relaxed) > 0)
            .map(|b| b.max.load(Ordering::Relaxed))
            .next()
            .unwrap_or(0)
    }

    /// The nearest-rank percentile sample, `p` in `[0, 100]`; zero with no
    /// samples. Rank `⌈p/100·n⌉` (clamped to `[1, n]`) is resolved to the
    /// exact sample when it is its bucket's first (bucket min) or last
    /// (bucket max) sample, and to the bucket max — a genuinely observed
    /// value, not a power-of-two bucket edge — otherwise.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for b in &self.inner.buckets {
            let c = b.count.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if rank <= seen + c {
                return if rank == seen + 1 {
                    b.min.load(Ordering::Relaxed)
                } else {
                    b.max.load(Ordering::Relaxed)
                };
            }
            seen += c;
        }
        // Only reachable when samples land concurrently with this scan;
        // the global max is the consistent fallback.
        self.max()
    }

    /// Folds `other`'s samples into `self`, element-wise per bucket
    /// (count/sum add, min/max combine). Commutative and associative, so
    /// per-worker histograms merge to identical state in any order. Applies
    /// unconditionally — merging is aggregation, not a hot-path
    /// observation, so the enabled flag does not gate it.
    pub fn merge(&self, other: &Histogram) {
        for (dst, src) in self.inner.buckets.iter().zip(other.inner.buckets.iter()) {
            let c = src.count.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            dst.count.fetch_add(c, Ordering::Relaxed);
            dst.sum.fetch_add(src.sum.load(Ordering::Relaxed), Ordering::Relaxed);
            dst.min.fetch_min(src.min.load(Ordering::Relaxed), Ordering::Relaxed);
            dst.max.fetch_max(src.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.inner.count.fetch_add(other.inner.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.inner.sum.fetch_add(other.inner.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Nonzero buckets as `(inclusive_upper_bound, count)`, ascending —
    /// the raw series Prometheus exposition cumulates.
    fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.count.load(Ordering::Relaxed);
                (c > 0).then(|| (Self::bucket_upper(i), c))
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A point-in-time reading of one instrument, as returned by
/// [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's accumulated value.
    Counter(u64),
    /// A gauge's last (or max) value.
    Gauge(u64),
    /// A histogram's aggregate statistics.
    Histogram {
        /// Recorded samples.
        count: u64,
        /// Sum of recorded samples.
        sum: u64,
        /// Mean of recorded samples.
        mean: f64,
        /// Nearest-rank median sample (see [`Histogram::percentile`]).
        p50: u64,
        /// Nearest-rank 95th percentile sample.
        p95: u64,
        /// Nearest-rank 99th percentile sample.
        p99: u64,
    },
}

/// A registry of named instruments sharing one enabled flag.
///
/// `counter`/`gauge`/`histogram` return the existing instrument when the
/// name is already registered, so call sites can look handles up by name
/// without coordinating registration order. Registering one name as two
/// different kinds panics — that is always a bug. Every rendered view
/// (snapshot, JSON, summary table, Prometheus text) is sorted by metric
/// name, so output is deterministic regardless of registration order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    instruments: Mutex<Vec<(String, Instrument)>>,
}

impl MetricsRegistry {
    /// Creates an enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(true)),
            instruments: Mutex::new(Vec::new()),
        }
    }

    /// Whether instrument updates are applied.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns updates on or off for every instrument at once.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Registers (or looks up) a counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.instruments.lock().unwrap();
        if let Some((_, inst)) = slots.iter().find(|(n, _)| n == name) {
            match inst {
                Instrument::Counter(c) => return c.clone(),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let c = Counter { value: Arc::new(AtomicU64::new(0)), enabled: self.enabled.clone() };
        slots.push((name.to_string(), Instrument::Counter(c.clone())));
        c
    }

    /// Registers (or looks up) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.instruments.lock().unwrap();
        if let Some((_, inst)) = slots.iter().find(|(n, _)| n == name) {
            match inst {
                Instrument::Gauge(g) => return g.clone(),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let g = Gauge { value: Arc::new(AtomicU64::new(0)), enabled: self.enabled.clone() };
        slots.push((name.to_string(), Instrument::Gauge(g.clone())));
        g
    }

    /// Registers (or looks up) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut slots = self.instruments.lock().unwrap();
        if let Some((_, inst)) = slots.iter().find(|(n, _)| n == name) {
            match inst {
                Instrument::Histogram(h) => return h.clone(),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let h = Histogram { inner: Arc::new(HistogramInner::new()), enabled: self.enabled.clone() };
        slots.push((name.to_string(), Instrument::Histogram(h.clone())));
        h
    }

    /// Instruments cloned out of the lock, sorted by name.
    fn sorted_instruments(&self) -> Vec<(String, Instrument)> {
        let slots = self.instruments.lock().unwrap();
        let mut out: Vec<(String, Instrument)> = slots.to_vec();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Reads every instrument's current value, sorted by metric name —
    /// the machine-readable counterpart of
    /// [`summary_table`](MetricsRegistry::summary_table).
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.sorted_instruments()
            .into_iter()
            .map(|(name, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        mean: h.mean(),
                        p50: h.percentile(50.0),
                        p95: h.percentile(95.0),
                        p99: h.percentile(99.0),
                    },
                };
                (name, value)
            })
            .collect()
    }

    /// Renders every instrument as a JSON object keyed by metric name,
    /// sorted by name. Counters and gauges become numbers; histograms
    /// become `{count, sum, mean, p50, p95, p99}` objects. Hand-rendered
    /// so machine-readable reports need no serialization dependency.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", ptsim_common::json::escape(name)));
            match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => out.push_str(&v.to_string()),
                MetricValue::Histogram { count, sum, mean, p50, p95, p99 } => {
                    out.push_str(&format!(
                        "{{\"count\":{count},\"sum\":{sum},\"mean\":{mean:.3},\
                         \"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}"
                    ));
                }
            }
        }
        out.push('}');
        out
    }

    /// Renders every instrument as an aligned plain-text table, sorted by
    /// metric name.
    pub fn summary_table(&self) -> String {
        let slots = self.sorted_instruments();
        let name_w = slots.iter().map(|(n, _)| n.len()).max().unwrap_or(6).max(6);
        let mut out = format!("{:<name_w$}  {:<9}  value\n", "metric", "kind");
        out.push_str(&format!("{}  {}  {}\n", "-".repeat(name_w), "-".repeat(9), "-".repeat(5)));
        for (name, inst) in slots.iter() {
            match inst {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{name:<name_w$}  {:<9}  {}\n", "counter", c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{name:<name_w$}  {:<9}  {}\n", "gauge", g.get()));
                }
                Instrument::Histogram(h) => {
                    out.push_str(&format!(
                        "{name:<name_w$}  {:<9}  n={} mean={:.1} p50={} p95={} p99={}\n",
                        "histogram",
                        h.count(),
                        h.mean(),
                        h.percentile(50.0),
                        h.percentile(95.0),
                        h.percentile(99.0),
                    ));
                }
            }
        }
        out
    }

    /// Renders every instrument in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`): sorted by metric name with
    /// non-alphanumeric characters mapped to `_` under a `ptsim_` prefix,
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket{le="..."}` series (inclusive power-of-two upper bounds)
    /// plus `_sum` and `_count`. Deterministic byte-for-byte for a given
    /// set of instrument states.
    pub fn prometheus_text(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 6);
            out.push_str("ptsim_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
            }
            out
        }
        let mut out = String::new();
        for (name, inst) in self.sorted_instruments() {
            let pname = sanitize(&name);
            match inst {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = writeln!(out, "{pname} {}", c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = writeln!(out, "{pname} {}", g.get());
                }
                Instrument::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    let mut cum = 0u64;
                    for (upper, count) in h.nonzero_buckets() {
                        cum += count;
                        let _ = writeln!(out, "{pname}_bucket{{le=\"{upper}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {cum}");
                    let _ = writeln!(out, "{pname}_sum {}", h.sum());
                    let _ = writeln!(out, "{pname}_count {}", h.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_disable() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("dram.reads");
        c.add(3);
        c.inc();
        assert_eq!(c.get(), 4);
        reg.set_enabled(false);
        c.add(100);
        assert_eq!(c.get(), 4, "disabled registry must ignore updates");
        // Lookup by name returns the same instrument.
        assert_eq!(reg.counter("dram.reads").get(), 4);
    }

    #[test]
    fn gauges_track_last_and_max() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("queue.depth");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn gauges_level_track_with_add_and_sub() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("serve.inflight");
        g.add(3);
        g.sub(1);
        assert_eq!(g.get(), 2);
        g.sub(10);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        reg.set_enabled(false);
        g.add(5);
        assert_eq!(g.get(), 0, "disabled registries ignore updates");
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("dma.latency");
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert!(h.mean() > 0.0);
        assert!(h.percentile(50.0) <= h.percentile(99.0));
        assert_eq!(h.percentile(100.0), 1000, "the top rank is the exact max sample");
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn percentiles_are_exact_for_zero_one_and_two_samples() {
        let h = Histogram::standalone();
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 0, "empty histogram reads zero");
        }
        h.observe(7);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 7, "single sample at every rank");
        }
        let h2 = Histogram::standalone();
        h2.observe(10);
        h2.observe(20);
        assert_eq!(h2.percentile(0.0), 10);
        assert_eq!(h2.percentile(50.0), 10);
        assert_eq!(h2.percentile(95.0), 20);
        assert_eq!(h2.percentile(99.0), 20);
        // Same-bucket pair: first rank is min, last rank is max — exact.
        let h3 = Histogram::standalone();
        h3.observe(5);
        h3.observe(6);
        assert_eq!(h3.percentile(50.0), 5);
        assert_eq!(h3.percentile(100.0), 6);
    }

    #[test]
    fn merge_is_deterministic_and_order_independent() {
        let mk = |vals: &[u64]| {
            let h = Histogram::standalone();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let a = mk(&[1, 100, 3]);
        let b = mk(&[7, 0, 4096]);
        let ab = mk(&[]);
        ab.merge(&a);
        ab.merge(&b);
        let ba = mk(&[]);
        ba.merge(&b);
        ba.merge(&a);
        for p in [0.0, 25.0, 50.0, 75.0, 95.0, 100.0] {
            assert_eq!(ab.percentile(p), ba.percentile(p), "p{p}");
        }
        assert_eq!(ab.count(), 6);
        assert_eq!(ab.sum(), a.sum() + b.sum());
        assert_eq!((ab.min(), ab.max()), (0, 4096));
    }

    #[test]
    fn summary_table_lists_all_instruments() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(2);
        reg.gauge("b.depth").set(9);
        reg.histogram("c.lat").observe(5);
        let table = reg.summary_table();
        assert!(table.contains("a.count"));
        assert!(table.contains("counter"));
        assert!(table.contains("b.depth"));
        assert!(table.contains("n=1"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn json_renders_all_instrument_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(2);
        reg.gauge("b.depth").set(9);
        reg.histogram("c.lat").observe(5);
        let json = reg.json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"a.count\":2"), "{json}");
        assert!(json.contains("\"b.depth\":9"), "{json}");
        assert!(json.contains("\"c.lat\":{\"count\":1,\"sum\":5"), "{json}");
        assert!(json.contains("\"p95\":"), "{json}");
    }

    #[test]
    fn histogram_percentiles_expose_tail_latency() {
        // 98 fast samples and 2 slow ones: p50/p95 stay at the fast value,
        // p99 reaches the first slow sample — exact values, not bucket
        // edges, which is what the serve endpoint histograms report.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("rpc.latency");
        for _ in 0..98 {
            h.observe(3);
        }
        h.observe(5000);
        h.observe(6000);
        let snap = reg.snapshot();
        match snap[0].1 {
            MetricValue::Histogram { count, p50, p95, p99, .. } => {
                assert_eq!(count, 100);
                assert_eq!(p50, 3, "median is the exact fast sample");
                assert_eq!(p95, 3, "p95 still among the fast samples");
                assert_eq!(p99, 5000, "rank 99 is the slow bucket's first sample");
            }
            ref other => panic!("unexpected snapshot {other:?}"),
        }
    }

    #[test]
    fn snapshot_and_json_are_sorted_by_name() {
        // Register deliberately out of order: every rendered view must
        // come back sorted so diffs and CI assertions are stable.
        let reg = MetricsRegistry::new();
        reg.histogram("c.lat").observe(5);
        reg.counter("a.count").add(2);
        reg.gauge("b.depth").set(9);
        let snap = reg.snapshot();
        assert_eq!(snap[0], ("a.count".into(), MetricValue::Counter(2)));
        assert_eq!(snap[1], ("b.depth".into(), MetricValue::Gauge(9)));
        match &snap[2].1 {
            MetricValue::Histogram { count: 1, sum: 5, .. } => {}
            other => panic!("unexpected histogram snapshot {other:?}"),
        }
        let json = reg.json();
        let (a, b, c) = (
            json.find("a.count").unwrap(),
            json.find("b.depth").unwrap(),
            json.find("c.lat").unwrap(),
        );
        assert!(a < b && b < c, "json keys sorted: {json}");
    }

    #[test]
    fn prometheus_text_is_sorted_and_well_formed() {
        let reg = MetricsRegistry::new();
        reg.histogram("c.lat").observe(5);
        reg.counter("a.count").add(2);
        reg.gauge("b.depth").set(9);
        reg.histogram("c.lat").observe(300);
        let text = reg.prometheus_text();
        let a = text.find("ptsim_a_count").unwrap();
        let b = text.find("ptsim_b_depth").unwrap();
        let c = text.find("ptsim_c_lat").unwrap();
        assert!(a < b && b < c, "families sorted: {text}");
        assert!(text.contains("# TYPE ptsim_a_count counter"), "{text}");
        assert!(text.contains("# TYPE ptsim_b_depth gauge"), "{text}");
        assert!(text.contains("# TYPE ptsim_c_lat histogram"), "{text}");
        assert!(text.contains("ptsim_c_lat_bucket{le=\"7\"} 1"), "5 in [4,8): {text}");
        assert!(text.contains("ptsim_c_lat_bucket{le=\"511\"} 2"), "300 in [256,512): {text}");
        assert!(text.contains("ptsim_c_lat_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("ptsim_c_lat_sum 305"), "{text}");
        assert!(text.contains("ptsim_c_lat_count 2"), "{text}");
        // Rendering twice is byte-identical.
        assert_eq!(text, reg.prometheus_text());
    }
}
