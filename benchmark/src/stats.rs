//! Order statistics for the runner: medians and quartiles of rep timings,
//! the exact-percentile latency recorder, and window-median throughput.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count).
/// An empty slice reads 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns (same integer arithmetic,
/// same extrapolation past the ends for tiny samples), so the spread
/// printed by `repeat.sh` is the spread the acceptance rule uses. Fewer
/// than two values have no quartiles; both read as the only value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are set from.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Per-operation latency recorder: every sample is kept, in nanoseconds,
/// in a vector sized before the measurement starts (so recording never
/// reallocates inside the timed loop), sorted once at the end. Percentiles
/// are exact nearest-rank values — always an observed sample — unlike the
/// power-of-two bucketed `ptsim_trace::Histogram`, whose 2× steps cannot
/// show a 10 % change.
pub struct LatencyRecorder {
    samples_ns: Vec<u64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// A recorder with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        LatencyRecorder { samples_ns: Vec::with_capacity(capacity), sorted: true }
    }

    /// Records one operation's latency.
    pub fn record(&mut self, latency: Duration) {
        self.samples_ns.push(latency.as_nanos() as u64);
        self.sorted = false;
    }

    /// Samples recorded so far.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// Exact nearest-rank percentile in nanoseconds (0 when empty): the
    /// smallest sample such that at least `p` percent of samples are ≤ it.
    pub fn percentile_ns(&mut self, p: f64) -> u64 {
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
        ptsim_serve::loadgen::exact_percentile(&self.samples_ns, p)
    }

    /// [`LatencyRecorder::percentile_ns`] in milliseconds.
    pub fn percentile_ms(&mut self, p: f64) -> f64 {
        self.percentile_ns(p) as f64 / 1e6
    }
}

/// Throughput as the median over fixed windows: operations are counted
/// into consecutive windows of `window` length, and the reported rate is
/// the median window's — one stalled window (a host hiccup) moves the
/// mean of a run but not its median window.
pub struct WindowCounter {
    window: Duration,
    start: Instant,
    counts: Vec<u64>,
}

impl WindowCounter {
    /// Starts counting now.
    pub fn start(window: Duration) -> Self {
        WindowCounter { window, start: Instant::now(), counts: Vec::new() }
    }

    /// Counts one operation that completed at `at`.
    pub fn record(&mut self, at: Instant) {
        let idx = (at.duration_since(self.start).as_nanos() / self.window.as_nanos()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Operations per second of the median *complete* window (the last,
    /// partial window is dropped when `elapsed` ends inside it). With no
    /// complete window the rate is total ÷ elapsed.
    pub fn median_rate(&self, elapsed: Duration) -> f64 {
        let complete = (elapsed.as_nanos() / self.window.as_nanos()) as usize;
        let full = &self.counts[..complete.min(self.counts.len())];
        if full.is_empty() {
            let total: u64 = self.counts.iter().sum();
            return total as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        }
        window_median_rate(full, self.window)
    }
}

/// Median of per-window counts, as a rate.
pub fn window_median_rate(counts: &[u64], window: Duration) -> f64 {
    let as_f: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    median(&as_f) / window.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytorchsim::trace::Histogram;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let (q1, q3) = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((q1, q3), (15.0, 45.0));
        // Tiny samples extrapolate exactly as Python does.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    /// The reason the benchmark keeps its own recorder: 1000 samples
    /// spread evenly over one power-of-two bucket. The bucketed histogram
    /// can only answer with a value it kept per bucket (min or max), the
    /// recorder answers with the sample at the rank.
    #[test]
    fn recorder_is_exact_where_the_bucketed_histogram_is_not() {
        let mut rec = LatencyRecorder::with_capacity(1000);
        let hist = Histogram::standalone();
        let mut sorted = Vec::new();
        for i in 0..1000u64 {
            let ns = 33_000 + i * 30; // all inside [32768, 65536)
            rec.record(Duration::from_nanos(ns));
            hist.observe(ns);
            sorted.push(ns);
        }
        for p in [50.0, 90.0, 99.0] {
            let exact = ptsim_serve::loadgen::exact_percentile(&sorted, p);
            assert_eq!(rec.percentile_ns(p), exact, "recorder at p{p}");
        }
        assert_eq!(rec.percentile_ns(50.0), 33_000 + 499 * 30);
        assert_ne!(
            hist.percentile(50.0),
            rec.percentile_ns(50.0),
            "a dense bucket hides the median from the histogram"
        );
    }

    #[test]
    fn window_throughput_takes_the_median_window() {
        // Five one-second windows, one of them stalled.
        let rate = window_median_rate(&[100, 104, 3, 102, 98], Duration::from_secs(1));
        assert_eq!(rate, 100.0);
        let rate = window_median_rate(&[50, 70], Duration::from_millis(500));
        assert_eq!(rate, 120.0);
    }

    #[test]
    fn window_counter_drops_the_partial_last_window() {
        let mut w = WindowCounter::start(Duration::from_millis(100));
        let t0 = w.start;
        for ms in [10, 20, 110, 120, 130, 250] {
            w.record(t0 + Duration::from_millis(ms));
        }
        // Windows: [2, 3, 1(partial)]; elapsed 260 ms -> two complete.
        assert_eq!(w.median_rate(Duration::from_millis(260)), 25.0);
        // Nothing complete: total over elapsed.
        let mut w = WindowCounter::start(Duration::from_secs(10));
        let t0 = w.start;
        w.record(t0 + Duration::from_millis(500));
        assert_eq!(w.median_rate(Duration::from_secs(1)), 1.0);
    }
}
