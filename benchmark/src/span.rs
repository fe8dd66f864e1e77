//! In-memory spans around the benchmark's own calls into each layer.
//!
//! The traced pass records one span per call the benchmark makes across a
//! layer boundary (name, start, end, parent, rep), keeps them in memory,
//! and writes them out as a Chrome trace when the run ends. A layer's self
//! time is its span minus the part of it its child spans cover. Spans
//! *inside* the program under test are a later change; the engine's
//! published phase counters stand in for them as synthetic child spans
//! (see [`SpanLog::lay_out_children`]).

use pytorchsim::common::json::Json;
use std::time::Instant;

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    rep: u32,
}

/// The span recorder of one workload run. Disabled (the untraced pass) it
/// records nothing and `enter`/`exit` cost one branch.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl SpanLog {
    /// A recorder for `workload`; `enabled` only in the traced pass.
    pub fn new(workload: &str, enabled: bool) -> Self {
        SpanLog {
            enabled,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags spans opened from now on with rep `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.now_ns();
        self.push_span(name, now, now, self.open.last().copied());
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and, defensively, anything still open inside it).
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    fn push_span(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, parent, rep: self.rep });
    }

    /// Turns aggregate durations published by the program (the engine's
    /// `togsim.*_ns` phase counters) into child spans of the closed span
    /// `parent`: laid end to end from the parent's start, clipped to its
    /// end. Their positions are synthetic — only the durations, and so the
    /// parent's self time, are measured.
    pub fn lay_out_children(&mut self, parent: SpanId, parts: &[(&str, u64)]) {
        if !self.enabled {
            return;
        }
        let (mut at, end) = (self.spans[parent.0].start_ns, self.spans[parent.0].end_ns);
        for &(name, dur_ns) in parts {
            let stop = (at + dur_ns).min(end);
            self.push_span(name, at, stop, Some(parent.0));
            at = stop;
        }
    }

    /// Direct children of every span, each list sorted by start.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        for list in &mut children {
            list.sort_by_key(|&i| (self.spans[i].start_ns, i));
        }
        children
    }

    /// Self time of span `idx`: its duration minus the part of its
    /// interval covered by (the union of) its direct children `kids`,
    /// which are sorted by start.
    fn self_ns_of(&self, idx: usize, kids: &[usize]) -> u64 {
        let s = &self.spans[idx];
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &k in kids {
            let (a, b) = (self.spans[k].start_ns.max(reach), self.spans[k].end_ns.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns) - covered
    }

    /// Self time of `id`, nanoseconds.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.self_ns_of(id.0, &self.children()[id.0])
    }

    /// Self time of the spans called `name`, milliseconds: summed over all
    /// of them, or (`parents_only`) averaged over those that have children
    /// — runs whose engine phases were laid out under them.
    pub fn self_ms(&self, name: &str, parents_only: bool) -> f64 {
        let children = self.children();
        let picked: Vec<u64> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && !(parents_only && children[i].is_empty()))
            .map(|i| self.self_ns_of(i, &children[i]))
            .collect();
        let total = picked.iter().sum::<u64>() as f64 / 1e6;
        if parents_only {
            total / picked.len().max(1) as f64
        } else {
            total
        }
    }

    /// The spans as a Chrome trace-event array (one `X` record per span on
    /// one row, microsecond timestamps), in an order and with end times
    /// that `ptsim_trace::validate_chrome_trace` accepts: parents before
    /// children, siblings by start, and no span's floating-point end past
    /// its parent's end or its next sibling's start.
    pub fn chrome_json(&self) -> String {
        let children = self.children();
        let mut roots: Vec<usize> =
            (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none()).collect();
        roots.sort_by_key(|&i| (self.spans[i].start_ns, i));
        let mut records = Vec::with_capacity(self.spans.len());
        self.emit_siblings(&roots, f64::INFINITY, &children, &mut records);
        Json::Arr(records).render()
    }

    fn emit_siblings(
        &self,
        siblings: &[usize],
        parent_end_us: f64,
        children: &[Vec<usize>],
        out: &mut Vec<Json>,
    ) {
        let us = |ns: u64| ns as f64 / 1e3;
        for (k, &i) in siblings.iter().enumerate() {
            let s = &self.spans[i];
            let ts = us(s.start_ns);
            let limit = match siblings.get(k + 1) {
                Some(&next) => parent_end_us.min(us(self.spans[next].start_ns)),
                None => parent_end_us,
            };
            let mut dur = us(s.end_ns - s.start_ns);
            while dur > 0.0 && ts + dur > limit {
                dur = (limit - ts).max(0.0).min(f64::from_bits(dur.to_bits() - 1));
            }
            out.push(
                Json::obj()
                    .set("name", Json::str(&s.name))
                    .set("cat", Json::str("benchmark"))
                    .set("ph", Json::str("X"))
                    .set("pid", Json::u64(1))
                    .set("tid", Json::u64(1))
                    .set("ts", Json::num(ts))
                    .set("dur", Json::num(dur))
                    .set(
                        "args",
                        Json::obj()
                            .set("workload", Json::str(&self.workload))
                            .set("rep", Json::u64(u64::from(s.rep)))
                            .set("self_us", Json::num(us(self.self_ns_of(i, &children[i])))),
                    ),
            );
            self.emit_siblings(&children[i], ts + dur, children, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytorchsim::trace::validate::validate_chrome_trace;

    /// A log with hand-placed spans, for arithmetic that must not depend
    /// on the clock.
    fn fixed(spans: &[(&str, u64, u64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new("unit", true);
        for &(name, start, end, parent) in spans {
            log.push_span(name, start, end, parent);
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // parent [0,100); children [10,30) and [50,90); grandchild ignored.
        let log = fixed(&[
            ("parent", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 50, 90, Some(0)),
            ("b.inner", 60, 70, Some(2)),
        ]);
        assert_eq!(log.self_ns(SpanId(0)), 100 - 20 - 40);
        assert_eq!(log.self_ms("b", true), 30.0 / 1e6);
        assert_eq!(log.self_ms("a", true), 0.0, "a childless span is not a parent");
        assert_eq!(log.self_ms("a", false), 20.0 / 1e6);
        assert_eq!(log.self_ns(SpanId(2)), 40 - 10);
        assert_eq!(log.self_ns(SpanId(3)), 10);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children [10,60) and [40,120): union inside the parent is [10,100).
        let log = fixed(&[("p", 0, 100, None), ("x", 10, 60, Some(0)), ("y", 40, 120, Some(0))]);
        assert_eq!(log.self_ns(SpanId(0)), 10);
    }

    #[test]
    fn laid_out_children_fill_from_the_start_and_clip_at_the_end() {
        let mut log = fixed(&[("run", 1000, 2000, None)]);
        log.lay_out_children(SpanId(0), &[("issue", 600), ("dram", 300), ("noc", 400)]);
        // issue [1000,1600) dram [1600,1900) noc clipped to [1900,2000).
        assert_eq!(log.self_ns(SpanId(0)), 0);
        assert_eq!(log.self_ms("issue", false), 600.0 / 1e6);
        assert_eq!(log.self_ms("noc", false), 100.0 / 1e6);
        let mut log = fixed(&[("run", 0, 1000, None)]);
        log.lay_out_children(SpanId(0), &[("issue", 600), ("dram", 300)]);
        assert_eq!(log.self_ns(SpanId(0)), 100);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new("off", false);
        let id = log.enter("x");
        log.exit(id);
        log.time("y", || ());
        assert_eq!(log.len(), 0);
        assert_eq!(log.self_ns(id), 0);
        assert_eq!(validate_chrome_trace(&log.chrome_json()).unwrap().spans, 0);
    }

    #[test]
    fn live_spans_nest_and_export_validates() {
        let mut log = SpanLog::new("unit", true);
        let outer = log.enter("outer");
        log.time("inner.a", || std::hint::black_box(1 + 1));
        log.set_rep(2);
        let b = log.enter("inner.b");
        log.time("leaf", || ());
        log.exit(b);
        log.exit(outer);
        log.lay_out_children(b, &[("phase1", 1), ("phase2", u64::MAX / 4)]);
        let check = validate_chrome_trace(&log.chrome_json()).unwrap();
        assert_eq!(check.spans, 6);
        assert_eq!(check.tracks, 1);
    }

    #[test]
    fn adjacent_siblings_with_awkward_floats_still_validate() {
        // Ends that meet the next sibling's start exactly, at values whose
        // microsecond floats do not add up exactly.
        let mut spans = vec![("p", 0u64, 3_000_001u64, None)];
        let mut at = 0;
        for _ in 0..1000 {
            spans.push(("c", at, at + 3_000, Some(0)));
            at += 3_000;
        }
        let log = fixed(&spans);
        validate_chrome_trace(&log.chrome_json()).unwrap();
    }
}
