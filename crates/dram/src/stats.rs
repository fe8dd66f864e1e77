//! DRAM activity statistics.

use crate::channel::{MemRequest, RowOutcome};
use ptsim_common::json_record;
use std::collections::HashMap;

/// Counters accumulated by the DRAM model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramStats {
    /// Read transactions served.
    pub reads: u64,
    /// Write transactions served.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (bank was idle).
    pub row_misses: u64,
    /// Row-buffer conflicts (different row was open).
    pub row_conflicts: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Sum of request latencies (arrival to data), cycles.
    pub total_latency: u64,
    /// Bytes transferred per source tag (core / tenant accounting).
    pub bytes_by_tag: HashMap<u32, u64>,
}

impl DramStats {
    /// Records one serviced request, except for its `bytes_by_tag` share:
    /// the channel batches that through [`DramStats::add_tag_bytes`].
    pub(crate) fn record(&mut self, req: &MemRequest, outcome: RowOutcome, latency: u64) {
        if req.is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        match outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Miss => self.row_misses += 1,
            RowOutcome::Conflict => self.row_conflicts += 1,
        }
        self.bytes += req.bytes;
        self.total_latency += latency;
    }

    /// Credits `bytes` of serviced traffic to source `tag`.
    pub(crate) fn add_tag_bytes(&mut self, tag: u32, bytes: u64) {
        *self.bytes_by_tag.entry(tag).or_insert(0) += bytes;
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &DramStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.bytes += other.bytes;
        self.total_latency += other.total_latency;
        for (&tag, &b) in &other.bytes_by_tag {
            *self.bytes_by_tag.entry(tag).or_insert(0) += b;
        }
    }

    /// Mean request latency in cycles (0 if nothing was served).
    pub fn mean_latency(&self) -> f64 {
        let n = self.reads + self.writes;
        if n == 0 {
            0.0
        } else {
            self.total_latency as f64 / n as f64
        }
    }

    /// Row-buffer hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let n = self.row_hits + self.row_misses + self.row_conflicts;
        if n == 0 {
            0.0
        } else {
            self.row_hits as f64 / n as f64
        }
    }

    /// Achieved bandwidth in bytes per cycle over `elapsed` cycles.
    pub fn bandwidth(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.bytes as f64 / elapsed as f64
        }
    }
}

json_record!(DramStats {
    reads,
    writes,
    row_hits,
    row_misses,
    row_conflicts,
    bytes,
    total_latency,
    bytes_by_tag,
});

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_common::RequestId;

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = DramStats::default();
        let r = MemRequest::read(RequestId::new(0), 0, 64, 3);
        a.record(&r, RowOutcome::Hit, 10);
        a.add_tag_bytes(r.tag, r.bytes);
        let mut b = DramStats::default();
        let w = MemRequest::write(RequestId::new(1), 64, 64, 3);
        b.record(&w, RowOutcome::Conflict, 30);
        b.add_tag_bytes(w.tag, w.bytes);
        a.merge(&b);
        assert_eq!(a.reads, 1);
        assert_eq!(a.writes, 1);
        assert_eq!(a.row_hits, 1);
        assert_eq!(a.row_conflicts, 1);
        assert_eq!(a.bytes, 128);
        assert_eq!(a.bytes_by_tag[&3], 128);
        assert_eq!(a.mean_latency(), 20.0);
        assert_eq!(a.hit_rate(), 0.5);
    }

    #[test]
    fn empty_stats_avoid_division_by_zero() {
        let s = DramStats::default();
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.bandwidth(0), 0.0);
    }

    #[test]
    fn stats_json_round_trips() {
        use ptsim_common::json::{FromJson, ToJson};
        let mut s = DramStats::default();
        let r = MemRequest::read(RequestId::new(0), 0, 64, 3);
        s.record(&r, RowOutcome::Hit, 10);
        s.add_tag_bytes(r.tag, r.bytes);
        let w = MemRequest::write(RequestId::new(1), 64, 64, 9);
        s.record(&w, RowOutcome::Conflict, 30);
        s.add_tag_bytes(w.tag, w.bytes);
        assert_eq!(DramStats::from_json_str(&s.to_json_string()).unwrap(), s);
    }
}
