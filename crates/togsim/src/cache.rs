//! Optional per-core L1 data cache (§3.3.3).
//!
//! Recent NPUs favour software-managed scratchpads, but the paper notes L1
//! caches can still be modelled by checking cache state before global
//! memory. TOGSim consults this set-associative LRU model per read
//! transaction: hits complete at the hit latency without touching the
//! memory system; misses go to DRAM and fill the line. Writes are
//! write-through no-allocate (they update a present line's recency but do
//! not fetch).

use ptsim_common::config::L1CacheConfig;

/// Cache activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read transactions served from the cache.
    pub hits: u64,
    /// Read transactions that went to DRAM.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// A set-associative, LRU, per-core L1 model.
#[derive(Debug, Clone)]
pub struct L1Cache {
    cfg: L1CacheConfig,
    /// Per set: resident line tags, most recently used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl L1Cache {
    /// Creates an empty cache.
    pub fn new(cfg: L1CacheConfig) -> Self {
        L1Cache { sets: vec![Vec::new(); cfg.sets()], cfg, stats: CacheStats::default() }
    }

    /// The configured hit latency, cycles.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes;
        ((line % self.sets.len() as u64) as usize, line)
    }

    /// Looks up a read: returns `true` on hit (updating recency). Misses do
    /// *not* fill the line — the caller fills with [`L1Cache::fill`] only
    /// once the memory system has accepted the miss, so a backpressured
    /// transaction cannot phantom-hit its own unfetched line on retry.
    pub fn access_read(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            let t = ways.remove(pos);
            ways.push(t);
            self.stats.hits += 1;
            true
        } else {
            false
        }
    }

    /// Fills the line for an accepted miss, evicting LRU.
    pub fn fill(&mut self, addr: u64) {
        let (set, tag) = self.locate(addr);
        let ways = &mut self.sets[set];
        if ways.contains(&tag) {
            return;
        }
        if ways.len() >= self.cfg.ways {
            ways.remove(0);
        }
        ways.push(tag);
        self.stats.misses += 1;
    }

    /// Notes a write-through: refreshes recency if present, never allocates.
    pub fn access_write(&mut self, addr: u64) {
        let (set, tag) = self.locate(addr);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            let t = ways.remove(pos);
            ways.push(t);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> L1Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        L1Cache::new(L1CacheConfig { size_bytes: 512, line_bytes: 64, ways: 2, hit_latency: 4 })
    }

    fn read(c: &mut L1Cache, addr: u64) -> bool {
        let hit = c.access_read(addr);
        if !hit {
            c.fill(addr);
        }
        hit
    }

    #[test]
    fn repeated_reads_hit() {
        let mut c = tiny_cache();
        assert!(!read(&mut c, 0));
        assert!(read(&mut c, 0));
        assert!(read(&mut c, 32)); // same line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn miss_without_fill_does_not_phantom_hit() {
        let mut c = tiny_cache();
        assert!(!c.access_read(0));
        // Backpressured retry: still a miss until the fill happens.
        assert!(!c.access_read(0));
        c.fill(0);
        assert!(c.access_read(0));
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = tiny_cache();
        // Three distinct lines mapping to set 0 (stride = sets * line).
        let stride = 4 * 64;
        assert!(!read(&mut c, 0));
        assert!(!read(&mut c, stride));
        assert!(!read(&mut c, 2 * stride)); // evicts line 0
        assert!(!read(&mut c, 0)); // miss again
        assert!(read(&mut c, 2 * stride)); // still resident
    }

    #[test]
    fn recency_updates_prevent_eviction() {
        let mut c = tiny_cache();
        let stride = 4 * 64;
        read(&mut c, 0);
        read(&mut c, stride);
        read(&mut c, 0); // refresh line 0
        read(&mut c, 2 * stride); // evicts `stride`, not 0
        assert!(read(&mut c, 0));
        assert!(!read(&mut c, stride));
    }

    #[test]
    fn writes_never_allocate() {
        let mut c = tiny_cache();
        c.access_write(0);
        assert!(!c.access_read(0), "write must not have allocated");
        let s = c.stats();
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn write_through_refreshes_recency_of_present_lines() {
        let mut c = tiny_cache();
        let stride = 4 * 64;
        read(&mut c, 0);
        read(&mut c, stride);
        c.access_write(0); // write-through to a resident line refreshes it
        read(&mut c, 2 * stride); // evicts `stride`, not 0
        assert!(read(&mut c, 0));
        assert!(!read(&mut c, stride));
    }

    #[test]
    fn hit_rate_is_zero_without_accesses() {
        let c = tiny_cache();
        assert_eq!(c.stats().hit_rate(), 0.0);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_reflects_the_counters() {
        let mut c = tiny_cache();
        read(&mut c, 0); // miss
        read(&mut c, 0); // hit
        read(&mut c, 0); // hit
        read(&mut c, 64); // miss
        let s = c.stats();
        assert_eq!(s, CacheStats { hits: 2, misses: 2 });
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        let all_hits = CacheStats { hits: 7, misses: 0 };
        assert_eq!(all_hits.hit_rate(), 1.0);
    }
}
