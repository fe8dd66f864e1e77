//! The content-addressed result cache.
//!
//! Simulation is deterministic: a [`pytorchsim::RunSpec`]'s canonical JSON
//! fully determines its `SimReport`. The server therefore caches *rendered
//! response bodies* keyed by the spec's fingerprint, turning repeated
//! identical requests into a hash lookup. A canonical request body is
//! looked up by its own bytes before any parsing, so a cached request
//! costs ~`10 µs` over loopback, against a ~`0.2 ms` uncached TLS request
//! on a tiny model and seconds for a large ILS simulation.
//!
//! Eviction is least-recently-used under a byte budget. Fingerprints are
//! 64-bit FNV-1a, so collisions are unlikely but possible on hostile
//! input; every hit re-checks the full canonical JSON and a mismatch is
//! served as a miss (and counted), never as a wrong answer.

use std::collections::HashMap;
use std::sync::Mutex;

/// Counters describing cache behaviour since startup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Hits rejected because the fingerprint matched but the canonical
    /// spec did not (64-bit collision guard).
    pub collisions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate resident bytes (keys plus bodies).
    pub bytes: usize,
}

#[derive(Debug)]
struct Entry {
    canon: String,
    body: String,
    tick: u64,
}

impl Entry {
    fn cost(&self) -> usize {
        self.canon.len() + self.body.len() + 64
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    collisions: u64,
}

impl Inner {
    /// The body for `fingerprint` if its canonical spec is `canon`,
    /// counting a hit (or a collision) but never a miss.
    fn probe(&mut self, fingerprint: u64, canon: &str) -> Option<String> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&fingerprint) {
            Some(entry) if entry.canon == canon => {
                entry.tick = tick;
                self.hits += 1;
                Some(entry.body.clone())
            }
            Some(_) => {
                self.collisions += 1;
                None
            }
            None => None,
        }
    }
}

/// An LRU map from spec fingerprint to rendered response body, bounded by
/// a byte budget.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    budget: usize,
}

impl ResultCache {
    /// A cache holding at most roughly `budget_bytes` of keys and bodies.
    /// A zero budget disables caching (every lookup misses).
    pub fn new(budget_bytes: usize) -> Self {
        ResultCache { inner: Mutex::new(Inner::default()), budget: budget_bytes }
    }

    /// The cached body for `fingerprint`, if present and its canonical
    /// spec matches `canon`.
    pub fn get(&self, fingerprint: u64, canon: &str) -> Option<String> {
        let mut inner = self.inner.lock().expect("result cache poisoned");
        let body = inner.probe(fingerprint, canon);
        if body.is_none() {
            inner.misses += 1;
        }
        body
    }

    /// [`ResultCache::get`] without counting a miss, for a caller that may
    /// look one request up under two keys and then counts its single miss
    /// with [`ResultCache::count_miss`].
    pub(crate) fn probe(&self, fingerprint: u64, canon: &str) -> Option<String> {
        self.inner.lock().expect("result cache poisoned").probe(fingerprint, canon)
    }

    /// Counts the miss of a request looked up with [`ResultCache::probe`].
    pub(crate) fn count_miss(&self) {
        self.inner.lock().expect("result cache poisoned").misses += 1;
    }

    /// Inserts a rendered body, evicting least-recently-used entries as
    /// needed. A fingerprint collision keeps the resident entry (the guard
    /// in [`ResultCache::get`] already serves the newcomer as a miss).
    pub fn insert(&self, fingerprint: u64, canon: String, body: String) {
        let entry = Entry { canon, body, tick: 0 };
        if entry.cost() > self.budget {
            return;
        }
        let mut inner = self.inner.lock().expect("result cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(resident) = inner.map.get(&fingerprint) {
            if resident.canon != entry.canon {
                inner.collisions += 1;
            }
            return;
        }
        inner.bytes += entry.cost();
        inner.map.insert(fingerprint, Entry { tick, ..entry });
        while inner.bytes > self.budget {
            let Some((&oldest, _)) = inner.map.iter().min_by_key(|(_, e)| e.tick) else { break };
            let gone = inner.map.remove(&oldest).expect("oldest key just observed");
            inner.bytes -= gone.cost();
            inner.evictions += 1;
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.inner.lock().expect("result cache poisoned");
        ResultCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            collisions: inner.collisions,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ResultCache::new(1 << 20);
        assert_eq!(c.get(1, "spec-a"), None);
        c.insert(1, "spec-a".into(), "body-a".into());
        assert_eq!(c.get(1, "spec-a").as_deref(), Some("body-a"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn probe_counts_hits_and_leaves_the_miss_to_the_caller() {
        let c = ResultCache::new(1 << 20);
        c.insert(1, "spec-a".into(), "body-a".into());
        assert_eq!(c.probe(2, "spec-a "), None);
        assert_eq!(c.probe(1, "spec-a").as_deref(), Some("body-a"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        c.count_miss();
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn collision_guard_never_serves_wrong_body() {
        let c = ResultCache::new(1 << 20);
        c.insert(7, "spec-a".into(), "body-a".into());
        // Same 64-bit fingerprint, different spec: must miss, not lie.
        assert_eq!(c.get(7, "spec-b"), None);
        assert_eq!(c.stats().collisions, 1);
        assert_eq!(c.get(7, "spec-a").as_deref(), Some("body-a"));
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        // Each entry costs 64 + canon + body ≈ 74 bytes; budget fits two.
        let c = ResultCache::new(160);
        c.insert(1, "a".into(), "x".repeat(9));
        c.insert(2, "b".into(), "y".repeat(9));
        assert!(c.get(1, "a").is_some(), "touch 1 so 2 is the LRU victim");
        c.insert(3, "c".into(), "z".repeat(9));
        assert!(c.get(1, "a").is_some());
        assert!(c.get(2, "b").is_none(), "LRU entry evicted");
        assert!(c.get(3, "c").is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 160);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let c = ResultCache::new(0);
        c.insert(1, "a".into(), "b".into());
        assert_eq!(c.get(1, "a"), None);
        assert_eq!(c.stats().entries, 0);
    }
}
