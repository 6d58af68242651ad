//! A set-associative LRU cache simulator.
//!
//! Table 1 *assumes* hit ratios (50% for the DNA sorted index, 98% for
//! the additions); this simulator lets the executors *measure* them by
//! replaying the workloads' real memory traces.

use serde::{Deserialize, Serialize};

use cim_workloads::MemoryTrace;

/// Cache organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// The Table-1 cluster cache: 8 kB, organised as 64 B lines, 4-way.
    pub fn table1_8kb() -> Self {
        Self {
            capacity_bytes: 8 * 1024,
            line_bytes: 64,
            ways: 4,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / self.line_bytes / self.ways
    }

    /// Validates the organisation.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, the line size or the set count
    /// is not a power of two, the capacity is not divisible into sets,
    /// or a one-byte line in a single set leaves a tag no spare value
    /// for an empty way.
    pub fn validate(&self) {
        assert!(self.line_bytes > 0 && self.line_bytes.is_power_of_two());
        assert!(self.ways > 0, "associativity must be non-zero");
        assert!(
            self.capacity_bytes
                .is_multiple_of(self.line_bytes * self.ways),
            "capacity must divide into whole sets"
        );
        assert!(self.sets() > 0, "cache must have at least one set");
        assert!(
            self.sets().is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            self.line_bytes * self.sets() > 1,
            "a one-byte line in a single set leaves no empty-way tag"
        );
    }
}

/// Tag of a way that holds no line. A tag is `address >> (line bits +
/// set bits)`, and `validate` keeps that shift above zero, so no address
/// produces it.
const EMPTY: u64 = u64::MAX;

/// A set-associative LRU cache with hit/miss counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSim {
    config: CacheConfig,
    /// `log2(line_bytes)`: an address's line is `address >> line_shift`.
    line_shift: u32,
    /// `sets - 1`: a line's set is `line & set_mask`.
    set_mask: u64,
    /// `log2(sets)`: a line's tag is `line >> set_shift`.
    set_shift: u32,
    /// Per-set, per-way tags ([`EMPTY`] = invalid).
    tags: Vec<u64>,
    /// Per-set, per-way last-use stamps.
    stamps: Vec<u64>,
    /// The previous access's line, still the most recently used way of
    /// its set.
    last_line: Option<u64>,
    /// Stamp source: counts the accesses that take the full lookup.
    clock: u64,
    hits: u64,
    misses: u64,
}

impl CacheSim {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let slots = config.sets() * config.ways;
        Self {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.sets() as u64 - 1,
            set_shift: config.sets().trailing_zeros(),
            tags: vec![EMPTY; slots],
            stamps: vec![0; slots],
            last_line: None,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache organisation.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Performs one access; returns true on a hit.
    #[inline]
    pub fn access(&mut self, address: u64) -> bool {
        let line = address >> self.line_shift;
        // Same line as the previous access: the full lookup would hit the
        // way that access left most recently used, and re-stamping it
        // would keep every stamp's order as it is (no other way was
        // stamped in between), so only the hit is counted.
        if self.last_line == Some(line) {
            self.hits += 1;
            return true;
        }
        self.last_line = Some(line);
        self.clock += 1;
        let ways = self.config.ways;
        let base = (line & self.set_mask) as usize * ways;
        let tag = line >> self.set_shift;
        let hit = self.tags[base..base + ways].iter().position(|&t| t == tag);
        let slot = if let Some(way) = hit {
            self.hits += 1;
            base + way
        } else {
            // Miss: fill the LRU way.
            let lru = (0..ways)
                .min_by_key(|&w| self.stamps[base + w])
                .expect("ways is non-zero");
            self.tags[base + lru] = tag;
            self.misses += 1;
            base + lru
        };
        self.stamps[slot] = self.clock;
        hit.is_some()
    }

    /// Replays a trace; returns the hit ratio over it.
    pub fn run_trace(&mut self, trace: &MemoryTrace) -> f64 {
        let before_hits = self.hits;
        let before_total = self.hits + self.misses;
        for access in trace.accesses() {
            self.access(access.address);
        }
        let total = (self.hits + self.misses - before_total).max(1);
        (self.hits - before_hits) as f64 / total as f64
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_workloads::Access;

    fn cache() -> CacheSim {
        CacheSim::new(CacheConfig::table1_8kb())
    }

    #[test]
    fn organisation_derives_sets() {
        let c = CacheConfig::table1_8kb();
        assert_eq!(c.sets(), 32);
        c.validate();
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = cache();
        assert!(!c.access(0x1000)); // cold miss
        assert!(c.access(0x1000));
        assert!(c.access(0x1010)); // same 64B line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let mut c = cache();
        let sets = c.config().sets() as u64;
        let stride = 64 * sets; // same set, different tags
                                // Fill all 4 ways of set 0.
        for i in 0..4 {
            assert!(!c.access(i * stride));
        }
        // Touch way 0 so way 1 becomes LRU.
        assert!(c.access(0));
        // A 5th tag evicts way 1 (tag `stride`).
        assert!(!c.access(4 * stride));
        assert!(c.access(0), "way 0 must survive");
        assert!(!c.access(stride), "way 1 must have been evicted");
    }

    #[test]
    fn sequential_streaming_hits_within_lines() {
        let mut c = cache();
        let trace: MemoryTrace = (0..1024u64).map(Access::read).collect();
        let ratio = c.run_trace(&trace);
        // 64-byte lines: 1 miss + 63 hits per line.
        assert!((ratio - 63.0 / 64.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn random_large_footprint_mostly_misses() {
        let mut c = cache();
        // Touch 1 MB with a large-stride pattern: no reuse, all misses.
        let trace: MemoryTrace = (0..10_000u64).map(|i| Access::read(i * 4096)).collect();
        let ratio = c.run_trace(&trace);
        assert!(ratio < 0.01, "ratio {ratio}");
    }

    #[test]
    fn working_set_fitting_in_cache_hits_after_warmup() {
        let mut c = cache();
        let lines: Vec<u64> = (0..64u64).map(|i| i * 64).collect(); // 4 kB
        for &a in &lines {
            c.access(a);
        }
        let before = c.hits();
        for _ in 0..10 {
            for &a in &lines {
                assert!(c.access(a));
            }
        }
        assert_eq!(c.hits() - before, 640);
        assert!(c.hit_ratio() > 0.9);
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn rejects_ragged_organisation() {
        CacheSim::new(CacheConfig {
            capacity_bytes: 1000,
            line_bytes: 64,
            ways: 4,
        });
    }
}
