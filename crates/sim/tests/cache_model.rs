//! `CacheSim` against a naive LRU model.
//!
//! The model keeps, per set, its resident lines ordered from most to
//! least recently used, and knows nothing of stamps, tags, shifts or the
//! simulator's same-line shortcut. Address streams come in runs of
//! same-line accesses (the DNA verify walk's pattern) between jumps, so
//! the shortcut is taken often and interleaved with every kind of
//! lookup.

use cim_sim::{CacheConfig, CacheSim};
use proptest::prelude::*;

/// Per set, the resident line numbers, most recently used first.
struct NaiveLru {
    line_bytes: u64,
    ways: usize,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl NaiveLru {
    fn new(config: CacheConfig) -> Self {
        Self {
            line_bytes: config.line_bytes as u64,
            ways: config.ways,
            sets: vec![Vec::new(); config.sets()],
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, address: u64) -> bool {
        let line = address / self.line_bytes;
        let set_count = self.sets.len() as u64;
        let set = &mut self.sets[(line % set_count) as usize];
        let hit = if let Some(at) = set.iter().position(|&l| l == line) {
            set.remove(at);
            true
        } else {
            set.truncate(self.ways - 1);
            false
        };
        set.insert(0, line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }
}

/// The 64 kB / 8-way L2 of `MemoryHierarchy::table1_with_l2`.
fn l2_64kb() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 64 * 1024,
        line_bytes: 64,
        ways: 8,
    }
}

/// Expands `(line, offsets)` runs into an address stream: each run reads
/// its line at every offset in turn.
fn addresses(runs: &[(u64, Vec<u64>)], line_bytes: u64) -> Vec<u64> {
    runs.iter()
        .flat_map(|(line, offsets)| {
            offsets
                .iter()
                .map(move |offset| line * line_bytes + offset % line_bytes)
        })
        .collect()
}

fn check(config: CacheConfig, stream: &[u64]) -> Result<(), TestCaseError> {
    let mut sim = CacheSim::new(config);
    let mut model = NaiveLru::new(config);
    for (i, &address) in stream.iter().enumerate() {
        prop_assert_eq!(
            sim.access(address),
            model.access(address),
            "access {} at {:#x}",
            i,
            address
        );
    }
    prop_assert_eq!(sim.hits(), model.hits);
    prop_assert_eq!(sim.misses(), model.misses);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_a_naive_lru_on_the_table1_cache(
        // Lines over 3× the cache's 128-line capacity: hits, conflict
        // evictions and re-fetches all occur.
        runs in prop::collection::vec(
            (0u64..384, prop::collection::vec(0u64..64, 1..6)),
            1..400,
        ),
    ) {
        let config = CacheConfig::table1_8kb();
        check(config, &addresses(&runs, config.line_bytes as u64))?;
    }

    #[test]
    fn cache_matches_a_naive_lru_on_the_l2_cache(
        runs in prop::collection::vec(
            (0u64..3_072, prop::collection::vec(0u64..64, 1..6)),
            1..1_200,
        ),
    ) {
        let config = l2_64kb();
        check(config, &addresses(&runs, config.line_bytes as u64))?;
    }

    #[test]
    fn cache_matches_a_naive_lru_on_one_hot_set(
        // Every line maps to set 0 of the Table-1 cache: the way choice
        // alone decides each outcome.
        runs in prop::collection::vec(
            (0u64..8, prop::collection::vec(0u64..64, 1..4)),
            1..300,
        ),
    ) {
        let config = CacheConfig::table1_8kb();
        let sets = config.sets() as u64;
        let runs: Vec<(u64, Vec<u64>)> =
            runs.into_iter().map(|(tag, offsets)| (tag * sets, offsets)).collect();
        check(config, &addresses(&runs, config.line_bytes as u64))?;
    }
}

#[test]
#[should_panic(expected = "set count must be a power of two")]
fn rejects_a_set_count_that_is_not_a_power_of_two() {
    // 768 B / (64 B × 4 ways) = 3 sets.
    CacheSim::new(CacheConfig {
        capacity_bytes: 768,
        line_bytes: 64,
        ways: 4,
    });
}
