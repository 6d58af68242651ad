//! A multi-level memory hierarchy (L1 → L2 → … → DRAM).
//!
//! Table 1 models a single 8 kB cache with a flat 165-cycle miss penalty.
//! Real machines interpose further SRAM levels, which matters for the
//! sorted-index workload: an L2 sized near the index's hot set absorbs
//! many of the probes the paper charges full DRAM penalties for. The
//! hierarchy lets that sensitivity be *measured* (the
//! `dna_pipeline` example and the hierarchy tests quantify it).

use cim_units::Energy;
use serde::{Deserialize, Serialize};

use cim_workloads::{AccessSink, MemoryTrace};

use crate::cache::{CacheConfig, CacheSim};

/// One SRAM level: a cache plus its access cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryLevel {
    /// The cache at this level.
    pub cache: CacheSim,
    /// Access latency in cycles when this level hits.
    pub hit_cycles: u64,
    /// Dynamic energy of a hit at this level.
    pub hit_energy: Energy,
}

/// Outcome of one hierarchical access.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyAccess {
    /// Total cycles spent (sum of probe latencies down to the hit point).
    pub cycles: u64,
    /// Total dynamic energy.
    pub energy: Energy,
    /// Which level hit (0 = L1, …); `None` = DRAM.
    pub level: Option<usize>,
}

/// An inclusive multi-level hierarchy terminated by DRAM.
///
/// ```
/// use cim_sim::MemoryHierarchy;
///
/// let mut h = MemoryHierarchy::table1_with_l2();
/// let cold = h.access(0x4000);
/// assert_eq!(cold.level, None);          // DRAM
/// assert_eq!(h.access(0x4000).level, Some(0)); // filled into L1
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryHierarchy {
    levels: Vec<MemoryLevel>,
    /// DRAM access latency in cycles.
    pub dram_cycles: u64,
    /// DRAM access energy.
    pub dram_energy: Energy,
    accesses: u64,
    dram_accesses: u64,
    /// Lifetime cycles over every access.
    cycles: u64,
}

impl MemoryHierarchy {
    /// Builds a hierarchy from levels (L1 first).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn new(levels: Vec<MemoryLevel>, dram_cycles: u64, dram_energy: Energy) -> Self {
        assert!(!levels.is_empty(), "hierarchy needs at least one level");
        Self {
            levels,
            dram_cycles,
            dram_energy,
            accesses: 0,
            dram_accesses: 0,
            cycles: 0,
        }
    }

    /// Table 1's flat single level: 8 kB, 1-cycle hits, 165-cycle misses.
    pub fn table1_flat() -> Self {
        Self::new(
            vec![MemoryLevel {
                cache: CacheSim::new(CacheConfig::table1_8kb()),
                hit_cycles: 1,
                hit_energy: Energy::from_pico_joules(10.0),
            }],
            165,
            Energy::from_nano_joules(1.0),
        )
    }

    /// Table 1's L1 plus a 64 kB / 8-way L2 at 10 cycles and 30 pJ.
    pub fn table1_with_l2() -> Self {
        Self::new(
            vec![
                MemoryLevel {
                    cache: CacheSim::new(CacheConfig::table1_8kb()),
                    hit_cycles: 1,
                    hit_energy: Energy::from_pico_joules(10.0),
                },
                MemoryLevel {
                    cache: CacheSim::new(CacheConfig {
                        capacity_bytes: 64 * 1024,
                        line_bytes: 64,
                        ways: 8,
                    }),
                    hit_cycles: 10,
                    hit_energy: Energy::from_pico_joules(30.0),
                },
            ],
            165,
            Energy::from_nano_joules(1.0),
        )
    }

    /// Number of SRAM levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Performs one access, probing levels in order and filling every
    /// missed level (inclusive hierarchy).
    pub fn access(&mut self, address: u64) -> HierarchyAccess {
        self.accesses += 1;
        let mut cycles = 0;
        let mut energy = Energy::ZERO;
        let mut hit_level = None;
        for (idx, level) in self.levels.iter_mut().enumerate() {
            cycles += level.hit_cycles;
            energy += level.hit_energy;
            if level.cache.access(address) {
                hit_level = Some(idx);
                break;
            }
        }
        if hit_level.is_none() {
            cycles += self.dram_cycles;
            energy += self.dram_energy;
            self.dram_accesses += 1;
        }
        self.cycles += cycles;
        HierarchyAccess {
            cycles,
            energy,
            level: hit_level,
        }
    }

    /// Replays a trace; returns the average cycles per access.
    pub fn run_trace(&mut self, trace: &MemoryTrace) -> f64 {
        if trace.is_empty() {
            return 0.0;
        }
        let total: u64 = trace
            .accesses()
            .iter()
            .map(|a| self.access(a.address).cycles)
            .sum();
        total as f64 / trace.len() as f64
    }

    /// Lifetime accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Lifetime cycles, summed over every access.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Fraction of accesses that fell through to DRAM.
    pub fn dram_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.dram_accesses as f64 / self.accesses as f64
        }
    }

    /// Per-level lifetime hit ratios.
    pub fn level_hit_ratios(&self) -> Vec<f64> {
        self.levels.iter().map(|l| l.cache.hit_ratio()).collect()
    }
}

/// Feeds a workload's references straight into the hierarchy, one
/// [`access`](MemoryHierarchy::access) each, so no trace is held.
impl AccessSink for MemoryHierarchy {
    fn read(&mut self, address: u64) {
        self.access(address);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_workloads::Access;

    #[test]
    fn flat_hierarchy_matches_single_cache_costs() {
        let mut h = MemoryHierarchy::table1_flat();
        let miss = h.access(0x10_000);
        assert_eq!(miss.level, None);
        assert_eq!(miss.cycles, 1 + 165);
        let hit = h.access(0x10_000);
        assert_eq!(hit.level, Some(0));
        assert_eq!(hit.cycles, 1);
        assert!((h.dram_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn l2_absorbs_l1_capacity_misses() {
        // A 32 kB working set thrashes the 8 kB L1 but fits the 64 kB L2.
        let mut h = MemoryHierarchy::table1_with_l2();
        let lines: Vec<u64> = (0..512u64).map(|i| i * 64).collect();
        for _round in 0..4 {
            for &a in &lines {
                h.access(a);
            }
        }
        // After the cold round, everything should come from L1 or L2 —
        // not DRAM.
        assert!(
            h.dram_ratio() < 0.3,
            "DRAM ratio {} too high with a fitting L2",
            h.dram_ratio()
        );
        let ratios = h.level_hit_ratios();
        assert!(ratios[1] > 0.5, "L2 hit ratio {}", ratios[1]);
    }

    #[test]
    fn miss_path_pays_every_probe() {
        let mut h = MemoryHierarchy::table1_with_l2();
        let out = h.access(0xDEAD_0000);
        assert_eq!(out.level, None);
        assert_eq!(out.cycles, 1 + 10 + 165);
        // Energy: L1 probe + L2 probe + DRAM.
        assert!((out.energy.as_pico_joules() - (10.0 + 30.0 + 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn inclusive_fills_serve_l1_next_time() {
        let mut h = MemoryHierarchy::table1_with_l2();
        let _ = h.access(0x42_000);
        let again = h.access(0x42_000);
        assert_eq!(again.level, Some(0), "fill must reach L1");
    }

    #[test]
    fn trace_replay_averages_cycles() {
        let mut h = MemoryHierarchy::table1_flat();
        let trace: MemoryTrace = [0u64, 0, 0, 0].iter().map(|&a| Access::read(a)).collect();
        let avg = h.run_trace(&trace);
        // 1 miss (166) + 3 hits (1) over 4 accesses.
        assert!((avg - (166.0 + 3.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn rejects_empty_hierarchies() {
        let _ = MemoryHierarchy::new(vec![], 100, Energy::ZERO);
    }
}
