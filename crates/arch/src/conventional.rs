//! The conventional 22 nm FinFET multi-core machine of Table 1.

use cim_units::{Area, Component, CostLedger, Energy, Phase, Power, Time};
use serde::{Deserialize, Serialize};

use crate::cache::CacheSpec;
use crate::finfet::FinfetTech;

/// A CMOS functional unit described by gate count and critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionalUnit {
    /// Total gate count.
    pub gates: u32,
    /// Critical-path length in gate delays.
    pub gate_delays: u32,
}

impl FunctionalUnit {
    /// Combinational latency (`gate_delays × t_gate`).
    pub fn latency(self, tech: &FinfetTech) -> Time {
        tech.gate_delay * f64::from(self.gate_delays)
    }

    /// Dynamic energy of one operation: every gate switches once.
    pub fn dynamic_energy(self, tech: &FinfetTech) -> Energy {
        tech.gate_energy() * f64::from(self.gates)
    }

    /// Leakage power of the whole unit.
    pub fn leakage_power(self, tech: &FinfetTech) -> Power {
        tech.gate_leakage * f64::from(self.gates)
    }

    /// Layout area of the unit.
    pub fn area(self, tech: &FinfetTech) -> Area {
        tech.gate_area * f64::from(self.gates)
    }
}

/// The 32-bit carry-lookahead adder of Table 1: 208 gates ([Parhami's
/// gate accounting]), 18 gate delays → 252 ps at 14 ps/gate.
pub struct ClaAdder;

impl ClaAdder {
    /// Table 1's CLA parameters.
    pub fn unit() -> FunctionalUnit {
        FunctionalUnit {
            gates: 208,
            gate_delays: 18,
        }
    }
}

/// A DNA-character (byte) comparator.
///
/// Table 1 sizes each cluster at "32 comparators" without quoting a gate
/// count. We derive one with the same Parhami-style accounting as the
/// CLA: an 8-bit equality comparator is 8 XNOR gates (4 NAND-equivalents
/// each = 32 gates) plus a balanced 8-input AND tree (7 × 2-input ANDs ×
/// 3 gate-equivalents ≈ 21 gates), plus latching ≈ 5 gates → **58 gates**,
/// critical path 4 (XNOR) + 3·2 (tree) ≈ **10 gate delays**. The
/// `table2 --ablate-comparator` bench sweeps this assumption from 30 to
/// 120 gates.
pub struct ByteComparator;

impl ByteComparator {
    /// The derived comparator parameters.
    pub fn unit() -> FunctionalUnit {
        FunctionalUnit {
            gates: 58,
            gate_delays: 10,
        }
    }
}

/// The conventional machine: `clusters × units_per_cluster` functional
/// units, each cluster sharing one 8 kB cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConventionalMachine {
    /// Number of clusters.
    pub clusters: u64,
    /// Functional units per cluster (Table 1: 32).
    pub units_per_cluster: u64,
    /// The per-unit gate model.
    pub unit: FunctionalUnit,
    /// The shared per-cluster cache.
    pub cache: CacheSpec,
    /// Gate-level technology.
    pub tech: FinfetTech,
}

impl ConventionalMachine {
    /// The DNA-experiment machine: 18 750 clusters × 32 comparators,
    /// 50%-hit caches ("limited with the state-of-the-art chip area").
    pub fn dna_paper() -> Self {
        Self {
            clusters: 18_750,
            units_per_cluster: 32,
            unit: ByteComparator::unit(),
            cache: CacheSpec::table1_dna(),
            tech: FinfetTech::table1_22nm(),
        }
    }

    /// The mathematics-experiment machine: "fully scalable reusing
    /// clusters", 32 CLA adders each, 98%-hit caches. `n_ops` parallel
    /// additions determine the cluster count.
    pub fn math_paper(n_ops: u64) -> Self {
        let units = 32;
        Self {
            clusters: n_ops.div_ceil(units),
            units_per_cluster: units,
            unit: ClaAdder::unit(),
            cache: CacheSpec::table1_math(),
            tech: FinfetTech::table1_22nm(),
        }
    }

    /// Total parallel functional units.
    pub fn parallel_units(&self) -> u64 {
        self.clusters * self.units_per_cluster
    }

    /// Total silicon area: units + caches.
    pub fn area(&self) -> Area {
        let units = self.unit.area(&self.tech) * self.parallel_units() as f64;
        let caches = self.cache.area * self.clusters as f64;
        units + caches
    }

    /// Total static power: gate leakage + cache leakage.
    pub fn static_power(&self) -> Power {
        let gates = self.unit.leakage_power(&self.tech) * self.parallel_units() as f64;
        let caches = self.cache.static_power * self.clusters as f64;
        gates + caches
    }

    /// Latency of one operation: compute + expected memory access.
    ///
    /// The operand fetch goes through the shared cache
    /// (hit/miss-weighted); the compute itself fits in whole cycles.
    pub fn op_latency(&self) -> Time {
        let compute_cycles = self
            .unit
            .latency(&self.tech)
            .in_cycles_of(self.tech.clock)
            .max(1);
        self.tech.cycle() * compute_cycles as f64 + self.cache.expected_access_time(&self.tech)
    }

    /// Dynamic energy of one operation: unit switching + cache access.
    pub fn op_dynamic_energy(&self) -> Energy {
        self.unit.dynamic_energy(&self.tech) + self.cache.expected_access_energy()
    }

    /// Attributes a full batch of `n_ops` uniform operations into the
    /// ledger — the component-wise decomposition of the DESIGN.md §4
    /// aggregation: `⌈n_ops / parallel_units⌉` rounds of `op_latency`,
    /// `op_dynamic_energy` per operation, and static power over the
    /// makespan.
    ///
    /// Dynamic energy: [`Component::GateDynamic`] takes the
    /// functional-unit switching, [`Component::CacheAccess`] the
    /// expected hit energy, and [`Component::DramAccess`] the miss
    /// residual, so the three sum to `op_dynamic_energy × n_ops`. Time
    /// charges are shares of the makespan
    /// `op_latency × ⌈n_ops / parallel_units⌉` — compute cycles,
    /// expected hit cycles, and the miss residual, in the same three
    /// components — and sum to it exactly. Statics over the makespan
    /// split into [`Component::GateLeakage`], with
    /// [`Component::CacheStatic`] taking the residual.
    pub fn charge_batched(&self, ledger: &mut CostLedger, phase: Phase, n_ops: u64) {
        let n = n_ops as f64;
        let gate_energy = self.unit.dynamic_energy(&self.tech) * n;
        let hit_energy = self.cache.hit_energy * self.cache.hit_ratio * n;
        let miss_energy = self.op_dynamic_energy() * n - gate_energy - hit_energy;

        let rounds = n_ops.div_ceil(self.parallel_units().max(1)) as f64;
        let makespan = self.op_latency() * rounds;
        let compute_cycles = self
            .unit
            .latency(&self.tech)
            .in_cycles_of(self.tech.clock)
            .max(1);
        let compute_time = self.tech.cycle() * compute_cycles as f64 * rounds;
        let hit_time =
            self.tech.cycle() * self.cache.hit_ratio * self.cache.hit_cycles as f64 * rounds;
        let miss_time = makespan - compute_time - hit_time;
        ledger.charge(
            Component::GateDynamic,
            phase,
            gate_energy,
            compute_time,
            n_ops,
        );
        ledger.charge(Component::CacheAccess, phase, hit_energy, hit_time, n_ops);
        ledger.charge(Component::DramAccess, phase, miss_energy, miss_time, 0);

        let gate_leak =
            self.unit.leakage_power(&self.tech) * self.parallel_units() as f64 * makespan;
        let cache_static = self.static_power() * makespan - gate_leak;
        ledger.charge_energy(Component::GateLeakage, phase, gate_leak, 0);
        ledger.charge_energy(Component::CacheStatic, phase, cache_static, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cla_matches_table1() {
        let tech = FinfetTech::table1_22nm();
        let cla = ClaAdder::unit();
        assert_eq!(cla.gates, 208);
        // Table 1: "Adder latency: 252 ps = 18 × 14 ps".
        assert!((cla.latency(&tech).as_pico_seconds() - 252.0).abs() < 1e-9);
    }

    #[test]
    fn dna_machine_has_600k_comparators() {
        let m = ConventionalMachine::dna_paper();
        assert_eq!(m.parallel_units(), 600_000);
        assert_eq!(m.clusters, 18_750);
    }

    #[test]
    fn math_machine_scales_with_op_count() {
        let m = ConventionalMachine::math_paper(1_000_000);
        assert_eq!(m.clusters, 31_250);
        assert_eq!(m.parallel_units(), 1_000_000);
        // Non-divisible counts round the cluster count up.
        assert_eq!(ConventionalMachine::math_paper(33).clusters, 2);
    }

    #[test]
    fn dna_op_latency_is_cache_dominated() {
        let m = ConventionalMachine::dna_paper();
        // 1 compute cycle + 83 expected access cycles = 84 ns at 1 GHz.
        assert!((m.op_latency().as_nano_seconds() - 84.0).abs() < 1e-9);
    }

    #[test]
    fn math_op_latency_uses_98pct_hits() {
        let m = ConventionalMachine::math_paper(1_000_000);
        // 1 + 4.28 cycles.
        assert!((m.op_latency().as_nano_seconds() - 5.28).abs() < 1e-9);
    }

    #[test]
    fn area_and_static_power_scale_with_clusters() {
        let m = ConventionalMachine::math_paper(1_000_000);
        let one = ConventionalMachine {
            clusters: 1,
            ..m.clone()
        };
        assert!((m.area() / one.area() - m.clusters as f64).abs() < 1.0);
        assert!((m.static_power() / one.static_power() - m.clusters as f64).abs() < 1.0);
        // Cache static dominates gate leakage: 1/64 W ≫ 208·32·42.83 nW.
        let cache_only = m.cache.static_power * m.clusters as f64;
        assert!(m.static_power().get() < cache_only.get() * 1.05);
    }

    #[test]
    fn charge_batched_decomposes_the_batched_aggregate() {
        let m = ConventionalMachine::dna_paper();
        let n = 1_000_000;
        let mut ledger = CostLedger::new();
        m.charge_batched(&mut ledger, Phase::Map, n);
        // Component-wise charges re-sum to the DESIGN.md §4 aggregate:
        // ⌈n / parallel⌉ rounds (two here: 10⁶ ops on 600k units) of the
        // op latency, the op energy per op plus leakage over the
        // makespan.
        let rounds = n.div_ceil(m.parallel_units());
        assert_eq!(rounds, 2);
        let time = m.op_latency() * rounds as f64;
        let energy = m.op_dynamic_energy() * n as f64 + m.static_power() * time;
        assert!((ledger.total_energy() / energy - 1.0).abs() < 1e-12);
        assert!((ledger.total_time() / time - 1.0).abs() < 1e-12);
        // Every conventional-side component is represented…
        for c in [
            Component::GateDynamic,
            Component::GateLeakage,
            Component::CacheAccess,
            Component::CacheStatic,
            Component::DramAccess,
        ] {
            assert!(
                !ledger.component_totals(c).is_zero(),
                "{c} unexpectedly zero"
            );
        }
        // …and nothing leaks into the CIM-side components.
        for c in [
            Component::CrossbarWrite,
            Component::CrossbarRead,
            Component::ImplyStep,
            Component::Controller,
            Component::Interconnect,
        ] {
            assert!(
                ledger.component_totals(c).is_zero(),
                "{c} unexpectedly charged"
            );
        }
    }

    #[test]
    fn op_energy_scale_sanity() {
        // Unit switching energy alone is sub-fJ (2.45 aJ × 208), the
        // cache access brings it to tens of pJ: the paper's "computation
        // is cheap, memory access is not" gap.
        let m = ConventionalMachine::math_paper(1_000_000);
        let unit_only = m.unit.dynamic_energy(&m.tech);
        assert!(unit_only.as_femto_joules() < 1.0);
        assert!(m.op_dynamic_energy().as_pico_joules() > 5.0);
    }
}
