//! The memristor CIM machine of Table 1.

use cim_logic::LogicCost;
use cim_units::{Area, Component, CostLedger, Energy, Phase, Power, Time};
use serde::{Deserialize, Serialize};

/// The 5 nm memristor technology of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemristorTech {
    /// One write (= one logic step) takes this long (Table 1: 200 ps).
    pub write_time: Time,
    /// Dynamic energy of one write (Table 1: 1 fJ).
    pub write_energy: Energy,
    /// Area of one memristor (Table 1: 1×10⁻⁴ µm²).
    pub cell_area: Area,
    /// Static power per device (Table 1: 0 — non-volatile storage).
    pub static_power_per_device: Power,
}

impl MemristorTech {
    /// Table 1's CIM-architecture numbers.
    pub fn table1_5nm() -> Self {
        Self {
            write_time: Time::from_pico_seconds(200.0),
            write_energy: Energy::from_femto_joules(1.0),
            cell_area: Area::from_square_micro_meters(1e-4),
            static_power_per_device: Power::ZERO,
        }
    }
}

impl Default for MemristorTech {
    fn default() -> Self {
        Self::table1_5nm()
    }
}

/// The in-crossbar operation a CIM machine executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CimOp {
    /// The IMPLY character comparator (Table 1: 13 devices, 16 steps,
    /// 3.2 ns, 45 fJ).
    Comparator,
    /// The CRS TC adder for `bits`-wide words (Table 1: N+2 devices,
    /// 4N+5 steps, 8N fJ).
    TcAdder {
        /// Word width.
        bits: u32,
    },
}

impl CimOp {
    /// The paper-quoted cost of one operation under `tech`.
    pub fn cost(self, tech: &MemristorTech) -> LogicCost {
        match self {
            CimOp::Comparator => LogicCost::comparator_paper(),
            CimOp::TcAdder { bits } => {
                LogicCost::tc_adder_paper(bits, tech.write_time, tech.write_energy)
            }
        }
    }
}

/// The CIM machine: one large crossbar whose devices implement both the
/// working set and the functional units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CimMachine {
    /// Total memristors in the crossbar.
    pub devices: u64,
    /// The operation implemented in-array.
    pub op: CimOp,
    /// Device technology.
    pub tech: MemristorTech,
    /// Probability that an operand is already resident in the crossbar.
    /// Table 1 keeps the conventional machine's hit/miss structure for
    /// data that must stream in from bulk storage (DNA: 50%, math: 98%).
    pub memory_hit_ratio: f64,
    /// Miss penalty in nanoseconds (Table 1 reuses the 165-cycle figure
    /// at the conventional machine's 1 GHz clock).
    pub miss_penalty: Time,
}

impl CimMachine {
    /// The DNA-experiment crossbar. Table 1: "Size = 18750 × 8 kB =
    /// 1.536 × 10⁸ memristors" (the paper equates one byte of cache with
    /// one memristor — see EXPERIMENTS.md), 50% hit rate.
    pub fn dna_paper() -> Self {
        Self {
            devices: 153_600_000,
            op: CimOp::Comparator,
            tech: MemristorTech::table1_5nm(),
            memory_hit_ratio: 0.5,
            miss_penalty: Time::from_nano_seconds(165.0),
        }
    }

    /// The mathematics-experiment crossbar: "scalable to support the 10⁶
    /// adders", 98% hit rate.
    pub fn math_paper(n_ops: u64, bits: u32) -> Self {
        let op = CimOp::TcAdder { bits };
        let devices_per_adder = u64::from(bits) + 2;
        Self {
            devices: n_ops * devices_per_adder,
            op,
            tech: MemristorTech::table1_5nm(),
            memory_hit_ratio: 0.98,
            miss_penalty: Time::from_nano_seconds(165.0),
        }
    }

    /// How many operations fit in the crossbar simultaneously.
    pub fn parallel_ops(&self) -> u64 {
        let per_op = self.op.cost(&self.tech).devices as u64;
        self.devices / per_op
    }

    /// Crossbar area.
    pub fn area(&self) -> Area {
        self.tech.cell_area * self.devices as f64
    }

    /// Static power — "an architecture with practically zero leakage".
    pub fn static_power(&self) -> Power {
        self.tech.static_power_per_device * self.devices as f64
    }

    /// Latency of one in-array operation including the expected stream-in
    /// penalty for non-resident operands.
    pub fn op_latency(&self) -> Time {
        let compute = self.op.cost(&self.tech).latency;
        compute + self.miss_penalty * (1.0 - self.memory_hit_ratio)
    }

    /// Dynamic energy of one operation.
    pub fn op_dynamic_energy(&self) -> Energy {
        self.op.cost(&self.tech).energy
    }

    /// Attributes `n_ops` in-array operations executed in `rounds`
    /// crossbar rounds. The op's own component
    /// ([`Component::ImplyStep`] for the comparator,
    /// [`Component::CrossbarWrite`] for the CRS adder) takes the
    /// switching energy and the compute share of the makespan
    /// `op_latency × rounds`; [`Component::DramAccess`] takes the
    /// expected operand stream-in residual (Table 1 quotes no energy for
    /// it, so only time lands there); [`Component::Controller`] takes the
    /// static power over the makespan (zero in the paper's model —
    /// "practically zero leakage";
    /// [`TileGrid::charge_modelled`](crate::TileGrid::charge_modelled)
    /// prices a real sequencer). Time charges sum to the makespan exactly.
    ///
    /// The round count is explicit so a crossbar scaled with its problem
    /// (the executed DNA pass) prices its own rounds on this machine's
    /// per-op costs; [`charge_batched`](Self::charge_batched) is the
    /// `⌈n_ops / parallel_ops⌉` case.
    pub fn charge_rounds(&self, ledger: &mut CostLedger, phase: Phase, n_ops: u64, rounds: u64) {
        let n = n_ops as f64;
        let rounds = rounds as f64;
        let cost = self.op.cost(&self.tech);
        let makespan = self.op_latency() * rounds;
        let compute_time = cost.latency * rounds;
        ledger.charge(cost.component, phase, cost.energy * n, compute_time, n_ops);
        ledger.charge_time(Component::DramAccess, phase, makespan - compute_time);
        ledger.charge_energy(
            Component::Controller,
            phase,
            self.static_power() * makespan,
            0,
        );
    }

    /// Attributes a full batch of `n_ops` in-array operations over the
    /// crossbar's parallel slots: [`charge_rounds`](Self::charge_rounds)
    /// at `⌈n_ops / parallel_ops⌉` rounds.
    pub fn charge_batched(&self, ledger: &mut CostLedger, phase: Phase, n_ops: u64) {
        let rounds = n_ops.div_ceil(self.parallel_ops().max(1));
        self.charge_rounds(ledger, phase, n_ops, rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_machine_matches_table1() {
        let m = CimMachine::dna_paper();
        assert_eq!(m.devices, 153_600_000);
        // 13 devices per comparator → ~11.8 M parallel comparators.
        assert_eq!(m.parallel_ops(), 153_600_000 / 13);
        // Comparator latency 3.2 ns + 0.5 × 165 ns expected stream-in.
        assert!((m.op_latency().as_nano_seconds() - (3.2 + 82.5)).abs() < 1e-9);
        assert!((m.op_dynamic_energy().as_femto_joules() - 45.0).abs() < 1e-12);
    }

    #[test]
    fn math_machine_sizes_for_adders() {
        let m = CimMachine::math_paper(1_000_000, 32);
        assert_eq!(m.devices, 34_000_000);
        assert_eq!(m.parallel_ops(), 1_000_000);
        // 4N+5 = 133 steps at 200 ps = 26.6 ns + 2% miss × 165 ns.
        assert!((m.op_latency().as_nano_seconds() - (26.6 + 3.3)).abs() < 1e-9);
        // 8N fJ = 256 fJ.
        assert!((m.op_dynamic_energy().as_femto_joules() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn zero_static_power() {
        assert_eq!(CimMachine::dna_paper().static_power(), Power::ZERO);
    }

    #[test]
    fn area_comparison_with_conventional() {
        // The DNA crossbar (1.536e8 cells × 1e-4 µm² = 0.01536 mm²) is
        // four orders of magnitude smaller than the conventional
        // machine's caches alone (18 750 × 0.0092 mm² ≈ 172 mm²) — the
        // density argument of Section III.
        let cim = CimMachine::dna_paper();
        assert!((cim.area().as_square_milli_meters() - 0.01536).abs() < 1e-9);
        let conv = crate::conventional::ConventionalMachine::dna_paper();
        assert!(conv.area().as_square_milli_meters() > 100.0);
    }

    #[test]
    fn charge_batched_decomposes_the_batched_aggregate() {
        let m = CimMachine::dna_paper();
        let n = 10_000_000;
        let mut ledger = CostLedger::new();
        m.charge_batched(&mut ledger, Phase::Map, n);
        // The closed form: ⌈n / parallel⌉ rounds of the op latency, the
        // op energy per op plus leakage over the makespan.
        let rounds = n.div_ceil(m.parallel_ops());
        let time = m.op_latency() * rounds as f64;
        let energy = m.op_dynamic_energy() * n as f64 + m.static_power() * time;
        assert!((ledger.total_energy() / energy - 1.0).abs() < 1e-12);
        assert!((ledger.total_time() / time - 1.0).abs() < 1e-12);
        // The comparator's switching lands on ImplyStep, the expected
        // operand stream-in (time only — Table 1 quotes no energy for
        // it) on DramAccess.
        let imply = ledger.component_totals(Component::ImplyStep);
        assert!(imply.energy.get() > 0.0 && imply.time.get() > 0.0);
        let stream = ledger.component_totals(Component::DramAccess);
        assert!(stream.time.get() > 0.0);
        assert_eq!(stream.energy.get(), 0.0);
        // Zero controller overhead and zero leakage stay zero.
        assert!(ledger.component_totals(Component::Controller).is_zero());
        assert!(ledger.component_totals(Component::GateLeakage).is_zero());
    }

    #[test]
    fn comparator_cost_round_trip() {
        let tech = MemristorTech::table1_5nm();
        assert_eq!(CimOp::Comparator.cost(&tech).devices, 13);
        assert_eq!(CimOp::TcAdder { bits: 32 }.cost(&tech).devices, 34);
    }
}
