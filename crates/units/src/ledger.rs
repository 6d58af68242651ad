//! Hierarchical cost attribution: every joule and picosecond of a run,
//! tagged by hardware component and pipeline phase.
//!
//! The [`CostLedger`] answers both *how much* a run cost and *where it
//! went*. Executors and machine models charge typed entries
//! `(Component, Phase) → (energy, time, count)` instead of summing ad
//! hoc, and the ledger is a run's one cost record: `RunReport` in
//! `cim-arch` stores it and reads its totals from
//! [`CostLedger::total_energy`] and [`CostLedger::total_time`], so
//! there is no second copy of the totals that could drift from the
//! attribution.
//!
//! Determinism: the ledger is a dense table over the fixed
//! [`Component`] × [`Phase`] taxonomy, so iteration, merging
//! ([`CostLedger::merge`]) and totalling ([`CostLedger::total_energy`])
//! all walk one canonical slot order. Merging per-unit sub-ledgers (a
//! fabric's tiles, a split's shards) in unit order therefore reproduces
//! the serial accumulation bit-for-bit at any thread count.

use serde::{Deserialize, Serialize};

use crate::quantity::{Energy, Time};

/// The fixed component taxonomy: which piece of hardware consumed the
/// cost.
///
/// The conventional machine spends in the first five; the CIM machine in
/// the last five. A fixed, closed set (rather than free-form strings)
/// keeps ledgers mergeable, comparable across machines, and iterable in
/// one canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Component {
    /// CMOS functional-unit switching (comparators, CLA adders).
    GateDynamic,
    /// CMOS gate leakage integrated over the makespan.
    GateLeakage,
    /// Cache hit traffic (SRAM access dynamic energy, hit cycles).
    CacheAccess,
    /// Cache leakage integrated over the makespan.
    CacheStatic,
    /// Off-chip traffic: cache-miss DRAM accesses, or operand stream-in
    /// to a crossbar whose working set is not fully resident.
    DramAccess,
    /// Memristor programming pulses (CRS logic steps, stored-bit writes).
    CrossbarWrite,
    /// Memristor sensing (CRS destructive reads, LUT evaluations).
    CrossbarRead,
    /// IMPLY stateful-logic steps (the in-array comparator microprogram).
    ImplyStep,
    /// CMOS sequencer/decoder overhead per broadcast step, plus its
    /// leakage (the only part of a CIM machine that leaks).
    Controller,
    /// Operand movement across the tile interconnect (H-tree hops).
    Interconnect,
}

impl Component {
    /// Every component, in the canonical ledger order.
    pub const ALL: [Component; 10] = [
        Component::GateDynamic,
        Component::GateLeakage,
        Component::CacheAccess,
        Component::CacheStatic,
        Component::DramAccess,
        Component::CrossbarWrite,
        Component::CrossbarRead,
        Component::ImplyStep,
        Component::Controller,
        Component::Interconnect,
    ];

    /// Stable snake_case label for tables and CSV.
    pub fn label(self) -> &'static str {
        match self {
            Component::GateDynamic => "gate_dynamic",
            Component::GateLeakage => "gate_leakage",
            Component::CacheAccess => "cache_access",
            Component::CacheStatic => "cache_static",
            Component::DramAccess => "dram_access",
            Component::CrossbarWrite => "crossbar_write",
            Component::CrossbarRead => "crossbar_read",
            Component::ImplyStep => "imply_step",
            Component::Controller => "controller",
            Component::Interconnect => "interconnect",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl Default for Component {
    /// The dominant primitive of memristive stateful logic; a neutral
    /// tag for zero-cost accumulators.
    fn default() -> Self {
        Component::CrossbarWrite
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The pipeline phase a cost was incurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phase {
    /// Input synthesis (genome generation, operand streams).
    Generate,
    /// Index construction and index-probe traffic.
    Index,
    /// The mapping hot loop (DNA read comparisons).
    Map,
    /// The arithmetic hot loop (bulk additions).
    Add,
    /// Result verification against ground truth.
    Verify,
}

impl Phase {
    /// Every phase, in the canonical ledger order.
    pub const ALL: [Phase; 5] = [
        Phase::Generate,
        Phase::Index,
        Phase::Map,
        Phase::Add,
        Phase::Verify,
    ];

    /// Stable snake_case label for tables and CSV.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Index => "index",
            Phase::Map => "map",
            Phase::Add => "add",
            Phase::Verify => "verify",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One ledger cell: the accumulated cost of one `(Component, Phase)`
/// pair.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostEntry {
    /// Energy attributed to this cell.
    pub energy: Energy,
    /// Wall-clock time attributed to this cell (shares of the makespan,
    /// not serial busy time — shares across cells sum to the run's total
    /// time).
    pub time: Time,
    /// Primitive operations counted against this cell.
    pub count: u64,
}

impl CostEntry {
    /// True when nothing has been charged to this cell.
    pub fn is_zero(&self) -> bool {
        self.energy == Energy::ZERO && self.time == Time::ZERO && self.count == 0
    }
}

/// A borrowed view of one non-trivial ledger cell, yielded by
/// [`CostLedger::entries`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// The hardware component charged.
    pub component: Component,
    /// The pipeline phase the charge fell in.
    pub phase: Phase,
    /// Energy attributed.
    pub energy: Energy,
    /// Time (makespan share) attributed.
    pub time: Time,
    /// Primitive operations counted.
    pub count: u64,
}

const CELLS: usize = Component::ALL.len() * Phase::ALL.len();

/// A dense, deterministic cost ledger over the full
/// [`Component`] × [`Phase`] taxonomy.
///
/// All mutation goes through [`charge`](Self::charge) (or a
/// [`PhaseScope`]); totals and iteration always walk the canonical slot
/// order (component-major, phase-minor), so two ledgers built from the
/// same charges in the same order are bit-identical — including their
/// non-associative `f64` energy/time sums.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostLedger {
    cells: Vec<CostEntry>,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self {
            cells: vec![CostEntry::default(); CELLS],
        }
    }

    fn slot(component: Component, phase: Phase) -> usize {
        component.index() * Phase::ALL.len() + phase.index()
    }

    /// Adds `energy`, `time`, and `count` to the `(component, phase)`
    /// cell.
    pub fn charge(
        &mut self,
        component: Component,
        phase: Phase,
        energy: Energy,
        time: Time,
        count: u64,
    ) {
        let cell = &mut self.cells[Self::slot(component, phase)];
        cell.energy += energy;
        cell.time += time;
        cell.count += count;
    }

    /// Charges energy and a count with no time share (time is attributed
    /// separately, as makespan splits).
    pub fn charge_energy(
        &mut self,
        component: Component,
        phase: Phase,
        energy: Energy,
        count: u64,
    ) {
        self.charge(component, phase, energy, Time::ZERO, count);
    }

    /// Charges a time share with no energy or count.
    pub fn charge_time(&mut self, component: Component, phase: Phase, time: Time) {
        self.charge(component, phase, Energy::ZERO, time, 0);
    }

    /// Opens a scope that charges everything into one phase.
    pub fn phase(&mut self, phase: Phase) -> PhaseScope<'_> {
        PhaseScope {
            ledger: self,
            phase,
        }
    }

    /// The accumulated cost of one `(component, phase)` cell.
    pub fn entry(&self, component: Component, phase: Phase) -> CostEntry {
        self.cells[Self::slot(component, phase)]
    }

    /// All non-zero cells, in canonical (component-major) order.
    pub fn entries(&self) -> impl Iterator<Item = LedgerEntry> + '_ {
        Component::ALL.iter().flat_map(move |&component| {
            Phase::ALL.iter().filter_map(move |&phase| {
                let cell = self.entry(component, phase);
                (!cell.is_zero()).then_some(LedgerEntry {
                    component,
                    phase,
                    energy: cell.energy,
                    time: cell.time,
                    count: cell.count,
                })
            })
        })
    }

    /// True if nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(CostEntry::is_zero)
    }

    /// Element-wise merge in canonical slot order.
    ///
    /// This is the per-unit reduction: sub-ledgers merged in unit order
    /// reproduce the serial charge sequence bit-for-bit, because each
    /// cell's additions happen in the same order either way.
    pub fn merge(&mut self, other: &CostLedger) {
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            mine.energy += theirs.energy;
            mine.time += theirs.time;
            mine.count += theirs.count;
        }
    }

    /// Total energy: canonical-order sum over every cell.
    ///
    /// This is *the* definition of a run's total energy:
    /// `RunReport::total_energy` in `cim-arch` reads it, and every
    /// Table-2 metric is computed from it.
    pub fn total_energy(&self) -> Energy {
        self.cells
            .iter()
            .fold(Energy::ZERO, |acc, cell| acc + cell.energy)
    }

    /// Total time: canonical-order sum over every cell's makespan share.
    pub fn total_time(&self) -> Time {
        self.cells
            .iter()
            .fold(Time::ZERO, |acc, cell| acc + cell.time)
    }

    /// Total primitive-operation count across all cells.
    pub fn total_count(&self) -> u64 {
        self.cells.iter().map(|cell| cell.count).sum()
    }

    /// One component's cost summed over all phases (canonical order).
    pub fn component_totals(&self, component: Component) -> CostEntry {
        Phase::ALL
            .iter()
            .fold(CostEntry::default(), |mut acc, &phase| {
                let cell = self.entry(component, phase);
                acc.energy += cell.energy;
                acc.time += cell.time;
                acc.count += cell.count;
                acc
            })
    }

    /// One phase's cost summed over all components (canonical order).
    pub fn phase_totals(&self, phase: Phase) -> CostEntry {
        Component::ALL
            .iter()
            .fold(CostEntry::default(), |mut acc, &component| {
                let cell = self.entry(component, phase);
                acc.energy += cell.energy;
                acc.time += cell.time;
                acc.count += cell.count;
                acc
            })
    }
}

impl Default for CostLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Display for CostLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<16} {:<10} {:>12} {:>12} {:>12}",
            "component", "phase", "energy", "time", "count"
        )?;
        for entry in self.entries() {
            writeln!(
                f,
                "{:<16} {:<10} {:>12} {:>12} {:>12}",
                entry.component, entry.phase, entry.energy, entry.time, entry.count
            )?;
        }
        Ok(())
    }
}

/// A charging scope bound to one [`Phase`] — the "span" API for code
/// that attributes a whole pipeline stage.
#[derive(Debug)]
pub struct PhaseScope<'a> {
    ledger: &'a mut CostLedger,
    phase: Phase,
}

impl PhaseScope<'_> {
    /// Charges into this scope's phase.
    pub fn charge(&mut self, component: Component, energy: Energy, time: Time, count: u64) {
        self.ledger
            .charge(component, self.phase, energy, time, count);
    }

    /// Charges energy and count only.
    pub fn charge_energy(&mut self, component: Component, energy: Energy, count: u64) {
        self.ledger
            .charge_energy(component, self.phase, energy, count);
    }

    /// Charges a time share only.
    pub fn charge_time(&mut self, component: Component, time: Time) {
        self.ledger.charge_time(component, self.phase, time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_totals_are_zero() {
        let ledger = CostLedger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.total_energy(), Energy::ZERO);
        assert_eq!(ledger.total_time(), Time::ZERO);
        assert_eq!(ledger.total_count(), 0);
        assert_eq!(ledger.entries().count(), 0);
    }

    #[test]
    fn charges_accumulate_per_cell() {
        let mut ledger = CostLedger::new();
        ledger.charge(
            Component::CacheAccess,
            Phase::Map,
            Energy::from_pico_joules(10.0),
            Time::from_nano_seconds(1.0),
            1,
        );
        ledger.charge(
            Component::CacheAccess,
            Phase::Map,
            Energy::from_pico_joules(10.0),
            Time::from_nano_seconds(1.0),
            1,
        );
        ledger.charge_energy(
            Component::GateDynamic,
            Phase::Map,
            Energy::from_femto_joules(1.0),
            2,
        );
        let cache = ledger.entry(Component::CacheAccess, Phase::Map);
        assert_eq!(cache.count, 2);
        assert!((cache.energy.as_pico_joules() - 20.0).abs() < 1e-12);
        assert_eq!(ledger.total_count(), 4);
        assert_eq!(ledger.entries().count(), 2);
    }

    #[test]
    fn merge_in_slot_order_matches_serial_accumulation() {
        // Non-associative f64 charges: splitting into two sub-ledgers and
        // merging must reproduce the serial ledger bit-for-bit.
        let charges: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut serial = CostLedger::new();
        for &e in &charges {
            serial.charge_energy(Component::ImplyStep, Phase::Map, Energy::new(e), 1);
        }
        let (left, right) = charges.split_at(400);
        let mut merged = CostLedger::new();
        for part in [left, right] {
            let mut sub = CostLedger::new();
            for &e in part {
                sub.charge_energy(Component::ImplyStep, Phase::Map, Energy::new(e), 1);
            }
            merged.merge(&sub);
        }
        assert_eq!(
            merged.total_energy().get().to_bits(),
            serial.total_energy().get().to_bits()
        );
        assert_eq!(merged, serial);
    }

    #[test]
    fn component_and_phase_totals_partition_the_ledger() {
        let mut ledger = CostLedger::new();
        ledger.charge(
            Component::CrossbarWrite,
            Phase::Add,
            Energy::from_femto_joules(8.0),
            Time::from_pico_seconds(200.0),
            8,
        );
        ledger.charge(
            Component::CrossbarWrite,
            Phase::Verify,
            Energy::from_femto_joules(1.0),
            Time::ZERO,
            1,
        );
        ledger.charge(
            Component::Controller,
            Phase::Add,
            Energy::from_femto_joules(2.0),
            Time::ZERO,
            0,
        );
        let writes = ledger.component_totals(Component::CrossbarWrite);
        assert_eq!(writes.count, 9);
        assert!((writes.energy.as_femto_joules() - 9.0).abs() < 1e-12);
        let add = ledger.phase_totals(Phase::Add);
        assert!((add.energy.as_femto_joules() - 10.0).abs() < 1e-12);
        // Component sums and phase sums both partition the grand totals.
        let by_component: f64 = Component::ALL
            .iter()
            .map(|&c| ledger.component_totals(c).energy.get())
            .sum();
        assert!((by_component - ledger.total_energy().get()).abs() < 1e-30);
    }

    #[test]
    fn phase_scope_charges_into_its_phase() {
        let mut ledger = CostLedger::new();
        {
            let mut map = ledger.phase(Phase::Map);
            map.charge_energy(Component::GateDynamic, Energy::from_femto_joules(3.0), 3);
            map.charge_time(Component::CacheAccess, Time::from_nano_seconds(2.0));
        }
        assert_eq!(ledger.entry(Component::GateDynamic, Phase::Map).count, 3);
        assert_eq!(
            ledger.entry(Component::CacheAccess, Phase::Map).time,
            Time::from_nano_seconds(2.0)
        );
        assert_eq!(ledger.entry(Component::GateDynamic, Phase::Add).count, 0);
    }

    #[test]
    fn labels_are_stable_snake_case() {
        for component in Component::ALL {
            assert!(component
                .label()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        for phase in Phase::ALL {
            assert!(!phase.label().is_empty());
        }
        assert_eq!(Component::DramAccess.to_string(), "dram_access");
        assert_eq!(Phase::Map.to_string(), "map");
    }

    #[test]
    fn display_renders_non_zero_entries() {
        let mut ledger = CostLedger::new();
        ledger.charge_energy(
            Component::Interconnect,
            Phase::Add,
            Energy::from_femto_joules(50.0),
            1,
        );
        let rendered = ledger.to_string();
        assert!(rendered.contains("interconnect"));
        assert!(rendered.contains("add"));
        assert!(!rendered.contains("imply_step"));
    }
}
