//! Pricing: one [`UnitCosts`] table per [`TileGrid`].
//!
//! The fabric accounts in exact op counts (`cim_units::CountLedger`);
//! this module fixes what one count of each cell *costs*. Prices are
//! pure functions of the grid — Table-1 primitive costs, the
//! interconnect's hop terms, the controller's per-step energy — and are
//! dyadically quantized by `UnitCosts::set`, which is what makes
//! per-tile ledgers sum bit-for-bit to the fabric ledger.
//!
//! Time prices are **throughput-amortized makespan shares**: a tile
//! executes `tile_devices / op devices` primitives concurrently, so one
//! primitive's share of the makespan is `latency / slots`; likewise the
//! H-tree's `modeled_tiles` links carry words concurrently, so one
//! hop's share is `hop_latency / modeled_tiles`. Summed over all counts
//! these shares reconstruct the modelled makespan of a saturated fabric.

use cim_arch::{CimOp, TileGrid};
use cim_units::{Component, Phase, UnitCosts};

use crate::query::ADD_BITS;

/// Builds the grid's price table.
pub fn unit_costs(grid: &TileGrid) -> UnitCosts {
    let mut prices = UnitCosts::new();
    let comparator = CimOp::Comparator.cost(&grid.tech);
    let adder = CimOp::TcAdder { bits: ADD_BITS }.cost(&grid.tech);
    let comparator_slots = (grid.tile_devices / comparator.devices as u64).max(1);
    let adder_slots = (grid.tile_devices / adder.devices as u64).max(1);
    let hop_share = grid.interconnect.hop_latency / grid.modeled_tiles.max(1) as f64;
    for phase in Phase::ALL {
        prices.set(
            comparator.component,
            phase,
            comparator.energy,
            comparator.latency / comparator_slots as f64,
        );
        prices.set(
            adder.component,
            phase,
            adder.energy,
            adder.latency / adder_slots as f64,
        );
        prices.set(
            Component::Controller,
            phase,
            grid.controller.step_energy(),
            cim_units::Time::ZERO,
        );
        prices.set(
            Component::Interconnect,
            phase,
            grid.interconnect.hop_energy,
            hop_share,
        );
    }
    prices
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_units::{dyadic, Energy};

    #[test]
    fn prices_are_grid_pure_and_tile_count_invariant() {
        // Same technology, different executed grids: identical prices —
        // the executed tile count is a host concern, not a cost term.
        let a = unit_costs(&TileGrid::paper_dna(1, 1));
        let b = unit_costs(&TileGrid::paper_dna(2, 2));
        assert_eq!(a, b);
    }

    #[test]
    fn prices_carry_the_table1_constants() {
        let prices = unit_costs(&TileGrid::paper_dna(2, 2));
        // 45 fJ comparator, 256 fJ adder, 50 fJ hop — dyadically rounded.
        assert_eq!(
            prices.unit_energy(Component::ImplyStep, Phase::Map),
            Energy::new(dyadic(45e-15))
        );
        assert_eq!(
            prices.unit_energy(Component::CrossbarWrite, Phase::Add),
            Energy::new(dyadic(256e-15))
        );
        assert_eq!(
            prices.unit_energy(Component::Interconnect, Phase::Index),
            Energy::new(dyadic(50e-15))
        );
        // The 2000-gate sequencer prices a broadcast step.
        assert!(prices.unit_energy(Component::Controller, Phase::Map).get() > 0.0);
        // Amortized compute time: 3.2 ns over 2^20/13 slots.
        let share = prices.unit_time(Component::ImplyStep, Phase::Map).get();
        let expect = 3.2e-9 / ((1u64 << 20) / 13) as f64;
        assert!((share / expect - 1.0).abs() < 1e-6, "share {share}");
    }
}
