//! The electrical plane: per-tile sentinel arrays solved as a batch.
//!
//! The fabric's ledgers price tile work from Table-1 constants, but the
//! constants only hold while every tile's crossbar still *reads* — the
//! sneak-path margin of Section IV.B is a per-array electrical fact, not
//! a bookkeeping one. [`ElectricalPlane`] keeps one sentinel array per
//! executed tile (1S1R junction, worst-case all-LRS background, the
//! selected cell at the electrically farthest corner) and re-validates
//! all of them with **batch-of-solves** concurrency: each tile's nodal
//! analysis is an independent solve, so [`ElectricalPlane::sense_all`]
//! dispatches one solve per pool worker via [`cim_crossbar::solve_batch`]
//! — the parallelism axis that matches the hardware — instead of
//! serializing the fabric on a single electrical backend.
//!
//! Determinism: tile sentinels are pure functions of the tile index, and
//! the batch driver returns results in tile order, so the margins are
//! bit-identical at every thread count.

use cim_arch::TileGrid;
use cim_crossbar::{solve_batch, BiasScheme, Crossbar, SelectorCell};
use cim_device::DeviceParams;
use cim_units::Current;
use serde::{Deserialize, Serialize};

/// One tile's electrical health check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileMargin {
    /// Executed tile index (row-major over the grid).
    pub tile: u64,
    /// Sense current with the sentinel cell storing 1.
    pub i_one: Current,
    /// Sense current with the sentinel cell storing 0 (sneak-inflated).
    pub i_zero: Current,
    /// Normalised read margin `(i_one − i_zero) / i_one`.
    pub margin: f64,
}

/// Read-margin floor below which a tile is considered unreadable
/// (DESIGN.md §3: practical sense amplifiers need roughly 10%).
pub const MARGIN_FLOOR: f64 = 0.1;

/// One sentinel crossbar per executed tile, batch-validated.
#[derive(Debug)]
pub struct ElectricalPlane {
    arrays: Vec<Crossbar<SelectorCell>>,
    side: usize,
}

impl ElectricalPlane {
    /// Builds the plane for `grid`: one `side × side` 1S1R sentinel per
    /// executed tile, all-LRS worst-case background, with each tile's
    /// sentinel row salted by the tile index so the solved bias points
    /// differ per tile (distinct work, as on real hardware).
    ///
    /// # Panics
    ///
    /// Panics if `side < 2` (no meaningful sneak-path geometry).
    pub fn paper(grid: &TileGrid, side: usize) -> Self {
        assert!(side >= 2, "sentinel arrays need at least a 2x2 geometry");
        let params = DeviceParams::table1_cim();
        let arrays = (0..grid.tiles())
            .map(|tile| {
                let mut array = Crossbar::homogeneous(side, side, || {
                    SelectorCell::new(params.clone(), 10.0, params.v_set * 0.5)
                });
                array.fill(|_, _| true);
                let (row, col) = Self::sentinel_cell(tile, side);
                array.program(row, col, true);
                array
            })
            .collect();
        Self { arrays, side }
    }

    /// The tile's sentinel coordinate: the far column of a tile-salted
    /// row, so every tile solves a distinct (but deterministic) access.
    fn sentinel_cell(tile: u64, side: usize) -> (usize, usize) {
        ((tile as usize) % side, side - 1)
    }

    /// Number of tile sentinels (one per executed tile).
    pub fn tiles(&self) -> usize {
        self.arrays.len()
    }

    /// Sentinel array side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Re-reads every tile's sentinel twice (stored 1, then 0, then
    /// restores the 1) and reports the margins in tile order,
    /// dispatching the independent solves over `threads` pool workers
    /// (`0` = all cores). Bit-identical at every thread count.
    pub fn sense_all(&mut self, threads: usize) -> Vec<TileMargin> {
        let side = self.side;
        solve_batch(threads, &mut self.arrays, move |tile, array| {
            let (row, col) = Self::sentinel_cell(tile as u64, side);
            array.program(row, col, true);
            let one = array.read(row, col, BiasScheme::HalfV);
            array.program(row, col, false);
            let zero = array.read(row, col, BiasScheme::HalfV);
            array.program(row, col, true);
            let i_one = one.sense_current.get().abs();
            let i_zero = zero.sense_current.get().abs();
            TileMargin {
                tile: tile as u64,
                i_one: Current::new(i_one),
                i_zero: Current::new(i_zero),
                margin: (i_one - i_zero) / i_one.max(1e-30),
            }
        })
    }

    /// Batch-validates the whole plane: `Ok` with the margins when every
    /// tile clears [`MARGIN_FLOOR`], otherwise `Err` naming the worst
    /// offender.
    pub fn validate(&mut self, threads: usize) -> Result<Vec<TileMargin>, String> {
        let margins = self.sense_all(threads);
        match margins
            .iter()
            .filter(|m| m.margin < MARGIN_FLOOR)
            .min_by(|a, b| a.margin.total_cmp(&b.margin))
        {
            Some(worst) => Err(format!(
                "tile {} read margin {:.3} below the {MARGIN_FLOOR} floor",
                worst.tile, worst.margin
            )),
            None => Ok(margins),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_are_bit_identical_at_every_thread_count() {
        let grid = TileGrid::paper_dna(2, 3);
        let reference = ElectricalPlane::paper(&grid, 8).sense_all(1);
        for threads in [2usize, 4, 0] {
            let margins = ElectricalPlane::paper(&grid, 8).sense_all(threads);
            assert_eq!(margins.len(), reference.len());
            for (got, want) in margins.iter().zip(&reference) {
                assert_eq!(got.tile, want.tile);
                assert_eq!(
                    got.i_one.get().to_bits(),
                    want.i_one.get().to_bits(),
                    "tile {} i_one diverged at {threads} threads",
                    got.tile
                );
                assert_eq!(got.i_zero.get().to_bits(), want.i_zero.get().to_bits());
                assert_eq!(got.margin.to_bits(), want.margin.to_bits());
            }
        }
    }

    #[test]
    fn the_paper_plane_validates_clean() {
        let grid = TileGrid::paper_dna(2, 2);
        let mut plane = ElectricalPlane::paper(&grid, 8);
        let margins = plane.validate(0).expect("1S1R sentinels stay readable");
        assert_eq!(margins.len(), 4);
        assert!(margins.iter().all(|m| m.margin >= MARGIN_FLOOR));
    }

    #[test]
    fn repeated_sensing_is_stable() {
        // The sense cycle restores the sentinel bit, so the plane can be
        // re-validated forever without drifting. Successive cycles
        // warm-start the iterative solver from different states, so the
        // margins agree to the solver's accuracy, not bit-for-bit.
        let grid = TileGrid::paper_dna(1, 2);
        let mut plane = ElectricalPlane::paper(&grid, 8);
        let first = plane.sense_all(2);
        let second = plane.sense_all(2);
        for (a, b) in first.iter().zip(&second) {
            assert!(
                (a.margin - b.margin).abs() < 1e-6,
                "tile {} margin drifted: {} vs {}",
                a.tile,
                a.margin,
                b.margin
            );
        }
    }
}
