//! The tile grid: the one tile model, and the fabric's physical
//! substrate.
//!
//! [`TileGrid`] is a grid of independent crossbar tiles, each with its
//! own device budget, plus a [`Placement`] map recording which resident
//! working set and operand columns live on which tile. Placement
//! legality mirrors the `Mapper::check` model from `cim-compiler`
//! (capacity per tile, no two operands sharing columns), re-expressed
//! here so the architecture layer stays below the compiler in the
//! dependency order.
//!
//! **Overheads.** The paper's CIM estimates assume free control ("The
//! communication and control from/to the crossbar can be realized using
//! CMOS technology", then costed at zero). A grid prices what a tiled
//! array really pays: operands hop through an H-tree ([`Interconnect`])
//! and a CMOS sequencer ([`Controller`]) burns energy on every broadcast
//! step and leaks on every tile.
//!
//! **Modelled vs executed scale.** The paper's DNA machine is 18 750
//! clusters; the fabric executes on a handful of tiles as host-side
//! dispatch shards. Routing costs are therefore priced from the *fixed*
//! [`TileGrid::modeled_tiles`] (H-tree depth over the paper's cluster
//! count), never from the executed tile count — that keeps every ledger
//! bit-identical no matter how many tiles the run was sharded over, the
//! same executed-scale-vs-paper-projection split the workloads use. Two
//! consumers read the modelled scale. The fabric's price table
//! (`cim_fabric::model::unit_costs`) amortises latency into throughput
//! shares of a saturated fabric; [`TileGrid::charge_modelled`] charges a
//! whole batch in `⌈n / slots⌉` rounds over the modelled machine, which
//! is how Ablation A5 (`table2 --ablate-overhead`) asks how much overhead
//! the Table-2 story absorbs.

use cim_units::{Area, Component, CostLedger, Energy, Phase, Power, Time};
use serde::{Deserialize, Serialize};

use crate::cim::{CimMachine, CimOp, MemristorTech};
use crate::finfet::FinfetTech;

/// H-tree interconnect parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Interconnect {
    /// Latency of one tree hop.
    pub hop_latency: Time,
    /// Energy to move one operand word across one hop.
    pub hop_energy: Energy,
    /// Fraction of operations whose operands are already tile-local
    /// (the compiler's data-placement quality).
    pub locality: f64,
}

impl Interconnect {
    /// Free interconnect — the paper's implicit assumption.
    pub fn ideal() -> Self {
        Self {
            hop_latency: Time::ZERO,
            hop_energy: Energy::ZERO,
            locality: 1.0,
        }
    }

    /// A realistic on-chip H-tree at 22 nm: ~100 ps and ~50 fJ per
    /// 32-bit word per hop.
    pub fn realistic() -> Self {
        Self {
            hop_latency: Time::from_pico_seconds(100.0),
            hop_energy: Energy::from_femto_joules(50.0),
            locality: 0.9,
        }
    }
}

/// CMOS sequencer overhead per broadcast step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Controller {
    /// Gates in the per-tile sequencer/decoder.
    pub gates_per_tile: u32,
    /// The CMOS technology the sequencer is built in.
    pub tech: FinfetTech,
}

impl Controller {
    /// Free control — the paper's implicit assumption.
    pub fn ideal() -> Self {
        Self {
            gates_per_tile: 0,
            tech: FinfetTech::table1_22nm(),
        }
    }

    /// A small per-tile sequencer (~2 000 gates: decoder + pulse timing).
    pub fn realistic() -> Self {
        Self {
            gates_per_tile: 2_000,
            tech: FinfetTech::table1_22nm(),
        }
    }

    /// Dynamic energy of issuing one broadcast step on one tile.
    pub fn step_energy(&self) -> Energy {
        self.tech.gate_energy() * f64::from(self.gates_per_tile)
    }

    /// Leakage of one tile's sequencer.
    pub fn leakage(&self) -> Power {
        self.tech.gate_leakage * f64::from(self.gates_per_tile)
    }

    /// Sequencer area per tile.
    pub fn area(&self) -> Area {
        self.tech.gate_area * f64::from(self.gates_per_tile)
    }
}

/// Position of one tile in the grid, row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileCoord {
    /// Row index, from zero.
    pub row: u32,
    /// Column index, from zero.
    pub col: u32,
}

impl std::fmt::Display for TileCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// A grid of independent crossbar tiles sharing one technology and one
/// interconnect/controller model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileGrid {
    /// Grid rows.
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Device budget of one tile.
    pub tile_devices: u64,
    /// The in-array operation tiles execute.
    pub op: CimOp,
    /// Device technology.
    pub tech: MemristorTech,
    /// Operand-movement model (H-tree hops).
    pub interconnect: Interconnect,
    /// Per-tile sequencer model.
    pub controller: Controller,
    /// Cluster count of the machine being *modelled* — routing depth is
    /// priced from this fixed value, not from `rows × cols`, so ledgers
    /// do not depend on how many tiles the host actually executed.
    pub modeled_tiles: u64,
}

impl TileGrid {
    /// The paper's DNA fabric: Table-1 5 nm devices, comparator tiles,
    /// realistic interconnect/controller, 18 750 modelled clusters —
    /// executed as a `rows × cols` grid of 1 Mb dispatch shards.
    pub fn paper_dna(rows: u32, cols: u32) -> Self {
        let monolith = CimMachine::dna_paper();
        Self {
            rows,
            cols,
            tile_devices: 1 << 20,
            op: monolith.op,
            tech: monolith.tech,
            interconnect: Interconnect::realistic(),
            controller: Controller::realistic(),
            modeled_tiles: 18_750,
        }
    }

    /// The paper's mathematics crossbar for `n_ops` `bits`-wide adds,
    /// re-expressed as 1 Mb tiles with realistic overheads: it models the
    /// monolith's device count in whole tiles (33 at 10⁶ 32-bit adds) and
    /// executes as one. Ablation A5 overrides the two overhead models.
    ///
    /// ```
    /// use cim_arch::{Controller, Interconnect, TileGrid};
    ///
    /// let real = TileGrid::paper_math(1_000_000, 32);
    /// assert_eq!(real.modeled_tiles, 33);
    /// let ideal = TileGrid {
    ///     interconnect: Interconnect::ideal(),
    ///     controller: Controller::ideal(),
    ///     ..real.clone()
    /// };
    /// assert_eq!(ideal.energy_overhead_factor(), 1.0);
    /// assert!(real.energy_overhead_factor() > 1.0);
    /// ```
    pub fn paper_math(n_ops: u64, bits: u32) -> Self {
        let monolith = CimMachine::math_paper(n_ops, bits);
        let tile_devices = 1 << 20;
        Self {
            rows: 1,
            cols: 1,
            tile_devices,
            op: monolith.op,
            tech: monolith.tech,
            interconnect: Interconnect::realistic(),
            controller: Controller::realistic(),
            modeled_tiles: monolith.devices.div_ceil(tile_devices),
        }
    }

    /// Number of executed tiles.
    pub fn tiles(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }

    /// Total devices across the executed grid.
    pub fn devices(&self) -> u64 {
        self.tiles() * self.tile_devices
    }

    /// Coordinate of the tile at row-major `index`.
    ///
    /// # Panics
    /// If `index` is outside the grid.
    pub fn coord_of(&self, index: u64) -> TileCoord {
        assert!(index < self.tiles(), "tile index {index} out of grid");
        TileCoord {
            row: u32::try_from(index / u64::from(self.cols)).expect("grid bound"),
            col: u32::try_from(index % u64::from(self.cols)).expect("grid bound"),
        }
    }

    /// Row-major index of a coordinate.
    pub fn index_of(&self, coord: TileCoord) -> u64 {
        u64::from(coord.row) * u64::from(self.cols) + u64::from(coord.col)
    }

    /// H-tree hops for one non-local operand at *modelled* scale: the
    /// root round trip over `modeled_tiles` leaves. Deliberately
    /// independent of the executed tile count.
    pub fn route_hops(&self) -> u64 {
        let tiles = self.modeled_tiles.max(2) as f64;
        let hops = tiles.log2().ceil();
        assert!(hops.is_finite() && hops >= 0.0, "hop depth must be finite");
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            hops as u64
        }
    }

    /// Energy to move one operand word from a remote tile: hop energy ×
    /// modelled hop depth.
    pub fn route_energy(&self) -> Energy {
        self.interconnect.hop_energy * self.route_hops() as f64
    }

    /// The tile that owns `key` under deterministic modular sharding.
    /// A pure function of `(key, tiles)` so dispatch is reproducible.
    pub fn home_tile(&self, key: u64) -> u64 {
        key % self.tiles().max(1)
    }

    /// Simultaneous in-array operations on the modelled machine: its
    /// whole device count over the op's devices, not a per-tile floor.
    fn modelled_parallel_ops(&self) -> u64 {
        self.tile_devices * self.modeled_tiles / self.op.cost(&self.tech).devices as u64
    }

    /// Per-op latency at modelled scale: compute steps plus the expected
    /// remote-operand movement.
    fn modelled_op_latency(&self) -> Time {
        let compute = self.op.cost(&self.tech).latency;
        let movement = self.interconnect.hop_latency
            * self.route_hops() as f64
            * (1.0 - self.interconnect.locality);
        compute + movement
    }

    /// Per-op dynamic energy at modelled scale: in-array switching, one
    /// controller broadcast per program step, and the expected
    /// remote-operand movement.
    fn modelled_op_energy(&self) -> Energy {
        let cost = self.op.cost(&self.tech);
        let control = self.controller.step_energy() * cost.steps as f64;
        let movement = self.route_energy() * (1.0 - self.interconnect.locality);
        cost.energy + control + movement
    }

    /// Sequencer leakage of every modelled tile.
    fn modelled_static_power(&self) -> Power {
        self.controller.leakage() * self.modeled_tiles as f64
    }

    /// Area of the modelled machine: crossbars plus sequencers.
    pub fn modelled_area(&self) -> Area {
        self.tech.cell_area * (self.tile_devices * self.modeled_tiles) as f64
            + self.controller.area() * self.modeled_tiles as f64
    }

    /// The overhead multiplier on per-op energy relative to the op's own
    /// switching energy (the paper's free-control machine).
    pub fn energy_overhead_factor(&self) -> f64 {
        self.modelled_op_energy().get() / self.op.cost(&self.tech).energy.get()
    }

    /// Attributes a batch of `n_ops` operations run on the modelled
    /// machine in `⌈n_ops / slots⌉` rounds: the op's own component
    /// (in-array switching, compute share of the makespan),
    /// [`Component::Interconnect`] (expected operand movement — the
    /// makespan residual plus hop energy), and [`Component::Controller`]
    /// (sequencer broadcast steps plus leakage over the makespan).
    pub fn charge_modelled(&self, ledger: &mut CostLedger, phase: Phase, n_ops: u64) {
        let n = n_ops as f64;
        let cost = self.op.cost(&self.tech);
        let rounds = n_ops.div_ceil(self.modelled_parallel_ops().max(1)) as f64;
        let makespan = self.modelled_op_latency() * rounds;
        let compute_time = cost.latency * rounds;
        let movement_energy = self.route_energy() * (1.0 - self.interconnect.locality) * n;
        let control_energy = self.controller.step_energy() * cost.steps as f64 * n
            + self.modelled_static_power() * makespan;

        ledger.charge(cost.component, phase, cost.energy * n, compute_time, n_ops);
        ledger.charge(
            Component::Interconnect,
            phase,
            movement_energy,
            makespan - compute_time,
            0,
        );
        ledger.charge_energy(Component::Controller, phase, control_energy, 0);
    }
}

/// A span of crossbar columns `[column, column + width)` holding one
/// operand on a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperandSpan {
    /// First column of the span.
    pub column: u32,
    /// Columns occupied.
    pub width: u32,
}

impl OperandSpan {
    /// One-past-the-last column.
    pub fn end(&self) -> u32 {
        self.column + self.width
    }

    /// True when two spans share at least one column.
    pub fn overlaps(&self, other: &OperandSpan) -> bool {
        self.column < other.end() && other.column < self.end()
    }
}

impl std::fmt::Display for OperandSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cols[{}..{})", self.column, self.end())
    }
}

/// What one tile hosts: its resident device demand and the operand
/// columns programs on it read through.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileAssignment {
    /// The tile.
    pub tile: TileCoord,
    /// Devices the resident working set requires on this tile.
    pub devices_needed: u64,
    /// Operand column spans; no two may overlap (two operands through
    /// the same columns produce garbage, the `OperandColumnConflict`
    /// failure mode of `Mapper::check`).
    pub operands: Vec<OperandSpan>,
}

/// Why a placement is illegal, mirroring `cim_compiler::MapError` at
/// tile granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// An assignment names a tile outside the grid.
    UnknownTile {
        /// The out-of-grid coordinate.
        tile: TileCoord,
    },
    /// Two assignments claim the same tile.
    DuplicateTile {
        /// The doubly-claimed coordinate.
        tile: TileCoord,
    },
    /// A tile's resident working set exceeds its device budget.
    TileCapacity {
        /// The overcommitted tile.
        tile: TileCoord,
        /// Devices the assignment needs.
        needed: u64,
        /// Devices the tile has.
        capacity: u64,
    },
    /// Two operands on one tile map to overlapping columns.
    OperandOverlap {
        /// The conflicted tile.
        tile: TileCoord,
        /// First span.
        a: OperandSpan,
        /// Second span.
        b: OperandSpan,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::UnknownTile { tile } => {
                write!(f, "tile {tile} is outside the grid")
            }
            PlaceError::DuplicateTile { tile } => {
                write!(f, "tile {tile} is assigned twice")
            }
            PlaceError::TileCapacity {
                tile,
                needed,
                capacity,
            } => write!(f, "tile {tile} needs {needed} devices but has {capacity}"),
            PlaceError::OperandOverlap { tile, a, b } => {
                write!(f, "tile {tile}: operand {a} overlaps operand {b}")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// The placement map: which working set and operand columns live on
/// which tile of a [`TileGrid`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Per-tile assignments.
    pub assignments: Vec<TileAssignment>,
}

impl Placement {
    /// A uniform placement: every tile hosts the same working set
    /// (`devices_needed` devices) and two disjoint operand spans of
    /// `operand_width` columns each — the layout the DNA fabric uses
    /// (reference window in one span, query in the other).
    pub fn uniform(grid: &TileGrid, devices_needed: u64, operand_width: u32) -> Self {
        let assignments = (0..grid.tiles())
            .map(|index| TileAssignment {
                tile: grid.coord_of(index),
                devices_needed,
                operands: vec![
                    OperandSpan {
                        column: 0,
                        width: operand_width,
                    },
                    OperandSpan {
                        column: operand_width,
                        width: operand_width,
                    },
                ],
            })
            .collect();
        Self { assignments }
    }

    /// Checks legality against the grid: every tile exists and is
    /// claimed at most once, no tile is over capacity, and no two
    /// operand spans on one tile overlap. First violation wins.
    pub fn check(&self, grid: &TileGrid) -> Result<(), PlaceError> {
        let mut seen = std::collections::BTreeSet::new();
        for assignment in &self.assignments {
            let tile = assignment.tile;
            if tile.row >= grid.rows || tile.col >= grid.cols {
                return Err(PlaceError::UnknownTile { tile });
            }
            if !seen.insert(tile) {
                return Err(PlaceError::DuplicateTile { tile });
            }
            if assignment.devices_needed > grid.tile_devices {
                return Err(PlaceError::TileCapacity {
                    tile,
                    needed: assignment.devices_needed,
                    capacity: grid.tile_devices,
                });
            }
            for (i, a) in assignment.operands.iter().enumerate() {
                for b in &assignment.operands[i + 1..] {
                    if a.overlaps(b) {
                        return Err(PlaceError::OperandOverlap { tile, a: *a, b: *b });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_indexing_round_trips() {
        let grid = TileGrid::paper_dna(2, 3);
        assert_eq!(grid.tiles(), 6);
        for index in 0..grid.tiles() {
            let coord = grid.coord_of(index);
            assert_eq!(grid.index_of(coord), index);
        }
        assert_eq!(grid.coord_of(5), TileCoord { row: 1, col: 2 });
        assert_eq!(grid.coord_of(5).to_string(), "(1,2)");
    }

    #[test]
    fn route_hops_price_modelled_scale_not_executed_scale() {
        // ceil(log2 18750) = 15 regardless of the executed grid shape.
        for (r, c) in [(1, 1), (1, 2), (2, 2), (4, 4)] {
            let grid = TileGrid::paper_dna(r, c);
            assert_eq!(grid.route_hops(), 15, "{r}x{c}");
            assert_eq!(grid.route_energy(), grid.interconnect.hop_energy * 15.0);
        }
    }

    #[test]
    fn hops_grow_logarithmically() {
        for (modeled_tiles, hops) in [(4, 2), (1024, 10)] {
            let grid = TileGrid {
                modeled_tiles,
                ..TileGrid::paper_dna(1, 1)
            };
            assert_eq!(grid.route_hops(), hops, "{modeled_tiles} tiles");
        }
    }

    #[test]
    fn ideal_grid_matches_the_monolith() {
        let grid = TileGrid {
            interconnect: Interconnect::ideal(),
            controller: Controller::ideal(),
            ..TileGrid::paper_math(1_000_000, 32)
        };
        let monolith = CimMachine::math_paper(1_000_000, 32);
        assert_eq!(grid.modelled_op_energy(), monolith.op_dynamic_energy());
        assert_eq!(grid.modelled_static_power(), Power::ZERO);
        // Whole tiles round the device count up by less than one tile of
        // 34-device adders.
        let extra = grid.modelled_parallel_ops() - monolith.parallel_ops();
        assert!(extra * 34 < grid.tile_devices, "{extra} extra slots");
    }

    #[test]
    fn realistic_overheads_cost_but_do_not_kill_the_story() {
        let factor = TileGrid::paper_math(1_000_000, 32).energy_overhead_factor();
        // The 2 000-gate sequencer adds ~2.45 aJ × 133 steps ≈ 0.65 pJ on
        // a 256 fJ op: a ~3–4× energy hit, which still leaves ≥ 2 orders
        // of magnitude of the ~4 000× Table-2 efficiency gap.
        assert!((1.5..10.0).contains(&factor), "overhead factor {factor}");
    }

    #[test]
    fn controller_leakage_scales_with_modelled_tiles() {
        let grid = TileGrid::paper_dna(1, 1);
        let expect = Controller::realistic().leakage() * grid.modeled_tiles as f64;
        assert!((grid.modelled_static_power() / expect - 1.0).abs() < 1e-12);
        assert!(grid.modelled_static_power().get() > 0.0);
        // The executed shape does not enter.
        assert_eq!(
            TileGrid::paper_dna(4, 4).modelled_static_power(),
            grid.modelled_static_power()
        );
    }

    #[test]
    fn locality_controls_movement_costs() {
        let with_locality = |locality| TileGrid {
            interconnect: Interconnect {
                locality,
                ..Interconnect::realistic()
            },
            controller: Controller::ideal(),
            ..TileGrid::paper_dna(1, 1)
        };
        let (local, remote) = (with_locality(1.0), with_locality(0.0));
        assert!(remote.modelled_op_latency() > local.modelled_op_latency());
        assert!(remote.modelled_op_energy() > local.modelled_op_energy());
        // Perfect locality removes movement entirely.
        let monolith = CimMachine::dna_paper();
        assert_eq!(local.modelled_op_energy(), monolith.op_dynamic_energy());
    }

    #[test]
    fn charge_modelled_decomposes_the_batched_aggregate() {
        let grid = TileGrid::paper_math(1_000_000, 32);
        let n = 1_000_000;
        let mut ledger = CostLedger::new();
        grid.charge_modelled(&mut ledger, Phase::Add, n);
        // The closed form: ⌈n / parallel⌉ rounds of the op latency, the
        // op energy per op plus controller leakage over the makespan.
        let rounds = n.div_ceil(grid.modelled_parallel_ops());
        let time = grid.modelled_op_latency() * rounds as f64;
        let energy = grid.modelled_op_energy() * n as f64 + grid.modelled_static_power() * time;
        assert!((ledger.total_energy() / energy - 1.0).abs() < 1e-12);
        assert!((ledger.total_time() / time - 1.0).abs() < 1e-12);
        // The CRS adder charges CrossbarWrite; realistic overheads make
        // the interconnect and controller visible in the breakdown.
        assert!(!ledger.component_totals(Component::CrossbarWrite).is_zero());
        assert!(!ledger.component_totals(Component::Interconnect).is_zero());
        assert!(!ledger.component_totals(Component::Controller).is_zero());
    }

    #[test]
    fn home_tile_is_deterministic_modular_sharding() {
        let grid = TileGrid::paper_dna(2, 2);
        for key in 0..100 {
            assert_eq!(grid.home_tile(key), key % 4);
            assert!(grid.home_tile(key) < grid.tiles());
        }
    }

    #[test]
    fn uniform_placement_is_legal_on_its_grid() {
        let grid = TileGrid::paper_dna(2, 2);
        let placement = Placement::uniform(&grid, grid.tile_devices / 2, 64);
        assert_eq!(placement.assignments.len(), 4);
        assert_eq!(placement.check(&grid), Ok(()));
    }

    #[test]
    fn capacity_violations_carry_the_tile_coordinate() {
        let grid = TileGrid::paper_dna(2, 2);
        let placement = Placement::uniform(&grid, grid.tile_devices + 1, 64);
        match placement.check(&grid) {
            Err(PlaceError::TileCapacity {
                tile,
                needed,
                capacity,
            }) => {
                assert_eq!(tile, TileCoord { row: 0, col: 0 });
                assert_eq!(needed, grid.tile_devices + 1);
                assert_eq!(capacity, grid.tile_devices);
            }
            other => panic!("expected TileCapacity, got {other:?}"),
        }
    }

    #[test]
    fn operand_overlap_and_bad_tiles_are_rejected() {
        let grid = TileGrid::paper_dna(1, 2);
        let span = OperandSpan {
            column: 10,
            width: 32,
        };
        let clash = OperandSpan {
            column: 41,
            width: 8,
        };
        assert!(span.overlaps(&clash));
        let placement = Placement {
            assignments: vec![TileAssignment {
                tile: TileCoord { row: 0, col: 1 },
                devices_needed: 1,
                operands: vec![span, clash],
            }],
        };
        assert!(matches!(
            placement.check(&grid),
            Err(PlaceError::OperandOverlap { tile, .. }) if tile == TileCoord { row: 0, col: 1 }
        ));

        let outside = Placement {
            assignments: vec![TileAssignment {
                tile: TileCoord { row: 3, col: 0 },
                devices_needed: 1,
                operands: vec![],
            }],
        };
        assert!(matches!(
            outside.check(&grid),
            Err(PlaceError::UnknownTile { .. })
        ));

        let twice = Placement {
            assignments: vec![
                TileAssignment {
                    tile: TileCoord { row: 0, col: 0 },
                    devices_needed: 1,
                    operands: vec![],
                },
                TileAssignment {
                    tile: TileCoord { row: 0, col: 0 },
                    devices_needed: 1,
                    operands: vec![],
                },
            ],
        };
        assert!(matches!(
            twice.check(&grid),
            Err(PlaceError::DuplicateTile { .. })
        ));
    }

    #[test]
    fn errors_render_their_evidence() {
        let err = PlaceError::TileCapacity {
            tile: TileCoord { row: 1, col: 2 },
            needed: 100,
            capacity: 64,
        };
        let text = err.to_string();
        assert!(text.contains("(1,2)") && text.contains("100") && text.contains("64"));
        let overlap = PlaceError::OperandOverlap {
            tile: TileCoord { row: 0, col: 0 },
            a: OperandSpan {
                column: 0,
                width: 8,
            },
            b: OperandSpan {
                column: 4,
                width: 8,
            },
        };
        assert!(overlap.to_string().contains("cols[0..8)"));
    }
}
