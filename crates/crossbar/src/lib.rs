//! Passive crossbar array simulation.
//!
//! The CIM architecture stores *and computes* in "a very dense crossbar
//! array where memristors are injected at each junction" (paper Fig. 2/3).
//! The catch with passive arrays is the **sneak path**: unselected
//! low-resistive cells form parasitic current paths that corrupt reads and
//! burn power, limiting the maximum array size. The paper (Section IV.B)
//! surveys three mitigation classes, all of which this crate implements:
//!
//! 1. **Selector devices** — [`SelectorCell`] (1S1R, a non-linear selector
//!    in series) and [`TransistorCell`] (1T1R, a gated access transistor);
//! 2. **Switching-device modification** — [`CrsCell`] (complementary
//!    resistive switch, inherently high-resistive in both storage states);
//! 3. **Bias schemes** — [`BiasScheme`]: grounded-unselected, V/2 and V/3
//!    biasing of half-selected lines.
//!
//! Two electrical solvers back the array operations: a **lumped-wire**
//! Gauss-Seidel solver (exact when line resistance is negligible) and a
//! **distributed** per-crosspoint solver that captures IR drop along the
//! nano-wires. [`read_margin_study`] builds the read-margin-vs-size study
//! that regenerates the design space behind the paper's Fig. 3.
//!
//! ```
//! use cim_crossbar::{BiasScheme, Crossbar, ResistiveCell};
//! use cim_device::DeviceParams;
//!
//! let params = DeviceParams::table1_cim();
//! let mut array = Crossbar::homogeneous(8, 8, || ResistiveCell::new(params.clone()));
//! array.program(3, 5, true);
//! let read = array.read(3, 5, BiasScheme::HalfV);
//! assert!(read.bit);
//! ```

mod analysis;
mod batch;
mod bias;
mod cam;
mod cell;
mod crossbar;
mod geometry;
mod mvm;
mod solver;
mod stats;

pub use analysis::{
    max_readable_size, read_margin_study, read_margin_study_with, MarginPoint, WorstCasePattern,
};
pub use batch::solve_batch;
pub use bias::{BiasScheme, BiasVoltages};
pub use cam::{Cam, SearchOutcome};
pub use cell::{Cell, CrsCell, JunctionKind, ResistiveCell, SelectorCell, TransistorCell};
pub use crossbar::{CellOps, Crossbar, ReadResult, WriteOutcome};
pub use geometry::Geometry;
pub use mvm::AnalogMvm;
pub use solver::{DistributedSolver, LumpedSolver, SolvedRead, SolverConfig, SolverWorkspace};
pub use stats::ArrayStats;
