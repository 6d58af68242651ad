//! Architecture-level analytical models of the two machines compared in
//! Table 2 of the DATE'15 CIM paper.
//!
//! Everything here is a *named constant from the paper's Table 1* plus a
//! documented aggregation (DESIGN.md §4). The two machine descriptions —
//! [`ConventionalMachine`] (22 nm FinFET multi-core with per-cluster 8 kB
//! caches) and [`CimMachine`] (5 nm memristor crossbar with IMPLY/CRS
//! logic) — expose primitive latencies/energies that `cim-sim`'s
//! executors consume; [`Metrics`] converts finished runs into the three
//! Table-2 figures of merit:
//!
//! 1. energy-delay product per operation,
//! 2. computing efficiency (operations per joule),
//! 3. performance per area (operations per second per mm²).
//!
//! [`WorkingSetLocation`] models Fig. 1's taxonomy — where the working
//! set lives, classes (a) through (e) — as an access-cost model, so the
//! figure's qualitative story ("move the working set into the core")
//! becomes a computable sweep.

mod cache;
mod cim;
mod conventional;
mod finfet;
mod grid;
mod metrics;
mod taxonomy;

pub use cache::CacheSpec;
pub use cim::{CimMachine, CimOp, MemristorTech};
pub use conventional::{ByteComparator, ClaAdder, ConventionalMachine, FunctionalUnit};
pub use finfet::FinfetTech;
pub use grid::{
    Controller, Interconnect, OperandSpan, PlaceError, Placement, TileAssignment, TileCoord,
    TileGrid,
};
pub use metrics::{Metrics, MetricsError, RunReport};
pub use taxonomy::{working_set_sweep, LocationCost, WorkingSetLocation};
