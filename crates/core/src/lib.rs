//! High-level experiment API for the CIM reproduction.
//!
//! This crate is the front door a downstream user drives: the generic
//! [`Experiment`] wires a `cim_workloads::Workload` through both
//! `cim_sim::ExecutionBackend` machines, verifies the runs, and renders
//! paper-style comparison tables.
//!
//! ```
//! use cim_core::AdditionsExperiment;
//!
//! // A scaled-down version of the paper's "10^6 parallel additions".
//! let report = AdditionsExperiment::scaled(10_000, 42).run()?;
//! let (edp, eff, perf) = report.improvements();
//! assert!(edp > 1.0 && eff > 1.0 && perf > 1.0); // CIM wins everywhere
//! println!("{}", report.to_markdown());
//! # Ok::<(), cim_core::ExperimentError>(())
//! ```
//!
//! Two result flavours exist for every experiment:
//!
//! * **physical** — our documented aggregation (DESIGN.md §4) over the
//!   Table-1 machine models, with workloads actually executed;
//! * **as-published** — [`paper_mode`] reconstructs the formulas behind
//!   the paper's printed Table 2 where they could be decoded (8 of 12
//!   cells, several exactly; see EXPERIMENTS.md).

mod experiment;
pub mod paper_mode;
mod report;

pub use experiment::{
    AdditionsExperiment, DnaExperiment, Experiment, ExperimentError, HitRatioMode,
};
pub use report::{ComparisonReport, Table2};

/// Convenience re-exports of the most used types across the stack.
pub mod prelude {
    pub use crate::{
        AdditionsExperiment, ComparisonReport, DnaExperiment, Experiment, ExperimentError,
        HitRatioMode, Table2,
    };
    pub use cim_arch::{CimMachine, ConventionalMachine, Metrics, MetricsError, RunReport};
    pub use cim_crossbar::{BiasScheme, Crossbar, ResistiveCell};
    pub use cim_device::{Crs, DeviceParams, Memristor, ThresholdDevice, TwoTerminal};
    pub use cim_logic::{ImplyAdder, ImplyEngine, Program, ProgramBuilder};
    pub use cim_sim::{
        BatchPolicy, CimExecutor, ConventionalExecutor, ExecutionBackend, RunOutcome, SimError,
    };
    pub use cim_units::{Area, Component, CostLedger, Energy, Phase, Power, Time, Voltage};
    pub use cim_workloads::{AdditionWorkload, DnaSpec, DnaWorkload, Genome, Workload};
}
