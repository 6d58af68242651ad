//! Execution engines for the Table-2 evaluation.
//!
//! This crate turns workloads (`cim-workloads`) plus machine models
//! (`cim-arch`) into [`cim_arch::RunReport`]s. The central seam is the
//! [`ExecutionBackend`] trait: both executors implement it for both
//! workloads, so drivers (`cim-core`'s `Experiment<W>`) handle every
//! (workload × machine) combination through one code path.
//!
//! * [`CacheSim`] — a set-associative LRU cache driven by the workloads'
//!   memory traces, so the 50% / 98% hit ratios Table 1 *assumes* are
//!   *measured* here;
//! * [`makespan`] — list scheduling of data-dependent task durations
//!   over parallel workers;
//! * [`ConventionalExecutor`] — runs the DNA pipeline (for real, at a
//!   scaled size) and the additions workload on the FinFET multi-core
//!   model, measuring per-task durations through the cache simulator;
//! * [`CimExecutor`] — runs the same workloads on the CIM machine model,
//!   with in-crossbar comparators/adders (verified against the
//!   functional semantics) and massive parallelism;
//! * [`BatchPolicy`] / [`par_map`] / [`par_fold_slices`] /
//!   [`par_fold_stream`] — the deterministic parallel batch driver
//!   behind both executors' per-item hot loops: results are
//!   bit-identical at any thread count.
//!
//! Both executors can also *project* a scaled run to the paper's full
//! problem size using the closed-form operation counts and the measured
//! hit ratio (DESIGN.md §4 documents the aggregation).

mod backend;
mod batch;
mod cache;
mod cim_exec;
mod conventional;
mod event;
mod hierarchy;

pub use backend::{CostEstimate, ExecutionBackend, RunOutcome, SimError};
pub use batch::{
    par_fold_slices, par_fold_stream, par_map, par_units, BatchPolicy, CHUNK_SIZE, STREAM_BLOCK,
};
pub use cache::{CacheConfig, CacheSim};
pub use cim_exec::CimExecutor;
pub use conventional::ConventionalExecutor;
pub use event::makespan;
pub use hierarchy::{HierarchyAccess, MemoryHierarchy, MemoryLevel};
