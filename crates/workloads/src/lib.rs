//! Workload generation for the paper's two evaluation applications.
//!
//! **Healthcare / DNA** (Section III.B.1): comparing sequencing reads
//! against a reference genome using "a sorted index of the reference DNA
//! that can be used to identify the location of matches and mismatches".
//! The paper's point is that the sorted index *destroys data locality* —
//! index probes hop randomly through a gigabyte-scale structure, causing
//! the 50% cache-hit ratio Table 1 assumes. This crate implements the
//! real pipeline — [`Genome`] generation, [`ReadSampler`] short-read
//! sampling with errors, a [`SortedKmerIndex`] with binary-search lookup —
//! and every lookup emits its memory references into an [`AccessSink`]
//! (a [`MemoryTrace`], a flat address buffer, or a cache model) so
//! `cim-sim`'s cache simulator can *measure* that hit ratio instead of
//! assuming it.
//!
//! **Mathematics** (Section III.B.2): bulk parallel additions —
//! [`AdditionWorkload`] generates the operand streams.
//!
//! [`DnaSpec::paper`] carries the paper-scale constants (3 GB reference,
//! 50× coverage, 100-character reads) and their closed-form operation
//! counts; the generators run at any scaled-down size with the same
//! access-pattern shape.
//!
//! Both applications implement the [`Workload`] trait — deterministic
//! generation, per-item execution by a `cim-sim` backend condensed into
//! an [`ExecutionDigest`], and independent [`Workload::verify`]
//! checking — so drivers handle them uniformly.

mod additions;
mod dna;
mod genome;
mod index;
mod reads;
mod trace;
mod workload;

pub use additions::{AdditionShard, AdditionWorkload, Shardable};
pub use dna::{DnaSpec, DnaWorkload};
pub use genome::{Genome, Nucleotide};
pub use index::{LookupOutcome, SortedKmerIndex};
pub use reads::{ReadSampler, ShortRead};
pub use trace::{Access, AccessSink, MemoryTrace};
pub use workload::{ExecutionDigest, ProjectionKind, Workload, WorkloadError};
