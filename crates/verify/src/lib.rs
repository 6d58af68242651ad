//! Static verification of IMPLY microprograms and the tensor IR.
//!
//! The paper's crossbar executes microcode under broadcast voltages
//! where one mis-sequenced step silently destroys state. The runtime
//! equivalence tests (scalar ≡ bit-sliced ≡ electrical) catch such bugs
//! per input vector; this crate catches whole *classes* of them for all
//! inputs, before anything touches the array:
//!
//! * [`dataflow`] — abstract interpretation of [`cim_logic::Program`]s
//!   over the `{Cleared, Zero, One, Unknown}` lattice: def/use chains,
//!   uninitialized antecedent reads, input-clobber (write-after-read)
//!   hazards under the 64-lane broadcast model, dead steps/registers,
//!   self-stabilizing no-ops, and constant outputs;
//! * [`optimize`] — a proven-equivalent dead-step/no-op elimination
//!   pass (property-tested: `optimize(p).evaluate ≡ p.evaluate`);
//! * [`mapping`] — legality of a program or graph against a
//!   [`mapping::FabricSpec`]: capacity and operand-column conflicts
//!   (via [`cim_compiler::Mapper::check`]), register-to-column fit,
//!   half-select exposure of the bias scheme vs. device thresholds, and
//!   tile-placement legality over a `cim_arch::TileGrid` with findings
//!   anchored to tile coordinates;
//! * [`cost_cert`] — closed-form step/latency/energy certificates the
//!   dynamic [`cim_units::CostLedger`] must match bit for bit, per-tile
//!   count conservation with the fabric ledger re-derived from the
//!   merged counts ([`certify_tiles`]), and dispatch-claim
//!   certification ([`certify_dispatch`]: a routing decision's
//!   predicted ledger must re-derive from its own counts, base prices,
//!   and calibration scales; [`certify_split`]: a split-dispatch
//!   decision's unit partition must conserve, each shard's ledger must
//!   re-derive from its own counts and prices, and the combined ledger
//!   must equal the shard merge — all cell-bitwise);
//! * [`wear_cert`] — static endurance analysis: a [`WearCertificate`]
//!   derives every register column's write-pulse and half-select
//!   disturb count per broadcast run in closed form, asserted bit for
//!   bit against the dynamic [`cim_logic::WearLedger`]; plus the
//!   `wear-hotspot` skew lint, the closed-form runs-to-rating-violation
//!   budget, and wear conservation through the tile
//!   ([`certify_tile_wear`]) and split-dispatch
//!   ([`certify_split_wear`]) layers;
//! * [`shipped`] / [`fixtures`] — the registry CI lints clean and the
//!   seeded defects it must reject.
//!
//! The error-severity subset (uninitialized reads, input clobbers) is
//! wired directly into [`cim_logic::Program::validate`], so it already
//! gates `ProgramBuilder::finish` and `CompiledProgram::compile`; the
//! full analysis runs through [`verify_program`] and the `cimlint` CLI
//! (`cimlint --deny-warnings` is the CI gate).
//!
//! ```
//! use cim_logic::{Program, Step};
//! use cim_verify::verify_program;
//!
//! // Reads r1, which no step defines: rejected with step and register.
//! let broken = Program {
//!     steps: vec![Step::Imply(1, 2)],
//!     registers: 3,
//!     inputs: vec![0],
//!     outputs: vec![2],
//! };
//! let report = verify_program("broken", &broken);
//! assert!(report.has_code("uninitialized-read"));
//! ```

pub mod cost_cert;
pub mod dataflow;
pub mod diagnostics;
pub mod fixtures;
pub mod mapping;
pub mod optimize;
pub mod shipped;
pub mod wear_cert;

pub use cost_cert::{
    certify_dispatch, certify_plan, certify_split, certify_tiles, CostCertificate, DispatchClaim,
    SplitClaim, TileClaim,
};
pub use dataflow::{abstract_states, analyze_program, live_steps, AbstractBit, DefUse};
pub use diagnostics::{Diagnostic, Report, Severity};
pub use fixtures::{seeded_defects, Fixture};
pub use mapping::{
    check_fabric, check_graph_mapping, check_placement, check_program_mapping, FabricSpec,
};
pub use optimize::{eliminate_dead_steps, removable_steps};
pub use shipped::{
    shipped_graphs, shipped_programs, shipped_splits, ShippedGraph, ShippedProgram, ShippedSplit,
};
pub use wear_cert::{
    certify_split_wear, certify_tile_wear, SplitWearClaim, TileWearClaim, WearCertificate,
    DEFAULT_WEAR_SKEW_THRESHOLD,
};

/// Full static analysis of one microprogram (alias of
/// [`dataflow::analyze_program`], the crate's front door).
pub fn verify_program(name: &str, program: &cim_logic::Program) -> Report {
    dataflow::analyze_program(name, program)
}
