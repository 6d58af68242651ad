//! The [`ExecutionBackend`] seam between machines and workloads.
//!
//! A backend is a machine model that can execute a [`Workload`]'s items
//! for real and summarise the run: `ConventionalExecutor` and
//! `CimExecutor` both implement `ExecutionBackend<DnaWorkload>` and
//! `ExecutionBackend<AdditionWorkload>`, so the generic
//! `cim-core::Experiment<W>` driver handles all four (workload ×
//! machine) combinations through one code path.
//!
//! Contracts every implementation upholds:
//!
//! * **Determinism** — `run` is a pure function of `(self, workload)`;
//!   in particular the [`RunOutcome`] is bit-identical whatever the
//!   executor's `BatchPolicy` thread count (see `crate::batch`).
//! * **Typed failure** — impossible sizes and semantic divergence are
//!   [`SimError`]s, never panics.
//! * **Honest digests** — `RunOutcome::digest` reports what was actually
//!   executed so [`Workload::verify`](cim_workloads::Workload::verify) can hold it against ground truth.
//! * **One cost record** — a run's or a projection's cost is one
//!   [`CostLedger`]; its totals and the Table-2 metrics are read from
//!   that ledger, never stored beside it.

use cim_arch::RunReport;
use cim_units::{
    Area, CostLedger, CountLedger, DispatchObjective, Energy, ScaleTable, Time, UnitCosts,
};
use cim_workloads::{ExecutionDigest, Workload};
use serde::{Deserialize, Serialize};

/// Everything one backend produces for one workload run: the
/// component/phase [`CostLedger`], the machine area, the functional
/// [`ExecutionDigest`], and machine-specific measurements. The ledger is
/// the run's one cost record; [`report`](Self::report) reads the
/// executed-scale [`RunReport`] from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Which machine produced this (`"conventional"` / `"cim"`).
    pub machine: &'static str,
    /// Machine area at the executed scale.
    pub area: Area,
    /// Component/phase attribution of the run's energy and time.
    pub ledger: CostLedger,
    /// Functional summary for [`Workload::verify`](cim_workloads::Workload::verify).
    pub digest: ExecutionDigest,
    /// Cache hit ratio measured on the run's real memory trace, when the
    /// backend models a cache (conventional DNA runs).
    pub measured_hit_ratio: Option<f64>,
    /// Hit ratio of the sorted-index probes alone, when applicable.
    pub index_hit_ratio: Option<f64>,
    /// Human-readable provenance notes, in significance order.
    pub notes: Vec<String>,
}

impl RunOutcome {
    /// The run at the executed scale: the digest's operations on this
    /// outcome's area, costed by its ledger.
    pub fn report(&self) -> RunReport {
        RunReport {
            operations: self.digest.operations,
            area: self.area,
            ledger: self.ledger.clone(),
        }
    }
}

/// A certified, pre-execution cost prediction for one workload on one
/// machine.
///
/// An estimate is **not** a free-form number: it is a pair of exact
/// primitive-operation counts ([`CountLedger`]) and dyadic unit prices
/// ([`UnitCosts`]), exactly the currency the fabric accounts in. The
/// predicted [`CostLedger`] is therefore *re-derivable bit-for-bit* as
/// `prices.evaluate(&counts)` — which is what
/// `cim_verify::certify_dispatch` checks when it audits a dispatch
/// decision, and what lets the online calibrator rescale prices in
/// count-space without breaking the conservation contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// The machine this estimate models (`"cim"` / `"conventional"` /
    /// `"cim-fabric"`).
    pub machine: &'static str,
    /// Predicted primitive-operation counts per component × phase cell.
    pub counts: CountLedger,
    /// Dyadic unit prices for those counts.
    pub prices: UnitCosts,
    /// True when the counts are an exact certificate of the counts the
    /// run will charge (CIM closed forms, per-op host arithmetic, fabric
    /// projections); false when they are a statistical prior (the
    /// conventional DNA trace depends on sampled read content) that the
    /// calibrator is expected to refine.
    pub certified: bool,
}

impl CostEstimate {
    /// The predicted ledger: `prices.evaluate(&counts)`, bit-for-bit.
    pub fn ledger(&self) -> CostLedger {
        self.prices.evaluate(&self.counts)
    }

    /// Predicted total energy.
    pub fn energy(&self) -> Energy {
        self.ledger().total_energy()
    }

    /// Predicted makespan.
    pub fn time(&self) -> Time {
        self.ledger().total_time()
    }

    /// Scores the prediction under `objective` (lower is better).
    pub fn score(&self, objective: DispatchObjective) -> f64 {
        let ledger = self.ledger();
        objective.score(ledger.total_energy(), ledger.total_time())
    }

    /// Scores the prediction with calibrated prices: the scale factors
    /// are applied to the unit prices (staying dyadic) before
    /// evaluation, so a calibrated score is still a pure function of
    /// exact counts and dyadic prices.
    pub fn calibrated_score(&self, objective: DispatchObjective, scales: &ScaleTable) -> f64 {
        let ledger = scales.rescale(&self.prices).evaluate(&self.counts);
        objective.score(ledger.total_energy(), ledger.total_time())
    }
}

/// Why a backend could not produce a [`RunOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The workload exceeds what this backend can execute in memory;
    /// use the projection for paper scale.
    SpecTooLarge {
        /// The refusing machine.
        machine: &'static str,
        /// Requested problem size (reference characters / operations).
        requested: u64,
        /// The backend's executable cap.
        cap: u64,
    },
    /// The machine's primitive semantics disagreed with ground truth
    /// mid-run (a modelling bug — fail loudly, with evidence).
    Diverged {
        /// The diverging machine.
        machine: &'static str,
        /// What disagreed, with enough context to reproduce.
        detail: String,
    },
    /// A configuration that can only produce degenerate traffic (zero
    /// queue depth, zero tenant quota, an empty tile set, …) or that the
    /// machine cannot execute (an adder width outside `1..=64`) was
    /// rejected up front instead of being served.
    InvalidConfig {
        /// The machine refusing the configuration.
        machine: &'static str,
        /// Which knob is degenerate, and why.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::SpecTooLarge {
                machine,
                requested,
                cap,
            } => write!(
                f,
                "{machine}: spec of {requested} exceeds the executable cap \
                 ({cap}); executable specs are capped — project instead"
            ),
            SimError::Diverged { machine, detail } => {
                write!(
                    f,
                    "{machine}: execution diverged from ground truth: {detail}"
                )
            }
            SimError::InvalidConfig { machine, detail } => {
                write!(f, "{machine}: invalid configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Rejects adder widths the executors cannot run: the IMPLY adder and
/// the operand masks support `1..=64` bits. Checked before any operand
/// is generated.
pub(crate) fn check_adder_width(machine: &'static str, bits: u32) -> Result<(), SimError> {
    if (1..=64).contains(&bits) {
        Ok(())
    } else {
        Err(SimError::InvalidConfig {
            machine,
            detail: format!("adder width {bits} is outside 1..=64 bits"),
        })
    }
}

/// A machine model that can execute workloads of type `W`.
pub trait ExecutionBackend<W: Workload> {
    /// Short machine label used in errors and reports.
    fn machine(&self) -> &'static str;

    /// Executes the workload per-item through this machine's primitive
    /// semantics and summarises the run.
    fn run(&self, workload: &W) -> Result<RunOutcome, SimError>;

    /// Projects the workload to paper scale via the closed-form counts,
    /// with the conventional cache modelled at `hit_ratio` (backends
    /// without a cache ignore it), attributing every joule and picosecond
    /// into the report's [`CostLedger`].
    fn project(&self, workload: &W, hit_ratio: f64) -> RunReport;

    /// Predicts what executing this workload would cost, **without**
    /// executing it, as certified count-space data (see
    /// [`CostEstimate`]). Estimates are total functions: an oversized
    /// spec estimates at the executable (clamped) scale rather than
    /// failing, mirroring what [`run`](Self::run) would execute.
    fn estimate(&self, workload: &W) -> CostEstimate;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_machine_and_evidence() {
        let too_large = SimError::SpecTooLarge {
            machine: "conventional",
            requested: 3_000_000_000,
            cap: 1 << 28,
        };
        let rendered = too_large.to_string();
        assert!(rendered.contains("conventional") && rendered.contains("capped"));

        let diverged = SimError::Diverged {
            machine: "cim",
            detail: "comparator read 0 at position 17".into(),
        };
        assert!(diverged.to_string().contains("position 17"));

        let invalid = SimError::InvalidConfig {
            machine: "cim-fabric",
            detail: "queue_depth must be nonzero".into(),
        };
        let rendered = invalid.to_string();
        assert!(rendered.contains("cim-fabric") && rendered.contains("queue_depth"));
    }

    #[test]
    fn estimate_ledger_is_rederivable_from_counts_and_prices() {
        use cim_units::{Component, Phase};
        let mut counts = CountLedger::new();
        counts.charge(Component::ImplyStep, Phase::Map, 1000);
        let mut prices = UnitCosts::new();
        prices.set(
            Component::ImplyStep,
            Phase::Map,
            Energy::from_femto_joules(45.0),
            Time::from_pico_seconds(0.27),
        );
        let estimate = CostEstimate {
            machine: "cim",
            counts,
            prices,
            certified: true,
        };
        // The certification contract, bitwise.
        assert_eq!(
            estimate.ledger(),
            estimate.prices.evaluate(&estimate.counts)
        );
        assert!(estimate.energy() > Energy::ZERO);
        assert!(
            estimate.score(DispatchObjective::EnergyDelay)
                > estimate.score(DispatchObjective::Energy) * 0.0
        );
        // Identity calibration is a bitwise no-op on the score.
        let identity = ScaleTable::identity();
        for objective in DispatchObjective::ALL {
            assert_eq!(
                estimate.score(objective).to_bits(),
                estimate.calibrated_score(objective, &identity).to_bits()
            );
        }
    }
}
