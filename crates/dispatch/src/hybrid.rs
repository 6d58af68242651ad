//! The hybrid executor: one `ExecutionBackend` wrapping both machines,
//! routing each workload to whichever one certified cost prefers.
//!
//! Routing is a pure function of the two [`CostEstimate`]s, the
//! [`DispatchObjective`], and the calibrator's current scale tables —
//! never of thread counts, wall clocks, or prior runs (in frozen
//! mode). Estimates are count-space certificates and run outcomes are
//! bit-identical at any thread count (the `cim-sim` batch contract),
//! so the recorded [`DispatchTrace`] is too.

use cim_arch::RunReport;
use cim_sim::{CostEstimate, ExecutionBackend, RunOutcome, SimError};
use cim_units::DispatchObjective;
use cim_workloads::Workload;
use serde::{Deserialize, Serialize};

use crate::calibrate::Calibrator;
use crate::trace::{DispatchDecision, DispatchTrace, Route};

/// Routes workloads across a CIM backend and a conventional backend by
/// certified cost under one objective.
///
/// The two type parameters are the wrapped machines; the struct
/// implements [`ExecutionBackend<W>`] for every workload type both
/// machines implement it for, so a `HybridExecutor<CimExecutor,
/// ConventionalExecutor>` slots in anywhere either machine does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridExecutor<C, H> {
    /// The computation-in-memory machine.
    pub cim: C,
    /// The conventional machine.
    pub host: H,
    objective: DispatchObjective,
    calibrator: Calibrator,
    trace: DispatchTrace,
}

impl<C, H> HybridExecutor<C, H> {
    /// Machine label used in errors and reports.
    pub const MACHINE: &'static str = "hybrid";

    /// A hybrid over the two machines with an online calibrator.
    pub fn new(cim: C, host: H, objective: DispatchObjective) -> Self {
        Self::with_calibrator(cim, host, objective, Calibrator::online())
    }

    /// A hybrid with a frozen calibrator: decisions are reproducible
    /// run-for-run because no observation ever moves the scales.
    pub fn frozen(cim: C, host: H, objective: DispatchObjective) -> Self {
        Self::with_calibrator(cim, host, objective, Calibrator::frozen())
    }

    /// A hybrid with an explicit calibrator (e.g. one carried over
    /// from a previous session).
    pub fn with_calibrator(
        cim: C,
        host: H,
        objective: DispatchObjective,
        calibrator: Calibrator,
    ) -> Self {
        Self {
            cim,
            host,
            objective,
            calibrator,
            trace: DispatchTrace::new(),
        }
    }

    /// The objective decisions are scored under.
    pub fn objective(&self) -> DispatchObjective {
        self.objective
    }

    /// The calibrator (scales and error history).
    pub fn calibrator(&self) -> &Calibrator {
        &self.calibrator
    }

    /// Every decision made through [`dispatch`](Self::dispatch), in
    /// order.
    pub fn trace(&self) -> &DispatchTrace {
        &self.trace
    }

    /// Both machines' calibrated predictions and the route they imply.
    /// Ties go to the CIM machine (the architecture under evaluation).
    fn choose<W>(&self, workload: &W) -> Choice
    where
        W: Workload,
        C: ExecutionBackend<W>,
        H: ExecutionBackend<W>,
    {
        let cim_estimate = self.cim.estimate(workload);
        let host_estimate = self.host.estimate(workload);
        let cim_score = cim_estimate.calibrated_score(self.objective, self.calibrator.cim_scales());
        let host_score =
            host_estimate.calibrated_score(self.objective, self.calibrator.host_scales());
        let route = if cim_score <= host_score {
            Route::Cim
        } else {
            Route::Host
        };
        Choice {
            route,
            cim_estimate,
            host_estimate,
            cim_score,
            host_score,
        }
    }

    /// Routes and runs one workload, records the decision in the
    /// [`DispatchTrace`], and feeds the observed ledger back to the
    /// calibrator. This is the stateful front door;
    /// [`ExecutionBackend::run`] routes identically but records
    /// nothing (it takes `&self`).
    pub fn dispatch<W>(&mut self, workload: &W) -> Result<RunOutcome, SimError>
    where
        W: Workload,
        C: ExecutionBackend<W>,
        H: ExecutionBackend<W>,
    {
        let Choice {
            route,
            cim_estimate,
            host_estimate,
            cim_score,
            host_score,
        } = self.choose(workload);
        let outcome = match route {
            Route::Cim => self.cim.run(workload)?,
            Route::Host => self.host.run(workload)?,
        };
        let observed_score = self
            .objective
            .score(outcome.ledger.total_energy(), outcome.ledger.total_time());
        // With perfect foresight of its own run, would the decision
        // have flipped? The passed-over machine was never run, so its
        // calibrated prediction is the counterfactual.
        let (chosen_estimate, loser_score) = match route {
            Route::Cim => (&cim_estimate, host_score),
            Route::Host => (&host_estimate, cim_score),
        };
        let mispredicted = observed_score > loser_score;
        self.calibrator
            .observe(route, chosen_estimate, &outcome.ledger);
        self.trace.push(DispatchDecision {
            workload: workload.name(),
            route,
            objective: self.objective,
            cim_score,
            host_score,
            observed_score,
            mispredicted,
        });
        Ok(outcome)
    }
}

/// One routing decision: both machines' estimates, their calibrated
/// scores under the executor's objective, and the route those imply.
struct Choice {
    route: Route,
    cim_estimate: CostEstimate,
    host_estimate: CostEstimate,
    cim_score: f64,
    host_score: f64,
}

impl<W, C, H> ExecutionBackend<W> for HybridExecutor<C, H>
where
    W: Workload,
    C: ExecutionBackend<W>,
    H: ExecutionBackend<W>,
{
    fn machine(&self) -> &'static str {
        Self::MACHINE
    }

    /// Routes by calibrated certified cost and runs the chosen
    /// machine. Pure in `(self, workload)`: no trace is recorded and
    /// no calibration happens (use [`HybridExecutor::dispatch`] for
    /// the stateful path).
    fn run(&self, workload: &W) -> Result<RunOutcome, SimError> {
        match self.choose(workload).route {
            Route::Cim => self.cim.run(workload),
            Route::Host => self.host.run(workload),
        }
    }

    fn project(&self, workload: &W, hit_ratio: f64) -> RunReport {
        match self.choose(workload).route {
            Route::Cim => self.cim.project(workload, hit_ratio),
            Route::Host => self.host.project(workload, hit_ratio),
        }
    }

    /// The chosen machine's estimate — the prediction dispatch would
    /// act on, certified by that machine's own counts and prices.
    fn estimate(&self, workload: &W) -> CostEstimate {
        let choice = self.choose(workload);
        match choice.route {
            Route::Cim => choice.cim_estimate,
            Route::Host => choice.host_estimate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_sim::{BatchPolicy, CimExecutor, ConventionalExecutor};
    use cim_workloads::{AdditionWorkload, DnaWorkload};

    fn hybrid(threads: usize) -> HybridExecutor<CimExecutor, ConventionalExecutor> {
        let policy = BatchPolicy::with_threads(threads);
        HybridExecutor::frozen(
            CimExecutor::with_batch(policy),
            ConventionalExecutor::with_batch(policy),
            DispatchObjective::Energy,
        )
    }

    #[test]
    fn dispatch_routes_run_and_records() {
        let mut executor = hybrid(1);
        let dna = DnaWorkload::scaled(1 << 12, 64);
        let adds = AdditionWorkload::scaled(1 << 12, 7);
        let first = executor.dispatch(&dna).expect("dna runs");
        let second = executor.dispatch(&adds).expect("adds run");
        assert_eq!(executor.trace().len(), 2);
        let trace = executor.trace();
        // The route taken is the machine whose outcome we got.
        for (decision, outcome) in trace.decisions.iter().zip([&first, &second]) {
            let expected = match decision.route {
                Route::Cim => CimExecutor::MACHINE,
                Route::Host => ConventionalExecutor::MACHINE,
            };
            assert_eq!(outcome.machine, expected);
            assert!(decision.cim_score.is_finite() && decision.host_score.is_finite());
        }
        // On energy, in-memory DNA comparison is the paper's headline
        // win: the crossbar must get the mapping workload.
        assert_eq!(trace.decisions[0].route, Route::Cim);
        assert_eq!(executor.calibrator().errors().len(), 2);
    }

    #[test]
    fn hybrid_run_digest_equals_the_chosen_machine_solo() {
        let executor = hybrid(1);
        let dna = DnaWorkload::scaled(1 << 12, 64);
        let hybrid_outcome = executor.run(&dna).expect("hybrid runs");
        let solo = match executor.choose(&dna).route {
            Route::Cim => executor.cim.run(&dna),
            Route::Host => executor.host.run(&dna),
        }
        .expect("solo runs");
        assert_eq!(hybrid_outcome, solo);
        assert_eq!(
            ExecutionBackend::<DnaWorkload>::machine(&executor),
            "hybrid"
        );
    }

    #[test]
    fn decisions_are_bit_identical_across_thread_counts() {
        let dna = DnaWorkload::scaled(1 << 12, 64);
        let adds = AdditionWorkload::scaled(1 << 13, 7);
        let mut reference = hybrid(1);
        reference.dispatch(&dna).expect("runs");
        reference.dispatch(&adds).expect("runs");
        for threads in [2, 4] {
            let mut executor = hybrid(threads);
            executor.dispatch(&dna).expect("runs");
            executor.dispatch(&adds).expect("runs");
            assert_eq!(executor.trace(), reference.trace(), "{threads} threads");
        }
    }
}
