//! The generic experiment driver.
//!
//! [`Experiment<W>`] runs one [`Workload`] on both machines through the
//! [`ExecutionBackend`] trait, verifies each run's digest against the
//! workload's ground truth, and assembles the Table-2 comparison. The
//! concrete experiments are aliases: [`DnaExperiment`] and
//! [`AdditionsExperiment`].

use cim_arch::MetricsError;
use cim_sim::{
    BatchPolicy, CimExecutor, ConventionalExecutor, ExecutionBackend, RunOutcome, SimError,
};
use cim_workloads::{AdditionWorkload, DnaWorkload, ProjectionKind, Workload, WorkloadError};
use serde::{Deserialize, Serialize};

use crate::report::ComparisonReport;

/// Where the conventional machine's cache hit ratio comes from.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HitRatioMode {
    /// Table 1's assumption (50% for DNA).
    #[default]
    PaperAssumption,
    /// Measured by replaying the scaled run's trace through the cache
    /// simulator.
    Measured,
}

/// Why an experiment could not produce a [`ComparisonReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// A backend refused or failed the execution.
    Sim(SimError),
    /// A backend executed, but its digest failed the workload's
    /// independent verification — a modelling bug, reported with
    /// evidence instead of panicking mid-experiment.
    Verification {
        /// The machine whose run failed verification.
        machine: &'static str,
        /// The workload's display name.
        workload: String,
        /// What the workload rejected.
        source: WorkloadError,
    },
    /// Both runs executed and verified, but one report is degenerate
    /// (zero operations, time, energy, or area) so no metrics exist.
    Degenerate(MetricsError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Sim(err) => write!(f, "execution failed: {err}"),
            ExperimentError::Verification {
                machine,
                workload,
                source,
            } => write!(
                f,
                "{machine} run of `{workload}` failed verification: {source}"
            ),
            ExperimentError::Degenerate(err) => write!(f, "comparison is degenerate: {err}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Sim(err) => Some(err),
            ExperimentError::Verification { source, .. } => Some(source),
            ExperimentError::Degenerate(err) => Some(err),
        }
    }
}

impl From<SimError> for ExperimentError {
    fn from(err: SimError) -> Self {
        ExperimentError::Sim(err)
    }
}

impl From<MetricsError> for ExperimentError {
    fn from(err: MetricsError) -> Self {
        ExperimentError::Degenerate(err)
    }
}

/// One workload, both machines, one comparison — the generic driver
/// behind every (workload × machine) combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Experiment<W: Workload> {
    /// The workload to execute (and verify) on both machines.
    pub workload: W,
    /// Hit-ratio source for paper-scale projections.
    pub hit_ratio_mode: HitRatioMode,
    /// Batch policy handed to both executors' per-item hot loops.
    pub batch: BatchPolicy,
}

impl<W: Workload> Experiment<W> {
    /// Wraps a workload with default projection and batching choices.
    pub fn new(workload: W) -> Self {
        Self {
            workload,
            hit_ratio_mode: HitRatioMode::default(),
            batch: BatchPolicy::default(),
        }
    }

    /// Selects the hit-ratio source.
    pub fn with_hit_ratio_mode(mut self, mode: HitRatioMode) -> Self {
        self.hit_ratio_mode = mode;
        self
    }

    /// Selects the batch policy for both executors.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    fn verified(&self, run: RunOutcome) -> Result<RunOutcome, ExperimentError> {
        self.workload
            .verify(&run.digest)
            .map_err(|source| ExperimentError::Verification {
                machine: run.machine,
                workload: self.workload.name(),
                source,
            })?;
        Ok(run)
    }

    /// Runs the workload on both machines, verifies both digests, and
    /// builds the comparison.
    ///
    /// The workload executes for real on each backend (DNA: genome,
    /// index, mapping, cache trace on the conventional side, IMPLY
    /// comparator semantics on the CIM side; additions: checksummed sums
    /// on both). Workloads whose [`Workload::projection`] is paper-scale
    /// are then compared at the projected full size; the rest compare at
    /// the executed size.
    pub fn run(&self) -> Result<ComparisonReport, ExperimentError>
    where
        ConventionalExecutor: ExecutionBackend<W>,
        CimExecutor: ExecutionBackend<W>,
    {
        let conv_exec = ConventionalExecutor::with_batch(self.batch);
        let cim_exec = CimExecutor::with_batch(self.batch);
        let conv_run = self.verified(conv_exec.run(&self.workload)?)?;
        let cim_run = self.verified(cim_exec.run(&self.workload)?)?;

        let (conv, cim) = match self.workload.projection() {
            ProjectionKind::ExecutedScale => (conv_run.report(), cim_run.report()),
            ProjectionKind::PaperScale { assumed_hit_ratio } => {
                let hit_ratio = match self.hit_ratio_mode {
                    HitRatioMode::PaperAssumption => assumed_hit_ratio,
                    HitRatioMode::Measured => {
                        conv_run.measured_hit_ratio.unwrap_or(assumed_hit_ratio)
                    }
                };
                (
                    conv_exec.project(&self.workload, hit_ratio),
                    cim_exec.project(&self.workload, hit_ratio),
                )
            }
        };

        let mut report = ComparisonReport::new(&self.workload.name(), conv, cim)?;
        for note in conv_run.notes.iter().chain(cim_run.notes.iter()) {
            report = report.with_note(note.clone());
        }
        Ok(report)
    }
}

/// The paper's healthcare experiment: DNA read mapping, conventional vs
/// CIM.
pub type DnaExperiment = Experiment<DnaWorkload>;

impl DnaExperiment {
    /// A laptop-scale experiment with the paper's shape.
    pub fn scaled(ref_len: u64, seed: u64) -> Self {
        Self::new(DnaWorkload::scaled(ref_len, seed))
    }

    /// The paper-scale experiment. Executing it errors (the conventional
    /// backend refuses 3 GB references); it exists for projection-style
    /// drivers.
    pub fn paper(seed: u64) -> Self {
        Self::new(DnaWorkload::paper(seed))
    }
}

/// The paper's mathematics experiment: bulk parallel additions.
pub type AdditionsExperiment = Experiment<AdditionWorkload>;

impl AdditionsExperiment {
    /// The paper-scale experiment: 10⁶ 32-bit additions.
    pub fn paper(seed: u64) -> Self {
        Self::new(AdditionWorkload::paper(seed))
    }

    /// A scaled-down experiment with the same shape.
    pub fn scaled(n_ops: u64, seed: u64) -> Self {
        Self::new(AdditionWorkload::scaled(n_ops, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_workloads::DnaSpec;

    #[test]
    fn additions_experiment_round_trips() {
        let report = AdditionsExperiment::scaled(5_000, 7).run().expect("runs");
        let (edp, eff, perf) = report.improvements();
        assert!(edp > 10.0);
        assert!(eff > 10.0);
        assert!(perf > 10.0);
        assert!(report.notes()[0].contains("checksum"));
    }

    #[test]
    fn dna_experiment_round_trips() {
        // Tame the coverage for test speed.
        let workload = DnaWorkload {
            spec: DnaSpec {
                ref_len: 30_000,
                coverage: 2,
                read_len: 100,
            },
            seed: 3,
        };
        let report = Experiment::new(workload).run().expect("runs");
        let (edp, eff, _) = report.improvements();
        assert!(edp > 100.0, "EDP improvement {edp}");
        assert!(eff > 1.0, "efficiency improvement {eff}");
        assert!(report.notes()[0].contains("reads mapped"));
    }

    #[test]
    fn measured_mode_changes_the_projection() {
        let base = Experiment::new(DnaWorkload {
            spec: DnaSpec {
                ref_len: 30_000,
                coverage: 2,
                read_len: 100,
            },
            seed: 5,
        });
        let assumed = base.run().expect("assumed-mode run");
        let measured = base
            .with_hit_ratio_mode(HitRatioMode::Measured)
            .run()
            .expect("measured-mode run");
        // Different hit ratios shift the conventional projection.
        assert_ne!(
            assumed.conventional().total_time(),
            measured.conventional().total_time()
        );
    }

    #[test]
    fn oversized_dna_executions_error_instead_of_panicking() {
        let err = DnaExperiment::paper(1).run().expect_err("3 GB cannot run");
        assert!(matches!(
            err,
            ExperimentError::Sim(SimError::SpecTooLarge { .. })
        ));
        assert!(err.to_string().contains("capped"));
    }

    #[test]
    fn experiment_reports_conserve_their_ledgers() {
        // An executed-scale comparison carries each machine's run ledger
        // unchanged, and a paper-scale one each machine's projection.
        let workload = AdditionWorkload::scaled(5_000, 7);
        let additions = Experiment::new(workload).run().expect("runs");
        let conv = ConventionalExecutor::new().run(&workload).expect("runs");
        let cim = CimExecutor::new().run(&workload).expect("runs");
        assert_eq!(additions.conventional(), &conv.report());
        assert_eq!(additions.cim(), &cim.report());

        let dna = DnaWorkload {
            spec: DnaSpec {
                ref_len: 30_000,
                coverage: 2,
                read_len: 100,
            },
            seed: 3,
        };
        let report = Experiment::new(dna).run().expect("runs");
        let ProjectionKind::PaperScale {
            assumed_hit_ratio: hit,
        } = dna.projection()
        else {
            panic!("DNA projects to paper scale");
        };
        assert_eq!(
            report.conventional(),
            &ConventionalExecutor::new().project(&dna, hit)
        );
        assert_eq!(report.cim(), &CimExecutor::new().project(&dna, hit));
    }

    #[test]
    fn experiments_are_batch_policy_invariant() {
        let serial = AdditionsExperiment::scaled(5_000, 7)
            .with_batch(BatchPolicy::SERIAL)
            .run()
            .expect("serial run");
        let parallel = AdditionsExperiment::scaled(5_000, 7)
            .with_batch(BatchPolicy::with_threads(4))
            .run()
            .expect("parallel run");
        assert_eq!(serial, parallel);
    }
}
