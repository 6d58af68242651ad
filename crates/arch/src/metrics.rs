//! The three Table-2 figures of merit.

use cim_units::{Area, CostLedger, Energy, EnergyDelay, Time};
use serde::{Deserialize, Serialize};

/// The raw outcome of executing a workload on one machine: how many
/// operations it completed, the area it occupied, and the [`CostLedger`]
/// that attributes every joule and second of it. The ledger is the only
/// record of the run's cost; the totals are read from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Operations completed.
    pub operations: u64,
    /// Machine area used.
    pub area: Area,
    /// Component/phase attribution of the run's energy and time.
    pub ledger: CostLedger,
}

impl RunReport {
    /// Wall-clock makespan: the ledger's canonical-order time sum.
    pub fn total_time(&self) -> Time {
        self.ledger.total_time()
    }

    /// Total energy, dynamic + static over the makespan: the ledger's
    /// canonical-order energy sum.
    pub fn total_energy(&self) -> Energy {
        self.ledger.total_energy()
    }

    /// Average latency contribution of one operation (makespan / ops ×
    /// parallelism is folded into the makespan already; this is the
    /// per-op share of the total time).
    pub fn time_per_op(&self) -> Time {
        self.total_time() / self.operations as f64
    }

    /// Average energy of one operation.
    pub fn energy_per_op(&self) -> Energy {
        self.total_energy() / self.operations as f64
    }
}

/// Why a [`RunReport`] cannot yield [`Metrics`]: the run is degenerate
/// in a way that would divide by zero. Degenerate runs are *data*
/// errors (an empty workload, a zero-cost machine model), not programmer
/// errors, so they surface as a typed error instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricsError {
    /// The run completed zero operations.
    NoOperations,
    /// The run took zero time.
    NoTime,
    /// The run consumed zero energy.
    NoEnergy,
    /// The machine occupies zero area.
    NoArea,
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsError::NoOperations => write!(f, "run must contain operations"),
            MetricsError::NoTime => write!(f, "run must take time"),
            MetricsError::NoEnergy => write!(f, "run must consume energy"),
            MetricsError::NoArea => write!(f, "machine must occupy area"),
        }
    }
}

impl std::error::Error for MetricsError {}

/// Table 2's three metrics, computed from a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Energy-delay product per operation (J·s) — lower is better.
    pub energy_delay_per_op: EnergyDelay,
    /// Computing efficiency: operations per joule — higher is better.
    pub ops_per_joule: f64,
    /// Performance per area: operations per second per mm² — higher is
    /// better.
    pub ops_per_second_per_mm2: f64,
}

impl Metrics {
    /// Computes the metrics from a run.
    ///
    /// `energy_delay_per_op` multiplies the per-op energy by the per-op
    /// share of the makespan (DESIGN.md §4 documents this aggregation —
    /// the paper's own is unspecified).
    ///
    /// # Errors
    ///
    /// Returns a [`MetricsError`] if the report has zero operations,
    /// time, energy, or area — a degenerate run the ratios are undefined
    /// for.
    pub fn from_run(run: &RunReport) -> Result<Self, MetricsError> {
        if run.operations == 0 {
            return Err(MetricsError::NoOperations);
        }
        let (time, energy) = (run.total_time(), run.total_energy());
        // NaN slips past `<= 0.0`, so reject it explicitly — a NaN total
        // is as degenerate as a zero one.
        if time.get() <= 0.0 || time.get().is_nan() {
            return Err(MetricsError::NoTime);
        }
        if energy.get() <= 0.0 || energy.get().is_nan() {
            return Err(MetricsError::NoEnergy);
        }
        if run.area.get() <= 0.0 || run.area.get().is_nan() {
            return Err(MetricsError::NoArea);
        }
        let ops = run.operations as f64;
        Ok(Self {
            energy_delay_per_op: run.energy_per_op() * run.time_per_op(),
            ops_per_joule: ops / energy.as_joules(),
            ops_per_second_per_mm2: ops / time.as_seconds() / run.area.as_square_milli_meters(),
        })
    }

    /// Improvement ratios of `self` over `baseline` for the three metrics
    /// (EDP ratio is `baseline/self` so that > 1 always means better).
    pub fn improvement_over(&self, baseline: &Metrics) -> (f64, f64, f64) {
        (
            baseline.energy_delay_per_op.get() / self.energy_delay_per_op.get(),
            self.ops_per_joule / baseline.ops_per_joule,
            self.ops_per_second_per_mm2 / baseline.ops_per_second_per_mm2,
        )
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EDP/op {:.4e} J·s | {:.4e} ops/J | {:.4e} ops/s/mm²",
            self.energy_delay_per_op.get(),
            self.ops_per_joule,
            self.ops_per_second_per_mm2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_units::{Component, Phase};

    /// A report over `ledger`: 1,000 operations on 4 mm².
    fn report(ledger: CostLedger) -> RunReport {
        RunReport {
            operations: 1_000,
            area: Area::from_square_milli_meters(4.0),
            ledger,
        }
    }

    /// A ledger with one cell charged `energy` and `time`.
    fn charged(energy: Energy, time: Time) -> CostLedger {
        let mut ledger = CostLedger::new();
        ledger.charge(Component::ImplyStep, Phase::Map, energy, time, 1_000);
        ledger
    }

    /// 1,000 operations over 1 µs and 2 µJ.
    fn run() -> RunReport {
        report(charged(
            Energy::from_micro_joules(2.0),
            Time::from_micro_seconds(1.0),
        ))
    }

    #[test]
    fn per_op_shares() {
        let r = run();
        assert!((r.time_per_op().as_nano_seconds() - 1.0).abs() < 1e-12);
        assert!((r.energy_per_op().as_nano_joules() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn metric_values() {
        let m = Metrics::from_run(&run()).expect("non-degenerate run");
        // EDP/op = 2 nJ × 1 ns = 2e-18 J·s.
        assert!((m.energy_delay_per_op.get() - 2e-18).abs() < 1e-30);
        // 1000 ops / 2 µJ = 5e8 ops/J.
        assert!((m.ops_per_joule - 5e8).abs() < 1.0);
        // 1000 ops / 1 µs / 4 mm² = 2.5e8 ops/s/mm².
        assert!((m.ops_per_second_per_mm2 - 2.5e8).abs() < 1.0);
    }

    #[test]
    fn improvement_ratios_point_the_right_way() {
        let base = Metrics::from_run(&run()).expect("non-degenerate run");
        let better = Metrics {
            energy_delay_per_op: base.energy_delay_per_op / 100.0,
            ops_per_joule: base.ops_per_joule * 10.0,
            ops_per_second_per_mm2: base.ops_per_second_per_mm2 * 2.0,
        };
        let (edp, eff, perf) = better.improvement_over(&base);
        assert!((edp - 100.0).abs() < 1e-9);
        assert!((eff - 10.0).abs() < 1e-9);
        assert!((perf - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_runs() {
        let (energy, time) = (
            Energy::from_micro_joules(2.0),
            Time::from_micro_seconds(1.0),
        );
        let cases = [
            (
                RunReport {
                    operations: 0,
                    ..run()
                },
                MetricsError::NoOperations,
            ),
            (report(CostLedger::new()), MetricsError::NoTime),
            (report(charged(Energy::ZERO, time)), MetricsError::NoEnergy),
            (
                report(charged(energy, Time::from_seconds(f64::NAN))),
                MetricsError::NoTime,
            ),
            (
                report(charged(Energy::from_joules(f64::NAN), time)),
                MetricsError::NoEnergy,
            ),
            (
                RunReport {
                    area: Area::from_square_milli_meters(0.0),
                    ..run()
                },
                MetricsError::NoArea,
            ),
        ];
        for (degenerate, expected) in cases {
            assert_eq!(Metrics::from_run(&degenerate), Err(expected));
        }
        assert_eq!(
            MetricsError::NoOperations.to_string(),
            "run must contain operations"
        );
    }

    #[test]
    fn display_is_scientific() {
        let s = Metrics::from_run(&run())
            .expect("non-degenerate run")
            .to_string();
        assert!(s.contains("ops/J"));
        assert!(s.contains('e'));
    }
}
