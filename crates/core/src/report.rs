//! Comparison reports rendered in the paper's Table-2 shape.

use cim_arch::{Metrics, MetricsError, RunReport};
use cim_dispatch::DispatchTrace;
use cim_units::{Component, CostEntry};
use serde::{Deserialize, Serialize};

/// Conventional-vs-CIM results for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonReport {
    workload: String,
    conventional: RunReport,
    cim: RunReport,
    conventional_metrics: Metrics,
    cim_metrics: Metrics,
    notes: Vec<String>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    dispatch: Option<DispatchTrace>,
}

impl ComparisonReport {
    /// Builds the comparison and derives both metric sets. Each report's
    /// ledger carries the component/phase attribution its totals are
    /// read from.
    ///
    /// # Errors
    ///
    /// Returns the [`MetricsError`] of whichever run is degenerate
    /// (zero operations, time, energy, or area).
    pub fn new(
        workload: &str,
        conventional: RunReport,
        cim: RunReport,
    ) -> Result<Self, MetricsError> {
        Ok(Self {
            workload: workload.to_string(),
            conventional_metrics: Metrics::from_run(&conventional)?,
            cim_metrics: Metrics::from_run(&cim)?,
            conventional,
            cim,
            notes: Vec::new(),
            dispatch: None,
        })
    }

    /// Attaches a free-form provenance note.
    pub fn with_note(mut self, note: String) -> Self {
        self.notes.push(note);
        self
    }

    /// Attaches the hybrid dispatcher's decision trace, so the report
    /// records not only what each machine cost but which machine the
    /// certified scores would route each workload to.
    pub fn with_dispatch(mut self, trace: DispatchTrace) -> Self {
        self.dispatch = Some(trace);
        self
    }

    /// The attached dispatch trace, if any.
    pub fn dispatch(&self) -> Option<&DispatchTrace> {
        self.dispatch.as_ref()
    }

    /// The workload label.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The conventional machine's run.
    pub fn conventional(&self) -> &RunReport {
        &self.conventional
    }

    /// The CIM machine's run.
    pub fn cim(&self) -> &RunReport {
        &self.cim
    }

    /// The conventional machine's Table-2 metrics.
    pub fn conventional_metrics(&self) -> &Metrics {
        &self.conventional_metrics
    }

    /// The CIM machine's Table-2 metrics.
    pub fn cim_metrics(&self) -> &Metrics {
        &self.cim_metrics
    }

    /// Provenance notes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// CIM-over-conventional improvement ratios
    /// `(EDP, efficiency, perf/area)` — all > 1 means CIM wins.
    pub fn improvements(&self) -> (f64, f64, f64) {
        self.cim_metrics
            .improvement_over(&self.conventional_metrics)
    }

    /// Renders a markdown table in the paper's Table-2 arrangement.
    pub fn to_markdown(&self) -> String {
        let (edp, eff, perf) = self.improvements();
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.workload));
        out.push_str("| Metric | Conventional | CIM | CIM gain |\n");
        out.push_str("|---|---|---|---|\n");
        out.push_str(&format!(
            "| Energy-delay / op (J·s) | {:.4e} | {:.4e} | {edp:.1}× |\n",
            self.conventional_metrics.energy_delay_per_op.get(),
            self.cim_metrics.energy_delay_per_op.get(),
        ));
        out.push_str(&format!(
            "| Computing efficiency (ops/J) | {:.4e} | {:.4e} | {eff:.1}× |\n",
            self.conventional_metrics.ops_per_joule, self.cim_metrics.ops_per_joule,
        ));
        out.push_str(&format!(
            "| Performance / area (ops/s/mm²) | {:.4e} | {:.4e} | {perf:.1}× |\n",
            self.conventional_metrics.ops_per_second_per_mm2,
            self.cim_metrics.ops_per_second_per_mm2,
        ));
        for note in &self.notes {
            out.push_str(&format!("\n_{note}_\n"));
        }
        if let Some(section) = self.dispatch_markdown() {
            out.push('\n');
            out.push_str(&section);
        }
        out
    }

    /// Renders the dispatch-decision section, when a trace is attached:
    /// one row per decision (route, both predicted scores, the observed
    /// score) plus the misprediction tally.
    pub fn dispatch_markdown(&self) -> Option<String> {
        let trace = self.dispatch.as_ref()?;
        let mut out = String::new();
        out.push_str(&format!("#### {} — dispatch decisions\n\n", self.workload));
        out.push_str("| Workload | Objective | Route | CIM score | Host score | Observed |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        for d in &trace.decisions {
            let flag = if d.mispredicted { " ⚠" } else { "" };
            out.push_str(&format!(
                "| {} | {} | {}{flag} | {:.4e} | {:.4e} | {:.4e} |\n",
                d.workload,
                d.objective.label(),
                d.route,
                d.cim_score,
                d.host_score,
                d.observed_score,
            ));
        }
        out.push_str(&format!(
            "\n_{} decisions, {} mispredicted._\n",
            trace.len(),
            trace.mispredictions()
        ));
        Some(out)
    }

    /// The components either machine spent anything in, canonical order,
    /// with both machines' totals.
    fn breakdown_rows(&self) -> Vec<(Component, CostEntry, CostEntry)> {
        Component::ALL
            .iter()
            .filter_map(|&component| {
                let conv = self.conventional.ledger.component_totals(component);
                let cim = self.cim.ledger.component_totals(component);
                (!conv.is_zero() || !cim.is_zero()).then_some((component, conv, cim))
            })
            .collect()
    }

    /// Renders the per-component breakdown as a markdown table: where
    /// each machine's joules and seconds went. The `total` row is read
    /// from the same ledgers, so the rows sum to it.
    pub fn breakdown_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — component breakdown\n\n", self.workload));
        out.push_str("| Component | Conv energy | Conv time | Conv ops | CIM energy | CIM time | CIM ops |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for (component, conv, cim) in self.breakdown_rows() {
            out.push_str(&format!(
                "| {component} | {} | {} | {} | {} | {} | {} |\n",
                conv.energy, conv.time, conv.count, cim.energy, cim.time, cim.count
            ));
        }
        out.push_str(&format!(
            "| **total** | {} | {} | {} | {} | {} | {} |\n",
            self.conventional.total_energy(),
            self.conventional.total_time(),
            self.conventional.ledger.total_count(),
            self.cim.total_energy(),
            self.cim.total_time(),
            self.cim.ledger.total_count(),
        ));
        out
    }

    /// Renders breakdown CSV rows (no header):
    /// `workload,component,conv_energy_j,conv_time_s,conv_count,cim_energy_j,cim_time_s,cim_count`.
    pub fn breakdown_csv(&self) -> String {
        let mut out = String::new();
        for (component, conv, cim) in self.breakdown_rows() {
            out.push_str(&format!(
                "{},{},{:e},{:e},{},{:e},{:e},{}\n",
                self.workload,
                component,
                conv.energy.as_joules(),
                conv.time.as_seconds(),
                conv.count,
                cim.energy.as_joules(),
                cim.time.as_seconds(),
                cim.count,
            ));
        }
        out
    }

    /// Renders CSV rows: `workload,machine,metric,value`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (machine, m) in [
            ("conventional", &self.conventional_metrics),
            ("cim", &self.cim_metrics),
        ] {
            out.push_str(&format!(
                "{},{},energy_delay_per_op_js,{:e}\n",
                self.workload,
                machine,
                m.energy_delay_per_op.get()
            ));
            out.push_str(&format!(
                "{},{},ops_per_joule,{:e}\n",
                self.workload, machine, m.ops_per_joule
            ));
            out.push_str(&format!(
                "{},{},ops_per_second_per_mm2,{:e}\n",
                self.workload, machine, m.ops_per_second_per_mm2
            ));
        }
        out
    }
}

/// Both workloads' comparisons — the full Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// The DNA-sequencing column pair.
    pub dna: ComparisonReport,
    /// The additions column pair.
    pub math: ComparisonReport,
}

impl Table2 {
    /// Renders the combined markdown document.
    pub fn to_markdown(&self) -> String {
        format!(
            "## Table 2 — Huge potential of CIM architecture (reproduced)\n\n{}\n{}",
            self.dna.to_markdown(),
            self.math.to_markdown()
        )
    }

    /// Renders combined CSV.
    pub fn to_csv(&self) -> String {
        format!(
            "workload,machine,metric,value\n{}{}",
            self.dna.to_csv(),
            self.math.to_csv()
        )
    }

    /// Renders both workloads' component breakdowns as markdown.
    pub fn breakdown_markdown(&self) -> String {
        format!(
            "## Table 2 — component breakdown\n\n{}\n{}",
            self.dna.breakdown_markdown(),
            self.math.breakdown_markdown()
        )
    }

    /// The breakdown CSV header.
    pub const BREAKDOWN_CSV_HEADER: &'static str =
        "workload,component,conv_energy_j,conv_time_s,conv_count,cim_energy_j,cim_time_s,cim_count";

    /// Renders combined breakdown CSV (header + both workloads).
    pub fn breakdown_csv(&self) -> String {
        format!(
            "{}\n{}{}",
            Self::BREAKDOWN_CSV_HEADER,
            self.dna.breakdown_csv(),
            self.math.breakdown_csv()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_units::{Area, CostLedger, Energy, Phase, Time};

    /// A toy ledger: the energy/time split 70/30 across two components
    /// so breakdowns have more than one row.
    fn ledger(scale: f64, component_a: Component, component_b: Component) -> CostLedger {
        let mut ledger = CostLedger::new();
        let energy = Energy::from_micro_joules(scale);
        let time = Time::from_micro_seconds(scale);
        ledger.charge(component_a, Phase::Map, energy * 0.7, time * 0.7, 700);
        ledger.charge(
            component_b,
            Phase::Map,
            energy - energy * 0.7,
            time - time * 0.7,
            300,
        );
        ledger
    }

    fn report(scale: f64, lead: Component) -> RunReport {
        RunReport {
            operations: 1_000,
            area: Area::from_square_milli_meters(1.0),
            ledger: ledger(scale, lead, Component::DramAccess),
        }
    }

    fn comparison() -> ComparisonReport {
        ComparisonReport::new(
            "toy",
            report(100.0, Component::CacheAccess),
            report(1.0, Component::ImplyStep),
        )
        .expect("toy runs are non-degenerate")
        .with_note("synthetic".to_string())
    }

    #[test]
    fn improvements_are_ratios() {
        let c = comparison();
        let (edp, eff, perf) = c.improvements();
        assert!((edp - 10_000.0).abs() < 1e-6);
        assert!((eff - 100.0).abs() < 1e-9);
        assert!((perf - 100.0).abs() < 1e-9);
    }

    #[test]
    fn markdown_contains_all_metrics_and_notes() {
        let md = comparison().to_markdown();
        assert!(md.contains("Energy-delay"));
        assert!(md.contains("Computing efficiency"));
        assert!(md.contains("Performance / area"));
        assert!(md.contains("synthetic"));
        assert!(md.contains("10000.0×"));
    }

    #[test]
    fn csv_has_six_data_rows() {
        let csv = comparison().to_csv();
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.contains("toy,cim,ops_per_joule"));
    }

    #[test]
    fn table2_combines_both_workloads() {
        let t = Table2 {
            dna: comparison(),
            math: comparison(),
        };
        let md = t.to_markdown();
        assert!(md.contains("Table 2"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 13); // header + 12
    }

    #[test]
    fn accessors() {
        let c = comparison();
        assert_eq!(c.workload(), "toy");
        assert_eq!(c.conventional().operations, 1_000);
        assert_eq!(c.cim().operations, 1_000);
        assert!(c.conventional_metrics().ops_per_joule > 0.0);
        assert!(c.cim_metrics().ops_per_joule > 0.0);
    }

    #[test]
    fn degenerate_runs_surface_a_typed_error() {
        let zero_ops = RunReport {
            operations: 0,
            ..report(1.0, Component::ImplyStep)
        };
        let err = ComparisonReport::new("toy", zero_ops, report(1.0, Component::ImplyStep))
            .expect_err("zero operations cannot yield metrics");
        assert_eq!(err, MetricsError::NoOperations);
    }

    #[test]
    fn breakdown_conserves_and_renders_every_component() {
        let c = comparison();
        let md = c.breakdown_markdown();
        for label in ["cache_access", "imply_step", "dram_access", "total"] {
            assert!(md.contains(label), "missing {label} in\n{md}");
        }
        let csv = c.breakdown_csv();
        assert_eq!(csv.lines().count(), 3, "one row per spent component");
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), 8, "malformed row {line}");
            assert!(line.starts_with("toy,"));
        }
    }

    #[test]
    fn breakdown_csv_columns_sum_to_the_report_totals() {
        let c = comparison();
        let (mut conv_e, mut conv_t, mut cim_e, mut cim_t) = (0.0, 0.0, 0.0, 0.0);
        for line in c.breakdown_csv().lines() {
            let cells: Vec<&str> = line.split(',').collect();
            conv_e += cells[2].parse::<f64>().unwrap();
            conv_t += cells[3].parse::<f64>().unwrap();
            cim_e += cells[5].parse::<f64>().unwrap();
            cim_t += cells[6].parse::<f64>().unwrap();
        }
        assert!((conv_e / c.conventional().total_energy().as_joules() - 1.0).abs() < 1e-12);
        assert!((conv_t / c.conventional().total_time().as_seconds() - 1.0).abs() < 1e-12);
        assert!((cim_e / c.cim().total_energy().as_joules() - 1.0).abs() < 1e-12);
        assert!((cim_t / c.cim().total_time().as_seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dispatch_section_renders_only_when_attached() {
        use cim_dispatch::{DispatchDecision, Route};
        use cim_units::DispatchObjective;
        let bare = comparison();
        assert!(bare.dispatch().is_none());
        assert!(bare.dispatch_markdown().is_none());
        assert!(!bare.to_markdown().contains("dispatch decisions"));
        let mut trace = DispatchTrace::new();
        trace.push(DispatchDecision {
            workload: "dna ref_len=4096".into(),
            route: Route::Cim,
            objective: DispatchObjective::Energy,
            cim_score: 1.0e-10,
            host_score: 3.0e-7,
            observed_score: 1.0e-10,
            mispredicted: false,
        });
        trace.push(DispatchDecision {
            workload: "additions n=4096".into(),
            route: Route::Host,
            objective: DispatchObjective::Energy,
            cim_score: 2.0e-9,
            host_score: 1.0e-9,
            observed_score: 3.0e-9,
            mispredicted: true,
        });
        let with = comparison().with_dispatch(trace);
        let md = with.to_markdown();
        assert!(md.contains("dispatch decisions"));
        assert!(md.contains("| dna ref_len=4096 | energy | cim |"));
        assert!(md.contains("host ⚠"));
        assert!(md.contains("2 decisions, 1 mispredicted."));
        assert_eq!(with.dispatch().unwrap().len(), 2);
        assert_eq!(with.dispatch().unwrap().mispredictions(), 1);
    }

    #[test]
    fn table2_breakdown_has_header_and_both_workloads() {
        let t = Table2 {
            dna: comparison(),
            math: comparison(),
        };
        let csv = t.breakdown_csv();
        assert_eq!(csv.lines().next(), Some(Table2::BREAKDOWN_CSV_HEADER));
        assert_eq!(csv.lines().count(), 7); // header + 2 × 3 rows
        assert!(t.breakdown_markdown().contains("component breakdown"));
    }
}
