//! End-to-end integration: full experiments spanning every crate.

use cim::core::paper_mode;
use cim::prelude::*;

#[test]
fn table2_reproduces_the_papers_qualitative_claims() {
    // "both applications clearly show that the improvements are orders
    // of magnitude" — assert it from a full run of both experiments.
    let dna = Experiment::new(DnaWorkload {
        spec: DnaSpec {
            ref_len: 40_000,
            coverage: 2,
            read_len: 100,
        },
        seed: 2,
    })
    .with_hit_ratio_mode(HitRatioMode::PaperAssumption)
    .run()
    .expect("scaled DNA experiment executes");
    let math = AdditionsExperiment::scaled(100_000, 2)
        .run()
        .expect("additions experiment executes");

    let (dna_edp, dna_eff, _) = dna.improvements();
    assert!(dna_edp > 1e3, "DNA EDP gain only {dna_edp}");
    assert!(dna_eff > 5.0, "DNA efficiency gain only {dna_eff}");

    let (math_edp, math_eff, math_perf) = math.improvements();
    assert!(math_edp > 10.0, "math EDP gain only {math_edp}");
    assert!(math_eff > 50.0, "math efficiency gain only {math_eff}");
    assert!(math_perf > 1e3, "math perf/area gain only {math_perf}");

    let table = Table2 { dna, math };
    let md = table.to_markdown();
    assert!(md.contains("Table 2"));
    assert!(md.contains("DNA sequencing"));
    let csv = table.to_csv();
    assert_eq!(csv.lines().count(), 13);
}

#[test]
fn measured_hit_ratio_lands_near_the_papers_assumption() {
    // Table 1 assumes 50% for the sorted-index workload; the measured
    // index-probe ratio from a real mapper run should be in that
    // neighbourhood (binary-search top levels cached, tail random).
    let exec = cim::sim::ConventionalExecutor::new();
    let run = exec
        .run(&DnaWorkload {
            spec: DnaSpec {
                ref_len: 120_000,
                coverage: 2,
                read_len: 100,
            },
            seed: 9,
        })
        .expect("scaled spec executes");
    let index_hit_ratio = run.index_hit_ratio.expect("DNA runs measure index probes");
    assert!(
        (0.30..0.70).contains(&index_hit_ratio),
        "index-probe hit ratio {index_hit_ratio} far from the paper's 0.5"
    );
}

#[test]
fn paper_mode_decodes_most_of_table2() {
    let cells = paper_mode::decoded_cells();
    assert_eq!(cells.len(), 8);
    let exact = cells.iter().filter(|c| c.deviation() < 1e-3).count();
    assert!(exact >= 3, "only {exact} cells decoded to print precision");
    for cell in &cells {
        assert!(
            cell.deviation() < 0.04,
            "{} deviates {:.2}%",
            cell.cell,
            cell.deviation() * 100.0
        );
    }
}

#[test]
fn experiments_are_deterministic_given_a_seed() {
    let a = AdditionsExperiment::scaled(5_000, 77).run().expect("runs");
    let b = AdditionsExperiment::scaled(5_000, 77).run().expect("runs");
    assert_eq!(
        a.conventional_metrics().ops_per_joule,
        b.conventional_metrics().ops_per_joule
    );
    assert_eq!(a.cim().total_time(), b.cim().total_time());
}

#[test]
fn dna_scaling_preserves_metric_ordering() {
    // Running the experiment at two different scales must not change who
    // wins any metric (shape stability).
    let run_at = |ref_len| {
        Experiment::new(DnaWorkload {
            spec: DnaSpec {
                ref_len,
                coverage: 2,
                read_len: 100,
            },
            seed: 4,
        })
        .with_hit_ratio_mode(HitRatioMode::Measured)
        .run()
        .expect("scaled DNA experiment executes")
    };
    let small = run_at(20_000);
    let large = run_at(80_000);
    for (s, l) in [small.improvements(), large.improvements()]
        .windows(2)
        .flat_map(|w| {
            let (a, b) = (w[0], w[1]);
            [(a.0, b.0), (a.1, b.1), (a.2, b.2)]
        })
        .collect::<Vec<_>>()
    {
        assert_eq!(s > 1.0, l > 1.0, "winner flipped between scales");
    }
}
