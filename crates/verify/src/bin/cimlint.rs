//! `cimlint` — the static-verification gate for shipped CIM artifacts.
//!
//! ```text
//! cimlint                  lint every shipped program and graph
//! cimlint --deny-warnings  CI mode: warnings fail too
//! cimlint --fixtures       run every seeded-defect fixture and
//!                          require each to be rejected
//! cimlint --wear-skew <x>  override the wear-hotspot skew threshold
//! cimlint --list           list the registry and exit
//! ```
//!
//! Exit status: 0 when the gate passes, 1 on findings (or a fixture the
//! verifier failed to reject), 2 on usage errors.

use std::process::ExitCode;

use cim_arch::{Placement, TileGrid};
use cim_device::{DeviceParams, FaultMap};
use cim_verify::{
    certify_plan, certify_split, check_graph_mapping, check_placement, check_program_mapping,
    removable_steps, seeded_defects, shipped_graphs, shipped_programs, shipped_splits,
    verify_program, CostCertificate, FabricSpec, WearCertificate,
};

fn lint_shipped(deny_warnings: bool, wear_skew: f64) -> bool {
    let spec = FabricSpec::paper();
    let device = DeviceParams::table1_cim();
    let mut ok = true;
    for entry in shipped_programs() {
        let mut report = verify_program(entry.name, &entry.program);
        report.merge(check_program_mapping(
            entry.name,
            &entry.program,
            entry.rows,
            &spec,
        ));
        let cert = CostCertificate::broadcast(&entry.program, &device, entry.rows);
        let cost = cert.to_cost();
        // The endurance pass: write-pressure skew and the closed-form
        // run budget until the hottest column violates its rating.
        let wear = WearCertificate::broadcast(&entry.program);
        report.merge(wear.check_hotspots(entry.name, wear_skew, &device));
        let budget = wear
            .runs_to_first_rating_violation(&device)
            .map_or("unbounded runs".to_string(), |(runs, column)| {
                format!("{runs} runs to r{column} rating violation")
            });
        println!(
            "{report}  [{} rows; certified {cost}; {} removable step(s); \
             wear skew {:.2}; {budget}]",
            entry.rows,
            removable_steps(&entry.program),
            wear.write_skew()
        );
        ok &= report.passes(deny_warnings);
    }
    for entry in shipped_graphs() {
        let mut report = check_graph_mapping(entry.name, &entry.graph, &spec);
        // On Err, compile_checked repeats check_graph_mapping's verdict;
        // the diagnostics above already carry it.
        if let Ok(plan) = spec.mapper.compile_checked(&entry.graph) {
            report.merge(certify_plan(entry.name, &plan));
        }
        println!("{report}");
        ok &= report.passes(deny_warnings);
    }
    // The split-dispatch path: every shipped split plan's unit
    // partition and shard ledgers must re-derive cell-bitwise.
    for entry in shipped_splits() {
        let report = certify_split(entry.name, &entry.claim);
        println!(
            "{report}  [{} units: {} cim / {} host]",
            entry.claim.units, entry.claim.cim_units, entry.claim.host_units
        );
        ok &= report.passes(deny_warnings);
    }
    // The fabric path: the DNA serving placement every tile executes,
    // checked against a healthy fault map (operations would retire
    // worn columns into it at run time), plus the endurance budget of
    // the comparator kernel each placed tile broadcasts.
    let grid = TileGrid::paper_dna(2, 2);
    let placement = Placement::uniform(&grid, grid.tile_devices / 2, 64);
    let report = check_placement("fabric-placement", &placement, &grid, &FaultMap::new());
    let kernel = WearCertificate::broadcast(
        &shipped_programs()
            .into_iter()
            .find(|e| e.name == "comparator-eq")
            .expect("registry ships the comparator")
            .program,
    );
    let budget = kernel
        .runs_to_first_rating_violation(&device)
        .map_or("unbounded runs".to_string(), |(runs, column)| {
            format!("{runs} comparator runs to r{column} rating violation per tile")
        });
    println!(
        "{report}  [{} tiles x {} devices; {budget}]",
        grid.tiles(),
        grid.tile_devices
    );
    ok &= report.passes(deny_warnings);
    ok
}

fn run_fixtures() -> bool {
    let fixtures = seeded_defects();
    let mut rejected_count = 0usize;
    for fixture in &fixtures {
        let report = fixture.verify();
        let rejected = fixture.rejected_as_expected();
        rejected_count += usize::from(rejected);
        println!(
            "{}: {} (expected code `{}`)",
            fixture.name(),
            if rejected { "rejected" } else { "NOT REJECTED" },
            fixture.expected_code()
        );
        for d in &report.diagnostics {
            println!("  {d}");
        }
    }
    // The summary derives its count from the registry: adding a
    // fixture must never require touching the CLI.
    println!(
        "{rejected_count}/{} seeded-defect fixtures rejected",
        fixtures.len()
    );
    rejected_count == fixtures.len()
}

fn list_registry() {
    for entry in shipped_programs() {
        println!(
            "program  {:<22} {:>4} steps {:>4} registers {:>3} rows",
            entry.name,
            entry.program.len(),
            entry.program.registers,
            entry.rows
        );
    }
    for entry in shipped_graphs() {
        println!(
            "graph    {:<22} {:>4} nodes",
            entry.name,
            entry.graph.nodes().len()
        );
    }
    for entry in shipped_splits() {
        println!(
            "split    {:<22} {:>9} units ({} cim / {} host)",
            entry.name, entry.claim.units, entry.claim.cim_units, entry.claim.host_units
        );
    }
}

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut fixtures = false;
    let mut list = false;
    let mut wear_skew = cim_verify::DEFAULT_WEAR_SKEW_THRESHOLD;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--fixtures" => fixtures = true,
            "--list" => list = true,
            "--wear-skew" => {
                // A non-finite threshold would switch the endurance
                // pass off (`skew > NaN` never holds), so it is a usage
                // error like a missing one.
                let Some(value) = args
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|v| v.is_finite())
                else {
                    eprintln!("cimlint: --wear-skew needs a numeric threshold");
                    return ExitCode::from(2);
                };
                wear_skew = value;
            }
            "--help" | "-h" => {
                println!(
                    "usage: cimlint [--deny-warnings] [--fixtures] [--wear-skew <x>] [--list]\n\
                     lints every shipped program/graph; see crate docs"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("cimlint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    if list {
        list_registry();
        return ExitCode::SUCCESS;
    }
    let ok = if fixtures {
        run_fixtures()
    } else {
        lint_shipped(deny_warnings, wear_skew)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
