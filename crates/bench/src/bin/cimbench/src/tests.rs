use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Duration;

use crate::metrics::{percentile, tail_percentile, P99_SAMPLES};
use crate::runner::{Report, Workload, SETUPS};
use crate::trace::Tracer;
use crate::{additions, crossbar_rw, dna, run, serve, Config, WORKLOADS};

/// Serialises the tests that time passes: the traced run checks its
/// replays against its passes, which contention from a parallel test
/// would skew.
static TIMED: Mutex<()> = Mutex::new(());

/// A two-pass run of `workload`.
fn smoke(workload: &str, trace: bool) -> Report {
    let _timed = TIMED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    run(&Config {
        workload: workload.to_string(),
        seed: 1,
        seconds: Duration::ZERO,
        trace,
        threads: cores.min(2),
        passes: 2,
    })
    .expect("smoke run")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric names a section of BENCHMARK.json lists.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closed name")].to_string())
        .collect()
}

fn names(report: &Report) -> BTreeSet<String> {
    report.gated.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    for n in 1..3000 {
        let values: Vec<f64> = (0..n).map(f64::from).collect();
        let beyond = |p| {
            let v = percentile(&values, p);
            values.iter().filter(|&&x| x > v).count()
        };
        match tail_percentile(n as usize) {
            Some(p) => {
                assert!(beyond(p) >= 10, "n={n}: p{p} keeps {} beyond", beyond(p));
                for higher in [0.5, 0.9, 0.99, 0.999].into_iter().filter(|&q| q > p) {
                    assert!(beyond(higher) < 10, "n={n}: p{higher} also qualifies");
                }
            }
            None => assert!(beyond(0.5) < 10, "n={n}: the median qualifies"),
        }
    }
    assert_eq!(tail_percentile(P99_SAMPLES), Some(0.99));
    assert!(tail_percentile(P99_SAMPLES - 1) < Some(0.99));
    // The crossbar's traced passes hold enough writes for their p99.
    let writes = crossbar_rw::CrossbarRw::MIN_TRACED_PASSES * crossbar_rw::WRITES_PER_PASS;
    assert!(writes >= P99_SAMPLES);
}

#[test]
fn every_workload_smoke_runs_clean_and_reports_declared_metrics() {
    let end_to_end = declared("end_to_end");
    for workload in WORKLOADS {
        let report = smoke(workload, false);
        assert_eq!(report.tally.failed, 0, "{workload}");
        // Cold passes, the two passes, and the modelled canary.
        assert_eq!(report.tally.attempted, SETUPS as u64 + 3, "{workload}");
        let failed_ratio = report.lines.iter().find(|m| m.name == "failed_ratio");
        assert_eq!(failed_ratio.map(|m| m.value), Some(0.0), "{workload}");
        assert!(
            report.lines.iter().all(|m| valid_name(m.name)),
            "{workload}"
        );
        assert_eq!(names(&report), end_to_end, "{workload}");
        assert!(report.gated.iter().all(|m| m.value > 0.0), "{workload}");
    }
}

#[test]
fn traced_run_reports_every_declared_layer_metric() {
    let report = smoke("serve", true);
    assert_eq!(report.tally.failed, 0);
    assert!(report.lines.iter().all(|m| valid_name(m.name)));
    assert_eq!(names(&report), declared("per_layer"));
}

/// Modelled `(energy, time)` bits and the input checksum at `seed`.
fn modelled_at<W: Workload>(seed: u64) -> ((u64, u64), u64) {
    let _timed = TIMED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let bench = W::build(seed, 2);
    let output = bench.pass(bench.input(), &mut Tracer::off()).expect("pass");
    let (energy, time) = W::modelled(&output);
    ((energy.to_bits(), time.to_bits()), bench.input_checksum())
}

fn seeds_drive_inputs<W: Workload>() {
    let (modelled, checksum) = modelled_at::<W>(1);
    let (again, same) = modelled_at::<W>(1);
    assert_eq!(modelled, again, "{}: modelled values moved", W::NAME);
    assert_eq!(checksum, same, "{}", W::NAME);
    assert_ne!(checksum, modelled_at::<W>(2).1, "{}: seed ignored", W::NAME);
}

#[test]
fn same_seed_same_modelled_values_other_seed_other_inputs() {
    seeds_drive_inputs::<dna::Dna>();
    seeds_drive_inputs::<additions::Additions>();
    seeds_drive_inputs::<serve::Serve>();
    seeds_drive_inputs::<crossbar_rw::CrossbarRw>();
}
