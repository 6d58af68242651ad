//! `cimbench`: the repository benchmark. It measures how fast the
//! simulator produces its modelled results, on host time, end to end
//! and layer by layer.
//!
//! ```bash
//! cargo run --release --manifest-path crates/bench/src/bin/cimbench/Cargo.toml -- \
//!     --workload dna --seed 1 [--seconds 20] [--trace 0|1] [--threads N] [--passes N]
//! ```
//!
//! One client runs passes back to back (a closed loop), calling the
//! layers' public functions only. The layers run on one host thread
//! unless `--threads` asks for more, up to `available_parallelism`: on
//! a small shared host, two-thread passes move several times more from
//! run to run than one-thread passes, too much for the gated metrics.
//! Every pass is checked against a 1-thread reference computed during
//! set-up. Each metric is printed as `name value unit`; the last line is
//! a JSON object with the gated metrics. A failed check makes the exit
//! status non-zero. See README.md in this directory.

mod additions;
mod crossbar_rw;
mod dna;
mod metrics;
mod runner;
mod serve;
mod trace;

#[cfg(test)]
mod tests;

use std::process::{exit, Command};
use std::time::Duration;

use cim_bench::Args;

use crate::metrics::{result_line, Metric};
use crate::runner::Workload as _;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    dna::Dna::NAME,
    additions::Additions::NAME,
    serve::Serve::NAME,
    crossbar_rw::CrossbarRw::NAME,
];

const FLAGS: [&str; 6] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--threads",
    "--passes",
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload measured (or, traced, the one timed for overhead).
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// How long the timed passes run; the `BENCHMARK.json` command is
    /// run with its `run_seconds` here.
    pub seconds: Duration,
    /// Per-layer spans instead of end-to-end metrics.
    pub trace: bool,
    /// Host threads the layers run on: 1 by default, never more than
    /// the host's cores.
    pub threads: usize,
    /// Upper bound on passes, for smoke runs.
    pub passes: usize,
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: cimbench --workload <{}|all> [--seed N] [--seconds N] [--trace 0|1] \
         [--threads N] [--passes N]",
        WORKLOADS.join("|")
    );
    exit(2);
}

/// Parses the flags; anything malformed exits with status 2.
fn parse(argv: &[String], host_cores: usize) -> Config {
    for (i, arg) in argv.iter().enumerate() {
        if i % 2 == 0 && !FLAGS.contains(&arg.as_str()) {
            usage(&format!("unexpected argument `{arg}`"));
        }
    }
    if argv.len() % 2 == 1 {
        usage(&format!("{} expects a value", argv[argv.len() - 1]));
    }
    let args = Args::from_list(&argv.iter().map(String::as_str).collect::<Vec<_>>());
    let workload = match args.value("--workload") {
        Some(w) if w == "all" || WORKLOADS.contains(&w) => w.to_string(),
        Some(w) => usage(&format!("unknown workload `{w}`")),
        None => usage("--workload is required"),
    };
    let trace = match args.numeric("--trace", 0) {
        0 => false,
        1 => true,
        other => usage(&format!("--trace expects 0 or 1, got {other}")),
    };
    Config {
        workload,
        seed: args.numeric("--seed", 2015) as u64,
        seconds: Duration::from_secs(args.numeric("--seconds", 20) as u64),
        trace,
        threads: args.numeric("--threads", 1).clamp(1, host_cores),
        passes: args.numeric("--passes", usize::MAX).max(1),
    }
}

/// Runs one workload in this process.
pub fn run(config: &Config) -> Result<runner::Report, String> {
    if config.trace {
        return runner::trace(config);
    }
    match config.workload.as_str() {
        dna::Dna::NAME => runner::measure::<dna::Dna>(config),
        additions::Additions::NAME => runner::measure::<additions::Additions>(config),
        serve::Serve::NAME => runner::measure::<serve::Serve>(config),
        crossbar_rw::CrossbarRw::NAME => runner::measure::<crossbar_rw::CrossbarRw>(config),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Re-executes this binary once per workload, so each process's peak
/// memory is its own workload's.
fn run_all(argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut status = 0;
    for workload in WORKLOADS {
        let mut args: Vec<String> = Vec::new();
        for pair in argv.chunks(2) {
            if pair[0] != "--workload" {
                args.extend_from_slice(pair);
            }
        }
        let code = Command::new(&exe)
            .args(["--workload", workload])
            .args(&args)
            .status()
            .map_or(1, |s| s.code().unwrap_or(1));
        if code != 0 {
            eprintln!("[fail] {workload} exited with status {code}");
            status = code;
        }
    }
    status
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let config = parse(&argv, host_cores);
    if config.workload == "all" {
        exit(run_all(&argv));
    }

    let report = run(&config).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    let header = [
        Metric::new("host_cores", host_cores as f64, "count"),
        Metric::new("threads", config.threads as f64, "count"),
    ];
    for m in header.iter().chain(&report.lines) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(report.tally.attempted, report.tally.failed, &report.gated)
    );
    if report.tally.failed > 0 {
        exit(1);
    }
}
