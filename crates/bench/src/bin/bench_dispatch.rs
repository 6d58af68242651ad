//! Hybrid-dispatch snapshot: scores the certificate-driven dispatcher
//! against both pure policies and the offline oracle on the shipped
//! workload mix, measures the split-dispatch speedup of running both
//! machines concurrently on one workload, and writes the comparison to
//! `BENCH_dispatch.json` at the workspace root.
//!
//! ```bash
//! cargo run --release -p cim-bench --bin bench_dispatch              # full run
//! cargo run --release -p cim-bench --bin bench_dispatch -- --check   # gate + regenerate + compare
//! cargo run --release -p cim-bench --bin bench_dispatch -- --objective edp
//! cargo run --release -p cim-bench --bin bench_dispatch -- --calibration cal.txt
//! ```
//!
//! Three whole-workload scenarios, each scored four ways under one
//! objective (lower is better): route everything to the crossbar
//! (`always_cim`), route everything to the conventional host
//! (`always_host`), let the certificate-driven dispatcher choose
//! (`hybrid`), and the offline oracle (per-unit best of both machines
//! with perfect hindsight).
//!
//! The **split scenario** pins both machines at a fixed capacity and
//! partitions one addition stream between them with a makespan-balanced
//! [`cim_units::SplitPlan`], running the shards
//! concurrently: `split_speedup` is the best whole-workload makespan
//! (either machine solo — the whole-workload hybrid picks one of them)
//! divided by the split makespan, and every run exits 1 when it falls
//! below 1.1×.
//!
//! Every field but `host_cores` (the core count of the machine that
//! wrote the snapshot) is modelled. `--check` regenerates the snapshot
//! in memory with the same flags (the defaults reproduce the checked-in
//! full-scale run), writes nothing, and requires the checked-in file to
//! carry the same fields in the same order with every modelled value
//! byte-identical and `host_cores` numeric
//! ([`cim_bench::Snapshot::check`]), so a change to the model fails it
//! until the snapshot is regenerated. An unknown flag, or a value flag
//! without its value, exits 2.
//!
//! `--calibration <path>` carries calibrator state across sessions: the
//! file is loaded before the run when it exists (exact dyadic
//! round-trip; see `cim_dispatch::Calibrator::save`) and rewritten
//! after, except under `--check`.
//!
//! Every run re-proves the dispatch contracts before writing the
//! snapshot: decision traces and split outcomes are bit-identical
//! across thread counts, one-sided split plans reproduce the solo runs
//! exactly, the split claim certifies clean, the hybrid lands within 5%
//! of the oracle, and each pure policy loses at least one scenario.

use cim_bench::{repo_root_file, Args, Snapshot};
use cim_dispatch::{split_claim, Calibrator, HybridExecutor};
use cim_fabric::{
    DispatchPolicy, FabricExecutor, ServeConfig, ServeFrontEnd, ServeReport, TrafficSpec,
};
use cim_sim::{BatchPolicy, CimExecutor, ConventionalExecutor, ExecutionBackend, RunOutcome};
use cim_units::{DispatchObjective, Energy, SplitPlan, Time};
use cim_workloads::{AdditionWorkload, DnaWorkload, Shardable};

const SCHEMA: &str = "cim-bench-dispatch/2";

/// The gate on the measured split speedup: splitting one workload
/// across both machines must beat the best whole-workload policy by at
/// least this factor.
const SPLIT_SPEEDUP_GATE: f64 = 1.1;

/// Strict objective flag: absent → energy, present-but-garbage → exit 2.
fn objective_flag(args: &Args) -> DispatchObjective {
    match args.value("--objective") {
        None => DispatchObjective::Energy,
        Some(raw) => DispatchObjective::parse(raw).unwrap_or_else(|| {
            eprintln!("error: --objective expects energy|makespan|energy_delay|edp, got `{raw}`");
            std::process::exit(2);
        }),
    }
}

/// The four scores of one scenario, all under the same objective.
struct Scenario {
    name: &'static str,
    hybrid: f64,
    always_cim: f64,
    always_host: f64,
    oracle: f64,
}

fn hybrid_executor(
    threads: usize,
    objective: DispatchObjective,
    calibrator: Calibrator,
) -> HybridExecutor<CimExecutor, ConventionalExecutor> {
    let policy = BatchPolicy::with_threads(threads);
    HybridExecutor::with_calibrator(
        CimExecutor::with_batch(policy),
        ConventionalExecutor::with_batch(policy),
        objective,
        calibrator,
    )
}

/// Scores one whole-workload scenario: both machines run solo (the
/// pure policies *and* the oracle's two candidates), the hybrid runs
/// through its frozen dispatcher.
fn executor_scenario<W>(
    name: &'static str,
    workload: &W,
    threads: usize,
    objective: DispatchObjective,
    hybrid: &mut HybridExecutor<CimExecutor, ConventionalExecutor>,
) -> Scenario
where
    W: cim_workloads::Workload,
    CimExecutor: ExecutionBackend<W>,
    ConventionalExecutor: ExecutionBackend<W>,
{
    let policy = BatchPolicy::with_threads(threads);
    let score = |outcome: &cim_sim::RunOutcome| {
        objective.score(outcome.ledger.total_energy(), outcome.ledger.total_time())
    };
    let cim = CimExecutor::with_batch(policy)
        .run(workload)
        .expect("cim run");
    let host = ConventionalExecutor::with_batch(policy)
        .run(workload)
        .expect("host run");
    let dispatched = hybrid.dispatch(workload).expect("hybrid dispatch");
    let always_cim = score(&cim);
    let always_host = score(&host);
    Scenario {
        name,
        hybrid: score(&dispatched),
        always_cim,
        always_host,
        oracle: always_cim.min(always_host),
    }
}

fn front_end(policy: DispatchPolicy, tiles: u32, threads: usize) -> ServeFrontEnd {
    ServeFrontEnd {
        fabric: FabricExecutor::paper(1, tiles, BatchPolicy::with_threads(threads)),
        config: ServeConfig::sustained(),
        policy,
    }
}

/// A serve report's score under `objective`: total energy across both
/// machines' ledgers, against the modelled makespan.
fn serve_score(report: &ServeReport, objective: DispatchObjective) -> f64 {
    let energy = Energy::new(
        report.fabric_ledger.total_energy().get() + report.host_ledger.total_energy().get(),
    );
    objective.score(energy, report.makespan)
}

/// Scores the serving scenario under all three policies. The per-query
/// oracle *is* the identity-calibrated hybrid route table (each query
/// kind goes to the machine whose true prices score it lower), so the
/// oracle column equals the hybrid one by construction.
fn serve_scenario(
    traffic: &TrafficSpec,
    threads: usize,
    objective: DispatchObjective,
) -> (Scenario, ServeReport) {
    let hybrid_report = front_end(DispatchPolicy::hybrid(objective), 4, threads)
        .serve(traffic)
        .expect("hybrid serve");
    let cim_report = front_end(DispatchPolicy::AlwaysCim, 4, threads)
        .serve(traffic)
        .expect("always-cim serve");
    let host_report = front_end(DispatchPolicy::AlwaysHost, 4, threads)
        .serve(traffic)
        .expect("always-host serve");
    let hybrid = serve_score(&hybrid_report, objective);
    (
        Scenario {
            name: "serve",
            hybrid,
            always_cim: serve_score(&cim_report, objective),
            always_host: serve_score(&host_report, objective),
            oracle: hybrid,
        },
        hybrid_report,
    )
}

/// What the split scenario measured.
struct SplitBench {
    plan: SplitPlan,
    split_makespan: Time,
    whole_best: Time,
    speedup: f64,
}

/// Measures the split-dispatch win at a fixed machine capacity: the
/// workload's unit stream is partitioned by the makespan-balanced plan
/// and both shards run concurrently, against the best *whole*-workload
/// makespan (either machine solo at the same capacity; the
/// whole-workload hybrid routes to one of exactly these two, so the
/// minimum covers all three baselines).
fn split_scenario(adds: &AdditionWorkload, capacity: u64, threads: usize) -> SplitBench {
    let executor = hybrid_executor(threads, DispatchObjective::Makespan, Calibrator::frozen());
    let outcome = executor
        .dispatch_split(adds, capacity)
        .expect("split dispatch");
    let units = adds.units();
    let whole = adds.shard(0, units, capacity);
    let cim_whole = ExecutionBackend::run(&executor.cim, &whole).expect("cim whole");
    let host_whole = ExecutionBackend::run(&executor.host, &whole).expect("host whole");
    // Same answer however the stream is partitioned.
    assert_eq!(outcome.checksum(), cim_whole.digest.checksum);
    assert_eq!(outcome.checksum(), host_whole.digest.checksum);
    assert_eq!(outcome.operations(), units);
    let whole_best = cim_whole
        .ledger
        .total_time()
        .min(host_whole.ledger.total_time());
    let split_makespan = outcome.makespan();
    SplitBench {
        plan: outcome.plan,
        split_makespan,
        whole_best,
        speedup: whole_best.get() / split_makespan.get(),
    }
}

/// Asserts the split-dispatch contracts: outcomes are bit-identical
/// across thread counts, one-sided plans reproduce the solo shard runs
/// exactly, and the split claim certifies clean under `certify_split`.
fn prove_split_contracts(adds: &AdditionWorkload, capacity: u64) {
    let reference = hybrid_executor(1, DispatchObjective::Makespan, Calibrator::frozen());
    let plan = reference.split_plan(adds, capacity);
    let reference_outcome = reference
        .run_split(adds, capacity, &plan)
        .expect("reference split");
    for threads in [2usize, 4] {
        let other = hybrid_executor(threads, DispatchObjective::Makespan, Calibrator::frozen());
        assert_eq!(
            other.split_plan(adds, capacity),
            plan,
            "split plan differs at {threads} threads"
        );
        let outcome = other
            .run_split(adds, capacity, &plan)
            .expect("split re-run");
        assert_eq!(
            outcome.ledger(),
            reference_outcome.ledger(),
            "split ledger differs at {threads} threads"
        );
        assert_eq!(outcome.checksum(), reference_outcome.checksum());
        assert_eq!(outcome.makespan(), reference_outcome.makespan());
    }
    // One-sided plans are the solo runs, bit for bit.
    let units = adds.units();
    let whole = adds.shard(0, units, capacity);
    let all_cim = SplitPlan::all_cim(units, plan.cim_score(), plan.host_score());
    let one_sided = reference
        .run_split(adds, capacity, &all_cim)
        .expect("all-cim split");
    let solo: RunOutcome = ExecutionBackend::run(&reference.cim, &whole).expect("solo cim");
    assert_eq!(one_sided.cim.as_ref(), Some(&solo), "all-cim != solo cim");
    let all_host = SplitPlan::all_host(units, plan.cim_score(), plan.host_score());
    let one_sided = reference
        .run_split(adds, capacity, &all_host)
        .expect("all-host split");
    let solo: RunOutcome = ExecutionBackend::run(&reference.host, &whole).expect("solo host");
    assert_eq!(
        one_sided.host.as_ref(),
        Some(&solo),
        "all-host != solo host"
    );
    // The decision itself certifies: shard estimates, calibration
    // scales, and the combined ledger re-derive cell-bitwise.
    let cim_estimate = reference
        .cim
        .estimate(&adds.shard(0, plan.cim_units(), capacity));
    let host_estimate =
        reference
            .host
            .estimate(&adds.shard(plan.cim_units(), plan.host_units(), capacity));
    let claim = split_claim(
        &plan,
        &cim_estimate,
        &host_estimate,
        reference.calibrator().cim_scales(),
        reference.calibrator().host_scales(),
    );
    assert!(
        cim_verify::certify_split("bench-split", &claim).is_clean(),
        "split claim does not certify"
    );
}

/// Asserts the dispatch contracts: the decision trace is bit-identical
/// across thread counts, serve results are thread-count independent
/// under the hybrid policy, the hybrid lands within 5% of the offline
/// oracle everywhere, and each pure policy loses at least one scenario.
fn prove_contracts(
    scenarios: &[Scenario],
    dna: &DnaWorkload,
    adds: &AdditionWorkload,
    traffic: &TrafficSpec,
    objective: DispatchObjective,
    hybrid_serve: &ServeReport,
) {
    let mut reference = hybrid_executor(1, objective, Calibrator::frozen());
    reference.dispatch(dna).expect("reference dna");
    reference.dispatch(adds).expect("reference adds");
    for threads in [2usize, 4] {
        let mut other = hybrid_executor(threads, objective, Calibrator::frozen());
        other.dispatch(dna).expect("re-run dna");
        other.dispatch(adds).expect("re-run adds");
        assert_eq!(
            other.trace(),
            reference.trace(),
            "dispatch trace differs at {threads} threads"
        );
    }
    for (tiles, threads) in [(1u32, 1usize), (2, 4)] {
        let other = front_end(DispatchPolicy::hybrid(objective), tiles, threads)
            .serve(traffic)
            .expect("serve re-run");
        assert_eq!(
            other.checksum, hybrid_serve.checksum,
            "{tiles}x{threads} hybrid serve checksum"
        );
        assert_eq!(
            (other.cim_queries, other.host_queries, other.mispredictions),
            (
                hybrid_serve.cim_queries,
                hybrid_serve.host_queries,
                hybrid_serve.mispredictions
            ),
            "{tiles}x{threads} hybrid serve routing"
        );
    }
    assert!(hybrid_serve.conserves(), "hybrid serve does not conserve");
    for s in scenarios {
        assert!(
            s.hybrid <= s.oracle * 1.05,
            "{}: hybrid {:.4e} misses the oracle {:.4e} by more than 5%",
            s.name,
            s.hybrid,
            s.oracle
        );
    }
    assert!(
        scenarios.iter().any(|s| s.always_cim > s.hybrid),
        "always-cim never loses a scenario; the dispatcher is pointless"
    );
    assert!(
        scenarios.iter().any(|s| s.always_host > s.hybrid),
        "always-host never loses a scenario; the dispatcher is pointless"
    );
}

fn main() {
    let args = Args::capture_strict(
        &["--check"],
        &[
            "--objective",
            "--calibration",
            "--threads",
            "--ref-len",
            "--ops",
            "--queries",
            "--split-ops",
            "--split-capacity",
        ],
    );
    snapshot(&args).finish(&repo_root_file("BENCH_dispatch.json"), &args);
}

/// Runs every dispatch scenario under `args`, proves the contracts,
/// prints the summary, applies the split gate, and returns the snapshot.
fn snapshot(args: &Args) -> Snapshot {
    let objective = objective_flag(args);
    let calibration = args.value("--calibration").map(std::path::PathBuf::from);
    let threads = args.numeric("--threads", 4);
    let ref_len = args.numeric("--ref-len", 1 << 14);
    let n_ops = args.numeric("--ops", 1 << 14);
    let queries = args.numeric("--queries", 16_000);
    // The split scenario's stream and the fixed machine capacity both
    // shards are priced at.
    let split_ops = args.numeric("--split-ops", 1 << 21);
    let split_capacity = args.numeric("--split-capacity", 1 << 16);

    let calibrator = match &calibration {
        Some(path) if path.exists() => Calibrator::load(path).unwrap_or_else(|e| {
            eprintln!("error: cannot load calibrator from {}: {e}", path.display());
            std::process::exit(2);
        }),
        _ => Calibrator::frozen(),
    };

    let dna = DnaWorkload::scaled(ref_len as u64, 64);
    let adds = AdditionWorkload::scaled(n_ops as u64, 7);
    let split_adds = AdditionWorkload::scaled(split_ops as u64, 7);
    let traffic = TrafficSpec::sustained(queries as u64, 2015);

    let mut hybrid = hybrid_executor(threads, objective, calibrator);
    let dna_scenario = executor_scenario("dna", &dna, threads, objective, &mut hybrid);
    let adds_scenario = executor_scenario("additions", &adds, threads, objective, &mut hybrid);
    let (serve, hybrid_serve) = serve_scenario(&traffic, threads, objective);
    let split = split_scenario(&split_adds, split_capacity as u64, threads);
    let decisions = hybrid.trace().len() as u64 + hybrid_serve.completed;
    let mispredictions = hybrid.trace().mispredictions() + hybrid_serve.mispredictions;
    let scenarios = [dna_scenario, adds_scenario, serve];

    prove_contracts(&scenarios, &dna, &adds, &traffic, objective, &hybrid_serve);
    prove_split_contracts(&split_adds, split_capacity as u64);

    if let Some(path) = calibration.as_ref().filter(|_| !args.has("--check")) {
        hybrid.calibrator().save(path).unwrap_or_else(|e| {
            eprintln!("error: cannot save calibrator to {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("[calibration] saved to {}", path.display());
    }

    println!("== dispatch snapshot (objective {objective}, {threads} threads) ==");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "scenario", "hybrid", "always_cim", "always_host", "oracle"
    );
    for s in &scenarios {
        println!(
            "{:<10} {:>14.4e} {:>14.4e} {:>14.4e} {:>14.4e}",
            s.name, s.hybrid, s.always_cim, s.always_host, s.oracle
        );
    }
    println!(
        "split      {} units -> {} cim / {} host; makespan {:.4e}s vs whole {:.4e}s; speedup {:.3}x",
        split.plan.units(),
        split.plan.cim_units(),
        split.plan.host_units(),
        split.split_makespan.get(),
        split.whole_best.get(),
        split.speedup
    );
    println!("decisions {decisions}   mispredictions {mispredictions}");

    if split.speedup < SPLIT_SPEEDUP_GATE {
        eprintln!(
            "[fail] split_speedup {:.4} is below the {SPLIT_SPEEDUP_GATE}x gate",
            split.speedup
        );
        std::process::exit(1);
    }

    let mut snap = Snapshot::default();
    snap.modelled("schema", SCHEMA)
        .modelled("objective", objective.to_string())
        .modelled(
            "calibration",
            calibration.as_ref().map_or_else(
                || "frozen-identity".to_string(),
                |p| p.display().to_string(),
            ),
        )
        .host(
            "host_cores",
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        );
    for s in &scenarios {
        snap.modelled(&format!("{}_hybrid", s.name), s.hybrid)
            .modelled(&format!("{}_always_cim", s.name), s.always_cim)
            .modelled(&format!("{}_always_host", s.name), s.always_host)
            .modelled(&format!("{}_oracle", s.name), s.oracle);
    }
    snap.modelled("split_cim_units", split.plan.cim_units())
        .modelled("split_host_units", split.plan.host_units())
        .modelled("split_makespan_ps", split.split_makespan.get() * 1e12)
        .modelled("split_whole_best_ps", split.whole_best.get() * 1e12)
        .modelled("split_speedup", split.speedup)
        .modelled("decisions", decisions)
        .modelled("mispredictions", mispredictions);
    snap
}
