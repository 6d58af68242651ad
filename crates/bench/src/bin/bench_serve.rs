//! Serving snapshot: drives sustained multi-tenant DNA query traffic
//! (lookup / compare / add) through the tiled fabric's serving
//! front-end and writes throughput and latency numbers to
//! `BENCH_serve.json` at the workspace root, so the serving-path
//! trajectory is tracked in-repo from PR to PR.
//!
//! ```bash
//! cargo run --release -p cim-bench --bin bench_serve              # full run
//! cargo run --release -p cim-bench --bin bench_serve -- --check   # regenerate + compare
//! cargo run --release -p cim-bench --bin bench_serve -- \
//!     --tiles 4 --threads 4 --queue-depth 256 --tenant-quota 96
//! ```
//!
//! Every run re-proves the fabric's two contracts before writing the
//! snapshot: the serve trace is bit-identical across executed tile
//! counts and thread counts, and the per-tile counts merge to the
//! fabric counts, whose priced evaluation is the fabric ledger
//! (checked through `cim_verify::certify_tiles`).
//!
//! The `host_*` fields are wall clocks of the machine that ran the
//! snapshot, recorded with its `host_cores`; every other field is
//! modelled and host-independent. The `fabric_<component>_<phase>_*`
//! fields are the fabric ledger's non-zero cells, so a one-ulp change
//! to any fabric price the run charges fails `--check`. `--check`
//! regenerates the snapshot in memory (same flags, so the defaults
//! reproduce the checked-in run), writes nothing, and requires the
//! checked-in file to carry the same fields in the same order, every
//! modelled value byte-identical and every host value numeric
//! ([`cim_bench::Snapshot::check`]). An unknown flag, or a value flag
//! without its value, exits 2.

use std::time::Instant;

use cim_bench::{repo_root_file, Args, Snapshot};
use cim_fabric::{
    DispatchPolicy, FabricExecutor, ServeConfig, ServeFrontEnd, ServeReport, TrafficSpec,
};
use cim_sim::BatchPolicy;
use cim_verify::{certify_tiles, TileClaim};

const SCHEMA: &str = "cim-bench-serve/3";

fn front_end(tiles: usize, threads: usize, config: ServeConfig) -> ServeFrontEnd {
    ServeFrontEnd {
        fabric: FabricExecutor::paper(1, tiles as u32, BatchPolicy::with_threads(threads)),
        config,
        policy: DispatchPolicy::AlwaysCim,
    }
}

/// Asserts the full determinism + conservation contract of `report`
/// against re-runs on other partitions, and certifies the tile counts.
fn prove_contracts(
    fe: &ServeFrontEnd,
    report: &ServeReport,
    traffic: &TrafficSpec,
    config: ServeConfig,
) {
    assert!(report.conserves(), "serve report does not conserve");
    for (tiles, threads) in [(1usize, 1usize), (2, 4)] {
        let other = front_end(tiles, threads, config)
            .serve(traffic)
            .expect("contract re-run");
        assert_eq!(
            other.checksum, report.checksum,
            "{tiles}x{threads} checksum"
        );
        assert_eq!(
            other.fabric_ledger, report.fabric_ledger,
            "{tiles}x{threads} ledger"
        );
        assert_eq!(
            other.histogram, report.histogram,
            "{tiles}x{threads} latencies"
        );
    }
    let claims: Vec<TileClaim> = report
        .tiles
        .iter()
        .map(|t| TileClaim {
            tile: t.tile,
            counts: t.counts.clone(),
        })
        .collect();
    let cert = certify_tiles(
        "serve",
        &fe.prices(),
        &claims,
        &report.fabric_counts,
        &report.fabric_ledger,
    );
    assert!(cert.is_clean(), "tile certification failed:\n{cert}");
}

fn main() {
    let args = Args::capture_strict(
        &["--check"],
        &[
            "--queries",
            "--tiles",
            "--threads",
            "--queue-depth",
            "--tenant-quota",
            "--max-batch",
        ],
    );
    snapshot(&args).finish(&repo_root_file("BENCH_serve.json"), &args);
}

/// Runs the serving snapshot under `args`, proves its contracts, prints
/// the summary, and returns the snapshot.
fn snapshot(args: &Args) -> Snapshot {
    let queries = args.numeric("--queries", 20_000);
    let tiles = args.numeric("--tiles", 4).max(1);
    let threads = args.numeric("--threads", 4);
    let config = ServeConfig {
        queue_depth: args.numeric("--queue-depth", 256),
        tenant_quota: args.numeric("--tenant-quota", 96),
        max_batch: args.numeric("--max-batch", 64),
        mean_gap_ps: 2_000,
    };
    let traffic = TrafficSpec::sustained(queries as u64, 2015);
    let fe = front_end(tiles, threads, config);
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    // Host wall clock: median of seven full serve replays.
    let mut report = fe.serve(&traffic).expect("warm-up serve");
    let mut wall: Vec<u128> = (0..7)
        .map(|_| {
            let start = Instant::now();
            report = fe.serve(&traffic).expect("timed serve");
            start.elapsed().as_nanos()
        })
        .collect();
    wall.sort_unstable();
    let host_wall_ns = wall[wall.len() / 2] as f64;
    let host_qps = report.completed as f64 * 1e9 / host_wall_ns;

    prove_contracts(&fe, &report, &traffic, config);

    let p50_ns = report.p50().get() * 1e9;
    let p99_ns = report.p99().get() * 1e9;
    let makespan_ns = report.makespan.get() * 1e9;
    let energy_j = report.fabric_ledger.total_energy().get();

    println!(
        "== serving snapshot ({queries} queries, {tiles} tiles, {threads} threads, \
         {host_cores} host cores) =="
    );
    println!(
        "admitted {:>8}   rejected {:>6} (queue) + {:>5} (quota)   batches {:>6}   peak queue {}",
        report.admitted,
        report.rejected_queue_full,
        report.rejected_quota,
        report.batches,
        report.peak_queue
    );
    println!(
        "modelled makespan  {makespan_ns:>12.1} ns   throughput {:>12.3e} q/s",
        report.throughput_qps
    );
    println!("modelled latency   p50 {p50_ns:>8.1} ns   p99 {p99_ns:>8.1} ns");
    println!("host wall          {host_wall_ns:>12.0} ns   throughput {host_qps:>12.0} q/s");
    println!("fabric energy      {energy_j:>12.3e} J   (ledger conserves bit-for-bit)");

    let mut snap = Snapshot::default();
    snap.modelled("schema", SCHEMA)
        .modelled("queries", queries)
        .modelled("tenants", u64::from(traffic.tenants))
        .modelled("tiles", tiles)
        .modelled("threads", threads)
        .host("host_cores", host_cores)
        .modelled("queue_depth", config.queue_depth)
        .modelled("tenant_quota", config.tenant_quota)
        .modelled("max_batch", config.max_batch)
        .modelled("admitted", report.admitted)
        .modelled("rejected_queue_full", report.rejected_queue_full)
        .modelled("rejected_quota", report.rejected_quota)
        .modelled("batches", report.batches)
        .modelled("peak_queue", report.peak_queue)
        .modelled("modelled_makespan_ns", makespan_ns)
        .modelled("modelled_throughput_qps", report.throughput_qps)
        .modelled("p50_ns", p50_ns)
        .modelled("p99_ns", p99_ns)
        .host("host_wall_ns", host_wall_ns)
        .host("host_throughput_qps", host_qps)
        .modelled("fabric_energy_j", energy_j);
    // Each charged cell is an exact count times a dyadic unit price, so
    // a one-ulp change to any charged fabric price moves its cell here
    // even where the totals above round it away.
    for cell in report.fabric_ledger.entries() {
        let key = format!("fabric_{}_{}", cell.component, cell.phase);
        snap.modelled(&format!("{key}_energy_j"), cell.energy.get())
            .modelled(&format!("{key}_time_s"), cell.time.get());
    }
    snap
}
