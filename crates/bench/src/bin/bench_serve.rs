//! Serving snapshot: drives sustained multi-tenant DNA query traffic
//! (lookup / compare / add) through the tiled fabric's serving
//! front-end and writes throughput and latency numbers to
//! `BENCH_serve.json` at the workspace root, so the serving-path
//! trajectory is tracked in-repo from PR to PR.
//!
//! ```bash
//! cargo run --release -p cim-bench --bin bench_serve              # full run
//! cargo run --release -p cim-bench --bin bench_serve -- --quick   # CI-sized
//! cargo run --release -p cim-bench --bin bench_serve -- --check   # regenerate + compare
//! cargo run --release -p cim-bench --bin bench_serve -- \
//!     --tiles 4 --threads 4 --queue-depth 256 --tenant-quota 96
//! ```
//!
//! Every run re-proves the fabric's two contracts before writing the
//! snapshot: the serve trace is bit-identical across executed tile
//! counts and thread counts, and the per-tile ledgers sum bit-for-bit
//! to the fabric ledger (checked through `cim_verify::certify_tiles`).
//!
//! The `host_*` fields are wall clocks of the machine that ran the
//! snapshot, recorded with its `host_cores`; every other field is
//! modelled and host-independent. `--check` requires every field of the
//! checked-in snapshot to be present and every field but `schema`
//! numeric, then regenerates the snapshot in memory (same flags, so the
//! defaults reproduce the checked-in full run) and requires every
//! non-`host_*` field to be byte-identical to the checked-in one. It
//! writes nothing.

use std::time::Instant;

use cim_bench::{compare_modelled_fields, repo_root_file, snapshot_number, Args};
use cim_fabric::{
    DispatchPolicy, FabricExecutor, ServeConfig, ServeFrontEnd, ServeReport, TrafficSpec,
};
use cim_sim::BatchPolicy;
use cim_verify::{certify_tiles, TileClaim};

const SCHEMA: &str = "cim-bench-serve/2";

/// Every field a valid snapshot must carry, in schema order.
const REQUIRED_FIELDS: [&str; 21] = [
    "schema",
    "queries",
    "tenants",
    "tiles",
    "threads",
    "host_cores",
    "queue_depth",
    "tenant_quota",
    "max_batch",
    "admitted",
    "rejected_queue_full",
    "rejected_quota",
    "batches",
    "peak_queue",
    "modelled_makespan_ns",
    "modelled_throughput_qps",
    "p50_ns",
    "p99_ns",
    "host_wall_ns",
    "host_throughput_qps",
    "fabric_energy_j",
];

fn check(body: &str) -> Result<(), String> {
    if !body.trim_start().starts_with('{') || !body.trim_end().ends_with('}') {
        return Err("snapshot is not a JSON object".into());
    }
    if !body.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("snapshot does not declare schema {SCHEMA}"));
    }
    for field in REQUIRED_FIELDS {
        if !body.contains(&format!("\"{field}\":")) {
            return Err(format!("snapshot is missing required field '{field}'"));
        }
        if field != "schema" && snapshot_number(body, field).is_none() {
            return Err(format!("field '{field}' is not numeric"));
        }
    }
    Ok(())
}

fn front_end(tiles: usize, threads: usize, config: ServeConfig) -> ServeFrontEnd {
    ServeFrontEnd {
        fabric: FabricExecutor::paper(1, tiles as u32, BatchPolicy::with_threads(threads)),
        config,
        policy: DispatchPolicy::AlwaysCim,
    }
}

/// Asserts the full determinism + conservation contract of `report`
/// against re-runs on other partitions, and certifies the tile ledgers.
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
            ledger: t.ledger.clone(),
        })
        .collect();
    let cert = certify_tiles(
        "serve",
        fe.fabric.prices(),
        &claims,
        &report.fabric_counts,
        &report.fabric_ledger,
    );
    assert!(cert.is_clean(), "tile certification failed:\n{cert}");
}

fn main() {
    let args = Args::capture();
    let path = repo_root_file("BENCH_serve.json");

    if args.has("--check") {
        let verdict = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|body| {
                check(&body)?;
                compare_modelled_fields(&body, &snapshot(&args))
            });
        match verdict {
            Ok(()) => println!(
                "[ok] {} matches schema {SCHEMA}, and a fresh run reproduces every \
                 non-host field",
                path.display()
            ),
            Err(e) => {
                eprintln!("[fail] {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let json = snapshot(&args);
    std::fs::write(&path, &json).expect("write BENCH_serve.json");
    println!("\n[written] {}", path.display());
}

/// Runs the serving snapshot under `args`, proves its contracts, prints
/// the summary, and returns the snapshot body.
fn snapshot(args: &Args) -> String {
    let quick = args.has("--quick");
    let queries = args.numeric("--queries", if quick { 4_000 } else { 20_000 });
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

    // Host wall clock: median of a few full serve replays.
    let samples = if quick { 3 } else { 7 };
    let mut wall: Vec<u128> = Vec::with_capacity(samples);
    let mut report = fe.serve(&traffic).expect("warm-up serve");
    for _ in 0..samples {
        let start = Instant::now();
        report = fe.serve(&traffic).expect("timed serve");
        wall.push(start.elapsed().as_nanos());
    }
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

    // The vendored serde is a no-op stub, so the snapshot is written by
    // hand; `--check` validates exactly this shape.
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"queries\": {queries},\n  \
         \"tenants\": {},\n  \"tiles\": {tiles},\n  \"threads\": {threads},\n  \
         \"host_cores\": {host_cores},\n  \
         \"queue_depth\": {},\n  \"tenant_quota\": {},\n  \"max_batch\": {},\n  \
         \"admitted\": {},\n  \"rejected_queue_full\": {},\n  \"rejected_quota\": {},\n  \
         \"batches\": {},\n  \"peak_queue\": {},\n  \
         \"modelled_makespan_ns\": {makespan_ns:.1},\n  \
         \"modelled_throughput_qps\": {:.3e},\n  \"p50_ns\": {p50_ns:.1},\n  \
         \"p99_ns\": {p99_ns:.1},\n  \"host_wall_ns\": {host_wall_ns:.0},\n  \
         \"host_throughput_qps\": {host_qps:.0},\n  \"fabric_energy_j\": {energy_j:.3e}\n}}\n",
        traffic.tenants,
        config.queue_depth,
        config.tenant_quota,
        config.max_batch,
        report.admitted,
        report.rejected_queue_full,
        report.rejected_quota,
        report.batches,
        report.peak_queue,
        report.throughput_qps,
    )
}
