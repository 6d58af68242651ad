//! Multi-tenant serving on the tiled fabric.
//!
//! ```bash
//! cargo run --release --example fabric_serve
//! ```
//!
//! Four tenants fire sustained DNA-lookup / compare / add query traffic
//! at a 2×2 tile grid through the async-style serving front-end: a
//! bounded queue with per-tenant quotas admits work, cross-tenant
//! batches drain into the deterministic tile driver, and every operation
//! is counted per tenant *and* per tile. Counts are the one record: the
//! energies below are those counts priced with the front-end's table
//! (`ServeFrontEnd::prices`), and because both views' counts merge to
//! the fabric counts and the prices are dyadic, the priced views sum
//! bit-for-bit to the fabric ledger. The whole trace is reproducible
//! for any tile count and thread count; the final section proves it by
//! re-serving the same traffic on a single serial tile.

use cim::fabric::{DispatchPolicy, FabricExecutor, ServeConfig, ServeFrontEnd, TrafficSpec};
use cim::sim::BatchPolicy;

fn main() {
    let traffic = TrafficSpec::sustained(10_000, 42);
    let fe = ServeFrontEnd {
        fabric: FabricExecutor::paper(2, 2, BatchPolicy::auto()),
        config: ServeConfig::sustained(),
        policy: DispatchPolicy::AlwaysCim,
    };
    let report = fe.serve(&traffic).expect("traffic serves");

    println!(
        "== serving {} queries from {} tenants on a 2x2 fabric ==",
        report.submitted,
        report.tenants.len()
    );
    println!(
        "admitted {}  rejected {} (queue full) + {} (quota)  in {} batches; peak queue {}",
        report.admitted,
        report.rejected_queue_full,
        report.rejected_quota,
        report.batches,
        report.peak_queue
    );
    println!(
        "modelled: makespan {}, throughput {:.3e} q/s, latency p50 {} / p99 {}",
        report.makespan,
        report.throughput_qps,
        report.p50(),
        report.p99()
    );

    let prices = fe.prices();
    println!("\nper-tenant accounting:");
    for tenant in &report.tenants {
        println!(
            "  {}: {} completed, {} energy",
            tenant.tenant,
            tenant.completed,
            prices.evaluate(&tenant.counts).total_energy()
        );
    }
    println!("per-tile accounting:");
    for tile in &report.tiles {
        println!(
            "  tile {}: {} queries, {} energy",
            tile.tile,
            tile.queries,
            prices.evaluate(&tile.counts).total_energy()
        );
    }
    println!(
        "fabric ledger: {} — tenant and tile views both sum to it bit-for-bit: {}",
        report.fabric_ledger.total_energy(),
        report.conserves()
    );

    // The determinism contract: one serial tile, same trace.
    let solo = ServeFrontEnd {
        fabric: FabricExecutor::paper(1, 1, BatchPolicy::SERIAL),
        config: ServeConfig::sustained(),
        policy: DispatchPolicy::AlwaysCim,
    }
    .serve(&traffic)
    .expect("solo serve");
    assert_eq!(solo.checksum, report.checksum);
    assert_eq!(solo.fabric_ledger, report.fabric_ledger);
    assert_eq!(solo.histogram, report.histogram);
    println!("\n1x1 serial re-run: checksum, ledger, and every latency bucket identical.");
}
