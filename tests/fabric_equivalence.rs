//! Fabric equivalence properties: the tiled cim-fabric must be a pure
//! refactoring of the single-array execution model.
//!
//! For any traffic and any host configuration, the observable outcome —
//! result checksums, execution digests, exact op counts, priced ledgers,
//! admission decisions, every latency bucket — is a function of the
//! traffic alone, never of how many tiles the work was sharded over or
//! how many threads executed them. And the accounting conserves: the
//! per-tile (and per-tenant) ledgers sum **bit-for-bit** to the fabric
//! ledger, which the static certifier re-derives from the counts.

use cim::fabric::{DispatchPolicy, FabricExecutor, ServeConfig, ServeFrontEnd, TrafficSpec};
use cim::sim::BatchPolicy;
use cim::units::CountLedger;
use cim::verify::{certify_tiles, TileClaim};
use proptest::prelude::*;

fn executor(rows: u32, cols: u32, threads: usize) -> FabricExecutor {
    FabricExecutor::paper(rows, cols, BatchPolicy::with_threads(threads))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fabric_outcome_is_bit_identical_across_tiles_and_threads(
        queries in 1u64..400,
        seed in 0u64..1000,
    ) {
        let batch = TrafficSpec::sustained(queries, seed).generate();
        let reference = executor(1, 1, 1).execute(&batch).expect("1x1 serial");
        for (rows, cols) in [(1u32, 2u32), (2, 2)] {
            for threads in [1usize, 2, 4, 8] {
                let outcome = executor(rows, cols, threads)
                    .execute(&batch)
                    .expect("sharded run");
                prop_assert_eq!(&outcome.digest, &reference.digest);
                prop_assert_eq!(&outcome.counts, &reference.counts);
                prop_assert_eq!(&outcome.ledger, &reference.ledger);
            }
        }
    }

    #[test]
    fn per_tile_ledgers_conserve_to_the_fabric_ledger_bitwise(
        queries in 1u64..400,
        seed in 0u64..1000,
    ) {
        let batch = TrafficSpec::sustained(queries, seed).generate();
        let exec = executor(2, 2, 4);
        let outcome = exec.execute(&batch).expect("4-tile run");
        let mut counts = CountLedger::new();
        let mut ledgers = cim::units::CostLedger::new();
        for tile in &outcome.tiles {
            counts.merge(&tile.counts);
            ledgers.merge(&exec.prices().evaluate(&tile.counts));
        }
        prop_assert_eq!(&counts, &outcome.counts);
        // The bitwise half of the contract: summing per-tile *priced*
        // ledgers equals pricing the merged counts — exactly, because
        // the unit prices are dyadic.
        prop_assert_eq!(&ledgers, &outcome.ledger);

        // The static certifier agrees.
        let claims: Vec<TileClaim> = outcome
            .tiles
            .iter()
            .map(|t| TileClaim {
                tile: t.tile,
                counts: t.counts.clone(),
                ledger: exec.prices().evaluate(&t.counts),
            })
            .collect();
        let report = certify_tiles(
            "fabric",
            exec.prices(),
            &claims,
            &outcome.counts,
            &outcome.ledger,
        );
        prop_assert!(report.is_clean(), "{}", report);
    }

    #[test]
    fn serve_trace_is_partition_invariant(
        queries in 1u64..300,
        seed in 0u64..1000,
        queue_depth in 4usize..64,
        max_batch in 1usize..32,
    ) {
        let traffic = TrafficSpec::sustained(queries, seed);
        let config = ServeConfig {
            queue_depth,
            tenant_quota: queue_depth, // quota gate off; exercised below
            max_batch,
            mean_gap_ps: 700,
        };
        let reference = ServeFrontEnd { fabric: executor(1, 1, 1), config, policy: DispatchPolicy::AlwaysCim }
            .serve(&traffic)
            .expect("reference serve");
        prop_assert!(reference.conserves());
        for (rows, cols, threads) in [(1u32, 2u32, 1usize), (2, 2, 4)] {
            let report = ServeFrontEnd { fabric: executor(rows, cols, threads), config, policy: DispatchPolicy::AlwaysCim }
                .serve(&traffic)
                .expect("sharded serve");
            prop_assert_eq!(report.checksum, reference.checksum);
            prop_assert_eq!(&report.fabric_counts, &reference.fabric_counts);
            prop_assert_eq!(&report.fabric_ledger, &reference.fabric_ledger);
            prop_assert_eq!(&report.histogram, &reference.histogram);
            prop_assert_eq!(&report.tenants, &reference.tenants);
            prop_assert_eq!(report.makespan, reference.makespan);
            prop_assert_eq!(
                (report.admitted, report.rejected_queue_full, report.rejected_quota),
                (reference.admitted, reference.rejected_queue_full, reference.rejected_quota)
            );
        }
    }

    #[test]
    fn admission_accounting_always_balances(
        queries in 1u64..500,
        seed in 0u64..1000,
        queue_depth in 1usize..16,
        tenant_quota in 1usize..8,
    ) {
        let config = ServeConfig {
            queue_depth,
            tenant_quota,
            max_batch: 8,
            mean_gap_ps: 300, // overload: force the admission gates to fire
        };
        let report = ServeFrontEnd { fabric: executor(1, 2, 2), config, policy: DispatchPolicy::AlwaysCim }
            .serve(&TrafficSpec::sustained(queries, seed))
            .expect("serve");
        prop_assert_eq!(report.submitted, queries);
        prop_assert_eq!(
            report.submitted,
            report.admitted + report.rejected_queue_full + report.rejected_quota
        );
        prop_assert_eq!(report.completed, report.admitted);
        prop_assert_eq!(report.histogram.samples(), report.completed);
        for tenant in &report.tenants {
            prop_assert_eq!(
                tenant.submitted,
                tenant.admitted + tenant.rejected_queue_full + tenant.rejected_quota
            );
            prop_assert_eq!(tenant.completed, tenant.admitted);
        }
        prop_assert!(report.conserves());
    }
}
