//! Cross-backend contract tests for the Workload / ExecutionBackend seam.
//!
//! Two guarantees the trait layer makes:
//!
//! 1. every workload's digest verifies on *both* machines, for arbitrary
//!    seeds — the backends implement the same functional semantics;
//! 2. the parallel batch driver is an optimisation, not a semantic knob:
//!    its reports are bit-identical to a serial run at any thread count.

use cim::prelude::*;
use proptest::prelude::*;

fn dna_workload(seed: u64) -> DnaWorkload {
    DnaWorkload {
        spec: DnaSpec {
            ref_len: 30_000,
            coverage: 2,
            read_len: 100,
        },
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn additions_verify_on_both_backends(seed in 0u64..1000, n_ops in 500u64..5_000) {
        let workload = AdditionWorkload::scaled(n_ops, seed);
        for (machine, run) in [
            ("conventional", ConventionalExecutor::new().run(&workload)),
            ("cim", CimExecutor::new().run(&workload)),
        ] {
            let run = run.expect("additions always execute");
            prop_assert_eq!(run.machine, machine);
            prop_assert!(
                workload.verify(&run.digest).is_ok(),
                "{machine} digest failed verification"
            );
        }
    }

    #[test]
    fn dna_reads_verify_on_both_backends(seed in 0u64..200) {
        let workload = dna_workload(seed);
        for run in [
            ConventionalExecutor::new().run(&workload),
            CimExecutor::new().run(&workload),
        ] {
            let run = run.expect("scaled DNA specs execute");
            prop_assert!(
                workload.verify(&run.digest).is_ok(),
                "{} digest failed verification",
                run.machine
            );
        }
    }

    #[test]
    fn backends_agree_on_the_functional_result(seed in 0u64..1000) {
        // Same workload, different machines: item counts must match and
        // any checksums must agree (the machines differ in cost, never in
        // answers).
        let workload = AdditionWorkload::scaled(2_000, seed);
        let conv = ConventionalExecutor::new().run(&workload).expect("runs");
        let cim = CimExecutor::new().run(&workload).expect("runs");
        prop_assert_eq!(conv.digest.items_total, cim.digest.items_total);
        prop_assert_eq!(conv.digest.checksum, cim.digest.checksum);
    }
}

#[test]
fn parallel_reports_are_bit_identical_to_serial() {
    // The batch driver must never change results, only wall-clock time:
    // fixed chunking plus ordered merges keep even f64 accumulation
    // order identical.
    let dna = dna_workload(11);
    let additions = AdditionWorkload::scaled(20_000, 11);
    for threads in [2, 3, 5, 8] {
        let batch = BatchPolicy::with_threads(threads);

        let serial = ConventionalExecutor::new().run(&dna).expect("runs");
        let parallel = ConventionalExecutor::with_batch(batch)
            .run(&dna)
            .expect("runs");
        assert_eq!(
            serial, parallel,
            "conventional DNA diverged at {threads} threads"
        );

        let serial = CimExecutor::new().run(&dna).expect("runs");
        let parallel = CimExecutor::with_batch(batch).run(&dna).expect("runs");
        assert_eq!(serial, parallel, "CIM DNA diverged at {threads} threads");

        let serial = ConventionalExecutor::new().run(&additions).expect("runs");
        let parallel = ConventionalExecutor::with_batch(batch)
            .run(&additions)
            .expect("runs");
        assert_eq!(
            serial, parallel,
            "conventional additions diverged at {threads} threads"
        );

        let serial = CimExecutor::new().run(&additions).expect("runs");
        let parallel = CimExecutor::with_batch(batch)
            .run(&additions)
            .expect("runs");
        assert_eq!(
            serial, parallel,
            "CIM additions diverged at {threads} threads"
        );
    }
}

#[test]
fn full_experiments_are_batch_invariant() {
    // End-to-end: the ComparisonReport a user sees is the same whether
    // the driver ran serial or wide.
    let serial = Experiment::new(dna_workload(3))
        .with_hit_ratio_mode(HitRatioMode::Measured)
        .with_batch(BatchPolicy::SERIAL)
        .run()
        .expect("runs");
    let wide = Experiment::new(dna_workload(3))
        .with_hit_ratio_mode(HitRatioMode::Measured)
        .with_batch(BatchPolicy::with_threads(6))
        .run()
        .expect("runs");
    assert_eq!(serial, wide);
}

#[test]
fn unsupported_adder_widths_are_typed_errors_on_both_backends() {
    use cim::workloads::{AdditionShard, Shardable};
    for bits in [0u32, 65, 100] {
        let workload = AdditionWorkload {
            n_ops: 10,
            bits,
            seed: 3,
        };
        let shard = workload.shard(2, 5, workload.n_ops);
        let runs = [
            ConventionalExecutor::new().run(&workload),
            CimExecutor::new().run(&workload),
            ExecutionBackend::<AdditionShard>::run(&ConventionalExecutor::new(), &shard),
            ExecutionBackend::<AdditionShard>::run(&CimExecutor::new(), &shard),
        ];
        for (run, machine) in runs.into_iter().zip(["conventional", "cim"].repeat(2)) {
            match run {
                Err(SimError::InvalidConfig { machine: m, detail }) => {
                    assert_eq!(m, machine);
                    assert!(detail.contains(&bits.to_string()), "{detail}");
                }
                other => panic!("{machine} at {bits} bits: expected InvalidConfig, got {other:?}"),
            }
        }
    }
}

#[test]
fn oversized_dna_specs_error_on_conventional_and_clamp_on_cim() {
    // The two machines take different stances on paper-scale inputs:
    // conventional refuses (typed error), CIM clamps to its cap.
    let workload = DnaWorkload::paper(1);
    match ConventionalExecutor::new().run(&workload) {
        Err(SimError::SpecTooLarge { machine, .. }) => assert_eq!(machine, "conventional"),
        other => panic!("expected SpecTooLarge, got {other:?}"),
    }
    let run = CimExecutor::new()
        .run(&workload)
        .expect("CIM clamps instead of erroring");
    assert!(run.digest.operations > 0);
}
