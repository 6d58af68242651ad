//! Tier-1 conservation properties for the hierarchical cost ledger.
//!
//! Every joule and picosecond an executor reports must be attributed to
//! exactly one `(component, phase)` cell. Four guarantees, on both
//! backends, for arbitrary small workload specs:
//!
//! 1. **one record** — structural: a `RunOutcome` and a `RunReport`
//!    store only their `CostLedger`, and every total is read from its
//!    canonical-order sums, so no second copy exists to drift;
//! 2. **thread invariance** — the ledger itself (not just the totals) is
//!    identical at every thread count;
//! 3. **decomposition** — re-summing the per-component subtotals
//!    reproduces the totals (up to f64 reassociation);
//! 4. **run ≡ projection** — an executed addition run (whole workload or
//!    shard) charges its count through the projection's own call, so its
//!    report equals `project`'s bit for bit.

use cim::prelude::*;
use cim::workloads::Shardable;
use proptest::prelude::*;

fn dna_workload(ref_len: u64, seed: u64) -> DnaWorkload {
    DnaWorkload {
        spec: DnaSpec {
            ref_len,
            coverage: 2,
            read_len: 100,
        },
        seed,
    }
}

/// Guarantee 3 on one ledger: something was attributed, and the
/// per-component subtotals re-sum to the ledger's totals.
fn check_decomposes(ledger: &CostLedger, context: &str) -> Result<(), TestCaseError> {
    prop_assert!(!ledger.is_empty(), "{context}: nothing was attributed");
    let energy: f64 = Component::ALL
        .iter()
        .map(|&c| ledger.component_totals(c).energy.get())
        .sum();
    let time: f64 = Component::ALL
        .iter()
        .map(|&c| ledger.component_totals(c).time.get())
        .sum();
    prop_assert!(
        (energy / ledger.total_energy().get() - 1.0).abs() < 1e-12,
        "{context}: component energies do not re-sum to the total"
    );
    prop_assert!(
        (time / ledger.total_time().get() - 1.0).abs() < 1e-12,
        "{context}: component times do not re-sum to the total"
    );
    Ok(())
}

/// Guarantee 4 for one executor on one workload: the run's report is
/// exactly the projection's, ledger cells and totals included.
fn check_run_is_projection<W, B>(exec: &B, workload: &W, context: &str) -> Result<(), TestCaseError>
where
    W: Workload,
    B: ExecutionBackend<W>,
{
    let run = exec.run(workload).expect("runs").report();
    let projected = exec.project(workload, 0.5);
    prop_assert_eq!(&run, &projected, "{}: run report != projection", context);
    for (ours, theirs) in [
        (run.total_energy().get(), projected.total_energy().get()),
        (run.total_time().get(), projected.total_time().get()),
    ] {
        prop_assert_eq!(
            ours.to_bits(),
            theirs.to_bits(),
            "{}: totals' bits",
            context
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn executed_runs_conserve_their_ledgers_at_any_thread_count(
        seed in 0u64..500,
        n_ops in 500u64..4_000,
        ref_len in 20_000u64..40_000,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let additions = AdditionWorkload::scaled(n_ops, seed);
        let dna = dna_workload(ref_len, seed);

        // Conventional × {additions, DNA} and CIM × {additions, DNA},
        // each at 1 and 4 threads.
        let serial = BatchPolicy::with_threads(1);
        let wide = BatchPolicy::with_threads(4);
        let cases: [(&str, RunOutcome, RunOutcome); 4] = [
            (
                "conventional/additions",
                ConventionalExecutor::with_batch(serial).run(&additions).expect("runs"),
                ConventionalExecutor::with_batch(wide).run(&additions).expect("runs"),
            ),
            (
                "cim/additions",
                CimExecutor::with_batch(serial).run(&additions).expect("runs"),
                CimExecutor::with_batch(wide).run(&additions).expect("runs"),
            ),
            (
                "conventional/dna",
                ConventionalExecutor::with_batch(serial).run(&dna).expect("runs"),
                ConventionalExecutor::with_batch(wide).run(&dna).expect("runs"),
            ),
            (
                "cim/dna",
                CimExecutor::with_batch(serial).run(&dna).expect("runs"),
                CimExecutor::with_batch(wide).run(&dna).expect("runs"),
            ),
        ];
        for (context, one_thread, four_threads) in &cases {
            check_decomposes(&one_thread.ledger, context)?;
            // Bit-exact thread invariance of the whole attribution, which
            // every total is read from.
            prop_assert_eq!(
                &one_thread.ledger,
                &four_threads.ledger,
                "{} ledger diverged across thread counts",
                context
            );
        }

        // Guarantee 4 on both machines, for the whole workload and for
        // every shard of a three-way split (empty shards included) on the
        // split's fixed-capacity machine.
        let (lo, hi) = (cut_a.min(cut_b), cut_a.max(cut_b));
        let cuts = [0, (lo * n_ops as f64) as u64, (hi * n_ops as f64) as u64, n_ops];
        let shards: Vec<_> = cuts
            .windows(2)
            .map(|w| additions.shard(w[0], w[1] - w[0], n_ops))
            .collect();
        for threads in [1usize, 4] {
            let batch = BatchPolicy::with_threads(threads);
            let host = ConventionalExecutor::with_batch(batch);
            check_run_is_projection(&host, &additions, "conventional/whole")?;
            for shard in &shards {
                check_run_is_projection(&host, shard, &format!("conventional/{}", shard.name()))?;
            }
            let cim = CimExecutor::with_batch(batch);
            check_run_is_projection(&cim, &additions, "cim/whole")?;
            for shard in &shards {
                check_run_is_projection(&cim, shard, &format!("cim/{}", shard.name()))?;
            }
        }
    }

    #[test]
    fn cim_outcomes_are_bit_identical_across_workers(
        seed in 0u64..500,
        n_ops in 500u64..3_000,
        ref_len in 20_000u64..35_000,
    ) {
        // Worker count ({1, 2, 4, 8}) changes wall-clock only — every
        // RunOutcome field (digest, checksum, ledger, area, notes) is
        // bit-identical to the serial reference. 100-symbol reads and
        // random operand counts leave ragged 64-lane tails.
        let additions = AdditionWorkload::scaled(n_ops, seed);
        let dna = dna_workload(ref_len, seed);
        let reference = CimExecutor::with_batch(BatchPolicy::with_threads(1));
        let add_ref = ExecutionBackend::<AdditionWorkload>::run(&reference, &additions)
            .expect("reference additions");
        let dna_ref = reference.run(&dna).expect("reference dna");
        for threads in [1usize, 2, 4, 8] {
            let exec = CimExecutor::with_batch(BatchPolicy::with_threads(threads));
            let add = ExecutionBackend::<AdditionWorkload>::run(&exec, &additions)
                .expect("additions run");
            prop_assert_eq!(&add, &add_ref, "additions at {} threads", threads);
            let dna_run = exec.run(&dna).expect("dna run");
            prop_assert_eq!(&dna_run, &dna_ref, "dna at {} threads", threads);
        }
    }

    #[test]
    fn paper_scale_projections_conserve_their_ledgers(
        hit in 0.05f64..0.95,
        seed in 0u64..100,
    ) {
        let dna = DnaWorkload::paper(seed);
        let additions = AdditionWorkload::paper(seed);
        let project = |threads: usize| {
            let batch = BatchPolicy::with_threads(threads);
            let conv = ConventionalExecutor::with_batch(batch);
            let cim = CimExecutor::with_batch(batch);
            [
                ("conventional/dna", conv.project(&dna, hit)),
                ("cim/dna", cim.project(&dna, hit)),
                ("conventional/additions", conv.project(&additions, hit)),
                ("cim/additions", cim.project(&additions, hit)),
            ]
        };
        let serial = project(1);
        for (context, report) in &serial {
            check_decomposes(&report.ledger, context)?;
        }
        prop_assert_eq!(project(4), serial);
    }
}
