//! Dispatch equivalence properties: the hybrid dispatcher must be a
//! pure function of its certified inputs.
//!
//! For any workload scale the hybrid's run outcome is bit-identical to
//! running the chosen machine solo; the decision trace is a function
//! of the workloads alone, never of the thread count; the online
//! calibrator's prediction error never grows on a repeated workload;
//! and on the shipped mix the hybrid lands within 5% of the offline
//! oracle (here: exactly on it).

use cim::dispatch::{split_claim, Calibrator, HybridExecutor, Route};
use cim::sim::{BatchPolicy, CimExecutor, ConventionalExecutor, ExecutionBackend, RunOutcome};
use cim::units::{DispatchObjective, SplitPlan, UnitScore};
use cim::workloads::{AdditionWorkload, DnaWorkload, Shardable};
use proptest::prelude::*;

fn hybrid(
    threads: usize,
    objective: DispatchObjective,
) -> HybridExecutor<CimExecutor, ConventionalExecutor> {
    let policy = BatchPolicy::with_threads(threads);
    HybridExecutor::frozen(
        CimExecutor::with_batch(policy),
        ConventionalExecutor::with_batch(policy),
        objective,
    )
}

fn objective(index: usize) -> DispatchObjective {
    DispatchObjective::ALL[index % DispatchObjective::ALL.len()]
}

fn score(objective: DispatchObjective, outcome: &RunOutcome) -> f64 {
    objective.score(outcome.ledger.total_energy(), outcome.ledger.total_time())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hybrid_outcome_is_bit_identical_to_the_chosen_machine_solo(
        ref_len in 128u64..4096,
        seed in 0u64..1000,
        obj in 0usize..3,
    ) {
        let objective = objective(obj);
        let workload = DnaWorkload::scaled(ref_len, seed);
        let mut executor = hybrid(2, objective);
        let outcome = executor.dispatch(&workload).expect("hybrid runs");
        let decision = &executor.trace().decisions[0];
        let solo = match decision.route {
            Route::Cim => executor.cim.run(&workload),
            Route::Host => executor.host.run(&workload),
        }
        .expect("solo runs");
        prop_assert_eq!(&outcome, &solo);
        // The stateless seam routes the same way as the stateful one.
        let stateless = executor.run(&workload).expect("stateless runs");
        prop_assert_eq!(&stateless, &solo);
    }

    #[test]
    fn dispatch_decisions_are_bit_identical_across_thread_counts(
        ref_len in 128u64..2048,
        n_ops in 64u64..4096,
        seed in 0u64..1000,
        obj in 0usize..3,
    ) {
        let objective = objective(obj);
        let dna = DnaWorkload::scaled(ref_len, seed);
        let adds = AdditionWorkload::scaled(n_ops, seed ^ 0x5eed);
        let mut reference = hybrid(1, objective);
        reference.dispatch(&dna).expect("runs");
        reference.dispatch(&adds).expect("runs");
        for threads in [2usize, 4] {
            let mut executor = hybrid(threads, objective);
            executor.dispatch(&dna).expect("runs");
            executor.dispatch(&adds).expect("runs");
            prop_assert_eq!(executor.trace(), reference.trace(), "{} threads", threads);
        }
    }

    #[test]
    fn online_calibration_never_worsens_on_a_repeated_workload(
        ref_len in 128u64..2048,
        seed in 0u64..1000,
    ) {
        let workload = DnaWorkload::scaled(ref_len, seed);
        let policy = BatchPolicy::with_threads(2);
        let mut executor = HybridExecutor::with_calibrator(
            CimExecutor::with_batch(policy),
            ConventionalExecutor::with_batch(policy),
            DispatchObjective::Energy,
            Calibrator::online(),
        );
        for _ in 0..3 {
            executor.dispatch(&workload).expect("runs");
        }
        let errors = executor.calibrator().errors();
        prop_assert_eq!(errors.len(), 3);
        // Repeating the same workload, each refit can only hold or
        // shrink the prediction error — and one observation already
        // lands within dyadic quantisation of the truth.
        for pair in errors.windows(2) {
            prop_assert!(pair[1] <= pair[0] + 1e-12, "errors grew: {:?}", errors);
        }
        prop_assert!(errors[1] < 1e-6, "second error too large: {:?}", errors);
    }

    #[test]
    // The shipped mix is what `bench_dispatch` snapshots: bench-scale
    // workloads scored on energy (the default objective). At toy
    // scales, or on the delay axis, the closed-form estimates' fixed
    // overheads can legitimately flip a near-tie — those mispredictions
    // are what the calibrator and the trace's flag exist for.
    #[test]
    fn hybrid_matches_the_offline_oracle_on_the_shipped_mix(
        scale in 10u32..14,
        seed in 0u64..1000,
    ) {
        let objective = DispatchObjective::Energy;
        let dna = DnaWorkload::scaled(1 << scale, seed);
        let adds = AdditionWorkload::scaled(1 << scale, seed ^ 0xadd5);
        let mut executor = hybrid(2, objective);
        let dna_oracle = score(objective, &executor.cim.run(&dna).expect("cim dna"))
            .min(score(objective, &executor.host.run(&dna).expect("host dna")));
        let adds_oracle = score(objective, &executor.cim.run(&adds).expect("cim adds"))
            .min(score(objective, &executor.host.run(&adds).expect("host adds")));
        let dna_score = score(objective, &executor.dispatch(&dna).expect("dna runs"));
        let adds_score = score(objective, &executor.dispatch(&adds).expect("adds run"));
        prop_assert!(
            dna_score <= dna_oracle * 1.05,
            "dna: hybrid {dna_score:.4e} misses oracle {dna_oracle:.4e}"
        );
        prop_assert!(
            adds_score <= adds_oracle * 1.05,
            "additions: hybrid {adds_score:.4e} misses oracle {adds_oracle:.4e}"
        );
    }

    #[test]
    fn one_sided_split_plans_reproduce_the_solo_runs_bitwise(
        n_ops in 256u64..4096,
        seed in 0u64..1000,
        obj in 0usize..3,
    ) {
        let workload = AdditionWorkload::scaled(n_ops, seed);
        let capacity = (n_ops / 4).max(1);
        let executor = hybrid(2, objective(obj));
        let whole = workload.shard(0, workload.units(), capacity);
        let score = UnitScore::new(1.0);

        let all_cim = SplitPlan::all_cim(workload.units(), score, score);
        let outcome = executor.run_split(&workload, capacity, &all_cim).expect("all-cim");
        let solo = executor.cim.run(&whole).expect("solo cim");
        prop_assert_eq!(outcome.cim.as_ref(), Some(&solo));
        prop_assert!(outcome.host.is_none());

        let all_host = SplitPlan::all_host(workload.units(), score, score);
        let outcome = executor.run_split(&workload, capacity, &all_host).expect("all-host");
        let solo = executor.host.run(&whole).expect("solo host");
        prop_assert_eq!(outcome.host.as_ref(), Some(&solo));
        prop_assert!(outcome.cim.is_none());
    }

    #[test]
    fn split_outcomes_conserve_across_thread_counts_and_fractions(
        n_ops in 256u64..4096,
        seed in 0u64..1000,
        cim_per_mille in 0u64..=1000,
    ) {
        let workload = AdditionWorkload::scaled(n_ops, seed);
        let capacity = (n_ops / 8).max(1);
        // Force an arbitrary split fraction, not just the balanced one:
        // conservation must hold for every partition point.
        let cim_units = n_ops * cim_per_mille / 1000;
        let plan = SplitPlan::pinned(n_ops, cim_units, UnitScore::new(1.0), UnitScore::new(1.0));
        let reference = hybrid(1, DispatchObjective::Makespan)
            .run_split(&workload, capacity, &plan)
            .expect("reference split");
        // Unit counts partition and the checksum recombines to the
        // whole workload's.
        let whole = workload.shard(0, n_ops, capacity);
        let solo = hybrid(1, DispatchObjective::Makespan).cim.run(&whole).expect("whole");
        prop_assert_eq!(reference.operations(), n_ops);
        prop_assert_eq!(reference.checksum(), solo.digest.checksum);
        // The whole outcome, each shard ledger included, is
        // thread-count independent.
        for threads in [2usize, 4] {
            let outcome = hybrid(threads, DispatchObjective::Makespan)
                .run_split(&workload, capacity, &plan)
                .expect("split re-run");
            prop_assert_eq!(outcome.checksum(), reference.checksum());
            prop_assert_eq!(outcome.makespan(), reference.makespan());
            prop_assert_eq!(&outcome.cim, &reference.cim);
            prop_assert_eq!(&outcome.host, &reference.host);
        }
    }

    #[test]
    fn split_claims_from_arbitrary_plans_certify_clean(
        n_ops in 256u64..4096,
        seed in 0u64..1000,
        obj in 0usize..3,
    ) {
        let workload = AdditionWorkload::scaled(n_ops, seed);
        let capacity = (n_ops / 4).max(1);
        let executor = hybrid(1, objective(obj));
        let plan = executor.split_plan(&workload, capacity);
        let cim_estimate = executor.cim.estimate(&workload.shard(0, plan.cim_units(), capacity));
        let host_estimate = executor
            .host
            .estimate(&workload.shard(plan.cim_units(), plan.host_units(), capacity));
        let claim = split_claim(
            &plan,
            &cim_estimate,
            &host_estimate,
            executor.calibrator().cim_scales(),
            executor.calibrator().host_scales(),
        );
        prop_assert!(cim::verify::certify_split("prop-split", &claim).is_clean());
        // Tampering with the combined ledger is always caught.
        let mut skimmed = claim;
        skimmed.combined = skimmed.cim.ledger.clone();
        if skimmed.host.ledger != cim::units::CostLedger::new() {
            prop_assert!(
                cim::verify::certify_split("prop-split", &skimmed)
                    .has_code("split-ledger-conservation")
            );
        }
    }
}
