//! Cross-backend contract tests for the Workload / ExecutionBackend seam.
//!
//! Two guarantees the trait layer makes:
//!
//! 1. every workload's digest verifies on *both* machines, for arbitrary
//!    seeds — the backends implement the same functional semantics;
//! 2. the parallel batch driver is an optimisation, not a semantic knob:
//!    its reports are bit-identical to a serial run at any thread count.
//!
//! The conventional DNA run streams its reads through a cache replay in
//! bounded blocks; it is checked here against a whole-trace replay built
//! from the public pieces.

use cim::prelude::*;
use cim::sim::{CacheConfig, CacheSim};
use cim::units::{Component, Phase};
use cim::workloads::{Genome, MemoryTrace, ReadSampler, SortedKmerIndex};
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
fn streamed_additions_are_invariant_at_pass_and_block_edges() {
    // The executors draw operands in blocks of `STREAM_BLOCK` pairs and
    // the adder takes `LANES * WORDS` pairs per pass: lengths on both
    // sides of each edge must verify, give one outcome at every thread
    // count, and equal the full-range shard's outcome.
    use cim::logic::{LANES, WORDS};
    use cim::sim::STREAM_BLOCK;
    use cim::workloads::{AdditionShard, Shardable};
    let pass = (LANES * WORDS) as u64;
    let block = STREAM_BLOCK as u64;
    for n_ops in [0, 1, pass - 1, pass, pass + 1, block - 1, block, block + 1] {
        let workload = AdditionWorkload::scaled(n_ops, 29);
        let shard = workload.shard(0, n_ops, n_ops);
        let serial = (
            ConventionalExecutor::with_batch(BatchPolicy::SERIAL)
                .run(&workload)
                .expect("runs"),
            CimExecutor::with_batch(BatchPolicy::SERIAL)
                .run(&workload)
                .expect("runs"),
        );
        for run in [&serial.0, &serial.1] {
            assert_eq!(run.digest.operations, n_ops, "{} at {n_ops}", run.machine);
            assert!(
                workload.verify(&run.digest).is_ok(),
                "{} digest at {n_ops} ops",
                run.machine
            );
        }
        for threads in [1, 2, 4] {
            let batch = BatchPolicy::with_threads(threads);
            let conv = ConventionalExecutor::with_batch(batch);
            let cim = CimExecutor::with_batch(batch);
            let at = format!("{n_ops} ops, {threads} threads");
            assert_eq!(
                conv.run(&workload).expect("runs"),
                serial.0,
                "conventional, {at}"
            );
            assert_eq!(cim.run(&workload).expect("runs"), serial.1, "cim, {at}");
            let conv_shard = ExecutionBackend::<AdditionShard>::run(&conv, &shard).expect("runs");
            let cim_shard = ExecutionBackend::<AdditionShard>::run(&cim, &shard).expect("runs");
            assert_eq!(conv_shard, serial.0, "conventional shard, {at}");
            assert_eq!(cim_shard, serial.1, "cim shard, {at}");
        }
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

/// What the conventional DNA run must report, recomputed without it:
/// every read mapped into its own [`MemoryTrace`], the traces replayed in
/// read order through one cache that starts cold and is never reset.
struct ReplayedDna {
    /// `(hits, misses)` of index probes (addresses past the genome).
    index: (u64, u64),
    /// `(hits, misses)` of reference reads.
    data: (u64, u64),
    comparisons: u64,
    reads: u64,
    mapped: u64,
    hit_ratio: f64,
}

fn replay_dna(workload: &DnaWorkload) -> ReplayedDna {
    let spec = workload.spec;
    let genome = Genome::generate(spec.ref_len as usize, workload.seed);
    let index = SortedKmerIndex::build(&genome, 16);
    let reads = ReadSampler {
        read_len: spec.read_len as usize,
        coverage: spec.coverage as u32,
        error_rate: 0.01,
        seed: workload.seed ^ 0x5eed,
    }
    .sample(&genome);
    // `stepped` classifies every access; `whole` replays each read's
    // trace in one call. Both start cold.
    let mut stepped = CacheSim::new(CacheConfig::table1_8kb());
    let mut whole = CacheSim::new(CacheConfig::table1_8kb());
    let mut out = ReplayedDna {
        index: (0, 0),
        data: (0, 0),
        comparisons: 0,
        reads: reads.len() as u64,
        mapped: 0,
        hit_ratio: 0.0,
    };
    for read in &reads {
        let mut trace = MemoryTrace::new();
        let outcome = index.map_read(&genome, read, &mut trace);
        out.comparisons += outcome.comparisons;
        out.mapped += u64::from(outcome.mapped_positions.contains(&read.true_position));
        whole.run_trace(&trace);
        for access in trace.accesses() {
            let bucket = if access.address >= genome.len() as u64 {
                &mut out.index
            } else {
                &mut out.data
            };
            if stepped.access(access.address) {
                bucket.0 += 1;
            } else {
                bucket.1 += 1;
            }
        }
    }
    assert_eq!(whole.hit_ratio().to_bits(), stepped.hit_ratio().to_bits());
    out.hit_ratio = whole.hit_ratio();
    out
}

/// Runs the conventional DNA workload at 1, 2 and 5 threads and checks
/// each run against [`replay_dna`] and against each other.
fn check_streamed_dna_run(workload: &DnaWorkload) -> Result<(), TestCaseError> {
    let expected = replay_dna(workload);
    let serial = ConventionalExecutor::with_batch(BatchPolicy::SERIAL)
        .run(workload)
        .expect("in-cap spec executes");
    let count = |component, phase| serial.ledger.entry(component, phase).count;
    prop_assert_eq!(
        count(Component::CacheAccess, Phase::Index),
        expected.index.0
    );
    prop_assert_eq!(count(Component::DramAccess, Phase::Index), expected.index.1);
    prop_assert_eq!(count(Component::CacheAccess, Phase::Map), expected.data.0);
    prop_assert_eq!(count(Component::DramAccess, Phase::Map), expected.data.1);
    prop_assert_eq!(
        count(Component::GateDynamic, Phase::Map),
        expected.comparisons
    );
    prop_assert_eq!(
        serial.measured_hit_ratio.map(f64::to_bits),
        Some(expected.hit_ratio.to_bits())
    );
    let (hits, misses) = expected.index;
    let index_ratio = hits as f64 / (hits + misses).max(1) as f64;
    prop_assert_eq!(
        serial.index_hit_ratio.map(f64::to_bits),
        Some(index_ratio.to_bits())
    );
    prop_assert_eq!(serial.digest.items_total, expected.reads);
    prop_assert_eq!(serial.digest.items_verified, expected.mapped);
    prop_assert_eq!(serial.digest.operations, expected.comparisons);
    prop_assert_eq!(serial.digest.checksum, None);
    for threads in [2, 5] {
        let parallel = ConventionalExecutor::with_batch(BatchPolicy::with_threads(threads))
            .run(workload)
            .expect("in-cap spec executes");
        prop_assert_eq!(&parallel.ledger, &serial.ledger, "{} threads", threads);
        prop_assert_eq!(
            parallel.ledger.total_energy().get().to_bits(),
            serial.ledger.total_energy().get().to_bits()
        );
        prop_assert_eq!(&parallel, &serial, "{} threads", threads);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn streamed_dna_run_equals_a_whole_trace_replay(
        ref_len in 2_000u64..8_000,
        coverage in 1u64..40,
        read_len in 24u64..100,
        seed in any::<u64>(),
    ) {
        let workload = DnaWorkload {
            spec: DnaSpec { ref_len, coverage, read_len },
            seed,
        };
        check_streamed_dna_run(&workload)?;
    }
}

#[test]
fn streamed_dna_run_carries_the_cache_across_blocks() {
    // 10,000 reads: two full streaming blocks of 4 × 1,024 reads and a
    // ragged third, so a cache that restarted at a block boundary, or a
    // block cut that depended on the thread count, would show.
    let workload = DnaWorkload {
        spec: DnaSpec {
            ref_len: 6_000,
            coverage: 50,
            read_len: 30,
        },
        seed: 23,
    };
    check_streamed_dna_run(&workload).expect("streamed run matches the replay");
}
