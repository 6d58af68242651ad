//! Executor for the CIM (memristor crossbar) machine.

use cim_arch::{CimMachine, RunReport};
use cim_logic::{BitSliceEngine, Comparator, ImplyAdder, LANES, WORDS};
use cim_units::{Component, CostLedger, CountLedger, Energy, Phase, UnitCosts};
use cim_workloads::{
    AdditionShard, AdditionWorkload, DnaSpec, DnaWorkload, ExecutionDigest, Genome, ShortRead,
};
use serde::{Deserialize, Serialize};

use crate::backend::{check_adder_width, CostEstimate, ExecutionBackend, RunOutcome, SimError};
use crate::batch::{par_fold_slices, par_fold_stream, BatchPolicy};
use crate::conventional::dna_sampler;

/// Runs workloads on the CIM machine model.
///
/// Functional correctness is established by actually executing the
/// in-crossbar primitives' semantics: DNA comparisons run through the
/// IMPLY [`Comparator`] microprogram, additions through the ripple
/// [`ImplyAdder`] microcode, both on the bit-sliced [`BitSliceEngine`]
/// ([`LANES`] lanes per comparator gate visit, `LANES * WORDS` per
/// adder pass, as one instruction stream is broadcast to every
/// crossbar row), and the results are checked
/// against ground truth. Timing/energy then follow the batch
/// aggregation with the machine's Table-1 costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CimExecutor {
    /// How per-item loops are parallelised. Results are identical for
    /// every policy (see `crate::batch`); only wall-clock time changes.
    pub batch: BatchPolicy,
}

impl CimExecutor {
    /// Machine label used in errors and reports.
    pub const MACHINE: &'static str = "cim";

    /// Largest reference the in-crossbar DNA pass will execute; larger
    /// workloads are clamped to this (shape preserved) since the
    /// paper-scale answer comes from the projection anyway.
    pub const DNA_EXEC_CAP: u64 = 1 << 20;

    /// Creates an executor with automatic thread-count selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an executor with an explicit batch policy.
    pub fn with_batch(batch: BatchPolicy) -> Self {
        Self { batch }
    }

    /// The DNA pass: [`LANES`] character comparisons per comparator
    /// invocation. Each read's symbols pack lane-wise against the genome
    /// window (bit `k` of each input slice = lane `k`'s bit), one
    /// [`BitSliceEngine`] run compares the whole group, and the result
    /// slice is diffed against direct equality as a mask — per-lane
    /// evidence is extracted only on a mismatch, where the lowest
    /// diverging lane is the read's first divergence (lanes pack in
    /// symbol order). The rest of that read's comparisons are skipped —
    /// they cannot change the first-hit evidence — and counted in closed
    /// form, so `operations` is unaffected.
    fn dna_pass(
        self,
        comparator: &Comparator,
        codes: &[u8],
        reads: &[ShortRead],
    ) -> (u64, Option<String>) {
        par_fold_slices(
            self.batch,
            reads,
            || (0u64, None::<String>),
            |(mut count, mut diverged), chunk| {
                let mut engine = BitSliceEngine::new();
                for read in chunk {
                    let pos = read.true_position;
                    let window = &codes[pos..pos + read.symbols.len()];
                    count += read.symbols.len() as u64;
                    for (group, (symbols, references)) in read
                        .symbols
                        .chunks(LANES)
                        .zip(window.chunks(LANES))
                        .enumerate()
                    {
                        let (mut s0, mut s1, mut r0, mut r1) = (0u64, 0u64, 0u64, 0u64);
                        let mut expect = 0u64;
                        for (lane, (&s, &r)) in symbols.iter().zip(references).enumerate() {
                            s0 |= u64::from(s & 1) << lane;
                            s1 |= u64::from(s >> 1 & 1) << lane;
                            r0 |= u64::from(r & 1) << lane;
                            r1 |= u64::from(r >> 1 & 1) << lane;
                            expect |= u64::from(s == r) << lane;
                        }
                        let lane_mask = u64::MAX >> (LANES - symbols.len());
                        let eq = comparator.matches_sliced(&mut engine, s0, s1, r0, r1);
                        let diff = (eq ^ expect) & lane_mask;
                        if diff != 0 {
                            if diverged.is_none() {
                                let lane = diff.trailing_zeros() as usize;
                                let i = group * LANES + lane;
                                diverged = Some(divergence_note(
                                    eq >> lane & 1 == 1,
                                    read.symbols[i],
                                    window[i],
                                    pos + i,
                                ));
                            }
                            // Stop at the first divergence in the read
                            // (count is already closed-form).
                            break;
                        }
                    }
                }
                (count, diverged)
            },
            |(c1, d1), (c2, d2)| (c1 + c2, d1.or(d2)),
        )
    }

    /// The addition pass: up to `LANES * WORDS` ripple additions per
    /// [`ImplyAdder::add_sliced`] invocation, over operand blocks drawn
    /// from the stream (never collected whole). The width-masked
    /// wrapping checksum is grouping-independent, so the digest is
    /// bit-identical at every thread count and block size.
    fn additions_pass(
        self,
        bits: u32,
        sum_mask: u64,
        operands: impl Iterator<Item = (u64, u64)>,
    ) -> (u64, u64) {
        let adder = ImplyAdder::new(bits);
        par_fold_stream(
            self.batch,
            operands,
            || (0u64, 0u64),
            |(mut count, mut sum), chunk| {
                let mut engine = BitSliceEngine::new();
                let mut sums = [0u64; LANES * WORDS];
                for group in chunk.chunks(LANES * WORDS) {
                    adder.add_sliced(&mut engine, group, &mut sums[..group.len()]);
                    for &s in &sums[..group.len()] {
                        sum = sum.wrapping_add(s & sum_mask);
                    }
                    count += group.len() as u64;
                }
                (count, sum)
            },
            |(c1, s1), (c2, s2)| (c1 + c2, s1.wrapping_add(s2)),
        )
    }

    /// Shared additions driver for whole workloads and shards: streams
    /// `operands` through the adder kernel on a crossbar sized for
    /// `machine_ops` operations, then charges the executed count once
    /// through [`additions_attributed`] — the projection's own call. A
    /// whole-workload run is the full-range case
    /// (`machine_ops` equal to the operand count), so whole and
    /// full-range-shard outcomes are bit-identical by construction —
    /// they run this exact code path.
    fn additions_outcome(
        self,
        bits: u32,
        machine_ops: u64,
        operands: impl Iterator<Item = (u64, u64)>,
    ) -> RunOutcome {
        // The `bits + 1`-bit sum, saturating at 64 bits (`run` has
        // checked `bits` is in 1..=64).
        let sum_mask = ((u64::MAX >> (64 - bits)) << 1) | 1;
        let (count, checksum) = self.additions_pass(bits, sum_mask, operands);
        let RunReport { area, ledger, .. } = additions_attributed(bits, machine_ops, count);
        RunOutcome {
            machine: Self::MACHINE,
            area,
            ledger,
            digest: ExecutionDigest {
                items_total: count,
                items_verified: count,
                operations: count,
                checksum: Some(checksum),
            },
            measured_hit_ratio: None,
            index_hit_ratio: None,
            notes: vec![format!(
                "checksum {checksum:#018x} over {count} in-crossbar additions"
            )],
        }
    }
}

/// Charges `n_ops` `bits`-wide additions on a crossbar sized for
/// `machine_ops` operations. Executed runs and projections, of whole
/// workloads and of shards, all price through this one call, so a run's
/// ledger equals its projection's by construction.
fn additions_attributed(bits: u32, machine_ops: u64, n_ops: u64) -> RunReport {
    let machine = CimMachine::math_paper(machine_ops, bits);
    let mut ledger = CostLedger::new();
    machine.charge_batched(&mut ledger, Phase::Add, n_ops);
    RunReport {
        operations: n_ops,
        area: machine.area(),
        ledger,
    }
}

/// Parallel comparator slots of the DNA crossbar scaled with the
/// executed problem, as the conventional executor scales its clusters.
fn dna_parallel_scaled(machine: &CimMachine, spec: &DnaSpec) -> u64 {
    ((machine.parallel_ops() as f64 * spec.scale_vs_paper()).round() as u64).max(1)
}

/// Closed-form CIM cost certificate for `n_ops` uniform in-array
/// operations amortised over `parallel` crossbar slots.
///
/// Prices decompose exactly like [`CimMachine::charge_batched`]: the
/// op's own component takes the switching energy and its compute-time
/// share, and `DramAccess` the expected operand stream-in time with no
/// energy (Table 1 quotes none). The per-op time prices amortise one round's
/// latency over the parallel slots, so the predicted makespan is the
/// smooth `n/parallel` form of the executor's `⌈n/parallel⌉` rounds —
/// identical when the slots divide the work, a sub-round residual
/// otherwise (which the calibrator absorbs).
fn cim_estimate(machine: &CimMachine, phase: Phase, n_ops: u64, parallel: u64) -> CostEstimate {
    let cost = machine.op.cost(&machine.tech);
    let slots = parallel.max(1) as f64;
    let mut counts = CountLedger::new();
    counts.charge(cost.component, phase, n_ops);
    counts.charge(Component::DramAccess, phase, n_ops);
    let mut prices = UnitCosts::new();
    prices.set(
        cost.component,
        phase,
        cost.energy,
        cost.latency * (1.0 / slots),
    );
    prices.set(
        Component::DramAccess,
        phase,
        Energy::ZERO,
        machine.miss_penalty * ((1.0 - machine.memory_hit_ratio) / slots),
    );
    CostEstimate {
        machine: CimExecutor::MACHINE,
        counts,
        prices,
        certified: true,
    }
}

/// The divergence evidence of a DNA pass: the comparator's answer, the
/// symbol pair it was given and their reference position.
fn divergence_note(eq: bool, symbol: u8, reference: u8, position: usize) -> String {
    format!(
        "comparator returned {eq} for symbols ({symbol}, {reference}) \
         at reference position {position}"
    )
}

impl ExecutionBackend<DnaWorkload> for CimExecutor {
    fn machine(&self) -> &'static str {
        Self::MACHINE
    }

    /// Executes the (clamped) DNA comparison pass in-crossbar: every
    /// character comparison of every read against its true window runs
    /// through the IMPLY comparator microprogram and is checked against
    /// direct symbol equality — the check *is* the execution. A
    /// disagreement surfaces as [`SimError::Diverged`].
    fn run(&self, workload: &DnaWorkload) -> Result<RunOutcome, SimError> {
        let spec = workload.executable_spec(Self::DNA_EXEC_CAP);
        let genome = Genome::generate(spec.ref_len as usize, workload.seed);
        let reads = dna_sampler(&spec, workload.seed).sample(&genome);
        let comparator = Comparator::new();

        // Each read's comparisons are independent of every other read's,
        // so the hot loop fans out; divergence evidence (if any) merges
        // to the earliest chunk's report.
        let (comparisons, diverged) = self.dna_pass(&comparator, genome.codes(), &reads);
        if let Some(detail) = diverged {
            return Err(SimError::Diverged {
                machine: Self::MACHINE,
                detail,
            });
        }

        // The executed comparisons are charged once, in rounds of the
        // crossbar scaled with the problem.
        let machine = CimMachine::dna_paper();
        let rounds = comparisons.div_ceil(dna_parallel_scaled(&machine, &spec));
        let mut ledger = CostLedger::new();
        machine.charge_rounds(&mut ledger, Phase::Map, comparisons, rounds);

        Ok(RunOutcome {
            machine: Self::MACHINE,
            area: machine.area() * spec.scale_vs_paper().max(f64::MIN_POSITIVE),
            ledger,
            digest: ExecutionDigest {
                items_total: reads.len() as u64,
                // Every comparison agreed with ground truth (divergence
                // would have errored above), so every read is verified.
                items_verified: reads.len() as u64,
                operations: comparisons,
                checksum: None,
            },
            measured_hit_ratio: None,
            index_hit_ratio: None,
            notes: vec![format!(
                "{comparisons} comparator invocations verified against direct symbol equality"
            )],
        })
    }

    /// Projects the paper-scale DNA run (6×10⁹ comparisons on the
    /// 1.536×10⁸-device crossbar) with `hit_ratio` of the operands
    /// resident, attributing the closed-form batch into the report's
    /// ledger. The workload's own (scaled) spec does not enter.
    fn project(&self, _workload: &DnaWorkload, hit_ratio: f64) -> RunReport {
        let mut machine = CimMachine::dna_paper();
        machine.memory_hit_ratio = hit_ratio;
        let comparisons = DnaSpec::paper().comparisons();
        let mut ledger = CostLedger::new();
        machine.charge_batched(&mut ledger, Phase::Map, comparisons);
        RunReport {
            operations: comparisons,
            area: machine.area(),
            ledger,
        }
    }

    /// Certifies the (clamped) executed scale: the comparator invocation
    /// count is the exact `coverage × ref_len` closed form the run
    /// charges, and the crossbar scales with the problem exactly as
    /// [`run`](ExecutionBackend::run) scales it.
    fn estimate(&self, workload: &DnaWorkload) -> CostEstimate {
        let spec = workload.executable_spec(Self::DNA_EXEC_CAP);
        let machine = CimMachine::dna_paper();
        let parallel = dna_parallel_scaled(&machine, &spec);
        cim_estimate(&machine, Phase::Map, spec.comparisons(), parallel)
    }
}

impl ExecutionBackend<AdditionWorkload> for CimExecutor {
    fn machine(&self) -> &'static str {
        Self::MACHINE
    }

    /// Executes every addition in-crossbar, checksumming the
    /// (width-masked) sums for [`Workload::verify`](cim_workloads::Workload::verify) — an adder bug
    /// shows up as a checksum mismatch there. The kernel runs the
    /// actual ripple [`ImplyAdder`] microprogram, up to `LANES * WORDS`
    /// = 512 additions per pass in slice-major form, over operands
    /// streamed in blocks rather than collected. Its sum masked to
    /// `bits + 1` bits is the host's sum (for `bits == 64` the dropped
    /// carry slice *is* the host's wrap), so the checksum matches
    /// [`AdditionWorkload::checksum`].
    ///
    /// Widths outside `1..=64` are a [`SimError::InvalidConfig`].
    fn run(&self, workload: &AdditionWorkload) -> Result<RunOutcome, SimError> {
        check_adder_width(Self::MACHINE, workload.bits)?;
        Ok(self.additions_outcome(workload.bits, workload.n_ops, workload.operands()))
    }

    fn project(&self, workload: &AdditionWorkload, _hit_ratio: f64) -> RunReport {
        additions_attributed(workload.bits, workload.n_ops, workload.n_ops)
    }

    /// Certifies the addition batch: exactly `n_ops` CRS-adder
    /// invocations on the adder-sized crossbar — the same closed form
    /// [`run`](ExecutionBackend::run) charges.
    fn estimate(&self, workload: &AdditionWorkload) -> CostEstimate {
        let machine = CimMachine::math_paper(workload.n_ops, workload.bits);
        cim_estimate(&machine, Phase::Add, workload.n_ops, machine.parallel_ops())
    }
}

impl ExecutionBackend<AdditionShard> for CimExecutor {
    fn machine(&self) -> &'static str {
        Self::MACHINE
    }

    /// Executes the shard's slice of the operand stream through the
    /// same kernel-and-ledger path as a whole workload, on a crossbar
    /// sized for the shard's `machine_ops` capacity (not for its
    /// length) — the split contract's fixed-capacity machine.
    fn run(&self, shard: &AdditionShard) -> Result<RunOutcome, SimError> {
        check_adder_width(Self::MACHINE, shard.bits)?;
        Ok(self.additions_outcome(shard.bits, shard.machine_ops, shard.operands()))
    }

    fn project(&self, shard: &AdditionShard, _hit_ratio: f64) -> RunReport {
        additions_attributed(shard.bits, shard.machine_ops, shard.len)
    }

    /// Certifies the shard: exactly `len` adder invocations on the
    /// `machine_ops`-capacity crossbar — the closed form its
    /// [`run`](ExecutionBackend::run) charges.
    fn estimate(&self, shard: &AdditionShard) -> CostEstimate {
        let machine = CimMachine::math_paper(shard.machine_ops, shard.bits);
        cim_estimate(&machine, Phase::Add, shard.len, machine.parallel_ops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::Metrics;
    use cim_workloads::Workload;

    #[test]
    fn scaled_dna_runs_all_comparisons_through_the_comparator() {
        let exec = CimExecutor::new();
        let workload = DnaWorkload {
            spec: DnaSpec {
                ref_len: 10_000,
                coverage: 2,
                read_len: 100,
            },
            seed: 11,
        };
        let run = exec.run(&workload).expect("comparator cannot diverge");
        // coverage · L = 20 000 characters compared.
        assert_eq!(run.digest.operations, 20_000);
        assert!(run.ledger.total_time().get() > 0.0);
        assert!(workload.verify(&run.digest).is_ok());
        assert!(run.notes[0].contains("comparator"));
    }

    #[test]
    fn oversized_dna_specs_clamp_to_the_cap() {
        let exec = CimExecutor::new();
        let run = exec
            .run(&DnaWorkload::scaled(CimExecutor::DNA_EXEC_CAP * 4, 2))
            .expect("clamped spec executes");
        // Clamped to 2^20 characters at coverage 50 → 50·2^20 comparisons.
        assert_eq!(run.digest.operations, CimExecutor::DNA_EXEC_CAP * 50);
    }

    #[test]
    fn dna_run_is_identical_at_every_thread_count() {
        let workload = DnaWorkload::scaled(30_000, 21);
        let reference = CimExecutor::with_batch(BatchPolicy::SERIAL)
            .run(&workload)
            .expect("serial run");
        for threads in [2, 3, 8] {
            let parallel = CimExecutor::with_batch(BatchPolicy::with_threads(threads))
                .run(&workload)
                .expect("parallel run");
            assert_eq!(parallel, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn paper_projection_shape() {
        let exec = CimExecutor::new();
        let report = exec.project(&DnaWorkload::paper(0), 0.5);
        assert_eq!(report.operations, 6_000_000_000);
        // 6e9 / 11.8M comparators = 508 rounds × 85.7 ns ≈ 43.6 µs.
        assert!((report.total_time().as_micro_seconds() - 43.6).abs() < 1.0);
        // Energy is purely dynamic: 6e9 × 45 fJ = 0.27 mJ (zero leakage).
        assert!((report.total_energy().as_milli_joules() - 0.27).abs() < 0.01);
    }

    #[test]
    fn additions_checksum_matches_reference() {
        let exec = CimExecutor::new();
        // 64 bits is the width where the adder's 65th sum bit is dropped
        // and the checksum must still match the host's wrapping sum.
        let wrapping = AdditionWorkload {
            n_ops: 2_000,
            bits: 64,
            seed: 15,
        };
        for w in [AdditionWorkload::scaled(20_000, 9), wrapping] {
            let run = exec.run(&w).expect("additions always execute");
            assert_eq!(run.digest.checksum, Some(w.checksum()), "{} bits", w.bits);
            assert!(w.verify(&run.digest).is_ok());
            assert_eq!(run.digest.operations, w.n_ops);
        }
    }

    #[test]
    fn full_range_shard_runs_bit_identical_to_the_whole_workload() {
        use cim_workloads::Shardable;
        let w = AdditionWorkload::scaled(10_000, 17);
        for threads in [1usize, 4] {
            let exec = CimExecutor::with_batch(BatchPolicy::with_threads(threads));
            let whole = ExecutionBackend::<AdditionWorkload>::run(&exec, &w).expect("whole");
            let shard = w.shard(0, w.units(), w.units());
            let sharded = ExecutionBackend::<AdditionShard>::run(&exec, &shard).expect("shard");
            assert_eq!(
                sharded, whole,
                "full-range shard diverged at {threads} threads"
            );
            let whole_est = ExecutionBackend::<AdditionWorkload>::estimate(&exec, &w);
            let shard_est = ExecutionBackend::<AdditionShard>::estimate(&exec, &shard);
            assert_eq!(shard_est, whole_est);
        }
    }

    #[test]
    fn shards_run_on_the_fixed_capacity_machine() {
        use cim_workloads::{Shardable, Workload};
        let w = AdditionWorkload::scaled(4_096, 23);
        let exec = CimExecutor::new();
        // A half shard on the full-capacity machine: half the ops, and
        // the digest verifies against the shard's own slice.
        let half = w.shard(0, 2_048, w.units());
        let run = ExecutionBackend::<AdditionShard>::run(&exec, &half).expect("half shard");
        assert_eq!(run.digest.operations, 2_048);
        assert!(half.verify(&run.digest).is_ok());
        // The two halves' checksums recombine to the whole workload's.
        let right = w.shard(2_048, 2_048, w.units());
        let right_run = ExecutionBackend::<AdditionShard>::run(&exec, &right).expect("right shard");
        assert_eq!(
            run.digest
                .checksum
                .unwrap()
                .wrapping_add(right_run.digest.checksum.unwrap()),
            w.checksum()
        );
    }

    #[test]
    fn cim_beats_conventional_on_both_workloads() {
        // The Table-2 headline, asserted as an invariant of the models:
        // orders-of-magnitude EDP and efficiency advantage.
        let cim = CimExecutor::new();
        let conv = crate::conventional::ConventionalExecutor::new();

        let dna = DnaWorkload::paper(0);
        let cim_dna = Metrics::from_run(&cim.project(&dna, 0.5)).expect("non-degenerate");
        let conv_dna = Metrics::from_run(&conv.project(&dna, 0.5)).expect("non-degenerate");
        let (edp, eff, _) = cim_dna.improvement_over(&conv_dna);
        assert!(edp > 100.0, "DNA EDP improvement only {edp}");
        assert!(eff > 5.0, "DNA efficiency improvement only {eff}");

        let w = AdditionWorkload::paper(1);
        let cim_math = cim.run(&w).expect("cim additions run").report();
        let conv_math = conv.run(&w).expect("conventional additions run").report();
        let (edp, eff, perf) = Metrics::from_run(&cim_math)
            .expect("non-degenerate")
            .improvement_over(&Metrics::from_run(&conv_math).expect("non-degenerate"));
        assert!(edp > 10.0, "math EDP improvement only {edp}");
        assert!(eff > 10.0, "math efficiency improvement only {eff}");
        assert!(perf > 100.0, "math perf/area improvement only {perf}");
    }
}
