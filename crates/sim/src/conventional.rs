//! Executor for the conventional (FinFET multi-core) machine.

use cim_arch::{ConventionalMachine, RunReport};
use cim_units::{Component, CostLedger, CountLedger, Energy, Phase, Time, UnitCosts};
use cim_workloads::{
    AdditionShard, AdditionWorkload, DnaSpec, DnaWorkload, ExecutionDigest, Genome, ReadSampler,
    ShortRead, SortedKmerIndex,
};
use serde::{Deserialize, Serialize};

use crate::backend::{check_adder_width, CostEstimate, ExecutionBackend, RunOutcome, SimError};
use crate::batch::{par_fold_stream, BatchPolicy, CHUNK_SIZE};
use crate::cache::{CacheConfig, CacheSim};
use crate::event::makespan;
use crate::hierarchy::MemoryHierarchy;

/// Runs workloads on the conventional machine model.
///
/// A pure machine model: workload content (and its seed) comes in
/// through the [`ExecutionBackend`] methods; the only state here is how
/// the per-item hot loops are driven ([`BatchPolicy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConventionalExecutor {
    /// How per-item loops are parallelised. Results are identical for
    /// every policy (see `crate::batch`); only wall-clock time changes.
    pub batch: BatchPolicy,
}

impl ConventionalExecutor {
    /// Machine label used in errors and reports.
    pub const MACHINE: &'static str = "conventional";

    /// Largest reference the DNA pipeline will execute in memory.
    pub const DNA_EXEC_CAP: u64 = 1 << 28;

    /// Creates an executor with automatic thread-count selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an executor with an explicit batch policy.
    pub fn with_batch(batch: BatchPolicy) -> Self {
        Self { batch }
    }

    /// Feeds the DNA mapper's memory references through an arbitrary
    /// [`MemoryHierarchy`] as they happen, returning `(avg cycles/access,
    /// DRAM ratio, per-level hit ratios)` — the hierarchy-sensitivity
    /// study the paper's flat 165-cycle model cannot express. The
    /// average covers this run's accesses; the ratios are the
    /// hierarchy's lifetime figures.
    ///
    /// # Panics
    ///
    /// Panics if the spec exceeds the executable cap.
    pub fn measure_hierarchy(
        &self,
        spec: DnaSpec,
        seed: u64,
        hierarchy: &mut MemoryHierarchy,
    ) -> (f64, f64, Vec<f64>) {
        assert!(
            spec.ref_len <= Self::DNA_EXEC_CAP,
            "executable specs are capped at 256M characters; project instead"
        );
        let genome = Genome::generate(spec.ref_len as usize, seed);
        let index = SortedKmerIndex::build(&genome, 16);
        let (accesses, cycles) = (hierarchy.accesses(), hierarchy.cycles());
        for read in dna_sampler(&spec, seed).stream(&genome) {
            let _ = index.map_read(&genome, &read, hierarchy);
        }
        let accesses = hierarchy.accesses() - accesses;
        let avg_cycles = if accesses == 0 {
            0.0
        } else {
            (hierarchy.cycles() - cycles) as f64 / accesses as f64
        };
        (
            avg_cycles,
            hierarchy.dram_ratio(),
            hierarchy.level_hit_ratios(),
        )
    }

    /// Shared additions driver for whole workloads and shards: streams
    /// `operands` on a host sized for `machine_ops` operations, then
    /// charges the executed count once through [`additions_attributed`]
    /// — the projection's own call. A whole-workload run is the
    /// full-range case (`machine_ops` equal to the operand count), so
    /// whole and full-range-shard outcomes are bit-identical by
    /// construction.
    fn additions_outcome(
        self,
        machine_ops: u64,
        operands: impl Iterator<Item = (u64, u64)>,
    ) -> RunOutcome {
        let (count, checksum) = par_fold_stream(
            self.batch,
            operands,
            || (0u64, 0u64),
            |(count, sum), chunk| {
                let sum = chunk
                    .iter()
                    .fold(sum, |sum, &(a, b)| sum.wrapping_add(a.wrapping_add(b)));
                (count + chunk.len() as u64, sum)
            },
            |(c1, s1), (c2, s2)| (c1 + c2, s1.wrapping_add(s2)),
        );
        let RunReport { area, ledger, .. } = additions_attributed(machine_ops, count);
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
            notes: vec![format!("checksum {checksum:#018x} over {count} additions")],
        }
    }
}

/// Charges `n_ops` additions on a host sized for `machine_ops`
/// operations. Executed runs and projections, of whole workloads and of
/// shards, all price through this one call, so a run's ledger equals its
/// projection's by construction.
fn additions_attributed(machine_ops: u64, n_ops: u64) -> RunReport {
    let machine = ConventionalMachine::math_paper(machine_ops);
    let mut ledger = CostLedger::new();
    machine.charge_batched(&mut ledger, Phase::Add, n_ops);
    RunReport {
        operations: n_ops,
        area: machine.area(),
        ledger,
    }
}

/// Closed-form host cost model for `n_ops` uniform operations amortised
/// over `workers` scaled functional units.
///
/// Per-op prices decompose exactly like
/// [`ConventionalMachine::charge_batched`]: gate switching and its
/// compute-cycle share, the expected cache-hit energy and cycles, the
/// DRAM miss residual, and the two static components spread over the
/// per-op latency share (`cluster_ratio` scales the cache statics with
/// the cluster count, as the run does). `certified` marks whether
/// `n_ops` is the exact count the run will charge (additions) or a
/// statistical prior (the DNA trace depends on sampled read content).
fn host_estimate(
    machine: &ConventionalMachine,
    phase: Phase,
    n_ops: u64,
    workers: u64,
    cluster_ratio: f64,
    certified: bool,
) -> CostEstimate {
    let workers_f = workers.max(1) as f64;
    let cycle = machine.tech.cycle();
    let compute_cycles = machine
        .unit
        .latency(&machine.tech)
        .in_cycles_of(machine.tech.clock)
        .max(1);
    let compute_time = cycle * compute_cycles as f64;
    let hit_time = cycle * machine.cache.hit_ratio * machine.cache.hit_cycles as f64;
    let op_latency = machine.op_latency();
    let gate_energy = machine.unit.dynamic_energy(&machine.tech);
    let hit_energy = machine.cache.hit_energy * machine.cache.hit_ratio;
    let miss_energy = machine.op_dynamic_energy() - gate_energy - hit_energy;
    let leak_per_unit = machine.unit.leakage_power(&machine.tech);
    // Per-op statics: total leakage over the smooth makespan
    // `op_latency × n / workers`, divided by n.
    let gate_leak = leak_per_unit * op_latency;
    let cache_static =
        (machine.static_power() * (cluster_ratio / workers_f) - leak_per_unit) * op_latency;

    let mut counts = CountLedger::new();
    let mut prices = UnitCosts::new();
    let cells: [(Component, Energy, Time); 5] = [
        (
            Component::GateDynamic,
            gate_energy,
            compute_time * (1.0 / workers_f),
        ),
        (
            Component::CacheAccess,
            hit_energy,
            hit_time * (1.0 / workers_f),
        ),
        (
            Component::DramAccess,
            miss_energy,
            (op_latency - compute_time - hit_time) * (1.0 / workers_f),
        ),
        (Component::GateLeakage, gate_leak, Time::ZERO),
        (Component::CacheStatic, cache_static, Time::ZERO),
    ];
    for (component, energy, time) in cells {
        counts.charge(component, phase, n_ops);
        prices.set(component, phase, energy, time);
    }
    CostEstimate {
        machine: ConventionalExecutor::MACHINE,
        counts,
        prices,
        certified,
    }
}

/// The workloads' shared read-sampling configuration (1% sequencing
/// error, seed decorrelated from the genome's).
pub(crate) fn dna_sampler(spec: &DnaSpec, seed: u64) -> ReadSampler {
    ReadSampler {
        read_len: spec.read_len as usize,
        coverage: spec.coverage as u32,
        error_rate: 0.01,
        seed: seed ^ 0x5eed,
    }
}

/// [`CHUNK_SIZE`] chunks per streamed block of the DNA run. Fixed — not
/// derived from the thread count — so the block boundaries are the same
/// on every machine.
const BLOCK_CHUNKS: usize = 4;

/// One read's index lookup, as the cache replay needs it.
struct MappedRead {
    /// Character comparisons (index probes + verification).
    comparisons: u64,
    /// Whether the read mapped back to its true position.
    mapped: bool,
    /// End of the read's accesses in its chunk's address buffer; they
    /// start where the previous read's end.
    end: usize,
}

/// A chunk of reads mapped through the index: every read's accesses back
/// to back in read order, plus one record per read. The run keeps one per
/// chunk of a block and refills it block after block, so its buffers are
/// allocated once.
struct MappedChunk {
    addresses: Vec<u64>,
    reads: Vec<MappedRead>,
}

impl MappedChunk {
    /// Buffers sized for `reads` reads of `read_len` characters: room
    /// per read for one candidate's verify walk plus the binary search's
    /// probes (at most 29 at the executable cap); a chunk with more
    /// candidates grows its buffer. The calling thread allocates them,
    /// so pool workers that fill them hold no heap of their own.
    fn with_capacity(reads: usize, read_len: usize) -> Self {
        Self {
            addresses: Vec::with_capacity(reads * (read_len + 32)),
            reads: Vec::with_capacity(reads),
        }
    }

    /// Maps `reads` in order, replacing what the chunk held.
    fn map(&mut self, index: &SortedKmerIndex, genome: &Genome, reads: &[ShortRead]) {
        self.addresses.clear();
        self.reads.clear();
        for read in reads {
            let outcome = index.map_read(genome, read, &mut self.addresses);
            self.reads.push(MappedRead {
                comparisons: outcome.comparisons,
                mapped: outcome.mapped_positions.contains(&read.true_position),
                end: self.addresses.len(),
            });
        }
    }
}

impl ExecutionBackend<DnaWorkload> for ConventionalExecutor {
    fn machine(&self) -> &'static str {
        Self::MACHINE
    }

    /// Executes the DNA pipeline at the workload's (scaled) size:
    /// generates the genome, builds the sorted index, samples reads,
    /// maps every read, measures cache behaviour on the real access
    /// trace, and schedules the per-read durations over the scaled
    /// machine's clusters.
    ///
    /// The reads stream through in blocks of 4 × [`CHUNK_SIZE`], a size
    /// fixed apart from the thread count. Each block's chunks map over
    /// the batch driver (pure index lookups, each chunk into one flat
    /// address buffer); then one [`CacheSim`] replays the block serially
    /// in read order, carrying its state across blocks, exactly as a
    /// serial walk of the whole trace would. The replay counts events
    /// per (component, phase) in integers, which are priced once at the
    /// end, so no whole-run trace is held and the ledger is the same at
    /// every thread count.
    fn run(&self, workload: &DnaWorkload) -> Result<RunOutcome, SimError> {
        let spec = workload.spec;
        if spec.ref_len > Self::DNA_EXEC_CAP {
            return Err(SimError::SpecTooLarge {
                machine: Self::MACHINE,
                requested: spec.ref_len,
                cap: Self::DNA_EXEC_CAP,
            });
        }
        let genome = Genome::generate(spec.ref_len as usize, workload.seed);
        let index = SortedKmerIndex::build(&genome, 16);
        let sampler = dna_sampler(&spec, workload.seed);
        let chunk_reads = CHUNK_SIZE.min(sampler.read_count(&genome));
        let mut reads = sampler.stream(&genome);

        let machine = ConventionalMachine::dna_paper();
        let clusters_scaled =
            ((machine.clusters as f64 * spec.scale_vs_paper()).round() as u64).max(1);
        let workers = (clusters_scaled * machine.units_per_cluster) as usize;

        // Event buckets: index probes (addresses past the genome) land in
        // `Phase::Index`, data accesses and comparisons in `Phase::Map`;
        // hits charge the cache, misses the DRAM behind it. Each access
        // costs 1 cycle on a hit, 1 + 165 on a miss; every comparison
        // costs one compute cycle (overlapped with the next access issue
        // in a real pipeline — we charge it, staying conservative for
        // the CMOS side). The compare bucket sits last so it absorbs the
        // makespan-share residual.
        const HIT_INDEX: usize = 0;
        const HIT_MAP: usize = 1;
        const MISS_INDEX: usize = 2;
        const MISS_MAP: usize = 3;
        const COMPARE: usize = 4;
        let hit_cost = machine.cache.hit_cycles;
        let miss_cost = machine.cache.hit_cycles + machine.cache.miss_penalty_cycles;
        let (hit_energy, miss_energy) = (machine.cache.hit_energy, machine.cache.miss_energy);
        let buckets: [(Component, Phase, u64, Energy); 5] = [
            (Component::CacheAccess, Phase::Index, hit_cost, hit_energy),
            (Component::CacheAccess, Phase::Map, hit_cost, hit_energy),
            (Component::DramAccess, Phase::Index, miss_cost, miss_energy),
            (Component::DramAccess, Phase::Map, miss_cost, miss_energy),
            (
                Component::GateDynamic,
                Phase::Map,
                1,
                machine.unit.dynamic_energy(&machine.tech),
            ),
        ];

        let index_base = genome.len() as u64;
        let mut cache = CacheSim::new(CacheConfig::table1_8kb());
        let cycle = machine.tech.cycle();
        let mut counts = [0u64; 5];
        let mut durations = Vec::new();
        let mut mapped = 0u64;
        let mut block = Vec::with_capacity(BLOCK_CHUNKS * CHUNK_SIZE);
        let mut mapped_chunks: Vec<MappedChunk> = (0..BLOCK_CHUNKS)
            .map(|_| MappedChunk::with_capacity(chunk_reads, spec.read_len as usize))
            .collect();
        loop {
            block.clear();
            block.extend(reads.by_ref().take(BLOCK_CHUNKS * CHUNK_SIZE));
            if block.is_empty() {
                break;
            }
            let chunks: Vec<&[ShortRead]> = block.chunks(CHUNK_SIZE).collect();
            let mapped_chunks = &mut mapped_chunks[..chunks.len()];
            cim_pool::run_exclusive(self.batch.threads, mapped_chunks, |c, chunk| {
                chunk.map(&index, &genome, chunks[c]);
            });
            for chunk in mapped_chunks.iter() {
                let mut start = 0;
                for read in &chunk.reads {
                    let accesses = &chunk.addresses[start..read.end];
                    start = read.end;
                    let (mut hits, mut probes, mut probe_hits) = (0u64, 0u64, 0u64);
                    for &address in accesses {
                        let hit = cache.access(address);
                        let probe = address >= index_base;
                        hits += u64::from(hit);
                        probes += u64::from(probe);
                        probe_hits += u64::from(hit & probe);
                    }
                    let misses = accesses.len() as u64 - hits;
                    counts[HIT_INDEX] += probe_hits;
                    counts[HIT_MAP] += hits - probe_hits;
                    counts[MISS_INDEX] += probes - probe_hits;
                    counts[MISS_MAP] += misses - (probes - probe_hits);
                    counts[COMPARE] += read.comparisons;
                    mapped += u64::from(read.mapped);
                    durations.push(
                        cycle * (read.comparisons + hits * hit_cost + misses * miss_cost) as f64,
                    );
                }
            }
        }

        let total_time = makespan(durations.iter().copied(), workers);

        // Charge the buckets: dynamic energy priced once per bucket, the
        // measured makespan split across buckets proportionally to their
        // cycle weights (the compare bucket, last, absorbs the residual
        // so the shares sum to `total_time` exactly).
        let total_cycles: u64 = buckets.iter().zip(counts).map(|(b, n)| n * b.2).sum();
        let mut ledger = CostLedger::new();
        let mut attributed = Time::ZERO;
        for (slot, (&(component, phase, cycles, price), count)) in
            buckets.iter().zip(counts).enumerate()
        {
            let share = if slot == COMPARE {
                total_time - attributed
            } else {
                total_time * ((count * cycles) as f64 / total_cycles.max(1) as f64)
            };
            attributed += share;
            ledger.charge(component, phase, price * count as f64, share, count);
        }

        // Statics over the makespan, scaled with the cluster count: gate
        // leakage exactly, the cache taking the residual.
        let static_scaled =
            machine.static_power() * (clusters_scaled as f64 / machine.clusters as f64);
        let gate_leak = machine.unit.leakage_power(&machine.tech) * workers as f64 * total_time;
        let cache_static = static_scaled * total_time - gate_leak;
        ledger.charge_energy(Component::GateLeakage, Phase::Map, gate_leak, 0);
        ledger.charge_energy(Component::CacheStatic, Phase::Map, cache_static, 0);

        let comparisons = counts[COMPARE];
        let items_total = durations.len();
        let measured_hit_ratio = cache.hit_ratio();
        let (index_hits, index_misses) = (counts[HIT_INDEX], counts[MISS_INDEX]);
        let index_hit_ratio = index_hits as f64 / (index_hits + index_misses).max(1) as f64;

        Ok(RunOutcome {
            machine: Self::MACHINE,
            area: machine.area() * (clusters_scaled as f64 / machine.clusters as f64),
            ledger,
            digest: ExecutionDigest {
                items_total: items_total as u64,
                items_verified: mapped,
                operations: comparisons,
                checksum: None,
            },
            measured_hit_ratio: Some(measured_hit_ratio),
            index_hit_ratio: Some(index_hit_ratio),
            notes: vec![format!(
                "scaled run: {mapped}/{} reads mapped, measured hit ratio {measured_hit_ratio:.3} \
                 (index probes alone: {index_hit_ratio:.3})",
                items_total,
            )],
        })
    }

    /// Projects the paper-scale DNA run (6×10⁹ comparisons) with the
    /// cache at `hit_ratio` (the measured one, or Table 1's 0.5 for
    /// as-published numbers), attributing the closed-form batch into the
    /// report's ledger. The workload's own (scaled) spec does not enter.
    fn project(&self, _workload: &DnaWorkload, hit_ratio: f64) -> RunReport {
        let mut machine = ConventionalMachine::dna_paper();
        machine.cache = machine.cache.with_hit_ratio(hit_ratio);
        let comparisons = DnaSpec::paper().comparisons();
        let mut ledger = CostLedger::new();
        machine.charge_batched(&mut ledger, Phase::Map, comparisons);
        RunReport {
            operations: comparisons,
            area: machine.area(),
            ledger,
        }
    }

    /// A closed-form prior at the workload's own scale: `coverage ×
    /// ref_len` comparisons at the paper's expected cache behaviour. Not
    /// certified — the run's measured trace (index probes, seed-extend
    /// comparisons, real hit ratio) deviates, which is exactly what the
    /// online calibrator exists to absorb.
    fn estimate(&self, workload: &DnaWorkload) -> CostEstimate {
        let spec = workload.spec;
        let machine = ConventionalMachine::dna_paper();
        let clusters_scaled =
            ((machine.clusters as f64 * spec.scale_vs_paper()).round() as u64).max(1);
        let workers = clusters_scaled * machine.units_per_cluster;
        host_estimate(
            &machine,
            Phase::Map,
            spec.comparisons(),
            workers,
            clusters_scaled as f64 / machine.clusters as f64,
            false,
        )
    }
}

impl ExecutionBackend<AdditionWorkload> for ConventionalExecutor {
    fn machine(&self) -> &'static str {
        Self::MACHINE
    }

    /// Executes every addition (checksumming the results for
    /// [`Workload::verify`](cim_workloads::Workload::verify)), then
    /// charges the executed count once through the paper machine's
    /// batch model — the same call the projection makes. The wrapping
    /// checksum merges associatively, so the chunked fold is exact at any
    /// thread count, and the ledger depends on the count alone, so it is
    /// thread-invariant by construction.
    ///
    /// Widths outside `1..=64` are a [`SimError::InvalidConfig`].
    fn run(&self, workload: &AdditionWorkload) -> Result<RunOutcome, SimError> {
        check_adder_width(Self::MACHINE, workload.bits)?;
        Ok(self.additions_outcome(workload.n_ops, workload.operands()))
    }

    fn project(&self, workload: &AdditionWorkload, _hit_ratio: f64) -> RunReport {
        additions_attributed(workload.n_ops, workload.n_ops)
    }

    /// Certifies the addition batch: exactly `n_ops` adder invocations
    /// through the cache — the same closed form
    /// [`run`](ExecutionBackend::run) charges per operation.
    fn estimate(&self, workload: &AdditionWorkload) -> CostEstimate {
        let machine = ConventionalMachine::math_paper(workload.n_ops);
        host_estimate(
            &machine,
            Phase::Add,
            workload.n_ops,
            machine.parallel_units(),
            1.0,
            true,
        )
    }
}

impl ExecutionBackend<AdditionShard> for ConventionalExecutor {
    fn machine(&self) -> &'static str {
        Self::MACHINE
    }

    /// Executes the shard's slice of the operand stream through the
    /// same fold-and-ledger path as a whole workload, on a host sized
    /// for the shard's `machine_ops` capacity (not for its length) —
    /// the split contract's fixed-capacity machine.
    fn run(&self, shard: &AdditionShard) -> Result<RunOutcome, SimError> {
        check_adder_width(Self::MACHINE, shard.bits)?;
        Ok(self.additions_outcome(shard.machine_ops, shard.operands()))
    }

    fn project(&self, shard: &AdditionShard, _hit_ratio: f64) -> RunReport {
        additions_attributed(shard.machine_ops, shard.len)
    }

    /// Certifies the shard: exactly `len` adder invocations on the
    /// `machine_ops`-capacity host — the closed form its
    /// [`run`](ExecutionBackend::run) charges.
    fn estimate(&self, shard: &AdditionShard) -> CostEstimate {
        let machine = ConventionalMachine::math_paper(shard.machine_ops);
        host_estimate(
            &machine,
            Phase::Add,
            shard.len,
            machine.parallel_units(),
            1.0,
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::Metrics;
    use cim_workloads::Workload;

    #[test]
    fn scaled_dna_run_maps_most_reads() {
        let exec = ConventionalExecutor::new();
        let workload = DnaWorkload {
            spec: DnaSpec {
                ref_len: 20_000,
                coverage: 3,
                read_len: 100,
            },
            seed: 42,
        };
        let run = exec.run(&workload).expect("in-cap spec executes");
        assert_eq!(run.digest.items_total, 600);
        // Seed-and-extend maps the vast majority of 1%-error reads.
        assert!(
            run.digest.items_verified * 10 >= run.digest.items_total * 7,
            "only {}/{} mapped",
            run.digest.items_verified,
            run.digest.items_total
        );
        assert!(workload.verify(&run.digest).is_ok());
        assert!(run.digest.operations > 0);
        assert!(run.ledger.total_time().get() > 0.0);
        assert!(run.notes[0].contains("reads mapped"));
    }

    #[test]
    fn sorted_index_measured_hit_ratio_is_poor() {
        // The paper's core claim about the sorted index: it destroys
        // locality. With a reference + index far exceeding 8 kB the
        // measured hit ratio lands well under sequential-workload levels.
        let exec = ConventionalExecutor::new();
        let workload = DnaWorkload {
            spec: DnaSpec {
                ref_len: 200_000,
                coverage: 2,
                read_len: 100,
            },
            seed: 7,
        };
        let run = exec.run(&workload).expect("in-cap spec executes");
        let index_hit_ratio = run.index_hit_ratio.expect("DNA runs measure index probes");
        let measured_hit_ratio = run.measured_hit_ratio.expect("DNA runs measure the cache");
        // The index probes are the locality-hostile component: a binary
        // search's top levels stay cached but the tail is a random walk.
        assert!(
            index_hit_ratio < 0.75,
            "index hit ratio {index_hit_ratio} unexpectedly high"
        );
        assert!(index_hit_ratio > 0.05, "probes should reuse the tree top");
        // Sequential verification dilutes the overall ratio upwards.
        assert!(measured_hit_ratio > index_hit_ratio);
    }

    #[test]
    fn dna_run_is_identical_at_every_thread_count() {
        let workload = DnaWorkload {
            spec: DnaSpec {
                ref_len: 50_000,
                coverage: 2,
                read_len: 100,
            },
            seed: 13,
        };
        let reference = ConventionalExecutor::with_batch(BatchPolicy::SERIAL)
            .run(&workload)
            .expect("serial run");
        for threads in [2, 3, 8] {
            let parallel = ConventionalExecutor::with_batch(BatchPolicy::with_threads(threads))
                .run(&workload)
                .expect("parallel run");
            assert_eq!(parallel, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn paper_projection_uses_full_scale_counts() {
        let exec = ConventionalExecutor::new();
        let report = exec.project(&DnaWorkload::paper(0), 0.5);
        assert_eq!(report.operations, 6_000_000_000);
        // 6e9 comparisons / 600k units = 10 000 rounds × 84 ns = 840 µs.
        assert!((report.total_time().as_micro_seconds() - 840.0).abs() < 1.0);
        let m = Metrics::from_run(&report).expect("projection is non-degenerate");
        assert!(m.ops_per_joule > 0.0);
    }

    #[test]
    fn additions_checksum_verifies() {
        let exec = ConventionalExecutor::new();
        let w = AdditionWorkload::scaled(10_000, 3);
        let run = exec.run(&w).expect("additions always execute");
        assert_eq!(run.digest.checksum, Some(w.checksum()));
        assert!(w.verify(&run.digest).is_ok());
        assert_eq!(run.digest.operations, 10_000);
        // 10 000 ops on ≥313 clusters × 32 units → single round.
        assert!((run.ledger.total_time().as_nano_seconds() - 5.28).abs() < 0.01);
        assert!(run.notes[0].contains("checksum"));
    }

    #[test]
    fn full_range_shard_runs_bit_identical_to_the_whole_workload() {
        use cim_workloads::Shardable;
        let w = AdditionWorkload::scaled(10_000, 17);
        for threads in [1usize, 4] {
            let exec = ConventionalExecutor::with_batch(BatchPolicy::with_threads(threads));
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
    fn shard_partition_checksums_recombine() {
        use cim_workloads::{Shardable, Workload};
        let w = AdditionWorkload::scaled(5_000, 29);
        let exec = ConventionalExecutor::new();
        let left = w.shard(0, 1_500, w.units());
        let right = w.shard(1_500, 3_500, w.units());
        let l = ExecutionBackend::<AdditionShard>::run(&exec, &left).expect("left");
        let r = ExecutionBackend::<AdditionShard>::run(&exec, &right).expect("right");
        assert!(left.verify(&l.digest).is_ok());
        assert!(right.verify(&r.digest).is_ok());
        assert_eq!(
            l.digest
                .checksum
                .unwrap()
                .wrapping_add(r.digest.checksum.unwrap()),
            w.checksum()
        );
    }

    #[test]
    fn hierarchy_study_shows_l2_absorbing_index_probes() {
        let exec = ConventionalExecutor::new();
        let spec = DnaSpec {
            ref_len: 60_000,
            coverage: 2,
            read_len: 100,
        };
        let mut flat = crate::hierarchy::MemoryHierarchy::table1_flat();
        let (flat_cycles, flat_dram, _) = exec.measure_hierarchy(spec, 4, &mut flat);
        let mut deep = crate::hierarchy::MemoryHierarchy::table1_with_l2();
        let (deep_cycles, deep_dram, levels) = exec.measure_hierarchy(spec, 4, &mut deep);
        assert!(
            deep_dram < flat_dram,
            "L2 must reduce DRAM traffic: {deep_dram} vs {flat_dram}"
        );
        assert!(
            deep_cycles < flat_cycles,
            "L2 must reduce average latency: {deep_cycles} vs {flat_cycles}"
        );
        assert_eq!(levels.len(), 2);

        // Streaming the references is exact: a whole trace replayed
        // through a fresh hierarchy gives the same figures to the bit.
        let genome = Genome::generate(spec.ref_len as usize, 4);
        let index = SortedKmerIndex::build(&genome, 16);
        let mut trace = cim_workloads::MemoryTrace::new();
        for read in dna_sampler(&spec, 4).sample(&genome) {
            let _ = index.map_read(&genome, &read, &mut trace);
        }
        let mut replayed = crate::hierarchy::MemoryHierarchy::table1_with_l2();
        let replayed_cycles = replayed.run_trace(&trace);
        assert_eq!(deep_cycles.to_bits(), replayed_cycles.to_bits());
        assert_eq!(deep_dram.to_bits(), replayed.dram_ratio().to_bits());
        assert_eq!(levels, replayed.level_hit_ratios());
    }

    #[test]
    fn refuses_paper_scale_execution() {
        let exec = ConventionalExecutor::new();
        let err = exec
            .run(&DnaWorkload::paper(0))
            .expect_err("paper scale must not execute in memory");
        assert!(matches!(
            err,
            SimError::SpecTooLarge {
                machine: "conventional",
                cap: ConventionalExecutor::DNA_EXEC_CAP,
                ..
            }
        ));
        assert!(err.to_string().contains("capped"));
    }
}
