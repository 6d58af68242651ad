//! `dna`: Table 2's DNA column on both machines.
//!
//! Genome, index and read generation, the conventional index walk with
//! its sequential 8 KB cache replay, and the bit-sliced comparator do
//! almost all the work; the pass makes only a handful of pool calls and
//! touches no serve layer and no solver, so it is the bypass workload for
//! fabric, pool and crossbar changes. The 16-mer index outgrows the host
//! L2.

use cim_logic::{BitSliceEngine, Comparator};
use cim_sim::{
    par_map, BatchPolicy, CacheConfig, CacheSim, CimExecutor, ConventionalExecutor,
    ExecutionBackend, RunOutcome,
};
use cim_workloads::{
    DnaSpec, DnaWorkload, Genome, MemoryTrace, ReadSampler, ShortRead, SortedKmerIndex,
    Workload as _,
};

use crate::metrics::Metric;
use crate::runner::Workload;
use crate::trace::{Tracer, View};

const SPEC: DnaSpec = DnaSpec {
    ref_len: 500_000,
    coverage: 5,
    read_len: 100,
};

/// The conventional executor's index seed length.
const SEED_LEN: usize = 16;

/// The DNA workload on both executors.
pub struct Dna {
    workload: DnaWorkload,
    batch: BatchPolicy,
}

/// Both machines' outcomes of one pass.
#[derive(Debug, PartialEq)]
pub struct Output {
    cim: RunOutcome,
    conv: RunOutcome,
}

impl Dna {
    /// The executors' read sampler: 1% substitutions, seed decorrelated
    /// from the genome's.
    fn sampler(&self) -> ReadSampler {
        ReadSampler {
            read_len: SPEC.read_len as usize,
            coverage: SPEC.coverage as u32,
            error_rate: 0.01,
            seed: self.workload.seed ^ 0x5eed,
        }
    }

    fn genome(&self) -> Genome {
        Genome::generate(SPEC.ref_len as usize, self.workload.seed)
    }
}

/// One read/window group as the comparator takes it: bit-planes
/// `[s0, s1, r0, r1]` of up to 64 read symbols and their reference
/// symbols, lane `k` holding symbol `k`.
struct Group {
    planes: [u64; 4],
    /// Lanes where the symbols are equal.
    expect: u64,
    /// Lanes holding a symbol.
    live: u64,
}

/// Every read against its true window, cut into 64-symbol groups.
fn groups(genome: &Genome, reads: &[ShortRead]) -> Vec<Group> {
    let codes = genome.codes();
    let mut groups = Vec::new();
    for read in reads {
        let pos = read.true_position;
        let window = &codes[pos..pos + read.symbols.len()];
        for (symbols, references) in read.symbols.chunks(64).zip(window.chunks(64)) {
            let mut group = Group {
                planes: [0; 4],
                expect: 0,
                live: u64::MAX >> (64 - symbols.len()),
            };
            for (lane, (&s, &r)) in symbols.iter().zip(references).enumerate() {
                for (plane, bit) in group.planes.iter_mut().zip([s, s >> 1, r, r >> 1]) {
                    *plane |= u64::from(bit & 1) << lane;
                }
                group.expect |= u64::from(s == r) << lane;
            }
            groups.push(group);
        }
    }
    groups
}

impl Workload for Dna {
    const NAME: &'static str = "dna";
    const CANARY: (f64, f64) = (4.253_580_043_251_438e-4, 8.009_46e-4);
    type Input = ();
    type Output = Output;

    fn build(seed: u64, threads: usize) -> Self {
        Self {
            workload: DnaWorkload { spec: SPEC, seed },
            batch: BatchPolicy::with_threads(threads),
        }
    }

    fn input(&self) {}

    fn pass(&self, (): (), tracer: &mut Tracer) -> Result<Output, String> {
        let cim = tracer.time("sim.cim_run", || {
            CimExecutor::with_batch(self.batch).run(&self.workload)
        });
        let conv = tracer.time("sim.conv_run", || {
            ConventionalExecutor::with_batch(self.batch).run(&self.workload)
        });
        Ok(Output {
            cim: cim.map_err(|e| e.to_string())?,
            conv: conv.map_err(|e| e.to_string())?,
        })
    }

    fn check(&self, output: &Output) -> Result<(), String> {
        self.workload
            .verify(&output.cim.digest)
            .map_err(|e| format!("cim: {e}"))?;
        self.workload
            .verify(&output.conv.digest)
            .map_err(|e| format!("conventional: {e}"))?;
        // One comparator call per read symbol: coverage × reference.
        let expected = SPEC.coverage * SPEC.ref_len;
        if output.cim.digest.operations != expected {
            return Err(format!(
                "cim ran {} comparisons, expected {expected}",
                output.cim.digest.operations
            ));
        }
        Ok(())
    }

    fn ops(output: &Output) -> u64 {
        output.cim.digest.operations + output.conv.digest.operations
    }

    fn modelled(output: &Output) -> (f64, f64) {
        let (cim, conv) = (&output.cim.ledger, &output.conv.ledger);
        (
            cim.total_energy().get() + conv.total_energy().get(),
            cim.total_time().get() + conv.total_time().get(),
        )
    }

    fn input_checksum(&self) -> u64 {
        // FNV-1a over the genome.
        self.genome()
            .codes()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &c| {
                (h ^ u64::from(c)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    fn replay(&self, output: &Output, tracer: &mut Tracer) -> Result<(), String> {
        const CIM: &str = "sim.cim_run";
        const CONV: &str = "sim.conv_run";
        let genome = tracer.replay("workloads.genome", CIM, || self.genome());
        let reads = tracer.replay("workloads.reads_sample", CIM, || {
            self.sampler().sample(&genome)
        });
        // Marshalled outside the span, so it times the kernel calls only;
        // the results buffer is written first so no page faults land in
        // the span either.
        let groups = groups(&genome, &reads);
        let mut matches = vec![u64::MAX; groups.len()];
        tracer.replay("logic.comparator", CIM, || {
            let comparator = Comparator::new();
            let mut engine = BitSliceEngine::new();
            for (group, eq) in groups.iter().zip(&mut matches) {
                let [s0, s1, r0, r1] = group.planes;
                *eq = comparator.matches_sliced(&mut engine, s0, s1, r0, r1);
            }
        });
        let wrong: u32 = groups
            .iter()
            .zip(&matches)
            .map(|(group, eq)| ((eq ^ group.expect) & group.live).count_ones())
            .sum();
        if wrong != 0 {
            return Err(format!("comparator replay disagreed on {wrong} lanes"));
        }

        let genome = tracer.replay("workloads.genome", CONV, || self.genome());
        let index = tracer.replay("workloads.index_build", CONV, || {
            SortedKmerIndex::build(&genome, SEED_LEN)
        });
        let reads = tracer.replay("workloads.reads_sample", CONV, || {
            self.sampler().sample(&genome)
        });
        let traces = tracer.replay("workloads.index_map", CONV, || {
            par_map(self.batch, &reads, |read| {
                let mut trace = MemoryTrace::new();
                let outcome = index.map_read(&genome, read, &mut trace);
                (outcome, trace)
            })
        });
        let hit_ratio = tracer.replay("sim.cache_replay", CONV, || {
            let mut cache = CacheSim::new(CacheConfig::table1_8kb());
            for (_, trace) in &traces {
                cache.run_trace(trace);
            }
            cache.hit_ratio()
        });
        // The replay re-ran the run's own trace only if it lands on the
        // hit ratio the run measured.
        if Some(hit_ratio) != output.conv.measured_hit_ratio {
            return Err(format!(
                "cache replay hit ratio {hit_ratio} differs from the run's {:?}",
                output.conv.measured_hit_ratio
            ));
        }
        Ok(())
    }

    fn layer_metrics(view: &View, reference: &Output) -> Vec<Metric> {
        let median = crate::metrics::median;
        let comparisons = reference.cim.digest.operations as f64;
        vec![
            Metric::new(
                "workloads.genome_ms",
                view.median_ms("workloads.genome"),
                "ms",
            ),
            Metric::new(
                "workloads.index_build_ms",
                view.median_ms("workloads.index_build"),
                "ms",
            ),
            Metric::new(
                "workloads.reads_sample_ms",
                view.median_ms("workloads.reads_sample"),
                "ms",
            ),
            Metric::new(
                "workloads.index_map_ms",
                view.median_ms("workloads.index_map"),
                "ms",
            ),
            Metric::new(
                "logic.comparator_ns_per_op",
                median(&view.durations_ns("logic.comparator")) / comparisons,
                "ns",
            ),
            Metric::new("sim.cim_run_ms", view.median_ms("sim.cim_run"), "ms"),
            Metric::new("sim.conv_run_ms", view.median_ms("sim.conv_run"), "ms"),
            Metric::new(
                "sim.cim_self_ms",
                median(&view.self_ms("sim.cim_run")),
                "ms",
            ),
            Metric::new(
                "sim.conv_self_ms",
                median(&view.self_ms("sim.conv_run")),
                "ms",
            ),
            Metric::new(
                "sim.cache_replay_ms",
                view.median_ms("sim.cache_replay"),
                "ms",
            ),
            Metric::new(
                "sim.cache_hit_ratio",
                reference.conv.measured_hit_ratio.unwrap_or(0.0),
                "ratio",
            ),
        ]
    }

    fn logic_ops(reference: &Output) -> u64 {
        reference.cim.digest.operations
    }
}
