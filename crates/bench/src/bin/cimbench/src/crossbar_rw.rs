//! `crossbar_rw`: seeded reads and writes on a 64×64 1T1R array.
//!
//! The only workload that runs the nodal solver, its warm-start
//! workspace and the solver crew. Reads reuse the pulse solution; writes
//! force a refresh and a re-solve. It uses the same layer two ways, so a
//! read-path gain that costs writes shows up. The cells are gated
//! (1T1R): in a selector-less 1R array of this size the sneak currents
//! swamp the sense amplifier and every plain read returns 1.

use cim_crossbar::{ArrayStats, BiasScheme, Crossbar, TransistorCell, WriteOutcome};
use cim_device::DeviceParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{percentile, Metric, P99_SAMPLES};
use crate::runner::Workload;
use crate::trace::{Tracer, View};

const SIDE: usize = 64;
const ACCESSES: usize = 64;
/// Every fourth access is a write.
const WRITE_EVERY: usize = 4;
/// Writes in one pass.
pub const WRITES_PER_PASS: usize = ACCESSES / WRITE_EVERY;
const SCHEME: BiasScheme = BiasScheme::HalfV;

/// One seeded array access.
#[derive(Debug, Clone, Copy)]
enum Access {
    Read(usize, usize),
    Write(usize, usize, bool),
}

/// A pre-warmed array and the accesses every pass replays on a copy.
pub struct CrossbarRw {
    pristine: Crossbar<TransistorCell>,
    accesses: Vec<Access>,
    /// What each read must return, from a shadow of the stored bits.
    expected_reads: Vec<bool>,
}

/// Everything one pass observed.
#[derive(Debug, PartialEq)]
pub struct Output {
    stats: ArrayStats,
    reads: Vec<bool>,
    writes: Vec<WriteOutcome>,
    read_sweeps: u64,
    write_sweeps: u64,
}

impl Workload for CrossbarRw {
    const NAME: &'static str = "crossbar_rw";
    const CANARY: (f64, f64) = (1.207_319_559_418_574_4e-11, 1.280_000_000_000_000_7e-8);
    /// Enough passes for ten writes beyond the reported p99.
    const MIN_TRACED_PASSES: usize = P99_SAMPLES.div_ceil(WRITES_PER_PASS);
    type Input = Crossbar<TransistorCell>;
    type Output = Output;

    fn build(seed: u64, threads: usize) -> Self {
        let params = DeviceParams::table1_cim();
        let mut pristine =
            Crossbar::homogeneous(SIDE, SIDE, || TransistorCell::new(params.clone()))
                .with_solver_threads(threads);
        pristine.fill(|r, c| (r + c) % 2 == 0);
        // Warm the solver workspace; the copies start from here.
        pristine.read(0, 0, SCHEME);
        pristine.reset_stats();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut shadow: Vec<bool> = (0..SIDE * SIDE)
            .map(|k| (k / SIDE + k % SIDE).is_multiple_of(2))
            .collect();
        let mut expected_reads = Vec::new();
        let accesses = (0..ACCESSES)
            .map(|i| {
                let (r, c) = (rng.gen_range(0..SIDE), rng.gen_range(0..SIDE));
                if i % WRITE_EVERY == WRITE_EVERY - 1 {
                    let bit = rng.gen::<bool>();
                    shadow[r * SIDE + c] = bit;
                    Access::Write(r, c, bit)
                } else {
                    expected_reads.push(shadow[r * SIDE + c]);
                    Access::Read(r, c)
                }
            })
            .collect();
        Self {
            pristine,
            accesses,
            expected_reads,
        }
    }

    fn input(&self) -> Crossbar<TransistorCell> {
        self.pristine.clone()
    }

    fn pass(
        &self,
        mut array: Crossbar<TransistorCell>,
        tracer: &mut Tracer,
    ) -> Result<Output, String> {
        let mut reads = Vec::with_capacity(ACCESSES);
        let mut writes = Vec::with_capacity(WRITES_PER_PASS);
        let (mut read_sweeps, mut write_sweeps) = (0, 0);
        for &access in &self.accesses {
            let before = array.stats().solver_sweeps;
            match access {
                Access::Read(r, c) => {
                    reads.push(
                        tracer
                            .time("crossbar.read", || array.read(r, c, SCHEME))
                            .bit,
                    );
                    read_sweeps += array.stats().solver_sweeps - before;
                }
                Access::Write(r, c, bit) => {
                    writes.push(tracer.time("crossbar.write", || array.write(r, c, bit, SCHEME)));
                    write_sweeps += array.stats().solver_sweeps - before;
                }
            }
        }
        Ok(Output {
            stats: *array.stats(),
            reads,
            writes,
            read_sweeps,
            write_sweeps,
        })
    }

    fn check(&self, output: &Output) -> Result<(), String> {
        if let Some(i) = output.writes.iter().position(|w| !w.verified) {
            return Err(format!("write {i} did not verify"));
        }
        if output.reads != self.expected_reads {
            let i = output
                .reads
                .iter()
                .zip(&self.expected_reads)
                .position(|(a, b)| a != b)
                .unwrap_or(output.reads.len());
            return Err(format!("read {i} disagrees with the shadow bitmap"));
        }
        Ok(())
    }

    fn ops(_output: &Output) -> u64 {
        ACCESSES as u64
    }

    fn modelled(output: &Output) -> (f64, f64) {
        (
            output.stats.total_energy().get(),
            output.stats.elapsed.get(),
        )
    }

    fn input_checksum(&self) -> u64 {
        self.accesses.iter().fold(0, |h, a| {
            let word = match *a {
                Access::Read(r, c) => (r * SIDE + c) as u64,
                Access::Write(r, c, bit) => {
                    (1 << 32 | u64::from(bit) << 31) + (r * SIDE + c) as u64
                }
            };
            (h ^ word).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every access already has its own span: nothing to replay.
    fn replay(&self, _output: &Output, _tracer: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    fn layer_metrics(view: &View, reference: &Output) -> Vec<Metric> {
        let us = |name, p| percentile(&view.durations_ns(name), p) / 1e3;
        let stats = &reference.stats;
        let flips = reference.writes.iter().filter(|w| w.flipped).count();
        vec![
            Metric::new("crossbar.read_us_p50", us("crossbar.read", 0.5), "us"),
            Metric::new("crossbar.read_us_p99", us("crossbar.read", 0.99), "us"),
            Metric::new("crossbar.write_us_p50", us("crossbar.write", 0.5), "us"),
            Metric::new("crossbar.write_us_p99", us("crossbar.write", 0.99), "us"),
            Metric::new(
                "crossbar.sweeps_per_read",
                reference.read_sweeps as f64 / stats.reads as f64,
                "count",
            ),
            Metric::new(
                "crossbar.sweeps_per_write",
                reference.write_sweeps as f64 / stats.writes as f64,
                "count",
            ),
            Metric::new(
                "crossbar.sense_reuse_ratio",
                stats.sense_reuses as f64 / stats.reads as f64,
                "ratio",
            ),
            Metric::new(
                "crossbar.write_flip_ratio",
                flips as f64 / stats.writes as f64,
                "ratio",
            ),
        ]
    }
}
