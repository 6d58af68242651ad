//! The closed loop every workload runs through: set-up, a 1-thread
//! reference, timed passes back to back, output checks, and (traced)
//! replays.

use std::time::{Duration, Instant};

use crate::metrics::{median, peak_rss_mb, percentile, tail_percentile, Metric};
use crate::trace::{Tracer, View, PASS};
use crate::{additions, crossbar_rw, dna, serve, Config};

/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Timed passes a run makes even when `--seconds` has run out.
const MIN_PASSES: usize = 3;

/// Replays covering more than this share of their pass re-ran work the
/// pass never did, or the host slowed down between the two: a warning,
/// since wall-clock noise says nothing about the outputs.
const MAX_REPLAY_COVERAGE: f64 = 1.1;

/// Seed at which every workload's modelled values are pinned.
pub const CANARY_SEED: u64 = 2015;

/// Relative drift allowed in a pinned modelled value. Re-pricing a
/// ledger through 26-bit dyadic unit prices moves its last digits by
/// less than 2⁻²⁶ ≈ 1.5e-8; any change to the model itself moves far
/// more.
const CANARY_TOLERANCE: f64 = 1e-6;

/// One benchmark workload: its inputs, its pass, and how to check it.
pub trait Workload: Sized {
    /// The `--workload` name.
    const NAME: &'static str;
    /// Traced passes needed before every per-call percentile this
    /// workload reports has ten samples beyond it.
    const MIN_TRACED_PASSES: usize = MIN_PASSES;
    /// Per-pass input, made outside the timed region.
    type Input;
    /// What one pass produces; compared bit for bit with the reference.
    type Output: PartialEq;

    /// Builds the workload's inputs and machines from `seed`, running
    /// the layers on `threads` host threads.
    fn build(seed: u64, threads: usize) -> Self;
    /// The input of the next pass.
    fn input(&self) -> Self::Input;
    /// One pass, with a span around each call into a layer.
    fn pass(&self, input: Self::Input, tracer: &mut Tracer) -> Result<Self::Output, String>;
    /// The workload's own output checks.
    fn check(&self, output: &Self::Output) -> Result<(), String>;
    /// Simulated operations in one pass.
    fn ops(output: &Self::Output) -> u64;
    /// Modelled `(energy in J, time in s)` of one pass.
    fn modelled(output: &Self::Output) -> (f64, f64);
    /// [`Workload::modelled`] at [`CANARY_SEED`]: the model's results,
    /// which a change meant only to speed up the simulator must keep.
    const CANARY: (f64, f64);
    /// A digest of the seeded inputs.
    fn input_checksum(&self) -> u64;
    /// Replays parts of the traced pass that produced `output`.
    fn replay(&self, output: &Self::Output, tracer: &mut Tracer) -> Result<(), String>;
    /// Per-layer metrics from this workload's spans.
    fn layer_metrics(view: &View, reference: &Self::Output) -> Vec<Metric>;
    /// Operations the workload's replays push through the logic kernels.
    fn logic_ops(_reference: &Self::Output) -> u64 {
        0
    }
}

/// Output checks attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Tally {
    /// Failed checks over checks made.
    pub fn failed_ratio(self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("[fail] {what}: {e}");
        }
    }
}

/// What a run prints: every metric as a line, then the gated ones in the
/// result object.
#[derive(Debug)]
pub struct Report {
    /// Every metric, printed as `name value unit`.
    pub lines: Vec<Metric>,
    /// The metrics the result object carries.
    pub gated: Vec<Metric>,
    /// Checks made and failed.
    pub tally: Tally,
}

/// A workload built for measurement, with its 1-thread reference output.
struct Prepared<W: Workload> {
    bench: W,
    reference: W::Output,
}

fn prepare<W: Workload>(config: &Config) -> Result<Prepared<W>, String> {
    let serial = W::build(config.seed, 1);
    let reference = serial.pass(serial.input(), &mut Tracer::off())?;
    serial.check(&reference)?;
    Ok(Prepared {
        bench: W::build(config.seed, config.threads),
        reference,
    })
}

/// Checks that the model still gives its pinned results at the canary
/// seed; the run's own seed varies, so its modelled values cannot be
/// pinned.
fn canary<W: Workload>() -> Result<(), String> {
    let bench = W::build(CANARY_SEED, 1);
    let (energy, time) = W::modelled(&bench.pass(bench.input(), &mut Tracer::off())?);
    let (pinned_energy, pinned_time) = W::CANARY;
    for (what, value, pinned) in [
        ("energy", energy, pinned_energy),
        ("time", time, pinned_time),
    ] {
        if (value - pinned).abs() > CANARY_TOLERANCE * pinned.abs() {
            return Err(format!(
                "modelled {what} at seed {CANARY_SEED} is {value:?}, pinned at {pinned:?}"
            ));
        }
    }
    Ok(())
}

impl<W: Workload> Prepared<W> {
    /// Checks one pass: equal to the reference, then the workload's own
    /// checks.
    fn check(&self, output: &Result<W::Output, String>) -> Result<(), String> {
        let output = output.as_ref().map_err(Clone::clone)?;
        if *output != self.reference {
            return Err("output differs from the 1-thread reference".into());
        }
        self.bench.check(output)
    }

    /// One untraced pass and its duration in seconds.
    fn timed_pass(&self) -> (f64, Result<W::Output, String>) {
        let input = self.bench.input();
        let start = Instant::now();
        let output = self.bench.pass(input, &mut Tracer::off());
        (start.elapsed().as_secs_f64(), output)
    }
}

/// An untraced run: the end-to-end metrics.
pub fn measure<W: Workload>(config: &Config) -> Result<Report, String> {
    // Set-up as a user pays it: construction plus the first, cold pass.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut cold = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        let fresh = W::build(config.seed, config.threads);
        let output = fresh.pass(fresh.input(), &mut Tracer::off());
        setup_s.push(start.elapsed().as_secs_f64());
        cold.push(output);
    }
    let prepared = prepare::<W>(config)?;
    let mut tally = Tally::default();
    tally.record("modelled canary", canary::<W>());
    for output in &cold {
        tally.record("cold pass", prepared.check(output));
    }

    let mut pass_s = Vec::new();
    let start = Instant::now();
    while pass_s.len() < config.passes
        && (pass_s.len() < MIN_PASSES || start.elapsed() < config.seconds)
    {
        let (elapsed, output) = prepared.timed_pass();
        pass_s.push(elapsed);
        tally.record("pass", prepared.check(&output));
    }
    // Every checked pass equals the reference, so its modelled values
    // are the run's.
    let (energy_j, time_s) = W::modelled(&prepared.reference);
    let pass_median = median(&pass_s);

    let gated = vec![
        Metric::new(
            "sim_ops_per_s",
            W::ops(&prepared.reference) as f64 / pass_median,
            "ops/s",
        ),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    let mut lines = gated.clone();
    lines.extend([
        Metric::new("failed_ratio", tally.failed_ratio(), "ratio"),
        Metric::new("modelled_energy_j", energy_j, "J"),
        Metric::new("modelled_time_s", time_s, "s"),
        Metric::new("passes", pass_s.len() as f64, "count"),
        Metric::new("pass_ms_p50", pass_median * 1e3, "ms"),
        // The low 53 bits, so the printed number is exact.
        Metric::new(
            "input_checksum",
            (prepared.bench.input_checksum() & ((1 << 53) - 1)) as f64,
            "digest",
        ),
    ]);
    if tail_percentile(pass_s.len()) >= Some(0.9) {
        lines.push(Metric::new(
            "pass_ms_p90",
            percentile(&pass_s, 0.9) * 1e3,
            "ms",
        ));
    }
    Ok(Report {
        lines,
        gated,
        tally,
    })
}

/// Traces one workload. The named workload runs for half the budget and
/// alternates untraced passes with traced ones for the overhead ratio;
/// the others run just the traced passes their layer metrics need.
/// Returns the layer metrics and the workload's logic-kernel ops.
fn trace_workload<W: Workload>(
    config: &Config,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, u64), String> {
    let prepared = prepare::<W>(config)?;
    tally.record("modelled canary", canary::<W>());
    let named = config.workload == W::NAME;
    let budget = if named {
        config.seconds / 2
    } else {
        Duration::ZERO
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < config.passes
        && (traced.len() < W::MIN_TRACED_PASSES || start.elapsed() < budget)
    {
        if named {
            let (elapsed, output) = prepared.timed_pass();
            untraced.push(elapsed);
            tally.record("pass", prepared.check(&output));
        }
        tracer.begin_pass(W::NAME, traced.len());
        let input = prepared.bench.input();
        tracer.open(PASS);
        let output = prepared.bench.pass(input, tracer);
        let pass_ns = tracer.close().expect("the pass span is open");
        traced.push(pass_ns as f64 / 1e9);
        tally.record("traced pass", prepared.check(&output));
        if let Ok(output) = &output {
            tally.record("replay", prepared.bench.replay(output, tracer));
        }
    }

    let view = View::new(tracer.spans(), W::NAME);
    let coverage = median(&view.replay_coverage());
    println!("trace.replay_coverage.{} {coverage} ratio", W::NAME);
    if coverage > MAX_REPLAY_COVERAGE {
        eprintln!(
            "[warn] {} replays cover {coverage:.3} of their pass (expected at most \
             {MAX_REPLAY_COVERAGE}); its self times are unreliable",
            W::NAME
        );
    }
    let mut metrics = W::layer_metrics(&view, &prepared.reference);
    if named {
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            median(&traced) / median(&untraced),
            "ratio",
        ));
    }
    Ok((metrics, W::logic_ops(&prepared.reference)))
}

/// A traced run: every per-layer metric. Each workload's layers are
/// measured on its own seeded inputs, so every traced run reports every
/// layer; the named workload adds the tracing overhead and a larger
/// share of the time.
pub fn trace(config: &Config) -> Result<Report, String> {
    let mut tracer = Tracer::on();
    let mut tally = Tally::default();
    let mut gated = Vec::new();
    let mut logic_ops = 0;
    for (metrics, ops) in [
        trace_workload::<dna::Dna>(config, &mut tracer, &mut tally)?,
        trace_workload::<additions::Additions>(config, &mut tracer, &mut tally)?,
        trace_workload::<serve::Serve>(config, &mut tracer, &mut tally)?,
        trace_workload::<crossbar_rw::CrossbarRw>(config, &mut tracer, &mut tally)?,
    ] {
        gated.extend(metrics);
        logic_ops += ops;
    }
    gated.push(Metric::new("logic.ops", logic_ops as f64, "count"));

    let path = std::path::PathBuf::from(format!(
        "target/cimbench/{}-{}.spans.tsv",
        config.workload, config.seed
    ));
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[trace] spans written to {}", path.display());

    let mut lines = gated.clone();
    lines.extend([
        Metric::new("spans", tracer.spans().len() as f64, "count"),
        Metric::new("failed_ratio", tally.failed_ratio(), "ratio"),
    ]);
    Ok(Report {
        lines,
        gated,
        tally,
    })
}
