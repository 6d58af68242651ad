//! Spans recorded around the benchmark's calls into each layer.
//!
//! A traced pass opens a `pass` span and, inside it, one span per call
//! into a layer (the *run* spans). After the pass, the workload replays
//! parts of it as isolated calls on the same inputs; each replay span
//! names the run span it re-executes a piece of as its parent. A run
//! span's self time is its duration minus the replayed children.
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::metrics::median;

/// Name of the span the runner opens around every traced pass.
pub const PASS: &str = "pass";

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sim.cim_run`.
    pub name: &'static str,
    /// Workload whose pass this span belongs to.
    pub workload: &'static str,
    /// Pass id within the workload.
    pub pass: usize,
    /// Index of the causing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// An isolated replay (or a layer probe) run after the pass.
    pub replay: bool,
    /// Host thread the replayed call ran on in the real pass: replays on
    /// different lanes of one parent overlapped there.
    pub lane: u8,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; every method is a pass-through when off, so
/// the untraced passes run the same code.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: &'static str,
    pass: usize,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
            pass: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            origin: Some(Instant::now()),
            ..Self::off()
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tags the spans that follow with a workload and pass id.
    pub fn begin_pass(&mut self, workload: &'static str, pass: usize) {
        self.workload = workload;
        self.pass = pass;
    }

    fn now(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, replay: bool, lane: u8) -> usize {
        let start_ns = self.origin.map_or(0, Self::now);
        self.spans.push(Span {
            name,
            workload: self.workload,
            pass: self.pass,
            parent,
            replay,
            lane,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        if let Some(origin) = self.origin {
            self.spans[id].end_ns = Self::now(origin);
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if self.origin.is_some() {
            let parent = self.open.last().copied();
            let id = self.push(name, parent, false, 0);
            self.open.push(id);
        }
    }

    /// Closes the innermost open span, returning its duration.
    pub fn close(&mut self) -> Option<u64> {
        let id = self.open.pop()?;
        self.end(id);
        Some(self.spans[id].ns())
    }

    /// Times `f` as a span nested in the innermost open one.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let result = f();
        self.close();
        result
    }

    /// Replays a piece of the finished pass on lane 0; `parent` names
    /// the run span of the current pass that executed it.
    pub fn replay<R>(&mut self, name: &'static str, parent: &str, f: impl FnOnce() -> R) -> R {
        self.replay_on(0, name, parent, f)
    }

    /// [`Tracer::replay`] for a piece that ran on host thread `lane`.
    pub fn replay_on<R>(
        &mut self,
        lane: u8,
        name: &'static str,
        parent: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        if self.origin.is_none() {
            return f();
        }
        let parent = self.spans.iter().rposition(|s| {
            s.name == parent && s.workload == self.workload && s.pass == self.pass && !s.replay
        });
        let id = self.push(name, parent, true, lane);
        let result = f();
        self.end(id);
        result
    }

    /// Times a layer probe: a root span outside the pass's run spans.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.origin.is_none() {
            return f();
        }
        let id = self.push(name, None, true, 0);
        let result = f();
        self.end(id);
        result
    }

    /// Writes every span as one TSV row.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out =
            String::from("id\tworkload\tpass\tname\tparent\treplay\tlane\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.workload,
                s.pass,
                s.name,
                u8::from(s.replay),
                s.lane,
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Spans of one workload, with the per-pass queries the layer metrics
/// need.
pub struct View<'a> {
    spans: &'a [Span],
    workload: &'static str,
    /// Replayed children's time per (parent span, lane), in ns.
    lanes: BTreeMap<(usize, u8), u64>,
}

impl<'a> View<'a> {
    /// The spans of `workload` among `spans` (indices stay global).
    pub fn new(spans: &'a [Span], workload: &'static str) -> Self {
        let mut lanes = BTreeMap::new();
        for s in spans.iter().filter(|s| s.workload == workload && s.replay) {
            if let Some(parent) = s.parent {
                *lanes.entry((parent, s.lane)).or_default() += s.ns();
            }
        }
        Self {
            spans,
            workload,
            lanes,
        }
    }

    fn named(&self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        let workload = self.workload;
        self.spans
            .iter()
            .filter(move |s| s.workload == workload && s.name == name)
    }

    /// Every duration of `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns() as f64).collect()
    }

    /// Median duration of one `name` span, in milliseconds.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ns(name)) / 1e6
    }

    /// Children replayed from span `id`, folded lane by lane: pieces on
    /// different lanes overlapped in the real pass, so they cover the
    /// longest lane's sum.
    fn covered_ns(&self, id: usize) -> u64 {
        self.lanes
            .range((id, 0)..=(id, u8::MAX))
            .map(|(_, &ns)| ns)
            .max()
            .unwrap_or(0)
    }

    /// Per pass: the `name` run span's duration minus its replayed
    /// children, in milliseconds.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.workload == self.workload && s.name == name && !s.replay)
            .map(|(id, s)| (s.ns() as f64 - self.covered_ns(id) as f64) / 1e6)
            .collect()
    }

    /// Per pass: the time its replayed children cover, as a share of
    /// the pass span. Above 1 means the replays re-ran more than the
    /// pass did.
    pub fn replay_coverage(&self) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.workload == self.workload && s.name == PASS && !s.replay)
            .map(|(pass_id, pass)| {
                let covered: u64 = self
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.parent == Some(pass_id))
                    .map(|(run_id, _)| self.covered_ns(run_id))
                    .sum();
                covered as f64 / pass.ns().max(1) as f64
            })
            .collect()
    }
}
