//! Metric values, the quantile rule, and the result line.

/// One reported number: printed as `name value unit`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The value as measured, never rounded.
    pub value: f64,
    /// Unit label (`ms`, `ops/s`, `count`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        f64::midpoint(sorted[mid - 1], sorted[mid])
    } else {
        sorted[mid]
    }
}

/// Nearest-rank index of percentile `p` (a fraction) among `n` sorted
/// samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// Nearest-rank percentile `p` (a fraction) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len())]
}

/// Samples a timing needs before its p99 has ten beyond it.
pub const P99_SAMPLES: usize = 1000;

fn samples_beyond(p: f64, n: usize) -> usize {
    n - 1 - rank(p, n)
}

/// The highest percentile worth reporting for `n` samples: the tail is
/// only stated where at least ten samples lie beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(p, n) >= 10)
}

/// The last line of a run: a single JSON object.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// The process's peak resident set (`VmHWM`) less its resident mapped
/// files (`RssFile`), in MiB: the workload's own peak memory. How many
/// pages of the binary and its libraries are resident depends on the
/// page cache's read-around and moves by up to 160 KiB from run to run,
/// half the smallest workload's own memory. They are mapped at start-up
/// and stay mapped, so their count at the end is taken off the peak.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    Some((kib("VmHWM:")? - kib("RssFile:")?) / 1024.0)
}
