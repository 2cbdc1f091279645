//! Named metrics and the result line the benchmark ends with.

use std::fmt::Write as _;

/// Metrics in insertion order: name, value, unit.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add (or replace) a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// The value of metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Append every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (n, v, u) in other.0 {
            self.put(n, v, u);
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: lifts, kernel runs checked, requests.
    pub attempted: usize,
    /// Attempted operations that errored, mismatched the native port, or
    /// were refused or lost.
    pub failed: usize,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Metrics,
    /// Per-layer metrics.
    pub per_layer: Metrics,
    /// Report lines for people: workload-specific figures, sample counts and
    /// the bases of every ratio.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// The final JSON line: `correct`, `attempted`, `failed` and `metrics`.
///
/// # Errors
/// Names the first metric whose value is not a finite number.
pub fn result_line(attempted: usize, failed: usize, metrics: &Metrics) -> Result<String, String> {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0 && attempted > 0
    ))
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
