//! Small numeric and reporting helpers.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median seconds per call of `f`, calling it until `budget` is spent and
/// at least `min_reps` times.
pub fn time_median(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < budget {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    median(&times)
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// A human-readable table.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (n, v, u) in &self.0 {
            let _ = writeln!(s, "  {n:<32} {v:>16.6} {u}");
        }
        s
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// A non-finite value cannot be written as JSON and fails the run.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let all_finite = self.0.iter().all(|(_, v, _)| v.is_finite());
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            correct && all_finite
        );
        for (i, (n, v, u)) in self.0.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        s.push_str("}}");
        s
    }
}
