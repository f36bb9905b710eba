//! Small measurement helpers: order statistics, digests, peak memory, and
//! the result line.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Median of a sample (mean of the two middle values for even sizes); 0
/// for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of a sample (a quarter of the values dropped
/// at each end); the plain mean below four values.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    ratio(mid.iter().sum(), mid.len() as f64)
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A stable 64-bit digest of a rendering (SipHash with fixed keys, so the
/// same text digests the same in every process).
pub fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The process's peak resident set in MiB (`VmHWM`), 0 when the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named, unit-carrying measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run: the output checks, operation counts,
/// metrics, and informational labels (digests) that are not gated.
#[derive(Debug, Default)]
pub struct RunResult {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub labels: Vec<(String, String)>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn label(&mut self, name: &str, value: String) {
        self.labels.push((name.to_string(), value));
    }

    /// The single-line JSON result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
