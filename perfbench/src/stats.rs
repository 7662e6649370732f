//! Small numeric helpers: quantiles, metric rows, registry deltas.

use prkb_core::MetricsSnapshot;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value.
    pub samples: u64,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counter growth between two registry snapshots.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    let get = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// Median of the observations a log₂ histogram gained between two
/// snapshots, interpolated linearly inside its bucket (bucket 0 holds the
/// value 0, bucket `i` the values `[2^(i-1), 2^i)`). Also returns the
/// number of observations.
pub fn histogram_p50(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, u64) {
    let b = before.histogram(name).unwrap_or(&[]);
    let a = after.histogram(name).unwrap_or(&[]);
    let delta: Vec<u64> = (0..a.len())
        .map(|i| a[i].saturating_sub(b.get(i).copied().unwrap_or(0)))
        .collect();
    let total: u64 = delta.iter().sum();
    if total == 0 {
        return (0.0, 0);
    }
    let rank = total as f64 / 2.0;
    let mut below = 0u64;
    for (i, &c) in delta.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= rank {
            if i == 0 {
                return (0.0, total);
            }
            let lo = (1u64 << (i - 1)) as f64;
            let frac = (rank - below as f64) / c as f64;
            return (lo + frac * lo, total);
        }
        below += c;
    }
    (0.0, total)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
