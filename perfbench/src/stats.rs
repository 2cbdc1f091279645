//! Order statistics and ratio helpers shared by every workload.

/// Minimum number of samples that must lie beyond a percentile before the
/// benchmark reports it; below that a "p99" is really the maximum.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for even counts), or
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule, but
/// only when at least [`MIN_BEYOND`] samples lie above it; otherwise `None`,
/// so a tail figure is never reported from a sample too small to hold one.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(
        q > 0.0 && q < 1.0,
        "quantile must lie strictly inside (0, 1)"
    );
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The highest of p99, p95, p90, p75 and p50 that [`percentile`] can report
/// for `samples`, as `(percent, value)`.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find_map(|p| percentile(samples, f64::from(p) / 100.0).map(|v| (p, v)))
}

/// Geometric mean of strictly positive values; `None` when empty or when any
/// value is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Geometric mean over pairs of `numerator[i] / denominator[i]`, e.g. native
/// ns/cell over lifted ns/cell per kernel.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn geomean_ratio(numerator: &[f64], denominator: &[f64]) -> Option<f64> {
    assert_eq!(
        numerator.len(),
        denominator.len(),
        "ratio needs paired values"
    );
    let ratios: Vec<f64> = numerator
        .iter()
        .zip(denominator)
        .map(|(n, d)| n / d)
        .collect();
    geomean(&ratios)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
