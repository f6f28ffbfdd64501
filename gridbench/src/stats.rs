//! Order statistics over the samples of one run.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn median_ns(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it, with its value: `(percentile, value)`. `None` when
/// even p90 is not supported (fewer than 100 samples).
pub fn tail(values: &[u64]) -> Option<(f64, u64)> {
    let mut v = values.to_vec();
    v.sort_unstable();
    let n = v.len();
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .map(|p| {
            let idx = ((n as f64) * p / 100.0).ceil() as usize;
            (p, v[idx.min(n) - 1])
        })
}

/// Relative drift between the first and the last quarter of the batch
/// rates: `(last - first) / first`. A stationary workload stays within
/// ±10 %.
pub fn quarter_drift(rates: &[f64]) -> f64 {
    let q = rates.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let first = mean(&rates[..q]);
    let last = mean(&rates[rates.len() - q..]);
    if first == 0.0 {
        0.0
    } else {
        (last - first) / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<u64> = (0..50).collect();
        assert_eq!(tail(&few), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&v), Some((99.0, 990)));
        let big: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail(&big), Some((99.99, 99_990)));
    }

    #[test]
    fn drift_of_a_ramp() {
        let flat = vec![10.0; 40];
        assert_eq!(quarter_drift(&flat), 0.0);
        let ramp: Vec<f64> = (0..40).map(|i| 10.0 + i as f64).collect();
        assert!(quarter_drift(&ramp) > 0.5);
    }
}
