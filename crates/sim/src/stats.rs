//! Log₂-bucketed histograms for latency-style values.

/// Index of the power-of-two bucket covering `value` in a 64-bucket
/// log₂ histogram: bucket 0 holds only 0, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)`, and everything from `2^62` up lands in bucket 63.
pub fn log2_bucket(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(63)
}

/// Exclusive upper bound of log₂ bucket `idx` (saturates at `u64::MAX`
/// for the overflow bucket).
pub fn log2_bucket_limit(idx: usize) -> u64 {
    if idx == 0 {
        1
    } else if idx >= 63 {
        u64::MAX
    } else {
        1u64 << idx
    }
}

/// Fixed log₂-bucketed histogram for latency-style values.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// A histogram with 64 power-of-two buckets.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; 64],
            total: 0,
        }
    }

    /// Records a (non-negative integer) observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[log2_bucket(value)] += 1;
        self.total += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Upper bound (exclusive) of the smallest bucket that makes the
    /// cumulative count reach `q` of the total; 0 when empty.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (self.total as f64 * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut acc = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return if idx == 0 { 0 } else { log2_bucket_limit(idx) };
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets[log2_bucket(0)], 1);
        assert_eq!(h.buckets[log2_bucket(1)], 1);
        assert_eq!(h.buckets[log2_bucket(2)], 2); // 2 and 3 share a bucket
        assert_eq!(h.buckets[log2_bucket(1000)], 1);
    }

    #[test]
    fn log_histogram_quantiles() {
        let mut h = LogHistogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.approx_quantile(0.5), 16); // bucket (8..16]
        assert!(h.approx_quantile(1.0) >= 1_000_000);
        assert_eq!(LogHistogram::new().approx_quantile(0.5), 0);
    }
}
