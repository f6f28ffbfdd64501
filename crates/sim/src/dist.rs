//! Random distributions for workload generation, driven by the
//! deterministic [`CryptoRng`] so experiments replay exactly.

use unicore_crypto::rng::CryptoRng;

/// Exponential variate with the given mean (inter-arrival times).
pub fn exponential(rng: &mut CryptoRng, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let u = loop {
        let u = rng.next_f64();
        if u > 0.0 {
            break u;
        }
    };
    -mean * u.ln()
}

/// Uniform variate in `[low, high)`.
pub fn uniform(rng: &mut CryptoRng, low: f64, high: f64) -> f64 {
    debug_assert!(high >= low);
    low + (high - low) * rng.next_f64()
}

/// Uniform integer in `[low, high]` inclusive.
pub fn uniform_int(rng: &mut CryptoRng, low: u64, high: u64) -> u64 {
    debug_assert!(high >= low);
    low + rng.next_below(high - low + 1)
}

/// Log-normal-ish variate: `exp(N(mu, sigma))` via Box–Muller.
///
/// Batch-job runtimes are classically heavy-tailed; the batch workload
/// generator uses this for execution times.
pub fn lognormal(rng: &mut CryptoRng, mu: f64, sigma: f64) -> f64 {
    let n = standard_normal(rng);
    (mu + sigma * n).exp()
}

/// Standard normal via Box–Muller.
pub fn standard_normal(rng: &mut CryptoRng) -> f64 {
    let u1 = loop {
        let u = rng.next_f64();
        if u > 0.0 {
            break u;
        }
    };
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> CryptoRng {
        CryptoRng::from_u64(777)
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut r, 5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn exponential_non_negative() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(exponential(&mut r, 1.0) >= 0.0);
        }
    }

    #[test]
    fn uniform_in_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = uniform(&mut r, -2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn uniform_int_inclusive() {
        let mut r = rng();
        let mut saw_low = false;
        let mut saw_high = false;
        for _ in 0..2000 {
            let v = uniform_int(&mut r, 3, 6);
            assert!((3..=6).contains(&v));
            saw_low |= v == 3;
            saw_high |= v == 6;
        }
        assert!(saw_low && saw_high);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_positive() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(lognormal(&mut r, 1.0, 2.0) > 0.0);
        }
    }
}
