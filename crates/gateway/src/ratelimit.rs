//! Deterministic token-bucket rate limiting keyed by DN.
//!
//! The bucket arithmetic runs on integer *millitokens* over simulation
//! seconds, so every replay of a seeded scenario makes identical
//! admit/reject decisions — a requirement for the churn soak's
//! byte-identical-outcome assertions.

use std::collections::HashMap;

/// Rate-limit policy: a steady refill rate plus a burst ceiling, with
/// optional per-tenant burst overrides (a paying tenant may ride out a
/// bigger spike than the default budget allows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateLimitConfig {
    /// Sustained request rate per DN, tokens (requests) per second.
    pub rate_per_sec: u64,
    /// Default burst budget in tokens: a fresh bucket starts full at
    /// this level and never refills beyond it.
    pub burst: u64,
    /// Per-tenant burst overrides: `(dn, burst)` pairs consulted before
    /// the default.
    pub tenant_burst: Vec<(String, u64)>,
}

impl RateLimitConfig {
    /// A config with the given sustained rate and burst, no overrides.
    pub fn new(rate_per_sec: u64, burst: u64) -> Self {
        RateLimitConfig {
            rate_per_sec,
            burst,
            tenant_burst: Vec::new(),
        }
    }

    /// Adds a per-tenant burst override.
    pub fn with_tenant_burst(mut self, dn: impl Into<String>, burst: u64) -> Self {
        self.tenant_burst.push((dn.into(), burst));
        self
    }

    fn burst_for(&self, dn: &str) -> u64 {
        self.tenant_burst
            .iter()
            .find(|(d, _)| d == dn)
            .map(|(_, b)| *b)
            .unwrap_or(self.burst)
            .max(1)
    }
}

struct Bucket {
    millitokens: u64,
    last: u64,
}

/// A token-bucket limiter with one bucket per DN.
pub(crate) struct RateLimiter {
    cfg: RateLimitConfig,
    buckets: HashMap<String, Bucket>,
}

impl RateLimiter {
    /// A limiter enforcing `cfg`.
    pub(crate) fn new(cfg: RateLimitConfig) -> Self {
        RateLimiter {
            cfg,
            buckets: HashMap::new(),
        }
    }

    /// Charges one request for `dn` at time `now` (simulation seconds).
    /// Returns whether the request is admitted. Time moving backwards is
    /// treated as no elapsed time (no refill), never a panic.
    pub(crate) fn check(&mut self, dn: &str, now: u64) -> bool {
        let burst_mt = self.cfg.burst_for(dn).saturating_mul(1_000);
        let rate_mt = self.cfg.rate_per_sec.saturating_mul(1_000);
        let bucket = self.buckets.entry(dn.to_owned()).or_insert(Bucket {
            millitokens: burst_mt,
            last: now,
        });
        let elapsed = now.saturating_sub(bucket.last);
        bucket.last = bucket.last.max(now);
        bucket.millitokens = bucket
            .millitokens
            .saturating_add(elapsed.saturating_mul(rate_mt))
            .min(burst_mt);
        if bucket.millitokens >= 1_000 {
            bucket.millitokens -= 1_000;
            true
        } else {
            false
        }
    }

    /// Remaining whole tokens for `dn` without charging (0 for an unseen
    /// DN means "full burst available", reported as the burst budget).
    #[cfg(test)]
    fn available(&self, dn: &str, now: u64) -> u64 {
        match self.buckets.get(dn) {
            None => self.cfg.burst_for(dn),
            Some(b) => {
                let burst_mt = self.cfg.burst_for(dn).saturating_mul(1_000);
                let rate_mt = self.cfg.rate_per_sec.saturating_mul(1_000);
                let elapsed = now.saturating_sub(b.last);
                b.millitokens
                    .saturating_add(elapsed.saturating_mul(rate_mt))
                    .min(burst_mt)
                    / 1_000
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_starvation_then_recovery() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(2, 5));
        // Full burst available immediately.
        for _ in 0..5 {
            assert!(rl.check("alice", 100));
        }
        assert!(!rl.check("alice", 100), "burst exhausted");
        // Two seconds later: 2/sec * 2s = 4 tokens refilled.
        for _ in 0..4 {
            assert!(rl.check("alice", 102));
        }
        assert!(!rl.check("alice", 102));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(10, 3));
        for _ in 0..3 {
            assert!(rl.check("bob", 0));
        }
        // A long quiet period refills to the cap, not beyond.
        for _ in 0..3 {
            assert!(rl.check("bob", 1_000));
        }
        assert!(!rl.check("bob", 1_000));
    }

    #[test]
    fn tenants_are_independent() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(1, 1));
        assert!(rl.check("alice", 0));
        assert!(!rl.check("alice", 0));
        assert!(rl.check("bob", 0), "alice's exhaustion must not hit bob");
    }

    #[test]
    fn tenant_burst_override() {
        let cfg = RateLimitConfig::new(1, 2).with_tenant_burst("vip", 10);
        let mut rl = RateLimiter::new(cfg);
        for _ in 0..10 {
            assert!(rl.check("vip", 0));
        }
        assert!(!rl.check("vip", 0));
        for _ in 0..2 {
            assert!(rl.check("standard", 0));
        }
        assert!(!rl.check("standard", 0));
    }

    #[test]
    fn fractional_rates_accumulate() {
        // 1 token per 2 seconds is representable? rate_per_sec is integral,
        // but millitoken arithmetic still hands out exactly rate*elapsed.
        let mut rl = RateLimiter::new(RateLimitConfig::new(1, 1));
        assert!(rl.check("carol", 0));
        assert!(!rl.check("carol", 0));
        assert!(rl.check("carol", 1));
        assert!(!rl.check("carol", 1));
    }

    #[test]
    fn time_going_backwards_is_harmless() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(1, 1));
        assert!(rl.check("dave", 100));
        assert!(!rl.check("dave", 50), "no refill from the past");
        assert!(rl.check("dave", 101));
    }

    #[test]
    fn available_reports_without_charging() {
        let mut rl = RateLimiter::new(RateLimitConfig::new(1, 4));
        assert_eq!(rl.available("eve", 0), 4);
        rl.check("eve", 0);
        assert_eq!(rl.available("eve", 0), 3);
        assert_eq!(rl.available("eve", 10), 4); // refilled to cap
    }

    #[test]
    fn deterministic_across_replays() {
        let run = || {
            let mut rl = RateLimiter::new(RateLimitConfig::new(3, 7));
            let mut decisions = Vec::new();
            for t in 0..50u64 {
                for _ in 0..2 {
                    decisions.push(rl.check("user", t / 3));
                }
            }
            decisions
        };
        assert_eq!(run(), run());
    }
}
