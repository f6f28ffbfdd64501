//! Fair-share quotas: decayed per-user usage enforced at admission.
//!
//! The paper's §6 couples the broker "together with accounting
//! functions"; this is that coupling. Every admitted job charges its
//! estimated node-seconds against its owner; charges decay by halving
//! once per half-life, so a tenant's past eventually stops counting
//! against it. Admission compares a tenant's decayed usage to its fair
//! share of the whole site's decayed usage, with a burst multiplier and
//! a flat allowance so light traffic never trips the quota.
//!
//! Everything is integer arithmetic on the simulated clock — two
//! federations replaying the same workload charge and deny identically,
//! which the WAL-replay determinism tests require.

use std::collections::BTreeMap;
use unicore_sim::{SimTime, HOUR};

/// Fair-share tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairShareConfig {
    /// Time for a charge to halve (simulated ticks).
    pub half_life: SimTime,
    /// Burst headroom over the per-tenant fair share, in milli-units
    /// (2000 = a tenant may hold twice its fair share before denial).
    pub burst_factor_milli: u64,
    /// Flat allowance in node-seconds every tenant may always hold —
    /// keeps singleton and light users clear of the quota entirely.
    pub base_allowance: u64,
}

impl Default for FairShareConfig {
    fn default() -> Self {
        FairShareConfig {
            half_life: HOUR,
            burst_factor_milli: 2_000,
            // One 64-PE hour: a healthy dev-loop budget.
            base_allowance: 64 * 3_600,
        }
    }
}

/// An admission denial: the tenant is over its fair share right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotaDenial {
    /// The tenant's decayed usage, node-seconds.
    pub usage: u64,
    /// What the tenant was allowed to hold.
    pub allowed: u64,
}

impl core::fmt::Display for QuotaDenial {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "fair-share quota exceeded: holding {} node-seconds, share allows {}",
            self.usage, self.allowed
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    charged: u64,
    at: SimTime,
}

/// Decayed-usage fair-share tracker, keyed by user DN.
#[derive(Debug, Clone)]
pub struct FairShare {
    cfg: FairShareConfig,
    cells: BTreeMap<String, Cell>,
}

fn decayed(charged: u64, elapsed: SimTime, half_life: SimTime) -> u64 {
    let steps = elapsed / half_life.max(1);
    if steps >= 64 {
        0
    } else {
        charged >> steps
    }
}

impl FairShare {
    /// A tracker with the given knobs.
    pub fn new(cfg: FairShareConfig) -> Self {
        FairShare {
            cfg,
            cells: BTreeMap::new(),
        }
    }

    /// Charges `cost` node-seconds to `dn` at `now`.
    pub fn charge(&mut self, dn: &str, cost: u64, now: SimTime) {
        // The DN is copied on a tenant's first charge only.
        let cell = match self.cells.get_mut(dn) {
            Some(cell) => cell,
            None => self.cells.entry(dn.to_owned()).or_insert(Cell {
                charged: 0,
                at: now,
            }),
        };
        let prior = decayed(
            cell.charged,
            now.saturating_sub(cell.at),
            self.cfg.half_life,
        );
        cell.charged = prior.saturating_add(cost);
        cell.at = now;
    }

    /// The tenant's decayed usage at `now`.
    pub fn usage(&self, dn: &str, now: SimTime) -> u64 {
        self.cells
            .get(dn)
            .map(|c| decayed(c.charged, now.saturating_sub(c.at), self.cfg.half_life))
            .unwrap_or(0)
    }

    /// Decayed usage total and tenant count over everyone *except* `dn`.
    fn others(&self, dn: &str, now: SimTime) -> (u64, u64) {
        let mut total = 0u64;
        let mut active = 0u64;
        for (who, c) in &self.cells {
            if who == dn {
                continue;
            }
            let u = decayed(c.charged, now.saturating_sub(c.at), self.cfg.half_life);
            if u > 0 {
                total = total.saturating_add(u);
                active += 1;
            }
        }
        (total, active)
    }

    /// What `dn` may hold right now: the flat allowance plus the burst
    /// multiple of the *other* active tenants' average usage. Measuring
    /// against the others (not the site total, which the tenant's own
    /// burst would inflate) is what makes a hog's allowance collapse the
    /// moment it dwarfs everyone else. `None` means unlimited: nobody
    /// else is using the site, so there is nobody to be unfair to.
    pub(crate) fn allowance(&self, dn: &str, now: SimTime) -> Option<u64> {
        let (total, active) = self.others(dn, now);
        if active == 0 {
            return None;
        }
        let fair = total / active;
        Some(
            self.cfg
                .base_allowance
                .saturating_add(fair.saturating_mul(self.cfg.burst_factor_milli) / 1_000),
        )
    }

    /// Admission check: `Ok` to admit another job for `dn`, or the
    /// denial with the numbers that justify it.
    pub fn admit(&self, dn: &str, now: SimTime) -> Result<(), QuotaDenial> {
        let Some(allowed) = self.allowance(dn, now) else {
            return Ok(());
        };
        let usage = self.usage(dn, now);
        if usage <= allowed {
            Ok(())
        } else {
            Err(QuotaDenial { usage, allowed })
        }
    }
}

impl Default for FairShare {
    fn default() -> Self {
        FairShare::new(FairShareConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_sim::{MINUTE, SEC};

    fn small() -> FairShareConfig {
        FairShareConfig {
            half_life: MINUTE,
            burst_factor_milli: 2_000,
            base_allowance: 100,
        }
    }

    #[test]
    fn singleton_tenant_never_denied() {
        let mut fs = FairShare::new(small());
        for i in 0..50u64 {
            let now = i * SEC;
            fs.admit("alice", now).unwrap();
            fs.charge("alice", 10_000, now);
        }
        // usage == total, fair == total, allowed == base + 2×total.
        fs.admit("alice", 50 * SEC).unwrap();
    }

    #[test]
    fn bursty_tenant_denied_while_others_stay_admissible() {
        let mut fs = FairShare::new(small());
        for t in ["t0", "t1", "t2", "t3"] {
            fs.charge(t, 1_000, 0);
        }
        // t0 bursts far past everyone.
        fs.charge("t0", 1_000_000, 0);
        assert!(fs.admit("t0", SEC).is_err());
        for t in ["t1", "t2", "t3"] {
            fs.admit(t, SEC).unwrap();
        }
    }

    #[test]
    fn usage_decays_back_to_admissible() {
        let mut fs = FairShare::new(small());
        fs.charge("bg", 1_000, 0); // background tenant keeps totals honest
        fs.charge("burst", 1_000_000, 0);
        assert!(fs.admit("burst", SEC).is_err());
        // 20 half-lives later the burst has decayed to under a thousandth.
        assert!(fs.admit("burst", 20 * MINUTE).is_ok());
    }

    #[test]
    fn denial_message_carries_numbers() {
        let mut fs = FairShare::new(small());
        fs.charge("bg", 100, 0);
        fs.charge("hog", 1_000_000, 0);
        let denial = fs.admit("hog", SEC).unwrap_err();
        assert!(denial.usage > denial.allowed);
        let msg = denial.to_string();
        assert!(msg.contains("fair-share quota exceeded"), "{msg}");
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = FairShare::new(small());
        let mut b = FairShare::new(small());
        for (i, t) in ["x", "y", "z", "x", "x"].iter().enumerate() {
            let now = i as u64 * 10 * SEC;
            a.charge(t, 5_000 * (i as u64 + 1), now);
            b.charge(t, 5_000 * (i as u64 + 1), now);
        }
        for t in ["x", "y", "z"] {
            assert_eq!(a.usage(t, MINUTE), b.usage(t, MINUTE));
            assert_eq!(a.admit(t, MINUTE), b.admit(t, MINUTE));
        }
    }
}
