//! Load/price-aware site scoring.
//!
//! All arithmetic is integer (millipoints) and every comparison chain
//! ends in a seed-hashed then lexicographic tie-break, so a ranking is a
//! pure function of (directory, loads, policy) — the property the WAL
//! placement journal and the crash-restart replay tests lean on.

use unicore_ajo::{ResourceRequest, VsiteAddress};
use unicore_resources::{admissible, ResourcePage};

/// A point-in-time load report for one Vsite.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSnapshot {
    /// The Vsite.
    pub vsite: VsiteAddress,
    /// Machine size in processor elements.
    pub total_nodes: u32,
    /// Idle processor elements right now.
    pub free_nodes: u32,
    /// Jobs waiting in the queue.
    pub queue_length: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Historical utilisation over the observation window (0..1).
    pub utilization: f64,
}

/// One brokering candidate: the published page plus current load.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The Vsite's resource page.
    pub page: ResourcePage,
    /// Its load.
    pub load: LoadSnapshot,
    /// Megabytes of job data that would have to be staged to this site
    /// (0 when the data already sits there). Charged by [`rank`] with
    /// [`BrokerPolicy::staging_weight_milli`].
    pub staging_mb: u64,
}

/// Scoring weights, in millipoints per milli-unit of each axis, plus the
/// seed that desynchronises equal-score tie-breaks between deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerPolicy {
    /// Millipoints per queued job ahead of the request.
    pub queue_weight_milli: u64,
    /// Millipoints per milli-unit of utilisation (0..1000).
    pub utilization_weight_milli: u64,
    /// Millipoints per millicredit of the page's node-hour price.
    pub price_weight_milli: u64,
    /// Millipoints per megabyte that must be staged to the site.
    pub staging_weight_milli: u64,
    /// Tie-break seed: equal-score candidates order by an FNV hash of
    /// (seed, vsite) before the final lexicographic fallback.
    pub seed: u64,
}

impl Default for BrokerPolicy {
    fn default() -> Self {
        BrokerPolicy {
            queue_weight_milli: 10_000,
            utilization_weight_milli: 5,
            price_weight_milli: 1,
            staging_weight_milli: 50,
            seed: 0,
        }
    }
}

impl BrokerPolicy {
    /// A policy drawing tie-breaks from `seed`.
    pub fn seeded(seed: u64) -> Self {
        BrokerPolicy {
            seed,
            ..BrokerPolicy::default()
        }
    }
}

/// One scored entry of a ranked placement (lower score is better).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedOffer {
    /// The Vsite.
    pub vsite: VsiteAddress,
    /// Composite score in millipoints (lower is better).
    pub score: u64,
    /// Whether the site could start the request immediately.
    pub immediate: bool,
    /// Jobs queued ahead of the request.
    pub queue_length: usize,
    /// Observed utilisation in milli-units (0..=1000).
    pub utilization_milli: u64,
    /// The page's advertised price (millicredits per node-hour).
    pub price_per_node_hour_milli: u64,
}

fn fnv(seed: u64, name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn score_candidate(policy: &BrokerPolicy, request: &ResourceRequest, c: &Candidate) -> RankedOffer {
    let immediate = c.load.free_nodes >= request.processors;
    let live_milli = (c.load.utilization.clamp(0.0, 1.0) * 1000.0).round() as u64;
    // The page's advertised load is a stale hint; trust whichever paints
    // the site busier, so a site that went hot since publishing its page
    // cannot hide behind the old figure.
    let utilization_milli = live_milli.max(c.page.advertised_load_pct as u64 * 10);
    let wait = if immediate {
        0
    } else {
        100_000 + c.load.queue_length as u64 * policy.queue_weight_milli
    };
    let score = wait
        .saturating_add(utilization_milli.saturating_mul(policy.utilization_weight_milli))
        .saturating_add(
            c.page
                .price_per_node_hour_milli
                .saturating_mul(policy.price_weight_milli),
        )
        .saturating_add(c.staging_mb.saturating_mul(policy.staging_weight_milli));
    RankedOffer {
        vsite: c.load.vsite.clone(),
        score,
        immediate,
        queue_length: c.load.queue_length,
        utilization_milli,
        price_per_node_hour_milli: c.page.price_per_node_hour_milli,
    }
}

/// Scores every admissible candidate for `request` and returns them best
/// first. Usites named in `exclude` are skipped — the retarget path
/// passes the sites already tried (quarantined, dark, or refusing).
///
/// The result is independent of the order of `candidates` and identical
/// across runs for the same (directory, loads, policy): scores compare
/// first, then an FNV hash of (policy seed, vsite), then the Vsite name.
pub fn rank(
    policy: &BrokerPolicy,
    request: &ResourceRequest,
    candidates: &[Candidate],
    exclude: &[String],
) -> Vec<RankedOffer> {
    let mut offers: Vec<RankedOffer> = candidates
        .iter()
        .filter(|c| !exclude.contains(&c.load.vsite.usite))
        .filter(|c| admissible(request, &c.page))
        .map(|c| score_candidate(policy, request, c))
        .collect();
    offers.sort_by(|a, b| {
        let an = a.vsite.to_string();
        let bn = b.vsite.to_string();
        a.score
            .cmp(&b.score)
            .then(fnv(policy.seed, &an).cmp(&fnv(policy.seed, &bn)))
            .then(an.cmp(&bn))
    });
    offers
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_resources::{deployment_page, Architecture};

    pub(crate) fn candidate(
        usite: &str,
        vsite: &str,
        arch: Architecture,
        free: u32,
        queue: usize,
        util: f64,
    ) -> Candidate {
        let page = deployment_page(usite, vsite, arch);
        let total = page.performance.nodes;
        Candidate {
            load: LoadSnapshot {
                vsite: page.vsite.clone(),
                total_nodes: total,
                free_nodes: free,
                queue_length: queue,
                running: 0,
                utilization: util,
            },
            page,
            staging_mb: 0,
        }
    }

    fn req(procs: u32) -> ResourceRequest {
        ResourceRequest::minimal()
            .with_processors(procs)
            .with_run_time(3_600)
    }

    #[test]
    fn empty_candidates_yield_none() {
        assert!(rank(&BrokerPolicy::default(), &req(4), &[], &[]).is_empty());
    }

    #[test]
    fn inadmissible_candidates_filtered() {
        // SX-4 has 32 PEs: a 100-PE request can only go to the T3E.
        let cands = [
            candidate("DWD", "SX4", Architecture::NecSx4, 32, 0, 0.0),
            candidate("FZJ", "T3E", Architecture::CrayT3e, 0, 50, 0.99),
        ];
        let offers = rank(&BrokerPolicy::default(), &req(100), &cands, &[]);
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].vsite.to_string(), "FZJ/T3E");
        assert!(!offers[0].immediate);
    }

    #[test]
    fn all_inadmissible_yields_none() {
        let cands = [candidate("DWD", "SX4", Architecture::NecSx4, 32, 0, 0.0)];
        assert!(rank(&BrokerPolicy::default(), &req(10_000), &cands, &[]).is_empty());
    }

    #[test]
    fn prefers_immediate_start() {
        let cands = [
            // Busy big machine with a queue...
            candidate("FZJ", "T3E", Architecture::CrayT3e, 0, 3, 0.9),
            // ...vs a small idle one that fits.
            candidate("DWD", "SX4", Architecture::NecSx4, 32, 0, 0.1),
        ];
        let offers = rank(&BrokerPolicy::default(), &req(16), &cands, &[]);
        assert_eq!(offers.len(), 2);
        assert_eq!(offers[0].vsite.to_string(), "DWD/SX4");
        assert!(offers[0].immediate);
    }

    #[test]
    fn prefers_shorter_queue_when_nobody_free() {
        let cands = [
            candidate("FZJ", "T3E", Architecture::CrayT3e, 0, 10, 0.5),
            candidate("ZIB", "T3E", Architecture::CrayT3e, 0, 2, 0.5),
        ];
        let offers = rank(&BrokerPolicy::default(), &req(64), &cands, &[]);
        assert_eq!(offers[0].vsite.to_string(), "ZIB/T3E");
    }

    #[test]
    fn prefers_lower_utilization_on_queue_tie() {
        let cands = [
            candidate("FZJ", "T3E", Architecture::CrayT3e, 0, 2, 0.9),
            candidate("ZIB", "T3E", Architecture::CrayT3e, 0, 2, 0.2),
        ];
        let offers = rank(&BrokerPolicy::default(), &req(64), &cands, &[]);
        assert_eq!(offers[0].vsite.to_string(), "ZIB/T3E");
    }

    #[test]
    fn deterministic_tie_break() {
        // Equal scores order by the seeded hash of the Vsite name: the
        // same whichever way the candidates are listed, and not the same
        // for every deployment seed.
        let zib = candidate("ZIB", "T3E", Architecture::CrayT3e, 512, 0, 0.0);
        let fzj = candidate("FZJ", "T3E", Architecture::CrayT3e, 512, 0, 0.0);
        let first = |seed, cands: &[Candidate]| {
            rank(&BrokerPolicy::seeded(seed), &req(8), cands, &[])[0]
                .vsite
                .to_string()
        };
        let (ab, ba) = ([zib.clone(), fzj.clone()], [fzj, zib]);
        for seed in 0..16 {
            assert_eq!(first(seed, &ab), first(seed, &ba), "seed {seed}");
        }
        assert!((1..16).any(|seed| first(seed, &ab) != first(0, &ab)));
    }

    #[test]
    fn price_breaks_otherwise_equal_sites() {
        // Two idle, equally loaded sites: the cheaper page wins.
        let mut cheap = candidate("RUKA", "SP2", Architecture::IbmSp2, 77, 0, 0.0);
        let mut dear = candidate("LRZ", "SP2", Architecture::IbmSp2, 77, 0, 0.0);
        cheap.page.price_per_node_hour_milli = 100;
        dear.page.price_per_node_hour_milli = 5_000;
        let offers = rank(
            &BrokerPolicy::default(),
            &req(8),
            &[dear.clone(), cheap.clone()],
            &[],
        );
        assert_eq!(offers[0].vsite.to_string(), "RUKA/SP2");
        assert!(offers[0].score < offers[1].score);
    }

    #[test]
    fn staging_cost_penalises_data_movement() {
        let near = candidate("FZJ", "T3E", Architecture::CrayT3e, 512, 0, 0.0);
        let mut far = candidate("ZIB", "T3E", Architecture::CrayT3e, 512, 0, 0.0);
        far.staging_mb = 4_000; // 4 GB to re-stage
        let offers = rank(&BrokerPolicy::default(), &req(8), &[far, near], &[]);
        assert_eq!(offers[0].vsite.to_string(), "FZJ/T3E");
    }

    #[test]
    fn advertised_load_hint_counts_when_worse() {
        let idle = candidate("FZJ", "T3E", Architecture::CrayT3e, 512, 0, 0.0);
        let mut hinted = candidate("ZIB", "T3E", Architecture::CrayT3e, 512, 0, 0.0);
        hinted.page.advertised_load_pct = 90;
        let offers = rank(&BrokerPolicy::default(), &req(8), &[hinted, idle], &[]);
        assert_eq!(offers[0].vsite.to_string(), "FZJ/T3E");
    }

    #[test]
    fn exclusion_skips_usites() {
        let cands = [
            candidate("FZJ", "T3E", Architecture::CrayT3e, 512, 0, 0.0),
            candidate("ZIB", "T3E", Architecture::CrayT3e, 512, 0, 0.0),
        ];
        let offers = rank(
            &BrokerPolicy::default(),
            &req(8),
            &cands,
            &["FZJ".to_owned()],
        );
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].vsite.usite, "ZIB");
    }

    #[test]
    fn ranking_is_order_independent() {
        let cands = vec![
            candidate("FZJ", "T3E", Architecture::CrayT3e, 0, 3, 0.7),
            candidate("ZIB", "T3E", Architecture::CrayT3e, 512, 0, 0.1),
            candidate("DWD", "SX4", Architecture::NecSx4, 32, 1, 0.4),
            candidate("RUS", "VPP", Architecture::FujitsuVpp700, 52, 0, 0.2),
        ];
        let policy = BrokerPolicy::seeded(7);
        let a = rank(&policy, &req(8), &cands, &[]);
        let mut rev = cands.clone();
        rev.reverse();
        let b = rank(&policy, &req(8), &rev, &[]);
        assert_eq!(a, b);
    }
}
