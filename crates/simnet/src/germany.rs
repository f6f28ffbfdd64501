//! The six-site German deployment of the paper's §5.7: its sites and
//! their WAN geography.
//!
//! UNICORE ran at Forschungszentrum Jülich (FZJ), the computing centres of
//! the universities of Stuttgart (RUS) and Karlsruhe (RUKA), the Leibniz
//! Computing Center Munich (LRZ), the Konrad-Zuse-Zentrum Berlin (ZIB) and
//! the Deutscher Wetterdienst Offenbach (DWD). `unicore`'s
//! `Federation::german_deployment` builds that topology from these names
//! and latencies.

use unicore_sim::SimTime;

/// Canonical site shortnames in the order the paper lists them.
pub(crate) const SITE_NAMES: [&str; 6] = ["FZJ", "RUS", "RUKA", "LRZ", "ZIB", "DWD"];

/// Inter-site one-way latencies in milliseconds, roughly proportional to
/// 1999 German geography (Jülich/Stuttgart/Karlsruhe/Munich/Berlin/
/// Offenbach). Symmetric.
const LATENCY_MS: [[u64; 6]; 6] = [
    [0, 14, 12, 18, 16, 8],
    [14, 0, 6, 10, 20, 9],
    [12, 6, 0, 12, 19, 7],
    [18, 10, 12, 0, 17, 13],
    [16, 20, 19, 17, 0, 15],
    [8, 9, 7, 13, 15, 0],
];

/// One-way WAN latency between two sites (by index into FZJ, RUS, RUKA,
/// LRZ, ZIB, DWD), in ticks — usable by other topology builders wanting the same geography.
pub fn inter_site_latency(from: usize, to: usize) -> SimTime {
    LATENCY_MS[from][to] * 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_matrix() {
        assert_eq!(inter_site_latency(0, 1), 14_000);
        assert_eq!(inter_site_latency(1, 0), 14_000);
        assert_eq!(inter_site_latency(4, 3), 17_000);
    }
}
