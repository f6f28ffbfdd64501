//! Snapshot algebra for hierarchical aggregation: commutative,
//! associative [`MetricsSnapshot::merge`] plus delta encoding
//! ([`SnapshotDelta`]) so a site ships only the counters, gauges and
//! histogram buckets that changed since the last acknowledged epoch.
//!
//! The merge is the load-bearing property of the E17 aggregation tree:
//! an interior Usite folds its children's pre-merged snapshots into its
//! own, and because `merge` is commutative and associative the root's
//! view is independent of arrival order or tree shape. The delta types
//! carry **absolute** replacement values (not increments), so applying
//! a delta is idempotent and a retransmitted delta cannot double-count.

use std::collections::BTreeMap;

use crate::wire::{read_buckets, write_buckets};
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// Turn a cumulative `(bound, cumulative-count)` bucket list into
/// per-bucket counts keyed by bound.
fn decumulate(buckets: &[(u64, u64)]) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let mut prev = 0u64;
    for &(bound, cum) in buckets {
        out.insert(bound, cum.saturating_sub(prev));
        prev = cum;
    }
    out
}

/// Turn per-bucket counts back into the snapshot's cumulative,
/// non-empty-only representation.
fn recumulate(per: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cum = 0u64;
    for (&bound, &n) in per {
        if n == 0 {
            continue;
        }
        cum += n;
        out.push((bound, cum));
    }
    out
}

impl HistogramSnapshot {
    /// Smallest bucket upper bound at or below which quantile `q` of
    /// the recorded observations fall. Mirrors
    /// [`crate::metrics::Histogram::approx_quantile`] but works on a
    /// snapshot (possibly merged from many sites) instead of a live
    /// registry histogram. Returns 0 for an empty histogram.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let rank = rank.max(1);
        for &(bound, cum) in &self.buckets {
            if cum >= rank {
                return bound;
            }
        }
        u64::MAX
    }

    /// Fold `other` into `self` bucket-wise: counts and sums add, and
    /// per-bucket observation counts add under each shared bound.
    fn merge_from(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut per = decumulate(&self.buckets);
        for (bound, n) in decumulate(&other.buckets) {
            *per.entry(bound).or_insert(0) += n;
        }
        self.buckets = recumulate(&per);
    }
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counters sum, gauges sum, histograms
    /// merge bucket-wise by name. Commutative and associative (see the
    /// `prop_aggregate` suite), so an aggregation tree may fold child
    /// snapshots in any order and any grouping.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|m| m.name == h.name) {
                Some(mine) => mine.merge_from(h),
                None => {
                    let at = self.histograms.partition_point(|m| m.name < h.name);
                    self.histograms.insert(at, h.clone());
                }
            }
        }
    }

    /// Merged copy of two snapshots, leaving both inputs intact.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Named histogram from this snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Changed buckets of one histogram between two snapshot epochs.
///
/// `buckets` carries **per-bucket absolute counts** (not cumulative),
/// so a change in a low bucket does not ripple a new value into every
/// bucket above it; `count`/`sum` are the absolute totals after the
/// change. A histogram absent from the delta is unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramDelta {
    /// Registry name.
    pub name: String,
    /// Absolute total observation count after the change.
    pub count: u64,
    /// Absolute observation sum after the change.
    pub sum: u64,
    /// `(bucket upper bound, absolute per-bucket count)` for each
    /// bucket whose count changed, ascending by bound.
    pub buckets: Vec<(u64, u64)>,
}

/// Changed entries between two `MetricsSnapshot` epochs, carrying
/// absolute replacement values. Produced by [`SnapshotDelta::between`],
/// consumed by [`SnapshotDelta::apply`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// Counters whose value changed, with the new absolute value.
    pub counters: Vec<(String, u64)>,
    /// Gauges whose value changed, with the new absolute value.
    pub gauges: Vec<(String, i64)>,
    /// Histograms with at least one changed bucket.
    pub histograms: Vec<HistogramDelta>,
}

impl SnapshotDelta {
    /// Changed entries from `prev` to `next`. Counters and registry
    /// histograms are monotone in practice, but the encoding does not
    /// rely on it: any differing entry is shipped with its absolute
    /// new value. Entries *removed* between epochs are not expressible
    /// — registries never drop metrics — so `apply(prev, delta)`
    /// reconstructs `next` exactly whenever `next` retains every name
    /// in `prev` (the proptest suite pins this contract).
    pub fn between(prev: &MetricsSnapshot, next: &MetricsSnapshot) -> SnapshotDelta {
        let counters = next
            .counters
            .iter()
            .filter(|(k, v)| prev.counters.get(*k) != Some(v))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let gauges = next
            .gauges
            .iter()
            .filter(|(k, v)| prev.gauges.get(*k) != Some(v))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let mut histograms = Vec::new();
        for h in &next.histograms {
            let old = prev.histograms.iter().find(|p| p.name == h.name);
            if old == Some(h) {
                continue;
            }
            let old_per = old.map(|p| decumulate(&p.buckets)).unwrap_or_default();
            let new_per = decumulate(&h.buckets);
            let buckets = new_per
                .iter()
                .filter(|(bound, n)| old_per.get(bound) != Some(n))
                .map(|(&bound, &n)| (bound, n))
                .collect();
            histograms.push(HistogramDelta {
                name: h.name.clone(),
                count: h.count,
                sum: h.sum,
                buckets,
            });
        }
        SnapshotDelta {
            counters,
            gauges,
            histograms,
        }
    }

    /// Patch `base` in place with this delta's absolute values,
    /// reconstructing the sender's snapshot at the delta's epoch.
    pub fn apply(&self, base: &mut MetricsSnapshot) {
        for (name, v) in &self.counters {
            base.counters.insert(name.clone(), *v);
        }
        for (name, v) in &self.gauges {
            base.gauges.insert(name.clone(), *v);
        }
        for d in &self.histograms {
            let slot = match base.histograms.iter_mut().find(|h| h.name == d.name) {
                Some(h) => h,
                None => {
                    let at = base.histograms.partition_point(|h| h.name < d.name);
                    base.histograms.insert(
                        at,
                        HistogramSnapshot {
                            name: d.name.clone(),
                            count: 0,
                            sum: 0,
                            buckets: Vec::new(),
                        },
                    );
                    &mut base.histograms[at]
                }
            };
            slot.count = d.count;
            slot.sum = d.sum;
            let mut per = decumulate(&slot.buckets);
            for &(bound, n) in &d.buckets {
                per.insert(bound, n);
            }
            slot.buckets = recumulate(&per);
        }
    }

    /// True when nothing changed between the two epochs.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

impl DerCodec for HistogramDelta {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.name);
            w.u64(self.count);
            w.u64(self.sum);
            write_buckets(w, &self.buckets);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("HistogramDelta", |f| {
            Ok(HistogramDelta {
                name: f.next_string()?,
                count: f.next_u64()?,
                sum: f.next_u64()?,
                buckets: read_buckets(f)?,
            })
        })
    }
}

impl DerCodec for SnapshotDelta {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.sequence_of(&self.counters, |w, (k, v)| {
                w.sequence(|w| {
                    w.str(k);
                    w.u64(*v);
                })
            });
            w.sequence_of(&self.gauges, |w, (k, v)| {
                w.sequence(|w| {
                    w.str(k);
                    w.int(*v);
                })
            });
            w.sequence_of(&self.histograms, |w, h| h.write_der(w));
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("SnapshotDelta", |f| {
            Ok(SnapshotDelta {
                counters: f.sequence_of("counters", |c| {
                    c.sequence("counter", |pf| Ok((pf.next_string()?, pf.next_u64()?)))
                })?,
                gauges: f.sequence_of("gauges", |g| {
                    g.sequence("gauge", |pf| Ok((pf.next_string()?, pf.next_i64()?)))
                })?,
                histograms: f.sequence_of("histograms", HistogramDelta::read_der)?,
            })
        })
    }
}

/// Either a full snapshot or a delta against a previously acked epoch —
/// the payload an aggregation-tree edge actually ships.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotPayload {
    /// Complete snapshot; establishes a new baseline on the receiver.
    Full(MetricsSnapshot),
    /// Changed entries against the receiver's acked baseline.
    Delta(SnapshotDelta),
}

impl SnapshotPayload {
    /// True when this payload is a full-resync snapshot.
    pub fn is_full(&self) -> bool {
        matches!(self, SnapshotPayload::Full(_))
    }
}

impl DerCodec for SnapshotPayload {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            SnapshotPayload::Full(s) => w.tagged(0, |w| s.write_der(w)),
            SnapshotPayload::Delta(d) => w.tagged(1, |w| d.write_der(w)),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => Ok(SnapshotPayload::Full(MetricsSnapshot::read_der(t)?)),
            1 => Ok(SnapshotPayload::Delta(SnapshotDelta::read_der(t)?)),
            _ => Err(CodecError::BadValue("SnapshotPayload variant")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("a".into(), 3);
        s.counters.insert("b".into(), 7);
        s.gauges.insert("g".into(), -2);
        s.histograms.push(HistogramSnapshot {
            name: "h".into(),
            count: 4,
            sum: 40,
            buckets: vec![(8, 3), (16, 4)],
        });
        s
    }

    #[test]
    fn merge_sums_counters_gauges_and_buckets() {
        let mut a = sample();
        let mut b = MetricsSnapshot::default();
        b.counters.insert("b".into(), 1);
        b.counters.insert("c".into(), 9);
        b.gauges.insert("g".into(), 5);
        b.histograms.push(HistogramSnapshot {
            name: "h".into(),
            count: 2,
            sum: 10,
            buckets: vec![(4, 1), (16, 2)],
        });
        let both = b.merged(&a);
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.counter("a"), 3);
        assert_eq!(a.counter("b"), 8);
        assert_eq!(a.counter("c"), 9);
        assert_eq!(a.gauges["g"], 3);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 50);
        assert_eq!(h.buckets, vec![(4, 1), (8, 4), (16, 6)]);
    }

    #[test]
    fn delta_round_trips_and_applies() {
        let prev = sample();
        let mut next = prev.clone();
        next.counters.insert("a".into(), 5);
        next.gauges.insert("g2".into(), 11);
        next.histograms[0].count = 5;
        next.histograms[0].sum = 140;
        next.histograms[0].buckets = vec![(8, 3), (16, 4), (128, 5)];
        let d = SnapshotDelta::between(&prev, &next);
        assert_eq!(d.counters, vec![("a".to_string(), 5)]);
        assert_eq!(d.gauges, vec![("g2".to_string(), 11)]);
        assert_eq!(d.histograms.len(), 1);
        assert_eq!(d.histograms[0].buckets, vec![(128, 1)]);
        let decoded = SnapshotDelta::from_der(&d.to_der()).unwrap();
        assert_eq!(decoded, d);
        let mut patched = prev.clone();
        decoded.apply(&mut patched);
        assert_eq!(patched, next);
    }

    #[test]
    fn empty_delta_for_identical_snapshots() {
        let s = sample();
        let d = SnapshotDelta::between(&s, &s);
        assert!(d.is_empty());
        assert!(d.to_der().len() < s.to_der().len());
    }

    #[test]
    fn payload_round_trips_both_arms() {
        let full = SnapshotPayload::Full(sample());
        let delta = SnapshotPayload::Delta(SnapshotDelta::between(&sample(), &sample()));
        for p in [full, delta] {
            let decoded = SnapshotPayload::from_der(&p.to_der()).unwrap();
            assert_eq!(decoded, p);
        }
    }

    #[test]
    fn snapshot_quantile_matches_live_histogram_semantics() {
        let h = HistogramSnapshot {
            name: "q".into(),
            count: 10,
            sum: 0,
            buckets: vec![(4, 9), (1024, 10)],
        };
        assert_eq!(h.approx_quantile(0.5), 4);
        assert_eq!(h.approx_quantile(0.99), 1024);
        assert_eq!(
            HistogramSnapshot {
                name: "e".into(),
                count: 0,
                sum: 0,
                buckets: vec![]
            }
            .approx_quantile(0.5),
            0
        );
    }
}
