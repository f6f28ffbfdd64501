//! DER wire encodings for telemetry aggregates.
//!
//! The monitoring plane ships [`MetricsSnapshot`]s and [`SpanSummary`]
//! rows across sites inside `Monitor` service outcomes, so they need the
//! same canonical DER treatment as the rest of the protocol. The
//! encodings live here (rather than in the protocol crates) because the
//! orphan rule requires the impls next to the types; `unicore-codec` has
//! no dependencies, so this adds no cycle.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::telemetry::SpanSummary;
use std::collections::BTreeMap;
use unicore_codec::{require_ascending, CodecError, DerCodec, DerReader, DerWriter};

/// Writes `(integer, integer)` pairs — histogram buckets — as a SEQUENCE
/// OF two-element SEQUENCEs.
pub(crate) fn write_buckets(w: &mut DerWriter, buckets: &[(u64, u64)]) {
    w.sequence_of(buckets, |w, &(bound, n)| {
        w.sequence(|w| {
            w.u64(bound);
            w.u64(n);
        })
    });
}

pub(crate) fn read_buckets(r: &mut DerReader<'_>) -> Result<Vec<(u64, u64)>, CodecError> {
    r.sequence_of("histogram buckets", |b| {
        b.sequence("histogram bucket", |bf| {
            Ok((bf.next_u64()?, bf.next_u64()?))
        })
    })
}

/// Reads a name-keyed map, written in ascending key order.
fn read_map<V>(
    r: &mut DerReader<'_>,
    context: &'static str,
    mut value: impl FnMut(&mut DerReader<'_>) -> Result<V, CodecError>,
) -> Result<BTreeMap<String, V>, CodecError> {
    let entries = r.sequence_of(context, |e| {
        e.sequence(context, |ef| Ok((ef.next_string()?, value(ef)?)))
    })?;
    require_ascending(&entries, |e| &e.0)?;
    Ok(entries.into_iter().collect())
}

impl DerCodec for HistogramSnapshot {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.name);
            w.u64(self.count);
            w.u64(self.sum);
            write_buckets(w, &self.buckets);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("HistogramSnapshot", |f| {
            Ok(HistogramSnapshot {
                name: f.next_string()?,
                count: f.next_u64()?,
                sum: f.next_u64()?,
                buckets: read_buckets(f)?,
            })
        })
    }
}

impl DerCodec for MetricsSnapshot {
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
        r.sequence("MetricsSnapshot", |f| {
            Ok(MetricsSnapshot {
                counters: read_map(f, "counter", |e| e.next_u64())?,
                gauges: read_map(f, "gauge", |e| e.next_i64())?,
                histograms: f.sequence_of("histograms", HistogramSnapshot::read_der)?,
            })
        })
    }
}

impl DerCodec for SpanSummary {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.name);
            w.u64(self.count);
            w.u64(self.clock_total);
            w.u64(self.wall_ns_total);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("SpanSummary", |f| {
            Ok(SpanSummary {
                name: f.next_string()?,
                count: f.next_u64()?,
                clock_total: f.next_u64()?,
                wall_ns_total: f.next_u64()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn metrics_snapshot_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("njs.consigned").add(12);
        reg.counter("gateway.audit.dropped").add(3);
        reg.gauge("njs.jobs.active").set(-2);
        let h = reg.histogram("batch.wait.us");
        h.record(0);
        h.record(7);
        h.record(9000);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_der(&snap.to_der()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn map_keys_must_ascend() {
        use unicore_codec::{decode, encode, Value};
        let reg = MetricsRegistry::new();
        reg.counter("a").add(1);
        reg.counter("b").add(2);
        let der = reg.snapshot().to_der();
        let Value::Sequence(mut fields) = decode(&der).unwrap() else {
            unreachable!()
        };
        let Value::Sequence(counters) = &mut fields[0] else {
            unreachable!()
        };
        // "b" before "a", and "a" twice: both are second spellings.
        counters.swap(0, 1);
        let swapped = encode(&Value::Sequence(fields.clone()));
        assert!(MetricsSnapshot::from_der(&swapped).is_err());
        let Value::Sequence(counters) = &mut fields[0] else {
            unreachable!()
        };
        counters[0] = counters[1].clone();
        let doubled = encode(&Value::Sequence(fields));
        assert!(MetricsSnapshot::from_der(&doubled).is_err());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        assert_eq!(MetricsSnapshot::from_der(&snap.to_der()).unwrap(), snap);
    }

    #[test]
    fn span_summary_round_trips() {
        let s = SpanSummary {
            name: "server.handle".into(),
            count: 42,
            clock_total: 123_456,
            wall_ns_total: 987_654_321,
        };
        assert_eq!(SpanSummary::from_der(&s.to_der()).unwrap(), s);
    }

    #[test]
    fn histogram_snapshot_round_trips() {
        let h = HistogramSnapshot {
            name: "lat.us".into(),
            count: 5,
            sum: 1106,
            buckets: vec![(4, 3), (128, 4), (1024, 5)],
        };
        assert_eq!(HistogramSnapshot::from_der(&h.to_der()).unwrap(), h);
    }
}
