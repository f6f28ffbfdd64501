//! The [`Telemetry`] handle: span recorder + metrics registry.

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::span::{ActiveSpan, SpanContext, SpanId, SpanRecord, TraceId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use unicore_crypto::CryptoRng;

struct Inner {
    /// When false, the span API is a pure no-op (metrics stay live —
    /// atomics are cheap and benches read them either way).
    enabled: bool,
    /// Lock-free id source: a counter whose base is drawn from the
    /// seeded ChaCha stream, whitened per draw by splitmix64. Ids only
    /// need uniqueness and seed-determinism, not unpredictability, and
    /// spans are minted on every request — this keeps the hot path to
    /// one `fetch_add`.
    ids: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: MetricsRegistry,
}

/// Finalizer of the splitmix64 generator — a bijection on `u64`, so
/// distinct counter values always yield distinct ids.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A cloneable observability handle shared by every tier of one
/// process: servers, NJS, gateway, store and batch all record into the
/// same collector.
///
/// Two constructors: [`Telemetry::disabled`] (the default everywhere,
/// near-zero cost) and [`Telemetry::collecting`] (deterministic ids
/// from a seed, spans kept in memory).
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.enabled)
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

/// Aggregate of all finished spans sharing one name — the rows of the
/// per-tier latency breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// How many spans finished under this name.
    pub count: u64,
    /// Total duration on the caller-supplied clock (sim µs).
    pub clock_total: u64,
    /// Total measured wall nanoseconds.
    pub wall_ns_total: u64,
}

impl Telemetry {
    /// Telemetry that records no spans and mints no ids. Its metrics
    /// registry still works, so instrumented code never branches.
    pub fn disabled() -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: false,
                ids: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            }),
        }
    }

    /// Telemetry that keeps every finished span in memory, with ids
    /// minted deterministically from `seed`.
    pub fn collecting(seed: u64) -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                enabled: true,
                ids: AtomicU64::new(CryptoRng::from_u64(seed).fork("telemetry-ids").next_u64()),
                spans: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Shortcut for `metrics().counter(name)`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.metrics.counter(name)
    }

    /// Shortcut for `metrics().gauge(name)`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.metrics.gauge(name)
    }

    /// Shortcut for `metrics().histogram(name)`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner.metrics.histogram(name)
    }

    /// Shortcut for `metrics().snapshot()`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    fn next_word(&self) -> u64 {
        splitmix64(self.inner.ids.fetch_add(1, Ordering::Relaxed))
    }

    fn mint_span(&self) -> SpanId {
        // Zero is reserved for "no id"; splitmix64 is a bijection, so
        // it yields zero at most once per 2^64 draws — skip past it.
        loop {
            let id = self.next_word();
            if id != 0 {
                return SpanId(id);
            }
        }
    }

    fn mint_trace(&self) -> TraceId {
        TraceId::from_words(self.next_word(), self.next_word())
    }

    /// Starts a span at `now` (any `u64` clock — sim µs by convention).
    /// With `parent: Some`, the span joins that trace; with `None` it
    /// roots a new one. Disabled telemetry returns a no-op handle.
    pub fn span(&self, name: &'static str, parent: Option<SpanContext>, now: u64) -> ActiveSpan {
        if !self.inner.enabled {
            return ActiveSpan::noop();
        }
        let (trace, parent_span) = match parent {
            Some(ctx) => (ctx.trace, Some(ctx.span)),
            None => (self.mint_trace(), None),
        };
        ActiveSpan {
            enabled: true,
            name,
            trace,
            span: self.mint_span(),
            parent: parent_span,
            start: now,
            wall: Some(Instant::now()),
            attrs: Vec::new(),
        }
    }

    /// Finishes `span` at `now`, recording it. No-op handles vanish.
    pub fn end(&self, span: ActiveSpan, now: u64) {
        if !span.enabled {
            return;
        }
        let wall_ns = span
            .wall
            .map(|t| t.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        let rec = SpanRecord {
            name: span.name,
            trace: span.trace,
            span: span.span,
            parent: span.parent,
            start: span.start,
            end: now,
            wall_ns,
            attrs: span.attrs,
        };
        self.inner.spans.lock().expect("span store").push(rec);
    }

    /// Records a span retroactively from known clock endpoints — how
    /// queue-wait/run intervals reconstructed from batch accounting
    /// enter the trace. Returns the new span's context (`None` when
    /// disabled).
    pub fn emit(
        &self,
        name: &'static str,
        parent: Option<SpanContext>,
        start: u64,
        end: u64,
    ) -> Option<SpanContext> {
        if !self.inner.enabled {
            return None;
        }
        let (trace, parent_span) = match parent {
            Some(ctx) => (ctx.trace, Some(ctx.span)),
            None => (self.mint_trace(), None),
        };
        let span = self.mint_span();
        self.inner
            .spans
            .lock()
            .expect("span store")
            .push(SpanRecord {
                name,
                trace,
                span,
                parent: parent_span,
                start,
                end,
                wall_ns: 0,
                attrs: Vec::new(),
            });
        Some(SpanContext { trace, span })
    }

    /// All finished spans, in completion order.
    pub fn finished_spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().expect("span store").clone()
    }

    /// Per-name aggregation of finished spans, sorted by descending
    /// clock total — the per-tier latency breakdown.
    pub fn breakdown(&self) -> Vec<SpanSummary> {
        let mut by_name: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for rec in self.inner.spans.lock().expect("span store").iter() {
            let e = by_name.entry(rec.name).or_insert_with(|| SpanSummary {
                name: rec.name.to_string(),
                count: 0,
                clock_total: 0,
                wall_ns_total: 0,
            });
            e.count += 1;
            e.clock_total += rec.clock_duration();
            e.wall_ns_total += rec.wall_ns;
        }
        let mut rows: Vec<SpanSummary> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.clock_total.cmp(&a.clock_total).then(a.name.cmp(&b.name)));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_but_metrics_work() {
        let t = Telemetry::disabled();
        let mut s = t.span("x", None, 10);
        s.attr("k", 1);
        assert!(s.ctx().is_none());
        t.end(s, 20);
        assert!(t.emit("y", None, 0, 5).is_none());
        assert!(t.finished_spans().is_empty());
        t.counter("c").inc();
        assert_eq!(t.metrics_snapshot().counter("c"), 1);
    }

    #[test]
    fn collecting_links_children_to_parents() {
        let t = Telemetry::collecting(7);
        let root = t.span("client.request", None, 0);
        let root_ctx = root.ctx().unwrap();
        let child = t.span("server.handle", root.ctx(), 5);
        let child_ctx = child.ctx().unwrap();
        assert_eq!(child_ctx.trace, root_ctx.trace);
        assert_ne!(child_ctx.span, root_ctx.span);
        t.end(child, 9);
        t.end(root, 12);

        let spans = t.finished_spans();
        assert_eq!(spans.len(), 2);
        let server = &spans[0];
        assert_eq!(server.name, "server.handle");
        assert_eq!(server.parent, Some(root_ctx.span));
        assert_eq!(server.clock_duration(), 4);
        let client = &spans[1];
        assert_eq!(client.parent, None);
        assert_eq!(client.clock_duration(), 12);
    }

    #[test]
    fn ids_are_deterministic_per_seed() {
        let a = Telemetry::collecting(42);
        let b = Telemetry::collecting(42);
        let sa = a.span("s", None, 0);
        let sb = b.span("s", None, 0);
        assert_eq!(sa.ctx(), sb.ctx());
        let c = Telemetry::collecting(43);
        assert_ne!(c.span("s", None, 0).ctx(), sa.ctx());
    }

    #[test]
    fn emit_and_breakdown_aggregate_by_name() {
        let t = Telemetry::collecting(1);
        let root = t.span("job", None, 0);
        let ctx = root.ctx();
        let q = t.emit("batch.queue", ctx, 10, 40).unwrap();
        assert_eq!(q.trace, ctx.unwrap().trace);
        t.emit("batch.run", ctx, 40, 100);
        t.emit("batch.run", ctx, 100, 110);
        t.end(root, 120);

        let rows = t.breakdown();
        assert_eq!(rows[0].name, "job");
        assert_eq!(rows[0].clock_total, 120);
        let run = rows.iter().find(|r| r.name == "batch.run").unwrap();
        assert_eq!(run.count, 2);
        assert_eq!(run.clock_total, 70);
        let queue = rows.iter().find(|r| r.name == "batch.queue").unwrap();
        assert_eq!(queue.clock_total, 30);

        assert_eq!(t.finished_spans().len(), 4);
    }

    #[test]
    fn attrs_survive_to_the_record() {
        let t = Telemetry::collecting(9);
        let mut s = t.span("gateway.authorize", None, 0);
        s.attr("dn", "CN=phoenix");
        s.attr("decision", "accept");
        t.end(s, 1);
        let rec = &t.finished_spans()[0];
        assert_eq!(rec.attrs[0], ("dn", "CN=phoenix".into()));
        assert_eq!(rec.attrs[1], ("decision", "accept".into()));
    }
}
