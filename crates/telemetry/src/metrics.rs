//! Atomic counters, gauges and log-bucketed histograms behind a
//! name-keyed registry, with Prometheus-style text exposition and a
//! machine-readable snapshot for benches.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use unicore_sim::{log2_bucket, log2_bucket_limit};

/// A monotonically increasing counter. Cloning shares the cell; a
/// default one is attached to no registry (and always usable).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Lock-free histogram over 64 power-of-two buckets — the atomic
/// sibling of [`unicore_sim::LogHistogram`], sharing its bucket
/// geometry via [`log2_bucket`]. Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramCells>,
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// Records a non-negative observation.
    pub fn record(&self, value: u64) {
        let c = &self.inner;
        c.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound of the smallest bucket whose cumulative count
    /// reaches quantile `q`; 0 when empty.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (total as f64 * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut acc = 0;
        for (idx, b) in self.inner.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            if acc >= target {
                return if idx == 0 { 0 } else { log2_bucket_limit(idx) };
            }
        }
        u64::MAX
    }

    fn bucket_loads(&self) -> [u64; 64] {
        std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed))
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// `(exclusive upper bound, cumulative count)` for each non-empty
    /// bucket, in ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

/// Point-in-time copy of a whole registry, for benches and assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots, ascending by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent — a metric never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent — a metric never touched).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// Name-keyed registry of metrics. Cloning shares the registry; handles
/// returned by the getters are cheap atomics, so instrumented code
/// should fetch them once and keep them.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("counter registry");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("gauge registry");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().expect("histogram registry");
        map.entry(name.to_string()).or_default().clone()
    }

    /// A machine-readable copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauge registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry")
            .iter()
            .map(|(k, v)| {
                let mut buckets = Vec::new();
                let mut cum = 0;
                for (idx, n) in v.bucket_loads().into_iter().enumerate() {
                    if n > 0 {
                        cum += n;
                        buckets.push((log2_bucket_limit(idx), cum));
                    }
                }
                HistogramSnapshot {
                    name: k.clone(),
                    count: v.count(),
                    sum: v.sum(),
                    buckets,
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Prometheus-style text exposition: dotted metric names become
    /// underscore-separated, histograms expand to `_bucket{le=...}` /
    /// `_sum` / `_count` series with cumulative buckets.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for (name, v) in &snap.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, v) in &snap.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for h in &snap.histograms {
            let n = sanitize(&h.name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            for (le, cum) in &h.buckets {
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("njs.consigned");
        let b = reg.counter("njs.consigned");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("njs.consigned").get(), 3);

        let g = reg.gauge("njs.jobs.active");
        g.set(5);
        reg.gauge("njs.jobs.active").add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_tracks_count_sum_and_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat.us");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert!((h.mean() - 221.2).abs() < 1e-9);
        // Median lands in the bucket covering 3 → upper bound 4.
        assert_eq!(h.approx_quantile(0.5), 4);
        assert!(h.approx_quantile(1.0) >= 1024);
        assert_eq!(Histogram::default().approx_quantile(0.5), 0);
    }

    #[test]
    fn histogram_bucket_geometry_matches_sim() {
        let h = Histogram::default();
        let mut reference = unicore_sim::LogHistogram::new();
        let mut x: u64 = 1;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = x >> (x % 40);
            h.record(v);
            reference.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(h.approx_quantile(q), reference.approx_quantile(q));
        }
    }

    #[test]
    fn snapshot_and_text_exposition() {
        let reg = MetricsRegistry::new();
        reg.counter("gateway.authn.ok").add(7);
        reg.gauge("store.segments").set(2);
        let h = reg.histogram("batch.wait.us");
        h.record(0);
        h.record(5);
        h.record(5);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("gateway.authn.ok"), 7);
        assert_eq!(snap.counter("never.touched"), 0);
        assert_eq!(snap.gauges["store.segments"], 2);
        let hs = &snap.histograms[0];
        assert_eq!(hs.name, "batch.wait.us");
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 10);
        // 0 → bucket 0 (bound 1); 5 → bucket 3 (bound 8); cumulative.
        assert_eq!(hs.buckets, vec![(1, 1), (8, 3)]);

        let text = reg.render_text();
        assert!(text.contains("# TYPE gateway_authn_ok counter"));
        assert!(text.contains("gateway_authn_ok 7"));
        assert!(text.contains("store_segments 2"));
        assert!(text.contains("batch_wait_us_bucket{le=\"8\"} 3"));
        assert!(text.contains("batch_wait_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("batch_wait_us_sum 10"));
        assert!(text.contains("batch_wait_us_count 3"));
    }

    /// Locks the exposition byte-for-byte to the Prometheus text
    /// conventions: cumulative `_bucket` series ending in an explicit
    /// `+Inf` bucket equal to `_count`, followed by `_sum` and
    /// `_count`. Any formatting drift fails this test.
    #[test]
    fn exposition_format_locked() {
        let reg = MetricsRegistry::new();
        reg.counter("njs.consigned").add(4);
        reg.gauge("njs.jobs.active").set(-1);
        let h = reg.histogram("consign.us");
        h.record(0);
        h.record(5);
        h.record(5);

        let expected = "\
# TYPE njs_consigned counter
njs_consigned 4
# TYPE njs_jobs_active gauge
njs_jobs_active -1
# TYPE consign_us histogram
consign_us_bucket{le=\"1\"} 1
consign_us_bucket{le=\"8\"} 3
consign_us_bucket{le=\"+Inf\"} 3
consign_us_sum 10
consign_us_count 3
";
        assert_eq!(reg.render_text(), expected);
    }
}
