//! # unicore-telemetry
//!
//! Cross-tier observability for the UNICORE reproduction: distributed
//! traces that follow one job from the JPA through gateway, NJS and
//! batch subsystem — across Usites when a sub-AJO is forwarded NJS→NJS
//! — plus a registry of atomic counters, gauges and log-bucketed
//! histograms with a Prometheus-style text exposition.
//!
//! The paper's production successor ("UNICORE — From Project Results to
//! Production Grids") hardened the prototype with exactly this kind of
//! monitoring; here it is the measurement substrate every optimisation
//! experiment (E11) is judged against.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Trace and span ids are minted from the
//!    workspace's ChaCha20 [`CryptoRng`](unicore_crypto::CryptoRng), so
//!    a seeded run produces the same trace byte-for-byte.
//! 2. **Two clocks.** Spans record start/end on whatever `u64` clock the
//!    caller supplies — the virtual `unicore-sim` microsecond clock in
//!    simulations, wall micros in benches — and independently measure
//!    real elapsed nanoseconds for overhead accounting.
//! 3. **Near-free when off.** [`Telemetry::disabled`] mints no ids,
//!    takes no locks and records nothing. What collecting costs is
//!    measured by gridbench's traced twin of each workload
//!    (`telemetry.overhead_pct`, `telemetry.spans_per_job`).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod alerts;
pub mod flight;
pub mod metrics;
pub mod span;
pub mod telemetry;
mod wire;

pub use aggregate::{HistogramDelta, SnapshotDelta, SnapshotPayload};
pub use alerts::{standard_slo_rules, ActiveAlert, AlertEngine, AlertEvent, AlertKind, AlertRule};
pub use flight::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::{ActiveSpan, SpanContext, SpanId, SpanRecord, TraceId};
pub use telemetry::{SpanSummary, Telemetry};
