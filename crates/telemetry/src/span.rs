//! Trace/span identities and span records.

use std::fmt;
use std::time::Instant;

/// A 128-bit trace id shared by every span of one distributed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub [u8; 16]);

impl TraceId {
    /// The all-zero id used by disabled telemetry.
    pub const ZERO: TraceId = TraceId([0; 16]);

    /// Builds a trace id from two RNG words.
    pub fn from_words(hi: u64, lo: u64) -> TraceId {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&hi.to_be_bytes());
        b[8..].copy_from_slice(&lo.to_be_bytes());
        TraceId(b)
    }

    /// The raw bytes (big-endian words).
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A 64-bit span id, unique within (and practically across) traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The zero id used by disabled telemetry.
    pub const ZERO: SpanId = SpanId(0);
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The propagated part of a span: enough for a remote tier to continue
/// the trace. This is what rides in `core::protocol::Envelope`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// The trace every descendant span must carry.
    pub trace: TraceId,
    /// The span that becomes the parent of the next tier's work.
    pub span: SpanId,
}

/// A finished span as stored by the collecting recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Operation name, dotted (`njs.consign`, `batch.run`, ...). Static
    /// so the hot path never allocates for it.
    pub name: &'static str,
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's own id.
    pub span: SpanId,
    /// Parent span id, `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Start on the caller-supplied clock (sim µs in simulations).
    pub start: u64,
    /// End on the caller-supplied clock.
    pub end: u64,
    /// Real elapsed nanoseconds between start and end calls, when the
    /// span was live-measured (0 for retroactively emitted spans).
    pub wall_ns: u64,
    /// Key/value attributes (static keys, rendered values).
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Duration on the caller-supplied clock (saturating).
    pub(crate) fn clock_duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-flight span handle. Obtain via [`crate::Telemetry::span`],
/// finish via [`crate::Telemetry::end`]. Dropping without `end` simply
/// discards the span — no locking happens on drop.
#[derive(Debug)]
pub struct ActiveSpan {
    pub(crate) enabled: bool,
    pub(crate) name: &'static str,
    pub(crate) trace: TraceId,
    pub(crate) span: SpanId,
    pub(crate) parent: Option<SpanId>,
    pub(crate) start: u64,
    pub(crate) wall: Option<Instant>,
    pub(crate) attrs: Vec<(&'static str, String)>,
}

impl ActiveSpan {
    /// A span that records nothing; what disabled telemetry hands out.
    pub fn noop() -> ActiveSpan {
        ActiveSpan {
            enabled: false,
            name: "",
            trace: TraceId::ZERO,
            span: SpanId::ZERO,
            parent: None,
            start: 0,
            wall: None,
            attrs: Vec::new(),
        }
    }

    /// The propagable context, `None` when telemetry is disabled (so a
    /// disabled tier never pollutes the wire with zero ids).
    pub fn ctx(&self) -> Option<SpanContext> {
        self.enabled.then_some(SpanContext {
            trace: self.trace,
            span: self.span,
        })
    }

    /// Attaches a key/value attribute (no-op when disabled).
    pub fn attr(&mut self, key: &'static str, value: impl ToString) {
        if self.enabled {
            self.attrs.push((key, value.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render_as_hex() {
        let t = TraceId::from_words(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        assert_eq!(t.to_string(), "0123456789abcdeffedcba9876543210");
        assert_eq!(SpanId(0xff).to_string(), "00000000000000ff");
    }

    #[test]
    fn noop_span_has_no_context() {
        let mut s = ActiveSpan::noop();
        assert!(s.ctx().is_none());
        s.attr("k", "v");
        assert!(s.attrs.is_empty());
    }
}
