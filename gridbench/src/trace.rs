//! The harness-side tracer: a span around every call the harness makes
//! into a layer, kept in memory, aggregated into per-name self time.
//!
//! Spans are opened and closed by the harness only — nothing here reaches
//! into the product crates. A layer's *self time* is its span's duration
//! minus the part covered by child spans the harness itself opened (or
//! attributed with [`Tracer::child`] from a counter it read back, e.g. the
//! timing storage backend's busy time during a `handle_request`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for `trace_<workload>.jsonl`; the aggregate table never
/// needs them, so a long window does not grow memory without bound.
const RAW_SPAN_CAP: usize = 200_000;

/// One finished span, as written to the trace file.
struct RawSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span in the raw list, if it was kept.
    parent: Option<u32>,
    /// Job or connection the span belongs to.
    id: u64,
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    id: u64,
    raw_index: Option<u32>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct SpanGuard(bool);

/// The in-memory span recorder. Disabled, every call is one branch.
pub struct Tracer {
    on: bool,
    keep_raw: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    totals: BTreeMap<&'static str, SpanTotals>,
    raw: Vec<RawSpan>,
}

impl Tracer {
    pub fn new(on: bool, keep_raw: bool) -> Self {
        Tracer {
            on,
            keep_raw,
            epoch: Instant::now(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            raw: Vec::new(),
        }
    }

    /// A tracer that records nothing (the untraced run, and the untraced
    /// twin fixture of the traced run).
    pub fn off() -> Self {
        Tracer::new(false, false)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span named after the per-layer metric's stem.
    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u64) -> SpanGuard {
        if !self.on {
            return SpanGuard(false);
        }
        let raw_index = if self.keep_raw && self.raw.len() < RAW_SPAN_CAP {
            let parent = self.stack.last().and_then(|f| f.raw_index);
            self.raw.push(RawSpan {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                id,
            });
            Some((self.raw.len() - 1) as u32)
        } else {
            None
        };
        self.stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
            id,
            raw_index,
        });
        SpanGuard(true)
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self, guard: SpanGuard) {
        if !guard.0 {
            return;
        }
        let end = Instant::now();
        let frame = self.stack.pop().expect("exit without enter");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let t = self.totals.entry(frame.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = frame.raw_index {
            let start_ns = frame.start.duration_since(self.epoch).as_nanos() as u64;
            let raw = &mut self.raw[i as usize];
            raw.start_ns = start_ns;
            raw.end_ns = start_ns + dur;
            raw.id = frame.id;
        }
    }

    /// Drops every open span unrecorded: a batch that aborted on an error
    /// must not leave its frames under the next batch's spans.
    pub fn abandon(&mut self) {
        self.stack.clear();
    }

    /// Renames the innermost open span — a handshake only learns whether
    /// it resumed once it has finished.
    pub fn rename(&mut self, name: &'static str) {
        if let Some(frame) = self.stack.last_mut() {
            frame.name = name;
            if let Some(i) = frame.raw_index {
                self.raw[i as usize].name = name;
            }
        }
    }

    /// Attributes `ns` of the innermost open span to a child layer whose
    /// time the harness measured by a counter instead of a span (the
    /// timing storage backend sits *below* the product call).
    pub fn child(&mut self, name: &'static str, calls: u64, ns: u64) {
        if !self.on || (calls == 0 && ns == 0) {
            return;
        }
        let t = self.totals.entry(name).or_default();
        t.count += calls;
        t.total_ns += ns;
        t.self_ns += ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotals> {
        &self.totals
    }

    pub fn get(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time summed over every span whose name starts with a prefix.
    pub fn self_ns_of(&self, prefixes: &[&str]) -> u64 {
        self.totals
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Self time of every span: the attributed part of the wall clock.
    pub fn attributed_ns(&self) -> u64 {
        self.totals.values().map(|t| t.self_ns).sum()
    }

    /// The raw spans as JSON lines: name, start/end in ns since the tracer
    /// was created, parent (line number, 0-based) and job/connection id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.raw.len() * 96);
        for s in &self.raw {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(out, ",\"id\":{}}}", s.id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, true);
        let outer = t.enter("a.outer", 1);
        let inner = t.enter("b.inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.child("c.counted", 3, 500);
        t.exit(outer);
        let a = t.get("a.outer");
        let b = t.get("b.inner");
        assert_eq!(a.count, 1);
        assert_eq!(a.self_ns, a.total_ns - b.total_ns - 500);
        assert_eq!(t.get("c.counted").count, 3);
        assert_eq!(t.attributed_ns(), a.total_ns);
        let lines: Vec<_> = t.to_jsonl().lines().map(str::to_owned).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let g = t.enter("x", 0);
        t.exit(g);
        assert!(t.totals().is_empty());
    }
}
