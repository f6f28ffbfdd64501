//! The flight recorder: a bounded ring of recent per-job events.
//!
//! When a task fails, the JMC shows a red icon — the flight recorder
//! supplies the *why*: the last N lifecycle events (consign, incarnate,
//! dispatch, batch transitions, remote forwards) that led up to the
//! failure, serialized into the task's `Outcome` so the trace travels
//! back to the user with the result instead of staying in a site-local
//! log the user cannot reach.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// Default ring capacity per job: enough for a multi-task job's full
/// lifecycle without letting a pathological retry loop grow unbounded.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 32;

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Clock at the event (sim µs by convention).
    pub at: u64,
    /// Short machine-oriented label, e.g. `njs.dispatch`.
    pub what: String,
    /// Human-oriented detail, e.g. the vsite or an error message.
    pub detail: String,
}

impl DerCodec for FlightEvent {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.u64(self.at);
            w.str(&self.what);
            w.str(&self.detail);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("FlightEvent", |f| {
            Ok(FlightEvent {
                at: f.next_u64()?,
                what: f.next_string()?,
                detail: f.next_string()?,
            })
        })
    }
}

struct FlightInner {
    /// Ring capacity per job; 0 disables recording entirely.
    capacity: usize,
    rings: Mutex<HashMap<u64, VecDeque<FlightEvent>>>,
}

/// A cloneable handle to the per-job event rings. A disabled recorder
/// (the default) takes no locks and stores nothing.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.inner.capacity)
            .finish_non_exhaustive()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::disabled()
    }
}

impl FlightRecorder {
    /// A recorder that drops everything.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::bounded(0)
    }

    /// A recorder keeping the most recent `capacity` events per job.
    pub fn bounded(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                capacity,
                rings: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.capacity > 0
    }

    /// Appends an event to `job`'s ring, evicting the oldest when full.
    ///
    /// The detail arrives unformatted (`format_args!`): a disabled
    /// recorder — every untraced run — returns before anything in it is
    /// looked at, and an enabled one formats it once, into the event.
    pub fn record(&self, job: u64, at: u64, what: &str, detail: fmt::Arguments<'_>) {
        if self.inner.capacity == 0 {
            return;
        }
        let mut rings = self.inner.rings.lock().expect("flight rings");
        let ring = rings.entry(job).or_default();
        if ring.len() == self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(FlightEvent {
            at,
            what: what.to_string(),
            detail: detail.to_string(),
        });
    }

    /// The recorded events for `job`, oldest first.
    pub fn trace(&self, job: u64) -> Vec<FlightEvent> {
        if self.inner.capacity == 0 {
            return Vec::new();
        }
        self.inner
            .rings
            .lock()
            .expect("flight rings")
            .get(&job)
            .map(|ring| ring.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Drops `job`'s ring (call when the job is purged).
    pub fn forget(&self, job: u64) {
        if self.inner.capacity == 0 {
            return;
        }
        self.inner.rings.lock().expect("flight rings").remove(&job);
    }

    /// Number of jobs with live rings.
    pub fn jobs_tracked(&self) -> usize {
        if self.inner.capacity == 0 {
            return 0;
        }
        self.inner.rings.lock().expect("flight rings").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let fr = FlightRecorder::disabled();
        assert!(!fr.is_enabled());
        fr.record(1, 0, "njs.consign", format_args!("job 1"));
        assert!(fr.trace(1).is_empty());
        assert_eq!(fr.jobs_tracked(), 0);
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let fr = FlightRecorder::bounded(3);
        for i in 0..5u64 {
            fr.record(7, i * 10, "step", format_args!("event {i}"));
        }
        let trace = fr.trace(7);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].detail, "event 2");
        assert_eq!(trace[2].detail, "event 4");
        assert_eq!(trace[2].at, 40);
    }

    #[test]
    fn rings_are_per_job_and_forgettable() {
        let fr = FlightRecorder::bounded(8);
        fr.record(1, 0, "njs.consign", format_args!("a"));
        fr.record(2, 0, "njs.consign", format_args!("b"));
        assert_eq!(fr.jobs_tracked(), 2);
        assert_eq!(fr.trace(1).len(), 1);
        fr.forget(1);
        assert!(fr.trace(1).is_empty());
        assert_eq!(fr.trace(2).len(), 1);
        assert_eq!(fr.jobs_tracked(), 1);
    }

    /// A value that counts how often it is formatted.
    struct Counted<'a>(&'a std::cell::Cell<u32>, &'a str);

    impl fmt::Display for Counted<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str(self.1)
        }
    }

    #[test]
    fn disabled_recorder_never_formats_the_detail() {
        let calls = std::cell::Cell::new(0);
        let off = FlightRecorder::disabled();
        off.record(
            1,
            0,
            "njs.dispatch",
            format_args!("node {}", Counted(&calls, "3")),
        );
        assert_eq!(calls.get(), 0, "a disabled recorder looked at its detail");
        // An enabled one formats it exactly once, into the event.
        let on = FlightRecorder::bounded(4);
        on.record(
            1,
            0,
            "njs.dispatch",
            format_args!("node {}", Counted(&calls, "3")),
        );
        assert_eq!(calls.get(), 1);
        assert_eq!(on.trace(1)[0].detail, "node 3");
        assert_eq!(on.trace(1).len(), 1);
        assert_eq!(calls.get(), 1, "reading the ring formats nothing");
    }

    /// The text of every event the NJS records, spelled the way the NJS
    /// spells it (`crates/njs/tests/flight_identity.rs` pins the same
    /// strings through the engine): `what`, `detail`, and the event's DER.
    #[test]
    fn njs_event_text_is_pinned() {
        let fr = FlightRecorder::bounded(DEFAULT_FLIGHT_CAPACITY);
        let (node, vsite, queue, shard, usite) = (7u64, "T3E", "express", 2usize, "RUS");
        let stderr = "solver: diverged\nbacktrace\n";
        let head = stderr.lines().next().unwrap_or("");
        let error = "submit script does not match this machine's batch dialect";
        fr.record(9, 0, "njs.consign", format_args!("vsite {vsite}"));
        fr.record(
            9,
            1,
            "njs.dispatch",
            format_args!("node {node} -> {vsite}:{queue}"),
        );
        fr.record(
            9,
            2,
            "batch.running",
            format_args!("node {node} on {vsite}"),
        );
        fr.record(
            9,
            3,
            "batch.exit",
            format_args!("node {node} exit code {}{}{}", 0, "", ""),
        );
        fr.record(
            9,
            4,
            "batch.exit",
            format_args!(
                "node {node} exit code {}{}{}",
                137,
                " (wall clock limit exceeded)",
                format_args!(": {head}")
            ),
        );
        fr.record(
            9,
            5,
            "batch.cancelled",
            format_args!("node {node} on {vsite}"),
        );
        fr.record(
            9,
            6,
            "njs.kill",
            format_args!("node {node}: predecessor failed"),
        );
        fr.record(
            9,
            7,
            "njs.quota",
            format_args!("node {node}: output {} exceeded job disk quota", "big.dat"),
        );
        fr.record(9, 8, "njs.dispatch.error", format_args!("{error}"));
        fr.record(
            9,
            9,
            "njs.file.error",
            format_args!("node {node}: {}", "file not found: /x"),
        );
        fr.record(
            9,
            10,
            "njs.forward",
            format_args!("node {node} -> shard {shard}"),
        );
        fr.record(
            9,
            11,
            "njs.forward",
            format_args!("node {node} -> usite {usite}"),
        );
        let text: Vec<String> = fr
            .trace(9)
            .iter()
            .map(|e| format!("{} {} | {}", e.at, e.what, e.detail))
            .collect();
        assert_eq!(
            text,
            [
                "0 njs.consign | vsite T3E",
                "1 njs.dispatch | node 7 -> T3E:express",
                "2 batch.running | node 7 on T3E",
                "3 batch.exit | node 7 exit code 0",
                "4 batch.exit | node 7 exit code 137 (wall clock limit exceeded): solver: diverged",
                "5 batch.cancelled | node 7 on T3E",
                "6 njs.kill | node 7: predecessor failed",
                "7 njs.quota | node 7: output big.dat exceeded job disk quota",
                "8 njs.dispatch.error | submit script does not match this machine's batch dialect",
                "9 njs.file.error | node 7: file not found: /x",
                "10 njs.forward | node 7 -> shard 2",
                "11 njs.forward | node 7 -> usite RUS",
            ]
        );
        // The event's DER is (at, what, detail) as UTF-8 strings, so the
        // same text is the same outcome bytes.
        assert_eq!(
            fr.trace(9)[1].to_der(),
            [
                &[0x30, 0x28, 0x02, 0x01, 0x01, 0x0c, 0x0c][..],
                b"njs.dispatch",
                &[0x0c, 0x15],
                b"node 7 -> T3E:express",
            ]
            .concat()
        );
    }

    #[test]
    fn flight_event_round_trips() {
        let e = FlightEvent {
            at: 123_456,
            what: "batch.exit".into(),
            detail: "exit code 3".into(),
        };
        assert_eq!(FlightEvent::from_der(&e.to_der()).unwrap(), e);
    }
}
