//! The batch system simulator: FCFS dispatch with EASY backfill.
//!
//! Tier 3 of the architecture. "Jobs delivered through UNICORE are treated
//! the same way any other batch job is treated on a system" (§5.5) — so the
//! simulator makes no distinction between UNICORE-submitted jobs and local
//! background load; both compete in the same queue under the same policy.
//!
//! The system is *clock-passive*: every method takes `now`, and a master
//! simulation (or test) advances it explicitly. This lets one experiment
//! drive many batch systems and a network from a single event loop.

use crate::job::{
    AccountingRecord, BatchJobId, BatchJobSpec, BatchStatus, CompletedJob, IdMap, QueueClass,
};
use std::collections::hash_map::Entry;
use unicore_resources::Architecture;
use unicore_sim::SimTime;
use unicore_telemetry::{Counter, Histogram, Telemetry};

/// Exit code used when the scheduler kills a job at its time limit.
pub(crate) const EXIT_TIME_LIMIT: i32 = 137;
/// Exit code used when a running job is cancelled.
pub(crate) const EXIT_CANCELLED: i32 = 130;
/// Exit code used when the machine crashes under a running job.
pub(crate) const EXIT_NODE_FAILURE: i32 = 139;

/// Submission-time rejections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// More processors requested than the machine has.
    TooManyProcessors {
        /// Requested.
        requested: u32,
        /// Machine size.
        available: u32,
    },
    /// The submit script is empty.
    EmptyScript,
    /// The job requests zero processors.
    ZeroProcessors,
    /// The job violates its queue class's limits (express jobs must be
    /// short and narrow).
    QueueLimit {
        /// The offending queue class.
        queue: QueueClass,
        /// What was violated.
        what: &'static str,
    },
    /// The submit script does not speak this machine's batch dialect
    /// (strict mode; catches NJS mistranslation).
    DialectMismatch,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::TooManyProcessors {
                requested,
                available,
            } => write!(
                f,
                "{requested} processors requested, machine has {available}"
            ),
            SubmitError::EmptyScript => write!(f, "empty submit script"),
            SubmitError::ZeroProcessors => write!(f, "zero processors requested"),
            SubmitError::QueueLimit { queue, what } => {
                write!(f, "job violates {} queue limit: {what}", queue.name())
            }
            SubmitError::DialectMismatch => {
                write!(
                    f,
                    "submit script does not match this machine's batch dialect"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

struct QueuedEntry {
    id: BatchJobId,
    spec: BatchJobSpec,
    submitted_at: SimTime,
    /// Arrival sequence (FIFO order within a queue class).
    seq: u64,
    held: bool,
}

struct RunningEntry {
    id: BatchJobId,
    processors: u32,
    started_at: SimTime,
    /// When the job will actually end (min(actual, limit), or cancel time).
    ends_at: SimTime,
    /// Scheduler guarantee horizon (start + limit) used for backfill.
    guaranteed_end: SimTime,
    timed_out: bool,
    submitted_at: SimTime,
    spec: BatchJobSpec,
    cancelled: bool,
    crashed: bool,
}

/// One Vsite's batch system.
pub struct BatchSystem {
    name: String,
    arch: Architecture,
    total_nodes: u32,
    free_nodes: u32,
    next_id: u64,
    queue: Vec<QueuedEntry>,
    running: Vec<RunningEntry>,
    statuses: IdMap<BatchJobId, BatchStatus>,
    /// Ids whose status changed since the last [`BatchSystem::drain_changes`],
    /// in change order (an id appears once per change).
    changed: Vec<BatchJobId>,
    accounting: Vec<AccountingRecord>,
    busy_node_ticks: u128,
    last_advance: SimTime,
    /// Machine offline (maintenance/crash) until this time.
    offline_until: SimTime,
    /// Reject scripts that do not match this machine's dialect.
    strict_dialect: bool,
    metrics: BatchMetrics,
}

/// Queue/run telemetry, fetched once from the registry.
#[derive(Default)]
struct BatchMetrics {
    submitted: Counter,
    completed: Counter,
    wait_us: Histogram,
    run_us: Histogram,
}

impl BatchSystem {
    /// A machine with `nodes` processor elements.
    pub fn new(name: impl Into<String>, arch: Architecture, nodes: u32) -> Self {
        assert!(nodes > 0, "machine must have nodes");
        BatchSystem {
            name: name.into(),
            arch,
            total_nodes: nodes,
            free_nodes: nodes,
            next_id: 1,
            queue: Vec::new(),
            running: Vec::new(),
            statuses: IdMap::default(),
            changed: Vec::new(),
            accounting: Vec::new(),
            busy_node_ticks: 0,
            last_advance: 0,
            offline_until: 0,
            strict_dialect: false,
            metrics: BatchMetrics::default(),
        }
    }

    /// Publishes this machine's queue/run metrics into `telemetry`'s
    /// registry (`batch.submitted`, `batch.completed`, `batch.wait.us`,
    /// `batch.run.us`).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = BatchMetrics {
            submitted: telemetry.counter("batch.submitted"),
            completed: telemetry.counter("batch.completed"),
            wait_us: telemetry.histogram("batch.wait.us"),
            run_us: telemetry.histogram("batch.run.us"),
        };
    }

    /// Enables strict dialect checking: submitted scripts must contain
    /// this machine's own batch directives and no foreign ones.
    pub fn set_strict_dialect(&mut self, strict: bool) {
        self.strict_dialect = strict;
    }

    /// Machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Machine architecture.
    pub fn architecture(&self) -> Architecture {
        self.arch
    }

    /// Total processor elements.
    pub fn total_nodes(&self) -> u32 {
        self.total_nodes
    }

    /// Currently idle processor elements.
    pub fn free_nodes(&self) -> u32 {
        self.free_nodes
    }

    /// Jobs waiting (including held).
    pub fn queue_length(&self) -> usize {
        self.queue.len()
    }

    /// Jobs executing.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Submits a job at `now`; it may start immediately.
    pub fn submit(&mut self, spec: BatchJobSpec, now: SimTime) -> Result<BatchJobId, SubmitError> {
        if spec.processors == 0 {
            return Err(SubmitError::ZeroProcessors);
        }
        if spec.processors > self.total_nodes {
            return Err(SubmitError::TooManyProcessors {
                requested: spec.processors,
                available: self.total_nodes,
            });
        }
        if spec.script.trim().is_empty() {
            return Err(SubmitError::EmptyScript);
        }
        if self.strict_dialect && !crate::script::script_matches_dialect(&spec.script, self.arch) {
            return Err(SubmitError::DialectMismatch);
        }
        // Express-queue policy: short (≤ 1 h) and narrow (≤ 1/4 machine).
        if spec.queue == QueueClass::Express {
            if spec.time_limit > unicore_sim::HOUR {
                return Err(SubmitError::QueueLimit {
                    queue: spec.queue,
                    what: "time limit above one hour",
                });
            }
            if spec.processors > (self.total_nodes / 4).max(1) {
                return Err(SubmitError::QueueLimit {
                    queue: spec.queue,
                    what: "more than a quarter of the machine",
                });
            }
        }
        self.advance_to(now);
        let id = BatchJobId(self.next_id);
        self.next_id += 1;
        self.set_status(id, BatchStatus::Queued);
        let seq = id.0;
        let entry = QueuedEntry {
            id,
            spec,
            submitted_at: now,
            seq,
            held: false,
        };
        // Keep the queue ordered by (class rank, arrival): priority
        // scheduling with FIFO fairness inside each class.
        let key = (entry.spec.queue.rank(), entry.seq);
        let pos = self
            .queue
            .partition_point(|q| (q.spec.queue.rank(), q.seq) <= key);
        self.queue.insert(pos, entry);
        self.metrics.submitted.inc();
        self.schedule(now);
        Ok(id)
    }

    /// The one writer of `statuses`: every transition (submit, start,
    /// completion, cancel, hold, release) also lands in the change log.
    fn set_status(&mut self, id: BatchJobId, status: BatchStatus) {
        self.statuses.insert(id, status);
        self.changed.push(id);
    }

    /// Drains the ids whose [`BatchStatus`] changed since the last call,
    /// in change order. A supervisor that polls only these ids sees every
    /// transition without scanning the jobs it holds.
    pub fn drain_changes(&mut self) -> std::vec::Drain<'_, BatchJobId> {
        self.changed.drain(..)
    }

    /// Current status of a job (`None` for unknown ids, and for finished
    /// jobs already handed over by [`BatchSystem::collect`]).
    pub fn status(&self, id: BatchJobId) -> Option<&BatchStatus> {
        self.statuses.get(&id)
    }

    /// One look at job `id` for the supervisor that owns it. A job that
    /// is over — completed or cancelled — is handed over: its status,
    /// with the captured output and the files it wrote, moves to the
    /// caller and the machine forgets the job (its accounting record
    /// stays). A job still queued, held or running stays where it is and
    /// is reported by value. `None` for ids this machine does not hold.
    pub fn collect(&mut self, id: BatchJobId) -> Option<BatchStatus> {
        match self.statuses.entry(id) {
            Entry::Occupied(held) => match held.get() {
                BatchStatus::Completed(_) | BatchStatus::Cancelled => Some(held.remove()),
                live => Some(live.clone()),
            },
            Entry::Vacant(_) => None,
        }
    }

    /// Time of the next job completion, if any job is running.
    pub(crate) fn next_completion_time(&self) -> Option<SimTime> {
        self.running.iter().map(|r| r.ends_at).min()
    }

    /// The next instant at which this machine's state can change: a job
    /// completion, or crash recovery while work is queued.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let completion = self.next_completion_time();
        let recovery = (self.offline_until > self.last_advance && !self.queue.is_empty())
            .then_some(self.offline_until);
        match (completion, recovery) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }

    /// Advances the simulation clock to `now`, completing jobs and
    /// dispatching from the queue as capacity frees up.
    pub fn advance_to(&mut self, now: SimTime) {
        loop {
            let next_end = match self.next_completion_time() {
                Some(t) if t <= now => t,
                _ => break,
            };
            self.accumulate_busy(next_end);
            // Complete every job ending exactly at next_end.
            let ending: Vec<usize> = self
                .running
                .iter()
                .enumerate()
                .filter(|(_, r)| r.ends_at == next_end)
                .map(|(i, _)| i)
                .collect();
            for idx in ending.into_iter().rev() {
                let entry = self.running.swap_remove(idx);
                self.finish(entry);
            }
            self.schedule(next_end);
        }
        self.accumulate_busy(now);
        if self.offline_until > 0 && now >= self.offline_until {
            self.schedule(now);
        }
    }

    fn accumulate_busy(&mut self, to: SimTime) {
        if to > self.last_advance {
            let busy = (self.total_nodes - self.free_nodes) as u128;
            self.busy_node_ticks += busy * (to - self.last_advance) as u128;
            self.last_advance = to;
        }
    }

    fn finish(&mut self, mut entry: RunningEntry) {
        self.free_nodes += entry.processors;
        let (exit_code, stdout, stderr, outputs) = if entry.crashed {
            (
                EXIT_NODE_FAILURE,
                Vec::new(),
                b"node failure".to_vec(),
                Vec::new(),
            )
        } else if entry.cancelled {
            (
                EXIT_CANCELLED,
                Vec::new(),
                b"cancelled".to_vec(),
                Vec::new(),
            )
        } else if entry.timed_out {
            (
                EXIT_TIME_LIMIT,
                Vec::new(),
                b"job killed: wall clock limit exceeded".to_vec(),
                Vec::new(),
            )
        } else {
            // The job is over: what it wrote moves into its result.
            let work = &mut entry.spec.work;
            (
                work.exit_code,
                std::mem::take(&mut work.stdout),
                std::mem::take(&mut work.stderr),
                std::mem::take(&mut work.output_files),
            )
        };
        let completed = CompletedJob {
            exit_code,
            timed_out: entry.timed_out,
            stdout,
            stderr,
            output_files: outputs,
            started_at: entry.started_at,
            ended_at: entry.ends_at,
        };
        self.metrics.completed.inc();
        self.metrics
            .wait_us
            .record(entry.started_at.saturating_sub(entry.submitted_at));
        self.metrics
            .run_us
            .record(entry.ends_at.saturating_sub(entry.started_at));
        self.accounting.push(AccountingRecord {
            job: entry.id,
            owner: entry.spec.owner,
            queue: entry.spec.queue,
            processors: entry.processors,
            submitted_at: entry.submitted_at,
            started_at: entry.started_at,
            ended_at: entry.ends_at,
            exit_code,
        });
        self.set_status(entry.id, BatchStatus::Completed(completed));
    }

    fn start(&mut self, entry: QueuedEntry, now: SimTime) {
        let actual = entry.spec.work.actual_runtime;
        let limit = entry.spec.time_limit;
        let timed_out = actual > limit;
        let runtime = actual.min(limit);
        self.free_nodes -= entry.spec.processors;
        self.set_status(entry.id, BatchStatus::Running { since: now });
        self.running.push(RunningEntry {
            id: entry.id,
            processors: entry.spec.processors,
            started_at: now,
            ends_at: now + runtime,
            guaranteed_end: now + limit,
            timed_out,
            submitted_at: entry.submitted_at,
            spec: entry.spec,
            cancelled: false,
            crashed: false,
        });
    }

    /// FCFS + EASY backfill dispatch at time `now`.
    fn schedule(&mut self, now: SimTime) {
        if now < self.offline_until {
            return;
        }
        // Phase 1: start jobs from the head while they fit.
        loop {
            let Some(head_pos) = self.queue.iter().position(|q| !q.held) else {
                return;
            };
            if self.queue[head_pos].spec.processors <= self.free_nodes {
                let entry = self.queue.remove(head_pos);
                self.start(entry, now);
            } else {
                break;
            }
        }

        // Phase 2: EASY backfill around the blocked head.
        let head_pos = self
            .queue
            .iter()
            .position(|q| !q.held)
            .expect("phase 2 only with a blocked head");
        let head_procs = self.queue[head_pos].spec.processors;

        // Shadow time: when enough nodes free up for the head, assuming
        // running jobs hold nodes until their guaranteed end.
        let mut ends: Vec<(SimTime, u32)> = self
            .running
            .iter()
            .map(|r| (r.guaranteed_end, r.processors))
            .collect();
        ends.sort_unstable();
        let mut avail = self.free_nodes;
        let mut shadow_time = SimTime::MAX;
        let mut extra = 0u32;
        for (t, procs) in ends {
            avail += procs;
            if avail >= head_procs {
                shadow_time = t;
                extra = avail - head_procs;
                break;
            }
        }

        // Scan behind the head for backfill candidates.
        let mut i = head_pos + 1;
        while i < self.queue.len() {
            let q = &self.queue[i];
            if q.held || q.spec.processors > self.free_nodes {
                i += 1;
                continue;
            }
            let fits_before_shadow = now.saturating_add(q.spec.time_limit) <= shadow_time;
            let fits_beside_head = q.spec.processors <= extra;
            if fits_before_shadow || fits_beside_head {
                if !fits_before_shadow {
                    extra -= q.spec.processors;
                }
                let entry = self.queue.remove(i);
                self.start(entry, now);
                // A start may have freed… no: starts consume nodes. Head
                // still blocked; continue scanning at the same index.
            } else {
                i += 1;
            }
        }
    }

    /// Cancels a job at `now`. Queued jobs leave the queue; running jobs
    /// are killed immediately.
    pub fn cancel(&mut self, id: BatchJobId, now: SimTime) -> bool {
        self.advance_to(now);
        if let Some(pos) = self.queue.iter().position(|q| q.id == id) {
            self.queue.remove(pos);
            self.set_status(id, BatchStatus::Cancelled);
            self.schedule(now);
            return true;
        }
        if let Some(r) = self.running.iter_mut().find(|r| r.id == id) {
            r.cancelled = true;
            r.timed_out = false;
            r.ends_at = now;
            // Completion is processed on the next advance; do it now.
            self.advance_to(now);
            return true;
        }
        false
    }

    /// Crashes the machine at `now`: every running job dies with exit
    /// code 139 (node failure), queued jobs survive, and nothing dispatches
    /// until `now + downtime`. Returns the number of jobs killed.
    pub fn crash(&mut self, now: SimTime, downtime: SimTime) -> usize {
        self.advance_to(now);
        let killed = self.running.len();
        for r in &mut self.running {
            r.crashed = true;
            r.timed_out = false;
            r.ends_at = now;
        }
        self.offline_until = now.saturating_add(downtime);
        // Process the deaths immediately; dispatch stays blocked by
        // offline_until inside schedule().
        self.advance_to(now);
        killed
    }

    /// Holds a queued job (no-op for running/finished jobs).
    pub fn hold(&mut self, id: BatchJobId) -> bool {
        if let Some(q) = self.queue.iter_mut().find(|q| q.id == id) {
            q.held = true;
            self.set_status(id, BatchStatus::Held);
            true
        } else {
            false
        }
    }

    /// Releases a held job at `now`.
    pub fn release(&mut self, id: BatchJobId, now: SimTime) -> bool {
        if let Some(q) = self.queue.iter_mut().find(|q| q.id == id && q.held) {
            q.held = false;
            self.set_status(id, BatchStatus::Queued);
            self.schedule(now);
            true
        } else {
            false
        }
    }

    /// Runs the system until every submitted job has finished; returns the
    /// time of the last completion.
    pub fn run_to_completion(&mut self) -> SimTime {
        while let Some(t) = self.next_completion_time() {
            self.advance_to(t);
        }
        self.last_advance
    }

    /// Accounting records so far.
    pub fn accounting(&self) -> &[AccountingRecord] {
        &self.accounting
    }

    /// The accounting record for one job, if it has finished.
    ///
    /// Scans from the rear: callers typically ask about a job that just
    /// completed, which sits at or near the end of the log.
    pub fn accounting_for(&self, id: BatchJobId) -> Option<&AccountingRecord> {
        self.accounting.iter().rev().find(|r| r.job == id)
    }

    /// Machine utilisation over `[0, now]`: busy node-ticks / total.
    ///
    /// Counts the not-yet-accumulated span since the last `advance_to`
    /// at the current occupancy, so a next-event-driven caller (which
    /// only advances this machine when something completes) reads the
    /// same value as one that advances every tick.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == 0 {
            return 0.0;
        }
        let mut ticks = self.busy_node_ticks;
        if now > self.last_advance {
            let busy = (self.total_nodes - self.free_nodes) as u128;
            ticks += busy * (now - self.last_advance) as u128;
        }
        ticks as f64 / (self.total_nodes as u128 * now as u128) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::WorkModel;
    use unicore_sim::SEC;

    fn spec(name: &str, procs: u32, limit: SimTime, actual: SimTime) -> BatchJobSpec {
        BatchJobSpec {
            name: name.into(),
            owner: "alice".into(),
            script: "#!/bin/sh\n./a.out\n".into(),
            processors: procs,
            time_limit: limit,
            memory_mb: 64,
            queue: crate::job::QueueClass::Batch,
            work: WorkModel::succeed_after(actual),
        }
    }

    fn machine(nodes: u32) -> BatchSystem {
        BatchSystem::new("t3e", Architecture::CrayT3e, nodes)
    }

    #[test]
    fn collect_hands_over_finished_jobs_only() {
        let mut m = machine(4);
        let mut producing = spec("out", 4, 10 * SEC, 5 * SEC);
        producing.work.stdout = b"done\n".to_vec();
        producing.work.output_files = vec![("out.dat".into(), vec![7; 32].into())];
        let running = m.submit(producing, 0).unwrap();
        let queued = m.submit(spec("wait", 4, 10 * SEC, 5 * SEC), 0).unwrap();
        // Live jobs are reported and stay.
        assert_eq!(m.collect(running), Some(BatchStatus::Running { since: 0 }));
        assert_eq!(m.collect(queued), Some(BatchStatus::Queued));
        assert_eq!(m.status(queued), Some(&BatchStatus::Queued));
        assert_eq!(m.collect(BatchJobId(99)), None);
        // A finished job moves out, output and all, exactly once.
        m.advance_to(5 * SEC);
        let Some(BatchStatus::Completed(c)) = m.collect(running) else {
            panic!("not completed");
        };
        assert_eq!(c.stdout, b"done\n");
        assert_eq!(c.output_files, [("out.dat".to_owned(), vec![7; 32].into())]);
        assert_eq!(m.status(running), None);
        assert_eq!(m.collect(running), None);
        assert_eq!(m.accounting_for(running).unwrap().ended_at, 5 * SEC);
        // So does one cancelled in the queue.
        let third = m
            .submit(spec("never", 4, 10 * SEC, 5 * SEC), 5 * SEC)
            .unwrap();
        assert!(m.cancel(third, 6 * SEC));
        assert_eq!(m.collect(third), Some(BatchStatus::Cancelled));
        assert_eq!(m.status(third), None);
    }

    #[test]
    fn immediate_start_when_free() {
        let mut m = machine(8);
        let id = m.submit(spec("j", 4, 10 * SEC, 5 * SEC), 0).unwrap();
        assert!(matches!(
            m.status(id),
            Some(BatchStatus::Running { since: 0 })
        ));
        assert_eq!(m.free_nodes(), 4);
        m.advance_to(5 * SEC);
        let BatchStatus::Completed(c) = m.status(id).unwrap() else {
            panic!("not completed");
        };
        assert!(c.is_success());
        assert_eq!(c.ended_at, 5 * SEC);
        assert_eq!(m.free_nodes(), 8);
    }

    #[test]
    fn fcfs_ordering() {
        let mut m = machine(4);
        let a = m.submit(spec("a", 4, 10 * SEC, 10 * SEC), 0).unwrap();
        let b = m.submit(spec("b", 4, 10 * SEC, 10 * SEC), 0).unwrap();
        assert!(matches!(m.status(a), Some(BatchStatus::Running { .. })));
        assert!(matches!(m.status(b), Some(BatchStatus::Queued)));
        m.advance_to(10 * SEC);
        assert!(matches!(m.status(b), Some(BatchStatus::Running { since }) if *since == 10 * SEC));
    }

    #[test]
    fn backfill_small_short_job() {
        let mut m = machine(8);
        // Long job takes 6 nodes for 100 s.
        m.submit(spec("big", 6, 100 * SEC, 100 * SEC), 0).unwrap();
        // Head of queue needs all 8 → blocked until 100 s.
        let head = m.submit(spec("head", 8, 10 * SEC, 10 * SEC), 0).unwrap();
        // Small short job (2 nodes, ends before shadow) backfills now.
        let small = m.submit(spec("small", 2, 50 * SEC, 50 * SEC), 0).unwrap();
        assert!(matches!(m.status(head), Some(BatchStatus::Queued)));
        assert!(matches!(m.status(small), Some(BatchStatus::Running { .. })));
    }

    #[test]
    fn backfill_does_not_delay_head() {
        let mut m = machine(8);
        m.submit(spec("big", 6, 100 * SEC, 100 * SEC), 0).unwrap();
        let head = m.submit(spec("head", 8, 10 * SEC, 10 * SEC), 0).unwrap();
        // 2-node job with a 200 s limit would push the head past its
        // 100 s shadow → must NOT backfill (and doesn't fit beside the
        // head, which needs all 8 nodes).
        let long_small = m.submit(spec("ls", 2, 200 * SEC, 200 * SEC), 0).unwrap();
        assert!(matches!(m.status(long_small), Some(BatchStatus::Queued)));
        // Head starts exactly at the shadow time.
        m.advance_to(100 * SEC);
        assert!(
            matches!(m.status(head), Some(BatchStatus::Running { since }) if *since == 100 * SEC)
        );
    }

    #[test]
    fn backfill_beside_head() {
        let mut m = machine(8);
        m.submit(spec("big", 4, 100 * SEC, 100 * SEC), 0).unwrap();
        // Head needs 6: blocked (only 4 free). Shadow = 100 s, extra = 8-6 = 2.
        let head = m.submit(spec("head", 6, 10 * SEC, 10 * SEC), 0).unwrap();
        // A 2-node job with a long limit fits beside the head forever.
        let beside = m
            .submit(spec("beside", 2, 500 * SEC, 500 * SEC), 0)
            .unwrap();
        assert!(matches!(
            m.status(beside),
            Some(BatchStatus::Running { .. })
        ));
        m.advance_to(100 * SEC);
        assert!(
            matches!(m.status(head), Some(BatchStatus::Running { since }) if *since == 100 * SEC)
        );
    }

    #[test]
    fn time_limit_kills_job() {
        let mut m = machine(2);
        let id = m.submit(spec("over", 1, 5 * SEC, 60 * SEC), 0).unwrap();
        m.advance_to(5 * SEC);
        let BatchStatus::Completed(c) = m.status(id).unwrap() else {
            panic!()
        };
        assert!(c.timed_out);
        assert_eq!(c.exit_code, EXIT_TIME_LIMIT);
        assert!(!c.is_success());
        assert!(c.output_files.is_empty());
    }

    #[test]
    fn failing_job_reports_exit_code() {
        let mut m = machine(2);
        let mut s = spec("bad", 1, 10 * SEC, 2 * SEC);
        s.work = WorkModel::fail_after(2 * SEC, 3, "floating point exception");
        let id = m.submit(s, 0).unwrap();
        m.advance_to(10 * SEC);
        let BatchStatus::Completed(c) = m.status(id).unwrap() else {
            panic!()
        };
        assert_eq!(c.exit_code, 3);
        assert_eq!(c.stderr, b"floating point exception");
    }

    #[test]
    fn submit_validation() {
        let mut m = machine(4);
        assert!(matches!(
            m.submit(spec("z", 0, SEC, SEC), 0),
            Err(SubmitError::ZeroProcessors)
        ));
        assert!(matches!(
            m.submit(spec("big", 5, SEC, SEC), 0),
            Err(SubmitError::TooManyProcessors { .. })
        ));
        let mut empty = spec("e", 1, SEC, SEC);
        empty.script = "  \n".into();
        assert!(matches!(m.submit(empty, 0), Err(SubmitError::EmptyScript)));
    }

    #[test]
    fn cancel_queued_job() {
        let mut m = machine(2);
        m.submit(spec("a", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        let b = m.submit(spec("b", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        assert!(m.cancel(b, SEC));
        assert!(matches!(m.status(b), Some(BatchStatus::Cancelled)));
        m.advance_to(30 * SEC);
        // Never ran.
        assert!(matches!(m.status(b), Some(BatchStatus::Cancelled)));
    }

    #[test]
    fn cancel_running_job_frees_nodes() {
        let mut m = machine(2);
        let a = m.submit(spec("a", 2, 100 * SEC, 100 * SEC), 0).unwrap();
        assert!(m.cancel(a, 10 * SEC));
        let BatchStatus::Completed(c) = m.status(a).unwrap() else {
            panic!()
        };
        assert_eq!(c.exit_code, EXIT_CANCELLED);
        assert_eq!(c.ended_at, 10 * SEC);
        assert_eq!(m.free_nodes(), 2);
    }

    #[test]
    fn hold_and_release() {
        let mut m = machine(2);
        let a = m.submit(spec("a", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        let b = m.submit(spec("b", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        assert!(m.hold(b));
        m.advance_to(10 * SEC); // a finishes
                                // b is held: not started.
        assert!(matches!(m.status(b), Some(BatchStatus::Held)));
        assert!(m.release(b, 12 * SEC));
        assert!(matches!(m.status(b), Some(BatchStatus::Running { .. })));
        let _ = a;
    }

    #[test]
    fn held_head_does_not_block_queue() {
        let mut m = machine(2);
        let a = m.submit(spec("a", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        let b = m.submit(spec("b", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        let c = m.submit(spec("c", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        m.hold(b);
        m.advance_to(10 * SEC);
        // c starts even though b (ahead of it) is held.
        assert!(matches!(m.status(c), Some(BatchStatus::Running { .. })));
        let _ = a;
    }

    #[test]
    fn run_to_completion_drains_everything() {
        let mut m = machine(4);
        let mut ids = Vec::new();
        for i in 0..20 {
            ids.push(
                m.submit(
                    spec(
                        &format!("j{i}"),
                        1 + (i % 4),
                        20 * SEC,
                        (1 + i as u64) * SEC,
                    ),
                    0,
                )
                .unwrap(),
            );
        }
        let end = m.run_to_completion();
        assert!(end > 0);
        for id in ids {
            assert!(matches!(m.status(id), Some(BatchStatus::Completed(_))));
        }
        assert_eq!(m.accounting().len(), 20);
        assert_eq!(m.free_nodes(), 4);
    }

    #[test]
    fn utilization_accounting() {
        let mut m = machine(4);
        // 2 nodes busy for 10 s of a 20 s window = 25%.
        m.submit(spec("half", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        m.advance_to(20 * SEC);
        let u = m.utilization(20 * SEC);
        assert!((u - 0.25).abs() < 1e-9, "{u}");
    }

    #[test]
    fn accounting_wait_times() {
        let mut m = machine(2);
        m.submit(spec("a", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        m.submit(spec("b", 2, 10 * SEC, 10 * SEC), 0).unwrap();
        m.run_to_completion();
        let acc = m.accounting();
        assert_eq!(acc[0].wait_time(), 0);
        assert_eq!(acc[1].wait_time(), 10 * SEC);
    }
}

#[cfg(test)]
mod queue_priority_tests {
    use super::*;
    use crate::job::{QueueClass, WorkModel};
    use unicore_resources::Architecture;
    use unicore_sim::{MINUTE, SEC};

    fn spec_q(name: &str, procs: u32, limit: SimTime, queue: QueueClass) -> BatchJobSpec {
        BatchJobSpec {
            name: name.into(),
            owner: "u".into(),
            script: "#$ -pe mpi 1\nrun\n".into(),
            processors: procs,
            time_limit: limit,
            memory_mb: 1,
            queue,
            work: WorkModel::succeed_after(limit / 2),
        }
    }

    #[test]
    fn express_jumps_the_queue() {
        let mut m = BatchSystem::new("m", Architecture::Generic, 4);
        // Occupy the machine, then queue a batch job, then an express one.
        m.submit(spec_q("running", 4, 10 * MINUTE, QueueClass::Batch), 0)
            .unwrap();
        let batch = m
            .submit(
                spec_q("waiting-batch", 4, 10 * MINUTE, QueueClass::Batch),
                SEC,
            )
            .unwrap();
        let express = m
            .submit(
                spec_q("urgent", 1, 5 * MINUTE, QueueClass::Express),
                2 * SEC,
            )
            .unwrap();
        m.run_to_completion();
        let (BatchStatus::Completed(b), BatchStatus::Completed(e)) =
            (m.status(batch).unwrap(), m.status(express).unwrap())
        else {
            panic!()
        };
        // The express job started before the earlier-submitted batch job.
        assert!(e.started_at < b.started_at);
    }

    #[test]
    fn long_yields_to_batch() {
        let mut m = BatchSystem::new("m", Architecture::Generic, 4);
        m.submit(spec_q("running", 4, 10 * MINUTE, QueueClass::Batch), 0)
            .unwrap();
        let long = m
            .submit(spec_q("long", 4, 10 * MINUTE, QueueClass::Long), SEC)
            .unwrap();
        let batch = m
            .submit(spec_q("batch", 4, 10 * MINUTE, QueueClass::Batch), 2 * SEC)
            .unwrap();
        m.run_to_completion();
        let (BatchStatus::Completed(l), BatchStatus::Completed(b)) =
            (m.status(long).unwrap(), m.status(batch).unwrap())
        else {
            panic!()
        };
        assert!(b.started_at < l.started_at);
    }

    #[test]
    fn fifo_within_class() {
        let mut m = BatchSystem::new("m", Architecture::Generic, 2);
        m.submit(spec_q("running", 2, 10 * MINUTE, QueueClass::Batch), 0)
            .unwrap();
        let first = m
            .submit(spec_q("b1", 2, 10 * MINUTE, QueueClass::Batch), SEC)
            .unwrap();
        let second = m
            .submit(spec_q("b2", 2, 10 * MINUTE, QueueClass::Batch), 2 * SEC)
            .unwrap();
        m.run_to_completion();
        let (BatchStatus::Completed(a), BatchStatus::Completed(b)) =
            (m.status(first).unwrap(), m.status(second).unwrap())
        else {
            panic!()
        };
        assert!(a.started_at < b.started_at);
    }

    #[test]
    fn express_limits_enforced() {
        let mut m = BatchSystem::new("m", Architecture::Generic, 16);
        // Too long for express.
        assert!(matches!(
            m.submit(spec_q("slow", 1, 2 * 60 * MINUTE, QueueClass::Express), 0),
            Err(SubmitError::QueueLimit { .. })
        ));
        // Too wide for express (> 16/4 = 4).
        assert!(matches!(
            m.submit(spec_q("wide", 5, 5 * MINUTE, QueueClass::Express), 0),
            Err(SubmitError::QueueLimit { .. })
        ));
        // Within both limits.
        m.submit(spec_q("ok", 4, 5 * MINUTE, QueueClass::Express), 0)
            .unwrap();
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use crate::job::{QueueClass, WorkModel};
    use unicore_resources::Architecture;
    use unicore_sim::{MINUTE, SEC};

    fn spec(name: &str, procs: u32, runtime: SimTime) -> BatchJobSpec {
        BatchJobSpec {
            name: name.into(),
            owner: "u".into(),
            script: "#$ -pe mpi 1\nrun\n".into(),
            processors: procs,
            time_limit: runtime * 2,
            memory_mb: 1,
            queue: QueueClass::Batch,
            work: WorkModel::succeed_after(runtime),
        }
    }

    #[test]
    fn crash_kills_running_preserves_queued() {
        let mut m = BatchSystem::new("m", Architecture::Generic, 4);
        let running = m.submit(spec("running", 4, 10 * MINUTE), 0).unwrap();
        let queued = m.submit(spec("queued", 4, 5 * MINUTE), 0).unwrap();

        let killed = m.crash(MINUTE, 10 * MINUTE);
        assert_eq!(killed, 1);
        let BatchStatus::Completed(c) = m.status(running).unwrap() else {
            panic!()
        };
        assert_eq!(c.exit_code, EXIT_NODE_FAILURE);
        assert_eq!(c.ended_at, MINUTE);
        // The queued job is still queued during the outage...
        assert!(matches!(m.status(queued), Some(BatchStatus::Queued)));
        m.advance_to(5 * MINUTE);
        assert!(matches!(m.status(queued), Some(BatchStatus::Queued)));
        // ...and dispatches at recovery.
        m.advance_to(11 * MINUTE);
        assert!(
            matches!(m.status(queued), Some(BatchStatus::Running { since }) if *since == 11 * MINUTE)
        );
        m.run_to_completion();
        let BatchStatus::Completed(c) = m.status(queued).unwrap() else {
            panic!()
        };
        assert!(c.is_success());
    }

    #[test]
    fn next_event_time_includes_recovery() {
        let mut m = BatchSystem::new("m", Architecture::Generic, 2);
        m.submit(spec("j", 2, 10 * MINUTE), 0).unwrap();
        let q = m.submit(spec("waiting", 2, 10 * MINUTE), 0).unwrap();
        m.crash(SEC, 2 * MINUTE);
        // Nothing running; the next event is the recovery instant.
        assert_eq!(m.next_event_time(), Some(SEC + 2 * MINUTE));
        m.advance_to(SEC + 2 * MINUTE);
        assert!(matches!(m.status(q), Some(BatchStatus::Running { .. })));
    }

    #[test]
    fn submissions_during_outage_wait() {
        let mut m = BatchSystem::new("m", Architecture::Generic, 2);
        m.crash(0, 5 * MINUTE);
        let id = m.submit(spec("early", 1, MINUTE), MINUTE).unwrap();
        assert!(matches!(m.status(id), Some(BatchStatus::Queued)));
        m.advance_to(5 * MINUTE);
        assert!(matches!(m.status(id), Some(BatchStatus::Running { .. })));
    }

    #[test]
    fn crash_with_nothing_running() {
        let mut m = BatchSystem::new("m", Architecture::Generic, 2);
        assert_eq!(m.crash(MINUTE, MINUTE), 0);
        assert_eq!(m.offline_until, 2 * MINUTE);
        // Fully recovers.
        let id = m.submit(spec("after", 1, MINUTE), 3 * MINUTE).unwrap();
        m.run_to_completion();
        assert!(matches!(m.status(id), Some(BatchStatus::Completed(_))));
    }
}

#[cfg(test)]
mod dialect_tests {
    use super::*;
    use crate::job::{QueueClass, WorkModel};
    use crate::script::processors_directive;
    use unicore_resources::Architecture;
    use unicore_sim::MINUTE;

    fn spec_with(script: String) -> BatchJobSpec {
        BatchJobSpec {
            name: "d".into(),
            owner: "u".into(),
            script,
            processors: 1,
            time_limit: 10 * MINUTE,
            memory_mb: 1,
            queue: QueueClass::Batch,
            work: WorkModel::succeed_after(MINUTE),
        }
    }

    #[test]
    fn strict_mode_rejects_foreign_dialect() {
        let mut m = BatchSystem::new("t3e", Architecture::CrayT3e, 8);
        m.set_strict_dialect(true);
        // LoadLeveler directives on an NQE machine.
        let foreign = format!("{}\nrun\n", processors_directive(Architecture::IbmSp2, 1));
        assert!(matches!(
            m.submit(spec_with(foreign), 0),
            Err(SubmitError::DialectMismatch)
        ));
        // Its own dialect passes.
        let native = format!("{}\nrun\n", processors_directive(Architecture::CrayT3e, 1));
        m.submit(spec_with(native), 0).unwrap();
    }

    #[test]
    fn lax_mode_accepts_anything_nonempty() {
        let mut m = BatchSystem::new("t3e", Architecture::CrayT3e, 8);
        m.submit(spec_with("whatever\n".into()), 0).unwrap();
    }
}
