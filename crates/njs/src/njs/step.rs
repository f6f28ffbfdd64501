//! The job sets and the step loop: `step`, `step_job`, the batch change
//! drain, batch polling, node dispatch.

use super::cross::CrossVsiteItem;
use super::files::FileTaskResult;
use super::{NodeState, OutgoingItem, ShardedNjs};
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ActionStatus, DataLocation, FileKind, GraphNode, JobId, OutcomeNode, TaskKind,
    TaskOutcome,
};
use unicore_batch::{BatchJobId, BatchJobSpec, BatchStatus};
use unicore_sim::SimTime;

/// A set of jobs, one bit per job slot: the wake set (the jobs that may
/// have work) and the live jobs. Ids are allocated upwards from `base`,
/// so job `id` is slot `id − base`, and the set iterates in ascending id
/// order, which is consign order. The words cover only the span from the
/// lowest to the highest set bit — a removal trims empty words at either
/// end — so the set's memory follows the jobs it holds, not the id
/// counter.
pub(super) struct JobSet {
    base: u64,
    /// Bit `b` of `words[k]` is slot `64 · (first_word + k) + b`. The
    /// first and the last word are never zero.
    words: VecDeque<u64>,
    first_word: u64,
}

impl JobSet {
    pub(super) fn new(base: u64) -> Self {
        JobSet {
            base,
            words: VecDeque::new(),
            first_word: 0,
        }
    }

    fn slot(&self, id: JobId) -> u64 {
        debug_assert!(id.0 >= self.base, "job {id} is below the first id");
        id.0 - self.base
    }

    fn job(&self, slot: u64) -> JobId {
        JobId(self.base + slot)
    }

    pub(super) fn insert(&mut self, id: JobId) {
        let slot = self.slot(id);
        let word = slot / 64;
        if self.words.is_empty() {
            self.first_word = word;
        }
        while word < self.first_word {
            self.words.push_front(0);
            self.first_word -= 1;
        }
        let k = (word - self.first_word) as usize;
        if k >= self.words.len() {
            self.words.resize(k + 1, 0);
        }
        self.words[k] |= 1 << (slot % 64);
    }

    pub(super) fn remove(&mut self, id: JobId) {
        let slot = self.slot(id);
        let Some(k) = (slot / 64).checked_sub(self.first_word) else {
            return;
        };
        let Some(word) = self.words.get_mut(k as usize) else {
            return;
        };
        *word &= !(1 << (slot % 64));
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.first_word += 1;
        }
        while self.words.back() == Some(&0) {
            self.words.pop_back();
        }
    }

    pub(super) fn clear(&mut self) {
        self.words.clear();
    }

    /// The lowest job in the set.
    pub(super) fn first(&self) -> Option<JobId> {
        let word = *self.words.front()?;
        Some(self.job(64 * self.first_word + u64::from(word.trailing_zeros())))
    }

    /// The lowest job in the set above `cursor` and below `end`.
    pub(super) fn next_after(&self, cursor: JobId, end: JobId) -> Option<JobId> {
        let from = (self.slot(cursor) + 1).max(64 * self.first_word);
        let mut k = (from / 64 - self.first_word) as usize;
        let mut word = *self.words.get(k)? & (u64::MAX << (from % 64));
        while word == 0 {
            k += 1;
            word = *self.words.get(k)?;
        }
        let slot = 64 * (self.first_word + k as u64) + u64::from(word.trailing_zeros());
        Some(self.job(slot)).filter(|&id| id < end)
    }

    /// Every job in the set, in ascending id order.
    pub(super) fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.words
            .iter()
            .zip(self.first_word..)
            .flat_map(move |(&word, k)| {
                (0..64)
                    .filter(move |b| word >> b & 1 == 1)
                    .map(move |b| self.job(64 * k + b))
            })
    }
}

impl ShardedNjs {
    /// After this NJS changed Vsite `idx`'s batch state (submit, cancel):
    /// marks its next-event heap entry stale and drains the status
    /// changes that followed.
    pub(super) fn batch_touched(&mut self, idx: usize) {
        self.mark_batch_dirty(idx);
        self.drain_batch_changes(idx);
    }

    /// Marks Vsite `idx` for re-keying in the next-event heap at the next
    /// round; a Vsite is held once however often it is marked.
    pub(super) fn mark_batch_dirty(&mut self, idx: usize) {
        if !std::mem::replace(&mut self.batch_is_dirty[idx], true) {
            self.batch_dirty.push(idx);
        }
    }

    /// Earliest future event (batch completion or crash recovery) across
    /// this NJS's Vsites.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.vsites
            .list
            .iter()
            .filter_map(|v| v.batch.next_event_time())
            .min()
    }

    /// Re-keys dirty Vsites in the next-event heap, then advances every
    /// Vsite whose next batch event is due at `now`. Idle Vsites (no
    /// queued or running work, no pending recovery) have no heap entry
    /// and cost nothing — the point of the heap at 100-site scale.
    fn advance_batches(&mut self, now: SimTime) {
        // Re-key Vsites whose batch state changed since the last step.
        while let Some(idx) = self.batch_dirty.pop() {
            self.batch_is_dirty[idx] = false;
            // Whatever dirtied it (an external `vsite_mut` caller, say)
            // may have changed statuses too.
            self.drain_batch_changes(idx);
            let batch = &self.vsites[idx].batch;
            self.batch_gen[idx] += 1;
            if let Some(t) = batch.next_event_time() {
                self.batch_heap.push(Reverse((t, idx, self.batch_gen[idx])));
            }
        }
        // Pop due events; each advance can schedule the next one.
        while let Some(&Reverse((t, idx, gen))) = self.batch_heap.peek() {
            if t > now {
                break;
            }
            self.batch_heap.pop();
            if gen != self.batch_gen[idx] {
                continue; // stale entry, superseded by a re-key
            }
            let batch = &mut self.vsites[idx].batch;
            batch.advance_to(now);
            self.batch_gen[idx] += 1;
            if let Some(next) = batch.next_event_time() {
                self.batch_heap
                    .push(Reverse((next, idx, self.batch_gen[idx])));
            }
            self.drain_batch_changes(idx);
        }
    }

    /// Drains Vsite `idx`'s batch change log, each change mapped back to
    /// its task through the owner index. Called after anything that can
    /// move the batch tier — `advance_to`, `submit`, `cancel`, or an
    /// external mutation through `vsite_mut`.
    ///
    /// A batch job still queued, held or running changes only its task's
    /// status, written here, and wakes nobody: a visit would find nothing
    /// to do. (Queued and running both read as active, so the job's own
    /// status cannot move.) A batch job that is over wakes its job, whose
    /// visit collects it. With the flight recorder on, a start wakes its
    /// job too and is left to the visit, which writes its `batch.running`
    /// record in position order among the job's other batch events.
    fn drain_batch_changes(&mut self, idx: usize) {
        let traced = self.flight.is_enabled();
        let v = &mut self.vsites.list[idx];
        for (batch_id, status) in v.batch.drain_changes() {
            let Some(&(job, pos)) = v.batch_owner.get(&batch_id) else {
                continue;
            };
            let status = match status {
                Some(BatchStatus::Queued | BatchStatus::Held) => ActionStatus::Queued,
                Some(BatchStatus::Running { .. }) if !traced => ActionStatus::Running,
                _ => {
                    self.wake.insert(job);
                    continue;
                }
            };
            if let Some(t) = self
                .jobs
                .get_mut(&job)
                .and_then(|rt| rt.task_outcome_mut(pos))
            {
                t.status = status;
            }
        }
    }

    /// The one writer of node state outside `step_job`'s own dispatch:
    /// records the transition of the node at `pos` and wakes the job, so
    /// a call site cannot forget to. A node turning terminal leaves the
    /// job's open count and its successors' counts of unmet
    /// predecessors. The job a visit is on is not woken: what the visit
    /// leaves decides whether it gets another (`wants_visit`).
    pub(super) fn set_state(&mut self, job: JobId, pos: usize, state: NodeState) {
        let Some(rt) = self.jobs.get_mut(&job) else {
            return;
        };
        let rt = &mut **rt;
        let was = std::mem::replace(&mut rt.states[pos], state);
        if state == NodeState::Terminal && was != NodeState::Terminal {
            rt.open -= 1;
            for &next in rt.preds.successor_positions(pos) {
                if let NodeState::Waiting { unmet } = &mut rt.states[next] {
                    *unmet -= 1;
                }
            }
        }
        if self.visiting != Some(job) {
            self.wake.insert(job);
        }
    }

    /// The one way a node becomes terminal, live or replayed: records
    /// `outcome` at `pos`, folds it into the job's status (clients polling
    /// before the next step see it), wakes the job and journals the node
    /// with the files it just `deposited` into the Uspace.
    pub(super) fn terminate_node(
        &mut self,
        job: JobId,
        pos: usize,
        outcome: OutcomeNode,
        deposited: &[String],
    ) {
        let Some(rt) = self.jobs.get_mut(&job) else {
            return;
        };
        *rt.node_outcome_mut(pos) = outcome;
        rt.outcome.aggregate_status();
        self.set_state(job, pos, NodeState::Terminal);
        self.log_terminal(job, pos, deposited);
    }

    /// The one way a job finishes, live or replayed: marks `job` done at
    /// `now`, announces it to the layers above and journals its outcome.
    pub(super) fn mark_done(&mut self, job: JobId, now: SimTime) {
        let rt = self.jobs.get_mut(&job).expect("job exists");
        rt.done = true;
        rt.finished_at = Some(now);
        self.finished.push(job);
        self.log_job_done(job);
    }

    /// Jobs visited by the step loop so far. An idle step — empty wake
    /// set, no batch event due — adds nothing.
    pub fn job_visits(&self) -> u64 {
        self.job_visits
    }

    /// Jobs that finished — by stepping, abort, or journal replay — since
    /// the last call. The server reports finished foreign jobs from this
    /// list instead of scanning every job it is owed: it names each one
    /// once per process life, and once more after a replay.
    pub fn take_newly_done(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.newly_done)
    }

    /// Drives all jobs forward to `now`. Call repeatedly as time advances.
    ///
    /// A step is rounds of the loop below, each ended by the merge phase
    /// (`cross.rs`), until a merge changes nothing.
    pub fn step(&mut self, now: SimTime) {
        loop {
            self.step_round(now);
            if !self.merge(now) {
                break;
            }
        }
    }

    /// One round of the step. The loop is event-driven: it visits only
    /// the jobs in the wake set, so an idle step is O(1) and a busy one
    /// O(jobs that change). Woken jobs are visited in passes, each in
    /// consign order over the jobs that existed when the pass started; a
    /// job woken behind the cursor (or consigned mid-pass) waits for the
    /// next pass — exactly the order a scan of every job to a fixpoint
    /// would produce, which is what keeps journal bytes independent of
    /// how the set was reached.
    ///
    /// **Invariant — the wake sources.** A job's `step_job` has work —
    /// a batch job of its that is over, a node ready to dispatch, or no
    /// node left open — only after one of these, and each of them wakes
    /// it:
    /// * consign, and `recover` (every unfinished job);
    /// * its own visit, when it leaves a node ready (one whose last
    ///   predecessor ended after the dispatch loop passed it) or no node
    ///   open (`wants_visit`; re-woken for the next pass). A visit that
    ///   dispatched its ready nodes and left the rest waiting is not
    ///   re-woken;
    /// * every write to `JobRuntime::states` outside `step_job`'s own
    ///   dispatch, all routed through `set_state`: `mark_node_remote`,
    ///   `abort`, and `terminate_node` — the one way a node becomes
    ///   terminal, in `step_job`, at the completion of a node whose work
    ///   left the job's Vsite (`complete_remote_node_with_files`,
    ///   `finish_file_node`, `finish_import`, `fail_subjob_node`) and in
    ///   journal replay. A node turning terminal counts down its
    ///   successors' unmet predecessors there, so readiness is a count,
    ///   not a walk;
    /// * `control` Hold/Resume (`held`);
    /// * the end of one of its batch jobs (completion, cancel), drained
    ///   from the batch change log after every `advance_to` / `submit` /
    ///   `cancel` and for Vsites handed out by `vsite_mut`, mapped back
    ///   through the owner index. A start, a hold or a release only moves
    ///   the task's status, which the drain writes itself and which wakes
    ///   nobody — except a start with the flight recorder on, whose
    ///   record the job's next visit writes.
    ///
    /// Code that changes what `step_job` would see must wake the job. In
    /// debug builds every round ends by asserting that one more scan of
    /// every job finds nothing to do, so a forgotten wake fails tier-1.
    fn step_round(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
        self.advance_batches(now);
        // Instantaneous operations (staging, dispatch of freed nodes) can
        // cascade; iterate passes until nothing is left awake.
        loop {
            // Ids are allocated upwards, so a child consigned during this
            // pass lands at or above `end` and waits for the next one.
            let end = JobId(self.next_job);
            let mut cursor = match self.wake.first() {
                Some(first) if first < end => first,
                _ => break,
            };
            loop {
                self.wake.remove(cursor);
                self.job_visits += 1;
                self.visiting = Some(cursor);
                if self.step_job(cursor, now) && self.wants_visit(cursor) {
                    self.wake.insert(cursor);
                }
                self.visiting = None;
                match self.wake.next_after(cursor, end) {
                    Some(next) => cursor = next,
                    None => break,
                }
            }
        }
        #[cfg(debug_assertions)]
        {
            let mut next = self.live.first();
            while let Some(id) = next {
                assert!(
                    !self.step_job(id, now),
                    "lost wake-up: job {id} had work after step({now}) went quiet"
                );
                next = self.live.next_after(id, JobId(u64::MAX));
            }
        }
        self.flush_events();
    }

    /// Whether job `id`, just visited, needs another visit: a node is
    /// ready to dispatch (and the job is not held), or every node is
    /// terminal — which holds too once the job has finished, and one more
    /// visit then finds it quiet.
    fn wants_visit(&self, id: JobId) -> bool {
        self.jobs.get(&id).is_some_and(|rt| {
            rt.open == 0 || !rt.held && rt.states.contains(&NodeState::Waiting { unmet: 0 })
        })
    }

    /// One visit to job `id`: collects its batch jobs that are over,
    /// dispatches its ready nodes and finishes it when no node is left
    /// open. Returns whether anything changed. Nodes are positions in
    /// `job.nodes` from here down.
    fn step_job(&mut self, id: JobId, now: SimTime) -> bool {
        let (held, nodes) = match self.jobs.get(&id) {
            Some(rt) if !rt.done => (rt.held, rt.states.len()),
            _ => return false,
        };
        let mut progressed = false;

        // 1. Poll in-flight batch tasks, in position order.
        for pos in 0..nodes {
            if let NodeState::InBatch { vsite, batch_id } = self.jobs[&id].states[pos] {
                progressed |= self.poll_batch_node(id, pos, vsite, batch_id);
            }
        }

        // 2. Dispatch ready nodes (unless held), in position order. States
        //    are read live, so a node whose last predecessor completed in
        //    the poll above dispatches within this same visit.
        if !held {
            for pos in 0..nodes {
                let rt = &self.jobs[&id];
                if rt.states[pos] != (NodeState::Waiting { unmet: 0 }) {
                    continue;
                }
                let any_failed = rt
                    .preds
                    .predecessor_positions(pos)
                    .iter()
                    .any(|&p| !rt.node_outcome(p).status().is_success());
                if any_failed {
                    self.flight.record(
                        id.0,
                        now,
                        "njs.kill",
                        format_args!("node {}: predecessor failed", rt.node_id(pos).0),
                    );
                    let mut killed = rt.node_outcome(pos).clone();
                    match &mut killed {
                        OutcomeNode::Task(t) => {
                            t.status = ActionStatus::Killed;
                            t.message = "predecessor failed".into();
                            t.flight = self.flight.trace(id.0);
                        }
                        OutcomeNode::Job(j) => j.status = ActionStatus::Killed,
                    }
                    self.terminate_node(id, pos, killed, &[]);
                    progressed = true;
                } else {
                    progressed |= self.dispatch_node(id, pos, now);
                }
            }
        }

        // 3. Completion check — only when something changed in this visit
        //    or every node was already terminal (a node finished
        //    externally, e.g. a remote completion, between steps); an idle
        //    job's aggregate cannot have changed.
        let rt = self.jobs.get_mut(&id).expect("job exists");
        if progressed || rt.open == 0 {
            rt.outcome.aggregate_status();
            if rt.open == 0 {
                let consigned_at = rt.consigned_at;
                let span = rt.span.take();
                self.mark_done(id, now);
                progressed = true;
                self.metrics.completed.inc();
                self.metrics
                    .duration_us
                    .record(now.saturating_sub(consigned_at));
                if let Some(span) = span {
                    self.telemetry.end(span, now);
                }
            }
        }
        progressed
    }

    fn poll_batch_node(
        &mut self,
        job: JobId,
        pos: usize,
        vsite: usize,
        batch_id: BatchJobId,
    ) -> bool {
        // One look at the batch job. The overwhelmingly common poll sees
        // it still queued or running and changes nothing; one that is over
        // is handed to us whole — output and files move, nothing is copied.
        let v = &mut self.vsites.list[vsite];
        let vsite_name = &self.vsites.names[vsite];
        let Some(status) = v.batch.collect(batch_id) else {
            return false;
        };
        let rt = self.jobs.get_mut(&job).expect("job exists");
        let node = rt.node_id(pos);
        match status {
            // The drain wrote it.
            BatchStatus::Queued | BatchStatus::Held => false,
            // Written here only with the flight recorder on: the drain
            // left the start to this visit (see `drain_batch_changes`).
            BatchStatus::Running { .. } => match rt.task_outcome_mut(pos) {
                Some(t) if t.status != ActionStatus::Running => {
                    t.status = ActionStatus::Running;
                    self.flight.record(
                        job.0,
                        self.clock,
                        "batch.running",
                        format_args!("node {} on {vsite_name}", node.0),
                    );
                    true
                }
                _ => false,
            },
            BatchStatus::Completed(c) => {
                // Retroactive spans from the accounting record: the batch
                // tier is clock-passive, so queue wait and run time are
                // only knowable once the job has finished.
                if self.telemetry.is_enabled() {
                    if let Some(a) = v.batch.accounting_for(batch_id) {
                        let parent = rt.trace;
                        self.telemetry
                            .emit("batch.queue", parent, a.submitted_at, a.started_at);
                        self.telemetry
                            .emit("batch.run", parent, a.started_at, a.ended_at);
                    }
                }
                let succeeded = c.is_success();
                self.flight.record(
                    job.0,
                    self.clock,
                    "batch.exit",
                    format_args!(
                        "node {} exit code {}{}{}",
                        node.0,
                        c.exit_code,
                        if c.timed_out {
                            " (wall clock limit exceeded)"
                        } else {
                            ""
                        },
                        StderrHead(&c.stderr),
                    ),
                );
                let mut outcome = TaskOutcome {
                    status: if succeeded {
                        ActionStatus::Successful
                    } else {
                        ActionStatus::NotSuccessful
                    },
                    exit_code: Some(c.exit_code),
                    stdout: c.stdout,
                    stderr: c.stderr,
                    bytes_staged: 0,
                    message: if c.timed_out {
                        "wall clock limit exceeded".into()
                    } else {
                        String::new()
                    },
                    // A failing exit ships the job's recent lifecycle
                    // with the result, so the JMC can explain the red.
                    flight: if succeeded {
                        Vec::new()
                    } else {
                        self.flight.trace(job.0)
                    },
                };
                v.batch_owner.remove(&batch_id);
                // Deposit output files into the job's Uspace.
                let mut deposited: Vec<String> = Vec::new();
                for (name, data) in c.output_files {
                    // Quota overflow turns the task's result into failure.
                    let written = v.vspace.write_uspace_file(job, &name, data, &rt.user.login);
                    if written.is_err() {
                        self.flight.record(
                            job.0,
                            self.clock,
                            "njs.quota",
                            format_args!("node {}: output {name} exceeded job disk quota", node.0),
                        );
                        outcome.status = ActionStatus::NotSuccessful;
                        outcome.message = "output exceeded job disk quota".into();
                        outcome.flight = self.flight.trace(job.0);
                    } else {
                        deposited.push(name);
                    }
                }
                self.terminate_node(job, pos, OutcomeNode::Task(outcome), &deposited);
                true
            }
            BatchStatus::Cancelled => {
                self.flight.record(
                    job.0,
                    self.clock,
                    "batch.cancelled",
                    format_args!("node {} on {vsite_name}", node.0),
                );
                let cancelled = TaskOutcome {
                    status: ActionStatus::Killed,
                    message: "cancelled".into(),
                    flight: self.flight.trace(job.0),
                    ..Default::default()
                };
                v.batch_owner.remove(&batch_id);
                self.terminate_node(job, pos, OutcomeNode::Task(cancelled), &[]);
                true
            }
        }
    }

    fn dispatch_node(&mut self, job: JobId, pos: usize, now: SimTime) -> bool {
        let rt = self.jobs.get(&job).expect("job exists");
        // The node is read where it lies in the job: only a sub-job (which
        // becomes a job of its own) and a file task's few names are copied.
        let (node, graph_node) = &rt.job.nodes[pos];
        let node = *node;
        match graph_node {
            GraphNode::Task(task) => match &task.kind {
                TaskKind::Execute(kind) => {
                    let vsite = rt.vsite;
                    let vsite_name = &self.vsites.names[vsite];
                    let mut ispan = self.telemetry.span("njs.incarnate", rt.trace, now);
                    ispan.attr("task", &task.name);
                    ispan.attr("vsite", vsite_name);
                    let v = &mut self.vsites.list[vsite];
                    let time_limit = unicore_sim::secs(task.resources.run_time_secs);
                    // Standard site policy: short jobs go express — unless
                    // they are too wide for the express class's width cap.
                    let mut queue = unicore_batch::QueueClass::for_time_limit(time_limit);
                    let express_width = (v.page.performance.nodes / 4).max(1);
                    if queue == unicore_batch::QueueClass::Express
                        && task.resources.processors > express_width
                    {
                        queue = unicore_batch::QueueClass::Batch;
                    }
                    // The name and the script are written into the buffers
                    // the last submit handed back.
                    let (mut name, mut script) = v.batch.recycled_text();
                    name.push_str(&task.name);
                    crate::translation::write_execute_in_queue(
                        &mut script,
                        &v.table,
                        kind,
                        &task.resources,
                        &rt.user.login,
                        job,
                        queue.name(),
                    );
                    self.incarnations += 1;
                    self.metrics.incarnations.inc();
                    let spec = BatchJobSpec {
                        name,
                        owner: rt.user.login.clone(),
                        script,
                        processors: task.resources.processors,
                        time_limit,
                        memory_mb: task.resources.memory_mb,
                        queue,
                        work: self.oracle.work_for(task, &task.resources),
                    };
                    match v.batch.submit(spec, now) {
                        Ok(batch_id) => {
                            v.batch_owner.insert(batch_id, (job, pos));
                            let queue = queue.name();
                            self.flight.record(
                                job.0,
                                now,
                                "njs.dispatch",
                                format_args!("node {} -> {vsite_name}:{queue}", node.0),
                            );
                            if self.journalling() {
                                self.pending.push_job_incarnated(
                                    job,
                                    node,
                                    (vsite_name, queue),
                                    self.clock,
                                );
                            }
                            let rt = self.jobs.get_mut(&job).expect("job exists");
                            rt.states[pos] = NodeState::InBatch { vsite, batch_id };
                            if let Some(t) = rt.task_outcome_mut(pos) {
                                t.status = ActionStatus::Queued;
                            }
                        }
                        Err(e) => {
                            self.flight.record(
                                job.0,
                                now,
                                "njs.dispatch.error",
                                format_args!("{e}"),
                            );
                            let mut failed = TaskOutcome::failure(e.to_string());
                            failed.flight = self.flight.trace(job.0);
                            self.terminate_node(job, pos, OutcomeNode::Task(failed), &[]);
                        }
                    }
                    // The submit changed this Vsite's batch timeline (and
                    // may have started other queued jobs by backfill).
                    self.batch_touched(vsite);
                    // Incarnation is instantaneous in simulated time; the
                    // span's wall-clock side still measures translation
                    // plus submission cost.
                    self.telemetry.end(ispan, now);
                    true
                }
                TaskKind::File(file_kind) => {
                    let file_kind = file_kind.clone();
                    let outcome = self.run_file_task(job, pos, &file_kind);
                    match outcome {
                        FileTaskResult::Done(mut o) => {
                            if !o.status.is_success() {
                                self.flight.record(
                                    job.0,
                                    now,
                                    "njs.file.error",
                                    format_args!("node {}: {}", node.0, o.message),
                                );
                                o.flight = self.flight.trace(job.0);
                            }
                            let deposited = self.deposited_by_file_task(job, pos, &o);
                            self.terminate_node(
                                job,
                                pos,
                                OutcomeNode::Task(o),
                                deposited.as_slice(),
                            );
                        }
                        FileTaskResult::Remote => {
                            let rt = self.jobs.get_mut(&job).expect("job exists");
                            if let Some(t) = rt.task_outcome_mut(pos) {
                                t.status = ActionStatus::Running;
                            }
                            rt.states[pos] = NodeState::Remote;
                        }
                    }
                    true
                }
            },
            GraphNode::SubJob(sub) => {
                let sub = sub.clone();
                self.dispatch_subjob(job, pos, sub, now);
                true
            }
        }
    }

    fn dispatch_subjob(&mut self, job: JobId, pos: usize, sub: AbstractJob, now: SimTime) {
        // Gather edge files from predecessors out of the parent's Uspace.
        let rt = self.jobs.get(&job).expect("job exists");
        let node = rt.node_id(pos);
        let mut staged: Vec<(String, Arc<[u8]>)> = Vec::new();
        for &pred in rt.preds.predecessors_at(pos) {
            for file in rt.job.edge_files(pred, node) {
                let data =
                    self.vsites[rt.vsite]
                        .vspace
                        .read_for_transfer(job, file, &rt.user.login);
                if let Ok(data) = data {
                    staged.push((file.clone(), data));
                }
            }
        }
        let portfolio = rt.portfolio.clone();

        if sub.vsite.usite == self.usite {
            // A child at this Usite: the merge phase consigns it at its
            // Vsite, as the parent's user, and wires the parent link back.
            let (user, trace) = (rt.user.clone(), rt.trace);
            self.cross_send(CrossVsiteItem::ConsignChild {
                parent: job,
                node,
                ajo: Box::new(sub),
                staged,
                user,
                portfolio,
                trace,
            });
        } else {
            // Remote job group: extract as a top-level AJO whose portfolio
            // carries the edge files plus any workstation imports its
            // subtree references.
            let mut ajo = sub;
            let mut carried = staged;
            collect_workstation_imports(&ajo, &portfolio, &mut carried);
            ajo.portfolio = carried
                .into_iter()
                .map(|(name, data)| unicore_ajo::PortfolioFile { name, data })
                .collect();
            let return_files = self.edge_return_files(job, node);
            let dest_usite = ajo.vsite.usite.clone();
            self.flight.record(
                job.0,
                now,
                "njs.forward",
                format_args!("node {} -> usite {dest_usite}", node.0),
            );
            self.outbox.push(OutgoingItem::SubJob {
                parent: job,
                node,
                ajo,
                return_files,
            });
            if self.journalling() {
                self.pending
                    .push_job_incarnated(job, node, ("peer", &dest_usite), self.clock);
            }
        }
        let rt = self.jobs.get_mut(&job).expect("job exists");
        if let OutcomeNode::Job(j) = rt.node_outcome_mut(pos) {
            j.status = ActionStatus::Consigned;
        }
        rt.states[pos] = NodeState::Remote;
    }
}

/// The first line of a batch job's stderr as it appears in the flight
/// ring — `": <line>"`, or nothing when the stream is blank or not UTF-8.
/// Only looked at when the ring is on.
struct StderrHead<'a>(&'a [u8]);

impl fmt::Display for StderrHead<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(self.0) {
            Ok(s) if !s.trim().is_empty() => write!(f, ": {}", s.lines().next().unwrap_or("")),
            _ => Ok(()),
        }
    }
}

/// Collects workstation-import payloads referenced anywhere in `job`'s
/// subtree out of `portfolio` into `carried`.
fn collect_workstation_imports(
    job: &AbstractJob,
    portfolio: &HashMap<String, Arc<[u8]>>,
    carried: &mut Vec<(String, Arc<[u8]>)>,
) {
    for (_, node) in &job.nodes {
        match node {
            GraphNode::Task(task) => {
                if let TaskKind::File(FileKind::Import {
                    source: DataLocation::Workstation { path },
                    ..
                }) = &task.kind
                {
                    if carried.iter().all(|(n, _)| n != path) {
                        if let Some(data) = portfolio.get(path) {
                            carried.push((path.clone(), Arc::clone(data)));
                        }
                    }
                }
            }
            GraphNode::SubJob(sub) => collect_workstation_imports(sub, portfolio, carried),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{NodeState, ShardedNjs};
    use super::JobSet;
    use crate::TranslationTable;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::ops::Bound;
    use unicore_ajo::*;
    use unicore_batch::{BatchJobId, BatchStatus};
    use unicore_gateway::MappedUser;
    use unicore_resources::{deployment_page, Architecture};
    use unicore_sim::SEC;

    /// Applies `ops` to a [`JobSet`] and to the `BTreeSet<JobId>` it
    /// replaced, comparing `first`, every `next_after` and `iter` after
    /// each one.
    /// An op is `(insert?, slot)`; `spread` scales slots so the ids land
    /// in few or in many words.
    fn check(base: u64, spread: u64, ops: &[(bool, u64)]) {
        let mut set = JobSet::new(base);
        let mut model = BTreeSet::new();
        let id = |slot: u64| JobId(base + slot * spread);
        for &(insert, slot) in ops {
            if insert {
                set.insert(id(slot));
                model.insert(id(slot));
            } else {
                set.remove(id(slot));
                model.remove(&id(slot));
            }
            assert_eq!(set.first(), model.first().copied());
            assert!(set.iter().eq(model.iter().copied()));
            // Memory follows the set's span: no empty word at either end.
            assert!(set.words.front() != Some(&0) && set.words.back() != Some(&0));
            let ends = [id(0), id(40), id(200), id(u16::MAX as u64), JobId(u64::MAX)];
            for &cursor in model.iter().chain([id(0), id(63), id(64), id(130)].iter()) {
                for end in ends {
                    let ahead = (Bound::Excluded(cursor), Bound::Excluded(end));
                    let want = (cursor < end)
                        .then(|| model.range(ahead).next().copied())
                        .flatten();
                    assert_eq!(set.next_after(cursor, end), want, "{cursor} .. {end}");
                }
            }
        }
        for &id in &model {
            set.remove(id);
        }
        assert!(set.words.is_empty() && set.first().is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn wake_set_matches_a_btreeset(
            base in prop_oneof![Just(1u64), 1u64..200],
            spread in prop_oneof![Just(1u64), Just(7u64), Just(64u64), 1u64..200],
            ops in proptest::collection::vec((prop_oneof![Just(true), Just(true), Just(false)], 0u64..300), 1..80),
        ) {
            check(base, spread, &ops);
        }
    }

    #[test]
    fn trims_to_empty_and_regrows_below_its_first_word() {
        for base in [1, 5] {
            // High slots first, then lower and lower words, then all
            // removed, then regrown below where the set started.
            let mut ops: Vec<(bool, u64)> = [700, 650, 300, 64, 63, 0].map(|s| (true, s)).to_vec();
            ops.extend([0, 63, 64, 300, 650, 700].map(|s| (false, s)));
            ops.extend([
                (true, 500),
                (true, 3),
                (false, 500),
                (true, 128),
                (false, 3),
            ]);
            check(base, 1, &ops);
        }
    }

    const DN: &str = "C=DE, O=HUB, OU=ZAM, CN=status";
    const VSITES: [(&str, Architecture); 2] =
        [("V0", Architecture::CrayT3e), ("V1", Architecture::IbmSp2)];

    /// After a step every task in batch reads its batch job's status:
    /// queued or held as `Queued`, running as `Running`. A batch job
    /// that is over has been handed to its node, which is then no longer
    /// in batch.
    fn assert_in_batch_statuses_match(njs: &ShardedNjs, after: &str) {
        for (&id, rt) in njs.jobs.iter() {
            for (pos, state) in rt.states.iter().enumerate() {
                let NodeState::InBatch { vsite, batch_id } = *state else {
                    continue;
                };
                let want = match njs.vsites[vsite].batch.status(batch_id) {
                    Some(BatchStatus::Queued | BatchStatus::Held) => Some(ActionStatus::Queued),
                    Some(BatchStatus::Running { .. }) => Some(ActionStatus::Running),
                    _ => None,
                };
                let got = rt.node_outcome(pos).status();
                assert_eq!(
                    Some(got),
                    want,
                    "job {id} node {pos} ({batch_id}) after {after}"
                );
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// A job of `width` tasks at Vsite `vsite`, in a chain or side by
        /// side, each asking for `share` quarters of the machine.
        Consign {
            vsite: usize,
            width: u64,
            chain: bool,
            share: u32,
            secs: u64,
        },
        /// An operator's hold, release or cancel of batch job `k`.
        HoldBatch(usize, u64),
        ReleaseBatch(usize, u64),
        CancelBatch(usize, u64),
        Crash(usize),
        /// The user holds or resumes job `k`.
        Hold(usize),
        Resume(usize),
        Step(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..12, 0usize..2, 1u64..5, 1u32..5, 1u64..40).prop_map(|(kind, v, n, share, secs)| {
            match kind {
                0..=2 => Op::Consign {
                    vsite: v,
                    width: n,
                    chain: share % 2 == 0,
                    share,
                    secs,
                },
                3 => Op::HoldBatch(v, secs % 12 + 1),
                4 => Op::ReleaseBatch(v, secs % 12 + 1),
                5 => Op::CancelBatch(v, secs % 12 + 1),
                6 => Op::Crash(v),
                7 => Op::Hold(secs as usize),
                8 => Op::Resume(secs as usize),
                _ => Op::Step(secs % 20),
            }
        })
    }

    fn drive(ops: &[Op]) {
        let mut njs = ShardedNjs::new("HUB", 1, 1);
        for (name, arch) in VSITES {
            njs.add_vsite(
                deployment_page("HUB", name, arch),
                TranslationTable::for_architecture(arch),
            );
        }
        let user = MappedUser {
            dn: DN.into(),
            login: "alice".into(),
            account_group: "users".into(),
        };
        let mut ids = Vec::new();
        let mut now = 0;
        for op in ops {
            match *op {
                Op::Consign {
                    vsite,
                    width,
                    chain,
                    share,
                    secs,
                } => {
                    let (name, arch) = VSITES[vsite];
                    let all = deployment_page("HUB", name, arch).performance.nodes;
                    let home = VsiteAddress::new("HUB", name);
                    let mut job = AbstractJob::new("s", home, UserAttributes::new(DN, "users"));
                    for i in 1..=width {
                        let resources = ResourceRequest::minimal()
                            .with_run_time(3_600)
                            .with_processors((all * share / 4).max(1));
                        job.nodes.push((
                            ActionId(i),
                            GraphNode::Task(AbstractTask {
                                name: format!("t{i}"),
                                resources,
                                kind: TaskKind::Execute(ExecuteKind::Script {
                                    script: format!("sleep {}\n", secs + i),
                                }),
                            }),
                        ));
                        if chain && i > 1 {
                            job.dependencies.push(Dependency {
                                from: ActionId(i - 1),
                                to: ActionId(i),
                                files: vec![],
                            });
                        }
                    }
                    ids.push(njs.consign(job, user.clone(), now).expect("consign"));
                }
                Op::HoldBatch(v, k) | Op::ReleaseBatch(v, k) | Op::CancelBatch(v, k) => {
                    let batch = &mut njs.vsite_mut(VSITES[v].0).expect("vsite").batch;
                    let _ = match op {
                        Op::HoldBatch(..) => batch.hold(BatchJobId(k)),
                        Op::ReleaseBatch(..) => batch.release(BatchJobId(k), now),
                        _ => batch.cancel(BatchJobId(k), now),
                    };
                }
                Op::Crash(v) => {
                    let batch = &mut njs.vsite_mut(VSITES[v].0).expect("vsite").batch;
                    batch.crash(now, 7 * SEC);
                }
                Op::Hold(k) | Op::Resume(k) if !ids.is_empty() => {
                    let control = match op {
                        Op::Hold(_) => ControlOp::Hold,
                        _ => ControlOp::Resume,
                    };
                    let _ = njs.control(ids[k % ids.len()], control, DN, now);
                }
                Op::Hold(_) | Op::Resume(_) => {}
                Op::Step(delta) => {
                    now += delta * SEC;
                    njs.step(now);
                    assert_in_batch_statuses_match(&njs, &format!("step({now})"));
                }
            }
        }
        // Run out the clock: every later step holds the rule too.
        for _ in 0..200 {
            let Some(next) = njs.next_event_time() else {
                break;
            };
            now = next.max(now + SEC);
            njs.step(now);
            assert_in_batch_statuses_match(&njs, &format!("step({now})"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn in_batch_statuses_match_the_batch_tier_after_every_step(
            ops in proptest::collection::vec(arb_op(), 1..50),
        ) {
            drive(&ops);
        }
    }
}
