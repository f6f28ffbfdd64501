//! The wake set and the step loop: `step`, `step_job`, batch polling,
//! node dispatch.

use super::cross::CrossShardItem;
use super::files::FileTaskResult;
use super::{Njs, NodeState, OutgoingItem};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ActionStatus, DataLocation, FileKind, GraphNode, JobId, OutcomeNode, TaskKind,
    TaskOutcome,
};
use unicore_batch::{BatchJobId, BatchJobSpec, BatchStatus};
use unicore_sim::SimTime;
use unicore_store::StoreEvent;

impl Njs {
    /// After this NJS changed Vsite `idx`'s batch state (submit, cancel):
    /// marks its next-event heap entry stale and wakes the jobs whose
    /// batch jobs changed status as a result.
    pub(super) fn batch_touched(&mut self, idx: usize) {
        self.batch_dirty.push(idx);
        self.wake_batch_changes(idx);
    }

    /// Earliest future event (batch completion or crash recovery) across
    /// this NJS's Vsites.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
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
            // Whatever dirtied it (an external `vsite_mut` caller, say)
            // may have changed statuses too.
            self.wake_batch_changes(idx);
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
            self.wake_batch_changes(idx);
        }
    }

    /// Drains Vsite `idx`'s batch change log into the wake set: every
    /// batch job whose status changed wakes the job that owns it. Called
    /// after anything that can move the batch tier — `advance_to`,
    /// `submit`, `cancel`, or an external mutation through `vsite_mut`.
    fn wake_batch_changes(&mut self, idx: usize) {
        let v = &mut self.vsites[idx];
        for id in v.batch.drain_changes() {
            if let Some(job) = v.batch_owner.get(&id) {
                self.wake.insert(*job);
            }
        }
    }

    /// The one writer of node state outside `step_job`'s own dispatch:
    /// records the transition of the node at `pos` and wakes the job, so
    /// a call site cannot forget to.
    pub(super) fn set_state(&mut self, job: JobId, pos: usize, state: NodeState) {
        if let Some(rt) = self.jobs.get_mut(&job) {
            rt.states[pos] = state;
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
        self.newly_done.push(job);
        self.log_job_done(job);
    }

    /// Jobs visited by the step loop so far. An idle step — empty wake
    /// set, no batch event due — adds nothing.
    pub(crate) fn job_visits(&self) -> u64 {
        self.job_visits
    }

    /// Drives all jobs forward to `now`. Call repeatedly as time advances.
    ///
    /// The loop is event-driven: it visits only the jobs in the wake set,
    /// so an idle step is O(1) and a busy one O(jobs that change). Woken
    /// jobs are visited in passes, each in consign order over the jobs
    /// that existed when the pass started; a job woken behind the cursor
    /// (or consigned mid-pass) waits for the next pass — exactly the
    /// order a scan of every job to a fixpoint would produce, which is
    /// what keeps journal bytes independent of how the set was reached.
    ///
    /// **Invariant — the wake sources.** A job's `step_job` can only make
    /// progress after one of these, and each of them wakes it:
    /// * consign, and `recover` (every unfinished job);
    /// * its own progress in `step_job` (re-woken for the next pass);
    /// * every write to `JobRuntime::states` outside `step_job`'s own
    ///   dispatch, all routed through `set_state`: `mark_node_remote`,
    ///   `abort`, and `terminate_node` — the one way a node becomes
    ///   terminal, in `step_job`, at the completion of a node whose work
    ///   left the job's Vsite (`complete_remote_node_with_files`,
    ///   `finish_file_node`, `finish_import`, `fail_subjob_node`) and in
    ///   journal replay;
    /// * `control` Hold/Resume (`held`);
    /// * a [`BatchStatus`] change of one of its batch jobs (start,
    ///   completion, cancel, hold/release), drained from the batch change
    ///   log after every `advance_to` / `submit` / `cancel` and for Vsites
    ///   handed out by `vsite_mut`, mapped back through the owner index.
    ///
    /// Code that changes what `step_job` would see must wake the job. In
    /// debug builds every step ends by asserting that one more scan of
    /// every job finds nothing to do, so a forgotten wake fails tier-1.
    pub(crate) fn step(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
        self.advance_batches(now);
        // Instantaneous operations (staging, dispatch of freed nodes) can
        // cascade; iterate passes until nothing is left awake.
        loop {
            // Ids are allocated upwards, so a child consigned during this
            // pass lands at or above `end` and waits for the next one.
            let end = JobId(self.next_job);
            let mut cursor = match self.wake.first() {
                Some(&first) if first < end => first,
                _ => break,
            };
            loop {
                self.wake.remove(&cursor);
                self.job_visits += 1;
                if self.step_job(cursor, now) {
                    self.wake.insert(cursor);
                }
                let ahead = (Bound::Excluded(cursor), Bound::Excluded(end));
                match self.wake.range(ahead).next() {
                    Some(&next) => cursor = next,
                    None => break,
                }
            }
        }
        #[cfg(debug_assertions)]
        for i in 0..self.job_order.len() {
            let id = self.job_order[i];
            assert!(
                !self.step_job(id, now),
                "lost wake-up: job {id} had work after step({now}) went quiet"
            );
        }
        self.flush_events();
    }

    fn step_job(&mut self, id: JobId, now: SimTime) -> bool {
        // One pass over the node states classifies everything; the common
        // no-progress call allocates nothing (the scratch vectors keep
        // their capacity across steps). Nodes are positions in
        // `job.nodes` from here down.
        let mut poll = std::mem::take(&mut self.poll_scratch);
        let mut waiting = std::mem::take(&mut self.waiting_scratch);
        poll.clear();
        waiting.clear();
        let (held, all_terminal) = match self.jobs.get(&id) {
            Some(rt) if !rt.done => {
                let mut all_terminal = true;
                for (pos, state) in rt.states.iter().enumerate() {
                    match *state {
                        NodeState::Terminal => continue,
                        NodeState::Remote => {}
                        NodeState::Waiting => waiting.push(pos),
                        NodeState::InBatch { vsite, batch_id } => poll.push((pos, vsite, batch_id)),
                    }
                    all_terminal = false;
                }
                (rt.held, all_terminal)
            }
            _ => {
                self.poll_scratch = poll;
                self.waiting_scratch = waiting;
                return false;
            }
        };
        let mut progressed = false;

        // 1. Poll in-flight batch tasks.
        for (pos, vsite, batch_id) in poll.drain(..) {
            progressed |= self.poll_batch_node(id, pos, vsite, batch_id);
        }

        // 2. Dispatch ready nodes (unless held). States are re-read live,
        //    so a node whose last predecessor completed in the poll above
        //    dispatches within this same step.
        if !held {
            for &pos in &waiting {
                let rt = self.jobs.get(&id).expect("job exists");
                if rt.states[pos] != NodeState::Waiting {
                    continue;
                }
                let mut ready = true;
                let mut any_failed = false;
                for &p in rt.preds.predecessor_positions(pos) {
                    if rt.states[p] != NodeState::Terminal {
                        ready = false;
                        break;
                    }
                    any_failed |= !rt.node_outcome(p).status().is_success();
                }
                if !ready {
                    continue;
                }
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
        waiting.clear();
        self.poll_scratch = poll;
        self.waiting_scratch = waiting;

        // 3. Completion check — only when something changed this step or
        //    every node was already terminal (a node finished externally,
        //    e.g. a remote completion, between steps); an idle job's
        //    aggregate cannot have changed.
        if progressed || all_terminal {
            let rt = self.jobs.get_mut(&id).expect("job exists");
            rt.outcome.aggregate_status();
            if !rt.done && rt.all_terminal() {
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
            BatchStatus::Queued | BatchStatus::Held => match rt.task_outcome_mut(pos) {
                Some(t) if t.status != ActionStatus::Queued => {
                    t.status = ActionStatus::Queued;
                    true
                }
                _ => false,
            },
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
                    let script = crate::translation::incarnate_execute_in_queue(
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
                        name: task.name.clone(),
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
                            v.batch_owner.insert(batch_id, job);
                            let queue = queue.name();
                            self.flight.record(
                                job.0,
                                now,
                                "njs.dispatch",
                                format_args!("node {} -> {vsite_name}:{queue}", node.0),
                            );
                            if self.journalling() {
                                self.pending.push(&StoreEvent::JobIncarnated {
                                    job,
                                    node,
                                    target: format!("{vsite_name}:{queue}"),
                                    at: self.clock,
                                });
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
        let (user, portfolio, parent_trace) = (rt.user.clone(), rt.portfolio.clone(), rt.trace);

        if sub.vsite.usite == self.usite {
            // A child at this Usite: the facade's merge phase consigns it
            // on the shard owning its Vsite and wires the parent link back.
            self.cross_send(CrossShardItem::ConsignChild {
                parent: job,
                node,
                ajo: Box::new(sub),
                staged,
                user,
                portfolio,
                trace: parent_trace,
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
            self.log_event(StoreEvent::JobIncarnated {
                job,
                node,
                target: format!("peer:{dest_usite}"),
                at: self.clock,
            });
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
