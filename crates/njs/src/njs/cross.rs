//! The shard boundary, in one place: the typed effects a shard queues
//! for its siblings, their application order, and the entry points the
//! sharded facade's merge phase applies them through.
//!
//! The facade applies queued [`CrossShardItem`]s between step rounds
//! using these entry points. They mirror the corresponding in-shard code
//! paths exactly so terminal outcomes are byte-identical whether a job's
//! neighbours live on the same shard or not.

use super::{Njs, NodeState};
use std::collections::HashMap;
use std::sync::Arc;
use unicore_ajo::{AbstractJob, ActionId, ActionStatus, JobId, OutcomeNode, TaskOutcome};
use unicore_gateway::MappedUser;
use unicore_sim::SimTime;
use unicore_telemetry::SpanContext;

/// A typed cross-shard effect, produced by a shard during a step round
/// and applied by the facade's deterministic merge phase.
pub(crate) enum CrossShardItem {
    /// A sub-job whose target Vsite is owned by `shard`: consign it
    /// there on behalf of `(parent, node)`.
    ConsignChild {
        /// The parent job (on the emitting shard).
        parent: JobId,
        /// The parent's sub-job node.
        node: ActionId,
        /// Owning shard of the child's Vsite.
        shard: usize,
        /// The extracted child AJO (boxed: it dwarfs the other variants).
        ajo: Box<AbstractJob>,
        /// Edge files staged from the parent's Uspace, shared with it.
        staged: Vec<(String, Arc<[u8]>)>,
        /// The consigning user.
        user: MappedUser,
        /// The parent's portfolio, shared by refcount.
        portfolio: Arc<HashMap<String, Arc<[u8]>>>,
        /// Parent trace context, so the child's span hangs off it.
        trace: Option<SpanContext>,
    },
    /// A cross-Vsite Import whose source Xspace is owned by `shard`:
    /// read it there, stage into `job`'s Uspace on the owning shard.
    ImportXspace {
        /// The importing job.
        job: JobId,
        /// Its Import node.
        node: ActionId,
        /// Owning shard of the source Vsite.
        shard: usize,
        /// Source Vsite name.
        src_vsite: String,
        /// Source Xspace path.
        path: String,
        /// Destination Uspace name.
        uspace_name: String,
        /// Login performing the read.
        login: String,
    },
    /// A cross-Vsite Export whose destination Xspace is owned by
    /// `shard`: write the bytes there, then finish the node.
    DeliverXspace {
        /// The exporting job.
        job: JobId,
        /// Its Export node.
        node: ActionId,
        /// Owning shard of the destination Vsite.
        shard: usize,
        /// Destination Vsite name.
        to_vsite: String,
        /// Destination Xspace path.
        path: String,
        /// File contents, shared with the Uspace entry they were read from.
        data: Arc<[u8]>,
        /// Byte count for the task outcome.
        bytes: u64,
        /// Login performing the write.
        login: String,
    },
    /// A same-Usite Transfer whose destination Vsite is owned by
    /// `shard`: land the bytes in its incoming area, then finish the
    /// node.
    DeliverIncoming {
        /// The transferring job.
        job: JobId,
        /// Its Transfer node.
        node: ActionId,
        /// Owning shard of the destination Vsite.
        shard: usize,
        /// Destination Vsite name.
        to_vsite: String,
        /// Name at the destination.
        dest_name: String,
        /// File contents, shared with the Uspace entry they were read from.
        data: Arc<[u8]>,
        /// Byte count for the task outcome.
        bytes: u64,
        /// Login performing the write.
        login: String,
    },
}

impl CrossShardItem {
    /// Deterministic application order: `(target shard, job, node,
    /// variant)`. Every `(job, node)` emits at most one item per
    /// lifetime, so this key is total.
    pub(crate) fn sort_key(&self) -> (usize, u64, u64, u8) {
        match self {
            CrossShardItem::ConsignChild {
                shard,
                parent,
                node,
                ..
            } => (*shard, parent.0, node.0, 0),
            CrossShardItem::ImportXspace {
                shard, job, node, ..
            } => (*shard, job.0, node.0, 1),
            CrossShardItem::DeliverXspace {
                shard, job, node, ..
            } => (*shard, job.0, node.0, 2),
            CrossShardItem::DeliverIncoming {
                shard, job, node, ..
            } => (*shard, job.0, node.0, 3),
        }
    }
}

impl Njs {
    /// Registers a Vsite owned by a sibling shard, so work addressed to
    /// it is queued for the facade's merge phase instead of failing as
    /// an unknown Vsite.
    pub(crate) fn register_sibling(&mut self, vsite: impl Into<String>, shard: usize) {
        self.siblings.insert(vsite.into(), shard);
    }

    /// Queues a cross-shard effect for the facade's merge phase.
    pub(super) fn cross_send(&mut self, item: CrossShardItem) {
        self.cross_out.push(item);
    }

    /// Moves the queued cross-shard effects onto the end of `into`.
    pub(crate) fn drain_cross_shard(&mut self, into: &mut Vec<CrossShardItem>) {
        into.append(&mut self.cross_out);
    }

    /// Jobs that finished (by stepping, abort, or journal replay) since
    /// the last call, in finish order. The sharded facade and the server
    /// consume this instead of scanning their link / foreign-job tables.
    pub(crate) fn take_newly_done(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.newly_done)
    }

    /// The `(parent job, parent node)` a job was consigned on behalf of.
    pub(crate) fn parent_of(&self, job: JobId) -> Option<(JobId, ActionId)> {
        self.jobs.get(&job).and_then(|rt| rt.parent)
    }

    /// Whether this shard currently owns `job`.
    pub(crate) fn has_job(&self, job: JobId) -> bool {
        self.jobs.contains_key(&job)
    }

    /// The boundary lookup for a node named from outside this engine:
    /// the position of `node` in `job`, if the job is here, has such a
    /// node, and the node has not terminated yet. A node can only
    /// terminate once, so every late, duplicate or stray completion stops
    /// at this `None`.
    pub(super) fn open_node(&self, job: JobId, node: ActionId) -> Option<usize> {
        let rt = self.jobs.get(&job)?;
        let pos = rt.position(node)?;
        (rt.states[pos] != NodeState::Terminal).then_some(pos)
    }

    /// Whether `node` of `job` has already reached a terminal state.
    /// Unknown jobs count as terminal (nothing left to do).
    pub(crate) fn node_is_terminal(&self, job: JobId, node: ActionId) -> bool {
        self.jobs.get(&job).is_none_or(|rt| {
            rt.position(node)
                .is_some_and(|pos| rt.states[pos] == NodeState::Terminal)
        })
    }

    /// Re-marks a non-terminal node as awaiting an external completion
    /// (used when recovery rebuilds cross-shard parent links).
    pub(crate) fn mark_node_remote(&mut self, job: JobId, node: ActionId) {
        let Some(pos) = self.open_node(job, node) else {
            return;
        };
        let rt = self.jobs.get_mut(&job).expect("open node");
        if let OutcomeNode::Job(j) = rt.node_outcome_mut(pos) {
            if j.status == ActionStatus::Pending {
                j.status = ActionStatus::Consigned;
            }
        }
        self.set_state(job, pos, NodeState::Remote);
    }

    /// `(child, parent job, parent node)` for every job consigned on
    /// behalf of a parent, in consign order. The facade uses this to
    /// rebuild its cross-shard link registry after recovery.
    pub(crate) fn parent_links(&self) -> Vec<(JobId, JobId, ActionId)> {
        self.job_order
            .iter()
            .filter_map(|id| {
                let rt = self.jobs.get(id)?;
                rt.parent.map(|(pjob, pnode)| (*id, pjob, pnode))
            })
            .collect()
    }

    /// The files named on `node`'s outgoing dependency edges — what a
    /// finished child must hand back to the parent's Uspace, whether the
    /// child ran in this shard (`poll_child_node` pulls them), on a sibling
    /// shard or at a peer Usite. Deduplicated in edge order.
    pub(crate) fn edge_return_files(&self, job: JobId, node: ActionId) -> Vec<String> {
        let Some(rt) = self.jobs.get(&job) else {
            return Vec::new();
        };
        let mut files: Vec<String> = Vec::new();
        for dep in &rt.job.dependencies {
            if dep.from == node {
                for f in &dep.files {
                    if !files.contains(f) {
                        files.push(f.clone());
                    }
                }
            }
        }
        files
    }

    /// Terminates a file-task node with `outcome`, exactly as the
    /// in-shard `dispatch_node` Done arm would have: failed outcomes get
    /// a flight annotation and trace, the outcome is recorded, deposits
    /// are journalled, and the group commit flushes.
    pub(crate) fn finish_file_node(
        &mut self,
        job: JobId,
        node: ActionId,
        mut outcome: TaskOutcome,
        now: SimTime,
    ) {
        self.clock = self.clock.max(now);
        let Some(pos) = self.open_node(job, node) else {
            return;
        };
        if !outcome.status.is_success() {
            self.flight.record(
                job.0,
                now,
                "njs.file.error",
                format_args!("node {}: {}", node.0, outcome.message),
            );
            outcome.flight = self.flight.trace(job.0);
        }
        let rt = self.jobs.get_mut(&job).expect("open node");
        *rt.node_outcome_mut(pos) = OutcomeNode::Task(outcome);
        // Eager re-aggregation, like `complete_remote_node_with_files`:
        // this runs between steps, so clients polling before the next
        // step must already see the folded status.
        rt.outcome.aggregate_status();
        self.set_state(job, pos, NodeState::Terminal);
        let deposited = self.deposited_by_file_task(job, pos);
        self.log_terminal(job, pos, deposited.as_slice());
        self.flush_events();
    }

    /// Fails a sub-job node whose cross-shard consign was rejected,
    /// mirroring the in-shard consign-error arm of `dispatch_subjob`.
    pub(crate) fn fail_subjob_node(&mut self, job: JobId, node: ActionId) {
        let Some(pos) = self.open_node(job, node) else {
            return;
        };
        let rt = self.jobs.get_mut(&job).expect("open node");
        if let OutcomeNode::Job(j) = rt.node_outcome_mut(pos) {
            j.status = ActionStatus::NotSuccessful;
        }
        rt.outcome.aggregate_status();
        self.set_state(job, pos, NodeState::Terminal);
        self.log_terminal(job, pos, &[]);
        self.flush_events();
    }

    /// Completes a cross-shard Import by staging the fetched bytes into
    /// the job's Uspace (or failing the node with the read error).
    pub(crate) fn finish_import(
        &mut self,
        job: JobId,
        node: ActionId,
        uspace_name: &str,
        data: Result<Arc<[u8]>, String>,
        now: SimTime,
    ) {
        let outcome = match data {
            Ok(d) => {
                let Some(rt) = self.jobs.get(&job) else {
                    return;
                };
                let vspace = &mut self.vsites[rt.vsite].vspace;
                let result = vspace.import_bytes(job, uspace_name, d, &rt.user.login);
                match result {
                    Ok(n) => TaskOutcome {
                        status: ActionStatus::Successful,
                        bytes_staged: n,
                        ..Default::default()
                    },
                    Err(e) => TaskOutcome::failure(e.to_string()),
                }
            }
            Err(e) => TaskOutcome::failure(e),
        };
        self.finish_file_node(job, node, outcome, now);
    }

    /// Reads a file from a Vsite's Xspace (cross-shard Import source).
    pub(crate) fn xspace_read(
        &self,
        vsite: &str,
        path: &str,
        login: &str,
    ) -> Result<Arc<[u8]>, String> {
        match self.vsites.get(vsite) {
            Some(v) => v
                .vspace
                .xspace_ref()
                .read(path, login)
                .map(|f| Arc::clone(&f.data))
                .map_err(|e| e.to_string()),
            None => Err(format!("unknown Vsite {vsite}")),
        }
    }

    /// Writes a file into a Vsite's Xspace (cross-shard Export landing).
    pub(crate) fn xspace_write(
        &mut self,
        vsite: &str,
        path: &str,
        data: Arc<[u8]>,
        login: &str,
    ) -> Result<(), String> {
        match self.vsites.get_mut(vsite) {
            Some(v) => v
                .vspace
                .xspace()
                .write(path, data, login)
                .map_err(|e| e.to_string()),
            None => Err(format!("unknown Vsite {vsite}")),
        }
    }
}
