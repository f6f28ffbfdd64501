//! The Vsite boundary, in one place: the typed effects a job queues for
//! another Vsite of its Usite, their application order, and the entry
//! points the sharded facade's merge phase applies them through.
//!
//! Work on a job's own Vsite happens in place. Everything aimed at
//! another Vsite of the same Usite — a sub-job, an Import from its
//! Xspace, an Export or a Transfer into it — is queued as a
//! [`CrossShardItem`], whichever shard owns that Vsite, and the facade
//! applies the items between step rounds. There is one path across the
//! boundary, so terminal outcomes, polls and flight rings are
//! byte-identical for every shard count.

use super::consign::uspace_quota;
use super::{Njs, NodeState};
use std::collections::HashMap;
use std::sync::Arc;
use unicore_ajo::{AbstractJob, ActionId, ActionStatus, JobId, OutcomeNode, TaskOutcome};
use unicore_gateway::MappedUser;
use unicore_sim::SimTime;
use unicore_telemetry::SpanContext;

/// A typed effect aimed at another Vsite of the Usite, produced by a
/// shard during a step round and applied by the facade's deterministic
/// merge phase on the shard owning [`CrossShardItem::target_vsite`].
pub(crate) enum CrossShardItem {
    /// A sub-job at this Usite: consign it at its Vsite on behalf of
    /// `(parent, node)`.
    ConsignChild {
        /// The parent job (on the emitting shard).
        parent: JobId,
        /// The parent's sub-job node.
        node: ActionId,
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
    /// An Import from another Vsite's Xspace: read it there, stage into
    /// `job`'s Uspace on the job's shard.
    ImportXspace {
        /// The importing job.
        job: JobId,
        /// Its Import node.
        node: ActionId,
        /// Source Vsite name.
        src_vsite: String,
        /// Source Xspace path.
        path: String,
        /// Destination Uspace name.
        uspace_name: String,
        /// Login performing the read.
        login: String,
    },
    /// A cross-Vsite Export, or a same-Usite Transfer: write the bytes
    /// into the destination Xspace (a Transfer's path lies in the
    /// incoming area), then finish the node.
    DeliverXspace {
        /// The exporting or transferring job.
        job: JobId,
        /// Its Export or Transfer node.
        node: ActionId,
        /// Destination Vsite name.
        to_vsite: String,
        /// Destination Xspace path.
        path: String,
        /// File contents, shared with the Uspace entry they were read from.
        data: Arc<[u8]>,
        /// Login performing the write.
        login: String,
    },
}

impl CrossShardItem {
    /// The Vsite the item acts on; the facade applies it on the shard
    /// owning that Vsite.
    pub(crate) fn target_vsite(&self) -> &str {
        match self {
            CrossShardItem::ConsignChild { ajo, .. } => &ajo.vsite.vsite,
            CrossShardItem::ImportXspace { src_vsite, .. } => src_vsite,
            CrossShardItem::DeliverXspace { to_vsite, .. } => to_vsite,
        }
    }

    /// Deterministic application order after the target shard: `(job,
    /// node, variant)`. Every `(job, node)` emits at most one item per
    /// lifetime, so with the shard in front this key is total.
    pub(crate) fn sort_key(&self) -> (u64, u64, u8) {
        match self {
            CrossShardItem::ConsignChild { parent, node, .. } => (parent.0, node.0, 0),
            CrossShardItem::ImportXspace { job, node, .. } => (job.0, node.0, 1),
            CrossShardItem::DeliverXspace { job, node, .. } => (job.0, node.0, 2),
        }
    }
}

impl Njs {
    /// Queues an effect aimed at another Vsite for the facade's merge
    /// phase.
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

    /// The portfolio of `job`, if this shard owns it.
    pub(crate) fn portfolio_of(&self, job: JobId) -> Option<Arc<HashMap<String, Arc<[u8]>>>> {
        self.jobs.get(&job).map(|rt| Arc::clone(&rt.portfolio))
    }

    /// Gives `job` the portfolio it shares with its root job, and the
    /// Uspace quota that portfolio earns it at consign (used when
    /// recovery rebuilds parent links: a child's consign record carries
    /// neither).
    pub(crate) fn set_portfolio(&mut self, job: JobId, portfolio: Arc<HashMap<String, Arc<[u8]>>>) {
        let Some(rt) = self.jobs.get_mut(&job) else {
            return;
        };
        let vspace = &mut self.vsites[rt.vsite].vspace;
        if let Ok(fs) = vspace.uspace(job) {
            // What the staged files earned under the portfolio replay gave.
            let staged = fs.quota_bytes() - uspace_quota(&rt.job, &rt.portfolio, 0);
            let _ = vspace.set_uspace_quota(job, uspace_quota(&rt.job, &portfolio, staged));
        }
        rt.portfolio = portfolio;
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
    /// (used when recovery rebuilds parent links).
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
    /// rebuild its link registry after recovery.
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
    /// finished child must hand back to the parent's Uspace, whether it
    /// ran at this Usite or at a peer. Deduplicated in edge order.
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

    /// Terminates a file-task node with `outcome`, exactly as
    /// `dispatch_node`'s Done arm does for one on the job's own Vsite:
    /// failed outcomes get a flight annotation and trace, the node goes
    /// through `terminate_node`, and the group commit flushes.
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
        let deposited = self.deposited_by_file_task(job, pos, &outcome);
        self.terminate_node(job, pos, OutcomeNode::Task(outcome), deposited.as_slice());
        self.flush_events();
    }

    /// Fails a sub-job node whose child the merge phase could not consign
    /// (an unknown Vsite, a refused admission).
    pub(crate) fn fail_subjob_node(&mut self, job: JobId, node: ActionId) {
        let Some(pos) = self.open_node(job, node) else {
            return;
        };
        let mut failed = self.jobs[&job].node_outcome(pos).clone();
        if let OutcomeNode::Job(j) = &mut failed {
            j.status = ActionStatus::NotSuccessful;
        }
        self.terminate_node(job, pos, failed, &[]);
        self.flush_events();
    }

    /// Completes an Import from another Vsite by staging the fetched bytes
    /// into the job's Uspace (or failing the node with the read error).
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

    /// Reads a file from a Vsite's Xspace (the source of an Import from
    /// another Vsite).
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
            None => Err(format!("unknown Vsite {}/{vsite}", self.usite)),
        }
    }

    /// Writes a file into a Vsite's Xspace — where a cross-Vsite Export
    /// or a same-Usite Transfer lands — and reports it as the file task's
    /// outcome: the bytes written, or the write's refusal.
    pub(crate) fn xspace_write(
        &mut self,
        vsite: &str,
        path: &str,
        data: Arc<[u8]>,
        login: &str,
    ) -> TaskOutcome {
        let bytes = data.len() as u64;
        let Some(v) = self.vsites.get_mut(vsite) else {
            return TaskOutcome::failure(format!("unknown Vsite {}/{vsite}", self.usite));
        };
        match v.vspace.xspace().write(path, data, login) {
            Ok(()) => TaskOutcome {
                status: ActionStatus::Successful,
                bytes_staged: bytes,
                ..Default::default()
            },
            Err(e) => TaskOutcome::failure(e.to_string()),
        }
    }
}
