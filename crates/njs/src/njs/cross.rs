//! The Vsite boundary, in one place: the typed effects a job queues for
//! another Vsite of its Usite, the merge phase that applies them, and
//! the link registry through which a same-Usite child's outcome reaches
//! its parent.
//!
//! ## Determinism contract
//!
//! Work on a job's own Vsite happens in place. Everything aimed at
//! another Vsite of the same Usite — a sub-job, an Import from its
//! Xspace, an Export or a Transfer into it — is never applied from
//! inside a step round: the round queues a typed [`CrossVsiteItem`], and
//! the merge phase that ends the round applies the queued items in
//! [`CrossVsiteItem::sort_key`] order, then completes the parent nodes
//! whose children finished, in `(parent job, node)` order. Rounds and
//! merges alternate until a merge changes nothing. There is one path
//! across the boundary, and terminal [`unicore_ajo::JobOutcome`] DER
//! contains neither ids nor timestamps, so terminal outcomes, polls and
//! flight rings do not depend on which Vsite a job's relatives live on —
//! the same contract the chaos and broker soaks gate on.
//!
//! ## Behavioural notes
//!
//! * A sub-job at this Usite behaves like a job group at a peer Usite:
//!   its parent node shows `Consigned` until the child finishes, then the
//!   child's whole outcome tree.
//! * `Abort` reaches children through their links, and the parent's node
//!   reads `Killed` with no children.

use super::consign::uspace_quota;
use super::{ConsignMeta, NodeState, ShardedNjs};
use std::collections::HashMap;
use std::sync::Arc;
use unicore_ajo::{AbstractJob, ActionId, ActionStatus, JobId, OutcomeNode, TaskOutcome};
use unicore_gateway::MappedUser;
use unicore_sim::SimTime;
use unicore_telemetry::SpanContext;

/// A parent→child link at this Usite, keyed by `(parent job, parent
/// node)` in the registry. The merge phase completes the parent node when
/// the child finishes; this is the only way a child's outcome reaches its
/// parent.
#[derive(Debug)]
pub(super) struct Link {
    pub(super) child: JobId,
    /// Files named on the parent node's outgoing edges, pulled from the
    /// child's Uspace into the parent's on completion.
    pub(super) return_files: Vec<String>,
    pub(super) delivered: bool,
}

/// A typed effect aimed at another Vsite of the Usite, produced during a
/// step round and applied by the deterministic merge phase.
pub(super) enum CrossVsiteItem {
    /// A sub-job at this Usite: consign it at its Vsite on behalf of
    /// `(parent, node)`.
    ConsignChild {
        /// The parent job.
        parent: JobId,
        /// The parent's sub-job node.
        node: ActionId,
        /// The extracted child AJO (boxed: it dwarfs the other variants).
        ajo: Box<AbstractJob>,
        /// Edge files staged from the parent's Uspace, shared with it.
        staged: Vec<(String, Arc<[u8]>)>,
        /// The consigning user, shared with the parent.
        user: Arc<MappedUser>,
        /// The parent's portfolio, shared by refcount.
        portfolio: Arc<HashMap<String, Arc<[u8]>>>,
        /// Parent trace context, so the child's span hangs off it.
        trace: Option<SpanContext>,
    },
    /// An Import from another Vsite's Xspace: read it there, stage into
    /// `job`'s Uspace.
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

impl CrossVsiteItem {
    /// Deterministic application order: `(job, node, variant)`. Every
    /// `(job, node)` emits at most one item per lifetime, so this key is
    /// total.
    fn sort_key(&self) -> (u64, u64, u8) {
        match self {
            CrossVsiteItem::ConsignChild { parent, node, .. } => (parent.0, node.0, 0),
            CrossVsiteItem::ImportXspace { job, node, .. } => (job.0, node.0, 1),
            CrossVsiteItem::DeliverXspace { job, node, .. } => (job.0, node.0, 2),
        }
    }
}

impl ShardedNjs {
    /// Queues an effect aimed at another Vsite for the merge phase.
    pub(super) fn cross_send(&mut self, item: CrossVsiteItem) {
        self.cross_out.push(item);
    }

    /// The merge phase: applies the queued cross-Vsite items in
    /// [`CrossVsiteItem::sort_key`] order, then completes parent nodes
    /// whose children finished. Returns whether anything changed (the
    /// step then runs another round).
    pub(super) fn merge(&mut self, now: SimTime) -> bool {
        let mut progressed = false;

        let mut items = std::mem::take(&mut self.cross_out);
        items.sort_by_key(CrossVsiteItem::sort_key);
        for item in items {
            progressed = true;
            match item {
                CrossVsiteItem::ConsignChild {
                    parent,
                    node,
                    ajo,
                    staged,
                    user,
                    portfolio,
                    trace,
                } => {
                    if self.links.contains_key(&(parent, node)) {
                        continue; // duplicate emission (e.g. around a replay)
                    }
                    let meta = ConsignMeta {
                        trace,
                        ..ConsignMeta::default()
                    };
                    let preds = ajo.dependency_index();
                    match self.consign_internal(
                        *ajo,
                        preds,
                        user,
                        portfolio,
                        staged,
                        Some((parent, node)),
                        now,
                        meta,
                    ) {
                        Ok(child) => {
                            let link = self.link(parent, node, child, false);
                            self.links.insert((parent, node), link);
                        }
                        Err(_) => self.fail_subjob_node(parent, node),
                    }
                }
                CrossVsiteItem::ImportXspace {
                    job,
                    node,
                    src_vsite,
                    path,
                    uspace_name,
                    login,
                } => {
                    let data = self.xspace_read(&src_vsite, &path, &login);
                    self.finish_import(job, node, &uspace_name, data, now);
                }
                CrossVsiteItem::DeliverXspace {
                    job,
                    node,
                    to_vsite,
                    path,
                    data,
                    login,
                } => {
                    let outcome = self.xspace_write(&to_vsite, &path, data, &login);
                    self.finish_file_node(job, node, outcome, now);
                }
            }
        }

        // Complete parent nodes whose children finished, with the files
        // named on the node's outgoing edges ("UNICORE then guarantees
        // that the specified data sets created by the predecessor are
        // available to the successor"): a finished child names its own
        // link. Sorted, so this runs in the same (parent job, node) order
        // a walk of the registry would.
        let mut due: Vec<(JobId, ActionId)> = Vec::new();
        for job in &self.finished {
            let parent = self.jobs.get(job).and_then(|rt| rt.parent);
            if let Some(key) = parent {
                if self.links.get(&key).is_some_and(|l| !l.delivered) {
                    due.push(key);
                }
            }
        }
        self.newly_done.append(&mut self.finished);
        due.sort_unstable();
        for key in due {
            let link = &self.links[&key];
            let outcome = self.outcome(link.child).cloned().unwrap_or_default();
            let files = self.collect_return_files(link.child, &link.return_files);
            let (pjob, pnode) = key;
            self.complete_node_with_files(pjob, pnode, OutcomeNode::Job(outcome), files);
            self.links.get_mut(&key).expect("present").delivered = true;
            progressed = true;
        }
        progressed
    }

    /// The link from node `node` of `parent` to its child job `child`,
    /// with the files the parent node's outgoing edges name: what the
    /// merge phase records at a child's consign and recovery rebuilds
    /// from the journal.
    pub(super) fn link(
        &self,
        parent: JobId,
        node: ActionId,
        child: JobId,
        delivered: bool,
    ) -> Link {
        Link {
            child,
            return_files: self.edge_return_files(parent, node),
            delivered,
        }
    }

    /// The links under `parent`, in node order — a range of the
    /// registry, not a walk over every link the site holds.
    pub(super) fn links_of(
        &mut self,
        parent: JobId,
    ) -> impl Iterator<Item = (&(JobId, ActionId), &mut Link)> {
        self.links
            .range_mut((parent, ActionId(0))..=(parent, ActionId(u64::MAX)))
    }

    /// The portfolio of `job`, if it is here.
    pub(super) fn portfolio_of(&self, job: JobId) -> Option<Arc<HashMap<String, Arc<[u8]>>>> {
        self.jobs.get(&job).map(|rt| Arc::clone(&rt.portfolio))
    }

    /// Gives `job` the portfolio it shares with its root job, and the
    /// Uspace quota that portfolio earns it at consign (used when
    /// recovery rebuilds parent links: a child's consign record carries
    /// neither).
    pub(super) fn set_portfolio(&mut self, job: JobId, portfolio: Arc<HashMap<String, Arc<[u8]>>>) {
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
    pub(super) fn node_is_terminal(&self, job: JobId, node: ActionId) -> bool {
        self.jobs.get(&job).is_none_or(|rt| {
            rt.position(node)
                .is_some_and(|pos| rt.states[pos] == NodeState::Terminal)
        })
    }

    /// Re-marks a non-terminal node as awaiting an external completion
    /// (used when recovery rebuilds parent links).
    pub(super) fn mark_node_remote(&mut self, job: JobId, node: ActionId) {
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
    /// behalf of a parent, in consign order: what recovery rebuilds the
    /// link registry from.
    pub(super) fn parent_links(&self) -> Vec<(JobId, JobId, ActionId)> {
        self.live
            .iter()
            .filter_map(|id| {
                let rt = self.jobs.get(&id)?;
                rt.parent.map(|(pjob, pnode)| (id, pjob, pnode))
            })
            .collect()
    }

    /// The files named on `node`'s outgoing dependency edges — what a
    /// finished child must hand back to the parent's Uspace, whether it
    /// ran at this Usite or at a peer. Deduplicated in edge order.
    pub(super) fn edge_return_files(&self, job: JobId, node: ActionId) -> Vec<String> {
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
    fn finish_file_node(
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
    fn fail_subjob_node(&mut self, job: JobId, node: ActionId) {
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
    fn finish_import(
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
    fn xspace_read(&self, vsite: &str, path: &str, login: &str) -> Result<Arc<[u8]>, String> {
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
    fn xspace_write(
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
