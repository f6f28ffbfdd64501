//! Work that happens at a peer Usite: the outbox the federation layer
//! drains and the completions it brings back.

use super::{NodeState, OutgoingItem, ShardedNjs};
use std::sync::Arc;
use unicore_ajo::{ActionId, ActionStatus, JobId, OutcomeNode, TaskOutcome};

impl ShardedNjs {
    /// Takes everything waiting for the federation layer.
    pub fn take_outbox(&mut self) -> Vec<OutgoingItem> {
        std::mem::take(&mut self.outbox)
    }

    /// Completes a node whose work happened at a peer Usite.
    pub fn complete_remote_node(&mut self, job: JobId, node: ActionId, outcome: OutcomeNode) {
        self.complete_node_with_files(job, node, outcome, Vec::new());
    }

    /// Completes a remote node with the edge files a peer's message
    /// returned; each is copied out of the message once, here.
    pub fn complete_remote_node_with_files(
        &mut self,
        job: JobId,
        node: ActionId,
        outcome: OutcomeNode,
        files: Vec<(String, Vec<u8>)>,
    ) {
        let files = files.into_iter().map(|(n, d)| (n, d.into())).collect();
        self.complete_node_with_files(job, node, outcome, files);
    }

    /// Completes a node whose work happened away from its job's Vsite,
    /// depositing the edge files that came back into the job's Uspace so
    /// successors can consume them (files the merge phase read from a
    /// child's Uspace at this Usite are shared with it).
    pub(super) fn complete_node_with_files(
        &mut self,
        job: JobId,
        node: ActionId,
        outcome: OutcomeNode,
        files: Vec<(String, Arc<[u8]>)>,
    ) {
        // A node can only terminate once: a late delivery for a node
        // already completed (aborted locally, or a duplicate/replayed
        // completion) must not overwrite its recorded outcome — and one
        // for a node this job does not have lands nowhere.
        let Some(pos) = self.open_node(job, node) else {
            return;
        };
        let rt = &self.jobs[&job];
        let mut deposited: Vec<String> = Vec::new();
        let vspace = &mut self.vsites[rt.vsite].vspace;
        for (name, data) in files {
            let written = vspace.write_uspace_file(job, &name, data, &rt.user.login);
            if written.is_ok() {
                deposited.push(name);
            }
        }
        self.terminate_node(job, pos, outcome, &deposited);
        self.flush_events();
    }

    /// Reads edge-result files from a (foreign) job's Uspace for return to
    /// the origin site. Missing files are skipped — the origin's successor
    /// tasks will then fail with file-not-found, mirroring reality.
    pub fn collect_return_files(&self, job: JobId, names: &[String]) -> Vec<(String, Arc<[u8]>)> {
        let Some(rt) = self.jobs.get(&job) else {
            return Vec::new();
        };
        let vspace = &self.vsites[rt.vsite].vspace;
        names
            .iter()
            .filter_map(|n| {
                vspace
                    .read_for_transfer(job, n, &rt.user.login)
                    .ok()
                    .map(|d| (n.clone(), d))
            })
            .collect()
    }

    /// Sender-side progress note: records streamed bytes on a `Remote`
    /// transfer node so JMC status polls show the data plane moving
    /// before the task completes.
    pub fn note_transfer_progress(&mut self, job: JobId, node: ActionId, bytes: u64, total: u64) {
        let Some(rt) = self.jobs.get_mut(&job) else {
            return;
        };
        let Some(pos) = rt.position(node) else {
            return;
        };
        if rt.states[pos] != NodeState::Remote {
            return;
        }
        // Only what a poll shows changes: the node stays `Remote`, so the
        // job has no new work and is not woken.
        *rt.node_outcome_mut(pos) = OutcomeNode::Task(TaskOutcome {
            status: ActionStatus::Running,
            bytes_staged: bytes,
            message: format!("streaming {bytes}/{total} bytes"),
            ..Default::default()
        });
    }
}
