//! Consign: admission, the Uspace, the write-ahead `JobConsigned` record,
//! and the primed job runtime.

use super::{ConsignMeta, JobRuntime, Njs, NodeState};
use crate::error::NjsError;
use std::collections::HashMap;
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ActionId, ActionStatus, GraphNode, JobId, JobOutcome, OutcomeNode, TaskOutcome,
};
use unicore_codec::DerCodec;
use unicore_gateway::MappedUser;
use unicore_resources::check_request;
use unicore_sim::SimTime;
use unicore_store::{OwnerRecord, StoreEvent};

impl Njs {
    /// Consigns a top-level AJO for `user` at `now`.
    pub fn consign(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        now: SimTime,
    ) -> Result<JobId, NjsError> {
        self.consign_with_meta(job, user, now, ConsignMeta::default())
    }

    /// Consigns a top-level AJO with journal metadata attached.
    pub fn consign_with_meta(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        now: SimTime,
        meta: ConsignMeta,
    ) -> Result<JobId, NjsError> {
        job.validate()?;
        // The payload bytes are shared with the AJO: building the staged
        // map is a refcount bump per file, not a copy (the last full copy
        // on the consign admission path — now gone).
        let portfolio: HashMap<String, Arc<[u8]>> = job
            .portfolio
            .iter()
            .map(|p| (p.name.clone(), Arc::clone(&p.data)))
            .collect();
        self.consign_internal(job, user, Arc::new(portfolio), Vec::new(), None, now, meta)
    }

    /// Consigns a job group arriving from a peer NJS (already mapped by
    /// this site's gateway). The AJO's portfolio carries edge files.
    pub fn consign_from_peer(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        now: SimTime,
    ) -> Result<JobId, NjsError> {
        self.consign_from_peer_with_meta(job, user, now, ConsignMeta::default())
    }

    /// Peer consign with journal metadata (origin bookkeeping, dedup key).
    pub fn consign_from_peer_with_meta(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        now: SimTime,
        meta: ConsignMeta,
    ) -> Result<JobId, NjsError> {
        // Peer-forwarded job groups carry their staged files as portfolio;
        // stage every portfolio file into the Uspace directly (files flow
        // along dependency edges, not via Import tasks). The payloads are
        // moved out of the AJO and shared by the Uspace and the runtime
        // map; only the journal's staged record takes a copy of its own.
        job.validate()?;
        let mut job = job;
        let staged: Vec<(String, Arc<[u8]>)> = std::mem::take(&mut job.portfolio)
            .into_iter()
            .map(|p| (p.name, p.data))
            .collect();
        let portfolio: HashMap<String, Arc<[u8]>> = staged.iter().cloned().collect();
        self.consign_internal(job, user, Arc::new(portfolio), staged, None, now, meta)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn consign_internal(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        portfolio: Arc<HashMap<String, Arc<[u8]>>>,
        staged: Vec<(String, Arc<[u8]>)>,
        parent: Option<(JobId, ActionId)>,
        now: SimTime,
        meta: ConsignMeta,
    ) -> Result<JobId, NjsError> {
        self.clock = self.clock.max(now);
        let parent_ctx = meta.trace;
        if job.vsite.usite != self.usite {
            return Err(NjsError::WrongUsite {
                wanted: job.vsite.usite.clone(),
                usite: self.usite.clone(),
            });
        }
        let Some(vsite) = self.vsites.index_of(&job.vsite.vsite) else {
            return Err(NjsError::UnknownVsite {
                vsite: job.vsite.vsite.clone(),
                usite: self.usite.clone(),
            });
        };
        // Admission: every direct execute task against this job's page.
        let page = &self.vsites[vsite].page;
        for (_, node) in &job.nodes {
            if let GraphNode::Task(task) = node {
                if task.is_execute() {
                    let violations = check_request(&task.resources, page);
                    if !violations.is_empty() {
                        return Err(NjsError::Admission {
                            task: task.name.clone(),
                            violations,
                        });
                    }
                }
            }
        }

        let id = JobId(self.next_job);
        self.next_job += self.job_stride;

        // Job directory with a quota covering declared disk + payloads.
        let disk_mb: u64 = job
            .nodes
            .iter()
            .filter_map(|(_, n)| match n {
                GraphNode::Task(t) => {
                    Some(t.resources.disk_permanent_mb + t.resources.disk_temporary_mb)
                }
                GraphNode::SubJob(_) => None,
            })
            .sum();
        let payload: u64 = portfolio.values().map(|d| d.len() as u64).sum::<u64>()
            + staged.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
        let quota = disk_mb * 1_048_576 + payload + (64 << 20);
        let vspace = &mut self.vsites[vsite].vspace;
        vspace.create_uspace(id, quota)?;
        for (name, data) in &staged {
            vspace.write_uspace_file(id, name, Arc::clone(data), &user.login)?;
        }

        // Write-ahead: the job is only accepted once its consign record
        // is durable. A failed journal write rolls the admission back.
        // Any events buffered by the surrounding operation ride along in
        // the same group commit, keeping the journal in program order.
        let recovering = self.recovering;
        if let Some(store) = self.store.as_mut().filter(|_| !recovering) {
            let ajo_der = meta.ajo_der.unwrap_or_else(|| job.to_der());
            debug_assert_eq!(
                ajo_der,
                job.to_der(),
                "carried AJO bytes must encode this job"
            );
            let event = StoreEvent::JobConsigned {
                job: id,
                ajo_der,
                user: OwnerRecord {
                    dn: user.dn.clone(),
                    login: user.login.clone(),
                    account_group: user.account_group.clone(),
                },
                // The WAL cannot hold refcounts: the record owns its bytes.
                staged: staged
                    .iter()
                    .map(|(n, d)| (n.clone(), d.to_vec())) // wire: Vec<u8> field
                    .collect(),
                idem_key: meta.idem_key,
                parent,
                foreign: meta.foreign,
                at: now,
            };
            self.pending.push(&event);
            if let Err(e) = store.commit(&mut self.pending) {
                let _ = self.vsites[vsite].vspace.destroy_uspace(id);
                self.next_job -= self.job_stride;
                return Err(NjsError::Store(e));
            }
        }

        // Prime the outcome tree and node states, both in `job.nodes`
        // order: from here on a node is its position.
        let mut outcome = JobOutcome {
            status: ActionStatus::Consigned,
            children: Vec::with_capacity(job.nodes.len()),
        };
        for (nid, node) in &job.nodes {
            let child = match node {
                GraphNode::Task(_) => OutcomeNode::Task(TaskOutcome::pending()),
                GraphNode::SubJob(_) => OutcomeNode::Job(JobOutcome {
                    status: ActionStatus::Pending,
                    children: Vec::new(),
                }),
            };
            outcome.children.push((*nid, child));
        }
        let states = vec![NodeState::Waiting; job.nodes.len()];

        // Replayed jobs do not restart spans or recount consigns: their
        // first life already did.
        let span = if self.recovering {
            None
        } else {
            self.metrics.consigned.inc();
            let mut sp = self.telemetry.span("njs.job", parent_ctx, now);
            sp.attr("job", id);
            sp.attr("vsite", &job.vsite.vsite);
            Some(sp)
        };
        let trace = span.as_ref().and_then(|s| s.ctx());
        if !self.recovering {
            self.flight.record(
                id.0,
                now,
                "njs.consign",
                format_args!("vsite {}", job.vsite.vsite),
            );
        }
        let preds = job.dependency_index();
        self.jobs.insert(
            id,
            JobRuntime {
                job,
                preds,
                vsite,
                user,
                parent,
                portfolio,
                states,
                outcome,
                held: false,
                done: false,
                consigned_at: now,
                finished_at: None,
                span,
                trace,
            },
        );
        debug_assert!(
            self.job_order.last().is_none_or(|last| *last < id),
            "job_order must stay in ascending id order"
        );
        self.job_order.push(id);
        self.wake.insert(id);
        Ok(id)
    }
}
