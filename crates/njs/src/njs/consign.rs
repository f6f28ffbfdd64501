//! Consign: admission, the Uspace, the write-ahead `JobConsigned` record,
//! and the primed job runtime.

use super::{ConsignMeta, JobRuntime, NodeState, ShardedNjs};
use crate::error::NjsError;
use std::collections::HashMap;
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ActionId, ActionStatus, DependencyIndex, GraphNode, JobId, JobOutcome,
    OutcomeNode, TaskOutcome,
};
use unicore_codec::DerCodec;
use unicore_gateway::MappedUser;
use unicore_resources::check_request;
use unicore_sim::SimTime;
use unicore_store::OwnerRecordRef;

impl ShardedNjs {
    /// Consigns a top-level AJO as `user`, owned or shared with the
    /// gateway's mapping memo.
    pub fn consign(
        &mut self,
        job: AbstractJob,
        user: impl Into<Arc<MappedUser>>,
        now: SimTime,
    ) -> Result<JobId, NjsError> {
        self.consign_with_meta(job, user, now, ConsignMeta::default())
    }

    /// Consigns a top-level AJO with journal metadata attached.
    pub fn consign_with_meta(
        &mut self,
        job: AbstractJob,
        user: impl Into<Arc<MappedUser>>,
        now: SimTime,
        meta: ConsignMeta<'_>,
    ) -> Result<JobId, NjsError> {
        let preds = job.validated_index()?;
        // The payload bytes are shared with the AJO: building the staged
        // map is a refcount bump per file, not a copy (the last full copy
        // on the consign admission path — now gone).
        let portfolio = self.share_portfolio(
            job.portfolio
                .iter()
                .map(|p| (p.name.clone(), Arc::clone(&p.data)))
                .collect(),
        );
        let user = user.into();
        self.consign_internal(job, preds, user, portfolio, Vec::new(), None, now, meta)
    }

    /// Consigns a job group arriving from a peer NJS (already mapped by
    /// this site's gateway).
    pub fn consign_from_peer(
        &mut self,
        job: AbstractJob,
        user: impl Into<Arc<MappedUser>>,
        now: SimTime,
    ) -> Result<JobId, NjsError> {
        self.consign_from_peer_with_meta(job, user, now, ConsignMeta::default())
    }

    /// Consigns a job group arriving from a peer NJS (already mapped by
    /// this site's gateway), with journal metadata (origin bookkeeping,
    /// dedup key). The AJO's portfolio carries edge files.
    pub fn consign_from_peer_with_meta(
        &mut self,
        job: AbstractJob,
        user: impl Into<Arc<MappedUser>>,
        now: SimTime,
        meta: ConsignMeta<'_>,
    ) -> Result<JobId, NjsError> {
        // Peer-forwarded job groups carry their staged files as portfolio;
        // stage every portfolio file into the Uspace directly (files flow
        // along dependency edges, not via Import tasks). The payloads are
        // moved out of the AJO and shared by the Uspace and the runtime
        // map; the journal record is written from them by reference.
        let preds = job.validated_index()?;
        let mut job = job;
        let staged: Vec<(String, Arc<[u8]>)> = std::mem::take(&mut job.portfolio)
            .into_iter()
            .map(|p| (p.name, p.data))
            .collect();
        let portfolio = self.share_portfolio(staged.iter().cloned().collect());
        let user = user.into();
        self.consign_internal(job, preds, user, portfolio, staged, None, now, meta)
    }

    /// The portfolio map a job keeps; every job without files shares one
    /// empty map.
    pub(super) fn share_portfolio(
        &self,
        files: HashMap<String, Arc<[u8]>>,
    ) -> Arc<HashMap<String, Arc<[u8]>>> {
        if files.is_empty() {
            Arc::clone(&self.no_portfolio)
        } else {
            Arc::new(files)
        }
    }

    /// Admits `job`, whose top-level dependency index `preds` the caller
    /// built (validating, unless the job is a replayed or a child one),
    /// journals its `JobConsigned` record and primes its runtime.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn consign_internal(
        &mut self,
        job: AbstractJob,
        preds: DependencyIndex,
        user: Arc<MappedUser>,
        portfolio: Arc<HashMap<String, Arc<[u8]>>>,
        staged: Vec<(String, Arc<[u8]>)>,
        parent: Option<(JobId, ActionId)>,
        now: SimTime,
        meta: ConsignMeta<'_>,
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
        self.next_job += 1;

        let staged_bytes = staged.iter().map(|(_, d)| d.len() as u64).sum();
        let quota = uspace_quota(&job, &portfolio, staged_bytes);
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
            let carried = meta.ajo_der;
            debug_assert!(
                carried.is_none_or(|der| der == job.to_der()),
                "carried AJO bytes must encode this job"
            );
            // The record is written from the parts where they live: the
            // AJO encoded in place (or its carried DER copied), the owner,
            // staged files, key and origin by reference.
            let owner = OwnerRecordRef {
                dn: &user.dn,
                login: &user.login,
                account_group: &user.account_group,
            };
            self.pending.push_job_consigned(
                id,
                &job,
                carried,
                &owner,
                staged.iter().map(|(n, d)| (n.as_str(), &d[..])),
                &meta.idem_key,
                parent,
                meta.foreign.as_ref(),
                now,
            );
            if let Err(e) = store.commit(&mut self.pending) {
                let _ = self.vsites[vsite].vspace.destroy_uspace(id);
                self.next_job -= 1;
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
        let states: Vec<NodeState> = (0..job.nodes.len())
            .map(|pos| NodeState::Waiting {
                unmet: preds.predecessor_positions(pos).len() as u32,
            })
            .collect();

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
        if !meta.idem_key.is_empty() {
            self.by_key.insert(meta.idem_key.clone(), id);
        }
        self.jobs.insert(
            id,
            Box::new(JobRuntime {
                job,
                preds,
                vsite,
                user,
                parent,
                portfolio,
                open: states.len(),
                states,
                outcome,
                held: false,
                done: false,
                consigned_at: now,
                finished_at: None,
                span,
                trace,
                idem_key: meta.idem_key,
                foreign: meta.foreign,
            }),
        );
        self.live.insert(id);
        self.wake.insert(id);
        Ok(id)
    }
}

/// A job's Uspace quota, the one rule consign and recovery share: the
/// disk its tasks declare, the bytes of its portfolio and of its staged
/// files, and 64 MiB of slack.
pub(super) fn uspace_quota(
    job: &AbstractJob,
    portfolio: &HashMap<String, Arc<[u8]>>,
    staged_bytes: u64,
) -> u64 {
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
    let portfolio_bytes: u64 = portfolio.values().map(|d| d.len() as u64).sum();
    disk_mb * 1_048_576 + portfolio_bytes + staged_bytes + (64 << 20)
}
