//! The Query, List and Control services, Uspace browsing, and purge.

use super::{Njs, NodeState};
use crate::error::NjsError;
use unicore_ajo::{
    ActionStatus, ControlOp, DetailLevel, JobId, JobOutcome, JobSummary, OutcomeNode, TaskOutcome,
};
use unicore_sim::SimTime;
use unicore_store::StoreEvent;

impl Njs {
    /// The DN of the user who consigned `job`.
    pub fn owner_dn(&self, job: JobId) -> Option<String> {
        self.jobs.get(&job).map(|rt| rt.user.dn.clone())
    }

    /// Whether a job has finished (successfully or not).
    pub fn is_done(&self, job: JobId) -> bool {
        self.jobs.get(&job).map(|j| j.done).unwrap_or(false)
    }

    /// The job's current outcome tree.
    pub fn outcome(&self, job: JobId) -> Option<&JobOutcome> {
        self.jobs.get(&job).map(|j| &j.outcome)
    }

    /// Consign → finish duration, once finished.
    pub fn turnaround(&self, job: JobId) -> Option<SimTime> {
        let rt = self.jobs.get(&job)?;
        Some(rt.finished_at? - rt.consigned_at)
    }

    /// Applies a user control operation (ownership enforced by DN).
    pub fn control(
        &mut self,
        job: JobId,
        op: ControlOp,
        dn: &str,
        now: SimTime,
    ) -> Result<bool, NjsError> {
        let rt = self.jobs.get(&job).ok_or(NjsError::UnknownJob(job))?;
        if rt.user.dn != dn {
            return Err(NjsError::NotOwner {
                job,
                dn: dn.to_owned(),
            });
        }
        match op {
            ControlOp::Hold => {
                let rt = self.jobs.get_mut(&job).expect("job exists");
                if rt.done {
                    return Ok(false);
                }
                rt.held = true;
                self.wake(job);
                Ok(true)
            }
            ControlOp::Resume => {
                let rt = self.jobs.get_mut(&job).expect("job exists");
                if !rt.held {
                    return Ok(false);
                }
                rt.held = false;
                self.wake(job);
                Ok(true)
            }
            ControlOp::Abort => Ok(self.abort(job, now)),
        }
    }

    fn abort(&mut self, job: JobId, now: SimTime) -> bool {
        let Some(rt) = self.jobs.get(&job) else {
            return false;
        };
        if rt.done {
            return false;
        }
        let mut children = Vec::new();
        for pos in 0..rt.states.len() {
            match self.jobs[&job].states[pos] {
                NodeState::InBatch { vsite, batch_id } => {
                    let v = &mut self.vsites[vsite];
                    v.batch.cancel(batch_id, now);
                    v.batch_owner.remove(&batch_id);
                    self.batch_touched(vsite);
                    let rt = self.jobs.get_mut(&job).expect("job exists");
                    *rt.node_outcome_mut(pos) = OutcomeNode::Task(TaskOutcome {
                        status: ActionStatus::Killed,
                        message: "aborted by user".into(),
                        ..Default::default()
                    });
                    self.set_state(job, pos, NodeState::Terminal);
                }
                NodeState::ChildJob { child } => children.push((pos, child)),
                NodeState::Waiting | NodeState::Remote => {
                    let rt = self.jobs.get_mut(&job).expect("job exists");
                    match rt.node_outcome_mut(pos) {
                        OutcomeNode::Task(t) => {
                            t.status = ActionStatus::Killed;
                            t.message = "aborted by user".into();
                        }
                        OutcomeNode::Job(j) => j.status = ActionStatus::Killed,
                    }
                    self.set_state(job, pos, NodeState::Terminal);
                }
                NodeState::Terminal => {}
            }
        }
        for (pos, child) in children {
            self.abort(child, now);
            let child_outcome = self.jobs[&child].outcome.clone();
            let rt = self.jobs.get_mut(&job).expect("job exists");
            *rt.node_outcome_mut(pos) = OutcomeNode::Job(child_outcome);
            self.set_state(job, pos, NodeState::Terminal);
        }
        let rt = self.jobs.get_mut(&job).expect("job exists");
        rt.outcome.aggregate_status();
        if rt.outcome.status == ActionStatus::Successful {
            rt.outcome.status = ActionStatus::Killed;
        }
        self.mark_done(job, now);
        // The outcome changed even if no node state did (every node was
        // already terminal): a parent mirroring it must look again.
        self.wake(job);
        self.clock = self.clock.max(now);
        self.log_job_done(job);
        self.flush_events();
        true
    }

    /// Lists the files in a job's Uspace (the JMC's save-output browser).
    pub fn list_uspace_files(&self, job: JobId, dn: &str) -> Result<Vec<String>, NjsError> {
        let rt = self.jobs.get(&job).ok_or(NjsError::UnknownJob(job))?;
        if rt.user.dn != dn {
            return Err(NjsError::NotOwner {
                job,
                dn: dn.to_owned(),
            });
        }
        Ok(self.vsites[rt.vsite]
            .vspace
            .uspace(job)?
            .list("")
            .into_iter()
            .map(str::to_owned)
            .collect())
    }

    /// Purges a finished job: destroys its Uspace (and its local children's)
    /// and forgets the runtime. Returns bytes freed.
    ///
    /// The JMC calls this once the user has saved what they need — job
    /// directories hold "the data for and created during the job run"
    /// (§5.5) and are reclaimed afterwards.
    pub fn purge(&mut self, job: JobId, dn: &str) -> Result<u64, NjsError> {
        let rt = self.jobs.get(&job).ok_or(NjsError::UnknownJob(job))?;
        if rt.user.dn != dn {
            return Err(NjsError::NotOwner {
                job,
                dn: dn.to_owned(),
            });
        }
        if !rt.done {
            return Err(NjsError::Space(unicore_uspace::SpaceError::BadPath(
                "job still running (abort it first)".to_owned(),
            )));
        }
        // Collect the job and its local descendants.
        let mut to_purge = vec![job];
        let mut i = 0;
        while i < to_purge.len() {
            let current = to_purge[i];
            i += 1;
            if let Some(rt) = self.jobs.get(&current) {
                for state in &rt.states {
                    if let NodeState::ChildJob { child } = state {
                        to_purge.push(*child);
                    }
                }
            }
        }
        let mut freed = 0;
        let mut purged: Vec<JobId> = Vec::with_capacity(to_purge.len());
        for id in to_purge {
            self.flight.forget(id.0);
            if let Some(rt) = self.jobs.remove(&id) {
                let vspace = &mut self.vsites[rt.vsite].vspace;
                freed += vspace.destroy_uspace(id).unwrap_or(0);
                // A finished job holds no batch-owner entries: its nodes
                // all went terminal, which is where entries are dropped.
                self.wake.remove(&id);
                purged.push(id);
                self.log_event(StoreEvent::JobPurged {
                    job: id,
                    at: self.clock,
                });
            }
        }
        // One pass over the order however many descendants went with it.
        purged.sort_unstable();
        self.job_order.retain(|j| purged.binary_search(j).is_err());
        self.flush_events();
        Ok(freed)
    }

    /// The List service: root jobs owned by `dn`.
    pub fn list_jobs(&self, dn: &str) -> Vec<JobSummary> {
        self.job_order
            .iter()
            .filter_map(|id| {
                let rt = self.jobs.get(id)?;
                if rt.parent.is_some() || rt.user.dn != dn {
                    return None;
                }
                Some(JobSummary {
                    job: *id,
                    name: rt.job.name.clone(),
                    status: rt.outcome.status,
                })
            })
            .collect()
    }

    /// The Query service: the outcome tree at the requested detail level.
    pub fn query(&self, job: JobId, dn: &str, detail: DetailLevel) -> Result<JobOutcome, NjsError> {
        let rt = self.jobs.get(&job).ok_or(NjsError::UnknownJob(job))?;
        if rt.user.dn != dn {
            return Err(NjsError::NotOwner {
                job,
                dn: dn.to_owned(),
            });
        }
        Ok(prune_outcome(&rt.outcome, detail))
    }

    /// Fetches a file from a finished job's Uspace (JMC "save output",
    /// §5.6: data goes back to the workstation only on user request).
    pub fn fetch_uspace_file(&self, job: JobId, name: &str, dn: &str) -> Result<Vec<u8>, NjsError> {
        let rt = self.jobs.get(&job).ok_or(NjsError::UnknownJob(job))?;
        if rt.user.dn != dn {
            return Err(NjsError::NotOwner {
                job,
                dn: dn.to_owned(),
            });
        }
        let vspace = &self.vsites[rt.vsite].vspace;
        let data = vspace.read_for_transfer(job, name, &rt.user.login)?;
        Ok(data.to_vec()) // wire: Vec<u8> field
    }
}

/// Prunes an outcome tree to the requested detail level.
fn prune_outcome(outcome: &JobOutcome, detail: DetailLevel) -> JobOutcome {
    match detail {
        DetailLevel::JobOnly => JobOutcome {
            status: outcome.status,
            children: Vec::new(),
        },
        DetailLevel::Groups => JobOutcome {
            status: outcome.status,
            children: outcome
                .children
                .iter()
                .filter_map(|(id, node)| match node {
                    OutcomeNode::Job(j) => {
                        Some((*id, OutcomeNode::Job(prune_outcome(j, DetailLevel::Groups))))
                    }
                    OutcomeNode::Task(_) => None,
                })
                .collect(),
        },
        DetailLevel::Tasks => outcome.clone(),
    }
}
