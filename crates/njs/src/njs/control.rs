//! The Query, List and Control services, Uspace browsing, and purge.

use super::{Njs, NodeState};
use crate::error::NjsError;
use unicore_ajo::{
    ActionStatus, ControlOp, DetailLevel, JobId, JobOutcome, JobSummary, OutcomeNode, TaskOutcome,
};
use unicore_sim::SimTime;
use unicore_store::{ForeignOrigin, StoreEvent};

impl Njs {
    /// The live job a consign with idempotency key `key` created.
    pub(crate) fn job_for_key(&self, key: &[u8]) -> Option<JobId> {
        self.by_key.get(key).copied()
    }

    /// The peer job `job` runs for, if a peer server consigned it.
    pub(crate) fn foreign_of(&self, job: JobId) -> Option<&ForeignOrigin> {
        self.jobs.get(&job)?.foreign.as_ref()
    }

    /// The DN of the user who consigned `job`.
    pub(crate) fn owner_dn(&self, job: JobId) -> Option<String> {
        self.jobs.get(&job).map(|rt| rt.user.dn.clone())
    }

    /// Whether a job has finished (successfully or not).
    pub(crate) fn is_done(&self, job: JobId) -> bool {
        self.jobs.get(&job).map(|j| j.done).unwrap_or(false)
    }

    /// The job's current outcome tree.
    pub(crate) fn outcome(&self, job: JobId) -> Option<&JobOutcome> {
        self.jobs.get(&job).map(|j| &j.outcome)
    }

    /// Consign → finish duration, once finished.
    pub(crate) fn turnaround(&self, job: JobId) -> Option<SimTime> {
        let rt = self.jobs.get(&job)?;
        Some(rt.finished_at? - rt.consigned_at)
    }

    /// Applies a user control operation (ownership enforced by DN).
    pub(crate) fn control(
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
                self.wake.insert(job);
                Ok(true)
            }
            ControlOp::Resume => {
                let rt = self.jobs.get_mut(&job).expect("job exists");
                if !rt.held {
                    return Ok(false);
                }
                rt.held = false;
                self.wake.insert(job);
                Ok(true)
            }
            ControlOp::Abort => Ok(self.abort(job, now)),
        }
    }

    /// Kills every node of `job` that is not terminal yet. A sub-job
    /// node reads `Killed` with no children; the child job itself is
    /// aborted by [`crate::ShardedNjs::control`] through its link.
    fn abort(&mut self, job: JobId, now: SimTime) -> bool {
        let Some(rt) = self.jobs.get(&job) else {
            return false;
        };
        if rt.done {
            return false;
        }
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
        let rt = self.jobs.get_mut(&job).expect("job exists");
        rt.outcome.aggregate_status();
        if rt.outcome.status == ActionStatus::Successful {
            rt.outcome.status = ActionStatus::Killed;
        }
        self.clock = self.clock.max(now);
        self.mark_done(job, now);
        self.flush_events();
        true
    }

    /// Lists the files in a job's Uspace (the JMC's save-output browser).
    pub(crate) fn list_uspace_files(&self, job: JobId, dn: &str) -> Result<Vec<String>, NjsError> {
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

    /// Purges a finished job: destroys its Uspace and forgets the runtime.
    /// Returns bytes freed. Its sub-jobs are jobs of their own;
    /// [`crate::ShardedNjs::purge`] purges them through its links.
    ///
    /// The JMC calls this once the user has saved what they need — job
    /// directories hold "the data for and created during the job run"
    /// (§5.5) and are reclaimed afterwards.
    pub(crate) fn purge(&mut self, job: JobId, dn: &str) -> Result<u64, NjsError> {
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
        self.flight.forget(job.0);
        let freed = self.forget_job(job);
        // A finished job holds no batch-owner entries: its nodes all went
        // terminal, which is where entries are dropped.
        self.wake.remove(&job);
        if let Ok(i) = self.job_order.binary_search(&job) {
            self.job_order.remove(i);
        }
        self.log_event(StoreEvent::JobPurged {
            job,
            at: self.clock,
        });
        self.flush_events();
        Ok(freed)
    }

    /// Drops a purged job's runtime, Uspace and idempotency key — one path
    /// for a purge and for a replayed `JobPurged`. Returns bytes freed.
    pub(super) fn forget_job(&mut self, job: JobId) -> u64 {
        let Some(rt) = self.jobs.remove(&job) else {
            return 0;
        };
        // A key since re-consigned maps to the newer job and stays.
        if self.by_key.get(&rt.idem_key) == Some(&job) {
            self.by_key.remove(&rt.idem_key);
        }
        self.vsites[rt.vsite]
            .vspace
            .destroy_uspace(job)
            .unwrap_or(0)
    }

    /// The List service: root jobs owned by `dn`.
    pub(crate) fn list_jobs(&self, dn: &str) -> Vec<JobSummary> {
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
    pub(crate) fn query(
        &self,
        job: JobId,
        dn: &str,
        detail: DetailLevel,
    ) -> Result<JobOutcome, NjsError> {
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
    pub(crate) fn fetch_uspace_file(
        &self,
        job: JobId,
        name: &str,
        dn: &str,
    ) -> Result<Vec<u8>, NjsError> {
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
