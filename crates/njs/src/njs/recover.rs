//! Recovery: journal replay back into the job table.

use super::{ConsignMeta, IncomingTransfer, Njs, NodeState, RecoveryReport, INCOMING_PREFIX};
use crate::error::NjsError;
use std::collections::HashMap;
use std::sync::Arc;
use unicore_ajo::{AbstractJob, ActionId, JobId, JobOutcome, OutcomeNode};
use unicore_codec::DerCodec;
use unicore_dataplane::{ReceiverState, TransferKey, TransferManifest};
use unicore_gateway::MappedUser;
use unicore_sim::SimTime;
use unicore_store::{ManifestEntry, StoreError, StoreEvent};

impl Njs {
    /// Replays the attached journal, rebuilding the job table as it was
    /// at the crash, then resumes dependency-ordered dispatch.
    ///
    /// Recovery semantics:
    /// * every `JobConsigned` job is re-admitted under its original
    ///   [`JobId`], with its Uspace re-created and staged inputs restored;
    /// * nodes with a journalled terminal outcome come back `Terminal`
    ///   with their outcome and deposited files intact — they are **never
    ///   re-submitted to batch**;
    /// * finished jobs come back `done` with their outcome tree and full
    ///   Uspace manifest, ready for the client to poll and fetch;
    /// * purged jobs stay gone;
    /// * nodes that were in flight (queued or running in batch, which
    ///   died with the machine) reset to `Waiting` and are re-dispatched
    ///   by the next [`Njs::step`];
    /// * local parent–child links are re-wired so sub-job polling
    ///   continues where it left off.
    ///
    /// Call after the Vsites are registered and the store is attached,
    /// before the first `step`. A missing store recovers nothing.
    pub fn recover(&mut self, now: SimTime) -> Result<RecoveryReport, NjsError> {
        let Some(store) = &self.store else {
            return Ok(RecoveryReport::default());
        };
        let replay = store.replay().map_err(NjsError::Store)?;
        self.clock = self.clock.max(now);
        self.recovering = true;
        let orig_next = self.next_job;
        let mut max_job = 0u64;
        let mut report = RecoveryReport {
            // The open() repair already trimmed a torn tail if there was
            // one; surface either signal to the caller.
            torn_tail: replay.torn_tail || store.recovered_torn(),
            ..RecoveryReport::default()
        };
        // (child, parent job, parent node) links to re-wire afterwards.
        let mut links: Vec<(JobId, JobId, ActionId)> = Vec::new();
        // Purged ids, dropped from the order and the report in one pass
        // at the end (ids are never reused, so deferring is exact).
        let mut purged: Vec<JobId> = Vec::new();

        let result = (|| -> Result<(), NjsError> {
            for event in &replay.events {
                match event {
                    StoreEvent::JobConsigned {
                        job,
                        ajo_der,
                        user,
                        staged,
                        idem_key,
                        parent,
                        foreign,
                        at,
                    } => {
                        let ajo = AbstractJob::from_der(ajo_der)
                            .map_err(|e| NjsError::Store(StoreError::Codec(e)))?;
                        let mapped = MappedUser {
                            dn: user.dn.clone(),
                            login: user.login.clone(),
                            account_group: user.account_group.clone(),
                        };
                        // The record's bytes are copied out of the journal
                        // once; the Uspace and the portfolio share them.
                        let staged: Vec<(String, Arc<[u8]>)> = staged
                            .iter()
                            .map(|(n, d)| (n.clone(), Arc::from(&d[..])))
                            .collect();
                        // Child jobs share their parent's portfolio (the
                        // parent was consigned earlier in the log); others
                        // rebuild it from the AJO and the staged files.
                        let portfolio: Arc<HashMap<String, Arc<[u8]>>> = match parent {
                            Some((pjob, _)) => self
                                .jobs
                                .get(pjob)
                                .map(|p| p.portfolio.clone())
                                .unwrap_or_default(),
                            None => {
                                let mut m: HashMap<String, Arc<[u8]>> = ajo
                                    .portfolio
                                    .iter()
                                    .map(|p| (p.name.clone(), Arc::clone(&p.data)))
                                    .collect();
                                m.extend(staged.iter().cloned());
                                Arc::new(m)
                            }
                        };
                        self.next_job = job.0;
                        let got = self.consign_internal(
                            ajo,
                            mapped,
                            portfolio,
                            staged,
                            *parent,
                            *at,
                            ConsignMeta::default(),
                        )?;
                        debug_assert_eq!(got, *job, "journal replay must keep job ids");
                        max_job = max_job.max(job.0);
                        report.jobs.push(*job);
                        if !idem_key.is_empty() {
                            report.idem.push((idem_key.clone(), *job));
                        }
                        if let Some(f) = foreign {
                            report.foreign.push((*job, f.clone()));
                        }
                        if let Some((pjob, pnode)) = parent {
                            links.push((*job, *pjob, *pnode));
                        }
                    }
                    // Incarnations are informational: in-flight batch work
                    // died with the machine and is re-dispatched fresh.
                    StoreEvent::JobIncarnated { .. } => {}
                    // Placements likewise: a restarted server re-derives
                    // them from the same seed; the journal is the audit
                    // trail the determinism tests compare.
                    StoreEvent::PlacementDecided { .. } => {}
                    StoreEvent::TaskStateChanged {
                        job,
                        node,
                        outcome_der,
                        files,
                        ..
                    } => {
                        let outcome = OutcomeNode::from_der(outcome_der)
                            .map_err(|e| NjsError::Store(StoreError::Codec(e)))?;
                        if let Some(rt) = self.jobs.get_mut(job) {
                            if let Some(pos) = rt.position(*node) {
                                *rt.node_outcome_mut(pos) = outcome;
                                rt.states[pos] = NodeState::Terminal;
                            }
                            let vspace = &mut self.vsites[rt.vsite].vspace;
                            for (name, data) in files {
                                let _ =
                                    vspace.write_uspace_file(*job, name, &data[..], &rt.user.login);
                            }
                        }
                    }
                    StoreEvent::OutcomeStored {
                        job,
                        outcome_der,
                        manifest,
                        at,
                    } => {
                        let outcome = JobOutcome::from_der(outcome_der)
                            .map_err(|e| NjsError::Store(StoreError::Codec(e)))?;
                        if let Some(rt) = self.jobs.get_mut(job) {
                            // A finished job is never addressed by node
                            // again, so the stored tree is taken as it is.
                            rt.outcome = outcome;
                            rt.states.fill(NodeState::Terminal);
                            rt.done = true;
                            rt.finished_at = Some(*at);
                            let login = &rt.user.login;
                            let v = &mut self.vsites[rt.vsite];
                            for entry in manifest {
                                match entry {
                                    // Journals from before the by-reference
                                    // form carry the contents themselves.
                                    ManifestEntry::Inline { name, data } => {
                                        let _ = v.vspace.write_uspace_file(
                                            *job,
                                            name,
                                            &data[..],
                                            login,
                                        );
                                    }
                                    // The job's earlier records have just
                                    // rebuilt the Uspace; a file that is not
                                    // there as stated means the journal lost
                                    // bytes, and a silently empty or stale
                                    // file must not be served in their place.
                                    ManifestEntry::Stored { name, len } => {
                                        let found = v
                                            .vspace
                                            .uspace(*job)
                                            .ok()
                                            .and_then(|fs| fs.read(name, login).ok())
                                            .map(|f| f.data.len() as u64);
                                        if found != Some(*len) {
                                            return Err(NjsError::Store(
                                                StoreError::ManifestMismatch {
                                                    job: *job,
                                                    name: name.clone(),
                                                    expected: *len,
                                                    found,
                                                },
                                            ));
                                        }
                                    }
                                }
                            }
                        }
                    }
                    StoreEvent::TransferOpened {
                        manifest_der,
                        login,
                        ..
                    } => {
                        let manifest = TransferManifest::from_der(manifest_der)
                            .map_err(|e| NjsError::Store(StoreError::Codec(e)))?;
                        let key = manifest.key();
                        let path = format!("{INCOMING_PREFIX}{}", manifest.dest_name);
                        let vsite = manifest.to_vsite.vsite.clone();
                        if let Some(v) = self.vsites.get_mut(&vsite) {
                            let _ =
                                v.vspace
                                    .xspace()
                                    .begin_partial(&path, manifest.total_len, login);
                            self.incoming.insert(
                                key.clone(),
                                IncomingTransfer {
                                    state: ReceiverState::new(manifest),
                                    login: login.clone(),
                                    vsite,
                                    path,
                                },
                            );
                            // A zero-length transfer is complete at open.
                            if self.incoming[&key].state.is_complete() {
                                let _ = self.finalize_incoming(&key);
                            }
                        }
                    }
                    StoreEvent::TransferChunkStored {
                        origin,
                        origin_job,
                        origin_node,
                        index,
                        data,
                        ..
                    } => {
                        let key = TransferKey {
                            origin: origin.clone(),
                            origin_job: *origin_job,
                            origin_node: *origin_node,
                        };
                        let Some(entry) = self.incoming.get_mut(&key) else {
                            continue;
                        };
                        if entry.state.is_received(*index) {
                            continue;
                        }
                        let offset = entry.state.manifest().chunk_range(*index).start as u64;
                        let (vsite, path, login) =
                            (entry.vsite.clone(), entry.path.clone(), entry.login.clone());
                        if let Some(v) = self.vsites.get_mut(&vsite) {
                            // Bytes were verified against the manifest
                            // before being journalled; replay trusts them.
                            let _ = v.vspace.xspace().write_partial(&path, offset, data, &login);
                            let entry = self.incoming.get_mut(&key).expect("inserted above");
                            entry.state.mark_received(*index);
                            if entry.state.is_complete() {
                                let _ = self.finalize_incoming(&key);
                            }
                        }
                    }
                    StoreEvent::JobPurged { job, .. } => {
                        if let Some(rt) = self.jobs.remove(job) {
                            let _ = self.vsites[rt.vsite].vspace.destroy_uspace(*job);
                        }
                        purged.push(*job);
                    }
                }
            }
            Ok(())
        })();

        if !purged.is_empty() {
            purged.sort_unstable();
            let gone = |j: &JobId| purged.binary_search(j).is_ok();
            self.job_order.retain(|j| !gone(j));
            report.jobs.retain(|j| !gone(j));
            report.idem.retain(|(_, j)| !gone(j));
            report.foreign.retain(|(j, _)| !gone(j));
        }

        // Re-wire surviving parent→child links so the parents poll their
        // children instead of re-consigning them.
        for (child, pjob, pnode) in links {
            if !self.jobs.contains_key(&child) {
                continue;
            }
            if let Some(pos) = self.open_node(pjob, pnode) {
                let parent_rt = self.jobs.get_mut(&pjob).expect("open node");
                parent_rt.states[pos] = NodeState::ChildJob { child };
            }
        }
        // Resume allocation after the highest replayed id, staying in
        // this NJS's id class (replayed ids share its base and stride).
        self.next_job = if max_job == 0 {
            orig_next
        } else {
            orig_next.max(max_job + self.job_stride)
        };
        self.recovering = false;
        // Every unfinished job may have work (in-flight nodes reset to
        // `Waiting`); finished ones are announced once more so the layers
        // above re-deliver what a crash may have swallowed.
        self.wake.clear();
        for id in &self.job_order {
            if self.jobs[id].done {
                self.newly_done.push(*id);
            } else {
                self.wake.insert(*id);
            }
        }
        result?;
        Ok(report)
    }
}
