//! Recovery: journal replay back into the job table.

use super::{ConsignMeta, Njs, NodeState, RecoveryReport};
use crate::error::NjsError;
use std::collections::HashMap;
use std::sync::Arc;
use unicore_ajo::{AbstractJob, JobId, JobOutcome, OutcomeNode};
use unicore_codec::DerCodec;
use unicore_dataplane::{TransferKey, TransferManifest};
use unicore_gateway::MappedUser;
use unicore_sim::SimTime;
use unicore_store::{ManifestEntry, StoreError, StoreEvent};

impl Njs {
    /// Replays the attached journal, rebuilding the job table as it was
    /// at the crash, then resumes dependency-ordered dispatch.
    ///
    /// Every record replays through the live function that journalled
    /// it, with `recovering` keeping the journal write out:
    /// * every `JobConsigned` job is re-admitted by `consign_internal`
    ///   under its original [`JobId`], with its Uspace re-created, staged
    ///   inputs restored, and its idempotency key and peer origin back;
    /// * a `TaskStateChanged` node writes its deposited files into the
    ///   Uspace and terminates through `terminate_node`, which folds it
    ///   into the job's status — it is **never re-submitted to batch**;
    /// * an `OutcomeStored` job takes its stored tree and finishes through
    ///   `mark_done`, ready for the client to poll and fetch; its manifest
    ///   must match the rebuilt Uspace, or recovery fails closed;
    /// * transfers replay through the receiver's `open_incoming` and
    ///   `store_chunk`;
    /// * purged jobs stay gone, keys and origins included;
    /// * nodes that were in flight (queued or running in batch, which
    ///   died with the machine) come back `Waiting` and are re-dispatched
    ///   by the next [`Njs::step`];
    /// * parent–child links are not re-wired here: every link is the
    ///   facade's, and [`crate::ShardedNjs::recover`] rebuilds them all
    ///   from the replayed parent pointers, so a parent waits for its
    ///   child instead of consigning it again, and hands each child its
    ///   root job's portfolio.
    ///
    /// What this rebuilds is [`crate::ShardedNjs::durable_state`]; the
    /// rest is soft state (DESIGN.md, "What a restart keeps").
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
        let mut report = RecoveryReport {
            // The open() repair already trimmed a torn tail if there was
            // one; surface either signal to the caller.
            torn_tail: replay.torn_tail || store.recovered_torn(),
            ..RecoveryReport::default()
        };
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
                        // A child's portfolio is its root job's, which
                        // may live on another shard: the facade hands it
                        // back when it rebuilds the links.
                        let mut portfolio: HashMap<String, Arc<[u8]>> = ajo
                            .portfolio
                            .iter()
                            .map(|p| (p.name.clone(), Arc::clone(&p.data)))
                            .collect();
                        portfolio.extend(staged.iter().cloned());
                        self.next_job = job.0;
                        let got = self.consign_internal(
                            ajo,
                            mapped,
                            Arc::new(portfolio),
                            staged,
                            *parent,
                            *at,
                            ConsignMeta {
                                idem_key: idem_key.clone(),
                                foreign: foreign.clone(),
                                ..ConsignMeta::default()
                            },
                        )?;
                        debug_assert_eq!(got, *job, "journal replay must keep job ids");
                        report.jobs.push(*job);
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
                        let Some(rt) = self.jobs.get(job) else {
                            continue;
                        };
                        let pos = rt.position(*node);
                        let vspace = &mut self.vsites[rt.vsite].vspace;
                        for (name, data) in files {
                            let _ = vspace.write_uspace_file(*job, name, &data[..], &rt.user.login);
                        }
                        if let Some(pos) = pos {
                            // `recovering` keeps the record out of the journal.
                            self.terminate_node(*job, pos, outcome, &[]);
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
                        let Some(rt) = self.jobs.get_mut(job) else {
                            continue;
                        };
                        // A finished job is never addressed by node again,
                        // so the stored tree is taken as it is (an abort's
                        // kills were never journalled node by node).
                        rt.outcome = outcome;
                        rt.states.fill(NodeState::Terminal);
                        let login = &rt.user.login;
                        let v = &mut self.vsites[rt.vsite];
                        for entry in manifest {
                            match entry {
                                // Journals from before the by-reference
                                // form carry the contents themselves.
                                ManifestEntry::Inline { name, data } => {
                                    let _ =
                                        v.vspace.write_uspace_file(*job, name, &data[..], login);
                                }
                                // The job's earlier records have just rebuilt
                                // the Uspace; a file that is not there as
                                // stated means the journal lost bytes, and a
                                // silently empty or stale file must not be
                                // served in their place.
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
                        self.mark_done(*job, *at);
                    }
                    // Transfers replay through the receiver's live path, so
                    // what it rebuilds is what the live receiver held. A
                    // step the live receiver refused was never journalled.
                    StoreEvent::TransferOpened {
                        manifest_der,
                        login,
                        ..
                    } => {
                        let manifest = TransferManifest::from_der(manifest_der)
                            .map_err(|e| NjsError::Store(StoreError::Codec(e)))?;
                        let _ = self.open_incoming(manifest, login);
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
                        // Bytes were verified against the manifest before
                        // being journalled; replay does not hash them again.
                        let _ = self.store_chunk(&key, *index, data);
                    }
                    StoreEvent::JobPurged { job, .. } => {
                        self.forget_job(*job);
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
        }

        // Each replayed consign allocated its own id, so allocation
        // resumes after the highest one, in this NJS's id class.
        self.next_job = orig_next.max(self.next_job);
        self.recovering = false;
        // Every unfinished job may have work (in-flight nodes reset to
        // `Waiting`); finished ones are announced once more, in consign
        // order, so the layers above re-deliver what a crash may have
        // swallowed.
        self.wake.clear();
        self.newly_done.clear();
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
