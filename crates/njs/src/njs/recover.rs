//! Recovery: journal replay back into the job table, and the link
//! registry rebuilt from the replayed parent pointers.

use super::{ConsignMeta, NodeState, RecoveryReport, ShardedNjs};
use crate::error::NjsError;
use crate::IdemKey;
use std::collections::HashMap;
use std::sync::Arc;
use unicore_ajo::{AbstractJob, ActionId, JobId, JobOutcome, OutcomeNode};
use unicore_codec::DerCodec;
use unicore_dataplane::{TransferKey, TransferManifest};
use unicore_gateway::MappedUser;
use unicore_sim::SimTime;
use unicore_store::{ForeignOriginRef, ManifestEntryRef, StoreError, StoreEventRef};

impl ShardedNjs {
    /// Replays the attached journal and rebuilds the link registry so
    /// parents wait for their children again. Every live job gets back
    /// the idempotency key and the peer origin its consign journalled.
    /// Children whose consign never reached the WAL are simply
    /// re-dispatched by the parent's next step — the merge-phase dedup
    /// keeps that exact-once.
    pub fn recover(&mut self, now: SimTime) -> Result<RecoveryReport, NjsError> {
        let mut report = self.replay_journal(now)?;
        report.jobs.sort_unstable();
        self.rebuild_links();
        Ok(report)
    }

    /// Rebuilds the link registry from the replayed parent pointers, and
    /// hands each child the portfolio it shared with its root job when it
    /// was consigned.
    fn rebuild_links(&mut self) {
        let mut all: Vec<(JobId, JobId, ActionId)> = self.parent_links();
        all.sort();
        let parents: HashMap<JobId, JobId> = all.iter().map(|&(c, p, _)| (c, p)).collect();
        for (child, pjob, pnode) in all {
            if self.portfolio_of(pjob).is_none() {
                continue; // parent purged; the child is orphaned
            }
            let mut root = pjob;
            while let Some(&up) = parents.get(&root) {
                root = up;
            }
            if let Some(portfolio) = self.portfolio_of(root) {
                self.set_portfolio(child, portfolio);
            }
            let delivered = self.node_is_terminal(pjob, pnode);
            if !delivered {
                self.mark_node_remote(pjob, pnode);
            }
            let link = self.link(pjob, pnode, child, delivered);
            self.links.insert((pjob, pnode), link);
        }
    }

    /// Replays the attached journal, rebuilding the job table as it was
    /// at the crash, then resumes dependency-ordered dispatch.
    ///
    /// The journal is read once and every record in it CRC-checked and
    /// decoded before the first is applied, so a damaged record fails
    /// recovery before anything has changed. The records are borrowed
    /// from the journal's bytes; what the job table keeps (owner strings,
    /// idempotency key, peer origin, one shared buffer per file) is copied
    /// out as it is applied.
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
    ///   by the next [`ShardedNjs::step`];
    /// * parent–child links are not re-wired here: `rebuild_links` does
    ///   that afterwards from the replayed parent pointers, so a parent
    ///   waits for its child instead of consigning it again, and hands
    ///   each child its root job's portfolio.
    ///
    /// What `recover` rebuilds is [`ShardedNjs::durable_state`]; the rest
    /// is soft state (DESIGN.md, "What a restart keeps").
    ///
    /// Call after the Vsites are registered and the store is attached,
    /// before the first `step`. A missing store recovers nothing.
    fn replay_journal(&mut self, now: SimTime) -> Result<RecoveryReport, NjsError> {
        let Some(store) = &self.store else {
            return Ok(RecoveryReport::default());
        };
        let journal = store.read_journal().map_err(NjsError::Store)?;
        let (events, torn_tail) = journal.events().map_err(NjsError::Store)?;
        self.clock = self.clock.max(now);
        self.recovering = true;
        let orig_next = self.next_job;
        let mut report = RecoveryReport {
            // The open() repair already trimmed a torn tail if there was
            // one; surface either signal to the caller.
            torn_tail: torn_tail || store.recovered_torn(),
            ..RecoveryReport::default()
        };
        // Purged ids, dropped from the report in one pass at the end (ids
        // are never reused, so deferring is exact).
        let mut purged: Vec<JobId> = Vec::new();

        let result = (|| -> Result<(), NjsError> {
            for event in events {
                match event {
                    StoreEventRef::JobConsigned {
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
                        let mapped = Arc::new(MappedUser {
                            dn: user.dn.to_owned(),
                            login: user.login.to_owned(),
                            account_group: user.account_group.to_owned(),
                        });
                        // The record's bytes are copied out of the journal
                        // once; the Uspace and the portfolio share them.
                        let staged: Vec<(String, Arc<[u8]>)> = staged
                            .into_iter()
                            .map(|(n, d)| (n.to_owned(), Arc::from(d)))
                            .collect();
                        // A child's portfolio is its root job's, which
                        // `rebuild_links` hands back once every job is
                        // replayed.
                        let mut portfolio: HashMap<String, Arc<[u8]>> = ajo
                            .portfolio
                            .iter()
                            .map(|p| (p.name.clone(), Arc::clone(&p.data)))
                            .collect();
                        portfolio.extend(staged.iter().cloned());
                        self.next_job = job.0;
                        let preds = ajo.dependency_index();
                        let portfolio = self.share_portfolio(portfolio);
                        let got = self.consign_internal(
                            ajo,
                            preds,
                            mapped,
                            portfolio,
                            staged,
                            parent,
                            at,
                            ConsignMeta {
                                idem_key: IdemKey::from(idem_key),
                                foreign: foreign.as_ref().map(ForeignOriginRef::to_owned),
                                ..ConsignMeta::default()
                            },
                        )?;
                        debug_assert_eq!(got, job, "journal replay must keep job ids");
                        report.jobs.push(job);
                    }
                    // Incarnations are informational: in-flight batch work
                    // died with the machine and is re-dispatched fresh.
                    StoreEventRef::JobIncarnated { .. } => {}
                    // Placements likewise: a restarted server re-derives
                    // them from the same seed; the journal is the audit
                    // trail the determinism tests compare.
                    StoreEventRef::PlacementDecided { .. } => {}
                    StoreEventRef::TaskStateChanged {
                        job,
                        node,
                        outcome_der,
                        files,
                        ..
                    } => {
                        let outcome = OutcomeNode::from_der(outcome_der)
                            .map_err(|e| NjsError::Store(StoreError::Codec(e)))?;
                        let Some(rt) = self.jobs.get(&job) else {
                            continue;
                        };
                        let pos = rt.position(node);
                        let vspace = &mut self.vsites[rt.vsite].vspace;
                        for (name, data) in files {
                            let _ = vspace.write_uspace_file(job, name, data, &rt.user.login);
                        }
                        if let Some(pos) = pos {
                            // `recovering` keeps the record out of the journal.
                            self.terminate_node(job, pos, outcome, &[]);
                        }
                    }
                    StoreEventRef::OutcomeStored {
                        job,
                        outcome_der,
                        manifest,
                        at,
                    } => {
                        let outcome = JobOutcome::from_der(outcome_der)
                            .map_err(|e| NjsError::Store(StoreError::Codec(e)))?;
                        let Some(rt) = self.jobs.get_mut(&job) else {
                            continue;
                        };
                        // A finished job is never addressed by node again,
                        // so the stored tree is taken as it is (an abort's
                        // kills were never journalled node by node).
                        rt.outcome = outcome;
                        rt.states.fill(NodeState::Terminal);
                        rt.open = 0;
                        let login = &rt.user.login;
                        let v = &mut self.vsites[rt.vsite];
                        for entry in manifest {
                            match entry {
                                // Journals from before the by-reference
                                // form carry the contents themselves.
                                ManifestEntryRef::Inline { name, data } => {
                                    let _ = v.vspace.write_uspace_file(job, name, data, login);
                                }
                                // The job's earlier records have just rebuilt
                                // the Uspace; a file that is not there as
                                // stated means the journal lost bytes, and a
                                // silently empty or stale file must not be
                                // served in their place.
                                ManifestEntryRef::Stored { name, len } => {
                                    let found = v
                                        .vspace
                                        .uspace(job)
                                        .ok()
                                        .and_then(|fs| fs.read(name, login).ok())
                                        .map(|f| f.data.len() as u64);
                                    if found != Some(len) {
                                        return Err(NjsError::Store(
                                            StoreError::ManifestMismatch {
                                                job,
                                                name: name.to_owned(),
                                                expected: len,
                                                found,
                                            },
                                        ));
                                    }
                                }
                            }
                        }
                        self.mark_done(job, at);
                    }
                    // Transfers replay through the receiver's live path, so
                    // what it rebuilds is what the live receiver held. A
                    // step the live receiver refused was never journalled.
                    StoreEventRef::TransferOpened {
                        manifest_der,
                        login,
                        ..
                    } => {
                        let manifest = TransferManifest::from_der(manifest_der)
                            .map_err(|e| NjsError::Store(StoreError::Codec(e)))?;
                        let _ = self.open_incoming(manifest, login);
                    }
                    StoreEventRef::TransferChunkStored {
                        origin,
                        origin_job,
                        origin_node,
                        index,
                        data,
                        ..
                    } => {
                        let key = TransferKey {
                            origin: origin.to_owned(),
                            origin_job,
                            origin_node,
                        };
                        // Bytes were verified against the manifest before
                        // being journalled; replay does not hash them again.
                        let _ = self.store_chunk(&key, index, data);
                    }
                    StoreEventRef::JobPurged { job, .. } => {
                        self.forget_job(job);
                        self.live.remove(job);
                        purged.push(job);
                    }
                }
            }
            Ok(())
        })();

        if !purged.is_empty() {
            purged.sort_unstable();
            report.jobs.retain(|j| purged.binary_search(j).is_err());
        }

        // Each replayed consign allocated its own id, so allocation
        // resumes after the highest one.
        self.next_job = orig_next.max(self.next_job);
        self.recovering = false;
        // Every unfinished job may have work (in-flight nodes reset to
        // `Waiting`); finished ones are announced once more, in consign
        // order, so the layers above re-deliver what a crash may have
        // swallowed.
        self.wake.clear();
        self.finished.clear();
        for id in self.live.iter() {
            if self.jobs[&id].done {
                self.finished.push(id);
            } else {
                self.wake.insert(id);
            }
        }
        result?;
        Ok(report)
    }
}
