//! Sharded NJS (E18).
//!
//! [`ShardedNjs`] splits one Usite's job state by Vsite into N
//! independent [`Njs`] shards, each owning its jobs' runtimes, scratch
//! vectors, and (optionally) its own WAL segment that still group-commits
//! once per step. One thread steps the shards in index order to a
//! cross-shard fixpoint; consign intake routes straight to the owning
//! shard.
//!
//! ## Determinism contract
//!
//! Shards step in index order, and cross-shard effects — parent→child
//! sub-job consigns, cross-Vsite Import/Export/Transfer staging — are
//! never applied from inside a shard's step. A shard that needs to touch
//! a sibling's state queues a typed `CrossShardItem` instead; between
//! rounds the facade collects every shard's queue and applies the items
//! in `sort_key` order, `(target shard, job id, node id)`. Job ids are
//! strided per shard (shard k of N allocates `k+1, k+1+N, …`). Terminal
//! [`JobOutcome`] DER contains neither ids nor timestamps, so terminal
//! outcomes are byte-identical to the one-shard run for every shard
//! count — the same contract the chaos and broker soaks gate on.
//!
//! ## Behavioural notes
//!
//! * A sub-job whose target Vsite lives on a sibling shard behaves like
//!   a remote job group: its parent node shows `Consigned` until the
//!   child finishes (an in-shard child's live status is mirrored every
//!   step). Terminal outcomes are unaffected.
//! * `Abort` kills cross-shard children too (the facade forwards the
//!   abort to each linked child's shard).
//! * With one shard the facade is a zero-cost pass-through and behaves
//!   exactly like a bare [`Njs`]; `From<Njs>` wraps existing call sites.

use crate::accounting::{usage_report, UsageReport, UsageRow};
use crate::error::NjsError;
use crate::njs::cross::CrossShardItem;
use crate::njs::{ConsignMeta, Njs, OutgoingItem, RecoveryReport, VsiteRuntime};
use crate::translation::TranslationTable;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ActionId, ControlOp, DetailLevel, JobId, JobOutcome, JobSummary, MonitorReport,
    OutcomeNode, TaskOutcome,
};
use unicore_dataplane::TransferManifest;
use unicore_gateway::MappedUser;
use unicore_resources::ResourcePage;
use unicore_sim::SimTime;
use unicore_store::EventStore;
use unicore_telemetry::{FlightRecorder, SpanContext, Telemetry};

/// A cross-shard parent→child link, keyed by `(parent job, parent
/// node)` in the facade's registry. The merge phase polls the child's
/// shard and completes the parent node when the child finishes —
/// the cross-shard analogue of `poll_child_node`.
#[derive(Debug, Clone)]
struct Link {
    child: JobId,
    child_shard: usize,
    parent_shard: usize,
    /// Files named on the parent node's outgoing edges, pulled from the
    /// child's Uspace into the parent's on completion.
    return_files: Vec<String>,
    delivered: bool,
}

/// N independent NJS shards behind the exact API of one [`Njs`].
pub struct ShardedNjs {
    usite: String,
    shards: Vec<Njs>,
    /// Vsite name → owning shard (round-robin in registration order).
    vsite_shard: HashMap<String, usize>,
    /// Global Vsite order, as registered (spans all shards).
    vsite_order: Vec<String>,
    /// Cross-shard parent→child links, sorted by key for deterministic
    /// merge iteration.
    links: BTreeMap<(JobId, ActionId), Link>,
    /// Jobs (on any shard) that finished since the last
    /// [`ShardedNjs::take_newly_done`].
    newly_done: Vec<JobId>,
}

impl ShardedNjs {
    /// A sharded NJS for `usite` with `shards` shards (clamped to at
    /// least 1; one shard behaves exactly like a bare [`Njs`]).
    /// `_workers` is accepted and ignored: one thread steps every shard.
    pub fn new(usite: impl Into<String>, shards: usize, _workers: usize) -> Self {
        let usite = usite.into();
        let n = shards.max(1);
        let shards: Vec<Njs> = (0..n)
            .map(|k| {
                let mut shard = Njs::new(usite.clone());
                shard.set_id_allocation(k as u64 + 1, n as u64);
                shard
            })
            .collect();
        ShardedNjs {
            usite,
            shards,
            vsite_shard: HashMap::new(),
            vsite_order: Vec::new(),
            links: BTreeMap::new(),
            newly_done: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// This Usite's name.
    pub fn usite(&self) -> &str {
        &self.usite
    }

    /// Registers a Vsite, assigning it to a shard round-robin in
    /// registration order (deterministic) and teaching every other
    /// shard to route work for it across the shard boundary.
    pub fn add_vsite(&mut self, page: ResourcePage, table: TranslationTable) {
        let name = page.vsite.vsite.clone();
        let shard = self.vsite_order.len() % self.shards.len();
        self.shards[shard].add_vsite(page, table);
        for (i, s) in self.shards.iter_mut().enumerate() {
            if i != shard {
                s.register_sibling(name.clone(), shard);
            }
        }
        self.vsite_shard.insert(name.clone(), shard);
        self.vsite_order.push(name);
    }

    /// Owning shard for a job id: shard k allocates `k+1, k+1+N, …`,
    /// so `(id − 1) mod N` inverts the stride.
    fn shard_of_job(&self, job: JobId) -> usize {
        if job.0 == 0 {
            return 0;
        }
        ((job.0 - 1) % self.shards.len() as u64) as usize
    }

    /// Owning shard for a Vsite name. Unknown Vsites (and wrong-Usite
    /// addresses) fall back to shard 0, whose own validation then
    /// produces the correct `UnknownVsite` / `WrongUsite` error.
    fn shard_of_vsite(&self, vsite: &str) -> usize {
        self.vsite_shard.get(vsite).copied().unwrap_or(0)
    }

    // ---- consign intake (routed to the owning shard) ------------------

    /// Consigns a top-level AJO, routed to the shard owning its Vsite.
    pub fn consign(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        now: SimTime,
    ) -> Result<JobId, NjsError> {
        let shard = self.shard_of_vsite(&job.vsite.vsite);
        self.shards[shard].consign(job, user, now)
    }

    /// Consigns a top-level AJO with journal metadata.
    pub fn consign_with_meta(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        now: SimTime,
        meta: ConsignMeta,
    ) -> Result<JobId, NjsError> {
        let shard = self.shard_of_vsite(&job.vsite.vsite);
        self.shards[shard].consign_with_meta(job, user, now, meta)
    }

    /// Consigns a job group arriving from a peer NJS.
    pub fn consign_from_peer(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        now: SimTime,
    ) -> Result<JobId, NjsError> {
        let shard = self.shard_of_vsite(&job.vsite.vsite);
        self.shards[shard].consign_from_peer(job, user, now)
    }

    /// Consigns a peer job group with journal metadata.
    pub fn consign_from_peer_with_meta(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        now: SimTime,
        meta: ConsignMeta,
    ) -> Result<JobId, NjsError> {
        let shard = self.shard_of_vsite(&job.vsite.vsite);
        self.shards[shard].consign_from_peer_with_meta(job, user, now, meta)
    }

    // ---- the sharded step loop ---------------------------------------

    /// Drives all shards forward to `now`: rounds in which every shard
    /// steps once, in index order, alternate with merge phases until a
    /// cross-shard fixpoint.
    pub fn step(&mut self, now: SimTime) {
        loop {
            for shard in &mut self.shards {
                shard.step(now);
            }
            if !self.merge(now) {
                break;
            }
        }
    }

    /// The merge phase: drains every shard's queued cross-shard items,
    /// applies them in `(shard, job, node)` order, then completes parent
    /// nodes whose cross-shard children finished. Returns whether
    /// anything changed (the step loop then runs another round).
    fn merge(&mut self, now: SimTime) -> bool {
        let mut progressed = false;

        let mut items: Vec<CrossShardItem> = Vec::new();
        for shard in &mut self.shards {
            shard.drain_cross_shard(&mut items);
        }
        items.sort_by_key(|i| i.sort_key());
        for item in items {
            progressed = true;
            match item {
                CrossShardItem::ConsignChild {
                    parent,
                    node,
                    shard,
                    ajo,
                    staged,
                    user,
                    portfolio,
                    trace,
                } => {
                    if self.links.contains_key(&(parent, node)) {
                        continue; // duplicate emission (e.g. around a replay)
                    }
                    let parent_shard = self.shard_of_job(parent);
                    let meta = ConsignMeta {
                        trace,
                        ..ConsignMeta::default()
                    };
                    match self.shards[shard].consign_internal(
                        *ajo,
                        user,
                        portfolio,
                        staged,
                        Some((parent, node)),
                        now,
                        meta,
                    ) {
                        Ok(child) => {
                            let return_files =
                                self.shards[parent_shard].edge_return_files(parent, node);
                            self.links.insert(
                                (parent, node),
                                Link {
                                    child,
                                    child_shard: shard,
                                    parent_shard,
                                    return_files,
                                    delivered: false,
                                },
                            );
                        }
                        Err(_) => {
                            self.shards[parent_shard].fail_subjob_node(parent, node);
                        }
                    }
                }
                CrossShardItem::ImportXspace {
                    job,
                    node,
                    shard,
                    src_vsite,
                    path,
                    uspace_name,
                    login,
                } => {
                    let data = self.shards[shard].xspace_read(&src_vsite, &path, &login);
                    let owner = self.shard_of_job(job);
                    self.shards[owner].finish_import(job, node, &uspace_name, data, now);
                }
                CrossShardItem::DeliverXspace {
                    job,
                    node,
                    shard,
                    to_vsite,
                    path,
                    data,
                    bytes,
                    login,
                } => {
                    let result = self.shards[shard].xspace_write(&to_vsite, &path, data, &login);
                    let outcome = match result {
                        Ok(()) => TaskOutcome {
                            status: unicore_ajo::ActionStatus::Successful,
                            bytes_staged: bytes,
                            ..Default::default()
                        },
                        Err(e) => TaskOutcome::failure(e),
                    };
                    let owner = self.shard_of_job(job);
                    self.shards[owner].finish_file_node(job, node, outcome, now);
                }
                CrossShardItem::DeliverIncoming {
                    job,
                    node,
                    shard,
                    to_vsite,
                    dest_name,
                    data,
                    bytes,
                    login,
                } => {
                    let result = self.shards[shard]
                        .receive_incoming_file(&to_vsite, &dest_name, data, &login);
                    let outcome = match result {
                        Ok(()) => TaskOutcome {
                            status: unicore_ajo::ActionStatus::Successful,
                            bytes_staged: bytes,
                            ..Default::default()
                        },
                        Err(e) => TaskOutcome::failure(e.to_string()),
                    };
                    let owner = self.shard_of_job(job);
                    self.shards[owner].finish_file_node(job, node, outcome, now);
                }
            }
        }

        // Complete parent nodes whose cross-shard children finished:
        // each shard names the jobs that just finished, and a finished
        // child names its own link. Sorted, so this runs in the same
        // (parent job, node) order a walk of the registry would.
        let mut due: Vec<(JobId, ActionId)> = Vec::new();
        for shard in &mut self.shards {
            for job in shard.take_newly_done() {
                if let Some(key) = shard.parent_of(job) {
                    if self.links.get(&key).is_some_and(|l| !l.delivered) {
                        due.push(key);
                    }
                }
                self.newly_done.push(job);
            }
        }
        due.sort_unstable();
        for (pjob, pnode) in due {
            let link = self.links.get(&(pjob, pnode)).expect("collected above");
            let (child, child_shard, parent_shard) =
                (link.child, link.child_shard, link.parent_shard);
            let outcome = self.shards[child_shard]
                .outcome(child)
                .cloned()
                .unwrap_or_default();
            let files =
                self.shards[child_shard].collect_return_files(child, &link.return_files.clone());
            self.shards[parent_shard].complete_remote_node_with_files(
                pjob,
                pnode,
                OutcomeNode::Job(outcome),
                files,
            );
            self.links
                .get_mut(&(pjob, pnode))
                .expect("present")
                .delivered = true;
            progressed = true;
        }
        progressed
    }

    /// Jobs that finished — by stepping, abort, or journal replay — since
    /// the last call. The server reports finished foreign jobs from this
    /// list instead of scanning every job it is owed.
    pub fn take_newly_done(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.newly_done)
    }

    /// Earliest future event across every shard's Vsites.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(|s| s.next_event_time()).min()
    }

    // ---- WAL segments and recovery -----------------------------------

    /// Attaches one WAL segment per shard (`stores.len()` must equal
    /// the shard count). Each shard group-commits its own segment once
    /// per step, independently of its siblings.
    pub fn attach_stores(&mut self, stores: Vec<EventStore>) {
        assert_eq!(stores.len(), self.shards.len(), "one WAL segment per shard");
        for (shard, store) in self.shards.iter_mut().zip(stores) {
            shard.attach_store(store);
        }
    }

    /// Single-segment compatibility: attaches `store` to the only shard.
    ///
    /// # Panics
    /// Panics on a facade with more than one shard — journalling shard 0
    /// alone would lose every other shard's jobs at the next crash.
    pub fn attach_store(&mut self, store: EventStore) {
        assert_eq!(self.shards.len(), 1, "use attach_stores with >1 shard");
        self.shards[0].attach_store(store);
    }

    /// Shard 0's event store (single-shard compatibility accessor).
    pub fn store_mut(&mut self) -> Option<&mut EventStore> {
        self.shards[0].store_mut()
    }

    /// A specific shard's event store.
    pub fn shard_store_mut(&mut self, shard: usize) -> Option<&mut EventStore> {
        self.shards.get_mut(shard).and_then(|s| s.store_mut())
    }

    /// Replays every shard's journal, merges the recovery reports, and
    /// rebuilds the cross-shard link registry so parents resume polling
    /// children that live on sibling shards. Children whose consign
    /// never reached the sibling's WAL are simply re-dispatched by the
    /// parent's next step — the merge-phase dedup keeps that exact-once.
    pub fn recover(&mut self, now: SimTime) -> Result<RecoveryReport, NjsError> {
        let mut merged = RecoveryReport::default();
        for shard in &mut self.shards {
            let report = shard.recover(now)?;
            merged.jobs.extend(report.jobs);
            merged.idem.extend(report.idem);
            merged.foreign.extend(report.foreign);
            merged.torn_tail |= report.torn_tail;
        }
        merged.jobs.sort();
        merged.idem.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        merged.foreign.sort_by_key(|(job, _)| *job);
        self.rebuild_links();
        Ok(merged)
    }

    /// Rebuilds the cross-shard link registry from each shard's
    /// replayed parent pointers (in-shard links were already re-wired
    /// by [`Njs::recover`] itself).
    fn rebuild_links(&mut self) {
        let mut all: Vec<(JobId, JobId, ActionId)> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.parent_links());
        }
        all.sort();
        for (child, pjob, pnode) in all {
            let parent_shard = self.shard_of_job(pjob);
            let child_shard = self.shard_of_job(child);
            if parent_shard == child_shard {
                continue;
            }
            if !self.shards[parent_shard].has_job(pjob) {
                continue; // parent purged; the child is orphaned
            }
            let delivered = self.shards[parent_shard].node_is_terminal(pjob, pnode);
            let return_files = self.shards[parent_shard].edge_return_files(pjob, pnode);
            if !delivered {
                self.shards[parent_shard].mark_node_remote(pjob, pnode);
            }
            self.links.insert(
                (pjob, pnode),
                Link {
                    child,
                    child_shard,
                    parent_shard,
                    return_files,
                    delivered,
                },
            );
        }
    }

    /// The cross-shard links under `parent`, in node order — a range of
    /// the registry, not a walk over every link the site holds.
    fn links_of(&self, parent: JobId) -> impl Iterator<Item = (&(JobId, ActionId), &Link)> {
        self.links
            .range((parent, ActionId(0))..=(parent, ActionId(u64::MAX)))
    }

    // ---- routed job operations ---------------------------------------

    /// The Query service (ownership enforced by DN).
    pub fn query(&self, job: JobId, dn: &str, detail: DetailLevel) -> Result<JobOutcome, NjsError> {
        self.shards[self.shard_of_job(job)].query(job, dn, detail)
    }

    /// Applies a user control operation. `Abort` also aborts any
    /// cross-shard children linked under the job (recursively).
    pub fn control(
        &mut self,
        job: JobId,
        op: ControlOp,
        dn: &str,
        now: SimTime,
    ) -> Result<bool, NjsError> {
        let shard = self.shard_of_job(job);
        let acted = self.shards[shard].control(job, op, dn, now)?;
        if acted && matches!(op, ControlOp::Abort) {
            let mut stack = vec![job];
            while let Some(parent) = stack.pop() {
                let children: Vec<(JobId, usize)> = self
                    .links_of(parent)
                    .filter(|(_, link)| !link.delivered)
                    .map(|(_, link)| (link.child, link.child_shard))
                    .collect();
                for (child, shard) in children {
                    let _ = self.shards[shard].control(child, ControlOp::Abort, dn, now);
                    stack.push(child);
                }
            }
        }
        Ok(acted)
    }

    /// Purges a finished job, its local descendants, and (recursively)
    /// its cross-shard children. Returns bytes freed.
    pub fn purge(&mut self, job: JobId, dn: &str) -> Result<u64, NjsError> {
        let shard = self.shard_of_job(job);
        let mut freed = self.shards[shard].purge(job, dn)?;
        let mut stack = vec![job];
        while let Some(parent) = stack.pop() {
            let children: Vec<((JobId, ActionId), JobId, usize)> = self
                .links_of(parent)
                .map(|(key, link)| (*key, link.child, link.child_shard))
                .collect();
            for (key, child, shard) in children {
                self.links.remove(&key);
                if let Ok(n) = self.shards[shard].purge(child, dn) {
                    freed += n;
                }
                stack.push(child);
            }
        }
        Ok(freed)
    }

    /// The List service: root jobs owned by `dn`, merged across shards
    /// in job-id order (identical to a single shard's consign order).
    pub fn list_jobs(&self, dn: &str) -> Vec<JobSummary> {
        if self.shards.len() == 1 {
            return self.shards[0].list_jobs(dn);
        }
        let mut jobs: Vec<JobSummary> = self.shards.iter().flat_map(|s| s.list_jobs(dn)).collect();
        jobs.sort_by_key(|j| j.job);
        jobs
    }

    /// The job's current outcome tree.
    pub fn outcome(&self, job: JobId) -> Option<&JobOutcome> {
        self.shards[self.shard_of_job(job)].outcome(job)
    }

    /// Whether a job has finished.
    pub fn is_done(&self, job: JobId) -> bool {
        self.shards[self.shard_of_job(job)].is_done(job)
    }

    /// The DN of the user who consigned `job`.
    pub fn owner_dn(&self, job: JobId) -> Option<String> {
        self.shards[self.shard_of_job(job)].owner_dn(job)
    }

    /// Consign → finish duration, once finished.
    pub fn turnaround(&self, job: JobId) -> Option<SimTime> {
        self.shards[self.shard_of_job(job)].turnaround(job)
    }

    /// The trace context of a consigned job.
    pub fn trace_of(&self, job: JobId) -> Option<SpanContext> {
        self.shards[self.shard_of_job(job)].trace_of(job)
    }

    /// Fetches a file from a job's Uspace.
    pub fn fetch_uspace_file(&self, job: JobId, name: &str, dn: &str) -> Result<Vec<u8>, NjsError> {
        self.shards[self.shard_of_job(job)].fetch_uspace_file(job, name, dn)
    }

    /// Lists the files in a job's Uspace.
    pub fn list_uspace_files(&self, job: JobId, dn: &str) -> Result<Vec<String>, NjsError> {
        self.shards[self.shard_of_job(job)].list_uspace_files(job, dn)
    }

    /// Completes a node whose work happened at a peer Usite.
    pub fn complete_remote_node(&mut self, job: JobId, node: ActionId, outcome: OutcomeNode) {
        let shard = self.shard_of_job(job);
        self.shards[shard].complete_remote_node(job, node, outcome);
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
        let shard = self.shard_of_job(job);
        let files = files.into_iter().map(|(n, d)| (n, d.into())).collect();
        self.shards[shard].complete_remote_node_with_files(job, node, outcome, files);
    }

    /// Reads edge-result files from a job's Uspace.
    pub fn collect_return_files(&self, job: JobId, names: &[String]) -> Vec<(String, Arc<[u8]>)> {
        self.shards[self.shard_of_job(job)].collect_return_files(job, names)
    }

    /// Journals a broker placement decision for `job`.
    pub fn journal_placement(
        &mut self,
        job: JobId,
        node: ActionId,
        chosen: &str,
        excluded: &[String],
        attempt: u32,
    ) {
        let shard = self.shard_of_job(job);
        self.shards[shard].journal_placement(job, node, chosen, excluded, attempt);
    }

    /// Sender-side transfer progress note.
    pub fn note_transfer_progress(&mut self, job: JobId, node: ActionId, bytes: u64, total: u64) {
        let shard = self.shard_of_job(job);
        self.shards[shard].note_transfer_progress(job, node, bytes, total);
    }

    // ---- data plane (routed by destination Vsite / probed by key) ----

    /// Receives a whole file pushed from a peer Usite.
    pub fn receive_incoming_file(
        &mut self,
        vsite: &str,
        dest_name: &str,
        data: Vec<u8>,
        login: &str,
    ) -> Result<(), NjsError> {
        let shard = self.shard_of_vsite(vsite);
        self.shards[shard].receive_incoming_file(vsite, dest_name, data, login)
    }

    /// Opens (or resumes) an incoming chunked transfer.
    pub fn transfer_offer(
        &mut self,
        manifest: TransferManifest,
        login: &str,
    ) -> Result<u64, NjsError> {
        let shard = if manifest.to_vsite.usite == self.usite {
            self.shard_of_vsite(&manifest.to_vsite.vsite)
        } else {
            0 // shard 0's validation produces the UnknownVsite error
        };
        self.shards[shard].transfer_offer(manifest, login)
    }

    /// Accepts one chunk of an open incoming transfer, routed to the
    /// shard holding the receiver state.
    pub fn transfer_chunk(
        &mut self,
        origin: &str,
        origin_job: JobId,
        origin_node: ActionId,
        index: u64,
        data: &[u8],
    ) -> Result<(u64, bool), NjsError> {
        let shard = (0..self.shards.len())
            .find(|&i| self.shards[i].has_incoming(origin, origin_job, origin_node))
            .unwrap_or(0);
        self.shards[shard].transfer_chunk(origin, origin_job, origin_node, index, data)
    }

    /// Progress of an incoming transfer.
    pub fn incoming_progress(
        &self,
        origin: &str,
        origin_job: JobId,
        origin_node: ActionId,
    ) -> Option<(u64, u64)> {
        self.shards
            .iter()
            .find_map(|s| s.incoming_progress(origin, origin_job, origin_node))
    }

    /// Times incoming offers resumed from a journaled watermark.
    pub fn transfer_resumes(&self) -> u64 {
        self.shards.iter().map(|s| s.transfer_resumes()).sum()
    }

    // ---- federation plumbing and aggregates --------------------------

    /// Takes everything waiting for the federation layer, concatenated
    /// in shard order.
    pub fn take_outbox(&mut self) -> Vec<OutgoingItem> {
        let mut out = Vec::new();
        for shard in &mut self.shards {
            out.append(&mut shard.take_outbox());
        }
        out
    }

    /// Wires every shard to a telemetry handle (counters are shared via
    /// the registry) and unifies their flight recorders into one ring.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for shard in &mut self.shards {
            shard.set_telemetry(telemetry.clone());
        }
        let flight = self.shards[0].flight().clone();
        for shard in &mut self.shards[1..] {
            shard.set_flight(flight.clone());
        }
    }

    /// The telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        self.shards[0].telemetry()
    }

    /// The shared flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        self.shards[0].flight()
    }

    /// Overrides the slow-dispatch watchdog threshold on every shard.
    pub fn set_watchdog_threshold(&mut self, threshold: SimTime) {
        for shard in &mut self.shards {
            shard.set_watchdog_threshold(threshold);
        }
    }

    /// Jobs flagged by the slow-dispatch watchdog, merged across shards.
    pub fn stuck_jobs_by_vsite(&self, now: SimTime) -> HashMap<String, i64> {
        let mut merged: HashMap<String, i64> = HashMap::new();
        for shard in &self.shards {
            for (vsite, n) in shard.stuck_jobs_by_vsite(now) {
                *merged.entry(vsite).or_default() += n;
            }
        }
        merged
    }

    /// WAL tail repairs summed across every shard's segment.
    pub fn wal_repairs(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_repairs()).sum()
    }

    /// Total incarnations performed across shards.
    pub fn incarnation_count(&self) -> u64 {
        self.shards.iter().map(|s| s.incarnation_count()).sum()
    }

    /// The Monitor service: one merged health report covering every
    /// shard's Vsites, in global registration order, with the WAL
    /// repair counter summed over all segments.
    pub fn monitor_report(&self, now: SimTime) -> MonitorReport {
        let mut report = self.shards[0].monitor_report(now);
        if self.shards.len() > 1 {
            let mut total_stuck: i64 = report.vsites.iter().map(|v| v.stuck_jobs).sum();
            for shard in &self.shards[1..] {
                let r = shard.monitor_report(now);
                total_stuck += r.vsites.iter().map(|v| v.stuck_jobs).sum::<i64>();
                report.vsites.extend(r.vsites);
            }
            let order: HashMap<&String, usize> = self
                .vsite_order
                .iter()
                .enumerate()
                .map(|(i, name)| (name, i))
                .collect();
            report
                .vsites
                .sort_by_key(|v| order.get(&v.vsite).copied().unwrap_or(usize::MAX));
            report
                .metrics
                .counters
                .insert("store.wal.repairs".into(), self.wal_repairs());
            self.telemetry()
                .gauge("njs.watchdog.stuck")
                .set(total_stuck);
        }
        report
    }

    /// The merged per-(Vsite, login) usage report (Vsites are disjoint
    /// across shards, so this is a sorted concatenation).
    pub fn usage_report(&self) -> UsageReport {
        if self.shards.len() == 1 {
            return usage_report(&self.shards[0]);
        }
        let mut agg: BTreeMap<(String, String), UsageRow> = BTreeMap::new();
        for shard in &self.shards {
            for row in usage_report(shard).rows {
                agg.insert((row.vsite.clone(), row.login.clone()), row);
            }
        }
        UsageReport {
            rows: agg.into_values().collect(),
        }
    }

    // ---- Vsite access -------------------------------------------------

    /// Names of the Vsites served here, in registration order.
    pub fn vsite_names(&self) -> &[String] {
        &self.vsite_order
    }

    /// Read access to a Vsite's runtime.
    pub fn vsite(&self, name: &str) -> Option<&VsiteRuntime> {
        self.shards[self.shard_of_vsite(name)].vsite(name)
    }

    /// Mutable access to a Vsite's runtime.
    pub fn vsite_mut(&mut self, name: &str) -> Option<&mut VsiteRuntime> {
        let shard = self.shard_of_vsite(name);
        self.shards[shard].vsite_mut(name)
    }
}

impl From<Njs> for ShardedNjs {
    /// Wraps an already-configured single NJS as a one-shard facade,
    /// preserving all of its state (jobs, Vsites, store, telemetry).
    fn from(njs: Njs) -> Self {
        let usite = njs.usite().to_owned();
        let vsite_order = njs.vsite_names().to_vec();
        let vsite_shard = vsite_order.iter().map(|n| (n.clone(), 0)).collect();
        ShardedNjs {
            usite,
            shards: vec![njs],
            vsite_shard,
            vsite_order,
            links: BTreeMap::new(),
            newly_done: Vec::new(),
        }
    }
}
