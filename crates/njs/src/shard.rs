//! The NJS engine, sharded (E18).
//!
//! [`ShardedNjs`] splits one Usite's job state by Vsite into N
//! independent shards, each owning its jobs' runtimes, scratch vectors,
//! and (optionally) its own WAL segment that still group-commits once
//! per step. One thread steps the shards in index order to a
//! cross-shard fixpoint; consign intake routes straight to the owning
//! shard.
//!
//! ## Determinism contract
//!
//! Shards step in index order, and effects that cross a Vsite boundary
//! — parent→child sub-job consigns, cross-Vsite Import/Export/Transfer
//! staging — are never applied from inside a shard's step, whether the
//! target Vsite lives on the same shard or not. The shard queues a typed
//! `CrossShardItem` instead; between rounds the facade collects every
//! shard's queue and applies the items in `(target shard, job id, node
//! id)` order, the target shard resolved from the item's Vsite. Job ids
//! are strided per shard (shard k of N allocates `k+1, k+1+N, …`).
//! Terminal [`JobOutcome`] DER contains neither ids nor timestamps, so
//! terminal outcomes are byte-identical for every shard count — the same
//! contract the chaos and broker soaks gate on.
//!
//! ## Behavioural notes
//!
//! * A sub-job at this Usite behaves like a job group at a peer Usite:
//!   its parent node shows `Consigned` until the child finishes, then the
//!   child's whole outcome tree.
//! * `Abort` reaches children through their links: the facade forwards
//!   it to each linked child's shard, and the parent's node reads
//!   `Killed` with no children.
//! * One shard is the same engine, not a short cut: the merge phase runs
//!   for it too. `ShardedNjs::new(usite, 1, 1)` is the plain NJS of a
//!   Usite; a shard is never handed out on its own.
//! * What a consign journals — the idempotency key and the peer origin —
//!   lives with the job on its shard and nowhere else, so the journal
//!   rebuilds it on [`ShardedNjs::recover`] and a purge forgets it.

use crate::accounting::{usage_report, UsageReport, UsageRow};
use crate::error::NjsError;
use crate::njs::cross::CrossShardItem;
use crate::njs::{ConsignMeta, Njs, OutgoingItem, RecoveryReport, VsiteRuntime};
use crate::oracle::WorkOracle;
use crate::translation::TranslationTable;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ActionId, ControlOp, DetailLevel, JobId, JobOutcome, JobSummary, MonitorReport,
    OutcomeNode, VsiteHealth,
};
use unicore_dataplane::TransferManifest;
use unicore_gateway::MappedUser;
use unicore_resources::ResourcePage;
use unicore_sim::SimTime;
use unicore_store::{EventStore, ForeignOrigin};
use unicore_telemetry::{FlightRecorder, SpanContext, Telemetry};

/// A parent→child link at this Usite, keyed by `(parent job, parent
/// node)` in the facade's registry. The merge phase completes the parent
/// node when the child finishes; this is the only way a child's outcome
/// reaches its parent.
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

/// A Usite's NJS: N independent shards behind one API.
pub struct ShardedNjs {
    usite: String,
    shards: Vec<Njs>,
    /// Vsite name → owning shard (round-robin in registration order).
    vsite_shard: HashMap<String, usize>,
    /// Global Vsite order, as registered (spans all shards).
    vsite_order: Vec<String>,
    /// Parent→child links, sorted by key for deterministic merge
    /// iteration.
    links: BTreeMap<(JobId, ActionId), Link>,
    /// Jobs (on any shard) that finished since the last
    /// [`ShardedNjs::take_newly_done`].
    newly_done: Vec<JobId>,
}

impl ShardedNjs {
    /// A sharded NJS for `usite` with `shards` shards (clamped to at
    /// least 1; one shard runs the same merge phase as many).
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

    /// A one-shard NJS for `usite` whose batch work comes from `oracle`
    /// instead of the default deterministic oracle.
    pub fn with_oracle(usite: impl Into<String>, oracle: Box<dyn WorkOracle>) -> Self {
        let mut njs = Self::new(usite, 1, 1);
        njs.shards[0] = Njs::with_oracle(njs.usite.clone(), oracle);
        njs
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
    /// registration order (deterministic).
    pub fn add_vsite(&mut self, page: ResourcePage, table: TranslationTable) {
        let name = page.vsite.vsite.clone();
        let shard = self.vsite_order.len() % self.shards.len();
        self.shards[shard].add_vsite(page, table);
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
    /// produces the correct `UnknownVsite` / `WrongUsite` error (and
    /// `unknown Vsite …` for a file task's Xspace).
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
        self.consign_with_meta(job, user, now, ConsignMeta::default())
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
        self.consign_from_peer_with_meta(job, user, now, ConsignMeta::default())
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

    /// The merge phase: drains every shard's queued cross-Vsite items,
    /// applies them in `(target shard, job, node)` order, then completes
    /// parent nodes whose children finished. Returns whether anything
    /// changed (the step loop then runs another round).
    fn merge(&mut self, now: SimTime) -> bool {
        let mut progressed = false;

        let mut items: Vec<CrossShardItem> = Vec::new();
        for shard in &mut self.shards {
            shard.drain_cross_shard(&mut items);
        }
        items.sort_by_cached_key(|i| (self.shard_of_vsite(i.target_vsite()), i.sort_key()));
        for item in items {
            progressed = true;
            let shard = self.shard_of_vsite(item.target_vsite());
            match item {
                CrossShardItem::ConsignChild {
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
                            let link = self.link(parent, node, child, false);
                            self.links.insert((parent, node), link);
                        }
                        Err(_) => {
                            self.shards[parent_shard].fail_subjob_node(parent, node);
                        }
                    }
                }
                CrossShardItem::ImportXspace {
                    job,
                    node,
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
                    to_vsite,
                    path,
                    data,
                    login,
                } => {
                    let outcome = self.shards[shard].xspace_write(&to_vsite, &path, data, &login);
                    let owner = self.shard_of_job(job);
                    self.shards[owner].finish_file_node(job, node, outcome, now);
                }
            }
        }

        // Complete parent nodes whose children finished, with the files
        // named on the node's outgoing edges ("UNICORE then guarantees
        // that the specified data sets created by the predecessor are
        // available to the successor"): each shard names the jobs that
        // just finished, and a finished child names its own link. Sorted,
        // so this runs in the same (parent job, node) order a walk of the
        // registry would.
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
    /// list instead of scanning every job it is owed: it names each one
    /// once per process life, and once more after a replay.
    pub fn take_newly_done(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.newly_done)
    }

    /// Jobs visited by the step loops of every shard so far. An idle
    /// step — empty wake sets, no batch event due — adds nothing.
    pub fn job_visits(&self) -> u64 {
        self.shards.iter().map(|s| s.job_visits()).sum()
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

    /// Shard 0's event store (single-shard compatibility accessor).
    pub fn store_mut(&mut self) -> Option<&mut EventStore> {
        self.shards[0].store_mut()
    }

    /// A specific shard's event store.
    pub fn shard_store_mut(&mut self, shard: usize) -> Option<&mut EventStore> {
        self.shards.get_mut(shard).and_then(|s| s.store_mut())
    }

    /// Replays every shard's journal, merges the recovery reports, and
    /// rebuilds the link registry so parents wait for their children
    /// again. Every live job gets back the idempotency key and the peer
    /// origin its consign journalled. Children whose consign never reached
    /// the WAL are simply re-dispatched by the parent's next step — the
    /// merge-phase dedup keeps that exact-once.
    pub fn recover(&mut self, now: SimTime) -> Result<RecoveryReport, NjsError> {
        let mut merged = RecoveryReport::default();
        for shard in &mut self.shards {
            let report = shard.recover(now)?;
            merged.jobs.extend(report.jobs);
            merged.torn_tail |= report.torn_tail;
        }
        merged.jobs.sort();
        self.rebuild_links();
        Ok(merged)
    }

    /// Rebuilds the link registry from each shard's replayed parent
    /// pointers, and hands each child the portfolio it shared with its
    /// root job when it was consigned.
    fn rebuild_links(&mut self) {
        let mut all: Vec<(JobId, JobId, ActionId)> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.parent_links());
        }
        all.sort();
        let parents: HashMap<JobId, JobId> = all.iter().map(|&(c, p, _)| (c, p)).collect();
        for (child, pjob, pnode) in all {
            let parent_shard = self.shard_of_job(pjob);
            if self.shards[parent_shard].portfolio_of(pjob).is_none() {
                continue; // parent purged; the child is orphaned
            }
            let mut root = pjob;
            while let Some(&up) = parents.get(&root) {
                root = up;
            }
            if let Some(portfolio) = self.shards[self.shard_of_job(root)].portfolio_of(root) {
                let child_shard = self.shard_of_job(child);
                self.shards[child_shard].set_portfolio(child, portfolio);
            }
            let delivered = self.shards[parent_shard].node_is_terminal(pjob, pnode);
            if !delivered {
                self.shards[parent_shard].mark_node_remote(pjob, pnode);
            }
            let link = self.link(pjob, pnode, child, delivered);
            self.links.insert((pjob, pnode), link);
        }
    }

    /// Exactly the state a restart must rebuild, as canonical text with
    /// one fact per line, so `assert_eq!` shows the first line that
    /// differs and a digest of it is a digest of the durable state.
    ///
    /// Per shard: the next job id. Per live job, in consign order: owner,
    /// parent, idempotency key, peer origin, consign and finish times,
    /// `done`, and the status with in-flight nodes read as pending; each
    /// node as `terminal` with its outcome DER, `linked` (waiting on a
    /// child under a link) with its status, or `open`; the portfolio's
    /// names and SHA-256; the Uspace's quota, and its files' names,
    /// lengths and SHA-256. Then each incoming transfer's receiver with
    /// its chunk coverage, and the links. Everything else is soft state
    /// (DESIGN.md, "What a restart keeps"): a facade recovered from this
    /// one's journal reproduces the text line for line.
    pub fn durable_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let linked = |job, node| self.links.contains_key(&(job, node));
        for (k, shard) in self.shards.iter().enumerate() {
            shard.durable_state(k, &linked, &mut out);
        }
        for ((parent, node), l) in &self.links {
            let _ = writeln!(
                out,
                "link {parent} node {} -> {} shards {} -> {} returns {:?} delivered {}",
                node.0, l.child, l.parent_shard, l.child_shard, l.return_files, l.delivered,
            );
        }
        out
    }

    /// The link from node `node` of `parent` to its child job `child`,
    /// with the files the parent node's outgoing edges name: what the
    /// merge phase records at a child's consign and recovery rebuilds
    /// from the journal.
    fn link(&self, parent: JobId, node: ActionId, child: JobId, delivered: bool) -> Link {
        let parent_shard = self.shard_of_job(parent);
        Link {
            child,
            child_shard: self.shard_of_job(child),
            parent_shard,
            return_files: self.shards[parent_shard].edge_return_files(parent, node),
            delivered,
        }
    }

    /// The links under `parent`, in node order — a range of the
    /// registry, not a walk over every link the site holds.
    fn links_of(&self, parent: JobId) -> impl Iterator<Item = (&(JobId, ActionId), &Link)> {
        self.links
            .range((parent, ActionId(0))..=(parent, ActionId(u64::MAX)))
    }

    // ---- routed job operations ---------------------------------------

    /// The Query service (ownership enforced by DN).
    pub fn query(&self, job: JobId, dn: &str, detail: DetailLevel) -> Result<JobOutcome, NjsError> {
        self.shards[self.shard_of_job(job)].query(job, dn, detail)
    }

    /// Applies a user control operation. `Abort` also aborts every child
    /// linked under the job (recursively).
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
                // The abort killed the parent's node: nothing is owed to
                // it any more, which is what replay reads from the node.
                let mut children: Vec<(JobId, usize)> = Vec::new();
                let under = (parent, ActionId(0))..=(parent, ActionId(u64::MAX));
                for link in self.links.range_mut(under).map(|(_, l)| l) {
                    if !link.delivered {
                        link.delivered = true;
                        children.push((link.child, link.child_shard));
                    }
                }
                for (child, shard) in children {
                    let _ = self.shards[shard].control(child, ControlOp::Abort, dn, now);
                    stack.push(child);
                }
            }
        }
        Ok(acted)
    }

    /// Purges a finished job and (recursively) its linked children.
    /// Returns bytes freed.
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

    /// The live job a consign with idempotency key `key` created: a
    /// re-delivered consign maps to it instead of running twice.
    pub fn job_for_key(&self, key: &[u8]) -> Option<JobId> {
        self.shards.iter().find_map(|s| s.job_for_key(key))
    }

    /// Where `job`'s outcome is owed, if a peer server consigned it on
    /// behalf of one of its jobs.
    pub fn foreign_of(&self, job: JobId) -> Option<&ForeignOrigin> {
        self.shards[self.shard_of_job(job)].foreign_of(job)
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
        self.complete_remote_node_with_files(job, node, outcome, Vec::new());
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

    /// WAL tail repairs summed across every shard's segment.
    fn wal_repairs(&self) -> u64 {
        self.shards.iter().map(|s| s.wal_repairs()).sum()
    }

    /// Total incarnations performed across shards.
    pub fn incarnation_count(&self) -> u64 {
        self.shards.iter().map(|s| s.incarnation_count()).sum()
    }

    /// The Monitor service: this site's health report — one row per
    /// Vsite in registration order, the slow-dispatch watchdog's total
    /// set on `njs.watchdog.stuck` before the metrics snapshot is taken,
    /// the WAL repair counter summed over every segment overlaid on it,
    /// and the span breakdown.
    pub fn monitor_report(&self, now: SimTime) -> MonitorReport {
        let mut vsites: Vec<VsiteHealth> = self
            .shards
            .iter()
            .flat_map(|s| s.vsite_health(now))
            .collect();
        vsites.sort_by_cached_key(|v| self.vsite_order.iter().position(|n| *n == v.vsite));
        let telemetry = self.telemetry();
        let stuck = vsites.iter().map(|v| v.stuck_jobs).sum();
        telemetry.gauge("njs.watchdog.stuck").set(stuck);
        let mut metrics = telemetry.metrics_snapshot();
        metrics
            .counters
            .insert("store.wal.repairs".into(), self.wal_repairs());
        MonitorReport {
            usite: self.usite.clone(),
            metrics,
            spans: telemetry.breakdown(),
            vsites,
            epoch: None,
        }
    }

    /// The merged per-(Vsite, login) usage report (Vsites are disjoint
    /// across shards, so this is a sorted concatenation).
    pub fn usage_report(&self) -> UsageReport {
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
