//! The Network Job Supervisor engine.
//!
//! One NJS serves one Usite and "can support multiple destination systems
//! (Vsites)" (§4.3). Its duties, straight from §5.5: transform the
//! abstract job, split it into job groups for different sites, distribute
//! and control them, translate abstract specifications via translation
//! tables, submit batch jobs, create the UNICORE job directory, collect
//! stdout/stderr, and initiate all data transfers.
//!
//! The NJS is clock-passive like the batch substrate: callers drive it
//! with [`Njs::step`] as simulated time advances, and drain
//! [`Njs::take_outbox`] for work addressed to peer Usites (sub-AJOs and
//! file transfers), which the federation layer in `unicore` routes.

use crate::error::NjsError;
use crate::oracle::{DeterministicOracle, WorkOracle};
use crate::shard::CrossShardItem;
use crate::translation::TranslationTable;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::ops::Bound;
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ActionId, ActionStatus, ControlOp, DataLocation, DependencyIndex, DetailLevel,
    FileKind, GraphNode, JobId, JobOutcome, JobSummary, MonitorReport, OutcomeNode, TaskKind,
    TaskOutcome, VsiteAddress, VsiteHealth,
};
use unicore_batch::{BatchJobId, BatchJobSpec, BatchStatus, BatchSystem};
use unicore_codec::DerCodec;
use unicore_dataplane::{ReceiverState, TransferKey, TransferManifest};
use unicore_gateway::MappedUser;
use unicore_resources::{check_request, ResourcePage};
use unicore_sim::SimTime;
use unicore_store::{
    EventBatch, EventStore, ForeignOrigin, ManifestEntry, OwnerRecord, StoreError, StoreEvent,
};
use unicore_telemetry::{
    ActiveSpan, Counter, FlightRecorder, Histogram, SpanContext, Telemetry, DEFAULT_FLIGHT_CAPACITY,
};
use unicore_uspace::Vspace;

/// Xspace directory where incoming site-to-site transfers land.
pub const INCOMING_PREFIX: &str = "/unicore/incoming/";

/// One destination system managed by this NJS.
pub struct VsiteRuntime {
    /// The batch system.
    pub batch: BatchSystem,
    /// The Vsite's data space.
    pub vspace: Vspace,
    /// Site-configured translation table.
    pub table: TranslationTable,
    /// Published resource page.
    pub page: ResourcePage,
    /// Owner index: which job each in-flight batch job belongs to, so a
    /// drained [`BatchSystem`] status change wakes exactly that job.
    /// Entries live from submit until the node goes terminal.
    batch_owner: HashMap<BatchJobId, JobId>,
}

/// Work the NJS needs the federation layer to carry to a peer Usite.
pub enum OutgoingItem {
    /// A job group destined for another Usite.
    SubJob {
        /// The local parent job.
        parent: JobId,
        /// The node within the parent this sub-job fills.
        node: ActionId,
        /// The extracted, now-top-level AJO (portfolio populated with edge
        /// files and any workstation imports the subtree needs).
        ajo: AbstractJob,
        /// Uspace files the peer must return with the outcome (the files
        /// named on this node's outgoing dependency edges).
        return_files: Vec<String>,
    },
    /// A file push to another Usite's Vsite (lands in its incoming area).
    Transfer {
        /// The local job that produced the file.
        from_job: JobId,
        /// The transfer task's node id (for outcome completion).
        node: ActionId,
        /// Destination Vsite.
        to_vsite: VsiteAddress,
        /// Name at the destination.
        dest_name: String,
        /// The bytes, shared with the Uspace entry (cloning the item is a
        /// refcount bump; the chunking sender slices this in place).
        data: Arc<[u8]>,
        /// Whether the source file was world-readable; the receiver
        /// commits the delivered file with the same flag.
        world_readable: bool,
    },
}

/// Receiver-side bookkeeping for one incoming chunked transfer: the
/// dataplane state machine plus where its staged partial lives.
struct IncomingTransfer {
    state: ReceiverState,
    /// Xspace login owning the staged partial.
    login: String,
    /// Destination Vsite name within this Usite.
    vsite: String,
    /// Final Xspace path; the partial stages invisibly at the same path
    /// and flips visible atomically on commit.
    path: String,
}

/// Journal metadata a caller (the server layer) attaches to a consign.
///
/// The NJS writes it into the job's `JobConsigned` event so that a
/// recovered server can rebuild its idempotency index and its map of
/// jobs owed to remote parents.
#[derive(Debug, Default, Clone)]
pub struct ConsignMeta {
    /// Idempotency key identifying the consign request (empty = none).
    pub idem_key: Vec<u8>,
    /// Set when the job was consigned by a peer server on behalf of a
    /// remote parent job.
    pub foreign: Option<ForeignOrigin>,
    /// Trace context of the request that carried this consign, so the
    /// job's span tree hangs off the caller's trace. Not journalled:
    /// a recovered job starts a fresh trace.
    pub trace: Option<SpanContext>,
    /// Canonical DER of exactly the job being consigned, when the caller
    /// already holds it (the server encodes the AJO for its idempotency
    /// key); the journal record reuses it instead of encoding again.
    pub ajo_der: Option<Vec<u8>>,
}

/// What [`Njs::recover`] rebuilt from the journal.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Jobs alive again after replay (consigned, not purged).
    pub jobs: Vec<JobId>,
    /// Idempotency keys of live jobs, for the server's dedup index.
    pub idem: Vec<(Vec<u8>, JobId)>,
    /// Live jobs owed to remote parents, with their origin bookkeeping.
    pub foreign: Vec<(JobId, ForeignOrigin)>,
    /// Whether the newest log segment ended in a torn record.
    pub torn_tail: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeState {
    Waiting,
    // The vsite name is shared (`Arc<str>`) so the per-step poll scan can
    // capture it without allocating a fresh String per poll.
    InBatch {
        vsite: Arc<str>,
        batch_id: BatchJobId,
    },
    ChildJob {
        child: JobId,
    },
    Remote,
    Terminal,
}

/// One in-flight node found by the per-step state scan, captured so the
/// polling pass can mutate `self` without re-walking the state map.
enum PollTarget {
    Batch {
        vsite: Arc<str>,
        batch_id: BatchJobId,
    },
    Child(JobId),
}

struct JobRuntime {
    job: AbstractJob,
    /// Precomputed predecessor adjacency for `job`'s top level: the step
    /// loop's dependency check borrows slices instead of allocating.
    preds: DependencyIndex,
    user: MappedUser,
    parent: Option<(JobId, ActionId)>,
    portfolio: Arc<HashMap<String, Arc<[u8]>>>,
    states: HashMap<ActionId, NodeState>,
    outcome: JobOutcome,
    held: bool,
    done: bool,
    consigned_at: SimTime,
    finished_at: Option<SimTime>,
    /// Open `njs.job` span, ended when the job completes.
    span: Option<ActiveSpan>,
    /// This job's trace context; parents all spans emitted on its behalf.
    trace: Option<SpanContext>,
}

impl JobRuntime {
    fn node_status(&self, id: ActionId) -> ActionStatus {
        self.outcome
            .child(id)
            .map(|n| n.status())
            .unwrap_or(ActionStatus::Pending)
    }

    fn set_task_outcome(&mut self, id: ActionId, outcome: TaskOutcome) {
        if let Some(node) = self.outcome.child_mut(id) {
            *node = OutcomeNode::Task(outcome);
        }
    }
}

/// The NJS for one Usite.
pub struct Njs {
    usite: String,
    vsites: HashMap<String, VsiteRuntime>,
    vsite_order: Vec<String>,
    jobs: HashMap<JobId, JobRuntime>,
    /// Live jobs in consign order — which is ascending id order, since
    /// ids are allocated monotonically (and replayed in journal order).
    job_order: Vec<JobId>,
    /// The wake set: jobs that may have work. `step` visits only these
    /// (see its doc for the wake sources that keep this complete).
    wake: BTreeSet<JobId>,
    /// Jobs that finished since the last [`Njs::take_newly_done`].
    newly_done: Vec<JobId>,
    /// Jobs visited by the step loop so far (metrics).
    job_visits: u64,
    next_job: u64,
    oracle: Box<dyn WorkOracle>,
    outbox: Vec<OutgoingItem>,
    /// Count of incarnations performed (metrics).
    incarnations: u64,
    /// Durable event journal (crash recovery), when attached.
    store: Option<EventStore>,
    /// Journalled events awaiting the next group commit. Non-consign
    /// events buffer here and go to the backend as ONE durable write at
    /// the end of the operation that produced them (`step`, abort,
    /// purge, remote completion); consign flushes synchronously because
    /// its record is the strict write-ahead one.
    pending: EventBatch,
    /// Per-step scratch (in-flight nodes to poll), kept on the NJS so
    /// steady-state stepping allocates nothing.
    poll_scratch: Vec<(ActionId, PollTarget)>,
    /// Per-step scratch (nodes waiting on predecessors).
    waiting_scratch: Vec<ActionId>,
    /// True while `recover` replays the journal, so replayed operations
    /// are not journalled a second time.
    recovering: bool,
    /// Last simulated time seen, used to stamp journal events emitted
    /// from state transitions that have no `now` parameter of their own.
    clock: SimTime,
    /// Telemetry handle; disabled by default.
    telemetry: Telemetry,
    metrics: NjsMetrics,
    /// Per-job lifecycle rings, attached to failing outcomes. Enabled
    /// together with telemetry; disabled is free.
    flight: FlightRecorder,
    /// Slow-dispatch watchdog: a consigned job with nothing dispatched
    /// after this long is flagged as stuck in the monitor report.
    watchdog_threshold: SimTime,
    /// Incoming chunked transfers, keyed by the sender's identity. Kept
    /// after completion so late re-offers and retransmitted chunks are
    /// acked as done instead of re-opening the transfer.
    incoming: HashMap<TransferKey, IncomingTransfer>,
    /// Times an incoming offer resumed from a non-zero journaled
    /// watermark instead of restarting at chunk zero.
    transfer_resumes: u64,
    /// Job-id allocation stride. A standalone NJS allocates 1, 2, 3…;
    /// shard k of an N-shard [`crate::ShardedNjs`] allocates k+1,
    /// k+1+N, k+1+2N… so ids never collide and `(id-1) % N` names the
    /// owning shard.
    job_stride: u64,
    /// Vsites owned by *sibling shards* of the same sharded NJS, mapped
    /// to the owning shard index. Work addressed to one of these is not
    /// remote (same Usite) but must cross a shard boundary, so it is
    /// queued on `cross_out` instead of being applied in place.
    siblings: HashMap<String, usize>,
    /// Cross-shard effects awaiting the sharded facade's merge phase.
    /// Always empty on a standalone NJS, which has no siblings.
    cross_out: Vec<CrossShardItem>,
    /// Next-event heap over Vsite batch systems: `(next event time,
    /// vsite index, generation)`. `step` only advances Vsites whose
    /// next event is due, so idle Vsites cost nothing per tick.
    batch_heap: BinaryHeap<Reverse<(SimTime, usize, u64)>>,
    /// Per-Vsite heap-entry generation; stale heap entries (older
    /// generation) are skipped on pop.
    batch_gen: Vec<u64>,
    /// Vsite indices whose batch state changed outside the heap's view
    /// (submit, cancel, external mutation) and need re-keying.
    batch_dirty: Vec<usize>,
}

/// Default slow-dispatch watchdog threshold: a healthy NJS dispatches a
/// ready node on the very next step, so a minute of sitting fully
/// undispatched means the site is wedged, not busy.
pub const DEFAULT_WATCHDOG_THRESHOLD: SimTime = 60 * unicore_sim::SEC;

/// NJS counters/histograms, fetched once from the registry.
struct NjsMetrics {
    consigned: Counter,
    incarnations: Counter,
    completed: Counter,
    duration_us: Histogram,
    transfer_chunks: Counter,
    transfer_bytes: Counter,
    transfers_received: Counter,
}

impl Default for NjsMetrics {
    fn default() -> Self {
        NjsMetrics {
            consigned: Counter::detached(),
            incarnations: Counter::detached(),
            completed: Counter::detached(),
            duration_us: Histogram::detached(),
            transfer_chunks: Counter::detached(),
            transfer_bytes: Counter::detached(),
            transfers_received: Counter::detached(),
        }
    }
}

impl Njs {
    /// An NJS for `usite` with the default deterministic work oracle.
    pub fn new(usite: impl Into<String>) -> Self {
        Self::with_oracle(usite, Box::new(DeterministicOracle::default()))
    }

    /// An NJS with a custom work oracle.
    pub fn with_oracle(usite: impl Into<String>, oracle: Box<dyn WorkOracle>) -> Self {
        Njs {
            usite: usite.into(),
            vsites: HashMap::new(),
            vsite_order: Vec::new(),
            jobs: HashMap::new(),
            job_order: Vec::new(),
            wake: BTreeSet::new(),
            newly_done: Vec::new(),
            job_visits: 0,
            next_job: 1,
            oracle,
            outbox: Vec::new(),
            incarnations: 0,
            store: None,
            pending: EventBatch::new(),
            poll_scratch: Vec::new(),
            waiting_scratch: Vec::new(),
            recovering: false,
            clock: 0,
            telemetry: Telemetry::disabled(),
            metrics: NjsMetrics::default(),
            flight: FlightRecorder::disabled(),
            watchdog_threshold: DEFAULT_WATCHDOG_THRESHOLD,
            incoming: HashMap::new(),
            transfer_resumes: 0,
            job_stride: 1,
            siblings: HashMap::new(),
            cross_out: Vec::new(),
            batch_heap: BinaryHeap::new(),
            batch_gen: Vec::new(),
            batch_dirty: Vec::new(),
        }
    }

    /// Configures strided job-id allocation: this NJS hands out
    /// `base, base+stride, base+2·stride, …`. Used by the sharded facade
    /// so shards allocate from disjoint id classes; a standalone NJS
    /// keeps the default `(1, 1)`.
    pub(crate) fn set_id_allocation(&mut self, base: u64, stride: u64) {
        debug_assert!(stride >= 1 && base >= 1 && base <= stride);
        self.next_job = base;
        self.job_stride = stride;
    }

    /// Registers a Vsite owned by a sibling shard, so work addressed to
    /// it is queued for the facade's merge phase instead of failing as
    /// an unknown Vsite.
    pub(crate) fn register_sibling(&mut self, vsite: impl Into<String>, shard: usize) {
        self.siblings.insert(vsite.into(), shard);
    }

    /// Queues a cross-shard effect for the facade's merge phase.
    fn cross_send(&mut self, item: CrossShardItem) {
        self.cross_out.push(item);
    }

    /// Moves the queued cross-shard effects onto the end of `into`.
    pub(crate) fn drain_cross_shard(&mut self, into: &mut Vec<CrossShardItem>) {
        into.append(&mut self.cross_out);
    }

    /// Replaces the flight recorder. The sharded facade points every
    /// shard at one shared recorder so cross-shard job traces land in a
    /// single ring.
    pub(crate) fn set_flight(&mut self, flight: FlightRecorder) {
        self.flight = flight;
    }

    /// Wires this NJS (and its attached store and batch systems) to a
    /// telemetry handle. Jobs consigned from now on get `njs.job` spans;
    /// counters land in `telemetry`'s registry under `njs.*`,
    /// `store.wal.*`, and `batch.*`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = NjsMetrics {
            consigned: telemetry.counter("njs.consigned"),
            incarnations: telemetry.counter("njs.incarnations"),
            completed: telemetry.counter("njs.jobs.completed"),
            duration_us: telemetry.histogram("njs.job.duration.us"),
            transfer_chunks: telemetry.counter("dataplane.chunks.received"),
            transfer_bytes: telemetry.counter("dataplane.bytes.received"),
            transfers_received: telemetry.counter("dataplane.transfers.received"),
        };
        if let Some(store) = self.store.as_mut() {
            store.set_telemetry(&telemetry);
        }
        for name in &self.vsite_order {
            if let Some(v) = self.vsites.get_mut(name) {
                v.batch.set_telemetry(&telemetry);
            }
        }
        if telemetry.is_enabled() && !self.flight.is_enabled() {
            self.flight = FlightRecorder::bounded(DEFAULT_FLIGHT_CAPACITY);
        }
        self.telemetry = telemetry;
    }

    /// The flight recorder holding recent per-job lifecycle events.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Overrides the slow-dispatch watchdog threshold.
    pub fn set_watchdog_threshold(&mut self, threshold: SimTime) {
        self.watchdog_threshold = threshold;
    }

    /// Jobs flagged by the slow-dispatch watchdog at `now`, per Vsite:
    /// consigned, not held, and with **no** node dispatched yet after
    /// the threshold has elapsed — the signature of a wedged site rather
    /// than a busy one.
    pub fn stuck_jobs_by_vsite(&self, now: SimTime) -> HashMap<String, i64> {
        let mut stuck: HashMap<String, i64> = HashMap::new();
        for rt in self.jobs.values() {
            if rt.done || rt.held {
                continue;
            }
            if now.saturating_sub(rt.consigned_at) <= self.watchdog_threshold {
                continue;
            }
            if rt.states.values().all(|s| *s == NodeState::Waiting) {
                *stuck.entry(rt.job.vsite.vsite.clone()).or_default() += 1;
            }
        }
        stuck
    }

    /// WAL tail repairs performed by the attached store (0 without one).
    /// Surfaced separately from the metrics registry so the monitor
    /// report shows the repair even when telemetry was never enabled.
    pub fn wal_repairs(&self) -> u64 {
        self.store
            .as_ref()
            .map(|s| s.recovered_torn() as u64)
            .unwrap_or(0)
    }

    /// The Monitor service: this site's health report — a metrics
    /// snapshot (with the WAL repair counter overlaid), the span
    /// breakdown, and per-Vsite gauges including the slow-dispatch
    /// watchdog count.
    pub fn monitor_report(&self, now: SimTime) -> MonitorReport {
        let stuck = self.stuck_jobs_by_vsite(now);
        let total_stuck: i64 = stuck.values().sum();
        self.telemetry.gauge("njs.watchdog.stuck").set(total_stuck);
        let mut metrics = self.telemetry.metrics_snapshot();
        metrics
            .counters
            .insert("store.wal.repairs".into(), self.wal_repairs());
        let vsites = self
            .vsite_order
            .iter()
            .map(|name| {
                let v = &self.vsites[name];
                VsiteHealth {
                    vsite: name.clone(),
                    free_nodes: v.batch.free_nodes() as i64,
                    queue_length: v.batch.queue_length() as i64,
                    running: v.batch.running_count() as i64,
                    stuck_jobs: stuck.get(name).copied().unwrap_or(0),
                }
            })
            .collect();
        MonitorReport {
            usite: self.usite.clone(),
            metrics,
            spans: self.telemetry.breakdown(),
            vsites,
            epoch: None,
        }
    }

    /// The telemetry handle this NJS reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The trace context of a consigned job, if tracing was enabled when
    /// it arrived. The server stamps this onto outbound peer requests so
    /// remote sub-jobs continue the same trace.
    pub fn trace_of(&self, job: JobId) -> Option<SpanContext> {
        self.jobs.get(&job).and_then(|rt| rt.trace)
    }

    /// Attaches a durable event store. From now on every consign, node
    /// completion, job completion, and purge is journalled, and
    /// [`Njs::recover`] can rebuild the job table after a restart.
    pub fn attach_store(&mut self, mut store: EventStore) {
        // Only wire a live handle: attaching under the default disabled
        // telemetry would consume the store's once-only torn-tail repair
        // signal into a registry nobody reads.
        if self.telemetry.is_enabled() {
            store.set_telemetry(&self.telemetry);
        }
        self.store = Some(store);
    }

    /// The attached event store, for compaction and inspection.
    pub fn store_mut(&mut self) -> Option<&mut EventStore> {
        self.store.as_mut()
    }

    /// Journals an event (best-effort: a dead backend means the machine
    /// is going down anyway; consign's own write is the strict one).
    ///
    /// The event is buffered, not written: [`Njs::flush_events`] group
    /// commits everything an operation produced in one backend write.
    /// A crash before the flush loses the buffered tail as a unit —
    /// recovery then sees the same prefix a crash mid-write would leave,
    /// and re-dispatches the in-flight work.
    fn log_event(&mut self, event: StoreEvent) {
        if self.journalling() {
            self.pending.push(&event);
        }
    }

    /// Whether events are being journalled: a store is attached and this
    /// is not its own replay.
    fn journalling(&self) -> bool {
        self.store.is_some() && !self.recovering
    }

    /// Group commits every buffered event as one durable backend write.
    /// Called at the end of each event-producing operation; best-effort
    /// like the individual appends it replaces.
    fn flush_events(&mut self) {
        if let Some(store) = self.store.as_mut() {
            let _ = store.commit(&mut self.pending);
        }
    }

    /// Journals a broker placement decision for a sub-job node and
    /// commits it at once: the decision must be durable *before* the
    /// forward leaves, so two runs of the same seed leave byte-identical
    /// placement trails even when one of them crashes mid-campaign.
    pub fn journal_placement(
        &mut self,
        job: JobId,
        node: ActionId,
        chosen: &str,
        excluded: &[String],
        attempt: u32,
    ) {
        self.log_event(StoreEvent::PlacementDecided {
            job,
            node,
            chosen: chosen.to_owned(),
            excluded: excluded.to_vec(),
            attempt,
            at: self.clock,
        });
        self.flush_events();
    }

    /// Journals a node's terminal outcome plus the files it deposited:
    /// `deposited` names files the caller has just written into the job's
    /// Uspace, and the record borrows their bytes from there.
    fn log_terminal(&mut self, job: JobId, node: ActionId, deposited: &[String]) {
        if !self.journalling() {
            return;
        }
        let Some(rt) = self.jobs.get(&job) else {
            return;
        };
        let Some(outcome) = rt.outcome.child(node) else {
            return;
        };
        let files = deposited.iter().filter_map(|name| {
            let vspace = &self.vsites.get(&rt.job.vsite.vsite)?.vspace;
            let entry = vspace.uspace(job).ok()?.read(name, &rt.user.login).ok()?;
            Some((name.as_str(), entry.data.as_slice()))
        });
        self.pending
            .push_task_state_changed(job, node, outcome, files, self.clock);
    }

    /// Journals a finished job's outcome tree and the manifest of its
    /// Uspace: names and lengths — the contents are already in the job's
    /// consign and task records.
    fn log_job_done(&mut self, job: JobId) {
        if !self.journalling() {
            return;
        }
        let Some(rt) = self.jobs.get(&job) else {
            return;
        };
        let uspace = self
            .vsites
            .get(&rt.job.vsite.vsite)
            .and_then(|v| v.vspace.uspace(job).ok());
        let manifest = uspace.iter().flat_map(|fs| {
            fs.list("").into_iter().filter_map(|name| {
                let entry = fs.read(name, &rt.user.login).ok()?;
                Some((name, entry.data.len() as u64))
            })
        });
        self.pending
            .push_outcome_stored(job, &rt.outcome, manifest, self.clock);
    }

    /// What a just-finished file task deposited into the job's Uspace
    /// (successful Imports put one file there; Exports and Transfers
    /// write elsewhere).
    fn deposited_by_file_task(&self, job: JobId, node: ActionId) -> Option<String> {
        let rt = self.jobs.get(&job)?;
        let GraphNode::Task(task) = rt.job.node(node)? else {
            return None;
        };
        let TaskKind::File(FileKind::Import { uspace_name, .. }) = &task.kind else {
            return None;
        };
        rt.node_status(node)
            .is_success()
            .then(|| uspace_name.clone())
    }

    /// This NJS's Usite name.
    pub fn usite(&self) -> &str {
        &self.usite
    }

    /// Registers a Vsite from its resource page and translation table.
    ///
    /// # Panics
    /// Panics if the page's Usite does not match this NJS.
    pub fn add_vsite(&mut self, page: ResourcePage, table: TranslationTable) {
        assert_eq!(page.vsite.usite, self.usite, "page Usite mismatch");
        let name = page.vsite.vsite.clone();
        let mut batch = BatchSystem::new(name.clone(), page.architecture, page.performance.nodes);
        // Every script the NJS submits comes from the translation tables;
        // strict dialect checking turns any mistranslation into a loud
        // submission error instead of a silently wrong job.
        batch.set_strict_dialect(true);
        if self.telemetry.is_enabled() {
            batch.set_telemetry(&self.telemetry);
        }
        self.vsites.insert(
            name.clone(),
            VsiteRuntime {
                batch,
                vspace: Vspace::new(),
                table,
                page,
                batch_owner: HashMap::new(),
            },
        );
        self.batch_gen.push(0);
        self.batch_dirty.push(self.vsite_order.len());
        self.vsite_order.push(name);
    }

    /// Names of the Vsites served here.
    pub fn vsite_names(&self) -> &[String] {
        &self.vsite_order
    }

    /// Access to a Vsite's runtime (tests, site administration).
    pub fn vsite_mut(&mut self, name: &str) -> Option<&mut VsiteRuntime> {
        // External mutation can change the batch timeline; re-key this
        // Vsite in the next-event heap on the next step.
        if let Some(idx) = self.vsite_index(name) {
            self.batch_dirty.push(idx);
        }
        self.vsites.get_mut(name)
    }

    /// A Vsite's position in registration order (its index in the batch
    /// heap bookkeeping).
    fn vsite_index(&self, name: &str) -> Option<usize> {
        self.vsite_order.iter().position(|n| n == name)
    }

    /// After this NJS changed Vsite `idx`'s batch state (submit, cancel):
    /// marks its next-event heap entry stale and wakes the jobs whose
    /// batch jobs changed status as a result.
    fn batch_touched(&mut self, idx: usize) {
        self.batch_dirty.push(idx);
        self.wake_batch_changes(idx);
    }

    /// Read access to a Vsite's runtime.
    pub fn vsite(&self, name: &str) -> Option<&VsiteRuntime> {
        self.vsites.get(name)
    }

    /// Total incarnations performed.
    pub fn incarnation_count(&self) -> u64 {
        self.incarnations
    }

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
            .map(|p| (p.name.clone(), p.data.clone()))
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
        // moved out of the AJO, not copied — one clone remains because the
        // journal (staged) and the runtime (portfolio) each own the bytes.
        job.validate()?;
        let mut job = job;
        let shared: Vec<(String, Arc<[u8]>)> = std::mem::take(&mut job.portfolio)
            .into_iter()
            .map(|p| (p.name, p.data))
            .collect();
        // The journal's staged record owns its bytes (the WAL cannot hold
        // refcounts); the runtime map shares the AJO payloads for free.
        let staged: Vec<(String, Vec<u8>)> = shared
            .iter()
            .map(|(n, d)| (n.clone(), d.to_vec()))
            .collect();
        let portfolio: HashMap<String, Arc<[u8]>> = shared.into_iter().collect();
        self.consign_internal(job, user, Arc::new(portfolio), staged, None, now, meta)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn consign_internal(
        &mut self,
        job: AbstractJob,
        user: MappedUser,
        portfolio: Arc<HashMap<String, Arc<[u8]>>>,
        staged: Vec<(String, Vec<u8>)>,
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
        if !self.vsites.contains_key(&job.vsite.vsite) {
            return Err(NjsError::UnknownVsite {
                vsite: job.vsite.vsite.clone(),
                usite: self.usite.clone(),
            });
        }
        // Admission: every direct execute task against this job's page.
        let page = &self.vsites[&job.vsite.vsite].page;
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
        let vspace = &mut self
            .vsites
            .get_mut(&job.vsite.vsite)
            .expect("checked above")
            .vspace;
        vspace.create_uspace(id, quota)?;
        for (name, data) in &staged {
            vspace.write_uspace_file(id, name, data.clone(), &user.login)?;
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
                staged,
                idem_key: meta.idem_key,
                parent,
                foreign: meta.foreign,
                at: now,
            };
            self.pending.push(&event);
            if let Err(e) = store.commit(&mut self.pending) {
                if let Some(v) = self.vsites.get_mut(&job.vsite.vsite) {
                    let _ = v.vspace.destroy_uspace(id);
                }
                self.next_job -= self.job_stride;
                return Err(NjsError::Store(e));
            }
        }

        // Prime the outcome tree and node states.
        let mut outcome = JobOutcome {
            status: ActionStatus::Consigned,
            children: Vec::with_capacity(job.nodes.len()),
        };
        let mut states = HashMap::with_capacity(job.nodes.len());
        for (nid, node) in &job.nodes {
            let child = match node {
                GraphNode::Task(_) => OutcomeNode::Task(TaskOutcome::pending()),
                GraphNode::SubJob(_) => OutcomeNode::Job(JobOutcome {
                    status: ActionStatus::Pending,
                    children: Vec::new(),
                }),
            };
            outcome.children.push((*nid, child));
            states.insert(*nid, NodeState::Waiting);
        }

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
                format!("vsite {}", job.vsite.vsite),
            );
        }
        let preds = job.dependency_index();
        self.jobs.insert(
            id,
            JobRuntime {
                job,
                preds,
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
                                    .map(|p| (p.name.clone(), p.data.clone()))
                                    .collect();
                                for (name, data) in staged {
                                    m.insert(name.clone(), data.as_slice().into());
                                }
                                Arc::new(m)
                            }
                        };
                        self.next_job = job.0;
                        let got = self.consign_internal(
                            ajo,
                            mapped,
                            portfolio,
                            staged.clone(),
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
                            if let Some(slot) = rt.outcome.child_mut(*node) {
                                *slot = outcome;
                            }
                            rt.states.insert(*node, NodeState::Terminal);
                            let (vsite, login) =
                                (rt.job.vsite.vsite.clone(), rt.user.login.clone());
                            if let Some(v) = self.vsites.get_mut(&vsite) {
                                for (name, data) in files {
                                    let _ = v.vspace.write_uspace_file(
                                        *job,
                                        name,
                                        data.clone(),
                                        &login,
                                    );
                                }
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
                            rt.outcome = outcome;
                            let ids: Vec<ActionId> = rt.states.keys().copied().collect();
                            for nid in ids {
                                rt.states.insert(nid, NodeState::Terminal);
                            }
                            rt.done = true;
                            rt.finished_at = Some(*at);
                            let login = &rt.user.login;
                            let Some(v) = self.vsites.get_mut(&rt.job.vsite.vsite) else {
                                continue;
                            };
                            for entry in manifest {
                                match entry {
                                    // Journals from before the by-reference
                                    // form carry the contents themselves.
                                    ManifestEntry::Inline { name, data } => {
                                        let _ = v.vspace.write_uspace_file(
                                            *job,
                                            name,
                                            data.clone(),
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
                            if let Some(v) = self.vsites.get_mut(&rt.job.vsite.vsite) {
                                let _ = v.vspace.destroy_uspace(*job);
                            }
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
            if let Some(parent_rt) = self.jobs.get_mut(&pjob) {
                if parent_rt.states.get(&pnode) != Some(&NodeState::Terminal) {
                    parent_rt
                        .states
                        .insert(pnode, NodeState::ChildJob { child });
                }
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

    /// Earliest future event (batch completion or crash recovery) across
    /// this NJS's Vsites.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.vsites
            .values()
            .filter_map(|v| v.batch.next_event_time())
            .min()
    }

    /// Re-keys dirty Vsites in the next-event heap, then advances every
    /// Vsite whose next batch event is due at `now`. Idle Vsites (no
    /// queued or running work, no pending recovery) have no heap entry
    /// and cost nothing — the point of the heap at 100-site scale.
    fn advance_batches(&mut self, now: SimTime) {
        // Re-key Vsites whose batch state changed since the last step.
        while let Some(idx) = self.batch_dirty.pop() {
            // Whatever dirtied it (an external `vsite_mut` caller, say)
            // may have changed statuses too.
            self.wake_batch_changes(idx);
            let name = &self.vsite_order[idx];
            let batch = &self.vsites[name].batch;
            self.batch_gen[idx] += 1;
            if let Some(t) = batch.next_event_time() {
                self.batch_heap.push(Reverse((t, idx, self.batch_gen[idx])));
            }
        }
        // Pop due events; each advance can schedule the next one.
        while let Some(&Reverse((t, idx, gen))) = self.batch_heap.peek() {
            if t > now {
                break;
            }
            self.batch_heap.pop();
            if gen != self.batch_gen[idx] {
                continue; // stale entry, superseded by a re-key
            }
            let name = &self.vsite_order[idx];
            let batch = &mut self.vsites.get_mut(name).expect("known vsite").batch;
            batch.advance_to(now);
            self.batch_gen[idx] += 1;
            if let Some(next) = batch.next_event_time() {
                self.batch_heap
                    .push(Reverse((next, idx, self.batch_gen[idx])));
            }
            self.wake_batch_changes(idx);
        }
    }

    /// Drains Vsite `idx`'s batch change log into the wake set: every
    /// batch job whose status changed wakes the job that owns it. Called
    /// after anything that can move the batch tier — `advance_to`,
    /// `submit`, `cancel`, or an external mutation through `vsite_mut`.
    fn wake_batch_changes(&mut self, idx: usize) {
        let v = self
            .vsites
            .get_mut(&self.vsite_order[idx])
            .expect("known vsite");
        for id in v.batch.drain_changes() {
            if let Some(job) = v.batch_owner.get(&id) {
                self.wake.insert(*job);
            }
        }
    }

    /// Marks `job` as possibly having work, together with the local
    /// parent that mirrors its outcome (`poll_child_node`).
    fn wake(&mut self, job: JobId) {
        let Some(rt) = self.jobs.get(&job) else {
            return;
        };
        self.wake.insert(job);
        if let Some((parent, _)) = rt.parent {
            if self.jobs.contains_key(&parent) {
                self.wake.insert(parent);
            }
        }
    }

    /// The one writer of node state outside `step_job`: records the
    /// transition and wakes the job, so a call site cannot forget to.
    fn set_state(&mut self, job: JobId, node: ActionId, state: NodeState) {
        if let Some(rt) = self.jobs.get_mut(&job) {
            rt.states.insert(node, state);
            self.wake(job);
        }
    }

    /// Marks `job` finished at `now` and announces it to the layers above.
    fn mark_done(&mut self, job: JobId, now: SimTime) {
        let rt = self.jobs.get_mut(&job).expect("job exists");
        rt.done = true;
        rt.finished_at = Some(now);
        self.newly_done.push(job);
    }

    /// Jobs that finished (by stepping, abort, or journal replay) since
    /// the last call, in finish order. The sharded facade and the server
    /// consume this instead of scanning their link / foreign-job tables.
    pub(crate) fn take_newly_done(&mut self) -> Vec<JobId> {
        std::mem::take(&mut self.newly_done)
    }

    /// The `(parent job, parent node)` a job was consigned on behalf of.
    pub(crate) fn parent_of(&self, job: JobId) -> Option<(JobId, ActionId)> {
        self.jobs.get(&job).and_then(|rt| rt.parent)
    }

    /// Jobs visited by the step loop so far. An idle step — empty wake
    /// set, no batch event due — adds nothing.
    pub fn job_visits(&self) -> u64 {
        self.job_visits
    }

    /// Drives all jobs forward to `now`. Call repeatedly as time advances.
    ///
    /// The loop is event-driven: it visits only the jobs in the wake set,
    /// so an idle step is O(1) and a busy one O(jobs that change). Woken
    /// jobs are visited in passes, each in consign order over the jobs
    /// that existed when the pass started; a job woken behind the cursor
    /// (or consigned mid-pass) waits for the next pass — exactly the
    /// order a scan of every job to a fixpoint would produce, which is
    /// what keeps journal bytes independent of how the set was reached.
    ///
    /// **Invariant — the wake sources.** A job's `step_job` can only make
    /// progress after one of these, and each of them wakes it:
    /// * consign, and `recover` (every unfinished job);
    /// * its own progress in `step_job` (re-woken for the next pass), which
    ///   also wakes the local parent mirroring its outcome;
    /// * every write to `JobRuntime::states` outside `step_job`, all routed
    ///   through `set_state`: remote/cross-shard node completion
    ///   (`complete_remote_node_with_files`, `finish_file_node`,
    ///   `finish_import`, `fail_subjob_node`), `mark_node_remote`, `abort`;
    /// * `control` Hold/Resume (`held`) and `note_transfer_progress`;
    /// * a [`BatchStatus`] change of one of its batch jobs (start,
    ///   completion, cancel, hold/release), drained from the batch change
    ///   log after every `advance_to` / `submit` / `cancel` and for Vsites
    ///   handed out by `vsite_mut`, mapped back through the owner index.
    ///
    /// Code that changes what `step_job` would see must wake the job. In
    /// debug builds every step ends by asserting that one more scan of
    /// every job finds nothing to do, so a forgotten wake fails tier-1.
    pub fn step(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
        self.advance_batches(now);
        // Instantaneous operations (staging, dispatch of freed nodes) can
        // cascade; iterate passes until nothing is left awake.
        loop {
            // Ids are allocated upwards, so a child consigned during this
            // pass lands at or above `end` and waits for the next one.
            let end = JobId(self.next_job);
            let mut cursor = match self.wake.first() {
                Some(&first) if first < end => first,
                _ => break,
            };
            loop {
                self.wake.remove(&cursor);
                self.job_visits += 1;
                if self.step_job(cursor, now) {
                    self.wake(cursor);
                }
                let ahead = (Bound::Excluded(cursor), Bound::Excluded(end));
                match self.wake.range(ahead).next() {
                    Some(&next) => cursor = next,
                    None => break,
                }
            }
        }
        #[cfg(debug_assertions)]
        for i in 0..self.job_order.len() {
            let id = self.job_order[i];
            assert!(
                !self.step_job(id, now),
                "lost wake-up: job {id} had work after step({now}) went quiet"
            );
        }
        self.flush_events();
    }

    fn step_job(&mut self, id: JobId, now: SimTime) -> bool {
        // One pass over the node states classifies everything; the common
        // no-progress call allocates nothing (the scratch vectors keep
        // their capacity across steps).
        let mut poll = std::mem::take(&mut self.poll_scratch);
        let mut waiting = std::mem::take(&mut self.waiting_scratch);
        poll.clear();
        waiting.clear();
        let (held, all_terminal) = {
            let Some(rt) = self.jobs.get(&id) else {
                self.poll_scratch = poll;
                self.waiting_scratch = waiting;
                return false;
            };
            if rt.done {
                self.poll_scratch = poll;
                self.waiting_scratch = waiting;
                return false;
            }
            let mut all_terminal = true;
            for (nid, _) in &rt.job.nodes {
                match rt.states.get(nid) {
                    Some(NodeState::Terminal) => {}
                    Some(NodeState::Waiting) => {
                        waiting.push(*nid);
                        all_terminal = false;
                    }
                    Some(NodeState::InBatch { vsite, batch_id }) => {
                        poll.push((
                            *nid,
                            PollTarget::Batch {
                                vsite: vsite.clone(),
                                batch_id: *batch_id,
                            },
                        ));
                        all_terminal = false;
                    }
                    Some(NodeState::ChildJob { child }) => {
                        poll.push((*nid, PollTarget::Child(*child)));
                        all_terminal = false;
                    }
                    Some(NodeState::Remote) | None => all_terminal = false,
                }
            }
            (rt.held, all_terminal)
        };
        let mut progressed = false;

        // 1. Poll in-flight batch tasks and children.
        for (nid, target) in poll.drain(..) {
            match target {
                PollTarget::Batch { vsite, batch_id } => {
                    progressed |= self.poll_batch_node(id, nid, &vsite, batch_id);
                }
                PollTarget::Child(child) => {
                    progressed |= self.poll_child_node(id, nid, child);
                }
            }
        }

        // 2. Dispatch ready nodes (unless held). States are re-read live,
        //    so a node whose last predecessor completed in the poll above
        //    dispatches within this same step.
        if !held {
            for &nid in &waiting {
                let rt = self.jobs.get(&id).expect("job exists");
                if rt.states.get(&nid) != Some(&NodeState::Waiting) {
                    continue;
                }
                let preds = rt.preds.predecessors(nid);
                let mut ready = true;
                let mut any_failed = false;
                for p in preds {
                    if rt.states.get(p) != Some(&NodeState::Terminal) {
                        ready = false;
                        break;
                    }
                    any_failed |= !rt.node_status(*p).is_success();
                }
                if !ready {
                    continue;
                }
                if any_failed {
                    self.flight.record(
                        id.0,
                        now,
                        "njs.kill",
                        format!("node {}: predecessor failed", nid.0),
                    );
                    let rt = self.jobs.get_mut(&id).expect("job exists");
                    rt.states.insert(nid, NodeState::Terminal);
                    match rt.outcome.child_mut(nid) {
                        Some(OutcomeNode::Task(t)) => {
                            t.status = ActionStatus::Killed;
                            t.message = "predecessor failed".into();
                            t.flight = self.flight.trace(id.0);
                        }
                        Some(OutcomeNode::Job(j)) => j.status = ActionStatus::Killed,
                        None => {}
                    }
                    self.log_terminal(id, nid, &[]);
                    progressed = true;
                } else {
                    progressed |= self.dispatch_node(id, nid, now);
                }
            }
        }
        waiting.clear();
        self.poll_scratch = poll;
        self.waiting_scratch = waiting;

        // 3. Completion check — only when something changed this step or
        //    every node was already terminal (a node finished externally,
        //    e.g. a remote completion, between steps); an idle job's
        //    aggregate cannot have changed.
        if progressed || all_terminal {
            let rt = self.jobs.get_mut(&id).expect("job exists");
            rt.outcome.aggregate_status();
            let finished = !rt.done && rt.states.values().all(|s| *s == NodeState::Terminal);
            if finished {
                let consigned_at = rt.consigned_at;
                let span = rt.span.take();
                self.mark_done(id, now);
                progressed = true;
                self.log_job_done(id);
                self.metrics.completed.inc();
                self.metrics
                    .duration_us
                    .record(now.saturating_sub(consigned_at));
                if let Some(span) = span {
                    self.telemetry.end(span, now);
                }
            }
        }
        progressed
    }

    fn poll_batch_node(
        &mut self,
        job: JobId,
        node: ActionId,
        vsite: &str,
        batch_id: BatchJobId,
    ) -> bool {
        // The overwhelmingly common poll sees a still-queued or running
        // batch job and changes nothing; classify by reference first so
        // that path clones neither status, accounting, nor telemetry.
        enum Seen {
            Queued,
            Running,
            Completed,
            Cancelled,
            Gone,
        }
        let seen = match self
            .vsites
            .get(vsite)
            .expect("known vsite")
            .batch
            .status(batch_id)
        {
            Some(BatchStatus::Queued) | Some(BatchStatus::Held) => Seen::Queued,
            Some(BatchStatus::Running { .. }) => Seen::Running,
            Some(BatchStatus::Completed(_)) => Seen::Completed,
            Some(BatchStatus::Cancelled) => Seen::Cancelled,
            None => Seen::Gone,
        };
        match seen {
            Seen::Gone => return false,
            Seen::Queued => {
                let rt = self.jobs.get_mut(&job).expect("job exists");
                if rt.node_status(node) != ActionStatus::Queued {
                    if let Some(OutcomeNode::Task(t)) = rt.outcome.child_mut(node) {
                        t.status = ActionStatus::Queued;
                        return true;
                    }
                }
                return false;
            }
            Seen::Running => {
                let rt = self.jobs.get_mut(&job).expect("job exists");
                if rt.node_status(node) != ActionStatus::Running {
                    if let Some(OutcomeNode::Task(t)) = rt.outcome.child_mut(node) {
                        t.status = ActionStatus::Running;
                        self.flight.record(
                            job.0,
                            self.clock,
                            "batch.running",
                            format!("node {} on {vsite}", node.0),
                        );
                        return true;
                    }
                }
                return false;
            }
            Seen::Completed | Seen::Cancelled => {}
        }
        let (status, acct) = {
            let v = self.vsites.get(vsite).expect("known vsite");
            (
                v.batch.status(batch_id).cloned(),
                v.batch.accounting_for(batch_id).cloned(),
            )
        };
        let tel = self.telemetry.clone();
        let rt = self.jobs.get_mut(&job).expect("job exists");
        match status {
            Some(BatchStatus::Queued)
            | Some(BatchStatus::Held)
            | Some(BatchStatus::Running { .. }) => false,
            Some(BatchStatus::Completed(c)) => {
                // Retroactive spans from the accounting record: the batch
                // tier is clock-passive, so queue wait and run time are
                // only knowable once the job has finished.
                if let Some(a) = &acct {
                    let parent = rt.trace;
                    tel.emit("batch.queue", parent, a.submitted_at, a.started_at);
                    tel.emit("batch.run", parent, a.started_at, a.ended_at);
                }
                let status = if c.is_success() {
                    ActionStatus::Successful
                } else {
                    ActionStatus::NotSuccessful
                };
                self.flight.record(
                    job.0,
                    self.clock,
                    "batch.exit",
                    format!(
                        "node {} exit code {}{}{}",
                        node.0,
                        c.exit_code,
                        if c.timed_out {
                            " (wall clock limit exceeded)"
                        } else {
                            ""
                        },
                        match std::str::from_utf8(&c.stderr) {
                            Ok(s) if !s.trim().is_empty() =>
                                format!(": {}", s.lines().next().unwrap_or("")),
                            _ => String::new(),
                        },
                    ),
                );
                let outcome = TaskOutcome {
                    status,
                    exit_code: Some(c.exit_code),
                    stdout: c.stdout.clone(),
                    stderr: c.stderr.clone(),
                    bytes_staged: 0,
                    message: if c.timed_out {
                        "wall clock limit exceeded".into()
                    } else {
                        String::new()
                    },
                    // A failing exit ships the job's recent lifecycle
                    // with the result, so the JMC can explain the red.
                    flight: if c.is_success() {
                        Vec::new()
                    } else {
                        self.flight.trace(job.0)
                    },
                };
                let login = rt.user.login.clone();
                rt.set_task_outcome(node, outcome);
                rt.states.insert(node, NodeState::Terminal);
                // Deposit output files into the job's Uspace.
                let mut deposited: Vec<String> = Vec::new();
                let v = self.vsites.get_mut(vsite).expect("known vsite");
                v.batch_owner.remove(&batch_id);
                let vspace = &mut v.vspace;
                for (name, data) in c.output_files {
                    // Quota overflow turns the task's result into failure.
                    if vspace.write_uspace_file(job, &name, data, &login).is_err() {
                        self.flight.record(
                            job.0,
                            self.clock,
                            "njs.quota",
                            format!("node {}: output {name} exceeded job disk quota", node.0),
                        );
                        let rt = self.jobs.get_mut(&job).expect("job exists");
                        if let Some(OutcomeNode::Task(t)) = rt.outcome.child_mut(node) {
                            t.status = ActionStatus::NotSuccessful;
                            t.message = "output exceeded job disk quota".into();
                            t.flight = self.flight.trace(job.0);
                        }
                    } else {
                        deposited.push(name);
                    }
                }
                self.log_terminal(job, node, &deposited);
                true
            }
            Some(BatchStatus::Cancelled) => {
                self.flight.record(
                    job.0,
                    self.clock,
                    "batch.cancelled",
                    format!("node {} on {vsite}", node.0),
                );
                rt.set_task_outcome(
                    node,
                    TaskOutcome {
                        status: ActionStatus::Killed,
                        message: "cancelled".into(),
                        flight: self.flight.trace(job.0),
                        ..Default::default()
                    },
                );
                rt.states.insert(node, NodeState::Terminal);
                let v = self.vsites.get_mut(vsite).expect("known vsite");
                v.batch_owner.remove(&batch_id);
                self.log_terminal(job, node, &[]);
                true
            }
            None => false,
        }
    }

    fn poll_child_node(&mut self, job: JobId, node: ActionId, child: JobId) -> bool {
        let (done, child_outcome) = match self.jobs.get(&child) {
            Some(c) if c.done => (true, c.outcome.clone()),
            Some(c) => (false, c.outcome.clone()),
            None => return false,
        };
        let rt = self.jobs.get_mut(&job).expect("job exists");
        let changed = match rt.outcome.child(node) {
            Some(OutcomeNode::Job(j)) => *j != child_outcome,
            _ => true,
        };
        if changed {
            if let Some(slot) = rt.outcome.child_mut(node) {
                *slot = OutcomeNode::Job(child_outcome);
            }
        }
        if done {
            rt.states.insert(node, NodeState::Terminal);
            // Pull the files named on this node's outgoing edges from the
            // child's Uspace into the parent's, so successors can use them
            // ("UNICORE then guarantees that the specified data sets
            // created by the predecessor are available to the successor").
            let mut wanted: Vec<String> = Vec::new();
            for dep in &rt.job.dependencies {
                if dep.from == node {
                    for f in &dep.files {
                        if !wanted.contains(f) {
                            wanted.push(f.clone());
                        }
                    }
                }
            }
            let mut pulled: Vec<String> = Vec::new();
            if !wanted.is_empty() {
                let parent_vsite = rt.job.vsite.vsite.clone();
                let login = rt.user.login.clone();
                let child_vsite = self
                    .jobs
                    .get(&child)
                    .map(|c| c.job.vsite.vsite.clone())
                    .expect("child exists");
                for name in wanted {
                    let data = self
                        .vsites
                        .get(&child_vsite)
                        .and_then(|v| v.vspace.read_for_transfer(child, &name, &login).ok());
                    if let Some(data) = data {
                        if let Some(v) = self.vsites.get_mut(&parent_vsite) {
                            if v.vspace.write_uspace_file(job, &name, data, &login).is_ok() {
                                pulled.push(name);
                            }
                        }
                    }
                }
            }
            self.log_terminal(job, node, &pulled);
            return true;
        }
        changed
    }

    fn dispatch_node(&mut self, job: JobId, node: ActionId, now: SimTime) -> bool {
        let rt = self.jobs.get(&job).expect("job exists");
        let graph_node = rt.job.node(node).expect("node exists").clone();
        match graph_node {
            GraphNode::Task(task) => match &task.kind {
                TaskKind::Execute(kind) => {
                    let vsite_name = rt.job.vsite.vsite.clone();
                    let login = rt.user.login.clone();
                    let trace = rt.trace;
                    let tel = self.telemetry.clone();
                    let mut ispan = tel.span("njs.incarnate", trace, now);
                    ispan.attr("task", &task.name);
                    ispan.attr("vsite", &vsite_name);
                    let vsite_idx = self.vsite_index(&vsite_name);
                    let v = self.vsites.get_mut(&vsite_name).expect("known vsite");
                    let time_limit = unicore_sim::secs(task.resources.run_time_secs);
                    // Standard site policy: short jobs go express — unless
                    // they are too wide for the express class's width cap.
                    let mut queue = unicore_batch::QueueClass::for_time_limit(time_limit);
                    let express_width = (v.page.performance.nodes / 4).max(1);
                    if queue == unicore_batch::QueueClass::Express
                        && task.resources.processors > express_width
                    {
                        queue = unicore_batch::QueueClass::Batch;
                    }
                    let script = crate::translation::incarnate_execute_in_queue(
                        &v.table,
                        kind,
                        &task.resources,
                        &login,
                        &job.to_string(),
                        queue.name(),
                    );
                    self.incarnations += 1;
                    self.metrics.incarnations.inc();
                    let work = self.oracle.work_for(&task, &task.resources);
                    let spec = BatchJobSpec {
                        name: task.name.clone(),
                        owner: login,
                        script,
                        processors: task.resources.processors,
                        time_limit,
                        memory_mb: task.resources.memory_mb,
                        queue,
                        work,
                    };
                    let queue_name = spec.queue.name();
                    match v.batch.submit(spec, now) {
                        Ok(batch_id) => {
                            v.batch_owner.insert(batch_id, job);
                            let target = format!("{vsite_name}:{queue_name}");
                            self.flight.record(
                                job.0,
                                now,
                                "njs.dispatch",
                                format!("node {} -> {target}", node.0),
                            );
                            let rt = self.jobs.get_mut(&job).expect("job exists");
                            rt.states.insert(
                                node,
                                NodeState::InBatch {
                                    vsite: vsite_name.into(),
                                    batch_id,
                                },
                            );
                            if let Some(OutcomeNode::Task(t)) = rt.outcome.child_mut(node) {
                                t.status = ActionStatus::Queued;
                            }
                            self.log_event(StoreEvent::JobIncarnated {
                                job,
                                node,
                                target,
                                at: self.clock,
                            });
                        }
                        Err(e) => {
                            self.flight
                                .record(job.0, now, "njs.dispatch.error", e.to_string());
                            let mut failed = TaskOutcome::failure(e.to_string());
                            failed.flight = self.flight.trace(job.0);
                            let rt = self.jobs.get_mut(&job).expect("job exists");
                            rt.set_task_outcome(node, failed);
                            rt.states.insert(node, NodeState::Terminal);
                            self.log_terminal(job, node, &[]);
                        }
                    }
                    // The submit changed this Vsite's batch timeline (and
                    // may have started other queued jobs by backfill).
                    if let Some(idx) = vsite_idx {
                        self.batch_touched(idx);
                    }
                    // Incarnation is instantaneous in simulated time; the
                    // span's wall-clock side still measures translation
                    // plus submission cost.
                    tel.end(ispan, now);
                    true
                }
                TaskKind::File(file_kind) => {
                    let outcome = self.run_file_task(job, node, file_kind);
                    match outcome {
                        FileTaskResult::Done(mut o) => {
                            if !o.status.is_success() {
                                self.flight.record(
                                    job.0,
                                    now,
                                    "njs.file.error",
                                    format!("node {}: {}", node.0, o.message),
                                );
                                o.flight = self.flight.trace(job.0);
                            }
                            let rt = self.jobs.get_mut(&job).expect("job exists");
                            rt.set_task_outcome(node, o);
                            rt.states.insert(node, NodeState::Terminal);
                            let deposited = self.deposited_by_file_task(job, node);
                            self.log_terminal(job, node, deposited.as_slice());
                        }
                        FileTaskResult::Remote => {
                            let rt = self.jobs.get_mut(&job).expect("job exists");
                            if let Some(OutcomeNode::Task(t)) = rt.outcome.child_mut(node) {
                                t.status = ActionStatus::Running;
                            }
                            rt.states.insert(node, NodeState::Remote);
                        }
                    }
                    true
                }
            },
            GraphNode::SubJob(sub) => {
                self.dispatch_subjob(job, node, sub, now);
                true
            }
        }
    }

    fn dispatch_subjob(&mut self, job: JobId, node: ActionId, sub: AbstractJob, now: SimTime) {
        // Gather edge files from predecessors out of the parent's Uspace.
        let (staged, user, portfolio, parent_vsite, parent_trace) = {
            let rt = self.jobs.get(&job).expect("job exists");
            let mut staged: Vec<(String, Vec<u8>)> = Vec::new();
            for &pred in rt.preds.predecessors(node) {
                for file in rt.job.edge_files(pred, node) {
                    let data = self
                        .vsites
                        .get(&rt.job.vsite.vsite)
                        .expect("known vsite")
                        .vspace
                        .read_for_transfer(job, file, &rt.user.login);
                    if let Ok(data) = data {
                        staged.push((file.clone(), data));
                    }
                }
            }
            (
                staged,
                rt.user.clone(),
                rt.portfolio.clone(),
                rt.job.vsite.vsite.clone(),
                rt.trace,
            )
        };
        let _ = parent_vsite;

        if sub.vsite.usite == self.usite {
            if let Some(&shard) = self.siblings.get(&sub.vsite.vsite) {
                // A sibling shard of the same Usite owns the target
                // Vsite: queue the child as a cross-shard item; the
                // facade's merge phase consigns it there and wires
                // the parent link back deterministically.
                self.flight.record(
                    job.0,
                    now,
                    "njs.forward",
                    format!("node {} -> shard {shard}", node.0),
                );
                self.cross_send(CrossShardItem::ConsignChild {
                    parent: job,
                    node,
                    shard,
                    ajo: Box::new(sub),
                    staged,
                    user,
                    portfolio,
                    trace: parent_trace,
                });
                let rt = self.jobs.get_mut(&job).expect("job exists");
                if let Some(OutcomeNode::Job(j)) = rt.outcome.child_mut(node) {
                    j.status = ActionStatus::Consigned;
                }
                rt.states.insert(node, NodeState::Remote);
                return;
            }
            // Local child at (possibly) another Vsite of this Usite.
            match self.consign_internal(
                sub,
                user,
                portfolio,
                staged,
                Some((job, node)),
                now,
                ConsignMeta {
                    trace: parent_trace,
                    ..ConsignMeta::default()
                },
            ) {
                Ok(child) => {
                    let rt = self.jobs.get_mut(&job).expect("job exists");
                    rt.states.insert(node, NodeState::ChildJob { child });
                }
                Err(e) => {
                    let rt = self.jobs.get_mut(&job).expect("job exists");
                    if let Some(OutcomeNode::Job(j)) = rt.outcome.child_mut(node) {
                        j.status = ActionStatus::NotSuccessful;
                    }
                    rt.states.insert(node, NodeState::Terminal);
                    self.log_terminal(job, node, &[]);
                    let _ = e;
                }
            }
        } else {
            // Remote job group: extract as a top-level AJO whose portfolio
            // carries the edge files plus any workstation imports its
            // subtree references.
            let mut ajo = sub;
            let mut carried: Vec<(String, Vec<u8>)> = staged;
            collect_workstation_imports(&ajo, &portfolio, &mut carried);
            ajo.portfolio = carried
                .into_iter()
                .map(|(name, data)| unicore_ajo::PortfolioFile {
                    name,
                    data: data.into(),
                })
                .collect();
            let return_files = {
                let rt = self.jobs.get(&job).expect("job exists");
                let mut files: Vec<String> = Vec::new();
                for dep in &rt.job.dependencies {
                    if dep.from == node {
                        for f in &dep.files {
                            if !files.contains(f) {
                                files.push(f.clone());
                            }
                        }
                    }
                }
                files
            };
            let dest_usite = ajo.vsite.usite.clone();
            self.flight.record(
                job.0,
                now,
                "njs.forward",
                format!("node {} -> usite {dest_usite}", node.0),
            );
            self.outbox.push(OutgoingItem::SubJob {
                parent: job,
                node,
                ajo,
                return_files,
            });
            let rt = self.jobs.get_mut(&job).expect("job exists");
            if let Some(OutcomeNode::Job(j)) = rt.outcome.child_mut(node) {
                j.status = ActionStatus::Consigned;
            }
            rt.states.insert(node, NodeState::Remote);
            self.log_event(StoreEvent::JobIncarnated {
                job,
                node,
                target: format!("peer:{dest_usite}"),
                at: self.clock,
            });
        }
    }

    fn run_file_task(&mut self, job: JobId, node: ActionId, kind: &FileKind) -> FileTaskResult {
        let (vsite_name, login) = {
            let rt = self.jobs.get(&job).expect("job exists");
            (rt.job.vsite.vsite.clone(), rt.user.login.clone())
        };
        match kind {
            FileKind::Import {
                source,
                uspace_name,
            } => {
                let result = match source {
                    DataLocation::Workstation { path } => {
                        let rt = self.jobs.get(&job).expect("job exists");
                        match rt.portfolio.get(path) {
                            Some(data) => {
                                let data = data.to_vec();
                                self.vsites
                                    .get_mut(&vsite_name)
                                    .expect("known vsite")
                                    .vspace
                                    .import_bytes(job, uspace_name, data, &login)
                            }
                            None => {
                                return FileTaskResult::Done(TaskOutcome::failure(format!(
                                    "portfolio file '{path}' missing"
                                )))
                            }
                        }
                    }
                    DataLocation::Xspace { vsite, path } => {
                        if vsite.usite != self.usite {
                            return FileTaskResult::Done(TaskOutcome::failure(
                                "import from a remote Usite's Xspace is not supported; \
                                 use a transfer"
                                    .to_string(),
                            ));
                        }
                        if vsite.vsite == vsite_name {
                            self.vsites
                                .get_mut(&vsite_name)
                                .expect("known vsite")
                                .vspace
                                .import_from_xspace(job, path, uspace_name, &login)
                        } else if let Some(&shard) = self.siblings.get(&vsite.vsite) {
                            // The source Vsite lives on a sibling shard;
                            // the facade's merge phase reads it there and
                            // finishes this node.
                            self.cross_send(CrossShardItem::ImportXspace {
                                job,
                                node,
                                shard,
                                src_vsite: vsite.vsite.clone(),
                                path: path.clone(),
                                uspace_name: uspace_name.clone(),
                                login: login.clone(),
                            });
                            return FileTaskResult::Remote;
                        } else {
                            // Cross-Vsite (same Usite): read there, write here.
                            let data = match self.vsites.get(&vsite.vsite) {
                                Some(v) => v
                                    .vspace
                                    .xspace_ref()
                                    .read(path, &login)
                                    .map(|f| f.data.clone()),
                                None => {
                                    return FileTaskResult::Done(TaskOutcome::failure(format!(
                                        "unknown Vsite {vsite}"
                                    )))
                                }
                            };
                            match data {
                                Ok(d) => self
                                    .vsites
                                    .get_mut(&vsite_name)
                                    .expect("known vsite")
                                    .vspace
                                    .import_bytes(job, uspace_name, d, &login),
                                Err(e) => {
                                    return FileTaskResult::Done(TaskOutcome::failure(
                                        e.to_string(),
                                    ))
                                }
                            }
                        }
                    }
                };
                FileTaskResult::Done(match result {
                    Ok(n) => TaskOutcome {
                        status: ActionStatus::Successful,
                        bytes_staged: n,
                        ..Default::default()
                    },
                    Err(e) => TaskOutcome::failure(e.to_string()),
                })
            }
            FileKind::Export {
                uspace_name,
                destination,
            } => {
                let DataLocation::Xspace { vsite, path } = destination else {
                    return FileTaskResult::Done(TaskOutcome::failure(
                        "export to workstation happens on JMC request, not in-job".to_string(),
                    ));
                };
                if vsite.usite != self.usite {
                    return FileTaskResult::Done(TaskOutcome::failure(
                        "export to a remote Usite's Xspace is not supported".to_string(),
                    ));
                }
                if vsite.vsite == vsite_name {
                    let result = self
                        .vsites
                        .get_mut(&vsite_name)
                        .expect("known vsite")
                        .vspace
                        .export_to_xspace(job, uspace_name, path, &login);
                    FileTaskResult::Done(match result {
                        Ok(n) => TaskOutcome {
                            status: ActionStatus::Successful,
                            bytes_staged: n,
                            ..Default::default()
                        },
                        Err(e) => TaskOutcome::failure(e.to_string()),
                    })
                } else {
                    // Cross-Vsite export within the Usite.
                    let data = self
                        .vsites
                        .get(&vsite_name)
                        .expect("known vsite")
                        .vspace
                        .read_for_transfer(job, uspace_name, &login);
                    match data {
                        Ok(d) => {
                            let len = d.len() as u64;
                            if let Some(&shard) = self.siblings.get(&vsite.vsite) {
                                // Destination Vsite is on a sibling shard:
                                // queue the bytes; the merge phase
                                // lands them in that Xspace.
                                self.cross_send(CrossShardItem::DeliverXspace {
                                    job,
                                    node,
                                    shard,
                                    to_vsite: vsite.vsite.clone(),
                                    path: path.clone(),
                                    data: d,
                                    bytes: len,
                                    login: login.clone(),
                                });
                                return FileTaskResult::Remote;
                            }
                            match self.vsites.get_mut(&vsite.vsite) {
                                Some(v) => match v.vspace.xspace().write(path, d, &login) {
                                    Ok(()) => FileTaskResult::Done(TaskOutcome {
                                        status: ActionStatus::Successful,
                                        bytes_staged: len,
                                        ..Default::default()
                                    }),
                                    Err(e) => {
                                        FileTaskResult::Done(TaskOutcome::failure(e.to_string()))
                                    }
                                },
                                None => FileTaskResult::Done(TaskOutcome::failure(format!(
                                    "unknown Vsite {vsite}"
                                ))),
                            }
                        }
                        Err(e) => FileTaskResult::Done(TaskOutcome::failure(e.to_string())),
                    }
                }
            }
            FileKind::Transfer {
                uspace_name,
                to_vsite,
                dest_name,
            } => {
                let entry = self
                    .vsites
                    .get(&vsite_name)
                    .expect("known vsite")
                    .vspace
                    .read_entry_for_transfer(job, uspace_name, &login);
                let (data, world_readable) = match entry {
                    Ok(e) => e,
                    Err(e) => return FileTaskResult::Done(TaskOutcome::failure(e.to_string())),
                };
                if to_vsite.usite == self.usite {
                    // Local delivery into the destination Vsite's incoming area.
                    let len = data.len() as u64;
                    if let Some(&shard) = self.siblings.get(&to_vsite.vsite) {
                        // The destination Vsite lives on a sibling shard;
                        // the merge phase delivers into its incoming area.
                        self.cross_send(CrossShardItem::DeliverIncoming {
                            job,
                            node,
                            shard,
                            to_vsite: to_vsite.vsite.clone(),
                            dest_name: dest_name.clone(),
                            data,
                            bytes: len,
                            login: login.clone(),
                        });
                        return FileTaskResult::Remote;
                    }
                    match self.vsites.get_mut(&to_vsite.vsite) {
                        Some(v) => {
                            let path = format!("{INCOMING_PREFIX}{dest_name}");
                            match v.vspace.xspace().write(&path, data, &login) {
                                Ok(()) => FileTaskResult::Done(TaskOutcome {
                                    status: ActionStatus::Successful,
                                    bytes_staged: len,
                                    ..Default::default()
                                }),
                                Err(e) => FileTaskResult::Done(TaskOutcome::failure(e.to_string())),
                            }
                        }
                        None => FileTaskResult::Done(TaskOutcome::failure(format!(
                            "unknown Vsite {to_vsite}"
                        ))),
                    }
                } else {
                    self.outbox.push(OutgoingItem::Transfer {
                        from_job: job,
                        node,
                        to_vsite: to_vsite.clone(),
                        dest_name: dest_name.clone(),
                        data: data.into(),
                        world_readable,
                    });
                    FileTaskResult::Remote
                }
            }
        }
    }

    /// Takes everything waiting for the federation layer.
    pub fn take_outbox(&mut self) -> Vec<OutgoingItem> {
        std::mem::take(&mut self.outbox)
    }

    /// Completes a node whose work happened at a peer Usite.
    pub fn complete_remote_node(&mut self, job: JobId, node: ActionId, outcome: OutcomeNode) {
        self.complete_remote_node_with_files(job, node, outcome, Vec::new());
    }

    /// Completes a remote node, depositing edge files returned by the peer
    /// into the parent job's Uspace so successors can consume them.
    pub fn complete_remote_node_with_files(
        &mut self,
        job: JobId,
        node: ActionId,
        outcome: OutcomeNode,
        files: Vec<(String, Vec<u8>)>,
    ) {
        let Some(rt) = self.jobs.get_mut(&job) else {
            return;
        };
        // A node can only terminate once: a late delivery for a node
        // already completed (aborted locally, or a duplicate/replayed
        // completion) must not overwrite its recorded outcome.
        if rt.states.get(&node) == Some(&NodeState::Terminal) {
            return;
        }
        if let Some(slot) = rt.outcome.child_mut(node) {
            *slot = outcome;
        }
        self.set_state(job, node, NodeState::Terminal);
        let rt = self.jobs.get_mut(&job).expect("checked above");
        // Re-aggregate eagerly: `step` only re-aggregates jobs that make
        // progress, so an externally completed node must fold its status
        // into the tree here for clients polling before the next step.
        rt.outcome.aggregate_status();
        let mut deposited: Vec<String> = Vec::new();
        if let Some(v) = self.vsites.get_mut(&rt.job.vsite.vsite) {
            for (name, data) in files {
                let written = v.vspace.write_uspace_file(job, &name, data, &rt.user.login);
                if written.is_ok() {
                    deposited.push(name);
                }
            }
        }
        self.log_terminal(job, node, &deposited);
        self.flush_events();
    }

    /// Reads edge-result files from a (foreign) job's Uspace for return to
    /// the origin site. Missing files are skipped — the origin's successor
    /// tasks will then fail with file-not-found, mirroring reality.
    pub fn collect_return_files(&self, job: JobId, names: &[String]) -> Vec<(String, Vec<u8>)> {
        let Some(rt) = self.jobs.get(&job) else {
            return Vec::new();
        };
        let Some(v) = self.vsites.get(&rt.job.vsite.vsite) else {
            return Vec::new();
        };
        names
            .iter()
            .filter_map(|n| {
                v.vspace
                    .read_for_transfer(job, n, &rt.user.login)
                    .ok()
                    .map(|d| (n.clone(), d))
            })
            .collect()
    }

    // ---- Cross-shard merge-phase helpers (crate-internal) -------------
    //
    // The sharded facade applies queued [`CrossShardItem`]s between
    // step rounds using these entry points. They mirror the
    // corresponding in-shard code paths exactly so terminal outcomes are
    // byte-identical whether a job's neighbours live on the same shard
    // or not.

    /// Whether this shard currently owns `job`.
    pub(crate) fn has_job(&self, job: JobId) -> bool {
        self.jobs.contains_key(&job)
    }

    /// Whether `node` of `job` has already reached a terminal state.
    /// Unknown jobs count as terminal (nothing left to do).
    pub(crate) fn node_is_terminal(&self, job: JobId, node: ActionId) -> bool {
        self.jobs
            .get(&job)
            .map(|rt| rt.states.get(&node) == Some(&NodeState::Terminal))
            .unwrap_or(true)
    }

    /// Re-marks a non-terminal node as awaiting an external completion
    /// (used when recovery rebuilds cross-shard parent links).
    pub(crate) fn mark_node_remote(&mut self, job: JobId, node: ActionId) {
        let Some(rt) = self.jobs.get_mut(&job) else {
            return;
        };
        if rt.states.get(&node) == Some(&NodeState::Terminal) {
            return;
        }
        if let Some(OutcomeNode::Job(j)) = rt.outcome.child_mut(node) {
            if j.status == ActionStatus::Pending {
                j.status = ActionStatus::Consigned;
            }
        }
        self.set_state(job, node, NodeState::Remote);
    }

    /// `(child, parent job, parent node)` for every job consigned on
    /// behalf of a parent, in consign order. The facade uses this to
    /// rebuild its cross-shard link registry after recovery.
    pub(crate) fn parent_links(&self) -> Vec<(JobId, JobId, ActionId)> {
        self.job_order
            .iter()
            .filter_map(|id| {
                let rt = self.jobs.get(id)?;
                rt.parent.map(|(pjob, pnode)| (*id, pjob, pnode))
            })
            .collect()
    }

    /// The files named on `node`'s outgoing dependency edges — what a
    /// finished child must hand back to the parent's Uspace. Mirrors the
    /// in-shard `poll_child_node` pull set, deduplicated in edge order.
    pub(crate) fn edge_return_files(&self, job: JobId, node: ActionId) -> Vec<String> {
        let Some(rt) = self.jobs.get(&job) else {
            return Vec::new();
        };
        let mut files: Vec<String> = Vec::new();
        for dep in &rt.job.dependencies {
            if dep.from == node {
                for f in &dep.files {
                    if !files.contains(f) {
                        files.push(f.clone());
                    }
                }
            }
        }
        files
    }

    /// Terminates a file-task node with `outcome`, exactly as the
    /// in-shard `dispatch_node` Done arm would have: failed outcomes get
    /// a flight annotation and trace, the outcome is recorded, deposits
    /// are journalled, and the group commit flushes.
    pub(crate) fn finish_file_node(
        &mut self,
        job: JobId,
        node: ActionId,
        mut outcome: TaskOutcome,
        now: SimTime,
    ) {
        self.clock = self.clock.max(now);
        if !self.jobs.contains_key(&job) || self.node_is_terminal(job, node) {
            return;
        }
        if !outcome.status.is_success() {
            self.flight.record(
                job.0,
                now,
                "njs.file.error",
                format!("node {}: {}", node.0, outcome.message),
            );
            outcome.flight = self.flight.trace(job.0);
        }
        let rt = self.jobs.get_mut(&job).expect("checked above");
        rt.set_task_outcome(node, outcome);
        self.set_state(job, node, NodeState::Terminal);
        let rt = self.jobs.get_mut(&job).expect("checked above");
        // Eager re-aggregation, like `complete_remote_node_with_files`:
        // this runs between steps, so clients polling before the next
        // step must already see the folded status.
        rt.outcome.aggregate_status();
        let deposited = self.deposited_by_file_task(job, node);
        self.log_terminal(job, node, deposited.as_slice());
        self.flush_events();
    }

    /// Fails a sub-job node whose cross-shard consign was rejected,
    /// mirroring the in-shard consign-error arm of `dispatch_subjob`.
    pub(crate) fn fail_subjob_node(&mut self, job: JobId, node: ActionId) {
        let Some(rt) = self.jobs.get_mut(&job) else {
            return;
        };
        if rt.states.get(&node) == Some(&NodeState::Terminal) {
            return;
        }
        if let Some(OutcomeNode::Job(j)) = rt.outcome.child_mut(node) {
            j.status = ActionStatus::NotSuccessful;
        }
        self.set_state(job, node, NodeState::Terminal);
        let rt = self.jobs.get_mut(&job).expect("checked above");
        rt.outcome.aggregate_status();
        self.log_terminal(job, node, &[]);
        self.flush_events();
    }

    /// Completes a cross-shard Import by staging the fetched bytes into
    /// the job's Uspace (or failing the node with the read error).
    pub(crate) fn finish_import(
        &mut self,
        job: JobId,
        node: ActionId,
        uspace_name: &str,
        data: Result<Vec<u8>, String>,
        now: SimTime,
    ) {
        let outcome = match data {
            Ok(d) => {
                let Some((vsite, login)) = self
                    .jobs
                    .get(&job)
                    .map(|rt| (rt.job.vsite.vsite.clone(), rt.user.login.clone()))
                else {
                    return;
                };
                let result = self
                    .vsites
                    .get_mut(&vsite)
                    .expect("job's vsite exists")
                    .vspace
                    .import_bytes(job, uspace_name, d, &login);
                match result {
                    Ok(n) => TaskOutcome {
                        status: ActionStatus::Successful,
                        bytes_staged: n,
                        ..Default::default()
                    },
                    Err(e) => TaskOutcome::failure(e.to_string()),
                }
            }
            Err(e) => TaskOutcome::failure(e),
        };
        self.finish_file_node(job, node, outcome, now);
    }

    /// Reads a file from a Vsite's Xspace (cross-shard Import source).
    pub(crate) fn xspace_read(
        &self,
        vsite: &str,
        path: &str,
        login: &str,
    ) -> Result<Vec<u8>, String> {
        match self.vsites.get(vsite) {
            Some(v) => v
                .vspace
                .xspace_ref()
                .read(path, login)
                .map(|f| f.data.clone())
                .map_err(|e| e.to_string()),
            None => Err(format!("unknown Vsite {vsite}")),
        }
    }

    /// Writes a file into a Vsite's Xspace (cross-shard Export landing).
    pub(crate) fn xspace_write(
        &mut self,
        vsite: &str,
        path: &str,
        data: Vec<u8>,
        login: &str,
    ) -> Result<(), String> {
        match self.vsites.get_mut(vsite) {
            Some(v) => v
                .vspace
                .xspace()
                .write(path, data, login)
                .map_err(|e| e.to_string()),
            None => Err(format!("unknown Vsite {vsite}")),
        }
    }

    // -------------------------------------------------------------------

    /// Receives a file pushed from a peer Usite into `vsite`'s incoming
    /// Xspace area.
    pub fn receive_incoming_file(
        &mut self,
        vsite: &str,
        dest_name: &str,
        data: Vec<u8>,
        login: &str,
    ) -> Result<(), NjsError> {
        let v = self
            .vsites
            .get_mut(vsite)
            .ok_or_else(|| NjsError::UnknownVsite {
                vsite: vsite.to_owned(),
                usite: self.usite.clone(),
            })?;
        let path = format!("{INCOMING_PREFIX}{dest_name}");
        v.vspace.xspace().write(&path, data, login)?;
        Ok(())
    }

    /// Opens (or resumes) an incoming chunked transfer offered by a peer.
    ///
    /// Returns the chunk index the sender should resume from — the
    /// receiver's contiguous watermark, journaled chunk by chunk, so a
    /// re-offer after a drop, partition, or crash continues where the
    /// bytes actually got to instead of restarting. A return equal to
    /// the manifest's chunk count means the file is already fully
    /// delivered and committed.
    pub fn transfer_offer(
        &mut self,
        manifest: TransferManifest,
        login: &str,
    ) -> Result<u64, NjsError> {
        if manifest.to_vsite.usite != self.usite
            || !self.vsites.contains_key(&manifest.to_vsite.vsite)
        {
            return Err(NjsError::UnknownVsite {
                vsite: manifest.to_vsite.to_string(),
                usite: self.usite.clone(),
            });
        }
        if !manifest.well_formed() {
            return Err(NjsError::BadManifest);
        }
        let key = manifest.key();
        if let Some(entry) = self.incoming.get(&key) {
            if entry.state.manifest() == &manifest {
                let watermark = entry.state.watermark();
                if watermark > 0 && !entry.state.is_complete() {
                    self.transfer_resumes += 1;
                }
                return Ok(watermark);
            }
            // Same sender identity, different manifest: the sender
            // restarted with new content or geometry. Drop the stale
            // partial and start over.
            let (vsite, path) = (entry.vsite.clone(), entry.path.clone());
            if let Some(v) = self.vsites.get_mut(&vsite) {
                let _ = v.vspace.xspace().abort_partial(&path);
            }
            self.incoming.remove(&key);
        }
        let path = format!("{INCOMING_PREFIX}{}", manifest.dest_name);
        let vsite = manifest.to_vsite.vsite.clone();
        self.vsites
            .get_mut(&vsite)
            .expect("checked above")
            .vspace
            .xspace()
            .begin_partial(&path, manifest.total_len, login)?;
        self.log_event(StoreEvent::TransferOpened {
            origin: manifest.origin.clone(),
            origin_job: manifest.origin_job,
            origin_node: manifest.origin_node,
            manifest_der: manifest.to_der(),
            login: login.to_owned(),
            at: self.clock,
        });
        self.incoming.insert(
            key.clone(),
            IncomingTransfer {
                state: ReceiverState::new(manifest),
                login: login.to_owned(),
                vsite,
                path,
            },
        );
        // A zero-length file has no chunks to wait for.
        if self.incoming[&key].state.is_complete() {
            self.finalize_incoming(&key)?;
            self.metrics.transfers_received.inc();
        }
        self.flush_events();
        Ok(0)
    }

    /// Accepts one chunk of an open incoming transfer.
    ///
    /// Returns the cumulative ack `(watermark, done)`. Retransmitted
    /// chunks (drops, duplicates, or a post-crash dedup miss) are acked
    /// again without touching storage, so the operation is idempotent
    /// even though the federation layer's response cache does not
    /// survive a receiver crash.
    pub fn transfer_chunk(
        &mut self,
        origin: &str,
        origin_job: JobId,
        origin_node: ActionId,
        index: u64,
        data: &[u8],
    ) -> Result<(u64, bool), NjsError> {
        let key = TransferKey {
            origin: origin.to_owned(),
            origin_job,
            origin_node,
        };
        let entry = self
            .incoming
            .get_mut(&key)
            .ok_or(NjsError::UnknownTransfer)?;
        if entry.state.is_received(index) {
            return Ok((entry.state.watermark(), entry.state.is_complete()));
        }
        let m = entry.state.manifest();
        if index >= m.num_chunks() || !m.verify_chunk(index, data) {
            return Err(NjsError::CorruptChunk { index });
        }
        let offset = m.chunk_range(index).start as u64;
        // Store before marking: a quota failure must leave the chunk
        // unheld so a later retry (after the user frees space) can land.
        self.vsites
            .get_mut(&entry.vsite)
            .expect("vsite checked at offer")
            .vspace
            .xspace()
            .write_partial(&entry.path, offset, data, &entry.login)?;
        entry.state.mark_received(index);
        let (upto, done) = (entry.state.watermark(), entry.state.is_complete());
        self.metrics.transfer_chunks.inc();
        self.metrics.transfer_bytes.add(data.len() as u64);
        // The journal holds the delivered bytes themselves — Xspace
        // contents are not otherwise durable, so chunk events are the
        // file's write-ahead copy and are retained through compaction.
        if self.journalling() {
            self.pending.push_transfer_chunk_stored(
                origin,
                origin_job,
                origin_node,
                index,
                data,
                self.clock,
            );
        }
        if done {
            self.finalize_incoming(&key)?;
            self.metrics.transfers_received.inc();
        }
        self.flush_events();
        Ok((upto, done))
    }

    /// Whether this shard holds the receiver state for an incoming
    /// transfer (the sharded facade probes shards to route chunks).
    pub(crate) fn has_incoming(
        &self,
        origin: &str,
        origin_job: JobId,
        origin_node: ActionId,
    ) -> bool {
        self.incoming.contains_key(&TransferKey {
            origin: origin.to_owned(),
            origin_job,
            origin_node,
        })
    }

    /// Commits a completed transfer's staged partial, flipping the file
    /// visible atomically (checksum-gated against the manifest's whole
    /// file hash). A no-op if the partial was already committed — the
    /// recovery republish path lands here a second time.
    fn finalize_incoming(&mut self, key: &TransferKey) -> Result<(), NjsError> {
        let Some(entry) = self.incoming.get(key) else {
            return Ok(());
        };
        let m = entry.state.manifest();
        let (sum, world) = (m.file_sum, m.world_readable);
        let (vsite, path) = (entry.vsite.clone(), entry.path.clone());
        let Some(v) = self.vsites.get_mut(&vsite) else {
            return Ok(());
        };
        let fs = v.vspace.xspace();
        if !fs.has_partial(&path) {
            return Ok(());
        }
        fs.commit_partial(&path, Some(sum), world)?;
        Ok(())
    }

    /// Sender-side progress note: records streamed bytes on a `Remote`
    /// transfer node so JMC status polls show the data plane moving
    /// before the task completes.
    pub fn note_transfer_progress(&mut self, job: JobId, node: ActionId, bytes: u64, total: u64) {
        let Some(rt) = self.jobs.get_mut(&job) else {
            return;
        };
        if rt.states.get(&node) != Some(&NodeState::Remote) {
            return;
        }
        rt.set_task_outcome(
            node,
            TaskOutcome {
                status: ActionStatus::Running,
                bytes_staged: bytes,
                message: format!("streaming {bytes}/{total} bytes"),
                ..Default::default()
            },
        );
        // The node stays `Remote`, but a parent mirroring this job's
        // outcome has something new to copy.
        self.wake(job);
    }

    /// Times an incoming offer resumed from a non-zero journaled
    /// watermark instead of restarting at chunk zero.
    pub fn transfer_resumes(&self) -> u64 {
        self.transfer_resumes
    }

    /// Progress of an incoming transfer: `(bytes_received, total_len)`.
    pub fn incoming_progress(
        &self,
        origin: &str,
        origin_job: JobId,
        origin_node: ActionId,
    ) -> Option<(u64, u64)> {
        let key = TransferKey {
            origin: origin.to_owned(),
            origin_job,
            origin_node,
        };
        self.incoming
            .get(&key)
            .map(|e| (e.state.bytes_received(), e.state.manifest().total_len))
    }

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
        let node_ids: Vec<ActionId> = rt.job.nodes.iter().map(|(n, _)| *n).collect();
        let mut children = Vec::new();
        for nid in node_ids {
            let state = self.jobs[&job].states[&nid].clone();
            match state {
                NodeState::InBatch { vsite, batch_id } => {
                    let v = self.vsites.get_mut(vsite.as_ref()).expect("known vsite");
                    v.batch.cancel(batch_id, now);
                    v.batch_owner.remove(&batch_id);
                    if let Some(idx) = self.vsite_index(&vsite) {
                        self.batch_touched(idx);
                    }
                    let rt = self.jobs.get_mut(&job).expect("job exists");
                    rt.set_task_outcome(
                        nid,
                        TaskOutcome {
                            status: ActionStatus::Killed,
                            message: "aborted by user".into(),
                            ..Default::default()
                        },
                    );
                    self.set_state(job, nid, NodeState::Terminal);
                }
                NodeState::ChildJob { child } => children.push((nid, child)),
                NodeState::Waiting | NodeState::Remote => {
                    let rt = self.jobs.get_mut(&job).expect("job exists");
                    match rt.outcome.child_mut(nid) {
                        Some(OutcomeNode::Task(t)) => {
                            t.status = ActionStatus::Killed;
                            t.message = "aborted by user".into();
                        }
                        Some(OutcomeNode::Job(j)) => j.status = ActionStatus::Killed,
                        None => {}
                    }
                    self.set_state(job, nid, NodeState::Terminal);
                }
                NodeState::Terminal => {}
            }
        }
        for (nid, child) in children {
            self.abort(child, now);
            let child_outcome = self.jobs[&child].outcome.clone();
            let rt = self.jobs.get_mut(&job).expect("job exists");
            if let Some(slot) = rt.outcome.child_mut(nid) {
                *slot = OutcomeNode::Job(child_outcome);
            }
            self.set_state(job, nid, NodeState::Terminal);
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
        let v = self
            .vsites
            .get(&rt.job.vsite.vsite)
            .expect("job vsite exists");
        Ok(v.vspace
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
                for state in rt.states.values() {
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
                if let Some(v) = self.vsites.get_mut(&rt.job.vsite.vsite) {
                    freed += v.vspace.destroy_uspace(id).unwrap_or(0);
                }
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
        let v = self
            .vsites
            .get(&rt.job.vsite.vsite)
            .expect("job vsite exists");
        Ok(v.vspace.read_for_transfer(job, name, &rt.user.login)?)
    }
}

enum FileTaskResult {
    Done(TaskOutcome),
    Remote,
}

/// Collects workstation-import payloads referenced anywhere in `job`'s
/// subtree out of `portfolio` into `carried`.
fn collect_workstation_imports(
    job: &AbstractJob,
    portfolio: &HashMap<String, Arc<[u8]>>,
    carried: &mut Vec<(String, Vec<u8>)>,
) {
    for (_, node) in &job.nodes {
        match node {
            GraphNode::Task(task) => {
                if let TaskKind::File(FileKind::Import {
                    source: DataLocation::Workstation { path },
                    ..
                }) = &task.kind
                {
                    if carried.iter().all(|(n, _)| n != path) {
                        if let Some(data) = portfolio.get(path) {
                            carried.push((path.clone(), data.to_vec()));
                        }
                    }
                }
            }
            GraphNode::SubJob(sub) => collect_workstation_imports(sub, portfolio, carried),
        }
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
