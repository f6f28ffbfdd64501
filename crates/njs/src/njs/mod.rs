//! One shard of the Network Job Supervisor engine.
//!
//! One NJS serves one Usite and "can support multiple destination systems
//! (Vsites)" (§4.3). Its duties, straight from §5.5: transform the
//! abstract job, split it into job groups for different sites, distribute
//! and control them, translate abstract specifications via translation
//! tables, submit batch jobs, create the UNICORE job directory, collect
//! stdout/stderr, and initiate all data transfers.
//!
//! The NJS is clock-passive like the batch substrate: callers drive it
//! with [`crate::ShardedNjs::step`] as simulated time advances, and drain
//! [`crate::ShardedNjs::take_outbox`] for work addressed to peer Usites
//! (sub-AJOs and file transfers), which the federation layer in `unicore`
//! routes.
//!
//! [`Njs`] is one shard of that engine, crate-private: the facade owns
//! every shard and is the only way in. Its `impl` is split along its
//! seams: this file holds the types, construction, telemetry and store
//! wiring; `consign`, `recover`, `step` (wake set, polling, dispatch),
//! `files` (file tasks), `remote` (peer-Usite outbox and completions),
//! `incoming` (transfer receiver), `control` (query, control, purge) and
//! `cross` (the Vsite boundary) hold the rest.

mod consign;
mod control;
pub(crate) mod cross;
mod files;
mod incoming;
mod recover;
mod remote;
mod step;

use crate::oracle::{DeterministicOracle, WorkOracle};
use crate::translation::TranslationTable;
use cross::CrossShardItem;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ActionId, ActionStatus, DependencyIndex, JobId, JobOutcome, OutcomeNode,
    TaskOutcome, VsiteAddress, VsiteHealth,
};
use unicore_batch::{BatchJobId, BatchSystem, IdMap};
use unicore_codec::DerCodec;
use unicore_crypto::sha256;
use unicore_dataplane::{ReceiverState, TransferKey};
use unicore_gateway::MappedUser;
use unicore_resources::ResourcePage;
use unicore_sim::SimTime;
use unicore_store::{EventBatch, EventStore, ForeignOrigin, StoreEvent};
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
    batch_owner: IdMap<BatchJobId, JobId>,
}

/// The Vsites of one NJS in registration order. Inside the engine a
/// Vsite is its position here (jobs, node states and the batch heap
/// carry the index); names are looked up once where they arrive from
/// outside — a consign, a file task naming another Vsite, the
/// administrator.
#[derive(Default)]
struct Vsites {
    list: Vec<VsiteRuntime>,
    names: Vec<String>,
    by_name: HashMap<String, usize>,
}

impl Vsites {
    fn push(&mut self, name: String, runtime: VsiteRuntime) {
        self.by_name.insert(name.clone(), self.list.len());
        self.names.push(name);
        self.list.push(runtime);
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    fn contains_key(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    fn get(&self, name: &str) -> Option<&VsiteRuntime> {
        self.index_of(name).map(|i| &self.list[i])
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut VsiteRuntime> {
        self.index_of(name).map(|i| &mut self.list[i])
    }
}

impl std::ops::Index<usize> for Vsites {
    type Output = VsiteRuntime;
    fn index(&self, index: usize) -> &VsiteRuntime {
        &self.list[index]
    }
}

impl std::ops::IndexMut<usize> for Vsites {
    fn index_mut(&mut self, index: usize) -> &mut VsiteRuntime {
        &mut self.list[index]
    }
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
/// The NJS writes it into the job's `JobConsigned` event and keeps the
/// key and the origin with the job until it is purged; replay hands both
/// back, so after a restart [`crate::ShardedNjs::job_for_key`] and
/// [`crate::ShardedNjs::foreign_of`] answer as before the crash.
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

/// What [`crate::ShardedNjs::recover`] rebuilt from the journal.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Jobs alive again after replay (consigned, not purged).
    pub jobs: Vec<JobId>,
    /// Whether the newest log segment ended in a torn record.
    pub torn_tail: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Waiting,
    /// Submitted to the batch system of the Vsite at index `vsite`.
    InBatch {
        vsite: usize,
        batch_id: BatchJobId,
    },
    /// Waiting for work done away from the job's Vsite: at a peer Usite
    /// (the outbox) or at another Vsite of this one (the merge phase).
    Remote,
    Terminal,
}

/// A consigned job.
///
/// Everything held per node — `states`, `outcome.children`, the
/// adjacency in `preds` — is in the order of `job.nodes`, and inside the
/// engine a node *is* its position in that order: a visit indexes three
/// arrays and hashes nothing. An [`ActionId`] is turned into a position
/// once, by [`JobRuntime::position`], where it arrives from outside the
/// engine (a remote or cross-shard completion, recovery), and back into
/// an id where it leaves (the journal, the flight ring, the outbox).
struct JobRuntime {
    job: AbstractJob,
    /// Precomputed predecessor adjacency for `job`'s top level, by
    /// position: the step loop's dependency check borrows slices.
    preds: DependencyIndex,
    /// Index of `job.vsite` among this NJS's Vsites.
    vsite: usize,
    user: MappedUser,
    parent: Option<(JobId, ActionId)>,
    portfolio: Arc<HashMap<String, Arc<[u8]>>>,
    /// Node states, by position.
    states: Vec<NodeState>,
    /// The outcome tree; `outcome.children[i]` belongs to `job.nodes[i]`.
    outcome: JobOutcome,
    held: bool,
    done: bool,
    consigned_at: SimTime,
    finished_at: Option<SimTime>,
    /// Open `njs.job` span, ended when the job completes.
    span: Option<ActiveSpan>,
    /// This job's trace context; parents all spans emitted on its behalf.
    trace: Option<SpanContext>,
    /// The consign request's idempotency key (empty = none), as journalled.
    idem_key: Vec<u8>,
    /// The peer job this one runs for, as journalled.
    foreign: Option<ForeignOrigin>,
}

impl JobRuntime {
    /// The position of the node the outside world calls `id`, if this
    /// job has one.
    fn position(&self, id: ActionId) -> Option<usize> {
        self.preds.position(id)
    }

    /// The id the outside world knows the node at `pos` by.
    fn node_id(&self, pos: usize) -> ActionId {
        self.job.nodes[pos].0
    }

    fn node_outcome(&self, pos: usize) -> &OutcomeNode {
        &self.outcome.children[pos].1
    }

    fn node_outcome_mut(&mut self, pos: usize) -> &mut OutcomeNode {
        &mut self.outcome.children[pos].1
    }

    /// The task outcome at `pos` (`None` for a sub-job node).
    fn task_outcome_mut(&mut self, pos: usize) -> Option<&mut TaskOutcome> {
        match self.node_outcome_mut(pos) {
            OutcomeNode::Task(t) => Some(t),
            OutcomeNode::Job(_) => None,
        }
    }

    fn all_terminal(&self) -> bool {
        self.states.iter().all(|s| *s == NodeState::Terminal)
    }
}

/// One shard of a Usite's NJS.
///
/// A shard does the work on a job's own Vsite in place and only queues
/// what is aimed at another Vsite — a sub-job, an Import, an Export or a
/// Transfer there — for [`crate::ShardedNjs`]'s merge phase, which is the
/// one path across a Vsite boundary. A shard alone would leave such work
/// queued for ever, so only the facade builds one.
pub(crate) struct Njs {
    usite: String,
    vsites: Vsites,
    /// One pointer per job: a `JobRuntime` is hundreds of bytes, and the
    /// table moves every entry each time it grows.
    jobs: IdMap<JobId, Box<JobRuntime>>,
    /// Idempotency key → the live job it consigned. Entries come and go
    /// with their jobs (consign, replay, purge, replayed purge), so the
    /// journal is their only durable copy.
    by_key: HashMap<Vec<u8>, JobId>,
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
    /// Per-step scratch (in-flight batch nodes to poll: position, Vsite,
    /// batch id), kept on the NJS so steady-state stepping allocates
    /// nothing.
    poll_scratch: Vec<(usize, usize, BatchJobId)>,
    /// Per-step scratch (nodes waiting on predecessors).
    waiting_scratch: Vec<usize>,
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
    /// Effects aimed at another Vsite of this Usite, awaiting the sharded
    /// facade's merge phase.
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

/// The slow-dispatch watchdog threshold: a healthy NJS dispatches a
/// ready node on the very next step, so a minute of sitting fully
/// undispatched means the site is wedged, not busy.
pub(crate) const DEFAULT_WATCHDOG_THRESHOLD: SimTime = 60 * unicore_sim::SEC;

/// NJS counters/histograms, fetched once from the registry.
#[derive(Default)]
struct NjsMetrics {
    consigned: Counter,
    incarnations: Counter,
    completed: Counter,
    duration_us: Histogram,
    transfer_chunks: Counter,
    transfer_bytes: Counter,
    transfers_received: Counter,
}

impl Njs {
    /// An NJS for `usite` with the default deterministic work oracle.
    pub(crate) fn new(usite: impl Into<String>) -> Self {
        Self::with_oracle(usite, Box::new(DeterministicOracle::default()))
    }

    /// An NJS with a custom work oracle.
    pub(crate) fn with_oracle(usite: impl Into<String>, oracle: Box<dyn WorkOracle>) -> Self {
        Njs {
            usite: usite.into(),
            vsites: Vsites::default(),
            jobs: IdMap::default(),
            by_key: HashMap::new(),
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
            incoming: HashMap::new(),
            transfer_resumes: 0,
            job_stride: 1,
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
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
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
        for v in &mut self.vsites.list {
            v.batch.set_telemetry(&telemetry);
        }
        if telemetry.is_enabled() && !self.flight.is_enabled() {
            self.flight = FlightRecorder::bounded(DEFAULT_FLIGHT_CAPACITY);
        }
        self.telemetry = telemetry;
    }

    /// The flight recorder holding recent per-job lifecycle events.
    pub(crate) fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// WAL tail repairs performed by the attached store (0 without one).
    /// Surfaced separately from the metrics registry so the monitor
    /// report shows the repair even when telemetry was never enabled.
    pub(crate) fn wal_repairs(&self) -> u64 {
        self.store
            .as_ref()
            .map(|s| s.recovered_torn() as u64)
            .unwrap_or(0)
    }

    /// This shard's rows of the Monitor report, in registration order:
    /// each Vsite's batch gauges and its slow-dispatch watchdog count —
    /// jobs consigned, not held, and with **no** node dispatched yet after
    /// [`DEFAULT_WATCHDOG_THRESHOLD`] has elapsed, the signature of a
    /// wedged site rather than a busy one.
    pub(crate) fn vsite_health(&self, now: SimTime) -> Vec<VsiteHealth> {
        let mut stuck = vec![0i64; self.vsites.list.len()];
        for rt in self.jobs.values() {
            if !rt.done
                && !rt.held
                && now.saturating_sub(rt.consigned_at) > DEFAULT_WATCHDOG_THRESHOLD
                && rt.states.iter().all(|s| *s == NodeState::Waiting)
            {
                stuck[rt.vsite] += 1;
            }
        }
        self.vsites
            .names
            .iter()
            .zip(&self.vsites.list)
            .zip(stuck)
            .map(|((name, v), stuck_jobs)| VsiteHealth {
                vsite: name.clone(),
                free_nodes: v.batch.free_nodes() as i64,
                queue_length: v.batch.queue_length() as i64,
                running: v.batch.running_count() as i64,
                stuck_jobs,
            })
            .collect()
    }

    /// The telemetry handle this NJS reports into.
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The trace context of a consigned job, if tracing was enabled when
    /// it arrived. The server stamps this onto outbound peer requests so
    /// remote sub-jobs continue the same trace.
    pub(crate) fn trace_of(&self, job: JobId) -> Option<SpanContext> {
        self.jobs.get(&job).and_then(|rt| rt.trace)
    }

    /// Attaches a durable event store. From now on every consign, node
    /// completion, job completion, and purge is journalled, and
    /// [`Njs::recover`] can rebuild the job table after a restart.
    pub(crate) fn attach_store(&mut self, mut store: EventStore) {
        // Only wire a live handle: attaching under the default disabled
        // telemetry would consume the store's once-only torn-tail repair
        // signal into a registry nobody reads.
        if self.telemetry.is_enabled() {
            store.set_telemetry(&self.telemetry);
        }
        self.store = Some(store);
    }

    /// The attached event store, for compaction and inspection.
    pub(crate) fn store_mut(&mut self) -> Option<&mut EventStore> {
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
    pub(crate) fn journal_placement(
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

    /// Journals a node's terminal outcome plus the files it deposited
    /// (for `terminate_node`, its one caller): `deposited` names files
    /// just written into the job's Uspace, and the record borrows their
    /// bytes from there.
    fn log_terminal(&mut self, job: JobId, pos: usize, deposited: &[String]) {
        if !self.journalling() {
            return;
        }
        let Some(rt) = self.jobs.get(&job) else {
            return;
        };
        let uspace = self.vsites[rt.vsite].vspace.uspace(job).ok();
        let files = deposited.iter().filter_map(|name| {
            let entry = uspace?.read(name, &rt.user.login).ok()?;
            Some((name.as_str(), &entry.data[..]))
        });
        let (node, outcome) = (rt.node_id(pos), rt.node_outcome(pos));
        self.pending
            .push_task_state_changed(job, node, outcome, files, self.clock);
    }

    /// Journals a finished job's outcome tree and the manifest of its
    /// Uspace (for `mark_done`, its one caller): names and lengths — the
    /// contents are already in the job's consign and task records.
    fn log_job_done(&mut self, job: JobId) {
        if !self.journalling() {
            return;
        }
        let Some(rt) = self.jobs.get(&job) else {
            return;
        };
        let uspace = self.vsites[rt.vsite].vspace.uspace(job).ok();
        let manifest = uspace.iter().flat_map(|fs| {
            fs.list("").into_iter().filter_map(|name| {
                let entry = fs.read(name, &rt.user.login).ok()?;
                Some((name, entry.data.len() as u64))
            })
        });
        self.pending
            .push_outcome_stored(job, &rt.outcome, manifest, self.clock);
    }

    /// Registers a Vsite from its resource page and translation table.
    ///
    /// # Panics
    /// Panics if the page's Usite does not match this NJS.
    pub(crate) fn add_vsite(&mut self, page: ResourcePage, table: TranslationTable) {
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
        self.batch_gen.push(0);
        self.batch_dirty.push(self.vsites.list.len());
        self.vsites.push(
            name,
            VsiteRuntime {
                batch,
                vspace: Vspace::new(),
                table,
                page,
                batch_owner: IdMap::default(),
            },
        );
    }

    /// Names of the Vsites served here.
    pub(crate) fn vsite_names(&self) -> &[String] {
        &self.vsites.names
    }

    /// Access to a Vsite's runtime (tests, site administration).
    pub(crate) fn vsite_mut(&mut self, name: &str) -> Option<&mut VsiteRuntime> {
        // External mutation can change the batch timeline; re-key this
        // Vsite in the next-event heap on the next step.
        let idx = self.vsites.index_of(name)?;
        self.batch_dirty.push(idx);
        Some(&mut self.vsites[idx])
    }

    /// Read access to a Vsite's runtime.
    pub(crate) fn vsite(&self, name: &str) -> Option<&VsiteRuntime> {
        self.vsites.get(name)
    }

    /// Total incarnations performed.
    pub(crate) fn incarnation_count(&self) -> u64 {
        self.incarnations
    }

    /// Appends shard `shard`'s lines of [`crate::ShardedNjs::durable_state`].
    /// `linked` says whether a node is the parent end of a facade link.
    pub(crate) fn durable_state(
        &self,
        shard: usize,
        linked: &dyn Fn(JobId, ActionId) -> bool,
        out: &mut String,
    ) {
        use std::fmt::Write;
        let _ = writeln!(out, "shard {shard} next job {}", self.next_job);
        for &id in &self.job_order {
            let rt = &self.jobs[&id];
            // In-flight nodes come back pending, which folds a running
            // job's status back to consigned.
            let status = match rt.outcome.status {
                ActionStatus::Running => ActionStatus::Consigned,
                s => s,
            };
            let u = &rt.user;
            let _ = writeln!(
                out,
                "job {id} owner {:?} {:?} {:?} parent {:?} key {} foreign {:?} \
                 consigned {} done {} finished {:?} status {status:?}",
                u.dn,
                u.login,
                u.account_group,
                rt.parent,
                hex(&rt.idem_key),
                rt.foreign,
                rt.consigned_at,
                rt.done,
                rt.finished_at,
            );
            for (pos, state) in rt.states.iter().enumerate() {
                let node = rt.node_id(pos);
                let _ = match state {
                    NodeState::Terminal => {
                        let der = rt.node_outcome(pos).to_der();
                        writeln!(out, "job {id} node {} terminal {}", node.0, hex(&der))
                    }
                    NodeState::Remote if linked(id, node) => {
                        let status = rt.node_outcome(pos).status();
                        writeln!(out, "job {id} node {} linked {status:?}", node.0)
                    }
                    _ => writeln!(out, "job {id} node {} open", node.0),
                };
            }
            let mut portfolio: Vec<_> = rt.portfolio.iter().collect();
            portfolio.sort_unstable_by_key(|(name, _)| *name);
            for (name, data) in portfolio {
                let _ = writeln!(out, "job {id} portfolio {name:?} {}", hex(&sha256(data)));
            }
            if let Ok(fs) = self.vsites[rt.vsite].vspace.uspace(id) {
                let _ = writeln!(out, "job {id} quota {}", fs.quota_bytes());
                for name in fs.list("") {
                    let f = fs.read_raw(name).expect("listed");
                    let (len, sum) = (f.data.len(), hex(&f.checksum()));
                    let _ = writeln!(out, "job {id} uspace {name:?} {len} {sum}");
                }
            }
        }
        let mut receivers: Vec<_> = self.incoming.iter().collect();
        receivers.sort_unstable_by_key(|(k, _)| (&k.origin, k.origin_job, k.origin_node));
        for (key, r) in receivers {
            let m = r.state.manifest();
            let held: Vec<u64> = (0..m.num_chunks())
                .filter(|&i| r.state.is_received(i))
                .collect();
            let covered = self
                .vsites
                .get(&r.vsite)
                .and_then(|v| v.vspace.xspace_ref().partial_covered(&r.path));
            let _ = writeln!(
                out,
                "receiver {:?} {} {} -> {}:{:?} login {:?} manifest {} chunks {held:?} partial {covered:?}",
                key.origin,
                key.origin_job,
                key.origin_node.0,
                r.vsite,
                r.path,
                r.login,
                hex(&sha256(&m.to_der())),
            );
        }
    }
}

/// Lower-case hex, for [`Njs::durable_state`]'s lines.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
