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
//! with [`ShardedNjs::step`] as simulated time advances, and drain
//! [`ShardedNjs::take_outbox`] for work addressed to peer Usites
//! (sub-AJOs and file transfers), which the federation layer in `unicore`
//! routes.
//!
//! [`ShardedNjs`]'s `impl` is split along its seams: this file holds the
//! types, construction, telemetry, store wiring and the durable state;
//! `consign`, `recover` (journal replay and the link registry's rebuild),
//! `step` (wake set, polling, dispatch), `files` (file tasks), `remote`
//! (peer-Usite outbox and completions), `incoming` (transfer receiver),
//! `control` (query, control, purge) and `cross` (the Vsite boundary and
//! the merge phase) hold the rest.

mod consign;
mod control;
mod cross;
mod files;
mod incoming;
mod recover;
mod remote;
mod step;

use crate::oracle::{DeterministicOracle, WorkOracle};
use crate::translation::TranslationTable;
use cross::{CrossVsiteItem, Link};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ActionId, ActionStatus, DependencyIndex, JobId, JobOutcome, MonitorReport,
    OutcomeNode, TaskOutcome, VsiteAddress, VsiteHealth,
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
    /// Owner index: the job, and the node's position in it, each
    /// in-flight batch job belongs to, so a drained [`BatchSystem`]
    /// status change lands on exactly that task. Entries live from submit
    /// until the node goes terminal.
    batch_owner: IdMap<BatchJobId, (JobId, usize)>,
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
/// back, so after a restart [`ShardedNjs::job_for_key`] and
/// [`ShardedNjs::foreign_of`] answer as before the crash.
#[derive(Debug, Default, Clone)]
pub struct ConsignMeta<'a> {
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
    /// already holds it (the bytes a consign arrived in, or the server's
    /// encoding for its idempotency key); the journal record copies it
    /// instead of encoding again.
    pub ajo_der: Option<&'a [u8]>,
}

/// What [`ShardedNjs::recover`] rebuilt from the journal.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Jobs alive again after replay (consigned, not purged).
    pub jobs: Vec<JobId>,
    /// Whether the newest log segment ended in a torn record.
    pub torn_tail: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Not dispatched yet; `unmet` of its predecessors are not terminal.
    Waiting {
        unmet: u32,
    },
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
/// engine (a remote or cross-Vsite completion, recovery), and back into
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
    /// Nodes not terminal yet: the job can finish at 0.
    open: usize,
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
}

/// A Usite's NJS: one engine for every Vsite of the Usite.
///
/// A step does the work on a job's own Vsite in place and only queues
/// what is aimed at another Vsite — a sub-job, an Import, an Export or a
/// Transfer there — for the merge phase that ends each of its rounds,
/// which is the one path across a Vsite boundary (`cross.rs`). The name
/// is kept from when the engine was split into shards: gridbench names
/// it.
pub struct ShardedNjs {
    usite: String,
    vsites: Vsites,
    /// One pointer per job: a `JobRuntime` is hundreds of bytes, and the
    /// table moves every entry each time it grows.
    jobs: IdMap<JobId, Box<JobRuntime>>,
    /// Idempotency key → the live job it consigned. Entries come and go
    /// with their jobs (consign, replay, purge, replayed purge), so the
    /// journal is their only durable copy. SipHash with fixed keys:
    /// where the table's deleted slots lie — so at which insert it grows
    /// — is then the same in every run. The keys are SHA-256 digests the
    /// server computes, so a sender steers one into a chosen bucket only
    /// by a preimage search of its own per key.
    by_key: HashMap<Vec<u8>, JobId, BuildHasherDefault<DefaultHasher>>,
    /// Live jobs, iterated in consign order — which is ascending id
    /// order, since ids are allocated monotonically (and replayed in
    /// journal order).
    live: step::JobSet,
    /// The wake set: jobs that may have work. `step` visits only these
    /// (see its doc for the wake sources that keep this complete).
    wake: step::JobSet,
    /// The job the step loop is visiting, whose own transitions do not
    /// wake it (`set_state`).
    visiting: Option<JobId>,
    /// Jobs that finished — by stepping, abort, or journal replay — and
    /// that the merge phase has not looked at yet.
    finished: Vec<JobId>,
    /// Jobs the merge phase passed on since the last
    /// [`ShardedNjs::take_newly_done`].
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
    /// The one empty portfolio every job without files shares.
    no_portfolio: Arc<HashMap<String, Arc<[u8]>>>,
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
    /// Effects aimed at another Vsite of this Usite, awaiting the merge
    /// phase.
    cross_out: Vec<CrossVsiteItem>,
    /// Parent→child links at this Usite, keyed by `(parent job, parent
    /// node)` and sorted by key, so the merge phase completes parents in
    /// one deterministic order.
    links: BTreeMap<(JobId, ActionId), Link>,
    /// Next-event heap over Vsite batch systems: `(next event time,
    /// vsite index, generation)`. `step` only advances Vsites whose
    /// next event is due, so idle Vsites cost nothing per tick.
    batch_heap: BinaryHeap<Reverse<(SimTime, usize, u64)>>,
    /// Per-Vsite heap-entry generation; stale heap entries (older
    /// generation) are skipped on pop.
    batch_gen: Vec<u64>,
    /// Vsite indices whose batch state changed outside the heap's view
    /// (submit, cancel, external mutation) and need re-keying, each once.
    batch_dirty: Vec<usize>,
    /// Per Vsite: whether it is in `batch_dirty`.
    batch_is_dirty: Vec<bool>,
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

impl ShardedNjs {
    /// The NJS of `usite`, with the default deterministic work oracle.
    ///
    /// Both counts are ignored: there is one engine on one thread. They
    /// stay only because gridbench names this signature.
    pub fn new(usite: impl Into<String>, _shards: usize, _workers: usize) -> Self {
        Self::with_oracle(usite, Box::new(DeterministicOracle::default()))
    }

    /// The NJS of `usite`, whose batch work comes from `oracle` instead
    /// of the default deterministic oracle.
    pub fn with_oracle(usite: impl Into<String>, oracle: Box<dyn WorkOracle>) -> Self {
        ShardedNjs {
            usite: usite.into(),
            vsites: Vsites::default(),
            jobs: IdMap::default(),
            by_key: HashMap::default(),
            live: step::JobSet::new(1),
            wake: step::JobSet::new(1),
            visiting: None,
            finished: Vec::new(),
            newly_done: Vec::new(),
            job_visits: 0,
            next_job: 1,
            oracle,
            outbox: Vec::new(),
            incarnations: 0,
            store: None,
            pending: EventBatch::new(),
            no_portfolio: Arc::default(),
            recovering: false,
            clock: 0,
            telemetry: Telemetry::disabled(),
            metrics: NjsMetrics::default(),
            flight: FlightRecorder::disabled(),
            incoming: HashMap::new(),
            transfer_resumes: 0,
            cross_out: Vec::new(),
            links: BTreeMap::new(),
            batch_heap: BinaryHeap::new(),
            batch_gen: Vec::new(),
            batch_dirty: Vec::new(),
            batch_is_dirty: Vec::new(),
        }
    }

    /// Always 1: the engine is not split. Kept only because gridbench
    /// names it.
    pub fn shard_count(&self) -> usize {
        1
    }

    /// This Usite's name.
    pub fn usite(&self) -> &str {
        &self.usite
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
        for v in &mut self.vsites.list {
            v.batch.set_telemetry(&telemetry);
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

    /// WAL tail repairs performed by the attached store (0 without one).
    /// Surfaced separately from the metrics registry so the monitor
    /// report shows the repair even when telemetry was never enabled.
    fn wal_repairs(&self) -> u64 {
        self.store
            .as_ref()
            .map(|s| s.recovered_torn() as u64)
            .unwrap_or(0)
    }

    /// The Monitor service: this site's health report — one row per
    /// Vsite in registration order, the slow-dispatch watchdog's total
    /// set on `njs.watchdog.stuck` before the metrics snapshot is taken,
    /// the WAL repair counter overlaid on it, and the span breakdown.
    pub fn monitor_report(&self, now: SimTime) -> MonitorReport {
        let vsites = self.vsite_health(now);
        let stuck = vsites.iter().map(|v| v.stuck_jobs).sum();
        self.telemetry.gauge("njs.watchdog.stuck").set(stuck);
        let mut metrics = self.telemetry.metrics_snapshot();
        metrics
            .counters
            .insert("store.wal.repairs".into(), self.wal_repairs());
        MonitorReport {
            usite: self.usite.clone(),
            metrics,
            spans: self.telemetry.breakdown(),
            vsites,
            epoch: None,
        }
    }

    /// The Monitor report's rows, in registration order: each Vsite's
    /// batch gauges and its slow-dispatch watchdog count — jobs
    /// consigned, not held, and with **no** node dispatched yet after
    /// [`DEFAULT_WATCHDOG_THRESHOLD`] has elapsed, the signature of a
    /// wedged site rather than a busy one.
    fn vsite_health(&self, now: SimTime) -> Vec<VsiteHealth> {
        let mut stuck = vec![0i64; self.vsites.list.len()];
        for rt in self.jobs.values() {
            if !rt.done
                && !rt.held
                && now.saturating_sub(rt.consigned_at) > DEFAULT_WATCHDOG_THRESHOLD
                && rt
                    .states
                    .iter()
                    .all(|s| matches!(s, NodeState::Waiting { .. }))
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
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The trace context of a consigned job, if tracing was enabled when
    /// it arrived. The server stamps this onto outbound peer requests so
    /// remote sub-jobs continue the same trace.
    pub fn trace_of(&self, job: JobId) -> Option<SpanContext> {
        self.jobs.get(&job).and_then(|rt| rt.trace)
    }

    /// Attaches the NJS's journal: `stores` must hold exactly one store
    /// (a `Vec` only because gridbench names this signature). From now
    /// on every consign, node completion, job completion, and purge is
    /// journalled, and [`ShardedNjs::recover`] can rebuild the job table
    /// after a restart.
    ///
    /// # Panics
    /// Panics unless `stores` holds exactly one store.
    pub fn attach_stores(&mut self, mut stores: Vec<EventStore>) {
        assert_eq!(stores.len(), 1, "one journal per NJS");
        let mut store = stores.pop().expect("one store");
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
    /// The event is buffered, not written: [`ShardedNjs::flush_events`] group
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
        self.batch_gen.push(0);
        self.batch_is_dirty.push(false);
        self.mark_batch_dirty(self.vsites.list.len());
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

    /// Names of the Vsites served here, in registration order.
    pub fn vsite_names(&self) -> &[String] {
        &self.vsites.names
    }

    /// Access to a Vsite's runtime (tests, site administration).
    pub fn vsite_mut(&mut self, name: &str) -> Option<&mut VsiteRuntime> {
        // External mutation can change the batch timeline; re-key this
        // Vsite in the next-event heap on the next step.
        let idx = self.vsites.index_of(name)?;
        self.mark_batch_dirty(idx);
        Some(&mut self.vsites[idx])
    }

    /// Read access to a Vsite's runtime.
    pub fn vsite(&self, name: &str) -> Option<&VsiteRuntime> {
        self.vsites.get(name)
    }

    /// Total incarnations performed.
    pub fn incarnation_count(&self) -> u64 {
        self.incarnations
    }

    /// Exactly the state a restart must rebuild, as canonical text with
    /// one fact per line, so `assert_eq!` shows the first line that
    /// differs and a digest of it is a digest of the durable state.
    ///
    /// The next job id. Per live job, in consign order: owner, parent,
    /// idempotency key, peer origin, consign and finish times, `done`,
    /// and the status with in-flight nodes read as pending; each node as
    /// `terminal` with its outcome DER, `linked` (waiting on a child
    /// under a link) with its status, or `open`; the portfolio's names
    /// and SHA-256; the Uspace's quota, and its files' names, lengths and
    /// SHA-256. Then each incoming transfer's receiver with its chunk
    /// coverage, and the links. Everything else is soft state (DESIGN.md,
    /// "What a restart keeps"): an NJS recovered from this one's journal
    /// reproduces the text line for line.
    pub fn durable_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "next job {}", self.next_job);
        for id in self.live.iter() {
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
                    NodeState::Remote if self.links.contains_key(&(id, node)) => {
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
        for ((parent, node), l) in &self.links {
            let _ = writeln!(
                out,
                "link {parent} node {} -> {} returns {:?} delivered {}",
                node.0, l.child, l.return_files, l.delivered,
            );
        }
        out
    }
}

/// Lower-case hex, for [`ShardedNjs::durable_state`]'s lines.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
