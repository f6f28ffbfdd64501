//! The UNICORE server: gateway + NJS + resource pages for one Usite.
//!
//! Figure 1's middle tier. The server answers the high-level protocol
//! ([`crate::protocol`]) for users (JPA/JMC) and for peer servers
//! (NJS–NJS), keeping the NJS's dual client/server role of §5.3: it is a
//! *server* towards JPA/JMC and a *client* towards the peer NJS it
//! forwards job groups to.

use crate::protocol::{AnswerSink, OutcomeDelivery, PlacementOffer, Request, Response};
use std::collections::{BTreeMap, HashSet};
use unicore_ajo::{
    AbstractJob, ActionId, ActionStatus, DetailLevel, JobId, JobOutcome, MonitorReport,
    OutcomeNode, ServiceOutcome, TaskOutcome,
};
use unicore_batch::IdMap;
use unicore_broker::{
    aggregate_request, job_cost, rank, staging_mb, BrokerPolicy, Candidate, FairShare,
    LoadSnapshot, RankedOffer,
};
use unicore_codec::DerCodec;
use unicore_crypto::Sha256;
use unicore_dataplane::{SenderState, TransferManifest, DEFAULT_CHUNK_SIZE, DEFAULT_WINDOW};
use unicore_gateway::{AuthDecision, Gateway};
use unicore_njs::{ConsignMeta, IdemKey, NjsError, OutgoingItem, RecoveryReport, ShardedNjs};
use unicore_resources::{ResourceDirectory, ResourcePage};
use unicore_sim::{SimTime, SEC};
use unicore_store::ForeignOrigin;
use unicore_telemetry::{ActiveSpan, Counter, SpanContext, Telemetry};

/// A request this server wants delivered to a peer Usite.
#[derive(Debug)]
pub struct OutboundRequest {
    /// Destination Usite name.
    pub dest: String,
    /// Correlation id (responses come back through
    /// [`UnicoreServer::handle_response`]).
    pub corr: u64,
    /// The request.
    pub request: Request,
    /// Trace context to stamp onto the wire envelope, so the receiving
    /// server's spans join the job's original trace.
    pub trace: Option<SpanContext>,
}

enum Pending {
    SubJobConsign {
        parent: JobId,
        node: ActionId,
        /// The forwarded AJO and the files to return with its outcome,
        /// taken back out of the request once it was sent
        /// ([`UnicoreServer::sent`]), so a dead-peer error can retarget
        /// them to the next admissible site instead of failing the node.
        /// The request carries the one copy until then.
        sent: Option<Box<(AbstractJob, Vec<String>)>>,
        /// Usites already tried for this node, original target first.
        tried: Vec<String>,
    },
    /// A chunked-transfer offer awaiting the receiver's resume point.
    TransferOffer {
        job: JobId,
        node: ActionId,
    },
    /// One in-flight chunk of a chunked transfer.
    TransferChunk {
        job: JobId,
        node: ActionId,
    },
    OutcomeDelivery,
}

/// How long a stalled transfer waits before re-offering. Individual
/// chunk requests already ride the E14 retry budget (≈126 s), so a
/// stall here means the *receiver* rejected us, not that the network
/// ate a message.
const TRANSFER_RETRY: SimTime = 30 * SEC;

/// Re-offer attempts before a transfer gives up and fails its node.
const MAX_TRANSFER_ATTEMPTS: u32 = 10;

/// Sites a sub-job may be placed on before its node fails outright —
/// the original target plus up to three broker retargets. Bounded so a
/// grid-wide outage converges to a NotSuccessful outcome instead of
/// walking the directory forever.
const MAX_PLACEMENT_ATTEMPTS: usize = 4;

/// Whether a synthesized federation error means the peer cannot be
/// reached at all — quarantined by the circuit breaker or dark past the
/// retry budget. These are the cases retargeting to another site can
/// still save. An unknown Usite is an addressing error, and an
/// application-level refusal (failed authorization, bad AJO) would only
/// repeat at the next site; both fail the node cleanly instead.
fn is_dead_peer(msg: &str) -> bool {
    msg.contains("quarantined (circuit open)")
        || msg.contains("peer unreachable (retries exhausted)")
}

enum TransferPhase {
    /// Offer sent, waiting for the receiver's `TransferGo`.
    Offering,
    /// Chunks in flight inside the sliding window.
    Streaming,
    /// The receiver errored; re-offer at `retry_at` (the receiver's
    /// journaled watermark makes the re-offer resume, not restart).
    Stalled { retry_at: SimTime },
}

/// Sender-side state of one outbound chunked transfer.
struct OutboundTransfer {
    dest: String,
    /// Holds the file and the transfer's one manifest.
    sender: SenderState,
    phase: TransferPhase,
    attempts: u32,
    /// Open `dataplane.transfer` span, ended at completion or failure.
    span: ActiveSpan,
}

/// Broker counters.
#[derive(Default)]
struct BrokerMetrics {
    requests: Counter,
    retargets: Counter,
    quota_denied: Counter,
}

/// Sender-side data-plane counters.
#[derive(Default)]
struct DataplaneMetrics {
    bytes_sent: Counter,
    chunks_sent: Counter,
    chunks_acked: Counter,
    transfers_completed: Counter,
    transfers_resumed: Counter,
    transfers_failed: Counter,
}

/// One Usite's UNICORE server.
pub struct UnicoreServer {
    usite: String,
    gateway: Gateway,
    njs: ShardedNjs,
    resources: ResourceDirectory,
    /// DNs of peer UNICORE servers allowed to use the NJS–NJS requests.
    peer_servers: HashSet<String>,
    /// Outbound requests awaiting their answer, by this server's own
    /// corr ([`IdMap`]'s fixed hasher: the table grows at the same insert
    /// in every run).
    pending: IdMap<u64, Pending>,
    next_corr: u64,
    telemetry: Telemetry,
    /// Outbound chunked transfers by (local job, transfer node), in key
    /// order so stalled transfers re-offer in the same order every run.
    transfers: BTreeMap<(JobId, ActionId), OutboundTransfer>,
    /// Requests produced outside [`UnicoreServer::step`] (chunk sends
    /// triggered by acks in `handle_response`), drained by the next step.
    outq: Vec<OutboundRequest>,
    /// Last simulated time seen by `step`, used to stamp events emitted
    /// from response handling (which carries no clock of its own).
    clock: SimTime,
    dp: DataplaneMetrics,
    /// Pages of peer Usites' Vsites, installed by the federation so the
    /// broker ranks the whole grid (static per deployment, load covered
    /// by each page's advertised hint).
    grid_pages: Vec<ResourcePage>,
    /// Broker scoring policy; the federation seeds its tie-breaks.
    broker_policy: BrokerPolicy,
    /// Fair-share usage ledger, charged and enforced at consign.
    shares: FairShare,
    broker_metrics: BrokerMetrics,
}

/// Span label for a request (low-cardinality attribute).
fn request_kind(request: &Request) -> &'static str {
    match request {
        Request::Consign { .. } => "consign",
        Request::Poll { .. } => "poll",
        Request::Control { .. } => "control",
        Request::List => "list",
        Request::FetchFile { .. } => "fetch_file",
        Request::Purge { .. } => "purge",
        Request::ListFiles { .. } => "list_files",
        Request::GetResources => "get_resources",
        Request::Monitor { .. } => "monitor",
        Request::ConsignSubJob { .. } => "consign_subjob",
        Request::TransferOffer { .. } => "transfer_offer",
        Request::TransferChunk { .. } => "transfer_chunk",
        Request::Broker { .. } => "broker",
        Request::DeliverOutcomes { .. } => "deliver_outcomes",
        Request::MonitorPush { .. } => "monitor_push",
        Request::Sweep { .. } => "sweep",
    }
}

/// Whether a request is user-class: subject to the gateway's front-door
/// admission (rate limit, DN revocation). NJS–NJS traffic between
/// trusted peer servers is exempt — the admission budget protects the
/// gateway from client storms, not the grid from itself. A sweep is not
/// admitted as such: each of its members is, on its own.
fn is_user_request(request: &Request) -> bool {
    matches!(
        request,
        Request::Consign { .. }
            | Request::Poll { .. }
            | Request::Control { .. }
            | Request::List
            | Request::FetchFile { .. }
            | Request::Purge { .. }
            | Request::ListFiles { .. }
            | Request::GetResources
            | Request::Monitor { .. }
            | Request::Broker { .. }
    )
}

/// Whether a request is peer-only: NJS–NJS traffic that only a trusted
/// peer server may send. An aggregation-plane push is not in the class;
/// the plane consumes it before any server sees it. A sweep is not
/// checked as such: each of its members is, on its own.
fn is_peer_request(request: &Request) -> bool {
    matches!(
        request,
        Request::ConsignSubJob { .. }
            | Request::TransferOffer { .. }
            | Request::TransferChunk { .. }
            | Request::DeliverOutcomes { .. }
    )
}

/// Span label for an authorization outcome.
fn decision_label(decision: &AuthDecision) -> &'static str {
    match decision {
        AuthDecision::Accepted(_) => "accepted",
        AuthDecision::Refused(_) => "refused",
    }
}

/// Idempotency key for a user Consign: who sent it and the exact AJO —
/// SHA-256 of `dn ‖ 0x00 ‖ ajo_der`.
fn consign_key(from_dn: &str, ajo_der: &[u8]) -> IdemKey {
    let mut h = Sha256::new();
    h.update(from_dn.as_bytes());
    h.update(&[0]);
    h.update(ajo_der);
    h.finalize().into()
}

/// Idempotency key for a peer ConsignSubJob: the sub-job's identity at
/// its origin (origin server, parent job, node) is unique for all time —
/// SHA-256 of `origin ‖ 0x00 ‖ parent ‖ node` (big-endian ids).
fn subjob_key(origin: &str, parent: JobId, node: ActionId) -> IdemKey {
    let mut h = Sha256::new();
    h.update(origin.as_bytes());
    h.update(&[0]);
    h.update(&parent.0.to_be_bytes());
    h.update(&node.0.to_be_bytes());
    h.finalize().into()
}

impl UnicoreServer {
    /// Assembles a server from its gateway and NJS.
    ///
    /// # Panics
    /// Panics when the gateway and NJS disagree about the Usite.
    pub fn new(gateway: Gateway, njs: ShardedNjs) -> Self {
        assert_eq!(gateway.usite(), njs.usite(), "gateway/NJS Usite mismatch");
        let mut resources = ResourceDirectory::new();
        for name in njs.vsite_names().to_vec() {
            if let Some(v) = njs.vsite(&name) {
                resources.publish(v.page.clone());
            }
        }
        UnicoreServer {
            usite: njs.usite().to_owned(),
            gateway,
            njs,
            resources,
            peer_servers: HashSet::new(),
            pending: IdMap::default(),
            next_corr: 1,
            telemetry: Telemetry::disabled(),
            transfers: BTreeMap::new(),
            outq: Vec::new(),
            clock: 0,
            dp: DataplaneMetrics::default(),
            grid_pages: Vec::new(),
            broker_policy: BrokerPolicy::default(),
            shares: FairShare::default(),
            broker_metrics: BrokerMetrics::default(),
        }
    }

    /// Wires this server — gateway, NJS, store, batch systems — to one
    /// telemetry handle. Call before traffic; requests handled from now
    /// on produce `server.request` / `gateway.authorize` spans.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.gateway.set_telemetry(&telemetry);
        self.njs.set_telemetry(telemetry.clone());
        self.dp = DataplaneMetrics {
            bytes_sent: telemetry.counter("dataplane.bytes.sent"),
            chunks_sent: telemetry.counter("dataplane.chunks.sent"),
            chunks_acked: telemetry.counter("dataplane.chunks.acked"),
            transfers_completed: telemetry.counter("dataplane.transfers.completed"),
            transfers_resumed: telemetry.counter("dataplane.transfers.resumed"),
            transfers_failed: telemetry.counter("dataplane.transfers.failed"),
        };
        self.broker_metrics = BrokerMetrics {
            requests: telemetry.counter("broker.requests"),
            retargets: telemetry.counter("broker.retargets"),
            quota_denied: telemetry.counter("broker.quota.denied"),
        };
        self.telemetry = telemetry;
    }

    /// Installs the pages of the *other* Usites' Vsites (federation
    /// wiring at deployment time): the broker ranks these alongside the
    /// live local snapshots when answering [`Request::Broker`] and when
    /// retargeting around a dead site.
    pub(crate) fn install_grid_directory(&mut self, pages: Vec<ResourcePage>) {
        self.grid_pages = pages;
    }

    /// Seeds the broker's tie-break policy (one seed per deployment, so
    /// replays of the same seed re-derive identical placements).
    pub(crate) fn set_broker_seed(&mut self, seed: u64) {
        self.broker_policy = BrokerPolicy::seeded(seed);
    }

    /// The fair-share ledger (inspection, experiment setup).
    pub fn shares(&self) -> &FairShare {
        &self.shares
    }

    /// Every brokering candidate this server knows: live snapshots of
    /// its own Vsites plus the static pages of its peers, whose load is
    /// whatever hint the page advertises. Remote candidates are charged
    /// `staging` megabytes of data movement.
    fn grid_candidates(&self, now: SimTime, staging: u64) -> Vec<Candidate> {
        let mut cands = self.load_snapshots(now);
        for page in &self.grid_pages {
            if page.vsite.usite == self.usite {
                continue;
            }
            cands.push(Candidate {
                load: LoadSnapshot {
                    vsite: page.vsite.clone(),
                    total_nodes: page.performance.nodes,
                    free_nodes: page.performance.nodes,
                    queue_length: 0,
                    running: 0,
                    utilization: 0.0,
                },
                page: page.clone(),
                staging_mb: staging,
            });
        }
        cands
    }

    /// Ranked placement for `request` across the whole known grid.
    fn broker_rank(
        &mut self,
        request: &unicore_ajo::ResourceRequest,
        now: SimTime,
    ) -> Vec<RankedOffer> {
        self.broker_metrics.requests.inc();
        let cands = self.grid_candidates(now, 0);
        rank(&self.broker_policy, request, &cands, &[])
    }

    /// The telemetry handle this server reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Rebuilds this server's state from the NJS's journal after a
    /// restart, through [`ShardedNjs::recover`]: the job table, and with
    /// each job the idempotency key and the peer origin its consign
    /// journalled. Outcomes of foreign jobs that finished are re-delivered
    /// on the next [`UnicoreServer::step`] (delivery is at-least-once; the
    /// origin applies it idempotently).
    pub fn recover(&mut self, now: SimTime) -> Result<RecoveryReport, NjsError> {
        // A rebooted server must not reuse correlation ids: peers'
        // at-most-once caches still hold responses keyed by the previous
        // incarnation's corrs, and a reused corr would be answered from
        // that cache — a stale reply for a semantically different
        // request. Starting at the recovery timestamp keeps every
        // incarnation's corr range disjoint.
        self.next_corr = self.next_corr.max(now).max(1);
        self.njs.recover(now)
    }

    /// This server's Usite.
    pub fn usite(&self) -> &str {
        &self.usite
    }

    /// The published resource pages (handed to the JPA, §5.4).
    pub fn resource_directory(&self) -> &ResourceDirectory {
        &self.resources
    }

    /// Registers a peer server's DN as trusted for NJS–NJS requests.
    pub fn add_peer_server(&mut self, dn: impl Into<String>) {
        self.peer_servers.insert(dn.into());
    }

    /// Direct access to the NJS (deployment configuration, tests).
    pub fn njs_mut(&mut self) -> &mut ShardedNjs {
        &mut self.njs
    }

    /// Read access to the NJS.
    pub fn njs(&self) -> &ShardedNjs {
        &self.njs
    }

    /// Direct access to the gateway (UUDB administration).
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gateway
    }

    /// Read access to the gateway (audit inspection).
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// This site's health report: the NJS's monitor report with the
    /// gateway's audit-ring drop count overlaid, so data loss at either
    /// tier is visible in one federated snapshot even on sites that
    /// never enabled telemetry.
    pub fn monitor_report(&self, now: SimTime) -> MonitorReport {
        let mut report = self.njs.monitor_report(now);
        report
            .metrics
            .counters
            .insert("gateway.audit.dropped".into(), self.gateway.audit_dropped());
        report
    }

    /// Handles one protocol request from `from_dn` at simulated `now`.
    pub fn handle_request(&mut self, from_dn: &str, request: Request, now: SimTime) -> Response {
        self.handle_request_traced(from_dn, request, now, None)
    }

    /// Handles one request carrying the wire-propagated trace context of
    /// its envelope, so this server's spans join the caller's trace.
    ///
    /// The server continues traces, it does not root them: requests
    /// arriving without context (untraced monitoring polls, legacy
    /// callers) are served without a `server.request` span, keeping the
    /// per-message cost of high-frequency polling at zero. A consign
    /// still produces its own `njs.job` trace either way.
    pub fn handle_request_traced(
        &mut self,
        from_dn: &str,
        request: Request,
        now: SimTime,
        trace: Option<SpanContext>,
    ) -> Response {
        let mut answer = None;
        self.serve(from_dn, request, None, now, trace, &mut answer);
        answer.expect("every request is answered")
    }

    /// [`handle_request_traced`](Self::handle_request_traced) for a
    /// request decoded from a frame, answered into `sink`: `ajo_der` is
    /// the slice of that frame a consigned AJO was decoded from, if the
    /// request carries one.
    pub(crate) fn serve<S: AnswerSink>(
        &mut self,
        from_dn: &str,
        request: Request,
        ajo_der: Option<&[u8]>,
        now: SimTime,
        trace: Option<SpanContext>,
        sink: &mut S,
    ) {
        let tel = self.telemetry.clone();
        let mut span = if trace.is_some() {
            tel.span("server.request", trace, now)
        } else {
            ActiveSpan::noop()
        };
        span.attr("kind", request_kind(&request));
        span.attr("usite", &self.usite);
        // When telemetry is off locally, still thread the wire context
        // through so a consign forwarded onward keeps its trace.
        let parent = span.ctx().or(trace);
        // Whether the sender is a trusted peer server is asked once per
        // request, also for a sweep of many.
        let trusted_peer = self.peer_servers.contains(from_dn);
        self.dispatch_request(from_dn, trusted_peer, request, ajo_der, now, parent, sink);
        tel.end(span, now);
    }

    /// Admits and dispatches one request, answering into `sink`.
    /// `ajo_der`, when `request` is a `Consign` or `ConsignSubJob` and the
    /// caller holds the DER its AJO was decoded from (a received frame),
    /// is the idempotency key's input and the journal record's AJO,
    /// instead of an encoding of the decoded job.
    #[allow(clippy::too_many_arguments)] // one request's context, passed down a sweep
    fn dispatch_request<S: AnswerSink>(
        &mut self,
        from_dn: &str,
        trusted_peer: bool,
        request: Request,
        ajo_der: Option<&[u8]>,
        now: SimTime,
        parent: Option<SpanContext>,
        sink: &mut S,
    ) {
        let now_secs = now / SEC;
        // Front-door admission before any dispatch: revoked DNs and
        // rate-limit overruns are refused (and audited by the gateway)
        // without touching the NJS. Open by default — no limiter
        // installed, no DNs revoked — so existing deployments see no
        // behavior change until an operator opts in.
        if !trusted_peer && is_user_request(&request) {
            if let Some(reason) = self
                .gateway
                .admit(from_dn, request_kind(&request), now_secs)
            {
                return sink.response(Response::Error(reason));
            }
        }
        if !trusted_peer && is_peer_request(&request) {
            let refusal = format!("{from_dn} is not a trusted peer server");
            return sink.response(Response::Error(refusal));
        }
        let response = match request {
            Request::Consign { ajo } => {
                if ajo.user.dn != from_dn {
                    return sink.response(Response::Error(format!(
                        "AJO user DN does not match authenticated DN {from_dn}"
                    )));
                }
                // Deduplicate re-delivered Consigns (client retry after a
                // lost reply, or replays after a crash): the identical
                // request from the same DN maps to the job it already
                // created, and is never submitted to batch a second time.
                let encoded;
                let ajo_der = match ajo_der {
                    Some(der) => {
                        debug_assert_eq!(der, ajo.to_der(), "carried AJO bytes encode the job");
                        der
                    }
                    None => {
                        encoded = ajo.to_der();
                        &encoded[..]
                    }
                };
                let idem_key = consign_key(from_dn, ajo_der);
                if let Some(existing) = self.njs.job_for_key(&idem_key) {
                    return sink.response(Response::Consigned { job: existing });
                }
                // Fair-share admission (after dedup, so the retry of an
                // already-accepted job is never denied): a tenant holding
                // more than its share of the site's decayed usage queues
                // behind its own backlog instead of starving everyone.
                if let Err(denial) = self.shares.admit(from_dn, now) {
                    self.broker_metrics.quota_denied.inc();
                    return sink.response(Response::Error(denial.to_string()));
                }
                // Figure 2: "the user [may] contact any UNICORE server".
                // A job destined for another Usite is wrapped in a local
                // routing job whose single node is the remote job group;
                // the existing NJS–NJS forwarding carries it onward and
                // the user polls it here. The journal reuses `ajo_der` only
                // when the job consigned is the one those bytes encode.
                let (ajo, ajo_der) = if ajo.vsite.usite != self.usite {
                    let Some(host_vsite) = self.njs.vsite_names().first().cloned() else {
                        return sink.response(Response::Error(format!(
                            "Usite {} has no Vsites to host routed jobs",
                            self.usite
                        )));
                    };
                    let mut inner = ajo;
                    let mut wrapper = unicore_ajo::AbstractJob::new(
                        format!("{} (routed via {})", inner.name, self.usite),
                        unicore_ajo::VsiteAddress::new(self.usite.clone(), host_vsite),
                        inner.user.clone(),
                    );
                    // The portfolio must live at the top level; hoist it.
                    wrapper.portfolio = std::mem::take(&mut inner.portfolio);
                    wrapper
                        .nodes
                        .push((ActionId(1), unicore_ajo::GraphNode::SubJob(inner)));
                    (wrapper, None)
                } else {
                    (ajo, Some(ajo_der))
                };
                let mut auth_span = if parent.is_some() {
                    self.telemetry.span("gateway.authorize", parent, now)
                } else {
                    ActiveSpan::noop()
                };
                let decision = self.gateway.authorize_dn(
                    from_dn,
                    &ajo.vsite.vsite,
                    Some(&ajo.user.account_group),
                    now_secs,
                );
                auth_span.attr("decision", decision_label(&decision));
                self.telemetry.end(auth_span, now);
                let mapped = match decision {
                    AuthDecision::Accepted(m) => m,
                    AuthDecision::Refused(reason) => return sink.response(Response::Error(reason)),
                };
                let meta = ConsignMeta {
                    idem_key,
                    foreign: None,
                    trace: parent,
                    ajo_der,
                };
                let cost = job_cost(&ajo);
                match self.njs.consign_with_meta(ajo, mapped, now, meta) {
                    Ok(job) => {
                        self.shares.charge(from_dn, cost, now);
                        Response::Consigned { job }
                    }
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            // The answer is written from the job's own tree: a frame takes
            // it pruned as it is written, an owned answer as a pruned copy.
            Request::Poll { job, detail } => match self.njs.query_tree(job, from_dn) {
                Ok(outcome) => return sink.query(outcome, detail),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::Control { job, op } => match self.njs.control(job, op, from_dn, now) {
                Ok(applied) => Response::Service(ServiceOutcome::Control {
                    applied,
                    message: String::new(),
                }),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::List => Response::Service(ServiceOutcome::List {
                jobs: self.njs.list_jobs(from_dn),
            }),
            Request::FetchFile { job, name } => {
                match self.njs.fetch_uspace_file(job, &name, from_dn) {
                    Ok(data) => Response::FileData(data),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            // A purged job's consign may legitimately be re-sent (a rerun
            // of the same AJO): the NJS forgets its dedup key with it.
            Request::Purge { job } => match self.njs.purge(job, from_dn) {
                Ok(bytes) => Response::Purged { bytes },
                Err(e) => Response::Error(e.to_string()),
            },
            Request::ListFiles { job } => match self.njs.list_uspace_files(job, from_dn) {
                Ok(names) => Response::FileNames(names),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::GetResources => Response::Resources(self.resources.clone()),
            // The server answers for its own site; the federation's
            // aggregation plane intercepts grid queries and answers them
            // from the tree root's merged view.
            Request::Monitor { grid: _ } => Response::Service(ServiceOutcome::Monitor {
                sites: vec![self.monitor_report(now)],
            }),
            // Aggregation-plane pushes are consumed by the federation's
            // plane node before the server is reached; a push arriving
            // here means the plane is not running on this site.
            Request::MonitorPush { .. } => {
                Response::Error("aggregation plane not active at this site".into())
            }
            Request::ConsignSubJob {
                ajo,
                origin,
                parent: parent_job,
                node,
                return_files,
            } => {
                // A sub-job is identified for all time by (origin, parent,
                // node): if the origin re-forwards it — because it crashed
                // after our Consigned reply was lost, or restarted and
                // re-dispatched the node — return the job already running.
                let idem_key = subjob_key(&origin, parent_job, node);
                if let Some(existing) = self.njs.job_for_key(&idem_key) {
                    return sink.response(Response::Consigned { job: existing });
                }
                // The job runs as the *original user*: map their DN here.
                let mut auth_span = if parent.is_some() {
                    self.telemetry.span("gateway.authorize", parent, now)
                } else {
                    ActiveSpan::noop()
                };
                let decision = self.gateway.authorize_dn(
                    &ajo.user.dn,
                    &ajo.vsite.vsite,
                    Some(&ajo.user.account_group),
                    now_secs,
                );
                auth_span.attr("decision", decision_label(&decision));
                self.telemetry.end(auth_span, now);
                let mapped = match decision {
                    AuthDecision::Accepted(m) => m,
                    AuthDecision::Refused(reason) => return sink.response(Response::Error(reason)),
                };
                debug_assert!(
                    ajo_der.is_none_or(|der| der == ajo.to_der()),
                    "carried AJO bytes encode the sub-job"
                );
                // The NJS journals a sub-job without its portfolio (the
                // edge files go in as staged files): the bytes it arrived
                // in are that record's AJO only when it carries none.
                let ajo_der = ajo_der.filter(|_| ajo.portfolio.is_empty());
                let meta = ConsignMeta {
                    idem_key,
                    foreign: Some(ForeignOrigin {
                        origin,
                        parent: parent_job,
                        node,
                        return_files,
                    }),
                    trace: parent,
                    ajo_der,
                };
                match self.njs.consign_from_peer_with_meta(ajo, mapped, now, meta) {
                    Ok(job) => Response::Consigned { job },
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::TransferOffer { manifest } => {
                // The transfer lands as the *original user*: map their DN
                // to a local login before staging anything.
                let decision = self.gateway.authorize_dn(
                    &manifest.user_dn,
                    &manifest.to_vsite.vsite,
                    None,
                    now_secs,
                );
                let mapped = match decision {
                    AuthDecision::Accepted(m) => m,
                    AuthDecision::Refused(reason) => return sink.response(Response::Error(reason)),
                };
                match self.njs.transfer_offer(manifest, &mapped.login) {
                    Ok(resume_from) => Response::TransferGo { resume_from },
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::TransferChunk {
                origin,
                origin_job,
                origin_node,
                index,
                data,
            } => match self
                .njs
                .transfer_chunk(&origin, origin_job, origin_node, index, &data)
            {
                Ok((upto, done)) => Response::ChunkAck { upto, done },
                Err(e) => Response::Error(e.to_string()),
            },
            // The §6 broker: an abstract request comes in, the ranked
            // placement across the whole known grid goes out. Quotas are
            // enforced at consign, not here — asking is free.
            Request::Broker { request } => {
                let offers = self.broker_rank(&request, now);
                Response::BrokerOffer {
                    offers: offers.iter().map(PlacementOffer::from).collect(),
                }
            }
            Request::DeliverOutcomes { deliveries } => {
                // Every sub-job the peer finished for us this tick,
                // applied in order. Each application is idempotent, so a
                // re-delivered batch (lost Ack, peer crash-restart) is
                // harmless.
                for d in deliveries {
                    self.njs
                        .complete_remote_node_with_files(d.parent, d.node, d.outcome, d.files);
                }
                Response::Ack
            }
            // Every member takes the path it would take alone — admission,
            // the rate limit, revocation and the peer-only check included —
            // and is answered before the next one runs, so a member sees
            // what the members before it did. The answers go back in
            // member order.
            Request::Sweep { requests } => {
                return sink.swept(requests.len(), |members| {
                    for member in requests {
                        let trusted = trusted_peer;
                        self.dispatch_request(from_dn, trusted, member, None, now, parent, members);
                    }
                })
            }
        };
        sink.response(response);
    }

    /// Handles a response to one of this server's own outbound requests.
    pub fn handle_response(&mut self, corr: u64, response: Response) {
        let Some(pending) = self.pending.remove(&corr) else {
            return;
        };
        match pending {
            Pending::SubJobConsign {
                parent,
                node,
                sent,
                tried,
            } => {
                match (response, sent) {
                    // The target site is unreachable (quarantined or
                    // dark): ask the broker for the next admissible site
                    // instead of failing the node.
                    (Response::Error(msg), Some(sent))
                        if is_dead_peer(&msg) && tried.len() < MAX_PLACEMENT_ATTEMPTS =>
                    {
                        let (ajo, return_files) = *sent;
                        self.retarget_subjob(parent, node, ajo, return_files, tried);
                    }
                    // The peer refused outright, or every admissible site
                    // has been tried (or the request never came back to
                    // be retargeted).
                    (Response::Error(_), _) => self.fail_subjob(parent, node),
                    // On Consigned{..} the node stays in Remote state
                    // until the outcome is delivered back.
                    _ => {}
                }
            }
            Pending::TransferOffer { job, node } => match response {
                Response::TransferGo { resume_from } => {
                    let Some(tr) = self.transfers.get_mut(&(job, node)) else {
                        return;
                    };
                    if resume_from > 0 {
                        self.dp.transfers_resumed.inc();
                    }
                    tr.phase = TransferPhase::Streaming;
                    tr.attempts = 0;
                    let to_send = tr.sender.begin(resume_from);
                    if tr.sender.is_complete() {
                        // The receiver already holds (and committed) the
                        // whole file — an earlier incarnation of us got it
                        // there before crashing.
                        self.finish_transfer(job, node, None);
                    } else {
                        for index in to_send {
                            self.push_chunk(job, node, index);
                        }
                    }
                }
                Response::Error(msg) => self.stall_transfer(job, node, msg),
                _ => self.stall_transfer(job, node, "unexpected offer response".into()),
            },
            Pending::TransferChunk { job, node } => match response {
                Response::ChunkAck { upto, done } => {
                    let Some(tr) = self.transfers.get_mut(&(job, node)) else {
                        return;
                    };
                    self.dp.chunks_acked.inc();
                    let to_send = tr.sender.on_ack(upto);
                    let (bytes, total) = (tr.sender.bytes_acked(), tr.sender.manifest().total_len);
                    self.njs.note_transfer_progress(job, node, bytes, total);
                    if done {
                        self.finish_transfer(job, node, None);
                    } else {
                        for index in to_send {
                            self.push_chunk(job, node, index);
                        }
                    }
                }
                Response::Error(msg) => self.stall_transfer(job, node, msg),
                _ => self.stall_transfer(job, node, "unexpected chunk response".into()),
            },
            Pending::OutcomeDelivery => {}
        }
    }

    /// Allocates a correlation id, records what its answer resolves and
    /// builds the request: the one way a request to a peer is made.
    fn peer_request(
        &mut self,
        dest: String,
        pending: Pending,
        request: Request,
        trace: Option<SpanContext>,
    ) -> OutboundRequest {
        let corr = self.next_corr;
        self.next_corr += 1;
        self.pending.insert(corr, pending);
        OutboundRequest {
            dest,
            corr,
            request,
            trace,
        }
    }

    /// Forwards a sub-job to the Usite its AJO names, after `tried`. The
    /// placement is journalled *before* the forward leaves, so a
    /// crash-restart replay of the same seed shows the identical trail:
    /// attempt 0 is the AJO's own target, and each retarget continues it
    /// with the sites already tried excluded.
    fn forward_subjob(
        &mut self,
        parent: JobId,
        node: ActionId,
        ajo: AbstractJob,
        return_files: Vec<String>,
        mut tried: Vec<String>,
    ) -> OutboundRequest {
        let attempt = tried.len() as u32;
        self.njs
            .journal_placement(parent, node, &ajo.vsite, &tried, attempt);
        let dest = ajo.vsite.usite.clone();
        tried.push(dest.clone());
        let pending = Pending::SubJobConsign {
            parent,
            node,
            sent: None,
            tried,
        };
        let request = Request::ConsignSubJob {
            ajo,
            origin: self.usite.clone(),
            parent,
            node,
            return_files,
        };
        let trace = self.njs.trace_of(parent);
        self.peer_request(dest, pending, request, trace)
    }

    /// A request [`step`](Self::step) gave out was sent, or refused before
    /// it reached the wire, and comes back before its answer is handled:
    /// a forwarded sub-job's AJO and return files are filed with its
    /// pending entry for a retarget. Any other request is dropped. A
    /// sub-job whose request does not come back fails its node on a
    /// dead-peer error instead of being retargeted.
    pub(crate) fn sent(&mut self, request: OutboundRequest) {
        let Request::ConsignSubJob {
            ajo, return_files, ..
        } = request.request
        else {
            return;
        };
        let Some(pending) = self.pending.get_mut(&request.corr) else {
            return;
        };
        match pending {
            Pending::SubJobConsign { sent, .. } => *sent = Some(Box::new((ajo, return_files))),
            // Only a sub-job's consign is ever retargeted.
            Pending::TransferOffer { .. }
            | Pending::TransferChunk { .. }
            | Pending::OutcomeDelivery => {}
        }
    }

    /// Fails a sub-job node no site will run.
    fn fail_subjob(&mut self, parent: JobId, node: ActionId) {
        let outcome = JobOutcome {
            status: ActionStatus::NotSuccessful,
            children: Vec::new(),
        };
        self.njs
            .complete_remote_node(parent, node, OutcomeNode::Job(outcome));
    }

    /// Retargets a sub-job whose site went dark: re-rank the grid with
    /// the tried sites excluded and re-forward the rewritten AJO.
    fn retarget_subjob(
        &mut self,
        parent: JobId,
        node: ActionId,
        mut ajo: AbstractJob,
        return_files: Vec<String>,
        tried: Vec<String>,
    ) {
        let request = aggregate_request(&ajo);
        let staging = staging_mb(&ajo);
        let cands = self.grid_candidates(self.clock, staging);
        let offers = rank(&self.broker_policy, &request, &cands, &tried);
        // Never retarget back to ourselves: the NJS decided this node
        // runs remotely, and a loop through the local queue would dodge
        // that decision.
        let Some(next) = offers.iter().find(|o| o.vsite.usite != self.usite) else {
            self.fail_subjob(parent, node);
            return;
        };
        self.broker_metrics.retargets.inc();
        let from = ajo.vsite.to_string();
        ajo.vsite = next.vsite.clone();
        if self.telemetry.is_enabled() {
            let mut span =
                self.telemetry
                    .span("broker.retarget", self.njs.trace_of(parent), self.clock);
            span.attr("from", &from);
            span.attr("to", &ajo.vsite.usite);
            self.telemetry.end(span, self.clock);
        }
        let forward = self.forward_subjob(parent, node, ajo, return_files, tried);
        self.outq.push(forward);
    }

    /// Earliest pending local event: the NJS's next one, or a stalled
    /// transfer's re-offer.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let retries = self.transfers.values().filter_map(|tr| match tr.phase {
            TransferPhase::Stalled { retry_at } => Some(retry_at),
            _ => None,
        });
        retries.chain(self.njs.next_event_time()).min()
    }

    /// Advances local work to `now` and returns requests for peers.
    pub fn step(&mut self, now: SimTime) -> Vec<OutboundRequest> {
        self.clock = now;
        self.njs.step(now);

        // Re-offer stalled transfers whose backoff elapsed: the receiver
        // answers with its journaled watermark, so this resumes rather
        // than restarts.
        let stalled: Vec<(JobId, ActionId)> = self
            .transfers
            .iter()
            .filter(|(_, tr)| matches!(tr.phase, TransferPhase::Stalled { retry_at } if retry_at <= now))
            .map(|(k, _)| *k)
            .collect();
        for (job, node) in stalled {
            if let Some(tr) = self.transfers.get_mut(&(job, node)) {
                tr.phase = TransferPhase::Offering;
            }
            self.offer_transfer(job, node);
        }

        // Chunk sends queued by ack handling since the last step.
        let mut out = std::mem::take(&mut self.outq);

        // Forward sub-jobs and open data-plane transfers for the files
        // the NJS wants sent away.
        for item in self.njs.take_outbox() {
            match item {
                OutgoingItem::SubJob {
                    parent,
                    node,
                    ajo,
                    return_files,
                } => out.push(self.forward_subjob(parent, node, ajo, return_files, Vec::new())),
                OutgoingItem::Transfer {
                    from_job,
                    node,
                    to_vsite,
                    dest_name,
                    data,
                    world_readable,
                } => {
                    let user_dn = self.njs.owner_dn(from_job).unwrap_or_default();
                    let manifest = TransferManifest::for_bytes(
                        self.usite.clone(),
                        from_job,
                        node,
                        to_vsite,
                        dest_name,
                        user_dn,
                        world_readable,
                        &data,
                        DEFAULT_CHUNK_SIZE,
                    );
                    let mut span = if self.telemetry.is_enabled() {
                        self.telemetry
                            .span("dataplane.transfer", self.njs.trace_of(from_job), now)
                    } else {
                        ActiveSpan::noop()
                    };
                    span.attr("dest", &manifest.to_vsite.usite);
                    span.attr("file", &manifest.dest_name);
                    self.transfers.insert(
                        (from_job, node),
                        OutboundTransfer {
                            dest: manifest.to_vsite.usite.clone(),
                            sender: SenderState::new(manifest, data, DEFAULT_WINDOW),
                            phase: TransferPhase::Offering,
                            attempts: 0,
                            span,
                        },
                    );
                    self.offer_transfer(from_job, node);
                }
            }
        }

        // Report finished foreign jobs back to their origins — batched:
        // every outcome bound for the same origin this tick rides one
        // DeliverOutcomes envelope, one wire round-trip per peer per
        // tick instead of one per job. Jobs sort by id and origins by
        // name, so the batch contents are deterministic regardless of
        // map iteration order.
        let mut finished: Vec<JobId> = self.njs.take_newly_done();
        finished.sort();
        let mut batches: BTreeMap<String, (Vec<OutcomeDelivery>, Option<SpanContext>)> =
            BTreeMap::new();
        for job in finished {
            let Some(f) = self.njs.foreign_of(job) else {
                continue;
            };
            let outcome = self.njs.outcome(job).cloned().unwrap_or_default();
            let return_files = self
                .njs
                .collect_return_files(job, &f.return_files)
                .into_iter()
                .map(|(name, data)| (name, data.to_vec())) // wire: Vec<u8> field
                .collect();
            let trace = self.njs.trace_of(job);
            let entry = batches.entry(f.origin.clone()).or_default();
            entry.0.push(OutcomeDelivery {
                parent: f.parent,
                node: f.node,
                outcome: OutcomeNode::Job(outcome),
                files: return_files,
            });
            // The batch rides the trace of its first job (head-style
            // sampling; per-job spans already live at both ends).
            if entry.1.is_none() {
                entry.1 = trace;
            }
        }
        for (dest, (deliveries, trace)) in batches {
            let request = Request::DeliverOutcomes { deliveries };
            out.push(self.peer_request(dest, Pending::OutcomeDelivery, request, trace));
        }
        // Offers queued while draining the outbox above.
        out.append(&mut self.outq);
        out
    }

    /// Queues (or re-queues) the offer for a registered transfer.
    fn offer_transfer(&mut self, job: JobId, node: ActionId) {
        let Some(tr) = self.transfers.get(&(job, node)) else {
            return;
        };
        let (dest, manifest) = (tr.dest.clone(), tr.sender.manifest().clone());
        let request = Request::TransferOffer { manifest };
        let trace = self.njs.trace_of(job);
        let offer = self.peer_request(dest, Pending::TransferOffer { job, node }, request, trace);
        self.outq.push(offer);
    }

    /// Queues one chunk send for an in-window index.
    fn push_chunk(&mut self, job: JobId, node: ActionId, index: u64) {
        let Some(tr) = self.transfers.get(&(job, node)) else {
            return;
        };
        let data = tr.sender.chunk(index).to_vec(); // wire: Vec<u8> field
        let dest = tr.dest.clone();
        let origin = tr.sender.manifest().origin.clone();
        self.dp.chunks_sent.inc();
        self.dp.bytes_sent.add(data.len() as u64);
        let request = Request::TransferChunk {
            origin,
            origin_job: job,
            origin_node: node,
            index,
            data,
        };
        let trace = self.njs.trace_of(job);
        let chunk = self.peer_request(dest, Pending::TransferChunk { job, node }, request, trace);
        self.outq.push(chunk);
    }

    /// Ends a transfer: `None` completes its node with the full byte
    /// count, `Some(msg)` fails it.
    fn finish_transfer(&mut self, job: JobId, node: ActionId, error: Option<String>) {
        let Some(tr) = self.transfers.remove(&(job, node)) else {
            return;
        };
        let outcome = match &error {
            None => {
                self.dp.transfers_completed.inc();
                TaskOutcome {
                    status: ActionStatus::Successful,
                    bytes_staged: tr.sender.manifest().total_len,
                    ..Default::default()
                }
            }
            Some(msg) => {
                self.dp.transfers_failed.inc();
                TaskOutcome::failure(msg.clone())
            }
        };
        let mut span = tr.span;
        span.attr(
            "outcome",
            if error.is_none() {
                "complete"
            } else {
                "failed"
            },
        );
        self.telemetry.end(span, self.clock);
        self.njs
            .complete_remote_node(job, node, OutcomeNode::Task(outcome));
    }

    /// Records a receiver-side rejection: back off and re-offer (the
    /// receiver's journaled watermark turns the re-offer into a resume),
    /// failing the node once the attempt budget is spent.
    fn stall_transfer(&mut self, job: JobId, node: ActionId, msg: String) {
        let Some(tr) = self.transfers.get_mut(&(job, node)) else {
            return;
        };
        tr.attempts += 1;
        if tr.attempts >= MAX_TRANSFER_ATTEMPTS {
            self.finish_transfer(job, node, Some(msg));
            return;
        }
        tr.phase = TransferPhase::Stalled {
            retry_at: self.clock + TRANSFER_RETRY,
        };
    }

    /// Current load of this server's own Vsites: the one load a broker
    /// knows live.
    fn load_snapshots(&self, now: SimTime) -> Vec<crate::broker::Candidate> {
        self.njs
            .vsite_names()
            .iter()
            .filter_map(|name| {
                let v = self.njs.vsite(name)?;
                Some(crate::broker::Candidate {
                    page: v.page.clone(),
                    load: crate::broker::LoadSnapshot {
                        vsite: v.page.vsite.clone(),
                        total_nodes: v.batch.total_nodes(),
                        free_nodes: v.batch.free_nodes(),
                        queue_length: v.batch.queue_length(),
                        running: v.batch.running_count(),
                        utilization: v.batch.utilization(now.max(1)),
                    },
                    staging_mb: 0,
                })
            })
            .collect()
    }

    /// Convenience for experiments: whether a locally consigned job is done.
    pub fn is_done(&self, job: JobId) -> bool {
        self.njs.is_done(job)
    }

    /// Convenience: the job's outcome.
    pub fn outcome(&self, job: JobId) -> Option<&JobOutcome> {
        self.njs.outcome(job)
    }

    /// Convenience: query the outcome tree as the owner would.
    pub fn query(&self, job: JobId, dn: &str, detail: DetailLevel) -> Option<JobOutcome> {
        self.njs.query(job, dn, detail).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Federation, FederationConfig};
    use unicore_ajo::{
        AbstractJob, AbstractTask, ExecuteKind, GraphNode, ResourceRequest, TaskKind,
        UserAttributes, VsiteAddress,
    };
    use unicore_codec::DerWriter;
    use unicore_crypto::sha256;
    use unicore_sim::{HOUR, MINUTE};

    const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=alice";

    fn job(name: &str) -> AbstractJob {
        let mut job = AbstractJob::new(
            name,
            VsiteAddress::new("FZJ", "T3E"),
            UserAttributes::new(DN, "users"),
        );
        job.nodes.push((
            ActionId(1),
            GraphNode::Task(AbstractTask {
                name: "hello".into(),
                resources: ResourceRequest::minimal().with_run_time(3_600),
                kind: TaskKind::Execute(ExecuteKind::Script {
                    script: "echo hi\nsleep 20\n".into(),
                }),
            }),
        ));
        job
    }

    fn consign(server: &mut UnicoreServer, ajo: &AbstractJob, now: SimTime) -> JobId {
        match server.handle_request(DN, Request::Consign { ajo: ajo.clone() }, now) {
            Response::Consigned { job } => job,
            other => panic!("consign refused: {other:?}"),
        }
    }

    const PEER_DN: &str = "C=DE, O=RUS, OU=UNICORE, CN=RUS-server";

    /// FZJ booted from its configuration, without a network.
    fn fzj() -> UnicoreServer {
        use crate::config::{SiteConfig, VsiteConfig};
        use unicore_gateway::{UserEntry, Uudb};
        use unicore_njs::TranslationTable;
        use unicore_resources::{deployment_page, Architecture};
        let mut uudb = Uudb::new();
        uudb.add(DN, UserEntry::new("alice", "users"));
        let config = SiteConfig {
            usite: "FZJ".into(),
            vsites: vec![VsiteConfig {
                page: deployment_page("FZJ", "T3E", Architecture::CrayT3e),
                table: TranslationTable::for_architecture(Architecture::CrayT3e),
            }],
            uudb,
            peer_servers: vec![PEER_DN.into()],
        };
        config.boot()
    }

    /// FZJ with one job of alice's consigned and run to its end: the time
    /// it ended.
    fn fzj_with_a_finished_job() -> (UnicoreServer, JobId, SimTime) {
        let mut server = fzj();
        let id = consign(&mut server, &job("swept"), 0);
        let mut now = 0;
        server.step(now);
        while !server.is_done(id) {
            now = server
                .next_event_time()
                .expect("a running job has an event");
            server.step(now);
        }
        (server, id, now)
    }

    fn poll(job: JobId) -> Request {
        Request::Poll {
            job,
            detail: DetailLevel::Tasks,
        }
    }

    /// The two ways a request reaches the one dispatch path: the public
    /// door, answered with an owned `Response`, and the federation's frame
    /// path, answered into the frame's writer (decoded here).
    #[derive(Clone, Copy, Debug)]
    enum Door {
        Owned,
        Frame,
    }

    const DOORS: [Door; 2] = [Door::Owned, Door::Frame];

    /// `request` from `dn` through `door`, with the answer's DER.
    fn ask(
        server: &mut UnicoreServer,
        door: Door,
        dn: &str,
        request: Request,
        now: SimTime,
    ) -> (Response, Vec<u8>) {
        match door {
            Door::Owned => {
                let answer = server.handle_request(dn, request, now);
                let der = answer.to_der();
                (answer, der)
            }
            Door::Frame => {
                let mut frame = DerWriter::new();
                server.serve(dn, request, None, now, None, &mut frame);
                let der = frame.into_vec();
                (Response::from_der(&der).expect("a Response"), der)
            }
        }
    }

    fn swept(
        server: &mut UnicoreServer,
        door: Door,
        requests: Vec<Request>,
        now: SimTime,
    ) -> Vec<Response> {
        match ask(server, door, DN, Request::Sweep { requests }, now).0 {
            Response::Swept { responses } => responses,
            other => panic!("a sweep answered {other:?} through {door:?}"),
        }
    }

    fn refused_for(response: &Response, why: &str) -> bool {
        matches!(response, Response::Error(reason) if reason.contains(why))
    }

    #[test]
    fn a_sweep_gets_the_answers_its_members_would_get_alone() {
        let members = |id| vec![poll(id), Request::Purge { job: id }, poll(JobId(999))];
        let (mut alone, id, now) = fzj_with_a_finished_job();
        let lone: Vec<Response> = members(id)
            .into_iter()
            .map(|request| alone.handle_request(DN, request, now))
            .collect();
        for door in DOORS {
            let (mut server, same_id, same_now) = fzj_with_a_finished_job();
            assert_eq!((same_id, same_now), (id, now));
            let answers = swept(&mut server, door, members(id), now);
            assert_eq!(answers, lone, "{door:?}");
            // What they are, in member order: the outcome, the purge, and
            // the unknown job refused.
            let outcome = crate::protocol::outcome_of(&answers[0]);
            assert!(outcome.is_some_and(|o| o.status.is_success()));
            assert!(matches!(answers[1], Response::Purged { .. }));
            assert!(matches!(answers[2], Response::Error(_)));
        }
    }

    #[test]
    fn a_sweep_spends_the_rate_limit_per_member() {
        for door in DOORS {
            let (mut server, id, now) = fzj_with_a_finished_job();
            server
                .gateway_mut()
                .set_rate_limit(unicore_gateway::RateLimitConfig::new(0, 2));
            let answers = swept(&mut server, door, vec![poll(id), poll(id), poll(id)], now);
            assert!(answers[..2]
                .iter()
                .all(|a| crate::protocol::outcome_of(a).is_some()));
            assert!(refused_for(&answers[2], "rate limit"), "{:?}", answers[2]);
        }
    }

    #[test]
    fn a_sweep_from_a_revoked_dn_has_every_member_refused() {
        for door in DOORS {
            let (mut server, id, now) = fzj_with_a_finished_job();
            server.gateway_mut().revoke_dn(DN);
            let members = vec![poll(id), Request::List, Request::Purge { job: id }];
            let answers = swept(&mut server, door, members, now);
            assert_eq!(answers.len(), 3);
            for answer in &answers {
                assert!(refused_for(answer, "certificate revoked"), "{answer:?}");
            }
            assert!(server.outcome(id).is_some(), "the purge was not done");
        }
    }

    #[test]
    fn a_peer_only_request_in_a_users_sweep_is_refused_as_if_alone() {
        for door in DOORS {
            let (mut server, id, now) = fzj_with_a_finished_job();
            let deliver = || Request::DeliverOutcomes {
                deliveries: vec![OutcomeDelivery {
                    parent: id,
                    node: ActionId(1),
                    outcome: OutcomeNode::Job(JobOutcome::default()),
                    files: vec![],
                }],
            };
            let lone = server.handle_request(DN, deliver(), now);
            assert!(refused_for(&lone, "not a trusted peer server"), "{lone:?}");
            let answers = swept(&mut server, door, vec![poll(id), deliver()], now);
            assert!(crate::protocol::outcome_of(&answers[0]).is_some());
            assert_eq!(answers[1], lone);
            let outcome = server.outcome(id).expect("still there");
            assert!(outcome.status.is_success(), "nothing was delivered");
        }
    }

    #[test]
    fn the_frame_path_answers_byte_for_byte_as_the_public_door() {
        const MALLORY: &str = "C=DE, O=FZJ, OU=ZAM, CN=mallory";
        let at = |detail| move |job| Request::Poll { job, detail };
        let (job_only, groups) = (at(DetailLevel::JobOnly), at(DetailLevel::Groups));
        // Lone polls at every level, an unknown job, another user's job.
        let lone = |id: JobId| {
            [
                (DN, job_only(id)),
                (DN, groups(id)),
                (DN, poll(id)),
                (DN, poll(JobId(999))),
                (MALLORY, poll(id)),
            ]
        };
        // A sweep of polls, purges and listings, with the job polled and
        // listed again after its purge, and a purge of what is gone.
        let mixed = |id: JobId| {
            vec![
                job_only(id),
                Request::List,
                groups(id),
                Request::Purge { job: id },
                poll(id),
                Request::List,
                Request::Purge { job: id },
                poll(JobId(999)),
            ]
        };
        let ders = DOORS.map(|door| {
            let (mut server, id, now) = fzj_with_a_finished_job();
            let mut ders: Vec<Vec<u8>> = lone(id)
                .into_iter()
                .map(|(dn, request)| ask(&mut server, door, dn, request, now).1)
                .collect();
            let (answer, der) = ask(
                &mut server,
                door,
                DN,
                Request::Sweep {
                    requests: mixed(id),
                },
                now,
            );
            let Response::Swept { responses } = answer else {
                panic!("the sweep answered {answer:?}");
            };
            // The poll after the purge saw it: the job is gone.
            assert!(
                refused_for(&responses[4], "unknown job"),
                "{door:?}: {responses:?}"
            );
            assert!(matches!(responses[3], Response::Purged { .. }));
            ders.push(der);
            assert!(server.outcome(id).is_none(), "{door:?}: the purge was done");
            ders
        });
        let [owned, frame] = &ders;
        assert_eq!(owned.len(), 6);
        assert_eq!(frame, owned);
        let refusals = owned[3..5]
            .iter()
            .map(|der| Response::from_der(der).expect("a Response"));
        for (refusal, why) in refusals.zip(["unknown job", "does not own"]) {
            assert!(refused_for(&refusal, why), "{refusal:?}");
        }
    }

    /// FZJ at time 0 with four transfers of one file to RUS (nodes 2–5),
    /// each offer answered with an error: all four stalled until
    /// `TRANSFER_RETRY`.
    fn fzj_with_four_stalled_transfers() -> UnicoreServer {
        use unicore_ajo::{DataLocation, Dependency, FileKind, PortfolioFile};
        let mut server = fzj();
        let mut ajo = AbstractJob::new(
            "fan-out",
            VsiteAddress::new("FZJ", "T3E"),
            UserAttributes::new(DN, "users"),
        );
        ajo.portfolio.push(PortfolioFile {
            name: "fields.dat".into(),
            data: vec![7u8; 1000].into(),
        });
        let file_task = |name: &str, kind| {
            GraphNode::Task(AbstractTask {
                name: name.into(),
                resources: ResourceRequest::minimal(),
                kind: TaskKind::File(kind),
            })
        };
        let import = FileKind::Import {
            source: DataLocation::Workstation {
                path: "fields.dat".into(),
            },
            uspace_name: "fields.dat".into(),
        };
        ajo.nodes.push((ActionId(1), file_task("import", import)));
        for node in 2..=5 {
            let ship = FileKind::Transfer {
                uspace_name: "fields.dat".into(),
                to_vsite: VsiteAddress::new("RUS", "VPP"),
                dest_name: format!("fields-{node}.dat"),
            };
            ajo.nodes.push((ActionId(node), file_task("ship", ship)));
            ajo.dependencies.push(Dependency {
                from: ActionId(1),
                to: ActionId(node),
                files: vec![],
            });
        }
        consign(&mut server, &ajo, 0);
        let offers: Vec<u64> = server
            .step(0)
            .into_iter()
            .filter(|r| matches!(r.request, Request::TransferOffer { .. }))
            .map(|r| r.corr)
            .collect();
        assert_eq!(offers.len(), 4);
        for corr in offers {
            server.handle_response(corr, Response::Error("receiver refused".into()));
        }
        server
    }

    /// The nodes whose transfers a step's requests offer, in wire order.
    fn offered_nodes(requests: &[OutboundRequest]) -> Vec<u64> {
        requests
            .iter()
            .filter_map(|r| match &r.request {
                Request::TransferOffer { manifest } => Some(manifest.origin_node.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_stalled_transfers_retry_is_the_servers_next_event() {
        let mut server = fzj_with_four_stalled_transfers();
        assert_eq!(server.next_event_time(), Some(TRANSFER_RETRY));
        assert_eq!(offered_nodes(&server.step(TRANSFER_RETRY)).len(), 4);
        assert_eq!(server.next_event_time(), None, "every transfer re-offered");
    }

    #[test]
    fn stalled_transfers_are_re_offered_in_node_order() {
        for _ in 0..6 {
            let mut server = fzj_with_four_stalled_transfers();
            assert_eq!(offered_nodes(&server.step(TRANSFER_RETRY)), [2, 3, 4, 5]);
        }
    }

    #[test]
    fn streamed_keys_equal_the_digest_of_the_concatenation() {
        let der = job("keyed").to_der();
        let concatenated = [DN.as_bytes(), &[0], &der].concat();
        assert_eq!(*consign_key(DN, &der), sha256(&concatenated));

        let (parent, node) = (JobId(0x0102_0304_0506_0708), ActionId(9));
        let mut concatenated = b"RUS\0".to_vec();
        concatenated.extend_from_slice(&parent.0.to_be_bytes());
        concatenated.extend_from_slice(&node.0.to_be_bytes());
        assert_eq!(*subjob_key("RUS", parent, node), sha256(&concatenated));
    }

    #[test]
    fn purge_forgets_one_key_and_keeps_the_rest() {
        let mut fed = Federation::german_deployment(FederationConfig::default());
        fed.attach_stores();
        fed.register_user(DN, "alice");
        let ajos: Vec<AbstractJob> = (0..8).map(|i| job(&format!("job-{i}"))).collect();
        let server = fed
            .server_mut("FZJ")
            .expect("FZJ is in the German deployment");
        let ids: Vec<JobId> = ajos.iter().map(|ajo| consign(server, ajo, 1)).collect();
        // Consigned behind the federation's back: its first advance steps
        // the server (the jobs start), the second runs them to completion.
        fed.run_until(MINUTE);
        fed.run_until(HOUR);
        let now = fed.now();
        let server = fed
            .server_mut("FZJ")
            .expect("FZJ is in the German deployment");

        let purged = 3;
        let response = server.handle_request(DN, Request::Purge { job: ids[purged] }, now);
        assert!(matches!(response, Response::Purged { .. }), "{response:?}");

        // The other seven keys still resolve, before and after a restart
        // that replays the purge from the journal: a re-sent Consign is
        // answered with the job it already created.
        let keys_resolve = |server: &UnicoreServer| {
            for (i, ajo) in ajos.iter().enumerate() {
                let key = consign_key(DN, &ajo.to_der());
                let live = (i != purged).then_some(ids[i]);
                assert_eq!(server.njs().job_for_key(&key), live, "job-{i}");
            }
        };
        keys_resolve(server);
        fed.crash_site("FZJ");
        fed.restart_site("FZJ");
        let server = fed.server_mut("FZJ").expect("FZJ restarted");
        keys_resolve(server);
        for (i, ajo) in ajos.iter().enumerate().filter(|(i, _)| *i != purged) {
            assert_eq!(consign(server, ajo, now), ids[i]);
        }

        // The purged AJO, re-sent, is a rerun: a new job.
        let rerun = consign(server, &ajos[purged], now);
        assert!(!ids.contains(&rerun), "purged job id {rerun:?} reused");
        let key = consign_key(DN, &ajos[purged].to_der());
        assert_eq!(server.njs().job_for_key(&key), Some(rerun));
    }
}
