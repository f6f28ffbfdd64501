//! The multi-site federation — Figure 2 of the paper.
//!
//! "The whole UNICORE picture contains multiple UNICORE servers, one at
//! each Usite ... The different servers are connected so that (parts of)
//! UNICORE jobs, data, and control information can be exchanged to support
//! distributed applications or to allow the user to contact any UNICORE
//! server."
//!
//! The federation runs every [`UnicoreServer`] over one discrete-event
//! network: user requests enter from a workstation node, NJS–NJS traffic
//! flows between gateway nodes, and all of it pays realistic WAN latency,
//! bandwidth serialisation, and (optionally) message loss.
//!
//! The *asynchronous* protocol of §5.3 is implemented faithfully: requests
//! are short interactions; the requester retries on timeout and servers
//! deduplicate by `(DN, correlation id)`, so lost messages delay but do not
//! break jobs. A deliberately *synchronous* variant
//! ([`Federation::client_submit_sync`]) holds one long interaction open
//! with no retries — the strawman the paper argues against, measured in
//! experiment E8.

use crate::grid::{AggregationTree, PlaneNode};
use crate::link::{self, Outbox};
use crate::protocol::{Body, Envelope, Request, Response};
use crate::server::UnicoreServer;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use unicore_ajo::{
    AbstractJob, ControlOp, DetailLevel, GridView, JobId, JobOutcome, ServiceOutcome, SiteHealth,
    SiteStatus, UnreachableReason,
};
use unicore_codec::{DerCodec, DerWriter};
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture, ResourcePage};
use unicore_sim::{SimTime, MINUTE, SEC};
use unicore_simnet::{FaultPlan, Firewall, LinkParams, Network, NodeId};
use unicore_store::{EventStore, MemoryBackend};
use unicore_telemetry::{
    standard_slo_rules, ActiveAlert, ActiveSpan, AlertEngine, AlertEvent, SpanContext, Telemetry,
};

/// The UNICORE gateway port.
pub const GATEWAY_PORT: u16 = 4433;

/// One Usite to build.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Usite name (e.g. `"FZJ"`).
    pub name: String,
    /// Vsites: `(name, architecture)`.
    pub vsites: Vec<(String, Architecture)>,
    /// Run the firewall-split deployment (§5.2): gateway half on the
    /// firewall node, NJS on an interior node, joined by a LAN hop.
    pub split: bool,
}

impl SiteSpec {
    /// A simple single-Vsite site.
    pub fn simple(name: &str, vsite: &str, arch: Architecture) -> Self {
        SiteSpec {
            name: name.into(),
            vsites: vec![(vsite.into(), arch)],
            split: false,
        }
    }

    /// Enables the firewall-split deployment.
    pub fn with_split(mut self) -> Self {
        self.split = true;
        self
    }
}

/// Federation tuning knobs.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// RNG seed (network loss/jitter).
    pub seed: u64,
    /// WAN link loss probability.
    pub wan_loss: f64,
    /// Extra bytes charged on first contact between two nodes (models the
    /// SSL handshake's certificate exchange; later contacts resume).
    pub handshake_bytes: usize,
    /// Async retry timeout for the first retransmission; later attempts
    /// back off exponentially up to [`FederationConfig::backoff_cap`].
    pub retry_timeout: SimTime,
    /// Async retry budget per request.
    pub max_retries: u32,
    /// Ceiling on the exponential retry backoff. Deterministic jitter of
    /// up to a quarter of the delay is added on top, hashed from the
    /// seed, the request identity and the attempt number, so replays are
    /// byte-identical but concurrent retries do not synchronise.
    pub backoff_cap: SimTime,
    /// Consecutive retry-budget exhaustions against one peer site before
    /// its circuit opens (the peer is quarantined: new requests to it
    /// fast-fail instead of burning a full retry budget each).
    pub quarantine_after: u32,
    /// How long an open circuit waits before letting one half-open probe
    /// request through. Any envelope received from the peer closes the
    /// circuit again.
    pub probe_interval: SimTime,
    /// Heartbeat period of the aggregation plane (E17): how often each
    /// site refreshes its own status row and pushes its subtree
    /// snapshot one hop up the spanning tree. Only active once
    /// [`Federation::enable_telemetry`] has been called.
    pub push_interval: SimTime,
    /// How long an aggregation edge may go unheard before the whole
    /// cached subtree behind it is marked stale in grid views.
    pub stale_after: SimTime,
    /// Fanout of the aggregation spanning tree (clamped to ≥ 2): every
    /// grid-view query climbs at most `log_fanout(sites)` NJS→NJS hops.
    pub tree_fanout: usize,
    /// NJS shards per site (E18): >1 splits each server's job state by
    /// Vsite into independent shards with per-shard WAL segments.
    pub njs_shards: usize,
    /// WAN link profile.
    pub wan: LinkParams,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            seed: 1,
            wan_loss: 0.0,
            handshake_bytes: 4_096,
            retry_timeout: 2 * SEC,
            max_retries: 10,
            backoff_cap: 16 * SEC,
            quarantine_after: 2,
            probe_interval: MINUTE,
            push_interval: 30 * SEC,
            stale_after: 90 * SEC,
            tree_fanout: 4,
            njs_shards: 1,
            wan: LinkParams::wan_1999(),
        }
    }
}

/// What the federation keeps per Usite besides its server.
struct SiteNodes {
    /// The Usite's name and its server's DN, shared: one or the other is
    /// named by every envelope the site sends or is sent.
    name: Arc<str>,
    dn: Arc<str>,
    gateway: NodeId,
    njs: NodeId,
    split: bool,
    /// At-most-once reply cache: requester DN → correlation id → the
    /// answer given, replayed to retransmissions.
    handled: HashMap<String, HashMap<u64, Response>>,
}

#[derive(Clone)]
struct Inflight {
    src: NodeId,
    dst: NodeId,
    /// Destination Usite, for circuit-breaker accounting.
    dest_site: Arc<str>,
    /// The frame as first stamped. Retransmissions push these bytes
    /// through the same outbox, so the envelope's sequence number never
    /// changes.
    frame: Vec<u8>,
    deadline: SimTime,
    retries_left: u32,
    /// Transmissions so far (0 = only the original send); drives the
    /// exponential backoff.
    attempt: u32,
}

/// The requests awaiting a response, with their retry deadlines also
/// held as an ordered multiset: "when is the next retry due" and "is any
/// due now" are asked on every `advance()`, and are answered from the
/// multiset's minimum instead of a walk over every entry. Every write of
/// an [`Inflight::deadline`] goes through this table, which is what
/// keeps the two views equal.
#[derive(Default)]
struct InflightTable {
    entries: HashMap<CorrKey, Inflight>,
    /// `deadline → number of entries carrying it`.
    deadlines: BTreeMap<SimTime, usize>,
}

impl InflightTable {
    fn note_deadline(&mut self, deadline: SimTime) {
        *self.deadlines.entry(deadline).or_default() += 1;
    }

    fn forget_deadline(&mut self, deadline: SimTime) {
        let count = self.deadlines.get_mut(&deadline).expect("tracked deadline");
        *count -= 1;
        if *count == 0 {
            self.deadlines.remove(&deadline);
        }
    }

    fn insert(&mut self, key: CorrKey, entry: Inflight) {
        self.note_deadline(entry.deadline);
        if let Some(old) = self.entries.insert(key, entry) {
            self.forget_deadline(old.deadline);
        }
    }

    fn remove(&mut self, key: &CorrKey) -> Option<Inflight> {
        let entry = self.entries.remove(key)?;
        self.forget_deadline(entry.deadline);
        Some(entry)
    }

    fn get(&self, key: &CorrKey) -> Option<&Inflight> {
        self.entries.get(key)
    }

    /// Drops every entry whose owner (the requesting site) fails `keep`.
    fn retain_owners(&mut self, keep: impl Fn(&str) -> bool) {
        let mut dropped = Vec::new();
        self.entries.retain(|(owner, _), entry| {
            let kept = keep(owner);
            if !kept {
                dropped.push(entry.deadline);
            }
            kept
        });
        for deadline in dropped {
            self.forget_deadline(deadline);
        }
    }

    /// Re-arms `key`: applies `update` to the entry (its retry budget and
    /// attempt count) and moves its deadline to `deadline`.
    fn rearm(&mut self, key: &CorrKey, deadline: SimTime, update: impl FnOnce(&mut Inflight)) {
        let entry = self.entries.get_mut(key).expect("inflight entry");
        let old = std::mem::replace(&mut entry.deadline, deadline);
        update(entry);
        self.forget_deadline(old);
        self.note_deadline(deadline);
    }

    /// The earliest retry deadline.
    fn next_deadline(&self) -> Option<SimTime> {
        self.deadlines.keys().next().copied()
    }

    /// Keys whose deadline has passed at `t`, in key order (so the
    /// network's RNG draws replay identically run to run). Nothing is
    /// scanned while the earliest deadline is still ahead.
    fn due(&self, t: SimTime) -> Vec<CorrKey> {
        if self.next_deadline().is_none_or(|first| first > t) {
            return Vec::new();
        }
        let mut due: Vec<CorrKey> = self
            .entries
            .iter()
            .filter(|(_, f)| f.deadline <= t)
            .map(|(k, _)| k.clone())
            .collect();
        due.sort();
        due
    }
}

/// Receiver-side ledger of the sequence numbers seen from one origin
/// node, distinguishing fresh deliveries from duplicates and late
/// (reordered) arrivals, and yielding the cumulative ack piggybacked on
/// traffic flowing back.
#[derive(Debug, Default)]
struct SeqTracker {
    /// Highest `n` such that every sequence number `1..=n` has arrived.
    contiguous: u64,
    /// Sequence numbers seen above the contiguous prefix.
    ahead: BTreeSet<u64>,
    /// Highest sequence number seen at all.
    max_seen: u64,
    duplicates: u64,
    reordered: u64,
}

impl SeqTracker {
    /// Records an arrival; returns `true` when the number is fresh.
    fn observe(&mut self, seq: u64) -> bool {
        // In order with nothing waiting above the prefix — every arrival
        // on a healthy link: the prefix grows by one, nothing to park.
        // (`ahead` empty means `max_seen == contiguous`, so this is
        // neither a duplicate nor a late arrival.)
        if seq == self.contiguous + 1 && self.ahead.is_empty() {
            self.contiguous = seq;
            self.max_seen = seq;
            return true;
        }
        if seq <= self.contiguous || self.ahead.contains(&seq) {
            self.duplicates += 1;
            return false;
        }
        if seq < self.max_seen {
            // A gap below the frontier just filled in: something
            // overtook this message on the wire.
            self.reordered += 1;
        }
        self.max_seen = self.max_seen.max(seq);
        self.ahead.insert(seq);
        while self.ahead.remove(&(self.contiguous + 1)) {
            self.contiguous += 1;
        }
        true
    }
}

/// Circuit-breaker state for one peer Usite.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PeerState {
    /// Healthy: requests flow normally.
    Closed,
    /// Quarantined: requests fast-fail until `probe_at`, when a single
    /// half-open probe is let through.
    Open { probe_at: SimTime, probing: bool },
}

#[derive(Debug, Clone)]
struct PeerHealth {
    /// Consecutive retry-budget exhaustions (reset by any envelope
    /// received from the peer).
    failures: u32,
    state: PeerState,
}

/// A scheduled site-level fault from an applied [`FaultPlan`].
#[derive(Debug, Clone)]
enum FaultEvent {
    PartitionStart(String),
    PartitionEnd(String),
    Crash(String),
    Restart(String),
}

/// Key for requester-side correlation: client requests use site "".
type CorrKey = (String, u64);

struct SyncWatch {
    usite: String,
    job: JobId,
    corr: u64,
    client_node: NodeId,
    owner_dn: String,
}

/// One hop of a grid-view query climbing the aggregation tree: the site
/// that received it remembers who asked, so the root's answer — or a
/// degraded subtree view when the uplink is dead — flows back down the
/// same path.
struct GridRelay {
    origin_node: NodeId,
    origin_corr: u64,
    origin_dn: String,
}

/// Relay and push correlation ids live far above any server-assigned id
/// so the three spaces never collide in the shared `(site, corr)`
/// inflight namespace.
const RELAY_CORR_BASE: u64 = 1 << 48;
const PUSH_CORR_BASE: u64 = 1 << 49;

/// The running federation.
pub struct Federation {
    net: Network,
    sites: HashMap<String, SiteNodes>,
    site_order: Vec<String>,
    servers: HashMap<String, UnicoreServer>,
    workstation: NodeId,
    /// Frames written this tick, flushed one record per peer at its end.
    outbox: Outbox,
    established: HashSet<(NodeId, NodeId)>,
    handshake_bytes: usize,
    seed: u64,
    njs_shards: usize,
    retry_timeout: SimTime,
    max_retries: u32,
    backoff_cap: SimTime,
    quarantine_after: u32,
    probe_interval: SimTime,
    inflight: InflightTable,
    client_responses: HashMap<u64, Response>,
    next_client_corr: u64,
    sync_corrs: HashSet<u64>,
    sync_watches: Vec<SyncWatch>,
    /// The deterministic aggregation spanning tree over the Usites (E17).
    tree: AggregationTree,
    /// Per-site aggregation-plane state; removed while a site is down.
    plane: HashMap<String, PlaneNode>,
    push_interval: SimTime,
    stale_after: SimTime,
    /// In-flight aggregation pushes, so acks and retry exhaustion find
    /// the owning plane node.
    push_corrs: HashSet<CorrKey>,
    next_push_corr: u64,
    /// Open grid-view relays, keyed by the upward hop's correlation id.
    grid_relays: HashMap<CorrKey, GridRelay>,
    next_relay_corr: u64,
    /// The root-scope SLO rules engine over the merged grid view.
    alert_engine: AlertEngine,
    next_alert_eval: SimTime,
    /// Wire bytes spent on full-snapshot aggregation pushes.
    pub grid_push_bytes_full: u64,
    /// Wire bytes spent on delta aggregation pushes.
    pub grid_push_bytes_delta: u64,
    /// NJS→NJS hops taken by grid-view queries (the client hop and the
    /// responses' return path are excluded).
    pub grid_query_hops: u64,
    now: SimTime,
    /// Messages handed to the network (metrics): one record per peer
    /// per tick, however many envelopes it carries.
    pub messages_sent: u64,
    /// Protocol envelopes sent, retransmissions included (metrics).
    pub envelopes_sent: u64,
    /// Total retries performed (metrics).
    pub retries: u64,
    /// Requests whose full retry budget ran dry (metrics).
    pub retry_exhaustions: u64,
    /// Requests fast-failed because the destination was quarantined.
    pub fast_failures: u64,
    /// Per-channel sequence stamping for distinct outgoing envelopes.
    next_seq: HashMap<(NodeId, NodeId), u64>,
    /// Receiver-side sequence ledgers, keyed `(receiver, sender)`.
    recv_seq: HashMap<(NodeId, NodeId), SeqTracker>,
    /// Circuit-breaker state per peer Usite.
    peer_health: HashMap<String, PeerHealth>,
    /// Gateway node → owning Usite (for circuit bookkeeping on receive).
    node_sites: HashMap<NodeId, String>,
    /// Scheduled site-level faults, ascending by time.
    fault_events: VecDeque<(SimTime, FaultEvent)>,
    /// Per-site journal backends (one per NJS shard), once
    /// [`Federation::attach_stores`] ran.
    backends: HashMap<String, Vec<MemoryBackend>>,
    /// Sites currently down (crashed, awaiting restart).
    crashed: HashSet<String>,
    /// Sites currently cut off by a network partition.
    partitioned: HashSet<String>,
    /// Site build specs, kept to rebuild a crashed server.
    specs: HashMap<String, SiteSpec>,
    /// User registrations, replayed into a rebuilt server's UUDB.
    registered_users: Vec<(String, String)>,
    /// Telemetry seed, so a rebuilt server gets a collector again.
    telemetry_seed: Option<u64>,
    /// Client-tier (JPA/JMC) telemetry; disabled unless
    /// [`Federation::enable_telemetry`] is called.
    telemetry: Telemetry,
    /// Open `client.request` spans, ended when the response arrives.
    client_spans: HashMap<u64, ActiveSpan>,
}

impl Federation {
    /// Builds a federation of `specs` over a full-mesh WAN.
    pub fn new(config: FederationConfig, specs: &[SiteSpec]) -> Self {
        let mut net = Network::new(config.seed);
        let mut sites = HashMap::new();
        let mut site_order = Vec::new();
        let mut servers = HashMap::new();
        let mut server_dns = HashMap::new();

        for spec in specs {
            let gateway = net.add_node(format!("{}-gw", spec.name));
            let njs_node = net.add_node(format!("{}-njs", spec.name));
            net.set_firewall(gateway, Firewall::AllowList(vec![GATEWAY_PORT]));
            net.add_duplex(gateway, njs_node, LinkParams::lan());
            let dn = format!("C=DE, O={}, OU=UNICORE, CN={}-server", spec.name, spec.name);
            sites.insert(
                spec.name.clone(),
                SiteNodes {
                    name: spec.name.as_str().into(),
                    dn: dn.as_str().into(),
                    gateway,
                    njs: njs_node,
                    split: spec.split,
                    handled: HashMap::new(),
                },
            );
            site_order.push(spec.name.clone());

            let mut njs = ShardedNjs::new(spec.name.clone(), config.njs_shards.max(1), 1);
            for (vsite, arch) in &spec.vsites {
                njs.add_vsite(
                    deployment_page(&spec.name, vsite, *arch),
                    TranslationTable::for_architecture(*arch),
                );
            }
            let gw = Gateway::new(spec.name.clone(), Uudb::new());
            let server = UnicoreServer::new(gw, njs);
            server_dns.insert(spec.name.clone(), dn);
            servers.insert(spec.name.clone(), server);
        }

        // Full WAN mesh between gateways.
        let wan = config.wan.with_loss(config.wan_loss);
        let names: Vec<String> = site_order.clone();
        for a in &names {
            for b in &names {
                if a != b {
                    let (ga, gb) = (sites[a].gateway, sites[b].gateway);
                    net.add_link(ga, gb, wan);
                }
            }
        }
        // Workstation reaches every gateway.
        let workstation = net.add_node("workstation");
        for name in &names {
            net.add_duplex(workstation, sites[name].gateway, wan);
        }

        // Every server trusts every other server's DN, and each site's
        // UUDB knows the peer servers (they map when pushing files).
        let all_dns: Vec<String> = server_dns.values().cloned().collect();
        for (site, server) in servers.iter_mut() {
            for (peer_site, dn) in &server_dns {
                if peer_site != site {
                    server.add_peer_server(dn.clone());
                }
            }
            for dn in &all_dns {
                server
                    .gateway_mut()
                    .uudb_mut()
                    .add(dn.clone(), UserEntry::new("unicored", "system"));
            }
        }

        // Every server gets the whole deployment's pages — the broker's
        // grid view — plus the deployment seed for tie-breaks, so every
        // site ranks a request identically.
        let all_pages: Vec<ResourcePage> = specs
            .iter()
            .flat_map(|spec| {
                spec.vsites
                    .iter()
                    .map(|(vsite, arch)| deployment_page(&spec.name, vsite, *arch))
            })
            .collect();
        for server in servers.values_mut() {
            server.install_grid_directory(all_pages.clone());
            server.set_broker_seed(config.seed);
        }

        let node_sites: HashMap<NodeId, String> = sites
            .iter()
            .map(|(name, nodes)| (nodes.gateway, name.clone()))
            .collect();
        let specs_by_name = specs.iter().map(|s| (s.name.clone(), s.clone())).collect();

        // The aggregation plane (E17): every peer derives the identical
        // spanning tree from the shared seed; heartbeats are staggered a
        // quarter second apart so the plane never synchronises into a
        // thundering herd.
        let tree = AggregationTree::build(site_order.clone(), config.seed, config.tree_fanout);
        let plane: HashMap<String, PlaneNode> = site_order
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let first = config.push_interval + (i as SimTime + 1) * (SEC / 4);
                (s.clone(), PlaneNode::new(s.clone(), first))
            })
            .collect();

        Federation {
            net,
            sites,
            site_order,
            servers,
            workstation,
            outbox: Outbox::default(),
            established: HashSet::new(),
            handshake_bytes: config.handshake_bytes,
            seed: config.seed,
            njs_shards: config.njs_shards.max(1),
            retry_timeout: config.retry_timeout,
            max_retries: config.max_retries,
            backoff_cap: config.backoff_cap,
            quarantine_after: config.quarantine_after,
            probe_interval: config.probe_interval,
            inflight: InflightTable::default(),
            client_responses: HashMap::new(),
            next_client_corr: 1,
            sync_corrs: HashSet::new(),
            sync_watches: Vec::new(),
            tree,
            plane,
            push_interval: config.push_interval,
            stale_after: config.stale_after,
            push_corrs: HashSet::new(),
            next_push_corr: PUSH_CORR_BASE,
            grid_relays: HashMap::new(),
            next_relay_corr: RELAY_CORR_BASE,
            alert_engine: AlertEngine::new(standard_slo_rules()),
            next_alert_eval: 2 * config.push_interval,
            grid_push_bytes_full: 0,
            grid_push_bytes_delta: 0,
            grid_query_hops: 0,
            now: 0,
            messages_sent: 0,
            envelopes_sent: 0,
            retries: 0,
            retry_exhaustions: 0,
            fast_failures: 0,
            next_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            peer_health: HashMap::new(),
            node_sites,
            fault_events: VecDeque::new(),
            backends: HashMap::new(),
            crashed: HashSet::new(),
            partitioned: HashSet::new(),
            specs: specs_by_name,
            registered_users: Vec::new(),
            telemetry_seed: None,
            telemetry: Telemetry::disabled(),
            client_spans: HashMap::new(),
        }
    }

    /// Turns on tracing across every tier: the client (workstation) gets
    /// its own collecting [`Telemetry`], and each site's server gets one
    /// seeded distinctly. Trace context crosses tiers on the wire, so a
    /// multi-site job yields one connected trace whose spans are spread
    /// over several collectors.
    pub fn enable_telemetry(&mut self, seed: u64) {
        self.telemetry_seed = Some(seed);
        self.telemetry = Telemetry::collecting(seed);
        for (i, site) in self.site_order.clone().into_iter().enumerate() {
            let tel = Telemetry::collecting(seed.wrapping_add(i as u64 + 1));
            self.servers
                .get_mut(&site)
                .expect("known site")
                .set_telemetry(tel);
        }
        // Telemetry arms the aggregation plane: re-stagger the first
        // heartbeats relative to now so a late enable does not release
        // every site's backlogged push in the same instant.
        for (i, site) in self.site_order.clone().into_iter().enumerate() {
            if let Some(node) = self.plane.get_mut(&site) {
                node.next_push_at = self.now + self.push_interval + (i as SimTime + 1) * (SEC / 4);
            }
        }
        self.next_alert_eval = self.now + 2 * self.push_interval;
    }

    /// The client-tier telemetry handle (span source for JPA/JMC work).
    pub fn client_telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The paper's six-site German deployment (§5.7), with the inter-site
    /// WAN latencies following 1999 German geography (the same matrix as
    /// `unicore_simnet::germany`).
    pub fn german_deployment(config: FederationConfig) -> Self {
        let wan = config.wan.with_loss(config.wan_loss);
        let specs = vec![
            SiteSpec::simple("FZJ", "T3E", Architecture::CrayT3e),
            SiteSpec::simple("RUS", "VPP", Architecture::FujitsuVpp700),
            SiteSpec::simple("RUKA", "SP2", Architecture::IbmSp2),
            SiteSpec::simple("LRZ", "SP2", Architecture::IbmSp2),
            SiteSpec::simple("ZIB", "T3E", Architecture::CrayT3e),
            SiteSpec::simple("DWD", "SX4", Architecture::NecSx4),
        ];
        let mut fed = Federation::new(config, &specs);
        for (i, a) in fed.site_order.clone().iter().enumerate() {
            for (j, b) in fed.site_order.clone().iter().enumerate() {
                if i == j {
                    continue;
                }
                let params = LinkParams {
                    latency: unicore_simnet::inter_site_latency(i, j),
                    ..wan
                };
                let (ga, gb) = (fed.sites[a].gateway, fed.sites[b].gateway);
                fed.net.set_link_params(ga, gb, params);
            }
        }
        fed
    }

    /// Registers a user in every site's UUDB with per-site logins
    /// (demonstrating that no uniform uid is needed).
    pub fn register_user(&mut self, dn: &str, login_base: &str) {
        self.registered_users
            .push((dn.to_owned(), login_base.to_owned()));
        for (site, server) in self.servers.iter_mut() {
            let login = format!("{}_{}", login_base, site.to_lowercase());
            server
                .gateway_mut()
                .uudb_mut()
                .add(dn.to_owned(), UserEntry::new(login, "users"));
        }
    }

    /// Installs the same per-DN request rate limit at every site's
    /// gateway. Each site's token buckets are independent — a user who
    /// exhausts one site's budget can still talk to the others, which is
    /// exactly the paper's site-autonomy stance applied to abuse control.
    pub fn set_rate_limit(&mut self, cfg: unicore_gateway::RateLimitConfig) {
        for server in self.servers.values_mut() {
            server.gateway_mut().set_rate_limit(cfg.clone());
        }
    }

    /// Revokes a user DN grid-wide: every site's gateway refuses (and
    /// audits) their requests until [`Federation::reinstate_user`].
    pub fn revoke_user(&mut self, dn: &str) {
        for server in self.servers.values_mut() {
            server.gateway_mut().revoke_dn(dn);
        }
    }

    /// Lifts a grid-wide DN revocation.
    pub fn reinstate_user(&mut self, dn: &str) {
        for server in self.servers.values_mut() {
            server.gateway_mut().reinstate_dn(dn);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Site names in creation order.
    pub fn site_names(&self) -> &[String] {
        &self.site_order
    }

    /// Access a site's server.
    pub fn server(&self, usite: &str) -> Option<&UnicoreServer> {
        self.servers.get(usite)
    }

    /// Mutable access to a site's server.
    pub fn server_mut(&mut self, usite: &str) -> Option<&mut UnicoreServer> {
        self.servers.get_mut(usite)
    }

    /// Resource-broker seed (paper §6): gathers load from every site and
    /// picks the admissible Vsite that would start `request` soonest.
    pub fn broker_choose(
        &self,
        request: &unicore_ajo::ResourceRequest,
    ) -> Option<crate::broker::BrokerChoice> {
        let mut candidates = Vec::new();
        for site in &self.site_order {
            if let Some(server) = self.servers.get(site) {
                candidates.extend(server.load_snapshots(self.now.max(1)));
            }
        }
        crate::broker::choose_vsite(request, &candidates)
    }

    /// Severs (or heals, with `severed = false`) every WAN link touching a
    /// site's gateway — a full partition of that Usite.
    pub fn set_partitioned(&mut self, usite: &str, severed: bool) {
        if severed {
            self.partitioned.insert(usite.to_owned());
        } else {
            self.partitioned.remove(usite);
        }
        let loss = if severed { 1.0 } else { 0.0 };
        let gw = self.sites[usite].gateway;
        let peers: Vec<NodeId> = self
            .site_order
            .iter()
            .filter(|s| s.as_str() != usite)
            .map(|s| self.sites[s].gateway)
            .chain(std::iter::once(self.workstation))
            .collect();
        for peer in peers {
            self.net.set_link_loss(gw, peer, loss);
            self.net.set_link_loss(peer, gw, loss);
        }
    }

    /// A site's gateway node id, for link-scoped [`FaultPlan`] rules.
    pub fn gateway_node(&self, usite: &str) -> Option<NodeId> {
        self.sites.get(usite).map(|n| n.gateway)
    }

    /// The workstation node id, for link-scoped [`FaultPlan`] rules.
    pub fn workstation_node(&self) -> NodeId {
        self.workstation
    }

    /// Installs a seeded [`FaultPlan`]: link-level drop / duplicate /
    /// reorder rules go straight into the network, while site-level
    /// partition and crash-restart windows are scheduled and enacted as
    /// simulated time passes them. The plan's own seed drives every
    /// fault decision, so the same plan replays byte-for-byte and an
    /// empty plan perturbs nothing.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.net.install_link_faults(plan.links.clone(), plan.seed);
        for p in &plan.partitions {
            self.fault_events
                .push_back((p.from, FaultEvent::PartitionStart(p.site.clone())));
            if p.until != SimTime::MAX {
                self.fault_events
                    .push_back((p.until, FaultEvent::PartitionEnd(p.site.clone())));
            }
        }
        for c in &plan.crashes {
            self.fault_events
                .push_back((c.at, FaultEvent::Crash(c.site.clone())));
            if c.restart_at != SimTime::MAX {
                self.fault_events
                    .push_back((c.restart_at, FaultEvent::Restart(c.site.clone())));
            }
        }
        self.fault_events.make_contiguous().sort_by_key(|(t, _)| *t);
    }

    /// Gives every site's server a write-ahead journal (an in-memory
    /// backend playing the disk), so [`FaultPlan`] crash windows — and
    /// [`Federation::crash_site`] / [`Federation::restart_site`] — can
    /// kill a server and bring it back with only its journal surviving.
    pub fn attach_stores(&mut self) {
        for site in &self.site_order {
            let server = self.servers.get_mut(site).expect("known site");
            let shards = server.njs().shard_count();
            let mems: Vec<MemoryBackend> = (0..shards).map(|_| MemoryBackend::new()).collect();
            let stores = mems
                .iter()
                .map(|m| EventStore::open(Box::new(m.clone())).expect("open journal"))
                .collect();
            server.njs_mut().attach_stores(stores);
            self.backends.insert(site.clone(), mems);
        }
    }

    /// Kills a site's server: every byte of in-RAM state is lost; only
    /// the journal (attached via [`Federation::attach_stores`]) survives.
    /// Messages delivered to the site while it is down are dropped.
    ///
    /// # Panics
    /// Panics when no journal was attached — crashing a server without a
    /// disk would silently lose accepted jobs.
    pub fn crash_site(&mut self, usite: &str) {
        assert!(
            self.backends.contains_key(usite),
            "crash_site without attach_stores would lose accepted jobs"
        );
        if self.servers.remove(usite).is_none() {
            return; // already down
        }
        // Servers' frames leave at the end of the tick that wrote them, so
        // a crash — at the top of a tick, or between runs — finds nothing
        // of theirs still waiting: what a site said is on the wire.
        debug_assert!(self.outbox.only_from(self.workstation));
        self.crashed.insert(usite.to_owned());
        // The site's own outstanding requests died with its process, and
        // the federation-side response cache must not replay answers the
        // rebooted server will re-derive from its journal.
        self.inflight.retain_owners(|owner| owner != usite);
        self.push_corrs.retain(|(owner, _)| owner != usite);
        self.grid_relays.retain(|(owner, _), _| owner != usite);
        // The plane node dies with the process: its edge caches and
        // epochs are RAM. Its parent's cache simply goes stale, and the
        // rebuilt node's epoch-0 state forces fulls on every edge.
        self.plane.remove(usite);
        self.sites
            .get_mut(usite)
            .expect("known site")
            .handled
            .clear();
        self.sync_watches.retain(|w| w.usite != usite);
        self.telemetry.counter("federation.site.crash").inc();
    }

    /// Rebuilds a crashed site's server from its journal: a fresh process
    /// on the same "disk", recovered via the write-ahead spool, peer
    /// trust and UUDB re-provisioned from configuration.
    pub fn restart_site(&mut self, usite: &str) {
        if !self.crashed.remove(usite) {
            return;
        }
        let mems = self.backends.get(usite).expect("crashed site has journal");
        for mem in mems {
            mem.reboot();
        }
        let spec = self.specs.get(usite).expect("known site").clone();
        let mut njs = ShardedNjs::new(spec.name.clone(), self.njs_shards, 1);
        for (vsite, arch) in &spec.vsites {
            njs.add_vsite(
                deployment_page(&spec.name, vsite, *arch),
                TranslationTable::for_architecture(*arch),
            );
        }
        njs.attach_stores(
            mems.iter()
                .map(|m| EventStore::open(Box::new(m.clone())).expect("reopen journal"))
                .collect(),
        );
        let mut uudb = Uudb::new();
        for site in self.sites.values() {
            uudb.add(&*site.dn, UserEntry::new("unicored", "system"));
        }
        for (dn, login_base) in &self.registered_users {
            let login = format!("{}_{}", login_base, usite.to_lowercase());
            uudb.add(dn.clone(), UserEntry::new(login, "users"));
        }
        let mut server = UnicoreServer::new(Gateway::new(spec.name.clone(), uudb), njs);
        for (peer_site, peer) in &self.sites {
            if peer_site != usite {
                server.add_peer_server(&*peer.dn);
            }
        }
        if let Some(seed) = self.telemetry_seed {
            let i = self
                .site_order
                .iter()
                .position(|s| s == usite)
                .expect("known site") as u64;
            server.set_telemetry(Telemetry::collecting(seed.wrapping_add(i + 1)));
        }
        server.install_grid_directory(self.deployment_pages());
        server.set_broker_seed(self.seed);
        server.recover(self.now).expect("journal recovery");
        self.servers.insert(usite.to_owned(), server);
        // A fresh plane node re-announces the site quickly; epoch 0 on
        // the uplink means its first push is a full snapshot, and its
        // children's deltas are refused once (resync) then resent full.
        self.plane
            .insert(usite.to_owned(), PlaneNode::new(usite, self.now + SEC));
        self.telemetry.counter("federation.site.restart").inc();
    }

    /// The pages of every Vsite in the deployment, in site order — the
    /// grid directory each server's broker ranks over.
    fn deployment_pages(&self) -> Vec<ResourcePage> {
        self.site_order
            .iter()
            .filter_map(|s| self.specs.get(s))
            .flat_map(|spec| {
                spec.vsites
                    .iter()
                    .map(|(vsite, arch)| deployment_page(&spec.name, vsite, *arch))
            })
            .collect()
    }

    /// Whether a site's server is currently down (crashed, not restarted).
    pub fn is_crashed(&self, usite: &str) -> bool {
        self.crashed.contains(usite)
    }

    /// Peer sites whose circuit is currently open (quarantined).
    pub fn quarantined_sites(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .peer_health
            .iter()
            .filter(|(_, h)| matches!(h.state, PeerState::Open { .. }))
            .map(|(s, _)| s.clone())
            .collect();
        out.sort();
        out
    }

    /// Aggregate `(duplicates, reorders)` observed by receiver-side
    /// sequence tracking across every channel.
    pub fn seq_stats(&self) -> (u64, u64) {
        self.recv_seq
            .values()
            .fold((0, 0), |(d, r), t| (d + t.duplicates, r + t.reordered))
    }

    /// The one way onto the wire. Stamps a distinct outgoing envelope
    /// with the next sequence number on the `src → dst` channel and the
    /// cumulative ack of everything `src` has received from `dst`, and
    /// frames it — origin node, then DER — into the pair's record, which
    /// leaves at the end of the tick. Returns the frame.
    fn post(
        &mut self,
        src: NodeId,
        dst: NodeId,
        corr: u64,
        from_dn: &str,
        body: &Body,
        trace: Option<SpanContext>,
    ) -> &[u8] {
        let seq = self.next_seq.entry((src, dst)).or_insert(0);
        *seq += 1;
        let ack = self
            .recv_seq
            .get(&(src, dst))
            .map(|t| t.contiguous)
            .filter(|&n| n > 0);
        let seq = Some(*seq);
        self.envelopes_sent += 1;
        self.outbox.push(src, dst, |frame| {
            frame.extend_from_slice(&src.0.to_be_bytes());
            DerWriter::append_to(frame, |w| {
                Envelope::write_parts(w, corr, from_dn, body, trace, seq, ack)
            });
        })
    }

    /// Posts `request` to `dest`'s gateway as `from_dn` and arms its retry
    /// timer. `owner` is the requesting Usite, or "" for the workstation.
    /// Returns the frame's length.
    fn request(
        &mut self,
        owner: &str,
        from_dn: &str,
        dest: &str,
        corr: u64,
        request: Request,
        trace: Option<SpanContext>,
    ) -> usize {
        let src = self
            .sites
            .get(owner)
            .map_or(self.workstation, |s| s.gateway);
        let dest = &self.sites[dest];
        let (dst, dest_site) = (dest.gateway, dest.name.clone());
        let body = Body::Request(request);
        let frame = self.post(src, dst, corr, from_dn, &body, trace).to_vec();
        let len = frame.len();
        self.inflight.insert(
            (owner.to_owned(), corr),
            Inflight {
                src,
                dst,
                dest_site,
                frame,
                deadline: self.now + self.retry_timeout,
                retries_left: self.max_retries,
                attempt: 0,
            },
        );
        len
    }

    /// Hands the tick's records to the network, one message per record.
    /// First contact between two nodes is charged `handshake_bytes` of
    /// padding ahead of the record that makes it.
    fn flush(&mut self) {
        let (net, established, padding) =
            (&mut self.net, &mut self.established, self.handshake_bytes);
        let sent = &mut self.messages_sent;
        self.outbox.flush(|src, dst, record| {
            if established.insert((src.min(dst), src.max(dst))) && padding > 0 {
                let _ = net.send(src, dst, GATEWAY_PORT, vec![0u8; padding]);
            }
            let _ = net.send(src, dst, GATEWAY_PORT, record);
            *sent += 1;
        });
    }

    fn unframe(payload: &[u8]) -> Option<(NodeId, Envelope)> {
        if payload.len() < 4 {
            return None;
        }
        let origin = NodeId(u32::from_be_bytes(payload[..4].try_into().ok()?));
        let env = Envelope::from_der(&payload[4..]).ok()?;
        Some((origin, env))
    }

    /// Records an arriving envelope's sequence number at `receiver` and
    /// feeds the duplicate/reorder telemetry counters.
    fn observe_seq(&mut self, receiver: NodeId, origin: NodeId, env: &Envelope) {
        let Some(seq) = env.seq else { return };
        let tracker = self.recv_seq.entry((receiver, origin)).or_default();
        let before = (tracker.duplicates, tracker.reordered);
        tracker.observe(seq);
        if tracker.duplicates > before.0 {
            self.telemetry.counter("federation.seq.duplicate").inc();
        }
        if tracker.reordered > before.1 {
            self.telemetry.counter("federation.seq.reorder").inc();
        }
    }

    /// An envelope arrived from `origin`: whatever site owns that node is
    /// provably alive, so its circuit closes and its failure streak resets.
    fn note_peer_alive(&mut self, origin: NodeId) {
        let Some(site) = self.node_sites.get(&origin) else {
            return;
        };
        if let Some(h) = self.peer_health.get_mut(site) {
            if matches!(h.state, PeerState::Open { .. }) {
                self.telemetry
                    .counter("federation.site.circuit_closed")
                    .inc();
            }
            h.failures = 0;
            h.state = PeerState::Closed;
        }
    }

    /// A request to `dest` exhausted its retry budget. After
    /// `quarantine_after` consecutive exhaustions the circuit opens:
    /// further requests fast-fail until a half-open probe succeeds.
    fn note_peer_failure(&mut self, dest: &str, t: SimTime) {
        let h = self
            .peer_health
            .entry(dest.to_owned())
            .or_insert(PeerHealth {
                failures: 0,
                state: PeerState::Closed,
            });
        h.failures += 1;
        if h.failures >= self.quarantine_after {
            if h.state == PeerState::Closed {
                self.telemetry.counter("federation.site.quarantined").inc();
            }
            h.state = PeerState::Open {
                probe_at: t + self.probe_interval,
                probing: false,
            };
        }
    }

    /// Whether a send to `dest` must fast-fail right now. When the probe
    /// window of an open circuit has arrived, the first caller is let
    /// through as the half-open probe and subsequent callers keep
    /// fast-failing until the probe resolves.
    fn quarantine_blocks(&mut self, dest: &str, t: SimTime) -> bool {
        match self.peer_health.get_mut(dest) {
            Some(PeerHealth {
                state: PeerState::Open { probe_at, probing },
                ..
            }) => {
                if t >= *probe_at && !*probing {
                    *probing = true;
                    false
                } else {
                    true
                }
            }
            _ => false,
        }
    }

    /// Exponential backoff with a deterministic jitter: the base doubles
    /// per attempt up to the cap; the jitter (up to a quarter of the
    /// base) is hashed from the seed, the request identity and the
    /// attempt, so concurrent retries desynchronise yet replay exactly.
    fn backoff_delay(&self, key: &CorrKey, attempt: u32) -> SimTime {
        let base = self
            .retry_timeout
            .checked_shl(attempt.min(32))
            .unwrap_or(SimTime::MAX)
            .min(self.backoff_cap)
            .max(1);
        let span = base / 4;
        if span == 0 {
            return base;
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(key.0.as_bytes());
        mix(&key.1.to_be_bytes());
        mix(&attempt.to_be_bytes());
        base + h % span
    }

    /// Submits a request from the workstation as `dn` via `usite`
    /// (asynchronous: retried until acknowledged or the budget runs out).
    pub fn client_request(&mut self, via: &str, dn: &str, request: Request) -> u64 {
        let corr = self.next_client_corr;
        self.next_client_corr += 1;
        // Head sampling: consigns and control operations root a trace —
        // everything the servers do on their behalf hangs below it via
        // the wire context. High-frequency monitoring (polls, fetches,
        // listings) stays untraced so watching a job costs nothing.
        let traced = matches!(request, Request::Consign { .. } | Request::Control { .. });
        let mut span = if traced {
            self.telemetry.span("client.request", None, self.now)
        } else {
            ActiveSpan::noop()
        };
        span.attr("via", via);
        self.request("", dn, via, corr, request, span.ctx());
        if span.ctx().is_some() {
            self.client_spans.insert(corr, span);
        }
        corr
    }

    /// Consigns a job (asynchronous protocol).
    pub fn client_submit(&mut self, via: &str, ajo: AbstractJob, dn: &str) -> u64 {
        self.client_request(via, dn, Request::Consign { ajo })
    }

    /// Consigns a job over the *synchronous* strawman protocol: one long
    /// interaction, no retries; the final outcome arrives as the response.
    pub fn client_submit_sync(&mut self, via: &str, ajo: AbstractJob, dn: &str) -> u64 {
        let corr = self.next_client_corr;
        self.next_client_corr += 1;
        self.sync_corrs.insert(corr);
        // No inflight entry: the synchronous variant never retries.
        let dst = self.sites[via].gateway;
        let body = Body::Request(Request::Consign { ajo });
        self.post(self.workstation, dst, corr, dn, &body, None);
        corr
    }

    /// Asks `via`'s broker for a ranked placement of an abstract
    /// resource request across the grid (§6). The response is a
    /// [`Response::BrokerOffer`]; rewrite the AJO's Vsite to the first
    /// offer and consign as usual.
    pub fn client_broker(
        &mut self,
        via: &str,
        dn: &str,
        request: unicore_ajo::ResourceRequest,
    ) -> u64 {
        self.client_request(via, dn, Request::Broker { request })
    }

    /// Polls a job's status.
    pub fn client_poll(&mut self, via: &str, dn: &str, job: JobId, detail: DetailLevel) -> u64 {
        self.client_request(via, dn, Request::Poll { job, detail })
    }

    /// Controls a job.
    pub fn client_control(&mut self, via: &str, dn: &str, job: JobId, op: ControlOp) -> u64 {
        self.client_request(via, dn, Request::Control { job, op })
    }

    /// Queries the monitoring plane via `usite`. With `grid = false` the
    /// entry site answers for itself alone; with `grid = true` (and
    /// telemetry enabled) the query climbs the aggregation tree to the
    /// root, which answers with the pre-merged [`GridView`] — O(log
    /// sites) hops, bounded payloads (E17).
    pub fn client_monitor(&mut self, via: &str, dn: &str, grid: bool) -> u64 {
        self.client_request(via, dn, Request::Monitor { grid })
    }

    /// Fetches a Uspace file.
    pub fn client_fetch(&mut self, via: &str, dn: &str, job: JobId, name: &str) -> u64 {
        self.client_request(
            via,
            dn,
            Request::FetchFile {
                job,
                name: name.to_owned(),
            },
        )
    }

    /// Takes the response to a client request, if it has arrived.
    pub fn take_client_response(&mut self, corr: u64) -> Option<Response> {
        self.client_responses.remove(&corr)
    }

    /// Earliest future event across network, servers, retry deadlines
    /// and scheduled site-level faults. Aggregation-plane heartbeats are
    /// periodic forever, so they count as events only when the caller
    /// asks (`run_until` does, `run_until_idle` must not — an armed
    /// plane would otherwise keep the federation "busy" for eternity).
    fn next_event(&mut self, include_plane: bool) -> Option<SimTime> {
        let mut next = self.net.next_delivery_time();
        for server in self.servers.values() {
            next = min_opt(next, server.next_event_time());
        }
        next = min_opt(next, self.inflight.next_deadline());
        if let Some((t, _)) = self.fault_events.front() {
            next = min_opt(next, Some(*t));
        }
        if include_plane && self.telemetry_seed.is_some() {
            for node in self.plane.values() {
                if self.servers.contains_key(&node.usite) {
                    next = min_opt(next, Some(node.next_push_at));
                }
            }
            next = min_opt(next, Some(self.next_alert_eval));
        }
        next
    }

    /// Runs the federation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        // What the client asked between runs leaves at the time it was
        // asked, before the next event is looked for.
        self.flush();
        while let Some(t) = self.next_event(true).filter(|&t| t <= deadline) {
            let t = t.max(self.now);
            self.advance(t);
        }
        if self.now < deadline {
            self.advance(deadline);
        }
    }

    /// Runs until no work remains (jobs done, queues empty, no retries).
    /// Returns the final time. `limit` bounds runaway simulations.
    pub fn run_until_idle(&mut self, limit: SimTime) -> SimTime {
        self.flush();
        while let Some(t) = self.next_event(false) {
            if t > limit {
                break;
            }
            let t = t.max(self.now);
            self.advance(t);
        }
        self.now
    }

    fn advance(&mut self, t: SimTime) {
        self.now = t;

        // Enact scheduled site-level faults whose time has come.
        while self.fault_events.front().is_some_and(|(at, _)| *at <= t) {
            let (_, event) = self.fault_events.pop_front().expect("front checked");
            match event {
                FaultEvent::PartitionStart(site) => self.set_partitioned(&site, true),
                FaultEvent::PartitionEnd(site) => self.set_partitioned(&site, false),
                FaultEvent::Crash(site) => self.crash_site(&site),
                FaultEvent::Restart(site) => self.restart_site(&site),
            }
        }

        self.net.run_until(t);

        // Deliver messages. Workstation first: responses to the client.
        for (_, msg) in self.net.drain_inbox(self.workstation) {
            self.deliver_record(None, &msg.payload, t);
        }
        let mut deliveries: Vec<(Arc<str>, Vec<u8>)> = Vec::new();
        for site in &self.site_order {
            let nodes = &self.sites[site];
            // Gateway inbox.
            for (_, msg) in self.net.drain_inbox(nodes.gateway) {
                if nodes.split {
                    // Relay over the LAN hop to the interior NJS node.
                    let _ = self.net.send(nodes.gateway, nodes.njs, 9_000, msg.payload);
                    continue;
                }
                deliveries.push((nodes.name.clone(), msg.payload));
            }
            if nodes.split {
                for (_, msg) in self.net.drain_inbox(nodes.njs) {
                    deliveries.push((nodes.name.clone(), msg.payload));
                }
            }
        }
        for (site, record) in deliveries {
            self.deliver_record(Some(&site), &record, t);
        }

        // Step servers; route their outbound requests. Crashed sites are
        // simply absent from the map: they neither step nor send.
        for i in 0..self.site_order.len() {
            let Some(server) = self.servers.get_mut(&self.site_order[i]) else {
                continue;
            };
            let outbound = server.step(t);
            if outbound.is_empty() {
                continue;
            }
            let site = self.site_order[i].clone();
            for req in outbound {
                if !self.sites.contains_key(&req.dest) {
                    // Unknown destination Usite: fail immediately.
                    if let Some(server) = self.servers.get_mut(&site) {
                        server.handle_response(
                            req.corr,
                            Response::Error(format!("unknown Usite {}", req.dest)),
                        );
                    }
                    continue;
                }
                if self.quarantine_blocks(&req.dest, t) {
                    // Circuit open: fail fast instead of burning a whole
                    // retry budget against a peer known to be dead.
                    self.fast_failures += 1;
                    self.telemetry.counter("federation.fast_fail").inc();
                    if let Some(server) = self.servers.get_mut(&site) {
                        server.handle_response(
                            req.corr,
                            Response::Error(format!(
                                "peer {} quarantined (circuit open)",
                                req.dest
                            )),
                        );
                    }
                    continue;
                }
                let dn = self.sites[&site].dn.clone();
                self.request(&site, &dn, &req.dest, req.corr, req.request, req.trace);
            }
        }

        // Aggregation-plane heartbeats and root-scope SLO evaluation
        // (E17), gated on telemetry so deployments that never enabled it
        // see zero background traffic.
        if self.telemetry_seed.is_some() {
            self.run_plane(t);
            if t >= self.next_alert_eval {
                self.next_alert_eval = t + self.push_interval;
                self.eval_alerts(t);
            }
        }

        // Synchronous watches: push the final outcome when a job ends.
        let mut fired = Vec::new();
        for (i, w) in self.sync_watches.iter().enumerate() {
            if self.servers.get(&w.usite).is_some_and(|s| s.is_done(w.job)) {
                fired.push(i);
            }
        }
        for i in fired.into_iter().rev() {
            let w = self.sync_watches.remove(i);
            let outcome = self.servers[&w.usite]
                .query(w.job, &w.owner_dn, DetailLevel::Tasks)
                .unwrap_or_default();
            let outcome = Response::Service(ServiceOutcome::Query { outcome });
            self.reply_from(&w.usite, w.client_node, w.corr, outcome);
        }

        // Retries, in deterministic key order so the network's RNG draws
        // replay identically run to run.
        for key in self.inflight.due(t) {
            // A client whose grid-view query is still climbing the
            // aggregation tree is *in contact* — the relayed reply is
            // pending, not lost. Refresh its budget instead of erroring;
            // every relay hop has its own bounded budget (falling back
            // to a degraded subtree view), so this terminates.
            let f = self.inflight.get(&key).expect("just collected");
            if key.0.is_empty()
                && f.retries_left == 0
                && self
                    .grid_relays
                    .values()
                    .any(|r| r.origin_node == self.workstation && r.origin_corr == key.1)
            {
                let budget = self.max_retries;
                self.inflight
                    .rearm(&key, t + self.retry_timeout, |f| f.retries_left = budget);
                continue;
            }
            if f.retries_left == 0 {
                // Retry budget exhausted: the peer is unreachable. Surface
                // a synthetic error so the requester is not left hanging
                // (a dead site must not wedge a multi-site job forever).
                let dest_site = f.dest_site.clone();
                self.inflight.remove(&key);
                if self.push_corrs.remove(&key) {
                    // An aggregation push died on the wire. The plane is
                    // deliberately silent about it: no circuit-breaker
                    // feedback (a partitioned child must not quarantine
                    // its healthy parent) — the pending edge state is
                    // dropped and the next heartbeat rebuilds the push.
                    if let Some(node) = self.plane.get_mut(&key.0) {
                        node.abandon_pending();
                    }
                    continue;
                }
                self.retry_exhaustions += 1;
                self.telemetry.counter("federation.retry.exhausted").inc();
                self.note_peer_failure(&dest_site, t);
                let (owner, corr) = key;
                let err = Response::Error("peer unreachable (retries exhausted)".to_owned());
                if owner.is_empty() {
                    if let Some(span) = self.client_spans.remove(&corr) {
                        self.telemetry.end(span, t);
                    }
                    self.client_responses.insert(corr, err);
                } else if let Some(relay) = self.grid_relays.remove(&(owner.clone(), corr)) {
                    // The uplink hop of a grid-view query is dead: answer
                    // with the view this site can vouch for — its own
                    // subtree — rather than wedging the query.
                    self.telemetry.counter("federation.grid.degraded").inc();
                    self.answer_grid_relay(&owner, relay, t);
                } else if let Some(server) = self.servers.get_mut(&owner) {
                    server.handle_response(corr, err);
                }
                continue;
            }
            let attempt = f.attempt + 1;
            let delay = self.backoff_delay(&key, attempt);
            self.inflight.rearm(&key, t + delay, |f| {
                f.retries_left -= 1;
                f.attempt = attempt;
            });
            self.retries += 1;
            self.telemetry.counter("federation.retries").inc();
            let f = self.inflight.get(&key).expect("just re-armed");
            self.envelopes_sent += 1;
            self.outbox
                .push(f.src, f.dst, |frame| frame.extend_from_slice(&f.frame));
        }

        self.flush();
    }

    /// Walks one received network message's frames, in order, through the
    /// per-envelope path of the workstation (`site` = `None`) or of a
    /// site's server. A malformed record delivers nothing.
    fn deliver_record(&mut self, site: Option<&str>, record: &[u8], t: SimTime) {
        let Ok(frames) = link::frames_of(record) else {
            self.telemetry.counter("federation.record.malformed").inc();
            return;
        };
        for frame in frames {
            match site {
                Some(site) => self.deliver_to_server(site, frame, t),
                None => self.deliver_to_client(frame, t),
            }
        }
    }

    /// A frame for the workstation: the response to a client request.
    fn deliver_to_client(&mut self, frame: &[u8], t: SimTime) {
        let Some((origin, env)) = Self::unframe(frame) else {
            return;
        };
        self.observe_seq(self.workstation, origin, &env);
        self.note_peer_alive(origin);
        if let Body::Response(resp) = env.body {
            self.inflight.remove(&(String::new(), env.corr));
            if let Some(span) = self.client_spans.remove(&env.corr) {
                self.telemetry.end(span, t);
            }
            self.client_responses.insert(env.corr, resp);
        }
    }

    /// Drives every due aggregation heartbeat: the site refreshes its
    /// own row from a live monitor report, and — unless it is the tree
    /// root, or its previous push is still in flight — builds the next
    /// delta (or full, on an unacked edge) push toward its tree parent.
    /// Pushes deliberately bypass the circuit breaker in both
    /// directions: the plane is the thing that must keep probing a dark
    /// edge, and one bounded push per heartbeat cannot storm.
    fn run_plane(&mut self, t: SimTime) {
        // Called on every advance: bail before allocating when no
        // heartbeat is due yet.
        if self.plane.values().all(|n| t < n.next_push_at) {
            return;
        }
        for i in 0..self.site_order.len() {
            let site = &self.site_order[i];
            if !self.servers.contains_key(site) {
                continue; // crashed: no process, no heartbeat
            }
            if self.plane.get(site).is_none_or(|n| t < n.next_push_at) {
                continue;
            }
            let site = site.clone();
            let report = self.servers[&site].monitor_report(t);
            let node = self.plane.get_mut(&site).expect("plane node");
            node.next_push_at = t + self.push_interval;
            node.refresh_own(t, report.metrics, report.vsites);
            let Some(parent) = self.tree.parent(&site).map(str::to_owned) else {
                continue; // the root aggregates; it has no uplink
            };
            if node.up.pending.is_some() {
                continue; // at most one push in flight per edge
            }
            let corr = self.next_push_corr;
            self.next_push_corr += 1;
            let push = node.build_push(t, self.stale_after, corr);
            let is_full = push.merged.is_full();
            let dn = self.sites[&site].dn.clone();
            let request = Request::MonitorPush { push };
            let bytes = self.request(&site, &dn, &parent, corr, request, None) as u64;
            if is_full {
                self.grid_push_bytes_full += bytes;
            } else {
                self.grid_push_bytes_delta += bytes;
            }
            self.push_corrs.insert((site, corr));
        }
    }

    /// Evaluates the SLO rules over the root's merged subtree view.
    /// Firing and clearing are pure functions of simulated time and the
    /// snapshot, so a replayed chaos run produces a byte-identical
    /// alert log. Events land in the root NJS's flight recorder (ring 0,
    /// the grid ring) and in the federation counters.
    fn eval_alerts(&mut self, t: SimTime) {
        let root = self.tree.root().to_owned();
        if !self.servers.contains_key(&root) {
            return; // the root is down; evaluation resumes on restart
        }
        let Some(node) = self.plane.get(&root) else {
            return;
        };
        let merged = node.subtree_merged();
        let silent = node.silent_sites(t, self.stale_after);
        let total = self.site_order.len();
        let unreachable = self
            .site_order
            .iter()
            .filter(|s| {
                s.as_str() != root
                    && (self.crashed.contains(*s)
                        || self.partitioned.contains(*s)
                        || silent.contains(*s)
                        || self
                            .peer_health
                            .get(*s)
                            .is_some_and(|h| matches!(h.state, PeerState::Open { .. })))
            })
            .count();
        let events = self.alert_engine.evaluate(t, &merged, unreachable, total);
        for ev in &events {
            let what = if ev.firing { "slo.fire" } else { "slo.clear" };
            self.telemetry.counter("federation.slo.events").inc();
            if let Some(server) = self.servers.get(&root) {
                server
                    .njs()
                    .flight()
                    .record(0, t, what, format_args!("{}", ev.rule));
            }
        }
    }

    /// One row per deployment site, as seen from `site`'s plane node:
    /// pushed rows from its subtree, synthesized epoch-0 rows for sites
    /// it has never heard of, and a health overlay from the federation's
    /// live fault knowledge — crash outranks partition outranks
    /// quarantine (all `Unreachable`); otherwise a silent edge or a
    /// never-heard site shows `Stale`, and fresh rows show `Live`.
    fn assemble(&self, site: &str, t: SimTime) -> GridView {
        let node = &self.plane[site];
        let rows = node.subtree_rows();
        let silent = node.silent_sites(t, self.stale_after);
        let merged = node.subtree_merged();
        let mut names: Vec<&String> = self.site_order.iter().collect();
        names.sort();
        let mut status_rows = Vec::new();
        for name in names {
            let mut row = match rows.get(name) {
                Some(row) => (*row).clone(),
                None => SiteStatus {
                    usite: name.clone(),
                    epoch: 0,
                    updated_at: 0,
                    health: SiteHealth::Stale,
                    vsites: Vec::new(),
                    headline: Vec::new(),
                },
            };
            let quarantined = self
                .peer_health
                .get(name)
                .is_some_and(|h| matches!(h.state, PeerState::Open { .. }));
            row.health = if name == site {
                SiteHealth::Live
            } else if self.crashed.contains(name) {
                SiteHealth::Unreachable(UnreachableReason::Crash)
            } else if self.partitioned.contains(name) {
                SiteHealth::Unreachable(UnreachableReason::Partition)
            } else if quarantined {
                SiteHealth::Unreachable(UnreachableReason::Quarantine)
            } else if silent.contains(name) || !rows.contains_key(name) {
                SiteHealth::Stale
            } else {
                SiteHealth::Live
            };
            status_rows.push(row);
        }
        let alerts = if site == self.tree.root() {
            self.alert_engine.active()
        } else {
            Vec::new()
        };
        GridView {
            root: site.to_owned(),
            at: t,
            sites: status_rows,
            merged,
            alerts,
        }
    }

    /// Answers a relayed grid-view query from `site`'s own subtree (the
    /// degraded path: the uplink toward the root is dead or quarantined)
    /// and caches the answer for client retries.
    fn answer_grid_relay(&mut self, site: &str, relay: GridRelay, t: SimTime) {
        let view = self.assemble(site, t);
        let response = Response::Service(ServiceOutcome::Grid { view });
        let response = self.reply_from(site, relay.origin_node, relay.origin_corr, response);
        self.cache_reply(site, &relay.origin_dn, relay.origin_corr, response);
    }

    /// Stamps and frames a response from `site`'s gateway, and hands it
    /// back for the caller's reply cache.
    fn reply_from(&mut self, site: &str, to: NodeId, corr: u64, response: Response) -> Response {
        let from = &self.sites[site];
        let (src, dn) = (from.gateway, from.dn.clone());
        let body = Body::Response(response);
        self.post(src, to, corr, &dn, &body, None);
        let Body::Response(response) = body else {
            unreachable!("built as a response above")
        };
        response
    }

    /// The answer `site` already gave `dn`'s request `corr`, if any.
    fn cached_reply(&self, site: &str, dn: &str, corr: u64) -> Option<&Response> {
        self.sites[site].handled.get(dn)?.get(&corr)
    }

    fn cache_reply(&mut self, site: &str, dn: &str, corr: u64, response: Response) {
        let handled = &mut self.sites.get_mut(site).expect("known site").handled;
        match handled.get_mut(dn) {
            Some(by_corr) => by_corr.insert(corr, response),
            None => handled
                .entry(dn.to_owned())
                .or_default()
                .insert(corr, response),
        };
    }

    fn deliver_to_server(&mut self, site: &str, payload: &[u8], t: SimTime) {
        let Some((origin, env)) = Self::unframe(payload) else {
            return;
        };
        if !self.servers.contains_key(site) {
            // The site's server is down: the frame reached the machine
            // but no process is listening. The sender's retries (or the
            // restarted server's journal recovery) cover the loss.
            return;
        }
        self.observe_seq(self.sites[site].gateway, origin, &env);
        self.note_peer_alive(origin);
        match env.body {
            Body::Request(request) => {
                // Aggregation pushes terminate at the plane node, which
                // dedupes retransmits by correlation id and answers with
                // the epoch ack the delta protocol rides on.
                if let Request::MonitorPush { push } = &request {
                    if self.plane.contains_key(site) {
                        let result = self
                            .plane
                            .get_mut(site)
                            .expect("plane node")
                            .apply_push(t, env.corr, push);
                        self.reply_from(
                            site,
                            origin,
                            env.corr,
                            Response::GridAck {
                                epoch: result.epoch,
                                resync: result.resync,
                            },
                        );
                        return;
                    }
                    // No plane node: fall through to the server's refusal.
                }
                // Grid-view queries climb the aggregation tree instead of
                // fanning out: the root answers from its pre-merged
                // caches, every other site relays the query one hop up
                // (degrading to its own subtree if the uplink is dead).
                if matches!(request, Request::Monitor { grid: true })
                    && self.telemetry_seed.is_some()
                    && self.cached_reply(site, &env.from_dn, env.corr).is_none()
                {
                    self.handle_grid_query(site, origin, env.corr, &env.from_dn, t);
                    return;
                }
                let cached = self.cached_reply(site, &env.from_dn, env.corr).cloned();
                let fresh = cached.is_none();
                let response = match cached {
                    Some(cached) => cached,
                    None => {
                        let is_sync_consign = self.sync_corrs.contains(&env.corr)
                            && origin == self.workstation
                            && matches!(request, Request::Consign { .. });
                        let resp = self
                            .servers
                            .get_mut(site)
                            .expect("known site")
                            .handle_request_traced(&env.from_dn, request, t, env.trace);
                        if is_sync_consign {
                            if let Response::Consigned { job } = &resp {
                                self.sync_watches.push(SyncWatch {
                                    usite: site.to_owned(),
                                    job: *job,
                                    corr: env.corr,
                                    client_node: origin,
                                    owner_dn: env.from_dn.clone(),
                                });
                            }
                            // The synchronous interaction stays open: no
                            // response until the job finishes.
                            self.cache_reply(site, &env.from_dn, env.corr, resp);
                            return;
                        }
                        resp
                    }
                };
                // A fresh answer (a poll's whole outcome tree, say) goes
                // into the at-most-once cache by move, once the reply has
                // been framed from it.
                let response = self.reply_from(site, origin, env.corr, response);
                if fresh {
                    self.cache_reply(site, &env.from_dn, env.corr, response);
                }
            }
            Body::Response(response) => {
                let key = (site.to_owned(), env.corr);
                self.inflight.remove(&key);
                if self.push_corrs.remove(&key) {
                    if let Response::GridAck { resync, .. } = &response {
                        if let Some(node) = self.plane.get_mut(site) {
                            node.on_ack(env.corr, *resync);
                        }
                    }
                    return;
                }
                if let Some(relay) = self.grid_relays.remove(&key) {
                    // The answer to a relayed grid-view query: forward it
                    // back down the path it climbed. Anything that is not
                    // a view (the parent refused for some reason) degrades
                    // to this site's own subtree.
                    let response = match response {
                        Response::Service(ServiceOutcome::Grid { .. }) => response,
                        _ => {
                            self.telemetry.counter("federation.grid.degraded").inc();
                            Response::Service(ServiceOutcome::Grid {
                                view: self.assemble(site, t),
                            })
                        }
                    };
                    let response =
                        self.reply_from(site, relay.origin_node, relay.origin_corr, response);
                    self.cache_reply(site, &relay.origin_dn, relay.origin_corr, response);
                    return;
                }
                self.servers
                    .get_mut(site)
                    .expect("known site")
                    .handle_response(env.corr, response);
            }
        }
    }

    /// Routes a `Monitor { grid: true }` query arriving at `site`. The
    /// tree root assembles and answers from its pre-merged caches (O(1)
    /// on query, the aggregation already happened on push traffic);
    /// every other site relays the query one hop toward the root —
    /// O(depth) = O(log sites) hops in total — unless its uplink is
    /// quarantined, in which case it answers immediately with the
    /// degraded view of its own subtree.
    fn handle_grid_query(&mut self, site: &str, origin: NodeId, corr: u64, dn: &str, t: SimTime) {
        if site == self.tree.root() {
            let view = self.assemble(site, t);
            let response = Response::Service(ServiceOutcome::Grid { view });
            let response = self.reply_from(site, origin, corr, response);
            self.cache_reply(site, dn, corr, response);
            return;
        }
        // A retransmit while the relay is still climbing: the open relay
        // will answer; don't open a second one.
        let open = self
            .grid_relays
            .iter()
            .any(|((owner, _), r)| owner == site && r.origin_corr == corr && r.origin_dn == dn);
        if open {
            return;
        }
        let parent = self.tree.parent(site).expect("non-root site").to_owned();
        let relay = GridRelay {
            origin_node: origin,
            origin_corr: corr,
            origin_dn: dn.to_owned(),
        };
        if self.quarantine_blocks(&parent, t) {
            self.fast_failures += 1;
            self.telemetry.counter("federation.fast_fail").inc();
            self.telemetry.counter("federation.grid.degraded").inc();
            self.answer_grid_relay(site, relay, t);
            return;
        }
        let relay_corr = self.next_relay_corr;
        self.next_relay_corr += 1;
        self.grid_query_hops += 1;
        let from_dn = self.sites[site].dn.clone();
        let query = Request::Monitor { grid: true };
        self.request(site, &from_dn, &parent, relay_corr, query, None);
        self.grid_relays
            .insert((site.to_owned(), relay_corr), relay);
    }

    /// The aggregation spanning tree the plane runs over (E17).
    pub fn grid_tree(&self) -> &AggregationTree {
        &self.tree
    }

    /// The SLO alerts currently firing at the tree root.
    pub fn active_alerts(&self) -> Vec<ActiveAlert> {
        self.alert_engine.active()
    }

    /// Every alert fire/clear event so far, in evaluation order.
    pub fn alert_log(&self) -> &[AlertEvent] {
        self.alert_engine.log()
    }

    /// The alert log DER-encoded — byte-identical across replays of the
    /// same seeded scenario, which the chaos suite asserts.
    pub fn alert_log_der(&self) -> Vec<u8> {
        self.alert_engine.log_der()
    }

    /// A synthetic `n`-site deployment for the grid-scale experiments
    /// (E16): names and pairwise WAN latencies come from
    /// `unicore_simnet`'s deterministic generator, so 100-site planes
    /// build in one call and replay byte-for-byte.
    pub fn grid_deployment(config: FederationConfig, n: usize) -> Self {
        let wan = config.wan.with_loss(config.wan_loss);
        let names = unicore_simnet::synthetic_site_names(n);
        let archs = [
            Architecture::CrayT3e,
            Architecture::IbmSp2,
            Architecture::FujitsuVpp700,
            Architecture::NecSx4,
        ];
        let specs: Vec<SiteSpec> = names
            .iter()
            .enumerate()
            .map(|(i, name)| SiteSpec::simple(name, "V", archs[i % archs.len()]))
            .collect();
        let mut fed = Federation::new(config, &specs);
        for (i, a) in fed.site_order.clone().iter().enumerate() {
            for (j, b) in fed.site_order.clone().iter().enumerate() {
                if i == j {
                    continue;
                }
                let params = LinkParams {
                    latency: unicore_simnet::synthetic_latency(i, j),
                    ..wan
                };
                let (ga, gb) = (fed.sites[a].gateway, fed.sites[b].gateway);
                fed.net.set_link_params(ga, gb, params);
            }
        }
        fed
    }

    /// High-level helper: submit, then poll until the job reaches a
    /// terminal state or `timeout` passes. Returns the job id, final
    /// outcome and completion (observation) time.
    pub fn submit_and_wait(
        &mut self,
        via: &str,
        ajo: AbstractJob,
        dn: &str,
        poll_interval: SimTime,
        timeout: SimTime,
    ) -> Option<(JobId, JobOutcome, SimTime)> {
        let corr = self.client_submit(via, ajo, dn);
        let deadline = self.now + timeout;
        let job = loop {
            self.run_until((self.now + poll_interval).min(deadline));
            match self.take_client_response(corr) {
                Some(Response::Consigned { job }) => break job,
                Some(_) => return None,
                None if self.now >= deadline => return None,
                None => continue,
            }
        };
        loop {
            let poll = self.client_poll(via, dn, job, DetailLevel::Tasks);
            self.run_until((self.now + poll_interval).min(deadline));
            if let Some(resp) = self.take_client_response(poll) {
                if let Some(outcome) = crate::protocol::outcome_of(&resp) {
                    if outcome.status.is_terminal() {
                        return Some((job, outcome.clone(), self.now));
                    }
                }
            }
            if self.now >= deadline {
                return None;
            }
        }
    }
}

fn min_opt(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_crypto::CryptoRng;

    /// The ledger as it was before the in-order fast path: every arrival
    /// goes through the set.
    #[derive(Default)]
    struct ReferenceTracker {
        contiguous: u64,
        ahead: BTreeSet<u64>,
        max_seen: u64,
        duplicates: u64,
        reordered: u64,
    }

    impl ReferenceTracker {
        fn observe(&mut self, seq: u64) -> bool {
            if seq <= self.contiguous || self.ahead.contains(&seq) {
                self.duplicates += 1;
                return false;
            }
            if seq < self.max_seen {
                self.reordered += 1;
            }
            self.max_seen = self.max_seen.max(seq);
            self.ahead.insert(seq);
            while self.ahead.remove(&(self.contiguous + 1)) {
                self.contiguous += 1;
            }
            true
        }
    }

    fn ledger(t: &SeqTracker) -> (u64, u64, u64) {
        (t.contiguous, t.duplicates, t.reordered)
    }

    #[test]
    fn seq_tracker_in_order() {
        let mut t = SeqTracker::default();
        for seq in 1..=100 {
            assert!(t.observe(seq));
            assert!(t.ahead.is_empty(), "an in-order arrival parks nothing");
        }
        assert_eq!(ledger(&t), (100, 0, 0));
        assert_eq!(t.max_seen, 100);
    }

    #[test]
    fn seq_tracker_gap_then_fill() {
        let mut t = SeqTracker::default();
        assert!(t.observe(1));
        assert!(t.observe(3));
        assert!(t.observe(4));
        assert_eq!(ledger(&t), (1, 0, 0), "the prefix waits for 2");
        // 2 arrives after 3 and 4 overtook it: fresh, and counted late.
        assert!(t.observe(2));
        assert_eq!(ledger(&t), (4, 0, 1));
        assert!(t.ahead.is_empty());
        assert!(t.observe(5));
        assert_eq!(ledger(&t), (5, 0, 1));
    }

    #[test]
    fn seq_tracker_duplicates_below_and_above_the_prefix() {
        let mut t = SeqTracker::default();
        for seq in [1, 2, 5] {
            assert!(t.observe(seq));
        }
        assert!(!t.observe(2), "below the prefix");
        assert!(!t.observe(5), "parked above the prefix");
        assert_eq!(ledger(&t), (2, 2, 0));
        // The duplicate of a parked number does not fill the gap.
        assert!(t.observe(3));
        assert!(t.observe(4));
        assert_eq!(ledger(&t), (5, 2, 2));
        assert!(!t.observe(1));
        assert_eq!(ledger(&t), (5, 3, 2));
    }

    #[test]
    fn seq_tracker_matches_the_set_only_ledger_on_random_arrivals() {
        for seed in 0..200u64 {
            let mut rng = CryptoRng::from_u64(seed);
            // 1..=n shuffled by a bounded displacement (how a WAN
            // reorders), with repeats sprinkled in.
            let n = 1 + rng.next_u64() % 60;
            let mut arrivals: Vec<u64> = (1..=n).collect();
            let reach = 1 + (rng.next_u64() % 8) as usize;
            for i in 0..arrivals.len() {
                let j = (i + (rng.next_u64() as usize) % reach).min(arrivals.len() - 1);
                arrivals.swap(i, j);
            }
            for _ in 0..rng.next_u64() % 20 {
                let at = (rng.next_u64() as usize) % (arrivals.len() + 1);
                arrivals.insert(at, 1 + rng.next_u64() % (n + 2));
            }
            let mut fast = SeqTracker::default();
            let mut reference = ReferenceTracker::default();
            for &seq in &arrivals {
                assert_eq!(
                    fast.observe(seq),
                    reference.observe(seq),
                    "seed {seed}: {seq} in {arrivals:?}"
                );
                assert_eq!(
                    (ledger(&fast), fast.max_seen, &fast.ahead),
                    (
                        (
                            reference.contiguous,
                            reference.duplicates,
                            reference.reordered
                        ),
                        reference.max_seen,
                        &reference.ahead
                    ),
                    "seed {seed}: after {seq} in {arrivals:?}"
                );
            }
        }
    }

    fn entry(deadline: SimTime) -> Inflight {
        Inflight {
            src: NodeId(0),
            dst: NodeId(1),
            dest_site: "B".into(),
            frame: Vec::new(),
            deadline,
            retries_left: 3,
            attempt: 0,
        }
    }

    /// What the multiset must equal: a walk over every entry.
    fn scanned(table: &InflightTable, t: SimTime) -> (Option<SimTime>, Vec<CorrKey>) {
        let next = table.entries.values().map(|f| f.deadline).min();
        let mut due: Vec<CorrKey> = table
            .entries
            .iter()
            .filter(|(_, f)| f.deadline <= t)
            .map(|(k, _)| k.clone())
            .collect();
        due.sort();
        (next, due)
    }

    #[test]
    fn inflight_deadlines_follow_every_writer() {
        let mut table = InflightTable::default();
        assert_eq!(table.next_deadline(), None);
        assert!(table.due(SimTime::MAX).is_empty());
        let mut rng = CryptoRng::from_u64(7);
        let owners = ["", "A", "B"];
        for round in 0..2_000u64 {
            let key = (
                owners[(rng.next_u64() % 3) as usize].to_owned(),
                rng.next_u64() % 12,
            );
            // Few distinct deadlines, so the multiset holds real repeats.
            let deadline = rng.next_u64() % 6;
            match rng.next_u64() % 5 {
                0 | 1 => table.insert(key, entry(deadline)), // also replaces
                2 => {
                    table.remove(&key);
                }
                3 if table.get(&key).is_some() => {
                    table.rearm(&key, deadline, |f| f.attempt += 1);
                }
                3 => {}
                _ if round % 50 == 0 => table.retain_owners(|owner| owner != key.0),
                _ => {}
            }
            let t = rng.next_u64() % 7;
            assert_eq!((table.next_deadline(), table.due(t)), scanned(&table, t));
            assert_eq!(
                table.deadlines.values().sum::<usize>(),
                table.entries.len(),
                "one multiset element per entry"
            );
        }
        table.retain_owners(|_| false);
        assert!(table.deadlines.is_empty() && table.entries.is_empty());
    }
}
