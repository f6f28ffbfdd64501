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
//!
//! Here live the deployment builders, the fault schedule, the event loop
//! and the client port; the reliability layer is `crate::reliability`, a
//! network message is [`crate::link`]'s record, the aggregation plane and
//! its relay are [`crate::grid`]. Below the public `&str` API a Usite is
//! its index in creation order.

use crate::config::{SiteConfig, VsiteConfig};
use crate::grid::GridPlane;
use crate::link;
use crate::protocol::{Body, Request, Response};
use crate::reliability::{Reliability, Sender};
use crate::server::UnicoreServer;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use unicore_ajo::{AbstractJob, ControlOp, DetailLevel, JobId, JobOutcome, ServiceOutcome};
use unicore_gateway::{RateLimitConfig, UserEntry, Uudb};
use unicore_njs::TranslationTable;
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, MINUTE, SEC};
use unicore_simnet::{FaultPlan, Firewall, LinkParams, Network, NodeId};
use unicore_store::{EventStore, MemoryBackend};
use unicore_telemetry::{ActiveSpan, Telemetry};

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

/// Federation tuning knobs. (The protocol's retry, backoff, quarantine,
/// staleness and fanout figures are constants beside the code they tune.)
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// RNG seed (network loss/jitter).
    pub seed: u64,
    /// WAN link loss probability.
    pub wan_loss: f64,
    /// Extra bytes charged on first contact between two nodes (models the
    /// SSL handshake's certificate exchange; later contacts resume).
    pub handshake_bytes: usize,
    /// How long an open circuit waits before letting one half-open probe
    /// request through. Any envelope received from the peer closes the
    /// circuit again.
    pub probe_interval: SimTime,
    /// Heartbeat period of the aggregation plane (E17): how often each
    /// site refreshes its own status row and pushes its subtree
    /// snapshot one hop up the spanning tree. Only active once
    /// [`Federation::enable_telemetry`] has been called.
    pub push_interval: SimTime,
    /// NJS shards per site (E18): >1 splits each server's job state by
    /// Vsite into independent shards with per-shard WAL segments.
    pub njs_shards: usize,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            seed: 1,
            wan_loss: 0.0,
            handshake_bytes: 4_096,
            probe_interval: MINUTE,
            push_interval: 30 * SEC,
            njs_shards: 1,
        }
    }
}

/// One Usite: its place on the network, the two things of it that are
/// durable — the configuration its administrators wrote (§5.5) and its
/// journal — and the process booted from them.
pub(crate) struct Site {
    gateway: NodeId,
    njs: NodeId,
    split: bool,
    /// What [`Federation::boot`] boots the server from.
    config: SiteConfig,
    /// The disk: one journal backend per NJS shard, once
    /// [`Federation::attach_stores`] ran.
    journals: Vec<MemoryBackend>,
    /// The running server; `None` while the site is crashed.
    pub(crate) server: Option<UnicoreServer>,
    /// Cut off by a network partition right now.
    pub(crate) partitioned: bool,
}

/// A scheduled site-level fault from an applied [`FaultPlan`].
#[derive(Debug, Clone, Copy)]
enum FaultEvent {
    PartitionStart(usize),
    PartitionEnd(usize),
    Crash(usize),
    Restart(usize),
}

struct SyncWatch {
    site: usize,
    job: JobId,
    corr: u64,
    owner_dn: String,
}

/// The running federation.
pub struct Federation {
    net: Network,
    /// The Usites in creation order: a site is its index here.
    pub(crate) sites: Vec<Site>,
    /// Their names, in the same order, and the way back from a name.
    pub(crate) site_names: Vec<String>,
    site_index: HashMap<String, usize>,
    workstation: NodeId,
    established: HashSet<(NodeId, NodeId)>,
    config: FederationConfig,
    /// Sequence stamps, retry timers, circuits, reply caches — and the
    /// outbox every envelope leaves through.
    pub(crate) rel: Reliability,
    /// The aggregation plane (E17).
    pub(crate) plane: GridPlane,
    client_responses: HashMap<u64, Response>,
    next_client_corr: u64,
    sync_corrs: HashSet<u64>,
    sync_watches: Vec<SyncWatch>,
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
    /// Scheduled site-level faults, ascending by time.
    fault_events: VecDeque<(SimTime, FaultEvent)>,
    /// Operator settings every gateway is booted with, beside its
    /// [`SiteConfig`]: DNs revoked grid-wide, the request rate limit.
    revoked_dns: BTreeSet<String>,
    rate_limit: Option<RateLimitConfig>,
    /// Telemetry seed, so a rebooted server gets a collector again.
    telemetry_seed: Option<u64>,
    /// Client-tier (JPA/JMC) telemetry; disabled unless
    /// [`Federation::enable_telemetry`] is called.
    pub(crate) telemetry: Telemetry,
    /// Open `client.request` spans, ended when the response arrives.
    client_spans: HashMap<u64, ActiveSpan>,
}

/// One store per shard, each opened on its "disk".
fn open_journals(disks: &[MemoryBackend]) -> Vec<EventStore> {
    let open = |disk: &MemoryBackend| EventStore::open(Box::new(disk.clone()));
    disks
        .iter()
        .map(|d| open(d).expect("open journal"))
        .collect()
}

impl Federation {
    /// Builds a federation of `specs` over a full-mesh WAN.
    pub fn new(config: FederationConfig, specs: &[SiteSpec]) -> Self {
        let mut net = Network::new(config.seed);
        let site_names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let server_dn = |site| format!("C=DE, O={site}, OU=UNICORE, CN={site}-server");
        let dns: Vec<String> = site_names.iter().map(server_dn).collect();
        // Every server trusts every other server's DN, and each site's
        // UUDB knows the servers (they map when pushing files).
        let mut uudb = Uudb::new();
        for dn in &dns {
            uudb.add(dn.clone(), UserEntry::new("unicored", "system"));
        }
        let mut sites = Vec::new();
        for spec in specs {
            let gateway = net.add_node(format!("{}-gw", spec.name));
            let njs = net.add_node(format!("{}-njs", spec.name));
            net.set_firewall(gateway, Firewall::AllowList(vec![GATEWAY_PORT]));
            net.add_duplex(gateway, njs, LinkParams::lan());
            let vsites = spec.vsites.iter().map(|(vsite, arch)| VsiteConfig {
                page: deployment_page(&spec.name, vsite, *arch),
                table: TranslationTable::for_architecture(*arch),
            });
            let peers = dns
                .iter()
                .zip(specs)
                .filter(|(_, peer)| peer.name != spec.name);
            sites.push(Site {
                gateway,
                njs,
                split: spec.split,
                config: SiteConfig {
                    usite: spec.name.clone(),
                    vsites: vsites.collect(),
                    uudb: uudb.clone(),
                    peer_servers: peers.map(|(dn, _)| dn.clone()).collect(),
                },
                journals: Vec::new(),
                server: None,
                partitioned: false,
            });
        }

        // Full WAN mesh between gateways; the workstation reaches every
        // gateway.
        let wan = LinkParams::wan_1999().with_loss(config.wan_loss);
        for a in &sites {
            for b in &sites {
                if a.gateway != b.gateway {
                    net.add_link(a.gateway, b.gateway, wan);
                }
            }
        }
        let workstation = net.add_node("workstation");
        for site in &sites {
            net.add_duplex(workstation, site.gateway, wan);
        }

        let names_and_dns = site_names.iter().zip(&dns);
        let addresses = names_and_dns
            .zip(&sites)
            .map(|((name, dn), s)| (name.as_str().into(), dn.as_str().into(), s.gateway));
        let mut fed = Federation {
            net,
            site_index: site_names.iter().cloned().zip(0..).collect(),
            workstation,
            established: HashSet::new(),
            rel: Reliability::new(config.seed, config.probe_interval, workstation, addresses),
            plane: GridPlane::new(&site_names, config.seed, config.push_interval),
            config,
            site_names,
            sites,
            client_responses: HashMap::new(),
            next_client_corr: 1,
            sync_corrs: HashSet::new(),
            sync_watches: Vec::new(),
            grid_push_bytes_full: 0,
            grid_push_bytes_delta: 0,
            grid_query_hops: 0,
            now: 0,
            messages_sent: 0,
            envelopes_sent: 0,
            retries: 0,
            retry_exhaustions: 0,
            fast_failures: 0,
            fault_events: VecDeque::new(),
            revoked_dns: BTreeSet::new(),
            rate_limit: None,
            telemetry_seed: None,
            telemetry: Telemetry::disabled(),
            client_spans: HashMap::new(),
        };
        for site in 0..fed.sites.len() {
            fed.sites[site].server = Some(fed.boot(site));
        }
        fed
    }

    /// The one place a site's server comes from: its [`SiteConfig`]
    /// booted, then what the deployment adds — the journal (if the site
    /// has a disk), the telemetry collector, the whole deployment's pages
    /// and seed (so every site's broker ranks a request identically), and
    /// the operator's revocations and rate limit.
    fn boot(&self, site: usize) -> UnicoreServer {
        let Site {
            config, journals, ..
        } = &self.sites[site];
        let mut server = config.boot(self.config.njs_shards);
        if !journals.is_empty() {
            server.njs_mut().attach_stores(open_journals(journals));
        }
        if let Some(seed) = self.telemetry_seed {
            server.set_telemetry(Telemetry::collecting(seed.wrapping_add(site as u64 + 1)));
        }
        let pages = self.sites.iter().flat_map(|s| &s.config.vsites);
        server.install_grid_directory(pages.map(|v| v.page.clone()).collect());
        server.set_broker_seed(self.config.seed);
        for dn in &self.revoked_dns {
            server.gateway_mut().revoke_dn(dn.clone());
        }
        if let Some(limit) = &self.rate_limit {
            server.gateway_mut().set_rate_limit(limit.clone());
        }
        server
    }

    /// Every running server.
    fn servers_mut(&mut self) -> impl Iterator<Item = &mut UnicoreServer> {
        self.sites.iter_mut().filter_map(|s| s.server.as_mut())
    }

    /// Turns on tracing across every tier: the client (workstation) gets
    /// its own collecting [`Telemetry`], and each site's server gets one
    /// seeded distinctly. Trace context crosses tiers on the wire, so a
    /// multi-site job yields one connected trace whose spans are spread
    /// over several collectors.
    pub fn enable_telemetry(&mut self, seed: u64) {
        self.telemetry_seed = Some(seed);
        self.telemetry = Telemetry::collecting(seed);
        self.rel.telemetry = self.telemetry.clone();
        for (i, site) in self.sites.iter_mut().enumerate() {
            let tel = Telemetry::collecting(seed.wrapping_add(i as u64 + 1));
            site.server.as_mut().expect("running").set_telemetry(tel);
        }
        // Telemetry arms the aggregation plane: its heartbeats are
        // staggered from now.
        self.plane.arm(self.now);
    }

    /// The client-tier telemetry handle (span source for JPA/JMC work).
    pub fn client_telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// [`Federation::new`], then every gateway pair's WAN latency set
    /// from `latency(i, j)` over creation-order indices.
    fn with_latencies(
        config: FederationConfig,
        specs: &[SiteSpec],
        latency: fn(usize, usize) -> SimTime,
    ) -> Self {
        let mut fed = Federation::new(config, specs);
        let wan = LinkParams::wan_1999().with_loss(fed.config.wan_loss);
        for (i, a) in fed.sites.iter().enumerate() {
            for (j, b) in fed.sites.iter().enumerate() {
                if i != j {
                    let params = LinkParams {
                        latency: latency(i, j),
                        ..wan
                    };
                    fed.net.set_link_params(a.gateway, b.gateway, params);
                }
            }
        }
        fed
    }

    /// The paper's six-site German deployment (§5.7), with the inter-site
    /// WAN latencies following 1999 German geography (the same matrix as
    /// `unicore_simnet::germany`).
    pub fn german_deployment(config: FederationConfig) -> Self {
        let specs = [
            SiteSpec::simple("FZJ", "T3E", Architecture::CrayT3e),
            SiteSpec::simple("RUS", "VPP", Architecture::FujitsuVpp700),
            SiteSpec::simple("RUKA", "SP2", Architecture::IbmSp2),
            SiteSpec::simple("LRZ", "SP2", Architecture::IbmSp2),
            SiteSpec::simple("ZIB", "T3E", Architecture::CrayT3e),
            SiteSpec::simple("DWD", "SX4", Architecture::NecSx4),
        ];
        Self::with_latencies(config, &specs, unicore_simnet::inter_site_latency)
    }

    /// A synthetic `n`-site deployment for the grid-scale experiments
    /// (E16): names and pairwise WAN latencies come from
    /// `unicore_simnet`'s deterministic generator, so 100-site planes
    /// build in one call and replay byte-for-byte.
    pub fn grid_deployment(config: FederationConfig, n: usize) -> Self {
        let archs = [
            Architecture::CrayT3e,
            Architecture::IbmSp2,
            Architecture::FujitsuVpp700,
            Architecture::NecSx4,
        ];
        let specs: Vec<SiteSpec> = unicore_simnet::synthetic_site_names(n)
            .iter()
            .enumerate()
            .map(|(i, name)| SiteSpec::simple(name, "V", archs[i % archs.len()]))
            .collect();
        Self::with_latencies(config, &specs, unicore_simnet::synthetic_latency)
    }

    /// Registers a user in every site's UUDB with per-site logins
    /// (demonstrating that no uniform uid is needed).
    pub fn register_user(&mut self, dn: &str, login_base: &str) {
        for site in &mut self.sites {
            let login = format!("{}_{}", login_base, site.config.usite.to_lowercase());
            let entry = UserEntry::new(login, "users");
            if let Some(server) = &mut site.server {
                server.gateway_mut().uudb_mut().add(dn, entry.clone());
            }
            site.config.uudb.add(dn, entry);
        }
    }

    /// Installs the same per-DN request rate limit at every site's
    /// gateway. Each site's token buckets are independent — a user who
    /// exhausts one site's budget can still talk to the others, which is
    /// exactly the paper's site-autonomy stance applied to abuse control.
    pub fn set_rate_limit(&mut self, cfg: RateLimitConfig) {
        for server in self.servers_mut() {
            server.gateway_mut().set_rate_limit(cfg.clone());
        }
        self.rate_limit = Some(cfg);
    }

    /// Revokes a user DN grid-wide: every site's gateway refuses (and
    /// audits) their requests until [`Federation::reinstate_user`].
    pub fn revoke_user(&mut self, dn: &str) {
        for server in self.servers_mut() {
            server.gateway_mut().revoke_dn(dn);
        }
        self.revoked_dns.insert(dn.to_owned());
    }

    /// Lifts a grid-wide DN revocation.
    pub fn reinstate_user(&mut self, dn: &str) {
        for server in self.servers_mut() {
            server.gateway_mut().reinstate_dn(dn);
        }
        self.revoked_dns.remove(dn);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Site names in creation order.
    pub fn site_names(&self) -> &[String] {
        &self.site_names
    }

    /// Access a site's server.
    pub fn server(&self, usite: &str) -> Option<&UnicoreServer> {
        self.sites[*self.site_index.get(usite)?].server.as_ref()
    }

    /// Mutable access to a site's server.
    pub fn server_mut(&mut self, usite: &str) -> Option<&mut UnicoreServer> {
        self.sites[*self.site_index.get(usite)?].server.as_mut()
    }

    /// Severs (or heals, with `severed = false`) every WAN link touching a
    /// site's gateway — a full partition of that Usite.
    pub fn set_partitioned(&mut self, usite: &str, severed: bool) {
        self.partition(self.site_index[usite], severed);
    }

    fn partition(&mut self, site: usize, severed: bool) {
        self.sites[site].partitioned = severed;
        let loss = if severed { 1.0 } else { 0.0 };
        let gw = self.sites[site].gateway;
        let others = self.sites.iter().map(|s| s.gateway).filter(|&g| g != gw);
        for peer in others.chain([self.workstation]) {
            self.net.set_link_loss(gw, peer, loss);
            self.net.set_link_loss(peer, gw, loss);
        }
    }

    /// A site's gateway node id, for link-scoped [`FaultPlan`] rules.
    pub fn gateway_node(&self, usite: &str) -> Option<NodeId> {
        Some(self.sites[*self.site_index.get(usite)?].gateway)
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
            let site = self.site_index[&p.site];
            let (start, end) = (
                FaultEvent::PartitionStart(site),
                FaultEvent::PartitionEnd(site),
            );
            self.fault_events.extend([(p.from, start), (p.until, end)]);
        }
        for c in &plan.crashes {
            let site = self.site_index[&c.site];
            let (crash, restart) = (FaultEvent::Crash(site), FaultEvent::Restart(site));
            self.fault_events
                .extend([(c.at, crash), (c.restart_at, restart)]);
        }
        // A window that never ends has no closing event.
        self.fault_events.retain(|(t, _)| *t != SimTime::MAX);
        self.fault_events.make_contiguous().sort_by_key(|(t, _)| *t);
    }

    /// Gives every site's server a write-ahead journal (an in-memory
    /// backend playing the disk), so [`FaultPlan`] crash windows — and
    /// [`Federation::crash_site`] / [`Federation::restart_site`] — can
    /// kill a server and bring it back with only its journal surviving.
    pub fn attach_stores(&mut self) {
        for site in &mut self.sites {
            let server = site.server.as_mut().expect("running");
            let shards = server.njs().shard_count();
            site.journals = (0..shards).map(|_| MemoryBackend::new()).collect();
            server
                .njs_mut()
                .attach_stores(open_journals(&site.journals));
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
        self.crash(self.site_index[usite]);
    }

    fn crash(&mut self, site: usize) {
        assert!(
            !self.sites[site].journals.is_empty(),
            "crash_site without attach_stores would lose accepted jobs"
        );
        if self.sites[site].server.take().is_none() {
            return; // already down
        }
        // Servers' frames leave at the end of the tick that wrote them, so
        // a crash — at the top of a tick, or between runs — finds nothing
        // of theirs still waiting: what a site said is on the wire.
        debug_assert!(self.rel.only_the_client_waits());
        self.rel.forget(site);
        self.plane.crash(site);
        self.sync_watches.retain(|w| w.site != site);
        self.telemetry.counter("federation.site.crash").inc();
    }

    /// Reboots a crashed site: a fresh process on the same "disk", booted
    /// from the site's configuration like the first one and recovered via
    /// the write-ahead spool.
    pub fn restart_site(&mut self, usite: &str) {
        if let Some(&site) = self.site_index.get(usite) {
            self.restart(site);
        }
    }

    fn restart(&mut self, site: usize) {
        if self.sites[site].server.is_some() {
            return;
        }
        for disk in &self.sites[site].journals {
            disk.reboot();
        }
        let mut server = self.boot(site);
        server.recover(self.now).expect("journal recovery");
        self.sites[site].server = Some(server);
        self.plane.restart(site, &self.site_names[site], self.now);
        self.telemetry.counter("federation.site.restart").inc();
    }

    /// Whether a site's server is currently down (crashed, not restarted).
    pub fn is_crashed(&self, usite: &str) -> bool {
        self.site_index
            .get(usite)
            .is_some_and(|&site| self.sites[site].server.is_none())
    }

    /// Peer sites whose circuit is currently open (quarantined).
    pub fn quarantined_sites(&self) -> Vec<String> {
        let mut out: Vec<String> = (0..self.sites.len())
            .filter(|&site| self.rel.is_quarantined(site))
            .map(|site| self.site_names[site].clone())
            .collect();
        out.sort();
        out
    }

    /// Aggregate `(duplicates, reorders)` observed by receiver-side
    /// sequence tracking across every channel.
    pub fn seq_stats(&self) -> (u64, u64) {
        self.rel.seq_stats()
    }

    /// Hands the tick's records to the network, one message per record.
    /// First contact between two nodes is charged `handshake_bytes` of
    /// padding ahead of the record that makes it.
    fn flush(&mut self) {
        let (net, established, padding) = (
            &mut self.net,
            &mut self.established,
            self.config.handshake_bytes,
        );
        let sent = &mut self.messages_sent;
        self.rel.flush(|src, dst, record| {
            if established.insert((src.min(dst), src.max(dst))) && padding > 0 {
                let _ = net.send(src, dst, GATEWAY_PORT, vec![0u8; padding]);
            }
            let _ = net.send(src, dst, GATEWAY_PORT, record);
            *sent += 1;
        });
        self.envelopes_sent = self.rel.envelopes_sent;
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
        let via = self.site_index[via];
        let from = Sender::Client(dn);
        self.rel
            .request(self.now, from, via, corr, request, span.ctx());
        self.envelopes_sent = self.rel.envelopes_sent;
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
        // Sent once: the timer is stopped as soon as it is armed.
        let (via, consign) = (self.site_index[via], Request::Consign { ajo });
        self.rel
            .request(self.now, Sender::Client(dn), via, corr, consign, None);
        self.rel.disarm(&(None, corr));
        self.envelopes_sent = self.rel.envelopes_sent;
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
    /// root, which answers with the pre-merged [`unicore_ajo::GridView`]
    /// — O(log sites) hops, bounded payloads (E17).
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
        let servers = self.sites.iter().filter_map(|s| s.server.as_ref());
        let plane =
            (include_plane && self.telemetry_seed.is_some()).then(|| self.plane.next_event());
        servers
            .map(UnicoreServer::next_event_time)
            .chain([
                self.net.next_delivery_time(),
                self.rel.next_deadline(),
                self.fault_events.front().map(|(t, _)| *t),
                plane,
            ])
            .flatten()
            .min()
    }

    /// Advances event by event while the next one is due by `until`.
    fn run(&mut self, until: SimTime, include_plane: bool) {
        // What the client asked between runs leaves at the time it was
        // asked, before the next event is looked for.
        self.flush();
        while let Some(t) = self.next_event(include_plane).filter(|&t| t <= until) {
            self.advance(t.max(self.now));
        }
    }

    /// Runs the federation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run(deadline, true);
        if self.now < deadline {
            self.advance(deadline);
        }
    }

    /// Runs until no work remains (jobs done, queues empty, no retries).
    /// Returns the final time. `limit` bounds runaway simulations.
    pub fn run_until_idle(&mut self, limit: SimTime) -> SimTime {
        self.run(limit, false);
        self.now
    }

    fn advance(&mut self, t: SimTime) {
        self.now = t;

        // Enact scheduled site-level faults whose time has come.
        while self.fault_events.front().is_some_and(|(at, _)| *at <= t) {
            let (_, event) = self.fault_events.pop_front().expect("front checked");
            match event {
                FaultEvent::PartitionStart(site) => self.partition(site, true),
                FaultEvent::PartitionEnd(site) => self.partition(site, false),
                FaultEvent::Crash(site) => self.crash(site),
                FaultEvent::Restart(site) => self.restart(site),
            }
        }

        self.net.run_until(t);

        // Deliver messages. Workstation first: responses to the client.
        for (_, msg) in self.net.drain_inbox(self.workstation) {
            self.deliver_record(None, &msg.payload, t);
        }
        let mut deliveries: Vec<(usize, Vec<u8>)> = Vec::new();
        for (site, nodes) in self.sites.iter().enumerate() {
            // Gateway inbox.
            for (_, msg) in self.net.drain_inbox(nodes.gateway) {
                if nodes.split {
                    // Relay over the LAN hop to the interior NJS node.
                    let _ = self.net.send(nodes.gateway, nodes.njs, 9_000, msg.payload);
                    continue;
                }
                deliveries.push((site, msg.payload));
            }
            if nodes.split {
                for (_, msg) in self.net.drain_inbox(nodes.njs) {
                    deliveries.push((site, msg.payload));
                }
            }
        }
        for (site, record) in deliveries {
            self.deliver_record(Some(site), &record, t);
        }

        // Step servers; route their outbound requests. Crashed sites
        // neither step nor send.
        for site in 0..self.sites.len() {
            let Some(server) = &mut self.sites[site].server else {
                continue;
            };
            for req in server.step(t) {
                let refusal = match self.site_index.get(&req.dest) {
                    // Unknown destination Usite: fail immediately.
                    None => format!("unknown Usite {}", req.dest),
                    // Circuit open: fail fast instead of burning a whole
                    // retry budget against a peer known to be dead.
                    Some(&dest) if self.rel.blocks(dest, t) => {
                        self.fast_failures += 1;
                        self.telemetry.counter("federation.fast_fail").inc();
                        format!("peer {} quarantined (circuit open)", req.dest)
                    }
                    Some(&dest) => {
                        let from = Sender::Site(site);
                        self.rel
                            .request(t, from, dest, req.corr, req.request, req.trace);
                        continue;
                    }
                };
                server.handle_response(req.corr, Response::Error(refusal));
            }
        }

        // Aggregation-plane heartbeats and root-scope SLO evaluation
        // (E17), gated on telemetry so deployments that never enabled it
        // see zero background traffic.
        if self.telemetry_seed.is_some() {
            self.plane_tick(t);
        }

        // Synchronous watches: push the final outcome when a job ends.
        let done = |w: &SyncWatch| {
            let server = self.sites[w.site].server.as_ref();
            server.is_some_and(|s| s.is_done(w.job))
        };
        let fired: Vec<usize> = (0..self.sync_watches.len())
            .filter(|&i| done(&self.sync_watches[i]))
            .collect();
        for i in fired.into_iter().rev() {
            let w = self.sync_watches.remove(i);
            let server = self.sites[w.site].server.as_ref().expect("just asked");
            let outcome = server
                .query(w.job, &w.owner_dn, DetailLevel::Tasks)
                .unwrap_or_default();
            let outcome = Response::Service(ServiceOutcome::Query { outcome });
            self.rel.reply(w.site, self.workstation, w.corr, outcome);
        }

        // Retries, in the reliability layer's deterministic order so the
        // network's RNG draws replay identically run to run.
        for key in self.rel.due(t) {
            let Some(dest) = self.rel.fire(&key, t) else {
                self.retries += 1;
                self.telemetry.counter("federation.retries").inc();
                continue;
            };
            let (owner, corr) = key;
            // A client whose grid-view query is still climbing the
            // aggregation tree is *in contact* — the relayed reply is
            // pending, not lost. Refresh its budget instead of erroring;
            // every relay hop has its own bounded budget (falling back
            // to a degraded subtree view), so this terminates.
            if owner.is_none() && self.plane.is_relaying(self.workstation, corr) {
                self.rel.renew(&key, t);
                continue;
            }
            // Retry budget exhausted: the peer is unreachable. Surface
            // a synthetic error so the requester is not left hanging
            // (a dead site must not wedge a multi-site job forever).
            self.rel.disarm(&key);
            if self.plane.push_settled(&key, None) {
                continue;
            }
            self.retry_exhaustions += 1;
            self.telemetry.counter("federation.retry.exhausted").inc();
            self.rel.strike(dest, t);
            let err = Response::Error("peer unreachable (retries exhausted)".to_owned());
            let Some(site) = owner else {
                self.client_answered(corr, err, t);
                continue;
            };
            if let Some(relay) = self.plane.take_relay(&key) {
                // The uplink hop of a grid-view query is dead.
                self.answer_grid_relay(site, relay, None, t);
            } else if let Some(server) = &mut self.sites[site].server {
                server.handle_response(corr, err);
            }
        }

        self.flush();
    }

    /// Walks one received network message's frames, in order, through the
    /// per-envelope path of the workstation (`site` = `None`) or of a
    /// site's server. A malformed record delivers nothing.
    fn deliver_record(&mut self, site: Option<usize>, record: &[u8], t: SimTime) {
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
        let Some((_, env)) = self.rel.receive(self.workstation, frame) else {
            return;
        };
        if let Body::Response(response) = env.body {
            self.rel.disarm(&(None, env.corr));
            self.client_answered(env.corr, response, t);
        }
    }

    fn client_answered(&mut self, corr: u64, response: Response, t: SimTime) {
        if let Some(span) = self.client_spans.remove(&corr) {
            self.telemetry.end(span, t);
        }
        self.client_responses.insert(corr, response);
    }

    fn deliver_to_server(&mut self, site: usize, frame: &[u8], t: SimTime) {
        let Site {
            gateway, server, ..
        } = &mut self.sites[site];
        // With the server down the frame reached the machine but no
        // process is listening. The sender's retries (or the restarted
        // server's journal recovery) cover the loss.
        let Some(server) = server else { return };
        let Some((origin, env)) = self.rel.receive(*gateway, frame) else {
            return;
        };
        let (corr, dn) = (env.corr, env.from_dn);
        let request = match env.body {
            Body::Request(request) => request,
            Body::Response(response) => {
                let key = (Some(site), corr);
                self.rel.disarm(&key);
                if self.plane.push_settled(&key, Some(&response)) {
                    return;
                }
                match self.plane.take_relay(&key) {
                    // The answer to a relayed grid-view query.
                    Some(relay) => self.answer_grid_relay(site, relay, Some(response), t),
                    None => server.handle_response(corr, response),
                }
                return;
            }
        };
        // Aggregation pushes terminate at the plane node.
        if let Request::MonitorPush { push } = &request {
            let ack = self.plane.on_push(site, t, corr, push);
            self.rel.reply(site, origin, corr, ack);
            return;
        }
        // Grid-view queries climb the aggregation tree instead of
        // fanning out: the root answers from its pre-merged caches,
        // every other site relays the query one hop up (degrading to
        // its own subtree if the uplink is dead).
        let fresh = self.rel.cached_reply(site, &dn, corr).is_none();
        if fresh && self.telemetry_seed.is_some() && request == (Request::Monitor { grid: true }) {
            self.handle_grid_query(site, origin, corr, &dn, t);
            return;
        }
        if fresh
            && origin == self.workstation
            && self.sync_corrs.contains(&corr)
            && matches!(request, Request::Consign { .. })
        {
            // The synchronous interaction stays open: no response until
            // the job finishes.
            let resp = server.handle_request_traced(&dn, request, t, env.trace);
            if let Response::Consigned { job } = &resp {
                self.sync_watches.push(SyncWatch {
                    site,
                    job: *job,
                    corr,
                    owner_dn: dn.clone(),
                });
            }
            self.rel.cache_reply(site, &dn, corr, resp);
            return;
        }
        self.rel.answer_once(site, origin, &dn, corr, || {
            server.handle_request_traced(&dn, request, t, env.trace)
        });
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
