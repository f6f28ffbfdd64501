//! The E17 grid-scale aggregation plane: a deterministic spanning tree
//! over the federation's Usites, per-edge delta-snapshot state, and the
//! pure apply/build logic for push traffic.
//!
//! Every site is a node in a complete k-ary [`AggregationTree`] laid
//! out over the sorted, seed-shuffled site list. Leaves push their own
//! compact [`SiteStatus`] row plus metrics up; interior nodes fold
//! child payloads into a pre-merged subtree snapshot before pushing
//! further, so one edge never carries more than one merged snapshot and
//! the row set of its subtree — bounded payloads, O(log n) edges from
//! any site to the root.
//!
//! [`AggregationTree`], [`GridPush`] and [`PlaneNode`] are free of
//! `Federation` internals: [`PlaneNode`] owns the per-site protocol
//! state — what the parent has acked, what each child has pushed — so
//! crash/restart can drop and rebuild one node without touching the rest
//! of the plane. `GridPlane` holds a deployment's nodes with the pushes
//! and query relays in flight, and the `impl Federation` at the end of
//! this file is the relay that drives them (heartbeats, routing, health
//! overlay) through the reliability layer.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::federation::Federation;
use crate::protocol::{Request, Response};
use crate::reliability::{CorrKey, Sender};
use unicore_ajo::{
    GridView, ServiceOutcome, SiteHealth, SiteStatus, UnreachableReason, VsiteHealth,
    HEADLINE_COUNTERS,
};
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
use unicore_sim::{SimTime, SEC};
use unicore_simnet::NodeId;
use unicore_telemetry::aggregate::{SnapshotDelta, SnapshotPayload};
use unicore_telemetry::{
    standard_slo_rules, ActiveAlert, AlertEngine, AlertEvent, MetricsSnapshot,
};

/// How long an aggregation edge may go unheard before the whole cached
/// subtree behind it is marked stale in grid views.
const STALE_AFTER: SimTime = 90 * SEC;
/// Fanout of the aggregation spanning tree: every grid-view query climbs
/// at most `log_fanout(sites)` NJS→NJS hops.
const TREE_FANOUT: usize = 4;
/// Relay and push correlation ids live far above any server-assigned id
/// so the three spaces never collide in the shared `(site, corr)`
/// inflight namespace.
const RELAY_CORR_BASE: u64 = 1 << 48;
const PUSH_CORR_BASE: u64 = 1 << 49;

/// Deterministic complete k-ary spanning tree over the site list.
///
/// Sites are sorted by name, shuffled by a seeded Fisher–Yates pass
/// (so the root is not always the alphabetically first site, yet every
/// peer derives the identical tree from the shared topology seed), and
/// laid into heap order: children of index `i` are
/// `k*i + 1 ..= k*i + k`, the parent of `i` is `(i - 1) / k`.
#[derive(Debug, Clone)]
pub struct AggregationTree {
    order: Vec<String>,
    fanout: usize,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl AggregationTree {
    /// Build the tree over `sites` with the given shuffle seed and
    /// fanout (clamped to at least 2).
    pub fn build(mut sites: Vec<String>, seed: u64, fanout: usize) -> AggregationTree {
        sites.sort();
        sites.dedup();
        let mut state = seed ^ 0xE17;
        for i in (1..sites.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            sites.swap(i, j);
        }
        AggregationTree {
            order: sites,
            fanout: fanout.max(2),
        }
    }

    /// Every site, in tree (heap) order; index 0 is the root.
    pub fn sites(&self) -> &[String] {
        &self.order
    }

    /// The tree root — where grid views are assembled.
    pub fn root(&self) -> &str {
        &self.order[0]
    }

    fn index_of(&self, site: &str) -> Option<usize> {
        self.order.iter().position(|s| s == site)
    }

    /// The site a node pushes its subtree snapshot to (None for the
    /// root and for unknown sites).
    pub fn parent(&self, site: &str) -> Option<&str> {
        let i = self.index_of(site)?;
        if i == 0 {
            return None;
        }
        Some(self.order[(i - 1) / self.fanout].as_str())
    }

    /// The sites pushing directly to this node.
    pub fn children(&self, site: &str) -> Vec<&str> {
        let Some(i) = self.index_of(site) else {
            return Vec::new();
        };
        (self.fanout * i + 1..=self.fanout * i + self.fanout)
            .take_while(|&c| c < self.order.len())
            .map(|c| self.order[c].as_str())
            .collect()
    }

    /// Every site in the subtree rooted at `site`, including itself.
    pub fn subtree(&self, site: &str) -> Vec<&str> {
        let Some(start) = self.index_of(site) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(i) = stack.pop() {
            out.push(self.order[i].as_str());
            for c in self.fanout * i + 1..=self.fanout * i + self.fanout {
                if c < self.order.len() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Number of edges on the longest leaf→root path.
    pub fn depth(&self) -> usize {
        let mut depth = 0;
        let mut i = self.order.len().saturating_sub(1);
        while i > 0 {
            i = (i - 1) / self.fanout;
            depth += 1;
        }
        depth
    }
}

/// One aggregation push: the changed subtree rows, the subtree-merged
/// metrics (full on resync, delta otherwise) and the currently-silent
/// descendants — everything a parent needs to refresh its cache for
/// this child edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridPush {
    /// The pushing (child) site.
    pub origin: String,
    /// Merged-snapshot epoch this push's delta is based on (0 = the
    /// payload is a full resync).
    pub base_epoch: u64,
    /// Epoch the receiver's cache reaches after applying this push.
    pub to_epoch: u64,
    /// Subtree rows changed since the last acked push (all known rows
    /// on a full resync). Row content is absolute, keyed by Usite.
    pub rows: Vec<SiteStatus>,
    /// Subtree-merged metrics: full snapshot or delta vs `base_epoch`.
    pub merged: SnapshotPayload,
    /// Usites in this subtree whose own edges have gone silent —
    /// freshness propagated up so the root can mark rows stale without
    /// per-site timers.
    pub stale: Vec<String>,
}

impl DerCodec for GridPush {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.origin);
            w.u64(self.base_epoch);
            w.u64(self.to_epoch);
            w.sequence_of(&self.rows, |w, r| r.write_der(w));
            self.merged.write_der(w);
            w.sequence_of(&self.stale, |w, s| w.str(s));
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("GridPush", |f| {
            Ok(GridPush {
                origin: f.next_string()?,
                base_epoch: f.next_u64()?,
                to_epoch: f.next_u64()?,
                rows: f.sequence_of("site rows", SiteStatus::read_der)?,
                merged: SnapshotPayload::read_der(f)?,
                stale: f.sequence_of("stale sites", |s| s.next_string())?,
            })
        })
    }
}

/// What a parent holds for one child edge.
#[derive(Debug, Clone, Default)]
pub struct ChildCache {
    /// Last applied push epoch (0 = nothing applied yet).
    pub have_epoch: u64,
    /// Subtree-merged metrics at `have_epoch`.
    pub merged: MetricsSnapshot,
    /// Latest row per subtree Usite.
    pub rows: BTreeMap<String, SiteStatus>,
    /// Subtree sites the child reported as silent.
    pub stale: BTreeSet<String>,
    /// When the last push arrived on this edge.
    pub last_heard: SimTime,
    /// `(corr, epoch-acked, resync)` of the last processed push, so a
    /// retransmission gets the identical ack instead of a spurious
    /// resync.
    pub last_ack: Option<(u64, u64, bool)>,
}

/// What a child remembers about its uplink.
#[derive(Debug, Clone, Default)]
pub struct EdgeUp {
    /// Highest epoch the parent has acked (0 = parent needs a full).
    pub acked_epoch: u64,
    /// Subtree-merged metrics as of `acked_epoch` — the delta base.
    pub acked_merged: MetricsSnapshot,
    /// Row epoch per Usite as of the last acked push.
    pub acked_rows: BTreeMap<String, u64>,
    /// The one in-flight push, if any (at most one per edge).
    pub pending: Option<PendingPush>,
}

/// State parked while a push awaits its ack.
#[derive(Debug, Clone)]
pub struct PendingPush {
    /// Correlation id of the in-flight request.
    pub corr: u64,
    /// Epoch the parent reaches on ack.
    pub to_epoch: u64,
    /// Subtree-merged metrics shipped (becomes the new delta base).
    pub merged: MetricsSnapshot,
    /// Row epochs shipped (becomes the new acked row map).
    pub rows: BTreeMap<String, u64>,
}

/// Per-site aggregation-plane state. Created when the site joins the
/// plane, dropped on crash and rebuilt (epochs reset, forcing a full
/// resync on every touching edge) on restart.
#[derive(Debug, Clone)]
pub struct PlaneNode {
    /// The site this node belongs to.
    pub usite: String,
    /// Push counter; each heartbeat sends `epoch + 1`.
    pub epoch: u64,
    /// Next heartbeat due time.
    pub next_push_at: SimTime,
    /// Uplink state toward the tree parent (unused at the root).
    pub up: EdgeUp,
    /// One cache per child edge.
    pub children: BTreeMap<String, ChildCache>,
    /// The site's own current row (content epoch = last change).
    pub own_row: Option<SiteStatus>,
    /// The site's own current metrics snapshot.
    pub own_metrics: MetricsSnapshot,
}

/// Outcome of applying a push on the parent side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyResult {
    /// Epoch the cache now sits at.
    pub epoch: u64,
    /// True when the child must fall back to a full snapshot.
    pub resync: bool,
}

impl PlaneNode {
    /// Fresh node with heartbeats starting at `first_push_at`.
    pub fn new(usite: impl Into<String>, first_push_at: SimTime) -> PlaneNode {
        PlaneNode {
            usite: usite.into(),
            epoch: 0,
            next_push_at: first_push_at,
            up: EdgeUp::default(),
            children: BTreeMap::new(),
            own_row: None,
            own_metrics: MetricsSnapshot::default(),
        }
    }

    /// Refresh the node's own row and metrics from a live report.
    /// The row's epoch bumps only when its content changed, so an idle
    /// site's row drops out of delta pushes entirely.
    pub fn refresh_own(
        &mut self,
        now: SimTime,
        metrics: MetricsSnapshot,
        vsites: Vec<VsiteHealth>,
    ) {
        let headline: Vec<(String, u64)> = HEADLINE_COUNTERS
            .iter()
            .map(|name| (name.to_string(), metrics.counter(name)))
            .collect();
        let changed = match &self.own_row {
            Some(row) => row.vsites != vsites || row.headline != headline,
            None => true,
        };
        if changed {
            self.own_row = Some(SiteStatus {
                usite: self.usite.clone(),
                epoch: self.epoch + 1,
                updated_at: now,
                health: SiteHealth::Live,
                vsites,
                headline,
            });
        }
        self.own_metrics = metrics;
    }

    /// Every row this node can vouch for: its own plus its children's.
    pub fn subtree_rows(&self) -> BTreeMap<String, &SiteStatus> {
        let mut out = BTreeMap::new();
        for cache in self.children.values() {
            for (usite, row) in &cache.rows {
                out.insert(usite.clone(), row);
            }
        }
        if let Some(row) = &self.own_row {
            out.insert(row.usite.clone(), row);
        }
        out
    }

    /// The subtree-merged metrics snapshot: own metrics folded with
    /// every child's pre-merged cache.
    pub fn subtree_merged(&self) -> MetricsSnapshot {
        let mut merged = self.own_metrics.clone();
        for cache in self.children.values() {
            merged.merge(&cache.merged);
        }
        merged
    }

    /// Usites below this node currently considered silent: children
    /// whose edge has not been heard from within `stale_after`
    /// (their whole cached subtree goes stale) plus staleness the
    /// children themselves reported.
    pub fn silent_sites(&self, now: SimTime, stale_after: SimTime) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (child, cache) in &self.children {
            if now.saturating_sub(cache.last_heard) > stale_after {
                out.insert(child.clone());
                out.extend(cache.rows.keys().cloned());
            }
            out.extend(cache.stale.iter().cloned());
        }
        out
    }

    /// Build the next push toward the parent and park it as pending.
    /// Bumps the push epoch; ships only rows the parent has not acked
    /// (everything on a resync) and a metrics delta against the acked
    /// base (a full snapshot when `acked_epoch` is 0).
    pub fn build_push(&mut self, now: SimTime, stale_after: SimTime, corr: u64) -> GridPush {
        self.epoch += 1;
        let to_epoch = self.epoch;
        let merged = self.subtree_merged();
        let resync = self.up.acked_epoch == 0;
        let rows: Vec<SiteStatus> = self
            .subtree_rows()
            .values()
            .filter(|row| resync || self.up.acked_rows.get(&row.usite) != Some(&row.epoch))
            .map(|row| (*row).clone())
            .collect();
        let payload = if resync {
            SnapshotPayload::Full(merged.clone())
        } else {
            SnapshotPayload::Delta(SnapshotDelta::between(&self.up.acked_merged, &merged))
        };
        let row_epochs = self
            .subtree_rows()
            .values()
            .map(|row| (row.usite.clone(), row.epoch))
            .collect();
        self.up.pending = Some(PendingPush {
            corr,
            to_epoch,
            merged: merged.clone(),
            rows: row_epochs,
        });
        GridPush {
            origin: self.usite.clone(),
            base_epoch: self.up.acked_epoch,
            to_epoch,
            rows,
            merged: payload,
            stale: self.silent_sites(now, stale_after).into_iter().collect(),
        }
    }

    /// Apply a child's push (parent side). A retransmitted corr returns
    /// the cached ack; a delta whose base does not match the cache —
    /// e.g. after this node crash-restarted and lost the edge state —
    /// is refused with `resync` so the child falls back to a full.
    pub fn apply_push(&mut self, now: SimTime, corr: u64, push: &GridPush) -> ApplyResult {
        let cache = self.children.entry(push.origin.clone()).or_default();
        if let Some((last_corr, epoch, resync)) = cache.last_ack {
            if last_corr == corr {
                return ApplyResult { epoch, resync };
            }
        }
        cache.last_heard = now;
        let result = match &push.merged {
            SnapshotPayload::Full(full) => {
                cache.merged = full.clone();
                cache.rows = push
                    .rows
                    .iter()
                    .map(|r| (r.usite.clone(), r.clone()))
                    .collect();
                cache.stale = push.stale.iter().cloned().collect();
                cache.have_epoch = push.to_epoch;
                ApplyResult {
                    epoch: push.to_epoch,
                    resync: false,
                }
            }
            SnapshotPayload::Delta(delta) => {
                if push.base_epoch != cache.have_epoch {
                    ApplyResult {
                        epoch: cache.have_epoch,
                        resync: true,
                    }
                } else {
                    delta.apply(&mut cache.merged);
                    for row in &push.rows {
                        cache.rows.insert(row.usite.clone(), row.clone());
                    }
                    cache.stale = push.stale.iter().cloned().collect();
                    cache.have_epoch = push.to_epoch;
                    ApplyResult {
                        epoch: push.to_epoch,
                        resync: false,
                    }
                }
            }
        };
        cache.last_ack = Some((corr, result.epoch, result.resync));
        result
    }

    /// Commit or roll back the pending push on an ack from the parent.
    /// Returns true when the ack matched the in-flight push.
    pub fn on_ack(&mut self, corr: u64, resync: bool) -> bool {
        let Some(pending) = self.up.pending.take() else {
            return false;
        };
        if pending.corr != corr {
            self.up.pending = Some(pending);
            return false;
        }
        if resync {
            // Parent lost (or never had) the base — next heartbeat
            // sends a full snapshot.
            self.up.acked_epoch = 0;
            self.up.acked_rows.clear();
            self.up.acked_merged = MetricsSnapshot::default();
        } else {
            self.up.acked_epoch = pending.to_epoch;
            self.up.acked_merged = pending.merged;
            self.up.acked_rows = pending.rows;
        }
        true
    }

    /// Drop the pending push (uplink fast-failed or retries exhausted);
    /// the next heartbeat simply rebuilds it.
    pub fn abandon_pending(&mut self) {
        self.up.pending = None;
    }
}

/// One hop of a grid-view query climbing the aggregation tree: the site
/// that received it remembers who asked, so the root's answer — or a
/// degraded subtree view when the uplink is dead — flows back down the
/// same path.
pub(crate) struct GridRelay {
    origin_node: NodeId,
    origin_corr: u64,
    origin_dn: String,
}

/// The aggregation plane of one deployment; a site is its index.
pub(crate) struct GridPlane {
    tree: AggregationTree,
    root: usize,
    /// Site → its tree parent (`None` at the root).
    parents: Vec<Option<usize>>,
    /// Site → its plane node; `None` while the site is down (the edge
    /// caches and epochs are RAM).
    nodes: Vec<Option<PlaneNode>>,
    /// Heartbeat period: how often each site refreshes its own row and
    /// pushes its subtree snapshot one hop up.
    push_interval: SimTime,
    next_push_corr: u64,
    /// Open grid-view relays, keyed by the upward hop's correlation id.
    relays: HashMap<CorrKey, GridRelay>,
    next_relay_corr: u64,
    /// The root-scope SLO rules engine over the merged grid view.
    alerts: AlertEngine,
    next_alert_eval: SimTime,
}

impl GridPlane {
    /// The plane over `names` (deployment order).
    pub(crate) fn new(names: &[String], seed: u64, push_interval: SimTime) -> Self {
        let tree = AggregationTree::build(names.to_vec(), seed, TREE_FANOUT);
        let index = |name: &str| names.iter().position(|n| n == name).expect("a tree site");
        let mut plane = GridPlane {
            root: index(tree.root()),
            parents: names.iter().map(|n| tree.parent(n).map(index)).collect(),
            nodes: names.iter().map(|n| Some(PlaneNode::new(n, 0))).collect(),
            tree,
            push_interval,
            next_push_corr: PUSH_CORR_BASE,
            relays: HashMap::new(),
            next_relay_corr: RELAY_CORR_BASE,
            alerts: AlertEngine::new(standard_slo_rules()),
            next_alert_eval: 0,
        };
        plane.arm(0);
        plane
    }

    /// Schedules every node's next heartbeat relative to `now`, staggered
    /// a quarter second apart so the plane never synchronises into a
    /// thundering herd.
    pub(crate) fn arm(&mut self, now: SimTime) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if let Some(node) = node {
                node.next_push_at = now + self.push_interval + (i as SimTime + 1) * (SEC / 4);
            }
        }
        self.next_alert_eval = now + 2 * self.push_interval;
    }

    /// The next heartbeat or SLO evaluation.
    pub(crate) fn next_event(&self) -> SimTime {
        let pushes = self.nodes.iter().flatten().map(|n| n.next_push_at);
        pushes.fold(self.next_alert_eval, SimTime::min)
    }

    /// `site`'s process died: its node, its pushes and the relays it held
    /// open die with it. Its parent's cache simply goes stale.
    pub(crate) fn crash(&mut self, site: usize) {
        self.nodes[site] = None;
        self.relays.retain(|(owner, _), _| *owner != Some(site));
    }

    /// A fresh node re-announces the rebooted site quickly; epoch 0 on
    /// the uplink means its first push is a full snapshot, and its
    /// children's deltas are refused once (resync) then resent full.
    pub(crate) fn restart(&mut self, site: usize, name: &str, now: SimTime) {
        self.nodes[site] = Some(PlaneNode::new(name, now + SEC));
    }

    fn node(&self, site: usize) -> &PlaneNode {
        self.nodes[site].as_ref().expect("a live site has a node")
    }

    /// A child's push reached `site`; answered with the epoch ack the
    /// delta protocol rides on.
    pub(crate) fn on_push(
        &mut self,
        site: usize,
        t: SimTime,
        corr: u64,
        push: &GridPush,
    ) -> Response {
        let node = self.nodes[site].as_mut().expect("a live site has a node");
        let ApplyResult { epoch, resync } = node.apply_push(t, corr, push);
        Response::GridAck { epoch, resync }
    }

    /// Whether the request `key` — answered with `ack`, or given up on —
    /// was the push its owner's node has in flight; its edge state is
    /// settled here. The plane is deliberately silent about a push that
    /// died on the wire (a partitioned child must not quarantine its
    /// healthy parent): the pending edge state is dropped, the next
    /// heartbeat rebuilds it.
    pub(crate) fn push_settled(&mut self, key: &CorrKey, ack: Option<&Response>) -> bool {
        let Some(node) = key.0.and_then(|site| self.nodes[site].as_mut()) else {
            return false;
        };
        if node.up.pending.as_ref().is_none_or(|p| p.corr != key.1) {
            return false;
        }
        match ack {
            Some(Response::GridAck { resync, .. }) => drop(node.on_ack(key.1, *resync)),
            Some(_) => {}
            None => node.abandon_pending(),
        }
        true
    }

    /// The relay waiting on the upward hop `key`, if that is what it was.
    pub(crate) fn take_relay(&mut self, key: &CorrKey) -> Option<GridRelay> {
        self.relays.remove(key)
    }

    /// Whether a query `node` sent as `corr` is still climbing the tree.
    pub(crate) fn is_relaying(&self, node: NodeId, corr: u64) -> bool {
        let mut open = self.relays.values();
        open.any(|r| r.origin_node == node && r.origin_corr == corr)
    }
}

/// The grid-plane relay.
impl Federation {
    /// Why the federation itself knows `site` cannot be reached right
    /// now: crash outranks partition outranks quarantine.
    fn unreachable_reason(&self, site: usize) -> Option<UnreachableReason> {
        if self.sites[site].server.is_none() {
            Some(UnreachableReason::Crash)
        } else if self.sites[site].partitioned {
            Some(UnreachableReason::Partition)
        } else if self.rel.is_quarantined(site) {
            Some(UnreachableReason::Quarantine)
        } else {
            None
        }
    }

    /// One row per deployment site, as seen from `site`'s plane node:
    /// pushed rows from its subtree, synthesized epoch-0 rows for sites
    /// it has never heard of, and a health overlay from the federation's
    /// live fault knowledge; otherwise a silent edge or a never-heard
    /// site shows `Stale`, and fresh rows show `Live`.
    fn assemble(&self, site: usize, t: SimTime) -> GridView {
        let node = self.plane.node(site);
        let rows = node.subtree_rows();
        let silent = node.silent_sites(t, STALE_AFTER);
        let mut by_name: Vec<usize> = (0..self.sites.len()).collect();
        by_name.sort_by_key(|&i| &self.site_names[i]);
        let status_rows = by_name.into_iter().map(|i| {
            let name = &self.site_names[i];
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
            row.health = if i == site {
                SiteHealth::Live
            } else if let Some(why) = self.unreachable_reason(i) {
                SiteHealth::Unreachable(why)
            } else if silent.contains(name) || !rows.contains_key(name) {
                SiteHealth::Stale
            } else {
                SiteHealth::Live
            };
            row
        });
        let alerts = if site == self.plane.root {
            self.plane.alerts.active()
        } else {
            Vec::new()
        };
        GridView {
            root: self.site_names[site].clone(),
            at: t,
            sites: status_rows.collect(),
            merged: node.subtree_merged(),
            alerts,
        }
    }

    /// One tick of the plane (E17). Drives every due aggregation
    /// heartbeat: the site refreshes its own row from a live monitor
    /// report, and — unless it is the tree root, or its previous push is
    /// still in flight — builds the next delta (or full, on an unacked
    /// edge) push toward its tree parent. Pushes deliberately bypass the
    /// circuit breaker in both directions: the plane is the thing that
    /// must keep probing a dark edge, and one bounded push per heartbeat
    /// cannot storm. Then the root's SLO rules, when they are due.
    pub(crate) fn plane_tick(&mut self, t: SimTime) {
        for site in 0..self.sites.len() {
            let Some(node) = &mut self.plane.nodes[site] else {
                continue; // crashed: no process, no heartbeat
            };
            if t < node.next_push_at {
                continue;
            }
            let server = self.sites[site].server.as_ref();
            let report = server.expect("a node has a server").monitor_report(t);
            node.next_push_at = t + self.plane.push_interval;
            node.refresh_own(t, report.metrics, report.vsites);
            let Some(parent) = self.plane.parents[site] else {
                continue; // the root aggregates; it has no uplink
            };
            if node.up.pending.is_some() {
                continue; // at most one push in flight per edge
            }
            let corr = self.plane.next_push_corr;
            self.plane.next_push_corr += 1;
            let push = node.build_push(t, STALE_AFTER, corr);
            let is_full = push.merged.is_full();
            let request = Request::MonitorPush { push };
            let from = Sender::Site(site);
            let bytes = self.rel.request(t, from, parent, corr, request, None) as u64;
            if is_full {
                self.grid_push_bytes_full += bytes;
            } else {
                self.grid_push_bytes_delta += bytes;
            }
        }
        if t >= self.plane.next_alert_eval {
            self.plane.next_alert_eval = t + self.plane.push_interval;
            self.eval_alerts(t);
        }
    }

    /// Evaluates the SLO rules over the root's merged subtree view.
    /// Firing and clearing are pure functions of simulated time and the
    /// snapshot, so a replayed chaos run produces a byte-identical
    /// alert log. Events land in the root NJS's flight recorder (ring 0,
    /// the grid ring) and in the federation counters.
    fn eval_alerts(&mut self, t: SimTime) {
        let root = self.plane.root;
        let Some(server) = &self.sites[root].server else {
            return; // the root is down; evaluation resumes on restart
        };
        let node = self.plane.node(root);
        let silent = node.silent_sites(t, STALE_AFTER);
        let total = self.sites.len();
        let unreachable = (0..total)
            .filter(|&i| {
                i != root
                    && (self.unreachable_reason(i).is_some()
                        || silent.contains(&self.site_names[i]))
            })
            .count();
        let merged = node.subtree_merged();
        let events = self.plane.alerts.evaluate(t, &merged, unreachable, total);
        for ev in &events {
            let what = if ev.firing { "slo.fire" } else { "slo.clear" };
            self.telemetry.counter("federation.slo.events").inc();
            server
                .njs()
                .flight()
                .record(0, t, what, format_args!("{}", ev.rule));
        }
    }

    /// Sends a relayed grid-view query's answer back down the path it
    /// climbed, and caches it for the asker's retries: the view the
    /// parent sent, or — the uplink dead or quarantined, or the parent
    /// having refused — the view `site` can vouch for, its own subtree.
    pub(crate) fn answer_grid_relay(
        &mut self,
        site: usize,
        relay: GridRelay,
        from_parent: Option<Response>,
        t: SimTime,
    ) {
        let response = match from_parent {
            Some(view @ Response::Service(ServiceOutcome::Grid { .. })) => view,
            _ => {
                self.telemetry.counter("federation.grid.degraded").inc();
                let view = self.assemble(site, t);
                Response::Service(ServiceOutcome::Grid { view })
            }
        };
        let GridRelay {
            origin_node,
            origin_corr,
            origin_dn,
        } = relay;
        self.rel
            .answer_once(site, origin_node, &origin_dn, origin_corr, || response);
    }

    /// Routes a `Monitor { grid: true }` query arriving at `site`. The
    /// tree root assembles and answers from its pre-merged caches (O(1)
    /// on query, the aggregation already happened on push traffic);
    /// every other site relays the query one hop toward the root —
    /// O(depth) = O(log sites) hops in total — unless its uplink is
    /// quarantined, in which case it answers immediately with the
    /// degraded view of its own subtree.
    pub(crate) fn handle_grid_query(
        &mut self,
        site: usize,
        origin: NodeId,
        corr: u64,
        dn: &str,
        t: SimTime,
    ) {
        let Some(parent) = self.plane.parents[site] else {
            let view = self.assemble(site, t);
            let response = Response::Service(ServiceOutcome::Grid { view });
            self.rel.answer_once(site, origin, dn, corr, || response);
            return;
        };
        // A retransmit while the relay is still climbing: the open relay
        // will answer; don't open a second one.
        let mut open = self.plane.relays.iter();
        if open.any(|((owner, _), r)| {
            *owner == Some(site) && r.origin_corr == corr && r.origin_dn == dn
        }) {
            return;
        }
        let relay = GridRelay {
            origin_node: origin,
            origin_corr: corr,
            origin_dn: dn.to_owned(),
        };
        if self.rel.blocks(parent, t) {
            self.fast_failures += 1;
            self.telemetry.counter("federation.fast_fail").inc();
            self.answer_grid_relay(site, relay, None, t);
            return;
        }
        let relay_corr = self.plane.next_relay_corr;
        self.plane.next_relay_corr += 1;
        self.grid_query_hops += 1;
        let query = Request::Monitor { grid: true };
        self.rel
            .request(t, Sender::Site(site), parent, relay_corr, query, None);
        self.plane.relays.insert((Some(site), relay_corr), relay);
    }

    /// The aggregation spanning tree the plane runs over (E17).
    pub fn grid_tree(&self) -> &AggregationTree {
        &self.plane.tree
    }

    /// The SLO alerts currently firing at the tree root.
    pub fn active_alerts(&self) -> Vec<ActiveAlert> {
        self.plane.alerts.active()
    }

    /// Every alert fire/clear event so far, in evaluation order.
    pub fn alert_log(&self) -> &[AlertEvent] {
        self.plane.alerts.log()
    }

    /// The alert log DER-encoded — byte-identical across replays of the
    /// same seeded scenario, which the chaos suite asserts.
    pub fn alert_log_der(&self) -> Vec<u8> {
        self.plane.alerts.log_der()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(n: usize, seed: u64, fanout: usize) -> AggregationTree {
        AggregationTree::build((0..n).map(|i| format!("U{i:03}")).collect(), seed, fanout)
    }

    #[test]
    fn tree_is_deterministic_and_covers_every_site() {
        let a = tree(100, 42, 4);
        let b = tree(100, 42, 4);
        assert_eq!(a.sites(), b.sites());
        let c = tree(100, 43, 4);
        assert_ne!(a.sites(), c.sites(), "seed must shuffle the layout");
        let mut sorted: Vec<_> = a.sites().to_vec();
        sorted.sort();
        let expect: Vec<String> = (0..100).map(|i| format!("U{i:03}")).collect();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn parent_child_relations_are_mutual_and_depth_is_logarithmic() {
        let t = tree(100, 7, 4);
        for site in t.sites() {
            for child in t.children(site) {
                assert_eq!(t.parent(child), Some(site.as_ref()));
            }
        }
        assert_eq!(t.parent(t.root()), None);
        // 100 sites at fanout 4: ceil(log4(100)) < 5 levels.
        assert!(t.depth() <= 4, "depth {} too deep", t.depth());
        assert_eq!(t.subtree(t.root()).len(), 100);
    }

    #[test]
    fn push_cycle_full_then_delta_then_resync() {
        let mut child = PlaneNode::new("U001", 0);
        let mut parent = PlaneNode::new("U000", 0);
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("njs.consigned".into(), 2);
        child.refresh_own(10, metrics.clone(), vec![]);

        // First push is a full resync.
        let push = child.build_push(10, 90, 1);
        assert!(push.merged.is_full());
        assert_eq!(push.rows.len(), 1);
        let ack = parent.apply_push(11, 1, &push);
        assert!(!ack.resync);
        assert!(child.on_ack(1, ack.resync));
        assert_eq!(child.up.acked_epoch, 1);

        // Nothing changed: the delta push is empty of rows and content.
        child.refresh_own(20, metrics.clone(), vec![]);
        let push = child.build_push(20, 90, 2);
        assert!(!push.merged.is_full());
        assert!(push.rows.is_empty());
        match &push.merged {
            SnapshotPayload::Delta(d) => assert!(d.is_empty()),
            _ => unreachable!(),
        }
        let ack = parent.apply_push(21, 2, &push);
        assert!(!ack.resync);
        child.on_ack(2, ack.resync);

        // A change ships as a delta and updates the parent's cache.
        metrics.counters.insert("njs.consigned".into(), 5);
        child.refresh_own(30, metrics, vec![]);
        let push = child.build_push(30, 90, 3);
        assert_eq!(push.rows.len(), 1);
        let ack = parent.apply_push(31, 3, &push);
        assert!(!ack.resync);
        child.on_ack(3, ack.resync);
        let cache = &parent.children["U001"];
        assert_eq!(cache.merged.counter("njs.consigned"), 5);
        assert_eq!(cache.rows["U001"].headline("njs.consigned"), 5);

        // Parent restarts: its fresh cache refuses the delta, the
        // child falls back to a full snapshot.
        let mut parent = PlaneNode::new("U000", 0);
        let mut m2 = MetricsSnapshot::default();
        m2.counters.insert("njs.consigned".into(), 6);
        child.refresh_own(40, m2, vec![]);
        let push = child.build_push(40, 90, 4);
        assert!(!push.merged.is_full());
        let ack = parent.apply_push(41, 4, &push);
        assert!(ack.resync);
        child.on_ack(4, ack.resync);
        assert_eq!(child.up.acked_epoch, 0);
        let push = child.build_push(50, 90, 5);
        assert!(push.merged.is_full());
        let ack = parent.apply_push(51, 5, &push);
        assert!(!ack.resync);
        assert_eq!(parent.children["U001"].merged.counter("njs.consigned"), 6);
    }

    #[test]
    fn retransmitted_push_gets_the_cached_ack() {
        let mut child = PlaneNode::new("U001", 0);
        let mut parent = PlaneNode::new("U000", 0);
        child.refresh_own(10, MetricsSnapshot::default(), vec![]);
        let push = child.build_push(10, 90, 1);
        let first = parent.apply_push(11, 1, &push);
        let replay = parent.apply_push(60, 1, &push);
        assert_eq!(first, replay);
        assert!(!replay.resync);
    }

    #[test]
    fn silence_propagates_up_as_stale_sets() {
        let mut mid = PlaneNode::new("U001", 0);
        let mut leaf = PlaneNode::new("U002", 0);
        leaf.refresh_own(10, MetricsSnapshot::default(), vec![]);
        let push = leaf.build_push(10, 90, 1);
        mid.apply_push(10, 1, &push);
        assert!(mid.silent_sites(50, 90).is_empty());
        let silent = mid.silent_sites(200, 90);
        assert!(silent.contains("U002"));
        mid.refresh_own(200, MetricsSnapshot::default(), vec![]);
        let up = mid.build_push(200, 90, 2);
        assert!(up.stale.contains(&"U002".to_string()));
    }

    #[test]
    fn grid_push_round_trips() {
        let mut child = PlaneNode::new("U001", 0);
        let mut m = MetricsSnapshot::default();
        m.counters.insert("njs.consigned".into(), 3);
        child.refresh_own(10, m, vec![]);
        let push = child.build_push(10, 90, 1);
        assert_eq!(GridPush::from_der(&push.to_der()).unwrap(), push);
    }
}
