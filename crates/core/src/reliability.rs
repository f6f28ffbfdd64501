//! The federation's reliability layer: what makes §5.3's asynchronous
//! protocol "protect against any unreliability" of the network under it.
//!
//! Every envelope leaves through [`Wire::post`], which stamps it with its
//! channel's next sequence number and the reverse channel's cumulative
//! ack and frames it into the tick's record ([`crate::link`]). Around
//! that one door: a retry timer per request (backoff with a
//! deterministic jitter, a fixed budget), a circuit breaker per peer
//! Usite, a sequence ledger per channel (duplicates and late arrivals are
//! counted, never acted on), and the at-most-once reply cache per site,
//! which keeps each answer as the DER it was first framed in.
//!
//! A site is its index in the deployment. Nothing here knows the
//! simulated network or a server, so all of it is tested without either.

use crate::link::Outbox;
use crate::protocol::{BodyRef, Envelope, Request, Response};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use unicore_batch::IdMap;
use unicore_codec::{DerCodec, DerWriter};
use unicore_sim::{SimTime, SEC};
use unicore_simnet::NodeId;
use unicore_telemetry::{SpanContext, Telemetry};

/// Timeout before the first retransmission; later attempts back off
/// exponentially up to [`BACKOFF_CAP`] (plus the jitter).
const RETRY_TIMEOUT: SimTime = 2 * SEC;
const BACKOFF_CAP: SimTime = 16 * SEC;
/// Retransmissions per request before it is given up.
const MAX_RETRIES: u32 = 10;
/// Consecutive exhausted retry budgets before a peer's circuit opens.
const QUARANTINE_AFTER: u32 = 2;

/// Who sends a request: the workstation, signing with the user's DN, or
/// a site's server, signing with its own.
#[derive(Clone, Copy)]
pub(crate) enum Sender<'a> {
    Client(&'a str),
    Site(usize),
}

/// Who sent a request: a site by index, or `None` for the workstation.
pub(crate) type Owner = Option<usize>;
/// Requester-side correlation: the requester and its correlation id.
pub(crate) type CorrKey = (Owner, u64);

struct Inflight {
    src: NodeId,
    dst: NodeId,
    /// Destination Usite, for circuit-breaker accounting.
    dest: usize,
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
/// held in order: "when is the next retry due" and "is any due now" are
/// asked on every tick, and are answered from the front of the set
/// instead of a walk over every entry. Every write of an
/// [`Inflight::deadline`] goes through this table, which is what keeps
/// the two views equal.
#[derive(Default)]
struct InflightTable {
    /// Keyed by the requesters' own corrs: [`IdMap`]'s fixed hasher
    /// makes the table grow at the same insert in every run.
    entries: IdMap<CorrKey, Inflight>,
    /// `(deadline, key)` of every entry.
    deadlines: BTreeSet<(SimTime, CorrKey)>,
}

impl InflightTable {
    fn insert(&mut self, key: CorrKey, entry: Inflight) {
        let deadline = entry.deadline;
        if let Some(old) = self.entries.insert(key, entry) {
            self.deadlines.remove(&(old.deadline, key));
        }
        self.deadlines.insert((deadline, key));
    }

    fn remove(&mut self, key: &CorrKey) -> Option<Inflight> {
        let entry = self.entries.remove(key)?;
        self.deadlines.remove(&(entry.deadline, *key));
        Some(entry)
    }

    /// Drops every entry whose owner (the requester) fails `keep`.
    fn retain_owners(&mut self, keep: impl Fn(Owner) -> bool) {
        self.entries.retain(|(owner, _), _| keep(*owner));
        self.deadlines.retain(|(_, (owner, _))| keep(*owner));
    }

    /// Re-arms `key`: applies `update` to the entry (its retry budget and
    /// attempt count) and moves its deadline to `deadline`.
    fn rearm(&mut self, key: &CorrKey, deadline: SimTime, update: impl FnOnce(&mut Inflight)) {
        let entry = self.entries.get_mut(key).expect("inflight entry");
        let old = std::mem::replace(&mut entry.deadline, deadline);
        update(entry);
        self.deadlines.remove(&(old, *key));
        self.deadlines.insert((deadline, *key));
    }

    /// The earliest retry deadline.
    fn next_deadline(&self) -> Option<SimTime> {
        self.deadlines.first().map(|(deadline, _)| *deadline)
    }

    /// Keys whose deadline has passed at `t`, ordered by `(name_of(owner),
    /// corr)`.
    fn due<'n>(&self, t: SimTime, name_of: impl Fn(Owner) -> &'n str) -> Vec<CorrKey> {
        let passed = self
            .deadlines
            .iter()
            .take_while(|(deadline, _)| *deadline <= t);
        let mut due: Vec<CorrKey> = passed.map(|(_, key)| *key).collect();
        due.sort_by(|a, b| (name_of(a.0), a.1).cmp(&(name_of(b.0), b.1)));
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
enum Circuit {
    /// Healthy: requests flow normally.
    Closed,
    /// Quarantined: requests fast-fail until `probe_at`, when a single
    /// half-open probe is let through.
    Open { probe_at: SimTime, probing: bool },
}

/// What the layer keeps per Usite.
struct Peer {
    /// The Usite's name and its server's DN, shared: one or the other is
    /// named by every envelope the site sends or is sent.
    name: Arc<str>,
    dn: Arc<str>,
    gateway: NodeId,
    /// Consecutive retry-budget exhaustions (reset by any envelope
    /// received from the peer).
    failures: u32,
    circuit: Circuit,
    /// At-most-once reply cache: requester DN → correlation id → the
    /// answer given, as the DER of the `Response` it was framed in (a
    /// poll round's answer is a whole sweep of outcome trees; its bytes
    /// are a fraction of the tree). Replayed to retransmissions as it is.
    handled: HashMap<String, HashMap<u64, Box<[u8]>>>,
}

/// Remembers `der` as the answer to `dn`'s request `corr`.
fn keep(
    handled: &mut HashMap<String, HashMap<u64, Box<[u8]>>>,
    dn: &str,
    corr: u64,
    der: Box<[u8]>,
) {
    match handled.get_mut(dn) {
        Some(by_corr) => by_corr.insert(corr, der),
        None => handled.entry(dn.to_owned()).or_default().insert(corr, der),
    };
}

/// What putting an envelope on the wire touches: the channels' sequence
/// counters and receive ledgers (the latter for the piggybacked ack) and
/// the tick's outbox. Apart from the rest of the layer, so a stored
/// answer can be framed while it is borrowed from its cache.
#[derive(Default)]
struct Wire {
    /// Frames written this tick, flushed one record per peer at its end.
    outbox: Outbox,
    /// Per-channel sequence stamping for distinct outgoing envelopes.
    next_seq: HashMap<(NodeId, NodeId), u64>,
    /// Receiver-side sequence ledgers, keyed `(receiver, sender)`.
    recv_seq: HashMap<(NodeId, NodeId), SeqTracker>,
    /// Envelopes framed so far, retransmissions included.
    envelopes_sent: u64,
}

impl Wire {
    /// The one way onto the wire. Stamps a distinct outgoing envelope
    /// with the next sequence number on the `src → dst` channel and the
    /// cumulative ack of everything `src` has received from `dst`, and
    /// frames it — origin node, then DER — into the pair's record, which
    /// leaves at the next [`Reliability::flush`]. Returns the frame.
    fn post(
        &mut self,
        src: NodeId,
        dst: NodeId,
        corr: u64,
        from_dn: &str,
        body: BodyRef<'_>,
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
}

/// The reliability layer of one federation.
pub(crate) struct Reliability {
    seed: u64,
    probe_interval: SimTime,
    workstation: NodeId,
    peers: Vec<Peer>,
    wire: Wire,
    inflight: InflightTable,
    /// Where the ledger and circuit counters (`federation.seq.*`,
    /// `federation.site.quarantined` / `.circuit_closed`) are reported.
    pub telemetry: Telemetry,
}

impl Reliability {
    /// A layer for the workstation and `sites`: `(name, server DN,
    /// gateway node)` in deployment order.
    pub(crate) fn new(
        seed: u64,
        probe_interval: SimTime,
        workstation: NodeId,
        sites: impl IntoIterator<Item = (Arc<str>, Arc<str>, NodeId)>,
    ) -> Self {
        let peers: Vec<Peer> = sites
            .into_iter()
            .map(|(name, dn, gateway)| Peer {
                name,
                dn,
                gateway,
                failures: 0,
                circuit: Circuit::Closed,
                handled: HashMap::new(),
            })
            .collect();
        Reliability {
            seed,
            probe_interval,
            workstation,
            peers,
            wire: Wire::default(),
            inflight: InflightTable::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    fn name_of(&self, owner: Owner) -> &str {
        owner.map_or("", |site| &self.peers[site].name)
    }

    /// Envelopes framed so far, retransmissions included.
    pub(crate) fn envelopes_sent(&self) -> u64 {
        self.wire.envelopes_sent
    }

    /// Posts `request` to `dest`'s gateway and arms its retry timer.
    /// Returns the frame's length.
    pub(crate) fn request(
        &mut self,
        now: SimTime,
        from: Sender<'_>,
        dest: usize,
        corr: u64,
        request: Request,
        trace: Option<SpanContext>,
    ) -> usize {
        let (owner, src, from_dn) = match from {
            Sender::Client(dn) => (None, self.workstation, dn),
            Sender::Site(site) => (Some(site), self.peers[site].gateway, &*self.peers[site].dn),
        };
        let dst = self.peers[dest].gateway;
        let body = BodyRef::Request(&request);
        let frame = self
            .wire
            .post(src, dst, corr, from_dn, body, trace)
            .to_vec();
        let len = frame.len();
        self.inflight.insert(
            (owner, corr),
            Inflight {
                src,
                dst,
                dest,
                frame,
                deadline: now + RETRY_TIMEOUT,
                retries_left: MAX_RETRIES,
                attempt: 0,
            },
        );
        len
    }

    /// Stamps and frames a response from `site`'s gateway to node `to`
    /// that no retransmission will ask for again (an aggregation push's
    /// ack, a synchronous consign's outcome): nothing is cached.
    pub(crate) fn reply(&mut self, site: usize, to: NodeId, corr: u64, response: &Response) {
        let peer = &self.peers[site];
        let body = BodyRef::Response(response);
        self.wire.post(peer.gateway, to, corr, &peer.dn, body, None);
    }

    /// Hands the tick's records to `send` and leaves nothing waiting.
    pub(crate) fn flush(&mut self, send: impl FnMut(NodeId, NodeId, Vec<u8>)) {
        self.wire.outbox.flush(send);
    }

    /// Whether every frame still waiting was written by the workstation.
    pub(crate) fn only_the_client_waits(&self) -> bool {
        self.wire.outbox.only_from(self.workstation)
    }

    /// One frame arrived at node `receiver`. Decodes it, enters its
    /// sequence number in the channel's ledger, and — the sender being
    /// provably alive — closes the sender's circuit and resets its
    /// failure streak. `None`, and nothing recorded, if it does not decode.
    pub(crate) fn receive(&mut self, receiver: NodeId, frame: &[u8]) -> Option<(NodeId, Envelope)> {
        let origin = NodeId(u32::from_be_bytes(frame.get(..4)?.try_into().ok()?));
        let env = Envelope::from_der(&frame[4..]).ok()?;
        if let Some(seq) = env.seq {
            let tracker = self.wire.recv_seq.entry((receiver, origin)).or_default();
            let late_before = tracker.reordered;
            if !tracker.observe(seq) {
                self.telemetry.counter("federation.seq.duplicate").inc();
            } else if tracker.reordered > late_before {
                self.telemetry.counter("federation.seq.reorder").inc();
            }
        }
        if let Some(peer) = self.peers.iter_mut().find(|p| p.gateway == origin) {
            if peer.circuit != Circuit::Closed {
                self.telemetry
                    .counter("federation.site.circuit_closed")
                    .inc();
            }
            peer.failures = 0;
            peer.circuit = Circuit::Closed;
        }
        Some((origin, env))
    }

    /// The request `key` was answered (or is given up): its timer stops.
    pub(crate) fn disarm(&mut self, key: &CorrKey) {
        self.inflight.remove(key);
    }

    /// The earliest retry deadline.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.inflight.next_deadline()
    }

    /// Requests whose timer has run out at `t`: the workstation's first,
    /// then by `(site name, corr)` ascending — name, not index, because
    /// this order decides the order of the network's random draws and
    /// must not depend on how a deployment lists its sites.
    pub(crate) fn due(&self, t: SimTime) -> Vec<CorrKey> {
        self.inflight.due(t, |owner| self.name_of(owner))
    }

    /// The timer of `key` ran out at `t`. With budget left the request is
    /// retransmitted and re-armed one backoff step further: `None`. With
    /// the budget dry nothing is touched and the destination is returned:
    /// the caller [`renew`](Self::renew)s or [`disarm`](Self::disarm)s.
    pub(crate) fn fire(&mut self, key: &CorrKey, t: SimTime) -> Option<usize> {
        let f = self.inflight.entries.get(key).expect("a due key");
        if f.retries_left == 0 {
            return Some(f.dest);
        }
        let attempt = f.attempt + 1;
        let delay = self.backoff_delay(key, attempt);
        self.inflight.rearm(key, t + delay, |f| {
            f.retries_left -= 1;
            f.attempt = attempt;
        });
        let f = &self.inflight.entries[key];
        self.wire.envelopes_sent += 1;
        self.wire
            .outbox
            .push(f.src, f.dst, |frame| frame.extend_from_slice(&f.frame));
        None
    }

    /// Gives `key` a whole new budget without retransmitting now.
    pub(crate) fn renew(&mut self, key: &CorrKey, t: SimTime) {
        self.inflight
            .rearm(key, t + RETRY_TIMEOUT, |f| f.retries_left = MAX_RETRIES);
    }

    /// Exponential backoff with a deterministic jitter: the base doubles
    /// per attempt up to the cap; the jitter (up to a quarter of the
    /// base) is hashed from the seed, the request identity and the
    /// attempt, so concurrent retries desynchronise yet replay exactly.
    fn backoff_delay(&self, key: &CorrKey, attempt: u32) -> SimTime {
        let base = (RETRY_TIMEOUT << attempt.min(32)).min(BACKOFF_CAP);
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.name_of(key.0).as_bytes());
        mix(&key.1.to_be_bytes());
        mix(&attempt.to_be_bytes());
        base + h % (base / 4)
    }

    /// A request to `dest` exhausted its retry budget. After
    /// [`QUARANTINE_AFTER`] consecutive exhaustions the circuit opens:
    /// further requests fast-fail until a half-open probe succeeds.
    pub(crate) fn strike(&mut self, dest: usize, t: SimTime) {
        let peer = &mut self.peers[dest];
        peer.failures += 1;
        if peer.failures >= QUARANTINE_AFTER {
            if peer.circuit == Circuit::Closed {
                self.telemetry.counter("federation.site.quarantined").inc();
            }
            peer.circuit = Circuit::Open {
                probe_at: t + self.probe_interval,
                probing: false,
            };
        }
    }

    /// Whether a send to `dest` must fast-fail right now. When the probe
    /// window of an open circuit has arrived, the first caller is let
    /// through as the half-open probe and subsequent callers keep
    /// fast-failing until the probe resolves.
    pub(crate) fn blocks(&mut self, dest: usize, t: SimTime) -> bool {
        match &mut self.peers[dest].circuit {
            Circuit::Open { probe_at, probing } if t >= *probe_at && !*probing => {
                *probing = true;
                false
            }
            Circuit::Open { .. } => true,
            Circuit::Closed => false,
        }
    }

    /// Whether `site`'s circuit is open.
    pub(crate) fn is_quarantined(&self, site: usize) -> bool {
        self.peers[site].circuit != Circuit::Closed
    }

    /// At most once, the repeat: if `site` already answered `dn`'s
    /// request `corr`, frames that answer again — its stored DER as it is,
    /// nothing decoded or re-encoded — for node `to`, and says so.
    pub(crate) fn replay(&mut self, site: usize, to: NodeId, dn: &str, corr: u64) -> bool {
        let peer = &self.peers[site];
        let Some(der) = peer.handled.get(dn).and_then(|by_corr| by_corr.get(&corr)) else {
            return false;
        };
        let body = BodyRef::ResponseDer(der);
        self.wire.post(peer.gateway, to, corr, &peer.dn, body, None);
        true
    }

    /// At most once, the first time: frames `site`'s answer to `dn`'s
    /// request `corr` for node `to`, and keeps the `Response` DER just
    /// written — copied out of the frame into an exact-size box — for
    /// [`replay`](Self::replay). The tree is dropped here.
    pub(crate) fn answer(
        &mut self,
        site: usize,
        to: NodeId,
        dn: &str,
        corr: u64,
        response: Response,
    ) {
        let peer = &mut self.peers[site];
        let body = BodyRef::Response(&response);
        let frame = self.wire.post(peer.gateway, to, corr, &peer.dn, body, None);
        let der = Envelope::response_der(&frame[4..]).expect("a response was just framed");
        keep(&mut peer.handled, dn, corr, Box::from(der));
    }

    /// Remembers what `site` answered `dn`'s request `corr` without
    /// sending it (a synchronous consign answers at the job's end).
    pub(crate) fn remember(&mut self, site: usize, dn: &str, corr: u64, response: &Response) {
        let der = response.to_der().into_boxed_slice();
        keep(&mut self.peers[site].handled, dn, corr, der);
    }

    /// At most once: answers `dn`'s request `corr`, which reached `site`
    /// from node `to`, with what `handle` returns — or, for a
    /// retransmission, with the stored answer, and `handle` is not called.
    pub(crate) fn answer_once(
        &mut self,
        site: usize,
        to: NodeId,
        dn: &str,
        corr: u64,
        handle: impl FnOnce() -> Response,
    ) {
        if !self.replay(site, to, dn, corr) {
            self.answer(site, to, dn, corr, handle());
        }
    }

    /// `site`'s process died: its outstanding requests died with it, and
    /// its reply cache must not replay answers the rebooted server will
    /// re-derive from its journal. Sequence counters belong to the
    /// channel, not the process, and carry on.
    pub(crate) fn forget(&mut self, site: usize) {
        self.inflight.retain_owners(|owner| owner != Some(site));
        self.peers[site].handled.clear();
    }

    /// Aggregate `(duplicates, reorders)` seen across every channel.
    pub(crate) fn seq_stats(&self) -> (u64, u64) {
        self.wire
            .recv_seq
            .values()
            .fold((0, 0), |(d, r), t| (d + t.duplicates, r + t.reordered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Body;
    use unicore_ajo::ActionStatus;
    use unicore_crypto::CryptoRng;
    use unicore_sim::MINUTE;

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
            dest: 1,
            frame: Vec::new(),
            deadline,
            retries_left: 3,
            attempt: 0,
        }
    }

    /// Owners `None`, `Some(0)`, `Some(1)` under names that sort the
    /// way the indices do.
    fn plain_name(owner: Owner) -> &'static str {
        owner.map_or("", |site| ["A", "B"][site])
    }

    /// What the ordered set must equal: a walk over every entry.
    fn scanned(table: &InflightTable, t: SimTime) -> (Option<SimTime>, Vec<CorrKey>) {
        let next = table.entries.values().map(|f| f.deadline).min();
        let mut due: Vec<CorrKey> = table
            .entries
            .iter()
            .filter(|(_, f)| f.deadline <= t)
            .map(|(k, _)| *k)
            .collect();
        due.sort();
        (next, due)
    }

    #[test]
    fn inflight_deadlines_follow_every_writer() {
        let mut table = InflightTable::default();
        assert_eq!(table.next_deadline(), None);
        assert!(table.due(SimTime::MAX, plain_name).is_empty());
        let mut rng = CryptoRng::from_u64(7);
        let owners = [None, Some(0), Some(1)];
        for round in 0..2_000u64 {
            let key = (owners[(rng.next_u64() % 3) as usize], rng.next_u64() % 12);
            // Few distinct deadlines, so many entries share one.
            let deadline = rng.next_u64() % 6;
            match rng.next_u64() % 5 {
                0 | 1 => table.insert(key, entry(deadline)), // also replaces
                2 => {
                    table.remove(&key);
                }
                3 if table.entries.contains_key(&key) => {
                    table.rearm(&key, deadline, |f| f.attempt += 1);
                }
                3 => {}
                _ if round % 50 == 0 => table.retain_owners(|owner| owner != key.0),
                _ => {}
            }
            let t = rng.next_u64() % 7;
            let due = table.due(t, plain_name);
            assert_eq!((table.next_deadline(), due), scanned(&table, t));
            assert_eq!(
                table.deadlines.len(),
                table.entries.len(),
                "one deadline per entry"
            );
        }
        table.retain_owners(|_| false);
        assert!(table.deadlines.is_empty() && table.entries.is_empty());
    }
    /// The German deployment in creation order: gateways are nodes 0, 2,
    /// 4, …, the workstation is node 12.
    const GERMAN: [&str; 6] = ["FZJ", "RUS", "RUKA", "LRZ", "ZIB", "DWD"];
    const WORKSTATION: NodeId = NodeId(12);
    const ALICE: Sender = Sender::Client("C=DE, O=FZJ, OU=ZAM, CN=alice");
    const RUS: usize = 1;

    fn german() -> Reliability {
        let sites = GERMAN.iter().zip(0..).map(|(name, i)| {
            let dn = format!("C=DE, O={name}, OU=UNICORE, CN={name}-server");
            (Arc::from(*name), Arc::from(dn), NodeId(2 * i))
        });
        Reliability::new(1, MINUTE, WORKSTATION, sites)
    }

    fn poll() -> Request {
        Request::Monitor { grid: false }
    }

    /// Empties the outbox; returns its frames in the order they leave.
    fn flushed(rel: &mut Reliability) -> Vec<Vec<u8>> {
        let mut sent = Vec::new();
        rel.flush(|_, _, record| {
            let frames = crate::link::frames_of(&record).expect("well-formed");
            sent.extend(frames.map(<[u8]>::to_vec));
        });
        sent
    }

    #[test]
    fn timers_fire_in_name_order_not_creation_order() {
        // RUKA was created after RUS and sorts before it; DWD was created
        // last and sorts first. The workstation precedes every site.
        let mut rel = german();
        for site in 0..GERMAN.len() {
            rel.request(0, Sender::Site(site), (site + 1) % 6, 7, poll(), None);
        }
        rel.request(0, Sender::Site(RUS), 0, 3, poll(), None);
        rel.request(0, ALICE, 0, 9, poll(), None);
        assert_eq!(rel.next_deadline(), Some(RETRY_TIMEOUT));
        assert!(rel.due(RETRY_TIMEOUT - 1).is_empty());
        let due = rel.due(RETRY_TIMEOUT);
        let named: Vec<(&str, u64)> = due
            .iter()
            .map(|(owner, corr)| (owner.map_or("workstation", |site| GERMAN[site]), *corr))
            .collect();
        let by_name = ["DWD", "FZJ", "LRZ", "RUKA"].map(|name| (name, 7));
        let expected = [
            &[("workstation", 9)][..],
            &by_name,
            &[("RUS", 3), ("RUS", 7), ("ZIB", 7)],
        ];
        assert_eq!(named, expected.concat());
    }

    #[test]
    fn backoff_is_pinned_and_bounded() {
        // Read from `Federation::backoff_delay(("RUS", 42), attempt)`,
        // seed 1, while the layer still lived in federation.rs.
        let pinned = [
            2_381_700, 4_009_911, 8_638_122, 16_266_333, 18_868_856, 18_497_067, 18_125_278,
        ];
        let rel = german();
        for (attempt, delay) in (0..).zip(pinned) {
            assert_eq!(rel.backoff_delay(&(Some(RUS), 42), attempt), delay);
        }
        assert_eq!(rel.backoff_delay(&(None, 42), 2), 8_647_820);
        for owner in [None, Some(0), Some(5)] {
            for (corr, attempt) in (0..200).flat_map(|c| (0..MAX_RETRIES + 2).map(move |a| (c, a)))
            {
                let delay = rel.backoff_delay(&(owner, corr), attempt);
                assert!((RETRY_TIMEOUT..BACKOFF_CAP + BACKOFF_CAP / 4).contains(&delay));
            }
        }
    }

    #[test]
    fn the_circuit_opens_probes_once_and_closes_on_any_envelope() {
        let mut rel = german();
        let mut t = 0;
        for strike in 1..=QUARANTINE_AFTER as u64 {
            assert!(!rel.is_quarantined(RUS) && !rel.blocks(RUS, t));
            rel.request(t, ALICE, RUS, strike, poll(), None);
            // Every retransmission, then the fire that finds the budget dry.
            let dest = loop {
                t = rel.next_deadline().expect("armed");
                assert_eq!(rel.due(t), [(None, strike)]);
                if let Some(dest) = rel.fire(&(None, strike), t) {
                    break dest;
                }
            };
            rel.disarm(&(None, strike));
            rel.strike(dest, t);
        }
        let sent = (1 + MAX_RETRIES as u64) * QUARANTINE_AFTER as u64;
        assert_eq!(
            (rel.envelopes_sent(), flushed(&mut rel).len() as u64),
            (sent, sent)
        );
        assert!(rel.is_quarantined(RUS) && !rel.is_quarantined(0));
        // Open: everything fast-fails until the probe window, then one
        // caller is let through and the rest keep failing.
        assert!(rel.blocks(RUS, t) && rel.blocks(RUS, t + MINUTE - 1));
        assert!(!rel.blocks(RUS, t + MINUTE), "the half-open probe");
        assert!(rel.blocks(RUS, t + MINUTE) && rel.blocks(RUS, t + 2 * MINUTE));
        // Anything at all from RUS — here a request of its own to FZJ —
        // proves it alive, and the streak restarts from zero.
        rel.request(t, Sender::Site(RUS), 0, 77, poll(), None);
        let frames = flushed(&mut rel);
        let (origin, env) = rel.receive(NodeId(0), &frames[0]).expect("decodes");
        assert_eq!((origin, env.corr, env.seq), (NodeId(2), 77, Some(1)));
        assert!(!rel.is_quarantined(RUS) && !rel.blocks(RUS, t));
        rel.strike(RUS, t);
        assert!(!rel.is_quarantined(RUS), "one more exhaustion is not two");
    }

    /// The answer `site` keeps for alice's request `corr`.
    fn cached(rel: &Reliability, site: usize, corr: u64) -> Option<&[u8]> {
        rel.peers[site]
            .handled
            .get("alice")?
            .get(&corr)
            .map(|der| &**der)
    }

    /// The `Response` DER a frame carries.
    fn answer_der(frame: &[u8]) -> &[u8] {
        Envelope::response_der(&frame[4..]).expect("a response frame")
    }

    /// A poll round's answer: a sweep of outcome trees.
    fn swept() -> Response {
        use unicore_ajo::{ActionId, JobOutcome, OutcomeNode, ServiceOutcome, TaskOutcome};
        let outcome = |n: u64| JobOutcome {
            status: ActionStatus::Running,
            children: (1..=n)
                .map(|id| (ActionId(id), OutcomeNode::Task(TaskOutcome::pending())))
                .collect(),
        };
        let query = |n| {
            Response::Service(ServiceOutcome::Query {
                outcome: outcome(n),
            })
        };
        Response::Swept {
            responses: vec![query(3), Response::Error("no such job".into()), query(1)],
        }
    }

    #[test]
    fn a_retransmitted_request_is_answered_from_the_cache_and_a_crash_empties_only_its_own() {
        let mut rel = german();
        let handled = std::cell::Cell::new(0);
        let serve = |rel: &mut Reliability, site, corr| {
            rel.answer_once(site, WORKSTATION, "alice", corr, || {
                handled.set(handled.get() + 1);
                match corr {
                    10 => swept(),
                    _ => Response::Error(format!("answer {corr} from {site}")),
                }
            })
        };
        serve(&mut rel, 0, 1);
        serve(&mut rel, 0, 1); // the retransmission
        serve(&mut rel, 0, 2);
        serve(&mut rel, RUS, 1);
        assert_eq!(handled.get(), 3, "the server saw each request once");
        let first = flushed(&mut rel);
        let answers: Vec<(u64, Option<u64>, Body)> = first
            .iter()
            .map(|frame| rel.receive(WORKSTATION, frame).expect("decodes").1)
            .map(|env| (env.corr, env.seq, env.body))
            .collect();
        let said =
            |site, corr| Body::Response(Response::Error(format!("answer {corr} from {site}")));
        // The same answer in a new envelope, each channel numbered on its own.
        let expected = [
            (1, Some(1), said(0, 1)),
            (1, Some(2), said(0, 1)),
            (2, Some(3), said(0, 2)),
            (1, Some(1), said(RUS, 1)),
        ];
        assert_eq!(answers, expected);
        assert_eq!(answer_der(&first[1]), answer_der(&first[0]));
        assert_eq!(cached(&rel, 0, 1), Some(answer_der(&first[0])));

        // A poll round's sweep, answered once and received.
        serve(&mut rel, 0, 10);
        let sweep = flushed(&mut rel);
        rel.receive(WORKSTATION, &sweep[0]).expect("decodes");
        assert_eq!(handled.get(), 4);
        assert_eq!(answer_der(&sweep[0]), swept().to_der());

        // The workstation's next envelope to FZJ acks every answer FZJ
        // gave; then request 1 and the sweep arrive once more.
        rel.request(0, ALICE, 0, 11, poll(), None);
        let acking = flushed(&mut rel);
        let (_, env) = rel.receive(NodeId(0), &acking[0]).expect("decodes");
        assert_eq!(env.ack, Some(4), "the ack has passed both answers");
        rel.disarm(&(None, 11));
        serve(&mut rel, 0, 1);
        serve(&mut rel, 0, 10);
        assert_eq!(
            handled.get(),
            4,
            "past the ack, still answered from the cache"
        );
        let late = flushed(&mut rel);
        assert_eq!(answer_der(&late[0]), answer_der(&first[0]));
        assert_eq!(answer_der(&late[1]), answer_der(&sweep[0]));
        let replayed = rel.receive(WORKSTATION, &late[1]).expect("decodes").1;
        assert_eq!((replayed.corr, replayed.seq), (10, Some(6)));
        assert_eq!(replayed.body, Body::Response(swept()));

        // FZJ crashes with a request of its own outstanding.
        rel.request(0, Sender::Site(0), RUS, 5, poll(), None);
        rel.request(0, Sender::Site(RUS), 0, 5, poll(), None);
        rel.forget(0);
        assert!([1, 2, 10]
            .iter()
            .all(|&corr| cached(&rel, 0, corr).is_none()));
        assert_eq!(cached(&rel, RUS, 1), Some(answer_der(&first[3])));
        assert_eq!(rel.due(SimTime::MAX), [(Some(RUS), 5)]);
        flushed(&mut rel);
        // RUS still replays; the rebooted FZJ is asked again and answers
        // afresh.
        serve(&mut rel, RUS, 1);
        assert_eq!(handled.get(), 4);
        serve(&mut rel, 0, 1);
        assert_eq!(handled.get(), 5);
        let after = flushed(&mut rel);
        assert_eq!(answer_der(&after[0]), answer_der(&first[3]));
        assert_eq!(answer_der(&after[1]), answer_der(&first[0]));
    }
}
