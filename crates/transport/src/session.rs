//! Session caching for abbreviated (resumed) handshakes.

use crate::ticket::ResumptionTicket;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use unicore_certs::{RequiredUsage, TrustStore, ValidatedCertificate};

/// A cached session: master secret plus the authenticated peer.
#[derive(Clone)]
pub struct CachedSession {
    /// Session identifier assigned by the server.
    pub session_id: Vec<u8>,
    /// The negotiated master secret.
    pub master: Vec<u8>,
    /// The peer's end-entity certificate as the trust store validated it:
    /// every later check ([`SessionCache::store_validated`],
    /// [`SessionCache::retain_valid`], the resumption offer) re-validates
    /// it without verifying its signature again, and looking a session up
    /// shares it instead of copying it.
    pub peer: ValidatedCertificate,
    /// The resumption ticket covering this session (client side; servers
    /// cache sessions without one and validate the client's offer).
    pub ticket: Option<ResumptionTicket>,
}

/// A bounded, thread-safe session cache.
///
/// Servers key sessions by session id; clients additionally key by peer
/// name so they can find a resumable session for a given gateway.
///
/// The cache carries an *epoch*: every outstanding resumption ticket is
/// minted under the epoch current at handshake time, and bumping it
/// (revocation event, administrative flush) invalidates them all at once
/// without touching individual entries.
pub struct SessionCache {
    inner: Mutex<Inner>,
    capacity: usize,
    epoch: AtomicU64,
}

struct Inner {
    by_id: HashMap<Vec<u8>, CachedSession>,
    by_peer: HashMap<String, Vec<u8>>,
    /// Reverse of `by_peer`, so eviction needs no scan over all peers.
    peer_of: HashMap<Vec<u8>, String>,
    /// FIFO eviction order. Invalidated ids stay queued (lazy deletion)
    /// and are skipped when they reach the front; `compact` bounds the
    /// stale backlog.
    order: VecDeque<Vec<u8>>,
}

impl Inner {
    fn evict_oldest(&mut self) {
        while let Some(oldest) = self.order.pop_front() {
            if self.by_id.remove(&oldest).is_none() {
                continue; // stale entry from an invalidate
            }
            if let Some(peer) = self.peer_of.remove(&oldest) {
                if self.by_peer.get(&peer).is_some_and(|id| *id == oldest) {
                    self.by_peer.remove(&peer);
                }
            }
            return;
        }
    }

    /// Drops stale queue entries once they outnumber live sessions —
    /// amortised O(1) per cache operation.
    fn compact(&mut self) {
        if self.order.len() > self.by_id.len().max(1) * 2 {
            let by_id = &self.by_id;
            self.order.retain(|id| by_id.contains_key(id));
        }
    }

    fn remove(&mut self, session_id: &[u8]) {
        self.by_id.remove(session_id);
        if let Some(peer) = self.peer_of.remove(session_id) {
            if self
                .by_peer
                .get(&peer)
                .is_some_and(|id| id.as_slice() == session_id)
            {
                self.by_peer.remove(&peer);
            }
        }
    }
}

impl SessionCache {
    /// A cache holding at most `capacity` sessions (FIFO eviction).
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            inner: Mutex::new(Inner {
                by_id: HashMap::new(),
                by_peer: HashMap::new(),
                peer_of: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current cache epoch (stamped into minted tickets).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bumps the epoch, invalidating every outstanding ticket at once.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Stores a session, associating it with `peer_name` for client lookup.
    ///
    /// Production callers should prefer [`store_validated`], which refuses
    /// entries whose certificate no longer validates (e.g. landed on a CRL
    /// between authentication and caching).
    ///
    /// [`store_validated`]: SessionCache::store_validated
    pub fn store(&self, peer_name: &str, session: CachedSession) {
        let mut inner = self.inner.lock();
        if inner.by_id.len() >= self.capacity && !inner.by_id.contains_key(&session.session_id) {
            inner.evict_oldest();
        }
        let id = session.session_id.clone();
        if !inner.by_id.contains_key(&id) {
            inner.order.push_back(id.clone());
        }
        if let Some(old) = inner.by_peer.insert(peer_name.to_owned(), id.clone()) {
            if old != id {
                inner.peer_of.remove(&old);
            }
        }
        inner.peer_of.insert(id.clone(), peer_name.to_owned());
        inner.by_id.insert(id, session);
        inner.compact();
    }

    /// Stores a session only if its peer certificate still validates
    /// against `trust` at `now` — in particular, a certificate already on
    /// the CRL never enters the cache. Returns whether it was stored.
    pub fn store_validated(
        &self,
        peer_name: &str,
        session: CachedSession,
        trust: &TrustStore,
        now: u64,
    ) -> bool {
        if trust
            .revalidate(&session.peer, now, RequiredUsage::Any)
            .is_err()
        {
            return false;
        }
        self.store(peer_name, session);
        true
    }

    /// Server-side lookup by session id.
    pub fn lookup_id(&self, session_id: &[u8]) -> Option<CachedSession> {
        self.inner.lock().by_id.get(session_id).cloned()
    }

    /// Client-side lookup by peer name.
    pub fn lookup_peer(&self, peer_name: &str) -> Option<CachedSession> {
        let inner = self.inner.lock();
        let id = inner.by_peer.get(peer_name)?;
        inner.by_id.get(id).cloned()
    }

    /// Removes a session (e.g. after it fails to resume). The queue slot
    /// is reclaimed lazily by eviction or `compact`.
    pub fn invalidate(&self, session_id: &[u8]) {
        let mut inner = self.inner.lock();
        inner.remove(session_id);
        inner.compact();
    }

    /// Removes every session whose entry matches `pred` (e.g. all sessions
    /// authenticated by a newly revoked certificate). Returns how many
    /// were dropped.
    pub fn invalidate_matching(&self, pred: impl Fn(&CachedSession) -> bool) -> usize {
        let mut inner = self.inner.lock();
        let doomed: Vec<Vec<u8>> = inner
            .by_id
            .values()
            .filter(|s| pred(s))
            .map(|s| s.session_id.clone())
            .collect();
        for id in &doomed {
            inner.remove(id);
        }
        inner.compact();
        doomed.len()
    }

    /// Drops every session whose certificate no longer validates against
    /// `trust` at `now` — the CRL-refresh sweep. Returns how many were
    /// dropped.
    pub fn retain_valid(&self, trust: &TrustStore, now: u64) -> usize {
        self.invalidate_matching(|s| trust.revalidate(&s.peer, now, RequiredUsage::Any).is_err())
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.inner.lock().by_id.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_certs::{CertificateAuthority, DistinguishedName, KeyUsage, Validity};
    use unicore_crypto::CryptoRng;

    /// A server certificate as its CA's own trust store validated it.
    fn cert(cn: &str) -> ValidatedCertificate {
        let mut rng = CryptoRng::from_u64(80);
        let mut ca = CertificateAuthority::new_root(
            DistinguishedName::new("DE", "T", "T", "CA"),
            Validity::starting_at(0, 1000),
            512,
            &mut rng,
        );
        let cert = ca
            .issue_identity(
                DistinguishedName::new("DE", "T", "T", cn),
                KeyUsage::server(),
                Validity::starting_at(0, 100),
                &mut rng,
            )
            .unwrap()
            .cert;
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone()).unwrap();
        trust.validate(&[cert], 10, RequiredUsage::Any).unwrap()
    }

    fn session(id: u8) -> CachedSession {
        CachedSession {
            session_id: vec![id],
            master: vec![id; 32],
            peer: cert("peer"),
            ticket: None,
        }
    }

    #[test]
    fn store_and_lookup() {
        let cache = SessionCache::new(4);
        cache.store("FZJ", session(1));
        assert_eq!(cache.lookup_id(&[1]).unwrap().master, vec![1; 32]);
        assert_eq!(cache.lookup_peer("FZJ").unwrap().session_id, vec![1]);
        assert!(cache.lookup_peer("RUS").is_none());
        assert!(cache.lookup_id(&[9]).is_none());
    }

    #[test]
    fn peer_mapping_updates() {
        let cache = SessionCache::new(4);
        cache.store("FZJ", session(1));
        cache.store("FZJ", session(2));
        assert_eq!(cache.lookup_peer("FZJ").unwrap().session_id, vec![2]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let cache = SessionCache::new(2);
        cache.store("a", session(1));
        cache.store("b", session(2));
        cache.store("c", session(3));
        assert!(cache.lookup_id(&[1]).is_none());
        assert!(cache.lookup_id(&[2]).is_some());
        assert!(cache.lookup_id(&[3]).is_some());
        assert_eq!(cache.len(), 2);
        // Peer mapping to the evicted session is gone too.
        assert!(cache.lookup_peer("a").is_none());
    }

    #[test]
    fn invalidated_slots_are_skipped_on_eviction() {
        let cache = SessionCache::new(2);
        cache.store("a", session(1));
        cache.store("b", session(2));
        cache.invalidate(&[1]);
        cache.store("c", session(3));
        cache.store("d", session(4)); // must evict 2 (oldest live), not 3
        assert!(cache.lookup_id(&[2]).is_none());
        assert!(cache.lookup_id(&[3]).is_some());
        assert!(cache.lookup_id(&[4]).is_some());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup_peer("b").is_none());
    }

    #[test]
    fn store_invalidate_churn_stays_consistent() {
        let cache = SessionCache::new(2);
        for i in 0..200u8 {
            cache.store("p", session(i));
            cache.invalidate(&[i]);
        }
        assert!(cache.is_empty());
        assert!(cache.lookup_peer("p").is_none());
        cache.store("p", session(201));
        assert_eq!(cache.lookup_peer("p").unwrap().session_id, vec![201]);
    }

    #[test]
    fn invalidate_removes_everywhere() {
        let cache = SessionCache::new(4);
        cache.store("FZJ", session(1));
        cache.invalidate(&[1]);
        assert!(cache.is_empty());
        assert!(cache.lookup_peer("FZJ").is_none());
    }

    #[test]
    fn epoch_bumps_monotonically() {
        let cache = SessionCache::new(4);
        assert_eq!(cache.epoch(), 0);
        assert_eq!(cache.bump_epoch(), 1);
        assert_eq!(cache.bump_epoch(), 2);
        assert_eq!(cache.epoch(), 2);
    }

    #[test]
    fn invalidate_matching_drops_by_predicate() {
        let cache = SessionCache::new(8);
        cache.store("a", session(1));
        cache.store("b", session(2));
        cache.store("c", session(3));
        let dropped = cache.invalidate_matching(|s| s.session_id[0] % 2 == 1);
        assert_eq!(dropped, 2);
        assert!(cache.lookup_id(&[1]).is_none());
        assert!(cache.lookup_id(&[2]).is_some());
        assert!(cache.lookup_id(&[3]).is_none());
        assert!(cache.lookup_peer("a").is_none());
        assert!(cache.lookup_peer("b").is_some());
    }

    #[test]
    fn store_validated_refuses_untrusted_cert() {
        // Empty trust store: nothing validates, so nothing is cached.
        let trust = TrustStore::new();
        let cache = SessionCache::new(4);
        assert!(!cache.store_validated("FZJ", session(1), &trust, 10));
        assert!(cache.is_empty());
    }
}
